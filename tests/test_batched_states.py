"""Property tests for the array-native eavesdropper trace: batched
canonicalization, batched observation and stacked quantization."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from avwiretap.channel import EveTrace, canonicalize_eve, complex_normal, eve_observe
from avwiretap.quantization import quantize_eve

SETTINGS = settings(max_examples=60, deadline=None)
KINDS = ("raw", "rank-deficient", "zero", "canonical")


@st.composite
def raw_stacks(draw):
    """(count, n_eve, n_tx) stacks mixing raw, rank-deficient, all-zero and
    already-canonical members."""
    n_eve = draw(st.integers(1, 3))
    n_tx = draw(st.integers(n_eve, 4))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for kind in kinds:
        h = complex_normal(rng, (n_eve, n_tx))
        if kind == "rank-deficient":
            h = np.outer(complex_normal(rng, (n_eve,)), h[0])
        elif kind == "zero":
            h = np.zeros((n_eve, n_tx), dtype=complex)
        elif kind == "canonical":
            h = canonicalize_eve(h).ht
        members.append(h)
    return np.stack(members)


@SETTINGS
@given(raw_stacks(), st.booleans())
def test_batched_canonicalize_matches_per_matrix_bitwise(stack, extra_axis):
    per_matrix = np.stack([canonicalize_eve(h).ht for h in stack])
    batched = canonicalize_eve(stack[None] if extra_axis else stack)
    assert np.array_equal(batched.reshape(stack.shape), per_matrix)


@SETTINGS
@given(raw_stacks())
def test_canonicalize_is_idempotent(stack):
    once = canonicalize_eve(stack)
    assert np.array_equal(canonicalize_eve(once), once)
    assert np.array_equal(canonicalize_eve(once[0]).ht, once[0])


@SETTINGS
@given(
    st.integers(1, 3),
    st.integers(0, 2),
    st.integers(1, 5),
    st.lists(st.integers(1, 3), max_size=2),
    st.integers(0, 2**32 - 1),
)
def test_batched_observe_uses_state_i_for_column_i(n_eve, extra_tx, n, batch, seed):
    rng = np.random.default_rng(seed)
    n_tx = n_eve + extra_tx
    trace = EveTrace.random(n_eve, n_tx, n, rng)
    x = complex_normal(rng, (*batch, n_tx, n))
    out = eve_observe(x, trace)
    assert out.shape == (*batch, n_eve, n)
    for i in range(n):
        expected = trace.stacked[i] @ x[..., :, i : i + 1]
        assert np.allclose(out[..., :, i : i + 1], expected, rtol=1e-13, atol=1e-13)
    assert np.array_equal(eve_observe(x, np.array(trace.stacked)), out)


@SETTINGS
@given(raw_stacks(), st.integers(1, 300))
def test_stacked_quantize_row_error_under_cap(stack, m):
    states = canonicalize_eve(stack)
    snapped = quantize_eve(states, m)
    assert np.array_equal(snapped, np.stack([quantize_eve(h, m) for h in states]))
    row_err = np.sum(np.abs(states - snapped) ** 2, axis=-1)
    assert np.all(row_err < 2.0 * states.shape[-1] / m**2)
