"""Property tests for the array-native eavesdropper trace: batched
canonicalization, batched observation, stacked quantization and the batched
log-likelihood perturbation kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avwiretap.channel import (
    ORTHO_TOL,
    DimensionError,
    EveTrace,
    canonicalize_eve,
    complex_normal,
    eve_observe,
)
from avwiretap.quantization import (
    check_loglik_perturbation,
    check_loglik_perturbation_batch,
    loglik_drift_bound,
    perturbation_radii,
    quantize_eve,
)

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
            h = canonicalize_eve(h)
        members.append(h)
    return np.stack(members)


@SETTINGS
@given(raw_stacks(), st.booleans())
def test_batched_canonicalize_matches_per_matrix_bitwise(stack, extra_axis):
    per_matrix = np.stack([canonicalize_eve(h) for h in stack])
    batched = canonicalize_eve(stack[None] if extra_axis else stack)
    assert np.array_equal(batched.reshape(stack.shape), per_matrix)


@SETTINGS
@given(raw_stacks())
def test_canonicalize_is_idempotent(stack):
    once = canonicalize_eve(stack)
    assert np.array_equal(canonicalize_eve(once), once)
    assert np.array_equal(canonicalize_eve(once[0]), once[0])


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


def _snap_parts(h, m):
    """The 1/m lattice snap of the real and the imaginary part, one at a time."""
    def snap(v):
        return np.sign(v) * np.floor(np.abs(v) * m + 0.5) / m

    return snap(h.real) + 1j * snap(h.imag)


@SETTINGS
@given(raw_stacks(), st.integers(1, 300))
def test_stacked_quantize_row_error_under_cap(stack, m):
    states = canonicalize_eve(stack)
    snapped = quantize_eve(states, m)
    assert np.array_equal(snapped, np.stack([quantize_eve(h, m) for h in states]))
    # transposed, read-only and extra-axis inputs snap as each part alone
    read_only = states.copy()
    read_only.flags.writeable = False
    for h in (states, states.swapaxes(-1, -2), read_only, states[None]):
        assert np.all(quantize_eve(h, m) == _snap_parts(h, m))
    row_err = np.sum(np.abs(states - snapped) ** 2, axis=-1)
    assert np.all(row_err < 2.0 * states.shape[-1] / m**2)


def _reference_perturbation(x, z, stack_a, stack_b, p, m, eps):
    """The per-instance arithmetic the batched kernel replaced."""
    n_tx, n = x.shape
    radii = perturbation_radii(p, n_tx, z.shape[0], m, eps)
    nan = (False, math.nan, math.nan, False)
    if np.any(np.sum(np.abs(stack_a - stack_b) ** 2, axis=2) >= 2.0 * n_tx / m**2):
        return nan
    if np.sum(np.abs(x) ** 2) / n > p + 1e-12:
        return nan
    residual = float(np.sum(np.abs(z - eve_observe(x, stack_a)) ** 2))
    if residual / n >= radii.r**2:
        return nan
    lhs = abs(residual - float(np.sum(np.abs(z - eve_observe(x, stack_b)) ** 2)))
    rhs = n * loglik_drift_bound(radii)
    return True, lhs, rhs, lhs <= rhs


# Scale factors that put an instance just inside, on, or just outside one
# admissibility edge; "grid" / "free" leave that edge alone.
EDGES = (1.0 - 1e-9, 1.0, 1.0 + 1e-9, 0.5, 2.0)


@st.composite
def perturbation_batches(draw):
    """Instances near the row-error cap, the power cap and the residual
    radius, with their shared (p, m, eps)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_eve = draw(st.integers(1, 2))
    n_tx = draw(st.integers(n_eve, 3))
    n = draw(st.integers(1, 5))
    m = draw(st.sampled_from([1, 3, 10, 100]))
    p = draw(st.floats(0.5, 10.0))
    eps = draw(st.sampled_from([0.05, 0.1, 0.5]))
    r = perturbation_radii(p, n_tx, n_eve, m, eps).r
    cap = 2.0 * n_tx / m**2
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        stack_a = EveTrace.random(n_eve, n_tx, n, rng).stacked
        row_edge = draw(st.sampled_from(("grid", *EDGES)))
        if row_edge == "grid":
            stack_b = quantize_eve(stack_a, m)
        else:
            d = complex_normal(rng, stack_a.shape)
            d *= np.sqrt(cap * row_edge / np.sum(np.abs(d) ** 2, axis=-1, keepdims=True))
            stack_b = stack_a + d
        x = complex_normal(rng, (n_tx, n), var=p / n_tx)
        power_edge = draw(st.sampled_from(("free", *EDGES)))
        if power_edge != "free":
            x *= math.sqrt(p * power_edge * n / np.sum(np.abs(x) ** 2))
        w = complex_normal(rng, (n_eve, n))
        radius_edge = draw(st.sampled_from(("free", *EDGES)))
        if radius_edge != "free":
            w *= math.sqrt(r**2 * radius_edge * n / np.sum(np.abs(w) ** 2))
        rows.append((x, eve_observe(x, stack_a) + w, stack_a, stack_b))
    return [np.stack(part) for part in zip(*rows)], (p, m, eps)


@SETTINGS
@given(perturbation_batches(), st.booleans())
def test_batched_perturbation_matches_per_instance_loop(batch, two_axes):
    (x, z, stack_a, stack_b), (p, m, eps) = batch
    count = x.shape[0]
    lead = (1, count) if two_axes else (count,)
    res = check_loglik_perturbation_batch(
        x.reshape(*lead, *x.shape[1:]), z.reshape(*lead, *z.shape[1:]),
        stack_a.reshape(*lead, *stack_a.shape[1:]),
        stack_b.reshape(*lead, *stack_b.shape[1:]), p=p, m=m, eps=eps,
    )
    assert all(np.shape(f) == lead for f in (res.applicable, res.lhs, res.rhs, res.holds))
    loop = [
        check_loglik_perturbation(x[k], z[k], stack_a[k], stack_b[k], p=p, m=m, eps=eps)
        for k in range(count)
    ]
    for field in ("applicable", "lhs", "rhs", "holds"):
        assert np.array_equal(
            np.ravel(getattr(res, field)), [getattr(c, field) for c in loop], equal_nan=True
        )
    reference = [
        _reference_perturbation(x[k], z[k], stack_a[k], stack_b[k], p, m, eps)
        for k in range(count)
    ]
    got = [(c.applicable, c.lhs, c.rhs, c.holds) for c in loop]
    assert np.array_equal(np.array(got, dtype=float), np.array(reference, dtype=float),
                          equal_nan=True)
    assert all(type(c.applicable) is bool and type(c.lhs) is float for c in loop)


def test_trace_stack_is_read_only(rng):
    trace = EveTrace.random(2, 3, 5, rng)
    assert trace.stacked.shape == (5, 2, 3)
    assert not trace.stacked.flags.writeable
    assert not trace.stacked[0].flags.writeable
    with pytest.raises(ValueError):
        trace.stacked[0, 0, 0] = 0


@st.composite
def scaled_stacks(draw):
    """(count, n_eve, n_tx) stacks whose members have entries on scales from
    1e-150 to 1e150, with nearly rank-deficient and all-zero members."""
    n_eve = draw(st.integers(1, 3))
    n_tx = draw(st.integers(n_eve, 4))
    kinds = draw(st.lists(st.sampled_from(("raw", "nearly-deficient", "zero")),
                          min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for kind in kinds:
        h = complex_normal(rng, (n_eve, n_tx))
        if kind == "nearly-deficient":
            tilt = 10.0 ** draw(st.floats(-15.0, -6.0))
            h = np.outer(complex_normal(rng, (n_eve,)), h[0]) + tilt * h
        elif kind == "zero":
            h = np.zeros((n_eve, n_tx), dtype=complex)
        members.append(10.0 ** draw(st.floats(-150.0, 150.0)) * h)
    return np.stack(members)


@settings(max_examples=200, deadline=None)
@given(scaled_stacks())
def test_canonicalized_stack_is_orthonormal_at_every_scale(stack):
    # the stack form of canonicalize_eve is not re-checked on its way out,
    # so every member must meet ORTHO_TOL by construction
    canon = canonicalize_eve(stack)
    gram = canon @ canon.conj().swapaxes(-1, -2)
    deviation = np.max(np.abs(gram - np.eye(stack.shape[-2])), axis=(-2, -1))
    assert np.all(deviation <= ORTHO_TOL)
    trace = EveTrace(canon)
    assert np.array_equal(trace.stacked, canon)


def test_eve_trace_takes_three_axes_only():
    with pytest.raises(DimensionError):
        EveTrace(np.eye(2))
    with pytest.raises(DimensionError):
        EveTrace(np.eye(2)[None, None])
