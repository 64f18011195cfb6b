"""The closed-form canonicalization of one-row eavesdropper states: a row h
becomes h / |h| and a zero row e_1, without an SVD, at every stack size,
scale and sign of zero, and a row that is already canonical is kept.  States
with two or more rows keep the batched SVD, bit for bit.

Any orthonormal basis of a state's row space gives the same observation
law, so the pipeline must not care which unit multiple of a one-row state it
is given: the last tests scale every state of a trace by a sign or a unit
phase and compare the eavesdropper's decisions, the leakage estimates and
the information densities."""

import math

import numpy as np
import pytest

from avwiretap.channel import (
    EveTrace,
    PowerConfig,
    canonicalize_eve,
    complex_normal,
    eve_observe,
    random_eve_state,
    transmit,
)
from avwiretap.codebook import BinningParams, eve_bin_decode, sample_codebook
from avwiretap.leakage import (
    _density_chunks,
    estimate_leakage_mi,
    estimate_variational_distance,
)

# Max distance from the row over its norm, and max Gram deviation.
ROW_TOL = 4e-15


def _svd_rows(h):
    return np.linalg.svd(h, full_matrices=True)[2][..., : h.shape[-2], :]


def _gram_deviation(v):
    gram = v @ v.conj().swapaxes(-1, -2)
    return np.max(np.abs(gram - np.eye(v.shape[-2])))


@pytest.mark.parametrize("n_tx", [1, 2, 3, 4])
def test_one_row_states_are_the_row_over_its_norm(n_tx):
    rng = np.random.default_rng(100 + n_tx)
    h = complex_normal(rng, (4, 500, 1, n_tx))
    unit = h / np.linalg.norm(h, axis=-1, keepdims=True)
    assert np.max(np.abs(canonicalize_eve(h) - unit)) <= ROW_TOL


def test_zero_rows_become_e1_and_canonical_rows_are_kept():
    rng = np.random.default_rng(5)
    h = complex_normal(rng, (6, 1, 3))
    # two rows already canonical, at whatever phase they have
    h[:2] /= np.linalg.norm(h[:2], axis=-1, keepdims=True)
    h[2] = 0.0
    h[3] = complex(-0.0, -0.0)
    v = canonicalize_eve(h)
    assert np.array_equal(v[:2], h[:2])
    assert np.array_equal(v[2:4], np.broadcast_to(np.eye(1, 3), (2, 1, 3)))
    assert np.array_equal(canonicalize_eve(np.zeros((1, 2))), [[1, 0]])
    assert np.array_equal(canonicalize_eve([[0.6j, -0.8]]), [[0.6j, -0.8]])


# (row, power of two it is scaled by): no row has unit norm, so none is
# kept as already canonical, and the scaling is exact, so each scaled row is
# parallel to the row as written
EDGE_ROWS = [
    ([0, 0], 0), ([0, 0, 0], 0),  # zero rows
    ([5, 0], 0), ([-5, 0], 0), ([2 + 3j, 0], 0), ([2j, 0, 0], 0), ([-3], 0), ([2j], 0),  # zero tails
    ([complex(0.0, 1), 1], 0), ([complex(-0.0, 1), 1], 0),  # +-0.0 real parts
    ([complex(0.0, 0), 3j], 0), ([complex(-0.0, 0), 2], 0), ([complex(-0.0, -2), 0], 0),
    ([1j, 2], 0), ([-3j, 1 + 1j, -2], 0),  # pure-imaginary head
    ([3 + 4j, -1 + 2j], -1063), ([1, 1], -1063), ([1j, -1], -1063),  # subnormal, ~1e-320
    ([1, 0.5], -1070),
    ([3 + 4j, -1 + 2j], 498), ([1, 1j], 498), ([-2, 5j, 1], -498),  # ~1e+-150
    ([3 + 4j, -1 + 2j], 505),  # past 2^500, so scaled first
]


def _edge_row(row, power, n_tx=None):
    """The row scaled by 2**power, zero-padded to n_tx, signed zeros kept."""
    base = np.zeros((1, n_tx or len(row)), dtype=complex)
    base[0, : len(row)] = row
    h = np.empty_like(base)
    h.real, h.imag = np.ldexp(base.real, power), np.ldexp(base.imag, power)
    return base, h


@pytest.mark.parametrize("row, power", EDGE_ROWS)
def test_edge_rows_are_orthonormal_and_span_the_row(row, power):
    base, h = _edge_row(row, power)
    v = canonicalize_eve(h)
    assert np.all(np.isfinite(v.view(float)))
    assert _gram_deviation(v) <= ROW_TOL
    # v spans the row: v is a multiple of it (any unit row spans a zero row)
    minors = np.outer(v[0], base[0]) - np.outer(base[0], v[0])
    assert np.max(np.abs(minors)) <= ROW_TOL * np.max(np.abs(base))


def test_edge_rows_in_one_stack_match_each_row_alone():
    rows = [_edge_row(row, power, n_tx=3)[1] for row, power in EDGE_ROWS if len(row) > 1]
    alone = np.stack([canonicalize_eve(h) for h in rows])
    assert np.array_equal(canonicalize_eve(np.stack(rows)), alone)


@pytest.mark.parametrize("n_eve, n_tx", [(2, 2), (2, 3), (3, 4)])
def test_multi_row_stacks_keep_the_batched_svd_bitwise(n_eve, n_tx):
    h = complex_normal(np.random.default_rng(7), (300, n_eve, n_tx))
    assert np.array_equal(canonicalize_eve(h), _svd_rows(h))


def test_one_row_stacks_need_no_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called on a one-row stack")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    rng = np.random.default_rng(3)
    # large and small stacks, one 2-D state, and 1 x 1 states
    for shape in [(16000, 1, 2), (32, 1, 2), (31, 1, 3), (8, 1, 2), (2, 1, 4), (1, 1, 2),
                  (1, 2), (5, 1, 1)]:
        states = canonicalize_eve(complex_normal(rng, shape))
        assert states.shape == shape and _gram_deviation(states) <= ROW_TOL
        assert random_eve_state(1, shape[-1], rng).shape == (1, shape[-1])
    assert EveTrace.random(1, 2, 50, rng).n == 50


# A small binned book at the default power, n = 4: 4 bins of 16 codewords.
_PC = PowerConfig(pbar=6.0, eps_p=0.5, n_tx=2)
_N = 4


def _book_and_traces(kind):
    """A book, a one-row trace and the same trace with every state times a
    sign (``kind == "sign"``) or a unit phase."""
    rng = np.random.default_rng(31)
    cb = sample_codebook(BinningParams(n=_N, rate_bits=4.0, n_bins=4, per_bin=16), _PC, rng)
    trace = EveTrace.random(1, _PC.n_tx, _N, rng)
    if kind == "sign":
        factors = rng.choice([-1.0, 1.0], size=_N).astype(complex)
    else:
        factors = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=_N))
    return cb, trace, EveTrace(trace.stacked * factors[:, None, None])


@pytest.mark.parametrize("kind, tol", [("sign", 0.0), ("phase", 1e-12)])
def test_scaling_each_state_by_a_unit_leaves_the_pipeline_unchanged(kind, tol):
    cb, trace, scaled = _book_and_traces(kind)
    rng = np.random.default_rng(32)
    w = rng.integers(cb.n_bins, size=400)
    j = rng.integers(cb.per_bin, size=400)
    x = transmit(cb.codewords[w * cb.per_bin + j], rng)
    decisions = eve_bin_decode(eve_observe(x, trace), w, trace, cb)
    assert np.count_nonzero(decisions != j) > 0  # the decoder is not trivially right
    assert np.array_equal(eve_bin_decode(eve_observe(x, scaled), w, scaled, cb), decisions)

    mi = estimate_leakage_mi(cb, trace, 600, np.random.default_rng(33))
    mi_scaled = estimate_leakage_mi(cb, scaled, 600, np.random.default_rng(33))
    assert np.max(np.abs(np.subtract(mi_scaled, mi))) <= tol

    dens = np.concatenate(list(_density_chunks(trace, _PC, 700, np.random.default_rng(34))))
    dens_scaled = np.concatenate(
        list(_density_chunks(scaled, _PC, 700, np.random.default_rng(34)))
    )
    assert np.max(np.abs(dens_scaled - dens)) <= tol


@pytest.mark.parametrize("kind", ["sign", "phase"])
def test_scaling_each_state_by_a_unit_keeps_the_distance_law(kind):
    # the distance estimator's samples do not pass through the trace, so a
    # scaled trace draws other values from the same law
    cb, trace, scaled = _book_and_traces(kind)
    est = estimate_variational_distance(cb, trace, range(cb.n_bins), 2000,
                                        np.random.default_rng(35))
    est_scaled = estimate_variational_distance(cb, scaled, range(cb.n_bins), 2000,
                                               np.random.default_rng(36))
    assert abs(est_scaled.d_hat - est.d_hat) <= 4.0 * math.hypot(est.stderr, est_scaled.stderr)
