"""The closed-form canonicalization of one-row eavesdropper states, h / beta
with LAPACK's sign: the row LAPACK's SVD returns, to rounding and without an
SVD, at every stack size, scale and sign of zero.  States with two or more
rows keep the batched SVD, bit for bit."""

import numpy as np
import pytest

from avwiretap.channel import EveTrace, canonicalize_eve, complex_normal, random_eve_state

# Max distance from LAPACK's right-singular row, and max Gram deviation.
ROW_TOL = 4e-15


def _svd_rows(h):
    return np.linalg.svd(h, full_matrices=True)[2][..., : h.shape[-2], :]


def _gram_deviation(v):
    gram = v @ v.conj().swapaxes(-1, -2)
    return np.max(np.abs(gram - np.eye(v.shape[-2])))


@pytest.mark.parametrize("n_tx", [1, 2, 3, 4])
def test_one_row_closed_form_matches_lapack_svd(n_tx):
    rng = np.random.default_rng(100 + n_tx)
    h = complex_normal(rng, (4, 500, 1, n_tx))
    assert np.max(np.abs(canonicalize_eve(h) - _svd_rows(h))) <= ROW_TOL


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
    assert np.max(np.abs(v - _svd_rows(h))) <= ROW_TOL


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
