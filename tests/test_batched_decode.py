"""Property tests for the batched decoders: every observation of a batch is
decoded as a direct per-observation argmin of its own distance would decode
it, ties included, and across more than one chunk of the distance kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avwiretap.channel import EveTrace, MainChannel, PowerConfig, complex_normal
from avwiretap.codebook import (
    _SAMPLE_BATCH,
    BinningParams,
    Codebook,
    codebook_ensemble,
    estimate_decode_error,
    eve_bin_decode,
    ml_decode_main,
    sample_codebook,
)

SETTINGS = settings(max_examples=60, deadline=None)


def _book(rng, n_bins, per_bin, n_tx, n, duplicate):
    """Random codebook; with ``duplicate`` the last codeword copies the first,
    so observations of either sit at an exact tie."""
    cw = complex_normal(rng, (n_bins * per_bin, n_tx, n))
    if duplicate and cw.shape[0] > 1:
        cw[-1] = cw[0]
    pc = PowerConfig(pbar=n_tx + 1000.0, eps_p=0.0, n_tx=n_tx)
    return Codebook(codewords=cw, n_bins=n_bins, per_bin=per_bin, mode="weak", pc=pc)


def _reference_main(y, ch, cb):
    """Per-observation argmin of the whitened distance (y - h c)^H K^-1 (y - h c)."""
    cov = ch.h @ ch.h.conj().T + np.eye(ch.n_rx)
    out = []
    for obs in y.reshape(-1, ch.n_rx, cb.n):
        diff = obs[None] - ch.h @ cb.codewords
        dists = [np.real(np.vdot(d, np.linalg.solve(cov, d))) for d in diff]
        out.append(divmod(int(np.argmin(dists)), cb.per_bin))
    return out


def _reference_eve(z, bins, trace, cb):
    """Per-observation argmin of the plain distance within the known bin."""
    out = []
    for obs, b in zip(z.reshape(-1, trace.n_eve, cb.n), bins.reshape(-1)):
        clean = np.einsum("iet,kti->kei", trace.stacked, cb.bin_codewords(int(b)))
        out.append(int(np.argmin(np.sum(np.abs(obs[None] - clean) ** 2, axis=(1, 2)))))
    return out


@st.composite
def setups(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_tx = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    cb = _book(rng, draw(st.integers(1, 3)), draw(st.integers(1, 4)), n_tx, n,
               draw(st.booleans()))
    batch = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    labels = rng.integers(cb.size, size=batch)
    noise = draw(st.sampled_from([0.0, 0.3, 3.0]))
    return rng, cb, batch, labels, noise


@SETTINGS
@given(setups(), st.integers(1, 3))
def test_batched_ml_decode_matches_per_observation_argmin(setup, n_rx):
    rng, cb, batch, labels, noise = setup
    ch = MainChannel(complex_normal(rng, (n_rx, cb.n_tx)))
    y = ch.h @ cb.codewords[labels] + noise * complex_normal(rng, (*batch, n_rx, cb.n))
    i_hat, j_hat = ml_decode_main(y, ch, cb)
    assert np.shape(i_hat) == np.shape(j_hat) == batch
    got = list(zip(np.ravel(i_hat).tolist(), np.ravel(j_hat).tolist()))
    assert got == _reference_main(y, ch, cb)
    if noise == 0.0:
        # a clean observation decodes to the first copy of its codeword
        same = [(cb.codewords == cb.codewords[k]).all(axis=(1, 2)) for k in np.ravel(labels)]
        assert got == [divmod(int(np.argmax(m)), cb.per_bin) for m in same]


@SETTINGS
@given(setups(), st.booleans())
def test_batched_eve_decode_matches_per_observation_argmin(setup, one_bin):
    rng, cb, batch, labels, noise = setup
    trace = EveTrace.random(1, cb.n_tx, cb.n, rng)
    bins = np.zeros(batch, dtype=int) if one_bin else labels // cb.per_bin
    x = cb.codewords[bins * cb.per_bin + labels % cb.per_bin]
    z = np.einsum("iet,...ti->...ei", trace.stacked, x)
    z = z + noise * complex_normal(rng, z.shape)
    got = eve_bin_decode(z, 0 if one_bin else bins, trace, cb)
    assert np.shape(got) == batch
    assert np.ravel(got).tolist() == _reference_eve(z, bins, trace, cb)


def test_exact_tie_goes_to_smallest_label(rng):
    cb = _book(rng, 2, 2, 2, 3, duplicate=True)
    ch = MainChannel(complex_normal(rng, (2, 2)))
    trace = EveTrace.random(1, 2, 3, rng)
    # the last codeword (bin 1) copies the first (bin 0)
    assert ml_decode_main(ch.h @ cb.codewords[-1], ch, cb) == (0, 0)
    copies = np.stack([cb.codeword(1, 0), cb.codeword(1, 0)])
    cb_bin = Codebook(codewords=np.concatenate([copies, copies]), n_bins=2,
                      per_bin=2, mode="weak", pc=cb.pc)
    z = np.einsum("iet,ti->ei", trace.stacked, cb.codeword(1, 0))
    assert eve_bin_decode(z, 1, trace, cb_bin) == 0


def test_batch_longer_than_one_chunk(rng):
    cb = _book(rng, 2, 8, 2, 3, duplicate=False)
    ch = MainChannel(complex_normal(rng, (2, 2)))
    trace = EveTrace.random(1, 2, 3, rng)
    count = 2 * _SAMPLE_BATCH + 7
    labels = rng.integers(cb.size, size=count)
    y = ch.h @ cb.codewords[labels] + complex_normal(rng, (count, 2, 3))
    i_hat, j_hat = ml_decode_main(y, ch, cb)
    assert list(zip(i_hat.tolist(), j_hat.tolist())) == _reference_main(y, ch, cb)
    bins = labels // cb.per_bin
    z = np.einsum("iet,kti->kei", trace.stacked, cb.codewords[labels])
    z = z + complex_normal(rng, z.shape)
    assert eve_bin_decode(z, bins, trace, cb).tolist() == _reference_eve(z, bins, trace, cb)


def test_single_observation_types(rng):
    cb = _book(rng, 2, 3, 2, 2, duplicate=False)
    ch = MainChannel(np.eye(2))
    label = ml_decode_main(ch.h @ cb.codeword(1, 2), ch, cb)
    assert label == (1, 2) and all(type(v) is int for v in label)
    trace = EveTrace.random(1, 2, 2, rng)
    z = np.einsum("iet,ti->ei", trace.stacked, cb.codeword(1, 2))
    assert type(eve_bin_decode(z, 1, trace, cb)) is int


def test_estimate_decode_error_rejects_unknown_link(rng):
    cb = _book(rng, 1, 2, 2, 2, duplicate=False)
    with pytest.raises(TypeError):
        estimate_decode_error(cb, np.eye(2), 10, rng)


def test_codebook_ensemble_matches_explicit_loop():
    pc = PowerConfig(pbar=6.0, eps_p=0.5, n_tx=2)
    bp = BinningParams(n=2, rate_bits=1.0, n_bins=2, per_bin=2, delta_n=0.1,
                       delta_prime=0.1, mode="strong")

    def stat(cb):
        return float(np.sum(np.abs(cb.codewords))), cb.codewords[0, 0, 0].real

    mean, stderr = codebook_ensemble(bp, pc, 5, np.random.default_rng(3), stat)
    rng = np.random.default_rng(3)
    vals = np.array([stat(sample_codebook(bp, pc, rng)) for _ in range(5)])
    assert np.array_equal(mean, vals.mean(axis=0))
    assert np.array_equal(stderr, vals.std(axis=0, ddof=1) / math.sqrt(5))
