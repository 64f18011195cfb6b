"""Property tests for the batched decoders: every observation of a batch is
decoded as a direct per-observation argmin of its own distance would decode
it, ties included, and across more than one chunk of the distance kernel;
the main decoder also where its input-space score rounds differently from
the whitened distance: an ill-conditioned channel, non-square channels, a
complex off-diagonal Gram matrix and a tie across a panel edge.  Also the
book's eavesdropper image: built once per (book, trace), bin by bin as bins
are asked for, over read-only codewords, and never by the main decoder."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avwiretap import codebook
from avwiretap.channel import (
    DimensionError,
    EveTrace,
    MainChannel,
    PowerConfig,
    complex_normal,
    eve_observe,
)
from avwiretap.codebook import (
    _PANEL,
    _SAMPLE_BATCH,
    BinningParams,
    Codebook,
    _image,
    codebook_ensemble,
    estimate_decode_error,
    eve_bin_decode,
    ml_decode_main,
    sample_codebook,
)
from avwiretap.leakage import estimate_leakage_mi, estimate_variational_distance

SETTINGS = settings(max_examples=60, deadline=None)


def _book(rng, n_bins, per_bin, n_tx, n, duplicate):
    """Random codebook; with ``duplicate`` the last codeword copies the first,
    so observations of either sit at an exact tie."""
    cw = complex_normal(rng, (n_bins * per_bin, n_tx, n))
    if duplicate and cw.shape[0] > 1:
        cw[-1] = cw[0]
    pc = PowerConfig(pbar=n_tx + 1000.0, eps_p=0.0, n_tx=n_tx)
    return Codebook(codewords=cw, n_bins=n_bins, per_bin=per_bin, pc=pc)


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
                      per_bin=2, pc=cb.pc)
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


def _check_main(rng, ch, cb, noise):
    """Decode one batch of noisy observations (one noise scale per row) of
    random labels and compare with ``_reference_main``; returns the labels
    and the decoded (i, j) pairs."""
    labels = rng.integers(cb.size, size=len(noise))
    y = ch.h @ cb.codewords[labels]
    y += np.reshape(noise, (-1, 1, 1)) * complex_normal(rng, y.shape)
    i_hat, j_hat = ml_decode_main(y, ch, cb)
    got = list(zip(i_hat.tolist(), j_hat.tolist()))
    assert got == _reference_main(y, ch, cb)
    return labels, got


def _unitary(rng, k):
    q, _ = np.linalg.qr(complex_normal(rng, (k, k)))
    return q


CHANNELS = {
    # singular values 1e3 and 1e-3
    "ill-conditioned": lambda rng: (
        _unitary(rng, 2) @ np.diag([1e3, 1e-3]) @ _unitary(rng, 2).conj().T
    ),
    "1x2": lambda rng: complex_normal(rng, (1, 2)),
    "3x2": lambda rng: complex_normal(rng, (3, 2)),
    # the whitened Gram matrix's off-diagonal entry is 0.098 + 0.137j
    "complex-gram": lambda rng: np.array([[1.0, 0.8j], [0.5 - 0.3j, 2.0]]),
}


@pytest.mark.parametrize("kind", CHANNELS)
def test_main_decode_rounding_sensitive_channels(rng, kind):
    ch = MainChannel(CHANNELS[kind](rng))
    cb = _book(rng, 4, 16, 2, 3, duplicate=True)
    for scale in (0.0, 0.3, 3.0):
        _check_main(rng, ch, cb, np.full(40, scale))


def test_main_decode_tie_across_a_panel_edge(rng):
    # 50 rows stream the centers in panels of _PANEL // 50 = 1310, so
    # codewords 0 and 1400 (equal) lie in different panels
    assert _PANEL // 50 < 1400 < 2 * (_PANEL // 50)
    cw = complex_normal(rng, (1600, 2, 3))
    cw[1400] = cw[0]
    pc = PowerConfig(pbar=1e12, eps_p=0.0, n_tx=2)
    cb = Codebook(codewords=cw, n_bins=2, per_bin=800, pc=pc)
    ch = MainChannel(complex_normal(rng, (2, 2)))
    noise = np.where(np.arange(50) < 20, 0.0, 0.3)
    for _ in range(3):
        labels, got = _check_main(rng, ch, cb, noise)
        assert all(got[r] == (0, 0) for r in range(20) if labels[r] in (0, 1400))
    # the copy itself, clean: the smallest label wins
    i_hat, j_hat = ml_decode_main(np.stack([ch.h @ cw[1400]] * 50), ch, cb)
    assert not i_hat.any() and not j_hat.any()
    # a later near-copy that scores better by about 1e-13 of |z|^2 is
    # within the slack 1e-12 (|z|^2 + max |A c|^2), so the earlier codeword
    # still wins; one better by about 1e-10 of it is not, unless a loud
    # codeword elsewhere in the book or a loud observation (y scaled by
    # gain) widens the slack.  Codeword 0 is made the loudest, so that its
    # near-copy stays the best also against a loud observation along it.
    cw[0] *= 10.0
    quiet = cw[1599].copy()
    cases = [
        # (near-copy scale, loud codeword's scale, gain, decoded label)
        (1.0 + 3e-7, 1.0, 1.0, (0, 0)),
        (1.0 + 1e-5, 1.0, 1.0, (1, 600)),
        (1.0 + 1e-5, 1e4, 1.0, (0, 0)),
        (1.0 + 1e-10, 1.0, 1e4, (0, 0)),
        (1.0 + 1e-4, 1.0, 1.0, (1, 600)),
    ]
    for scale, loud, gain, label in cases:
        cw[1400] = scale * cw[0]
        cw[1599] = loud * quiet
        cb = Codebook(codewords=cw, n_bins=2, per_bin=800, pc=pc)
        i_hat, j_hat = ml_decode_main(np.stack([gain * ch.h @ cw[1400]] * 50), ch, cb)
        assert set(zip(i_hat.tolist(), j_hat.tolist())) == {label}


def test_single_observation_types(rng):
    cb = _book(rng, 2, 3, 2, 2, duplicate=False)
    ch = MainChannel(np.eye(2))
    label = ml_decode_main(ch.h @ cb.codeword(1, 2), ch, cb)
    assert label == (1, 2) and all(type(v) is int for v in label)
    trace = EveTrace.random(1, 2, 2, rng)
    z = np.einsum("iet,ti->ei", trace.stacked, cb.codeword(1, 2))
    assert type(eve_bin_decode(z, 1, trace, cb)) is int


def test_decoders_refuse_observations_of_the_wrong_shape(rng):
    cb = _book(rng, 2, 2, 2, 3, duplicate=False)
    with pytest.raises(DimensionError, match="observation shape"):
        ml_decode_main(np.zeros((2, 4)), MainChannel(np.eye(2)), cb)
    with pytest.raises(DimensionError, match="disagree on transmit antennas"):
        ml_decode_main(np.zeros((3, 3)), MainChannel(np.eye(3)), cb)
    with pytest.raises(DimensionError, match="observation shape"):
        eve_bin_decode(np.zeros((2, 3)), 0, EveTrace.random(1, 2, 3, rng), cb)


def test_estimate_decode_error_rejects_unknown_link(rng):
    cb = _book(rng, 1, 2, 2, 2, duplicate=False)
    with pytest.raises(TypeError):
        estimate_decode_error(cb, np.eye(2), 10, rng)


def test_codebook_ensemble_matches_explicit_loop():
    pc = PowerConfig(pbar=6.0, eps_p=0.5, n_tx=2)
    bp = BinningParams(n=2, rate_bits=1.0, n_bins=2, per_bin=2)

    def stat(cb):
        return float(np.sum(np.abs(cb.codewords))), cb.codewords[0, 0, 0].real

    mean, stderr = codebook_ensemble(bp, pc, 5, np.random.default_rng(3), stat)
    rng = np.random.default_rng(3)
    vals = np.array([stat(sample_codebook(bp, pc, rng)) for _ in range(5)])
    assert np.array_equal(mean, vals.mean(axis=0))
    assert np.array_equal(stderr, vals.std(axis=0, ddof=1) / math.sqrt(5))


def _observed_rows(monkeypatch, cb):
    """Wrap the codebook module's ``eve_observe`` and return the list that
    collects the (first, stop) codeword rows of every call on a slice of
    the book."""
    seen = []
    row_bytes = cb.codewords[0].nbytes
    base = cb.codewords.__array_interface__["data"][0]

    def wrapped(x, states):
        if np.shares_memory(x, cb.codewords):
            first = (x.__array_interface__["data"][0] - base) // row_bytes
            seen.append((first, first + x.shape[0]))
        return eve_observe(x, states)

    monkeypatch.setattr(codebook, "eve_observe", wrapped)
    return seen


def _covered(seen):
    return sorted(r for first, stop in seen for r in range(first, stop))


def test_eve_image_observes_each_codeword_once_per_trace(monkeypatch):
    pc = PowerConfig(pbar=6.0, eps_p=0.5, n_tx=2)
    bp = BinningParams(n=3, rate_bits=1.0, n_bins=5, per_bin=7)
    rng = np.random.default_rng(8)
    cb = sample_codebook(bp, pc, rng)
    trace = EveTrace.random(1, 2, 3, rng)
    seen = _observed_rows(monkeypatch, cb)
    estimate_decode_error(cb, trace, 40, rng)
    estimate_variational_distance(cb, trace, range(3), 20, rng)
    estimate_leakage_mi(cb, trace, 20, rng)
    eve_bin_decode(np.zeros((1, 3)), 4, trace, cb)
    assert _covered(seen) == list(range(cb.size))
    for i in (0, 4):
        clean = eve_observe(cb.bin_codewords(i), trace).reshape(cb.per_bin, -1)
        assert np.array_equal(cb.eve_image(trace, i), _image(clean))

    # a second trace, even an equal one, rebuilds the image
    other = EveTrace(trace.stacked)
    seen.clear()
    estimate_leakage_mi(cb, other, 20, rng)
    assert _covered(seen) == list(range(cb.size))
    full = _image(eve_observe(cb.codewords, other).reshape(cb.size, -1))
    assert np.array_equal(cb.eve_image(other), full)


def test_codewords_read_only_and_bins_checked(rng):
    cb = _book(rng, 2, 3, 2, 2, duplicate=False)
    assert not cb.codewords.flags.writeable
    with pytest.raises(ValueError):
        cb.codewords[0, 0, 0] = 1.0
    trace = EveTrace.random(1, 2, 2, rng)
    for bad in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            eve_bin_decode(np.zeros((1, 2)), bad, trace, cb)
        with pytest.raises(ValueError, match="out of range"):
            estimate_variational_distance(cb, trace, [bad], 4, rng)


def test_main_decoder_builds_no_book_image(monkeypatch, rng):
    cb = _book(rng, 2, 8, 2, 3, duplicate=True)
    ch = MainChannel(complex_normal(rng, (2, 2)))
    labels = rng.integers(cb.size, size=40)
    y = ch.h @ cb.codewords[labels] + complex_normal(rng, (40, 2, 3))
    expected = _reference_main(y, ch, cb)

    def refuse(*args, **kwargs):
        raise AssertionError("the main decoder built an image of the book")

    # the codewords are scored as they are, against back-projected rows
    monkeypatch.setattr(codebook, "_image", refuse)
    monkeypatch.setattr(codebook, "_augment", refuse)
    monkeypatch.setattr(Codebook, "eve_image", refuse)
    i_hat, j_hat = ml_decode_main(y, ch, cb)
    assert list(zip(i_hat.tolist(), j_hat.tolist())) == expected
    estimate_decode_error(cb, ch, 40, rng)
