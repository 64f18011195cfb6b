"""Property tests for the real-arithmetic distance and log-sum-exp kernel
behind the exact mixtures: ``mixture_logpdf`` and ``estimate_leakage_mi``
(its posterior-entropy summand) agree with direct broadcast distances and
scipy's log-sum-exp, far from every center and across more than one chunk;
the per-bin sums that underflow take the max-shift fallback;
``_binned_lse`` matches a dense reference where bins share a panel or split
across several, and ``_nearest`` a dense argmin where panel edges cut ties
and the brute-force tie rule where a later panel's best beats an earlier
one by less or more than the slack; and the kernel, the decoder's
nearest-center search, the sampler, the main decoder and one leakage
estimate stay inside fixed memory budgets.
Also pins ``complex_normal`` to its draw."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from avwiretap.channel import (
    EveTrace,
    MainChannel,
    PowerConfig,
    complex_normal,
    eve_observe,
    main_observe,
    transmit,
)
from avwiretap.codebook import (
    _PANEL,
    _SAMPLE_BATCH,
    BinningParams,
    _binned_lse,
    _image,
    _nearest,
    binning_params,
    ml_decode_main,
    sample_codebook,
)
from avwiretap.leakage import estimate_leakage_mi, mixture_logpdf
from avwiretap.rates import main_mutual_info

SETTINGS = settings(max_examples=60, deadline=None)


def _reference_logpdf(z, centers):
    """ln of the equal-weight unit-noise mixture from broadcast distances."""
    sq = np.sum(np.abs(z[:, None, :] - centers[None]) ** 2, axis=2)
    return logsumexp(-sq, axis=1) - math.log(len(centers)) - z.shape[1] * math.log(math.pi)


@SETTINGS
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 3, 17, _SAMPLE_BATCH + 1, 2 * _SAMPLE_BATCH + 7]),
    st.integers(1, 40),
    st.integers(1, 6),
    st.booleans(),
)
def test_mixture_logpdf_matches_broadcast_reference(seed, rows, count, dim, far):
    rng = np.random.default_rng(seed)
    centers = complex_normal(rng, (count, dim), var=3.0)
    z = complex_normal(rng, (rows, dim), var=5.0)
    if far:
        # push every row out to |z| = 1e3, far from every center
        z *= 1e3 / np.linalg.norm(z, axis=1, keepdims=True)
    got = mixture_logpdf(z, centers)
    assert got.shape == (rows,) and np.all(np.isfinite(got))
    assert np.max(np.abs(got - _reference_logpdf(z, centers))) <= 1e-9


def _nearest_image(z, image):
    """``_nearest`` of complex rows z (rows, dim) against an ``_image``, as
    the eavesdropper's decoder calls it: [re z | im z] against the image's
    2 c columns, its -|c|^2 column as the bias and |z|^2 as the norms."""
    rows = np.concatenate([z.real, z.imag], axis=1)
    return _nearest(rows, image[:, :-2], image[:, -2], np.einsum("ij,ij->i", rows, rows))


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 5), st.integers(1, 4))
def test_binned_lse_falls_back_where_bin_sums_underflow(seed, n_bins, per_bin, dim):
    rng = np.random.default_rng(seed)
    # bins a few units apart: a row near one bin keeps every bin's exp-sum
    # representable, a row 1e3 out underflows every one to zero
    offsets = 4.0 * np.arange(n_bins).repeat(per_bin)
    centers = complex_normal(rng, (n_bins * per_bin, dim)) + offsets[:, None]
    near = centers[rng.integers(centers.shape[0], size=9)] + complex_normal(rng, (9, dim), var=0.5)
    far = complex_normal(rng, (7, dim))
    far *= (1e3 + 4.0 * n_bins) / np.linalg.norm(far, axis=1, keepdims=True)
    z = np.concatenate([near, far])[rng.permutation(16)]
    sq = np.sum(np.abs(z[:, None, :] - centers[None]) ** 2, axis=2)
    ref = logsumexp(-sq.reshape(16, n_bins, per_bin), axis=2)
    got = _binned_lse(z, _image(centers), n_bins)
    assert got.shape == (16, n_bins) and np.all(np.isfinite(got))
    assert np.max(np.abs(got - ref)) <= 1e-9
    assert np.array_equal(_nearest_image(z, _image(centers)), np.argmin(sq, axis=1))


def _dense_binned_lse(z, centers, groups):
    """Per-bin scipy log-sum-exp of direct distances, a few rows at a time."""
    out = []
    for s in range(0, z.shape[0], 16):
        sq = np.sum(np.abs(z[s : s + 16, None, :] - centers[None]) ** 2, axis=2)
        out.append(logsumexp(-sq.reshape(sq.shape[0], groups, -1), axis=2))
    return np.concatenate(out)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 3, 257, 512, 600]),
    st.sampled_from([13, 300, 4099]),
    st.sampled_from([1, 4, 7]),
    st.integers(1, 3),
)
@example(seed=1, rows=512, per_bin=300, groups=4, dim=2)
@example(seed=2, rows=512, per_bin=13, groups=7, dim=1)
def test_binned_lse_matches_dense_reference_across_panel_edges(seed, rows, per_bin, groups, dim):
    # panels take whole bins where one fits in _PANEL // rows centers (nine
    # 13-center bins to a 117-wide panel at 512 rows), else split each bin
    # into near-equal panels (300 into three of 100 at 512 rows, 4099 into
    # 38 uneven ones at 600); far rows underflow every bin and go through
    # the fallback, in chunks of _PANEL // count rows
    rng = np.random.default_rng(seed)
    centers = complex_normal(rng, (groups * per_bin, dim), var=3.0)
    z = complex_normal(rng, (rows, dim), var=5.0)
    far = rng.random(rows) < 0.3
    z[far] *= 1e3 / np.linalg.norm(z[far], axis=1, keepdims=True)
    got = _binned_lse(z, _image(centers), groups)
    ref = _dense_binned_lse(z, centers, groups)
    assert got.shape == (rows, groups) and np.all(np.isfinite(got))
    # absolute near the centers, relative out at |z|^2 = 1e6
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_binned_lse_and_nearest_stay_in_bounded_buffers():
    rng = np.random.default_rng(3)
    z = complex_normal(rng, (_SAMPLE_BATCH, 8), var=5.0)
    z[::7] *= 1e3  # far rows take the fallback
    image = _image(complex_normal(rng, (2**14, 8), var=3.0))
    tracemalloc.start()
    try:
        out = _binned_lse(z, image, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(out))
    # one (512, 16384) distance matrix would be 67 MB; the panel is 512 KB
    assert peak < 4e6

    image = _image(complex_normal(rng, (2**18, 1)))
    tracemalloc.start()
    try:
        idx = _nearest_image(z[:, :1], image)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert idx.shape == (_SAMPLE_BATCH,)
    # the centers stream through one 512 KB panel (plus its boolean hit
    # mask); one (512, 2^18) distance matrix would be 1 GB
    assert peak < 2 * 8 * _PANEL


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 5, _SAMPLE_BATCH + 1, 2 * _SAMPLE_BATCH + 7]),
    st.sampled_from([1, 2, 129, 461]),
    st.integers(1, 3),
)
def test_nearest_matches_dense_argmin_across_panel_edges(seed, rows, count, dim):
    # a batch of min(rows, _SAMPLE_BATCH) rows streams _PANEL // batch
    # centers per panel, which 129 and 461 do not divide; an exact
    # duplicate on each side of the first panel edge makes rows at it tie
    rng = np.random.default_rng(seed)
    width = _PANEL // min(rows, _SAMPLE_BATCH)
    centers = complex_normal(rng, (count, dim), var=3.0)
    if count > width:
        centers[min(width + 2, count - 1)] = centers[width - 3]
    z = centers[rng.integers(count, size=rows)] + complex_normal(rng, (rows, dim), var=0.3)
    z[::3] = centers[min(width - 3, count - 1)]
    sq = np.sum(np.abs(z[:, None, :] - centers[None]) ** 2, axis=2)
    got = _nearest_image(z, _image(centers))
    assert got.dtype == np.intp and got.shape == (rows,)
    assert np.array_equal(got, np.argmin(sq, axis=1))


def _first_within_slack(z, centers):
    """The tie rule by brute force: the first center whose direct squared
    distance is within 1e-12 (|z|^2 + max |c|^2) of the row's least."""
    sq = np.sum(np.abs(z[:, None, :] - centers[None]) ** 2, axis=2)
    c_max = np.max(np.sum(np.abs(centers) ** 2, axis=1))
    slack = 1e-12 * (np.sum(np.abs(z) ** 2, axis=1) + c_max)
    return np.argmax(sq <= (sq.min(axis=1) + slack)[:, None], axis=1)


@pytest.mark.parametrize("gap, later", [(5e-11, False), (1e-9, True)])
def test_nearest_later_panel_best_within_slack_keeps_earlier_center(gap, later):
    # a full batch streams 128-center panels; center 5 (panel 0) is 1 from
    # the origin and center 130 (panel 1) is 1 - gap, against a slack of
    # 1e-12 * max |c|^2 = 1e-10: within it the rise in panel 1 is a tie and
    # the earlier center wins, past it the later one does
    width = _PANEL // _SAMPLE_BATCH
    centers = np.full((2 * width, 1), 10.0 + 0j)
    centers[5] = 1.0
    centers[width + 2] = math.sqrt(1.0 - gap)
    z = np.zeros((_SAMPLE_BATCH, 1), dtype=complex)
    got = _nearest_image(z, _image(centers))
    assert np.array_equal(got, _first_within_slack(z, centers))
    assert np.all(got == (width + 2 if later else 5))


def test_nearest_center_exactly_at_the_slack_floor_is_tied():
    # the earlier center's value is exactly the floor best - slack, rounded
    # so that best minus it exceeds the slack: it still ties, as the
    # threshold of the tie rule is the rounded floor, not the difference
    width = _PANEL // _SAMPLE_BATCH
    for far in np.linspace(10.0, 11.0, 101):
        # the kernel's slack at z = 0 is 1e-12 * max |c|^2 = 1e-12 * far^2
        slack = 1e-12 * (far * far)
        floor = -1.0 - slack
        if -1.0 - floor > slack:
            break
    centers = np.full((2 * width, 1), far + 0j)
    centers[5] = complex(1.0, math.sqrt(-floor - 1.0))
    centers[width + 2] = 1.0
    image = _image(centers)
    assert image[5, -2] == floor and -1.0 - floor > slack
    assert np.all(_nearest_image(np.zeros((_SAMPLE_BATCH, 1), dtype=complex), image) == 5)


def _default_n8_book():
    """The default simulate's n = 8 parameters: 4 bins of 4096 codewords."""
    pc = PowerConfig(pbar=6.0, eps_p=0.5, n_tx=2)
    i_main = main_mutual_info(MainChannel(np.eye(2)), pc)
    bp = binning_params(i_main, math.log2(pc.p_prime), 8, 0.5, 0.25, "strong")
    assert (bp.n_bins, bp.per_bin) == (4, 4096)
    return bp, pc


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampler_and_main_decoder_stream_the_default_book():
    rng = np.random.default_rng(11)
    bp, pc = _default_n8_book()
    cb, peak = _traced_peak(sample_codebook, bp, pc, rng)
    # the candidates go in 1 MB chunks whose kept rows go straight into the
    # book; a whole round with its squared view and kept-row copy is 10 MB
    assert peak - cb.codewords.nbytes < 3e6
    ch = MainChannel(np.eye(2))
    y = main_observe(transmit(cb.codewords[rng.integers(cb.size, size=50)], rng), ch, rng)
    _, peak = _traced_peak(ml_decode_main, y, ch, cb)
    # the 512 KB panel, the (16384,) Gram bias and its einsum temporaries;
    # the codewords are scored as the book's own float view, where a whole
    # (16384, 34) whitened image of the book with its observation chunk
    # took 7.6 MB
    assert peak < 2e6


def _reference_leakage_mi(cb, trace, samples, rng):
    """The Rao-Blackwellized summand log2 n_bins - H(pi(z)) from direct
    distances and one scipy log-sum-exp per bin of each batch, pi(z) being
    the posterior over all bins."""
    centers = eve_observe(cb.codewords, trace).reshape(cb.size, -1)
    values = []
    done = 0
    while done < samples:
        b = min(_SAMPLE_BATCH, samples - done)
        w = rng.integers(cb.n_bins, size=b)
        j = rng.integers(cb.per_bin, size=b)
        x = cb.codewords[w * cb.per_bin + j]
        z = eve_observe(x + complex_normal(rng, x.shape), trace).reshape(b, -1)
        sq = np.sum(np.abs(z[:, None, :] - centers[None]) ** 2, axis=2)
        log_bins = np.stack(
            [logsumexp(-sq[:, v * cb.per_bin : (v + 1) * cb.per_bin], axis=1)
             for v in range(cb.n_bins)],
            axis=1,
        )
        log_post = log_bins - logsumexp(log_bins, axis=1, keepdims=True)
        entropy = -np.sum(np.exp(log_post) * log_post, axis=1)
        values.extend(((math.log(cb.n_bins) - entropy) / math.log(2)).tolist())
        done += b
    # two-pass sample variance with divisor samples - 1
    mean = math.fsum(values) / samples
    var = math.fsum((v - mean) ** 2 for v in values) / (samples - 1)
    return mean, math.sqrt(var / samples)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 4),
    st.integers(1, 6),
    st.integers(1, 4),
    st.sampled_from([2, 37, _SAMPLE_BATCH + 3]),
)
# cancellation in a one-pass E[x^2] - mean^2 stderr showed here as a 4.2e-12 gap
@example(seed=851, n_bins=2, per_bin=1, n=1, samples=2)
def test_leakage_mi_matches_per_bin_reference(seed, n_bins, per_bin, n, samples):
    pc = PowerConfig(pbar=6.0, eps_p=0.5, n_tx=2)
    bp = BinningParams(n=n, rate_bits=1.0, n_bins=n_bins, per_bin=per_bin)
    rng = np.random.default_rng(seed)
    cb = sample_codebook(bp, pc, rng)
    trace = EveTrace.random(1, 2, n, rng)
    mi, se = estimate_leakage_mi(cb, trace, samples, np.random.default_rng(seed + 1))
    ref_mi, ref_se = _reference_leakage_mi(cb, trace, samples, np.random.default_rng(seed + 1))
    assert abs(mi - ref_mi) <= 1e-12
    assert abs(se - ref_se) <= 1e-12


def test_leakage_mi_memory_on_largest_default_book():
    bp, pc = _default_n8_book()
    rng = np.random.default_rng(5)
    cb = sample_codebook(bp, pc, rng)
    trace = EveTrace.random(1, 2, 8, rng)
    tracemalloc.start()
    try:
        estimate_leakage_mi(cb, trace, _SAMPLE_BATCH, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (512, 16384) float64 distance buffer alone is 67 MB
    assert peak < 96e6


@SETTINGS
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 5), max_size=3).map(tuple),
    st.sampled_from([1.0, 0.3, 7.5]),
)
def test_complex_normal_splits_one_standard_normal_draw(seed, shape, var):
    z = complex_normal(np.random.default_rng(seed), shape, var=var)
    parts = np.random.default_rng(seed).standard_normal((*shape, 2)) * np.sqrt(var / 2.0)
    assert z.dtype == np.complex128 and z.shape == shape and z.flags.c_contiguous
    assert np.array_equal(z.real, parts[..., 0])
    assert np.array_equal(z.imag, parts[..., 1])
