import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import t as student_t

from avwiretap.channel import EveTrace, MainChannel, PowerConfig, complex_normal, eve_observe, transmit
from avwiretap.codebook import (
    _SAMPLE_BATCH,
    BinningParams,
    Codebook,
    ToyScaleError,
    _binned_lse,
    binning_params,
    codebook_ensemble,
    eve_bin_decode,
    mean_stderr,
    sample_codebook,
)
from avwiretap.leakage import (
    _density_bits,
    _image_logpdf,
    estimate_leakage_mi,
    estimate_variational_distance,
    eve_error_symmetry_check,
    eve_second_moment_check,
    info_density_tail,
    isotropic_logpdf,
    leakage_from_distance,
    total_distance_bound,
    truncated_vs_gaussian_distance,
)
from avwiretap.quantization import chernoff_exponent, truncation_mass
from avwiretap.rates import main_mutual_info


def _pc(pbar=6.0, eps_p=0.5, n_tx=2):
    return PowerConfig(pbar=pbar, eps_p=eps_p, n_tx=n_tx)


def test_info_density_zero_signal_hits_center():
    pc = PowerConfig(pbar=10.0, eps_p=0.0, n_tx=2)  # p' = 5
    trace = EveTrace.constant(np.array([[1.0, 0.0]]), 3)
    val = _density_bits(np.zeros((2, 3)), np.zeros((1, 3)), trace, pc.p_prime)
    assert val == pytest.approx(math.log2(5))


def test_info_density_hand_point():
    pc = PowerConfig(pbar=10.0, eps_p=0.0, n_tx=2)  # p' = 5
    trace = EveTrace.constant(np.array([[1.0, 0.0]]), 1)
    x = np.array([[1.0], [0.0]])
    z = np.array([[2.0]])
    expected = math.log2(5) + (4 / 5 - 1) * math.log2(math.e)
    assert _density_bits(x, z, trace, pc.p_prime) == pytest.approx(expected)


def test_info_density_mean_matches_channel_rate(rng):
    pc = _pc()
    n, trials = 16, 100_000
    scan = info_density_tail([n], delta=10.0, pc=pc, n_eve=1, trials=trials, rng=rng)
    center = math.log2(pc.p_prime)
    assert scan.estimates[0] == 0.0  # absurd offset: no hits
    assert abs(scan.mean_density[0] - center) <= max(3 * scan.mean_stderr[0], 0.02)


def test_info_density_tail_decreasing_with_floor(rng):
    pc = _pc()
    scan = info_density_tail([50, 100, 200], 0.5, pc, 1, 40_000, rng)
    positive = scan.estimates[scan.estimates > 0]
    assert all(a > b for a, b in zip(scan.estimates, scan.estimates[1:])) or (
        len(positive) < 3 and scan.estimates[0] > scan.estimates[-1]
    )
    assert scan.slope < 0
    # union-bound exponent from the two energy tails is a decay floor
    offset = 0.5 / math.log2(math.e)
    floor = max(
        min(chernoff_exponent(e2, "lower"), chernoff_exponent(offset - e2, "upper"))
        for e2 in np.linspace(1e-3, offset - 1e-3, 500)
    )
    assert abs(scan.slope) >= floor


def test_info_density_tail_zero_hits_reports_upper_bound(rng):
    pc = _pc()
    scan = info_density_tail([8], delta=25.0, pc=pc, n_eve=1, trials=500, rng=rng)
    assert scan.estimates[0] == 0.0
    assert 0 < scan.upper95[0] < 0.01
    assert math.isnan(scan.slope)


def test_info_density_tail_needs_two_trials_for_its_stderr(rng):
    with pytest.raises(ValueError, match="two trials"):
        info_density_tail([8], delta=1.0, pc=_pc(), n_eve=1, trials=1, rng=rng)
    scan = info_density_tail([8], delta=1.0, pc=_pc(), n_eve=1, trials=2, rng=rng)
    assert np.isfinite(scan.mean_stderr[0]) and scan.mean_stderr[0] > 0


def _strong_params(n, delta_n=0.5, delta_prime=0.25):
    pc = _pc()
    ch = MainChannel(np.eye(2))
    return pc, binning_params(
        main_mutual_info(ch, pc), math.log2(pc.p_prime), n=n,
        delta_n=delta_n, delta_prime=delta_prime, mode="strong",
    )


def _strong_setup(rng, n, delta_n=0.5, delta_prime=0.25):
    pc, bp = _strong_params(n, delta_n, delta_prime)
    cb = sample_codebook(bp, pc, rng)
    trace = EveTrace.random(1, 2, n, rng)
    return pc, cb, trace


def test_variational_distance_identical_laws_vanishes(rng):
    pc, cb, trace = _strong_setup(rng, n=4)
    est = estimate_variational_distance(
        cb, trace, [0], 4000, rng,
        conditional_logpdf=lambda z: isotropic_logpdf(z, pc.p_prime),
    )
    assert est.d_hat == pytest.approx(0.0, abs=1e-12)
    assert not est.saturated


def test_saturated_reports_the_clamp_at_one(rng):
    # an unnormalized seam e^5 times the ideal law makes every summand
    # 0.5 (e^5 - 1) > 1: the mean is clamped, and the bound is the trivial one
    pc, cb, trace = _strong_setup(rng, n=4)
    est = estimate_variational_distance(
        cb, trace, [0], 1000, rng,
        conditional_logpdf=lambda z: isotropic_logpdf(z, pc.p_prime) + 5.0,
    )
    assert est.d_hat == 1.0 and est.saturated
    assert est.mi_bound == pytest.approx(math.log2(cb.n_bins))


@pytest.mark.parametrize("n", [2, 4])
def test_likelihood_ratio_has_mean_one_under_the_ideal_law(rng, n):
    # E_Q[r] = 1 for r = P_{Z|w} / Q is what bounds the distance summand
    # without a clip; a mixture missing its 1/count weight reads per_bin
    samples = 200_000
    pc, cb, trace = _strong_setup(rng, n)
    image = cb.eve_image(trace, 0)
    ratios = []
    for done in range(0, samples, _SAMPLE_BATCH):
        z = complex_normal(rng, (min(_SAMPLE_BATCH, samples - done), n), var=pc.p_prime)
        ratios.append(np.exp(_image_logpdf(z, image) - isotropic_logpdf(z, pc.p_prime)))
    mean, stderr = mean_stderr(np.concatenate(ratios))
    assert cb.per_bin == {2: 8, 4: 64}[n]
    assert abs(mean - 1.0) <= 5.0 * stderr


def test_variational_distance_matches_quadrature(rng):
    # single-codeword bins at blocklength 1: the mixture is one Gaussian and
    # the distance has a 2-D quadrature oracle
    pc = _pc()
    bp = BinningParams(n=1, rate_bits=1.0, n_bins=2, per_bin=1)
    cb = sample_codebook(bp, pc, rng)
    trace = EveTrace.random(1, 2, 1, rng)
    est = estimate_variational_distance(cb, trace, [0, 1], 20_000, rng)

    def quad(center, var):
        half = 6.0 * max(math.sqrt(var), 1.0) + abs(center)
        g = np.linspace(-half, half, 1601)
        step = g[1] - g[0]
        re, im = np.meshgrid(g, g)
        z = re + 1j * im
        f_ref = np.exp(-np.abs(z) ** 2 / var) / (math.pi * var)
        f_one = np.exp(-np.abs(z - center) ** 2) / math.pi
        return 0.5 * float(np.sum(np.abs(f_ref - f_one))) * step * step

    oracle = np.mean(
        [quad(complex((trace.stacked[0] @ cb.codeword(w, 0)[:, 0])[0]), pc.p_prime)
         for w in (0, 1)]
    )
    assert abs(est.d_hat - oracle) <= 3 * est.stderr


def test_variational_distance_falls_with_bin_size(rng):
    pc = _pc()
    trace = EveTrace.random(1, 2, 2, rng)
    estimates = []
    for per_bin in (1, 8, 64):
        bp = BinningParams(n=2, rate_bits=1.0, n_bins=1, per_bin=per_bin)
        cb = sample_codebook(bp, pc, rng)
        est = estimate_variational_distance(cb, trace, [0], 4000, rng)
        estimates.append(est.d_hat)
    assert estimates[0] > estimates[1] > estimates[2]


def test_variational_distance_nonincreasing_in_blocklength(rng):
    # Each point is the mean estimate over fresh books, with its standard
    # error from the spread across them: one book's estimate varies from book
    # to book far more than its own Monte Carlo error says.  A step fails on
    # a rise past the one-sided Welch critical value at level alpha, taken
    # with books - 1 degrees of freedom (the fewest Welch's statistic has),
    # so each step's false-alarm rate is at most alpha where the means are equal.
    books, samples, alpha = 48, 100, 0.01
    critical = student_t.ppf(1.0 - alpha, books - 1)
    prev = None
    for n in (2, 4, 8):
        pc, bp = _strong_params(n)
        trace = EveTrace.random(1, 2, n, rng)
        point = codebook_ensemble(
            bp, pc, books, rng,
            lambda cb: estimate_variational_distance(
                cb, trace, range(min(cb.n_bins, 4)), samples, rng
            ).d_hat,
        )
        if prev is not None:
            assert point[0] <= prev[0] + critical * math.hypot(point[1], prev[1]), (n, prev, point)
        prev = point


def test_variational_distance_respects_caps(rng):
    pc = _pc()
    bp = BinningParams(n=2, rate_bits=1.0, n_bins=1, per_bin=2**15)
    with pytest.raises(ToyScaleError):
        estimate_variational_distance(
            Codebook(np.zeros((2**15, 2, 2), dtype=complex), 1, 2**15,
                     PowerConfig(2.0, 0.0, 2)),
            EveTrace.random(1, 2, 2, rng), [0], 100, rng,
        )


def test_leakage_from_distance_values():
    assert leakage_from_distance(1.0, 8) == pytest.approx(3.0)
    assert leakage_from_distance(0.0, 8) == 0.0
    assert leakage_from_distance(1e-12, 8) == pytest.approx(0.0, abs=1e-9)
    assert leakage_from_distance(0.1, 1024) == pytest.approx(0.1 * math.log2(10240))
    with pytest.raises(ValueError):
        leakage_from_distance(-0.1, 8)
    with pytest.raises(ValueError):
        leakage_from_distance(1.1, 8)


def test_total_distance_bound_folds_truncation_slack():
    pc = _pc()
    assert total_distance_bound(0.9, 2, pc) == 1.0
    tiny = total_distance_bound(1e-6, 64, pc)
    assert 0 < tiny < 1


def test_leakage_mi_single_message_is_exactly_zero(rng):
    pc = _pc()
    bp = BinningParams(n=3, rate_bits=1.0, n_bins=1, per_bin=8)
    cb = sample_codebook(bp, pc, rng)
    mi, se = estimate_leakage_mi(cb, EveTrace.random(1, 2, 3, rng), 300, rng)
    assert mi == 0.0 and se == 0.0


def test_leakage_mi_identical_bins_vanishes(rng):
    # duplicate one bin: the observation carries no message information, the
    # posterior over bins is uniform and every summand is exactly 0
    pc = _pc()
    bp = BinningParams(n=3, rate_bits=1.0, n_bins=1, per_bin=4)
    base = sample_codebook(bp, pc, rng)
    doubled = Codebook(
        codewords=np.concatenate([base.codewords, base.codewords]),
        n_bins=2, per_bin=4, pc=pc,
    )
    mi, se = estimate_leakage_mi(doubled, EveTrace.random(1, 2, 3, rng), 3000, rng)
    assert mi == 0.0 and se == 0.0


def _mi_forms(cb, trace, samples, rng):
    """Three leakage summands in bits on the same pipeline draws, made in the
    estimator's batches and draw order: the per-message log2(n_bins pi_W(z))
    (``old``), its posterior average log2 n_bins - H(pi(z)) (``new``), and
    the mutant that drops the posterior weights, log2(n_bins pi_w(z))
    averaged uniformly over w (``uniform``)."""
    image = cb.eve_image(trace)
    shift = math.log(cb.n_bins)
    forms = {"old": [], "new": [], "uniform": []}
    for done in range(0, samples, _SAMPLE_BATCH):
        b = min(_SAMPLE_BATCH, samples - done)
        w = rng.integers(cb.n_bins, size=b)
        j = rng.integers(cb.per_bin, size=b)
        z = eve_observe(transmit(cb.codewords[w * cb.per_bin + j], rng), trace).reshape(b, -1)
        lb = _binned_lse(z, image, cb.n_bins)
        log_post = lb - logsumexp(lb, axis=1, keepdims=True)
        forms["old"].append(log_post[np.arange(b), w] + shift)
        forms["new"].append(np.sum(np.exp(log_post) * log_post, axis=1) + shift)
        forms["uniform"].append(log_post.mean(axis=1) + shift)
    return {k: np.concatenate(v) / math.log(2) for k, v in forms.items()}


def test_leakage_mi_far_apart_bins_read_every_bit(rng):
    # two single-codeword bins 200 noise deviations apart at n = 1: z names
    # its bin, the posterior is one-hot and the leakage is log2 n_bins = 1
    pc = PowerConfig(pbar=1e4 + 2, eps_p=0.5, n_tx=2)  # p = 1e4
    codewords = np.zeros((2, 2, 1), dtype=complex)
    codewords[:, 0, 0] = (100.0, -100.0)
    cb = Codebook(codewords=codewords, n_bins=2, per_bin=1, pc=pc)
    trace = EveTrace.constant(np.array([[1.0, 0.0]]), 1)
    mi, se = estimate_leakage_mi(cb, trace, 600, rng)
    assert mi == pytest.approx(1.0, abs=1e-9) and se <= 1e-9
    forms = _mi_forms(cb, trace, 600, rng)
    assert forms["new"].mean() == pytest.approx(1.0, abs=1e-9)
    # dropping the posterior weights averages in the bin z rules out, at
    # about -(200^2) log2 e bits, so this endpoint catches it
    assert forms["uniform"].mean() < -1e3


def test_leakage_mi_rao_blackwell_form_pins_the_default_budget():
    # cmd_simulate's default mi_samples, 400 (100 per book), replaced 1,000
    # (250 per book) of the per-message summand: on every default-config
    # book at n = 4 and n = 8 the posterior-entropy summand must have the
    # same mean and at most 1/2.5 = 100/250 of its per-sample variance
    rng = np.random.default_rng(29)
    samples = 2048
    for n in (4, 8):
        pc, bp = _strong_params(n)
        for k in range(8):
            cb = sample_codebook(bp, pc, rng)
            trace = EveTrace.random(1, 2, n, rng)
            seed = int(rng.integers(2**32))
            forms = _mi_forms(cb, trace, samples, np.random.default_rng(seed))
            (old, old_se), (new, new_se) = (mean_stderr(forms[f]) for f in ("old", "new"))
            assert abs(old - new) <= 4 * math.hypot(old_se, new_se)
            assert np.var(forms["old"], ddof=1) >= 2.5 * np.var(forms["new"], ddof=1)
            if k == 0:
                # the test-local form is the library's, on the same draws
                lib = estimate_leakage_mi(cb, trace, samples, np.random.default_rng(seed))
                assert lib == pytest.approx((new, new_se), abs=1e-12)


def test_leakage_mi_within_distance_bound(rng):
    for n in (2, 4):
        _, cb, trace = _strong_setup(rng, n)
        est = estimate_variational_distance(cb, trace, range(cb.n_bins), 1500, rng)
        mi, se = estimate_leakage_mi(cb, trace, 1500, rng)
        assert mi <= est.mi_bound + 3 * math.hypot(se, est.stderr)


def test_truncated_vs_gaussian_surrogate_matches_mass(rng):
    pc = PowerConfig(pbar=6.0, eps_p=0.0, n_tx=2)
    est, _ = truncated_vs_gaussian_distance(6, pc, samples=0, rng=None)
    assert est == pytest.approx(4 * (1 - truncation_mass(6, 2, pc.p, 0.0)))
    mc, _ = truncated_vs_gaussian_distance(6, pc, samples=50_000, rng=rng)
    assert abs(mc - est) < 0.05


def test_truncated_vs_gaussian_under_bound_and_shrinking():
    pc = PowerConfig(pbar=8.0, eps_p=0.3, n_tx=2)
    prev = None
    for n in (20, 50, 100):
        est, bound = truncated_vs_gaussian_distance(n, pc, samples=0, rng=None)
        assert est <= bound
        if prev is not None:
            assert est < prev
        prev = est


def test_eve_second_moment_zero_codebook(rng):
    pc = PowerConfig(pbar=1.0, eps_p=0.0, n_tx=2)  # p = 0
    cb = Codebook(np.zeros((1, 2, 4), dtype=complex), 1, 1, pc)
    res = eve_second_moment_check(cb, EveTrace.random(1, 2, 4, rng), 4000, rng)
    assert res.holds
    assert res.empirical == pytest.approx(4 * 1 * 1.0, rel=0.1)  # noise only


def test_eve_second_moment_tight_for_aligned_full_power_codewords(rng):
    # codewords pinned at the cap and aligned with a single-row state make
    # the bound an equality up to Monte Carlo error
    pc = PowerConfig(pbar=6.0, eps_p=0.5, n_tx=2)
    n = 4
    cw = np.zeros((8, 2, n), dtype=complex)
    cw[:, 0, :] = math.sqrt(pc.p) * np.exp(
        1j * rng.uniform(0, 2 * math.pi, size=(8, n))
    )
    cb = Codebook(cw, 2, 4, pc)
    trace = EveTrace.constant(np.array([[1.0, 0.0]]), n)
    res = eve_second_moment_check(cb, trace, 6000, rng)
    assert res.holds
    assert abs(res.bound - res.empirical) <= 4 * res.stderr


def test_eve_second_moment_random_books_hold(rng):
    pc, cb, trace = _strong_setup(rng, n=4)
    for _ in range(25):
        assert eve_second_moment_check(cb, trace, 2000, rng).holds


def _weak_bp(n, rate=0.6):
    per_bin = math.ceil(2 ** (n * rate))
    return BinningParams(n=n, rate_bits=rate, n_bins=1, per_bin=per_bin)


def test_symmetry_same_trace(rng):
    pc = PowerConfig(pbar=4.0, eps_p=0.0, n_tx=2)
    trace = EveTrace.random(1, 2, 6, rng)
    res = eve_error_symmetry_check(_weak_bp(6), pc, trace, trace, 12, 60, rng)
    assert res.compatible


def test_symmetry_under_unitary_rotation(rng):
    pc = PowerConfig(pbar=4.0, eps_p=0.0, n_tx=2)
    trace_a = EveTrace.random(1, 2, 6, rng)
    q, _ = np.linalg.qr(
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    )
    rotated = EveTrace(trace_a.stacked @ q)
    res = eve_error_symmetry_check(_weak_bp(6), pc, trace_a, rotated, 12, 60, rng)
    assert res.compatible


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_symmetry_decodes_side_by_side_books_as_their_own(seed):
    # the check draws a trace's books as the bins of one sample and decodes
    # every trial at once; each book's errors must be those of decoding its
    # trials through the book on its own, as a single-bin codebook
    pc = PowerConfig(pbar=4.0, eps_p=0.0, n_tx=2)
    bp, books, trials = _weak_bp(4), 5, 40
    rng = np.random.default_rng(seed)
    traces = EveTrace.random(1, 2, 4, rng), EveTrace.random(1, 2, 4, rng)
    res = eve_error_symmetry_check(bp, pc, *traces, books, trials, np.random.default_rng(99))
    ref_rng = np.random.default_rng(99)
    ref = []
    for trace in traces:
        side = sample_codebook(replace(bp, n_bins=books), pc, ref_rng)
        w = np.repeat(np.arange(books), trials) + ref_rng.integers(1, size=books * trials)
        j = ref_rng.integers(bp.per_bin, size=w.size)
        z = eve_observe(transmit(side.codewords[w * bp.per_bin + j], ref_rng), trace)
        errors = []
        for k in range(books):
            own = Codebook(codewords=side.bin_codewords(k), n_bins=1, per_bin=bp.per_bin, pc=pc)
            rows = slice(k * trials, (k + 1) * trials)
            errors.append(np.mean(eve_bin_decode(z[rows], 0, trace, own) != j[rows]))
        ref.extend(map(float, mean_stderr(errors)))
    assert [res.eta_a, res.stderr_a, res.eta_b, res.stderr_b] == ref


def test_symmetry_needs_two_codebooks_and_a_trial(rng):
    pc = PowerConfig(pbar=4.0, eps_p=0.0, n_tx=2)
    trace = EveTrace.random(1, 2, 4, rng)
    with pytest.raises(ValueError, match="two codebooks"):
        eve_error_symmetry_check(_weak_bp(4), pc, trace, trace, 1, 50, rng)
    with pytest.raises(ValueError, match="one trial"):
        eve_error_symmetry_check(_weak_bp(4), pc, trace, trace, 12, 0, rng)


def test_symmetry_across_random_trace_pairs(rng):
    pc = PowerConfig(pbar=4.0, eps_p=0.0, n_tx=2)
    passes = 0
    for _ in range(20):
        res = eve_error_symmetry_check(
            _weak_bp(6), pc,
            EveTrace.random(1, 2, 6, rng), EveTrace.random(1, 2, 6, rng),
            16, 50, rng,
        )
        passes += res.compatible
    assert passes >= 19


def test_eve_second_moment_holds_across_seeds():
    pc = PowerConfig(pbar=6.0, eps_p=0.5, n_tx=2)
    holds = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        _, cb, trace = _strong_setup(rng, n=4)
        holds += eve_second_moment_check(cb, trace, 1500, rng).holds
    assert holds == 100
