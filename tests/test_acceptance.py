"""Acceptance battery: one test per advertised guarantee, each printed as a
pass/fail line at its stated tolerance.  Run with ``pytest -v -s``.

The grid-shrinkage trend criterion is implemented exactly as stated with
schedule exponent 0.01 over blocklengths 50..500 and is expected to fail
there: the net-size term grows quadratically while the concentration term
only reaches e^5, so the crossover sits near blocklength 1000 (see the
working-regime demonstration at exponent 0.2 in the verification suite).
"""

import math
import time

import numpy as np
import pytest

from avwiretap.channel import (
    EveTrace,
    MainChannel,
    PowerConfig,
    complex_normal,
    random_eve_state,
    random_full_rank_channel,
)
from avwiretap.checks import output_invariance_check, shrinkage_trend
from avwiretap.cli import main
from avwiretap.codebook import BinningParams, binning_params, sample_codebook
from avwiretap.leakage import (
    estimate_leakage_mi,
    estimate_variational_distance,
    eve_error_symmetry_check,
    info_density_tail,
)
from avwiretap.quantization import (
    check_loglik_perturbation,
    quantize_eve,
    schedule_params,
    truncation_exponent,
    truncation_mass,
)
from avwiretap.rates import (
    bc_region,
    converse_rate_bound,
    mac_region,
    main_mutual_info,
    region_sum_sdof,
    sdof,
    sdof_slope,
    secrecy_rate,
)

GRID = [1e3, 1e4, 1e5, 1e6]
SHAPES = [(2, 2, 1), (3, 3, 1), (3, 3, 2), (4, 4, 2), (2, 3, 1), (3, 2, 1)]


def _report(num, name, ok, detail="", started=None, limit=None):
    if started is not None and limit is not None:
        elapsed = time.perf_counter() - started
        ok = ok and elapsed <= limit
        detail = f"{detail} [{elapsed:.1f}s of {limit:.0f}s]"
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def _rate_fn(ch, n_eve):
    def rate(pbar):
        return secrecy_rate(ch, PowerConfig(pbar, 0.0, ch.n_modes), n_eve).rate_bits

    return rate


def test_criterion_01_sdof_slope_reproduction():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    details = []
    ok = True
    for n_tx, n_rx, n_eve in SHAPES:
        ch = random_full_rank_channel(n_rx, n_tx, rng, max_condition=4)
        slope = sdof_slope(_rate_fn(ch, n_eve), GRID)
        target = sdof(n_tx, n_rx, n_eve)
        ok &= abs(slope - target) <= 0.05
        details.append(f"{(n_tx, n_rx, n_eve)}:{slope:.3f}")
    assert _report(1, "secure-d.o.f. slope reproduction", ok, " ".join(details),
                   started, 1.0)


def test_criterion_02_zero_capacity_is_exact():
    rng = np.random.default_rng(102)
    ok = True
    for n_tx, n_rx in [(2, 2), (3, 2), (2, 3)]:
        ch = random_full_rank_channel(n_rx, n_tx, rng)
        for n_eve in range(ch.n_modes, ch.n_modes + 3):
            for pbar in (10.0, 1e4):
                res = secrecy_rate(ch, PowerConfig(pbar, 0.0, ch.n_modes), n_eve)
                ok &= res.rate_bits == 0.0 and res.clamped
                ok &= converse_rate_bound(ch, pbar, n_eve) == 0.0
    assert _report(2, "zero secrecy capacity clamp is exact", ok)


def test_criterion_03_converse_dominance_and_slope_match():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    shapes = [(2, 2), (3, 3), (4, 4), (2, 3), (3, 2), (4, 3)]
    dominated = 0
    for _ in range(100):
        n_rx, n_tx = shapes[rng.integers(len(shapes))]
        ch = random_full_rank_channel(n_rx, n_tx, rng)
        n_eve = int(rng.integers(1, ch.n_modes + 1))
        pbar = float(10 ** rng.uniform(0, 5))
        ach = secrecy_rate(ch, PowerConfig(pbar, 0.0, ch.n_modes), n_eve).rate_bits
        dominated += ach <= converse_rate_bound(ch, pbar, n_eve) + 1e-12
    slopes_ok = True
    for n_tx, n_rx, n_eve in SHAPES:
        ch = random_full_rank_channel(n_rx, n_tx, rng, max_condition=4)
        conv_slope = sdof_slope(
            lambda p, ch=ch, k=n_eve: converse_rate_bound(ch, p, k), GRID
        )
        slopes_ok &= abs(conv_slope - sdof(n_tx, n_rx, n_eve)) <= 0.05
    ok = dominated == 100 and slopes_ok
    assert _report(
        3, "converse dominates and shares the d.o.f. slope",
        ok, f"dominated {dominated}/100", started, 5.0,
    )


def test_criterion_04_region_sum_sdof_and_collapse():
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    ch1 = random_full_rank_channel(2, 2, rng, max_condition=4)
    ch2 = random_full_rank_channel(2, 2, rng, max_condition=4)
    mac_slope = region_sum_sdof(lambda p: mac_region(ch1, ch2, p, 1), GRID)
    bc_slope = region_sum_sdof(lambda p: bc_region(ch1, ch2, p, 1), GRID)
    collapsed_mac = np.array_equal(mac_region(ch1, ch2, 1e4, 2).hull, [[0.0, 0.0]])
    collapsed_bc = np.array_equal(bc_region(ch1, ch2, 1e4, 2).hull, [[0.0, 0.0]])
    ok = (
        abs(mac_slope - 1) <= 0.05
        and abs(bc_slope - 1) <= 0.05
        and collapsed_mac
        and collapsed_bc
    )
    assert _report(
        4, "multi-access/broadcast sum d.o.f. and collapse",
        ok, f"mac {mac_slope:.3f} bc {bc_slope:.3f}", started, 5.0,
    )


def test_criterion_05_artificial_noise_whiteness():
    started = time.perf_counter()
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(10):
        st = random_eve_state(2, 3, rng)
        seen = st @ complex_normal(rng, (3, 100_000))
        cov = seen @ seen.conj().T / seen.shape[1]
        worst = max(worst, float(np.max(np.abs(cov - np.eye(2)))))
    ok = worst <= 0.05
    assert _report(5, "artificial noise is white at the eavesdropper", ok,
                   f"max deviation {worst:.4f}", started, 5.0)


def test_criterion_06_output_invariance_across_states():
    started = time.perf_counter()
    # a KS and a covariance likelihood-ratio test against CN(0, p' I) through
    # each of two canonical traces; the least of the four p-values times four
    # (Bonferroni) passes above alpha = 1e-3; the seed is pinned like every
    # other MC test
    rng = np.random.default_rng(6)
    pc = PowerConfig(pbar=10.0, eps_p=0.0, n_tx=3)
    res = output_invariance_check(pc, 2, 4, 100_000, rng)
    assert _report(6, "output law invariant across canonical states",
                   res.passed, f"Bonferroni p-value {res.observed:.3g}", started, 10.0)


@pytest.mark.parametrize("m", [10, 100])
def test_criterion_07_perturbation_bound(m):
    started = time.perf_counter()
    rng = np.random.default_rng(107 + m)
    n, n_tx, n_eve, p = 8, 2, 1, 8.0
    violations = 0
    applicable = 0
    for _ in range(10_000):
        trace = EveTrace.random(n_eve, n_tx, n, rng)
        grid = quantize_eve(trace.stacked, m)
        while True:
            x = complex_normal(rng, (n_tx, n), var=p / n_tx)
            if np.sum(np.abs(x) ** 2) / n <= p:
                break
        z = np.einsum("iet,ti->ei", trace.stacked, x) + complex_normal(rng, (n_eve, n))
        res = check_loglik_perturbation(x, z, trace, grid, p=p, m=m, eps=0.1)
        if res.applicable:
            applicable += 1
            violations += not res.holds
    ok = violations == 0 and applicable > 5_000
    assert _report(
        7, f"log-likelihood drift bound (grid density {m})",
        ok, f"{violations} violations over {applicable} admissible",
        started, 20.0,
    )


def test_criterion_08_information_stability():
    started = time.perf_counter()
    rng = np.random.default_rng(108)
    pc = PowerConfig(pbar=6.0, eps_p=0.5, n_tx=2)
    scan = info_density_tail([50, 100, 200], 0.5, pc, 1, 100_000, rng)
    decreasing = all(a > b for a, b in zip(scan.estimates, scan.estimates[1:]))
    slope_ok = math.isnan(scan.slope) or scan.slope < 0
    center = math.log2(pc.p_prime)
    mean_ok = all(
        abs(m - center) <= 3 * se
        for m, se in zip(scan.mean_density, scan.mean_stderr)
    )
    ok = decreasing and slope_ok and mean_ok
    assert _report(
        8, "information-density concentration",
        ok, f"tails {np.array2string(scan.estimates, precision=6)} slope {scan.slope:.4f}",
        started, 60.0,
    )


def _strong_toy(rng, n, pc, books, samples, mi_samples):
    ch = MainChannel(np.eye(pc.n_tx))
    bp = binning_params(
        main_mutual_info(ch, pc), math.log2(pc.p_prime), n=n,
        delta_n=0.5, delta_prime=0.25, mode="strong",
    )
    trace = EveTrace.random(1, pc.n_tx, n, rng)
    rows = []
    for _ in range(books):
        cb = sample_codebook(bp, pc, rng)
        est = estimate_variational_distance(
            cb, trace, range(min(cb.n_bins, 4)), samples, rng
        )
        mi, mi_se = estimate_leakage_mi(cb, trace, mi_samples, rng)
        rows.append((est.d_hat, est.stderr, mi, mi_se, est.mi_bound))
    return rows


def test_criterion_09_resolvability_and_leakage_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(109)
    pc = PowerConfig(pbar=6.0, eps_p=0.5, n_tx=2)
    books = 6
    pooled = []
    bound_ok = True
    for n in (2, 4, 8):
        rows = _strong_toy(rng, n, pc, books, 800, 600)
        for d_hat, d_se, mi, mi_se, mi_bound in rows:
            bound_ok &= mi <= mi_bound + 3 * math.hypot(mi_se, d_se)
        d_vals = [r[0] for r in rows]
        pooled.append(
            (float(np.mean(d_vals)), float(np.std(d_vals, ddof=1) / math.sqrt(books)))
        )
    trend_ok = all(
        pooled[k + 1][0] <= pooled[k][0] + 3 * math.hypot(pooled[k][1], pooled[k + 1][1])
        for k in range(len(pooled) - 1)
    )

    # quadrature cross-check at blocklength 1 with single-codeword bins
    bp1 = BinningParams(n=1, rate_bits=1.0, n_bins=2, per_bin=1)
    cb1 = sample_codebook(bp1, pc, rng)
    trace1 = EveTrace.random(1, 2, 1, rng)
    est1 = estimate_variational_distance(cb1, trace1, [0, 1], 20_000, rng)

    def quad(center, var):
        half = 6.0 * max(math.sqrt(var), 1.0) + abs(center)
        g = np.linspace(-half, half, 1601)
        step = g[1] - g[0]
        re, im = np.meshgrid(g, g)
        z = re + 1j * im
        f_ref = np.exp(-np.abs(z) ** 2 / var) / (math.pi * var)
        f_one = np.exp(-np.abs(z - center) ** 2) / math.pi
        return 0.5 * float(np.sum(np.abs(f_ref - f_one))) * step * step

    oracle = float(np.mean(
        [quad(complex((trace1.stacked[0] @ cb1.codeword(w, 0)[:, 0])[0]), pc.p_prime)
         for w in (0, 1)]
    ))
    quad_ok = abs(est1.d_hat - oracle) <= 3 * est1.stderr
    ok = trend_ok and bound_ok and quad_ok
    assert _report(
        9, "resolvability trend, leakage bound, quadrature cross-check",
        ok, f"d {[round(p[0], 4) for p in pooled]} quad gap "
            f"{abs(est1.d_hat - oracle):.5f}", started, 120.0,
    )


def test_criterion_10_truncation_machinery():
    started = time.perf_counter()
    rng = np.random.default_rng(10)
    gaps = [abs(truncation_mass(n, 1, 3.0, 0.0) - 0.5) for n in (10, 100, 1000)]
    trend_ok = gaps[0] > gaps[1] > gaps[2]
    mc_ok = True
    for n, n_tx, p, eps_p in [(6, 2, 4.0, 0.0), (10, 1, 2.0, 0.3), (20, 2, 8.0, 0.5)]:
        var = p * (1 - eps_p) / n_tx
        trials = 60_000
        x = complex_normal(rng, (trials, n_tx, n), var=var)
        hit = float(np.mean(np.sum(np.abs(x) ** 2, axis=(1, 2)) / n <= p))
        mu = truncation_mass(n, n_tx, p, eps_p)
        mc_ok &= abs(hit - mu) <= 3 * math.sqrt(mu * (1 - mu) / trials) + 1e-9
    surrogate_ok = True
    for n in (20, 50, 100):
        est = 4 * (1 - truncation_mass(n, 2, 5.6, 0.3))
        bound = 4 * math.exp(-n * truncation_exponent(0.3, 2))
        surrogate_ok &= est <= bound
    ok = trend_ok and mc_ok and surrogate_ok
    assert _report(
        10, "truncation mass trend, MC agreement, output-gap bound",
        ok, f"|mass-1/2| {['%.4f' % g for g in gaps]}", started, 30.0,
    )


def test_criterion_11_schedule_consistency():
    eps_prime = 0.01
    n_values = list(range(50, 501, 50))
    vals = shrinkage_trend(eps_prime, n_values, 2, 1)
    trend_ok = bool(np.all(np.diff(vals) < 0))

    base = dict(alpha_eps=0.5, alpha_eps_p=0.5, error_exponent=1.0)
    flags_ok = (
        schedule_params(0.0499, 100, c_prime=0.05, **base).distance_exponent_ok
        and not schedule_params(0.0501, 100, c_prime=0.05, **base).distance_exponent_ok
        and schedule_params(0.01, 100, c_prime=1.0, alpha_eps=0.0101,
                            alpha_eps_p=0.5, error_exponent=1.0).residual_tail_ok
        and not schedule_params(0.01, 100, c_prime=1.0, alpha_eps=0.0099,
                                alpha_eps_p=0.5, error_exponent=1.0).residual_tail_ok
        and schedule_params(0.01, 100, c_prime=1.0, alpha_eps=0.5,
                            alpha_eps_p=0.0101, error_exponent=1.0).truncation_tail_ok
        and not schedule_params(0.01, 100, c_prime=1.0, alpha_eps=0.5,
                                alpha_eps_p=0.0099, error_exponent=1.0).truncation_tail_ok
        and schedule_params(0.01, 100, c_prime=1.0, alpha_eps=0.5, alpha_eps_p=0.5,
                            error_exponent=0.0201).decoding_exponent_ok
        and not schedule_params(0.01, 100, c_prime=1.0, alpha_eps=0.5, alpha_eps_p=0.5,
                                error_exponent=0.0199).decoding_exponent_ok
    )
    ok = trend_ok and flags_ok
    assert _report(
        11, "schedule shrinkage trend (exponent 0.01) and threshold flags",
        ok, f"trend values {np.array2string(vals, precision=1)} flags_ok={flags_ok}",
    )


def test_criterion_12_decoder_symmetry():
    started = time.perf_counter()
    rng = np.random.default_rng(112)
    pc = PowerConfig(pbar=4.0, eps_p=0.0, n_tx=2)
    n, rate = 6, 0.6
    bp = BinningParams(n=n, rate_bits=rate, n_bins=1,
                       per_bin=math.ceil(2 ** (n * rate)))
    passes = 0
    for _ in range(20):
        res = eve_error_symmetry_check(
            bp, pc, EveTrace.random(1, 2, n, rng), EveTrace.random(1, 2, n, rng),
            n_codebooks=16, trials=50, rng=rng,
        )
        passes += res.compatible
    ok = passes >= 19
    assert _report(12, "ensemble eavesdropper-error symmetry", ok, f"{passes}/20",
                   started, 120.0)


def test_criterion_13_seeded_determinism_across_threads(tmp_path):
    import json

    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(
        {"n_values": [2, 4], "distance_samples": 400, "mi_samples": 200,
         "error_trials": 40}
    ))
    blobs = []
    for threads in ("1", "3", "1"):
        out = tmp_path / f"out{len(blobs)}.csv"
        code = main(["simulate", "--config", str(cfg), "--seed", "2026",
                     "--threads", threads, "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    assert _report(13, "byte-identical reruns for any thread count", ok)
