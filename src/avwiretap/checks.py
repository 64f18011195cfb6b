"""Reusable bound and invariance checks behind the ``verify`` command.

Each routine returns a small result whose ``passed`` flag, observed value,
and reference bound can be reported as one row of a verification table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import EveTrace, MainChannel, PowerConfig, complex_normal, eve_observe
from .codebook import BinningParams, binning_params, codebook_ensemble, sample_codebook
from .leakage import (
    estimate_variational_distance,
    eve_error_symmetry_check,
    eve_second_moment_check,
    info_density_tail,
    truncated_vs_gaussian_distance,
)
from .quantization import check_loglik_perturbation, grid_log_size, quantize_eve


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    description: str
    observed: float
    bound: float
    passed: bool


def noise_whiteness_check(
    n_eve: int, n_tx: int, n_states: int, samples: int, rng, state_mats=None
) -> CheckResult:
    """Empirical covariance of the forwarded artificial noise vs identity."""
    if state_mats is None:
        state_mats = EveTrace.random(n_eve, n_tx, n_states, rng).stacked
    worst = 0.0
    for ht in state_mats:
        seen = np.asarray(ht) @ complex_normal(rng, (n_tx, samples))
        cov = seen @ seen.conj().T / samples
        worst = max(worst, float(np.max(np.abs(cov - np.eye(len(ht))))))
    return CheckResult(
        check_id="noise-whiteness",
        description="artificial noise reaches canonical eavesdroppers white",
        observed=worst,
        bound=0.05,
        passed=worst <= 0.05,
    )


def output_invariance_check(
    pc: PowerConfig, n_eve: int, n: int, samples: int, rng, bins: int = 10
) -> CheckResult:
    """Moment and norm-histogram agreement of the eavesdropper output law
    across two random canonical state sequences, at three sigma."""
    columns = []
    for _ in range(2):
        trace = EveTrace.random(n_eve, pc.n_tx, n, rng)
        reps = math.ceil(samples / n)
        x = complex_normal(rng, (reps, pc.n_tx, n), var=pc.per_antenna_var)
        x = x + complex_normal(rng, (reps, pc.n_tx, n))
        y = eve_observe(x, trace)
        columns.append(y.transpose(0, 2, 1).reshape(-1, n_eve)[:samples])
    a, b = columns
    worst_z = 0.0
    for part in (np.real, np.imag):
        mean_gap = np.abs(part(a).mean(axis=0) - part(b).mean(axis=0))
        se = np.sqrt(part(a).var(axis=0) / len(a) + part(b).var(axis=0) / len(b))
        worst_z = max(worst_z, float(np.max(mean_gap / se)))
    cov_a = a.conj().T @ a / len(a)
    cov_b = b.conj().T @ b / len(b)
    diag_a = np.real(np.diag(cov_a))
    diag_b = np.real(np.diag(cov_b))
    se_cov = np.sqrt(
        (np.outer(diag_a, diag_a) + np.abs(cov_a) ** 2) / len(a)
        + (np.outer(diag_b, diag_b) + np.abs(cov_b) ** 2) / len(b)
    )
    worst_z = max(worst_z, float(np.max(np.abs(cov_a - cov_b) / se_cov)))
    norms_a = np.sum(np.abs(a) ** 2, axis=1)
    norms_b = np.sum(np.abs(b) ** 2, axis=1)
    edges = np.quantile(np.concatenate([norms_a, norms_b]), np.linspace(0, 1, bins + 1))
    edges[0], edges[-1] = -np.inf, np.inf
    freq_a = np.histogram(norms_a, edges)[0] / len(norms_a)
    freq_b = np.histogram(norms_b, edges)[0] / len(norms_b)
    pooled = 0.5 * (freq_a + freq_b)
    se_bins = np.sqrt(pooled * (1 - pooled) * (1 / len(norms_a) + 1 / len(norms_b)))
    worst_z = max(worst_z, float(np.max(np.abs(freq_a - freq_b) / np.maximum(se_bins, 1e-12))))
    return CheckResult(
        check_id="output-invariance",
        description="eavesdropper output law identical across canonical states",
        observed=worst_z,
        bound=3.0,
        passed=worst_z <= 3.0,
    )


def quantization_error_check(
    n_eve: int, n_tx: int, n_states: int, m: int, rng
) -> CheckResult:
    """Worst per-row squared snapping error against its strict cap."""
    cap = 2.0 * n_tx / m**2
    states = EveTrace.random(n_eve, n_tx, n_states, rng).stacked
    worst = float(np.sum(np.abs(states - quantize_eve(states, m)) ** 2, axis=-1).max())
    return CheckResult(
        check_id="quantization-error",
        description="state snapping stays under the per-row error cap",
        observed=worst,
        bound=cap,
        passed=worst < cap,
    )


def perturbation_scan(
    instances: int, n: int, m: int, p: float, n_tx: int, n_eve: int, eps: float, rng
) -> CheckResult:
    """Count violations of the log-likelihood continuity bound on admissible
    random instances (state sequence snapped to the grid)."""
    violations = 0
    applicable = 0
    for _ in range(instances):
        trace = EveTrace.random(n_eve, n_tx, n, rng)
        grid = quantize_eve(trace.stacked, m)
        while True:
            x = complex_normal(rng, (n_tx, n), var=p / n_tx)
            if np.sum(np.abs(x) ** 2) / n <= p:
                break
        z = eve_observe(x, trace) + complex_normal(rng, (n_eve, n))
        res = check_loglik_perturbation(x, z, trace, grid, p=p, m=m, eps=eps)
        if res.applicable:
            applicable += 1
            violations += not res.holds
    return CheckResult(
        check_id=f"loglik-perturbation-m{m}",
        description=f"grid-neighbour log-likelihood drift capped "
        f"({applicable}/{instances} admissible)",
        observed=float(violations),
        bound=0.0,
        passed=violations == 0 and applicable > 0,
    )


def second_moment_check(pc: PowerConfig, n: int, trials: int, rng) -> CheckResult:
    from .rates import main_mutual_info

    ch = MainChannel(np.eye(pc.n_tx))
    bp = binning_params(main_mutual_info(ch, pc), math.log2(pc.p_prime),
                        n=n, delta_n=0.5, delta_prime=0.25, mode="strong")
    cb = sample_codebook(bp, pc, rng)
    trace = EveTrace.random(1, pc.n_tx, n, rng)
    res = eve_second_moment_check(cb, trace, trials, rng)
    return CheckResult(
        check_id="received-energy",
        description="eavesdropper energy under the power-cap budget",
        observed=res.empirical,
        bound=res.bound,
        passed=res.holds,
    )


def truncation_surrogate_check(pc: PowerConfig, n_values, rng) -> CheckResult:
    worst_ratio = 0.0
    for n in n_values:
        est, bound = truncated_vs_gaussian_distance(int(n), pc, samples=0, rng=rng)
        worst_ratio = max(worst_ratio, est / bound if bound > 0 else math.inf)
    return CheckResult(
        check_id="truncation-surrogate",
        description="truncated-vs-Gaussian output gap under its exponential bound",
        observed=worst_ratio,
        bound=1.0,
        passed=worst_ratio <= 1.0,
    )


def tail_trend_check(pc: PowerConfig, n_eve: int, n_values, trials: int, rng) -> CheckResult:
    scan = info_density_tail(n_values, 0.5, pc, n_eve, trials, rng)
    decreasing = all(a > b for a, b in zip(scan.estimates, scan.estimates[1:]))
    return CheckResult(
        check_id="density-tail-trend",
        description="information-density tail shrinks with blocklength",
        observed=float(scan.estimates[-1]),
        bound=float(scan.estimates[0]),
        passed=decreasing,
    )


def symmetry_check(pc: PowerConfig, n: int, pairs: int, rng) -> CheckResult:
    rate = 0.6
    per_bin = math.ceil(2 ** (n * rate))
    bp = BinningParams(n=n, rate_bits=rate, n_bins=1, per_bin=per_bin,
                       delta_n=0.4, delta_prime=0.1, mode="weak")
    passes = 0
    for _ in range(pairs):
        res = eve_error_symmetry_check(
            bp, pc,
            EveTrace.random(1, pc.n_tx, n, rng),
            EveTrace.random(1, pc.n_tx, n, rng),
            n_codebooks=12, trials=50, rng=rng,
        )
        passes += res.compatible
    return CheckResult(
        check_id="decoder-symmetry",
        description="ensemble eavesdropper error identical across states",
        observed=float(passes),
        bound=float(pairs),
        passed=passes >= max(pairs - 1, 1),
    )


def shrinkage_trend(eps_prime: float, n_values, n_tx: int, n_eve: int) -> np.ndarray:
    """Log of (grid size) x (concentration failure probability) per n under
    the schedule m = e^(2 eps' n): the net must eventually lose."""
    out = []
    for n in n_values:
        m = math.exp(2.0 * eps_prime * n)
        out.append(grid_log_size(m, n_tx, n_eve, int(n)) - math.exp(eps_prime * n))
    return np.array(out)


def shrinkage_trend_check(eps_prime: float, n_values, n_tx: int, n_eve: int) -> CheckResult:
    vals = shrinkage_trend(eps_prime, n_values, n_tx, n_eve)
    decreasing = bool(np.all(np.diff(vals) < 0))
    return CheckResult(
        check_id="grid-shrinkage-trend",
        description=f"net size loses to concentration (schedule exponent {eps_prime})",
        observed=float(vals[-1]),
        bound=float(vals[0]),
        passed=decreasing,
    )


def resolvability_check(
    pc: PowerConfig, n_values, samples: int, rng, books: int = 4
) -> CheckResult:
    """Normalized variational distance nonincreasing in blocklength at the
    saturation-level bin size.

    Single codebook draws fluctuate at toy blocklengths, so each point is an
    ensemble mean over fresh books with its spread taken across them.
    """
    from .rates import main_mutual_info

    ch = MainChannel(np.eye(pc.n_tx))
    i_main = main_mutual_info(ch, pc)
    i_eve = math.log2(pc.p_prime)
    prev = None
    ok = True
    last = 0.0
    for n in n_values:
        bp = binning_params(i_main, i_eve, n=int(n), delta_n=0.5, delta_prime=0.25)
        trace = EveTrace.random(1, pc.n_tx, int(n), rng)
        mean, stderr = codebook_ensemble(
            bp, pc, books, rng,
            lambda cb: estimate_variational_distance(
                cb, trace, range(min(cb.n_bins, 4)), max(2, samples // books), rng
            ).d_hat,
        )
        point = (float(mean), float(stderr))
        if prev is not None:
            ok = ok and point[0] <= prev[0] + 3 * math.hypot(point[1], prev[1])
        prev = point
        last = point[0]
    return CheckResult(
        check_id="resolvability",
        description="codebook output law approaches the ideal with blocklength",
        observed=last,
        bound=1.0,
        passed=ok,
    )


def default_verification_suite(seed_rngs, budget: str = "standard") -> list[CheckResult]:
    """The stock battery of checks; ``seed_rngs`` yields one rng per check."""
    light = budget == "light"
    pc = PowerConfig(pbar=6.0, eps_p=0.5, n_tx=2)
    pc_weak = PowerConfig(pbar=4.0, eps_p=0.0, n_tx=2)
    pc_trunc = PowerConfig(pbar=8.0, eps_p=0.3, n_tx=2)
    return [
        noise_whiteness_check(2, 3, 10, 20_000 if light else 100_000, next(seed_rngs)),
        output_invariance_check(pc, 1, 4, 20_000 if light else 100_000, next(seed_rngs)),
        quantization_error_check(1, 2, 2_000 if light else 10_000, 64, next(seed_rngs)),
        perturbation_scan(
            500 if light else 2_000, 8, 100, 8.0, 2, 1, 0.1, next(seed_rngs)
        ),
        second_moment_check(pc, 6, 2_000 if light else 10_000, next(seed_rngs)),
        truncation_surrogate_check(pc_trunc, [20, 50, 100], next(seed_rngs)),
        tail_trend_check(pc, 1, [50, 100], 10_000 if light else 50_000, next(seed_rngs)),
        symmetry_check(pc_weak, 6, 3 if light else 6, next(seed_rngs)),
        shrinkage_trend_check(0.2, list(range(50, 501, 50)), 2, 1),
        resolvability_check(pc, [2, 4, 8], 400 if light else 1_200, next(seed_rngs)),
    ]
