"""Reusable bound and invariance checks behind the ``verify`` command.

Each routine returns a small result whose ``passed`` flag, observed value,
and reference bound can be reported as one row of a verification table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, kolmogi, kolmogorov

from .channel import (
    EveTrace,
    MainChannel,
    PowerConfig,
    canonicalize_eve,
    complex_normal,
    eve_observe,
    transmit,
)
from .codebook import _PANEL, BinningParams, binning_params, codebook_ensemble, sample_codebook
from .leakage import (
    _erlang_cdf,
    _ks_scaled,
    density_law_ks,
    density_law_tail,
    estimate_variational_distance,
    eve_error_symmetry_check,
    eve_second_moment_check,
    truncated_vs_gaussian_distance,
)
from .quantization import (
    check_loglik_perturbation_batch,
    grid_log_size,
    quantize_eve,
    row_error_cap,
)
from .rates import leakage_cap, main_mutual_info

# Family-wise false-alarm rate of each exact-law row: the density row across
# its blocklengths, the output-invariance row across its four tests.
DENSITY_LAW_ALPHA = 1e-3
# Fresh codebooks behind each point of the resolvability row.
RESOLVABILITY_BOOKS = 4


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
    """Worst entry of |S - I| over the states, where S is the sample
    covariance of ``samples`` uses of unit artificial noise seen through a
    state H.

    S = H W H^H / samples with W ~ CW(I, samples), the complex Wishart
    law of the raw noise's Gram matrix, so each state's W is drawn from its
    Bartlett factor instead of from the noise itself: W = L L^H with L lower
    triangular, |L_ii|^2 ~ Gamma(samples - i) and L_ij ~ CN(0, 1) below the
    diagonal (Goodman 1963).  All states go in one batched product.
    """
    if samples < n_tx:
        raise ValueError("need at least n_tx noise samples")
    if state_mats is None:
        state_mats = canonicalize_eve(complex_normal(rng, (n_states, n_eve, n_tx)))
    h = np.asarray(state_mats, dtype=np.complex128)
    count = h.shape[0]
    low = np.zeros((count, n_tx, n_tx), dtype=np.complex128)
    diag = np.arange(n_tx)
    low[:, diag, diag] = np.sqrt(rng.gamma(samples - diag, size=(count, n_tx)))
    rows, cols = np.tril_indices(n_tx, -1)
    low[:, rows, cols] = complex_normal(rng, (count, rows.size))
    seen = h @ low
    cov = seen @ seen.conj().swapaxes(-1, -2) / samples
    worst = float(np.max(np.abs(cov - np.eye(h.shape[1]))))
    return CheckResult(
        check_id="noise-whiteness",
        description="artificial noise reaches canonical eavesdroppers white",
        observed=worst,
        bound=0.05,
        passed=worst <= 0.05,
    )


def output_invariance_check(
    pc: PowerConfig, n_eve: int, n: int, samples: int, rng
) -> CheckResult:
    """One-sample tests of the eavesdropper output against its exact law:
    with Gaussian input and unit artificial noise, every canonical state
    sequence gives i.i.d. CN(0, p' I) uses.  Through each of two random
    traces the whitened uses w = y / sqrt(p') are tested twice: |w|^2 against
    Gamma(n_eve) by Kolmogorov-Smirnov, and their sample covariance S against
    I by the known-mean likelihood ratio 2 m (tr S - ln det S - n_eve), about
    chi-square(n_eve^2).  Observed is the least p-value times four
    (Bonferroni), capped at 1.  The ``ceil(samples / n)`` blocks of a trace
    are drawn at most ``_PANEL`` signal entries at a time."""
    p_values = []
    reps, step = math.ceil(samples / n), max(1, _PANEL // (pc.n_tx * n))
    for _ in range(2):
        trace = EveTrace.random(n_eve, pc.n_tx, n, rng)
        uses = []
        for done in range(0, reps, step):
            x = complex_normal(rng, (min(step, reps - done), pc.n_tx, n), var=pc.per_antenna_var)
            uses.append(eve_observe(transmit(x, rng), trace).transpose(0, 2, 1).reshape(-1, n_eve))
        w = np.concatenate(uses)[:samples] / math.sqrt(pc.p_prime)
        norms = np.sort(np.sum(np.abs(w) ** 2, axis=1))
        p_values.append(kolmogorov(_ks_scaled(_erlang_cdf(norms, n_eve))))
        cov = w.conj().T @ w / len(w)
        # clipped at 0: tr S - ln det S - n_eve >= 0 can round below it
        lr = max(2 * len(w) * (np.trace(cov).real - np.linalg.slogdet(cov)[1] - n_eve), 0.0)
        p_values.append(gammaincc(n_eve**2 / 2, lr / 2))
    observed = float(np.minimum(4 * np.min(p_values), 1.0))
    return CheckResult(
        check_id="output-invariance",
        description="eavesdropper output follows its exact law under canonical states",
        observed=observed,
        bound=DENSITY_LAW_ALPHA,
        passed=observed > DENSITY_LAW_ALPHA,
    )


def quantization_error_check(
    n_eve: int, n_tx: int, n_states: int, m: int, rng
) -> CheckResult:
    """Worst per-row squared snapping error against its strict cap."""
    cap = row_error_cap(m, n_tx)
    states = canonicalize_eve(complex_normal(rng, (n_states, n_eve, n_tx)))
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
    random instances (state sequence snapped to the grid), as one batch."""
    states = canonicalize_eve(complex_normal(rng, (instances, n, n_eve, n_tx)))
    grid = quantize_eve(states, m)
    # one codeword per bin: a pbar of p + n_tx leaves the code power p, and
    # eps_p = 0 draws at variance p / n_tx under the cap p
    inputs = BinningParams(n, math.log2(instances) / n, instances, 1)
    pc = PowerConfig(pbar=p + n_tx, eps_p=0.0, n_tx=n_tx)
    x = sample_codebook(inputs, pc, rng).codewords
    z = eve_observe(x, states) + complex_normal(rng, (instances, n_eve, n))
    res = check_loglik_perturbation_batch(x, z, states, grid, p=p, m=m, eps=eps)
    applicable = int(np.count_nonzero(res.applicable))
    violations = applicable - int(np.count_nonzero(res.holds))
    return CheckResult(
        check_id=f"loglik-perturbation-m{m}",
        description=f"grid-neighbour log-likelihood drift capped "
        f"({applicable}/{instances} admissible)",
        observed=float(violations),
        bound=0.0,
        passed=violations == 0 and applicable > 0,
    )


def _saturating_binning(pc: PowerConfig, n: int) -> BinningParams:
    """Strong-mode bins over the identity main channel, with within-bin
    randomization just above the eavesdropper's rate log2 p'."""
    i_main = main_mutual_info(MainChannel(np.eye(pc.n_tx)), pc)
    return binning_params(i_main, leakage_cap(pc, 1, "exact"), n=n, delta_n=0.5,
                          delta_prime=0.25, mode="strong")


def second_moment_check(pc: PowerConfig, n: int, trials: int, rng) -> CheckResult:
    cb = sample_codebook(_saturating_binning(pc, n), pc, rng)
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
    """Pipeline information densities against their exact law.

    Per blocklength, ``trials`` blocks through a random canonical trace are
    KS-tested against the exact law (``leakage.density_law_cdf``); the
    observed value is the largest sqrt(m) D over the blocklengths, and the
    bound is the asymptotic Kolmogorov quantile at DENSITY_LAW_ALPHA split
    evenly across them (Bonferroni).  The exact tails at offset 0.5 must
    also shrink with blocklength.
    """
    observed = max(
        density_law_ks(EveTrace.random(n_eve, pc.n_tx, int(n), rng), pc, trials, rng)
        for n in n_values
    )
    bound = float(kolmogi(DENSITY_LAW_ALPHA / len(n_values)))
    tails = [density_law_tail(int(n), 0.5, pc, n_eve) for n in n_values]
    decreasing = all(a > b for a, b in zip(tails, tails[1:]))
    return CheckResult(
        check_id="density-tail-trend",
        description="information density follows its exact law and its tail "
        "shrinks with blocklength",
        observed=observed,
        bound=bound,
        passed=observed <= bound and decreasing,
    )


def symmetry_check(pc: PowerConfig, n: int, pairs: int, rng) -> CheckResult:
    rate = 0.6
    per_bin = math.ceil(2 ** (n * rate))
    bp = BinningParams(n=n, rate_bits=rate, n_bins=1, per_bin=per_bin)
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


def resolvability_check(pc: PowerConfig, n_values, samples: int, rng) -> CheckResult:
    """Normalized variational distance nonincreasing in blocklength at the
    saturation-level bin size.

    Single codebook draws fluctuate at toy blocklengths, so each point is an
    ensemble mean over fresh books with its spread taken across them.
    """
    prev = None
    ok = True
    last = 0.0
    for n in n_values:
        bp = _saturating_binning(pc, int(n))
        trace = EveTrace.random(1, pc.n_tx, int(n), rng)
        mean, stderr = codebook_ensemble(
            bp, pc, RESOLVABILITY_BOOKS, rng,
            lambda cb: estimate_variational_distance(
                cb, trace, range(min(cb.n_bins, 4)), max(2, samples // RESOLVABILITY_BOOKS), rng
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
        tail_trend_check(pc, 1, [50, 100], 2_000 if light else 4_000, next(seed_rngs)),
        symmetry_check(pc_weak, 6, 3 if light else 6, next(seed_rngs)),
        shrinkage_trend_check(0.2, list(range(50, 501, 50)), 2, 1),
        resolvability_check(pc, [2, 4, 8], 400 if light else 1_200, next(seed_rngs)),
    ]
