"""Monte Carlo estimators for the secrecy side of the toy experiments:
information density and its concentration, variational distance between
the codebook-induced and ideal eavesdropper output laws, direct leakage
estimation, and the supporting bound checks.

Everything that touches a Gaussian mixture works in the log domain with a
stable log-sum-exp; pairwise squared distances go through one matrix
product per batch so the exact-mixture evaluations stay fast at toy scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv, logsumexp

from .channel import (
    DimensionError,
    EveTrace,
    PowerConfig,
    as_complex_matrix,
    complex_normal,
    eve_observe,
)
from .codebook import (
    _SAMPLE_BATCH,
    BinningParams,
    Codebook,
    _pairwise_sqdist,
    check_toy_caps,
    codebook_ensemble,
    estimate_decode_error,
)
from .quantization import truncation_exponent, truncation_mass

LOG_RATIO_CLIP = 700.0


def _density_bits(x, z, trace: EveTrace, p_prime: float):
    """Per-use information density of coded inputs x (..., n_tx, n) and
    eavesdropper outputs z (..., n_eve, n), batched over leading axes."""
    n = x.shape[-1]
    out_norm = np.sum(np.abs(z) ** 2, axis=(-2, -1))
    residual = np.sum(np.abs(z - eve_observe(x, trace)) ** 2, axis=(-2, -1))
    return trace.n_eve * math.log2(p_prime) + (
        (out_norm / p_prime - residual) / n
    ) * math.log2(math.e)


def info_density(x, z, trace: EveTrace, pc: PowerConfig) -> float:
    """Per-use information density of (x, z) through the given trace.

    Closed form for the unit-noise eavesdropper channel with isotropic
    Gaussian inputs: the output marginal is isotropic with per-component
    variance p' = per-antenna variance + 1, so the density reduces to two
    quadratic terms, in the output and in the residual.  Its mean over the
    ensemble is n_eve * log2(p').
    """
    z = as_complex_matrix(z)
    if z.shape != (trace.n_eve, trace.n):
        raise DimensionError("observation and trace shapes disagree")
    return float(_density_bits(as_complex_matrix(x), z, trace, pc.p_prime))


def _clopper_pearson_upper(hits: int, trials: int, confidence: float = 0.95) -> float:
    if hits >= trials:
        return 1.0
    if hits == 0:
        return 1.0 - (1.0 - confidence) ** (1.0 / trials)
    return float(betaincinv(hits + 1, trials - hits, confidence))


@dataclass(frozen=True)
class TailScan:
    """Tail estimates of the per-use information density across blocklengths."""

    n_values: tuple
    threshold_offset: float
    estimates: np.ndarray
    upper95: np.ndarray
    mean_density: np.ndarray
    mean_stderr: np.ndarray
    slope: float


def info_density_tail(
    n_values,
    delta: float,
    pc: PowerConfig,
    n_eve: int,
    trials: int,
    rng,
    make_trace=None,
) -> TailScan:
    """Estimate Pr[(1/n) density > n_eve log2(p') + delta] per blocklength.

    ``make_trace(n, rng)`` supplies the state sequence for each n (random
    canonical by default).  Zero-hit tails report a one-sided 95% upper
    bound; the slope is a log-linear fit over the strictly positive
    estimates (nan when fewer than two).
    """
    if delta <= 0:
        raise ValueError("tail offset must be positive")
    if trials < 1:
        raise ValueError("need at least one trial")
    if make_trace is None:
        def make_trace(n, r):
            return EveTrace.random(n_eve, pc.n_tx, n, r)

    p_prime = pc.p_prime
    threshold = n_eve * math.log2(p_prime) + delta
    estimates, uppers, means, sems = [], [], [], []
    for n in n_values:
        trace = make_trace(int(n), rng)
        hits = 0
        total = 0.0
        total_sq = 0.0
        done = 0
        while done < trials:
            b = min(2048, trials - done)
            xt = complex_normal(rng, (b, pc.n_tx, n), var=pc.per_antenna_var)
            x = xt + complex_normal(rng, (b, pc.n_tx, n))
            dens = _density_bits(xt, eve_observe(x, trace), trace, p_prime)
            hits += int(np.sum(dens > threshold))
            total += float(np.sum(dens))
            total_sq += float(np.sum(dens**2))
            done += b
        estimates.append(hits / trials)
        uppers.append(_clopper_pearson_upper(hits, trials))
        mean = total / trials
        var = max(total_sq / trials - mean * mean, 0.0)
        means.append(mean)
        sems.append(math.sqrt(var / trials))

    estimates = np.array(estimates)
    n_arr = np.asarray(list(n_values), dtype=float)
    positive = estimates > 0
    if np.count_nonzero(positive) >= 2:
        slope = float(np.polyfit(n_arr[positive], np.log(estimates[positive]), 1)[0])
    else:
        slope = math.nan
    return TailScan(
        n_values=tuple(int(n) for n in n_values),
        threshold_offset=delta,
        estimates=estimates,
        upper95=np.array(uppers),
        mean_density=np.array(means),
        mean_stderr=np.array(sems),
        slope=slope,
    )


# ---------------------------------------------------------------------------
# Gaussian-mixture machinery (flattened observations, unit noise)


def mixture_logpdf(z_flat: np.ndarray, centers_flat: np.ndarray) -> np.ndarray:
    """ln of the equal-weight unit-noise Gaussian mixture at the centers."""
    dim = z_flat.shape[1]
    sq = _pairwise_sqdist(z_flat, centers_flat)
    return (
        logsumexp(-sq, axis=1)
        - math.log(centers_flat.shape[0])
        - dim * math.log(math.pi)
    )


def isotropic_logpdf(z_flat: np.ndarray, var: float) -> np.ndarray:
    """ln of the zero-mean isotropic complex Gaussian with per-component var."""
    dim = z_flat.shape[1]
    return -dim * math.log(math.pi * var) - np.sum(np.abs(z_flat) ** 2, axis=1).real / var


@dataclass(frozen=True)
class LeakageEstimate:
    """Normalized variational distance, optional direct leakage, and the
    distance-to-leakage conversion bound in bits."""

    d_hat: float
    stderr: float
    mi_hat: float | None
    mi_stderr: float | None
    mi_bound: float
    saturated: bool


def leakage_from_distance(d: float, w_count: int) -> float:
    """Bits of leakage implied by a variational distance d: d log2(|W|/d)."""
    if w_count < 1:
        raise ValueError("message count must be >= 1")
    if d < 0 or d > 1:
        raise ValueError("distance must lie in [0, 1]")
    if d == 0:
        return 0.0
    return d * math.log2(w_count / d)


def total_distance_bound(d_hat: float, n: int, pc: PowerConfig) -> float:
    """Fold the truncation slack into the estimated normalized distance.

    The chain from normalized distance to total variational distance picks
    up a factor 4 plus an 8 e^(-n alpha) term for swapping the truncated
    reference against the untruncated Gaussian; clamped at 1 so it can feed
    the distance-to-leakage conversion.
    """
    slack = 8.0 * math.exp(-n * truncation_exponent(pc.eps_p, pc.n_tx))
    return min(1.0, 4.0 * d_hat + slack)


def estimate_variational_distance(
    cb: Codebook,
    trace: EveTrace,
    w_subset,
    samples: int,
    rng,
    conditional_logpdf=None,
) -> LeakageEstimate:
    """Importance-sampling estimate of the normalized variational distance
    between the ideal Gaussian output law and the per-bin codebook mixture.

    Draws observations from the ideal law and averages half the absolute
    ratio deviation per message, uniformly over ``w_subset``.
    ``conditional_logpdf`` is a testing seam replacing the per-bin mixture
    density (matching laws must produce 0 within Monte Carlo error).
    """
    check_toy_caps(cb.per_bin, cb.n)
    if samples < 2:
        raise ValueError("need at least two samples")
    w_subset = list(w_subset)
    if not w_subset:
        raise ValueError("need at least one message")
    dim = trace.n_eve * cb.n
    p_prime = cb.pc.p_prime
    values = []
    saturated = False
    for w in w_subset:
        centers = eve_observe(cb.bin_codewords(int(w)), trace).reshape(cb.per_bin, -1)
        done = 0
        while done < samples:
            b = min(_SAMPLE_BATCH, samples - done)
            z = complex_normal(rng, (b, dim), var=p_prime)
            if conditional_logpdf is None:
                log_cond = mixture_logpdf(z, centers)
            else:
                log_cond = conditional_logpdf(z)
            log_ratio = log_cond - isotropic_logpdf(z, p_prime)
            if np.any(log_ratio > LOG_RATIO_CLIP):
                saturated = True
            ratio = np.exp(np.clip(log_ratio, -LOG_RATIO_CLIP, LOG_RATIO_CLIP))
            values.append(0.5 * np.abs(1.0 - ratio))
            done += b
    values = np.concatenate(values)
    d_hat = min(float(np.mean(values)), 1.0)
    stderr = float(np.std(values, ddof=1) / math.sqrt(values.size))
    return LeakageEstimate(
        d_hat=d_hat,
        stderr=stderr,
        mi_hat=None,
        mi_stderr=None,
        mi_bound=leakage_from_distance(
            total_distance_bound(d_hat, cb.n, cb.pc), cb.n_bins
        ),
        saturated=saturated,
    )


def estimate_leakage_mi(
    cb: Codebook, trace: EveTrace, samples: int, rng
) -> tuple[float, float]:
    """Monte Carlo estimate of the leakage I(message; eavesdropper output).

    Samples labels and observations from the true encoder pipeline and
    averages the log ratio between the per-bin and whole-book mixture
    densities.  Exact mixtures over all codewords, so the toy caps apply.
    """
    check_toy_caps(cb.size, cb.n)
    if samples < 2:
        raise ValueError("need at least two samples")
    centers = eve_observe(cb.codewords, trace).reshape(cb.size, -1)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        b = min(_SAMPLE_BATCH, samples - done)
        w = rng.integers(cb.n_bins, size=b)
        j = rng.integers(cb.per_bin, size=b)
        x = cb.codewords[w * cb.per_bin + j]
        noisy = x + complex_normal(rng, x.shape)
        z = eve_observe(noisy, trace).reshape(b, -1)
        sq = _pairwise_sqdist(z, centers)
        log_all = logsumexp(-sq, axis=1) - math.log(cb.size)
        vals = np.empty(b)
        for w_val in np.unique(w):
            rows = np.nonzero(w == w_val)[0]
            cols = slice(w_val * cb.per_bin, (w_val + 1) * cb.per_bin)
            log_bin = logsumexp(-sq[rows, cols], axis=1) - math.log(cb.per_bin)
            vals[rows] = (log_bin - log_all[rows]) / math.log(2)
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals**2))
        done += b
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)


def truncated_vs_gaussian_distance(
    n: int, pc: PowerConfig, samples: int, rng
) -> tuple[float, float]:
    """Total-variation surrogate between the eavesdropper output laws under
    untruncated versus power-capped inputs, with its exponential bound.

    The output gap is at most the input gap, which the truncation analysis
    pins at 4 (1 - acceptance mass); with ``samples`` > 0 the mass is
    estimated by Monte Carlo, otherwise evaluated through the gamma CDF.
    Returns (surrogate, 4 e^(-n alpha)).
    """
    if pc.p <= 0:
        raise ValueError("code power must be positive")
    if samples > 0:
        x = complex_normal(rng, (samples, pc.n_tx, n), var=pc.per_antenna_var)
        mass = float(np.mean(np.sum(np.abs(x) ** 2, axis=(1, 2)) / n <= pc.p))
    else:
        mass = truncation_mass(n, pc.n_tx, pc.p, pc.eps_p)
    bound = 4.0 * math.exp(-n * truncation_exponent(pc.eps_p, pc.n_tx))
    return 4.0 * (1.0 - mass), bound


@dataclass(frozen=True)
class SecondMomentCheck:
    empirical: float
    stderr: float
    bound: float
    holds: bool


def eve_second_moment_check(
    cb: Codebook, trace: EveTrace, trials: int, rng
) -> SecondMomentCheck:
    """Check that the eavesdropper's total received energy stays under
    n * n_eve * (p + 1) for uniformly drawn codewords plus artificial noise."""
    if trials < 2:
        raise ValueError("need at least two trials")
    idx = rng.integers(cb.size, size=trials)
    x = cb.codewords[idx] + complex_normal(rng, (trials, cb.n_tx, cb.n))
    z = eve_observe(x, trace)
    energies = np.sum(np.abs(z) ** 2, axis=(1, 2))
    empirical = float(np.mean(energies))
    stderr = float(np.std(energies, ddof=1) / math.sqrt(trials))
    bound = cb.n * trace.n_eve * (cb.pc.p + 1.0)
    return SecondMomentCheck(
        empirical=empirical,
        stderr=stderr,
        bound=bound,
        holds=empirical <= bound + 3.0 * stderr,
    )


@dataclass(frozen=True)
class SymmetryCheck:
    eta_a: float
    stderr_a: float
    eta_b: float
    stderr_b: float
    compatible: bool


def eve_error_symmetry_check(
    bp: BinningParams,
    pc: PowerConfig,
    trace_a: EveTrace,
    trace_b: EveTrace,
    n_codebooks: int,
    trials: int,
    rng,
) -> SymmetryCheck:
    """Equality-of-means test for the ensemble-average within-bin error.

    The power-capped Gaussian ensemble is unitarily invariant, so the
    eavesdropper's expected decoding error cannot depend on which canonical
    state sequence it observes through; fresh codebooks are drawn for each
    trace and the two means compared at three combined standard errors.
    """
    if n_codebooks < 2:
        raise ValueError("need at least two codebooks per trace")
    results = []
    for trace in (trace_a, trace_b):
        eta, stderr = codebook_ensemble(
            bp, pc, n_codebooks, rng,
            lambda cb: estimate_decode_error(cb, trace, trials, rng)[0],
        )
        results.append((float(eta), float(stderr)))
    (eta_a, se_a), (eta_b, se_b) = results
    return SymmetryCheck(
        eta_a=eta_a,
        stderr_a=se_a,
        eta_b=eta_b,
        stderr_b=se_b,
        compatible=abs(eta_a - eta_b) <= 3.0 * math.hypot(se_a, se_b),
    )
