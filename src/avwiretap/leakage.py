"""Monte Carlo estimators for the secrecy side of the toy experiments:
information density, its concentration and its exact law (the difference of
two Gamma variables whatever the state sequence), variational distance between
the codebook-induced and ideal eavesdropper output laws, direct leakage
estimation, and the supporting bound checks.

Every Gaussian mixture is evaluated in the log domain by the codebook
kernel, which streams the codebook image through one reused 512 KB buffer
in panels that never cross a bin edge: -|z - c|^2 for a batch against one
panel of centers (one real GEMM of the augmented sample rows against that
slice of the augmented image), an in-place exp and the panel's bin sums as
one matrix-vector product with a ones vector, added into the bins' totals
(not scipy's log-sum-exp), with a max-shift only for rows whose sums
underflow, so exact mixtures stay fast at toy scale and never build a
(samples, codewords) matrix.  The distance and leakage estimators read the
eavesdropper image from the book (``Codebook.eve_image``), which builds it
once per trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import EveTrace, PowerConfig, complex_normal, eve_observe, transmit
from .codebook import (
    _PANEL,
    _SAMPLE_BATCH,
    BinningParams,
    Codebook,
    _binned_lse,
    _image,
    check_toy_caps,
    eve_bin_decode,
    mean_stderr,
    sample_codebook,
)
from .quantization import truncation_exponent, truncation_mass


def _density_bits(x, z, trace: EveTrace, p_prime: float):
    """Per-use information density of coded inputs x (..., n_tx, n) and
    eavesdropper outputs z (..., n_eve, n), batched over leading axes: with
    isotropic Gaussian inputs and unit noise the output law is isotropic at
    per-component variance p', so the density is two quadratic terms, in
    the output and in the residual."""
    n = x.shape[-1]
    out_norm = np.sum(np.abs(z) ** 2, axis=(-2, -1))
    residual = np.sum(np.abs(z - eve_observe(x, trace)) ** 2, axis=(-2, -1))
    return trace.n_eve * math.log2(p_prime) + (
        (out_norm / p_prime - residual) / n
    ) * math.log2(math.e)


def _density_chunks(trace: EveTrace, pc: PowerConfig, blocks: int, rng):
    """Per-use densities of ``blocks`` pipeline blocks (code draw, artificial
    noise, eavesdropper observation through the trace), yielded in chunks of
    at most ``_PANEL`` signal entries (one block at least)."""
    step = max(1, _PANEL // (pc.n_tx * trace.n))
    for done in range(0, blocks, step):
        b = min(step, blocks - done)
        xt = complex_normal(rng, (b, pc.n_tx, trace.n), var=pc.per_antenna_var)
        yield _density_bits(xt, eve_observe(transmit(xt, rng), trace), trace, pc.p_prime)


def _poisson_terms(a, k: int) -> np.ndarray:
    """Poisson(r; a) = e^(-a) a^r / r! for r < k, along a new last axis."""
    from scipy.special import gammaln, xlogy

    a = np.asarray(a, dtype=float)[..., None]
    r = np.arange(k)
    # r ln a from one log per point; the r = 0 column is 0 even where a = 0
    terms = np.empty(a.shape[:-1] + (k,))
    np.multiply(r[1:], xlogy(1.0, a), out=terms[..., 1:])
    terms[..., 0] = 0.0
    terms -= a
    terms -= gammaln(r + 1.0)
    return np.exp(terms, out=terms)


def _erlang_cdf(t, k: int) -> np.ndarray:
    """P(G <= t) for G ~ Gamma(k) with integer shape k and unit scale,
    elementwise in t >= 0: one minus the finite Poisson sum over r < k."""
    return 1.0 - np.sum(_poisson_terms(t, k), axis=-1)


def _ks_scaled(cdf) -> float:
    """sqrt(m) times the Kolmogorov-Smirnov distance of m sorted points whose
    hypothesised CDF values are ``cdf``; asymptotically Kolmogorov under it."""
    m = cdf.size
    steps = np.arange(m + 1) / m
    return math.sqrt(m) * float(max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1])))


def density_law_cdf(t, k: int) -> np.ndarray:
    """P(G1 - G2 <= t) for i.i.d. G1, G2 ~ Gamma(k) with integer shape k,
    elementwise in t.

    Given G2, the Erlang survival function of G1 is a finite Poisson sum;
    averaging it over G2 gives, for t >= 0, the exact finite sum

        P(G1 - G2 > t) = sum_{r < k} b_r e^(-t) t^r / r!,
        b_r = P(NegBin(k, 1/2) <= k - 1 - r)  (``nbdtr``).

    The law is symmetric, so the lower tail at t < 0 is the same sum at -t.
    Every term is positive, so both tails keep their relative precision far
    out; at k = 1 this is the standard Laplace law.
    """
    if not (k >= 1 and float(k).is_integer()):
        raise ValueError("gamma shape must be a positive integer")
    from scipy.special import nbdtr

    k = int(k)
    t = np.asarray(t, dtype=float)
    upper = _poisson_terms(np.abs(t), k) @ nbdtr(k - 1 - np.arange(k), k, 0.5)
    return np.where(t < 0, upper, 1.0 - upper)


def density_law_stat(dens, n: int, n_eve: int, pc: PowerConfig):
    """Standardize per-use densities of blocklength n to the statistic
    n (density - n_eve log2 p') ln 2 / sqrt(1 - 1/p').

    For canonical states and unit artificial noise the density is a
    quadratic form with eigenvalues +-sqrt(1 - 1/p'), so this statistic is
    exactly G1 - G2 with G1, G2 i.i.d. Gamma(n_eve n), for every state
    sequence (``density_law_cdf``).
    """
    if pc.p_prime <= 1.0:
        raise ValueError("code power must be positive")
    center = n_eve * math.log2(pc.p_prime)
    return n * (np.asarray(dens) - center) * math.log(2) / math.sqrt(1.0 - 1.0 / pc.p_prime)


def density_law_tail(n: int, delta: float, pc: PowerConfig, n_eve: int) -> float:
    """Exact Pr[(1/n) density > n_eve log2(p') + delta], the estimand of
    ``info_density_tail``, for canonical states and unit artificial noise."""
    if delta <= 0:
        raise ValueError("tail offset must be positive")
    t = density_law_stat(n_eve * math.log2(pc.p_prime) + delta, n, n_eve, pc)
    return float(density_law_cdf(-t, n_eve * n))


def density_law_ks(trace: EveTrace, pc: PowerConfig, blocks: int, rng) -> float:
    """sqrt(m) times the Kolmogorov-Smirnov distance between the standardized
    densities of m = ``blocks`` pipeline blocks through the trace and their
    exact law; asymptotically Kolmogorov-distributed under the law."""
    if blocks < 1:
        raise ValueError("need at least one block")
    dens = np.concatenate(list(_density_chunks(trace, pc, blocks, rng)))
    stat = np.sort(density_law_stat(dens, trace.n, trace.n_eve, pc))
    return _ks_scaled(density_law_cdf(stat, trace.n_eve * trace.n))


def _clopper_pearson_upper(hits: int, trials: int, confidence: float = 0.95) -> float:
    if hits >= trials:
        return 1.0
    if hits == 0:
        return 1.0 - (1.0 - confidence) ** (1.0 / trials)
    from scipy.special import betaincinv

    return float(betaincinv(hits + 1, trials - hits, confidence))


@dataclass(frozen=True)
class TailScan:
    """Tail estimates of the per-use information density across blocklengths."""

    n_values: tuple
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
) -> TailScan:
    """Estimate Pr[(1/n) density > n_eve log2(p') + delta] per blocklength,
    each n through a fresh random canonical trace.

    Zero-hit tails report a one-sided 95% upper bound; the slope is a
    log-linear fit over the strictly positive estimates (nan when fewer
    than two).  The mean density's standard error comes from
    ``mean_stderr``: the sample standard deviation with divisor trials - 1,
    over sqrt(trials).
    """
    if delta <= 0:
        raise ValueError("tail offset must be positive")
    if trials < 2:
        raise ValueError("need at least two trials")

    threshold = n_eve * math.log2(pc.p_prime) + delta
    estimates, uppers, moments = [], [], []
    for n in n_values:
        trace = EveTrace.random(n_eve, pc.n_tx, int(n), rng)
        dens = np.concatenate(list(_density_chunks(trace, pc, trials, rng)))
        hits = int(np.count_nonzero(dens > threshold))
        estimates.append(hits / trials)
        uppers.append(_clopper_pearson_upper(hits, trials))
        moments.append(mean_stderr(dens))

    estimates = np.array(estimates)
    n_arr = np.asarray(list(n_values), dtype=float)
    positive = estimates > 0
    if np.count_nonzero(positive) >= 2:
        slope = float(np.polyfit(n_arr[positive], np.log(estimates[positive]), 1)[0])
    else:
        slope = math.nan
    means, sems = np.array(moments, dtype=float).reshape(-1, 2).T
    return TailScan(
        n_values=tuple(int(n) for n in n_values),
        estimates=estimates,
        upper95=np.array(uppers),
        mean_density=means,
        mean_stderr=sems,
        slope=slope,
    )


# ---------------------------------------------------------------------------
# Gaussian-mixture machinery (flattened observations, unit noise)


def mixture_logpdf(z_flat: np.ndarray, centers_flat: np.ndarray) -> np.ndarray:
    """ln of the equal-weight unit-noise Gaussian mixture at the centers."""
    return _image_logpdf(z_flat, _image(centers_flat))


def _image_logpdf(z_flat: np.ndarray, image: np.ndarray) -> np.ndarray:
    """``mixture_logpdf`` at the centers of an ``_image``."""
    lse = _binned_lse(z_flat, image, 1)[:, 0]
    return lse - math.log(image.shape[0]) - z_flat.shape[1] * math.log(math.pi)


def isotropic_logpdf(z_flat: np.ndarray, var: float) -> np.ndarray:
    """ln of the zero-mean isotropic complex Gaussian with per-component var."""
    dim = z_flat.shape[1]
    return -dim * math.log(math.pi * var) - np.sum(np.abs(z_flat) ** 2, axis=1).real / var


@dataclass(frozen=True)
class LeakageEstimate:
    """Normalized variational distance and the distance-to-leakage
    conversion bound in bits."""

    d_hat: float
    stderr: float
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
    between the ideal Gaussian output law Q and the per-bin codebook mixture.

    Draws observations from Q and averages 0.5 |1 - r| per message,
    uniformly over ``w_subset``, r being the ratio of the bin's mixture
    density to Q's.  E_Q[r] = 1, so by Markov's inequality a ratio
    overflows exp (r >= e^709) with probability at most e^-709, and none
    is clipped.  What can saturate is the sample mean: above 1, ``d_hat``
    is clamped at 1, ``saturated`` is set and ``mi_bound`` says nothing.
    ``conditional_logpdf`` is a testing seam replacing the per-bin mixture
    density (matching laws must produce 0 within Monte Carlo error); the
    bound holds only if it returns a normalized log density.
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
    for w in w_subset:
        image = cb.eve_image(trace, int(w))
        for done in range(0, samples, _SAMPLE_BATCH):
            z = complex_normal(rng, (min(_SAMPLE_BATCH, samples - done), dim), var=p_prime)
            log_cond = conditional_logpdf(z) if conditional_logpdf else _image_logpdf(z, image)
            values.append(0.5 * np.abs(1.0 - np.exp(log_cond - isotropic_logpdf(z, p_prime))))
    mean, stderr = map(float, mean_stderr(np.concatenate(values)))
    d_hat = min(mean, 1.0)
    return LeakageEstimate(
        d_hat=d_hat,
        stderr=stderr,
        mi_bound=leakage_from_distance(total_distance_bound(d_hat, cb.n, cb.pc), cb.n_bins),
        saturated=mean > 1.0,
    )


def estimate_leakage_mi(
    cb: Codebook, trace: EveTrace, samples: int, rng
) -> tuple[float, float]:
    """Rao-Blackwellized Monte Carlo estimate of the leakage I(W; Z) between
    the message (bin) and the eavesdropper output.

    Labels and observations are drawn from the true encoder pipeline.  With
    uniform messages and equal bins, the posterior of the bin given z is the
    softmax pi(z) of the per-bin log mixture sums that ``_binned_lse``
    returns, and I(W; Z) = E[log2(n_bins pi_W(Z))].  Averaging that summand
    over W given Z leaves the mean unchanged and gives the summand

        E[log2(n_bins pi_W(Z)) | Z] = sum_w pi_w log2(n_bins pi_w)
                                    = log2 n_bins - H(pi(Z)),

    which is computed here (Rao-Blackwellization).  By the law of total
    variance its variance is the per-message summand's minus
    E[Var(log2(n_bins pi_W(Z)) | Z)], so never larger, and it lies in
    [0, log2 n_bins].  A near-uniform posterior can round a few ulps below
    0; it is floored there.  It needs no mixture work beyond the
    per-message summand: the posterior comes from the (samples, n_bins)
    sums the kernel returns anyway.  Exact mixtures over all codewords, so
    the toy caps apply.  Returns the mean and its standard error from
    ``mean_stderr``: the sample standard deviation with divisor
    samples - 1, over sqrt(samples).
    """
    check_toy_caps(cb.size, cb.n)
    if samples < 2:
        raise ValueError("need at least two samples")
    image = cb.eve_image(trace)
    values = []
    for done in range(0, samples, _SAMPLE_BATCH):
        b = min(_SAMPLE_BATCH, samples - done)
        w = rng.integers(cb.n_bins, size=b)
        j = rng.integers(cb.per_bin, size=b)
        z = eve_observe(transmit(cb.codewords[w * cb.per_bin + j], rng), trace).reshape(b, -1)
        # log bin sums shifted to a row maximum of 0: pi = e^a / s
        a = _binned_lse(z, image, cb.n_bins)
        a -= a.max(axis=1, keepdims=True)
        e = np.exp(a)
        s = e.sum(axis=1)
        # ln n_bins - H(pi) = ln(n_bins / s) + sum_w pi_w a_w
        nats = np.log(cb.n_bins / s) + np.einsum("ij,ij->i", e, a) / s
        values.append(np.maximum(nats, 0.0) / math.log(2))
    return tuple(map(float, mean_stderr(np.concatenate(values))))


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
    z = eve_observe(transmit(cb.codewords[idx], rng), trace)
    empirical, stderr = map(float, mean_stderr(np.sum(np.abs(z) ** 2, axis=(1, 2))))
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

    The ``n_codebooks`` books of a trace are drawn side by side as the bins
    of one sample (book k holds bins k n_bins .. (k + 1) n_bins - 1; sampled
    rows are i.i.d., so each is a fresh book), each gets ``trials`` trials
    with a uniform label in it, and all trials go through one decode.
    """
    if n_codebooks < 2:
        raise ValueError("need at least two codebooks per trace")
    if trials < 1:
        raise ValueError("need at least one trial")
    books = replace(bp, n_bins=n_codebooks * bp.n_bins)
    book = np.repeat(np.arange(n_codebooks), trials)
    results = []
    for trace in (trace_a, trace_b):
        cb = sample_codebook(books, pc, rng)
        w = book * bp.n_bins + rng.integers(bp.n_bins, size=book.size)
        j = rng.integers(bp.per_bin, size=book.size)
        x = transmit(cb.codewords[w * bp.per_bin + j], rng)
        wrong = eve_bin_decode(eve_observe(x, trace), w, trace, cb) != j
        eta, stderr = mean_stderr(wrong.reshape(n_codebooks, trials).mean(axis=1))
        results.append((float(eta), float(stderr)))
    (eta_a, se_a), (eta_b, se_b) = results
    return SymmetryCheck(
        eta_a=eta_a,
        stderr_a=se_a,
        eta_b=eta_b,
        stderr_b=se_b,
        compatible=abs(eta_a - eta_b) <= 3.0 * math.hypot(se_a, se_b),
    )
