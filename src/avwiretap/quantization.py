"""Eavesdropper-state quantization and the continuity/tail machinery that
extends secrecy from a finite grid of states to all of them.

Canonical states have entries whose real and imaginary parts live in
[-1, 1]; snapping each part to the nearest multiple of 1/m yields a finite
net.  The tools here bound how far a log-likelihood can drift between a
state and its grid neighbour, quantify the tail exponents that power those
bounds, and evaluate the correlation-elimination parameter schedule used
against an arbitrarily varying adversary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import DimensionError, _observe, as_complex_matrix, state_stack


def row_error_cap(m: int, n_tx: int) -> float:
    """Strict upper bound 2 n_tx / m^2 on the squared error that snapping to
    the 1/m lattice leaves in one row of a canonical state."""
    return 2.0 * n_tx / m**2


def quantize_eve(st, m: int) -> np.ndarray:
    """Snap real/imag parts to the nearest 1/m lattice point.

    Takes one state or any stack of state matrices (..., n_eve, n_tx).
    Rounds half away from zero, which keeps the result symmetric and inside
    the unit box that canonical entries occupy.  Both parts are snapped in
    one pass over the array's float view.
    """
    if m < 1:
        raise ValueError("grid density must be >= 1")
    v = np.ascontiguousarray(as_complex_matrix(st, stacked=True)).view(np.float64)
    return (np.sign(v) * np.floor(np.abs(v) * m + 0.5) / m).view(np.complex128)


def grid_log_size(m: float, n_tx: int, n_eve: int, n: int) -> float:
    """Natural log of the grid size (2m + 1)^(2 n_tx n_eve n)."""
    if m < 1 or n_tx < 1 or n_eve < 1:
        raise ValueError("grid density and antenna counts must be >= 1")
    if n < 0:
        raise ValueError("blocklength must be nonnegative")
    return 2.0 * n_tx * n_eve * n * math.log(2.0 * m + 1.0)


@dataclass(frozen=True)
class PerturbationRadii:
    """Radii controlling the log-likelihood drift between grid neighbours.

    ``r_prime`` bounds the per-use signal perturbation a grid snap can
    cause; ``r`` adds the typical residual-noise radius at margin ``eps``.
    """

    r_prime: float
    r: float
    eps: float


def perturbation_radii(
    p: float, n_tx: int, n_eve: int, m: int, eps: float
) -> PerturbationRadii:
    if p < 0:
        raise ValueError("code power must be nonnegative")
    if n_tx < 1 or n_eve < 1 or m < 1:
        raise ValueError("antenna counts and grid density must be >= 1")
    if eps <= 0:
        raise ValueError("concentration margin must be positive")
    r_prime = math.sqrt(2.0 * n_tx * n_eve * p) / m
    return PerturbationRadii(
        r_prime=r_prime, r=r_prime + math.sqrt(n_eve * (1.0 + eps)), eps=eps
    )


def loglik_drift_bound(radii: PerturbationRadii) -> float:
    """Per-use cap r'(2r + r') on the squared-residual difference."""
    return radii.r_prime * (2.0 * radii.r + radii.r_prime)


@dataclass(frozen=True)
class PerturbationCheck:
    """One instance's verdict; ``check_loglik_perturbation_batch`` returns
    one whose fields are arrays over the batch."""

    applicable: bool
    lhs: float
    rhs: float
    holds: bool


def _perturbation(x, z, stack_a, stack_b, p: float, m: int, eps: float) -> PerturbationCheck:
    """The perturbation check on checked operands, batched over their
    leading axes."""
    *batch, n_tx, n = x.shape
    n_eve = z.shape[-2]
    if (
        z.shape != (*batch, n_eve, n)
        or stack_a.shape != stack_b.shape
        or stack_a.shape != (*batch, n, n_eve, n_tx)
    ):
        raise DimensionError("state sequences do not match the signal shapes")

    radii = perturbation_radii(p, n_tx, n_eve, m, eps)
    row_err = np.sum(np.abs(stack_a - stack_b) ** 2, axis=-1)
    applicable = np.all(row_err < row_error_cap(m, n_tx), axis=(-2, -1))
    applicable &= np.sum(np.abs(x) ** 2, axis=(-2, -1)) / n <= p + 1e-12
    residual = np.sum(np.abs(z - _observe(stack_a, x)) ** 2, axis=(-2, -1))
    applicable &= residual / n < radii.r**2

    other = np.sum(np.abs(z - _observe(stack_b, x)) ** 2, axis=(-2, -1))
    lhs = np.where(applicable, np.abs(residual - other), np.nan)
    rhs = np.where(applicable, n * loglik_drift_bound(radii), np.nan)
    return PerturbationCheck(
        applicable=applicable, lhs=lhs, rhs=rhs, holds=applicable & (lhs <= rhs)
    )


def check_loglik_perturbation_batch(
    x, z, states_a, states_b, p: float, m: int, eps: float
) -> PerturbationCheck:
    """``check_loglik_perturbation`` on a batch of instances at once.

    ``x`` is (..., n_tx, n), ``z`` is (..., n_eve, n), and the two state
    sequences are (..., n, n_eve, n_tx), all with the same leading axes.
    Inadmissible instances come back not applicable, with ``lhs`` and
    ``rhs`` nan and ``holds`` false.
    """
    x, z = as_complex_matrix(x, stacked=True), as_complex_matrix(z, stacked=True)
    return _perturbation(x, z, state_stack(states_a), state_stack(states_b), p, m, eps)


def check_loglik_perturbation(
    x, z, trace_a, trace_b, p: float, m: int, eps: float
) -> PerturbationCheck:
    """Verify the log-likelihood continuity bound on one concrete instance.

    ``lhs`` is the absolute gap between the unit-noise Gaussian
    log-likelihoods of ``z`` given ``x`` under the two state sequences;
    ``rhs`` is n times the drift cap.  Instances that violate the
    admissibility preconditions (grid-snap row error, codeword power cap,
    residual radius) come back marked not applicable rather than failed.
    The batched kernel on a batch of one.
    """
    x, z = as_complex_matrix(x)[None], as_complex_matrix(z)[None]
    res = _perturbation(x, z, state_stack(trace_a)[None], state_stack(trace_b)[None], p, m, eps)
    return PerturbationCheck(
        res.applicable.item(), res.lhs.item(), res.rhs.item(), res.holds.item()
    )


def chernoff_exponent(eps: float, side: str = "upper") -> float:
    """Large-deviation rate for the mean of i.i.d. unit-mean exponentials.

    ``upper`` bounds Pr(mean >= 1 + eps), ``lower`` bounds
    Pr(mean <= 1 - eps); the squared magnitude of each unit-variance
    complex-Gaussian entry is exactly such an exponential.
    """
    if side == "upper":
        if eps <= 0:
            raise ValueError("upper-tail margin must be positive")
        return eps - math.log1p(eps)
    if side == "lower":
        if not 0.0 < eps < 1.0:
            raise ValueError("lower-tail margin must lie in (0, 1)")
        return -eps - math.log1p(-eps)
    raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")


def truncation_exponent(eps_p: float, n_tx: int = 1) -> float:
    """Decay rate (per channel use) of the power-cap rejection probability.

    A codeword exceeds the cap exactly when the mean of its n * n_tx
    exponential entry energies exceeds 1 / (1 - eps_p); the rate is the
    matching upper-tail exponent times the n_tx entries per use.  Vanishes
    as eps_p -> 0.
    """
    if not 0.0 <= eps_p < 1.0:
        raise ValueError("truncation margin must lie in [0, 1)")
    if eps_p == 0.0:
        return 0.0
    return n_tx * chernoff_exponent(eps_p / (1.0 - eps_p), "upper")


def truncation_mass(n: int, n_tx: int, p: float, eps_p: float) -> float:
    """Probability that a Gaussian draw satisfies the per-codeword power cap.

    The codeword energy is a Gamma(n * n_tx) variable in units of the
    per-antenna variance, so the mass is a regularized incomplete gamma;
    it tends to 1/2 from above as n grows when eps_p = 0.  It always
    exceeds 1/2: the cap k / (1 - eps_p) is at least the mean k = n * n_tx,
    and the median of Gamma(k) lies below its mean (Chen & Rubin, 1986).
    """
    if n < 1 or n_tx < 1:
        raise ValueError("blocklength and antenna count must be >= 1")
    if p <= 0:
        raise ValueError("code power must be positive")
    if not 0.0 <= eps_p < 1.0:
        raise ValueError("truncation margin must lie in [0, 1)")
    from scipy.special import gammainc

    shape = n * n_tx
    return float(gammainc(shape, shape / (1.0 - eps_p)))


@dataclass(frozen=True)
class ScheduleParams:
    """Correlation-elimination schedule values and feasibility flags.

    The codebook count and grid density explode as exp(2 eps' n), so both
    are kept in the (natural) log domain.  Each flag records one of the
    strict comparisons the schedule must win: every relevant exponent must
    beat eps', the decoding exponent must beat 2 eps', the distance-decay
    margin must have kicked in at this blocklength, and (when channel
    constants are supplied) the drift cap must already be below its target.
    ``schedule_params`` over an array of blocklengths returns one whose
    per-blocklength fields (``n``, ``eps_n``, ``log_k``, ``log_m``,
    ``growth_ok``, ``drift_ok``) are arrays over it.
    """

    eps_prime: float
    n: int
    eps_n: float
    log_k: float
    log_m: float
    distance_exponent_ok: bool
    residual_tail_ok: bool
    truncation_tail_ok: bool
    decoding_exponent_ok: bool
    growth_ok: bool
    drift_ok: bool | None
    min_feasible_n: int | None


def _min_n_satisfying(predicate, start: int) -> int:
    """Smallest n >= 1 from which a monotone ``predicate`` holds, searched
    outward from ``start`` in doubling steps and then bisected: past n ~ 1e16
    a step of one no longer changes the float comparisons inside it."""
    n = max(start, 1)
    step = 1
    if predicate(n):
        hi = n
        while n - step > 0 and predicate(n - step):
            hi = n - step
            step *= 2
        lo = max(n - step, 0)  # fails, or 0, below every candidate
    else:
        lo = n
        while not predicate(n + step):
            lo = n + step
            step *= 2
        hi = n + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi


# libm's exp, elementwise: numpy's vectorized exp differs from it in the
# last bit on some 6% of inputs, and that shows in a 12-digit eps_n cell
# about once in 10^5 schedule rows
_libm_exp = np.frompyfunc(math.exp, 1, 1)


def schedule_params(
    eps_prime: float,
    n: int,
    c_prime: float,
    alpha_eps: float,
    alpha_eps_p: float,
    error_exponent: float,
    perturbation: tuple | None = None,
) -> ScheduleParams:
    """Evaluate the schedule eps_n = e^(-n eps'), K = M = e^(2 eps' n).

    The exponent inputs (``c_prime`` for the ensemble distance decay,
    ``alpha_eps`` / ``alpha_eps_p`` for the residual and truncation tails,
    ``error_exponent`` for decoding) are natural-log rates as supplied or
    measured by the caller.  ``perturbation`` optionally carries
    (p, n_tx, n_eve, eps) so the drift condition can be evaluated too.
    ``n`` is one blocklength or a sequence of them; the exponent flags and
    the minimum feasible blocklength do not depend on it and are computed
    once.
    """
    if eps_prime <= 0:
        raise ValueError("schedule exponent must be positive")
    # float, not int64: a blocklength past 2^63 still has its exponents
    n_float = np.asarray(n, dtype=float)
    if np.any(n_float < 1):
        raise ValueError("blocklength must be >= 1")
    eps_n = np.asarray(_libm_exp(-n_float * eps_prime), dtype=float)
    log_k = 2.0 * eps_prime * n_float
    log_m = log_k

    def growth_at(nn):
        # e^2 e^(-c' nn) < e^(-eps' nn), in a form monotone in nn
        return (c_prime - eps_prime) * nn > 2.0

    def net_at(nn: int) -> bool:
        # 2 M + 1 <= e^(4 eps' nn) with M = e^(2 eps' nn)
        u = 2.0 * eps_prime * nn
        if u > 360.0:
            return True
        return 2.0 * math.exp(u) + 1.0 <= math.exp(2.0 * u)

    min_feasible: int | None = None
    if c_prime > eps_prime:
        growth_start = 2.0 / (c_prime - eps_prime)
        net_start = math.log(1.0 + math.sqrt(2.0)) / (2.0 * eps_prime)
        if not math.isfinite(growth_start + net_start):
            raise ValueError(
                "schedule exponents too small: the minimum feasible blocklength "
                "exceeds the float range"
            )
        n_growth = _min_n_satisfying(growth_at, int(growth_start) + 1)
        n_net = _min_n_satisfying(net_at, max(int(net_start), 1))
        min_feasible = max(n_growth, n_net)

    drift_ok = None
    if perturbation is not None:
        p, n_tx, n_eve, eps = perturbation
        perturbation_radii(p, n_tx, n_eve, 1, eps)  # refuses what the radii refuse
        if p == 0:
            drift_ok = np.full(n_float.shape, True)
        else:
            log_r_prime = 0.5 * math.log(2.0 * n_tx * n_eve * p) - log_m
            r_prime = np.where(log_r_prime > -700, np.exp(log_r_prime), 0.0)
            r = r_prime + math.sqrt(n_eve * (1.0 + eps))
            # r' = 0 gives log 0 = -inf: no drift at all
            with np.errstate(divide="ignore"):
                log_ng = np.log(n_float) + np.log(r_prime * (2.0 * r + r_prime))
            drift_ok = log_ng < -1.5 * eps_prime * n_float

    # a product that overflows to +-inf still compares correctly with 2
    with np.errstate(over="ignore"):
        per_n = [eps_n, log_k, log_m, growth_at(n_float), drift_ok]
    if n_float.ndim == 0:
        # one blocklength: plain Python numbers and flags
        per_n = [None if v is None else v.item() for v in per_n]
    eps_n, log_k, log_m, growth_ok, drift_ok = per_n
    return ScheduleParams(
        eps_prime=eps_prime,
        n=n,
        eps_n=eps_n,
        log_k=log_k,
        log_m=log_m,
        distance_exponent_ok=eps_prime < c_prime,
        residual_tail_ok=eps_prime < alpha_eps,
        truncation_tail_ok=eps_prime < alpha_eps_p,
        decoding_exponent_ok=2.0 * eps_prime < error_exponent,
        growth_ok=growth_ok,
        drift_ok=drift_ok,
        min_feasible_n=min_feasible,
    )


def two_stage_overhead(eps_prime: float, r0: float) -> tuple[float, float]:
    """Blocklength inflation from announcing the codebook index.

    Publishing one of e^(2 eps' n) codebook indices over a rate-r0 channel
    costs 2 eps' log2(e) / r0 extra uses per secret use; returns the total
    stretch factor and that per-use overhead.
    """
    if r0 <= 0:
        raise ValueError("stage-two rate must be positive")
    if eps_prime < 0:
        raise ValueError("schedule exponent must be nonnegative")
    n2_per_n = 2.0 * eps_prime * math.log2(math.e) / r0
    return 1.0 + n2_per_n, n2_per_n
