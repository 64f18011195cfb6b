"""Closed-form secrecy rates, secure degrees of freedom, converse bounds,
and time-sharing rate regions for the multi-access and broadcast variants.

All rates default to the full-log convention, log2(1 + snr) bits per use;
the "half" convention scales every rate by exactly one half (one real
dimension per complex symbol) and is exposed for cross-checking against
real-signalling conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import DimensionError, MainChannel, PowerConfig

CONVENTIONS = ("full", "half")

LEAKAGE_MODES = ("conservative", "exact")


def _convention_scale(convention: str) -> float:
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")
    return 0.5 if convention == "half" else 1.0


def capacity_term(x: float, convention: str = "full") -> float:
    """Gaussian capacity log2(1 + x) bits (halved under the half convention)."""
    scale = _convention_scale(convention)
    if x < 0:
        raise ValueError("snr must be nonnegative")
    return scale * math.log2(1.0 + x)


def main_mutual_info(ch: MainChannel, pc: PowerConfig, convention: str = "full") -> float:
    """Rate across the main channel with isotropic input and artificial noise.

    Each spatial mode with gain s sees snr s^2 p / ((s^2 + 1) n), the
    artificial noise having raised the per-mode noise floor to s^2 + 1.
    """
    if pc.n_tx != ch.n_modes:
        raise DimensionError(
            f"power config is for {pc.n_tx} active antennas but the channel "
            f"has {ch.n_modes} modes"
        )
    p = pc.p
    return sum(
        capacity_term(s * s * p / ((s * s + 1.0) * pc.n_tx), convention)
        for s in ch.singular_values
    )


def leakage_cap(
    pc: PowerConfig, n_eve: int, mode: str = "conservative", convention: str = "full"
) -> float:
    """Upper bound on what the eavesdropper learns, bits per use.

    ``conservative`` is the per-antenna cap n_eve * C(p) entering the
    achievable-rate statement; ``exact`` is the actual i.i.d.-Gaussian leakage
    n_eve * C(p (1 - eps_p) / n_tx) of the equivalent unit-noise channel.
    """
    if n_eve < 0:
        raise ValueError("eavesdropper antenna count must be nonnegative")
    if mode == "conservative":
        snr = pc.p
    elif mode == "exact":
        snr = pc.p * (1.0 - pc.eps_p) / pc.n_tx
    else:
        raise ValueError(f"unknown leakage mode {mode!r}; expected one of {LEAKAGE_MODES}")
    return n_eve * capacity_term(snr, convention)


@dataclass(frozen=True)
class SecrecyRateResult:
    rate_bits: float
    main_mi: float
    leakage_cap: float
    clamped: bool


def secrecy_rate(
    ch: MainChannel, pc: PowerConfig, n_eve: int, convention: str = "full"
) -> SecrecyRateResult:
    """Achievable secrecy rate: main-channel rate minus the leakage cap,
    clamped at zero."""
    mi = main_mutual_info(ch, pc, convention)
    leak = leakage_cap(pc, n_eve, "conservative", convention)
    return SecrecyRateResult(
        rate_bits=max(mi - leak, 0.0),
        main_mi=mi,
        leakage_cap=leak,
        clamped=mi <= leak,
    )


def sdof(n_tx: int, n_rx: int, n_eve: int) -> int:
    """Secure degrees of freedom of the full-rank wiretap channel."""
    if min(n_tx, n_rx, n_eve) < 0:
        raise ValueError("antenna counts must be nonnegative")
    return max(min(n_tx, n_rx) - n_eve, 0)


def _check_power_grid(pbar_grid) -> np.ndarray:
    grid = np.asarray(pbar_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError("need an ascending grid of at least 3 power budgets")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("power grid must be strictly ascending")
    if grid[-1] < 1e3:
        raise ValueError("grid too small: largest budget must reach 1e3")
    return grid


def sdof_slope(rate_fn, pbar_grid) -> float:
    """Least-squares slope of rate against log2 of the power budget."""
    grid = _check_power_grid(pbar_grid)
    rates = np.array([rate_fn(p) for p in grid], dtype=float)
    return float(np.polyfit(np.log2(grid), rates, 1)[0])


def converse_rate_bound(
    ch: MainChannel, pbar: float, n_eve: int, convention: str = "full"
) -> float:
    """Secrecy-rate upper bound against the worst-case aligned eavesdropper.

    The adversary observes the strongest n_eve modes perfectly, so only the
    remaining modes can carry secrets; the input is taken i.i.d. at the full
    budget pbar / n_tx per antenna.  Returns 0 when the eavesdropper covers
    every mode.
    """
    if pbar < 0:
        raise ValueError("power budget must be nonnegative")
    if n_eve >= ch.n_modes:
        return 0.0
    per_antenna = pbar / ch.n_tx
    return sum(
        capacity_term(s * s * per_antenna, convention)
        for s in ch.singular_values[n_eve:]
    )


# ---------------------------------------------------------------------------
# rate regions


def convex_hull_2d(points) -> np.ndarray:
    """Convex hull of the points plus their axis projections and the origin.

    Returns the extreme points in counterclockwise order starting from the
    lexicographically smallest vertex; collinear points are dropped.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("need at least one point")
    pts = pts.reshape(-1, 2)
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    closure = np.vstack(
        [
            pts,
            np.column_stack([pts[:, 0], np.zeros(len(pts))]),
            np.column_stack([np.zeros(len(pts)), pts[:, 1]]),
            [[0.0, 0.0]],
        ]
    )
    cand = np.unique(closure, axis=0)  # lexicographic sort
    if len(cand) == 1:
        return cand

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in cand:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(tuple(p))
    upper: list = []
    for p in cand[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(tuple(p))
    return np.array(lower[:-1] + upper[:-1])


@dataclass(frozen=True)
class RateRegion:
    """Raw rate pairs and the convex hull of their downward closure."""

    raw_points: np.ndarray
    hull: np.ndarray

    def contains(self, point, tol: float = 1e-9) -> bool:
        """Point-in-hull test (hull vertices are counterclockwise)."""
        p = np.asarray(point, dtype=float)
        hull = self.hull
        if len(hull) == 1:
            return bool(np.all(np.abs(p - hull[0]) <= tol))
        if len(hull) == 2:
            a, b = hull
            d, v = b - a, p - a
            cross = d[0] * v[1] - d[1] * v[0]
            t = np.dot(v, d) / np.dot(d, d)
            return bool(abs(cross) <= tol * (1 + np.linalg.norm(d)) and -tol <= t <= 1 + tol)
        for a, b in zip(hull, np.roll(hull, -1, axis=0)):
            if (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) < -tol:
                return False
        return True

    def max_sum(self) -> float:
        return float(np.max(self.hull.sum(axis=1)))


def _square_pair(ch1: MainChannel, ch2: MainChannel) -> int:
    if ch1.n_tx != ch1.n_rx or ch2.n_tx != ch2.n_rx or ch1.n_tx != ch2.n_tx:
        raise DimensionError("both user channels must be square and equally sized")
    return ch1.n_tx


def _single_user_rate(
    ch: MainChannel, p: float, n_t: int, n_eve: int, convention: str
) -> float:
    term = sum(
        capacity_term(s * s * p / ((s * s + 1.0) * n_t), convention)
        for s in ch.singular_values
    ) - n_eve * capacity_term(p, convention)
    return max(term, 0.0)


def mac_region(
    ch1: MainChannel,
    ch2: MainChannel,
    pbar: float,
    n_eve: int,
    alpha_grid=None,
    convention: str = "full",
) -> RateRegion:
    """Time-sharing secrecy rate region of the two-user multi-access model.

    User 1 transmits alone for a fraction alpha of the time at boosted
    budget pbar / alpha, user 2 for the remainder.
    """
    n_t = _square_pair(ch1, ch2)
    if alpha_grid is None:
        alpha_grid = np.linspace(0.01, 1.0, 101)
    alphas = np.asarray(alpha_grid, dtype=float)
    if alphas.size == 0:
        raise ValueError("alpha grid must be nonempty")
    if np.any((alphas <= 0) | (alphas > 1)):
        raise ValueError("alpha values must lie in (0, 1]")
    points = []
    for alpha in alphas:
        abar = 1.0 - alpha
        p1 = max(pbar / alpha - n_t, 0.0)
        r1 = alpha * _single_user_rate(ch1, p1, n_t, n_eve, convention)
        if abar > 0:
            p2 = max(pbar / abar - n_t, 0.0)
            r2 = abar * _single_user_rate(ch2, p2, n_t, n_eve, convention)
        else:
            r2 = 0.0
        points.append((r1, r2))
    raw = np.array(points)
    return RateRegion(raw_points=raw, hull=convex_hull_2d(raw))


def bc_region(
    ch1: MainChannel,
    ch2: MainChannel,
    pbar: float,
    n_eve: int,
    convention: str = "full",
) -> RateRegion:
    """Time-sharing secrecy rate region of the two-receiver broadcast model:
    the triangle spanned by the two single-user corner points."""
    n_t = _square_pair(ch1, ch2)
    p = PowerConfig(pbar, 0.0, n_t).p
    c1 = _single_user_rate(ch1, p, n_t, n_eve, convention)
    c2 = _single_user_rate(ch2, p, n_t, n_eve, convention)
    raw = np.array([(0.0, 0.0), (c1, 0.0), (0.0, c2)])
    return RateRegion(raw_points=raw, hull=convex_hull_2d(raw))


def region_sum_sdof(region_fn, pbar_grid) -> float:
    """Slope of the best hull sum-rate against log2 of the power budget."""
    grid = _check_power_grid(pbar_grid)
    sums = np.array([region_fn(p).max_sum() for p in grid])
    return float(np.polyfit(np.log2(grid), sums, 1)[0])
