"""Closed-form secrecy rates, secure degrees of freedom, converse bounds,
and time-sharing rate regions for the multi-access and broadcast variants.

Every rate is in the paper's unit, log2(1 + snr) bits per complex channel
use.  The CLI's "half" convention (one real dimension per complex symbol)
is a change of unit: it halves the reported columns, and a library caller
who wants it multiplies a rate by 0.5, which is exact in binary floating
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import DimensionError, MainChannel, PowerConfig

LEAKAGE_MODES = ("conservative", "exact")


# libm's log2, elementwise: numpy's vectorized log2 differs from it in the
# last bit on some 0.3% of inputs, and that shows in a 12-digit region cell
# about once in 10^6 rows
_libm_log2 = np.frompyfunc(math.log2, 1, 1)


def capacity_term(x):
    """Gaussian capacity log2(1 + x) bits, elementwise over an array of snrs."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("snr must be nonnegative")
    return np.asarray(_libm_log2(1.0 + x), dtype=float)


def _mode_rate(singular_values, p, n_t: int):
    """Sum over the spatial modes of C(s^2 p / ((s^2 + 1) n_t)): each mode with
    gain s shares the code power p with the n_t antennas, and the artificial
    noise raises its noise floor to s^2 + 1."""
    return sum(
        capacity_term(s * s * p / ((s * s + 1.0) * n_t)) for s in singular_values
    )


def main_mutual_info(ch: MainChannel, pc: PowerConfig):
    """Rate across the main channel with isotropic input and artificial noise
    (``_mode_rate`` at the code power p; an array where ``pc.pbar`` is one)."""
    if pc.n_tx != ch.n_modes:
        raise DimensionError(
            f"power config is for {pc.n_tx} active antennas but the channel "
            f"has {ch.n_modes} modes"
        )
    return _mode_rate(ch.singular_values, pc.p, pc.n_tx)


def leakage_cap(pc: PowerConfig, n_eve: int, mode: str = "conservative"):
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
        snr = pc.per_antenna_var
    else:
        raise ValueError(f"unknown leakage mode {mode!r}; expected one of {LEAKAGE_MODES}")
    return n_eve * capacity_term(snr)


@dataclass(frozen=True)
class SecrecyRateResult:
    """One rate, or arrays of them over a grid of power budgets."""

    rate_bits: float
    main_mi: float
    leakage_cap: float
    clamped: bool


def secrecy_rate(ch: MainChannel, pc: PowerConfig, n_eve: int) -> SecrecyRateResult:
    """Achievable secrecy rate: main-channel rate minus the leakage cap,
    clamped at zero; elementwise where ``pc.pbar`` is an array."""
    mi = main_mutual_info(ch, pc)
    leak = leakage_cap(pc, n_eve, "conservative")
    return SecrecyRateResult(
        rate_bits=np.maximum(mi - leak, 0.0),
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


def converse_rate_bound(ch: MainChannel, pbar, n_eve: int):
    """Secrecy-rate upper bound against the worst-case aligned eavesdropper,
    elementwise over an array of budgets.

    The adversary observes the strongest n_eve modes perfectly, so only the
    remaining modes can carry secrets; the input is taken i.i.d. at the full
    budget pbar / n_tx per antenna.  Returns 0 when the eavesdropper covers
    every mode.
    """
    per_antenna = np.asarray(pbar, dtype=float) / ch.n_tx
    if np.any(per_antenna < 0):
        raise ValueError("power budget must be nonnegative")
    if n_eve < 0:
        raise ValueError("eavesdropper antenna count must be nonnegative")
    bound = np.zeros_like(per_antenna)
    for s in ch.singular_values[n_eve:]:
        bound = bound + capacity_term(s * s * per_antenna)
    return bound[()]  # a scalar for a scalar budget


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
    # of the axis projections only the outermost two on each axis can be
    # extreme: the rest lie on the segment between them
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    closure = np.vstack(
        [pts, [[lo[0], 0.0], [hi[0], 0.0], [0.0, lo[1]], [0.0, hi[1]], [0.0, 0.0]]]
    )
    if np.signbit(closure[closure == 0]).any():
        # which of two rows equal but for the sign of a zero is kept is
        # np.unique's (unstable) choice; keep making it
        cand = np.unique(closure, axis=0)
    else:
        # lexicographic sort, then drop each row equal to the one before
        cand = closure[np.lexsort((closure[:, 1], closure[:, 0]))]
        cand = cand[np.r_[True, (cand[1:] != cand[:-1]).any(axis=1)]]
    if len(cand) == 1:
        return cand

    def chain(points) -> list:
        # the monotone chain walks Python floats: indexing numpy rows point
        # by point costs more than the arithmetic, and so does a call per
        # cross product; a NaN cross product pops nothing
        hull: list = []
        for x, y in points:
            while len(hull) > 1:
                o, a = hull[-2], hull[-1]
                if (a[0] - o[0]) * (y - o[1]) - (a[1] - o[1]) * (x - o[0]) <= 0:
                    hull.pop()
                else:
                    break
            hull.append((x, y))
        return hull

    cand = cand.tolist()
    return np.array(chain(cand)[:-1] + chain(reversed(cand))[:-1])


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


def mac_region(
    ch1: MainChannel,
    ch2: MainChannel,
    pbar: float,
    n_eve: int,
    alpha_grid=None,
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
    abars = 1.0 - alphas

    def rate(ch, share):
        # the user's rate at the boosted budget pbar / share, over its share
        pc = PowerConfig(pbar / share, 0.0, n_t)
        return share * secrecy_rate(ch, pc, n_eve).rate_bits

    r1 = rate(ch1, alphas)
    # user 2 gets no time slot at alpha = 1
    shared = abars > 0
    r2 = np.zeros_like(alphas)
    r2[shared] = rate(ch2, abars[shared])
    raw = np.column_stack([r1, r2])
    return RateRegion(raw_points=raw, hull=convex_hull_2d(raw))


def bc_region(
    ch1: MainChannel,
    ch2: MainChannel,
    pbar: float,
    n_eve: int,
) -> RateRegion:
    """Time-sharing secrecy rate region of the two-receiver broadcast model:
    the triangle spanned by the two single-user corner points."""
    pc = PowerConfig(pbar, 0.0, _square_pair(ch1, ch2))
    c1 = secrecy_rate(ch1, pc, n_eve).rate_bits
    c2 = secrecy_rate(ch2, pc, n_eve).rate_bits
    raw = np.array([(0.0, 0.0), (c1, 0.0), (0.0, c2)])
    return RateRegion(raw_points=raw, hull=convex_hull_2d(raw))


def region_sum_sdof(region_fn, pbar_grid) -> float:
    """Slope of the best hull sum-rate against log2 of the power budget."""
    return sdof_slope(lambda p: region_fn(p).max_sum(), pbar_grid)
