import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from avwiretap.channel import MainChannel, random_full_rank_channel
from avwiretap.rates import (
    bc_region,
    capacity_term,
    convex_hull_2d,
    mac_region,
    region_sum_sdof,
)


def test_hull_single_point_closure():
    hull = convex_hull_2d([(1.0, 1.0)])
    assert sorted(map(tuple, hull)) == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


def test_hull_drops_interior_point():
    hull = convex_hull_2d([(2.0, 0.0), (0.0, 2.0), (1.0, 1.0)])
    assert sorted(map(tuple, hull)) == [(0.0, 0.0), (0.0, 2.0), (2.0, 0.0)]


def test_hull_collinear_collapse():
    hull = convex_hull_2d([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
    assert sorted(map(tuple, hull)) == [(0.0, 0.0), (3.0, 0.0)]


def test_hull_rejects_nan():
    with pytest.raises(ValueError):
        convex_hull_2d([(np.nan, 0.0)])


def test_hull_counterclockwise_and_matches_qhull(rng):
    # oracle: scipy's qhull on the same closed point set
    for _ in range(25):
        pts = rng.uniform(0.1, 5.0, size=(int(rng.integers(3, 12)), 2))
        mine = convex_hull_2d(pts)
        closed = np.vstack(
            [
                pts,
                np.column_stack([pts[:, 0], np.zeros(len(pts))]),
                np.column_stack([np.zeros(len(pts)), pts[:, 1]]),
                [[0.0, 0.0]],
            ]
        )
        ref = ConvexHull(closed)
        ref_vertices = sorted(map(tuple, np.round(closed[ref.vertices], 12)))
        assert sorted(map(tuple, np.round(mine, 12))) == ref_vertices
        # counterclockwise: positive signed area
        x, y = mine[:, 0], mine[:, 1]
        area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        assert area > 0


def _extreme_points(points):
    """Brute-force reference: a point is a vertex of the convex hull when
    the directions to all other points fit in an arc shorter than pi (a
    point between two others sees them at exactly pi, so a collinear point
    is no vertex).  An arc shorter than pi misses either angle 0 or angle
    pi, so its span shows in the angles taken in (-pi, pi] or in [0, 2 pi)."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    n = len(pts)
    if n == 1:
        return [tuple(pts[0])]
    vertices = []
    for start in range(0, n, 256):
        block = pts[start:start + 256]
        d = pts[None, :, :] - block[:, None, :]
        angles = np.arctan2(d[..., 1], d[..., 0])
        # a point's own direction is undefined: repeat its neighbour's
        rows = np.arange(len(block))
        angles[rows, start + rows] = angles[rows, (start + rows + 1) % n]
        span = np.ptp(angles, axis=1)
        angles[angles < 0.0] += 2.0 * math.pi
        span = np.minimum(span, np.ptp(angles, axis=1))
        vertices += map(tuple, block[span < math.pi])
    return vertices


def _closure(pts):
    """The points with their axis projections and the origin."""
    return np.vstack(
        [pts, pts * [1.0, 0.0], pts * [0.0, 1.0], [[0.0, 0.0]]]
    )


@pytest.mark.parametrize("shape", ["mac-curve", "cloud"])
def test_hull_matches_brute_force_extreme_points(shape):
    rng = np.random.default_rng(2024)
    if shape == "mac-curve":
        # a concave rate-pair curve of 2,000 points, as the MAC sweep traces
        t = np.linspace(0.0, 0.5 * math.pi, 2000)
        pts = np.column_stack([3.0 * np.cos(t), 2.0 * np.sin(t)])
    else:
        pts = rng.uniform(-1.0, 5.0, size=(400, 2))
    hull = convex_hull_2d(pts)
    assert sorted(map(tuple, hull)) == sorted(_extreme_points(_closure(pts)))
    # counterclockwise from the lexicographically smallest vertex, every turn
    # strictly to the left: no collinear vertex is kept
    assert tuple(hull[0]) == min(map(tuple, hull))
    a, b, c = hull, np.roll(hull, -1, axis=0), np.roll(hull, -2, axis=0)
    turn = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    assert np.all(turn > 0)


def _identity_pair():
    return MainChannel(np.eye(2)), MainChannel(np.eye(2))


def test_mac_region_alpha_one_corner():
    ch1, ch2 = _identity_pair()
    region = mac_region(ch1, ch2, pbar=102.0, n_eve=1, alpha_grid=[1.0])
    r1, r2 = region.raw_points[0]
    assert r1 == pytest.approx(2 * math.log2(26) - math.log2(101))
    assert r2 == 0.0


def test_mac_region_symmetric_split():
    ch1, ch2 = _identity_pair()
    region = mac_region(ch1, ch2, pbar=102.0, n_eve=1, alpha_grid=[0.5])
    expected = 0.5 * (2 * math.log2(51.5) - math.log2(203))
    assert region.raw_points[0] == pytest.approx((expected, expected))


def test_mac_region_collapses_when_eve_matches_antennas():
    ch1, ch2 = _identity_pair()
    region = mac_region(ch1, ch2, pbar=102.0, n_eve=2)
    assert np.allclose(region.raw_points, 0.0)
    assert np.array_equal(region.hull, [[0.0, 0.0]])


def test_mac_region_rejects_empty_grid():
    ch1, ch2 = _identity_pair()
    with pytest.raises(ValueError):
        mac_region(ch1, ch2, 102.0, 1, alpha_grid=[])


def test_bc_region_symmetric_triangle():
    ch1, ch2 = _identity_pair()
    region = bc_region(ch1, ch2, pbar=102.0, n_eve=1)
    corner = 2 * math.log2(26) - math.log2(101)
    assert sorted(map(tuple, np.round(region.hull, 10))) == sorted(
        map(tuple, np.round([(0.0, 0.0), (corner, 0.0), (0.0, corner)], 10))
    )


def test_bc_region_asymmetric_corner_formula():
    ch1 = MainChannel(np.eye(2))
    ch2 = MainChannel(np.diag([3.0, 1.0]))
    region = bc_region(ch1, ch2, pbar=102.0, n_eve=1)
    expected = max(
        capacity_term(9 * 100 / (10 * 2)) + capacity_term(100 / (2 * 2)) - math.log2(101),
        0.0,
    )
    assert region.raw_points[2][1] == pytest.approx(expected)


def test_bc_region_collapses_when_eve_matches_antennas():
    ch1, ch2 = _identity_pair()
    region = bc_region(ch1, ch2, pbar=102.0, n_eve=2)
    assert np.array_equal(region.hull, [[0.0, 0.0]])


def test_regions_shrink_as_eve_grows(rng):
    ch1 = random_full_rank_channel(2, 2, rng, max_condition=5)
    ch2 = random_full_rank_channel(2, 2, rng, max_condition=5)
    for builder in (mac_region, bc_region):
        big = builder(ch1, ch2, 200.0, 1)
        small = builder(ch1, ch2, 200.0, 2)
        for vertex in small.hull:
            assert big.contains(vertex, tol=1e-9)


def test_no_raw_point_dominates_a_frontier_vertex(rng):
    ch1 = random_full_rank_channel(2, 2, rng, max_condition=5)
    ch2 = random_full_rank_channel(2, 2, rng, max_condition=5)
    region = mac_region(ch1, ch2, 300.0, 1)
    for vx, vy in region.hull:
        if vx == 0.0 or vy == 0.0:
            continue  # axis corners come from the downward closure
        dominated = np.any(
            (region.raw_points[:, 0] > vx + 1e-9)
            & (region.raw_points[:, 1] > vy + 1e-9)
        )
        # a strictly dominated frontier vertex would mean the hull missed an
        # achievable pair
        assert not dominated


def test_region_sum_sdof_slopes():
    ch1, ch2 = _identity_pair()
    grid = [1e3, 1e4, 1e5, 1e6]
    mac_slope = region_sum_sdof(lambda p: mac_region(ch1, ch2, p, 1), grid)
    bc_slope = region_sum_sdof(lambda p: bc_region(ch1, ch2, p, 1), grid)
    assert mac_slope == pytest.approx(1.0, abs=0.05)
    assert bc_slope == pytest.approx(1.0, abs=0.05)
    flat = region_sum_sdof(lambda p: bc_region(ch1, ch2, p, 2), grid)
    assert flat == pytest.approx(0.0, abs=1e-9)


def _hull_by_np_unique(points) -> np.ndarray:
    """The monotone chain as it stood before the sort moved to np.lexsort:
    np.unique(axis=0) sorts and dedupes, and a cross() call per step."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    closure = np.vstack(
        [pts, [[lo[0], 0.0], [hi[0], 0.0], [0.0, lo[1]], [0.0, hi[1]], [0.0, 0.0]]]
    )
    cand = np.unique(closure, axis=0)
    if len(cand) == 1:
        return cand

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    cand = cand.tolist()
    lower: list = []
    for p in cand:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(cand):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def _assert_same_hull(points):
    mine, ref = convex_hull_2d(points), _hull_by_np_unique(points)
    assert np.array_equal(mine, ref)
    # bit for bit, so the sign of every zero matches too
    assert mine.shape == ref.shape and mine.tobytes() == ref.tobytes()


# few values, so draws repeat points and lay collinear runs on both axes;
# -0.0 next to 0.0, and magnitudes whose cross products overflow to nan
_GRID_VALUES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0])
_WIDE_VALUES = st.sampled_from([-1e300, -1.0, -0.0, 0.0, 1.0, 1e200, 1e300])
_FLOATS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.tuples(_GRID_VALUES, _GRID_VALUES), min_size=1, max_size=40),
    st.lists(st.tuples(_WIDE_VALUES, _WIDE_VALUES), min_size=1, max_size=12),
    st.lists(st.tuples(_FLOATS, _FLOATS), min_size=1, max_size=40),
))
def test_hull_matches_np_unique_chain(points):
    _assert_same_hull(points)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(0.5, 3.0), min_size=2, max_size=4),
    st.lists(st.floats(0.5, 3.0), min_size=2, max_size=4),
    st.floats(10.0, 1e4),
    st.integers(1900, 2100),
)
def test_hull_of_mac_sweep_matches_np_unique_chain(gains1, gains2, pbar, num):
    modes = min(len(gains1), len(gains2))
    ch1 = MainChannel(np.diag(gains1[:modes]).astype(complex))
    ch2 = MainChannel(np.diag(gains2[:modes]).astype(complex))
    raw = mac_region(ch1, ch2, pbar, 1, np.linspace(0.01, 1.0, num)).raw_points
    _assert_same_hull(raw)
