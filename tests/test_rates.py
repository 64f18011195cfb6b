import math

import numpy as np
import pytest

from avwiretap.channel import (
    DimensionError,
    MainChannel,
    PowerConfig,
    complex_normal,
    effective_noise_cov,
    random_full_rank_channel,
)
from avwiretap.rates import (
    capacity_term,
    converse_rate_bound,
    leakage_cap,
    main_mutual_info,
    sdof,
    sdof_slope,
    secrecy_rate,
)


def test_effective_power_examples():
    """Code power left after one unit per antenna is reserved for noise."""
    assert PowerConfig(pbar=10, eps_p=0.0, n_tx=2).p == 8.0
    assert PowerConfig(pbar=1, eps_p=0.0, n_tx=2).p == 0.0
    assert PowerConfig(pbar=2, eps_p=0.0, n_tx=2).p == 0.0
    with pytest.raises(ValueError):
        PowerConfig(pbar=-1, eps_p=0.0, n_tx=2)


def test_capacity_term_examples():
    assert capacity_term(0.0) == 0.0
    assert capacity_term(1.0) == pytest.approx(1.0)
    assert capacity_term(8.0) == pytest.approx(math.log2(9))
    assert capacity_term(8.0, "half") == pytest.approx(0.5 * math.log2(9))
    with pytest.raises(ValueError):
        capacity_term(-0.5)
    with pytest.raises(ValueError):
        capacity_term(1.0, "nats")


def test_main_mutual_info_identity_channel():
    ch = MainChannel(np.eye(2))
    pc = PowerConfig(pbar=10.0, eps_p=0.0, n_tx=2)
    assert main_mutual_info(ch, pc) == pytest.approx(2 * math.log2(3))
    assert main_mutual_info(ch, PowerConfig(2.0, 0.0, 2)) == 0.0


def test_main_mutual_info_requires_matching_mode_count():
    ch = MainChannel(np.eye(2))
    with pytest.raises(DimensionError):
        main_mutual_info(ch, PowerConfig(10.0, 0.0, 3))


def _gaussian_logpdf(v, cov_inv, logdet, dim):
    quad = np.sum(np.conj(v) * (cov_inv @ v), axis=0).real
    return -dim * math.log(math.pi) - logdet - quad


def test_main_mutual_info_matches_mc_estimate(rng):
    # independent oracle: sample the physical channel y = h (x + nt) + z and
    # average the information density between the two exact Gaussian laws
    samples = 1_000_000
    for _ in range(5):
        ch = random_full_rank_channel(2, 2, rng, max_condition=20)
        pc = PowerConfig(pbar=float(rng.uniform(4, 24)), eps_p=0.0, n_tx=2)
        x = complex_normal(rng, (2, samples), var=pc.p / 2)
        y = ch.h @ (x + complex_normal(rng, (2, samples))) + complex_normal(rng, (2, samples))
        cov_n = effective_noise_cov(ch)
        cov_y = (pc.p / 2) * (ch.h @ ch.h.conj().T) + cov_n
        terms = []
        for cov, center in ((cov_n, ch.h @ x), (cov_y, 0.0)):
            inv = np.linalg.inv(cov)
            logdet = np.linalg.slogdet(cov)[1]
            terms.append(_gaussian_logpdf(y - center, inv, logdet, 2))
        mc = np.mean(terms[0] - terms[1]) / math.log(2)
        assert abs(mc - main_mutual_info(ch, pc)) < 0.05


def test_leakage_cap_examples():
    pc = PowerConfig(pbar=10.0, eps_p=0.0, n_tx=2)
    assert leakage_cap(pc, 1, "conservative") == pytest.approx(math.log2(9))
    assert leakage_cap(pc, 1, "exact") == pytest.approx(math.log2(5))
    assert leakage_cap(pc, 0) == 0.0
    with pytest.raises(ValueError):
        leakage_cap(pc, 1, "optimistic")


def test_secrecy_rate_symbolic_zero():
    # 2 log2(3) and log2(9) coincide, so the identity channel at budget 10
    # sits exactly at the clamp boundary
    ch = MainChannel(np.eye(2))
    res = secrecy_rate(ch, PowerConfig(10.0, 0.0, 2), 1)
    assert res.rate_bits == pytest.approx(0.0, abs=1e-12)


def test_secrecy_rate_positive_example():
    ch = MainChannel(np.eye(2))
    res = secrecy_rate(ch, PowerConfig(102.0, 0.0, 2), 1)
    assert res.rate_bits == pytest.approx(2 * math.log2(26) - math.log2(101))
    assert not res.clamped


def test_secrecy_rate_clamps_when_eve_covers_all_modes():
    ch = MainChannel(np.eye(2))
    res = secrecy_rate(ch, PowerConfig(102.0, 0.0, 2), 2)
    assert res.rate_bits == 0.0
    assert res.clamped


def test_sdof_examples():
    assert sdof(2, 2, 1) == 1
    assert sdof(2, 2, 2) == 0
    assert sdof(4, 3, 1) == 2


def test_sdof_slope_matches_formula(rng):
    grid = [1e3, 1e4, 1e5, 1e6]
    for n_tx, n_rx, n_eve in [(2, 2, 1), (3, 3, 1)]:
        ch = random_full_rank_channel(n_rx, n_tx, rng, max_condition=4)
        n_m = ch.n_modes

        def rate(pbar):
            return secrecy_rate(ch, PowerConfig(pbar, 0.0, n_m), n_eve).rate_bits

        assert sdof_slope(rate, grid) == pytest.approx(sdof(n_tx, n_rx, n_eve), abs=0.05)
    assert sdof_slope(lambda p: 0.0, grid) == 0.0


def test_sdof_slope_grid_validation():
    with pytest.raises(ValueError):
        sdof_slope(lambda p: 0.0, [1e3, 1e4])
    with pytest.raises(ValueError):
        sdof_slope(lambda p: 0.0, [1.0, 2.0, 3.0])


def test_converse_rate_bound_examples():
    ch = MainChannel(np.eye(2))
    assert converse_rate_bound(ch, 100.0, 1) == pytest.approx(math.log2(51))
    assert converse_rate_bound(ch, 100.0, 2) == 0.0


def test_converse_dominates_achievable(rng):
    shapes = [(2, 2), (3, 3), (4, 4), (2, 3), (3, 2), (4, 3)]
    for _ in range(20):
        n_rx, n_tx = shapes[rng.integers(len(shapes))]
        ch = random_full_rank_channel(n_rx, n_tx, rng)
        n_eve = int(rng.integers(1, ch.n_modes + 1))
        pbar = float(10 ** rng.uniform(0, 5))
        ach = secrecy_rate(ch, PowerConfig(pbar, 0.0, ch.n_modes), n_eve).rate_bits
        assert ach <= converse_rate_bound(ch, pbar, n_eve) + 1e-12


def test_secrecy_rate_monotonic_in_power_and_eve_antennas(rng):
    shapes = [(2, 2), (3, 3), (4, 4), (2, 3), (3, 2)]
    grid = np.logspace(-1, 5, 25)
    for _ in range(100):
        n_rx, n_tx = shapes[rng.integers(len(shapes))]
        ch = random_full_rank_channel(n_rx, n_tx, rng)
        n_m = ch.n_modes
        n_eve = int(rng.integers(1, n_m + 1))
        vals = [secrecy_rate(ch, PowerConfig(p, 0.0, n_m), n_eve).rate_bits for p in grid]
        assert np.all(np.diff(vals) >= -1e-10)
        pbar = float(grid[rng.integers(len(grid))])
        by_eve = [
            secrecy_rate(ch, PowerConfig(pbar, 0.0, n_m), k).rate_bits
            for k in range(n_m + 1)
        ]
        assert np.all(np.diff(by_eve) <= 1e-10)


def test_half_convention_scales_everything(rng):
    ch = random_full_rank_channel(3, 3, rng)
    pc = PowerConfig(pbar=50.0, eps_p=0.1, n_tx=3)
    full = secrecy_rate(ch, pc, 1, "full")
    half = secrecy_rate(ch, pc, 1, "half")
    assert half.rate_bits == pytest.approx(0.5 * full.rate_bits)
    assert half.main_mi == pytest.approx(0.5 * full.main_mi)
    assert leakage_cap(pc, 2, "exact", "half") == pytest.approx(
        0.5 * leakage_cap(pc, 2, "exact", "full")
    )
    assert converse_rate_bound(ch, 50.0, 1, "half") == pytest.approx(
        0.5 * converse_rate_bound(ch, 50.0, 1, "full")
    )
