"""The exact information-density law and the verify row that tests against it.

With canonical eavesdropper states and unit artificial noise, the per-block
statistic n (density - n_eve log2 p') ln 2 / sqrt(1 - 1/p') is exactly
G1 - G2 with G1, G2 i.i.d. Gamma(n_eve n), whatever the state sequence.
These tests hold the exact law, the Monte Carlo tail estimator and the
pipeline densities to each other, and show the verify row's power against
two broken pipelines.

The row has no power against a non-canonical trace: with the first state of
every trace scaled by 1.5, it went red on 0 of 30 seeds.  A scaled row is
rejected earlier, by ``EveTrace`` validation (see the last test).
"""

import math

import numpy as np
import pytest
from scipy.special import kolmogi
from scipy.stats import binom, kstest

from avwiretap import leakage
from avwiretap.channel import EveTrace, InvariantError, PowerConfig, eve_observe
from avwiretap.checks import DENSITY_LAW_ALPHA, tail_trend_check
from avwiretap.codebook import _PANEL
from avwiretap.leakage import (
    _density_chunks,
    density_law_cdf,
    density_law_ks,
    density_law_stat,
    density_law_tail,
    info_density_tail,
)

# verify's power configuration: p = 4, per-antenna variance 1, p' = 2
PC = PowerConfig(pbar=6.0, eps_p=0.5, n_tx=2)


def test_exact_tails_at_verify_parameters():
    tails = [density_law_tail(n, 0.5, PC, 1) for n in (50, 100, 200)]
    assert tails == pytest.approx([7.4854e-3, 3.0295e-4, 6.4631e-7], rel=1e-4)


def test_cdf_matches_the_laplace_law_at_unit_shape():
    # Gamma(1) is exponential, so G1 - G2 is standard Laplace
    t = np.linspace(-4.0, 4.0, 17)
    laplace = np.where(t < 0, 0.5 * np.exp(t), 1.0 - 0.5 * np.exp(-t))
    assert np.max(np.abs(density_law_cdf(t, 1.0) - laplace)) < 1e-6


@pytest.mark.parametrize("k", [4.0, 50.0, 100.0, 400.0])
def test_cdf_is_a_symmetric_distribution_function(k):
    t = np.linspace(-8.0, 8.0, 41) * math.sqrt(2.0 * k)
    cdf = density_law_cdf(t, k)
    assert np.all(np.diff(cdf) >= 0)
    assert cdf[0] < 1e-6 and cdf[-1] > 1.0 - 1e-6
    # the law of G1 - G2 is symmetric about 0
    assert np.max(np.abs(cdf + density_law_cdf(-t, k) - 1.0)) < 1e-9


def test_cdf_rejects_nonpositive_shape():
    with pytest.raises(ValueError):
        density_law_cdf(0.0, 0.0)


def test_info_density_tail_inside_binomial_band():
    # family-wise alpha 1e-3 over the two blocklengths, split evenly
    alpha = 1e-3
    trials = 20_000
    scan = info_density_tail([50, 100], 0.5, PC, 1, trials, np.random.default_rng(81))
    for n, estimate in zip(scan.n_values, scan.estimates):
        lo, hi = binom.interval(1.0 - alpha / 2, trials, density_law_tail(n, 0.5, PC, 1))
        assert lo <= estimate * trials <= hi


@pytest.mark.parametrize("constant", [False, True])
def test_pipeline_densities_pass_ks_against_exact_law(constant):
    rng = np.random.default_rng(82)
    trace = EveTrace.random(1, PC.n_tx, 50, rng)
    if constant:
        trace = EveTrace(np.repeat(trace.stacked[:1], 50, axis=0))
    observed = density_law_ks(trace, PC, 4000, rng)
    assert observed <= kolmogi(DENSITY_LAW_ALPHA)
    # the same statistic as scipy's one-sample KS test on the same draws
    dens = np.concatenate(list(_density_chunks(trace, PC, 4000, np.random.default_rng(83))))
    ref = kstest(density_law_stat(dens, 50, 1, PC), lambda t: density_law_cdf(t, 50.0))
    again = density_law_ks(trace, PC, 4000, np.random.default_rng(83))
    assert again == pytest.approx(math.sqrt(4000) * ref.statistic, rel=1e-12)


def test_two_eavesdropper_antennas_follow_the_law():
    rng = np.random.default_rng(84)
    pc = PowerConfig(pbar=10.0, eps_p=0.3, n_tx=3)
    trace = EveTrace.random(2, pc.n_tx, 20, rng)
    assert density_law_ks(trace, pc, 4000, rng) <= kolmogi(DENSITY_LAW_ALPHA)


def test_density_chunks_keep_the_chunk_cap():
    # at most _PANEL signal entries, (blocks, n_tx, n), per chunk
    trace = EveTrace.random(1, PC.n_tx, 8, np.random.default_rng(85))
    sizes = [c.size for c in _density_chunks(trace, PC, 5000, np.random.default_rng(86))]
    step = _PANEL // (PC.n_tx * 8)
    assert sizes == [step, 5000 - step] == [4096, 904]


def test_row_passes_on_the_real_pipeline():
    for seed in range(3):
        res = tail_trend_check(PC, 1, [50, 100], 4000, np.random.default_rng(seed))
        assert res.passed
        assert res.bound == pytest.approx(2.0364, abs=1e-4)


def _wrong_p_prime(orig):
    # p' without the backoff: per-antenna variance p / n_tx instead of
    # p (1 - eps_p) / n_tx
    wrong = PC.p / PC.n_tx + 1.0
    return lambda x, z, trace, p_prime: orig(x, z, trace, wrong)


def _no_artificial_noise(orig):
    # the eavesdropper sees the code alone
    return lambda x, z, trace, p_prime: orig(x, eve_observe(x, trace), trace, p_prime)


@pytest.mark.parametrize("mutant", [_wrong_p_prime, _no_artificial_noise])
def test_row_goes_red_under_mutants(monkeypatch, mutant):
    monkeypatch.setattr(leakage, "_density_bits", mutant(leakage._density_bits))
    for seed in range(3):
        for trials in (2000, 4000):
            res = tail_trend_check(PC, 1, [50, 100], trials, np.random.default_rng(seed))
            assert not res.passed


def test_scaled_state_is_rejected_before_the_row():
    trace = EveTrace.random(1, PC.n_tx, 50, np.random.default_rng(87))
    stack = np.array(trace.stacked)
    stack[0] *= 1.5
    with pytest.raises(InvariantError):
        EveTrace(stack)


# The closed form below is a finite sum; these hold it to the Laplace law
# and to an independent quadrature of the Gamma convolution.


def test_cdf_is_the_laplace_law_at_unit_shape_far_out():
    t = np.linspace(0.0, 30.0, 61)
    tail = 0.5 * np.exp(-t)
    # lower tail at -t and upper tail through the symmetry, both relative
    assert np.max(np.abs(density_law_cdf(-t, 1) / tail - 1.0)) < 1e-12
    assert np.max(np.abs(density_law_cdf(t, 1) / (1.0 - tail) - 1.0)) < 1e-12


def _convolution_upper_tail(t, k):
    """P(G1 - G2 > t) for t >= 0 as adaptive quadrature of
    P(G1 > t + g) f(g) over a window holding all but e^-300 of G2's mass."""
    from scipy.integrate import quad
    from scipy.stats import gamma

    half = 40.0 * math.sqrt(k)
    return quad(
        lambda g: gamma.sf(t + g, k) * gamma.pdf(g, k),
        max(0.0, k - half), k + half,
        points=[k], epsabs=0.0, epsrel=1e-13, limit=200,
    )[0]


@pytest.mark.parametrize("k", [4, 50, 100])
def test_cdf_matches_quadrature_of_the_gamma_convolution(k):
    for t in np.array([0.0, 0.3, 1.0, 3.0, 6.0, 10.0]) * math.sqrt(k):
        ref = _convolution_upper_tail(t, k)
        assert density_law_cdf(-t, k) == pytest.approx(ref, rel=1e-10, abs=0.0)
        assert density_law_cdf(t, k) == pytest.approx(1.0 - ref, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("k", [2.5, 0.5, -3, math.nan, math.inf])
def test_cdf_rejects_a_non_integer_shape(k):
    with pytest.raises(ValueError):
        density_law_cdf(1.0, k)
