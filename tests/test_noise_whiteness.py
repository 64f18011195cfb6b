"""The whiteness row draws each state's sample covariance of the artificial
noise from its exact complex Wishart law (Bartlett factor) instead of from
the raw noise.  These tests hold it to the raw-noise statistic and to the
exact one-antenna law, and keep the non-canonical control red."""

import numpy as np
import pytest
from scipy.stats import gamma, kstest, ks_2samp

from avwiretap.channel import EveTrace, complex_normal
from avwiretap.checks import noise_whiteness_check

ALPHA = 1e-3


def _raw_noise_statistic(state_mats, samples, rng):
    """The row's statistic from raw noise: max |S - I| over the states,
    S = H N N^H / samples for a fresh (n_tx, samples) block N per state."""
    worst = 0.0
    for ht in state_mats:
        seen = ht @ complex_normal(rng, (ht.shape[1], samples))
        cov = seen @ seen.conj().T / samples
        worst = max(worst, float(np.max(np.abs(cov - np.eye(len(ht))))))
    return worst


@pytest.mark.parametrize("samples", [4, 2000])
def test_wishart_draw_matches_raw_noise_in_law(samples):
    seeds = range(300)
    wishart, raw = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        states = EveTrace.random(2, 3, 10, rng).stacked
        wishart.append(noise_whiteness_check(2, 3, 10, samples, rng, state_mats=states).observed)
        raw.append(_raw_noise_statistic(states, samples, rng))
    assert ks_2samp(wishart, raw).pvalue > ALPHA


def test_one_antenna_statistic_has_its_exact_law():
    # for a unit row h, h W h^H ~ Gamma(samples), so the row observes
    # |G / samples - 1| with G ~ Gamma(samples)
    samples = 6
    observed = []
    for seed in range(400):
        rng = np.random.default_rng(1000 + seed)
        state = EveTrace.random(1, 3, 1, rng).stacked
        observed.append(noise_whiteness_check(1, 3, 1, samples, rng, state_mats=state).observed)

    def cdf(x):
        x = np.asarray(x)
        return gamma.cdf(samples * (1.0 + x), samples) - gamma.cdf(samples * (1.0 - x), samples)

    assert kstest(observed, cdf).pvalue > ALPHA


def test_row_passes_on_canonical_states():
    for seed in range(5):
        assert noise_whiteness_check(2, 3, 10, 100_000, np.random.default_rng(seed)).passed


def test_noncanonical_state_stays_red():
    # the row of the verify negative control: |1.4|^2 = 1.96, so S is about
    # 1.96 and the row observes about 0.96 against the bound 0.05
    bad = [np.array([[1.4, 0.0]], dtype=complex)]
    for seed in range(5):
        res = noise_whiteness_check(1, 2, 1, 20_000, np.random.default_rng(seed), state_mats=bad)
        assert not res.passed
        assert res.observed == pytest.approx(0.96, abs=0.05)


def test_too_few_samples_rejected():
    with pytest.raises(ValueError):
        noise_whiteness_check(2, 3, 1, 2, np.random.default_rng(0))
