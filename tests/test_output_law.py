"""The output-invariance row tests the eavesdropper output against its exact
law: with Gaussian input and unit artificial noise, every canonical state
sequence gives i.i.d. CN(0, p' I) uses.  These tests hold its four raw
p-values to the uniform law under that law, hold its Erlang CDF and its KS
statistic to scipy, and show its power against broken pipelines that a
two-sample comparison of two traces cannot see."""

import math

import numpy as np
import pytest
from scipy.special import gammaincc, kolmogorov
from scipy.stats import gamma, kstest

from avwiretap import checks
from avwiretap.channel import PowerConfig, eve_observe, transmit
from avwiretap.checks import DENSITY_LAW_ALPHA, output_invariance_check
from avwiretap.leakage import _erlang_cdf, _ks_scaled

# verify's configuration (one eavesdropper antenna) and criterion 6's (two)
VERIFY = (PowerConfig(pbar=6.0, eps_p=0.5, n_tx=2), 1)
CRITERION_6 = (PowerConfig(pbar=10.0, eps_p=0.0, n_tx=3), 2)


def _recorded(fn, out):
    def wrapper(*args):
        out.append(fn(*args))
        return out[-1]
    return wrapper


@pytest.mark.parametrize("config", [VERIFY, CRITERION_6])
def test_raw_p_values_are_uniform_under_the_exact_law(monkeypatch, config):
    pc, n_eve = config
    ks, cov = [], []
    monkeypatch.setattr(checks, "kolmogorov", _recorded(kolmogorov, ks))
    monkeypatch.setattr(checks, "gammaincc", _recorded(gammaincc, cov))
    for seed in range(200):
        res = output_invariance_check(pc, n_eve, 4, 2000, np.random.default_rng(seed))
        assert res.observed == min(1.0, 4 * min(ks[-2:] + cov[-2:]))
        assert res.bound == DENSITY_LAW_ALPHA
        assert res.passed == (res.observed > DENSITY_LAW_ALPHA)
    # the two traces of one seed are independent: 400 draws of each p-value
    assert len(ks) == len(cov) == 400
    assert kstest(ks, "uniform").pvalue > 1e-3
    assert kstest(cov, "uniform").pvalue > 1e-3


@pytest.mark.parametrize("k", [1, 2, 5])
def test_erlang_cdf_and_ks_statistic_match_scipy(k):
    t = np.sort(np.random.default_rng(k).gamma(k, size=500))
    cdf = _erlang_cdf(t, k)
    assert np.max(np.abs(cdf - gamma.cdf(t, k))) < 1e-14
    ref = kstest(t, lambda x: gamma.cdf(x, k)).statistic
    assert _ks_scaled(cdf) == pytest.approx(math.sqrt(t.size) * ref, rel=1e-12)


def _no_artificial_noise(monkeypatch, n_eve):
    monkeypatch.setattr(checks, "transmit", lambda x, rng: x)


def _inputs_scaled(monkeypatch, n_eve):
    # every transmitted block (code plus artificial noise) 2% too strong
    monkeypatch.setattr(checks, "transmit", lambda x, rng: 1.02 * transmit(x, rng))


def _correlated_outputs(monkeypatch, n_eve):
    # correlation 0.05 between the eavesdropper's two antennas, unit variances
    mix = np.array([[1.0, 0.0], [0.05, math.sqrt(1.0 - 0.05**2)]])
    monkeypatch.setattr(checks, "eve_observe", lambda x, trace: mix @ eve_observe(x, trace))


def _zero_output(monkeypatch, n_eve):
    monkeypatch.setattr(checks, "eve_observe",
                        lambda x, trace: np.zeros((x.shape[0], n_eve, x.shape[-1]), complex))


@pytest.mark.parametrize("mutant, config", [
    (_no_artificial_noise, VERIFY),
    (_inputs_scaled, VERIFY),
    (_correlated_outputs, CRITERION_6),
    (_zero_output, VERIFY),
])
def test_row_goes_red_under_mutants(monkeypatch, mutant, config):
    pc, n_eve = config
    mutant(monkeypatch, n_eve)
    for seed in range(5):
        # verify light's sample count
        res = output_invariance_check(pc, n_eve, 4, 20_000, np.random.default_rng(seed))
        assert not res.passed
        assert res.observed < DENSITY_LAW_ALPHA

