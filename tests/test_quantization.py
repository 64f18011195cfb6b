import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from avwiretap import channel, checks, quantization
from avwiretap.channel import EveTrace, complex_normal, random_eve_state
from avwiretap.quantization import (
    _min_n_satisfying,
    check_loglik_perturbation,
    chernoff_exponent,
    grid_log_size,
    loglik_drift_bound,
    perturbation_radii,
    quantize_eve,
    row_error_cap,
    schedule_params,
    truncation_exponent,
    truncation_mass,
    two_stage_overhead,
)


def test_quantize_rounds_to_lattice():
    out = quantize_eve(np.array([[0.3 + 0.6j]]), m=2)
    assert out[0, 0] == 0.5 + 0.5j


def test_quantize_half_away_from_zero():
    out = quantize_eve(np.array([[0.25 - 0.25j]]), m=2)
    assert out[0, 0] == 0.5 - 0.5j


def test_quantize_lattice_points_fixed(rng):
    st = random_eve_state(1, 3, rng)
    once = quantize_eve(st, 10)
    assert np.array_equal(quantize_eve(once, 10), once)


@pytest.mark.parametrize("m", [2, 10, 100])
def test_quantize_row_error_strictly_below_cap(rng, m):
    cap = row_error_cap(m, n_tx=2)
    worst = 0.0
    for _ in range(2_000):
        st = random_eve_state(1, 2, rng)
        err = np.sum(np.abs(st - quantize_eve(st, m)) ** 2, axis=1).max()
        worst = max(worst, float(err))
    assert worst < cap


def test_grid_log_size_examples():
    assert grid_log_size(1, 1, 1, 1) == pytest.approx(2 * math.log(3))
    assert grid_log_size(5, 2, 1, 0) == 0.0
    assert grid_log_size(10, 2, 1, 1) == pytest.approx(4 * math.log(21))


def test_perturbation_radii_example():
    radii = perturbation_radii(p=8.0, n_tx=2, n_eve=1, m=100, eps=0.1)
    assert radii.r_prime == pytest.approx(math.sqrt(32) / 100, abs=1e-9)
    assert radii.r == pytest.approx(math.sqrt(32) / 100 + math.sqrt(1.1), abs=1e-9)


def test_perturbation_radii_limits():
    assert perturbation_radii(8.0, 2, 1, 10**9, 0.1).r_prime == pytest.approx(0.0, abs=1e-7)
    assert perturbation_radii(0.0, 2, 1, 100, 0.1).r_prime == 0.0


def test_loglik_drift_bound_values():
    assert loglik_drift_bound(perturbation_radii(0.0, 2, 1, 100, 0.1)) == pytest.approx(
        math.sqrt(1.1) * 0.0
    )
    hand = perturbation_radii(8.0, 2, 1, 100, 0.1)
    assert loglik_drift_bound(hand) == pytest.approx(0.1282591757935306, abs=1e-9)
    # plain plug-in: r'=0.1, r=1.5
    from avwiretap.quantization import PerturbationRadii

    assert loglik_drift_bound(PerturbationRadii(0.1, 1.5, 0.1)) == pytest.approx(0.31)


def _admissible_instance(rng, n, n_tx, n_eve, p, m):
    trace_a = EveTrace.random(n_eve, n_tx, n, rng)
    grid_states = quantize_eve(trace_a.stacked, m)
    while True:
        x = complex_normal(rng, (n_tx, n), var=p / n_tx)
        if np.sum(np.abs(x) ** 2) / n <= p:
            break
    clean = np.einsum("iet,ti->ei", trace_a.stacked, x)
    z = clean + complex_normal(rng, (n_eve, n))
    return x, z, trace_a, grid_states


def test_perturbation_check_equal_traces(rng):
    x, z, trace_a, _ = _admissible_instance(rng, 8, 2, 1, 8.0, 100)
    res = check_loglik_perturbation(x, z, trace_a, trace_a.stacked, p=8.0, m=100, eps=0.1)
    assert res.applicable and res.holds
    assert res.lhs == pytest.approx(0.0, abs=1e-9)


def test_perturbation_check_coerces_each_operand_once(rng, monkeypatch):
    x, z, trace_a, grid = _admissible_instance(rng, 8, 2, 1, 8.0, 100)
    calls = []
    for module in (channel, quantization):
        def counted(*args, _check=module.as_complex_matrix, **kwargs):
            calls.append(args[0])
            return _check(*args, **kwargs)

        monkeypatch.setattr(module, "as_complex_matrix", counted)
    check_loglik_perturbation(x, z, trace_a, grid, p=8.0, m=100, eps=0.1)
    # x, z and the raw grid; the trace was checked when it was built
    assert len(calls) == 3


def test_perturbation_check_zero_codeword(rng):
    n = 8
    trace_a = EveTrace.random(1, 2, n, rng)
    grid = quantize_eve(trace_a.stacked, 100)
    z = complex_normal(rng, (1, n))
    res = check_loglik_perturbation(np.zeros((2, n)), z, trace_a, grid, p=8.0, m=100, eps=0.1)
    assert res.applicable and res.holds
    assert res.lhs == pytest.approx(0.0, abs=1e-9)


def test_perturbation_check_inadmissible_reported_not_failed(rng):
    n = 4
    trace_a = EveTrace.random(1, 2, n, rng)
    x = np.full((2, n), 10.0)  # blows the power cap at p=1
    z = np.zeros((1, n))
    res = check_loglik_perturbation(x, z, trace_a, trace_a.stacked, p=1.0, m=100, eps=0.1)
    assert not res.applicable and not res.holds
    assert math.isnan(res.lhs)


def test_perturbation_bound_never_violated(rng):
    violations = 0
    applicable = 0
    for _ in range(10_000):
        x, z, trace_a, grid = _admissible_instance(rng, 8, 2, 1, 8.0, 100)
        res = check_loglik_perturbation(x, z, trace_a, grid, p=8.0, m=100, eps=0.1)
        if res.applicable:
            applicable += 1
            violations += not res.holds
    # the residual-radius precondition trims roughly a quarter of the draws
    assert applicable > 6_000
    assert violations == 0


def test_perturbation_scan_draws_inputs_from_the_capped_law(rng, monkeypatch):
    # the scan's inputs are i.i.d. CN(0, v) entries, v = p / n_tx, kept
    # under the cap p: the energy over v of a block is Gamma(k) with
    # k = n_tx n cut at k, whose mean is k P(k + 1, k) / P(k, k)
    instances, n, m, p, n_tx = 2_000, 8, 100, 8.0, 2
    seen = []

    def spy(x, *args, **kwargs):
        seen.append(np.array(x))
        return quantization.check_loglik_perturbation_batch(x, *args, **kwargs)

    monkeypatch.setattr(checks, "check_loglik_perturbation_batch", spy)
    row = checks.perturbation_scan(instances, n, m, p, n_tx, 1, 0.1, rng)
    (x,) = seen
    assert x.shape == (instances, n_tx, n)
    energy = np.sum(np.abs(x) ** 2, axis=(1, 2))
    assert np.all(energy <= p * n)
    k, v = n_tx * n, p / n_tx
    kept = gammainc(k, k)
    mean = v * k * gammainc(k + 1, k) / kept / n
    second = v * v * k * (k + 1) * gammainc(k + 2, k) / kept / (n * n)
    sigma = math.sqrt((second - mean * mean) / instances)
    assert abs(energy.mean() / n - mean) <= 4 * sigma
    assert row.passed  # no violation, on some applicable instances


def test_chernoff_examples():
    assert chernoff_exponent(1.0, "upper") == pytest.approx(1 - math.log(2))
    assert chernoff_exponent(0.5, "lower") == pytest.approx(-0.5 - math.log(0.5))
    assert chernoff_exponent(1e-9, "upper") == pytest.approx(0.0, abs=1e-12)
    assert chernoff_exponent(1e-9, "lower") == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        chernoff_exponent(-0.1, "upper")
    with pytest.raises(ValueError):
        chernoff_exponent(1.5, "lower")
    with pytest.raises(ValueError):
        chernoff_exponent(0.5, "both")


def test_chernoff_bounds_empirical_tail(rng):
    n, eps, trials = 200, 0.3, 1_000_000
    draws = rng.exponential(size=(trials, n)).mean(axis=1)
    emp = np.mean(draws >= 1 + eps)
    bound = math.exp(-n * chernoff_exponent(eps, "upper"))
    assert emp <= bound * (1.0 + 3.0 / math.sqrt(max(emp, 1e-12) * trials))


def test_truncation_mass_exponential_case():
    assert truncation_mass(1, 1, 5.0, 0.0) == pytest.approx(1 - math.exp(-1))


def test_truncation_mass_tightens_with_margin():
    assert truncation_mass(10, 2, 5.0, 0.999) == pytest.approx(1.0, abs=1e-12)


def test_truncation_mass_halving_trend():
    vals = [abs(truncation_mass(n, 1, 3.0, 0.0) - 0.5) for n in (10, 100, 1000)]
    assert vals[0] > vals[1] > vals[2]
    assert truncation_mass(1000, 1, 3.0, 0.0) > 0.5


def test_truncation_mass_degenerate_power():
    with pytest.raises(ValueError):
        truncation_mass(4, 2, 0.0, 0.1)


def test_truncation_mass_matches_mc():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(2, 20))
        n_tx = int(rng.integers(1, 4))
        p = float(rng.uniform(0.5, 10))
        eps_p = float(rng.uniform(0.0, 0.6))
        var = p * (1 - eps_p) / n_tx
        trials = 60_000
        x = complex_normal(rng, (trials, n_tx, n), var=var)
        hit = np.mean(np.sum(np.abs(x) ** 2, axis=(1, 2)) / n <= p)
        mu = truncation_mass(n, n_tx, p, eps_p)
        se = math.sqrt(max(mu * (1 - mu), 1e-12) / trials)
        assert abs(hit - mu) <= 3 * se + 1e-9


def test_truncation_exponent_properties():
    assert truncation_exponent(0.0) == 0.0
    assert truncation_exponent(0.3) > 0.0
    assert truncation_exponent(0.3, n_tx=2) == pytest.approx(2 * truncation_exponent(0.3))
    # the exponent really bounds the rejection probability
    for n in (5, 20, 60):
        reject = 1.0 - truncation_mass(n, 2, 6.0, 0.3)
        assert reject <= math.exp(-n * truncation_exponent(0.3, n_tx=2)) + 1e-12


def test_schedule_params_example_values():
    sp = schedule_params(0.01, 1000, c_prime=0.05, alpha_eps=0.05, alpha_eps_p=0.04,
                         error_exponent=0.5)
    assert sp.eps_n == pytest.approx(math.exp(-10), rel=1e-12)
    assert sp.log_k == pytest.approx(20.0)
    assert sp.log_m == pytest.approx(20.0)
    assert sp.distance_exponent_ok and sp.residual_tail_ok and sp.truncation_tail_ok
    assert sp.decoding_exponent_ok
    assert sp.drift_ok is None


def test_schedule_flags_flip_at_thresholds():
    base = dict(alpha_eps=0.5, alpha_eps_p=0.5, error_exponent=1.0)
    assert schedule_params(0.049, 100, c_prime=0.05, **base).distance_exponent_ok
    assert not schedule_params(0.051, 100, c_prime=0.05, **base).distance_exponent_ok
    assert not schedule_params(0.05, 100, c_prime=0.05, **base).distance_exponent_ok
    sp = schedule_params(0.02, 100, c_prime=1.0, alpha_eps=0.019, alpha_eps_p=0.5,
                         error_exponent=1.0)
    assert not sp.residual_tail_ok
    sp = schedule_params(0.02, 100, c_prime=1.0, alpha_eps=0.5, alpha_eps_p=0.019,
                         error_exponent=1.0)
    assert not sp.truncation_tail_ok
    assert not schedule_params(0.02, 100, c_prime=1.0, alpha_eps=0.5, alpha_eps_p=0.5,
                               error_exponent=0.04).decoding_exponent_ok
    assert schedule_params(0.02, 100, c_prime=1.0, alpha_eps=0.5, alpha_eps_p=0.5,
                           error_exponent=0.0401).decoding_exponent_ok


def test_schedule_growth_and_minimum_blocklength():
    # growth needs n (c' - eps') > 2: threshold at n = 50 for the gap 0.04
    sp_low = schedule_params(0.01, 50, c_prime=0.05, alpha_eps=0.5, alpha_eps_p=0.5,
                             error_exponent=1.0)
    sp_high = schedule_params(0.01, 51, c_prime=0.05, alpha_eps=0.5, alpha_eps_p=0.5,
                              error_exponent=1.0)
    assert not sp_low.growth_ok and sp_high.growth_ok
    assert sp_high.min_feasible_n == 51
    # infeasible exponent ordering leaves no minimal blocklength
    sp_bad = schedule_params(0.06, 50, c_prime=0.05, alpha_eps=0.5, alpha_eps_p=0.5,
                             error_exponent=1.0)
    assert sp_bad.min_feasible_n is None and not sp_bad.growth_ok


def test_schedule_drift_flag():
    pert = (8.0, 2, 1, 0.1)
    big_n = schedule_params(0.05, 400, c_prime=0.5, alpha_eps=0.5, alpha_eps_p=0.5,
                            error_exponent=1.0, perturbation=pert)
    assert big_n.drift_ok is True
    tiny_n = schedule_params(0.05, 2, c_prime=0.5, alpha_eps=0.5, alpha_eps_p=0.5,
                             error_exponent=1.0, perturbation=pert)
    assert tiny_n.drift_ok is False


def test_grid_shrinkage_trend_in_working_regime():
    # with a large enough schedule exponent the net-size term loses to the
    # double-exponential concentration term over moderate blocklengths
    eps_prime = 0.1
    vals = []
    for n in range(50, 501, 50):
        log_m = 2 * eps_prime * n
        vals.append(grid_log_size(math.exp(log_m), 2, 1, n) - math.exp(eps_prime * n))
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0


def test_two_stage_overhead_examples():
    c, n2 = two_stage_overhead(0.01, 1.0)
    assert c == pytest.approx(1.0288539008177793, abs=1e-9)
    assert two_stage_overhead(0.0, 5.0) == (1.0, 0.0)
    assert two_stage_overhead(0.05, 2.0)[1] == pytest.approx(0.07213475204444818, abs=1e-12)
    with pytest.raises(ValueError):
        two_stage_overhead(0.01, 0.0)


def _batch_canonical_states(count, n_eve, n_tx, rng):
    # canonical = orthonormal rows; batched QR is much faster than per-state SVD
    raw = complex_normal(rng, (count, n_tx, n_eve))
    q = np.linalg.qr(raw)[0]  # (count, n_tx, n_eve) with orthonormal columns
    return np.conj(np.transpose(q, (0, 2, 1)))


def test_quantize_error_cap_bulk_invariant(rng):
    count = 100_000
    for n_eve, n_tx in ((1, 2), (2, 3)):
        states = _batch_canonical_states(count // 2, n_eve, n_tx, rng)
        gram = states @ np.conj(np.transpose(states, (0, 2, 1)))
        assert np.max(np.abs(gram - np.eye(n_eve))) < 1e-9
        for m in (2, 10, 100):
            def snap(v):
                return np.sign(v) * np.floor(np.abs(v) * m + 0.5) / m

            snapped = snap(states.real) + 1j * snap(states.imag)
            row_err = np.sum(np.abs(states - snapped) ** 2, axis=2)
            assert float(row_err.max()) < 2.0 * n_tx / m**2


def test_schedule_drift_trivial_without_code_power():
    sp = schedule_params(0.05, 10, c_prime=0.5, alpha_eps=0.5, alpha_eps_p=0.5,
                         error_exponent=1.0, perturbation=(0.0, 2, 1, 0.1))
    assert sp.drift_ok is True


def test_chernoff_lower_bounds_empirical_tail(rng):
    n, eps, trials = 150, 0.25, 400_000
    draws = rng.exponential(size=(trials, n)).mean(axis=1)
    emp = np.mean(draws <= 1 - eps)
    bound = math.exp(-n * chernoff_exponent(eps, "lower"))
    assert emp <= bound * (1.0 + 3.0 / math.sqrt(max(emp, 1e-9) * trials))


def test_schedule_minimum_blocklength_is_tight(rng):
    for _ in range(20):
        eps_prime = float(rng.uniform(0.005, 0.2))
        c_prime = eps_prime + float(rng.uniform(0.005, 0.3))
        sp = schedule_params(eps_prime, 10, c_prime=c_prime, alpha_eps=1.0,
                             alpha_eps_p=1.0, error_exponent=1.0)
        n_min = sp.min_feasible_n
        assert n_min is not None

        def feasible(n):
            probe = schedule_params(eps_prime, n, c_prime=c_prime, alpha_eps=1.0,
                                    alpha_eps_p=1.0, error_exponent=1.0)
            u = 2.0 * eps_prime * n
            net = u > 360 or 2.0 * math.exp(u) + 1.0 <= math.exp(2.0 * u)
            return probe.growth_ok and net

        assert feasible(n_min)
        if n_min > 1:
            assert not feasible(n_min - 1)


def _unit_step_walk(predicate, start, limit=100_000):
    """Reference search: step n by one from ``start`` up to the first n where
    ``predicate`` holds, then down while it still holds one below; None
    where either walk has not settled within ``limit`` steps."""
    n = max(start, 1)
    for _ in range(limit):
        if predicate(n):
            break
        n += 1
    else:
        return None
    for _ in range(limit):
        if n == 1 or not predicate(n - 1):
            return n
        n -= 1
    return None


# the reference walks the same predicate, (c' - eps') n > 2, which is
# monotone in n; the older 2 - c' n < -eps' n cancelled to a few ulps and
# flickered with n when c' / eps' - 1 was below about 1e-5
@settings(max_examples=300, deadline=None)
@given(st.floats(1e-6, 1.0), st.floats(-4.0, 2.0))
# c' = 1.1: (c' - eps') 20 = 2.0000000000000018, so 20 is the exact minimum
@example(eps_prime=1.0, log_gap=-1.0)
def test_schedule_minimum_matches_unit_step_walk(eps_prime, log_gap):
    c_prime = eps_prime * (1.0 + 10.0**log_gap)
    assume(c_prime > eps_prime)

    def growth_at(n):
        return (c_prime - eps_prime) * n > 2.0

    def net_at(n):
        u = 2.0 * eps_prime * n
        return u > 360.0 or 2.0 * math.exp(u) + 1.0 <= math.exp(2.0 * u)

    n_growth = _unit_step_walk(growth_at, int(2.0 / (c_prime - eps_prime)) + 1)
    n_net = _unit_step_walk(
        net_at, max(int(math.log(1.0 + math.sqrt(2.0)) / (2.0 * eps_prime)), 1)
    )
    assume(n_growth is not None and n_net is not None)
    sp = schedule_params(eps_prime, 10, c_prime=c_prime, alpha_eps=1.0,
                         alpha_eps_p=1.0, error_exponent=1.0)
    assert sp.min_feasible_n == max(n_growth, n_net)


@given(st.integers(-5, 10**30), st.integers(-5, 10**30))
def test_min_n_search_finds_threshold_from_any_start(threshold, start):
    assert _min_n_satisfying(lambda n: n >= threshold, start) == max(threshold, 1)
