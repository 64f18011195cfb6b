import warnings

import numpy as np
import pytest

from avwiretap import channel
from avwiretap.channel import (
    DimensionError,
    EveTrace,
    InvariantError,
    MainChannel,
    PowerConfig,
    RankError,
    canonicalize_eve,
    complex_normal,
    eve_observe,
    effective_noise_cov,
    main_observe,
    random_eve_state,
    random_full_rank_channel,
    transmit,
)
from avwiretap.codebook import Codebook, eve_bin_decode, ml_decode_main
from avwiretap.quantization import quantize_eve


def test_reduce_rank_deficient_raises():
    h = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    with pytest.raises(RankError):
        MainChannel(h)


def test_canonicalize_identity_block_unchanged():
    h = np.hstack([np.eye(2), np.zeros((2, 1))])
    st = canonicalize_eve(h)
    assert np.array_equal(st, h.astype(complex))


def test_canonicalize_scaled_row():
    st = canonicalize_eve([[5.0, 0.0]])
    assert np.allclose(st, [[1.0, 0.0]])


def test_canonicalize_zero_matrix_substitutes_unit_row():
    st = canonicalize_eve(np.zeros((1, 2)))
    assert np.allclose(st, [[1.0, 0.0]])


def test_canonicalize_rank_deficient_keeps_row_space(rng):
    row = complex_normal(rng, (1, 3))
    h = np.vstack([row, 2.0 * row])  # rank 1, two rows
    st = canonicalize_eve(h)
    gram = st @ st.conj().T
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-9
    # original rows must be reachable from the canonical rows
    coef = row @ st.conj().T
    assert np.allclose(coef @ st, row)


def test_canonicalize_orthonormality_over_random_draws(rng):
    for _ in range(200):
        n_tx = int(rng.integers(1, 5))
        n_eve = int(rng.integers(1, n_tx + 1))
        st = canonicalize_eve(complex_normal(rng, (n_eve, n_tx)))
        gram = st @ st.conj().T
        assert np.max(np.abs(gram - np.eye(n_eve))) <= 1e-9


# parts past about 1e154 overflow a Gram matrix or an SVD unless scaled first
EXTREME_STATES = [
    [[1.5e308 + 1.5e308j, -1.7e308, 0], [1e308, 1e308j, 1.2e308]],
    [[1.5e308 + 1.5e308j, -1.7e308]],
    [[1e200, 2e200j]],
    [[3e-320, 1e-320j], [0, 2e-320]],
]


@pytest.mark.parametrize("h", EXTREME_STATES)
def test_canonicalize_extreme_entries_span_their_rows(h):
    h = np.array(h, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st = canonicalize_eve(h)
    assert st.shape == h.shape and np.all(np.isfinite(st))
    assert np.max(np.abs(st @ st.conj().T - np.eye(len(h)))) <= 1e-9
    exp = -np.frexp(np.max(np.abs(h.view(float))))[1]
    rows = np.ldexp(h.real, exp) + 1j * np.ldexp(h.imag, exp)  # exact, |entries| < 1
    assert np.max(np.abs(rows - (rows @ st.conj().T) @ st)) <= 1e-12


def test_canonicalize_too_many_rows_raises():
    with pytest.raises(DimensionError):
        canonicalize_eve(np.ones((3, 2)))


def test_eve_state_rejects_non_canonical():
    with pytest.raises(InvariantError):
        EveTrace.constant([[2.0, 0.0]], 1)


def test_transmit_zero_noise_stub(zero_noise):
    x = np.arange(6, dtype=float).reshape(2, 3)
    out = transmit(x, zero_noise)
    assert np.array_equal(out, x.astype(complex))


def test_transmit_noise_moments(rng):
    x = np.zeros((2, 100_000))
    out = transmit(x, rng)
    var = np.mean(np.abs(out) ** 2)
    assert abs(var - 1.0) < 0.05
    cov = out @ out.conj().T / out.shape[1]
    assert np.max(np.abs(cov - np.eye(2))) < 0.05


def test_main_observe_pure_noise_variance(rng):
    ch = MainChannel(np.array([[0.7, 0.2], [0.1, 1.3]]))
    y = main_observe(np.zeros((2, 100_000)), ch, rng)
    assert abs(np.mean(np.abs(y) ** 2) - 1.0) < 0.05


def test_main_observe_zero_noise_exact(zero_noise, rng):
    ch = MainChannel(complex_normal(rng, (3, 2)))
    x = complex_normal(rng, (2, 5))
    assert np.allclose(main_observe(x, ch, zero_noise), ch.h @ x)


def test_main_observe_received_power(rng):
    ch = MainChannel(np.eye(2))
    p = 6.0
    x = complex_normal(rng, (2, 100_000), var=p / 2)
    y = main_observe(x, ch, rng)
    power = np.mean(np.sum(np.abs(y) ** 2, axis=0))
    assert abs(power - (p + 2.0)) < 0.05 * (p + 2.0)


def test_main_observe_dimension_mismatch(rng):
    ch = MainChannel(np.eye(2))
    with pytest.raises(DimensionError):
        main_observe(np.zeros((3, 4)), ch, rng)


def test_eve_observe_zero_signal():
    trace = EveTrace.constant(np.array([[1.0, 0.0]]), 4)
    assert np.array_equal(eve_observe(np.zeros((2, 4)), trace), np.zeros((1, 4)))


def test_eve_observe_constant_trace_hand_product():
    trace = EveTrace.constant(np.array([[1.0, 0.0]]), 1)
    x = np.array([[2.0 + 1.0j], [3.0]])
    assert np.allclose(eve_observe(x, trace), [[2.0 + 1.0j]])


def test_eve_observe_time_varying_uses_per_column_state(rng):
    trace = EveTrace.random(2, 3, 5, rng)
    x = complex_normal(rng, (3, 5))
    out = eve_observe(x, trace)
    for i in range(trace.n):
        assert np.allclose(out[:, i], trace.stacked[i] @ x[:, i])


def test_eve_observe_length_mismatch(rng):
    trace = EveTrace.random(1, 2, 3, rng)
    with pytest.raises(DimensionError):
        eve_observe(np.zeros((2, 4)), trace)


def test_effective_noise_cov_identity():
    assert np.allclose(effective_noise_cov(MainChannel(np.eye(2))), 2 * np.eye(2))


def test_effective_noise_cov_diagonal():
    cov = effective_noise_cov(MainChannel(np.diag([3.0, 2.0])))
    assert np.allclose(cov, np.diag([10.0, 5.0]))


def test_effective_noise_cov_matches_simulation(rng):
    ch = MainChannel(complex_normal(rng, (2, 3)))
    n = complex_normal(rng, (3, 200_000))
    z = complex_normal(rng, (2, 200_000))
    total = ch.h @ n + z
    emp = total @ total.conj().T / total.shape[1]
    assert np.max(np.abs(emp - effective_noise_cov(ch))) < 0.1


def test_artificial_noise_is_white_at_eavesdropper(rng):
    # empirical covariance of ht @ n over many draws stays near identity
    for _ in range(10):
        st = random_eve_state(2, 3, rng)
        noise = complex_normal(rng, (3, 100_000))
        seen = st @ noise
        cov = seen @ seen.conj().T / seen.shape[1]
        assert np.max(np.abs(cov - np.eye(2))) < 0.05


def test_output_distribution_invariant_across_canonical_states(rng):
    # coded signal plus artificial noise looks identical through any
    # canonical state: isotropic Gaussian with per-component variance p'
    pc = PowerConfig(pbar=10.0, eps_p=0.0, n_tx=3)
    samples = 100_000
    norms = []
    for _ in range(2):
        st = random_eve_state(2, 3, rng)
        x = complex_normal(rng, (3, samples), var=pc.per_antenna_var)
        y = st @ (x + complex_normal(rng, (3, samples)))
        cov = y @ y.conj().T / samples
        # covariance entries fluctuate at roughly p' / sqrt(samples)
        assert np.max(np.abs(cov - pc.p_prime * np.eye(2))) < 5 * pc.p_prime / np.sqrt(samples)
        norms.append(np.sum(np.abs(y) ** 2, axis=0))
    # squared-norm laws agree: compare means at 3 sigma
    m = [np.mean(v) for v in norms]
    se = [np.std(v) / np.sqrt(samples) for v in norms]
    assert abs(m[0] - m[1]) <= 3 * np.hypot(*se)


def test_power_config_derived_fields():
    pc = PowerConfig(pbar=10.0, eps_p=0.5, n_tx=2)
    assert pc.p == 8.0
    assert pc.per_antenna_var == pytest.approx(2.0)
    assert pc.p_prime == pytest.approx(3.0)
    assert PowerConfig(pbar=1.0, eps_p=0.0, n_tx=2).p == 0.0


def test_power_config_validation():
    with pytest.raises(ValueError):
        PowerConfig(pbar=-1.0, eps_p=0.0, n_tx=2)
    with pytest.raises(ValueError):
        PowerConfig(pbar=1.0, eps_p=1.0, n_tx=2)
    with pytest.raises(ValueError):
        PowerConfig(pbar=1.0, eps_p=0.0, n_tx=0)


def test_seeded_determinism():
    ch = MainChannel(np.eye(2))
    x = np.ones((2, 16))
    outs = []
    for _ in range(2):
        r = np.random.default_rng(7)
        outs.append(main_observe(transmit(x, r), ch, r))
    assert np.array_equal(outs[0], outs[1])
    traces = [EveTrace.random(1, 2, 4, np.random.default_rng(3)) for _ in range(2)]
    assert np.array_equal(traces[0].stacked, traces[1].stacked)


def test_random_full_rank_channel_runs_one_svd_per_draw(monkeypatch):
    draw, svd = channel.complex_normal, np.linalg.svd
    draws, svds = [], []
    monkeypatch.setattr(channel, "complex_normal", lambda *a: draws.append(a) or draw(*a))
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(a) or svd(*a, **k))
    ch = random_full_rank_channel(3, 3, np.random.default_rng(5), max_condition=3.0)
    monkeypatch.undo()
    assert len(draws) > 1  # the bound refused some draws
    assert len(svds) == len(draws)
    # the channel is the stream's first draw within the condition bound
    rng = np.random.default_rng(5)
    while True:
        h = complex_normal(rng, (3, 3))
        s = np.linalg.svd(h, compute_uv=False)
        if s[0] / s[-1] <= 3.0:
            break
    assert np.array_equal(ch.h, h)
    assert np.array_equal(ch.singular_values, s)


# every entry point that coerces its matrix through ``as_complex_matrix``:
# (shape of a valid input, the call on an input ``a``)
_GUARDED = {
    "transmit": ((2, 3), lambda a, env: transmit(a, env["rng"])),
    "main_observe": ((2, 3), lambda a, env: main_observe(a, env["ch"], env["rng"])),
    "eve_observe": ((2, 3), lambda a, env: eve_observe(a, env["trace"])),
    "canonicalize_eve": ((1, 2), lambda a, env: canonicalize_eve(a)),
    "quantize_eve": ((1, 2), lambda a, env: quantize_eve(a, 4)),
    "ml_decode_main": ((2, 3), lambda a, env: ml_decode_main(a, env["ch"], env["cb"])),
    "eve_bin_decode": ((1, 3), lambda a, env: eve_bin_decode(a, 0, env["trace"], env["cb"])),
    "MainChannel": ((2, 2), lambda a, env: MainChannel(a)),
}


def _bad_input(kind, shape):
    a = np.eye(*shape, dtype=complex)
    if kind == "nan":
        a[0, 0] = np.nan
    elif kind == "inf":
        a[-1, -1] = complex(0.0, np.inf)
    elif kind == "1-d":
        a = a[0]
    elif kind == "empty":
        a = a[:, :0]
    else:  # a stack of two valid matrices
        a = np.stack([a, a])
    return a


@pytest.mark.parametrize(
    "name, kind, error",
    [(name, kind, error) for name in _GUARDED
     for kind, error in (("nan", InvariantError), ("inf", InvariantError),
                         ("1-d", DimensionError), ("empty", DimensionError))]
    + [("MainChannel", "stack", DimensionError)],
)
def test_matrix_inputs_refuse_nonfinite_and_misshaped_arrays(rng, name, kind, error):
    pc = PowerConfig(pbar=6.0, eps_p=0.5, n_tx=2)
    env = {
        "rng": rng,
        "ch": MainChannel(np.eye(2)),
        "trace": EveTrace.random(1, 2, 3, rng),
        "cb": Codebook(codewords=complex_normal(rng, (4, 2, 3)), n_bins=2, per_bin=2, pc=pc),
    }
    shape, call = _GUARDED[name]
    call(np.eye(*shape, dtype=complex), env)  # the valid input passes
    with pytest.raises(error):
        call(_bad_input(kind, shape), env)
