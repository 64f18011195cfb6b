import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import chisquare

from avwiretap.channel import EveTrace, MainChannel, PowerConfig
from avwiretap.codebook import (
    BinningParams,
    Codebook,
    ToyScaleError,
    binning_params,
    encode,
    estimate_decode_error,
    eve_bin_decode,
    ml_decode_main,
    sample_codebook,
    two_stage_encode,
)
from avwiretap.quantization import truncation_mass
from avwiretap.rates import main_mutual_info


def test_binning_params_strong_example():
    bp = binning_params(3.1699, 2.3219, n=2, delta_n=0.3, delta_prime=0.1, mode="strong")
    assert bp.per_bin == 38
    assert bp.rate_bits == pytest.approx(3.0699)
    assert bp.n_bins == max(1, math.floor(2 ** (2 * 3.0699) / 38))


def test_binning_params_weak_example():
    bp = binning_params(3.1699, 2.3219, n=2, delta_n=0.3, delta_prime=0.1, mode="weak")
    assert bp.per_bin == 17


def test_binning_params_exact_power_of_two():
    # eavesdropper rate 1 and slack 0.5 make the exponent an integer
    bp = binning_params(4.0, 1.0, n=2, delta_n=0.5, delta_prime=1.0, mode="strong")
    assert bp.per_bin == 8
    assert bp.n_bins == 2 ** (2 * 3) // 8


def test_binning_params_requires_secrecy_margin():
    with pytest.raises(ValueError):
        binning_params(2.0, 1.8, n=4, delta_n=0.3, delta_prime=0.1)
    with pytest.raises(ValueError):
        binning_params(2.0, 1.0, n=4, delta_n=0.3, delta_prime=0.1, mode="fancy")


def _toy_setup(rng, n=4, pbar=6.0, eps_p=0.5, delta_n=0.5, delta_prime=0.25):
    pc = PowerConfig(pbar=pbar, eps_p=eps_p, n_tx=2)
    ch = MainChannel(np.eye(2))
    i_main = main_mutual_info(ch, pc)
    i_eve = math.log2(pc.p_prime)
    bp = binning_params(i_main, i_eve, n=n, delta_n=delta_n, delta_prime=delta_prime)
    return ch, pc, bp, sample_codebook(bp, pc, rng)


def test_sample_codebook_respects_power_cap(rng):
    _, pc, bp, cb = _toy_setup(rng)
    power = np.sum(np.abs(cb.codewords) ** 2, axis=(1, 2)) / cb.n
    assert np.all(power <= pc.p)
    assert cb.size == bp.n_bins * bp.per_bin


def test_sample_codebook_acceptance_matches_truncation_mass(rng):
    # count rejections through the rng stream: acceptance equals the gamma mass
    pc = PowerConfig(pbar=6.0, eps_p=0.5, n_tx=2)
    n, samples = 6, 60_000
    from avwiretap.channel import complex_normal

    draws = complex_normal(rng, (samples, 2, n), var=pc.per_antenna_var)
    accept = np.mean(np.sum(np.abs(draws) ** 2, axis=(1, 2)) / n <= pc.p)
    mu = truncation_mass(n, 2, pc.p, pc.eps_p)
    assert abs(accept - mu) <= 3 * math.sqrt(mu * (1 - mu) / samples)


def test_sample_codebook_truncation_shrinks_energy(rng):
    _, pc, _, cb = _toy_setup(rng, n=2, pbar=8.0, eps_p=0.0)
    per_entry = float(np.mean(np.abs(cb.codewords) ** 2))
    assert per_entry <= pc.per_antenna_var


def test_sample_codebook_zero_power():
    pc = PowerConfig(pbar=1.0, eps_p=0.0, n_tx=2)
    bp = BinningParams(n=3, rate_bits=1.0, n_bins=2, per_bin=2, delta_n=0.1,
                       delta_prime=0.1, mode="strong")
    cb = sample_codebook(bp, pc, None)
    assert np.all(cb.codewords == 0)


def test_sample_codebook_pathological_acceptance_refused(rng):
    # duck-typed config whose sampling variance dwarfs the cap
    fake = SimpleNamespace(p=1.0, eps_p=0.999, n_tx=2, per_antenna_var=50.0)
    bp = BinningParams(n=8, rate_bits=1.0, n_bins=2, per_bin=2, delta_n=0.1,
                       delta_prime=0.1, mode="strong")
    with pytest.raises(ValueError, match="acceptance"):
        sample_codebook(bp, fake, rng)


def test_sampler_refuses_oversized_books(rng):
    pc = PowerConfig(pbar=6.0, eps_p=0.5, n_tx=2)
    bp = BinningParams(n=4, rate_bits=20.0, n_bins=2**10, per_bin=2**10,
                       delta_n=0.1, delta_prime=0.1, mode="strong")
    with pytest.raises(ToyScaleError):
        sample_codebook(bp, pc, rng)


def test_codebook_rejects_over_cap_codewords():
    pc = PowerConfig(pbar=3.0, eps_p=0.0, n_tx=1)
    hot = np.full((1, 1, 2), 10.0, dtype=complex)
    with pytest.raises(ValueError):
        Codebook(codewords=hot, n_bins=1, per_bin=1, mode="strong", pc=pc)


def test_encode_single_codeword_deterministic(rng):
    pc = PowerConfig(pbar=6.0, eps_p=0.5, n_tx=2)
    bp = BinningParams(n=2, rate_bits=1.0, n_bins=2, per_bin=1, delta_n=0.1,
                       delta_prime=0.1, mode="strong")
    cb = sample_codebook(bp, pc, rng)
    cw, j = encode(1, cb, rng)
    assert j == 0
    assert np.array_equal(cw, cb.codeword(1, 0))


def test_encode_out_of_range(rng):
    _, _, _, cb = _toy_setup(rng)
    with pytest.raises(ValueError):
        encode(cb.n_bins, cb, rng)


def test_encode_uniform_within_bin(rng):
    _, _, _, cb = _toy_setup(rng)
    draws = 100_000
    counts = np.zeros(cb.per_bin)
    for _ in range(draws):
        _, j = encode(0, cb, rng)
        counts[j] += 1
    assert chisquare(counts).pvalue > 0.01


def test_encode_matches_table_lookup(rng):
    _, _, _, cb = _toy_setup(rng)
    cw, j = encode(1, cb, rng)
    assert np.array_equal(cw, cb.codewords[1 * cb.per_bin + j])


def test_ml_decode_zero_noise_round_trip(rng, zero_noise):
    ch, _, _, cb = _toy_setup(rng)
    for i in range(min(cb.n_bins, 2)):
        for j in range(min(cb.per_bin, 3)):
            y = ch.h @ cb.codeword(i, j)
            assert ml_decode_main(y, ch, cb) == (i, j)


def test_ml_decode_high_snr_error_rate(rng):
    # strong gains and few codewords: block errors should be very rare
    ch = MainChannel(8.0 * np.eye(2))
    pc = PowerConfig(pbar=102.0, eps_p=0.0, n_tx=2)
    bp = BinningParams(n=6, rate_bits=0.5, n_bins=4, per_bin=2, delta_n=0.1,
                       delta_prime=0.1, mode="strong")
    cb = sample_codebook(bp, pc, rng)
    err, _ = estimate_decode_error(cb, ch, 2000, rng)
    assert err < 1e-3


def test_ml_decode_error_grows_above_channel_rate(rng):
    # hold the codebook rate above the channel rate and watch errors blow up
    pc = PowerConfig(pbar=2.6, eps_p=0.0, n_tx=2)
    ch = MainChannel(np.eye(2))
    assert main_mutual_info(ch, pc) < 0.875
    errs = []
    for n, trials in ((4, 300), (8, 300), (16, 120)):
        n_bins = max(1, math.floor(2 ** (n * 0.875) / 2))
        bp = BinningParams(n=n, rate_bits=0.875, n_bins=n_bins, per_bin=2,
                           delta_n=0.1, delta_prime=0.1, mode="strong")
        cb = sample_codebook(bp, pc, rng)
        errs.append(estimate_decode_error(cb, ch, trials, rng)[0])
    assert errs[0] < errs[2]
    assert errs[2] > 0.7


def test_eve_bin_decode_trivial_cases(rng):
    pc = PowerConfig(pbar=6.0, eps_p=0.5, n_tx=2)
    bp = BinningParams(n=3, rate_bits=1.0, n_bins=2, per_bin=1, delta_n=0.1,
                       delta_prime=0.1, mode="weak")
    cb = sample_codebook(bp, pc, rng)
    trace = EveTrace.random(1, 2, 3, rng)
    z = np.einsum("iet,ti->ei", trace.stacked, cb.codeword(1, 0))
    assert eve_bin_decode(z, 1, trace, cb) == 0


def test_eve_bin_decode_exact_observation_recovers_index(rng):
    _, _, _, cb = _toy_setup(rng)
    trace = EveTrace.random(1, 2, cb.n, rng)
    j_star = cb.per_bin - 1
    z = np.einsum("iet,ti->ei", trace.stacked, cb.codeword(0, j_star))
    assert eve_bin_decode(z, 0, trace, cb) == j_star


def test_eve_bin_error_falls_as_blocklength_grows(rng):
    # within-bin rate held below the eavesdropper capacity: its fictitious
    # decoder gets better with blocklength
    pc = PowerConfig(pbar=4.0, eps_p=0.0, n_tx=2)
    means = []
    for n in (4, 8, 16):
        per_bin = math.ceil(2 ** (n * 0.6))
        bp = BinningParams(n=n, rate_bits=0.6, n_bins=1, per_bin=per_bin,
                           delta_n=0.4, delta_prime=0.1, mode="weak")
        trace = EveTrace.random(1, 2, n, rng)
        errs = [
            estimate_decode_error(sample_codebook(bp, pc, rng), trace, 300, rng)[0]
            for _ in range(6)
        ]
        means.append(float(np.mean(errs)))
    assert means[0] > means[1] > means[2]


def test_estimate_decode_error_zero_noise(zero_noise, rng):
    ch, _, _, cb = _toy_setup(rng)
    for link in (ch, EveTrace.random(1, 2, cb.n, rng)):
        err, se = estimate_decode_error(cb, link, 50, zero_noise)
        assert err == 0.0 and se == 0.0


def test_estimate_decode_error_single_codeword(rng):
    pc = PowerConfig(pbar=6.0, eps_p=0.5, n_tx=2)
    bp = BinningParams(n=2, rate_bits=0.5, n_bins=1, per_bin=1, delta_n=0.1,
                       delta_prime=0.1, mode="strong")
    cb = sample_codebook(bp, pc, rng)
    ch = MainChannel(np.eye(2))
    err, _ = estimate_decode_error(cb, ch, 50, rng)
    assert err == 0.0


def test_estimate_decode_error_brackets_high_precision_rerun(rng):
    ch, _, _, cb = _toy_setup(rng, pbar=5.0)
    hits = 0
    for _ in range(20):
        a, se_a = estimate_decode_error(cb, ch, 250, rng)
        b, se_b = estimate_decode_error(cb, ch, 2500, rng)
        hits += abs(a - b) <= 3 * math.hypot(se_a, se_b)
    assert hits >= 18


def test_two_stage_single_book_reduces_to_encode(rng):
    _, _, _, cb = _toy_setup(rng)
    out = two_stage_encode(0, [cb], r0=1.0, rng=rng)
    assert out.book_index == 0
    assert out.stage2_uses == 0.0
    assert np.array_equal(out.codeword, cb.codeword(0, out.within_bin))


def test_two_stage_uniform_book_choice(rng):
    _, pc, bp, _ = _toy_setup(rng, n=2)
    books = [sample_codebook(bp, pc, rng) for _ in range(8)]
    counts = np.zeros(8)
    for _ in range(100_000):
        counts[two_stage_encode(0, books, 1.0, rng).book_index] += 1
    assert chisquare(counts).pvalue > 0.01


def test_two_stage_declared_overhead(rng):
    _, pc, bp, _ = _toy_setup(rng, n=2)
    books = [sample_codebook(bp, pc, rng) for _ in range(8)]
    out = two_stage_encode(0, books, r0=1.5, rng=rng)
    assert out.stage2_uses == pytest.approx(3.0 / 1.5)


def test_sample_codebook_seeded_determinism():
    pc = PowerConfig(pbar=6.0, eps_p=0.5, n_tx=2)
    bp = BinningParams(n=4, rate_bits=1.0, n_bins=2, per_bin=8, delta_n=0.5,
                       delta_prime=0.25, mode="strong")
    books = [sample_codebook(bp, pc, np.random.default_rng(123)) for _ in range(2)]
    assert np.array_equal(books[0].codewords, books[1].codewords)


def test_two_stage_mixture_distance_matches_per_book_average(rng):
    # the announced-index scheme leaks exactly the per-book average distance
    from avwiretap.leakage import estimate_variational_distance

    _, pc, bp, _ = _toy_setup(rng, n=2)
    books = [sample_codebook(bp, pc, rng) for _ in range(4)]
    per_book = [
        estimate_variational_distance(cb, EveTrace.random(1, 2, 2, np.random.default_rng(5)),
                                      [0], 3000, rng)
        for cb in books
    ]
    averaged = float(np.mean([e.d_hat for e in per_book]))
    # direct mixture estimate: book index drawn uniformly per sample
    trace = EveTrace.random(1, 2, 2, np.random.default_rng(5))
    vals = []
    for _ in range(60):
        k = two_stage_encode(0, books, 1.0, rng).book_index
        est = estimate_variational_distance(books[k], trace, [0], 50, rng)
        vals.append(est.d_hat)
    mixture = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
    combined = math.hypot(se, float(np.mean([e.stderr for e in per_book])))
    assert abs(mixture - averaged) <= 3 * combined
