"""Toy-scale binned wiretap codebooks: truncated-Gaussian sampling, the
two-index labeling, the whitened main-channel decoder, the eavesdropper's
within-bin decoder, and the two-stage (codebook-announcing) encoder.

Codeword counts are deliberately tiny: the leakage estimators in
``leakage`` evaluate exact Gaussian-mixture densities, which is O(count)
work per Monte Carlo sample, so everything here refuses to scale past the
configured caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .channel import (
    DimensionError,
    EveTrace,
    MainChannel,
    PowerConfig,
    as_complex_matrix,
    complex_normal,
    effective_noise_cov,
    eve_observe,
    main_observe,
    transmit,
)
from .quantization import truncation_mass

# Exact-mixture estimators evaluate every codeword per sample.
MIXTURE_CODEWORD_CAP = 2**14
BLOCKLENGTH_CAP = 32

MODES = ("strong", "weak")


class ToyScaleError(ValueError):
    """The request exceeds the exact-mixture toy-scale caps."""


def check_toy_caps(codeword_count: int, n: int) -> None:
    if codeword_count > MIXTURE_CODEWORD_CAP:
        raise ToyScaleError(
            f"{codeword_count} codewords exceed the exact-mixture cap of "
            f"{MIXTURE_CODEWORD_CAP}"
        )
    if n > BLOCKLENGTH_CAP:
        raise ToyScaleError(
            f"blocklength {n} exceeds the exact-mixture cap of {BLOCKLENGTH_CAP}"
        )


@dataclass(frozen=True)
class BinningParams:
    """Blocklength, total rate, and the bin geometry of a binned codebook."""

    n: int
    rate_bits: float
    n_bins: int
    per_bin: int
    delta_n: float
    delta_prime: float
    mode: str

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("blocklength must be >= 1")
        if self.n_bins < 1 or self.per_bin < 1:
            raise ValueError("bin counts must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


def binning_params(
    i_main: float,
    i_eve: float,
    n: int,
    delta_n: float,
    delta_prime: float,
    mode: str = "strong",
) -> BinningParams:
    """Size the bins from the two channel rates.

    Strong mode spends slightly more than the eavesdropper's rate on
    within-bin randomization (saturating its channel drives the conditional
    output law to the unconditional one); weak mode spends slightly less,
    so each bin remains decodable by the eavesdropper and the equivocation
    can be counted through its decoder.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if n < 1:
        raise ValueError("blocklength must be >= 1")
    if delta_n <= 0 or delta_prime <= 0:
        raise ValueError("slack parameters must be positive")
    if i_main <= i_eve + delta_n:
        raise ValueError(
            "no secrecy margin: the main rate must exceed the eavesdropper "
            "rate plus the bin slack"
        )
    if mode == "strong":
        rate = i_main - delta_prime
        bin_exponent = n * (i_eve + delta_n)
    else:
        rate = i_main - 2.0 * delta_n
        bin_exponent = n * (i_eve - delta_n)
    per_bin = max(1, math.ceil(2.0**bin_exponent))
    n_bins = max(1, math.floor(2.0 ** (n * rate) / per_bin))
    return BinningParams(
        n=n,
        rate_bits=rate,
        n_bins=n_bins,
        per_bin=per_bin,
        delta_n=delta_n,
        delta_prime=delta_prime,
        mode=mode,
    )


@dataclass(frozen=True)
class Codebook:
    """Power-capped codewords labeled (bin, within-bin) in row-major order."""

    codewords: np.ndarray  # (count, n_tx, n)
    n_bins: int
    per_bin: int
    mode: str
    pc: PowerConfig

    def __post_init__(self):
        cw = np.asarray(self.codewords, dtype=np.complex128)
        if cw.ndim != 3 or cw.shape[0] != self.n_bins * self.per_bin:
            raise DimensionError("codeword array must be (n_bins * per_bin, n_tx, n)")
        power = np.sum(np.abs(cw) ** 2, axis=(1, 2)) / cw.shape[2]
        if np.any(power > self.pc.p + 1e-9):
            raise ValueError("every codeword must satisfy the power cap")
        object.__setattr__(self, "codewords", cw)

    @property
    def size(self) -> int:
        return self.codewords.shape[0]

    @property
    def n_tx(self) -> int:
        return self.codewords.shape[1]

    @property
    def n(self) -> int:
        return self.codewords.shape[2]

    def codeword(self, i: int, j: int) -> np.ndarray:
        if not 0 <= i < self.n_bins:
            raise ValueError(f"bin index {i} out of range [0, {self.n_bins})")
        if not 0 <= j < self.per_bin:
            raise ValueError(f"within-bin index {j} out of range [0, {self.per_bin})")
        return self.codewords[i * self.per_bin + j]

    def bin_codewords(self, i: int) -> np.ndarray:
        if not 0 <= i < self.n_bins:
            raise ValueError(f"bin index {i} out of range [0, {self.n_bins})")
        return self.codewords[i * self.per_bin : (i + 1) * self.per_bin]


# Memory guard for the sampler itself (the mixture cap is enforced by the
# estimators, not here, so decoder-only experiments may go larger).
SAMPLER_CODEWORD_CAP = 2**18


def sample_codebook(bp: BinningParams, pc: PowerConfig, rng) -> Codebook:
    """Draw a codebook by rejection from the power-capped Gaussian ensemble.

    Each candidate is i.i.d. complex Gaussian at the backed-off per-antenna
    variance and is kept only if its time-averaged energy fits under the
    hard cap; labels are assigned in draw order, filling bin 0 first.
    """
    total = bp.n_bins * bp.per_bin
    if total > SAMPLER_CODEWORD_CAP:
        raise ToyScaleError(
            f"{total} codewords exceed the sampler cap of {SAMPLER_CODEWORD_CAP}"
        )
    if pc.p == 0.0:
        return Codebook(
            codewords=np.zeros((total, pc.n_tx, bp.n), dtype=np.complex128),
            n_bins=bp.n_bins,
            per_bin=bp.per_bin,
            mode=bp.mode,
            pc=pc,
        )
    expected_acceptance = truncation_mass(bp.n, pc.n_tx, pc.p, pc.eps_p)
    if expected_acceptance < 1e-6:
        raise ValueError(
            f"pathological configuration: expected acceptance rate "
            f"{expected_acceptance:.2e} below 1e-6"
        )
    batch = max(256, min(total, 4096))
    kept: list[np.ndarray] = []
    have = 0
    drawn = 0
    while have < total:
        cand = complex_normal(rng, (batch, pc.n_tx, bp.n), var=pc.per_antenna_var)
        ok = np.sum(np.abs(cand) ** 2, axis=(1, 2)) / bp.n <= pc.p
        take = cand[ok]
        kept.append(take)
        have += take.shape[0]
        drawn += batch
        if drawn >= 4_000_000 and have < 1e-6 * drawn:
            raise ValueError(
                f"pathological configuration: observed acceptance rate "
                f"{have / drawn:.2e} below 1e-6"
            )
    codewords = np.concatenate(kept)[:total]
    return Codebook(
        codewords=codewords, n_bins=bp.n_bins, per_bin=bp.per_bin, mode=bp.mode, pc=pc
    )


def encode(w: int, cb: Codebook, rng) -> tuple[np.ndarray, int]:
    """Map message w to a uniformly chosen codeword of bin w."""
    if not 0 <= w < cb.n_bins:
        raise ValueError(f"message {w} out of range [0, {cb.n_bins})")
    j = int(rng.integers(cb.per_bin))
    return cb.codeword(w, j), j


def ml_decode_main(y, ch: MainChannel, cb: Codebook) -> tuple[int, int]:
    """Maximum-likelihood decoding at the legitimate receiver.

    The total noise (thermal plus forwarded artificial noise) is colored,
    so the likelihood is the whitened distance; minimum wins, ties go to
    the smallest label in row-major order.
    """
    y = as_complex_matrix(y)
    if y.shape != (ch.n_rx, cb.n):
        raise DimensionError(f"observation shape {y.shape} != ({ch.n_rx}, {cb.n})")
    if ch.n_tx != cb.n_tx:
        raise DimensionError("channel and codebook disagree on transmit antennas")
    chol = np.linalg.cholesky(effective_noise_cov(ch))
    white_y = solve_triangular(chol, y, lower=True)
    white_h = solve_triangular(chol, ch.h, lower=True)
    clean = np.einsum("rt,ktn->krn", white_h, cb.codewords)
    dists = np.sum(np.abs(white_y[None] - clean) ** 2, axis=(1, 2))
    k = int(np.argmin(dists))
    return divmod(k, cb.per_bin)


def eve_bin_decode(z, i0: int, trace: EveTrace, cb: Codebook) -> int:
    """Within-bin decoding by an eavesdropper who already knows the bin.

    The artificial noise reaches a canonical eavesdropper whitened, so the
    likelihood is the plain distance to each possible clean observation.
    """
    z = as_complex_matrix(z)
    if z.shape != (trace.n_eve, cb.n):
        raise DimensionError(f"observation shape {z.shape} != ({trace.n_eve}, {cb.n})")
    clean = eve_observe(cb.bin_codewords(i0), trace)
    dists = np.sum(np.abs(z[None] - clean) ** 2, axis=(1, 2))
    return int(np.argmin(dists))


def estimate_decode_error(cb: Codebook, trial, trials: int, rng) -> tuple[float, float]:
    """Monte Carlo block-error rate over uniformly drawn labels.

    ``trial(cb, i, j, rng)`` runs one transmission of codeword (i, j) and
    returns True on a decoding error.  Returns the error estimate and its
    binomial standard error.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    errors = 0
    for _ in range(trials):
        i = int(rng.integers(cb.n_bins))
        j = int(rng.integers(cb.per_bin))
        errors += bool(trial(cb, i, j, rng))
    p_hat = errors / trials
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / trials)


def main_channel_trial(ch: MainChannel):
    """Trial closure: full pipeline through the main channel and decoder."""

    def run(cb: Codebook, i: int, j: int, rng) -> bool:
        y = main_observe(transmit(cb.codeword(i, j), rng), ch, rng)
        return ml_decode_main(y, ch, cb) != (i, j)

    return run


def eve_channel_trial(trace: EveTrace):
    """Trial closure: the eavesdropper decodes within a known bin."""

    def run(cb: Codebook, i: int, j: int, rng) -> bool:
        z = eve_observe(transmit(cb.codeword(i, j), rng), trace)
        return eve_bin_decode(z, i, trace, cb) != j

    return run


@dataclass(frozen=True)
class TwoStageEncoding:
    """Outcome of encoding with a public codebook index.

    The index announcement is carried by a conventional rate-r0 code over
    the static main channel, assumed reliable, and costs
    log2(count) / r0 extra channel uses.
    """

    book_index: int
    within_bin: int
    codeword: np.ndarray
    stage2_uses: float


def two_stage_encode(w: int, books, r0: float, rng) -> TwoStageEncoding:
    """Pick one of the prepared codebooks uniformly, then encode w in it."""
    if len(books) < 1:
        raise ValueError("need at least one codebook")
    if r0 <= 0:
        raise ValueError("stage-two rate must be positive")
    k = int(rng.integers(len(books)))
    codeword, j = encode(w, books[k], rng)
    return TwoStageEncoding(
        book_index=k,
        within_bin=j,
        codeword=codeword,
        stage2_uses=math.log2(len(books)) / r0,
    )
