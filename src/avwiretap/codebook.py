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
# Memory guard for the sampler itself (the mixture cap is enforced by the
# estimators, not here, so decoder-only experiments may go larger).
SAMPLER_CODEWORD_CAP = 2**18

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
    # the count is at least max(per_bin, 2^(n rate) / 2): refuse from the
    # exponents before 2^(n rate) can overflow, then from the count itself
    too_many = f"binning needs over {SAMPLER_CODEWORD_CAP} codewords, the sampler cap"
    if max(bin_exponent, n * rate - 1) > math.log2(SAMPLER_CODEWORD_CAP):
        raise ToyScaleError(too_many)
    per_bin = max(1, math.ceil(2.0**bin_exponent))
    n_bins = max(1, math.floor(2.0 ** (n * rate) / per_bin))
    if n_bins * per_bin > SAMPLER_CODEWORD_CAP:
        raise ToyScaleError(too_many)
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


# Rows (decoder trials or mixture samples) per pairwise-distance product,
# so no batch builds a (rows, centers) matrix taller than this.
_SAMPLE_BATCH = 512


def _pairwise_sqdist(z_flat: np.ndarray, centers_flat: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of z_flat and of centers_flat."""
    zn = np.sum(np.abs(z_flat) ** 2, axis=1)[:, None].real
    cn = np.sum(np.abs(centers_flat) ** 2, axis=1)[None, :].real
    cross = (z_flat @ centers_flat.conj().T).real
    return np.maximum(zn + cn - 2.0 * cross, 0.0)


def _nearest(z_flat: np.ndarray, centers_flat: np.ndarray) -> np.ndarray:
    """Index of the nearest center per row, ties to the smallest index; the
    expanded distance rounds differently per center, even for equal centers,
    so distances within 1e-12 of the squared norms count as tied."""
    c_max = np.max(np.sum(np.abs(centers_flat) ** 2, axis=1))
    out = []
    for s in range(0, z_flat.shape[0], _SAMPLE_BATCH):
        z = z_flat[s : s + _SAMPLE_BATCH]
        d = _pairwise_sqdist(z, centers_flat)
        slack = 1e-12 * (np.sum(np.abs(z) ** 2, axis=1) + c_max)
        out.append(np.argmax(d <= (d.min(axis=1) + slack)[:, None], axis=1))
    return np.concatenate(out)


def ml_decode_main(y, ch: MainChannel, cb: Codebook):
    """Maximum-likelihood decoding at the legitimate receiver.

    The total noise (thermal plus forwarded artificial noise) is colored,
    so the likelihood is the whitened distance; minimum wins, ties go to
    the smallest label in row-major order.  One observation (n_rx, n)
    gives the label (i, j); a batch (..., n_rx, n) gives arrays i and j.
    """
    y = as_complex_matrix(y, stacked=True)
    if y.shape[-2:] != (ch.n_rx, cb.n):
        raise DimensionError(f"observation shape {y.shape} != (..., {ch.n_rx}, {cb.n})")
    if ch.n_tx != cb.n_tx:
        raise DimensionError("channel and codebook disagree on transmit antennas")
    chol = np.linalg.cholesky(effective_noise_cov(ch))
    whiten = solve_triangular(chol, np.eye(ch.n_rx), lower=True)
    clean = (whiten @ ch.h @ cb.codewords).reshape(cb.size, -1)
    k = _nearest((whiten @ y).reshape(-1, clean.shape[1]), clean).reshape(y.shape[:-2])
    return divmod(int(k), cb.per_bin) if y.ndim == 2 else np.divmod(k, cb.per_bin)


def eve_bin_decode(z, i0, trace: EveTrace, cb: Codebook):
    """Within-bin decoding by an eavesdropper who already knows the bin.

    The artificial noise reaches a canonical eavesdropper whitened, so the
    likelihood is the plain distance to each possible clean observation.
    One observation (n_eve, n) gives an int; a batch (..., n_eve, n) with
    one bin or a bin per observation gives an array.
    """
    z = as_complex_matrix(z, stacked=True)
    if z.shape[-2:] != (trace.n_eve, cb.n):
        raise DimensionError(
            f"observation shape {z.shape} != (..., {trace.n_eve}, {cb.n})"
        )
    bins = np.broadcast_to(i0, z.shape[:-2]).reshape(-1)
    z_flat = z.reshape(bins.size, -1)
    out = np.empty(bins.size, dtype=np.intp)
    for b in np.unique(bins):
        rows = bins == b
        clean = eve_observe(cb.bin_codewords(int(b)), trace).reshape(cb.per_bin, -1)
        out[rows] = _nearest(z_flat[rows], clean)
    return int(out[0]) if z.ndim == 2 else out.reshape(z.shape[:-2])


def estimate_decode_error(
    cb: Codebook, link: MainChannel | EveTrace, trials: int, rng
) -> tuple[float, float]:
    """Monte Carlo block-error rate over uniformly drawn labels.

    Through a ``MainChannel`` the legitimate receiver decodes the full
    label; through an ``EveTrace`` the eavesdropper decodes the within-bin
    index knowing the bin.  All trials run as one batch.  Returns the error
    estimate and its binomial standard error.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    w = rng.integers(cb.n_bins, size=trials)
    j = rng.integers(cb.per_bin, size=trials)
    x = transmit(cb.codewords[w * cb.per_bin + j], rng)
    if isinstance(link, MainChannel):
        w_hat, j_hat = ml_decode_main(main_observe(x, link, rng), link, cb)
        wrong = (w_hat != w) | (j_hat != j)
    elif isinstance(link, EveTrace):
        wrong = eve_bin_decode(eve_observe(x, link), w, link, cb) != j
    else:
        raise TypeError("link must be a MainChannel or an EveTrace")
    p_hat = int(np.count_nonzero(wrong)) / trials
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / trials)


def codebook_ensemble(bp: BinningParams, pc: PowerConfig, books: int, rng, stat):
    """Mean and standard error, std(ddof=1) / sqrt(books), of ``stat(codebook)``
    (a number or a tuple of numbers) across ``books`` fresh codebooks."""
    vals = np.array([stat(sample_codebook(bp, pc, rng)) for _ in range(books)], dtype=float)
    return vals.mean(axis=0), vals.std(axis=0, ddof=1) / math.sqrt(books)


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
