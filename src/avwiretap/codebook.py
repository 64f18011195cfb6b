"""Toy-scale binned wiretap codebooks: truncated-Gaussian sampling, the
two-index labeling, the whitened main-channel decoder and the eavesdropper's
within-bin decoder.

Codeword counts are deliberately tiny: the leakage estimators in
``leakage`` evaluate exact Gaussian-mixture densities, which is O(count)
work per Monte Carlo sample, so everything here refuses to scale past the
configured caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
# Complex entries per rejection draw of the sampler (16 MB).
_CANDIDATE_ELEMENTS = 2**20

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
    codewords = np.empty((total, pc.n_tx, bp.n), dtype=np.complex128)
    have = 0
    drawn = 0
    while have < total:
        # enough candidates for the rows still missing at the expected
        # rate, at most _CANDIDATE_ELEMENTS complex entries per draw
        need = math.ceil(1.02 * (total - have) / expected_acceptance) + 16
        batch = max(256, min(need, _CANDIDATE_ELEMENTS // (pc.n_tx * bp.n)))
        cand = complex_normal(rng, (batch, pc.n_tx, bp.n), var=pc.per_antenna_var)
        energy = np.sum(cand.view(np.float64).reshape(batch, -1) ** 2, axis=1)
        take = cand[energy / bp.n <= pc.p][: total - have]
        codewords[have : have + take.shape[0]] = take
        have += take.shape[0]
        drawn += batch
        if drawn >= 4_000_000 and have < 1e-6 * drawn:
            raise ValueError(
                f"pathological configuration: observed acceptance rate "
                f"{have / drawn:.2e} below 1e-6"
            )
    return Codebook(
        codewords=codewords, n_bins=bp.n_bins, per_bin=bp.per_bin, mode=bp.mode, pc=pc
    )


# Rows (decoder trials or mixture samples) per batch.
_SAMPLE_BATCH = 512
# Float64 entries (512 KB) of the one distance buffer that ``_binned_lse``
# streams the centers through, so a panel stays in L2 from its GEMM through
# its exp to its per-bin sum; also its bound on the underflow fallback.
_PANEL = 2**16
# Float64 entries (8 MB) of a decoder's distance buffer.
_DECODE_ENTRIES = 2**20
# A bin whose shift-free exp-sum falls below this has lost precision to
# underflow (its nearest center is hundreds of units away), so its row is
# recomputed with a max-shift.
_EXP_SUM_FLOOR = 1e-250


def _image(centers: np.ndarray) -> np.ndarray:
    """Complex centers (count, dim) as the real augmented image (count,
    2 dim + 2) [2 re c | 2 im c | -|c|^2 | -1], the codebook side of
    ``_neg_sqdist``."""
    count, dim = centers.shape
    image = np.empty((count, 2 * dim + 2))
    image[:, :dim] = centers.real
    image[:, dim:-2] = centers.imag
    image[:, -2] = -np.einsum("ij,ij->i", image[:, :-2], image[:, :-2])
    image[:, :-2] *= 2.0
    image[:, -1] = -1.0
    return image


def _augment(z_flat: np.ndarray) -> np.ndarray:
    """Complex rows (rows, dim) as the real augmented rows (rows, 2 dim + 2)
    [re z | im z | 1 | |z|^2], the sample side of ``_neg_sqdist``: their
    product with an image row is -|z - c|^2."""
    rows, dim = z_flat.shape
    z = np.empty((rows, 2 * dim + 2))
    z[:, :dim] = z_flat.real
    z[:, dim:-2] = z_flat.imag
    z[:, -2] = 1.0
    z[:, -1] = np.einsum("ij,ij->i", z[:, :-2], z[:, :-2])
    return z


def _neg_sqdist(z_flat: np.ndarray, image: np.ndarray) -> np.ndarray:
    """-|z - c|^2 for every complex row z and image center c, in one (rows,
    count) buffer written by one real GEMM of the augmented rows against the
    augmented image."""
    return _augment(z_flat) @ image.T


def _lse(a: np.ndarray, groups: int) -> np.ndarray:
    """Max-shift log-sum-exp of each of ``groups`` equal column blocks of a,
    (rows, groups); ``a`` is overwritten."""
    a = a.reshape(a.shape[0], groups, a.shape[1] // groups)
    top = a.max(axis=2, keepdims=True)
    a -= top
    return np.log(np.exp(a, out=a).sum(axis=2)) + top[..., 0]


def _binned_lse(z_flat: np.ndarray, image: np.ndarray, groups: int) -> np.ndarray:
    """ln sum exp(-|z - c|^2) over each of ``groups`` equal column blocks of
    the image, (rows, groups).

    The centers stream through one reused (rows, width) buffer of at most
    ``_PANEL`` entries: each panel of image rows is written by one GEMM,
    exponentiated in place without a shift and added into its bins' sums,
    by ``np.add.reduceat`` where the panel crosses a bin edge, so no (rows,
    count) matrix is built.  A row where some bin's sum falls below
    ``_EXP_SUM_FLOOR`` is recomputed through the max-shift ``_lse``, at
    most ``_PANEL // count`` rows at a time."""
    rows, count = z_flat.shape[0], image.shape[0]
    per_bin = count // groups
    z = _augment(z_flat)
    width = min(count, max(1, _PANEL // max(rows, 1)))
    buf = np.empty((rows, width))
    sums = np.zeros((rows, groups))
    for start in range(0, count, width):
        d = buf[:, : min(width, count - start)]
        np.matmul(z, image[start : start + d.shape[1]].T, out=d)
        np.exp(d, out=d)
        # the panel's columns from each bin edge it holds, from 0 for the
        # bin it starts in
        first, last = start // per_bin, (start + d.shape[1] - 1) // per_bin
        cuts = np.arange(first, last + 1) * per_bin - start
        cuts[0] = 0
        sums[:, first : last + 1] += np.add.reduceat(d, cuts, axis=1)
    low = np.flatnonzero(np.min(sums, axis=1) < _EXP_SUM_FLOOR)
    sums[low] = 1.0
    out = np.log(sums, out=sums)
    step = max(1, _PANEL // count)
    for s in range(0, low.size, step):
        redo = low[s : s + step]
        out[redo] = _lse(z[redo] @ image.T, groups)
    return out


def _nearest(z_flat: np.ndarray, centers_flat: np.ndarray) -> np.ndarray:
    """Index of the nearest center per row, ties to the smallest index; the
    expanded distance rounds differently per center, even for equal centers,
    so distances within 1e-12 of the squared norms count as tied.  Rows go
    in chunks whose distance buffer holds at most ``_DECODE_ENTRIES``."""
    image = _image(centers_flat)
    c_max = -np.min(image[:, -2])
    step = max(1, min(_SAMPLE_BATCH, _DECODE_ENTRIES // image.shape[0]))
    out = []
    for s in range(0, z_flat.shape[0], step):
        z = z_flat[s : s + step]
        d = _neg_sqdist(z, image)
        slack = 1e-12 * (np.sum(np.abs(z) ** 2, axis=1) + c_max)
        out.append(np.argmax(d >= (d.max(axis=1) - slack)[:, None], axis=1))
        del d  # so the next chunk's buffer does not coexist with this one
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
    whiten = np.linalg.inv(chol)
    # one GEMM against the codewords side by side, (n_tx, count n)
    clean = whiten @ ch.h @ cb.codewords.transpose(1, 0, 2).reshape(cb.n_tx, -1)
    clean = clean.reshape(ch.n_rx, cb.size, cb.n).transpose(1, 0, 2).reshape(cb.size, -1)
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


def mean_stderr(values):
    """Mean and standard error, std(ddof=1) / sqrt(m), of m samples along the
    first axis.  Both passes run over the stored samples, so a spread small
    next to the mean loses no digits to E[x^2] - mean^2 cancellation."""
    values = np.asarray(values, dtype=float)
    return values.mean(axis=0), values.std(axis=0, ddof=1) / math.sqrt(values.shape[0])


def codebook_ensemble(bp: BinningParams, pc: PowerConfig, books: int, rng, stat):
    """``mean_stderr`` of ``stat(codebook)`` (a number or a tuple of numbers)
    across ``books`` fresh codebooks."""
    return mean_stderr([stat(sample_codebook(bp, pc, rng)) for _ in range(books)])
