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
from dataclasses import dataclass, field

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

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("blocklength must be >= 1")
        if self.n_bins < 1 or self.per_bin < 1:
            raise ValueError("bin counts must be >= 1")


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
    return BinningParams(n=n, rate_bits=rate, n_bins=n_bins, per_bin=per_bin)


@dataclass(frozen=True)
class Codebook:
    """Power-capped codewords labeled (bin, within-bin) in row-major order.

    ``codewords`` is a read-only view, so the eavesdropper image that the
    book keeps for the last trace it was observed through (``eve_image``)
    cannot go stale."""

    codewords: np.ndarray  # (count, n_tx, n)
    n_bins: int
    per_bin: int
    pc: PowerConfig
    # (trace, image of the whole book)
    _eve: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        cw = np.ascontiguousarray(self.codewords, dtype=np.complex128)
        if cw.ndim != 3 or cw.shape[0] != self.n_bins * self.per_bin:
            raise DimensionError("codeword array must be (n_bins * per_bin, n_tx, n)")
        flat = cw.reshape(cw.shape[0], -1).view(np.float64)
        power = np.einsum("ij,ij->i", flat, flat) / cw.shape[2]
        if np.any(power > self.pc.p + 1e-9):
            raise ValueError("every codeword must satisfy the power cap")
        cw = cw.view()
        cw.flags.writeable = False
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

    def _bin_rows(self, i: int) -> slice:
        if not 0 <= i < self.n_bins:
            raise ValueError(f"bin index {i} out of range [0, {self.n_bins})")
        return slice(i * self.per_bin, (i + 1) * self.per_bin)

    def bin_codewords(self, i: int) -> np.ndarray:
        return self.codewords[self._bin_rows(i)]

    def eve_image(self, trace: EveTrace, i: int | None = None) -> np.ndarray:
        """The ``_image`` of the eavesdropper's clean observations of bin i
        through the trace, or of the whole book when i is None.

        The book keeps the whole-book image for the last trace it was
        observed through (an ``EveTrace`` is immutable, so it is keyed by
        identity) and builds it on the first request for that trace: each
        codeword goes through ``eve_observe`` once per trace, at most
        ``_PANEL`` codeword entries at a time."""
        rows = slice(None) if i is None else self._bin_rows(i)
        if self._eve is None or self._eve[0] is not trace:
            image = np.empty((self.size, 2 * trace.n_eve * self.n + 2))
            step = max(1, _PANEL // self.codewords[0].size)
            for s in range(0, self.size, step):
                clean = eve_observe(self.codewords[s : s + step], trace)
                _image(clean.reshape(clean.shape[0], -1), image[s : s + step])
            object.__setattr__(self, "_eve", (trace, image))
        return self._eve[1][rows]


def sample_codebook(bp: BinningParams, pc: PowerConfig, rng) -> Codebook:
    """Draw a codebook by rejection from the power-capped Gaussian ensemble.

    Each candidate is i.i.d. complex Gaussian at the backed-off per-antenna
    variance and is kept only if its time-averaged energy fits under the
    hard cap; labels are assigned in draw order, filling bin 0 first.  Each
    draw is sized by the rows the book still lacks at the expected
    acceptance (256 candidates at least, ``_PANEL`` entries at most).
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
            pc=pc,
        )
    acceptance = truncation_mass(bp.n, pc.n_tx, pc.p, pc.eps_p)
    codewords = np.empty((total, pc.n_tx, bp.n), dtype=np.complex128)
    chunk = max(1, _PANEL // (pc.n_tx * bp.n))
    have = 0
    drawn = 0
    while have < total:
        size = min(chunk, max(256, math.ceil(1.02 * (total - have) / acceptance) + 16))
        cand = complex_normal(rng, (size, pc.n_tx, bp.n), var=pc.per_antenna_var)
        flat = cand.reshape(size, -1).view(np.float64)
        keep = np.flatnonzero(np.einsum("ij,ij->i", flat, flat) / bp.n <= pc.p)[: total - have]
        # mode="clip" writes into out directly ("raise" buffers a copy)
        np.take(cand, keep, axis=0, out=codewords[have : have + keep.size], mode="clip")
        have += keep.size
        drawn += size
        del cand, flat  # so the next draw does not coexist with this one
        if drawn >= 4_000_000 and have < 1e-6 * drawn:
            raise ValueError(
                f"pathological configuration: observed acceptance rate "
                f"{have / drawn:.2e} below 1e-6"
            )
    return Codebook(codewords=codewords, n_bins=bp.n_bins, per_bin=bp.per_bin, pc=pc)


# Rows (decoder trials or mixture samples) per batch.
_SAMPLE_BATCH = 512
# Entries (float64 or complex) of every streamed buffer: the distance panel
# that ``_binned_lse`` and ``_nearest`` stream the centers through (512 KB,
# so a panel stays in L2 from its GEMM to its reduction), the sampler's
# candidate draw, the observation chunk of ``Codebook.eve_image`` and the
# signal chunk of ``leakage._density_chunks``.
_PANEL = 2**16
# A bin whose shift-free exp-sum falls below this has lost precision to
# underflow (its nearest center is hundreds of units away), so its row is
# recomputed with a max-shift.
_EXP_SUM_FLOOR = 1e-250


def _image(centers: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Complex centers (count, dim) as the real augmented image (count,
    2 dim + 2) [2 re c | 2 im c | -|c|^2 | -1], written into ``out`` when
    given: its product with an ``_augment`` row is -|z - c|^2."""
    count, dim = centers.shape
    image = np.empty((count, 2 * dim + 2)) if out is None else out
    image[:, :dim] = centers.real
    image[:, dim:-2] = centers.imag
    image[:, -2] = -np.einsum("ij,ij->i", image[:, :-2], image[:, :-2])
    image[:, :-2] *= 2.0
    image[:, -1] = -1.0
    return image


def _augment(z_flat: np.ndarray) -> np.ndarray:
    """Complex rows (rows, dim) as the real augmented rows (rows, 2 dim + 2)
    [re z | im z | 1 | |z|^2]: their product with an image row is
    -|z - c|^2."""
    rows, dim = z_flat.shape
    z = np.empty((rows, 2 * dim + 2))
    z[:, :dim] = z_flat.real
    z[:, dim:-2] = z_flat.imag
    z[:, -2] = 1.0
    z[:, -1] = np.einsum("ij,ij->i", z[:, :-2], z[:, :-2])
    return z


def _panels(z: np.ndarray, image: np.ndarray, buf: np.ndarray, spans, bias=None):
    """(first center, the rows' products with the panel's centers, plus
    their ``bias`` when given) for each (first center, width) of ``spans``,
    written by one GEMM of the rows z against that slice of the image into a
    contiguous (rows, width) view of the flat buffer ``buf``.  For augmented
    rows against an ``_image`` the products are -|z - c|^2."""
    rows = z.shape[0]
    for start, width in spans:
        d = buf[: rows * width].reshape(rows, width)
        np.matmul(z, image[start : start + width].T, out=d)
        if bias is not None:
            d += bias[start : start + width]
        yield start, d


def _even_spans(count: int, width: int):
    """(first, width) of consecutive panels of at most ``width`` of
    ``count`` centers."""
    return [(s, min(width, count - s)) for s in range(0, count, width)]


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

    The centers stream through one reused buffer of at most ``_PANEL``
    entries in bin-aligned panels: whole bins per panel where a bin fits in
    one, else each bin in near-equal panels, so no panel crosses a bin
    edge.  Each panel is exponentiated in place without a shift and its
    bin sums, one BLAS matrix-vector product with a ones vector, are added
    into the bins' totals, so no (rows, count) matrix is built.  A row
    where some bin's sum falls below ``_EXP_SUM_FLOOR`` is recomputed
    through the max-shift ``_lse``, at most ``_PANEL // count`` rows at a
    time."""
    rows, count = z_flat.shape[0], image.shape[0]
    per_bin = count // groups
    z = _augment(z_flat)
    cap = max(1, _PANEL // max(rows, 1))
    # seg: the most columns of one bin that a panel holds
    if per_bin <= cap:
        seg = per_bin
        spans = _even_spans(count, cap // per_bin * per_bin)
    else:
        seg = math.ceil(per_bin / math.ceil(per_bin / cap))
        spans = [(b * per_bin + s, w) for b in range(groups) for s, w in _even_spans(per_bin, seg)]
    buf = np.empty(rows * spans[0][1])  # the first panel is the widest
    ones = np.ones(seg)
    sums = np.zeros((rows, groups))
    for start, d in _panels(z, image, buf, spans):
        np.exp(d, out=d)
        # the sums of the panel's whole bins, or of its part of one bin
        width = min(seg, d.shape[1])
        bins = d.shape[1] // width
        first = start // per_bin
        sums[:, first : first + bins] += (d.reshape(-1, width) @ ones[:width]).reshape(rows, bins)
    low = np.flatnonzero(np.min(sums, axis=1) < _EXP_SUM_FLOOR)
    sums[low] = 1.0
    out = np.log(sums, out=sums)
    step = max(1, _PANEL // count)
    for s in range(0, low.size, step):
        redo = low[s : s + step]
        out[redo] = _lse(z[redo] @ image.T, groups)
    return out


def _nearest(
    z: np.ndarray, centers: np.ndarray, bias: np.ndarray, norms: np.ndarray
) -> np.ndarray:
    """Index of the best-scoring center per row, ties to the smallest index.

    z holds real rows (rows, dim), the centers real rows of the same width
    and the score is z . c + bias[c], with ``bias`` (count,).  ``norms``
    (rows,) stands in for |z|^2 and -bias for |c|^2 in the slack: the
    expanded score rounds differently per center, even for equal centers,
    so scores within 1e-12 of the squared norms (|z|^2 plus the largest
    |c|^2) count as tied.

    Rows go in batches of at most ``_SAMPLE_BATCH``, and each batch streams
    the centers through one reused buffer of at most ``_PANEL`` entries.
    One pass keeps each row's best value and the first center within the
    slack of it, taken in the panel where the best last rose.  A row whose
    best before that rise was already within the slack of the new best may
    have an earlier tied center, so only a batch holding such a row streams
    the centers again, to find the first center within the slack of the
    final best; both passes make the same GEMMs, so they see the same
    values."""
    rows, count = z.shape[0], centers.shape[0]
    c_max = -np.min(bias)
    batch = min(rows, _SAMPLE_BATCH)
    width = min(count, max(1, _PANEL // max(batch, 1)))
    spans = _even_spans(count, width)
    buf = np.empty(batch * width)
    out = np.empty(rows, dtype=np.intp)
    for s in range(0, rows, _SAMPLE_BATCH):
        zb = z[s : s + _SAMPLE_BATCH]
        slack = 1e-12 * (norms[s : s + _SAMPLE_BATCH] + c_max)
        best = np.full(zb.shape[0], -np.inf)
        found = out[s : s + zb.shape[0]]
        found.fill(0)
        close = np.zeros(zb.shape[0], dtype=bool)
        for start, d in _panels(zb, centers, buf, spans, bias):
            top = d.max(axis=1)
            rise = top > best
            if rise.any():
                floor = top - slack
                first = np.argmax(d >= floor[:, None], axis=1)
                found[rise] = start + first[rise]
                # an earlier center can reach the floor only if the earlier
                # best does (the same comparison as the second pass's)
                close[rise] = best[rise] >= floor[rise]
                best[rise] = top[rise]
        if not close.any():
            continue
        best -= slack
        found[close] = -1
        for start, d in _panels(zb, centers, buf, spans, bias):
            hit = d >= best[:, None]
            new = (found < 0) & hit.any(axis=1)
            found[new] = start + np.argmax(hit[new], axis=1)
            if np.all(found >= 0):
                break
    return out


def _neg_energy(codewords: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """-|A c|^2 of each codeword c (count, n_tx, n), given the Gram matrix
    G = A^H A: the sum over antenna pairs of G_ij sum_t conj(c_it) c_jt,
    taken on float views of the antennas, so no per-codeword copy is built."""
    f = codewords.view(np.float64)  # (count, n_tx, 2n), [re, im] per use
    re, im = f[..., 0::2], f[..., 1::2]
    out = np.zeros(codewords.shape[0])
    for i in range(codewords.shape[1]):
        out -= gram[i, i].real * np.einsum("kt,kt->k", f[:, i], f[:, i])
        for j in range(i + 1, codewords.shape[1]):
            # the (i, j) and (j, i) terms: 2 Re(G_ij S_ij)
            s_re = np.einsum("kt,kt->k", f[:, i], f[:, j])
            s_im = np.einsum("kt,kt->k", re[:, i], im[:, j])
            s_im -= np.einsum("kt,kt->k", im[:, i], re[:, j])
            out -= 2.0 * (gram[i, j].real * s_re - gram[i, j].imag * s_im)
    return out


def ml_decode_main(y, ch: MainChannel, cb: Codebook):
    """Maximum-likelihood decoding at the legitimate receiver.

    The total noise (thermal plus forwarded artificial noise) is colored,
    so the likelihood is the whitened distance |z - A c|^2, with z = W y
    the whitened observation and A = W h.  Minimum wins, ties go to the
    smallest label in row-major order.  One observation (n_rx, n) gives the
    label (i, j); a batch (..., n_rx, n) gives arrays i and j.

    The codewords are scored in the input space, as the book's own float
    view, against the back-projected rows 2 A^H z: the score
    2 Re<A^H z, c> - |A c|^2 is |z|^2 - |z - A c|^2.  The bias -|A c|^2
    comes from the Gram matrix A^H A, and ``_nearest`` counts scores within
    1e-12 (|z|^2 + max |A c|^2) of the best as tied.
    """
    y = as_complex_matrix(y, stacked=True)
    if y.shape[-2:] != (ch.n_rx, cb.n):
        raise DimensionError(f"observation shape {y.shape} != (..., {ch.n_rx}, {cb.n})")
    if ch.n_tx != cb.n_tx:
        raise DimensionError("channel and codebook disagree on transmit antennas")
    chol = np.linalg.cholesky(effective_noise_cov(ch))
    whiten = np.linalg.inv(chol)
    a_h = (whiten @ ch.h).conj().T
    z = whiten @ y
    z_f = z.reshape(-1, ch.n_rx * cb.n).view(np.float64)
    rows = (2.0 * a_h @ z).reshape(-1, cb.n_tx * cb.n).view(np.float64)
    centers = cb.codewords.reshape(cb.size, -1).view(np.float64)
    bias = _neg_energy(cb.codewords, a_h @ a_h.conj().T)
    k = _nearest(rows, centers, bias, np.einsum("ij,ij->i", z_f, z_f)).reshape(y.shape[:-2])
    return divmod(int(k), cb.per_bin) if y.ndim == 2 else np.divmod(k, cb.per_bin)


def eve_bin_decode(z, i0, trace: EveTrace, cb: Codebook):
    """Within-bin decoding by an eavesdropper who already knows the bin.

    The artificial noise reaches a canonical eavesdropper whitened, so the
    likelihood is the plain distance to each possible clean observation.
    One observation (n_eve, n) gives an int; a batch (..., n_eve, n) with
    one bin or a bin per observation gives an array.

    The rows [re z | im z] are scored against the bin's memoised
    ``eve_image``: its 2 c columns as the centers and its -|c|^2 column as
    the bias, so the score 2 Re<z, c> - |c|^2 is |z|^2 - |z - c|^2.
    """
    z = as_complex_matrix(z, stacked=True)
    if z.shape[-2:] != (trace.n_eve, cb.n):
        raise DimensionError(
            f"observation shape {z.shape} != (..., {trace.n_eve}, {cb.n})"
        )
    bins = np.broadcast_to(i0, z.shape[:-2]).reshape(-1)
    z_flat = z.reshape(bins.size, -1)
    z_re = np.concatenate([z_flat.real, z_flat.imag], axis=1)
    norms = np.einsum("ij,ij->i", z_re, z_re)
    out = np.empty(bins.size, dtype=np.intp)
    for b in np.unique(bins):
        rows = bins == b
        image = cb.eve_image(trace, int(b))
        out[rows] = _nearest(z_re[rows], image[:, :-2], image[:, -2], norms[rows])
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
