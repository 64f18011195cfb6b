"""Channel primitives for the arbitrarily-varying-eavesdropper wiretap model.

The legitimate (main) channel is a static complex MIMO link with additive
unit-variance noise.  The eavesdropper observes a noiseless linear function
of the transmitted signal through a per-use channel matrix that may change
arbitrarily over time; without loss of generality each such matrix is kept
in canonical form (orthonormal rows).  The transmitter superimposes
unit-variance artificial noise on the coded signal, which turns the
eavesdropper's equivalent channel into a unit-noise Gaussian channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Numerical-rank threshold: smallest/largest singular value ratio.
RANK_RTOL = 1e-8
# Max-entry tolerance for orthonormal-row eavesdropper matrices.
ORTHO_TOL = 1e-9

class DimensionError(ValueError):
    """Operand shapes do not line up."""


class RankError(ValueError):
    """Matrix is numerically rank deficient."""


class InvariantError(ValueError):
    """A domain-type invariant is violated."""


def as_complex_matrix(a, stacked: bool = False) -> np.ndarray:
    """Coerce to a finite, nonempty 2-D complex array; with ``stacked``, to a
    stack of such matrices of shape (..., rows, cols)."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.size == 0 or arr.ndim < 2 or (arr.ndim > 2 and not stacked):
        kind = "stack of matrices" if stacked else "2-D matrix"
        raise DimensionError(f"expected a nonempty {kind}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvariantError("matrix entries must be finite")
    return arr


def complex_normal(rng, shape, var: float = 1.0) -> np.ndarray:
    """i.i.d. rotationally invariant complex Gaussians with E|z|^2 = var.

    Real and imaginary parts each carry half the variance.
    """
    z = rng.standard_normal(size=(*tuple(shape), 2)).view(np.complex128)[..., 0]
    z *= np.sqrt(var / 2.0)
    return z


@dataclass(frozen=True)
class MainChannel:
    """Static full-rank legitimate channel matrix with its singular values."""

    h: np.ndarray
    singular_values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = as_complex_matrix(self.h)
        s = np.linalg.svd(h, compute_uv=False)
        if s[-1] <= RANK_RTOL * s[0]:
            raise RankError(
                f"main channel must have full rank: singular values span "
                f"[{s[-1]:.3e}, {s[0]:.3e}]"
            )
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "singular_values", s)

    @property
    def n_rx(self) -> int:
        return self.h.shape[0]

    @property
    def n_tx(self) -> int:
        return self.h.shape[1]

    @property
    def n_modes(self) -> int:
        """Number of spatial modes, min(n_tx, n_rx)."""
        return min(self.h.shape)


def _gram_deviation(h: np.ndarray) -> np.ndarray:
    """Max-entry deviation of h h^H from the identity, per matrix of a stack."""
    gram = h @ h.conj().swapaxes(-1, -2)
    return np.max(np.abs(gram - np.eye(h.shape[-2])), axis=(-2, -1))


def _eve_stack(a, canonical: bool) -> np.ndarray:
    """Coerce to one (n_eve, n_tx) eavesdropper matrix or a stack of them
    (..., n_eve, n_tx); with ``canonical``, every matrix must also have
    orthonormal rows."""
    h = as_complex_matrix(a, stacked=True)
    n_eve, n_tx = h.shape[-2:]
    if n_eve > n_tx:
        raise DimensionError(
            f"eavesdropper rows ({n_eve}) cannot exceed transmit antennas ({n_tx})"
        )
    dev = float(np.max(_gram_deviation(h))) if canonical else 0.0
    if dev > ORTHO_TOL:
        raise InvariantError(
            f"rows are not orthonormal (max deviation {dev:.3e}); "
            "use canonicalize_eve() first"
        )
    return h


def _unit_scaled(h: np.ndarray) -> np.ndarray:
    """``h`` with each matrix whose largest part lies outside 2^-500..2^500
    scaled by a power of two to below 1: exact, and it keeps the row space,
    so no product below overflows or underflows."""
    parts = np.abs(np.ascontiguousarray(h).view(np.float64))
    if 2.0**-500 < parts.min() and parts.max() < 2.0**500:  # no zero or extreme part
        return h
    top = parts.reshape(*h.shape[:-2], 1, -1).max(axis=-1, keepdims=True)
    exp = np.where((top <= 2.0**-500) | (top >= 2.0**500), -np.frexp(top)[1], 0)
    if not exp.any():
        return h
    out = np.empty_like(h)
    out.real, out.imag = np.ldexp(h.real, exp), np.ldexp(h.imag, exp)
    return out


def canonicalize_eve(h_raw):
    """Reduce raw eavesdropper matrices to canonical orthonormal-row form.

    Keeps the row space of the input (the raw observation is a degraded
    function of the canonical one) and fills any rank-deficient directions
    with orthonormal completion rows, which only strengthens the
    eavesdropper.  Takes one (n_eve, n_tx) matrix or a stack of them and
    returns an array of the same shape.  Matrices are first brought into
    range by ``_unit_scaled``; one that is then canonical is kept as it is.
    Every other matrix takes one of two paths, chosen by its shape:

    - n_eve = 1: the row h becomes h / |h|, and a zero row becomes e_1.
    - n_eve >= 2: its leading right-singular rows, from one batched SVD.

    Any orthonormal basis of the row space gives the same observation law,
    so the one-row form fixes no phase.  The result is not checked again:
    its kept members passed the orthonormality test and the others are unit
    or SVD rows.
    """
    h = _unit_scaled(_eve_stack(h_raw, canonical=False))
    keep = _gram_deviation(h) <= ORTHO_TOL
    if np.all(keep):
        return h
    n_eve, n_tx = h.shape[-2:]
    if n_eve >= 2:
        # Right-singular rows: the first rank(h) of them span the row space,
        # the remainder are the orthonormal completion for deficient rows.
        vh = np.linalg.svd(h, full_matrices=True)[2][..., :n_eve, :]
    else:
        with np.errstate(invalid="ignore"):  # a zero row gives nan here, then e_1
            vh = h / np.linalg.norm(h, axis=-1, keepdims=True)
        vh[~np.any(h, axis=-1)] = np.eye(1, n_tx)
    return np.where(keep[..., None, None], h, vh)


def random_eve_state(n_eve: int, n_tx: int, rng) -> np.ndarray:
    """Canonical (n_eve, n_tx) state with an isotropically random row space."""
    return canonicalize_eve(complex_normal(rng, (n_eve, n_tx)))


@dataclass(frozen=True)
class EveTrace:
    """A length-n sequence of canonical eavesdropper states, held as one
    read-only (n, n_eve, n_tx) array and validated in one pass."""

    stacked: np.ndarray

    def __post_init__(self):
        stack = np.array(self.stacked, dtype=np.complex128)
        if stack.ndim != 3:
            raise DimensionError("state sequence must have shape (n, n_eve, n_tx)")
        stack = _eve_stack(stack, canonical=True)
        stack.flags.writeable = False
        object.__setattr__(self, "stacked", stack)

    @classmethod
    def constant(cls, state, n: int) -> "EveTrace":
        """The trace that uses one (n_eve, n_tx) state n times."""
        return cls(np.repeat(np.asarray(state)[None], n, axis=0))

    @classmethod
    def random(cls, n_eve: int, n_tx: int, n: int, rng) -> "EveTrace":
        return cls(canonicalize_eve(complex_normal(rng, (n, n_eve, n_tx))))

    @property
    def n(self) -> int:
        return self.stacked.shape[0]

    @property
    def n_eve(self) -> int:
        return self.stacked.shape[1]

    @property
    def n_tx(self) -> int:
        return self.stacked.shape[2]


@dataclass(frozen=True)
class PowerConfig:
    """Power budget, backoff, and the truncated-ensemble input variance.

    ``pbar`` is the average power budget per channel use; one unit per
    active transmit antenna is reserved for artificial noise, leaving
    ``p = max(pbar - n_tx, 0)`` for the code.  Codewords are drawn with
    per-antenna variance ``p * (1 - eps_p) / n_tx`` so that the hard
    per-codeword power cap at ``p`` keeps a nonvanishing acceptance rate.
    ``pbar`` may also be an array of budgets, for the closed-form rates over
    a power grid; the derived powers are then arrays over it.
    """

    pbar: float
    eps_p: float
    n_tx: int

    def __post_init__(self):
        pbar = np.asarray(self.pbar, dtype=float)
        if not np.all(np.isfinite(pbar)) or np.any(pbar < 0):
            raise ValueError("power budget must be finite and nonnegative")
        if not 0.0 <= self.eps_p < 1.0:
            raise ValueError("truncation margin must lie in [0, 1)")
        if self.n_tx < 1:
            raise ValueError("need at least one transmit antenna")

    @property
    def p(self) -> float:
        """Backed-off code power (an array over an array of budgets)."""
        return np.maximum(np.asarray(self.pbar, dtype=float) - self.n_tx, 0.0)

    @property
    def per_antenna_var(self) -> float:
        return self.p * (1.0 - self.eps_p) / self.n_tx

    @property
    def p_prime(self) -> float:
        """Per-component variance of the eavesdropper's Gaussian output."""
        return self.per_antenna_var + 1.0


def transmit(x_tilde, rng) -> np.ndarray:
    """Superimpose unit-variance artificial noise on coded blocks (..., n_tx, n).

    The blocks are added into the fresh noise draw in place, so no third
    block-sized array is built (the sum is the same, bit for bit)."""
    x = as_complex_matrix(x_tilde, stacked=True)
    out = complex_normal(rng, x.shape)
    out += x
    return out


def main_observe(x, ch: MainChannel, rng) -> np.ndarray:
    """Blocks (..., n_tx, n) through the main channel: y = h x + z, z unit-variance."""
    x = as_complex_matrix(x, stacked=True)
    if x.shape[-2] != ch.n_tx:
        raise DimensionError(
            f"signal has {x.shape[-2]} rows but the channel expects {ch.n_tx}"
        )
    return ch.h @ x + complex_normal(rng, (*x.shape[:-2], ch.n_rx, x.shape[-1]))


def state_stack(states) -> np.ndarray:
    """The (..., n, n_eve, n_tx) matrices of a trace or of a raw state stack."""
    if isinstance(states, EveTrace):
        return states.stacked
    stack = as_complex_matrix(states, stacked=True)
    if stack.ndim < 3:
        raise DimensionError("state sequence must have shape (..., n, n_eve, n_tx)")
    return stack


def _observe(stack: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``eve_observe`` on checked operands whose shapes line up."""
    return np.einsum("...iet,...ti->...ei", stack, x)


def eve_observe(x, states) -> np.ndarray:
    """Noiseless eavesdropper observation, one state per channel use.

    ``x`` is one block (n_tx, n) or a batch (..., n_tx, n); ``states`` is an
    ``EveTrace``, a raw (n, n_eve, n_tx) stack such as a snapped grid, or a
    batch of sequences (..., n, n_eve, n_tx) that broadcasts against the
    blocks.  Column i of each block goes through state i.
    """
    stack = state_stack(states)
    x = as_complex_matrix(x, stacked=True)
    n, _, n_tx = stack.shape[-3:]
    if x.shape[-2:] != (n_tx, n):
        raise DimensionError(
            f"signal blocks are {x.shape[-2:]} but the trace expects ({n_tx}, {n})"
        )
    return _observe(stack, x)


def effective_noise_cov(ch: MainChannel) -> np.ndarray:
    """Covariance of the main receiver's total noise, h h^H + I.

    With artificial noise at the transmitter the receiver sees the coded
    signal plus the forwarded artificial noise plus its own thermal noise.
    """
    return ch.h @ ch.h.conj().T + np.eye(ch.n_rx)


def random_full_rank_channel(
    n_rx: int, n_tx: int, rng, max_condition: float | None = None
) -> MainChannel:
    """i.i.d. complex Gaussian channel, resampled until acceptably conditioned."""
    for _ in range(256):
        try:
            ch = MainChannel(complex_normal(rng, (n_rx, n_tx)))
        except RankError:
            continue
        s = ch.singular_values
        if max_condition is not None and s[0] / s[-1] > max_condition:
            continue
        return ch
    raise RankError("could not draw an acceptably conditioned channel")
