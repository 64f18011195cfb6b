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

import math
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
    parts = rng.standard_normal(size=(*tuple(shape), 2))
    z = parts[..., 0] + 1j * parts[..., 1]
    return z * np.sqrt(var / 2.0)


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


@dataclass(frozen=True)
class ChannelSvd:
    """SVD factors of a main channel: h = left @ embed(d) @ right."""

    d: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def reconstruct(self) -> np.ndarray:
        n_rx = self.left.shape[0]
        n_tx = self.right.shape[0]
        m = self.d.shape[0]
        embed = np.zeros((n_rx, n_tx), dtype=np.complex128)
        embed[:m, :m] = self.d
        return self.left @ embed @ self.right


def reduce_main_channel(h) -> ChannelSvd:
    """Diagonalize the main channel by cancelling its SVD unitaries.

    Returns the diagonal matrix of singular values (descending) together
    with the left and right unitary factors.  Raises ``RankError`` when the
    matrix is numerically rank deficient.
    """
    ch = h if isinstance(h, MainChannel) else MainChannel(h)
    left, s, right = np.linalg.svd(ch.h, full_matrices=True)
    return ChannelSvd(d=np.diag(s).astype(np.complex128), left=left, right=right)


def _gram_deviation(h: np.ndarray) -> np.ndarray:
    """Max-entry deviation of h h^H from the identity, per matrix of a stack."""
    gram = h @ h.conj().swapaxes(-1, -2)
    return np.max(np.abs(gram - np.eye(h.shape[-2])), axis=(-2, -1))


def _eve_stack(a, canonical: bool) -> np.ndarray:
    """Coerce to a (..., n_eve, n_tx) stack of eavesdropper matrices; with
    ``canonical``, every matrix must also have orthonormal rows."""
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


@dataclass(frozen=True)
class EveState:
    """One eavesdropper channel matrix in canonical (orthonormal rows) form."""

    ht: np.ndarray

    def __post_init__(self):
        ht = as_complex_matrix(self.ht)
        object.__setattr__(self, "ht", _eve_stack(ht, canonical=True))

    @property
    def n_eve(self) -> int:
        return self.ht.shape[0]

    @property
    def n_tx(self) -> int:
        return self.ht.shape[1]


def canonicalize_eve(h_raw):
    """Reduce raw eavesdropper matrices to canonical orthonormal-row form.

    Keeps the row space of the input (the raw observation is a degraded
    function of the canonical one) and fills any rank-deficient directions
    with orthonormal completion rows, which only strengthens the
    eavesdropper.  A matrix that is already canonical is returned unchanged.
    A single (n_eve, n_tx) matrix gives an ``EveState``; a stack
    (..., n_eve, n_tx) gives the canonical stack as an array, from one
    batched SVD.
    """
    h = _eve_stack(h_raw, canonical=False)
    keep = _gram_deviation(h) <= ORTHO_TOL
    if not np.all(keep):
        # Right-singular rows: the first rank(h) of them span the row space, the
        # remainder are the orthonormal completion used for zero/deficient rows.
        vh = np.linalg.svd(h, full_matrices=True)[2][..., : h.shape[-2], :]
        h = np.where(keep[..., None, None], h, vh)
    return EveState(h) if h.ndim == 2 else _eve_stack(h, canonical=True)


def random_eve_state(n_eve: int, n_tx: int, rng) -> EveState:
    """Canonical state whose row space is an isotropically random subspace."""
    return canonicalize_eve(complex_normal(rng, (n_eve, n_tx)))


@dataclass(frozen=True)
class EveTrace:
    """A length-n sequence of canonical eavesdropper states, held as one
    read-only (n, n_eve, n_tx) array and validated in one pass."""

    stacked: np.ndarray

    def __post_init__(self):
        stack = state_stack(np.array(self.stacked, dtype=np.complex128))
        stack = _eve_stack(stack, canonical=True)
        stack.flags.writeable = False
        object.__setattr__(self, "stacked", stack)

    @classmethod
    def constant(cls, state: EveState, n: int) -> "EveTrace":
        return cls(np.repeat(state.ht[None], n, axis=0))

    @classmethod
    def random(cls, n_eve: int, n_tx: int, n: int, rng) -> "EveTrace":
        return cls(canonicalize_eve(complex_normal(rng, (n, n_eve, n_tx))))

    @property
    def states(self) -> tuple:
        """The per-use states, one ``EveState`` each."""
        return tuple(EveState(ht) for ht in self.stacked)

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
    """

    pbar: float
    eps_p: float
    n_tx: int

    def __post_init__(self):
        if not math.isfinite(self.pbar) or self.pbar < 0:
            raise ValueError("power budget must be finite and nonnegative")
        if not 0.0 <= self.eps_p < 1.0:
            raise ValueError("truncation margin must lie in [0, 1)")
        if self.n_tx < 1:
            raise ValueError("need at least one transmit antenna")

    @property
    def p(self) -> float:
        """Backed-off code power."""
        return max(float(self.pbar) - self.n_tx, 0.0)

    @property
    def per_antenna_var(self) -> float:
        return self.p * (1.0 - self.eps_p) / self.n_tx

    @property
    def p_prime(self) -> float:
        """Per-component variance of the eavesdropper's Gaussian output."""
        return self.per_antenna_var + 1.0


def transmit(x_tilde, rng) -> np.ndarray:
    """Superimpose unit-variance artificial noise on coded blocks (..., n_tx, n)."""
    x = as_complex_matrix(x_tilde, stacked=True)
    return x + complex_normal(rng, x.shape)


def main_observe(x, ch: MainChannel, rng) -> np.ndarray:
    """Blocks (..., n_tx, n) through the main channel: y = h x + z, z unit-variance."""
    x = as_complex_matrix(x, stacked=True)
    if x.shape[-2] != ch.n_tx:
        raise DimensionError(
            f"signal has {x.shape[-2]} rows but the channel expects {ch.n_tx}"
        )
    return ch.h @ x + complex_normal(rng, (*x.shape[:-2], ch.n_rx, x.shape[-1]))


def state_stack(states) -> np.ndarray:
    """The (n, n_eve, n_tx) matrices of a trace or of a raw state stack."""
    if isinstance(states, EveTrace):
        return states.stacked
    stack = as_complex_matrix(states, stacked=True)
    if stack.ndim != 3:
        raise DimensionError("state sequence must have shape (n, n_eve, n_tx)")
    return stack


def eve_observe(x, states) -> np.ndarray:
    """Noiseless eavesdropper observation, one state per channel use.

    ``x`` is one block (n_tx, n) or a batch (..., n_tx, n); ``states`` is an
    ``EveTrace`` or a raw (n, n_eve, n_tx) stack such as a snapped grid.
    Column i of each block goes through state i.
    """
    stack = state_stack(states)
    x = as_complex_matrix(x, stacked=True)
    n, _, n_tx = stack.shape
    if x.shape[-2:] != (n_tx, n):
        raise DimensionError(
            f"signal blocks are {x.shape[-2:]} but the trace expects ({n_tx}, {n})"
        )
    return np.einsum("iet,...ti->...ei", stack, x)


def effective_noise_cov(ch: MainChannel) -> np.ndarray:
    """Covariance of the main receiver's total noise, h h^H + I.

    With artificial noise at the transmitter the receiver sees the coded
    signal plus the forwarded artificial noise plus its own thermal noise.
    """
    return ch.h @ ch.h.conj().T + np.eye(ch.n_rx)


def eve_equiv_noise_cov(st) -> np.ndarray:
    """Covariance of the eavesdropper's equivalent noise, ht ht^H.

    For canonical states this equals the identity: the artificial noise
    reaches the eavesdropper whitened.  Non-canonical input raises
    ``InvariantError``.
    """
    if not isinstance(st, EveState):
        st = EveState(st)
    return st.ht @ st.ht.conj().T


def random_full_rank_channel(
    n_rx: int, n_tx: int, rng, max_condition: float | None = None
) -> MainChannel:
    """i.i.d. complex Gaussian channel, resampled until acceptably conditioned."""
    for _ in range(256):
        h = complex_normal(rng, (n_rx, n_tx))
        s = np.linalg.svd(h, compute_uv=False)
        if s[-1] <= RANK_RTOL * s[0]:
            continue
        if max_condition is not None and s[0] / s[-1] > max_condition:
            continue
        return MainChannel(h)
    raise RankError("could not draw an acceptably conditioned channel")
