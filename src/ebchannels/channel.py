"""Qubit channels as affine maps on Bloch vectors, and their Choi states.

A qubit channel acts as r -> n + M r with a 3-vector translation n and a
real 3x3 contraction M.  The Choi state used throughout is the image of
the singlet-form maximally entangled state under (channel x identity);
positivity and separability verdicts do not depend on that convention,
but matrix entries do, so it is pinned here for interoperability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import basis
from .errors import BadAxis, DimensionMismatch, InvalidParameter, NotCP
from .linalg import hermitian_eigenvalues, kron, svd3
from .tolerances import AXIS_NORM_TOL, CP_TOL

__all__ = [
    "QubitChannelAffine",
    "CanonicalDecomposition",
    "CPTPReport",
    "QuditAffineMap",
    "identity_channel",
    "diagonal_channel",
    "depolarizing_channel",
    "seb_example_channel",
    "singlet_state",
    "choi",
    "choi_partial_transpose",
    "validate_cptp",
    "canonical_form",
    "compose",
    "unitary_channel",
    "apply_channel",
    "identity_qudit_map",
    "apply_qudit_map",
]

_I2 = np.eye(2, dtype=complex)
_PAULI = tuple(basis.pauli_basis().ops)

# sigma_i (x) I and sigma_i (x) sigma_j, precomputed for Choi assembly
_PI = np.stack([kron(p, _I2) for p in _PAULI])
_PP = np.stack([np.stack([kron(a, b) for b in _PAULI]) for a in _PAULI])
_I4 = np.eye(4, dtype=complex)


@dataclass(frozen=True, eq=False)
class QubitChannelAffine:
    """Affine Bloch-space action r -> n + M r of a qubit channel.

    Not validated on construction: non-CP maps are legal inputs for the
    whole analysis pipeline, and `_choi_min` alone gates on positivity.
    """

    n: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        n = np.array(self.n, dtype=float).reshape(3)
        M = np.array(self.M, dtype=float).reshape(3, 3)
        if not (np.isfinite(n).all() and np.isfinite(M).all()):
            raise InvalidParameter("channel parameters must be finite")
        n.flags.writeable = False
        M.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "M", M)


@dataclass(frozen=True, eq=False)
class CanonicalDecomposition:
    """Diagonal reduction M = r_post @ diag(lam) @ r_pre with SO(3) factors.

    lam holds the signed singular values (|lam| descending, any reflection
    sign carried by the last entry); n is the translation expressed in the
    canonical frame, i.e. r_post @ n recovers the original translation.
    """

    lam: np.ndarray
    n: np.ndarray
    r_pre: np.ndarray
    r_post: np.ndarray


@dataclass(frozen=True)
class CPTPReport:
    """Complete-positivity check result (trace preservation is structural)."""

    is_cp: bool
    min_choi_eig: float


def identity_channel() -> QubitChannelAffine:
    return QubitChannelAffine(np.zeros(3), np.eye(3))


def diagonal_channel(lam, n=None) -> QubitChannelAffine:
    """Channel with M = diag(lam) and translation n (default 0)."""
    lam = np.asarray(lam, dtype=float).reshape(3)
    return QubitChannelAffine(np.zeros(3) if n is None else n, np.diag(lam))


def depolarizing_channel(p: float) -> QubitChannelAffine:
    """Uniform Bloch-sphere contraction by factor p (p = 0 is fully depolarizing)."""
    return diagonal_channel([p, p, p])


def seb_example_channel() -> QubitChannelAffine:
    """The bundled rank-deficient strong-EB example: lam = (0, -1/2, 1/2)."""
    return diagonal_channel([0.0, -0.5, 0.5])


def singlet_state() -> np.ndarray:
    """The singlet projector, written as a Pauli sum over both factors."""
    out = kron(_I2, _I2)
    for p in _PAULI:
        out = out - kron(p, p)
    return out / 4.0


def _choi(n: np.ndarray, M: np.ndarray) -> np.ndarray:
    # finite parameters near the float range can still overflow the sums
    with np.errstate(over="ignore", invalid="ignore"):
        out = 0.25 * (_I4 + np.tensordot(n, _PI, axes=1) - np.tensordot(M, _PP, axes=2))
    if not np.isfinite(out).all():
        raise InvalidParameter("channel parameters overflow the Choi matrix")
    return out


def _choi_min(n: np.ndarray, M: np.ndarray) -> np.ndarray:
    # the CP gate: smallest Choi eigenvalue of one channel (n, M) or of a
    # stack (leading axes), raising NotCP for the first one below -CP_TOL
    choi_min = hermitian_eigenvalues(_choi(n, M))[..., 0]
    not_cp = np.flatnonzero(choi_min < -CP_TOL)
    if len(not_cp):
        bad = float(np.ravel(choi_min)[not_cp[0]])
        raise NotCP(f"channel is not CP: min Choi eigenvalue {bad:.3e}", min_eig=bad)
    return choi_min


def choi(phi: QubitChannelAffine) -> np.ndarray:
    """Image of the singlet under (phi x identity).

    Hermitian with unit trace for any affine input; positive semidefinite
    exactly when the map is completely positive.
    """
    return _choi(phi.n, phi.M)


def choi_partial_transpose(phi: QubitChannelAffine) -> np.ndarray:
    """Partial transpose (second factor) of the Choi state.

    Transposing the second factor negates its sigma_y and fixes sigma_x
    and sigma_z, so this is `choi` with M's y column negated, equal entry
    for entry to `partial_transpose(choi(phi), 2, 2)`.
    """
    return _choi_pt(phi.n, phi.M)


def _choi_pt(n: np.ndarray, M: np.ndarray) -> np.ndarray:
    return _choi(n, M * (1.0, -1.0, 1.0))


def validate_cptp(phi: QubitChannelAffine) -> CPTPReport:
    """Check complete positivity via the minimum Choi eigenvalue."""
    try:
        return CPTPReport(is_cp=True, min_choi_eig=float(_choi_min(phi.n, phi.M)))
    except NotCP as exc:
        return CPTPReport(is_cp=False, min_choi_eig=exc.min_eig)


def canonical_form(phi: QubitChannelAffine) -> CanonicalDecomposition:
    """Reduce a channel to signed singular values plus a rotated translation.

    The diagonal channel (lam, n) returned here is unitarily equivalent to
    the input, so every entanglement-breaking verdict agrees between the
    two.  Axes come out in the SVD's descending-magnitude order and are
    not re-sorted afterwards.
    """
    u, s, v, sign = svd3(phi.M)
    lam = s.copy()
    lam[2] *= sign
    return CanonicalDecomposition(lam=lam, n=u.T @ phi.n, r_pre=v.T, r_post=u)


def compose(outer: QubitChannelAffine, inner: QubitChannelAffine) -> QubitChannelAffine:
    """Channel applying `inner` first, then `outer`."""
    return QubitChannelAffine(
        n=outer.n + outer.M @ inner.n, M=outer.M @ inner.M
    )


def unitary_channel(axis, angle: float) -> QubitChannelAffine:
    """Rotation of the Bloch sphere by `angle` about a unit `axis`."""
    axis = np.asarray(axis, dtype=float).reshape(3)
    norm = np.linalg.norm(axis)
    if abs(norm - 1.0) > AXIS_NORM_TOL:
        raise BadAxis(f"axis norm is {norm}, expected 1")
    return QubitChannelAffine(np.zeros(3), _rotations(axis, np.asarray(angle, float)))


def _rotations(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    # Rodrigues' formula I + sin(a) K + (1 - cos(a)) K^2 over any leading
    # axes: unit axes (..., 3) and angles (...) give rotations (..., 3, 3)
    x, y, z = np.moveaxis(axes, -1, 0)
    zero = np.zeros_like(x)
    k = np.stack(
        [
            np.stack([zero, -z, y], axis=-1),
            np.stack([z, zero, -x], axis=-1),
            np.stack([-y, x, zero], axis=-1),
        ],
        axis=-2,
    )
    sin = np.sin(angles)[..., None, None]
    cos = np.cos(angles)[..., None, None]
    return np.eye(3) + sin * k + (1.0 - cos) * (k @ k)


def apply_channel(phi: QubitChannelAffine, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a single-qubit state via its Bloch vector."""
    r = basis.bloch_from_state(rho)
    return basis.state_from_bloch(phi.n + phi.M @ r)


@dataclass(frozen=True, eq=False)
class QuditAffineMap:
    """Affine action x -> n + M x on d-dimensional coefficient vectors.

    Abstract by design: these maps are used for amendment experiments and
    are not validated as channels, so they may carry |M| entries above 1
    and may map states out of the positive cone.
    """

    d: int
    n: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        size = self.d * self.d - 1
        n = np.array(self.n, dtype=float).reshape(size)
        M = np.array(self.M, dtype=float).reshape(size, size)
        if not (np.isfinite(n).all() and np.isfinite(M).all()):
            raise InvalidParameter("map parameters must be finite")
        n.flags.writeable = False
        M.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "M", M)


def identity_qudit_map(d: int) -> QuditAffineMap:
    size = d * d - 1
    return QuditAffineMap(d, np.zeros(size), np.eye(size))


def apply_qudit_map(
    qmap: QuditAffineMap,
    rho: np.ndarray,
    ordering: str = basis.ORDER_INTERLEAVED,
) -> np.ndarray:
    """Push a state through the map in coefficient space and reassemble.

    The result is Hermitian with unit trace but possibly indefinite; the
    caller decides whether that matters.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (qmap.d, qmap.d):
        raise DimensionMismatch(
            f"state shape {rho.shape} does not match map dimension {qmap.d}"
        )
    x = basis.coherence_from_state(rho, qmap.d, ordering)
    return basis.state_from_coherence(qmap.n + qmap.M @ x, qmap.d, ordering)
