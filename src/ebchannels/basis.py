"""Hermitian operator bases and real coefficient vectors for states.

For d = 2 this is the Pauli basis and the Bloch vector.  For general d
it is the generalized Gell-Mann family: symmetric and antisymmetric
off-diagonal operators for every index pair plus d - 1 diagonal ones,
all traceless and mutually orthogonal with tr(X_i X_j) = 2 delta_ij.

A state decomposes as rho = I/d + (1/2) sum_i x_i X_i with coefficients
x_i = tr(rho X_i); the coefficient vector for d = 2 is the Bloch vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadDimension, DimensionMismatch, NotAState
from .tolerances import COHERENCE_IMAG_TOL, STATE_TOL

__all__ = [
    "OperatorBasis",
    "pauli_basis",
    "gell_mann_basis",
    "state_from_coherence",
    "coherence_from_state",
    "bloch_from_state",
    "state_from_bloch",
]

#: default ordering: (sym, antisym) per index pair in lexicographic pair
#: order, diagonals last
ORDER_INTERLEAVED = "interleaved"
#: fallback ordering: all symmetric ops, then all antisymmetric, then diagonals
ORDER_GROUPED = "grouped"


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """An ordered traceless Hermitian operator basis for dimension d."""

    d: int
    ops: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.ops)


def _sym(j: int, k: int, d: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    m[j, k] = 1.0
    m[k, j] = 1.0
    return m


def _antisym(j: int, k: int, d: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    m[j, k] = -1.0j
    m[k, j] = 1.0j
    return m


def _diagonal(l: int, d: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    for j in range(l):
        m[j, j] = 1.0
    m[l, l] = -l
    return math.sqrt(2.0 / (l * (l + 1))) * m


def _freeze(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


@lru_cache(maxsize=None)
def gell_mann_basis(d: int, ordering: str = ORDER_INTERLEAVED) -> OperatorBasis:
    """The d**2 - 1 generalized Gell-Mann operators in a fixed order.

    ordering="interleaved" lists (sym, antisym) for each pair (j, k),
    j < k, pairs in lexicographic order, then the diagonal operators.
    ordering="grouped" lists all symmetric pair operators first, then all
    antisymmetric ones, then the diagonals.
    """
    if d < 2:
        raise BadDimension(f"operator basis requires d >= 2, got {d}")
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    ops: list[np.ndarray] = []
    if ordering == ORDER_INTERLEAVED:
        for j, k in pairs:
            ops += [_sym(j, k, d), _antisym(j, k, d)]
    elif ordering == ORDER_GROUPED:
        ops += [_sym(j, k, d) for j, k in pairs]
        ops += [_antisym(j, k, d) for j, k in pairs]
    else:
        raise ValueError(f"unknown basis ordering {ordering!r}")
    ops += [_diagonal(l, d) for l in range(1, d)]
    return OperatorBasis(d, tuple(_freeze(op) for op in ops))


def pauli_basis() -> OperatorBasis:
    """The Pauli operators (sigma_x, sigma_y, sigma_z).

    Coincides element-by-element with gell_mann_basis(2): the symmetric,
    antisymmetric and diagonal d = 2 operators are exactly x, y, z.
    """
    return gell_mann_basis(2)


def _dim_from_length(n: int) -> int:
    d = math.isqrt(n + 1)
    if d * d - 1 != n or d < 2:
        raise DimensionMismatch(
            f"coefficient vector of length {n} does not match any d**2 - 1"
        )
    return d


def state_from_coherence(
    x: np.ndarray, d: int | None = None, ordering: str = ORDER_INTERLEAVED
) -> np.ndarray:
    """Reassemble I/d + (1/2) sum_i x_i X_i from a coefficient vector.

    Hermitian with unit trace by construction; positivity is not
    guaranteed and is the caller's concern.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch("coefficient vector must be one-dimensional")
    if d is None:
        d = _dim_from_length(x.size)
    elif d * d - 1 != x.size:
        raise DimensionMismatch(
            f"coefficient vector of length {x.size} does not match d = {d}"
        )
    basis = gell_mann_basis(d, ordering)
    rho = np.eye(d, dtype=complex) / d
    for coeff, op in zip(x, basis.ops):
        if coeff != 0.0:
            rho = rho + 0.5 * coeff * op
    return rho


def coherence_from_state(
    rho: np.ndarray, d: int, ordering: str = ORDER_INTERLEAVED
) -> np.ndarray:
    """Coefficients x_i = tr(rho X_i) of a d-dimensional state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise NotAState(f"expected a {d} x {d} matrix, got shape {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > STATE_TOL:
        raise NotAState("matrix is not Hermitian within tolerance")
    if abs(np.trace(rho) - 1.0) > STATE_TOL:
        raise NotAState(f"trace is {np.trace(rho)}, expected 1")
    basis = gell_mann_basis(d, ordering)
    coeffs = np.array([np.trace(rho @ op) for op in basis.ops])
    if np.abs(coeffs.imag).max() > COHERENCE_IMAG_TOL:
        raise NotAState("coefficients have non-negligible imaginary parts")
    return coeffs.real


def bloch_from_state(rho: np.ndarray) -> np.ndarray:
    """Bloch vector of a qubit state."""
    return coherence_from_state(rho, 2)


def state_from_bloch(r: np.ndarray) -> np.ndarray:
    """Qubit state (I + r . sigma) / 2."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise DimensionMismatch(f"Bloch vector must have 3 components, got {r.shape}")
    return state_from_coherence(r, 2)
