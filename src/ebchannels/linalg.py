"""Dense linear algebra for small complex matrices (dim <= 16).

The workloads here are 4x4 Choi matrices and 3x3 Bloch contractions, so
robustness and predictable accuracy matter far more than asymptotics.
The Hermitian eigensolver is a cyclic Jacobi iteration: unlike an
absolute-threshold sweep, its relative pivot test keeps the sign of
eigenvalues that are many orders of magnitude below the matrix norm
(long-time channel margins live there).
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian
from .tolerances import HERMITICITY_TOL

__all__ = ["hermitian_eigenvalues", "svd3", "kron", "partial_transpose"]

MAX_JACOBI_SWEEPS = 100

# pivots below this fraction of their diagonal pair are flushed to zero
_REL_PIVOT_SKIP = 1e-18

# matrices per vectorized sweep of a stack: large enough to amortize the
# per-sweep overhead, small enough to bound the working memory
STACK_BLOCK = 200

# shortest stack worth the vectorized sweep: its per-sweep overhead is
# ~2 ms, about what the scalar sweep takes for 16-24 4x4 PT-Choi matrices
_VECTOR_MIN = 16


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, or of each matrix in a stack.

    A 2-D input returns its eigenvalues sorted ascending; an (N, n, n)
    stack returns an (N, n) array, each row sorted ascending.  Every
    matrix must be Hermitian within HERMITICITY_TOL (max deviation of any
    entry of m - m^dagger); it is symmetrized before iterating so the
    rotations act on an exactly Hermitian matrix.

    A single matrix, and a stack shorter than _VECTOR_MIN, is swept in
    scalar arithmetic, one matrix after the other; a longer stack is
    swept vectorized across blocks of STACK_BLOCK (200) matrices.  Each
    matrix takes the same pivot decisions and the same rounding on either
    sweep, so the route and the block size change no digit and no sign
    of zero.

    Raises:
        NotHermitian: if the Hermiticity pre-check fails for any matrix.
        ConvergenceFailure: if Jacobi sweeps do not converge (not
            reachable for finite inputs of the sizes used here).
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(
            f"expected a square matrix or a stack of them, got shape {m.shape}"
        )
    # the largest real or imaginary part of any entry
    peak = np.abs(np.ascontiguousarray(m).view(float)).max(initial=0.0)
    if not math.isfinite(peak):
        raise NotHermitian("matrix contains non-finite entries")
    m_dagger = m.conj().swapaxes(-1, -2)
    deviation = np.abs(m - m_dagger).max(initial=0.0)
    if deviation > HERMITICITY_TOL:
        raise NotHermitian(
            f"matrix is not Hermitian: max |m - m^dagger| = {deviation:.3e} "
            f"exceeds {HERMITICITY_TOL:.0e}"
        )
    if peak < 2.0**1023:
        # halving each term instead would round away subnormal digits
        h = (m + m_dagger) / 2.0
    else:
        # the sum could leave the float range; halves this large are exact
        h = m / 2.0 + m_dagger / 2.0
    if m.ndim == 2:
        return _jacobi(h.tolist())
    if len(h) < _VECTOR_MIN:
        return np.array([_jacobi(x) for x in h.tolist()]).reshape(m.shape[:2])
    out = np.empty(m.shape[:2])
    for start in range(0, len(h), STACK_BLOCK):
        block = slice(start, start + STACK_BLOCK)
        out[block] = _jacobi_stack(h[block])
    return out


def _jacobi(h: list[list[complex]]) -> np.ndarray:
    # plain nested lists: scalar complex arithmetic beats ndarray indexing
    # at these sizes
    n = len(h)
    for _ in range(MAX_JACOBI_SWEEPS):
        rotated = False
        for p in range(n - 1):
            hp = h[p]
            for q in range(p + 1, n):
                apq = hp[q]
                r = abs(apq)
                if r == 0.0:
                    continue
                app = hp[p].real
                aqq = h[q][q].real
                if r <= _REL_PIVOT_SKIP * (abs(app) + abs(aqq)):
                    hp[q] = 0.0
                    h[q][p] = 0.0
                    continue
                # unitary 2x2 rotation annihilating the (p, q) entry
                alpha = apq / r
                tau = (aqq - app) / (2.0 * r)
                t = 1.0 / (abs(tau) + math.hypot(1.0, tau))
                if tau < 0.0:
                    t = -t
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                sa = s * alpha
                sac = s * alpha.conjugate()
                for i in range(n):
                    hi = h[i]
                    aip = hi[p]
                    aiq = hi[q]
                    hi[p] = c * aip - sac * aiq
                    hi[q] = sa * aip + c * aiq
                hq = h[q]
                for j in range(n):
                    apj = hp[j]
                    aqj = hq[j]
                    hp[j] = c * apj - sa * aqj
                    hq[j] = sac * apj + c * aqj
                hp[q] = 0.0
                hq[p] = 0.0
                rotated = True
        if not rotated:
            return np.sort(np.array([h[i][i].real for i in range(n)]))
    raise _not_converged()


def _jacobi_stack(h: np.ndarray) -> np.ndarray:
    # `_jacobi` vectorized over the stack, with the stack index moved last
    # so every entry (i, j) is one contiguous vector.  Matrices leave the
    # active set after their first sweep without a rotation, as the scalar
    # sweep returns.
    count, n, _ = h.shape
    h = h.transpose(1, 2, 0).copy()
    out = np.empty((count, n))
    active = np.arange(count)
    diagonal = (np.arange(n), np.arange(n))
    for _ in range(MAX_JACOBI_SWEEPS):
        rotated = np.zeros(len(active), dtype=bool)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = h[p, q]
                r = np.hypot(apq.real, apq.imag)
                scale = np.abs(h[p, p].real) + np.abs(h[q, q].real)
                rot = r > _REL_PIVOT_SKIP * scale
                if rot.all():
                    _rotate(h, p, q, r)
                    rotated[:] = True
                    continue
                flush = ~rot & (r != 0.0)
                if flush.any():
                    h[p, q, flush] = 0.0
                    h[q, p, flush] = 0.0
                if rot.any():
                    rotated |= rot
                    idx = np.flatnonzero(rot)
                    g = h[:, :, idx]
                    _rotate(g, p, q, r[idx])
                    h[:, :, idx] = g
        done = ~rotated
        out[active[done]] = np.sort(h[diagonal][:, done].real.T, axis=1)
        h = h[:, :, rotated]
        active = active[rotated]
        if not len(active):
            return out
    raise _not_converged()


def _rotate(h, p, q, r) -> None:
    # `_jacobi`'s rotation at pivot (p, q) of every matrix in the stack,
    # rounded as CPython rounds it.  numpy may fuse the multiply and add
    # of a complex product, so w * v is formed as re(w) * v + (i im(w)) *
    # v: with one factor real or imaginary each product rounds once, fused
    # or not.  math.hypot stands in for numpy's hypot, which differs in the
    # last bit; np.hypot(re, im) matches abs().
    apq = h[p, q]
    tau = (h[q, q].real - h[p, p].real) / (2.0 * r)
    t = 1.0 / (np.abs(tau) + _hypot1(tau))
    t = np.where(tau < 0.0, -t, t)
    c = 1.0 / _hypot1(t)
    s = t * c
    sr = s * (apq.real / r)  # sa = s * alpha = sr + i si, sac = conj(sa)
    si = s * (apq.imag / r)
    wr = np.stack([-sr, sr])
    pair = [p, q]
    # columns (p, q) <- (c aip - sac aiq, c aiq + sa aip)
    cols = h[:, pair]
    h[:, pair] = _mix(cols, cols[:, ::-1], c, wr, 1j * si)
    # rows (p, q) <- (c apj - sa aqj, c aqj + sac apj)
    rows = h[pair]
    h[pair] = _mix(rows, rows[::-1], c, wr[:, None], -1j * si)
    h[p, q] = 0.0
    h[q, p] = 0.0


def _mix(own, other, c, wr, iwi):
    # c * own + w * other with w = wr + iwi; subtracting a product equals
    # adding it with w negated, rounding included
    return c * own + (wr * other + iwi * other)


def _hypot1(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.hypot, repeat(1.0), x.tolist()), float, len(x))


def _elementwise(fn, x) -> np.ndarray:
    # a scalar function of Python floats over an array of any shape: math's
    # functions and CPython's arithmetic can differ from numpy's vectorized
    # ones in the last bit, which would change published digits
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _squares(x) -> np.ndarray:
    # x ** 2 as CPython and numpy scalars compute it, through libm pow:
    # numpy's array x ** 2 is x * x, which differs in the last bit on
    # ~0.1 % of inputs.  A square beyond the float range is inf, where
    # CPython raises OverflowError
    return _elementwise(_square, x)


def _square(v: float) -> float:
    try:
        return v ** 2
    except OverflowError:
        return math.inf


def _not_converged() -> ConvergenceFailure:
    return ConvergenceFailure(
        f"Jacobi iteration did not converge within {MAX_JACOBI_SWEEPS} sweeps"
    )


def _lapack_lowest(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # LAPACK's smallest eigenvalue of each matrix of an exactly Hermitian
    # (N, n, n) stack, and a band delta = 64 n eps ||H||_F around it that
    # holds the smallest eigenvalue `hermitian_eigenvalues` returns.
    # Both solvers are backward stable: each returns the exact eigenvalues
    # of some H + E with ||E||_2 <= c n eps ||H||_2 (Householder
    # tridiagonalization with implicit QL/QR for eigvalsh; a sweep of
    # exactly unitary rotations for Jacobi, whose flushed pivots move H by
    # at most 1e-18 of a diagonal pair).  By Weyl's inequality each
    # computed eigenvalue is within ||E||_2 of the exact one, so the two
    # differ by at most (c_lapack + c_jacobi) n eps ||H||_2, and ||H||_2 <=
    # ||H||_F.  64 stands for the sum of the two constants; the largest
    # difference measured on 4x4 PT-Choi matrices is 5.4 eps ||H||_F.
    # Only the search screen of `amend` reads this: no published number
    # comes from LAPACK.
    lowest = np.linalg.eigvalsh(h)[:, 0]
    delta = 64.0 * h.shape[-1] * np.finfo(float).eps * np.linalg.norm(h, axis=(1, 2))
    return lowest, delta


def svd3(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """SVD of a real 3x3 matrix with both factors special-orthogonal.

    Returns (u, s, v, sign) with u, v in SO(3), s nonnegative descending,
    and u @ diag(s1, s2, s3 * sign) @ v.T equal to m within 1e-10 in every
    entry, for entries of order one.  Any reflection is routed into
    `sign`, carried by the smallest singular value; sign equals the sign
    of det(m), with +1 for singular inputs.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise DimensionMismatch(f"expected a 3x3 real matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    u, s, vt = np.linalg.svd(m)
    sign = 1.0
    if np.linalg.det(u) < 0.0:
        u = u.copy()
        u[:, 2] = -u[:, 2]
        sign = -sign
    if np.linalg.det(vt) < 0.0:
        vt = vt.copy()
        vt[2, :] = -vt[2, :]
        sign = -sign
    # slogdet reads singularity off the LU factors, as det does, but does
    # not overflow for entries near the float range
    if np.linalg.slogdet(m)[0] == 0.0:
        sign = 1.0
    return u, s, vt.T, sign


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square complex matrices."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_transpose(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Transpose the second tensor factor of a (dim_a * dim_b) matrix.

    Entry ((i, j), (k, l)) moves to ((i, l), (k, j)).  The map is an
    involution and preserves trace and Hermiticity exactly.
    """
    m = np.asarray(m, dtype=complex)
    dim = dim_a * dim_b
    if m.shape != (dim, dim):
        raise DimensionMismatch(
            f"matrix shape {m.shape} does not match dimensions {dim_a} x {dim_b}"
        )
    return (
        m.reshape(dim_a, dim_b, dim_a, dim_b)
        .transpose(0, 3, 2, 1)
        .reshape(dim, dim)
    )
