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
# per-sweep overhead, small enough to bound the working memory.  On dense
# 4x4 PT-Choi matrices a block costs ~1.0-1.4 ms fixed plus ~10-11 us per
# matrix (2 CPUs, numpy 2.4), so the fixed part is about a fifth of a full
# block.  The amendment search holds about two blocks of trials: 3-layer
# searches on a unital base just outside its tie predicate (singular values
# 1e-12 apart), whose trials the Cholesky screen cannot drop, peak at
# ~1.06 MB for 1000 trials and ~2.6 MB for 3000 and 10000, ~10.7 MB at
# 10000 in blocks of 2048 (tracemalloc); the screen reads each block in
# place.  `test_search_memory_stays_within_a_block` bounds the 1000-trial
# peak.  seb-example peaks at ~0.7 MB, and a tie base, which draws one
# trial, at ~10 kB
STACK_BLOCK = 512

# shortest stack worth the vectorized sweep: on dense 4x4 PT-Choi matrices
# it costs ~1.2-1.3 ms fixed plus ~9 us per matrix, the scalar sweep 50-57 us
# per matrix (interleaved timeit minimums, 2 CPUs, numpy 2.4), so they cross
# at 26
_VECTOR_MIN = 26


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, or of each matrix in a stack.

    A 2-D input returns its eigenvalues sorted ascending; an (N, n, n)
    stack returns an (N, n) array, each row sorted ascending.  Every
    matrix must be Hermitian within HERMITICITY_TOL (max deviation of any
    entry of m - m^dagger); it is symmetrized before iterating so the
    rotations act on an exactly Hermitian matrix.

    A single matrix, and a stack shorter than _VECTOR_MIN, is swept in
    scalar arithmetic, one matrix after the other; a longer stack is
    swept vectorized across blocks of STACK_BLOCK (512) matrices.  Each
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
    # at these sizes.  h must be exactly Hermitian, as the symmetrization
    # in `hermitian_eigenvalues` leaves it.  A rotation at (p, q) then
    # computes only columns p and q of each other row i; entries (p, i)
    # and (q, i) of the row rotation are the conjugates of (i, p) and
    # (i, q).  CPython's complex * + - commute with conjugation (negation
    # is exact and rounding symmetric in sign), so the mirror holds the
    # row rotation's bits, up to the sign of an exact zero, which changes
    # no nonzero result.  The 2x2 block at (p, q) is rotated as a full
    # sweep rotates it: columns, then rows.
    n = len(h)
    pivots = [
        (p, q, h[p], h[q], [(i, h[i]) for i in range(n) if i != p and i != q])
        for p in range(n - 1)
        for q in range(p + 1, n)
    ]
    for _ in range(MAX_JACOBI_SWEEPS):
        rotated = False
        for p, q, hp, hq, others in pivots:
            apq = hp[q]
            r = abs(apq)
            if r == 0.0:
                continue
            app = hp[p]
            aqq = hq[q]
            if r <= _REL_PIVOT_SKIP * (abs(app.real) + abs(aqq.real)):
                hp[q] = 0.0
                hq[p] = 0.0
                continue
            # unitary 2x2 rotation annihilating the (p, q) entry
            alpha = apq / r
            tau = (aqq.real - app.real) / (2.0 * r)
            t = 1.0 / (abs(tau) + math.hypot(1.0, tau))
            if tau < 0.0:
                t = -t
            c = 1.0 / math.hypot(1.0, t)
            s = t * c
            sa = s * alpha
            sac = s * alpha.conjugate()
            for i, hi in others:
                aip = hi[p]
                aiq = hi[q]
                hi[p] = bip = c * aip - sac * aiq
                hi[q] = biq = sa * aip + c * aiq
                hp[i] = bip.conjugate()
                hq[i] = biq.conjugate()
            aqp = hq[p]
            bpp = c * app - sac * apq
            bpq = sa * app + c * apq
            bqp = c * aqp - sac * aqq
            bqq = sa * aqp + c * aqq
            hp[p] = c * bpp - sa * bqp
            hq[q] = sac * bpq + c * bqq
            hp[q] = 0.0
            hq[p] = 0.0
            rotated = True
        if not rotated:
            return np.sort(np.array([h[i][i].real for i in range(n)]))
    raise _not_converged()


def _jacobi_stack(h: np.ndarray) -> np.ndarray:
    # `_jacobi` vectorized over the stack, with the stack index moved last
    # so every entry (i, j) is one contiguous vector.  It rotates rows and
    # columns in full, where `_jacobi` mirrors one triangle: the same bits.
    # Every matrix stays in every sweep: a sweep that rotates no pivot of a
    # matrix leaves only zeros above its diagonal (each pivot was zero or
    # was flushed to +0), so later sweeps neither rotate nor flush it, and
    # its diagonal stays the one the scalar sweep returns.
    n = h.shape[1]
    h = h.transpose(1, 2, 0).copy()
    for _ in range(MAX_JACOBI_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = h[p, q]
                r = np.hypot(apq.real, apq.imag)
                with np.errstate(over="ignore"):
                    # inf for diagonals near the float range, as in the
                    # scalar sweep's Python sum: the pivot is flushed
                    scale = np.abs(h[p, p].real) + np.abs(h[q, q].real)
                rot = r > _REL_PIVOT_SKIP * scale
                if rot.all():
                    _rotate(h, p, q, r)
                    rotated = True
                    continue
                flush = ~rot & (r != 0.0)
                if flush.any():
                    h[p, q, flush] = 0.0
                    h[q, p, flush] = 0.0
                if rot.any():
                    rotated = True
                    idx = np.flatnonzero(rot)
                    g = h[:, :, idx]
                    _rotate(g, p, q, r[idx])
                    h[:, :, idx] = g
        if not rotated:
            return np.sort(np.diagonal(h).real, axis=1)
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


def _not_converged() -> ConvergenceFailure:
    return ConvergenceFailure(
        f"Jacobi iteration did not converge within {MAX_JACOBI_SWEEPS} sweeps"
    )


# machine epsilon (2**-52), and a bound on c_lapack + c_jacobi, the
# backward-error constants of the two eigensolvers (see `_lapack_lowest`)
_EPS = float(np.finfo(float).eps)
_EIG_BACKWARD_C = 64.0


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
    # ||H||_F.  `_EIG_BACKWARD_C` = 64 stands for the sum of the two
    # constants; the largest difference measured on 4x4 PT-Choi matrices
    # is 5.4 eps ||H||_F.  Only the search screen of `amend` reads this, on
    # each block's seed trials and the few others that `_cholesky_above`
    # does not drop: no published number comes from LAPACK.
    lowest = np.linalg.eigvalsh(h)[:, 0]
    delta = _EIG_BACKWARD_C * h.shape[-1] * _EPS * np.linalg.norm(h, axis=(1, 2))
    return lowest, delta


# smallest normal float: a Cholesky pivot below it fails `_cholesky_above`
_TINY = float(np.finfo(float).tiny)


def _cholesky_above(h: np.ndarray, bound: float, norm: float) -> np.ndarray:
    """Which matrices of an exactly Hermitian (N, n, n) stack a floating-
    point Cholesky factorization proves to have their smallest eigenvalue
    above `bound`, both the exact one and the one `hermitian_eigenvalues`
    returns.  `norm` is at least every computed ||H||_F of the stack.  A
    matrix whose factorization fails, at any pivot, is False; nothing
    raises.  The stack is read, never copied or written.

    The test factors A = fl(H - s I), s = fl(bound + margin), by the
    textbook algorithm (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Alg. 10.2, in complex form): for j = 0 .. n-1,
    d_j = a_jj - sum_{k<j} |r_kj|^2, r_jj = sqrt(d_j) and, for i > j, r_ji =
    (a_ji - sum_{k<j} conj(r_kj) r_ki) / r_jj, each sum subtracted in the
    order of k.  It passes when every pivot d_j is a normal float.

    Proof, with u = eps / 2 and gamma_k = k u / (1 - k u).  Outside the
    underflow range every operation is exact up to a factor 1 + x with
    complex |x| <= 3u: a complex difference rounds each part by u; a
    quotient by a real pivot, rounded once or through its reciprocal, is
    within gamma_2; a complex product within sqrt(2) gamma_2 (Higham,
    Lemma 3.5), fused or not; re^2 + im^2 within gamma_2; a square root
    within u.  Unrolled as in Higham's Lemma 8.4, each equation a_ji =
    sum_{k<=j} conj(r_kj) r_ki then holds for the computed factor with each
    term moved by a product of at most n + 1 such factors (j + 1 for the
    term of r_jj r_ji, k + 1 for term k, j + 2 on the diagonal, whose root
    enters squared), so if every pivot is positive (Higham, Theorem 10.3)

        R^H R = A + dA,  |dA| <= gamma |R^H| |R|,  gamma = gamma_{3(n+1)}.

    Then ||dA||_2 <= gamma ||R||_F^2, and ||R||_F^2 = tr(A + dA) <= tr A +
    gamma ||R||_F^2, so ||dA||_2 <= g tr A with g = gamma / (1 - gamma).
    R^H R is positive definite, R being triangular with a positive
    diagonal, so lambda_min(A) > -g tr A: the certificate of Rump (BIT 46,
    433 (2006)).  With gradual underflow a real product or quotient is
    also off by up to eta = 2^-1075 in absolute terms; sums and differences
    of floats stay exact there, and a square root of a positive float is
    normal.  That adds at most 2 (3n + 2 r_jj) eta to an entry of dA, and
    at most n^2 2^-1072 (2 + tr A) to ||dA||_2, as r_jj <= 1 + tr A.
    Requiring normal pivots keeps every 1 / r_jj below 2^512.  For finite
    input an overflow carries an infinity or NaN into a later pivot, since
    every entry of R enters the pivot of its column squared, and fails it:
    a completed factorization had none.

    Margin.  With F = norm (1 + 2^-30), which covers the computed norm's
    rounding, S = 2 |bound| + F + 2^-1000 bounds |s| and T = (1 + u)
    (sqrt(n) F + n S) bounds tr A, since sum |h_ii| <= sqrt(n) ||H||_F.
    Three steps separate `bound` from what the factorization proves:
    - fl(H - s I) rounds each diagonal entry by at most u (F + S), and s
      lies within u S of bound + margin;
    - lambda_min(A) > -(g T + n^2 2^-1072 (2 + T)), the certificate above;
    - Jacobi's eigenvalue is within `_EIG_BACKWARD_C` n eps ||H||_F of the
      exact one, the band of `_lapack_lowest`.
    The margin is their sum times 1 + 2^-30, which covers its own rounding,
    so both smallest eigenvalues exceed bound + margin - (the sum) >= bound
    when every pivot passes.  On trace-1 PT-Choi matrices (||H||_F <= 1)
    the margin is under 7e-14 + 1.4e-14 |bound|, Jacobi's band nearly all
    of it.
    """
    n = h.shape[-1]
    u = _EPS / 2.0
    gamma = 3 * (n + 1) * u / (1.0 - 3 * (n + 1) * u)
    g = gamma / (1.0 - gamma)
    f = norm * (1.0 + 2.0**-30)
    s = 2.0 * abs(bound) + f + 2.0**-1000
    t = (1.0 + u) * (math.sqrt(n) * f + n * s)
    margin = (
        u * (f + 2.0 * s)
        + g * t
        + n * n * 2.0**-1072 * (2.0 + t)
        + _EIG_BACKWARD_C * n * _EPS * f
    ) * (1.0 + 2.0**-30)
    shift = bound + margin
    passed = np.ones(len(h), dtype=bool)
    rows = {}  # (j, i) -> r_ji over the stack, for i > j
    with np.errstate(all="ignore"):  # a failed pivot may leave NaN behind
        for j in range(n):
            d = h[:, j, j].real - shift
            for k in range(j):
                r = rows[k, j]
                d = d - (r.real * r.real + r.imag * r.imag)
            passed &= d >= _TINY
            root = np.sqrt(d)
            conj = [rows[k, j].conj() for k in range(j)]
            for i in range(j + 1, n):
                a = h[:, j, i]
                for k in range(j):
                    a = a - conj[k] * rows[k, i]
                rows[j, i] = a / root
    return passed


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

    Entry ((i, j), (k, l)) moves to ((i, l), (k, j)) in one matrix or in
    each of a stack (..., dim, dim).  The map only moves entries, so it is
    an involution and preserves trace and Hermiticity exactly.
    """
    m = np.asarray(m, dtype=complex)
    dim = dim_a * dim_b
    if m.ndim < 2 or m.shape[-2:] != (dim, dim):
        raise DimensionMismatch(
            f"matrix shape {m.shape} does not match dimensions {dim_a} x {dim_b}"
        )
    return (
        m.reshape(*m.shape[:-2], dim_a, dim_b, dim_a, dim_b)
        .swapaxes(-3, -1)
        .reshape(m.shape)
    )
