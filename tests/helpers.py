"""Shared samplers and independent oracles for the test suite.

The oracles here deliberately take different code paths from the library
functions they check: channel application goes through a full two-qubit
Pauli decomposition instead of the library's singlet-specific assembly.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ebchannels import (
    QubitChannelAffine,
    diagonal_channel,
    lambda1_zero_spectrum,
    unital_spectra,
    uniaxial_spectra,
    unitary_channel,
    validate_cptp,
)
from ebchannels.linalg import MAX_JACOBI_SWEEPS, _REL_PIVOT_SKIP, _not_converged

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI4 = [I2, SX, SY, SZ]


def apply_to_first_factor(phi: QubitChannelAffine, rho4: np.ndarray) -> np.ndarray:
    """(phi x id) on a two-qubit state via full Pauli decomposition."""
    out = np.zeros((4, 4), dtype=complex)
    for a in range(4):
        if a == 0:
            image_a = I2 + sum(phi.n[i] * PAULI4[i + 1] for i in range(3))
        else:
            image_a = sum(phi.M[i, a - 1] * PAULI4[i + 1] for i in range(3))
        for b in range(4):
            coeff = np.trace(rho4 @ np.kron(PAULI4[a], PAULI4[b]))
            if coeff != 0:
                out = out + 0.25 * coeff * np.kron(image_a, PAULI4[b])
    return out


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = b @ b.conj().T
    return rho / np.trace(rho)


def random_unital_cp_lambdas(rng: np.random.Generator, count: int) -> np.ndarray:
    """Diagonal unital CP channels: all four Choi eigenvalues nonnegative."""
    out = []
    while len(out) < count:
        lam = rng.uniform(-1.0, 1.0, 3)
        if unital_spectra(lam)[0].min() >= 0.0:
            out.append(lam)
    return np.array(out)


def random_cptp_channel(rng: np.random.Generator) -> QubitChannelAffine:
    """Generic CP channel via rejection on the Choi spectrum."""
    while True:
        m = rng.uniform(-1.0, 1.0, (3, 3)) * rng.uniform(0.2, 0.8)
        n = rng.uniform(-1.0, 1.0, 3) * 0.4
        phi = QubitChannelAffine(n, m)
        report = validate_cptp(phi)
        if report.min_choi_eig >= 1e-8:
            return phi


def random_kraus_channel(rng: np.random.Generator, rank: int) -> QubitChannelAffine:
    """CP channel with `rank` random Kraus operators, translated off every axis."""
    k = rng.standard_normal((rank, 2, 2)) + 1j * rng.standard_normal((rank, 2, 2))
    return _kraus_channel(k)


def random_eb_channel(rng: np.random.Generator, rank: int) -> QubitChannelAffine:
    """Measure-and-prepare channel with `rank` >= 2 rank-one Kraus operators.

    A channel with rank-one Kraus operators |a_i><b_i| is entanglement
    breaking, and every EB channel has such a form (Horodecki, Shor and
    Ruskai, Rev. Math. Phys. 15, 629 (2003)).  One operator alone cannot
    preserve the trace: a rank-one Choi matrix is a unitary's.
    """
    a, b = rng.standard_normal((2, rank, 2)) + 1j * rng.standard_normal((2, rank, 2))
    return _kraus_channel(a[:, :, None] * b.conj()[:, None, :])


def _kraus_channel(k: np.ndarray) -> QubitChannelAffine:
    # The affine parameters are read from the Kraus sum itself:
    # n_i = tr(sigma_i phi(I)) / 2 and M_ij = tr(sigma_i phi(sigma_j)) / 2.
    # K_i S^(-1/2), with S = sum K_i^dagger K_i, preserves the trace
    w, v = np.linalg.eigh(np.einsum("kji,kjl->il", k.conj(), k))
    k = k @ (v / np.sqrt(w)) @ v.conj().T

    def image(rho):
        return np.einsum("kij,jl,kml->im", k, rho, k.conj())

    paulis = PAULI4[1:]
    n = [np.trace(s @ image(I2)).real / 2.0 for s in paulis]
    m = [[np.trace(a @ image(b)).real / 2.0 for b in paulis] for a in paulis]
    return QubitChannelAffine(n, m)


def random_axial_cp(rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Diagonal channel with translation on axis 3 only, CP by construction."""
    while True:
        lam = rng.uniform(-1.0, 1.0, 3)
        n3 = rng.uniform(-1.0, 1.0)
        if uniaxial_spectra(lam, n3)[0].min() >= 1e-12:
            return lam, n3


def random_lambda1_zero_cp(rng: np.random.Generator) -> tuple[float, float, np.ndarray]:
    """Channel with vanishing first singular value, CP by construction."""
    while True:
        lam2, lam3 = rng.uniform(-1.0, 1.0, 2)
        n = rng.uniform(-1.0, 1.0, 3) * 0.7
        if lambda1_zero_spectrum(lam2, lam3, n).min() >= 1e-12:
            return lam2, lam3, n


def axial_channel(lam, n3: float) -> QubitChannelAffine:
    return diagonal_channel(lam, np.array([0.0, 0.0, n3]))


def random_unitary_sample(rng: np.random.Generator):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return unitary_channel(axis, rng.uniform(0.0, 2.0 * np.pi))


def exact_pt_factor(n: np.ndarray, m: np.ndarray) -> Fraction:
    """The factor g of `markov._family_factor` for one family channel, in exact arithmetic.

    n and M are those of `channel_at`, whose floats (c, s, e1, n3) are the
    row of `markov._row`, dyadic rationals.  g = (1 - e1)^2 - 4 (c^2 + s^2)
    - n3^2 over them.  The row's partially transposed Choi matrix is an
    X-state, and g has the sign of its exact smallest eigenvalue
    (1 - e1 - b) / 4 = g / (4 (1 - e1 + b)): the margin that `scan`
    computes from g in closed form and that `eb_onset` probes.
    """
    c, s, e1, n3 = map(Fraction, (m[0, 0], m[0, 1], m[2, 2], n[2]))
    return (1 - e1) ** 2 - 4 * (c * c + s * s) - n3 * n3


# The two-sided scalar Jacobi sweep: every rotation updates both columns
# and both rows of its pivot.  `linalg._jacobi`, which rotates one triangle
# and mirrors the other, must return its eigenvalues bit for bit on exactly
# Hermitian input.
def reference_jacobi(h: list[list[complex]]) -> np.ndarray:
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
