"""Entanglement-breaking decisions for qubit channels.

The ground truth is the numeric partial-transpose oracle: a qubit
channel is entanglement-breaking exactly when the partial transpose of
its Choi state is positive semidefinite (for two qubits the PPT
criterion is necessary and sufficient).  On top of that sit closed-form
criteria for the unital, rank-deficient, and single-axis-translation
cases, each cross-checkable against the oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .channel import (
    CanonicalDecomposition,
    QubitChannelAffine,
    _choi,
    _choi_min,
    canonical_form,
    choi_partial_transpose,
)
from .errors import PreconditionViolated
from .linalg import hermitian_eigenvalues, partial_transpose
from .tolerances import AXIS_ZERO_TOL, CLOSED_FORM_TOL, EB_BOUNDARY_TOL, RANK_TOL

__all__ = [
    "EBMethod",
    "EBVerdict",
    "SEBClass",
    "Analysis",
    "analyze",
    "pt_margin",
    "is_eb_numeric",
    "unital_spectra",
    "unital_eb_condition",
    "unital_eb_condition_minmax",
    "lambda1_zero_spectrum",
    "uniaxial_eb_condition",
    "uniaxial_spectra",
    "uniaxial_verdict",
    "closed_form_verdict",
    "classify_seb",
]


class EBMethod(str, enum.Enum):
    """How an entanglement-breaking verdict was obtained."""

    NUMERIC_PPT = "numeric-ppt"
    UNITAL_CLOSED_FORM = "unital-closed-form"
    ZERO_LAMBDA = "zero-lambda"
    UNIAXIAL_CLOSED_FORM = "uniaxial-closed-form"


class SEBClass(str, enum.Enum):
    """Strength classification of an entanglement-breaking channel."""

    NOT_EB = "not-eb"
    #: EB with a vanishing singular value: no interleaved local unitaries
    #: can restore entanglement, since composites inherit the rank deficit
    SEB_RANK_DEFICIENT = "seb-rank-deficient"
    #: EB with full-rank contraction; amendability is not decided here
    EB_UNKNOWN_AMENDABILITY = "eb-unknown-amendability"


@dataclass(frozen=True)
class EBVerdict:
    """EB decision with its continuous margin.

    margin is the minimum eigenvalue of the partially transposed Choi
    state: >= 0 means separable (EB), < 0 measures surviving
    entanglement in the negativity direction.  The boundary counts as EB
    because the separable set is closed.
    """

    is_eb: bool
    margin: float
    choi_min_eig: float
    method: EBMethod


def pt_margin(phi: QubitChannelAffine) -> float:
    """Minimum eigenvalue of the partially transposed Choi state."""
    return float(hermitian_eigenvalues(choi_partial_transpose(phi))[0])


def is_eb_numeric(phi: QubitChannelAffine) -> EBVerdict:
    """Numeric PPT verdict.  Raises NotCP for non-CP input."""
    choi_min, margin, is_eb = _numeric_verdicts(phi.n, phi.M)
    return EBVerdict(
        is_eb=bool(is_eb),
        margin=float(margin),
        choi_min_eig=float(choi_min),
        method=EBMethod.NUMERIC_PPT,
    )


def _numeric_verdicts(
    n: np.ndarray, M: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # smallest Choi and PT-Choi eigenvalues and EB verdict of one channel
    # (n, M) or of a stack (leading axes), all read off one Choi matrix;
    # NotCP for the first non-CP one
    choi_matrix = _choi(n, M)
    choi_min = _choi_min(choi_matrix)
    margin = hermitian_eigenvalues(partial_transpose(choi_matrix, 2, 2))[..., 0]
    return choi_min, margin, _is_eb(margin)


def _is_eb(margin):
    # the EB rule on one PT margin or on an array of them
    return margin >= -EB_BOUNDARY_TOL


def unital_spectra(lam) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form Choi and partial-transpose spectra of a unital diagonal channel.

    The Choi eigenvalues are (1 +- l1 +- l2 +- l3) / 4 over the sign
    patterns with an even number of minus signs; transposing the second
    factor flips the sign of the middle coefficient, which yields exactly
    the odd patterns.
    """
    l1, l2, l3 = np.asarray(lam, dtype=float).reshape(3)
    spec_rho = np.array(
        [
            1.0 + l1 - l2 - l3,
            1.0 - l1 + l2 - l3,
            1.0 - l1 - l2 + l3,
            1.0 + l1 + l2 + l3,
        ]
    ) / 4.0
    spec_pt = np.array(
        [
            1.0 - l1 - l2 - l3,
            1.0 + l1 + l2 - l3,
            1.0 + l1 - l2 + l3,
            1.0 - l1 + l2 + l3,
        ]
    ) / 4.0
    return spec_rho, spec_pt


def unital_eb_condition(lam) -> bool:
    """Unital channels are EB iff |l1| + |l2| + |l3| <= 1."""
    lam = np.asarray(lam, dtype=float).reshape(3)
    with np.errstate(over="ignore"):  # a sum beyond the float range is inf: not EB
        return bool(float(np.abs(lam).sum()) <= 1.0 + CLOSED_FORM_TOL)


def unital_eb_condition_minmax(lam) -> bool:
    """Equivalent min/max form of the unital criterion.

    min{(1 - l3)^2, (1 + l3)^2} >= max{(l1 - l2)^2, (l1 + l2)^2};
    agrees with `unital_eb_condition` everywhere on [-1, 1]^3.
    """
    l1, l2, l3 = np.asarray(lam, dtype=float).reshape(3).tolist()
    lo, hi, diff, total = 1.0 - l3, 1.0 + l3, l1 - l2, l1 + l2
    return min(lo * lo, hi * hi) >= max(diff * diff, total * total) - CLOSED_FORM_TOL


def lambda1_zero_spectrum(lam2: float, lam3: float, n) -> np.ndarray:
    """Shared Choi / partial-transpose spectrum when the first singular value vanishes.

    With l1 = 0 the two spectra coincide, which is why one vanishing
    singular value forces the channel to be entanglement-breaking
    whenever it is CP.  Valid for arbitrary translation n.
    """
    n = np.asarray(n, dtype=float).reshape(3)
    s = lam2 * lam2 + lam3 * lam3 + float(n @ n)
    r = np.sqrt(
        lam2 * lam2 * lam3 * lam3
        + lam2 * lam2 * n[1] * n[1]
        + lam3 * lam3 * n[2] * n[2]
    )
    lo = np.sqrt(max(s - 2.0 * r, 0.0))
    hi = np.sqrt(s + 2.0 * r)
    return np.array([1.0 - lo, 1.0 + lo, 1.0 - hi, 1.0 + hi]) / 4.0


def _axis_order(axis: int) -> tuple[int, int, int]:
    if axis not in (0, 1, 2):
        raise PreconditionViolated(f"axis must be 0, 1 or 2, got {axis}")
    others = [i for i in range(3) if i != axis]
    return others[0], others[1], axis


def uniaxial_eb_condition(lam, n_axis, axis: int = 2) -> bool | np.ndarray:
    """EB criterion for a diagonal channel translated along one principal axis.

    Requires the other two translation components to vanish (the caller
    guarantees this; see `uniaxial_verdict` for the checked variant):

        min{1 - l_a, 1 + l_a} >= max over s in {+1, -1} of
            sqrt((l_b + s * l_c)^2 + n_axis^2)

    where a is the translation axis and b, c the other two.  One channel
    (lam of shape (3,), a scalar n_axis) gives a bool; leading axes (lam
    (..., 3), n_axis (...)) give a bool array of one verdict per channel.

    It is evaluated as 1 - |l_a| >= sqrt((|l_b| + |l_c|)^2 + n_axis^2).
    Correctly rounded +, * and sqrt are monotone and rounding is symmetric
    in sign, so for finite lam each side is bit for bit the min or max
    above, and the verdict is the same for nan, inf and overflow.
    """
    lam = np.abs(np.asarray(lam, dtype=float))
    n_axis = np.asarray(n_axis, dtype=float)
    i1, i2, i3 = _axis_order(axis)
    with np.errstate(over="ignore"):  # a square or sum beyond the float range is inf: not EB
        b = lam[..., i1] + lam[..., i2]
        rhs = np.sqrt(b * b + n_axis * n_axis)
    is_eb = 1.0 - lam[..., i3] >= rhs - CLOSED_FORM_TOL
    return bool(is_eb) if is_eb.ndim == 0 else is_eb


def uniaxial_spectra(lam, n3: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form spectra for a diagonal channel translated along axis 3.

    Returns (Choi spectrum, partial-transpose spectrum); the transpose
    swaps the roles of (l1 - l2) and (l1 + l2) under the square roots.
    """
    l1, l2, l3 = np.asarray(lam, dtype=float).reshape(3)
    diff, total = l1 - l2, l1 + l2
    a = np.sqrt(diff * diff + n3 * n3)
    b = np.sqrt(total * total + n3 * n3)
    spec_rho = np.array(
        [1.0 - l3 - a, 1.0 - l3 + a, 1.0 + l3 - b, 1.0 + l3 + b]
    ) / 4.0
    spec_pt = np.array(
        [1.0 - l3 - b, 1.0 - l3 + b, 1.0 + l3 - a, 1.0 + l3 + a]
    ) / 4.0
    return spec_rho, spec_pt


def uniaxial_verdict(phi: QubitChannelAffine, axis: int) -> bool:
    """Checked single-axis criterion on a channel's canonical parameters.

    Raises PreconditionViolated if the canonical translation has
    non-negligible components off the stated axis.
    """
    canon = canonical_form(phi)
    i1, i2, _ = _axis_order(axis)
    off = max(abs(canon.n[i1]), abs(canon.n[i2]))
    if off > AXIS_ZERO_TOL:
        raise PreconditionViolated(
            f"translation has off-axis component {off:.3e}; the single-axis "
            "criterion does not apply"
        )
    return uniaxial_eb_condition(canon.lam, float(canon.n[axis]), axis)


def _closed_form(canon: CanonicalDecomposition) -> tuple[EBMethod | None, bool | None]:
    nonzero_axes = [i for i in range(3) if abs(canon.n[i]) > AXIS_ZERO_TOL]
    if not nonzero_axes:
        return EBMethod.UNITAL_CLOSED_FORM, unital_eb_condition(canon.lam)
    if np.min(np.abs(canon.lam)) <= RANK_TOL:
        return EBMethod.ZERO_LAMBDA, True
    if len(nonzero_axes) == 1:
        axis = nonzero_axes[0]
        return (
            EBMethod.UNIAXIAL_CLOSED_FORM,
            uniaxial_eb_condition(canon.lam, float(canon.n[axis]), axis),
        )
    return None, None


def closed_form_verdict(
    phi: QubitChannelAffine,
) -> tuple[EBMethod | None, bool | None]:
    """Apply the sharpest applicable closed-form criterion, if any.

    Works on the canonical decomposition: unital channels use the
    singular-value sum, rank-deficient channels are EB outright, and a
    translation confined to one canonical axis uses the single-axis
    criterion.  Returns (None, None) when no closed form applies.  Does
    not check complete positivity.
    """
    return _closed_form(canonical_form(phi))


@dataclass(frozen=True)
class Analysis:
    """Everything `ebchan analyze` reports, from one pass over a CP channel."""

    verdict: EBVerdict
    canonical: CanonicalDecomposition
    closed_form_method: EBMethod | None
    closed_form_is_eb: bool | None
    seb_class: SEBClass


def analyze(phi: QubitChannelAffine) -> Analysis:
    """Numeric verdict, canonical form, closed form and strength class.

    Two eigensolves (Choi and partial transpose) and one SVD.  Rank
    deficiency of the Bloch contraction is sufficient for the strong EB
    class (interleaving unitaries cannot raise the rank of a product),
    but not necessary, so full-rank EB channels land in the
    unknown-amendability bucket.  Raises NotCP for non-CP input.
    """
    verdict = is_eb_numeric(phi)
    canon = canonical_form(phi)
    method, cf_is_eb = _closed_form(canon)
    if not verdict.is_eb:
        seb_class = SEBClass.NOT_EB
    elif float(np.min(np.abs(canon.lam))) <= RANK_TOL:
        seb_class = SEBClass.SEB_RANK_DEFICIENT
    else:
        seb_class = SEBClass.EB_UNKNOWN_AMENDABILITY
    return Analysis(verdict, canon, method, cf_is_eb, seb_class)


def classify_seb(phi: QubitChannelAffine) -> SEBClass:
    """Strength class of `analyze`.  Raises NotCP for non-CP input."""
    return analyze(phi).seb_class
