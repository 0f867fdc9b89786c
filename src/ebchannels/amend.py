"""Amendment experiments on entanglement-breaking channels.

Local amendment interleaves unitary rotations between repeated
applications of a base channel and searches (randomized, seeded) for an
interleaving whose composite is no longer entanglement-breaking.  For
base channels with a vanishing singular value the search must come up
empty: a product of Bloch contractions cannot exceed the rank of its
factors, and rank-deficient contractions are always EB.

Global amendment instead pushes the base channel's Choi state through an
abstract affine map on two-qubit coefficient vectors and asks whether
the output is entangled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import basis
from .channel import (
    QubitChannelAffine,
    QuditAffineMap,
    _choi_min,
    _choi_pt,
    _rotations,
    apply_qudit_map,
    choi,
    compose,
    seb_example_channel,
    unitary_channel,
)
from .ebtest import is_eb_numeric
from .errors import InvalidParameter, NonPositiveOutput
from .linalg import (
    STACK_BLOCK,
    _lapack_lowest,
    hermitian_eigenvalues,
    partial_transpose,
)
from .tolerances import AMEND_TOL, EB_BOUNDARY_TOL, OUTPUT_PSD_TOL

__all__ = [
    "UnitarySample",
    "AmendmentReport",
    "GlobalAmendmentResult",
    "OrderingAttempt",
    "BuiltinExampleReport",
    "PRNG_ID",
    "REFERENCE_AMENDED_STATE",
    "interleave",
    "local_amendment_search",
    "builtin_global_amendment_map",
    "global_amendment_example",
    "run_builtin_global_example",
]

#: PRNG used by the search; recorded in every report so byte-stable
#: reproduction is tied to a named algorithm, not an implementation detail
PRNG_ID = f"numpy.random.PCG64 (numpy {np.__version__})"


@dataclass(frozen=True)
class UnitarySample:
    """One sampled rotation: unit axis and angle in [0, 2*pi)."""

    axis: tuple[float, float, float]
    angle: float


def interleave(
    base: QubitChannelAffine, unitaries: list[UnitarySample]
) -> QubitChannelAffine:
    """Alternating composition base . U_1 . base . U_2 ... U_k . base.

    The base channel is applied len(unitaries) + 1 times; an empty list
    returns the base itself.
    """
    result = base
    for u in unitaries:
        result = compose(compose(result, unitary_channel(u.axis, u.angle)), base)
    return result


def _sample_unitaries(
    rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray]:
    # `count` rotations drawn one after another, each a uniform axis from a
    # normalized Gaussian triple and then a uniform angle; close to but not
    # exactly Haar on the induced channel, which is fine for a
    # falsification search.  2 pi * random() is rng.uniform(0, 2 pi) bit
    # for bit, at a third of the call cost
    raw = np.empty((count, 3))
    norms = np.empty(count)
    angles = np.empty(count)
    for j in range(count):
        while True:
            draw = rng.standard_normal(3)
            norm = math.sqrt(draw @ draw)
            if norm > 1e-12:
                break
        raw[j], norms[j] = draw, norm
        angles[j] = 2.0 * math.pi * rng.random()
    return raw / norms[:, None], angles


@dataclass(frozen=True)
class AmendmentReport:
    """Outcome of a randomized local-amendment search.

    best_margin is the largest partial-transpose violation found across
    all trials (negativity direction: positive values certify an
    entangled composite); best_pt_min_eig is the same trial's raw minimum
    eigenvalue.  `amended` is claimed only when the base channel was EB
    to begin with and some composite strictly violates positivity; a
    false result after `trials` samples is absence of evidence, not a
    certificate, for full-rank channels.
    """

    base_channel: QubitChannelAffine
    n_layers: int
    trials: int
    seed: int
    prng: str
    base_is_eb: bool
    base_margin: float
    best_margin: float
    best_pt_min_eig: float
    best_trial: int
    best_unitaries: tuple[UnitarySample, ...]
    amended: bool


def _interleaved_pt_chois(
    base: QubitChannelAffine, rotations: np.ndarray
) -> np.ndarray:
    # `choi_partial_transpose(interleave(base, unitaries))` for a stack of
    # trials, each row of `rotations` (trials, layers - 1, 3, 3) one
    # trial's rotations
    n, m = base.n, base.M
    for layer in range(rotations.shape[1]):
        mu = m @ rotations[:, layer]
        n = n + mu @ base.n
        m = mu @ base.M
    return _choi_pt(n, m)


def local_amendment_search(
    base: QubitChannelAffine, n_layers: int, trials: int, seed: int
) -> AmendmentReport:
    """Randomized search over interleaved unitaries.

    Each trial draws n_layers - 1 independent rotations, composes the
    interleaving and evaluates its partial-transpose margin.  Trials are
    drawn and evaluated in seed-ordered blocks, which changes neither the
    draws nor the result.  Fully deterministic for a given seed; the best
    trial is the one with the largest violation, ties broken by lowest
    trial index.

    Every reported number comes from `hermitian_eigenvalues`.  LAPACK
    only screens: a trial whose LAPACK violation plus its error band
    falls below a certified lower bound on the best violation cannot
    win, so it is never handed to the Jacobi sweep.  Each block of
    STACK_BLOCK trials is drawn, screened and swept before the next, so
    the memory is one block whatever `trials` is.
    """
    if n_layers < 2:
        raise InvalidParameter(f"n_layers must be at least 2, got {n_layers}")
    if trials < 1:
        raise InvalidParameter(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise InvalidParameter(f"seed must be nonnegative, got {seed}")
    base_verdict = is_eb_numeric(base)  # raises NotCP for non-CP input

    rng = np.random.default_rng(seed)
    layers = n_layers - 1
    # `floor` never exceeds the best Jacobi violation of the whole search:
    # it is the larger of the best one so far and the largest LAPACK
    # violation minus its band
    floor = best_violation = -np.inf
    best_trial = -1
    best_axes = best_angles = ()
    for start in range(0, trials, STACK_BLOCK):
        block = min(STACK_BLOCK, trials - start)
        axes, angles = _sample_unitaries(rng, block * layers)
        rotations = _rotations(axes, angles).reshape(block, layers, 3, 3)
        chois = _interleaved_pt_chois(base, rotations)
        lowest, delta = _lapack_lowest(chois)
        floor = max(floor, float(np.max(-lowest - delta)))
        keep = np.flatnonzero(delta - lowest >= floor)
        if not len(keep):
            continue
        violations = -hermitian_eigenvalues(chois[keep])[:, 0]
        i = int(np.argmax(violations))  # the first of equal maxima
        if violations[i] > best_violation:
            best_violation = violations[i]
            best_trial = start + int(keep[i])
            best_axes = axes.reshape(block, layers, 3)[keep[i]]
            best_angles = angles.reshape(block, layers)[keep[i]]
            floor = max(floor, float(best_violation))
    best_unitaries = tuple(
        UnitarySample(axis=tuple(axis), angle=float(angle))
        for axis, angle in zip(best_axes, best_angles)
    )
    return AmendmentReport(
        base_channel=base,
        n_layers=n_layers,
        trials=trials,
        seed=seed,
        prng=PRNG_ID,
        base_is_eb=base_verdict.is_eb,
        base_margin=base_verdict.margin,
        best_margin=float(best_violation),
        best_pt_min_eig=float(-best_violation),
        best_trial=best_trial,
        best_unitaries=best_unitaries,
        amended=bool(base_verdict.is_eb and best_violation > AMEND_TOL),
    )


# ---------------------------------------------------------------------------
# global amendment
# ---------------------------------------------------------------------------

#: 1-based coefficient positions of the bundled two-qubit amendment map:
#: diagonal entries set to one, and translation entries set to one
BUILTIN_MAP_DIAGONAL_POSITIONS = (3, 5, 6, 9, 10, 12, 15)
BUILTIN_MAP_TRANSLATION_POSITIONS = (6, 9)

#: reference output for the bundled example: the amended Choi state the
#: global map is meant to produce from the strong-EB base channel
REFERENCE_AMENDED_STATE = 0.25 * np.array(
    [
        [0.5, 0.0, 0.0, -0.5],
        [0.0, 1.5, 1.0, 0.0],
        [0.0, 1.0, 1.5, 0.0],
        [-0.5, 0.0, 0.0, 0.5],
    ],
    dtype=complex,
)
REFERENCE_AMENDED_STATE.flags.writeable = False


def builtin_global_amendment_map() -> QuditAffineMap:
    """The bundled d = 4 amendment map.

    Diagonal contraction with ones at the listed 1-based coefficient
    positions and a unit translation at two positions; which operators
    those positions select depends on the basis ordering chosen when the
    map is applied.
    """
    size = 15
    n = np.zeros(size)
    m = np.zeros((size, size))
    for pos in BUILTIN_MAP_DIAGONAL_POSITIONS:
        m[pos - 1, pos - 1] = 1.0
    for pos in BUILTIN_MAP_TRANSLATION_POSITIONS:
        n[pos - 1] = 1.0
    return QuditAffineMap(4, n, m)


@dataclass(frozen=True)
class GlobalAmendmentResult:
    """Trace-normalized output state with its entanglement verdict."""

    output_state: np.ndarray
    pt_min_eig: float
    entangled: bool
    ordering: str
    min_output_eig: float


def global_amendment_example(
    base: QubitChannelAffine,
    global_map: QuditAffineMap,
    ordering: str = basis.ORDER_INTERLEAVED,
) -> GlobalAmendmentResult:
    """Push the base channel's Choi state through a two-qubit affine map.

    Pipeline: Choi state -> coefficient vector (in the chosen basis
    ordering) -> affine map -> reassembled state, trace-normalized ->
    partial-transpose verdict (exact for two qubits).

    Raises:
        NotCP: if the base channel is not completely positive.
        NonPositiveOutput: if the mapped matrix has an eigenvalue below
            -OUTPUT_PSD_TOL; abstract maps may leave the state set, and
            such outputs are reported rather than clipped.
    """
    if global_map.d != 4:
        raise InvalidParameter("global amendment needs a d = 4 map")
    _choi_min(base.n, base.M)  # raises NotCP for a non-CP base

    mapped = apply_qudit_map(global_map, choi(base), ordering)
    mapped = mapped / np.trace(mapped).real

    min_eig = float(hermitian_eigenvalues(mapped)[0])
    if min_eig < -OUTPUT_PSD_TOL:
        raise NonPositiveOutput(
            f"mapped matrix is not positive semidefinite (min eigenvalue "
            f"{min_eig:.6e}) under ordering {ordering!r}",
            min_eig=min_eig,
        )
    pt_min = float(hermitian_eigenvalues(partial_transpose(mapped, 2, 2))[0])
    mapped.flags.writeable = False
    return GlobalAmendmentResult(
        output_state=mapped,
        pt_min_eig=pt_min,
        entangled=pt_min < -EB_BOUNDARY_TOL,
        ordering=ordering,
        min_output_eig=min_eig,
    )


@dataclass(frozen=True)
class OrderingAttempt:
    """One basis-ordering attempt at reproducing the reference output."""

    ordering: str
    result: GlobalAmendmentResult | None
    error: str | None
    max_deviation: float | None


@dataclass(frozen=True)
class BuiltinExampleReport:
    """Reproduction record for the bundled global-amendment example.

    `reproduced` names the basis ordering whose pipeline output matched
    the reference state entrywise, or None when no attempted ordering
    did.  Both sanctioned orderings are always recorded.
    """

    attempts: tuple[OrderingAttempt, ...]
    reproduced: str | None


def run_builtin_global_example(tol: float = 1e-12) -> BuiltinExampleReport:
    """Run the bundled map on the bundled strong-EB channel.

    Tries the default interleaved basis ordering first and the grouped
    ordering as the single fallback, comparing each pipeline output
    against REFERENCE_AMENDED_STATE.
    """
    base = seb_example_channel()
    qmap = builtin_global_amendment_map()
    attempts = []
    reproduced = None
    for ordering in (basis.ORDER_INTERLEAVED, basis.ORDER_GROUPED):
        try:
            result = global_amendment_example(base, qmap, ordering)
        except NonPositiveOutput as exc:
            attempts.append(
                OrderingAttempt(
                    ordering=ordering,
                    result=None,
                    error=str(exc),
                    max_deviation=None,
                )
            )
            continue
        deviation = float(
            np.abs(result.output_state - REFERENCE_AMENDED_STATE).max()
        )
        attempts.append(
            OrderingAttempt(
                ordering=ordering,
                result=result,
                error=None,
                max_deviation=deviation,
            )
        )
        if deviation < tol and reproduced is None:
            reproduced = ordering
            break
    return BuiltinExampleReport(attempts=tuple(attempts), reproduced=reproduced)
