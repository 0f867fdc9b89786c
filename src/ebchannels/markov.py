"""Markovian semigroup channel families and their time-resolved EB analysis.

Three families are covered: pure dephasing-with-rotation (decoherence),
isotropic depolarization, and homogenization (contraction towards a
fixed state of purity w with separate decay and decoherence times).
Times are dimensionless multiples of a caller-chosen unit shared by all
time constants; only ratios t/T enter the physics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import QubitChannelAffine
from .ebtest import (
    _BLOCK,
    _numeric_verdicts,
    _pt_margins,
    pt_margin,
    uniaxial_eb_condition,
)
from .errors import InvalidParameter, NegativeTime

__all__ = [
    "Decoherence",
    "Depolarization",
    "Homogenization",
    "DynamicalFamily",
    "HomogenizationF",
    "ScanRow",
    "TimeScan",
    "channel_at",
    "eb_onset",
    "homogenization_f",
    "homogenization_eb_condition",
    "scan",
    "scan_to_csv",
    "scan_to_dict",
]


@dataclass(frozen=True)
class Decoherence:
    """Phase damping at rate 1/T with Larmor rotation omega about z."""

    T: float
    omega: float = 0.0

    def __post_init__(self):
        if not self.T > 0.0:
            raise InvalidParameter(f"T must be positive, got {self.T}")


@dataclass(frozen=True)
class Depolarization:
    """Isotropic contraction of the Bloch sphere at rate 1/T."""

    T: float

    def __post_init__(self):
        if not self.T > 0.0:
            raise InvalidParameter(f"T must be positive, got {self.T}")


@dataclass(frozen=True)
class Homogenization:
    """Contraction towards a fixed state of purity w on the z axis.

    T1 is the decay time (z relaxation towards the fixed point), T2 the
    decoherence time (transverse damping), omega a rotation about z.
    """

    T1: float
    T2: float
    w: float
    omega: float = 0.0

    def __post_init__(self):
        if not (self.T1 > 0.0 and self.T2 > 0.0):
            raise InvalidParameter("T1 and T2 must be positive")
        if not 0.0 <= self.w <= 1.0:
            raise InvalidParameter(f"w must lie in [0, 1], got {self.w}")


DynamicalFamily = Decoherence | Depolarization | Homogenization


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    # math's elementary functions over an array: numpy's vectorized exp
    # differs from math.exp in the last bit on some inputs, which would
    # change the published scan digits
    return np.fromiter(map(fn, x.tolist()), float, len(x))


def _params(
    family: DynamicalFamily, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Translations (k, 3) and contractions (k, 3, 3) at the k `times`."""
    k = len(times)
    n = np.zeros((k, 3))
    m = np.zeros((k, 3, 3))
    # -t / T and omega * t may overflow (or be inf * 0); a non-finite
    # angle is rejected below, as scalar Python arithmetic would give it
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(family, Depolarization):
            m[:] = _elementwise(math.exp, -times / family.T)[:, None, None] * np.eye(3)
            return n, m
        if isinstance(family, Decoherence):
            damping = _elementwise(math.exp, -times / family.T)
            m[:, 2, 2] = 1.0
        elif isinstance(family, Homogenization):
            damping = _elementwise(math.exp, -times / family.T2)
            m[:, 2, 2] = _elementwise(math.exp, -times / family.T1)
            n[:, 2] = family.w * (1.0 - m[:, 2, 2])
        else:
            raise TypeError(f"unknown dynamical family {family!r}")
        angle = family.omega * times
    bad = np.flatnonzero(~np.isfinite(angle))
    if len(bad):
        raise InvalidParameter(
            f"rotation angle omega * t = {float(angle[bad[0]])} is not finite"
        )
    c = damping * _elementwise(math.cos, angle)
    s = damping * _elementwise(math.sin, angle)
    m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1] = c, s, -s, c
    return n, m


def channel_at(family: DynamicalFamily, t: float) -> QubitChannelAffine:
    """The family's channel at time t (identity at t = 0)."""
    if t < 0.0:
        raise NegativeTime(f"time must be nonnegative, got {t}")
    n, m = _params(family, np.array([float(t)]))
    return QubitChannelAffine(n[0], m[0])


def eb_onset(
    family: DynamicalFamily, t_max: float, coarse_steps: int = 1000
) -> float | None:
    """Earliest time in [0, t_max] at which the channel becomes EB.

    Locates the first zero crossing of the partial-transpose margin by a
    coarse scan followed by bisection to 1e-9 relative precision, and
    returns None when the margin stays negative over the whole window.
    The crossing test is strict (margin >= 0 rather than the verdict
    tolerance): families whose margin approaches zero from below without
    ever reaching it must not report a spurious finite onset.  The coarse
    grid is evaluated in blocks up to the first block with a crossing;
    a rotation angle omega * t that is not finite anywhere on it raises
    InvalidParameter.
    """
    if not t_max > 0.0:
        raise InvalidParameter(f"t_max must be positive, got {t_max}")
    if coarse_steps < 2:
        raise InvalidParameter("coarse_steps must be at least 2")

    times = np.linspace(0.0, t_max, coarse_steps)
    n, m = _params(family, times)
    for start in range(0, coarse_steps, _BLOCK):
        block = slice(start, start + _BLOCK)
        crossings = np.flatnonzero(_pt_margins(n[block], m[block]) >= 0.0)
        if len(crossings):
            hit = start + int(crossings[0])
            break
    else:
        return None
    if hit == 0:
        return float(times[0])
    lo, hi = float(times[hit - 1]), float(times[hit])
    while hi - lo > 1e-9 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if pt_margin(channel_at(family, mid)) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class HomogenizationF:
    """The two homogenization EB indicator expressions and their minimum."""

    f1: float
    f2: float
    f: float


def homogenization_f(t: float, T1: float, T2: float, w: float) -> HomogenizationF:
    """Literal indicator pair for the homogenization family, f = min(f1, f2).

    f1 >= 0 is equivalent to the single-axis closed-form EB criterion for
    this family.  f2 as written mixes the two damping factors in a way
    that does not follow from that criterion; it is kept verbatim as a
    reported diagnostic, and scans carry it next to the oracle verdict so
    the disagreement is visible rather than silently patched.
    """
    e1 = math.exp(-t / T1)
    e2 = math.exp(-t / T2)
    f1 = (1.0 - w * w) * (1.0 - e1) ** 2 - 4.0 * e2 * e2
    f2 = 1.0 - e2 - math.sqrt((e1 + e2) ** 2 + w * w * (1.0 - e1) ** 2)
    return HomogenizationF(f1=f1, f2=f2, f=min(f1, f2))


def homogenization_eb_condition(t: float, T1: float, T2: float, w: float) -> bool:
    """Closed-form EB verdict for homogenization at time t.

    Plugs the family's singular values (e^{-t/T2}, e^{-t/T2}, e^{-t/T1})
    and translation w(1 - e^{-t/T1}) into the single-axis criterion; this
    is the authoritative closed-form verdict for the family.
    """
    e1 = math.exp(-t / T1)
    e2 = math.exp(-t / T2)
    return uniaxial_eb_condition(
        np.array([e2, e2, e1]), w * (1.0 - e1), axis=2
    )


@dataclass(frozen=True)
class ScanRow:
    """One time sample: canonical singular-value magnitudes and verdicts."""

    t: float
    lam: tuple[float, float, float]
    margin: float
    is_eb: bool
    f1: float | None = None
    f2: float | None = None
    f: float | None = None
    cf_eb: bool | None = None


@dataclass(frozen=True)
class TimeScan:
    """Uniform time grid of EB diagnostics for one dynamical family."""

    family: DynamicalFamily
    times: np.ndarray
    rows: list[ScanRow] = field(repr=False)


def scan(
    family: DynamicalFamily, t_min: float, t_max: float, steps: int
) -> TimeScan:
    """Sample the family on a uniform grid of `steps` times.

    Homogenization rows additionally carry the f1/f2/f diagnostics and
    the closed-form verdict column cf_eb.
    """
    if steps < 2:
        raise InvalidParameter(f"steps must be at least 2, got {steps}")
    if not t_min < t_max:
        raise InvalidParameter(f"need t_min < t_max, got [{t_min}, {t_max}]")
    if not math.isfinite(t_max):
        raise InvalidParameter(f"t_max must be finite, got {t_max}")
    if t_min < 0.0:
        raise NegativeTime(f"t_min must be nonnegative, got {t_min}")
    times = np.linspace(t_min, t_max, steps)
    n, m = _params(family, times)
    margins = np.empty(steps)
    is_eb = np.empty(steps, dtype=bool)
    for start in range(0, steps, _BLOCK):
        block = slice(start, start + _BLOCK)
        margins[block], is_eb[block] = _numeric_verdicts(n[block], m[block])
    # the singular values of `canonical_form`, taken from the same LAPACK
    # call as svd3 makes: without vectors it rounds differently
    lam = np.linalg.svd(m)[1]
    rows = []
    for i, t in enumerate(times.tolist()):
        row = {
            "t": t,
            "lam": tuple(lam[i].tolist()),
            "margin": float(margins[i]),
            "is_eb": bool(is_eb[i]),
        }
        if isinstance(family, Homogenization):
            fvals = homogenization_f(t, family.T1, family.T2, family.w)
            row.update(
                f1=fvals.f1,
                f2=fvals.f2,
                f=fvals.f,
                cf_eb=homogenization_eb_condition(t, family.T1, family.T2, family.w),
            )
        rows.append(ScanRow(**row))
    return TimeScan(family=family, times=times, rows=rows)


# published scan columns, shared by the CSV and JSON writers; the last
# four appear for the homogenization family only
_COLUMNS = ("t", "lam1", "lam2", "lam3", "margin", "is_eb", "f1", "f2", "f", "cf_eb")


def _table(result: TimeScan) -> tuple[tuple[str, ...], list[tuple]]:
    names = _COLUMNS if isinstance(result.family, Homogenization) else _COLUMNS[:6]
    rows = [
        (r.t, *r.lam, r.margin, r.is_eb, r.f1, r.f2, r.f, r.cf_eb)[: len(names)]
        for r in result.rows
    ]
    return names, rows


def _cell(value: float | bool) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(value, ".17g")


def scan_to_csv(result: TimeScan) -> str:
    """Render a scan in the published CSV row format (17 significant digits)."""
    names, rows = _table(result)
    lines = [",".join(names)] + [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _family_dict(family: DynamicalFamily) -> dict:
    if isinstance(family, Decoherence):
        return {"family": "decoherence", "T": family.T, "omega": family.omega}
    if isinstance(family, Depolarization):
        return {"family": "depolarization", "T": family.T}
    return {
        "family": "homogenization",
        "T1": family.T1,
        "T2": family.T2,
        "w": family.w,
        "omega": family.omega,
    }


def scan_to_dict(result: TimeScan) -> dict:
    """JSON-ready representation of a scan."""
    names, rows = _table(result)
    return {
        **_family_dict(result.family),
        "rows": [dict(zip(names, row)) for row in rows],
    }
