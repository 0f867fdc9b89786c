"""Markovian semigroup channel families and their time-resolved EB analysis.

Three families are covered: pure dephasing-with-rotation (decoherence),
isotropic depolarization, and homogenization (contraction towards a
fixed state of purity w with separate decay and decoherence times).
Times are dimensionless multiples of a caller-chosen unit shared by all
time constants; only ratios t/T enter the physics.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import repeat

import numpy as np

from .channel import QubitChannelAffine
from .ebtest import _numeric_verdicts, pt_margin, uniaxial_eb_condition
from .errors import InvalidParameter, NegativeTime
from .linalg import _elementwise, _squares

__all__ = [
    "Decoherence",
    "Depolarization",
    "Homogenization",
    "DynamicalFamily",
    "FAMILIES",
    "HomogenizationF",
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

#: each family's published name, as `--family` takes it and scans report it
FAMILIES = {
    "decoherence": Decoherence,
    "depolarization": Depolarization,
    "homogenization": Homogenization,
}


def _rates(family: DynamicalFamily) -> tuple[float, float, float, float]:
    """(T1, T2, w, omega) of the family as the homogenization it is."""
    if isinstance(family, Homogenization):
        return family.T1, family.T2, family.w, family.omega
    if isinstance(family, Decoherence):
        return math.inf, family.T, 0.0, family.omega
    if isinstance(family, Depolarization):
        return family.T, family.T, 0.0, 0.0
    raise TypeError(f"unknown dynamical family {family!r}")


def _params(
    family: DynamicalFamily, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Translations (k, 3) and contractions (k, 3, 3) at the k `times`.

    In Python floats: numpy's exp, cos and sin can differ from math's in
    the last bit, which would change published digits.
    """
    T1, T2, w, omega = map(float, _rates(family))
    ns, ms = [], []
    for t in times.tolist():
        angle = omega * t
        if not math.isfinite(angle):
            raise InvalidParameter(f"rotation angle omega * t = {angle} is not finite")
        e1, e2 = math.exp(-t / T1), math.exp(-t / T2)
        c, s = e2 * math.cos(angle), e2 * math.sin(angle)
        ns += (0.0, 0.0, w * (1.0 - e1))
        ms += (c, s, 0.0, -s, c, 0.0, 0.0, 0.0, e1)
    return (
        np.fromiter(ns, float, len(ns)).reshape(-1, 3),
        np.fromiter(ms, float, len(ms)).reshape(-1, 3, 3),
    )


def channel_at(family: DynamicalFamily, t: float) -> QubitChannelAffine:
    """The family's channel at time t (identity at t = 0)."""
    if t < 0.0:
        raise NegativeTime(f"time must be nonnegative, got {t}")
    if not math.isfinite(t):
        raise InvalidParameter(f"time must be finite, got {t}")
    n, m = _params(family, np.array([float(t)]))
    return QubitChannelAffine(n[0], m[0])


def _pt_factor(n: np.ndarray, m: np.ndarray) -> float:
    """The factor g of a `_params` row that has the sign of its PT margin.

    A row has n = (0, 0, n3) and M = [[c, s, 0], [-s, c, 0], [0, 0, e1]],
    so its partially transposed Choi matrix is an X-state, with
    eigenvalues (1 - e1 -+ b) / 4 and (1 + e1 -+ |n3|) / 4, where
    b^2 = 4 (c^2 + s^2) + n3^2.  As b >= |n3| and 0 <= e1 <= 1, the
    smallest is (1 - e1 - b) / 4 = g / (4 (1 - e1 + b)), with

        g = (1 - e1)^2 - 4 (c^2 + s^2) - n3^2,

    exactly for the float row, CP or not.
    """
    (c, s, _), _, (_, _, e1) = m.tolist()
    n3 = n.tolist()[2]
    d = 1.0 - e1
    return d * d - (4.0 * (c * c + s * s) + n3 * n3)


# Outside this band the sign of `_pt_factor` is the sign of `pt_margin` of
# the same row.  It is the sum of two bounds.
#
# Rounding of g.  Each value computed with + - * carries the terms of its
# formal expansion, each times at most k factors (1 + delta), |delta| <=
# u = eps / 2, k the roundings along its path (a sum adds one to the
# larger count, a product adds one to the sum of both; the scaling by 4
# is exact).  d = 1 - e1 is one rounded factor, so d * d has k = 3, the
# bracket k = 3 and g k = 4: |error| <= gamma_4 S, just over 2 eps S,
# with S = (1 - e1)^2 + 4 (c^2 + s^2) + n3^2 <= 6 (c^2 + s^2 <= e2^2 and
# |n3| <= 1, up to a few eps), plus at most 2^-1072 where squares
# underflow.
#
# Jacobi's error.  `pt_margin` sweeps the assembled matrix H'.  Each real
# or imaginary part of an entry of H' sums the identity and at most 6
# parameters times 0, +-1 or +-i (products exact, at most 5 roundings), so
# ||H' - H||_2 <= gamma_5 ||A||_F with A the same sums in absolute values,
# and ||A||_F <= (1 + |n|_1 + |M|_1) / 2 <= sqrt(13) ||H||_F: under
# 10 eps ||H||_F.  Jacobi returns the eigenvalues of H' + E with ||E||_2
# <= 64 n eps ||H'||_2 (64 = `linalg._EIG_BACKWARD_C`, which
# `linalg._lapack_lowest` takes for Jacobi and LAPACK together).  By
# Weyl's inequality its smallest eigenvalue is within c_J eps ||H||_F of
# the exact one, with c_J = 64 n + 16 = 272 for n = 4.  Here ||H||_F^2 =
# (1 + |n|^2 + tr M^T M) / 4 <= 5 / 4 (the Pauli products are orthogonal
# with squared norm 4).
#
# The margin is g / (4 (1 - e1 + b)), and 4 (1 - e1 + b) <= 4 (1 + sqrt 5)
# < 13.  So when |computed g| exceeds 13 c_J eps sqrt(5 / 4) + 2.01 eps S,
# about 3966 eps, the exact g has its sign and the exact margin exceeds
# Jacobi's error, and Jacobi returns that sign.  2^-40 is 4096 eps.
_PT_FACTOR_BAND = 2.0**-40

# the grid whose first EB point brackets the onset; it fixes where the
# refinement starts, and so the reported digits
_ONSET_GRID = 1000


def eb_onset(family: DynamicalFamily, t_max: float) -> float | None:
    """Earliest time in [0, t_max] at which the channel becomes EB.

    The families are semigroups, and an EB channel followed by any
    channel is EB, so the margin crosses zero at most once: the onset is
    found by bisecting a 1000-point grid on [0, t_max] for its first EB
    point, then the interval before it to 1e-9 relative precision.
    Returns None when the channel is not EB at t_max.  The crossing test
    is strict (margin >= 0 rather than the verdict tolerance): families
    whose margin approaches zero from below without ever reaching it
    must not report a spurious finite onset.

    Each probe reads the family factor g of its channel (`_pt_factor`).
    Outside `_PT_FACTOR_BAND` its sign decides; inside it, the Jacobi
    margin decides as `pt_margin(channel_at(family, t)) >= 0`.  Outside
    the band the two agree, so the bisection sees the same answers either
    way and the onset digits are Jacobi's.
    """
    if not t_max > 0.0:
        raise InvalidParameter(f"t_max must be positive, got {t_max}")
    if not math.isfinite(t_max):
        raise InvalidParameter(f"t_max must be finite, got {t_max}")

    def is_eb(t: float) -> bool:
        (n,), (m,) = _params(family, np.array([t]))
        g = _pt_factor(n, m)
        if abs(g) > _PT_FACTOR_BAND:
            return g > 0.0
        return pt_margin(QubitChannelAffine(n, m)) >= 0.0

    times = np.linspace(0.0, t_max, _ONSET_GRID).tolist()
    if not is_eb(times[-1]):
        return None
    # every family is the identity channel, never EB, at t = 0
    below, hit = 0, len(times) - 1
    while hit - below > 1:
        mid = (below + hit) // 2
        if is_eb(times[mid]):
            hit = mid
        else:
            below = mid
    lo, hi = times[hit - 1], times[hit]
    while hi - lo > 1e-9 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if is_eb(mid):
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


def _homogenization(
    times: np.ndarray, T1: float, T2: float, w: float
) -> dict[str, np.ndarray]:
    """Scan columns f1, f2, f and cf_eb of homogenization at the `times`.

    Rounds as scalar Python arithmetic would: the exponentials go through
    math.exp and the squares through libm pow, as numpy's vectorized exp
    and array squares differ in the last bit on some inputs.
    """
    # as in Python floats, -t / T overflows to -inf quietly, and a zero
    # time constant raises (an ArithmeticError either way)
    with np.errstate(over="ignore", divide="raise", invalid="raise"):
        e1 = _elementwise(math.exp, -times / T1)
        e2 = _elementwise(math.exp, -times / T2)
    decay = _squares(1.0 - e1)
    f1 = (1.0 - w * w) * decay - 4.0 * e2 * e2
    f2 = 1.0 - e2 - np.sqrt(_squares(e1 + e2) + w * w * decay)
    # the family's singular values (e2, e2, e1) and translation
    # w (1 - e1) along z, in the single-axis criterion
    cf_eb = uniaxial_eb_condition(np.stack([e2, e2, e1], axis=-1), w * (1.0 - e1), axis=2)
    return {"f1": f1, "f2": f2, "f": np.minimum(f1, f2), "cf_eb": cf_eb}


def homogenization_f(t: float, T1: float, T2: float, w: float) -> HomogenizationF:
    """Literal indicator pair for the homogenization family, f = min(f1, f2).

    f1 >= 0 is equivalent to the single-axis closed-form EB criterion for
    this family.  f2 as written mixes the two damping factors in a way
    that does not follow from that criterion; it is kept verbatim as a
    reported diagnostic, and scans carry it next to the oracle verdict so
    the disagreement is visible rather than silently patched.
    """
    columns = _homogenization(np.array([float(t)]), T1, T2, w)
    return HomogenizationF(
        f1=float(columns["f1"][0]), f2=float(columns["f2"][0]), f=float(columns["f"][0])
    )


def homogenization_eb_condition(t: float, T1: float, T2: float, w: float) -> bool:
    """Closed-form EB verdict for homogenization at time t.

    Plugs the family's singular values (e^{-t/T2}, e^{-t/T2}, e^{-t/T1})
    and translation w(1 - e^{-t/T1}) into the single-axis criterion; this
    is the authoritative closed-form verdict for the family.
    """
    return bool(_homogenization(np.array([float(t)]), T1, T2, w)["cf_eb"][0])


@dataclass(frozen=True)
class TimeScan:
    """Uniform time grid of EB diagnostics for one dynamical family.

    `columns` maps each published column name, in CSV order, to one array
    over the grid: t, lam1..lam3, margin, is_eb, and for homogenization
    also f1, f2, f and cf_eb.
    """

    family: DynamicalFamily
    columns: dict[str, np.ndarray] = field(repr=False)


def scan(
    family: DynamicalFamily, t_min: float, t_max: float, steps: int
) -> TimeScan:
    """Sample the family on a uniform grid of `steps` times.

    Homogenization scans additionally carry the f1/f2/f diagnostics and
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
    try:
        times = np.linspace(t_min, t_max, steps)
    except (MemoryError, ValueError) as exc:  # beyond numpy's memory or index range
        raise InvalidParameter(f"steps = {steps} is too large: {exc}") from exc
    n, m = _params(family, times)
    _, margins, is_eb = _numeric_verdicts(n, m)
    # the singular values of `canonical_form`, taken from the same LAPACK
    # call as svd3 makes: without vectors it rounds differently
    lam = np.linalg.svd(m)[1]
    columns = {
        "t": times,
        "lam1": lam[:, 0],
        "lam2": lam[:, 1],
        "lam3": lam[:, 2],
        "margin": margins,
        "is_eb": is_eb,
    }
    if isinstance(family, Homogenization):
        columns.update(_homogenization(times, family.T1, family.T2, family.w))
    return TimeScan(family, columns)


def scan_to_csv(result: TimeScan) -> str:
    """Render a scan in the published CSV row format (17 significant digits)."""
    cells = [
        map(("false", "true").__getitem__, column.tolist())
        if column.dtype == bool
        else map(format, column.tolist(), repeat(".17g"))
        for column in result.columns.values()
    ]
    lines = [",".join(result.columns), *map(",".join, zip(*cells))]
    return "\n".join(lines) + "\n"


def _family_dict(family: DynamicalFamily) -> dict:
    name = next(name for name, cls in FAMILIES.items() if isinstance(family, cls))
    return {"family": name, **asdict(family)}


def scan_to_dict(result: TimeScan) -> dict:
    """JSON-ready representation of a scan."""
    rows = zip(*(column.tolist() for column in result.columns.values()))
    return {
        **_family_dict(result.family),
        "rows": [dict(zip(result.columns, row)) for row in rows],
    }
