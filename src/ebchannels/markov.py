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
from fractions import Fraction

import numpy as np

from .channel import QubitChannelAffine, _choi_min, choi
from .ebtest import _is_eb, uniaxial_eb_condition
from .errors import InvalidParameter, NegativeTime
from .linalg import _elementwise
from .tolerances import CP_TOL

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
    """(T1, T2, w, omega) of the family as the homogenization it is, in floats.

    With T1 = inf (decoherence) or w = 1 the family is EB at no time: the
    factor of `_family_factor` is -4 e2^2 < 0 and tends to 0.  A float
    row's exact g is then rounding noise, as fl(1 - e1) != 1 - e1, and 0
    where e2 underflows.  Every other family's g tends to 1 - w^2 > 0
    (finite T1 and T2) or stays <= -3 (T2 = inf): its rows decide it.
    """
    if isinstance(family, Homogenization):
        return float(family.T1), float(family.T2), float(family.w), float(family.omega)
    if isinstance(family, Decoherence):
        return math.inf, float(family.T), 0.0, float(family.omega)
    if isinstance(family, Depolarization):
        return float(family.T), float(family.T), 0.0, 0.0
    raise TypeError(f"unknown dynamical family {family!r}")


def _row(rates: tuple[float, ...], t: float) -> tuple[float, float, float, float]:
    """(c, s, e1, n3) of the family with these `_rates` at time t.

    Its channel is n = (0, 0, n3), M = [[c, s, 0], [-s, c, 0], [0, 0, e1]].
    `_columns` gives the same rows, bit for bit, for a column of times.
    """
    T1, T2, w, omega = rates
    angle = omega * t
    if not math.isfinite(angle):
        raise _angle_error(angle)
    e1, e2 = math.exp(-t / T1), math.exp(-t / T2)
    return e2 * math.cos(angle), e2 * math.sin(angle), e1, w * (1.0 - e1)


def _columns(rates: tuple[float, ...], times: np.ndarray) -> tuple[np.ndarray, ...]:
    """The `_row`s (c, s, e1, n3) of a column of times, and e2 = e^{-t/T2} on it.

    exp, cos and sin are math's, on each time through `_elementwise`:
    numpy's can differ from them in the last bit, which would change
    published digits.  numpy rounds + - * / on a column as Python does on
    a float, so the columns' rows are the float rows bit for bit, and it
    raises for its first time whose angle is not finite, as the float
    rows would in time order.
    """
    T1, T2, w, omega = rates
    # -t / T may overflow to -inf and inf * 0 is nan, quietly as on floats
    with np.errstate(over="ignore", invalid="ignore"):
        angle, x1, x2 = omega * times, -times / T1, -times / T2
    bad = np.flatnonzero(~np.isfinite(angle))
    if len(bad):
        raise _angle_error(float(angle[bad[0]]))
    e1 = _elementwise(math.exp, x1)
    e2 = e1 if T2 == T1 else _elementwise(math.exp, x2)  # depolarization: T1 = T2
    cos, sin = _elementwise(math.cos, angle), _elementwise(math.sin, angle)
    return e2 * cos, e2 * sin, e1, w * (1.0 - e1), e2


def _angle_error(angle: float) -> InvalidParameter:
    return InvalidParameter(f"rotation angle omega * t = {angle} is not finite")


def channel_at(family: DynamicalFamily, t: float) -> QubitChannelAffine:
    """The family's channel at time t (identity at t = 0)."""
    if t < 0.0:
        raise NegativeTime(f"time must be nonnegative, got {t}")
    if not math.isfinite(t):
        raise InvalidParameter(f"time must be finite, got {t}")
    c, s, e1, n3 = _row(_rates(family), float(t))
    return QubitChannelAffine([0.0, 0.0, n3], [[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, e1]])


def _family_factor(c, s, e1, n3):
    """g = (1 - e1)^2 - 4 (c^2 + s^2) - n3^2 of a `_row`, on floats or numpy columns.

    The row's Choi matrix couples only indices 1 and 2, and its partial
    transpose only 0 and 3: both are X-states.  Exactly for the float
    row, CP or not, and with b^2 = 4 (c^2 + s^2) + n3^2, so b >= |n3|,
    the partial transpose has eigenvalues (1 - e1 -+ b) / 4 and
    (1 + e1 -+ |n3|) / 4.  As 0 <= e1 <= 1 the smallest is
    (1 - e1 - b) / 4 = g / (4 (1 - e1 + b)), so g has the sign of the
    exact margin.  The constants are ints: on `Fraction`s g is exact.
    """
    d = 1 - e1
    return d * d - (4 * (c * c + s * s) + n3 * n3)


# Outside this band the computed g has the sign of the row's exact g.
# Each value computed with + - * carries the terms of its formal
# expansion, each times at most k factors (1 + delta), |delta| <= u =
# eps / 2, k the roundings along its path (a sum adds one to the larger
# count, a product adds one to the sum of both; the scaling by 4 is
# exact).  d = 1 - e1 is one rounded factor, so d * d has k = 3, the
# bracket k = 3 and g k = 4: |error| <= gamma_4 S, with S = (1 - e1)^2 +
# 4 (c^2 + s^2) + n3^2 <= 6 (c^2 + s^2 <= e2^2 and |n3| <= 1, up to a few
# eps), so under 12.1 eps, plus at most 2^-1072 where squares underflow.
# Any band above that decides alike; 2^-40 only keeps the exact `Fraction`
# probes, ~30x dearer, to the rows near a crossing.
_PT_FACTOR_BAND = 2.0**-40


def eb_onset(family: DynamicalFamily, t_max: float) -> float | None:
    """Earliest time in [0, t_max] at which the channel becomes EB.

    The families are semigroups, and an EB channel followed by any
    channel is EB, so the margin crosses zero at most once: the onset is
    found by bisecting [0, t_max] until the bracket (lo, hi] holding it
    is at most 1e-9 max(1, hi) wide, and hi is returned: within 1e-9
    relative of the onset above t = 1, within 1e-9 absolute below it.
    Returns None when the channel is not EB at t_max.  The crossing test
    is strict (margin >= 0 rather than the verdict tolerance): families
    whose margin approaches zero from below without ever reaching it
    must not report a spurious finite onset, and the families that are
    EB at no time (`_rates`) return None without a probe.

    Each probe decides the exact PPT test of its float row: margin >= 0,
    that is g >= 0 for the family factor g (`_family_factor`).  Outside
    `_PT_FACTOR_BAND` the sign of g in floats is exact; inside it, g is
    computed again in `Fraction`s.
    """
    if not t_max > 0.0:
        raise InvalidParameter(f"t_max must be positive, got {t_max}")
    if not math.isfinite(t_max):
        raise InvalidParameter(f"t_max must be finite, got {t_max}")

    rates = _rates(family)
    T1, _, w, _ = rates
    if T1 == math.inf or w == 1.0:
        return None

    def is_eb(t: float) -> bool:
        row = _row(rates, t)
        g = _family_factor(*row)
        if abs(g) > _PT_FACTOR_BAND:
            return g > 0.0
        return _family_factor(*map(Fraction, row)) >= 0

    # every family is the identity channel, never EB, at t = 0
    lo, hi = 0.0, float(t_max)
    if not is_eb(hi):
        return None
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


def _homogenization(e1, e2, w: float) -> dict:
    """f1, f2, f and cf_eb of homogenization with damping e1 = e^{-t/T1}, e2 = e^{-t/T2}.

    One expression on Python floats or numpy columns alike.  Every
    square is a product, so correctly rounded, and numpy rounds each
    operation on a column as Python rounds it on a float: a scan, which
    passes its own rows' e1, holds in its f-columns the bits of
    `homogenization_f` and `homogenization_eb_condition` at each time.
    """
    d = 1.0 - e1
    b = e1 + e2
    f1 = (1.0 - w * w) * (d * d) - 4.0 * e2 * e2
    f2 = 1.0 - e2 - np.sqrt(b * b + w * w * (d * d))
    # the family's singular values (e2, e2, e1) and translation
    # w (1 - e1) along z, in the single-axis criterion
    cf_eb = uniaxial_eb_condition(np.stack([e2, e2, e1], axis=-1), w * d, axis=2)
    return {"f1": f1, "f2": f2, "f": np.minimum(f1, f2), "cf_eb": cf_eb}


def _damping(t: float, T1: float, T2: float) -> tuple[float, float]:
    # e1 and e2 in Python floats: -t / T overflows to -inf quietly, and a
    # zero time constant raises ZeroDivisionError
    t = float(t)
    return math.exp(-t / float(T1)), math.exp(-t / float(T2))


def homogenization_f(t: float, T1: float, T2: float, w: float) -> HomogenizationF:
    """Literal indicator pair for the homogenization family, f = min(f1, f2).

    f1 >= 0 is equivalent to the single-axis closed-form EB criterion for
    this family.  f2 as written mixes the two damping factors in a way
    that does not follow from that criterion; it is kept verbatim as a
    reported diagnostic, and scans carry it next to the oracle verdict so
    the disagreement is visible rather than silently patched.

    Squares are correctly rounded products.  A homogenization scan's
    f1/f2/f columns equal these values bit for bit at each row's time:
    both evaluate `_homogenization`, the scan on e1 of its own rows.
    """
    values = _homogenization(*_damping(t, T1, T2), w)
    return HomogenizationF(f1=float(values["f1"]), f2=float(values["f2"]), f=float(values["f"]))


def homogenization_eb_condition(t: float, T1: float, T2: float, w: float) -> bool:
    """Closed-form EB verdict for homogenization at time t.

    Plugs the family's singular values (e^{-t/T2}, e^{-t/T2}, e^{-t/T1})
    and translation w(1 - e^{-t/T1}) into the single-axis criterion; this
    is the authoritative closed-form verdict for the family.
    """
    return _homogenization(*_damping(t, T1, T2), w)["cf_eb"]


@dataclass(frozen=True)
class TimeScan:
    """Uniform time grid of EB diagnostics for one dynamical family.

    `columns` maps each published column name, in CSV order, to one array
    over the grid: t, lam1..lam3, margin, is_eb, and for homogenization
    also f1, f2, f and cf_eb.
    """

    family: DynamicalFamily
    columns: dict[str, np.ndarray] = field(repr=False)


def _two_prod(a, b):
    # p + e = a b exactly unless a b underflows (Dekker, Numer. Math. 18,
    # 224 (1971)); with |a|, |b| <= 2^53 the split by 2^27 + 1 cannot overflow
    p, x, y = a * b, a * 134217729.0, b * 134217729.0
    ah, bh = x - (x - a), y - (y - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _margins(c, s, e1, n3, r):
    """PT and Choi minima (1 -+ e1 - b) / 4 of `_columns` rows, r = |c + i s|.

    The PT minimum is g / (4 (d + b)), d = 1 - e1, or else (d - 2 r) / 4
    where d = 0 (so n3 = 0), as c^2 + s^2 can underflow; g = 0 is -4 r^2
    underflowed, so -0 if r > 0.  g sums five exact products and their
    errors on the row times 2^53, where no product that moves a margin
    underflows, d^2 - n3^2 first (exact at w = 1), by Sum2 (Ogita, Rump,
    Oishi, SIAM J. Sci. Comput. 26, 1955 (2005)).  With u = 2^-53 and S =
    d^2 + n3^2 + 4 (c^2 + s^2) <= 6, g is off by < u |g| + 24 u^2 S; b, d +
    b and the quotient add <= 4u.  300k random rows were within 2.8 ulps.
    """
    d = 1.0 - e1
    dl = (1.0 - d) - e1  # d + dl = 1 - e1 exactly, as 0 <= e1 <= 1
    d, dl, c, s, n3 = (x * 2.0**53 for x in (d, dl, c, s, n3))  # exact
    (dd, dde), (nn, nne), (dx, dxe) = _two_prod(d, d), _two_prod(n3, n3), _two_prod(d, dl)
    (cc, cce), (ss, sse) = _two_prod(c, c), _two_prod(s, s)
    g, low = dd, ((dde - nne) + 2.0 * dxe) + (dl * dl - 4.0 * (cce + sse))
    for x in (-nn, 2.0 * dx, -4.0 * cc, -4.0 * ss):  # Knuth's TwoSum
        z = (total := g + x) - g
        g, low = total, low + ((g - (total - z)) + (x - z))
    g = np.where(g + low == 0.0, np.where(r > 0.0, -0.0, 0.0), g + low)
    b = np.sqrt(4.0 * (cc + ss) + nn)
    margins = np.divide(g, 2.0**55 * (d + b), out=(d - 2.0 * r) / 4.0, where=d > 0.0)
    return margins, (1.0 + e1 - b / 2.0**53) / 4.0


def scan(
    family: DynamicalFamily, t_min: float, t_max: float, steps: int
) -> TimeScan:
    """Sample the family on a uniform grid of `steps` times.

    One `_columns` call on the column of times builds the rows (c, s, e1,
    n3), bit for bit the rows `channel_at` and `eb_onset` build one time
    at a time, and the e2 column of the homogenization diagnostics.
    Margins and CP gates are closed forms of the rows (`_margins`), and
    lam1..lam3 are |c + i s| twice and e1.  Homogenization scans also
    carry the f1/f2/f diagnostics and the closed-form verdict column cf_eb.
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
    rates = _rates(family)
    c, s, e1, n3, e2 = _columns(rates, times)
    # (r, r, e1) sorted descending, r by math.hypot (numpy's can miss a bit)
    r = np.fromiter(map(math.hypot, c.tolist(), s.tolist()), float, steps)
    margins, choi_min = _margins(c, s, e1, n3, r)
    # the Choi diagonal at 0 and 3, (1 - e1 -+ n3) / 4, is >= -ulp (|n3| <= fl(1 - e1)), and
    # Jacobi on the block at 1 and 2 is within a few eps of choi_min: sweep rows that may fail
    for t in times[choi_min < -CP_TOL + 1e-12].tolist():
        _choi_min(choi(channel_at(family, t))[1:3, 1:3])
    columns = {
        "t": times,
        "lam1": np.maximum(r, e1),
        "lam2": r,
        "lam3": np.minimum(r, e1),
        "margin": margins,
        "is_eb": _is_eb(margins),
    }
    if isinstance(family, Homogenization):
        columns.update(_homogenization(e1, e2, rates[2]))
    return TimeScan(family, columns)


_CSV_BOOLS = np.array(["false", "true"], dtype=object)


def scan_to_csv(result: TimeScan) -> str:
    """Render a scan in the published CSV row format (17 significant digits).

    Each distinct float of the table, told apart by its bits so that -0
    stays apart from 0, is formatted once and its text indexed back into
    every cell holding it: lam1..lam3 are copies of r and e1, and f is f1
    or f2.  "%.17g" % x is format(x, ".17g"), and one joined format string
    formats them all in one call.
    """
    columns = result.columns.values()
    floats = np.stack([column for column in columns if column.dtype != bool])
    bits, inverse = np.unique(floats.view(np.int64), return_inverse=True)
    texts = ("\n".join(["%.17g"] * len(bits)) % tuple(bits.view(float).tolist())).split("\n")
    float_cells = iter(np.array(texts, dtype=object)[inverse.reshape(floats.shape)])
    cells = [
        _CSV_BOOLS[column.view(np.uint8)] if column.dtype == bool else next(float_cells)
        for column in columns
    ]
    lines = [",".join(result.columns), *map(",".join, zip(*(cell.tolist() for cell in cells)))]
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
