import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebchannels import (
    Decoherence,
    Depolarization,
    Homogenization,
    canonical_form,
    channel_at,
    compose,
    eb_onset,
    homogenization_eb_condition,
    homogenization_f,
    is_eb_numeric,
    pt_margin,
    scan,
    scan_to_csv,
    validate_cptp,
)
from ebchannels import channel, ebtest, linalg, markov
from ebchannels.channel import QubitChannelAffine
from ebchannels.errors import InvalidParameter, NegativeTime, NotCP
from ebchannels.linalg import _elementwise
from ebchannels.tolerances import CLOSED_FORM_TOL, KNIFE_EDGE_BAND
from helpers import exact_pt_factor

FAMILIES = [
    Decoherence(T=1.0, omega=5.0),
    Depolarization(T=1.0),
    Homogenization(T1=1.0, T2=2.0, w=0.5, omega=3.0),
]


@pytest.mark.parametrize("family", FAMILIES)
def test_identity_at_time_zero(family):
    phi = channel_at(family, 0.0)
    assert np.allclose(phi.M, np.eye(3))
    assert np.allclose(phi.n, 0.0)


def test_parameter_validation():
    with pytest.raises(InvalidParameter):
        Depolarization(T=0.0)
    with pytest.raises(InvalidParameter):
        Homogenization(T1=1.0, T2=1.0, w=1.5)
    with pytest.raises(NegativeTime):
        channel_at(Depolarization(T=1.0), -0.1)


def test_depolarization_hits_one_third():
    phi = channel_at(Depolarization(T=1.0), math.log(3.0))
    assert np.allclose(phi.M, np.eye(3) / 3.0, atol=1e-15)


@pytest.mark.parametrize("family", FAMILIES)
def test_channel_at_refuses_a_non_finite_time(family):
    for t in (math.inf, math.nan):
        with pytest.raises(InvalidParameter, match=f"^time must be finite, got {t}$"):
            channel_at(family, t)
    with pytest.raises(NegativeTime):
        channel_at(family, -math.inf)


def _numpy_params(family, times):
    # the per-family numpy builder `_params` replaced, kept as a reference
    k = len(times)
    n = np.zeros((k, 3))
    m = np.zeros((k, 3, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(family, Depolarization):
            m[:] = _elementwise(math.exp, -times / family.T)[:, None, None] * np.eye(3)
            return n, m
        if isinstance(family, Decoherence):
            damping = _elementwise(math.exp, -times / family.T)
            m[:, 2, 2] = 1.0
        else:
            damping = _elementwise(math.exp, -times / family.T2)
            m[:, 2, 2] = _elementwise(math.exp, -times / family.T1)
            n[:, 2] = family.w * (1.0 - m[:, 2, 2])
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


def _params(family, times):
    # translations (k, 3) and contractions (k, 3, 3) of the family's
    # channels at the k times, as `channel_at` builds them from `_row`
    channels = [channel_at(family, t) for t in times.tolist()]
    return np.stack([phi.n for phi in channels]), np.stack([phi.M for phi in channels])


def _random_grids(rng, count):
    # families on grids of every length the scans use, with time constants
    # scaled down to 1e-300 and grids stretched up to 1e300 now and then
    for _ in range(count):
        T1, T2 = rng.uniform(0.05, 5.0, 2) * rng.choice([1e-300, 1e-3, 1.0, 1.0, 1.0])
        t_max = rng.uniform(0.1, 60.0) * rng.choice([1.0, 1.0, 1.0, 1e3, 1e300])
        w = float(rng.choice([0.0, 1.0, rng.uniform()]))
        omega = float(rng.choice([0.0, rng.uniform(-20.0, 20.0)]))
        times = np.linspace(0.0, t_max, rng.choice([1, 2, 16, 200, 301]))
        for family in (
            Decoherence(T=T1, omega=omega),
            Depolarization(T=T1),
            Homogenization(T1=T1, T2=T2, w=w, omega=omega),
        ):
            yield family, times


def test_params_equal_the_numpy_builder_bit_for_bit():
    # up to the sign of zero at M[1, 0], which depolarization now shares
    # with homogenization at omega = 0
    for family, times in _random_grids(np.random.default_rng(71), 200):
        n, m = _params(family, times)
        n_ref, m_ref = _numpy_params(family, times)
        assert n.tobytes() == n_ref.tobytes()
        assert (m + 0.0).tobytes() == (m_ref + 0.0).tobytes()


@pytest.mark.parametrize(
    "family, t_max",
    [
        (Decoherence(T=1.0, omega=math.inf), 1.0),
        (Homogenization(T1=1.0, T2=1.0, w=0.5, omega=-math.inf), 1.0),
        (Decoherence(T=1.0, omega=1e10), 1e300),
        (Homogenization(T1=1.0, T2=1.0, w=0.5, omega=-1e10), 1e300),
    ],
)
def test_params_reject_a_non_finite_angle_as_the_numpy_builder(family, t_max):
    # the first time of the grid whose angle is not finite, in `channel_at`
    # and in a scan
    times = np.linspace(0.0, t_max, 16)
    with pytest.raises(InvalidParameter) as expected:
        _numpy_params(family, times)
    with pytest.raises(InvalidParameter) as excinfo:
        _params(family, times)
    assert str(excinfo.value) == str(expected.value)
    with pytest.raises(InvalidParameter) as excinfo:
        scan(family, 0.0, t_max, 16)
    assert str(excinfo.value) == str(expected.value)


def test_row_columns_equal_the_float_rows_bit_for_bit():
    # numpy rounds + - * / as Python does and exp, cos and sin are math's
    # on each time, so a column's rows are the float rows, signs of zero
    # included, on grids with T down to 1e-300 and t up to 1e300
    for family, times in _random_grids(np.random.default_rng(76), 200):
        rates = markov._rates(family)
        columns = np.array(markov._columns(rates, times)[:4])
        rows = np.array([markov._row(rates, t) for t in times.tolist()])
        assert columns.tobytes() == rows.T.tobytes()


@pytest.mark.parametrize("family", FAMILIES)
def test_scan_builds_its_rows_in_one_row_call(monkeypatch, family):
    calls = []
    columns = markov._columns

    def counting_columns(rates, t):
        calls.append(t)
        return columns(rates, t)

    monkeypatch.setattr(markov, "_columns", counting_columns)
    scan(family, 0.0, 6.0, 301)
    assert len(calls) == 1
    assert isinstance(calls[0], np.ndarray) and len(calls[0]) == 301


@pytest.mark.parametrize(
    "family, per_time",
    [(Homogenization(T1=1.0, T2=0.6, w=0.4, omega=2.0), 2), (Depolarization(T=1.0), 1)],
)
def test_scan_takes_each_exponential_once(monkeypatch, family, per_time):
    # e1 and e2 for homogenization, its rows and its f-columns alike;
    # depolarization damps every axis by e1
    exps = []
    elementwise = markov._elementwise

    def counting(fn, x):
        if fn is math.exp:
            exps.append(np.size(x))
        return elementwise(fn, x)

    monkeypatch.setattr(markov, "_elementwise", counting)
    scan(family, 0.0, 6.0, 200)
    assert sum(exps) == per_time * 200


def _as_homogenization(family):
    if isinstance(family, Decoherence):
        return Homogenization(T1=math.inf, T2=family.T, w=0.0, omega=family.omega)
    return Homogenization(T1=family.T, T2=family.T, w=0.0, omega=0.0)


def test_decoherence_and_depolarization_params_are_homogenizations():
    for family, times in _random_grids(np.random.default_rng(72), 100):
        if not isinstance(family, Homogenization):
            twin = _as_homogenization(family)
            for one, other in zip(_params(family, times), _params(twin, times)):
                assert one.tobytes() == other.tobytes()


@pytest.mark.parametrize(
    "family",
    [Decoherence(T=1.0, omega=5.0), Decoherence(T=0.3, omega=0.0), Depolarization(T=1.0)],
)
def test_decoherence_and_depolarization_scan_and_onset_as_homogenizations(family):
    twin = _as_homogenization(family)
    for t_max in (0.5, 3.0, 60.0):
        columns = scan(family, 0.0, t_max, 301).columns
        twin_columns = scan(twin, 0.0, t_max, 301).columns
        for name in ("margin", "lam1", "lam2", "lam3"):
            assert columns[name].tobytes() == twin_columns[name].tobytes()
        assert eb_onset(family, t_max) == eb_onset(twin, t_max)


def test_homogenization_canonical_parameters():
    t, T1, T2, w = 0.8, 1.3, 0.6, 0.7
    phi = channel_at(Homogenization(T1=T1, T2=T2, w=w, omega=4.0), t)
    e1, e2 = math.exp(-t / T1), math.exp(-t / T2)
    canon = canonical_form(phi)
    assert np.allclose(sorted(np.abs(canon.lam)), sorted([e1, e2, e2]), atol=1e-12)
    # the translation lives on a single canonical axis with magnitude w(1 - e1)
    mags = np.sort(np.abs(canon.n))
    assert mags[0] < 1e-12 and mags[1] < 1e-12
    assert abs(mags[2] - w * (1.0 - e1)) < 1e-12


@pytest.mark.parametrize(
    "family",
    [
        Decoherence(T=1.0, omega=0.7),
        Depolarization(T=1.0),
        Homogenization(T1=1.4, T2=0.9, w=0.6, omega=1.1),
    ],
)
def test_semigroup_property(family):
    rng = np.random.default_rng(51)
    for _ in range(20):
        s, t = rng.uniform(0.0, 3.0, 2)
        whole = channel_at(family, s + t)
        parts = compose(channel_at(family, s), channel_at(family, t))
        assert np.abs(whole.M - parts.M).max() < 1e-10
        assert np.abs(whole.n - parts.n).max() < 1e-10


def test_omega_independence():
    for omega in (0.0, 1.0, 17.3):
        fam = Decoherence(T=1.0, omega=omega)
        ref = Decoherence(T=1.0, omega=0.0)
        for t in (0.3, 1.7, 4.0):
            assert abs(
                pt_margin(channel_at(fam, t)) - pt_margin(channel_at(ref, t))
            ) < 1e-10
    for omega in (0.0, 1.0, 17.3):
        fam = Homogenization(T1=1.0, T2=2.0, w=0.4, omega=omega)
        ref = Homogenization(T1=1.0, T2=2.0, w=0.4, omega=0.0)
        for t in (0.3, 1.7, 4.0):
            assert abs(
                pt_margin(channel_at(fam, t)) - pt_margin(channel_at(ref, t))
            ) < 1e-10


def test_depolarization_onset_is_log_three():
    onset = eb_onset(Depolarization(T=1.0), 10.0)
    assert onset is not None
    assert abs(onset - math.log(3.0)) < 1e-8


def test_depolarization_margin_monotone():
    fam = Depolarization(T=1.0)
    margins = [pt_margin(channel_at(fam, t)) for t in np.linspace(0.0, 10.0, 1000)]
    assert all(b >= a - 1e-14 for a, b in zip(margins, margins[1:]))


def test_decoherence_never_eb():
    assert eb_onset(Decoherence(T=1.0, omega=5.0), 50.0) is None
    for t in np.linspace(0.05, 50.0, 200):
        assert pt_margin(channel_at(Decoherence(T=1.0, omega=5.0), float(t))) < 0.0


def test_homogenization_pure_fixed_point_never_eb():
    # (1 - e1) >= sqrt(4 e2^2 + (1 - e1)^2) is impossible for finite t, so
    # w = 1 never breaks entanglement; the violation shrinks like e^{-2t/T2}
    # though, falling under the closed form's 1e-12 slack around t ~ 14 and
    # under the eigensolver's resolution around t ~ 18, so the tolerance-
    # bound checks run on the resolvable window and a cancellation-free
    # margin bound covers the rest.  The float rows' exact factor is
    # rounding noise by t = 30, where n3 = fl(1 - e1) != 1 - e1 makes it
    # positive, and 0 past t ~ 745, where e2 underflows: the onset is none
    # by the family's rule
    fam = Homogenization(T1=1.0, T2=1.0, w=1.0)
    for t_max in (15.0, 50.0, 2000.0):
        assert eb_onset(fam, t_max) is None
    assert exact_pt_factor(*_row(fam, 30.0)) > 0
    assert exact_pt_factor(*_row(fam, 2000.0)) == 0
    for t in np.linspace(0.01, 13.0, 200):
        assert not homogenization_eb_condition(float(t), 1.0, 1.0, 1.0)
    for t in np.linspace(0.01, 100.0, 500):
        e1 = math.exp(-float(t))
        e2 = math.exp(-float(t))
        x = 1.0 - e1
        assert -(4.0 * e2 * e2) / (math.sqrt(x * x + 4.0 * e2 * e2) + x) < 0.0


def test_homogenization_f_values():
    f = homogenization_f(0.0, 1.0, 1.0, 0.5)
    assert f.f1 == -4.0
    assert f.f2 == -2.0
    assert f.f == -4.0
    f = homogenization_f(1e9, 1.0, 1.0, 0.5)  # effectively t -> infinity
    assert abs(f.f1 - 0.75) < 1e-12
    assert abs(f.f2 - 0.5) < 1e-12
    assert abs(f.f - 0.5) < 1e-12


@pytest.mark.parametrize("t, T1, T2", [(1.0, 0.0, 1.0), (0.0, 0.0, 1.0), (1.0, 1.0, 0.0)])
def test_homogenization_closed_forms_reject_a_zero_time_constant(t, T1, T2):
    # an exception, as scalar float division raises, not a warning and a value
    with pytest.raises(ArithmeticError):
        homogenization_f(t, T1, T2, 0.5)
    with pytest.raises(ArithmeticError):
        homogenization_eb_condition(t, T1, T2, 0.5)


def test_homogenization_f_sign_change_along_time():
    # with w = 0.5 and T1 = T2 the indicator starts negative and crosses zero
    values = [homogenization_f(t, 1.0, 1.0, 0.5).f for t in np.linspace(0.01, 8.0, 200)]
    assert values[0] < 0.0
    assert max(values) > 0.0


def test_homogenization_family_cp_domain():
    # the family is a channel for all t only when T2 <= 2 T1; outside that
    # the would-be Choi state picks up a negative eigenvalue
    from ebchannels import validate_cptp

    assert validate_cptp(channel_at(Homogenization(T1=1.0, T2=2.0, w=0.5), 1.3)).is_cp
    # violation shows up at small t, where the transverse contraction outruns
    # the longitudinal one
    report = validate_cptp(channel_at(Homogenization(T1=0.3, T2=1.0, w=0.5), 0.2))
    assert not report.is_cp


def test_homogenization_condition_endpoints():
    # identity channel at t = 0 is never EB
    assert not homogenization_eb_condition(0.0, 1.0, 1.0, 0.5)
    # w = 0 at large t: transverse damping beats half the contraction depth
    t = 3.0
    assert math.exp(-t) <= (1.0 - math.exp(-t)) / 2.0
    assert homogenization_eb_condition(t, 1.0, 1.0, 0.0)


def test_homogenization_condition_matches_numeric_on_grid():
    for w in (0.0, 0.5):
        for t in np.linspace(0.2, 5.0, 12):
            for ratio in (0.6, 1.0, 3.0):
                verdict = is_eb_numeric(
                    channel_at(Homogenization(T1=ratio, T2=1.0, w=w), float(t))
                )
                if abs(verdict.margin) > 1e-9:
                    assert (
                        homogenization_eb_condition(float(t), ratio, 1.0, w)
                        == verdict.is_eb
                    )


def test_homogenization_condition_antitone_in_w():
    for t in np.linspace(0.3, 5.0, 10):
        for ratio in (0.6, 1.0, 3.0):
            previous = True
            for w in (0.0, 0.3, 0.7, 1.0):
                current = homogenization_eb_condition(float(t), ratio, 1.0, w)
                assert previous or not current  # EB at larger w implies EB at smaller
                previous = current


def test_scan_depolarization_flips_once_at_onset():
    columns = scan(Depolarization(T=1.0), 0.0, 3.0, 301).columns
    flags = columns["is_eb"].tolist()
    flips = sum(a != b for a, b in zip(flags, flags[1:]))
    assert flips == 1
    first_eb = next(t for t, eb in zip(columns["t"].tolist(), flags) if eb)
    assert abs(first_eb - math.log(3.0)) < 3.0 / 300 + 1e-12


def test_scan_decoherence_all_false():
    result = scan(Decoherence(T=1.0, omega=5.0), 0.0, 10.0, 101)
    assert not result.columns["is_eb"].any()


def test_scan_homogenization_rows_carry_f_columns():
    columns = scan(Homogenization(T1=1.0, T2=1.0, w=0.3), 0.1, 5.0, 40).columns
    assert list(columns)[6:] == ["f1", "f2", "f", "cf_eb"]
    assert all(len(column) == 40 for column in columns.values())
    for f1, f2, f in zip(columns["f1"], columns["f2"], columns["f"]):
        assert f == min(f1, f2)
    assert columns["cf_eb"].dtype == bool
    # f crosses zero in the scanned region for small w but never for w = 1
    assert (columns["f"] > 0).any()
    pure = scan(Homogenization(T1=1.0, T2=1.0, w=1.0), 0.1, 5.0, 40).columns
    assert (pure["f"] < 0).all()
    assert not pure["is_eb"].any()


def _scalar_homogenization(t, T1, T2, w):
    # the closed forms in scalar Python arithmetic, as written in the paper,
    # each square a correctly rounded product
    e1 = math.exp(-t / T1)
    e2 = math.exp(-t / T2)
    d, total = 1.0 - e1, e1 + e2
    f1 = (1.0 - w * w) * (d * d) - 4.0 * e2 * e2
    f2 = 1.0 - e2 - math.sqrt(total * total + w * w * (d * d))
    n3 = w * d
    plus, minus = e2 + e2, e2 - e2
    lhs = min(1.0 - e1, 1.0 + e1)
    rhs = max(math.sqrt(plus * plus + n3 * n3), math.sqrt(minus * minus + n3 * n3))
    return f1, f2, min(f1, f2), lhs >= rhs - CLOSED_FORM_TOL


def _homogenization_scans():
    # on row 276 of the first scan libm's (e1 + e2) ** 2 misses the
    # correctly rounded square by an ulp, and the product does not
    # (`test_scan_f2_squares_by_multiplying`)
    yield Homogenization(T1=3.0, T2=2.5, w=0.5), 5.0
    rng = np.random.default_rng(61)
    for _ in range(40):
        T1 = float(rng.uniform(0.3, 3.0))
        T2 = T1 * float(rng.uniform(0.6, 1.95))
        w = float(rng.choice([0.0, 1.0, rng.uniform()]))
        yield Homogenization(T1=T1, T2=T2, w=w), float(rng.uniform(0.5, 50.0))


def test_scan_homogenization_columns_equal_the_closed_forms():
    for family, t_max in _homogenization_scans():
        columns = scan(family, 0.0, t_max, 301).columns
        args = (family.T1, family.T2, family.w)
        for i, t in enumerate(columns["t"].tolist()):
            fvals = homogenization_f(t, *args)
            row = (columns["f1"][i], columns["f2"][i], columns["f"][i], columns["cf_eb"][i])
            assert row == (fvals.f1, fvals.f2, fvals.f, homogenization_eb_condition(t, *args))
            assert row == _scalar_homogenization(t, *args)


def test_scan_f2_squares_by_multiplying():
    family = Homogenization(T1=3.0, T2=2.5, w=0.5)
    columns = scan(family, 0.0, 5.0, 301).columns
    t = columns["t"].tolist()[276]
    e1, e2 = math.exp(-t / 3.0), math.exp(-t / 2.5)
    total = e1 + e2
    exact = float(Fraction(total) ** 2)
    assert total * total == exact
    assert total**2 != exact  # libm pow misrounds this square
    d = 1.0 - e1
    f2 = 1.0 - e2 - math.sqrt(total * total + 0.5 * 0.5 * (d * d))
    assert columns["f2"][276] == f2 == homogenization_f(t, 3.0, 2.5, 0.5).f2


def test_scan_homogenization_on_overflow_grids_equals_the_closed_forms():
    # -t / T2 overflows to -inf for t past ~1e8 here: e2 is 0 quietly, as
    # in Python floats, and no RuntimeWarning is raised
    for T1, T2, w in [(1e-300, 1e-300, 0.5), (1.0, 1e-300, 0.0), (1e300, 1e-300, 1.0)]:
        family = Homogenization(T1=T1, T2=T2, w=w)
        columns = scan(family, 0.0, 1e300, 41).columns
        assert columns["t"][-1] == 1e300
        for i, t in enumerate(columns["t"].tolist()):
            fvals = homogenization_f(t, T1, T2, w)
            row = (columns["f1"][i], columns["f2"][i], columns["f"][i], columns["cf_eb"][i])
            assert row == (fvals.f1, fvals.f2, fvals.f, homogenization_eb_condition(t, T1, T2, w))


def test_scan_validation():
    with pytest.raises(InvalidParameter):
        scan(Depolarization(T=1.0), 0.0, 1.0, 1)
    with pytest.raises(InvalidParameter):
        scan(Depolarization(T=1.0), 2.0, 1.0, 10)
    for steps in (10**17, 10**23):  # numpy refuses both before allocating
        with pytest.raises(InvalidParameter, match=f"steps = {steps} is too large"):
            scan(Depolarization(T=1.0), 0.0, 1.0, steps)


def test_scan_csv_format():
    result = scan(Homogenization(T1=1.0, T2=1.0, w=0.5), 0.0, 1.0, 3)
    text = scan_to_csv(result)
    lines = text.strip().split("\n")
    assert lines[0] == "t,lam1,lam2,lam3,margin,is_eb,f1,f2,f,cf_eb"
    assert len(lines) == 4
    cells = lines[1].split(",")
    assert cells[0] == "0"
    assert cells[5] == "false"
    # locale-independent floats: dot separator, enough digits to round-trip
    margin = float(cells[4])
    assert abs(margin - (-0.5)) < 1e-15
    assert format(margin, ".17g") == cells[4]
    plain = scan_to_csv(scan(Depolarization(T=1.0), 0.0, 1.0, 3))
    assert plain.startswith("t,lam1,lam2,lam3,margin,is_eb\n")


@pytest.mark.parametrize(
    "family, t_max",
    [
        (Depolarization(T=1.0), 10.0),
        # the crossing falls at a fifth of t_max
        (Depolarization(T=1.0), math.log(3.0) * 999 / 199.5),
        (Homogenization(T1=1.0, T2=1.0, w=0.5, omega=3.0), 8.0),
        # EB at no time
        (Decoherence(T=1.0, omega=5.0), 50.0),
        # the crossing falls just before t_max
        (Depolarization(T=1.0), math.log(3.0) * 999 / 998.5),
        # the crossing falls near 0 on the scale of t_max
        (Depolarization(T=1.0), 1100.0),
        # the crossing is t_max itself
        (Depolarization(T=1.0), math.log(3.0)),
        # the onset T ln 3 ~ 1.1e-320 lies below the 1e-9 absolute bound
        (Depolarization(T=1e-320), 5.0),
    ],
)
def test_eb_onset_brackets_the_exact_crossing(family, t_max):
    # the reported onset's float row is exactly EB, and the row 1e-9
    # max(1, onset) before it, when that time is positive, is not
    onset = eb_onset(family, t_max)
    if onset is None:
        assert exact_pt_factor(*_row(family, t_max)) < 0
        return
    assert 0.0 < onset <= t_max
    assert exact_pt_factor(*_row(family, onset)) >= 0
    before = onset - 1e-9 * max(1.0, onset)
    if before > 0.0:
        assert exact_pt_factor(*_row(family, before)) < 0


def _count_probes(monkeypatch):
    # the decider of each probe: every probe reads the family factor in
    # floats first, and the probes inside its band read it again exactly
    probes = []
    family_factor = markov._family_factor

    def counting_family_factor(c, s, e1, n3):
        if all(type(x) is Fraction for x in (c, s, e1, n3)):
            probes[-1] = "exact"
        else:
            # a probe in Python floats costs a fifth of one in numpy scalars
            assert all(type(x) is float for x in (c, s, e1, n3)), "probe off Python floats"
            probes.append("factor")
        return family_factor(c, s, e1, n3)

    monkeypatch.setattr(markov, "_family_factor", counting_family_factor)
    return probes


def test_eb_onset_probes_once_without_crossing(monkeypatch):
    # a family not EB at t_max takes one probe there, and a family that is
    # EB at no time none
    probes = _count_probes(monkeypatch)
    assert eb_onset(Homogenization(T1=1.0, T2=1.0, w=0.5), 1.0) is None
    assert probes == ["factor"]
    probes.clear()
    assert eb_onset(Decoherence(T=1.0, omega=5.0), 50.0) is None
    assert probes == []


@pytest.mark.parametrize(
    "family, t_max",
    [
        (Decoherence(T=1.0, omega=5.0), 3000.0),
        (Homogenization(T1=1.0, T2=1.0, w=1.0), 2000.0),
        (Homogenization(T1=math.inf, T2=1.0, w=0.5), 3000.0),
        (Depolarization(T=math.inf), 50.0),
    ],
)
def test_never_eb_families_report_no_onset_without_a_probe(monkeypatch, family, t_max):
    # T1 = inf or w = 1.  Past t ~ 745 T2 e2 underflows, and the float
    # row's exact factor is 0: a probe would read the channel as EB
    probes = _count_probes(monkeypatch)
    assert eb_onset(family, t_max) is None
    assert probes == []
    if t_max > 745.0:
        assert exact_pt_factor(*_row(family, t_max)) == 0


def test_eb_onset_bisects_the_crossing(monkeypatch):
    probes = _count_probes(monkeypatch)
    assert eb_onset(Depolarization(T=1.0), 10.0) is not None
    assert len(probes) <= 40
    assert probes.count("exact") == 0


def test_eb_onset_bisects_a_non_cp_crossing_without_jacobi(monkeypatch):
    # T2 = 5 T1 takes the family out of CP at some times; the factor's sign
    # is its verdict all the same
    family = Homogenization(0.5, 2.5, 0.3, 1.0)
    probes = _count_probes(monkeypatch)
    onset = eb_onset(family, 10.0)
    assert onset is not None and probes.count("exact") == 0
    monkeypatch.undo()
    assert onset == _jacobi_onset(family, 10.0)


# w just below 1: g rises only to 1 - w^2 ~ 2e-12, inside the band, so
# most probes around the crossing are decided exactly
_IN_BAND = Homogenization(T1=1.0, T2=1.0, w=1.0 - 1e-12)


def test_eb_onset_decides_in_band_probes_exactly(monkeypatch):
    probes = _count_probes(monkeypatch)
    onset = eb_onset(_IN_BAND, 30.0)
    assert probes.count("exact") >= 20
    assert onset == _exact_onset(_IN_BAND, 30.0)


def _row(family, t):
    phi = channel_at(family, t)
    return phi.n, phi.M


def _row_factor(n, m):
    # g of one family channel's row, in Python floats as `eb_onset`'s probe
    # evaluates it
    (c, s, _), _, (_, _, e1) = m.tolist()
    return markov._family_factor(c, s, e1, n.tolist()[2])


# the rounding bound of `_family_factor`: gamma_4 = 4u / (1 - 4u), u = 2^-53,
# relative to S, and 2^-1072 for the squares that underflow
_GAMMA_4 = Fraction(4, 2**53) / (1 - Fraction(4, 2**53))
_UNDERFLOW = Fraction(1, 2**1072)

# T2 / T1 in [0.05, 8], on both sides of the CP bound T2 <= 2 T1
_factor_families = st.one_of(
    st.builds(
        lambda T1, ratio, w, omega: Homogenization(T1, ratio * T1, w, omega),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.05, max_value=8.0),
        st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
        st.floats(min_value=-20.0, max_value=20.0),
    ),
    st.builds(
        Decoherence,
        T=st.floats(min_value=0.1, max_value=5.0),
        omega=st.floats(min_value=-20.0, max_value=20.0),
    ),
)


@settings(max_examples=500)
# t up to 800 T2 and 6400 T1: past the underflow of both exponentials
@given(_factor_families, st.one_of(st.floats(0.0, 8.0), st.floats(0.0, 800.0)))
def test_pt_factor_rounds_within_its_bound_and_decides_outside_its_band(family, x):
    n, m = _row(family, x * markov._rates(family)[1])
    g = _row_factor(n, m)
    c, s, e1, n3 = map(Fraction, (m[0, 0], m[0, 1], m[2, 2], n[2]))
    size = (1 - e1) ** 2 + 4 * (c * c + s * s) + n3 * n3
    assert abs(Fraction(g) - exact_pt_factor(n, m)) <= _GAMMA_4 * size + _UNDERFLOW
    if abs(g) > markov._PT_FACTOR_BAND:
        assert np.sign(g) == np.sign(pt_margin(QubitChannelAffine(n, m)))


@settings(max_examples=200)
@given(
    st.builds(
        lambda T1, ratio, w, omega: Homogenization(T1, ratio * T1, w, omega),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.05, max_value=8.0),
        # w = 1 never crosses: g = -4 e2^2 in exact arithmetic
        st.floats(min_value=0.0, max_value=0.99),
        st.floats(min_value=-20.0, max_value=20.0),
    )
)
def test_pt_factor_band_covers_the_crossing(family):
    # g = (1 - w^2)(1 - e1)^2 - 4 e2^2 rises from -4 at t = 0 to 1 - w^2:
    # bisect t onto its computed zero, to adjacent floats, and probe around
    # it.  There the sign of g and of the Jacobi margin disagree often
    # enough that with a band of 0 this test fails
    def factor(t):
        return _row_factor(*_row(family, t))

    lo, hi = 0.0, family.T1
    while factor(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if factor(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    offsets = [sign * 10.0**k for k in range(-14, -8) for sign in (-1.0, 1.0)]
    nearby = [math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)]
    for t in [lo, hi, *nearby, *(lo * (1.0 + d) for d in offsets)]:
        n, m = _row(family, t)
        g = _row_factor(n, m)
        if abs(g) > markov._PT_FACTOR_BAND:
            assert (g > 0.0) == (pt_margin(QubitChannelAffine(n, m)) >= 0.0)


def test_family_factor_of_fractions_is_the_exact_factor():
    # the probe's factor on the `Fraction`s of a float row, against the
    # independent exact factor; w = 1 and underflowing e2 give exact zeros
    zeros = 0
    for family, times in _random_grids(np.random.default_rng(74), 12):
        n, m = _params(family, times)
        rates = markov._rates(family)
        for t, row_n, row_m in zip(times.tolist(), n, m):
            g = markov._family_factor(*map(Fraction, markov._row(rates, t)))
            assert type(g) is Fraction and g == exact_pt_factor(row_n, row_m)
            zeros += g == 0
    assert zeros > 0


def test_family_factor_columns_equal_the_probe_values():
    # numpy rounds the columns as Python rounds the probe's floats, so a
    # column of g holds the bits of the per-row values
    for family, times in _random_grids(np.random.default_rng(73), 200):
        n, m = _params(family, times)
        column = markov._family_factor(m[:, 0, 0], m[:, 0, 1], m[:, 2, 2], n[:, 2])
        rows = np.array([_row_factor(row_n, row_m) for row_n, row_m in zip(n, m)])
        assert column.tobytes() == rows.tobytes()


def _exact_sign_families(rng, count):
    # decoherence, depolarization and CP homogenization with w < 1, each
    # with the time constant its scan stretches to 740 T
    for _ in range(count):
        T = float(rng.uniform(0.1, 5.0))
        omega = float(rng.uniform(-20.0, 20.0))
        T2 = T * float(rng.uniform(0.05, 2.0))
        yield Decoherence(T, omega), T
        yield Depolarization(T), T
        yield Homogenization(T, T2, float(rng.uniform(0.0, 0.999)), omega), max(T, T2)


def test_scan_margins_have_the_exact_sign():
    # the Jacobi margin of every row against the exact sign of its family
    # factor: 27000 rows, 8640 of them decoherence margins below 1e-13,
    # down to e^{-740} / 2.  w = 1 is left out: its exact margins are
    # negative but below double resolution at long times, and 1549 of 9000
    # such rows come out as 0.0.  The scan publishes them, read as EB within
    # the verdict tolerance; `eb_onset` reports none for such a family
    for family, T in _exact_sign_families(np.random.default_rng(31), 30):
        columns = scan(family, 0.0, 740.0 * T, 300).columns
        n, m = _params(family, columns["t"])
        for row_n, row_m, margin in zip(n, m, columns["margin"].tolist()):
            g = exact_pt_factor(row_n, row_m)
            assert np.sign(margin) == (g > 0) - (g < 0)


def _exact_margin(c, s, e1, n3):
    # (1 - e1 - b) / 4 of one float row, as g / (4 (1 - e1 + b)) with g
    # exact: an mpf's exponent is unbounded, so at 2400 bits every product
    # and sum here is exact, down to squares of 2^-1074.  1 - e1 - b itself
    # would cancel past 400 bits where e1 or c^2 + s^2 is tiny
    with mpmath.workprec(2400):
        c, s, e1, n3 = map(mpmath.mpf, (c, s, e1, n3))
        squares = 4 * (c * c + s * s) + n3 * n3
        d = 1 - e1
        g = d * d - squares
    with mpmath.workprec(400):
        b = mpmath.sqrt(squares)
        return -b / 4 if d == 0 else g / (4 * (d + b))


def _accuracy_scans(rng):
    # random grids; scans to 740 T, where decoherence rows have d = 0 and
    # margins down to subnormals, and w = 1 rows cancel d^2 - n3^2 exactly;
    # 41 rows within 1e-6 of each onset, where g cancels
    for family, times in _random_grids(rng, 25):
        if len(times) > 1:
            yield family, 0.0, float(times[-1]), len(times)
    for family, T in _exact_sign_families(rng, 12):
        yield family, 0.0, 740.0 * T, 300
        onset = eb_onset(family, 100.0 * T)
        if onset is not None:
            yield family, max(0.0, onset - 1e-6), onset + 1e-6, 41
        if isinstance(family, Homogenization):
            yield Homogenization(family.T1, family.T2, 1.0, family.omega), 0.0, 740.0 * T, 300


def test_scan_margins_are_within_3_ulps_of_the_exact_margins():
    # every margin against the exact (1 - e1 - b) / 4 of its float row.  A
    # margin whose exact value rounds to 0 carries its sign: an exact value
    # in (-2.5e-324, 0) is published as -0 (the Jacobi margins read 0), an
    # exact 0 as 0
    rows = 0
    for family, t_min, t_max, steps in _accuracy_scans(np.random.default_rng(76)):
        try:
            columns = scan(family, t_min, t_max, steps).columns
        except NotCP:
            continue
        rates = markov._rates(family)
        for t, margin in zip(columns["t"].tolist(), columns["margin"].tolist()):
            exact = _exact_margin(*markov._row(rates, t))
            assert abs(mpmath.mpf(margin) - exact) <= 3 * math.ulp(float(exact))
            if margin == 0.0:
                assert math.copysign(1.0, margin) == (-1.0 if exact < 0 else 1.0)
            else:
                assert np.sign(margin) == mpmath.sign(exact)
            rows += 1
    assert rows > 20000


def _bisect_onset(is_eb, t_max):
    # eb_onset's bisection, with the probes of `is_eb`
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


def _jacobi_onset(family, t_max):
    # every probe decided by the Jacobi margin
    return _bisect_onset(lambda t: pt_margin(channel_at(family, t)) >= 0.0, t_max)


def _exact_onset(family, t_max):
    # every probe decided by the exact factor of the float row
    return _bisect_onset(lambda t: exact_pt_factor(*_row(family, t)) >= 0, t_max)


@pytest.mark.parametrize("family", FAMILIES)
def test_eb_onset_rejects_infinite_t_max(family):
    with pytest.raises(InvalidParameter, match="finite"):
        eb_onset(family, float("inf"))


_times = st.floats(min_value=0.0, max_value=8.0)

_families = st.one_of(
    st.builds(Depolarization, T=st.floats(min_value=0.1, max_value=5.0)),
    # T2 <= 2 T1 keeps the family CP at every time
    st.builds(
        lambda T1, ratio, w, omega: Homogenization(T1, ratio * T1, w, omega),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.05, max_value=2.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-20.0, max_value=20.0),
    ),
    st.builds(
        Decoherence,
        T=st.floats(min_value=0.1, max_value=5.0),
        omega=st.floats(min_value=-20.0, max_value=20.0),
    ),
)


# T2 > 2 T1 takes the family out of CP at some times
_non_cp_homogenizations = st.builds(
    lambda T1, ratio, w, omega: Homogenization(T1, ratio * T1, w, omega),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=2.0, max_value=8.0, exclude_min=True),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=-20.0, max_value=20.0),
)


_onset_families = st.one_of(_families, _non_cp_homogenizations)


@settings(max_examples=200)
@given(_onset_families, st.floats(min_value=0.1, max_value=60.0))
# w = 1 is never EB, yet near t = 50, and where e^{-t/T2} underflows,
# the margins of its float rows are rounding noise that can read as EB
@example(Homogenization(1.5114095655303443, 2.5718852850371654, 1.0, 9.343618442948134), 50.0)
@example(Homogenization(T1=1.0, T2=1.0, w=1.0), 2000.0)
@example(_IN_BAND, 30.0)
def test_eb_onset_equals_the_exact_bisection(family, t_max):
    T1, _, w, _ = markov._rates(family)
    never_eb = T1 == math.inf or w == 1.0
    assert eb_onset(family, t_max) == (None if never_eb else _exact_onset(family, t_max))


@settings(max_examples=100)
@given(_onset_families, st.floats(min_value=0.1, max_value=3000.0))
@example(_IN_BAND, 30.0)
def test_eb_onset_calls_no_eigensolver_and_builds_no_channel(family, t_max):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve or channel under eb_onset")

    with pytest.MonkeyPatch.context() as patch:
        for module in (linalg, channel, ebtest):
            patch.setattr(module, "hermitian_eigenvalues", refuse)
        patch.setattr(markov, "channel_at", refuse)
        patch.setattr(markov, "QubitChannelAffine", refuse)
        eb_onset(family, t_max)


# the smallest band the rounding bound of `_family_factor` allows, gamma_4 S
# + 2^-1072 with S <= 6 up to a few eps
_MIN_BAND = 12.1 * 2.0**-52


@settings(max_examples=100)
@given(_onset_families, st.floats(min_value=0.1, max_value=60.0))
@example(_IN_BAND, 30.0)
def test_eb_onset_does_not_depend_on_the_band(family, t_max):
    onset = eb_onset(family, t_max)
    for band in (2.0**-30, _MIN_BAND):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(markov, "_PT_FACTOR_BAND", band)
            assert eb_onset(family, t_max) == onset


def _row_wise_csv(result):
    # the row-by-row writer that `scan_to_csv` replaced, kept as its reference
    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return format(value, ".17g")

    rows = zip(*(column.tolist() for column in result.columns.values()))
    lines = [",".join(result.columns)] + [",".join(map(cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


@settings(max_examples=300)
@given(
    _families,
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.01, max_value=60.0),
    st.integers(min_value=2, max_value=310),
)
# the three named families; the homogenization scan carries both values
# in both bool columns, is_eb and cf_eb
@example(FAMILIES[0], 0.0, 5.0, 301)
@example(FAMILIES[1], 0.5, 2.5, 2)
@example(FAMILIES[2], 0.0, 5.0, 301)
# T1 = T2: lam1 and lam3 swap between r and e1 as they round, and f
# switches between f1 and f2
@example(Homogenization(1.0, 1.0, 0.5, 3.0), 0.0, 5.0, 301)
def test_scan_csv_equals_the_row_wise_writer(family, t_min, width, steps):
    result = scan(family, t_min, t_min + width, steps)
    assert scan_to_csv(result) == _row_wise_csv(result)


def test_scan_csv_keeps_signed_zeros_subnormals_and_repeats_apart():
    # the writer formats each distinct bit pattern once: -0 and 0 within
    # a column and across columns, subnormals of either sign, and 0.1 in
    # several rows and columns each keep their own text
    tiny = 5e-324
    columns = {
        "t": np.array([0.0, -0.0, tiny, -tiny, 1e-310, 0.1]),
        "a": np.array([-0.0, 0.0, 0.1, 0.1, -tiny, 2.2250738585072014e-308]),
        "flag": np.array([True, False, False, True, True, False]),
        "b": np.array([0.1, 0.1, -1e-310, -0.0, math.inf, math.nan]),
    }
    result = markov.TimeScan(Depolarization(T=1.0), columns)
    text = scan_to_csv(result)
    assert text == _row_wise_csv(result)
    assert text.splitlines() == [
        "t,a,flag,b",
        "0,-0,true,0.10000000000000001",
        "-0,0,false,0.10000000000000001",
        "4.9406564584124654e-324,0.10000000000000001,false,-9.9999999999999694e-311",
        "-4.9406564584124654e-324,0.10000000000000001,true,-0",
        "9.9999999999999694e-311,-4.9406564584124654e-324,true,inf",
        "0.10000000000000001,2.2250738585072014e-308,false,nan",
    ]


def test_percent_format_equals_format_on_random_bits():
    # `scan_to_csv` formats with "%.17g" %, the row-wise writer with
    # format(x, ".17g"): random bit patterns (about 1 in 2048 subnormal,
    # as many inf or nan), subnormal patterns and the special values
    rng = np.random.default_rng(77)
    signs = rng.choice(np.array([0, 1 << 63], dtype=np.uint64), 10**3)
    subnormals = rng.integers(0, 2**52, 10**3, dtype=np.uint64) | signs
    bits = np.concatenate([rng.integers(0, 2**64, 10**5, dtype=np.uint64), subnormals])
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.inf, -math.inf, math.nan]
    values = bits.view(float).tolist() + special
    assert ["%.17g" % x for x in values] == [format(x, ".17g") for x in values]


@settings(max_examples=150)
@given(_families, _times, _times)
def test_semigroup_composition(family, s, t):
    whole = channel_at(family, s + t)
    parts = compose(channel_at(family, s), channel_at(family, t))
    assert np.abs(whole.M - parts.M).max() <= 1e-12
    assert np.abs(whole.n - parts.n).max() <= 1e-12


@settings(max_examples=150)
@given(_families, _times, _times)
def test_once_eb_always_eb(family, t, s):
    # an EB channel followed by any channel is EB, so along a semigroup
    # the margin never turns negative again; this is what lets eb_onset
    # bisect for a single crossing
    if pt_margin(channel_at(family, t)) >= KNIFE_EDGE_BAND:
        assert pt_margin(channel_at(family, t + s)) >= 0.0


@pytest.mark.parametrize("family", FAMILIES)
def test_scan_rows_match_per_row_analysis(family):
    columns = scan(family, 0.0, 6.0, 450).columns
    assert all(len(column) == 450 for column in columns.values())
    lams = np.stack([columns["lam1"], columns["lam2"], columns["lam3"]], axis=1)
    for t, row_lam, margin, is_eb in zip(
        columns["t"].tolist(), lams, columns["margin"], columns["is_eb"]
    ):
        phi = channel_at(family, t)
        verdict = is_eb_numeric(phi)
        assert abs(margin - verdict.margin) <= 1e-15
        assert is_eb == verdict.is_eb
        lam = np.abs(canonical_form(phi).lam)
        assert np.abs(row_lam - lam).max() <= 1e-15


def _scan_lam_grids():
    # `_random_grids`' scans that are CP, and the depolarization row whose
    # three singular values LAPACK returned an ulp short: diag(e, e, e) at
    # t = 1000 * 5 / 14, e = exp(-1000 * 5 / 14)
    grids = _random_grids(np.random.default_rng(75), 40)
    for family, times in [(Depolarization(T=1.0), np.linspace(0.0, 1000.0, 15)), *grids]:
        if len(times) < 2:
            continue
        try:
            yield family, times, scan(family, 0.0, float(times[-1]), len(times)).columns
        except NotCP:
            continue


def test_scan_lam_is_correctly_rounded():
    # each row's lam1..lam3 are (|c + i s|, |c + i s|, e1) of its row
    # sorted descending, each within half an ulp of the exact value.  A
    # subnormal |c + i s| is rounded twice, as math.hypot scales subnormal
    # inputs up by 2^1022 and the result back down, so it may miss by a
    # part in 2^53 of its value more
    rows = 0
    with mpmath.workprec(200):
        for family, times, columns in _scan_lam_grids():
            lam = np.stack([columns["lam1"], columns["lam2"], columns["lam3"]], axis=1)
            _, m = _params(family, times)
            expected = []
            for c, s, e1 in zip(m[:, 0, 0].tolist(), m[:, 0, 1].tolist(), m[:, 2, 2].tolist()):
                r = math.hypot(c, s)
                expected.append(sorted((r, r, e1), reverse=True))
                exact_r = mpmath.sqrt(mpmath.mpf(c) ** 2 + mpmath.mpf(s) ** 2)
                bound = mpmath.mpf(math.ulp(r)) / 2
                if r < sys.float_info.min:
                    bound += mpmath.mpf(r) * 2**-53
                assert abs(mpmath.mpf(r) - exact_r) <= bound
            assert lam.tobytes() == np.array(expected).tobytes()
            rows += len(times)
    assert rows > 5000


def test_scan_calls_no_lapack(monkeypatch):
    expected = [scan(family, 0.0, 6.0, 301).columns for family in FAMILIES]

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    for name in ("svd", "eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for family, columns in zip(FAMILIES, expected):
        result = scan(family, 0.0, 6.0, 301).columns
        assert list(result) == list(columns)
        assert all(result[k].tobytes() == columns[k].tobytes() for k in columns)
    with pytest.raises(NotCP):
        scan(Homogenization(0.1, 0.5, 0.5), 0.0, 1.0, 301)


# T2 just past 2 T1: not CP at every time for w = 1, CP at most times below
_edge_homogenizations = st.builds(
    lambda T1, w, omega: Homogenization(T1, 2.0 * T1 * (1.0 + 1e-7), w, omega),
    st.floats(min_value=0.1, max_value=5.0),
    st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
    st.floats(min_value=-20.0, max_value=20.0),
)


def _whole_grid_gate(family, times):
    # the CP gate on every row's whole 4x4 Choi matrix: the NotCP it
    # raises, or None
    try:
        channel._choi_min(channel._choi(*_params(family, times)))
    except NotCP as exc:
        return exc
    return None


@settings(max_examples=400)
@given(
    st.one_of(_families, _non_cp_homogenizations, _edge_homogenizations),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.01, max_value=60.0),
    st.integers(min_value=2, max_value=310),
)
@example(Homogenization(0.1, 0.5, 0.5), 0.0, 1.0, 301)
@example(Homogenization(T1=0.3, T2=1.0, w=0.5), 0.0, 5e-10, 450)
def test_scan_raises_not_cp_as_the_whole_grid_gate(family, t_min, width, steps):
    expected = _whole_grid_gate(family, np.linspace(t_min, t_min + width, steps))
    if expected is None:
        scan(family, t_min, t_min + width, steps)
        return
    with pytest.raises(NotCP) as excinfo:
        scan(family, t_min, t_min + width, steps)
    assert str(excinfo.value) == str(expected)
    assert excinfo.value.min_eig == expected.min_eig


def _block_grids(rng, count):
    # `_random_grids`' scans with T2 up to 8 T1, past the CP bound T2 <= 2 T1
    for _ in range(count):
        T1 = rng.uniform(0.05, 5.0) * rng.choice([1e-300, 1e-3, 1.0, 1.0, 1.0])
        T2 = T1 * rng.uniform(0.05, 8.0)
        t_max = rng.uniform(0.1, 60.0) * rng.choice([1.0, 1.0, 1.0, 1e3, 1e300])
        w = float(rng.choice([0.0, 1.0, rng.uniform()]))
        omega = float(rng.choice([0.0, rng.uniform(-20.0, 20.0)]))
        steps = int(rng.choice([2, 16, 200, 301]))
        for family in (
            Decoherence(T=T1, omega=omega),
            Depolarization(T=T1),
            Homogenization(T1=T1, T2=T2, w=w, omega=omega),
        ):
            yield family, t_max, steps


def _refuse_eigensolves(patch):
    # every module a scan could reach `hermitian_eigenvalues` through
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve under a CP scan")

    for module in (linalg, channel, ebtest):
        patch.setattr(module, "hermitian_eigenvalues", refuse)


@pytest.mark.parametrize(
    "family, t_max",
    [
        *((family, 6.0) for family in FAMILIES),
        # T2 = 2 T1 at w = 1: the smallest Choi eigenvalue is 0 in exact
        # arithmetic at every time
        (Homogenization(T1=1.0, T2=2.0, w=1.0, omega=0.7), 6.0),
        (Homogenization(T1=1.0, T2=2.0, w=1.0), 800.0),
        (Homogenization(T1=0.7, T2=0.5, w=0.0), 60.0),
    ],
)
def test_cp_scan_eigensolves_only_the_pt_stack(monkeypatch, family, t_max):
    # the minima of the PT stack, the margins, and of the Choi stack, the
    # CP gate, are read off their closed forms: a CP scan hands no
    # eigensolver a matrix
    _refuse_eigensolves(monkeypatch)
    scan(family, 0.0, t_max, 301)


def test_scan_blocks_keep_the_bits_of_the_4x4_sweeps():
    # a grid the whole-grid 4x4 gate fails raises that gate's NotCP, text
    # and min_eig bit for bit; one it passes scans with no eigensolver
    grids = _block_grids(np.random.default_rng(74), 300)
    # CP, and near t = 5.4 the PT diagonal is an ulp below the low
    # eigenvalue of the PT block at 0 and 3
    edge = Homogenization(0.11910744920400929, 0.2604894439420786, 0.04531821184396578)
    cp = 0
    for family, t_max, steps in [(edge, 18.131128390980745, 200), *grids]:
        expected = _whole_grid_gate(family, np.linspace(0.0, t_max, steps))
        if expected is not None:
            with pytest.raises(NotCP) as excinfo:
                scan(family, 0.0, t_max, steps)
            assert str(excinfo.value) == str(expected)
            assert excinfo.value.min_eig == expected.min_eig
            continue
        with pytest.MonkeyPatch.context() as patch:
            _refuse_eigensolves(patch)
            scan(family, 0.0, t_max, steps)
        cp += 1
    assert cp > 600


def test_scan_not_cp_carries_first_bad_row():
    # transverse damping outruns longitudinal decay: not CP for small t > 0,
    # and within CP_TOL only until t ~ 3e-10, past the first block of rows
    family = Homogenization(T1=0.3, T2=1.0, w=0.5)
    times = np.linspace(0.0, 5e-10, 450)
    reports = [validate_cptp(channel_at(family, float(t))) for t in times]
    first = next(i for i, r in enumerate(reports) if not r.is_cp)
    assert first > 200
    with pytest.raises(NotCP, match="channel is not CP") as excinfo:
        scan(family, 0.0, 5e-10, 450)
    assert excinfo.value.min_eig == reports[first].min_choi_eig
