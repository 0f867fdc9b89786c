import math
from fractions import Fraction

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
from ebchannels import ebtest, markov
from ebchannels.channel import QubitChannelAffine
from ebchannels.errors import InvalidParameter, NegativeTime, NotCP
from ebchannels.linalg import _elementwise, hermitian_eigenvalues
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
        n, m = markov._params(family, times)
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
    times = np.linspace(0.0, t_max, 16)
    with pytest.raises(InvalidParameter) as expected:
        _numpy_params(family, times)
    with pytest.raises(InvalidParameter) as excinfo:
        markov._params(family, times)
    assert str(excinfo.value) == str(expected.value)


def _as_homogenization(family):
    if isinstance(family, Decoherence):
        return Homogenization(T1=math.inf, T2=family.T, w=0.0, omega=family.omega)
    return Homogenization(T1=family.T, T2=family.T, w=0.0, omega=0.0)


def test_decoherence_and_depolarization_params_are_homogenizations():
    for family, times in _random_grids(np.random.default_rng(72), 100):
        if not isinstance(family, Homogenization):
            twin = _as_homogenization(family)
            for one, other in zip(markov._params(family, times), markov._params(twin, times)):
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
    # margin bound covers the rest
    fam = Homogenization(T1=1.0, T2=1.0, w=1.0)
    assert eb_onset(fam, 15.0) is None
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
    # the closed forms in scalar Python arithmetic, as written in the paper
    e1 = math.exp(-t / T1)
    e2 = math.exp(-t / T2)
    f1 = (1.0 - w * w) * (1.0 - e1) ** 2 - 4.0 * e2 * e2
    f2 = 1.0 - e2 - math.sqrt((e1 + e2) ** 2 + w * w * (1.0 - e1) ** 2)
    n3 = w * (1.0 - e1)
    lhs = min(1.0 - e1, 1.0 + e1)
    rhs = max(math.sqrt((e2 + e2) ** 2 + n3 * n3), math.sqrt((e2 - e2) ** 2 + n3 * n3))
    return f1, f2, min(f1, f2), lhs >= rhs - CLOSED_FORM_TOL


def _homogenization_scans():
    # numpy's array square differs from CPython's x ** 2 in the last bit on
    # row 276 of the first scan
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


def _scalar_onset(family, t_max, coarse_steps):
    # the reference eb_onset must reproduce: a linear walk over the grid,
    # one channel at a time, then the same refinement
    def margin(t):
        return pt_margin(channel_at(family, t))

    times = np.linspace(0.0, t_max, coarse_steps)
    if margin(float(times[0])) >= 0.0:
        return float(times[0])
    for previous, t in zip(times, times[1:]):
        if margin(float(t)) >= 0.0:
            lo, hi = float(previous), float(t)
            break
    else:
        return None
    while hi - lo > 1e-9 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if margin(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize(
    "family, t_max",
    [
        (Depolarization(T=1.0), 10.0),
        # on the 1000-point grid the margin turns nonnegative at index 200
        (Depolarization(T=1.0), math.log(3.0) * 999 / 199.5),
        (Homogenization(T1=1.0, T2=1.0, w=0.5, omega=3.0), 8.0),
        (Decoherence(T=1.0, omega=5.0), 50.0),
        # the crossing falls in the last grid interval
        (Depolarization(T=1.0), math.log(3.0) * 999 / 998.5),
        # the crossing falls in the first grid interval
        (Depolarization(T=1.0), 1100.0),
        # the crossing is t_max itself
        (Depolarization(T=1.0), math.log(3.0)),
    ],
)
def test_eb_onset_matches_scalar_walk(family, t_max):
    assert eb_onset(family, t_max) == _scalar_onset(family, t_max, 1000)


def _count_probes(monkeypatch):
    # the decider of each probe: every probe reads the family factor first,
    # and the probes it leaves go on to Jacobi
    probes = []
    pt_factor = markov._pt_factor

    def counting_pt_factor(n, m):
        probes.append("factor")
        return pt_factor(n, m)

    def counting_pt_margin(phi):
        probes[-1] = "jacobi"
        return ebtest.pt_margin(phi)

    def scalar_only(matrix):
        assert np.ndim(matrix) == 2, "stacked eigensolve under eb_onset"
        return hermitian_eigenvalues(matrix)

    monkeypatch.setattr(markov, "_pt_factor", counting_pt_factor)
    monkeypatch.setattr(markov, "pt_margin", counting_pt_margin)
    monkeypatch.setattr(ebtest, "hermitian_eigenvalues", scalar_only)
    return probes


def test_eb_onset_probes_once_without_crossing(monkeypatch):
    # the factor at t_max, -4 e^{-100}, is far inside its band
    probes = _count_probes(monkeypatch)
    assert eb_onset(Decoherence(T=1.0, omega=5.0), 50.0) is None
    assert probes == ["jacobi"]


def test_eb_onset_bisects_the_crossing(monkeypatch):
    probes = _count_probes(monkeypatch)
    assert eb_onset(Depolarization(T=1.0), 10.0) is not None
    assert len(probes) <= 40
    assert probes.count("jacobi") == 0


def test_eb_onset_bisects_a_non_cp_crossing_without_jacobi(monkeypatch):
    # T2 = 5 T1 takes the family out of CP at some times; the factor's sign
    # is its verdict all the same
    family = Homogenization(0.5, 2.5, 0.3, 1.0)
    probes = _count_probes(monkeypatch)
    onset = eb_onset(family, 10.0)
    assert onset is not None and probes.count("jacobi") == 0
    monkeypatch.undo()
    assert onset == _jacobi_onset(family, 10.0)


def _row(family, t):
    (n,), (m,) = markov._params(family, np.array([t]))
    return n, m


# the rounding bound of `_pt_factor`: gamma_4 = 4u / (1 - 4u), u = 2^-53,
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
    g = markov._pt_factor(n, m)
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
        return markov._pt_factor(*_row(family, t))

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
        g = markov._pt_factor(n, m)
        if abs(g) > markov._PT_FACTOR_BAND:
            assert (g > 0.0) == (pt_margin(QubitChannelAffine(n, m)) >= 0.0)


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
    # such rows come out as 0.0, which reads as EB (ROADMAP item 4)
    for family, T in _exact_sign_families(np.random.default_rng(31), 30):
        columns = scan(family, 0.0, 740.0 * T, 300).columns
        n, m = markov._params(family, columns["t"])
        for row_n, row_m, margin in zip(n, m, columns["margin"].tolist()):
            g = exact_pt_factor(row_n, row_m)
            assert np.sign(margin) == (g > 0) - (g < 0)


def _jacobi_onset(family, t_max):
    # eb_onset's bisection with every probe decided by the Jacobi margin
    def is_eb(t):
        return pt_margin(channel_at(family, t)) >= 0.0

    times = np.linspace(0.0, t_max, 1000).tolist()
    if not is_eb(times[-1]):
        return None
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


@settings(max_examples=200)
@given(st.one_of(_families, _non_cp_homogenizations), st.floats(min_value=0.1, max_value=60.0))
# w = 1 is never EB, yet near t = 50, and where e^{-t/T2} underflows,
# its margins are rounding noise
@example(Homogenization(1.5114095655303443, 2.5718852850371654, 1.0, 9.343618442948134), 50.0)
@example(Homogenization(T1=1.0, T2=1.0, w=1.0), 2000.0)
def test_eb_onset_equals_the_jacobi_bisection(family, t_max):
    assert eb_onset(family, t_max) == _jacobi_onset(family, t_max)


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
def test_scan_csv_equals_the_row_wise_writer(family, t_min, width, steps):
    result = scan(family, t_min, t_min + width, steps)
    assert scan_to_csv(result) == _row_wise_csv(result)


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
