import math

import numpy as np
import pytest

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
from ebchannels.errors import InvalidParameter, NegativeTime, NotCP

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
    result = scan(Depolarization(T=1.0), 0.0, 3.0, 301)
    flags = [row.is_eb for row in result.rows]
    flips = sum(a != b for a, b in zip(flags, flags[1:]))
    assert flips == 1
    first_eb = next(row.t for row in result.rows if row.is_eb)
    assert abs(first_eb - math.log(3.0)) < 3.0 / 300 + 1e-12


def test_scan_decoherence_all_false():
    result = scan(Decoherence(T=1.0, omega=5.0), 0.0, 10.0, 101)
    assert not any(row.is_eb for row in result.rows)


def test_scan_homogenization_rows_carry_f_columns():
    result = scan(Homogenization(T1=1.0, T2=1.0, w=0.3), 0.1, 5.0, 40)
    for row in result.rows:
        assert row.f1 is not None and row.f == min(row.f1, row.f2)
        assert row.cf_eb is not None
    # f crosses zero in the scanned region for small w but never for w = 1
    assert any(row.f > 0 for row in result.rows)
    pure = scan(Homogenization(T1=1.0, T2=1.0, w=1.0), 0.1, 5.0, 40)
    assert all(row.f < 0 for row in pure.rows)
    assert not any(row.is_eb for row in pure.rows)


def test_scan_validation():
    with pytest.raises(InvalidParameter):
        scan(Depolarization(T=1.0), 0.0, 1.0, 1)
    with pytest.raises(InvalidParameter):
        scan(Depolarization(T=1.0), 2.0, 1.0, 10)


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
    # eb_onset's walk, one channel at a time
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


@pytest.mark.parametrize("coarse_steps", [2, 199, 200, 201, 1000])
@pytest.mark.parametrize(
    "family, t_max",
    [
        (Depolarization(T=1.0), 10.0),
        # on the 1000-point grid the margin turns nonnegative at index 200,
        # so the bracket straddles the first two blocks of 200
        (Depolarization(T=1.0), math.log(3.0) * 999 / 199.5),
        (Homogenization(T1=1.0, T2=1.0, w=0.5, omega=3.0), 8.0),
        (Decoherence(T=1.0, omega=5.0), 50.0),
    ],
)
def test_eb_onset_matches_scalar_walk(family, t_max, coarse_steps):
    expected = _scalar_onset(family, t_max, coarse_steps)
    assert eb_onset(family, t_max, coarse_steps) == expected


@pytest.mark.parametrize("family", FAMILIES)
def test_scan_rows_match_per_row_analysis(family):
    result = scan(family, 0.0, 6.0, 450)
    assert len(result.rows) == 450
    for row in result.rows:
        phi = channel_at(family, row.t)
        verdict = is_eb_numeric(phi)
        assert abs(row.margin - verdict.margin) <= 1e-15
        assert row.is_eb == verdict.is_eb
        lam = np.abs(canonical_form(phi).lam)
        assert np.abs(np.array(row.lam) - lam).max() <= 1e-15


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
