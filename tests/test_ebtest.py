import sys

import numpy as np
import pytest

from ebchannels import (
    EBMethod,
    SEBClass,
    analyze,
    canonical_form,
    classify_seb,
    closed_form_verdict,
    depolarizing_channel,
    diagonal_channel,
    global_amendment_example,
    identity_channel,
    identity_qudit_map,
    is_eb_numeric,
    lambda1_zero_spectrum,
    pt_margin,
    seb_example_channel,
    unital_eb_condition,
    unital_eb_condition_minmax,
    unital_spectra,
    uniaxial_eb_condition,
    uniaxial_spectra,
    uniaxial_verdict,
    validate_cptp,
)
from ebchannels.channel import (
    QubitChannelAffine,
    _choi,
    choi,
    choi_partial_transpose,
    compose,
)
from ebchannels.errors import NotCP, PreconditionViolated
from ebchannels.linalg import _squares, hermitian_eigenvalues, svd3
from ebchannels.tolerances import CP_TOL, KNIFE_EDGE_BAND
from helpers import (
    axial_channel,
    random_axial_cp,
    random_cptp_channel,
    random_kraus_channel,
    random_lambda1_zero_cp,
    random_unital_cp_lambdas,
    random_unitary_sample,
)


def amplitude_damping(gamma: float) -> QubitChannelAffine:
    root = np.sqrt(1.0 - gamma)
    return diagonal_channel([root, root, 1.0 - gamma], [0.0, 0.0, gamma])


def test_identity_not_eb():
    verdict = is_eb_numeric(identity_channel())
    assert not verdict.is_eb
    assert abs(verdict.margin - (-0.5)) < 1e-12
    assert verdict.method is EBMethod.NUMERIC_PPT


def test_completely_depolarizing_is_eb():
    verdict = is_eb_numeric(depolarizing_channel(0.0))
    assert verdict.is_eb
    assert abs(verdict.margin - 0.25) < 1e-12


def test_depolarizing_threshold_boundary():
    verdict = is_eb_numeric(depolarizing_channel(1.0 / 3.0))
    assert verdict.is_eb
    assert abs(verdict.margin) < 1e-12


def test_not_cp_raises():
    with pytest.raises(NotCP):
        is_eb_numeric(diagonal_channel([1.0, 1.0, -1.0]))


def test_unital_spectra_frozen_cases():
    spec_rho, spec_pt = unital_spectra([1.0, 1.0, 1.0])
    assert np.allclose(sorted(spec_rho), [0, 0, 0, 1])
    assert np.allclose(sorted(spec_pt), [-0.5, 0.5, 0.5, 0.5])
    spec_rho, spec_pt = unital_spectra([0.0, 0.0, 0.0])
    assert np.allclose(spec_rho, 0.25)
    assert np.allclose(spec_pt, 0.25)


def test_unital_spectra_match_numeric_oracle():
    rng = np.random.default_rng(41)
    for lam in rng.uniform(-1.0, 1.0, (1000, 3)):
        spec_rho, spec_pt = unital_spectra(lam)
        phi = diagonal_channel(lam)
        assert np.abs(
            np.sort(spec_rho) - hermitian_eigenvalues(choi(phi))
        ).max() < 1e-12
        assert np.abs(
            np.sort(spec_pt) - hermitian_eigenvalues(choi_partial_transpose(phi))
        ).max() < 1e-12


def test_unital_condition_examples():
    assert unital_eb_condition([1 / 3, 1 / 3, 1 / 3])
    assert not unital_eb_condition([1.0, 1.0, 1.0])
    assert unital_eb_condition([0.7, 0.2, 0.05])


def test_unital_condition_forms_agree():
    rng = np.random.default_rng(42)
    for lam in rng.uniform(-1.0, 1.0, (10_000, 3)):
        assert unital_eb_condition(lam) == unital_eb_condition_minmax(lam)


def test_unital_condition_agrees_with_numeric():
    rng = np.random.default_rng(43)
    for lam in random_unital_cp_lambdas(rng, 1000):
        verdict = is_eb_numeric(diagonal_channel(lam))
        if abs(verdict.margin) > 1e-9:
            assert unital_eb_condition(lam) == verdict.is_eb


def test_lambda1_zero_spectrum_basics():
    assert np.allclose(lambda1_zero_spectrum(0.0, 0.0, np.zeros(3)), 0.25)


def test_lambda1_zero_spectrum_matches_numeric():
    lam2, lam3, n = 0.3, 0.2, np.array([0.1, 0.1, 0.1])
    spec = np.sort(lambda1_zero_spectrum(lam2, lam3, n))
    phi = diagonal_channel([0.0, lam2, lam3], n)
    assert np.abs(spec - hermitian_eigenvalues(choi(phi))).max() < 1e-12
    assert np.abs(
        spec - hermitian_eigenvalues(choi_partial_transpose(phi))
    ).max() < 1e-12


def test_vanishing_singular_value_implies_eb():
    rng = np.random.default_rng(44)
    for _ in range(200):
        lam2, lam3, n = random_lambda1_zero_cp(rng)
        verdict = is_eb_numeric(diagonal_channel([0.0, lam2, lam3], n))
        assert verdict.is_eb


def test_uniaxial_condition_amplitude_damping():
    # gamma = 0.5: margin is well negative, closed form must say not EB
    phi = amplitude_damping(0.5)
    lam = np.diag(phi.M)
    assert not uniaxial_eb_condition(lam, 0.5, axis=2)
    verdict = is_eb_numeric(phi)
    assert not verdict.is_eb
    # full damping: constant output channel, EB
    assert uniaxial_eb_condition([0.0, 0.0, 0.0], 1.0, axis=2)
    assert is_eb_numeric(amplitude_damping(1.0)).is_eb


def test_uniaxial_condition_reduces_to_unital_at_zero_translation():
    rng = np.random.default_rng(45)
    for lam in rng.uniform(-1.0, 1.0, (1000, 3)):
        assert uniaxial_eb_condition(lam, 0.0, axis=2) == unital_eb_condition(lam)


def test_uniaxial_condition_axis_permutations():
    rng = np.random.default_rng(46)
    for _ in range(300):
        lam, n3 = random_axial_cp(rng)
        expected = uniaxial_eb_condition(lam, n3, axis=2)
        for axis in (0, 1):
            perm = np.empty(3)
            others = [i for i in range(3) if i != axis]
            perm[axis] = lam[2]
            perm[others[0]] = lam[0]
            perm[others[1]] = lam[1]
            assert uniaxial_eb_condition(perm, n3, axis=axis) == expected


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_uniaxial_condition_on_a_stack_equals_per_channel_calls(axis):
    rng = np.random.default_rng(48)
    lam = rng.uniform(-1.0, 1.0, (3000, 3))
    n_axis = rng.uniform(-0.6, 0.6, 3000)
    stacked = uniaxial_eb_condition(lam, n_axis, axis=axis)
    single = [uniaxial_eb_condition(l, n, axis=axis) for l, n in zip(lam, n_axis)]
    assert all(type(v) is bool for v in single)
    assert stacked.dtype == bool and stacked.tolist() == single
    assert 0 < sum(single) < len(single)
    # more than one leading axis
    grid = uniaxial_eb_condition(lam.reshape(30, 100, 3), n_axis.reshape(30, 100), axis)
    assert np.array_equal(grid, stacked.reshape(30, 100))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_uniaxial_condition_overflow_is_not_eb():
    # squares and sums beyond the float range are inf, as in the unital branch
    assert uniaxial_eb_condition([1e200, 1e200, 0.5], 0.1) is False
    assert uniaxial_eb_condition([0.1, 0.2, 0.5], 1e200) is False
    assert uniaxial_eb_condition([1e308, 1e308, 0.5], 1e308) is False
    stacked = uniaxial_eb_condition([[1e200, 0.0, 0.5], [0.1, 0.1, 0.2]], [0.0, 0.1])
    assert stacked.tolist() == [False, True]
    phi = diagonal_channel([1e200] * 3, [0.0, 0.0, 1e200])
    assert closed_form_verdict(phi) == (EBMethod.UNIAXIAL_CLOSED_FORM, False)


def test_squares_keep_libm_digits_and_overflow_to_inf():
    finite = np.random.default_rng(50).uniform(-2.0, 2.0, 1000).tolist() + [1e154, -1.3e154]
    assert _squares(finite).tolist() == [v ** 2 for v in finite]
    assert _squares([1.4e154, -1e200, 1e308]).tolist() == [np.inf] * 3


def test_uniaxial_spectra_reduce_to_unital():
    rng = np.random.default_rng(47)
    for lam in rng.uniform(-1.0, 1.0, (200, 3)):
        ax_rho, ax_pt = uniaxial_spectra(lam, 0.0)
        un_rho, un_pt = unital_spectra(lam)
        assert np.allclose(sorted(ax_rho), sorted(un_rho), atol=1e-14)
        assert np.allclose(sorted(ax_pt), sorted(un_pt), atol=1e-14)


def test_uniaxial_spectra_match_numeric():
    lam, n3 = np.array([0.6, 0.3, 0.2]), 0.3
    spec_rho, spec_pt = uniaxial_spectra(lam, n3)
    phi = axial_channel(lam, n3)
    assert np.abs(
        np.sort(spec_rho) - hermitian_eigenvalues(choi(phi))
    ).max() < 1e-12
    assert np.abs(
        np.sort(spec_pt) - hermitian_eigenvalues(choi_partial_transpose(phi))
    ).max() < 1e-12


def test_uniaxial_spectra_full_damping():
    spec_rho, _ = uniaxial_spectra([0.0, 0.0, 0.0], 1.0)
    assert np.allclose(sorted(spec_rho), [0.0, 0.0, 0.5, 0.5])


def test_uniaxial_agrees_with_numeric():
    rng = np.random.default_rng(48)
    for _ in range(1000):
        lam, n3 = random_axial_cp(rng)
        verdict = is_eb_numeric(axial_channel(lam, n3))
        if abs(verdict.margin) > 1e-9:
            assert uniaxial_eb_condition(lam, n3, axis=2) == verdict.is_eb


def test_uniaxial_verdict_checks_precondition():
    phi = diagonal_channel([0.5, 0.4, 0.3], [0.2, 0.0, 0.3])
    with pytest.raises(PreconditionViolated):
        uniaxial_verdict(phi, axis=2)
    # amplitude damping keeps its translation on the last canonical axis
    assert uniaxial_verdict(amplitude_damping(0.5), axis=2) is False
    with pytest.raises(PreconditionViolated):
        uniaxial_verdict(amplitude_damping(0.5), axis=0)


def test_closed_form_dispatcher():
    method, is_eb = closed_form_verdict(depolarizing_channel(1.0 / 3.0))
    assert method is EBMethod.UNITAL_CLOSED_FORM
    assert is_eb
    method, is_eb = closed_form_verdict(diagonal_channel([0.0, 0.3, 0.2], [0.1, 0.2, 0.3]))
    assert method is EBMethod.ZERO_LAMBDA
    assert is_eb
    method, is_eb = closed_form_verdict(amplitude_damping(0.5))
    assert method is EBMethod.UNIAXIAL_CLOSED_FORM
    assert not is_eb
    method, is_eb = closed_form_verdict(
        QubitChannelAffine([0.1, 0.2, 0.3], 0.3 * np.eye(3))
    )
    assert method is None and is_eb is None


@pytest.mark.parametrize("p", [1e308, -1e308])
def test_closed_form_near_the_float_range_does_not_warn(p):
    # det(M) overflows here; RuntimeWarnings are errors in this suite
    phi = depolarizing_channel(p)
    canon = canonical_form(phi)
    assert np.array_equal(canon.lam, [1e308, 1e308, p])
    assert closed_form_verdict(phi) == (EBMethod.UNITAL_CLOSED_FORM, False)


def test_classify_seb():
    assert classify_seb(seb_example_channel()) is SEBClass.SEB_RANK_DEFICIENT
    assert classify_seb(identity_channel()) is SEBClass.NOT_EB
    assert classify_seb(depolarizing_channel(1.0 / 3.0)) is SEBClass.EB_UNKNOWN_AMENDABILITY


def test_verdict_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(49)
    for _ in range(100):
        lam = random_unital_cp_lambdas(rng, 1)[0]
        phi = diagonal_channel(lam)
        conj = compose(random_unitary_sample(rng), compose(phi, random_unitary_sample(rng)))
        v1, v2 = is_eb_numeric(phi), is_eb_numeric(conj)
        assert abs(v1.margin - v2.margin) < 1e-10
        assert v1.is_eb == v2.is_eb


def test_pt_margin_matches_verdict_margin():
    phi = depolarizing_channel(0.2)
    assert pt_margin(phi) == is_eb_numeric(phi).margin


def _rotated(rng, phi: QubitChannelAffine) -> QubitChannelAffine:
    return compose(random_unitary_sample(rng), compose(phi, random_unitary_sample(rng)))


def _lambda1_zero_channel(rng) -> QubitChannelAffine:
    lam2, lam3, n = random_lambda1_zero_cp(rng)
    return diagonal_channel([0.0, lam2, lam3], n)


def test_closed_forms_agree_with_jacobi():
    # every closed-form branch against the Jacobi verdict outside
    # KNIFE_EDGE_BAND
    rng = np.random.default_rng(91)
    samplers = [
        lambda: random_kraus_channel(rng, int(rng.integers(1, 5))),
        lambda: diagonal_channel(random_unital_cp_lambdas(rng, 1)[0]),
        lambda: axial_channel(*random_axial_cp(rng)),
        lambda: _lambda1_zero_channel(rng),
    ]
    fired = set()
    for k in range(1000):
        phi = _rotated(rng, samplers[k % len(samplers)]())
        margin = pt_margin(phi)
        if abs(margin) <= KNIFE_EDGE_BAND:
            continue
        method, cf_is_eb = closed_form_verdict(phi)
        fired.add(method)
        if method is not None:
            assert cf_is_eb == (margin >= 0.0)
    assert fired == {None, *EBMethod} - {EBMethod.NUMERIC_PPT}


def _count_calls(monkeypatch, func):
    """Count calls to `func` through every package namespace that holds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("ebchannels"):
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_analyze_runs_two_eigensolves_and_one_svd(monkeypatch):
    eigs = _count_calls(monkeypatch, hermitian_eigenvalues)
    svds = _count_calls(monkeypatch, svd3)
    # one Choi matrix serves the CP gate and the PPT test
    builds = _count_calls(monkeypatch, _choi)
    analyze(amplitude_damping(0.3))
    assert (len(eigs), len(svds), len(builds)) == (2, 1, 1)


def test_global_amendment_builds_one_choi_matrix(monkeypatch):
    builds = _count_calls(monkeypatch, _choi)
    global_amendment_example(amplitude_damping(0.3), identity_qudit_map(4))
    assert len(builds) == 1


def test_analyze_matches_separate_calls():
    rng = np.random.default_rng(67)
    channels = [random_cptp_channel(rng) for _ in range(40)]
    channels += [
        identity_channel(),
        seb_example_channel(),
        depolarizing_channel(0.2),
        amplitude_damping(0.5),
        diagonal_channel([0.0, 0.3, 0.2], [0.1, 0.2, 0.3]),
    ]
    seen = set()
    for phi in channels:
        result = analyze(phi)
        assert result.verdict == is_eb_numeric(phi)
        assert result.verdict.choi_min_eig == validate_cptp(phi).min_choi_eig
        canon = canonical_form(phi)
        for field in ("lam", "n", "r_pre", "r_post"):
            assert np.array_equal(getattr(result.canonical, field), getattr(canon, field))
        closed_form = (result.closed_form_method, result.closed_form_is_eb)
        assert closed_form == closed_form_verdict(phi)
        assert result.seb_class is classify_seb(phi)
        seen.add(result.seb_class)
    assert seen == set(SEBClass)


def test_analyze_not_cp_carries_min_eig():
    phi = diagonal_channel([1.0, 1.0, -1.0])
    with pytest.raises(NotCP) as info:
        analyze(phi)
    assert abs(info.value.min_eig - (-0.5)) < 1e-10


def _depolarizing_cp_edge():
    # adjacent floats p < q above 1 between which the smallest Choi
    # eigenvalue of depolarizing_channel crosses -CP_TOL, by bisection
    lo, hi = 1.0, 1.0 + 1e-9
    while np.nextafter(lo, 2.0) < hi:
        mid = 0.5 * (lo + hi)
        if hermitian_eigenvalues(choi(depolarizing_channel(mid)))[0] >= -CP_TOL:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _gate_outcomes(phi):
    # None where the channel passes the CP gate, else NotCP's eigenvalue
    outcomes = []
    for gate in (analyze, lambda phi: global_amendment_example(phi, identity_qudit_map(4))):
        try:
            gate(phi)
            outcomes.append(None)
        except NotCP as exc:
            outcomes.append(exc.min_eig)
    return outcomes


@pytest.mark.parametrize("side", [1.0, 0.0, -1.0], ids=["above", "at", "below"])
def test_cp_gate_boundary_is_one_rule(side):
    # a channel whose Choi matrix is diagonal, with smallest entry exactly
    # one ulp above, at, or one ulp below -CP_TOL; the boundary is CP
    t = -CP_TOL if side == 0.0 else np.nextafter(-CP_TOL, side)
    phis = [diagonal_channel([0.0, 0.0, 4.0 * t], [0.0, 0.0, -1.0])]
    assert validate_cptp(phis[0]).min_choi_eig == t
    # and the depolarizing channels of the two adjacent p around the edge
    lo, hi = _depolarizing_cp_edge()
    phis.append(depolarizing_channel(lo if side >= 0.0 else hi))
    for phi in phis:
        report = validate_cptp(phi)
        assert report.is_cp == (side >= 0.0)
        for min_eig in _gate_outcomes(phi):
            if report.is_cp:
                assert min_eig is None
            else:
                assert min_eig.hex() == report.min_choi_eig.hex()
