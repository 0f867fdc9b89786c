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
    identity_channel,
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
from ebchannels.channel import QubitChannelAffine, choi, choi_partial_transpose, compose
from ebchannels.errors import NotCP, PreconditionViolated
from ebchannels.linalg import hermitian_eigenvalues, svd3
from helpers import (
    axial_channel,
    random_axial_cp,
    random_cptp_channel,
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
    analyze(amplitude_damping(0.3))
    assert (len(eigs), len(svds)) == (2, 1)


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
