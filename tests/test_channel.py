import numpy as np
import pytest

from ebchannels import (
    Decoherence,
    Depolarization,
    Homogenization,
    QubitChannelAffine,
    QuditAffineMap,
    apply_channel,
    apply_qudit_map,
    canonical_form,
    channel_at,
    choi,
    choi_partial_transpose,
    compose,
    depolarizing_channel,
    diagonal_channel,
    identity_channel,
    identity_qudit_map,
    is_eb_numeric,
    seb_example_channel,
    singlet_state,
    unitary_channel,
    validate_cptp,
)
from ebchannels.errors import BadAxis, DimensionMismatch, InvalidParameter
from ebchannels.linalg import hermitian_eigenvalues, partial_transpose
from helpers import (
    apply_to_first_factor,
    random_cptp_channel,
    random_density,
    random_unitary_sample,
)


def expected_unital_choi(l1, l2, l3):
    return 0.25 * np.array(
        [
            [1 - l3, 0, 0, -l1 + l2],
            [0, 1 + l3, -l1 - l2, 0],
            [0, -l1 - l2, 1 + l3, 0],
            [-l1 + l2, 0, 0, 1 - l3],
        ],
        dtype=complex,
    )


def test_singlet_is_the_singlet_projector():
    ket = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    assert np.abs(singlet_state() - np.outer(ket, ket.conj())).max() < 1e-15
    assert abs(np.trace(singlet_state()) - 1.0) < 1e-15
    assert np.allclose(hermitian_eigenvalues(singlet_state()), [0, 0, 0, 1], atol=1e-14)


def test_choi_identity_is_singlet():
    assert np.allclose(choi(identity_channel()), singlet_state())


def test_choi_matches_closed_form_for_diagonal_unital():
    for lam in [(0.2, 0.3, 0.1), (1.0, 1.0, 1.0), (-0.4, 0.7, 0.2)]:
        got = choi(diagonal_channel(lam))
        assert np.abs(got - expected_unital_choi(*lam)).max() < 1e-15


def test_choi_completely_depolarizing():
    assert np.allclose(choi(depolarizing_channel(0.0)), np.eye(4) / 4)


def test_choi_nonunital_translation_entries():
    # translation enters only through sigma_i (x) I terms
    phi = QubitChannelAffine([0.1, 0.2, 0.3], np.zeros((3, 3)))
    c = choi(phi)
    assert abs(c[0, 0] - 0.25 * 1.3) < 1e-15
    assert abs(c[0, 2] - 0.25 * (0.1 - 0.2j)) < 1e-15
    assert abs(c[2, 0] - 0.25 * (0.1 + 0.2j)) < 1e-15
    assert abs(np.trace(c) - 1.0) < 1e-15


def test_validate_cptp():
    assert validate_cptp(identity_channel()).is_cp
    assert validate_cptp(depolarizing_channel(1.0 / 3.0)).is_cp
    report = validate_cptp(diagonal_channel([1.0, 1.0, -1.0]))
    assert not report.is_cp
    assert abs(report.min_choi_eig - (-0.5)) < 1e-10


def test_canonical_form_descending_diagonal_passthrough():
    canon = canonical_form(diagonal_channel([0.9, 0.5, 0.2]))
    assert np.allclose(canon.lam, [0.9, 0.5, 0.2])
    assert np.allclose(canon.r_pre, np.eye(3), atol=1e-12)
    assert np.allclose(canon.r_post, np.eye(3), atol=1e-12)
    assert np.allclose(canon.n, 0.0)


def test_canonical_form_dephasing_with_rotation():
    t, big_t, omega = 0.7, 1.0, 3.0
    e = np.exp(-t / big_t)
    c, s = np.cos(omega * t), np.sin(omega * t)
    m = np.array([[e * c, e * s, 0.0], [-e * s, e * c, 0.0], [0.0, 0.0, 1.0]])
    canon = canonical_form(QubitChannelAffine(np.zeros(3), m))
    assert np.allclose(sorted(np.abs(canon.lam)), sorted([e, e, 1.0]), atol=1e-12)


def test_canonical_form_reconstruction_property():
    rng = np.random.default_rng(31)
    for _ in range(10_000):
        m = rng.uniform(-1.0, 1.0, (3, 3))
        n = rng.uniform(-1.0, 1.0, 3)
        phi = QubitChannelAffine(n, m)
        canon = canonical_form(phi)
        recon = canon.r_post @ np.diag(canon.lam) @ canon.r_pre
        assert np.abs(recon - m).max() < 1e-10
        assert np.abs(canon.r_post @ canon.n - n).max() < 1e-10


def test_canonical_lambda_bounded_for_cptp():
    rng = np.random.default_rng(32)
    for _ in range(300):
        phi = random_cptp_channel(rng)
        assert np.abs(canonical_form(phi).lam).max() <= 1.0 + 1e-10


def test_eb_verdict_invariant_under_canonical_reassembly():
    rng = np.random.default_rng(33)
    for _ in range(100):
        phi = random_cptp_channel(rng)
        canon = canonical_form(phi)
        rebuilt = diagonal_channel(canon.lam, canon.n)
        v1 = is_eb_numeric(phi)
        v2 = is_eb_numeric(rebuilt)
        assert v1.is_eb == v2.is_eb
        assert abs(v1.margin - v2.margin) < 1e-10


def test_compose_identity_and_depolarizing():
    phi = diagonal_channel([0.5, 0.5, 0.5], [0.0, 0.1, 0.2])
    composed = compose(identity_channel(), phi)
    assert np.allclose(composed.M, phi.M)
    assert np.allclose(composed.n, phi.n)
    assert np.allclose(
        compose(depolarizing_channel(0.5), depolarizing_channel(0.5)).M,
        np.diag([0.25, 0.25, 0.25]),
    )


def test_compose_matches_first_factor_oracle():
    rng = np.random.default_rng(34)
    for _ in range(50):
        outer = random_cptp_channel(rng)
        inner = random_cptp_channel(rng)
        via_compose = choi(compose(outer, inner))
        via_oracle = apply_to_first_factor(
            outer, apply_to_first_factor(inner, singlet_state())
        )
        assert np.abs(via_compose - via_oracle).max() < 1e-12


def test_compose_associative():
    rng = np.random.default_rng(35)
    for _ in range(100):
        a, b, c = (random_cptp_channel(rng) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert np.abs(left.M - right.M).max() < 1e-12
        assert np.abs(left.n - right.n).max() < 1e-12


def test_unitary_channel_basics():
    assert np.allclose(unitary_channel([0, 0, 1], 0.0).M, np.eye(3))
    assert np.allclose(
        unitary_channel([0, 0, 1], np.pi).M, np.diag([-1.0, -1.0, 1.0]), atol=1e-15
    )
    with pytest.raises(BadAxis):
        unitary_channel([1.0, 1.0, 0.0], 0.3)


def test_unitary_channels_are_cptp():
    rng = np.random.default_rng(36)
    for _ in range(1000):
        phi = random_unitary_sample(rng)
        assert np.allclose(phi.M @ phi.M.T, np.eye(3), atol=1e-12)
        assert validate_cptp(phi).min_choi_eig > -1e-12


def test_apply_channel_matches_oracle_on_product_states():
    rng = np.random.default_rng(37)
    phi = random_cptp_channel(rng)
    rho = random_density(rng, 2)
    rho_b = random_density(rng, 2)
    direct = np.kron(apply_channel(phi, rho), rho_b)
    via_oracle = apply_to_first_factor(phi, np.kron(rho, rho_b))
    assert np.abs(direct - via_oracle).max() < 1e-12


def test_qudit_map_identity_and_crush():
    rng = np.random.default_rng(38)
    rho = random_density(rng, 4)
    assert np.abs(apply_qudit_map(identity_qudit_map(4), rho) - rho).max() < 1e-12
    crush = QuditAffineMap(4, np.zeros(15), np.zeros((15, 15)))
    assert np.allclose(apply_qudit_map(crush, rho), np.eye(4) / 4)


def test_qudit_map_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_qudit_map(identity_qudit_map(4), np.eye(2) / 2)


def test_seb_example_channel_values():
    phi = seb_example_channel()
    assert np.allclose(phi.M, np.diag([0.0, -0.5, 0.5]))
    assert np.allclose(phi.n, 0.0)
    assert validate_cptp(phi).is_cp


def test_choi_partial_transpose_equals_generic_partial_transpose():
    rng = np.random.default_rng(61)
    channels = [
        QubitChannelAffine(rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, (3, 3)))
        for _ in range(300)
    ]
    for family in (
        Decoherence(T=1.0, omega=5.0),
        Depolarization(T=1.0),
        Homogenization(T1=1.0, T2=1.3, w=0.5, omega=2.0),
    ):
        channels += [channel_at(family, float(t)) for t in np.linspace(0.0, 50.0, 101)]
    for phi in channels:
        generic = partial_transpose(choi(phi), 2, 2)
        assert np.array_equal(choi_partial_transpose(phi), generic)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameters_rejected(bad):
    with pytest.raises(InvalidParameter):
        QubitChannelAffine([0.0, 0.0, bad], np.eye(3))
    with pytest.raises(InvalidParameter):
        QuditAffineMap(2, np.zeros(3), np.diag([1.0, bad, 1.0]))
