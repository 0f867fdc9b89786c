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
from ebchannels.channel import _choi
from ebchannels.errors import BadAxis, DimensionMismatch, InvalidParameter
from ebchannels.linalg import hermitian_eigenvalues, partial_transpose
from helpers import (
    PAULI4,
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
        structural = _choi_y_negated(phi.n, phi.M)
        assert choi_partial_transpose(phi).tobytes() == structural.tobytes()


def _choi_y_negated(n, M):
    # the structural partial transpose: transposing the second factor
    # negates its sigma_y and fixes sigma_x and sigma_z, so it is the Choi
    # matrix of M with its y column negated
    return _choi(n, M * (1.0, -1.0, 1.0))


def _signed_zero_parameters(rng, count):
    # (count, 3) translations and (count, 3, 3) contractions over scales
    # from 0 to 1e5, with +-0.0 scattered through n, M and M's y column
    scale = rng.choice([0.0, 1e-300, 1e-3, 1.0, 1e5], count)
    n = rng.uniform(-1.0, 1.0, (count, 3)) * scale[:, None]
    M = rng.uniform(-1.0, 1.0, (count, 3, 3)) * scale[:, None, None]
    for x in (n, M):
        zero = rng.random(x.shape) < 0.3
        x[zero] = rng.choice([0.0, -0.0], zero.sum())
    y_zero = rng.random(count) < 0.3
    M[y_zero, :, 1] = rng.choice([0.0, -0.0], (y_zero.sum(), 3))
    return n, M


def test_partial_transpose_of_choi_is_the_y_negated_choi_bit_for_bit():
    n, M = _signed_zero_parameters(np.random.default_rng(62), 2000)
    for one_n, one_m in zip(n, M):
        pt = partial_transpose(_choi(one_n, one_m), 2, 2)
        assert pt.tobytes() == _choi_y_negated(one_n, one_m).tobytes()


@pytest.mark.parametrize("count", [1, 16, 513])
def test_partial_transpose_of_choi_stack_is_the_y_negated_choi_bit_for_bit(count):
    n, M = _signed_zero_parameters(np.random.default_rng(63 + count), count)
    pt = partial_transpose(_choi(n, M), 2, 2)
    assert pt.tobytes() == _choi_y_negated(n, M).tobytes()


def _choi_complex_tables(n, M):
    # the Choi contraction over complex Pauli tables, which `_choi` makes
    # over their real views
    paulis = PAULI4[1:]
    pi = np.stack([np.kron(a, np.eye(2)) for a in paulis])
    pp = np.stack([np.stack([np.kron(a, b) for b in paulis]) for a in paulis])
    with np.errstate(over="ignore", invalid="ignore"):
        out = 0.25 * (
            np.eye(4, dtype=complex)
            + np.tensordot(n, pi, axes=1)
            - np.tensordot(M, pp, axes=2)
        )
    if not np.isfinite(out).all():
        raise InvalidParameter("channel parameters overflow the Choi matrix")
    return out


# real views of the Pauli tables, (3, 4, 8) and (3, 3, 4, 8), and of I
_REAL_PI = np.stack([np.kron(a, np.eye(2)) for a in PAULI4[1:]]).view(float)
_REAL_PP = np.stack(
    [np.stack([np.kron(a, b) for b in PAULI4[1:]]) for a in PAULI4[1:]]
).view(float)
_REAL_I4 = np.eye(4, dtype=complex).view(float)


def _choi_real_tensordot(n, M):
    # the Choi contraction as two tensordots over the real-view tables
    with np.errstate(over="ignore", invalid="ignore"):
        out = 0.25 * (
            _REAL_I4 + np.tensordot(n, _REAL_PI, axes=1) - np.tensordot(M, _REAL_PP, axes=2)
        )
    if not np.isfinite(out).all():
        raise InvalidParameter("channel parameters overflow the Choi matrix")
    return out.view(complex)


def _scaled_signed_zero_parameters(rng, count, scales):
    n, M = _signed_zero_parameters(rng, count)
    scale = rng.choice(scales, count)
    return n * scale[:, None], M * scale[:, None, None]


def test_choi_is_the_complex_table_contraction_bit_for_bit():
    # scales from subnormal to 1e308, where the sums overflow: `_choi` and
    # the real-view tensordots raise the same error or agree in every byte
    n, M = _scaled_signed_zero_parameters(
        np.random.default_rng(64), 2000, [1.0, 1e-20, 1e150, 1e300, 1e303]
    )
    overflowed = 0
    for one_n, one_m in zip(n, M):
        try:
            want = _choi_complex_tables(one_n, one_m).tobytes()
        except InvalidParameter as exc:
            for build in (_choi, _choi_real_tensordot):
                with pytest.raises(InvalidParameter, match=str(exc)):
                    build(one_n, one_m)
            overflowed += 1
        else:
            assert _choi(one_n, one_m).tobytes() == want
            assert _choi_real_tensordot(one_n, one_m).tobytes() == want
    assert 0 < overflowed < 2000


@pytest.mark.parametrize("count", [1, 16, 513])
def test_choi_stack_is_the_complex_table_contraction_bit_for_bit(count):
    n, M = _scaled_signed_zero_parameters(
        np.random.default_rng(65 + count), count, [1.0, 1e-20, 1e150, 1e295]
    )
    got = _choi(n, M)
    assert got.shape == (count, 4, 4)
    assert got.tobytes() == _choi_complex_tables(n, M).tobytes()
    assert got.tobytes() == _choi_real_tensordot(n, M).tobytes()
    M[-1] = 1e308
    for build in (_choi, _choi_complex_tables, _choi_real_tensordot):
        with pytest.raises(InvalidParameter, match="overflow the Choi matrix"):
            build(n, M)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameters_rejected(bad):
    with pytest.raises(InvalidParameter):
        QubitChannelAffine([0.0, 0.0, bad], np.eye(3))
    with pytest.raises(InvalidParameter):
        QuditAffineMap(2, np.zeros(3), np.diag([1.0, bad, 1.0]))
