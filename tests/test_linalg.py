import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebchannels import (
    Decoherence,
    Homogenization,
    QubitChannelAffine,
    channel_at,
    choi_partial_transpose,
    linalg,
)
from ebchannels.errors import ConvergenceFailure, DimensionMismatch, NotHermitian
from ebchannels.linalg import (
    _lapack_lowest,
    hermitian_eigenvalues,
    kron,
    partial_transpose,
    svd3,
)


def test_eigenvalues_diagonal():
    assert np.allclose(hermitian_eigenvalues(np.diag([1.0, 2.0, 3.0])), [1, 2, 3])


def test_eigenvalues_pauli_x():
    assert np.allclose(
        hermitian_eigenvalues(np.array([[0, 1], [1, 0]], dtype=complex)), [-1, 1]
    )


def test_eigenvalues_diagonal_unital_choi():
    # Choi matrix of the diagonal unital channel lam = (0.2, 0.3, 0.1);
    # expected values from the closed form (1 +- l1 +- l2 +- l3)/4 over the
    # even sign patterns
    l1, l2, l3 = 0.2, 0.3, 0.1
    m = 0.25 * np.array(
        [
            [1 - l3, 0, 0, -l1 + l2],
            [0, 1 + l3, -l1 - l2, 0],
            [0, -l1 - l2, 1 + l3, 0],
            [-l1 + l2, 0, 0, 1 - l3],
        ],
        dtype=complex,
    )
    assert np.allclose(hermitian_eigenvalues(m), [0.15, 0.2, 0.25, 0.4], atol=1e-13)


def test_eigenvalues_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitian, match=r"1\.0"):
        hermitian_eigenvalues(bad)


def test_eigenvalues_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        hermitian_eigenvalues(np.zeros((2, 3)))


def test_eigenvalues_accuracy_vs_lapack():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 17))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (b + b.conj().T) / 2
        assert np.abs(hermitian_eigenvalues(h) - np.linalg.eigvalsh(h)).max() < 1e-11


def test_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(18)
    for _ in range(50):
        n = int(rng.integers(2, 17))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (b + b.conj().T) / 2
        assert abs(hermitian_eigenvalues(h).sum() - np.trace(h).real) < 1e-10


def test_eigenvalues_unitary_invariance():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (b + b.conj().T) / 2
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        assert np.abs(
            hermitian_eigenvalues(q @ h @ q.conj().T) - hermitian_eigenvalues(h)
        ).max() < 1e-10


@pytest.mark.parametrize("stacked", [False, True], ids=["matrix", "stack"])
def test_eigenvalues_keep_tiny_block_signs(stacked):
    # eigenvalues far below the matrix norm must keep their sign: this is
    # what long-time channel margins look like
    w = 1e-22
    m = np.array(
        [
            [0.0, 0.0, 0.0, w],
            [0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.0],
            [w, 0.0, 0.0, 0.0],
        ],
        dtype=complex,
    )
    if stacked:
        # next to a matrix that converges without a rotation
        ev = hermitian_eigenvalues(np.stack([np.diag([1.0, 2.0, 3.0, 4.0]), m]))[1]
    else:
        ev = hermitian_eigenvalues(m)
    assert ev[0] < 0.0
    assert abs(ev[0] + w) < 1e-6 * w  # relative accuracy, not just absolute
    assert abs(ev[-1] - 0.5) < 1e-15


def _random_pt_chois(rng, count):
    return np.stack(
        [
            choi_partial_transpose(
                QubitChannelAffine(
                    rng.uniform(-0.5, 0.5, 3), rng.uniform(-1.0, 1.0, (3, 3))
                )
            )
            for _ in range(count)
        ]
    )


def test_stacked_eigenvalues_match_per_matrix():
    stack = _random_pt_chois(np.random.default_rng(19), 2000)
    stacked = hermitian_eigenvalues(stack)
    single = np.array([hermitian_eigenvalues(m) for m in stack])
    assert stacked.shape == (2000, 4)
    assert np.abs(stacked - single).max() <= 1e-14
    assert np.all(np.diff(stacked, axis=1) >= 0.0)


def test_stacked_eigenvalues_round_like_the_scalar_sweep():
    # the same floating-point operations per matrix, so batching changes no
    # published digit (zeros may differ in sign only, which == ignores)
    family = Homogenization(T1=1.3, T2=0.6, w=0.7, omega=4.0)
    stack = np.concatenate(
        [
            _random_pt_chois(np.random.default_rng(21), 300),
            [
                choi_partial_transpose(channel_at(family, t))
                for t in np.linspace(0.0, 30.0, 300)
            ],
        ]
    )
    assert np.array_equal(
        hermitian_eigenvalues(stack), [hermitian_eigenvalues(m) for m in stack]
    )


@pytest.mark.parametrize("count", [199, 200, 201, 401])
def test_stacked_eigenvalues_across_block_edges(count):
    stack = _random_pt_chois(np.random.default_rng(count), count)
    assert np.array_equal(
        hermitian_eigenvalues(stack), [hermitian_eigenvalues(m) for m in stack]
    )


def test_stacked_eigenvalues_edge_shapes():
    assert hermitian_eigenvalues(np.zeros((0, 4, 4))).shape == (0, 4)
    ones = hermitian_eigenvalues(np.full((3, 1, 1), 2.0))
    assert np.array_equal(ones, np.full((3, 1), 2.0))


def test_stacked_eigenvalues_reject_bad_input():
    with pytest.raises(DimensionMismatch):
        hermitian_eigenvalues(np.zeros((2, 3, 4)))
    with pytest.raises(DimensionMismatch):
        hermitian_eigenvalues(np.zeros((1, 2, 2, 2)))
    stack = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(NotHermitian, match=r"1\.0"):
        hermitian_eigenvalues(stack)
    stack = np.stack([np.eye(2), np.eye(2)])
    stack[1, 0, 0] = np.nan
    with pytest.raises(NotHermitian, match="non-finite"):
        hermitian_eigenvalues(stack)


def test_stacked_eigenvalues_raise_when_any_matrix_keeps_rotating(monkeypatch):
    stack = _random_pt_chois(np.random.default_rng(20), 3)
    stack[0] = np.eye(4)  # converges at once; the others need several sweeps
    monkeypatch.setattr(linalg, "MAX_JACOBI_SWEEPS", 1)
    with pytest.raises(ConvergenceFailure):
        hermitian_eigenvalues(stack)


def _graded_x_matrix(a, b, ratio, phase):
    # the X-shaped partial-transposed Choi matrix of a z-symmetric channel,
    # with its {00, 11} block graded: [[a, w], [w*, b]], |w| = ratio sqrt(ab),
    # so the small eigenvalue is tiny yet fixed to high relative accuracy
    w = ratio * np.sqrt(a * b) * np.exp(1j * phase)
    return np.array(
        [
            [a, 0.0, 0.0, w],
            [0.0, 0.5, 0.2j, 0.0],
            [0.0, -0.2j, 0.5, 0.0],
            [np.conj(w), 0.0, 0.0, b],
        ]
    )


_log_margins = st.floats(min_value=-30.0, max_value=-8.0)
_near_singular_pt_choi = st.one_of(
    # long-time decoherence: margin -exp(-t / T) / 2
    st.builds(
        lambda T, omega, log_margin: choi_partial_transpose(
            channel_at(
                Decoherence(T=T, omega=omega), -T * np.log(2.0 * 10.0**log_margin)
            )
        ),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.0, max_value=20.0),
        _log_margins,
    ),
    st.builds(
        lambda log_a, log_b, ratio, phase: _graded_x_matrix(
            10.0**log_a, 10.0**log_b, ratio, phase
        ),
        _log_margins,
        _log_margins,
        st.one_of(st.floats(0.0, 0.9), st.floats(1.1, 3.0)),
        st.floats(0.0, 2.0 * np.pi),
    ),
)


@settings(max_examples=40)
@given(st.lists(_near_singular_pt_choi, min_size=1, max_size=3))
def test_stacked_eigenvalues_match_high_precision(matrices):
    mpmath.mp.dps = 60
    stacked = hermitian_eigenvalues(np.stack(matrices))[:, 0]
    for m, got in zip(matrices, stacked):
        exact = min(mpmath.mp.eigh(mpmath.matrix(m.tolist()), eigvals_only=True))
        assert 1e-31 < abs(exact) < 1e-7
        assert np.sign(got) == np.sign(float(exact))
        assert abs(got - exact) <= 1e-6 * abs(exact)


def _assert_within_band(stack):
    lowest, delta = _lapack_lowest(stack)
    jacobi = hermitian_eigenvalues(stack)[:, 0]
    assert np.all(np.abs(lowest - jacobi) <= delta)


def test_lapack_band_holds_on_random_pt_chois():
    _assert_within_band(_random_pt_chois(np.random.default_rng(22), 2000))


def test_lapack_band_holds_on_long_time_decoherence():
    # margins near -exp(-50) / 2, some 1e-22, far inside the band
    rng = np.random.default_rng(23)
    _assert_within_band(
        np.stack(
            [
                choi_partial_transpose(channel_at(Decoherence(T=T, omega=omega), 50.0))
                for T, omega in zip(rng.uniform(0.5, 5.0, 200), rng.uniform(0.0, 20.0, 200))
            ]
        )
    )


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_lapack_band_scales_with_the_norm(scale):
    _assert_within_band(scale * _random_pt_chois(np.random.default_rng(24), 500))


@settings(max_examples=40)
@given(st.lists(_near_singular_pt_choi, min_size=1, max_size=3))
def test_lapack_band_holds_near_singular(matrices):
    _assert_within_band(np.stack(matrices))


def test_svd3_identity():
    u, s, v, sign = svd3(np.eye(3))
    assert np.allclose(u, np.eye(3))
    assert np.allclose(v, np.eye(3))
    assert np.allclose(s, [1, 1, 1])
    assert sign == 1.0


def test_svd3_diagonal_reflection():
    u, s, v, sign = svd3(np.diag([0.9, 0.3, -0.3]))
    assert np.allclose(s, [0.9, 0.3, 0.3])
    assert sign == -1.0
    sp = s.copy()
    sp[2] *= sign
    assert np.allclose(u @ np.diag(sp) @ v.T, np.diag([0.9, 0.3, -0.3]), atol=1e-12)


def test_svd3_reconstruction_property():
    rng = np.random.default_rng(13)
    for _ in range(10_000):
        m = rng.uniform(-1.0, 1.0, (3, 3))
        u, s, v, sign = svd3(m)
        sp = s.copy()
        sp[2] *= sign
        assert np.abs(u @ np.diag(sp) @ v.T - m).max() < 1e-10
        assert abs(np.linalg.det(u) - 1.0) < 1e-10
        assert abs(np.linalg.det(v) - 1.0) < 1e-10


def test_svd3_sign_matches_determinant():
    rng = np.random.default_rng(14)
    for _ in range(500):
        m = rng.uniform(-1.0, 1.0, (3, 3))
        *_, sign = svd3(m)
        assert sign == (1.0 if np.linalg.det(m) >= 0 else -1.0)


def test_svd3_sign_near_the_float_range():
    # det itself overflows here; the sign must not, nor warn
    for diagonal, want in (([1e308, 1e308, 1e308], 1.0), ([1e308, -1e308, 1e308], -1.0)):
        u, s, v, sign = svd3(np.diag(diagonal))
        assert sign == want
        assert np.array_equal(s, [1e308] * 3)
    assert svd3(np.diag([1e308, 1e308, 0.0]))[3] == 1.0


def test_svd3_rejects_non_finite():
    with pytest.raises(ValueError):
        svd3(np.array([[np.nan, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_kron_identities():
    i2 = np.eye(2)
    sx = np.array([[0, 1], [1, 0]])
    assert np.array_equal(kron(i2, i2), np.eye(4))
    assert np.array_equal(kron(sx, sx), np.fliplr(np.eye(4)))


def test_kron_mixed_product():
    rng = np.random.default_rng(15)
    for _ in range(100):
        a, b, c, d = (
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(4)
        )
        assert np.abs(kron(a, b) @ kron(c, d) - kron(a @ c, b @ d)).max() < 1e-12


def test_partial_transpose_product_rule():
    rng = np.random.default_rng(16)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(partial_transpose(kron(a, b), 2, 2), kron(a, b.T))
    # unequal factor dimensions
    c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(partial_transpose(kron(a, c), 2, 3), kron(a, c.T))


def test_partial_transpose_singlet_min_eigenvalue():
    from ebchannels import singlet_state

    ev = hermitian_eigenvalues(partial_transpose(singlet_state(), 2, 2))
    assert abs(ev[0] - (-0.5)) < 1e-14


def test_partial_transpose_involution_and_conservation():
    rng = np.random.default_rng(17)
    for _ in range(50):
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (b + b.conj().T) / 2
        ptm = partial_transpose(h, 2, 2)
        assert np.array_equal(partial_transpose(ptm, 2, 2), h)
        assert np.trace(ptm) == np.trace(h)
        assert np.array_equal(ptm, ptm.conj().T)


def test_partial_transpose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        partial_transpose(np.eye(4), 2, 3)
