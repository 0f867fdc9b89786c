import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebchannels import (
    Decoherence,
    Depolarization,
    Homogenization,
    QubitChannelAffine,
    channel_at,
    choi,
    choi_partial_transpose,
    diagonal_channel,
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


def _padded(matrices):
    # the matrices, followed by diagonal ones that converge without a
    # rotation, up to the shortest stack that takes the vectorized sweep
    matrices = np.asarray(matrices, dtype=complex)
    n = matrices.shape[-1]
    pad = np.diag(np.arange(1.0, n + 1.0))
    return np.concatenate(
        [matrices, np.repeat(pad[None], max(linalg._VECTOR_MIN - len(matrices), 0), axis=0)]
    )


@pytest.fixture
def stack_sweeps(monkeypatch):
    # the number of matrices handed to each vectorized sweep
    counts = []
    sweep = linalg._jacobi_stack

    def counting(h):
        counts.append(len(h))
        return sweep(h)

    monkeypatch.setattr(linalg, "_jacobi_stack", counting)
    return counts


def _hex(values):
    return [[float(v).hex() for v in row] for row in np.atleast_2d(values)]


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
def test_eigenvalues_keep_tiny_block_signs(stacked, stack_sweeps):
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
        # after matrices that converge without a rotation
        ev = hermitian_eigenvalues(_padded([m])[::-1])[-1]
        assert stack_sweeps == [linalg._VECTOR_MIN]
    else:
        ev = hermitian_eigenvalues(m)
    assert ev[0] < 0.0
    assert abs(ev[0] + w) < 1e-6 * w  # relative accuracy, not just absolute
    assert abs(ev[-1] - 0.5) < 1e-15


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "m", [np.diag([1e308, 1.0]), np.array([[1e308]])], ids=["2x2", "1x1"]
)
def test_symmetrizing_entries_near_the_float_range_does_not_overflow(m, stack_sweeps):
    # m + m^dagger would leave the float range; the eigenvalues are the
    # diagonal entries, exactly
    expected = np.sort(np.diag(m))
    assert _hex(hermitian_eigenvalues(m)) == _hex(expected)
    stacked = hermitian_eigenvalues(_padded([m]))
    assert stack_sweeps == [linalg._VECTOR_MIN]
    assert _hex(stacked[0]) == _hex(expected)


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
    # published digit
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
    assert _hex(hermitian_eigenvalues(stack)) == _hex(
        [hermitian_eigenvalues(m) for m in stack]
    )


@pytest.mark.parametrize("count", [199, 200, 201, 401])
def test_stacked_eigenvalues_across_block_edges(count):
    stack = _random_pt_chois(np.random.default_rng(count), count)
    assert np.array_equal(
        hermitian_eigenvalues(stack), [hermitian_eigenvalues(m) for m in stack]
    )


def test_stacked_eigenvalues_edge_shapes(stack_sweeps):
    assert hermitian_eigenvalues(np.zeros((0, 4, 4))).shape == (0, 4)
    count = linalg._VECTOR_MIN
    ones = hermitian_eigenvalues(np.full((count, 1, 1), 2.0))
    assert np.array_equal(ones, np.full((count, 1), 2.0))
    assert stack_sweeps == [count]


@pytest.mark.parametrize("n", [1, 4])
def test_short_stacks_take_the_scalar_sweep(n, stack_sweeps):
    rng = np.random.default_rng(25)
    for count in range(linalg._VECTOR_MIN):
        b = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
        stack = b + b.conj().swapaxes(1, 2)
        got = hermitian_eigenvalues(stack)
        want = [hermitian_eigenvalues(m) for m in stack]
        assert np.array_equal(got, np.reshape(want, (count, n)))
    assert stack_sweeps == []
    hermitian_eigenvalues(np.stack([np.eye(n)] * linalg._VECTOR_MIN))
    assert stack_sweeps == [linalg._VECTOR_MIN]


def _signed_zero_stack():
    # 4x4 matrices with exact zeros of either sign among their entries,
    # and many exact zero eigenvalues
    signed = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0]
    rng = np.random.default_rng(26)
    chois = []
    for _ in range(300):
        phi = diagonal_channel(rng.choice(signed, 3), rng.choice(signed, 3) * 0.5)
        chois += [choi(phi), choi_partial_transpose(phi)]
    # family grids past exp underflow: the margins are exact zeros
    for family, t_max in (
        (Decoherence(T=1.0), 3000.0),
        (Depolarization(T=1.0), 1000.0),
        (Homogenization(T1=1.0, T2=1.0, w=1.0), 2000.0),
    ):
        for t in np.linspace(0.0, t_max, 17):
            phi = channel_at(family, t)
            chois += [choi(phi), choi_partial_transpose(phi)]
    # sparse Hermitian matrices with exact (signed) zeros
    for _ in range(300):
        n = int(rng.integers(2, 5))
        values = rng.choice(signed, (n, n)) + 1j * rng.choice(signed, (n, n))
        a = np.where(rng.random((n, n)) < 0.6, rng.choice([0.0, -0.0], (n, n)), values)
        h = np.triu(a, 1)
        lower = np.tril_indices(n, -1)
        h[lower] = h.conj().T[lower]  # assigned, not added: keeps each -0.0
        np.fill_diagonal(h, rng.choice(signed, n))
        chois.append(np.pad(h, ((0, 4 - n), (0, 4 - n))))
    return np.array(chois, dtype=complex)


def test_both_sweeps_agree_on_signed_zeros(stack_sweeps):
    stack = _signed_zero_stack()
    parts = np.concatenate([stack.real.ravel(), stack.imag.ravel()])
    assert np.signbit(parts[parts == 0.0]).any()
    # the published route: symmetrized, then swept vectorized or one by one
    stacked = hermitian_eigenvalues(stack)
    assert sum(stack_sweeps) == len(stack)
    assert (stacked == 0.0).sum() > 100
    assert _hex(stacked) == _hex([hermitian_eigenvalues(m) for m in stack])
    # the two sweeps on the unsymmetrized matrices, whose -0.0 diagonal
    # entries survive into the eigenvalues
    swept = linalg._jacobi_stack(stack)
    signs = np.signbit(swept[swept == 0.0])
    assert signs.any() and not signs.all()
    assert _hex(swept) == _hex([linalg._jacobi(m) for m in stack.tolist()])


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


def test_stacked_eigenvalues_raise_when_any_matrix_keeps_rotating(
    monkeypatch, stack_sweeps
):
    stack = _random_pt_chois(np.random.default_rng(20), 3)
    stack[0] = np.eye(4)  # converges at once; the others need several sweeps
    monkeypatch.setattr(linalg, "MAX_JACOBI_SWEEPS", 1)
    with pytest.raises(ConvergenceFailure):
        hermitian_eigenvalues(_padded(stack))
    assert stack_sweeps == [linalg._VECTOR_MIN]


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
    stacked = hermitian_eigenvalues(_padded(matrices))[: len(matrices), 0]
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
