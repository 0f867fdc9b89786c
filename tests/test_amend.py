import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebchannels import (
    QubitChannelAffine,
    QuditAffineMap,
    UnitarySample,
    builtin_global_amendment_map,
    amend,
    choi,
    compose,
    depolarizing_channel,
    diagonal_channel,
    global_amendment_example,
    identity_channel,
    identity_qudit_map,
    interleave,
    local_amendment_search,
    pt_margin,
    run_builtin_global_example,
    seb_example_channel,
    unitary_channel,
)
from ebchannels import cli
from ebchannels.amend import REFERENCE_AMENDED_STATE
from ebchannels.channel import _choi, _rotations
from ebchannels.cli import amendment_report_dict
from ebchannels.errors import InvalidParameter, NonPositiveOutput, NotCP
from ebchannels.linalg import (
    STACK_BLOCK,
    _lapack_lowest,
    hermitian_eigenvalues,
    partial_transpose,
    svd3,
)
from ebchannels.tolerances import AMEND_TIE_TOL, EB_BOUNDARY_TOL
from golden import regen
from helpers import (
    random_cptp_channel,
    random_eb_channel,
    random_unital_cp_lambdas,
    random_unitary_sample,
)


def test_interleave_empty_is_base():
    base = seb_example_channel()
    composed = interleave(base, [])
    assert np.array_equal(composed.M, base.M)
    assert np.array_equal(composed.n, base.n)


def test_interleave_identity_unitaries_is_plain_composition():
    base = diagonal_channel([0.3, 0.5, 0.7], [0.0, 0.1, 0.2])
    us = [UnitarySample(axis=(0.0, 0.0, 1.0), angle=0.0)] * 3
    composed = interleave(base, us)
    plain = base
    for _ in range(3):
        plain = compose(plain, base)
    assert np.abs(composed.M - plain.M).max() < 1e-12
    assert np.abs(composed.n - plain.n).max() < 1e-12


def test_interleave_z_rotation_permutes_singular_values():
    a, b, c = 0.6, 0.4, 0.2
    base = diagonal_channel([a, b, c])
    composed = interleave(base, [UnitarySample(axis=(0.0, 0.0, 1.0), angle=np.pi / 2)])
    s = np.linalg.svd(composed.M, compute_uv=False)
    assert np.allclose(sorted(s), sorted([a * b, a * b, c * c]), atol=1e-12)


def test_local_search_rank_deficient_base_never_amends():
    base = seb_example_channel()
    for layers in (2, 3, 4):
        report = local_amendment_search(base, n_layers=layers, trials=200, seed=7)
        assert report.base_is_eb
        assert not report.amended
        assert report.best_margin <= 1e-12
        assert report.best_pt_min_eig >= -1e-12
        assert len(report.best_unitaries) == layers - 1


# An EB channel composed with any channel is EB, so no interleaving of an
# EB base entangles: the search can find no violation at any depth.
@settings(max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(2, 4),
    layers=st.integers(2, 4),
)
def test_local_search_never_amends_an_eb_base(seed, rank, layers):
    base = random_eb_channel(np.random.default_rng(seed), rank)
    report = local_amendment_search(base, n_layers=layers, trials=50, seed=seed)
    assert report.base_is_eb
    assert report.amended is False
    assert report.best_margin <= 1e-12


@pytest.mark.parametrize("layers", [2, 3, 4])
@pytest.mark.parametrize("p", [1 / 3, -1 / 3, 0.2, -0.25, 0.05, 0.0])
def test_local_search_on_depolarizing_bases_meets_the_unital_ceiling(p, layers):
    # the unital ceiling (sigma1^L + sigma2^L + sgn(det M)^L sigma3^L - 1) / 4,
    # met by every trial: each interleaving of depolarizing(p) is p^L times
    # a rotation
    sigma, sign = abs(p), float(np.sign(p))
    ceiling = (sigma**layers + sigma**layers + sign**layers * sigma**layers - 1.0) / 4.0
    report = local_amendment_search(depolarizing_channel(p), n_layers=layers, trials=20, seed=5)
    assert abs(report.best_margin - ceiling) <= 1e-12


def test_local_search_never_exceeds_the_unital_ceiling():
    # any unital CP base, rotated on both sides: no interleaving beats the
    # ceiling (sigma1^L + sigma2^L + sgn(det M)^L sigma3^L - 1) / 4 of its
    # singular values sigma and the sign of det M.  The proof, from Horn's
    # inequality for products, is in the docstring of
    # `amend._interleavings_tie`
    rng = np.random.default_rng(23)
    for k in range(240):
        lam = random_unital_cp_lambdas(rng, 1)[0]
        base = compose(
            random_unitary_sample(rng), compose(diagonal_channel(lam), random_unitary_sample(rng))
        )
        layers = 2 + k % 3
        _, sigma, _, sign = svd3(base.M)
        powers = sigma**layers * [1.0, 1.0, sign**layers]
        ceiling = (powers.sum() - 1.0) / 4.0
        report = local_amendment_search(base, n_layers=layers, trials=200, seed=k)
        assert report.best_margin <= ceiling + 1e-12


def test_local_search_identity_base_flags_not_eb():
    report = local_amendment_search(identity_channel(), n_layers=2, trials=50, seed=3)
    assert not report.base_is_eb
    assert abs(report.base_margin - (-0.5)) < 1e-12
    # every unitary interleaving of the identity is unitary again
    assert abs(report.best_pt_min_eig - (-0.5)) < 1e-12
    assert abs(report.best_margin - 0.5) < 1e-12
    assert not report.amended


def test_local_search_determinism():
    base = seb_example_channel()
    a = local_amendment_search(base, n_layers=3, trials=100, seed=42)
    b = local_amendment_search(base, n_layers=3, trials=100, seed=42)
    assert json.dumps(amendment_report_dict(a)) == json.dumps(amendment_report_dict(b))
    c = local_amendment_search(base, n_layers=3, trials=100, seed=43)
    assert json.dumps(amendment_report_dict(a)) != json.dumps(amendment_report_dict(c))


def test_local_search_validation():
    with pytest.raises(InvalidParameter):
        local_amendment_search(seb_example_channel(), n_layers=1, trials=10, seed=0)
    with pytest.raises(InvalidParameter):
        local_amendment_search(seb_example_channel(), n_layers=2, trials=0, seed=0)
    for n_layers in (10**17, 10**23):  # numpy refuses both before allocating
        with pytest.raises(InvalidParameter, match=f"n_layers = {n_layers} is too"):
            local_amendment_search(depolarizing_channel(0.3), n_layers, 2, 1)
    with pytest.raises(NotCP):
        local_amendment_search(diagonal_channel([1.0, 1.0, -1.0]), 2, 10, 0)


def test_builtin_map_shape():
    qmap = builtin_global_amendment_map()
    assert qmap.d == 4
    diag = np.diag(qmap.M)
    assert np.count_nonzero(diag) == 7
    assert np.count_nonzero(qmap.M - np.diag(diag)) == 0
    assert np.count_nonzero(qmap.n) == 2
    assert qmap.n[5] == 1.0 and qmap.n[8] == 1.0  # positions 6 and 9, 1-based


def test_identity_global_map_returns_choi():
    base = seb_example_channel()
    result = global_amendment_example(base, identity_qudit_map(4))
    assert np.abs(result.output_state - choi(base)).max() < 1e-12
    assert not result.entangled  # the base channel is EB


def test_global_output_hermitian_unit_trace():
    rng = np.random.default_rng(61)
    base = diagonal_channel([0.2, 0.2, 0.2])  # Choi spectrum away from zero
    for _ in range(20):
        qmap = QuditAffineMap(
            4, 0.01 * rng.standard_normal(15), 0.1 * rng.standard_normal((15, 15))
        )
        result = global_amendment_example(base, qmap)
        out = result.output_state
        assert np.abs(out - out.conj().T).max() < 1e-12
        assert abs(np.trace(out).real - 1.0) < 1e-12


def test_reference_state_pt_spectrum():
    # brute-force check of the bundled reference values: partial transpose
    # has minimum eigenvalue exactly -1/8, so the reference is entangled
    ev = np.linalg.eigvalsh(partial_transpose(REFERENCE_AMENDED_STATE, 2, 2))
    assert abs(ev[0] - (-0.125)) < 1e-14
    assert abs(np.trace(REFERENCE_AMENDED_STATE).real - 1.0) < 1e-15


def test_pipeline_reproduces_reference_with_consistent_map():
    # a diagonal map that preserves the populations and the outer coherence
    # and doubles the inner coherence reproduces the reference exactly;
    # this pins down the whole pipeline (coefficients, reassembly, verdict)
    m = np.zeros((15, 15))
    for pos in (5, 13, 14, 15):  # outer coherence + the three diagonal coords
        m[pos - 1, pos - 1] = 1.0
    m[6, 6] = 2.0  # inner coherence, position 7 (1-based)
    qmap = QuditAffineMap(4, np.zeros(15), m)
    result = global_amendment_example(seb_example_channel(), qmap)
    assert np.abs(result.output_state - REFERENCE_AMENDED_STATE).max() < 1e-12
    assert abs(result.pt_min_eig - (-0.125)) < 1e-12
    assert result.entangled


def test_builtin_example_does_not_reproduce_reference():
    # the bundled translation entries bump coefficient positions that the
    # reference output leaves untouched, so the positivity gate trips under
    # both sanctioned basis orderings and no ordering reproduces the target
    report = run_builtin_global_example()
    assert report.reproduced is None
    assert {a.ordering for a in report.attempts} == {"interleaved", "grouped"}
    for attempt in report.attempts:
        assert attempt.result is None
        assert "not positive semidefinite" in attempt.error


def test_non_positive_output_carries_eigenvalue():
    with pytest.raises(NonPositiveOutput) as excinfo:
        global_amendment_example(seb_example_channel(), builtin_global_amendment_map())
    assert excinfo.value.min_eig < -1e-8


def test_global_map_requires_d4():
    with pytest.raises(InvalidParameter):
        global_amendment_example(seb_example_channel(), identity_qudit_map(3))
    with pytest.raises(NotCP):
        global_amendment_example(diagonal_channel([1, 1, -1]), identity_qudit_map(4))


# full-rank EB base whose interleavings have no exact ties
_FULL_RANK_EB = QubitChannelAffine(
    [0.05, -0.03, 0.1], [[0.3, 0.05, 0.0], [0.02, 0.25, 0.04], [0.0, -0.03, -0.2]]
)


def _replayed_unitaries(rng, count):
    # the documented draw order: a Gaussian triple (redrawn if nearly zero),
    # normalized to the axis, then a uniform angle in [0, 2 pi)
    out = []
    for _ in range(count):
        raw = rng.standard_normal(3)
        while np.linalg.norm(raw) <= 1e-12:
            raw = rng.standard_normal(3)
        axis = raw / np.linalg.norm(raw)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        out.append(UnitarySample(axis=(axis[0], axis[1], axis[2]), angle=angle))
    return tuple(out)


def test_local_search_keeps_the_draw_order():
    report = local_amendment_search(_FULL_RANK_EB, n_layers=3, trials=450, seed=11)
    rng = np.random.default_rng(11)
    for _ in range(report.best_trial + 1):
        unitaries = _replayed_unitaries(rng, 2)
    assert report.best_unitaries == unitaries
    composite = interleave(_FULL_RANK_EB, report.best_unitaries)
    assert report.best_pt_min_eig.hex() == pt_margin(composite).hex()


def _reference_draws(rng, count):
    # one rotation at a time: a Gaussian triple, redrawn while its norm is
    # at most 1e-12, normalized to the axis, then an angle 2 pi * random()
    axes, angles = [], []
    for _ in range(count):
        d = rng.standard_normal(3)
        while math.sqrt(d @ d) <= 1e-12:
            d = rng.standard_normal(3)
        axes.append(d / math.sqrt(d @ d))
        angles.append(2.0 * math.pi * rng.random())
    return np.reshape(axes, (count, 3)), np.array(angles)


def test_sampler_equals_the_draw_by_draw_reference():
    for seed in range(200):
        count = 1 + seed * 7 % 97
        axes, angles = amend._sample_unitaries(np.random.default_rng(seed), count)
        want_axes, want_angles = _reference_draws(np.random.default_rng(seed), count)
        assert axes.tobytes() == want_axes.tobytes()
        assert angles.tobytes() == want_angles.tobytes()


class _ScriptedGenerator:
    # hands out fixed Gaussian triples and uniforms in call order, and logs
    # which kind of draw each call was.  It is its own bit generator: a raw
    # word carries the uniform's 53 bits above 11 zero bits, so (word >> 11)
    # * 2^-53 is the uniform, as on PCG64; its state snapshots the queues,
    # and restoring it replays the same draws
    def __init__(self, triples, uniforms):
        self.triples, self.uniforms = list(triples), list(uniforms)
        self.calls = []

    @property
    def bit_generator(self):
        return self

    @property
    def state(self):
        return list(self.triples), list(self.uniforms)

    @state.setter
    def state(self, saved):
        self.calls.append("restore")
        self.triples, self.uniforms = map(list, saved)

    def standard_normal(self, size=None, out=None):
        self.calls.append("normal")
        triple = np.array(self.triples.pop(0), dtype=float)
        if out is None:
            assert size == 3
            return triple
        out[...] = triple
        return out

    def random(self):
        self.calls.append("random")
        return self.uniforms.pop(0)

    def random_raw(self):
        self.calls.append("raw")
        return int(self.uniforms.pop(0) * 2**53) << 11


def _assert_scripted_draws(triples, reference_calls, redrawn):
    # the sampler draws the whole block with one Gaussian and one raw word
    # per rotation (three rotations count as a block here).  A block holding
    # a tiny triple is restored to its saved state and drawn again in the
    # reference order, one rotation at a time
    uniforms = [0.25, 0.5, 0.75]
    sampler = _ScriptedGenerator(triples, uniforms)
    reference = _ScriptedGenerator(triples, uniforms)
    axes, angles = amend._sample_unitaries(sampler, 3)
    want_axes, want_angles = _reference_draws(reference, 3)
    assert axes.tobytes() == want_axes.tobytes()
    assert angles.tobytes() == want_angles.tobytes()
    assert reference.calls == reference_calls
    block = ["normal", "raw"] * 3
    assert sampler.calls == (block + ["restore"] + reference.calls if redrawn else block)
    return axes


def test_sampler_redraws_tiny_triples_in_the_reference_order(monkeypatch):
    monkeypatch.setattr(amend, "_BLOCK_DRAW_MIN", 3)
    triples = [
        (1e-13, 0.0, 0.0),  # norm below 1e-12: redrawn
        (0.3, -1.2, 0.5),
        (1e-12, 2.0, 0.0),  # |x| <= 2e-12 but a large norm: kept
        (-1e-13, 1e-14, 0.0),  # redrawn
        (0.0, 0.0, 0.0),  # redrawn
        (0.0, 0.0, 3.0),
    ]
    reference_calls = (
        ["normal", "normal", "random"]
        + ["normal", "random"]
        + ["normal", "normal", "normal", "random"]
    )
    axes = _assert_scripted_draws(triples, reference_calls, redrawn=True)
    assert np.array_equal(axes[1], [5e-13, 1.0, 0.0])


@pytest.mark.parametrize("redrawn", [True, False])
def test_sampler_redraws_a_block_from_its_saved_state(monkeypatch, redrawn):
    # a tiny triple in the middle of the block sends the whole block back
    # to the saved state; without one the first draws stand
    monkeypatch.setattr(amend, "_BLOCK_DRAW_MIN", 3)
    middle = [(-1e-13, 1e-14, 0.0)] if redrawn else []
    triples = [(0.0, 0.0, 3.0), *middle, (1e-12, 2.0, 0.0), (0.3, -1.2, 0.5)]
    reference_calls = ["normal", "random"] + ["normal"] * len(middle) + ["normal", "random"] * 2
    axes = _assert_scripted_draws(triples, reference_calls, redrawn)
    assert np.array_equal(axes[1], [5e-13, 1.0, 0.0])


# a unital base just outside `amend._interleavings_tie` at three layers:
# its singular values are 1e-12 apart, too far for the predicate, yet its
# interleavings' violations still tie closely enough that the screen
# carries every trial of a block
_NEAR_TIE_BASE = compose(
    unitary_channel([0.6, 0.0, 0.8], 1.1),
    compose(diagonal_channel([1.0, 1.0 + 1e-12, 1.0 + 5e-13]), unitary_channel([0.0, 1.0, 0.0], 2.3)),
)


def test_search_memory_stays_within_a_block(monkeypatch):
    # the tracemalloc peak of a 3 x 1000 search on the near-tie base, which
    # carries every trial of its first block into the second and sweeps
    # one, after a warm-up call (the first call also allocates ~0.8 MB of
    # numpy's first-use state): ~1.1 MB with blocks of 512, against
    # ~1.5 MB when every trial was swept
    assert not amend._interleavings_tie(_NEAR_TIE_BASE, 3)
    carried = []
    cut = amend._cut

    def recording(pool, floor):
        carried.append(len(pool.trial))
        return cut(pool, floor)

    monkeypatch.setattr(amend, "_cut", recording)
    local_amendment_search(_NEAR_TIE_BASE, n_layers=3, trials=1000, seed=7)
    assert carried == [STACK_BLOCK]
    tracemalloc.start()
    try:
        local_amendment_search(_NEAR_TIE_BASE, n_layers=3, trials=1000, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


# the block edges of STACK_BLOCK and of the earlier block of 200
_EDGE_TRIALS = (
    1,
    199,
    200,
    201,
    STACK_BLOCK - 1,
    STACK_BLOCK,
    STACK_BLOCK + 1,
    1000,
    2 * STACK_BLOCK + 1,
)


@pytest.mark.parametrize("trials", _EDGE_TRIALS)
def test_local_search_matches_trial_by_trial_loop(trials):
    report = local_amendment_search(_FULL_RANK_EB, n_layers=3, trials=trials, seed=5)
    violations = _trial_by_trial_violations()[:trials]
    best_trial = int(np.argmax(violations))  # the first strict maximum
    assert report.best_trial == best_trial
    assert report.best_margin.hex() == violations[best_trial].hex()
    assert report.base_is_eb and not report.amended


@functools.lru_cache(maxsize=None)
def _trial_by_trial_violations():
    # each trial's violation for seed 5, one composite at a time; every
    # search length above reads a prefix
    rng = np.random.default_rng(5)
    return np.array(
        [
            -pt_margin(interleave(_FULL_RANK_EB, _replayed_unitaries(rng, 2)))
            for _ in range(max(_EDGE_TRIALS))
        ]
    )


def _unfiltered_search(base, n_layers, trials, seed):
    # the search with every trial through the Jacobi sweep: the same draws
    # and composites, each trial's violation and rotations.  The sweep's
    # result does not depend on the block, so one pass serves every shorter
    # search as a prefix
    rng = np.random.default_rng(seed)
    layers = n_layers - 1
    axes, angles = amend._sample_unitaries(rng, trials * layers)
    rotations = _rotations(axes, angles).reshape(trials, layers, 3, 3)
    violations = -hermitian_eigenvalues(amend._interleaved_pt_chois(base, rotations))
    return violations[:, 0], axes.reshape(trials, layers, 3), angles.reshape(trials, layers)


def _tie_rule(violations):
    # the lowest trial whose violation is within AMEND_TIE_TOL of the largest
    return int(np.flatnonzero(violations >= violations.max() - AMEND_TIE_TOL)[0])


def _assert_matches_unfiltered(base, n_layers, trial_counts, seed, no_ties=False):
    all_violations, all_axes, all_angles = _unfiltered_search(
        base, n_layers, max(trial_counts), seed
    )
    for trials in trial_counts:
        report = local_amendment_search(base, n_layers, trials, seed)
        trial = _tie_rule(all_violations[:trials])
        if no_ties:
            assert trial == int(np.argmax(all_violations[:trials]))
        violation = all_violations[trial]
        unitaries = tuple(
            UnitarySample(axis=tuple(axis), angle=float(angle))
            for axis, angle in zip(all_axes[trial], all_angles[trial])
        )
        assert (report.best_trial, report.best_unitaries) == (trial, unitaries)
        assert float(violation).hex() == report.best_margin.hex()
        assert float(-violation).hex() == report.best_pt_min_eig.hex()
        assert report.amended == bool(report.base_is_eb and violation > EB_BOUNDARY_TOL)
    return all_violations


_NAMED_BASES = {
    "seb-example": seb_example_channel(),
    "depolarizing-third": depolarizing_channel(1.0 / 3.0),
    "depolarizing-0.3": depolarizing_channel(0.3),
}


_SCREEN_TRIALS = tuple(sorted(_EDGE_TRIALS + (401,)))


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("n_layers", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(_NAMED_BASES))
def test_screened_search_equals_unfiltered_on_named_bases(name, n_layers, seed):
    # depolarizing trials tie to rounding, so the tie rule picks the first
    _assert_matches_unfiltered(_NAMED_BASES[name], n_layers, _SCREEN_TRIALS, seed)


@pytest.mark.parametrize("case", range(24))
def test_screened_search_equals_unfiltered_on_random_bases(case):
    base = random_cptp_channel(np.random.default_rng(900 + case))
    trials = _SCREEN_TRIALS[case % len(_SCREEN_TRIALS)]
    _assert_matches_unfiltered(base, 2 + case % 3, (trials,), seed=case, no_ties=True)


def _replaying_stack(monkeypatch, stack):
    # the search's composites replaced by `stack`, block by block
    offset = 0

    def chois(base, rotations):
        nonlocal offset
        offset += len(rotations)
        return stack[offset - len(rotations) : offset]

    monkeypatch.setattr(amend, "_interleaved_pt_chois", chois)


def _rotated_chois(rng, base, count):
    # one channel between random rotations: PT-Choi matrices that share a
    # spectrum up to rounding
    axes = rng.standard_normal((2 * count, 3))
    rotations = _rotations(
        axes / np.linalg.norm(axes, axis=1)[:, None],
        rng.uniform(0.0, 2.0 * np.pi, 2 * count),
    ).reshape(2, count, 3, 3)
    return partial_transpose(
        _choi(rotations[0] @ base.n, rotations[0] @ base.M @ rotations[1]), 2, 2
    )


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 2 * STACK_BLOCK + 1),
    spread=st.sampled_from([0.0, 1e-3, 1.0, 3.0]),
)
def test_screen_keeps_the_tie_rule_across_the_threshold(seed, count, spread):
    # trials that tie to rounding, each moved by up to `spread` bands and
    # half of them lowered to about max - tol: those straddle the tie
    # threshold, and only the Jacobi sweep can place them
    rng = np.random.default_rng(seed)
    base = random_cptp_channel(rng)
    chois = _rotated_chois(rng, base, count)
    _, delta = _lapack_lowest(chois)
    shift = rng.uniform(-spread, spread, count) * delta
    shift += np.where(rng.random(count) < 0.5, 0.0, AMEND_TIE_TOL)
    stack = chois + shift[:, None, None] * np.eye(4)
    violations = -hermitian_eigenvalues(stack)[:, 0]
    with pytest.MonkeyPatch.context() as monkeypatch:
        _replaying_stack(monkeypatch, stack)
        report = local_amendment_search(base, n_layers=2, trials=count, seed=seed)
    assert report.best_trial == _tie_rule(violations)
    assert report.best_margin.hex() == violations[report.best_trial].hex()


@pytest.mark.parametrize(
    "rise, best_trial",
    [(0.5, 0), (1.5, 7), (2.0, STACK_BLOCK + 3)],
)
def test_a_later_block_moves_the_best_within_the_first(monkeypatch, rise, best_trial):
    # block 1 ties at V except trial 7 at V + 0.8 tol, so trial 0 leads it;
    # trial 3 of block 2 at V + rise * tol puts the threshold above trial 0
    # once rise > 1, and above trial 7 too once rise > 1.8
    count = STACK_BLOCK + 40
    chois = _rotated_chois(np.random.default_rng(3), _FULL_RANK_EB, count)
    raise_by = np.zeros(count)
    raise_by[[7, STACK_BLOCK + 3]] = [0.8 * AMEND_TIE_TOL, rise * AMEND_TIE_TOL]
    stack = chois - raise_by[:, None, None] * np.eye(4)
    violations = -hermitian_eigenvalues(stack)[:, 0]
    rows = _jacobi_rows(monkeypatch)
    _replaying_stack(monkeypatch, stack)
    report = local_amendment_search(_FULL_RANK_EB, n_layers=2, trials=count, seed=0)
    assert report.best_trial == _tie_rule(violations) == best_trial
    assert report.best_margin.hex() == violations[best_trial].hex()
    assert rows == [1]


def _jacobi_rows(monkeypatch):
    # how many matrices the search hands to the Jacobi sweep
    rows = []

    def counting(m):
        rows.append(len(m))
        return hermitian_eigenvalues(m)

    monkeypatch.setattr(amend, "hermitian_eigenvalues", counting)
    return rows


def _drawn_rotations(monkeypatch):
    # the rotation counts of each `_sample_unitaries` call
    counts = []
    sample = amend._sample_unitaries

    def counting(rng, count):
        counts.append(count)
        return sample(rng, count)

    monkeypatch.setattr(amend, "_sample_unitaries", counting)
    return counts


def _screened_matrices(monkeypatch):
    # how many matrices each LAPACK screen and each Cholesky test receives
    lapack, cholesky = [], []
    lowest, above = amend._lapack_lowest, amend._cholesky_above

    def counting_lowest(h):
        lapack.append(len(h))
        return lowest(h)

    def counting_above(h, bound, norm):
        cholesky.append(len(h))
        return above(h, bound, norm)

    monkeypatch.setattr(amend, "_lapack_lowest", counting_lowest)
    monkeypatch.setattr(amend, "_cholesky_above", counting_above)
    return lapack, cholesky


def test_pool_searches_send_few_trials_to_lapack(monkeypatch, tmp_path, capsys):
    # the non-tie ops of the seed-101 amend-search pool: the Cholesky test
    # sees both blocks whole, and LAPACK each block's 8 seeds plus the few
    # trials the test cannot drop
    argvs = regen.ops(regen.SEED, tmp_path)
    searches = [
        argv
        for key, argv in argvs.items()
        if key.startswith("amend-search/") and "depolarizing" not in key
    ]
    assert len(searches) == 8
    lapack, cholesky = _screened_matrices(monkeypatch)
    monkeypatch.chdir(tmp_path)
    for argv in searches:
        lapack.clear()
        cholesky.clear()
        assert cli.main(argv) == 0
        assert cholesky == [STACK_BLOCK, 1000 - STACK_BLOCK]
        assert sum(lapack) <= 64
    capsys.readouterr()


def test_readme_search_sweeps_few_trials(monkeypatch):
    rows = _jacobi_rows(monkeypatch)
    report = local_amendment_search(seb_example_channel(), n_layers=3, trials=1000, seed=7)
    assert not report.amended
    assert 1 <= sum(rows) <= 5


_TIE_BASES = {
    "depolarizing-third": depolarizing_channel(1.0 / 3.0),
    "depolarizing-0.3": depolarizing_channel(0.3),
    "identity": identity_channel(),
}


@pytest.mark.parametrize("n_layers", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(_TIE_BASES))
def test_tie_base_search_sweeps_one_trial(monkeypatch, name, n_layers):
    # every interleaving of these bases has the same spectrum, so
    # `amend._interleavings_tie` holds: the search draws trial 0's
    # rotations alone and sweeps that one trial
    drawn = _drawn_rotations(monkeypatch)
    rows = _jacobi_rows(monkeypatch)
    lapack, cholesky = _screened_matrices(monkeypatch)
    report = local_amendment_search(_TIE_BASES[name], n_layers, trials=1000, seed=7)
    assert (drawn, rows, lapack, cholesky) == ([n_layers - 1], [1], [1], [])
    assert report.best_trial == 0


@pytest.mark.parametrize("n_layers", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(_TIE_BASES))
def test_tie_base_report_replays(name, n_layers):
    base = _TIE_BASES[name]
    report = local_amendment_search(base, n_layers, trials=1000, seed=7)
    composite = interleave(base, report.best_unitaries)
    assert pt_margin(composite).hex() == report.best_pt_min_eig.hex()


def _near_isotropic_base(p, eps):
    # p R1 diag(1, 1 + eps, 1 + eps / 3) R2 for two fixed rotations: a
    # unital base whose singular values are |p| and at most |p| eps apart
    return compose(
        unitary_channel([0.48, 0.6, 0.64], 0.7),
        compose(
            diagonal_channel(p * np.array([1.0, 1.0 + eps, 1.0 + eps / 3.0])),
            unitary_channel([0.0, -0.8, 0.6], 4.1),
        ),
    )


_NEAR_ISOTROPIC_EPS = (0.0, 1e-15, 1e-14, 1e-13, 3e-13, 1e-12, 1e-11, 1e-10)


@pytest.mark.parametrize("eps", _NEAR_ISOTROPIC_EPS)
@pytest.mark.parametrize("p", [1.0, 0.6, -1.0 / 3.0, 0.0])
def test_tie_predicate_keeps_the_tie_rule(monkeypatch, p, eps):
    # on either side of the predicate the search is the unfiltered tie
    # rule bit for bit, and it draws trial 0's rotations alone exactly
    # when the predicate holds (the first draw is the unfiltered one's).
    # Where it holds, the violations spread by at most the tie tolerance
    base = _near_isotropic_base(p, eps)
    drawn = _drawn_rotations(monkeypatch)
    trials = 200
    for n_layers in range(2, 9):
        drawn.clear()
        violations = _assert_matches_unfiltered(base, n_layers, (trials,), seed=n_layers)
        tie = amend._interleavings_tie(base, n_layers)
        assert sum(drawn[1:]) == (1 if tie else trials) * (n_layers - 1)
        assert not tie or violations.max() - violations.min() <= AMEND_TIE_TOL


@pytest.mark.parametrize("p", [1.0, 0.6])
def test_tie_predicate_grid_crosses_the_threshold(p):
    # the near-isotropic grid above holds bases on both sides of the
    # predicate; p = 0, whose interleavings are all exactly zero, ties
    verdicts = {
        amend._interleavings_tie(_near_isotropic_base(p, eps), n_layers)
        for eps in _NEAR_ISOTROPIC_EPS
        for n_layers in range(2, 9)
    }
    assert verdicts == {True, False}
    assert all(amend._interleavings_tie(_near_isotropic_base(0.0, 1e-11), n) for n in range(2, 9))


def test_tie_predicate_refuses_non_unital_bases():
    rng = np.random.default_rng(41)
    bases = [random_cptp_channel(rng) for _ in range(40)]
    bases += [random_eb_channel(rng, rank) for rank in (2, 3, 4) for _ in range(10)]
    bases += [
        QubitChannelAffine(n, depolarizing_channel(p).M)
        for n in ([0.0, 0.0, 5e-324], [1e-300, 0.0, 0.0], [0.0, -1e-17, 0.0])
        for p in (0.0, 1.0 / 3.0, 1.0)
    ]
    for base in bases:
        assert base.n.any()
        for n_layers in (2, 3, 5, 8):
            assert not amend._interleavings_tie(base, n_layers)


@pytest.mark.parametrize("name", sorted(_TIE_BASES))
def test_long_tie_searches_draw_and_sweep_one_trial(monkeypatch, name):
    # whatever `trials` is, a tie search draws trial 0's two rotations,
    # sweeps that one row and reports the 3 x 1000 search's bytes
    base = _TIE_BASES[name]
    drawn = _drawn_rotations(monkeypatch)
    rows = _jacobi_rows(monkeypatch)
    short = amendment_report_dict(local_amendment_search(base, 3, 1000, 7))
    for trials in (3000, 10000):
        drawn.clear()
        rows.clear()
        report = amendment_report_dict(local_amendment_search(base, 3, trials, 7))
        assert (drawn, rows) == ([2], [1])
        assert json.dumps(report) == json.dumps({**short, "trials": trials})


@pytest.mark.parametrize("seed", [None, 900, 901])
def test_long_searches_sweep_one_row(monkeypatch, seed):
    # seb-example (seed None) and two random CP bases: the LAPACK bounds
    # decide all but one of 10000 trials
    base = seb_example_channel() if seed is None else random_cptp_channel(np.random.default_rng(seed))
    assert not amend._interleavings_tie(base, 3)
    rows = _jacobi_rows(monkeypatch)
    local_amendment_search(base, n_layers=3, trials=10000, seed=7)
    assert rows == [1]
