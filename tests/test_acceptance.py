"""Acceptance suite: one test per release criterion.

Each test prints a single `criterion N: PASS/FAIL` line (run with -s to
see them all) and pins its tolerance inline; tolerances here are part of
the contract and must not be loosened to force a pass.
"""

import math
import time

import numpy as np

from ebchannels import (
    Decoherence,
    Depolarization,
    Homogenization,
    channel_at,
    choi,
    choi_partial_transpose,
    diagonal_channel,
    eb_onset,
    homogenization_eb_condition,
    homogenization_f,
    identity_channel,
    is_eb_numeric,
    lambda1_zero_spectrum,
    local_amendment_search,
    pt_margin,
    run_builtin_global_example,
    seb_example_channel,
    unital_eb_condition,
    unital_eb_condition_minmax,
    unital_spectra,
    uniaxial_eb_condition,
    uniaxial_spectra,
    validate_cptp,
)
from ebchannels.amend import REFERENCE_AMENDED_STATE
from ebchannels.linalg import hermitian_eigenvalues, partial_transpose
from helpers import axial_channel, random_lambda1_zero_cp


def _report(num: int, ok: bool, detail: str = ""):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _max_spectrum_error(spectra, matrices) -> float:
    # largest deviation of the sorted spectra from the eigenvalues of the
    # matrices, all taken from one stacked eigensolve
    eigenvalues = hermitian_eigenvalues(np.stack(matrices))
    return float(np.abs(np.sort(spectra, axis=1) - eigenvalues).max())


def test_criterion_01_closed_form_unital_spectra():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    raw = rng.uniform(-1.0, 1.0, (10_000, 3))
    spectra = ([], [])
    chois = ([], [])
    for lam in raw:
        if unital_spectra(lam)[0].min() < 0.0:  # CP filter
            continue
        phi = diagonal_channel(lam)
        spec_rho, spec_pt = unital_spectra(lam)
        spectra[0].append(spec_rho)
        spectra[1].append(spec_pt)
        chois[0].append(choi(phi))
        chois[1].append(choi_partial_transpose(phi))
    kept = len(chois[0])
    worst = max(map(_max_spectrum_error, spectra, chois))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst < 1e-10 and elapsed < 5.0 and kept > 1000,
        f"{kept} CP samples, max err {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_unital_condition_equivalences():
    # same sample as criterion 1 (same seed and draw), then fresh triples
    # for the two-forms comparison
    rng = np.random.default_rng(1001)
    raw = rng.uniform(-1.0, 1.0, (10_000, 3))
    mismatches = 0
    checked = 0
    for lam in raw:
        if unital_spectra(lam)[0].min() < 0.0:
            continue
        verdict = is_eb_numeric(diagonal_channel(lam))
        if abs(verdict.margin) > 1e-9:
            checked += 1
            if unital_eb_condition(lam) != verdict.is_eb:
                mismatches += 1
    form_disagreements = sum(
        unital_eb_condition(lam) != unital_eb_condition_minmax(lam)
        for lam in rng.uniform(-1.0, 1.0, (100_000, 3))
    )
    _report(
        2,
        mismatches == 0 and form_disagreements == 0,
        f"{checked} banded comparisons, {form_disagreements} form disagreements",
    )


def test_criterion_03_vanishing_singular_value():
    rng = np.random.default_rng(1003)
    spectra = []
    chois = ([], [])
    all_eb = True
    for _ in range(1000):
        lam2, lam3, n = random_lambda1_zero_cp(rng)
        phi = diagonal_channel([0.0, lam2, lam3], n)
        verdict = is_eb_numeric(phi)
        all_eb = all_eb and verdict.is_eb
        spectra.append(lambda1_zero_spectrum(lam2, lam3, n))
        chois[0].append(choi(phi))
        chois[1].append(choi_partial_transpose(phi))
    worst = max(_max_spectrum_error(spectra, matrices) for matrices in chois)
    _report(3, all_eb and worst < 1e-10, f"max spectrum err {worst:.2e}")


def test_criterion_04_single_axis_translation():
    rng = np.random.default_rng(1004)
    spectra = ([], [])
    chois = ([], [])
    mismatches = 0
    produced = 0
    while produced < 10_000:
        lam = rng.uniform(-1.0, 1.0, 3)
        n3 = rng.uniform(-1.0, 1.0)
        spec_rho, spec_pt = uniaxial_spectra(lam, n3)
        if spec_rho.min() < 0.0:  # CP filter
            continue
        produced += 1
        phi = axial_channel(lam, n3)
        verdict = is_eb_numeric(phi)
        if abs(verdict.margin) > 1e-9:
            if uniaxial_eb_condition(lam, n3, axis=2) != verdict.is_eb:
                mismatches += 1
        spectra[0].append(spec_rho)
        spectra[1].append(spec_pt)
        chois[0].append(choi(phi))
        chois[1].append(choi_partial_transpose(phi))
    worst = max(map(_max_spectrum_error, spectra, chois))
    _report(
        4,
        mismatches == 0 and worst < 1e-10,
        f"max spectrum err {worst:.2e}, {mismatches} verdict mismatches",
    )


def test_criterion_05_depolarization_onset():
    onset = eb_onset(Depolarization(T=1.0), 10.0)
    ok = onset is not None and abs(onset - math.log(3.0)) < 1e-8
    _report(5, ok, f"onset {onset!r} vs ln 3 = {math.log(3.0):.10f}")


def test_criterion_06_decoherence_never_eb():
    ok = True
    for omega in (0.0, 5.0):
        family = Decoherence(T=1.0, omega=omega)
        for t in np.linspace(0.0, 50.0, 1000):
            if not pt_margin(channel_at(family, float(t))) < 0.0:
                ok = False
        if eb_onset(family, 50.0) is not None:
            ok = False
    _report(6, ok, "margins < 0 at 2 x 1000 times, onset none")


def test_criterion_07_homogenization_grid():
    times = np.linspace(0.05, 5.0, 50)
    ratios = np.linspace(0.5, 5.0, 50)  # T1/T2 >= 1/2 keeps the family CP
    mismatches = 0
    literal_disagreements = 0
    total = 0
    w1_eb_points = 0
    antitone_ok = True
    for t in times:
        for ratio in ratios:
            previous = True
            for w in (0.0, 0.3, 0.7, 1.0):
                family = Homogenization(T1=float(ratio), T2=1.0, w=w)
                verdict = is_eb_numeric(channel_at(family, float(t)))
                closed = homogenization_eb_condition(float(t), float(ratio), 1.0, w)
                total += 1
                if abs(verdict.margin) > 1e-9:
                    if closed != verdict.is_eb:
                        mismatches += 1
                    literal = homogenization_f(float(t), float(ratio), 1.0, w).f >= 0.0
                    if literal != verdict.is_eb:
                        literal_disagreements += 1
                if w == 1.0 and verdict.is_eb:
                    w1_eb_points += 1
                if closed and not previous:
                    antitone_ok = False
                previous = closed
    rate = literal_disagreements / total
    print(
        f"criterion  7 note: literal f column disagrees with the PPT oracle on "
        f"{literal_disagreements}/{total} grid points ({100 * rate:.3f}%); "
        f"reported, not asserted zero"
    )
    _report(
        7,
        mismatches == 0 and w1_eb_points == 0 and antitone_ok,
        f"{mismatches} closed-form mismatches, {w1_eb_points} w=1 EB points",
    )


def test_criterion_08_rank_deficient_base_never_amended():
    base = seb_example_channel()
    start = time.perf_counter()
    ok = True
    worst = -np.inf
    for layers in (2, 3, 4):
        report = local_amendment_search(base, n_layers=layers, trials=1000, seed=802)
        worst = max(worst, report.best_margin)
        if report.amended or report.best_margin > 1e-12:
            ok = False
    elapsed = time.perf_counter() - start
    _report(
        8,
        ok and elapsed < 10.0,
        f"best violation {worst:.2e} over 3 x 1000 trials, {elapsed:.2f} s",
    )


def test_criterion_09_global_amendment_reproduction():
    # independent oracle for the reference values: LAPACK eigendecomposition
    # of the bundled state's partial transpose
    oracle_min = float(
        np.linalg.eigvalsh(partial_transpose(REFERENCE_AMENDED_STATE, 2, 2))[0]
    )
    assert abs(oracle_min - (-0.125)) < 1e-14

    report = run_builtin_global_example(tol=1e-12)
    attempts = {a.ordering: a for a in report.attempts}
    detail = "; ".join(
        f"{name}: {a.error or f'deviation {a.max_deviation:.2e}'}"
        for name, a in attempts.items()
    )
    ok = False
    if report.reproduced is not None:
        result = attempts[report.reproduced].result
        ok = (
            attempts[report.reproduced].max_deviation < 1e-12
            and abs(result.pt_min_eig - (-0.125)) < 1e-12
            and result.entangled
        )
    _report(9, ok, detail)


def test_criterion_10_cptp_validator():
    rng = np.random.default_rng(1010)
    ok = validate_cptp(identity_channel()).is_cp
    families = [
        Decoherence(T=1.0, omega=5.0),
        Depolarization(T=1.0),
        Homogenization(T1=1.0, T2=1.0, w=0.5, omega=2.0),
    ]
    for _ in range(100):
        family = families[int(rng.integers(0, 3))]
        t = float(rng.uniform(0.0, 10.0))
        if not validate_cptp(channel_at(family, t)).is_cp:
            ok = False
    report = validate_cptp(diagonal_channel([1.0, 1.0, -1.0]))
    if report.is_cp or abs(report.min_choi_eig - (-0.5)) > 1e-10:
        ok = False
    _report(10, ok, f"reflection min Choi eig {report.min_choi_eig:.12f}")
