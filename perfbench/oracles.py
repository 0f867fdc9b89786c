"""Reference computations and output checks for the benchmark.

Everything here is computed independently of the program under test: the
Choi matrices are built from Pauli products in this file, eigenvalues come
from numpy.linalg.eigvalsh, and the dynamical families use their closed
forms.  Nothing here imports ebchannels.ebtest or ebchannels.linalg.

The tolerances are the benchmark's own copy of the values the README and
the package document; they are the yardstick and do not follow later
changes to the package.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np

# absolute accuracy promised for every reported eigenvalue
EIG_TOL = 1e-11
# |margin| band inside which verdicts are not compared
KNIFE_EDGE_BAND = 1e-9
# a margin >= -EB_TOL counts as entanglement-breaking
EB_TOL = 1e-10
# an amendment counts only when the violation exceeds this
AMEND_TOL = 1e-10
# margins below this in magnitude must also match in relative terms
TINY_MARGIN = 1e-9
TINY_REL_TOL = 1e-6
# onset times are compared within ONSET_TOL * max(1, t)
ONSET_TOL = 1e-8
# reconstruction and formula tolerances for non-spectral columns
VALUE_TOL = 1e-10

_I2 = np.eye(2, dtype=complex)
_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_P_I = np.array([np.kron(p, _I2) for p in _PAULI])
_P_P = np.array([[np.kron(a, b) for b in _PAULI] for a in _PAULI])


# ---------------------------------------------------------------------------
# reference spectra
# ---------------------------------------------------------------------------


def choi_matrix(n, M) -> np.ndarray:
    """Image of the singlet under (channel x identity), from Pauli products."""
    n = np.asarray(n, dtype=float)
    M = np.asarray(M, dtype=float)
    rho = np.eye(4, dtype=complex)
    for i in range(3):
        rho = rho + n[i] * _P_I[i]
        for j in range(3):
            rho = rho - M[i, j] * _P_P[i, j]
    return rho / 4.0


def transpose_second(rho: np.ndarray) -> np.ndarray:
    """Partial transpose of the second qubit of a 4x4 matrix."""
    out = np.empty_like(rho)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + l, 2 * k + j] = rho[2 * i + j, 2 * k + l]
    return out


def channel_spectra(n, M) -> tuple[float, float]:
    """(min Choi eigenvalue, min partial-transpose eigenvalue) of a channel."""
    rho = choi_matrix(n, M)
    choi_min = float(np.linalg.eigvalsh(rho)[0])
    pt_min = float(np.linalg.eigvalsh(transpose_second(rho))[0])
    return choi_min, pt_min


def rotation(axis, angle: float) -> np.ndarray:
    """Bloch rotation by `angle` about a unit `axis` (Rodrigues)."""
    x, y, z = (float(v) for v in axis)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def interleaving(n, M, unitaries) -> tuple[np.ndarray, np.ndarray]:
    """Affine map of base . U_1 . base . U_2 ... U_k . base."""
    n = np.asarray(n, dtype=float)
    M = np.asarray(M, dtype=float)
    rn, rM = n, M
    for u in unitaries:
        R = rotation(u["axis"], u["angle"])
        # (result . U) . base, with U affine-free
        rn, rM = rn + rM @ R @ n, rM @ R @ M
    return rn, rM


# ---------------------------------------------------------------------------
# closed forms of the dynamical families
# ---------------------------------------------------------------------------


def depolarization_row(t: float, T: float) -> tuple[tuple, float]:
    e = math.exp(-t / T)
    return (e, e, e), (1.0 - 3.0 * e) / 4.0


def decoherence_row(t: float, T: float) -> tuple[tuple, float]:
    e = math.exp(-t / T)
    return (1.0, e, e), -e / 2.0


def homogenization_row(t: float, T1: float, T2: float, w: float) -> tuple[tuple, float]:
    """Singular values and PT margin of the uniaxial homogenization channel."""
    e1 = math.exp(-t / T1)
    e2 = math.exp(-t / T2)
    nz = w * (1.0 - e1)
    b = math.sqrt(4.0 * e2 * e2 + nz * nz)
    margin = min(1.0 - e1 - b, 1.0 + e1 - abs(nz)) / 4.0
    return tuple(sorted((e1, e2, e2), reverse=True)), margin


def homogenization_indicators(t: float, T1: float, T2: float, w: float):
    e1 = math.exp(-t / T1)
    e2 = math.exp(-t / T2)
    f1 = (1.0 - w * w) * (1.0 - e1) ** 2 - 4.0 * e2 * e2
    f2 = 1.0 - e2 - math.sqrt((e1 + e2) ** 2 + w * w * (1.0 - e1) ** 2)
    return f1, f2, min(f1, f2)


def homogenization_onset(T1: float, T2: float, w: float) -> float:
    """First t with (1 - w^2)(1 - e1)^2 >= 4 e2^2: the uniaxial EB crossing.

    The left side grows and the right side shrinks with t, so the crossing
    is unique; it exists for every w < 1.
    """
    def f1(t):
        return homogenization_indicators(t, T1, T2, w)[0]

    lo, hi = 0.0, max(T1, T2)
    while f1(hi) < 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f1(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else a reason
# ---------------------------------------------------------------------------


def _close(got, want, tol) -> bool:
    return isinstance(got, (int, float)) and abs(float(got) - want) <= tol


def _margin_matches(got, ref, relative: bool) -> bool:
    """Absolute match within EIG_TOL; for structurally tiny margins
    (`relative`), also a relative match, which implies the same sign."""
    if not _close(got, ref, EIG_TOL):
        return False
    if relative and abs(ref) < TINY_MARGIN:
        return abs(got - ref) <= TINY_REL_TOL * abs(ref)
    return True


def check_analyze(op, stdout: str, ctx) -> str | None:
    d = op.data
    data = json.loads(stdout)
    if data["channel"]["n"] != d["n"] or data["channel"]["M"] != d["M"]:
        return "channel echo differs from the input"
    cptp = data["cptp"]
    if not _close(cptp["min_choi_eig"], d["choi_min"], EIG_TOL):
        return f"min_choi_eig {cptp['min_choi_eig']!r} != ref {d['choi_min']!r}"
    if op.expect == 2:
        if cptp["is_cp"] is not False or "error" not in data:
            return "non-CP channel not reported as such"
        return None
    if cptp["is_cp"] is not True:
        return "CP channel reported as non-CP"
    verdict = data["verdict"]
    if not _close(verdict["margin"], d["pt_min"], EIG_TOL):
        return f"margin {verdict['margin']!r} != ref {d['pt_min']!r}"
    if not _close(verdict["choi_min_eig"], d["choi_min"], EIG_TOL):
        return f"choi_min_eig {verdict['choi_min_eig']!r} != ref {d['choi_min']!r}"
    s = np.linalg.svd(np.array(d["M"]), compute_uv=False)
    lam = np.abs(np.array(data["canonical"]["lambda"], dtype=float))
    if lam.shape != (3,) or np.abs(lam - s).max() > VALUE_TOL:
        return f"canonical lambda {data['canonical']['lambda']} != svd {s.tolist()}"
    if abs(d["pt_min"]) > KNIFE_EDGE_BAND:
        ref_eb = d["pt_min"] >= -EB_TOL
        if verdict["is_eb"] is not ref_eb:
            return f"is_eb {verdict['is_eb']} disagrees with ref margin {d['pt_min']!r}"
        cf = data["closed_form"]
        if cf is not None and (cf["is_eb"] is not ref_eb or cf["agrees_with_numeric"] is not True):
            return f"closed form {cf} disagrees with ref verdict {ref_eb}"
    return None


def check_global_example(op, stdout: str, ctx) -> str | None:
    data = json.loads(stdout)
    if data.get("reproduced_ordering") is not None:
        return "bundled global example unexpectedly reproduced"
    if [a.get("ordering") for a in data["attempts"]] != ["interleaved", "grouped"]:
        return "both basis orderings must be attempted"
    return None


def _parse_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


_BOOL = {"true": True, "false": False}


def check_markov(op, stdout: str, ctx) -> str | None:
    d = op.data
    family = d["family"]
    header, rows = _parse_csv(d["output"])
    homog = family == "homogenization"
    want_header = ["t", "lam1", "lam2", "lam3", "margin", "is_eb"]
    if homog:
        want_header += ["f1", "f2", "f", "cf_eb"]
    if header != want_header:
        return f"CSV header {header} != {want_header}"
    times = np.linspace(d["t_min"], d["t_max"], d["steps"])
    if len(rows) != len(times):
        return f"{len(rows)} CSV rows, expected {len(times)}"
    for row, t_ref in zip(rows, times):
        t = float(row[0])
        if abs(t - t_ref) > VALUE_TOL * max(1.0, abs(t_ref)):
            return f"time {row[0]} != grid {t_ref!r}"
        if family == "depolarization":
            lam, ref = depolarization_row(t, d["T"])
        elif family == "decoherence":
            lam, ref = decoherence_row(t, d["T"])
        else:
            lam, ref = homogenization_row(t, d["T1"], d["T2"], d["w"])
        got_lam = [float(v) for v in row[1:4]]
        if max(abs(a - b) for a, b in zip(got_lam, lam)) > VALUE_TOL:
            return f"t={row[0]}: lam {got_lam} != ref {list(lam)}"
        margin = float(row[4])
        if not _margin_matches(margin, ref, family == "decoherence"):
            return f"t={row[0]}: margin {row[4]} != ref {ref!r}"
        is_eb = _BOOL.get(row[5])
        if is_eb is None:
            return f"t={row[0]}: is_eb cell {row[5]!r}"
        if abs(ref) > KNIFE_EDGE_BAND and is_eb is not (ref >= -EB_TOL):
            return f"t={row[0]}: is_eb {row[5]} disagrees with ref margin {ref!r}"
        if homog:
            f_ref = homogenization_indicators(t, d["T1"], d["T2"], d["w"])
            f_got = [float(v) for v in row[6:9]]
            if max(abs(a - b) for a, b in zip(f_got, f_ref)) > VALUE_TOL:
                return f"t={row[0]}: f1,f2,f {f_got} != ref {list(f_ref)}"
            cf_eb = _BOOL.get(row[9])
            if cf_eb is None or (abs(ref) > KNIFE_EDGE_BAND and cf_eb is not (ref >= 0.0)):
                return f"t={row[0]}: cf_eb {row[9]} disagrees with ref margin {ref!r}"
    want = d["onset"]
    line = stdout.strip()
    if not line.startswith("onset: "):
        return f"onset line {line!r}"
    value = line[len("onset: "):]
    if want is None:
        return None if value == "none" else f"onset {value}, expected none"
    if value == "none":
        return f"onset none, expected {want!r}"
    if abs(float(value) - want) > ONSET_TOL * max(1.0, want):
        return f"onset {value} != ref {want!r}"
    return None


def check_amend(op, stdout: str, ctx) -> str | None:
    d = op.data
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    first = ctx.amend_outputs.setdefault(op.key, digest)
    if first != digest:
        return "repeated (base, seed) op printed different bytes"
    data = json.loads(stdout)
    if data["n_layers"] != d["layers"] or data["trials"] != d["trials"] or data["seed"] != d["seed"]:
        return "report does not echo its parameters"
    if not _close(data["base_margin"], d["pt_min"], EIG_TOL):
        return f"base_margin {data['base_margin']!r} != ref {d['pt_min']!r}"
    if abs(d["pt_min"]) > KNIFE_EDGE_BAND and data["base_is_eb"] is not (d["pt_min"] >= -EB_TOL):
        return "base_is_eb disagrees with the reference margin"
    units = data["best_unitaries"]
    if len(units) != d["layers"] - 1 or not 0 <= data["best_trial"] < d["trials"]:
        return "best trial or unitaries out of range"
    for u in units:
        if abs(math.hypot(*u["axis"]) - 1.0) > VALUE_TOL:
            return f"axis {u['axis']} is not a unit vector"
    n, M = interleaving(d["n"], d["M"], units)
    _, ref = channel_spectra(n, M)
    if not _close(data["best_pt_min_eig"], ref, EIG_TOL):
        return f"best_pt_min_eig {data['best_pt_min_eig']!r} != ref {ref!r}"
    if data["best_margin"] != -data["best_pt_min_eig"]:
        return "best_margin is not the negated best_pt_min_eig"
    if d["rank_deficient"] and (data["amended"] or data["best_margin"] > 1e-12):
        return f"rank-deficient base amended (best_margin {data['best_margin']!r})"
    if data["amended"] is not bool(data["base_is_eb"] and data["best_margin"] > AMEND_TOL):
        return "amended flag inconsistent with base_is_eb and best_margin"
    return None


CHECKS = {
    "analyze": check_analyze,
    "global-example": check_global_example,
    "markov": check_markov,
    "amend": check_amend,
    "exit-code": None,
}


def check(op, code, stdout: str, stderr: str, raised, ctx) -> str | None:
    """Why `op`'s outcome breaks the CLI contract or its oracle, or None."""
    if raised is not None:
        return f"raised {type(raised).__name__}: {raised}"
    if "Traceback" in stderr or "Traceback" in stdout:
        return "printed a traceback"
    if code != op.expect:
        return f"exit code {code}, README contract gives {op.expect}"
    checker = CHECKS[op.check]
    if checker is None:
        return None
    try:
        return checker(op, stdout, ctx)
    except (ValueError, KeyError, TypeError, IndexError, OSError, csv.Error) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
