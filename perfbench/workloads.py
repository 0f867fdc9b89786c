"""Seeded inputs for the three benchmark workloads.

Each workload is a pool of CLI invocations (argv plus the files they read)
drawn from the workload seed, with the exit code the README contract gives
and the reference data its output check needs.  The benchmark cycles
through the whole pool, so every cycle sends the same mix.

Why these workloads:

- analyze-mix: single-shot `analyze` calls over every closed-form branch,
  knife-edge and non-CP channels, the global example and about 5 %
  error-path inputs.  CLI overhead and the per-call analysis pass dominate;
  nothing loops, so batching changes should leave it unchanged.
- markov-scan: time scans plus onset search of the three semigroup
  families, including the nearly singular decoherence Choi matrices whose
  margins shrink to ~1e-22.  Batching, bracketing and eigensolver accuracy
  show here.
- amend-search: 3-layer, 1000-trial local amendment searches on dense
  random PT-Choi matrices.  One verdict per op, so analysis-pass changes
  should leave it unchanged.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

WORKLOADS = ("analyze-mix", "markov-scan", "amend-search")

# exit codes of the README contract
EXIT_OK, EXIT_PARSE, EXIT_NOT_CP = 0, 1, 2

AMEND_LAYERS = 3
AMEND_TRIALS = 1000
THIRD = "0.3333333333333333"


@dataclass
class Op:
    """One CLI invocation with the outcome the contract and oracle expect."""

    kind: str
    argv: list[str]
    expect: int
    check: str
    data: dict = field(default_factory=dict)
    error_path: bool = False

    @property
    def key(self) -> str:
        return "\0".join(self.argv)


@dataclass
class Workload:
    """A generated op pool and the digest of its inputs."""

    name: str
    ops: list[Op]
    digest: str

    def warmup_ops(self) -> list[Op]:
        """The first op of every kind in the pool."""
        seen: dict[str, Op] = {}
        for op in self.ops:
            seen.setdefault(op.kind, op)
        return list(seen.values())


class _Files:
    """Writes the inputs of one workload into its work directory."""

    def __init__(self, work: Path):
        self.work = work
        self.written: dict[str, bytes] = {}

    def path(self, name: str) -> str:
        return str(self.work / name)

    def write(self, name: str, text: str) -> str:
        data = text.encode("utf-8")
        (self.work / name).write_bytes(data)
        self.written[name] = data
        return self.path(name)


def _digest(ops: list[Op], files: _Files) -> str:
    """sha256 over argv, expected codes and file bytes, independent of the
    work directory's location."""
    h = hashlib.sha256()
    prefix = str(files.work)
    for op in ops:
        argv = [a.replace(prefix, "$WORK") for a in op.argv]
        h.update(json.dumps([op.kind, argv, op.expect]).encode())
    for name in sorted(files.written):
        h.update(name.encode() + b"\0" + files.written[name])
    return h.hexdigest()


# ---------------------------------------------------------------------------
# channel generators (all rejection-checked against oracles.channel_spectra)
# ---------------------------------------------------------------------------

_TETRAHEDRON = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)


def _rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _magnitudes(rng, lo: float, hi: float, gap: float) -> np.ndarray:
    """Three descending magnitudes in [lo, hi], pairwise at least `gap` apart."""
    while True:
        m = np.sort(rng.uniform(lo, hi, 3))[::-1]
        if m[0] - m[1] >= gap and m[1] - m[2] >= gap:
            return m


def _signs(rng) -> np.ndarray:
    return rng.choice([-1.0, 1.0], 3)


def _channel(rng, kind: str) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(n, M, min Choi eig, min PT eig) of a random channel of one kind."""
    while True:
        r_post, r_pre = _rotation(rng), _rotation(rng)
        n = np.zeros(3)
        if kind == "unital":
            lam = rng.dirichlet(np.ones(4)) @ _TETRAHEDRON
        elif kind == "zero-lambda":
            lam = np.array([0.0, *rng.uniform(-0.7, 0.7, 2)])
            n = r_post @ (rng.standard_normal(3) / 3.0)
        elif kind == "uniaxial":
            lam = _magnitudes(rng, 0.1, 0.9, 0.05) * _signs(rng)
            n = r_post[:, rng.integers(3)] * rng.uniform(0.05, 0.5) * rng.choice([-1, 1])
        elif kind in ("generic", "knife-translated"):
            lam = _magnitudes(rng, 0.1, 0.9, 0.0) * _signs(rng)
            v = rng.uniform(-0.4, 0.4, 3)
            if np.sort(np.abs(v))[1] < 0.05:
                continue
            n = r_post @ v
        elif kind == "knife-unital":
            # |l1| + |l2| + |l3| = 1 with det >= 0: the unital EB boundary
            lam = rng.dirichlet(np.ones(3)) * _TETRAHEDRON[rng.integers(4)]
        elif kind == "not-cp":
            lam = rng.uniform(-1.0, 1.0, 3)
            n = r_post @ (rng.standard_normal(3) / 10.0)
        elif kind == "eb-full-rank":
            lam = _magnitudes(rng, 0.15, 0.35, 0.02) * _signs(rng)
            n = r_post @ (rng.standard_normal(3) / 20.0)
        else:
            raise ValueError(kind)
        M = r_post @ np.diag(lam) @ r_pre
        c, p = oracles.channel_spectra(n, M)
        if kind == "not-cp":
            if c < -1e-3:
                return n, M, c, p
            continue
        if c < 1e-6:
            continue
        if kind == "knife-unital":
            return n, M, c, p
        if kind == "knife-translated":
            if p > -1e-3:
                continue
            # the Choi state is affine in (n, M), so (s n, s M) stays CP on
            # [0, 1]; bisect s onto the PPT boundary
            lo, hi = 0.0, 1.0
            for _ in range(80):
                s = 0.5 * (lo + hi)
                if oracles.channel_spectra(s * n, s * M)[1] >= 0.0:
                    lo = s
                else:
                    hi = s
            n, M = lo * n, lo * M
            c, p = oracles.channel_spectra(n, M)
            return n, M, c, p
        if kind == "eb-full-rank" and p < 1e-3:
            continue
        if abs(p) >= 1e-6:
            return n, M, c, p


def _analyze_data(n, M) -> dict:
    c, p = oracles.channel_spectra(n, M)
    return {"n": [float(v) for v in n], "M": np.asarray(M, float).tolist(),
            "choi_min": c, "pt_min": p}


def _channel_json(n, M, name: str) -> str:
    return json.dumps({"n": [float(v) for v in n], "M": np.asarray(M, float).tolist(),
                       "metadata": {"name": name}})


# ---------------------------------------------------------------------------
# analyze-mix
# ---------------------------------------------------------------------------

# ops per 200-op pool, by kind; error-path kinds are 10 of 200 (5 %)
_ANALYZE_MIX = {
    "unital": 40,
    "zero-lambda": 34,
    "uniaxial": 40,
    "generic": 40,
    "knife-unital": 6,
    "knife-translated": 6,
    "not-cp": 12,
    "preset": 8,
    "global-example": 4,
    "err-nonfinite-preset": 2,
    "err-overflow-file": 2,
    "err-schema": 2,
    "err-markov-not-cp": 2,
    "err-negative-seed": 2,
}

_MALFORMED = (
    '{"n": [0.0, 0.0], "M": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]]}',
    '{"n": [0.0, 0.0, 0.0], "M": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]], "spin": 1}',
    '{"n": [0.0, 0.0, 0.0]}',
    '{"n": [0.0, 0.0, 0.0], "M": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, "x"]]}',
)


def _analyze_op(rng, kind: str, i: int, files: _Files) -> Op:
    if kind in ("unital", "zero-lambda", "uniaxial", "generic",
                "knife-unital", "knife-translated", "not-cp"):
        n, M, _, _ = _channel(rng, kind)
        path = files.write(f"a{i:03d}-{kind}.json", _channel_json(n, M, kind))
        expect = EXIT_NOT_CP if kind == "not-cp" else EXIT_OK
        return Op(kind, ["analyze", "--channel", path], expect, "analyze",
                  _analyze_data(n, M))
    if kind == "preset":
        which = ("identity", "seb-example", "depolarizing", "depolarizing")[i % 4]
        if which == "identity":
            M = np.eye(3)
        elif which == "seb-example":
            M = np.diag([0.0, -0.5, 0.5])
        else:
            p = rng.uniform(-1.0 / 3.0 + 1e-3, 1.0)
            if abs(p - 1.0 / 3.0) < 1e-3:
                p += 2e-3
            which = f"depolarizing:{p!r}"
            M = p * np.eye(3)
        return Op(kind, ["analyze", "--preset", which], EXIT_OK, "analyze",
                  _analyze_data(np.zeros(3), M))
    if kind == "global-example":
        return Op(kind, ["amend", "global-example"], EXIT_NOT_CP, "global-example")
    if kind == "err-nonfinite-preset":
        value = ("nan", "inf", "-inf")[rng.integers(3)]
        return Op(kind, ["analyze", "--preset", f"depolarizing:{value}"],
                  EXIT_PARSE, "exit-code", error_path=True)
    if kind == "err-overflow-file":
        cells = ["0.0"] * 12
        cells[rng.integers(12)] = "1e400"
        text = ('{"n": [%s, %s, %s], "M": [[%s, %s, %s], [%s, %s, %s], [%s, %s, %s]]}'
                % tuple(cells))
        path = files.write(f"a{i:03d}-{kind}.json", text)
        return Op(kind, ["analyze", "--channel", path], EXIT_PARSE, "exit-code",
                  error_path=True)
    if kind == "err-schema":
        path = files.write(f"a{i:03d}-{kind}.json", _MALFORMED[rng.integers(len(_MALFORMED))])
        return Op(kind, ["analyze", "--channel", path], EXIT_PARSE, "exit-code",
                  error_path=True)
    if kind == "err-markov-not-cp":
        # T2 > 2 T1 violates complete positivity of homogenization
        t1 = rng.uniform(0.05, 0.2)
        argv = ["markov", "--family", "homogenization", "--T1", repr(t1),
                "--T2", repr(t1 * rng.uniform(3.0, 10.0)), "--w", repr(rng.uniform(0.0, 0.9)),
                "--t-max", "1.0", "--output", files.path(f"a{i:03d}-{kind}.csv")]
        return Op(kind, argv, EXIT_NOT_CP, "exit-code", error_path=True)
    if kind == "err-negative-seed":
        argv = ["amend", "local", "--preset", "seb-example", "--layers", "3",
                "--seed", str(-int(rng.integers(1, 1000)))]
        return Op(kind, argv, EXIT_PARSE, "exit-code", error_path=True)
    raise ValueError(kind)


def _analyze_mix(rng, files: _Files) -> list[Op]:
    kinds = [k for k, count in _ANALYZE_MIX.items() for _ in range(count)]
    ops = [_analyze_op(rng, kind, i, files) for i, kind in enumerate(kinds)]
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# markov-scan
# ---------------------------------------------------------------------------

MARKOV_ROUNDS = 8


def _markov_scan(rng, files: _Files) -> list[Op]:
    # homogenization windows end at a stratified multiple of the onset, so
    # the coarse-grid work per pool is the same for every seed
    fractions = rng.permutation(np.linspace(1.5, 3.0, MARKOV_ROUNDS))
    ops = []
    for r in range(MARKOV_ROUNDS):
        T = rng.uniform(0.5, 2.0)
        out = files.path(f"m{r}-depolarization.csv")
        ops.append(Op("depolarization", [
            "markov", "--family", "depolarization", "--T", repr(T), "--t-max", repr(3.0 * T),
            "--steps", "301", "--output", out], EXIT_OK, "markov", {
            "family": "depolarization", "T": T, "t_min": 0.0, "t_max": 3.0 * T,
            "steps": 301, "output": out, "onset": T * math.log(3.0)}))

        omega = rng.uniform(0.0, 10.0)
        out = files.path(f"m{r}-decoherence.csv")
        ops.append(Op("decoherence", [
            "markov", "--family", "decoherence", "--T", "1.0", "--omega", repr(omega),
            "--t-max", "50.0", "--steps", "301", "--output", out], EXIT_OK, "markov", {
            "family": "decoherence", "T": 1.0, "t_min": 0.0, "t_max": 50.0,
            "steps": 301, "output": out, "onset": None}))

        T1 = rng.uniform(0.5, 2.0)
        T2 = T1 * rng.uniform(0.6, 1.9)  # T1 / T2 >= 1/2 keeps the family CP
        w = rng.uniform(0.0, 0.9)
        omega = rng.uniform(0.0, 5.0)
        onset = oracles.homogenization_onset(T1, T2, w)
        t_max = float(onset * fractions[r])
        out = files.path(f"m{r}-homogenization.csv")
        ops.append(Op("homogenization", [
            "markov", "--family", "homogenization", "--T1", repr(T1), "--T2", repr(T2),
            "--w", repr(w), "--omega", repr(omega), "--t-max", repr(t_max),
            "--steps", "200", "--output", out], EXIT_OK, "markov", {
            "family": "homogenization", "T1": T1, "T2": T2, "w": w, "t_min": 0.0,
            "t_max": t_max, "steps": 200, "output": out, "onset": onset}))
    return ops


# ---------------------------------------------------------------------------
# amend-search
# ---------------------------------------------------------------------------

AMEND_ROUNDS = 4


def _amend_op(source: list[str], n, M, seed: int, rank_deficient: bool) -> Op:
    argv = ["amend", "local", *source, "--layers", str(AMEND_LAYERS),
            "--trials", str(AMEND_TRIALS), "--seed", str(seed)]
    _, p = oracles.channel_spectra(n, M)
    return Op(source[1] if source[0] == "--preset" else "random-eb", argv, EXIT_OK, "amend", {
        "n": [float(v) for v in n], "M": np.asarray(M, float).tolist(), "pt_min": p,
        "layers": AMEND_LAYERS, "trials": AMEND_TRIALS, "seed": seed,
        "rank_deficient": rank_deficient})


def _amend_search(rng, files: _Files) -> list[Op]:
    ops = []
    for r in range(AMEND_ROUNDS):
        seeds = [int(s) for s in rng.integers(0, 2**31, 3)]
        ops.append(_amend_op(["--preset", "seb-example"], np.zeros(3),
                             np.diag([0.0, -0.5, 0.5]), seeds[0], True))
        ops.append(_amend_op(["--preset", f"depolarizing:{THIRD}"], np.zeros(3),
                             float(THIRD) * np.eye(3), seeds[1], False))
        n, M, _, _ = _channel(rng, "eb-full-rank")
        path = files.write(f"e{r}-random-eb.json", _channel_json(n, M, "random-eb"))
        ops.append(_amend_op(["--channel", path], n, M, seeds[2], False))
    return ops


_GENERATORS = {
    "analyze-mix": _analyze_mix,
    "markov-scan": _markov_scan,
    "amend-search": _amend_search,
}


def generate(name: str, seed: int, work: Path) -> Workload:
    """Write the inputs of workload `name` for `seed` into `work`."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    files = _Files(work)
    ops = _GENERATORS[name](rng, files)
    return Workload(name, ops, _digest(ops, files))
