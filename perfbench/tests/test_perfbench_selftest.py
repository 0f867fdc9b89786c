"""Self-test of the benchmark: smoke runs, and proof that its checks can fail.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    res = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.3",
               "--trace", str(trace))
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, res.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and math.isfinite(m["value"])


def test_declared_workloads_and_layer_metrics_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        run.per_layer_spec()
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = _run(tmp_path, "--workload", "analyze-mix", "--seed", "1", "--seconds", "1")
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


def test_same_seed_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        dirs = [tmp_path / f"{name}-{i}" for i in range(3)]
        for d in dirs:
            d.mkdir()
        a, b = (workloads.generate(name, 5, d).digest for d in dirs[:2])
        c = workloads.generate(name, 6, dirs[2]).digest
        assert a == b != c


@pytest.fixture
def bench(tmp_path):
    def make(name):
        b = run.Bench(name, 2, tmp_path)
        b.cli = run.fresh_import()
        b.load = workloads.generate(name, 2, tmp_path)
        return b
    return make


def _first(bench, kind):
    return next(op for op in bench.load.ops if op.kind == kind)


def test_wrong_expected_exit_code_counts_as_failure(bench):
    b = bench("analyze-mix")
    op = _first(b, "generic")
    b.run_op(op)
    assert (b.attempted, b.failed) == (1, 0)
    op.expect = workloads.EXIT_NOT_CP
    b.run_op(op)
    assert (b.attempted, b.failed, b.wrong) == (2, 1, 1)


@pytest.mark.parametrize("workload,kind,field,delta", [
    ("analyze-mix", "unital", "pt_min", 1e-6),
    ("analyze-mix", "not-cp", "choi_min", 1e-6),
    ("markov-scan", "depolarization", "onset", 1e-6),
    ("markov-scan", "homogenization", "T1", 1e-6),
    ("amend-search", "random-eb", "pt_min", 1e-6),
])
def test_perturbed_reference_counts_as_failure(bench, workload, kind, field, delta):
    b = bench(workload)
    op = _first(b, kind)
    b.run_op(op)
    assert b.failed == 0
    op.data[field] += delta
    b.run_op(op)
    assert (b.failed, b.wrong) == (1, 1)


def test_changed_bytes_of_a_repeated_amend_op_count_as_failure(bench):
    b = bench("amend-search")
    op = _first(b, "seb-example")
    elapsed, code, out, err, raised = b.call(op)
    assert oracles.check(op, code, out, err, raised, b.ctx) is None
    assert oracles.check(op, code, out.replace("3", "4", 1), err, raised, b.ctx) is not None


def test_closed_forms_match_eigvalsh():
    rng = np.random.default_rng(0)
    for t in rng.uniform(0.0, 5.0, 20):
        T, T1, T2, w, omega = 1.3, 0.9, 1.4, 0.6, 2.0
        e = math.exp(-t / T)
        _, ref = oracles.depolarization_row(t, T)
        assert abs(oracles.channel_spectra(np.zeros(3), e * np.eye(3))[1] - ref) < 1e-14
        c, s = math.cos(omega * t), math.sin(omega * t)
        M = np.array([[e * c, e * s, 0], [-e * s, e * c, 0], [0, 0, 1.0]])
        _, ref = oracles.decoherence_row(t, T)
        assert abs(oracles.channel_spectra(np.zeros(3), M)[1] - ref) < 1e-14
        e1, e2 = math.exp(-t / T1), math.exp(-t / T2)
        M = np.array([[e2 * c, e2 * s, 0], [-e2 * s, e2 * c, 0], [0, 0, e1]])
        _, ref = oracles.homogenization_row(t, T1, T2, w)
        got = oracles.channel_spectra([0, 0, w * (1 - e1)], M)[1]
        assert abs(got - ref) < 1e-14


def test_analyze_mix_covers_every_closed_form_branch(tmp_path):
    from ebchannels.channel import QubitChannelAffine
    from ebchannels.ebtest import closed_form_verdict

    load = workloads.generate("analyze-mix", 4, tmp_path)
    want = {"unital": "unital-closed-form", "zero-lambda": "zero-lambda",
            "uniaxial": "uniaxial-closed-form", "generic": None}
    for op in load.ops:
        if op.kind in want:
            method, _ = closed_form_verdict(QubitChannelAffine(op.data["n"], op.data["M"]))
            assert (method and method.value) == want[op.kind], op.kind
        if op.kind.startswith("knife"):
            assert abs(op.data["pt_min"]) < oracles.KNIFE_EDGE_BAND
    error_path = sum(op.error_path for op in load.ops)
    assert error_path / len(load.ops) == pytest.approx(0.05)
