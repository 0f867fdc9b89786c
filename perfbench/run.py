"""ebchannels benchmark: seeded CLI workloads, timed in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload analyze-mix --seed 1 --seconds 20 --trace 0

One client sends `ebchannels.cli.main(argv)` calls in a closed loop from
this process and checks every output against references computed in
`oracles.py`.  With `--trace 0` it prints the end-to-end metrics; with
`--trace 1` it runs an untraced reference pass, then one traced pass over
the whole op pool, and prints the per-layer metrics.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# one process, one thread: pin BLAS/OpenMP pools before numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# set-up (import, input generation, warm-up) is repeated and its median kept
SETUP_REPS = 3
# tail percentiles, in basis points, tried from the highest down
TAIL_LADDER_BP = (9999, 9990, 9950, 9900, 9800, 9500, 9000, 7500, 5000)
TAIL_MIN_BEYOND = 10
TAIL_WINDOW = 200

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_ratio", "share"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    spec = []
    for name in tracer.NAMES:
        if name != tracer.ROOT:
            spec.append((f"{name}.calls_per_op", "calls/op", "lower"))
            spec.append((f"{name}.us_per_call", "us", "lower"))
        spec.append((f"{name}.self_share", "share", "lower"))
    spec += [
        ("cli.main.self_ms_per_op", "ms", "lower"),
        ("ebtest.eigs_per_verdict", "count", "lower"),
        ("markov.eb_onset.margin_evals_per_call", "count", "lower"),
        ("amend.trials_per_s", "1/s", "higher"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return spec


_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ebchannels.cli; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Cold import time of the package, measured in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout.split()[-1])


def fresh_import():
    """Drop every loaded ebchannels module and import the CLI anew."""
    for key in [k for k in sys.modules if k == tracer.PACKAGE or k.startswith(tracer.PACKAGE + ".")]:
        del sys.modules[key]
    cli = importlib.import_module(f"{tracer.PACKAGE}.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {cli.__file__}, not the package under {SRC}")
    return cli


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ebchannels": getattr(sys.modules.get(tracer.PACKAGE), "__version__", None),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def ladder_percentile(n: int) -> float:
    """The highest ladder percentile with at least TAIL_MIN_BEYOND of n
    samples beyond it (p50 for fewer than 20 samples)."""
    for bp in TAIL_LADDER_BP:
        if n * (10000 - bp) >= TAIL_MIN_BEYOND * 10000:
            break
    return bp / 100


def tail(latencies: list[float]) -> tuple[list[float], int, float]:
    """Median over windows of TAIL_WINDOW consecutive ops (the last one
    takes the remainder) of each window's ladder percentile.

    Returns (percentiles used, number of windows, value).  A window of
    one analyze-mix pool cycle keeps host hiccups, which hit a few ops
    anywhere in a run, from setting the tail on their own.
    """
    count = max(1, len(latencies) // TAIL_WINDOW)
    bounds = [i * TAIL_WINDOW for i in range(count)] + [len(latencies)]
    windows = [latencies[a:b] for a, b in zip(bounds, bounds[1:])]
    pcts = [ladder_percentile(len(w)) for w in windows]
    value = statistics.median(float(np.percentile(w, p)) for w, p in zip(windows, pcts))
    return sorted(set(pcts)), count, value


class Bench:
    """One workload at one seed: set-up, timed loop and output checks."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.ctx = SimpleNamespace(amend_outputs={})
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failures on inputs the contract says must succeed
        self.failures: dict[str, list] = {}

    def setup(self) -> float:
        times, digests = [], set()
        for _ in range(SETUP_REPS):
            import_s = import_seconds()
            self.cli = fresh_import()
            t0 = perf_counter()
            self.load = workloads.generate(self.name, self.seed, self.work)
            for op in self.load.warmup_ops():
                self.call(op)
            times.append(import_s + perf_counter() - t0)
            digests.add(self.load.digest)
        self.inputs_repeat = len(digests) == 1
        return statistics.median(times)

    def call(self, op):
        out, err = io.StringIO(), io.StringIO()
        raised = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = self.cli.main(list(op.argv))
            except (Exception, SystemExit) as exc:  # a raise breaks the CLI contract
                code, raised = None, exc
            elapsed = perf_counter() - t0
        return elapsed, code, out.getvalue(), err.getvalue(), raised

    def run_op(self, op) -> tuple[float, int | None]:
        elapsed, code, out, err, raised = self.call(op)
        reason = oracles.check(op, code, out, err, raised, self.ctx)
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.wrong += not op.error_path
            entry = self.failures.setdefault(op.kind, [0, reason, op.error_path])
            entry[0] += 1
        return elapsed, code

    def measure(self, seconds: float) -> dict:
        """Whole pool cycles until `seconds` of op time are spent.

        Throughput and median latency are taken per pool cycle and reported
        at the level that 3 of 4 cycles meet.  A shared host can switch
        between a fast and a slow CPU speed every few seconds; a median over
        the whole run then flips between the two as their shares drift,
        while the 3-of-4 level stays with the slower one.
        """
        ops = self.load.ops
        latencies, rates, medians = [], [], []
        while sum(latencies) < seconds:
            cycle = [self.run_op(op)[0] for op in ops]
            latencies += cycle
            rates.append(len(ops) / sum(cycle))
            medians.append(statistics.median(cycle))
        pcts, windows, tail_s = tail(latencies)
        self.notes = [
            f"{len(rates)} pool cycles of {len(ops)} ops; per cycle ops/s quartiles "
            + " / ".join(f"{q:.6g}" for q in np.percentile(rates, [25, 50, 75]))
            + ", median latency quartiles "
            + " / ".join(f"{q * 1e3:.6g} ms" for q in np.percentile(medians, [25, 50, 75])),
            f"op_tail_ms: median over {windows} windows of p{'/p'.join(f'{p:g}' for p in pcts)}"
            f" ({len(latencies)} samples in all)",
            f"fail_ratio = {self.failed / self.attempted:.6g} ({self.failed} of {self.attempted} ops)",
        ]
        return {
            "ops_per_s": float(np.percentile(rates, 25)),
            "op_p50_ms": float(np.percentile(medians, 75)) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "ok_ratio": (self.attempted - self.failed) / self.attempted,
        }

    def trace(self, seconds: float) -> tuple[dict, bool]:
        """Untraced pool cycles for seconds / 2, one traced cycle, and one
        more untraced cycle to compare it with."""
        ops = self.load.ops
        cycles, trials, amend_s = [], 0, 0.0
        while sum(cycles) < seconds / 2:
            cycle = 0.0
            for op in ops:
                elapsed, code = self.run_op(op)
                cycle += elapsed
                if op.check == "amend" and code == 0:
                    trials += op.data["trials"]
                    amend_s += elapsed
            cycles.append(cycle)

        tr = tracer.Tracer()
        missing = tr.install()
        traced_s, analyzed = 0.0, []
        try:
            for i, op in enumerate(ops):
                tr.op = i
                elapsed, code = self.run_op(op)
                traced_s += elapsed
                if op.argv[0] == "analyze" and code == 0:
                    analyzed.append(i)
        finally:
            tr.restore()
        # the host's speed drifts within seconds, so compare with the
        # untraced cycles on either side of the traced one
        neighbours = (cycles[-1] + sum(self.run_op(op)[0] for op in ops)) / 2
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{self.name}-seed{self.seed}.npz"
        tr.save(trace_file)

        spans = tr.arrays()
        rep = tracer.layer_report(spans, len(ops))
        n_ops, wall = len(ops), rep["wall_s"]
        metrics = {}
        for i, name in enumerate(tracer.NAMES):
            calls = int(rep["calls"][i])
            if name != tracer.ROOT:
                metrics[f"{name}.calls_per_op"] = calls / n_ops
                metrics[f"{name}.us_per_call"] = rep["incl_s"][i] / calls * 1e6 if calls else 0.0
            metrics[f"{name}.self_share"] = rep["self_s"][i] / wall
        names = spans["name"]
        metrics["cli.main.self_ms_per_op"] = rep["self_s"][tracer.NAMES.index(tracer.ROOT)] / n_ops * 1e3
        eig = names == tracer.NAMES.index("linalg.hermitian_eigenvalues")
        metrics["ebtest.eigs_per_verdict"] = (
            np.isin(spans["op"][eig], analyzed).sum() / len(analyzed) if analyzed else 0.0)
        onset_id = tracer.NAMES.index("markov.eb_onset")
        parents = spans["parent"][names == tracer.NAMES.index("ebtest.pt_margin")]
        under_onset = int((names[parents[parents >= 0]] == onset_id).sum())
        onsets = int(rep["calls"][onset_id])
        metrics["markov.eb_onset.margin_evals_per_call"] = under_onset / onsets if onsets else 0.0
        metrics["amend.trials_per_s"] = trials / amend_s if amend_s else 0.0
        metrics["trace.overhead"] = traced_s / neighbours
        self.notes = [
            f"untraced reference: {len(cycles)} pool cycles of {n_ops} ops",
            f"traced: {len(names)} spans over {n_ops} ops, written to {trace_file.relative_to(ROOT)}",
            f"self times balance per op: {rep['balanced']}",
            f"fail_ratio = {self.failed / self.attempted:.6g} ({self.failed} of {self.attempted} ops)",
        ]
        if missing:
            self.notes.append(f"not in the package, reported as 0: {', '.join(missing)}")
        return {k: float(v) for k, v in metrics.items()}, rep["balanced"] and rep["roots"] == n_ops


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / tracer.PACKAGE / "__init__.py").is_file():
        print(f"error: no {tracer.PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        bench = Bench(args.workload, args.seed, work)
        setup_s = bench.setup()
        if args.trace:
            values, trace_ok = bench.trace(args.seconds)
            units = {name: unit for name, unit, _ in per_layer_spec()}
        else:
            values, trace_ok = bench.measure(args.seconds), True
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"inputs sha256 {bench.load.digest} ({len(bench.load.ops)} ops in the pool; "
          f"identical over {SETUP_REPS} set-ups: {bench.inputs_repeat})")
    print("environment " + json.dumps(environment(), sort_keys=True))
    for note in bench.notes:
        print(note)
    for kind, (count, reason, error_path) in sorted(bench.failures.items()):
        tag = "error-path input" if error_path else "WRONG OUTPUT"
        print(f"failed {count} x {kind} ({tag}): {reason}")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    correct = bench.wrong == 0 and bench.inputs_repeat and trace_ok
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
