"""Span tracing of the package's public functions, from outside the package.

`Tracer.install` rebinds each listed function in every `ebchannels` module
namespace that holds it (matched by identity, so `from .linalg import
hermitian_eigenvalues` copies are caught too) and `restore` puts the
originals back.  Each call records a span: function, start, end, parent
span and op id.  A span's self time is its duration minus the durations
of its direct children, so per op the self times of all spans sum to the
duration of the op's root `cli.main` span.
"""

from __future__ import annotations

import functools
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "ebchannels"

# the package's layers and the functions of each that the trace covers;
# `errors` and `tolerances` do no work
TARGETS = {
    "linalg": ("hermitian_eigenvalues", "svd3", "partial_transpose"),
    "channel": ("choi", "choi_partial_transpose", "canonical_form", "validate_cptp",
                "compose", "unitary_channel"),
    "ebtest": ("is_eb_numeric", "pt_margin", "closed_form_verdict", "classify_seb"),
    "markov": ("channel_at", "scan", "eb_onset", "scan_to_csv"),
    "amend": ("local_amendment_search", "interleave", "global_amendment_example"),
    "basis": ("coherence_from_state", "state_from_coherence"),
    "cli": ("main",),
}
NAMES = tuple(f"{m}.{f}" for m, funcs in TARGETS.items() for f in funcs)
ROOT = "cli.main"


class Tracer:
    """In-memory span recorder; set `op` before each traced op."""

    def __init__(self):
        self.op = -1
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    def _wrap(self, name_id: int, fn):
        name, parent, op_id = self.name, self.parent, self.op_id
        start, end, self_time, stack = self.start, self.end, self.self_time, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(name_id)
            parent.append(stack[-1][0] if stack else -1)
            op_id.append(self.op)
            start.append(0.0)
            end.append(0.0)
            self_time.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                self_time[idx] = (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0

        return traced

    def install(self) -> list[str]:
        """Wrap every target; returns the names that the package lacks."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        missing = []
        for name_id, qualname in enumerate(NAMES):
            mod_name, func = qualname.split(".")
            original = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), func, None)
            if original is None:
                missing.append(qualname)
                continue
            wrapper = self._wrap(name_id, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))
        return missing

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start).copy(),
            "end": np.frombuffer(self.end).copy(),
            "self": np.frombuffer(self.self_time).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())


def layer_report(spans: dict[str, np.ndarray], n_ops: int) -> dict:
    """Per-function calls, inclusive and self seconds, and the trace checks."""
    k = len(NAMES)
    name = spans["name"]
    dur = spans["end"] - spans["start"]
    calls = np.bincount(name, minlength=k)
    incl = np.bincount(name, weights=dur, minlength=k)
    self_s = np.bincount(name, weights=spans["self"], minlength=k)
    root = name == NAMES.index(ROOT)
    wall = float(dur[root].sum())
    # per op, the self times of all its spans add up to its root span
    ops = spans["op"]
    per_op_self = np.bincount(ops, weights=spans["self"], minlength=n_ops)
    per_op_wall = np.bincount(ops[root], weights=dur[root], minlength=n_ops)
    balanced = bool(np.allclose(per_op_self, per_op_wall, rtol=1e-9, atol=1e-12))
    return {
        "calls": calls, "incl_s": incl, "self_s": self_s, "wall_s": wall,
        "roots": int(root.sum()), "balanced": balanced,
    }
