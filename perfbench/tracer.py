"""Span tracing from the benchmark side.

The tracer swaps timed wrappers in for heatoc's public functions (every
module attribute bound to the function, so calls between heatoc modules
are seen too) and for a few methods on their classes.  Spans are kept in
memory as parallel arrays (name, parent, start, end) and turned into the
per-layer metrics when the run ends.  ``uninstall()`` puts the original
objects back, so an untraced pass runs the program exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np


def _solve_shifted_bytes(args, kwargs, result) -> float:
    # band (3 m) + right-hand side (m) + solution (m), in the solution's dtype
    z, tri = args[0], args[1]
    return 0.0 if z == 0 else 5.0 * tri.m * result.itemsize


def _solve_stacked_bytes(args, kwargs, result) -> float:
    # one complex shifted solve per nonzero eigenvalue of the stage coupling
    solver = args[0]
    return 5.0 * solver.tri.m * 16 * sum(1 for mu in solver.mu if mu != 0)


def _opt_iterations(args, kwargs, result) -> float:
    return float(result.iterations)


# (span name, module, attribute or Class.method, optional note).  A note
# maps (args, kwargs, result) to a number summed into counters[span name].
TARGETS = (
    ("solve", "heatoc.integrators", "solve_shifted", _solve_shifted_bytes),
    ("solve", "heatoc.integrators", "StageSystemSolver.solve_stacked", _solve_stacked_bytes),
    ("step", "heatoc.integrators", "irk_step", None),
    ("step", "heatoc.integrators", "peer_step", None),
    ("sweep.fwd", "heatoc.integrators", "integrate_forward", None),
    ("sweep.adj", "heatoc.integrators", "integrate_adjoint", None),
    ("opt", "heatoc.discrete_opt", "optimize", _opt_iterations),
    ("heat_mol.apply", "heatoc.heat_mol", "TridiagonalMatrix.apply", None),
    ("heat_mol.build_system", "heatoc.heat_mol", "build_system", None),
    ("spectrum.decompose", "heatoc.spectrum", "decompose", None),
    ("spectrum.solve_frequencies", "heatoc.spectrum", "solve_frequencies", None),
    ("exact.sparse_target", "heatoc.exact_oc", "sparse_target", None),
    ("exact.solve_terminal", "heatoc.exact_oc", "solve_terminal", None),
    ("exact.ivp_eval", "heatoc.exact_oc", "solve_ivp_exact", None),
    ("exact.adjoint_eval", "heatoc.exact_oc", "adjoint_exact", None),
    ("exact.control_eval", "heatoc.exact_oc", "ExpSumFunction.value", None),
    ("bench.instance", "heatoc.bench", "benchmark_instance", None),
    ("report.emit", "heatoc.bench", "emit_report", None),
    ("oracles.verify", "heatoc.oracles", "run_verification", None),
    ("cell", "heatoc.bench", "_scenario1_cell", None),
    ("cell", "heatoc.bench", "_scenario2_cell", None),
    ("cell", "workloads", "verify_cell", None),
    ("cell", "workloads", "robin_cell", None),
)


class Tracer:
    """In-memory span recorder for a single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(self.clock())
        self.ends.append(math.nan)
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.ends[i] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        """A wrapper that records one span per call of ``fn``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if note is not None:
                tracer.counters[name] = tracer.counters.get(name, 0.0) + note(args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Swap wrappers in for every target; reversed by uninstall()."""
        scanned = [m for n, m in sys.modules.items()
                   if m is not None and (n == "heatoc" or n.startswith("heatoc.")
                                         or n == "workloads")]
        for name, module, attr, note in targets:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(name, original, note))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, note)
            for mod in scanned:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output --------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write the spans as arrays: names, name_index, parent, start, end."""
        names = sorted(set(self.names))
        index = {n: k for k, n in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(names),
                            name_index=np.array([index[n] for n in self.names], dtype=np.int16),
                            parent=np.frombuffer(self.parents, dtype=np.int64),
                            start=np.frombuffer(self.starts), end=np.frombuffer(self.ends))


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Child intervals are clipped to the parent's interval and merged where
    they overlap, so no part of the parent is subtracted twice.
    """
    children: list[list[int]] = [[] for _ in range(len(starts))]
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, kids in enumerate(children):
        lo, hi = starts[i], ends[i]
        covered, cur_lo, cur_hi = 0.0, None, None
        for a, b in sorted((max(starts[c], lo), min(ends[c], hi)) for c in kids):
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def has_ancestor(i: int, name: str, names, parents) -> bool:
    p = parents[i]
    while p >= 0:
        if names[p] == name:
            return True
        p = parents[p]
    return False


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics {name: (value, unit)} from the recorded spans.

    ``*_s`` values are summed self times; ``*calls`` are exact counts;
    ``cell.*`` use whole cell durations.
    """
    names, parents = tracer.names, tracer.parents
    selfs = self_times(tracer.starts, tracer.ends, parents)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for name, s in zip(names, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s
    cells = [tracer.ends[i] - tracer.starts[i] for i, n in enumerate(names) if n == "cell"]
    opt_fwd = sum(1 for i, n in enumerate(names)
                  if n == "sweep.fwd" and has_ancestor(i, "opt", names, parents))
    iterations = tracer.counters.get("opt", 0.0)
    n_solve = calls.get("solve", 0)

    def c(name):
        return float(calls.get(name, 0)), "count"

    def s(name):
        return self_s.get(name, 0.0), "s"

    return {
        "solve.calls": c("solve"),
        "solve.self_s": s("solve"),
        "solve.us_per_call": (1e6 * self_s.get("solve", 0.0) / n_solve if n_solve else 0.0, "us"),
        "solve.bytes_computed": (tracer.counters.get("solve", 0.0), "B"),
        "step.calls": c("step"),
        "step.self_s": s("step"),
        "sweep.fwd_calls": c("sweep.fwd"),
        "sweep.fwd_s": s("sweep.fwd"),
        "sweep.adj_calls": c("sweep.adj"),
        "sweep.adj_s": s("sweep.adj"),
        "opt.calls": c("opt"),
        "opt.self_s": s("opt"),
        "opt.iterations": (iterations, "count"),
        "opt.fwd_sweeps_per_iter": (opt_fwd / iterations if iterations else 0.0, "sweeps/iter"),
        "heat_mol.apply_calls": c("heat_mol.apply"),
        "heat_mol.apply_s": s("heat_mol.apply"),
        "heat_mol.build_system_s": s("heat_mol.build_system"),
        "spectrum.decompose_s": s("spectrum.decompose"),
        "spectrum.solve_frequencies_s": s("spectrum.solve_frequencies"),
        "exact.sparse_target_s": s("exact.sparse_target"),
        "exact.solve_terminal_s": s("exact.solve_terminal"),
        "exact.ivp_eval_calls": c("exact.ivp_eval"),
        "exact.ivp_eval_s": s("exact.ivp_eval"),
        "exact.adjoint_eval_s": s("exact.adjoint_eval"),
        "exact.control_eval_s": s("exact.control_eval"),
        "bench.instance_s": s("bench.instance"),
        "cell.p50_s": (statistics.median(cells) if cells else 0.0, "s"),
        "cell.max_s": (max(cells, default=0.0), "s"),
        "report.emit_s": s("report.emit"),
        "oracles.verify_s": s("oracles.verify"),
        "trace.spans": (float(len(names)), "count"),
    }
