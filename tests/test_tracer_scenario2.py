"""perfbench's tracer on the scenario-2 path, where perfbench's own tests do not trace.

The tracer swaps timed wrappers in for heatoc's functions and reads
``OptimizationResult.iterations``, ``solver.tri`` and ``solver.mu``.  A tiny
scenario-2 grid is traced here with the tracer imported as it ships, and
its counts are pinned, so a change that renames what the tracer wraps or
reads, or that adds or drops a traced call, fails here.
"""

import sys
from pathlib import Path

import heatoc
import heatoc.bench
from heatoc.integrators import StageSystemSolver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from tracer import Tracer, layer_metrics  # noqa: E402


def test_traced_tiny_scenario2_counts_are_pinned_and_untraced_after():
    solve_stacked = StageSystemSolver.__dict__["solve_stacked"]
    optimize = heatoc.bench.optimize
    cfg = heatoc.ExperimentConfig(m_values=(8,), methods=("gauss2", "lobatto3", "peer_toy2"),
                                  N_values=(4, 8), scenario=2)
    tracer = Tracer()
    tracer.install()
    try:
        heatoc.bench.run_scenario2(cfg)
    finally:
        tracer.uninstall()
    assert StageSystemSolver.__dict__["solve_stacked"] is solve_stacked
    assert heatoc.bench.optimize is optimize
    metrics = {name: value for name, (value, _) in layer_metrics(tracer).items()}
    # one optimize per cell (3 methods x 2 N); a certificate forward sweep
    # only in the 2 Peer cells, since the IRK cells run on their pole plan,
    # whose steps and solves the tracer does not wrap
    assert metrics["opt.calls"] == 6 and metrics["sweep.fwd_calls"] == 2
    assert metrics["opt.iterations"] == 0 and metrics["opt.fwd_sweeps_per_iter"] == 0
    assert metrics["step.calls"] == 40
    assert metrics["solve.calls"] == 94
    assert metrics["solve.bytes_computed"] == 39_680
