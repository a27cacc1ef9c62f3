"""Tests of the benchmark's own arithmetic, checks and metric names.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import heatoc  # noqa: E402
import heatoc.bench  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_doc() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    """A clock that advances by one unit per reading, or by set amounts."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    # root [0, 10] with children [1, 3] and [4, 8]; [4, 8] has child [5, 6]
    starts, ends, parents = [0, 1, 4, 5], [10, 3, 8, 6], [-1, 0, 0, 2]
    assert self_times(starts, ends, parents) == [4, 2, 3, 1]


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    # children [1, 4] and [3, 6] overlap on [3, 4]; [8, 12] sticks out past 10
    starts, ends, parents = [0, 1, 3, 8], [10, 4, 6, 12], [-1, 0, 0, 0]
    assert self_times(starts, ends, parents)[0] == 10 - (5 + 2)


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([2.5], [4.0], [-1]) == [1.5]


def test_tracer_records_parents_and_restores_originals():
    tracer = Tracer(clock=FakeClock())
    calls = []

    def inner():
        calls.append("inner")

    def outer():
        wrapped_inner()
        wrapped_inner()

    wrapped_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()
    assert tracer.names == ["outer", "inner", "inner"]
    assert list(tracer.parents) == [-1, 0, 0]
    # outer: 1..6, inners: 2..3 and 4..5 -> self time 5 - 2
    assert self_times(tracer.starts, tracer.ends, tracer.parents) == [3.0, 1.0, 1.0]
    assert calls == ["inner", "inner"]


# ---------------------------------------------------------------------------
# failure counter and checks
# ---------------------------------------------------------------------------

def test_check_rows_counts_each_failed_cell_once():
    ref = {("g", 8, 4, "a"): 1.0, ("g", 8, 4, "b"): 2.0,
           ("g", 8, 8, "a"): 0.5, ("g", 8, 16, "a"): 0.25}
    rows = {("g", 8, 4, "a"): 1.0 + 1e-9,       # within rtol
            ("g", 8, 4, "b"): 2.0,
            ("g", 8, 8, "a"): 0.6,              # deviates
            ("g", 8, 32, "a"): 0.1}             # no reference; N=16 missing
    cells = workloads.check_rows(rows, ref, rtol=1e-6)
    by_name = {c.cell: c for c in cells}
    assert by_name["g:m=8:N=4"].ok
    assert not by_name["g:m=8:N=8"].ok and not by_name["g:m=8:N=8"].values_ok
    assert "missing" in by_name["g:m=8:N=16"].detail
    assert "no reference" in by_name["g:m=8:N=32"].detail
    assert workloads.count_failed(cells) == 3


def test_atol_covers_roundoff_on_tiny_errors():
    ref = {("g", 8, 4, "a"): 7e-14}
    assert workloads.check_rows({("g", 8, 4, "a"): 1.5e-13}, ref, rtol=1e-6)[0].ok
    assert not workloads.check_rows({("g", 8, 4, "a"): 2e-12}, ref, rtol=1e-6)[0].ok


def tiny_s2_config(grad_tol: float) -> heatoc.ExperimentConfig:
    return heatoc.ExperimentConfig(m_values=(8,), methods=("gauss2", "peer_toy2"),
                                   N_values=(4, 8), scenario=2, algorithm="cg",
                                   grad_tol=grad_tol, max_iterations=500)


def reference_of(report) -> dict:
    return {(r.method, r.m, r.N, r.metric): r.error for r in report.rows}


def test_s2_pass_on_tiny_grid_counts_true_gradient_failures(tmp_path):
    cfg = tiny_s2_config(1e-10)
    ref = reference_of(heatoc.bench.run_scenario2(cfg))
    good = workloads.run_s2(cfg, tmp_path, ref)
    assert len(good.cells) == 4 and good.failed == 0
    assert 0.0 < good.kkt_max <= cfg.grad_tol
    # a tolerance nobody can meet: every cell fails, but its numbers are right
    strict = tiny_s2_config(1e-300)
    bad = workloads.run_s2(strict, tmp_path, reference_of(heatoc.bench.run_scenario2(strict)))
    assert bad.failed == 4
    assert all(c.values_ok for c in bad.cells)
    assert all("true |grad|" in c.detail for c in bad.cells)


def test_s2_pass_flags_a_wrong_reference(tmp_path):
    cfg = tiny_s2_config(1e-10)
    ref = reference_of(heatoc.bench.run_scenario2(cfg))
    key = next(iter(ref))
    ref[key] *= 1.01
    result = workloads.run_s2(cfg, tmp_path, ref)
    assert result.failed == 1
    assert [c.values_ok for c in result.cells].count(False) == 1


def test_robin_cell_round_trip_passes_at_small_m():
    cell = workloads.robin_cell(12, workloads.deltas_for_seed(0))
    assert cell.ok and cell.values_ok, cell.detail


def test_seed_draws_are_repeatable_and_seed_zero_is_the_default():
    assert workloads.deltas_for_seed(0) == heatoc.bench.DEFAULT_DELTAS
    assert workloads.deltas_for_seed(3) == workloads.deltas_for_seed(3)
    assert workloads.deltas_for_seed(3) == workloads.deltas_for_seed(3 + workloads.POOL_SIZE)
    for seed in range(workloads.POOL_SIZE):
        (i, a), (j, b) = workloads.deltas_for_seed(seed)
        assert 1 <= i < j <= 3
        assert 0.75 / 75 <= a <= 1.25 / 75 and 0.75 / 75 <= b <= 1.25 / 75


def test_reference_covers_every_draw():
    doc = json.loads(workloads.REFERENCE_FILE.read_text())
    assert doc["pool_size"] == workloads.POOL_SIZE
    for workload, cells in (("s1-grid", 48), ("s2-grid", 15)):
        for k in range(workloads.POOL_SIZE):
            ref = workloads.load_reference(workload, k)
            assert len({key[:3] for key in ref}) == cells


# ---------------------------------------------------------------------------
# tracing a tiny grid
# ---------------------------------------------------------------------------

def test_traced_tiny_scenario1_counts_are_exact_and_untraced_after(tmp_path):
    original = heatoc.bench.integrate_forward
    cfg = heatoc.ExperimentConfig(m_values=(8,), methods=("gauss2", "peer_toy2"),
                                  N_values=(4, 8), scenario=1)
    tracer = Tracer()
    tracer.install()
    try:
        heatoc.bench.run_scenario1(cfg)
    finally:
        tracer.uninstall()
    assert heatoc.bench.integrate_forward is original
    metrics = layer_metrics(tracer)
    # gauss2: N irk steps per sweep, one stacked solve each;
    # peer_toy2: N - 1 peer steps per sweep, one shifted solve per stage (s=2)
    assert metrics["step.calls"][0] == 2 * (4 + 8) + 2 * (3 + 7)
    assert metrics["solve.calls"][0] == 2 * (4 + 8) + 2 * 2 * (3 + 7)
    assert metrics["sweep.fwd_calls"][0] == 4 and metrics["sweep.adj_calls"][0] == 4
    assert metrics["opt.calls"][0] == 0 and metrics["opt.fwd_sweeps_per_iter"][0] == 0
    assert metrics["cell.max_s"][0] >= metrics["cell.p50_s"][0] > 0
    assert all(v >= 0 for v, _ in metrics.values())


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------

def test_benchmark_json_names_and_units_are_valid():
    doc = benchmark_doc()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_printed_metrics_match_benchmark_json():
    doc = benchmark_doc()
    result = workloads.PassResult(1.0, [workloads.CellCheck("c", True)], 10, 1e-11)
    e2e = run.end_to_end_metrics([result], [0.5, 0.4, 0.6], 100.0)
    assert {k: u for k, (_, u) in e2e.items()} == \
        {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layers = {**layer_metrics(Tracer()), **run.trace_extras(result, result, 1, 2)}
    assert {k: u for k, (_, u) in layers.items()} == \
        {m["name"]: m["unit"] for m in doc["per_layer"]}


def test_without_program_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "s1-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_object_builds_for_every_workload(workload, tmp_path):
    wl = workloads.Workload(workload, 5, tmp_path)
    assert wl.deltas == workloads.deltas_for_seed(5)
