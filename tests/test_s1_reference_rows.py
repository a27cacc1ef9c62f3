"""The scenario-1 rows nearest the benchmark's reference check.

A roundoff change in the exact layer moves the yT error rows of the finest
cells most.  When the eigenvectors changed to the angle-sum form,
gauss2 at m = 500, N = 2048 moved by 6.6e-13 at seed 0, a third of the
allowance |e - e_ref| <= 1e-6 |e_ref| + 1e-12 of perfbench's s1 check, and
lobatto3 at m = 500, N = 1024 moved by 1.5e-12 at seed 1, 98% of it.
These cells are compared with perfbench/reference.json through perfbench's
own loader, check and tolerances, so a change that would fail the
benchmark's s1-grid check on them fails here first.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

import heatoc.bench

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

# seed: (methods, m, N values) of the cells whose rows sit nearest the check
GUARDED = {
    0: ((("gauss2", "lobatto3"), 500, (1024, 2048)), (("lobatto3",), 250, (512,))),
    1: ((("lobatto3",), 500, (1024,)),),
}


@pytest.mark.parametrize("seed", GUARDED)
def test_s1_rows_nearest_the_check_match_the_reference(seed, tmp_path):
    full = workloads.scenario_config("s1-grid", workloads.deltas_for_seed(seed))
    rows = {}
    for methods, m, N_values in GUARDED[seed]:
        cfg = dataclasses.replace(full, methods=methods, m_values=(m,), N_values=N_values)
        paths = heatoc.bench.emit_report(heatoc.bench.run_scenario1(cfg), tmp_path / str(m))
        rows.update(workloads.read_csv_rows(paths["csv"]))
    cells = {key[:3] for key in rows}
    assert len(cells) == sum(len(ms) * len(Ns) for ms, _, Ns in GUARDED[seed])
    reference = {key: e for key, e in workloads.load_reference("s1-grid", seed).items()
                 if key[:3] in cells}
    checks = workloads.check_rows(rows, reference, workloads.S1_RTOL, workloads.ATOL)
    assert len(checks) == len(cells)
    assert all(c.ok for c in checks), [(c.cell, c.detail) for c in checks if not c.ok]
