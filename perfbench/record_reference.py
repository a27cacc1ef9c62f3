"""Record the reference rows that the scenario checks compare against.

Runs s1-grid and s2-grid once for each of the POOL_SIZE seed draws and
writes perfbench/reference.json.  Re-record only when a change is meant to
move the reported errors, and say so where the change is described.

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import heatoc.bench  # noqa: E402
from workloads import POOL_SIZE, REFERENCE_FILE, deltas_for_seed, scenario_config  # noqa: E402


def record() -> dict:
    doc = {"pool_size": POOL_SIZE}
    for workload, runner in (("s1-grid", heatoc.bench.run_scenario1),
                             ("s2-grid", heatoc.bench.run_scenario2)):
        doc[workload] = {}
        for k in range(POOL_SIZE):
            report = runner(scenario_config(workload, deltas_for_seed(k)))
            doc[workload][str(k)] = [[r.method, r.m, r.N, r.metric, r.error]
                                     for r in report.rows]
            print(f"{workload} draw {k}: {len(report.rows)} rows", flush=True)
    return doc


if __name__ == "__main__":
    REFERENCE_FILE.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE}")
