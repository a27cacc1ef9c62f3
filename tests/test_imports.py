"""Import footprint: a scenario run and the verify gate load no quadrature stack."""

import json
import os
import subprocess
import sys
from pathlib import Path

import heatoc

QUADRATURE_STACK = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.sparse")

SCRIPT = """
import json, sys
import heatoc, heatoc.bench, heatoc.cli, heatoc.oracles
from heatoc import ExperimentConfig

stack = %r
heatoc.bench.run_scenario1(ExperimentConfig(m_values=(4,), N_values=(8, 16),
                                            methods=("gauss2",)))
scenario = [name for name in stack if name in sys.modules]
assert all(check.passed for check in heatoc.oracles.run_verification())
verify = [name for name in stack if name in sys.modules]
print(json.dumps({"scenario": scenario, "verify": verify}))
"""


def test_scenario_run_loads_no_quadrature_stack():
    src = str(Path(heatoc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", SCRIPT % (QUADRATURE_STACK,)],
                         env=env, capture_output=True, text=True, check=True).stdout
    seen = json.loads(out.splitlines()[-1])
    assert seen["scenario"] == []
    assert seen["verify"] == []
