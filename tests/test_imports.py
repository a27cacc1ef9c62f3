"""Import footprint: a scenario run loads no quadrature stack."""

import json
import os
import subprocess
import sys
from pathlib import Path

import heatoc
from heatoc import ExpSumFunction, RobinBC, build_system, ones_profile
from heatoc.oracles import expm_state

QUADRATURE_STACK = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.sparse")

SCRIPT = """
import json, sys
import heatoc, heatoc.bench, heatoc.cli, heatoc.oracles
from heatoc import ExperimentConfig, ExpSumFunction, RobinBC, build_system, ones_profile

stack = %r
heatoc.bench.run_scenario1(ExperimentConfig(m_values=(4,), N_values=(8, 16),
                                            methods=("gauss2",)))
before = [name for name in stack if name in sys.modules]
sys_ = build_system(RobinBC(1.0, 1.0), 4, ones_profile)
y = heatoc.oracles.expm_state(sys_, ExpSumFunction([0.5, -1.0], [-2.0, -7.0], 1.0), 0.6)
print(json.dumps({"before": before, "after": "scipy.integrate" in sys.modules,
                  "y": y.tobytes().hex()}))
"""


def test_scenario_run_loads_no_quadrature_stack():
    src = str(Path(heatoc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", SCRIPT % (QUADRATURE_STACK,)],
                         env=env, capture_output=True, text=True, check=True).stdout
    seen = json.loads(out.splitlines()[-1])
    assert seen["before"] == []
    assert seen["after"] is True
    sys_ = build_system(RobinBC(1.0, 1.0), 4, ones_profile)
    y = expm_state(sys_, ExpSumFunction([0.5, -1.0], [-2.0, -7.0], 1.0), 0.6)
    assert seen["y"] == y.tobytes().hex()
