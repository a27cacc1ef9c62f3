"""Import footprint: a scenario run and the verify gate load no quadrature stack."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import heatoc
from conftest import make_instance
from heatoc import RobinBC
from heatoc.oracles import q_quadratic_form

QUADRATURE_STACK = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.sparse")

SCRIPT = """
import json, sys
import numpy as np
import heatoc, heatoc.bench, heatoc.cli, heatoc.oracles
from heatoc import ExperimentConfig, OcProblem, RobinBC, build_system, decompose
from heatoc import ones_profile, sparse_target

stack = %r
heatoc.bench.run_scenario1(ExperimentConfig(m_values=(4,), N_values=(8, 16),
                                            methods=("gauss2",)))
scenario = [name for name in stack if name in sys.modules]
assert all(check.passed for check in heatoc.oracles.run_verification())
verify = [name for name in stack if name in sys.modules]
sys_ = build_system(RobinBC(1.0, 1.0), 6, ones_profile)
dec = decompose(sys_)
y_hat, _ = sparse_target(sys_, dec, T=1.0, alpha=1.0, deltas=((1, 1 / 75), (2, 1 / 75)))
prob = OcProblem(sys=sys_, dec=dec, T=1.0, alpha=1.0, y_hat=y_hat)
q = heatoc.oracles.q_quadratic_form(prob, np.linspace(-1.0, 1.0, 6))
print(json.dumps({"scenario": scenario, "verify": verify,
                  "quad": "scipy.integrate" in sys.modules,
                  "q": np.float64(q).tobytes().hex()}))
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
    assert seen["quad"] is True
    prob, _ = make_instance(6, bc=RobinBC(1.0, 1.0))
    q = q_quadratic_form(prob, np.linspace(-1.0, 1.0, 6))
    assert seen["q"] == np.float64(q).tobytes().hex()
