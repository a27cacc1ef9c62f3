import numpy as np
import pytest

from heatoc import (
    IrkTableau, OcProblem, RobinBC, build_system, decompose, ones_profile, sparse_target,
)

# pass/fail lines collected by the acceptance tests, echoed after the run
ACCEPTANCE_LINES: list[str] = []

BENCH_DELTAS = ((1, 1.0 / 75.0), (2, 1.0 / 75.0))


def make_instance(m: int, T: float = 1.0, alpha: float = 1.0,
                  bc: RobinBC | None = None, deltas=BENCH_DELTAS):
    """Benchmark-style instance: Dirichlet control, constant-one start."""
    sys = build_system(bc or RobinBC.dirichlet(), m, ones_profile)
    dec = decompose(sys)
    y_hat, sol = sparse_target(sys, dec, T=T, alpha=alpha, deltas=deltas)
    prob = OcProblem(sys=sys, dec=dec, T=T, alpha=alpha, y_hat=y_hat)
    return prob, sol


def lobatto_iiib() -> IrkTableau:
    """3-stage Lobatto IIIB, Hager's adjoint partner of Lobatto IIIA.

    The package has no IIIB method: scenario 1's backward sweep runs IIIA,
    which shares IIIB's stability function, and scenario 2's discrete
    adjoint is the transposed IIIA sweep.  The tests keep this literal to
    check both claims.
    """
    return IrkTableau(name="lobatto_iiib",
                      A=np.array([[1 / 6, -1 / 6, 0.0],
                                  [1 / 6, 1 / 3, 0.0],
                                  [1 / 6, 5 / 6, 0.0]]),
                      b=np.array([1 / 6, 2 / 3, 1 / 6]),
                      c=np.array([0.0, 0.5, 1.0]))


@pytest.fixture(scope="session")
def instance8():
    return make_instance(8)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
