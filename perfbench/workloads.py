"""The three benchmark workloads: inputs from the seed, set-up, one pass, checks.

Every workload runs on the benchmark instance (Dirichlet beta0=1, beta1=0,
T=1, alpha=1, psi=1) or, for exact-ref, its Robin counterpart.  The only
input drawn from the seed is the set of sparse-target deltas.  One pass runs
the workload's cells, writes its report and checks every cell; a cell that
fails a check counts as a failed operation.

The program is reached only through attribute lookups on the ``heatoc``
modules (``heatoc.bench.run_scenario1(...)``), so the tracer in ``tracer.py`` can
swap in timed wrappers without any tracing code in ``src/heatoc``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import heatoc
import heatoc.bench
import heatoc.oracles

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# The seed is reduced modulo POOL_SIZE because the reference rows that the
# scenario checks compare against are recorded for exactly these draws.
POOL_SIZE = 8

METHODS = ("gauss2", "lobatto3", "peer_toy2")
S1_M = (250, 500)
S1_N = tuple(2**k for k in range(4, 12))
S2_M = (250,)
S2_N = tuple(2**k for k in range(4, 9))
EXACT_M = (500, 1000, 2000)
EXACT_TIMES = np.linspace(0.0, 1.0, 65)
ROBIN = (1.0, 1.0)

# Reference-row tolerances: |e - e_ref| <= RTOL * |e_ref| + ATOL.  Scenario 1
# is a direct computation, so only roundoff may move it; scenario 2 stops CG
# at grad_tol, so a different but equally converged solver may move the
# control error in the sixth digit.
S1_RTOL, S2_RTOL, ATOL = 1e-6, 1e-4, 1e-12
# exact-ref round trips (solve_terminal recovers sparse_target's eta_T; the
# exact state and multiplier at t=T reproduce V eta_T and p_T), relative to
# max(1, |expected|_inf)
ROUND_TRIP_TOL = 1e-10


def deltas_for_seed(seed: int) -> tuple[tuple[int, float], ...]:
    """Sparse-target deltas: two distinct modes out of 1..3, positive
    coefficients within 25% of 1/75.  Seed 0 gives heatoc's DEFAULT_DELTAS.

    The range is kept narrow so that the CG iteration counts of s2-grid,
    and with them the amount of work per pass, barely depend on the seed.
    """
    k = seed % POOL_SIZE
    if k == 0:
        return heatoc.bench.DEFAULT_DELTAS
    rng = np.random.default_rng(k)
    modes = rng.choice(np.arange(1, 4), size=2, replace=False)
    coefs = rng.uniform(0.75, 1.25, size=2) / 75.0
    return tuple(sorted((int(i), float(c)) for i, c in zip(modes, coefs)))


@dataclass
class CellCheck:
    """Outcome of one cell's checks.

    ``ok`` is false when any check failed.  ``values_ok`` is false only when
    a reported number is wrong (it deviates from its reference or fails a
    round trip); a cell whose numbers match but whose optimizer missed its
    tolerance keeps ``values_ok`` and still counts as failed.
    """

    cell: str
    ok: bool
    detail: str = ""
    values_ok: bool = True


@dataclass
class PassResult:
    """One pass: its wall time, the per-cell checks and the report size."""

    wall_s: float
    cells: list[CellCheck]
    report_bytes: int = 0
    kkt_max: float = 0.0

    @property
    def failed(self) -> int:
        return count_failed(self.cells)


def count_failed(cells: list[CellCheck]) -> int:
    """Number of cells with at least one failed check."""
    return sum(1 for c in cells if not c.ok)


# ---------------------------------------------------------------------------
# reference rows
# ---------------------------------------------------------------------------

def load_reference(workload: str, seed: int) -> dict:
    """Recorded rows {(method, m, N, metric): error} for this seed's draw."""
    doc = json.loads(REFERENCE_FILE.read_text())
    rows = doc[workload][str(seed % POOL_SIZE)]
    return {(r[0], int(r[1]), int(r[2]), r[3]): float(r[4]) for r in rows}


def read_csv_rows(path: Path) -> dict:
    """Data rows of a written report.csv as {(method, m, N, metric): error}."""
    rows = {}
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    for line in lines[1:]:
        method, m, N, metric, error, _order = line.split(",")
        rows[(method, int(m), int(N), metric)] = float(error)
    return rows


def cell_name(method: str, m: int, N: int) -> str:
    return f"{method}:m={m}:N={N}"


def check_rows(rows: dict, reference: dict, rtol: float, atol: float = ATOL) -> list[CellCheck]:
    """One CellCheck per (method, m, N); a cell fails if any of its rows is
    missing, unexpected or deviates from the reference."""
    cells: dict[tuple, list[str]] = {}
    for key in sorted(set(rows) | set(reference)):
        problems = cells.setdefault(key[:3], [])
        if key not in rows:
            problems.append(f"{key[3]} missing")
        elif key not in reference:
            problems.append(f"{key[3]} has no reference")
        else:
            got, want = rows[key], reference[key]
            if not abs(got - want) <= rtol * abs(want) + atol:
                problems.append(f"{key[3]}={got:.6e} vs reference {want:.6e}")
    return [CellCheck(cell_name(*k), not p, "; ".join(p), values_ok=not p)
            for k, p in cells.items()]


# ---------------------------------------------------------------------------
# scenario workloads
# ---------------------------------------------------------------------------

def scenario_config(workload: str, deltas) -> heatoc.ExperimentConfig:
    if workload == "s1-grid":
        return heatoc.ExperimentConfig(m_values=S1_M, methods=METHODS, N_values=S1_N,
                                       scenario=1, deltas=deltas, jobs=1)
    return heatoc.ExperimentConfig(m_values=S2_M, methods=METHODS, N_values=S2_N,
                                   scenario=2, deltas=deltas, jobs=1,
                                   algorithm="cg", grad_tol=1e-10)


def setup_scenario(cfg: heatoc.ExperimentConfig) -> None:
    """Build (and cache) every instance and resolve every method of the grid."""
    for m in cfg.m_values:
        heatoc.bench.benchmark_instance(m, cfg.beta0, cfg.beta1, cfg.T, cfg.alpha,
                                        cfg.deltas)
    for name in cfg.methods:
        heatoc.get_method(name, cfg.peer_dir)


def _emit_and_check(report, out_dir: Path, reference: dict, rtol: float):
    paths = heatoc.bench.emit_report(report, out_dir)
    nbytes = sum(p.stat().st_size for p in paths.values())
    return check_rows(read_csv_rows(paths["csv"]), reference, rtol), nbytes


def run_s1(cfg, out_dir: Path, reference: dict) -> PassResult:
    t0 = time.perf_counter()
    report = heatoc.bench.run_scenario1(cfg)
    cells, nbytes = _emit_and_check(report, out_dir, reference, S1_RTOL)
    return PassResult(time.perf_counter() - t0, cells, nbytes)


def run_s2(cfg, out_dir: Path, reference: dict) -> PassResult:
    """run_scenario2 + emit_report, then the true reduced gradient per cell.

    The optimizer's ``converged`` flag is not trusted: the final control of
    every cell is captured and its gradient recomputed with
    discrete_gradient, and a cell whose max-norm exceeds grad_tol fails.
    """
    t0 = time.perf_counter()
    finals: dict[tuple, np.ndarray] = {}
    inner = heatoc.bench.optimize

    def capturing_optimize(method, prob, ocfg, N, exact_control=None):
        result = inner(method, prob, ocfg, N, exact_control=exact_control)
        finals[(method.name, prob.sys.m, N)] = result.control.values
        return result

    heatoc.bench.optimize = capturing_optimize
    try:
        report = heatoc.bench.run_scenario2(cfg)
    finally:
        heatoc.bench.optimize = inner
    cells, nbytes = _emit_and_check(report, out_dir, reference, S2_RTOL)
    kkt = {cell_name(*key): g for key, g in kkt_norms(cfg, finals).items()}
    for c in cells:
        g = kkt.get(c.cell)
        if g is None:
            c.ok, c.values_ok, c.detail = False, False, "no optimizer result captured"
        elif not g <= cfg.grad_tol:
            c.ok = False
            c.detail = "; ".join(filter(None, [c.detail,
                                               f"true |grad|={g:.3e} > {cfg.grad_tol:.0e}"]))
    return PassResult(time.perf_counter() - t0, cells, nbytes,
                      kkt_max=max(kkt.values(), default=0.0))


def kkt_norms(cfg, finals: dict) -> dict:
    """True ||grad C_h||_inf at each cell's final control."""
    out = {}
    for (name, m, N), values in finals.items():
        prob, _ = heatoc.bench.benchmark_instance(m, cfg.beta0, cfg.beta1, cfg.T,
                                                  cfg.alpha, cfg.deltas)
        grad = heatoc.discrete_gradient(heatoc.get_method(name, cfg.peer_dir), prob,
                                        values, N)
        out[(name, m, N)] = float(np.abs(grad).max())
    return out


# ---------------------------------------------------------------------------
# exact-ref workload
# ---------------------------------------------------------------------------

def verify_cell() -> CellCheck:
    """The `heatoc exact --verify` gate: the desk-scale oracle suite."""
    failed = [c.name for c in heatoc.oracles.run_verification() if not c.passed]
    return CellCheck("verify", not failed, "; ".join(failed), values_ok=not failed)


def robin_cell(m: int, deltas) -> CellCheck:
    """Robin instance at size m: spectrum, sparse target, terminal solve and
    exact state / multiplier evaluations at EXACT_TIMES."""
    T, alpha = 1.0, 1.0
    sys_ = heatoc.build_system(heatoc.RobinBC(*ROBIN), m, heatoc.ones_profile)
    dec = heatoc.decompose(sys_)
    y_hat, target = heatoc.sparse_target(sys_, dec, T=T, alpha=alpha, deltas=deltas)
    prob = heatoc.OcProblem(sys=sys_, dec=dec, T=T, alpha=alpha, y_hat=y_hat)
    sol = heatoc.solve_terminal(prob)
    states = [heatoc.solve_ivp_exact(sys_, dec, sol.control, float(t)) for t in EXACT_TIMES]
    duals = [heatoc.adjoint_exact(dec, sol.p_T, float(t), T) for t in EXACT_TIMES]
    checks = (("eta_T round trip", sol.eta_T, target.eta_T),
              ("y(T) from solve_ivp_exact", states[-1], heatoc.from_modal(dec, target.eta_T)),
              ("p(T) from adjoint_exact", duals[-1], target.p_T))
    problems = []
    for label, got, want in checks:
        err = float(np.abs(got - want).max()) / max(1.0, float(np.abs(want).max()))
        if not err <= ROUND_TRIP_TOL:
            problems.append(f"{label} {err:.2e}")
    return CellCheck(f"robin:m={m}", not problems, "; ".join(problems), values_ok=not problems)


def run_exact(deltas) -> PassResult:
    t0 = time.perf_counter()
    cells = [verify_cell()] + [robin_cell(m, deltas) for m in EXACT_M]
    return PassResult(time.perf_counter() - t0, cells)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

WORKLOADS = ("s1-grid", "s2-grid", "exact-ref")


class Workload:
    """A workload bound to one seed: ``setup()`` once, then ``run_pass()``."""

    def __init__(self, name: str, seed: int, out_dir: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.deltas = deltas_for_seed(seed)
        self.out_dir = out_dir
        self.cfg = None
        self.reference = None
        if name != "exact-ref":
            self.cfg = scenario_config(name, self.deltas)
            self.reference = load_reference(name, seed)

    def setup(self) -> None:
        if self.cfg is not None:
            setup_scenario(self.cfg)

    def run_pass(self) -> PassResult:
        if self.name == "s1-grid":
            return run_s1(self.cfg, self.out_dir, self.reference)
        if self.name == "s2-grid":
            return run_s2(self.cfg, self.out_dir, self.reference)
        return run_exact(self.deltas)
