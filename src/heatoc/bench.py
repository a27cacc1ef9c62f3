"""Benchmark harness: convergence-order studies against the exact solutions.

Scenario 1 feeds every integrator the exact optimal control and measures the
terminal-state and multiplier errors ||y(T) - y_h(T)||_inf and
||p(0) - p_h(0)||_inf, where the backward sweep is started from the numerical
terminal value p(T) = y_h(T) - y_hat.  Scenario 2 solves the full discrete
optimal-control problem per (method, m, N) cell and measures the node-wise
control error max_{n,i} |u(t_ni) - u_h(t_ni)|.  Reference values always come
from the closed-form solutions; no trusted external solver is involved.
"""

from __future__ import annotations

import dataclasses
import datetime
import functools
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .heat_mol import ConfigError, RobinBC, build_system, ones_profile
from .spectrum import decompose, from_modal
from .exact_oc import OcProblem, adjoint_exact, check_target, sparse_target
from .discrete_opt import OptimizerConfig, optimize
from .integrators import get_method, integrate_forward, integrate_adjoint

DEFAULT_DELTAS = ((1, 1.0 / 75.0), (2, 1.0 / 75.0))


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark experiment; serializable to and from a JSON document."""

    m_values: tuple[int, ...] = (250,)
    beta0: float = 1.0
    beta1: float = 0.0
    T: float = 1.0
    alpha: float = 1.0
    deltas: tuple[tuple[int, float], ...] = DEFAULT_DELTAS
    methods: tuple[str, ...] = ("gauss2", "lobatto3")
    N_values: tuple[int, ...] = tuple(2**k for k in range(4, 12))
    scenario: int = 1
    out_dir: str | None = None
    verify: bool = False
    jobs: int = 1
    peer_dir: str | None = None
    grad_tol: float = 1e-10
    max_iterations: int = 5000
    algorithm: str = "cg"

    def validate(self) -> "ExperimentConfig":
        if not self.methods:
            raise ConfigError("no methods requested")
        if not self.m_values or any(m < 2 for m in self.m_values):
            raise ConfigError("m values must all be >= 2")
        if self.scenario not in (1, 2):
            raise ConfigError(f"unknown scenario {self.scenario}")
        if not self.N_values:
            raise ConfigError("no step counts requested")
        for N in self.N_values:
            if N < 2 or (N & (N - 1)) != 0:
                raise ConfigError(f"step counts must be powers of two >= 2, got {N}")
        if tuple(sorted(self.N_values)) != self.N_values:
            raise ConfigError("step counts must be sorted ascending")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        RobinBC(self.beta0, self.beta1)
        for m in self.m_values:
            check_target(m, self.T, self.alpha, self.deltas)
        OptimizerConfig(max_iterations=self.max_iterations, grad_tol=self.grad_tol,
                        algorithm=self.algorithm)
        return self

    @classmethod
    def from_json(cls, source) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(source).read_text()) if not isinstance(source, dict) else source
            kwargs = {}
            for f in dataclasses.fields(cls):
                if f.name in doc:
                    value = doc[f.name]
                    if f.name in ("m_values", "N_values", "methods"):
                        value = tuple(value)
                    elif f.name == "deltas":
                        value = tuple((int(i), float(v)) for i, v in value)
                    kwargs[f.name] = value
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed experiment config: {exc}") from exc
        unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**kwargs)

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return dataclasses.replace(self, **kwargs)

    def canonical_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ReportRow:
    method: str
    m: int
    N: int
    metric: str
    error: float
    observed_order: float | None = None


@dataclass
class ConvergenceReport:
    rows: list[ReportRow] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)


def attach_orders(rows: list[ReportRow], skip: set | None = None) -> list[ReportRow]:
    """Fill observed_order = log2(e_N / e_2N) per (method, m, metric) series.

    The last N of each series (and any N whose double is absent) keeps a blank
    order; cells listed in ``skip`` (method, m, N) are excluded entirely.
    """
    skip = skip or set()
    by_series: dict[tuple, list[ReportRow]] = {}
    for r in rows:
        by_series.setdefault((r.method, r.m, r.metric), []).append(r)
    out = []
    for series in by_series.values():
        series.sort(key=lambda r: r.N)
        for i, r in enumerate(series):
            order = None
            if (r.method, r.m, r.N) not in skip:
                nxt = next((q for q in series[i + 1:] if q.N == 2 * r.N), None)
                if (nxt is not None and (nxt.method, nxt.m, nxt.N) not in skip
                        and r.error > 0 and nxt.error > 0):
                    order = float(np.log2(r.error / nxt.error))
            out.append(dataclasses.replace(r, observed_order=order))
    out.sort(key=lambda r: (r.method, r.m, r.metric, r.N))
    return out


@functools.lru_cache(maxsize=8)
def benchmark_instance(m: int, beta0: float, beta1: float, T: float, alpha: float,
                       deltas: tuple[tuple[int, float], ...]):
    """System, decomposition, problem and exact solution for one instance."""
    sys = build_system(RobinBC(beta0, beta1), m, ones_profile)
    dec = decompose(sys)
    y_hat, sol = sparse_target(sys, dec, T=T, alpha=alpha, deltas=deltas)
    prob = OcProblem(sys=sys, dec=dec, T=T, alpha=alpha, y_hat=y_hat)
    return prob, sol


def _scenario1_cell(args) -> tuple[list[ReportRow], bool]:
    method_name, m, N, beta0, beta1, T, alpha, deltas, peer_dir = args
    prob, sol = benchmark_instance(m, beta0, beta1, T, alpha, deltas)
    method = get_method(method_name, peer_dir)
    y_T_exact = from_modal(prob.dec, sol.eta_T)
    p_0_exact = adjoint_exact(prob.dec, sol.p_T, 0.0, T)
    fwd = integrate_forward(method, prob.sys, sol.control, N, T, dec=prob.dec)
    err_y = float(np.abs(fwd.final - y_T_exact).max())
    p_T_num = fwd.final - prob.y_hat
    bwd = integrate_adjoint(method, prob.sys, p_T_num, N, T, dec=prob.dec)
    err_p = float(np.abs(bwd.states[0] - p_0_exact).max())
    return [ReportRow(method_name, m, N, "yT_err_inf", err_y),
            ReportRow(method_name, m, N, "p0_err_inf", err_p)], True


def _scenario2_cell(args) -> tuple[list[ReportRow], bool]:
    (method_name, m, N, beta0, beta1, T, alpha, deltas, peer_dir,
     grad_tol, max_iterations, algorithm) = args
    prob, sol = benchmark_instance(m, beta0, beta1, T, alpha, deltas)
    method = get_method(method_name, peer_dir)
    cfg = OptimizerConfig(max_iterations=max_iterations, grad_tol=grad_tol,
                          algorithm=algorithm)
    result = optimize(method, prob, cfg, N, exact_control=sol.control)
    return [ReportRow(method_name, m, N, "u_nodes_err_inf", result.control_error)], \
        result.converged


def _pool_iter(jobs: int, fn, argses: list):
    # yields results cell by cell so callers can flush partial reports
    if jobs <= 1:
        for a in argses:
            yield fn(a)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(fn, argses)


def _base_metadata(cfg: ExperimentConfig) -> dict[str, str]:
    return {
        "config_hash": cfg.config_hash(),
        "package_version": __version__,
        "scenario": str(cfg.scenario),
        "created": datetime.datetime.now(datetime.timezone.utc)
                   .replace(microsecond=0).isoformat(),
    }


def _run_grid(cfg: ExperimentConfig, cell, extra: tuple, on_partial) -> ConvergenceReport:
    """Run ``cell`` on every (method, m, N) of the grid; a cell returns (rows,
    converged).  When a cell raises, ``on_partial`` gets the rows so far."""
    cfg.validate()
    for name in cfg.methods:
        get_method(name, cfg.peer_dir)   # fail fast on missing coefficients
    argses = [(name, m, N, cfg.beta0, cfg.beta1, cfg.T, cfg.alpha, cfg.deltas,
               cfg.peer_dir) + extra
              for name in cfg.methods for m in cfg.m_values for N in cfg.N_values]
    rows: list[ReportRow] = []
    non_converged: set = set()
    try:
        for args, (cell_rows, converged) in zip(argses, _pool_iter(cfg.jobs, cell, argses)):
            rows.extend(cell_rows)
            if not converged:
                non_converged.add(args[:3])
    except Exception:
        if on_partial is not None and rows:
            partial = ConvergenceReport(rows=attach_orders(rows, skip=non_converged),
                                        metadata=_base_metadata(cfg))
            partial.metadata["incomplete"] = "true"
            on_partial(partial)
        raise
    metadata = _base_metadata(cfg)
    if non_converged:
        metadata["non_converged"] = ";".join(
            f"{n}:m={m}:N={N}" for n, m, N in sorted(non_converged))
    return ConvergenceReport(rows=attach_orders(rows, skip=non_converged),
                             metadata=metadata)


def run_scenario1(cfg: ExperimentConfig, on_partial=None) -> ConvergenceReport:
    """Decoupled study: forward with the exact control, backward from y_h(T) - y_hat."""
    return _run_grid(cfg, _scenario1_cell, (), on_partial)


def run_scenario2(cfg: ExperimentConfig, on_partial=None) -> ConvergenceReport:
    """Fully coupled study: discrete optimization per cell, node-wise control error."""
    return _run_grid(cfg, _scenario2_cell,
                     (cfg.grad_tol, cfg.max_iterations, cfg.algorithm), on_partial)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

CSV_HEADER = "method,m,N,metric,error,observed_order"


def render_csv(report: ConvergenceReport) -> str:
    """CSV with metadata confined to comment lines; data rows are deterministic."""
    lines = [f"# {k}={v}" for k, v in sorted(report.metadata.items())]
    lines.append(CSV_HEADER)
    for r in report.rows:
        order = "" if r.observed_order is None else f"{r.observed_order:.6f}"
        lines.append(f"{r.method},{r.m},{r.N},{r.metric},{r.error:.17g},{order}")
    return "\n".join(lines) + "\n"


def render_table(report: ConvergenceReport) -> str:
    widths = (14, 6, 6, 18, 14, 10)
    header = ("method", "m", "N", "metric", "error", "order")
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in report.rows:
        order = "" if r.observed_order is None else f"{r.observed_order:8.3f}"
        cells = (r.method, str(r.m), str(r.N), r.metric, f"{r.error:.6e}", order)
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines) + "\n"


def render_gnuplot(report: ConvergenceReport) -> str:
    """Self-contained gnuplot script reproducing the log-log error plots."""
    by_metric: dict[str, dict[tuple[str, int], list[ReportRow]]] = {}
    for r in report.rows:
        by_metric.setdefault(r.metric, {}).setdefault((r.method, r.m), []).append(r)
    lines = [
        "# generated by heatoc; run with: gnuplot <file>",
        "set logscale xy",
        "set xlabel 'N (time steps)'",
        "set key bottom left",
        "set grid",
    ]
    for metric, series in sorted(by_metric.items()):
        for (method, m), rows in sorted(series.items()):
            tag = f"{metric}_{method}_m{m}".replace("-", "_")
            lines.append(f"${tag} << EOD")
            for r in sorted(rows, key=lambda r: r.N):
                lines.append(f"{r.N} {r.error:.17g}")
            lines.append("EOD")
    for metric, series in sorted(by_metric.items()):
        lines.append(f"set ylabel '{metric}'")
        plots = []
        for (method, m) in sorted(series):
            tag = f"{metric}_{method}_m{m}".replace("-", "_")
            plots.append(f"${tag} using 1:2 with linespoints title '{method} m={m}'")
        lines.append("plot " + ", \\\n     ".join(plots))
        lines.append("pause -1 'press enter for next plot'")
    return "\n".join(lines) + "\n"


def emit_report(report: ConvergenceReport, out_dir,
                basename: str = "report") -> dict[str, Path]:
    """Write the report as CSV, table and gnuplot script; returns the file paths."""
    if not report.rows:
        raise ConfigError("refusing to emit an empty report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    renderers = {"csv": (render_csv, ".csv"), "table": (render_table, ".txt"),
                 "plot": (render_gnuplot, ".gp")}
    paths: dict[str, Path] = {}
    for fmt, (render, suffix) in renderers.items():
        path = out / f"{basename}{suffix}"
        path.write_text(render(report))
        paths[fmt] = path
    return paths
