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
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .heat_mol import ConfigError, RobinBC, build_system, ones_profile, _unique_keys
from .spectrum import decompose, from_modal
from .exact_oc import (
    OcProblem, adjoint_exact, check_target, solve_ivp_exact, sparse_target,
)
from .discrete_opt import OptimizerConfig, optimize
from .integrators import PeerScheme, get_method, integrate_forward, integrate_adjoint

DEFAULT_DELTAS = ((1, 1.0 / 75.0), (2, 1.0 / 75.0))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_delta(value) -> bool:
    return (isinstance(value, list) and len(value) == 2
            and _is_int(value[0]) and _is_number(value[1]))


# the JSON type check of each ExperimentConfig field, and whether it is a list
_JSON_FIELDS = {
    "m_values": (_is_int, True), "N_values": (_is_int, True),
    "methods": (lambda v: isinstance(v, str), True), "deltas": (_is_delta, True),
    "beta0": (_is_number, False), "beta1": (_is_number, False),
    "T": (_is_number, False), "alpha": (_is_number, False),
    "grad_tol": (_is_number, False), "scenario": (_is_int, False),
    "jobs": (_is_int, False), "max_iterations": (_is_int, False),
    "verify": (lambda v: isinstance(v, bool), False),
    "out_dir": (lambda v: v is None or isinstance(v, str), False),
    "peer_dir": (lambda v: v is None or isinstance(v, str), False),
    "algorithm": (lambda v: isinstance(v, str), False),
}


def _json_field(name: str, value):
    """A config field's JSON value, type-checked; raises TypeError if it is not
    of the field's type (so 8.5 is no integer and "1" no number)."""
    check, is_list = _JSON_FIELDS[name]
    if is_list:
        if not isinstance(value, list) or not all(map(check, value)):
            raise TypeError(f"{name} has an item of the wrong type: {value!r}")
        if name == "deltas":
            return tuple((i, float(v)) for i, v in value)
        return tuple(value)
    if not check(value):
        raise TypeError(f"{name} has the wrong type: {value!r}")
    # an integral number in a float field becomes a float, so that equal
    # configs write the same canonical JSON and hash alike
    return float(value) if check is _is_number else value


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
    # accepted and ignored by the direct solve of ``optimize``; kept for
    # perfbench and removed in the benchmark-upkeep change (ROADMAP item 1)
    max_iterations: int = 5000
    algorithm: str = "cg"

    def validate(self) -> "ExperimentConfig":
        if not self.methods:
            raise ConfigError("no methods requested")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError(f"methods must be distinct, got {self.methods}")
        if not self.m_values or any(m < 2 for m in self.m_values):
            raise ConfigError("m values must all be >= 2")
        if len(set(self.m_values)) != len(self.m_values):
            raise ConfigError(f"m values must be distinct, got {self.m_values}")
        if self.scenario not in (1, 2):
            raise ConfigError(f"unknown scenario {self.scenario}")
        if not self.N_values:
            raise ConfigError("no step counts requested")
        for N in self.N_values:
            if N < 2 or (N & (N - 1)) != 0:
                raise ConfigError(f"step counts must be powers of two >= 2, got {N}")
        if any(a >= b for a, b in zip(self.N_values, self.N_values[1:])):
            raise ConfigError(f"step counts must be strictly ascending, got {self.N_values}")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        RobinBC(self.beta0, self.beta1)
        for m in self.m_values:
            check_target(m, self.T, self.alpha, self.deltas)
        OptimizerConfig(grad_tol=self.grad_tol)
        if self.max_iterations < 0:
            raise ConfigError(f"max_iterations must be >= 0, got {self.max_iterations}")
        if self.algorithm != "cg":
            raise ConfigError(f"unknown optimizer algorithm {self.algorithm!r}")
        return self

    @classmethod
    def from_json(cls, source) -> "ExperimentConfig":
        try:
            doc = (source if isinstance(source, dict)
                   else json.loads(Path(source).read_text(), object_pairs_hook=_unique_keys))
            if not isinstance(doc, dict):
                raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
            kwargs = {}
            for f in dataclasses.fields(cls):
                if f.name in doc:
                    kwargs[f.name] = _json_field(f.name, doc[f.name])
        except (TypeError, ValueError, OverflowError) as exc:
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
        """Hash of every field but ``out_dir``, ``jobs`` and ``verify``, which
        change no data row."""
        doc = dataclasses.asdict(self)
        del doc["out_dir"], doc["jobs"], doc["verify"]
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


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
    """Problem and exact solution of one sparse-target instance: the one
    instance builder of the cells, the verify gate and ``heatoc exact``."""
    sys = build_system(RobinBC(beta0, beta1), m, ones_profile)
    dec = decompose(sys)
    y_hat, sol = sparse_target(sys, dec, T=T, alpha=alpha, deltas=deltas)
    prob = OcProblem(sys=sys, dec=dec, T=T, alpha=alpha, y_hat=y_hat)
    return prob, sol


def _exact_start(scheme, state, h: float):
    """The exact first stage block of a Peer sweep, None for a one-step scheme.

    Row i is ``state(c_i h)``, the closed-form solution at the i-th node.
    """
    if not isinstance(scheme, PeerScheme):
        return None
    return np.stack([state(float(ci) * h) for ci in scheme.c])


def _scenario1_cell(args) -> tuple[list[ReportRow], bool]:
    cfg, method, m, N = args
    prob, sol = benchmark_instance(m, cfg.beta0, cfg.beta1, cfg.T, cfg.alpha, cfg.deltas)
    T, sys, dec = cfg.T, prob.sys, prob.dec
    y_T_exact = from_modal(dec, sol.eta_T)
    p_0_exact = adjoint_exact(dec, sol.p_T, 0.0, T)
    # Peer sweeps start from the exact solution at their first nodes: the
    # cell measures the method's order, not its starter
    h = T / N
    start = _exact_start(method.forward, lambda t: solve_ivp_exact(sys, dec, sol.control, t), h)
    times = (np.arange(N)[:, None] + method.forward.c[None, :]) * h
    u = sol.control(times.ravel()).reshape(times.shape)
    y_T = integrate_forward(method, sys, u, N, T, start)
    err_y = float(np.abs(y_T - y_T_exact).max())
    p_T = y_T - prob.y_hat
    # q(t) = p(T - t) = e^(t M) p_T, the backward flow from p_T over time t
    start = _exact_start(method.adjoint, lambda t: adjoint_exact(dec, p_T, 0.0, t), h)
    p_0 = integrate_adjoint(method, sys, p_T, N, T, start)
    err_p = float(np.abs(p_0 - p_0_exact).max())
    return [ReportRow(method.name, m, N, "yT_err_inf", err_y),
            ReportRow(method.name, m, N, "p0_err_inf", err_p)], True


def _scenario2_cell(args) -> tuple[list[ReportRow], bool]:
    cfg, method, m, N = args
    prob, sol = benchmark_instance(m, cfg.beta0, cfg.beta1, cfg.T, cfg.alpha, cfg.deltas)
    result = optimize(method, prob, OptimizerConfig(grad_tol=cfg.grad_tol), N,
                      exact_control=sol.control)
    return [ReportRow(method.name, m, N, "u_nodes_err_inf", result.control_error)], \
        result.converged


def _pool_iter(jobs: int, fn, argses: list):
    # yields results cell by cell so callers can flush partial reports; the
    # pool never exceeds the cell count, since a forking executor starts all
    # of its workers at once
    workers = min(jobs, len(argses))
    if workers <= 1:
        for a in argses:
            yield fn(a)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, argses)


def _base_metadata(cfg: ExperimentConfig) -> dict[str, str]:
    return {
        "config_hash": cfg.config_hash(),
        "package_version": __version__,
        "scenario": str(cfg.scenario),
        "created": datetime.datetime.now(datetime.timezone.utc)
                   .replace(microsecond=0).isoformat(),
    }


def _run_grid(cfg: ExperimentConfig, cell, on_partial) -> ConvergenceReport:
    """Run ``cell`` on (cfg, method, m, N) for every grid point, each method
    looked up once; a cell returns (rows, converged).  When a cell raises,
    ``on_partial`` gets the rows so far."""
    cfg.validate()
    methods = [get_method(name, cfg.peer_dir) for name in cfg.methods]
    argses = [(cfg, method, m, N)
              for method in methods for m in cfg.m_values for N in cfg.N_values]
    rows: list[ReportRow] = []
    non_converged: set = set()
    try:
        for args, (cell_rows, converged) in zip(argses, _pool_iter(cfg.jobs, cell, argses)):
            rows.extend(cell_rows)
            if not converged:
                _, method, m, N = args
                non_converged.add((method.name, m, N))
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
    return _run_grid(dataclasses.replace(cfg, scenario=1), _scenario1_cell, on_partial)


def run_scenario2(cfg: ExperimentConfig, on_partial=None) -> ConvergenceReport:
    """Fully coupled study: discrete optimization per cell, node-wise control error."""
    return _run_grid(dataclasses.replace(cfg, scenario=2), _scenario2_cell, on_partial)


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


def _datablock_names(by_metric) -> dict[tuple[str, str, int], str]:
    """gnuplot datablock name of each (metric, method, m) series: the key
    joined as metric_method_m<m> with every character outside
    [A-Za-z0-9_] mapped to _, and _ appended until the name is unique."""
    names: dict[tuple[str, str, int], str] = {}
    for metric, series in sorted(by_metric.items()):
        for method, m in sorted(series):
            name = re.sub(r"[^A-Za-z0-9_]", "_", f"{metric}_{method}_m{m}")
            while name in names.values():
                name += "_"
            names[metric, method, m] = name
    return names


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
    names = _datablock_names(by_metric)
    for metric, series in sorted(by_metric.items()):
        for (method, m), rows in sorted(series.items()):
            lines.append(f"${names[metric, method, m]} << EOD")
            for r in sorted(rows, key=lambda r: r.N):
                lines.append(f"{r.N} {r.error:.17g}")
            lines.append("EOD")
    for metric, series in sorted(by_metric.items()):
        lines.append(f"set ylabel '{metric}'")
        plots = []
        for (method, m) in sorted(series):
            plots.append(f"${names[metric, method, m]} using 1:2 with linespoints title '{method} m={m}'")
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
