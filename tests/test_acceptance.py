"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Every tolerance and runtime budget is fixed here; nothing is calibrated at
run time.  Criterion 6 and the Peer half of criterion 7 are conditional on
the production 4-stage Peer coefficient files and skip cleanly while those
are placeholders.

Criterion 7 checks the order reduction of the one-step methods in the
control.  Gauss-2, Lobatto IIIA and Lobatto IIIB share the (2,2) Pade
stability function R with R(-inf) = 1, so the stiffest mode of the instance
is barely damped while h |lambda_min| is large.  For each pair N -> 2N the
criterion computes the undamped fraction f = |R(T/(2N) lambda_min)|^(2N) of
that mode from ``stability_function`` and the instance's spectrum, and sorts
the pair into a zone:

* f >= 1/2 (stiff window: at least half of the stiffest mode survives the
  2N steps): the control order must lie in [0.7, 1.5], and each method
  needs at least two such pairs;
* f < 1/10 (window closed: the mode has decayed by a factor ten): the
  control order must exceed 1.5, i.e. the first-order regime has ended
  where f says it ends;
* in between: printed, not asserted.

A blank order (a cell that did not converge) fails in either zone.  The pair
orders of the closed zone at m = 250 are not asymptotic convergence orders:
the t = 0 error collapses there like f itself (about exp(-12 N^2 / (T
|lambda_min|))).  The asymptotic rates, which the sweep does not reach at
m = 250, are checked on a non-stiff instance in
``tests/test_discrete_opt.py::test_discrete_optimality_system_order_when_nonstiff``.
"""

import time

import numpy as np
import pytest

from heatoc import (
    ExperimentConfig, ExpSumFunction, MissingPeerCoefficientsError, OptimizerConfig,
    RobinBC, adjoint_exact, benchmark_instance, build_Q, build_system, decompose,
    from_modal, get_method, ones_profile, optimize, render_csv, run_scenario1,
    run_scenario2, solve_ivp_exact, solve_terminal, stability_function,
)
from heatoc.oracles import (
    dense_eigendecomposition, dense_matrix, expm_adjoint, expm_state,
    fd_gradient_check, run_verification, shooting_terminal,
)
from conftest import ACCEPTANCE_LINES, make_instance

AP_SCHEMES = ("AP4o43bdf", "AP4o43dif")
ONE_STEP_METHODS = ("gauss2", "lobatto3")
# criterion 7 zones by the undamped fraction f of the stiffest mode
STIFF_WINDOW = 0.5       # f >= 1/2: control order in [0.7, 1.5]
WINDOW_CLOSED = 0.1      # f < 1/10: control order > 1.5


def _criterion(number, passed, detail):
    line = f"[acceptance] criterion {number}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert passed, line


def _skip(number, detail):
    line = f"[acceptance] criterion {number}: SKIPPED ({detail})"
    print(line)
    ACCEPTANCE_LINES.append(line)
    pytest.skip(detail)


def _ap_methods():
    found = []
    for name in AP_SCHEMES:
        try:
            found.append(get_method(name))
        except MissingPeerCoefficientsError:
            pass
    return found


def _series(report, method, m, metric):
    rows = sorted((r for r in report.rows
                   if r.method == method and r.m == m and r.metric == metric),
                  key=lambda r: r.N)
    return rows


def test_criterion_1_spectral_correctness():
    start = time.perf_counter()
    worst = {"lam": 0.0, "resid": 0.0, "orth": 0.0}
    for m in range(2, 13):
        for bc in (RobinBC.dirichlet(), RobinBC.neumann(), RobinBC(1, 1), RobinBC(3, 1),
                   RobinBC(1e-14, 1), RobinBC(1, 1e-14)):
            sys = build_system(bc, m, ones_profile)
            dec = decompose(sys)
            lam_ref, _ = dense_eigendecomposition(sys)
            worst["lam"] = max(worst["lam"], np.abs(dec.lambdas - lam_ref).max() / m**2)
            resid = np.abs(dense_matrix(sys) @ dec.vectors - dec.vectors * dec.lambdas)
            worst["resid"] = max(worst["resid"], resid.max() / m**2)
            gram = np.abs(dec.vectors.T @ dec.vectors - np.eye(m)).max()
            worst["orth"] = max(worst["orth"], gram)
    elapsed = time.perf_counter() - start
    ok = worst["lam"] <= 1e-9 and worst["resid"] <= 1e-10 and worst["orth"] <= 1e-12 \
        and elapsed < 1.0
    _criterion(1, ok, f"lam={worst['lam']:.2e} resid={worst['resid']:.2e} "
                      f"orth={worst['orth']:.2e} time={elapsed:.2f}s")


def test_criterion_2_exact_solution_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    sys = build_system(RobinBC.dirichlet(), 8, ones_profile)
    dec = decompose(sys)
    T = 1.0
    worst = 0.0
    for _ in range(20):
        control = ExpSumFunction(rng.standard_normal(2), -rng.uniform(0, 6, 2), T)
        t = float(rng.uniform(0, T))
        y = solve_ivp_exact(sys, dec, control, t)
        worst = max(worst, float(np.abs(y - expm_state(sys, control, t)).max()))
        p_T = rng.standard_normal(8)
        p = adjoint_exact(dec, p_T, t, T)
        worst = max(worst, float(np.abs(p - expm_adjoint(sys, p_T, t, T)).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _criterion(2, ok, f"max dev={worst:.2e} time={elapsed:.2f}s")


def test_criterion_3_optimal_control_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    prob, sol = make_instance(8)
    terminal = solve_terminal(prob)
    y_T_ref, p_T_ref = shooting_terminal(prob)
    shoot_dev = max(float(np.abs(from_modal(prob.dec, terminal.eta_T) - y_T_ref).max()),
                    float(np.abs(terminal.p_T - p_T_ref).max()))
    round_dev = max(float(np.abs(terminal.eta_T - sol.eta_T).max()),
                    float(np.abs(terminal.p_T - sol.p_T).max()))
    Q = build_Q(prob)
    psd_ok = True
    for _ in range(100):
        w = rng.standard_normal(8)
        psd_ok = psd_ok and (w @ Q @ w >= -1e-12 * (w @ w))
    elapsed = time.perf_counter() - start
    ok = shoot_dev <= 1e-8 and round_dev <= 1e-10 and psd_ok and elapsed < 5.0
    _criterion(3, ok, f"shooting={shoot_dev:.2e} roundtrip={round_dev:.2e} "
                      f"psd={psd_ok} time={elapsed:.2f}s")


def test_criterion_4_kkt_residual_benchmark_instance():
    start = time.perf_counter()
    prob, sol = make_instance(250)
    y_T = solve_ivp_exact(prob.sys, prob.dec, sol.control, prob.T)
    dev_state = float(np.abs(y_T - from_modal(prob.dec, sol.eta_T)).max())
    dev_terminal = float(np.abs(sol.p_T - (y_T - prob.y_hat)).max())
    dev_control = 0.0
    for t in np.linspace(0.0, prob.T, 101):
        p = adjoint_exact(prob.dec, sol.p_T, float(t), prob.T)
        dev_control = max(dev_control, abs(
            sol.control.value(float(t)) + prob.sys.gamma / prob.alpha * p[-1]))
    elapsed = time.perf_counter() - start
    ok = max(dev_state, dev_terminal, dev_control) <= 1e-9 and elapsed < 5.0
    _criterion(4, ok, f"state={dev_state:.2e} terminal={dev_terminal:.2e} "
                      f"control={dev_control:.2e} time={elapsed:.2f}s")


def _order_window(series, lo=64, hi=1024):
    return [r.observed_order for r in series
            if lo <= r.N <= hi and r.observed_order is not None]


def test_criterion_5_scenario1_order_study():
    start = time.perf_counter()
    cfg = ExperimentConfig(m_values=(250, 500), methods=ONE_STEP_METHODS,
                           N_values=tuple(2**k for k in range(4, 12)), scenario=1)
    report = run_scenario1(cfg)
    problems = []

    # (a) monotone error decrease for N >= 2^6
    for method in ONE_STEP_METHODS:
        for m in (250, 500):
            for metric in ("yT_err_inf", "p0_err_inf"):
                errs = [r.error for r in _series(report, method, m, metric) if r.N >= 64]
                if not all(b < a for a, b in zip(errs, errs[1:])):
                    problems.append(f"non-monotone {method} m={m} {metric}")

    # (b) order reduction visible at m=250: min state order in [2^6, 2^10] <= 3.0
    min_orders = {}
    for method in ONE_STEP_METHODS:
        orders = _order_window(_series(report, method, 250, "yT_err_inf"))
        min_orders[method] = min(orders)
        if min(orders) > 3.0:
            problems.append(f"no order reduction for {method} (min {min(orders):.2f})")

    # (c) doubling m does not shrink the affected range
    counts = {}
    for method in ONE_STEP_METHODS:
        for m in (250, 500):
            orders = _order_window(_series(report, method, m, "yT_err_inf"))
            counts[(method, m)] = sum(1 for o in orders if o <= 3.0)
        if counts[(method, 500)] < counts[(method, 250)]:
            problems.append(f"affected pairs shrank for {method}: {counts}")

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 120.0
    detail = (f"min orders={ {k: round(v, 2) for k, v in min_orders.items()} } "
              f"affected={ {f'{k[0]}/m{k[1]}': v for k, v in counts.items()} } "
              f"time={elapsed:.1f}s")
    if problems:
        detail += " problems=" + "; ".join(problems)
    _criterion(5, ok, detail)


def test_criterion_6_scenario1_peer_order():
    methods = _ap_methods()
    if not methods:
        _skip(6, "AP4o43bdf/AP4o43dif coefficient files not supplied")
    start = time.perf_counter()
    cfg = ExperimentConfig(m_values=(250,), methods=tuple(m.name for m in methods),
                           N_values=tuple(2**k for k in range(4, 12)), scenario=1)
    report = run_scenario1(cfg)
    problems = []
    for method in (m.name for m in methods):
        for metric in ("yT_err_inf", "p0_err_inf"):
            series = _series(report, method, 250, metric)
            finest = [r.observed_order for r in series[-3:-1]]
            if not all(3.5 <= o <= 4.5 for o in finest):
                problems.append(f"{method} {metric} finest orders {finest}")
    elapsed = time.perf_counter() - start
    _criterion(6, not problems, f"{problems or 'orders in [3.5, 4.5]'} time={elapsed:.1f}s")


def _undamped_fraction(method_name, lam_min, T, N):
    """f(N) = |R(T/N * lam_min)|^N: what N steps leave of the stiffest mode."""
    R = stability_function(get_method(method_name), T / N * lam_min)
    return float(abs(R)) ** N


def test_criterion_7_scenario2_control_orders():
    start = time.perf_counter()
    m = 250
    cfg = ExperimentConfig(m_values=(m,), methods=ONE_STEP_METHODS,
                           N_values=tuple(2**k for k in range(4, 10)), scenario=2,
                           grad_tol=1e-10)
    report = run_scenario2(cfg)
    prob, _ = benchmark_instance(m, cfg.beta0, cfg.beta1, cfg.T, cfg.alpha, cfg.deltas)
    lam_min = float(prob.dec.lambdas.min())
    problems = []
    if "non_converged" in report.metadata:
        problems.append(f"non-converged cells {report.metadata['non_converged']}")
    pairs = {}
    for method in ONE_STEP_METHODS:
        series = _series(report, method, m, "u_nodes_err_inf")
        pairs[method] = []
        in_window = 0
        for r in series[:-1]:
            # pair N -> 2N, with f taken on the finer grid
            f = _undamped_fraction(method, lam_min, cfg.T, 2 * r.N)
            o = r.observed_order
            pair = f"({r.N}, {'blank' if o is None else f'{o:.2f}'}, {f:.2g})"
            pairs[method].append(pair)
            if f >= STIFF_WINDOW:
                in_window += 1
                if o is None or not 0.7 <= o <= 1.5:
                    problems.append(f"{method} pair {pair} not in [0.7, 1.5]")
            elif f < WINDOW_CLOSED and (o is None or o <= 1.5):
                problems.append(f"{method} pair {pair} not > 1.5")
        if in_window < 2:
            problems.append(f"{method} has {in_window} pairs with f >= {STIFF_WINDOW}, "
                            f"needs 2")

    peer_detail = "peer skipped (coefficients not supplied)"
    ap = _ap_methods()
    if ap:
        cfg_peer = ExperimentConfig(m_values=(250,), methods=tuple(m.name for m in ap),
                                    N_values=tuple(2**k for k in range(4, 10)),
                                    scenario=2, grad_tol=1e-10)
        peer_report = run_scenario2(cfg_peer)
        for m_spec in ap:
            series = _series(peer_report, m_spec.name, 250, "u_nodes_err_inf")
            orders = [r.observed_order for r in series[-3:-1]]
            if not all(o is not None and 1.6 <= o <= 2.4 for o in orders):
                problems.append(f"{m_spec.name} finest-pair orders {orders} not in [1.6, 2.4]")
        peer_detail = "peer orders checked"

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 600.0
    listed = " ".join(f"{k}:" + ",".join(v) for k, v in pairs.items())
    detail = f"(N, order, f) pairs {listed} {peer_detail} time={elapsed:.1f}s"
    if problems:
        detail += " problems=" + "; ".join(problems)
    _criterion(7, ok, detail)


def test_criterion_8_gradient_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    prob, _ = make_instance(8)
    names = list(ONE_STEP_METHODS) + ["peer_toy2"] + [m.name for m in _ap_methods()]
    worst = {}
    for name in names:
        method = get_method(name)
        values = rng.standard_normal((16, method.s)) * 0.3
        worst[name] = fd_gradient_check(method, prob, values, 16, rng=rng)
    elapsed = time.perf_counter() - start
    ok = max(worst.values()) <= 1e-5 and elapsed < 10.0
    _criterion(8, ok, f"max rel dev={ {k: f'{v:.1e}' for k, v in worst.items()} } "
                      f"time={elapsed:.1f}s")


def test_criterion_9_determinism():
    def one_round():
        verify_lines = tuple(f"{c.name}|{c.passed}|{c.detail}"
                             for c in run_verification())
        cfg = ExperimentConfig(m_values=(250,), methods=ONE_STEP_METHODS,
                               N_values=tuple(2**k for k in range(4, 12)), scenario=1)
        csv_rows = tuple(ln for ln in render_csv(run_scenario1(cfg)).splitlines()
                         if not ln.startswith("#"))
        return verify_lines, csv_rows

    first, second = one_round(), one_round()
    ok = first == second
    _criterion(9, ok, "verify results and scenario-1 CSV data rows byte-identical"
               if ok else "runs differ")
