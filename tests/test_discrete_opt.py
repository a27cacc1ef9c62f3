import ast
import dataclasses
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from heatoc import (
    ConfigError, ExperimentConfig, MolSystem, OcProblem, OptimizerConfig, PeerScheme,
    RobinBC, TridiagonalMatrix, collocation, control_quadrature_weights, discrete_gradient,
    discrete_objective, exact_objective, from_modal, gauss2, get_method, integrate_adjoint,
    integrate_forward, lobatto_iiia, lobatto_iiib, optimize, peer_toy2, stability_function,
)
from heatoc import discrete_opt, integrators
from heatoc.discrete_opt import _irk_propagator, _irk_transposed_step, _terminal_map
from heatoc.integrators import (
    IrkTableau, StageSystemSolver, irk_step, peer_step, solve_shifted,
)
from heatoc.oracles import fd_gradient_check
from conftest import make_instance

METHODS = ("gauss2", "lobatto3", "peer_toy2")


def test_quadrature_weights():
    assert np.array_equal(control_quadrature_weights(gauss2()), [0.5, 0.5])
    assert np.array_equal(control_quadrature_weights(get_method("lobatto3")),
                          [1 / 6, 2 / 3, 1 / 6])
    assert np.allclose(control_quadrature_weights(peer_toy2()), [0.75, 0.25])


def test_nonpositive_weights_rejected():
    # nodes (3/4, 1) induce the weights (2, -1): not usable for the penalty
    scheme = PeerScheme(name="badquad", c=np.array([0.75, 1.0]),
                        B=np.array([[0.0, 1.0], [0.0, 1.0]]),
                        A=np.zeros((2, 2)),
                        R=np.array([[0.25, 0.0], [0.5, 0.25]]))
    with pytest.raises(ConfigError):
        control_quadrature_weights(scheme)


@pytest.mark.parametrize("name", METHODS)
def test_gradient_matches_finite_differences(name, rng):
    prob, _ = make_instance(8)
    method = get_method(name)
    values = rng.standard_normal((16, method.forward.s)) * 0.3
    assert fd_gradient_check(method, prob, values, 16, rng=rng) <= 1e-5


@pytest.mark.parametrize("name", METHODS)
def test_gradient_with_decoupled_control(name, rng):
    # gamma = 0 removes the state coupling: gradient is the pure penalty term
    prob, _ = make_instance(6)
    sys0 = dataclasses.replace(prob.sys, gamma=0.0)
    prob0 = OcProblem(sys=sys0, dec=prob.dec, T=prob.T, alpha=prob.alpha,
                      y_hat=prob.y_hat)
    method = get_method(name)
    N = 8
    h = prob.T / N
    values = rng.standard_normal((N, method.forward.s))
    grad = discrete_gradient(method, prob0, values, N)
    w = control_quadrature_weights(method)
    assert np.array_equal(grad, prob0.alpha * h * w[None, :] * values)


def test_objective_zero_control(instance8):
    prob, _ = instance8
    N = 8
    u0 = np.zeros((N, 2))
    y_T = integrate_forward(gauss2(), prob.sys, None, N, prob.T)
    expected = 0.5 * np.sum((y_T - prob.y_hat) ** 2)
    assert discrete_objective(gauss2(), prob, u0, N) == pytest.approx(expected, rel=1e-14)


def test_objective_penalty_scales_with_alpha(rng):
    prob, _ = make_instance(6)
    prob2 = OcProblem(sys=prob.sys, dec=prob.dec, T=prob.T, alpha=2 * prob.alpha,
                      y_hat=prob.y_hat)
    N = 8
    u = rng.standard_normal((N, 2))
    u0 = np.zeros((N, 2))
    c1 = discrete_objective(gauss2(), prob, u, N)
    c2 = discrete_objective(gauss2(), prob2, u, N)
    # doubling alpha exactly doubles the control term (tracking part differs
    # only through the same forward map, which ignores alpha)
    h = prob.T / N
    penalty = 0.5 * prob.alpha * h * np.sum(control_quadrature_weights(gauss2()) * u**2)
    assert c2 - c1 == pytest.approx(penalty, rel=1e-12)
    assert discrete_objective(gauss2(), prob, u0, N) == \
        pytest.approx(discrete_objective(gauss2(), prob2, u0, N), rel=1e-15)


def test_objective_approaches_exact_value_quadratically():
    prob, sol = make_instance(8)
    c_star = exact_objective(prob, sol)
    errs = []
    for N in (64, 128, 256):
        times = (np.arange(N)[:, None] + gauss2().c[None, :]) * (prob.T / N)
        u = sol.control.value(times.ravel()).reshape(N, 2)
        errs.append(abs(discrete_objective(gauss2(), prob, u, N) - c_star))
    assert errs[0] / errs[1] >= 3.0
    assert errs[1] / errs[2] >= 3.0


def test_objective_grid_mismatch(instance8):
    prob, _ = instance8
    with pytest.raises(ValueError):
        discrete_objective(gauss2(), prob, np.zeros((8, 3)), 8)


def test_stationary_start_converges_immediately():
    prob, _ = make_instance(4)
    N = 8
    y_free = integrate_forward(gauss2(), prob.sys, None, N, prob.T)
    prob_stationary = OcProblem(sys=prob.sys, dec=prob.dec, T=prob.T,
                                alpha=prob.alpha, y_hat=y_free)
    result = optimize(gauss2(), prob_stationary, OptimizerConfig(), N)
    assert result.converged
    # y_free comes from the terminal-map loop, y_hat from a forward sweep:
    # they differ by roundoff only
    assert np.abs(result.control.values).max() <= 1e-15


def test_optimum_matches_brute_force_normal_equations():
    prob, _ = make_instance(4)
    N, s = 8, 2
    dim = N * s

    def obj_flat(u):
        return discrete_objective(gauss2(), prob, u.reshape(N, s), N)

    e = np.eye(dim)
    c0 = obj_flat(np.zeros(dim))
    lin = np.array([(obj_flat(e[i]) - obj_flat(-e[i])) / 2 for i in range(dim)])
    H = np.empty((dim, dim))
    for i in range(dim):
        for j in range(dim):
            H[i, j] = obj_flat(e[i] + e[j]) - obj_flat(e[i]) - obj_flat(e[j]) + c0
    u_direct = np.linalg.solve(H, -lin).reshape(N, s)
    result = optimize(gauss2(), prob, OptimizerConfig(grad_tol=1e-13), N)
    assert np.abs(result.control.values - u_direct).max() <= 1e-8


def test_benchmark_control_error_decreases_with_refinement():
    # m=250 cell of the coupled study: error finite and smaller when N doubles
    prob, sol = make_instance(250)
    cfg = OptimizerConfig(grad_tol=1e-10)
    errs = [optimize(get_method("gauss2"), prob, cfg, N,
                     exact_control=sol.control).control_error
            for N in (64, 128)]
    assert np.isfinite(errs[0]) and np.isfinite(errs[1])
    assert errs[1] < errs[0]


def test_optimize_records_control_error():
    prob, sol = make_instance(8)
    cfg = OptimizerConfig(grad_tol=1e-11)
    result = optimize(gauss2(), prob, cfg, 16, exact_control=sol.control)
    assert result.control_error is not None
    assert 0 < result.control_error < 0.2
    assert result.converged and result.gradient_norm <= cfg.grad_tol
    assert result.control.node_times().shape == (16, 2)


def test_peer_optimize_rejects_a_single_step():
    prob, _ = make_instance(8)
    with pytest.raises(ValueError, match="N = 2"):
        optimize(peer_toy2(), prob, OptimizerConfig(), 1)


ENTRY_POINTS = {
    "integrate_forward": lambda method, prob, N: integrate_forward(
        method, prob.sys, None, N, prob.T),
    "integrate_adjoint": lambda method, prob, N: integrate_adjoint(
        method, prob.sys, prob.y_hat, N, prob.T),
    "discrete_objective": lambda method, prob, N: discrete_objective(
        method, prob, np.zeros((max(N, 0), method.forward.s)), N),
    "discrete_gradient": lambda method, prob, N: discrete_gradient(
        method, prob, np.zeros((max(N, 0), method.forward.s)), N),
    "optimize": lambda method, prob, N: optimize(method, prob, OptimizerConfig(), N),
}


@pytest.mark.parametrize("name, N", [("gauss2", 0), ("gauss2", -1), ("peer_toy2", 0),
                                     ("peer_toy2", -1), ("peer_toy2", 1)])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_too_few_steps(entry, name, N, instance8):
    # checked before h = T / N, so N = 0 is no ZeroDivisionError
    least = 2 if name == "peer_toy2" else 1
    with pytest.raises(ValueError, match=f"at least N = {least} steps, got N = {N}"):
        ENTRY_POINTS[entry](get_method(name), instance8[0], N)


def test_config_validation():
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            OptimizerConfig(grad_tol=tol)
    # the CG-era fields of ExperimentConfig are ignored by the solve but
    # still checked, so a mistyped config is rejected
    with pytest.raises(ConfigError):
        ExperimentConfig(m_values=(4,), max_iterations=-1).validate()
    assert ExperimentConfig(m_values=(4,), max_iterations=0).validate().max_iterations == 0
    with pytest.raises(ConfigError):
        ExperimentConfig(m_values=(4,), algorithm="newton").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(m_values=(4,), algorithm="gd").validate()


def test_converged_flag_reports_true_gradient():
    # the flag and gradient_norm follow the gradient recomputed matrix-free
    # at the returned control
    prob, _ = make_instance(250)
    method = get_method("lobatto3")
    N = 32
    cfg = OptimizerConfig(grad_tol=1e-10)
    result = optimize(method, prob, cfg, N)
    true_norm = float(np.abs(discrete_gradient(method, prob, result.control.values,
                                               N)).max())
    assert result.converged
    assert result.converged == (true_norm <= cfg.grad_tol)
    assert result.gradient_norm == true_norm


@pytest.mark.parametrize("grad_tol", [1e-18, 1e-300])
def test_grad_tol_below_the_roundoff_floor_is_not_converged(grad_tol):
    # grad_tol below the roundoff floor: the certificate cannot meet it, so
    # the result is flagged non-converged and reports the true gradient
    prob, _ = make_instance(8)
    method = get_method("gauss2")
    N = 8
    cfg = OptimizerConfig(grad_tol=grad_tol)
    result = optimize(method, prob, cfg, N)
    true_norm = float(np.abs(discrete_gradient(method, prob, result.control.values,
                                               N)).max())
    assert not result.converged
    assert result.gradient_norm == true_norm


def test_grad_tol_does_not_change_the_control():
    # the direct solve returns the discrete optimum; grad_tol only sets the flag
    prob, _ = make_instance(250)
    method = get_method("gauss2")
    loose = optimize(method, prob, OptimizerConfig(grad_tol=1e-10), 256)
    strict = optimize(method, prob, OptimizerConfig(grad_tol=1e-300), 256)
    assert loose.converged and not strict.converged
    assert np.array_equal(loose.control.values, strict.control.values)
    assert loose.gradient_norm == strict.gradient_norm


def test_small_grid_certified_gradients():
    prob, _ = make_instance(250)
    for name in METHODS:
        for N in (16, 32, 64):
            result = optimize(get_method(name), prob, OptimizerConfig(), N)
            assert result.gradient_norm <= 1e-11, (name, N, result.gradient_norm)


@pytest.mark.parametrize("name", METHODS)
@pytest.mark.parametrize("N", [2, 3, 16])
def test_terminal_map_matches_forward_sweep(name, N, rng):
    # y_T = y_free + J u, with J built once from unit steps, reproduces the
    # sweep; for Peer this covers the start step feeding u_0 and the last
    # control row, which enters y_T through one stage solve only
    prob, _ = make_instance(8)
    scheme = get_method(name).forward
    u = rng.standard_normal((N, scheme.s))
    Jt, y_free = _terminal_map(scheme, prob.sys, prob.T / N, N)
    y_T = integrate_forward(scheme, prob.sys, u, N, prob.T)
    assert np.abs(y_free + u.ravel() @ Jt - y_T).max() <= 1e-12 * np.abs(y_T).max()


def reference_terminal_map(scheme, sys, h, N):
    """(J^T, y_free) from single steps: IRK through a propagator built one
    unit vector at a time, Peer by stepping each of its 2 s + 1 blocks alone."""
    m, s = sys.m, scheme.s
    units, zero_g = np.eye(s), np.zeros(s)
    Jt = np.empty((N, s, m))
    if isinstance(scheme, IrkTableau):
        solver = StageSystemSolver(scheme.A, h, sys.matrix)
        R = np.column_stack([irk_step(scheme, sys, h, e, zero_g, solver)[0]
                             for e in np.eye(m)])
        Z = np.column_stack([irk_step(scheme, sys, h, np.zeros(m), g, solver)[0]
                             for g in units])
        free = sys.psi
        for n in range(N - 1, -1, -1):
            Jt[n] = Z.T
            Z = R @ Z
            free = R @ free
        return Jt.reshape(N * s, m), free

    start = scheme.start_tableau

    def last_stages(block, k):
        """Last stages of P^i block, i = 0..k - 1, and P^k block itself;
        homogeneous single steps carrying F."""
        rows, F = [], None
        for _ in range(k):
            rows.append(block[-1])
            block, F = peer_step(scheme, sys, h, block, None, None, F)
        return rows, block

    for j, g in enumerate(units):
        G_cur, F_cur = peer_step(scheme, sys, h, np.zeros((s, m)), zero_g, g)
        Jt[N - 1, j] = G_cur[-1]
        # g_n for 0 < n < N - 1 reaches y_T as the last stage of P^(N-2-n) H
        H = peer_step(scheme, sys, h, G_cur, g, zero_g, F_cur)[0]
        for n, row in zip(range(N - 2, 0, -1), last_stages(H, N - 2)[0]):
            Jt[n, j] = row
        # g_0 reaches y_T as the last stage of P^(N-2) H_0
        W = irk_step(start, sys, h, np.zeros(m), g)[1]
        H_0 = peer_step(scheme, sys, h, W, g, zero_g)[0]
        Jt[0, j] = last_stages(H_0, N - 2)[1][-1]
    Y_0 = irk_step(start, sys, h, sys.psi, zero_g)[1]
    free = last_stages(peer_step(scheme, sys, h, Y_0, zero_g, zero_g)[0], N - 2)[1][-1]
    return Jt.reshape(N * s, m), free


def column_by_column_irk_terminal_map(tab, sys, h, N):
    """(J^T, y_free) of an IRK tableau with each column of [V; psi] stepped
    alone by ``_irk_propagator``."""
    solver = StageSystemSolver(tab.A, h, sys.matrix)
    propagate = _irk_propagator(tab, solver)
    columns = [irk_step(tab, sys, h, np.zeros(sys.m), g, solver)[0] for g in np.eye(tab.s)]
    columns.append(sys.psi)
    Jt = np.empty((N, tab.s, sys.m))
    for n in range(N - 1, -1, -1):
        Jt[n] = columns[:-1]
        columns = [propagate(column) for column in columns]
    return Jt.reshape(N * tab.s, sys.m), columns[-1]


def dense_propagator_terminal_map(scheme, sys, h, N):
    """(J^T, y_free) of a Peer scheme through the dense (s m)^2 propagator P.

    Y_n = P Y_{n-1} + G_prev g_{n-1} + G_cur g_n with Y_0 = S psi + W g_0,
    every operator built from single steps on unit vectors; J^T follows by
    products with P.
    """
    m, s = sys.m, scheme.s
    units, zero_g = np.eye(s), np.zeros(s)
    Jt = np.empty((N, s, m))

    def step(block, g_prev, g_cur):
        return peer_step(scheme, sys, h, block, g_prev, g_cur)[0].ravel()

    zero_block = np.zeros((s, m))
    start = scheme.start_tableau
    P = np.column_stack([step(e.reshape(s, m), zero_g, zero_g) for e in np.eye(s * m)])
    G_prev = np.column_stack([step(zero_block, g, zero_g) for g in units])
    G_cur = np.column_stack([step(zero_block, zero_g, g) for g in units])
    W = np.column_stack([irk_step(start, sys, h, np.zeros(m), g)[1].ravel()
                         for g in units])
    free = P @ irk_step(start, sys, h, sys.psi, zero_g)[1].ravel()
    last = slice((s - 1) * m, s * m)
    Jt[N - 1] = G_cur[last].T
    Z = np.hstack([P @ G_cur + G_prev, P @ W + G_prev])
    for n in range(N - 2, 0, -1):
        Jt[n] = Z[last, :s].T
        Z = P @ Z
        free = P @ free
    Jt[0] = Z[last, s:].T
    return Jt.reshape(N * s, m), free[last]


def row_times(wb, A):
    """wb @ A for one row wb, summed over j in increasing order, one product
    and one add per term: the order the bitwise contract fixes."""
    acc = wb[0] * A[0]
    for j in range(1, A.shape[0]):
        acc = acc + wb[j] * A[j]
    return acc


def reference_irk_backward(tab, prob, values, N, y_T):
    """Transposed IRK sweep assembling the gradient step by step; returns
    (gradient, grid multipliers lambda_0..lambda_N)."""
    sys = prob.sys
    h = prob.T / N
    bvec = sys.forcing_vector
    w = control_quadrature_weights(tab)
    solver_t = StageSystemSolver(tab.A.T, h, sys.matrix)
    lam = y_T - prob.y_hat
    multipliers = np.empty((N + 1, sys.m))
    multipliers[N] = lam
    grad = np.empty_like(values)
    for n in range(N - 1, -1, -1):
        rhs = h * np.outer(tab.b, sys.matrix.apply(lam))
        W = solver_t.solve_stacked(rhs)
        grad[n] = prob.alpha * h * w * values[n] \
            + h * row_times(W @ bvec, tab.A) + h * tab.b * (lam @ bvec)
        lam = lam + W.sum(axis=0)
        multipliers[n] = lam
    return grad, multipliers


def stepwise_irk_backward(tab, prob, values, N, y_T):
    """The steps of ``_irk_transposed_step`` with the gradient assembled step
    by step, in the order the bitwise contract fixes."""
    sys = prob.sys
    h = prob.T / N
    step = _irk_transposed_step(tab, h, sys)
    w = control_quadrature_weights(tab)
    lam = y_T - prob.y_hat
    grad = np.empty_like(values)
    for n in range(N - 1, -1, -1):
        w_last, lam_next = step(lam)
        grad[n] = prob.alpha * h * w * values[n] \
            + h * row_times(w_last * sys.gamma, tab.A) + h * tab.b * (lam[-1] * sys.gamma)
        lam = lam_next
    return grad


def reference_peer_backward(scheme, prob, values, N, y_T):
    """Transposed Peer sweep (collocation start) assembling the gradient step
    by step; returns (gradient, stage multipliers W_0..W_{N-1})."""
    sys = prob.sys
    h = prob.T / N
    bvec = sys.forcing_vector
    w = control_quadrature_weights(scheme)
    s = scheme.s
    grad = prob.alpha * h * w[None, :] * values
    duals = np.empty((N, s, sys.m))
    G = np.zeros((s, sys.m))
    G[-1] = y_T - prob.y_hat
    for n in range(N - 1, 0, -1):
        W = np.empty_like(G)
        MW = np.empty_like(G)
        for i in range(s - 1, -1, -1):
            rhs = G[i].copy()
            for j in range(i + 1, s):
                rhs += h * scheme.R[j, i] * MW[j]
            W[i] = solve_shifted(h * scheme.R[i, i], sys.matrix, rhs)
            MW[i] = sys.matrix.apply(W[i])
        duals[n] = W
        wb = W @ bvec
        grad[n] += h * row_times(wb, scheme.R)
        grad[n - 1] += h * row_times(wb, scheme.A)
        G = scheme.B.T @ W + h * (scheme.A.T @ MW)
    tab = scheme.start_tableau
    W0 = StageSystemSolver(tab.A.T, h, sys.matrix).solve_stacked(G)
    duals[0] = W0
    grad[0] += h * row_times(W0 @ bvec, tab.A)
    return grad, duals


def reference_gradient(scheme, prob, values, N):
    """(gradient, multipliers) of the reference transposed sweeps."""
    y_T = integrate_forward(scheme, prob.sys, values, N, prob.T)
    backward = (reference_irk_backward if isinstance(scheme, IrkTableau)
                else reference_peer_backward)
    return backward(scheme, prob, values, N, y_T)


@pytest.mark.parametrize("name", METHODS)
@pytest.mark.parametrize("m", [8, 70])
@pytest.mark.parametrize("N", [2, 3, 16])           # h = 1/3 is not a power of two
def test_gradient_bitwise_equals_step_by_step_reference(name, m, N, rng):
    # Peer against the transposed F-form sweep; IRK against its own pole
    # steps with the gradient assembled per step, so the fixed-order sums
    # are checked under the Haswell kernel too
    prob, _ = make_instance(m)
    scheme = get_method(name).forward
    values = rng.standard_normal((N, scheme.s))
    if isinstance(scheme, IrkTableau):
        y_T = integrate_forward(scheme, prob.sys, values, N, prob.T)
        ref = stepwise_irk_backward(scheme, prob, values, N, y_T)
    else:
        ref = reference_gradient(scheme, prob, values, N)[0]
    assert np.array_equal(discrete_gradient(scheme, prob, values, N), ref)


@pytest.mark.parametrize("name", ["gauss2", "lobatto3"])
@pytest.mark.parametrize("m", [2, 3, 8, 70])
@pytest.mark.parametrize("N", [2, 3, 16])
def test_irk_gradient_matches_the_f_form_reference(name, m, N, rng):
    # one solve per conjugate pair against solve_stacked over all s shifts:
    # two groupings of the same transposed stage system, which differ by
    # roundoff (up to 4.9e-13 of the max-norm, measured at m = 70)
    prob, _ = make_instance(m)
    scheme = get_method(name).forward
    values = rng.standard_normal((N, scheme.s))
    ref = reference_gradient(scheme, prob, values, N)[0]
    gap = np.abs(discrete_gradient(scheme, prob, values, N) - ref).max()
    assert gap <= 5e-12 * np.abs(ref).max()


def _haswell_kernel_unavailable() -> str | None:
    """Why OPENBLAS_CORETYPE=Haswell cannot be forced here, or None."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "numpy does not report its BLAS"
    if "openblas" not in blas.lower():
        return f"numpy's BLAS is {blas}, not OpenBLAS"
    try:
        cpu = Path("/proc/cpuinfo").read_text()
    except OSError:
        return "no /proc/cpuinfo"
    if " avx2" not in cpu:
        return "the CPU has no AVX2, so the Haswell kernel would crash"
    return None


def test_bitwise_contracts_hold_under_the_haswell_blas_kernel():
    # the bitwise tests, rerun in a child that forces OpenBLAS's AVX2 kernel;
    # only the child's environment changes
    reason = _haswell_kernel_unavailable()
    if reason:
        pytest.skip(reason)
    import heatoc
    src = str(Path(heatoc.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-k", "bitwise and not blas_kernel", str(Path(__file__).parent)],
        env=env, capture_output=True, text=True, timeout=600)
    summary = child.stdout.strip().splitlines()[-1:]
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[-2000:]
    assert "passed" in summary[0] and "failed" not in summary[0], summary


@pytest.mark.parametrize("name", METHODS)
@pytest.mark.parametrize("m", [2, 3, 8, 70])        # m < 3: solves without ?gttrf factors
def test_terminal_map_bitwise_equals_column_by_column_build(name, m):
    # Peer against single steps of each block; IRK with each column of
    # [V; psi] stepped alone by the same partial-fraction propagator
    prob, _ = make_instance(m)
    scheme = get_method(name).forward
    build = (column_by_column_irk_terminal_map if isinstance(scheme, IrkTableau)
             else reference_terminal_map)
    for N in (2, 3, 16):
        h = prob.T / N
        Jt, y_free = _terminal_map(scheme, prob.sys, h, N)
        ref_Jt, ref_free = build(scheme, prob.sys, h, N)
        assert np.array_equal(Jt, ref_Jt), N
        assert np.array_equal(y_free, ref_free), N


@pytest.mark.parametrize("name", ["gauss2", "lobatto3"])
@pytest.mark.parametrize("m", [2, 3, 8, 70])
def test_irk_terminal_map_matches_the_f_form_reference(name, m):
    # R(hM) in partial fractions against the dense R built from unit steps:
    # up to 6.0e-13 of the max-norm in J^T and 1.3e-12 in y_free, measured
    # at m = 70
    prob, _ = make_instance(m)
    scheme = get_method(name).forward
    for N in (2, 3, 16):
        h = prob.T / N
        Jt, y_free = _terminal_map(scheme, prob.sys, h, N)
        ref_Jt, ref_free = reference_terminal_map(scheme, prob.sys, h, N)
        assert np.abs(Jt - ref_Jt).max() <= 5e-12 * np.abs(ref_Jt).max(), N
        assert np.abs(y_free - ref_free).max() <= 5e-12 * np.abs(ref_free).max(), N


@pytest.mark.parametrize("name", METHODS)
@pytest.mark.parametrize("N", [16, 256])
def test_terminal_map_matches_forward_sweep_at_the_benchmark_size(name, N, rng):
    # m = 250 as in s2-grid.  Over 20 controls the IRK maps read up to
    # 1.4e-11 of the max-norm at N = 16 and 2.5e-12 at N = 256, and the dense
    # propagator they replace up to 1.7e-11: the forward F-form sweep's own
    # roundoff, which grows with h |lambda_max|.  Peer reads up to 8.7e-15.
    prob, _ = make_instance(250)
    scheme = get_method(name).forward
    u = rng.standard_normal((N, scheme.s))
    Jt, y_free = _terminal_map(scheme, prob.sys, prob.T / N, N)
    y_T = integrate_forward(scheme, prob.sys, u, N, prob.T)
    assert np.abs(y_free + u.ravel() @ Jt - y_T).max() <= 5e-11 * np.abs(y_T).max()


@pytest.mark.parametrize("m", [2, 3, 8, 70])
@pytest.mark.parametrize("N", [2, 3, 16])
def test_peer_terminal_map_matches_dense_propagator_build(m, N):
    # the stepped stack and the dense (s m)^2 propagator are two groupings
    # of the same linear map; they agree up to roundoff
    prob, _ = make_instance(m)
    scheme = peer_toy2()
    h = prob.T / N
    Jt, y_free = _terminal_map(scheme, prob.sys, h, N)
    dense_Jt, dense_free = dense_propagator_terminal_map(scheme, prob.sys, h, N)
    assert np.abs(Jt - dense_Jt).max() <= 1e-13 * np.abs(dense_Jt).max()
    assert np.abs(y_free - dense_free).max() <= 1e-13 * np.abs(dense_free).max()


@pytest.mark.parametrize("name", METHODS)
@pytest.mark.parametrize("m", [8, 70])
@pytest.mark.parametrize("N", [2, 3, 16])           # N = 2: Peer runs no loop step
def test_terminal_map_y_free_matches_zero_control_sweep(name, m, N):
    # R^N psi in partial fractions and by N F-form steps differ by roundoff
    # that grows with h |lambda_max|: up to 1.3e-12 relative at m = 70
    prob, _ = make_instance(m)
    scheme = get_method(name).forward
    _, y_free = _terminal_map(scheme, prob.sys, prob.T / N, N)
    ref = integrate_forward(scheme, prob.sys, None, N, prob.T)
    assert np.abs(y_free - ref).max() <= 5e-12 * np.abs(ref).max()


def terminal_map_peak(scheme, m, N):
    """(tracemalloc peak of ``_terminal_map``, bytes of its J^T)."""
    prob, _ = make_instance(m)
    tracemalloc.start()
    try:
        Jt, _ = _terminal_map(scheme, prob.sys, prob.T / N, N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, Jt.nbytes


@pytest.mark.parametrize("name", METHODS)
def test_terminal_map_temporaries_stay_near_the_result(name):
    # m = 250, N = 256: the result is N s m floats.  The IRK map steps an
    # (s + 1, m) stack and the Peer map one of 2 s + 1 blocks, so each peak
    # stays at 1.04-1.22 results; the dense IRK propagator it replaced
    # reached 3.4-3.7
    peak, nbytes = terminal_map_peak(get_method(name).forward, 250, 256)
    assert peak < 2 * nbytes


def test_peer_terminal_map_holds_no_propagator():
    # m = 250, N = 256: the stepped stack of 2 s + 1 blocks keeps the peak
    # at 1.2 results, where an (s m)^2 propagator alone would take 1.95
    peak, nbytes = terminal_map_peak(peer_toy2(), 250, 256)
    assert peak < 2 * nbytes


def radau_iia():
    """The 3-stage Radau IIA tableau: one real pole and one conjugate pair."""
    r = np.sqrt(6.0)
    return collocation(np.array([(4 - r) / 10, (4 + r) / 10, 1.0]), name="radau_iia")


def exact_stability_function(tab, z):
    """R(z) = 1 + z b^T (I - z A)^-1 1 of the stored tableau, in exact
    rational arithmetic."""
    s, z = tab.s, Fraction(z)
    rows = [[int(i == j) - z * Fraction(tab.A[i, j]) for j in range(s)] + [Fraction(1)]
            for i in range(s)]
    for k in range(s):                          # Gauss-Jordan elimination
        pivot = next(i for i in range(k, s) if rows[i][k] != 0)
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(s):
            if i != k:
                f = rows[i][k] / rows[k][k]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    return 1 + z * sum(Fraction(tab.b[i]) * rows[i][s] / rows[i][i] for i in range(s))


@pytest.mark.parametrize("tableau", [gauss2, lobatto_iiia, lobatto_iiib, radau_iia])
def test_stability_function_keeps_its_digits_at_large_z(tableau):
    # a float solve of (I - z A) x = 1 loses digits to an explicit stage as
    # |z| grows (1.3e-12 for Lobatto IIIA at z = -1e5, 6.5e-10 at -1e8);
    # measured within 4.4e-15 of the rationals here
    tab = tableau()
    for z in (-0.5, -10.0, -370.0, -1e3, -1e5, -1e8):
        assert abs(stability_function(tab, z) - float(exact_stability_function(tab, z))) <= 1e-14


STIFF_Z = (-0.5, -10.0, -1e3, -1e5)


@pytest.mark.parametrize("tableau, weights", [
    (gauss2, [2.0]), (lobatto_iiia, [2.0]), (lobatto_iiib, [2.0]), (radau_iia, [2.0, 1.0]),
])
def test_stage_poles_reproduce_the_stability_function(tableau, weights, monkeypatch):
    # On a diagonal M with entries z and h = 1 the map's propagator gives
    # R(z) y, and the transposed step lam + W^T 1 = R(z) lam (M symmetric).
    # Each makes one solve per conjugate pair or real shift, none for a zero
    # one.  |R| <= 1 here, so the bound is absolute; the transposed step
    # also carries h M lam, of size |z|, into the zero-shift term of
    # Lobatto IIIA and IIIB, whose weight is roundoff (5.6e-17 for IIIA),
    # which is why its bound grows with |z|: measured 5.6e-12 at z = -1e5
    tab = tableau()
    solves = []
    zgttrs = integrators.zgttrs
    monkeypatch.setattr(integrators, "zgttrs",
                        lambda *args, **kw: solves.append(1) or zgttrs(*args, **kw))
    matrices = [TridiagonalMatrix(np.array(STIFF_Z), np.zeros(3))]            # factored
    matrices += [TridiagonalMatrix(np.array([z]), np.zeros(0)) for z in STIFF_Z]
    for matrix in matrices:
        z, ones = matrix.diagonal, np.ones(matrix.m)
        sys = MolSystem(m=matrix.m, bc=RobinBC.dirichlet(), gamma=1.0, grid=ones,
                        psi=ones, matrix=matrix)
        for K in (tab.A, tab.A.T):
            poles = StageSystemSolver(K, 1.0, matrix).poles
            assert [w for _, w, solve in poles if solve is not None] == weights
        solves.clear()
        forward = _irk_propagator(tab, StageSystemSolver(tab.A, 1.0, matrix))(ones)
        transposed = _irk_transposed_step(tab, 1.0, sys)(ones)[1]
        assert len(solves) == (2 * len(weights) if matrix.m >= 3 else 0)
        exact = np.array([float(exact_stability_function(tab, zk)) for zk in z])
        assert np.abs(forward - exact).max() <= 1e-13
        assert np.all(np.abs(transposed - exact) <= 1e-13 + 1e-16 * np.abs(z))
        float_R = np.array([stability_function(tab, zk).real for zk in z])
        assert np.abs(forward - float_R).max() <= 1e-13


@pytest.mark.parametrize("name", METHODS)
def test_certificate_does_not_share_the_terminal_map(name, monkeypatch):
    # the certificate's forward F-form sweep and transposed sweep do not read
    # J: a map with one entry off by 1e-6 relative yields a control they reject
    prob, _ = make_instance(70)
    method, N, cfg = get_method(name), 16, OptimizerConfig()
    assert optimize(method, prob, cfg, N).converged
    terminal_map = discrete_opt._terminal_map

    def perturbed(*args):
        Jt, y_free = terminal_map(*args)
        Jt[np.unravel_index(np.abs(Jt).argmax(), Jt.shape)] *= 1 + 1e-6
        return Jt, y_free

    monkeypatch.setattr(discrete_opt, "_terminal_map", perturbed)
    result = optimize(method, prob, cfg, N)
    assert not result.converged and result.gradient_norm > cfg.grad_tol


@pytest.mark.parametrize("name, stage_rate", [("gauss2", 3.0), ("lobatto3", 2.0)])
def test_discrete_optimality_system_order_when_nonstiff(name, stage_rate):
    # Hager (Numer. Math. 87, 2000): the discrete optimality system is the
    # partitioned Runge-Kutta pair (A, b) / (abar, b) with
    # abar_ij = b_j - b_j a_ji / b_i applied to the continuous one.  That
    # adjoint tableau is the method's own adjoint scheme (Gauss-2 itself,
    # Lobatto IIIB for IIIA), and both pairs have order 4.  On a non-stiff
    # instance (m = 4, h |lambda_min| <= 2) the terminal state and the control
    # at the grid nodes, -b^T lambda_n / alpha, therefore converge with order
    # 4, while the stage-node control follows the adjoint stages, whose stage
    # order q (2 for Gauss-2, 1 for IIIB) limits it to order q + 1.
    method = get_method(name)
    A, b = method.forward.A, method.forward.b
    abar = b[None, :] - b[None, :] * A.T / b[:, None]
    assert np.abs(abar - method.adjoint.A).max() <= 1e-15

    prob, sol = make_instance(4)
    y_T_exact = from_modal(prob.dec, sol.eta_T)
    cfg = OptimizerConfig(grad_tol=1e-14)
    errs = {"y_T": [], "grid-node control": [], "stage-node control": []}
    for N in (32, 64, 128):
        result = optimize(method, prob, cfg, N, exact_control=sol.control)
        assert result.converged
        t_n = np.arange(N + 1) * (prob.T / N)
        _, multipliers = reference_gradient(method.forward, prob, result.control.values, N)
        u_n = -(multipliers @ prob.sys.forcing_vector) / prob.alpha
        y_T = integrate_forward(method, prob.sys, result.control.values, N, prob.T)
        errs["y_T"].append(np.abs(y_T - y_T_exact).max())
        errs["grid-node control"].append(np.abs(u_n - sol.control(t_n)).max())
        errs["stage-node control"].append(result.control_error)
    rates = {"y_T": 4.0, "grid-node control": 4.0, "stage-node control": stage_rate}
    for key, e in errs.items():
        orders = [np.log2(a / c) for a, c in zip(e, e[1:])]
        assert all(abs(o - rates[key]) <= 0.5 for o in orders), (key, orders)


def test_discrete_opt_imports_nothing_from_exact_oc_at_run_time():
    # the closed-form layer judges the discrete one; OcProblem is only an annotation
    tree = ast.parse(Path(discrete_opt.__file__).read_text())
    guarded = {id(node) for stmt in tree.body
               if isinstance(stmt, ast.If) and ast.unparse(stmt.test) == "TYPE_CHECKING"
               for node in ast.walk(stmt)}
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0
                and id(node) not in guarded}
    assert relative == {"heat_mol", "integrators"}
