import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from heatoc import (
    ExpSumFunction, OcProblem, RobinBC, adjoint_exact, build_Q,
    build_system, decompose, exact_objective, from_modal, objective,
    ones_profile, phi1, solve_ivp_exact, solve_terminal, sparse_target,
)
from heatoc.oracles import (
    expm_adjoint, expm_state, q_quadratic_form, shooting_terminal,
)
from conftest import make_instance

# closed-form objective of the m=250 benchmark instance, pinned beforehand
# against 1e-15 adaptive quadrature of the squared control
BENCH_OBJECTIVE_M250 = 0.017795452594291612
BENCH_OBJECTIVE_M8 = 0.0007326499185834387


# ---------------------------------------------------------------------------
# phi1
# ---------------------------------------------------------------------------

def test_phi1_anchor_values():
    assert phi1(0.0) == 1.0
    assert phi1(1.0) == pytest.approx(math.e - 1.0, rel=1e-15)
    assert phi1(-50.0) == pytest.approx((math.exp(-50) - 1) / (-50), rel=1e-15)


def test_phi1_vectorized_matches_scalar():
    z = np.array([-3.0, -1e-7, 0.0, 1e-9, 0.5, 30.0])
    assert np.array_equal(phi1(z), np.array([phi1(float(x)) for x in z]))


@settings(max_examples=100, deadline=None)
@given(z=st.floats(-700.0, 700.0))
def test_phi1_high_precision(z):
    with mpmath.workdps(50):
        expected = float(mpmath.expm1(z) / z) if z != 0 else 1.0
    assert phi1(z) == pytest.approx(expected, rel=1e-14)


def test_phi1_monotone_increasing():
    z = np.linspace(-200, 200, 4001)
    assert np.all(np.diff(phi1(z)) > 0)


# ---------------------------------------------------------------------------
# exponential sums
# ---------------------------------------------------------------------------

def test_expsum_value_at_horizon_is_coefficient_sum():
    u = ExpSumFunction(np.array([0.3, -1.2, 2.0]), np.array([-5.0, 0.0, 1.5]), 2.0)
    assert u.value(2.0) == pytest.approx(0.3 - 1.2 + 2.0, abs=1e-15)


def test_expsum_zero_function():
    z = ExpSumFunction.zero(1.0)
    assert z.value(0.3) == 0.0
    assert z.squared_integral() == 0.0
    assert np.array_equal(z.value(np.array([0.0, 0.5])), np.zeros(2))


def test_expsum_squared_integral_vs_quadrature():
    u = ExpSumFunction(np.array([1.3, -0.4]), np.array([-6.0, -0.5]), 1.5)
    ref, _ = quad(lambda t: u.value(t) ** 2, 0.0, 1.5, epsabs=1e-14, epsrel=1e-13)
    assert u.squared_integral() == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# exact state and multiplier
# ---------------------------------------------------------------------------

def test_ivp_at_zero_returns_initial_value():
    sys = build_system(RobinBC.dirichlet(), 6, ones_profile)
    dec = decompose(sys)
    u = ExpSumFunction(np.array([2.0]), np.array([-1.0]), 1.0)
    # modal round trip: exact up to orthogonality roundoff
    assert np.abs(solve_ivp_exact(sys, dec, u, 0.0) - sys.psi).max() < 1e-13


def test_ivp_eigenmode_decay():
    sys = build_system(RobinBC.dirichlet(), 6, ones_profile)
    dec = decompose(sys)
    mode = dec.vectors[:, 1]
    sys_mode = dataclasses.replace(sys, psi=mode)
    y = solve_ivp_exact(sys_mode, dec, ExpSumFunction.zero(1.0), 0.4)
    assert np.abs(y - np.exp(dec.lambdas[1] * 0.4) * mode).max() < 1e-13


def test_ivp_against_expm_quadrature_oracle():
    sys = build_system(RobinBC.dirichlet(), 8, ones_profile)
    dec = decompose(sys)
    u = ExpSumFunction(np.array([1.0]), np.array([-1.0]), 1.0)  # u(t) = e^{-(T-t)}
    y = solve_ivp_exact(sys, dec, u, 1.0)
    assert np.abs(y - expm_state(sys, u, 1.0)).max() < 1e-10


def test_ivp_rejects_time_outside_horizon():
    sys = build_system(RobinBC.dirichlet(), 4, ones_profile)
    dec = decompose(sys)
    u = ExpSumFunction.zero(1.0)
    with pytest.raises(ValueError):
        solve_ivp_exact(sys, dec, u, 1.5)
    with pytest.raises(ValueError):
        solve_ivp_exact(sys, dec, u, -0.1)


def test_adjoint_terminal_and_eigenmode(rng):
    sys = build_system(RobinBC.dirichlet(), 8, ones_profile)
    dec = decompose(sys)
    p_T = rng.standard_normal(8)
    assert np.abs(adjoint_exact(dec, p_T, 1.0, 1.0) - p_T).max() < 1e-14
    mode = dec.vectors[:, 2]
    p = adjoint_exact(dec, mode, 0.25, 1.0)
    assert np.abs(p - np.exp(dec.lambdas[2] * 0.75) * mode).max() < 1e-13
    with pytest.raises(ValueError):
        adjoint_exact(dec, p_T, 1.2, 1.0)


def test_adjoint_against_expm_oracle(rng):
    sys = build_system(RobinBC.dirichlet(), 8, ones_profile)
    dec = decompose(sys)
    p_T = rng.standard_normal(8)
    p = adjoint_exact(dec, p_T, 0.3, 1.0)
    assert np.abs(p - expm_adjoint(sys, p_T, 0.3, 1.0)).max() < 1e-11


def test_adjoint_satisfies_backward_flow(rng):
    # d/dt p = -M p, checked by central differences in t
    sys = build_system(RobinBC.dirichlet(), 8, ones_profile)
    dec = decompose(sys)
    p_T = rng.standard_normal(8)
    t, eps = 0.6, 1e-6
    dp = (adjoint_exact(dec, p_T, t + eps, 1.0)
          - adjoint_exact(dec, p_T, t - eps, 1.0)) / (2 * eps)
    Mp = sys.matrix.apply(adjoint_exact(dec, p_T, t, 1.0))
    assert np.abs(dp + Mp).max() <= 1e-4 * np.abs(Mp).max()


# ---------------------------------------------------------------------------
# the optimality system
# ---------------------------------------------------------------------------

def test_Q_exactly_symmetric_and_alpha_scaling(instance8):
    prob, _ = instance8
    Q = build_Q(prob)
    assert np.array_equal(Q, Q.T)
    big = dataclasses.replace(prob, alpha=1e12)
    Qbig = build_Q(big)
    vm = prob.dec.boundary_components
    bound = 1e-6 * prob.sys.gamma**2 * prob.T * np.max(vm**2)
    assert np.abs(Qbig).max() <= bound
    assert np.allclose(Qbig * 1e12, Q, rtol=1e-12)


def test_Q_quadratic_form_vs_quadrature(rng):
    prob, _ = make_instance(6)
    Q = build_Q(prob)
    for _ in range(20):
        w = rng.standard_normal(6)
        ref = q_quadratic_form(prob, w)
        assert w @ Q @ w == pytest.approx(ref, rel=1e-8)


def test_Q_positive_semidefinite_sampled(instance8, rng):
    prob, _ = instance8
    Q = build_Q(prob)
    for _ in range(100):
        w = rng.standard_normal(prob.sys.m)
        assert w @ Q @ w >= -1e-12 * (w @ w)


def test_solve_terminal_uncontrolled_limit():
    # enormous penalty: Q vanishes, eta(T) = decayed eta(0), control ~ 0
    prob, _ = make_instance(6, alpha=1e14)
    sol = solve_terminal(prob)
    dec = prob.dec
    eta_free = np.exp(dec.lambdas * prob.T) * (dec.vectors.T @ prob.sys.psi)
    assert np.abs(sol.eta_T - eta_free).max() < 1e-10
    t = np.linspace(0, prob.T, 11)
    assert np.abs(sol.control.value(t)).max() < 1e-8


def test_solve_terminal_zero_problem():
    sys = build_system(RobinBC.dirichlet(), 5, lambda x: 0.0)
    dec = decompose(sys)
    prob = OcProblem(sys=sys, dec=dec, T=1.0, alpha=1.0, y_hat=np.zeros(5))
    sol = solve_terminal(prob)
    assert np.abs(sol.eta_T).max() == 0.0
    assert np.abs(sol.control.coefficients).max() == 0.0


def test_solve_terminal_vs_shooting_oracle(instance8):
    prob, _ = instance8
    sol = solve_terminal(prob)
    y_T_ref, p_T_ref = shooting_terminal(prob)
    assert np.abs(from_modal(prob.dec, sol.eta_T) - y_T_ref).max() < 1e-8
    assert np.abs(sol.p_T - p_T_ref).max() < 1e-8


def test_solve_terminal_deterministic_and_conditioned(instance8):
    prob, _ = instance8
    a = solve_terminal(prob)
    b = solve_terminal(prob)
    assert np.array_equal(a.eta_T, b.eta_T)
    eigs = np.linalg.eigvalsh(np.eye(prob.sys.m) + build_Q(prob))
    cond = eigs[-1] / eigs[0]
    assert np.isfinite(cond)
    assert cond >= 1.0


def test_kkt_residual_of_terminal_solve(instance8):
    prob, _ = instance8
    sol = solve_terminal(prob)
    y_T = solve_ivp_exact(prob.sys, prob.dec, sol.control, prob.T)
    assert np.abs(y_T - from_modal(prob.dec, sol.eta_T)).max() <= 1e-9
    assert np.abs(sol.p_T - (y_T - prob.y_hat)).max() <= 1e-9
    # control elimination u = -(gamma/alpha) p_m pointwise
    worst = 0.0
    for t in np.linspace(0.0, prob.T, 101):
        p = adjoint_exact(prob.dec, sol.p_T, float(t), prob.T)
        worst = max(worst, abs(sol.control.value(float(t))
                               + prob.sys.gamma / prob.alpha * p[-1]))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# sparse-target construction
# ---------------------------------------------------------------------------

def test_sparse_target_benchmark_instance():
    prob, sol = make_instance(8)
    dec = prob.dec
    expected_p_T = (dec.vectors[:, 0] + dec.vectors[:, 1]) / 75.0
    assert np.abs(sol.p_T - expected_p_T).max() < 1e-15
    # control is the eliminated multiplier trace at the boundary row
    t = np.linspace(0, 1, 7)
    p_m = np.array([adjoint_exact(dec, sol.p_T, float(s), 1.0)[-1] for s in t])
    assert np.allclose(sol.control.value(t), -prob.sys.gamma * p_m, atol=1e-12)


def test_sparse_target_empty_deltas():
    sys = build_system(RobinBC.dirichlet(), 6, ones_profile)
    dec = decompose(sys)
    y_hat, sol = sparse_target(sys, dec, 1.0, 1.0, [])
    assert np.abs(y_hat - adjoint_exact(dec, sys.psi, 0.0, 1.0)).max() < 1e-14
    assert sol.control.squared_integral() == 0.0
    assert np.abs(sol.p_T).max() == 0.0


def test_sparse_target_round_trip(instance8):
    prob, sol = instance8
    resolved = solve_terminal(prob)
    assert np.abs(resolved.eta_T - sol.eta_T).max() <= 1e-10
    assert np.abs(resolved.p_T - sol.p_T).max() <= 1e-10


def test_sparse_target_validates_indices():
    sys = build_system(RobinBC.dirichlet(), 4, ones_profile)
    dec = decompose(sys)
    with pytest.raises(ValueError):
        sparse_target(sys, dec, 1.0, 1.0, [(1, 0.1), (1, 0.2)])
    with pytest.raises(ValueError):
        sparse_target(sys, dec, 1.0, 1.0, [(0, 0.1)])
    with pytest.raises(ValueError):
        sparse_target(sys, dec, 1.0, 1.0, [(5, 0.1)])


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_objective_zero_at_perfect_match(instance8):
    prob, _ = instance8
    u = np.zeros(10)
    w = np.full(10, prob.T / 10)
    assert objective(prob, prob.y_hat, u, w) == 0.0


def test_objective_constant_control():
    prob, _ = make_instance(5, alpha=2.0)
    n = 16
    u = np.ones(n)
    w = np.full(n, prob.T / n)   # exact quadrature of a constant
    assert objective(prob, prob.y_hat, u, w) == pytest.approx(1.0, abs=1e-14)


def test_objective_grid_mismatch(instance8):
    prob, _ = instance8
    with pytest.raises(ValueError):
        objective(prob, prob.y_hat, np.ones(4), np.ones(5))


def test_exact_objective_pinned_values():
    prob8, sol8 = make_instance(8)
    assert exact_objective(prob8, sol8) == pytest.approx(BENCH_OBJECTIVE_M8, rel=1e-12)
    prob250, sol250 = make_instance(250)
    assert exact_objective(prob250, sol250) == pytest.approx(BENCH_OBJECTIVE_M250, rel=1e-12)


def test_exact_objective_against_quadrature():
    prob, sol = make_instance(8)
    track = 0.5 * float(np.sum((from_modal(prob.dec, sol.eta_T) - prob.y_hat) ** 2))
    penalty, _ = quad(lambda t: sol.control.value(t) ** 2, 0.0, prob.T,
                      epsabs=1e-15, epsrel=1e-13)
    assert exact_objective(prob, sol) == pytest.approx(track + 0.5 * penalty, rel=1e-11)
