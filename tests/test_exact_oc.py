import copy
import dataclasses
import math
import pickle
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, quad_vec

from heatoc import (
    ConfigError, ExpSumFunction, OcProblem, RobinBC, adjoint_exact, build_Q,
    build_system, decompose, exact_objective, from_modal, objective,
    ones_profile, phi1, solve_ivp_exact, solve_terminal, sparse_target,
)
from heatoc import exact_oc, spectrum
from heatoc.oracles import (
    dense_matrix, expm_adjoint, expm_state, shooting_terminal,
)
from conftest import BENCH_DELTAS, make_instance

# closed-form objective of the m=250 benchmark instance, pinned beforehand
# against 1e-15 adaptive quadrature of the squared control
BENCH_OBJECTIVE_M250 = 0.017795452594291612
BENCH_OBJECTIVE_M8 = 0.0007326499185834387


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


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


def where_form_phi1(z):
    """The two-branch np.where form of phi1: both branches on every entry."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < exact_oc.PHI1_SERIES_THRESHOLD
    zs = np.where(small, 1.0, z)
    series = 1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))
    out = np.where(small, series, np.expm1(zs) / zs)
    return float(out) if out.ndim == 0 else out


def test_phi1_bitwise_equals_the_where_form():
    grid = np.concatenate([np.linspace(-3e-4, 3e-4, 6001), [0.0, -0.0, 1e-4, -1e-4],
                           np.nextafter(1e-4, [0.0, 1.0]), np.nextafter(-1e-4, [0.0, -1.0]),
                           [-np.inf, -700.0, -3.5, 2.0, 700.0]])
    for z in (grid, grid[:6000].reshape(60, 100)):
        assert bitwise_equal(phi1(z), where_form_phi1(z))
    for x in (0.0, -0.0, 1e-4, -5e-5, 3.0, np.float64(-2.0), np.array(7e-5)):
        value = phi1(x)
        assert type(value) is float
        assert bitwise_equal(value, where_form_phi1(x))


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


@pytest.mark.parametrize("horizon", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_expsum_rejects_a_horizon_that_is_not_finite_and_positive(horizon):
    with pytest.raises(ValueError, match="horizon"):
        ExpSumFunction(np.array([1.0]), np.array([-1.0]), horizon)


def test_expsum_rejects_terms_that_are_not_one_dimensional():
    with pytest.raises(ValueError, match="1-D"):
        ExpSumFunction(np.ones((2, 3)), -np.ones((2, 3)), 1.0)
    with pytest.raises(ValueError, match="equal length"):
        ExpSumFunction(np.ones(3), -np.ones(2), 1.0)


@pytest.mark.parametrize("field", ["T", "alpha"])
@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_problem_rejects_a_horizon_or_weight_that_is_not_finite_and_positive(field, bad):
    # a nan alpha stops the Gramian loop at rank 0, and solve_terminal would
    # return a finite but wrong eta(T)
    sys = build_system(RobinBC.dirichlet(), 4, ones_profile)
    kwargs = dict(sys=sys, dec=decompose(sys), T=1.0, alpha=1.0, y_hat=np.zeros(4))
    kwargs[field] = bad
    with pytest.raises(ValueError, match="finite and positive"):
        OcProblem(**kwargs)


def whole_matrix_value(u, t):
    """The whole-matrix form of ExpSumFunction.value: exp over every term at once."""
    tt = np.asarray(t, dtype=float)
    if u.n_terms == 0:
        out = np.zeros(tt.shape)
    else:
        out = np.exp(np.multiply.outer(u.horizon - tt, u.rates)) @ u.coefficients
    return float(out) if out.ndim == 0 else out


@pytest.mark.parametrize("m", [128, 8])
def test_expsum_value_bitwise_equals_the_whole_matrix_form(m, rng):
    # bitwise for at most 2 nonzero terms, as every benchmark control has:
    # a sum of two products is the same in any order; a denser control (m
    # terms) is one ordered sum, within roundoff of the sum of the term
    # magnitudes
    prob, sol = make_instance(m)
    controls = {
        "sparse": sol.control,                       # 2 nonzero coefficients
        "dense": solve_terminal(prob).control,       # every coefficient nonzero
        "mixed signs": ExpSumFunction(np.array([0.7, 0.0, -0.0, -2.5]),
                                      np.array([-3.0, -1.0, 4.0, -80.0]), 1.0),
        "zero": ExpSumFunction.zero(1.0),
    }
    times = [0.37, np.float64(1.0), np.zeros(0), rng.uniform(0, 1, 1),
             rng.uniform(0, 1, 21), rng.uniform(0, 1, 1001),
             rng.uniform(0, 1, (3, 130)), rng.uniform(0, 1, (2, 3, 11))]
    for label, u in controls.items():
        for t in times:
            value, ref = u.value(t), whole_matrix_value(u, t)
            assert type(value) is type(ref), label
            if np.count_nonzero(u.coefficients) <= 2:
                assert bitwise_equal(value, ref), (label, np.shape(t))
            else:
                scale = np.exp(np.multiply.outer(u.horizon - np.asarray(t), u.rates)) \
                    @ np.abs(u.coefficients)
                assert np.all(np.abs(value - ref) <= 1e-15 * scale), (label, np.shape(t))


def test_expsum_value_zero_coefficient_never_meets_its_exponential():
    # exp(800) overflows; the whole-matrix form gives 0 * inf = nan there
    u = ExpSumFunction(np.array([0.5, 0.0]), np.array([-1.0, 800.0]), 2.0)
    assert u.value(np.array([0.0, 1.0])).tolist() == [0.5 * math.exp(-2.0), 0.5 * math.exp(-1.0)]


def test_expsum_value_temporaries_stay_near_the_result():
    # m=500 sparse-target control on 6144 times (N=2048, three stages): the
    # whole-matrix form holds two 6144 x 500 arrays, about 1000x the result
    _, sol = make_instance(500)
    t = np.linspace(0.0, 1.0, 6144)
    tracemalloc.start()
    try:
        values = sol.control.value(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * values.nbytes


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
    y0 = solve_ivp_exact(sys, dec, u, 0.0)
    assert bitwise_equal(y0, sys.psi)
    y0[0] += 1.0                                  # a copy, not psi itself
    assert sys.psi[0] == 1.0 and not u._ivp_plans


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


IVP_TIMES = (1e-4, 1 / 2048, 1 / 64, 0.5, 1.0)
IVP_BCS = (RobinBC.neumann(), RobinBC(1.0, 1.0), RobinBC.dirichlet())


def ivp_phi1_reference(sys, dec, control, t):
    """The state in the phi1 form, one matrix entry per (mode, term)."""
    eta = np.exp(dec.lambdas * t) * (dec.vectors.T @ sys.psi)
    if t > 0:
        weights = control.coefficients * t * np.exp(control.rates * (control.horizon - t))
        eta += sys.gamma * dec.boundary_components * (
            phi1(np.add.outer(dec.lambdas, control.rates) * t) @ weights)
    return dec.vectors @ eta


def ivp_controls(sys, dec, rng):
    """An exact-solution control, random decaying rates, and positive rates
    within 1e-9 of -lambda_k (for Neumann, lambda_1 = 0 gives the rate -1e-9).
    The resonant terms are scaled to |u| <= |c| on [0, T], so that no term
    outgrows the error of another."""
    _, sol = sparse_target(sys, dec, 1.0, 1.0, [(1, 0.2), (3, -0.1)])
    decaying = ExpSumFunction(rng.standard_normal(6), -rng.uniform(0.0, 50.0, 6), 1.0)
    near = -dec.lambdas[:3] + np.array([-1e-9, 5e-10, -3e-10])
    resonant = ExpSumFunction(rng.standard_normal(3) * np.exp(-np.maximum(near, 0.0)),
                              near, 1.0)
    return {"exact": sol.control, "decaying": decaying, "resonant": resonant}


def scaled_error(got, want):
    return np.abs(got - want).max() / max(1.0, np.abs(want).max())


@pytest.mark.parametrize("bc", IVP_BCS, ids=("neumann", "robin", "dirichlet"))
def test_ivp_cauchy_form_matches_phi1_form(bc, rng):
    sys = build_system(bc, 64, ones_profile)
    dec = decompose(sys)
    for name, u in ivp_controls(sys, dec, rng).items():
        for t in IVP_TIMES:
            err = scaled_error(solve_ivp_exact(sys, dec, u, t),
                               ivp_phi1_reference(sys, dec, u, t))
            assert err <= 1e-13, (name, t, err)


@pytest.mark.parametrize("bc", IVP_BCS, ids=("neumann", "robin", "dirichlet"))
def test_ivp_cauchy_form_against_expm_oracle(bc, rng):
    sys = build_system(bc, 8, ones_profile)
    dec = decompose(sys)
    for name, u in ivp_controls(sys, dec, rng).items():
        for t in IVP_TIMES:
            err = scaled_error(solve_ivp_exact(sys, dec, u, t), expm_state(sys, u, t))
            assert err <= 1e-10, (name, t, err)


def quadrature_state(sys, control, t, tol=1e-13):
    """y(t) by expm plus adaptive quadrature of the forcing integral."""
    M = dense_matrix(sys)
    y = scipy.linalg.expm(t * M) @ sys.psi
    if control.n_terms > 0 and t > 0:
        def integrand(tau):
            return scipy.linalg.expm((t - tau) * M) @ sys.forcing_vector * control.value(tau)
        y = y + quad_vec(integrand, 0.0, t, epsabs=tol, epsrel=tol)[0]
    return y


def quadrature_shooting(prob, tol=1e-13):
    """Dense shooting with the Gramian from adaptive quadrature."""
    sys = prob.sys
    M = dense_matrix(sys)
    em = np.zeros(sys.m)
    em[-1] = 1.0

    def integrand(tau):
        w = scipy.linalg.expm((prob.T - tau) * M) @ em
        return np.outer(w, w)

    G = quad_vec(integrand, 0.0, prob.T, epsabs=tol, epsrel=tol)[0]
    lhs = np.eye(sys.m) + (sys.gamma**2 / prob.alpha) * G
    q = np.linalg.solve(lhs, scipy.linalg.expm(prob.T * M) @ sys.psi - prob.y_hat)
    return q + prob.y_hat, q


@pytest.mark.parametrize("m", (4, 8, 12))
@pytest.mark.parametrize("bc", IVP_BCS[:2] + (RobinBC(3.0, 1.0), RobinBC.dirichlet()),
                         ids=("neumann", "robin11", "robin31", "dirichlet"))
def test_block_exponential_oracles_match_adaptive_quadrature(bc, m, rng):
    prob, _ = make_instance(m, bc=bc)
    sys, dec = prob.sys, prob.dec
    for name, u in ivp_controls(sys, dec, rng).items():
        for t in IVP_TIMES:
            err = scaled_error(expm_state(sys, u, t), quadrature_state(sys, u, t))
            assert err <= 1e-12, (name, t, err)
    for got, want in zip(shooting_terminal(prob), quadrature_shooting(prob)):
        assert scaled_error(got, want) <= 1e-13


def test_ivp_plans_are_kept_per_system_and_decomposition(rng):
    sys_a = build_system(RobinBC.dirichlet(), 16, ones_profile)
    sys_b = dataclasses.replace(sys_a, psi=rng.standard_normal(16))
    sys_r = build_system(RobinBC(1.0, 1.0), 16, ones_profile)
    dec_a, dec_r = decompose(sys_a), decompose(sys_r)
    u = ExpSumFunction(rng.standard_normal(4), -rng.uniform(0.0, 20.0, 4), 1.0)
    pairs = [(sys_a, dec_a), (sys_b, dec_a), (sys_r, dec_r), (sys_a, dec_a)]
    for t in (0.3, 0.7):
        for sys, dec in pairs:
            err = scaled_error(solve_ivp_exact(sys, dec, u, t),
                               ivp_phi1_reference(sys, dec, u, t))
            assert err <= 1e-13


def two_mask_plan(sys, dec, control):
    """Guard entries, C and C g(0) with the guard mask formed as
    (shifts > -G) & (shifts < G) beside the shifts."""
    mu = control.rates
    growing = mu > 0
    shifts = np.add.outer(dec.lambdas, mu)
    G = exact_oc.CAUCHY_GUARD_SHIFT
    guard = (shifts > -G) & (shifts < G)
    guard[:, growing] = True
    rows, cols = np.nonzero(guard)
    shifts[rows, cols] = np.inf
    cauchy = np.reciprocal(shifts, out=shifts)
    coef = np.where(growing, 0.0, control.coefficients)
    rates = np.where(growing, 0.0, mu)
    return rows, cols, cauchy, cauchy @ (coef * np.exp(rates * control.horizon))


def k_columns(weights, rates):
    """The columns of K: all columns by decreasing rate (ties by index), cut
    after the last nonzero weight in that order, rounded up to a multiple of
    LIVE_COLUMNS_STEP; the leading live_columns(weights) columns when the
    rates decrease."""
    order = sorted(range(weights.size), key=lambda l: -rates[l])
    stop = max((i + 1 for i, l in enumerate(order) if weights[l] != 0), default=0)
    step = spectrum.LIVE_COLUMNS_STEP
    return np.array(order[:min(-(-stop // step) * step, weights.size)], dtype=np.intp)


@pytest.mark.parametrize("bc", IVP_BCS, ids=("neumann", "robin", "dirichlet"))
def test_ivp_plan_guard_bitwise_equals_the_two_mask_form(bc, rng):
    # the guard entries come from the sorted spectrum; they must be
    # np.nonzero of the m x m mask, order included, whatever the rates
    sys = build_system(bc, 64, ones_profile)
    dec = decompose(sys)
    controls = ivp_controls(sys, dec, rng)
    controls["growing"] = ExpSumFunction(rng.standard_normal(4),
                                         np.array([3.0, 0.5, -0.2, -40.0]), 1.0)
    optimal = solve_terminal(OcProblem(sys=sys, dec=dec, T=1.0, alpha=1.0,
                                       y_hat=np.zeros(64))).control
    perm = rng.permutation(64)
    controls["permuted"] = ExpSumFunction(optimal.coefficients[perm], optimal.rates[perm], 1.0)
    G = exact_oc.CAUCHY_GUARD_SHIFT
    edges = -G - dec.lambdas[[0, 1, 5, 40]]      # sums at -G, up to rounding
    bounds = np.concatenate([[G, -G, np.nextafter(G, 0.0), np.nextafter(-G, 0.0),
                              np.nextafter(-G, -2.0), 0.0, -0.0],
                             edges, np.nextafter(edges, 0.0), np.nextafter(edges, -np.inf)])
    controls["bounds"] = ExpSumFunction(rng.standard_normal(bounds.size), bounds, 1.0)
    for name, u in controls.items():
        plan = exact_oc._IvpPlan.build(sys, dec, u)
        rows, cols, cauchy, cg0 = two_mask_plan(sys, dec, u)
        assert bitwise_equal(plan.guard_rows, rows), name
        assert bitwise_equal(plan.guard_cols, cols), name
        assert bitwise_equal(plan.cauchy, cauchy), name
        boundary = sys.gamma * dec.boundary_components
        assert bitwise_equal(plan.a, dec.vectors.T @ sys.psi + boundary * cg0), name
        K_cols = k_columns(plan.coef * np.exp(plan.rates * 1.0), plan.rates)
        assert bitwise_equal(plan.K_cols, K_cols), name
        K = dec.vectors @ (boundary[:, None] * cauchy[:, K_cols])
        assert plan.K.shape == K.shape, name
        assert np.abs(plan.K - K).max(initial=0.0) <= 1e-14 * np.abs(K).max(initial=0.0), name
    # lambda_1 = 0 is a guard entry of every Neumann control with a zero rate
    if bc.is_neumann:
        assert 0 in exact_oc._IvpPlan.build(sys, dec, controls["exact"]).guard_rows


def test_ivp_plan_build_peaks_at_one_square_array():
    # Robin(1,1), m=1000: the shifts (C, in place) are one 8 MB array and K
    # is m x 16; the guard entries come without an m x m mask (one boolean
    # mask peaked at 1.13, the two-mask form at 1.25)
    prob, sol = make_instance(1000, bc=RobinBC(1.0, 1.0))
    tracemalloc.start()
    try:
        plan = exact_oc._IvpPlan.build(prob.sys, prob.dec, sol.control)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.K.shape == (1000, 16)
    assert peak <= 1.05 * 1000**2 * 8


def test_ivp_repeat_call_needs_no_square_memory():
    prob, sol = make_instance(1000, bc=RobinBC(1.0, 1.0))
    solve_ivp_exact(prob.sys, prob.dec, sol.control, 0.5)
    tracemalloc.start()
    try:
        solve_ivp_exact(prob.sys, prob.dec, sol.control, 0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20   # one 1000 x 1000 array is 8 MB


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


def uncached_adjoint(dec, p_T, t, horizon):
    return from_modal(dec, np.exp(dec.lambdas * (horizon - t)) * (dec.vectors.T @ p_T))


def count_transforms(dec):
    """From here on, record the bytes of each vector w that an m x m
    product V^T w transforms.  V^T is the one view of V, F- and not
    C-contiguous, that the exact layer multiplies by; the products by V in
    ``from_modal`` and all other arithmetic on V run as before."""
    transformed = []

    class CountedVectors(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            a = inputs[0]
            if (ufunc is np.matmul and a is self and a.flags.f_contiguous
                    and not a.flags.c_contiguous):
                transformed.append(np.asarray(inputs[1]).tobytes())
            plain = tuple(x.view(np.ndarray) if isinstance(x, CountedVectors) else x
                          for x in inputs)
            return getattr(ufunc, method)(*plain, **kwargs)

    object.__setattr__(dec, "vectors", dec.vectors.view(CountedVectors))
    return transformed


def test_adjoint_transforms_each_multiplier_once():
    prob, _ = make_instance(64, bc=RobinBC(1.0, 1.0))
    dec, p_T = prob.dec, solve_terminal(prob).p_T
    times = np.linspace(0.0, 1.0, 65)
    refs = [uncached_adjoint(dec, p_T, t, 1.0) for t in times]
    products = count_transforms(dec)
    for t, ref in zip(times, refs):
        assert bitwise_equal(adjoint_exact(dec, p_T, float(t), 1.0), ref)
    adjoint_exact(dec, p_T.copy(), 0.5, 1.0)      # a copy has the same bytes
    assert len(products) == 1


def test_adjoint_keeps_the_two_most_recent_multipliers(rng):
    dec = decompose(build_system(RobinBC(1.0, 1.0), 16, ones_profile))
    a, b, c = rng.standard_normal((3, 16))
    times = np.linspace(0.0, 1.0, 9)
    refs = [[uncached_adjoint(dec, p_T, t, 1.0) for p_T in (a, b)] for t in times]
    products = count_transforms(dec)
    for t, pair in zip(times, refs):
        for p_T, ref in zip((a, b), pair):
            assert bitwise_equal(adjoint_exact(dec, p_T, float(t), 1.0), ref)
    assert products == [a.tobytes(), b.tobytes()]
    for p_T in (a, c, a, b):                   # c evicts b, the least recent
        adjoint_exact(dec, p_T, 0.5, 1.0)
    assert products[2:] == [c.tobytes(), b.tobytes()]


def test_robin_cell_transforms_each_vector_once():
    # perfbench's robin_cell order: psi is transformed by sparse_target,
    # solve_terminal and the solve_ivp_exact plan, but costs one product
    sys = build_system(RobinBC(1.0, 1.0), 40, ones_profile)
    dec = decompose(sys)
    products = count_transforms(dec)
    y_hat, _ = sparse_target(sys, dec, T=1.0, alpha=1.0, deltas=BENCH_DELTAS)
    sol = solve_terminal(OcProblem(sys=sys, dec=dec, T=1.0, alpha=1.0, y_hat=y_hat))
    times = np.linspace(0.0, 1.0, 9)
    for t in times:
        solve_ivp_exact(sys, dec, sol.control, float(t))
    for t in times:
        adjoint_exact(dec, sol.p_T, float(t), 1.0)
    assert products == [sys.psi.tobytes(), y_hat.tobytes(), sol.p_T.tobytes()]


def test_adjoint_sees_a_multiplier_changed_in_place(rng):
    dec = decompose(build_system(RobinBC(1.0, 1.0), 16, ones_profile))
    p_T = rng.standard_normal(16)
    saved = p_T[3]
    first = adjoint_exact(dec, p_T, 0.25, 1.0)
    p_T[3] += 1.0
    second = adjoint_exact(dec, p_T, 0.25, 1.0)
    assert bitwise_equal(second, uncached_adjoint(dec, p_T, 0.25, 1.0))
    assert not np.array_equal(first, second)
    p_T[3] = saved
    assert bitwise_equal(adjoint_exact(dec, p_T, 0.25, 1.0), first)


def test_adjoint_checks_the_shape_before_the_cache(rng):
    dec = decompose(build_system(RobinBC(1.0, 1.0), 16, ones_profile))
    p_T = rng.standard_normal(16)
    adjoint_exact(dec, p_T, 0.5, 1.0)
    with pytest.raises(ValueError, match="expected vector of length 16"):
        adjoint_exact(dec, p_T.reshape(2, 8), 0.5, 1.0)


def test_decomposition_with_a_cached_multiplier_pickles_and_copies(rng):
    dec = decompose(build_system(RobinBC(1.0, 1.0), 8, ones_profile))
    before = repr(dec)
    p_T = rng.standard_normal(8)
    ref = adjoint_exact(dec, p_T, 0.5, 1.0)
    assert repr(dec) == before and "_modal" not in before
    for clone in (pickle.loads(pickle.dumps(dec)), copy.deepcopy(dec)):
        assert clone is not dec and clone != dec                # identity compare
        assert bitwise_equal(clone.vectors, dec.vectors)
        assert bitwise_equal(adjoint_exact(clone, p_T, 0.5, 1.0), ref)


# ---------------------------------------------------------------------------
# modal and Cauchy products cut at the last nonzero weight
# ---------------------------------------------------------------------------

LIVE_BCS = (RobinBC.dirichlet(), RobinBC.neumann(), RobinBC(1.0, 1.0))
LIVE_TIMES = np.linspace(0.0, 1.0, 65)


def live_controls(prob, target):
    """The optimal control, the sparse-target control, and the optimal
    control with its terms permuted, so that the live terms are not first."""
    sol = solve_terminal(prob)
    perm = np.random.default_rng(prob.sys.m).permutation(prob.sys.m)
    return sol, {"optimal": sol.control, "target": target.control,
                 "unsorted": ExpSumFunction(sol.control.coefficients[perm],
                                            sol.control.rates[perm], 1.0)}


def record_routes(patch):
    """Record the matrix of each exact_oc.live_product call: K when g(t)
    lives on K's columns, C otherwise."""
    seen = []
    real = exact_oc.live_product

    def recorded(A, w):
        seen.append(A)
        return real(A, w)

    patch.setattr(exact_oc, "live_product", recorded)
    return seen


@pytest.mark.parametrize("m", (8, 70, 500))
@pytest.mark.parametrize("bc", LIVE_BCS, ids=("dirichlet", "neumann", "robin11"))
def test_cut_products_bitwise_equal_the_full_products(bc, m, monkeypatch):
    # each product against itself over all of its matrix's columns: V modal
    # and K g(t), whose K has only the n_w columns of the plan, when g(t)
    # lives on K's columns, and V (modal - gamma v_m C g(t)) and C g(t)
    # otherwise
    prob, target = make_instance(m, bc=bc)
    sys, dec = prob.sys, prob.dec
    sol, controls = live_controls(prob, target)
    rng = np.random.default_rng(m)
    holed = rng.standard_normal(m)
    holed[rng.random(m) < 0.4] = 0.0                  # interior zeros
    holed[-1] = 0.0
    cut, routes = {}, {}
    with monkeypatch.context() as patch:
        seen = record_routes(patch)
        for name, u in controls.items():
            cut[name] = []
            for t in LIVE_TIMES:
                del seen[:]
                cut[name].append(solve_ivp_exact(sys, dec, u, float(t)))
                if t > 0:                                   # the call's last product
                    routes[name, t] = seen[-1] is u._ivp_plans[(sys, dec)].K
    assert any(routes.values())
    assert not all(routes.values()) or m <= spectrum.LIVE_COLUMNS_STEP   # K is all of C
    cut["adjoint"] = [adjoint_exact(dec, sol.p_T, float(t), 1.0) for t in LIVE_TIMES]
    cut["holed"] = [from_modal(dec, np.exp(dec.lambdas * (1.0 - t)) * holed)
                    for t in LIVE_TIMES]
    full = {}
    with monkeypatch.context() as patch:               # every product over all columns
        for module in (spectrum, exact_oc):
            patch.setattr(module, "live_product", lambda A, w: A @ w[:A.shape[1]])
        for name, u in controls.items():
            u = ExpSumFunction(u.coefficients, u.rates, u.horizon)   # no plans yet
            full[name] = [solve_ivp_exact(sys, dec, u, float(t)) for t in LIVE_TIMES]
            assert bitwise_equal(exact_oc._IvpPlan.build(sys, dec, controls[name]).a,
                                 u._ivp_plans[(sys, dec)].a), name
        full["adjoint"] = [adjoint_exact(dec, sol.p_T, float(t), 1.0) for t in LIVE_TIMES]
    full["holed"] = [dec.vectors @ (np.exp(dec.lambdas * (1.0 - t)) * holed)
                     for t in LIVE_TIMES]
    for name in cut:
        for t, got, want in zip(LIVE_TIMES, cut[name], full[name]):
            assert bitwise_equal(got, want), (name, t)


def dense_route_state(sys, dec, control, t):
    """The state by solve_ivp_exact's one formula, every product whole:
    V (exp(lambda t) a + gamma v_m (guard - C g(t))), with
    a = V^T psi + gamma v_m C g(0)."""
    plan = control._ivp_plans[(sys, dec)]
    boundary = sys.gamma * dec.boundary_components
    tail = control.horizon - t
    rows, cols = plan.guard_rows, plan.guard_cols
    mu = control.rates[cols]
    guard = np.bincount(rows, minlength=dec.m, weights=(
        control.coefficients[cols] * t * np.exp(mu * tail) * phi1((dec.lambdas[rows] + mu) * t)))
    a = dec.vectors.T @ sys.psi + boundary * (
        plan.cauchy @ (plan.coef * np.exp(plan.rates * control.horizon)))
    cg = plan.cauchy @ (plan.coef * np.exp(plan.rates * tail))
    return dec.vectors @ (np.exp(dec.lambdas * t) * a + boundary * (guard - cg))


@pytest.mark.parametrize("m", (70, 500))
@pytest.mark.parametrize("bc", LIVE_BCS, ids=("dirichlet", "neumann", "robin11"))
def test_split_state_matches_the_dense_route(bc, m, monkeypatch):
    prob, target = make_instance(m, bc=bc)
    sys, dec = prob.sys, prob.dec
    _, controls = live_controls(prob, target)
    for name, u in controls.items():
        with monkeypatch.context() as patch:
            seen = record_routes(patch)
            states = [solve_ivp_exact(sys, dec, u, float(t)) for t in LIVE_TIMES]
        plan = u._ivp_plans[(sys, dec)]
        assert any(A is plan.K for A in seen), name
        for t, y in zip(LIVE_TIMES[1:], states[1:]):
            assert scaled_error(y, dense_route_state(sys, dec, u, float(t))) <= 1e-14, (name, t)
        # the result reads only (sys, dec, control, t): not the order of the
        # times, nor whether the plan is new
        for order in (LIVE_TIMES[::-1], LIVE_TIMES):
            fresh = ExpSumFunction(u.coefficients, u.rates, u.horizon)
            again = {t: solve_ivp_exact(sys, dec, fresh, float(t)) for t in order}
            for t, y in zip(LIVE_TIMES, states):
                assert bitwise_equal(again[t], y), (name, t)


def test_unsorted_control_gets_a_k_of_its_live_terms(monkeypatch):
    # Robin(1,1), m = 2000: the optimal control with its terms permuted has
    # its live terms spread over the columns; K holds only those, padded to
    # 16 (it held 1936 columns when it ran up to the last live one), and the
    # states match the sorted control's at the 65 benchmark times
    prob, _ = make_instance(2000, bc=RobinBC(1.0, 1.0))
    sys, dec = prob.sys, prob.dec
    sorted_u = solve_terminal(prob).control
    perm = np.random.default_rng(2000).permutation(2000)
    u = ExpSumFunction(sorted_u.coefficients[perm], sorted_u.rates[perm], 1.0)
    with monkeypatch.context() as patch:
        seen = record_routes(patch)
        states = [solve_ivp_exact(sys, dec, u, float(t)) for t in LIVE_TIMES]
    plan = u._ivp_plans[(sys, dec)]
    assert plan.K.shape[1] <= spectrum.LIVE_COLUMNS_STEP < plan.K_cols[-1]
    assert any(A is plan.K for A in seen)
    for t, y in zip(LIVE_TIMES, states):
        assert scaled_error(y, solve_ivp_exact(sys, dec, sorted_u, float(t))) <= 1e-14, t


def test_only_calls_with_terms_outside_k_read_all_of_v(monkeypatch):
    # Robin(1,1), m = 500: the product that carries C g(t) is chosen from
    # g(t) alone, so V modal is cut to its live columns whenever g(t) lives
    # on K, small t included; a product by all of V is left only where g(t)
    # has terms outside K, at the 19 times t >= 0.72 for the optimal control
    prob, target = make_instance(500, bc=RobinBC(1.0, 1.0))
    sys, dec = prob.sys, prob.dec
    _, controls = live_controls(prob, target)
    real = spectrum.live_product
    full = []

    def recorded(A, w):
        full.append(A is dec.vectors and spectrum.live_columns(w) == A.shape[1])
        return real(A, w)

    monkeypatch.setattr(spectrum, "live_product", recorded)
    counts = {}
    for name in ("optimal", "target"):
        del full[:]
        for t in LIVE_TIMES[1:]:
            solve_ivp_exact(sys, dec, controls[name], float(t))
        counts[name] = sum(full)
    assert counts["optimal"] <= 19 and counts["target"] == 0, counts


def test_live_columns_rule():
    step = spectrum.LIVE_COLUMNS_STEP
    assert spectrum.live_columns(np.zeros(40)) == 0
    assert spectrum.live_columns(np.array([0.0, -0.0, 0.0])) == 0
    w = np.zeros(40)
    w[0] = 1.0
    assert spectrum.live_columns(w) == step
    w[step] = 1e-300
    assert spectrum.live_columns(w) == 2 * step
    w[-1] = 1.0
    assert spectrum.live_columns(w) == 40                 # capped at the length
    assert spectrum.live_columns(np.ones(3)) == 3


def test_cut_products_read_few_columns_away_from_the_horizon():
    # m=500 Robin(1,1): at t = 0 the adjoint weights exp(lambda T) V^T p_T
    # and the control weights c exp(mu T) are zero past mode 9
    prob, _ = make_instance(500, bc=RobinBC(1.0, 1.0))
    dec = prob.dec
    sol = solve_terminal(prob)
    modal = dec.vectors.T @ sol.p_T
    assert spectrum.live_columns(np.exp(dec.lambdas * 1.0) * modal) <= 16
    assert spectrum.live_columns(np.exp(dec.lambdas * 0.0) * modal) == 500
    u = sol.control
    assert spectrum.live_columns(u.coefficients * np.exp(u.rates * 1.0)) <= 16


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


def q_quadratic_form(prob, w, tol=1e-12):
    """w^T Q w evaluated by adaptive quadrature of its integral representation."""
    lam = prob.dec.lambdas
    vm = prob.dec.boundary_components

    def integrand(tau):
        return float(np.sum(np.exp(lam * prob.T * tau) * vm * w)) ** 2

    val, _ = quad(integrand, 0.0, 1.0, epsabs=tol, epsrel=tol, limit=200)
    return prob.sys.gamma**2 * prob.T / prob.alpha * val


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


def test_Q_row_blocks_equal_the_whole_matrix_form():
    for m in (8, 70):
        prob, _ = make_instance(m, bc=RobinBC(1.0, 1.0))
        vm, lam = prob.dec.boundary_components, prob.dec.lambdas
        whole = (prob.sys.gamma**2 * prob.T / prob.alpha) * np.outer(vm, vm) \
            * phi1(np.add.outer(lam, lam) * prob.T)
        assert bitwise_equal(build_Q(prob), whole)


def test_build_Q_temporaries_stay_below_the_result():
    # Robin(1,1), m=1000: Q is one 8 MB array; the whole-matrix phi1 form
    # peaks near 6x that
    sys = build_system(RobinBC(1.0, 1.0), 1000, ones_profile)
    prob = OcProblem(sys=sys, dec=decompose(sys), T=1.0, alpha=1.0, y_hat=np.zeros(1000))
    tracemalloc.start()
    try:
        Q = build_Q(prob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * Q.nbytes


TERMINAL_BCS = (RobinBC.dirichlet(), RobinBC.neumann(), RobinBC(1.0, 1.0))


def eye_form_terminal(prob):
    """eta_T and p_T from the dense I + Q, formed as np.eye(m) + Q, on the
    right-hand side exp(T Lambda) eta(0) - V^T y_hat."""
    dec = prob.dec
    target_modal = dec.vectors.T @ prob.y_hat
    b = np.exp(dec.lambdas * prob.T) * (dec.vectors.T @ prob.sys.psi) - target_modal
    cho = scipy.linalg.cho_factor(np.eye(dec.m) + build_Q(prob), lower=True)
    p_modal = scipy.linalg.cho_solve(cho, b)
    return target_modal + p_modal, dec.vectors @ p_modal


@pytest.mark.parametrize("m", [8, 40, 70, 300, 1000])
@pytest.mark.parametrize("bc", TERMINAL_BCS)
def test_solve_terminal_matches_the_eye_form(bc, m):
    prob, _ = make_instance(m, bc=bc)
    rank = exact_oc._gramian_factor(prob).shape[0]
    assert rank == m if m == 8 else rank < m
    sol = solve_terminal(prob)
    eta_T, p_T = eye_form_terminal(prob)
    scale = max(1.0, float(np.abs(eta_T).max()))
    assert np.abs(sol.eta_T - eta_T).max() <= 1e-13 * scale
    assert np.abs(sol.p_T - p_T).max() <= 1e-13 * scale


@pytest.mark.parametrize("bc", TERMINAL_BCS)
def test_gramian_factor_reproduces_Q(bc):
    for m, alpha in ((8, 1.0), (70, 1e-6), (300, 1.0), (300, 1e6)):
        prob, _ = make_instance(m, alpha=alpha, bc=bc)
        Lt = exact_oc._gramian_factor(prob)
        Q = build_Q(prob)
        assert np.abs(Q - Lt.T @ Lt).max() <= 1e-14 * max(1.0, np.abs(Q).max()), (m, alpha)


@pytest.mark.parametrize("m", [70, 500, 2000])
@pytest.mark.parametrize("bc", TERMINAL_BCS)
def test_solve_terminal_round_trip_holds_at_every_penalty(bc, m):
    # the right-hand side exp(T Lambda) eta(0) + Q V^T y_hat, solved with
    # I + Q, read 1e-5 here at Dirichlet, alpha = 1e-6, m = 500
    sys = build_system(bc, m, ones_profile)
    dec = decompose(sys)
    for alpha in (1e-6, 1.0, 1e6):
        y_hat, target = sparse_target(sys, dec, 1.0, alpha, BENCH_DELTAS)
        sol = solve_terminal(OcProblem(sys=sys, dec=dec, T=1.0, alpha=alpha, y_hat=y_hat))
        scale = max(1.0, float(np.abs(target.eta_T).max()))
        assert np.abs(sol.eta_T - target.eta_T).max() <= 1e-13 * scale, alpha
        # p_T = V (I + Q)^-1 b adds the m-term sums of the transform: 9.5e-14
        # at Dirichlet, m = 2000, the same with the dense solve
        assert np.abs(sol.p_T - target.p_T).max() <= 1e-12 * scale, alpha


def test_solve_terminal_holds_a_quarter_of_a_square_array():
    # Robin(1,1), m=1000: the factor holds 50 rows of length m; the
    # dense solve held Q, factored in place, and peaked at 1.29 square arrays
    prob, _ = make_instance(1000, bc=RobinBC(1.0, 1.0))
    tracemalloc.start()
    try:
        solve_terminal(prob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 1000**2 * 8


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


@pytest.mark.parametrize("alpha,deltas", [
    (1e-320, BENCH_DELTAS),            # gamma / alpha overflows
    (1.0, [(1, 1e308)]),               # eta(T) and the control overflow
])
def test_sparse_target_rejects_an_instance_that_overflows(alpha, deltas):
    sys = build_system(RobinBC.dirichlet(), 4, ones_profile)
    dec = decompose(sys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="overflows in double precision"):
            sparse_target(sys, dec, 1.0, alpha, deltas)


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
