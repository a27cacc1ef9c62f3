import ast
import copy
import json
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded

from heatoc import (
    ConfigError, ExpSumFunction, IrkTableau, MissingPeerCoefficientsError, MolSystem,
    NumericalError, PeerScheme, RobinBC, TridiagonalMatrix, adjoint_exact,
    build_system, collocation, control_quadrature_weights, decompose, from_modal, gauss2, get_method,
    integrate_adjoint, integrate_forward, irk_step, load_peer_scheme,
    lobatto_iiia, lobatto_iiib, ones_profile, peer_step, peer_toy2,
    solve_ivp_exact, stability_function,
)
from heatoc import integrators
from heatoc.bench import _exact_start
from heatoc.heat_mol import SHIFT_CACHE_SIZE
from heatoc.integrators import StageSystemSolver, interpolatory_weights, solve_shifted
from conftest import make_instance


def pade22(z):
    return (1 + z / 2 + z**2 / 12) / (1 - z / 2 + z**2 / 12)


def system_of(matrix):
    """A MolSystem around ``matrix`` with gamma = 1; the steps read only these two."""
    m = matrix.m
    return MolSystem(m=m, bc=RobinBC.dirichlet(), gamma=1.0, grid=np.zeros(m),
                     psi=np.zeros(m), matrix=matrix)


def scalar_system(lam=0.0):
    return system_of(TridiagonalMatrix(np.array([lam]), np.zeros(0)))


def node_samples(control, scheme, N, T):
    """The (N, s) samples of a control at the stage nodes (n + c_i) h, h = T / N."""
    times = (np.arange(N)[:, None] + scheme.c[None, :]) * (T / N)
    return control(times.ravel()).reshape(N, scheme.s)


# ---------------------------------------------------------------------------
# tableaus
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("factory", [gauss2, lobatto_iiia, lobatto_iiib])
def test_order_four_conditions(factory):
    tab = factory()
    assert np.abs(tab.order4_residuals()).max() <= 1e-13
    assert np.abs(tab.A.sum(axis=1) - tab.c).max() <= 1e-13


def test_tableau_validation_rejects_bad_constants():
    with pytest.raises(ConfigError):
        from heatoc.integrators import _validated_order4
        _validated_order4(IrkTableau("broken", np.eye(2) / 4, np.array([0.5, 0.5]),
                                     np.array([0.25, 0.75])))


def test_collocation_reproduces_lobatto_iiia():
    tab = collocation(np.array([0.0, 0.5, 1.0]))
    assert np.abs(tab.A - lobatto_iiia().A).max() < 1e-14
    assert np.abs(tab.b - lobatto_iiia().b).max() < 1e-14
    with pytest.raises(ConfigError):
        collocation(np.array([0.5, 0.5]))


def test_gauss_stability_function_is_diagonal_pade():
    for z in (-0.5, -3.7 + 0.9j, -200.0, 2.0 + 1.0j):
        assert stability_function(gauss2(), z) == pytest.approx(pade22(z), rel=1e-13)


def test_a_stability_on_left_half_plane_grid():
    tab = gauss2()
    for re in np.linspace(-50, 0, 11):
        for im in np.linspace(-40, 40, 9):
            assert abs(stability_function(tab, complex(re, im))) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# IRK stepping
# ---------------------------------------------------------------------------

def test_scalar_gauss_step_matches_stability_function():
    lam, h = -7.3, 0.2
    y1, _ = irk_step(gauss2(), scalar_system(lam), h, np.array([1.0]), np.zeros(2))
    assert y1[0] == pytest.approx(pade22(h * lam).real, rel=1e-13)


def test_homogeneous_step_on_eigenvector_applies_stability_factor():
    sys = build_system(RobinBC.dirichlet(), 8, ones_profile)
    dec = decompose(sys)
    h = 0.01
    for tab in (gauss2(), lobatto_iiia()):
        for k in (0, 3, 7):
            v = dec.vectors[:, k]
            y1, _ = irk_step(tab, sys, h, v, None)
            factor = stability_function(tab, h * dec.lambdas[k]).real
            assert np.abs(y1 - factor * v).max() < 1e-12


@pytest.mark.parametrize("factory", [gauss2, lobatto_iiia, lobatto_iiib])
def test_irk_step_against_dense_stage_system(factory, rng):
    tab = factory()
    sys = build_system(RobinBC.dirichlet(), 4, ones_profile)
    M = np.diag(sys.matrix.diagonal) + np.diag(sys.matrix.off, 1) + np.diag(sys.matrix.off, -1)
    control = lambda t: np.sin(3 * np.asarray(t)) + 1.0
    h, y0 = 0.0125, rng.standard_normal(4)
    g = control(tab.c * h)
    y1, stages = irk_step(tab, sys, h, y0, g)
    s = tab.s
    K = np.eye(s * 4) - h * np.kron(tab.A, M)
    rhs = np.tile(y0, s) + h * np.kron(tab.A @ g, sys.forcing_vector)
    Y = np.linalg.solve(K, rhs).reshape(s, 4)
    F = (M @ Y.T).T + np.outer(g, sys.forcing_vector)
    assert np.abs(stages - Y).max() < 1e-12
    assert np.abs(y1 - (y0 + h * tab.b @ F)).max() < 1e-12


def test_shifted_solve_residual(rng):
    sys = build_system(RobinBC.dirichlet(), 32, ones_profile)
    rhs = rng.standard_normal(32)
    z = 0.37
    x = solve_shifted(z, sys.matrix, rhs)
    resid = x - z * sys.matrix.apply(x) - rhs
    assert np.abs(resid).max() <= 1e-12 * np.abs(rhs).max()


def test_stage_solver_rejects_defective_coupling():
    tri = TridiagonalMatrix(np.array([-1.0, -1.0]), np.array([0.0]))
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NumericalError):
        StageSystemSolver(jordan, 0.1, tri)


def reference_shifted_solve(z, tri, rhs):
    """(I - z M) x = rhs through scipy.linalg.solve_banded, refactoring every call."""
    ab = np.zeros((3, tri.m), dtype=complex if np.iscomplexobj(z) else float)
    ab[1] = 1.0 - z * tri.diagonal
    ab[0, 1:] = ab[2, :-1] = -z * tri.off
    return solve_banded((1, 1), ab, rhs)


def reference_stacked_solve(solver, h, rhs):
    Z = solver.Sinv @ rhs.astype(complex)
    X = np.array([Zi if mu == 0 else reference_shifted_solve(h * mu, solver.tri, Zi)
                  for mu, Zi in zip(solver.mu, Z)])
    return np.real(solver.S @ X)


STAGE_COUPLINGS = {
    "gauss2": gauss2().A, "gauss2^T": gauss2().A.T,
    "lobatto_iiia": lobatto_iiia().A, "lobatto_iiia^T": lobatto_iiia().A.T,
    "lobatto_iiib": lobatto_iiib().A, "lobatto_iiib^T": lobatto_iiib().A.T,
    "peer_start": peer_toy2().start_tableau.A,
    "peer_start^T": peer_toy2().start_tableau.A.T,
}


def test_shifted_solves_bitwise_equal_solve_banded(rng):
    tri = build_system(RobinBC.dirichlet(), 250, ones_profile).matrix
    h = 1.0 / 512
    rhs = rng.standard_normal(250)
    for z in h * np.diag(peer_toy2().R):
        ref = reference_shifted_solve(z, tri, rhs)
        for _ in range(2):          # the second solve reuses the factors
            assert np.array_equal(solve_shifted(z, tri, rhs), ref)
    for name, K in STAGE_COUPLINGS.items():
        solver = StageSystemSolver(K, h, tri)
        assert np.iscomplexobj(solver.mu) or name.startswith("peer_start"), name
        for z in h * solver.mu[solver.mu != 0]:
            assert np.array_equal(solve_shifted(z, tri, rhs),
                                  reference_shifted_solve(z, tri, rhs)), name
        stacked = rng.standard_normal((len(K), 250))
        ref = reference_stacked_solve(solver, h, stacked)
        for _ in range(2):
            assert np.array_equal(solver.solve_stacked(stacked), ref), name
    for m in (2, 3):                # m = 2 stays unfactored
        small = build_system(RobinBC(2.0, 0.5), m, ones_profile).matrix
        for name, K in STAGE_COUPLINGS.items():
            solver = StageSystemSolver(K, h, small)
            block = rng.standard_normal((len(K), m))
            ref = reference_stacked_solve(solver, h, block)
            assert np.array_equal(solver.solve_stacked(block), ref), (name, m)


def test_shift_factors_pickle_copy_and_stay_bounded(rng):
    sys = build_system(RobinBC.dirichlet(), 16, ones_profile)
    rhs = rng.standard_normal(16)
    stacked = rng.standard_normal((2, 16))
    X = StageSystemSolver(gauss2().A, 0.01, sys.matrix).solve_stacked(stacked)
    x = solve_shifted(0.37, sys.matrix, rhs)
    assert 0 < len(sys.matrix._factors) <= SHIFT_CACHE_SIZE
    assert "_factors" not in repr(sys.matrix) and "_tiled" not in repr(sys.matrix)
    for twin in (pickle.loads(pickle.dumps(sys)), copy.deepcopy(sys)):
        assert np.array_equal(solve_shifted(0.37, twin.matrix, rhs), x)
        assert np.array_equal(twin.matrix.apply(stacked), sys.matrix.apply(stacked))
        twin_solver = StageSystemSolver(gauss2().A, 0.01, twin.matrix)
        assert np.array_equal(twin_solver.solve_stacked(stacked), X)
    for z in np.linspace(0.01, 1.0, 4 * SHIFT_CACHE_SIZE):
        solve_shifted(z, sys.matrix, rhs)
    assert len(sys.matrix._factors) == SHIFT_CACHE_SIZE
    assert np.array_equal(solve_shifted(0.37, sys.matrix, rhs), x)


def test_shifted_solve_error_contract():
    tri = build_system(RobinBC.dirichlet(), 8, ones_profile).matrix
    solver = StageSystemSolver(gauss2().A, 0.01, tri)
    for bad in (np.nan, np.inf):
        rhs = np.ones(8)
        rhs[3] = bad
        with pytest.raises(ValueError):
            solve_shifted(0.3, tri, rhs)
        with pytest.raises(ValueError):
            solver.solve_stacked(np.vstack([rhs, np.ones(8)]))
        with pytest.raises(ValueError):
            solve_shifted(bad, tri, np.ones(8))
        with pytest.raises(ValueError):
            solve_shifted(complex(0.3, bad), tri, np.ones(8))
        with pytest.raises(ValueError):      # the z = 0 shortcut checks first
            solve_shifted(0.0, tri, rhs)
    with pytest.raises(ValueError):
        solve_shifted(0.3, tri, np.ones(7))
    with pytest.raises(ValueError):
        solve_shifted(0.0, tri, np.ones(5))
    with pytest.raises(ValueError):
        solver.solve_stacked(np.ones((2, 9)))

    for m in (2, 3):                # m < 3 takes the unfactored path
        singular = TridiagonalMatrix(np.full(m, -1.0), np.zeros(m - 1))
        for _ in range(2):          # a failed factorization is not kept
            with pytest.raises(np.linalg.LinAlgError):
                solve_shifted(-1.0, singular, np.ones(m))
        assert singular._factors == {}
        assert np.array_equal(solve_shifted(0.5, singular, np.ones(m)), np.full(m, 1 / 1.5))


# ---------------------------------------------------------------------------
# forward integration
# ---------------------------------------------------------------------------

def test_forward_single_step_composition():
    sys = build_system(RobinBC.dirichlet(), 6, ones_profile)
    u = ExpSumFunction(np.array([1.0]), np.array([-2.0]), 1.0)
    c = gauss2().c
    y1, _ = irk_step(gauss2(), sys, 0.5, sys.psi, u.value(0.0 + c * 0.5))
    y2, _ = irk_step(gauss2(), sys, 0.5, y1, u.value(0.5 + c * 0.5))
    assert np.array_equal(
        integrate_forward(gauss2(), sys, node_samples(u, gauss2(), 1, 0.5), 1, 0.5), y1)
    assert np.array_equal(
        integrate_forward(gauss2(), sys, node_samples(u, gauss2(), 2, 1.0), 2, 1.0), y2)


def test_forward_homogeneous_fourth_order_decay():
    sys = build_system(RobinBC.dirichlet(), 8, ones_profile)
    dec = decompose(sys)
    exact = from_modal(dec, np.exp(dec.lambdas * 1.0) * (dec.vectors.T @ sys.psi))
    errs = []
    for N in (32, 64, 128):
        y_N = integrate_forward(gauss2(), sys, None, N, 1.0)
        errs.append(np.abs(y_N - exact).max())
    assert errs[0] / errs[1] >= 8.0
    assert errs[1] / errs[2] >= 8.0


@pytest.mark.parametrize("name,degree", [("gauss2", 4), ("lobatto3", 4), ("peer_toy2", 2)])
def test_polynomial_exactness(name, degree):
    # y' = q'(t) with M = 0 is integrated exactly up to the design order
    coeffs = np.array([0.3, -1.1, 0.8, 0.25, -0.4])[: degree + 1]
    q = np.polynomial.Polynomial(coeffs)
    dq = q.deriv()
    method = get_method(name)
    from heatoc.heat_mol import MolSystem
    tri = TridiagonalMatrix(np.array([0.0]), np.zeros(0))
    sys_like = MolSystem(m=1, bc=RobinBC.dirichlet(), gamma=1.0,
                         grid=np.array([0.5]), psi=np.array([q(0.0)]), matrix=tri)
    # every state y_n of an 8-step grid on [0, 1], as the endpoint of n steps
    times = np.arange(9) / 8
    scale = max(np.abs(q(times)).max(), 1.0)
    for n in range(2 if name == "peer_toy2" else 1, 9):
        control = node_samples(dq, method.forward, n, times[n])
        y_n = integrate_forward(method, sys_like, control, n, times[n])
        assert abs(y_n[0] - q(times[n])) <= 1e-12 * scale, n


def test_forward_benchmark_error_shrinks_from_coarsest_to_finest():
    # m=250 with the exact control: N = 2^11 must improve on N = 2^4
    prob, sol = make_instance(250)
    y_exact = from_modal(prob.dec, sol.eta_T)
    coarse, fine = (integrate_forward(gauss2(), prob.sys,
                                      node_samples(sol.control, gauss2(), N, 1.0), N, 1.0)
                    for N in (2**4, 2**11))
    err_coarse = np.abs(coarse - y_exact).max()
    err_fine = np.abs(fine - y_exact).max()
    assert np.isfinite(err_fine)
    assert err_fine < err_coarse


def test_forward_rejects_bad_sample_shape():
    sys = build_system(RobinBC.dirichlet(), 5, ones_profile)
    with pytest.raises(ValueError):
        integrate_forward(gauss2(), sys, np.zeros((4, 3)), 4, 1.0)


def test_forward_rejects_a_callable_control():
    # the caller samples the control at the stage nodes; a function is not sampled
    sys = build_system(RobinBC.dirichlet(), 5, ones_profile)
    u = ExpSumFunction(np.array([0.7]), np.array([-3.0]), 1.0)
    with pytest.raises(ValueError, match="node samples"):
        integrate_forward(gauss2(), sys, u, 4, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["gauss2", "lobatto3", "peer_toy2"])
def test_forward_rejects_non_finite_control_samples(name, bad):
    # rejected before the first step, so no step can warn on inf * 0
    sys = build_system(RobinBC.dirichlet(), 8, ones_profile)
    method = get_method(name)
    samples = np.ones((16, method.forward.s))
    samples[5, -1] = bad
    with pytest.raises(ValueError, match="control samples"):
        integrate_forward(method, sys, samples, 16, 1.0)


@pytest.mark.parametrize("control", ["none", "nodes"])
@pytest.mark.parametrize("name", ["gauss2", "peer_toy2"])
def test_sweeps_hold_o_of_m_memory(name, control):
    # m = 250, N = 1024: the N + 1 states of one sweep would take 2.05 MB
    sys = build_system(RobinBC.dirichlet(), 250, ones_profile)
    method = get_method(name)
    N = 1024
    u = None if control == "none" else np.ones((N, method.forward.s))
    tracemalloc.start()
    try:
        y_T = integrate_forward(method, sys, u, N, 1.0)
        integrate_adjoint(method, sys, y_T, N, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def stepped_endpoint(scheme, sys, control, N, h):
    """y_N of N public irk_step / peer_step calls, each IRK step with its own solver."""
    g = (None,) * N if control is None else control
    y = sys.psi
    if isinstance(scheme, IrkTableau):
        for n in range(N):
            y = irk_step(scheme, sys, h, y, g[n])[0]
        return y
    _, block = irk_step(collocation(scheme.c), sys, h, y, g[0])
    F = None
    for n in range(1, N):
        block, F = peer_step(scheme, sys, h, block, g[n - 1], g[n], prev_F=F)
    return block[-1]


@pytest.mark.parametrize("m", [2, 3, 8])              # m = 2 stays unfactored
@pytest.mark.parametrize("name", ["gauss2", "lobatto3", "peer_toy2"])
def test_sweeps_equal_a_loop_of_public_steps_bitwise(name, m, rng):
    # every state y_n of a 6-step grid, as the endpoint of a sweep of n steps
    # against a loop with the sweep's own step size T_n / n
    method = get_method(name)
    N, T = 6, 1.0
    expsum = ExpSumFunction(np.array([0.7, -0.2]), np.array([-3.0, 0.5]), T)
    nodes = rng.standard_normal((N, method.forward.s))
    p_T = rng.standard_normal(m)
    for n in range(2 if name == "peer_toy2" else 1, N + 1):
        T_n = n * (T / N)
        for label, control in (("expsum", node_samples(expsum, method.forward, n, T_n)),
                               ("nodes", nodes[:n]), ("none", None)):
            sys = build_system(RobinBC(2.0, 0.5), m, ones_profile)
            y_n = integrate_forward(method, sys, control, n, T_n)
            fresh = build_system(RobinBC(2.0, 0.5), m, ones_profile)    # no kept factors
            ref = stepped_endpoint(method.forward, fresh, control, n, T_n / n)
            assert np.array_equal(y_n, ref), (label, n)
        p_0 = integrate_adjoint(method, build_system(RobinBC(2.0, 0.5), m, ones_profile),
                                p_T, n, T_n)
        ref = stepped_endpoint(method.adjoint, build_system(RobinBC(2.0, 0.5), m, p_T),
                               None, n, T_n / n)
        assert np.array_equal(p_0, ref), n


def test_stacked_solve_returns_a_fresh_contiguous_block(rng):
    tri = build_system(RobinBC.dirichlet(), 8, ones_profile).matrix
    solver = StageSystemSolver(lobatto_iiia().A, 0.1, tri)
    first = solver.solve_stacked(rng.standard_normal((3, 8)))
    kept = first.copy()
    second = solver.solve_stacked(rng.standard_normal((3, 8)))
    assert first.flags.c_contiguous and first.dtype == float
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept)


@pytest.mark.parametrize("m", [2, 8])
def test_peer_step_stack_bitwise_equals_single_steps(m, rng):
    scheme = peer_toy2()
    sys = build_system(RobinBC(2.0, 0.5), m, ones_profile)
    h = 1.0 / 64
    g_prev, g_cur = rng.standard_normal(2), rng.standard_normal(2)
    blocks = rng.standard_normal((5, 2, m))
    for samples in ((g_prev, g_cur), (None, None)):
        for prev_F in (None, rng.standard_normal((5, 2, m))):
            Y, F = peer_step(scheme, sys, h, blocks, *samples, prev_F)
            assert Y.shape == F.shape == (5, 2, m)
            for k in range(5):
                ref_Y, ref_F = peer_step(scheme, sys, h, blocks[k], *samples,
                                         None if prev_F is None else prev_F[k])
                assert np.array_equal(Y[k], ref_Y) and np.array_equal(F[k], ref_F)


def test_peer_step_rejects_derivatives_of_another_shape():
    # a (2, 8) prev_F used to broadcast into every item of a (4, 2, 8) stack
    sys = build_system(RobinBC.dirichlet(), 8, ones_profile)
    g = np.zeros(2)
    for block, prev_F in ((np.ones((4, 2, 8)), np.ones((2, 8))),
                          (np.ones((2, 8)), np.ones((4, 2, 8))),
                          (np.ones((2, 8)), np.ones((2, 7)))):
        with pytest.raises(ValueError, match="previous stage derivatives"):
            peer_step(peer_toy2(), sys, 0.1, block, g, g, prev_F)


def test_steps_and_stage_solves_reject_inputs_of_another_shape():
    # irk_step takes one state and solve_stacked one block; peer_step also a stack
    sys = build_system(RobinBC.dirichlet(), 8, ones_profile)
    g = np.zeros(2)
    for bad in (np.array([2.0]), np.zeros(7), np.zeros((8, 1)), np.zeros((2, 3, 8)),
                np.float64(1.0), np.zeros((1, 8)), np.zeros((5, 8))):
        with pytest.raises(ValueError, match="state must have shape"):
            irk_step(gauss2(), sys, 0.1, bad, g)
    for bad in (np.zeros((2, 7)), np.zeros((3, 8)), np.zeros(16), np.zeros((1, 1, 2, 8))):
        with pytest.raises(ValueError, match="previous stage block"):
            peer_step(peer_toy2(), sys, 0.1, bad, g, g)
    solver = StageSystemSolver(gauss2().A, 0.1, sys.matrix)
    for bad in (np.zeros(8), np.zeros((3, 8)), np.zeros((2, 7)), np.zeros((1, 1, 2, 8)),
                np.zeros((0, 2, 8)), np.zeros((1, 2, 8)), np.zeros((5, 2, 8))):
        with pytest.raises(ValueError, match="right-hand side must have shape"):
            solver.solve_stacked(bad)


@pytest.mark.parametrize("bad", [np.zeros(1), np.zeros(3), np.zeros(0), np.zeros((2, 1)),
                                 np.float64(0.0)], ids=["1", "3", "0", "2x1", "scalar"])
def test_steps_reject_samples_of_another_shape(bad):
    # a length-1 g_prev used to broadcast to every stage, a long g_cur to lose its tail
    sys = build_system(RobinBC.dirichlet(), 8, ones_profile)
    g = np.zeros(2)
    with pytest.raises(ValueError, match=r"control samples must have shape \(2,\)"):
        irk_step(gauss2(), sys, 0.1, np.zeros(8), bad)
    for samples in ((bad, g), (g, bad), (bad, None), (None, bad)):
        for prev_F in (None, np.zeros((2, 8))):
            with pytest.raises(ValueError, match=r"control samples must have shape \(2,\)"):
                peer_step(peer_toy2(), sys, 0.1, np.zeros((2, 8)), *samples, prev_F)


@pytest.mark.parametrize("m", [2, 8])              # m = 2 stays unfactored
def test_steps_with_samples_none_bitwise_equal_zero_samples(m, rng):
    # None skips the forcing; adding gamma times zero samples changes no entry
    sys = build_system(RobinBC(2.0, 0.5), m, ones_profile)
    h = 1.0 / 64
    for tab in (gauss2(), lobatto_iiia(), peer_toy2().start_tableau):
        y = rng.standard_normal(m)
        free = irk_step(tab, sys, h, y, None)
        zero = irk_step(tab, sys, h, y, np.zeros(tab.s))
        assert all(np.array_equal(a, b) for a, b in zip(free, zero))
    zero_g = np.zeros(2)
    for block in (rng.standard_normal((2, m)), rng.standard_normal((5, 2, m))):
        for prev_F in (None, rng.standard_normal(block.shape)):
            free = peer_step(peer_toy2(), sys, h, block, None, None, prev_F)
            zero = peer_step(peer_toy2(), sys, h, block, zero_g, zero_g, prev_F)
            assert all(np.array_equal(a, b) for a, b in zip(free, zero))


@pytest.mark.parametrize("m", [2, 8])              # m = 2 stays unfactored
def test_empty_stacks_raise_instead_of_reaching_lapack(m):
    # scipy's ?gttrs wrapper crashes the interpreter on an (m, 0) right-hand side
    sys = build_system(RobinBC.dirichlet(), m, ones_profile)
    g = np.zeros(2)
    with pytest.raises(ValueError):
        solve_shifted(0.3, sys.matrix, np.zeros((m, 0)))
    with pytest.raises(ValueError):
        irk_step(gauss2(), sys, 0.1, np.zeros((0, m)), g)
    with pytest.raises(ValueError):
        peer_step(peer_toy2(), sys, 0.1, np.zeros((0, 2, m)), g, g)


# ---------------------------------------------------------------------------
# Peer framework
# ---------------------------------------------------------------------------

def test_toy_scheme_preconsistency_and_weights():
    scheme = peer_toy2()
    assert np.abs(scheme.B @ np.ones(2) - 1.0).max() <= 1e-13
    assert np.allclose(control_quadrature_weights(scheme), [0.75, 0.25])
    assert np.allclose(interpolatory_weights(np.array([0.0, 0.5, 1.0])),
                       [1 / 6, 2 / 3, 1 / 6])


def test_peer_step_constant_block_is_fixed_point():
    scheme = peer_toy2()
    sys = system_of(TridiagonalMatrix(np.zeros(3), np.zeros(2)))
    block = np.tile([1.7, -2.0, 0.3], (2, 1))
    new_block, _ = peer_step(scheme, sys, 0.125, block, None, None)
    assert np.abs(new_block - block).max() < 1e-14


def test_peer_step_scalar_against_dense_stage_system():
    scheme = peer_toy2()
    lam, h = -4.0, 0.1
    prev = np.array([[0.9], [0.7]])
    new_block, _ = peer_step(scheme, scalar_system(lam), h, prev, np.zeros(2), np.zeros(2))
    # dense solve of (I - h lam R) Y = (B + h lam A) Y_prev
    lhs = np.eye(2) - h * lam * scheme.R
    rhs = (scheme.B + h * lam * scheme.A) @ prev[:, 0]
    assert np.abs(new_block[:, 0] - np.linalg.solve(lhs, rhs)).max() < 1e-14


def exact_state(prob, sol):
    return lambda t: solve_ivp_exact(prob.sys, prob.dec, sol.control, t)


def test_peer_forward_second_order_on_benchmark():
    prob, sol = make_instance(8)
    y_exact = from_modal(prob.dec, sol.eta_T)
    errs = []
    for N in (32, 64, 128, 256):
        start = _exact_start(peer_toy2(), exact_state(prob, sol), 1.0 / N)
        u = node_samples(sol.control, peer_toy2(), N, 1.0)
        y_N = integrate_forward(peer_toy2(), prob.sys, u, N, 1.0, start)
        errs.append(np.abs(y_N - y_exact).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders[-1] == pytest.approx(2.0, abs=0.35)


def test_peer_collocation_start_close_to_exact_start():
    prob, sol = make_instance(8)
    start = _exact_start(peer_toy2(), exact_state(prob, sol), 1.0 / 64)
    u = node_samples(sol.control, peer_toy2(), 64, 1.0)
    a = integrate_forward(peer_toy2(), prob.sys, u, 64, 1.0, start)
    b = integrate_forward(peer_toy2(), prob.sys, u, 64, 1.0)
    assert np.abs(a - b).max() < 1e-4


def test_start_block_is_for_peer_methods_and_has_stage_shape():
    sys = build_system(RobinBC.dirichlet(), 4, ones_profile)
    block = np.ones((2, 4))
    for name in ("gauss2", "lobatto3"):
        with pytest.raises(ValueError, match="takes no start block"):
            integrate_forward(get_method(name), sys, None, 4, 1.0, block)
        with pytest.raises(ValueError, match="takes no start block"):
            integrate_adjoint(get_method(name), sys, sys.psi, 4, 1.0, block)
    for bad in (np.ones((3, 4)), np.ones((2, 5)), np.ones(8), np.ones((1, 2, 4))):
        with pytest.raises(ValueError, match="start block must have shape"):
            integrate_forward(peer_toy2(), sys, None, 4, 1.0, bad)
        with pytest.raises(ValueError, match="start block must have shape"):
            integrate_adjoint(peer_toy2(), sys, sys.psi, 4, 1.0, bad)


def test_peer_requires_two_steps():
    sys = build_system(RobinBC.dirichlet(), 4, ones_profile)
    with pytest.raises(ValueError):
        integrate_forward(peer_toy2(), sys, None, 1, 1.0)


# ---------------------------------------------------------------------------
# coefficient files
# ---------------------------------------------------------------------------

def test_load_toy_scheme_values():
    scheme = peer_toy2()
    assert scheme.s == 2
    assert np.array_equal(scheme.c, [1 / 3, 1.0])
    assert np.array_equal(scheme.R, [[0.25, 0.0], [7 / 12, 1 / 3]])
    assert scheme.order == 2


def test_placeholder_file_raises(tmp_path):
    doc = {"name": "x", "s": 2, "c": ["0.5", None],
           "B": [["1", "0"], ["0", "1"]], "A": [["0", "0"], ["0", "0"]],
           "R": [["1", "0"], ["0", "1"]], "formulation": "BAR"}
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MissingPeerCoefficientsError):
        load_peer_scheme(path)


def test_shipped_templates_are_placeholders():
    from heatoc.integrators import _packaged_peer_dir
    for name in ("AP4o43bdf", "AP4o43dif"):
        assert (_packaged_peer_dir() / f"{name}.json.template").exists()
        with pytest.raises(MissingPeerCoefficientsError):
            get_method(name)


def test_scheme_validation_errors():
    ok = dict(name="t", c=np.array([0.5, 1.0]), B=np.array([[0.0, 1.0], [0.0, 1.0]]),
              A=np.zeros((2, 2)), R=np.array([[0.25, 0.0], [0.5, 0.25]]))
    PeerScheme(**ok)
    bad_R = dict(ok, R=np.array([[0.25, 0.1], [0.5, 0.25]]))
    with pytest.raises(ConfigError):
        PeerScheme(**bad_R)
    bad_B = dict(ok, B=np.array([[0.5, 1.0], [0.0, 1.0]]))
    with pytest.raises(ConfigError):
        PeerScheme(**bad_B)
    bad_c = dict(ok, c=np.array([0.5, 0.75]))
    with pytest.raises(ConfigError):
        PeerScheme(**bad_c)


@pytest.mark.parametrize("token", ["NaN", "1e400"])        # 1e400 reads as inf
@pytest.mark.parametrize("key,where", [
    ("c", (0,)), ("B", (0, 1)), ("A", (1, 0)), ("R", (0, 0)), ("R", (1, 0)), ("R", (1, 1)),
])
def test_load_rejects_non_finite_coefficients(tmp_path, key, where, token):
    doc = json.loads((integrators._packaged_peer_dir() / "peer_toy2.json").read_text())
    entry = doc[key]
    for i in where[:-1]:
        entry = entry[i]
    entry[where[-1]] = "@"
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc).replace('"@"', token))
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        load_peer_scheme(path)


def test_load_rejects_a_repeated_key(tmp_path):
    text = (integrators._packaged_peer_dir() / "peer_toy2.json").read_text()
    path = tmp_path / "x.json"
    path.write_text(text.replace('"formulation"', '"R": [["1", "0"], ["0", "1"]],\n'
                                                  '  "formulation"'))
    with pytest.raises(ConfigError, match="repeated key 'R'"):
        load_peer_scheme(path)


def test_shipped_peer_files_have_no_repeated_key():
    for path in integrators._packaged_peer_dir().glob("*.json*"):
        json.loads(path.read_text(), object_pairs_hook=integrators._unique_keys)


def test_peer_start_tableau_is_collocation_on_the_nodes():
    scheme = peer_toy2()
    tab = collocation(scheme.c)
    assert np.array_equal(scheme.start_tableau.A, tab.A)
    assert np.array_equal(scheme.start_tableau.c, scheme.c)
    assert scheme.start_tableau is scheme.start_tableau    # built once


def test_load_rejects_formulations_other_than_bar(tmp_path):
    doc = {"name": "x", "s": 2, "c": ["1/3", "1"],
           "B": [["-1/8", "9/8"], ["-1/8", "9/8"]], "A": [["0", "0"], ["0", "0"]],
           "R": [["1/4", "0"], ["7/12", "1/3"]]}
    assert np.array_equal(load_peer_scheme(doc).R, peer_toy2().R)    # BAR when absent
    assert np.array_equal(load_peer_scheme(dict(doc, formulation="BAR")).R, peer_toy2().R)
    for other in ("ABR", "bar", None, 1):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(dict(doc, formulation=other)))
        with pytest.raises(ConfigError, match="unsupported formulation"):
            load_peer_scheme(path)


def test_peer_dir_lookup(tmp_path):
    scheme = peer_toy2()
    doc = {"name": "dir_scheme", "s": 2, "c": ["1/3", "1"],
           "B": [["-1/8", "9/8"], ["-1/8", "9/8"]],
           "A": [["0", "0"], ["0", "0"]],
           "R": [["1/4", "0"], ["7/12", "1/3"]], "formulation": "BAR", "order": 2}
    (tmp_path / "dir_scheme.json").write_text(json.dumps(doc))
    method = get_method("dir_scheme", str(tmp_path))
    assert isinstance(method.forward, PeerScheme)
    assert np.array_equal(method.forward.B, scheme.B)
    with pytest.raises(MissingPeerCoefficientsError):
        get_method("dir_scheme")          # only the explicit directory holds it


def test_missing_scheme_raises():
    with pytest.raises(MissingPeerCoefficientsError):
        get_method("definitely_not_here")


# ---------------------------------------------------------------------------
# backward integration
# ---------------------------------------------------------------------------

def test_adjoint_zero_terminal_value():
    # every state p_{8-k} of an 8-step grid on [0, 1], as the endpoint of k steps
    sys = build_system(RobinBC.dirichlet(), 6, ones_profile)
    for k in range(1, 9):
        assert np.abs(integrate_adjoint(gauss2(), sys, np.zeros(6), k, k / 8)).max() == 0.0


def test_adjoint_scalar_amplification_is_stability_factor():
    sys = build_system(RobinBC.dirichlet(), 8, ones_profile)
    dec = decompose(sys)
    k, N = 2, 8
    h = 1.0 / N
    factor = stability_function(gauss2(), h * dec.lambdas[k]).real
    # p_{N-1}: one reversed-time step back from the horizon
    p = integrate_adjoint(gauss2(), sys, dec.vectors[:, k], 1, h)
    assert np.abs(p - factor * dec.vectors[:, k]).max() < 1e-12


@pytest.mark.parametrize("name", ["gauss2", "lobatto3", "peer_toy2"])
def test_adjoint_converges_to_exact_flow(name, rng):
    sys = build_system(RobinBC.dirichlet(), 8, ones_profile)
    dec = decompose(sys)
    p_T = dec.vectors[:, :3] @ np.array([0.4, -0.2, 0.1])
    exact0 = adjoint_exact(dec, p_T, 0.0, 1.0)
    method = get_method(name)
    errs = []
    for N in (16, 32, 64):
        start = _exact_start(method.adjoint, lambda t: adjoint_exact(dec, p_T, 0.0, t),
                             1.0 / N)
        p_0 = integrate_adjoint(method, sys, p_T, N, 1.0, start)
        errs.append(np.abs(p_0 - exact0).max())
    order = np.log2(errs[-2] / errs[-1])
    assert order >= (3.5 if method.order == 4 else 1.6)


@pytest.mark.parametrize("N", [2, 3, 16])
@pytest.mark.parametrize("name,start", [
    ("gauss2", "exact"), ("lobatto3", "exact"),
    ("peer_toy2", "exact"), ("peer_toy2", "collocation"),
])
def test_adjoint_is_reversed_homogeneous_forward_sweep(name, start, N, rng):
    # "exact" starts a Peer sweep from the closed-form block; one-step methods take none
    sys = build_system(RobinBC(2.0, 0.5), 8, ones_profile)
    dec = decompose(sys)
    p_T = rng.standard_normal(8)
    method = get_method(name)
    start_sys = build_system(sys.bc, 8, p_T.copy())    # makes its psi read-only
    # every state p_{N-k} of an N-step grid on [0, 1], as the endpoint of k steps
    for k in range(2 if name == "peer_toy2" else 1, N + 1):
        T_k = k * (1.0 / N)
        block = (_exact_start(method.adjoint, lambda t: adjoint_exact(dec, p_T, 0.0, t),
                              T_k / k)
                 if start == "exact" else None)
        p = integrate_adjoint(method, sys, p_T, k, T_k, block)
        assert p_T.flags.writeable and p.shape == (8,)
        fwd = integrate_forward(method.adjoint, start_sys, None, k, T_k, block)
        assert np.array_equal(p, fwd), k


def test_lobatto_pair_uses_iiib_for_adjoint():
    method = get_method("lobatto3")
    assert method.forward.name == "lobatto_iiia"
    assert method.adjoint.name == "lobatto_iiib"
    g = get_method("gauss2")
    assert g.forward is g.adjoint


def test_integrators_import_only_heat_mol_from_the_package():
    # the exact solution judges the integrators, so they must not reach into it
    tree = ast.parse(Path(integrators.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    relative = {node.module for node in imports if getattr(node, "level", 0) > 0}
    absolute = {alias.name for node in imports if isinstance(node, ast.Import)
                for alias in node.names}
    absolute |= {node.module for node in imports
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert relative == {"heat_mol"}
    assert all(name.split(".")[0] != "heatoc" for name in absolute)
