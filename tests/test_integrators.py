import copy
import json
import pickle

import numpy as np
import pytest
from scipy.linalg import solve_banded

from heatoc import (
    ConfigError, ExpSumFunction, IrkTableau, LinearOde, MissingPeerCoefficientsError,
    NumericalError, PeerScheme, RobinBC, TridiagonalMatrix, adjoint_exact,
    build_system, collocation, decompose, from_modal, gauss2, get_method,
    integrate_adjoint, integrate_forward, irk_step, load_peer_scheme,
    lobatto_iiia, lobatto_iiib, ones_profile, peer_step, peer_toy2,
    solve_ivp_exact, stability_function,
)
from heatoc.heat_mol import SHIFT_CACHE_SIZE
from heatoc.integrators import (
    StageSystemSolver, _start_tableau, interpolatory_weights, solve_shifted,
)
from conftest import make_instance


def pade22(z):
    return (1 + z / 2 + z**2 / 12) / (1 - z / 2 + z**2 / 12)


def scalar_ode(lam=0.0, forcing=None):
    return LinearOde(matrix=TridiagonalMatrix(np.array([lam]), np.zeros(0)),
                     forcing_vector=np.array([1.0]), control=forcing)


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
    y1, _ = irk_step(gauss2(), scalar_ode(lam), 0.0, h, np.array([1.0]))
    assert y1[0] == pytest.approx(pade22(h * lam).real, rel=1e-13)


def test_homogeneous_step_on_eigenvector_applies_stability_factor():
    sys = build_system(RobinBC.dirichlet(), 8, ones_profile)
    dec = decompose(sys)
    ode = LinearOde(matrix=sys.matrix)
    h = 0.01
    for tab in (gauss2(), lobatto_iiia()):
        for k in (0, 3, 7):
            v = dec.vectors[:, k]
            y1, _ = irk_step(tab, ode, 0.0, h, v)
            factor = stability_function(tab, h * dec.lambdas[k]).real
            assert np.abs(y1 - factor * v).max() < 1e-12


@pytest.mark.parametrize("factory", [gauss2, lobatto_iiia, lobatto_iiib])
def test_irk_step_against_dense_stage_system(factory, rng):
    tab = factory()
    sys = build_system(RobinBC.dirichlet(), 4, ones_profile)
    M = np.diag(sys.matrix.diagonal) + np.diag(sys.matrix.off, 1) + np.diag(sys.matrix.off, -1)
    control = lambda t: np.sin(3 * np.asarray(t)) + 1.0
    ode = LinearOde(matrix=sys.matrix, forcing_vector=sys.forcing_vector, control=control)
    h, y0 = 0.0125, rng.standard_normal(4)
    y1, stages = irk_step(tab, ode, 0.0, h, y0)
    s = tab.s
    g = control(tab.c * h)
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


def reference_stacked_solve(solver, rhs):
    Z = solver.Sinv @ rhs.astype(complex)
    X = np.array([Zi if mu == 0 else reference_shifted_solve(solver.h * mu, solver.tri, Zi)
                  for mu, Zi in zip(solver.mu, Z)])
    return np.real(solver.S @ X)


STAGE_COUPLINGS = {
    "gauss2": gauss2().A, "gauss2^T": gauss2().A.T,
    "lobatto_iiia": lobatto_iiia().A, "lobatto_iiia^T": lobatto_iiia().A.T,
    "lobatto_iiib": lobatto_iiib().A, "lobatto_iiib^T": lobatto_iiib().A.T,
    "peer_start": _start_tableau(peer_toy2()).A,
    "peer_start^T": _start_tableau(peer_toy2()).A.T,
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
        ref = reference_stacked_solve(solver, stacked)
        for _ in range(2):
            assert np.array_equal(solver.solve_stacked(stacked), ref), name


def test_shift_factors_pickle_copy_and_stay_bounded(rng):
    sys = build_system(RobinBC.dirichlet(), 16, ones_profile)
    rhs = rng.standard_normal(16)
    stacked = rng.standard_normal((2, 16))
    X = StageSystemSolver(gauss2().A, 0.01, sys.matrix).solve_stacked(stacked)
    x = solve_shifted(0.37, sys.matrix, rhs)
    assert 0 < len(sys.matrix._factors) <= SHIFT_CACHE_SIZE
    assert "_factors" not in repr(sys.matrix)
    for twin in (pickle.loads(pickle.dumps(sys)), copy.deepcopy(sys)):
        assert np.array_equal(solve_shifted(0.37, twin.matrix, rhs), x)
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
    with pytest.raises(ValueError):
        solve_shifted(0.3, tri, np.ones(7))
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
    traj = integrate_forward(gauss2(), sys, u, 2, 1.0)
    ode = LinearOde(matrix=sys.matrix, forcing_vector=sys.forcing_vector, control=u.value)
    y1, _ = irk_step(gauss2(), ode, 0.0, 0.5, sys.psi)
    y2, _ = irk_step(gauss2(), ode, 0.5, 0.5, y1)
    assert np.array_equal(traj.states[1], y1)
    assert np.array_equal(traj.states[2], y2)


def test_forward_homogeneous_fourth_order_decay():
    sys = build_system(RobinBC.dirichlet(), 8, ones_profile)
    dec = decompose(sys)
    exact = from_modal(dec, np.exp(dec.lambdas * 1.0) * (dec.vectors.T @ sys.psi))
    errs = []
    for N in (32, 64, 128):
        traj = integrate_forward(gauss2(), sys, None, N, 1.0)
        errs.append(np.abs(traj.final - exact).max())
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
    sys_like = MolSystem(m=1, xi=1.0, bc=RobinBC.dirichlet(), theta=3.0, gamma=1.0,
                         grid=np.array([0.5]), psi=np.array([q(0.0)]), matrix=tri)
    control = lambda t: dq(np.asarray(t))
    traj = integrate_forward(method, sys_like, control, 8, 1.0,
                             peer_start="collocation")
    scale = np.abs(q(traj.times)).max()
    assert np.abs(traj.states[:, 0] - q(traj.times)).max() <= 1e-12 * max(scale, 1.0)


def test_forward_benchmark_error_shrinks_from_coarsest_to_finest():
    # m=250 with the exact control: N = 2^11 must improve on N = 2^4
    prob, sol = make_instance(250)
    y_exact = from_modal(prob.dec, sol.eta_T)
    coarse = integrate_forward(gauss2(), prob.sys, sol.control, 2**4, 1.0)
    fine = integrate_forward(gauss2(), prob.sys, sol.control, 2**11, 1.0)
    err_coarse = np.abs(coarse.final - y_exact).max()
    err_fine = np.abs(fine.final - y_exact).max()
    assert np.isfinite(err_fine)
    assert err_fine < err_coarse


def test_forward_node_samples_match_callable():
    sys = build_system(RobinBC.dirichlet(), 5, ones_profile)
    u = ExpSumFunction(np.array([0.7]), np.array([-3.0]), 1.0)
    N = 8
    tab = gauss2()
    times = (np.arange(N)[:, None] + tab.c[None, :]) / N
    samples = u.value(times.ravel()).reshape(N, 2)
    t1 = integrate_forward(tab, sys, u, N, 1.0)
    t2 = integrate_forward(tab, sys, samples, N, 1.0)
    assert np.abs(t1.final - t2.final).max() < 1e-15


def test_forward_rejects_bad_sample_shape():
    sys = build_system(RobinBC.dirichlet(), 5, ones_profile)
    with pytest.raises(ValueError):
        integrate_forward(gauss2(), sys, np.zeros((4, 3)), 4, 1.0)


def test_trajectory_stage_storage():
    sys = build_system(RobinBC.dirichlet(), 5, ones_profile)
    traj = integrate_forward(gauss2(), sys, None, 4, 1.0, keep_stages=True)
    assert traj.stage_values.shape == (4, 2, 5)
    assert traj.stage_times.shape == (4, 2)
    assert np.allclose(traj.stage_times[0], gauss2().c * 0.25)


# ---------------------------------------------------------------------------
# Peer framework
# ---------------------------------------------------------------------------

def test_toy_scheme_preconsistency_and_weights():
    scheme = peer_toy2()
    assert np.abs(scheme.B @ np.ones(2) - 1.0).max() <= 1e-13
    assert np.allclose(scheme.quadrature_weights(), [0.75, 0.25])
    assert np.allclose(interpolatory_weights(np.array([0.0, 0.5, 1.0])),
                       [1 / 6, 2 / 3, 1 / 6])


def test_peer_step_constant_block_is_fixed_point():
    scheme = peer_toy2()
    tri = TridiagonalMatrix(np.zeros(3), np.zeros(2))
    ode = LinearOde(matrix=tri)
    block = np.tile([1.7, -2.0, 0.3], (2, 1))
    new_block, _ = peer_step(scheme, ode, 0.5, 0.125, block)
    assert np.abs(new_block - block).max() < 1e-14


def test_peer_step_scalar_against_dense_stage_system():
    scheme = peer_toy2()
    lam, h = -4.0, 0.1
    prev = np.array([[0.9], [0.7]])
    new_block, _ = peer_step(scheme, scalar_ode(lam), 0.2, h, prev)
    # dense solve of (I - h lam R) Y = (B + h lam A) Y_prev
    lhs = np.eye(2) - h * lam * scheme.R
    rhs = (scheme.B + h * lam * scheme.A) @ prev[:, 0]
    assert np.abs(new_block[:, 0] - np.linalg.solve(lhs, rhs)).max() < 1e-14


def test_peer_forward_second_order_on_benchmark():
    prob, sol = make_instance(8)
    y_exact = from_modal(prob.dec, sol.eta_T)
    errs = []
    for N in (32, 64, 128, 256):
        traj = integrate_forward(peer_toy2(), prob.sys, sol.control, N, 1.0,
                                 dec=prob.dec)
        errs.append(np.abs(traj.final - y_exact).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders[-1] == pytest.approx(2.0, abs=0.35)


def test_peer_collocation_start_close_to_exact_start():
    prob, sol = make_instance(8)
    a = integrate_forward(peer_toy2(), prob.sys, sol.control, 64, 1.0,
                          dec=prob.dec, peer_start="exact")
    b = integrate_forward(peer_toy2(), prob.sys, sol.control, 64, 1.0,
                          peer_start="collocation")
    assert np.abs(a.final - b.final).max() < 1e-4
    with pytest.raises(ValueError):
        integrate_forward(peer_toy2(), prob.sys, sol.control, 64, 1.0,
                          peer_start="exact")   # decomposition missing


def test_peer_requires_two_steps():
    sys = build_system(RobinBC.dirichlet(), 4, ones_profile)
    with pytest.raises(ValueError):
        integrate_forward(peer_toy2(), sys, None, 1, 1.0, peer_start="collocation")


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


def test_peer_dir_environment_lookup(tmp_path, monkeypatch):
    scheme = peer_toy2()
    doc = {"name": "env_scheme", "s": 2, "c": ["1/3", "1"],
           "B": [["-1/8", "9/8"], ["-1/8", "9/8"]],
           "A": [["0", "0"], ["0", "0"]],
           "R": [["1/4", "0"], ["7/12", "1/3"]], "formulation": "BAR", "order": 2}
    (tmp_path / "env_scheme.json").write_text(json.dumps(doc))
    monkeypatch.setenv("HEATOC_PEER_DIR", str(tmp_path))
    method = get_method("env_scheme")
    assert isinstance(method.forward, PeerScheme)
    assert np.array_equal(method.forward.B, scheme.B)


def test_missing_scheme_raises():
    with pytest.raises(MissingPeerCoefficientsError):
        get_method("definitely_not_here")


# ---------------------------------------------------------------------------
# backward integration
# ---------------------------------------------------------------------------

def test_adjoint_zero_terminal_value():
    sys = build_system(RobinBC.dirichlet(), 6, ones_profile)
    traj = integrate_adjoint(gauss2(), sys, np.zeros(6), 8, 1.0)
    assert np.abs(traj.states).max() == 0.0


def test_adjoint_scalar_amplification_is_stability_factor():
    sys = build_system(RobinBC.dirichlet(), 8, ones_profile)
    dec = decompose(sys)
    k, N = 2, 8
    h = 1.0 / N
    traj = integrate_adjoint(gauss2(), sys, dec.vectors[:, k], N, 1.0)
    factor = stability_function(gauss2(), h * dec.lambdas[k]).real
    # one reversed-time step back from the horizon
    assert np.abs(traj.states[N - 1] - factor * dec.vectors[:, k]).max() < 1e-12


@pytest.mark.parametrize("name", ["gauss2", "lobatto3", "peer_toy2"])
def test_adjoint_converges_to_exact_flow(name, rng):
    sys = build_system(RobinBC.dirichlet(), 8, ones_profile)
    dec = decompose(sys)
    p_T = dec.vectors[:, :3] @ np.array([0.4, -0.2, 0.1])
    exact0 = adjoint_exact(dec, p_T, 0.0, 1.0)
    method = get_method(name)
    errs = []
    for N in (16, 32, 64):
        traj = integrate_adjoint(method, sys, p_T, N, 1.0, dec=dec)
        errs.append(np.abs(traj.states[0] - exact0).max())
    order = np.log2(errs[-2] / errs[-1])
    assert order >= (3.5 if method.order == 4 else 1.6)


@pytest.mark.parametrize("N", [2, 3, 16])
@pytest.mark.parametrize("name,peer_start", [
    ("gauss2", "exact"), ("lobatto3", "exact"),
    ("peer_toy2", "exact"), ("peer_toy2", "collocation"),
])
def test_adjoint_is_reversed_homogeneous_forward_sweep(name, peer_start, N, rng):
    sys = build_system(RobinBC(2.0, 0.5), 8, ones_profile)
    dec = decompose(sys)
    p_T = rng.standard_normal(8)
    method = get_method(name)
    traj = integrate_adjoint(method, sys, p_T, N, 1.0, dec=dec, peer_start=peer_start)
    assert p_T.flags.writeable
    fwd = integrate_forward(method.adjoint, build_system(sys.bc, 8, p_T), None, N, 1.0,
                            dec=dec, peer_start=peer_start)
    assert np.array_equal(traj.times, fwd.times)
    ref = fwd.states[::-1]
    assert np.abs(traj.states - ref).max() <= 1e-13 * np.abs(ref).max()


def test_lobatto_pair_uses_iiib_for_adjoint():
    method = get_method("lobatto3")
    assert method.forward.name == "lobatto_iiia"
    assert method.adjoint.name == "lobatto_iiib"
    g = get_method("gauss2")
    assert g.forward is g.adjoint
