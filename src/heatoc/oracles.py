"""Brute-force reference computations for verification.

Everything here deliberately avoids the closed-form machinery of the library:
dense eigensolvers instead of the frequency equation, scaling-and-squaring
matrix exponentials plus adaptive quadrature instead of modal exponentials and
phi functions, and finite differences of the discrete objective instead of
the transposed sweeps.  These routines back the `verify` CLI subcommand and
the test suite, and are never part of a production solve path.

The quadrature stack (``scipy.integrate``, which pulls in ``scipy.optimize``,
``scipy.special`` and ``scipy.sparse``) is imported on first use inside the
three routines that integrate, so importing this module, or running a
scenario without verification, never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .heat_mol import MolSystem, RobinBC, build_system, ones_profile
from .spectrum import decompose
from .exact_oc import (
    ExpSumFunction, OcProblem, adjoint_exact, build_Q, sparse_target,
    solve_ivp_exact, solve_terminal,
)
from .discrete_opt import discrete_objective, discrete_gradient
from .integrators import _forward_scheme, get_method


def dense_matrix(sys: MolSystem) -> np.ndarray:
    """Densely assembled system matrix (test oracle only)."""
    tri = sys.matrix
    return np.diag(tri.diagonal) + np.diag(tri.off, 1) + np.diag(tri.off, -1)


def dense_eigendecomposition(sys: MolSystem):
    """Eigenpairs from a dense symmetric eigensolver, sorted descending."""
    lam, V = np.linalg.eigh(dense_matrix(sys))
    order = np.argsort(lam)[::-1]
    return lam[order], V[:, order]


def expm_state(sys: MolSystem, control: ExpSumFunction, t: float,
               tol: float = 1e-13) -> np.ndarray:
    """y(t) by scaling-and-squaring expm plus adaptive quadrature of the forcing."""
    M = dense_matrix(sys)
    y = expm(t * M) @ sys.psi
    if control.n_terms > 0 and t > 0:
        from scipy.integrate import quad_vec

        bvec = sys.forcing_vector

        def integrand(tau):
            return expm((t - tau) * M) @ bvec * control.value(tau)

        conv, _ = quad_vec(integrand, 0.0, t, epsabs=tol, epsrel=tol)
        y = y + conv
    return y


def expm_adjoint(sys: MolSystem, p_T: np.ndarray, t: float, T: float) -> np.ndarray:
    """p(t) = expm((T - t) M) p_T through the dense matrix exponential."""
    return expm((T - t) * dense_matrix(sys)) @ p_T


def shooting_terminal(prob: OcProblem, tol: float = 1e-13):
    """Solve the optimality boundary value problem by dense single shooting.

    The coupled system for (y, p) has exponential dichotomy, so the shot is
    parameterized by the terminal multiplier q = p(T): with
    w(tau) = expm((T - tau) M) e_m the variation-of-constants form of the
    forward equation gives

        y(T) = expm(T M) psi - (gamma^2/alpha) G q,
        G = integral_0^T w(tau) w(tau)^T dtau,

    and the terminal condition q = y(T) - y_hat closes a dense m x m linear
    system.  Only expm and adaptive quadrature are used; returns (y_T, p_T).
    """
    from scipy.integrate import quad_vec

    sys = prob.sys
    M = dense_matrix(sys)
    em = np.zeros(sys.m)
    em[-1] = 1.0

    def integrand(tau):
        w = expm((prob.T - tau) * M) @ em
        return np.outer(w, w)

    G, _ = quad_vec(integrand, 0.0, prob.T, epsabs=tol, epsrel=tol)
    lhs = np.eye(sys.m) + (sys.gamma**2 / prob.alpha) * G
    q = np.linalg.solve(lhs, expm(prob.T * M) @ sys.psi - prob.y_hat)
    return q + prob.y_hat, q


def q_quadratic_form(prob: OcProblem, w: np.ndarray, tol: float = 1e-12) -> float:
    """w^T Q w evaluated by adaptive quadrature of its integral representation."""
    from scipy.integrate import quad

    lam = prob.dec.lambdas
    vm = prob.dec.boundary_components

    def integrand(tau):
        return float(np.sum(np.exp(lam * prob.T * tau) * vm * w)) ** 2

    val, _ = quad(integrand, 0.0, 1.0, epsabs=tol, epsrel=tol, limit=200)
    return prob.sys.gamma**2 * prob.T / prob.alpha * val


def fd_gradient_check(method, prob: OcProblem, values: np.ndarray, N: int,
                      n_coords: int = 10, step: float = 1e-6,
                      rng: np.random.Generator | None = None) -> float:
    """Max relative deviation between the gradient and central differences."""
    rng = rng or np.random.default_rng(0)
    grad = discrete_gradient(method, prob, values, N)
    worst = 0.0
    for _ in range(n_coords):
        n = int(rng.integers(values.shape[0]))
        i = int(rng.integers(values.shape[1]))
        up = values.copy()
        up[n, i] += step
        dn = values.copy()
        dn[n, i] -= step
        fd = (discrete_objective(method, prob, up, N)
              - discrete_objective(method, prob, dn, N)) / (2 * step)
        worst = max(worst, abs(fd - grad[n, i]) / max(abs(fd), 1e-12))
    return worst


# ---------------------------------------------------------------------------
# the desk-scale verification suite behind `heatoc verify` / --verify
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _bench_instance(m: int):
    sys = build_system(RobinBC.dirichlet(), m, ones_profile)
    dec = decompose(sys)
    y_hat, sol = sparse_target(sys, dec, T=1.0, alpha=1.0,
                               deltas=[(1, 1 / 75), (2, 1 / 75)])
    prob = OcProblem(sys=sys, dec=dec, T=1.0, alpha=1.0, y_hat=y_hat)
    return prob, sol


def run_verification(rng_seed: int = 2024) -> list[CheckResult]:
    """Desk-scale oracle suite; every check is independent of the code it checks."""
    rng = np.random.default_rng(rng_seed)
    results: list[CheckResult] = []

    def record(name: str, err: float, tol: float):
        results.append(CheckResult(name, bool(err <= tol), f"err={err:.3e} tol={tol:.1e}"))

    # spectral correctness vs a dense symmetric eigensolver
    worst_lam, worst_res, worst_orth = 0.0, 0.0, 0.0
    for m in range(2, 13):
        for bc in (RobinBC.dirichlet(), RobinBC.neumann(), RobinBC(1, 1), RobinBC(3, 1)):
            sys = build_system(bc, m, ones_profile)
            dec = decompose(sys)
            lam_ref, _ = dense_eigendecomposition(sys)
            worst_lam = max(worst_lam, float(np.abs(dec.lambdas - lam_ref).max()) / m**2)
            Mv = dense_matrix(sys) @ dec.vectors
            worst_res = max(worst_res, float(np.abs(Mv - dec.vectors * dec.lambdas).max()) / m**2)
            gram = dec.vectors.T @ dec.vectors - np.eye(m)
            worst_orth = max(worst_orth, float(np.abs(gram).max()))
    record("eigenvalues vs dense eigensolver (scaled)", worst_lam, 1e-9)
    record("eigenvector residuals (scaled)", worst_res, 1e-10)
    record("eigenvector orthonormality", worst_orth, 1e-12)

    # exact state and multiplier vs expm + adaptive quadrature
    prob, sol = _bench_instance(8)
    sys, dec, T = prob.sys, prob.dec, prob.T
    worst_y, worst_p = 0.0, 0.0
    for _ in range(20):
        coeffs = rng.standard_normal(2)
        rates = -rng.uniform(0.0, 5.0, size=2)
        u = ExpSumFunction(coeffs, rates, T)
        t = float(rng.uniform(0.0, T))
        worst_y = max(worst_y, float(np.abs(
            solve_ivp_exact(sys, dec, u, t) - expm_state(sys, u, t)).max()))
        p_T = rng.standard_normal(sys.m)
        worst_p = max(worst_p, float(np.abs(
            adjoint_exact(dec, p_T, t, T) - expm_adjoint(sys, p_T, t, T)).max()))
    record("exact state vs expm+quadrature", worst_y, 1e-10)
    record("exact multiplier vs expm", worst_p, 1e-10)

    # optimality system vs dense shooting, and PSD sampling of Q
    terminal = solve_terminal(prob)
    y_T_shoot, p_T_shoot = shooting_terminal(prob)
    err_shoot = max(
        float(np.abs(prob.dec.vectors @ terminal.eta_T - y_T_shoot).max()),
        float(np.abs(terminal.p_T - p_T_shoot).max()))
    record("terminal solve vs dense shooting", err_shoot, 1e-8)
    err_round = float(np.abs(terminal.eta_T - sol.eta_T).max())
    record("sparse-target round trip", err_round, 1e-10)
    Q = build_Q(prob)
    worst_psd = 0.0
    for _ in range(100):
        w = rng.standard_normal(sys.m)
        worst_psd = min(worst_psd, float(w @ Q @ w) / float(w @ w))
    results.append(CheckResult("Q positive semi-definite (sampled)",
                               worst_psd >= -1e-12, f"min ratio={worst_psd:.3e}"))

    # discrete gradients vs central finite differences
    for name in ("gauss2", "lobatto3", "peer_toy2"):
        method = get_method(name)
        values = rng.standard_normal((16, _forward_scheme(method).s)) * 0.3
        rel = fd_gradient_check(method, prob, values, 16, rng=rng)
        record(f"discrete gradient vs finite differences [{name}]", rel, 1e-5)

    return results

