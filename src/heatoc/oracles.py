"""Brute-force reference computations for verification.

Everything here deliberately avoids the closed-form machinery of the library:
dense eigensolvers instead of the frequency equation, scaling-and-squaring
matrix exponentials of the dense system matrix instead of modal exponentials,
phi functions and Cauchy forms, and finite differences of the discrete
objective instead of the transposed sweeps.  These routines back the `verify`
CLI subcommand and the test suite, and are never part of a production solve
path.

The forcing integrals of the state and the shooting Gramian are exact block
exponentials (Van Loan, "Computing integrals involving the matrix
exponential", IEEE TAC 23, 1978): an exponential-sum control solves a
diagonal linear ODE, and an integral of expm(s K) v is the last column of the
exponential of [[K, v], [0, 0]].  So the verify gate needs only
``scipy.linalg.expm``, and neither importing this module nor
``run_verification`` loads ``scipy.integrate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .heat_mol import MolSystem, RobinBC, build_system, ones_profile
from .spectrum import decompose
from .exact_oc import (
    ExpSumFunction, OcProblem, adjoint_exact, build_Q, solve_ivp_exact, solve_terminal,
)
from .discrete_opt import discrete_objective, discrete_gradient
from .integrators import get_method
from .bench import DEFAULT_DELTAS, benchmark_instance


def dense_matrix(sys: MolSystem) -> np.ndarray:
    """Densely assembled system matrix (test oracle only)."""
    tri = sys.matrix
    return np.diag(tri.diagonal) + np.diag(tri.off, 1) + np.diag(tri.off, -1)


def dense_eigendecomposition(sys: MolSystem):
    """Eigenpairs from a dense symmetric eigensolver, sorted descending."""
    lam, V = np.linalg.eigh(dense_matrix(sys))
    order = np.argsort(lam)[::-1]
    return lam[order], V[:, order]


def expm_state(sys: MolSystem, control: ExpSumFunction, t: float) -> np.ndarray:
    """y(t) from one exponential of the state augmented by the control terms.

    Each term z_l(s) = c_l exp(mu_l (T - s)) solves z_l' = -mu_l z_l, so
    (y, z) solves a linear ODE with the block upper triangular matrix
    A = [[M, b 1^T], [0, -diag(mu)]], b = gamma e_m, and y(t) is the top m
    entries of expm(t A) (psi, c exp(mu T)) (Van Loan 1978).  The start
    c exp(mu T) overflows for mu T > 709, as the integrand of the forcing
    would.
    """
    m, n = sys.m, control.n_terms
    A = np.zeros((m + n, m + n))
    A[:m, :m] = dense_matrix(sys)
    A[:m, m:] = sys.forcing_vector[:, None]
    A[m:, m:] = np.diag(-control.rates)
    x0 = np.concatenate(
        [sys.psi, control.coefficients * np.exp(control.rates * control.horizon)])
    return (expm(t * A) @ x0)[:m]


def expm_adjoint(sys: MolSystem, p_T: np.ndarray, t: float, T: float) -> np.ndarray:
    """p(t) = expm((T - t) M) p_T through the dense matrix exponential."""
    return expm((T - t) * dense_matrix(sys)) @ p_T


def shooting_terminal(prob: OcProblem):
    """Solve the optimality boundary value problem by dense single shooting.

    The coupled system for (y, p) has exponential dichotomy, so the shot is
    parameterized by the terminal multiplier q = p(T): with
    w(tau) = expm((T - tau) M) e_m the variation-of-constants form of the
    forward equation gives

        y(T) = expm(T M) psi - (gamma^2/alpha) G q,
        G = integral_0^T w(tau) w(tau)^T dtau,

    and the terminal condition q = y(T) - y_hat closes a dense m x m linear
    system.  vec(w w^T) = expm(s K) vec(e_m e_m^T) with s = T - tau and the
    Kronecker sum K = M (+) M, so vec(G) is the last column of
    expm(T [[K, vec(e_m e_m^T)], [0, 0]]) (Van Loan 1978).  That is one
    (m^2 + 1)-square exponential, O(m^6) work and O(m^4) memory: a desk-scale
    oracle.  Returns (y_T, p_T).
    """
    sys = prob.sys
    m = sys.m
    M = dense_matrix(sys)
    eye = np.eye(m)
    K = np.zeros((m * m + 1, m * m + 1))
    K[:-1, :-1] = np.kron(M, eye) + np.kron(eye, M)
    K[m * m - 1, -1] = 1.0       # vec(e_m e_m^T) has one entry, the last
    G = expm(prob.T * K)[:-1, -1].reshape(m, m)
    lhs = eye + (sys.gamma**2 / prob.alpha) * G
    q = np.linalg.solve(lhs, expm(prob.T * M) @ sys.psi - prob.y_hat)
    return q + prob.y_hat, q


def fd_gradient_check(method, prob: OcProblem, values: np.ndarray, N: int,
                      n_coords: int = 10, step: float = 1.0,
                      rng: np.random.Generator | None = None) -> float:
    """Max relative deviation between the gradient and central differences.

    The discrete objective is quadratic in the control values, so a central
    difference is exact for any step, and its error is the objective's
    roundoff divided by the step.  A step of order 1 keeps that far below
    the 1e-5 the checks allow; a small one reads mostly roundoff.
    """
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


def run_verification(rng_seed: int = 2024) -> list[CheckResult]:
    """Desk-scale oracle suite; every check is independent of the code it checks."""
    rng = np.random.default_rng(rng_seed)
    results: list[CheckResult] = []

    def record(name: str, err: float, tol: float):
        results.append(CheckResult(name, bool(err <= tol), f"err={err:.3e} tol={tol:.1e}"))

    # spectral correctness vs a dense symmetric eigensolver
    worst_lam, worst_res, worst_orth = 0.0, 0.0, 0.0
    for m in range(2, 13):
        for bc in (RobinBC.dirichlet(), RobinBC.neumann(), RobinBC(1, 1), RobinBC(3, 1),
                   RobinBC(1e-14, 1), RobinBC(1, 1e-14)):
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

    # exact state and multiplier vs dense (augmented) matrix exponentials, m = 8
    prob, sol = benchmark_instance(8, 1.0, 0.0, 1.0, 1.0, DEFAULT_DELTAS)
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
    record("exact state vs augmented expm", worst_y, 1e-10)
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
    worst_psd = np.inf
    for _ in range(100):
        w = rng.standard_normal(sys.m)
        worst_psd = min(worst_psd, float(w @ Q @ w) / float(w @ w))
    results.append(CheckResult("Q positive semi-definite (sampled)",
                               worst_psd >= -1e-12, f"min ratio={worst_psd:.3e}"))

    # discrete gradients vs central finite differences
    for name in ("gauss2", "lobatto3", "peer_toy2"):
        method = get_method(name)
        values = rng.standard_normal((16, method.s)) * 0.3
        rel = fd_gradient_check(method, prob, values, 16, rng=rng)
        record(f"discrete gradient vs finite differences [{name}]", rel, 1e-5)

    return results

