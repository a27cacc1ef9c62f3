"""First-discretize-then-optimize solver for the boundary-control problem.

The control is a free value at every integrator stage node t_ni = t_n + c_i h.
The discrete objective is the tracking error of the integrated terminal state
plus the control penalty under the quadrature induced by the method's
weights.  Its gradient is assembled by one forward sweep and one backward
sweep with the exact transpose of the forward scheme's linearization, so it
is the exact gradient of the discrete objective (finite differences of the
objective are the defining contract).

The scheme is linear and time-invariant, so the terminal state is affine in
the control, y_T = y_free + J u.  ``optimize`` builds J once per call from the
method's own steps and runs conjugate gradients on the m terminal
multipliers instead of the N s control values; the matrix-free gradient
above certifies the control it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .heat_mol import ConfigError, MolSystem
from .exact_oc import OcProblem, objective
from .integrators import (
    IrkTableau, LinearOde, PeerScheme, StageSystemSolver, Trajectory,
    integrate_forward, irk_step, peer_step, solve_shifted,
    _forward_scheme, _start_tableau,
)


@dataclass(frozen=True, eq=False)
class DiscreteControl:
    """Control values on the N x s grid of integrator stage nodes."""

    values: np.ndarray
    h: float
    c: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != self.c.shape[0]:
            raise ValueError("control values must have shape (N, s)")
        if not np.all(np.isfinite(values)):
            raise ValueError("control values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def N(self) -> int:
        return self.values.shape[0]

    def node_times(self) -> np.ndarray:
        return (np.arange(self.N)[:, None] + np.asarray(self.c)[None, :]) * self.h


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the discrete optimal-control solver.

    ``algorithm`` is "cg", conjugate gradients on the terminal multipliers
    (see ``optimize``); it is the only solver.  The solve stops once the
    max-norm of the control gradient falls below ``grad_tol`` or after
    ``max_iterations`` CG steps.  ``initial_control`` starts the multiplier
    at the terminal residual y_T(u0) - y_hat of the given control.
    """

    max_iterations: int = 2000
    grad_tol: float = 1e-10
    initial_control: np.ndarray | None = None
    algorithm: str = "cg"

    def __post_init__(self):
        if not (np.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ConfigError(
                f"gradient tolerance must be finite and positive, got {self.grad_tol}")
        if self.max_iterations < 0:
            raise ConfigError(f"max_iterations must be >= 0, got {self.max_iterations}")
        if self.algorithm != "cg":
            raise ConfigError(f"unknown optimizer algorithm {self.algorithm!r}")


@dataclass
class OptimizationResult:
    """Converged (or capped) discrete optimum with diagnostics."""

    control: DiscreteControl
    objective_value: float
    gradient_norm_history: list[float]
    iterations: int
    converged: bool
    state: Trajectory
    adjoint: np.ndarray
    control_error: float | None = None


def control_quadrature_weights(method) -> np.ndarray:
    """Per-stage weights w_i of the control penalty quadrature h * sum w_i u_ni^2."""
    scheme = _forward_scheme(method)
    if isinstance(scheme, IrkTableau):
        w = scheme.b.copy()
    elif isinstance(scheme, PeerScheme):
        w = scheme.quadrature_weights()
    else:
        raise TypeError(f"unsupported method object {scheme!r}")
    if np.any(w <= 0):
        raise ConfigError(
            f"method {getattr(scheme, 'name', '?')} induces nonpositive control "
            f"quadrature weights {w}; the discrete penalty would not be convex")
    return w


def _check_shape(values: np.ndarray, N: int, s: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (N, s):
        raise ValueError(f"control grid mismatch: expected {(N, s)}, got {values.shape}")
    return values


def discrete_objective(method, prob: OcProblem, values: np.ndarray, N: int) -> float:
    """C_h = 1/2 ||y_h(T) - y_hat||^2 + alpha/2 * h sum_{n,i} w_i u_ni^2."""
    scheme = _forward_scheme(method)
    values = _check_shape(values, N, scheme.s)
    h = prob.T / N
    y_T = integrate_forward(scheme, prob.sys, values, N, prob.T,
                            peer_start="collocation").final
    w_full = np.broadcast_to(h * control_quadrature_weights(scheme), (N, scheme.s))
    return objective(prob, y_T, values, w_full)


def _irk_backward(tab: IrkTableau, prob: OcProblem, values: np.ndarray, N: int,
                  y_T: np.ndarray):
    """Exact transpose sweep for an IRK forward map; returns (grad, multipliers)."""
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
            + h * (tab.A.T @ (W @ bvec)) + h * tab.b * (lam @ bvec)
        lam = lam + W.sum(axis=0)
        multipliers[n] = lam
    return grad, multipliers


def _peer_backward(scheme: PeerScheme, prob: OcProblem, values: np.ndarray, N: int,
                   y_T: np.ndarray):
    """Exact transpose sweep for the Peer forward map with collocation start."""
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
        # solve (I - h R^T (x) M) W = G stage by stage in reverse order
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
        grad[n] += h * (scheme.R.T @ wb)
        grad[n - 1] += h * (scheme.A.T @ wb)
        G = scheme.B.T @ W + h * (scheme.A.T @ MW)

    # transpose of the collocation starting step
    tab = _start_tableau(scheme)
    solver_t = StageSystemSolver(tab.A.T, h, sys.matrix)
    W0 = solver_t.solve_stacked(G)
    duals[0] = W0
    grad[0] += h * (tab.A.T @ (W0 @ bvec))
    return grad, duals


def discrete_gradient(method, prob: OcProblem, values: np.ndarray, N: int) -> np.ndarray:
    """Exact gradient of the discrete objective with respect to all u_ni."""
    grad, _, _, _ = _objective_and_gradient(method, prob, values, N)
    return grad


def _objective_and_gradient(method, prob: OcProblem, values: np.ndarray, N: int):
    """(gradient, objective, multipliers, forward trajectory with stages) at ``values``."""
    scheme = _forward_scheme(method)
    values = _check_shape(values, N, scheme.s)
    h = prob.T / N
    state = integrate_forward(scheme, prob.sys, values, N, prob.T,
                              peer_start="collocation", keep_stages=True)
    w_full = np.broadcast_to(h * control_quadrature_weights(scheme), (N, scheme.s))
    C = objective(prob, state.final, values, w_full)
    if isinstance(scheme, IrkTableau):
        grad, duals = _irk_backward(scheme, prob, values, N, state.final)
    else:
        grad, duals = _peer_backward(scheme, prob, values, N, state.final)
    return grad, C, duals, state


def _terminal_map(scheme, sys: MolSystem, h: float, N: int) -> np.ndarray:
    """Linear part J of the terminal map y_T = y_free + J u, returned as J^T.

    J is built by applying the method's own steps to unit vectors, so J u
    agrees with a forward sweep up to roundoff; the eigenbasis of M is not
    used.  Row n * s + i of the (N * s, m) result is dy_T / du_ni.
    """
    m, s = sys.m, scheme.s
    ode = LinearOde(matrix=sys.matrix, forcing_vector=sys.forcing_vector)
    units, zero_g = np.eye(s), np.zeros(s)
    Jt = np.empty((N, s, m))
    if isinstance(scheme, IrkTableau):
        # y_{n+1} = R y_n + V g_n, so dy_T / dg_n = R^(N-1-n) V
        solver = StageSystemSolver(scheme.A, h, sys.matrix)
        R = np.column_stack([irk_step(scheme, ode, 0.0, h, e, solver, zero_g)[0]
                             for e in np.eye(m)])
        Z = np.column_stack([irk_step(scheme, ode, 0.0, h, np.zeros(m), solver, g)[0]
                             for g in units])
        for n in range(N - 1, -1, -1):
            Jt[n] = Z.T
            Z = R @ Z
        return Jt.reshape(N * s, m)

    # Peer: the state is the stage block Y_n (flattened, s * m) with
    # Y_0 = S psi + W g_0 from the collocation start and, for n >= 1,
    # Y_n = P Y_{n-1} + G_prev g_{n-1} + G_cur g_n; y_T is the last stage of
    # Y_{N-1}.  So g_n reaches Y_{n+1} through H = P G_cur + G_prev for
    # n >= 1 and through H_0 = P W + G_prev for n = 0, and the last control
    # row only through G_cur.
    zero_block = np.zeros((s, m))

    def step(block, g_prev, g_cur):
        return peer_step(scheme, ode, 0.0, h, block, g_prev=g_prev, g_cur=g_cur)[0].ravel()

    start = _start_tableau(scheme)
    P = np.column_stack([step(e.reshape(s, m), zero_g, zero_g) for e in np.eye(s * m)])
    G_prev = np.column_stack([step(zero_block, g, zero_g) for g in units])
    G_cur = np.column_stack([step(zero_block, zero_g, g) for g in units])
    W = np.column_stack([irk_step(start, ode, 0.0, h, np.zeros(m), g_values=g)[1].ravel()
                         for g in units])
    last = slice((s - 1) * m, s * m)
    Jt[N - 1] = G_cur[last].T
    Z = np.hstack([P @ G_cur + G_prev, P @ W + G_prev])
    for n in range(N - 2, 0, -1):
        Jt[n] = Z[last, :s].T
        Z = P @ Z
    Jt[0] = Z[last, s:].T
    return Jt.reshape(N * s, m)


def optimize(method, prob: OcProblem, cfg: OptimizerConfig, N: int,
             exact_control=None) -> OptimizationResult:
    """Minimize the discrete objective over all node control values.

    With y_T = y_free + J u (see ``_terminal_map``) and the penalty
    alpha/2 u^T D u, D = diag(h w_i), stationarity reads u = -(alpha D)^-1 J^T lam
    for the terminal multiplier lam = y_T - y_hat, which solves the m x m
    symmetric positive definite system (I + J (alpha D)^-1 J^T) lam = y_free - y_hat.
    CG runs on that system.  At u(lam) the control gradient is exactly J^T r
    for the CG residual r, so CG stops once max|J^T r| <= ``grad_tol`` or
    after ``max_iterations`` steps.  The matrix-free gradient of
    ``discrete_gradient`` then certifies u: ``converged`` is True exactly
    when it has max-norm <= ``grad_tol``.  When the certificate fails while
    the recursive residual passed, CG restarts from the true residual
    y_T(u) - y_hat - lam; it stops, flagged non-converged, once a restart no
    longer lowers the certified gradient (the tolerance is below the
    roundoff floor).  When ``exact_control`` is given, the result records
    max_{n,i} |u(t_ni) - u_h(t_ni)| against it.
    """
    scheme = _forward_scheme(method)
    s = scheme.s
    h = prob.T / N
    u = np.zeros((N, s)) if cfg.initial_control is None \
        else _check_shape(cfg.initial_control, N, s)
    y_free = integrate_forward(scheme, prob.sys, None, N, prob.T,
                               peer_start="collocation").final
    Jt = _terminal_map(scheme, prob.sys, h, N)
    alpha_D = prob.alpha * h * np.tile(control_quadrature_weights(scheme), N)

    def K(v):
        return v + ((Jt @ v) / alpha_D) @ Jt

    b = y_free - prob.y_hat
    lam = b + u.ravel() @ Jt
    r = b - K(lam)
    p = r.copy()
    rs = float(r @ r)
    history: list[float] = []
    iterations = 0
    restart_norm = np.inf
    while True:
        gnorm = float(np.abs(Jt @ r).max())
        history.append(gnorm)
        if gnorm > cfg.grad_tol and iterations < cfg.max_iterations:
            Kp = K(p)
            curvature = float(p @ Kp)
            if rs > 0 and curvature > 0:       # both underflow once r is tiny
                a = rs / curvature
                lam = lam + a * p
                r = r - a * Kp
                rs_new = float(r @ r)
                p = r + (rs_new / rs) * p
                rs = rs_new
                iterations += 1
                continue
        u = (-(Jt @ lam) / alpha_D).reshape(N, s)
        grad, C, duals, state = _objective_and_gradient(method, prob, u, N)
        final_norm = float(np.abs(grad).max())
        if final_norm <= cfg.grad_tol or final_norm >= restart_norm \
                or iterations == cfg.max_iterations:
            break
        restart_norm = final_norm
        r = state.final - prob.y_hat - lam
        p = r.copy()
        rs = float(r @ r)

    history.append(final_norm)
    converged = final_norm <= cfg.grad_tol
    control = DiscreteControl(values=u, h=h, c=np.asarray(scheme.c))
    err = None
    if exact_control is not None:
        err = float(np.abs(u - exact_control(control.node_times().ravel())
                           .reshape(N, s)).max())
    return OptimizationResult(control=control, objective_value=C,
                              gradient_norm_history=history,
                              iterations=iterations, converged=converged,
                              state=state, adjoint=duals, control_error=err)
