"""First-discretize-then-optimize solver for the boundary-control problem.

The control is a free value at every integrator stage node t_ni = t_n + c_i h.
The discrete objective is the tracking error of the integrated terminal state
plus the control penalty under the quadrature induced by the method's
weights.  Its gradient is assembled by one forward sweep and one backward
sweep with the exact transpose of the forward scheme's linearization, so it
is the exact gradient of the discrete objective (finite differences of the
objective are the defining contract).  The transposed IRK sweep solves its
rank-one stage system by the poles of the stage coupling, one tridiagonal
solve per conjugate pair (``StageSystemSolver.poles``).

The scheme is linear and time-invariant, so the terminal state is affine in
the control, y_T = y_free + J u.  ``optimize`` builds J once per call from the
method's own steps, with y_free in the same loop.  For IRK, V = dy_{n+1}/dg_n
is one ``irk_step`` per unit control, and the stack [V; psi] is stepped N
times by the stability function R(hM) in partial fractions, so no m x m
matrix is formed.  For Peer one stack of 2 s + 1 stage blocks is stepped,
so no (s m)^2 matrix is formed.  It reduces the optimality system to the m
terminal multipliers instead of the N s control values and solves it with
one Cholesky factorization.  The matrix-free gradient above, one forward
F-form sweep (``integrate_forward``, which shares no code with the map's
propagation) and one transposed sweep, certifies the control it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .heat_mol import ConfigError, MolSystem
from .integrators import (
    IrkTableau, PeerScheme, StageSystemSolver,
    integrate_forward, irk_step, peer_step, solve_shifted,
    _forward_scheme, _step_size,
)

if TYPE_CHECKING:
    from .exact_oc import OcProblem


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

    ``grad_tol`` bounds the max-norm of the certified control gradient (see
    ``optimize``); it sets the ``converged`` flag and does not change the
    control.
    """

    grad_tol: float = 1e-10

    def __post_init__(self):
        if not (np.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ConfigError(
                f"gradient tolerance must be finite and positive, got {self.grad_tol}")


@dataclass
class OptimizationResult:
    """Discrete optimum with its certificate.

    ``gradient_norm`` is the max-norm of the matrix-free gradient at the
    returned control.  ``iterations`` is always 0: it is kept for perfbench
    and removed in the benchmark-upkeep change (ROADMAP item 1).
    """

    control: DiscreteControl
    gradient_norm: float
    converged: bool
    control_error: float | None = None
    iterations: int = 0


def control_quadrature_weights(method) -> np.ndarray:
    """Per-stage weights w_i of the control penalty quadrature h * sum w_i u_ni^2."""
    scheme = _forward_scheme(method)
    if isinstance(scheme, IrkTableau):
        w = scheme.b.copy()
    elif isinstance(scheme, PeerScheme):
        w = scheme.start_tableau.b.copy()
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


def objective(prob: OcProblem, y_T: np.ndarray, control_values: np.ndarray,
              quadrature_weights: np.ndarray) -> float:
    """Tracking-plus-penalty objective with a supplied control quadrature.

    C = 1/2 ||y_T - y_hat||_2^2 + alpha/2 * sum(w * u^2) where the weights
    come from the discrete control grid in use.
    """
    y_T = np.asarray(y_T, dtype=float)
    u = np.asarray(control_values, dtype=float)
    w = np.asarray(quadrature_weights, dtype=float)
    if y_T.shape != (prob.sys.m,):
        raise ValueError("terminal state dimension mismatch")
    if u.shape != w.shape:
        raise ValueError(f"control samples {u.shape} and weights {w.shape} differ in shape")
    return 0.5 * float(np.sum((y_T - prob.y_hat) ** 2)) + 0.5 * prob.alpha * float(np.sum(w * u**2))


def discrete_objective(method, prob: OcProblem, values: np.ndarray, N: int) -> float:
    """C_h = 1/2 ||y_h(T) - y_hat||^2 + alpha/2 * h sum_{n,i} w_i u_ni^2."""
    scheme = _forward_scheme(method)
    h = _step_size(scheme, N, prob.T)
    values = _check_shape(values, N, scheme.s)
    y_T = integrate_forward(scheme, prob.sys, values, N, prob.T)
    w_full = np.broadcast_to(h * control_quadrature_weights(scheme), (N, scheme.s))
    return objective(prob, y_T, values, w_full)


def _matmul_fixed_order(x: np.ndarray, A: np.ndarray) -> np.ndarray:
    """x @ A summed elementwise in the order j = 0..s-1, so no BLAS kernel sets its bits."""
    acc = x[..., 0, None] * A[0]
    for j in range(1, A.shape[0]):
        acc += x[..., j, None] * A[j]
    return acc


def _irk_transposed_step(tab: IrkTableau, h: float, sys: MolSystem):
    """One step of the transposed IRK sweep as a function lam -> (W e_m, lam + W^T 1).

    W is the (s, m) stage multiplier block of the transposed stage system
    (I - h A^T (x) M) W = h b (x) M lam, the transpose of the F form of
    ``irk_step``.  Its right-hand side is rank one, so with
    A^T = S diag(mu) S^-1 and beta = S^-1 b each pole j of ``solver.poles``
    contributes Re(c_j x_j^T) to W, with c_j = weight_j beta_j S[:, j] and
    x_j = (I - h mu_j M)^-1 h M lam: one solve per conjugate pair, none for
    a zero mu_j, where x_j = h M lam.  The returned step sums the poles in
    their fixed order, elementwise, so no BLAS kernel sets its bits.
    """
    solver = StageSystemSolver(tab.A.T, h, sys.matrix)
    beta = solver.Sinv @ tab.b
    terms = []
    for j, weight, solve in solver.poles:
        c = weight * beta[j] * solver.S[:, j]
        terms.append((c, c.sum(), solve))
    apply = sys.matrix.apply

    def step(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v = h * apply(lam)
        w_last = np.zeros(tab.s)
        for c, c_sum, solve in terms:
            x = v if solve is None else solve(v)
            w_last = w_last + (c * x[-1]).real
            lam = lam + (c_sum * x).real
        return w_last, lam
    return step


def _irk_backward(tab: IrkTableau, prob: OcProblem, values: np.ndarray, h: float,
                  y_T: np.ndarray) -> np.ndarray:
    """Exact transpose sweep for an IRK forward map; returns the gradient.

    The loop carries the multiplier lam through ``_irk_transposed_step``
    and keeps gamma W e_m and gamma lam_m per step; the gradient is
    assembled from them once after the loop.
    """
    sys = prob.sys
    N = values.shape[0]
    step = _irk_transposed_step(tab, h, sys)
    Wb, lam_b = np.empty((N, tab.s)), np.empty(N)
    lam = y_T - prob.y_hat
    for n in range(N - 1, -1, -1):
        lam_b[n] = lam[-1] * sys.gamma
        w_last, lam = step(lam)
        Wb[n] = w_last * sys.gamma
    w = control_quadrature_weights(tab)
    return (prob.alpha * h * w * values + h * _matmul_fixed_order(Wb, tab.A)
            + h * tab.b * lam_b[:, None])


def _peer_backward(scheme: PeerScheme, prob: OcProblem, values: np.ndarray, h: float,
                   y_T: np.ndarray) -> np.ndarray:
    """Exact transpose sweep for the Peer forward map with collocation start.

    The loop keeps gamma W e_m per step; the gradient is assembled from
    them once after the loop, each row taking its A^T term before its R^T
    term.
    """
    sys = prob.sys
    N = values.shape[0]
    apply = sys.matrix.apply
    s = scheme.s
    hR, BT, AT = h * scheme.R, scheme.B.T, scheme.A.T
    Wb = np.empty((N, s))
    G = np.zeros((s, sys.m))
    G[-1] = y_T - prob.y_hat
    W, MW = np.empty_like(G), np.empty_like(G)
    for n in range(N - 1, 0, -1):
        # solve (I - h R^T (x) M) W = G stage by stage in reverse order
        for i in range(s - 1, -1, -1):
            rhs = G[i]
            for j in range(i + 1, s):
                rhs = rhs + hR[j, i] * MW[j]
            W[i] = solve_shifted(hR[i, i], sys.matrix, rhs)
            MW[i] = apply(W[i])
        Wb[n] = W[:, -1] * sys.gamma
        G = BT @ W + h * (AT @ MW)

    # transpose of the collocation starting step
    start = scheme.start_tableau
    W0 = StageSystemSolver(start.A.T, h, sys.matrix).solve_stacked(G)
    grad = prob.alpha * h * control_quadrature_weights(scheme)[None, :] * values
    grad[:-1] += h * _matmul_fixed_order(Wb[1:], scheme.A)
    grad[1:] += h * _matmul_fixed_order(Wb[1:], scheme.R)
    grad[0] += h * _matmul_fixed_order(W0[:, -1] * sys.gamma, start.A)
    return grad


def discrete_gradient(method, prob: OcProblem, values: np.ndarray, N: int) -> np.ndarray:
    """Exact gradient of the discrete objective with respect to all u_ni.

    One forward sweep gives y_T; one transposed sweep gives the gradient.
    """
    scheme = _forward_scheme(method)
    h = _step_size(scheme, N, prob.T)
    values = _check_shape(values, N, scheme.s)
    y_T = integrate_forward(scheme, prob.sys, values, N, prob.T)
    backward = _irk_backward if isinstance(scheme, IrkTableau) else _peer_backward
    return backward(scheme, prob, values, h, y_T)


def _irk_propagator(tab: IrkTableau, solver: StageSystemSolver):
    """Y -> R(hM) Y for the stability function R of ``tab``, by partial fractions.

    ``solver`` is the stage solver of ``tab`` (coupling A = S diag(mu) S^-1)
    at step h on M.  R(z) = 1 + z b^T (I - z A)^-1 1 splits into
    R(z) = 1 + sum_j rho_j ((1 - z mu_j)^-1 - 1) over the nonzero mu_j, with
    rho_j = (b^T S)_j (S^-1 1)_j / mu_j taken from ``eig``.  So
    R(hM) Y = Y + sum_j rho_j ((I - h mu_j M)^-1 Y - Y), and
    R_inf = 1 - sum_j rho_j is never formed (the rho_j imply it to within
    6.7e-16 for Gauss-2 and exactly for Lobatto IIIA).  Over
    ``solver.poles`` this is one solve per conjugate pair, whose rho_j
    carries the weight 2, and Re of each term.  A zero mu_j is left out: R
    is bounded, so its weight (b^T S)_j (S^-1 1)_j is zero (``eig`` gives
    about 1e-17).  Y is one state (m,) or a stack (K, m).
    """
    bS, Sinv_1 = tab.b @ solver.S, solver.Sinv.sum(axis=1)
    terms = [(weight * bS[j] * Sinv_1[j] / solver.mu[j], solve)
             for j, weight, solve in solver.poles if solve is not None]

    def propagate(Y: np.ndarray) -> np.ndarray:
        out = Y
        for rho, solve in terms:
            out = out + (rho * (solve(Y.T).T - Y)).real
        return out
    return propagate


def _terminal_map(scheme, sys: MolSystem, h: float, N: int):
    """The terminal map y_T = y_free + J u, returned as (J^T, y_free).

    J is built from the method's own steps, so J u agrees with a forward
    sweep up to roundoff and the eigenbasis of M is not used.  Row
    n * s + i of the (N * s, m) J^T is dy_T / du_ni.  y_free is the terminal
    state for u = 0 (Peer with the collocation start).  For IRK, V comes
    from one ``irk_step`` per unit control and the (s + 1, m) stack
    [V; psi] is stepped N times by ``_irk_propagator``: O(N m s) work, one
    tridiagonal solve per conjugate pair of poles and step, and no m x m
    propagator.  For Peer both come from one stack of 2 s + 1 stage blocks
    stepped N - 2 times, and each item of a stacked step is bitwise its
    single step.  N must have passed ``_step_size``.
    """
    m, s = sys.m, scheme.s
    units = np.eye(s)
    Jt = np.empty((N, s, m))
    if isinstance(scheme, IrkTableau):
        # y_{n+1} = R y_n + V g_n, so dy_T / dg_n = R^(N-1-n) V and y_free = R^N psi
        solver = StageSystemSolver(scheme.A, h, sys.matrix)
        propagate = _irk_propagator(scheme, solver)
        Z = np.empty((s + 1, m))
        for j, g in enumerate(units):
            Z[j] = irk_step(scheme, sys, h, np.zeros(m), g, solver)[0]
        Z[s] = sys.psi
        for n in range(N - 1, -1, -1):
            Jt[n] = Z[:s]
            Z = propagate(Z)
        return Jt.reshape(N * s, m), Z[s]

    # Peer: Y_0 = S psi + W g_0 from the collocation start and, for n >= 1,
    # Y_n = P Y_{n-1} + G_prev g_{n-1} + G_cur g_n; y_T is the last stage of
    # Y_{N-1}.  So g_n reaches Y_{n+1} through H = P G_cur + G_prev for
    # n >= 1 and through H_0 = P W + G_prev for n = 0, the last control row
    # only through G_cur, and y_free is the last stage of P^(N-1) S psi.
    # The stack Z holds H, H_0 and P S psi, and each homogeneous step
    # applies P to all 2 s + 1 blocks, carrying their stage derivatives.
    start = scheme.start_tableau
    zero_block = np.zeros((s, m))
    Z = np.empty((2 * s + 1, s, m))
    for j, g in enumerate(units):
        G_cur, F_cur = peer_step(scheme, sys, h, zero_block, None, g)
        Jt[N - 1, j] = G_cur[-1]
        Z[j] = peer_step(scheme, sys, h, G_cur, g, None, F_cur)[0]
        W = irk_step(start, sys, h, np.zeros(m), g)[1]
        Z[s + j] = peer_step(scheme, sys, h, W, g, None)[0]
    Y0 = irk_step(start, sys, h, sys.psi, None)[1]
    Z[2 * s] = peer_step(scheme, sys, h, Y0, None, None)[0]
    F = None                      # the first step forms F(Z) = M Z itself
    for n in range(N - 2, 0, -1):
        Jt[n] = Z[:s, -1]
        Z, F = peer_step(scheme, sys, h, Z, None, None, F)
    Jt[0] = Z[s:2 * s, -1]
    return Jt.reshape(N * s, m), Z[2 * s, -1]


def optimize(method, prob: OcProblem, cfg: OptimizerConfig, N: int,
             exact_control=None) -> OptimizationResult:
    """Minimize the discrete objective over all node control values.

    With y_T = y_free + J u (see ``_terminal_map``, which returns y_free from
    the loop that builds J) and the penalty alpha/2 u^T D u, D = diag(h w_i),
    stationarity reads u = -(alpha D)^-1 J^T lam for the terminal multiplier
    lam = y_T - y_hat, which solves the m x m symmetric positive definite
    system (I + J (alpha D)^-1 J^T) lam = y_free - y_hat (Hager, Numer. Math.
    87, 2000).  One Cholesky factorization of I + X^T X,
    X = (alpha D)^-1/2 J^T, solves it, so the returned control is the
    discrete optimum up to roundoff whatever ``cfg.grad_tol`` is.  The
    matrix-free gradient of ``discrete_gradient`` (one forward sweep and one
    transposed sweep) then certifies u: ``gradient_norm`` is its max-norm
    and ``converged`` is True exactly when that is <= ``grad_tol``.  When
    ``exact_control`` is given, the result records
    max_{n,i} |u(t_ni) - u_h(t_ni)| against it.
    """
    scheme = _forward_scheme(method)
    s = scheme.s
    h = _step_size(scheme, N, prob.T)
    root_aD = np.sqrt(prob.alpha * h * np.tile(control_quadrature_weights(scheme), N))
    X, y_free = _terminal_map(scheme, prob.sys, h, N)
    X /= root_aD[:, None]
    G = X.T @ X
    G[np.diag_indices_from(G)] += 1.0
    lam = cho_solve(cho_factor(G, overwrite_a=True), y_free - prob.y_hat)
    u = (-(X @ lam) / root_aD).reshape(N, s)
    gradient_norm = float(np.abs(discrete_gradient(scheme, prob, u, N)).max())
    control = DiscreteControl(values=u, h=h, c=np.asarray(scheme.c))
    err = None
    if exact_control is not None:
        err = float(np.abs(u - exact_control(control.node_times().ravel())
                           .reshape(N, s)).max())
    return OptimizationResult(control=control, gradient_norm=gradient_norm,
                              converged=gradient_norm <= cfg.grad_tol,
                              control_error=err)
