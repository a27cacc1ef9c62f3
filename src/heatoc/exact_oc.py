"""Closed-form solutions of the controlled system and its optimal-control
boundary value problem.

Controls and multipliers are kept in exponential-sum form
u(t) = sum_l c_l exp(mu_l (T - t)), so every convolution integral against the
modal decay factors exp(lambda_k (t - tau)) has a closed form in terms of
phi1(z) = (e^z - 1)/z.  That is what makes the reference solutions exact: no
time quadrature appears outside test oracles.

The optimal-control problem minimizes

    C = 1/2 ||y(T) - y_hat||^2
      + alpha/2 * integral of u(t)^2 over [0, T],        alpha > 0.

Eliminating the control through the stationarity relation
u = -(gamma/alpha) p_m reduces the optimality system to a linear equation
(I + Q) eta(T) = exp(T Lambda) eta(0) + Q V^T y_hat for the terminal modal
coefficients, with a positive semi-definite matrix Q, so a unique solution
always exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .heat_mol import ConfigError, MolSystem, _readonly
from .spectrum import SpectralDecomposition, from_modal, to_modal

PHI1_SERIES_THRESHOLD = 1e-4


def phi1(z):
    """First exponential-integrator phi function, phi1(z) = (e^z - 1)/z.

    Uses expm1 for |z| >= 1e-4 and a truncated Taylor series below, so the
    relative accuracy is at the 1e-15 level everywhere, including z = 0
    where phi1(0) = 1.  Accepts scalars or arrays.
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < PHI1_SERIES_THRESHOLD
    zs = np.where(small, 1.0, z)
    series = 1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))
    out = np.where(small, series, np.expm1(zs) / zs)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class ExpSumFunction:
    """Scalar function of time t of the form sum_l c_l * exp(mu_l * (T - t)).

    value(T) equals the plain sum of the coefficients.  An empty term list
    represents the zero function.
    """

    coefficients: np.ndarray
    rates: np.ndarray
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _readonly(np.atleast_1d(self.coefficients)))
        object.__setattr__(self, "rates", _readonly(np.atleast_1d(self.rates)))
        if self.coefficients.shape != self.rates.shape:
            raise ValueError("coefficients and rates must have equal length")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")

    @classmethod
    def zero(cls, horizon: float) -> "ExpSumFunction":
        return cls(np.zeros(0), np.zeros(0), horizon)

    @property
    def n_terms(self) -> int:
        return self.coefficients.shape[0]

    def value(self, t):
        """Evaluate at a scalar or an array of times."""
        tt = np.asarray(t, dtype=float)
        if self.n_terms == 0:
            out = np.zeros(tt.shape)
        else:
            out = np.exp(np.multiply.outer(self.horizon - tt, self.rates)) @ self.coefficients
        return float(out) if out.ndim == 0 else out

    def __call__(self, t):
        return self.value(t)

    def decay_convolution(self, lams: np.ndarray, t: float) -> np.ndarray:
        """Closed form of integral_0^t exp(lam*(t - tau)) * u(tau) dtau per lam.

        Each term c * exp(mu (T - tau)) contributes
        c * t * exp(mu (T - t)) * phi1((lam + mu) t).
        """
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        if self.n_terms == 0 or t == 0.0:
            return np.zeros(lams.shape)
        weights = self.coefficients * t * np.exp(self.rates * (self.horizon - t))
        return phi1(np.add.outer(lams, self.rates) * t) @ weights

    def squared_integral(self) -> float:
        """Closed form of integral_0^T u(t)^2 dt."""
        if self.n_terms == 0:
            return 0.0
        T = self.horizon
        cross = np.outer(self.coefficients, self.coefficients)
        return float(np.sum(cross * T * phi1(np.add.outer(self.rates, self.rates) * T)))


@dataclass(frozen=True, eq=False)
class OcProblem:
    """Optimal-control instance: system, decomposition, horizon, weight, target."""

    sys: MolSystem
    dec: SpectralDecomposition
    T: float
    alpha: float
    y_hat: np.ndarray

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("control penalty weight alpha must be positive")
        if self.T <= 0:
            raise ValueError("horizon T must be positive")
        y_hat = np.asarray(self.y_hat, dtype=float)
        if y_hat.shape != (self.sys.m,):
            raise ValueError("target profile dimension mismatch")
        object.__setattr__(self, "y_hat", _readonly(y_hat))


@dataclass(frozen=True, eq=False)
class ExactOcSolution:
    """Exact optimum: terminal modal state eta(T), terminal multiplier p(T)
    and the optimal control in exponential-sum form."""

    eta_T: np.ndarray
    p_T: np.ndarray
    control: ExpSumFunction

    def __post_init__(self):
        for name in ("eta_T", "p_T"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))


def solve_ivp_exact(sys: MolSystem, dec: SpectralDecomposition,
                    control: ExpSumFunction, t: float) -> np.ndarray:
    """Exact state of y' = M y + gamma e_m u(t), y(0) = psi, at time t.

    The contribution of each eigenmode is the decayed initial coefficient plus
    the closed-form convolution of the boundary forcing with the modal decay.
    """
    if not 0.0 <= t <= control.horizon:
        raise ValueError(f"time {t} outside [0, {control.horizon}]")
    eta0 = to_modal(dec, sys.psi)
    eta_t = np.exp(dec.lambdas * t) * eta0
    eta_t += sys.gamma * dec.boundary_components * control.decay_convolution(dec.lambdas, t)
    return from_modal(dec, eta_t)


def adjoint_exact(dec: SpectralDecomposition, p_T: np.ndarray, t: float,
                  horizon: float) -> np.ndarray:
    """Exact multiplier p(t) = e^((T - t) M) p_T of the backward flow p' = -M p."""
    if not 0.0 <= t <= horizon:
        raise ValueError(f"time {t} outside [0, {horizon}]")
    return from_modal(dec, np.exp(dec.lambdas * (horizon - t)) * to_modal(dec, p_T))


def build_Q(prob: OcProblem) -> np.ndarray:
    """Positive semi-definite coupling matrix of the terminal linear system.

    q_kl = (gamma^2 T / alpha) v_m[k] phi1((lambda_k + lambda_l) T) v_m[l].
    Exactly symmetric by construction.
    """
    vm = prob.dec.boundary_components
    z = np.add.outer(prob.dec.lambdas, prob.dec.lambdas) * prob.T
    return (prob.sys.gamma**2 * prob.T / prob.alpha) * np.outer(vm, vm) * phi1(z)


def solve_terminal(prob: OcProblem) -> ExactOcSolution:
    """Solve the optimality system for the terminal state and optimal control.

    Solves (I + Q) eta(T) = exp(T Lambda) eta(0) + Q V^T y_hat with a
    symmetric positive-definite Cholesky factorization, then reconstructs the
    terminal multiplier p(T) = V eta(T) - y_hat and the optimal control
    u(t) = -(gamma/alpha) sum_l <v_l, p(T)> v_m[l] exp(lambda_l (T - t)).
    """
    dec, sys = prob.dec, prob.sys
    Q = build_Q(prob)
    eta0 = to_modal(dec, sys.psi)
    target_modal = to_modal(dec, prob.y_hat)
    rhs = np.exp(dec.lambdas * prob.T) * eta0 + Q @ target_modal
    try:
        cho = scipy.linalg.cho_factor(np.eye(dec.m) + Q, lower=True)
    except scipy.linalg.LinAlgError as exc:  # cannot happen for alpha > 0
        raise RuntimeError("internal error: terminal system I + Q not positive definite") from exc
    eta_T = scipy.linalg.cho_solve(cho, rhs)
    p_modal = eta_T - target_modal
    p_T = from_modal(dec, p_modal)
    control = ExpSumFunction(
        coefficients=-(sys.gamma / prob.alpha) * p_modal * dec.boundary_components,
        rates=dec.lambdas,
        horizon=prob.T,
    )
    return ExactOcSolution(eta_T=eta_T, p_T=p_T, control=control)


def check_target(m: int, T: float, alpha: float, deltas) -> tuple[list[int], np.ndarray]:
    """Validated (mode indices, coefficients) of a sparse-target instance.

    Raises ConfigError unless T and alpha are finite and positive and the
    deltas are finite coefficients on distinct mode indices in 1..m.
    """
    if not (0 < T < np.inf and 0 < alpha < np.inf):
        raise ConfigError("horizon and penalty weight must be finite and positive")
    indices = [int(i) for i, _ in deltas]
    values = np.array([float(v) for _, v in deltas])
    if len(set(indices)) != len(indices):
        raise ConfigError("mode indices must be distinct")
    if any(not 1 <= i <= m for i in indices):
        raise ConfigError(f"mode indices must lie in 1..{m}")
    if not np.isfinite(values).all():
        raise ConfigError("delta coefficients must be finite")
    return indices, values


def sparse_target(sys: MolSystem, dec: SpectralDecomposition, T: float,
                  alpha: float, deltas) -> tuple[np.ndarray, ExactOcSolution]:
    """Construct a target profile whose optimal multiplier is modally sparse.

    ``deltas`` is a sequence of (mode index, coefficient) pairs with 1-based,
    distinct indices.  The multiplier ansatz
    p(t) = sum_l delta_l exp(lambda_l (T - t)) v_l fixes the optimal control
    and the terminal state in closed form, and the matching target is
    y_hat = y(T) - sum_l delta_l v_l.  Invalid inputs raise ConfigError
    (``check_target``).
    """
    indices, values = check_target(sys.m, T, alpha, deltas)
    delta_vec = np.zeros(sys.m)
    for i, v in zip(indices, values):
        delta_vec[i - 1] = v

    lam = dec.lambdas
    vm = dec.boundary_components
    eta0 = to_modal(dec, sys.psi)
    coupling = phi1(np.add.outer(lam, lam) * T) @ (delta_vec * vm)
    eta_T = np.exp(lam * T) * eta0 - (sys.gamma**2 * T / alpha) * vm * coupling
    p_T = from_modal(dec, delta_vec)
    y_hat = from_modal(dec, eta_T) - p_T
    control = ExpSumFunction(
        coefficients=-(sys.gamma / alpha) * delta_vec * vm,
        rates=lam,
        horizon=T,
    )
    return y_hat, ExactOcSolution(eta_T=eta_T, p_T=p_T, control=control)


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


def exact_objective(prob: OcProblem, sol: ExactOcSolution) -> float:
    """Objective value of an exact solution, with the penalty in closed form."""
    y_T = from_modal(prob.dec, sol.eta_T)
    return 0.5 * float(np.sum((y_T - prob.y_hat) ** 2)) + \
        0.5 * prob.alpha * sol.control.squared_integral()
