"""Closed-form solutions of the controlled system and its optimal-control
boundary value problem.

Controls and multipliers are kept in exponential-sum form
u(t) = sum_l c_l exp(mu_l (T - t)), so every convolution integral against the
modal decay factors exp(lambda_k (t - tau)) has a closed form.  Per mode k and
term l it is

    t phi1((lambda_k + mu_l) t) exp(mu_l (T - t))
        = [exp(lambda_k t) exp(mu_l T) - exp(mu_l (T - t))] / (lambda_k + mu_l)

with phi1(z) = (e^z - 1)/z.  That is what makes the reference solutions
exact: no time quadrature appears outside test oracles.  ``solve_ivp_exact``
uses the right-hand (Cauchy) form, whose matrix C_kl = 1/(lambda_k + mu_l)
does not depend on t, so every time costs products over the terms whose
weight c_l exp(mu_l (T - t)) has not underflowed.  The state has one
formula, V times one modal weight less the boundary response of the live
terms; when those terms are the few slowest, that response is a
precomputed V diag(gamma v_m) C over their columns, so away from t = T
neither product reads more than a few dozen columns.  Guard entries, where
|lambda_k + mu_l| < CAUCHY_GUARD_SHIFT or mu_l > 0, keep the phi1 form,
which stays accurate where the division would cancel or overflow; the
sorted spectrum gives them without an m x m mask.

The optimal-control problem minimizes

    C = 1/2 ||y(T) - y_hat||^2
      + alpha/2 * integral of u(t)^2 over [0, T],        alpha > 0.

Eliminating the control through the stationarity relation
u = -(gamma/alpha) p_m reduces the optimality system to a linear equation
(I + Q) eta(T) = exp(T Lambda) eta(0) + Q V^T y_hat for the terminal modal
coefficients, with a positive semi-definite matrix Q, so a unique solution
always exists.  Q is the controllability Gramian of (M, gamma e_m) in the
eigenbasis; its eigenvalues decay geometrically, so ``solve_terminal``
factors it by a diagonal-pivoted Cholesky, column by column, until the
trace of the remainder is at most the unit roundoff 2^-53, which moves the
solve by at most 2^-53 times the norm of its right-hand side.  It never
forms an m x m array; ``build_Q`` forms the whole Q for the verify gate and
the tests.  Both take the columns of Q from ``_gramian_column``;
``solve_terminal`` and ``sparse_target`` both build their solution with
``_optimum``; and every transform to the eigenbasis goes through
``to_modal``, whose two-entry cache makes psi cost one m x m product per
instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .heat_mol import ConfigError, MolSystem, _readonly
from .spectrum import (
    SpectralDecomposition, from_modal, live_columns, live_product, to_modal,
)

PHI1_SERIES_THRESHOLD = 1e-4
# Shifts lambda_k + mu_l closer to zero than this stay on the phi1 form in
# solve_ivp_exact: the Cauchy form divides by the shift.
CAUCHY_GUARD_SHIFT = 1.0


def phi1(z):
    """First exponential-integrator phi function, phi1(z) = (e^z - 1)/z.

    Uses expm1 for |z| >= 1e-4 and a truncated Taylor series below, so the
    relative accuracy is at the 1e-15 level everywhere, including z = 0
    where phi1(0) = 1.  Accepts scalars or arrays.  The quotient is formed
    in the result array and the series only on the small entries, so beside
    its input an array call holds one float array of the input's size at a
    time (and boolean masks).
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < PHI1_SERIES_THRESHOLD
    out = np.expm1(z, out=np.empty(z.shape))     # an array also for 0-d z
    np.divide(out, z, out=out, where=~small)
    zs = z[small]
    out[small] = 1.0 + zs * (0.5 + zs * (1.0 / 6.0 + zs / 24.0))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class ExpSumFunction:
    """Scalar function of time t of the form sum_l c_l * exp(mu_l * (T - t)).

    value(T) equals the plain sum of the coefficients.  An empty term list
    represents the zero function.  ``solve_ivp_exact`` keeps its per-(system,
    decomposition) plans here, so they live exactly as long as the function.
    """

    coefficients: np.ndarray
    rates: np.ndarray
    horizon: float
    _ivp_plans: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _readonly(np.atleast_1d(self.coefficients)))
        object.__setattr__(self, "rates", _readonly(np.atleast_1d(self.rates)))
        if self.coefficients.ndim != 1 or self.coefficients.shape != self.rates.shape:
            raise ValueError("coefficients and rates must be 1-D of equal length")
        if not 0 < self.horizon < np.inf:
            raise ValueError("horizon must be finite and positive")

    @classmethod
    def zero(cls, horizon: float) -> "ExpSumFunction":
        return cls(np.zeros(0), np.zeros(0), horizon)

    @property
    def n_terms(self) -> int:
        return self.coefficients.shape[0]

    def value(self, t):
        """Evaluate at a scalar or an array of times.

        One ordered sum over the terms with a nonzero coefficient:
        ``out = 0``, then ``out += c_l * exp(mu_l (T - t))`` for each such l
        in index order.  Memory stays O(size of t), the bits do not depend
        on the BLAS, and a zero coefficient never meets its exponential,
        even one that overflows.
        """
        tail = self.horizon - np.asarray(t, dtype=float)
        out = np.zeros(tail.shape)
        for l in np.flatnonzero(self.coefficients):
            out += self.coefficients[l] * np.exp(self.rates[l] * tail)
        return float(out) if out.ndim == 0 else out

    def __call__(self, t):
        return self.value(t)

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
        if not 0 < self.alpha < np.inf:
            raise ValueError("control penalty weight alpha must be finite and positive")
        if not 0 < self.T < np.inf:
            raise ValueError("horizon T must be finite and positive")
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


@dataclass(frozen=True, eq=False)
class _IvpPlan:
    """The time-independent part of ``solve_ivp_exact`` for one (system,
    decomposition, control).

    ``cauchy`` is C_kl = 1/(lambda_k + mu_l), zero at the guard entries
    (``guard_rows``, ``guard_cols``, row-major, from ``_guard_entries``);
    ``coef`` and ``rates`` are c and mu with the growing columns (mu_l > 0,
    all guard entries) zeroed.  ``a = V^T psi + gamma v_m * C g(0)``, with
    g(0) = c * exp(mu T) and C g(0) a ``live_product``, is the modal weight
    that decays like exp(lambda t), and ``K = V diag(gamma v_m)
    C[:, K_cols]`` is the boundary response, one m x n_w product at build
    time.  ``K_cols`` takes the columns in order of decreasing rate, the
    order in which g(t) = c * exp(mu (T - t)) loses its terms to underflow
    as t falls from T, and keeps the first ``live_columns`` of g(0) in that
    order.  For a control sorted by decay, as every control the package
    builds, it is the leading n_w = ``live_columns(c * exp(mu T))`` columns;
    the same control with its terms permuted gets the same n_w columns,
    wherever they sit.
    """

    cauchy: np.ndarray
    coef: np.ndarray
    rates: np.ndarray
    guard_rows: np.ndarray
    guard_cols: np.ndarray
    a: np.ndarray
    K: np.ndarray
    K_cols: np.ndarray

    @classmethod
    def build(cls, sys: MolSystem, dec: SpectralDecomposition,
              control: ExpSumFunction) -> "_IvpPlan":
        mu = control.rates
        growing = mu > 0
        rows, cols = _guard_entries(dec.lambdas, mu)
        shifts = np.add.outer(dec.lambdas, mu)
        shifts[rows, cols] = np.inf
        cauchy = np.reciprocal(shifts, out=shifts)
        coef = np.where(growing, 0.0, control.coefficients)
        rates = np.where(growing, 0.0, mu)
        weights_0 = coef * np.exp(rates * control.horizon)
        boundary = sys.gamma * dec.boundary_components
        order = np.argsort(-rates, kind="stable")       # slowest decay first
        K_cols = order[:live_columns(weights_0[order])]
        return cls(cauchy=cauchy, coef=coef, rates=rates, guard_rows=rows, guard_cols=cols,
                   a=to_modal(dec, sys.psi) + boundary * live_product(cauchy, weights_0),
                   K=dec.vectors @ np.multiply(boundary[:, None], cauchy[:, K_cols], order="F"),
                   K_cols=K_cols)


def _guard_entries(lambdas: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (rows, cols) of the entries where |lambda_k + mu_l| <
    CAUCHY_GUARD_SHIFT or mu_l > 0: ``np.nonzero`` of that m x n mask, found
    without forming it.

    Every lambda_k <= 0 (``decompose``), and a column that does not grow has
    mu_l <= 0, so its sums are <= 0 and only the lower bound -G cuts.  lambda
    is strictly decreasing, so the rounded sums lambda_k + mu_l do not
    increase down a column, and its guard rows are the leading n_l rows,
    those with lambda_k + mu_l > -G.  ``np.searchsorted`` on -lambda places
    n_l to within the rounding of the sum, and the loop steps it one row at
    a time to the exact end of the rounded test.  A growing column is all
    rows.  A stable sort by row turns the column ranges into row-major order.
    """
    m = lambdas.shape[0]
    G = CAUCHY_GUARD_SHIFT
    n = np.searchsorted(-lambdas, mu + G)
    while True:
        up = n < m
        up[up] = lambdas[n[up]] + mu[up] > -G
        down = n > 0
        down[down] = ~(lambdas[n[down] - 1] + mu[down] > -G)
        if not (up.any() or down.any()):
            break
        n += up
        n -= down
    n[mu > 0] = m
    cols = np.repeat(np.arange(mu.shape[0]), n)
    rows = np.arange(cols.shape[0]) - np.repeat(np.cumsum(n) - n, n)
    order = np.argsort(rows, kind="stable")
    return rows[order], cols[order]


def solve_ivp_exact(sys: MolSystem, dec: SpectralDecomposition,
                    control: ExpSumFunction, t: float) -> np.ndarray:
    """Exact state of y' = M y + gamma e_m u(t), y(0) = psi, at time t.

    At t = 0 it returns a copy of psi.  Otherwise mode k is
    exp(lambda_k t) (V^T psi)_k plus gamma v_m[k] times the convolution of
    the control with the modal decay, evaluated in the Cauchy form

        conv(t) = exp(lambda t) * C g(0) - C g(t) + guard(t)

    with C_kl = 1/(lambda_k + mu_l) and g(t) = c * exp(mu (T - t)).  Guard
    entries, where |lambda_k + mu_l| < CAUCHY_GUARD_SHIFT or mu_l > 0, are
    zero in C and are added in guard(t) from
    c_l t phi1((lambda_k + mu_l) t) exp(mu_l (T - t)) at each call; a
    control with rates lambda <= 0 has at most one (the Neumann pair
    lambda_1 = 0).

    The plan (C and the pair a, K, see ``_IvpPlan``) is built at the first
    call at t > 0 for a (sys, dec) pair and kept on ``control``, so it
    lives as long as the control; later calls cost O(m) memory.  Every call
    forms the one modal weight

        modal = exp(lambda t) * a + gamma v_m * guard(t)

    and the state is V (modal - gamma v_m * C g(t)).  Which product carries
    C g(t) reads g(t) alone.  If every nonzero entry of g(t) has a column
    in K (``K_cols``), the state is V modal - K g(t), with K g(t) over at
    most n_w columns; otherwise it is formed as written, with C g(t) over
    the columns up to the last nonzero entry.  One call never splits g(t)
    between K and C: the part on C would make the modal weight dense, most
    of it subnormal.  ``from_modal`` reads V only up to the last nonzero
    entry of its weight, which the decay of the modes cuts away from
    t = 0; only the second form, whose weight carries the dense C g(t),
    reads all of V.

    Accuracy is absolute: the error is at roundoff level relative to
    max(1, ||y||_inf), as every check of this module measures it.  Relative
    to its own norm a tiny state loses digits: with psi = 0 and t <= 1e-8 the
    relative error grows like 1e-16/t.
    """
    if not 0.0 <= t <= control.horizon:
        raise ValueError(f"time {t} outside [0, {control.horizon}]")
    if t == 0.0:
        return sys.psi.copy()
    plan = control._ivp_plans.get((sys, dec))
    if plan is None:
        plan = control._ivp_plans[(sys, dec)] = _IvpPlan.build(sys, dec, control)
    tail = control.horizon - t
    weights = plan.coef * np.exp(plan.rates * tail)
    rows, cols = plan.guard_rows, plan.guard_cols
    mu = control.rates[cols]
    terms = (control.coefficients[cols] * t * np.exp(mu * tail)
             * phi1((dec.lambdas[rows] + mu) * t))
    boundary = sys.gamma * dec.boundary_components
    modal = np.exp(dec.lambdas * t) * plan.a + boundary * np.bincount(
        rows, weights=terms, minlength=dec.m)
    live = weights[plan.K_cols]
    if np.count_nonzero(live) == np.count_nonzero(weights):
        return from_modal(dec, modal) - live_product(plan.K, live)
    return from_modal(dec, modal - boundary * live_product(plan.cauchy, weights))


def adjoint_exact(dec: SpectralDecomposition, p_T: np.ndarray, t: float,
                  horizon: float) -> np.ndarray:
    """Exact multiplier p(t) = e^((T - t) M) p_T of the backward flow p' = -M p.

    The transform V^T p_T comes from ``to_modal``, whose cache makes a run
    of calls with one p_T cost one m x m product.  The way back to the grid
    goes through ``from_modal``, which reads only the eigenvectors up to the
    last nonzero weight exp(lambda (T - t)) V^T p_T: the modes decay like
    exp(-(k pi)^2 (T - t)), so away from t = T a call reads a handful of
    columns of V, not m, and the result is bitwise that of the full product.
    """
    if not 0.0 <= t <= horizon:
        raise ValueError(f"time {t} outside [0, {horizon}]")
    modal = to_modal(dec, p_T)
    return from_modal(dec, np.exp(dec.lambdas * (horizon - t)) * modal)


def build_Q(prob: OcProblem) -> np.ndarray:
    """Positive semi-definite coupling matrix of the terminal linear system,
    as one m x m array, for the verify gate's PSD check and the test
    oracles; ``solve_terminal`` generates only the columns it pivots on.

    q_kl = (gamma^2 T / alpha) v_m[k] phi1((lambda_k + lambda_l) T) v_m[l].
    Filled from ``_gramian_column`` one column at a time, so beside the
    result only O(m) temporaries are held.  Exactly symmetric: the entries
    k, l and l, k are the same products of the same factors.
    """
    Q = np.empty((prob.dec.m,) * 2)
    for p in range(prob.dec.m):
        Q[p] = _gramian_column(prob, p)     # row p is column p
    return Q


def _gramian_column(prob: OcProblem, p: int) -> np.ndarray:
    """Column p of Q, (gamma^2 T / alpha) v_m v_m[p] phi1((lambda + lambda_p) T),
    in O(m)."""
    vm, lam, T = prob.dec.boundary_components, prob.dec.lambdas, prob.T
    return vm * vm[p] * (prob.sys.gamma**2 * T / prob.alpha) * phi1((lam + lam[p]) * T)


def _gramian_factor(prob: OcProblem) -> np.ndarray:
    """L^T, r rows of length m, of a diagonal-pivoted Cholesky factorization
    Q = L L^T + E.

    Q is the controllability Gramian of (M, gamma e_m) in the eigenbasis, and
    its eigenvalues decay geometrically, so a few dozen columns capture it.
    Each step takes the largest residual diagonal entry as its pivot p and
    generates column p of Q (``_gramian_column``) in O(m).  The loop stops
    once the trace of the remainder E, the sum of the residual diagonal, is
    at most the unit roundoff 2^-53, or at r = m.  E is positive
    semi-definite, so ||E||_2 <= trace(E) <= 2^-53.  The buffer doubles as
    the rank grows, so no m x m array is formed.
    """
    vm, lam, T = prob.dec.boundary_components, prob.dec.lambdas, prob.T
    scale = prob.sys.gamma**2 * T / prob.alpha
    m = lam.shape[0]
    residual = vm * vm * scale * phi1((lam + lam) * T)   # _gramian_column's order
    Lt = np.empty((1, m))
    r = 0
    while r < m and residual.sum() > 2.0**-53:
        p = int(np.argmax(residual))
        if r == Lt.shape[0]:
            Lt = np.concatenate([Lt, np.empty((min(r, m - r), m))])
        col = _gramian_column(prob, p)
        col -= Lt[:r].T @ Lt[:r, p]
        col /= math.sqrt(residual[p])
        Lt[r] = col
        residual -= col * col
        residual[p] = 0.0
        r += 1
    return Lt[:r]


def solve_terminal(prob: OcProblem) -> ExactOcSolution:
    """Solve the optimality system for the terminal state and optimal control.

    With t = V^T y_hat the system (I + Q) eta(T) = exp(T Lambda) eta(0) + Q t
    is solved in the form

        eta(T) = t + (I + Q)^-1 (exp(T Lambda) eta(0) - t),

    whose right-hand side does not carry Q t: for a small penalty weight Q is
    large, and forming Q t then solving would cancel digits.  The correction (I + Q)^-1 b is the
    modal multiplier p(T), so p(T) = V (I + Q)^-1 b, and the optimal control
    is u(t) = -(gamma/alpha) sum_l <v_l, p(T)> v_m[l] exp(lambda_l (T - t)).

    Q is never formed.  Its pivoted Cholesky factor Q ~ L L^T
    (``_gramian_factor``, r columns) gives
    (I + L L^T)^-1 b = b - L (I + L^T L)^-1 L^T b by Woodbury, with an r x r
    Cholesky factorization.  The dropped remainder E has trace at most 2^-53,
    and (I + Q)^-1 and (I + L L^T)^-1 both have norm at most 1, so the
    solve moves by at most 2^-53 ||b||.  Beside V the solve holds O(r m)
    memory, and its cost is O(r^2 m) plus at most three m x m
    matrix-vector products: V^T y_hat and V^T psi (``to_modal``, which may
    hold them already) and V p(T).
    """
    dec, sys = prob.dec, prob.sys
    target_modal = to_modal(dec, prob.y_hat)
    b = np.exp(dec.lambdas * prob.T) * to_modal(dec, sys.psi) - target_modal
    Lt = _gramian_factor(prob)
    inner = Lt @ Lt.T
    inner.flat[::Lt.shape[0] + 1] += 1.0
    # I + L^T L has eigenvalues >= 1, so the factorization cannot fail
    p_modal = b - Lt.T @ scipy.linalg.cho_solve(scipy.linalg.cho_factor(inner), Lt @ b)
    return _optimum(sys, dec, prob.T, prob.alpha, target_modal + p_modal, p_modal)


def _optimum(sys: MolSystem, dec: SpectralDecomposition, T: float, alpha: float,
             eta_T: np.ndarray, p_modal: np.ndarray) -> ExactOcSolution:
    """The optimum with terminal modal state eta_T and modal multiplier
    p_modal = V^T p(T): p(T) = V p_modal, and the control
    u(t) = -(gamma/alpha) sum_l p_modal[l] v_m[l] exp(lambda_l (T - t))."""
    control = ExpSumFunction(-(sys.gamma / alpha) * p_modal * dec.boundary_components,
                             dec.lambdas, T)
    return ExactOcSolution(eta_T=eta_T, p_T=from_modal(dec, p_modal), control=control)


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
    (``check_target``), and so does an instance whose y_hat, eta(T) or
    control coefficients are not finite in double precision, such as a
    penalty weight small enough that gamma / alpha overflows.
    """
    indices, values = check_target(sys.m, T, alpha, deltas)
    delta_vec = np.zeros(sys.m)
    for i, v in zip(indices, values):
        delta_vec[i - 1] = v

    lam = dec.lambdas
    vm = dec.boundary_components
    eta0 = to_modal(dec, sys.psi)
    cols = np.flatnonzero(delta_vec)
    with np.errstate(over="ignore", invalid="ignore"):
        coupling = phi1(np.add.outer(lam, lam[cols]) * T) @ (delta_vec[cols] * vm[cols])
        eta_T = np.exp(lam * T) * eta0 - (sys.gamma**2 * T / alpha) * vm * coupling
        sol = _optimum(sys, dec, T, alpha, eta_T, delta_vec)
        y_hat = from_modal(dec, sol.eta_T) - sol.p_T
    if not all(np.isfinite(a).all() for a in (y_hat, eta_T, sol.control.coefficients)):
        raise ConfigError(f"the exact solution overflows in double precision at m = {sys.m}, "
                          f"T = {T:g}, alpha = {alpha:g}, deltas = {list(deltas)}")
    return y_hat, sol


def exact_objective(prob: OcProblem, sol: ExactOcSolution) -> float:
    """Objective value of an exact solution, with the penalty in closed form."""
    y_T = from_modal(prob.dec, sol.eta_T)
    return 0.5 * float(np.sum((y_T - prob.y_hat) ** 2)) + \
        0.5 * prob.alpha * sol.control.squared_integral()
