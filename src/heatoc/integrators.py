"""Stiff implicit time integrators for linear systems y' = M y + g(t) b.

Provides the 2-stage Gauss method, the 3-stage Lobatto IIIA / IIIB pair, and
a coefficient-driven implicit two-step Peer framework, plus forward and
terminal-value backward integration on uniform grids.  Both sweeps run one
forward recursion (``_sweep``): the backward sweep is that recursion for
the method's adjoint scheme on the homogeneous system started at p(T), in
reversed time.

The coupled implicit stage systems are solved by diagonalizing the small
stage-coupling matrix over the complex numbers, which reduces each step to a
handful of shifted tridiagonal solves (I - h mu M) z = r of O(m) size.  Each
shift h mu is factored once per matrix (LAPACK ?gttrf, kept on the
TridiagonalMatrix), so a solve is one ?gttrs.  The known eigenbasis of M is
never used inside a method under test; it only supplies exact starting
blocks for two-step methods when requested.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .heat_mol import ConfigError, TridiagonalMatrix, MolSystem, _readonly
from .exact_oc import ExpSumFunction, solve_ivp_exact
from .spectrum import SpectralDecomposition

PEER_DIR_ENV = "HEATOC_PEER_DIR"
ORDER4_TOL = 1e-13


class NumericalError(RuntimeError):
    """Numerical failure inside an integrator or solver."""


class MissingPeerCoefficientsError(RuntimeError):
    """A requested Peer coefficient file is absent or still a placeholder."""


# ---------------------------------------------------------------------------
# implicit Runge-Kutta tableaus
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class IrkTableau:
    """Butcher tableau (A, b, c) of an implicit Runge-Kutta method."""

    name: str
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _readonly(self.A))
        object.__setattr__(self, "b", _readonly(self.b))
        object.__setattr__(self, "c", _readonly(self.c))
        s = self.b.shape[0]
        if self.A.shape != (s, s) or self.c.shape != (s,):
            raise ConfigError(f"inconsistent tableau shapes for {self.name}")

    @property
    def s(self) -> int:
        return self.b.shape[0]

    def order4_residuals(self) -> np.ndarray:
        """Residuals of the eight scalar conditions for classical order four."""
        A, b, c = self.A, self.b, self.c
        return np.array([
            b.sum() - 1.0,
            b @ c - 0.5,
            b @ c**2 - 1.0 / 3.0,
            b @ (A @ c) - 1.0 / 6.0,
            b @ c**3 - 0.25,
            (b * c) @ (A @ c) - 0.125,
            b @ (A @ c**2) - 1.0 / 12.0,
            b @ (A @ (A @ c)) - 1.0 / 24.0,
        ])


def _validated_order4(tab: IrkTableau) -> IrkTableau:
    resid = np.abs(tab.order4_residuals()).max()
    if resid > ORDER4_TOL:
        raise ConfigError(f"tableau {tab.name} violates order-4 conditions (residual {resid:.2e})")
    rowsum = np.abs(tab.A.sum(axis=1) - tab.c).max()
    if rowsum > ORDER4_TOL:
        raise ConfigError(f"tableau {tab.name} violates row-sum consistency ({rowsum:.2e})")
    return tab


def gauss2() -> IrkTableau:
    """Symmetric 2-stage Gauss method of order four."""
    r = np.sqrt(3.0) / 6.0
    return _validated_order4(IrkTableau(
        name="gauss2",
        A=np.array([[0.25, 0.25 - r], [0.25 + r, 0.25]]),
        b=np.array([0.5, 0.5]),
        c=np.array([0.5 - r, 0.5 + r]),
    ))


def lobatto_iiia() -> IrkTableau:
    """3-stage Lobatto IIIA method of order four (explicit first stage)."""
    return _validated_order4(IrkTableau(
        name="lobatto_iiia",
        A=np.array([[0.0, 0.0, 0.0],
                    [5 / 24, 1 / 3, -1 / 24],
                    [1 / 6, 2 / 3, 1 / 6]]),
        b=np.array([1 / 6, 2 / 3, 1 / 6]),
        c=np.array([0.0, 0.5, 1.0]),
    ))


def lobatto_iiib() -> IrkTableau:
    """3-stage Lobatto IIIB method of order four, adjoint partner of IIIA."""
    return _validated_order4(IrkTableau(
        name="lobatto_iiib",
        A=np.array([[1 / 6, -1 / 6, 0.0],
                    [1 / 6, 1 / 3, 0.0],
                    [1 / 6, 5 / 6, 0.0]]),
        b=np.array([1 / 6, 2 / 3, 1 / 6]),
        c=np.array([0.0, 0.5, 1.0]),
    ))


def interpolatory_weights(c: np.ndarray) -> np.ndarray:
    """Weights of the interpolatory quadrature on [0, 1] with nodes c."""
    c = np.asarray(c, dtype=float)
    s = c.shape[0]
    vand = np.vander(c, s, increasing=True).T       # vand[q, j] = c_j^q
    moments = 1.0 / np.arange(1, s + 1)
    return np.linalg.solve(vand, moments)


def collocation(c: np.ndarray, name: str = "collocation") -> IrkTableau:
    """Collocation tableau on distinct nodes c; its stages interpolate y(t_n + c_i h)."""
    c = np.asarray(c, dtype=float)
    s = c.shape[0]
    if len(np.unique(c)) != s:
        raise ConfigError("collocation nodes must be distinct")
    vand = np.vander(c, s, increasing=True).T
    powers = np.arange(1, s + 1)
    rhs = (c[None, :] ** powers[:, None]) / powers[:, None]   # rhs[q, i] = c_i^(q+1)/(q+1)
    A = np.linalg.solve(vand, rhs).T
    return IrkTableau(name=name, A=A, b=interpolatory_weights(c), c=c)


def stability_function(tab: IrkTableau, z: complex) -> complex:
    """R(z) = 1 + z b^T (I - z A)^{-1} 1 for a scalar test problem y' = lam y."""
    s = tab.s
    sol = np.linalg.solve(np.eye(s) - z * tab.A, np.ones(s))
    return 1.0 + z * (tab.b @ sol)


# ---------------------------------------------------------------------------
# implicit two-step Peer schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PeerScheme:
    """Two-step Peer method in the form Y_n = B Y_{n-1} + h A F_{n-1} + h R F_n.

    All s stages of a block approximate the solution at t_n + c_i h.  R is
    lower triangular so the implicit stage solves proceed stage by stage; the
    last node must be c_s = 1 so the final stage provides the step endpoint.
    """

    name: str
    c: np.ndarray
    B: np.ndarray
    A: np.ndarray
    R: np.ndarray
    formulation: str = "BAR"
    order: int | None = None

    def __post_init__(self):
        for attr in ("c", "B", "A", "R"):
            object.__setattr__(self, attr, _readonly(getattr(self, attr)))
        s = self.c.shape[0]
        for attr in ("B", "A", "R"):
            if getattr(self, attr).shape != (s, s):
                raise ConfigError(f"Peer scheme {self.name}: {attr} must be {s}x{s}")
        if self.formulation != "BAR":
            raise ConfigError(f"Peer scheme {self.name}: unsupported formulation {self.formulation!r}")
        if np.abs(np.triu(self.R, 1)).max(initial=0.0) != 0.0:
            raise ConfigError(f"Peer scheme {self.name}: R must be lower triangular")
        pre = np.abs(self.B @ np.ones(s) - 1.0).max()
        if pre > 1e-13:
            raise ConfigError(f"Peer scheme {self.name}: preconsistency B*1 = 1 violated ({pre:.2e})")
        if len(np.unique(self.c)) != s:
            raise ConfigError(f"Peer scheme {self.name}: nodes must be distinct")
        if abs(self.c[-1] - 1.0) > 1e-12:
            raise ConfigError(f"Peer scheme {self.name}: last node must be 1 (step endpoint)")

    @property
    def s(self) -> int:
        return self.c.shape[0]

    def quadrature_weights(self) -> np.ndarray:
        """Per-step control quadrature weights induced by the node set."""
        return interpolatory_weights(self.c)


def _parse_entry(x, where: str) -> float:
    if x is None:
        raise MissingPeerCoefficientsError(
            f"coefficient placeholder (null) at {where}; fill in the values first")
    if isinstance(x, str):
        return float(Fraction(x))
    return float(x)


def load_peer_scheme(source) -> PeerScheme:
    """Load a Peer scheme from a JSON document.

    Schema::

        {
          "name": <str>, "s": <int>,
          "c": [<s entries>], "B": [[...]], "A": [[...]], "R": [[...]],
          "formulation": "BAR",
          "order": <int, optional>
        }

    Matrix entries are exact decimal or rational strings ("0.25", "7/12");
    plain numbers are accepted too.  Entries equal to null mark a placeholder
    file and raise MissingPeerCoefficientsError.
    """
    if isinstance(source, dict):
        doc = source
    else:
        doc = json.loads(Path(source).read_text())
    try:
        name = doc["name"]
        s = int(doc["s"])
        c = np.array([_parse_entry(x, f"c[{i}]") for i, x in enumerate(doc["c"])])
        mats = {}
        for key in ("B", "A", "R"):
            mats[key] = np.array([[_parse_entry(x, f"{key}[{i}][{j}]")
                                   for j, x in enumerate(row)]
                                  for i, row in enumerate(doc[key])])
        formulation = doc.get("formulation", "BAR")
        order = doc.get("order")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed Peer coefficient document: {exc}") from exc
    if c.shape != (s,):
        raise ConfigError(f"Peer scheme {name}: expected {s} nodes")
    return PeerScheme(name=name, c=c, B=mats["B"], A=mats["A"], R=mats["R"],
                      formulation=formulation, order=None if order is None else int(order))


def _packaged_peer_dir() -> Path:
    return Path(__file__).parent / "data" / "peer"


def find_peer_scheme(name: str, peer_dir: str | None = None) -> PeerScheme:
    """Locate a Peer coefficient file by scheme name.

    Searches, in order: the explicit directory, the directory named by the
    HEATOC_PEER_DIR environment variable, and the files shipped with the
    package.
    """
    candidates = []
    for d in (peer_dir, os.environ.get(PEER_DIR_ENV)):
        if d:
            candidates.append(Path(d) / f"{name}.json")
    candidates.append(_packaged_peer_dir() / f"{name}.json")
    for path in candidates:
        if path.exists():
            return load_peer_scheme(path)
    raise MissingPeerCoefficientsError(
        f"no coefficient file {name}.json found (searched "
        + ", ".join(str(p.parent) for p in candidates) + ")")


def peer_toy2() -> PeerScheme:
    """The shipped 2-stage order-2 test scheme for the Peer framework."""
    return find_peer_scheme("peer_toy2")


# ---------------------------------------------------------------------------
# method registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MethodSpec:
    """A named integrator: forward scheme, adjoint-sweep scheme, design order."""

    name: str
    forward: object
    adjoint: object
    order: int | None


def get_method(name: str, peer_dir: str | None = None) -> MethodSpec:
    """Resolve a method name to its forward/adjoint scheme pair.

    "gauss2" is self-adjoint; "lobatto3" pairs IIIA (state) with IIIB
    (multiplier).  Any other name is looked up as a Peer coefficient file and
    used for both sweeps.
    """
    if name == "gauss2":
        g = gauss2()
        return MethodSpec(name=name, forward=g, adjoint=g, order=4)
    if name == "lobatto3":
        return MethodSpec(name=name, forward=lobatto_iiia(),
                          adjoint=lobatto_iiib(), order=4)
    scheme = find_peer_scheme(name, peer_dir)
    return MethodSpec(name=name, forward=scheme, adjoint=scheme,
                      order=scheme.order)


# ---------------------------------------------------------------------------
# linear ODE description and trajectories
# ---------------------------------------------------------------------------

@dataclass
class LinearOde:
    """Right-hand side M y + g(t) b with a tridiagonal matrix handle.

    ``control`` may be an ExpSumFunction, any callable of time, or None for a
    homogeneous problem.
    """

    matrix: TridiagonalMatrix
    forcing_vector: np.ndarray | None = None
    control: object = None

    def __post_init__(self):
        if self.forcing_vector is not None:
            self.forcing_vector = np.asarray(self.forcing_vector, dtype=float)
            if self.forcing_vector.shape != (self.matrix.m,):
                raise ValueError("forcing vector dimension mismatch")

    def g(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        if self.control is None:
            return np.zeros(times.shape)
        values = self.control(times)
        return np.broadcast_to(np.asarray(values, dtype=float), times.shape).copy()


@dataclass
class Trajectory:
    """Uniform-grid trajectory with optional stage node values."""

    times: np.ndarray              # (N+1,)
    states: np.ndarray             # (N+1, m)
    stage_times: np.ndarray | None = None    # (N, s)
    stage_values: np.ndarray | None = None   # (N, s, m)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


# ---------------------------------------------------------------------------
# shifted tridiagonal stage solvers
# ---------------------------------------------------------------------------

def solve_shifted(z, tri: TridiagonalMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - z M) x = rhs for a tridiagonal M and scalar shift z.

    The factors of I - z M are kept on ``tri``; see
    ``TridiagonalMatrix.solve_shift``.
    """
    return tri.solve_shift(z, rhs)


class StageSystemSolver:
    """Solver for the coupled stage system (I - h K (x) M) X = RHS.

    Diagonalizes the s x s coupling matrix K over the complex numbers once,
    then each solve costs s shifted tridiagonal solves.  A zero eigenvalue
    (explicit stage) degenerates to an identity solve.
    """

    def __init__(self, K: np.ndarray, h: float, tri: TridiagonalMatrix):
        K = np.asarray(K, dtype=float)
        mu, S = np.linalg.eig(K)
        cond = np.linalg.cond(S)
        if not np.isfinite(cond) or cond > 1e8:
            raise NumericalError(
                f"stage coupling matrix is not safely diagonalizable (cond {cond:.1e})")
        self.mu = mu
        self.S = S
        self.Sinv = np.linalg.inv(S)
        self.tri = tri
        self.h = h

    def solve_stacked(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for stacked real right-hand sides of shape (s, m)."""
        if not np.isfinite(rhs).all():      # checked before Sinv @ rhs can warn
            raise ValueError("right-hand side must not contain infs or NaNs")
        Z = self.Sinv @ rhs.astype(complex)
        X = np.empty_like(Z)
        for i, z in enumerate(self.mu):
            X[i] = self.tri.solve_shift(self.h * z, Z[i])
        return np.real(self.S @ X)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def irk_step(tab: IrkTableau, ode: LinearOde, t_n: float, h: float,
             y_n: np.ndarray, solver: StageSystemSolver | None = None,
             g_values: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One implicit Runge-Kutta step; returns (y_{n+1}, stage values).

    The stages solve Y_i = y_n + h sum_j A_ij (M Y_j + g(t_n + c_j h) b); the
    update is y_{n+1} = y_n + h sum_i b_i F_i with F_i evaluated at the
    solved stages.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    if solver is None:
        solver = StageSystemSolver(tab.A, h, ode.matrix)
    g = ode.g(t_n + tab.c * h) if g_values is None else np.asarray(g_values, dtype=float)
    rhs = np.tile(y_n, (tab.s, 1))
    if ode.forcing_vector is not None:
        rhs = rhs + h * np.outer(tab.A @ g, ode.forcing_vector)
    stages = solver.solve_stacked(rhs)
    F = ode.matrix.apply(stages)
    if ode.forcing_vector is not None:
        F += np.outer(g, ode.forcing_vector)
    return y_n + h * (tab.b @ F), stages


def peer_step(scheme: PeerScheme, ode: LinearOde, t_n: float, h: float,
              prev_block: np.ndarray, prev_F: np.ndarray | None = None,
              g_prev: np.ndarray | None = None,
              g_cur: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One two-step Peer block step; returns (stage block, stage derivatives).

    The new block satisfies Y_n = B Y_{n-1} + h A F(Y_{n-1}) + h R F(Y_n) and
    is solved stage by stage since R is lower triangular.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    s, m = scheme.s, ode.matrix.m
    if prev_block.shape != (s, m):
        raise ValueError(f"previous stage block must have shape {(s, m)}")
    if g_prev is None:
        g_prev = ode.g(t_n - h + scheme.c * h)
    if g_cur is None:
        g_cur = ode.g(t_n + scheme.c * h)
    if prev_F is None:
        prev_F = ode.matrix.apply(prev_block)
        if ode.forcing_vector is not None:
            prev_F = prev_F + np.outer(g_prev, ode.forcing_vector)
    block = np.empty((s, m))
    F = np.empty((s, m))
    base = scheme.B @ prev_block + h * (scheme.A @ prev_F)
    for i in range(s):
        rhs = base[i].copy()
        for j in range(i):
            rhs += h * scheme.R[i, j] * F[j]
        if ode.forcing_vector is not None:
            rhs += h * scheme.R[i, i] * g_cur[i] * ode.forcing_vector
        block[i] = solve_shifted(h * scheme.R[i, i], ode.matrix, rhs)
        F[i] = ode.matrix.apply(block[i])
        if ode.forcing_vector is not None:
            F[i] += g_cur[i] * ode.forcing_vector
    return block, F


# ---------------------------------------------------------------------------
# full sweeps
# ---------------------------------------------------------------------------

def _forward_scheme(method):
    return method.forward if isinstance(method, MethodSpec) else method


def _adjoint_scheme(method):
    return method.adjoint if isinstance(method, MethodSpec) else method


def _start_tableau(scheme: PeerScheme) -> IrkTableau:
    """Collocation tableau on a Peer scheme's nodes; one step of it starts the scheme."""
    return collocation(scheme.c, name=f"start({scheme.name})")


def _node_values(control, N: int, s: int, c: np.ndarray, h: float):
    """Control values at all stage nodes as an (N, s) array."""
    if control is None:
        return np.zeros((N, s))
    if isinstance(control, np.ndarray):
        if control.shape != (N, s):
            raise ValueError(f"node samples must have shape {(N, s)}, got {control.shape}")
        return control
    times = (np.arange(N)[:, None] + c[None, :]) * h
    return np.asarray(control(times.ravel()), dtype=float).reshape(N, s)


def peer_start_block(scheme: PeerScheme, sys: MolSystem, control, h: float,
                     dec: SpectralDecomposition | None, mode: str,
                     g_row0: np.ndarray) -> np.ndarray:
    """Starting stage block Y_0 with Y_0i approximating y(c_i h).

    mode "exact" evaluates the closed-form solution at the first-window nodes
    (requires the spectral decomposition and an exponential-sum control, or
    None for the homogeneous problem); mode "collocation" bootstraps with one
    collocation step on the scheme's own nodes, which only needs the control
    values ``g_row0`` at those nodes.  A control of None means no forcing.
    """
    if mode == "exact":
        if dec is None:
            raise ValueError("exact Peer start requires the spectral decomposition")
        if control is None:
            control = ExpSumFunction.zero(max(h * float(np.max(scheme.c)), h))
        if not isinstance(control, ExpSumFunction):
            raise ValueError("exact Peer start requires an exponential-sum control")
        return np.stack([solve_ivp_exact(sys, dec, control, float(ci) * h)
                         for ci in scheme.c])
    if mode == "collocation":
        ode = LinearOde(matrix=sys.matrix,
                        forcing_vector=None if control is None else sys.forcing_vector)
        _, stages = irk_step(_start_tableau(scheme), ode, 0.0, h, sys.psi, g_values=g_row0)
        return stages
    raise ValueError(f"unknown Peer start mode {mode!r}")


def _sweep(scheme, sys: MolSystem, control, N: int, h: float,
           dec: SpectralDecomposition | None, peer_start: str, keep_stages: bool):
    """The forward recursion from y_0 = sys.psi over N steps of size h.

    Returns the (N+1, m) states and, with ``keep_stages``, the (N, s, m)
    stage values (else None).  A control of None means no forcing: the
    steps skip the g b terms.
    """
    if not isinstance(scheme, (IrkTableau, PeerScheme)):
        raise TypeError(f"unsupported method object {scheme!r}")
    ode = LinearOde(matrix=sys.matrix,
                    forcing_vector=None if control is None else sys.forcing_vector)
    states = np.empty((N + 1, sys.m))
    states[0] = sys.psi
    stage_values = np.empty((N, scheme.s, sys.m)) if keep_stages else None
    g_all = _node_values(control, N, scheme.s, scheme.c, h)

    if isinstance(scheme, IrkTableau):
        if N < 1:
            raise ValueError("need at least one step")
        solver = StageSystemSolver(scheme.A, h, sys.matrix)
        y = states[0]
        for n in range(N):
            y, stages = irk_step(scheme, ode, n * h, h, y, solver=solver,
                                 g_values=g_all[n])
            states[n + 1] = y
            if keep_stages:
                stage_values[n] = stages
    else:
        if N < 2:
            raise ValueError("Peer methods need at least N = 2 steps")
        block = peer_start_block(scheme, sys, control, h, dec, peer_start,
                                 g_row0=g_all[0])
        F = None                  # the first step forms F(Y_0) from g_all[0]
        states[1] = block[-1]
        if keep_stages:
            stage_values[0] = block
        for n in range(1, N):
            block, F = peer_step(scheme, ode, n * h, h, block, prev_F=F,
                                 g_prev=g_all[n - 1], g_cur=g_all[n])
            states[n + 1] = block[-1]
            if keep_stages:
                stage_values[n] = block
    return states, stage_values


def integrate_forward(method, sys: MolSystem, control, N: int, T: float,
                      dec: SpectralDecomposition | None = None,
                      peer_start: str = "exact",
                      keep_stages: bool = False) -> Trajectory:
    """Integrate y' = M y + gamma e_m u(t) from y(0) = psi on N uniform steps.

    ``control`` may be an ExpSumFunction (evaluated at the stage nodes), an
    (N, s) array of node samples, or None for the homogeneous problem.  Peer
    methods take their first stage block from the exact solution by default;
    a self-starting collocation bootstrap is selected with
    peer_start="collocation".
    """
    scheme = _forward_scheme(method)
    h = T / N
    states, stage_values = _sweep(scheme, sys, control, N, h, dec, peer_start, keep_stages)
    times = np.arange(N + 1) * h
    stage_times = (times[:N, None] + scheme.c[None, :] * h) if keep_stages else None
    return Trajectory(times=times, states=states, stage_times=stage_times,
                      stage_values=stage_values)


def integrate_adjoint(method, sys: MolSystem, p_T: np.ndarray, N: int, T: float,
                      dec: SpectralDecomposition | None = None,
                      peer_start: str = "exact") -> Trajectory:
    """Integrate the multiplier equation p' = -M p backward from p(T) = p_T.

    In reversed time q(s) = p(T - s) solves q' = M q from q(0) = p_T, so this
    is the forward recursion of ``integrate_forward``, Peer start included,
    with no control, started at p_T and run with the method's adjoint-sweep
    scheme (IIIB for the Lobatto pair, the same scheme for the self-adjoint
    Gauss method and for Peer schemes).  The returned trajectory is indexed
    by the original times, so states[0] approximates p(0).
    """
    scheme = _adjoint_scheme(method)
    p_T = np.array(p_T, dtype=float)      # a copy: MolSystem makes psi read-only in place
    if p_T.shape != (sys.m,):
        raise ValueError("terminal multiplier dimension mismatch")
    h = T / N
    states, _ = _sweep(scheme, replace(sys, psi=p_T), None, N, h, dec, peer_start, False)
    return Trajectory(times=np.arange(N + 1) * h, states=states[::-1].copy())
