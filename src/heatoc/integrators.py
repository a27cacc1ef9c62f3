"""Stiff implicit time integrators for the MOL system y' = M y + gamma e_m g(t).

Provides the 2-stage Gauss method, the 3-stage Lobatto IIIA / IIIB pair, and
a coefficient-driven implicit two-step Peer framework, plus forward and
terminal-value backward integration on uniform grids.  Both sweeps run one
forward recursion (``_sweep``): the backward sweep is that recursion for
the method's adjoint scheme on the homogeneous system started at p(T), in
reversed time.  A sweep keeps only its live state and returns its
endpoint, y(T) forward and p(0) backward, so it holds O(m) memory for any
number of steps.

The coupled implicit stage systems are solved by diagonalizing the small
stage-coupling matrix over the complex numbers, which reduces each step to a
handful of shifted tridiagonal solves (I - h mu M) z = r of O(m) size.  Each
shift h mu is factored once per matrix (LAPACK ?gttrf, kept on the
TridiagonalMatrix), so a solve is one ?gttrs.  The module depends on
``heat_mol`` alone: the steps take their control samples as arrays, and a
two-step method starts from a collocation bootstrap or from a stage block
the caller passes.  So the closed-form solution, which judges the methods,
never enters one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import zgttrs

from .heat_mol import ConfigError, TridiagonalMatrix, MolSystem, _readonly, _unique_keys

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
    """R(z) = 1 + z b^T (I - z A)^{-1} 1 for a scalar test problem y' = lam y.

    Evaluated as det(I - z (A - 1 b^T)) / det(I - z A) (Hairer & Wanner II,
    IV.3), which keeps its digits as |z| grows; the form above loses them
    for a tableau with an explicit stage.
    """
    eye = np.eye(tab.s)     # A - b subtracts b from every row: A - 1 b^T
    return np.linalg.det(eye - z * (tab.A - tab.b)) / np.linalg.det(eye - z * tab.A)


# ---------------------------------------------------------------------------
# implicit two-step Peer schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PeerScheme:
    """Two-step Peer method in the form Y_n = B Y_{n-1} + h A F_{n-1} + h R F_n.

    All s stages of a block approximate the solution at t_n + c_i h.  R is
    lower triangular so the implicit stage solves proceed stage by stage; the
    last node must be c_s = 1 so the final stage provides the step endpoint.
    ``start_tableau`` is the collocation tableau on the nodes c, built once:
    one step of it is the self-starting bootstrap of a sweep.
    """

    name: str
    c: np.ndarray
    B: np.ndarray
    A: np.ndarray
    R: np.ndarray
    order: int | None = None
    start_tableau: IrkTableau = field(init=False, repr=False)

    def __post_init__(self):
        for attr in ("c", "B", "A", "R"):
            object.__setattr__(self, attr, _readonly(getattr(self, attr)))
            if not np.isfinite(getattr(self, attr)).all():
                raise ConfigError(f"Peer scheme {self.name}: {attr} must be finite")
        s = self.c.shape[0]
        for attr in ("B", "A", "R"):
            if getattr(self, attr).shape != (s, s):
                raise ConfigError(f"Peer scheme {self.name}: {attr} must be {s}x{s}")
        if np.abs(np.triu(self.R, 1)).max(initial=0.0) != 0.0:
            raise ConfigError(f"Peer scheme {self.name}: R must be lower triangular")
        pre = np.abs(self.B @ np.ones(s) - 1.0).max()
        if pre > 1e-13:
            raise ConfigError(f"Peer scheme {self.name}: preconsistency B*1 = 1 violated ({pre:.2e})")
        if len(np.unique(self.c)) != s:
            raise ConfigError(f"Peer scheme {self.name}: nodes must be distinct")
        if abs(self.c[-1] - 1.0) > 1e-12:
            raise ConfigError(f"Peer scheme {self.name}: last node must be 1 (step endpoint)")
        object.__setattr__(self, "start_tableau",
                           collocation(self.c, name=f"start({self.name})"))

    @property
    def s(self) -> int:
        return self.c.shape[0]


def _parse_entry(x, where: str) -> float:
    if x is None:
        raise MissingPeerCoefficientsError(
            f"coefficient placeholder (null) at {where}; fill in the values first")
    if isinstance(x, str):
        return float(Fraction(x))
    return float(x)


def _json_int(x, key: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ConfigError(f"{key} must be a JSON integer, got {x!r}")
    return x


def load_peer_scheme(source) -> PeerScheme:
    """Load a Peer scheme from a JSON document.

    Schema::

        {
          "name": <str>, "s": <int>,
          "c": [<s entries>], "B": [[...]], "A": [[...]], "R": [[...]],
          "formulation": "BAR" (optional, the only form supported),
          "order": <int, optional>
        }

    Matrix entries are exact decimal or rational strings ("0.25", "7/12");
    plain numbers are accepted too.  Entries equal to null mark a placeholder
    file and raise MissingPeerCoefficientsError; a file that is no JSON,
    repeats a key, or has an ``s`` or ``order`` that is no JSON integer (a
    boolean included) raises ConfigError.
    """
    try:
        doc = (source if isinstance(source, dict)
               else json.loads(Path(source).read_text(), object_pairs_hook=_unique_keys))
        name = doc["name"]
        s = _json_int(doc["s"], "s")
        c = np.array([_parse_entry(x, f"c[{i}]") for i, x in enumerate(doc["c"])])
        mats = {}
        for key in ("B", "A", "R"):
            mats[key] = np.array([[_parse_entry(x, f"{key}[{i}][{j}]")
                                   for j, x in enumerate(row)]
                                  for i, row in enumerate(doc[key])])
        formulation = doc.get("formulation", "BAR")
        order = doc.get("order")
        if order is not None:
            order = _json_int(order, "order")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed Peer coefficient document: {exc}") from exc
    if formulation != "BAR":
        raise ConfigError(f"Peer scheme {name}: unsupported formulation {formulation!r}")
    if c.shape != (s,):
        raise ConfigError(f"Peer scheme {name}: expected {s} nodes")
    return PeerScheme(name=name, c=c, B=mats["B"], A=mats["A"], R=mats["R"], order=order)


def _packaged_peer_dir() -> Path:
    return Path(__file__).parent / "data" / "peer"


def find_peer_scheme(name: str, peer_dir: str | None = None) -> PeerScheme:
    """Locate a Peer coefficient file by scheme name.

    Searches, in order: the explicit directory and the files shipped with
    the package.
    """
    candidates = [Path(peer_dir) / f"{name}.json"] if peer_dir else []
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
# shifted tridiagonal stage solvers
# ---------------------------------------------------------------------------

def solve_shifted(z, tri: TridiagonalMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - z M) x = rhs for a tridiagonal M and scalar shift z.

    The factors of I - z M are kept on ``tri``; see
    ``TridiagonalMatrix.solve_shift``.
    """
    return tri.solve_shift(z, rhs)


def _bound_solve(tri: TridiagonalMatrix, z):
    """The solve b -> (I - z M)^-1 b for a nonzero shift z, with its factors bound.

    One ?gttrs, in place when b is a complex (m,) row or the Fortran-ordered
    .T of a C-ordered (K, m) block; f2py solves a complex copy of any other
    b, a real one included, and returns it.  m < 3 leaves the shift
    unfactored, and the solve is ``solve_shift``.
    """
    factors = tri._shift_factors(z, True)
    if factors is None:
        return lambda b: tri.solve_shift(z, b)
    return lambda b: zgttrs(*factors, b, overwrite_b=1)[0]


class StageSystemSolver:
    """Solver for the coupled stage system (I - h K (x) M) X = RHS.

    Diagonalizes the s x s coupling matrix K over the complex numbers once,
    then each solve costs s shifted tridiagonal solves.  One solve per
    nonzero shift h mu_i is bound here with its factors, and ``solve_stacked``
    and ``poles`` share them.  A zero eigenvalue (explicit stage)
    degenerates to an identity solve.

    ``poles`` groups the shifts for real right-hand sides: one
    (i, weight, solve) per pole, in the order of ``mu``.  ``eig`` of the
    real coupling returns complex eigenvalues and vectors as exact conjugate
    pairs.  For a real right-hand side the solves at such a pair are
    conjugate, so a sum over the pair is 2 Re of its member with
    Im mu_i > 0: that member is the pole, of weight 2.  A real shift is a
    pole of weight 1.  ``solve(rhs)`` maps a real (m,) or Fortran-ordered
    (m, K) right-hand side to the complex solution of (I - h mu_i M) x = rhs.
    A zero shift is a pole whose solve is None: there x = rhs.
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
        self._block_shape = (K.shape[0], tri.m)
        # (stage, solve) per nonzero shift
        self._solves = [(i, _bound_solve(tri, z)) for i, z in enumerate(h * mu) if z != 0]
        solves = dict(self._solves)
        self.poles = [(i, 2.0 if mu_i.imag > 0 else 1.0, solves.get(i))
                      for i, mu_i in enumerate(mu) if mu_i.imag >= 0]

    def solve_stacked(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one real (s, m) right-hand side block.

        Returns a new C-contiguous real (s, m) array, which
        ``TridiagonalMatrix.apply`` reads without a copy.
        """
        if rhs.shape != self._block_shape:
            raise ValueError(f"right-hand side must have shape {self._block_shape}, "
                             f"got {rhs.shape}")
        if not np.isfinite(rhs).all():      # checked before Sinv @ rhs can warn
            raise ValueError("right-hand side must not contain infs or NaNs")
        # Z[i] is the complex (m,) row of shift i, solved in place where factored
        Z = self.Sinv @ rhs.astype(complex)
        for i, solve in self._solves:
            Z[i] = solve(Z[i])
        return np.ascontiguousarray((self.S @ Z).real)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def _samples(g, s: int):
    """Control samples at the s stage nodes as an (s,) float array, or None."""
    if g is None:
        return None
    g = np.asarray(g, dtype=float)
    if g.shape != (s,):
        raise ValueError(f"control samples must have shape ({s},) or be None, got {g.shape}")
    return g


def irk_step(tab: IrkTableau, sys: MolSystem, h: float, y_n: np.ndarray,
             g_values: np.ndarray | None,
             solver: StageSystemSolver | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One implicit Runge-Kutta step of ``sys``; returns (y_{n+1}, stage values).

    The stages solve Y_i = y_n + h sum_j A_ij (M Y_j + gamma g_j e_m), with
    the control samples ``g_values`` g_j = g(t_n + c_j h); the update is
    y_{n+1} = y_n + h sum_i b_i F_i with F_i evaluated at the solved
    stages.  Samples of None mean no forcing.  ``y_n`` is one state (m,),
    and the stages are (s, m).
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    m = sys.matrix.m
    y_n = np.asarray(y_n)
    if y_n.shape != (m,):
        raise ValueError(f"state must have shape ({m},), got {y_n.shape}")
    g = _samples(g_values, tab.s)
    if solver is None:
        solver = StageSystemSolver(tab.A, h, sys.matrix)
    rhs = np.empty((tab.s, m))
    rhs[:] = y_n
    if g is not None:
        rhs[:, -1] += h * ((tab.A @ g) * sys.gamma)
    stages = solver.solve_stacked(rhs)
    F = sys.matrix.apply(stages)
    if g is not None:
        F[:, -1] += g * sys.gamma
    return y_n + h * (tab.b @ F), stages


def peer_step(scheme: PeerScheme, sys: MolSystem, h: float, prev_block: np.ndarray,
              g_prev: np.ndarray | None, g_cur: np.ndarray | None,
              prev_F: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One two-step Peer block step of ``sys``; returns (stage block, stage derivatives).

    The new block satisfies Y_n = B Y_{n-1} + h A F(Y_{n-1}) + h R F(Y_n) and
    is solved stage by stage since R is lower triangular.  ``g_prev`` and
    ``g_cur`` are the control samples at the stage nodes of the previous and
    the new block, each None for no forcing; ``prev_F`` defaults to
    F(Y_{n-1}) formed from ``g_prev``.  ``prev_block`` (and ``prev_F``, of
    the same shape) is one (s, m) block or a stack of K blocks (K, s, m); a
    stage of a stack is one shifted solve with K right-hand sides.  The
    control samples are shared by the whole stack, and each item of the
    result is bitwise the step of that block alone.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    s, m = scheme.s, sys.matrix.m
    if prev_block.ndim not in (2, 3) or prev_block.shape[-2:] != (s, m):
        raise ValueError(f"previous stage block must have shape {(s, m)} or (K, {s}, {m}), "
                         f"got {prev_block.shape}")
    if prev_F is not None and prev_F.shape != prev_block.shape:
        raise ValueError(f"previous stage derivatives have shape {prev_F.shape}, "
                         f"the block {prev_block.shape}")
    g_prev, g_cur = _samples(g_prev, s), _samples(g_cur, s)
    if prev_F is None:
        prev_F = sys.matrix.apply(prev_block)
        if g_prev is not None:
            prev_F[..., -1] += g_prev * sys.gamma
    hR = h * scheme.R
    block = scheme.B @ prev_block + h * (scheme.A @ prev_F)   # solved in place, row by row
    F = np.empty(block.shape)
    Y, FY = block.swapaxes(0, -2), F.swapaxes(0, -2)     # Y[i]: stage i of every block
    for i in range(s):
        rhs = Y[i]
        for j in range(i):
            rhs += hR[i, j] * FY[j]
        # .T[-1] is the last entry of each row: of (m,) or (K, m) alike, and
        # without the slower Ellipsis index
        if g_cur is not None:
            rhs.T[-1] += hR[i, i] * g_cur[i] * sys.gamma
        Y[i] = solve_shifted(hR[i, i], sys.matrix, rhs.T).T
        FY[i] = sys.matrix.apply(Y[i])
        if g_cur is not None:
            FY[i].T[-1] += g_cur[i] * sys.gamma
    return block, F


# ---------------------------------------------------------------------------
# full sweeps
# ---------------------------------------------------------------------------

def _forward_scheme(method):
    return method.forward if isinstance(method, MethodSpec) else method


def _adjoint_scheme(method):
    return method.adjoint if isinstance(method, MethodSpec) else method


def _node_values(control, N: int, s: int):
    """The (N, s) control samples at the stage nodes, checked finite; N Nones for None."""
    if control is None:
        return (None,) * N
    if not isinstance(control, np.ndarray) or control.shape != (N, s):
        got = getattr(control, "shape", type(control).__name__)
        raise ValueError(f"node samples must be an array of shape {(N, s)}, got {got}")
    if not np.isfinite(control).all():
        raise ValueError("control samples must not contain infs or NaNs")
    return control


def _step_size(scheme, N: int, T: float) -> float:
    """h = T / N, once N is a valid step count for ``scheme``.

    A sweep needs N >= 1 steps, and a Peer scheme N >= 2: its start step and
    at least one Peer step.
    """
    least = 2 if isinstance(scheme, PeerScheme) else 1
    if N < least:
        raise ValueError(f"{scheme.name} needs at least N = {least} steps, got N = {N}")
    return T / N


def _sweep(scheme, sys: MolSystem, control, N: int, h: float, start) -> np.ndarray:
    """The forward recursion from y_0 = sys.psi over N steps of size h; returns y_N.

    Only the live state is kept: y_n for IRK, the stage block and its
    derivatives for Peer.  A Peer sweep starts from the (s, m) block
    ``start``, or for None from one collocation step on the scheme's own
    nodes; an IRK sweep takes no start block.  A control of None means no
    forcing: every step gets samples of None.  A bad start block and
    non-finite control samples raise ValueError before the first step.  N
    must have passed ``_step_size``.
    """
    if not isinstance(scheme, (IrkTableau, PeerScheme)):
        raise TypeError(f"unsupported method object {scheme!r}")
    g_all = _node_values(control, N, scheme.s)

    if isinstance(scheme, IrkTableau):
        if start is not None:
            raise ValueError(f"{scheme.name} is a one-step method and takes no start block")
        solver = StageSystemSolver(scheme.A, h, sys.matrix)
        y = sys.psi
        for n in range(N):
            y, _ = irk_step(scheme, sys, h, y, g_all[n], solver)
        return y
    if start is None:
        _, block = irk_step(scheme.start_tableau, sys, h, sys.psi, g_all[0])
    else:
        block = np.asarray(start, dtype=float)
        if block.shape != (scheme.s, sys.m):
            raise ValueError(f"start block must have shape {(scheme.s, sys.m)}, "
                             f"got {block.shape}")
    F = None                      # the first step forms F(Y_0) from g_all[0]
    for n in range(1, N):
        block, F = peer_step(scheme, sys, h, block, g_all[n - 1], g_all[n], F)
    return block[-1]


def integrate_forward(method, sys: MolSystem, control, N: int, T: float,
                      start: np.ndarray | None = None) -> np.ndarray:
    """Integrate y' = M y + gamma e_m u(t) from y(0) = psi on N uniform steps.

    Returns y_N, the (m,) approximation of y(T).  ``control`` is the (N, s)
    array of samples u((n + c_i) h), h = T / N, at the stage nodes, or None
    for the homogeneous problem.  A Peer method starts from ``start``, its
    (s, m) stage block Y_0 with rows approximating y(c_i h), or for None from
    a self-starting collocation bootstrap; a start given to an IRK method
    raises ValueError.  N < 1, or N < 2 for a Peer method, raises
    ValueError.  The intermediate states are not kept; loop ``irk_step`` or
    ``peer_step`` to see them.
    """
    scheme = _forward_scheme(method)
    h = _step_size(scheme, N, T)
    return _sweep(scheme, sys, control, N, h, start)


def integrate_adjoint(method, sys: MolSystem, p_T: np.ndarray, N: int, T: float,
                      start: np.ndarray | None = None) -> np.ndarray:
    """Integrate the multiplier equation p' = -M p backward from p(T) = p_T.

    Returns p_0, the (m,) approximation of p(0).  In reversed time
    q(s) = p(T - s) solves q' = M q from q(0) = p_T, so this is the forward
    recursion of ``integrate_forward``, start block and step-count check
    included, with no control, started at p_T and run with the method's
    adjoint-sweep scheme (IIIB for the Lobatto pair, the same scheme for the
    self-adjoint Gauss method and for Peer schemes).  A Peer ``start`` holds
    q(c_i h) = p(T - c_i h) in its rows.
    """
    scheme = _adjoint_scheme(method)
    p_T = np.array(p_T, dtype=float)      # a copy: MolSystem makes psi read-only in place
    if p_T.shape != (sys.m,):
        raise ValueError("terminal multiplier dimension mismatch")
    h = _step_size(scheme, N, T)
    return _sweep(scheme, replace(sys, psi=p_T), None, N, h, start)
