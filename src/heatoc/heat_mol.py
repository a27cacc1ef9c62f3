"""Finite-difference semi-discretization of the 1D heat equation with Robin
boundary control.

The space interval [0, 1] is discretized on the shifted grid
x_j = (j - 1/2) * xi, xi = 1/m, so that both boundary conditions are imposed
through ghost points.  Eliminating the ghost values turns the boundary data
u(t) at x = 1 into a forcing term, and the semi-discrete system reads

    y'(t) = M y(t) + gamma * e_m * u(t),      y(0) = psi,

with a symmetric tridiagonal matrix M whose last diagonal entry -theta/xi^2
encodes the Robin condition beta0 * Y + beta1 * Y_x = u at x = 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs, zgtsv, zgttrf, zgttrs

# Shifts whose factors one matrix keeps; a sweep uses at most a handful.
SHIFT_CACHE_SIZE = 8


class ConfigError(ValueError):
    """Invalid problem or experiment configuration."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class RobinBC:
    """Coefficients of the right boundary condition beta0*Y + beta1*Y_x = u.

    Both coefficients are nonnegative and at least one must be positive.
    beta1 = 0 gives a Dirichlet condition, beta0 = 0 a Neumann condition.
    """

    beta0: float
    beta1: float

    def __post_init__(self):
        if self.beta0 < 0 or self.beta1 < 0:
            raise ConfigError("Robin coefficients must be nonnegative")
        if self.beta0 == 0 and self.beta1 == 0:
            raise ConfigError("degenerate boundary condition: beta0 = beta1 = 0")

    @classmethod
    def dirichlet(cls) -> "RobinBC":
        return cls(1.0, 0.0)

    @classmethod
    def neumann(cls) -> "RobinBC":
        return cls(0.0, 1.0)

    @property
    def is_dirichlet(self) -> bool:
        return self.beta1 == 0.0

    @property
    def is_neumann(self) -> bool:
        return self.beta0 == 0.0


def _solve_unfactored(d: np.ndarray, off: np.ndarray, rhs: np.ndarray,
                      complex_: bool) -> np.ndarray:
    """Tridiagonal solve for m < 3, which scipy's ?gttrf wrapper rejects.

    One ?gtsv, or a division for m = 1, as in ``scipy.linalg.solve_banded``.
    """
    if d.shape[0] == 1:
        if d[0] == 0:
            raise np.linalg.LinAlgError("singular matrix")
        return rhs / d[0]
    *_, x, info = (zgtsv if complex_ else dgtsv)(off, d, off, rhs)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


@dataclass(frozen=True, eq=False)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix stored as diagonal and off-diagonal bands.

    The bands are read-only, so the LU factors of a shifted matrix I - z M
    are derived data: ``solve_shift`` keeps those of the last
    SHIFT_CACHE_SIZE shifts.  They are plain arrays, so the matrix still
    pickles and copies, and they take no part in repr.  Matrices compare by
    identity.
    """

    diagonal: np.ndarray
    off: np.ndarray
    _factors: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "diagonal", _readonly(self.diagonal))
        object.__setattr__(self, "off", _readonly(self.off))
        if self.off.shape != (max(self.m - 1, 0),):
            raise ValueError("off-diagonal band must have length m - 1")

    @property
    def m(self) -> int:
        return self.diagonal.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Product M v in O(m) work per vector.

        ``v`` is a vector of length m or a stack of them, such as an (s, m)
        stage block; M acts on the last axis.
        """
        v = np.asarray(v, dtype=float)
        if v.shape[-1:] != (self.m,):
            raise ValueError(f"expected last axis of length {self.m}, got shape {v.shape}")
        r = self.diagonal * v
        if self.m > 1:
            r[..., :-1] += self.off * v[..., 1:]
            r[..., 1:] += self.off * v[..., :-1]
        return r

    def solve_shift(self, z, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - z M) x = rhs for a scalar shift z.

        ``rhs`` has m rows (one or more right-hand sides).  Each shift is
        factored once with LAPACK ?gttrf, complex if z or rhs is; every
        solve then runs ?gttrs only.  This is the elimination of the ?gtsv
        behind ``scipy.linalg.solve_banded``, so the result is bitwise the
        same.  A non-finite shift or right-hand side, or one without m rows,
        raises ValueError; an exactly singular shift raises LinAlgError and
        is not cached.
        """
        rhs = np.asarray(rhs)
        if z == 0:
            return rhs.copy()
        if rhs.shape[:1] != (self.m,):
            raise ValueError(f"right-hand side must have {self.m} rows, got shape {rhs.shape}")
        if not (np.isfinite(z) and np.isfinite(rhs).all()):
            raise ValueError("shift and right-hand side must not contain infs or NaNs")
        complex_ = np.iscomplexobj(z) or np.iscomplexobj(rhs)
        key = (z, complex_)
        factors = self._factors.get(key)
        if factors is None:
            d, off = 1.0 - z * self.diagonal, -z * self.off
            if not (np.isfinite(d).all() and np.isfinite(off).all()):
                raise ValueError("shifted matrix must not contain infs or NaNs")
            if self.m < 3:
                return _solve_unfactored(d, off, rhs, complex_)
            *factors, info = (zgttrf if complex_ else dgttrf)(off, d, off)
            if info > 0:
                raise np.linalg.LinAlgError("singular matrix")
            if len(self._factors) >= SHIFT_CACHE_SIZE:
                del self._factors[next(iter(self._factors))]
            self._factors[key] = factors
        x, _ = (zgttrs if complex_ else dgttrs)(*factors, rhs)
        return x


@dataclass(frozen=True, eq=False)
class MolSystem:
    """Semi-discrete heat system y' = M y + gamma * e_m * u(t), y(0) = psi."""

    m: int
    xi: float
    bc: RobinBC
    theta: float
    gamma: float
    grid: np.ndarray
    psi: np.ndarray
    matrix: TridiagonalMatrix

    def __post_init__(self):
        object.__setattr__(self, "grid", _readonly(self.grid))
        object.__setattr__(self, "psi", _readonly(self.psi))

    @property
    def forcing_vector(self) -> np.ndarray:
        """The boundary forcing direction gamma * e_m."""
        g = np.zeros(self.m)
        g[-1] = self.gamma
        return g


def robin_coefficients(bc: RobinBC, m: int) -> tuple[float, float]:
    """Ghost-point elimination constants (theta, gamma) of the last row.

    theta = (2*beta1 + 3*beta0*xi) / (2*beta1 + beta0*xi) and
    gamma = 2 / ((2*beta1 + beta0*xi) * xi) with xi = 1/m.  Dirichlet data
    gives theta = 3, Neumann data theta = 1.
    """
    if m < 2:
        raise ConfigError("need at least m = 2 grid points")
    xi = 1.0 / m
    denom = 2.0 * bc.beta1 + bc.beta0 * xi
    theta = (2.0 * bc.beta1 + 3.0 * bc.beta0 * xi) / denom
    gamma = 2.0 / (denom * xi)
    return theta, gamma


def build_system(bc: RobinBC, m: int, initial_profile) -> MolSystem:
    """Assemble the MOL system for a boundary condition and initial profile.

    ``initial_profile`` is either a callable x -> Psi(x) evaluated on the
    shifted grid, or a length-m array of nodal values.
    """
    if m < 2:
        raise ConfigError("need at least m = 2 grid points")
    xi = 1.0 / m
    theta, gamma = robin_coefficients(bc, m)
    grid = (np.arange(1, m + 1) - 0.5) * xi
    if callable(initial_profile):
        psi = np.array([float(initial_profile(x)) for x in grid])
    else:
        psi = np.asarray(initial_profile, dtype=float)
        if psi.shape != (m,):
            raise ConfigError(f"initial profile must have {m} samples, got shape {psi.shape}")
    diagonal = np.full(m, -2.0)
    diagonal[0] = -1.0
    diagonal[-1] = -theta
    matrix = TridiagonalMatrix(diagonal / xi**2, np.full(m - 1, 1.0 / xi**2))
    return MolSystem(m=m, xi=xi, bc=bc, theta=theta, gamma=gamma,
                     grid=grid, psi=psi, matrix=matrix)


def ones_profile(x: float) -> float:
    """Constant-one initial profile used in the benchmark instance."""
    return 1.0


def load_problem(source) -> MolSystem:
    """Load a MolSystem from a JSON document.

    Schema::

        {
          "m": <int >= 2>,
          "beta0": <float >= 0>,
          "beta1": <float >= 0>,
          "profile": "ones" | {"samples": [<float>, ... m values]}
        }

    ``source`` may be a path, a JSON string, or an already parsed dict.
    """
    if isinstance(source, dict):
        doc = source
    else:
        try:
            is_file = Path(str(source)).exists()
        except OSError:
            is_file = False
        text = Path(source).read_text() if is_file else str(source)
        doc = json.loads(text)
    try:
        m = int(doc["m"])
        bc = RobinBC(float(doc["beta0"]), float(doc["beta1"]))
        profile = doc.get("profile", "ones")
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed problem document: {exc}") from exc
    if profile == "ones":
        return build_system(bc, m, ones_profile)
    if isinstance(profile, dict) and "samples" in profile:
        return build_system(bc, m, np.asarray(profile["samples"], dtype=float))
    raise ConfigError(f"unknown profile spec: {profile!r}")
