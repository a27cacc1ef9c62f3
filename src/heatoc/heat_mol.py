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

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs, zgtsv, zgttrf, zgttrs

# Shifts whose factors one matrix keeps; a sweep uses at most a handful.
SHIFT_CACHE_SIZE = 8


class ConfigError(ValueError):
    """Invalid problem or experiment configuration."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` for ``json.loads``: the object as a dict, or
    ConfigError naming a key that it repeats, where ``json.loads`` would
    keep the last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ConfigError(f"repeated key {max(keys, key=keys.count)!r} in a JSON object")
    return doc


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
        if not (math.isfinite(self.beta0) and math.isfinite(self.beta1)):
            raise ConfigError("Robin coefficients must be finite")
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
    SHIFT_CACHE_SIZE shifts, and ``apply`` keeps one pair of bands tiled to
    the tallest stack it has multiplied.  Both are plain arrays, so the
    matrix still pickles and copies, and they take no part in repr.
    Matrices compare by identity.
    """

    diagonal: np.ndarray
    off: np.ndarray
    _factors: dict = field(default_factory=dict, init=False, repr=False)
    _tile: tuple | None = field(default=None, init=False, repr=False)

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
        stage block; M acts on the last axis.  Each entry is
        (d v + o v_next) + o v_prev with neighbours from its own vector
        only.  A single vector multiplies against the bands themselves.  A
        stack is taken as one flat vector (a copy if it is not
        C-contiguous) against the bands laid end to end once per row, so
        any stack costs five ufunc calls, not five per vector.  The
        products that cross a row end are set to -0.0, which adds nothing
        to any value (a signed zero, inf and NaN included), so the result
        is bitwise that of one vector at a time and no entry leaks into
        the next vector.
        """
        m = self.m
        v = np.asarray(v, dtype=float)
        if v.shape[-1:] != (m,):
            raise ValueError(f"expected last axis of length {m}, got shape {v.shape}")
        rows = math.prod(v.shape[:-1])
        flat = v.reshape(-1)
        d, off = (self.diagonal, self.off) if rows == 1 else self._tiled(rows, m)
        r = d * flat
        if m > 1:
            p = off * flat[1:]
            if rows > 1:
                p[m - 1::m] = -0.0
            r[:-1] += p
            np.multiply(off, flat[:-1], out=p)
            if rows > 1:
                p[m - 1::m] = -0.0
            r[1:] += p
        return r.reshape(v.shape)

    def _tiled(self, rows: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The bands laid end to end ``rows`` times, for ``apply``.

        A stack taller than the kept tile re-tiles it to its own height, a
        shorter one takes a slice.  The entry that couples two rows is 1.0:
        its products are replaced by -0.0, and 1.0 keeps them from
        overflowing or turning inf into a NaN with a warning.
        """
        n = rows * m
        tile = self._tile
        if tile is None or tile[0].shape[0] < n:
            tile = (_readonly(np.tile(self.diagonal, rows)),
                    _readonly(np.tile(np.append(self.off, 1.0), rows)[:-1]))
            object.__setattr__(self, "_tile", tile)
        if tile[0].shape[0] == n:
            return tile
        return tile[0][:n], tile[1][:n - 1 if n else 0]

    def solve_shift(self, z, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - z M) x = rhs for a scalar shift z.

        ``rhs`` has m rows (one or more right-hand sides).  Each shift is
        factored once with LAPACK ?gttrf, complex if z or rhs is; every
        solve then runs ?gttrs only.  This is the elimination of the ?gtsv
        behind ``scipy.linalg.solve_banded``, so the result is bitwise the
        same.  A non-finite shift or right-hand side, or one without m rows
        or without a column (which scipy's ?gttrs wrapper does not survive),
        raises ValueError, also for z = 0, where x is a copy of rhs; an
        exactly singular shift raises LinAlgError and is not cached.
        """
        rhs = np.asarray(rhs)
        if rhs.shape[:1] != (self.m,) or rhs.size == 0:
            raise ValueError(f"right-hand side must have {self.m} rows and a column, "
                             f"got shape {rhs.shape}")
        if not np.isfinite(rhs).all():
            raise ValueError("right-hand side must not contain infs or NaNs")
        if z == 0:
            return rhs.copy()
        complex_ = rhs.dtype.kind == "c" or np.iscomplexobj(z)
        factors = self._shift_factors(z, complex_)
        if factors is None:
            return _solve_unfactored(*self._shifted_bands(z), rhs, complex_)
        x, _ = (zgttrs if complex_ else dgttrs)(*factors, rhs)
        return x

    def _shifted_bands(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of I - z M, checked for finiteness."""
        if not np.isfinite(z):
            raise ValueError("shift must not be inf or NaN")
        d, off = 1.0 - z * self.diagonal, -z * self.off
        if not (np.isfinite(d).all() and np.isfinite(off).all()):
            raise ValueError("shifted matrix must not contain infs or NaNs")
        return d, off

    def _shift_factors(self, z, complex_: bool):
        """The ?gttrf factors of I - z M for a nonzero shift, or None if m < 3.

        Fetched from the kept factors, or factored and kept on a miss; a
        kept shift is known to be finite, so only a miss checks it.  The
        factors feed ?gttrs (``zgttrs`` if ``complex_``).  m < 3 stays
        unfactored: scipy's ?gttrf wrapper rejects it.
        """
        if self.m < 3:
            return None
        key = (z, complex_)
        factors = self._factors.get(key)
        if factors is None:
            d, off = self._shifted_bands(z)
            *factors, info = (zgttrf if complex_ else dgttrf)(off, d, off)
            if info > 0:
                raise np.linalg.LinAlgError("singular matrix")
            if len(self._factors) >= SHIFT_CACHE_SIZE:
                del self._factors[next(iter(self._factors))]
            self._factors[key] = factors
        return factors


@dataclass(frozen=True, eq=False)
class MolSystem:
    """Semi-discrete heat system y' = M y + gamma * e_m * u(t), y(0) = psi."""

    m: int
    bc: RobinBC
    gamma: float
    grid: np.ndarray
    psi: np.ndarray
    matrix: TridiagonalMatrix

    def __post_init__(self):
        object.__setattr__(self, "grid", _readonly(self.grid))
        object.__setattr__(self, "psi", _readonly(self.psi))

    @property
    def forcing_vector(self) -> np.ndarray:
        """The boundary forcing direction gamma * e_m as a dense (m,) vector.

        The steps and sweeps add gamma g to the last entry instead; this
        vector is read by ``oracles.expm_state`` and by the tests' reference
        sweeps, which so stay independent of that arithmetic.
        """
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
    return MolSystem(m=m, bc=bc, gamma=gamma, grid=grid, psi=psi, matrix=matrix)


def ones_profile(x: float) -> float:
    """Constant-one initial profile used in the benchmark instance."""
    return 1.0
