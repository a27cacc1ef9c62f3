"""Closed-form eigendecomposition of the semi-discrete heat operator.

The eigenvalues of the boundary-scheme tridiagonal matrix are
lambda_k = -4 m^2 sin^2(omega_k / (2m)) where the frequencies omega_k are the
m first nonnegative solutions of

    tan(omega) * tan(omega / (2m)) = beta0 / (2 m beta1).

Dirichlet data has the explicit solutions omega_k = (k - 1/2) pi, Neumann data
omega_k = (k - 1) pi.  For general Robin data the k-th frequency lies in the
bracket ((k-1) pi, (k-1/2) pi) and is found by a monotone fixed-point
iteration with a bisection fallback.  The eigenvectors are sampled cosines,
orthonormal with an explicit normalization constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heat_mol import MolSystem, _readonly

FREQ_TOL = 1e-14
MAX_FIXED_POINT_ITERS = 200


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenpairs M = V diag(lambdas) V^T with orthonormal columns of V."""

    omegas: np.ndarray
    lambdas: np.ndarray
    vectors: np.ndarray  # (m, m), column k is the k-th eigenvector
    nus: np.ndarray

    def __post_init__(self):
        for name in ("omegas", "lambdas", "vectors", "nus"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def m(self) -> int:
        return self.lambdas.shape[0]

    @property
    def boundary_components(self) -> np.ndarray:
        """Last components v_m of all eigenvectors (the boundary coupling row)."""
        return self.vectors[-1, :]


def _bisect_frequency(k: int, m: int, rho: float) -> float:
    # root of tan(w) tan(w/(2m)) = rho inside ((k-1) pi, (k-1/2) pi)
    def resid(w: float) -> float:
        return math.tan(w) * math.tan(w / (2 * m)) - rho

    lo = (k - 1) * math.pi
    hi = (k - 0.5) * math.pi
    # nudge off the endpoints where tan vanishes / blows up
    span = hi - lo
    lo_in, hi_in = lo + 1e-15 * max(1.0, lo), hi - 1e-15 * max(1.0, hi)
    flo = resid(lo_in)
    for _ in range(200):
        mid = 0.5 * (lo_in + hi_in)
        if mid <= lo_in or mid >= hi_in:
            break
        fmid = resid(mid)
        if flo * fmid <= 0:
            hi_in = mid
        else:
            lo_in, flo = mid, fmid
        if hi_in - lo_in <= FREQ_TOL:
            break
    return 0.5 * (lo_in + hi_in)


def _fixed_point_frequency(k: int, m: int, rho: float) -> float:
    # omega <- (k-1) pi + arctan(rho * cot(omega / (2m))), starting from
    # max(1, (k-1) pi); falls back to bisection if the iteration stalls,
    # leaves its bracket, or fails to contract.
    base = (k - 1) * math.pi
    hi = (k - 0.5) * math.pi
    omega = max(1.0, base)
    prev_step = math.inf
    for _ in range(MAX_FIXED_POINT_ITERS):
        t = math.tan(omega / (2 * m))
        if t <= 0:
            return _bisect_frequency(k, m, rho)
        new = base + math.atan(rho / t)
        if not (base < new <= hi):
            return _bisect_frequency(k, m, rho)
        step = abs(new - omega)
        omega = new
        if step <= FREQ_TOL:
            return omega
        if step >= prev_step:
            return _bisect_frequency(k, m, rho)
        prev_step = step
    return _bisect_frequency(k, m, rho)


def solve_frequencies(sys: MolSystem) -> np.ndarray:
    """Solve the frequency equation for all m frequencies of the system.

    Returns the strictly increasing frequencies omega_1 < ... < omega_m < m*pi.
    """
    m, bc = sys.m, sys.bc
    k = np.arange(1, m + 1)
    if bc.is_dirichlet:
        omegas = (k - 0.5) * np.pi
    elif bc.is_neumann:
        omegas = (k - 1.0) * np.pi
    else:
        rho = bc.beta0 / (2 * m * bc.beta1)
        omegas = np.array([_fixed_point_frequency(int(kk), m, rho) for kk in k])
    return omegas


def decompose(sys: MolSystem) -> SpectralDecomposition:
    """Closed-form eigendecomposition of the system matrix.

    The frequencies omega_k come from ``solve_frequencies``; then
    lambda_k = -4 m^2 sin^2(omega_k/(2m)) and
    v_j[k] = nu_k cos(omega_k (2j-1)/(2m)) with
    nu_k = 2 / sqrt(2m + sin(2 omega_k)/sin(omega_k/m)).  The zero frequency
    (Neumann, k = 1) takes the limit value nu = 1/sqrt(m), making the first
    eigenvector the normalized constant vector.
    """
    m = sys.m
    om = solve_frequencies(sys)
    lambdas = -4.0 * m**2 * np.sin(om / (2 * m)) ** 2
    nus = np.empty(m)
    nonzero = om > 0
    nus[~nonzero] = 1.0 / math.sqrt(m)
    nus[nonzero] = 2.0 / np.sqrt(2 * m + np.sin(2 * om[nonzero]) / np.sin(om[nonzero] / m))
    vectors = np.cos(np.outer(sys.grid, om)) * nus  # grid_j = (2j-1)/(2m)
    return SpectralDecomposition(omegas=om, lambdas=lambdas, vectors=vectors, nus=nus)


def to_modal(dec: SpectralDecomposition, w: np.ndarray) -> np.ndarray:
    """Coefficients V^T w of a vector in the eigenbasis."""
    w = np.asarray(w, dtype=float)
    if w.shape != (dec.m,):
        raise ValueError(f"expected vector of length {dec.m}, got shape {w.shape}")
    return dec.vectors.T @ w


def from_modal(dec: SpectralDecomposition, eta: np.ndarray) -> np.ndarray:
    """Reconstruct V eta from modal coefficients."""
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (dec.m,):
        raise ValueError(f"expected vector of length {dec.m}, got shape {eta.shape}")
    return dec.vectors @ eta

