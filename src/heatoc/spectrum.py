"""Closed-form eigendecomposition of the semi-discrete heat operator.

The eigenvalues of the boundary-scheme tridiagonal matrix are
lambda_k = -4 m^2 sin^2(omega_k / (2m)) where the frequencies omega_k are the
m first nonnegative solutions of

    tan(omega) * tan(omega / (2m)) = beta0 / (2 m beta1).

Dirichlet data has the explicit solutions omega_k = (k - 1/2) pi, Neumann data
omega_k = (k - 1) pi.  For general Robin data the k-th frequency lies in the
bracket ((k-1) pi, (k-1/2) pi) and all m brackets are bisected at once,
down to adjacent doubles.  The eigenvectors are sampled cosines,
orthonormal with an explicit normalization constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .heat_mol import MolSystem, _readonly

# live_product rounds its column count up to a multiple of this, so that a
# cut keeps the BLAS kernel's grouping of each dot product.  With OpenBLAS
# on an AVX-512 Xeon, a cut product of random weights lost the full
# product's bits exactly when its column count was not a multiple of 4
# (m 8 to 2000); cut at the last nonzero weight alone, a third of the
# exact-layer outputs checked changed bits.
LIVE_COLUMNS_STEP = 16


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenpairs M = V diag(lambdas) V^T with orthonormal columns of V.

    ``to_modal`` keeps its two most recent results V^T w in ``_modal``,
    keyed by the bytes of w: plain arrays in a dict, so the decomposition
    still pickles and copies, and it takes no part in repr.  Decompositions
    compare by identity.
    """

    omegas: np.ndarray
    lambdas: np.ndarray
    vectors: np.ndarray  # (m, m), column k is the k-th eigenvector
    nus: np.ndarray
    _modal: dict = field(default_factory=dict, init=False, repr=False)

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


def solve_frequencies(sys: MolSystem) -> np.ndarray:
    """Solve the frequency equation for all m frequencies of the system.

    Returns the strictly increasing frequencies omega_1 < ... < omega_m < m*pi.
    Dirichlet and Neumann data take their closed forms.  For Robin data the
    residual tan(w) tan(w/(2m)) - rho rises from -rho to +inf on each
    bracket ((k-1) pi, (k-1/2) pi), so its sign alone drives one vectorized
    bisection of all m brackets.  A bracket stops moving once no double lies
    strictly inside it, and the loop ends when none does: no tolerance, no
    iteration cap, and 50 to 80 passes in the cases tried.  The upper end
    is returned, so omega_k > (k-1) pi, and omega_k tends to the Dirichlet
    value as beta1 -> 0.
    """
    m, bc = sys.m, sys.bc
    k = np.arange(1, m + 1)
    if bc.is_dirichlet:
        return (k - 0.5) * np.pi
    if bc.is_neumann:
        return (k - 1.0) * np.pi
    rho = bc.beta0 / (2 * m * bc.beta1)
    lo, hi = (k - 1.0) * np.pi, (k - 0.5) * np.pi
    while True:
        mid = 0.5 * (lo + hi)
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            return hi
        below = np.tan(mid) * np.tan(mid / (2 * m)) < rho
        # a converged bracket stays put: its mid would be an end, and the
        # left end (k-1) pi, never tested, can read as above the root
        lo = np.where(inside & below, mid, lo)
        hi = np.where(inside & ~below, mid, hi)


def decompose(sys: MolSystem) -> SpectralDecomposition:
    """Closed-form eigendecomposition of the system matrix.

    The frequencies omega_k come from ``solve_frequencies``; then
    lambda_k = -4 m^2 sin^2(omega_k/(2m)) and
    v_j[k] = nu_k cos(omega_k (2j-1)/(2m)) with
    nu_k = 2 / sqrt(2m + sin(2 omega_k)/sin(omega_k/m)).  The zero frequency
    (Neumann, k = 1) takes the limit value nu = 1/sqrt(m), making the first
    eigenvector the normalized constant vector.

    V is built in its own buffer (outer product, then cos and the column
    scaling in place), so the only m x m array held is the result.
    """
    m = sys.m
    om = solve_frequencies(sys)
    lambdas = -4.0 * m**2 * np.sin(om / (2 * m)) ** 2
    nus = np.empty(m)
    nonzero = om > 0
    nus[~nonzero] = 1.0 / math.sqrt(m)
    nus[nonzero] = 2.0 / np.sqrt(2 * m + np.sin(2 * om[nonzero]) / np.sin(om[nonzero] / m))
    vectors = np.outer(sys.grid, om)  # grid_j = (2j-1)/(2m)
    np.cos(vectors, out=vectors)
    vectors *= nus
    return SpectralDecomposition(omegas=om, lambdas=lambdas, vectors=vectors, nus=nus)


def live_columns(w: np.ndarray) -> int:
    """One past the index of the last nonzero entry of w (0 if there is
    none), rounded up to a multiple of LIVE_COLUMNS_STEP and capped at the
    length of w.  One O(len(w)) scan."""
    live = np.flatnonzero(w)
    stop = int(live[-1]) + 1 if live.size else 0
    return min(-(-stop // LIVE_COLUMNS_STEP) * LIVE_COLUMNS_STEP, w.shape[0])


def live_product(A: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``A @ w`` over the first ``live_columns(w)`` columns of A.

    The product is ``A[:, :n] @ w[:n]``, on views, so nothing is copied.
    The dropped weights are exact zeros, which the BLAS kernel adds as
    no-ops to a finite A, so the result is bitwise that of the full product
    as long as the cut keeps the kernel's grouping of each dot product,
    which the rounding to LIVE_COLUMNS_STEP does.
    """
    n = live_columns(w)
    return A[:, :n] @ w[:n]


def to_modal(dec: SpectralDecomposition, w: np.ndarray) -> np.ndarray:
    """Coefficients V^T w of a vector in the eigenbasis, read-only.

    The two most recently used results are kept on ``dec``, keyed by the
    bytes of w, so a run of calls that alternates two vectors makes one
    m x m product for each: a cell transforms psi in ``sparse_target``,
    ``solve_terminal`` and the plan of ``solve_ivp_exact``, and a Peer
    scenario-1 cell's exact start transforms its numerical p_T between the
    cell's uses of the exact one.  A vector changed in place has other
    bytes and is transformed again.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (dec.m,):
        raise ValueError(f"expected vector of length {dec.m}, got shape {w.shape}")
    key = w.tobytes()
    modal = dec._modal.pop(key, None)
    if modal is None:
        modal = _readonly(dec.vectors.T @ w)
    dec._modal[key] = modal                 # the most recent entry last
    if len(dec._modal) > 2:
        del dec._modal[next(iter(dec._modal))]
    return modal


def from_modal(dec: SpectralDecomposition, eta: np.ndarray) -> np.ndarray:
    """Reconstruct V eta from modal coefficients.

    The product runs only over the eigenvectors up to the last nonzero
    coefficient (``live_product``), bitwise equal to ``dec.vectors @ eta``.
    A decayed modal vector exp(lambda s) eta with s well inside the horizon
    has a handful of nonzero entries, so it costs about that many columns
    of V.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (dec.m,):
        raise ValueError(f"expected vector of length {dec.m}, got shape {eta.shape}")
    return live_product(dec.vectors, eta)

