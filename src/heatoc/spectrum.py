"""Closed-form eigendecomposition of the semi-discrete heat operator.

The eigenvalues of the boundary-scheme tridiagonal matrix are
lambda_k = -4 m^2 sin^2(omega_k / (2m)) where the frequencies omega_k are the
m first nonnegative solutions of

    tan(omega) * tan(omega / (2m)) = beta0 / (2 m beta1).

Dirichlet data has the explicit solutions omega_k = (k - 1/2) pi, Neumann data
omega_k = (k - 1) pi.  For general Robin data the k-th frequency lies in the
bracket ((k-1) pi, (k-1/2) pi), and all m brackets are narrowed at once by a
safeguarded Newton iteration, down to adjacent doubles.  The eigenvectors
are sampled cosines, orthonormal with an explicit normalization constant,
built by angle addition over blocks of rows.
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
    residual f(w) = tan(w) tan(w/(2m)) - rho rises from -rho to +inf on each
    bracket ((k-1) pi, (k-1/2) pi), and the sign of f at a trial point w
    moves one end of the bracket to w.  A bracket stops moving once no
    double lies strictly inside it, and the loop ends when none does: no
    tolerance and no iteration cap.  The upper end is returned, so
    omega_k > (k-1) pi, and omega_k tends to the Dirichlet value as
    beta1 -> 0.

    The trial points are Newton steps on the pole-free form
    f(w) cos(d) = tan(w/(2m)) sin(d) - rho cos(d), d = w - (k-1) pi, whose
    step f / (T2 + T1 ((1 + T2^2)/(2m) + rho)) reuses the tangents
    T1 = tan(w) and T2 = tan(w/(2m)) of the sign test.  The first trial
    point is d = atan(rho / tan(((k-1) pi + min(sqrt(2m rho), pi/4)) / (2m))):
    it holds tan(w/(2m)) fixed near the root, and for k = 1 it follows the
    small-rho root sqrt(2m rho).  A step that leaves the bracket is
    replaced by the bracket's midpoint, and a step that rounds to no move
    by the neighbouring double across the root.  Where the sign test is
    monotone in w the bracket closes on the same pair of doubles as a plain
    bisection's, so the root is bitwise the bisection's.
    """
    m, bc = sys.m, sys.bc
    k = np.arange(1, m + 1)
    if bc.is_dirichlet:
        return (k - 0.5) * np.pi
    if bc.is_neumann:
        return (k - 1.0) * np.pi
    rho = bc.beta0 / (2 * m * bc.beta1)
    lo, hi = (k - 1.0) * np.pi, (k - 0.5) * np.pi
    start = np.arctan(rho / np.tan((lo + min(math.sqrt(2 * m * rho), 0.25 * np.pi)) / (2 * m)))
    w = np.clip(lo + start, np.nextafter(lo, hi), np.nextafter(hi, lo))
    while True:
        mid = 0.5 * (lo + hi)
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            return hi
        t1 = np.tan(w)
        t2 = np.tan(w / (2 * m))
        below = t1 * t2 < rho
        # a converged bracket stays put, and its ends are never tested: the
        # left end (k-1) pi can read as above the root
        lo = np.where(inside & below, w, lo)
        hi = np.where(inside & ~below, w, hi)
        trial = w - (t1 * t2 - rho) / (t2 + t1 * ((1.0 + t2 * t2) / (2 * m) + rho))
        trial = np.where(trial == w, np.nextafter(w, np.where(below, hi, lo)), trial)
        w = np.where((lo < trial) & (trial < hi), trial, 0.5 * (lo + hi))


def spectral_values(sys: MolSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The O(m) part of ``decompose``: (omegas, lambdas, nus).

    The frequencies omega_k come from ``solve_frequencies``; then
    lambda_k = -4 m^2 sin^2(omega_k/(2m)) and
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
    return om, lambdas, nus


def decompose(sys: MolSystem) -> SpectralDecomposition:
    """Closed-form eigendecomposition of the system matrix.

    omega, lambda and nu come from ``spectral_values``, and V has the
    entries v_j[k] = nu_k cos(omega_k (j - 1/2)/m), j = 1..m.  With
    B = isqrt(m), row j = B q + r (r = 1..B) splits its angle into
    a_q = omega (B q/m) and b_r = omega ((r - 1/2)/m), and each block of B
    rows is written in place as

        cos(a_q) * (nu cos b_r) - sin(a_q) * (nu sin b_r),

    so the m^2 cosines of the plain formula become about 4 m sqrt(m) sines
    and cosines.  The two B x m tables nu cos b and nu sin b and one B x m
    block at a time are all that is held beside V.  The entries differ from
    the plain formula's by roundoff.
    """
    m = sys.m
    om, lambdas, nus = spectral_values(sys)
    B = math.isqrt(m)
    angles = np.outer((np.arange(B) + 0.5) / m, om)
    cos_b = np.cos(angles)
    cos_b *= nus
    sin_b = np.sin(angles, out=angles)
    sin_b *= nus
    vectors = np.empty((m, m))
    for j in range(0, m, B):
        n = min(B, m - j)
        a = om * (j / m)
        np.multiply(cos_b[:n], np.cos(a), out=vectors[j:j + n])
        vectors[j:j + n] -= sin_b[:n] * np.sin(a)
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

