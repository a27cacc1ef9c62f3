import math
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatoc import (
    RobinBC, adjoint_exact, build_system, decompose, from_modal, ones_profile,
    solve_frequencies, to_modal,
)
from heatoc.oracles import dense_eigendecomposition, dense_matrix

# first two roots of tan(w) tan(w/4) = 1/4, pinned beforehand by 40-digit
# bisection on the bracketed residual
ROBIN11_M2_OMEGA1 = 0.85549737725425330
ROBIN11_M2_OMEGA2 = 3.3618414600957357


def test_dirichlet_frequencies_m3():
    sys = build_system(RobinBC.dirichlet(), 3, ones_profile)
    om = solve_frequencies(sys)
    assert np.array_equal(om, [0.5 * np.pi, 1.5 * np.pi, 2.5 * np.pi])


def test_neumann_frequencies_m3():
    sys = build_system(RobinBC.neumann(), 3, ones_profile)
    om = solve_frequencies(sys)
    assert np.array_equal(om, [0.0, np.pi, 2 * np.pi])


def test_robin_frequencies_m2_pinned():
    sys = build_system(RobinBC(1.0, 1.0), 2, ones_profile)
    om = solve_frequencies(sys)
    assert om[0] == pytest.approx(ROBIN11_M2_OMEGA1, abs=1e-12)
    assert om[1] == pytest.approx(ROBIN11_M2_OMEGA2, abs=1e-12)


@pytest.mark.parametrize("beta0,beta1", [(1.0, 1.0), (3.0, 1.0), (0.1, 5.0), (50.0, 1.0)])
def test_frequency_equation_residual(beta0, beta1):
    for m in (2, 5, 12):
        sys = build_system(RobinBC(beta0, beta1), m, ones_profile)
        om = solve_frequencies(sys)
        rho = beta0 / (2 * m * beta1)
        resid = np.tan(om) * np.tan(om / (2 * m)) - rho
        assert np.abs(resid).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(m=st.integers(2, 30), beta0=st.floats(0.01, 50.0), beta1=st.floats(0.01, 50.0))
def test_frequency_interlacing(m, beta0, beta1):
    sys = build_system(RobinBC(beta0, beta1), m, ones_profile)
    om = solve_frequencies(sys)
    k = np.arange(1, m + 1)
    assert np.all(om > (k - 1) * np.pi)
    assert np.all(om < (k - 0.5) * np.pi)   # right endpoint only for beta1 = 0
    assert np.all(np.diff(om) > 0)
    assert om[-1] < m * np.pi


def mpmath_frequency(k, m, rho):
    """k-th root of tan(w) tan(w/(2m)) = rho by a 30-digit bisection of its bracket."""
    with mpmath.workdps(30):
        lo, hi = (k - 1) * mpmath.pi, (k - mpmath.mpf(0.5)) * mpmath.pi
        for _ in range(100):
            mid = (lo + hi) / 2
            if mpmath.tan(mid) * mpmath.tan(mid / (2 * m)) < rho:
                lo = mid
            else:
                hi = mid
        return float(hi)


@pytest.mark.parametrize("m,beta0,beta1,ks", [
    (6, 1e-14, 1.0, range(1, 7)),
    (12, 3.0, 1.0, range(1, 13)),
    (250, 1.0, 1.0, (1, 2, 125, 249, 250)),
    (250, 1e-6, 1.0, (1, 2, 125, 249, 250)),
    (250, 0.01, 50.0, (1, 2, 125, 249, 250)),
])
def test_robin_frequencies_within_two_ulp_of_mpmath(m, beta0, beta1, ks):
    om = solve_frequencies(build_system(RobinBC(beta0, beta1), m, ones_profile))
    rho = beta0 / (2 * m * beta1)
    for k in ks:
        ref = mpmath_frequency(k, m, rho)
        assert abs(om[k - 1] - ref) <= 2 * np.spacing(ref), k


def bisected_frequencies(m, rho):
    """Robin frequencies by plain bisection of every bracket down to adjacent
    doubles, on the sign test tan(w) tan(w/(2m)) < rho: the upper ends."""
    k = np.arange(1, m + 1)
    lo, hi = (k - 1.0) * np.pi, (k - 0.5) * np.pi
    while True:
        mid = 0.5 * (lo + hi)
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            return hi
        below = np.tan(mid) * np.tan(mid / (2 * m)) < rho
        lo = np.where(inside & below, mid, lo)
        hi = np.where(inside & ~below, mid, hi)


def assert_newton_returns_the_bisected_doubles(m, beta0, beta1):
    sys = build_system(RobinBC(beta0, beta1), m, ones_profile)
    calls = []
    real_tan = np.tan

    def counted_tan(x, *args, **kwargs):
        calls.append(1)
        return real_tan(x, *args, **kwargs)

    with mock.patch.object(np, "tan", counted_tan):
        om = solve_frequencies(sys)
    ref = bisected_frequencies(m, beta0 / (2 * m * beta1))
    assert om.tobytes() == ref.tobytes(), (m, beta0, beta1)
    assert 0 < len(calls) <= 2 * 16 + 1, (m, beta0, beta1)   # two tangents a pass, one to start


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 60), log_ratio=st.floats(-14.0, 14.0))
def test_newton_frequencies_bitwise_equal_bisection(m, log_ratio):
    assert_newton_returns_the_bisected_doubles(m, 10.0**log_ratio, 1.0)


@pytest.mark.parametrize("m,beta0,beta1", [
    (6, 1e-14, 1.0), (12, 3.0, 1.0), (250, 1.0, 1.0), (250, 1e-6, 1.0), (250, 0.01, 50.0),
    (2000, 1.0, 1.0), (2000, 1e-6, 1.0),
])
def test_newton_frequencies_bitwise_equal_bisection_at_pinned_cases(m, beta0, beta1):
    assert_newton_returns_the_bisected_doubles(m, beta0, beta1)


def eigenpair_residual(sys, dec):
    """max_k ||M v_k - lambda_k v_k||_inf through the O(m) tridiagonal product."""
    VT = dec.vectors.T
    return np.abs(sys.matrix.apply(VT) - VT * dec.lambdas[:, None]).max()


@pytest.mark.parametrize("m,beta0", [(8, 1e-14), (100, 1e-12), (100, 1e-10), (500, 1e-8),
                                     (2000, 1e-6)])
def test_near_neumann_eigenpairs(m, beta0):
    # the roots just above (k-1) pi must land neither at (k-1/2) pi nor on
    # (k-1) pi itself (m = 100, beta0 = 1e-12 has roots within an ulp of it)
    sys = build_system(RobinBC(beta0, 1.0), m, ones_profile)
    dec = decompose(sys)
    assert np.all(dec.omegas > np.arange(m) * np.pi)
    assert eigenpair_residual(sys, dec) <= 1e-10 * m**2
    if m <= 500:                  # V^T V at m = 2000 is too slow here
        gram = dec.vectors.T @ dec.vectors - np.eye(m)
        assert np.abs(gram).max() <= 1e-12 * m


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 60), log_ratio=st.floats(-14.0, 14.0))
def test_robin_frequencies_bracketed_with_eigenpairs(m, log_ratio):
    sys = build_system(RobinBC(10.0**log_ratio, 1.0), m, ones_profile)
    dec = decompose(sys)
    k = np.arange(1, m + 1)
    assert np.all(dec.omegas > (k - 1) * np.pi)
    assert np.all(dec.omegas < (k - 0.5) * np.pi)
    assert eigenpair_residual(sys, dec) <= 1e-10 * m**2


def test_decompose_dirichlet_m2_against_dense():
    sys = build_system(RobinBC.dirichlet(), 2, ones_profile)
    dec = decompose(sys)
    assert dec.lambdas[0] == pytest.approx(-16 * np.sin(np.pi / 8) ** 2, abs=1e-12)
    assert dec.lambdas[1] == pytest.approx(-16 * np.sin(3 * np.pi / 8) ** 2, abs=1e-12)
    lam_ref, _ = dense_eigendecomposition(sys)
    assert np.abs(dec.lambdas - lam_ref).max() < 1e-12


def test_neumann_constant_mode():
    for m in (2, 7, 33):
        sys = build_system(RobinBC.neumann(), m, ones_profile)
        dec = decompose(sys)
        assert dec.lambdas[0] == 0.0
        assert np.allclose(dec.vectors[:, 0], np.full(m, 1 / np.sqrt(m)), atol=1e-15)


def test_dirichlet_m500_lowest_mode_limit():
    m = 500
    dec = decompose(build_system(RobinBC.dirichlet(), m, ones_profile))
    assert abs(dec.lambdas[0] + np.pi**2 / 4) <= 10 / m**2


@pytest.mark.parametrize("bc", [RobinBC.dirichlet(), RobinBC.neumann(),
                                RobinBC(1.0, 1.0), RobinBC(3.0, 1.0)])
def test_full_spectrum_crosscheck(bc):
    for m in range(2, 13):
        sys = build_system(bc, m, ones_profile)
        dec = decompose(sys)
        lam_ref, _ = dense_eigendecomposition(sys)
        assert np.abs(np.sort(dec.lambdas) - np.sort(lam_ref)).max() <= 1e-9 * m**2
        M = dense_matrix(sys)
        resid = np.abs(M @ dec.vectors - dec.vectors * dec.lambdas).max()
        assert resid <= 1e-10 * m**2
        gram = dec.vectors.T @ dec.vectors - np.eye(m)
        assert np.abs(gram).max() <= 1e-12 * m


def test_eigenvalue_bounds_and_normalization():
    for bc in (RobinBC.dirichlet(), RobinBC(0.5, 2.0), RobinBC.neumann()):
        for m in (2, 9, 64):
            sys = build_system(bc, m, ones_profile)
            dec = decompose(sys)
            assert np.all(dec.lambdas > -4 * m**2)
            assert np.all(dec.lambdas <= 0.0)
            assert (dec.lambdas[0] == 0.0) == (bc.beta0 == 0.0)
            norms = np.linalg.norm(dec.vectors, axis=0)
            assert np.abs(norms - 1.0).max() <= 1e-13


def angle_sum_vectors(om, nus):
    """V by the angle-sum formula written out: with B = isqrt(m), row
    j = B q + r - 1 (0-based, r = 1..B) is
    cos(omega (B q/m)) nu cos(omega (r - 1/2)/m)
    - sin(omega (B q/m)) nu sin(omega (r - 1/2)/m)."""
    m = om.shape[0]
    B = math.isqrt(m)
    b = np.outer((np.arange(B) + 0.5) / m, om)
    V = np.empty((m, m))
    for j in range(0, m, B):
        n = min(B, m - j)
        a = om * (j / m)
        V[j:j + n] = (np.cos(b[:n]) * nus) * np.cos(a) - (np.sin(b[:n]) * nus) * np.sin(a)
    return V


@pytest.mark.parametrize("bc", [RobinBC.dirichlet(), RobinBC.neumann(), RobinBC(1.0, 1.0),
                                RobinBC(2.0, 0.5)])
def test_decompose_vectors_bitwise_equal_the_angle_sum_form(bc):
    for m in (2, 7, 300):
        sys = build_system(bc, m, ones_profile)
        dec = decompose(sys)
        assert dec.vectors.tobytes() == angle_sum_vectors(dec.omegas, dec.nus).tobytes()


@pytest.mark.parametrize("m", (500, 2000))
@pytest.mark.parametrize("bc", [RobinBC.dirichlet(), RobinBC(1.0, 1.0)],
                         ids=("dirichlet", "robin11"))
def test_decompose_vectors_within_5e_14_of_mpmath(bc, m):
    # 3000 sampled entries nu_k cos(omega_k (2j-1)/(2m)) at 40 digits, with
    # omega_k and (2j-1)/(2m) exact: the angle sums read at most 2.2e-14 at
    # m = 2000, the cos(outer) form 2.5e-14
    dec = decompose(build_system(bc, m, ones_profile))
    rng = np.random.default_rng(m)
    worst = 0.0
    with mpmath.workdps(40):
        for j, k in zip(rng.integers(1, m + 1, 3000), rng.integers(0, m, 3000)):
            w = mpmath.mpf(float(dec.omegas[k]))
            nu = 2 / mpmath.sqrt(2 * m + mpmath.sin(2 * w) / mpmath.sin(w / m))
            ref = nu * mpmath.cos(w * (2 * int(j) - 1) / (2 * m))
            worst = max(worst, abs(float(dec.vectors[j - 1, k] - ref)))
    assert worst <= 5e-14


def test_decompose_holds_one_square_array():
    # Robin(1,1), m=1000: V is one 8 MB array, built in its own buffer beside
    # three isqrt(m) x m blocks; the cos(outer) * nus form held two
    sys = build_system(RobinBC(1.0, 1.0), 1000, ones_profile)
    tracemalloc.start()
    try:
        decompose(sys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 1000**2 * 8


def test_modal_roundtrip_and_unit_vectors(rng):
    sys = build_system(RobinBC.dirichlet(), 8, ones_profile)
    dec = decompose(sys)
    w = rng.standard_normal(8)
    assert np.abs(from_modal(dec, to_modal(dec, w)) - w).max() < 1e-12
    for k in range(8):
        ek = np.zeros(8)
        ek[k] = 1.0
        assert np.abs(to_modal(dec, dec.vectors[:, k]) - ek).max() < 1e-12


def test_to_modal_matches_explicit_assembly():
    m = 8
    sys = build_system(RobinBC.dirichlet(), m, ones_profile)
    dec = decompose(sys)
    # independent assembly of V^T * ones from the cosine formula
    k = np.arange(1, m + 1)
    om = (k - 0.5) * np.pi
    nu = 2.0 / np.sqrt(2 * m + np.sin(2 * om) / np.sin(om / m))
    j = np.arange(1, m + 1)
    V = np.cos(np.outer((2 * j - 1) / (2 * m), om)) * nu
    expected = V.T @ np.ones(m)
    assert np.abs(to_modal(dec, np.ones(m)) - expected).max() < 1e-13


def test_cached_modal_vector_is_read_only(rng):
    dec = decompose(build_system(RobinBC(1.0, 1.0), 8, ones_profile))
    w = rng.standard_normal(8)
    first = to_modal(dec, w)
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0.0
    hit = to_modal(dec, w.copy())               # same bytes: the cached array
    assert hit is first and not hit.flags.writeable


def test_modal_dimension_mismatch():
    dec = decompose(build_system(RobinBC.dirichlet(), 4, ones_profile))
    with pytest.raises(ValueError):
        to_modal(dec, np.zeros(5))
    with pytest.raises(ValueError):
        from_modal(dec, np.zeros(3))


def test_heat_flow_matches_mode_decay():
    sys = build_system(RobinBC.dirichlet(), 6, ones_profile)
    dec = decompose(sys)
    v = dec.vectors[:, 2]
    out = adjoint_exact(dec, v, 0.0, 0.3)
    assert np.abs(out - np.exp(dec.lambdas[2] * 0.3) * v).max() < 1e-14
    with pytest.raises(ValueError):
        adjoint_exact(dec, v, 0.0, -0.1)
