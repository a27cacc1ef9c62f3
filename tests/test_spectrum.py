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
