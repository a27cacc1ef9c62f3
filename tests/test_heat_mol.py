import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatoc import (
    ConfigError, DiscreteControl, ExpSumFunction, RobinBC, TridiagonalMatrix,
    build_system, decompose, gauss2, load_problem, ones_profile, peer_toy2,
    robin_coefficients,
)
from conftest import make_instance


def dense(sys):
    tri = sys.matrix
    return np.diag(tri.diagonal) + np.diag(tri.off, 1) + np.diag(tri.off, -1)


def test_robin_coefficients_dirichlet_m4():
    theta, gamma = robin_coefficients(RobinBC.dirichlet(), 4)
    assert theta == 3.0
    assert gamma == 32.0          # 2 / xi^2 with xi = 1/4


def test_robin_coefficients_neumann_m4():
    theta, gamma = robin_coefficients(RobinBC.neumann(), 4)
    assert theta == 1.0
    assert gamma == 4.0           # 1 / xi


def test_robin_coefficients_mixed_m2():
    theta, gamma = robin_coefficients(RobinBC(1.0, 1.0), 2)
    assert theta == pytest.approx(1.4, abs=1e-15)
    assert gamma == pytest.approx(1.6, abs=1e-15)


def test_degenerate_bc_rejected():
    with pytest.raises(ConfigError):
        RobinBC(0.0, 0.0)
    with pytest.raises(ConfigError):
        RobinBC(-1.0, 1.0)


def test_build_system_dirichlet_m3():
    sys = build_system(RobinBC.dirichlet(), 3, ones_profile)
    assert np.allclose(sys.matrix.diagonal, [-9.0, -18.0, -27.0])
    assert np.allclose(sys.matrix.off, [9.0, 9.0])
    assert np.array_equal(sys.psi, np.ones(3))
    assert np.allclose(sys.grid, [1 / 6, 1 / 2, 5 / 6])


def test_build_system_neumann_m2():
    sys = build_system(RobinBC.neumann(), 2, ones_profile)
    assert np.allclose(sys.matrix.diagonal, [-4.0, -4.0])
    assert np.allclose(sys.matrix.off, [4.0])


def test_build_system_m250_ones():
    sys = build_system(RobinBC.dirichlet(), 250, ones_profile)
    assert sys.psi.shape == (250,)
    assert np.array_equal(sys.psi, np.ones(250))


def test_build_system_rejects_small_m():
    with pytest.raises(ConfigError):
        build_system(RobinBC.dirichlet(), 1, ones_profile)


def test_apply_matrix_zero_vector():
    sys = build_system(RobinBC.dirichlet(), 5, ones_profile)
    assert np.array_equal(sys.matrix.apply(np.zeros(5)), np.zeros(5))


def test_apply_matrix_dirichlet_m2_explicit():
    sys = build_system(RobinBC.dirichlet(), 2, ones_profile)
    assert np.allclose(sys.matrix.apply(np.ones(2)), [0.0, -8.0])


def test_apply_matrix_matches_dense(rng):
    sys = build_system(RobinBC(2.0, 0.5), 8, ones_profile)
    v = rng.standard_normal(8)
    assert np.allclose(sys.matrix.apply(v), dense(sys) @ v, atol=1e-13)
    block = rng.standard_normal((3, 8))          # an (s, m) stage block
    assert np.allclose(sys.matrix.apply(block), block @ dense(sys).T, atol=1e-13)
    assert np.array_equal(sys.matrix.apply(block)[1], sys.matrix.apply(block[1]))


def test_apply_matrix_dimension_mismatch():
    sys = build_system(RobinBC.dirichlet(), 4, ones_profile)
    with pytest.raises(ValueError):
        sys.matrix.apply(np.zeros(5))
    with pytest.raises(ValueError):
        sys.matrix.apply(np.zeros((4, 5)))


bc_strategy = st.sampled_from([
    RobinBC.dirichlet(), RobinBC.neumann(), RobinBC(1.0, 1.0),
    RobinBC(3.0, 1.0), RobinBC(0.2, 4.0),
])


@settings(max_examples=30, deadline=None)
@given(m=st.integers(2, 40), bc=bc_strategy, seed=st.integers(0, 2**31))
def test_matrix_symmetry(m, bc, seed):
    sys = build_system(bc, m, ones_profile)
    gen = np.random.default_rng(seed)
    v, w = gen.standard_normal(m), gen.standard_normal(m)
    lhs = sys.matrix.apply(v) @ w
    rhs = v @ sys.matrix.apply(w)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(2, 40), bc=bc_strategy, seed=st.integers(0, 2**31))
def test_matrix_negative_semidefinite(m, bc, seed):
    sys = build_system(bc, m, ones_profile)
    gen = np.random.default_rng(seed)
    v = gen.standard_normal(m)
    quad = sys.matrix.apply(v) @ v
    assert quad <= 1e-9 * (v @ v) * m**2
    if sys.theta > 1.0 + 1e-12:
        assert quad < 0.0


def test_neumann_rowsums_exactly_zero():
    sys = build_system(RobinBC.neumann(), 17, ones_profile)
    assert np.array_equal(sys.matrix.apply(np.ones(17)), np.zeros(17))


@settings(max_examples=40, deadline=None)
@given(s=st.floats(1e-6, 1e6), beta0=st.floats(0.01, 100.0),
       beta1=st.floats(0.01, 100.0), m=st.integers(2, 50))
def test_theta_invariant_under_joint_scaling(s, beta0, beta1, m):
    t1, gamma = robin_coefficients(RobinBC(beta0, beta1), m)
    t2, _ = robin_coefficients(RobinBC(s * beta0, s * beta1), m)
    assert t2 == pytest.approx(t1, rel=1e-12)
    assert 1.0 <= t1 <= 3.0
    assert gamma > 0.0


@pytest.mark.parametrize("build", [
    lambda: build_system(RobinBC.dirichlet(), 4, ones_profile),
    lambda: TridiagonalMatrix(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.25])),
    gauss2,
    peer_toy2,
    lambda: decompose(build_system(RobinBC.dirichlet(), 4, ones_profile)),
    lambda: ExpSumFunction(np.array([1.0]), np.array([-2.0]), 1.0),
    lambda: make_instance(4)[0],
    lambda: make_instance(4)[1],
    lambda: DiscreteControl(np.ones((2, 2)), 0.5, np.array([0.25, 0.75])),
], ids=["MolSystem", "TridiagonalMatrix", "IrkTableau", "PeerScheme",
        "SpectralDecomposition", "ExpSumFunction", "OcProblem", "ExactOcSolution",
        "DiscreteControl"])
def test_array_dataclasses_compare_by_identity(build):
    # two distinct but equal instances: == must not compare the arrays
    a, b = build(), build()
    assert a == a and a != b
    assert len({a, b}) == 2


def test_robin_bc_keeps_value_equality():
    assert RobinBC(1.0, 0.0) == RobinBC.dirichlet()
    assert hash(RobinBC(1.0, 0.0)) == hash(RobinBC.dirichlet())


def test_load_problem_ones():
    sys = load_problem({"m": 4, "beta0": 1.0, "beta1": 0.0, "profile": "ones"})
    assert sys.theta == 3.0
    assert np.array_equal(sys.psi, np.ones(4))


def test_load_problem_samples(tmp_path):
    doc = {"m": 3, "beta0": 0.0, "beta1": 2.0,
           "profile": {"samples": [0.1, 0.2, 0.3]}}
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    sys = load_problem(path)
    assert np.allclose(sys.psi, [0.1, 0.2, 0.3])
    assert sys.theta == 1.0


def test_load_problem_bad_docs():
    with pytest.raises(ConfigError):
        load_problem({"m": 3, "beta0": 1.0, "beta1": 0.0,
                      "profile": {"samples": [1.0, 2.0]}})   # wrong length
    with pytest.raises(ConfigError):
        load_problem({"beta0": 1.0, "beta1": 0.0})           # missing m
    with pytest.raises(ConfigError):
        load_problem({"m": 3, "beta0": 1.0, "beta1": 0.0, "profile": "spline"})
