"""Boundary-controlled discrete heat equation with exact solutions, used as
ground truth for convergence-order benchmarking of stiff time integrators."""

__version__ = "0.1.0"

from .heat_mol import (
    ConfigError, MolSystem, RobinBC, TridiagonalMatrix,
    build_system, load_problem, ones_profile, robin_coefficients,
)
from .spectrum import (
    SpectralDecomposition, decompose, from_modal, solve_frequencies, to_modal,
)
from .exact_oc import (
    ExactOcSolution, ExpSumFunction, OcProblem, adjoint_exact, build_Q,
    exact_objective, objective, phi1, solve_ivp_exact, solve_terminal,
    sparse_target,
)
from .integrators import (
    IrkTableau, LinearOde, MethodSpec, MissingPeerCoefficientsError,
    NumericalError, PeerScheme, Trajectory, collocation, gauss2, get_method,
    integrate_adjoint, integrate_forward, irk_step, load_peer_scheme,
    lobatto_iiia, lobatto_iiib, peer_step, peer_toy2, stability_function,
)
from .discrete_opt import (
    DiscreteControl, OptimizationResult, OptimizerConfig,
    control_quadrature_weights, discrete_gradient, discrete_objective, optimize,
)
from .bench import (
    ConvergenceReport, ExperimentConfig, ReportRow, benchmark_instance,
    emit_report, render_csv, render_gnuplot, render_table, run_scenario1,
    run_scenario2,
)
