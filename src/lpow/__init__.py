"""Perception witnesses and Bell-functional toolkit for few-qubit states."""

from .linalg import PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z, kron, partial_trace, singular_values
from .states import (
    DensityMatrix,
    HorodeckiResult,
    QubitObservable,
    bloch_vector,
    cg_lambda,
    correlation_matrix,
    horodecki,
    make_state,
    observable,
    optimized_chsh,
)
from .lpo import LocalPerceivedOperator, lpo_correlator, lpo_project, perceived_expectation
from .bell import (
    BellFunctional,
    BellOptimum,
    MarginalMeans,
    MeasurementScenario,
    OptimizerConfig,
    bell_operator_matrix,
    bilinear_value,
    c3322_value,
    chsh_settings,
    cond_joint_prob,
    functional_value,
    i2222_probability_value,
    i3322_probability_value,
    lhv_bound,
    marginal_means,
    normalized_value,
    optimize_functional_value,
    planar_3322_settings,
    preset_functional,
    scenario_from_directions,
)
from .witness import (
    WitnessReport,
    asym_sup,
    asym_value_fixed,
    bound_geometry_free,
    bound_orthogonal,
    mermin_lhv_bound,
    mermin_lpo_witness,
    mermin_settings,
    mermin_value,
    sym_sup,
    sym_value_fixed,
)
from .quantities import QUANTITY_NAMES, QuantityResult, compute_quantities, compute_quantity
from .sweeps import SweepSpec, SweepResult, read_csv, run_sweep, sweep_to_csv, write_csv

__version__ = "0.1.0"
