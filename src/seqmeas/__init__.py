"""Arbitrary-strength sequential qubit measurements and exact correlators.

Simulates the two canonical generalized qubit measurements (informative
partial projections and noninformative conditional rotations), verifies
their operator identities, and uses measurement sequences to obtain
two-point time-ordered and four-point out-of-time-ordered correlators
exactly at any measurement strength.
"""

from .core import (
    CHECK_TOL,
    DensityMatrix,
    NumericalInvariantError,
    PureState,
    apply_unitary,
    distance_up_to_phase,
    embed,
    expectation,
    partial_trace,
    tensor,
)
from .observables import (
    PauliString,
    basis_ket,
    coupling_unitary,
    entangling_gate,
    pauli_matrix,
    rotation_gate,
)
from .circuits import (
    Circuit,
    Gate,
    MeasurementCircuit,
    induced_kraus,
    synthesize_measurement_circuit,
)
from .measurement import (
    DetectorConfig,
    DivergentModularValueError,
    KrausPair,
    MeasurementSpec,
    calibrate_generalized_eigenvalues,
    canonical_detector,
    generalized_eigenvalue,
    informative_kraus,
    kraus_coefficients,
    kraus_from_detector,
    kraus_pair,
    modular_value,
    noninformative_kraus,
    state_update,
    weak_value,
)
from .dynamics import (
    ClockPropagator,
    Hamiltonian,
    Propagator,
    build_mixed_field_ising,
    heisenberg,
    propagator,
    time_reversed_evolution,
)
from .oracle import oracle_nested, oracle_otoc, oracle_toc
from .protocols import (
    CorrelatorEstimate,
    EvolveStep,
    MeasureStep,
    OutcomeRecord,
    nested_estimate,
    otoc,
    otoc_value,
    rms_bound,
    sample_protocol,
    sequence_distribution,
    toc,
)
from .config import ConfigError, ExperimentConfig, config_from_dict, load_config
from .experiment import ResultRow, rows_to_csv, run_experiment, write_outputs

__version__ = "0.1.0"
