"""Input rejections that no other test reaches: each raises its own
exception type with a message that names what is wrong."""

import math

import numpy as np
import pytest

import seqmeas.protocols as protocols_mod
from seqmeas import (
    DensityMatrix,
    DetectorConfig,
    EvolveStep,
    Gate,
    KrausPair,
    MeasureStep,
    MeasurementSpec,
    NumericalInvariantError,
    PauliString,
    PureState,
    apply_unitary,
    calibrate_generalized_eigenvalues,
    canonical_detector,
    embed,
    heisenberg,
    nested_estimate,
    oracle_nested,
    otoc_value,
    partial_trace,
    propagator,
    rotation_gate,
    sample_protocol,
    synthesize_measurement_circuit,
    weak_value,
)
from seqmeas.measurement import outcome_sign
from seqmeas.observables import PAULI_X, PAULI_Y, PAULI_Z, basis_ket

Z = PauliString(("Z",))
RHO = DensityMatrix.maximally_mixed(1)
STEPS = [MeasureStep(MeasurementSpec(Z, math.pi / 2, "informative"))]
KET0 = PureState(1, basis_ket("z-"))
KET1 = PureState(1, basis_ket("z+"))


def _detector(**changes):
    fields = {
        "initial_state": PureState(1, basis_ket("x-")),
        "coupling_observable": PAULI_Y,
        "readout_basis": (KET0, KET1),
    }
    fields.update(changes)
    return DetectorConfig(**fields)


def _heisenberg_protocol(**kwargs):
    return protocols_mod._heisenberg_protocol(
        RHO, Z, Z, 2, [np.eye(2)], ("real",), [1.0, 1.0], **kwargs
    )


CASES = {
    "EvolveStep non-unitary": (
        lambda: EvolveStep(2 * np.eye(2)), ValueError, "not unitary to 1e-10"),
    "EvolveStep 1-D unitary": (
        lambda: EvolveStep(np.ones(4)), ValueError, "not unitary to 1e-10"),
    "EvolveStep 0-D unitary": (
        lambda: EvolveStep(np.array(1.0)), ValueError, "not unitary to 1e-10"),
    "apply_unitary 1-D unitary": (
        lambda: apply_unitary(RHO, np.ones(4)), ValueError, "not unitary to 1e-10"),
    "propagator 1-D Hamiltonian": (
        lambda: propagator(np.ones(4), 0.5), ValueError, "not Hermitian to 1e-10"),
    "propagator 0-D Hamiltonian": (
        lambda: propagator(np.array(1.0), 0.5), ValueError, "not Hermitian to 1e-10"),
    "sample_protocol float trials": (
        lambda: sample_protocol(RHO, STEPS, 10.7, 3),
        TypeError, "cannot be interpreted as an integer"),
    "sample_protocol float seed": (
        lambda: sample_protocol(RHO, STEPS, 10, 3.7),
        TypeError, "cannot be interpreted as an integer"),
    "nested_estimate sampled float trials": (
        lambda: nested_estimate(RHO, STEPS, mode="sampled", trials=10.7, seed=3),
        TypeError, "cannot be interpreted as an integer"),
    "nested_estimate sampled float seed": (
        lambda: nested_estimate(RHO, STEPS, mode="sampled", trials=10, seed=3.7),
        TypeError, "cannot be interpreted as an integer"),
    "nested_estimate unknown mode": (
        lambda: nested_estimate(RHO, STEPS, mode="fast"), ValueError, "unknown mode 'fast'"),
    "nested_estimate sampled without seed": (
        lambda: nested_estimate(RHO, STEPS, mode="sampled", trials=10),
        ValueError, "sampled mode needs trials and seed"),
    "_heisenberg_protocol unknown mode": (
        lambda: _heisenberg_protocol(mode="fast"), ValueError, "unknown mode 'fast'"),
    "_heisenberg_protocol sampled without seeds": (
        lambda: _heisenberg_protocol(mode="sampled", trials=10),
        ValueError, "sampled mode needs trials and seed"),
    "otoc_value bad part": (
        lambda: otoc_value("both", 0.5), ValueError, "part must be 'real' or 'imag'"),
    "MeasurementSpec bad kind": (
        lambda: MeasurementSpec(Z, 1.0, "weak"), ValueError, "kind must be one of"),
    "MeasurementSpec non-square observable": (
        lambda: MeasurementSpec(np.ones((2, 4)), 1.0, "informative"),
        ValueError, "must be a square matrix"),
    "MeasurementSpec non-Hermitian observable": (
        lambda: MeasurementSpec(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, "informative"),
        ValueError, "not Hermitian"),
    "outcome_sign(2)": (lambda: outcome_sign(2), ValueError, "outcome must be 0 or 1"),
    "DetectorConfig two-qubit initial state": (
        lambda: _detector(initial_state=PureState.from_label("00")),
        ValueError, "initial state must be a single qubit"),
    "DetectorConfig non-Hermitian coupling": (
        lambda: _detector(coupling_observable=PAULI_X + 1j * PAULI_Z),
        ValueError, "2x2 Hermitian"),
    "DetectorConfig two-qubit readout state": (
        lambda: _detector(readout_basis=(KET0, PureState.from_label("01"))),
        ValueError, "readout basis states must be single qubits"),
    "DetectorConfig non-orthogonal readout": (
        lambda: _detector(readout_basis=(KET0, KET0)), ValueError, "not orthogonal"),
    "canonical_detector bad kind": (
        lambda: canonical_detector("weak"), ValueError, "kind must be one of"),
    "weak_value negative order": (
        lambda: weak_value(-1, canonical_detector("informative"), KET1),
        ValueError, "order must be nonnegative"),
    "calibrate too many targets": (
        lambda: calibrate_generalized_eigenvalues(
            KrausPair(np.eye(2) / math.sqrt(2), np.eye(2) / math.sqrt(2)), [-1, 0, 1]),
        ValueError, "need between 1 and 2 target eigenvalues, got 3"),
    "PureState wrong length": (
        lambda: PureState(1, np.ones(4) / 2), ValueError, "must have length 2"),
    "PureState non-finite amplitudes": (
        lambda: PureState(1, np.array([np.nan, 1.0])), ValueError, "non-finite amplitudes"),
    "PureState bad label": (
        lambda: PureState.from_label("012"), ValueError, "nonempty bit string"),
    "DensityMatrix wrong shape": (
        lambda: DensityMatrix(2, np.eye(2) / 2), ValueError, "must be 4x4"),
    "partial_trace keeps nothing": (
        lambda: partial_trace(DensityMatrix.maximally_mixed(2), ()),
        ValueError, "keep at least one qubit"),
    "embed shape mismatch": (
        lambda: embed(np.eye(4), 3, [0]), ValueError, "does not match 1 target qubit"),
    "heisenberg non-2^n evolution": (
        lambda: heisenberg(Z, np.eye(3)), ValueError, "is not 2^n x 2^n"),
    "Gate duplicate targets": (
        lambda: Gate("cz", (1, 1)), ValueError, "targets must be distinct"),
    "Gate custom without matrix": (
        lambda: Gate("custom", (0,)), ValueError, "custom gate needs a matrix"),
    "Gate custom misshaped matrix": (
        lambda: Gate("custom", (0, 1), matrix_override=np.eye(2)),
        ValueError, "does not fit 2 qubits"),
    "Gate unknown name": (lambda: Gate("swap", (0, 1)), ValueError, "unknown gate 'swap'"),
    "PauliString no factors": (
        lambda: PauliString(()), ValueError, "needs at least one factor"),
    "PauliString bad sign": (
        lambda: PauliString(("Z",), 2), ValueError, "sign must be +1 or -1, got 2"),
    "commutes_with across register sizes": (
        lambda: Z.commutes_with(PauliString(("Z", "I"))),
        ValueError, "act on different register sizes"),
    "rotation_gate axis I": (
        lambda: rotation_gate("I", 0.1), ValueError, "rotation axis must be x, y or z"),
    "basis_ket unknown label": (
        lambda: basis_ket("q+"), ValueError, "unknown basis ket 'q+'"),
    "oracle_nested mismatched lengths": (
        lambda: oracle_nested(RHO, [Z, Z], ["informative"]),
        ValueError, "observables and kinds must have equal length"),
    "synthesize_measurement_circuit bad kind": (
        lambda: synthesize_measurement_circuit(Z, 1.0, "weak", "cz"),
        ValueError, "kind must be one of"),
    "oracle_nested unknown kind": (
        lambda: oracle_nested(RHO, [Z], ["weak"]), ValueError, "unknown measurement kind 'weak'"),
    "oracle_nested no observables": (
        lambda: oracle_nested(RHO, [], []), ValueError, "need at least one observable"),
    "PureState zero qubits": (
        lambda: PureState(0, np.ones(1)), ValueError, "n_qubits must be a positive integer, got 0"),
    "PureState fractional qubits": (
        lambda: PureState(2.5, np.ones(4) / 2),
        ValueError, "n_qubits must be a positive integer, got 2.5"),
    "_leaf_probabilities sum below 1": (
        lambda: protocols_mod._leaf_probabilities(
            [np.diag([0.2, 0.2]), np.diag([0.25, 0.25])], [], 2),
        NumericalInvariantError, "sequence probabilities sum to 0.9"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_rejection(case):
    call, error, message = CASES[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert message in str(info.value)


def test_numpy_integer_trials_and_seed_pass():
    # Trials and seeds go through operator.index: numpy integers are taken
    # as their values, where a float is rejected above.
    ref = sample_protocol(RHO, STEPS, 10, 3)
    assert sample_protocol(RHO, STEPS, np.int64(10), np.uint64(3)) == ref
    got = nested_estimate(RHO, STEPS, mode="sampled", trials=np.int32(10), seed=np.int64(3))
    assert got == ref
