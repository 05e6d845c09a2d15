"""Circuit assembly and the measurement-circuit synthesis contract."""

import math

import numpy as np
import pytest
from helpers import random_pauli, random_unitary
from scipy.linalg import expm

from seqmeas import (
    Circuit,
    Gate,
    MeasurementSpec,
    PauliString,
    distance_up_to_phase,
    embed,
    induced_kraus,
    kraus_pair,
    synthesize_measurement_circuit,
    tensor,
)
from seqmeas.observables import PAULI_X, PAULI_Y, basis_ket, rotation_gate


class TestCircuit:
    def test_single_gate_embedding(self):
        c = Circuit(2, (Gate("rx", (0,), 0.7),))
        np.testing.assert_allclose(
            c.unitary(), tensor(rotation_gate("x", 0.7), np.eye(2)), atol=1e-15
        )

    def test_gate_order(self):
        # gates[0] applies first: U = G1 G0
        c = Circuit(1, (Gate("rx", (0,), 0.5), Gate("rz", (0,), 1.1)))
        expected = rotation_gate("z", 1.1) @ rotation_gate("x", 0.5)
        np.testing.assert_allclose(c.unitary(), expected, atol=1e-15)

    def test_custom_gate(self):
        g = Gate("custom", (0,), matrix_override=PAULI_X)
        np.testing.assert_array_equal(g.matrix(), PAULI_X)

    @staticmethod
    def _embedded_product(c):
        u = np.eye(2**c.n_qubits, dtype=np.complex128)
        for g in c.gates:
            u = embed(g.matrix(), c.n_qubits, g.targets) @ u
        return u

    def test_unitary_equals_embedded_product_bit_for_bit(self):
        rng = np.random.default_rng(31)
        seen = set()
        for _ in range(120):
            n = int(rng.integers(1, 4))
            gateset = ("cz", "zx90")[int(rng.integers(2))]
            kind = ("informative", "noninformative")[int(rng.integers(2))]
            phi = float(rng.uniform(0.05, math.pi / 2))
            mc = synthesize_measurement_circuit(random_pauli(rng, n), phi, kind, gateset)
            u = mc.circuit.unitary()
            assert u.dtype == np.complex128
            np.testing.assert_array_equal(u, self._embedded_product(mc.circuit))
            seen.add(gateset)
        assert seen == {"cz", "zx90"}

    def test_custom_gates_on_reversed_targets_bit_for_bit(self):
        # Dense gates on reversed and non-adjacent targets: each entry sums
        # every term of the gate, so the order of the sum must match too.
        rng = np.random.default_rng(32)
        for _ in range(40):
            n = int(rng.integers(3, 6))
            gates = []
            for k in (2, 3, 2, 1, 3):
                targets = tuple(int(q) for q in rng.permutation(n)[:k])
                gates.append(Gate("custom", targets, matrix_override=random_unitary(rng, 2**k)))
            gates.append(Gate("custom", (n - 1, 0), matrix_override=random_unitary(rng, 4)))
            c = Circuit(n, tuple(gates))
            u = c.unitary()
            assert u.dtype == np.complex128
            np.testing.assert_array_equal(u, self._embedded_product(c))

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate("cz", (0,))
        with pytest.raises(ValueError):
            Gate("rx", (0, 1), 0.5)
        with pytest.raises(ValueError):
            Gate("rx", (0,))
        with pytest.raises(ValueError):
            Gate("custom", (0,), matrix_override=np.array([[1, 1], [0, 1]]))
        with pytest.raises(ValueError):
            Circuit(1, (Gate("rx", (1,), 0.1),))


class TestSynthesisContract:
    def test_projective_z_gives_eigenprojectors(self):
        # phi = pi/2 informative measurement of Z: Kraus = eigenprojectors
        mc = synthesize_measurement_circuit(
            PauliString(("Z",)), math.pi / 2, "informative", "cz"
        )
        k0, k1 = induced_kraus(mc)
        proj_plus = np.outer(basis_ket("z+"), basis_ket("z+").conj())
        proj_minus = np.outer(basis_ket("z-"), basis_ket("z-").conj())
        assert distance_up_to_phase(k1, proj_plus) < 1e-12
        assert distance_up_to_phase(k0, proj_minus) < 1e-12

    def test_x_measurement_is_conjugated_z(self):
        # the X circuit realizes U_A with U_A Z U_A^dag = X
        phi = 0.8
        mc = synthesize_measurement_circuit(PauliString(("X",)), phi, "informative", "cz")
        induced = induced_kraus(mc)
        analytic = kraus_pair(MeasurementSpec(PauliString(("X",)), phi, "informative"))
        for out in (0, 1):
            assert distance_up_to_phase(induced[out], analytic[out]) < 1e-10

    def test_circuit_unitary_realizes_coupling(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = random_pauli(rng, int(rng.integers(1, 4)))
            phi = float(rng.uniform(0.05, math.pi / 2))
            gateset = ("cz", "zx90")[int(rng.integers(2))]
            mc = synthesize_measurement_circuit(p, phi, "informative", gateset)
            target = expm(-1j * phi / 2 * tensor(p.matrix(), PAULI_Y))
            assert distance_up_to_phase(mc.circuit.unitary(), target) < 1e-10

    @pytest.mark.parametrize("gateset", ["cz", "zx90"])
    @pytest.mark.parametrize("kind", ["informative", "noninformative"])
    def test_randomized_contract(self, gateset, kind):
        rng = np.random.default_rng(hash((gateset, kind)) % 2**32)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            p = random_pauli(rng, n)
            phi = float(rng.uniform(0.0, math.pi / 2)) or math.pi / 2
            mc = synthesize_measurement_circuit(p, phi, kind, gateset)
            induced = induced_kraus(mc)
            analytic = kraus_pair(MeasurementSpec(p, phi, kind))
            for out in (0, 1):
                assert distance_up_to_phase(induced[out], analytic[out]) < 1e-10

    def test_uses_only_allowed_gates(self):
        mc = synthesize_measurement_circuit(
            PauliString(("X", "Y", "Z")), 0.4, "noninformative", "zx90"
        )
        names = {g.name for g in mc.circuit.gates}
        assert names <= {"rx", "ry", "rz", "zx90"}
        assert mc.ancilla == 3
        assert mc.readout_basis == "y"

    def test_rejects_identity_and_bad_phi(self):
        with pytest.raises(ValueError, match="identity"):
            synthesize_measurement_circuit(PauliString(("I",)), 0.5, "informative", "cz")
        z = PauliString(("Z",))
        with pytest.raises(ValueError, match="phi"):
            synthesize_measurement_circuit(z, 0.0, "informative", "cz")
        with pytest.raises(ValueError, match="phi"):
            synthesize_measurement_circuit(z, 2.0, "informative", "cz")
        with pytest.raises(ValueError, match="kind"):
            synthesize_measurement_circuit(z, 0.5, "strong", "cz")
        with pytest.raises(ValueError, match="gateset"):
            synthesize_measurement_circuit(z, 0.5, "informative", "cnot")
