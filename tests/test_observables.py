"""Pauli strings, rotations, entanglers, and the ancilla coupling."""

import functools
import itertools
import math

import numpy as np
import pytest
from helpers import expm_taylor, max_abs, random_pauli
from scipy.linalg import expm

from seqmeas import (
    PauliString,
    coupling_unitary,
    embed,
    entangling_gate,
    pauli_matrix,
    rotation_gate,
    tensor,
)
from seqmeas.observables import PAULI_Y, PAULIS, basis_ket


class TestPauliString:
    def test_z_matrix_convention(self):
        # Z = |1><1| - |0><0| -> diag(-1, +1) in the (|0>, |1>) ordering
        np.testing.assert_array_equal(
            pauli_matrix(PauliString(("Z",))), np.diag([-1.0, 1.0]).astype(complex)
        )

    def test_all_identity(self):
        np.testing.assert_array_equal(pauli_matrix(PauliString(("I", "I"))), np.eye(4))

    def test_xz_squares_to_identity(self):
        m = pauli_matrix(PauliString(("X", "Z")))
        np.testing.assert_allclose(m @ m, np.eye(4), atol=1e-15)

    def test_sign(self):
        p = PauliString.from_text("-XZ")
        np.testing.assert_array_equal(p.matrix(), -pauli_matrix(PauliString(("X", "Z"))))

    def test_text_round_trip(self):
        for text in ("+XIZY", "-ZZ", "+I"):
            assert str(PauliString.from_text(text)) == text
        assert str(PauliString.from_text("XY")) == "+XY"

    def test_bad_text(self):
        with pytest.raises(ValueError):
            PauliString.from_text("+XQ")
        with pytest.raises(ValueError):
            PauliString.from_text("-")

    def test_squares_to_identity_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = random_pauli(rng, int(rng.integers(1, 5)), nontrivial=False)
            m = p.matrix()
            assert max_abs(m @ m - np.eye(m.shape[0])) < 1e-12
            assert max_abs(m - m.conj().T) == 0.0

    def test_commute_predicate_matches_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            p, q = random_pauli(rng, n), random_pauli(rng, n)
            comm = p.matrix() @ q.matrix() - q.matrix() @ p.matrix()
            norm = np.linalg.norm(comm)
            if p.commutes_with(q):
                assert norm < 1e-12
            else:
                # anticommuting strings: PQ = -QP, so ||[P,Q]|| = 2 ||PQ||
                assert norm == pytest.approx(
                    2 * np.linalg.norm(p.matrix() @ q.matrix()), rel=1e-12
                )

    def test_action_sign_convention(self):
        # Z = diag(-1, +1), Y = [[0, i], [-i, 0]], the string sign included
        perm, d = PauliString(("Z",)).action(1)
        np.testing.assert_array_equal(perm, [0, 1])
        np.testing.assert_array_equal(d, [-1, 1])
        perm, d = PauliString(("Y",), -1).action(1)
        np.testing.assert_array_equal(perm, [1, 0])
        np.testing.assert_array_equal(d, [-1j, 1j])

    def test_action_matches_embedded_matrix(self):
        rng = np.random.default_rng(2)
        seen_y = seen_minus = 0
        for trial in range(120):
            k = int(rng.integers(1, 5))
            p = random_pauli(rng, k, nontrivial=False)
            if trial % 3 == 0:  # the clock-ancilla layout
                n, targets = k + 1, tuple(range(k))
            else:
                n = int(rng.integers(k, 6))
                targets = tuple(int(q) for q in rng.permutation(n)[:k])
            dim = 2**n
            x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            full = embed(p.matrix(), n, targets)
            perm, d = p.action(n, targets)
            assert max_abs(d[:, None] * x[perm] - full @ x) <= 1e-15
            assert max_abs(x[:, perm] * d.conj() - x @ full) <= 1e-15
            seen_y += "Y" in p.factors
            seen_minus += p.sign < 0
        assert seen_y and seen_minus

    def test_action_signs_are_real_for_an_even_number_of_y(self):
        for text, dtype in (("+XZI", np.float64), ("+YYI", np.float64), ("+IYZ", np.complex128)):
            assert PauliString.from_text(text).action(3)[1].dtype == dtype

    def test_matrix_equals_kron_of_factors(self):
        for n in range(1, 4):
            for factors in itertools.product("IXYZ", repeat=n):
                for sign in (1, -1):
                    p = PauliString(factors, sign)
                    ref = sign * functools.reduce(np.kron, (PAULIS[f] for f in factors))
                    m = p.matrix()
                    assert m.dtype == np.complex128
                    np.testing.assert_array_equal(m, ref)

    def test_action_is_built_once_and_read_only(self):
        p = PauliString.from_text("-XYZ")
        for n, targets in ((3, None), (5, (4, 0, 2))):
            perm, d = p.action(n, targets)
            again = p.action(n, targets)
            assert again[0] is perm and again[1] is d
            assert not perm.flags.writeable and not d.flags.writeable
            with pytest.raises(ValueError):
                d[0] = 0
        # Each (register size, targets) pair has its own arrays.
        assert p.action(5, (4, 0, 2))[0] is not p.action(5, (0, 2, 4))[0]

    def test_action_target_validation(self):
        p = PauliString(("X", "Z"))
        with pytest.raises(ValueError, match="target"):
            p.action(3, (0,))
        with pytest.raises(ValueError):
            p.action(3, (1, 1))
        with pytest.raises(ValueError):
            p.action(3, (0, 3))


class TestRotations:
    def test_rz_zero_is_identity(self):
        np.testing.assert_array_equal(rotation_gate("z", 0.0), np.eye(2))

    def test_full_turn_is_minus_identity(self):
        np.testing.assert_allclose(rotation_gate("z", 2 * math.pi), -np.eye(2), atol=1e-15)

    def test_ry_pi_on_ground_state(self):
        # Ry(pi)|0> = -|1> in this convention (direct 2x2 exponential check)
        out = rotation_gate("y", math.pi) @ basis_ket("z-")
        np.testing.assert_allclose(out, -basis_ket("z+"), atol=1e-15)
        oracle = expm_taylor(-1j * (math.pi / 2) * PAULI_Y) @ basis_ket("z-")
        np.testing.assert_allclose(out, oracle, atol=1e-13)

    def test_matches_expm(self):
        rng = np.random.default_rng(2)
        for axis in "xyz":
            angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            from seqmeas.observables import PAULIS

            oracle = expm(-1j * angle / 2 * PAULIS[axis.upper()])
            np.testing.assert_allclose(rotation_gate(axis, angle), oracle, atol=1e-12)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            rotation_gate("q", 1.0)


class TestEntanglers:
    def test_cz_involution(self):
        cz = entangling_gate("cz")
        np.testing.assert_allclose(cz @ cz, np.eye(4), atol=1e-15)

    def test_cz_phases(self):
        # control on |1><1| applies Z with Z|0> = -|0>
        cz = entangling_gate("cz")
        k11 = tensor(basis_ket("z+"), basis_ket("z+"))
        k10 = tensor(basis_ket("z+"), basis_ket("z-"))
        np.testing.assert_allclose(cz @ k11, k11, atol=1e-15)
        np.testing.assert_allclose(cz @ k10, -k10, atol=1e-15)

    def test_zx90_fourth_power(self):
        g = entangling_gate("zx90")
        np.testing.assert_allclose(
            np.linalg.matrix_power(g, 4), -np.eye(4), atol=1e-14
        )

    def test_unknown_gate(self):
        with pytest.raises(ValueError):
            entangling_gate("cnot")


class TestCouplingUnitary:
    def test_zero_angle(self):
        p = PauliString(("Z",))
        np.testing.assert_array_equal(coupling_unitary(p, 0.0), np.eye(4))

    def test_spectral_controlled_form(self):
        # sum_l |l><l| (x) exp(-i phi l Y / 2) over the observable eigenbasis
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = random_pauli(rng, int(rng.integers(1, 3)))
            phi = float(rng.uniform(0, math.pi / 2))
            a = p.matrix()
            evals, evecs = np.linalg.eigh(a)
            dim = a.shape[0]
            expected = np.zeros((2 * dim, 2 * dim), dtype=complex)
            for lam, vec in zip(evals, evecs.T):
                proj = np.outer(vec, vec.conj())
                expected += tensor(proj, expm(-1j * phi * lam / 2 * PAULI_Y))
            np.testing.assert_allclose(coupling_unitary(p, phi), expected, atol=1e-12)

    def test_matches_general_expm(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = random_pauli(rng, 2)
            phi = float(rng.uniform(0, math.pi / 2))
            oracle = expm(-1j * phi / 2 * tensor(p.matrix(), PAULI_Y))
            np.testing.assert_allclose(coupling_unitary(p, phi), oracle, atol=1e-12)
            taylor = expm_taylor(-1j * phi / 2 * tensor(p.matrix(), PAULI_Y))
            np.testing.assert_allclose(coupling_unitary(p, phi), taylor, atol=1e-12)

    def test_angle_additivity(self):
        rng = np.random.default_rng(5)
        p = random_pauli(rng, 2)
        p1, p2 = 0.3, 0.9
        np.testing.assert_allclose(
            coupling_unitary(p, p1) @ coupling_unitary(p, p2),
            coupling_unitary(p, p1 + p2),
            atol=1e-10,
        )
