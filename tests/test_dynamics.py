"""Hamiltonians, propagators, Heisenberg evolution, time-reversal ancilla."""

import numpy as np
import pytest
from helpers import max_abs, random_density, random_hermitian, random_pauli, random_unitary
from scipy.linalg import expm

import seqmeas.dynamics as dynamics_mod
from seqmeas import (
    ClockPropagator,
    DensityMatrix,
    Hamiltonian,
    PauliString,
    Propagator,
    build_mixed_field_ising,
    embed,
    heisenberg,
    oracle_otoc,
    otoc,
    otoc_value,
    propagator,
    time_reversed_evolution,
)
from seqmeas.observables import PAULI_Z

KRON_FACTORS = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, 1j], [-1j, 0]], dtype=np.complex128),
    "Z": np.diag([-1.0, 1.0]).astype(np.complex128),
}


def kron_hamiltonian(ham):
    """sum_k c_k P_k with each P_k a Kronecker chain of its factors."""
    dim = 2**ham.n_qubits
    m = np.zeros((dim, dim), dtype=np.complex128)
    for coeff, p in ham.terms:
        term = KRON_FACTORS[p.factors[0]]
        for f in p.factors[1:]:
            term = np.kron(term, KRON_FACTORS[f])
        m += coeff * (p.sign * term)
    return m


class TestMixedFieldIsing:
    def test_two_site_classical_spectrum(self):
        ham = build_mixed_field_ising(2, j=1.0, g=0.0, h=0.0)
        m = ham.matrix()
        # H = -ZZ is diagonal with the (-1, +1, +1, -1) pattern
        np.testing.assert_allclose(m, np.diag([-1.0, 1.0, 1.0, -1.0]), atol=1e-15)
        np.testing.assert_allclose(np.linalg.eigvalsh(m), [-1, -1, 1, 1], atol=1e-14)

    def test_classical_limit_commutes_with_z(self):
        ham = build_mixed_field_ising(3, j=0.7, g=0.0, h=0.0)
        m = ham.matrix()
        for site in range(3):
            z = PauliString(tuple("Z" if i == site else "I" for i in range(3))).matrix()
            assert max_abs(m @ z - z @ m) < 1e-14

    def test_needs_two_sites(self):
        with pytest.raises(ValueError):
            build_mixed_field_ising(1)

    def test_serialization_round_trip(self):
        ham = build_mixed_field_ising(3)
        rebuilt = Hamiltonian.from_pairs(3, ham.to_pairs())
        np.testing.assert_allclose(rebuilt.matrix(), ham.matrix(), atol=0)

    def test_matrix_equals_kron_build_bitwise(self):
        rng = np.random.default_rng(11)
        hams = [build_mixed_field_ising(n) for n in (2, 3, 7, 8)]
        for _ in range(40):
            n = int(rng.integers(1, 6))
            terms = tuple(
                (float(rng.normal()), random_pauli(rng, n, nontrivial=False))
                for _ in range(int(rng.integers(1, 8)))
            )
            hams.append(Hamiltonian(n, terms))
        for ham in hams:
            assert np.array_equal(ham.matrix(), kron_hamiltonian(ham))

    def test_term_width_validation(self):
        with pytest.raises(ValueError):
            Hamiltonian(2, ((1.0, PauliString(("Z",))),))


class TestPropagator:
    def test_hamiltonian_route_matches_matrix_route(self):
        ham = build_mixed_field_ising(4)
        for t in (0.0, 0.3, 1.7, -2.2):
            np.testing.assert_array_equal(
                propagator(ham, t).matrix, propagator(ham.matrix(), t).matrix
            )

    def test_spectrum_is_cached(self):
        ham = build_mixed_field_ising(3)
        assert ham.spectrum is ham.spectrum
        assert not ham.spectrum[1].flags.writeable
        assert ham == build_mixed_field_ising(3)

    def test_matrix_is_formed_lazily(self):
        ham = build_mixed_field_ising(3)
        u = propagator(ham, 0.9)
        assert "matrix" not in vars(u)
        assert u.evecs is ham.spectrum[1]
        assert u.matrix is u.matrix

    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(12)
        u = propagator(random_hermitian(rng, 8), 1.3)
        x = random_unitary(rng, 8)[:, :3]
        assert max_abs(u.apply(x) - u.matrix @ x) < 1e-13
        assert max_abs(u.apply(x, adjoint=True) - u.matrix.conj().T @ x) < 1e-13
        assert max_abs(u.apply(u.apply(x), adjoint=True) - x) < 1e-13

    def test_zero_time(self):
        ham = build_mixed_field_ising(2)
        np.testing.assert_allclose(propagator(ham, 0.0).matrix, np.eye(4), atol=1e-14)

    def test_single_qubit_phases(self):
        # H = omega Z / 2 with Z = diag(-1, +1): phases exp(-+ i omega t / 2)
        omega, t = 1.3, 0.9
        ham = Hamiltonian(1, ((omega / 2, PauliString(("Z",))),))
        u = propagator(ham, t).matrix
        np.testing.assert_allclose(
            u, np.diag([np.exp(1j * omega * t / 2), np.exp(-1j * omega * t / 2)]), atol=1e-14
        )

    def test_against_runge_kutta(self):
        # integrate d psi/dt = -i H psi with RK4 and compare at t = 1
        rng = np.random.default_rng(0)
        h = random_hermitian(rng, 4)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = psi / np.linalg.norm(psi)
        steps = 2000
        dt = 1.0 / steps
        y = psi.copy()
        for _ in range(steps):
            k1 = -1j * h @ y
            k2 = -1j * h @ (y + dt / 2 * k1)
            k3 = -1j * h @ (y + dt / 2 * k2)
            k4 = -1j * h @ (y + dt * k3)
            y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        exact = propagator(h, 1.0).matrix @ psi
        assert max_abs(y - exact) < 1e-6

    def test_unitary_and_group_property(self):
        rng = np.random.default_rng(1)
        ham = build_mixed_field_ising(3)
        t1, t2 = float(rng.uniform(0, 2)), float(rng.uniform(0, 2))
        u1, u2, u12 = (propagator(ham, t).matrix for t in (t1, t2, t1 + t2))
        assert max_abs(u1 @ u1.conj().T - np.eye(8)) < 1e-12
        assert max_abs(u1 @ u2 - u12) < 1e-10

    def test_negative_time_is_dagger(self):
        ham = build_mixed_field_ising(2)
        u = propagator(ham, 0.7)
        assert max_abs(propagator(ham, -0.7).matrix - u.matrix.conj().T) < 1e-12

    def test_energy_conservation(self):
        rng = np.random.default_rng(2)
        ham = build_mixed_field_ising(3)
        rho = random_density(rng, 3)
        u = propagator(ham, 1.4).matrix
        before = np.trace(ham.matrix() @ rho.matrix)
        after = np.trace(ham.matrix() @ u @ rho.matrix @ u.conj().T)
        assert abs(before - after) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            propagator(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    def test_rejects_malformed_spectrum(self):
        # One phase would broadcast over the whole register and a U built
        # from it would still be unitary, so the spectrum itself is checked.
        evals, evecs = build_mixed_field_ising(3).spectrum
        assert Propagator(evals, evecs, 0.9).evals is evals
        bad = [
            (np.array([0.37]), evecs, 0.9),
            (evals[:4], evecs, 0.9),
            (evals, evecs[:, :4], 0.9),
            (evals, evecs[None], 0.9),
            (evals[None], evecs, 0.9),
            (evals + 0j, evecs, 0.9),
            (0.37, 1.0, 0.9),
            (evals, evecs, float("nan")),
            (evals, evecs, float("inf")),
        ]
        for args in bad:
            with pytest.raises(ValueError, match="propagator"):
                Propagator(*args)


class TestRealSpectrum:
    @staticmethod
    def _spy_eigh(monkeypatch):
        dtypes = []
        original = np.linalg.eigh

        def spy(m):
            dtypes.append(np.asarray(m).dtype)
            return original(m)

        monkeypatch.setattr(dynamics_mod.np.linalg, "eigh", spy)
        return dtypes

    def test_real_h_takes_the_real_path(self, monkeypatch):
        # A Y-free Pauli sum has a real matrix: eigh runs in real arithmetic
        # and the eigenbasis stays real.
        dtypes = self._spy_eigh(monkeypatch)
        rng = np.random.default_rng(13)
        for n in (2, 3, 4, 5):
            ham = build_mixed_field_ising(n)
            evals, evecs = ham.spectrum
            assert evals.dtype == evecs.dtype == np.float64
            m = kron_hamiltonian(ham)
            rho = random_density(rng, n).matrix
            a, b = random_pauli(rng, n), random_pauli(rng, n)
            for t in (0.4, 1.7):
                u = propagator(ham, t)
                exact = expm(-1j * t * m)
                assert max_abs(u.matrix - exact) <= 1e-12
                value = otoc(DensityMatrix(n, rho), a, b, u).value
                ref = oracle_otoc(rho, a.matrix(), b.matrix(), exact)
                assert abs(otoc_value("real", value) - ref.real) <= 1e-12
        assert dtypes == [np.dtype(np.float64)] * 4

    def test_y_term_keeps_the_complex_path(self, monkeypatch):
        dtypes = self._spy_eigh(monkeypatch)
        ham = Hamiltonian(
            2,
            (
                (0.8, PauliString(("Y", "Z"))),
                (-0.5, PauliString(("X", "I"))),
                (0.3, PauliString(("I", "Z"))),
            ),
        )
        u = propagator(ham, 0.9)
        assert dtypes == [np.dtype(np.complex128)]
        assert max_abs(u.matrix - expm(-0.9j * kron_hamiltonian(ham))) <= 1e-12


class TestHeisenberg:
    def test_identity_evolution(self):
        p = PauliString(("X", "Z"))
        np.testing.assert_allclose(heisenberg(p, np.eye(4)), p.matrix(), atol=0)

    def test_squares_to_identity(self):
        rng = np.random.default_rng(3)
        ham = build_mixed_field_ising(3)
        for _ in range(5):
            p = random_pauli(rng, 3)
            u = propagator(ham, float(rng.uniform(0, 3)))
            bt = heisenberg(p, u)
            assert max_abs(bt @ bt - np.eye(8)) < 1e-10

    def test_matches_triple_product(self):
        rng = np.random.default_rng(4)
        p = random_pauli(rng, 2)
        u = propagator(build_mixed_field_ising(2), 0.8)
        np.testing.assert_allclose(
            heisenberg(p, u), u.matrix.conj().T @ p.matrix() @ u.matrix, atol=0
        )

    def test_real_evolution_stays_real(self):
        # A real U with a real B (no Y factor, or two) gives a real B(t),
        # equal to the complex triple product; a Y factor keeps it complex.
        rng = np.random.default_rng(5)
        v = np.linalg.qr(rng.normal(size=(8, 8)))[0]
        for text in ("+XZI", "-ZZX", "+YYI", "+IYZ"):
            p = PauliString.from_text(text)
            ref = v.T @ p.matrix() @ v
            for obs in (p, p.matrix(), p.matrix().real if "Y" not in text else p.matrix()):
                bt = heisenberg(obs, v)
                assert max_abs(bt - ref) <= 1e-14
            assert np.isrealobj(heisenberg(p, v)) == (text.count("Y") % 2 == 0)
            assert np.iscomplexobj(heisenberg(p, v.astype(np.complex128)))

    def test_preserves_commutation_with_symmetries(self):
        # an operator commuting with H keeps commuting with everything it did
        ham = build_mixed_field_ising(3, j=1.0, g=0.0, h=0.5)  # classical: Z_i conserved
        z1 = PauliString(("I", "Z", "I"))
        u = propagator(ham, 1.1)
        np.testing.assert_allclose(heisenberg(z1, u), z1.matrix(), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            heisenberg(PauliString(("Z",)), np.eye(4))

    def test_sub_register_targets(self):
        rng = np.random.default_rng(6)
        u = propagator(build_mixed_field_ising(4), 0.9).matrix
        for targets in ((2,), (3, 0), (1, 2, 3)):
            p = random_pauli(rng, len(targets))
            full = embed(p.matrix(), 4, targets)
            np.testing.assert_allclose(
                heisenberg(p, u, targets), u.conj().T @ full @ u, atol=0
            )

    def test_clock_layout(self):
        # B on the system qubits of the clock register, ancilla last
        rng = np.random.default_rng(7)
        clock = time_reversed_evolution(build_mixed_field_ising(3), 0.6).matrix
        p = random_pauli(rng, 3)
        full = embed(p.matrix(), 4, range(3))
        np.testing.assert_allclose(
            heisenberg(p, clock, range(3)), clock.conj().T @ full @ clock, atol=0
        )

    def test_takes_clock_propagator(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3):
            clk = time_reversed_evolution(random_hermitian(rng, 2**n), 0.8)
            b = random_pauli(rng, n)
            np.testing.assert_allclose(
                heisenberg(b, clk, range(n)), heisenberg(b, clk.matrix, range(n)), atol=0
            )

    def test_raw_observable(self):
        rng = np.random.default_rng(8)
        u = propagator(build_mixed_field_ising(3), 1.2).matrix
        for targets in (None, (2, 0)):
            k = 3 if targets is None else len(targets)
            v = random_unitary(rng, 2**k)
            b = v.conj().T @ random_pauli(rng, k).matrix() @ v
            full = embed(b, 3, range(3) if targets is None else targets)
            np.testing.assert_allclose(
                heisenberg(b, u, targets), u.conj().T @ full @ u, atol=0
            )


class TestTimeReversal:
    def test_zero_time_is_identity(self):
        ham = build_mixed_field_ising(2)
        clk = time_reversed_evolution(ham, 0.0)
        np.testing.assert_allclose(clk.matrix, np.eye(8), atol=1e-14)

    def test_sectors_run_time_both_ways(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            h = random_hermitian(rng, 2**n)
            t = float(rng.uniform(0, 3))
            clk = time_reversed_evolution(h, t)
            fwd = expm(-1j * t * h)
            assert max_abs(clk.forward - fwd) < 1e-10
            assert max_abs(clk.backward - expm(1j * t * h)) < 1e-10

    def test_sector_composition_is_identity(self):
        h = random_hermitian(np.random.default_rng(6), 8)
        clk = time_reversed_evolution(h, 1.7)
        assert max_abs(clk.backward @ clk.forward - np.eye(8)) < 1e-12

    def test_extended_generator_structure(self):
        # exp(-i t H (x) Z) against a brute-force exponential
        h = random_hermitian(np.random.default_rng(7), 4)
        t = 0.6
        clk = time_reversed_evolution(h, t)
        oracle = expm(-1j * t * np.kron(h, PAULI_Z))
        assert max_abs(clk.matrix - oracle) < 1e-11

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            time_reversed_evolution(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    def test_matches_kronecker_build(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            h = random_hermitian(rng, 2**n)
            t = float(rng.uniform(0, 3))
            u = propagator(h, t).matrix
            kron = np.kron(u.conj().T, np.diag([1.0, 0.0])) + np.kron(u, np.diag([0.0, 1.0]))
            assert np.array_equal(time_reversed_evolution(h, t).matrix, kron)

    def test_output_sectors_are_exact_adjoints(self):
        clk = time_reversed_evolution(random_hermitian(np.random.default_rng(8), 8), 1.3)
        np.testing.assert_array_equal(clk.backward, clk.forward.conj().T)
        view = clk.matrix.reshape(8, 2, 8, 2)
        assert not view[:, 0, :, 1].any() and not view[:, 1, :, 0].any()


class TestClockPropagatorValidation:
    def _clock(self, seed=9):
        return time_reversed_evolution(random_hermitian(np.random.default_rng(seed), 4), 0.7)

    def test_rejects_wrong_shape(self):
        clk = self._clock()
        with pytest.raises(ValueError, match="shape"):
            ClockPropagator.from_matrix(clk.matrix, 3)
        with pytest.raises(ValueError, match="shape"):
            ClockPropagator.from_matrix(clk.matrix[:4, :4], 2)

    def test_rejects_system_dimension_that_is_not_a_power_of_two(self):
        with pytest.raises(ValueError, match="shape"):
            time_reversed_evolution(np.diag([1.0, 2.0, 3.0]), 0.5)
        for system in (np.eye(3), np.eye(4)[:, :2], np.eye(1)):
            with pytest.raises(ValueError, match="shape"):
                ClockPropagator(system)

    def test_rejects_off_diagonal_ancilla_block(self):
        for ancilla_row, ancilla_col in ((0, 1), (1, 0)):
            m = self._clock().matrix.copy()
            m.reshape(4, 2, 4, 2)[2, ancilla_row, 1, ancilla_col] = 1e-9
            with pytest.raises(ValueError, match="block diagonal"):
                ClockPropagator.from_matrix(m, 2)

    def test_rejects_backward_sector_that_is_not_the_adjoint(self):
        m = self._clock().matrix.copy()
        # the |0> sector runs time forward too
        m.reshape(4, 2, 4, 2)[:, 0, :, 0] = m.reshape(4, 2, 4, 2)[:, 1, :, 1]
        with pytest.raises(ValueError, match="adjoint"):
            ClockPropagator.from_matrix(m, 2)
