"""Sequence engine, TOC/OTOC protocols, sampling, statistical bounds."""

import math

import numpy as np
import pytest
from helpers import random_density, random_hermitian, random_pauli, random_unitary

import seqmeas.measurement as measurement_mod
import seqmeas.protocols as protocols_mod
from seqmeas import (
    ClockPropagator,
    DensityMatrix,
    EvolveStep,
    Hamiltonian,
    MeasureStep,
    MeasurementSpec,
    NumericalInvariantError,
    PauliString,
    PureState,
    build_mixed_field_ising,
    config_from_dict,
    embed,
    generalized_eigenvalue,
    kraus_pair,
    nested_estimate,
    oracle_otoc,
    oracle_toc,
    otoc,
    otoc_value,
    propagator,
    rms_bound,
    run_experiment,
    sample_protocol,
    sequence_distribution,
    time_reversed_evolution,
    toc,
)
from seqmeas.observables import basis_ket
from seqmeas.verify import _ancilla_flip_otoc

PI = math.pi


def meas(p, phi, kind="informative", targets=None):
    return MeasureStep(MeasurementSpec(p, phi, kind), targets)


def random_involution(rng, k):
    """V^dag P V: a dense Hermitian matrix on k qubits that squares to 1."""
    v = random_unitary(rng, 2**k)
    return v.conj().T @ random_pauli(rng, k).matrix() @ v


def dense_reference_walk(rho, steps):
    """Outcome tree from embedded dense Kraus matrices, one product each."""
    n = rho.n_qubits
    leaves = []

    def walk(i, state, outcomes, weight):
        if i == len(steps):
            leaves.append((outcomes, weight, float(np.real(np.trace(state)))))
            return
        step = steps[i]
        if isinstance(step, EvolveStep):
            u = step.unitary
            walk(i + 1, u @ state @ u.conj().T, outcomes, weight)
            return
        pair = kraus_pair(step.spec)
        targets = range(n) if step.targets is None else step.targets
        for a in (0, 1):
            k = embed(pair[a], n, targets)
            alpha = generalized_eigenvalue(step.spec.phi, a)
            walk(i + 1, k @ state @ k.conj().T, outcomes + (a,), weight * alpha)

    walk(0, rho.matrix, (), 1.0)
    return leaves


def random_sequence(rng, last, count):
    """Random mixed Pauli/raw-observable sequence with EvolveSteps, random
    kinds and sub-register targets; ``last`` picks the last observable."""
    n = int(rng.integers(1, 5))
    rho = random_density(rng, n)
    steps = []
    for j in range(count):
        if j and rng.integers(2):
            steps.append(EvolveStep(random_unitary(rng, 2**n)))
        k = int(rng.integers(1, n + 1))
        targets = tuple(int(q) for q in rng.permutation(n)[:k])
        if k == n and rng.integers(2):
            targets = None
        raw = last == "raw" if j == count - 1 else bool(rng.integers(2))
        obs = random_involution(rng, k) if raw else random_pauli(rng, k)
        kind = ("informative", "noninformative")[int(rng.integers(2))]
        phi = float(rng.uniform(0.15, PI / 2))
        steps.append(meas(obs, phi, kind, targets))
    if rng.integers(2):
        steps.append(EvolveStep(random_unitary(rng, 2**n)))
    return rho, steps


def dense_reference_transfer(rho, steps):
    """Tr(E_m ... E_1(rho)) with E(X) = sum_a alpha_a K_a X K_a^dag from
    embedded dense Kraus matrices."""
    n = rho.n_qubits
    state = rho.matrix
    for step in steps:
        if isinstance(step, EvolveStep):
            state = step.unitary @ state @ step.unitary.conj().T
            continue
        pair = kraus_pair(step.spec)
        targets = range(n) if step.targets is None else step.targets
        mapped = 0
        for a in (0, 1):
            k = embed(pair[a], n, targets)
            alpha = generalized_eigenvalue(step.spec.phi, a)
            mapped = mapped + alpha * (k @ state @ k.conj().T)
        state = mapped
    return complex(np.trace(state))


class TestSequenceDistribution:
    def test_projective_on_eigenstate(self):
        rho = DensityMatrix.from_label("1")
        records = sequence_distribution(rho, [meas(PauliString(("Z",)), PI / 2)])
        probs = {r.outcomes: r.probability for r in records}
        assert probs[(1,)] == pytest.approx(1.0, abs=1e-12)
        assert probs[(0,)] == pytest.approx(0.0, abs=1e-12)

    def test_noninformative_is_flat(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 2)
        records = sequence_distribution(
            rho, [meas(random_pauli(rng, 2), 0.8, "noninformative")]
        )
        for r in records:
            assert r.probability == pytest.approx(0.5, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(1)
        rho = random_density(rng, 2)
        steps = [
            meas(random_pauli(rng, 2), 0.4),
            EvolveStep(propagator(build_mixed_field_ising(2), 0.9).matrix),
            meas(random_pauli(rng, 2), 1.1, "noninformative"),
            meas(random_pauli(rng, 2), PI / 2),
        ]
        records = sequence_distribution(rho, steps)
        assert len(records) == 8
        assert math.fsum(r.probability for r in records) == pytest.approx(1.0, abs=1e-12)

    def test_against_independent_sampler(self):
        # two-step distribution versus brute-force trajectory frequencies
        rng = np.random.default_rng(2)
        rho = random_density(rng, 1)
        pa, pb = random_pauli(rng, 1), random_pauli(rng, 1)
        phi1, phi2 = 0.9, 1.3
        records = sequence_distribution(rho, [meas(pa, phi1), meas(pb, phi2)])
        exact = {r.outcomes: r.probability for r in records}

        from seqmeas import informative_kraus

        k1 = informative_kraus(MeasurementSpec(pa, phi1, "informative"))
        k2 = informative_kraus(MeasurementSpec(pb, phi2, "informative"))
        n = 100_000
        u = rng.random((n, 2))
        p1_first = float(np.real(np.trace(k1[1] @ rho.matrix @ k1[1].conj().T)))
        first = (u[:, 0] < p1_first).astype(int)
        counts = {}
        for a1 in (0, 1):
            cond = k1[a1] @ rho.matrix @ k1[a1].conj().T
            cond = cond / np.real(np.trace(cond))
            p1_second = float(np.real(np.trace(k2[1] @ cond @ k2[1].conj().T)))
            mask = first == a1
            second = (u[mask, 1] < p1_second).astype(int)
            counts[(a1, 0)] = int(np.sum(second == 0))
            counts[(a1, 1)] = int(np.sum(second == 1))
        for outcomes, c in counts.items():
            p = exact[outcomes]
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(c / n - p) < 5 * sigma + 1e-9

    def test_enumeration_limit(self):
        rho = DensityMatrix.from_label("0")
        steps = [meas(PauliString(("Z",)), 0.5, "noninformative")] * 17
        with pytest.raises(ValueError, match="enumeration limit"):
            sequence_distribution(rho, steps)
        with pytest.raises(ValueError, match="enumeration limit"):
            sample_protocol(rho, steps, 10, seed=1)

    def test_matches_dense_reference_walk(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            rho = random_density(rng, n)
            steps = []
            for j in range(int(rng.integers(1, 5))):
                if j and rng.integers(2):
                    steps.append(EvolveStep(random_unitary(rng, 2**n)))
                k = int(rng.integers(1, n + 1))
                targets = tuple(int(q) for q in rng.permutation(n)[:k])
                kind = ("informative", "noninformative")[int(rng.integers(2))]
                phi = float(rng.uniform(0.15, PI / 2))
                steps.append(meas(random_pauli(rng, k), phi, kind, targets))
            records = sequence_distribution(rho, steps)
            reference = dense_reference_walk(rho, steps)
            assert len(records) == len(reference)
            for r, (outcomes, weight, prob) in zip(records, reference):
                assert r.outcomes == outcomes
                assert abs(r.weight - weight) <= 1e-12
                assert abs(r.probability - prob) <= 1e-12

    @pytest.mark.parametrize("last", ["pauli", "raw"])
    def test_raw_observables_match_dense_reference_walk(self, last):
        rng = np.random.default_rng(18 if last == "pauli" else 19)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            rho = random_density(rng, n)
            steps = []
            count = int(rng.integers(2, 5))
            for j in range(count):
                if j and rng.integers(2):
                    steps.append(EvolveStep(random_unitary(rng, 2**n)))
                k = int(rng.integers(1, n + 1))
                targets = tuple(int(q) for q in rng.permutation(n)[:k])
                if k == n and rng.integers(2):
                    targets = None
                if j == count - 1:
                    raw = last == "raw"
                else:
                    raw = j == 0 or bool(rng.integers(2))
                obs = random_involution(rng, k) if raw else random_pauli(rng, k)
                kind = ("informative", "noninformative")[int(rng.integers(2))]
                phi = float(rng.uniform(0.15, PI / 2))
                steps.append(meas(obs, phi, kind, targets))
            if rng.integers(2):
                steps.append(EvolveStep(random_unitary(rng, 2**n)))
            records = sequence_distribution(rho, steps)
            reference = dense_reference_walk(rho, steps)
            assert len(records) == len(reference) == 2**count
            for r, (outcomes, weight, prob) in zip(records, reference):
                assert r.outcomes == outcomes
                assert abs(r.weight - weight) <= 1e-12
                assert abs(r.probability - prob) <= 1e-12

    @pytest.mark.parametrize("last", [False, True])
    def test_raw_square_error_fails_completeness(self, last):
        # B^2 = 1 + 5e-11 passes the 1e-10 observable check, but the
        # Kraus pair then misses completeness by 2.5e-11 > 1e-12
        b = (1 + 2.5e-11) * np.diag([-1.0, 1.0])
        spec = MeasurementSpec(b, PI / 2, "informative")
        steps = [MeasureStep(spec)]
        if not last:
            steps.append(meas(PauliString(("X",)), 0.5))
        rho = DensityMatrix.from_label("0")
        with pytest.raises(NumericalInvariantError, match="completeness"):
            sequence_distribution(rho, steps)

    def test_pauli_route_builds_no_dense_matrix(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("dense Pauli matrix built")

        monkeypatch.setattr(PauliString, "matrix", forbidden)
        rho = DensityMatrix.maximally_mixed(3)
        z, x = PauliString(("Z", "I")), PauliString(("X",), -1)
        steps = [meas(z, 0.6, "noninformative", (0, 2)), meas(x, 1.1, targets=(1,))]
        records = sequence_distribution(rho, steps)
        assert math.fsum(r.probability for r in records) == pytest.approx(1.0)

    def test_rejects_incomplete_kraus_coefficients(self, monkeypatch):
        coeffs = ((0.5, 0.5), (0.5, -0.5))  # sum |c0|^2 + |c1|^2 = 1, fine
        monkeypatch.setattr(protocols_mod, "kraus_coefficients", lambda spec: coeffs)
        rho = DensityMatrix.from_label("0")
        sequence_distribution(rho, [meas(PauliString(("Z",)), 0.5)])
        for bad in (((0.5, 0.5), (0.5, 0.6)), ((0.5, 0.5), (0.5, 0.5))):
            monkeypatch.setattr(protocols_mod, "kraus_coefficients", lambda spec: bad)
            with pytest.raises(NumericalInvariantError, match="completeness"):
                sequence_distribution(rho, [meas(PauliString(("Z",)), 0.5)])

    def test_dimension_mismatch(self):
        rho = DensityMatrix.from_label("00")
        with pytest.raises(ValueError):
            sequence_distribution(rho, [EvolveStep(np.eye(2))])
        with pytest.raises(ValueError):
            sequence_distribution(rho, [meas(PauliString(("Z",)), 0.5, targets=(0, 1))])


class TestNestedEstimate:
    def test_single_expectation(self):
        rho = DensityMatrix.from_label("1")
        est = nested_estimate(rho, [meas(PauliString(("Z",)), PI / 2)])
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.mode == "exact"
        assert est.rms_bound == 0.0

    def test_two_step_anticommutator(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 2)
        pa, pb = random_pauli(rng, 2), random_pauli(rng, 2)
        a, b = pa.matrix(), pb.matrix()
        est = nested_estimate(rho, [meas(pa, 0.6), meas(pb, 1.2)])
        oracle = np.real(np.trace((b @ a + a @ b) / 2 @ rho.matrix))
        assert est.value == pytest.approx(oracle, abs=1e-11)

    def test_two_step_commutator(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 2)
        pa, pb = random_pauli(rng, 2), random_pauli(rng, 2)
        a, b = pa.matrix(), pb.matrix()
        est = nested_estimate(
            rho, [meas(pa, 0.6, "noninformative"), meas(pb, 1.2)]
        )
        oracle = np.real(np.trace((b @ a - a @ b) / 2j @ rho.matrix))
        assert est.value == pytest.approx(oracle, abs=1e-11)

    def test_value_ignores_strength(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 2)
        pa, pb = random_pauli(rng, 2), random_pauli(rng, 2)
        values = [
            nested_estimate(
                rho,
                [meas(pa, float(rng.uniform(0.15, PI / 2))),
                 meas(pb, float(rng.uniform(0.15, PI / 2)))],
            ).value
            for _ in range(10)
        ]
        assert max(values) - min(values) < 1e-10

    def test_needs_a_measurement(self):
        rho = DensityMatrix.from_label("0")
        with pytest.raises(ValueError, match="no measurements"):
            nested_estimate(rho, [EvolveStep(np.eye(2))])


class TestTransferMap:
    @pytest.mark.parametrize("last", ["pauli", "raw"])
    def test_matches_tree_contraction(self, last):
        rng = np.random.default_rng(20 if last == "pauli" else 21)
        for _ in range(40):
            rho, steps = random_sequence(rng, last, int(rng.integers(1, 5)))
            tree = math.fsum(
                r.weight * r.probability for r in sequence_distribution(rho, steps)
            )
            assert abs(nested_estimate(rho, steps).value - tree) <= 1e-12

    def test_small_phi_otoc_matches_oracle(self):
        # the +-1/sin(phi) weights cancel in the transfer weights, not
        # across 16 branch probabilities, so phi = 1e-3 loses no precision
        rng = np.random.default_rng(22)
        ham = build_mixed_field_ising(3)
        rho = random_density(rng, 3)
        pa, pb = random_pauli(rng, 3), random_pauli(rng, 3)
        u = propagator(ham, 1.3)
        ref = oracle_otoc(rho.matrix, pa.matrix(), pb.matrix(), u.matrix)
        phis = (1e-3,) * 4
        re = otoc_value("real", otoc(rho, pa, pb, u, part="real", phis=phis).value)
        im = otoc_value("imag", otoc(rho, pa, pb, u, part="imag", phis=phis).value)
        assert abs(re - ref.real) <= 1e-12
        assert abs(im - ref.imag) <= 1e-12

    def test_runs_past_the_enumeration_limit(self):
        # commuting diagonal observables, informative: the nested
        # anticommutator is the product of the observables
        rng = np.random.default_rng(23)
        n = 3
        rho = random_density(rng, n)
        steps, product = [], np.eye(2**n)
        for j in range(20):
            if j % 5 == 4:
                steps.append(EvolveStep(np.diag(np.exp(1j * rng.normal(size=2**n)))))
            k = int(rng.integers(1, n + 1))
            targets = tuple(int(q) for q in rng.permutation(n)[:k])
            if j % 2:
                obs = np.diag(rng.choice([-1.0, 1.0], size=2**k))
            else:
                obs = PauliString(tuple(rng.choice(["I", "Z"], size=k - 1)) + ("Z",))
            steps.append(meas(obs, float(rng.uniform(0.15, PI / 2)), targets=targets))
            matrix = obs.matrix() if isinstance(obs, PauliString) else obs
            product = product @ embed(matrix, n, targets)
        with pytest.raises(ValueError, match="enumeration limit"):
            sequence_distribution(rho, steps)
        value = nested_estimate(rho, steps).value
        expected = np.real(np.trace(rho.matrix @ product))
        assert abs(expected) > 0.01
        assert abs(value - expected) <= 1e-12
        assert abs(value - dense_reference_transfer(rho, steps).real) <= 1e-12

    @pytest.mark.parametrize("alpha", [2.0, 1j, float("nan")])
    def test_rejects_value_out_of_bounds(self, monkeypatch, alpha):
        rho = DensityMatrix.from_label("1")  # Z = +1
        steps = [meas(PauliString(("Z",)), phi) for phi in (0.5, 0.7, 1.1)]
        assert nested_estimate(rho, steps).value == pytest.approx(1.0, abs=1e-12)
        scaled = lambda phi, a: alpha * generalized_eigenvalue(phi, a)  # noqa: E731
        monkeypatch.setattr(protocols_mod, "generalized_eigenvalue", scaled)
        with pytest.raises(NumericalInvariantError, match="exact value"):
            nested_estimate(rho, steps)

    def test_needs_a_measurement(self):
        rho = DensityMatrix.from_label("0")
        with pytest.raises(ValueError, match="no measurements"):
            sequence_distribution(rho, [EvolveStep(np.eye(2))])


class TestToc:
    def test_trivial_z_pair(self):
        rho = DensityMatrix.from_label("0")
        z = PauliString(("Z",))
        assert toc(rho, z, z, np.eye(2), "real").value == pytest.approx(1.0, abs=1e-12)
        assert toc(rho, z, z, np.eye(2), "imag").value == pytest.approx(0.0, abs=1e-12)

    def test_anticommuting_pair_on_y_state(self):
        # A = X, B = Z on |y+>: Re <ZX> = 0, Im <ZX> = <Y> = 1
        ket = basis_ket("y+")
        rho = DensityMatrix(1, np.outer(ket, ket.conj()))
        a, b = PauliString(("X",)), PauliString(("Z",))
        assert toc(rho, a, b, np.eye(2), "real").value == pytest.approx(0.0, abs=1e-12)
        assert toc(rho, a, b, np.eye(2), "imag").value == pytest.approx(1.0, abs=1e-12)

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(6)
        ham = build_mixed_field_ising(3)
        for _ in range(10):
            rho = random_density(rng, 3)
            pa, pb = random_pauli(rng, 3), random_pauli(rng, 3)
            u = propagator(ham, float(rng.uniform(0, 2)))
            phis = [float(rng.uniform(0.15, PI / 2)) for _ in range(2)]
            ref = oracle_toc(rho.matrix, pa.matrix(), pb.matrix(), u.matrix)
            assert toc(rho, pa, pb, u, "real", phis).value == pytest.approx(
                ref.real, abs=1e-10
            )
            assert toc(rho, pa, pb, u, "imag", phis).value == pytest.approx(
                ref.imag, abs=1e-10
            )

    def test_heisenberg_transform_identity(self):
        # interleaved evolution gives the same distribution as measuring B(t)
        rng = np.random.default_rng(7)
        rho = random_density(rng, 2)
        pa, pb = random_pauli(rng, 2), random_pauli(rng, 2)
        u = propagator(build_mixed_field_ising(2), 1.1)
        phis = (0.7, 1.2)
        interleaved = sequence_distribution(
            rho,
            [
                meas(pa, phis[0]),
                EvolveStep(u.matrix),
                meas(pb, phis[1]),
                EvolveStep(u.matrix.conj().T),
            ],
        )
        bt = u.matrix.conj().T @ pb.matrix() @ u.matrix
        direct = sequence_distribution(
            rho, [meas(pa, phis[0]), meas(bt, phis[1])]
        )
        for r1, r2 in zip(interleaved, direct):
            assert r1.outcomes == r2.outcomes
            assert r1.probability == pytest.approx(r2.probability, abs=1e-10)

    def test_final_inverse_evolution_is_irrelevant(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, 2)
        pa, pb = random_pauli(rng, 2), random_pauli(rng, 2)
        u = propagator(build_mixed_field_ising(2), 0.7)
        with_final = nested_estimate(
            rho,
            [
                meas(pa, 0.5),
                EvolveStep(u.matrix),
                meas(pb, 0.9),
                EvolveStep(u.matrix.conj().T),
            ],
        ).value
        without = toc(rho, pa, pb, u, "real", (0.5, 0.9)).value
        assert without == pytest.approx(with_final, abs=1e-12)

    def test_rejects_non_unitary_evolution(self):
        rho = DensityMatrix.from_label("0")
        z = PauliString(("Z",))
        with pytest.raises(ValueError, match="not unitary"):
            toc(rho, z, z, 1.01 * np.eye(2))
        with pytest.raises(ValueError, match="shape"):
            toc(rho, z, z, np.eye(4))

    def test_phi_validation(self):
        rho = DensityMatrix.from_label("0")
        z = PauliString(("Z",))
        with pytest.raises(ValueError, match="angles"):
            toc(rho, z, z, np.eye(2), "real", phis=(0.5,))
        with pytest.raises(ValueError, match="part"):
            toc(rho, z, z, np.eye(2), "absolute")


class TestOtoc:
    def test_disjoint_supports_at_t0(self):
        rho = DensityMatrix.from_label("00")
        a = PauliString(("Z", "I"))
        b = PauliString(("I", "X"))
        est = otoc(rho, a, b, np.eye(4), part="real")
        assert otoc_value("real", est.value) == pytest.approx(1.0, abs=1e-12)

    def test_anticommuting_pair(self):
        rho = DensityMatrix.maximally_mixed(1)
        est = otoc(rho, PauliString(("Z",)), PauliString(("X",)), np.eye(2), part="real")
        assert otoc_value("real", est.value) == pytest.approx(-1.0, abs=1e-12)

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(9)
        ham = build_mixed_field_ising(3)
        for _ in range(8):
            rho = random_density(rng, 3)
            pa, pb = random_pauli(rng, 3), random_pauli(rng, 3)
            u = propagator(ham, float(rng.uniform(0, 2)))
            phis = [float(rng.uniform(0.15, PI / 2)) for _ in range(4)]
            ref = oracle_otoc(rho.matrix, pa.matrix(), pb.matrix(), u.matrix)
            re = otoc_value("real", otoc(rho, pa, pb, u, part="real", phis=phis).value)
            im = otoc_value("imag", otoc(rho, pa, pb, u, part="imag", phis=phis).value)
            assert re == pytest.approx(ref.real, abs=1e-10)
            assert im == pytest.approx(ref.imag, abs=1e-10)
            assert re <= 1 + 1e-10

    def test_clock_ancilla_matches_direct(self):
        rng = np.random.default_rng(10)
        ham = build_mixed_field_ising(2)
        for _ in range(5):
            rho = random_density(rng, 2)
            pa, pb = random_pauli(rng, 2), random_pauli(rng, 2)
            t = float(rng.uniform(0, 2))
            phis = [float(rng.uniform(0.15, PI / 2)) for _ in range(4)]
            for part in ("real", "imag"):
                direct = otoc(rho, pa, pb, propagator(ham, t), part=part, phis=phis)
                clocked = otoc(
                    rho, pa, pb, clock=time_reversed_evolution(ham, t), part=part, phis=phis
                )
                assert clocked.value == pytest.approx(direct.value, abs=1e-9)

    def test_clock_matches_ancilla_flip_sequence(self):
        # the clock OTOC on the system register against A, U_c, B,
        # X_anc U_c X_anc, A, U_c, B on the register extended by the
        # ancilla in |1>
        rng = np.random.default_rng(13)
        ket1 = np.array([0.0, 1.0])
        for n in (1, 2, 3):
            h = random_hermitian(rng, 2**n)
            clk = time_reversed_evolution(h, float(rng.uniform(0, 2)))
            pa, pb = random_pauli(rng, n), random_pauli(rng, n)
            phis = [float(rng.uniform(0.15, PI / 2)) for _ in range(4)]
            rho = random_density(rng, n)
            v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            psi = PureState(n, v / np.linalg.norm(v))
            states = (
                (rho, DensityMatrix(n + 1, np.kron(rho.matrix, np.outer(ket1, ket1)))),
                (psi, PureState(n + 1, np.kron(psi.amplitudes, ket1))),
            )
            for initial, register in states:
                for part in ("real", "imag"):
                    clocked = otoc(initial, pa, pb, clock=clk, part=part, phis=phis)
                    flipped = _ancilla_flip_otoc(register, pa, pb, clk, part, phis)
                    assert abs(clocked.value - flipped) <= 1e-12

    def test_clock_runs_on_the_system_register(self, monkeypatch):
        shapes = []
        original = protocols_mod.heisenberg

        def recording(obs, u, *args):
            shapes.append(np.shape(u))
            return original(obs, u, *args)

        monkeypatch.setattr(protocols_mod, "heisenberg", recording)
        ham = build_mixed_field_ising(3)
        rho = DensityMatrix.maximally_mixed(3)
        a, b = PauliString(("Z", "I", "I")), PauliString(("I", "I", "X"))
        otoc(rho, a, b, clock=time_reversed_evolution(ham, 0.7))
        assert shapes == [(8, 8)]

    def test_conserved_b_freezes_otoc(self):
        # g = 0 makes every Z_i commute with H, so F(t) = F(0)
        ham = build_mixed_field_ising(3, j=1.0, g=0.0, h=0.5)
        rho = DensityMatrix.maximally_mixed(3)
        a = PauliString(("X", "I", "I"))
        b = PauliString(("I", "I", "Z"))
        f0 = otoc_value("real", otoc(rho, a, b, np.eye(8), part="real").value)
        for t in (0.5, 1.5, 3.0):
            ft = otoc_value(
                "real", otoc(rho, a, b, propagator(ham, t), part="real").value
            )
            assert ft == pytest.approx(f0, abs=1e-8)

    def test_rejects_non_unitary_evolution(self):
        rho = DensityMatrix.from_label("0")
        z = PauliString(("Z",))
        with pytest.raises(ValueError, match="not unitary"):
            otoc(rho, z, z, 1.01 * np.eye(2))
        with pytest.raises(ValueError, match="not unitary"):
            otoc(rho, z, z, clock=ClockPropagator(1.01 * np.eye(4), 0.0, 1))

    @pytest.mark.parametrize("route", ["direct", "clock"])
    def test_checks_evolution_once(self, monkeypatch, route):
        calls = []
        original = protocols_mod.is_unitary

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(protocols_mod, "is_unitary", counting)
        ham = build_mixed_field_ising(2)
        rho = DensityMatrix.maximally_mixed(2)
        a, b = PauliString(("Z", "I")), PauliString(("I", "X"))
        if route == "direct":
            otoc(rho, a, b, propagator(ham, 0.7))
        else:
            otoc(rho, a, b, clock=time_reversed_evolution(ham, 0.7))
        assert len(calls) == 1

    @pytest.mark.parametrize("route", ["direct", "clock"])
    def test_forms_b_squared_once(self, monkeypatch, route):
        calls = []
        original = measurement_mod._raw_observable

        def counting(obs):
            calls.append(obs)
            return original(obs)

        monkeypatch.setattr(measurement_mod, "_raw_observable", counting)
        ham = build_mixed_field_ising(2)
        rho = DensityMatrix.maximally_mixed(2)
        a, b = PauliString(("Z", "I")), PauliString(("I", "X"))
        if route == "direct":
            otoc(rho, a, b, propagator(ham, 0.7))
        else:
            otoc(rho, a, b, clock=time_reversed_evolution(ham, 0.7))
        assert len(calls) == 1

    def test_requires_exactly_one_evolution_source(self):
        rho = DensityMatrix.from_label("0")
        z = PauliString(("Z",))
        with pytest.raises(ValueError, match="exactly one"):
            otoc(rho, z, z, part="real")
        with pytest.raises(ValueError, match="exactly one"):
            otoc(
                rho,
                z,
                z,
                np.eye(2),
                clock=time_reversed_evolution(np.zeros((2, 2)), 0.0),
                part="real",
            )


class TestHeisenbergOncePerCall:
    @pytest.mark.parametrize("route", ["toc", "direct", "clock"])
    def test_builds_b_of_t_once(self, monkeypatch, route):
        calls = []
        original = protocols_mod.heisenberg

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(protocols_mod, "heisenberg", counting)
        ham = build_mixed_field_ising(2)
        rho = DensityMatrix.maximally_mixed(2)
        a, b = PauliString(("Z", "I")), PauliString(("I", "X"))
        if route == "toc":
            toc(rho, a, b, propagator(ham, 0.7))
        elif route == "direct":
            otoc(rho, a, b, propagator(ham, 0.7))
        else:
            otoc(rho, a, b, clock=time_reversed_evolution(ham, 0.7))
        assert len(calls) == 1


class TestExperimentHamiltonian:
    @pytest.mark.parametrize("reversal", ["direct-dagger", "clock-ancilla"])
    def test_one_matrix_build_per_experiment(self, monkeypatch, reversal):
        calls = []
        original = Hamiltonian.matrix

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Hamiltonian, "matrix", counting)
        cfg = config_from_dict(
            {
                "system_size": 3,
                "observable_a": "+ZII",
                "observable_b": "+IIX",
                "times": [0.0, 0.4, 0.8, 1.2],
                "protocol": "otoc",
                "reversal": reversal,
            }
        )
        rows = run_experiment(cfg)
        assert len(rows) == 4
        assert len(calls) == 1


def forward_transfer_reference(rho, resolved):
    """Tr(E_m ... E_1(rho)) carried forward, one transfer map per resolved
    measurement, with the trace of the full last state."""
    state = rho.matrix
    for step in resolved:
        state = step.transfer(state)
    return complex(np.trace(state))


def random_pure_state(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(n, v / np.linalg.norm(v))


def counting_patch(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that records each call."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestBackwardDensityRoute:
    @pytest.mark.parametrize("last", ["pauli", "raw"])
    def test_matches_forward_transfer(self, last):
        rng = np.random.default_rng(70 if last == "pauli" else 71)
        for _ in range(40):
            rho, steps = random_sequence(rng, last, int(rng.integers(1, 6)))
            resolved, _ = protocols_mod._resolve_steps(rho, steps)
            ref = forward_transfer_reference(rho, resolved)
            assert abs(nested_estimate(rho, steps).value - ref.real) <= 1e-12

    def test_first_measurements_share_the_tail(self):
        rng = np.random.default_rng(72)
        for _ in range(30):
            rho, steps = random_sequence(rng, "raw", int(rng.integers(2, 6)))
            resolved, _ = protocols_mod._resolve_steps(rho, steps)
            other_rho, other_steps = random_sequence(rng, "pauli", 1)
            while other_rho.n_qubits != rho.n_qubits:
                other_rho, other_steps = random_sequence(rng, "pauli", 1)
            (other,), _ = protocols_mod._resolve_steps(rho, other_steps)
            firsts, rest = [resolved[0], other], resolved[1:]
            values = protocols_mod._transfer_values(rho, firsts, rest)
            for first, value in zip(firsts, values):
                ref = forward_transfer_reference(rho, [first, *rest])
                assert abs(value - ref.real) <= 1e-12

    def test_prebuilt_measurement_after_evolution_is_rejected(self):
        rho = DensityMatrix.from_label("01")
        (prebuilt,), _ = protocols_mod._resolve_steps(
            rho, [meas(PauliString(("Z", "Z")), 0.7)]
        )
        assert nested_estimate(rho, [prebuilt]).value == pytest.approx(-1.0, abs=1e-12)
        with pytest.raises(ValueError, match="prebuilt measurement"):
            nested_estimate(rho, [EvolveStep(np.eye(4)), prebuilt])
        with pytest.raises(ValueError, match="prebuilt measurement"):
            sequence_distribution(rho, [meas(PauliString(("X", "I")), 0.7),
                                        EvolveStep(np.eye(4)), prebuilt])


class TestSharedParts:
    PARTS = ("real", "imag")

    def test_both_parts_equal_single_part_calls(self):
        rng = np.random.default_rng(73)
        for n in range(1, 6):
            for route in ("density", "vector", "sampled"):
                u = propagator(random_hermitian(rng, 2**n), float(rng.uniform(0, 3)))
                a, b = random_pauli(rng, n), random_pauli(rng, n)
                if route == "density":
                    initial = random_density(rng, n)
                else:
                    initial = random_pure_state(rng, n)
                sampled = route == "sampled"
                kwargs = {"mode": "sampled", "trials": 64} if sampled else {}
                seeds = (None, None)
                if sampled:
                    seeds = tuple(int(s) for s in rng.integers(0, 2**63, size=2))
                for count in (2, 4):
                    phis = [float(rng.uniform(0.2, PI / 2)) for _ in range(count)]
                    both = protocols_mod._heisenberg_protocol(
                        initial, a, b, count, u, self.PARTS, phis,
                        seeds=seeds if sampled else None, **kwargs
                    )
                    for part, seed, est in zip(self.PARTS, seeds, both):
                        if count == 2:
                            one = toc(initial, a, b, u, part, phis, seed=seed, **kwargs)
                        else:
                            one = otoc(initial, a, b, u, part=part, phis=phis,
                                       seed=seed, **kwargs)
                        assert est == one

    @pytest.mark.parametrize("pure", [False, True])
    def test_gathers_each_action_once(self, monkeypatch, pure):
        calls = counting_patch(monkeypatch, PauliString, "action")
        rng = np.random.default_rng(74)
        n = 3
        initial = random_pure_state(rng, n) if pure else random_density(rng, n)
        u = propagator(random_hermitian(rng, 2**n), 0.9)
        a, b = random_pauli(rng, n), random_pauli(rng, n)
        protocols_mod._heisenberg_protocol(initial, a, b, 4, u, self.PARTS, [0.6] * 4)
        assert len(calls) == 2  # A in the engine, B in B(t)

    def test_sampled_needs_one_seed_per_part(self):
        rho = DensityMatrix.maximally_mixed(1)
        z = PauliString(("Z",))
        with pytest.raises(ValueError, match="seed"):
            protocols_mod._heisenberg_protocol(
                rho, z, z, 2, np.eye(2), self.PARTS, [0.6] * 2,
                mode="sampled", trials=10, seeds=(1,),
            )


class TestOneBuildPerTimePoint:
    TIMES = [0.0, 0.4, 0.8]

    def test_mixed_state_otoc(self, monkeypatch):
        heisenberg_calls = counting_patch(monkeypatch, protocols_mod, "heisenberg")
        unitary_calls = counting_patch(monkeypatch, protocols_mod, "is_unitary")
        cfg = config_from_dict(
            {
                "system_size": 3,
                "observable_a": "+ZII",
                "observable_b": "+IIX",
                "times": self.TIMES,
                "protocol": "otoc",
                "initial_state": "maximally-mixed",
                "parts": ["real", "imag"],
            }
        )
        rows = run_experiment(cfg)
        assert all(r.re_value is not None and r.im_value is not None for r in rows)
        assert len(heisenberg_calls) == len(self.TIMES)
        assert len(unitary_calls) == len(self.TIMES)

    def test_label_state_toc(self, monkeypatch):
        calls = counting_patch(monkeypatch, protocols_mod, "_heisenberg_action")
        cfg = config_from_dict(
            {
                "system_size": 3,
                "observable_a": "+ZII",
                "observable_b": "+IIX",
                "times": self.TIMES,
                "protocol": "toc",
                "initial_state": "010",
                "parts": ["real", "imag"],
            }
        )
        rows = run_experiment(cfg)
        assert all(r.re_value is not None and r.im_value is not None for r in rows)
        assert len(calls) == len(self.TIMES)


class TestRmsBound:
    def test_known_values(self):
        assert rms_bound([PI / 2], [100]) == pytest.approx(0.1)
        assert rms_bound([PI / 6], [100]) == pytest.approx(0.2)
        assert rms_bound([PI / 2, PI / 2], [100, 100]) == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            rms_bound([], [])
        with pytest.raises(ValueError):
            rms_bound([PI / 2], [100, 100])
        with pytest.raises(ValueError):
            rms_bound([PI / 2], [0])
        with pytest.raises(ValueError):
            rms_bound([0.0], [10])


class TestSampling:
    def test_projective_eigenstate_has_zero_stderr(self):
        rho = DensityMatrix.from_label("1")
        est = sample_protocol(rho, [meas(PauliString(("Z",)), PI / 2)], 200, seed=1)
        assert est.value == pytest.approx(1.0)
        assert est.empirical_stderr == 0.0
        assert est.trials == (200,)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 1)
        steps = [meas(PauliString(("X",)), 0.7), meas(PauliString(("Z",)), 1.0)]
        a = sample_protocol(rho, steps, 500, seed=7)
        b = sample_protocol(rho, steps, 500, seed=7)
        assert a.value == b.value and a.empirical_stderr == b.empirical_stderr
        c = sample_protocol(rho, steps, 500, seed=8)
        assert c.value != a.value

    def test_matches_sequential_born_sampler(self):
        # an independent sampler carrying normalized conditional states,
        # fed the same per-trial uniforms, draws the same outcome strings
        rng = np.random.default_rng(12)
        rho = random_density(rng, 2)
        specs = [
            MeasurementSpec(random_pauli(rng, 2), 0.9, "noninformative"),
            MeasurementSpec(random_pauli(rng, 2), 1.2, "informative"),
            MeasurementSpec(random_pauli(rng, 2), 0.4, "informative"),
        ]
        u = propagator(build_mixed_field_ising(2), 0.7).matrix
        steps = [MeasureStep(specs[0]), EvolveStep(u), MeasureStep(specs[1]),
                 EvolveStep(u.conj().T), MeasureStep(specs[2])]
        trials, seed = 333, 5
        uniforms = protocols_mod.trial_uniforms(seed, trials, len(specs))
        products = []
        for row in uniforms:
            state, weight, j = rho.matrix, 1.0, 0
            for step in steps:
                if isinstance(step, EvolveStep):
                    state = step.unitary @ state @ step.unitary.conj().T
                    continue
                ks = kraus_pair(step.spec)
                p1 = float(np.real(np.trace(ks[1] @ state @ ks[1].conj().T)))
                a = int(row[j] < p1)
                state = ks[a] @ state @ ks[a].conj().T
                state = state / np.real(np.trace(state))
                weight *= generalized_eigenvalue(step.spec.phi, a)
                j += 1
            products.append(weight)
        est = sample_protocol(rho, steps, trials, seed)
        assert abs(est.value - math.fsum(products) / trials) < 1e-12

    def test_estimator_mean_consistent_with_exact(self):
        rng = np.random.default_rng(13)
        rho = random_density(rng, 1)
        pa, pb = PauliString(("X",)), PauliString(("Z",))
        phi = PI / 3
        steps = [meas(pa, phi), meas(pb, phi)]
        exact = nested_estimate(rho, steps).value
        runs = 200
        trials = 400
        estimates = [
            sample_protocol(rho, steps, trials, seed=1000 + r).value for r in range(runs)
        ]
        bound = rms_bound([phi, phi], [trials, 1])
        assert abs(np.mean(estimates) - exact) < 5 * bound / math.sqrt(runs)

    def test_empirical_mse_below_bound(self):
        rng = np.random.default_rng(14)
        rho = random_density(rng, 1)
        steps = [meas(PauliString(("Z",)), PI / 4), meas(PauliString(("X",)), PI / 4)]
        exact = nested_estimate(rho, steps).value
        estimates = np.array(
            [sample_protocol(rho, steps, 500, seed=50 + r).value for r in range(200)]
        )
        mse = float(np.mean((estimates - exact) ** 2))
        bound = sample_protocol(rho, steps, 500, seed=0).rms_bound
        assert mse <= bound**2 * 1.1

    def test_stderr_is_reported(self):
        rng = np.random.default_rng(15)
        rho = random_density(rng, 1)
        steps = [meas(PauliString(("X",)), 0.9)]
        est = sample_protocol(rho, steps, 2000, seed=3)
        assert est.mode == "sampled"
        assert est.empirical_stderr > 0
        # sanity: observed deviation from exact within 6 reported stderrs
        exact = nested_estimate(rho, steps).value
        assert abs(est.value - exact) < 6 * est.empirical_stderr

    def test_sampled_toc_agrees_with_exact(self):
        rng = np.random.default_rng(16)
        rho = random_density(rng, 2)
        pa, pb = random_pauli(rng, 2), random_pauli(rng, 2)
        u = propagator(build_mixed_field_ising(2), 0.8)
        exact = toc(rho, pa, pb, u, "real", (PI / 2, PI / 2)).value
        est = toc(
            rho, pa, pb, u, "real", (PI / 2, PI / 2), mode="sampled", trials=20000, seed=9
        )
        assert abs(est.value - exact) < 5 * max(est.empirical_stderr, est.rms_bound)

    def test_seed_range(self):
        rho = DensityMatrix.from_label("0")
        steps = [meas(PauliString(("X",)), 0.5)]
        for seed in (2**64, -1):
            with pytest.raises(ValueError, match="seed"):
                sample_protocol(rho, steps, 10, seed=seed)
        est = sample_protocol(rho, steps, 10, seed=2**64 - 1)
        assert est.trials == (10,)

    def test_trials_validation(self):
        rho = DensityMatrix.from_label("0")
        steps = [meas(PauliString(("Z",)), 0.5)]
        with pytest.raises(ValueError):
            sample_protocol(rho, steps, 0, seed=1)
        with pytest.raises(ValueError, match="trials and seed"):
            nested_estimate(rho, steps, mode="sampled")

    @pytest.mark.parametrize("probs", [(-0.5, 1.5), (0.0, 0.0)])
    def test_rejects_bad_conditional_probability(self, monkeypatch, probs):
        rho = DensityMatrix.from_label("0")
        steps = [meas(PauliString(("Z",)), 0.5)]
        leaves = [protocols_mod.OutcomeRecord((a,), 1.0, p) for a, p in enumerate(probs)]
        monkeypatch.setattr(protocols_mod, "sequence_distribution", lambda *_: leaves)
        with pytest.raises(NumericalInvariantError, match="conditional"):
            sample_protocol(rho, steps, 10, seed=1)
