"""Sequence engine, TOC/OTOC protocols, sampling, statistical bounds."""

import gc
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from helpers import random_density, random_hermitian, random_pauli, random_unitary

import seqmeas.core as core_mod
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
    Propagator,
    PureState,
    build_mixed_field_ising,
    config_from_dict,
    embed,
    generalized_eigenvalue,
    kraus_coefficients,
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
from seqmeas.core import identity_deviation
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

    def test_nan_probability_is_rejected(self):
        # NaN compares False with both bounds, so the checks test for the
        # range, not for leaving it.
        rho = DensityMatrix.maximally_mixed(1)
        corrupted = rho.matrix.copy()
        corrupted[0, 0] = np.nan
        object.__setattr__(rho, "matrix", corrupted)
        with pytest.raises(NumericalInvariantError):
            sequence_distribution(rho, [meas(PauliString(("Z",)), 0.7)])

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
        for bad in (
            ((0.5, 0.5), (0.5, 0.6)),
            ((0.5, 0.5), (0.5, 0.5)),
            ((0.5, 0.5), (0.5, math.nan)),  # a NaN deviation fails too
        ):
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
        # A doubled alpha gives a value past 1.  A complex or NaN alpha gives
        # transfer weights without w2 = conj(w1), which no map accepts, so
        # the first transfer fails before any value is formed.
        rho = DensityMatrix.from_label("1")  # Z = +1
        steps = [meas(PauliString(("Z",)), phi) for phi in (0.5, 0.7, 1.1)]
        assert nested_estimate(rho, steps).value == pytest.approx(1.0, abs=1e-12)
        scaled = lambda phi, a: alpha * generalized_eigenvalue(phi, a)  # noqa: E731
        monkeypatch.setattr(protocols_mod, "generalized_eigenvalue", scaled)
        match = "exact value" if alpha == 2.0 else "Hermitian"
        with pytest.raises(NumericalInvariantError, match=match):
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
            otoc(rho, z, z, clock=ClockPropagator.from_matrix(1.01 * np.eye(4), 1))

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
            resolved = protocols_mod._resolve_steps(rho, steps)
            ref = forward_transfer_reference(rho, resolved)
            assert abs(nested_estimate(rho, steps).value - ref.real) <= 1e-12

    def test_first_measurements_share_the_tail(self):
        rng = np.random.default_rng(72)
        for _ in range(30):
            rho, steps = random_sequence(rng, "raw", int(rng.integers(2, 6)))
            resolved = protocols_mod._resolve_steps(rho, steps)
            other_rho, other_steps = random_sequence(rng, "pauli", 1)
            while other_rho.n_qubits != rho.n_qubits:
                other_rho, other_steps = random_sequence(rng, "pauli", 1)
            (other,) = protocols_mod._resolve_steps(rho, other_steps)
            firsts, rest = [resolved[0], other], resolved[1:]
            starts = [first.transfer(rho.matrix) for first in firsts]
            workspace = protocols_mod._Workspace(rho.dim)
            values = protocols_mod._transfer_values(starts, rest, workspace)
            for first, value in zip(firsts, values):
                ref = forward_transfer_reference(rho, [first, *rest])
                assert abs(value - ref.real) <= 1e-12

    def test_walks_make_no_reference_cycles(self):
        # A self-referencing closure in the walk would leave garbage for the
        # cycle collector; a module-level recursion frees every level at once.
        rng = np.random.default_rng(74)
        rho = random_density(rng, 3)
        a, b = random_pauli(rng, 3), random_pauli(rng, 3)
        u = propagator(random_hermitian(rng, 8), 0.9)
        steps = [
            meas(random_pauli(rng, 3), 0.4, "noninformative"),
            meas(random_involution(rng, 2), 0.9, targets=(2, 0)),
            EvolveStep(random_unitary(rng, 8)),
            meas(random_pauli(rng, 1), 1.2, targets=(1,)),
            meas(random_involution(rng, 3), 0.6),
        ]
        gc.collect()
        gc.disable()
        try:
            otoc(rho, a, b, u, phis=(0.5, 0.6, 0.7, 0.8), mode="sampled",
                 trials=200, seed=3)
            nested_estimate(rho, steps)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_engine_measurement_is_not_a_sequence_step(self):
        # The public step API takes MeasureStep and EvolveStep only; the
        # engine's resolved measurements do not pass through it.
        rho = DensityMatrix.from_label("01")
        (resolved,) = protocols_mod._resolve_steps(
            rho, [meas(PauliString(("Z", "Z")), 0.7)]
        )
        for mode in ("exact", "sampled"):
            with pytest.raises(TypeError, match="unknown sequence step"):
                nested_estimate(rho, [resolved], mode=mode, trials=10, seed=1)
        with pytest.raises(TypeError, match="unknown sequence step"):
            sequence_distribution(rho, [meas(PauliString(("X", "I")), 0.7), resolved])


class TestSequenceBuilder:
    """The TOC/OTOC presets and the step API share one sequence builder,
    ``_sequence_grid``; these cover the sequences neither preset builds."""

    @staticmethod
    def _leading_evolution(rng, n):
        """[EvolveStep, MeasureStep on targets, MeasureStep of a raw
        involution, EvolveStep]: the first evolution folds into the first
        measurement, where the builder splits it from the rest."""
        k = int(rng.integers(1, n + 1))
        targets = tuple(int(q) for q in rng.permutation(n)[:k])
        kinds = ("informative", "noninformative")
        return [
            EvolveStep(random_unitary(rng, 2**n)),
            meas(random_pauli(rng, k), float(rng.uniform(0.15, PI / 2)),
                 kinds[int(rng.integers(2))], targets),
            meas(random_involution(rng, n), float(rng.uniform(0.15, PI / 2)),
                 kinds[int(rng.integers(2))]),
            EvolveStep(random_unitary(rng, 2**n)),
        ]

    @pytest.mark.parametrize("state", ["density", "pure"])
    def test_leading_evolution_matches_dense_references(self, state):
        rng = np.random.default_rng([97, len(state)])
        for _ in range(20):
            n = int(rng.integers(1, 4))
            steps = self._leading_evolution(rng, n)
            if state == "density":
                initial = rho = random_density(rng, n)
            else:
                initial = random_pure_state(rng, n)
                rho = initial.density()
            ref = dense_reference_transfer(rho, steps)
            assert abs(nested_estimate(initial, steps).value - ref.real) <= 1e-12
            records = sequence_distribution(initial, steps)
            reference = dense_reference_walk(rho, steps)
            assert len(records) == len(reference) == 4
            for r, (outcomes, weight, prob) in zip(records, reference):
                assert r.outcomes == outcomes
                assert abs(r.weight - weight) <= 1e-12
                assert abs(r.probability - prob) <= 1e-12

    def test_leading_evolution_samples_a_pure_state_as_its_density(self):
        rng = np.random.default_rng(98)
        for seed in range(5):
            n = int(rng.integers(1, 4))
            steps = self._leading_evolution(rng, n)
            psi = random_pure_state(rng, n)
            assert sample_protocol(psi, steps, 300, seed) == sample_protocol(
                psi.density(), steps, 300, seed
            )

    def test_evolved_step_is_not_a_sequence_step(self):
        # The builder's B(t) step needs a time grid; the public step API
        # takes MeasureStep and EvolveStep only.
        spec = MeasurementSpec(PauliString(("Z", "Z")), 0.7, "informative")
        evolved = protocols_mod._EvolvedStep(spec)
        first = meas(PauliString(("X", "I")), 0.6)
        for initial in (DensityMatrix.from_label("01"), PureState.from_label("01")):
            for steps in ([evolved], [first, evolved]):
                for mode in ("exact", "sampled"):
                    with pytest.raises(TypeError, match="unknown sequence step"):
                        nested_estimate(initial, steps, mode=mode, trials=10, seed=1)
                with pytest.raises(TypeError, match="unknown sequence step"):
                    sample_protocol(initial, steps, 10, 1)
                with pytest.raises(TypeError, match="unknown sequence step"):
                    sequence_distribution(initial, steps)

    @pytest.mark.parametrize("route", ["vector", "eigenbasis", "density", "sampled"])
    def test_evolved_steps_anywhere_after_the_firsts(self, route):
        # B(t) steps at any place after the per-part first measurements,
        # between static steps on targets, against one-point calls of the
        # step API that apply U and U^dag around each B.
        rng = np.random.default_rng([99, len(route)])
        n = 3
        h = random_hermitian(rng, 2**n)
        grid = _grid_propagators(h, [0.2, 0.7, 1.3])
        if route == "vector":
            grid = grid[:2]
        elif route == "density":
            grid = [u.matrix for u in grid]
        pure = route in ("vector", "eigenbasis")
        initial = random_pure_state(rng, n) if pure else random_density(rng, n)
        b = random_pauli(rng, n)
        firsts = [meas(random_pauli(rng, n), 0.5, kind)
                  for kind in ("informative", "noninformative")]
        c = meas(random_involution(rng, 2), 0.9, "noninformative", (2, 0))
        d = meas(random_pauli(rng, 1), 1.1, targets=(1,))
        evolved = [protocols_mod._EvolvedStep(MeasurementSpec(b, p, "informative"))
                   for p in (0.6, 0.8)]
        steps = [*firsts, evolved[0], c, d, evolved[1]]
        sampled = route == "sampled"
        seeds = [(3 * k, 3 * k + 1) for k in range(len(grid))]
        rows = protocols_mod._sequence_grid(
            initial, steps, 2, grid, "sampled" if sampled else "exact",
            200 if sampled else None, seeds if sampled else None,
        )
        assert len(rows) == len(grid)
        for u, row, point_seeds in zip(grid, rows, seeds):
            um = getattr(u, "matrix", u)
            fwd, back = EvolveStep(um), EvolveStep(um.conj().T)
            for first, est, seed in zip(firsts, row, point_seeds):
                one = [first, fwd, meas(b, 0.6), back, c, d, fwd, meas(b, 0.8), back]
                if sampled:
                    assert est == sample_protocol(initial, one, 200, seed)
                else:
                    ref = dense_reference_transfer(
                        initial.density() if pure else initial, one
                    )
                    assert abs(est.value - ref.real) <= 1e-12
                    assert est.phis == (0.5, 0.6, 0.9, 1.1, 0.8)


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
                    (both,) = protocols_mod._heisenberg_protocol(
                        initial, a, b, count, [u], self.PARTS, phis,
                        seeds=[seeds] if sampled else None, **kwargs
                    )
                    for part, seed, est in zip(self.PARTS, seeds, both):
                        if count == 2:
                            one = toc(initial, a, b, u, part, phis, seed=seed, **kwargs)
                        else:
                            one = otoc(initial, a, b, u, part=part, phis=phis,
                                       seed=seed, **kwargs)
                        assert est == one

    @pytest.mark.parametrize("count", [2, 4])
    @pytest.mark.parametrize(
        "route", ["vector", "pure eigenbasis", "eigenbasis", "density", "sampled"]
    )
    def test_gathers_each_action_once(self, monkeypatch, route, count):
        # Only B(t) depends on the time, so each part's first transfer is
        # built once per grid on every route (the signed permutations are
        # pinned by test_builds_each_action_once).
        transfers = [
            counting_patch(monkeypatch, protocols_mod._Measurement, name)
            for name in ("transfer", "transfer_factors")
        ]
        phase_maps = counting_patch(monkeypatch, protocols_mod, "_phase_action")
        phase_scalings = counting_patch(monkeypatch, protocols_mod, "heisenberg_phases")
        rng = np.random.default_rng(74)
        n = 3
        pure = route in ("vector", "pure eigenbasis", "sampled")
        initial = random_pure_state(rng, n) if pure else random_density(rng, n)
        grid = _grid_propagators(random_hermitian(rng, 2**n), [0.3, 0.9, 1.4])
        if route == "vector":
            grid = grid[:2]
        elif route == "density":
            grid = [u.matrix for u in grid]
        kwargs = {}
        if route == "sampled":
            kwargs = {"mode": "sampled", "trials": 50, "seeds": [(1, 2), (3, 4), (5, 6)]}
        a, b = random_pauli(rng, n), random_pauli(rng, n)
        phis = [0.5, 0.6, 0.7, 0.8][:count]
        rows = protocols_mod._heisenberg_protocol(
            initial, a, b, count, grid, self.PARTS, phis, **kwargs
        )
        assert len(rows) == len(grid)
        assert len(phase_maps) == (len(grid) if "eigenbasis" in route else 0)
        assert len(phase_scalings) == (len(grid) if route == "eigenbasis" else 0)
        firsts = [call for calls in transfers for call in calls if call[0].phi == phis[0]]
        assert len(firsts) == (0 if route == "sampled" else len(self.PARTS))

    @pytest.mark.parametrize("count", [2, 4])
    @pytest.mark.parametrize(
        "route", ["vector", "pure eigenbasis", "eigenbasis", "density", "sampled"]
    )
    def test_builds_each_action_once(self, monkeypatch, route, count):
        # The grid of test_gathers_each_action_once: however often a string
        # is gathered, its signed permutation is built once per register
        # size and target tuple, and a repeat call returns the same
        # read-only arrays.
        builds = counting_patch(monkeypatch, PauliString, "_build_action")
        rng = np.random.default_rng(74)
        n = 3
        pure = route in ("vector", "pure eigenbasis", "sampled")
        initial = random_pure_state(rng, n) if pure else random_density(rng, n)
        grid = _grid_propagators(random_hermitian(rng, 2**n), [0.3, 0.9, 1.4])
        if route == "vector":
            grid = grid[:2]
        elif route == "density":
            grid = [u.matrix for u in grid]
        kwargs = {}
        if route == "sampled":
            kwargs = {"mode": "sampled", "trials": 50, "seeds": [(1, 2), (3, 4), (5, 6)]}
        a, b = random_pauli(rng, n), random_pauli(rng, n)
        phis = [0.5, 0.6, 0.7, 0.8][:count]
        protocols_mod._heisenberg_protocol(initial, a, b, count, grid, self.PARTS, phis, **kwargs)
        keys = [(id(p), size, targets) for p, size, targets in builds]
        assert len(keys) == len(set(keys))
        assert {p for p, _, _ in builds} == {a, b}
        for p, size, targets in list(builds):
            perm, d = p.action(size, targets)
            again = p.action(size, targets)
            assert again[0] is perm and again[1] is d
            assert not (perm.flags.writeable or d.flags.writeable)
        assert len(builds) == len(keys)

    @pytest.mark.parametrize(
        "route", ["vector", "pure eigenbasis", "eigenbasis", "density", "sampled"]
    )
    def test_one_b_of_t_measurement_per_strength(self, monkeypatch, route):
        # The two B(t) steps of an OTOC at one strength share a time
        # point's measurement; at two strengths each has its own, and the
        # values are the same either way.
        inits = counting_patch(monkeypatch, protocols_mod._Measurement, "__init__")
        rng = np.random.default_rng(77)
        n = 3
        pure = route in ("vector", "pure eigenbasis", "sampled")
        initial = random_pure_state(rng, n) if pure else random_density(rng, n)
        grid = _grid_propagators(random_hermitian(rng, 2**n), [0.3, 0.9, 1.4])
        if route == "vector":
            grid = grid[:2]
        elif route == "density":
            grid = [u.matrix for u in grid]
        kwargs = {}
        if route == "sampled":
            kwargs = {"mode": "sampled", "trials": 50, "seeds": [(1, 2), (3, 4), (5, 6)]}
        a, b = random_pauli(rng, n), random_pauli(rng, n)
        values = []
        for phis, strengths in (([0.5, 0.6, 0.7, 0.6], 1), ([0.5, 0.6, 0.7, 0.8], 2)):
            inits.clear()
            rows = protocols_mod._heisenberg_protocol(
                initial, a, b, 4, grid, self.PARTS, phis, **kwargs
            )
            b_steps = [call for call in inits if call[1].phi in (phis[1], phis[3])]
            # The vector route also builds B's own action once per grid.
            assert len(b_steps) == strengths * len(grid) + (route == "vector")
            values.append([est.value for row in rows for est in row])
        if route != "sampled":
            assert np.allclose(values[0], values[1], rtol=0, atol=1e-12)

    def test_checks_a_raw_a_once_per_call(self, monkeypatch):
        # A raw-matrix A is checked (Hermiticity and the square) once per
        # call, and each of its steps is a copy of that spec.  The one other
        # check of a one-point call is its B(t); the 3-point grid runs in
        # H's eigenbasis, where the later A and B~ carried into the frame
        # are checked once per grid, and no B~(t) is checked by a spec.
        checks = counting_patch(monkeypatch, measurement_mod, "_raw_observable")
        rng = np.random.default_rng(75)
        n = 3
        rho = random_density(rng, n)
        a, b = random_pauli(rng, n).matrix(), random_pauli(rng, n)
        grid = _grid_propagators(random_hermitian(rng, 2**n), [0.3, 0.9, 1.4])
        phis = [0.5, 0.6, 0.7, 0.8]
        one = protocols_mod._heisenberg_protocol(rho, a, b, 4, grid[:1], self.PARTS, phis)
        assert len(checks) == 2
        checks.clear()
        rows = protocols_mod._heisenberg_protocol(rho, a, b, 4, grid, self.PARTS, phis)
        assert len(checks) == 3
        for got, ref in zip(rows[0], one[0]):
            assert abs(got.value - ref.value) <= 1e-12

    def test_mixed_eigenbasis_checks_do_not_grow_with_the_grid(self, monkeypatch):
        # A mixed eigenbasis grid checks its raw observables (A, the later A
        # and B~) once per grid: six points make as many checks as three.
        checks = counting_patch(monkeypatch, measurement_mod, "_raw_observable")
        rng = np.random.default_rng(75)
        n = 3
        rho = random_density(rng, n)
        a, b = random_pauli(rng, n).matrix(), random_pauli(rng, n)
        h = random_hermitian(rng, 2**n)
        phis = [0.5, 0.6, 0.7, 0.8]
        counts = []
        for times in ([0.3, 0.9, 1.4], [0.3, 0.9, 1.4, 2.0, 2.6, 3.1]):
            checks.clear()
            rows = protocols_mod._heisenberg_protocol(
                rho, a, b, 4, _grid_propagators(h, times), self.PARTS, phis
            )
            assert len(rows) == len(times)
            counts.append(len(checks))
        assert counts == [3, 3]

    def test_sampled_needs_one_seed_per_part(self):
        rho = DensityMatrix.maximally_mixed(1)
        z = PauliString(("Z",))
        with pytest.raises(ValueError, match="seed"):
            protocols_mod._heisenberg_protocol(
                rho, z, z, 2, [np.eye(2)], self.PARTS, [0.6] * 2,
                mode="sampled", trials=10, seeds=[(1,)],
            )
        with pytest.raises(ValueError, match="seed tuples"):
            protocols_mod._heisenberg_protocol(
                rho, z, z, 2, [np.eye(2)] * 2, self.PARTS, [0.6] * 2,
                mode="sampled", trials=10, seeds=[(1, 2)],
            )


class TestSharedWalk:
    PARTS = ("real", "imag")
    SEEDS = [(1, 2), (3, 4), (5, 6)]

    @pytest.mark.parametrize("count", [2, 4])
    @pytest.mark.parametrize("state", ["label", "mixed"])
    def test_one_walk_per_time_point(self, monkeypatch, count, state):
        # The parts differ only in their first measurement: its children are
        # built once per grid, and one walk per time point serves both parts,
        # each drawn from its own stream.
        rng = np.random.default_rng(75)
        n = 3
        if state == "label":
            initial = PureState.from_label("010")
        else:
            initial = DensityMatrix.maximally_mixed(n)
        grid = _grid_propagators(build_mixed_field_ising(n), [0.0, 0.5, 1.1])
        a, b = random_pauli(rng, n), random_pauli(rng, n)
        phis = [0.5, 0.6, 0.7, 0.8][:count]

        def run(parts, seeds):
            return protocols_mod._heisenberg_protocol(
                initial, a, b, count, grid, parts, phis,
                mode="sampled", trials=300, seeds=seeds,
            )

        walks = counting_patch(monkeypatch, protocols_mod, "_effects")
        maps = counting_patch(monkeypatch, protocols_mod._Measurement, "maps")
        both = run(self.PARTS, self.SEEDS)
        # A walk calls itself with its node's effect; the top-level call
        # takes the measurements, their branches and the workspace only.
        assert sum(len(call) == 3 for call in walks) == len(grid)
        first_maps = [call for call in maps if call[0].phi == phis[0]]
        assert len(first_maps) == len(self.PARTS)
        real = run(("real",), [(s,) for s, _ in self.SEEDS])
        imag = run(("imag",), [(s,) for _, s in self.SEEDS])
        assert [row[0] for row in both] == [row[0] for row in real]
        assert [row[1] for row in both] == [row[0] for row in imag]


class TestGridWorkspace:
    """Every dense route writes a time point's arrays into one workspace per
    grid (``protocols._Workspace``), over the last point's."""

    PARTS = ("real", "imag")
    TIMES = [0.3, 0.9, 1.4]
    SEEDS = [(1, 2), (3, 4), (5, 6)]

    @pytest.mark.parametrize("count", [2, 4])
    @pytest.mark.parametrize("route", ["eigenbasis", "density", "sampled"])
    def test_value_does_not_depend_on_the_points_before(self, monkeypatch, route, count):
        # A point reads only what it wrote: each time's estimates are the
        # same bits whether its grid runs forward, reversed or with that
        # time repeated.
        phase_calls = counting_patch(monkeypatch, protocols_mod, "heisenberg_phases")
        rng = np.random.default_rng([121, count, len(route)])
        n = 3
        rho = random_density(rng, n)
        grid = _grid_propagators(random_hermitian(rng, 2**n), self.TIMES)
        if route == "density":
            grid = [u.matrix for u in grid]
        a, b = random_pauli(rng, n), random_pauli(rng, n)
        phis = [0.5, 0.6, 0.7, 0.8][:count]

        def bits(order):
            kwargs = {}
            if route == "sampled":
                kwargs = {"mode": "sampled", "trials": 300,
                          "seeds": [self.SEEDS[k] for k in order]}
            rows = protocols_mod._heisenberg_protocol(
                rho, a, b, count, [grid[k] for k in order], self.PARTS, phis, **kwargs
            )
            return [[(e.value.hex(), e.empirical_stderr.hex()) for e in row] for row in rows]

        forward = bits([0, 1, 2])
        assert bits([2, 1, 0]) == forward[::-1]
        assert bits([1, 1, 1]) == [forward[1]] * 3
        assert len(phase_calls) == (9 if route == "eigenbasis" else 0)

    @pytest.mark.parametrize("route", ["eigenbasis", "density"])
    def test_walk_buffers_are_built_once_per_grid(self, monkeypatch, route):
        # Six points of a mixed eigenbasis grid build as many buffers as
        # three, and two points of a density grid as many as one.
        builds = counting_patch(monkeypatch, protocols_mod._Workspace, "__missing__")
        rng = np.random.default_rng(122)
        n = 3
        rho = random_density(rng, n)
        h = random_hermitian(rng, 2**n)
        a, b = random_pauli(rng, n), random_pauli(rng, n)
        lengths = (3, 6) if route == "eigenbasis" else (1, 2)
        counts = []
        for length in lengths:
            builds.clear()
            grid = _grid_propagators(h, [0.4 * (k + 1) for k in range(length)])
            rows = protocols_mod._heisenberg_protocol(
                rho, a, b, 4, grid, self.PARTS, [0.5, 0.6, 0.7, 0.8]
            )
            assert len(rows) == length
            counts.append(len(builds))
        assert counts[0] == counts[1] > 0


class TestGridChecks:
    @pytest.mark.parametrize("route", ["vector", "eigenbasis", "density", "sampled"])
    def test_wrong_shape_fails_before_any_value(self, monkeypatch, route):
        # Every evolution of the grid is shape-checked before the first
        # time point is evaluated.
        per_point = [
            counting_patch(monkeypatch, protocols_mod, name)
            for name in ("_heisenberg_action", "heisenberg_phases", "_evolution_matrix",
                         "_transfer_values", "_leaf_probabilities")
        ]
        rng = np.random.default_rng(76)
        n = 2
        h = build_mixed_field_ising(n)
        initial = random_pure_state(rng, n) if route == "vector" else random_density(rng, n)
        grid = _grid_propagators(h, [0.3, 0.9, 1.4])
        grid[2] = propagator(build_mixed_field_ising(n + 1), 1.4)
        kwargs = {}
        if route == "density":
            grid = [u.matrix for u in grid]
        elif route == "sampled":
            kwargs = {"mode": "sampled", "trials": 50, "seeds": [(1, 2), (3, 4), (5, 6)]}
        a, b = PauliString(("Z", "I")), PauliString(("I", "X"))
        with pytest.raises(ValueError, match=r"evolution 'U_t' has shape \(8, 8\)"):
            protocols_mod._heisenberg_protocol(
                initial, a, b, 4, grid, ("real", "imag"), [0.6] * 4, **kwargs
            )
        assert all(calls == [] for calls in per_point)

    @pytest.mark.parametrize(
        "route", ["vector", "pure eigenbasis", "eigenbasis", "density", "sampled"]
    )
    def test_evolved_steps_measure_one_b(self, route):
        # A grid sequence has one B: an evolved step of another observable
        # or kind is refused, where it used to be measured as the first
        # one's B.  An equal Pauli string or an equal matrix is that B.
        n = 3
        pure = route in ("vector", "pure eigenbasis")
        initial = PureState.from_label("010") if pure else DensityMatrix.maximally_mixed(n)
        grid = _grid_propagators(build_mixed_field_ising(n), [0.3, 0.6, 0.9])
        if route == "vector":
            grid = grid[:2]
        elif route == "density":
            grid = [u.matrix for u in grid]
        kwargs = {"mode": "exact", "trials": None, "seeds": None}
        if route == "sampled":
            kwargs = {"mode": "sampled", "trials": 50, "seeds": [(1,)] * len(grid)}
        a, b, c = (PauliString.from_text(t) for t in ("+ZII", "+IIZ", "+IXI"))

        def evolved(observable, phi, kind="informative"):
            return protocols_mod._EvolvedStep(MeasurementSpec(observable, phi, kind))

        def grid_values(steps):
            rows = protocols_mod._sequence_grid(initial, steps, 1, grid, **kwargs)
            return [est.value for row in rows for est in row]

        for later in (
            evolved(c, 0.8),
            evolved(b, 0.8, "noninformative"),
            evolved(c.matrix(), 0.8),
            evolved(-b.matrix(), 0.8),
        ):
            with pytest.raises(ValueError, match="first one's B"):
                grid_values([meas(a, 0.5), evolved(b, 0.6), later])
        phis = [0.5, 0.6, 0.7, 0.8]
        rows = protocols_mod._heisenberg_protocol(
            initial, a, b, 4, grid, ("real",), phis, **kwargs
        )
        ref = [est.value for row in rows for est in row]
        for b1, b2 in ((b, PauliString.from_text("+IIZ")), (b.matrix(), b.matrix().copy())):
            steps = [meas(a, 0.5), evolved(b1, 0.6), meas(a, 0.7), evolved(b2, 0.8)]
            got = grid_values(steps)
            if isinstance(b1, PauliString):
                assert got == ref
            else:
                assert np.allclose(got, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("route", ["vector", "eigenbasis", "density"])
    def test_malformed_propagator_never_reaches_a_value(self, route):
        # A one-element spectrum would broadcast its phase over the register:
        # B(t) = B would still square to 1 and U would still be unitary, and
        # the OTOC would read its t = 0 value.
        evals, evecs = build_mixed_field_ising(3).spectrum
        rho = DensityMatrix.maximally_mixed(3)
        initial = PureState.from_label("010") if route == "vector" else rho
        a, b = PauliString.from_text("+ZII"), PauliString.from_text("+IIZ")
        times = [0.3, 0.6, 0.9] if route == "eigenbasis" else [0.9]

        def last_otoc(spectrum):
            grid = [Propagator(*spectrum, t) for t in times]
            rows = protocols_mod._heisenberg_protocol(
                initial, a, b, 4, grid, ("real",), [PI / 2] * 4
            )
            return otoc_value("real", rows[-1][0].value), grid[-1]

        value, u = last_otoc((evals, evecs))
        if route == "vector":
            rho = initial.density()
        ref = oracle_otoc(rho.matrix, a.matrix(), b.matrix(), u.matrix)
        assert abs(value - ref.real) <= 1e-12
        assert abs(value - 1.0) > 1e-3
        with pytest.raises(ValueError, match="propagator"):
            last_otoc((np.array([0.37]), evecs))


class TestOneBuildPerTimePoint:
    TIMES = [0.0, 0.4, 0.8]

    def test_mixed_state_otoc(self, monkeypatch):
        # A mixed-state grid runs in H's eigenbasis: V is checked once and A
        # and B are carried into it once per run (heisenberg with V in place
        # of U); a time point only scales B's phases, with no U to check and
        # no B(t) product.
        heisenberg_calls = counting_patch(monkeypatch, protocols_mod, "heisenberg")
        unitary_calls = counting_patch(monkeypatch, protocols_mod, "is_unitary")
        phase_calls = counting_patch(monkeypatch, protocols_mod, "heisenberg_phases")
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
        assert len(unitary_calls) == 1
        evecs = unitary_calls[0][0]
        assert len(heisenberg_calls) == 2
        assert all(call[1] is evecs for call in heisenberg_calls)
        assert len(phase_calls) == len(self.TIMES)

    def test_label_state_toc(self, monkeypatch):
        # A label-state grid runs in H's eigenbasis too: V is checked once
        # and B is carried into it once per run; a time point applies B~(t)
        # by a phase scaling around one product with B~, and checks its
        # square on the initial vector.
        calls = counting_patch(monkeypatch, protocols_mod, "_heisenberg_action")
        phase_maps = counting_patch(monkeypatch, protocols_mod, "_phase_action")
        heisenberg_calls = counting_patch(monkeypatch, protocols_mod, "heisenberg")
        unitary_calls = counting_patch(monkeypatch, protocols_mod, "is_unitary")
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
        assert len(calls) == len(phase_maps) == len(self.TIMES)
        assert len(unitary_calls) == 1
        assert len(heisenberg_calls) == 1
        assert heisenberg_calls[0][1] is unitary_calls[0][0]


def _grid_propagators(h, times):
    """Propagators of H at ``times`` that share one spectrum: a Hamiltonian
    caches its own; a matrix is decomposed once here."""
    if isinstance(h, Hamiltonian):
        return [propagator(h, t) for t in times]
    first = propagator(h, times[0])
    return [first] + [Propagator(first.evals, first.evecs, t) for t in times[1:]]


def _random_grid_input(rng, n, source, initial, observable):
    if source == "hamiltonian":
        if n == 1:
            h = Hamiltonian(1, ((0.8, PauliString(("X",))), (-0.5, PauliString(("Z",)))))
        else:
            h = build_mixed_field_ising(n)
    else:
        h = random_hermitian(rng, 2**n)
    rho = random_density(rng, n) if initial == "random" else DensityMatrix.maximally_mixed(n)
    a = random_pauli(rng, n)
    b = random_pauli(rng, n) if observable == "pauli" else random_involution(rng, n)
    return h, rho, a, b


class TestEigenbasisGrid:
    PARTS = ("real", "imag")
    TIMES = [0.0, 0.35, 0.9, 1.6]

    @pytest.mark.parametrize("observable", ["pauli", "raw"])
    @pytest.mark.parametrize("initial", ["random", "mixed"])
    @pytest.mark.parametrize("source", ["hamiltonian", "matrix"])
    def test_matches_oracle_and_single_points(self, monkeypatch, source, initial, observable):
        phase_calls = counting_patch(monkeypatch, protocols_mod, "heisenberg_phases")
        rng = np.random.default_rng([91, len(source), len(initial), len(observable)])
        for n in range(1, 6):
            h, rho, a, b = _random_grid_input(rng, n, source, initial, observable)
            grid = _grid_propagators(h, self.TIMES)
            for count in (2, 4):
                phis = [float(rng.uniform(0.2, PI / 2)) for _ in range(count)]
                before = len(phase_calls)
                rows = protocols_mod._heisenberg_protocol(
                    rho, a, b, count, grid, self.PARTS, phis
                )
                assert len(phase_calls) - before == len(self.TIMES)
                bm = b.matrix() if isinstance(b, PauliString) else b
                for u, (re_est, im_est) in zip(grid, rows):
                    if count == 2:
                        ref = oracle_toc(rho.matrix, a.matrix(), bm, u.matrix)
                        got = complex(re_est.value, im_est.value)
                        single = [toc(rho, a, b, u, p, phis).value for p in self.PARTS]
                    else:
                        ref = oracle_otoc(rho.matrix, a.matrix(), bm, u.matrix)
                        got = complex(
                            otoc_value("real", re_est.value),
                            otoc_value("imag", im_est.value),
                        )
                        single = [
                            otoc(rho, a, b, u, part=p, phis=phis).value
                            for p in self.PARTS
                        ]
                    assert abs(got - ref) <= 1e-12
                    assert abs(re_est.value - single[0]) <= 1e-13
                    assert abs(im_est.value - single[1]) <= 1e-13
                    assert re_est.phis == im_est.phis == tuple(phis)

    def test_row_does_not_depend_on_the_grid(self):
        rng = np.random.default_rng(92)
        n = 3
        ham = build_mixed_field_ising(n)
        rho = random_density(rng, n)
        a, b = random_pauli(rng, n), random_pauli(rng, n)
        phis = [0.5, 0.7, 0.9, 1.1]
        long = protocols_mod._heisenberg_protocol(
            rho, a, b, 4, _grid_propagators(ham, [0.0, 0.4, 0.8]), self.PARTS, phis
        )
        short = protocols_mod._heisenberg_protocol(
            rho, a, b, 4, _grid_propagators(ham, [0.8, 1.2, 1.6]), self.PARTS, phis
        )
        assert long[2] == short[0]

    def test_rows_do_not_depend_on_the_grid_in_a_run(self):
        def rows(times):
            cfg = config_from_dict(
                {
                    "system_size": 3,
                    "observable_a": "+ZII",
                    "observable_b": "+IIZ",
                    "times": times,
                    "protocol": "otoc",
                    "initial_state": "maximally-mixed",
                    "parts": ["real", "imag"],
                }
            )
            return run_experiment(cfg)

        assert rows([0.0, 0.4, 0.8])[2] == rows([0.8, 1.2, 1.6])[0]

    def test_non_unitary_eigenbasis_is_rejected(self):
        ham = build_mixed_field_ising(2)
        evals, evecs = ham.spectrum
        scaled = 1.001 * evecs
        bad = [Propagator(evals, scaled, t) for t in self.TIMES]
        rho = DensityMatrix.maximally_mixed(2)
        a, b = PauliString(("Z", "I")), PauliString(("I", "Z"))
        with pytest.raises(NumericalInvariantError, match="eigenbasis"):
            protocols_mod._heisenberg_protocol(rho, a, b, 4, bad, self.PARTS, [0.6] * 4)

    # An H with Y terms: complex, so its eigenbasis and B~ are complex.
    Y_TERMS = ((0.9, "+YZI"), (-0.6, "+IXX"), (0.4, "+ZIY"), (0.7, "+XII"))

    @pytest.mark.parametrize("observable", ["pauli", "raw"])
    @pytest.mark.parametrize("source", ["ising", "y term", "clock"])
    def test_matches_density_route(self, monkeypatch, source, observable):
        # A mixed grid in H's eigenbasis applies B~(t) by its phases around
        # one product with B~, which is real for the Ising chain (so the
        # product runs in real arithmetic) and complex for an H with a Y
        # term.  Every value agrees with the density route, the same grid
        # passed as matrices, to 1e-12, and the clock grid also with the
        # one-point clock-ancilla OTOC.
        scalings = counting_patch(monkeypatch, protocols_mod, "heisenberg_phases")
        rng = np.random.default_rng([96, len(source), len(observable)])
        n = 3
        if source == "ising":
            ham = build_mixed_field_ising(n)
        else:
            ham = Hamiltonian(n, tuple((w, PauliString.from_text(t)) for w, t in self.Y_TERMS))
        clocks = [time_reversed_evolution(ham, t) for t in self.TIMES]
        if source == "clock":
            grid = [clock.system for clock in clocks]
        else:
            grid = _grid_propagators(ham, self.TIMES)
        a, b = PauliString.from_text("+XZI"), PauliString.from_text("+IIZ")
        if observable == "raw":
            q, _ = np.linalg.qr(rng.normal(size=(2**n, 2**n)))
            b = q.T @ b.matrix() @ q  # a real involution
        for rho in (random_density(rng, n), DensityMatrix.maximally_mixed(n)):
            for count in (2, 4):
                phis = [0.4, 0.7, 1.0, 1.3][:count]
                scalings.clear()
                rows = protocols_mod._heisenberg_protocol(
                    rho, a, b, count, grid, self.PARTS, phis
                )
                assert len(scalings) == len(grid)
                assert np.isrealobj(scalings[0][0]) == (source == "ising")
                dense = protocols_mod._heisenberg_protocol(
                    rho, a, b, count, [u.matrix for u in grid], self.PARTS, phis
                )
                for clock, row, ref in zip(clocks, rows, dense):
                    for part, got, want in zip(self.PARTS, row, ref):
                        assert abs(got.value - want.value) <= 1e-12
                        assert got.phis == want.phis == tuple(phis)
                        if source == "clock" and count == 4:
                            one = otoc(rho, a, b, clock=clock, part=part, phis=phis)
                            assert abs(got.value - one.value) <= 1e-12

    @pytest.mark.parametrize("count", [2, 4])
    def test_b_of_t_square_is_checked_at_every_point(self, count):
        # A phase vector off by 1e-9 at one point breaks B~(t)^2 = 1 there:
        # the mixed route checks the square of every B~(t) it scales.
        grid = _grid_propagators(build_mixed_field_ising(3), self.TIMES)
        u = grid[2]
        u.__dict__["phases"] = u.phases * (1 + 1e-9)
        rho = DensityMatrix.maximally_mixed(3)
        a, b = PauliString.from_text("+ZII"), PauliString.from_text("+IIX")
        with pytest.raises(NumericalInvariantError, match="square"):
            protocols_mod._heisenberg_protocol(
                rho, a, b, count, grid, self.PARTS, [0.6] * count
            )

    @pytest.mark.parametrize("count", [2, 4])
    def test_b_of_t_completeness_is_bounded_at_every_point(self, count):
        # A phase vector off by 2e-11 at one point bounds B~(t)^2 - 1 by
        # about 8e-11, within the square check, but at phi = pi/2 (w3 =
        # 1/2) the completeness bound then exceeds 1e-12; at phi = 1e-3
        # (w3 = 2.5e-7) it does not.
        grid = _grid_propagators(build_mixed_field_ising(3), self.TIMES)
        u = grid[2]
        u.__dict__["phases"] = u.phases * (1 + 2e-11)
        rho = DensityMatrix.maximally_mixed(3)
        a, b = PauliString.from_text("+ZII"), PauliString.from_text("+IIX")
        with pytest.raises(NumericalInvariantError, match="completeness"):
            protocols_mod._heisenberg_protocol(
                rho, a, b, count, grid, self.PARTS, [PI / 2] * count
            )
        weak = [PI / 2, 1e-3, PI / 2, 1e-3][:count]
        rows = protocols_mod._heisenberg_protocol(rho, a, b, count, grid, self.PARTS, weak)
        assert len(rows) == len(grid)

    def test_point_scales_b_once_and_forms_no_square(self, monkeypatch):
        # A mixed point forms B~(t) by one phase scaling of the dim x dim B~
        # and bounds its square from the phases alone: every
        # identity_deviation call belongs to the grid's checks (V, B~, A~),
        # so six points make as many as three.  Every module that binds
        # the name is counted.
        n, dim = 3, 8
        ham = build_mixed_field_ising(n)
        rho = DensityMatrix.maximally_mixed(n)
        a, b = PauliString.from_text("+ZII"), PauliString.from_text("+IIX")
        grids = [_grid_propagators(ham, [0.3 * (k + 1) for k in range(m)]) for m in (3, 6)]
        scalings = counting_patch(monkeypatch, protocols_mod, "heisenberg_phases")
        deviations = [
            counting_patch(monkeypatch, module, "identity_deviation")
            for module in (core_mod, measurement_mod, protocols_mod)
            if hasattr(module, "identity_deviation")
        ]
        counts = []
        for grid in grids:
            scalings.clear()
            for calls in deviations:
                calls.clear()
            rows = protocols_mod._heisenberg_protocol(
                rho, a, b, 4, grid, self.PARTS, [0.5, 0.6, 0.7, 0.8]
            )
            assert len(rows) == len(scalings) == len(grid)
            assert all(np.shape(args[0]) == (dim, dim) for args in scalings)
            counts.append(sum(map(len, deviations)))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize(
        "case",
        ["two points", "sampled", "pure", "pure, mixed grid", "raw matrices", "two spectra"],
    )
    def test_other_inputs_keep_their_route(self, monkeypatch, case):
        phase_calls = counting_patch(monkeypatch, protocols_mod, "heisenberg_phases")
        phase_maps = counting_patch(monkeypatch, protocols_mod, "_phase_action")
        density_points = counting_patch(monkeypatch, protocols_mod, "_evolution_matrix")
        rng = np.random.default_rng(93)
        n = 2
        ham = build_mixed_field_ising(n)
        rho = random_density(rng, n)
        a, b = PauliString(("Z", "I")), PauliString(("I", "X"))
        grid = _grid_propagators(ham, [0.3, 0.9, 1.4])
        kwargs = {}
        if case == "two points":
            grid = grid[:2]
        elif case == "sampled":
            kwargs = {"mode": "sampled", "trials": 50, "seeds": [(1, 2), (3, 4), (5, 6)]}
        elif case == "pure":
            # On two points; three would run in H's eigenbasis.
            rho = random_pure_state(rng, n)
            grid = grid[:2]
        elif case == "pure, mixed grid":
            # The route is picked per grid: one raw matrix sends a pure
            # state to the density route at every point.
            rho = random_pure_state(rng, n)
            grid[1] = grid[1].matrix
        elif case == "raw matrices":
            grid = [u.matrix for u in grid]
        else:
            grid[2] = propagator(build_mixed_field_ising(n, h=0.3), 1.4)
        rows = protocols_mod._heisenberg_protocol(
            rho, a, b, 4, grid, self.PARTS, [0.6] * 4, **kwargs
        )
        assert len(rows) == len(grid)
        assert phase_calls == phase_maps == []
        assert len(density_points) == (0 if case == "pure" else len(grid))


class TestPureEigenbasisGrid:
    PARTS = ("real", "imag")
    TIMES = [0.0, 0.35, 0.9, 1.6]

    @staticmethod
    def _hamiltonian_with_y(rng, n):
        """Random real-weighted Pauli sum with a Y term, so H is complex."""
        terms = [(float(rng.normal()), random_pauli(rng, n)) for _ in range(3 * n)]
        terms.append((0.7, PauliString(("Y",) + ("I",) * (n - 1))))
        return Hamiltonian(n, tuple(terms))

    @pytest.mark.parametrize("reversal", ["direct", "ising", "clock"])
    def test_matches_oracle_and_single_points(self, monkeypatch, reversal):
        # A pure state on a grid of one spectrum runs in H's eigenbasis:
        # one phase-scaled product per B(t) application.  Its values agree
        # with the dense oracle and with one-point calls (vector route), for
        # a complex H and for the Ising chain, whose real V, B~ and A~ are
        # multiplied in real arithmetic.
        phase_maps = counting_patch(monkeypatch, protocols_mod, "_phase_action")
        rng = np.random.default_rng([94, len(reversal)])
        for n in range(3, 6):
            if reversal == "direct":
                grid = _grid_propagators(random_hermitian(rng, 2**n), self.TIMES)
                counts = (2, 4)
            elif reversal == "ising":
                grid = _grid_propagators(build_mixed_field_ising(n), self.TIMES)
                assert np.isrealobj(grid[0].evecs)
                counts = (2, 4)
            else:
                ham = self._hamiltonian_with_y(rng, n)
                grid = [time_reversed_evolution(ham, t).system for t in self.TIMES]
                counts = (4,)
            psi = random_pure_state(rng, n)
            rho = psi.density().matrix
            a, b = random_pauli(rng, n), random_pauli(rng, n)
            for count in counts:
                phis = [float(rng.uniform(0.2, PI / 2)) for _ in range(count)]
                before = len(phase_maps)
                rows = protocols_mod._heisenberg_protocol(
                    psi, a, b, count, grid, self.PARTS, phis
                )
                assert len(phase_maps) - before == len(self.TIMES)
                for u, (re_est, im_est) in zip(grid, rows):
                    if count == 2:
                        ref = oracle_toc(rho, a.matrix(), b.matrix(), u.matrix)
                        got = complex(re_est.value, im_est.value)
                        single = [toc(psi, a, b, u, p, phis).value for p in self.PARTS]
                    else:
                        ref = oracle_otoc(rho, a.matrix(), b.matrix(), u.matrix)
                        got = complex(
                            otoc_value("real", re_est.value),
                            otoc_value("imag", im_est.value),
                        )
                        single = [
                            otoc(psi, a, b, u, part=p, phis=phis).value for p in self.PARTS
                        ]
                    assert abs(got - ref) <= 1e-12
                    assert abs(re_est.value - single[0]) <= 1e-12
                    assert abs(im_est.value - single[1]) <= 1e-12

    @pytest.mark.parametrize("count", [2, 4])
    def test_non_unitary_eigenbasis_fails_before_any_value(self, monkeypatch, count):
        per_point = [
            counting_patch(monkeypatch, protocols_mod, name)
            for name in ("_heisenberg_action", "_phase_action", "_transfer_values")
        ]
        evals, evecs = build_mixed_field_ising(3).spectrum
        scaled = 1.001 * evecs
        bad = [Propagator(evals, scaled, t) for t in self.TIMES]
        psi = PureState.from_label("010")
        a, b = PauliString.from_text("+ZII"), PauliString.from_text("+IIX")
        with pytest.raises(NumericalInvariantError, match="eigenbasis"):
            protocols_mod._heisenberg_protocol(
                psi, a, b, count, bad, self.PARTS, [0.6] * count
            )
        assert all(calls == [] for calls in per_point)

    def test_pure_grids_need_more_points_on_larger_registers(self, monkeypatch):
        # A pure point saves O(dim^2) work against the frame's O(dim^3):
        # a grid needs _FRAME_MIN_POINTS points per _PURE_FRAME_DIM basis
        # states before it runs in H's eigenbasis.  A density matrix needs
        # _FRAME_MIN_POINTS at every size.
        phase_maps = counting_patch(monkeypatch, protocols_mod, "_phase_action")
        phase_scalings = counting_patch(monkeypatch, protocols_mod, "heisenberg_phases")
        n = 7
        per_dim = 2**n // protocols_mod._PURE_FRAME_DIM
        assert per_dim == 2
        ham = build_mixed_field_ising(n)
        a = PauliString.from_text("+Z" + "I" * (n - 1))
        b = PauliString.from_text("+" + "I" * (n - 1) + "X")
        psi = PureState.from_label("0" * n)
        rho = DensityMatrix.maximally_mixed(n)
        needed = protocols_mod._FRAME_MIN_POINTS * per_dim
        for initial, calls, points, framed in (
            (psi, phase_maps, needed - 1, False),
            (psi, phase_maps, needed, True),
            (rho, phase_scalings, protocols_mod._FRAME_MIN_POINTS, True),
        ):
            grid = _grid_propagators(ham, [0.2 * (k + 1) for k in range(points)])
            calls.clear()
            rows = protocols_mod._heisenberg_protocol(
                initial, a, b, 2, grid, self.PARTS, [0.6] * 2
            )
            assert len(rows) == points
            assert len(calls) == (points if framed else 0)

    def test_b_of_t_square_is_checked_at_every_point(self, monkeypatch):
        # A phase map that is off by 1e-9 breaks B~(t)^2 psi~ = psi~.
        original = protocols_mod._phase_action

        def skewed(u):
            apply = original(u)
            return lambda y, adjoint=False: (1 + 1e-9) * apply(y, adjoint)

        monkeypatch.setattr(protocols_mod, "_phase_action", skewed)
        grid = _grid_propagators(build_mixed_field_ising(3), self.TIMES)
        psi = PureState.from_label("010")
        a, b = PauliString.from_text("+ZII"), PauliString.from_text("+IIX")
        with pytest.raises(NumericalInvariantError, match="square"):
            protocols_mod._heisenberg_protocol(psi, a, b, 2, grid, self.PARTS, [0.6] * 2)


def four_term_reference(x, b, w):
    """w0 X + w1 XB + w2 BX + w3 BXB by dense products."""
    return w[0] * x + w[1] * (x @ b) + w[2] * (b @ x) + w[3] * (b @ x @ b)


class TestDenseMaps:
    def test_one_product_per_xb_bx_pair(self, monkeypatch):
        # Every X the engine maps is Hermitian, so XB = (BX)^dag and BXB =
        # B (BX)^dag: B acts by ``left`` alone, once for the XB, BX pair and
        # once more for a BXB term.
        rng = np.random.default_rng(95)
        for n in range(1, 5):
            b = random_involution(rng, n)
            for kind in ("informative", "noninformative"):
                spec = MeasurementSpec(b, float(rng.uniform(0.2, PI / 2)), kind)
                m = protocols_mod._measurement(spec, n, range(n))
                lefts = counting_patch(monkeypatch, m, "left")
                x = random_density(rng, n).matrix
                weights = [
                    *m.weights,
                    *map(protocols_mod._adjoint, m.weights),
                    m.transfer_weights,
                ]
                got = m.maps(x, weights)
                assert len(lefts) == 2 and lefts[0][0] is x and lefts[1][0] is not x
                for w, g in zip(weights, got):
                    ref = four_term_reference(x, b, w)
                    assert float(np.max(np.abs(g - ref))) <= 1e-14
                lefts.clear()
                m.maps(x, [(w[0], w[1], w[2], 0.0) for w in weights])
                assert len(lefts) == 1 and lefts[0][0] is x
                lefts.clear()
                m.maps(x, [(0.5, 0.0, 0.0, 0.0)])
                assert lefts == []
        with pytest.raises(NumericalInvariantError, match="Hermitian"):
            m.maps(x, [(0.5, 0.1j, 0.1j, 0.2)])

    def test_real_observable_stays_real(self):
        # A real B (such as A~ for the Ising chain) is checked and squared
        # in real arithmetic; its measurement keeps B real and maps complex
        # states, effects and factor blocks to the complex reference.
        rng = np.random.default_rng(96)
        for n in range(1, 5):
            q = np.linalg.qr(rng.normal(size=(2**n, 2**n)))[0]
            b = (q * rng.choice([-1.0, 1.0], size=2**n)) @ q.T
            spec = MeasurementSpec(b, float(rng.uniform(0.2, PI / 2)), "informative")
            assert spec.observable.dtype == np.float64
            assert spec._square.dtype == np.float64
            m = protocols_mod._measurement(spec, n, range(n))
            b_dense, b_sq = m.dense
            assert b_dense.dtype == np.float64 and b_dense.flags.c_contiguous
            assert b_sq.dtype == np.float64
            x = random_density(rng, n).matrix
            weights = [*m.weights, m.transfer_weights]
            for w, g in zip(weights, m.maps(x, weights)):
                ref = four_term_reference(x, b, w)
                assert float(np.max(np.abs(g - ref))) <= 1e-14
            block = rng.normal(size=(2**n, 3)) + 1j * rng.normal(size=(2**n, 3))
            assert float(np.max(np.abs(m.left(block) - b @ block))) <= 1e-14


class TestUnifiedMeasurement:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_three_ways_to_act_agree(self, n):
        # A Pauli string acts through its signed rows, as a dense matrix or
        # through a bare left action; each gives the four-term map, its
        # effect and its factor-pair forms.
        rng = np.random.default_rng(97 + n)
        dim = 2**n
        for kind in ("informative", "noninformative"):
            p = random_pauli(rng, n)
            phi = float(rng.uniform(0.2, PI / 2))
            spec = MeasurementSpec(p, phi, kind)
            pm = p.matrix()
            ways = {
                "signed rows": protocols_mod._Measurement(
                    spec, protocols_mod._signed_rows(*p.action(n))
                ),
                "dense": protocols_mod._measurement(MeasurementSpec(pm, phi, kind), n, range(n)),
                "left": protocols_mod._Measurement(
                    spec, lambda y, out=None: np.matmul(pm, y, out=out)
                ),
            }
            x = random_hermitian(rng, dim)
            l, r = (rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2)) for _ in "lr")
            for name, m in ways.items():
                weights = [
                    *m.weights,
                    *map(protocols_mod._adjoint, m.weights),
                    m.transfer_weights,
                ]
                for w, g in zip(weights, m.maps(x, weights)):
                    assert np.max(np.abs(g - four_term_reference(x, pm, w))) <= 1e-14, name
                for w in weights:
                    ref = four_term_reference(np.eye(dim), pm, protocols_mod._adjoint(w))
                    effect = m.effect(w, protocols_mod._Workspace(dim))
                    assert np.max(np.abs(effect - ref)) <= 1e-14, name
                ref = four_term_reference(l @ r.conj().T, pm, m.transfer_weights)
                tl, tr = m.transfer_factors((l, r))
                assert np.max(np.abs(tl @ tr.conj().T - ref)) <= 1e-14, name
                assert abs(m.factor_trace((l, r)) - np.trace(ref)) <= 1e-14, name
            # B^2 = 1 without ``dense``: the effect reads P as P 1, exactly.
            rows = ways["signed rows"]
            assert np.array_equal(rows.left(np.identity(dim, dtype=complex)), pm)
            assert rows.dense is None and ways["dense"].dense is not None

    @pytest.mark.parametrize("n", [2, 3])
    def test_raw_observable_embeds_off_the_whole_register(self, monkeypatch, n):
        # A raw observable is embedded only when its targets are not the
        # whole register in slot order: the default targets and range(n)
        # give the same measurement bit for bit, with no embed, while a
        # reversed register and a strict subset act as the embedded matrix.
        rng = np.random.default_rng(110 + n)
        dim = 2**n
        x = random_hermitian(rng, dim)
        l, r = (rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2)) for _ in "lr")
        rho, later = random_density(rng, n), meas(random_pauli(rng, n), 0.8)

        def forms(m):
            weights = [*m.weights, m.transfer_weights]
            effects = [m.effect(w, protocols_mod._Workspace(dim)) for w in weights]
            return (*m.maps(x, weights), *effects, m.factor_trace((l, r)))

        def check_estimate(step):
            for initial in (rho, random_pure_state(rng, n)):
                steps = [step, later]
                ref = dense_reference_transfer(
                    initial.density() if isinstance(initial, PureState) else initial, steps
                )
                assert abs(nested_estimate(initial, steps).value - ref.real) <= 1e-12

        b = random_involution(rng, n)
        spec = MeasurementSpec(b, 0.7, "noninformative")
        embeds = counting_patch(monkeypatch, protocols_mod, "embed")
        whole = []
        for targets in (None, tuple(range(n))):
            (m,) = protocols_mod._resolve_steps(rho, [MeasureStep(spec, targets)])
            whole.append(forms(m))
            check_estimate(MeasureStep(spec, targets))
        assert embeds == []
        for got, ref in zip(*whole):
            assert np.array_equal(got, ref)

        reversed_targets = tuple(range(n))[::-1]
        k = n - 1
        sub = MeasurementSpec(random_involution(rng, k), 1.1, "informative")
        subset = tuple(int(q) for q in rng.permutation(n)[:k])
        for step in (MeasureStep(spec, reversed_targets), MeasureStep(sub, subset)):
            b_full = embed(step.spec.observable, n, step.targets)
            assert not np.allclose(b_full, b)
            embeds.clear()
            (m,) = protocols_mod._resolve_steps(rho, [step])
            assert len(embeds) == 2  # B and B^2
            weights = [*m.weights, m.transfer_weights]
            for w, g in zip(weights, m.maps(x, weights)):
                assert np.max(np.abs(g - four_term_reference(x, b_full, w))) <= 1e-14
            for w in weights:
                ref = four_term_reference(np.eye(dim), b_full, protocols_mod._adjoint(w))
                assert np.max(np.abs(m.effect(w, protocols_mod._Workspace(dim)) - ref)) <= 1e-14
            ref = four_term_reference(l @ r.conj().T, b_full, m.transfer_weights)
            assert abs(m.factor_trace((l, r)) - np.trace(ref)) <= 1e-13
            check_estimate(step)


def dense_completeness_residual(spec):
    """max |sum_a K_a^dag K_a - 1| of the dense Kraus pair of ``spec``,
    formed as :func:`kraus_pair` forms and checks it."""
    a = spec.matrix()
    eye = np.eye(len(a))
    ks = [np.asarray(c0 * eye + c1 * a, dtype=complex) for c0, c1 in kraus_coefficients(spec)]
    return identity_deviation(sum(k.conj().T @ k for k in ks))


class TestCompletenessBound:
    """Every measurement checks completeness by one scalar bound
    (``protocols._check_completeness``) from the deviation its observable's
    square was checked with."""

    EPSILONS = (0.0, 1e-14, 1e-12, 2e-11, 5e-11)

    def completeness_cases(self, rng):
        """Raw observables V^dag D V with D = diag(+-(1 + e_j)), whose
        squares miss 1 by up to eps, with the register and targets they
        are measured on (some embedded on a sub-register), both kinds and
        phi log-uniform in [1e-4, pi/2]."""
        for _, k, real in itertools.product(range(12), (1, 2, 3), (True, False)):
            dim = 2**k
            v = np.linalg.qr(rng.normal(size=(dim, dim)))[0] if real else random_unitary(rng, dim)
            n, targets = k, tuple(range(k))
            if real and k < 3:
                n = k + 1
                targets = tuple(int(q) for q in rng.permutation(n)[:k])
            signs = np.repeat([-1.0, 1.0], dim // 2)
            for epsilon in self.EPSILONS:
                if rng.integers(2):
                    off = np.full(dim, epsilon / 2)
                else:
                    off = epsilon / 2 * rng.integers(0, 2, dim)
                b = v.conj().T @ np.diag(signs * (1 + off)) @ v
                b = (b + b.conj().T) / 2
                for kind in ("informative", "noninformative"):
                    phi = math.exp(rng.uniform(math.log(1e-4), math.log(PI / 2)))
                    yield MeasurementSpec(b, phi, kind), n, targets

    def test_bound_covers_the_dense_residual(self):
        # Each case is measured through the engine's constructor and
        # compared with the residual of its dense Kraus pair, which rounds
        # too, within dim * 2^-52 of the exact one.
        rng = np.random.default_rng(131)
        eps = np.finfo(float).eps
        rejected = accepted_off_square = 0
        crosses = []
        for spec, n, targets in self.completeness_cases(rng):
            residual = dense_completeness_residual(spec)
            if residual <= 1e-12:
                kraus_pair(spec)
            else:
                with pytest.raises(ValueError, match="completeness"):
                    kraus_pair(spec)
            try:
                m = protocols_mod._measurement(spec, n, targets)
            except NumericalInvariantError as err:
                bound = float(str(err).rsplit(" ", 1)[1])
                assert bound > 1e-12
                rejected += 1
            else:
                bound = protocols_mod._check_completeness(m.weights, spec._square_dev)
                assert bound <= 1e-12
                accepted_off_square += spec._square_dev > 1e-12
                if spec.kind == "noninformative":
                    crosses.append(abs(sum(w[1] + w[2] for w in m.weights)))
            assert residual <= bound + 2**n * eps
            assert residual <= 1e-12 or bound > 1e-12
        assert rejected > 0 and accepted_off_square > 0
        # The x B term is 0 in exact arithmetic, but not in floating point.
        assert max(crosses) > 0.0


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

    def test_underflow_raises(self):
        # sin^2(1e-300) underflows to 0: the bound is not finite as a float.
        with pytest.raises(NumericalInvariantError, match="underflows"):
            rms_bound([1e-300], [10])
        assert rms_bound([1e-150], [10]) == pytest.approx(1e150 / math.sqrt(10))


class TestSampling:
    def test_projective_eigenstate_has_zero_stderr(self):
        rho = DensityMatrix.from_label("1")
        est = sample_protocol(rho, [meas(PauliString(("Z",)), PI / 2)], 200, seed=1)
        assert est.value == pytest.approx(1.0)
        assert est.empirical_stderr == 0.0
        assert est.trials == (200,)

    def test_one_trial_has_zero_stderr(self):
        rng = np.random.default_rng(12)
        rho = random_density(rng, 1)
        steps = [meas(PauliString(("X",)), 0.7), meas(PauliString(("Z",)), 1.0)]
        est = sample_protocol(rho, steps, 1, seed=3)
        assert est.empirical_stderr == 0.0 and est.trials == (1, 1)
        assert abs(est.value) == pytest.approx(1 / (math.sin(0.7) * math.sin(1.0)))

    @pytest.mark.parametrize("phis", [[1e-160, 1.0, 1.0, 1.0], [1e-80] * 4])
    def test_weight_too_large_for_the_variance(self, phis):
        rho = DensityMatrix.maximally_mixed(2)
        steps = [meas(PauliString(("Z", "I")), p) for p in phis]
        with pytest.raises(NumericalInvariantError, match="finite variance"):
            sample_protocol(rho, steps, 10, seed=0)

    @pytest.mark.parametrize("trials", [2**53 + 1, 10**30])
    def test_trial_count_past_2_to_53_fails_before_drawing(self, trials):
        rho = DensityMatrix.maximally_mixed(1)
        steps = [meas(PauliString(("Z",)), PI / 2)]
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape("trials must lie in [1, 2**53]")):
                sample_protocol(rho, steps, trials, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_blocks_equal_the_one_shot_draw(self, monkeypatch):
        # The trials are drawn in blocks of rows from one generator: a run
        # of several blocks draws the outcome strings of the one-shot draw
        # of trial_uniforms, and any block size gives the same estimate.
        rng = np.random.default_rng(14)
        rho = random_density(rng, 2)
        steps = [meas(random_pauli(rng, 2), 0.9, "noninformative"),
                 meas(random_pauli(rng, 2), 1.2)]
        records = sequence_distribution(rho, steps)
        tree = [np.array([r.probability for r in records])]
        for _ in steps:
            tree.insert(0, tree[0].reshape(-1, 2).sum(axis=1))
        trials, seed = 2 * protocols_mod._TRIAL_BLOCK + 123, 9
        uniforms = protocols_mod.trial_uniforms(seed, trials, len(steps))
        leaf = np.zeros(trials, dtype=np.intp)
        for j in range(len(steps)):
            leaf = 2 * leaf + (uniforms[:, j] < tree[j + 1][2 * leaf + 1] / tree[j][leaf])
        products = [records[k].weight for k in leaf.tolist()]
        mean = math.fsum(products) / trials
        var = math.fsum((w - mean) ** 2 for w in products) / (trials - 1)
        est = sample_protocol(rho, steps, trials, seed)
        assert est.value == mean
        assert est.empirical_stderr == math.sqrt(var / trials)
        one_block = sample_protocol(rho, steps, 1000, seed)
        for block in (7, 4096):
            monkeypatch.setattr(protocols_mod, "_TRIAL_BLOCK", block)
            assert sample_protocol(rho, steps, 1000, seed) == one_block

    def test_memory_does_not_grow_with_the_trials(self):
        # Four million trials of a two-step TOC draw their uniforms block by
        # block, so the peak stays far below the 61 MiB of a one-shot draw.
        rho = DensityMatrix.maximally_mixed(2)
        a, b = PauliString(("Z", "I")), PauliString(("I", "X"))
        u = propagator(build_mixed_field_ising(2), 0.7)
        toc(rho, a, b, u, phis=(0.9, 0.7), mode="sampled", trials=100, seed=0)
        tracemalloc.start()
        try:
            est = toc(rho, a, b, u, phis=(0.9, 0.7), mode="sampled", trials=4 * 10**6, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.trials == (4 * 10**6,) * 2
        assert peak < 16 * 2**20

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
        leaves = np.array([probs])
        monkeypatch.setattr(protocols_mod, "_leaf_probabilities", lambda *_: leaves)
        with pytest.raises(NumericalInvariantError, match="conditional"):
            sample_protocol(rho, steps, 10, seed=1)
