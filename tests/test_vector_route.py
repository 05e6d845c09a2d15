"""Exact TOC/OTOC from pure initial states carried as vector factors."""

import math

import numpy as np
import pytest
from helpers import random_hermitian, random_pauli, random_unitary

import seqmeas.dynamics as dynamics_mod
import seqmeas.protocols as protocols_mod
from seqmeas import (
    ClockPropagator,
    EvolveStep,
    MeasureStep,
    MeasurementSpec,
    NumericalInvariantError,
    Propagator,
    PureState,
    build_mixed_field_ising,
    config_from_dict,
    nested_estimate,
    oracle_otoc,
    oracle_toc,
    otoc,
    otoc_value,
    propagator,
    run_experiment,
    sample_protocol,
    sequence_distribution,
    time_reversed_evolution,
    toc,
)

PI = math.pi


def random_pure(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(n, v / np.linalg.norm(v))


def random_phis(rng, count):
    """Strength angles drawn from all of (0, pi/2]."""
    return [PI / 2 - float(rng.uniform(0.0, PI / 2)) for _ in range(count)]


def random_evolution(rng, n):
    """A propagator of the Ising chain or of a random Hermitian matrix."""
    t = float(rng.uniform(0.0, 3.0))
    if n > 1 and rng.integers(2):
        return propagator(build_mixed_field_ising(n), t)
    return propagator(random_hermitian(rng, 2**n), t)


class TestMatchesDensityRoute:
    def test_toc_and_otoc(self):
        rng = np.random.default_rng(40)
        worst = 0.0
        for n in range(1, 6):
            for _ in range(6):
                psi = random_pure(rng, n)
                a, b = random_pauli(rng, n), random_pauli(rng, n)
                u = random_evolution(rng, n)
                for part in ("real", "imag"):
                    phis2, phis4 = random_phis(rng, 2), random_phis(rng, 4)
                    vec, dense = (
                        (
                            toc(state, a, b, u, part, phis2),
                            otoc(state, a, b, u, part=part, phis=phis4),
                        )
                        for state in (psi, psi.density())
                    )
                    for v, d in zip(vec, dense):
                        assert v.mode == d.mode == "exact"
                        assert v.phis == d.phis
                        worst = max(worst, abs(v.value - d.value))
        assert worst <= 1e-12

    def test_raw_observables_and_evolve_steps(self):
        # factor pairs through EvolveSteps, dense measurements on blocks
        # and sub-register targets, against the density route
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            psi = random_pure(rng, n)
            steps = []
            for j in range(int(rng.integers(1, 5))):
                if j and rng.integers(2):
                    steps.append(EvolveStep(random_unitary(rng, 2**n)))
                k = int(rng.integers(1, n + 1))
                targets = tuple(int(q) for q in rng.permutation(n)[:k])
                if rng.integers(2):
                    v = random_unitary(rng, 2**k)
                    obs = v.conj().T @ random_pauli(rng, k).matrix() @ v
                else:
                    obs = random_pauli(rng, k)
                kind = ("informative", "noninformative")[int(rng.integers(2))]
                spec = MeasurementSpec(obs, random_phis(rng, 1)[0], kind)
                steps.append(MeasureStep(spec, targets))
            if rng.integers(2):
                steps.append(EvolveStep(random_unitary(rng, 2**n)))
            vec = nested_estimate(psi, steps).value
            assert abs(vec - nested_estimate(psi.density(), steps).value) <= 1e-12

    def test_raw_b_observable(self):
        rng = np.random.default_rng(42)
        n = 3
        v = random_unitary(rng, 8)
        b = v.conj().T @ random_pauli(rng, n).matrix() @ v
        psi, a, u = random_pure(rng, n), random_pauli(rng, n), random_evolution(rng, n)
        for part in ("real", "imag"):
            vec = otoc(psi, a, b, u, part=part, phis=random_phis(rng, 4))
            dense = otoc(psi.density(), a, b, u, part=part, phis=vec.phis)
            assert abs(vec.value - dense.value) <= 1e-12


class TestMatchesOracle:
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_toc_and_otoc(self, n):
        rng = np.random.default_rng(50 + n)
        ham = build_mixed_field_ising(n)
        for _ in range(2):
            psi = random_pure(rng, n)
            a, b = random_pauli(rng, n), random_pauli(rng, n)
            u = propagator(ham, float(rng.uniform(0.0, 3.0)))
            rho = psi.density().matrix
            ref_toc = oracle_toc(rho, a.matrix(), b.matrix(), u.matrix)
            ref_otoc = oracle_otoc(rho, a.matrix(), b.matrix(), u.matrix)
            for part, pick in (("real", np.real), ("imag", np.imag)):
                value = toc(psi, a, b, u, part, random_phis(rng, 2)).value
                assert abs(value - pick(ref_toc)) <= 1e-12
                average = otoc(psi, a, b, u, part=part, phis=random_phis(rng, 4)).value
                assert abs(otoc_value(part, average) - pick(ref_otoc)) <= 1e-12


class TestOtherRoutesUnchanged:
    """Every input but an exact pure state with a Propagator takes the
    density route, bit for bit."""

    def test_sampled_mode(self):
        rng = np.random.default_rng(60)
        psi = random_pure(rng, 3)
        a, b = random_pauli(rng, 3), random_pauli(rng, 3)
        u = propagator(build_mixed_field_ising(3), 1.3)
        kw = dict(mode="sampled", trials=500, seed=7)
        for part in ("real", "imag"):
            assert toc(psi, a, b, u, part, (0.7, 1.1), **kw) == toc(
                psi.density(), a, b, u, part, (0.7, 1.1), **kw
            )
            phis = (0.5, 0.9, 1.2, PI / 2)
            assert otoc(psi, a, b, u, part=part, phis=phis, **kw) == otoc(
                psi.density(), a, b, u, part=part, phis=phis, **kw
            )

    def test_density_is_built_once(self):
        psi = random_pure(np.random.default_rng(62), 3)
        rho = psi.density()
        assert psi.density() is rho
        assert not rho.matrix.flags.writeable

    def test_clock_route_and_raw_evolution(self):
        rng = np.random.default_rng(61)
        psi = random_pure(rng, 2)
        a, b = random_pauli(rng, 2), random_pauli(rng, 2)
        ham = build_mixed_field_ising(2)
        clock = time_reversed_evolution(ham, 0.9)
        raw = propagator(ham, 0.9).matrix
        phis = random_phis(rng, 4)
        for part in ("real", "imag"):
            for initial in (psi, psi.density()):
                assert otoc(initial, a, b, clock=clock, part=part, phis=phis) == otoc(
                    initial, a, b, clock.system, part=part, phis=phis
                )
            assert otoc(psi, a, b, raw, part=part, phis=phis) == otoc(
                psi.density(), a, b, raw, part=part, phis=phis
            )
            assert toc(psi, a, b, raw, part, phis[:2]) == toc(
                psi.density(), a, b, raw, part, phis[:2]
            )

    def test_distribution_and_sampling_take_a_pure_state(self):
        rng = np.random.default_rng(65)
        psi = random_pure(rng, 3)
        v = random_unitary(rng, 4)
        raw = v.conj().T @ random_pauli(rng, 2).matrix() @ v
        steps = [
            MeasureStep(MeasurementSpec(random_pauli(rng, 3), 0.7, "noninformative")),
            EvolveStep(propagator(build_mixed_field_ising(3), 0.4).matrix),
            MeasureStep(MeasurementSpec(raw, 1.1, "informative"), (2, 0)),
            MeasureStep(MeasurementSpec(random_pauli(rng, 1), 0.9, "informative"), (1,)),
        ]
        assert sequence_distribution(psi, steps) == sequence_distribution(
            psi.density(), steps
        )
        assert sample_protocol(psi, steps, 400, 3) == sample_protocol(
            psi.density(), steps, 400, 3
        )
        kw = dict(mode="sampled", trials=400, seed=3)
        assert nested_estimate(psi, steps, **kw) == nested_estimate(
            psi.density(), steps, **kw
        )


class TestChecks:
    @pytest.mark.parametrize("protocol", ["toc", "otoc"])
    def test_label_run_forms_no_propagator_matrix(self, monkeypatch, protocol):
        # Two points take the vector route, three H's eigenbasis; neither
        # forms U.  The spectrum checks V unitary, and the eigenbasis route
        # checks it once more for its grid.
        def forbidden(self):
            raise AssertionError("propagator matrix formed")

        calls = []
        original = dynamics_mod.is_unitary

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(Propagator, "matrix", property(forbidden))
        monkeypatch.setattr(dynamics_mod, "is_unitary", counting)
        monkeypatch.setattr(protocols_mod, "is_unitary", counting)
        for times, checks in (([0.0, 0.5], 1), ([0.0, 0.5, 1.0], 2)):
            cfg = config_from_dict(
                {
                    "system_size": 4,
                    "observable_a": "+ZIII",
                    "observable_b": "+IIXZ",
                    "times": times,
                    "protocol": protocol,
                    "initial_state": "0110",
                }
            )
            calls.clear()
            rows = run_experiment(cfg)
            assert len(rows) == len(times)
            assert len(calls) == checks

    def test_label_clock_otoc_takes_the_vector_route(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("dense route taken")

        rng = np.random.default_rng(66)
        clock = time_reversed_evolution(build_mixed_field_ising(3), 0.8)
        psi = PureState.from_label("010")
        a, b = random_pauli(rng, 3), random_pauli(rng, 3)
        monkeypatch.setattr(protocols_mod, "heisenberg", forbidden)
        monkeypatch.setattr(protocols_mod, "_evolution_matrix", forbidden)
        monkeypatch.setattr(ClockPropagator, "matrix", property(forbidden))
        monkeypatch.setattr(Propagator, "matrix", property(forbidden))
        for part in ("real", "imag"):
            assert otoc(psi, a, b, clock=clock, part=part) == otoc(
                psi, a, b, clock.system, part=part
            )

    def test_non_unitary_eigenbasis_is_rejected(self, monkeypatch):
        original = np.linalg.eigh

        def skewed(m):
            evals, evecs = original(m)
            return evals, evecs * (1 + 1e-9)

        monkeypatch.setattr(dynamics_mod.np.linalg, "eigh", skewed)
        with pytest.raises(NumericalInvariantError, match="eigenbasis"):
            build_mixed_field_ising(3).spectrum
        with pytest.raises(NumericalInvariantError, match="eigenbasis"):
            propagator(random_hermitian(np.random.default_rng(62), 4), 0.5)

    def test_corrupted_b_of_t_is_rejected(self):
        rng = np.random.default_rng(63)
        evals, evecs = build_mixed_field_ising(3).spectrum
        psi = random_pure(rng, 3)
        a, b = random_pauli(rng, 3), random_pauli(rng, 3)
        good = Propagator(evals, evecs, 0.8)
        toc(psi, a, b, good)
        otoc(psi, a, b, good)
        bad = Propagator(evals, evecs * (1 + 1e-9), 0.8)
        with pytest.raises(NumericalInvariantError, match="square"):
            toc(psi, a, b, bad)
        with pytest.raises(NumericalInvariantError, match="square"):
            otoc(psi, a, b, bad)

    def test_shape_mismatch(self):
        psi = PureState.from_label("00")
        z = random_pauli(np.random.default_rng(64), 2)
        with pytest.raises(ValueError, match="shape"):
            toc(psi, z, z, propagator(np.eye(8), 0.3))
