"""Kraus pairs, generalized eigenvalues, detector algebra, state updates."""

import math

import numpy as np
import pytest
from helpers import max_abs, random_density, random_hermitian, random_pauli
from scipy.linalg import expm

from seqmeas import (
    DensityMatrix,
    DivergentModularValueError,
    KrausPair,
    MeasurementSpec,
    PauliString,
    PureState,
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
from seqmeas.measurement import DetectorConfig
from seqmeas.observables import PAULI_Y, PAULI_Z, basis_ket

SQRT2 = math.sqrt(2)


def spec(p, phi, kind):
    return MeasurementSpec(p, phi, kind)


class TestInformativeKraus:
    def test_projective_limit_is_signed_projectors(self):
        pair = informative_kraus(spec(PauliString(("Z",)), math.pi / 2, "informative"))
        proj_plus = (np.eye(2) + PAULI_Z) / 2
        proj_minus = (np.eye(2) - PAULI_Z) / 2
        np.testing.assert_allclose(pair[1], proj_plus, atol=1e-12)
        np.testing.assert_allclose(pair[0], -proj_minus, atol=1e-12)
        assert generalized_eigenvalue(math.pi / 2, 1) == pytest.approx(1.0)
        assert generalized_eigenvalue(math.pi / 2, 0) == pytest.approx(-1.0)

    def test_weak_limit_near_identity(self):
        phi = 1e-4
        p = PauliString(("X",))
        pair = informative_kraus(spec(p, phi, "informative"))
        approx1 = (np.eye(2) + (phi / 2) * p.matrix()) / SQRT2
        approx0 = -(np.eye(2) - (phi / 2) * p.matrix()) / SQRT2
        assert max_abs(pair[1] - approx1) < phi**2
        assert max_abs(pair[0] - approx0) < phi**2

    def test_completeness_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            p = random_pauli(rng, int(rng.integers(1, 4)))
            phi = float(rng.uniform(1e-3, math.pi / 2))
            pair = informative_kraus(spec(p, phi, "informative"))
            e0, e1 = pair.effects()
            assert max_abs(e0 + e1 - np.eye(e0.shape[0])) < 1e-12

    def test_kind_mismatch(self):
        with pytest.raises(ValueError, match="informative"):
            informative_kraus(spec(PauliString(("Z",)), 0.5, "noninformative"))


class TestKrausCoefficients:
    def test_pairs_match_closed_forms(self):
        # M_a = s_a/sqrt2 (cos 1 + s_a sin A), N_a = e^(s_a i pi/4)/sqrt2
        # (cos 1 - s_a i sin A), with s_a = (-1)^(1+a) and half angles
        rng = np.random.default_rng(5)
        for _ in range(40):
            p = random_pauli(rng, int(rng.integers(1, 4)))
            phi = float(rng.uniform(1e-3, math.pi / 2))
            a = p.matrix()
            eye = np.eye(a.shape[0])
            c, s = math.cos(phi / 2), math.sin(phi / 2)
            m = informative_kraus(spec(p, phi, "informative"))
            n = noninformative_kraus(spec(p, phi, "noninformative"))
            for out, sgn in ((0, -1), (1, 1)):
                closed_m = sgn / SQRT2 * (c * eye + sgn * s * a)
                phase = np.exp(sgn * 1j * math.pi / 4)
                closed_n = phase / SQRT2 * (c * eye - sgn * 1j * s * a)
                assert max_abs(m[out] - closed_m) <= 1e-15
                assert max_abs(n[out] - closed_n) <= 1e-15

    def test_coefficients_are_complete(self):
        for kind in ("informative", "noninformative"):
            coeffs = kraus_coefficients(spec(PauliString(("Y",)), 0.8, kind))
            assert math.fsum(abs(c0) ** 2 + abs(c1) ** 2 for c0, c1 in coeffs) == (
                pytest.approx(1.0, abs=1e-15)
            )
            assert abs(sum((c0.conjugate() * c1).real for c0, c1 in coeffs)) < 1e-15


class TestNoninformativeKraus:
    def test_flat_outcome_probabilities(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 3))
            p = random_pauli(rng, n)
            phi = float(rng.uniform(1e-3, math.pi / 2))
            pair = noninformative_kraus(spec(p, phi, "noninformative"))
            for out in (0, 1):
                effect = pair[out].conj().T @ pair[out]
                np.testing.assert_allclose(effect, np.eye(2**n) / 2, atol=1e-12)
            rho = random_density(rng, n)
            _, prob = state_update(rho, spec(p, phi, "noninformative"), 1)
            assert prob == pytest.approx(0.5, abs=1e-12)

    def test_projective_limit_is_unitary_pair(self):
        p = PauliString(("Z",))
        pair = noninformative_kraus(spec(p, math.pi / 2, "noninformative"))
        for out, sign in ((1, -1), (0, 1)):
            u = pair[out] * SQRT2  # strip the 1/sqrt(2) weight
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
            target = (np.eye(2) + sign * 1j * p.matrix()) / SQRT2
            # equal up to the retained outcome phase
            overlap = np.trace(target.conj().T @ u) / 2
            np.testing.assert_allclose(u, overlap / abs(overlap) * target, atol=1e-12)


class TestGeneralizedEigenvalues:
    def test_half_strength_values(self):
        assert generalized_eigenvalue(math.pi / 6, 1) == pytest.approx(2.0)
        assert generalized_eigenvalue(math.pi / 6, 0) == pytest.approx(-2.0)

    def test_povm_identity_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            p = random_pauli(rng, int(rng.integers(1, 4)))
            phi = float(rng.uniform(1e-2, math.pi / 2))
            pair = informative_kraus(spec(p, phi, "informative"))
            e0, e1 = pair.effects()
            total = generalized_eigenvalue(phi, 0) * e0 + generalized_eigenvalue(phi, 1) * e1
            assert max_abs(total - p.matrix()) < 1e-10

    def test_phi_range(self):
        with pytest.raises(ValueError):
            generalized_eigenvalue(0.0, 1)
        with pytest.raises(ValueError):
            generalized_eigenvalue(2.0, 1)
        with pytest.raises(ValueError):
            MeasurementSpec(PauliString(("Z",)), 0.0, "informative")

    @pytest.mark.filterwarnings("error")
    def test_phi_whose_inverse_sine_overflows(self):
        # 1/sin(phi) overflows below about 5.6e-309; 1e-300 stays legal.
        assert generalized_eigenvalue(1e-300, 1) == pytest.approx(1e300)
        for phi in (1e-310, 5e-324):
            with pytest.raises(ValueError, match="1/sin\\(phi\\) overflows"):
                generalized_eigenvalue(phi, 1)
            with pytest.raises(ValueError, match="1/sin\\(phi\\) overflows"):
                MeasurementSpec(PauliString(("Z",)), phi, "informative")


class TestDetectorAlgebra:
    def test_modular_value_at_zero_strength(self):
        det = canonical_detector("informative")
        assert modular_value(1.0, 0.0, det, det.readout_basis[1]) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_canonical_weak_values(self):
        det_z = canonical_detector("informative")
        assert weak_value(1, det_z, det_z.readout_basis[1]) == pytest.approx(1j)
        assert weak_value(1, det_z, det_z.readout_basis[0]) == pytest.approx(-1j)
        det_y = canonical_detector("noninformative")
        assert weak_value(1, det_y, det_y.readout_basis[1]) == pytest.approx(1.0)
        assert weak_value(1, det_y, det_y.readout_basis[0]) == pytest.approx(-1.0)
        assert weak_value(0, det_y, det_y.readout_basis[0]) == pytest.approx(1.0)

    def test_canonical_modular_value_closed_form(self):
        # qubit detector with D^2 = 1: m = cos(phi lam/2) - i sin(phi lam/2) D_w
        det = canonical_detector("informative")
        for out in (0, 1):
            state = det.readout_basis[out]
            dw = weak_value(1, det, state)
            for lam in (-1.0, 1.0):
                phi = 0.73
                m = modular_value(lam, phi, det, state)
                closed = math.cos(phi * lam / 2) - 1j * math.sin(phi * lam / 2) * dw
                assert m == pytest.approx(closed, abs=1e-13)

    def test_modular_value_general_detector(self):
        # random Hermitian D (not necessarily D^2 = 1) against direct expm
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = random_hermitian(rng, 2)
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = psi / np.linalg.norm(psi)
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            a = a / np.linalg.norm(a)
            a_perp = np.array([-np.conj(a[1]), np.conj(a[0])])
            det = DetectorConfig(
                PureState(1, psi),
                d,
                (PureState(1, a), PureState(1, a_perp)),
            )
            lam, phi = float(rng.uniform(-1, 1)), float(rng.uniform(0, math.pi / 2))
            direct = (a.conj() @ expm(-1j * phi * lam / 2 * d) @ psi) / (a.conj() @ psi)
            assert modular_value(lam, phi, det, PureState(1, a)) == pytest.approx(
                complex(direct), abs=1e-12
            )

    def test_divergence_carries_numerator(self):
        det = DetectorConfig(
            PureState(1, basis_ket("z-")),
            PAULI_Y,
            (PureState(1, basis_ket("z-")), PureState(1, basis_ket("z+"))),
        )
        with pytest.raises(DivergentModularValueError) as err:
            modular_value(1.0, 1.0, det, PureState(1, basis_ket("z+")))
        assert err.value.numerator != 0

    def test_perturbative_series_converges(self):
        det = canonical_detector("noninformative")
        state = det.readout_basis[1]
        for lam in (-1.0, 1.0):
            phi = math.pi / 2
            partial = sum(
                (-1j * phi * lam / 2) ** n / math.factorial(n) * weak_value(n, det, state)
                for n in range(31)
            )
            assert abs(partial - modular_value(lam, phi, det, state)) < 1e-10

    def test_kraus_linear_in_observable(self):
        # detector-built pair equals <a|psi>[cos(phi/2) 1 - i sin(phi/2) D_w A]
        rng = np.random.default_rng(4)
        for kind in ("informative", "noninformative"):
            det = canonical_detector(kind)
            p = random_pauli(rng, 2)
            phi = float(rng.uniform(0.1, math.pi / 2))
            pair = kraus_from_detector(p, phi, det)
            for out in (0, 1):
                state = det.readout_basis[out]
                overlap = complex(state.amplitudes.conj() @ det.initial_state.amplitudes)
                dw = weak_value(1, det, state)
                closed = overlap * (
                    math.cos(phi / 2) * np.eye(4)
                    - 1j * math.sin(phi / 2) * dw * p.matrix()
                )
                assert max_abs(pair[out] - closed) < 1e-12

    def test_detector_pair_equals_analytic(self):
        rng = np.random.default_rng(5)
        p = random_pauli(rng, 2)
        phi = 0.9
        for kind, factory in (
            ("informative", informative_kraus),
            ("noninformative", noninformative_kraus),
        ):
            built = kraus_from_detector(p, phi, canonical_detector(kind))
            analytic = factory(spec(p, phi, kind))
            for out in (0, 1):
                assert max_abs(built[out] - analytic[out]) < 1e-12


class TestCalibration:
    def test_projective_case(self):
        pair = informative_kraus(spec(PauliString(("Z",)), math.pi / 2, "informative"))
        result = calibrate_generalized_eigenvalues(pair, [-1.0, 1.0])
        assert result.alphas == pytest.approx((-1.0, 1.0), abs=1e-12)
        assert result.residual < 1e-12

    def test_quarter_turn(self):
        pair = informative_kraus(spec(PauliString(("Z",)), math.pi / 4, "informative"))
        result = calibrate_generalized_eigenvalues(pair, [-1.0, 1.0])
        expected = 1.0 / math.sin(math.pi / 4)  # sqrt(2), by pseudoinverse of C
        assert result.alphas == pytest.approx((-expected, expected), abs=1e-10)
        assert result.residual < 1e-10

    def test_multiqubit_matches_formula(self):
        rng = np.random.default_rng(6)
        p = random_pauli(rng, 3)
        phi = 0.37
        pair = informative_kraus(spec(p, phi, "informative"))
        result = calibrate_generalized_eigenvalues(pair, [-1.0, 1.0])
        assert result.alphas == pytest.approx(
            (-1 / math.sin(phi), 1 / math.sin(phi)), abs=1e-10
        )

    def test_noninformative_is_uncalibratable(self):
        pair = noninformative_kraus(spec(PauliString(("Z",)), 0.8, "noninformative"))
        result = calibrate_generalized_eigenvalues(pair, [-1.0, 1.0])
        # C has constant columns (1/2, 1/2): inconsistent system, residual reported
        assert result.residual == pytest.approx(math.sqrt(2), abs=1e-12)


class TestStateUpdate:
    def test_projective_on_eigenstate(self):
        rho = DensityMatrix.from_label("1")
        _, prob = state_update(rho, spec(PauliString(("Z",)), math.pi / 2, "informative"), 1)
        assert prob == pytest.approx(1.0, abs=1e-12)
        _, prob0 = state_update(rho, spec(PauliString(("Z",)), math.pi / 2, "informative"), 0)
        assert prob0 == pytest.approx(0.0, abs=1e-12)

    def test_three_term_decompositions(self):
        rng = np.random.default_rng(7)
        for kind in ("informative", "noninformative"):
            for _ in range(15):
                n = int(rng.integers(1, 3))
                p = random_pauli(rng, n)
                a = p.matrix()
                rho = random_density(rng, n)
                phi = float(rng.uniform(0.05, math.pi / 2))
                s = math.sin(phi)
                s2 = math.sin(phi / 2) ** 2
                for out in (0, 1):
                    sign = 1 if out == 1 else -1
                    updated, _ = state_update(rho, spec(p, phi, kind), out)
                    bracket = (
                        (a @ rho.matrix + rho.matrix @ a) / 2
                        if kind == "informative"
                        else (a @ rho.matrix - rho.matrix @ a) / 2j
                    )
                    expected = 0.5 * (
                        rho.matrix
                        + sign * s * bracket
                        + s2 * (a @ rho.matrix @ a - rho.matrix)
                    )
                    assert max_abs(updated - expected) < 1e-10

    def test_normalized_update_prefactor(self):
        # K rho K^dag / P - rho against the three-term form with c_{phi,a}
        rng = np.random.default_rng(8)
        for kind in ("informative", "noninformative"):
            det = canonical_detector(kind)
            for _ in range(10):
                n = int(rng.integers(1, 3))
                p = random_pauli(rng, n)
                a = p.matrix()
                rho = random_density(rng, n)
                phi = float(rng.uniform(0.1, math.pi / 2))
                mean_a = float(np.real(np.trace(a @ rho.matrix)))
                for out in (0, 1):
                    dw = weak_value(1, det, det.readout_basis[out])
                    updated, prob = state_update(rho, spec(p, phi, kind), out)
                    s = math.sin(phi)
                    c = s / (
                        1
                        + s * mean_a * dw.imag
                        + math.sin(phi / 2) ** 2 * (abs(dw) ** 2 - 1)
                    )
                    lhs = updated / prob - rho.matrix
                    rhs = (
                        c * dw.real * (a @ rho.matrix - rho.matrix @ a) / 2j
                        + c
                        * dw.imag
                        * ((a @ rho.matrix + rho.matrix @ a) / 2 - mean_a * rho.matrix)
                        + c
                        * (math.sin(phi / 2) ** 2 * abs(dw) ** 2 / s)
                        * (a @ rho.matrix @ a - rho.matrix)
                    )
                    assert max_abs(lhs - rhs) < 1e-10

    def test_embedded_targets(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, 3)
        p = PauliString(("X",))
        updated, prob = state_update(rho, spec(p, 0.6, "informative"), 1, targets=[1])
        assert 0 < prob < 1
        assert updated.shape == (8, 8)

    def test_weak_limit_scaling(self):
        # residual against the first-order update drops by 4 when phi halves
        rng = np.random.default_rng(10)
        det = canonical_detector("informative")
        for _ in range(10):
            n = int(rng.integers(1, 3))
            p = random_pauli(rng, n)
            a = p.matrix()
            rho = random_density(rng, n)
            out = int(rng.integers(2))
            dw = weak_value(1, det, det.readout_basis[out])
            mean_a = float(np.real(np.trace(a @ rho.matrix)))

            def residual(phi):
                updated, prob = state_update(rho, spec(p, phi, "informative"), out)
                first_order = phi * (
                    dw.real * (a @ rho.matrix - rho.matrix @ a) / 2j
                    + dw.imag
                    * ((a @ rho.matrix + rho.matrix @ a) / 2 - mean_a * rho.matrix)
                )
                return max_abs(updated / prob - rho.matrix - first_order)

            phi = 1e-3
            ratio = residual(phi) / residual(phi / 2)
            assert 3.5 < ratio < 4.5


class TestKrausPairType:
    def test_rejects_incomplete_pair(self):
        with pytest.raises(ValueError, match="completeness"):
            KrausPair(np.eye(2) / 2, np.eye(2) / 2)
        # A NaN deviation is not within the tolerance either.
        with pytest.raises(ValueError, match="completeness"):
            KrausPair(np.full((2, 2), np.nan), np.eye(2))

    def test_outcome_indexing(self):
        pair = kraus_pair(MeasurementSpec(PauliString(("Z",)), 0.5, "informative"))
        np.testing.assert_array_equal(pair[0], pair.outcome0)
        np.testing.assert_array_equal(pair[1], pair.outcome1)
        with pytest.raises(IndexError):
            pair[2]

    def test_matrix_observable_accepted(self):
        # Heisenberg-evolved Paulis are valid observables
        rng = np.random.default_rng(11)
        from helpers import random_unitary

        u = random_unitary(rng, 4)
        bt = u.conj().T @ PauliString(("Z", "X")).matrix() @ u
        pair = kraus_pair(MeasurementSpec(bt, 0.7, "informative"))
        e0, e1 = pair.effects()
        assert max_abs(e0 + e1 - np.eye(4)) < 1e-12

    def test_raw_observable_is_a_read_only_copy(self):
        z = np.diag([-1.0, 1.0])
        spec = MeasurementSpec(z, 0.5, "informative")
        z[0, 0] = 5.0  # the caller's array changes after the check
        np.testing.assert_array_equal(spec.matrix(), np.diag([-1.0, 1.0]))
        assert spec.matrix().dtype == np.float64  # a real observable stays real
        assert not spec.matrix().flags.writeable
        e0, e1 = kraus_pair(spec).effects()
        assert max_abs(e0 + e1 - np.eye(2)) < 1e-12

    def test_y_free_pauli_matrix_is_stored_real(self):
        # A Pauli string without Y factors has a real matrix, which its spec
        # stores as float64; its Kraus pairs are still complex and match
        # the Pauli spec's.
        for text in ("+XZ", "-ZI", "+XXZ"):
            p = PauliString.from_text(text)
            for kind in ("informative", "noninformative"):
                raw = MeasurementSpec(p.matrix(), 0.9, kind)
                assert raw.observable.dtype == np.float64
                detector = canonical_detector(kind)
                pairs = (
                    (kraus_pair(raw), kraus_pair(MeasurementSpec(p, 0.9, kind))),
                    (
                        kraus_from_detector(raw.observable, 0.9, detector),
                        kraus_from_detector(p, 0.9, detector),
                    ),
                )
                for got, ref in pairs:
                    for a in (0, 1):
                        assert got[a].dtype == np.complex128
                        assert max_abs(got[a] - ref[a]) <= 1e-15

    def test_with_phi_copies_strength_and_kind_without_a_check(self, monkeypatch):
        import seqmeas.measurement as measurement_mod

        z = np.diag([-1.0, 1.0])
        spec = MeasurementSpec(z, 0.5, "informative")
        checks = []
        monkeypatch.setattr(measurement_mod, "_raw_observable", checks.append)
        copy = spec.with_phi(0.9, "noninformative")
        assert (copy.phi, copy.kind) == (0.9, "noninformative")
        assert copy.observable is spec.observable and copy._square is spec._square
        assert spec.with_phi(0.7).kind == "informative"
        assert not checks
        with pytest.raises(ValueError, match="kind"):
            spec.with_phi(0.9, "strong")
        with pytest.raises(ValueError, match="phi"):
            spec.with_phi(0.0, "informative")

    def test_rejects_non_involutory_observable(self):
        with pytest.raises(ValueError, match="identity"):
            MeasurementSpec(np.diag([2.0, 1.0]), 0.5, "informative")

    def test_rejects_dimension_not_a_power_of_two(self):
        # diag(1, -1, 1) is Hermitian and squares to 1, but is no register
        for m in (np.diag([1.0, -1.0, 1.0]), np.array([[1.0]])):
            with pytest.raises(ValueError, match=rf"shape \({len(m)}, {len(m)}\)"):
                MeasurementSpec(m, 0.5, "informative")
