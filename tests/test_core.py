"""Core register algebra: tensor, embedding, expectation, partial trace."""

import itertools
import tracemalloc

import numpy as np
import pytest
from helpers import kron_loop, max_abs, random_density, random_unitary

from seqmeas import (
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
from seqmeas.core import identity_deviation, is_unitary, matmul
from seqmeas.observables import PAULI_X, PAULI_Y, PAULI_Z, basis_ket
from seqmeas.observables import entangling_gate


class TestTensor:
    def test_identity_case(self):
        np.testing.assert_array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_eigenvalue_product_on_basis_state(self):
        # Z (x) Z on |1>|0> has eigenvalue (+1)(-1) = -1
        zz = tensor(PAULI_Z, PAULI_Z)
        ket = tensor(basis_ket("z+").reshape(2, 1), basis_ket("z-").reshape(2, 1))
        np.testing.assert_allclose(zz @ ket, -ket, atol=1e-15)

    def test_matches_nested_loop_kronecker(self):
        np.testing.assert_allclose(
            tensor(PAULI_X, PAULI_Y), kron_loop(PAULI_X, PAULI_Y), atol=0
        )

    def test_associative_exactly(self):
        # dyadic entries keep every partial product exactly representable
        rng = np.random.default_rng(0)

        def dyadic(shape):
            return (rng.integers(-8, 9, size=shape) + 1j * rng.integers(-8, 9, size=shape)) / 8.0

        for _ in range(10):
            a, b, c = dyadic((2, 2)), dyadic((2, 2)), dyadic((2, 2))
            np.testing.assert_array_equal(
                tensor(tensor(a, b), c), tensor(a, tensor(b, c))
            )


class TestIdentityDeviation:
    def test_equals_difference_from_the_identity(self):
        # the unitarity, square and completeness checks read this in place
        # of np.max(np.abs(m - np.eye(dim))), and must see the same number
        rng = np.random.default_rng(5)
        for dim in (1, 2, 4, 8, 16):
            u = random_unitary(rng, dim)
            for scale in (0.0, 1e-14, 1e-11, 1e-9, 1e-3):
                noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                m = u + scale * noise
                for x in (m, m.conj().T @ m):
                    before = x.copy()
                    assert identity_deviation(x) == np.max(np.abs(x - np.eye(dim)))
                    assert np.array_equal(x, before)


class TestDistanceUpToPhase:
    def test_global_phase_is_free(self):
        assert distance_up_to_phase(1j * PAULI_Z, PAULI_Z) <= 1e-15

    def test_zero_overlap_takes_the_plain_distance(self):
        # Tr(X^dag Z) = 0 fixes no phase, and every phase gives ||Z - X|| = 2.
        assert distance_up_to_phase(PAULI_Z, PAULI_X) == 2.0


class TestIsUnitary:
    def test_real_matrices_take_real_arithmetic_with_the_same_verdict(self):
        # A matrix without an imaginary part is checked as a real one; the
        # verdict must match the complex check on either side of the bound.
        rng = np.random.default_rng(6)
        for dim in (1, 2, 8, 64):
            q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
            for scale, unitary in ((0.0, True), (1e-12, True), (1e-9, False)):
                m = (q * (1 + scale)).astype(np.complex128)
                assert is_unitary(m) is unitary
                assert is_unitary(m.real) is unitary
                complex_dev = identity_deviation(m.conj().T @ m)
                real_dev = identity_deviation(m.real.T @ m.real)
                assert abs(complex_dev - real_dev) <= 1e-15
        assert is_unitary(np.array([[0, 1j], [1j, 0]]))
        assert not is_unitary(np.array([[1, 1j], [0, 1]]))


class TestMatmul:
    def test_real_factor_stays_real(self):
        # A real factor times a complex one runs in real arithmetic and
        # matches numpy's complex product; equal kinds are numpy's own.
        rng = np.random.default_rng(7)
        for dim, k in ((2, 1), (8, 3), (64, 64)):
            r = rng.normal(size=(dim, dim))
            x = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
            y = rng.normal(size=(k, dim)) + 1j * rng.normal(size=(k, dim))
            for got, ref in (
                (matmul(r, x), r.astype(np.complex128) @ x),
                (matmul(r, x[:, ::-1]), r.astype(np.complex128) @ x[:, ::-1]),
                (matmul(y, r), y @ r.astype(np.complex128)),
            ):
                assert got.dtype == np.complex128 and got.shape == ref.shape
                assert float(np.max(np.abs(got - ref))) <= 1e-12
            assert np.array_equal(matmul(x.T, x), x.T @ x)
            assert np.array_equal(matmul(r, r), r @ r)


class TestEmbedAndApply:
    def test_identity_leaves_state_unchanged(self):
        rho = random_density(np.random.default_rng(1), 2)
        out = apply_unitary(rho, np.eye(4))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_bit_flip_on_qubit_zero(self):
        rho = DensityMatrix.from_label("00")
        out = apply_unitary(rho, PAULI_X, targets=[0])
        np.testing.assert_allclose(out.matrix, DensityMatrix.from_label("10").matrix, atol=1e-15)

    def test_cz_makes_x_minus_marginal(self):
        # CZ on |1>|x+>: the qubit-1 marginal becomes |x-><x-| (direct 4x4 check).
        psi = tensor(basis_ket("z+"), basis_ket("x+"))
        rho = DensityMatrix(2, np.outer(psi, psi.conj()))
        out = apply_unitary(rho, entangling_gate("cz"))
        marg = partial_trace(out, [1])
        xm = basis_ket("x-")
        np.testing.assert_allclose(marg.matrix, np.outer(xm, xm.conj()), atol=1e-14)
        # same result via explicit 4x4 multiplication
        direct = entangling_gate("cz") @ np.outer(psi, psi.conj()) @ entangling_gate("cz").conj().T
        np.testing.assert_allclose(out.matrix, direct, atol=1e-14)

    def test_embed_keeps_a_real_operator_real(self):
        # Realness follows the values: a complex128 array with no imaginary
        # part embeds as float64, and Y stays complex.
        z = np.diag([-1.0, 1.0])
        for op in (z, z.astype(np.complex128)):
            full = embed(op, 3, [1])
            assert full.dtype == np.float64
            np.testing.assert_array_equal(full, np.kron(np.kron(np.eye(2), z), np.eye(2)))
        assert embed(PAULI_Y, 3, [1]).dtype == np.complex128

    def test_embed_equals_kron_bit_for_bit(self):
        # The kron-then-transpose reference: every ordered target tuple at
        # n <= 4, real and complex operators holding signed zeros, compared
        # entry for entry, dtype and sign bits of both parts included.  On
        # the whole register in slot order embed returns the operator
        # itself, whose zeros keep their signs (a complex product by
        # kron's identity can flip them).
        rng = np.random.default_rng(21)

        def kron_embed(op, n, targets):
            rest = [q for q in range(n) if q not in targets]
            full = np.kron(op, np.eye(2 ** len(rest), dtype=op.dtype))
            pos = {q: i for i, q in enumerate([*targets, *rest])}
            perm = [pos[q] for q in range(n)] + [n + pos[q] for q in range(n)]
            return full.reshape([2] * (2 * n)).transpose(perm).reshape(2**n, 2**n)

        def signed(dim, complex_):
            values = np.array([0.0, -0.0, 1.5, -0.25])
            op = rng.choice(values, size=(dim, dim))
            if complex_:
                op = op + 1j * rng.choice(values, size=(dim, dim))
                op.imag[0, 0] = 0.5  # keep the operator complex
            return op

        seen = 0
        for n in range(1, 5):
            for k in range(1, n + 1):
                for targets in itertools.permutations(range(n), k):
                    for complex_ in (False, True):
                        op = signed(2**k, complex_)
                        got, ref = embed(op, n, targets), kron_embed(op, n, targets)
                        assert got.dtype == ref.dtype == op.dtype
                        np.testing.assert_array_equal(got, ref)
                        if targets == tuple(range(n)):
                            ref = op
                        np.testing.assert_array_equal(np.signbit(got.real), np.signbit(ref.real))
                        np.testing.assert_array_equal(np.signbit(got.imag), np.signbit(ref.imag))
                        seen += 1
        assert seen == 2 * (1 + 4 + 15 + 64)

    def test_embedding_matches_manual_kron(self):
        rng = np.random.default_rng(2)
        u = random_unitary(rng, 2)
        # embed on middle qubit of three
        full = embed(u, 3, [1])
        manual = tensor(tensor(np.eye(2), u), np.eye(2))
        np.testing.assert_allclose(full, manual, atol=1e-15)
        # two-qubit op on (2, 0) = swap of slot order
        v = random_unitary(rng, 4)
        full20 = embed(v, 3, [2, 0])
        # check action on basis vectors against index bookkeeping
        for idx in range(8):
            b = np.zeros(8, dtype=complex)
            b[idx] = 1.0
            bits = [(idx >> (2 - q)) & 1 for q in range(3)]
            local_in = (bits[2] << 1) | bits[0]
            out = full20 @ b
            expected = np.zeros(8, dtype=complex)
            for local_out in range(4):
                new = bits[:]
                new[2] = (local_out >> 1) & 1
                new[0] = local_out & 1
                j = (new[0] << 2) | (new[1] << 1) | new[2]
                expected[j] = v[local_out, local_in]
            np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_rejects_non_unitary(self):
        rho = DensityMatrix.from_label("0")
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary(rho, np.array([[1, 1], [0, 1]], dtype=complex))

    def test_rejects_bad_targets(self):
        rho = DensityMatrix.from_label("00")
        with pytest.raises(ValueError):
            apply_unitary(rho, PAULI_X, targets=[5])
        with pytest.raises(ValueError):
            apply_unitary(rho, np.eye(4), targets=[0, 0])

    def test_preserves_trace_hermiticity_and_floor(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 3)
        for _ in range(5):
            rho = apply_unitary(rho, random_unitary(rng, 8))
        assert abs(np.trace(rho.matrix) - 1) < 1e-12
        assert max_abs(rho.matrix - rho.matrix.conj().T) < 1e-12
        assert rho.min_eigenvalue() > -1e-10


class TestExpectation:
    def test_z_on_excited_state(self):
        rho = DensityMatrix.from_label("1")
        assert expectation(rho, PAULI_Z) == pytest.approx(1.0)

    def test_z_on_maximally_mixed(self):
        rho = DensityMatrix.maximally_mixed(1)
        assert abs(expectation(rho, PAULI_Z)) < 1e-15

    def test_x_on_y_plus(self):
        ket = basis_ket("y+")
        rho = DensityMatrix(1, np.outer(ket, ket.conj()))
        direct = np.trace(PAULI_X @ rho.matrix)  # independent 2x2 trace
        assert direct == pytest.approx(0.0, abs=1e-15)
        assert expectation(rho, PAULI_X) == pytest.approx(direct, abs=1e-15)

    def test_linear_and_conjugate_symmetric(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 2)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lhs = expectation(rho, 2.0 * a + 1j * b)
        rhs = 2.0 * expectation(rho, a) + 1j * expectation(rho, b)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert expectation(rho, a.conj().T) == pytest.approx(
            np.conj(expectation(rho, a)), abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            expectation(DensityMatrix.from_label("0"), np.eye(4))


class TestPartialTrace:
    def test_keep_everything(self):
        rho = random_density(np.random.default_rng(5), 2)
        np.testing.assert_allclose(partial_trace(rho, [0, 1]).matrix, rho.matrix)

    def test_product_state(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, 2)
        anc = DensityMatrix.from_label("0")
        joint = DensityMatrix(3, tensor(rho.matrix, anc.matrix))
        np.testing.assert_allclose(partial_trace(joint, [0, 1]).matrix, rho.matrix, atol=1e-14)

    def test_bell_pair_marginal(self):
        # |phi> = (|00> + |11>)/sqrt(2); trace one side -> maximally mixed.
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        rho = DensityMatrix(2, np.outer(psi, psi.conj()))
        # independent partial-trace loop over the 4x4 matrix
        expected = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    expected[i, j] += rho.matrix[2 * i + k, 2 * j + k]
        reduced = partial_trace(rho, [0])
        np.testing.assert_allclose(reduced.matrix, expected, atol=1e-15)
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-15)

    def test_commutes_with_unitary_on_kept_qubits(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 3)
        u = random_unitary(rng, 4)
        keep = (0, 2)
        left = partial_trace(apply_unitary(rho, u, targets=keep), keep)
        right = apply_unitary(partial_trace(rho, keep), u)
        np.testing.assert_allclose(left.matrix, right.matrix, atol=1e-10)

    def test_trace_preserved(self):
        rho = random_density(np.random.default_rng(8), 3)
        assert np.trace(partial_trace(rho, [1]).matrix) == pytest.approx(1.0)

    def test_keep_order_defines_slot_order(self):
        rng = np.random.default_rng(10)
        rho = random_density(rng, 3)
        forward = partial_trace(rho, [0, 2]).matrix
        swapped = partial_trace(rho, [2, 0]).matrix
        # swapping the keep list swaps the output slots
        perm = swapped.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        np.testing.assert_allclose(perm, forward, atol=1e-14)

    def test_bad_indices(self):
        rho = random_density(np.random.default_rng(9), 2)
        with pytest.raises(ValueError):
            partial_trace(rho, [0, 0])
        with pytest.raises(ValueError):
            partial_trace(rho, [3])


class TestStateValidation:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NumericalInvariantError, match="Hermitian"):
            DensityMatrix(1, m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(NumericalInvariantError, match="trace"):
            DensityMatrix(1, np.eye(2))

    def test_rejects_nan(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(1, m)

    def test_pure_state_norm(self):
        with pytest.raises(NumericalInvariantError, match="norm"):
            PureState(1, np.array([1.0, 1.0]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("amps", [[1e200, 0.0], [1e-200, 1e200j], [1.7e308 + 1.7e308j, 0.0]])
    def test_huge_amplitude_fails_before_the_norm(self, amps):
        # The norm's sum of squares would overflow (a numpy RuntimeWarning).
        with pytest.raises(NumericalInvariantError, match="amplitude of magnitude .* exceeds 1"):
            PureState(1, np.array(amps))

    @pytest.mark.parametrize("n", [11, 20])
    @pytest.mark.parametrize(
        "build",
        [DensityMatrix.maximally_mixed, lambda n: PureState.from_label("0" * n)],
        ids=["maximally_mixed", "from_label"],
    )
    def test_oversized_register_fails_before_allocating(self, build, n):
        # The register is checked before the 2^n amplitudes or the 4^n
        # entries are allocated (32 MiB at n = 11 for the mixed state).
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the dense-representation limit"):
                build(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_positivity_check(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        dm = DensityMatrix(1, m)
        with pytest.raises(NumericalInvariantError, match="eigenvalue"):
            dm.check_positive()

    @staticmethod
    def _spy_eigvalsh(monkeypatch):
        calls = []
        original = np.linalg.eigvalsh

        def spy(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        return calls

    @pytest.mark.parametrize(
        "diagonal",
        [
            [0.25] * 4,
            [1.0, 0.0, 0.0, 0.0],
            [0.5, 0.25, 0.125, 0.125],
            [0.4, 0.6 + 1e-9, -1e-9, 0.0],
            [0.3, 0.7 + 1e-11, 0.0, -1e-11],
            [1.5, -0.5, 0.0, 0.0],
        ],
    )
    def test_diagonal_positivity_reads_the_diagonal(self, monkeypatch, diagonal):
        # A diagonal state's eigenvalues are its diagonal, exactly: the
        # check passes or fails as eigh's eigenvalues make it, without them.
        dm = DensityMatrix(2, np.diag(diagonal).astype(complex))
        reference = float(np.linalg.eigvalsh(dm.matrix)[0])
        calls = self._spy_eigvalsh(monkeypatch)
        assert dm.min_eigenvalue() == reference
        if reference < -1e-10:
            with pytest.raises(NumericalInvariantError, match="below floor"):
                dm.check_positive()
        else:
            dm.check_positive()
        assert calls == []

    def test_non_diagonal_positivity_takes_eigvalsh(self, monkeypatch):
        rng = np.random.default_rng(8)
        rho = random_density(rng, 2)
        calls = self._spy_eigvalsh(monkeypatch)
        rho.check_positive()
        assert len(calls) == 1 and calls[0] is rho.matrix
        bad = DensityMatrix(1, np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex))
        with pytest.raises(NumericalInvariantError, match="below floor"):
            bad.check_positive()
        assert len(calls) == 2

    def test_matrices_are_frozen(self):
        rho = DensityMatrix.from_label("0")
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 5.0
