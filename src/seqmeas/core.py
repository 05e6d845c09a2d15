"""Dense linear algebra for small multi-qubit registers.

Conventions, fixed once and used everywhere in this package:

* Qubit 0 is the most significant tensor slot.  The basis index of
  ``|b0 b1 ... b_{n-1}>`` is the integer with binary digits ``b0 b1 ...
  b_{n-1}`` (``b0`` first), and ``tensor(a, b)`` puts ``a`` on the more
  significant slot, exactly like ``np.kron``.
* Superconducting sign convention: ``|0>`` is the ground state, ``|1>``
  the excited state, and ``Z = |1><1| - |0><0| = diag(-1, +1)``.  This is
  opposite to the usual quantum-computing convention (where Z|0> = +|0>);
  to convert an operator between the two conventions, conjugate it by X
  on every qubit.
* Arrays are dense.  States are ``complex128``.  An operator is
  ``float64`` when it is real and ``complex128`` otherwise, decided once
  where it enters the engine (:func:`_as_real_or_complex`); it then keeps
  its dtype, and :func:`matmul` is where real meets complex.  Registers
  are limited to 10 qubits (system plus ancillas); exactness is
  preferred over scale.
* :func:`embed` extends an operator by the identity with one broadcast
  product, ``op[:, None, :, None] * eye[None, :, None, :]``, and a
  transpose of the qubit axes; its entries equal ``np.kron``'s bit for
  bit, signed zeros included.

Tolerances: preconditions are checked at ``CHECK_TOL = 1e-10``; stored
states are re-symmetrized on construction so their invariants hold to
``REPAIR_TOL = 1e-12`` even after long gate chains.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

CHECK_TOL = 1e-10
REPAIR_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

MAX_QUBITS = 10


class NumericalInvariantError(RuntimeError):
    """A numerical invariant (hermiticity, trace, positivity, ...) failed."""


def _as_complex(m) -> np.ndarray:
    return np.asarray(m, dtype=np.complex128)


def _as_real_or_complex(m) -> np.ndarray:
    """``m`` as ``float64`` if no entry has an imaginary part, else as
    ``complex128``: the one test of whether an operator is real, so that a
    real one keeps real arithmetic (see :func:`matmul`).  A complex array
    with an all-zero imaginary part comes out as a contiguous real copy."""
    m = np.asarray(m)
    if m.dtype.kind == "c" and not np.count_nonzero(m.imag):
        m = np.ascontiguousarray(m.real)
    return m.astype(np.complex128 if m.dtype.kind == "c" else np.float64, copy=False)


def is_hermitian(m: np.ndarray, tol: float = CHECK_TOL) -> bool:
    """max |m - m^dag| <= ``tol`` for a square ``m``, and False for any
    other shape."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return np.max(np.abs(m - m.conj().T)) <= tol


def identity_deviation(m: np.ndarray) -> float:
    """max |m - 1| over the entries of a square matrix, equal bit for bit
    to ``np.max(np.abs(m - np.eye(dim)))`` but without the identity or
    the difference: |m| elementwise with the diagonal replaced by
    |m_ii - 1|.  ``m`` is not changed."""
    dev = np.abs(m)
    np.fill_diagonal(dev, np.abs(m.diagonal() - 1))
    return float(np.max(dev))


def is_unitary(m: np.ndarray, tol: float = CHECK_TOL) -> bool:
    """max |m^dag m - 1| <= ``tol`` for a square ``m``, and False for any
    other shape; a real ``m`` (such as the eigenbasis of a real H) is
    checked in real arithmetic."""
    m = _as_real_or_complex(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return identity_deviation(matmul(m.conj().T, m)) <= tol


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` for 2-D ``float64`` or ``complex128`` arrays, with a real
    factor kept real, written into ``out`` (a C-contiguous array of the
    product's shape and dtype) if given.  A real
    matrix times a complex one runs as one real product on the complex
    factor's interleaved (re, im) entries, where numpy would cast the real
    one to complex first.  Against a complex product of the same shape it
    is about 2.7x faster for a 256 x 6 block and 1.3x for a 256 x 256 one
    (one BLAS thread)."""
    kinds = a.dtype.kind + b.dtype.kind
    if kinds == "fc":
        real_out = None if out is None else out.view(np.float64)
        b = np.ascontiguousarray(b).view(np.float64)
        return np.matmul(a, b, out=real_out).view(np.complex128)
    if kinds == "cf":
        # The product is formed transposed, so it is copied into ``out``.
        product = matmul(b.T, a.T).T
        if out is None:
            return product
        np.copyto(out, product)
        return out
    return np.matmul(a, b, out=out)


def distance_up_to_phase(u: np.ndarray, v: np.ndarray) -> float:
    """Frobenius distance min over theta of ||u - exp(i theta) v||."""
    u = _as_complex(u)
    v = _as_complex(v)
    overlap = np.trace(v.conj().T @ u)
    if abs(overlap) == 0.0:
        return float(np.linalg.norm(u - v))
    phase = overlap / abs(overlap)
    return float(np.linalg.norm(u - phase * v))


def _check_register(n_qubits: int) -> None:
    if not isinstance(n_qubits, (int, np.integer)) or n_qubits < 1:
        raise ValueError(f"n_qubits must be a positive integer, got {n_qubits!r}")
    if n_qubits > MAX_QUBITS:
        raise ValueError(
            f"register of {n_qubits} qubits exceeds the dense-representation "
            f"limit of {MAX_QUBITS}"
        )


def _check_targets(n_qubits: int, targets) -> tuple[int, ...]:
    targets = tuple(int(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"target qubits must be distinct, got {targets}")
    for t in targets:
        if t < 0 or t >= n_qubits:
            raise ValueError(f"target qubit {t} out of range for {n_qubits} qubits")
    return targets


@dataclass(frozen=True)
class PureState:
    """Normalized state vector on an n-qubit register."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_register(self.n_qubits)
        amps = _as_complex(self.amplitudes).reshape(-1)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(
                f"state vector must have length {2**self.n_qubits}, got {amps.shape}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("state vector contains non-finite amplitudes")
        # A unit vector has no amplitude above 1; rejecting one first keeps
        # the norm's sum of squares from overflowing.
        top = float(np.max(np.abs(amps)))
        if top > 1.0 + CHECK_TOL:
            raise NumericalInvariantError(f"state vector amplitude of magnitude {top} exceeds 1")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > CHECK_TOL:
            raise NumericalInvariantError(f"state vector norm {norm} is not 1")
        amps = amps / norm
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_label(cls, label: str) -> "PureState":
        """Computational basis state from a bit string, qubit 0 first."""
        if not label or any(c not in "01" for c in label):
            raise ValueError(f"basis label must be a nonempty bit string, got {label!r}")
        n = len(label)
        _check_register(n)  # before the 2^n amplitudes are allocated
        amps = np.zeros(2**n, dtype=np.complex128)
        amps[int(label, 2)] = 1.0
        return cls(n, amps)

    def density(self) -> "DensityMatrix":
        """|psi><psi|, built on the first call and then shared: both are
        read-only, and the routes that need a density matrix ask for it
        once per correlator value."""
        return self._density

    @functools.cached_property
    def _density(self) -> "DensityMatrix":
        return DensityMatrix(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace operator on an n-qubit register.

    The stored matrix is re-symmetrized and trace-normalized on
    construction (exact to REPAIR_TOL); inputs violating hermiticity or
    unit trace beyond CHECK_TOL are rejected.  Positivity is not checked
    on every construction (it costs a full eigendecomposition); call
    :meth:`check_positive` at ingestion points.
    """

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_register(self.n_qubits)
        m = _as_complex(self.matrix)
        dim = 2**self.n_qubits
        if m.shape != (dim, dim):
            raise ValueError(f"density matrix must be {dim}x{dim}, got {m.shape}")
        if not np.all(np.isfinite(m.view(np.float64))):
            raise ValueError("density matrix contains non-finite entries")
        herm_dev = float(np.max(np.abs(m - m.conj().T)))
        if herm_dev > CHECK_TOL:
            raise NumericalInvariantError(
                f"density matrix is not Hermitian (deviation {herm_dev:.3e})"
            )
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > CHECK_TOL:
            raise NumericalInvariantError(f"density matrix trace {trace} is not 1")
        m = (m + m.conj().T) / 2.0
        m = m / np.real(np.trace(m))
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_label(cls, label: str) -> "DensityMatrix":
        return PureState.from_label(label).density()

    @classmethod
    def maximally_mixed(cls, n_qubits: int) -> "DensityMatrix":
        _check_register(n_qubits)  # before the 4^n entries are allocated
        dim = 2**n_qubits
        return cls(n_qubits, np.eye(dim) / dim)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def check_positive(self, floor: float = EIGENVALUE_FLOOR) -> None:
        lo = self.min_eigenvalue()
        if lo < floor:
            raise NumericalInvariantError(
                f"density matrix has eigenvalue {lo:.3e} below floor {floor:.1e}"
            )


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the left factor on the more significant slot."""
    return np.kron(_as_complex(a), _as_complex(b))


def embed(op: np.ndarray, n_qubits: int, targets) -> np.ndarray:
    """Extend ``op`` (acting on ``targets``, in that order) by identity.

    ``targets[0]`` is the most significant slot of ``op``.  A real ``op``
    gives a ``float64`` result, any other a ``complex128`` one.  On the
    whole register in slot order that is ``op`` itself.
    """
    _check_register(n_qubits)
    targets = _check_targets(n_qubits, targets)
    op = _as_real_or_complex(op)
    k = len(targets)
    if op.shape != (2**k, 2**k):
        raise ValueError(
            f"operator shape {op.shape} does not match {k} target qubit(s)"
        )
    if targets == tuple(range(n_qubits)):
        return op
    rest = [q for q in range(n_qubits) if q not in targets]
    # op (x) 1 as one broadcast product: np.kron's entries, dtype and signed
    # zeros, without its shape bookkeeping.
    eye = np.eye(2 ** len(rest), dtype=op.dtype)
    full = op[:, None, :, None] * eye[None, :, None, :]
    order = list(targets) + rest
    pos = {q: i for i, q in enumerate(order)}
    perm = [pos[q] for q in range(n_qubits)]
    perm += [n_qubits + pos[q] for q in range(n_qubits)]
    t = full.reshape([2] * (2 * n_qubits))
    return t.transpose(perm).reshape(2**n_qubits, 2**n_qubits)


def apply_unitary(state: DensityMatrix, u: np.ndarray, targets=None) -> DensityMatrix:
    """Conjugate the state by ``u`` embedded on ``targets`` (default: all)."""
    if targets is None:
        targets = range(state.n_qubits)
    u = _as_complex(u)
    if not is_unitary(u):
        raise ValueError("operator is not unitary to 1e-10")
    full = embed(u, state.n_qubits, targets)
    return DensityMatrix(state.n_qubits, full @ state.matrix @ full.conj().T)


def expectation(state: DensityMatrix, obs: np.ndarray) -> complex:
    """Tr(obs rho).  Real up to roundoff when ``obs`` is Hermitian."""
    obs = _as_complex(obs)
    if obs.shape != (state.dim, state.dim):
        raise ValueError(
            f"observable shape {obs.shape} does not match state dimension {state.dim}"
        )
    return complex(np.trace(obs @ state.matrix))


def partial_trace(state: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix on ``keep`` (slot order follows ``keep``)."""
    n = state.n_qubits
    keep = _check_targets(n, keep)
    if len(keep) == 0:
        raise ValueError("must keep at least one qubit")
    if keep == tuple(range(n)):
        return state
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    row = list(letters[:n])
    col = list(letters[n : 2 * n])
    for q in range(n):
        if q not in keep:
            col[q] = row[q]
    out = "".join(row[q] for q in keep) + "".join(col[q] for q in keep)
    t = state.matrix.reshape([2] * (2 * n))
    reduced = np.einsum("".join(row) + "".join(col) + "->" + out, t)
    dim = 2 ** len(keep)
    return DensityMatrix(len(keep), reduced.reshape(dim, dim))
