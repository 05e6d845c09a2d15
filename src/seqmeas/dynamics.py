"""Hamiltonians and exact propagators for scrambling demonstrations.

Propagators are built by Hermitian eigendecomposition (no Trotterization),
so evolution is exact to roundoff and does not pollute the 1e-10 identity
checks elsewhere.  A propagator keeps the spectrum it came from: it acts
on state vectors through it, and forms its dim x dim matrix only when the
matrix is asked for.  hbar = 1 throughout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    CHECK_TOL,
    NumericalInvariantError,
    _as_real_or_complex,
    embed,
    is_hermitian,
    is_unitary,
    matmul,
)
from .observables import PauliString

# A standard nonintegrable point of the mixed-field Ising chain; an
# artifact default, overridable via configuration.
DEFAULT_ISING = {"J": 1.0, "g": 1.05, "h": 0.5}


@dataclass(frozen=True)
class Hamiltonian:
    """Real-weighted sum of Pauli strings; Hermitian by construction."""

    n_qubits: int
    terms: tuple[tuple[float, PauliString], ...]

    def __post_init__(self):
        terms = tuple((float(c), p) for c, p in self.terms)
        for _, p in terms:
            if p.n_qubits != self.n_qubits:
                raise ValueError(
                    f"term {p} does not act on {self.n_qubits} qubits"
                )
        object.__setattr__(self, "terms", terms)

    def matrix(self) -> np.ndarray:
        """Sum of the terms, each scattered from its signed permutation
        (row i holds d[i] in column perm[i]); no Kronecker products."""
        dim = 2**self.n_qubits
        m = np.zeros((dim, dim), dtype=np.complex128)
        rows = np.arange(dim)
        for coeff, p in self.terms:
            perm, d = p.action(self.n_qubits)
            m[rows, perm] += coeff * d
        return m

    @functools.cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """``eigh`` of the Hermiticity-checked matrix with its eigenbasis
        checked unitary, computed once."""
        evals, evecs = _checked_spectrum(_check_hermitian_matrix(self))
        evals.flags.writeable = False
        evecs.flags.writeable = False
        return evals, evecs

    def to_pairs(self) -> list[tuple[float, str]]:
        """Serialized form: (coefficient, pauli-string-text) pairs."""
        return [(c, str(p)) for c, p in self.terms]

    @classmethod
    def from_pairs(cls, n_qubits: int, pairs) -> "Hamiltonian":
        terms = tuple((float(c), PauliString.from_text(t)) for c, t in pairs)
        return cls(n_qubits, terms)


def _single_site(n: int, site: int, letter: str) -> PauliString:
    factors = ["I"] * n
    factors[site] = letter
    return PauliString(tuple(factors))


def build_mixed_field_ising(
    n: int, j: float = 1.0, g: float = 1.05, h: float = 0.5
) -> Hamiltonian:
    """H = -J sum Z_i Z_{i+1} - g sum X_i - h sum Z_i, open boundary."""
    if n < 2:
        raise ValueError(f"the chain needs at least 2 sites, got {n}")
    terms = []
    for i in range(n - 1):
        factors = ["I"] * n
        factors[i] = factors[i + 1] = "Z"
        terms.append((-j, PauliString(tuple(factors))))
    for i in range(n):
        terms.append((-g, _single_site(n, i, "X")))
    for i in range(n):
        terms.append((-h, _single_site(n, i, "Z")))
    return Hamiltonian(n, tuple(terms))


@dataclass(frozen=True)
class Propagator:
    """exp(-i t H) = V exp(-i t E) V^dag from the spectrum (E, V) of H,
    together with the duration t it realizes.

    ``matrix`` is formed on first use and then kept; :meth:`apply` acts on
    vectors through the spectrum and never forms it.  ``evecs`` must be a
    square 2-D array, ``evals`` a real 1-D array of one eigenvalue per
    column and ``duration`` finite, else ``ValueError`` is raised; the
    arrays are not copied, so propagators of one spectrum share them.
    """

    evals: np.ndarray
    evecs: np.ndarray
    duration: float

    def __post_init__(self):
        evals_shape, shape = np.shape(self.evals), np.shape(self.evecs)
        real = not np.iscomplexobj(self.evals) and np.isfinite(self.duration)
        if not (real and len(evals_shape) == 1 and shape == evals_shape * 2):
            raise ValueError(
                f"a propagator takes real eigenvalues of shape (dim,), an eigenbasis of shape "
                f"(dim, dim) and a finite duration, got {evals_shape}, {shape}, {self.duration!r}"
            )

    @functools.cached_property
    def phases(self) -> np.ndarray:
        """exp(-i t E), the propagator in the eigenbasis of H.  A phase
        t E_k that is not finite (a duration so long that it overflows)
        raises :class:`NumericalInvariantError`."""
        largest = abs(self.duration) * float(np.abs(self.evals).max(initial=0.0))
        if not largest < np.inf:
            raise NumericalInvariantError(f"phase t*E of duration {self.duration!r} is not finite")
        return np.exp(-1j * self.duration * self.evals)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return matmul(self.evecs * self.phases, self.evecs.conj().T)

    def apply(self, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """U x, or U^dag x, for a dim x k block ``x``: two O(dim^2 k)
        products, with V^dag x taken as conj(V^T conj(x)) so that V^dag is
        not formed either (a real V is applied in real arithmetic)."""
        phases = self.phases.conj() if adjoint else self.phases
        y = np.conj(matmul(self.evecs.T, np.conj(x)))
        return matmul(self.evecs, phases[:, None] * y)


def _check_hermitian_matrix(h) -> np.ndarray:
    """The matrix of H, ``float64`` if it is real, checked Hermitian."""
    m = _as_real_or_complex(h.matrix() if isinstance(h, Hamiltonian) else h)
    if not is_hermitian(m, CHECK_TOL):
        raise ValueError("Hamiltonian is not Hermitian to 1e-10")
    return m


def _checked_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a Hermitian matrix; the eigenbasis must be unitary to
    1e-10, since every propagator built from it inherits its error.  A
    real matrix (every H without Y-type terms) is diagonalized in real
    arithmetic, about 3x faster, and keeps its real eigenbasis: the
    propagators and the eigenbasis route then multiply by V in real
    arithmetic (:func:`~seqmeas.core.matmul`)."""
    evals, evecs = np.linalg.eigh(m)
    if not is_unitary(evecs, CHECK_TOL):
        raise NumericalInvariantError("eigenbasis of H is not unitary to 1e-10")
    return evals, evecs


def propagator(h, t: float) -> Propagator:
    """exp(-i t H) via eigendecomposition; accepts a Hamiltonian (whose
    cached spectrum is reused across times) or a matrix."""
    if isinstance(h, Hamiltonian):
        evals, evecs = h.spectrum
    else:
        evals, evecs = _checked_spectrum(_check_hermitian_matrix(h))
    return Propagator(evals, evecs, float(t))


def heisenberg(obs, u, targets=None) -> np.ndarray:
    """Heisenberg-evolved operator U^dag B U, with B on ``targets`` of U's
    register (default: all of it); preserves B^2 = 1.  ``u`` is a matrix,
    a :class:`Propagator` or a :class:`ClockPropagator`, whose register
    holds the ancilla too: its (2 dim)^2 matrix is written for this.

    A Pauli string forms B U by its signed row gather and B(t) as
    (B U)^dag U, one product that equals the triple product bit for bit;
    a raw observable matrix is embedded on ``targets`` first.  U and B
    keep the dtypes :func:`~seqmeas.core._as_real_or_complex` gives them,
    so a real U with a real B (a Pauli string with an even number of Y
    factors) gives a real B(t), formed in real arithmetic.
    """
    um = _as_real_or_complex(getattr(u, "matrix", u))
    dim = um.shape[0]
    n = dim.bit_length() - 1
    if um.shape != (dim, dim) or dim != 2**n:
        raise ValueError(f"evolution shape {um.shape} is not 2^n x 2^n")
    if targets is None:
        targets = range(n)
    if isinstance(obs, PauliString):
        perm, d = obs.action(n, targets)
        return matmul((d[:, None] * um[perm]).conj().T, um)
    return matmul(matmul(um.conj().T, embed(obs, n, targets)), um)


def heisenberg_phases(b_frame: np.ndarray, u: Propagator) -> np.ndarray:
    """B(t) = U^dag B U in the eigenbasis V of H, from B in that basis,
    ``b_frame`` = V^dag B V, and the propagator U = V e^{-iEt} V^dag of H:
    V^dag B(t) V = e^{iEt} (V^dag B V) e^{-iEt}, the elementwise scaling of
    entry (j, k) by e^{iE_j t} e^{-iE_k t}.  One O(dim^2) pass; neither U
    nor a product is formed."""
    phases = u.phases
    bt = phases.conj()[:, None] * b_frame
    bt *= phases
    return bt


@dataclass(frozen=True)
class ClockPropagator:
    """exp(-i t H (x) Z) with a time-direction ancilla on the last slot,
    held as its system evolution U = exp(-i t H): a :class:`Propagator`
    or a 2^n x 2^n matrix with n >= 1, else ``ValueError`` is raised.

    Ancilla |1> runs U forward (Z|1> = +|1>), ancilla |0> runs U^dag
    backward, so X_anc U_c X_anc = U_c^dag: a sequence that starts with
    the ancilla in |1> and reverses time by flipping it around U_c stays
    in the |1> sector and sees only U and its adjoint.  The 2^(n+1) x
    2^(n+1) ``matrix`` is written on first use.
    """

    system: Propagator | np.ndarray

    def __post_init__(self):
        shape = np.shape(getattr(self.system, "evecs", self.system))
        dim = shape[0] if shape else 0
        if shape != (dim, dim) or dim < 2 or dim & (dim - 1):
            raise ValueError(f"clock system evolution has shape {shape}, not 2^n x 2^n")

    @classmethod
    def from_matrix(cls, m, n_system: int) -> "ClockPropagator":
        """The clock from its full matrix, which must be 2^(n_system+1)
        square, block diagonal in the ancilla and with its |0> sector the
        adjoint of its |1> sector to 1e-10, else ``ValueError`` is raised."""
        m = np.asarray(m)
        dim = 2**n_system
        if m.shape != (2 * dim, 2 * dim):
            raise ValueError(
                f"clock propagator for {n_system} system qubits has shape "
                f"{m.shape}, expected {(2 * dim, 2 * dim)}"
            )
        view = m.reshape(dim, 2, dim, 2)
        off = max(np.max(np.abs(view[:, 0, :, 1])), np.max(np.abs(view[:, 1, :, 0])))
        if not off <= CHECK_TOL:
            raise ValueError(
                f"clock propagator is not block diagonal in the ancilla "
                f"(off-diagonal block {off:.3e})"
            )
        dev = np.max(np.abs(view[:, 0, :, 0] - view[:, 1, :, 1].conj().T))
        if not dev <= CHECK_TOL:
            raise ValueError(
                f"clock propagator's backward sector is not the adjoint of its "
                f"forward sector (deviation {dev:.3e})"
            )
        return cls(view[:, 1, :, 1].copy())

    @property
    def n_system(self) -> int:
        return len(getattr(self.system, "evecs", self.system)).bit_length() - 1

    @property
    def forward(self) -> np.ndarray:
        return getattr(self.system, "matrix", self.system)

    @property
    def backward(self) -> np.ndarray:
        return self.forward.conj().T

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        u = self.forward
        dim = u.shape[0]
        m = np.zeros((dim, 2, dim, 2), dtype=np.complex128)
        m[:, 0, :, 0] = u.conj().T
        m[:, 1, :, 1] = u
        return m.reshape(2 * dim, 2 * dim)


def time_reversed_evolution(h, t: float) -> ClockPropagator:
    """Extend H to H (x) Z on system plus one ancilla qubit.

    Since Z = diag(-1, +1) is diagonal, exp(-i t H (x) Z) is block
    diagonal in the ancilla: |1> runs U = exp(-i t H) forward, |0> runs
    U^dag backward.  The clock holds U as the :class:`Propagator` of H, so
    a protocol takes the same route with it as with U itself.
    """
    return ClockPropagator(propagator(h, t))
