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

from .core import CHECK_TOL, NumericalInvariantError, embed, is_hermitian, is_unitary
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
    vectors through the spectrum and never forms it.
    """

    evals: np.ndarray
    evecs: np.ndarray
    duration: float

    @functools.cached_property
    def phases(self) -> np.ndarray:
        """exp(-i t E), the propagator in the eigenbasis of H."""
        return np.exp(-1j * self.duration * self.evals)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return (self.evecs * self.phases) @ self.evecs.conj().T

    def apply(self, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """U x, or U^dag x, for a dim x k block ``x``: two O(dim^2 k)
        products, with V^dag x taken as conj(V^T conj(x)) so that V^dag is
        not formed either."""
        phases = self.phases.conj() if adjoint else self.phases
        y = np.conj(self.evecs.T @ np.conj(x))
        return self.evecs @ (phases[:, None] * y)

    def dagger(self) -> "Propagator":
        """exp(+i t H).  Its matrix is this one's conjugate transpose, formed
        now, so the two are exact adjoints of each other."""
        inverse = Propagator(self.evals, self.evecs, -self.duration)
        inverse.__dict__["matrix"] = self.matrix.conj().T.copy()
        return inverse


def _check_hermitian_matrix(h) -> np.ndarray:
    m = h.matrix() if isinstance(h, Hamiltonian) else np.asarray(h, dtype=np.complex128)
    if not is_hermitian(m, CHECK_TOL):
        raise ValueError("Hamiltonian is not Hermitian to 1e-10")
    return m


def _checked_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a Hermitian matrix; the eigenbasis must be unitary to
    1e-10, since every propagator built from it inherits its error."""
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
    a :class:`Propagator` or a :class:`ClockPropagator` (whose register
    holds the ancilla too).

    A Pauli string forms B U by its signed row gather and B(t) as
    (B U)^dag U, one product that equals the triple product bit for bit;
    a raw observable matrix is embedded on ``targets`` first.
    """
    if isinstance(u, (Propagator, ClockPropagator)):
        um = u.matrix
    else:
        um = np.asarray(u, dtype=np.complex128)
    dim = um.shape[0]
    n = dim.bit_length() - 1
    if um.shape != (dim, dim) or dim != 2**n:
        raise ValueError(f"evolution shape {um.shape} is not 2^n x 2^n")
    if targets is None:
        targets = range(n)
    if isinstance(obs, PauliString):
        perm, d = obs.action(n, targets)
        return (d[:, None] * um[perm]).conj().T @ um
    b = embed(np.asarray(obs, dtype=np.complex128), n, targets)
    return um.conj().T @ b @ um


@dataclass(frozen=True)
class ClockPropagator:
    """exp(-i t H (x) Z) with a time-direction ancilla on the last slot.

    With the ancilla in |1> the system evolves forward (Z|1> = +|1>), with
    the ancilla in |0> it evolves backward.

    The matrix must be 2^(n_system+1) x 2^(n_system+1), block diagonal in
    the ancilla, with its |0> sector the adjoint of its |1> sector, each
    to 1e-10; otherwise ``ValueError`` is raised.  That structure makes
    X_anc U_c X_anc = U_c^dag, so a sequence that starts with the ancilla
    in |1> and reverses time by flipping the ancilla around U_c stays in
    the |1> sector and sees only ``forward`` and its adjoint.
    """

    matrix: np.ndarray
    duration: float
    n_system: int

    def __post_init__(self):
        m = np.asarray(self.matrix)
        dim = 2**self.n_system
        if m.shape != (2 * dim, 2 * dim):
            raise ValueError(
                f"clock propagator for {self.n_system} system qubits has shape "
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

    def sector(self, ancilla_bit: int) -> np.ndarray:
        """System propagator conditioned on the ancilla computational state."""
        if ancilla_bit not in (0, 1):
            raise ValueError(f"ancilla bit must be 0 or 1, got {ancilla_bit}")
        dim = self.matrix.shape[0] // 2
        view = self.matrix.reshape(dim, 2, dim, 2)
        return view[:, ancilla_bit, :, ancilla_bit].copy()

    @property
    def forward(self) -> np.ndarray:
        return self.sector(1)

    @property
    def backward(self) -> np.ndarray:
        return self.sector(0)


def time_reversed_evolution(h, t: float) -> ClockPropagator:
    """Extend H to H (x) Z on system plus one ancilla qubit.

    The returned pair of sector propagators equals exp(-+ i t H): ancilla
    |1> runs time forward, ancilla |0> runs it backward.  Since
    Z = diag(-1, +1) is diagonal, exp(-i t H (x) Z) is block diagonal in
    the ancilla: the system propagator U and its conjugate transpose are
    written into the ancilla blocks of a zero matrix, so the backward
    sector is the adjoint of the forward one exactly and the forward sector
    is U bit for bit.
    """
    u = propagator(h, t).matrix
    dim = u.shape[0]
    n_system = int(round(np.log2(dim)))
    u_ext = np.zeros((dim, 2, dim, 2), dtype=np.complex128)
    u_ext[:, 0, :, 0] = u.conj().T
    u_ext[:, 1, :, 1] = u
    return ClockPropagator(u_ext.reshape(2 * dim, 2 * dim), float(t), n_system)
