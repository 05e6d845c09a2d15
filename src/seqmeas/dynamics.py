"""Hamiltonians and exact propagators for scrambling demonstrations.

Propagators are built by Hermitian eigendecomposition (no Trotterization),
so evolution is exact to roundoff and does not pollute the 1e-10 identity
checks elsewhere.  hbar = 1 throughout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import CHECK_TOL, is_hermitian, tensor
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
        dim = 2**self.n_qubits
        m = np.zeros((dim, dim), dtype=np.complex128)
        for coeff, p in self.terms:
            m += coeff * p.matrix()
        return m

    @functools.cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """``eigh`` of the Hermiticity-checked matrix, computed once."""
        evals, evecs = np.linalg.eigh(_check_hermitian_matrix(self))
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
    """exp(-i t H) together with the duration it realizes."""

    matrix: np.ndarray
    duration: float

    def dagger(self) -> "Propagator":
        return Propagator(self.matrix.conj().T.copy(), -self.duration)


def _check_hermitian_matrix(h) -> np.ndarray:
    m = h.matrix() if isinstance(h, Hamiltonian) else np.asarray(h, dtype=np.complex128)
    if not is_hermitian(m, CHECK_TOL):
        raise ValueError("Hamiltonian is not Hermitian to 1e-10")
    return m


def propagator(h, t: float) -> Propagator:
    """exp(-i t H) via eigendecomposition; accepts a Hamiltonian (whose
    cached spectrum is reused across times) or a matrix."""
    if isinstance(h, Hamiltonian):
        evals, evecs = h.spectrum
    else:
        evals, evecs = np.linalg.eigh(_check_hermitian_matrix(h))
    u = (evecs * np.exp(-1j * t * evals)) @ evecs.conj().T
    return Propagator(u, float(t))


def heisenberg(obs, u) -> np.ndarray:
    """Heisenberg-evolved operator U^dag B U; preserves B^2 = 1."""
    b = obs.matrix() if isinstance(obs, PauliString) else np.asarray(obs, dtype=np.complex128)
    um = u.matrix if isinstance(u, Propagator) else np.asarray(u, dtype=np.complex128)
    if b.shape != um.shape:
        raise ValueError(f"operator shape {b.shape} does not match evolution {um.shape}")
    return um.conj().T @ b @ um


@dataclass(frozen=True)
class ClockPropagator:
    """exp(-i t H (x) Z) with a time-direction ancilla on the last slot.

    With the ancilla in |1> the system evolves forward (Z|1> = +|1>), with
    the ancilla in |0> it evolves backward.
    """

    matrix: np.ndarray
    duration: float
    n_system: int

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
    the ancilla and is assembled from the system propagator.
    """
    u = propagator(h, t).matrix
    n_system = int(round(np.log2(u.shape[0])))
    u_ext = tensor(u.conj().T, np.diag([1.0, 0.0])) + tensor(u, np.diag([0.0, 1.0]))
    return ClockPropagator(u_ext, float(t), n_system)
