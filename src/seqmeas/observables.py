"""Pauli strings and the elementary gate set.

Single-qubit matrices follow the superconducting convention documented in
:mod:`seqmeas.core`: Z = |1><1| - |0><0| = diag(-1, +1), Y = -i|1><0| +
i|0><1|, X = |1><0| + |0><1|.  The cyclic algebra XY = iZ, YZ = iX,
ZX = iY is unchanged, so every rotation identity transcribes verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _check_targets, tensor

PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, 1j], [-1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[-1, 0], [0, 1]], dtype=np.complex128)

PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

_SQRT2 = math.sqrt(2.0)

# Eigenstates in the (|0>, |1>) amplitude ordering.
_KETS = {
    "z+": np.array([0, 1], dtype=np.complex128),
    "z-": np.array([1, 0], dtype=np.complex128),
    "y+": np.array([1j, 1], dtype=np.complex128) / _SQRT2,
    "y-": np.array([-1j, 1], dtype=np.complex128) / _SQRT2,
    "x+": np.array([1, 1], dtype=np.complex128) / _SQRT2,
    "x-": np.array([-1, 1], dtype=np.complex128) / _SQRT2,
}


def basis_ket(label: str) -> np.ndarray:
    """Single-qubit eigenstate by label: 'z+', 'z-', 'y+', 'y-', 'x+', 'x-'."""
    try:
        return _KETS[label].copy()
    except KeyError:
        raise ValueError(f"unknown basis ket {label!r}") from None


@dataclass(frozen=True)
class PauliString:
    """Signed tensor product of single-qubit Pauli/identity factors.

    Serialized as sign then per-qubit letter in slot order, e.g. "+XIZY".
    Squares to the identity and is Hermitian by construction.
    """

    factors: tuple[str, ...]
    sign: int = 1

    def __post_init__(self):
        factors = tuple(str(f).upper() for f in self.factors)
        if not factors:
            raise ValueError("PauliString needs at least one factor")
        for f in factors:
            if f not in PAULIS:
                raise ValueError(f"unknown Pauli factor {f!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        object.__setattr__(self, "factors", factors)
        # (n_qubits, targets) -> the read-only (perm, d) of :meth:`action`.
        object.__setattr__(self, "_actions", {})

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        s = text.strip()
        sign = 1
        if s.startswith("+"):
            s = s[1:]
        elif s.startswith("-"):
            sign = -1
            s = s[1:]
        if not s:
            raise ValueError(f"empty Pauli string in {text!r}")
        return cls(tuple(s), sign)

    def __str__(self) -> str:
        return ("+" if self.sign > 0 else "-") + "".join(self.factors)

    @property
    def n_qubits(self) -> int:
        return len(self.factors)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.factors) if f != "I")

    def is_identity(self) -> bool:
        return not self.support

    def matrix(self) -> np.ndarray:
        """The ``complex128`` matrix, scattered from the signed permutation
        (row i holds d[i] in column perm[i]); no Kronecker products."""
        dim = 2**self.n_qubits
        perm, d = self.action(self.n_qubits)
        m = np.zeros((dim, dim), dtype=np.complex128)
        m[np.arange(dim), perm] = d
        return m

    def action(self, n_qubits: int, targets=None) -> tuple[np.ndarray, np.ndarray]:
        """Signed-permutation action on an ``n_qubits`` register.

        Returns ``(perm, d)`` such that, with the string embedded on
        ``targets`` (default: the whole register), ``(P X)[i] =
        d[i] X[perm[i]]`` and, P being Hermitian, ``(X P)[:, j] =
        conj(d[j]) X[:, perm[j]]``.  Built per factor in O(n 2^n) without
        forming the matrix, on the first call for a register size and
        target tuple, and then shared: both arrays are read-only.  The
        signs ``d`` are ``float64`` for a string with an even number of Y
        factors, and ``complex128`` otherwise.
        """
        targets = _check_targets(n_qubits, range(n_qubits) if targets is None else targets)
        if len(targets) != self.n_qubits:
            raise ValueError(
                f"{self.n_qubits}-qubit Pauli string got {len(targets)} target(s)"
            )
        key = (n_qubits, targets)
        if key not in self._actions:
            self._actions[key] = self._build_action(n_qubits, targets)
        return self._actions[key]

    def _build_action(self, n_qubits: int, targets: tuple[int, ...]):
        index = np.arange(2**n_qubits)
        flip = 0
        y_count = self.factors.count("Y")
        # Each Y contributes a factor i, and i^y_count is real for an even count.
        phase = (-1) ** (y_count // 2) * (1j if y_count % 2 else 1.0)
        d = np.full(index.shape, self.sign * phase)
        for f, q in zip(self.factors, targets):
            shift = n_qubits - 1 - q
            if f in "XY":
                flip |= 1 << shift
            if f in "YZ":
                bit = (index >> shift) & 1
                # Y[0, 1] = i, Y[1, 0] = -i: i (1 - 2 bit); Z = diag(-1, +1)
                d *= 1 - 2 * bit if f == "Y" else 2 * bit - 1
        perm = index ^ flip
        perm.flags.writeable = False
        d.flags.writeable = False
        return perm, d

    def commutes_with(self, other: "PauliString") -> bool:
        """True iff the two strings commute (they otherwise anticommute)."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("Pauli strings act on different register sizes")
        clashes = sum(
            1
            for a, b in zip(self.factors, other.factors)
            if a != "I" and b != "I" and a != b
        )
        return clashes % 2 == 0


def pauli_matrix(p: PauliString) -> np.ndarray:
    return p.matrix()


def rotation_gate(axis: str, angle: float) -> np.ndarray:
    """exp[-i(angle/2) P_axis] in closed form, axis in {'x','y','z'}."""
    try:
        pauli = PAULIS[axis.upper()]
    except KeyError:
        raise ValueError(f"unknown rotation axis {axis!r}") from None
    if axis.upper() == "I":
        raise ValueError("rotation axis must be x, y or z")
    half = angle / 2.0
    return math.cos(half) * PAULI_I - 1j * math.sin(half) * pauli


CZ_MATRIX = tensor(np.diag([0, 1]).astype(np.complex128), PAULI_Z) + tensor(
    np.diag([1, 0]).astype(np.complex128), PAULI_I
)
ZX90_MATRIX = math.cos(math.pi / 4) * np.eye(4) - 1j * math.sin(math.pi / 4) * tensor(
    PAULI_Z, PAULI_X
)


def entangling_gate(kind: str) -> np.ndarray:
    """The two-qubit entangler: 'cz' = |1><1| (x) Z + |0><0| (x) 1, or
    'zx90' = exp[-i(pi/4) Z (x) X] (first slot carries the Z)."""
    kind = kind.lower()
    if kind == "cz":
        return CZ_MATRIX.copy()
    if kind == "zx90":
        return ZX90_MATRIX.copy()
    raise ValueError(f"unknown entangling gate {kind!r}")


def coupling_unitary(a: PauliString, phi: float) -> np.ndarray:
    """System-ancilla coupling exp[-i(phi/2) A (x) Y], ancilla last.

    Closed form cos(phi/2) 1 - i sin(phi/2) (A (x) Y), valid because the
    generator squares to the identity.
    """
    am = a.matrix()
    gen = tensor(am, PAULI_Y)
    dim = gen.shape[0]
    half = phi / 2.0
    return math.cos(half) * np.eye(dim) - 1j * math.sin(half) * gen
