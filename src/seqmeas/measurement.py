"""Analytic Kraus pairs, generalized eigenvalues, and detector algebra.

For an observable A with A^2 = 1, strength angle phi in (0, pi/2] and
outcome a in {0, 1} (sign (-1)^(1+a), so a = 1 is the '+' branch):

* informative:     M_a = (-1)^(1+a)/sqrt(2) [cos(phi/2) 1 + (-1)^(1+a) sin(phi/2) A]
* noninformative:  N_a = 1/sqrt(2) [cos(phi/2) 1 - (-1)^(1+a) i sin(phi/2) A]
                         * exp((-1)^(1+a) i pi/4)
* generalized eigenvalue: alpha_{phi,a} = (-1)^(a+1)/sin(phi)

The per-outcome phase factors are kept on the analytic pairs but carry no
physical weight; circuit-versus-analytic comparisons ignore them.  phi = 0
is a hard error (alpha diverges), and the range is not extended past pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CHECK_TOL,
    DensityMatrix,
    PureState,
    _as_real_or_complex,
    embed,
    identity_deviation,
    is_hermitian,
)
from .observables import PAULI_Y, PauliString, basis_ket

INFORMATIVE = "informative"
NONINFORMATIVE = "noninformative"
KINDS = (INFORMATIVE, NONINFORMATIVE)

_SQRT2 = math.sqrt(2.0)


class DivergentModularValueError(ValueError):
    """Zero detector overlap with a nonzero transition amplitude.

    The modular-value picture breaks down; ``numerator`` carries the
    surviving transition amplitude for the caller to act on.
    """

    def __init__(self, message: str, numerator: complex):
        super().__init__(message)
        self.numerator = numerator


def _validate_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return kind


def _validate_phi(phi: float) -> float:
    phi = float(phi)
    if not 0.0 < phi <= math.pi / 2:
        raise ValueError(f"phi must lie in (0, pi/2], got {phi}")
    if math.isinf(1.0 / math.sin(phi)):  # below about 5.6e-309
        raise ValueError(f"phi = {phi} is so small that 1/sin(phi) overflows")
    return phi


def _raw_observable(obs) -> tuple[np.ndarray, np.ndarray, float]:
    """A raw observable matrix, its square and the square's deviation
    max |A^2 - 1|, checked 2^n x 2^n with n >= 1, Hermitian and with
    A^2 = 1 to 1e-10.  The matrices are ``float64`` for a real matrix
    (such as a Pauli string without Y factors, or a real observable
    carried into the eigenbasis of a real H), which is checked and squared
    in real arithmetic, and ``complex128`` otherwise
    (:func:`~seqmeas.core._as_real_or_complex`)."""
    m = _as_real_or_complex(obs)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("observable must be a square matrix or PauliString")
    dim = m.shape[0]
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"observable shape {m.shape} is not 2^n x 2^n for n >= 1")
    if not is_hermitian(m):
        raise ValueError("observable is not Hermitian to 1e-10")
    square = m @ m
    square_dev = identity_deviation(square)
    if square_dev > CHECK_TOL:
        raise ValueError("observable does not square to the identity to 1e-10")
    return m, square, square_dev


def _observable_matrix(obs) -> np.ndarray:
    if isinstance(obs, PauliString):
        return obs.matrix()
    return _raw_observable(obs)[0]


@dataclass(frozen=True)
class MeasurementSpec:
    """One generalized measurement: observable, strength angle, kind.

    ``observable`` is normally a PauliString; a raw Hermitian matrix with
    A^2 = 1 (e.g. a Heisenberg-evolved Pauli) is accepted too, and stored
    as ``float64`` if it is real, else as ``complex128``.  For the engine
    a raw matrix's spec keeps the square its check formed, ``_square``,
    which an effect reads, and that check's deviation max |A^2 - 1|,
    ``_square_dev``, which bounds the completeness of its Kraus pair.
    """

    observable: PauliString | np.ndarray
    phi: float
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "phi", _validate_phi(self.phi))
        _validate_kind(self.kind)
        # Pauli strings are valid by construction; a raw matrix is checked
        # once and kept as a read-only copy, so later changes to the
        # caller's array cannot reach the spec.  Its square and the square's
        # deviation, formed for the check, are kept for the engine.
        if not isinstance(self.observable, PauliString):
            m, square, square_dev = _raw_observable(self.observable)
            m = np.array(m)
            m.flags.writeable = False
            square.flags.writeable = False
            object.__setattr__(self, "observable", m)
            object.__setattr__(self, "_square", square)
            object.__setattr__(self, "_square_dev", square_dev)

    def with_phi(self, phi: float, kind: str | None = None) -> "MeasurementSpec":
        """The same measurement at strength ``phi``, and of ``kind`` if one
        is given.  The copy shares the checked observable (and a raw
        matrix's square) instead of forming and checking them again.  It is
        copied through its ``__dict__``: ``copy.copy`` took about three
        times as long, and every B(t) step of a sequence is one such copy."""
        spec = object.__new__(type(self))
        spec.__dict__.update(self.__dict__)
        object.__setattr__(spec, "phi", _validate_phi(phi))
        if kind is not None:
            object.__setattr__(spec, "kind", _validate_kind(kind))
        return spec

    def matrix(self) -> np.ndarray:
        if isinstance(self.observable, PauliString):
            return self.observable.matrix()
        return self.observable

    @property
    def n_qubits(self) -> int:
        if isinstance(self.observable, PauliString):
            return self.observable.n_qubits
        return int(round(math.log2(self.observable.shape[0])))


@dataclass(frozen=True)
class KrausPair:
    """Kraus operators for the two ancilla outcomes; complete to 1e-12."""

    outcome0: np.ndarray
    outcome1: np.ndarray

    def __post_init__(self):
        k0 = np.array(self.outcome0, dtype=np.complex128)
        k1 = np.array(self.outcome1, dtype=np.complex128)
        total = k0.conj().T @ k0 + k1.conj().T @ k1
        dev = identity_deviation(total)
        if not dev <= 1e-12:
            raise ValueError(f"Kraus pair violates completeness by {dev:.3e}")
        k0.flags.writeable = False
        k1.flags.writeable = False
        object.__setattr__(self, "outcome0", k0)
        object.__setattr__(self, "outcome1", k1)

    def __getitem__(self, outcome: int) -> np.ndarray:
        if outcome == 0:
            return self.outcome0
        if outcome == 1:
            return self.outcome1
        raise IndexError(f"outcome must be 0 or 1, got {outcome}")

    def effects(self) -> tuple[np.ndarray, np.ndarray]:
        """POVM effects K_a^dag K_a."""
        return tuple(self[a].conj().T @ self[a] for a in (0, 1))


def outcome_sign(outcome: int) -> int:
    """(-1)^(1+a): outcome 1 is the '+' branch."""
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    return 1 if outcome == 1 else -1


def generalized_eigenvalue(phi: float, outcome: int) -> float:
    """alpha_{phi,a} = (-1)^(a+1)/sin(phi); reduces to +-1 at phi = pi/2."""
    phi = _validate_phi(phi)
    return outcome_sign(outcome) / math.sin(phi)


def kraus_coefficients(spec: MeasurementSpec) -> tuple[tuple[complex, complex], ...]:
    """Per-outcome ``(c0, c1)`` with K_a = c0 1 + c1 A, for either kind."""
    c, s = math.cos(spec.phi / 2), math.sin(spec.phi / 2)
    coeffs = []
    for out in (0, 1):
        sgn = outcome_sign(out)
        if spec.kind == INFORMATIVE:
            scale = sgn / _SQRT2
            coeffs.append((complex(scale * c), complex(scale * (sgn * s))))
        else:
            scale = np.exp(sgn * 1j * math.pi / 4) / _SQRT2
            coeffs.append((complex(scale * c), complex(scale * (-sgn * 1j * s))))
    return tuple(coeffs)


def _dense_pair(spec: MeasurementSpec, kind: str) -> KrausPair:
    if spec.kind != kind:
        raise ValueError(f"spec kind is {spec.kind!r}, expected {kind}")
    a = spec.matrix()
    eye = np.eye(a.shape[0])
    return KrausPair(*(c0 * eye + c1 * a for c0, c1 in kraus_coefficients(spec)))


def informative_kraus(spec: MeasurementSpec) -> KrausPair:
    """Partial projection onto the observable's eigenspaces (M pair)."""
    return _dense_pair(spec, INFORMATIVE)


def noninformative_kraus(spec: MeasurementSpec) -> KrausPair:
    """Outcome-conditioned unitary rotation generated by the observable (N
    pair); each effect is 1/2, so outcomes carry no state information."""
    return _dense_pair(spec, NONINFORMATIVE)


def kraus_pair(spec: MeasurementSpec) -> KrausPair:
    if spec.kind == INFORMATIVE:
        return informative_kraus(spec)
    return noninformative_kraus(spec)


def state_update(
    state: DensityMatrix, spec: MeasurementSpec, outcome: int, targets=None
) -> tuple[np.ndarray, float]:
    """Unnormalized conditional state K_a rho K_a^dag and its trace.

    ``targets`` embeds the measurement on a sub-register (default: the
    observable spans the whole register).
    """
    k = kraus_pair(spec)[outcome]
    if targets is None:
        targets = range(state.n_qubits)
    k = embed(k, state.n_qubits, targets)
    updated = k @ state.matrix @ k.conj().T
    return updated, float(np.real(np.trace(updated)))


# ---------------------------------------------------------------------------
# Detector algebra: modular values, weak values, calibration.


@dataclass(frozen=True)
class DetectorConfig:
    """A single-qubit ancilla detector: initial state, coupling observable
    D, and the ordered readout basis (outcome-0 state, outcome-1 state)."""

    initial_state: PureState
    coupling_observable: np.ndarray
    readout_basis: tuple[PureState, PureState]

    def __post_init__(self):
        if self.initial_state.n_qubits != 1:
            raise ValueError("detector initial state must be a single qubit")
        d = np.asarray(self.coupling_observable, dtype=np.complex128)
        if d.shape != (2, 2) or not is_hermitian(d):
            raise ValueError("coupling observable must be a 2x2 Hermitian matrix")
        object.__setattr__(self, "coupling_observable", d)
        b0, b1 = self.readout_basis
        if b0.n_qubits != 1 or b1.n_qubits != 1:
            raise ValueError("readout basis states must be single qubits")
        if abs(np.vdot(b0.amplitudes, b1.amplitudes)) > CHECK_TOL:
            raise ValueError("readout basis states are not orthogonal")

    def readout_bra(self, outcome: int) -> np.ndarray:
        return self.readout_basis[outcome].amplitudes.conj()


def canonical_detector(kind: str) -> DetectorConfig:
    """The canonical detector: |x-> initial state, D = Y, and a z
    (informative) or y (noninformative) readout."""
    basis = "z" if _validate_kind(kind) == INFORMATIVE else "y"
    return DetectorConfig(
        initial_state=PureState(1, basis_ket("x-")),
        coupling_observable=PAULI_Y,
        readout_basis=(
            PureState(1, basis_ket(basis + "-")),
            PureState(1, basis_ket(basis + "+")),
        ),
    )


def _detector_exp(detector: DetectorConfig, angle: float) -> np.ndarray:
    """exp(-i angle D / 2) via the Hermitian eigendecomposition of D."""
    evals, evecs = np.linalg.eigh(detector.coupling_observable)
    return (evecs * np.exp(-1j * angle / 2 * evals)) @ evecs.conj().T


def _overlap_ratio(num: complex, den: complex, what: str) -> complex:
    if abs(den) <= 1e-14:
        raise DivergentModularValueError(
            f"{what} diverges: readout state is orthogonal to the detector "
            f"initial state (numerator {num})",
            numerator=num,
        )
    return num / den


def modular_value(
    lam: float, phi: float, detector: DetectorConfig, outcome_state: PureState
) -> complex:
    """<a| exp(-i phi lam D / 2) |psi> / <a|psi>.

    For a qubit detector with D^2 = 1 this equals
    cos(phi lam / 2) - i sin(phi lam / 2) D_w with D_w the first-order
    weak value, making the backaction linear in the system observable.
    """
    bra = outcome_state.amplitudes.conj()
    psi = detector.initial_state.amplitudes
    num = complex(bra @ _detector_exp(detector, phi * lam) @ psi)
    den = complex(bra @ psi)
    return _overlap_ratio(num, den, "modular value")


def weak_value(n: int, detector: DetectorConfig, outcome_state: PureState) -> complex:
    """n-th order detector weak value <a| D^n |psi> / <a|psi>."""
    if n < 0:
        raise ValueError("weak-value order must be nonnegative")
    bra = outcome_state.amplitudes.conj()
    psi = detector.initial_state.amplitudes
    dn = np.linalg.matrix_power(detector.coupling_observable, n)
    num = complex(bra @ dn @ psi)
    den = complex(bra @ psi)
    return _overlap_ratio(num, den, f"weak value of order {n}")


def kraus_from_detector(
    observable, phi: float, detector: DetectorConfig
) -> KrausPair:
    """Kraus pair from first principles: spectral sum over the observable's
    eigenspaces of the detector transition amplitudes.

    Independent of the closed informative/noninformative forms; used to
    cross-check them and the modular-value linearization.
    """
    phi = _validate_phi(phi)
    a = _observable_matrix(observable)
    evals, evecs = np.linalg.eigh(a)
    psi = detector.initial_state.amplitudes
    ops = []
    for out in (0, 1):
        bra = detector.readout_bra(out)
        k = np.zeros_like(a)
        for lam, vec in zip(evals, evecs.T):
            amp = complex(bra @ _detector_exp(detector, phi * lam) @ psi)
            k = k + amp * np.outer(vec, vec.conj())
        ops.append(k)
    return KrausPair(*ops)


@dataclass(frozen=True)
class CalibrationResult:
    """Least-squares generalized eigenvalues and the fit residual.

    ``alphas[a]`` is the value to assign outcome ``a``; ``residual`` is
    ||C alpha - lambda||_2 and is nonzero when the Kraus pair carries no
    information about the observable (e.g. noninformative pairs).
    """

    alphas: tuple[float, ...]
    residual: float


def calibrate_generalized_eigenvalues(
    kraus: KrausPair, eigenvalues
) -> CalibrationResult:
    """Solve lambda = C alpha with C[l, a] = <l| K_a^dag K_a |l> by
    Moore-Penrose pseudoinverse.

    Representative eigenvectors |l> are taken from the effect difference
    E_1 - E_0 (proportional to the observable for informative pairs),
    ordered by ascending eigenvalue and paired with the sorted target
    ``eigenvalues``.
    """
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    effects = kraus.effects()
    delta = effects[1] - effects[0]
    _, evecs = np.linalg.eigh(delta)
    dim = delta.shape[0]
    if len(lam) < 1 or len(lam) > dim:
        raise ValueError(
            f"need between 1 and {dim} target eigenvalues, got {len(lam)}"
        )
    # Ascending eigh order; spread representatives across the spectrum.
    idx = np.linspace(0, dim - 1, num=len(lam)).round().astype(int)
    reps = [evecs[:, i] for i in idx]
    c = np.array(
        [[float(np.real(v.conj() @ e @ v)) for e in effects] for v in reps]
    )
    alphas = np.linalg.pinv(c) @ lam
    residual = float(np.linalg.norm(c @ alphas - lam))
    return CalibrationResult(tuple(float(x) for x in alphas), residual)
