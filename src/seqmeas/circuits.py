"""Gate-level circuits and synthesis of ancilla-coupling measurement circuits.

The synthesized circuits realize the coupling exp[-i(phi/2) A (x) Y_anc]
for a Pauli-string observable A, using only single-qubit rotations plus
one chosen two-qubit entangler (CZ or ZX-90).  The construction is
contract-driven: the Kraus operators induced on the system by the ancilla
readout must match the analytic informative/noninformative pairs up to a
global phase per outcome.  The gate sequence itself is an implementation
choice, verified numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import embed, is_unitary  # noqa: F401  embed: perfbench/spans.py traces it by this name
from .measurement import _validate_phi
from .observables import PauliString, basis_ket, entangling_gate, rotation_gate

ROTATIONS = ("rx", "ry", "rz")
ENTANGLERS = ("cz", "zx90")


@dataclass(frozen=True)
class Gate:
    """One gate: a rotation ('rx','ry','rz' with angle), an entangler
    ('cz','zx90'), or 'custom' with an explicit unitary."""

    name: str
    targets: tuple[int, ...]
    angle: float | None = None
    matrix_override: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        name = self.name.lower()
        object.__setattr__(self, "name", name)
        targets = tuple(int(t) for t in self.targets)
        if len(set(targets)) != len(targets):
            raise ValueError(f"gate targets must be distinct, got {targets}")
        object.__setattr__(self, "targets", targets)
        if name in ROTATIONS:
            if len(targets) != 1:
                raise ValueError(f"{name} acts on exactly one qubit")
            if self.angle is None:
                raise ValueError(f"{name} needs an angle")
        elif name in ENTANGLERS:
            if len(targets) != 2:
                raise ValueError(f"{name} acts on exactly two qubits")
        elif name == "custom":
            m = self.matrix_override
            if m is None:
                raise ValueError("custom gate needs a matrix")
            m = np.array(m, dtype=np.complex128)
            if m.shape != (2 ** len(targets),) * 2:
                raise ValueError(
                    f"custom matrix shape {m.shape} does not fit {len(targets)} qubits"
                )
            if not is_unitary(m):
                raise ValueError("custom gate matrix is not unitary to 1e-10")
            m.flags.writeable = False
            object.__setattr__(self, "matrix_override", m)
        else:
            raise ValueError(f"unknown gate {self.name!r}")

    def matrix(self) -> np.ndarray:
        if self.name in ROTATIONS:
            return rotation_gate(self.name[1], self.angle)
        if self.name in ENTANGLERS:
            return entangling_gate(self.name)
        return self.matrix_override


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on a fixed register; gates[0] is applied first."""

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            for t in g.targets:
                if t < 0 or t >= self.n_qubits:
                    raise ValueError(
                        f"gate target {t} out of range for {self.n_qubits} qubits"
                    )

    def unitary(self) -> np.ndarray:
        """The product of the gates, each applied to its target axes of the
        running unitary, held as a ``(2,)*n + (dim,)`` tensor: the targets
        are transposed to the front, the ``2^k x 2^k`` gate multiplies them
        in one product, and the axes stay in that order until the next
        gate moves them.  No embedded dim x dim gate is formed.  A gate's
        slots are first put in register order, so each entry sums its
        terms in the order of ``embed(gate) @ u``, and the result equals
        that product bit for bit."""
        n = self.n_qubits
        dim = 2**n
        u = np.eye(dim, dtype=np.complex128).reshape((2,) * n + (dim,))
        held = list(range(n))  # held[i]: the qubit on axis i of u
        for g in self.gates:
            m, targets = g.matrix(), list(g.targets)
            k = len(targets)
            if targets != sorted(targets):
                slots = np.argsort(targets)
                m = m.reshape((2,) * 2 * k).transpose([*slots, *(k + slots)])
                m = m.reshape(2**k, 2**k)
                targets.sort()
            order = [held.index(q) for q in targets]
            order += [i for i in range(n) if i not in order]
            held = [held[i] for i in order]
            u = (m @ u.transpose(order + [n]).reshape(2**k, -1)).reshape(u.shape)
        return u.transpose([held.index(q) for q in range(n)] + [n]).reshape(dim, dim)


@dataclass(frozen=True)
class MeasurementCircuit:
    """A synthesized generalized measurement of ``observable``.

    The ancilla (last register slot) is prepared in |x->, the gates are
    applied, and the ancilla is read out in the tagged basis ('z' for
    informative, 'y' for noninformative; on hardware the y readout is an
    Rx(pi/2) pre-rotation followed by a z readout).
    """

    circuit: Circuit
    ancilla: int
    readout_basis: str
    observable: PauliString
    phi: float
    kind: str
    gateset: str
    ancilla_prep: str = "x-"


# ---------------------------------------------------------------------------
# internal op list for U_A: ("rot", axis, angle, qubit) | ("cnot", ctrl, tgt)


def _cnot_gates(gateset: str, control: int, target: int) -> list[Gate]:
    # CZ:    CNOT = (1 (x) Ry(pi/2)) CZ (1 (x) Ry(-pi/2))
    # ZX90:  CNOT = (Rz(-pi/2) (x) 1) ZX90 (1 (x) Rx(pi/2)) up to global phase
    if gateset == "cz":
        return [
            Gate("ry", (target,), -math.pi / 2),
            Gate("cz", (control, target)),
            Gate("ry", (target,), math.pi / 2),
        ]
    return [
        Gate("rx", (target,), math.pi / 2),
        Gate("zx90", (control, target)),
        Gate("rz", (control,), -math.pi / 2),
    ]


def _emit(ops, gateset: str, forward: bool) -> list[Gate]:
    gates: list[Gate] = []
    seq = ops if forward else reversed(ops)
    for op in seq:
        if op[0] == "rot":
            _, axis, angle, qubit = op
            gates.append(Gate("r" + axis, (qubit,), angle if forward else -angle))
        else:
            _, control, target = op
            # CNOT is an involution, so its decomposition serves both ways.
            gates.extend(_cnot_gates(gateset, control, target))
    return gates


_LOCAL_TO_Z = {"X": ("y", math.pi / 2), "Y": ("x", -math.pi / 2)}


def _basis_change_ops(a: PauliString) -> list:
    """Conceptual ops for U_A with U_A Z_pivot U_A^dag = A."""
    support = a.support
    pivot = support[0]
    ops: list = []
    # Each CNOT fold contributes a factor -Z_q, so fix the net sign first.
    if a.sign * (-1) ** (len(support) - 1) < 0:
        ops.append(("rot", "x", math.pi, pivot))
    for q in support[1:]:
        ops.append(("cnot", q, pivot))
    for q in support:
        local = _LOCAL_TO_Z.get(a.factors[q])
        if local is not None:
            axis, angle = local
            ops.append(("rot", axis, angle, q))
    return ops


def synthesize_measurement_circuit(
    a: PauliString, phi: float, kind: str, gateset: str
) -> MeasurementCircuit:
    """Build the ancilla-coupled measurement circuit for observable ``a``.

    The induced system Kraus operators per ancilla outcome equal the
    analytic informative (M) or noninformative (N) pair up to a global
    phase per outcome.
    """
    if a.is_identity():
        raise ValueError("cannot synthesize a measurement of the identity")
    phi = _validate_phi(phi)
    if kind not in ("informative", "noninformative"):
        raise ValueError(f"unknown measurement kind {kind!r}")
    gateset = gateset.lower()
    if gateset not in ENTANGLERS:
        raise ValueError(f"unknown gateset {gateset!r}")

    n = a.n_qubits
    ancilla = n  # always appended as the last register slot
    pivot = a.support[0]
    ua = _basis_change_ops(a)

    gates = _emit(ua, gateset, forward=False)
    # exp[-i(phi/2) Z_pivot (x) Y_anc] =
    #   (1 (x) Rx(-pi/2)) CNOT (1 (x) Rz(-phi)) CNOT (1 (x) Rx(pi/2))
    gates.append(Gate("rx", (ancilla,), math.pi / 2))
    gates.extend(_cnot_gates(gateset, pivot, ancilla))
    gates.append(Gate("rz", (ancilla,), -phi))
    gates.extend(_cnot_gates(gateset, pivot, ancilla))
    gates.append(Gate("rx", (ancilla,), -math.pi / 2))
    gates.extend(_emit(ua, gateset, forward=True))

    return MeasurementCircuit(
        circuit=Circuit(n + 1, tuple(gates)),
        ancilla=ancilla,
        readout_basis="z" if kind == "informative" else "y",
        observable=a,
        phi=phi,
        kind=kind,
        gateset=gateset,
    )


def induced_kraus(mc: MeasurementCircuit) -> tuple[np.ndarray, np.ndarray]:
    """System Kraus operators (outcome 0, outcome 1) induced by the circuit.

    K_a = <a| U_circuit |x->_anc, a partial matrix element over the
    ancilla slot; outcome 1 corresponds to the '+' readout state.
    """
    n_sys = mc.circuit.n_qubits - 1
    u = mc.circuit.unitary().reshape(2**n_sys, 2, 2**n_sys, 2)
    prep = basis_ket(mc.ancilla_prep)
    bras = (
        basis_ket(mc.readout_basis + "-").conj(),
        basis_ket(mc.readout_basis + "+").conj(),
    )
    return tuple(np.einsum("p,ipjq,q->ij", bra, u, prep) for bra in bras)
