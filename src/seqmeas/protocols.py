"""Sequential-measurement engine: exact values and sampled outcome strings.

Every Kraus operator has the form K_a = c0 1 + c1 B, so K_a X K_a^dag is
w0 X + w1 X B + w2 B X + w3 B X B with per-outcome weights w.  For a
Pauli-string observable P the terms come from P's signed permutation of
rows and columns (O(dim^2), no dense Kraus matrix).  For a raw observable
matrix B, BX costs a product and BXB one more, while XB = (BX)^dag costs
none, as every state and effect the engine maps is Hermitian.  A term is
formed once for all the weight tuples a state is mapped with, and not at
all if every weight of it is exactly zero.

The engine sees measurements only.  An evolution is a change of the
measured operator: a measurement of B after the evolutions V = u_k ... u_1
has the outcome distribution and the later effect of measuring V^dag B V
before them, so each evolution folds into every later measurement through
:func:`heisenberg` and trailing evolutions are dropped.

Both modes evaluate a density matrix from the back, in one walk
(:func:`_effects`) that differs only in the weights each step branches
over.  It builds effects Z = E_2^dag ... E_m^dag(1), one four-term update
per measurement (E^dag is E with the XB and BX weights swapped; the last
one is formed from B and B^2 alone), and a value is Tr(E_1(rho) Z),
summed elementwise by the walk's one reader (:func:`_traces`).

Exact mode is the verification reference.  By linearity, the weighted
average over outcome strings is Tr(E_m ... E_1(rho)) with the transfer
map E_k(X) = sum_a alpha_a K_a X K_a^dag, whose weights are
W = sum_a alpha_a w_a: the walk branches over W alone and builds one Z,
shared by sequences that differ only in their first measurement.  The
+-1/sin(phi) outcome weights cancel in the four scalars W, so the value
keeps full precision at every strength and does not depend on the
strength angles.  A pure initial state psi travels forward as a factor
pair X = L R^dag of dim x k blocks, starting from (psi, psi): B is
Hermitian, so each term is again a factor pair (X B = L (B R)^dag), a
measurement concatenates the pairs of its nonzero-weight terms, and the
value is a sum of W-weighted vdot traces.  No dim x dim state is formed.

Sampled mode models the experiment.  The walk branches over the
per-outcome weights and builds one Z per outcome string of measurements
2..m, and the sequential-Born probability of a full string is
Tr(K_a rho K_a^dag Z); its weight is the alpha product in forward order.
Sequences that differ only in their first measurement (the parts of a
correlator) share the walk, as they share the exact Z.
Each trial then draws one string, measurement by measurement with the
conditional Born probabilities.  Randomness is counter-based (Philox
keyed by the seed; trial k consumes row k of the uniform block), so
results do not depend on execution order, and the mean and variance
are summed exactly over the leaves and rounded once, for bit-stable
results.

The TOC and OTOC protocols run in the Heisenberg frame: the interleaved
sequence A, U, B, U^dag, A, U, B becomes A, B(t), A, B(t) with B(t) =
U^dag B U and the same outcome distribution, so their sequences hold only
measurements.  Both are built by :func:`_heisenberg_protocol`, which
takes a whole time grid and the requested parts, builds what does not
depend on the time once per grid, and picks one of the routes its
docstring lists: an exact grid of propagators of one spectrum that is
long enough to pay for the frame runs in H's eigenbasis, pure or mixed;
an exact pure state on any other grid of propagators travels as vectors;
the rest run on density matrices.  The clock-ancilla OTOC runs there too, as
the direct one with the clock's system propagator as U.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import fsum

import numpy as np

from .core import (
    CHECK_TOL,
    DensityMatrix,
    NumericalInvariantError,
    PureState,
    embed,
    is_unitary,
    matmul,
)
from .dynamics import (
    ClockPropagator,
    Propagator,
    heisenberg,
    heisenberg_phases,
)
from .measurement import (
    INFORMATIVE,
    NONINFORMATIVE,
    MeasurementSpec,
    _validate_phi,
    generalized_eigenvalue,
    kraus_coefficients,
    kraus_pair,  # noqa: F401  unused here; perfbench/spans.py traces it by this name
)
from .observables import PauliString

MAX_ENUMERATED_MEASUREMENTS = 16


@dataclass(frozen=True)
class MeasureStep:
    """Measure ``spec`` on ``targets`` (default: the whole register)."""

    spec: MeasurementSpec
    targets: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.targets is not None:
            object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))


@dataclass(frozen=True)
class EvolveStep:
    """Apply a register-wide unitary (e.g. U_t or its inverse)."""

    unitary: np.ndarray
    label: str = "evolve"

    def __post_init__(self):
        u = np.array(self.unitary, dtype=np.complex128)
        if not is_unitary(u, CHECK_TOL):
            raise ValueError(f"evolution step {self.label!r} is not unitary to 1e-10")
        u.flags.writeable = False
        object.__setattr__(self, "unitary", u)


SequenceStep = MeasureStep | EvolveStep


@dataclass(frozen=True)
class OutcomeRecord:
    """One outcome string with its alpha-product weight and probability."""

    outcomes: tuple[int, ...]
    weight: float
    probability: float


@dataclass(frozen=True)
class CorrelatorEstimate:
    """Protocol average with statistical metadata.

    ``value`` is the weighted average itself (always real).  For sampled
    runs ``trials`` holds the per-stage trial counts (every stage sees the
    same full-sequence repetitions) and ``rms_bound`` the statistical
    upper bound 1/sqrt(N prod sin^2 phi_k) with N the number of
    full-sequence repetitions; exact runs report zeros.
    """

    value: float
    mode: str
    trials: tuple[int, ...]
    phis: tuple[float, ...]
    rms_bound: float
    empirical_stderr: float = 0.0


def rms_bound(phis, trials) -> float:
    """Statistical upper bound 1/sqrt(prod n_k * prod sin^2 phi_k).

    ``trials`` carries one count per sequence stage; the product is the
    total data volume of the estimator.
    """
    phis = [float(p) for p in phis]
    counts = [int(n) for n in trials]
    if not phis or not counts:
        raise ValueError("phis and trials must be nonempty")
    if len(phis) != len(counts):
        raise ValueError("phis and trials must have equal length")
    if any(n < 1 for n in counts):
        raise ValueError("trial counts must be >= 1")
    for p in phis:
        _validate_phi(p)
    denom = math.prod(counts) * math.prod(math.sin(p) ** 2 for p in phis)
    return 1.0 / math.sqrt(denom)


def _kraus_weights(spec: MeasurementSpec):
    """Per-outcome weights of X, X B, B X, B X B in K_a X K_a^dag.

    K_a = c0 1 + c1 B gives K_a X K_a^dag = |c0|^2 X + c0 conj(c1) X B
    + c1 conj(c0) B X + |c1|^2 B X B.
    """
    return tuple(
        (abs(c0) ** 2, c0 * c1.conjugate(), c1 * c0.conjugate(), abs(c1) ** 2)
        for c0, c1 in kraus_coefficients(spec)
    )


def _adjoint(w):
    """The weights of E^dag for a map E with weights ``w``: Tr(E(X) Z) =
    Tr(X E^dag(Z)) with E^dag(Z) = w0 Z + w2 ZB + w1 BZ + w3 BZB."""
    return w[0], w[2], w[1], w[3]


class _Measurement:
    """The two Kraus operators K_a = c0 1 + c1 B of one measure step.

    ``alphas`` holds the generalized eigenvalues of the two outcomes,
    ``weights`` the per-outcome weights of X, XB, BX, BXB and
    ``transfer_weights`` their alpha-weighted sum W = sum_a alpha_a w_a,
    the weights of the transfer map.  Subclasses supply B X (``left``),
    X B (``right``) and the matrices B and B^2 (``dense``).
    """

    def __init__(self, spec: MeasurementSpec):
        self.phi = spec.phi
        self.weights = _kraus_weights(spec)
        self.alphas = tuple(generalized_eigenvalue(spec.phi, a) for a in (0, 1))
        self.transfer_weights = tuple(
            sum(a * w[j] for a, w in zip(self.alphas, self.weights)) for j in range(4)
        )

    @staticmethod
    def _combine(terms, w):
        """w0 X + w1 XB + w2 BX + w3 BXB from ``terms`` = (X, XB, BX, BXB),
        matrices or their traces; a term whose weight is exactly 0.0 is
        skipped."""
        total = None
        for wj, term in zip(w, terms):
            if wj != 0.0:
                if total is None:
                    total = wj * term
                else:
                    total += wj * term
        return 0.0 * terms[0] if total is None else total

    def maps(self, x, weights):
        """w0 X + w1 XB + w2 BX + w3 BXB for each weight tuple w in
        ``weights``, with each term formed once for all of them and only
        if some w needs it.  The per-outcome ``weights`` give the children
        K_a X K_a^dag; the adjoint of a map is the map with its XB and BX
        weights swapped (:func:`_adjoint`)."""
        need = [any(w[j] != 0.0 for w in weights) for j in range(4)]
        bx = self.left(x) if need[2] or need[3] else None
        terms = (
            x,
            self.right(x) if need[1] else None,
            bx,
            self.right(bx) if need[3] else None,
        )
        return [self._combine(terms, w) for w in weights]

    def transfer(self, x):
        """E(X) = sum_a alpha_a K_a X K_a^dag."""
        return self.maps(x, (self.transfer_weights,))[0]

    def effect(self, w):
        """E_w^dag(1) = w0 1 + (w1 + w2) B + w3 B^2 for the map with weights
        ``w``, formed from B and B^2 (``dense``) without a product."""
        b, b_sq = self.dense()
        eye = np.identity(len(b), dtype=np.complex128)
        return self._combine((eye, b, b, b_sq), _adjoint(w))

    # A pure initial state travels as a factor pair (L, R), dim x k blocks
    # with X = L R^dag.  B is Hermitian, so the four terms are factor pairs
    # too: X = (L, R), XB = (L, B R), BX = (B L, R) and BXB = (B L, B R);
    # only ``left`` is needed, and Tr(L R^dag) = vdot(R, L).

    def transfer_factors(self, pair):
        """E(X) for X = L R^dag as a factor pair: the column blocks of the
        terms whose weight is not exactly 0.0, each weight folded into L."""
        l, r = pair
        w = self.transfer_weights
        bl = self.left(l) if w[2] != 0.0 or w[3] != 0.0 else None
        br = self.left(r) if w[1] != 0.0 or w[3] != 0.0 else None
        terms = [
            (wj * tl, tr)
            for wj, (tl, tr) in zip(w, ((l, r), (l, br), (bl, r), (bl, br)))
            if wj != 0.0
        ]
        return np.hstack([tl for tl, _ in terms]), np.hstack([tr for _, tr in terms])

    def factor_trace(self, pair):
        """Tr E(X) for X = L R^dag.  Tr XB = Tr BX, so B acts on L only,
        and on R only for a BXB term."""
        l, r = pair
        w = self.transfer_weights
        bl = self.left(l) if any(wj != 0.0 for wj in w[1:]) else None
        tr_bx = None if bl is None else np.vdot(r, bl)
        tr_bxb = np.vdot(self.left(r), bl) if w[3] != 0.0 else None
        return self._combine((np.vdot(r, l), tr_bx, tr_bx, tr_bxb), w)


def _check_scalar_completeness(weights) -> None:
    """sum_a K_a^dag K_a = 1 for an observable with B^2 = 1, in scalar
    form: sum_a |c0|^2 + |c1|^2 = 1 and sum_a Re(conj(c0) c1) = 0."""
    norm = fsum(w[0] + w[3] for w in weights)
    cross = fsum(w[1].real for w in weights)
    if not (abs(norm - 1.0) <= 1e-12 and abs(cross) <= 1e-12):
        raise NumericalInvariantError(
            f"Kraus coefficients violate completeness (norm {norm!r}, "
            f"cross term {cross!r})"
        )


class _PauliMeasurement(_Measurement):
    """B = P acts through its signed permutation ``(perm, d)``: O(dim^2)
    per map term.  P^2 = 1, so completeness is checked in scalar form
    (:func:`_check_scalar_completeness`).
    """

    def __init__(self, spec: MeasurementSpec, perm, d):
        super().__init__(spec)
        _check_scalar_completeness(self.weights)
        self.perm, self.d, self.d_conj = perm, d, d.conj()

    def dense(self):
        """P as a matrix, and P^2 = 1."""
        p = np.zeros((len(self.perm),) * 2, dtype=np.complex128)
        p[np.arange(len(self.perm)), self.perm] = self.d
        return p, np.identity(len(p), dtype=np.complex128)

    def left(self, x):
        return self.d[:, None] * x[self.perm]

    def right(self, x):
        return x[:, self.perm] * self.d_conj


class _DenseMeasurement(_Measurement):
    """B is a raw observable matrix ``b`` on the register.  Every state and
    effect the engine maps is Hermitian, so XB = (BX)^dag and a map costs
    one product for the XB, BX pair and one more for BXB, each formed once
    for all the maps of a state (:meth:`maps`).

    Completeness, sum_a K_a^dag K_a = sum_a w0 1 + (w1 + w2) B + w3 B^2
    = 1, is checked to 1e-12 from the square ``b_sq`` = B B, without
    assuming B^2 = 1.  A real ``b_sq`` is the square of a real B (its
    spec checked B in real arithmetic), so B is kept as its real part and
    its products with a complex X run in real arithmetic (``matmul``).
    """

    def __init__(self, spec: MeasurementSpec, b, b_sq):
        super().__init__(spec)
        w0, w1, w2, w3 = (sum(w[k] for w in self.weights) for k in range(4))
        residual = (w1 + w2) * b
        residual += w3 * b_sq
        residual.flat[:: len(b) + 1] += w0 - 1.0
        dev = float(np.max(np.abs(residual)))
        if not dev <= 1e-12:
            raise NumericalInvariantError(
                f"Kraus operators violate completeness by {dev:.3e}"
            )
        self.b = np.ascontiguousarray(b.real) if b_sq.dtype.kind == "f" else b
        self.b_sq = b_sq

    def dense(self):
        return self.b, self.b_sq

    def maps(self, x, weights):
        """As :meth:`_Measurement.maps`, for the Hermitian X and the weight
        tuples with w2 = conj(w1) that the engine maps (each K_a X K_a^dag
        preserves Hermiticity, and so do their real-weighted sums and
        adjoints): XB = (BX)^dag, so w1 XB + w2 BX = M + M^dag with M =
        w2 BX, one product for the pair and one more for BXB.  A tuple
        without that symmetry raises ``ValueError``."""
        need = [any(w[j] != 0.0 for w in weights) for j in range(4)]
        bx = self.left(x) if any(need[1:]) else None
        bxb = self.right(bx) if need[3] else None
        mapped = []
        for w in weights:
            if w[1] != w[2].conjugate():
                raise ValueError(f"weights {w} do not map a Hermitian X to one")
            total = self._combine((x, None, None, bxb), (w[0], 0.0, 0.0, w[3]))
            if w[2] != 0.0:
                m = w[2] * bx
                total += m
                total += np.conjugate(m, out=m).T
            mapped.append(total)
        return mapped

    def left(self, x):
        return matmul(self.b, x)

    def right(self, x):
        return matmul(x, self.b)


class _HeisenbergMeasurement(_Measurement):
    """Measure B(t) = U^dag B U, where ``spec`` gives B, the strength and
    the kind, and ``apply`` maps a dim x k block x to B(t) x (see
    :func:`_heisenberg_action`), O(dim^2 k) per block; neither U nor B(t)
    is formed.  It acts on the factor pairs of a pure state only, so it has
    ``left`` and no ``right`` or ``dense``, and never meets a density
    matrix.  B(t)^2 = 1 is checked where ``apply`` is built, so
    completeness takes the scalar form.
    Built by :func:`_heisenberg_protocol` for a pure initial state only."""

    def __init__(self, spec: MeasurementSpec, apply):
        super().__init__(spec)
        _check_scalar_completeness(self.weights)
        self.left = apply


def _resolve_steps(initial: DensityMatrix | PureState, steps):
    """Resolve the sequence to the measurements that act on the register.

    A measurement becomes a :class:`_PauliMeasurement` or, for a raw
    observable matrix, a :class:`_DenseMeasurement` (the matrix and the
    square its spec formed when it was checked, embedded on the targets).
    Measurements of the same Pauli string on the same targets share one
    signed permutation.  After an evolution it measures B(t) = V^dag B V
    instead, with V the product of the evolutions so far:
    :func:`heisenberg` builds B(t) into a new spec, which checks it, for a
    :class:`_DenseMeasurement`.  Both map a density matrix with any list of
    weight tuples (``maps``), which gives the children K_a X K_a^dag, the
    transfer map and their adjoints, and form the effect E^dag(1) of the
    last measurement from B and B^2.  Evolutions after the last
    measurement are shape-checked and dropped, as they preserve every
    trace.  A sequence without measurements is rejected, and so is any
    step that is neither a :class:`MeasureStep` nor an :class:`EvolveStep`.
    """
    n = initial.n_qubits
    dim = 2**n
    resolved = []
    actions = {}
    v = None
    for step in steps:
        if isinstance(step, MeasureStep):
            spec = step.spec
            targets = step.targets
            if targets is None:
                targets = tuple(range(n))
            if len(targets) != spec.n_qubits:
                raise ValueError(
                    f"measurement of a {spec.n_qubits}-qubit observable "
                    f"got {len(targets)} target(s)"
                )
            if v is not None:
                spec = MeasurementSpec(
                    heisenberg(spec.observable, v, targets), spec.phi, spec.kind
                )
                resolved.append(_DenseMeasurement(spec, spec.observable, spec._square))
            elif isinstance(spec.observable, PauliString):
                key = (spec.observable, targets)
                if key not in actions:
                    actions[key] = spec.observable.action(n, targets)
                resolved.append(_PauliMeasurement(spec, *actions[key]))
            else:
                b, b_sq = spec.matrix(), spec._square
                if step.targets is not None:
                    b, b_sq = embed(b, n, targets), embed(b_sq, n, targets)
                resolved.append(_DenseMeasurement(spec, b, b_sq))
        elif isinstance(step, EvolveStep):
            if step.unitary.shape != (dim, dim):
                raise ValueError(
                    f"evolution step {step.label!r} has shape "
                    f"{step.unitary.shape}, expected {(dim, dim)}"
                )
            v = step.unitary if v is None else step.unitary @ v
        else:
            raise TypeError(f"unknown sequence step {step!r}")
    if not resolved:
        raise ValueError("sequence contains no measurements")
    return resolved, tuple(s.phi for s in resolved)


def _effects(rest, branches, dim, z=None, index=0, stride=1):
    """Yield ``(index, Z)`` for every outcome string s of the resolved
    measurements ``rest``, with Z = E_{s_2}^dag ... E_{s_m}^dag(1) its
    effect; ``branches[k]`` holds the weight tuples that step k branches
    over, and ``index`` numbers the strings in lexicographic order.

    The walk runs depth first from the back: the last step's Z is its
    ``effect``, and each earlier step maps the Z after it with the adjoint
    weights, all branches of a node from one set of terms, so only the
    branches of one node per step are alive; a node drops its Z once it is
    mapped and hands each branch on without keeping it.  An empty ``rest``
    has the effect 1.  The recursion goes through this module-level
    function, so a walk holds no reference cycle.
    """
    if not rest:
        yield index, np.identity(dim) if z is None else z
        return
    step, weights = rest[-1], branches[-1]
    if z is None:
        zs = [step.effect(w) for w in weights]
    else:
        zs = step.maps(z, [_adjoint(w) for w in weights])
        del z
    count = len(zs)
    for a in range(count):
        yield from _effects(
            rest[:-1], branches[:-1], dim, zs.pop(0), index + a * stride, stride * count
        )


def _traces(xs, rest, branches, dim) -> np.ndarray:
    """Tr(X Z), summed elementwise, for every X in ``xs`` and every effect
    Z of the walk of :func:`_effects` over ``rest`` and ``branches``: a
    complex array with one row per X and one column per outcome string.
    This is the walk's only reader; it drops each Z and the transposed copy
    it reads it through before the walk forms the next one."""
    traces = np.empty((len(xs), math.prod(map(len, branches))), dtype=np.complex128)
    for index, z in _effects(rest, branches, dim):
        z_t = z.T.ravel()
        traces[:, index] = [np.sum(z_t * x.ravel()) for x in xs]
        del z, z_t
    return traces


def _leaf_probabilities(children, rest, dim) -> np.ndarray:
    """The sequential-Born probabilities P(a_1..a_m) of every outcome
    string, in lexicographic order, one row for each first measurement
    whose children K_a rho K_a^dag (a = 0, 1) are consecutive in
    ``children``, all followed by the resolved measurements ``rest``.

    They are read from the back, in one walk for every row: each suffix
    string a_2..a_m has the effect Z = K_2^dag ... K_m^dag K_m ... K_2
    (:func:`_effects`, branching over the per-outcome weights), and
    P(a_1..a_m) = Tr(K_1 rho K_1^dag Z).  Every probability must lie in
    [0, 1] to 1e-12 and each row must sum to 1 within 1e-10, else
    :class:`NumericalInvariantError` is raised; more than
    ``MAX_ENUMERATED_MEASUREMENTS`` measurements raise ``ValueError``.
    """
    if len(rest) >= MAX_ENUMERATED_MEASUREMENTS:
        raise ValueError(
            f"{len(rest) + 1} measurement steps exceed the enumeration limit of "
            f"{MAX_ENUMERATED_MEASUREMENTS}"
        )
    traces = _traces(children, rest, [s.weights for s in rest], dim)
    rows = traces.real.reshape(len(children) // 2, -1)
    for row in rows:
        for prob in row.tolist():
            if not -1e-12 <= prob <= 1 + 1e-12:
                raise NumericalInvariantError(f"branch probability {prob} outside [0, 1]")
        total = fsum(row.tolist())
        if not abs(total - 1.0) <= 1e-10:
            raise NumericalInvariantError(f"sequence probabilities sum to {total!r}, not 1")
    return rows


def _alpha_products(resolved) -> list[float]:
    """The weight of every outcome string, its alpha product in forward
    order, in lexicographic order."""
    weights = np.ones(1)
    for step in resolved:
        weights = np.multiply.outer(weights, step.alphas).ravel()
    return weights.tolist()


def _distribution(initial: DensityMatrix | PureState, steps):
    """The resolved measurements of the sequence ``steps`` and the
    probabilities of their outcome strings (:func:`_leaf_probabilities`);
    a pure state is held as its density matrix."""
    rho = initial.density() if isinstance(initial, PureState) else initial
    resolved, _ = _resolve_steps(rho, steps)
    first, rest = resolved[0], resolved[1:]
    (probs,) = _leaf_probabilities(first.maps(rho.matrix, first.weights), rest, rho.dim)
    return resolved, probs


def sequence_distribution(
    initial: DensityMatrix | PureState, steps
) -> list[OutcomeRecord]:
    """Enumerate all outcome strings with exact probabilities and weights.

    Probabilities follow the sequential Born rule
    P(a_1..a_m) = Tr(K_m ... K_1 rho K_1^dag ... K_m^dag) with unitary
    steps interleaved (folded into the measurements by
    :func:`_resolve_steps`) and are checked by
    :func:`_leaf_probabilities`.  A string's weight is its alpha product
    in forward order.
    """
    resolved, probs = _distribution(initial, steps)
    outcomes = itertools.product((0, 1), repeat=len(resolved))
    return list(map(OutcomeRecord, outcomes, _alpha_products(resolved), probs.tolist()))


def _first_transfers(initial: DensityMatrix | PureState, firsts):
    """The exact first transfers E_1(rho), one for each first measurement
    E_1 in ``firsts``.  A pure state psi gives the factor pair of
    E_1(psi psi^dag), from (psi, psi), and no dim x dim state."""
    if isinstance(initial, PureState):
        psi = initial.amplitudes[:, None]
        return [first.transfer_factors((psi, psi)) for first in firsts]
    return [first.transfer(initial.matrix) for first in firsts]


def _transfer_values(starts, rest, dim):
    """The exact weighted averages Tr(E_m ... E_2(X)), one for each first
    transfer X = E_1(rho) in ``starts`` (see :func:`_first_transfers`),
    all followed by the resolved measurements ``rest`` (see
    :func:`_resolve_steps`).  Every value is checked by
    :func:`_checked_values`.

    A dim x dim X is evaluated from the back: the walk of :func:`_effects`,
    branching over the transfer weights alone, forms the one effect Z =
    E_2^dag ... E_m^dag(1), shared by every X, whose value is Tr(X Z),
    summed elementwise (:func:`_traces`, as for sampled leaves).  A
    factor pair X = L R^dag travels forward: a measurement concatenates the
    factors of its nonzero-weight terms, so no dim x dim state is formed,
    and the last one gives Tr E(X).
    """
    if not starts or isinstance(starts[0], tuple):
        values = []
        for pair in starts:
            for step in rest[:-1]:
                pair = step.transfer_factors(pair)
            trace = rest[-1].factor_trace(pair) if rest else np.vdot(pair[1], pair[0])
            values.append(complex(trace))
    else:
        traces = _traces(starts, rest, [(s.transfer_weights,) for s in rest], dim)
        values = traces[:, 0].tolist()
    return _checked_values(values)


def _checked_values(values):
    """The real parts of exact values.  Every E preserves Hermiticity and
    each value is a nested bracket of involutions, so it must be finite and
    real to 1e-10 with magnitude at most 1 + 1e-10; otherwise
    :class:`NumericalInvariantError` is raised."""
    for value in values:
        if not (
            math.isfinite(value.real)
            and math.isfinite(value.imag)
            and abs(value.imag) <= 1e-10
            and abs(value.real) <= 1 + 1e-10
        ):
            raise NumericalInvariantError(
                f"exact value {value!r} is not real with magnitude at most 1"
            )
    return [value.real for value in values]


def _exact_estimate(value, phis) -> CorrelatorEstimate:
    return CorrelatorEstimate(
        value=value,
        mode="exact",
        trials=(0,) * len(phis),
        phis=phis,
        rms_bound=0.0,
        empirical_stderr=0.0,
    )


def nested_estimate(
    initial: DensityMatrix | PureState,
    steps,
    mode: str = "exact",
    trials: int | None = None,
    seed: int | None = None,
) -> CorrelatorEstimate:
    """Weighted average of alpha products over the sequence distribution.

    For all-informative sequences this equals the expectation of the
    nested anticommutator of the measured observables normalized by
    2^(m-1); a noninformative first measurement turns the outermost
    bracket into a commutator with normalization 2^(m-2) (2i).  The value
    does not depend on the strength angles.

    Exact mode computes it by transfer maps (:func:`_transfer_values`), in
    O(m) state updates and without a limit on the number of measurements;
    a pure state travels there as vector factors.  Sampled mode hands the
    steps to :func:`sample_protocol`, which draws outcome strings from the
    enumerated outcome tree and holds a pure state as its density matrix.
    """
    if mode == "sampled":
        if trials is None or seed is None:
            raise ValueError("sampled mode needs trials and seed")
        return sample_protocol(initial, steps, trials, seed)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    resolved, phis = _resolve_steps(initial, steps)
    starts = _first_transfers(initial, resolved[:1])
    (value,) = _transfer_values(starts, resolved[1:], 2**initial.n_qubits)
    return _exact_estimate(value, phis)


def trial_uniforms(seed: int, trials: int, draws: int) -> np.ndarray:
    """Uniform deviates for ``trials`` independent trials.

    Counter-based (Philox keyed by ``seed``): row k is a pure function of
    (seed, k), so per-trial streams are independent of execution order.
    ``seed`` must lie in [0, 2^64).
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return gen.random((trials, draws))


def sample_protocol(
    initial: DensityMatrix | PureState, steps, trials: int, seed: int
) -> CorrelatorEstimate:
    """Monte Carlo estimate: average alpha products over sampled strings
    of the sequence ``steps``.  The steps are resolved once, the outcome
    tree is enumerated and checked by :func:`_leaf_probabilities`, with its
    limit of ``MAX_ENUMERATED_MEASUREMENTS`` measurements, and the trials
    are drawn by :func:`_sampled_estimate`."""
    return _sampled_estimate(*_distribution(initial, steps), trials, seed)


def _sampled_estimate(resolved, probs, trials: int, seed: int) -> CorrelatorEstimate:
    """Draw ``trials`` outcome strings of the resolved measurements
    ``resolved``, whose strings have the probabilities ``probs`` (see
    :func:`_leaf_probabilities`), and average their alpha products.

    Trial k draws with row k of :func:`trial_uniforms`: at measurement j it
    takes outcome 1 iff ``u[k, j] < P(prefix, 1) / P(prefix)``, where a
    prefix probability sums the leaves below it (exact, as later steps
    preserve the trace); every conditional probability must be finite and
    lie in [0, 1] to 1e-12.  ``empirical_stderr`` is the sample standard
    error of the mean.
    """
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m = len(resolved)
    phis = tuple(s.phi for s in resolved)

    # Leaves come in lexicographic order, so leaf i is the outcome string
    # spelling i in binary; tree[j][i] is the probability of the j-outcome
    # prefix i.
    tree = [probs]
    for _ in range(m):
        tree.insert(0, tree[0].reshape(-1, 2).sum(axis=1))
    uniforms = trial_uniforms(seed, trials, m)
    leaf = np.zeros(trials, dtype=np.intp)
    for j in range(m):
        with np.errstate(divide="ignore", invalid="ignore"):
            p1 = tree[j + 1][2 * leaf + 1] / tree[j][leaf]
        if not np.all(np.isfinite(p1) & (p1 >= -1e-12) & (p1 <= 1 + 1e-12)):
            raise NumericalInvariantError(
                f"conditional outcome probability at measurement {j} outside [0, 1]"
            )
        leaf = 2 * leaf + (uniforms[:, j] < p1)

    # The trials that end in one leaf share its weight w, so the sums run
    # over the leaves: each is exact (count * w as a Fraction) and rounded
    # once, as math.fsum over the trials rounds it, bit for bit.
    counts = np.bincount(leaf, minlength=2**m).tolist()
    tally = [(c, w) for c, w in zip(counts, _alpha_products(resolved)) if c]
    mean = float(sum(c * Fraction(w) for c, w in tally)) / trials
    if trials > 1:
        var = float(sum(c * Fraction((w - mean) ** 2) for c, w in tally)) / (trials - 1)
        stderr = math.sqrt(var / trials)
    else:
        stderr = 0.0
    return CorrelatorEstimate(
        value=mean,
        mode="sampled",
        trials=(trials,) * m,
        phis=phis,
        rms_bound=rms_bound(phis, (trials,) + (1,) * (m - 1)),
        empirical_stderr=stderr,
    )


# ---------------------------------------------------------------------------
# Two-point and four-point correlator protocols.


def _evolution_matrix(evolution) -> np.ndarray:
    """The evolution's matrix, checked once for unitarity (its grid checked
    the shape).  A propagator's matrix is formed on a copy and not kept, as
    a time grid holds all its propagators."""
    if isinstance(evolution, Propagator):
        u = dataclasses.replace(evolution).matrix
    else:
        u = np.asarray(evolution, dtype=np.complex128)
    if not is_unitary(u, CHECK_TOL):
        raise ValueError("evolution 'U_t' is not unitary to 1e-10")
    return u


def _heisenberg_action(apply_b, apply_u, psi):
    """x -> B(t) x = U^dag (B (U x)) for dim x k blocks x, with ``apply_b``
    the map y -> B y and ``apply_u(y, adjoint)`` the map y -> U y (U^dag y
    if ``adjoint``), both in one basis of the whole register.  In the
    computational basis U acts through its spectrum (:meth:`Propagator.apply`,
    two products); in H's eigenbasis U is diagonal (:func:`_phase_action`)
    and ``apply_b`` is one product with B~ = V^dag B V.

    B(t)^2 = 1 is checked on ``psi``, the initial vector in that basis,
    ||B(t) (B(t) psi) - psi||_inf <= 1e-10, once per time point for every
    part; a corrupted propagator fails here with
    :class:`NumericalInvariantError`.
    """

    def apply(x):
        return apply_u(apply_b(apply_u(x)), adjoint=True)

    dev = float(np.max(np.abs(apply(apply(psi)) - psi)))
    if not dev <= CHECK_TOL:
        raise NumericalInvariantError(
            f"B(t) does not square to the identity on the initial state "
            f"(deviation {dev:.3e})"
        )
    return apply


def _phase_action(u: Propagator):
    """y -> U y, or U^dag y if ``adjoint``, in the eigenbasis of H, where U
    is the diagonal e^{-iEt}: an O(dim k) scaling of the rows of y."""
    phases = u.phases[:, None]

    def apply(y, adjoint=False):
        return (phases.conj() if adjoint else phases) * y

    return apply


_FIRST_KINDS = {"real": INFORMATIVE, "imag": NONINFORMATIVE}

# The eigenbasis route pays for its frame once per grid: V checked unitary
# and B~ formed, and for the OTOC A~ with its checked square, each one
# dim^3 product (a real one for a real H, whose V and whose strings without
# Y factors are real).  A time point of a density matrix then costs one
# O(dim^2) phase scaling of B~, where the density route forms and checks U
# and B(t) by dim^3 products, so a mixed grid earns the frame back from
# _FRAME_MIN_POINTS points at every size.  A time point of a pure state
# saves only O(dim^2 k) work on its dim x k blocks (one product with B~ per
# B(t) application instead of four through the spectrum), so the points it
# needs grow with dim: _FRAME_MIN_POINTS per _PURE_FRAME_DIM basis states.
# Eigenbasis over other route, medians of alternating in-process runs of
# `_heisenberg_protocol` with both parts (2-core VM, BLAS pinned to 1
# thread), for a label state or the maximally mixed state of the Ising
# chain (real H) / the chain with a Y term (complex H):
# * label state, vector route: below 1 from 3 points at n <= 6 (0.69 to
#   0.89); at n = 7, TOC 1.13 / 1.23 at 3 points and 0.87 / 0.85 at 6, OTOC
#   1.34 / 1.38 and 0.98 / 0.93; at n = 8, TOC 1.67 / 2.68 at 3 points,
#   0.97 / 1.33 at 8 and 0.76 / 1.02 at 12, OTOC 1.85 / 2.38, 0.99 / 1.14
#   and 0.83 / 0.93.
# * maximally mixed state, density route: below 1 from 3 points at n = 3
#   to 8 for both H (TOC 0.67 to 0.79, OTOC 0.79 to 0.98); at 2 points the
#   OTOC is 0.89 to 1.11.
_FRAME_MIN_POINTS = 3
_PURE_FRAME_DIM = 64


def _heisenberg_protocol(
    initial, a, b, count, evolutions, parts, phis, mode="exact", trials=None, seeds=None
) -> list[list[CorrelatorEstimate]]:
    """Measure A, B(t), A, B(t), ... for ``count`` steps (2 for the TOC, 4
    for the OTOC) in the Heisenberg frame, with B(t) = U^dag B U, for each
    evolution U of the time grid ``evolutions``, and return one list of
    estimates per time point, one estimate per part in ``parts``.  The
    first A is informative for part 'real' and noninformative for part
    'imag'; every later step is informative.  Sampled mode takes one tuple
    of seeds per time point, one seed per part.

    Only B(t) depends on the time, and the parts differ only in their
    first measurement.  So the route is picked and every evolution
    shape-checked once per grid, and every A measurement, the route's frame
    and the first measurements' states (the exact first transfers, or the
    sampled children K_a rho K_a^dag) are built and checked once per grid,
    for all the parts.  A time point builds its B(t) measurements and
    evaluates the steps after the first A, for every part at once: exact
    values in one evaluation (:func:`_transfer_values`), sampled leaf
    probabilities in one walk (:func:`_leaf_probabilities`), and each part
    is then drawn from its own seed (:func:`_sampled_estimate`).  A value
    depends on its time alone, not on the rest of the grid.

    The rule: an exact grid of :class:`Propagator` objects that share one
    spectrum (E, V) takes the eigenbasis route if it is long enough to pay
    for the frame, ``_FRAME_MIN_POINTS`` points for a density matrix and
    as many per ``_PURE_FRAME_DIM`` basis states for a pure state; any
    other exact grid of propagators takes the vector route for a pure
    state; everything else, sampled mode included, takes the density
    route.  The routes:

    * eigenbasis: V is checked unitary to 1e-10 once, which stands in for
      the check of U, as U is never formed.  B~ = V^dag B V and the later
      A~ = V^dag A V (with A~^2) are built by :func:`heisenberg` with V in
      place of U, and the first transfers are carried into the frame (a
      trace is the same in every basis): V^dag E_1(rho) V for a density
      matrix, the factor pair (V^dag L, V^dag R) for a pure state.  A time
      point forms B~(t) = e^{iEt} B~ e^{-iEt} by one O(dim^2) phase scaling
      (:func:`heisenberg_phases`) for a density matrix; for a pure state it
      applies x -> e^{iEt} (B~ (e^{-iEt} x)), one product
      (:func:`_heisenberg_action`, which checks B~(t)^2 = 1 on V^dag psi).
      A real H has a real V, and B~ and A~ are then real too for strings
      with an even number of Y factors: their products run in real
      arithmetic (:func:`~seqmeas.core.matmul`).
    * vector: a pure state psi on a shorter grid (every one-point
      :func:`toc` and :func:`otoc` call), or on propagators of several
      spectra.  The first transfers are factor pairs of
      E_1(psi psi^dag).  A time point applies B(t) through the propagator's
      spectrum, four products (:func:`_heisenberg_action`, which checks
      B(t)^2 = 1 on psi), so neither U nor B(t) is formed.
    * density: a pure state is converted to its density matrix.  A time
      point checks U for unitarity (:func:`_evolution_matrix`) and builds
      B(t) by :func:`heisenberg`.

    A dense B(t) or B~(t) goes into one spec, which checks it Hermitian
    with B(t)^2 = 1 to 1e-10; the B(t)^2 it forms serves every B(t) step,
    and each dense B(t) measurement checks completeness.
    """
    phis = tuple(float(p) for p in phis)
    if len(phis) != count:
        raise ValueError(f"this protocol takes {count} strength angles, got {len(phis)}")
    for part in parts:
        if part not in _FIRST_KINDS:
            raise ValueError(f"part must be 'real' or 'imag', got {part!r}")
    evolutions = list(evolutions)
    if seeds is None:
        seeds = [None] * len(evolutions)
    elif len(seeds) != len(evolutions):
        raise ValueError(
            f"{len(evolutions)} time point(s) need as many seed tuples, got {len(seeds)}"
        )
    exact = mode == "exact"
    if mode == "sampled":
        if trials is None or any(s is None or None in s for s in seeds):
            raise ValueError("sampled mode needs trials and seed")
        for point_seeds in seeds:
            if len(point_seeds) != len(parts):
                raise ValueError(
                    f"sampled mode needs {len(parts)} seed(s), got {len(point_seeds)}"
                )
    elif not exact:
        raise ValueError(f"unknown mode {mode!r}")

    dim = 2**initial.n_qubits
    for shape in (np.shape(getattr(u, "evecs", u)) for u in evolutions):
        if shape != (dim, dim):
            raise ValueError(f"evolution 'U_t' has shape {shape}, expected {(dim, dim)}")
    propagators = all(isinstance(u, Propagator) for u in evolutions)
    pure = exact and isinstance(initial, PureState) and propagators
    min_points = _FRAME_MIN_POINTS * (max(1, dim // _PURE_FRAME_DIM) if pure else 1)
    frame = (
        exact
        and len(evolutions) >= min_points
        and propagators
        and all(
            u.evals is evolutions[0].evals and u.evecs is evolutions[0].evecs
            for u in evolutions
        )
    )
    vector = pure and not frame
    if isinstance(initial, PureState) and not pure:
        initial = initial.density()
    if frame:
        evecs = evolutions[0].evecs
        if not is_unitary(evecs, CHECK_TOL):
            raise NumericalInvariantError("eigenbasis of H is not unitary to 1e-10")
        b_frame = heisenberg(b, evecs)

    # One resolve for every A measurement, and for B's on the vector route,
    # so that measurements of one Pauli string share its signed permutation.
    steps = [MeasureStep(MeasurementSpec(a, phis[0], _FIRST_KINDS[p])) for p in parts]
    steps += [
        MeasureStep(MeasurementSpec(heisenberg(a, evecs) if frame else a, p, INFORMATIVE))
        for p in phis[2::2]
    ]
    if pure:
        spec_b = MeasurementSpec(b, phis[1], INFORMATIVE)
        b_specs = [spec_b.with_phi(p) for p in phis[1::2]]
    if vector:
        steps.append(MeasureStep(spec_b))
    resolved, _ = _resolve_steps(initial, steps)
    if vector:
        apply_b = resolved.pop().left
    firsts, a_steps = resolved[: len(parts)], resolved[len(parts) :]
    if exact:
        starts = _first_transfers(initial, firsts)
        if pure:
            psi = initial.amplitudes[:, None]
        if frame:
            # A trace is the same in every basis.
            v_dag = evecs.conj().T
            if pure:
                starts = [(matmul(v_dag, l), matmul(v_dag, r)) for l, r in starts]
                psi = matmul(v_dag, psi)
            else:
                starts = [matmul(matmul(v_dag, x), evecs) for x in starts]
    else:
        children = [x for s in firsts for x in s.maps(initial.matrix, s.weights)]

    def point(u, point_seeds):
        # Every array built here is freed when the point is done.
        if pure:
            if frame:
                apply_u, apply_b_t = _phase_action(u), functools.partial(matmul, b_frame)
            else:
                apply_u, apply_b_t = u.apply, apply_b
            apply = _heisenberg_action(apply_b_t, apply_u, psi)
            b_steps = [_HeisenbergMeasurement(s, apply) for s in b_specs]
        else:
            if frame:
                b_t = heisenberg_phases(b_frame, u)
            else:
                b_t = heisenberg(b, _evolution_matrix(u))
            spec = MeasurementSpec(b_t, phis[1], INFORMATIVE)
            del b_t  # the spec keeps its own checked copy
            specs = map(spec.with_phi, phis[1::2])
            b_steps = [_DenseMeasurement(s, s.observable, s._square) for s in specs]
        # B(t) at the odd positions, the later A at the even ones.
        rest = [b_steps[k // 2] if k % 2 else a_steps[k // 2 - 1] for k in range(1, count)]
        if exact:
            return [_exact_estimate(v, phis) for v in _transfer_values(starts, rest, dim)]
        rows = _leaf_probabilities(children, rest, dim)
        return [
            _sampled_estimate([first, *rest], probs, trials, seed)
            for first, probs, seed in zip(firsts, rows, point_seeds)
        ]

    return [point(u, point_seeds) for u, point_seeds in zip(evolutions, seeds)]


def toc(
    initial: DensityMatrix | PureState,
    a,
    b,
    evolution,
    part: str = "real",
    phis=(math.pi / 2, math.pi / 2),
    mode: str = "exact",
    trials: int | None = None,
    seed: int | None = None,
) -> CorrelatorEstimate:
    """Two-point correlator protocol: measure A, evolve, measure B.

    The weighted average equals Re <B(t) A> when the first measurement is
    informative (part='real') and Im <B(t) A> when it is noninformative
    (part='imag'), for every strength choice.

    The sequence runs in the Heisenberg frame: A, then B(t) = U^dag B U.
    Measuring K(B) after U gives the probabilities of measuring K(B(t)) =
    U^dag K(B) U before it, and the trailing U^dag cannot change them.
    :func:`_heisenberg_protocol` builds it and picks the route.
    """
    ((estimate,),) = _heisenberg_protocol(
        initial, a, b, 2, [evolution], (part,), phis, mode, trials, [(seed,)]
    )
    return estimate


def otoc(
    initial: DensityMatrix | PureState,
    a,
    b,
    evolution=None,
    *,
    clock: ClockPropagator | None = None,
    part: str = "real",
    phis=(math.pi / 2,) * 4,
    mode: str = "exact",
    trials: int | None = None,
    seed: int | None = None,
) -> CorrelatorEstimate:
    """Out-of-time-ordered correlator protocol.

    Runs measure A, evolve, measure B, evolve backward, measure A, evolve,
    measure B, and returns the weighted average v.  With part='real',
    Re F(t) = 2 v - 1; with part='imag', Im F(t) = 2 v (see
    :func:`otoc_value`), where F(t) = <B(t) A B(t) A>.

    The single backward evolution is realized either directly
    (``evolution`` given: conjugate-transpose propagator) or with a
    time-reversal ancilla (``clock`` given: the register is extended by
    one qubit in |1> whose computational state selects the time direction,
    and the backward step flips the ancilla around the clock propagator
    U_c).  U_c is block diagonal in the ancilla with its |0> sector the
    adjoint of its |1> sector (see :class:`ClockPropagator`), so
    X_anc U_c X_anc = U_c^dag and the state never leaves the ancilla-|1>
    sector: the clock sequence is the direct one with U = ``clock.system``
    on the system register, and takes the same route.

    In both cases the backward step is U^dag, so the sequence runs in the
    Heisenberg frame as A, B(t), A, B(t), with the same outcome
    distribution.  :func:`_heisenberg_protocol` builds it and picks the
    route.
    """
    if (evolution is None) == (clock is None):
        raise ValueError("provide exactly one of evolution or clock")
    if clock is not None:
        evolution = clock.system
    ((estimate,),) = _heisenberg_protocol(
        initial, a, b, 4, [evolution], (part,), phis, mode, trials, [(seed,)]
    )
    return estimate

def otoc_value(part: str, average: float) -> float:
    """Convert the OTOC protocol average to the correlator part:
    Re F = 2 v - 1, Im F = 2 v."""
    if part == "real":
        return 2.0 * average - 1.0
    if part == "imag":
        return 2.0 * average
    raise ValueError(f"part must be 'real' or 'imag', got {part!r}")
