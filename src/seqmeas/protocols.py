"""Sequential-measurement engine: exact transfer maps, sampled outcome trees.

Every Kraus operator has the form K_a = c0 1 + c1 B, so K_a X K_a^dag is
w0 X + w1 X B + w2 B X + w3 B X B with per-outcome weights w.  For a
Pauli-string observable P the terms come from P's signed permutation of
rows and columns (O(dim^2), no dense Kraus matrix); for a raw observable
matrix B they cost a product each.  A term whose weight is exactly zero
is not formed.

The engine sees measurements only.  An evolution is a change of the
measured operator: a measurement of B after the evolutions V = u_k ... u_1
has the outcome distribution and the later effect of measuring V^dag B V
before them, so each evolution folds into every later measurement through
:func:`heisenberg` and trailing evolutions are dropped.

Exact mode is the verification reference.  By linearity, the weighted
average over outcome strings is Tr(E_m ... E_1(rho)) with the transfer
map E_k(X) = sum_a alpha_a K_a X K_a^dag, whose weights are
W = sum_a alpha_a w_a.  A density matrix is evaluated from the back: the
effect Z = E_2^dag ... E_m^dag(1) is carried one four-term update per
measurement (E^dag is E with the XB and BX weights swapped; the last one
is formed from B and B^2 alone), and the value is Tr(E_1(rho) Z).
Sequences that differ only in their first measurement share Z.  The
+-1/sin(phi) outcome weights cancel in the four scalars W, so the value
keeps full precision at every strength and does not depend on the
strength angles.  A pure initial state psi travels forward as a factor
pair X = L R^dag of dim x k blocks, starting from (psi, psi): B is
Hermitian, so each term is again a factor pair (X B = L (B R)^dag), a
measurement concatenates the pairs of its nonzero-weight terms, and the
value is a sum of W-weighted vdot traces.  No dim x dim state is formed.

Sampled mode models the experiment.  It walks the full outcome tree,
recording each outcome string with its sequential-Born probability and
alpha-product weight (the last measurement builds no child: a leaf needs
only Tr(K_a X K_a^dag)); each trial then draws one string, measurement by
measurement with the conditional Born probabilities.  Randomness is
counter-based (Philox keyed by the seed; trial k consumes row k of the
uniform block), so results do not depend on execution order, and
aggregation uses exactly-rounded summation (math.fsum) for bit-stable
results.

The TOC and OTOC protocols run in the Heisenberg frame: the interleaved
sequence A, U, B, U^dag, A, U, B becomes A, B(t), A, B(t) with B(t) =
U^dag B U and the same outcome distribution, so their sequences hold only
measurements.  Both are built by :func:`_heisenberg_protocol`, which
picks the route from the input.  The clock-ancilla OTOC runs there too,
on the system register with the ancilla's forward sector as U.  The real
and imaginary parts differ only in the first measurement of A, so the
builder takes the requested parts together: U, B(t), the measurements
after the first and A's signed permutation are built and checked once
for all of them, and exact density values share one effect Z.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import fsum

import numpy as np

from .core import (
    CHECK_TOL,
    DensityMatrix,
    NumericalInvariantError,
    PureState,
    embed,
    is_unitary,
)
from .dynamics import ClockPropagator, Propagator, heisenberg
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


class _Measurement:
    """The two Kraus operators K_a = c0 1 + c1 B of one measure step.

    ``alphas`` holds the generalized eigenvalues of the two outcomes,
    ``weights`` the per-outcome weights of X, XB, BX, BXB and
    ``transfer_weights`` their alpha-weighted sum W = sum_a alpha_a w_a,
    the weights of the transfer map, and ``adjoint_weights`` those of its
    adjoint.  Subclasses supply B X (``left``), X B (``right``), the four
    traces Tr X, Tr XB, Tr BX, Tr BXB (``trace_terms``) and the matrices B
    and B^2 (``dense``).
    """

    def __init__(self, spec: MeasurementSpec):
        self.phi = spec.phi
        self.weights = _kraus_weights(spec)
        self.alphas = tuple(generalized_eigenvalue(spec.phi, a) for a in (0, 1))
        self.transfer_weights = tuple(
            sum(a * w[j] for a, w in zip(self.alphas, self.weights)) for j in range(4)
        )
        # Tr(E(X) Z) = Tr(X E^dag(Z)) with E^dag(Z) = W0 Z + W1 BZ + W2 ZB
        # + W3 BZB: the four terms of Z with the XB and BX weights swapped.
        w0, w1, w2, w3 = self.transfer_weights
        self.adjoint_weights = (w0, w2, w1, w3)

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

    def _terms(self, state, weights):
        """(X, XB, BX, BXB), forming only the terms some weight needs."""
        need = [any(w[j] != 0.0 for w in weights) for j in range(4)]
        bx = self.left(state) if need[2] or need[3] else None
        return (
            state,
            self.right(state) if need[1] else None,
            bx,
            self.right(bx) if need[3] else None,
        )

    def children(self, state):
        """The unnormalized children K_a X K_a^dag in outcome order."""
        terms = self._terms(state, self.weights)
        for w in self.weights:
            yield self._combine(terms, w)

    def traces(self, state):
        """Tr(K_a X K_a^dag) in outcome order, without forming the children."""
        t = self.trace_terms(state)
        return [self._combine(t, w).real for w in self.weights]

    def transfer(self, state):
        """E(X) = sum_a alpha_a K_a X K_a^dag."""
        w = self.transfer_weights
        return self._combine(self._terms(state, (w,)), w)

    def adjoint_transfer(self, z):
        """E^dag(Z), the map with Tr(E(X) Z) = Tr(X E^dag(Z))."""
        w = self.adjoint_weights
        return self._combine(self._terms(z, (w,)), w)

    def effect(self):
        """E^dag(1) = W0 1 + (W1 + W2) B + W3 B^2, formed from B and B^2
        (``dense``) without a product."""
        b, b_sq = self.dense()
        eye = np.identity(len(b), dtype=np.complex128)
        return self._combine((eye, b, b, b_sq), self.adjoint_weights)

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
    if abs(norm - 1.0) > 1e-12 or abs(cross) > 1e-12:
        raise NumericalInvariantError(
            f"Kraus coefficients violate completeness (norm {norm!r}, "
            f"cross term {cross!r})"
        )


class _PauliMeasurement(_Measurement):
    """B = P acts through its signed permutation ``(perm, d)``: O(dim^2)
    per child, O(dim) per trace.  P^2 = 1, so completeness is checked in
    scalar form (:func:`_check_scalar_completeness`).
    """

    def __init__(self, spec: MeasurementSpec, perm, d):
        super().__init__(spec)
        _check_scalar_completeness(self.weights)
        self.perm, self.d, self.d_conj = perm, d, d.conj()
        self.index = np.arange(len(perm))

    def dense(self):
        """P as a matrix, and P^2 = 1."""
        p = np.zeros((len(self.perm),) * 2, dtype=np.complex128)
        p[self.index, self.perm] = self.d
        return p, np.identity(len(p), dtype=np.complex128)

    def left(self, x):
        return self.d[:, None] * x[self.perm]

    def right(self, x):
        return x[:, self.perm] * self.d_conj

    def trace_terms(self, x):
        i, perm = self.index, self.perm
        diag = x[i, i]
        return (
            diag.sum(),
            np.dot(x[i, perm], self.d_conj),
            np.dot(self.d, x[perm, i]),
            diag[perm].sum(),  # |d| = 1
        )


class _DenseMeasurement(_Measurement):
    """B is a raw observable matrix on the register: three products per
    state for both children, O(dim^2) per trace.

    Completeness, sum_a K_a^dag K_a = sum_a w0 1 + (w1 + w2) B + w3 B^2
    = 1, is checked to 1e-12 from the square ``b_sq`` = B B, without
    assuming B^2 = 1.
    """

    def __init__(self, spec: MeasurementSpec, b, b_sq):
        super().__init__(spec)
        w0, w1, w2, w3 = (sum(w[k] for w in self.weights) for k in range(4))
        residual = (w1 + w2) * b
        residual += w3 * b_sq
        residual.flat[:: len(b) + 1] += w0 - 1.0
        dev = float(np.max(np.abs(residual)))
        if dev > 1e-12:
            raise NumericalInvariantError(
                f"Kraus operators violate completeness by {dev:.3e}"
            )
        self.b = b
        self.b_sq = b_sq

    @functools.cached_property
    def _transposes(self):
        """B^T and (B^2)^T, flattened; copied only by a measurement that
        takes traces.  Tr(M X) = sum_ij M[i, j] X[j, i] is summed over
        M^T * X by numpy's pairwise summation, which rounds less than a
        BLAS dot product."""
        return self.b.T.ravel(), self.b_sq.T.ravel()

    def dense(self):
        return self.b, self.b_sq

    def left(self, x):
        return self.b @ x

    def right(self, x):
        return x @ self.b

    def trace_terms(self, x):
        b_t, b_sq_t = self._transposes
        flat = x.ravel()
        tr_bx = np.sum(b_t * flat)  # Tr XB = Tr BX
        tr_bbx = np.sum(b_sq_t * flat)  # Tr BXB = Tr B^2 X
        return np.trace(x), tr_bx, tr_bx, tr_bbx


class _HeisenbergMeasurement(_Measurement):
    """Measure B(t) = U^dag B U, where ``spec`` gives B, the strength and
    the kind, and ``apply`` maps a dim x k block x to B(t) x by U's
    spectrum (see :func:`_heisenberg_action`), O(dim^2 k) per block;
    neither U nor B(t) is formed.  It acts on factor pairs only, so it has
    ``left`` and no ``right``, ``trace_terms`` or ``dense``.  B(t)^2 = 1 is
    checked where ``apply`` is built, so completeness takes the scalar
    form.
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
    :class:`_DenseMeasurement`.  Both yield the unnormalized children
    K_a X K_a^dag in outcome order, the transfer map and its adjoint, and,
    for the last measurement, only traces.  A prebuilt measurement (such
    as a :class:`_HeisenbergMeasurement`, which acts on the factors of a
    pure state only) is taken as it is; after an evolution it is rejected,
    as it cannot be folded.  Evolutions after the last measurement are
    shape-checked and dropped, as they preserve every trace.  A sequence
    without measurements is rejected.
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
        elif isinstance(step, _Measurement):
            if v is not None:
                raise ValueError(
                    "a prebuilt measurement cannot follow an evolution step"
                )
            resolved.append(step)
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


def _leaves(resolved, i, state, outcomes, weight):
    """Yield ``(outcomes, weight, trace)`` for every leaf below ``state``,
    depth first in outcome order; step ``i`` acts on ``state`` next."""
    step = resolved[i]
    if i == len(resolved) - 1:
        for a, prob in enumerate(step.traces(state)):
            yield outcomes + (a,), weight * step.alphas[a], prob
    else:
        for a, child in enumerate(step.children(state)):
            yield from _leaves(
                resolved, i + 1, child, outcomes + (a,), weight * step.alphas[a]
            )


def sequence_distribution(
    initial: DensityMatrix | PureState, steps
) -> list[OutcomeRecord]:
    """Enumerate all outcome strings with exact probabilities and weights.

    Probabilities follow the sequential Born rule
    P(a_1..a_m) = Tr(K_m ... K_1 rho K_1^dag ... K_m^dag) with unitary
    steps interleaved (folded into the measurements by
    :func:`_resolve_steps`); they are checked to sum to 1 within 1e-10.  A
    pure state is converted to its density matrix.
    """
    if isinstance(initial, PureState):
        initial = initial.density()
    resolved, phis = _resolve_steps(initial, steps)
    m = len(phis)
    if m > MAX_ENUMERATED_MEASUREMENTS:
        raise ValueError(
            f"{m} measurement steps exceed the enumeration limit of "
            f"{MAX_ENUMERATED_MEASUREMENTS}"
        )
    records: list[OutcomeRecord] = []
    for outcomes, weight, prob in _leaves(resolved, 0, initial.matrix, (), 1.0):
        prob = float(prob)
        if prob < -1e-12 or prob > 1 + 1e-12:
            raise NumericalInvariantError(f"branch probability {prob} outside [0, 1]")
        records.append(OutcomeRecord(outcomes, weight, prob))
    total = fsum(r.probability for r in records)
    if abs(total - 1.0) > 1e-10:
        raise NumericalInvariantError(
            f"sequence probabilities sum to {total!r}, not 1"
        )
    return records


def _transfer_values(initial: DensityMatrix | PureState, firsts, rest):
    """The exact weighted averages Tr(E_m ... E_2 E_1(rho)), one for each
    first measurement E_1 in ``firsts``, all followed by the resolved
    measurements ``rest`` (see :func:`_resolve_steps`).

    A density matrix is evaluated from the back: the effect Z = E_2^dag ...
    E_m^dag(1) is formed once, the last measurement's E^dag(1) from B and
    B^2 alone, and shared by every first measurement, whose value is
    Tr(E_1(rho) Z), summed elementwise.  A pure state psi travels forward
    as the factor pair X = L R^dag, starting from (psi, psi): a measurement
    concatenates the factors of its nonzero-weight terms, so no dim x dim
    state is formed, and the last one gives Tr E(X).
    Every E preserves Hermiticity and each value is a nested bracket of
    involutions, so it must be finite and real to 1e-10 with magnitude at
    most 1 + 1e-10; otherwise :class:`NumericalInvariantError` is raised.
    """
    values = []
    if isinstance(initial, PureState):
        psi = initial.amplitudes[:, None]
        for first in firsts:
            *inner, last = (first, *rest)
            pair = (psi, psi)
            for step in inner:
                pair = step.transfer_factors(pair)
            values.append(complex(last.factor_trace(pair)))
    else:
        if rest:
            *inner, last = rest
            z = last.effect()
            for step in reversed(inner):
                z = step.adjoint_transfer(z)
        else:
            z = np.identity(initial.dim)
        z_t = z.T.ravel()
        for first in firsts:
            values.append(complex(np.sum(z_t * first.transfer(initial.matrix).ravel())))
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


def _estimates(initial, firsts, rest, mode, trials, seeds):
    """One estimate for each first measurement in ``firsts``, followed by
    the resolved measurements ``rest``; sampled mode takes one seed per
    first measurement.  Exact values share the evaluation of ``rest``
    (:func:`_transfer_values`); sampled ones run one outcome tree each
    (:func:`sample_protocol`)."""
    if mode == "exact":
        values = _transfer_values(initial, firsts, rest)
        estimates = []
        for value, first in zip(values, firsts):
            phis = (first.phi,) + tuple(s.phi for s in rest)
            estimates.append(
                CorrelatorEstimate(
                    value=value,
                    mode="exact",
                    trials=(0,) * len(phis),
                    phis=phis,
                    rms_bound=0.0,
                    empirical_stderr=0.0,
                )
            )
        return estimates
    if mode == "sampled":
        if trials is None or seeds is None or None in seeds:
            raise ValueError("sampled mode needs trials and seed")
        if len(seeds) != len(firsts):
            raise ValueError(
                f"sampled mode needs {len(firsts)} seed(s), got {len(seeds)}"
            )
        return [
            sample_protocol(initial, [first, *rest], trials, seed)
            for first, seed in zip(firsts, seeds)
        ]
    raise ValueError(f"unknown mode {mode!r}")


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
    a pure state travels there as vector factors.  Sampled mode draws
    outcome strings from the enumerated outcome tree
    (:func:`sample_protocol`), which holds a pure state as its density
    matrix.
    """
    resolved, _ = _resolve_steps(initial, steps)
    return _estimates(initial, resolved[:1], resolved[1:], mode, trials, (seed,))[0]


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
    """Monte Carlo estimate: average alpha products over sampled strings.

    Trial k draws its outcome string from :func:`sequence_distribution`
    with row k of :func:`trial_uniforms`: at measurement j it takes outcome
    1 iff ``u[k, j] < P(prefix, 1) / P(prefix)``, where a prefix
    probability sums the leaves below it (exact, as later steps preserve
    the trace).  Sampled mode thus gets the distribution's invariant
    checks and its limit of ``MAX_ENUMERATED_MEASUREMENTS`` measurements.
    ``empirical_stderr`` is the sample standard error of the mean.
    """
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    resolved, phis = _resolve_steps(initial, steps)
    records = sequence_distribution(initial, resolved)
    m = len(phis)

    # Leaves come in lexicographic order, so leaf i is the outcome string
    # spelling i in binary; tree[j][i] is the probability of the j-outcome
    # prefix i.
    tree = [np.array([r.probability for r in records])]
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
    weights = np.array([r.weight for r in records])[leaf]

    mean = fsum(weights) / trials
    if trials > 1:
        var = fsum((x - mean) ** 2 for x in weights) / (trials - 1)
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


def _evolution_matrix(evolution, dim: int) -> np.ndarray:
    """The evolution's matrix, checked once for shape and unitarity."""
    if isinstance(evolution, Propagator):
        u = evolution.matrix
    else:
        u = np.asarray(evolution, dtype=np.complex128)
    if u.shape != (dim, dim):
        raise ValueError(
            f"evolution 'U_t' has shape {u.shape}, expected {(dim, dim)}"
        )
    if not is_unitary(u, CHECK_TOL):
        raise ValueError("evolution 'U_t' is not unitary to 1e-10")
    return u


def _heisenberg_action(spec: MeasurementSpec, u: Propagator, initial: PureState):
    """x -> B(t) x = U^dag (B (U x)) for dim x k blocks x, with B the
    observable of ``spec`` on the whole register and U applied by its
    spectrum: V e^{iEt} V^dag B V e^{-iEt} V^dag x.

    B(t)^2 = 1 is checked on the initial vector, ||B(t) (B(t) psi) -
    psi||_inf <= 1e-10, once per call of :func:`_heisenberg_protocol`
    (one time point, every part); a corrupted propagator fails here with
    :class:`NumericalInvariantError`.
    """
    n, dim = initial.n_qubits, 2**initial.n_qubits
    if u.evecs.shape != (dim, dim):
        raise ValueError(
            f"evolution 'U_t' has shape {u.evecs.shape}, expected {(dim, dim)}"
        )
    if spec.n_qubits != n:
        raise ValueError(
            f"measurement of a {spec.n_qubits}-qubit observable on {n} qubits"
        )
    if isinstance(spec.observable, PauliString):
        perm, d = spec.observable.action(n)
        d = d[:, None]

        def apply_b(y):
            return d * y[perm]

    else:
        apply_b = spec.observable.__matmul__

    def apply(x):
        return u.apply(apply_b(u.apply(x)), adjoint=True)

    psi = initial.amplitudes[:, None]
    dev = float(np.max(np.abs(apply(apply(psi)) - psi)))
    if not dev <= CHECK_TOL:
        raise NumericalInvariantError(
            f"B(t) does not square to the identity on the initial state "
            f"(deviation {dev:.3e})"
        )
    return apply


_FIRST_KINDS = {"real": INFORMATIVE, "imag": NONINFORMATIVE}


def _heisenberg_protocol(
    initial, a, b, count, evolution, parts, phis, mode="exact", trials=None, seeds=None
) -> list[CorrelatorEstimate]:
    """Measure A, B(t), A, B(t), ... for ``count`` steps (2 for the TOC, 4
    for the OTOC) in the Heisenberg frame, with B(t) = U^dag B U, and
    return one estimate per part in ``parts``.  The first A is informative
    for part 'real' and noninformative for part 'imag'; every later step is
    informative.  Sampled mode takes one seed per part.

    The parts differ only in their first measurement, so everything after
    it is built and checked once for all of them: U, B(t), the B(t)
    measurements, A's signed permutation and the later A measurements.

    The input picks the route once.  A pure ``initial`` with a
    :class:`Propagator` ``evolution`` in exact mode travels as vector
    factors: every B(t) step applies one checked :func:`_heisenberg_action`
    through the propagator's spectrum, so neither U nor B(t) is formed.
    Every other input takes the density route: a pure state is converted to
    its density matrix, U is checked unitary, and B(t) is built by
    :func:`heisenberg` into one checked spec, shared by every B(t) step,
    so B(t)^2 is formed once.  Exact density values share one backward
    evaluation of the steps after the first (:func:`_transfer_values`).
    """
    phis = tuple(float(p) for p in phis)
    if len(phis) != count:
        raise ValueError(f"this protocol takes {count} strength angles, got {len(phis)}")
    for part in parts:
        if part not in _FIRST_KINDS:
            raise ValueError(f"part must be 'real' or 'imag', got {part!r}")

    if (
        isinstance(initial, PureState)
        and isinstance(evolution, Propagator)
        and mode == "exact"
    ):
        spec_b = MeasurementSpec(b, phis[1], INFORMATIVE)
        apply = _heisenberg_action(spec_b, evolution, initial)

        def b_step(spec):
            return _HeisenbergMeasurement(spec, apply)

    else:
        if isinstance(initial, PureState):
            initial = initial.density()
        u = _evolution_matrix(evolution, initial.dim)
        spec_b = MeasurementSpec(heisenberg(b, u), phis[1], INFORMATIVE)
        b_step = MeasureStep

    steps = [MeasureStep(MeasurementSpec(a, phis[0], _FIRST_KINDS[p])) for p in parts]
    for k, phi in enumerate(phis[1:], start=1):
        if k % 2:
            steps.append(b_step(spec_b if k == 1 else spec_b.with_phi(phi)))
        else:
            steps.append(MeasureStep(MeasurementSpec(a, phi, INFORMATIVE)))
    resolved, _ = _resolve_steps(initial, steps)
    firsts, rest = resolved[: len(parts)], resolved[len(parts) :]
    return _estimates(initial, firsts, rest, mode, trials, seeds)


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
    (estimate,) = _heisenberg_protocol(
        initial, a, b, 2, evolution, (part,), phis, mode, trials, (seed,)
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
    U_c).  :class:`ClockPropagator` checks that U_c is block diagonal in
    the ancilla with its |0> sector the adjoint of its |1> sector, so
    X_anc U_c X_anc = U_c^dag and the state never leaves the ancilla-|1>
    sector: the clock sequence is the direct one with U = ``clock.forward``
    on the system register, and runs as such.

    In both cases the backward step is U^dag, so the sequence runs in the
    Heisenberg frame as A, B(t), A, B(t), with the same outcome
    distribution.  :func:`_heisenberg_protocol` builds it and picks the
    route.
    """
    if (evolution is None) == (clock is None):
        raise ValueError("provide exactly one of evolution or clock")
    if clock is not None:
        evolution = clock.forward
    (estimate,) = _heisenberg_protocol(
        initial, a, b, 4, evolution, (part,), phis, mode, trials, (seed,)
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
