"""Sequential-measurement engine: exact transfer maps, sampled outcome trees.

Every Kraus operator has the form K_a = c0 1 + c1 B, so K_a X K_a^dag is
w0 X + w1 X B + w2 B X + w3 B X B with per-outcome weights w.  For a
Pauli-string observable P the terms come from P's signed permutation of
rows and columns (O(dim^2), no dense Kraus matrix); for a raw observable
matrix B they cost a product each.  A term whose weight is exactly zero
is not formed.

Exact mode is the verification reference.  By linearity, the weighted
average over outcome strings is Tr(E_m ... E_1(rho)) with the transfer
map E_k(X) = sum_a alpha_a K_a X K_a^dag, whose weights are
W = sum_a alpha_a w_a.  The engine carries one matrix through the
sequence, one four-term update per measurement and X -> u X u^dag per
evolution, and the last measurement contributes one weighted trace.  The
+-1/sin(phi) outcome weights cancel in the four scalars W, so the value
keeps full precision at every strength and does not depend on the
strength angles.

Sampled mode models the experiment.  It walks the full outcome tree,
recording each outcome string with its sequential-Born probability and
alpha-product weight (the last measurement builds no child: a leaf needs
only Tr(K_a X K_a^dag)); each trial then draws one string, measurement by
measurement with the conditional Born probabilities.  Randomness is
counter-based (Philox keyed by the seed; trial k consumes row k of the
uniform block), so results do not depend on execution order, and
aggregation uses exactly-rounded summation (math.fsum) for bit-stable
results.

The TOC and OTOC protocols run in the Heisenberg frame: B(t) = U^dag B U
is built once per call, and the interleaved sequence A, U, B, U^dag, A, U,
B becomes A, B(t), A, B(t) with the same outcome distribution, so their
sequences hold only measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum

import numpy as np

from .core import (
    CHECK_TOL,
    DensityMatrix,
    NumericalInvariantError,
    embed,
    is_unitary,
    tensor,
)
from .dynamics import ClockPropagator, Propagator
from .measurement import (
    INFORMATIVE,
    NONINFORMATIVE,
    MeasurementSpec,
    _observable_matrix,
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

    ``weights`` holds the per-outcome weights of X, XB, BX, BXB and
    ``transfer_weights`` their alpha-weighted sum W = sum_a alpha_a w_a,
    the weights of the transfer map.  Subclasses supply B X (``left``),
    X B (``right``) and the four traces Tr X, Tr XB, Tr BX, Tr BXB
    (``trace_terms``).
    """

    def __init__(self, spec: MeasurementSpec, alphas):
        self.weights = _kraus_weights(spec)
        self.alphas = alphas
        self.transfer_weights = tuple(
            sum(a * w[j] for a, w in zip(alphas, self.weights)) for j in range(4)
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

    def transfer_trace(self, state):
        """Tr E(X), without forming E(X)."""
        return self._combine(self.trace_terms(state), self.transfer_weights)


class _PauliMeasurement(_Measurement):
    """B = P acts through its signed permutation ``(perm, d)``: O(dim^2)
    per child, O(dim) per trace.

    Completeness, sum_a K_a^dag K_a = 1, is checked in its scalar form:
    sum_a |c0|^2 + |c1|^2 = 1 and sum_a Re(conj(c0) c1) = 0.
    """

    def __init__(self, spec: MeasurementSpec, perm, d, alphas):
        super().__init__(spec, alphas)
        norm = fsum(w[0] + w[3] for w in self.weights)
        cross = fsum(w[1].real for w in self.weights)
        if abs(norm - 1.0) > 1e-12 or abs(cross) > 1e-12:
            raise NumericalInvariantError(
                f"Kraus coefficients violate completeness (norm {norm!r}, "
                f"cross term {cross!r})"
            )
        self.perm, self.d, self.d_conj = perm, d, d.conj()
        self.index = np.arange(len(perm))

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

    def __init__(self, spec: MeasurementSpec, b, b_sq, alphas):
        super().__init__(spec, alphas)
        eye = np.eye(len(b))
        w0, w1, w2, w3 = (sum(w[k] for w in self.weights) for k in range(4))
        dev = float(np.max(np.abs(w0 * eye + (w1 + w2) * b + w3 * b_sq - eye)))
        if dev > 1e-12:
            raise NumericalInvariantError(
                f"Kraus operators violate completeness by {dev:.3e}"
            )
        self.b = b
        # Tr(M X) = sum_ij M[i, j] X[j, i], summed over M^T * X by numpy's
        # pairwise summation, which rounds less than a BLAS dot product.
        self.b_t = b.T.ravel()
        self.b_sq_t = b_sq.T.ravel()

    def left(self, x):
        return self.b @ x

    def right(self, x):
        return x @ self.b

    def trace_terms(self, x):
        flat = x.ravel()
        tr_bx = np.sum(self.b_t * flat)  # Tr XB = Tr BX
        tr_bbx = np.sum(self.b_sq_t * flat)  # Tr BXB = Tr B^2 X
        return np.trace(x), tr_bx, tr_bx, tr_bbx


def _resolve_steps(initial: DensityMatrix, steps):
    """Resolve every step to its action on the register state.

    A measurement becomes a :class:`_PauliMeasurement` or, for a raw
    observable matrix, a :class:`_DenseMeasurement` (the matrix and the
    square its spec formed when it was checked, embedded on the targets).
    Both yield the unnormalized children K_a X K_a^dag in outcome order or
    the transfer map, and, for the last measurement, only traces.  An
    evolution becomes ``(u, u_dag)``.  Evolutions after the last
    measurement are checked and dropped, as they preserve every trace.
    A sequence without measurements is rejected.
    """
    n = initial.n_qubits
    dim = initial.dim
    resolved = []
    phis = []
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
            alphas = tuple(generalized_eigenvalue(spec.phi, a) for a in (0, 1))
            if isinstance(spec.observable, PauliString):
                perm, d = spec.observable.action(n, targets)
                resolved.append(_PauliMeasurement(spec, perm, d, alphas))
            else:
                b, b_sq = spec.matrix(), spec._square
                if step.targets is not None:
                    b, b_sq = embed(b, n, targets), embed(b_sq, n, targets)
                resolved.append(_DenseMeasurement(spec, b, b_sq, alphas))
            phis.append(spec.phi)
        elif isinstance(step, EvolveStep):
            if step.unitary.shape != (dim, dim):
                raise ValueError(
                    f"evolution step {step.label!r} has shape "
                    f"{step.unitary.shape}, expected {(dim, dim)}"
                )
            resolved.append((step.unitary, step.unitary.conj().T))
        else:
            raise TypeError(f"unknown sequence step {step!r}")
    if not phis:
        raise ValueError("sequence contains no measurements")
    while isinstance(resolved[-1], tuple):
        resolved.pop()
    return resolved, tuple(phis)


def _leaves(resolved, i, state, outcomes, weight):
    """Yield ``(outcomes, weight, trace)`` for every leaf below ``state``,
    depth first in outcome order; step ``i`` acts on ``state`` next."""
    step = resolved[i]
    if isinstance(step, tuple):
        u, u_dag = step
        yield from _leaves(resolved, i + 1, u @ state @ u_dag, outcomes, weight)
    elif i == len(resolved) - 1:
        for a, prob in enumerate(step.traces(state)):
            yield outcomes + (a,), weight * step.alphas[a], prob
    else:
        for a, child in enumerate(step.children(state)):
            yield from _leaves(
                resolved, i + 1, child, outcomes + (a,), weight * step.alphas[a]
            )


def sequence_distribution(initial: DensityMatrix, steps) -> list[OutcomeRecord]:
    """Enumerate all outcome strings with exact probabilities and weights.

    Probabilities follow the sequential Born rule
    P(a_1..a_m) = Tr(K_m ... K_1 rho K_1^dag ... K_m^dag) with unitary
    steps interleaved; they are checked to sum to 1 within 1e-10.
    """
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


def _transfer_value(initial: DensityMatrix, steps):
    """The exact weighted average Tr(E_m ... E_1(rho)), and the strength
    angles.

    One matrix is carried through the sequence: each measurement but the
    last applies its transfer map E(X) = sum_a alpha_a K_a X K_a^dag, each
    evolution maps X to u X u^dag, and the last measurement gives Tr E(X).
    Every E preserves Hermiticity and the value is a nested bracket of
    involutions, so it must be finite and real to 1e-10 with magnitude at
    most 1 + 1e-10; otherwise :class:`NumericalInvariantError` is raised.
    """
    resolved, phis = _resolve_steps(initial, steps)
    *inner, last = resolved
    state = initial.matrix
    for step in inner:
        if isinstance(step, tuple):
            u, u_dag = step
            state = u @ state @ u_dag
        else:
            state = step.transfer(state)
    value = complex(last.transfer_trace(state))
    if not (
        math.isfinite(value.real)
        and math.isfinite(value.imag)
        and abs(value.imag) <= 1e-10
        and abs(value.real) <= 1 + 1e-10
    ):
        raise NumericalInvariantError(
            f"exact value {value!r} is not real with magnitude at most 1"
        )
    return value.real, phis


def nested_estimate(
    initial: DensityMatrix,
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

    Exact mode computes it by transfer maps (:func:`_transfer_value`), in
    O(m) matrix updates and without a limit on the number of
    measurements; sampled mode draws outcome strings from the enumerated
    outcome tree (:func:`sample_protocol`).
    """
    if mode == "exact":
        value, phis = _transfer_value(initial, steps)
        return CorrelatorEstimate(
            value=value,
            mode="exact",
            trials=(0,) * len(phis),
            phis=phis,
            rms_bound=0.0,
            empirical_stderr=0.0,
        )
    if mode == "sampled":
        if trials is None or seed is None:
            raise ValueError("sampled mode needs trials and seed")
        return sample_protocol(initial, steps, trials, seed)
    raise ValueError(f"unknown mode {mode!r}")


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
    initial: DensityMatrix, steps, trials: int, seed: int
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
    steps = list(steps)
    records = sequence_distribution(initial, steps)
    phis = tuple(s.spec.phi for s in steps if isinstance(s, MeasureStep))
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


def _evolution_matrix(evolution, dim: int, label: str) -> np.ndarray:
    """The evolution's matrix, checked once for shape and unitarity."""
    if isinstance(evolution, (Propagator, ClockPropagator)):
        u = evolution.matrix
    else:
        u = np.asarray(evolution, dtype=np.complex128)
    if u.shape != (dim, dim):
        raise ValueError(
            f"evolution {label!r} has shape {u.shape}, expected {(dim, dim)}"
        )
    if not is_unitary(u, CHECK_TOL):
        raise ValueError(f"evolution {label!r} is not unitary to 1e-10")
    return u


def _heisenberg_observable(b, u: np.ndarray, n: int, targets) -> np.ndarray:
    """B(t) = U^dag (B U) with B on ``targets`` of the n-qubit register.

    A Pauli string forms B U by its signed row permutation, so B(t) costs
    one product; a raw observable matrix is checked and embedded first.
    """
    if isinstance(b, PauliString):
        perm, d = b.action(n, targets)
        bu = d[:, None] * u[perm]
    else:
        targets = range(n) if targets is None else targets
        bu = embed(_observable_matrix(b), n, targets) @ u
    return u.conj().T @ bu


def _first_kind(part: str) -> str:
    if part == "real":
        return INFORMATIVE
    if part == "imag":
        return NONINFORMATIVE
    raise ValueError(f"part must be 'real' or 'imag', got {part!r}")


def _check_phis(phis, count: int) -> tuple[float, ...]:
    phis = tuple(float(p) for p in phis)
    if len(phis) != count:
        raise ValueError(f"this protocol takes {count} strength angles, got {len(phis)}")
    return phis


def toc(
    initial: DensityMatrix,
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

    The sequence runs in the Heisenberg frame: A, then B(t) = U^dag B U,
    built once from the evolution U (checked unitary once).  Measuring
    K(B) after U gives the probabilities of measuring K(B(t)) =
    U^dag K(B) U before it, and the trailing U^dag cannot change them.
    """
    phis = _check_phis(phis, 2)
    u = _evolution_matrix(evolution, initial.dim, "U_t")
    bt = _heisenberg_observable(b, u, initial.n_qubits, None)
    steps = [
        MeasureStep(MeasurementSpec(a, phis[0], _first_kind(part))),
        MeasureStep(MeasurementSpec(bt, phis[1], INFORMATIVE)),
    ]
    return nested_estimate(initial, steps, mode, trials, seed)


def otoc(
    initial: DensityMatrix,
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
    one qubit whose computational state selects the time direction, and
    the backward step flips the ancilla around the clock propagator U_c,
    which equals U_c^dag for exp(-i t H (x) Z)).

    In both cases the backward step is U^dag, so the sequence runs in the
    Heisenberg frame as A, B(t), A, B(t), with the same outcome
    distribution: B(t) = U^dag B U is built once per call (U_c^dag B U_c
    with B on the system qubits for the clock route) and the evolution is
    checked unitary once.  Both B(t) steps share one checked spec, so
    B(t)^2 is formed once.
    """
    if (evolution is None) == (clock is None):
        raise ValueError("provide exactly one of evolution or clock")
    phis = _check_phis(phis, 4)
    kind_first = _first_kind(part)

    if clock is None:
        reg = initial
        targets = None
        u = _evolution_matrix(evolution, reg.dim, "U_t")
    else:
        n = initial.n_qubits
        if clock.n_system != n:
            raise ValueError(
                f"clock propagator is for {clock.n_system} system qubits, "
                f"state has {n}"
            )
        reg = DensityMatrix(
            n + 1, tensor(initial.matrix, np.diag([0.0, 1.0]))
        )
        targets = tuple(range(n))
        u = _evolution_matrix(clock, reg.dim, "U_clock")
    bt = MeasurementSpec(
        _heisenberg_observable(b, u, reg.n_qubits, targets), phis[1], INFORMATIVE
    )

    steps = [
        MeasureStep(MeasurementSpec(a, phis[0], kind_first), targets),
        MeasureStep(bt),
        MeasureStep(MeasurementSpec(a, phis[2], INFORMATIVE), targets),
        MeasureStep(bt.with_phi(phis[3])),
    ]
    return nested_estimate(reg, steps, mode, trials, seed)


def otoc_value(part: str, average: float) -> float:
    """Convert the OTOC protocol average to the correlator part:
    Re F = 2 v - 1, Im F = 2 v."""
    if part == "real":
        return 2.0 * average - 1.0
    if part == "imag":
        return 2.0 * average
    raise ValueError(f"part must be 'real' or 'imag', got {part!r}")
