"""Sequential-measurement engine: one outcome-tree walk, exact or sampled.

The engine walks the full outcome tree, applying the measurements' Kraus
operators and interleaved unitaries, and records each outcome string with
its sequential-Born probability and generalized-eigenvalue weight.  For a
Pauli-string observable P, K_a = c0 1 + c1 P acts through P's signed
permutation of rows and columns (O(dim^2) per branch, no dense Kraus
matrix); a raw observable matrix is embedded and applied densely, and
evolutions stay dense products.  Exact mode contracts the weights against
those probabilities; it is the verification reference, and its value is
independent of every strength angle.

Sampled mode models the experiment: each trial draws one outcome string
from the same tree, measurement by measurement with the conditional Born
probabilities.  Randomness is counter-based (Philox keyed by the seed;
trial k consumes row k of the uniform block), so results do not depend on
execution order, and aggregation uses exactly-rounded summation
(math.fsum) for bit-stable results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
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
    _validate_phi,
    generalized_eigenvalue,
    kraus_coefficients,
    kraus_pair,
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


def _pauli_weights(spec: MeasurementSpec):
    """Per-outcome weights of X, X P, P X, P X P in K_a X K_a^dag.

    K_a = c0 1 + c1 P gives K_a X K_a^dag = |c0|^2 X + c0 conj(c1) X P
    + c1 conj(c0) P X + |c1|^2 P X P.  Completeness, sum_a K_a^dag K_a = 1,
    is checked in its scalar form: sum_a |c0|^2 + |c1|^2 = 1 and
    sum_a Re(conj(c0) c1) = 0.
    """
    weights = tuple(
        (abs(c0) ** 2, c0 * c1.conjugate(), c1 * c0.conjugate(), abs(c1) ** 2)
        for c0, c1 in kraus_coefficients(spec)
    )
    norm = fsum(w[0] + w[3] for w in weights)
    cross = fsum(w[1].real for w in weights)
    if abs(norm - 1.0) > 1e-12 or abs(cross) > 1e-12:
        raise NumericalInvariantError(
            f"Kraus coefficients violate completeness (norm {norm!r}, "
            f"cross term {cross!r})"
        )
    return weights


def _pauli_children(weights, perm, d, state):
    """Children K_a X K_a^dag by row and column gathers, O(dim^2)."""
    d_conj = d.conj()
    px = d[:, None] * state[perm]
    xp = state[:, perm] * d_conj
    pxp = px[:, perm] * d_conj
    for w in weights:
        yield w[0] * state + w[1] * xp + w[2] * px + w[3] * pxp


def _dense_children(ks, state):
    for k, k_dag in ks:
        yield k @ state @ k_dag


def _resolve_steps(initial: DensityMatrix, steps):
    """Resolve every step to its action on the register state.

    A measurement yields ``("measure", children, alphas)``, where
    ``children(state)`` yields the unnormalized post-measurement states in
    outcome order.  Pauli-string observables act as signed permutations;
    a raw observable matrix is embedded densely.  An evolution yields
    ``("evolve", (u, u_dag), None)``.
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
            if isinstance(spec.observable, PauliString):
                perm, d = spec.observable.action(n, targets)
                children = partial(_pauli_children, _pauli_weights(spec), perm, d)
            else:
                pair = kraus_pair(spec)
                ks = [embed(pair[a], n, targets) for a in (0, 1)]
                children = partial(_dense_children, [(k, k.conj().T) for k in ks])
            alphas = tuple(generalized_eigenvalue(spec.phi, a) for a in (0, 1))
            resolved.append(("measure", children, alphas))
            phis.append(spec.phi)
        elif isinstance(step, EvolveStep):
            if step.unitary.shape != (dim, dim):
                raise ValueError(
                    f"evolution step {step.label!r} has shape "
                    f"{step.unitary.shape}, expected {(dim, dim)}"
                )
            resolved.append(("evolve", (step.unitary, step.unitary.conj().T), None))
        else:
            raise TypeError(f"unknown sequence step {step!r}")
    return resolved, tuple(phis)


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

    def walk(i, state, outcomes, weight):
        if i == len(resolved):
            prob = float(np.real(np.trace(state)))
            if prob < -1e-12 or prob > 1 + 1e-12:
                raise NumericalInvariantError(
                    f"branch probability {prob} outside [0, 1]"
                )
            records.append(OutcomeRecord(outcomes, weight, prob))
            return
        kind, payload, alphas = resolved[i]
        if kind == "evolve":
            u, u_dag = payload
            walk(i + 1, u @ state @ u_dag, outcomes, weight)
        else:
            for a, child in enumerate(payload(state)):
                walk(i + 1, child, outcomes + (a,), weight * alphas[a])

    walk(0, initial.matrix, (), 1.0)
    total = fsum(r.probability for r in records)
    if abs(total - 1.0) > 1e-10:
        raise NumericalInvariantError(
            f"sequence probabilities sum to {total!r}, not 1"
        )
    return records


def _measured_distribution(initial: DensityMatrix, steps):
    """Sequence distribution and strength angles; needs a measurement."""
    steps = list(steps)
    records = sequence_distribution(initial, steps)
    if not records[0].outcomes:
        raise ValueError("sequence contains no measurements")
    return records, tuple(s.spec.phi for s in steps if isinstance(s, MeasureStep))


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
    """
    if mode == "exact":
        records, phis = _measured_distribution(initial, steps)
        value = fsum(r.weight * r.probability for r in records)
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
    the trace).  Sampled mode thus shares the invariant checks and the
    limit of ``MAX_ENUMERATED_MEASUREMENTS`` measurements of exact mode.
    ``empirical_stderr`` is the sample standard error of the mean.
    """
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    records, phis = _measured_distribution(initial, steps)
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


def _evolution_matrix(evolution) -> np.ndarray:
    if isinstance(evolution, Propagator):
        return evolution.matrix
    return np.asarray(evolution, dtype=np.complex128)


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
    (part='imag'), for every strength choice.  The trailing inverse
    evolution is omitted: it cannot change the statistics.
    """
    phis = _check_phis(phis, 2)
    u = _evolution_matrix(evolution)
    steps = [
        MeasureStep(MeasurementSpec(a, phis[0], _first_kind(part))),
        EvolveStep(u, "U_t"),
        MeasureStep(MeasurementSpec(b, phis[1], INFORMATIVE)),
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
    one qubit whose computational state selects the time direction).
    """
    if (evolution is None) == (clock is None):
        raise ValueError("provide exactly one of evolution or clock")
    phis = _check_phis(phis, 4)
    kind_first = _first_kind(part)

    if clock is None:
        u = _evolution_matrix(evolution)
        reg = initial
        targets = None
        forward = EvolveStep(u, "U_t")
        backward = EvolveStep(u.conj().T, "U_t_dagger")
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
        # X on the ancilla conjugates by permuting rows and columns.
        flip, _ = PauliString(("X",)).action(n + 1, (n,))
        forward = EvolveStep(clock.matrix, "U_clock")
        backward = EvolveStep(clock.matrix[flip][:, flip], "U_clock_reversed")

    steps = [
        MeasureStep(MeasurementSpec(a, phis[0], kind_first), targets),
        forward,
        MeasureStep(MeasurementSpec(b, phis[1], INFORMATIVE), targets),
        backward,
        MeasureStep(MeasurementSpec(a, phis[2], INFORMATIVE), targets),
        forward,
        MeasureStep(MeasurementSpec(b, phis[3], INFORMATIVE), targets),
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
