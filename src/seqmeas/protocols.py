"""Sequential-measurement engine: exact values and sampled outcome strings.

Every Kraus operator has the form K_a = c0 1 + c1 B, so K_a X K_a^dag is
w0 X + w1 X B + w2 B X + w3 B X B with per-outcome weights w.  So the
engine needs B only by its action x -> B x on dim x k blocks: a signed row
gather for a Pauli string P (O(dim k), no dense Kraus matrix) or a product
for a raw observable matrix, both built by one constructor
(:func:`_measurement`), and for B(t), on every route but the density
route, a map through the propagator.  Every state and effect the engine maps is
Hermitian, so XB = (BX)^dag and BXB = B (BX)^dag: BX costs one action and
BXB one more, and one formula (:meth:`_Measurement.maps`) serves every
observable.  A term is formed once for all the weight tuples a state is
mapped with, and not at all if every weight of it is exactly zero.

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
read as vdot(Z, E_1(rho)) of the Hermitian Z by the walk's one reader
(:func:`_traces`).  The walk writes every dim x dim array into one
workspace per grid (:class:`_Workspace`): its buffers belong to the grid,
one per walk depth and branch and one per scratch role, made at the
grid's first time point, and every later point overwrites them.

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
are summed exactly over the distinct leaf weights and rounded once, for
bit-stable results.

One builder, :func:`_sequence_grid`, evaluates every sequence.  It takes
a whole time grid, the sequence's steps and the number of parts (the
alternatives for the first measurement, which share everything after it).
Its measure and evolve steps are the same at every point; an evolved step
measures B(t) = U^dag B U after the grid's U(t), the one thing that depends
on the time.  So it builds the rest once per grid and picks one of the
routes its docstring lists, each with one builder of B(t), the only thing
a time point builds: an exact grid of propagators of one spectrum that is
long enough to pay for the frame runs in H's eigenbasis, pure or mixed;
an exact pure state on any other grid of propagators travels as vectors;
the rest run on density matrices.

The TOC and OTOC protocols are its presets (:func:`_heisenberg_protocol`),
in the Heisenberg frame: the interleaved sequence A, U, B, U^dag, A, U, B
becomes A, B(t), A, B(t) with the same outcome distribution, so their
sequences hold only measurements.  The clock-ancilla OTOC runs there too,
as the direct one with the clock's system propagator as U.  The step API
(:func:`nested_estimate`, :func:`sample_protocol`) makes one-point calls
of the builder without a time grid, with :class:`EvolveStep` as its way
to evolve; :func:`sequence_distribution` reads the same leaf
probabilities.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
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
# Past 2^53 a trial count is no longer exact as a float.
MAX_TRIALS = 2**53
# Sampled trials are drawn in blocks of this many rows, so a draw's memory
# is bounded whatever the trial count; every count up to the block runs in
# one block, as the one-shot draw did.
_TRIAL_BLOCK = 2**16


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
class _EvolvedStep:
    """Measure ``spec``'s observable B after the grid's evolution U(t), that
    is B(t) = U^dag B U: the one step of :func:`_sequence_grid` that
    depends on the time.  It is not a step of the public step API."""

    spec: MeasurementSpec


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
    total data volume of the estimator.  A count that is not an integer
    (``operator.index``) raises ``TypeError``.  A product that underflows
    to 0 (angles near 1e-160 and below) raises
    :class:`NumericalInvariantError`.
    """
    phis = [float(p) for p in phis]
    counts = [operator.index(n) for n in trials]
    if not phis or not counts:
        raise ValueError("phis and trials must be nonempty")
    if len(phis) != len(counts):
        raise ValueError("phis and trials must have equal length")
    if any(n < 1 for n in counts):
        raise ValueError("trial counts must be >= 1")
    for p in phis:
        _validate_phi(p)
    denom = math.prod(counts) * math.prod(math.sin(p) ** 2 for p in phis)
    if not denom > 0.0:
        raise NumericalInvariantError(
            f"rms bound is not finite: prod n_k sin^2 phi_k underflows to {denom!r}"
        )
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


class _Workspace(dict):
    """The arrays one grid's time points write into, by name: ``ws[key]``
    is a dim x dim complex buffer, made on its first request and handed
    out again on every later one, so it belongs to the grid, and each time
    point overwrites what the last one left there.  A point writes every
    buffer before it reads it, so it sees no other point's data, and a
    grid holds one set of buffers however many points it has."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, key) -> np.ndarray:
        buffer = self[key] = np.empty((self.dim, self.dim), np.complex128)
        return buffer

    def identity(self) -> np.ndarray:
        """The complex dim x dim identity, made on first use and never
        written."""
        eye = self.get("1")
        if eye is None:
            eye = self["1"] = np.identity(self.dim, dtype=np.complex128)
            eye.flags.writeable = False
        return eye


def _weighted_sum(terms, weights, out, term) -> bool:
    """sum_j w_j T_j into ``out`` over the ``terms`` whose weight is not
    exactly 0.0, starting from the first of them, with ``term`` holding
    each later w_j T_j; False, with ``out`` untouched, if there is none."""
    started = False
    for wj, t in zip(weights, terms):
        if wj == 0.0:
            continue
        if started:
            out += np.multiply(t, wj, out=term)
        else:
            np.multiply(t, wj, out=out)
            started = True
    return started


class _Measurement:
    """The two Kraus operators K_a = c0 1 + c1 B of one measure step, with B
    known by its action alone: ``left(x, out=None)`` maps a dim x k block x
    to B x, written into ``out`` if given.

    ``alphas`` holds the generalized eigenvalues of the two outcomes,
    ``weights`` the per-outcome weights of X, XB, BX, BXB and
    ``transfer_weights`` their alpha-weighted sum W = sum_a alpha_a w_a,
    the weights of the transfer map.  ``left`` is a signed row gather for a
    Pauli string (:func:`_signed_rows`) or a product for a raw observable
    matrix, both built by :func:`_measurement`, and the action of B(t) on
    the pure-state routes (:func:`_heisenberg_action`) and on the mixed
    eigenbasis route (its phases around one product with B~, built by
    :func:`_sequence_grid`).

    ``dense`` = (B, B^2) feeds :meth:`effect` alone.  It is given for a raw
    observable matrix, with the square its spec formed, and for the B~(t)
    of the mixed eigenbasis route as (B~(t), 1): that route is exact, and
    the transfer weights have W3 = 0, so its effect never reads the
    square.  Without it the effect forms B = B 1 by ``left`` and takes
    B^2 = 1, as for a Pauli string or a pure route's B(t).

    Completeness, sum_a K_a^dag K_a = 1 to 1e-12, is checked in one scalar
    form for every measurement (:func:`_check_completeness`), from the
    weights and ``square_dev``, the deviation max |B^2 - 1| that B's
    square was checked with: 0 for a Pauli string and for a pure route's
    B(t), the spec's for a raw matrix, and a time point's bound for B~(t).
    """

    def __init__(self, spec: MeasurementSpec, left, dense=None, square_dev=0.0):
        self.phi = spec.phi
        self.weights = _kraus_weights(spec)
        self.alphas = (generalized_eigenvalue(spec.phi, 0), generalized_eigenvalue(spec.phi, 1))
        # W = sum_a alpha_a w_a by sum(), which starts from 0 and so drops a
        # signed zero that a0 x0 + a1 x1 would keep.
        a0, a1 = self.alphas
        self.transfer_weights = tuple(
            sum((a0 * x0, a1 * x1)) for x0, x1 in zip(*self.weights)
        )
        _check_completeness(self.weights, square_dev)
        self.left, self.dense = left, dense

    @staticmethod
    def _combine(terms, w):
        """w0 X + w1 XB + w2 BX + w3 BXB from the traces ``terms`` = (Tr X,
        Tr XB, Tr BX, Tr BXB); a term whose weight is exactly 0.0 is
        skipped."""
        total = None
        for wj, term in zip(w, terms):
            if wj != 0.0:
                if total is None:
                    total = wj * term
                else:
                    total += wj * term
        return 0.0 * terms[0] if total is None else total

    def maps(self, x, weights, workspace=None, depth=0):
        """w0 X + w1 XB + w2 BX + w3 BXB for each weight tuple w in
        ``weights``.  Every X the engine maps is Hermitian, and so is every
        map of it (each K_a X K_a^dag preserves Hermiticity, and so do their
        real-weighted sums and adjoints), so every tuple has w2 = conj(w1)
        and XB = (BX)^dag: w1 XB + w2 BX = M + M^dag with M = w2 BX, and
        BXB = B (BX)^dag.  B acts by ``left`` alone, once for the XB, BX
        pair and once more for BXB, each term formed once for all the tuples
        and only if some tuple needs it, and a sum starts from its first
        nonzero-weight term.  The per-outcome ``weights`` give the children
        K_a X K_a^dag; the adjoint of a map is the map with its XB and BX
        weights swapped (:func:`_adjoint`).  A tuple without that symmetry
        raises :class:`NumericalInvariantError`.

        The maps are the ``workspace`` buffers (``depth``, j), one per
        tuple, and the products and terms go to its scratch buffers: they
        belong to the grid, and the next map at that depth, of this point
        or a later one, overwrites them.  Without a workspace all of them
        are fresh arrays."""
        for w in weights:
            if w[1] != w[2].conjugate():
                raise NumericalInvariantError(
                    f"weights {w} do not map a Hermitian X to a Hermitian one"
                )
        ws = _Workspace(len(x)) if workspace is None else workspace
        need = [any(w[j] != 0.0 for w in weights) for j in range(4)]
        bx = self.left(x, out=ws["BX"]) if any(need[1:]) else None
        bxb = self.left(np.conjugate(bx.T, out=ws["(BX)^dag"]), out=ws["BXB"]) if need[3] else None
        term = ws["term"]
        mapped = []
        for j, w in enumerate(weights):
            out = ws[depth, j]
            started = _weighted_sum((x, bxb), (w[0], w[3]), out, term)
            if w[2] != 0.0:
                m = np.multiply(bx, w[2], out=term)
                if started:
                    out += m
                    out += np.conjugate(m, out=m).T
                else:
                    # M^dag as a contiguous transposed copy starts the sum;
                    # added to a started sum, such a copy was slower than
                    # the strided add above (x1.07 at dim 128, x1.56 at
                    # dim 256, one core).
                    np.conjugate(m.T, out=out)
                    out += m
            elif not started:
                out.fill(0.0)
            mapped.append(out)
        return mapped

    def transfer(self, x, workspace=None, depth=0):
        """E(X) = sum_a alpha_a K_a X K_a^dag, as :meth:`maps` forms it."""
        return self.maps(x, (self.transfer_weights,), workspace, depth)[0]

    def effect(self, w, workspace, key=(0, 0)):
        """E_w^dag(1) = w0 1 + (w1 + w2) B + w3 B^2 for the map with weights
        ``w``, formed from B and B^2 (``dense``) without a product, or from
        B = B 1 (``left``) and B^2 = 1, into the ``workspace`` buffer
        ``key``, a buffer of the grid that the next effect written there
        overwrites."""
        eye = workspace.identity()
        b, b_sq = self.dense or (self.left(eye, out=workspace["B 1"]), eye)
        out = workspace[key]
        weights = (w[0], w[1] + w[2], w[3])
        if not _weighted_sum((eye, b, b_sq), weights, out, workspace["term"]):
            out.fill(0.0)
        return out

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


def _check_completeness(weights, square_dev: float) -> float:
    """An upper bound on max |sum_a K_a^dag K_a - 1| over the entries,
    for the per-outcome ``weights`` of K_a = c0 1 + c1 B (see
    :func:`_kraus_weights`) and a Hermitian B with max |B^2 - 1| =
    ``square_dev`` = d.  The bound must be at most 1e-12, else
    :class:`NumericalInvariantError` is raised; it is returned.

    sum_a K_a^dag K_a - 1 = (n - 1) 1 + x B + w3 (B^2 - 1) with n =
    sum_a (w0 + w3), x = sum_a (w1 + w2) and w3 = sum_a |c1|^2.  B is
    Hermitian, so |B_jk| <= sqrt((B B^dag)_jj) = sqrt((B^2)_jj) <=
    sqrt(1 + d) < 2, and every entry is at most |n - 1| + 2 |x| + w3 d.
    x is 0 in exact arithmetic but not always in floating point."""
    n = fsum(w[0] + w[3] for w in weights)
    x = sum(w[1] + w[2] for w in weights)
    w3 = fsum(w[3] for w in weights)
    bound = abs(n - 1.0) + 2.0 * abs(x) + w3 * square_dev
    if not bound <= 1e-12:
        raise NumericalInvariantError(
            f"Kraus operators violate completeness by up to {bound!r}"
        )
    return bound


def _signed_rows(perm, d):
    """x -> P x for the Pauli string P with the signed permutation ``(perm,
    d)`` of :meth:`~seqmeas.observables.PauliString.action`: (P x)[i] =
    d[i] x[perm[i]], O(dim k) for a dim x k block and no dense P, written
    into ``out`` if given."""
    d = d[:, None]

    def left(x, out=None):
        rows = x.take(perm, axis=0, out=out, mode="clip")
        return np.multiply(d, rows, out=rows)

    return left


def _measurement(spec: MeasurementSpec, n: int, targets) -> _Measurement:
    """The measurement of ``spec`` on ``targets`` of an ``n``-qubit
    register, the one constructor of a static measure step.  A Pauli string
    acts by its signed row gather (:func:`_signed_rows`), built once per
    register size and targets by the string itself.  A raw observable acts
    by a product with its checked matrix, kept with the square its spec
    formed, both embedded unless ``targets`` is the whole register in slot
    order (which keeps the square's deviation, the spec's); B keeps the
    dtype its spec gave it, so the products of a real B with a complex X
    run in real arithmetic (``matmul``)."""
    targets = tuple(targets)
    if isinstance(spec.observable, PauliString):
        return _Measurement(spec, _signed_rows(*spec.observable.action(n, targets)))
    b, b_sq = spec.observable, spec._square
    if targets != tuple(range(n)):
        b, b_sq = embed(b, n, targets), embed(b_sq, n, targets)
    return _Measurement(spec, functools.partial(matmul, b), (b, b_sq), spec._square_dev)


def _resolve_steps(initial: DensityMatrix | PureState, steps):
    """Resolve the sequence to the measurements that act on the register.

    Each measurement becomes a :class:`_Measurement` on its targets
    (:func:`_measurement`).  After an evolution it measures B(t) = V^dag B V
    instead, with V the product of the evolutions so far:
    :func:`heisenberg` builds B(t) into a new spec, which checks it, for a
    raw observable's measurement on the whole register.  Every measurement
    maps a density matrix with any list of weight tuples (``maps``), which
    gives the children K_a X K_a^dag, the transfer map and their adjoints,
    and forms the effect E^dag(1) of the last measurement from B and B^2.
    Evolutions after the last measurement are shape-checked and dropped, as
    they preserve every trace.  A sequence without measurements is
    rejected, and so is any step that is neither a :class:`MeasureStep` nor
    an :class:`EvolveStep`, such as the builder's :class:`_EvolvedStep`:
    :func:`_sequence_grid` takes those out and resolves the rest once per
    grid.
    """
    n = initial.n_qubits
    dim = 2**n
    resolved = []
    v = None
    for step in steps:
        if isinstance(step, MeasureStep):
            spec = step.spec
            targets = range(n) if step.targets is None else step.targets
            if len(targets) != spec.n_qubits:
                raise ValueError(
                    f"measurement of a {spec.n_qubits}-qubit observable "
                    f"got {len(targets)} target(s)"
                )
            if v is not None:
                spec = MeasurementSpec(
                    heisenberg(spec.observable, v, targets), spec.phi, spec.kind
                )
                targets = range(n)
            resolved.append(_measurement(spec, n, targets))
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
    return resolved


def _effects(rest, branches, workspace, z=None, index=0, stride=1):
    """Yield ``(index, Z)`` for every outcome string s of the resolved
    measurements ``rest``, with Z = E_{s_2}^dag ... E_{s_m}^dag(1) its
    effect; ``branches[k]`` holds the weight tuples that step k branches
    over, and ``index`` numbers the strings in lexicographic order.

    The walk runs depth first from the back: the last step's Z is its
    ``effect``, and each earlier step maps the Z after it with the adjoint
    weights, all branches of a node from one set of terms.  Step k writes
    its branches into the ``workspace`` buffers (k + 1, a): only the
    branches of one node per step are alive, and the next node of that
    step overwrites them once the walk below is done with them.  So a walk
    holds one buffer per step and branch, and so does its grid, whose
    points overwrite them.  An empty ``rest`` has the effect 1.  The
    recursion goes through this module-level function, so a walk holds no
    reference cycle.
    """
    if not rest:
        yield index, workspace.identity() if z is None else z
        return
    step, weights, depth = rest[-1], branches[-1], len(rest)
    if z is None:
        zs = [step.effect(w, workspace, (depth, a)) for a, w in enumerate(weights)]
    else:
        zs = step.maps(z, [_adjoint(w) for w in weights], workspace, depth)
    count = len(zs)
    for a, z in enumerate(zs):
        yield from _effects(
            rest[:-1], branches[:-1], workspace, z, index + a * stride, stride * count
        )


def _traces(xs, rest, branches, workspace) -> np.ndarray:
    """Tr(X Z) for every X in ``xs`` and every effect Z of the walk of
    :func:`_effects` over ``rest`` and ``branches``: a complex array with
    one row per X and one column per outcome string.  Z is Hermitian, so
    Tr(X Z) = sum_jk X_jk Z_kj = vdot(Z, X), one pass without a copy.  This
    is the walk's only reader; it reads each Z before the walk writes the
    next one into the ``workspace`` buffers they share, buffers of the
    grid that each time point overwrites."""
    traces = np.empty((len(xs), math.prod(map(len, branches))), dtype=np.complex128)
    for index, z in _effects(rest, branches, workspace):
        traces[:, index] = [np.vdot(z, x) for x in xs]
    return traces


def _leaf_probabilities(children, rest, workspace) -> np.ndarray:
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
    The walk writes into ``workspace`` (:class:`_Workspace`).
    """
    if len(rest) >= MAX_ENUMERATED_MEASUREMENTS:
        raise ValueError(
            f"{len(rest) + 1} measurement steps exceed the enumeration limit of "
            f"{MAX_ENUMERATED_MEASUREMENTS}"
        )
    traces = _traces(children, rest, [s.weights for s in rest], workspace)
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


def sequence_distribution(
    initial: DensityMatrix | PureState, steps
) -> list[OutcomeRecord]:
    """Enumerate all outcome strings with exact probabilities and weights.

    Probabilities follow the sequential Born rule
    P(a_1..a_m) = Tr(K_m ... K_1 rho K_1^dag ... K_m^dag) with unitary
    steps interleaved (folded into the measurements by
    :func:`_resolve_steps`): they are read from the children
    K_a rho K_a^dag of the first measurement, a pure state held as its
    density matrix, and checked by :func:`_leaf_probabilities`, as a
    sampled point of :func:`_sequence_grid` reads them.  A string's weight
    is its alpha product in forward order.
    """
    rho = initial.density() if isinstance(initial, PureState) else initial
    resolved = _resolve_steps(rho, steps)
    first, rest = resolved[0], resolved[1:]
    workspace = _Workspace(rho.dim)
    children = first.maps(rho.matrix, first.weights, workspace, first)
    (probs,) = _leaf_probabilities(children, rest, workspace)
    outcomes = itertools.product((0, 1), repeat=len(resolved))
    return list(map(OutcomeRecord, outcomes, _alpha_products(resolved), probs.tolist()))


def _transfer_values(starts, rest, workspace):
    """The exact weighted averages Tr(E_m ... E_2(X)), one for each first
    transfer X = E_1(rho) in ``starts`` (a dim x dim matrix, or for a pure
    state the factor pair of E_1(psi psi^dag); :func:`_sequence_grid`
    builds them), all followed by the resolved measurements ``rest`` (see
    :func:`_resolve_steps`).  Every value is checked by
    :func:`_checked_values`.

    A dim x dim X is evaluated from the back: the walk of :func:`_effects`,
    branching over the transfer weights alone, forms the one effect Z =
    E_2^dag ... E_m^dag(1) in ``workspace``, shared by every X, whose value
    is Tr(X Z) (:func:`_traces`, as for sampled leaves).  A
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
        traces = _traces(starts, rest, [(s.transfer_weights,) for s in rest], workspace)
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

    A one-point call of :func:`_sequence_grid`, with one part and no time
    grid.  Exact mode computes the value by transfer maps
    (:func:`_transfer_values`), in O(m) state updates and without a limit
    on the number of measurements; a pure state travels there as vector
    factors.  Sampled mode draws outcome strings from the enumerated
    outcome tree (:func:`_sampled_estimate`) and holds a pure state as its
    density matrix.
    """
    ((estimate,),) = _sequence_grid(initial, steps, 1, [None], mode, trials, [(seed,)])
    return estimate


def _philox(seed: int) -> np.random.Generator:
    """The generator of the trials of ``seed``: Philox keyed by ``seed``,
    which must be an integer (``operator.index``; a float raises
    ``TypeError``) in [0, 2^64)."""
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def trial_uniforms(seed: int, trials: int, draws: int) -> np.ndarray:
    """Uniform deviates for ``trials`` independent trials, one row each.

    Counter-based (:func:`_philox`): row k is a pure function of (seed, k),
    so per-trial streams are independent of execution order, and
    consecutive blocks of rows drawn from one generator are this array, bit
    for bit.
    """
    return _philox(seed).random((trials, draws))


def sample_protocol(
    initial: DensityMatrix | PureState, steps, trials: int, seed: int
) -> CorrelatorEstimate:
    """Monte Carlo estimate: average alpha products over sampled strings
    of the sequence ``steps``, :func:`nested_estimate` in sampled mode.
    The outcome tree is enumerated and checked by
    :func:`_leaf_probabilities`, with its limit of
    ``MAX_ENUMERATED_MEASUREMENTS`` measurements, and the trials are drawn
    by :func:`_sampled_estimate`."""
    return nested_estimate(initial, steps, "sampled", trials, seed)


def _sampled_estimate(resolved, probs, trials: int, seed: int) -> CorrelatorEstimate:
    """Draw ``trials`` outcome strings of the resolved measurements
    ``resolved``, whose strings have the probabilities ``probs`` (see
    :func:`_leaf_probabilities`), and average their alpha products.

    Trial k draws with row k of :func:`trial_uniforms`: at measurement j it
    takes outcome 1 iff ``u[k, j] < P(prefix, 1) / P(prefix)``, where a
    prefix probability sums the leaves below it (exact, as later steps
    preserve the trace); every conditional probability must be finite and
    lie in [0, 1] to 1e-12.  The rows are drawn ``_TRIAL_BLOCK`` at a time
    from one generator, and each block adds its count of trials per leaf
    to a running count, so memory does not grow with ``trials``.
    ``empirical_stderr`` is the sample standard error of the mean.

    Every weight is +-w_max with w_max = prod 1/sin phi_k, so a squared
    deviation from the mean is at most (2 w_max)^2 and the sum of the N
    squared deviations at most N w_max^2.  Both must be finite floats, else
    :class:`NumericalInvariantError` is raised before any trial is drawn;
    so is ``TypeError`` for ``trials`` that is not an integer
    (``operator.index``) and ``ValueError`` for ``trials`` outside [1,
    ``MAX_TRIALS``].
    """
    trials = operator.index(trials)
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must lie in [1, 2**53], got {trials}")
    m = len(resolved)
    phis = tuple(s.phi for s in resolved)
    top = math.prod(s.alphas[1] for s in resolved)
    if not math.isfinite(max(4, trials) * top * top):
        raise NumericalInvariantError(
            f"sampled weight prod 1/sin(phi_k) = {top:.3e} is too large for a "
            f"finite variance over {trials} trials"
        )

    # Leaves come in lexicographic order, so leaf i is the outcome string
    # spelling i in binary; tree[j][i] is the probability of the j-outcome
    # prefix i.
    tree = [probs]
    for _ in range(m):
        tree.insert(0, tree[0].reshape(-1, 2).sum(axis=1))
    gen = _philox(seed)
    counts = np.zeros(2**m, dtype=np.int64)
    for start in range(0, trials, _TRIAL_BLOCK):
        uniforms = gen.random((min(_TRIAL_BLOCK, trials - start), m))
        leaf = np.zeros(len(uniforms), dtype=np.intp)
        for j in range(m):
            with np.errstate(divide="ignore", invalid="ignore"):
                p1 = tree[j + 1][2 * leaf + 1] / tree[j][leaf]
            if not np.all(np.isfinite(p1) & (p1 >= -1e-12) & (p1 <= 1 + 1e-12)):
                raise NumericalInvariantError(
                    f"conditional outcome probability at measurement {j} outside [0, 1]"
                )
            leaf = 2 * leaf + (uniforms[:, j] < p1)
        counts += np.bincount(leaf, minlength=2**m)

    # The trials that share a weight w (every leaf's is +-w_max) share its
    # term, so the sums run over the distinct weights: each term is exact
    # (count * w as a Fraction) and the sum is rounded once, as math.fsum
    # over the trials rounds it, bit for bit.
    tally = {}
    for c, w in zip(counts.tolist(), _alpha_products(resolved)):
        tally[w] = tally.get(w, 0) + c
    mean = float(sum(c * Fraction(w) for w, c in tally.items())) / trials
    if trials > 1:
        var = float(sum(c * Fraction((w - mean) ** 2) for w, c in tally.items())) / (trials - 1)
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
# The sequence builder and its two presets, the TOC and the OTOC.


def _evolution_matrix(evolution) -> np.ndarray:
    """The evolution's matrix, checked once for unitarity (its grid checked
    the shape).  A propagator's matrix is formed on a copy and not kept, as
    a time grid holds all its propagators.  A raw matrix is returned as
    given: :func:`heisenberg`, its reader, decides its dtype."""
    u = dataclasses.replace(evolution).matrix if isinstance(evolution, Propagator) else evolution
    if not is_unitary(u, CHECK_TOL):
        raise ValueError("evolution 'U_t' is not unitary to 1e-10")
    return u


def _heisenberg_action(apply_b, apply_u, psi):
    """x -> B(t) x = U^dag (B (U x)) for the dim x k blocks x of a pure
    state, with ``apply_b`` the map y -> B y and ``apply_u(y, adjoint)``
    the map y -> U y (U^dag y if ``adjoint``), both in one basis of the
    whole register.  In the computational basis U acts through its
    spectrum (:meth:`Propagator.apply`, two products); in H's eigenbasis U
    is diagonal (:func:`_phase_action`) and ``apply_b`` is one product with
    B~ = V^dag B V.

    B(t)^2 = 1 is checked on ``psi``, the initial vector in that basis,
    ||B(t) (B(t) psi) - psi||_inf <= 1e-10, once per time point for every
    part; a corrupted propagator fails here with
    :class:`NumericalInvariantError`.
    """

    def apply(x):
        return apply_u(apply_b(apply_u(x)), adjoint=True)

    dev = float(np.max(np.abs(apply(apply(psi)) - psi)))
    _check_square(dev, "on the initial state ")
    return apply


def _check_square(dev: float, where: str = "") -> None:
    """Raise :class:`NumericalInvariantError` for a deviation ``dev`` of
    B(t)^2 from the identity above 1e-10."""
    if not dev <= CHECK_TOL:
        raise NumericalInvariantError(
            f"B(t) does not square to the identity {where}(deviation {dev:.3e})"
        )


def _phase_action(u: Propagator):
    """y -> U y, or U^dag y if ``adjoint``, in the eigenbasis of H, where U
    is the diagonal e^{-iEt}: an O(dim k) scaling of the rows of y, written
    into ``out`` if given."""
    phases = u.phases[:, None]

    def apply(y, adjoint=False, out=None):
        return np.multiply(phases.conj() if adjoint else phases, y, out=out)

    return apply


_FIRST_KINDS = {"real": INFORMATIVE, "imag": NONINFORMATIVE}

# The eigenbasis route pays for its frame once per grid: V checked unitary
# (unless propagator() checked it with H's spectrum) and B~ formed (for a
# density matrix with its checked square), and for the OTOC A~ with its
# checked square, each one dim^3 product (a real one for a real H, whose V
# and whose strings without Y factors are real).  A time point of a
# density matrix then forms B~(t) by one O(dim^2) phase scaling and
# applies B~(t) by its phases around one product with B~, where the
# density route forms and checks U and B(t) by dim^3 products and applies
# B(t) by a complex product of the same size, so a mixed grid earns the
# frame back from _FRAME_MIN_POINTS points at every size.  A time point
# of a pure state saves only O(dim^2 k) work on its dim x k blocks (one
# product with B~ per B(t) application instead of four through the
# spectrum), so the points it needs grow with dim:
# _FRAME_MIN_POINTS per _PURE_FRAME_DIM basis states.
# Eigenbasis over other route, medians of alternating in-process runs of
# `_heisenberg_protocol` with both parts (2-core VM, BLAS pinned to 1
# thread), for a label state or the maximally mixed state of the Ising
# chain (real H) / the chain with a Y term (complex H):
# * label state, vector route: below 1 from 3 points at n <= 6 (0.69 to
#   0.89); at n = 7, TOC 1.13 / 1.23 at 3 points and 0.87 / 0.85 at 6, OTOC
#   1.34 / 1.38 and 0.98 / 0.93; at n = 8, TOC 1.67 / 2.68 at 3 points,
#   0.97 / 1.33 at 8 and 0.76 / 1.02 at 12, OTOC 1.85 / 2.38, 0.99 / 1.14
#   and 0.83 / 0.93.
# * maximally mixed state, density route, with B~(t) applied by its
#   phases: at 3 points, n = 3 to 8, TOC 0.52 to 0.79 for both H, OTOC 0.69
#   to 0.93 for the Ising chain and 0.92 to 1.00 for the Y-term chain; at 2
#   points the OTOC is 0.80 to 1.00 for the Ising chain but 1.03 to 1.25
#   for the Y-term chain, so 2 points stay on the density route.
# Sampled grids stay on the density route at any length: the frame would
# carry two children K_a rho K_a^dag per part where exact mode carries one
# first transfer.  Sampled maximally mixed OTOC of the Ising chain, both
# parts, 2000 trials, eigenbasis over density route (15 alternating
# in-process runs of `run_experiment`, same VM and pinning): x1.03 at 3
# points for n = 7 and x1.12 at n = 8, x0.89 at 40 points for n = 7.
_FRAME_MIN_POINTS = 3
_PURE_FRAME_DIM = 64


def _sequence_grid(initial, steps, parts, evolutions, mode, trials, seeds):
    """Evaluate the measurement sequence ``steps`` at each evolution U of
    the time grid ``evolutions`` and return one list of estimates per time
    point, one estimate per part.  The first ``parts`` measurements are the
    per-part alternatives for the first measurement, and the other steps
    follow each of them.  Sampled mode takes one tuple of seeds per time
    point, one seed per part.

    A :class:`MeasureStep` or :class:`EvolveStep` is the same at every
    point.  An :class:`_EvolvedStep` measures B(t) = U^dag B U, the
    Heisenberg frame of measuring B after U.  A sequence has one B: every
    evolved step must measure the first one's observable (an equal Pauli
    string or an equal matrix) with the first one's kind, at its own
    strength, else ``ValueError`` is raised.  The step API's one-point calls
    (:func:`nested_estimate`) pass ``evolutions`` [None], a point without
    U(t), where an _EvolvedStep is left to :func:`_resolve_steps`, which
    rejects it.  Their sequences are the only ones with EvolveSteps; a grid
    of U(t) takes measurements only.

    Only B(t) depends on the time, and the parts differ only in their
    first measurement.  So the route is decided once per grid, and with it
    the one builder u -> (left, dense, square_dev) of B(t) (see
    :class:`_Measurement`), every evolution is shape-checked, and the
    steps are resolved, the route's frame built, and the first states (the
    exact first transfers, or the sampled children K_a rho K_a^dag) built
    and checked once per grid, for all the parts, as are the strengths'
    specs and the exact estimates' angles.  A time point only builds B(t) from the builder,
    one measurement per strength, shared by the B(t) steps of that
    strength, puts them in their steps' places and evaluates the steps
    after the first, for every part at once: exact values in one
    evaluation (:func:`_transfer_values`), sampled leaf probabilities in
    one walk (:func:`_leaf_probabilities`), and each part is then drawn
    from its own seed (:func:`_sampled_estimate`).  A value depends on its
    time alone, not on the rest of the grid.

    The rule: an exact grid of :class:`Propagator` objects that share one
    spectrum (E, V) takes the eigenbasis route if it is long enough to pay
    for the frame, ``_FRAME_MIN_POINTS`` points for a density matrix and
    as many per ``_PURE_FRAME_DIM`` basis states for a pure state; any
    other exact grid of propagators takes the vector route for a pure
    state, and so does a sequence without evolved steps; everything else,
    sampled mode included, takes the density route.  The routes:

    * eigenbasis: V is checked unitary to 1e-10 once per run, which
      stands in for the check of U, as U is never formed: with H's
      spectrum for the propagators :func:`~seqmeas.dynamics.propagator`
      marks ``checked``, else here.  B~ = V^dag B V and the measurements
      after the first ones, such as the later A~ = V^dag A V (with
      A~^2), are built by :func:`heisenberg` with V in place of U, and
      the first transfers are carried into the frame (a trace is the
      same in every basis): V^dag E_1(rho) V for a density matrix, the
      factor pair (V^dag L, V^dag R) for a pure state.  A time point
      applies B~(t) = e^{iEt} B~ e^{-iEt} by its phases
      (:func:`_phase_action`), x -> e^{iEt} (B~ (e^{-iEt} x)), one
      product; for a pure state through :func:`_heisenberg_action`, which
      checks B~(t)^2 = 1 on V^dag psi.  For a density matrix B~ goes into
      one spec per grid, which checks it Hermitian with B~^2 = 1 to 1e-10
      and keeps that square's deviation d~.  A time point bounds B~(t)'s
      square from d~ and its phases alone, an O(dim) pass: with mu =
      max_j ||p_j|^2 - 1|, B~(t)^2 deviates from 1 by at most
      (1 + mu)^2 (1 + d~) - 1, which must be at most 1e-10 and is the
      deviation its completeness check takes.  It then forms B~(t) alone,
      by one O(dim^2) phase scaling of B~ into the grid's workspace
      (:func:`heisenberg_phases`), for the last step's effect.  B~(t)
      inherits B~'s Hermiticity: with p = e^{-iEt}, (B~(t) -
      B~(t)^dag)_jk = conj(p_j) p_k (B~ - B~^dag)_jk, and the square
      bound pins |p_j| = 1, as V's check stands in for U's.  A real H has
      a real V, and B~ and A~ are then real too for strings with an even
      number of Y factors: their products run in real arithmetic
      (:func:`~seqmeas.core.matmul`).
    * vector: a pure state psi on a shorter grid (every one-point
      :func:`toc` and :func:`otoc` call), or on propagators of several
      spectra.  The first transfers are factor pairs of E_1(psi psi^dag).
      B's action is built once per grid (:func:`_measurement`), and a time
      point applies B(t) through the propagator's spectrum, four products
      (:func:`_heisenberg_action`, which checks B(t)^2 = 1 on psi), so
      neither U nor B(t) is formed.
    * density: a pure state is converted to its density matrix.  A time
      point checks U for unitarity (:func:`_evolution_matrix`) and builds
      B(t) by :func:`heisenberg`.

    On the density route a point's dense B(t) goes into one spec, which
    checks it Hermitian with B(t)^2 = 1 to 1e-10 and keeps that square
    and its deviation.  On the mixed eigenbasis route only B~ does, once
    per grid, and a point bounds B~(t)^2 from its phases.  On every route
    the point's B(t) serves every B(t) step of the point, and each B(t)
    measurement checks completeness to 1e-12 from the deviation its
    square was checked with (:func:`_check_completeness`), in scalar form.

    Every dense route writes its time points' dim x dim arrays into one
    workspace per grid (:class:`_Workspace`): the walk's effects and
    products, the mixed eigenbasis route's B~(t) and its products, and,
    under keys of their own, the first states.  The buffers belong to the
    grid; each point overwrites the last one's, and reads nothing it did
    not write.
    """
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
            if len(point_seeds) != parts:
                raise ValueError(
                    f"sampled mode needs {parts} seed(s), got {len(point_seeds)}"
                )
    elif not exact:
        raise ValueError(f"unknown mode {mode!r}")

    # The step API's one-point calls have no U(t) (``evolutions`` [None]):
    # there an _EvolvedStep is left to _resolve_steps, which rejects it.
    steps = list(steps)
    timed = not evolutions or evolutions[0] is not None
    slots = [k for k, s in enumerate(steps) if isinstance(s, _EvolvedStep)] if timed else []
    evolved = [steps[k].spec for k in slots]
    static = [s for k, s in enumerate(steps) if k not in slots] if slots else steps
    n = initial.n_qubits
    dim = 2**n
    if evolved:
        # A sequence has one B (np.array_equal compares Pauli strings by ==).
        b = evolved[0]
        if any(s.kind != b.kind or not np.array_equal(s.observable, b.observable) for s in evolved):
            raise ValueError("every evolved step must measure the first one's B, of its kind")
        for shape in (np.shape(getattr(u, "evecs", u)) for u in evolutions):
            if shape != (dim, dim):
                raise ValueError(f"evolution 'U_t' has shape {shape}, expected {(dim, dim)}")
    propagators = all(isinstance(u, Propagator) for u in evolutions)
    # A sequence without evolved steps counts as a grid of propagators.
    pure = exact and isinstance(initial, PureState) and (propagators or not evolved)
    min_points = _FRAME_MIN_POINTS * (max(1, dim // _PURE_FRAME_DIM) if pure else 1)
    # The (evals, evecs) arrays of the grid's propagators, by identity.
    spectra = {(id(u.evals), id(u.evecs)) for u in evolutions} if propagators else ()
    frame = exact and len(evolutions) >= min_points and len(spectra) == 1
    if isinstance(initial, PureState) and not pure:
        initial = initial.density()

    # The buffers every time point writes into (see _Workspace), and the
    # route's builder u -> (left, dense) of B(t), one per grid.
    workspace = _Workspace(dim)
    if frame:
        evecs = evolutions[0].evecs
        # The grid shares one (E, V), which propagator() has checked if it
        # built any of the grid's propagators.
        if not any(u.checked for u in evolutions) and not is_unitary(evecs, CHECK_TOL):
            raise NumericalInvariantError("eigenbasis of H is not unitary to 1e-10")
        b_frame = heisenberg(b.observable, evecs)
        if pure:
            apply_b = functools.partial(matmul, b_frame)
        else:
            # B~ is checked once, and its square's deviation d~ kept; each
            # point's B~(t) is its phase scaling, into the workspace.
            checked = MeasurementSpec(b_frame, b.phi, b.kind)
            b_frame, frame_dev = checked.observable, checked._square_dev
            del checked  # its square is not needed

            def b_of_t(u):
                # With p = e^{-iEt}, (B~(t)^2)_jk = conj(p_j) p_k sum_l
                # |p_l|^2 B~_jl B~_lk, so with mu = max_j ||p_j|^2 - 1| it
                # deviates from 1 by at most (1 + mu)^2 (1 + d~) - 1.
                phases = u.phases
                mu = float(np.max(np.abs(phases.real**2 + phases.imag**2 - 1.0)))
                square_dev = frame_dev + mu * (2.0 + mu) * (1.0 + frame_dev)
                _check_square(square_dev)
                phase = _phase_action(u)

                def left(x, out=None):
                    # B~(t) x = e^{iEt} (B~ (e^{-iEt} x)), one product with B~,
                    # with e^{-iEt} x held in ``out`` until the product reads it.
                    ux = phase(x, out=out)
                    return phase(matmul(b_frame, ux, workspace["B U x"]), True, out)

                b_t = heisenberg_phases(b_frame, u, workspace["B~(t)"])
                return left, (b_t, workspace.identity()), square_dev

        # The measurements after the first ones act in the frame.
        for k, s in enumerate(static[parts:], parts):
            framed = heisenberg(s.spec.observable, evecs, s.targets)
            static[k] = MeasureStep(dataclasses.replace(s.spec, observable=framed))
            del framed  # the spec keeps its own checked copy
    elif pure and evolved:
        apply_b = _measurement(b, n, range(n)).left
    elif evolved:

        def b_of_t(u):
            spec = MeasurementSpec(heisenberg(b.observable, _evolution_matrix(u)), b.phi, b.kind)
            b_t = spec.observable
            return functools.partial(matmul, b_t), (b_t, spec._square), spec._square_dev

    if pure:
        # psi, the initial vector in the route's basis, is set below.
        def b_of_t(u):
            apply_u = _phase_action(u) if frame else u.apply
            return _heisenberg_action(apply_b, apply_u, psi), None, 0.0

    resolved = _resolve_steps(initial, static)
    firsts, rest = resolved[:parts], resolved[parts:]
    # The B(t) steps keep their specs in ``rest`` until a point puts its
    # measurements there, one per strength (the steps measure one B).
    for k, spec in zip(slots, evolved):
        rest.insert(k - parts, spec)
    strengths = {spec.phi: spec for spec in evolved}
    # The first states: exact first transfers (factor pairs for a pure
    # state), or the sampled children K_a rho K_a^dag, in the workspace
    # under each first measurement's own keys, which no time point writes.
    if pure:
        psi = initial.amplitudes[:, None]
        starts = [first.transfer_factors((psi, psi)) for first in firsts]
    elif exact:
        starts = [first.transfer(initial.matrix, workspace, first) for first in firsts]
    else:
        starts = [
            x
            for first in firsts
            for x in first.maps(initial.matrix, first.weights, workspace, first)
        ]
    if frame:
        # A trace is the same in every basis.
        v_dag = evecs.conj().T
        if pure:
            starts = [(matmul(v_dag, l), matmul(v_dag, r)) for l, r in starts]
            psi = matmul(v_dag, psi)
        else:
            starts = [matmul(matmul(v_dag, x), evecs, x) for x in starts]
    zeros = (0,) * (len(rest) + 1)
    phis = [(first.phi, *(s.phi for s in rest)) for first in firsts]

    def point(u, point_seeds):
        # The walk and the mixed eigenbasis route's B~(t) write into the
        # grid's workspace, over the last point's arrays; every other array
        # built here is freed when the point is done.
        built = {}
        if evolved:
            left, dense, square_dev = b_of_t(u)
            built = {
                phi: _Measurement(spec, left, dense, square_dev) for phi, spec in strengths.items()
            }
        measured = [s if isinstance(s, _Measurement) else built[s.phi] for s in rest]
        if exact:
            values = _transfer_values(starts, measured, workspace)
            return [CorrelatorEstimate(v, "exact", zeros, p, 0.0) for v, p in zip(values, phis)]
        rows = _leaf_probabilities(starts, measured, workspace)
        return [
            _sampled_estimate([first, *measured], probs, trials, seed)
            for first, probs, seed in zip(firsts, rows, point_seeds)
        ]

    return [point(u, point_seeds) for u, point_seeds in zip(evolutions, seeds)]


def _heisenberg_protocol(
    initial, a, b, count, evolutions, parts, phis, mode="exact", trials=None, seeds=None
) -> list[list[CorrelatorEstimate]]:
    """The TOC (``count`` 2) and OTOC (``count`` 4) preset of
    :func:`_sequence_grid`: measure A, B(t), A, B(t), ... for ``count``
    steps, with step k at strength ``phis[k]`` and B(t) = U^dag B U for each
    evolution U of the time grid ``evolutions``, and return one list of
    estimates per time point, one estimate per part in ``parts``.  The
    first A is informative for part 'real' and noninformative for part
    'imag'; every later step is informative.  Sampled mode takes one tuple
    of seeds per time point, one seed per part.
    """
    phis = tuple(float(p) for p in phis)
    if len(phis) != count:
        raise ValueError(f"this protocol takes {count} strength angles, got {len(phis)}")
    for part in parts:
        if part not in _FIRST_KINDS:
            raise ValueError(f"part must be 'real' or 'imag', got {part!r}")
    # One checked spec per observable; every step is a copy of it.
    spec_a = MeasurementSpec(a, phis[0], INFORMATIVE)
    spec_b = MeasurementSpec(b, phis[1], INFORMATIVE)
    steps = [MeasureStep(spec_a.with_phi(phis[0], _FIRST_KINDS[p])) for p in parts]
    for k, phi in enumerate(phis[1:], 1):
        # B(t) at the odd positions, the later A at the even ones.
        if k % 2:
            steps.append(_EvolvedStep(spec_b.with_phi(phi)))
        else:
            steps.append(MeasureStep(spec_a.with_phi(phi)))
    return _sequence_grid(initial, steps, len(parts), evolutions, mode, trials, seeds)


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
    The TOC preset :func:`_heisenberg_protocol` builds it, and
    :func:`_sequence_grid` picks the route.
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
    distribution.  The OTOC preset :func:`_heisenberg_protocol` builds it,
    and :func:`_sequence_grid` picks the route.
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
