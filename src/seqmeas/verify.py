"""Randomized identity suites behind the ``verify`` CLI subcommand.

Each suite draws its own deterministic random stream from (seed, suite
index), evaluates one family of exact identities on random instances, and
reports the worst residual against the suite tolerance.  The suites are
independent, so :func:`run_suites` runs them in parallel worker processes
on the CPUs this process may use (in this process when it may use one).
A fixed seed yields a byte-identical report whatever the number of CPUs.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .config import PARTS
from .core import DensityMatrix, distance_up_to_phase
from .circuits import induced_kraus, synthesize_measurement_circuit
from .dynamics import build_mixed_field_ising, propagator, time_reversed_evolution
from .measurement import (
    INFORMATIVE,
    NONINFORMATIVE,
    MeasurementSpec,
    generalized_eigenvalue,
    informative_kraus,
    kraus_pair,
    noninformative_kraus,
)
from .observables import PauliString
from .oracle import oracle_otoc, oracle_toc
from .protocols import (
    EvolveStep,
    MeasureStep,
    _heisenberg_protocol,
    nested_estimate,
    otoc,
    otoc_value,
    toc,  # noqa: F401  unused here; perfbench/spans.py traces it by this name
)

_LETTERS = ("I", "X", "Y", "Z")


@dataclass(frozen=True)
class SuiteResult:
    name: str
    samples: int
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance


def _random_pauli(rng, n: int) -> PauliString:
    while True:
        factors = tuple(_LETTERS[i] for i in rng.integers(0, 4, size=n))
        if any(f != "I" for f in factors):
            return PauliString(factors, 1 if rng.integers(2) else -1)


def _random_density(rng, n: int) -> DensityMatrix:
    dim = 2**n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(n, m / np.real(np.trace(m)))


def _random_phi(rng) -> float:
    """A strength angle drawn uniformly from (0, pi/2]: never 0."""
    return math.pi / 2 - float(rng.uniform(0.0, math.pi / 2))


def povm_identity_suite(samples: int, rng) -> SuiteResult:
    """sum_a alpha_a K_a^dag K_a = A for informative pairs, any strength."""
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(1, 4))
        p = _random_pauli(rng, n)
        phi = _random_phi(rng)
        pair = informative_kraus(MeasurementSpec(p, phi, INFORMATIVE))
        e0, e1 = pair.effects()
        total = generalized_eigenvalue(phi, 0) * e0 + generalized_eigenvalue(phi, 1) * e1
        worst = max(worst, float(np.max(np.abs(total - p.matrix()))))
    return SuiteResult("povm-identity", samples, worst, 1e-10)


def isolation_suite(samples: int, rng) -> SuiteResult:
    """Anticommutator/commutator isolation, state and operator forms."""
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(1, 4))
        p = _random_pauli(rng, n)
        a = p.matrix()
        rho = _random_density(rng, n).matrix
        b = _random_pauli(rng, n).matrix()
        phi = _random_phi(rng)
        alphas = [generalized_eigenvalue(phi, out) for out in (0, 1)]
        m = informative_kraus(MeasurementSpec(p, phi, INFORMATIVE))
        nn = noninformative_kraus(MeasurementSpec(p, phi, NONINFORMATIVE))
        anti = sum(alphas[o] * m[o] @ rho @ m[o].conj().T for o in (0, 1))
        comm = sum(alphas[o] * nn[o] @ rho @ nn[o].conj().T for o in (0, 1))
        heis_anti = sum(alphas[o] * m[o].conj().T @ b @ m[o] for o in (0, 1))
        heis_comm = sum(alphas[o] * nn[o].conj().T @ b @ nn[o] for o in (0, 1))
        worst = max(
            worst,
            float(np.max(np.abs(anti - (a @ rho + rho @ a) / 2))),
            float(np.max(np.abs(comm - (a @ rho - rho @ a) / 2j))),
            float(np.max(np.abs(heis_anti - (b @ a + a @ b) / 2))),
            float(np.max(np.abs(heis_comm - (b @ a - a @ b) / 2j))),
        )
    return SuiteResult("isolation-identities", samples, worst, 1e-10)


def phi_independence_suite(samples: int, rng) -> SuiteResult:
    """TOC/OTOC exact values ignore the strength angles and match the
    brute-force correlators."""
    instances = max(1, samples // 10)
    ham = build_mixed_field_ising(3)
    worst = 0.0
    for _ in range(instances):
        rho = _random_density(rng, 3)
        a = _random_pauli(rng, 3)
        b = _random_pauli(rng, 3)
        u = propagator(ham, float(rng.uniform(0.0, 2.0)))
        ref_toc = oracle_toc(rho.matrix, a.matrix(), b.matrix(), u.matrix)
        ref_otoc = oracle_otoc(rho.matrix, a.matrix(), b.matrix(), u.matrix)
        for _ in range(10):
            phis2 = [_random_phi(rng) for _ in range(2)]
            phis4 = [_random_phi(rng) for _ in range(4)]
            # One call per correlator gives both parts.
            ((toc_re, toc_im),) = _heisenberg_protocol(rho, a, b, 2, [u], PARTS, phis2)
            ((otoc_re, otoc_im),) = _heisenberg_protocol(rho, a, b, 4, [u], PARTS, phis4)
            worst = max(
                worst,
                abs(toc_re.value - ref_toc.real),
                abs(toc_im.value - ref_toc.imag),
                abs(otoc_value("real", otoc_re.value) - ref_otoc.real),
                abs(otoc_value("imag", otoc_im.value) - ref_otoc.imag),
            )
    return SuiteResult("phi-independence", instances * 10, worst, 1e-10)


def circuit_contract_suite(samples: int, rng) -> SuiteResult:
    """Induced Kraus operators of synthesized circuits match the analytic
    pairs up to a per-outcome global phase."""
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(1, 4))
        p = _random_pauli(rng, n)
        phi = _random_phi(rng)
        kind = (INFORMATIVE, NONINFORMATIVE)[int(rng.integers(2))]
        gateset = ("cz", "zx90")[int(rng.integers(2))]
        mc = synthesize_measurement_circuit(p, phi, kind, gateset)
        induced = induced_kraus(mc)
        analytic = kraus_pair(MeasurementSpec(p, phi, kind))
        for out in (0, 1):
            worst = max(worst, distance_up_to_phase(induced[out], analytic[out]))
    return SuiteResult("circuit-synthesis-contract", samples, worst, 1e-10)


def hermitian_square_suite(samples: int, rng) -> SuiteResult:
    """(1 + Re F)/2 from the protocol equals 1 - <[B(t),A]^dag [B(t),A]>/4,
    and Re F never exceeds 1."""
    instances = max(1, samples // 4)
    ham = build_mixed_field_ising(3)
    worst = 0.0
    for _ in range(instances):
        rho = _random_density(rng, 3)
        a = _random_pauli(rng, 3)
        b = _random_pauli(rng, 3)
        u = propagator(ham, float(rng.uniform(0.0, 2.0)))
        phis4 = [_random_phi(rng) for _ in range(4)]
        avg = otoc(rho, a, b, u, part="real", phis=phis4).value
        re_f = otoc_value("real", avg)
        bt = u.matrix.conj().T @ b.matrix() @ u.matrix
        comm = bt @ a.matrix() - a.matrix() @ bt
        square = float(
            np.real(np.trace(comm.conj().T @ comm @ rho.matrix)) / 4.0
        )
        worst = max(
            worst,
            abs(avg - (1.0 - square)),
            abs((1.0 - re_f) / 2.0 - square),
            max(0.0, re_f - 1.0),
        )
    return SuiteResult("hermitian-square", instances, worst, 1e-10)


def _ancilla_flip_otoc(register, a, b, clock, part, phis) -> float:
    """The clock-ancilla OTOC average in the Schrodinger frame: the sequence
    A, U_c, B, X_anc U_c X_anc, A, U_c, B on the system register extended
    by the ancilla (the last qubit), which ``register`` holds in |1>.  It
    is a reference for :func:`otoc` with ``clock``, which runs on the
    system register alone."""
    system = tuple(range(clock.n_system))
    # X on the last qubit flips the lowest bit of every basis index.
    flip = np.arange(2 * 2**clock.n_system) ^ 1
    forward = EvolveStep(clock.matrix, "U_c")
    backward = EvolveStep(clock.matrix[flip][:, flip], "X_anc U_c X_anc")
    kinds = (INFORMATIVE if part == "real" else NONINFORMATIVE,) + (INFORMATIVE,) * 3
    measure = [
        MeasureStep(MeasurementSpec(obs, phi, kind), system)
        for obs, phi, kind in zip((a, b, a, b), phis, kinds)
    ]
    steps = [measure[0], forward, measure[1], backward, measure[2], forward, measure[3]]
    return nested_estimate(register, steps).value


def time_reversal_suite(samples: int, rng) -> SuiteResult:
    """The clock's matrix equals exp(-i t H (x) Z) from its own
    diagonalization on the extended register, so its sectors realize
    exp(-+ i t H); the OTOC computed via the clock ancilla matches the
    direct-dagger route, and so does the explicit ancilla-flip sequence on
    the extended register (:func:`_ancilla_flip_otoc`)."""
    instances = max(1, samples // 10)
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(2, 4))
        dim = 2**n
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (g + g.conj().T) / 2
        t = float(rng.uniform(0.0, 3.0))
        clk = time_reversed_evolution(h, t)
        prop = clk.system  # the Propagator of H; a second eigh would equal it
        # An independent diagonalization of H (x) Z, with ancilla |1> at +1.
        extended = propagator(np.kron(h, np.diag([-1.0, 1.0])), t).matrix
        worst = max(worst, float(np.max(np.abs(clk.matrix - extended))))
        rho = _random_density(rng, n)
        a = _random_pauli(rng, n)
        b = _random_pauli(rng, n)
        phis4 = [_random_phi(rng) for _ in range(4)]
        direct = otoc(rho, a, b, prop, part="real", phis=phis4).value
        clocked = otoc(rho, a, b, clock=clk, part="real", phis=phis4).value
        register = DensityMatrix(n + 1, np.kron(rho.matrix, np.diag([0.0, 1.0])))
        flipped = _ancilla_flip_otoc(register, a, b, clk, "real", phis4)
        worst = max(worst, abs(direct - clocked), abs(direct - flipped))
    return SuiteResult("time-reversal", instances, worst, 1e-9)


_SUITES = (
    povm_identity_suite,
    isolation_suite,
    phi_independence_suite,
    circuit_contract_suite,
    hermitian_square_suite,
    time_reversal_suite,
)


def _run_suite(index: int, samples: int, seed: int) -> SuiteResult:
    return _SUITES[index](samples, np.random.default_rng([seed, index]))


def _usable_cpus() -> int:
    # Platforms without an affinity mask (it is Linux-only) run in-process.
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def run_suites(samples: int = 100, seed: int = 0) -> list[SuiteResult]:
    """Run every suite on its own random stream, ``default_rng([seed,
    index])``, and return the results in suite order.

    The suites run in one worker process per usable CPU, up to one per
    suite, taken in suite order; on one CPU they run in this process.
    Each result depends on its stream alone, so the worker count cannot
    change it.  The workers are forked: they start without importing
    numpy again, and run the modules as this process holds them (patched
    ones included).  An exception raised in a suite reaches the caller
    with its own type and message.
    """
    run = functools.partial(_run_suite, samples=samples, seed=seed)
    workers = min(len(_SUITES), _usable_cpus())
    if workers < 2:
        return [run(index) for index in range(len(_SUITES))]
    # Imported here: a one-CPU run and the import of this module skip them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        return list(pool.map(run, range(len(_SUITES))))


def format_report(results, samples: int, seed: int) -> str:
    lines = [f"seqmeas verify: samples={samples} seed={seed}"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"  {r.name:<28} n={r.samples:<5d} max residual {r.max_residual:.3e}"
            f"  tol {r.tolerance:.1e}  {status}"
        )
    n_pass = sum(r.passed for r in results)
    overall = "PASS" if n_pass == len(results) else "FAIL"
    lines.append(f"overall: {overall} ({n_pass}/{len(results)} suites)")
    return "\n".join(lines) + "\n"
