"""Correctness gate: every output of a benchmark execution is checked here.

Reference correlators come from ``seqmeas.oracle``, fed with matrices the
benchmark builds itself (Pauli strings, the Hamiltonian, the propagator and
the initial state), so a defect in how the program builds them cannot cancel
out of the comparison.  Conventions follow the package README: qubit 0 is
the most significant slot and Z = diag(-1, +1).

An operation is one correlator value, one CSV-determinism check or one
verify suite.  Callers run these checks outside the timed region.
"""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np

# Exact values carry roundoff amplified by prod 1/sin(phi_k); the gate allows
# EXACT_TOL times that factor.
EXACT_TOL = 1e-10
# Sampled values must lie within this many CSV ``rms_bound`` of the oracle.
SAMPLED_BOUNDS = 5.0

_PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, 1j], [-1j, 0]], dtype=np.complex128),
    "Z": np.diag([-1.0, 1.0]).astype(np.complex128),
}


def pauli(text: str) -> np.ndarray:
    """Dense matrix of a signed Pauli string such as "+ZIIZ"."""
    sign = -1.0 if text.startswith("-") else 1.0
    m = np.ones((1, 1), dtype=np.complex128)
    for letter in text.lstrip("+-"):
        m = np.kron(m, _PAULI[letter])
    return sign * m


def _site_string(n: int, letters: dict) -> str:
    return "".join(letters.get(i, "I") for i in range(n))


def hamiltonian(n: int, spec: dict) -> np.ndarray:
    """Dense mixed-field Ising Hamiltonian of a resolved config's
    ``hamiltonian`` field: -J sum Z_i Z_i+1 - g sum X_i - h sum Z_i."""
    h = np.zeros((2**n, 2**n), dtype=np.complex128)
    for i in range(n - 1):
        h -= spec["J"] * pauli(_site_string(n, {i: "Z", i + 1: "Z"}))
    for i in range(n):
        h -= spec["g"] * pauli(_site_string(n, {i: "X"}))
        h -= spec["h"] * pauli(_site_string(n, {i: "Z"}))
    return h


def initial_state(n: int, label: str) -> np.ndarray:
    dim = 2**n
    if label == "maximally-mixed":
        return np.eye(dim, dtype=np.complex128) / dim
    rho = np.zeros((dim, dim), dtype=np.complex128)
    index = int(label, 2)
    rho[index, index] = 1.0
    return rho


def reference_values(config: dict) -> list[complex]:
    """Oracle correlator <B(t)A> (toc) or F(t) (otoc) at every config time."""
    from seqmeas.oracle import oracle_otoc, oracle_toc

    n = config["system_size"]
    oracle = oracle_toc if config["protocol"] == "toc" else oracle_otoc
    rho = initial_state(n, config["initial_state"])
    a = pauli(config["observable_a"])
    b = pauli(config["observable_b"])
    evals, evecs = np.linalg.eigh(hamiltonian(n, config["hamiltonian"]))
    values = []
    for t in config["times"]:
        u = (evecs * np.exp(-1j * t * evals)) @ evecs.conj().T
        values.append(oracle(rho, a, b, u))
    return values


def check_csv(text: bytes | None, config: dict, reference) -> tuple[int, int]:
    """Check one CSV against the oracle: returns (attempted, failed).

    Every configured value counts as attempted; a value that is missing,
    unparsable, non-finite or out of tolerance counts as failed, and so do
    all values of a missing CSV.
    """
    parts = config["parts"]
    attempted = len(config["times"]) * len(parts)
    if text is None:
        return attempted, attempted
    rows = list(csv.DictReader(io.StringIO(text.decode("utf-8"))))
    exact_tol = EXACT_TOL * math.prod(1.0 / math.sin(p) for p in config["phis"])
    passed = 0
    for t, ref, row in zip(config["times"], reference, rows):
        try:
            if float(row["t"]) != t:
                continue
            if config["mode"] == "exact":
                tol = exact_tol
            else:
                tol = SAMPLED_BOUNDS * float(row["rms_bound"])
            for part in parts:
                column, expected = (
                    ("re_value", ref.real) if part == "real" else ("im_value", ref.imag)
                )
                value = float(row[column])
                passed += math.isfinite(value) and abs(value - expected) <= tol
        except (KeyError, TypeError, ValueError):
            continue
    return attempted, attempted - passed


_SUITE_LINE = re.compile(r"^\s+(\S+)\s+n=(\d+)\s.*\s(PASS|FAIL)$")


def check_verify_report(code: int | None, report: str | None, suites) -> tuple[int, int, int]:
    """Check one ``seqmeas verify`` run: returns (attempted, failed, samples).

    One operation per expected suite; a suite passes only when its report
    line says PASS and the command exited 0.  ``samples`` sums the
    instance counts the report prints.
    """
    lines = {}
    for line in (report or "").splitlines():
        match = _SUITE_LINE.match(line)
        if match:
            lines[match.group(1)] = (int(match.group(2)), match.group(3))
    passed = sum(
        code == 0 and lines.get(name, (0, "FAIL"))[1] == "PASS" for name in suites
    )
    samples = sum(n for n, _ in lines.values())
    return len(suites), len(suites) - passed, samples
