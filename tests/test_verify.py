"""``run_suites`` in worker processes: the same results as in-process calls."""

import os

import numpy as np
import pytest

import seqmeas.verify as verify_mod
from seqmeas import NumericalInvariantError
from seqmeas.verify import format_report, run_suites


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _in_process(samples, seed):
    return [
        suite(samples, np.random.default_rng([seed, index]))
        for index, suite in enumerate(verify_mod._SUITES)
    ]


@pytest.mark.parametrize("cpus", [1, 2, 6])
@pytest.mark.parametrize("seed", [3, 11])
def test_equals_the_suites_called_in_process(monkeypatch, seed, cpus):
    # Every suite runs on its own stream, so neither the worker count nor
    # the order in which workers finish can change a result.
    _cpus(monkeypatch, cpus)
    results = run_suites(samples=12, seed=seed)
    assert results == _in_process(12, seed)
    assert [r.name for r in results] == [
        "povm-identity",
        "isolation-identities",
        "phi-independence",
        "circuit-synthesis-contract",
        "hermitian-square",
        "time-reversal",
    ]


def test_one_cpu_runs_in_this_process(monkeypatch):
    _cpus(monkeypatch, 1)
    pids = []

    def recording(samples, rng):
        pids.append(os.getpid())
        return verify_mod.SuiteResult("recorded", samples, 0.0, 1.0)

    monkeypatch.setattr(verify_mod, "_SUITES", (recording,) * 3)
    assert [r.name for r in run_suites(samples=2, seed=0)] == ["recorded"] * 3
    assert pids == [os.getpid()] * 3


def test_more_cpus_run_the_suites_in_worker_processes(monkeypatch):
    _cpus(monkeypatch, 2)

    def recording(samples, rng):
        return verify_mod.SuiteResult(str(os.getpid()), samples, 0.0, 1.0)

    monkeypatch.setattr(verify_mod, "_SUITES", (recording,) * 3)
    pids = {int(r.name) for r in run_suites(samples=2, seed=0)}
    assert pids and os.getpid() not in pids


def test_report_does_not_depend_on_the_cpu_count(monkeypatch):
    reports = []
    for cpus in (1, 4):
        _cpus(monkeypatch, cpus)
        reports.append(format_report(run_suites(samples=10, seed=5), 10, 5))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_suite_raises_its_own_error(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)

    def broken(samples, rng):
        raise NumericalInvariantError("density matrix trace 2.0 is not 1")

    suites = list(verify_mod._SUITES)
    suites[3] = broken
    monkeypatch.setattr(verify_mod, "_SUITES", tuple(suites))
    with pytest.raises(NumericalInvariantError, match=r"^density matrix trace 2\.0 is not 1$"):
        run_suites(samples=4, seed=0)
