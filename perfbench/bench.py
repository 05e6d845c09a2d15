"""The seqmeas benchmark: workloads, timed and traced runs, metrics.

Every workload goes through the public entry point ``seqmeas.cli.main``
(``run`` or ``verify``) in this one driving process, single-threaded BLAS,
with the program seeing only the generated input.  Outputs are checked by
``gate`` outside the timed region.  The last line of standard output is
one JSON object with the run's metrics.

Untraced runs (``--trace 0``) report the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of the time from process
  start until ``seqmeas.cli.main`` reaches ``run_experiment`` (or
  ``run_suites``): importing seqmeas and numpy, parsing arguments and, for
  ``run``, ``load_config``.
* ``run_s``: median wall time of one warm, complete ``seqmeas run``
  (config file to CSV and sidecar) or ``seqmeas verify``.
* ``values_per_s``: correlator values (``run``) or verify identity
  instances per run, divided by ``run_s``.
* ``peak_rss_mb``: ``ru_maxrss`` of this process after the timed runs.

``failed_ratio`` (failed over attempted operations) is printed with them;
the JSON line carries it as ``attempted`` and ``failed``.

Traced runs (``--trace 1``) alternate an untraced and a traced execution
and report the per-layer metrics of ``spans``; ``trace.overhead_s`` is the
median traced minus the median untraced run time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import gate
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "probe.py"
RUNS = ROOT / ".perfbench_runs"

SETUP_PROBES = 5
WARMUP_TRIALS = 100
WARMUP_SAMPLES = 10

END_TO_END = {"setup_s": "s", "run_s": "s", "values_per_s": "1/s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "config.load_config.self_s": "s",
    "observables.PauliString.matrix.calls": "count",
    "observables.PauliString.matrix.self_s": "s",
    "dynamics.Hamiltonian.matrix.calls": "count",
    "dynamics.Hamiltonian.matrix.self_s": "s",
    "dynamics.propagator.calls": "count",
    "dynamics.propagator.self_s": "s",
    "dynamics.time_reversed_evolution.calls": "count",
    "dynamics.time_reversed_evolution.self_s": "s",
    "measurement.kraus_pair.calls": "count",
    "measurement.kraus_pair.self_s": "s",
    "core.embed.calls": "count",
    "core.embed.self_s": "s",
    "protocols.toc.calls": "count",
    "protocols.toc.self_s": "s",
    "protocols.otoc.calls": "count",
    "protocols.otoc.self_s": "s",
    "protocols.value_ms_p50": "ms",
    "protocols.value_ms_p90": "ms",
    "protocols.sequence_distribution.calls": "count",
    "protocols.sequence_distribution.self_s": "s",
    "protocols.branches": "count",
    "protocols.branch_useful_ratio": "1",
    "protocols.sample_protocol.calls": "count",
    "protocols.sample_protocol.self_s": "s",
    "protocols.trajectories_per_s": "1/s",
    "protocols.trial_uniforms.self_s": "s",
    "protocols.trial_uniforms.bytes": "bytes",
    "circuits.synthesize_measurement_circuit.calls": "count",
    "circuits.synthesize_measurement_circuit.self_s": "s",
    "circuits.induced_kraus.calls": "count",
    "circuits.induced_kraus.self_s": "s",
    "oracle.oracle_toc.calls": "count",
    "oracle.oracle_toc.self_s": "s",
    "oracle.oracle_otoc.calls": "count",
    "oracle.oracle_otoc.self_s": "s",
    "verify.povm_identity_suite.self_s": "s",
    "verify.isolation_suite.self_s": "s",
    "verify.phi_independence_suite.self_s": "s",
    "verify.circuit_contract_suite.self_s": "s",
    "verify.hermitian_square_suite.self_s": "s",
    "verify.time_reversal_suite.self_s": "s",
    "experiment.run_experiment.self_s": "s",
    "experiment.rows_to_csv.self_s": "s",
    "experiment.write_outputs.self_s": "s",
    "experiment.csv_bytes": "bytes",
    "trace.overhead_s": "s",
}

# The public verify suites in ``run_suites`` order (the index keys the
# ``default_rng([seed, index])`` stream), with the names the report prints.
VERIFY_SUITES = (
    ("povm_identity_suite", "povm-identity"),
    ("isolation_suite", "isolation-identities"),
    ("phi_independence_suite", "phi-independence"),
    ("circuit_contract_suite", "circuit-synthesis-contract"),
    ("hermitian_square_suite", "hermitian-square"),
    ("time_reversal_suite", "time-reversal"),
)

ISING = {"model": "mixed-field-ising", "J": 1.0, "g": 1.05, "h": 0.5}


def _grid(count: int) -> list[float]:
    return [0.25 * i for i in range(count)]


def _run_config(n, a, b, times, protocol, initial, phis, seed, mode="exact", trials=10000):
    """A fully resolved config: ``config_from_dict`` returns it unchanged."""
    return {
        "system_size": n,
        "observable_a": a,
        "observable_b": b,
        "times": times,
        "protocol": protocol,
        "initial_state": initial,
        "hamiltonian": dict(ISING),
        "phis": phis,
        "mode": mode,
        "trials": trials,
        "seed": seed,
        "parts": ["real", "imag"],
        "reversal": "direct-dagger",
    }


def workload_input(name: str, seed: int) -> dict:
    """The program input of workload ``name`` for workload seed ``seed``.

    The exact workloads do not depend on the seed beyond the echoed
    ``seed`` field; the sampled run and verify draw their streams from it.
    """
    if name == "exact-otoc":
        return {"config": _run_config(
            7, "+ZIIIIII", "+IIIIIIZ", _grid(40), "otoc", "maximally-mixed",
            [0.6] * 4, seed,
        )}
    if name == "toc-sweep":
        return {"config": _run_config(
            8, "+ZIIIIIII", "+IIIIIIIZ", _grid(32), "toc", "00000000",
            [0.6] * 2, seed,
        )}
    if name == "sampled-otoc":
        quarter, half = 0.7853981633974483, 1.5707963267948966
        return {"config": _run_config(
            6, "+ZIIIII", "+IIIIIZ", [3.0], "otoc", "maximally-mixed",
            [half, quarter, quarter, half], seed, mode="sampled", trials=2000,
        )}
    if name == "verify-suites":
        return {"verify": {"samples": 1000, "seed": seed}}
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("exact-otoc", "toc-sweep", "sampled-otoc", "verify-suites")


def _cli_call(argv, tracer=None):
    """Run ``seqmeas.cli.main(argv)``; returns (exit code, stdout, seconds).

    An exception is reported on stderr and gives exit code None, so the
    execution's operations count as failed instead of ending the run.
    """
    from seqmeas.cli import main

    out = io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        if tracer is not None:
            stack.enter_context(spans.installed(tracer))
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


class RunTarget:
    """A ``seqmeas run`` workload: one config file, one CSV per execution."""

    def __init__(self, config: dict, workdir: Path):
        self.config = config
        self.csv_path = workdir / "results.csv"
        self.argv = ["run", "--config", self._write(workdir / "config.json", config),
                     "--out", str(self.csv_path)]
        warm = dict(config, times=config["times"][:1],
                    trials=min(config["trials"], WARMUP_TRIALS))
        self.warm_argv = ["run", "--config", self._write(workdir / "warmup.json", warm),
                          "--out", str(workdir / "warmup.csv")]
        self.outputs: list[bytes | None] = []

    @staticmethod
    def _write(path: Path, config: dict) -> str:
        path.write_text(json.dumps(config), encoding="utf-8")
        return str(path)

    def values_per_execution(self) -> int:
        return len(self.config["times"]) * len(self.config["parts"])

    def execute(self, tracer=None) -> float:
        self.csv_path.unlink(missing_ok=True)
        code, _, seconds = _cli_call(self.argv, tracer)
        ok = code == 0 and self.csv_path.exists()
        self.outputs.append(self.csv_path.read_bytes() if ok else None)
        return seconds

    def check(self, reference=None) -> tuple[int, int]:
        """Oracle check of every CSV, plus one determinism check per CSV
        after the first."""
        if reference is None:
            reference = gate.reference_values(self.config)
        attempted = failed = 0
        for output in self.outputs:
            a, f = gate.check_csv(output, self.config, reference)
            attempted += a
            failed += f
        for output in self.outputs[1:]:
            attempted += 1
            failed += output is None or output != self.outputs[0]
        return attempted, failed

    def record(self) -> dict:
        sidecar = self.csv_path.with_name(self.csv_path.stem + "_config.json")
        resolved = json.loads(sidecar.read_text(encoding="utf-8")) if sidecar.exists() else None
        return {"config": self.config, "sidecar": resolved}


class VerifyTarget:
    """The ``seqmeas verify`` workload."""

    def __init__(self, samples: int, seed: int):
        self.samples = samples
        self.seed = seed
        self.argv = ["verify", "--samples", str(samples), "--seed", str(seed)]
        self.warm_argv = ["verify", "--samples", str(WARMUP_SAMPLES), "--seed", str(seed)]
        self.results: list[tuple[int, int, int]] = []

    def values_per_execution(self) -> int:
        return self.results[0][2] if self.results else 0

    def execute(self, tracer=None) -> float:
        if tracer is not None:
            return self._traced(tracer)
        code, report, seconds = _cli_call(self.argv)
        names = [report_name for _, report_name in VERIFY_SUITES]
        self.results.append(gate.check_verify_report(code, report, names))
        return seconds

    def _traced(self, tracer) -> float:
        """``run_suites`` iterates a tuple bound at import time, so the traced
        execution calls the public suite functions itself, on the same
        ``default_rng([seed, index])`` streams."""
        import numpy as np
        import seqmeas.verify as verify

        outcomes = []
        with spans.installed(tracer):
            start = time.perf_counter()
            for index, (function, _) in enumerate(VERIFY_SUITES):
                rng = np.random.default_rng([self.seed, index])
                with tracer.span(f"verify.{function}", request=index):
                    try:
                        outcomes.append(getattr(verify, function)(self.samples, rng))
                    except Exception:
                        traceback.print_exc()
                        outcomes.append(None)
            seconds = time.perf_counter() - start
        passed = sum(r is not None and r.passed for r in outcomes)
        samples = sum(r.samples for r in outcomes if r is not None)
        self.results.append((len(VERIFY_SUITES), len(VERIFY_SUITES) - passed, samples))
        return seconds

    def check(self) -> tuple[int, int]:
        return sum(r[0] for r in self.results), sum(r[1] for r in self.results)

    def record(self) -> dict:
        return {"verify": {"samples": self.samples, "seed": self.seed}}


def make_target(spec: dict, workdir: Path):
    if "config" in spec:
        from seqmeas.config import config_from_dict

        resolved = config_from_dict(spec["config"]).to_dict()
        if resolved != spec["config"]:
            raise ValueError(f"generated config is not fully resolved: {resolved}")
        return RunTarget(spec["config"], workdir)
    return VerifyTarget(**spec["verify"])


def probe_setup(argv) -> float:
    """Seconds from starting a fresh interpreter until ``seqmeas.cli.main``
    reaches the experiment call (see ``probe.py``)."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(PROBE), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


def _repeat(step, seconds: float) -> list[float]:
    """Call ``step()``, which returns its duration, at least once and again
    while another call of the same duration still ends within ``seconds``.
    Returns the durations."""
    deadline = time.perf_counter() + seconds
    durations = []
    while True:
        durations.append(step())
        if time.perf_counter() + durations[-1] > deadline:
            return durations


def timed_run(target, seconds: float) -> dict:
    setup = [probe_setup(target.argv) for _ in range(SETUP_PROBES)]
    _cli_call(target.warm_argv)
    durations = _repeat(target.execute, seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run_s = statistics.median(durations)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "values_per_s": target.values_per_execution() / run_s,
        "peak_rss_mb": peak_kib / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "run_s": f"median of {len(durations)} runs",
        "values_per_s": f"{target.values_per_execution()} values per run",
    }
    return {"metrics": metrics, "notes": notes,
            "samples": {"setup_s": setup, "run_s": durations}}


def traced_run(target, seconds: float) -> dict:
    _cli_call(target.warm_argv)
    plain, traced, recorded = [], [], []

    def pair():
        # Alternate which side runs first, so order effects cancel.
        plain_first = len(plain) % 2 == 0
        if plain_first:
            plain.append(target.execute())
        tracer = spans.Tracer()
        traced.append(target.execute(tracer))
        recorded.append(tracer.spans)
        if not plain_first:
            plain.append(target.execute())
        return plain[-1] + traced[-1]

    _repeat(pair, seconds)
    summaries = [spans.summarize(s) for s in recorded]
    metrics = spans.layer_metrics(summaries, PER_LAYER)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    values = sum(len(s["value_ms"]) for s in summaries)
    notes = {
        "protocols.value_ms_p50": f"{values} values",
        "protocols.value_ms_p90": f"{values} values",
        "trace.overhead_s": f"{len(traced)} traced and {len(plain)} untraced runs",
    }
    return {"metrics": metrics, "notes": notes, "spans": recorded,
            "samples": {"run_s": plain, "traced_run_s": traced}}


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(pinned: bool) -> dict:
    """Thread settings, numpy/BLAS, Python, nproc and git sha of a result.
    ``pinned`` is false when numpy was loaded before the thread counts were
    set to 1, so the result was measured unpinned."""
    import numpy

    threads = {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "pinned": pinned,
        "threads": threads,
        "numpy": numpy.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv, pinned: bool) -> int:
    args = parse_args(argv)
    if not (SRC / "seqmeas" / "__init__.py").is_file():
        print(f"perfbench: no seqmeas sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment(pinned)
    spec = workload_input(args.workload, args.seed)
    RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS) as workdir:
        target = make_target(spec, Path(workdir))
        run = (traced_run if args.trace else timed_run)(target, args.seconds)
        attempted, failed = target.check()
        record = target.record()

    units = PER_LAYER if args.trace else END_TO_END
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(RUNS / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for execution, recorded in enumerate(run.pop("spans")):
                for span in recorded:
                    fh.write(json.dumps([execution, *span.as_row()]) + "\n")
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "input": record, "attempted": attempted,
              "failed": failed, **run}
    (RUNS / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"environment={json.dumps(env, sort_keys=True)}")
    for name, value in run["metrics"].items():
        print(f"  {name:<48} {value:>14.6g} {units[name]:<6} {run['notes'].get(name, '')}")
    if not args.trace:
        print(f"  {'failed_ratio':<48} {failed / attempted:>14.6g} {'1':<6} "
              f"{failed} of {attempted} operations")
    print(f"  results in {RUNS.name}/{stem}.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in run["metrics"].items()},
    }))
    return 0
