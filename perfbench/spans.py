"""In-memory spans around the public functions of each seqmeas module.

The traced run replaces each public function at the name its caller looks
it up by (a module global such as ``seqmeas.protocols.embed``, or a method
on its class such as ``Hamiltonian.matrix``) with a wrapper that records a
span, and puts every original back afterwards.  Nothing in the program is
edited.  Layers are named after the module that defines the function.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (owner, attribute, span name).  The owner is "module" or "module:Class",
# the place the caller looks the attribute up.
PATCHES = (
    ("seqmeas.cli", "load_config", "config.load_config"),
    ("seqmeas.cli", "run_experiment", "experiment.run_experiment"),
    ("seqmeas.cli", "write_outputs", "experiment.write_outputs"),
    ("seqmeas.experiment", "rows_to_csv", "experiment.rows_to_csv"),
    ("seqmeas.experiment", "propagator", "dynamics.propagator"),
    ("seqmeas.experiment", "time_reversed_evolution", "dynamics.time_reversed_evolution"),
    ("seqmeas.experiment", "toc", "protocols.toc"),
    ("seqmeas.experiment", "otoc", "protocols.otoc"),
    ("seqmeas.verify", "propagator", "dynamics.propagator"),
    ("seqmeas.verify", "time_reversed_evolution", "dynamics.time_reversed_evolution"),
    ("seqmeas.verify", "toc", "protocols.toc"),
    ("seqmeas.verify", "otoc", "protocols.otoc"),
    ("seqmeas.verify", "kraus_pair", "measurement.kraus_pair"),
    ("seqmeas.verify", "oracle_toc", "oracle.oracle_toc"),
    ("seqmeas.verify", "oracle_otoc", "oracle.oracle_otoc"),
    ("seqmeas.verify", "synthesize_measurement_circuit", "circuits.synthesize_measurement_circuit"),
    ("seqmeas.verify", "induced_kraus", "circuits.induced_kraus"),
    ("seqmeas.protocols", "embed", "core.embed"),
    ("seqmeas.protocols", "kraus_pair", "measurement.kraus_pair"),
    ("seqmeas.protocols", "sequence_distribution", "protocols.sequence_distribution"),
    ("seqmeas.protocols", "sample_protocol", "protocols.sample_protocol"),
    ("seqmeas.protocols", "trial_uniforms", "protocols.trial_uniforms"),
    ("seqmeas.circuits", "embed", "core.embed"),
    ("seqmeas.dynamics:Hamiltonian", "matrix", "dynamics.Hamiltonian.matrix"),
    ("seqmeas.observables:PauliString", "matrix", "observables.PauliString.matrix"),
)

# One correlator value per call: these spans open a new request id unless an
# enclosing span (a verify suite) already carries one.
VALUE_SPANS = frozenset({"protocols.toc", "protocols.otoc"})

# Records with probability above this are useful branches of the exact engine.
USEFUL_PROBABILITY = 1e-15

# Counts taken from a wrapped function's return value, keyed by metric name.
COUNTERS = {
    "protocols.sequence_distribution": lambda records: {
        "protocols.branches": len(records),
        "protocols.useful_branches": sum(
            r.probability > USEFUL_PROBABILITY for r in records
        ),
    },
    "protocols.sample_protocol": lambda est: {"protocols.trials": est.trials[0]},
    "protocols.trial_uniforms": lambda u: {"protocols.trial_uniforms.bytes": u.nbytes},
    "experiment.rows_to_csv": lambda text: {
        "experiment.csv_bytes": len(text.encode("utf-8"))
    },
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "counts")

    def __init__(self, name, start, end, parent, request):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.counts = {}

    def as_row(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.request, self.counts]


class Tracer:
    """Records spans in memory; a span's parent is the span open around it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._values = 0

    def begin(self, name: str, request=None) -> Span:
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = self.spans[parent].request
        if request is None and name in VALUE_SPANS:
            request = self._values
            self._values += 1
        span = Span(name, self.clock(), None, parent, request)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str, request=None):
        span = self.begin(name, request)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, fn, name: str):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if count is not None:
                span.counts = count(result)
            return result

        return traced


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@contextmanager
def installed(tracer: Tracer):
    """Install a traced wrapper at every patch point; restore on exit."""
    saved = []
    try:
        for path, attr, name in PATCHES:
            owner = _owner(path)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children[index]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered)
    return result


def summarize(spans) -> dict:
    """Per-name calls and self time, summed counts, and value durations for
    the spans of one execution."""
    calls = Counter()
    self_s = defaultdict(float)
    counts = Counter()
    value_ms = []
    for span, own in zip(spans, self_times(spans)):
        calls[span.name] += 1
        self_s[span.name] += own
        counts.update(span.counts)
        if span.name in VALUE_SPANS:
            value_ms.append((span.end - span.start) * 1e3)
    return {"calls": calls, "self_s": self_s, "counts": counts, "value_ms": value_ms}


def _percentile(values, q: int) -> float:
    """q-th percentile (inclusive method); 0.0 when there is no sample."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(summaries, names) -> dict:
    """Per-layer metric values from the summaries of repeated traced
    executions of one workload.  Times are medians over executions, counts
    come from the first execution (they repeat exactly), and the value
    percentiles pool every value of every execution."""
    first = summaries[0]

    def median_self(layer):
        return statistics.median(s["self_s"].get(layer, 0.0) for s in summaries)

    values = [ms for s in summaries for ms in s["value_ms"]]
    branches = first["counts"]["protocols.branches"]
    sample_self = median_self("protocols.sample_protocol")
    derived = {
        "protocols.value_ms_p50": _percentile(values, 50),
        "protocols.value_ms_p90": _percentile(values, 90),
        "protocols.branches": branches,
        "protocols.branch_useful_ratio": (
            first["counts"]["protocols.useful_branches"] / branches if branches else 0.0
        ),
        "protocols.trajectories_per_s": (
            first["counts"]["protocols.trials"] / sample_self if sample_self else 0.0
        ),
        "protocols.trial_uniforms.bytes": first["counts"]["protocols.trial_uniforms.bytes"],
        "experiment.csv_bytes": first["counts"]["experiment.csv_bytes"],
    }
    metrics = {}
    for name in names:
        if name in derived:
            metrics[name] = derived[name]
        elif name.endswith(".calls"):
            metrics[name] = first["calls"].get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            metrics[name] = median_self(name[: -len(".self_s")])
    return metrics
