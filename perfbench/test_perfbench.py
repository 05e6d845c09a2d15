"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import shutil
import subprocess
import sys

import pytest

import bench
import gate
import spans

sys.path.insert(0, str(bench.SRC))

COUNT_METRICS = [
    name for name in bench.PER_LAYER
    if name.endswith((".calls", ".bytes")) or name in ("protocols.branches", "experiment.csv_bytes")
]


class FakeClock:
    def __init__(self, *readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


def test_self_time_on_nested_span_tree():
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0, None, None),
        S("a", 1.0, 4.0, 0, None),
        S("b", 3.0, 6.0, 0, None),  # overlaps its sibling a
        S("a.child", 2.0, 3.0, 1, None),
        S("c", 8.0, 12.0, 0, None),  # runs past its parent's end
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 3.0, 1.0, 4.0]


def test_tracer_links_parents_and_requests():
    tracer = spans.Tracer(clock=FakeClock(*map(float, range(10))))
    with tracer.span("experiment.run_experiment"):
        for _ in range(2):
            with tracer.span("protocols.otoc"):
                with tracer.span("core.embed"):
                    pass
    rows = [(s.name, s.parent, s.request) for s in tracer.spans]
    assert rows == [
        ("experiment.run_experiment", None, None),
        ("protocols.otoc", 0, 0),
        ("core.embed", 1, 0),
        ("protocols.otoc", 0, 1),
        ("core.embed", 3, 1),
    ]
    summary = spans.summarize(tracer.spans)
    assert summary["calls"]["protocols.otoc"] == 2
    assert summary["self_s"]["core.embed"] == 2.0
    assert summary["value_ms"] == [3000.0, 3000.0]


def _attributes():
    return [vars(spans._owner(path))[attr] for path, attr, _ in spans.PATCHES]


def test_wrapper_restores_every_patched_attribute():
    originals = _attributes()
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            patched = _attributes()
            assert all(p is not o for p, o in zip(patched, originals))
            raise RuntimeError("leave the block early")
    assert all(r is o for r, o in zip(_attributes(), originals))


def _small(name, seed=3):
    spec = bench.workload_input(name, seed)
    if "config" in spec:
        config = spec["config"]
        config["times"] = config["times"][:2]
        config["trials"] = min(config["trials"], 200)
    else:
        spec["verify"]["samples"] = 20
    return spec


def test_failed_ratio_counts_a_wrong_reference(tmp_path):
    target = bench.make_target(_small("exact-otoc"), tmp_path)
    target.execute()
    target.execute()
    reference = gate.reference_values(target.config)
    assert target.check(reference) == (9, 0)  # 2 x 4 values, 1 determinism check
    reference[1] += 1e-6
    assert target.check(reference) == (9, 2)  # the real part of t[1] in both CSVs
    target.outputs[1] = target.outputs[1].replace(b"exact", b"exakt")
    assert target.check(reference) == (9, 3)


def test_failed_verify_suite_is_counted():
    report = "seqmeas verify: samples=1 seed=0\n  povm-identity  n=1  max residual 1e-17  tol 1e-10  PASS\n"
    assert gate.check_verify_report(0, report, ["povm-identity", "time-reversal"]) == (2, 1, 1)
    assert gate.check_verify_report(2, report, ["povm-identity"]) == (1, 1, 1)


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_small_workload_is_correct_and_counts_repeat(name, tmp_path):
    target = bench.make_target(_small(name), tmp_path)
    target.execute()
    summaries = []
    for _ in range(2):
        tracer = spans.Tracer()
        target.execute(tracer)
        summaries.append(spans.summarize(tracer.spans))
    attempted, failed = target.check()
    assert attempted > 0 and failed == 0
    runs = [spans.layer_metrics([s], bench.PER_LAYER) for s in summaries]
    assert set(runs[0]) == set(bench.PER_LAYER) - {"trace.overhead_s"}
    assert {m: runs[0][m] for m in COUNT_METRICS} == {m: runs[1][m] for m in COUNT_METRICS}
    assert runs[0]["dynamics.propagator.calls"] > 0


def test_benchmark_file_matches_the_code():
    with open(bench.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    assert [w["name"] for w in declared["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == bench.PER_LAYER
    with open(bench.ROOT / "perfbench" / "interactions.json", encoding="utf-8") as fh:
        assert set(json.load(fh)) == set(bench.PER_LAYER)


@pytest.mark.parametrize("name", ["exact-otoc", "toc-sweep", "sampled-otoc"])
def test_generated_config_is_fully_resolved(name):
    from seqmeas.config import config_from_dict

    config = bench.workload_input(name, 7)["config"]
    assert config_from_dict(config).to_dict() == config


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-otoc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
