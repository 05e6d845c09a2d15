"""Execute a configured experiment over its time grid and emit results.

One CSV row per time point; a JSON sidecar echoes the fully resolved
configuration so the exact run can be reproduced from the sidecar alone.
Floats are written with 17 significant digits, so identical (config,
seed) pairs produce byte-identical files.

Reported values are the correlator parts themselves: for the OTOC the raw
protocol average v is converted (Re F = 2v - 1, Im F = 2v) and the
statistical columns are scaled accordingly.  Sampled sub-runs hash
(seed, time index, part index) through numpy's SeedSequence into their
stream key, so every row/part pair has an independent, reproducible
stream, also for seeds of 2^32 and beyond.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import PARTS, ExperimentConfig
from .core import DensityMatrix
from .dynamics import propagator, time_reversed_evolution
from .protocols import _heisenberg_protocol, otoc_value
# Unused here; perfbench/spans.py traces toc and otoc by these names.
from .protocols import otoc, toc  # noqa: F401

CSV_HEADER = "t,re_value,im_value,re_stderr,im_stderr,rms_bound,mode,trials,seed"


@dataclass(frozen=True)
class ResultRow:
    t: float
    re_value: float | None
    im_value: float | None
    re_stderr: float | None
    im_stderr: float | None
    rms_bound: float
    mode: str
    trials: int
    seed: int


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.17g}"


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    _fmt(r.t),
                    _fmt(r.re_value),
                    _fmt(r.im_value),
                    _fmt(r.re_stderr),
                    _fmt(r.im_stderr),
                    _fmt(r.rms_bound),
                    r.mode,
                    str(r.trials),
                    str(r.seed),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _row_seed(base: int, time_index: int, part_index: int) -> int:
    """64-bit stream key hashed from the whole (base, time, part) triple."""
    seq = np.random.SeedSequence([base, time_index, part_index])
    return int(seq.generate_state(1, np.uint64)[0])


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """One row per time point of ``cfg.times``.

    The whole grid goes to one :func:`_heisenberg_protocol` call, with one
    propagator per time from the Hamiltonian's one spectrum, so an exact
    mixed-state run is evaluated in H's eigenbasis, built once per run;
    the clock-ancilla OTOC passes its system propagators and takes the
    same route as the direct one.  A label or amplitude list stays a pure
    state (positive by construction), which exact runs carry as a vector;
    a density matrix is checked positive first.
    """
    initial = cfg.initial_state_obj()
    if isinstance(initial, DensityMatrix):
        initial.check_positive()
    a = cfg.pauli_a()
    b = cfg.pauli_b()
    ham = cfg.hamiltonian_obj()
    sampled = cfg.mode == "sampled"
    scale = 1.0 if cfg.protocol == "toc" else 2.0
    count = 2 if cfg.protocol == "toc" else 4
    parts = tuple(p for p in PARTS if p in cfg.parts)

    if cfg.protocol == "otoc" and cfg.reversal == "clock-ancilla":
        # The clock OTOC runs on its system propagator (see otoc).
        evolutions = [time_reversed_evolution(ham, t).system for t in cfg.times]
    else:
        evolutions = [propagator(ham, t) for t in cfg.times]
    seeds = None
    if sampled:
        seeds = [
            tuple(_row_seed(cfg.seed, time_index, PARTS.index(p)) for p in parts)
            for time_index in range(len(cfg.times))
        ]
    grid = _heisenberg_protocol(
        initial,
        a,
        b,
        count,
        evolutions,
        parts,
        cfg.phis,
        cfg.mode,
        cfg.trials if sampled else None,
        seeds,
    )

    rows = []
    for t, estimates in zip(cfg.times, grid):
        values = {"real": None, "imag": None}
        errors = {"real": None, "imag": None}
        for part, est in zip(parts, estimates):
            values[part] = otoc_value(part, est.value) if count == 4 else est.value
            errors[part] = scale * est.empirical_stderr

        rows.append(
            ResultRow(
                t=t,
                re_value=values["real"],
                im_value=values["imag"],
                re_stderr=errors["real"],
                im_stderr=errors["imag"],
                rms_bound=scale * est.rms_bound,
                mode=cfg.mode,
                trials=est.trials[0],
                seed=cfg.seed,
            )
        )
    return rows


def write_outputs(cfg: ExperimentConfig, rows, out_path) -> tuple[Path, Path]:
    """Write the CSV and the resolved-config sidecar next to it."""
    csv_path = Path(out_path)
    sidecar = csv_path.with_name(csv_path.stem + "_config.json")
    csv_path.write_text(rows_to_csv(rows), encoding="utf-8")
    sidecar.write_text(cfg.to_json(), encoding="utf-8")
    return csv_path, sidecar
