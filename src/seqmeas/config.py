"""Experiment configuration: JSON schema, validation, resolved echo.

The on-disk format is a flat JSON object; every field name below is a
key.  Unknown keys are rejected so typos surface as validation errors.

Required:
  system_size     int, 1..10
  observable_a    Pauli-string text, e.g. "+ZIIIII" (sign optional)
  observable_b    same
  times           list of finite floats

Optional (defaults in parentheses):
  protocol        "toc" | "otoc"                     ("otoc")
  initial_state   bit-string label, "maximally-mixed",
                  or an amplitude list of length 2^n; amplitudes are
                  numbers or [re, im] pairs          ("0" * system_size)
  hamiltonian     {"model": "mixed-field-ising", "J":, "g":, "h":}
                  or {"terms": [[coeff, pauli-text], ...]}
                                                     (model with J=1, g=1.05, h=0.5)
  phis            strength angle(s) in (0, pi/2]; a scalar broadcasts to
                  every measurement (2 for toc, 4 for otoc)   (pi/2)
  mode            "exact" | "sampled"                ("exact")
  trials          int >= 1, sampled mode only        (10000)
  seed            int >= 0                           (0)
  parts           nonempty subset of ["real","imag"] (both)
  reversal        "direct-dagger" | "clock-ancilla"  ("direct-dagger")

Every number (times, angles, amplitudes, Hamiltonian coefficients and
J/g/h) must be a finite JSON number: NaN, Infinity, booleans and strings
are rejected.  An amplitude is a number or an [re, im] pair of numbers.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .core import MAX_QUBITS, DensityMatrix, NumericalInvariantError, PureState
from .dynamics import DEFAULT_ISING, Hamiltonian, build_mixed_field_ising
from .measurement import _validate_phi
from .observables import PauliString

PROTOCOLS = ("toc", "otoc")
MODES = ("exact", "sampled")
PARTS = ("real", "imag")
REVERSALS = ("direct-dagger", "clock-ancilla")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


def _fail(field: str, message: str):
    raise ConfigError(f"field '{field}': {message}")


def _number(field: str, value) -> float:
    """``value`` as a float; booleans, non-numbers and non-finite values fail."""
    try:
        if not isinstance(value, bool) and isinstance(value, (int, float)):
            if math.isfinite(value):
                return float(value)
    except OverflowError:  # an integer too large for a float
        pass
    _fail(field, f"{value!r} is not a finite number")


def _require_int(field: str, value, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(field, f"expected an integer, got {value!r}")
    if value < minimum:
        _fail(field, f"must be >= {minimum}, got {value}")
    return value


def _require_enum(field: str, value, allowed) -> str:
    if value not in allowed:
        _fail(field, f"must be one of {list(allowed)}, got {value!r}")
    return value


def _parse_pauli(field: str, text, n: int) -> PauliString:
    if not isinstance(text, str):
        _fail(field, f"expected Pauli-string text, got {text!r}")
    try:
        p = PauliString.from_text(text)
    except ValueError as exc:
        _fail(field, str(exc))
    if p.n_qubits != n:
        _fail(field, f"acts on {p.n_qubits} qubits, system_size is {n}")
    return p


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    system_size: int
    observable_a: str
    observable_b: str
    times: tuple[float, ...]
    protocol: str
    initial_state: object
    hamiltonian: dict
    phis: tuple[float, ...]
    mode: str
    trials: int
    seed: int
    parts: tuple[str, ...]
    reversal: str

    def pauli_a(self) -> PauliString:
        return PauliString.from_text(self.observable_a)

    def pauli_b(self) -> PauliString:
        return PauliString.from_text(self.observable_b)

    def initial_state_obj(self) -> PureState | DensityMatrix:
        """A PureState for a label or an amplitude list, a DensityMatrix
        for "maximally-mixed"."""
        n = self.system_size
        state = self.initial_state
        if state == "maximally-mixed":
            return DensityMatrix.maximally_mixed(n)
        if isinstance(state, str):
            return PureState.from_label(state)
        return _pure_state(n, state)

    def hamiltonian_obj(self) -> Hamiltonian:
        spec = self.hamiltonian
        if "terms" in spec:
            return Hamiltonian.from_pairs(self.system_size, spec["terms"])
        return build_mixed_field_ising(
            self.system_size, spec["J"], spec["g"], spec["h"]
        )

    def to_dict(self) -> dict:
        raw = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in raw.items()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _pure_state(n: int, amplitudes) -> PureState:
    """The state of an amplitude list (numbers or [re, im] pairs)."""
    amps = [complex(*x) if isinstance(x, list) else complex(x) for x in amplitudes]
    return PureState(n, np.array(amps, dtype=np.complex128))


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping and resolve all defaults."""
    if not isinstance(raw, dict):
        raise ConfigError(f"configuration must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - _FIELDS)
    if unknown:
        raise ConfigError(f"unknown field(s): {', '.join(unknown)}")
    for field in ("system_size", "observable_a", "observable_b", "times"):
        if field not in raw:
            _fail(field, "is required")

    protocol = _require_enum("protocol", raw.get("protocol", "otoc"), PROTOCOLS)
    reversal = _require_enum("reversal", raw.get("reversal", "direct-dagger"), REVERSALS)
    n = _require_int("system_size", raw["system_size"], 1)
    if n > MAX_QUBITS:
        _fail("system_size", f"must be <= {MAX_QUBITS}, got {n}")

    _parse_pauli("observable_a", raw["observable_a"], n)
    _parse_pauli("observable_b", raw["observable_b"], n)

    times_raw = raw["times"]
    if not isinstance(times_raw, (list, tuple)) or not times_raw:
        _fail("times", "must be a nonempty list of numbers")
    times = [_number("times", t) for t in times_raw]

    n_meas = 2 if protocol == "toc" else 4
    phis_raw = raw.get("phis", math.pi / 2)
    if isinstance(phis_raw, (list, tuple)):
        phis = [_number("phis", p) for p in phis_raw]
        if len(phis) != n_meas:
            _fail("phis", f"{protocol} takes {n_meas} angles, got {len(phis)}")
    else:
        phis = [_number("phis", phis_raw)] * n_meas
    try:
        phis = tuple(_validate_phi(p) for p in phis)
    except ValueError as exc:
        _fail("phis", str(exc))

    mode = _require_enum("mode", raw.get("mode", "exact"), MODES)
    trials = _require_int("trials", raw.get("trials", 10000), 1)
    seed = _require_int("seed", raw.get("seed", 0), 0)

    parts_raw = raw.get("parts", list(PARTS))
    if not isinstance(parts_raw, (list, tuple)) or not parts_raw:
        _fail("parts", "must be a nonempty list")
    for part in parts_raw:
        _require_enum("parts", part, PARTS)
    parts = tuple(dict.fromkeys(parts_raw))

    initial_state = raw.get("initial_state", "0" * n)
    if isinstance(initial_state, str):
        if initial_state != "maximally-mixed":
            if len(initial_state) != n or any(c not in "01" for c in initial_state):
                _fail(
                    "initial_state",
                    f"label must be {n} bits or 'maximally-mixed', got {initial_state!r}",
                )
    elif isinstance(initial_state, (list, tuple)):
        if len(initial_state) != 2**n:
            _fail("initial_state", f"amplitude list must have length {2**n}")
        cleaned = []
        for x in initial_state:
            if isinstance(x, (list, tuple)) and len(x) == 2:
                cleaned.append([_number("initial_state", v) for v in x])
            else:
                _number("initial_state", x)
                cleaned.append(x)
        initial_state = cleaned
    else:
        _fail("initial_state", f"unsupported value {initial_state!r}")

    hamiltonian = raw.get("hamiltonian", {"model": "mixed-field-ising", **DEFAULT_ISING})
    if not isinstance(hamiltonian, dict):
        _fail("hamiltonian", "must be an object")
    if "terms" in hamiltonian:
        extra = set(hamiltonian) - {"terms"}
        if extra:
            _fail("hamiltonian", f"unexpected keys next to 'terms': {sorted(extra)}")
        terms = hamiltonian["terms"]
        if not isinstance(terms, (list, tuple)) or not terms:
            _fail("hamiltonian", "'terms' must be a nonempty list")
        resolved_terms = []
        for item in terms:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                _fail("hamiltonian", f"term {item!r} is not a [coeff, pauli] pair")
            coeff, text = item
            _parse_pauli("hamiltonian", text, n)
            resolved_terms.append([_number("hamiltonian", coeff), text])
        hamiltonian = {"terms": resolved_terms}
    else:
        model = hamiltonian.get("model")
        if model != "mixed-field-ising":
            _fail("hamiltonian", f"unknown model {model!r} (or provide 'terms')")
        extra = set(hamiltonian) - {"model", "J", "g", "h"}
        if extra:
            _fail("hamiltonian", f"unknown keys: {sorted(extra)}")
        hamiltonian = {"model": "mixed-field-ising"} | {
            key: _number("hamiltonian", hamiltonian.get(key, DEFAULT_ISING[key]))
            for key in ("J", "g", "h")
        }
        if n < 2:
            _fail("system_size", "mixed-field-ising needs at least 2 sites")

    cfg = ExperimentConfig(
        system_size=n,
        observable_a=raw["observable_a"],
        observable_b=raw["observable_b"],
        times=tuple(times),
        protocol=protocol,
        initial_state=initial_state,
        hamiltonian=hamiltonian,
        phis=phis,
        mode=mode,
        trials=trials,
        seed=seed,
        parts=parts,
        reversal=reversal,
    )
    # Labels and "maximally-mixed" are fully checked above; an amplitude
    # list still needs its norm, which the state vector alone settles.
    if isinstance(initial_state, list):
        try:
            _pure_state(n, initial_state)
        except NumericalInvariantError as exc:
            _fail("initial_state", str(exc))
    return cfg


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Load and validate a JSON config file; ``overrides`` wins over file
    values (used by the CLI flags)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # not UTF-8, or an integer past Python's digit limit
        raise ConfigError(f"cannot parse config {path!r}: {exc}") from exc
    if overrides:
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    return config_from_dict(raw)
