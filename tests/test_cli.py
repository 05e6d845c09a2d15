"""Configuration validation, CLI behavior, output determinism."""

import json
import math

import numpy as np
import pytest

import seqmeas.cli as cli_mod
from seqmeas import (
    ConfigError,
    DensityMatrix,
    NumericalInvariantError,
    config_from_dict,
    load_config,
    rows_to_csv,
    run_experiment,
)
from seqmeas.cli import main
import seqmeas.dynamics as dynamics_mod
import seqmeas.verify as verify_mod
from seqmeas.verify import format_report, povm_identity_suite, run_suites


def base_config(**extra):
    cfg = {
        "system_size": 2,
        "observable_a": "+ZI",
        "observable_b": "+IZ",
        "times": [0.0, 0.5],
        "protocol": "otoc",
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestConfigValidation:
    def test_defaults_resolve(self):
        cfg = config_from_dict(base_config())
        assert cfg.mode == "exact"
        assert cfg.phis == (math.pi / 2,) * 4
        assert cfg.parts == ("real", "imag")
        assert cfg.initial_state == "00"
        assert cfg.hamiltonian["model"] == "mixed-field-ising"

    def test_missing_required_field(self):
        with pytest.raises(ConfigError, match="'times'"):
            config_from_dict({k: v for k, v in base_config().items() if k != "times"})

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown field"):
            config_from_dict(base_config(phi=0.5))

    def test_observable_width(self):
        with pytest.raises(ConfigError, match="observable_a"):
            config_from_dict(base_config(observable_a="+Z"))

    def test_phi_broadcast_and_range(self):
        cfg = config_from_dict(base_config(phis=0.5))
        assert cfg.phis == (0.5,) * 4
        with pytest.raises(ConfigError, match="phis"):
            config_from_dict(base_config(phis=[0.5, 0.5]))
        with pytest.raises(ConfigError, match="phis"):
            config_from_dict(base_config(phis=3.2))

    def test_initial_state_forms(self):
        label = config_from_dict(base_config(initial_state="10")).initial_state_obj()
        assert label.density()
        assert (
            config_from_dict(base_config(initial_state="maximally-mixed"))
            .initial_state_obj()
            .matrix[0, 0]
            == 0.25
        )
        amp = [[1 / math.sqrt(2), 0], [0, 0], [0, 0], [1 / math.sqrt(2), 0]]
        pure = config_from_dict(base_config(initial_state=amp)).initial_state_obj()
        rho = pure.density()
        assert rho.matrix[0, 3] == pytest.approx(0.5)
        with pytest.raises(ConfigError, match="initial_state"):
            config_from_dict(base_config(initial_state="0"))
        with pytest.raises(ConfigError, match="initial_state"):
            config_from_dict(base_config(initial_state=[1.0, 1.0, 0.0, 0.0]))
        for bad in (float("nan"), ["a", 0], ["1", 0], [True, 0]):
            with pytest.raises(ConfigError, match="initial_state"):
                config_from_dict(base_config(initial_state=[bad, 0, 0, 0]))

    def test_initial_state_check_builds_no_density(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("density matrix built")

        monkeypatch.setattr(DensityMatrix, "__post_init__", forbidden)
        amp = [[1 / math.sqrt(2), 0], [0, 0], [0, 0], [1 / math.sqrt(2), 0]]
        for state in ("10", "maximally-mixed", amp):
            config_from_dict(base_config(initial_state=state))
        with pytest.raises(ConfigError, match="initial_state': state vector norm"):
            config_from_dict(base_config(initial_state=[1.0, 1.0, 0.0, 0.0]))

    def test_hamiltonian_terms(self):
        cfg = config_from_dict(
            base_config(hamiltonian={"terms": [[0.5, "+ZZ"], [-1.0, "+XI"]]})
        )
        ham = cfg.hamiltonian_obj()
        assert len(ham.terms) == 2
        with pytest.raises(ConfigError, match="hamiltonian"):
            config_from_dict(base_config(hamiltonian={"terms": [[0.5, "+Z"]]}))
        with pytest.raises(ConfigError, match="hamiltonian"):
            config_from_dict(base_config(hamiltonian={"model": "heisenberg"}))
        with pytest.raises(ConfigError, match="hamiltonian"):
            config_from_dict(base_config(hamiltonian={"terms": [[float("nan"), "+ZZ"]]}))
        with pytest.raises(ConfigError, match="hamiltonian"):
            config_from_dict(
                base_config(hamiltonian={"model": "mixed-field-ising", "J": float("inf")})
            )

    def test_times_validation(self):
        with pytest.raises(ConfigError, match="times"):
            config_from_dict(base_config(times=[]))
        with pytest.raises(ConfigError, match="times"):
            config_from_dict(base_config(times=[0.0, float("inf")]))
        with pytest.raises(ConfigError, match="times"):
            config_from_dict(base_config(times=[10**400]))

    def test_register_budget(self, tmp_path, capsys):
        def wide(n, reversal):
            return base_config(
                system_size=n,
                observable_a="+Z" + "I" * (n - 1),
                observable_b="+" + "I" * (n - 1) + "Z",
                reversal=reversal,
            )

        # the clock ancilla takes no qubit of the budget
        assert config_from_dict(wide(10, "clock-ancilla")).system_size == 10
        for reversal in ("direct-dagger", "clock-ancilla"):
            with pytest.raises(ConfigError, match="system_size"):
                config_from_dict(wide(11, reversal))
        cfg_path = write_config(tmp_path, wide(11, "clock-ancilla"))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "system_size" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            dict(phis=0.5),
            dict(phis=[0.3, 0.4, 1, math.pi / 2]),
            dict(initial_state="10"),
            dict(initial_state="maximally-mixed"),
            dict(initial_state=[0.6, [0, 0.8], 0, [0.0, 0]]),
            dict(hamiltonian={"model": "mixed-field-ising", "J": 2, "g": 0.5}),
            dict(hamiltonian={"terms": [[1, "+ZZ"], [-0.5, "XI"]]}),
            dict(parts=["imag", "real", "imag"]),
        ],
    )
    def test_resolved_config_round_trips(self, extra):
        cfg = config_from_dict(base_config(**extra))
        assert config_from_dict(cfg.to_dict()) == cfg
        assert json.loads(cfg.to_json()) == cfg.to_dict()


class TestRunExperiment:
    def test_toc_trivial_values(self):
        cfg = config_from_dict(
            {
                "system_size": 2,
                "observable_a": "+ZI",
                "observable_b": "+ZI",
                "times": [0.0],
                "protocol": "toc",
                "initial_state": "00",
            }
        )
        rows = run_experiment(cfg)
        assert rows[0].re_value == pytest.approx(1.0, abs=1e-10)
        assert rows[0].im_value == pytest.approx(0.0, abs=1e-10)
        assert rows[0].re_stderr == 0.0 and rows[0].trials == 0

    def test_otoc_disjoint_t0_is_one(self):
        rows = run_experiment(config_from_dict(base_config()))
        assert rows[0].re_value == pytest.approx(1.0, abs=1e-10)

    def test_clock_ancilla_matches_direct(self):
        # the clock runs on its system propagator, so on the direct route
        def csv(**extra):
            cfg = base_config(observable_a="+XI", times=[0.0, 0.7, 1.9], **extra)
            return rows_to_csv(run_experiment(config_from_dict(cfg)))

        for initial_state in ("01", [0.6, [0, 0.8], 0, 0], "maximally-mixed"):
            for mode in ("exact", "sampled"):
                kw = dict(initial_state=initial_state, mode=mode, trials=300, seed=4)
                assert csv(reversal="clock-ancilla", **kw) == csv(**kw)

    # rows_to_csv text of small sampled runs: a sampled value depends only on
    # the drawn outcome strings and their alpha products, so these bytes do
    # not depend on the BLAS build.
    PINNED = {
        "label-toc": (
            dict(observable_a="+XII", protocol="toc", initial_state="010",
                 phis=[0.7, 1.1]),
            "0,-0.048769311276561665,0.09753862255312333,0.077941365133534252,"
            "0.077849580127312232,0.077893925164456368,sampled,500,5\n"
            "0.80000000000000004,0.020901133404240713,0.062703400212722138,"
            "0.077966321944065942,0.077921393929994892,0.077893925164456368,"
            "sampled,500,5\n"
            "1.6000000000000001,-0.15327497829776524,0.062703400212722138,"
            "0.077669442022133967,0.077921393929994892,0.077893925164456368,"
            "sampled,500,5\n",
        ),
        "mixed-otoc": (
            dict(observable_a="+ZII", protocol="otoc", initial_state="maximally-mixed",
                 phis=[math.pi / 2, 0.3, 0.9, 1.2]),
            "0,-0.3325816562989532,0.074157593744560754,0.41389173152747927,"
            "0.41495544886003838,0.41455355165162761,sampled,500,5\n"
            "0.80000000000000004,1.2247278123368228,0.59326074995648603,"
            "0.40284039056374144,0.41411800007736554,0.41455355165162761,"
            "sampled,500,5\n"
            "1.6000000000000001,0.11236390616841141,0.14831518748912151,"
            "0.41197011909304443,0.4149156086747553,0.41455355165162761,"
            "sampled,500,5\n",
        ),
        "clock-otoc": (
            dict(observable_a="+XII", protocol="otoc", initial_state="101",
                 reversal="clock-ancilla", phis=[0.4, 0.5, 0.6, 0.7]),
            "0,1.8272061205834147,1.6492035703403254,1.3122768238837812,"
            "1.316297094779378,1.3170468900058296,sampled,500,5\n"
            "0.80000000000000004,1.4738053555104882,2.1204045904375612,"
            "1.3137064870313537,1.3149442710974162,1.3170468900058296,"
            "sampled,500,5\n"
            "1.6000000000000001,0.41360306029170735,2.3560051004861791,"
            "1.3168462824160314,1.3141403731137284,1.3170468900058296,"
            "sampled,500,5\n",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_sampled_csv_is_pinned(self, name):
        extra, body = self.PINNED[name]
        cfg = base_config(system_size=3, observable_b="+IIZ", times=[0.0, 0.8, 1.6],
                          mode="sampled", trials=500, seed=5, **extra)
        csv = rows_to_csv(run_experiment(config_from_dict(cfg)))
        header = "t,re_value,im_value,re_stderr,im_stderr,rms_bound,mode,trials,seed\n"
        assert csv == header + body

    def test_parts_subset(self):
        rows = run_experiment(config_from_dict(base_config(parts=["imag"])))
        assert rows[0].re_value is None
        assert rows[0].im_value is not None
        csv = rows_to_csv(rows)
        assert ",," in csv  # empty re column

    def test_sampled_within_reported_error(self):
        # sampled rows stay within 5 reported stderrs of exact for >= 95% of
        # rows over 20 seeds; mixed state and phi < pi/2 keep every outcome
        # string populated so the sample stderr is a consistent scale
        common = dict(
            times=[1.5, 3.0], parts=["real"], phis=1.0, initial_state="maximally-mixed"
        )
        cfg_exact = config_from_dict(base_config(**common))
        exact = {r.t: r.re_value for r in run_experiment(cfg_exact)}
        total = 0
        hits = 0
        for seed in range(20):
            cfg = config_from_dict(
                base_config(mode="sampled", trials=3000, seed=seed, **common)
            )
            for row in run_experiment(cfg):
                total += 1
                if abs(row.re_value - exact[row.t]) <= 5 * row.re_stderr:
                    hits += 1
        assert hits / total >= 0.95

    def test_seeds_apart_by_2_to_32_give_distinct_rows(self):
        rows = {}
        for seed in (0, 2**32, 2**64):
            cfg = config_from_dict(
                base_config(times=[0.4], mode="sampled", trials=300, seed=seed,
                            initial_state="maximally-mixed", phis=1.0)
            )
            row = run_experiment(cfg)[0]
            rows[seed] = (row.re_value, row.im_value)
        assert len(set(rows.values())) == 3

    def test_sampled_stderr_and_bound_are_scaled(self):
        cfg = config_from_dict(
            base_config(times=[0.4], parts=["real"], mode="sampled", trials=500)
        )
        row = run_experiment(cfg)[0]
        n_trials = 500
        raw_bound = 1.0 / math.sqrt(n_trials * math.prod([1.0] * 4))
        assert row.rms_bound == pytest.approx(2 * raw_bound)
        assert row.trials == 500


class TestCliProcess:
    def test_run_writes_csv_and_sidecar(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "out.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("t,re_value,im_value")
        sidecar = tmp_path / "out_config.json"
        echoed = json.loads(sidecar.read_text())
        assert echoed["mode"] == "exact"
        assert len(echoed["phis"]) == 4

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(mode="sampled", trials=300, seed=3))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sidecar_round_trips(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(mode="sampled", trials=200, seed=5))
        out1 = tmp_path / "first.csv"
        main(["run", "--config", str(cfg_path), "--out", str(out1)])
        sidecar = tmp_path / "first_config.json"
        out2 = tmp_path / "second.csv"
        assert main(["run", "--config", str(sidecar), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_flag_overrides_land_in_echo(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        out = tmp_path / "o.csv"
        main(
            [
                "run", "--config", str(cfg_path), "--out", str(out),
                "--mode", "sampled", "--trials", "123", "--seed", "9",
            ]
        )
        echoed = json.loads((tmp_path / "o_config.json").read_text())
        assert echoed["mode"] == "sampled"
        assert echoed["trials"] == 123
        assert echoed["seed"] == 9

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(protocol="qtoc"))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "protocol" in capsys.readouterr().err

    def test_non_finite_coefficient_is_one_line_config_error(self, tmp_path, capsys):
        cfg = base_config(hamiltonian={"terms": [[float("nan"), "+ZZ"]]})
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("seqmeas: config error: field 'hamiltonian'")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_json_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"system_size": 2,\n  "oops"\n}')
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 3" in err and "column" in err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{", b'{"system_size": 1' + b"0" * 5000 + b"}"]
    )
    def test_unparsable_file_exits_1(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("seqmeas: config error: ")
        assert err.count("\n") == 1

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])  # --config is required
        assert exc.value.code == 1

    def test_numerical_invariant_exits_2(self, tmp_path, capsys, monkeypatch):
        def boom(cfg):
            raise NumericalInvariantError("sequence probabilities sum to 0.5, not 1")

        monkeypatch.setattr(cli_mod, "run_experiment", boom)
        cfg_path = write_config(tmp_path, base_config())
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "probabilities" in capsys.readouterr().err


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        assert main(["verify", "--samples", "10", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_report_is_deterministic(self):
        r1 = format_report(run_suites(samples=10, seed=2), 10, 2)
        r2 = format_report(run_suites(samples=10, seed=2), 10, 2)
        assert r1 == r2

    def test_corrupted_alpha_fails_povm_suite(self):
        def corrupted(phi, outcome):
            return 1.0 / math.sin(phi)  # drops the alternating sign

        rng = np.random.default_rng(0)
        result = povm_identity_suite(20, rng, alpha_fn=corrupted)
        assert not result.passed

    def test_corrupted_alpha_fails_overall(self, capsys):
        def corrupted(phi, outcome):
            return -((-1.0) ** outcome) / math.sin(phi) * 1.001

        results = run_suites(samples=10, seed=0, alpha_fn=corrupted)
        assert not all(r.passed for r in results)

    def test_bad_samples_exits_1(self, capsys):
        assert main(["verify", "--samples", "0"]) == 1

    def test_negative_seed_exits_1(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err == "seqmeas: error: --seed must be >= 0\n"

    def test_time_reversal_suite_diagonalizes_twice_per_instance(self, monkeypatch):
        calls = []
        original = dynamics_mod._checked_spectrum

        def counting(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(dynamics_mod, "_checked_spectrum", counting)
        result = verify_mod.time_reversal_suite(30, np.random.default_rng(0))
        assert result.passed and result.samples == 3
        assert len(calls) == 2 * result.samples

    def test_phi_independence_takes_both_parts_from_one_call(self, monkeypatch):
        calls = []
        original = verify_mod._heisenberg_protocol

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(verify_mod, "_heisenberg_protocol", counting)
        result = verify_mod.phi_independence_suite(10, np.random.default_rng(0))
        assert result.passed
        # one call per correlator (TOC and OTOC) per strength draw
        assert len(calls) == 2 * result.samples
        assert all(call[5] == ("real", "imag") for call in calls)
