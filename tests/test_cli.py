import csv
import ctypes
import json
import signal

import numpy as np
import pytest

from bsdelab import cli, nets
from bsdelab.cli import (
    CheckResult,
    ExperimentConfig,
    RunReport,
    emit_report,
    main,
    parse_report,
    run_experiment,
)
from bsdelab.errors import ConfigError, ParameterError


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def saved_net(tmp_path, **layout):
    """The path of a Free net with the given layout, saved under tmp_path."""
    path = tmp_path / "net.txt"
    nets.save_driver_net(nets.build_driver("Free", nets.NetLayout(**layout)), path)
    return str(path)


SMALL_ORACLE = {
    "kind": "oracle-suite",
    "seed": 7,
    "grid": {"T": 1.0, "n_steps": 15},
    "n_paths": 8_000,
}


class TestConfigValidation:
    def test_missing_seed_names_field(self):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict({"kind": "solve"})
        assert info.value.field == "seed"

    def test_missing_kind(self):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict({"seed": 1})
        assert info.value.field == "kind"

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"kind": "nope", "seed": 1})

    def test_non_integer_seed(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"kind": "solve", "seed": "abc"})

    def test_bool_seed_rejected(self, tmp_path, capsys):
        # bool is a subclass of int, so true used to pass as seed 1.
        cfg = write_config(tmp_path, dict(SMALL_ORACLE, seed=True, out=str(tmp_path / "out")))
        assert main(["verify", "--config", cfg]) == 2
        assert "seed" in capsys.readouterr().err

    def test_missing_seed_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": "oracle-suite",
                                      "out": str(tmp_path / "out")})
        assert main(["verify", "--config", cfg]) == 2
        assert "seed" in capsys.readouterr().err

    def test_subcommand_kind_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(SMALL_ORACLE, out=str(tmp_path / "out")))
        assert main(["merton", "--config", cfg]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "absent.json")]) == 2

    def test_unreadable_driver_path(self, tmp_path, capsys):
        truncated = tmp_path / "truncated.txt"
        net = nets.build_driver("Free", nets.NetLayout(hidden=(4,)), init_seed=1)
        truncated.write_text("\n".join(nets.emit_driver_net(net).splitlines()[:2]) + "\n")
        for path in (tmp_path / "absent.txt", truncated):
            cfg = write_config(tmp_path, {
                "kind": "solve", "seed": 1, "out": str(tmp_path / "out"), "n_paths": 500,
                "grid": {"T": 1.0, "n_steps": 4}, "driver": {"name": "net", "path": str(path)},
            })
            assert main(["solve", "--config", cfg]) == 2
            assert "driver.path" in capsys.readouterr().err

    def test_missing_dataset_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": "train", "seed": 1, "out": str(tmp_path / "out"),
                                      "dataset_csv": str(tmp_path / "absent.csv")})
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "dataset_csv" in err
        assert err.count("config error") == 1

    def test_missing_observations_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": "calibrate", "seed": 1,
                                      "out": str(tmp_path / "out"),
                                      "observations_csv": str(tmp_path / "absent.csv")})
        assert main(["calibrate", "--config", cfg]) == 2
        assert "observations_csv" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc, dotted", [
        ("solve", {"kind": "solve", "n_path": 500}, "n_path"),
        ("solve", {"kind": "solve", "grid": {"n_step": 5}}, "grid.n_step"),
        ("merton", {"kind": "merton", "params": {"sgima": 0.2}}, "params.sgima"),
        ("calibrate", {"kind": "calibrate", "search": {"lo": 0.1}}, "search.lo"),
        ("meanfield", {"kind": "meanfield-lln", "model_params": {"rat": 0.1}},
         "model_params.rat"),
        ("solve", {"kind": "solve", "driver": {"name": "entropic", "tehta": 2.0}},
         "driver.tehta"),
        ("solve", {"kind": "solve", "forward": {"name": "gbm", "dim": 2}}, "forward.dim"),
        ("solve", {"kind": "solve", "terminal": {"name": "call", "scale": 2.0}},
         "terminal.scale"),
        ("meanfield", {"kind": "meanfield-clt", "basis_degree": 3}, "basis_degree"),
        ("meanfield", {"kind": "meanfield-lln", "u0_std": 0.5}, "u0_std"),
        ("train", {"kind": "train", "driver": {"name": "zero"}}, "driver"),
        ("solve", {"kind": "solve", "driver": {"name": "net", "path": "net.txt",
                                               "hidden": [4]}}, "driver.hidden"),
        ("train", {"kind": "train", "dataset_csv": "d.csv", "scales": [1.0]}, "scales"),
        ("calibrate", {"kind": "calibrate", "observations_csv": "o.csv", "theta_true": 0.2},
         "theta_true"),
    ], ids=["top-level", "grid", "params", "search", "model_params", "driver", "forward",
            "terminal", "other-kind", "other-meanfield-kind", "block-of-another-kind",
            "driver-path-with-layout", "dataset-with-scales", "observations-with-theta"])
    def test_unread_key_exits_2_naming_its_path(self, tmp_path, capsys, command, doc, dotted):
        cfg = write_config(tmp_path, dict(doc, seed=1, out=str(tmp_path / "out")))
        assert main([command, "--config", cfg]) == 2
        assert f"config error at '{dotted}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, doc, dotted", [
        ("solve", {"kind": "solve", "n_paths": "500"}, "n_paths"),
        ("verify", {"kind": "oracle-suite", "n_paths": True}, "n_paths"),
        ("train", {"kind": "train", "scales": 1.0}, "scales"),
        ("solve", {"kind": "solve", "driver": {"name": "net", "n2_monotone": 1}},
         "driver.n2_monotone"),
        ("merton", {"kind": "merton", "params": {"gamma": 2.0}}, "params.gamma"),
        ("solve", {"kind": "solve", "grid": {"T": -1}}, "grid.T"),
        ("solve", {"kind": "solve", "driver": {"name": "net", "hidden": [0]}}, "driver"),
        ("solve", {"kind": "solve", "driver": {"name": "net", "hidden": [[1]]}},
         "driver.hidden.0"),
        ("solve", {"kind": "solve", "n_paths": -5}, "n_paths"),
        ("verify", {"kind": "verify-axioms", "n_paths": 0}, "n_paths"),
        ("train", {"kind": "train", "n_paths": 0}, "n_paths"),
        ("merton", {"kind": "merton", "n_space": -3}, "n_space"),
        ("merton", {"kind": "merton", "n_space": 2}, "n_space"),
        ("merton", {"kind": "merton", "n_space": 3}, "n_space"),
        ("calibrate", {"kind": "calibrate", "n_space": 2}, "n_space"),
        ("meanfield", {"kind": "meanfield-lln", "N_list": [True, 32]}, "N_list.0"),
        ("train", {"kind": "train", "scales": [0.5, float("nan")]}, "scales.1"),
        ("calibrate", {"kind": "calibrate", "search": {"theta_hi": float("nan")}},
         "search.theta_hi"),
        ("merton", {"kind": "merton", "params": {"sigma": float("nan")}}, "params.sigma"),
        ("merton", {"kind": "merton", "theta_list": [float("nan")]}, "theta_list.0"),
        ("merton", {"kind": "merton", "params": {"sigma": 10 ** 400}}, "params.sigma"),
        ("calibrate", {"kind": "calibrate", "search": {"theta_lo": 0.5, "theta_hi": 0.5}},
         "search.theta_hi"),
        ("calibrate", {"kind": "calibrate", "search": {"theta_lo": -1.0}}, "search.theta_lo"),
        ("calibrate", {"kind": "calibrate", "theta_true": -0.5}, "theta_true"),
        ("merton", {"kind": "merton", "theta_list": [0.0]}, "theta_list"),
        ("merton", {"kind": "merton", "theta_list": [0.5, 0.25]}, "theta_list"),
        ("merton", {"kind": "merton", "theta_list": []}, "theta_list"),
        ("meanfield", {"kind": "meanfield-lln", "N_list": [0, 32]}, "N_list"),
        ("meanfield", {"kind": "meanfield-lln", "N_list": [32]}, "N_list"),
        ("meanfield", {"kind": "meanfield-clt", "N_list": []}, "N_list"),
        ("meanfield", {"kind": "meanfield-lln", "n_reference": 50}, "n_reference"),
        ("meanfield", {"kind": "meanfield-clt", "n_reference": 99}, "n_reference"),
        ("meanfield", {"kind": "meanfield-lln", "n_trials": 0}, "n_trials"),
        ("meanfield", {"kind": "meanfield-clt", "n_trials": 0}, "n_trials"),
        ("meanfield", {"kind": "meanfield-clt", "N_list": [16, 32]}, "N_list"),
        ("solve", {"kind": "solve", "driver": {"name": "net", "state_dim": 2}},
         "driver.state_dim"),
        ("solve", {"kind": "solve", "driver": {"name": "net", "z_dim": 2}}, "driver.z_dim"),
        ("solve", lambda tmp: {"kind": "solve", "driver": {
            "name": "net", "path": saved_net(tmp, state_dim=2)}}, "driver.path"),
        ("solve", {"kind": "solve", "forward": {"name": "brownian", "dim": 2},
                   "driver": {"name": "net", "state_dim": 2}}, "driver.z_dim"),
        ("solve", {"kind": "solve", "basis_degree": -1}, "basis_degree"),
        ("meanfield", {"kind": "meanfield-clt", "u0_std": -1.0}, "u0_std"),
        ("train", {"kind": "train", "loss_tol": -1.0}, "loss_tol"),
        ("verify", {"kind": "oracle-suite", "entropic_theta": 0.0, "n_paths": 500,
                    "grid": {"T": 1.0, "n_steps": 4}}, "entropic_theta"),
        ("train", {"kind": "train", "scales": []}, "scales"),
        ("train", {"kind": "train", "theta_true": 0.0}, "theta_true"),
        ("train", {"kind": "train", "max_iters": 0}, "max_iters"),
        ("train", {"kind": "train", "learning_rate": -0.4}, "learning_rate"),
        ("meanfield", {"kind": "meanfield-clt", "model_params": {"s0": 1e308}}, "model_params"),
    ], ids=["string-for-int", "bool-for-int", "number-for-list", "int-for-bool",
            "market-rejected", "grid-rejected", "layout-rejected", "nested-width",
            "negative-paths", "no-paths", "no-training-paths", "negative-space", "space-without-stencils",
            "space-without-interior", "calibrate-space-without-interior", "bool-element",
            "nan-element", "nan-bound", "nan-market", "nan-theta", "huge-market",
            "empty-bracket", "negative-bracket", "negative-theta-true", "zero-theta",
            "decreasing-thetas", "no-thetas", "no-particles",
            "one-lln-size", "no-clt-sizes", "small-lln-reference", "small-clt-reference",
            "no-lln-trials", "no-clt-trials", "two-clt-sizes", "net-state-dim", "net-z-dim",
            "loaded-net-state-dim", "net-z-dim-of-2d-noise", "negative-basis-degree",
            "negative-u0-std", "negative-loss-tol", "zero-entropic-theta", "no-scales",
            "zero-theta-true", "no-iterations", "negative-learning-rate", "overflowing-s0"])
    def test_rejected_value_exits_2_naming_its_path(self, tmp_path, capsys, command, doc,
                                                    dotted):
        doc = doc(tmp_path) if callable(doc) else doc
        cfg = write_config(tmp_path, dict(doc, seed=1, out=str(tmp_path / "out")))
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"config error at '{dotted}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tol", [0.0, -1e-3])
    def test_a_search_tolerance_that_cannot_end_exits_2(self, tmp_path, capsys, tol):
        # The golden-section loop never ends for tol <= 0; the alarm turns a
        # hang into a failure.
        def hang(signum, frame):
            raise TimeoutError("calibrate did not return within 10 s")

        cfg = write_config(tmp_path, {"kind": "calibrate", "seed": 1, "n_space": 20,
                                      "search": {"tol": tol}, "out": str(tmp_path / "out")})
        previous = signal.signal(signal.SIGALRM, hang)
        signal.setitimer(signal.ITIMER_REAL, 10.0)
        try:
            code = main(["calibrate", "--config", cfg])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 2
        assert "config error at 'search.tol': tol must be" in capsys.readouterr().err

    def test_every_alias_is_a_key_some_kind_reads(self):
        options = [ExperimentConfig.from_dict({"kind": kind, "seed": 1}).options
                   for kind in cli._KINDS]
        for name, keys in cli._ALIASES.items():
            read = {key for opt in options for key in cli._keys_of(name, opt)}
            assert set(keys) <= read, name

    @pytest.mark.parametrize("name", ["nope", "name"])   # "name" names three blocks
    def test_a_name_at_no_key_or_several_is_raised_unchanged(self, tmp_path, monkeypatch,
                                                             name):
        error = ParameterError(name, f"{name} is out of range")

        def run(config, out_dir):
            raise error

        monkeypatch.setitem(cli._KINDS, "solve", cli._KINDS["solve"]._replace(run=run))
        config = ExperimentConfig.from_dict({
            "kind": "solve", "seed": 1, "out": str(tmp_path / "out"),
            "forward": {"name": "gbm"}, "driver": {"name": "net"}, "terminal": {"name": "call"}})
        with pytest.raises(ParameterError) as info:
            run_experiment(config)
        assert info.value is error

    def test_unknown_name_of_a_block(self):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict({"kind": "solve", "seed": 1, "driver": {"name": "nope"}})
        assert info.value.field == "driver.name"

    def test_options_are_resolved_with_defaults(self):
        config = ExperimentConfig.from_dict({"kind": "fbsde", "seed": 1, "grid": {"T": 0.1}})
        assert config.options["grid"] == {"T": 0.1, "n_steps": 20}
        assert config.options["n_paths"] == 20_000
        assert config.to_dict() == {"kind": "fbsde", "seed": 1, "out": "runs",
                                    "grid": {"T": 0.1}}
        config = ExperimentConfig.from_dict({"kind": "solve", "seed": 1,
                                             "driver": {"name": "net"}})
        assert config.options["driver"]["hidden"] == nets.NetLayout().hidden
        config = ExperimentConfig.from_dict({"kind": "meanfield-clt", "seed": 1,
                                             "model": "independent"})
        assert config.options["model_params"] == {"rate": 0.5, "sigma": 0.5, "m0": 0.0,
                                                  "s0": 1.0}


class TestReports:
    def sample_report(self):
        return RunReport(
            config={"kind": "solve", "seed": 1, "out": "runs"},
            config_hash="ab" * 32,
            checks=(
                CheckResult("alpha", True, 1.0, 0.1, "fine"),
                CheckResult("beta", False, 2.0, 0.1),
            ),
            artifacts=("a.csv",),
            timings={"wall_seconds": 0.5},
        )

    def test_json_round_trip(self):
        report = self.sample_report()
        back = parse_report(emit_report(report, "json"))
        assert back == report

    def test_text_format_contract(self):
        text = emit_report(self.sample_report(), "text")
        assert text.count("[FAIL]") == 1
        assert text.count("[PASS]") == 1
        assert "nonzero" in text

    def test_empty_checks_document(self):
        report = RunReport(config={"kind": "solve", "seed": 0, "out": "r"},
                           config_hash="00", checks=(), artifacts=(), timings={})
        text = emit_report(report, "text")
        assert "checks: 0" in text
        assert "[" not in text.replace("[PASS]", "").replace("[FAIL]", "")
        assert parse_report(emit_report(report, "json")) == report

    def test_a_check_on_a_value_that_is_not_finite_cannot_pass(self):
        for value in (float("nan"), float("inf"), -np.inf):
            assert not CheckResult("c", True, value, 0.0).passed
        assert CheckResult("c", True, 1.0, float("inf")).passed

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(self.sample_report(), "yaml")

    def test_malformed_report_exits_2(self, tmp_path, capsys):
        good = json.loads(emit_report(self.sample_report(), "json"))
        extra_field = dict(good, checks=[dict(good["checks"][0], extra=1)])
        missing_key = {k: v for k, v in good.items() if k != "timings"}
        mistyped = [dict(good, checks=[dict(good["checks"][0], **{key: value})])
                    for key, value in (("value", "v"), ("tolerance", True), ("passed", 1),
                                       ("name", 3), ("detail", None))]
        for doc in ([1, 2], extra_field, missing_key, *mistyped):
            text = json.dumps(doc)
            with pytest.raises(ValueError):
                parse_report(text)
            path = tmp_path / "report.json"
            path.write_text(text)
            assert main(["report", "--config", str(path)]) == 2
            assert "config error" in capsys.readouterr().err


class TestRunExperiment:
    def test_oracle_suite_passes(self, tmp_path):
        config = ExperimentConfig.from_dict(
            dict(SMALL_ORACLE, out=str(tmp_path / "run")))
        report = run_experiment(config)
        assert report.passed
        assert len(report.checks) == 3

    def test_reproducible_reports(self, tmp_path):
        config = ExperimentConfig.from_dict(
            dict(SMALL_ORACLE, out=str(tmp_path / "run")))
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.config_hash == b.config_hash
        assert a.checks == b.checks

    def test_config_hash_integrity(self, tmp_path):
        import hashlib
        config = ExperimentConfig.from_dict(
            dict(SMALL_ORACLE, out=str(tmp_path / "run")))
        report = run_experiment(config)
        rehash = hashlib.sha256(
            json.dumps(report.config, sort_keys=True).encode()).hexdigest()
        assert rehash == report.config_hash

    def test_oracle_suite_factors_each_step_once(self, tmp_path, factorizations):
        config = ExperimentConfig.from_dict(dict(SMALL_ORACLE, out=str(tmp_path / "run")))
        run_experiment(config)
        assert sorted(factorizations) == list(range(15))

    def test_verify_axioms_simulates_and_factors_once(self, tmp_path, factorizations,
                                                       simulations):
        config = ExperimentConfig.from_dict({
            "kind": "verify-axioms", "seed": 3, "out": str(tmp_path / "run"),
            "n_paths": 2_000, "grid": {"T": 1.0, "n_steps": 8},
        })
        report = run_experiment(config)
        assert len(report.checks) == 5
        assert len(simulations) == 1
        assert sorted(factorizations) == list(range(8))

    @pytest.mark.parametrize("n_steps", [5, 7])
    def test_verify_axioms_splits_an_odd_grid_at_a_node(self, tmp_path, n_steps):
        config = ExperimentConfig.from_dict({
            "kind": "verify-axioms", "seed": 3, "out": str(tmp_path / "run"),
            "n_paths": 2_000, "grid": {"T": 1.0, "n_steps": n_steps},
        })
        checks = {c.name: c for c in run_experiment(config).checks}
        assert np.isfinite(checks["dynamic_consistency"].value)

    def test_solve_kind_writes_artifacts(self, tmp_path):
        config = ExperimentConfig.from_dict({
            "kind": "solve", "seed": 3, "out": str(tmp_path / "run"),
            "n_paths": 2_000, "grid": {"T": 1.0, "n_steps": 8},
            "driver": {"name": "entropic", "theta": 1.0},
        })
        report = run_experiment(config)
        assert report.passed
        assert len(report.artifacts) == 1
        assert (tmp_path / "run" / "solution.csv").exists()


def round_trips(cell):
    """Whether cell is an int literal or the shortest repr of a float."""
    for parse in (int, float):
        try:
            if repr(parse(cell)) == cell:
                return True
        except ValueError:
            pass
    return False


SMALL_GRID = {"T": 1.0, "n_steps": 5}
SMALL_MEANFIELD = {"grid": SMALL_GRID, "N_list": [16, 32], "n_trials": 2, "n_reference": 256}
SMALL_SEARCH = {"theta_lo": 0.0, "theta_hi": 1.0, "tol": 0.05}


class TestMainEntry:
    @pytest.mark.parametrize("command, doc", [
        ("solve", {"kind": "solve", "grid": SMALL_GRID, "n_paths": 500,
                   "driver": {"name": "entropic"}}),
        ("train", {"kind": "train", "grid": SMALL_GRID, "n_paths": 300, "scales": [0.5, 1.0],
                   "max_iters": 2}),
        ("meanfield", dict(SMALL_MEANFIELD, kind="meanfield-lln")),
        ("meanfield", dict(SMALL_MEANFIELD, kind="meanfield-clt", N_list=[16, 32, 64])),
        ("merton", {"kind": "merton", "n_space": 20, "theta_list": [0.5]}),
        ("calibrate", {"kind": "calibrate", "n_space": 20, "search": SMALL_SEARCH}),
    ], ids=["solve", "train", "meanfield-lln", "meanfield-clt", "merton", "calibrate"])
    def test_csv_artifacts_read_back_bit_for_bit(self, tmp_path, capsys, command, doc):
        cfg = write_config(tmp_path, dict(doc, seed=1, out=str(tmp_path / "out")))
        assert main([command, "--config", cfg]) in (0, 1)   # 1: a check fails at this size
        paths = sorted((tmp_path / "out").glob("*.csv"))
        assert paths
        for path in paths:
            with open(path, newline="") as fh:
                _, *rows = csv.reader(fh)
            assert rows
            assert [cell for row in rows for cell in row if cell and not round_trips(cell)] == []

    def test_full_run_writes_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(SMALL_ORACLE, out=str(tmp_path / "out")))
        code = main(["verify", "--config", cfg, "--format", "text"])
        assert code == 0
        saved = tmp_path / "out" / "report.json"
        assert saved.exists()
        report = parse_report(saved.read_text())
        assert report.passed

    def test_seed_override_changes_hash(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(SMALL_ORACLE, out=str(tmp_path / "out")))
        main(["verify", "--config", cfg])
        first = parse_report((tmp_path / "out" / "report.json").read_text())
        main(["verify", "--config", cfg, "--seed", "8"])
        second = parse_report((tmp_path / "out" / "report.json").read_text())
        assert first.config_hash != second.config_hash

    def test_report_subcommand(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(SMALL_ORACLE, out=str(tmp_path / "out")))
        main(["verify", "--config", cfg])
        capsys.readouterr()
        code = main(["report", "--config", str(tmp_path / "out" / "report.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out

    def test_threads_flag_sets_the_blas_thread_count(self, tmp_path, capsys):
        get = cli._openblas_function("scipy_openblas_get_num_threads64_",
                                     "openblas_get_num_threads")
        get.argtypes = []
        get.restype = ctypes.c_int
        before = get()
        cfg = write_config(tmp_path, dict(SMALL_ORACLE, out=str(tmp_path / "out")))
        try:
            cli._set_blas_threads(2)
            assert main(["verify", "--config", cfg, "--threads", "1"]) == 0
            assert get() == 1
        finally:
            cli._set_blas_threads(before)

    def test_threads_flag_rejects_bad_counts(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, dict(SMALL_ORACLE, out=str(tmp_path / "out")))
        assert main(["verify", "--config", cfg, "--threads", "0"]) == 2
        assert "threads" in capsys.readouterr().err
        monkeypatch.setattr(cli, "_openblas_function", lambda *names: None)
        assert main(["verify", "--config", cfg, "--threads", "1"]) == 2
        assert "OpenBLAS" in capsys.readouterr().err

    def test_fbsde_numerical_failure_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kind": "fbsde", "seed": 2, "out": str(tmp_path / "out"),
            "epsilon": 0.1, "grid": {"T": 50.0, "n_steps": 40}, "n_paths": 1_000,
        })
        assert main(["fbsde", "--config", cfg]) == 3

    # In-process under the suite's warnings-as-errors filter: a blow-up must
    # reach the exit code through its typed error alone, with no warning.
    @pytest.mark.parametrize("command, doc, error", [
        ("meanfield", dict(SMALL_MEANFIELD, kind="meanfield-clt", N_list=[16, 32, 64],
                           model_params={"c": 1e200}), "non-finite state"),
        ("meanfield", dict(SMALL_MEANFIELD, kind="meanfield-lln", model_params={"c": 1e200}),
         "non-finite state"),
        ("solve", {"kind": "solve", "grid": SMALL_GRID, "n_paths": 500,
                   "forward": {"name": "gbm", "mu": 1e300}}, "non-finite state"),
        ("solve", {"kind": "solve", "grid": SMALL_GRID, "n_paths": 500,
                   "driver": {"name": "entropic", "theta": 1e307}}, "non-finite values at step"),
    ], ids=["meanfield-clt", "meanfield-lln", "forward", "backward"])
    def test_a_diverging_run_exits_3_without_a_warning(self, tmp_path, capsys, command, doc,
                                                       error):
        cfg = write_config(tmp_path, dict(doc, seed=1, out=str(tmp_path / "out")))
        assert main([command, "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert f"numerical failure: {error}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, key, header, row, named", [
        ("calibrate", "observations_csv", "t,x,allocation", "0.0,1.0,nan", "allocation"),
        ("train", "dataset_csv", "record_id,terminal_kind,param,observed_value",
         "a,scaled_state,nan,0.5", "param of record 'a'"),
    ], ids=["observations", "dataset"])
    def test_a_nan_number_in_a_csv_exits_2_at_its_key(self, tmp_path, capsys, command, key,
                                                      header, row, named):
        path = tmp_path / "input.csv"
        path.write_text(f"{header}\n{row}\n")
        cfg = write_config(tmp_path, {"kind": command, "seed": 1, "out": str(tmp_path / "out"),
                                      key: str(path)})
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"config error at '{key}': {named} must be finite reals" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["runs", "runs/out", "runs/a/out"])
    def test_a_missing_csv_removes_only_the_directories_the_run_made(self, tmp_path, capsys,
                                                                     out):
        (tmp_path / "runs").mkdir()
        (tmp_path / "runs" / "kept.txt").write_text("")
        cfg = write_config(tmp_path, {"kind": "calibrate", "seed": 1, "out": str(tmp_path / out),
                                      "observations_csv": str(tmp_path / "missing.csv")})
        assert main(["calibrate", "--config", cfg]) == 2
        assert "config error at 'observations_csv'" in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == ["kept.txt"]
