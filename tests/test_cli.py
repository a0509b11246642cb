import ctypes
import json

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
from bsdelab.errors import ConfigError


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
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

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(self.sample_report(), "yaml")


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


class TestMainEntry:
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
