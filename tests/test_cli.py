from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from chainlogic import __version__, cli, hardy
from chainlogic.cli import (
    EXIT_INCONSISTENT,
    EXIT_IO,
    EXIT_NOT_HARDY,
    EXIT_OK,
    EXIT_SOFTWARE,
    EXIT_USAGE,
    build_parser,
    load_config,
    main,
)
from chainlogic.errors import ConfigError
from chainlogic.hardy import DEFAULT_CHOICE_WEIGHTS, HardyAmplitudes

ROOT3 = 0.5773502691896258
ROOT = Path(__file__).resolve().parent.parent


def _schema(name: str) -> dict:
    text = (resources.files("chainlogic") / "schemas" / name).read_text()
    return json.loads(text)


REPORT_VALIDATOR = jsonschema.Draft202012Validator(_schema("report.schema.json"))
TREE_VALIDATOR = jsonschema.Draft202012Validator(_schema("tree.schema.json"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_from(out: str) -> dict:
    obj = json.loads(out)
    REPORT_VALIDATOR.validate(obj)
    return obj


@pytest.fixture()
def write_config(tmp_path):
    def write(data, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)
    return write


@pytest.fixture()
def particle_config(write_config):
    return write_config({"schema": 1, "mode": "particle"})


class TestExitCodes:
    def test_demo_family_is_inconsistent(self, capsys):
        code, out, _ = run_cli(capsys, "consistency", "--demo", "xzx")
        assert code == EXIT_INCONSISTENT
        assert "verdict: inconsistent" in out
        assert "1.250000e-01" in out
        assert "between:" in out

    def test_scenario_tree_is_consistent(self, capsys, particle_config):
        code, out, _ = run_cli(capsys, "consistency", "--config",
                               particle_config)
        assert code == EXIT_OK
        assert "verdict: consistent" in out
        assert "between:" not in out

    def test_hardy_default_scenario(self, capsys):
        code, out, _ = run_cli(capsys, "hardy")
        assert code == EXIT_OK
        assert "confirmed" in out

    def test_hardy_degenerate_amplitudes(self, capsys, write_config):
        root2 = 0.7071067811865476
        path = write_config({"amplitudes": [root2, 0.0, root2],
                             "mode": "particle"})
        code, out, _ = run_cli(capsys, "hardy", "--config", path)
        assert code == EXIT_NOT_HARDY
        assert "FAILED" in out

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "hardy", "--config",
                               str(tmp_path / "nope.json"))
        assert code == EXIT_IO
        assert "i/o error" in err

    def test_invalid_json_config(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "hardy", "--config", str(path))
        assert code == EXIT_USAGE
        assert "config error" in err

    def test_unknown_config_key(self, capsys, write_config):
        path = write_config({"amplitude": [ROOT3, ROOT3, ROOT3]})
        code, _, err = run_cli(capsys, "hardy", "--config", path)
        assert code == EXIT_USAGE
        assert "unknown config keys" in err

    def test_unknown_mode(self, capsys, write_config):
        path = write_config({"mode": "classical"})
        code, _, err = run_cli(capsys, "hardy", "--config", path)
        assert code == EXIT_USAGE

    def test_unnormalized_amplitudes_refused(self, capsys, write_config):
        path = write_config({"amplitudes": [0.5, 0.5, 0.5]})
        code, _, err = run_cli(capsys, "hardy", "--config", path)
        assert code == EXIT_USAGE
        assert "refusing to rescale" in err

    @pytest.mark.parametrize("literal", [
        "[NaN, 0.5, 0.5]", "[0.5, [0.5, Infinity], 0.5]", "[-Infinity, 0.5, 0.5]",
    ])
    def test_non_finite_amplitudes_refused(self, capsys, tmp_path, literal):
        # Python's json reads the NaN and Infinity literals as floats
        path = tmp_path / "config.json"
        path.write_text('{"amplitudes": %s}' % literal)
        code, out, err = run_cli(capsys, "hardy", "--config", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert "must be finite" in err

    def test_prune_tolerance_that_empties_the_tree(self, capsys, write_config):
        path = write_config({"tolerances": {"prune": 0.2}})
        code, out, err = run_cli(capsys, "hardy", "--config", path)
        assert code == 1
        assert out == ""
        assert "pruning removed the entire tree" in err

    @pytest.mark.parametrize("weights, side", [
        ([[1.0, 0.0], [0.5, 0.5]], "L"),
        ([[0.5, 0.5], [0.0, 1.0]], "R"),
    ])
    def test_zero_choice_weight_refused(self, capsys, write_config, weights,
                                        side):
        path = write_config({"choice_weights": weights, "mode": "particle"})
        code, out, err = run_cli(capsys, "hardy", "--json", "--config", path)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"side {side}" in err

    @pytest.mark.parametrize("command", [("hardy",), ("counterfactual", "--both")],
                             ids=["hardy", "counterfactual"])
    def test_setting_weights_that_pruning_would_erase_refused(
            self, capsys, write_config, command):
        # every ML1 branch weighs at most 1e-13 * 0.5, below the 1e-12 prune
        # tolerance: hardy used to confirm the pattern beside a violated
        # no-signaling check, counterfactual --both to call the premise vacuous
        path = write_config({"choice_weights": [[1e-13, 0.9999999999999],
                                                [0.5, 0.5]],
                             "mode": "particle"})
        code, out, err = run_cli(capsys, *command, "--config", path)
        assert code == EXIT_USAGE
        assert out == ""
        assert "5e-14" in err and "1e-12" in err
        assert "prune tolerance" in err

    @pytest.mark.parametrize("seed", [-1, True, False],
                             ids=["negative", "true", "false"])
    def test_bad_completion_seed_refused(self, capsys, write_config, seed):
        path = write_config({"completion_seed": seed})
        code, out, err = run_cli(capsys, "hardy", "--config", path)
        assert code == EXIT_USAGE
        assert out == ""
        assert "completion_seed must be a non-negative integer" in err

    def test_degenerate_basis_is_generic_failure(self, capsys, write_config):
        path = write_config({"amplitudes": [0.0, 1.0, 0.0],
                             "mode": "particle"})
        code, _, err = run_cli(capsys, "hardy", "--config", path)
        assert code == 1
        assert "chainlogic:" in err

    def test_numerical_fault_has_its_own_code(self, capsys, monkeypatch):
        # no measurement unitary passes a negative tolerance
        monkeypatch.setattr(hardy, "ALGEBRA_TOL", -1.0)
        code, out, err = run_cli(capsys, "hardy")
        assert code == EXIT_SOFTWARE
        assert out == ""
        assert "numerical fault: measurement unitary failed unitarity" in err

    def test_bad_env_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("CHAINLOGIC_TOL", "banana")
        code, _, err = run_cli(capsys, "consistency", "--demo", "xzx")
        assert code == EXIT_USAGE
        assert "CHAINLOGIC_TOL" in err

    def test_env_tolerance_out_of_range(self, capsys, monkeypatch):
        monkeypatch.setenv("CHAINLOGIC_TOL", "1.5")
        code, _, err = run_cli(capsys, "consistency", "--demo", "xzx")
        assert code == EXIT_USAGE

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == EXIT_USAGE

    def test_counterfactual_requires_selector(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["counterfactual"])
        assert excinfo.value.code == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["hardy", "--bogus"])
        assert excinfo.value.code == EXIT_USAGE

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == EXIT_OK
        assert capsys.readouterr().out == f"chainlogic {__version__}\n"


class TestParser:
    def test_main_builds_one_parser_per_process(self, capsys, monkeypatch):
        built = []

        def spy():
            built.append(build_parser())
            return built[-1]

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", spy)
        assert run_cli(capsys, "consistency", "--demo", "xzx")[0] \
            == EXIT_INCONSISTENT
        assert run_cli(capsys, "hardy", "--config", "nope.json")[0] == EXIT_IO
        assert len(built) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


class TestEnvTolerance:
    def test_relaxed_tolerance_flips_demo_verdict(self, capsys, monkeypatch):
        monkeypatch.setenv("CHAINLOGIC_TOL", "0.2")
        code, out, _ = run_cli(capsys, "consistency", "--demo", "xzx")
        assert code == EXIT_OK
        assert "verdict: consistent" in out

    def test_env_wins_over_config(self, capsys, monkeypatch, write_config):
        path = write_config({"tolerances": {"consistency": 1e-14}})
        monkeypatch.setenv("CHAINLOGIC_TOL", "0.2")
        code, out, _ = run_cli(capsys, "consistency", "--demo", "xzx",
                               "--config", path)
        assert code == EXIT_OK
        assert "2.000000e-01" in out


class TestJsonReports:
    def test_consistency_demo_report(self, capsys):
        code, out, _ = run_cli(capsys, "consistency", "--demo", "xzx",
                               "--json")
        assert code == EXIT_INCONSISTENT
        report = report_from(out)
        assert report["kind"] == "consistency-report"
        assert report["source"] == "demo:xzx"
        assert not report["consistent"]
        assert report["worst"]["magnitude"] == pytest.approx(0.125, abs=1e-12)
        first, second = report["worst"]["paths"]
        assert first[0] == second[0] and first[2] == second[2]
        assert first[1] != second[1]

    def test_scenario_consistency_report(self, capsys, particle_config):
        code, out, _ = run_cli(capsys, "consistency", "--json", "--config",
                               particle_config)
        assert code == EXIT_OK
        report = report_from(out)
        assert report["consistent"]
        assert report["mode"] == "particle"
        assert len(report["blocks"]) == 4
        assert all(block["consistent"] for block in report["blocks"])

    def test_hardy_report(self, capsys):
        code, out, _ = run_cli(capsys, "hardy", "--json")
        assert code == EXIT_OK
        report = report_from(out)
        assert report["kind"] == "hardy-report"
        assert report["mode"] == "apparatus"
        assert report["dim"] == 144
        assert report["strict"] is True
        assert report["predictions"]["is_hardy"] is True
        assert report["predictions"]["s4"] == pytest.approx(1 / 12, abs=1e-10)
        assert len(report["joint"]) == 16
        assert report["joint"]["ML2,ML2+,MR2,MR2-"] == pytest.approx(
            1 / 48, abs=1e-10)

    def test_repeated_runs_are_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "hardy", "--json")
        _, second, _ = run_cli(capsys, "hardy", "--json")
        assert first == second

    def test_counterfactual_single_setting(self, capsys, particle_config):
        code, out, _ = run_cli(capsys, "counterfactual", "--setting", "ML1",
                               "--json", "--config", particle_config)
        assert code == EXIT_OK
        report = report_from(out)
        assert report["kind"] == "counterfactual-report"
        assert report["setting"] == "ML1"
        assert report["verdict"]["kind"] == "necessary"
        assert report["verdict"]["outcome"] == "MR2+"

    def test_locality_report(self, capsys, particle_config):
        code, out, _ = run_cli(capsys, "counterfactual", "--both", "--json",
                               "--config", particle_config)
        assert code == EXIT_OK
        report = report_from(out)
        assert report["kind"] == "locality-report"
        assert report["demonstrated"] is True
        assert report["ml1"]["kind"] == "necessary"
        assert report["ml2"]["kind"] == "possible"
        assert report["no_signaling"]["passes"] is True

    def test_sweep_report(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--values", "0.5,0.1",
                               "--format", "json")
        assert code == EXIT_OK
        report = report_from(out)
        assert report["kind"] == "sweep-report"
        assert [row["parameter"] for row in report["rows"]] == [0.5, 0.1]
        assert report["rows"][0]["s4"] > report["rows"][1]["s4"]

    def test_maximize_report(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--maximize-s4", "--format",
                               "json")
        assert code == EXIT_OK
        report = report_from(out)
        assert report["kind"] == "s4-maximum"
        assert report["family"] == "equal_tail"
        assert report["s4"] == pytest.approx(0.0901699437, abs=1e-6)

    def test_export_json_matches_tree_schema(self, capsys, particle_config):
        code, out, _ = run_cli(capsys, "export", "--format", "json",
                               "--config", particle_config)
        assert code == EXIT_OK
        doc = json.loads(out)
        TREE_VALIDATOR.validate(doc)
        assert doc["kind"] == "framework-tree"
        assert doc["dim"] == 4


class TestHumanOutput:
    def test_counterfactual_both(self, capsys, particle_config):
        code, out, _ = run_cli(capsys, "counterfactual", "--both", "--config",
                               particle_config)
        assert code == EXIT_OK
        assert "left setting ML1" in out
        assert "left setting ML2" in out
        assert "necessary(MR2+)" in out
        assert "demonstrated" in out

    def test_hardy_text(self, capsys, particle_config):
        code, out, _ = run_cli(capsys, "hardy", "--config", particle_config)
        assert code == EXIT_OK
        assert "P(ML2+ and MR2- | ML2, MR2) = 0.083333" in out
        assert "no-signaling" in out


class TestSweep:
    def test_text_table(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--values", "0.5,0.1")
        assert code == EXIT_OK
        assert "parameter" in out
        assert "necessary(MR2+)" in out
        assert "possible" in out

    def test_csv_numbers_equal_json_numbers(self, capsys):
        args = ("sweep", "--values", "0.5,0.25,0.1")
        _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
        _, json_out, _ = run_cli(capsys, *args, "--format", "json")
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        report = json.loads(json_out)
        assert len(rows) == len(report["rows"]) == 3
        float_columns = ("parameter", "s4", "p_mr2_plus_given_ml2_plus",
                         "p_mr2_minus_given_ml2_plus")
        for csv_row, json_row in zip(rows, report["rows"]):
            for column in float_columns:
                # repr round trip: the csv text must denote the same float
                assert float(csv_row[column]) == json_row[column]
            assert csv_row["verdict_ml1_kind"] == json_row["verdict_ml1_kind"]
            assert csv_row["verdict_ml2_kind"] == json_row["verdict_ml2_kind"]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "sweep", "--values", "0.5", "--format",
                               "csv", "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().startswith("parameter,")

    def test_bad_values(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--values", "0.5,zebra")
        assert code == EXIT_USAGE
        assert "bad sweep values" in err

    @pytest.mark.parametrize("family, values", [
        ("symmetric_outer", "0.5,1.5"), ("symmetric_outer", "0"),
        ("symmetric_outer", "nan"), ("equal_tail", "0.71"),
        ("equal_tail", "-inf"),
    ])
    def test_values_outside_the_family_range(self, capsys, family, values):
        code, out, err = run_cli(capsys, "sweep", "--family", family,
                                 f"--values={values}")
        assert code == EXIT_USAGE
        assert out == ""
        assert "outside the open range" in err
        assert repr(family) in err

    def test_maximize_refuses_values(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--maximize-s4",
                                 "--values", "0.3")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--values" in err and "--maximize-s4" in err

    def test_mode_read_from_config(self, capsys):
        config = str(ROOT / "configs" / "equal_apparatus.json")
        args = ("sweep", "--values", "0.5", "--format", "csv")
        code, from_config, _ = run_cli(capsys, *args, "--config", config)
        assert code == EXIT_OK
        _, apparatus, _ = run_cli(capsys, *args, "--mode", "apparatus")
        _, particle, _ = run_cli(capsys, *args)
        assert from_config == apparatus
        assert apparatus != particle

    def test_mode_flag_overrides_config(self, capsys):
        config = str(ROOT / "configs" / "equal_apparatus.json")
        args = ("sweep", "--values", "0.5", "--format", "json")
        _, out, _ = run_cli(capsys, *args, "--mode", "particle",
                            "--config", config)
        assert report_from(out)["mode"] == "particle"

    def test_family_choices_enforced(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--family", "mystery"])
        assert excinfo.value.code == EXIT_USAGE


class TestExport:
    def test_dot_output(self, capsys, particle_config):
        code, out, _ = run_cli(capsys, "export", "--config", particle_config)
        assert code == EXIT_OK
        assert out.startswith("digraph")
        assert "dashed" in out  # pruned stubs stay visible

    def test_no_prune_restores_zero_branches(self, capsys, particle_config):
        _, pruned, _ = run_cli(capsys, "export", "--format", "json",
                               "--config", particle_config)
        _, full, _ = run_cli(capsys, "export", "--format", "json",
                             "--no-prune", "--config", particle_config)
        # the three vanishing joint outcomes are pruned stubs
        assert pruned.count('"pruned": true') == 3
        assert full.count('"pruned": true') == 0

    def test_out_file(self, capsys, tmp_path, particle_config):
        target = tmp_path / "tree.dot"
        code, out, _ = run_cli(capsys, "export", "--config", particle_config,
                               "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().startswith("digraph")


class TestConfigLoading:
    def test_defaults(self):
        config = load_config(None, env={})
        assert config.amplitudes == HardyAmplitudes.equal()
        assert config.mode == "apparatus"
        assert config.choice_weights == DEFAULT_CHOICE_WEIGHTS
        assert config.completion_seed is None

    def test_complex_amplitude_pairs(self, write_config):
        path = write_config(
            {"amplitudes": [[ROOT3, 0.0], [0.0, ROOT3], [ROOT3, 0.0]]})
        config = load_config(path, env={})
        assert config.amplitudes.b == pytest.approx(ROOT3 * 1j, abs=1e-12)

    def test_small_norm_deviation_warns_and_rescales(self, capsys,
                                                     write_config):
        value = 0.577350269  # truncated, |norm - 1| around 3e-10
        path = write_config({"amplitudes": [value, value, value]})
        config = load_config(path, env={})
        assert "normalizing amplitudes" in capsys.readouterr().err
        norm = sum(abs(x) ** 2 for x in config.amplitudes.triple) ** 0.5
        assert abs(norm - 1.0) < 1e-12

    def test_choice_weights(self, write_config):
        path = write_config({"choice_weights": [[0.25, 0.75], [0.5, 0.5]]})
        config = load_config(path, env={})
        assert config.choice_weights == ((0.25, 0.75), (0.5, 0.5))

    def test_bad_choice_weights(self, write_config):
        path = write_config({"choice_weights": [0.25, 0.75]})
        with pytest.raises(ConfigError, match="choice_weights"):
            load_config(path, env={})

    def test_bool_amplitude_rejected(self, write_config):
        path = write_config({"amplitudes": [True, 0.5, 0.5]})
        with pytest.raises(ConfigError, match="number or a"):
            load_config(path, env={})

    def test_unsupported_schema(self, write_config):
        path = write_config({"schema": 2})
        with pytest.raises(ConfigError, match="schema"):
            load_config(path, env={})

    def test_bad_tolerances(self, write_config):
        path = write_config({"tolerances": {"slack": 1e-3}})
        with pytest.raises(ConfigError, match="tolerances"):
            load_config(path, env={})

    def test_bad_completion_seed(self, write_config):
        path = write_config({"completion_seed": "often"})
        with pytest.raises(ConfigError, match="completion_seed"):
            load_config(path, env={})

    def test_completion_seed_zero_accepted(self, write_config):
        path = write_config({"completion_seed": 0})
        assert load_config(path, env={}).completion_seed == 0

    def test_setting_weights_checked_against_the_config_prune(self,
                                                              write_config):
        weights = [[1e-13, 0.9999999999999], [0.5, 0.5]]
        path = write_config({"choice_weights": weights,
                             "tolerances": {"prune": 1e-14}})
        assert load_config(path, env={}).choice_weights[0][0] == 1e-13
        path = write_config({"tolerances": {"prune": 0.25}})
        with pytest.raises(ConfigError, match="0.25"):
            load_config(path, env={})

    def test_env_tolerance_applies(self, write_config):
        path = write_config({"tolerances": {"consistency": 1e-14}})
        config = load_config(path, env={"CHAINLOGIC_TOL": "0.125"})
        assert config.tolerances.consistency == 0.125


class TestConsoleScript:
    @pytest.mark.skipif(shutil.which("chainlogic") is None,
                        reason="console script not on PATH")
    def test_entry_point(self):
        done = subprocess.run(["chainlogic", "consistency", "--demo", "xzx"],
                              capture_output=True, text=True)
        assert done.returncode == EXIT_INCONSISTENT
        assert "verdict: inconsistent" in done.stdout
