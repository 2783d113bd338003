from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
# an integer JSON literal too large for a float: Python's json reads it exactly
LONG_INT = 10 ** 400
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

    def test_integer_literal_past_the_digit_limit_refused(self, capsys, tmp_path):
        # json raises a plain ValueError, not a JSONDecodeError, for an int
        # literal past Python's 4300-digit limit; it used to end the run with
        # a traceback
        path = tmp_path / "config.json"
        path.write_text('{"completion_seed": 1%s}' % ("0" * 5000))
        code, out, err = run_cli(capsys, "hardy", "--config", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert "config is not valid JSON" in err

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
        "[%d, 0.5, 0.5]" % LONG_INT,
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

    @pytest.mark.parametrize("config, message", [
        ({"schema": True}, "schema must be the integer 1, got True"),
        ({"schema": 1.0}, "schema must be the integer 1, got 1.0"),
        ({"schema": "1"}, "schema must be the integer 1, got '1'"),
        ({"tolerances": {"consistency": "1e-3"}},
         "tolerances.consistency must be a number in (0, 1), got '1e-3'"),
        ({"tolerances": {"prune": "1e-13"}},
         "tolerances.prune must be a number in (0, 1), got '1e-13'"),
        ({"tolerances": {"prune": True}},
         "tolerances.prune must be a number in (0, 1), got True"),
        ({"choice_weights": [[math.nan, 0.5], [0.5, 0.5]]},
         "choice weight 1 of side L must be finite, got nan"),
    ], ids=["schema-true", "schema-float", "schema-string", "consistency-string",
            "prune-string", "prune-true", "weight-nan"])
    def test_config_number_read_strictly(self, capsys, write_config, config,
                                         message):
        # the first two used to run as schema 1, the string tolerances to be
        # read as floats, a bool prune as 1.0 and a NaN weight as a zero one
        path = write_config(config)
        code, out, err = run_cli(capsys, "hardy", "--config", path)
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("config, field", [
        ({"choice_weights": [[LONG_INT, 0.5], [0.5, 0.5]]},
         "choice weight 1 of side L"),
        ({"tolerances": {"prune": LONG_INT}}, "tolerances.prune"),
        ({"tolerances": {"consistency": LONG_INT}}, "tolerances.consistency"),
        ({"completion_seed": LONG_INT}, "completion_seed"),
    ], ids=["weight", "prune", "consistency", "seed"])
    def test_integer_past_the_float_range_refused(self, capsys, write_config,
                                                  config, field):
        # the weight and the tolerances used to end hardy with an uncaught
        # OverflowError from float(), and the seed to be accepted
        path = write_config(config)
        code, out, err = run_cli(capsys, "hardy", "--config", path)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"{field} must be finite" in err

    @pytest.mark.parametrize("config, message", [
        ({"completion_seed": LONG_INT},
         "completion_seed must be finite, got 10000000000000000000... (401 digits)"),
        ({"completion_seed": -LONG_INT}, "(401 digits)"),
        ({"schema": "1" * 5000}, "schema must be the integer 1, got '111"),
        ({"choice_weights": [[[0.5] * 1000, 0.5], [0.5, 0.5]]},
         "choice weight 1 of side L must be a number"),
    ], ids=["int", "negative-int", "string", "list"])
    def test_refused_long_value_shown_short(self, capsys, write_config,
                                            config, message):
        # the whole value used to go into the message: 401 digits for 10**400
        path = write_config(config)
        code, out, err = run_cli(capsys, "hardy", "--config", path)
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err
        assert len(err) < 200

    @pytest.mark.parametrize("weights, message", [
        ([[0.3, 0.3], [0.5, 0.5]], "sum to 0.6, not 1"),
        ([[math.inf, 0.5], [0.5, 0.5]], "choice weight 1 of side L must be finite"),
    ], ids=["sum", "infinite"])
    def test_choice_weights_judged_alike_by_every_subcommand(
            self, capsys, write_config, weights, message):
        # consistency --demo and sweep --maximize-s4 used to run on them
        path = write_config({"choice_weights": weights})
        errors = set()
        for command in (["hardy"], ["consistency", "--demo", "xzx"],
                        ["sweep", "--maximize-s4", "--format", "csv"]):
            code, out, err = run_cli(capsys, *command, "--config", path)
            assert (code, out) == (EXIT_USAGE, "")
            errors.add(err)
        assert len(errors) == 1 and message in errors.pop()

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

    @pytest.mark.parametrize("tolerances, kind", [
        ([], "list"), ("x", "str"), (0.1, "float"), (None, "NoneType"),
    ], ids=["list", "string", "number", "null"])
    def test_non_object_tolerances_refused(self, capsys, write_config,
                                           tolerances, kind):
        # a list used to crash on .items(), a string to be read as its keys
        path = write_config({"tolerances": tolerances})
        code, out, err = run_cli(capsys, "hardy", "--config", path)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"tolerances must be a JSON object, got {kind}" in err

    @pytest.mark.parametrize("value", [1e-16, 1e-300])
    @pytest.mark.parametrize("command", [("hardy",), ("counterfactual", "--both")],
                             ids=["hardy", "counterfactual"])
    def test_consistency_tolerance_below_the_floor_refused(
            self, capsys, write_config, command, value):
        # hardy used to report a rounding-sized no-signaling discrepancy as
        # VIOLATED, counterfactual --both the contrast as NOT demonstrated
        path = write_config({"tolerances": {"consistency": value}})
        code, out, err = run_cli(capsys, *command, "--config", path)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"tolerances.consistency {value!r} is below the floor 1e-14" in err

    def test_env_tolerance_below_the_floor_refused(self, capsys, monkeypatch):
        monkeypatch.setenv("CHAINLOGIC_TOL", "1e-16")
        code, out, err = run_cli(capsys, "hardy")
        assert code == EXIT_USAGE
        assert out == ""
        assert "CHAINLOGIC_TOL 1e-16 is below the floor 1e-14" in err

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

    def test_weak_amplitude_has_the_not_hardy_code(self, capsys, write_config):
        # normalized, so the config is accepted, but b lies below the strict
        # amplitude floor that the locality contrast needs
        path = write_config({"schema": 1, "mode": "particle", "amplitudes": [
            0.7071067811865476, 1e-10, 0.7071067811865475]})
        code, out, err = run_cli(capsys, "counterfactual", "--both",
                                 "--config", path)
        assert code == EXIT_NOT_HARDY
        assert out == ""
        assert "the locality contrast needs a strict amplitude triple" in err

    def test_internal_inconsistency_has_its_own_code(self, capsys, monkeypatch):
        # no input builds an inconsistent scenario tree, so the check is
        # made to fail on a consistent one
        real = hardy.tree_consistency
        monkeypatch.setattr(hardy, "tree_consistency", lambda tree, tol: (
            dataclasses.replace(real(tree, tol), consistent=False)))
        code, out, err = run_cli(capsys, "hardy")
        assert code == EXIT_INCONSISTENT
        assert out == ""
        assert "scenario tree failed its own consistency check" in err

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

    @pytest.mark.parametrize("argv", [
        ("hardy", "--json"),
        ("counterfactual", "--both", "--json"),
        ("export", "--format", "json"),
    ])
    def test_apparatus_reports_do_not_depend_on_completion_seed(
            self, capsys, write_config, argv):
        # the seed completes the measurement unitary only where no register
        # that starts ready ever goes, so every report is the same text
        config = json.loads((ROOT / "configs" / "equal_apparatus.json").read_text())
        outputs = set()
        for seed in (None, 0, 7, 2026):
            path = write_config({**config, "completion_seed": seed})
            code, out, _ = run_cli(capsys, *argv, "--config", path)
            assert code == EXIT_OK
            outputs.add(out)
        assert len(outputs) == 1


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

    def test_vacuous_premise_names_grown_weight(self, capsys):
        # the premise grows at b^2/4 = 2.5e-13, under the prune tolerance
        code, out, err = run_cli(capsys, "sweep", "--values=1e-6")
        assert code == 1
        assert out == ""
        assert "2.500e-13" in err and "1.000e-10" in err

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
        with pytest.raises(ConfigError, match="unknown tolerance keys"):
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

    def test_env_tolerance_at_the_floor_accepted(self):
        config = load_config(None, env={"CHAINLOGIC_TOL": "1e-14"})
        assert config.tolerances.consistency == 1e-14


# -- fuzz of the CLI edge --------------------------------------------------------

README_EXIT_CODES = {EXIT_OK, 1, EXIT_INCONSISTENT, EXIT_NOT_HARDY, EXIT_USAGE,
                     EXIT_IO, EXIT_SOFTWARE}
# where a number belongs: non-finite, zero, tiny, huge and negative values
# beside ordinary ones, and every other JSON type
NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, 5e-324,
                           1e-300, 1e-16, 1e-14, 1e-12, 1e-3, 0.125, 0.5,
                           ROOT3, 1, 1e300, LONG_INT, -0.5, -1])
# a float is the wrong type for the integer fields schema and completion_seed
WRONG_TYPES = st.one_of(st.none(), st.booleans(),
                        st.sampled_from(["", "x", "1e-3", "1", 1.0]),
                        st.lists(NUMBERS, max_size=1),
                        st.dictionaries(st.just("a"), NUMBERS, max_size=1))
NUMBER_OR_NOT = st.one_of(NUMBERS, WRONG_TYPES)
VALID_FIELDS = {
    "schema": st.just(1),
    "amplitudes": st.just([ROOT3, ROOT3, ROOT3]),
    "choice_weights": st.just([[0.5, 0.5], [0.5, 0.5]]),
    "mode": st.sampled_from(["particle", "apparatus"]),
    "tolerances": st.just({}),
    "completion_seed": st.sampled_from([None, 0, 7]),
}
# per field, a bad value: mostly a valid one with one entry replaced
BAD_FIELDS = {
    "schema": NUMBER_OR_NOT,
    "amplitudes": st.one_of(
        st.tuples(st.integers(0, 2),
                  st.one_of(NUMBER_OR_NOT,
                            st.lists(NUMBER_OR_NOT, min_size=2, max_size=2)))
        .map(lambda d: [d[1] if i == d[0] else ROOT3 for i in range(3)]),
        st.lists(NUMBERS, max_size=4), NUMBER_OR_NOT),
    "choice_weights": st.one_of(
        st.tuples(st.integers(0, 1), st.integers(0, 1), NUMBER_OR_NOT)
        .map(lambda d: [[d[2] if (side, k) == d[:2] else 0.5 for k in range(2)]
                        for side in range(2)]),
        st.lists(st.lists(NUMBERS, max_size=3), max_size=3), NUMBER_OR_NOT),
    "mode": NUMBER_OR_NOT,
    "tolerances": st.one_of(
        st.dictionaries(st.sampled_from(["consistency", "prune", "slack"]),
                        NUMBER_OR_NOT, min_size=1, max_size=3),
        NUMBER_OR_NOT),
    "completion_seed": st.one_of(st.integers(-2, 2 ** 70), NUMBER_OR_NOT),
}
BAD_FIELD = st.sampled_from(sorted(BAD_FIELDS)).flatmap(
    lambda key: st.tuples(st.just(key), BAD_FIELDS[key]))
# a valid config, then up to two of its fields replaced by bad values
CONFIGS = st.builds(lambda valid, bad: {**valid, **dict(bad)},
                    st.fixed_dictionaries({}, optional=VALID_FIELDS),
                    st.lists(BAD_FIELD, max_size=2))
FLOAT_TEXT = st.sampled_from(["nan", "inf", "-inf", "0", "1e-300", "1e-16",
                              "1e-14", "0.125", "0.5", "0.7", "1e300", "-0.5",
                              "x", ""])
COMMANDS = {
    "hardy": ["hardy", "--json"],
    "counterfactual": ["counterfactual", "--both", "--json"],
    "sweep": ["sweep", "--format", "csv"],
}


class TestCliEdgeFuzz:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(config=CONFIGS,
           env_tol=st.one_of(st.none(), FLOAT_TEXT),
           command=st.sampled_from(sorted(COMMANDS)),
           values=st.lists(st.one_of(st.sampled_from(["0.1", "0.5"]), FLOAT_TEXT),
                           max_size=3).map(",".join))
    # crashes this fuzz found: tolerances read as a mapping, a float power
    # past 1e308
    @example(config={"tolerances": []}, env_tol=None, command="hardy", values="")
    @example(config={"amplitudes": [1e300, ROOT3, ROOT3]}, env_tol=None,
             command="hardy", values="")
    # an OverflowError from float() of a long integer literal, and a bool
    # schema read as schema 1
    @example(config={"choice_weights": [[LONG_INT, 0.5], [0.5, 0.5]]},
             env_tol=None, command="hardy", values="")
    @example(config={"schema": True}, env_tol=None, command="sweep", values="0.5")
    def test_every_run_ends_with_a_documented_exit_code(self, config, env_tol,
                                                        command, values):
        argv = list(COMMANDS[command])
        if command == "sweep":
            argv.append(f"--values={values}")
        with tempfile.TemporaryDirectory() as scratch, \
                mock.patch.dict(os.environ), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            path = Path(scratch) / "config.json"
            path.write_text(json.dumps(config))  # NaN and Infinity literals
            os.environ.pop("CHAINLOGIC_TOL", None)
            if env_tol is not None:
                os.environ["CHAINLOGIC_TOL"] = env_tol
            code = main([*argv, "--config", str(path)])
        assert code in README_EXIT_CODES
        tolerances = config.get("tolerances")
        read_as_numbers = [config.get("schema"), config.get("completion_seed"),
                           *(tolerances.values() if isinstance(tolerances, dict)
                             else [])]
        if any(isinstance(value, (bool, str)) for value in read_as_numbers):
            assert code == EXIT_USAGE


class TestConsoleScript:
    @pytest.mark.skipif(shutil.which("chainlogic") is None,
                        reason="console script not on PATH")
    def test_entry_point(self):
        done = subprocess.run(["chainlogic", "consistency", "--demo", "xzx"],
                              capture_output=True, text=True)
        assert done.returncode == EXIT_INCONSISTENT
        assert "verdict: inconsistent" in done.stdout

    def test_entry_point_without_path(self):
        """The script pip generates from [project.scripts] runs this code."""
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts == {"chainlogic": "chainlogic.cli:main"}
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        env.pop("CHAINLOGIC_TOL", None)
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from chainlogic.cli import main; sys.exit(main())",
             "consistency", "--demo", "xzx"],
            capture_output=True, text=True, env=env)
        assert done.returncode == EXIT_INCONSISTENT
        assert "verdict: inconsistent" in done.stdout
