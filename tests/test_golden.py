"""Byte-for-byte comparison of CLI reports against recorded outputs.

``tests/golden/<config>.<name>`` holds the stdout of one subcommand in
``COMMANDS`` run on one sample config from ``configs/``; the files named in
``STANDALONE`` hold the stdout of commands that read no config.  Any
difference is a change in user-visible output; re-record a file only when
that change is deliberate.  Every text and CSV file is also rendered from its
JSON sibling alone, every JSON file is checked against its published schema,
and no file sits in the directory unnamed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from test_cli import REPORT_VALIDATOR, TREE_VALIDATOR

from chainlogic.cli import EXIT_INCONSISTENT, EXIT_OK, TOL_ENV_VAR, _render, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CONFIGS = ("biased_choices", "equal_apparatus", "equal_particle",
           "suppressed_outcome")
# test id -> (argv, golden file name after the config)
COMMANDS = {
    "hardy": (("hardy", "--json"), "hardy.json"),
    "counterfactual": (("counterfactual", "--both", "--json"),
                       "counterfactual.json"),
    "consistency": (("consistency", "--json"), "consistency.json"),
    "export": (("export", "--format", "json"), "export.json"),
    "export_no_prune": (("export", "--format", "json", "--no-prune"),
                        "export_no_prune.json"),
    "export_dot": (("export", "--format", "dot"), "export.dot"),
    "hardy_text": (("hardy",), "hardy.txt"),
    "counterfactual_text": (("counterfactual", "--both"), "counterfactual.txt"),
    "consistency_text": (("consistency",), "consistency.txt"),
    "counterfactual_ml1": (("counterfactual", "--setting", "ML1", "--json"),
                           "counterfactual_ml1.json"),
    "counterfactual_ml1_text": (("counterfactual", "--setting", "ML1"),
                                "counterfactual_ml1.txt"),
    "counterfactual_ml2": (("counterfactual", "--setting", "ML2", "--json"),
                           "counterfactual_ml2.json"),
    "counterfactual_ml2_text": (("counterfactual", "--setting", "ML2"),
                                "counterfactual_ml2.txt"),
}
# test id -> (argv, golden file name, expected exit code)
STANDALONE = {
    "demo_xzx.consistency": (("consistency", "--demo", "xzx", "--json"),
                             "demo_xzx.consistency.json", EXIT_INCONSISTENT),
    "demo_xzx.consistency_text": (("consistency", "--demo", "xzx"),
                                  "demo_xzx.consistency.txt", EXIT_INCONSISTENT),
    "symmetric_outer.sweep": (("sweep", "--family", "symmetric_outer",
                               "--format", "json"),
                              "symmetric_outer.sweep.json", EXIT_OK),
    "symmetric_outer.sweep_csv": (("sweep", "--format", "csv"),
                                  "symmetric_outer.sweep.csv", EXIT_OK),
    "symmetric_outer.sweep_text": (("sweep", "--format", "text"),
                                   "symmetric_outer.sweep.txt", EXIT_OK),
    "particle.maximize_s4": (("sweep", "--maximize-s4", "--format", "json"),
                             "particle.maximize_s4.json", EXIT_OK),
    "particle.maximize_s4_text": (("sweep", "--maximize-s4", "--format",
                                   "text"),
                                  "particle.maximize_s4.txt", EXIT_OK),
    "particle.maximize_s4_csv": (("sweep", "--maximize-s4", "--format", "csv"),
                                 "particle.maximize_s4.csv", EXIT_OK),
    "apparatus.maximize_s4": (("sweep", "--maximize-s4", "--mode", "apparatus",
                               "--format", "json"),
                              "apparatus.maximize_s4.json", EXIT_OK),
    "symmetric_outer.apparatus_sweep": (("sweep", "--mode", "apparatus",
                                         "--format", "json"),
                                        "symmetric_outer.apparatus_sweep.json",
                                        EXIT_OK),
    "symmetric_outer.apparatus_sweep_text": (("sweep", "--mode", "apparatus"),
                                             "symmetric_outer.apparatus_sweep.txt",
                                             EXIT_OK),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("config", CONFIGS)
def test_report_matches_golden(capsys, monkeypatch, config, command):
    monkeypatch.delenv(TOL_ENV_VAR, raising=False)
    args, golden = COMMANDS[command]
    argv = [*args, "--config", str(ROOT / "configs" / f"{config}.json")]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.encode() == (GOLDEN / f"{config}.{golden}").read_bytes()


@pytest.mark.parametrize("command", sorted(STANDALONE))
def test_standalone_report_matches_golden(capsys, monkeypatch, command):
    monkeypatch.delenv(TOL_ENV_VAR, raising=False)
    argv, golden, expected_code = STANDALONE[command]
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == expected_code
    assert out.encode() == (GOLDEN / golden).read_bytes()


NAMED = sorted({f"{config}.{golden}" for _, golden in COMMANDS.values()
                for config in CONFIGS}
               | {golden for _, golden, _ in STANDALONE.values()})
# a text or CSV golden -> the format it is rendered in from its JSON sibling
RENDERED = {name: "csv" if name.endswith(".csv") else "text"
            for name in NAMED if name.endswith((".txt", ".csv"))}


@pytest.mark.parametrize("name", sorted(RENDERED))
def test_text_is_rendered_from_the_json_report(name):
    """Text and CSV are views of the JSON report: rendering the recorded report
    loaded from disk gives the recorded text byte for byte."""
    report = json.loads((GOLDEN / name).with_suffix(".json").read_text())
    assert _render(report, RENDERED[name]).encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", [n for n in NAMED if n.endswith(".json")])
def test_json_golden_matches_its_schema(name):
    document = json.loads((GOLDEN / name).read_text())
    validator = (TREE_VALIDATOR if document["kind"] == "framework-tree"
                 else REPORT_VALIDATOR)
    validator.validate(document)


def test_every_golden_file_is_named():
    """A recorded file that no command names would never be compared."""
    assert sorted(path.name for path in GOLDEN.iterdir()) == NAMED
