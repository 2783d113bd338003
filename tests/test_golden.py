"""Byte-for-byte comparison of CLI reports against recorded outputs.

``tests/golden/<config>.<name>`` holds the stdout of one subcommand in
``COMMANDS`` run on one sample config from ``configs/``; the files named in
``STANDALONE`` hold the stdout of commands that read no config.  Any
difference is a change in user-visible output; re-record a file only when
that change is deliberate.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from chainlogic.cli import EXIT_INCONSISTENT, EXIT_OK, TOL_ENV_VAR, main

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
}
# test id -> (argv, golden file name, expected exit code)
STANDALONE = {
    "demo_xzx.consistency": (("consistency", "--demo", "xzx", "--json"),
                             "demo_xzx.consistency.json", EXIT_INCONSISTENT),
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
    "apparatus.maximize_s4": (("sweep", "--maximize-s4", "--mode", "apparatus",
                               "--format", "json"),
                              "apparatus.maximize_s4.json", EXIT_OK),
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
