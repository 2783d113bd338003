"""The chainlogic command line interface.

Subcommands: consistency, hardy, counterfactual, sweep, export.  Every
subcommand accepts --config pointing at a JSON run configuration (schema 1);
without it the default scenario is used: equal amplitudes, fifty-fifty
setting choices on both sides, apparatus mode.

Exit codes:
    0   success
    1   any other engine error, e.g. a vacuous premise, a framework
        violation or a schedule error
    2   an inconsistent history family was detected
    3   the state fails the defining joint-probability pattern
    64  usage or configuration error
    66  input/output error
    70  a numerical fault: a probability below the negativity floor or a
        measurement unitary off unitarity

The environment variable CHAINLOGIC_TOL, when set, overrides the config's
consistency tolerance and is read like it: a float in [1e-14, 1).
JSON output is deterministic: keys are sorted and floats are emitted at full
precision, so identical runs produce byte-identical reports.  Each subcommand
builds one report, the JSON that report.schema.json describes; text and CSV
are rendered from that report alone, so they cannot disagree with --json.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .counterfactual import (
    CounterfactualVerdict,
    evaluate_switch_counterfactual,
    locality_report,
)
from .errors import (
    ChainLogicError,
    ConfigError,
    InternalConsistencyError,
    NotAHardyStateError,
    NumericalFaultError,
)
from .hardy import (
    DEFAULT_CHOICE_WEIGHTS,
    ChoiceWeights,
    HardyAmplitudes,
    HardyScenario,
    NoSignalingReport,
    _validate_choice_weights,
    build_measurement_scenario,
    joint_probability_table,
    no_signaling_report,
    verify_hardy_predictions,
)
from .histories import TimeGrid
from .qm import CONSISTENCY_TOL_FLOOR, Projector, StateVector, Tolerances, outer
from .sweep import (
    FAMILIES,
    FAMILY_RANGES,
    S4Maximum,
    SweepRow,
    maximize_s4,
    parameter_sweep,
)
from .tree import FrameworkTree, build_tree, export_tree, tree_consistency

EXIT_OK = 0
EXIT_INCONSISTENT = 2
EXIT_NOT_HARDY = 3
EXIT_USAGE = 64
EXIT_IO = 66
EXIT_SOFTWARE = 70

REPORT_SCHEMA_VERSION = 1
TOL_ENV_VAR = "CHAINLOGIC_TOL"

_CONFIG_KEYS = {"schema", "amplitudes", "choice_weights", "mode",
                "tolerances", "completion_seed"}
# A config's amplitudes with |norm - 1| above this are refused ...
AMPLITUDE_REFUSE_DEVIATION = 1e-6
# ... and above this, rescaled to unit norm with a warning.
AMPLITUDE_WARN_DEVIATION = 1e-12
# the tolerances a config may set, each in (0, 1), and the floor below which
# one would fail checks on rounding alone
_TOLERANCE_FLOORS = {"consistency": CONSISTENCY_TOL_FLOOR, "prune": -math.inf}
# a refused config value longer than this is shown cut short
_SHOWN_CHARS = 40


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; this tool uses 2 for
    inconsistency verdicts, so usage errors leave with 64 instead."""

    def error(self, message: str) -> None:  # pragma: no cover - thin wrapper
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunConfig:
    amplitudes: HardyAmplitudes
    choice_weights: ChoiceWeights
    mode: str
    tolerances: Tolerances
    completion_seed: int | None


def _shown(value) -> str:
    """``repr(value)`` for an error message, cut to its first characters when
    long: a JSON integer literal may run to 4300 digits."""
    text = repr(value)
    if len(text) <= _SHOWN_CHARS:
        return text
    if isinstance(value, int):
        size = f"{len(text.lstrip('-'))} digits"
    else:
        size = f"{len(text)} characters"
    return f"{text[:_SHOWN_CHARS // 2]}... ({size})"


def _number(value, name: str, kind: type, expected: str, lo: float = -math.inf,
            hi: float = math.inf, floor: float = -math.inf):
    """``value`` of config field ``name`` as a ``kind``: a JSON number of that
    kind (a bool is neither; an int field refuses 1.0), finite as a float, in
    [lo, hi] for an int or (lo, hi) for a float, and not below ``floor``.  Each
    refusal is a ConfigError naming the field; ``expected`` says what it takes."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or kind is int and isinstance(value, float)):
        raise ConfigError(f"{name} must be {expected}, got {_shown(value)}")
    if not abs(value) <= sys.float_info.max:  # NaN, ±inf or an int past float range
        raise ConfigError(f"{name} must be finite, got {_shown(value)}")
    if not (lo <= value <= hi if kind is int else lo < value < hi):
        raise ConfigError(f"{name} must be {expected}, got {_shown(value)}")
    if value < floor:
        raise ConfigError(
            f"{name} {_shown(value)} is below the floor {floor!r}; "
            "a smaller tolerance would fail checks on rounding alone")
    return kind(value)


def _amplitudes_from(data) -> HardyAmplitudes:
    if not isinstance(data, list) or len(data) != 3:
        raise ConfigError("amplitudes must be a list of three entries")
    triple = []
    for i, entry in enumerate(data):
        parts = entry if isinstance(entry, list) and len(entry) == 2 else [entry]
        triple.append(complex(*(
            _number(x, f"amplitude {i}", float, "a number or a [re, im] pair")
            for x in parts)))
    try:
        norm = math.sqrt(sum(abs(x) ** 2 for x in triple))
    except OverflowError:  # a float power past 1e308 raises, not inf
        norm = math.inf
    if norm == 0.0:
        raise ConfigError("amplitudes must not all vanish")
    deviation = abs(norm - 1.0)
    if deviation > AMPLITUDE_REFUSE_DEVIATION:
        raise ConfigError(
            f"amplitudes are not normalized (|norm - 1| = {deviation:.3e}); "
            "refusing to rescale silently")
    if deviation > AMPLITUDE_WARN_DEVIATION:
        print(f"chainlogic: normalizing amplitudes (|norm - 1| = "
              f"{deviation:.3e})", file=sys.stderr)
    return HardyAmplitudes(*(x / norm for x in triple))


def _choice_weights_from(data) -> ChoiceWeights:
    if not (isinstance(data, list) and len(data) == 2
            and all(isinstance(side, list) and len(side) == 2 for side in data)):
        raise ConfigError("choice_weights must be [[wL1, wL2], [wR1, wR2]]")
    # a zero weight leaves that setting's conditional probabilities undefined
    weights = tuple(
        tuple(_number(w, f"choice weight {k + 1} of side {side}", float,
                      "a number > 0", 0.0) for k, w in enumerate(pair))
        for side, pair in zip("LR", data))
    _validate_choice_weights(weights)  # each side sums to 1
    return weights


def load_config(path: str | None, env: dict | None = None) -> RunConfig:
    """Read a run configuration; missing fields fall back to the default
    scenario.  This is the one place a config is judged, so every
    subcommand accepts or refuses it alike: each number goes through
    ``_number``, and the choice weights through the library's own check.
    I/O failures propagate as OSError, content problems raise ConfigError."""
    env = os.environ if env is None else env
    data: dict = {}
    if path is not None:
        text = Path(path).read_text()
        try:
            data = json.loads(text)
        except ValueError as exc:  # also an int literal past 4300 digits
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    _number(data.get("schema", 1), "schema", int, "the integer 1", 1, 1)
    amplitudes = (_amplitudes_from(data["amplitudes"])
                  if "amplitudes" in data else HardyAmplitudes.equal())
    weights = (_choice_weights_from(data["choice_weights"])
               if "choice_weights" in data else DEFAULT_CHOICE_WEIGHTS)
    mode = data.get("mode", "apparatus")
    if mode not in ("particle", "apparatus"):
        raise ConfigError(f"unknown mode {mode!r}")
    raw_tolerances = data.get("tolerances", {})
    if not isinstance(raw_tolerances, dict):
        raise ConfigError("tolerances must be a JSON object, got "
                          f"{type(raw_tolerances).__name__} {raw_tolerances!r}")
    unknown = set(raw_tolerances) - set(_TOLERANCE_FLOORS)
    if unknown:
        raise ConfigError(f"bad tolerances: unknown tolerance keys: {sorted(unknown)}")
    # CHAINLOGIC_TOL is read after, and so overrides, the config's own
    reads = [(f"tolerances.{key}", key, value) for key, value in raw_tolerances.items()]
    if TOL_ENV_VAR in env:
        try:
            reads.append((TOL_ENV_VAR, "consistency", float(env[TOL_ENV_VAR])))
        except ValueError:
            raise ConfigError(f"{TOL_ENV_VAR} must be a float, got {env[TOL_ENV_VAR]!r}")
    tolerances = Tolerances(**{
        key: _number(value, name, float, "a number in (0, 1)", 0.0, 1.0,
                     _TOLERANCE_FLOORS[key]) for name, key, value in reads})
    # a branch's weight is at most its setting pair's, and pruning drops
    # branches by that absolute weight
    left, right = min(weights[0]), min(weights[1])
    if not left * right > tolerances.prune:
        raise ConfigError(
            f"choice_weights {left!r} (L) times {right!r} (R) is {left * right!r}, "
            f"not above the prune tolerance {tolerances.prune!r}; pruning would "
            "erase that setting pair")
    seed = data.get("completion_seed")
    if seed is not None:
        seed = _number(seed, "completion_seed", int,
                       "a non-negative integer or null", 0)
    return RunConfig(amplitudes=amplitudes, choice_weights=weights, mode=mode,
                     tolerances=tolerances, completion_seed=seed)


def _scenario_from(config: RunConfig) -> HardyScenario:
    return build_measurement_scenario(
        config.amplitudes, mode=config.mode,
        choice_weights=config.choice_weights, tolerances=config.tolerances,
        completion_seed=config.completion_seed)


# -- report builders ----------------------------------------------------------


def _envelope(kind: str, payload: dict) -> dict:
    return {"schema": REPORT_SCHEMA_VERSION, "kind": kind, **payload}


def _scenario_report(kind: str, scenario: HardyScenario, payload: dict) -> dict:
    return _envelope(kind, {"mode": scenario.mode, "dim": scenario.dim,
                            "amplitudes": _amps_json(scenario.amplitudes),
                            **payload})


def _write_output(text: str, out: str | None = None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _amps_json(amplitudes: HardyAmplitudes | None):
    if amplitudes is None:
        return None
    return [[x.real, x.imag] for x in amplitudes.triple]


def _no_signaling_json(report: NoSignalingReport) -> dict:
    return {"max_discrepancy": report.max_discrepancy, "tol": report.tol,
            "passes": report.passes,
            "right_marginals": report.right_marginals,
            "left_marginals": report.left_marginals}


def _verdict_json(verdict: CounterfactualVerdict) -> dict:
    return {
        "kind": verdict.kind,
        "outcome": verdict.outcome,
        "premise_probability": verdict.premise_probability,
        "tol": verdict.tol,
        "impossible_outcomes": list(verdict.impossible_outcomes),
        "distribution": dict(verdict.distribution),
        "pivots": [{"path": list(p.path), "posterior": p.posterior,
                    "outcomes": dict(p.outcomes)} for p in verdict.pivots],
    }


def _sweep_json(result: SweepRow | S4Maximum) -> dict:
    """A sweep result's fields, which are its JSON keys, with the amplitude
    triple as [re, im] pairs."""
    return {**asdict(result), "amplitudes": _amps_json(result.amplitudes)}


# -- renderers: text and CSV from a report dict alone -------------------------


def _verdict_name(kind: str, outcome: str | None) -> str:
    return f"necessary({outcome})" if kind == "necessary" else kind


def _verdict_lines(setting: str, verdict: dict) -> list[str]:
    lines = [f"left setting {setting}: had the right side measured MR2 "
             "(actual record: MR1 with outcome MR1+)",
             f"  verdict: {_verdict_name(verdict['kind'], verdict['outcome'])}",
             f"  premise probability: {verdict['premise_probability']:.6f}"]
    for pivot in verdict["pivots"]:
        outcomes = "  ".join(f"{label} {p:.6f}"
                             for label, p in sorted(pivot["outcomes"].items()))
        lines += [f"  pivot {' / '.join(pivot['path'])}   "
                  f"posterior {pivot['posterior']:.6f}", f"    {outcomes}"]
    if verdict["impossible_outcomes"]:
        lines.append(f"  impossible: {', '.join(verdict['impossible_outcomes'])}")
    return lines


def _no_signaling_line(report: dict) -> str:
    signaling = report["no_signaling"]
    return (f"no-signaling: max marginal discrepancy "
            f"{signaling['max_discrepancy']:.6e} "
            f"({'ok' if signaling['passes'] else 'VIOLATED'})")


def _consistency_text(report: dict) -> list[str]:
    mode, worst = report["mode"], report["worst"]
    histories = sum(block["histories"] for block in report["blocks"])
    lines = [f"source: {report['source']}" + (f" ({mode} mode)" if mode else ""),
             f"dim: {report['dim']}   histories: {histories}   "
             f"blocks: {len(report['blocks'])}",
             f"tolerance: {report['tolerance']:.6e}",
             f"verdict: {report['verdict']}"]
    if worst is not None:
        lines.append(f"worst off-diagonal: {worst['magnitude']:.6e}")
        if not report["consistent"] and "paths" in worst:
            first, second = worst["paths"]
            lines += [f"  between: {' / '.join(first)}",
                      f"  and:     {' / '.join(second)}"]
    return lines


def _hardy_text(report: dict) -> list[str]:
    predictions = report["predictions"]
    lines = [f"scenario: {report['mode']} mode, dim {report['dim']}"]
    if report["amplitudes"] is not None:
        lines.append("amplitudes: " + " ".join(
            f"{name}={re:.6f}{im:+.6f}j"
            for name, (re, im) in zip("abc", report["amplitudes"])))
    flag = predictions["flag"]
    return lines + [
        "joint outcome probabilities, conditional on the settings:",
        f"  P(ML1- and MR1+ | ML1, MR1) = {predictions['s1']:.6e}",
        f"  P(ML1+ and MR2- | ML1, MR2) = {predictions['s2']:.6e}",
        f"  P(ML2+ and MR1- | ML2, MR1) = {predictions['s3']:.6e}",
        f"  P(ML2+ and MR2- | ML2, MR2) = {predictions['s4']:.6f}",
        "state pattern: "
        + ("confirmed" if predictions["is_hardy"] else "FAILED")
        + (f" ({flag})" if flag else ""),
        _no_signaling_line(report)]


def _locality_text(report: dict) -> list[str]:
    return [*_verdict_lines("ML1", report["ml1"]), "",
            *_verdict_lines("ML2", report["ml2"]), "",
            _no_signaling_line(report),
            "verdict flips with the distant setting while marginals stay put: "
            + ("demonstrated" if report["demonstrated"] else "NOT demonstrated")]


def _sweep_text(report: dict) -> list[str]:
    lines = [f"{'parameter':>10}  {'s4':>10}  {'P(MR2+|ML2+)':>13}  "
             f"{'P(MR2-|ML2+)':>13}  {'ML1 verdict':<17}  {'ML2 verdict':<10}"]
    for row in report["rows"]:
        ml1 = _verdict_name(row["verdict_ml1_kind"], row["verdict_ml1_outcome"])
        lines.append(
            f"{row['parameter']:>10.6f}  {row['s4']:>10.6f}  "
            f"{row['p_mr2_plus_given_ml2_plus']:>13.6e}  "
            f"{row['p_mr2_minus_given_ml2_plus']:>13.6e}  "
            f"{ml1:<17}  {row['verdict_ml2_kind']:<10}")
    return lines


def _maximum_text(report: dict) -> list[str]:
    return [f"family: {report['family']}",
            f"maximum P(ML2+ and MR2- | ML2, MR2) = {report['s4']:.6f} "
            f"at parameter {report['parameter']:.6f}",
            f"({report['evaluations']} scenario evaluations)"]


# the lines of text of each report kind
_TEXT = {
    "consistency-report": _consistency_text,
    "hardy-report": _hardy_text,
    "counterfactual-report":
        lambda report: _verdict_lines(report["setting"], report["verdict"]),
    "locality-report": _locality_text,
    "sweep-report": _sweep_text,
    "s4-maximum": _maximum_text,
}
# the CSV columns of each report kind that has a CSV form; a sweep report
# has one CSV row per sweep row, an s4-maximum is one row itself
_CSV_COLUMNS = {
    "sweep-report": ("parameter", "s4", "p_mr2_plus_given_ml2_plus",
                     "p_mr2_minus_given_ml2_plus", "verdict_ml1_kind",
                     "verdict_ml1_outcome", "verdict_ml2_kind", "is_hardy"),
    "s4-maximum": ("family", "parameter", "s4", "evaluations"),
}


def _render(report: dict, fmt: str) -> str:
    """``report`` as ``fmt``: "json" dumps it; "text" and "csv" read it alone."""
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        columns = _CSV_COLUMNS[report["kind"]]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row[column] for column in columns]
                         for row in report.get("rows", [report]))
        return buffer.getvalue()
    return "\n".join(_TEXT[report["kind"]](report)) + "\n"


# -- demo family --------------------------------------------------------------


def _xzx_demo_tree() -> FrameworkTree:
    """Qubit prepared along +z, then measured x, z, x: a textbook
    inconsistent family (worst off-diagonal exactly 1/8)."""
    s = 1.0 / math.sqrt(2.0)
    x_plus = np.array([s, s])
    x_minus = np.array([s, -s])
    z_plus = np.array([1.0, 0.0])
    z_minus = np.array([0.0, 1.0])
    x_layer = [("x+", Projector(outer(x_plus))), ("x-", Projector(outer(x_minus)))]
    z_layer = [("z+", Projector(outer(z_plus))), ("z-", Projector(outer(z_minus)))]
    grid = TimeGrid.identity((0.0, 1.0, 2.0, 3.0), 2)
    return build_tree(grid, [x_layer, z_layer, x_layer], StateVector(z_plus))


# -- subcommand handlers ------------------------------------------------------
# Each builds its report, writes it rendered, and reads its exit code from it.


def _cmd_consistency(args) -> int:
    config = load_config(args.config)
    if args.demo == "xzx":
        tree = _xzx_demo_tree()
        consistency = tree_consistency(tree, config.tolerances.consistency)
        source, mode, dim = "demo:xzx", None, tree.dim
    else:
        scenario = _scenario_from(config)
        consistency = scenario.consistency
        source, mode, dim = "scenario", scenario.mode, scenario.dim
    worst = None
    if consistency.worst is not None:
        block, g, k, magnitude = consistency.worst
        worst = {"magnitude": magnitude, "choice_assignment": list(block),
                 "indices": [g, k]}
        if consistency.worst_paths is not None:
            worst["paths"] = [list(p) for p in consistency.worst_paths]
    blocks = []
    for key, block_report in consistency.blocks:
        blocks.append({
            "choice_assignment": list(key),
            "histories": int(block_report.matrix.shape[0]),
            "consistent": block_report.consistent,
            "worst_offdiagonal": (None if block_report.worst_offdiagonal is None
                                  else block_report.worst_offdiagonal[2]),
        })
    report = _envelope("consistency-report", {
        "source": source,
        "mode": mode,
        "dim": dim,
        "tolerance": consistency.tol,
        "consistent": consistency.consistent,
        "verdict": consistency.verdict,
        "worst": worst,
        "blocks": blocks,
    })
    _write_output(_render(report, "json" if args.json else "text"))
    return EXIT_OK if report["consistent"] else EXIT_INCONSISTENT


def _cmd_hardy(args) -> int:
    scenario = _scenario_from(load_config(args.config))
    predictions = verify_hardy_predictions(scenario)
    report = _scenario_report("hardy-report", scenario, {
        "strict": (None if scenario.amplitudes is None
                   else scenario.amplitudes.is_strict),
        "choice_weights": [list(w) for w in scenario.choice_weights],
        "predictions": {
            "s1": predictions.s1, "s2": predictions.s2, "s3": predictions.s3,
            "s4": predictions.s4, "tol": predictions.tol,
            "zeros_pass": predictions.zeros_pass, "s4_pass": predictions.s4_pass,
            "is_hardy": predictions.is_hardy, "flag": predictions.flag},
        "no_signaling": _no_signaling_json(no_signaling_report(scenario)),
        "joint": {",".join(key): value
                  for key, value in joint_probability_table(scenario).items()},
    })
    _write_output(_render(report, "json" if args.json else "text"))
    return EXIT_OK if report["predictions"]["is_hardy"] else EXIT_NOT_HARDY


def _cmd_counterfactual(args) -> int:
    scenario = _scenario_from(load_config(args.config))
    if args.both:
        locality = locality_report(scenario)
        report = _scenario_report("locality-report", scenario, {
            "ml1": _verdict_json(locality.verdict_ml1),
            "ml2": _verdict_json(locality.verdict_ml2),
            "no_signaling": _no_signaling_json(locality.no_signaling),
            "demonstrated": locality.demonstrated,
        })
    else:
        verdict = evaluate_switch_counterfactual(scenario, args.setting)
        report = _scenario_report("counterfactual-report", scenario, {
            "setting": args.setting, "verdict": _verdict_json(verdict)})
    _write_output(_render(report, "json" if args.json else "text"))
    return EXIT_OK


DEFAULT_SWEEP_VALUES = "0.5,0.1,0.01"


def _parse_values(raw: str, family: str) -> list[float]:
    try:
        values = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values {raw!r}: {exc}") from exc
    if not values:
        raise ConfigError("sweep needs at least one parameter value")
    lo, hi = FAMILY_RANGES[family]
    for value in values:
        if not lo < value < hi:  # NaN fails both comparisons
            raise ConfigError(
                f"sweep value {value!r} lies outside the open range "
                f"({lo:g}, {hi:g}) of family {family!r}")
    return values


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    mode = args.mode or (config.mode if args.config else "particle")
    family = args.family or ("equal_tail" if args.maximize_s4
                             else "symmetric_outer")
    if args.maximize_s4:
        if args.values is not None:
            raise ConfigError("--values has no effect with --maximize-s4, "
                              "which searches the family's whole range")
        report = _envelope("s4-maximum", _sweep_json(maximize_s4(
            family=family, mode=mode, tolerances=config.tolerances)))
    else:
        values = DEFAULT_SWEEP_VALUES if args.values is None else args.values
        rows = parameter_sweep(_parse_values(values, family), family=family,
                               mode=mode, choice_weights=config.choice_weights,
                               tolerances=config.tolerances)
        report = _envelope("sweep-report", {
            "family": family, "mode": mode,
            "rows": [_sweep_json(row) for row in rows]})
    _write_output(_render(report, args.format), args.out)
    return EXIT_OK


def _cmd_export(args) -> int:
    scenario = _scenario_from(load_config(args.config))
    tree = scenario.unpruned_tree if args.no_prune else scenario.tree
    _write_output(export_tree(tree, args.format), args.out)
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chainlogic",
        description="Consistent-histories engine with a two-qubit "
                    "counterfactual locality scenario.")
    parser.add_argument("--version", action="version",
                        version="%(prog)s " + _version())
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH",
                       help="JSON run configuration (schema 1)")

    p = sub.add_parser("consistency",
                       help="consistency verdict for the scenario tree "
                            "or a demo family")
    common(p)
    p.add_argument("--demo", choices=("xzx",),
                   help="evaluate a built-in demo family instead")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_consistency)

    p = sub.add_parser("hardy",
                       help="joint-probability pattern and no-signaling check")
    common(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_hardy)

    p = sub.add_parser("counterfactual",
                       help="switch counterfactual: MR2 instead of an "
                            "actual MR1+ record")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--setting", choices=("ML1", "ML2"),
                       help="left setting held fixed in the premise")
    group.add_argument("--both", action="store_true",
                       help="evaluate both left settings and the "
                            "no-signaling contrast")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_counterfactual)

    p = sub.add_parser(
        "sweep", help="scan amplitude families",
        description="Scan an amplitude family.  From --config it reads mode "
                    "(unless --mode is given), tolerances and choice_weights; "
                    "--maximize-s4 reads only mode and tolerances, and "
                    "completion_seed is validated but unused.")
    common(p)
    p.add_argument("--values",
                   help="comma-separated family parameters, each inside "
                        f"the family's open range (default: {DEFAULT_SWEEP_VALUES}); "
                        "refused with --maximize-s4")
    p.add_argument("--family", choices=FAMILIES,
                   help="amplitude family (default: symmetric_outer; "
                        "equal_tail when maximizing)")
    p.add_argument("--mode", choices=("particle", "apparatus"),
                   help="scenario mode per sweep point (default: the "
                        "config's mode with --config, else particle)")
    p.add_argument("--maximize-s4", action="store_true",
                   help="maximize the fourth joint probability instead "
                        "of sweeping")
    p.add_argument("--format", choices=("text", "csv", "json"),
                   default="text", help="output format")
    p.add_argument("--out", metavar="PATH", help="write output to a file")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("export", help="export the scenario tree")
    common(p)
    p.add_argument("--format", choices=("dot", "json"), default="dot",
                   help="output format")
    p.add_argument("--no-prune", action="store_true",
                   help="export the tree before zero branches are removed")
    p.add_argument("--out", metavar="PATH", help="write output to a file")
    p.set_defaults(func=_cmd_export)
    return parser


def _version() -> str:
    from . import __version__
    return __version__


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; it holds no per-call state."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"chainlogic: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotAHardyStateError as exc:
        print(f"chainlogic: {exc}", file=sys.stderr)
        return EXIT_NOT_HARDY
    except NumericalFaultError as exc:
        print(f"chainlogic: numerical fault: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE
    except InternalConsistencyError as exc:
        print(f"chainlogic: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except OSError as exc:
        print(f"chainlogic: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ChainLogicError as exc:
        print(f"chainlogic: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
