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
precision, so identical runs produce byte-identical reports.
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
from typing import Iterable

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
    PredictionReport,
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
from .tree import FrameworkTree, TreeConsistencyReport, build_tree, export_tree, tree_consistency

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


# -- serialization helpers ----------------------------------------------------


def _envelope(kind: str, payload: dict) -> dict:
    return {"schema": REPORT_SCHEMA_VERSION, "kind": kind, **payload}


def _emit(obj: dict) -> int:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _amps_json(amplitudes: HardyAmplitudes | None):
    if amplitudes is None:
        return None
    return [[x.real, x.imag] for x in amplitudes.triple]


def _consistency_json(report: TreeConsistencyReport, *, source: str,
                      dim: int, mode: str | None) -> dict:
    worst = None
    if report.worst is not None:
        block, g, k, magnitude = report.worst
        worst = {"magnitude": magnitude, "choice_assignment": list(block),
                 "indices": [g, k]}
        if report.worst_paths is not None:
            worst["paths"] = [list(p) for p in report.worst_paths]
    blocks = []
    for key, block_report in report.blocks:
        blocks.append({
            "choice_assignment": list(key),
            "histories": int(block_report.matrix.shape[0]),
            "consistent": block_report.consistent,
            "worst_offdiagonal": (None if block_report.worst_offdiagonal is None
                                  else block_report.worst_offdiagonal[2]),
        })
    return _envelope("consistency-report", {
        "source": source,
        "mode": mode,
        "dim": dim,
        "tolerance": report.tol,
        "consistent": report.consistent,
        "verdict": report.verdict,
        "worst": worst,
        "blocks": blocks,
    })


def _predictions_json(report: PredictionReport) -> dict:
    return {"s1": report.s1, "s2": report.s2, "s3": report.s3, "s4": report.s4,
            "tol": report.tol, "zeros_pass": report.zeros_pass,
            "s4_pass": report.s4_pass, "is_hardy": report.is_hardy,
            "flag": report.flag}


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


def _fmt_verdict(verdict: CounterfactualVerdict) -> str:
    if verdict.kind == "necessary":
        return f"necessary({verdict.outcome})"
    return verdict.kind


def _print_verdict(setting: str, verdict: CounterfactualVerdict) -> None:
    print(f"left setting {setting}: had the right side measured MR2 "
          "(actual record: MR1 with outcome MR1+)")
    print(f"  verdict: {_fmt_verdict(verdict)}")
    print(f"  premise probability: {verdict.premise_probability:.6f}")
    for pivot in verdict.pivots:
        outcomes = "  ".join(f"{label} {p:.6f}"
                             for label, p in sorted(pivot.outcomes.items()))
        print(f"  pivot {' / '.join(pivot.path)}   "
              f"posterior {pivot.posterior:.6f}")
        print(f"    {outcomes}")
    if verdict.impossible_outcomes:
        print(f"  impossible: {', '.join(verdict.impossible_outcomes)}")


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


def _cmd_consistency(args) -> int:
    config = load_config(args.config)
    if args.demo == "xzx":
        tree = _xzx_demo_tree()
        report = tree_consistency(tree, config.tolerances.consistency)
        source, mode, dim = "demo:xzx", None, tree.dim
    else:
        scenario = _scenario_from(config)
        report = scenario.consistency
        source, mode, dim = "scenario", scenario.mode, scenario.dim
    if args.json:
        _emit(_consistency_json(report, source=source, dim=dim, mode=mode))
    else:
        histories = sum(r.matrix.shape[0] for _, r in report.blocks)
        print(f"source: {source}" + (f" ({mode} mode)" if mode else ""))
        print(f"dim: {dim}   histories: {histories}   "
              f"blocks: {len(report.blocks)}")
        print(f"tolerance: {report.tol:.6e}")
        print(f"verdict: {report.verdict}")
        if report.worst is not None:
            print(f"worst off-diagonal: {report.worst_magnitude:.6e}")
            if not report.consistent and report.worst_paths is not None:
                first, second = report.worst_paths
                print(f"  between: {' / '.join(first)}")
                print(f"  and:     {' / '.join(second)}")
    return EXIT_OK if report.consistent else EXIT_INCONSISTENT


def _cmd_hardy(args) -> int:
    config = load_config(args.config)
    scenario = _scenario_from(config)
    predictions = verify_hardy_predictions(scenario)
    signaling = no_signaling_report(scenario)
    joint = joint_probability_table(scenario)
    if args.json:
        _emit(_envelope("hardy-report", {
            "mode": scenario.mode,
            "dim": scenario.dim,
            "amplitudes": _amps_json(scenario.amplitudes),
            "strict": (None if scenario.amplitudes is None
                       else scenario.amplitudes.is_strict),
            "choice_weights": [list(w) for w in scenario.choice_weights],
            "predictions": _predictions_json(predictions),
            "no_signaling": _no_signaling_json(signaling),
            "joint": {",".join(key): value for key, value in joint.items()},
        }))
    else:
        print(f"scenario: {scenario.mode} mode, dim {scenario.dim}")
        if scenario.amplitudes is not None:
            a, b, c = scenario.amplitudes.triple
            print(f"amplitudes: a={a.real:.6f}{a.imag:+.6f}j "
                  f"b={b.real:.6f}{b.imag:+.6f}j c={c.real:.6f}{c.imag:+.6f}j")
        print("joint outcome probabilities, conditional on the settings:")
        print(f"  P(ML1- and MR1+ | ML1, MR1) = {predictions.s1:.6e}")
        print(f"  P(ML1+ and MR2- | ML1, MR2) = {predictions.s2:.6e}")
        print(f"  P(ML2+ and MR1- | ML2, MR1) = {predictions.s3:.6e}")
        print(f"  P(ML2+ and MR2- | ML2, MR2) = {predictions.s4:.6f}")
        print(f"state pattern: "
              f"{'confirmed' if predictions.is_hardy else 'FAILED'}"
              + (f" ({predictions.flag})" if predictions.flag else ""))
        print(f"no-signaling: max marginal discrepancy "
              f"{signaling.max_discrepancy:.6e} "
              f"({'ok' if signaling.passes else 'VIOLATED'})")
    return EXIT_OK if predictions.is_hardy else EXIT_NOT_HARDY


def _cmd_counterfactual(args) -> int:
    config = load_config(args.config)
    scenario = _scenario_from(config)
    if args.both:
        report = locality_report(scenario)
        if args.json:
            _emit(_envelope("locality-report", {
                "mode": scenario.mode,
                "dim": scenario.dim,
                "amplitudes": _amps_json(scenario.amplitudes),
                "ml1": _verdict_json(report.verdict_ml1),
                "ml2": _verdict_json(report.verdict_ml2),
                "no_signaling": _no_signaling_json(report.no_signaling),
                "demonstrated": report.demonstrated,
            }))
        else:
            _print_verdict("ML1", report.verdict_ml1)
            print()
            _print_verdict("ML2", report.verdict_ml2)
            print()
            print(f"no-signaling: max marginal discrepancy "
                  f"{report.no_signaling.max_discrepancy:.6e} "
                  f"({'ok' if report.no_signaling.passes else 'VIOLATED'})")
            print("verdict flips with the distant setting while marginals "
                  "stay put: "
                  + ("demonstrated" if report.demonstrated else "NOT demonstrated"))
        return EXIT_OK
    verdict = evaluate_switch_counterfactual(scenario, args.setting)
    if args.json:
        _emit(_envelope("counterfactual-report", {
            "mode": scenario.mode,
            "dim": scenario.dim,
            "amplitudes": _amps_json(scenario.amplitudes),
            "setting": args.setting,
            "verdict": _verdict_json(verdict),
        }))
    else:
        _print_verdict(args.setting, verdict)
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


def _sweep_text(rows: tuple[SweepRow, ...]) -> str:
    header = (f"{'parameter':>10}  {'s4':>10}  {'P(MR2+|ML2+)':>13}  "
              f"{'P(MR2-|ML2+)':>13}  {'ML1 verdict':<17}  {'ML2 verdict':<10}")
    lines = [header]
    for row in rows:
        ml1 = (f"necessary({row.verdict_ml1_outcome})"
               if row.verdict_ml1_kind == "necessary" else row.verdict_ml1_kind)
        lines.append(
            f"{row.parameter:>10.6f}  {row.s4:>10.6f}  "
            f"{row.p_mr2_plus_given_ml2_plus:>13.6e}  "
            f"{row.p_mr2_minus_given_ml2_plus:>13.6e}  "
            f"{ml1:<17}  {row.verdict_ml2_kind:<10}")
    return "\n".join(lines) + "\n"


_SWEEP_CSV_COLUMNS = ("parameter", "s4", "p_mr2_plus_given_ml2_plus",
                      "p_mr2_minus_given_ml2_plus", "verdict_ml1_kind",
                      "verdict_ml1_outcome", "verdict_ml2_kind", "is_hardy")
_MAXIMUM_CSV_COLUMNS = ("family", "parameter", "s4", "evaluations")


def _sweep_csv(columns: tuple[str, ...],
               results: Iterable[SweepRow | S4Maximum]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for result in results:
        writer.writerow([getattr(result, column) for column in columns])
    return buffer.getvalue()


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    mode = args.mode or (config.mode if args.config else "particle")
    family = args.family or ("equal_tail" if args.maximize_s4
                             else "symmetric_outer")
    if args.maximize_s4:
        if args.values is not None:
            raise ConfigError("--values has no effect with --maximize-s4, "
                              "which searches the family's whole range")
        result = maximize_s4(family=family, mode=mode,
                             tolerances=config.tolerances)
        if args.format == "json":
            text = json.dumps(_envelope("s4-maximum", _sweep_json(result)),
                              sort_keys=True, indent=2) + "\n"
        elif args.format == "csv":
            text = _sweep_csv(_MAXIMUM_CSV_COLUMNS, [result])
        else:
            text = (f"family: {result.family}\n"
                    f"maximum P(ML2+ and MR2- | ML2, MR2) = {result.s4:.6f} "
                    f"at parameter {result.parameter:.6f}\n"
                    f"({result.evaluations} scenario evaluations)\n")
        _write_output(text, args.out)
        return EXIT_OK
    values = DEFAULT_SWEEP_VALUES if args.values is None else args.values
    rows = parameter_sweep(_parse_values(values, family), family=family,
                           mode=mode, choice_weights=config.choice_weights,
                           tolerances=config.tolerances)
    if args.format == "json":
        obj = _envelope("sweep-report", {
            "family": family,
            "mode": mode,
            "rows": [_sweep_json(row) for row in rows],
        })
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        text = _sweep_csv(_SWEEP_CSV_COLUMNS, rows)
    else:
        text = _sweep_text(rows)
    _write_output(text, args.out)
    return EXIT_OK


def _cmd_export(args) -> int:
    config = load_config(args.config)
    scenario = _scenario_from(config)
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
