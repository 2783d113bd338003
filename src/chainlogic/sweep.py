"""Parameter exploration over amplitude families.

Two one-parameter real families cover the interesting regimes:

  * ``symmetric_outer``: a = c, parametrized by the middle amplitude b.
    Shrinking b suppresses the probability that the switch counterfactual
    under ML2 ends in MR2-, while the ML1 verdict stays pinned at
    necessary(MR2+), so the contrast survives arbitrarily close to the
    degenerate edge.
  * ``equal_tail``: b = c, the family on which the fourth joint probability
    attains its global maximum.

Every number in a sweep row is read off a freshly built scenario tree; the
closed forms live in the test oracles only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .counterfactual import CounterfactualVerdict, evaluate_switch_counterfactual
from .hardy import (
    DEFAULT_CHOICE_WEIGHTS,
    ChoiceWeights,
    HardyAmplitudes,
    HardyScenario,
    build_measurement_scenario,
    verify_hardy_predictions,
)
from .qm import Tolerances

# Each family's parameter range, open at both ends (see HardyAmplitudes).
FAMILY_RANGES = {"symmetric_outer": (0.0, 1.0),
                 "equal_tail": (0.0, math.sqrt(0.5))}
FAMILIES = tuple(FAMILY_RANGES)


def family_amplitudes(family: str, parameter: float) -> HardyAmplitudes:
    if family == "symmetric_outer":
        return HardyAmplitudes.symmetric_outer(parameter)
    if family == "equal_tail":
        return HardyAmplitudes.equal_tail(parameter)
    raise ValueError(f"unknown amplitude family {family!r}")


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: headline probabilities and both switch verdicts."""

    parameter: float
    amplitudes: HardyAmplitudes
    s4: float
    p_mr2_plus_given_ml2_plus: float
    p_mr2_minus_given_ml2_plus: float
    verdict_ml1_kind: str
    verdict_ml1_outcome: str | None
    verdict_ml2_kind: str
    is_hardy: bool


def _row_from_scenario(parameter: float, scenario: HardyScenario) -> SweepRow:
    predictions = verify_hardy_predictions(scenario)
    verdict_ml1 = evaluate_switch_counterfactual(scenario, "ML1")
    verdict_ml2 = evaluate_switch_counterfactual(scenario, "ML2")
    pivot = verdict_ml2.pivot(("ML2", "ML2+"))
    return SweepRow(
        parameter=parameter,
        amplitudes=scenario.amplitudes,
        s4=predictions.s4,
        p_mr2_plus_given_ml2_plus=pivot.outcomes.get("MR2+", 0.0),
        p_mr2_minus_given_ml2_plus=pivot.outcomes.get("MR2-", 0.0),
        verdict_ml1_kind=verdict_ml1.kind,
        verdict_ml1_outcome=verdict_ml1.outcome,
        verdict_ml2_kind=verdict_ml2.kind,
        is_hardy=predictions.is_hardy)


def parameter_sweep(values: Iterable[float], *,
                    family: str = "symmetric_outer",
                    mode: str = "particle",
                    choice_weights: ChoiceWeights = DEFAULT_CHOICE_WEIGHTS,
                    tolerances: Tolerances = Tolerances()) -> tuple[SweepRow, ...]:
    """Build one scenario per value and collect the headline quantities.

    Values are parameters of ``family``; the default particle mode keeps
    each point cheap.
    """
    rows = []
    for value in values:
        parameter = float(value)
        amps = family_amplitudes(family, parameter)
        scenario = build_measurement_scenario(
            amps, mode=mode, choice_weights=choice_weights,
            tolerances=tolerances)
        rows.append(_row_from_scenario(parameter, scenario))
    return tuple(rows)


@dataclass(frozen=True)
class S4Maximum:
    """Result of maximizing the fourth joint probability over a family."""

    family: str
    parameter: float
    amplitudes: HardyAmplitudes
    s4: float
    evaluations: int


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Points of the coarse grid laid over a family's parameter range.
S4_COARSE_POINTS = 129
# Golden-section refinement stops once the bracket is this narrow.
S4_PARAMETER_TOL = 1e-8
# Distance kept from both ends of a family's parameter range.
S4_BRACKET_MARGIN = 1e-6


def maximize_s4(*, family: str = "equal_tail", mode: str = "particle",
                tolerances: Tolerances = Tolerances()) -> S4Maximum:
    """Coarse grid plus golden-section refinement of the fourth joint.

    Every evaluation builds a scenario and reads the probability from its
    tree, so the optimum certifies the engine rather than a formula.
    """
    if family not in FAMILY_RANGES:
        raise ValueError(f"unknown amplitude family {family!r}")
    lo, hi = FAMILY_RANGES[family]
    lo, hi = lo + S4_BRACKET_MARGIN, hi - S4_BRACKET_MARGIN

    evaluations = 0

    def s4_at(parameter: float) -> float:
        nonlocal evaluations
        evaluations += 1
        scenario = build_measurement_scenario(
            family_amplitudes(family, parameter), mode=mode,
            tolerances=tolerances)
        return verify_hardy_predictions(scenario).s4

    step = (hi - lo) / (S4_COARSE_POINTS - 1)
    grid = [lo + i * step for i in range(S4_COARSE_POINTS)]
    values = [s4_at(p) for p in grid]
    best = max(range(S4_COARSE_POINTS), key=values.__getitem__)
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, S4_COARSE_POINTS - 1)]

    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = s4_at(x1), s4_at(x2)
    while b - a > S4_PARAMETER_TOL:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = s4_at(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = s4_at(x1)
    parameter = (a + b) / 2.0
    return S4Maximum(family=family, parameter=parameter,
                     amplitudes=family_amplitudes(family, parameter),
                     s4=s4_at(parameter), evaluations=evaluations)
