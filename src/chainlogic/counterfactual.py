"""Counterfactual branch substitution on a framework tree.

A counterfactual query conditions on an actually realized set of branches
(the premise), rewinds to the node just before a chosen pivot time, replaces
the event at the pivot with a declared alternative from the same schedule,
and asks how the remaining branches then turn out.

The rules are mechanical:

  * every label in play (premise, alternative, targets) must belong to this
    one tree's declared schedule; importing a label from some other
    decomposition raises ``FrameworkViolationError``.  As for
    ``enforce_single_framework``, labels offered only under pruned zero-weight
    branches belong: a premise on one is vacuous, a target on one impossible;
  * the premise must carry positive probability, otherwise conditioning is
    undefined and ``VacuousPremiseError`` is raised;
  * when several pre-pivot branches are compatible with the premise, each is
    a pivot in its own right, weighted by its posterior probability given
    the premise.  An outcome is *necessary* only when every pivot forces it,
    and *impossible* only when no pivot can reach it.

That last clause is the whole point: whether a counterfactual conclusion
survives depends on how much of the actual outcome record pins down the
branch at the pivot time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (
    FrameworkViolationError,
    NotAHardyStateError,
    VacuousPremiseError,
)
from .hardy import (
    HardyScenario,
    NoSignalingReport,
    no_signaling_report,
)
from .qm import SPECTRAL_TOL
from .tree import BranchNode, BranchPath, FrameworkTree, _apply_event

SUFFIX_SEPARATOR = " / "


@dataclass(frozen=True)
class CounterfactualQuery:
    """What would have happened at ``pivot_time`` under ``alternative``?

    ``premise`` maps time indices to the labels actually realized there; it
    may constrain times at or after the pivot (those describe the actual
    record, not the counterfactual one).  ``targets`` optionally restricts
    which counterfactual outcomes are classified.
    """

    premise: Mapping[int, str]
    pivot_time: int
    alternative: str
    targets: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        premise = {int(t): str(label) for t, label in dict(self.premise).items()}
        if any(t < 1 for t in premise):
            raise ValueError("premise time indices must be >= 1")
        object.__setattr__(self, "premise", premise)
        object.__setattr__(self, "pivot_time", int(self.pivot_time))
        if self.pivot_time < 1:
            raise ValueError("pivot time index must be >= 1")
        object.__setattr__(self, "alternative", str(self.alternative))
        if not self.alternative:
            raise ValueError("alternative label must be non-empty")
        if self.targets is not None:
            object.__setattr__(
                self, "targets", tuple(str(t) for t in self.targets))


@dataclass(frozen=True)
class PivotPath:
    """A pre-pivot branch compatible with the premise.

    ``posterior`` is its probability given the premise; ``outcomes`` maps
    counterfactual continuation labels (times after the pivot, joined with
    ``SUFFIX_SEPARATOR``) to probabilities conditional on this pivot and on
    the alternative being taken.  Empty until the alternative is evaluated.
    """

    path: BranchPath
    posterior: float
    outcomes: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class CounterfactualVerdict:
    """Classification of the counterfactual continuations.

    ``kind`` is ``"necessary"`` when one outcome is forced on every pivot
    (that outcome is then ``outcome``), else ``"possible"``.
    ``distribution`` is the posterior-weighted mixture over pivots.
    """

    kind: str
    outcome: str | None
    pivots: tuple[PivotPath, ...]
    impossible_outcomes: tuple[str, ...]
    distribution: Mapping[str, float]
    premise_probability: float
    tol: float

    @property
    def is_necessary(self) -> bool:
        return self.kind == "necessary"

    def pivot(self, path: BranchPath) -> PivotPath:
        for pivot in self.pivots:
            if pivot.path == tuple(path):
                return pivot
        raise KeyError(tuple(path))


def _check_labels_in_framework(tree: FrameworkTree,
                               query: CounterfactualQuery) -> None:
    # (time index, label) of every member the schedule declares under some
    # grown prefix, pruned ones included
    declared = {(len(path), path[-1]) for path in tree.grown if path}
    for t, label in sorted(query.premise.items()):
        if t > tree.depth:
            raise FrameworkViolationError(
                f"premise time index {t} exceeds tree depth {tree.depth}")
        if (t, label) not in declared:
            raise FrameworkViolationError(
                f"premise label {label!r} at time index {t} is not part of "
                "this framework", path=(label,))
    if query.pivot_time > tree.depth:
        raise FrameworkViolationError(
            f"pivot time index {query.pivot_time} exceeds tree depth {tree.depth}")
    if (query.pivot_time, query.alternative) not in declared:
        raise FrameworkViolationError(
            f"alternative label {query.alternative!r} is not part of this "
            f"framework at time index {query.pivot_time}",
            path=(query.alternative,))
    if query.targets is not None:
        later = {label for t, label in declared if t > query.pivot_time}
        for target in query.targets:
            for segment in target.split(SUFFIX_SEPARATOR):
                if segment not in later:
                    raise FrameworkViolationError(
                        f"target label {segment!r} is not part of this "
                        "framework after the pivot", path=(segment,))


def find_pivot(tree: FrameworkTree, query: CounterfactualQuery,
               tol: float = SPECTRAL_TOL) -> tuple[PivotPath, ...]:
    """Pre-pivot branches compatible with the premise, with posteriors.

    Outcome maps are left empty here; ``evaluate_counterfactual`` fills
    them.  Raises ``VacuousPremiseError`` when the premise carries no
    probability and ``FrameworkViolationError`` on any foreign label.
    """
    return _premise_pivots(tree, query, tol)[1]


def _premise_pivots(tree: FrameworkTree, query: CounterfactualQuery,
                    tol: float) -> tuple[float, tuple[PivotPath, ...]]:
    """(premise probability, ``find_pivot``'s pivots) from one leaf scan."""
    _check_labels_in_framework(tree, query)
    matching = []
    for leaf in tree.leaves():
        if len(leaf.path) < tree.depth:
            continue
        if all(leaf.path[t - 1] == label for t, label in query.premise.items()):
            matching.append(leaf)
    total = sum(leaf.prob for leaf in matching)
    if total <= tol or total <= 0.0:  # no weight is vacuous at any tol
        raise VacuousPremiseError(
            f"premise {dict(sorted(query.premise.items()))!r} has probability "
            f"{total:.3e}; conditioning on it is undefined")
    byprefix: dict[BranchPath, float] = {}
    for leaf in matching:
        prefix = leaf.path[:query.pivot_time - 1]
        byprefix[prefix] = byprefix.get(prefix, 0.0) + leaf.prob
    return total, tuple(PivotPath(path=prefix, posterior=weight / total)
                        for prefix, weight in sorted(byprefix.items()))


def _counterfactual_outcomes(tree: FrameworkTree, pivot: PivotPath,
                             query: CounterfactualQuery) -> dict[str, float]:
    try:
        alternative = tree.schedule_member(query.pivot_time, pivot.path,
                                           query.alternative)
    except KeyError:
        raise FrameworkViolationError(
            f"alternative {query.alternative!r} is not offered at time index "
            f"{query.pivot_time} under branch {pivot.path!r}",
            path=pivot.path) from None
    evolved = tree.grid.evolve(query.pivot_time, tree.grown[pivot.path].state)
    completions: list[tuple[tuple[str, ...], float]] = []
    _descend(tree, alternative, evolved, (), completions)
    total = sum(p for _, p in completions)
    if total <= 0.0:
        raise VacuousPremiseError(
            f"alternative {query.alternative!r} carries no probability under "
            f"pivot {pivot.path!r}")
    merged: dict[str, float] = {}
    for suffix, p in completions:
        key = SUFFIX_SEPARATOR.join(suffix) if suffix else query.alternative
        merged[key] = merged.get(key, 0.0) + p / total
    return merged


def _descend(tree: FrameworkTree, node: BranchNode, evolved: np.ndarray,
             suffix: tuple[str, ...],
             completions: list[tuple[tuple[str, ...], float]]) -> None:
    """Append every full-depth continuation of the grown ``node``, reached
    from a state already evolved to its time, to ``completions`` as (labels
    after the pivot, probability), in schedule order; the state after the
    node's event is evolved to the children's time once."""
    state, _, prob = _apply_event(evolved, node.projector, node.weight, evolved)
    if node.time_index == tree.depth:
        completions.append((suffix, prob))
        return
    evolved = tree.grid.evolve(node.time_index + 1, state)
    for child in node.children:
        _descend(tree, child, evolved, suffix + (child.label,), completions)


def evaluate_counterfactual(tree: FrameworkTree, query: CounterfactualQuery,
                            tol: float = SPECTRAL_TOL) -> CounterfactualVerdict:
    """Evaluate the query against the tree's own schedule.

    For each premise-compatible pivot the alternative branch is taken and
    all declared continuations are expanded; the verdict is ``necessary``
    for an outcome forced on every pivot (probability above ``1 - tol`` in
    each), and outcomes unreachable from every pivot (below ``tol`` in each)
    are reported as impossible.
    """
    premise_probability, found = _premise_pivots(tree, query, tol)
    pivots = tuple(
        PivotPath(path=p.path, posterior=p.posterior,
                  outcomes=_counterfactual_outcomes(tree, p, query))
        for p in found)

    candidates: set[str] = set()
    for pivot in pivots:
        candidates |= set(pivot.outcomes)
    if query.targets is not None:
        candidates = set(query.targets)

    necessary: list[str] = []
    impossible: list[str] = []
    for outcome in sorted(candidates):
        values = [pivot.outcomes.get(outcome, 0.0) for pivot in pivots]
        if all(1.0 - v < tol for v in values):
            necessary.append(outcome)
        if all(v < tol for v in values):
            impossible.append(outcome)

    distribution = {
        outcome: sum(p.posterior * p.outcomes.get(outcome, 0.0) for p in pivots)
        for outcome in sorted(candidates)}
    if necessary:
        kind, outcome = "necessary", necessary[0]
    else:
        kind, outcome = "possible", None
    return CounterfactualVerdict(
        kind=kind, outcome=outcome, pivots=pivots,
        impossible_outcomes=tuple(impossible), distribution=distribution,
        premise_probability=premise_probability, tol=tol)


# -- scenario-level wrappers --------------------------------------------------

_SWITCH_PREMISE_TIME = 1
_RIGHT_SETTING_TIME = 3
_RIGHT_OUTCOME_TIME = 4


def evaluate_switch_counterfactual(scenario: HardyScenario,
                                   l_setting: str) -> CounterfactualVerdict:
    """Had the right side measured MR2 instead, given an actual MR1+ record.

    The premise fixes the left setting to ``l_setting`` and the right
    record to MR1 with outcome MR1+; the pivot sits at the right setting
    choice, so pre-pivot branches are (left setting, left outcome) pairs.
    """
    if l_setting not in ("ML1", "ML2"):
        raise ValueError(f"unknown left setting {l_setting!r}")
    query = CounterfactualQuery(
        premise={_SWITCH_PREMISE_TIME: l_setting,
                 _RIGHT_SETTING_TIME: "MR1",
                 _RIGHT_OUTCOME_TIME: "MR1+"},
        pivot_time=_RIGHT_SETTING_TIME,
        alternative="MR2",
        targets=("MR2+", "MR2-"))
    return evaluate_counterfactual(scenario.tree, query,
                                   scenario.tolerances.consistency)


@dataclass(frozen=True)
class LocalityReport:
    """The two switch counterfactuals side by side, with marginals.

    ``demonstrated`` is true when the far setting alone flips the verdict:
    under ML1 the outcome MR2+ is forced, under ML2 it is merely possible,
    while no outcome marginal on either side depends on the far setting.
    """

    verdict_ml1: CounterfactualVerdict
    verdict_ml2: CounterfactualVerdict
    no_signaling: NoSignalingReport
    demonstrated: bool

    def verdict(self, l_setting: str) -> CounterfactualVerdict:
        if l_setting == "ML1":
            return self.verdict_ml1
        if l_setting == "ML2":
            return self.verdict_ml2
        raise KeyError(l_setting)


def locality_report(scenario: HardyScenario) -> LocalityReport:
    """Run both switch counterfactuals and the no-signaling check.

    Requires a strict amplitude triple when the scenario was built from
    one; the contrast degenerates otherwise.
    """
    if scenario.amplitudes is not None and not scenario.amplitudes.is_strict:
        raise NotAHardyStateError(
            "the locality contrast needs a strict amplitude triple; at least "
            "one amplitude magnitude is below the floor")
    verdict_ml1 = evaluate_switch_counterfactual(scenario, "ML1")
    verdict_ml2 = evaluate_switch_counterfactual(scenario, "ML2")
    signaling = no_signaling_report(scenario)
    demonstrated = (
        verdict_ml1.kind == "necessary" and verdict_ml1.outcome == "MR2+"
        and verdict_ml2.kind == "possible"
        and signaling.passes)
    return LocalityReport(verdict_ml1=verdict_ml1, verdict_ml2=verdict_ml2,
                          no_signaling=signaling, demonstrated=demonstrated)
