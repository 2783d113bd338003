from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from chainlogic.counterfactual import (
    SUFFIX_SEPARATOR,
    CounterfactualQuery,
    _check_labels_in_framework,
    evaluate_counterfactual,
    evaluate_switch_counterfactual,
    find_pivot,
    locality_report,
)
from chainlogic.errors import (
    FrameworkViolationError,
    NotAHardyStateError,
    VacuousPremiseError,
)
from chainlogic.hardy import (
    HardyAmplitudes,
    _register_projector,
    build_measurement_scenario,
    hardy_settings,
    hardy_state,
)
from chainlogic.histories import TimeGrid
from chainlogic.qm import (
    SPECTRAL_TOL,
    Projector,
    StateVector,
    basis_state,
    outer,
)
from chainlogic.tree import (
    ClassicalChoice,
    FrameworkTree,
    build_tree,
    enforce_single_framework,
    prune_zero_branches,
)
from strategies import strict_triples

EQUAL = HardyAmplitudes.equal()
S = 1.0 / np.sqrt(2.0)


def switch_query(l_setting: str) -> CounterfactualQuery:
    return CounterfactualQuery(
        premise={1: l_setting, 3: "MR1", 4: "MR1+"},
        pivot_time=3, alternative="MR2", targets=("MR2+", "MR2-"))


def proj(v) -> Projector:
    return Projector(outer(np.asarray(v, dtype=complex)))


def x_layer():
    return [("x+", proj([S, S])), ("x-", proj([S, -S]))]


def z_layer():
    return [("z+", proj([1.0, 0.0])), ("z-", proj([0.0, 1.0]))]


def xzx_tree():
    grid = TimeGrid.identity((0.0, 1.0, 2.0, 3.0), 2)
    return build_tree(grid, [x_layer(), z_layer(), x_layer()],
                      basis_state(2, 0))


def forked_tree():
    # time-2 decomposition depends on the time-1 classical branch
    grid = TimeGrid.identity((0.0, 1.0, 2.0), 2)
    layers = [
        ClassicalChoice((("a", 0.5), ("b", 0.5))),
        lambda path: {"a": x_layer(), "b": z_layer()}[path[-1]],
    ]
    return build_tree(grid, layers, basis_state(2, 0))


def pruned_fork_tree():
    # the weight-0 "b" branch is pruned; "y+" and "y-" are declared only under it
    grid = TimeGrid.identity((0.0, 1.0, 2.0), 2)
    layers = [
        [("a", proj([1.0, 0.0])), ("b", proj([0.0, 1.0]))],
        lambda path: {"a": x_layer(),
                      "b": [("y+", proj([1.0, 0.0])),
                            ("y-", proj([0.0, 1.0]))]}[path[-1]],
    ]
    return prune_zero_branches(build_tree(grid, layers, basis_state(2, 0)))


def count_projectors(monkeypatch) -> list:
    """Record every ``Projector`` constructed from here on."""
    built: list = []
    original = Projector.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Projector, "__post_init__", counting)
    return built


@pytest.fixture(scope="module")
def equal_particle():
    return build_measurement_scenario(EQUAL, mode="particle")


@pytest.fixture(scope="module")
def equal_apparatus():
    return build_measurement_scenario(EQUAL, mode="apparatus")


class TestQueryValidation:
    def test_premise_times_start_at_one(self):
        with pytest.raises(ValueError, match="time indices"):
            CounterfactualQuery(premise={0: "a"}, pivot_time=1,
                                alternative="b")

    def test_pivot_time_starts_at_one(self):
        with pytest.raises(ValueError, match="pivot time"):
            CounterfactualQuery(premise={1: "a"}, pivot_time=0,
                                alternative="b")

    def test_alternative_must_be_nonempty(self):
        with pytest.raises(ValueError, match="non-empty"):
            CounterfactualQuery(premise={1: "a"}, pivot_time=1,
                                alternative="")

    def test_fields_are_coerced(self):
        query = CounterfactualQuery(premise={1: 2}, pivot_time=3,
                                    alternative=4, targets=[5, "x"])
        assert query.premise == {1: "2"}
        assert query.alternative == "4"
        assert query.targets == ("5", "x")


class TestFindPivot:
    def test_ml1_premise_has_single_pivot(self, equal_particle):
        pivots = find_pivot(equal_particle.tree, switch_query("ML1"))
        assert len(pivots) == 1
        assert pivots[0].path == ("ML1", "ML1+")
        assert pivots[0].posterior == pytest.approx(1.0, abs=1e-12)
        assert pivots[0].outcomes == {}

    def test_ml2_premise_has_two_pivots_sorted(self, equal_particle):
        pivots = find_pivot(equal_particle.tree, switch_query("ML2"))
        assert [p.path for p in pivots] == [("ML2", "ML2+"), ("ML2", "ML2-")]
        want = oracles.pivot_posteriors_ml2(*EQUAL.triple)
        assert pivots[0].posterior == pytest.approx(want[0], abs=1e-12)
        assert pivots[1].posterior == pytest.approx(want[1], abs=1e-12)
        assert pivots[0].posterior == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=20)
    @given(amps=strict_triples())
    def test_posteriors_match_oracle(self, amps):
        scenario = build_measurement_scenario(amps, mode="particle")
        pivots = find_pivot(scenario.tree, switch_query("ML2"))
        want = oracles.pivot_posteriors_ml2(*amps.triple)
        got = {p.path[-1]: p.posterior for p in pivots}
        assert got["ML2+"] == pytest.approx(want[0], abs=1e-10)
        assert got["ML2-"] == pytest.approx(want[1], abs=1e-10)

    def test_zero_probability_premise_is_vacuous(self, equal_particle):
        # the two-minus record is one of the vanishing joint outcomes
        query = CounterfactualQuery(
            premise={1: "ML1", 2: "ML1-", 3: "MR1", 4: "MR1+"},
            pivot_time=3, alternative="MR2")
        with pytest.raises(VacuousPremiseError, match="probability"):
            find_pivot(equal_particle.tree, query)

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_premise_with_no_leaf_is_vacuous_at_any_tolerance(
            self, equal_particle, tol):
        # ML1- / MR1+ is pruned: no full-depth leaf carries the premise
        query = CounterfactualQuery(
            premise={1: "ML1", 2: "ML1-", 3: "MR1", 4: "MR1+"},
            pivot_time=3, alternative="MR2")
        with pytest.raises(VacuousPremiseError, match="probability"):
            evaluate_counterfactual(equal_particle.tree, query, tol)


class TestFrameworkGuards:
    def test_foreign_premise_label(self, equal_particle):
        query = CounterfactualQuery(
            premise={1: "MX9", 3: "MR1", 4: "MR1+"},
            pivot_time=3, alternative="MR2")
        with pytest.raises(FrameworkViolationError,
                           match="not part of this framework"):
            find_pivot(equal_particle.tree, query)

    def test_premise_time_beyond_depth(self, equal_particle):
        query = CounterfactualQuery(premise={5: "MR1+"}, pivot_time=3,
                                    alternative="MR2")
        with pytest.raises(FrameworkViolationError, match="exceeds tree depth"):
            find_pivot(equal_particle.tree, query)

    def test_pivot_time_beyond_depth(self, equal_particle):
        query = CounterfactualQuery(premise={1: "ML1"}, pivot_time=5,
                                    alternative="MR2")
        with pytest.raises(FrameworkViolationError, match="exceeds tree depth"):
            find_pivot(equal_particle.tree, query)

    def test_foreign_alternative(self, equal_particle):
        query = CounterfactualQuery(premise={1: "ML1"}, pivot_time=3,
                                    alternative="MR9")
        with pytest.raises(FrameworkViolationError,
                           match="not part of this framework at time"):
            find_pivot(equal_particle.tree, query)

    def test_foreign_target(self, equal_particle):
        query = CounterfactualQuery(premise={1: "ML1"}, pivot_time=3,
                                    alternative="MR2", targets=("MR9+",))
        with pytest.raises(FrameworkViolationError, match="after the pivot"):
            find_pivot(equal_particle.tree, query)

    def test_alternative_not_offered_under_pivot(self):
        # "z+" is declared at time 2, but only under the "b" branch
        tree = forked_tree()
        query = CounterfactualQuery(premise={1: "a"}, pivot_time=2,
                                    alternative="z+")
        with pytest.raises(FrameworkViolationError, match="not offered"):
            evaluate_counterfactual(tree, query)

    def test_premise_declared_only_under_pruned_branch_is_vacuous(self):
        tree = pruned_fork_tree()
        assert tree.pruned == (("b",),)
        assert enforce_single_framework([("b", "y+")], tree) == ()
        query = CounterfactualQuery(premise={2: "y+"}, pivot_time=1,
                                    alternative="a")
        with pytest.raises(VacuousPremiseError):
            find_pivot(tree, query)

    def test_target_declared_only_under_pruned_branch_is_impossible(self):
        query = CounterfactualQuery(premise={1: "a"}, pivot_time=1,
                                    alternative="a", targets=("x+", "y+"))
        verdict = evaluate_counterfactual(pruned_fork_tree(), query)
        assert verdict.impossible_outcomes == ("y+",)
        assert verdict.distribution["x+"] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("scenario", ["equal_particle", "equal_apparatus"])
    def test_pruned_alternative_carries_no_probability(self, scenario, request):
        tree = request.getfixturevalue(scenario).tree
        assert ("ML1", "ML1-", "MR1", "MR1+") in tree.pruned
        query = CounterfactualQuery(
            premise={1: "ML1", 2: "ML1-", 3: "MR1", 4: "MR1-"},
            pivot_time=4, alternative="MR1+")
        with pytest.raises(VacuousPremiseError) as excinfo:
            evaluate_counterfactual(tree, query)
        assert str(excinfo.value) == (
            "alternative 'MR1+' carries no probability under pivot "
            "('ML1', 'ML1-', 'MR1')")

    def test_declared_labels_read_the_schedule_not_the_nodes(self):
        tree = replace(pruned_fork_tree(), root=None)

        def declared(time_index):
            found = set()
            for label in ("a", "b", "x+", "x-", "y+", "y-", "z"):
                query = CounterfactualQuery(premise={time_index: label},
                                            pivot_time=1, alternative="a")
                try:
                    _check_labels_in_framework(tree, query)
                except FrameworkViolationError:
                    continue
                found.add(label)
            return found

        assert declared(1) == {"a", "b"}
        assert declared(2) == {"x+", "x-", "y+", "y-"}


class TestSwitchVerdicts:
    def test_ml1_forces_mr2_plus(self, equal_particle):
        verdict = evaluate_switch_counterfactual(equal_particle, "ML1")
        assert verdict.kind == "necessary"
        assert verdict.is_necessary
        assert verdict.outcome == "MR2+"
        assert verdict.impossible_outcomes == ("MR2-",)
        assert len(verdict.pivots) == 1
        pivot = verdict.pivot(("ML1", "ML1+"))
        assert pivot.outcomes["MR2+"] == pytest.approx(1.0, abs=1e-12)
        assert pivot.outcomes["MR2-"] == pytest.approx(0.0, abs=1e-12)
        assert verdict.distribution["MR2+"] == pytest.approx(1.0, abs=1e-12)
        assert verdict.premise_probability == pytest.approx(1 / 12, abs=1e-12)

    def test_ml2_leaves_both_outcomes_open(self, equal_particle):
        verdict = evaluate_switch_counterfactual(equal_particle, "ML2")
        assert verdict.kind == "possible"
        assert not verdict.is_necessary
        assert verdict.outcome is None
        assert verdict.impossible_outcomes == ()
        assert len(verdict.pivots) == 2
        plus = verdict.pivot(("ML2", "ML2+"))
        minus = verdict.pivot(("ML2", "ML2-"))
        assert plus.outcomes["MR2-"] == pytest.approx(0.5, abs=1e-12)
        assert plus.outcomes["MR2+"] == pytest.approx(0.5, abs=1e-12)
        assert minus.outcomes["MR2+"] == pytest.approx(0.9, abs=1e-12)
        assert minus.outcomes["MR2-"] == pytest.approx(0.1, abs=1e-12)
        assert verdict.distribution["MR2+"] == pytest.approx(0.7, abs=1e-12)
        assert verdict.distribution["MR2-"] == pytest.approx(0.3, abs=1e-12)
        assert verdict.premise_probability == pytest.approx(1 / 12, abs=1e-12)

    def test_one_leaf_scan_per_query(self, equal_particle, monkeypatch):
        tree = equal_particle.tree
        # the premise total as a second scan over the same leaves gives it
        premise = {1: "ML2", 3: "MR1", 4: "MR1+"}
        expected = sum(leaf.prob for leaf in tree.leaves()
                       if len(leaf.path) == tree.depth
                       and all(leaf.path[t - 1] == label
                               for t, label in premise.items()))
        scans = []
        leaves = FrameworkTree.leaves

        def counting(tree):
            scans.append(tree)
            return leaves(tree)

        monkeypatch.setattr(FrameworkTree, "leaves", counting)
        verdict = evaluate_switch_counterfactual(equal_particle, "ML2")
        assert len(scans) == 1
        assert verdict.premise_probability == expected

    def test_distribution_is_posterior_weighted(self, equal_particle):
        verdict = evaluate_switch_counterfactual(equal_particle, "ML2")
        for outcome in ("MR2+", "MR2-"):
            mixed = sum(p.posterior * p.outcomes[outcome]
                        for p in verdict.pivots)
            assert verdict.distribution[outcome] == pytest.approx(
                mixed, abs=1e-15)

    def test_distribution_keys_follow_targets(self, equal_particle):
        verdict = evaluate_switch_counterfactual(equal_particle, "ML1")
        assert sorted(verdict.distribution) == ["MR2+", "MR2-"]

    def test_pivot_lookup_rejects_unknown_path(self, equal_particle):
        verdict = evaluate_switch_counterfactual(equal_particle, "ML2")
        with pytest.raises(KeyError):
            verdict.pivot(("ML2", "nope"))

    def test_unknown_left_setting(self, equal_particle):
        with pytest.raises(ValueError, match="unknown left setting"):
            evaluate_switch_counterfactual(equal_particle, "MR1")

    @settings(max_examples=20)
    @given(amps=strict_triples())
    def test_random_triples_match_oracle(self, amps):
        scenario = build_measurement_scenario(amps, mode="particle")
        a, b, c = amps.triple

        ml1 = evaluate_switch_counterfactual(scenario, "ML1")
        assert ml1.kind == "necessary"
        assert ml1.outcome == "MR2+"
        assert ml1.pivots[0].outcomes["MR2+"] == pytest.approx(1.0, abs=1e-10)

        ml2 = evaluate_switch_counterfactual(scenario, "ML2")
        assert ml2.kind == "possible"
        for sign in ("+", "-"):
            pivot = ml2.pivot(("ML2", "ML2" + sign))
            for out in ("+", "-"):
                want = oracles.right_outcome_given_left(
                    a, b, c, "ML2", sign, "MR2", out)
                assert pivot.outcomes["MR2" + out] == pytest.approx(
                    want, abs=1e-10)

    def test_apparatus_matches_particle(self, equal_particle,
                                        equal_apparatus):
        for l_setting in ("ML1", "ML2"):
            fine = evaluate_switch_counterfactual(equal_apparatus, l_setting)
            coarse = evaluate_switch_counterfactual(equal_particle, l_setting)
            assert fine.kind == coarse.kind
            assert fine.outcome == coarse.outcome
            assert fine.premise_probability == pytest.approx(
                coarse.premise_probability, abs=1e-10)
            assert [p.path for p in fine.pivots] == [
                p.path for p in coarse.pivots]
            for fine_pivot, coarse_pivot in zip(fine.pivots, coarse.pivots):
                assert fine_pivot.posterior == pytest.approx(
                    coarse_pivot.posterior, abs=1e-10)
                for key, value in coarse_pivot.outcomes.items():
                    assert fine_pivot.outcomes[key] == pytest.approx(
                        value, abs=1e-10)


class TestGenericTree:
    def test_midtree_alternative_splits_evenly(self):
        tree = xzx_tree()
        query = CounterfactualQuery(premise={1: "x+"}, pivot_time=2,
                                    alternative="z-")
        verdict = evaluate_counterfactual(tree, query)
        assert verdict.kind == "possible"
        assert [p.path for p in verdict.pivots] == [("x+",)]
        assert verdict.pivots[0].posterior == pytest.approx(1.0, abs=1e-12)
        assert verdict.pivots[0].outcomes["x+"] == pytest.approx(0.5, abs=1e-12)
        assert verdict.pivots[0].outcomes["x-"] == pytest.approx(0.5, abs=1e-12)
        assert verdict.premise_probability == pytest.approx(0.5, abs=1e-12)

    def test_depth_edge_outcome_keyed_by_alternative(self):
        # with the pivot at the last time there is no suffix to report,
        # so the outcome key falls back to the alternative label itself
        tree = xzx_tree()
        query = CounterfactualQuery(premise={1: "x+", 3: "x+"}, pivot_time=3,
                                    alternative="x-")
        verdict = evaluate_counterfactual(tree, query)
        assert [p.path for p in verdict.pivots] == [
            ("x+", "z+"), ("x+", "z-")]
        for pivot in verdict.pivots:
            assert pivot.posterior == pytest.approx(0.5, abs=1e-12)
            assert pivot.outcomes == {"x-": pytest.approx(1.0, abs=1e-12)}
        assert verdict.kind == "necessary"
        assert verdict.outcome == "x-"
        assert verdict.distribution["x-"] == pytest.approx(1.0, abs=1e-12)

    def test_premise_may_constrain_post_pivot_times(self):
        tree = xzx_tree()
        query = CounterfactualQuery(premise={3: "x+"}, pivot_time=1,
                                    alternative="x-")
        verdict = evaluate_counterfactual(tree, query)
        assert [p.path for p in verdict.pivots] == [()]
        keys = {"z+" + SUFFIX_SEPARATOR + "x+", "z+" + SUFFIX_SEPARATOR + "x-",
                "z-" + SUFFIX_SEPARATOR + "x+", "z-" + SUFFIX_SEPARATOR + "x-"}
        assert set(verdict.pivots[0].outcomes) == keys
        for value in verdict.pivots[0].outcomes.values():
            assert value == pytest.approx(0.25, abs=1e-12)
        assert sum(verdict.distribution.values()) == pytest.approx(
            1.0, abs=1e-12)

    def test_targets_restrict_classification(self):
        tree = xzx_tree()
        query = CounterfactualQuery(premise={1: "x+"}, pivot_time=2,
                                    alternative="z-", targets=("x+",))
        verdict = evaluate_counterfactual(tree, query)
        assert list(verdict.distribution) == ["x+"]
        assert verdict.distribution["x+"] == pytest.approx(0.5, abs=1e-12)
        assert verdict.kind == "possible"
        assert verdict.impossible_outcomes == ()


def tilted_basis(theta: float, start: int):
    """("up", "down") basis with P(down) = sin^2(theta) from basis state
    ``start``."""
    c, s = np.cos(theta), np.sin(theta)
    up, down = ([c, s], [-s, c]) if start == 0 else ([s, c], [c, -s])
    return [("up", proj(up)), ("down", proj(down))]


def angle_for(weight: float) -> float:
    return float(np.arcsin(np.sqrt(weight)))


class TestNearThreshold:
    """Verdicts with the deciding quantity at tol * (1 +- 1/2), default tol."""

    TOL = SPECTRAL_TOL

    def two_pivot_tree(self, weight_a: float, weight_b: float):
        # time 1 splits |x+> into z+ and z- (the two pivots), time 2 is a
        # classical choice, and under "B" time 3 tilts the record basis so
        # that "down" has weight_a on the z+ pivot and weight_b on z-
        grid = TimeGrid.identity((0.0, 1.0, 2.0, 3.0), 2)
        third = {
            ("z+", "A"): z_layer(), ("z-", "A"): z_layer(),
            ("z+", "B"): tilted_basis(angle_for(weight_a), 0),
            ("z-", "B"): tilted_basis(angle_for(weight_b), 1),
        }
        layers = [z_layer(), ClassicalChoice((("A", 0.5), ("B", 0.5))),
                  lambda path: third[path]]
        return build_tree(grid, layers, StateVector(np.array([S, S])))

    @pytest.mark.parametrize("scale_a", [0.5, 1.5])
    @pytest.mark.parametrize("scale_b", [0.5, 1.5])
    def test_necessary_and_impossible_thresholds(self, scale_a, scale_b):
        tree = self.two_pivot_tree(scale_a * self.TOL, scale_b * self.TOL)
        query = CounterfactualQuery(premise={2: "A"}, pivot_time=2,
                                    alternative="B", targets=("up", "down"))
        verdict = evaluate_counterfactual(tree, query)
        assert verdict.tol == self.TOL
        assert [p.path for p in verdict.pivots] == [("z+",), ("z-",)]
        downs = [p.outcomes["down"] for p in verdict.pivots]
        ups = [p.outcomes["up"] for p in verdict.pivots]
        assert downs == pytest.approx([scale_a * self.TOL, scale_b * self.TOL],
                                      rel=1e-4)
        both_below = scale_a < 1 and scale_b < 1
        assert all(1.0 - v < self.TOL for v in ups) == both_below
        assert all(v < self.TOL for v in downs) == both_below
        assert verdict.is_necessary == both_below
        assert verdict.outcome == ("up" if both_below else None)
        assert verdict.impossible_outcomes == (("down",) if both_below else ())

    @pytest.mark.parametrize("scale", [0.5, 1.5])
    def test_vacuity_threshold(self, scale):
        theta = angle_for(scale * self.TOL)
        grid = TimeGrid.identity((0.0, 1.0, 2.0), 2)
        start = StateVector(np.array([np.cos(theta), np.sin(theta)]))
        tree = build_tree(grid, [z_layer(), x_layer()], start)
        query = CounterfactualQuery(premise={1: "z-"}, pivot_time=2,
                                    alternative="x-")
        weight = sum(leaf.prob for leaf in tree.leaves()
                     if leaf.path[0] == "z-")
        assert weight == pytest.approx(scale * self.TOL, rel=1e-4)
        if weight <= self.TOL:
            with pytest.raises(VacuousPremiseError, match="probability"):
                find_pivot(tree, query)
        else:
            pivots = find_pivot(tree, query)
            assert [p.path for p in pivots] == [("z-",)]
        assert (weight <= self.TOL) == (scale < 1)


class TestLocalityReport:
    def test_equal_amplitudes_demonstrate_contrast(self, equal_particle):
        report = locality_report(equal_particle)
        assert report.demonstrated
        assert report.verdict_ml1.is_necessary
        assert report.verdict_ml1.outcome == "MR2+"
        assert report.verdict_ml2.kind == "possible"
        assert report.no_signaling.passes
        assert report.verdict("ML1") is report.verdict_ml1
        assert report.verdict("ML2") is report.verdict_ml2
        with pytest.raises(KeyError):
            report.verdict("MX")

    def test_requires_strict_triple(self):
        degenerate = HardyAmplitudes(np.sqrt(0.5), 0.0, np.sqrt(0.5))
        scenario = build_measurement_scenario(degenerate, mode="particle")
        with pytest.raises(NotAHardyStateError, match="strict"):
            locality_report(scenario)

    def test_apparatus_report_builds_no_projectors(self, equal_apparatus,
                                                   monkeypatch):
        locality_report(equal_apparatus)
        built = count_projectors(monkeypatch)
        report = locality_report(equal_apparatus)
        assert report.demonstrated
        assert built == []

    def test_apparatus_run_builds_no_dense_register_matrix(self):
        _register_projector.cache_clear()
        scenario = build_measurement_scenario(EQUAL, mode="apparatus")
        assert locality_report(scenario).demonstrated
        registers = [_register_projector(side, index)
                     for side in ("L", "R") for index in range(6)]
        assert all(p.diagonal is not None for p in registers)
        # Projector.matrix is cached on the instance once read
        assert not any("matrix" in vars(p) for p in registers)

    def test_register_projectors_built_once_per_process(self, monkeypatch):
        _register_projector.cache_clear()
        built = count_projectors(monkeypatch)
        first = build_measurement_scenario(EQUAL, mode="apparatus")
        second = build_measurement_scenario(
            HardyAmplitudes.symmetric_outer(0.3), mode="apparatus")
        # six register states on each side, nothing else is a projector here
        assert len(built) == 12
        assert _register_projector.cache_info().currsize == 12
        for path, node in first.unpruned_tree.grown.items():
            others = second.unpruned_tree.grown[path].children
            assert all(m.projector is o.projector
                       for m, o in zip(node.children, others))

    def test_custom_state_route_skips_strict_gate(self):
        scenario = build_measurement_scenario(
            state=hardy_state(EQUAL), settings=hardy_settings(EQUAL),
            mode="particle")
        report = locality_report(scenario)
        assert scenario.amplitudes is None
        assert report.demonstrated
