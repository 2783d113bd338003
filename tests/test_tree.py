from __future__ import annotations

import gc
import json
import re
from pathlib import Path

import numpy as np
import pytest
from test_cli import TREE_VALIDATOR

from chainlogic import histories, tree as tree_module
from chainlogic.cli import _scenario_from, load_config
from chainlogic.counterfactual import locality_report
from chainlogic.errors import (
    DimensionMismatchError,
    DuplicateLabelError,
    FrameworkViolationError,
    PvmOrthogonalityError,
    ScheduleError,
)
from chainlogic.hardy import (
    HardyAmplitudes,
    build_measurement_scenario,
    hardy_settings,
    hardy_state,
)
from chainlogic.histories import (
    History,
    HistoryEvent,
    HistoryFamily,
    TimeGrid,
    consistency_matrix,
)
from chainlogic.qm import (
    DensityOperator,
    Projector,
    StateVector,
    basis_state,
    outer,
)
from chainlogic.tree import (
    BranchNode,
    ClassicalChoice,
    FrameworkTree,
    build_tree,
    check_compatibility,
    enforce_single_framework,
    export_tree,
    import_tree_json,
    prune_zero_branches,
    to_history_family,
    tree_consistency,
    tree_document,
)

S = 1.0 / np.sqrt(2.0)
X_PLUS = np.array([S, S])
X_MINUS = np.array([S, -S])
Z_PLUS = np.array([1.0, 0.0])
Z_MINUS = np.array([0.0, 1.0])
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def proj(v: np.ndarray) -> Projector:
    return Projector(outer(v))


def x_layer():
    return [("x+", proj(X_PLUS)), ("x-", proj(X_MINUS))]


def z_layer():
    return [("z+", proj(Z_PLUS)), ("z-", proj(Z_MINUS))]


def zx_tree():
    grid = TimeGrid.identity((0.0, 1.0, 2.0), 2)
    return build_tree(grid, [z_layer(), x_layer()], basis_state(2, 0))


class TestClassicalChoice:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ScheduleError):
            ClassicalChoice((("a", 0.5), ("b", 0.6)))

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ScheduleError):
            ClassicalChoice((("a", -0.5), ("b", 1.5)))

    def test_labels_unique(self):
        with pytest.raises(DuplicateLabelError):
            ClassicalChoice((("a", 0.5), ("a", 0.5)))

    def test_needs_a_member(self):
        with pytest.raises(ScheduleError,
                           match="classical choice needs at least one member"):
            ClassicalChoice(())


class TestBuildTree:
    def test_schedule_length_must_match(self):
        grid = TimeGrid.identity((0.0, 1.0, 2.0), 2)
        with pytest.raises(ScheduleError, match="layers"):
            build_tree(grid, [z_layer()], basis_state(2, 0))

    def test_initial_state_must_match_grid_dim(self):
        grid = TimeGrid.identity((0.0, 1.0), 2)
        with pytest.raises(DimensionMismatchError,
                           match="initial condition dim differs from grid dim"):
            build_tree(grid, [z_layer()], basis_state(4, 0))

    def test_leaf_probabilities(self):
        tree = zx_tree()
        probs = dict(tree.leaf_probabilities())
        assert probs[("z+", "x+")] == pytest.approx(0.5, abs=1e-12)
        assert probs[("z+", "x-")] == pytest.approx(0.5, abs=1e-12)
        assert probs[("z-", "x+")] == pytest.approx(0.0, abs=1e-12)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_node_lookup(self):
        tree = zx_tree()
        node = tree.grown[("z+",)]
        assert node.prob == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(KeyError):
            tree.grown[("sideways",)]

    def test_incomplete_layer_needs_vanishing_residual(self):
        grid = TimeGrid.identity((0.0, 1.0), 2)
        # declaring only the +z branch is fine from |z+> ...
        tree = build_tree(grid, [[("z+", proj(Z_PLUS))]], basis_state(2, 0))
        assert len(tree.leaves()) == 1
        # ... but not from |x+>, which leaks into the undeclared branch
        with pytest.raises(ScheduleError, match="unaccounted"):
            build_tree(grid, [[("z+", proj(Z_PLUS))]],
                       StateVector(X_PLUS))

    def test_branch_projectors_must_be_orthogonal(self):
        grid = TimeGrid.identity((0.0, 1.0), 2)
        with pytest.raises(PvmOrthogonalityError):
            build_tree(grid, [[("z+", proj(Z_PLUS)), ("x+", proj(X_PLUS))]],
                       basis_state(2, 0))

    def test_conditional_layer_missing_branch(self):
        grid = TimeGrid.identity((0.0, 1.0, 2.0), 2)
        schedule = [z_layer(), {"z+": x_layer()}.__getitem__]
        # the callable has no entry for the z- branch reached with prob 0;
        # the builder still expands it, so the schedule must be total
        with pytest.raises(ScheduleError, match="no entry"):
            build_tree(grid, schedule, basis_state(2, 0))

    def test_classical_choice_scales_weights(self):
        grid = TimeGrid.identity((0.0, 1.0, 2.0), 2)
        schedule = [ClassicalChoice((("heads", 0.25), ("tails", 0.75))),
                    z_layer()]
        tree = build_tree(grid, schedule, basis_state(2, 0))
        probs = dict(tree.leaf_probabilities())
        assert probs[("heads", "z+")] == pytest.approx(0.25, abs=1e-12)
        assert probs[("tails", "z+")] == pytest.approx(0.75, abs=1e-12)
        assert tree.choice_time_indices == (1,)

    def test_mixed_state_route_matches_pure(self):
        grid = TimeGrid.identity((0.0, 1.0, 2.0), 2)
        pure = build_tree(grid, [z_layer(), x_layer()], basis_state(2, 0))
        mixed = build_tree(grid, [z_layer(), x_layer()],
                           DensityOperator(np.diag([1.0, 0.0])))
        p1 = dict(pure.leaf_probabilities())
        p2 = dict(mixed.leaf_probabilities())
        assert all(abs(p1[k] - p2[k]) < 1e-12 for k in p1)

    def test_rank_two_state_matches_dense_reference(self):
        theta = 0.4
        u = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]], dtype=complex)
        grid = TimeGrid((0.0, 1.0, 2.0), (u, u))
        rho = DensityOperator(0.75 * outer(np.array([0.6, 0.8j]))
                              + 0.25 * outer(X_MINUS))
        assert rho.factor.shape == (2, 2)
        tree = build_tree(grid, [z_layer(), x_layer()], rho)
        assert len(tree.leaves()) == 4
        for leaf in tree.leaves():
            p1 = tree.grown[leaf.path[:1]].projector.matrix
            f = leaf.projector.matrix @ u @ p1 @ u
            want = np.trace(f @ rho.matrix @ f.conj().T).real
            assert leaf.prob == pytest.approx(want, abs=1e-12)


class TestPruning:
    def test_removes_zero_branches_and_records_them(self):
        tree = prune_zero_branches(zx_tree())
        assert {leaf.path for leaf in tree.leaves()} == {("z+", "x+"),
                                                         ("z+", "x-")}
        assert ("z-",) in tree.pruned
        assert sum(p for _, p in tree.leaf_probabilities()) == pytest.approx(
            1.0, abs=1e-12)

    def test_idempotent(self):
        once = prune_zero_branches(zx_tree())
        twice = prune_zero_branches(once)
        assert [l.path for l in twice.leaves()] == [l.path for l in once.leaves()]
        assert twice.pruned == once.pruned

    def test_pruned_tree_shares_every_untouched_node(self):
        scenario = build_measurement_scenario(HardyAmplitudes.equal(),
                                              mode="apparatus")
        removed = scenario.tree.pruned
        made = 0
        for node in all_nodes(scenario.tree):
            touched = any(path[:len(node.path)] == node.path for path in removed)
            assert (node is scenario.unpruned_tree.grown[node.path]) is not touched
            made += touched
        # the three pruned leaves have nine ancestors, the root included
        assert len(removed) == 3 and made == 9

    def test_nothing_to_prune_keeps_the_root(self):
        once = prune_zero_branches(zx_tree())
        assert prune_zero_branches(once).root is once.root
        grid = TimeGrid.identity((0.0, 1.0), 2)
        full = build_tree(grid, [x_layer()], basis_state(2, 0))
        assert prune_zero_branches(full).root is full.root

    def test_no_renormalization(self):
        grid = TimeGrid.identity((0.0, 1.0), 2)
        schedule = [ClassicalChoice((("a", 0.7), ("b", 0.3)))]
        tree = prune_zero_branches(build_tree(grid, schedule, basis_state(2, 0)),
                                   tol=0.5)
        probs = dict(tree.leaf_probabilities())
        assert set(probs) == {("a",)}
        assert probs[("a",)] == pytest.approx(0.7, abs=1e-12)
        assert tree.pruned == (("b",),)
        assert tree.grown[("b",)].prob == pytest.approx(0.3, abs=1e-12)

    def test_tolerance_above_every_branch_is_refused(self):
        # every branch of the zx tree weighs at most 1/2
        with pytest.raises(FrameworkViolationError,
                           match="pruning removed the entire tree"):
            prune_zero_branches(zx_tree(), tol=0.6)


class TestTreeConsistency:
    def test_quantum_tree_single_block(self):
        report = tree_consistency(zx_tree())
        assert report.consistent
        assert len(report.blocks) == 1
        assert report.blocks[0][0] == ()

    def test_choice_tree_blocks(self):
        grid = TimeGrid.identity((0.0, 1.0, 2.0), 2)
        schedule = [ClassicalChoice((("heads", 0.5), ("tails", 0.5))),
                    x_layer()]
        tree = build_tree(grid, schedule, basis_state(2, 0))
        report = tree_consistency(tree)
        assert report.consistent
        assert [key for key, _ in report.blocks] == [("heads",), ("tails",)]
        with pytest.raises(ValueError, match="blockwise"):
            to_history_family(tree)

    def test_inconsistent_tree_reports_worst_pair(self):
        grid = TimeGrid.identity((0.0, 1.0, 2.0, 3.0), 2)
        tree = build_tree(grid, [x_layer(), z_layer(), x_layer()],
                          basis_state(2, 0))
        report = tree_consistency(tree)
        assert not report.consistent
        assert report.worst_magnitude == pytest.approx(0.125, abs=1e-12)
        first, second = report.worst_paths
        assert first != second
        # the worst pair differs only in its middle event
        assert first[0] == second[0] and first[2] == second[2]
        assert {first[1], second[1]} == {"z+", "z-"}

    def test_orthogonal_tree_names_two_distinct_histories(self):
        # |x+> measured along z: the two kets overlap in exactly 0
        grid = TimeGrid.identity((0.0, 1.0), 2)
        report = tree_consistency(build_tree(grid, [z_layer()],
                                             StateVector(X_PLUS)))
        assert report.consistent
        assert report.worst == ((), 0, 1, 0.0)
        assert report.worst_paths == (("z+",), ("z-",))

    def test_to_history_family_round_trip(self):
        tree = zx_tree()
        family = to_history_family(tree)
        assert len(family.histories) == 4
        labels = {h.label for h in family.histories}
        assert "z+ / x+" in labels


ROTATION = np.array([[np.cos(0.4), -np.sin(0.4)],
                     [np.sin(0.4), np.cos(0.4)]], dtype=complex)
RANK_TWO = DensityOperator(0.75 * outer(np.array([0.6, 0.8j]))
                           + 0.25 * outer(X_MINUS))


def rotated_tree(schedule, state):
    grid = TimeGrid(tuple(float(t) for t in range(len(schedule) + 1)),
                    (ROTATION,) * len(schedule))
    return build_tree(grid, schedule, state)


def kets_trees():
    """Pure, rank-two, choice, particle and apparatus trees; all but the
    apparatus ones have consistency matrices with non-zero off-diagonals."""
    coin = ClassicalChoice((("heads", 0.3), ("tails", 0.7)))
    weights = ((0.3, 0.7), (0.6, 0.4))
    amplitudes = HardyAmplitudes.from_unnormalized(0.6, 0.5 + 0.2j, 0.4)
    particle = build_measurement_scenario(amplitudes, mode="particle",
                                          choice_weights=weights)
    apparatus = build_measurement_scenario(amplitudes, mode="apparatus",
                                           choice_weights=weights)
    return {
        "pure": rotated_tree([x_layer(), z_layer(), x_layer()],
                             StateVector(np.array([0.6, 0.8j]))),
        "rank-two": rotated_tree([x_layer(), z_layer(), x_layer()], RANK_TWO),
        "choice-first": rotated_tree([coin, z_layer(), x_layer()],
                                     StateVector(X_PLUS)),
        "choice-middle": rotated_tree([x_layer(), coin, z_layer(), x_layer()],
                                      RANK_TWO),
        "particle": particle.tree,
        "particle-unpruned": particle.unpruned_tree,
        "apparatus": apparatus.tree,
        "apparatus-unpruned": apparatus.unpruned_tree,
    }


def reference_blocks(tree):
    """``consistency_matrix`` of each choice block's leaf histories, found by
    path lookups, with one identity event standing in for every choice."""
    choice_times = tree.choice_time_indices
    no_event = Projector(np.eye(tree.dim))
    blocks: dict = {}
    for leaf in tree.leaves():
        events = []
        for t in range(1, tree.depth + 1):
            node = tree.grown[leaf.path[:t]]
            events.append(HistoryEvent(
                time_index=t, label=node.label,
                projector=no_event if node.projector is None
                else node.projector))
        key = tuple(leaf.path[t - 1] for t in choice_times)
        blocks.setdefault(key, []).append(
            History(grid=tree.grid, events=tuple(events)))
    return {key: consistency_matrix(HistoryFamily(
                grid=tree.grid, rho=tree.rho, histories=tuple(family)))
            for key, family in blocks.items()}


def all_nodes(tree):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


class TestConsistencyFromKets:
    TREES = kets_trees()

    @pytest.mark.parametrize("name", sorted(TREES))
    def test_blocks_equal_history_family_reference(self, name):
        tree = self.TREES[name]
        report = tree_consistency(tree)
        reference = reference_blocks(tree)
        assert [key for key, _ in report.blocks] == sorted(reference)
        for key, block in report.blocks:
            assert np.array_equal(block.matrix, reference[key].matrix)
            assert block.worst_offdiagonal == reference[key].worst_offdiagonal
        # apparatus records are orthogonal, so their off-diagonals are exact 0
        assert (report.worst_magnitude > 0.0) != name.startswith("apparatus")

    def test_reads_kets_without_propagating(self, monkeypatch):
        calls: list[str] = []
        post_init = HistoryFamily.__post_init__

        def family_spy(family):
            calls.append("HistoryFamily")
            post_init(family)

        def spy(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(HistoryFamily, "__post_init__", family_spy)
        for module in (histories, tree_module):
            for name in ("chain_apply", "consistency_matrix"):
                monkeypatch.setattr(module, name,
                                    spy(name, getattr(histories, name)),
                                    raising=False)
        for name, tree in self.TREES.items():
            tree_consistency(tree)
        assert calls == []
        # the spies do see the history-family route
        histories.consistency_matrix(to_history_family(self.TREES["pure"]))
        assert {"HistoryFamily", "chain_apply", "consistency_matrix"} <= set(calls)

    @pytest.mark.parametrize("name", ["pure", "rank-two", "apparatus",
                                      "apparatus-unpruned"])
    def test_choice_free_nodes_share_one_array(self, name):
        tree = self.TREES[name]
        assert tree.choice_time_indices == ()
        assert all(node.ket is node.state for node in all_nodes(tree))

    def test_choice_weights_stay_out_of_the_ket(self):
        tree = self.TREES["choice-middle"]
        for path in ((), ("x+",), ("x-",)):
            assert tree.grown[path].ket is tree.grown[path].state
        for leaf in tree.leaves():
            weight = 0.3 if leaf.path[1] == "heads" else 0.7
            assert leaf.ket is not leaf.state
            np.testing.assert_allclose(np.sqrt(weight) * leaf.ket, leaf.state,
                                       rtol=0, atol=1e-15)

    def test_mixed_decompositions_under_one_time_refused(self):
        # x projectors under z+ and z projectors under z- at time index 2
        with pytest.raises(ValueError) as info:
            tree_consistency(conditional_zx_tree())
        assert str(info.value) == (
            "projectors 'x+' and 'z+' at time index 2 are neither equal nor "
            "orthogonal; the family does not come from one decomposition")

    def test_choice_and_projector_under_one_label_refused(self):
        # 'a' is a choice under z+ and x+ under z-: the identity standing in
        # for the choice shares a block with x+ at time index 2
        def second(path):
            if path[-1] == "z+":
                return ClassicalChoice((("a", 1.0),))
            return [("a", proj(X_PLUS)), ("b", proj(X_MINUS))]

        grid = TimeGrid.identity((0.0, 1.0, 2.0), 2)
        tree = build_tree(grid, [z_layer(), second], StateVector(X_PLUS))
        with pytest.raises(ValueError) as info:
            tree_consistency(tree)
        assert str(info.value) == (
            "projectors 'a' and 'a' at time index 2 are neither equal nor "
            "orthogonal; the family does not come from one decomposition")


class TestCompatibility:
    def test_noncommuting_families_are_incompatible(self):
        z_family = to_history_family(
            build_tree(TimeGrid.identity((0.0, 1.0), 2), [z_layer()],
                       basis_state(2, 0)))
        x_family = to_history_family(
            build_tree(TimeGrid.identity((0.0, 1.0), 2), [x_layer()],
                       StateVector(X_PLUS)))
        result = check_compatibility(z_family, x_family)
        assert not result.compatible
        witness = result.witness
        assert witness.time_index == 1
        assert witness.label_a in ("z+", "z-")
        assert witness.label_b in ("x+", "x-")
        assert witness.commutator == pytest.approx(0.5, abs=1e-12)

    def test_refinement_is_compatible(self):
        # coarse: which half of a two-qubit space; fine: full product basis
        grid = TimeGrid.identity((0.0, 1.0), 4)
        eye2 = np.eye(2)
        coarse_layer = [("first", Projector(np.kron(outer(Z_PLUS), eye2))),
                        ("second", Projector(np.kron(outer(Z_MINUS), eye2)))]
        fine_layer = [(f"{l1}{l2}", Projector(np.kron(outer(v1), outer(v2))))
                      for l1, v1 in (("0", Z_PLUS), ("1", Z_MINUS))
                      for l2, v2 in (("0", Z_PLUS), ("1", Z_MINUS))]
        state = StateVector(np.full(4, 0.5))
        coarse = to_history_family(build_tree(grid, [coarse_layer], state))
        fine = to_history_family(build_tree(grid, [fine_layer], state))
        result = check_compatibility(coarse, fine)
        assert result.compatible
        assert result.witness is None

    def test_grid_mismatch_rejected(self):
        a = to_history_family(
            build_tree(TimeGrid.identity((0.0, 1.0), 2), [z_layer()],
                       basis_state(2, 0)))
        b = to_history_family(
            build_tree(TimeGrid.identity((0.0, 2.0), 2), [z_layer()],
                       basis_state(2, 0)))
        with pytest.raises(ValueError, match="time grids"):
            check_compatibility(a, b)

    def test_space_mismatch_rejected(self):
        a = to_history_family(
            build_tree(TimeGrid.identity((0.0, 1.0), 2), [z_layer()],
                       basis_state(2, 0)))
        eye2 = np.eye(2)
        wide = [("first", Projector(np.kron(outer(Z_PLUS), eye2))),
                ("second", Projector(np.kron(outer(Z_MINUS), eye2)))]
        b = to_history_family(
            build_tree(TimeGrid.identity((0.0, 1.0), 4), [wide],
                       basis_state(4, 0)))
        with pytest.raises(DimensionMismatchError,
                           match="families live in different spaces"):
            check_compatibility(a, b)


def conditional_zx_tree(calls: list | None = None):
    """Time-2 layer chosen by a callable from the time-1 outcome."""
    def second(path):
        if calls is not None:
            calls.append(path)
        return x_layer() if path[-1] == "z+" else z_layer()

    grid = TimeGrid.identity((0.0, 1.0, 2.0), 2)
    return build_tree(grid, [z_layer(), second], basis_state(2, 0))


class TestScheduleLookup:
    @pytest.mark.parametrize("make", [zx_tree, conditional_zx_tree],
                             ids=["static", "callable"])
    def test_declared_prefixes_resolve(self, make):
        tree = make()
        assert tree.member_labels(1, ()) == ("z+", "z-")
        assert tree.member_labels(2, ("z+",)) == ("x+", "x-")
        assert tree.schedule_member(2, ("z+",), "x-").label == "x-"
        with pytest.raises(KeyError):
            tree.schedule_member(2, ("z+",), "y+")

    @pytest.mark.parametrize("make", [zx_tree, conditional_zx_tree],
                             ids=["static", "callable"])
    @pytest.mark.parametrize("time_index, prefix", [
        (2, ()),
        (1, ("z+",)),
        (3, ("z+", "x+")),
        (0, ()),
        (2, ("sideways",)),
    ], ids=["too-short", "too-long", "beyond-depth", "before-first",
            "never-grown"])
    def test_bad_prefixes_raise(self, make, time_index, prefix):
        tree = make()
        with pytest.raises(ScheduleError):
            tree.member_labels(time_index, prefix)
        with pytest.raises(ScheduleError):
            tree.schedule_member(time_index, prefix, "x+")

    def test_callable_layer_resolved_once_per_path(self):
        calls: list = []
        tree = prune_zero_branches(conditional_zx_tree(calls))
        assert calls == [("z+",), ("z-",)]
        # the z- branch is pruned, yet its declared layer still resolves
        assert tree.member_labels(2, ("z-",)) == ("z+", "z-")
        assert tree.member_labels(2, ("z+",)) == ("x+", "x-")
        export_tree(tree, "json")
        assert calls == [("z+",), ("z-",)]


class TestLayerResolution:
    """Each layer object is turned into members and validated once per
    build, however many branch paths meet it."""

    @staticmethod
    def spy(monkeypatch) -> list:
        calls: list = []
        check = tree_module._check_pvm

        def counting(members, **kwargs):
            calls.append(tuple(label for label, _ in members))
            return check(members, **kwargs)

        monkeypatch.setattr(tree_module, "_check_pvm", counting)
        return calls

    @pytest.mark.parametrize("mode, layers", [("particle", 4), ("apparatus", 6)])
    def test_one_check_per_quantum_layer_object(self, monkeypatch, mode, layers):
        calls = self.spy(monkeypatch)
        build_measurement_scenario(HardyAmplitudes.equal(), mode=mode)
        # ML1, ML2, MR1 and MR2 each declare one outcome list; apparatus
        # mode adds two more quantum layers
        assert len(calls) == layers
        assert len(set(calls)) == layers

    def test_shared_layer_object_validated_once(self, monkeypatch):
        calls = self.spy(monkeypatch)
        shared = x_layer()
        grid = TimeGrid.identity((0.0, 1.0, 2.0), 2)
        tree = build_tree(grid, [z_layer(), lambda path: shared],
                          basis_state(2, 0))
        assert calls == [("z+", "z-"), ("x+", "x-")]
        assert tree.member_labels(2, ("z-",)) == ("x+", "x-")

    def test_fresh_equal_lists_are_each_validated(self, monkeypatch):
        calls = self.spy(monkeypatch)
        grid = TimeGrid.identity((0.0, 1.0, 2.0), 2)
        build_tree(grid, [z_layer(), lambda path: x_layer()], basis_state(2, 0))
        assert calls == [("z+", "z-"), ("x+", "x-"), ("x+", "x-")]

    @pytest.mark.parametrize("later, error, message", [
        (lambda: [("z+", proj(Z_PLUS)), ("x+", proj(X_PLUS))],
         PvmOrthogonalityError, "members 'z+' and 'x+' are not orthogonal"),
        (lambda: [("a", Projector(np.eye(3)))],
         DimensionMismatchError, "projector 'a' has dim 3, tree dim is 2"),
    ], ids=["non-orthogonal", "wrong-dim"])
    def test_invalid_fresh_list_for_a_later_path_refused(self, later, error,
                                                         message):
        # a fresh list per call: were the first one freed after use, the
        # second could take over its id and its validated members
        def second(path):
            return x_layer() if path[-1] == "z+" else later()

        grid = TimeGrid.identity((0.0, 1.0, 2.0), 2)
        with pytest.raises(error, match=re.escape(message)):
            build_tree(grid, [z_layer(), second], basis_state(2, 0))


class TestSingleFramework:
    def test_declared_paths_resolve(self):
        tree = prune_zero_branches(zx_tree())
        # pruned branches still belong to the framework
        assert enforce_single_framework([("z+", "x-"), ("z-", "x+")], tree) == ()

    def test_foreign_labels_flagged(self):
        tree = zx_tree()
        assert enforce_single_framework([("z+", "y+")], tree) == (("z+", "y+"),)

    def test_too_deep_path_flagged(self):
        tree = zx_tree()
        path = ("z+", "x+", "x+")
        assert enforce_single_framework([path], tree) == (path,)

    @pytest.mark.parametrize("prune", [False, True], ids=["unpruned", "pruned"])
    def test_root_and_prefixes_resolve(self, prune):
        tree = prune_zero_branches(zx_tree()) if prune else zx_tree()
        assert enforce_single_framework([(), ("z-",)], tree) == ()

    @pytest.mark.parametrize("path", [("x+",), ("z+", "z+")])
    def test_declared_label_at_wrong_depth_flagged(self, path):
        assert enforce_single_framework([path], zx_tree()) == (path,)


class TestGrown:
    def test_every_grown_node_is_recorded_under_its_path(self):
        scenario = build_measurement_scenario(HardyAmplitudes.equal(),
                                              mode="particle")
        for tree in (zx_tree(), scenario.unpruned_tree):
            nodes = list(all_nodes(tree))
            assert tree.grown[()] is tree.root
            assert all(tree.grown[node.path] is node for node in nodes)
            assert len(tree.grown) == len(nodes)

    def test_pruning_keeps_the_grown_record(self):
        tree = zx_tree()
        pruned = prune_zero_branches(tree)
        assert pruned.grown is tree.grown
        assert ("z-", "x+") in pruned.grown
        assert pruned.grown[()] is not pruned.root


class TestExport:
    def test_json_round_trip(self):
        tree = prune_zero_branches(zx_tree())
        text = export_tree(tree, "json")
        assert import_tree_json(text) == tree_document(tree)

    @pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
    @pytest.mark.parametrize("config", sorted(
        path.stem for path in CONFIG_DIR.glob("*.json")))
    def test_sample_trees_round_trip(self, config, prune):
        scenario = _scenario_from(
            load_config(str(CONFIG_DIR / f"{config}.json"), env={}))
        tree = scenario.tree if prune else scenario.unpruned_tree
        text = export_tree(tree, "json")
        assert import_tree_json(text) == tree_document(tree)
        assert json.loads(text) == tree_document(tree)

    def test_json_flags_pruned_branches(self):
        tree = prune_zero_branches(zx_tree())
        data = json.loads(export_tree(tree, "json"))
        labels = {child["label"]: child for child in data["root"]["children"]}
        assert labels["z-"]["pruned"] is True
        assert labels["z+"]["pruned"] is False

    def test_pruned_stubs_carry_the_recorded_weights(self):
        scenario = build_measurement_scenario(HardyAmplitudes.equal(),
                                              mode="particle")
        tree = prune_zero_branches(scenario.tree, 0.05)
        weights = {path: tree.grown[path].prob for path in tree.pruned}
        stubs = {}
        stack = [((), json.loads(export_tree(tree, "json"))["root"])]
        while stack:
            path, node = stack.pop()
            if node["pruned"]:
                stubs[path] = node["probability"]
            stack.extend((path + (child["label"],), child)
                         for child in node["children"])
        assert ("ML2", "ML2+") in stubs  # removed by the second pruning
        assert stubs == {path: weights[path] for path in stubs}

    def test_dot_output(self):
        tree = prune_zero_branches(zx_tree())
        dot = export_tree(tree, "dot")
        assert dot.startswith("digraph framework_tree {")
        assert "style=dashed" in dot
        assert "z+" in dot

    def test_deterministic(self):
        tree = prune_zero_branches(zx_tree())
        assert export_tree(tree, "json") == export_tree(tree, "json")
        assert export_tree(tree, "dot") == export_tree(tree, "dot")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            export_tree(zx_tree(), "svg")

    def test_import_rejects_other_documents(self):
        with pytest.raises(ValueError):
            import_tree_json(json.dumps({"schema": 1, "kind": "other"}))
        for text in ("[]", "3"):
            with pytest.raises(ValueError, match="not a framework-tree"):
                import_tree_json(text)
        export = export_tree(prune_zero_branches(zx_tree()), "json")
        for field, strip in (("dim", lambda doc: doc),
                             ("time", lambda doc: doc["root"]["children"][0]),
                             ("children", lambda doc: doc["root"])):
            doc = json.loads(export)
            del strip(doc)[field]
            with pytest.raises(ValueError, match=field):
                import_tree_json(json.dumps(doc))
        for field, value in (("root", []), ("times", 5)):
            doc = dict(json.loads(export), **{field: value})
            with pytest.raises(ValueError, match="malformed"):
                import_tree_json(json.dumps(doc))

    @pytest.mark.parametrize("where, field, value", [
        ((), "schema", True),
        ((), "dim", 4.7),
        ((), "dim", "2"),
        ((), "times", [0.0]),
        (("root",), "children", ""),
        (("root", "children", 0), "pruned", "false"),
        (("root", "children", 0), "label", 7),
        (("root", "children", 0), "probability", True),
        (("root", "children", 0), "time", "1"),
    ], ids=["schema-bool", "dim-float", "dim-string", "times-one-item",
            "children-string", "pruned-string", "label-int",
            "probability-bool", "time-string"])
    def test_import_refuses_what_the_schema_refuses(self, where, field, value):
        doc = json.loads(export_tree(prune_zero_branches(zx_tree()), "json"))
        assert TREE_VALIDATOR.is_valid(doc)
        obj = doc
        for key in where:
            obj = obj[key]
        obj[field] = value
        assert not TREE_VALIDATOR.is_valid(doc)
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            import_tree_json(json.dumps(doc))

    def test_dot_escapes_labels(self):
        choice = ClassicalChoice((('say "hi"', 0.5), ("back\\", 0.5)))
        tree = build_tree(TimeGrid.identity((0.0, 1.0), 2), [choice],
                          basis_state(2, 0))
        dot = export_tree(tree, "dot")
        assert 'label="say \\"hi\\"\\nt=1 p=0.500000"' in dot
        assert 'label="back\\\\\\nt=1 p=0.500000"' in dot


class TestRefcountFreeing:
    """Built trees and their traversals leave no reference cycles, so a
    dropped scenario is freed by refcounting, not by the cyclic collector."""

    @staticmethod
    def scenarios():
        amplitudes = HardyAmplitudes.from_unnormalized(0.6, 0.5 + 0.2j, 0.4)
        pure = hardy_state(amplitudes).amps
        mixed = DensityOperator(0.95 * np.outer(pure, pure.conj())
                                + 0.05 * np.eye(4) / 4.0)
        yield build_measurement_scenario(amplitudes, mode="apparatus")
        yield build_measurement_scenario(state=mixed,
                                         settings=hardy_settings(amplitudes),
                                         mode="apparatus")

    def test_no_cyclic_garbage(self):
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for scenario in self.scenarios():
                locality_report(scenario)
                export_tree(scenario.tree, "json")
                export_tree(scenario.tree, "dot")
                del scenario
            gc.collect()
            kinds = (FrameworkTree, BranchNode, TimeGrid, DensityOperator)
            leaked = sorted(type(obj).__name__ for obj in gc.garbage
                            if isinstance(obj, kinds))
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == []
