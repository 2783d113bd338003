from __future__ import annotations

import json

import numpy as np
import pytest

from chainlogic.errors import (
    DuplicateLabelError,
    PvmOrthogonalityError,
    ScheduleError,
)
from chainlogic.histories import TimeGrid
from chainlogic.qm import (
    DensityOperator,
    Projector,
    StateVector,
    basis_state,
    outer,
)
from chainlogic.tree import (
    ClassicalChoice,
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


class TestBuildTree:
    def test_schedule_length_must_match(self):
        grid = TimeGrid.identity((0.0, 1.0, 2.0), 2)
        with pytest.raises(ScheduleError, match="layers"):
            build_tree(grid, [z_layer()], basis_state(2, 0))

    def test_leaf_probabilities(self):
        tree = zx_tree()
        probs = dict(tree.leaf_probabilities())
        assert probs[("z+", "x+")] == pytest.approx(0.5, abs=1e-12)
        assert probs[("z+", "x-")] == pytest.approx(0.5, abs=1e-12)
        assert probs[("z-", "x+")] == pytest.approx(0.0, abs=1e-12)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_node_lookup(self):
        tree = zx_tree()
        node = tree.node_at(("z+",))
        assert node.prob == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(KeyError):
            tree.node_at(("sideways",))

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
            p1 = tree.node_at(leaf.path[:1]).projector.matrix
            f = leaf.projector.matrix @ u @ p1 @ u
            want = np.trace(f @ rho.matrix @ f.conj().T).real
            assert leaf.prob == pytest.approx(want, abs=1e-12)
            assert np.linalg.norm(leaf.normalized_state()) == pytest.approx(
                1.0, abs=1e-12)


class TestPruning:
    def test_removes_zero_branches_and_records_them(self):
        tree = prune_zero_branches(zx_tree())
        assert {leaf.path for leaf in tree.leaves()} == {("z+", "x+"),
                                                         ("z+", "x-")}
        removed = {p.path for p in tree.pruned}
        assert ("z-",) in removed
        assert sum(p for _, p in tree.leaf_probabilities()) == pytest.approx(
            1.0, abs=1e-12)

    def test_idempotent(self):
        once = prune_zero_branches(zx_tree())
        twice = prune_zero_branches(once)
        assert [l.path for l in twice.leaves()] == [l.path for l in once.leaves()]
        assert twice.pruned == once.pruned

    def test_no_renormalization(self):
        grid = TimeGrid.identity((0.0, 1.0), 2)
        schedule = [ClassicalChoice((("a", 0.7), ("b", 0.3)))]
        tree = prune_zero_branches(build_tree(grid, schedule, basis_state(2, 0)),
                                   tol=0.5)
        probs = dict(tree.leaf_probabilities())
        assert set(probs) == {("a",)}
        assert probs[("a",)] == pytest.approx(0.7, abs=1e-12)
        assert tree.pruned == tuple(
            p for p in tree.pruned if p.path == ("b",))


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

    def test_to_history_family_round_trip(self):
        tree = zx_tree()
        family = to_history_family(tree)
        assert len(family.histories) == 4
        labels = {h.label for h in family.histories}
        assert "z+ / x+" in labels


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


class TestSingleFramework:
    def test_declared_paths_resolve(self):
        tree = prune_zero_branches(zx_tree())
        check = enforce_single_framework([("z+", "x-"), ("z-", "x+")], tree)
        assert check.ok  # pruned branches still belong to the framework

    def test_foreign_labels_flagged(self):
        tree = zx_tree()
        check = enforce_single_framework([("z+", "y+")], tree)
        assert not check.ok
        assert check.violations == (("z+", "y+"),)

    def test_too_deep_path_flagged(self):
        tree = zx_tree()
        check = enforce_single_framework([("z+", "x+", "x+")], tree)
        assert not check.ok


class TestExport:
    def test_json_round_trip(self):
        tree = prune_zero_branches(zx_tree())
        text = export_tree(tree, "json")
        assert import_tree_json(text) == tree_document(tree)

    def test_json_flags_pruned_branches(self):
        tree = prune_zero_branches(zx_tree())
        data = json.loads(export_tree(tree, "json"))
        labels = {child["label"]: child for child in data["root"]["children"]}
        assert labels["z-"]["pruned"] is True
        assert labels["z+"]["pruned"] is False

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
