"""Branching-tree presentation of a history family.

A tree is grown from an initial condition and a per-time measurement
schedule.  Each layer of the schedule is one of

  * a quantum decomposition: labeled pairwise-orthogonal projectors that
    either sum to the identity or leave only a residual that annihilates the
    state reaching them (the residual branch is then unreachable and never
    materializes);
  * a classical choice: labeled nonnegative weights summing to one, modeling
    exogenous randomness with no projector of its own;
  * a callable mapping the branch path so far to either of the above, which
    lets later decompositions depend on earlier outcomes.

``build_tree`` resolves and validates each layer once per branch path and
keeps the result; later lookups on the tree only read it.

Node states are unnormalized square-root factors, not density matrices: a
branch's operator is state state^dagger, grown from ``rho.factor`` (a vector
for a pure state, one column per rank otherwise) and scaled by sqrt-weights
of classical choices, so a leaf's probability is the classical weight
product times the Born weight of its quantum events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DuplicateLabelError,
    FrameworkViolationError,
    ScheduleError,
)
from .histories import (
    ConsistencyReport,
    History,
    HistoryEvent,
    HistoryFamily,
    TimeGrid,
    consistency_matrix,
)
from .qm import (
    ALGEBRA_TOL,
    SPECTRAL_TOL,
    DensityOperator,
    Projector,
    ProjectiveDecomposition,
    StateVector,
    _check_pvm,
    commutator_norm,
    identity_projector,
)

BranchPath = tuple[str, ...]

DEFAULT_PRUNE_TOL = 1e-12


@dataclass(frozen=True)
class ClassicalChoice:
    """Exogenous alternatives with classical weights summing to one."""

    members: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        members = tuple((str(label), float(weight)) for label, weight in self.members)
        if not members:
            raise ScheduleError("classical choice needs at least one member")
        labels = [label for label, _ in members]
        if len(set(labels)) != len(labels):
            raise DuplicateLabelError("classical choice labels must be unique")
        if any(w < 0 or not np.isfinite(w) for _, w in members):
            raise ScheduleError("classical choice weights must be finite and >= 0")
        total = sum(w for _, w in members)
        if abs(total - 1.0) > 1e-9:
            raise ScheduleError(f"classical choice weights sum to {total!r}, not 1")
        object.__setattr__(self, "members", members)


@dataclass(frozen=True)
class _Member:
    label: str
    projector: Projector | None  # None marks a classical choice branch
    weight: float


LayerLike = (
    ProjectiveDecomposition
    | ClassicalChoice
    | Sequence[tuple[str, Projector]]
    | Callable[[BranchPath], "ProjectiveDecomposition | ClassicalChoice | Sequence"]
)


def _as_members(layer, path: BranchPath, dim: int) -> tuple[_Member, ...]:
    if callable(layer):
        try:
            layer = layer(path)
        except KeyError as exc:
            raise ScheduleError(f"schedule has no entry for branch {path!r}") from exc
    if isinstance(layer, ClassicalChoice):
        return tuple(_Member(label, None, weight) for label, weight in layer.members)
    pairs = tuple((str(label), proj) for label, proj in layer)
    # an empty layer is left to build_tree, which reports it as unaccounted
    if pairs and not isinstance(layer, ProjectiveDecomposition):
        _check_pvm(pairs, atol=ALGEBRA_TOL, complete=False)
    for label, proj in pairs:
        if proj.dim != dim:
            raise DimensionMismatchError(
                f"projector {label!r} has dim {proj.dim}, tree dim is {dim}")
    return tuple(_Member(label, proj, 1.0) for label, proj in pairs)


@dataclass(frozen=True, eq=False)
class BranchNode:
    """One event in the tree; the root carries no event of its own.

    ``state`` is the unnormalized branch factor at this node's time, after the
    node's own event: the branch operator is state state^dagger, with one
    column per rank of a mixed initial condition.  ``prob`` is its weight.
    """

    time_index: int
    label: str | None
    projector: Projector | None
    weight: float
    path: BranchPath
    prob: float
    children: tuple["BranchNode", ...]
    state: np.ndarray = field(repr=False)

    @property
    def is_choice(self) -> bool:
        return self.label is not None and self.projector is None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def normalized_state(self) -> np.ndarray:
        if self.prob <= 0.0:
            raise ZeroDivisionError("cannot normalize a zero-weight branch state")
        return self.state / np.sqrt(self.prob)


@dataclass(frozen=True)
class PrunedBranch:
    path: BranchPath
    weight: float


@dataclass(frozen=True, eq=False)
class FrameworkTree:
    """Built (and possibly pruned) branching structure over a time grid.

    ``resolved`` maps every branch path the build grew, pruned ones
    included, to the schedule members declared directly under it.
    """

    grid: TimeGrid
    rho: DensityOperator
    root: BranchNode
    resolved: dict[BranchPath, tuple[_Member, ...]]
    pruned: tuple[PrunedBranch, ...] = ()
    prune_tol: float | None = None

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def depth(self) -> int:
        return self.grid.nsteps

    def leaves(self) -> tuple[BranchNode, ...]:
        out: list[BranchNode] = []

        def walk(node: BranchNode) -> None:
            if node.is_leaf:
                out.append(node)
            for child in node.children:
                walk(child)

        walk(self.root)
        return tuple(out)

    def leaf_probabilities(self) -> tuple[tuple[BranchPath, float], ...]:
        return tuple((leaf.path, leaf.prob) for leaf in self.leaves())

    def node_at(self, path: Iterable[str]) -> BranchNode:
        node = self.root
        for label in path:
            for child in node.children:
                if child.label == label:
                    node = child
                    break
            else:
                raise KeyError(f"no branch {tuple(path)!r} in this tree")
        return node

    @property
    def choice_time_indices(self) -> tuple[int, ...]:
        found: set[int] = set()

        def walk(node: BranchNode) -> None:
            if node.is_choice:
                found.add(node.time_index)
            for child in node.children:
                walk(child)

        walk(self.root)
        return tuple(sorted(found))

    def _members_at(self, time_index: int, prefix: BranchPath) -> tuple[_Member, ...]:
        prefix = tuple(prefix)
        if len(prefix) != time_index - 1 or prefix not in self.resolved:
            raise ScheduleError(
                f"no schedule layer at time index {time_index} under {prefix!r}")
        return self.resolved[prefix]

    def member_labels(self, time_index: int, prefix: BranchPath) -> tuple[str, ...]:
        """Labels the schedule declares at ``time_index`` under ``prefix``."""
        return tuple(m.label for m in self._members_at(time_index, prefix))

    def schedule_member(self, time_index: int, prefix: BranchPath,
                        label: str) -> _Member:
        for member in self._members_at(time_index, prefix):
            if member.label == label:
                return member
        raise KeyError(label)


def _apply_member(state: np.ndarray, evolution: np.ndarray,
                  member: _Member) -> tuple[np.ndarray, float]:
    """Propagate an unnormalized branch factor through one event."""
    nxt = evolution @ state
    if member.projector is not None:
        nxt = member.projector.matrix @ nxt
    nxt = np.sqrt(member.weight) * nxt
    return nxt, float(np.vdot(nxt, nxt).real)


def build_tree(grid: TimeGrid, schedule: Sequence[LayerLike],
               rho: DensityOperator | StateVector, *,
               residual_tol: float = DEFAULT_PRUNE_TOL) -> FrameworkTree:
    """Grow the full tree: one child per schedule member, in schedule order.

    Quantum layers may omit members, but only if the omitted remainder is
    unreachable: whenever the declared members capture less of a branch's
    probability than ``residual_tol`` allows, a ``ScheduleError`` is raised.
    """
    if len(schedule) != grid.nsteps:
        raise ScheduleError(
            f"schedule has {len(schedule)} layers for {grid.nsteps} time steps")
    if isinstance(rho, StateVector):
        rho = DensityOperator.from_state(rho.normalized())
    if rho.dim != grid.dim:
        raise DimensionMismatchError("initial condition dim differs from grid dim")

    resolved: dict[BranchPath, tuple[_Member, ...]] = {}
    root_state = rho.factor

    def grow(time_index: int, label: str | None, projector: Projector | None,
             weight: float, path: BranchPath, state: np.ndarray,
             prob: float) -> BranchNode:
        children: tuple[BranchNode, ...] = ()
        if time_index < grid.nsteps:
            members = resolved[path] = _as_members(schedule[time_index], path,
                                                   grid.dim)
            evolution = grid.evolution(time_index + 1)
            grown = []
            captured = 0.0
            for member in members:
                child_state, child_prob = _apply_member(state, evolution, member)
                grown.append(grow(time_index + 1, member.label, member.projector,
                                  member.weight, path + (member.label,),
                                  child_state, child_prob))
                captured += child_prob
            residual = prob - captured
            if residual > residual_tol:
                raise ScheduleError(
                    f"schedule members at time index {time_index + 1} leave "
                    f"probability {residual:.3e} unaccounted on branch {path!r}")
            children = tuple(grown)
        return BranchNode(time_index=time_index, label=label, projector=projector,
                          weight=weight, path=path, prob=prob, children=children,
                          state=state)

    root = grow(0, None, None, 1.0, (), root_state,
                float(np.vdot(root_state, root_state).real))
    return FrameworkTree(grid=grid, rho=rho, root=root, resolved=resolved)


def prune_zero_branches(tree: FrameworkTree,
                        tol: float = DEFAULT_PRUNE_TOL) -> FrameworkTree:
    """Remove every branch whose weight falls below ``tol``.

    Surviving probabilities are untouched (no renormalization); removed
    branch paths are recorded with their weights.  Idempotent.
    """
    removed: list[PrunedBranch] = []

    def rebuild(node: BranchNode) -> BranchNode | None:
        if node.label is not None and node.prob < tol:
            removed.append(PrunedBranch(path=node.path, weight=node.prob))
            return None
        kept = tuple(c for c in (rebuild(child) for child in node.children)
                     if c is not None)
        if node.children and not kept and node.label is not None:
            # all continuations vanished; the branch itself is unreachable
            removed.append(PrunedBranch(path=node.path, weight=node.prob))
            return None
        return BranchNode(time_index=node.time_index, label=node.label,
                          projector=node.projector, weight=node.weight,
                          path=node.path, prob=node.prob, children=kept,
                          state=node.state)

    root = rebuild(tree.root)
    if root is None:  # total weight below tolerance cannot happen for unit rho
        raise FrameworkViolationError("pruning removed the entire tree")
    return FrameworkTree(grid=tree.grid, rho=tree.rho, root=root,
                         resolved=tree.resolved,
                         pruned=tree.pruned + tuple(removed), prune_tol=tol)


def _leaf_history(tree: FrameworkTree, leaf: BranchNode) -> History:
    nodes: dict[int, BranchNode] = {}
    node = tree.root
    for label in leaf.path:
        node = next(c for c in node.children if c.label == label)
        nodes[node.time_index] = node
    events = []
    for t in range(1, tree.grid.nsteps + 1):
        branch = nodes[t]
        projector = branch.projector if branch.projector is not None \
            else identity_projector(tree.dim)
        events.append(HistoryEvent(time_index=t, label=branch.label,
                                   projector=projector))
    return History(grid=tree.grid, events=tuple(events))


def to_history_family(tree: FrameworkTree) -> HistoryFamily:
    """All leaf histories of a purely quantum tree as one family."""
    if tree.choice_time_indices:
        raise ValueError(
            "tree has classically weighted branches; its quantum content is "
            "blockwise, use tree_consistency instead")
    histories = tuple(_leaf_history(tree, leaf) for leaf in tree.leaves())
    return HistoryFamily(grid=tree.grid, rho=tree.rho, histories=histories)


@dataclass(frozen=True, eq=False)
class TreeConsistencyReport:
    """Consistency verdict per classical-choice block, plus the worst entry.

    A purely quantum tree has a single block keyed by the empty assignment.
    Branches separated by classical choices are exclusive by that randomness
    alone, so only same-choice pairs face the quantum condition.
    """

    blocks: tuple[tuple[BranchPath, ConsistencyReport], ...]
    tol: float
    consistent: bool
    worst: tuple[BranchPath, int, int, float] | None
    worst_paths: tuple[BranchPath, BranchPath] | None = None

    @property
    def worst_magnitude(self) -> float:
        return 0.0 if self.worst is None else self.worst[3]

    @property
    def verdict(self) -> str:
        return "consistent" if self.consistent else "inconsistent"


def tree_consistency(tree: FrameworkTree,
                     tol: float = SPECTRAL_TOL) -> TreeConsistencyReport:
    choice_times = set(tree.choice_time_indices)
    groups: dict[BranchPath, list[BranchNode]] = {}
    for leaf in tree.leaves():
        key = tuple(label for t, label in enumerate(leaf.path, start=1)
                    if t in choice_times)
        groups.setdefault(key, []).append(leaf)
    blocks = []
    worst: tuple[BranchPath, int, int, float] | None = None
    worst_paths: tuple[BranchPath, BranchPath] | None = None
    consistent = True
    for key in sorted(groups):
        family = HistoryFamily(
            grid=tree.grid, rho=tree.rho,
            histories=tuple(_leaf_history(tree, leaf) for leaf in groups[key]))
        report = consistency_matrix(family, tol)
        blocks.append((key, report))
        consistent = consistent and report.consistent
        if report.worst_offdiagonal is not None:
            g, k, magnitude = report.worst_offdiagonal
            if worst is None or magnitude > worst[3]:
                worst = (key, g, k, magnitude)
                worst_paths = (groups[key][g].path, groups[key][k].path)
    return TreeConsistencyReport(blocks=tuple(blocks), tol=tol,
                                 consistent=consistent, worst=worst,
                                 worst_paths=worst_paths)


@dataclass(frozen=True)
class CompatibilityWitness:
    time_index: int
    label_a: str
    label_b: str
    commutator: float


@dataclass(frozen=True)
class CompatibilityResult:
    compatible: bool
    witness: CompatibilityWitness | None = None


def check_compatibility(family_a: HistoryFamily, family_b: HistoryFamily,
                        atol: float = ALGEBRA_TOL) -> CompatibilityResult:
    """Two families are compatible iff all their projectors commute, time by
    time.  Returns the first non-commuting pair as a witness otherwise.
    """
    if family_a.grid.times != family_b.grid.times:
        raise ValueError("families live on different time grids")
    if family_a.grid.dim != family_b.grid.dim:
        raise DimensionMismatchError("families live in different spaces")

    def distinct_at(family: HistoryFamily, t: int) -> list[tuple[str, np.ndarray]]:
        out: list[tuple[str, np.ndarray]] = []
        for h in family.histories:
            ev = h.events[t - 1]
            if not any(m is ev.projector.matrix for _, m in out):
                out.append((ev.label, ev.projector.matrix))
        return out

    for t in range(1, family_a.grid.nsteps + 1):
        for label_a, pa in distinct_at(family_a, t):
            for label_b, pb in distinct_at(family_b, t):
                defect = commutator_norm(pa, pb)
                if defect > atol:
                    return CompatibilityResult(
                        compatible=False,
                        witness=CompatibilityWitness(
                            time_index=t, label_a=label_a, label_b=label_b,
                            commutator=defect))
    return CompatibilityResult(compatible=True)


@dataclass(frozen=True)
class SingleFrameworkCheck:
    ok: bool
    violations: tuple[BranchPath, ...] = ()


def enforce_single_framework(paths: Iterable[Iterable[str]],
                             tree: FrameworkTree) -> SingleFrameworkCheck:
    """Check that every path resolves inside this one tree's schedule.

    Resolution consults the declared schedule, so paths through pruned
    branches still resolve; any label foreign to the schedule is a
    violation.
    """
    violations: list[BranchPath] = []
    for raw in paths:
        path = tuple(str(label) for label in raw)
        if len(path) > tree.depth:
            violations.append(path)
            continue
        prefix: BranchPath = ()
        for depth, label in enumerate(path, start=1):
            if label not in tree.member_labels(depth, prefix):
                violations.append(path)
                break
            prefix = prefix + (label,)
    return SingleFrameworkCheck(ok=not violations, violations=tuple(violations))


# -- export / import ---------------------------------------------------------

TREE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TreeNodeDocument:
    label: str | None
    time: float
    probability: float
    pruned: bool
    children: tuple["TreeNodeDocument", ...]


@dataclass(frozen=True)
class TreeDocument:
    schema: int
    kind: str
    dim: int
    times: tuple[float, ...]
    root: TreeNodeDocument


def tree_document(tree: FrameworkTree) -> TreeDocument:
    """Serializable snapshot of the tree, pruned branches flagged in place."""
    pruned_map = {p.path: p.weight for p in tree.pruned}

    def node_doc(node: BranchNode) -> TreeNodeDocument:
        children: list[TreeNodeDocument] = []
        if node.time_index < tree.depth:
            present = {child.label: child for child in node.children}
            for label in tree.member_labels(node.time_index + 1, node.path):
                if label in present:
                    children.append(node_doc(present[label]))
                else:
                    stub_path = node.path + (label,)
                    if stub_path in pruned_map:
                        children.append(TreeNodeDocument(
                            label=label,
                            time=tree.grid.times[node.time_index + 1],
                            probability=pruned_map[stub_path],
                            pruned=True, children=()))
        return TreeNodeDocument(
            label=node.label, time=tree.grid.times[node.time_index],
            probability=node.prob, pruned=False, children=tuple(children))

    return TreeDocument(schema=TREE_SCHEMA_VERSION, kind="framework-tree",
                        dim=tree.dim, times=tree.grid.times,
                        root=node_doc(tree.root))


def _doc_to_json_obj(doc: TreeDocument) -> dict:
    def node_obj(node: TreeNodeDocument) -> dict:
        return {
            "label": node.label,
            "time": node.time,
            "probability": node.probability,
            "pruned": node.pruned,
            "children": [node_obj(c) for c in node.children],
        }

    return {
        "schema": doc.schema,
        "kind": doc.kind,
        "dim": doc.dim,
        "times": list(doc.times),
        "root": node_obj(doc.root),
    }


def import_tree_json(text: str) -> TreeDocument:
    """Parse a JSON tree export back into a document."""
    data = json.loads(text)
    if data.get("schema") != TREE_SCHEMA_VERSION or data.get("kind") != "framework-tree":
        raise ValueError("not a framework-tree document of a supported schema")

    def node_from(obj: dict) -> TreeNodeDocument:
        return TreeNodeDocument(
            label=obj["label"], time=float(obj["time"]),
            probability=float(obj["probability"]), pruned=bool(obj["pruned"]),
            children=tuple(node_from(c) for c in obj["children"]))

    return TreeDocument(schema=int(data["schema"]), kind=str(data["kind"]),
                        dim=int(data["dim"]),
                        times=tuple(float(t) for t in data["times"]),
                        root=node_from(data["root"]))


def export_tree(tree: FrameworkTree, fmt: str = "dot") -> str:
    """Render the tree as Graphviz DOT or as JSON (schema 1).

    Node order follows the schedule, so identical trees export byte-identical
    text.  Pruned branches appear dashed (DOT) or flagged (JSON).
    """
    doc = tree_document(tree)
    if fmt == "json":
        return json.dumps(_doc_to_json_obj(doc), sort_keys=True, indent=2)
    if fmt != "dot":
        raise ValueError(f"unknown export format {fmt!r}")

    lines = ["digraph framework_tree {", "  rankdir=LR;",
             '  node [shape=box, fontname="monospace"];']
    counter = 0

    def emit(node: TreeNodeDocument, parent_id: str | None) -> None:
        nonlocal counter
        node_id = f"n{counter}"
        counter += 1
        name = node.label if node.label is not None else "start"
        text = f"{name}\\nt={node.time:g} p={node.probability:.6f}"
        style = ", style=dashed" if node.pruned else ""
        lines.append(f'  {node_id} [label="{text}"{style}];')
        if parent_id is not None:
            edge_style = " [style=dashed]" if node.pruned else ""
            lines.append(f"  {parent_id} -> {node_id}{edge_style};")
        for child in node.children:
            emit(child, node_id)

    emit(doc.root, None)
    lines.append("}")
    return "\n".join(lines) + "\n"
