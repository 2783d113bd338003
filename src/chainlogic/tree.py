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

``build_tree`` turns each layer object into members and validates it once
per build, however many branch paths meet it, and keeps every node it grows
in ``FrameworkTree.grown``; later lookups on the tree only read it.

Node states are unnormalized square-root factors, not density matrices: a
branch's operator is state state^dagger, grown from ``rho.factor`` (a vector
for a pure state, one column per rank otherwise) and scaled by sqrt-weights
of classical choices, so a leaf's probability is the classical weight
product times the Born weight of its quantum events; its chain ket, grown
alike without the weights, gives ``tree_consistency`` its matrices.
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
    decomposition_at,
    gram_consistency,
)
from .qm import (
    ALGEBRA_TOL,
    DEFAULT_PRUNE_TOL,
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

# Largest |sum - 1| accepted for the weights of a classical choice.
CHOICE_WEIGHT_SUM_TOL = 1e-9


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
        if abs(total - 1.0) > CHOICE_WEIGHT_SUM_TOL:
            raise ScheduleError(f"classical choice weights sum to {total!r}, not 1")
        object.__setattr__(self, "members", members)


LayerLike = (
    ProjectiveDecomposition
    | ClassicalChoice
    | Sequence[tuple[str, Projector]]
    | Callable[[BranchPath], "ProjectiveDecomposition | ClassicalChoice | Sequence"]
)


def _as_members(layer, path: BranchPath, dim: int, resolved: dict
                ) -> tuple[tuple[str, Projector | None, float], ...]:
    """(label, projector or None for a choice, weight) per member of ``layer``
    under ``path``.  A callable is called per path; the object it returns, or
    the layer, is validated once per build: ``resolved`` maps its id to
    (object, members), which keeps the id unique until the build returns."""
    if callable(layer):
        try:
            layer = layer(path)
        except KeyError as exc:
            raise ScheduleError(f"schedule has no entry for branch {path!r}") from exc
    if id(layer) in resolved:
        return resolved[id(layer)][1]
    if isinstance(layer, ClassicalChoice):
        members = tuple((label, None, weight) for label, weight in layer.members)
    else:
        pairs = tuple((str(label), proj) for label, proj in layer)
        # an empty layer is left to build_tree, which reports it as unaccounted
        if pairs and not isinstance(layer, ProjectiveDecomposition):
            _check_pvm(pairs, complete=False)
        if pairs and pairs[0][1].dim != dim:  # mixed dims were refused above
            label, proj = pairs[0]
            raise DimensionMismatchError(
                f"projector {label!r} has dim {proj.dim}, tree dim is {dim}")
        members = tuple((label, proj, 1.0) for label, proj in pairs)
    resolved[id(layer)] = (layer, members)
    return members


@dataclass(frozen=True, eq=False)
class BranchNode:
    """One event in the tree; the root carries no event of its own.

    ``state`` is the unnormalized branch factor at this node's time, after the
    node's own event: the branch operator is state state^dagger, with one
    column per rank of a mixed initial condition.  ``prob`` is its weight.
    ``ket`` is the chain ket: the same propagation without the sqrt-weights,
    which would round differently if divided out of ``state`` afterwards (a
    choice event acts as the identity).  It is ``state`` itself, one array,
    on every node with no weight other than 1 above it.
    """

    time_index: int
    label: str | None
    projector: Projector | None
    weight: float
    path: BranchPath
    prob: float
    children: tuple["BranchNode", ...]
    state: np.ndarray = field(repr=False)
    ket: np.ndarray = field(repr=False)

    @property
    def is_choice(self) -> bool:
        return self.label is not None and self.projector is None


@dataclass(frozen=True, eq=False)
class FrameworkTree:
    """Built (and possibly pruned) branching structure over a time grid.

    ``grown`` maps every branch path the build grew, pruned ones included,
    to its node as grown: a node's children are the members the schedule
    declares under its path, in schedule order.  It answers every path
    lookup; ``leaves()`` is the one walk over the kept tree.  ``pruned``
    lists the paths pruning removed, each weighing ``grown[path].prob``.
    """

    grid: TimeGrid
    rho: DensityOperator
    root: BranchNode
    grown: dict[BranchPath, BranchNode]
    pruned: tuple[BranchPath, ...] = ()

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def depth(self) -> int:
        return self.grid.nsteps

    def leaves(self) -> tuple[BranchNode, ...]:
        """Leaves in pre-order, children left to right; this order fixes the
        consistency-matrix rows and the exported JSON."""
        out: list[BranchNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(reversed(node.children))
            else:
                out.append(node)
        return tuple(out)

    def leaf_probabilities(self) -> tuple[tuple[BranchPath, float], ...]:
        return tuple((leaf.path, leaf.prob) for leaf in self.leaves())

    @property
    def choice_time_indices(self) -> tuple[int, ...]:
        return _choice_times(_leaf_chains(self))

    def _members_at(self, time_index: int,
                    prefix: BranchPath) -> tuple[BranchNode, ...]:
        prefix = tuple(prefix)
        if (len(prefix) != time_index - 1 or time_index > self.depth
                or prefix not in self.grown):
            raise ScheduleError(
                f"no schedule layer at time index {time_index} under {prefix!r}")
        return self.grown[prefix].children

    def member_labels(self, time_index: int, prefix: BranchPath) -> tuple[str, ...]:
        """Labels the schedule declares at ``time_index`` under ``prefix``."""
        return tuple(m.label for m in self._members_at(time_index, prefix))

    def schedule_member(self, time_index: int, prefix: BranchPath,
                        label: str) -> BranchNode:
        """The grown node of the member ``label`` declared at ``time_index``
        under ``prefix``, pruned or not."""
        for member in self._members_at(time_index, prefix):
            if member.label == label:
                return member
        raise KeyError(label)


def _apply_event(state: np.ndarray, projector: Projector | None, weight: float,
                 ket: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """A branch factor and its ket, both evolved to the event's time, through
    ``projector`` (None for a choice: the identity) and ``weight`` into (state,
    ket, prob); state stays ket until a weight other than 1 applies."""
    if projector is None:
        nxt, nxt_ket = state, ket
    else:
        nxt_ket = projector.apply(ket)
        nxt = nxt_ket if state is ket else projector.apply(state)
    if weight != 1.0:
        nxt = np.sqrt(weight) * nxt
    return nxt, nxt_ket, float(np.vdot(nxt, nxt).real)


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

    grown: dict[BranchPath, BranchNode] = {}
    root_state = rho.factor
    root = _grow(grid, schedule, grown, {}, residual_tol, (), (None, None, 1.0),
                 root_state, root_state, float(np.vdot(root_state, root_state).real))
    return FrameworkTree(grid=grid, rho=rho, root=root, grown=grown)


def _grow(grid: TimeGrid, schedule: Sequence[LayerLike],
          grown: dict[BranchPath, BranchNode], resolved: dict,
          residual_tol: float, path: BranchPath, member: tuple,
          state: np.ndarray, ket: np.ndarray, prob: float) -> BranchNode:
    """The node ``member``, a (label, projector, weight), opens at ``path``,
    grown to full depth; each node is recorded in ``grown``, children before
    parents, and ``resolved`` is the build's table for ``_as_members``.
    The node's state and ket are evolved to the next time once, and every
    child applies its own event to them.
    Module-level rather than a closure, so a built tree holds no reference
    cycle and is freed as soon as it is dropped."""
    time_index = len(path)
    children: list[BranchNode] = []
    if time_index < grid.nsteps:
        members = _as_members(schedule[time_index], path, grid.dim, resolved)
        evolved_ket = grid.evolve(time_index + 1, ket)
        evolved = (evolved_ket if state is ket
                   else grid.evolve(time_index + 1, state))
        captured = 0.0
        for label, projector, weight in members:
            child = _grow(grid, schedule, grown, resolved, residual_tol,
                          path + (label,), (label, projector, weight),
                          *_apply_event(evolved, projector, weight, evolved_ket))
            children.append(child)
            captured += child.prob
        residual = prob - captured
        if residual > residual_tol:
            raise ScheduleError(
                f"schedule members at time index {time_index + 1} leave "
                f"probability {residual:.3e} unaccounted on branch {path!r}")
    # a member is (label, projector, weight), BranchNode's fields in order
    node = grown[path] = BranchNode(
        time_index, *member, path=path, prob=prob, children=tuple(children),
        state=state, ket=ket)
    return node


def prune_zero_branches(tree: FrameworkTree,
                        tol: float = DEFAULT_PRUNE_TOL) -> FrameworkTree:
    """Remove every branch whose weight falls below ``tol``.

    Surviving probabilities are untouched (no renormalization); removed
    branch paths are appended to ``pruned``.  Idempotent.  Only the
    ancestors of a removed branch are made anew: the pruned tree shares
    every other node, subtree and all, with ``tree``, so a tree with nothing
    to prune keeps its root.
    """
    removed: list[BranchPath] = []
    root = _rebuild(tree.root, tol, removed)
    if not root.children:  # the root itself, unlabeled, is never removed
        raise FrameworkViolationError("pruning removed the entire tree")
    return FrameworkTree(grid=tree.grid, rho=tree.rho, root=root,
                         grown=tree.grown, pruned=tree.pruned + tuple(removed))


def _rebuild(node: BranchNode, tol: float,
             removed: list[BranchPath]) -> BranchNode | None:
    """``node`` without its sub-``tol`` branches, or None when it goes too;
    removed paths are appended to ``removed`` in pre-order.  A node with
    nothing removed below it comes back as itself, subtree and all."""
    if node.label is not None and node.prob < tol:
        removed.append(node.path)
        return None
    rebuilt = [_rebuild(child, tol, removed) for child in node.children]
    if all(new is old for new, old in zip(rebuilt, node.children)):
        return node
    kept = tuple(c for c in rebuilt if c is not None)
    if not kept and node.label is not None:
        # all continuations vanished; the branch itself is unreachable
        removed.append(node.path)
        return None
    return BranchNode(time_index=node.time_index, label=node.label,
                      projector=node.projector, weight=node.weight,
                      path=node.path, prob=node.prob, children=kept,
                      state=node.state, ket=node.ket)


def _leaf_chains(tree: FrameworkTree) -> list[tuple[BranchNode, ...]]:
    """Each leaf's path as grown nodes below the root, in ``leaves`` order."""
    return [tuple(tree.grown[leaf.path[:k]] for k in range(1, len(leaf.path) + 1))
            for leaf in tree.leaves()]


def _choice_times(chains: Iterable[tuple[BranchNode, ...]]) -> tuple[int, ...]:
    """Time indices of the choice events on ``chains``; every node of a
    built or pruned tree lies on some leaf's chain."""
    return tuple(sorted({n.time_index for chain in chains for n in chain
                         if n.is_choice}))


def to_history_family(tree: FrameworkTree) -> HistoryFamily:
    """All leaf histories of a purely quantum tree as one family."""
    chains = _leaf_chains(tree)
    if _choice_times(chains):
        raise ValueError(
            "tree has classically weighted branches; its quantum content is "
            "blockwise, use tree_consistency instead")
    histories = tuple(History(grid=tree.grid, events=tuple(
        HistoryEvent(time_index=n.time_index, label=n.label, projector=n.projector)
        for n in chain)) for chain in chains)
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
    """Per block of leaves with the same classical choices, the Gram matrix of
    their kets: bit for bit ``consistency_matrix`` of the leaf histories (an
    identity event at each choice), one-decomposition check included."""
    chains = _leaf_chains(tree)
    choice_times = set(_choice_times(chains))
    groups: dict[BranchPath, list[tuple[BranchNode, ...]]] = {}
    for chain in chains:
        key = tuple(n.label for n in chain if n.time_index in choice_times)
        groups.setdefault(key, []).append(chain)
    blocks = []
    worst: tuple[BranchPath, int, int, float] | None = None
    worst_paths: tuple[BranchPath, BranchPath] | None = None
    consistent = True
    no_event = identity_projector(tree.dim) if choice_times else None
    for key in sorted(groups):
        chains = groups[key]
        for t, nodes in enumerate(zip(*chains), start=1):
            decomposition_at(t, ((n.label, n.projector or no_event) for n in nodes))
        report = gram_consistency([c[-1].ket for c in chains], tol)
        blocks.append((key, report))
        consistent = consistent and report.consistent
        if report.worst_offdiagonal is not None:
            g, k, magnitude = report.worst_offdiagonal
            if worst is None or magnitude > worst[3]:
                worst = (key, g, k, magnitude)
                worst_paths = (chains[g][-1].path, chains[k][-1].path)
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


def check_compatibility(family_a: HistoryFamily,
                        family_b: HistoryFamily) -> CompatibilityResult:
    """Two families are compatible iff all their projectors commute, time by
    time.  Returns the first non-commuting pair as a witness otherwise.
    """
    if family_a.grid.times != family_b.grid.times:
        raise ValueError("families live on different time grids")
    if family_a.grid.dim != family_b.grid.dim:
        raise DimensionMismatchError("families live in different spaces")

    def distinct_at(family: HistoryFamily, t: int) -> list[tuple[str, Projector]]:
        events = (h.events[t - 1] for h in family.histories)
        return decomposition_at(t, ((ev.label, ev.projector) for ev in events))

    for t in range(1, family_a.grid.nsteps + 1):
        for label_a, pa in distinct_at(family_a, t):
            for label_b, pb in distinct_at(family_b, t):
                defect = commutator_norm(pa.matrix, pb.matrix)
                if defect > ALGEBRA_TOL:
                    return CompatibilityResult(
                        compatible=False,
                        witness=CompatibilityWitness(
                            time_index=t, label_a=label_a, label_b=label_b,
                            commutator=defect))
    return CompatibilityResult(compatible=True)


def enforce_single_framework(paths: Iterable[Iterable[str]],
                             tree: FrameworkTree) -> tuple[BranchPath, ...]:
    """The paths that do not resolve inside this one tree's schedule, in
    order; empty when every path does.

    A path resolves when the build grew it, so paths through pruned
    branches still resolve; any label foreign to the schedule, or declared
    at another depth, is a violation.
    """
    candidates = (tuple(str(label) for label in raw) for raw in paths)
    return tuple(path for path in candidates if path not in tree.grown)


# -- export / import ---------------------------------------------------------

TREE_SCHEMA_VERSION = 1


def tree_document(tree: FrameworkTree) -> dict:
    """The tree as the dict ``export_tree`` dumps to JSON (the shape of
    ``tree.schema.json``), pruned branches flagged in place."""
    return {"schema": TREE_SCHEMA_VERSION, "kind": "framework-tree",
            "dim": tree.dim, "times": list(tree.grid.times),
            "root": _node_doc(tree, tree.root)}


def _node_doc(tree: FrameworkTree, node: BranchNode, pruned: bool = False) -> dict:
    """``node``'s document; a pruned branch is a stub without children."""
    children = []
    if not pruned:
        present = {child.label: child for child in node.children}
        children = [_node_doc(tree, present.get(child.label, child),
                              child.label not in present)
                    for child in tree.grown[node.path].children]
    return {"label": node.label, "time": tree.grid.times[node.time_index],
            "probability": node.prob, "pruned": pruned, "children": children}


def _number(value) -> bool:
    """A JSON number; Python counts a bool as an int, JSON does not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# field: (test, what ``tree.schema.json`` asks of its value)
_FIELDS = {
    "dim": (lambda v: _number(v) and v % 1 == 0 and v >= 1, "an integer >= 1"),
    "times": (lambda v: isinstance(v, list) and len(v) >= 2
              and all(map(_number, v)), "an array of at least 2 numbers"),
    "root": (lambda v: isinstance(v, dict), "an object"),
    "label": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "time": (_number, "a number"),
    "probability": (_number, "a number"),
    "pruned": (lambda v: isinstance(v, bool), "a boolean"),
    "children": (lambda v: isinstance(v, list)
                 and all(isinstance(c, dict) for c in v), "an array of objects"),
}


def _check(obj: dict, names: Sequence[str]) -> None:
    for name in names:
        test, want = _FIELDS[name]
        if not test(obj[name]):
            raise ValueError(
                f"malformed framework-tree document: {name!r} must be {want}")


def import_tree_json(text: str) -> dict:
    """Parse a JSON tree export back into the dict ``tree_document`` gives.

    What ``tree.schema.json`` refuses is refused, with a ``ValueError``
    naming the missing or mistyped field; no value is coerced."""
    data = json.loads(text)
    if (not isinstance(data, dict) or not _number(data.get("schema"))
            or data["schema"] != TREE_SCHEMA_VERSION
            or data.get("kind") != "framework-tree"):
        raise ValueError("not a framework-tree document of a supported schema")
    try:
        _check(data, ("dim", "times", "root"))
        stack = [data["root"]]
        while stack:
            node = stack.pop()
            _check(node, ("label", "time", "probability", "pruned", "children"))
            stack.extend(node["children"])
    except KeyError as missing:
        raise ValueError(
            f"framework-tree document lacks the field {missing}") from None
    return data


def export_tree(tree: FrameworkTree, fmt: str = "dot") -> str:
    """Render the tree as Graphviz DOT or as JSON (schema 1).

    Node order follows the schedule, so identical trees export byte-identical
    text.  Pruned branches appear dashed (DOT) or flagged (JSON).
    """
    doc = tree_document(tree)
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2)
    if fmt != "dot":
        raise ValueError(f"unknown export format {fmt!r}")

    lines = ["digraph framework_tree {", "  rankdir=LR;",
             '  node [shape=box, fontname="monospace"];']
    # pre-order, children left to right; ids count nodes in that order
    stack: list[tuple[dict, str | None]] = [(doc["root"], None)]
    counter = 0
    while stack:
        node, parent_id = stack.pop()
        node_id = f"n{counter}"
        counter += 1
        name = node["label"] if node["label"] is not None else "start"
        name = name.replace("\\", "\\\\").replace('"', '\\"')
        text = f"{name}\\nt={node['time']:g} p={node['probability']:.6f}"
        style = ", style=dashed" if node["pruned"] else ""
        lines.append(f'  {node_id} [label="{text}"{style}];')
        if parent_id is not None:
            edge_style = " [style=dashed]" if node["pruned"] else ""
            lines.append(f"  {parent_id} -> {node_id}{edge_style};")
        stack.extend((child, node_id) for child in reversed(node["children"]))
    lines.append("}")
    return "\n".join(lines) + "\n"
