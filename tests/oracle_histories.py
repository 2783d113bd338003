"""Brute-force consistent-histories reference for any explicit schedule.

Like ``oracles.py`` this module imports nothing from the package under test.
A schedule is given as plain data:

  * ``steps``: one dense unitary per time step, ``steps[t - 1]`` carrying
    time t - 1 to time t;
  * ``members(t, prefix)``: the (label, projector, weight) members declared
    at time index t under the branch path ``prefix``, a projector of None
    marking a classical choice (the identity) and a weight of 1 a quantum
    event;
  * ``factor``: A with rho = A A^dagger, one column per rank.

Every full history h is enumerated in pre-order, members in schedule order,
and its weight is prod(w) * ||C_h A||^2 with the chain product
C_h = P_n U_n ... P_1 U_1 written out explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SEPARATOR = " / "


class Vacuous(Exception):
    """The premise, or the alternative under some pivot, has no weight."""


class NotOffered(Exception):
    """The alternative is not declared under some pivot prefix."""


@dataclass(frozen=True)
class Node:
    path: tuple[str, ...]
    weight: float  # prod(w) * ||C A||^2
    ket: np.ndarray  # C A, without the classical weights


def grow(steps, members, factor) -> dict[tuple[str, ...], Node]:
    """Every node of the full tree, root ``()`` included, keyed by path and
    inserted in pre-order."""
    factor = np.asarray(factor, dtype=complex).reshape(len(steps[0]), -1)
    nodes: dict[tuple[str, ...], Node] = {}

    def visit(path, chain, weights):
        ket = chain @ factor
        nodes[path] = Node(path, weights * float(np.sum(np.abs(ket) ** 2)), ket)
        t = len(path) + 1
        if t > len(steps):
            return
        for label, projector, weight in members(t, path):
            event = np.eye(len(chain)) if projector is None else projector
            visit(path + (label,), event @ steps[t - 1] @ chain, weights * weight)

    visit((), np.eye(len(steps[0]), dtype=complex), 1.0)
    return nodes


def histories(nodes, depth: int) -> list[Node]:
    """The full-depth nodes, in pre-order."""
    return [node for node in nodes.values() if len(node.path) == depth]


def surviving(nodes, depth: int, prune_tol: float) -> list[Node]:
    """Full histories none of whose prefixes weighs below ``prune_tol``."""
    return [node for node in histories(nodes, depth)
            if all(nodes[node.path[:k]].weight >= prune_tol
                   for k in range(1, depth + 1))]


def gram_blocks(hists, choice_times) -> list[tuple[tuple[str, ...], np.ndarray]]:
    """Per assignment of the classical choices, sorted, the Gram matrix
    M[g, k] = Tr((C_g A)^dagger (C_k A)) of its histories."""
    groups: dict[tuple[str, ...], list[Node]] = {}
    for node in hists:
        key = tuple(node.path[t - 1] for t in sorted(choice_times))
        groups.setdefault(key, []).append(node)
    blocks = []
    for key in sorted(groups):
        kets = groups[key]
        blocks.append((key, np.array([[np.vdot(g.ket, k.ket) for k in kets]
                                      for g in kets])))
    return blocks


def posteriors(hists, premise, pivot_time: int, tol: float):
    """(premise weight, {pre-pivot prefix: posterior}) over ``hists``."""
    matching = [h for h in hists
                if all(h.path[t - 1] == label for t, label in premise.items())]
    total = sum(h.weight for h in matching)
    if total <= tol or total <= 0.0:
        raise Vacuous(premise)
    byprefix: dict[tuple[str, ...], float] = {}
    for h in matching:
        prefix = h.path[:pivot_time - 1]
        byprefix[prefix] = byprefix.get(prefix, 0.0) + h.weight
    return total, {prefix: w / total for prefix, w in byprefix.items()}


def continuation(nodes, members, depth: int, prefix, pivot_time: int,
                 alternative: str) -> dict[str, float]:
    """P(h) / P(prefix + alternative) over every full history h through
    prefix + alternative, keyed by its labels after the pivot."""
    if alternative not in [label for label, _, _ in members(pivot_time, prefix)]:
        raise NotOffered(prefix)
    start = tuple(prefix) + (alternative,)
    below = [h for h in histories(nodes, depth) if h.path[:pivot_time] == start]
    total = sum(h.weight for h in below)
    if total <= 0.0:
        raise Vacuous(start)
    out: dict[str, float] = {}
    for h in below:
        suffix = h.path[pivot_time:]
        key = SEPARATOR.join(suffix) if suffix else alternative
        out[key] = out.get(key, 0.0) + h.weight / total
    return out


@dataclass(frozen=True)
class Verdict:
    kind: str
    outcome: str | None
    impossible: tuple[str, ...]
    pivots: dict  # prefix -> (posterior, continuation)
    distribution: dict


def counterfactual(nodes, hists, members, depth: int, premise, pivot_time: int,
                   alternative: str, tol: float, targets=None) -> Verdict:
    """Necessary: forced above 1 - tol on every pivot; impossible: below tol
    on every pivot.  The premise is checked first, then each pivot in
    sorted order."""
    _, post = posteriors(hists, premise, pivot_time, tol)
    pivots = {prefix: (post[prefix], continuation(nodes, members, depth, prefix,
                                                  pivot_time, alternative))
              for prefix in sorted(post)}
    candidates = (set(targets) if targets is not None
                  else {k for _, outcomes in pivots.values() for k in outcomes})
    values = {c: [outcomes.get(c, 0.0) for _, outcomes in pivots.values()]
              for c in sorted(candidates)}
    necessary = [c for c, v in values.items() if all(1.0 - x < tol for x in v)]
    impossible = tuple(c for c, v in values.items() if all(x < tol for x in v))
    distribution = {c: sum(p * outcomes.get(c, 0.0) for p, outcomes in pivots.values())
                    for c in sorted(candidates)}
    kind, outcome = ("necessary", necessary[0]) if necessary else ("possible", None)
    return Verdict(kind, outcome, impossible, pivots, distribution)
