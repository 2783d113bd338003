"""The tree engine against ``oracle_histories`` on random schedules.

Each example draws a dimension of 2-5, a depth of 2-4, one evolution per
step (identity, dense or ``LocalUnitary``), a pure or rank-r state and one
layer per time: a classical choice (some weights zero) or a quantum layer
(random complete PVMs, diagonal or dense, possibly chosen by the last
classical choice, or a partial first layer whose omitted members annihilate
every branch that reaches them).  Quantum layers are handed to the engine as
a list, a ``ProjectiveDecomposition``, a callable returning one shared list
for every path, or a callable returning a fresh, equal list per path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_histories as oracle
from chainlogic.counterfactual import (
    CounterfactualQuery,
    evaluate_counterfactual,
    find_pivot,
)
from chainlogic.errors import FrameworkViolationError, VacuousPremiseError
from chainlogic.histories import TimeGrid
from chainlogic.qm import (
    DEFAULT_PRUNE_TOL,
    SPECTRAL_TOL,
    DensityOperator,
    LocalUnitary,
    Projector,
    StateVector,
    validate_pvm,
)
from chainlogic.tree import (
    ClassicalChoice,
    build_tree,
    prune_zero_branches,
    tree_consistency,
)

PROB_TOL = 1e-10


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@dataclass
class Quantum:
    """One quantum layer: per key (the last classical choice label, or
    None) a list of (label, entries), entries a diagonal or a matrix."""

    variants: dict
    serve: str  # "list", "decomposition", "shared" or "fresh"
    depends_on: int | None  # time index of the choice that picks the variant


@dataclass
class Spec:
    dim: int
    steps: list  # per step: ("identity",) | ("dense", U) | ("local", op, dims, site)
    layers: list  # per time: ClassicalChoice or Quantum
    factor: np.ndarray
    pure: bool

    def dense_steps(self) -> list[np.ndarray]:
        out = []
        for step in self.steps:
            if step[0] == "identity":
                out.append(np.eye(self.dim))
            elif step[0] == "dense":
                out.append(step[1])
            else:
                _, op, dims, site = step
                parts = [np.eye(d) for d in dims]
                parts[site] = op
                full = parts[0]
                for part in parts[1:]:
                    full = np.kron(full, part)
                out.append(full)
        return out

    def variant_key(self, layer: Quantum, path) -> str | None:
        return None if layer.depends_on is None else path[layer.depends_on - 1]

    def members(self, t: int, path):
        layer = self.layers[t - 1]
        if isinstance(layer, ClassicalChoice):
            return [(label, None, w) for label, w in layer.members]
        entries = layer.variants[self.variant_key(layer, path)]
        return [(label, np.diag(e) if e.ndim == 1 else e, 1.0)
                for label, e in entries]

    def engine_schedule(self) -> list:
        schedule = []
        for layer in self.layers:
            if isinstance(layer, ClassicalChoice):
                schedule.append(layer)
                continue
            built = {key: [(label, Projector(e)) for label, e in entries]
                     for key, entries in layer.variants.items()}
            if layer.serve == "list":
                schedule.append(built[None])
            elif layer.serve == "decomposition":
                schedule.append(validate_pvm(built[None]))
            elif layer.serve == "shared":
                schedule.append(
                    lambda path, layer=layer, built=built:
                    built[self.variant_key(layer, path)])
            else:
                schedule.append(
                    lambda path, layer=layer:
                    [(label, Projector(e)) for label, e
                     in layer.variants[self.variant_key(layer, path)]])
        return schedule

    def engine_grid(self) -> TimeGrid:
        steps = []
        for step in self.steps:
            if step[0] == "identity":
                steps.append(LocalUnitary(np.eye(1), (self.dim,), ()))
            elif step[0] == "dense":
                steps.append(step[1])
            else:
                _, op, dims, site = step
                steps.append(LocalUnitary(op, dims, (site,)))
        return TimeGrid(tuple(float(t) for t in range(len(steps) + 1)), tuple(steps))

    def engine_state(self):
        if self.pure:
            return StateVector(self.factor[:, 0])
        return DensityOperator(self.factor @ self.factor.conj().T)


def random_pvm(draw, rng, dim: int, basis: np.ndarray | None, name: str,
               fewest: int = 1):
    """Members grouping the columns of ``basis`` (the computational basis,
    as diagonals, when None) into ``fewest`` to three projectors."""
    count = draw(st.integers(fewest, min(dim, 3)))
    groups = [int(g) for g in rng.integers(0, count, size=dim)]
    groups[:count] = range(count)  # no group is empty
    members = []
    for k in range(count):
        cols = [i for i in range(dim) if groups[i] == k]
        if basis is None:
            entries = np.zeros(dim)
            entries[cols] = 1.0
        else:
            b = basis[:, cols]
            entries = b @ b.conj().T
        members.append((f"{name}{k}", entries, cols))
    return members


@st.composite
def specs(draw) -> Spec:
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 5))
    depth = draw(st.integers(2, 4))
    kinds = [draw(st.sampled_from(("choice", "quantum"))) for _ in range(depth)]
    first_quantum = kinds.index("quantum") if "quantum" in kinds else None
    partial = first_quantum is not None and draw(st.booleans())

    steps = []
    for t in range(depth):
        if partial and t <= first_quantum:
            kind = "identity"  # the state reaches the partial layer unmoved
        else:
            kind = draw(st.sampled_from(("identity", "dense", "local")))
        if kind == "dense":
            steps.append(("dense", random_unitary(rng, dim)))
        elif kind == "local":
            dims = (2, 2) if dim == 4 else (dim,)
            site = draw(st.integers(0, len(dims) - 1))
            steps.append(("local", random_unitary(rng, dims[site]), dims, site))
        else:
            steps.append(("identity",))

    rank = draw(st.integers(1, dim))
    support = np.eye(dim)
    layers: list = []
    last_choice = None
    for t, kind in enumerate(kinds, start=1):
        if kind == "choice":
            count = draw(st.integers(1, 3))
            weights = rng.uniform(0.05, 1.0, size=count)
            weights[[draw(st.booleans()) and count > 1 for _ in range(count)]] = 0.0
            if weights.sum() == 0.0:
                weights[0] = 1.0
            weights /= weights.sum()
            layers.append(ClassicalChoice(tuple(
                (f"c{t}.{k}", float(w)) for k, w in enumerate(weights))))
            last_choice = (t, count)
            continue
        diagonal = draw(st.booleans())
        if partial and t - 1 == first_quantum:
            basis = None if diagonal else random_unitary(rng, dim)
            members = random_pvm(draw, rng, dim, basis, f"q{t}.", fewest=2)
            kept = [m for m in members if draw(st.booleans())] or members[:1]
            if len(kept) == len(members):
                kept = members[:-1]
            cols = sorted(c for _, _, group in kept for c in group)
            support = np.eye(dim)[:, cols] if basis is None else basis[:, cols]
            rank = min(rank, len(cols))
            layers.append(Quantum({None: [(label, e) for label, e, _ in kept]},
                                  draw(st.sampled_from(("list", "shared", "fresh"))),
                                  None))
            continue
        depends = last_choice is not None and draw(st.booleans())
        keys = ([f"c{last_choice[0]}.{k}" for k in range(last_choice[1])]
                if depends else [None])
        variants = {}
        for v, key in enumerate(keys):
            basis = None if diagonal else random_unitary(rng, dim)
            variants[key] = [(label, e) for label, e, _ in
                             random_pvm(draw, rng, dim, basis, f"q{t}{'abc'[v]}.")]
        serve = draw(st.sampled_from(
            ("shared", "fresh") if depends else
            ("list", "decomposition", "shared", "fresh")))
        layers.append(Quantum(variants, serve, last_choice[0] if depends else None))

    pure = draw(st.booleans())
    if pure:
        rank = 1
    coeffs = rng.normal(size=(support.shape[1], rank)) \
        + 1j * rng.normal(size=(support.shape[1], rank))
    factor = support @ coeffs
    factor /= np.linalg.norm(factor)
    return Spec(dim, steps, layers, factor, pure)


def check_consistency(tree, hists, choice_times) -> None:
    report = tree_consistency(tree)
    blocks = oracle.gram_blocks(hists, choice_times)
    assert [key for key, _ in report.blocks] == [key for key, _ in blocks]
    worst = 0.0
    for (_, got), (_, want) in zip(report.blocks, blocks):
        np.testing.assert_allclose(got.matrix, want, rtol=0, atol=PROB_TOL)
        off = np.abs(want - np.diag(np.diag(want)))
        worst = max(worst, float(off.max()))
    assert report.worst_magnitude == pytest.approx(worst, abs=PROB_TOL)
    if abs(worst - report.tol) > 1e-12:
        assert report.consistent == (worst < report.tol)
    if worst > PROB_TOL:  # below it the worst entry's place is rounding
        key, g, k, _ = report.worst
        assert g != k
        assert abs(dict(blocks)[key][g, k]) == pytest.approx(worst, abs=PROB_TOL)


def draw_queries(draw, spec: Spec, hists):
    """Premises read off drawn histories (weighted or not) or drawn label by
    label, so that some are vacuous."""
    depth = len(spec.layers)
    declared = [sorted({h.path[t] for h in hists}) for t in range(depth)]
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        pivot = draw(st.integers(1, depth))
        times = draw(st.sets(st.integers(1, depth), min_size=1))
        if draw(st.booleans()):
            record = draw(st.sampled_from(hists)).path
            premise = {t: record[t - 1] for t in times}
        else:
            premise = {t: draw(st.sampled_from(declared[t - 1])) for t in times}
        alternative = draw(st.sampled_from(declared[pivot - 1]))
        queries.append((premise, pivot, alternative))
    return queries


def check_query(tree, nodes, hists, spec: Spec, premise, pivot, alternative):
    depth = len(spec.layers)
    query = CounterfactualQuery(premise=premise, pivot_time=pivot,
                                alternative=alternative)
    try:
        _, want_posteriors = oracle.posteriors(hists, premise, pivot, SPECTRAL_TOL)
    except oracle.Vacuous:
        with pytest.raises(VacuousPremiseError):
            find_pivot(tree, query)
        with pytest.raises(VacuousPremiseError):
            evaluate_counterfactual(tree, query)
        return
    got = {p.path: p.posterior for p in find_pivot(tree, query)}
    assert sorted(got) == sorted(want_posteriors)
    for prefix, posterior in want_posteriors.items():
        assert got[prefix] == pytest.approx(posterior, abs=PROB_TOL)
    try:
        want = oracle.counterfactual(nodes, hists, spec.members, depth, premise,
                                     pivot, alternative, SPECTRAL_TOL)
    except oracle.NotOffered:
        with pytest.raises(FrameworkViolationError, match="not offered"):
            evaluate_counterfactual(tree, query)
        return
    except oracle.Vacuous:
        with pytest.raises(VacuousPremiseError, match="carries no probability"):
            evaluate_counterfactual(tree, query)
        return
    verdict = evaluate_counterfactual(tree, query)
    assert (verdict.kind, verdict.outcome) == (want.kind, want.outcome)
    assert verdict.impossible_outcomes == want.impossible
    assert [p.path for p in verdict.pivots] == list(want.pivots)
    for pivot_path in verdict.pivots:
        _, outcomes = want.pivots[pivot_path.path]
        assert sorted(pivot_path.outcomes) == sorted(outcomes)
        for key, p in outcomes.items():
            assert pivot_path.outcomes[key] == pytest.approx(p, abs=PROB_TOL)
    assert sorted(verdict.distribution) == sorted(want.distribution)
    for key, p in want.distribution.items():
        assert verdict.distribution[key] == pytest.approx(p, abs=PROB_TOL)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_engine_matches_explicit_chain_products(data):
    spec = data.draw(specs())
    depth = len(spec.layers)
    tree = build_tree(spec.engine_grid(), spec.engine_schedule(),
                      spec.engine_state())
    nodes = oracle.grow(spec.dense_steps(), spec.members, spec.factor)
    hists = oracle.histories(nodes, depth)

    got = tree.leaf_probabilities()
    assert [path for path, _ in got] == [h.path for h in hists]
    for (_, p), h in zip(got, hists):
        assert p == pytest.approx(h.weight, abs=PROB_TOL)
    choice_times = [t for t, layer in enumerate(spec.layers, start=1)
                    if isinstance(layer, ClassicalChoice)]
    check_consistency(tree, hists, choice_times)

    kept = oracle.surviving(nodes, depth, DEFAULT_PRUNE_TOL)
    pruned = prune_zero_branches(tree)
    assert [leaf.path for leaf in pruned.leaves()] == [h.path for h in kept]
    check_consistency(pruned, kept, choice_times)

    for premise, pivot, alternative in draw_queries(data.draw, spec, hists):
        check_query(tree, nodes, hists, spec, premise, pivot, alternative)
        check_query(pruned, nodes, kept, spec, premise, pivot, alternative)
