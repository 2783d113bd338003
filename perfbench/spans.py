"""Span tracing for the benchmark's traced run.

A ``Tracer`` wraps public functions and methods of ``chainlogic`` by
replacing the attribute each caller reads: a function is replaced in every
``chainlogic`` module that binds it (``chainlogic.hardy`` calls
``build_tree`` through its own namespace, not through ``chainlogic.tree``),
a method on its class.  Each call then records a span: name, parent span,
op index, start and end (``perf_counter_ns``) and the exception it raised,
if any.  Spans are kept in memory in one flat integer array and written
out when the run ends.  A target that no longer exists is skipped and its
metrics read zero calls.

Nothing is patched until ``installed()`` is entered, and every patch is
undone when it exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# (span name, module, attribute); a dotted attribute names a method.
TARGETS = (
    ("cli.main", "chainlogic.cli", "main"),
    ("cli.build_parser", "chainlogic.cli", "build_parser"),
    ("hardy.build_scenario", "chainlogic.hardy", "build_measurement_scenario"),
    ("hardy.measurement_unitary", "chainlogic.hardy", "measurement_unitary"),
    ("hardy.verify", "chainlogic.hardy", "verify_hardy_predictions"),
    ("hardy.no_signaling", "chainlogic.hardy", "no_signaling_report"),
    ("tree.build_tree", "chainlogic.tree", "build_tree"),
    ("tree.prune", "chainlogic.tree", "prune_zero_branches"),
    ("tree.consistency", "chainlogic.tree", "tree_consistency"),
    ("tree.member_labels", "chainlogic.tree", "FrameworkTree.member_labels"),
    ("tree.schedule_member", "chainlogic.tree", "FrameworkTree.schedule_member"),
    ("histories.family_check", "chainlogic.histories", "HistoryFamily.__post_init__"),
    ("histories.consistency_matrix", "chainlogic.histories", "consistency_matrix"),
    ("histories.chain_operator", "chainlogic.histories", "chain_operator"),
    ("qm.projector", "chainlogic.qm", "Projector.__post_init__"),
    ("qm.embed_operator", "chainlogic.qm", "embed_operator"),
    ("qm.density", "chainlogic.qm", "DensityOperator.__post_init__"),
    ("counterfactual.evaluate", "chainlogic.counterfactual", "evaluate_counterfactual"),
    ("counterfactual.find_pivot", "chainlogic.counterfactual", "find_pivot"),
    ("counterfactual.locality", "chainlogic.counterfactual", "locality_report"),
)

ROOT_SPAN = "op"
FIELDS = ("name", "parent", "op", "start_ns", "end_ns", "error")
_WIDTH = len(FIELDS)


def _count_nodes(root) -> tuple[int, int]:
    """(nodes, leaves) below and including ``root``."""
    nodes = leaves = 0
    stack = [root]
    while stack:
        node = stack.pop()
        nodes += 1
        if node.children:
            stack.extend(node.children)
        else:
            leaves += 1
    return nodes, leaves


def _after_build(counters: Counter, tree) -> None:
    nodes, leaves = _count_nodes(tree.root)
    counters["tree.nodes_grown"] += nodes
    counters["tree.leaves_grown"] += leaves


def _after_prune(counters: Counter, tree) -> None:
    counters["tree.leaves_kept"] += _count_nodes(tree.root)[1]


def _after_consistency(counters: Counter, report) -> None:
    counters["tree.consistency_blocks"] += len(report.blocks)


def _after_find_pivot(counters: Counter, pivots) -> None:
    counters["counterfactual.pivots"] += len(pivots)


# Counts read off a call's result, for work the span alone does not show.
AFTER = {
    "tree.build_tree": _after_build,
    "tree.prune": _after_prune,
    "tree.consistency": _after_consistency,
    "counterfactual.find_pivot": _after_find_pivot,
}


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    errors: Counter = field(default_factory=Counter)


class Tracer:
    """In-memory span recorder; create one per traced run."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = tuple(targets)
        self.names = [name for name, _, _ in self.targets] + [ROOT_SPAN]
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.errors = [""]
        self.spans = array("q")
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1

    # -- recording -----------------------------------------------------------

    def _error_id(self, exc: BaseException) -> int:
        name = type(exc).__name__
        if name not in self.errors:
            self.errors.append(name)
        return self.errors.index(name)

    def _call(self, name_id: int, fn, args, kwargs, after):
        spans = self.spans
        base = len(spans)
        parent = self._stack[-1] if self._stack else -1
        spans.extend((name_id, parent, self._op, 0, 0, 0))
        self._stack.append(base // _WIDTH)
        spans[base + 3] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            spans[base + 4] = time.perf_counter_ns()
            spans[base + 5] = self._error_id(exc)
            raise
        finally:
            self._stack.pop()
        spans[base + 4] = time.perf_counter_ns()
        if after is not None:
            after(self.counters, result)
        return result

    def run_op(self, op_index: int, fn, *args):
        """Run one benchmark op under a root span that its spans share."""
        self._op = op_index
        return self._call(self._name_id[ROOT_SPAN], fn, args, {}, None)

    def _wrap(self, name: str, fn):
        name_id = self._name_id[name]
        after = AFTER.get(name)
        call = self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(name_id, fn, args, kwargs, after)

        return traced

    # -- patching ------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        patches = []
        self.missing = []
        try:
            for name, module_name, attr in self.targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.missing.append(name)
                    continue
                if "." in attr:
                    cls_name, method = attr.split(".", 1)
                    owner = getattr(module, cls_name, None)
                    original = (None if owner is None
                                else owner.__dict__.get(method))
                    if original is None:
                        self.missing.append(name)
                        continue
                    patches.append((owner, method, original))
                    setattr(owner, method, self._wrap(name, original))
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(name)
                    continue
                traced = self._wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "chainlogic"
                                           or mod_name.startswith("chainlogic.")):
                        continue
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, binding, original))
                            setattr(mod, binding, traced)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.spans) // _WIDTH

    def stats(self) -> dict[str, SpanStats]:
        """Calls, total and self time, and errors per span name.

        Self time is a span's duration minus the time its direct children
        cover; spans nest strictly, so children never overlap.
        """
        table = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _WIDTH)
        name, parent = table[:, 0], table[:, 1]
        duration = table[:, 4] - table[:, 3]
        nested = parent >= 0
        child_ns = np.bincount(parent[nested], weights=duration[nested],
                               minlength=len(table))
        width = len(self.names)
        calls = np.bincount(name, minlength=width)
        total_ns = np.bincount(name, weights=duration, minlength=width)
        self_ns = np.bincount(name, weights=duration - child_ns, minlength=width)
        out = {label: SpanStats(calls=int(calls[i]), total_ns=int(total_ns[i]),
                                self_ns=int(self_ns[i]))
               for i, label in enumerate(self.names)}
        for row in np.flatnonzero(table[:, 5]):
            out[self.names[name[row]]].errors[self.errors[table[row, 5]]] += 1
        return out

    def write(self, stem: Path) -> None:
        """Spans as raw int64 rows of ``FIELDS`` in ``<stem>.i64``, with a
        JSON description (names, errors, byte order) in ``<stem>.json``."""
        stem.with_suffix(".json").write_text(json.dumps({
            "fields": FIELDS, "dtype": "int64", "byteorder": sys.byteorder,
            "spans": self.span_count, "names": self.names, "errors": self.errors,
            "missing": self.missing}, indent=1) + "\n")
        with open(stem.with_suffix(".i64"), "wb") as out:
            self.spans.tofile(out)


# (metric, span, field); field is "total" or "self" time, or "calls".
SPAN_METRICS = (
    ("cli.build_parser_ms", "cli.build_parser", "total"),
    ("cli.main_self_ms", "cli.main", "self"),
    ("hardy.build_scenario_ms", "hardy.build_scenario", "total"),
    ("hardy.build_scenario_self_ms", "hardy.build_scenario", "self"),
    ("hardy.measurement_unitary_ms", "hardy.measurement_unitary", "total"),
    ("hardy.verify_ms", "hardy.verify", "total"),
    ("hardy.no_signaling_ms", "hardy.no_signaling", "total"),
    ("tree.build_tree_ms", "tree.build_tree", "total"),
    ("tree.prune_ms", "tree.prune", "total"),
    ("tree.consistency_ms", "tree.consistency", "total"),
    ("tree.member_labels_calls", "tree.member_labels", "calls"),
    ("tree.member_labels_ms", "tree.member_labels", "total"),
    ("tree.schedule_member_calls", "tree.schedule_member", "calls"),
    ("histories.family_checks", "histories.family_check", "calls"),
    ("histories.family_check_ms", "histories.family_check", "total"),
    ("histories.consistency_matrix_ms", "histories.consistency_matrix", "total"),
    ("histories.chain_operator_calls", "histories.chain_operator", "calls"),
    ("qm.projector_constructions", "qm.projector", "calls"),
    ("qm.projector_validate_ms", "qm.projector", "total"),
    ("qm.embed_operator_calls", "qm.embed_operator", "calls"),
    ("qm.embed_operator_ms", "qm.embed_operator", "total"),
    ("qm.density_constructions", "qm.density", "calls"),
    ("counterfactual.queries", "counterfactual.evaluate", "calls"),
    ("counterfactual.evaluate_ms", "counterfactual.evaluate", "total"),
    ("counterfactual.find_pivot_ms", "counterfactual.find_pivot", "total"),
    ("counterfactual.locality_ms", "counterfactual.locality", "total"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(stats: dict[str, SpanStats], counters: Counter,
                  ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, normalised per traced op: name -> (value, unit).

    Ratios whose base is zero (no tree grown, no query asked) read 0.
    """
    out: dict[str, tuple[float, str]] = {}
    for metric, span, kind in SPAN_METRICS:
        entry = stats[span]
        if kind == "calls":
            out[metric] = (entry.calls / ops, "count/op")
        else:
            ns = entry.total_ns if kind == "total" else entry.self_ns
            out[metric] = (ns / ops / 1e6, "ms/op")
    out["tree.nodes_grown"] = (counters["tree.nodes_grown"] / ops, "count/op")
    out["tree.kept_leaf_ratio"] = (
        _ratio(counters["tree.leaves_kept"], counters["tree.leaves_grown"]),
        "ratio")
    out["tree.consistency_blocks"] = (
        counters["tree.consistency_blocks"] / ops, "count/op")
    found = stats["counterfactual.find_pivot"]
    out["counterfactual.pivots_per_query"] = (
        _ratio(counters["counterfactual.pivots"],
               found.calls - sum(found.errors.values())),
        "count")
    queries = stats["counterfactual.evaluate"]
    out["counterfactual.vacuous_ratio"] = (
        _ratio(queries.errors["VacuousPremiseError"], queries.calls), "ratio")
    return out
