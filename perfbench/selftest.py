"""Tests of the benchmark itself: ``python3 perfbench/selftest.py``.

They show that a corrupted output is counted as a failed op on every
workload, that the tracer's spans, self times and patching behave, and
that ``BENCHMARK.json`` names exactly what ``run.py`` prints.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
import types
import unittest

import run

oracles = workloads = spans = None


def setUpModule() -> None:
    global oracles, workloads, spans
    run.pin_environment()
    oracles = run.load_program()
    import spans as spans_module
    import workloads as workloads_module

    workloads, spans = workloads_module, spans_module


def _corrupt_cli(out):
    code, text = out
    doc = json.loads(text)
    if doc["kind"] == "hardy-report":
        doc["predictions"]["s4"] += 1e-6
    else:
        for pivot in doc["ml2"]["pivots"]:
            pivot["outcomes"]["MR2-"] = pivot["outcomes"].get("MR2-", 0.0) + 1e-6
    return code, json.dumps(doc)


def _shifted(verdict):
    return dataclasses.replace(verdict, distribution={
        key: value + 1e-6 for key, value in verdict.distribution.items()})


def _corrupt_query(out):
    if isinstance(out, workloads.errors.VacuousPremiseError):
        return None
    if isinstance(out, workloads.counterfactual.LocalityReport):
        return dataclasses.replace(out, verdict_ml2=_shifted(out.verdict_ml2))
    return _shifted(out)


def _corrupt_mixed(out):
    joint, report = out
    key = sorted(joint)[0]
    return {**joint, key: joint[key] + 1e-6}, report


CORRUPTIONS = {
    "particle_cli": _corrupt_cli,
    "apparatus_build": lambda report: dataclasses.replace(report, s4=report.s4 + 1e-6),
    "apparatus_query": _corrupt_query,
    "mixed_apparatus": _corrupt_mixed,
}


class CorruptedOutputsFail(unittest.TestCase):
    def _loop(self, name, corrupt=None):
        workload = workloads.WORKLOADS[name](7, oracles, run.OUT_DIR)
        if corrupt is not None:
            op = workload.op
            workload.op = lambda item: corrupt(op(item))
        try:
            return run.closed_loop(workload, 0, 0.3)[0]
        finally:
            workload.close()

    def test_every_workload(self):
        run.OUT_DIR.mkdir(exist_ok=True)
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                clean = self._loop(name)
                self.assertEqual(clean.failed, 0, clean.problems)
                corrupted = self._loop(name, CORRUPTIONS[name])
                self.assertGreater(len(corrupted), 0)
                self.assertEqual(corrupted.failed, len(corrupted),
                                 "a corrupted output passed its check")

    def test_forbidden_joint_is_caught(self):
        workload = workloads.WORKLOADS["apparatus_build"](7, oracles, run.OUT_DIR)
        item = workload.prepare(0)
        report = workload.op(item)
        self.assertIsNone(workload.check(item, report))
        self.assertIsNotNone(
            workload.check(item, dataclasses.replace(report, s3=1e-6)))

    def test_raising_op_is_failed(self):
        workload = workloads.WORKLOADS["apparatus_build"](7, oracles, run.OUT_DIR)

        def broken(item):
            raise RuntimeError("boom")

        workload.op = broken
        latency, problem = run.run_op(workload, 0)
        self.assertIn("boom", problem)


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        first = workloads.ApparatusBuild(3, oracles, run.OUT_DIR)
        again = workloads.ApparatusBuild(3, oracles, run.OUT_DIR)
        other = workloads.ApparatusBuild(4, oracles, run.OUT_DIR)
        self.assertEqual(first.prepare(5), again.prepare(5))
        self.assertNotEqual(first.prepare(5), other.prepare(5))


FAKE = "chainlogic._perfbench_selftest"


class TracerTest(unittest.TestCase):
    def setUp(self):
        module = types.ModuleType(FAKE)

        def inner(fail=False):
            time.sleep(0.01)
            if fail:
                raise ValueError("inner failed")

        def outer():
            time.sleep(0.02)
            module.inner()
            module.inner()
            try:
                module.inner(fail=True)
            except ValueError:
                pass

        module.inner, module.outer = inner, outer
        sys.modules[FAKE] = module
        self.module = module

    def tearDown(self):
        del sys.modules[FAKE]

    def test_spans_self_time_and_restore(self):
        original = self.module.outer
        tracer = spans.Tracer(targets=(("t.outer", FAKE, "outer"),
                                       ("t.inner", FAKE, "inner"),
                                       ("t.gone", FAKE, "no_such_function")))
        with tracer.installed():
            self.assertIsNot(self.module.outer, original)
            tracer.run_op(0, self.module.outer)
        self.assertIs(self.module.outer, original)
        self.assertEqual(tracer.missing, ["t.gone"])
        stats = tracer.stats()
        self.assertEqual(stats["t.gone"].calls, 0)
        self.assertEqual(stats["t.inner"].calls, 3)
        self.assertEqual(stats["t.inner"].errors["ValueError"], 1)
        outer = stats["t.outer"]
        self.assertEqual(outer.self_ns,
                         outer.total_ns - stats["t.inner"].total_ns)
        self.assertGreaterEqual(outer.self_ns, 20_000_000)
        self.assertLess(outer.self_ns, 28_000_000)
        self.assertEqual(stats["op"].total_ns - stats["op"].self_ns,
                         outer.total_ns)

    def test_every_program_target_exists(self):
        tracer = spans.Tracer()
        with tracer.installed():
            pass
        self.assertEqual(tracer.missing, [])


class BenchmarkFile(unittest.TestCase):
    def test_names_match(self):
        with open(run.ROOT / "BENCHMARK.json") as source:
            bench = json.load(source)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOAD_NAMES))
        self.assertEqual(list(workloads.WORKLOADS), list(run.WORKLOAD_NAMES))
        tally = run.Tally()
        tally.add(1_000_000, None)
        tally.add(2_000_000, None)
        printed = run.end_to_end(tally, [0.5])
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         {name: unit for name, (_, unit) in printed.items()})
        tracer = spans.Tracer()
        layers = run.per_layer(tracer.stats(), tracer.counters, tally, tally)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         {name: unit for name, (_, unit) in layers.items()})


if __name__ == "__main__":
    unittest.main()
