"""Closed-loop benchmark of chainlogic.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client in a closed loop: each op starts only after the
previous one has returned and its output has been checked against an
independent reference.  The program is imported from ``src/`` of the
checkout this file sits in; the references come from ``tests/oracles.py``.

With ``--trace 0`` the run reports the end-to-end metrics: op throughput
and latency percentiles, set-up time (median of several fresh-process
set-ups) and peak memory.  With ``--trace 1`` it alternates untraced and
traced blocks of ops and reports the per-layer metrics of the traced ops
plus the tracing overhead; the spans go to ``perfbench/out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in turn, each in its
own process.  See ``perfbench/README.md``.
"""

import time

# Set-up time counts from here, before any other import.
_T0 = time.perf_counter()

import argparse
import contextlib
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

WORKLOAD_NAMES = ("particle_cli", "apparatus_build", "apparatus_query",
                  "mixed_apparatus")
# Fresh-process set-ups measured per run, besides the run's own.
SETUP_PROBES = 6
# Length of each untraced and each traced block in a traced run.
TRACE_BLOCK_S = 0.5
# Mismatches echoed to stderr per run.
PROBLEMS_SHOWN = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class SetupError(RuntimeError):
    """The checkout lacks what the benchmark needs."""


def pin_environment() -> None:
    """One BLAS thread, and no tolerance override from the caller.

    Must run before numpy is imported; child processes inherit it.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("CHAINLOGIC_TOL", None)


def load_program():
    """Import chainlogic from ``src/`` and return the oracles module."""
    package = ROOT / "src" / "chainlogic" / "__init__.py"
    oracle_file = ROOT / "tests" / "oracles.py"
    for needed in (package, oracle_file):
        if not needed.is_file():
            raise SetupError(f"missing {needed.relative_to(ROOT)}")
    sys.path.insert(0, str(ROOT / "src"))
    import chainlogic

    if Path(chainlogic.__file__).resolve() != package:
        raise SetupError(f"imported chainlogic from {chainlogic.__file__}, "
                         f"not from {package}")
    spec = importlib.util.spec_from_file_location("chainlogic_bench_oracles",
                                                  oracle_file)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


class Tally:
    """Latencies and failures of a run of ops."""

    def __init__(self) -> None:
        self.latencies_ns: list[int] = []
        self.failed = 0
        self.problems: list[str] = []

    def add(self, latency_ns: int, problem: str | None) -> None:
        self.latencies_ns.append(latency_ns)
        if problem is not None:
            self.failed += 1
            if len(self.problems) < PROBLEMS_SHOWN:
                self.problems.append(problem)

    def __len__(self) -> int:
        return len(self.latencies_ns)

    def ops_per_s(self) -> float:
        """Ops completed per second of time spent inside ops."""
        return len(self) / (sum(self.latencies_ns) / 1e9)


def run_op(workload, index: int, tracer=None) -> tuple[int, str | None]:
    """Prepare, time and check op ``index``: (latency in ns, problem)."""
    item = workload.prepare(index)
    start = time.perf_counter_ns()
    try:
        if tracer is None:
            out = workload.op(item)
        else:
            out = tracer.run_op(index, workload.op, item)
    except Exception as exc:  # an op that raises unexpectedly has failed
        return time.perf_counter_ns() - start, f"op {index} raised {exc!r}"
    latency = time.perf_counter_ns() - start
    try:
        problem = workload.check(item, out)
    except Exception as exc:  # output too malformed to compare
        problem = f"checking its output raised {exc!r}"
    return latency, None if problem is None else f"op {index}: {problem}"


def closed_loop(workload, first_index: int, seconds: float,
                tracer=None) -> tuple[Tally, Tally]:
    """Run ops back to back for ``seconds``: (untraced, traced) tallies.

    With a tracer, blocks of ``TRACE_BLOCK_S`` alternate between untraced
    and traced, so that drift over the run affects both alike.  Each
    tally that is used gets at least two ops.
    """
    plain, traced = Tally(), Tally()
    index = first_index
    end = time.perf_counter() + seconds
    tracing = False

    def short() -> bool:
        return len(plain) < 2 or (tracer is not None and len(traced) < 2)

    while time.perf_counter() < end or short():
        block_end = time.perf_counter() + (
            seconds if tracer is None else TRACE_BLOCK_S)
        tally = traced if tracing else plain
        patches = tracer.installed() if tracing else contextlib.nullcontext()
        with patches:
            while time.perf_counter() < block_end or len(tally) < 2:
                tally.add(*run_op(workload, index, tracer if tracing else None))
                index += 1
        tracing = tracer is not None and not tracing
    return plain, traced


def versions() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas_text} with {os.environ['OPENBLAS_NUM_THREADS']} "
            f"thread, nproc {len(os.sched_getaffinity(0))}")


def set_up(args):
    """Imports, inputs, prebuilt scenarios and the first (cold) op."""
    oracles = load_program()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, oracles, OUT_DIR)
    cold = Tally()
    cold.add(*run_op(workload, 0))
    return workload, cold, time.perf_counter() - _T0


def probe_setup(args) -> list[float]:
    """Set-up times of ``SETUP_PROBES`` fresh processes, one after another."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=False)
        if done.returncode != 0:
            raise SetupError(f"set-up probe exited {done.returncode}: "
                             f"{done.stderr.strip()[-500:]}")
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def end_to_end(plain: Tally, setup_samples: list[float]) -> dict:
    lat_ms = [ns / 1e6 for ns in plain.latencies_ns]
    return {
        "ops_per_s": (plain.ops_per_s(), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(lat_ms, n=10)[-1], "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }


def per_layer(stats, counters, plain: Tally, traced: Tally) -> dict:
    import spans

    metrics = spans.layer_metrics(stats, counters, len(traced))
    untraced_rate, traced_rate = plain.ops_per_s(), traced.ops_per_s()
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = ((untraced_rate / traced_rate - 1.0) * 100.0,
                                     "%")
    return metrics


def run_one(args) -> int:
    pin_environment()
    workload, cold, setup_s = set_up(args)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print(f"# workload {args.workload}, seed {args.seed}, "
              f"{args.seconds:g} s, trace {args.trace}")
        print(f"# {versions()}")
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
        else:
            setup_samples = [setup_s] + probe_setup(args)
        gc.collect()
        plain, traced = closed_loop(workload, 1, args.seconds, tracer)
    finally:
        workload.close()

    tallies = (cold, plain, traced)
    attempted = sum(len(t) for t in tallies)
    failed = sum(t.failed for t in tallies)
    for problem in [p for t in tallies for p in t.problems][:PROBLEMS_SHOWN]:
        print(f"chainlogic benchmark: failed {problem}", file=sys.stderr)
    if tracer is None:
        metrics = end_to_end(plain, setup_samples)
        print(f"# {len(plain)} timed ops; set-up samples (s): "
              + ", ".join(f"{s:.4f}" for s in setup_samples))
    else:
        stats = tracer.stats()
        metrics = per_layer(stats, tracer.counters, plain, traced)
        stem = OUT_DIR / f"trace-{args.workload}"
        tracer.write(stem)
        op_ms = stats["op"].total_ns / len(traced) / 1e6
        print(f"# {len(traced)} traced and {len(plain)} untraced ops, "
              f"{tracer.span_count} spans in {stem.relative_to(ROOT)}.i64; "
              f"traced op mean {op_ms:.4f} ms")
        if tracer.missing:
            print(f"# targets not found (zero calls): {', '.join(tracer.missing)}")
    for name, (value, unit) in metrics.items():
        share = ""
        if tracer is not None and unit == "ms/op":
            share = f"  ({value / op_ms:.1%} of traced op time)"
        print(f"{name:34s} {value:14.6f} {unit}{share}")
    print(f"{'failed_op_ratio':34s} {failed / attempted:14.6f} ratio "
          f"({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SetupError(f"workload {name} exited {done.returncode}")
        *lines, last = done.stdout.splitlines()
        print(f"## {name}")
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", required=True, type=int,
                        help="seed of every generated input")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except SetupError as exc:
        print(f"chainlogic benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
