"""Closed-loop benchmark of the verdict pipeline and the model layer.

Run from the root of a checkout:

    python3 bench/run.py --workload census-small --seed 1 --seconds 30 --trace 0

One caller in one process and one thread sends the next item only after the
previous one returned.  Items come in whole passes over the workload's list
(see workloads.py) until the time spent inside items reaches ``--seconds``;
every result is checked against facts computed without the program.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every item
twice back to back, untraced and with spans around the public functions in
tracer.TRACED, until the untraced half reaches half of ``--seconds``; it
prints the per-layer metrics and the tracing overhead and writes the spans
to bench/out/.  The
last line of standard output is one JSON object: correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 25


def import_program():
    """Import the package from this checkout's src/, or exit non-zero."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import vanishingcycles
        import workloads
    except ImportError as exc:
        sys.exit(f"bench: cannot import the program from {SRC}: {exc}")
    if not Path(vanishingcycles.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported {vanishingcycles.__file__}, not this checkout")
    return workloads


def measure_setup(modules) -> float:
    """Median, over fresh interpreters, of the time to import the program's
    ``modules``; interpreter start-up and the benchmark's inputs are outside
    the timed region."""
    imports = "; ".join(f"import vanishingcycles.{m}" for m in modules)
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
            f"t = time.perf_counter(); {imports}; "
            f"print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                             capture_output=True, text=True).stdout
        times.append(float(out))
    return statistics.median(times)


class Loop:
    """Outcome of running items: latencies, failures and exception types."""

    def __init__(self):
        self.latencies = []  # wall seconds of each item, in the order run
        self.ok = 0
        self.failed = 0
        self.exceptions = {}
        self.problems = []
        self.classified = set()

    def run(self, item_id, item) -> None:
        start = time.perf_counter()
        try:
            result = item.call()
        except Exception as exc:  # a raised error is a failed item, by type
            elapsed = time.perf_counter() - start
            name = type(exc).__name__
            self.exceptions[name] = self.exceptions.get(name, 0) + 1
            self.failed += 1
        else:
            elapsed = time.perf_counter() - start
            problems = item.check(result)
            if problems:
                self.failed += 1
                self.problems.append(f"{item.label}: {'; '.join(problems)}")
            else:
                self.ok += 1
            if getattr(result, "classification", None) is not None:
                self.classified.add(item_id)
        self.latencies.append(elapsed)


def percentile(sorted_values, p: float) -> float:
    """Linear-interpolated percentile of a sorted list (p = 100 is the max)."""
    pos = (len(sorted_values) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def closed_loop(make_pass, seed: int, seconds: float):
    """Whole passes until the time inside items reaches ``seconds``, so that
    every run holds the same mix of items."""
    rng = random.Random(seed)
    loop = Loop()
    while sum(loop.latencies) < seconds:
        for item in make_pass(rng):
            loop.run(len(loop.latencies), item)
    return loop


def end_to_end(loop, workload: str, tail_p: float, setup_s: float) -> dict:
    """The end-to-end metrics over every sample of the loop; the tail is
    percentile ``tail_p``."""
    ordered = sorted(loop.latencies)
    n = len(ordered)
    tail = percentile(ordered, tail_p)
    print(f"bench: {workload}: {n} samples, tail p{tail_p:g} with "
          f"{sum(1 for x in ordered if x > tail)} beyond, "
          f"failed_share {loop.failed / n:.4f}, "
          f"exceptions {loop.exceptions or 'none'}", flush=True)
    values = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (loop.ok / sum(ordered), "1/s"),
        "item_p50_ms": (percentile(ordered, 50) * 1e3, "ms"),
        "item_tail_ms": (tail * 1e3, "ms"),
        "ok_share": (loop.ok / n, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def traced_loop(make_pass, workload: str, seed: int, seconds: float):
    """Whole passes until the untraced time inside items reaches
    ``seconds``, each item run twice back to back, once untraced and once
    with spans, in alternating order; the overhead compares the two sums."""
    from tracer import Tracer, per_layer_metrics

    rng = random.Random(seed)
    plain, traced, tracer = Loop(), Loop(), Tracer()
    item_id = 0
    while sum(plain.latencies) < seconds:
        for item in make_pass(rng):
            for with_spans in ((False, True) if item_id % 2 else (True, False)):
                if with_spans:
                    tracer.item = item_id
                    with tracer:
                        traced.run(item_id, item)
                else:
                    plain.run(item_id, item)
            item_id += 1
    plain_s, traced_s = sum(plain.latencies), sum(traced.latencies)
    print(f"bench: {workload}: {item_id} items, {plain_s:.3f} s untraced and "
          f"{traced_s:.3f} s traced, {len(tracer.spans)} spans", flush=True)
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"spans-{workload}-seed{seed}.jsonl")
    metrics = per_layer_metrics(tracer.spans, traced.classified, traced.exceptions,
                                (traced_s / plain_s - 1) * 100)
    return (plain, traced), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    make_pass = workloads.pass_factory(args.workload)

    if args.trace:
        loops, metrics = traced_loop(make_pass, args.workload, args.seed,
                                     args.seconds / 2)
    else:
        from tracer import TRACED
        setup_s = measure_setup(TRACED)
        loop = closed_loop(make_pass, args.seed, args.seconds)
        metrics = end_to_end(loop, args.workload,
                             workloads.TAIL_PERCENTILE[args.workload], setup_s)
        loops = (loop,)

    problems = [p for lp in loops for p in lp.problems]
    for p in problems[:20]:
        print(f"bench: wrong output: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(lp.latencies) for lp in loops),
        "failed": sum(lp.failed for lp in loops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
