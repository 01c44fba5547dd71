"""Benchmark for ramsat: one workload per process, single-threaded.

    python3 perfbench/run.py --workload witness|random|oracle --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src. The
workload's inputs are built from the seed. Rounds of the same operations
run until S seconds have passed, so every run attempts whole rounds. Every
output is checked, untimed, by code in this directory. The last line of
stdout is one JSON object: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1. The same result, with
every operation's time, failures, wrong outputs and (traced) the span
table of each round, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# set-ups made before each round; setup_s is the median of all of them,
# spread over the run like the rounds, so a brief slow spell of the machine
# does not set it
SETUPS_PER_ROUND = 4

END_TO_END_UNITS = {"wall_s": "s", "verdict_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.self_ms": "ms",
    "verify.self_s": "s",
    "saturation.searches": "count",
    "saturation.self_s": "s",
    "saturation.nonedges_per_s": "1/s",
    "search.calls": "count",
    "search.nodes": "count",
    "search.propagations": "count",
    "search.backtracks": "count",
    "search.busy_s": "s",
    "search.nodes_per_s": "1/s",
    "search.call_us": "us",
    "colorings.forced_blue_calls": "count",
    "colorings.forced_blue_s": "s",
    "colorings.subtrees": "count",
    "colorings.subtrees_s": "s",
    "graphs.derived_graphs": "count",
    "graphs.derive_s": "s",
    "graphs.triangle_s": "s",
    "graphs.graph6_decode_s": "s",
    "graphs.canonical_forms": "count",
    "graphs.canonical_form_s": "s",
    "constructions.build_s": "s",
    "oracle.colorings_scanned": "count",
    "oracle.scan_s": "s",
    "oracle.colorings_per_s": "1/s",
    "oracle.classes": "count",
    "oracle.enumerate_s": "s",
    "trace.overhead_s": "s",
}


def fresh_import():
    """Import ramsat from ./src as a new process would."""
    for name in [n for n in sys.modules if n == "ramsat" or n.startswith("ramsat.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ramsat")
    importlib.import_module("ramsat.cli")
    importlib.import_module("ramsat.verify")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ramsat was imported from {pkg.__file__}, not from {SRC}")
    return pkg


class Round:
    """Timings, failures and wrong outputs of one pass over the operations."""

    def __init__(self):
        self.times = []
        self.failed = []
        self.wrong = []

    @property
    def wall(self):
        return sum(self.times)


def run_round(ops, tracer=None):
    result = Round()
    for op in ops:
        call = op.prepare()
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # counted as failed; the run goes on
            result.times.append(time.perf_counter() - t0)
            result.failed.append(f"{op.name}: {type(exc).__name__}")
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        result.times.append(time.perf_counter() - t0)
        try:
            reason = op.check(out)
        except Exception as exc:  # a malformed output is a wrong output
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            result.wrong.append(f"{op.name}: {reason}")
    return result


class SetUps:
    """Set-ups of one run: their times, the warm-up's wrong outputs, and the
    operations of the latest. Earlier packages are dropped, so memory does
    not grow with the number of set-ups."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.times = []
        self.wrong = []
        self.pkg = self.ops = None

    def run(self):
        self.pkg = self.ops = None
        t0 = time.perf_counter()
        pkg = fresh_import()
        ops = WORKLOADS[self.workload](pkg, self.seed)
        warm = run_round(ops[:1])
        self.times.append(time.perf_counter() - t0)
        self.wrong += warm.wrong
        self.pkg, self.ops = pkg, ops


def untraced(setups, seconds):
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        for _ in range(SETUPS_PER_ROUND):
            setups.run()
        gc.collect()
        rounds.append(run_round(setups.ops))
    times = [t for r in rounds for t in r.times]
    metrics = {
        "wall_s": statistics.median(r.wall for r in rounds),
        "verdict_p50_ms": statistics.median(times) * 1e3,
        "setup_s": statistics.median(setups.times),
    }
    return rounds, metrics


def traced(pkg, ops, workload, seed, seconds):
    tracer = Tracer()
    tracer.install(pkg)
    tracer.active = True
    WORKLOADS[workload](pkg, seed)  # the inputs' build, traced once
    tracer.active = False
    build_s = tracer.self_s["constructions.build"]
    plain, spans, per_round, tables = [], [], [], []
    start = time.perf_counter()
    while not spans or time.perf_counter() - start < seconds:
        # untraced and traced rounds alternate which goes first, so a drift
        # in machine speed does not bias the overhead one way
        for traced_turn in (False, True) if len(spans) % 2 == 0 else (True, False):
            gc.collect()
            if not traced_turn:
                plain.append(run_round(ops))
                continue
            tracer.reset()
            spans.append(run_round(ops, tracer))
            per_round.append(tracer.metrics())
            tables.append(tracer.spans())
    metrics = {}
    for name, first in per_round[0].items():
        values = [r[name] for r in per_round]
        # exact counts are identical in every round of the same inputs
        metrics[name] = first if len(set(values)) == 1 else statistics.median(values)
    metrics["constructions.build_s"] = build_s
    metrics["trace.overhead_s"] = statistics.median(
        t.wall - p.wall for t, p in zip(spans, plain)
    )
    return plain + spans, metrics, tables


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ramsat" / "__init__.py").is_file():
        print(f"error: no ramsat package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setups = SetUps(args.workload, args.seed)
    if args.trace:
        setups.run()
        rounds, metrics, tables = traced(setups.pkg, setups.ops, args.workload, args.seed, args.seconds)
        units = PER_LAYER_UNITS
    else:
        tables = None
        rounds, metrics = untraced(setups, args.seconds)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS
    ops = setups.ops
    wrong = list(setups.wrong)
    failed = [f for r in rounds for f in r.failed]
    wrong += [w for r in rounds for w in r.wrong]
    for line in sorted(set(failed)) + sorted(set(wrong)):
        print(f"{args.workload}: {line}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": sum(len(r.times) for r in rounds),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(
        f"{args.workload} seed={args.seed}: {len(rounds)} rounds of {len(ops)} ops,"
        f" {result['failed']} failed, correct={result['correct']}",
        file=sys.stderr,
    )
    OUT.mkdir(exist_ok=True)
    detail = {
        "result": result,
        "setup_s": setups.times,
        "ops": [op.name for op in ops],
        "round_times_s": [r.times for r in rounds],
        "failed": failed,
        "wrong": wrong,
        "spans": tables,
    }
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
