"""wordgraph benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a wordgraph checkout; it imports the library from
``src/``. One process, one caller, closed loop: each op starts when the
previous one returned. The workload's input pool (made from the seed) is
replayed in whole passes, first once untimed, then until ``--seconds`` have
passed and at least MIN_OPS ops ran. Every op's output is checked (see
workloads.py).

The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reruns the same seed with spans around every library layer and reports per
layer self time and counts per pass over the pool. The ``info`` line before
it gives the sample count, raw figures, the output digest and input totals.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from bisect import bisect_left
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_OPS = 100
SETUP_SAMPLES = 15
# Machine-speed calibration. The shared hosts this runs on change speed by
# +-20% within seconds and drift as much over minutes, far more than the
# changes the benchmark must resolve. A fixed pure-Python loop is timed
# between ops; each op's time is scaled by CALIBRATION_REF_S over the median
# of the loop times nearest to it (CALIBRATION_NEAREST on each side), i.e.
# expressed at the speed where the loop takes CALIBRATION_REF_S. The raw
# figures are printed on the info line.
CALIBRATION_REPEATS = 64
CALIBRATION_KEYS = list(range(256)) * 4
CALIBRATION_TABLE = {k: k & 1 for k in range(256)}
CALIBRATION_REF_S = 0.0025
CALIBRATE_EVERY_S = 0.1
CALIBRATION_NEAREST = 3


def calibrate() -> float:
    """Time a fixed loop of dict lookups and xors on small ints. It
    allocates nothing, so neither the benchmark's heap nor the program's
    changes its time."""
    start = perf_counter()
    table, acc = CALIBRATION_TABLE, 0
    for _ in range(CALIBRATION_REPEATS):
        for k in CALIBRATION_KEYS:
            acc ^= table[k]
    return perf_counter() - start


class Clock:
    """Op start times and durations, with the calibration loop timed
    between ops."""

    def __init__(self):
        # Arrays, not lists of floats: the run's peak RSS must not grow much
        # with the number of ops a faster program completes.
        self.starts = array("d")
        self.seconds = array("d")
        self.loop_at: list[float] = []
        self.loop_s: list[float] = []

    def calibrate(self) -> None:
        self.loop_at.append(perf_counter())
        self.loop_s.append(calibrate())

    def factors(self) -> list[float]:
        """Per op, CALIBRATION_REF_S over the median of its nearest loops."""
        out = []
        for start in self.starts:
            i = bisect_left(self.loop_at, start)
            near = self.loop_s[max(0, i - CALIBRATION_NEAREST) : i + CALIBRATION_NEAREST]
            out.append(CALIBRATION_REF_S / statistics.median(near))
        return out

    def scaled(self) -> list[float]:
        return [s * f for s, f in zip(self.seconds, self.factors())]


def measure_setup() -> tuple[float, float]:
    """(calibrated, raw) median time from spawning a fresh interpreter until
    ``import wordgraph`` returns in it. One untimed spawn first writes
    bytecode."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import wordgraph;"
        " sys.stdout.write('.'); sys.stdout.flush()"
    )
    times, loops = [], [calibrate()]
    for _ in range(SETUP_SAMPLES + 1):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code, str(SRC)], stdout=subprocess.PIPE
        ) as child:
            ready = child.stdout.read(1)
            elapsed = perf_counter() - start
            child.stdout.read()
        if child.returncode != 0 or ready != b".":
            raise RuntimeError(f"importing wordgraph failed with code {child.returncode}")
        times.append(elapsed)
        loops.append(calibrate())
    # Each spawn is scaled by the mean of the loops timed just before and
    # just after it.
    scaled = [
        t * 2 * CALIBRATION_REF_S / (before + after)
        for t, before, after in zip(times, loops, loops[1:])
    ]
    return statistics.median(scaled[1:]), statistics.median(times[1:])


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_passes(pool, op, to_record, checker, seconds, min_ops, clock, tracer=None):
    """Replay the pool in whole passes; returns (failed, passes)."""
    failed = passes = 0
    began = perf_counter()
    clock.calibrate()
    while passes == 0 or perf_counter() - began < seconds or len(clock.seconds) < min_ops:
        for item in pool:
            if tracer is not None:
                tracer.ref = item.ref
            error = None
            start = perf_counter()
            try:
                result = op(item) if tracer is None else tracer.op(op, item)
            except Exception as exc:  # an op that raises is a failed op
                error = exc
            clock.seconds.append(perf_counter() - start)
            clock.starts.append(start)
            if error is None:
                failed += not checker.ok(item, to_record(result))
            else:
                failed += 1
                checker.problems.append(f"{item.key}: raised {error!r}")
            if perf_counter() - clock.loop_at[-1] >= CALIBRATE_EVERY_S:
                clock.calibrate()
        passes += 1
    clock.calibrate()
    return failed, passes


def latency_figures(seconds: list[float]) -> dict:
    ordered = sorted(seconds)
    return {
        "ops_per_s": (len(seconds) / sum(seconds), "1/s"),
        "op_p50_ms": (percentile(ordered, 0.50) * 1e3, "ms"),
        "op_p90_ms": (percentile(ordered, 0.90) * 1e3, "ms"),
    }


def measure(args, pool, op, to_record, checker, tracer=None):
    """One untimed warm-up pass, which also runs each input's full check
    (and, traced, the tracemalloc figures), then the timed passes. Returns
    (clock, attempted, failed, passes)."""
    if tracer is not None:
        tracer.measure_memory = True
    warm_failed, _ = run_passes(pool, op, to_record, checker, 0, 0, Clock(), tracer)
    if tracer is not None:
        tracer.measure_memory = False
        tracer.reset()
    clock = Clock()
    failed, passes = run_passes(pool, op, to_record, checker, args.seconds, MIN_OPS, clock, tracer)
    return clock, len(pool) + len(clock.seconds), warm_failed + failed, passes


def traced(args, pool, to_record, checker):
    """Per-layer metrics: self time and counts per pass, tracemalloc figures,
    and the traced throughput."""
    import ops
    from spans import COUNTS, MEMORY, TIMES, Tracer

    tracer = Tracer()
    stack, lib = tracer.instrument()
    with stack:
        op = ops.traced_cli_op(tracer)
        if args.workload == "sweep":
            op = lambda item: ops.sweep_op(lib, item)  # noqa: E731
        clock, attempted, failed, passes = measure(args, pool, op, to_record, checker, tracer)
    times = tracer.self_times(clock.factors())
    metrics = {name: (times.get(name[:-2], 0.0) / passes, "s") for name in TIMES}
    metrics.update({name: (tracer.counts[name] / passes, "count") for name in COUNTS})
    metrics.update({name: (tracer.memory[name], "KiB") for name in MEMORY})
    metrics["trace.ops_per_s"] = (len(clock.seconds) / sum(clock.scaled()), "1/s")
    raw = {"trace.ops_per_s": len(clock.seconds) / sum(clock.seconds)}
    return clock, metrics, raw, attempted, failed, passes


def untraced(args, pool, to_record, checker, setup):
    """End-to-end metrics."""
    import ops
    import wordgraph

    op = ops.cli_op
    if args.workload == "sweep":
        op = lambda item: ops.sweep_op(wordgraph, item)  # noqa: E731
    clock, attempted, failed, passes = measure(args, pool, op, to_record, checker)
    # Read before the figures below allocate per-op lists.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = clock.scaled()
    metrics = {
        "setup_s": (setup[0], "s"),
        **latency_figures(scaled),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = {name: v for name, (v, _) in latency_figures(clock.seconds).items()}
    raw["setup_s"] = setup[1]
    # p99 has ten samples beyond it only on sweep, so it is not a metric.
    raw["op_p99_ms_calibrated"] = percentile(sorted(scaled), 0.99) * 1e3
    return clock, metrics, raw, attempted, failed, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wordgraph" / "__init__.py").is_file():
        print(f"no wordgraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup = measure_setup() if args.trace == 0 else None
    import wordgraph

    if Path(wordgraph.__file__).resolve().parent != SRC / "wordgraph":
        print(f"imported wordgraph from {wordgraph.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import ops
    import workloads

    if args.workload not in workloads.POOLS:
        print(f"unknown workload {args.workload!r}; one of {list(workloads.POOLS)}",
              file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        broken = ops.self_test(workdir)
        if broken:
            print(f"self-test: the checks mishandled {broken}", file=sys.stderr)
            return 1
        pool = workloads.POOLS[args.workload](random.Random(args.seed), workdir)
        if args.workload == "sweep":
            to_record = lambda result: workloads.sweep_record(*result)  # noqa: E731
            checker = workloads.Checker(workloads.check_sweep)
        else:
            to_record = lambda result: result  # noqa: E731
            checker = workloads.Checker(workloads.check_cli)
        if args.trace:
            clock, metrics, raw, attempted, failed, passes = traced(
                args, pool, to_record, checker
            )
        else:
            clock, metrics, raw, attempted, failed, passes = untraced(
                args, pool, to_record, checker, setup
            )
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "ops": len(clock.seconds),
            "passes": passes,
            "calibration_loops": len(clock.loop_s),
            "raw": raw,
            "digest": checker.pool_digest(pool),
            "totals": workloads.totals(pool),
            "problems": checker.problems[:5],
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    print("info " + json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
