"""The groupinv benchmark: one closed-loop client, one workload per run.

Usage (from the root of a checkout):

    python3 benchmark/run.py --workload verdicts|probe|twisted|cli \
        --seed N --seconds S --trace 0|1

The package is imported from the checkout's ``src`` directory and nowhere
else.  With ``--trace 0`` the run measures set-up time, then runs whole rounds
of seeded operations until their summed wall time reaches S seconds (and at
least the workload's minimum number of rounds), checks every answer off the
clock, and reports the end-to-end metrics.  Their times are scaled by a gauge
read between operations (see ``Phase``), which takes out the shared machine's
changes of speed; the plain wall-time figures go to the result file.  With
``--trace 1`` it runs whole rounds untraced for S/2 seconds, then the same
rounds again traced, and reports the per-layer metrics with the tracing
overhead.  The last line of standard output is the result as one JSON object;
details go to ``benchmark/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
MIN_TAIL_SAMPLES = 10
GAUGE_EVERY_S = 0.05  # operation time between two gauge readings
GAUGE_SPAN = 3  # readings on each side of an operation that set its local speed
GAUGE_REF_S = 0.001  # the gauge reading at which scaled time equals wall time
GAUGE_MODULUS = 10 ** 60 + 7


def load_groupinv():
    """Import groupinv from the checkout's src, refusing any other copy."""
    if not (SRC / "groupinv" / "__init__.py").is_file():
        sys.exit("benchmark: no groupinv package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import groupinv

    if SRC.resolve() not in Path(groupinv.__file__).resolve().parents:
        sys.exit("benchmark: groupinv was imported from %s, not %s" % (groupinv.__file__, SRC))
    return groupinv


def percentile(ordered: list[float], p: float) -> float:
    """Linear interpolation between closest ranks of a sorted list."""
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def gauge() -> float:
    """Wall time of a fixed pure-Python loop that touches no groupinv code:
    big-integer arithmetic and a sort, about 1 ms on a shared 2-vCPU host
    with Python 3.11.  Read between operations, it tells how fast the
    machine runs at that moment."""
    start = perf_counter()
    x = 1
    for i in range(1, 400):
        x = (x * 3 + i) % GAUGE_MODULUS
    sorted((i * 7919) % 10007 for i in range(4000))
    return perf_counter() - start


def pin_to_one_cpu() -> None:
    """Keep this process and every child on one CPU, so that the gauge is read
    on the core that does the measured work."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not Linux, or not allowed: run unpinned
        pass


def measure_setup(workload, env) -> tuple[float, float]:
    """Median time of a fresh interpreter importing the workload's entry
    points, scaled by the gauge as operations are (each start is scaled by
    the median of three readings taken just before it), and the plain median."""
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        local = statistics.median(gauge() for _ in range(3))
        start = perf_counter()
        subprocess.run([sys.executable, "-c", workload.entry], env=env, check=True,
                       capture_output=True, timeout=120)
        wall.append(perf_counter() - start)
        scaled.append(wall[-1] * GAUGE_REF_S / local)
    return statistics.median(scaled), statistics.median(wall)


class Phase:
    """Outcome of running whole rounds of one workload.

    Every operation keeps its wall time and the index of the gauge reading
    taken last before it.  The metrics use scaled times: wall time multiplied
    by GAUGE_REF_S over the median of the gauge readings around the operation,
    so a stretch in which the shared machine runs slow does not read as a
    slow program."""

    def __init__(self):
        self.ops: list[tuple[float, bool, int]] = []  # wall time, completed, reading
        self.readings: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.rounds = 0
        self.failures: Counter = Counter()
        self.unexpected_failures: Counter = Counter()
        self.problems: list[str] = []
        self._since_reading = float("inf")

    def read_gauge_if_due(self) -> None:
        if self._since_reading >= GAUGE_EVERY_S:
            self.readings.append(gauge())
            self._since_reading = 0.0

    def record(self, elapsed: float, completed: bool) -> None:
        self.ops.append((elapsed, completed, len(self.readings) - 1))
        self.busy += elapsed
        self._since_reading += elapsed

    def scaled(self) -> list[tuple[float, bool]]:
        local = [statistics.median(self.readings[max(0, i - GAUGE_SPAN): i + GAUGE_SPAN + 1])
                 for i in range(len(self.readings))]
        return [(elapsed * GAUGE_REF_S / local[i], completed) for elapsed, completed, i in self.ops]

    def completed_times(self, scaled: bool = True) -> list[float]:
        ops = self.scaled() if scaled else [(e, c) for e, c, _ in self.ops]
        return sorted(t for t, completed in ops if completed)

    def throughput(self, scaled: bool = True) -> float:
        total = sum(t for t, _ in self.scaled()) if scaled else self.busy
        return len(self.completed_times(scaled)) / total

    def p50_ms(self, scaled: bool = True) -> float:
        return 1000.0 * statistics.median(self.completed_times(scaled))


def run_phase(workload, rng, seconds: float, min_rounds: int, tracer=None) -> Phase:
    phase = Phase()
    while phase.rounds < min_rounds or phase.busy < seconds:
        ops = iter(workload.make_round(rng))
        while True:
            # let go of the last operation before the next one is built, so
            # peak memory holds one operation's inputs at a time
            op = result = None
            op = next(ops, None)
            if op is None:
                break
            phase.attempted += 1
            phase.read_gauge_if_due()
            if tracer is not None:
                tracer.begin_op(phase.attempted)
            start = perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # an operation's failure is counted, not fatal
                phase.record(perf_counter() - start, False)
                phase.failed += 1
                label = "%s: %s" % (op.kind, type(exc).__name__)
                phase.failures[label] += 1
                if not op.counted_failure:
                    phase.unexpected_failures[label] += 1
                if tracer is not None and hasattr(workload, "collect"):
                    workload.collect(phase.attempted)
                continue
            phase.record(perf_counter() - start, True)
            if tracer is not None:
                tracer.paused = True
                if hasattr(workload, "collect"):
                    workload.collect(phase.attempted)
            problem = op.check(result)
            if tracer is not None:
                tracer.paused = False
            if problem:
                phase.problems.append(problem)
        phase.rounds += 1
    return phase


def end_to_end(workload, phase: Phase, setup_s: float) -> tuple[dict, dict]:
    ordered = phase.completed_times()
    tail = percentile(ordered, workload.tail_percentile)
    beyond = sum(1 for t in ordered if t > tail)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "throughput_ops_s": {"value": phase.throughput(), "unit": "ops/s"},
        "latency_p50_ms": {"value": phase.p50_ms(), "unit": "ms"},
        "latency_tail_ms": {"value": 1000.0 * tail, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024.0, "unit": "MB"},
    }
    wall = phase.completed_times(scaled=False)
    detail = {"tail_percentile": workload.tail_percentile, "completed": len(ordered),
              "beyond_tail": beyond,
              "wall_time": {"throughput_ops_s": phase.throughput(scaled=False),
                            "latency_p50_ms": phase.p50_ms(scaled=False),
                            "latency_tail_ms": 1000.0 * percentile(wall, workload.tail_percentile)},
              "gauge_ms": {"readings": len(phase.readings),
                           "min": 1000.0 * min(phase.readings),
                           "median": 1000.0 * statistics.median(phase.readings),
                           "max": 1000.0 * max(phase.readings)}}
    if beyond < MIN_TAIL_SAMPLES:
        print("benchmark: only %d operations beyond p%s" % (beyond, workload.tail_percentile),
              file=sys.stderr)
    return metrics, detail


def traced_metrics(workload, seed: int, seconds: float) -> tuple[dict, list[Phase], object]:
    from tracer import Tracer

    untraced = run_phase(workload, random.Random(seed), seconds / 2, 1)
    tracer = Tracer()
    tracer.install()
    workload.tracer = tracer
    try:
        # the same rounds again, so the two halves differ only by the tracing
        traced = run_phase(workload, random.Random(seed), 0, untraced.rounds, tracer)
    finally:
        tracer.uninstall()
        workload.tracer = None
    metrics = tracer.layer_metrics()
    for label, phase in (("untraced", untraced), ("traced", traced)):
        metrics["overhead.%s_throughput_ops_s" % label] = {"value": phase.throughput(),
                                                           "unit": "ops/s"}
        metrics["overhead.%s_latency_p50_ms" % label] = {"value": phase.p50_ms(), "unit": "ms"}
    metrics["overhead.slowdown"] = {"value": untraced.throughput() / traced.throughput(),
                                    "unit": "ratio"}
    return metrics, [untraced, traced], tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["verdicts", "probe", "twisted", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    load_groupinv()
    sys.path.insert(0, str(HERE))
    import workloads

    OUT.mkdir(exist_ok=True)
    pin_to_one_cpu()
    workload = workloads.make(args.workload, SRC, OUT)
    started = perf_counter()
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    detail: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    if args.trace:
        metrics, phases, tracer = traced_metrics(workload, args.seed, args.seconds)
        tracer.write_spans(OUT / ("spans-%s.csv" % tag))
        detail["spans_kept"], detail["spans_seen"] = len(tracer.spans), tracer.span_count
    else:
        setup_s, setup_wall_s = measure_setup(workload, workloads.child_env(SRC))
        phase = run_phase(workload, random.Random(args.seed), args.seconds, workload.min_rounds)
        metrics, extra = end_to_end(workload, phase, setup_s)
        extra["wall_time"]["setup_s"] = setup_wall_s
        detail.update(extra)
        phases = [phase]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [x for p in phases for x in p.problems]
    failures, unexpected = Counter(), Counter()
    for p in phases:
        failures.update(p.failures)
        unexpected.update(p.unexpected_failures)
    detail.update(rounds=[p.rounds for p in phases], failures=dict(failures),
                  unexpected_failures=dict(unexpected), problems=problems[:50],
                  wall_s=perf_counter() - started)
    for line in problems[:10]:
        print("benchmark: wrong answer: %s" % line, file=sys.stderr)
    for label, count in unexpected.items():
        print("benchmark: %d unexpected failures: %s" % (count, label), file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(OUT / ("result-%s.json" % tag), "w") as fh:
        json.dump({**result, "detail": detail}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
