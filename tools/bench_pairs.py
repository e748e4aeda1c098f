"""Compare two checkouts on the benchmark in alternating pairs of runs.

Usage (from anywhere):

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_<n>.json \
        [--workloads verdicts,cli]

The workloads, their run length and the end-to-end metrics are read from
CHANGE's ``BENCHMARK.json``; ``--workloads`` picks a subset of its workloads.
For every workload, pair i of ``PAIRS`` (10) runs ``benchmark/run.py --seed
SEED+i --trace 0``, with ``SEED`` = 101, for ``run_seconds`` in PARENT and in
CHANGE, one after the other; even pairs start with PARENT, odd pairs with
CHANGE, so a drift of the machine's speed favours neither side.  Each checkout runs its own ``benchmark/run.py`` on its
own ``src``.
After the pairs, each checkout runs ``benchmark/run.py --trace 1`` once per
workload, at the first pair's seed and ``run_seconds``, for the per-layer
metrics.
Before the workloads, each checkout's tier-1 suite (``python -m pytest -q -p
no:cacheprovider`` with ``PYTHONPATH=src``) runs three times, alternating
sides the same way, and its benchmark suite (the same command on
``benchmark``) runs once.
Then ``cli_startup`` times fresh ``python -m groupinv.cli`` processes on each
checkout's ``src``, one command line per kind of ``cli`` operation, and
``python -c pass`` as the floor: 25 runs of each, alternating sides, pinned
to one CPU.  This is the only view of start-up layer by layer, since the
traced ``cli.import_ms`` does not see the modules that load lazily.
The output file holds each side's median tier-1 wall time with every run's
time, exit code and summary line; each side's benchmark-suite time, exit
code and summary line; under ``cli_startup``, per command each side's median
and quartiles in ms, the exit codes seen, and the groupinv modules whose code
that command line runs with their source line counts (read in one more,
untimed process per command and side); per workload and end-to-end metric, each side's
median and quartiles, the pairs the change won and lost (ties count for
neither), every run's figures, and under ``traced`` each side's per-layer
metrics; and the machine, the Python version and
``PYTHONDONTWRITEBYTECODE``, which decides whether the ``cli`` figures
include compiling the package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
TIER1_RUNS = 3
PAIRS = 10  # the pairs per workload that a speed claim needs
SEED = 101
_CLI = ["-m", "groupinv.cli"]
_Z8 = json.dumps([[(i + j) % 8 for j in range(8)] for i in range(8)])
# what cli_startup times: the interpreter alone, then one command line per
# kind of `cli` operation; the last one the parser refuses with exit 1
STARTUP_COMMANDS = {
    "floor": ["-c", "pass"],
    "rinf": [*_CLI, "rinf", "-g", "BS(1,2) x F(3)"],
    "invariants": [*_CLI, "invariants", "-g", "BS(1,2) x F(3)"],
    "probe": [*_CLI, "probe", "--atom", "BS(1,2)", "--dir", "1", "--radius", "5"],
    "reidemeister_matrix": [*_CLI, "reidemeister", "--matrix", "[[2,1],[1,1]]",
                            "--torsion", "[2]"],
    "reidemeister_table": [*_CLI, "reidemeister", "--table", _Z8,
                           "--automorphism", "[0,3,6,1,4,7,2,5]"],
    "deep_parens": [*_CLI, "rinf", "-g", "(" * 400 + "Z" + ")" * 400],
}
STARTUP_RUNS = 25
# runs one `cli` command line in this interpreter, then prints on stderr, as
# its last line, the groupinv modules whose code ran (LazyLoader leaves a
# module it has not run an instance of a ModuleType subclass) with the line
# count of each one's source
_FOOTPRINT = """
import json, sys, types
from groupinv.cli import main
try:
    main(args=sys.argv[1:])
finally:
    ran = {}
    for name, module in sys.modules.items():
        if name.partition(".")[0] == "groupinv" and type(module) is types.ModuleType:
            with open(module.__file__, "rb") as source:
                ran[name] = source.read().count(b"\\n")
    print(json.dumps(dict(sorted(ran.items()))), file=sys.stderr)
"""


def checkout_state(root: Path) -> dict:
    """The commit a checkout is at, and whether its tracked files differ from it."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("bench_pairs: %s failed in %s:\n%s" % (" ".join(cmd), root, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def pytest_once(root: Path, *paths: str) -> dict:
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    proc = subprocess.run([*TIER1, *paths], cwd=root, capture_output=True, text=True, env=env)
    seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"seconds": seconds, "exit": proc.returncode, "summary": lines[-1] if lines else ""}


def tier1_times(roots: dict) -> dict:
    runs = {side: [] for side in SIDES}
    for i in range(TIER1_RUNS):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(pytest_once(roots[side]))
        print("bench_pairs: tier-1 round %d/%d done" % (i + 1, TIER1_RUNS), file=sys.stderr)
    return {"command": " ".join(["python", *TIER1[1:]]),
            **{side: {"median_s": statistics.median(r["seconds"] for r in runs[side]),
                      "runs": runs[side]} for side in SIDES}}


def cli_startup(roots: dict) -> dict:
    """Median wall time of fresh processes per command in STARTUP_COMMANDS,
    alternating sides, with this process and so its children pinned to one CPU."""
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
    except (AttributeError, OSError):  # not Linux, or not allowed: run unpinned
        cpus = None
    ms = {kind: {side: [] for side in SIDES} for kind in STARTUP_COMMANDS}
    exits = {kind: {side: set() for side in SIDES} for kind in STARTUP_COMMANDS}
    try:
        for i in range(STARTUP_RUNS):
            for kind, args in STARTUP_COMMANDS.items():
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    env = dict(os.environ, PYTHONPATH="src")
                    start = time.perf_counter()
                    proc = subprocess.run([sys.executable, *args], cwd=roots[side], env=env,
                                          capture_output=True)
                    ms[kind][side].append((time.perf_counter() - start) * 1000)
                    exits[kind][side].add(proc.returncode)
    finally:
        if cpus is not None:
            os.sched_setaffinity(0, cpus)
    return {"runs": STARTUP_RUNS,
            **{kind: {side: {**summary(ms[kind][side]), "exits": sorted(exits[kind][side]),
                             **startup_footprint(roots[side], args)}
                      for side in SIDES} for kind, args in STARTUP_COMMANDS.items()}}


def startup_footprint(root: Path, args: list[str]) -> dict:
    """The groupinv modules that one STARTUP_COMMANDS line runs, each with its
    source line count, and the total; measured in a separate, untimed process."""
    if args[:len(_CLI)] != _CLI:
        return {"modules": {}, "module_lines": 0}
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, *args[len(_CLI):]], cwd=root,
                          env=dict(os.environ, PYTHONPATH="src"), capture_output=True,
                          text=True)
    modules = json.loads(proc.stderr.strip().splitlines()[-1])
    return {"modules": modules, "module_lines": sum(modules.values())}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        sides = {side: [r[side]["metrics"][name] for r in runs] for side in SIDES}
        wins = losses = 0
        for p, c in zip(sides["parent"], sides["change"]):
            if c != p:
                if (c > p) == higher:
                    wins += 1
                else:
                    losses += 1
        out[name] = {"unit": spec["unit"], "better": spec["better"],
                     **{side: summary(sides[side]) for side in SIDES},
                     "change_wins": wins, "change_losses": losses}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", help="comma-separated subset of the benchmark's workloads")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        unknown = set(args.workloads.split(",")) - set(workloads)
        if unknown:
            parser.error("--workloads: not in BENCHMARK.json: %s" % ", ".join(sorted(unknown)))
        workloads = [w for w in workloads if w in args.workloads.split(",")]

    report = {
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "checkouts": {side: checkout_state(roots[side]) for side in SIDES},
        "pairs": PAIRS, "seconds": seconds,
        "seeds": [SEED + i for i in range(PAIRS)],
        "tier1": tier1_times(roots),
        "benchmark_suite": {"command": " ".join(["python", *TIER1[1:], "benchmark"]),
                            **{side: pytest_once(roots[side], "benchmark") for side in SIDES}},
        "cli_startup": cli_startup(roots),
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for i in range(PAIRS):
            seed = SEED + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            run = {"seed": seed, "first": order[0]}
            for side in order:
                run[side] = run_once(roots[side], workload, seed, seconds)
            runs.append(run)
            print("bench_pairs: %s pair %d/%d done" % (workload, i + 1, PAIRS),
                  file=sys.stderr)
        report["workloads"][workload] = {
            "metrics": compare(runs, spec["end_to_end"]),
            "failed": {side: [r[side]["failed"] for r in runs] for side in SIDES},
            "attempted": {side: [r[side]["attempted"] for r in runs] for side in SIDES},
            "correct": all(r[side]["correct"] for r in runs for side in SIDES),
            "runs": runs,
        }
        report["workloads"][workload]["traced"] = {
            side: run_once(roots[side], workload, SEED, seconds, trace=1) for side in SIDES}
        print("bench_pairs: %s traced runs done" % workload, file=sys.stderr)
        # written after every workload, so an interrupted comparison keeps what it measured
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
