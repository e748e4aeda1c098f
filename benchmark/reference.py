"""Re-measure the ROADMAP baseline rows, for reference next to the workloads.

Usage (from the root of a checkout):  python3 benchmark/reference.py

Prints one JSON object with single wall-clock timings in seconds:
  * `decide` and `lookup_invariants` on 2,000 seeded depth-3 expressions
    (the plain generator, without the size quotas of the `verdicts` rounds);
  * the F(2) probe at radius 8 and 10: enumeration, then `connectivity_probe`
    in each mode on direction (1, 0) over the default grid;
  * validation of an order-512 table (Z/512) and its brute-force class count.
These are not gated; the gated numbers come from run.py.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from time import perf_counter

import run

run.load_groupinv()

import groupinv as gi  # noqa: E402
from groupinv import ballprobe  # noqa: E402

import oracles as orc  # noqa: E402
import workloads as wl  # noqa: E402


def timed(fn):
    start = perf_counter()
    out = fn()
    return perf_counter() - start, out


def main() -> None:
    rng = random.Random(2000)
    exprs = [gi.parse_group_expr(orc.render(wl.random_expr(rng))) for _ in range(2000)]
    rows = {
        "decide_2000_s": timed(lambda: [gi.decide(e) for e in exprs])[0],
        "lookup_2000_s": timed(lambda: [gi.lookup_invariants(e) for e in exprs])[0],
    }
    for radius in (8, 10):
        atom = gi.parse_group_expr("F(2)").atom
        enum_s, ball = timed(lambda: gi.enumerate_ball(atom, radius))
        rows["f2_r%d_vertices" % radius] = ball.order
        rows["f2_r%d_enumerate_s" % radius] = enum_s
        for mode in wl.MODES:
            rows["f2_r%d_%s_s" % (radius, mode)] = timed(
                lambda: gi.connectivity_probe(ball, gi.Direction((1, 0)),
                                              ballprobe.default_grid(radius), mode,
                                              Fraction(1)))[0]
        del ball
    table = tuple(tuple(row) for row in orc.cyclic_table(512))
    rows["table512_validate_s"], group = timed(lambda: gi.FiniteGroupTable(table))
    rows["table512_brute_force_s"] = timed(
        lambda: gi.brute_force_twisted_classes(group, list(range(512))))[0]
    print(json.dumps({"python": sys.version.split()[0], **rows}, indent=1))


if __name__ == "__main__":
    main()
