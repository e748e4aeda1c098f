"""Check that two checkouts print the same thing for the same command lines.

Usage (from anywhere):

    python3 tools/same_outputs.py PARENT CHANGE

One list of command lines is generated once, from PARENT's ``src`` and
``benchmark``:

- ``rinf -g``, ``invariants -g`` and ``invariants -n 2 -g`` on 3,000 labels of
  ``selfcheck._random_expr`` (depths 2 and 3) and on 3,000 renderings of
  ``benchmark/workloads.random_expr``;
- the same three commands on ``T(2)`` to ``T(11)``, products with ``T(9)``
  and other Thompson-type products, and inputs the parser refuses;
- seeded ``probe`` lines in JSON and CSV (grids, budgets, cone mode, wrong
  directions), ``reidemeister --matrix`` and ``--table`` lines and their
  usage errors, and one ``--table`` line per refusal of a table or its map
  and one ``--matrix`` line per refusal of an automorphism;
- ``selfcheck``, whose per-criterion timings are stripped.

Each checkout then runs that same list in one child process on its own
``src``, through ``groupinv.cli.main`` in process, and hashes every line's
stdout, stderr and exit code.  The tool prints the count and sha256 of each
side and the first command line whose output differs, and exits 1 on any
difference.  The children run with ``PYTHONDONTWRITEBYTECODE=1``, so nothing
is written into either checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

LABELS = 3000  # labels of each kind
SEED = 17
_TIMING = re.compile(r" \(\d+\.\d+s\)$", re.M)  # selfcheck's per-criterion wall time
PROBE_ATOMS = {"Z": 1, "Z^2": 2, "Z^3": 3, "Klein": 1, "BS(1,2)": 1, "BS(1,3)": 1, "F(2)": 2}
FIXED_GROUPS = ["T(%d)" % n for n in range(2, 12)] + [
    "T(9) x Z", "Thompson x T(3)", "T(8) x BS(1,2)", "T(3) x T(4) x Klein", "T(5) * Z",
    "", "F(", "(Z", "Z x", "Q(2)", "Zmod(0)", "(" * 120 + "Z" + ")" * 120,
    # one refusal per site of the parser
    "Z x Klein !", "Z^ x Z", "BS(1)", "Z x (F(2) * Klein", "Z x Z)", "Z * Zmod(1)",
    "(" * 101 + "Z" + ")" * 101]


def _group_lines(texts):
    return [line for text in texts for line in (
        ["rinf", "-g", text], ["invariants", "-g", text], ["invariants", "-n", "2", "-g", text])]


def _probe_lines(rng, count):
    lines = []
    for _ in range(count):
        atom, rank = rng.choice(sorted(PROBE_ATOMS.items()))
        if rng.random() < 0.1:
            rank += rng.choice((-1, 1)) if rank > 1 else 1
        direction = [0] * rank
        while not any(direction) and rng.random() < 0.95:
            direction = [rng.randint(-3, 3) for _ in range(rank)]
        line = ["probe", "--atom", atom, "--dir", ",".join(map(str, direction)),
                "--radius", str(rng.randint(1, 6) if rng.random() < 0.1 else rng.randint(2, 6))]
        if rng.random() < 0.5:
            line += ["--mode", rng.choice(("halfspace", "cone"))]
        if rng.random() < 0.3:
            line += ["--grid", rng.choice(("0,1/2,1,2", "0,1", "1/3,2/3,5/4", "2,1,0", "0,1/0"))]
        if rng.random() < 0.3:
            line += ["--lambda-max", rng.choice(("0", "1/2", "2", "3/2", "-1"))]
        lines.append(line + ["--format", rng.choice(("json", "csv"))])
    return lines


def _refused_table_lines():
    """One ``reidemeister --table`` line per refusal of a table or of its map,
    with tables that fail several checks at once."""
    z4 = [[(x + y) % 4 for y in range(4)] for x in range(4)]

    def with_entry(rows, i, j, value):
        rows = [row[:] for row in rows]
        rows[i][j] = value
        return rows

    # Z/5 relabelled by p, with 4 written -1 outside the identity's row and
    # column: every lookup wraps to the right row
    p = [2, 4, 0, 1, 3]
    wrapped = [[0] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(5):
            wrapped[p[i]][p[j]] = p[(i + j) % 5]
    wrapped = [[-1 if y == 4 and 2 not in (x, j) else y for j, y in enumerate(row)]
               for x, row in enumerate(wrapped)]
    # Z/8 with the intercalate {1, 5} x {1, 5} swapped: a loop, not a group
    loop = [[(x + y) % 8 for y in range(8)] for x in range(8)]
    for i, j in ((1, 1), (1, 5), (5, 1), (5, 5)):
        loop[i][j] = 6 if loop[i][j] == 2 else 2
    monoids = [[[0, 0], [0, 1]], [[max(x, y) for y in range(4)] for x in range(4)]]
    tables = ([[1, 2], [[0], 5], [], [[0]] * 513, [[0, 1]],
               with_entry(z4, 2, 3, 1.5), with_entry(z4, 1, 3, False)]
              + [with_entry(z4, 2, 3, v) for v in (4, 5, -1, -4)]
              # out of range, and also with no identity, or with no inverse of 1
              + [with_entry(z4, 0, 3, -1), with_entry(z4, 1, 3, 9), wrapped,
                 [[0, 0], [0, 0]], *monoids, loop])
    maps = ["5", "[0, 1.0, 2, 3]", "[0, true, 2, 3]", "[0, 0, 2, 3]", "[0, 2, 1, 3]"]
    return ([["reidemeister", "--table", json.dumps(rows)] for rows in tables]
            + [["reidemeister", "--table", json.dumps(z4), "--automorphism", perm]
               for perm in maps])


def _refused_matrix_lines():
    """One ``reidemeister --matrix`` line per refusal of an automorphism, and
    lines that fail several checks at once, so the order of the checks shows;
    then a few accepted ones."""
    chain = {"--torsion": "[2, 4]"}
    cases = [
        ("5", {}), ("[[1.0]]", {}), ("[[true]]", {}), ("[1]", {}), ("[[1, 0], [0]]", {}),
        ("[[-1]]", {"--torsion": "[1]"}), ("[[-1]]", {"--torsion": "[2.0]"}),
        ("[[-1]]", {"--torsion": "[4, 2]"}),
        ("[[-1]]", dict(chain, **{"--torsion-map": "[[1, 0]]"})),
        ("[[-1]]", dict(chain, **{"--torsion-map": "[[1, 0], [0, 1.5]]"})),
        ("[[-1]]", dict(chain, **{"--torsion-map": "3"})),
        ("[[-1]]", {"--torsion": "[2]", "--mixing": "[[1, 0]]"}),
        ("[[-1]]", {"--torsion": "[2]", "--mixing": "[[false]]"}),
        ("[[2]]", {}),
        ("[[-1]]", dict(chain, **{"--torsion-map": "[[1, 1], [1, 1]]"})),
        ("[[-1]]", {"--torsion": "[4]", "--torsion-map": "[[2]]"}),
        # two faults each: the earlier check decides the message
        ("[[1, 0]]", dict(chain, **{"--torsion-map": "[[1.0]]"})),
        ("[[1, 0]]", {"--torsion": "[1]"}),
        ("[[2]]", {"--torsion": "[3, 2]", "--torsion-map": "[[1]]"}),
        ("[[2]]", {"--torsion": "[2]", "--mixing": "[[1, 1]]"}),
        ("[[2]]", {"--torsion": "[4]", "--torsion-map": "[[2]]"}),
        # a singular 1 - A, pure torsion, a moved torsion part with a mixing
        # block, and a 6 x 6 signed permutation
        ("[[1, 1], [0, 1]]", {}), ("[]", chain),
        ("[]", {"--torsion": "[3, 6]", "--torsion-map": "[[2, 0], [0, 5]]"}),
        ("[[-1]]", dict(chain, **{"--torsion-map": "[[1, 1], [2, 3]]", "--mixing": "[[1], [3]]"})),
        (json.dumps([[0, -1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0],
                     [0, 0, 0, 0, 0, 1], [0, 0, 0, -1, 0, 0], [0, 0, 0, 0, 1, 0]]), {}),
    ]
    return [["reidemeister", "--matrix", matrix] + [x for item in options.items() for x in item]
            for matrix, options in cases]


def _reidemeister_lines(rng, workloads, count):
    lines = []
    for i in range(count):
        a, factors, units = workloads.random_automorphism(rng, torsion=i % 2 == 1)
        line = ["reidemeister", "--matrix", json.dumps(a)]
        if factors:
            tmap = [[u if r == c else 0 for c in range(len(units))] for r, u in enumerate(units)]
            line += ["--torsion", json.dumps(factors), "--torsion-map", json.dumps(tmap)]
        lines.append(line)
    for _ in range(count // 4):
        n = rng.randint(2, 12)
        table = [[(x + y) % n for y in range(n)] for x in range(n)]
        k = rng.randint(0, n - 1)
        lines.append(["reidemeister", "--table", json.dumps(table),
                      "--automorphism", json.dumps([(k * x) % n for x in range(n)])])
    lines += [["reidemeister"], ["reidemeister", "--matrix", "[[1,"],
              ["reidemeister", "--matrix", "[[1]]", "--table", "[[0]]"],
              ["reidemeister", "--table", "{}"], ["reidemeister", "--matrix", "[[1, 2]]"]]
    return lines + _refused_table_lines() + _refused_matrix_lines()


def generate() -> list:
    """The command lines, built from the checkout whose src and benchmark are on sys.path."""
    import oracles
    import workloads
    from groupinv import selfcheck

    rng = random.Random(SEED)
    texts = [selfcheck._random_expr(rng, 2 + i % 2).label() for i in range(LABELS)]
    texts += [oracles.render(workloads.random_expr(rng)) for _ in range(LABELS)]
    return (_group_lines(texts + FIXED_GROUPS) + _probe_lines(rng, 400)
            + _reidemeister_lines(rng, workloads, 40) + [["selfcheck"]])


def run(lines: list) -> list:
    """sha256 of each line's stdout, stderr and exit code, run through cli.main."""
    from groupinv import cli

    digests = []
    for line in lines:
        out, err, code = io.StringIO(), io.StringIO(), 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main(line, prog_name="groupinv")
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is an output too
                code = "traceback %r" % exc
        err = err.getvalue()
        if line == ["selfcheck"]:
            err = _TIMING.sub("", err)
        record = json.dumps([out.getvalue(), err, code]).encode()
        digests.append(hashlib.sha256(record).hexdigest())
    return digests


def _child(root: Path, mode: str, payload: str, extra_path: str = "") -> str:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), extra_path])))
    proc = subprocess.run([sys.executable, __file__, mode], input=payload, env=env, cwd=root,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("%s child failed in %s:\n%s" % (mode, root, proc.stderr))
    return proc.stdout


def main() -> int:
    if sys.argv[1:2] == ["--generate"]:
        json.dump(generate(), sys.stdout)
        return 0
    if sys.argv[1:2] == ["--run"]:
        json.dump(run(json.loads(sys.stdin.read())), sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()
    payload = _child(parent, "--generate", "", str(parent / "benchmark"))
    lines = json.loads(payload)
    digests = {}
    for name, root in (("parent", parent), ("change", change)):
        digests[name] = json.loads(_child(root, "--run", payload))
        total = hashlib.sha256("".join(digests[name]).encode()).hexdigest()
        print("%s: %d command lines, sha256 %s" % (name, len(digests[name]), total))
    for line, a, b in zip(lines, digests["parent"], digests["change"]):
        if a != b:
            print("first difference: groupinv %s" % shlex.join(line))
            return 1
    return 0 if len(digests["parent"]) == len(digests["change"]) == len(lines) else 1


if __name__ == "__main__":
    sys.exit(main())
