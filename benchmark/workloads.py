"""The benchmark's four workloads: seeded inputs, the timed operation, and the
check that runs off the clock.

A workload hands out rounds.  Every round has the same make-up: the same
number of operations of each kind and size class, freshly drawn from the
seeded generator, plus the same fixed operations that fail today.  So the
share of failed operations is the same in every run.  The program is reached
only through the attributes of the ``groupinv`` package, looked up at call
time, so the traced run sees every call.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import groupinv as gi
from groupinv import ballprobe

import oracles as orc

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    counted_failure: bool = False


class DeadlineExceeded(Exception):
    pass


def _alarm(signum, frame):
    raise DeadlineExceeded("operation ran past its deadline")


def with_deadline(seconds: float, fn):
    def run():
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return run


def _emit(payload: dict) -> str:
    """The CLI's JSON document, rendered the way the CLI renders it."""
    return json.dumps({"version": gi.__version__, **payload}, indent=2)


# ---------------------------------------------------------------------------
# group expressions

ATOMS = (  # kind, smallest and largest parameter
    ("Z", 1, 4), ("F", 2, 5), ("BS", 2, 6), ("Klein", 0, 0), ("B", 3, 6),
    ("Thompson", 0, 0), ("T", 3, 8), ("L", 2, 8), ("Zmod", 2, 12),
)


def random_atom(rng):
    kind, lo, hi = rng.choice(ATOMS)
    return ("atom", kind, rng.randint(lo, hi))


def random_expr(rng, depth: int = 3):
    if depth == 0 or rng.random() < 0.45:
        return random_atom(rng)
    kids = [random_expr(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    return ("*" if rng.random() < 0.4 else "x", kids)


def expr_with_atoms(rng, lo: int, hi: int):
    while True:
        node = random_expr(rng)
        if lo <= sum(1 for _ in orc.atoms_of(node)) <= hi:
            return node


def _direct_factors(node):
    if node[0] != "x":
        return [node]
    return [f for kid in node[1] for f in _direct_factors(kid)]


def _node_weight(node) -> float:
    if node[0] == "atom":
        return 1.5 if node[1] in ("Thompson", "T") else 0.0
    return (1.5 if node[0] == "*" else 1.0) + sum(_node_weight(k) for k in node[1])


def _widest_direct(node) -> int:
    if node[0] == "atom":
        return 0
    widest = max(_widest_direct(k) for k in node[1])
    return max(widest, len(_direct_factors(node))) if node[0] == "x" else widest


def size_score(node) -> float:
    """A predictor of `decide`'s cost read off the expression alone: product
    nodes (free ones weigh more), Thompson-type atoms (their Omega goes through
    double description) and the widest flattened direct product.  Its
    correlation with log time on the plain stream is about 0.9."""
    return _node_weight(node) + _widest_direct(node)


def permuted(rng, node):
    if node[0] == "atom":
        return node
    kids = [permuted(rng, k) for k in node[1]]
    rng.shuffle(kids)
    return (node[0], kids)


def answer_rinf(text: str) -> str:
    expr = gi.parse_group_expr(text)
    return _emit({"group": expr.label(), **gi.decide(expr).to_json_dict()})


def answer_invariants(text: str) -> str:
    expr = gi.parse_group_expr(text)
    return _emit({"group": expr.label(), **gi.lookup_invariants(expr).summary(1)})


def _verdict_check(node, expected=None, final_rule=None, permutation=None):
    def check(doc):
        problem = orc.check_verdict(node, doc, expected, final_rule)
        if problem is None and permutation is not None:
            other = gi.decide(gi.parse_group_expr(orc.render(permutation))).conclusion
            if other != doc["conclusion"]:
                problem = "%s is %s but its permutation %s is %s" % (
                    orc.render(node), doc["conclusion"], orc.render(permutation), other)
        return problem
    return check


def _invariants_check(node):
    return lambda doc: orc.check_invariants(node, doc)


def _on_json(check_doc):
    return lambda out: check_doc(json.loads(out))


def _T(n):
    return ("atom", "T", n)


# T(n) for n >= 9: Omega is built by double description past MAX_CONE_DIM = 8,
# so the recorded R-infinity fact is unreachable and every query raises
VERDICT_FAILURES = (
    ("rinf", _T(9), orc.RINFINITY),
    ("rinf", ("x", [("atom", "BS", 2), _T(12)]), None),
    ("rinf", ("x", [("*", [_T(16), ("atom", "Klein", 0)]), ("atom", "Z", 1)]), None),
    ("invariants", ("x", [("atom", "Z", 2), _T(10)]), None),
)


class Verdicts:
    """Seeded group expressions answered the way `rinf` and `invariants` answer."""

    entry = "from groupinv import parse_group_expr, decide, lookup_invariants"
    # p99 falls on the single costliest pick of each round, which scatters
    # widely from seed to seed; p97 keeps 12 operations beyond it at 4 rounds
    tail_percentile = 97
    min_rounds = 4
    in_process = True
    # each round picks PICKS expressions at evenly spaced ranks of a pool of
    # POOL plain draws sorted by predicted cost: every draw is equally likely
    # to be picked, and every round carries the same spread of sizes
    POOL, PICKS = 1000, 100
    INVARIANTS_EVERY = 4  # one pick in four is an `invariants` query
    PERMUTE_SHARE = 0.1

    def make_round(self, rng) -> list[Op]:
        pool = [random_expr(rng) for _ in range(self.POOL)]
        pool.sort(key=size_score)
        start = rng.random()
        ops = []
        for i in range(self.PICKS):
            node = pool[int((i + start) * self.POOL / self.PICKS)]
            if i % self.INVARIANTS_EVERY == 0:
                ops.append(self._invariants(node))
            else:
                perm = permuted(rng, node) if rng.random() < self.PERMUTE_SHARE else None
                ops.append(self._rinf(node, permutation=perm))
        # the paper's examples
        ops.append(self._rinf(("atom", "BS", rng.randint(2, 9)), orc.RINFINITY, "ThmMain1"))
        ops.append(self._rinf(("x", [("atom", "BS", 2), ("atom", "F", rng.randint(2, 6))]),
                              orc.RINFINITY))
        ops.append(self._rinf(("x", [("atom", "F", rng.randint(2, 6)), ("atom", "Z", 1)]),
                              orc.INDEX_TWO))
        for kind, node, expected in VERDICT_FAILURES:
            op = self._rinf(node, expected) if kind == "rinf" else self._invariants(node)
            op.counted_failure = True
            ops.append(op)
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _rinf(node, expected=None, final_rule=None, permutation=None) -> Op:
        text = orc.render(node)
        return Op("rinf", lambda: answer_rinf(text),
                  _on_json(_verdict_check(node, expected, final_rule, permutation)))

    @staticmethod
    def _invariants(node) -> Op:
        text = orc.render(node)
        return Op("invariants", lambda: answer_invariants(text),
                  _on_json(_invariants_check(node)))


# ---------------------------------------------------------------------------
# Cayley-ball probes

PROBE_ATOMS = {  # text: (kind, rank, directions)
    "Z^2": ("Z", 2, ((1, 0), (0, 1), (-1, 0), (1, 1), (2, -1), (-1, -2))),
    "Z^3": ("Z", 3, ((1, 0, 0), (0, -1, 0), (1, 1, 0), (1, -1, 1), (0, 2, -1))),
    "Klein": ("Klein", 1, ((1,), (-1,))),
    "BS(1,2)": ("BS", 2, ((1,), (-1,))),
    "BS(1,3)": ("BS", 3, ((1,), (-1,))),
    "F(2)": ("F", 2, ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (1, -1))),
}
MODES = (ballprobe.HALF_SPACE, ballprobe.TRUNCATED_CONE)


def run_probe(atom_text: str, radius: int, direction, mode: str):
    expr = gi.parse_group_expr(atom_text)
    ball = gi.enumerate_ball(expr.atom, radius)
    report = gi.connectivity_probe(ball, gi.Direction(direction), ballprobe.default_grid(radius),
                                   mode, Fraction(1))
    return ball.order, len(ball.edges), _emit(report.to_json_dict())


def _probe_check(atom_text, radius, direction):
    kind, k, _ = PROBE_ATOMS[atom_text]

    def check(out):
        order, edges, text = out
        return (orc.check_ball(kind, k, radius, order, edges)
                or orc.check_probe_evidence(kind, direction, json.loads(text)["evidence"]))
    return check


class Probe:
    """`enumerate_ball` then `connectivity_probe` on the default grid, both modes."""

    entry = "from groupinv import parse_group_expr, enumerate_ball, connectivity_probe"
    tail_percentile = 88
    min_rounds = 4
    in_process = True
    # (atom, radii, modes, directions): one probe per mode and direction, the
    # direction seeded when none is given.  Sorted by cost a round is six large
    # probes (about 13k vertices, they set the tail), four upper-medium cone
    # probes, a block of four F(2) half-space probes of equal cost by symmetry
    # (they set the median), four lower-medium and six small ones (145 to 575
    # vertices) where fixed costs dominate.
    ROUND = (
        ("Z^2", (8, 9, 10, 11, 12), MODES, None), ("Klein", (8, 9, 10, 11, 12), MODES, None),
        ("Z^3", (5, 6, 7), MODES, None),
        ("Z^3", (10, 11), MODES, None), ("F(2)", (6,), MODES, None),
        ("F(2)", (7,), (ballprobe.HALF_SPACE,), ((1, 0), (0, 1), (-1, 0), (0, -1))),
        ("F(2)", (7,), (ballprobe.TRUNCATED_CONE,), None),
        ("F(2)", (7,), (ballprobe.TRUNCATED_CONE,), None),
        ("BS(1,2)", (10,), (ballprobe.TRUNCATED_CONE,), None),
        ("BS(1,3)", (9,), (ballprobe.TRUNCATED_CONE,), None),
        ("F(2)", (8,), MODES, None), ("BS(1,2)", (12,), MODES, None),
        ("BS(1,3)", (10,), MODES, None),
    )

    def make_round(self, rng) -> list[Op]:
        ops = []
        for atom_text, radii, modes, directions in self.ROUND:
            radius = rng.choice(radii)
            for direction in directions or (rng.choice(PROBE_ATOMS[atom_text][2]),):
                for mode in modes:
                    ops.append(Op("probe", lambda a=atom_text, r=radius, d=direction, m=mode:
                                  run_probe(a, r, d, m),
                                  _probe_check(atom_text, radius, direction)))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# Reidemeister numbers


def _identity(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def random_automorphism(rng, torsion: bool):
    """A = B (+) S, the block sum of a hyperbolic block B of rank <= 3 (a few
    elementary moves of size 1) and a signed permutation S; with torsion, rank
    <= 3 and one or two small invariant factors acted on by units.  Larger
    blocks, or torsion beside rank >= 4, let smith_normal_form's entries
    explode."""
    k = rng.randint(1, 3) if torsion else rng.randint(2, 8)
    k1 = min(k, rng.randint(1, 3))
    b = _identity(k1)
    if k1 >= 2:
        for _ in range(k1 + 1):
            i, j = rng.sample(range(k1), 2)
            c = rng.choice((-1, 1))
            b[i] = [x + c * y for x, y in zip(b[i], b[j])]
    if rng.random() < 0.5:
        b[0] = [-x for x in b[0]]
    a = [[0] * k for _ in range(k)]
    for i in range(k1):
        a[i][:k1] = b[i]
    perm = list(range(k - k1))
    rng.shuffle(perm)
    for i, p in enumerate(perm):
        a[k1 + i][k1 + p] = rng.choice((-1, 1))
    factors, units = [], []
    if torsion:
        factors = rng.choice(([2], [3], [4], [5], [6], [2, 2], [2, 4]))
        units = [rng.choice([u for u in range(1, d) if math.gcd(u, d) == 1]) for d in factors]
    return a, factors, units


def iterates(a, factors, units, count):
    """(A^n, diag(u_i^n mod d_i), u_i^n) for n = 1..count."""
    out = []
    power = a
    for n in range(1, count + 1):
        un = [pow(u, n, d) for u, d in zip(units, factors)]
        out.append((power, [[un[i] if i == j else 0 for j in range(len(un))]
                            for i in range(len(un))], un))
        power = _mat_mul(power, a)
    return out


def run_zeta(seq, factors):
    return [gi.reidemeister_number(gi.FGAbelianAutomorphism.from_matrix(an, factors, tn))
            for an, tn, _ in seq]


def _zeta_check(seq, factors):
    def check(values):
        for n, ((an, _, un), got) in enumerate(zip(seq, values), 1):
            want = orc.block_reidemeister(an, factors, un)
            if got != want:
                return "R(phi^%d) = %s, expected %s (factors %s)" % (n, got, want, factors)
        return None
    return check


def random_group_table(rng, order: int):
    """A seeded table of the given order from the cyclic and dihedral families
    and their products, with an automorphism whose class count is known."""
    def cyclic(n):
        u = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
        return orc.cyclic_table(n), [(u * x) % n for x in range(n)], orc.cyclic_classes(n, u)

    def dihedral(m):
        return orc.dihedral_table(m), list(range(2 * m)), orc.dihedral_classes(m)

    choices = [lambda: cyclic(order)]
    if order % 2 == 0 and order // 2 >= 3:
        choices.append(lambda: dihedral(order // 2))
    splits = [a for a in range(2, order // 2 + 1) if order % a == 0]
    if splits:
        choices.append(lambda: _product(cyclic, cyclic, rng.choice(splits), order))
    dihedral_splits = [a for a in splits if (order // a) % 2 == 0 and order // a >= 6]
    if dihedral_splits:
        a = rng.choice(dihedral_splits)
        choices.append(lambda: _product(cyclic, lambda n: dihedral(n // 2), a, order))
    return rng.choice(choices)()


def _product(left, right, a, order):
    ta, pa, ca = left(a)
    tb, pb, cb = right(order // a)
    return orc.product_table(ta, tb), orc.product_perm(pa, pb), ca * cb


def run_table(table, perm):
    group = gi.FiniteGroupTable(tuple(tuple(row) for row in table))
    count, reps = gi.brute_force_twisted_classes(group, perm)
    return _emit({"reidemeister": count, "representatives": reps})


_P = [[19293, 4795, -7279, 1113], [10445, 2597, -3940, 601],
      [-14816, -3682, 5590, -855], [2053, 512, -774, 117]]
_Q = [[1, 0, -1, 0, 0, 0], [2, 1, -2, 0, 0, 0], [-2, -1, 3, 0, 0, 0],
      [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, -1, 0], [0, 0, 0, 1, 0, 0]]
# automorphisms with torsion on which smith_normal_form's entries grow
# without bound: R(phi) for _P + Z/2 does not finish in 30 s, nor R(phi^7)
# for _Q + Z/3 + Z/6 (the first six iterates take under 0.1 s)
TWISTED_FAILURES = ((_P, [2], [1]), (_Q, [3, 6], [1, 1]))


class Twisted:
    """Reidemeister zeta coefficients on Z^k (+ torsion) and brute-force
    twisted-class counts on multiplication tables."""

    entry = ("from groupinv import FGAbelianAutomorphism, FiniteGroupTable, "
             "reidemeister_number, brute_force_twisted_classes")
    tail_percentile = 95
    min_rounds = 4
    in_process = True
    ITERATES = 8
    # a table's cost is set by its order, so each large order is a cost class;
    # with 70 completed operations a round, p95 has 3.5 a round beyond it and
    # falls in the middle of the order-320 class, not on a border
    FREE_OPS, TORSION_OPS = 42, 14
    SMALL_ORDERS = (16, 96)
    LARGE_ORDERS = (128, 192, 256, 320, 384, 448, 512)
    DEADLINE_S = 0.25

    def make_round(self, rng):
        """Yields the round's operations; each table is built only when its
        turn comes, so at most one large table is alive at a time."""
        specs = ([("zeta", False)] * self.FREE_OPS + [("zeta", True)] * self.TORSION_OPS
                 + [("table", rng.randint(*self.SMALL_ORDERS)) for _ in self.LARGE_ORDERS]
                 + [("table", order) for order in self.LARGE_ORDERS]
                 + [("failure", case) for case in TWISTED_FAILURES])
        rng.shuffle(specs)
        for kind, arg in specs:
            if kind == "zeta":
                yield self._zeta(*random_automorphism(rng, arg))
            elif kind == "table":
                yield self._table(rng, arg)
            else:
                op = self._zeta(*arg)
                op.counted_failure = True
                yield op

    @staticmethod
    def _table(rng, order) -> Op:
        table, perm, expected = random_group_table(rng, order)
        return Op("table", lambda: run_table(table, perm),
                  lambda out: orc.check_table_answer(expected, json.loads(out)))

    def _zeta(self, a, factors, units) -> Op:
        seq = iterates(a, factors, units, self.ITERATES)
        return Op("zeta", with_deadline(self.DEADLINE_S, lambda: run_zeta(seq, factors)),
                  _zeta_check(seq, factors))


# ---------------------------------------------------------------------------
# CLI processes


class CliFailure(Exception):
    pass


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# the parser recurses once per parenthesis and overflows the interpreter stack
# near 330 levels; the CLI catches only ParseError and ValueError
DEEP_PARENS = "(" * 400 + "Z" + ")" * 400


class Cli:
    """Real `python -m groupinv.cli` processes, one at a time."""

    entry = "import groupinv.cli"
    tail_percentile = 85
    min_rounds = 7
    in_process = False

    def __init__(self, src: Path, out_dir: Path):
        self.env = child_env(src)
        self.trace_dir = out_dir
        self.tracer = None
        self._trace_file = None

    def make_round(self, rng) -> list[Op]:
        ops = []
        for _ in range(2):
            node = expr_with_atoms(rng, 1, 6)
            ops.append(self._op("rinf", ["rinf", "-g", orc.render(node)],
                                _verdict_check(node)))
            node = expr_with_atoms(rng, 1, 6)
            ops.append(self._op("invariants", ["invariants", "-g", orc.render(node)],
                                _invariants_check(node)))
            a, factors, units = random_automorphism(rng, rng.random() < 0.25)
            an, tn, un = iterates(a, factors, units, rng.randint(1, 4))[-1]
            argv = ["reidemeister", "--matrix", json.dumps(an)]
            if factors:
                argv += ["--torsion", json.dumps(factors), "--torsion-map", json.dumps(tn)]
            want = orc.block_reidemeister(an, factors, un)
            ops.append(self._op("matrix", argv, lambda doc, w=want: None
                                if doc["reidemeister"] == ("infinity" if w == math.inf else w)
                                else "reidemeister %s, expected %s" % (doc["reidemeister"], w)))
            table, perm, expected = random_group_table(rng, rng.randint(8, 32))
            ops.append(self._op("table", ["reidemeister", "--table", json.dumps(table),
                                          "--automorphism", json.dumps(perm)],
                                lambda doc, e=expected: orc.check_table_answer(e, doc)))
            atom_text = rng.choice(sorted(PROBE_ATOMS))
            kind, _, directions = PROBE_ATOMS[atom_text]
            radius = rng.randint(4, 5) if kind in ("F", "BS") or atom_text == "Z^3" else rng.randint(6, 10)
            direction = rng.choice(directions)
            ops.append(self._op("probe", ["probe", "--atom", atom_text,
                                          "--dir", ",".join(map(str, direction)),
                                          "--mode", rng.choice(MODES), "--radius", str(radius)],
                                lambda doc, k=kind, d=direction:
                                orc.check_probe_evidence(k, d, doc["evidence"])))
        op = self._op("rinf", ["rinf", "-g", DEEP_PARENS], orc.check_trace)
        op.counted_failure = True
        ops.append(op)
        rng.shuffle(ops)
        return ops

    def _op(self, kind, argv, check_doc) -> Op:
        def run():
            if self.tracer is None:
                cmd = [sys.executable, "-m", "groupinv.cli", *argv]
            else:
                fd, self._trace_file = tempfile.mkstemp(suffix=".json", dir=self.trace_dir)
                os.close(fd)
                cmd = [sys.executable, str(HERE / "traced_cli.py"), self._trace_file, *argv]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, timeout=120)
            if proc.returncode != 0:
                raise CliFailure("%s exited %d" % (kind, proc.returncode))
            return proc.stdout, proc.stderr

        def check(out):
            stdout, stderr = out
            if stderr:
                return "%s wrote to stderr: %s" % (kind, stderr.strip()[:200])
            try:
                doc = json.loads(stdout)
            except json.JSONDecodeError:
                return "%s printed no single JSON document" % kind
            if not isinstance(doc, dict) or "version" not in doc:
                return "%s printed no version" % kind
            if self.tracer is not None:
                self.tracer.output_bytes_seen.append(len(stdout.encode()))
            return check_doc(doc)

        return Op("cli:" + kind, run, check)

    def collect(self, op_id: int) -> None:
        """Merge the last traced child's spans and totals, failed or not."""
        path, self._trace_file = self._trace_file, None
        if path is None:
            return
        try:
            with open(path) as fh:
                text = fh.read()
        finally:
            os.unlink(path)
        if text:
            self.tracer.merge_child(json.loads(text), op_id)


def make(name: str, src: Path, out_dir: Path):
    if name == "verdicts":
        return Verdicts()
    if name == "probe":
        return Probe()
    if name == "twisted":
        return Twisted()
    if name == "cli":
        return Cli(src, out_dir)
    raise ValueError("unknown workload %r" % name)
