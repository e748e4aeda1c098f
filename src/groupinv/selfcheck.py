"""Acceptance checks, runnable from the CLI and replayed by the test suite.

Each criterion function computes everything it asserts (or verifies it against
the recorded source) and returns a CheckResult; nothing is approximated and
all tolerances are exact equality.  The CLI ``selfcheck`` command runs these
plus a set of golden examples and exits non-zero on any mismatch.

The finite presentations of the catalog atoms live here too, with their
abelianization through the Smith form: the independent check of the
catalog's hom-rank facts, which only the golden examples and the tests run.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from math import gcd
from typing import Sequence

from . import _Record
from . import expressions as ex
from .abelian import (
    FGAbelianAutomorphism,
    FiniteGroupTable,
    INFINITE,
    abelian_group_from_matrix,
    brute_force_twisted_classes,
    cyclic_table,
    det,
    direct_product_table,
    fixed_subgroup_trivial,
    identity_matrix,
    mat_sub,
    reidemeister_number,
    smith_normal_form,
    verify_central_extension,
)
from .ballprobe import (
    HALF_SPACE,
    SUPPORTS_MEMBERSHIP,
    SUPPORTS_NON_MEMBERSHIP,
    TRUNCATED_CONE,
    enumerate_ball,
    probe_direction_scan,
)
from .catalog import lookup_invariants
from .cones import check_finite12, omega_from_obstructions
from .expressions import parse_group_expr
from .rinf import INDEX_TWO, RINFINITY, decide_text
from .spheres import (
    EMPTY,
    FULL,
    ConeRegion,
    Direction,
    SphereSet,
    empty_set,
    full_sphere,
    join,
    permute_factors,
    permute_vector,
    points_set,
    union,
)
from .unionfind import UnionFind


class CheckResult:
    __slots__ = ("name", "ok", "detail", "seconds")

    def __init__(self, name: str, ok: bool, detail: str, seconds: float):
        self.name, self.ok, self.detail, self.seconds = name, ok, detail, seconds

    def line(self) -> str:
        return "[%s] %s: %s (%.2fs)" % ("PASS" if self.ok else "FAIL",
                                        self.name, self.detail, self.seconds)


def _timed(name):
    def wrap(fn):
        def run() -> CheckResult:
            start = time.perf_counter()
            try:
                ok, detail = fn()
            except Exception as exc:  # a crash is a failure, not an abort
                return CheckResult(name, False, "exception: %r" % exc,
                                   time.perf_counter() - start)
            return CheckResult(name, ok, detail, time.perf_counter() - start)
        run.check_name = name
        return run
    return wrap


# ---------------------------------------------------------------------------
# helpers shared by several criteria


def _random_unimodular(rng, k, ops=12, cap=40):
    m = identity_matrix(k)
    for _ in range(ops):
        kind = rng.randrange(3)
        i, j = rng.randrange(k), rng.randrange(k)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            cand = [row[:] for row in m]
            cand[i] = [x + c * y for x, y in zip(cand[i], cand[j])]
            if max(abs(x) for row in cand for x in row) <= cap:
                m = cand
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        elif kind == 2:
            m[i] = [-x for x in m[i]]
    return m


def _mod_n_orbit_count(m, n):
    """Twisted-orbit count on (Z/n)^k; exact because n*Z^k lies inside the
    image lattice of (1 - m) whenever n = |det(1 - m)|."""
    k = len(m)
    one_minus = mat_sub(identity_matrix(k), m)
    size = n ** k
    gens = [[one_minus[i][j] for i in range(k)] for j in range(k)]
    uf = UnionFind(size)
    for code in range(size):
        vec = []
        c = code
        for _ in range(k):
            vec.append(c % n)
            c //= n
        vec.reverse()
        for g in gens:
            target = 0
            for a, b in zip(vec, g):
                target = target * n + ((a + b) % n)
            uf.union(code, target)
    return uf.components


def _s3_table() -> FiniteGroupTable:
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[x]] for x in range(3))

    return FiniteGroupTable(tuple(tuple(index[compose(p, q)] for q in perms) for p in perms))


def _random_sphere_set(rng, rank):
    kind = rng.randrange(4)
    if kind == 0:
        return empty_set([rank])
    if kind == 1:
        return full_sphere([rank])
    dirs = []
    for _ in range(rng.randint(1, 3)):
        vec = [0] * rank
        while not any(vec):
            vec = [rng.randint(-2, 2) for _ in range(rank)]
        dirs.append(tuple(vec))
    if kind == 2 or rank == 1:
        return points_set([rank], dirs)
    return SphereSet([rank], [(ConeRegion([Direction(dirs[0])]),)])  # a closed half-space


# ---------------------------------------------------------------------------
# presentations and abelianization


class FinitePresentation(_Record):
    """Finitely many generators and relators; relators are (generator, exponent)
    words."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators: tuple[str, ...],
                 relators: tuple[tuple[tuple[str, int], ...], ...]):
        if len(set(generators)) != len(generators):
            raise ValueError("generator names must be distinct")
        for rel in relators:
            for g, _ in rel:
                if g not in generators:
                    raise ValueError("relator uses unknown generator %r" % g)
        for rel in relators:
            reduced = free_reduce(rel)
            if reduced != rel:
                raise ValueError("relators must be freely reduced")
        self._set(generators, relators)


def free_reduce(word: Sequence[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    out: list[tuple[str, int]] = []
    for g, e in word:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            combined = out[-1][1] + e
            out.pop()
            if combined:
                out.append((g, combined))
        else:
            out.append((g, e))
    return tuple(out)


def presentation(generators: Sequence[str], relators: Sequence[Sequence[tuple[str, int]]]) -> FinitePresentation:
    return FinitePresentation(tuple(generators),
                              tuple(free_reduce(r) for r in relators))


def abelianization_of_presentation(p: FinitePresentation) -> tuple[int, list[int]]:
    """(free rank, invariant torsion factors) of the abelianized presentation,
    via the Smith form of the relator exponent-sum matrix."""
    gens = list(p.generators)
    if not p.relators:
        return len(gens), []
    matrix = []
    for rel in p.relators:
        row = [0] * len(gens)
        for g, e in rel:
            row[gens.index(g)] += e
        matrix.append(row)
    # columns = generators: cokernel of the row span transposed into column form
    transposed = [[matrix[r][c] for r in range(len(matrix))] for c in range(len(gens))]
    return abelian_group_from_matrix(transposed)


def word(text: str) -> tuple[tuple[str, int], ...]:
    """Parse words like ``t a t^-1 a^-2`` into (generator, exponent) pairs."""
    out = []
    for chunk in text.split():
        if "^" in chunk:
            g, e = chunk.split("^", 1)
            out.append((g, int(e)))
        else:
            out.append((chunk, 1))
    return free_reduce(out)


def atom_presentation(atom: ex.GroupAtom) -> FinitePresentation | None:
    """Finite presentation when the atom has one (Thompson's group included);
    None for the atoms presented infinitely (T(n), n > 2, and lamplighters)."""
    if atom.kind == ex.FREE_ABELIAN:
        k = atom.params[0]
        gens = ["x%d" % i for i in range(1, k + 1)]
        rels = []
        for i in range(k):
            for j in range(i + 1, k):
                rels.append([(gens[i], 1), (gens[j], 1), (gens[i], -1), (gens[j], -1)])
        return presentation(gens, rels)
    if atom.kind == ex.FREE:
        n = atom.params[0]
        return presentation(["x%d" % i for i in range(1, n + 1)], [])
    if atom.kind == ex.BAUMSLAG_SOLITAR:
        n = atom.params[0]
        return presentation(["a", "t"], [word("t a t^-1 a^%d" % (-n))])
    if atom.kind == ex.KLEIN_BOTTLE:
        return presentation(["a", "b"], [word("a b a b^-1")])
    if atom.kind == ex.BRAID:
        n = atom.params[0]
        gens = ["s%d" % i for i in range(1, n)]
        rels = []
        for i in range(len(gens) - 1):
            rels.append([(gens[i], 1), (gens[i + 1], 1), (gens[i], 1),
                         (gens[i + 1], -1), (gens[i], -1), (gens[i + 1], -1)])
        for i in range(len(gens)):
            for j in range(i + 2, len(gens)):
                rels.append([(gens[i], 1), (gens[j], 1), (gens[i], -1), (gens[j], -1)])
        return presentation(gens, rels)
    if atom.kind == ex.THOMPSON_F:
        # two-generator presentation with commutator relators
        a, b = "a", "b"
        def comm(u, v):
            return list(u) + list(v) + [(g, -e) for g, e in reversed(u)] + [(g, -e) for g, e in reversed(v)]
        u = [(a, 1), (b, -1)]
        v1 = [(a, -1), (b, 1), (a, 1)]
        v2 = [(a, -2), (b, 1), (a, 2)]
        return presentation([a, b], [comm(u, v1), comm(u, v2)])
    if atom.kind == ex.FINITE_CYCLIC:
        k = atom.params[0]
        return presentation(["x"], [[("x", k)]] if k > 1 else [[("x", 1)]])
    # documentation only, no finite presentation exists or is used:
    #   T(n): generators x0, x1, x2, ... with x_j^-1 x_i x_j = x_{i+n-1} for
    #         0 <= j < i (the abelianization has rank n; see the tests)
    #   L(n): generators a, t with a^n and all commutators [a, t^k a t^-k]
    return None


# ---------------------------------------------------------------------------
# the ten criteria


@_timed("1 Reidemeister basics on Z")
def criterion_1():
    minus = reidemeister_number(FGAbelianAutomorphism.from_matrix([[-1]]))
    plus = reidemeister_number(FGAbelianAutomorphism.from_matrix([[1]]))
    ok = minus == 2 and plus == INFINITE
    return ok, "R(-1 on Z) = %s, R(+1 on Z) = %s" % (minus, plus)


@_timed("2 fixed-subgroup/finiteness equivalence over random unimodular maps")
def criterion_2():
    rng = random.Random(96321)
    total = 0
    orbit_checks = 0
    for _ in range(1000):
        k = rng.randint(1, 4)
        m = _random_unimodular(rng, k)
        phi = FGAbelianAutomorphism.from_matrix(m)
        r = reidemeister_number(phi)
        if fixed_subgroup_trivial(phi) != (r != INFINITE):
            return False, "equivalence failed for %r" % (m,)
        if r != INFINITE:
            d = abs(det(mat_sub(identity_matrix(k), m)))
            if r != d:
                return False, "value mismatch for %r: %s vs %s" % (m, r, d)
            snf_product = math.prod(x for x in smith_normal_form(
                mat_sub(identity_matrix(k), m)).diagonal if x)
            if r != snf_product:
                return False, "Smith-form product mismatch for %r" % (m,)
            if k <= 3 and 1 <= d <= 12:
                if _mod_n_orbit_count(m, d) != r:
                    return False, "orbit enumeration mismatch for %r" % (m,)
                orbit_checks += 1
        total += 1
    ok = total == 1000 and orbit_checks >= 25
    return ok, "%d matrices, %d brute-force orbit cross-checks" % (total, orbit_checks)


@_timed("3 central-extension product law on constructed extensions")
def criterion_3():
    checked = 0
    quotients = [("Z/2", cyclic_table(2)), ("Z/3", cyclic_table(3)),
                 ("Z/4", cyclic_table(4)),
                 ("V4", direct_product_table(cyclic_table(2), cyclic_table(2))),
                 ("S3", _s3_table())]
    for ka in (2, 3, 4, 5):
        sub = cyclic_table(ka)
        for ua in range(1, ka):
            if gcd(ua, ka) != 1:
                continue
            phi_sub = [(ua * x) % ka for x in range(ka)]
            for _, quot in quotients:
                nq = quot.order
                phi_quot = list(range(nq))  # identity on the quotient
                total = direct_product_table(sub, quot)
                inclusion = [x * nq + quot.identity for x in range(ka)]
                projection = [code % nq for code in range(ka * nq)]
                phi_total = [phi_sub[code // nq] * nq + phi_quot[code % nq]
                             for code in range(ka * nq)]
                report = verify_central_extension(sub, total, quot, inclusion, projection,
                                                  phi_sub, phi_total, phi_quot)
                if not report.valid:
                    return False, "constructed extension rejected: %s" % report.problems
                if not report.product_holds:
                    return False, ("product law failed: R=%s, R'=%s, Rbar=%s"
                                   % (report.r_total, report.r_sub, report.r_quot))
                checked += 1
    return checked >= 20, "%d central extensions, product law exact on all" % checked


def _expected_catalog_rows(n: int):
    full_s_nminus1_in = join(full_sphere([n]), empty_set([1]))
    return {
        "BS(1,%d)" % n: ("omega", points_set([1], [(1,)])),
        "BS(1,2) x F(%d)|omega" % n: ("omega", points_set([1, n], [tuple([1] + [0] * n)])),
        "BS(1,2) x F(%d)|sigma" % n:
            ("sigma", union(points_set([1, n], [tuple([-1] + [0] * n)]),
                            SphereSet([1, n], [(EMPTY, FULL)]))),
        "F(%d) x Z|omega" % n:
            ("omega", points_set([n, 1], [tuple([0] * n + [1]), tuple([0] * n + [-1])])),
        "F(%d) x Z|sigma" % n: ("sigma", full_s_nminus1_in),
        "B(%d)" % n: ("omega", full_sphere([1])),
        "B(%d)|sigma" % n: ("sigma", empty_set([1])),
        "Klein": ("omega", full_sphere([1])),
        "Klein|sigma": ("sigma", empty_set([1])),
    }


@_timed("4 catalog reproduction of the worked product examples")
def criterion_4():
    checked = 0
    for n in (2, 3, 4):
        for key, (which, expected) in _expected_catalog_rows(n).items():
            text = key.split("|")[0]
            inv = lookup_invariants(parse_group_expr(text))
            got = inv.omega_at(1) if which == "omega" else inv.sigma1_complement
            if got != expected:
                return False, "%s (%s): got %r, expected %r" % (text, which, got, expected)
            checked += 1
    return True, "%d exact sphere-set equalities across n in {2, 3, 4}" % checked


@_timed("5 verdict reproduction with expected rules")
def criterion_5():
    cases = []
    for n in (2, 3, 4):
        cases.append(("BS(1,%d)" % n, RINFINITY, "ThmMain1", None))
        cases.append(("BS(1,2) x F(%d)" % n, RINFINITY, "ThmMain1", "ProductFormula"))
        cases.append(("F(%d) x Z" % n, INDEX_TWO, "ThmMain2", "ProductFormula"))
    for m in (2, 3):
        cases.append(("BS(1,%d) * Zmod(3) * Zmod(4)" % m, RINFINITY, "ThmFreeProd2", None))
    cases.append(("Klein * Z * Zmod(2)", RINFINITY, "ThmFreeProd3", "LemRFacts1"))
    cases.append(("Zmod(2) * Zmod(2)", RINFINITY, "ThmFreeProd1", None))
    for text, conclusion, final, also in cases:
        v = decide_text(text)
        if v.conclusion != conclusion:
            return False, "%s: got %s, expected %s" % (text, v.conclusion, conclusion)
        if v.final_rule() != final:
            return False, "%s: final rule %s, expected %s" % (text, v.final_rule(), final)
        if also is not None and also not in v.rules():
            return False, "%s: trace %s misses %s" % (text, v.rules(), also)
    return True, "%d verdicts with the expected derivation rules" % len(cases)


@_timed("6 known-example table: survivor counts and verdict sources")
def criterion_6():
    rows = []
    for text in ("F(2)", "F(3)", "L(2)", "L(3)"):
        rows.append((text, "0", RINFINITY, "CatalogFact"))
    for text in ("BS(1,2)", "BS(1,3)", "BS(1,4)"):
        rows.append((text, "1", RINFINITY, "ThmMain1"))
    rows.append(("F(2) x Z", "2", INDEX_TWO, "ThmMain2"))
    for text in ("B(3)", "Klein"):
        rows.append((text, "2", RINFINITY, "CatalogFact"))
    for text in ("Thompson", "T(3)", "T(4)", "Klein x Z", "Klein x Z^2"):
        rows.append((text, "infinite", RINFINITY, "CatalogFact"))
    for text, count, conclusion, source in rows:
        omega = lookup_invariants(parse_group_expr(text)).omega_at(1)
        if omega is None or omega.cardinality().describe() != count:
            return False, "%s: survivor count %s, expected %s" % (
                text, None if omega is None else omega.cardinality().describe(), count)
        v = decide_text(text)
        if v.conclusion != conclusion or v.final_rule() != source:
            return False, "%s: verdict (%s, %s), expected (%s, %s)" % (
                text, v.conclusion, v.final_rule(), conclusion, source)
    return True, "%d table rows reproduced with matching sources" % len(rows)


ATOM_POOL = ["Z", "Z^2", "F(2)", "F(3)", "BS(1,2)", "BS(1,3)", "Klein",
             "B(3)", "B(4)", "Thompson", "T(3)", "L(2)", "Zmod(2)", "Zmod(6)"]


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.45:
        return parse_group_expr(rng.choice(ATOM_POOL))
    kids = [_random_expr(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    if rng.random() < 0.4 and all(not k.is_trivial for k in kids):
        return ex.free_product(kids)
    return ex.direct_product(kids)


@_timed("7 finite survivor sets are singletons or antipodal pairs")
def criterion_7():
    rng = random.Random(777)
    produced = 0
    finite_seen = 0
    while produced < 10000:
        expr = _random_expr(rng, 2)
        inv = lookup_invariants(expr)
        omega = inv.omega_at(1)
        if omega is not None:
            produced += 1
            report = check_finite12(omega)
            if not report.ok:
                return False, "violation on %s: %s" % (expr.label(), report.reason)
            if omega.cardinality().kind == "finite":
                finite_seen += 1
        if inv.sigma1_complement is not None:
            produced += 1  # complements count as produced sets too
    return True, "%d sphere sets checked (%d finite survivor sets)" % (produced, finite_seen)


@_timed("8 polar-cone engine vs primitive-vector enumeration")
def criterion_8():
    rng = random.Random(31415)
    done = 0
    exact_classes = 0
    while done < 100:
        m = rng.randint(1, 3)
        normals = []
        if m >= 2 and rng.random() < 0.3:
            for _ in range(m - 1):
                vec = [0] * m
                while not any(vec):
                    vec = [rng.randint(-2, 2) for _ in range(m)]
                normals.append(tuple(vec))
                normals.append(tuple(-c for c in vec))
        else:
            for _ in range(rng.randint(1, 4)):
                vec = [0] * m
                while not any(vec):
                    vec = [rng.randint(-3, 3) for _ in range(m)]
                normals.append(tuple(vec))
        omega = omega_from_obstructions(points_set([m], normals))
        enumerated = set()
        for vec in itertools.product(range(-5, 6), repeat=m):
            if not any(vec):
                continue
            g = 0
            for c in vec:
                g = gcd(g, abs(c))
            if g == 1 and all(sum(a * b for a, b in zip(vec, f)) <= 0 for f in normals):
                enumerated.add(vec)
        card = omega.cardinality()
        if card.kind == "infinite":
            for v in enumerated:
                if not omega.member(Direction(v)):
                    return False, "inconsistent enumeration for normals %r" % (normals,)
        else:
            # nothing, one ray or a line's two ends: exactly the enumerated points
            expected = {d.coords for d in card.points if max(map(abs, d.coords)) <= 5}
            if enumerated != expected:
                return False, "survivor mismatch for normals %r" % (normals,)
            exact_classes += 1
        done += 1
    return done == 100, "%d cones checked, %d in the exact classes" % (done, exact_classes)


@_timed("9 probe evidence matches the catalog on every tested direction")
def criterion_9():
    compass = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]
    cases = [
        (ex.free_abelian(2), compass),
        (ex.free_group(2), [(1, 0), (-1, 0), (0, 1), (0, -1)]),
        (ex.baumslag_solitar(1, 2), [(1,), (-1,)]),
        (ex.klein_bottle(), [(1,), (-1,)]),
    ]
    tested = 0
    for radius in (6, 8):
        for atom, dirs in cases:
            ball = enumerate_ball(atom, radius)
            for mode in (HALF_SPACE, TRUNCATED_CONE):
                rows, _ = probe_direction_scan(
                    atom, [Direction(d) for d in dirs], radius, mode, ball=ball)
                for row in rows:
                    if row.warn:
                        return False, "WARN at %s r=%d %s %s" % (
                            atom.label(), radius, mode, row.direction.coords)
                    expected = (SUPPORTS_MEMBERSHIP if row.catalog_member
                                else SUPPORTS_NON_MEMBERSHIP)
                    if row.evidence != expected:
                        return False, "%s r=%d %s %s: %s but catalog says %s" % (
                            atom.label(), radius, mode, row.direction.coords,
                            row.evidence, expected)
                    tested += 1
    return True, "%d direction/mode/radius probes, zero WARN flags" % tested


@_timed("10 join algebra laws on randomized sets")
def criterion_10():
    rng = random.Random(4242)
    s0 = full_sphere([1])
    if join(s0, s0) != full_sphere([1, 1]):
        return False, "S^0 join S^0 is not the full circle"
    cases = 0
    while cases < 10000:
        ranks = [rng.randint(1, 2) for _ in range(3)]
        a, b, c = (_random_sphere_set(rng, r) for r in ranks)
        left = join(join(a, b), c)
        right = join(a, join(b, c))
        if left != right:
            return False, "associativity failed"
        ab, ba = join(a, b), join(b, a)
        if permute_factors(ba, [1, 0]) != ab:
            return False, "commutativity up to permutation failed"
        embedded = join(empty_set([2]), a)
        if embedded.cardinality().kind != a.cardinality().kind:
            return False, "empty-join embedding changed the cardinality class"
        if not a.is_empty():
            probe_point = a.cardinality().points[0] if a.cardinality().kind == "finite" else None
            if probe_point is not None:
                lifted = Direction((0, 0) + probe_point.coords)
                if not embedded.member(lifted):
                    return False, "embedding lost a member"
        card = ab.cardinality()
        if a.is_empty() or b.is_empty():
            expected_kind = (b if a.is_empty() else a).cardinality().kind
            if card.kind != expected_kind:
                return False, "join with empty set changed the cardinality class"
        elif card.kind != "infinite":
            return False, "join of two non-empty sets is not infinite"
        # membership answers agree under the factor swap
        dim = ab.dim
        for _ in range(3):
            vec = [0] * dim
            while not any(vec):
                vec = [rng.randint(-2, 2) for _ in range(dim)]
            d = Direction(vec)
            swapped = Direction(permute_vector(d.coords, ab.ambient, [1, 0]))
            if ab.member(d) != ba.member(swapped):
                return False, "membership not permutation invariant"
        cases += 3  # three laws exercised per iteration
    return True, "%d randomized law instances" % cases


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
                criterion_6, criterion_7, criterion_8, criterion_9, criterion_10]


# ---------------------------------------------------------------------------
# golden examples beyond the criteria (selfcheck is a superset)


@_timed("golden: parser, ranks, Smith forms, twisted classes, probe counts")
def golden_examples():
    checks = [
        parse_group_expr("BS(1,2) x F(3)").label() == "BS(1,2) x F(3)",
        parse_group_expr("Z").atom == ex.free_abelian(1),
        parse_group_expr("BS(1,2) * Zmod(3) * Zmod(5)").node == "free",
        lookup_invariants(parse_group_expr("BS(1,2) x F(3)")).hom_rank == 4,
        lookup_invariants(parse_group_expr("F(2) * F(3)")).hom_rank == 5,
        abelianization_of_presentation(
            presentation(["a", "t"], [word("t a t^-1 a^-2")])) == (1, []),
        abelianization_of_presentation(
            presentation(["a", "b"], [word("a b a b^-1")])) == (1, [2]),
        smith_normal_form([[2, 0], [0, 3]]).diagonal == [1, 6],
        reidemeister_number(FGAbelianAutomorphism.from_matrix([[2, 1], [1, 1]])) == 1,
        brute_force_twisted_classes(cyclic_table(5),
                                    [(2 * x) % 5 for x in range(5)])[0] == 1,
        brute_force_twisted_classes(cyclic_table(4),
                                    [(-x) % 4 for x in range(4)])[0] == 2,
        enumerate_ball(ex.free_abelian(2), 2).order == 13,
        enumerate_ball(ex.free_group(2), 2).order == 17,
        enumerate_ball(ex.baumslag_solitar(1, 2), 6).order == 375,
        omega_from_obstructions(empty_set([1])) == full_sphere([1]),
        decide_text("B(4)").conclusion == INDEX_TWO,
        decide_text("Zmod(7)").conclusion == "Unknown",
    ]
    bad = [i for i, ok in enumerate(checks) if not ok]
    return not bad, ("all %d golden checks hold" % len(checks)) if not bad \
        else "golden checks failed at positions %s" % bad


def run_all() -> list[CheckResult]:
    return [fn() for fn in ALL_CRITERIA] + [golden_examples()]
