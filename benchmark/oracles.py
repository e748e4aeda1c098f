"""Answers computed apart from groupinv, and properties its answers must have.

Nothing here imports groupinv: every check compares the program's output with
a closed form, a hand table or exact arithmetic written out below.  Each check
returns None when the answer passes and a one-line reason when it does not.
"""

from __future__ import annotations

import math
from fractions import Fraction

INFINITE = math.inf

RINFINITY = "RInfinity"
INDEX_TWO = "IndexTwoSubgroupAllRInf"
CONCLUSIONS = {RINFINITY, INDEX_TWO, "FiniteIndexSubgroupAllRInf", "ReidemeisterValue", "Unknown"}

# rank of Hom(G, R) for each catalog atom kind, by hand
HAND_HOM_RANK = {
    "Z": lambda p: p, "F": lambda p: p, "T": lambda p: p, "Thompson": lambda p: 2,
    "BS": lambda p: 1, "Klein": lambda p: 1, "B": lambda p: 1, "L": lambda p: 1,
    "Zmod": lambda p: 0,
}


# ---------------------------------------------------------------------------
# group expressions as the benchmark builds them: ("atom", kind, param) or
# (op, [children]) with op "x" (direct) or "*" (free)


def render(node) -> str:
    if node[0] == "atom":
        _, kind, p = node
        if kind == "Z":
            return "Z" if p == 1 else "Z^%d" % p
        if kind in ("Klein", "Thompson"):
            return kind
        if kind == "BS":
            return "BS(1,%d)" % p
        return "%s(%d)" % (kind, p)
    op, kids = node
    return (" %s " % op).join(
        render(k) if k[0] == "atom" else "(%s)" % render(k) for k in kids)


def atoms_of(node):
    if node[0] == "atom":
        yield node
    else:
        for k in node[1]:
            yield from atoms_of(k)


def hand_hom_rank(node) -> int:
    return sum(HAND_HOM_RANK[kind](p) for _, kind, p in atoms_of(node))


def free_abelian_by_finite(node) -> bool:
    """Direct products of Z^k and Zmod atoms only: -1 on the free part has a
    finite Reidemeister number, so such a group never has R-infinity."""
    if node[0] == "atom":
        return node[1] in ("Z", "Zmod")
    return node[0] == "x" and all(free_abelian_by_finite(k) for k in node[1])


def check_trace(doc: dict) -> str | None:
    if doc.get("conclusion") not in CONCLUSIONS:
        return "unknown conclusion %r" % doc.get("conclusion")
    seen = set()
    for step in doc.get("trace", []):
        missing = [p for p in step["premises"] if p not in seen]
        if missing:
            return "step %s cites %s before it exists" % (step["id"], missing)
        seen.add(step["id"])
    return None


def check_verdict(node, doc: dict, expected: str | None = None,
                  final_rule: str | None = None) -> str | None:
    """A rinf answer: trace well-formed, no R-infinity for Z^k x finite
    abelian, and the paper's examples where the op names them."""
    problem = check_trace(doc)
    if problem:
        return problem
    conclusion = doc["conclusion"]
    if free_abelian_by_finite(node) and conclusion == RINFINITY:
        return "%s is free abelian by finite yet RInfinity" % render(node)
    if expected is not None and conclusion != expected:
        return "%s gave %s, expected %s" % (render(node), conclusion, expected)
    if final_rule is not None and (not doc["trace"] or doc["trace"][-1]["rule"] != final_rule):
        return "%s not concluded by %s" % (render(node), final_rule)
    return None


def survivor_points(omega: dict) -> list[tuple[int, ...]] | None:
    """Embedded points of a finite surviving-direction set in its JSON form,
    or None when some join atom is not a single finite point block."""
    ambient = omega["ambient"]
    starts = [sum(ambient[:i]) for i in range(len(ambient))]
    dim = sum(ambient)
    points = set()
    for atom in omega["atoms"]:
        live = [(i, part) for i, part in enumerate(atom) if part != "empty"]
        if len(live) != 1 or not isinstance(live[0][1], dict) or "points" not in live[0][1]:
            return None
        i, part = live[0]
        for p in part["points"]:
            vec = [0] * dim
            vec[starts[i]:starts[i] + len(p)] = p
            points.add(tuple(vec))
    return sorted(points)


def check_invariants(node, doc: dict) -> str | None:
    """An invariants answer: hom-rank by the hand table, and every finite
    surviving-direction set is one point or an antipodal pair."""
    if doc["hom_rank"] != hand_hom_rank(node):
        return "%s: hom_rank %s, hand table %d" % (render(node), doc["hom_rank"], hand_hom_rank(node))
    card = doc.get("omega_cardinality")
    if doc.get("omega") is None or card in (None, "infinite", "0"):
        return None
    points = survivor_points(doc["omega"])
    if points is None or str(len(points)) != card:
        return "%s: omega cardinality %s does not match its points" % (render(node), card)
    if len(points) == 1:
        return None
    if len(points) == 2 and points[0] == tuple(-x for x in points[1]):
        return None
    return "%s: finite survivor set %s is not a point or an antipodal pair" % (render(node), points)


# ---------------------------------------------------------------------------
# Cayley balls and the literature table for the probe


def ball_order(kind: str, k: int, r: int) -> int | None:
    if kind == "Z":
        return sum(2 ** j * math.comb(k, j) * math.comb(r, j) for j in range(min(k, r) + 1))
    if kind == "F":
        return 1 + k * ((2 * k - 1) ** r - 1) // (k - 1)
    return None


def literature_survives(kind: str, direction: tuple[int, ...]) -> bool:
    """Every direction survives for Z^k and Klein, none for F(n), and only
    the +1 end for BS(1,n)."""
    if kind in ("Z", "Klein"):
        return True
    if kind == "F":
        return False
    if kind == "BS":
        return direction == (1,)
    raise ValueError(kind)


def check_probe_evidence(kind: str, direction, evidence: str) -> str | None:
    survives = literature_survives(kind, tuple(direction))
    if survives and evidence == "SupportsNonMembership":
        return "%s %s: evidence against a surviving direction" % (kind, tuple(direction))
    if not survives and evidence == "SupportsMembership":
        return "%s %s: evidence for an obstructed direction" % (kind, tuple(direction))
    if evidence not in ("SupportsMembership", "SupportsNonMembership", "Inconclusive"):
        return "unknown evidence %r" % evidence
    return None


def check_ball(kind: str, k: int, r: int, order: int, edges: int) -> str | None:
    want = ball_order(kind, k, r)
    if want is not None and order != want:
        return "%s%d ball of radius %d has %d vertices, closed form %d" % (kind, k, r, order, want)
    if kind == "F" and edges != order - 1:
        return "F(%d) ball of radius %d has %d edges, a tree has %d" % (k, r, edges, order - 1)
    return None


# ---------------------------------------------------------------------------
# Reidemeister numbers


def fraction_det(m) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return out


def block_reidemeister(free_part, factors, units) -> int | float:
    """R of A + diag(u_i) on Z^k + (+) Z/d_i: |det(1 - A)| * prod gcd(u_i - 1, d_i),
    infinite when det(1 - A) = 0."""
    k = len(free_part)
    one_minus = [[(1 if i == j else 0) - free_part[i][j] for j in range(k)] for i in range(k)]
    d = abs(fraction_det(one_minus)) if k else Fraction(1)
    if d == 0:
        return INFINITE
    return int(d) * math.prod(math.gcd(u - 1, n) for u, n in zip(units, factors))


def cyclic_classes(n: int, u: int) -> int:
    """Twisted classes of x -> ux on Z/n."""
    return math.gcd(u - 1, n)


def dihedral_classes(m: int) -> int:
    """Conjugacy classes of the dihedral group of order 2m."""
    return (m + 3) // 2 if m % 2 else m // 2 + 3


def cyclic_table(n: int):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def dihedral_table(m: int):
    """Index s*m + r stands for r^r s^s, with s r s = r^-1."""
    out = [[0] * (2 * m) for _ in range(2 * m)]
    for s1 in range(2):
        for r1 in range(m):
            row = out[s1 * m + r1]
            for s2 in range(2):
                for r2 in range(m):
                    row[s2 * m + r2] = ((s1 + s2) % 2) * m + (r1 + (-r2 if s1 else r2)) % m
    return out


def product_table(a, b):
    nb = len(b)
    return [[a[x1][x2] * nb + b[y1][y2] for x2 in range(len(a)) for y2 in range(nb)]
            for x1 in range(len(a)) for y1 in range(nb)]


def product_perm(pa, pb):
    nb = len(pb)
    return [pa[x] * nb + pb[y] for x in range(len(pa)) for y in range(nb)]


def check_table_answer(expected: int, doc: dict) -> str | None:
    count, reps = doc["reidemeister"], doc["representatives"]
    if count != expected:
        return "table count %s, expected %d" % (count, expected)
    if len(reps) != count or reps != sorted(set(reps)) or reps[0] != 0:
        return "representatives %s do not match count %d" % (reps[:8], count)
    return None
