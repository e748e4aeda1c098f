"""Exact Reidemeister-number computation for finitely generated abelian groups.

Everything here runs on arbitrary-precision Python integers.  The Smith normal
form keeps track of the unimodular row/column transforms so callers can map
cokernel elements back to coordinates; pivoting always picks the smallest
nonzero entry in absolute value to contain coefficient growth.

For an automorphism ``phi`` of a finitely generated abelian group the number
of twisted conjugacy classes equals ``#Coker(1 - phi)``; the group is
presented as a lattice quotient and the cokernel read off the Smith form of
the stacked relation matrix.  A brute-force orbit counter over multiplication
tables of small finite groups serves as the independent cross-check.

A table is validated through one greedy generating set S: the least element
not yet reached becomes the next generator, and the reached set is closed
under right multiplication by the generators, so every element is a
left-normed product of S.  In a group each generator at least doubles the
span, so a table needing more than floor(log2 n) of them is not associative.
Light's test then checks (x g) z = x (g z) for g in S only, as one row gather
per (x, g): the g passing it are closed under products, so this proves the
whole table associative.  Homomorphisms are checked on pairs (x, g) and the
twisted orbits are joined along g in S, so every scan costs O(|S| n), with
|S| <= log2 n, instead of O(n^2) or O(n^3).
"""

from __future__ import annotations

import math
from itertools import chain
from operator import itemgetter
from typing import Sequence

from . import _Record
# matrix_rank is unused here but keeps its public name: `benchmark/tracer.py`
# counts the calls to it, from every module, as `abelian.rank`
from .linalg import det, matrix_rank
from .unionfind import UnionFind

INFINITE = math.inf

IntMatrix = list[list[int]]


class InvalidAutomorphism(ValueError):
    pass


class InvalidGroupTable(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer matrix helpers


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_sub(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


# ---------------------------------------------------------------------------
# Smith normal form


class SmithForm:
    __slots__ = ("u", "d", "v")

    def __init__(self, u: IntMatrix, d: IntMatrix, v: IntMatrix):
        self.u, self.d, self.v = u, d, v

    @property
    def diagonal(self) -> list[int]:
        return [self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0))]


def _min_abs_pivot(a: IntMatrix, start: int) -> tuple[int, int] | None:
    rows = len(a)
    cols = len(a[0]) if rows else 0
    best = None
    best_val = None
    for i in range(start, rows):
        for j in range(start, cols):
            x = abs(a[i][j])
            if x and (best_val is None or x < best_val):
                best, best_val = (i, j), x
                if x == 1:
                    return best
    return best


def smith_normal_form(m: Sequence[Sequence[int]]) -> SmithForm:
    """U * M * V = D with U, V unimodular and D = diag(d1 | d2 | ...), di >= 0."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(row) for row in m]
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def row_op(i, j, q):  # row_i -= q*row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q*col_j
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    k = 0
    while True:
        pos = _min_abs_pivot(a, k)
        if pos is None:
            break
        pi, pj = pos
        if pi != k:
            swap_rows(k, pi)
        if pj != k:
            swap_cols(k, pj)
        while True:
            # clear the pivot's row and column
            done = True
            for i in range(k + 1, rows):
                if a[i][k]:
                    q = a[i][k] // a[k][k]
                    row_op(i, k, q)
                    if a[i][k]:  # remainder became the smaller pivot
                        swap_rows(k, i)
                        done = False
            for j in range(k + 1, cols):
                if a[k][j]:
                    q = a[k][j] // a[k][k]
                    col_op(j, k, q)
                    if a[k][j]:
                        swap_cols(k, j)
                        done = False
            if done:
                break
        # divisibility: pivot must divide the remaining block
        fixup = False
        p = a[k][k]
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if a[i][j] % p:
                    row_op(k, i, -1)  # add row i to row k, then restart this pivot
                    fixup = True
                    break
            if fixup:
                break
        if fixup:
            continue
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]
        k += 1
        if k == min(rows, cols):
            break
    return SmithForm(u=u, d=a, v=v)


def abelian_group_from_matrix(m: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """Cokernel of the column span of ``m`` inside Z^rows: (free rank, invariant factors > 1)."""
    rows = len(m)
    snf = smith_normal_form(m)
    diag = [d for d in snf.diagonal if d != 0]
    free_rank = rows - len(diag)
    torsion = [d for d in diag if d > 1]
    return free_rank, torsion


# ---------------------------------------------------------------------------
# automorphisms of finitely generated abelian groups


def _ints(values, what: str) -> tuple[int, ...]:
    """values as a tuple of plain ints; bool, float and str entries, and
    anything but a list or tuple, are refused."""
    if not isinstance(values, (list, tuple)) or any(type(x) is not int for x in values):
        raise InvalidAutomorphism("%s must be a list of integers" % what)
    return tuple(values)


def _int_rows(rows, what: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(rows, (list, tuple)):
        raise InvalidAutomorphism("%s must be a list of rows" % what)
    return tuple(_ints(row, what + " rows") for row in rows)


class FGAbelianAutomorphism(_Record):
    """Automorphism of Z^k + Z/d1 + ... + Z/dt as a block matrix [[A,0],[M,T]].

    ``free_part`` A is k x k with det +-1, ``torsion_part`` T acts on the torsion
    generators mod the invariant factors, and ``mixing`` M records the torsion
    components of the images of the free generators (t rows, k columns).
    Construction validates the blocks and raises ``InvalidAutomorphism``.
    """

    __slots__ = ("free_rank", "free_part", "torsion_factors", "torsion_part", "mixing")

    @staticmethod
    def from_matrix(free_part: Sequence[Sequence[int]],
                    torsion_factors: Sequence[int] = (),
                    torsion_part: Sequence[Sequence[int]] | None = None,
                    mixing: Sequence[Sequence[int]] | None = None) -> "FGAbelianAutomorphism":
        free = _int_rows(free_part, "free part")
        factors = _ints(torsion_factors, "torsion factors")
        k, t = len(free), len(factors)
        if torsion_part is None:
            torsion_part = identity_matrix(t)
        if mixing is None:
            mixing = [[0] * k for _ in range(t)]
        return FGAbelianAutomorphism(
            free_rank=k,
            free_part=free,
            torsion_factors=factors,
            torsion_part=_int_rows(torsion_part, "torsion part"),
            mixing=_int_rows(mixing, "mixing block"),
        )

    def __init__(self, free_rank: int, free_part: tuple[tuple[int, ...], ...],
                 torsion_factors: tuple[int, ...] = (),
                 torsion_part: tuple[tuple[int, ...], ...] = (),
                 mixing: tuple[tuple[int, ...], ...] = ()):
        self._set(free_rank, free_part, torsion_factors, torsion_part, mixing)
        k, t = self.free_rank, len(self.torsion_factors)
        if len(self.free_part) != k or any(len(r) != k for r in self.free_part):
            raise InvalidAutomorphism("free part must be %d x %d" % (k, k))
        if any(d < 2 for d in self.torsion_factors):
            raise InvalidAutomorphism("torsion factors must be >= 2")
        if any(self.torsion_factors[i] % self.torsion_factors[i - 1] for i in range(1, t)):
            raise InvalidAutomorphism("torsion factors must form a divisibility chain")
        if len(self.torsion_part) != t or any(len(r) != t for r in self.torsion_part):
            raise InvalidAutomorphism("torsion part must be %d x %d" % (t, t))
        if len(self.mixing) != t or any(len(r) != k for r in self.mixing):
            raise InvalidAutomorphism("mixing block must be %d x %d" % (t, k))
        if k and abs(det(self.free_part)) != 1:
            raise InvalidAutomorphism("free part is not unimodular")
        # well-defined on the quotient: d_i * T column i must vanish mod the chain
        for i in range(t):
            di = self.torsion_factors[i]
            for j in range(t):
                if (di * self.torsion_part[j][i]) % self.torsion_factors[j]:
                    raise InvalidAutomorphism("torsion block does not respect the relation lattice")
        # invertibility on the torsion subgroup: columns of T plus the relation
        # lattice must generate Z^t (surjective endo of a finite group is bijective)
        if t:
            stacked = [[self.torsion_part[i][j] for j in range(t)]
                       + [self.torsion_factors[j] if i == j else 0 for j in range(t)]
                       for i in range(t)]
            if any(d != 1 for d in smith_normal_form(stacked).diagonal):
                raise InvalidAutomorphism("torsion part is not invertible mod the factors")

    def full_matrix(self) -> IntMatrix:
        k, t = self.free_rank, len(self.torsion_factors)
        n = k + t
        out = [[0] * n for _ in range(n)]
        for i in range(k):
            for j in range(k):
                out[i][j] = self.free_part[i][j]
        for i in range(t):
            for j in range(k):
                out[k + i][j] = self.mixing[i][j]
            for j in range(t):
                out[k + i][k + j] = self.torsion_part[i][j]
        return out


def reidemeister_number(phi: FGAbelianAutomorphism) -> int | float:
    """#Coker(1 - phi) on Z^k + torsion, or INFINITE when the cokernel is infinite."""
    k, t = phi.free_rank, len(phi.torsion_factors)
    n = k + t
    if n == 0:
        return 1
    one_minus = mat_sub(identity_matrix(n), phi.full_matrix())
    # columns: relation lattice of the torsion factors, then (1 - phi)
    cols = t + n
    stacked = [[0] * cols for _ in range(n)]
    for i in range(t):
        stacked[k + i][i] = phi.torsion_factors[i]
    for i in range(n):
        for j in range(n):
            stacked[i][t + j] = one_minus[i][j]
    diag = [d for d in smith_normal_form(stacked).diagonal if d != 0]
    if len(diag) < n:
        return INFINITE
    return math.prod(diag)


def fixed_subgroup_trivial(phi: FGAbelianAutomorphism) -> bool:
    """True iff 1 is not an eigenvalue of the free part (torsion-free automorphisms)."""
    if phi.torsion_factors:
        raise InvalidAutomorphism("fixed-subgroup test applies to the torsion-free case")
    one_minus = mat_sub(identity_matrix(phi.free_rank), [list(r) for r in phi.free_part])
    return det(one_minus) != 0


# ---------------------------------------------------------------------------
# finite groups given by multiplication tables


class FiniteGroupTable:
    """Finite group of order <= 512 as an n x n index table, table[i][j] = i*j.

    Validation also picks the greedy generating set ``generators``; every
    later scan of the table runs over it instead of over all n elements.
    """

    __slots__ = ("table", "identity", "inverse", "generators")

    MAX_ORDER = 512

    def __init__(self, table: tuple[tuple[int, ...], ...]):
        self.table = table
        self.__post_init__()  # validation: a method of its own, which benchmark/tracer.py times

    def __post_init__(self):
        try:
            table = self.table = tuple(map(tuple, self.table))
        except TypeError:
            raise InvalidGroupTable("table must be a sequence of rows") from None
        n = len(table)
        if n == 0 or n > self.MAX_ORDER:
            raise InvalidGroupTable("order must be between 1 and %d" % self.MAX_ORDER)
        if any(len(row) != n for row in table):
            raise InvalidGroupTable("table is not square")
        if set(map(type, chain.from_iterable(table))) != {int}:
            raise InvalidGroupTable("table entries must be integers")
        if not all(map(frozenset(range(n)).issuperset, table)):
            raise InvalidGroupTable("table entries out of range")
        # the identity's row and column both read 0, 1, ..., n - 1
        elements = tuple(range(n))
        ident = next((e for e, row in enumerate(table)
                      if row == elements and _column(table, e) == elements), None)
        if ident is None:
            raise InvalidGroupTable("no identity element")
        inv = []
        for x, row in enumerate(table):
            y = row.index(ident) if ident in row else None
            if y is None or table[y][x] != ident:
                # not a group: look for the least two-sided inverse anyway
                y = next((y for y in range(n)
                          if row[y] == ident and table[y][x] == ident), None)
                if y is None:
                    raise InvalidGroupTable("element %d has no inverse" % x)
            inv.append(y)
        gens = _greedy_generators(table, ident)
        if gens is None or not _light_associative(table, gens):
            raise InvalidGroupTable("table is not associative")
        self.identity = ident
        self.inverse = tuple(inv)
        self.generators = gens

    @property
    def order(self) -> int:
        return len(self.table)

    def is_abelian(self) -> bool:
        t, gens = self.table, self.generators
        return all(t[a][b] == t[b][a] for i, a in enumerate(gens) for b in gens[i + 1:])

    def center(self) -> list[int]:
        t = self.table
        pairs = [(t[g], _column(t, g)) for g in self.generators]
        return [z for z in range(self.order) if all(row[z] == col[z] for row, col in pairs)]

    def check_automorphism(self, perm: Sequence[int]) -> None:
        n = self.order
        try:
            perm = tuple(perm)
        except TypeError:
            raise InvalidGroupTable("map is not a sequence") from None
        if set(map(type, perm)) - {int}:
            raise InvalidGroupTable("map entries must be integers")
        if sorted(perm) != list(range(n)):
            raise InvalidGroupTable("map is not a permutation")
        defect = _hom_defect(self, self, perm)
        if defect is not None:
            raise InvalidGroupTable("map is not a homomorphism at (%d, %d)" % defect)


def _column(table: tuple[tuple[int, ...], ...], g: int) -> tuple[int, ...]:
    """(x * g for every x)."""
    return tuple(map(itemgetter(g), table))


def _greedy_generators(table: tuple[tuple[int, ...], ...],
                       ident: int) -> tuple[int, ...] | None:
    """Take the least element not yet reached as the next generator and close
    the reached set under right multiplication by the generators so far, so
    every element is a left-normed product of them.  In a group the reached
    set is the subgroup generated and each new generator at least doubles it;
    None when more than floor(log2 n) generators are needed, which shows the
    table is not associative."""
    n = len(table)
    limit = n.bit_length() - 1
    reached = [False] * n
    reached[ident] = True
    span = [ident]
    gens: list[int] = []
    for g in range(n):
        if reached[g]:
            continue
        if len(gens) == limit:
            return None
        gens.append(g)
        # elements reached before g are closed under the earlier generators
        old = len(span)
        i = 0
        while i < len(span):
            row = table[span[i]]
            for s in (gens if i >= old else (g,)):
                y = row[s]
                if not reached[y]:
                    reached[y] = True
                    span.append(y)
            i += 1
    return tuple(gens)


def _light_associative(table: tuple[tuple[int, ...], ...], gens: Sequence[int]) -> bool:
    """Light's test: (x g) z = x (g z) for g in ``gens`` and all x, z.  The
    elements g passing it are closed under products, so when every element is
    a left-normed product of ``gens`` the whole table is associative."""
    for g in gens:
        gather = itemgetter(*table[g])
        if any(table[row[g]] != gather(row) for row in table):
            return False
    return True


def _hom_defect(src: FiniteGroupTable, dst: FiniteGroupTable,
                f: Sequence[int]) -> tuple[int, int] | None:
    """The first (x, g), g a generator of ``src``, with f(x g) != f(x) f(g),
    or None.  None proves f a homomorphism: every element of ``src`` is a
    left-normed product of its generators."""
    for g in src.generators:
        lhs = itemgetter(*_column(src.table, g))(f)
        rhs = itemgetter(*f[:src.order])(_column(dst.table, f[g]))
        if lhs != rhs:
            return next(x for x in range(src.order) if lhs[x] != rhs[x]), g
    return None


def brute_force_twisted_classes(group: FiniteGroupTable,
                                automorphism: Sequence[int]) -> tuple[int, list[int]]:
    """Orbit count of the twisted action sigma . alpha = sigma * alpha * phi(sigma)^-1.

    The orbits are joined along the generators only.  Returns the count and
    the least-index representative of every class.
    """
    group.check_automorphism(automorphism)
    n = group.order
    uf = UnionFind(n)
    t = group.table
    for g in group.generators:
        # alpha -> g * alpha * phi(g)^-1 for every alpha
        image = itemgetter(*t[g])(_column(t, group.inverse[automorphism[g]]))
        for alpha in range(n):
            uf.union(alpha, image[alpha])
    reps, seen = [], set()
    for alpha in range(n):
        root = uf.find(alpha)
        if root not in seen:
            seen.add(root)
            reps.append(alpha)
    return uf.components, reps


class CentralExtensionReport:
    __slots__ = ("valid", "problems", "r_sub", "r_total", "r_quot")

    def __init__(self, valid: bool, problems: list[str], r_sub: int | None = None,
                 r_total: int | None = None, r_quot: int | None = None):
        self.valid, self.problems = valid, problems
        self.r_sub, self.r_total, self.r_quot = r_sub, r_total, r_quot

    @property
    def product_holds(self) -> bool:
        return (self.valid and self.r_sub is not None
                and self.r_total == self.r_sub * self.r_quot)


def verify_central_extension(sub: FiniteGroupTable, total: FiniteGroupTable,
                             quot: FiniteGroupTable,
                             inclusion: Sequence[int], projection: Sequence[int],
                             phi_sub: Sequence[int], phi_total: Sequence[int],
                             phi_quot: Sequence[int]) -> CentralExtensionReport:
    """Check 1 -> A -> B -> C -> 1 central with commuting automorphisms, then
    compute all three twisted-class counts by brute force and compare
    R(phi_total) with R(phi_sub) * R(phi_quot)."""
    problems: list[str] = []
    na, nb, nc = sub.order, total.order, quot.order
    if sorted(set(inclusion)) != sorted(inclusion) or len(inclusion) != na:
        problems.append("inclusion is not injective on A")
    if set(projection) != set(range(nc)) or len(projection) != nb:
        problems.append("projection is not surjective onto C")
    # the checks below index the tables through the maps; a negative entry
    # would wrap around silently, so it is refused with the too-large ones
    in_range = True
    if not all(0 <= b < nb for b in inclusion):
        problems.append("inclusion has entries outside range(%d)" % nb)
        in_range = False
    if not all(0 <= c < nc for c in projection):
        problems.append("projection has entries outside range(%d)" % nc)
        in_range = False
    if not in_range or len(inclusion) < na or len(projection) < nb:
        return CentralExtensionReport(valid=False, problems=problems)
    if _hom_defect(sub, total, inclusion) is not None:
        problems.append("inclusion is not a homomorphism")
    if _hom_defect(total, quot, projection) is not None:
        problems.append("projection is not a homomorphism")
    image = set(inclusion)
    kernel = {b for b in range(nb) if projection[b] == quot.identity}
    if image != kernel:
        problems.append("image of A differs from kernel of the projection")
    centre = set(total.center())
    if not image <= centre:
        problems.append("A is not central in B")
    try:
        sub.check_automorphism(phi_sub)
        total.check_automorphism(phi_total)
        quot.check_automorphism(phi_quot)
    except InvalidGroupTable as exc:
        problems.append(str(exc))
    if not problems:
        for x in range(na):
            if phi_total[inclusion[x]] != inclusion[phi_sub[x]]:
                problems.append("automorphisms do not commute with the inclusion")
                break
        for b in range(nb):
            if phi_quot[projection[b]] != projection[phi_total[b]]:
                problems.append("automorphisms do not commute with the projection")
                break
    if problems:
        return CentralExtensionReport(valid=False, problems=problems)
    r_sub, _ = brute_force_twisted_classes(sub, phi_sub)
    r_total, _ = brute_force_twisted_classes(total, phi_total)
    r_quot, _ = brute_force_twisted_classes(quot, phi_quot)
    return CentralExtensionReport(valid=True, problems=[],
                                  r_sub=r_sub, r_total=r_total, r_quot=r_quot)


# ---------------------------------------------------------------------------
# small table constructors (used by tests and the extension checker)


def cyclic_table(n: int) -> FiniteGroupTable:
    return FiniteGroupTable(tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))


def direct_product_table(a: FiniteGroupTable, b: FiniteGroupTable) -> FiniteGroupTable:
    na, nb = a.order, b.order

    def idx(x, y):
        return x * nb + y

    table = [[0] * (na * nb) for _ in range(na * nb)]
    for x1 in range(na):
        for y1 in range(nb):
            for x2 in range(na):
                for y2 in range(nb):
                    table[idx(x1, y1)][idx(x2, y2)] = idx(a.table[x1][x2], b.table[y1][y2])
    return FiniteGroupTable(tuple(tuple(row) for row in table))
