"""Exact Reidemeister-number computation for finitely generated abelian groups.

Everything here runs on arbitrary-precision Python integers.  For an
automorphism ``phi`` of Z^k + T, T the torsion subgroup, the number of twisted
conjugacy classes is ``#Coker(1 - phi)``.  phi maps T into itself, so the
snake lemma on 0 -> T -> G -> Z^k -> 0 reads it as |det(1 - A)| *
#Coker(1 - phi|T), A the free part, or infinite when det(1 - A) = 0; the
finite factor equals #Fix(phi|T).  The determinant is the Bareiss one of
``linalg``, and the torsion factor comes from a diagonalization reduced
modulo the exponent of T, so no entry grows.  The same reduction checks that
the torsion part is invertible.

The Smith normal form with its unimodular transforms stays as the oracle
that the tests and ``selfcheck`` compare against; pivoting always picks the
smallest nonzero entry in absolute value.  A brute-force orbit counter over
multiplication tables of small finite groups is the independent cross-check
on finite groups.  The oracles that no command runs (the cokernel of a
matrix, the central-extension checker and the small table constructors) live
in ``selfcheck``.

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

No scan checks that the entries lie in range(n); the identity and Light's
test prove it.  The identity's row is exactly 0, ..., n - 1, so Light's test
at that row matches row g only if every entry of row g is in range: a
negative index would wrap to another value, and a larger one raises
IndexError.  At a row x in range the test gives row(x g) = row x o row g, so
being in range passes from x to x g, and along the span to every row.  With
the identity and associativity proven, only the generators' rows are
searched for inverses; every other inverse follows along the span as
(x g)^-1 = g^-1 x^-1.  A table that fails any check is refused in a fixed
order: entries out of range, no identity, the least element with no
two-sided inverse, non-associativity.  So only refused tables pay for the
range scan.
"""

from __future__ import annotations

import math
from operator import countOf, itemgetter
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


# ---------------------------------------------------------------------------
# cokernel orders on a finite abelian group


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, u) with s*a + u*b = g = gcd(a, b), for a, b >= 0."""
    s0, s1, u0, u1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        u0, u1 = u1, u0 - q * u1
    return a, s0, u0


def _clear_below(a: IntMatrix, k: int, e: int) -> None:
    """Zero column k below the pivot a[k][k] by unimodular row operations mod
    e.  A row whose entry the pivot divides loses a multiple of row k; any
    other is combined with row k by an extended gcd, which replaces the pivot
    by a proper divisor and may refill row k."""
    top = a[k]
    for i in range(k + 1, len(a)):
        row, p, b = a[i], top[k], a[i][k]
        if not b:
            continue
        if b % p == 0:
            q = b // p
            a[i] = [(y - q * x) % e for x, y in zip(top, row)]
        else:
            g, s, u = _xgcd(p, b)
            p, b = p // g, b // g
            top, a[i] = ([(s * x + u * y) % e for x, y in zip(top, row)],
                         [(b * x - p * y) % e for x, y in zip(top, row)])
    a[k] = top


def _torsion_coker_order(m: Sequence[Sequence[int]], factors: Sequence[int]) -> int:
    """#(Z^t / L) for L spanned by the columns of the t x t matrix ``m`` and
    the relation lattice d_1 Z + ... + d_t Z of the chain ``factors``.

    L contains e Z^t for the exponent e = d_t, so ``[m | diag(d)]`` is
    diagonalized over Z/e (Domich-Kannan-Trotter): every entry stays in
    range(e), and each unimodular step, on columns (new generators of L) or
    on rows (a new basis of Z^t), keeps the order.  A pivot p leaves
    Z/gcd(p, e) and a missing one Z/e.  Only the order is read, so the
    pivots need not divide each other."""
    t = len(factors)
    if not t:
        return 1
    e = factors[-1]
    a = [[x % e for x in row] + [d % e if i == j else 0 for j, d in enumerate(factors)]
         for i, row in enumerate(m)]
    order = 1
    for k in range(t):
        pivot = next(((i, j) for i in range(k, len(a)) for j in range(k, len(a[0]))
                      if a[i][j]), None)
        if pivot is None:
            return order * e ** (t - k)
        i, j = pivot
        a[k], a[i] = a[i], a[k]
        for row in a:
            row[k], row[j] = row[j], row[k]
        # clear column k, then row k as the column of the transpose, until
        # both are clear; each pass that refills the other line shrinks the pivot
        while True:
            _clear_below(a, k, e)
            a = [list(col) for col in zip(*a)]
            if not any(row[k] for row in a[k + 1:]):
                break
        order *= math.gcd(a[k][k], e)
    return order


# ---------------------------------------------------------------------------
# automorphisms of finitely generated abelian groups


def _ints(values, what: str) -> tuple[int, ...]:
    """values as a tuple of plain ints; bool, float and str entries, and
    anything but a list or tuple, are refused."""
    if not isinstance(values, (list, tuple)) or countOf(map(type, values), int) != len(values):
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
        if _torsion_coker_order(self.torsion_part, self.torsion_factors) != 1:
            raise InvalidAutomorphism("torsion part is not invertible mod the factors")


def reidemeister_number(phi: FGAbelianAutomorphism) -> int | float:
    """#Coker(1 - phi) on Z^k + torsion, or INFINITE when the cokernel is infinite.

    phi maps the torsion subgroup T into itself, so the snake lemma on
    0 -> T -> G -> Z^k -> 0 gives INFINITE when det(1 - A) = 0 and
    |det(1 - A)| * #Coker(1 - phi|T) otherwise; the mixing block does not
    enter."""
    k, t = phi.free_rank, len(phi.torsion_factors)
    free = det(mat_sub(identity_matrix(k), phi.free_part))
    if free == 0:
        return INFINITE
    return abs(free) * _torsion_coker_order(mat_sub(identity_matrix(t), phi.torsion_part),
                                            phi.torsion_factors)


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
        if not all(countOf(map(type, row), int) == n for row in table):
            raise InvalidGroupTable("table entries must be integers")
        # the identity's row and column both read 0, 1, ..., n - 1.  No range
        # scan runs: the identity's row and Light's test prove every entry in
        # range, and an index out of range raises IndexError on the way
        elements = tuple(range(n))
        ident = next((e for e, row in enumerate(table)
                      if row == elements and _column(table, e) == elements), None)
        try:
            gens = None if ident is None else _greedy_generators(table, ident)
            proven = gens is not None and _light_associative(table, gens)
        except IndexError:
            proven = False
        inv = _span_inverses(table, ident, gens) if proven else None
        if inv is None:
            raise _refusal(table, ident)
        self.identity = ident
        self.inverse = inv
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


def _span_inverses(table: tuple[tuple[int, ...], ...], ident: int,
                   gens: Sequence[int]) -> tuple[int, ...] | None:
    """Every inverse of an associative table with identity ``ident`` that
    ``gens`` span, or None when a generator has no two-sided inverse.  Only
    the generators' rows are searched; along the span (x g)^-1 = g^-1 x^-1."""
    pairs = []
    for g in gens:
        try:
            h = table[g].index(ident)
        except ValueError:
            return None
        if table[h][g] != ident:
            return None
        pairs.append((g, table[h]))
    # a missing inverse marks an element the walk has not reached yet
    inv: list = [None] * len(table)
    inv[ident] = ident
    span = [ident]
    for x in span:
        row, x_inv = table[x], inv[x]
        for g, g_inv_row in pairs:
            y = row[g]
            if inv[y] is None:
                inv[y] = g_inv_row[x_inv]
                span.append(y)
    return tuple(inv)


def _refusal(table: tuple[tuple[int, ...], ...], ident: int | None) -> InvalidGroupTable:
    """Why a square int table that failed a check is not a group: entries
    out of range, then no identity, then the least element with no two-sided
    inverse, else non-associativity."""
    n = len(table)
    if not all(map(frozenset(range(n)).issuperset, table)):
        return InvalidGroupTable("table entries out of range")
    if ident is None:
        return InvalidGroupTable("no identity element")
    for x, row in enumerate(table):
        if not any(table[y][x] == ident for y, z in enumerate(row) if z == ident):
            return InvalidGroupTable("element %d has no inverse" % x)
    return InvalidGroupTable("table is not associative")


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
