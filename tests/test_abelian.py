"""Smith normal form, Reidemeister numbers of f.g. abelian groups, and the
brute-force twisted-class counter, cross-checked against independent oracles
(sympy's Smith form, Bareiss determinants, mod-n orbit enumeration)."""

from __future__ import annotations

import itertools
import math
import random
import time

import pytest

from groupinv import abelian
from groupinv.abelian import (
    FGAbelianAutomorphism,
    FiniteGroupTable,
    INFINITE,
    InvalidAutomorphism,
    InvalidGroupTable,
    brute_force_twisted_classes,
    det,
    identity_matrix,
    mat_sub,
    matrix_rank,
    reidemeister_number,
    smith_normal_form,
    _greedy_generators,
)
from groupinv.expressions import finite_table
from groupinv.selfcheck import (
    abelian_group_from_matrix,
    cyclic_table,
    direct_product_table,
    verify_central_extension,
)
from groupinv.unionfind import UnionFind


def random_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def random_unimodular(rng, k, ops=12, cap=40):
    """Product of elementary row operations applied to the identity."""
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


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def assert_snf_postconditions(m):
    snf = smith_normal_form(m)
    rows, cols = len(m), len(m[0]) if m else 0
    assert abs(det(snf.u)) == 1
    assert abs(det(snf.v)) == 1
    assert mat_mul(mat_mul(snf.u, m), snf.v) == snf.d
    diag = snf.diagonal
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert snf.d[i][j] == 0
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # zero divisors come after the nonzero ones
    seen_zero = False
    for d in diag:
        if d == 0:
            seen_zero = True
        else:
            assert not seen_zero
    return snf


def test_snf_examples():
    snf = assert_snf_postconditions([[2, 0], [0, 3]])
    assert snf.diagonal == [1, 6]
    assert assert_snf_postconditions(identity_matrix(3)).diagonal == [1, 1, 1]
    assert assert_snf_postconditions([[0]]).diagonal == [0]
    assert assert_snf_postconditions([]).diagonal == []


def test_snf_random_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(20240)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = random_matrix(rng, rows, cols)
        snf = assert_snf_postconditions(m)
        expected = sympy_snf(sympy.Matrix(m))
        exp_diag = [abs(int(expected[i, i])) for i in range(min(rows, cols))]
        # sympy may order zero divisors differently; compare multisets of nonzeros + count
        assert sorted(d for d in snf.diagonal if d) == sorted(d for d in exp_diag if d)


def test_rank_and_det_consistency():
    rng = random.Random(7)
    for _ in range(40):
        k = rng.randint(1, 4)
        m = random_matrix(rng, k, k, 4)
        d = det(m)
        assert (matrix_rank(m) == k) == (d != 0)
        snf = smith_normal_form(m)
        assert abs(d) == math.prod(snf.diagonal)


def test_rank_and_det_against_sympy():
    # square, non-square and singular matrices up to 20 x 20; a singular one
    # repeats a random combination of its other rows
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(20261)
    for _ in range(150):
        rows = rng.randint(1, 20)
        cols = rows if rng.random() < 0.5 else rng.randint(1, 20)
        m = random_matrix(rng, rows, cols, 3)
        if rows > 1 and rng.random() < 0.4:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            other = m[rng.randrange(rows - 1)]
            m[-1] = [a * x + b * y for x, y in zip(m[0], other)]
        expected = DomainMatrix.from_Matrix(sympy.Matrix(m))
        assert matrix_rank(m) == expected.rank(), m
        if rows == cols:
            assert det(m) == expected.det(), m
    assert det([]) == 1 and matrix_rank([]) == 0 and matrix_rank([[0, 0], [0, 0]]) == 0


def test_rank_keeps_its_entries_small():
    # elimination without division grows the entries of a 20 x 20 matrix to
    # about 720,000 bits; Bareiss keeps them minors of the input
    rng = random.Random(3)
    m = random_matrix(rng, 20, 20, 3)
    start = time.perf_counter()
    rank = matrix_rank(m)
    assert time.perf_counter() - start < 0.05
    assert rank == 20 and det(m) != 0


def test_abelianization_from_matrix():
    # cokernel of column span: diag(2,3) in Z^2 -> Z/6
    assert abelian_group_from_matrix([[2, 0], [0, 3]]) == (0, [6])
    assert abelian_group_from_matrix([[0], [0]]) == (2, [])


# ---------------------------------------------------------------------------
# Reidemeister numbers


def fix_is_trivial(m):
    """Fix(phi) = ker(1 - A) is {0} exactly when the Smith diagonal of 1 - A
    has no zero: an elimination that never reads the determinant."""
    return all(smith_normal_form(mat_sub(identity_matrix(len(m)), m)).diagonal)


def test_reidemeister_on_Z():
    minus_one = FGAbelianAutomorphism.from_matrix([[-1]])
    plus_one = FGAbelianAutomorphism.from_matrix([[1]])
    assert reidemeister_number(minus_one) == 2
    assert reidemeister_number(plus_one) == INFINITE
    assert fix_is_trivial([[-1]])
    assert not fix_is_trivial([[1]])


def test_reidemeister_rank2_example():
    phi = FGAbelianAutomorphism.from_matrix([[2, 1], [1, 1]])
    assert reidemeister_number(phi) == 1
    # cross-check on (Z/N)^2 for N coprime to det(1 - phi) = -1
    for n in (5, 7):
        assert mod_n_orbit_count([[2, 1], [1, 1]], n) == 1


def test_swap_has_fixed_vectors():
    swap = FGAbelianAutomorphism.from_matrix([[0, 1], [1, 0]])
    assert not fix_is_trivial([[0, 1], [1, 0]])
    assert reidemeister_number(swap) == INFINITE


def test_non_unimodular_rejected():
    with pytest.raises(InvalidAutomorphism):
        FGAbelianAutomorphism.from_matrix([[2]])


def test_direct_construction_is_validated():
    # the constructor checks what from_matrix checks, so no invalid
    # automorphism reaches reidemeister_number
    with pytest.raises(InvalidAutomorphism, match="not unimodular"):
        FGAbelianAutomorphism(free_rank=1, free_part=((2,),))
    with pytest.raises(InvalidAutomorphism, match="not invertible"):
        FGAbelianAutomorphism(free_rank=0, free_part=(), torsion_factors=(4,),
                              torsion_part=((2,),), mixing=((),))


def test_mixed_torsion_automorphism():
    # Z + Z/2, phi = (-1 on Z) x (id on Z/2): R = |coker(2 on Z)| * |Z/2| = 4
    phi = FGAbelianAutomorphism.from_matrix([[-1]], torsion_factors=[2])
    assert reidemeister_number(phi) == 4
    # identity on Z + Z/3 is infinite
    phi = FGAbelianAutomorphism.from_matrix([[1]], torsion_factors=[3])
    assert reidemeister_number(phi) == INFINITE
    # pure torsion: x -> 2x on Z/5, coker(1-2) = Z/5 / (-1)Z/5 trivial
    phi = FGAbelianAutomorphism.from_matrix([], torsion_factors=[5], torsion_part=[[2]])
    assert reidemeister_number(phi) == 1


def test_torsion_validation():
    with pytest.raises(InvalidAutomorphism):
        # x -> 2x is not invertible on Z/4
        FGAbelianAutomorphism.from_matrix([], torsion_factors=[4], torsion_part=[[2]])
    with pytest.raises(InvalidAutomorphism):
        FGAbelianAutomorphism.from_matrix([], torsion_factors=[3, 2], torsion_part=[[1, 0], [0, 1]])


def mod_n_orbit_count(m, n):
    """Orbits of alpha -> alpha + (1-m)sigma on (Z/n)^k: independent of the SNF path."""
    k = len(m)
    one_minus = mat_sub(identity_matrix(k), m)
    size = n ** k

    def encode(vec):
        code = 0
        for x in vec:
            code = code * n + (x % n)
        return code

    uf = UnionFind(size)
    gens = [[one_minus[i][j] for i in range(k)] for j in range(k)]  # images of basis vectors
    for code in range(size):
        vec = []
        c = code
        for _ in range(k):
            vec.append(c % n)
            c //= n
        vec.reverse()
        for g in gens:
            uf.union(code, encode([a + b for a, b in zip(vec, g)]))
    return uf.components


def test_lemma_equivalence_random_unimodular():
    """Fix phi = {1} iff R(phi) finite; finite values match |det(1-phi)| and
    the mod-n orbit enumeration (n = |det|, valid because n*Z^k lies in the image lattice)."""
    rng = random.Random(991)
    checked_orbits = 0
    for _ in range(300):
        k = rng.randint(1, 4)
        m = random_unimodular(rng, k)
        phi = FGAbelianAutomorphism.from_matrix(m)
        r = reidemeister_number(phi)
        assert fix_is_trivial(m) == (r != INFINITE)
        if r != INFINITE:
            d = abs(det(mat_sub(identity_matrix(k), m)))
            assert r == d
            if k <= 3 and 1 <= d <= 12:
                assert mod_n_orbit_count(m, d) == r
                checked_orbits += 1
    assert checked_orbits >= 20


# the Smith form of the stacked relation matrix let its entries grow without
# bound on these: R(phi) for P + Z/2 did not finish in 30 s, R(phi^5) for A
# not in 20 s, nor R(phi^7) for Q + Z/3 + Z/6
_P = [[19293, 4795, -7279, 1113], [10445, 2597, -3940, 601],
      [-14816, -3682, 5590, -855], [2053, 512, -774, 117]]
_A = [[3, -1, 1, 1, 0], [0, 0, 0, 0, 1], [4, -1, 1, 2, 0], [10, -3, 3, 3, 0],
      [0, -1, 0, 1, 0]]
_Q = [[1, 0, -1, 0, 0, 0], [2, 1, -2, 0, 0, 0], [-2, -1, 3, 0, 0, 0],
      [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, -1, 0], [0, 0, 0, 1, 0, 0]]


def mat_pow(m, n):
    out = m
    for _ in range(n - 1):
        out = mat_mul(out, m)
    return out


def timed_reidemeister(phi):
    """R(phi) and the least wall time of three calls."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        r = reidemeister_number(phi)
        times.append(time.perf_counter() - start)
    return r, min(times)


def test_growth_cases_answer_within_10_ms():
    r, seconds = timed_reidemeister(FGAbelianAutomorphism.from_matrix(_P, [2]))
    assert r == 124002 and seconds <= 0.01
    r, seconds = timed_reidemeister(FGAbelianAutomorphism.from_matrix(mat_pow(_A, 5)))
    assert r == 18100 and seconds <= 0.01
    for n in range(1, 9):
        phi = FGAbelianAutomorphism.from_matrix(mat_pow(_Q, n), [3, 6], identity_matrix(2))
        r, seconds = timed_reidemeister(phi)
        assert r == INFINITE and seconds <= 0.01, n


def full_matrix(phi):
    """phi as one (k + t) x (k + t) block matrix [[A, 0], [M, T]]."""
    return ([list(row) + [0] * len(phi.torsion_factors) for row in phi.free_part]
            + [list(m) + list(t) for m, t in zip(phi.mixing, phi.torsion_part)])


def smith_reidemeister(phi):
    """#Coker(1 - phi) read off the Smith form of [relations | 1 - phi] on Z^(k+t)."""
    k, t = phi.free_rank, len(phi.torsion_factors)
    n = k + t
    one_minus = mat_sub(identity_matrix(n), full_matrix(phi))
    stacked = [[phi.torsion_factors[j] if i == k + j else 0 for j in range(t)] + one_minus[i]
               for i in range(n)]
    diag = [d for d in smith_normal_form(stacked).diagonal if d]
    return math.prod(diag) if len(diag) == n else INFINITE


CHAINS = ([2], [3], [4], [5], [6], [2, 2], [2, 4], [2, 6], [4, 4], [3, 9], [6, 12],
          [2, 2, 2], [2, 4, 8])


def random_automorphisms(rng, count, max_rank=3):
    """Seeded valid automorphisms: a unimodular free part, a torsion chain,
    a torsion part drawn entrywise and kept when the constructor accepts it,
    and a random mixing block."""
    out = []
    while len(out) < count:
        k = rng.randint(0, max_rank)
        factors = rng.choice(CHAINS)
        t = len(factors)
        torsion = [[rng.randrange(factors[i]) for _ in range(t)] for i in range(t)]
        mixing = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(t)]
        try:
            out.append(FGAbelianAutomorphism.from_matrix(
                random_unimodular(rng, k) if k else [], factors, torsion, mixing))
        except InvalidAutomorphism:
            pass
    return out


def test_reidemeister_matches_the_smith_form():
    rng = random.Random(2025)
    kinds = {"finite": 0, "infinite": 0, "torsion moved": 0, "mixed": 0}
    for phi in random_automorphisms(rng, 600):
        r = reidemeister_number(phi)
        assert r == smith_reidemeister(phi), phi
        kinds["finite" if r != INFINITE else "infinite"] += 1
        kinds["torsion moved"] += phi.torsion_part != tuple(map(tuple, identity_matrix(
            len(phi.torsion_factors))))
        kinds["mixed"] += any(map(any, phi.mixing))
    assert min(kinds.values()) >= 100, kinds


def chain_table(factors):
    """Z/d_1 x ... x Z/d_t; an element's index has d_1 as its leading digit."""
    table = cyclic_table(factors[-1])
    for d in reversed(factors[:-1]):
        table = direct_product_table(cyclic_table(d), table)
    return table


def test_torsion_reidemeister_matches_brute_force():
    """For k = 0, R(phi) is the brute-force twisted-class count of the table of
    Z/d_1 x ... x Z/d_t under the permutation that phi's torsion part induces."""
    rng = random.Random(77)
    tables = {}
    checked = 0
    for phi in random_automorphisms(rng, 400, max_rank=0):
        factors = phi.torsion_factors
        if factors not in tables:
            tables[factors] = chain_table(list(factors))
        vectors = list(itertools.product(*map(range, factors)))
        index = {v: i for i, v in enumerate(vectors)}
        perm = [index[tuple(sum(a * x for a, x in zip(row, v)) % d
                            for row, d in zip(phi.torsion_part, factors))]
                for v in vectors]
        count, _ = brute_force_twisted_classes(tables[factors], perm)
        assert reidemeister_number(phi) == count, phi
        checked += phi.torsion_part != tuple(map(tuple, identity_matrix(len(factors))))
    assert checked >= 200


def test_reidemeister_and_validation_run_no_smith_form(monkeypatch):
    phi_args = ([[2, 1], [1, 1]], [2, 4], [[1, 1], [2, 3]], [[1, 0], [2, 3]])
    want = smith_reidemeister(FGAbelianAutomorphism.from_matrix(*phi_args))

    def refuse(*args):
        raise AssertionError("smith_normal_form called")

    monkeypatch.setattr(abelian, "smith_normal_form", refuse)
    assert reidemeister_number(FGAbelianAutomorphism.from_matrix(*phi_args)) == want
    with pytest.raises(InvalidAutomorphism, match="not invertible"):
        FGAbelianAutomorphism.from_matrix([], [4], [[2]])


# ---------------------------------------------------------------------------
# finite group tables


def conjugacy_class_count(group):
    # Burnside on the conjugation action: #classes = sum |C(x)| / |G|
    n, t = group.order, group.table
    total = sum(1 for x in range(n) for g in range(n) if t[g][x] == t[x][g])
    assert total % n == 0
    return total // n


def test_cyclic_table_basics():
    z4 = cyclic_table(4)
    assert z4.identity == 0
    assert z4.inverse == (0, 3, 2, 1)
    assert z4.is_abelian()
    assert conjugacy_class_count(z4) == 4


def s3_table():
    import itertools
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # (p*q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(3))

    return FiniteGroupTable(tuple(tuple(index[compose(p, q)] for q in perms) for p in perms))


def test_s3_classes():
    s3 = s3_table()
    assert not s3.is_abelian()
    assert conjugacy_class_count(s3) == 3
    count, reps = brute_force_twisted_classes(s3, list(range(6)))
    assert count == 3
    assert len(reps) == 3


def test_invalid_tables():
    with pytest.raises(InvalidGroupTable):
        FiniteGroupTable(((0, 1), (0, 1)))  # not a group
    with pytest.raises(InvalidGroupTable):
        FiniteGroupTable(((1, 0), (1, 0)))


def test_twisted_classes_z4_negation():
    # twisted action alpha -> alpha + (1 - phi)(sigma) = alpha + 2*sigma,
    # so the classes are the cosets of 2Z/4 and the count matches #Coker(1-phi)
    z4 = cyclic_table(4)
    neg = [(-x) % 4 for x in range(4)]
    count, reps = brute_force_twisted_classes(z4, neg)
    assert count == 2
    assert reps == [0, 1]  # orbits {0,2}, {1,3}
    phi = FGAbelianAutomorphism.from_matrix([], torsion_factors=[4], torsion_part=[[-1]])
    assert reidemeister_number(phi) == 2


def test_twisted_classes_z5_doubling():
    z5 = cyclic_table(5)
    doubling = [(2 * x) % 5 for x in range(5)]
    count, _ = brute_force_twisted_classes(z5, doubling)
    assert count == 1


def test_twisted_classes_identity_is_conjugacy_count():
    for table in (cyclic_table(6), s3_table(), direct_product_table(cyclic_table(2), cyclic_table(4))):
        count, _ = brute_force_twisted_classes(table, list(range(table.order)))
        assert count == conjugacy_class_count(table)


def test_large_table_validation():
    z128 = cyclic_table(128)  # one generator, so Light's test checks a single row gather
    assert z128.identity == 0
    assert z128.generators == (1,)
    count, _ = brute_force_twisted_classes(z128, [(-x) % 128 for x in range(128)])
    assert count == 2  # coker(multiplication by 2 on Z/128)


# ---------------------------------------------------------------------------
# generator-based validation against the full brute-force scans


def reference_group(table):
    """(identity, inverses) by the cubic associativity scan and quadratic
    identity and inverse searches; raises InvalidGroupTable with the same
    messages as FiniteGroupTable."""
    n = len(table)
    if any(len(row) != n for row in table):
        raise InvalidGroupTable("table is not square")
    if any(type(x) is not int for row in table for x in row):
        raise InvalidGroupTable("table entries must be integers")
    if any(x < 0 or x >= n for row in table for x in row):
        raise InvalidGroupTable("table entries out of range")
    ident = next((e for e in range(n)
                  if all(table[e][x] == x and table[x][e] == x for x in range(n))), None)
    if ident is None:
        raise InvalidGroupTable("no identity element")
    inv = []
    for x in range(n):
        y = next((y for y in range(n) if table[x][y] == ident and table[y][x] == ident), None)
        if y is None:
            raise InvalidGroupTable("element %d has no inverse" % x)
        inv.append(y)
    if not all(table[table[i][j]][k] == table[i][table[j][k]]
               for i in range(n) for j in range(n) for k in range(n)):
        raise InvalidGroupTable("table is not associative")
    return ident, tuple(inv)


def reference_twisted_classes(table, inv, perm):
    """Checks the map on all n^2 pairs and joins alpha with every
    sigma * alpha * phi(sigma)^-1; the error is cut before its position."""
    n = len(table)
    if sorted(perm) != list(range(n)):
        raise InvalidGroupTable("map is not a permutation")
    if any(perm[table[x][y]] != table[perm[x]][perm[y]] for x in range(n) for y in range(n)):
        raise InvalidGroupTable("map is not a homomorphism")
    uf = UnionFind(n)
    for sigma in range(n):
        for alpha in range(n):
            uf.union(alpha, table[table[sigma][alpha]][inv[perm[sigma]]])
    roots = [uf.find(i) for i in range(n)]
    reps = sorted({min(i for i in range(n) if roots[i] == r) for r in set(roots)})
    return uf.components, reps


def perm_group_table(perms):
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(len(p)))] for q in perms] for p in perms]


def symmetric_perms(k):
    import itertools
    return sorted(itertools.permutations(range(k)))


def alternating_perms(k):
    return [p for p in symmetric_perms(k)
            if sum(p[i] > p[j] for i in range(k) for j in range(i + 1, k)) % 2 == 0]


def dihedral_rows(m):
    """Rotations r^i at i, reflections s r^i at m + i."""
    def mul(a, b):
        (ra, fa), (rb, fb) = divmod(a, m)[::-1], divmod(b, m)[::-1]
        return (fa ^ fb) * m + (ra + (-rb if fa else rb)) % m
    return [[mul(a, b) for b in range(2 * m)] for a in range(2 * m)]


def product_rows(a, b):
    na, nb = len(a), len(b)
    return [[a[x1][x2] * nb + b[y1][y2] for x2 in range(na) for y2 in range(nb)]
            for x1 in range(na) for y1 in range(nb)]


def relabel(rows, rng):
    n = len(rows)
    p = list(range(n))
    rng.shuffle(p)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[p[i]][p[j]] = p[rows[i][j]]
    return out


def sample_tables():
    cyclic_rows = [[list(r) for r in cyclic_table(n).table] for n in (1, 2, 5, 8, 12, 30)]
    return (cyclic_rows + [dihedral_rows(m) for m in (3, 4, 10)]
            + [perm_group_table(symmetric_perms(4)), perm_group_table(alternating_perms(5))]
            + [product_rows(cyclic_rows[1], cyclic_rows[1]),
               product_rows(cyclic_rows[1], product_rows(cyclic_rows[1], cyclic_rows[1])),
               product_rows(cyclic_rows[2], dihedral_rows(4)),
               product_rows(dihedral_rows(3), cyclic_rows[1])])


def outcome(make, twisted, rows, maps):
    try:
        ident, inv = make(rows)
    except InvalidGroupTable as exc:
        return str(exc)
    results = [ident, inv]
    for perm in maps:
        try:
            results.append(twisted(rows, inv, perm))
        except InvalidGroupTable as exc:
            results.append(str(exc).split(" at ")[0])
    return results


def library_group(rows):
    group = FiniteGroupTable(rows)
    return group.identity, group.inverse


def library_twisted(rows, inv, perm):
    return brute_force_twisted_classes(FiniteGroupTable(rows), perm)


def test_tables_match_brute_force_reference():
    """Identity, inverses, (count, reps) and error messages agree with the full
    scans on relabelled tables under identity, inner and random maps, and on
    copies corrupted by one changed entry, two swapped entries or two swapped rows."""
    rng = random.Random(4)
    kinds = set()
    for base in sample_tables():
        n = len(base)
        for _ in range(2):
            rows = relabel(base, rng)
            ident, inv = reference_group(rows)
            maps = [list(range(n))]
            for c in rng.sample(range(n), min(n, 2)):
                maps.append([rows[rows[c][x]][inv[c]] for x in range(n)])
            maps += [rng.sample(range(n), n) for _ in range(2)]
            corrupted = []
            for kind in range(3):
                bad = [row[:] for row in rows]
                i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                if kind == 0:
                    bad[i][j] = rng.randrange(n)
                elif kind == 1:
                    bad[i][j], bad[i][k] = bad[i][k], bad[i][j]
                else:
                    bad[i], bad[k] = bad[k], bad[i]
                corrupted.append(bad)
            for table in [rows] + corrupted:
                want = outcome(reference_group, reference_twisted_classes, table, maps)
                assert outcome(library_group, library_twisted, table, maps) == want
                kinds.add(want if isinstance(want, str) else "group")
    assert {"group", "no identity element", "table is not associative"} <= kinds


def test_generators_generate_and_are_few():
    rng = random.Random(8)
    for base in sample_tables():
        group = FiniteGroupTable(relabel(base, rng))
        gens = group.generators
        assert len(gens) <= math.log2(group.order)
        reached, frontier = {group.identity}, [group.identity]
        while frontier:
            x = frontier.pop()
            for y in (group.table[x][g] for g in gens):
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        assert reached == set(range(group.order))
        n = group.order
        t = group.table
        assert group.is_abelian() == all(t[i][j] == t[j][i] for i in range(n) for j in range(n))
        assert group.center() == [z for z in range(n)
                                  if all(t[z][x] == t[x][z] for x in range(n))]


def test_order_128_loop_is_rejected():
    rows = intercalate_loop(128)
    assert all(sorted(row) == list(range(128)) for row in rows)
    assert all(rows[x][(-x) % 128] == 0 == rows[(-x) % 128][x] for x in range(128))
    with pytest.raises(InvalidGroupTable, match="not associative"):
        FiniteGroupTable(rows)


def intercalate_loop(n):
    """Z/n, n even, with the intercalate {1, 1 + n/2} x {1, 1 + n/2} swapped:
    a Latin square with identity 0 and inverses -x that is not associative."""
    h = n // 2
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    for i, j in ((1, 1), (1, 1 + h), (1 + h, 1), (1 + h, 1 + h)):
        rows[i][j] = 2 + h if rows[i][j] == 2 else 2
    return rows


def self_inverse_magma(n):
    """x * x = 0 and x * y = x for distinct non-identity x, y: identity and
    inverses, but every generator adds one element to the span."""
    return [[y if x == 0 else x if y == 0 else 0 if x == y else x for y in range(n)]
            for x in range(n)]


def test_magmas_rejected_like_reference():
    z3 = [list(row) for row in cyclic_table(3).table]
    one_sided = [[0, 1, 2, 3],  # 1 * 2 = 1 * 3 = 0 but only 3 * 1 = 0
                 [1, 2, 0, 0],
                 [2, 3, 0, 1],
                 [3, 0, 1, 2]]
    cases = [intercalate_loop(8), intercalate_loop(12), one_sided,
             self_inverse_magma(4), self_inverse_magma(8),
             # the generators of Z/3 come first and pass Light's test
             product_rows(intercalate_loop(8), z3),
             product_rows(self_inverse_magma(4), z3)]
    for rows in cases:
        with pytest.raises(InvalidGroupTable) as caught:
            FiniteGroupTable(rows)
        with pytest.raises(InvalidGroupTable) as expected:
            reference_group(rows)
        assert str(caught.value) == str(expected.value) == "table is not associative"
    # the span grows by one element per generator, so the search stops early
    assert _greedy_generators(tuple(map(tuple, self_inverse_magma(8))), 0) is None


def with_entry(rows, i, j, value):
    rows = [row[:] for row in rows]
    rows[i][j] = value
    return rows


def wrapped_top(rows):
    """The element n - 1 written as -1 outside the identity's row and column:
    every lookup still lands on the same row, but the entries are out of range."""
    n = len(rows)
    e = next(x for x in range(n) if rows[x] == list(range(n)))
    return [[-1 if y == n - 1 and e not in (x, j) else y for j, y in enumerate(row)]
            for x, row in enumerate(rows)]


Z5 = [[(x + y) % 5 for y in range(5)] for x in range(5)]


@pytest.mark.parametrize("rows, message", [
    *[(with_entry(Z5, 2, 3, v), "table entries out of range") for v in (5, 6, -1, -5)],
    (with_entry(Z5, 1, 1, 5), "table entries out of range"),  # in the generator's row
    (with_entry(Z5, 0, 4, -1), "table entries out of range"),  # no identity either
    (with_entry(Z5, 1, 4, False), "table entries must be integers"),  # False == 0
    (with_entry(Z5, 3, 2, True), "table entries must be integers"),
    # 1 has no inverse and 9 is out of range
    (with_entry([[(x + y) % 4 for y in range(4)] for x in range(4)], 1, 3, 9),
     "table entries out of range"),
    (wrapped_top(relabel(dihedral_rows(4), random.Random(3))), "table entries out of range"),
    (wrapped_top(relabel(Z5, random.Random(5))), "table entries out of range"),
    (intercalate_loop(8), "table is not associative"),
    # associative with identity 1, so it passes Light's test
    ([[0, 0], [0, 1]], "element 0 has no inverse"),
    # Z/4 under max: identity 0, only 0 is invertible
    ([[max(x, y) for y in range(4)] for x in range(4)], "element 1 has no inverse"),
    ([[0, 0], [0, 0]], "no identity element"),
])
def test_refusals_keep_their_order(rows, message):
    """A table that fails several checks is refused by the first in the order
    range, identity, inverses, associativity, as the reference scans do."""
    with pytest.raises(InvalidGroupTable) as caught:
        FiniteGroupTable(rows)
    with pytest.raises(InvalidGroupTable) as expected:
        reference_group(rows)
    assert str(caught.value) == str(expected.value) == message


def test_table_atom_answers_abelian_from_cache():
    from groupinv.expressions import GroupAtom, FINITE_TABLE, _table_is_abelian

    _table_is_abelian.cache_clear()
    rows = relabel([list(row) for row in cyclic_table(512).table], random.Random(6))
    atom = finite_table(rows)
    start = time.perf_counter()
    assert atom.abelian
    first = time.perf_counter() - start
    again = []
    for _ in range(5):
        start = time.perf_counter()
        assert atom.abelian
        again.append(time.perf_counter() - start)
    assert min(again) * 5 <= first
    assert not finite_table(dihedral_rows(3)).abelian
    # only answers are kept: a table that is not a group raises on every read
    bad = GroupAtom(FINITE_TABLE, (), tuple(map(tuple, intercalate_loop(8))))
    for _ in range(2):
        with pytest.raises(InvalidGroupTable, match="not associative"):
            bad.abelian


def test_non_homomorphic_bijection_rejected_above_64():
    # (x, y) in Z/40 x Z/2 sits at 2x + y, so (0, 1) is the first generator and
    # the map, which swaps x = 1 and x = 2, respects it and fails at (1, 0)
    group = direct_product_table(cyclic_table(40), cyclic_table(2))
    swap = list(range(80))
    swap[2:6] = [4, 5, 2, 3]
    assert group.generators == (1, 2)
    with pytest.raises(InvalidGroupTable, match="not a homomorphism"):
        group.check_automorphism(swap)
    tripling = [(3 * x) % 100 for x in range(100)]
    tripling[50], tripling[51] = tripling[51], tripling[50]
    with pytest.raises(InvalidGroupTable, match="not a homomorphism"):
        brute_force_twisted_classes(cyclic_table(100), tripling)


@pytest.mark.parametrize("rows", [
    [[0, 1], [1, "a"]],
    [[0.0, 1.0], [1.0, 0.0]],
    [[False, True], [True, False]],
    [[0, 1], [1, None]],
    [[0, 1.7], [1, 0]],
    [[0, "1"], [1, 0]],
    5,
    [5, 6],
])
def test_table_entries_must_be_integers(rows):
    with pytest.raises(InvalidGroupTable):
        FiniteGroupTable(rows)
    with pytest.raises(InvalidGroupTable):
        finite_table(rows)


@pytest.mark.parametrize("perm", [[0.0, 1], [False, True], ["0", "1"], 5, [0], [0, 1, 2]])
def test_map_entries_must_be_integers(perm):
    with pytest.raises(InvalidGroupTable):
        cyclic_table(2).check_automorphism(perm)


# ---------------------------------------------------------------------------
# central extensions


def embed_first(a: FiniteGroupTable, b: FiniteGroupTable):
    """A -> A x B, a -> (a, e); projection A x B -> B."""
    nb = b.order
    inclusion = [x * nb + b.identity for x in range(a.order)]
    projection = [code % nb for code in range(a.order * nb)]
    return inclusion, projection


def test_central_extension_z2_in_z4():
    z2, z4 = cyclic_table(2), cyclic_table(4)
    inclusion = [0, 2]  # Z/2 -> 2Z/4
    projection = [x % 2 for x in range(4)]
    ident = lambda g: list(range(g.order))
    report = verify_central_extension(z2, z4, z2, inclusion, projection,
                                      ident(z2), ident(z4), ident(z2))
    assert report.valid
    assert (report.r_sub, report.r_total, report.r_quot) == (2, 4, 2)
    assert report.product_holds


def test_central_extension_negation_on_z4_reports_mismatch():
    # phi = -1 on Z/4 restricts to the identity on 2Z/4 and induces the identity
    # on the quotient; the product formula fails here and the checker must say so.
    z2, z4 = cyclic_table(2), cyclic_table(4)
    report = verify_central_extension(z2, z4, z2, [0, 2], [x % 2 for x in range(4)],
                                      [0, 1], [(-x) % 4 for x in range(4)], [0, 1])
    assert report.valid
    assert (report.r_sub, report.r_total, report.r_quot) == (2, 2, 2)
    assert not report.product_holds


def test_central_extension_split_products():
    z2 = cyclic_table(2)
    klein4 = direct_product_table(z2, z2)
    inclusion, projection = embed_first(z2, z2)
    swap_free = [0, 1]
    report = verify_central_extension(z2, klein4, z2, inclusion, projection,
                                      swap_free, [0, 1, 2, 3], swap_free)
    assert report.valid and report.product_holds


def test_central_extension_rejects_bad_data():
    z2, z4, z3 = cyclic_table(2), cyclic_table(4), cyclic_table(3)
    report = verify_central_extension(z2, z4, z3, [0, 2], [x % 3 for x in range(4)],
                                      [0, 1], list(range(4)), [0, 1, 2])
    assert not report.valid
    assert report.problems


def test_central_extension_refuses_map_entries_out_of_range():
    z2, z4 = cyclic_table(2), cyclic_table(4)
    ident = [0, 1, 2, 3]
    report = verify_central_extension(z2, z4, z2, [0, 7], [x % 2 for x in range(4)],
                                      [0, 1], ident, [0, 1])
    assert not report.valid
    assert report.problems == ["inclusion has entries outside range(4)"]
    # a negative entry would index from the end of the table
    report = verify_central_extension(z2, z4, z2, [0, -2], [x % 2 for x in range(4)],
                                      [0, 1], ident, [0, 1])
    assert not report.valid and "inclusion has entries outside range(4)" in report.problems
    report = verify_central_extension(z2, z4, z2, [0, 2], [0, 1, 0, -1], [0, 1], ident, [0, 1])
    assert not report.valid and "projection has entries outside range(2)" in report.problems
    # maps too short to index are refused before any table lookup
    report = verify_central_extension(z2, z4, z2, [0, 2], [0, 1, 0], [0, 1], ident, [0, 1])
    assert report.problems == ["projection is not surjective onto C"]
