"""Join-normal-form sphere sets: algebra laws, cardinality classification,
membership, and serialization.  Randomized laws run against a sampling oracle
that walks rational directions on the denoted arcs."""

from __future__ import annotations

import random
from itertools import product

import pytest

from groupinv.cones import omega_from_obstructions
from groupinv.spheres import (
    EMPTY,
    FULL,
    AmbientMismatch,
    ConeRegion,
    Direction,
    FinitePoints,
    SphereSet,
    cone_set,
    empty_set,
    full_sphere,
    join,
    join_all,
    permute_factors,
    permute_vector,
    points_set,
    sigma1_complement_of_product,
    union,
)


def intersect_with_finite(a: SphereSet, finite: SphereSet) -> SphereSet:
    """Membership filter of a finite point set against an arbitrary set."""
    card = finite.cardinality()
    if card.kind != "finite":
        raise ValueError("set is not finite")
    kept = [d.coords for d in card.points if a.member(d)]
    return points_set(a.ambient, kept) if kept else empty_set(a.ambient)


def same_denotation(a: SphereSet, b: SphereSet) -> bool:
    """Semantic equality: exact for finite sets, otherwise normal-form equality
    backed by membership sampling on a grid of rational directions."""
    if a.dim != b.dim:
        return False
    ca, cb = a.cardinality(), b.cardinality()
    if ca.kind != cb.kind:
        return False
    if ca.kind in ("zero", "finite"):
        return ca.points == cb.points
    if a.ambient == b.ambient and a.atoms == b.atoms:
        return True
    return all(a.member(d) == b.member(d) for d in _direction_grid(a.dim, 3))


def _direction_grid(dim: int, bound: int):
    seen = set()
    for vec in product(range(-bound, bound + 1), repeat=dim):
        if any(vec):
            d = Direction(vec)
            if d not in seen:
                seen.add(d)
                yield d


def test_direction_normalization():
    assert Direction((2, -4)).coords == (1, -2)
    assert Direction((0, 3)).coords == (0, 1)
    assert Direction((2, -3)).coords == (2, -3)
    assert Direction((2, -3)).antipode().coords == (-2, 3)
    with pytest.raises(ValueError):
        Direction((0, 0))


@pytest.mark.parametrize("build", [
    lambda: Direction((1.5, 0)),
    lambda: Direction((2.0, 0)),
    lambda: Direction((True, 0)),
    lambda: Direction(("1", 0)),
    lambda: points_set([2], [(0.7, 1)]),
    lambda: points_set([2], [(False, 1)]),
    lambda: full_sphere([2.7]),
    lambda: full_sphere([True]),
    lambda: empty_set([2.0]),
    lambda: SphereSet([1.5], []),
], ids=["direction-float", "direction-integral-float", "direction-bool", "direction-str",
        "points-float", "points-bool", "full-float", "full-bool", "empty-float",
        "sphereset-float"])
def test_non_integer_entries_are_refused(build):
    """Coordinates and factor ranks are exact integers: anything else,
    bool included, is refused instead of truncated by int()."""
    with pytest.raises(ValueError):
        build()


def _directions(*vectors):
    return [Direction(v) for v in vectors]


# each ordered record with its one field and inputs that build distinct values
ORDERED = [
    (Direction, "coords", [(1, 0), (0, 1), (-1, 2), (2, -1), (0, -1), (-3, 1)]),
    (FinitePoints, "points", [_directions((1, 0)), _directions((0, 1), (1, 0)),
                              _directions((-1, 0)), _directions((1, 1), (-1, 0))]),
    (ConeRegion, "normals", [_directions((1, 0)), _directions((0, 1), (1, 0)),
                             _directions((-1, 1)), _directions((1, 0), (0, -1))]),
]


@pytest.mark.parametrize("cls,field,inputs", ORDERED, ids=[c.__name__ for c, _, _ in ORDERED])
def test_ordered_records_are_sorted_and_compared_by_their_field(cls, field, inputs):
    records = [cls(i) for i in inputs]
    assert sorted(records) == sorted(records, key=lambda r: (getattr(r, field),))
    assert sorted(records, reverse=True) == sorted(records, key=lambda r: (getattr(r, field),),
                                                   reverse=True)
    for a, b in product(records, repeat=2):
        fa, fb = (getattr(a, field),), (getattr(b, field),)
        assert ((a < b), (a <= b), (a > b), (a >= b), (a == b), (a != b)) == (
            (fa < fb), (fa <= fb), (fa > fb), (fa >= fb), (fa == fb), (fa != fb))
    for i in inputs:  # built separately from the same input
        assert cls(i) == cls(i) and hash(cls(i)) == hash(cls(i)) == hash((getattr(cls(i), field),))
    with pytest.raises(TypeError):
        records[0] < (getattr(records[0], field),)


def test_printed_reprs_keep_their_text():
    # SphereSet's repr prints its parts; a failed selfcheck comparison prints it
    assert repr(Direction((2, -4))) == "Direction((1, -2))"
    a = SphereSet([1, 2], [(FinitePoints(_directions((1,), (-1,))), EMPTY),
                           (EMPTY, ConeRegion(_directions((1, 0), (0, 1))))])
    assert repr(a) == (
        "SphereSet(ambient=(1, 2), atoms=("
        "('empty', ConeRegion(normals=(Direction((0, 1)), Direction((1, 0))))), "
        "(FinitePoints(points=(Direction((-1,)), Direction((1,)))), 'empty')))")


def test_rank_one_normalization():
    # the whole S^0 is two explicit points
    full = full_sphere([1])
    assert full.atoms == ((FinitePoints([Direction((1,)), Direction((-1,))]),),)


def test_rank_zero_factors_vanish():
    assert full_sphere([0]).is_empty()
    assert full_sphere([0, 2]).atoms == ((EMPTY, FULL),)


def test_join_of_fulls_is_full():
    assert join(full_sphere([2]), full_sphere([3])) == full_sphere([2, 3])


def test_join_empty_identity():
    pts = points_set([1], [(1,), (-1,)])
    embedded = join(empty_set([2]), pts)
    assert embedded.ambient == (2, 1)
    card = embedded.cardinality()
    assert card.count == 2
    assert card.points == (Direction((0, 0, -1)), Direction((0, 0, 1)))
    assert embedded.member(Direction((0, 0, 1)))
    assert not embedded.member(Direction((1, 0, 0)))
    # paper-forced identity: S^0 join S^0 = S^1
    s0 = full_sphere([1])
    assert join(s0, s0) == full_sphere([1, 1])


def test_join_two_singletons_is_infinite_arc():
    a = points_set([1], [(1,)])
    b = points_set([1], [(1,)])
    arc = join(a, b)
    assert arc.cardinality().kind == "infinite"
    # sampled rational points on the open arc all belong to the set
    for p, q in ((1, 1), (1, 2), (2, 1), (3, 5)):
        assert arc.member(Direction((p, q)))
    assert not arc.member(Direction((-1, 1)))


def test_union_and_intersection():
    a = points_set([1], [(-1,)])
    with pytest.raises(AmbientMismatch):
        union(a, full_sphere([2]))
    two_atom = union(points_set([1, 2], [(-1, 0, 0)]),
                     SphereSet([1, 2], [(EMPTY, FULL)]))
    assert len(two_atom.atoms) == 2
    assert two_atom.member(Direction((-1, 0, 0)))
    assert two_atom.member(Direction((0, 1, 1)))
    assert not two_atom.member(Direction((1, 0, 0)))
    full = full_sphere([2])
    picked = intersect_with_finite(full, points_set([2], [(1, 1)]))
    assert picked == points_set([2], [(1, 1)])
    assert union(a, empty_set([1])) == a


def test_cardinality_examples():
    # omega of F(n) x Z: empty join {+-1} -> two antipodal points
    omega = join(empty_set([3]), full_sphere([1]))
    card = omega.cardinality()
    assert card.count == 2
    assert omega.cardinality().is_antipodal_pair()
    assert full_sphere([2]).cardinality().kind == "infinite"
    assert empty_set([2]).cardinality().kind == "zero"
    assert not points_set([2], [(1, 0), (0, 1)]).cardinality().is_antipodal_pair()


def test_subsumption_and_merging():
    # a point inside an arc atom is dropped
    arc = join(points_set([1], [(1,)]), points_set([1], [(1,)]))
    redundant = union(arc, points_set([1, 1], [(1, 0)]))
    assert redundant == arc
    # two embedded points on the same factor merge into one finite part
    merged = union(points_set([2, 1], [(0, 0, 1)]), points_set([2, 1], [(0, 0, -1)]))
    assert len(merged.atoms) == 1


def test_atom_under_an_equal_cone_is_subsumed():
    # the parts of the first atom lie in the second's: the same cone on the
    # first factor, and a point inside the full second factor
    d, p = Direction((1, 0)), Direction((0, 1))
    both = SphereSet([2, 2], [(ConeRegion([d]), FinitePoints([p])), (ConeRegion([d]), FULL)])
    assert both.atoms == ((ConeRegion([d]), FULL),)


def test_cone_region_membership():
    cone = SphereSet([2], [(ConeRegion([Direction((1, 0)), Direction((0, 1))]),)])
    assert cone.cardinality().kind == "infinite"
    assert cone.member(Direction((-1, -1)))
    assert cone.member(Direction((-2, -1)))
    assert not cone.member(Direction((1, 1)))


def test_json_encoding_of_each_part_kind():
    cone = SphereSet([2], [(ConeRegion([Direction((1, 0)), Direction((0, 1))]),)])
    cases = [
        (empty_set([2]), {"ambient": [2], "atoms": []}),
        # a rank-zero factor is an empty part; a rank-one sphere is its two points
        (full_sphere([2, 0, 1]),
         {"ambient": [2, 0, 1], "atoms": [["full", "empty", {"points": [[-1], [1]]}]]}),
        (points_set([2], [(2, -4), (0, 1)]),
         {"ambient": [2], "atoms": [[{"points": [[0, 1], [1, -2]]}]]}),
        (cone, {"ambient": [2], "atoms": [[{"cone": [[0, 1], [1, 0]]}]]}),
    ]
    for sphere_set, expected in cases:
        assert sphere_set.to_json_dict() == expected


# ---------------------------------------------------------------------------
# randomized algebra laws


def random_sphere_set(rng: random.Random, rank: int) -> SphereSet:
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


def test_join_assoc_comm_and_cardinality_laws():
    rng = random.Random(4242)
    for _ in range(400):
        ranks = [rng.randint(1, 2) for _ in range(3)]
        a, b, c = (random_sphere_set(rng, r) for r in ranks)
        left = join(join(a, b), c)
        right = join(a, join(b, c))
        assert left.ambient == right.ambient
        assert left.atoms == right.atoms
        # commutativity up to the block swap
        ab, ba = join(a, b), join(b, a)
        perm = permute_factors(ba, [1, 0])
        assert perm == ab
        card_ab = ab.cardinality()
        # cardinality law: join of non-empty sets is infinite, empty is identity
        if a.is_empty():
            assert same_denotation(ab, join(empty_set(a.ambient), b))
        elif b.is_empty():
            assert card_ab.kind == join(a, empty_set(b.ambient)).cardinality().kind
        else:
            assert card_ab.kind == "infinite"
        # membership agrees under factor permutation
        dim = ab.dim
        for _ in range(5):
            vec = [0] * dim
            while not any(vec):
                vec = [rng.randint(-2, 2) for _ in range(dim)]
            d = Direction(vec)
            swapped = Direction(permute_vector(d.coords, ab.ambient, [1, 0]))
            assert ab.member(d) == ba.member(swapped)


def test_join_infinite_verified_by_sampling():
    rng = random.Random(99)
    for _ in range(50):
        a = random_sphere_set(rng, rng.randint(1, 2))
        b = random_sphere_set(rng, rng.randint(1, 2))
        if a.is_empty() or b.is_empty():
            continue
        joined = join(a, b)
        assert joined.cardinality().kind == "infinite"
        # find a point of each side, walk the arc between them
        pa = _any_point(a)
        pb = _any_point(b)
        seen = set()
        for p, q in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1)):
            coords = tuple(p * x for x in pa.coords) + tuple(q * y for y in pb.coords)
            d = Direction(coords)
            assert joined.member(d)
            seen.add(d)
        assert len(seen) >= 5


def _any_point(s: SphereSet):
    card = s.cardinality()
    if card.kind == "finite":
        return card.points[0]
    rank = s.dim
    # full or a half-space: try small vectors until one is a member
    for vec in sorted(product(range(-3, 4), repeat=rank), key=lambda v: sum(abs(x) for x in v)):
        if any(vec) and s.member(Direction(vec)):
            return Direction(vec)
    raise AssertionError("no rational point found")


def random_points(rng: random.Random, ambient: list[int]) -> list[list[int]]:
    """One to five small vectors, each supported on one factor of positive
    rank; repeats, multiples and antipodes on one factor come up often."""
    starts = [sum(ambient[:i]) for i in range(len(ambient))]
    vectors = []
    for _ in range(rng.randint(1, 5)):
        i = rng.choice([i for i, r in enumerate(ambient) if r])
        block = [0] * ambient[i]
        while not any(block):
            block = [rng.randint(-2, 2) for _ in block]
        vec = [0] * sum(ambient)
        vec[starts[i]:starts[i] + ambient[i]] = block
        vectors.append(vec)
    return vectors


def assert_normal(s: SphereSet) -> None:
    again = SphereSet(s.ambient, s.atoms)
    assert again == s and again.atoms == s.atoms, s


def test_normal_form_idempotent():
    """The constructors that build their atoms in normal form, skipping the
    normalizing pass, give atoms that pass leaves as they are, in order."""
    rng = random.Random(7)
    for _ in range(300):
        ambient = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        assert_normal(empty_set(ambient))
        assert_normal(full_sphere(ambient))
        if not any(ambient):
            ambient[rng.randrange(len(ambient))] = rng.randint(1, 3)
        points = points_set(ambient, random_points(rng, ambient))
        assert_normal(points)
        singles = [random_sphere_set(rng, rng.randint(1, 3)) for _ in range(3)]
        embedded = sigma1_complement_of_product([points, singles[0], join(singles[1], singles[2])])
        m = rng.randint(1, 4)
        for s in [
            join(singles[0], singles[1]),
            join(points, singles[2]),
            join(embedded, points),
            join_all([singles[2], points, singles[0]]),
            embedded,
            omega_from_obstructions(points_set([m], random_points(rng, [m]))),
            omega_from_obstructions(rng.choice([empty_set, full_sphere])([m])),
            cone_set(m + 1, random_points(rng, [m + 1])),
        ]:
            assert_normal(s)


# ---------------------------------------------------------------------------
# product formulas


def test_join_all_is_the_omega_product_formula():
    bs = points_set([1], [(1,)])
    free = empty_set([3])
    z = full_sphere([1])
    # one surviving point times empty: the point, embedded
    prod = join_all([bs, free])
    assert prod == points_set([1, 3], [(1, 0, 0, 0)])
    # empty times S^0: two antipodal points
    prod2 = join_all([free, z])
    assert prod2.cardinality().count == 2
    assert prod2.cardinality().is_antipodal_pair()
    # S^0 times S^0: a full circle
    assert join_all([z, z]) == full_sphere([1, 1])


def test_sigma1_complement_of_product_examples():
    bs_c = points_set([1], [(-1,)])
    free_c = full_sphere([3])
    z_c = empty_set([1])
    got = sigma1_complement_of_product([bs_c, free_c])
    expected = union(points_set([1, 3], [(-1, 0, 0, 0)]),
                     join(empty_set([1]), full_sphere([3])))
    assert got == expected
    assert got.cardinality().kind == "infinite"
    got2 = sigma1_complement_of_product([free_c, z_c])
    assert got2 == join(full_sphere([3]), empty_set([1]))
    got3 = sigma1_complement_of_product([z_c, z_c])
    assert got3.is_empty()


def pairwise_sigma1_complement_of_product(factor_complements):
    """The level-one complement as k successive unions, each re-normalized."""
    full_ambient = tuple(r for f in factor_complements for r in f.ambient)
    result = empty_set(full_ambient)
    offset = 0
    for f in factor_complements:
        before = (EMPTY,) * offset
        after = (EMPTY,) * (len(full_ambient) - offset - len(f.ambient))
        result = union(result, SphereSet(full_ambient, [before + atom + after for atom in f.atoms]))
        offset += len(f.ambient)
    return result


def random_factor_set(rng):
    """An obstruction set of one factor: rank 0, rank 1, cone, full, empty,
    explicit points, or a set over several blocks."""
    kind = rng.choice(["rank0", "rank1", "cone", "full", "empty", "points", "blocks"])
    rank = rng.randint(2, 4)

    def vec():
        while True:
            v = tuple(rng.randint(-2, 2) for _ in range(rank))
            if any(v):
                return v

    if kind == "rank0":
        return empty_set([0])
    if kind == "rank1":
        return points_set([1], rng.sample([(1,), (-1,)], rng.randint(0, 2)))
    if kind == "cone":
        return SphereSet([rank], [(ConeRegion(Direction(vec()) for _ in range(rng.randint(1, 3))),)])
    if kind == "full":
        return full_sphere([rank])
    if kind == "empty":
        return empty_set([rank])
    if kind == "points":
        return points_set([rank], [vec() for _ in range(rng.randint(1, 3))])
    left, right = random_factor_set(rng), random_factor_set(rng)
    return union(join(left, empty_set(right.ambient)), join(empty_set(left.ambient), right))


def test_sigma1_complement_of_product_matches_pairwise_unions():
    rng = random.Random(4242)
    for _ in range(600):
        factors = [random_factor_set(rng) for _ in range(rng.randint(1, 6))]
        expected = pairwise_sigma1_complement_of_product(factors)
        got = sigma1_complement_of_product(factors)
        assert got == expected, factors
        assert got.to_json_dict() == expected.to_json_dict()
