"""Join-normal-form sphere sets: algebra laws, cardinality classification,
membership, and serialization.  Randomized laws run against a sampling oracle
that walks rational directions on the denoted arcs."""

from __future__ import annotations

import random
from itertools import product

import pytest

from groupinv.spheres import (
    EMPTY,
    FULL,
    AmbientMismatch,
    CofinitePoints,
    ConeRegion,
    Direction,
    FinitePoints,
    SphereSet,
    UnsupportedComplement,
    complement,
    empty_set,
    full_sphere,
    join,
    permute_factors,
    permute_vector,
    points_set,
    single_factor_points,
    union,
)


def cofinite_set(rank: int, excluded) -> SphereSet:
    """The rank-``rank`` sphere minus the listed directions."""
    return SphereSet([rank], [(CofinitePoints(Direction(v) for v in excluded),)])


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


def _directions(*vectors):
    return [Direction(v) for v in vectors]


# each ordered record with its one field and inputs that build distinct values
ORDERED = [
    (Direction, "coords", [(1, 0), (0, 1), (-1, 2), (2, -1), (0, -1), (-3, 1)]),
    (FinitePoints, "points", [_directions((1, 0)), _directions((0, 1), (1, 0)),
                              _directions((-1, 0)), _directions((1, 1), (-1, 0))]),
    (CofinitePoints, "excluded", [[], _directions((1, 0)), _directions((0, 1), (-1, 0)),
                                  _directions((-1, 0))]),
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
                           (EMPTY, CofinitePoints(_directions((0, 1)))),
                           (EMPTY, ConeRegion(_directions((1, 0), (0, 1))))])
    assert repr(a) == (
        "SphereSet(ambient=(1, 2), atoms=("
        "('empty', CofinitePoints(excluded=(Direction((0, 1)),))), "
        "('empty', ConeRegion(normals=(Direction((0, 1)), Direction((1, 0))))), "
        "(FinitePoints(points=(Direction((-1,)), Direction((1,)))), 'empty')))")


def test_rank_one_normalization():
    # the whole S^0 is two explicit points
    full = full_sphere([1])
    assert full.atoms == ((FinitePoints([Direction((1,)), Direction((-1,))]),),)
    # cofinite on S^0 becomes finite
    cof = cofinite_set(1, [(-1,)])
    assert cof.atoms == ((FinitePoints([Direction((1,))]),),)


def test_rank_zero_factors_vanish():
    assert full_sphere([0]).is_empty()
    assert full_sphere([0, 2]).atoms == ((EMPTY, FULL),)


def test_join_of_fulls_is_full():
    assert join(full_sphere([2]), full_sphere([3])) == full_sphere([2, 3])


def test_join_empty_identity():
    pts = single_factor_points(1, [(1,), (-1,)])
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
    a = single_factor_points(1, [(1,)])
    b = single_factor_points(1, [(1,)])
    arc = join(a, b)
    assert arc.cardinality().kind == "infinite"
    # sampled rational points on the open arc all belong to the set
    for p, q in ((1, 1), (1, 2), (2, 1), (3, 5)):
        assert arc.member(Direction((p, q)))
    assert not arc.member(Direction((-1, 1)))


def test_complement_fragment():
    assert complement(empty_set([3])) == full_sphere([3])
    assert complement(full_sphere([3])) == empty_set([3])
    minus = single_factor_points(1, [(-1,)])
    assert complement(minus) == single_factor_points(1, [(1,)])
    assert complement(complement(cofinite_set(2, [(1, 0)]))) == cofinite_set(2, [(1, 0)])
    with pytest.raises(UnsupportedComplement):
        complement(join(single_factor_points(1, [(1,)]), single_factor_points(1, [(1,)])))


def test_union_and_intersection():
    a = single_factor_points(1, [(-1,)])
    with pytest.raises(AmbientMismatch):
        union(a, full_sphere([2]))
    two_atom = union(points_set([1, 2], [(-1, 0, 0)]),
                     SphereSet([1, 2], [(EMPTY, FULL)]))
    assert len(two_atom.atoms) == 2
    assert two_atom.member(Direction((-1, 0, 0)))
    assert two_atom.member(Direction((0, 1, 1)))
    assert not two_atom.member(Direction((1, 0, 0)))
    full = full_sphere([2])
    picked = intersect_with_finite(full, single_factor_points(2, [(1, 1)]))
    assert picked == single_factor_points(2, [(1, 1)])
    assert union(a, empty_set([1])) == a


def test_cardinality_examples():
    # omega of F(n) x Z: empty join {+-1} -> two antipodal points
    omega = join(empty_set([3]), full_sphere([1]))
    card = omega.cardinality()
    assert card.count == 2
    assert omega.is_antipodal_pair()
    assert full_sphere([2]).cardinality().kind == "infinite"
    assert empty_set([2]).cardinality().kind == "zero"
    assert not single_factor_points(2, [(1, 0), (0, 1)]).is_antipodal_pair()


def test_subsumption_and_merging():
    # a point inside an arc atom is dropped
    arc = join(single_factor_points(1, [(1,)]), single_factor_points(1, [(1,)]))
    redundant = union(arc, points_set([1, 1], [(1, 0)]))
    assert redundant == arc
    # two embedded points on the same factor merge into one finite part
    merged = union(points_set([2, 1], [(0, 0, 1)]), points_set([2, 1], [(0, 0, -1)]))
    assert len(merged.atoms) == 1


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
        (single_factor_points(2, [(2, -4), (0, 1)]),
         {"ambient": [2], "atoms": [[{"points": [[0, 1], [1, -2]]}]]}),
        (cofinite_set(3, [(1, 0, 0), (0, -2, 1)]),
         {"ambient": [3], "atoms": [[{"cofinite": [[0, -2, 1], [1, 0, 0]]}]]}),
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
        return single_factor_points(rank, dirs)
    return cofinite_set(rank, dirs)


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
    # full or cofinite: try small vectors until one is a member
    for vec in sorted(product(range(-3, 4), repeat=rank), key=lambda v: sum(abs(x) for x in v)):
        if any(vec) and s.member(Direction(vec)):
            return Direction(vec)
    raise AssertionError("no rational point found")


def test_normal_form_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        a = random_sphere_set(rng, rng.randint(1, 3))
        b = random_sphere_set(rng, rng.randint(1, 3))
        s = join(a, b)
        again = SphereSet(s.ambient, s.atoms)
        assert again == s
