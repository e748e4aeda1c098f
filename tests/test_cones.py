"""Polar-cone computation (double description) cross-checked against
brute-force enumeration of primitive integer vectors, plus the derived-set
operations on sphere data."""

from __future__ import annotations

import random
from itertools import product
from math import gcd

import pytest

from groupinv.cones import (
    ConeShape,
    DimensionCapExceeded,
    RationalCone,
    UnsupportedSigma,
    check_finite12,
    cone_rays,
    o_class_of,
    omega_from_sigma,
    omega_of_product,
    sigma1_complement_of_product,
)
from groupinv.spheres import (
    EMPTY,
    CofinitePoints,
    ConeRegion,
    Direction,
    SphereSet,
    empty_set,
    full_sphere,
    join,
    points_set,
    single_factor_points,
    union,
)


def cofinite_set(rank: int, excluded) -> SphereSet:
    """The rank-``rank`` sphere minus the listed directions."""
    return SphereSet([rank], [(CofinitePoints(Direction(v) for v in excluded),)])


def primitive_solutions(cone: RationalCone, bound: int = 5):
    """Every primitive vector with entries in [-bound, bound] inside the cone."""
    seen = set()
    for vec in product(range(-bound, bound + 1), repeat=cone.dim):
        if not any(vec):
            continue
        g = 0
        for c in vec:
            g = gcd(g, abs(c))
        if g != 1:
            continue
        if cone.contains(vec):
            seen.add(vec)
    return seen


def check_against_enumeration(cone: RationalCone, bound: int = 5) -> ConeShape:
    shape = cone_rays(cone)
    enumerated = primitive_solutions(cone, bound)
    if shape.kind == "trivial":
        assert not enumerated, (cone, enumerated)
    elif shape.kind == "ray":
        d = shape.direction.coords
        expected = {d} if max(abs(c) for c in d) <= bound else set()
        assert enumerated == expected, (cone, shape, enumerated)
    elif shape.kind == "line":
        d = shape.direction.coords
        anti = tuple(-c for c in d)
        expected = {v for v in (d, anti) if max(abs(c) for c in v) <= bound}
        assert enumerated == expected, (cone, shape, enumerated)
    else:
        # higher-dimensional: enumeration must be consistent (and the region
        # genuinely fat: some strictly interior point exists at modest bounds)
        for v in enumerated:
            assert cone.contains(v)
    return shape


def test_cone_examples():
    assert cone_rays(RationalCone(1, [(-1,)])) == ConeShape.ray(Direction((1,)))
    assert cone_rays(RationalCone(2, [(1, 0), (-1, 0)])) == ConeShape.line(Direction((0, 1)))
    shape = cone_rays(RationalCone(2, [(1, 0), (0, 1)]))
    assert shape.kind == "higher" and shape.dimension == 2
    assert RationalCone(2, [(1, 0), (0, 1)]).contains((-1, -1))
    # a failed selfcheck prints the cone
    assert repr(RationalCone(2, [(1, 0), (0, 2)])) == (
        "RationalCone(dim=2, normals=(Direction((0, 1)), Direction((1, 0))))")
    assert RationalCone(2, [(1, 0), (0, 1)]).contains((-2, -1))
    # opposite pairs in the plane leave only the origin
    assert cone_rays(RationalCone(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])) == ConeShape.trivial()
    # single halfspace in R^2 is a halfplane
    assert cone_rays(RationalCone(2, [(1, 1)])).kind == "higher"
    assert cone_rays(RationalCone(3, [(1, 1, 1), (-1, -1, 1)])).kind == "higher"


def test_cone_dimension_cap():
    with pytest.raises(DimensionCapExceeded):
        cone_rays(RationalCone(9, [tuple([1] + [0] * 8)]))


def test_cone_random_cross_check():
    rng = random.Random(314159)
    classified = {"trivial": 0, "ray": 0, "line": 0, "higher": 0}
    checks = 0
    while checks < 150:
        m = rng.randint(1, 3)
        normals = []
        if m >= 2 and rng.random() < 0.3:
            # force hyperplane-pair obstructions so exact lines show up too
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
        cone = RationalCone(m, normals)
        shape = check_against_enumeration(cone)
        classified[shape.kind] += 1
        checks += 1
    # the sweep must actually exercise the exact classifications
    assert classified["trivial"] >= 5
    assert classified["ray"] >= 5
    assert classified["line"] >= 5


def test_structured_cones_all_shapes():
    # hand-built families whose answers are forced
    assert cone_rays(RationalCone(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])) == ConeShape.trivial()
    assert cone_rays(RationalCone(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)])) == ConeShape.ray(Direction((0, 0, -1)))
    assert cone_rays(RationalCone(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)])) == ConeShape.line(Direction((0, 0, 1)))
    shape = cone_rays(RationalCone(3, [(1, 0, 0)]))
    assert shape.kind == "higher" and shape.dimension == 3


# ---------------------------------------------------------------------------
# omega_from_sigma


def test_omega_from_sigma_rank1():
    # obstruction {-1} leaves the +1 ray
    sigma = cofinite_set(1, [(-1,)])
    assert omega_from_sigma(sigma, 1) == single_factor_points(1, [(1,)])
    # no obstruction: everything survives
    assert omega_from_sigma(full_sphere([1]), 1) == full_sphere([1])
    assert omega_from_sigma(empty_set([1]), 1) == empty_set([1])


def test_omega_from_sigma_line():
    sigma = cofinite_set(2, [(1, 0), (-1, 0)])
    assert omega_from_sigma(sigma, 2) == single_factor_points(2, [(0, 1), (0, -1)])


def test_omega_from_sigma_higher_keeps_witness():
    sigma = cofinite_set(2, [(1, 0), (0, 1)])
    omega = omega_from_sigma(sigma, 2)
    assert omega.cardinality().kind == "infinite"
    assert omega.member(Direction((-1, -1)))
    assert not omega.member(Direction((1, 0)))


def test_omega_from_sigma_rejects_outside_fragment():
    with pytest.raises(UnsupportedSigma):
        omega_from_sigma(points_set([2], [(1, 0)]), 2)  # finite sigma, m >= 2
    with pytest.raises(UnsupportedSigma):
        omega_from_sigma(full_sphere([1, 1]), 2)  # joined ambient


def test_omega_from_sigma_brute_force_sweep():
    """omega_from_sigma vs direct enumeration on random obstruction sets."""
    rng = random.Random(2718)
    done = 0
    while done < 100:
        m = rng.randint(1, 3)
        count = rng.randint(1, 3)
        normals = []
        for _ in range(count):
            vec = [0] * m
            while not any(vec):
                vec = [rng.randint(-2, 2) for _ in range(m)]
            normals.append(tuple(vec))
        cone = RationalCone(m, normals)
        sigma = cofinite_set(m, [d.coords for d in cone.normals])
        omega = omega_from_sigma(sigma, m)
        for vec in primitive_solutions(cone, 3):
            assert omega.member(Direction(vec))
        card = omega.cardinality()
        if card.kind == "finite":
            for d in card.points:
                assert cone.contains(d.coords)
        done += 1


# ---------------------------------------------------------------------------
# product formulas


def test_omega_of_product_examples():
    bs = single_factor_points(1, [(1,)])
    free = empty_set([3])
    z = full_sphere([1])
    # one surviving point times empty: the point, embedded
    prod = omega_of_product([bs, free])
    assert prod == points_set([1, 3], [(1, 0, 0, 0)])
    # empty times S^0: two antipodal points
    prod2 = omega_of_product([free, z])
    assert prod2.cardinality().count == 2
    assert prod2.is_antipodal_pair()
    # S^0 times S^0: a full circle
    assert omega_of_product([z, z]) == full_sphere([1, 1])
    assert omega_of_product([z, None]) is None


def test_sigma1_complement_of_product_examples():
    bs_c = single_factor_points(1, [(-1,)])
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
    assert sigma1_complement_of_product([None, z_c]) is None


def pairwise_sigma1_complement_of_product(factor_complements):
    """The level-one complement as k successive unions, each re-normalized."""
    if any(f is None for f in factor_complements):
        return None
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
    """An obstruction set of one factor: unknown, rank 0, rank 1, cofinite,
    cone, full, empty, explicit points, or a set over several blocks."""
    kind = rng.choice(["none", "rank0", "rank1", "cofinite", "cone", "full", "empty",
                       "points", "blocks"])
    rank = rng.randint(2, 4)

    def vec():
        while True:
            v = tuple(rng.randint(-2, 2) for _ in range(rank))
            if any(v):
                return v

    if kind == "none":
        return None
    if kind == "rank0":
        return empty_set([0])
    if kind == "rank1":
        return points_set([1], rng.sample([(1,), (-1,)], rng.randint(0, 2)))
    if kind == "cofinite":
        return cofinite_set(rank, [vec() for _ in range(rng.randint(1, 3))])
    if kind == "cone":
        return SphereSet([rank], [(ConeRegion(Direction(vec()) for _ in range(rng.randint(1, 3))),)])
    if kind == "full":
        return full_sphere([rank])
    if kind == "empty":
        return empty_set([rank])
    if kind == "points":
        return points_set([rank], [vec() for _ in range(rng.randint(1, 3))])
    left, right = random_factor_set(rng), random_factor_set(rng)
    left = full_sphere([1]) if left is None else left
    right = points_set([2], [(1, -1)]) if right is None else right
    return union(join(left, empty_set(right.ambient)), join(empty_set(left.ambient), right))


def test_sigma1_complement_of_product_matches_pairwise_unions():
    rng = random.Random(4242)
    for _ in range(600):
        factors = [random_factor_set(rng) for _ in range(rng.randint(1, 6))]
        expected = pairwise_sigma1_complement_of_product(factors)
        got = sigma1_complement_of_product(factors)
        assert got == expected, factors
        if got is not None:
            assert got.to_json_dict() == expected.to_json_dict()


def test_check_finite12():
    assert check_finite12(single_factor_points(2, [(1, 0)])).ok
    pair = single_factor_points(2, [(1, 0), (-1, 0)])
    assert check_finite12(pair).ok
    bad = single_factor_points(2, [(1, 0), (0, 1)])
    report = check_finite12(bad)
    assert not report.ok and "distance" in report.reason
    assert report.reason == "two points at distance < pi: (Direction((0, 1)), Direction((1, 0)))"
    assert check_finite12(full_sphere([2])).ok
    assert check_finite12(empty_set([2])).ok


def test_o_class_of():
    assert o_class_of(empty_set([2])) == "O0"
    assert o_class_of(single_factor_points(1, [(1,)])) == "O1"
    assert o_class_of(full_sphere([1])) == "O2"
    assert o_class_of(full_sphere([2])) == "other"
    assert o_class_of(None) == "unknown"
