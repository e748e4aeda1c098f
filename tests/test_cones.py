"""Polar-cone computation (double description) cross-checked against
brute-force enumeration of primitive integer vectors, plus the derived-set
operations on sphere data."""

from __future__ import annotations

import random
from itertools import product
from math import gcd

import pytest

from groupinv import cones
from groupinv.catalog import lookup_invariants
from groupinv.cones import (
    DimensionCapExceeded,
    UnsupportedSigma,
    check_finite12,
    o_class_of,
    omega_from_obstructions,
    omega_of_product,
    sigma1_complement_of_product,
)
from groupinv.expressions import parse_group_expr
from groupinv.linalg import matrix_rank
from groupinv.spheres import (
    EMPTY,
    ConeRegion,
    Direction,
    SphereSet,
    empty_set,
    full_sphere,
    join,
    points_set,
    union,
)


def survivors(m: int, normals) -> SphereSet:
    """The polar cone of the normals, as omega_from_obstructions builds it."""
    return omega_from_obstructions(points_set([m], normals))


def inside(vec, normals) -> bool:
    return all(sum(a * b for a, b in zip(vec, f)) <= 0 for f in normals)


def shape(omega: SphereSet) -> str:
    card = omega.cardinality()
    if card.kind == "infinite":
        return "higher"
    return {0: "trivial", 1: "ray", 2: "line"}[card.count]


def primitive_solutions(m: int, normals, bound: int = 5):
    """Every primitive vector with entries in [-bound, bound] inside the cone."""
    seen = set()
    for vec in product(range(-bound, bound + 1), repeat=m):
        if not any(vec):
            continue
        g = 0
        for c in vec:
            g = gcd(g, abs(c))
        if g != 1:
            continue
        if inside(vec, normals):
            seen.add(vec)
    return seen


def check_against_enumeration(m: int, normals, bound: int = 5) -> str:
    omega = survivors(m, normals)
    kind = shape(omega)
    enumerated = primitive_solutions(m, normals, bound)
    if kind == "trivial":
        assert not enumerated, (normals, enumerated)
    elif kind in ("ray", "line"):
        points = omega.cardinality().points
        if kind == "line":
            assert points[0] == points[1].antipode()
        expected = {d.coords for d in points if max(abs(c) for c in d.coords) <= bound}
        assert enumerated == expected, (normals, omega, enumerated)
    else:
        # higher-dimensional: enumeration must be consistent (and the region
        # genuinely fat: some strictly interior point exists at modest bounds)
        for v in enumerated:
            assert omega.member(Direction(v))
    return kind


def test_cone_examples():
    assert survivors(1, [(-1,)]) == points_set([1], [(1,)])
    assert survivors(2, [(1, 0), (-1, 0)]) == points_set([2], [(0, 1), (0, -1)])
    quadrant = ConeRegion([Direction((1, 0)), Direction((0, 1))])
    assert survivors(2, [(1, 0), (0, 1)]) == SphereSet([2], [(quadrant,)])
    assert quadrant.contains(Direction((-1, -1)))
    assert quadrant.contains(Direction((-2, -1)))
    assert not quadrant.contains(Direction((1, -1)))
    # opposite pairs in the plane leave only the origin
    assert survivors(2, [(1, 0), (-1, 0), (0, 1), (0, -1)]) == empty_set([2])
    # single halfspace in R^2 is a halfplane
    assert shape(survivors(2, [(1, 1)])) == "higher"
    assert shape(survivors(3, [(1, 1, 1), (-1, -1, 1)])) == "higher"


def test_cone_dimension_cap():
    with pytest.raises(DimensionCapExceeded):
        survivors(9, [tuple([1] + [0] * 8)])


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
        classified[check_against_enumeration(m, normals)] += 1
        checks += 1
    # the sweep must actually exercise the exact classifications
    assert classified["trivial"] >= 5
    assert classified["ray"] >= 5
    assert classified["line"] >= 5


def test_extreme_rays_stay_outside_the_lineality_space():
    """The returned lines are a basis of the whole lineality space, and no
    returned ray lies in their span: `_minimal_rays` relies on both without
    testing them."""
    rng = random.Random(271828)
    combined = 0
    for _ in range(2000):
        m = rng.randint(1, 6)
        normals = []
        for _ in range(rng.randint(1, 2 * m + 2)):
            vec = [0] * m
            while not any(vec):
                vec = [rng.randint(-3, 3) for _ in range(m)]
            normals.append(Direction(vec))
            if rng.random() < 0.3:
                normals.append(normals[-1].antipode())
        lines, rays = cones.extreme_rays(m, normals)
        rank = matrix_rank([f.coords for f in normals])
        assert len(lines) == m - rank == matrix_rank(lines), normals
        assert all(sum(a * b for a, b in zip(f.coords, l)) == 0
                   for f in normals for l in lines), normals
        for r in rays:
            assert matrix_rank(lines + [r]) > len(lines), (normals, r)
        combined += len(normals) > rank and bool(rays)
    # a quarter of the cones take more normals than their rank and keep rays,
    # so the step that combines rays runs on them
    assert combined >= 500


def test_structured_cones_all_shapes():
    # hand-built families whose answers are forced
    assert survivors(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]) == empty_set([3])
    assert survivors(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)]) == points_set([3], [(0, 0, -1)])
    assert survivors(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]) == points_set([3], [(0, 0, 1), (0, 0, -1)])
    assert shape(survivors(3, [(1, 0, 0)])) == "higher"


def test_no_rank_outside_double_description(monkeypatch):
    """A Thompson-type lookup computes ranks only inside extreme_rays."""
    outside = []
    running = [False]
    rank, dd = cones.matrix_rank, cones.extreme_rays

    def counted_rank(m):
        if not running[0]:
            outside.append(m)
        return rank(m)

    def flagged_dd(*args):
        running[0] = True
        try:
            return dd(*args)
        finally:
            running[0] = False

    monkeypatch.setattr(cones, "matrix_rank", counted_rank)
    monkeypatch.setattr(cones, "extreme_rays", flagged_dd)
    for text in ("Thompson", "T(3)", "T(8)"):
        omega = lookup_invariants(parse_group_expr(text)).omega_at(1)
        assert omega.cardinality().kind == "infinite"
    assert outside == []


# ---------------------------------------------------------------------------
# omega from the obstruction set, the complement of sigma


def test_omega_from_sigma_rank1():
    # obstruction {-1} leaves the +1 ray
    sigma_c = points_set([1], [(-1,)])
    assert omega_from_obstructions(sigma_c) == points_set([1], [(1,)])
    # no obstruction: everything survives
    assert omega_from_obstructions(empty_set([1])) == full_sphere([1])
    # everything obstructed: nothing survives
    assert omega_from_obstructions(full_sphere([1])) == empty_set([1])


def test_omega_from_sigma_line():
    sigma_c = points_set([2], [(1, 0), (-1, 0)])
    assert omega_from_obstructions(sigma_c) == points_set([2], [(0, 1), (0, -1)])


def test_omega_from_sigma_higher_keeps_witness():
    sigma_c = points_set([2], [(1, 0), (0, 1)])
    omega = omega_from_obstructions(sigma_c)
    assert omega.cardinality().kind == "infinite"
    assert omega.member(Direction((-1, -1)))
    assert not omega.member(Direction((1, 0)))


def test_omega_from_sigma_rejects_outside_fragment():
    with pytest.raises(UnsupportedSigma):
        # an infinite obstruction set short of the sphere, m >= 2
        omega_from_obstructions(SphereSet([2], [(ConeRegion([Direction((1, 0))]),)]))
    with pytest.raises(UnsupportedSigma):
        omega_from_obstructions(full_sphere([1, 1]))  # joined ambient


def test_omega_from_sigma_brute_force_sweep():
    """omega_from_obstructions vs direct enumeration on random obstruction sets."""
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
        omega = survivors(m, normals)
        for vec in primitive_solutions(m, normals, 3):
            assert omega.member(Direction(vec))
        card = omega.cardinality()
        if card.kind == "finite":
            for d in card.points:
                assert inside(d.coords, normals)
        done += 1


# ---------------------------------------------------------------------------
# product formulas


def test_omega_of_product_examples():
    bs = points_set([1], [(1,)])
    free = empty_set([3])
    z = full_sphere([1])
    # one surviving point times empty: the point, embedded
    prod = omega_of_product([bs, free])
    assert prod == points_set([1, 3], [(1, 0, 0, 0)])
    # empty times S^0: two antipodal points
    prod2 = omega_of_product([free, z])
    assert prod2.cardinality().count == 2
    assert prod2.cardinality().is_antipodal_pair()
    # S^0 times S^0: a full circle
    assert omega_of_product([z, z]) == full_sphere([1, 1])
    assert omega_of_product([z, None]) is None


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
    """An obstruction set of one factor: unknown, rank 0, rank 1, cone, full,
    empty, explicit points, or a set over several blocks."""
    kind = rng.choice(["none", "rank0", "rank1", "cone", "full", "empty", "points", "blocks"])
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
    assert check_finite12(points_set([2], [(1, 0)])).ok
    pair = points_set([2], [(1, 0), (-1, 0)])
    assert check_finite12(pair).ok
    bad = points_set([2], [(1, 0), (0, 1)])
    report = check_finite12(bad)
    assert not report.ok and "distance" in report.reason
    assert report.reason == "two points at distance < pi: (Direction((0, 1)), Direction((1, 0)))"
    assert check_finite12(full_sphere([2])).ok
    assert check_finite12(empty_set([2])).ok


def test_o_class_of():
    assert o_class_of(empty_set([2])) == "O0"
    assert o_class_of(points_set([1], [(1,)])) == "O1"
    assert o_class_of(full_sphere([1])) == "O2"
    assert o_class_of(full_sphere([2])) == "other"
    assert o_class_of(None) == "unknown"
