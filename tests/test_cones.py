"""Polar-cone computation (double description) cross-checked against
brute-force enumeration of primitive integer vectors, and the structural gate
on finite survivor sets."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import product
from math import gcd
from pathlib import Path

import pytest

import groupinv
from groupinv import cones, linalg, rinf
from groupinv.catalog import lookup_invariants
from groupinv.cones import UnsupportedSigma, check_finite12, omega_from_obstructions
from groupinv.expressions import parse_group_expr
from groupinv.linalg import matrix_rank
from groupinv.spheres import (
    ConeRegion,
    DimensionCapExceeded,
    Direction,
    SphereSet,
    empty_set,
    full_sphere,
    points_set,
)

SRC = Path(groupinv.__file__).resolve().parents[1]


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


def test_thompson_type_queries_run_no_double_description(monkeypatch):
    """Thompson-type atoms take Ω in closed form: their lookups compute no
    rank and no double description, and deciding them runs no `cones` code."""
    def refuse(*args):
        raise AssertionError("called on the query path")

    texts = ("Thompson", "T(3)", "T(8)", "BS(1,2) x T(5)")
    for module in (cones, linalg, rinf):
        monkeypatch.setattr(module, "matrix_rank", refuse)
    monkeypatch.setattr(cones, "extreme_rays", refuse)
    for text in texts:
        omega = lookup_invariants(parse_group_expr(text)).omega_at(1)
        assert omega.cardinality().kind == "infinite", text
    # deciding them, in a fresh interpreter, never runs `cones`: the package
    # registers it lazily, so its entry in sys.modules stays a lazy module
    # unless an attribute of it is read
    proc = subprocess.run([sys.executable, "-c", _DECIDE_WITHOUT_CONES, *texts],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ran", "no", "cones"]


_DECIDE_WITHOUT_CONES = """
import sys, types
from groupinv.expressions import parse_group_expr
from groupinv.rinf import RINFINITY, decide
for text in sys.argv[1:]:
    assert decide(parse_group_expr(text)).conclusion == RINFINITY, text
cones = sys.modules.get("groupinv.cones")
print("ran", "some" if type(cones) is types.ModuleType else "no", "cones")
"""


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
