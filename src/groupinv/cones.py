"""Truncated-cone side of the invariants, as exact polyhedral geometry.

A direction e survives at level n exactly when its whole open quarter-sphere
neighborhood avoids the obstruction set F, i.e. <e, f> <= 0 for every f in F.
The surviving directions therefore form the polar cone of F, which this
module computes exactly over the integers with the double description method
and classifies as trivial / one ray / a full line / higher dimensional.

The product formula says the invariant of a direct product is the spherical
join of the factor invariants; both that and the complement formula for the
level-one obstruction set of a product are implemented on SphereSets.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from . import _refuse_assignment
from .abelian import matrix_rank
from .spheres import (
    EMPTY,
    ConeRegion,
    Direction,
    FinitePoints,
    SphereSet,
    UnsupportedComplement,
    _blocks,
    complement,
    empty_set,
    full_sphere,
    join_all,
    points_set,
)


class UnsupportedSigma(ValueError):
    pass


class DimensionCapExceeded(ValueError):
    pass


MAX_CONE_DIM = 8


def check_cone_dim(m: int) -> None:
    if m > MAX_CONE_DIM:
        raise DimensionCapExceeded("cone dimension %d exceeds cap %d" % (m, MAX_CONE_DIM))


class RationalCone:
    """{x in R^m : <x, f> <= 0 for all normals f}.  Immutable."""

    __slots__ = ("dim", "normals")

    def __init__(self, dim: int, normals: Iterable[Sequence[int] | Direction]):
        ns = []
        for f in normals:
            d = f if isinstance(f, Direction) else Direction(f)
            if len(d) != dim:
                raise ValueError("normal length does not match the cone dimension")
            ns.append(d)
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "normals", tuple(sorted(set(ns))))

    __setattr__ = __delattr__ = _refuse_assignment

    def __repr__(self):
        return "RationalCone(dim=%r, normals=%r)" % (self.dim, self.normals)

    def contains(self, vec: Sequence[int]) -> bool:
        return all(sum(a * b for a, b in zip(f.coords, vec)) <= 0 for f in self.normals)


class ConeShape:
    """Immutable; equal by its three fields."""

    __slots__ = ("kind", "direction", "dimension")

    def __init__(self, kind: str, direction: Direction | None = None, dimension: int = 0):
        object.__setattr__(self, "kind", kind)  # "trivial" | "ray" | "line" | "higher"
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "dimension", dimension)

    __setattr__ = __delattr__ = _refuse_assignment

    def __eq__(self, other):
        if other.__class__ is ConeShape:
            return ((self.kind, self.direction, self.dimension)
                    == (other.kind, other.direction, other.dimension))
        return NotImplemented

    @staticmethod
    def trivial() -> "ConeShape":
        return ConeShape("trivial", None, 0)

    @staticmethod
    def ray(d: Direction) -> "ConeShape":
        return ConeShape("ray", d, 1)

    @staticmethod
    def line(d: Direction) -> "ConeShape":
        return ConeShape("line", d, 1)

    @staticmethod
    def higher(dim: int) -> "ConeShape":
        return ConeShape("higher", None, dim)


def _primitive(vec: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*vec)
    if g <= 1:
        return tuple(vec)
    return tuple(c // g for c in vec)


def _combine(pos: Sequence[int], neg: Sequence[int], fp: int, fn: int) -> tuple[int, ...]:
    """Conic combination lying on <., f> = 0 given <pos,f> = fp > 0 > fn = <neg,f>."""
    return _primitive(tuple(fp * bn - fn * bp for bp, bn in zip(pos, neg)))


def extreme_rays(cone: RationalCone) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Double description: returns (lineality basis, extreme rays modulo lineality).

    Constraints are inserted one at a time.  While a free line crosses the new
    hyperplane it is folded into a ray; otherwise the surviving rays plus all
    positive/negative boundary combinations are generated and the set is cut
    back to the true extreme rays by an exact rank test (a ray of the cone so
    far is extreme iff its tight normals have rank m - dim(lineality) - 1).
    """
    m = cone.dim
    check_cone_dim(m)
    if m == 0:
        return [], []
    lines: list[tuple[int, ...]] = [tuple(1 if i == j else 0 for j in range(m)) for i in range(m)]
    rays: list[tuple[int, ...]] = []
    processed: list[Direction] = []

    for f in cone.normals:
        fc = f.coords

        def val(v):
            return sum(a * b for a, b in zip(fc, v))

        hit = next((i for i, l in enumerate(lines) if val(l) != 0), None)
        if hit is not None:
            l0 = lines.pop(hit)
            v0 = val(l0)
            # project the remaining lines into the hyperplane of f
            lines = [_primitive(tuple(v0 * x - val(l) * y for x, y in zip(l, l0)))
                     for l in lines]
            if v0 > 0:
                l0 = tuple(-x for x in l0)
                v0 = -v0
            # slide existing rays along the old line into the hyperplane
            rays = [r if val(r) == 0 else
                    _primitive(tuple((-v0) * x + val(r) * y for x, y in zip(r, l0)))
                    for r in rays]
            rays.append(l0)
        else:
            vals = [val(r) for r in rays]
            kept = [r for r, v in zip(rays, vals) if v <= 0]
            combos = [
                _combine(rp, rn, vp, vn)
                for rp, vp in zip(rays, vals) if vp > 0
                for rn, vn in zip(rays, vals) if vn < 0
            ]
            rays = kept + [c for c in combos if any(c)]
        processed.append(f)
        rays = _minimal_rays(rays, lines, processed, m)
    return lines, rays


def _minimal_rays(rays: list[tuple[int, ...]], lines: list[tuple[int, ...]],
                  normals: list[Direction], m: int) -> list[tuple[int, ...]]:
    # a ray is extreme iff its tight normals cut the space down to a
    # one-dimensional face above the lineality space
    target = m - len(lines) - 1
    out: list[tuple[int, ...]] = []
    for r in rays:
        if not any(r) or r in out or _in_span(r, lines):
            continue
        tight = [list(f.coords) for f in normals
                 if sum(a * b for a, b in zip(f.coords, r)) == 0]
        rank = matrix_rank(tight) if tight else 0
        if rank == target:
            out.append(r)
    return out


def _in_span(vec: Sequence[int], basis: list[tuple[int, ...]]) -> bool:
    if not basis:
        return False
    # the lineality basis is linearly independent, so its rank is its length
    return matrix_rank(basis + [vec]) == len(basis)


def cone_rays(cone: RationalCone) -> ConeShape:
    """Exact shape classification of the cone over the rationals."""
    lines, rays = extreme_rays(cone)
    if not lines and not rays:
        return ConeShape.trivial()
    if not lines and len(rays) == 1:
        return ConeShape.ray(Direction(rays[0]))
    if len(lines) == 1 and not rays:
        vec = lines[0]
        lead = next(c for c in vec if c)  # sign of a line is a convention; fix it
        if lead < 0:
            vec = tuple(-c for c in vec)
        return ConeShape.line(Direction(vec))
    dim = matrix_rank([list(v) for v in lines + rays])
    return ConeShape.higher(dim)


# ---------------------------------------------------------------------------
# level invariants from obstruction data


def omega_from_sigma(sigma: SphereSet, m: int) -> SphereSet:
    """Directions whose open quarter-sphere neighborhood avoids the obstruction
    set; exact via the polar cone when the obstruction set is finite."""
    if len(sigma.ambient) != 1 or sigma.ambient[0] != m:
        raise UnsupportedSigma("expected a single-factor ambient of rank %d" % m)
    if sigma.is_empty():
        return empty_set([m])
    if sigma.is_full():
        return full_sphere([m])
    try:
        parts = [atom[0] for atom in complement(sigma).atoms]
    except UnsupportedComplement:
        parts = []
    if len(parts) != 1 or not isinstance(parts[0], FinitePoints):
        raise UnsupportedSigma("set is neither full, empty, nor cofinite")
    obstructions = parts[0].points
    shape = cone_rays(RationalCone(m, obstructions))
    if shape.kind == "trivial":
        return empty_set([m])
    if shape.kind == "ray":
        return points_set([m], [shape.direction.coords])
    if shape.kind == "line":
        return points_set([m], [shape.direction.coords, shape.direction.antipode().coords])
    return SphereSet([m], [(ConeRegion(obstructions),)])


def omega_of_product(factors: Sequence[SphereSet | None]) -> SphereSet | None:
    """Spherical join of the factor invariants; unknown factors poison the result."""
    if any(f is None for f in factors):
        return None
    return join_all(list(factors))


def sigma1_complement_of_product(factor_complements: Sequence[SphereSet | None]) -> SphereSet | None:
    """Obstruction set of a direct product at level one: the union of the
    factor obstruction sets embedded along their coordinate blocks (the level
    zero obstruction sets of finitely generated groups are empty).

    The embedded atoms of different factors have disjoint supports, so the
    normal form never merges or subsumes across factors, and one SphereSet of
    all of them equals the union taken factor by factor."""
    if any(f is None for f in factor_complements):
        return None
    full_ambient = tuple(r for f in factor_complements for r in f.ambient)
    k = len(full_ambient)
    blocks = _blocks(len(f.ambient) for f in factor_complements)
    atoms = [(EMPTY,) * start + atom + (EMPTY,) * (k - end)
             for f, (start, end) in zip(factor_complements, blocks) for atom in f.atoms]
    return SphereSet(full_ambient, atoms)


# ---------------------------------------------------------------------------
# structural gates


class Finite12Report:
    """Immutable."""

    __slots__ = ("ok", "cardinality", "reason")

    def __init__(self, ok: bool, cardinality: str, reason: str = ""):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "cardinality", cardinality)
        object.__setattr__(self, "reason", reason)

    __setattr__ = __delattr__ = _refuse_assignment


def check_finite12(omega: SphereSet) -> Finite12Report:
    """Finite non-empty invariants must be a single point or an antipodal pair."""
    card = omega.cardinality()
    if card.kind != "finite":
        return Finite12Report(ok=True, cardinality=card.describe())
    if card.count == 1:
        return Finite12Report(ok=True, cardinality="1")
    if card.count == 2:
        if omega.is_antipodal_pair():
            return Finite12Report(ok=True, cardinality="2")
        return Finite12Report(ok=False, cardinality="2",
                              reason="two points at distance < pi: %r" % (card.points,))
    return Finite12Report(ok=False, cardinality=str(card.count),
                          reason="finite cardinality outside {1, 2}")


O_CLASS_0 = "O0"
O_CLASS_1 = "O1"
O_CLASS_2 = "O2"
O_CLASS_OTHER = "other"
O_CLASS_UNKNOWN = "unknown"


def o_class_of(omega: SphereSet | None) -> str:
    """Class by invariant cardinality with all points rational (explicit point
    sets are integer vectors, hence rational automatically)."""
    if omega is None:
        return O_CLASS_UNKNOWN
    card = omega.cardinality()
    if card.kind == "zero":
        return O_CLASS_0
    if card.kind == "finite" and card.count == 1:
        return O_CLASS_1
    if card.kind == "finite" and card.count == 2:
        return O_CLASS_2
    return O_CLASS_OTHER

