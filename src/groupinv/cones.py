"""Truncated-cone side of the invariants, as exact polyhedral geometry.

A direction e survives at level n exactly when its whole open quarter-sphere
neighborhood avoids the obstruction set F, i.e. <e, f> <= 0 for every f in F.
The surviving directions therefore form the polar cone of F.
`omega_from_obstructions` reads them straight off F, the complement of the
Bieri-Neumann-Strebel invariant that the catalog stores: the double
description method finds the cone's lines and extreme rays exactly over the
integers, and the survivors are nothing, the one ray, the line's two ends, or
else the infinite `ConeRegion` cut out by F.

The product formula says the invariant of a direct product is the spherical
join of the factor invariants; both that and the union formula for the
level-one obstruction set of a product are implemented on SphereSets.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from . import _Record
from .linalg import matrix_rank
from .spheres import (
    EMPTY,
    FULL,
    ConeRegion,
    Direction,
    FinitePoints,
    SphereSet,
    _blocks,
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


def _primitive(vec: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*vec)
    if g <= 1:
        return tuple(vec)
    return tuple(c // g for c in vec)


def _combine(pos: Sequence[int], neg: Sequence[int], fp: int, fn: int) -> tuple[int, ...]:
    """Conic combination lying on <., f> = 0 given <pos,f> = fp > 0 > fn = <neg,f>."""
    return _primitive(tuple(fp * bn - fn * bp for bp, bn in zip(pos, neg)))


def extreme_rays(m: int, normals: Sequence[Direction]
                 ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Double description of {x in R^m : <x, f> <= 0 for every normal f}:
    returns (lineality basis, extreme rays modulo lineality).

    Constraints are inserted one at a time.  While a free line crosses the new
    hyperplane it is folded into a ray; otherwise the surviving rays plus all
    positive/negative boundary combinations are generated and the set is cut
    back to the true extreme rays by an exact rank test (a ray of the cone so
    far is extreme iff its tight normals have rank m - dim(lineality) - 1).
    """
    check_cone_dim(m)
    if m == 0:
        return [], []
    lines: list[tuple[int, ...]] = [tuple(1 if i == j else 0 for j in range(m)) for i in range(m)]
    rays: list[tuple[int, ...]] = []
    processed: list[Direction] = []

    for f in normals:
        fc = f.coords

        def val(v):
            return sum(a * b for a, b in zip(fc, v))

        hit = next((i for i, l in enumerate(lines) if val(l) != 0), None)
        if hit is not None:
            l0 = lines.pop(hit)
            v0 = val(l0)
            # project the remaining lines into the hyperplane of f
            lines = [_primitive(tuple(v0 * x - vl * y for x, y in zip(l, l0)))
                     for l, vl in zip(lines, map(val, lines))]
            if v0 > 0:
                l0 = tuple(-x for x in l0)
                v0 = -v0
            # slide existing rays along the old line into the hyperplane
            rays = [r if vr == 0 else
                    _primitive(tuple((-v0) * x + vr * y for x, y in zip(r, l0)))
                    for r, vr in zip(rays, map(val, rays))]
            rays.append(l0)
        else:
            vals = [val(r) for r in rays]
            kept = [r for r, v in zip(rays, vals) if v <= 0]
            combos = [
                _combine(rp, rn, vp, vn)
                for rp, vp in zip(rays, vals) if vp > 0
                for rn, vn in zip(rays, vals) if vn < 0
            ]
            rays = kept + combos
        processed.append(f)
        rays = _minimal_rays(rays, lines, processed, m)
    return lines, rays


def _minimal_rays(rays: list[tuple[int, ...]], lines: list[tuple[int, ...]],
                  normals: list[Direction], m: int) -> list[tuple[int, ...]]:
    """The extreme rays among ``rays``, without repeats: a ray is extreme iff
    its tight normals cut the space down to a one-dimensional face above the
    lineality space.

    A vector in the span of ``lines``, zero included, has every processed
    normal tight, of rank m - len(lines), so the rank test would refuse it.
    But no candidate lies in that span, so none is zero: the rays kept from
    the step before lie outside it, and so does every candidate made from
    them.

    - ``lines`` is always a basis of the whole lineality space, the x with
      <x, f> = 0 for every processed f: a crossing line is projected out
      together with f's hyperplane, and otherwise f vanishes on all of it.
    - Sliding a ray r along the crossing line l0 gives -v0 r + <r, f> l0 with
      v0 != 0 and l0 in the old lineality space, so it lies in that space
      (which holds the new one) only if r does.  The new ray l0 has
      <l0, f> != 0, so it is outside the new lineality space, which lies in
      f's hyperplane.
    - A combination of a ray rp with <rp, f> > 0 and a ray rn with
      <rn, f> < 0 is a positive sum a rp + b rn.  It lies in the lineality
      space only if rp and rn are opposite modulo that space.  Then -rp is in
      the cone processed so far, so the line through rp is in it, although
      rp lies outside the lineality space, which holds every such line.
    """
    target = m - len(lines) - 1
    out: list[tuple[int, ...]] = []
    for r in rays:
        if r in out:
            continue
        tight = [list(f.coords) for f in normals
                 if sum(a * b for a, b in zip(f.coords, r)) == 0]
        rank = matrix_rank(tight) if tight else 0
        if rank == target:
            out.append(r)
    return out


# ---------------------------------------------------------------------------
# level invariants from obstruction data


def omega_from_obstructions(sigma_c: SphereSet) -> SphereSet:
    """Directions whose open quarter-sphere neighborhood avoids every point of
    the obstruction set of one factor: the whole sphere when nothing is
    obstructed, nothing when everything is, and otherwise the polar cone of
    the finitely many obstructed points."""
    if len(sigma_c.ambient) != 1:
        raise UnsupportedSigma("expected a single-factor ambient")
    m = sigma_c.ambient[0]
    if sigma_c.is_empty():
        return full_sphere([m])
    parts = [atom[0] for atom in sigma_c.atoms]
    if parts == [FULL]:
        return empty_set([m])
    if len(parts) != 1 or not isinstance(parts[0], FinitePoints):
        raise UnsupportedSigma("obstruction set is neither empty, full, nor finite")
    obstructions = parts[0].points
    lines, rays = extreme_rays(m, obstructions)
    if not lines and len(rays) <= 1:
        return points_set([m], rays)  # nothing, or the one ray
    if len(lines) == 1 and not rays:
        return points_set([m], [lines[0], tuple(-c for c in lines[0])])
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


class Finite12Report(_Record):
    __slots__ = ("ok", "cardinality", "reason")

    def __init__(self, ok: bool, cardinality: str, reason: str = ""):
        self._set(ok, cardinality, reason)


def check_finite12(omega: SphereSet) -> Finite12Report:
    """Finite non-empty invariants must be a single point or an antipodal pair."""
    card = omega.cardinality()
    if card.kind != "finite":
        return Finite12Report(ok=True, cardinality=card.describe())
    if card.count == 1:
        return Finite12Report(ok=True, cardinality="1")
    if card.count == 2:
        if card.is_antipodal_pair():
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

