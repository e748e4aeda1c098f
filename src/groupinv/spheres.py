"""Symbolic subsets of the character sphere S^(m-1) in join normal form.

A SphereSet lives over a decomposition of R^m into orthogonal coordinate
blocks ("factors").  It is a finite union of join atoms; each atom assigns one
part per factor and denotes the iterated spherical join of those parts, with
the convention that an empty part is simply skipped (join with the empty set
embeds the other side).  Parts are either nothing, the whole factor sphere, a
finite set of rational directions, the complement of a finite set, or the
directions of an exact rational polyhedral cone (used to witness provably
infinite sets without enumerating them).

Only rational points, i.e. primitive integer vectors, are ever explicit.
Rank-one factor spheres consist of exactly two points and are normalized to
explicit point sets, which keeps the cardinality classification exact.  All
geometry is integer arithmetic; there is no floating point anywhere.
"""

from __future__ import annotations

from functools import total_ordering
from math import gcd
from typing import Iterable, Sequence

from . import _refuse_assignment


class AmbientMismatch(ValueError):
    pass


class UnsupportedComplement(ValueError):
    pass


# ---------------------------------------------------------------------------
# directions


@total_ordering
class Direction:
    """Primitive non-zero integer vector; one rational point of a sphere.
    Immutable; equal, hashed and ordered by its coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[int]):
        vec = tuple(int(c) for c in coords)
        if not vec or all(c == 0 for c in vec):
            raise ValueError("direction must be a non-zero vector")
        g = gcd(*vec)
        if g > 1:
            vec = tuple(c // g for c in vec)
        object.__setattr__(self, "coords", vec)

    __setattr__ = __delattr__ = _refuse_assignment

    def __eq__(self, other):
        if other.__class__ is Direction:
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash((self.coords,))

    def __lt__(self, other):
        if other.__class__ is Direction:
            return self.coords < other.coords
        return NotImplemented

    def __len__(self) -> int:
        return len(self.coords)

    def antipode(self) -> "Direction":
        return Direction(tuple(-c for c in self.coords))

    def dot(self, other: "Direction | Sequence[int]") -> int:
        coords = other.coords if isinstance(other, Direction) else other
        return sum(a * b for a, b in zip(self.coords, coords))

    def norm_sq(self) -> int:
        return sum(c * c for c in self.coords)

    def __repr__(self):
        return "Direction(%s)" % (self.coords,)


# ---------------------------------------------------------------------------
# per-factor parts

EMPTY = "empty"
FULL = "full"


# the parts are immutable; each is equal, hashed and ordered by its one field


@total_ordering
class FinitePoints:
    __slots__ = ("points",)

    def __init__(self, points: Iterable[Direction]):
        object.__setattr__(self, "points", tuple(sorted(set(points))))
        if not self.points:
            raise ValueError("use EMPTY for an empty part")

    __setattr__ = __delattr__ = _refuse_assignment

    def __eq__(self, other):
        if other.__class__ is FinitePoints:
            return self.points == other.points
        return NotImplemented

    def __hash__(self):
        return hash((self.points,))

    def __lt__(self, other):
        if other.__class__ is FinitePoints:
            return self.points < other.points
        return NotImplemented

    def __repr__(self):
        return "FinitePoints(points=%r)" % (self.points,)


@total_ordering
class CofinitePoints:
    __slots__ = ("excluded",)

    def __init__(self, excluded: Iterable[Direction]):
        object.__setattr__(self, "excluded", tuple(sorted(set(excluded))))

    __setattr__ = __delattr__ = _refuse_assignment

    def __eq__(self, other):
        if other.__class__ is CofinitePoints:
            return self.excluded == other.excluded
        return NotImplemented

    def __hash__(self):
        return hash((self.excluded,))

    def __lt__(self, other):
        if other.__class__ is CofinitePoints:
            return self.excluded < other.excluded
        return NotImplemented

    def __repr__(self):
        return "CofinitePoints(excluded=%r)" % (self.excluded,)


@total_ordering
class ConeRegion:
    """Directions d with <d, f> <= 0 for every listed normal.

    Constructed only for cones of dimension >= 2, so the denoted set is
    guaranteed infinite; the normals are the witness description.
    """

    __slots__ = ("normals",)

    def __init__(self, normals: Iterable[Direction]):
        object.__setattr__(self, "normals", tuple(sorted(set(normals))))
        if not self.normals:
            raise ValueError("cone region requires at least one normal")

    __setattr__ = __delattr__ = _refuse_assignment

    def __eq__(self, other):
        if other.__class__ is ConeRegion:
            return self.normals == other.normals
        return NotImplemented

    def __hash__(self):
        return hash((self.normals,))

    def __lt__(self, other):
        if other.__class__ is ConeRegion:
            return self.normals < other.normals
        return NotImplemented

    def __repr__(self):
        return "ConeRegion(normals=%r)" % (self.normals,)


Part = object  # EMPTY | FULL | FinitePoints | CofinitePoints | ConeRegion
JoinAtom = tuple  # one Part per factor

# S^0 = {+1, -1}, the whole sphere of a rank-one factor
_RANK_ONE_SPHERE = frozenset({Direction((1,)), Direction((-1,))})


def _blocks(sizes: Iterable[int]) -> list[tuple[int, int]]:
    """(start, end) slices of consecutive blocks of the given sizes."""
    out = []
    pos = 0
    for size in sizes:
        out.append((pos, pos + size))
        pos += size
    return out


def _part_sort_key(part):
    if part is EMPTY:
        return (0,)
    if part is FULL:
        return (1,)
    if isinstance(part, FinitePoints):
        return (2, part.points)
    if isinstance(part, CofinitePoints):
        return (3, part.excluded)
    return (4, part.normals)


def _atom_sort_key(atom: JoinAtom):
    return tuple(_part_sort_key(p) for p in atom)


def _normalize_part(part, rank: int):
    if rank == 0:
        # S^(-1) is empty; nothing can live on a rank-zero factor
        if isinstance(part, FinitePoints):
            raise ValueError("no directions exist on a rank-zero factor")
        return EMPTY
    if isinstance(part, (FinitePoints, CofinitePoints)):
        pts = part.points if isinstance(part, FinitePoints) else part.excluded
        for d in pts:
            if len(d) != rank:
                raise ValueError("direction length %d does not match factor rank %d" % (len(d), rank))
    if isinstance(part, ConeRegion):
        for d in part.normals:
            if len(d) != rank:
                raise ValueError("cone normal length mismatch")
    if rank == 1:
        # S^0 = {+1, -1}: everything collapses to explicit points
        if part is FULL:
            return FinitePoints(_RANK_ONE_SPHERE)
        if isinstance(part, CofinitePoints):
            rest = _RANK_ONE_SPHERE.difference(part.excluded)
            return FinitePoints(rest) if rest else EMPTY
        if isinstance(part, ConeRegion):
            rest = {d for d in _RANK_ONE_SPHERE if all(d.dot(f) <= 0 for f in part.normals)}
            return FinitePoints(rest) if rest else EMPTY
        return part
    if isinstance(part, CofinitePoints) and not part.excluded:
        return FULL
    return part


def _part_subset(a, b) -> bool:
    """Decidable fragment of part containment; False when undecided."""
    if a is EMPTY:
        return True
    if b is FULL:
        return True
    if a is FULL:
        return b is FULL
    if isinstance(a, FinitePoints):
        if isinstance(b, FinitePoints):
            return set(a.points) <= set(b.points)
        if isinstance(b, CofinitePoints):
            return not (set(a.points) & set(b.excluded))
        if isinstance(b, ConeRegion):
            return all(all(p.dot(f) <= 0 for f in b.normals) for p in a.points)
        return False
    if isinstance(a, CofinitePoints):
        if isinstance(b, CofinitePoints):
            return set(b.excluded) <= set(a.excluded)
        return False
    if isinstance(a, ConeRegion):
        if isinstance(b, ConeRegion):
            return set(b.normals) <= set(a.normals)
        return False
    return False


# ---------------------------------------------------------------------------
# sphere sets


class SphereSet:
    """Union of join atoms over a factor decomposition of R^m.  Immutable;
    equal and hashed by its ambient and its atoms in normal form."""

    __slots__ = ("ambient", "atoms")

    def __init__(self, ambient: Iterable[int], atoms: Iterable[JoinAtom]):
        ambient = tuple(int(r) for r in ambient)
        if not ambient or any(r < 0 for r in ambient):
            raise ValueError("ambient must list non-negative factor ranks")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "atoms", _normal_form(ambient, atoms))

    __setattr__ = __delattr__ = _refuse_assignment

    def __eq__(self, other):
        if other.__class__ is SphereSet:
            return (self.ambient, self.atoms) == (other.ambient, other.atoms)
        return NotImplemented

    def __hash__(self):
        return hash((self.ambient, self.atoms))

    # -- structure ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return sum(self.ambient)

    def is_empty(self) -> bool:
        return not self.atoms

    def is_full(self) -> bool:
        return self == full_sphere(self.ambient)

    def blocks(self) -> list[tuple[int, int]]:
        """(start, end) coordinate slices of the factors."""
        return _blocks(self.ambient)

    # -- queries -----------------------------------------------------------

    def member(self, d: Direction) -> bool:
        if len(d) != self.dim:
            raise AmbientMismatch("direction lives on S^%d, set on S^%d" % (len(d) - 1, self.dim - 1))
        comps = self._split(d)
        return any(self._atom_member(atom, comps) for atom in self.atoms)

    def _split(self, d: Direction) -> list[Direction | None]:
        comps: list[Direction | None] = []
        for start, end in self.blocks():
            block = d.coords[start:end]
            comps.append(Direction(block) if any(block) else None)
        return comps

    @staticmethod
    def _atom_member(atom: JoinAtom, comps: Sequence[Direction | None]) -> bool:
        for part, comp in zip(atom, comps):
            if comp is None:
                continue
            if part is EMPTY:
                return False
            if part is FULL:
                continue
            if isinstance(part, FinitePoints):
                if comp not in part.points:
                    return False
            elif isinstance(part, CofinitePoints):
                if comp in part.excluded:
                    return False
            elif isinstance(part, ConeRegion):
                if any(comp.dot(f) > 0 for f in part.normals):
                    return False
        return True

    def cardinality(self) -> "Cardinality":
        points: set[tuple[int, ...]] = set()
        for atom in self.atoms:
            live = [(i, p) for i, p in enumerate(atom) if p is not EMPTY]
            if len(live) >= 2:
                return Cardinality.infinite()
            i, part = live[0]
            if isinstance(part, FinitePoints):
                start, end = self.blocks()[i]
                for d in part.points:
                    vec = [0] * self.dim
                    vec[start:end] = d.coords
                    points.add(tuple(vec))
            else:
                # FULL or cofinite on rank >= 2, or a cone region: infinite
                return Cardinality.infinite()
        if not points:
            return Cardinality.zero()
        return Cardinality.finite(tuple(sorted(Direction(v) for v in points)))

    def is_antipodal_pair(self) -> bool:
        card = self.cardinality()
        return (card.kind == "finite" and card.count == 2
                and card.points[0] == card.points[1].antipode())

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        def encode(part):
            if part is EMPTY:
                return "empty"
            if part is FULL:
                return "full"
            if isinstance(part, FinitePoints):
                return {"points": [list(d.coords) for d in part.points]}
            if isinstance(part, CofinitePoints):
                return {"cofinite": [list(d.coords) for d in part.excluded]}
            return {"cone": [list(d.coords) for d in part.normals]}

        return {"ambient": list(self.ambient),
                "atoms": [[encode(p) for p in atom] for atom in self.atoms]}

    def __repr__(self):
        return "SphereSet(ambient=%r, atoms=%r)" % (self.ambient, self.atoms)


class Cardinality:
    """Immutable; equal and hashed by its three fields."""

    __slots__ = ("kind", "count", "points")

    def __init__(self, kind: str, count: int | None = None, points: tuple[Direction, ...] = ()):
        object.__setattr__(self, "kind", kind)  # "zero" | "finite" | "infinite"
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "points", points)

    __setattr__ = __delattr__ = _refuse_assignment

    def __eq__(self, other):
        if other.__class__ is Cardinality:
            return ((self.kind, self.count, self.points)
                    == (other.kind, other.count, other.points))
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.count, self.points))

    @staticmethod
    def zero() -> "Cardinality":
        return Cardinality("zero", 0, ())

    @staticmethod
    def finite(points: tuple[Direction, ...]) -> "Cardinality":
        return Cardinality("finite", len(points), points)

    @staticmethod
    def infinite() -> "Cardinality":
        return Cardinality("infinite")

    def describe(self) -> str:
        if self.kind == "infinite":
            return "infinite"
        return str(self.count)


def _normal_form(ambient: tuple[int, ...], atoms: Iterable[JoinAtom]) -> tuple[JoinAtom, ...]:
    k = len(ambient)
    cleaned = []
    for atom in atoms:
        atom = tuple(atom)
        if len(atom) != k:
            raise ValueError("atom has %d parts for %d factors" % (len(atom), k))
        atom = tuple(_normalize_part(p, r) for p, r in zip(atom, ambient))
        if all(p is EMPTY for p in atom):
            continue
        cleaned.append(atom)
    # merge atoms differing in exactly one finite-points slot
    changed = True
    while changed:
        changed = False
        out: list[JoinAtom] = []
        for atom in cleaned:
            for idx, other in enumerate(out):
                diff = [i for i in range(k) if atom[i] != other[i]]
                if (len(diff) == 1 and isinstance(atom[diff[0]], FinitePoints)
                        and isinstance(other[diff[0]], FinitePoints)):
                    i = diff[0]
                    merged = list(other)
                    merged[i] = FinitePoints(set(atom[i].points) | set(other[i].points))
                    out[idx] = tuple(merged)
                    changed = True
                    break
            else:
                if atom not in out:
                    out.append(atom)
                    continue
        cleaned = out
    # drop atoms subsumed part-wise by another atom
    kept: list[JoinAtom] = []
    for i, atom in enumerate(cleaned):
        subsumed = False
        for j, other in enumerate(cleaned):
            if i == j or atom == other:
                continue
            if all(_part_subset(a, b) for a, b in zip(atom, other)):
                subsumed = True
                break
        if not subsumed:
            kept.append(atom)
    return tuple(sorted(set(kept), key=_atom_sort_key))


# ---------------------------------------------------------------------------
# constructors


def empty_set(ambient: Iterable[int]) -> SphereSet:
    return SphereSet(ambient, [])


def full_sphere(ambient: Iterable[int]) -> SphereSet:
    ambient = tuple(int(r) for r in ambient)
    atom = tuple(EMPTY if r == 0 else FULL for r in ambient)
    return SphereSet(ambient, [atom])


def points_set(ambient: Iterable[int], vectors: Iterable[Sequence[int]]) -> SphereSet:
    """Finite set of rational points, each supported on a single factor block."""
    ambient = tuple(int(r) for r in ambient)
    blocks = _blocks(ambient)
    dim = sum(ambient)
    atoms = []
    for vec in vectors:
        d = Direction(vec)
        if len(d) != dim:
            raise ValueError("vector length does not match ambient dimension")
        live = [i for i, (s, e) in enumerate(blocks) if any(d.coords[s:e])]
        if len(live) != 1:
            raise ValueError("explicit points must be supported on a single factor")
        i = live[0]
        s, e = blocks[i]
        atom = [EMPTY] * len(ambient)
        atom[i] = FinitePoints([Direction(d.coords[s:e])])
        atoms.append(tuple(atom))
    return SphereSet(ambient, atoms)


def single_factor_points(rank: int, vectors: Iterable[Sequence[int]]) -> SphereSet:
    return points_set([rank], vectors)


# ---------------------------------------------------------------------------
# operations


def join(a: SphereSet, b: SphereSet) -> SphereSet:
    """Spherical join over the concatenated orthogonal decomposition.

    Join with the empty set embeds the other side into the bigger sphere.
    """
    ambient = a.ambient + b.ambient
    empties_a = tuple([EMPTY] * len(a.ambient))
    empties_b = tuple([EMPTY] * len(b.ambient))
    atoms: list[JoinAtom] = []
    if a.is_empty() and b.is_empty():
        return empty_set(ambient)
    if a.is_empty():
        atoms = [empties_a + atom for atom in b.atoms]
    elif b.is_empty():
        atoms = [atom + empties_b for atom in a.atoms]
    else:
        atoms = [atom_a + atom_b for atom_a in a.atoms for atom_b in b.atoms]
    return SphereSet(ambient, atoms)


def join_all(sets: Sequence[SphereSet]) -> SphereSet:
    if not sets:
        raise ValueError("need at least one factor")
    out = sets[0]
    for s in sets[1:]:
        out = join(out, s)
    return out


def union(a: SphereSet, b: SphereSet) -> SphereSet:
    if a.ambient != b.ambient:
        raise AmbientMismatch("union requires identical ambient decompositions")
    return SphereSet(a.ambient, a.atoms + b.atoms)


def complement(a: SphereSet) -> SphereSet:
    """Set complement within the ambient sphere, on the decidable fragment:
    empty or full sets in any ambient, and single-factor finite/cofinite sets."""
    if a.is_empty():
        return full_sphere(a.ambient)
    if a.is_full():
        return empty_set(a.ambient)
    if len(a.ambient) != 1:
        raise UnsupportedComplement(
            "complement of a non-trivial join union is outside the decidable fragment; "
            "complement factor-level data before joining")
    rank = a.ambient[0]
    parts = [atom[0] for atom in a.atoms]
    if all(isinstance(p, FinitePoints) for p in parts):
        pts: set[Direction] = set()
        for p in parts:
            pts.update(p.points)
        if rank == 1:
            rest = _RANK_ONE_SPHERE - pts
            return SphereSet(a.ambient, [(FinitePoints(rest),)] if rest else [])
        return SphereSet(a.ambient, [(CofinitePoints(pts),)])
    if len(parts) == 1 and isinstance(parts[0], CofinitePoints):
        return SphereSet(a.ambient, [(FinitePoints(parts[0].excluded),)])
    raise UnsupportedComplement("set is outside the decidable complement fragment")


def permute_factors(a: SphereSet, perm: Sequence[int]) -> SphereSet:
    """Reorder the factor blocks; used to state join commutativity."""
    if sorted(perm) != list(range(len(a.ambient))):
        raise ValueError("not a permutation of the factors")
    ambient = tuple(a.ambient[i] for i in perm)
    atoms = [tuple(atom[i] for i in perm) for atom in a.atoms]
    return SphereSet(ambient, atoms)


def permute_vector(vec: Sequence[int], ambient: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    blocks = _blocks(ambient)
    return tuple(c for i in perm for c in vec[blocks[i][0]:blocks[i][1]])
