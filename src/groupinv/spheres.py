"""Symbolic subsets of the character sphere S^(m-1) in join normal form.

A SphereSet lives over a decomposition of R^m into orthogonal coordinate
blocks ("factors").  It is a finite union of join atoms; each atom assigns one
part per factor and denotes the iterated spherical join of those parts, with
the convention that an empty part is simply skipped (join with the empty set
embeds the other side).  Parts are either nothing, the whole factor sphere, a
finite set of rational directions, or the directions of an exact rational
polyhedral cone (used to witness provably infinite sets without enumerating
them).

Only rational points, i.e. primitive integer vectors, are ever explicit.
Rank-one factor spheres consist of exactly two points and are normalized to
explicit point sets, which keeps the cardinality classification exact.  All
geometry is integer arithmetic; there is no floating point anywhere.

`SphereSet(ambient, atoms)` checks and normalizes atoms from anywhere; `union`
and `permute_factors` go through it.  The library's own constructors
(`empty_set`, `full_sphere`, `points_set`, `cone_set`, `join` and
`sigma1_complement_of_product`) build their atoms in normal form already and
hand them to `SphereSet._normal`, which skips that pass; each one proves its
output normal in its docstring.  No other module calls `_normal`.
"""

from __future__ import annotations

from functools import total_ordering
from math import gcd
from typing import Iterable, Sequence

from . import _Value


class AmbientMismatch(ValueError):
    pass


class DimensionCapExceeded(ValueError):
    pass


MAX_CONE_DIM = 8


def check_cone_dim(m: int) -> None:
    if m > MAX_CONE_DIM:
        raise DimensionCapExceeded("cone dimension %d exceeds cap %d" % (m, MAX_CONE_DIM))


@total_ordering
class _Ordered(_Value):
    """A value record that is also ordered by its fields, in slot order."""

    __slots__ = ()

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) < other._key(other)
        return NotImplemented


_INT = {int}


def _ints(values: Iterable[int], what: str) -> tuple[int, ...]:
    """values as a tuple of plain ints; any other entry, bool and float
    included, is refused rather than truncated."""
    values = tuple(values)
    if not {*map(type, values)} <= _INT:
        raise ValueError("%s must be integers, got %r" % (what, values))
    return values


# ---------------------------------------------------------------------------
# directions


class Direction(_Ordered):
    """Primitive non-zero integer vector; one rational point of a sphere."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[int]):
        vec = _ints(coords, "direction coordinates")
        if not any(vec):
            raise ValueError("direction must be a non-zero vector")
        g = gcd(*vec)
        if g > 1:
            vec = tuple(c // g for c in vec)
        self._set(vec)

    def __len__(self) -> int:
        return len(self.coords)

    def antipode(self) -> "Direction":
        return Direction(tuple(-c for c in self.coords))

    def norm_sq(self) -> int:
        return sum(c * c for c in self.coords)

    def __repr__(self):
        return "Direction(%s)" % (self.coords,)


# ---------------------------------------------------------------------------
# per-factor parts

EMPTY = "empty"
FULL = "full"


class FinitePoints(_Ordered):
    __slots__ = ("points",)

    def __init__(self, points: Iterable[Direction]):
        self._set(tuple(sorted(set(points))))
        if not self.points:
            raise ValueError("use EMPTY for an empty part")


class ConeRegion(_Ordered):
    """Directions d with <d, f> <= 0 for every listed normal.

    Constructed only for cones of dimension >= 2, so the denoted set is
    guaranteed infinite; the normals are the witness description.
    """

    __slots__ = ("normals",)

    def __init__(self, normals: Iterable[Direction]):
        self._set(tuple(sorted(set(normals))))
        if not self.normals:
            raise ValueError("cone region requires at least one normal")

    def contains(self, d: Direction) -> bool:
        return all(sum(a * b for a, b in zip(d.coords, f.coords)) <= 0 for f in self.normals)


Part = object  # EMPTY | FULL | FinitePoints | ConeRegion
JoinAtom = tuple  # one Part per factor

# S^0 = {+1, -1}, the whole sphere of a rank-one factor, as its normal part
_RANK_ONE_SPHERE = FinitePoints([Direction((1,)), Direction((-1,))])


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
    return (4, part.normals)  # ConeRegion; only the order of the tags matters


def _atom_sort_key(atom: JoinAtom):
    return tuple(_part_sort_key(p) for p in atom)


def _normalize_part(part, rank: int):
    if rank == 0:
        # S^(-1) is empty; nothing can live on a rank-zero factor
        if isinstance(part, FinitePoints):
            raise ValueError("no directions exist on a rank-zero factor")
        return EMPTY
    if isinstance(part, FinitePoints):
        for d in part.points:
            if len(d) != rank:
                raise ValueError("direction length %d does not match factor rank %d" % (len(d), rank))
    if isinstance(part, ConeRegion):
        for d in part.normals:
            if len(d) != rank:
                raise ValueError("cone normal length mismatch")
    if rank == 1:
        # S^0 = {+1, -1}: everything collapses to explicit points
        if part is FULL:
            return _RANK_ONE_SPHERE
        if isinstance(part, ConeRegion):
            rest = [d for d in _RANK_ONE_SPHERE.points if part.contains(d)]
            return FinitePoints(rest) if rest else EMPTY
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
        if isinstance(b, ConeRegion):
            return all(b.contains(p) for p in a.points)
        return False
    if isinstance(a, ConeRegion):
        if isinstance(b, ConeRegion):
            return set(b.normals) <= set(a.normals)
        return False
    return False


# ---------------------------------------------------------------------------
# sphere sets


def _checked_ambient(ambient: Iterable[int]) -> tuple[int, ...]:
    ambient = _ints(ambient, "factor ranks")
    if not ambient or min(ambient) < 0:
        raise ValueError("ambient must list non-negative factor ranks")
    return ambient


class SphereSet(_Value):
    """Union of join atoms over a factor decomposition of R^m; its atoms are
    kept in normal form.

    The normal form has every part normalized for its factor's rank, no atom
    that is EMPTY on every factor, no two atoms that differ on exactly one
    factor where both are FinitePoints (they would merge), no atom that lies
    part by part in another, and the atoms sorted by `_atom_sort_key`.  The
    constructor brings any atoms to it; `_normal` takes atoms that have it."""

    __slots__ = ("ambient", "atoms")

    def __init__(self, ambient: Iterable[int], atoms: Iterable[JoinAtom]):
        ambient = _checked_ambient(ambient)
        self._set(ambient, _normal_form(ambient, atoms))

    @classmethod
    def _normal(cls, ambient: tuple[int, ...], atoms: tuple[JoinAtom, ...]) -> "SphereSet":
        """The set of ``atoms`` over ``ambient``, both taken as they are: the
        ambient checked and the atoms in normal form, as the caller proves."""
        out = object.__new__(cls)
        out._set(ambient, atoms)
        return out

    # -- structure ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return sum(self.ambient)

    def is_empty(self) -> bool:
        return not self.atoms

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
            elif isinstance(part, ConeRegion):
                if not part.contains(comp):
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
                # FULL on rank >= 2, or a cone region: infinite
                return Cardinality.infinite()
        if not points:
            return Cardinality.zero()
        return Cardinality.finite(tuple(sorted(Direction(v) for v in points)))

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        def encode(part):
            if part is EMPTY:
                return "empty"
            if part is FULL:
                return "full"
            if isinstance(part, FinitePoints):
                return {"points": [list(d.coords) for d in part.points]}
            return {"cone": [list(d.coords) for d in part.normals]}

        return {"ambient": list(self.ambient),
                "atoms": [[encode(p) for p in atom] for atom in self.atoms]}


class Cardinality(_Value):
    __slots__ = ("kind", "count", "points")

    def __init__(self, kind: str, count: int | None = None, points: tuple[Direction, ...] = ()):
        self._set(kind, count, points)  # kind: "zero" | "finite" | "infinite"

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

    def is_antipodal_pair(self) -> bool:
        return (self.kind == "finite" and self.count == 2
                and self.points[0] == self.points[1].antipode())


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
    """No atoms, which is trivially normal."""
    return SphereSet._normal(_checked_ambient(ambient), ())


def full_sphere(ambient: Iterable[int]) -> SphereSet:
    """One atom with each part normal for its rank: nothing on a rank-zero
    factor, the two points of S^0 on a rank-one factor, FULL on the others.
    A single atom cannot merge with or lie in another; it is dropped when every
    factor has rank zero."""
    ambient = _checked_ambient(ambient)
    atom = tuple(EMPTY if r == 0 else _RANK_ONE_SPHERE if r == 1 else FULL for r in ambient)
    return SphereSet._normal(ambient, (atom,) if any(ambient) else ())


def points_set(ambient: Iterable[int], vectors: Iterable[Sequence[int]]) -> SphereSet:
    """Finite set of rational points, each supported on a single factor block.

    The points of each factor make one atom, FinitePoints there and EMPTY
    elsewhere, which is normal on every rank (a point needs rank >= 1).  Two
    such atoms differ on two factors, so they do not merge, and neither lies
    in the other, since each has points where the other is EMPTY; they only
    need sorting."""
    ambient = _checked_ambient(ambient)
    blocks = _blocks(ambient)
    dim = sum(ambient)
    by_factor: dict[int, list[Direction]] = {}
    for vec in vectors:
        d = Direction(vec)
        if len(d) != dim:
            raise ValueError("vector length does not match ambient dimension")
        live = [i for i, (s, e) in enumerate(blocks) if any(d.coords[s:e])]
        if len(live) != 1:
            raise ValueError("explicit points must be supported on a single factor")
        i = live[0]
        s, e = blocks[i]
        by_factor.setdefault(i, []).append(Direction(d.coords[s:e]))
    k = len(ambient)
    atoms = [(EMPTY,) * i + (FinitePoints(points),) + (EMPTY,) * (k - 1 - i)
             for i, points in by_factor.items()]
    return SphereSet._normal(ambient, tuple(sorted(atoms, key=_atom_sort_key)))


def cone_set(m: int, normals: Iterable[Sequence[int]]) -> SphereSet:
    """The directions d of R^m with <d, f> <= 0 for every normal f, each of
    length m, as one `ConeRegion` on one factor.  The caller proves that the
    cone has dimension >= 2, as `ConeRegion` requires, so m >= 2 too.  Then
    the one atom is normal: on rank m >= 2 the part needs no collapse to
    points, and a single atom cannot merge with or lie in another."""
    region = ConeRegion(Direction(f) for f in normals)
    return SphereSet._normal(_checked_ambient([m]), ((region,),))


# ---------------------------------------------------------------------------
# operations


def join(a: SphereSet, b: SphereSet) -> SphereSet:
    """Spherical join over the concatenated orthogonal decomposition.

    Join with the empty set embeds the other side into the bigger sphere: an
    empty side counts as its one atom that is EMPTY on every factor.  The
    products x + y of these atoms are normal and already sorted:

    - unless both sides are empty, each product has a non-EMPTY part, and
      every part is normal for its rank, as it was in a or in b;
    - two distinct products x + y and x' + y' have x != x' or y != y'.  When
      both differ, they differ on a factor of a and on one of b, so they do
      not merge; when one pair is equal, the other pair does not merge, since
      a and b are normal;
    - x + y lies part by part in x' + y' only if x lies in x' and y in y',
      and one of these pairs is two distinct atoms of a normal set;
    - the sort key of x + y is the key of x followed by the key of y, so the
      products sort by x first and then by y, the order of the loops below.
    """
    ambient = a.ambient + b.ambient
    if a.is_empty() and b.is_empty():
        return SphereSet._normal(ambient, ())
    atoms_a = a.atoms or ((EMPTY,) * len(a.ambient),)
    atoms_b = b.atoms or ((EMPTY,) * len(b.ambient),)
    return SphereSet._normal(ambient, tuple(x + y for x in atoms_a for y in atoms_b))


def join_all(sets: Sequence[SphereSet]) -> SphereSet:
    if not sets:
        raise ValueError("need at least one factor")
    out = sets[0]
    for s in sets[1:]:
        out = join(out, s)
    return out


def sigma1_complement_of_product(factor_complements: Sequence[SphereSet]) -> SphereSet:
    """The union of the sets placed along consecutive coordinate blocks.  It
    is the level-one obstruction set of a direct product, read off the
    factors' sets (the level zero obstruction sets of finitely generated
    groups are empty).

    The placed atoms of different factors have disjoint supports, so the
    normal form never merges or subsumes across factors, and one SphereSet of
    all of them equals the union taken factor by factor.  Each factor's atoms
    are normal, so the placed atoms are normal once sorted: two from
    different factors differ on a factor of each, and each has a non-EMPTY
    part where the other is EMPTY."""
    full_ambient = tuple(r for f in factor_complements for r in f.ambient)
    k = len(full_ambient)
    blocks = _blocks(len(f.ambient) for f in factor_complements)
    atoms = [(EMPTY,) * start + atom + (EMPTY,) * (k - end)
             for f, (start, end) in zip(factor_complements, blocks) for atom in f.atoms]
    return SphereSet._normal(full_ambient, tuple(sorted(atoms, key=_atom_sort_key)))


def union(a: SphereSet, b: SphereSet) -> SphereSet:
    if a.ambient != b.ambient:
        raise AmbientMismatch("union requires identical ambient decompositions")
    return SphereSet(a.ambient, a.atoms + b.atoms)


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
