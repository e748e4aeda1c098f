"""Curated invariant facts for catalog atoms plus derived facts for products.

Atom entries carry literature citations; product entries are derived on the
fly through the join product formula and the level-one complement formula and
are tagged with their derivation.  Anything not stored and not derivable
stays unknown, never guessed.

Within one `rinf.decide` query every distinct expression node is evaluated
once: the query opens a memo (`query_memo`) that `lookup_invariants` reads
and fills, keyed by the node itself, and drops it when the query returns.
Outside a query every lookup evaluates afresh.

Orientation convention: on a rank-one character sphere the two classes are
written +1 and -1, and the coordinate is chosen so that the distinguished
surviving direction (when there is one) sits at +1.  For the solvable
Baumslag-Solitar groups this means the height coordinate is the negative of
the stable-letter exponent: the surviving end of the ascending HNN extension
is the descending side of the stable letter.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from . import _refuse_assignment
from . import expressions as ex
from .cones import (check_cone_dim, o_class_of, omega_from_sigma, omega_of_product,
                    sigma1_complement_of_product)
from .spheres import (
    SphereSet,
    complement,
    empty_set,
    full_sphere,
    points_set,
    single_factor_points,
)

# literature tags used in verdict traces and invariant provenance
CITE_FREE_HYPERBOLIC = "Levitt-Lustig: non-elementary hyperbolic groups"
CITE_LAMPLIGHTER = "Goncalves-Wong: lamplighter groups L(n) with gcd(n,6) > 1"
CITE_THOMPSON = "Bleak-Fel'shtyn-Goncalves: Thompson's group F"
CITE_GEN_THOMPSON = "Goncalves-Kochloukova: generalized Thompson groups"
CITE_BRAID3 = "Fel'shtyn-Goncalves: braid group on three strands"
CITE_KLEIN = "Goncalves-Wong: wallpaper groups (Klein bottle group)"
CITE_KLEIN_TIMES_ZK = "Goncalves-Wong: nilpotent groups, Klein bottle group times Z^k"


class KnownInvariants:
    """Immutable invariant record of one expression node, equal and hashed by
    its six fields.

    `omega` is the level-one surviving-direction set (None when unknown); with
    `omega_all_levels` it holds at every level.  `provenance` is a tuple of
    (field, source) pairs.
    """

    __slots__ = ("hom_rank", "sigma1_complement", "omega", "omega_all_levels", "rinf_known",
                 "provenance")

    def __init__(self, hom_rank: int, sigma1_complement: SphereSet | None,
                 omega: SphereSet | None = None, omega_all_levels: bool = False,
                 rinf_known: str | None = None, provenance: tuple[tuple[str, str], ...] = ()):
        object.__setattr__(self, "hom_rank", hom_rank)
        object.__setattr__(self, "sigma1_complement", sigma1_complement)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "omega_all_levels", omega_all_levels)
        object.__setattr__(self, "rinf_known", rinf_known)
        object.__setattr__(self, "provenance", provenance)

    __setattr__ = __delattr__ = _refuse_assignment

    def _fields(self) -> tuple:
        return (self.hom_rank, self.sigma1_complement, self.omega, self.omega_all_levels,
                self.rinf_known, self.provenance)

    def __eq__(self, other):
        if other.__class__ is KnownInvariants:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def omega_at(self, level: int) -> SphereSet | None:
        if level < 1:
            raise ValueError("levels start at 1")
        if level == 1 or self.omega_all_levels:
            return self.omega
        return None

    def o_class_at(self, level: int) -> str:
        return o_class_of(self.omega_at(level))

    def summary(self, level: int = 1) -> dict:
        omega = self.omega_at(level)
        return {
            "hom_rank": self.hom_rank,
            "sigma1_complement": None if self.sigma1_complement is None
            else self.sigma1_complement.to_json_dict(),
            "omega": None if omega is None else omega.to_json_dict(),
            "omega_level": level,
            "omega_cardinality": None if omega is None else omega.cardinality().describe(),
            "o_class": self.o_class_at(level),
            "rinf_known": self.rinf_known,
            "provenance": dict(self.provenance),
        }


def _atom_invariants(atom: ex.GroupAtom) -> KnownInvariants:
    kind = atom.kind
    if kind == ex.FREE_ABELIAN:
        k = atom.params[0]
        return KnownInvariants(
            hom_rank=k,
            sigma1_complement=empty_set([k]),
            omega=full_sphere([k]),
            omega_all_levels=True,
            provenance=(("sigma1_complement", "abelian groups have no obstructed characters"),
                        ("omega", "full at every level for free abelian groups")),
        )
    if kind == ex.FREE:
        n = atom.params[0]
        return KnownInvariants(
            hom_rank=n,
            sigma1_complement=full_sphere([n]),
            omega=empty_set([n]),
            omega_all_levels=True,
            rinf_known=CITE_FREE_HYPERBOLIC,
            provenance=(("sigma1_complement",
                         "every character of a non-abelian free group is obstructed"),
                        ("omega", "empty at every level")),
        )
    if kind == ex.BAUMSLAG_SOLITAR:
        return KnownInvariants(
            hom_rank=1,
            sigma1_complement=single_factor_points(1, [(-1,)]),
            omega=single_factor_points(1, [(1,)]),
            provenance=(("sigma1_complement", "one obstructed direction (Bieri-Strebel); "
                                              "the surviving end is written +1"),
                        ("omega", "single surviving rational direction")),
        )
    if kind == ex.KLEIN_BOTTLE:
        return KnownInvariants(
            hom_rank=1,
            sigma1_complement=empty_set([1]),
            omega=full_sphere([1]),
            rinf_known=CITE_KLEIN,
            provenance=(("sigma1_complement", "finitely generated commutator subgroup"),
                        ("omega", "both ends survive")),
        )
    if kind == ex.BRAID:
        n = atom.params[0]
        return KnownInvariants(
            hom_rank=1,
            sigma1_complement=empty_set([1]),
            omega=full_sphere([1]),
            rinf_known=CITE_BRAID3 if n == 3 else None,
            provenance=(("sigma1_complement", "Gorin-Lin: the commutator subgroup of the braid "
                                              "group is finitely generated"),
                        ("omega", "both ends survive")),
        )
    if kind in (ex.THOMPSON_F, ex.GENERALIZED_THOMPSON):
        m = 2 if kind == ex.THOMPSON_F else atom.params[0]
        check_cone_dim(m)  # before the m-length characters are built
        chi1 = tuple(1 if i == 0 else 0 for i in range(m))
        chi2 = tuple(1 if i == 1 else 0 for i in range(m))
        sigma_c = points_set([m], [chi1, chi2])
        return KnownInvariants(
            hom_rank=m,
            sigma1_complement=sigma_c,
            omega=omega_from_sigma(complement(sigma_c), m),
            omega_all_levels=True,
            rinf_known=CITE_THOMPSON if kind == ex.THOMPSON_F else CITE_GEN_THOMPSON,
            provenance=(("sigma1_complement", "two independent obstructed characters "
                                              "(Bieri-Geoghegan-Kochloukova)"),
                        ("omega", "infinite at every level; witnessed by the polar cone"),
                        ("hom_rank", "abelianization rank n (Brown-Guzman), double-checked "
                                     "against the defining relations")),
        )
    if kind == ex.LAMPLIGHTER:
        n = atom.params[0]
        from math import gcd

        return KnownInvariants(
            hom_rank=1,
            sigma1_complement=full_sphere([1]),
            omega=empty_set([1]),
            rinf_known=CITE_LAMPLIGHTER if gcd(n, 6) > 1 else None,
            provenance=(("sigma1_complement", "both directions obstructed: the base of the "
                                              "wreath product is infinitely generated"),
                        ("omega", "level one only; the group is not finitely presented")),
        )
    # finite atoms: the character sphere is empty
    return KnownInvariants(
        hom_rank=0,
        sigma1_complement=empty_set([0]),
        omega=empty_set([0]),
        omega_all_levels=True,
        provenance=(("sigma1_complement", "finite group: empty character sphere"),),
    )


def _product_rinf_fact(expr: ex.GroupExpr) -> str | None:
    """Known direct products: the Klein bottle group times a free abelian group."""
    if expr.node != "direct":
        return None
    kleins = 0
    abelian_rank = 0
    for f in expr.factors:
        if f.node != "atom":
            return None
        if f.atom.kind == ex.KLEIN_BOTTLE:
            kleins += 1
        elif f.atom.kind == ex.FREE_ABELIAN:
            abelian_rank += f.atom.params[0]
        else:
            return None
    if kleins == 1 and abelian_rank >= 1:
        return CITE_KLEIN_TIMES_ZK
    return None


_MEMO: ContextVar[dict | None] = ContextVar("groupinv_invariants_memo", default=None)


@contextmanager
def query_memo():
    """Share one node -> invariants memo across everything evaluated inside
    the block; a nested block reuses the open memo, and the outermost block
    drops it on exit."""
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def lookup_invariants(expr: ex.GroupExpr) -> KnownInvariants:
    """Atom facts from the table; product facts derived through the product
    formulas and tagged as derived.  Inside `query_memo` each distinct node
    (by equality) is evaluated once."""
    memo = _MEMO.get()
    if memo is None:
        return _evaluate(expr)
    inv = memo.get(expr)
    if inv is None:
        inv = memo[expr] = _evaluate(expr)
    return inv


def _evaluate(expr: ex.GroupExpr) -> KnownInvariants:
    if expr.node == "atom":
        return _atom_invariants(expr.atom)
    # factors go through the module-level name, so they share the memo
    parts = [lookup_invariants(f) for f in expr.factors]
    m = sum(p.hom_rank for p in parts)
    if expr.node == "direct":
        return KnownInvariants(
            hom_rank=m,
            sigma1_complement=sigma1_complement_of_product([p.sigma1_complement for p in parts]),
            omega=omega_of_product([p.omega_at(1) for p in parts]),
            omega_all_levels=all(p.omega_all_levels for p in parts),
            rinf_known=_product_rinf_fact(expr),
            provenance=(("sigma1_complement", "derived: embedded union of factor obstruction sets"),
                        ("omega", "derived: spherical join of factor sets")),
        )
    # free product: invariants vanish at every level once there are two
    # non-trivial factors, while the obstruction set is everything
    return KnownInvariants(
        hom_rank=m,
        sigma1_complement=full_sphere([m]) if m else empty_set([0]),
        omega=empty_set([m] if m else [0]),
        omega_all_levels=True,
        provenance=(("sigma1_complement", "free products of non-trivial groups are obstructed "
                                          "in every direction"),
                    ("omega", "empty at every level for non-trivial free products")),
    )
