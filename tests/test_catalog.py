"""Expression grammar, hom-rank bookkeeping, presentation abelianization, and
the invariant catalog with its internal consistency sweep."""

from __future__ import annotations

import random
from itertools import product
from math import gcd

import pytest

from groupinv import expressions as ex
from groupinv.catalog import CITE_GEN_THOMPSON, CITE_THOMPSON, lookup_invariants, o_class_of
from groupinv.cones import check_finite12, omega_from_obstructions
from groupinv.expressions import ParseError, parse_group_expr
from groupinv.rinf import UNKNOWN, decide
from groupinv.selfcheck import (
    FinitePresentation,
    abelianization_of_presentation,
    atom_presentation,
    presentation,
    word,
)
from groupinv.spheres import (
    MAX_CONE_DIM,
    Direction,
    SphereSet,
    empty_set,
    full_sphere,
    points_set,
    union,
)


# ---------------------------------------------------------------------------
# parsing


def atoms(expr: ex.GroupExpr) -> list[ex.GroupAtom]:
    """The atoms of an expression, left to right."""
    if expr.node == "atom":
        return [expr.atom]
    return [a for f in expr.factors for a in atoms(f)]


def test_parse_direct_product():
    expr = parse_group_expr("BS(1,2) x F(3)")
    assert expr.node == "direct"
    assert [a.label() for a in atoms(expr)] == ["BS(1,2)", "F(3)"]


def test_parse_aliases():
    assert parse_group_expr("Z").atom == ex.free_abelian(1)
    assert parse_group_expr("Z^4").atom == ex.free_abelian(4)
    assert parse_group_expr("Z^0").atom == ex.free_abelian(0)
    assert parse_group_expr("F(1)").atom == ex.free_abelian(1)
    assert parse_group_expr("B(2)").atom == ex.free_abelian(1)
    assert parse_group_expr("B(1)").atom == ex.free_abelian(0)
    assert parse_group_expr("T(2)").atom == ex.thompson_f()
    assert parse_group_expr("Thompson").atom == ex.thompson_f()


def test_parse_free_product_precedence():
    expr = parse_group_expr("BS(1,2) * Zmod(3) * Zmod(5)")
    assert expr.node == "free"
    assert len(expr.factors) == 3
    mixed = parse_group_expr("Z x F(2) * Klein")
    assert mixed.node == "free"
    assert mixed.factors[0].node == "direct"
    grouped = parse_group_expr("Z x (F(2) * Klein)")
    assert grouped.node == "direct"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_group_expr("BS(1,2) x ")
    assert "position" in str(info.value)
    with pytest.raises(ParseError):
        parse_group_expr("BS(2,3)")
    with pytest.raises(ParseError):
        parse_group_expr("Q(5)")
    with pytest.raises(ParseError):
        parse_group_expr("Z x x Z")
    with pytest.raises(ParseError):
        parse_group_expr("(Z x Z")
    with pytest.raises(ParseError):
        parse_group_expr("BS(1)")
    with pytest.raises(ParseError):
        parse_group_expr("L(1)")
    with pytest.raises(ParseError):
        parse_group_expr("Zmod(0)")


def test_free_product_rejects_trivial_factors():
    with pytest.raises(ParseError):
        parse_group_expr("Z * Zmod(1)")
    with pytest.raises(ValueError):
        ex.free_product([ex.atom_expr(ex.free_abelian(1)),
                         ex.atom_expr(ex.free_abelian(0))])


def test_api_products_deeper_than_any_parsed_string_are_refused():
    # alternating products built through the API, the deep factor first;
    # unbounded, free_product's is_trivial check overflowed the stack within
    # 450 levels
    z = ex.atom_expr(ex.free_abelian(1))
    expr = z
    with pytest.raises(ValueError, match="nested deeper than %d levels" % ex.MAX_DEPTH):
        for k in range(450):
            expr = (ex.direct_product if k % 2 else ex.free_product)([expr, z])
    assert expr.depth == ex.MAX_DEPTH
    with pytest.raises(ValueError, match="nested deeper"):
        ex.free_product([z, expr])  # one level more, on either side


def test_parser_maximal_nesting_parses_and_decides():
    text = "Z * Z x Z"
    for _ in range(ex.MAX_NESTING):
        text = "Z * Z x (%s)" % text
    expr = parse_group_expr(text)
    assert expr.depth == ex.MAX_DEPTH
    assert decide(expr).conclusion == UNKNOWN  # no rule covers these products
    assert lookup_invariants(expr).hom_rank == 2 * ex.MAX_NESTING + 3
    with pytest.raises(ParseError, match="nested deeper"):
        parse_group_expr("Z * Z x (%s)" % text)


def test_label_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        expr = random_expr(rng, depth=2)
        again = parse_group_expr(expr.label())
        assert again == expr


def test_equal_trees_built_separately_hash_equal():
    rng = random.Random(12)
    for _ in range(100):
        expr = random_expr(rng, depth=2)
        again = parse_group_expr(expr.label())
        assert again == expr and again is not expr
        assert hash(again) == hash(expr) == hash((expr.node, expr.atom, expr.factors))
        for atom, other in zip(atoms(again), atoms(expr)):
            assert atom == other and hash(atom) == hash(other)
            assert hash(atom) == hash((atom.kind, atom.params, atom.table))
    expr = parse_group_expr("BS(1,2) x (Z * F(2))")
    assert repr(expr) == "GroupExpr(BS(1,2) x (Z * F(2)))"
    assert repr(expr.factors[0].atom) == "GroupAtom(BS(1,2))"


# ---------------------------------------------------------------------------
# hom rank


def test_hom_rank_atoms():
    table = {
        "Z^3": 3, "F(2)": 2, "BS(1,2)": 1, "Klein": 1, "B(5)": 1,
        "Thompson": 2, "T(4)": 4, "L(3)": 1, "Zmod(5)": 0, "Z^0": 0,
    }
    for text, rank in table.items():
        assert lookup_invariants(parse_group_expr(text)).hom_rank == rank, text


def test_hom_rank_products():
    assert lookup_invariants(parse_group_expr("BS(1,2) x F(4)")).hom_rank == 5
    assert lookup_invariants(parse_group_expr("F(2) * F(3)")).hom_rank == 5
    assert lookup_invariants(parse_group_expr("Zmod(5) * Zmod(7)")).hom_rank == 0


ATOM_POOL = ["Z", "Z^2", "F(2)", "F(3)", "BS(1,2)", "BS(1,3)", "Klein",
             "B(3)", "Thompson", "T(3)", "L(2)", "Zmod(2)", "Zmod(6)"]


def random_expr(rng: random.Random, depth: int) -> ex.GroupExpr:
    if depth == 0 or rng.random() < 0.4:
        return ex.atom_expr(parse_group_expr(rng.choice(ATOM_POOL)).atom)
    kids = [random_expr(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    if rng.random() < 0.5 and all(not k.is_trivial for k in kids):
        return ex.free_product(kids)
    return ex.direct_product(kids)


def test_hom_rank_additive_random():
    rng = random.Random(5150)
    for _ in range(300):
        kids = [random_expr(rng, 1) for _ in range(rng.randint(2, 4))]
        total = sum(lookup_invariants(k).hom_rank for k in kids)
        assert lookup_invariants(ex.direct_product(kids)).hom_rank == total
        if all(not k.is_trivial for k in kids):
            assert lookup_invariants(ex.free_product(kids)).hom_rank == total


# ---------------------------------------------------------------------------
# presentations


def test_abelianization_examples():
    bs = presentation(["a", "t"], [word("t a t^-1 a^-2")])
    assert abelianization_of_presentation(bs) == (1, [])
    free1 = presentation(["x"], [])
    assert abelianization_of_presentation(free1) == (1, [])
    klein = presentation(["a", "b"], [word("a b a b^-1")])
    assert abelianization_of_presentation(klein) == (1, [2])


def test_presentation_validation():
    with pytest.raises(ValueError):
        FinitePresentation(("a", "a"), ())
    with pytest.raises(ValueError):
        FinitePresentation(("a",), ((("b", 1),),))
    with pytest.raises(ValueError):
        FinitePresentation(("a",), ((("a", 1), ("a", -1)),))


def test_atom_presentations_match_catalog_rank():
    for text in ATOM_POOL:
        expr = parse_group_expr(text)
        pres = atom_presentation(expr.atom)
        if pres is None:
            continue
        rank, torsion = abelianization_of_presentation(pres)
        assert rank == lookup_invariants(expr).hom_rank, text
    zmod6 = atom_presentation(ex.finite_cyclic(6))
    assert abelianization_of_presentation(zmod6) == (0, [6])
    braid4 = atom_presentation(ex.braid(4))
    assert abelianization_of_presentation(braid4) == (1, [])
    thompson = atom_presentation(ex.thompson_f())
    assert abelianization_of_presentation(thompson) == (2, [])


def test_generalized_thompson_truncated_presentation_rank():
    """The infinite defining presentation identifies x_i with x_{i+n-1} for
    i >= 1; truncating at depth N leaves rank n, matching the stored fact."""
    for n in (2, 3, 4):
        depth = 3 * n
        gens = ["x%d" % i for i in range(depth)]
        rels = []
        for j in range(depth):
            for i in range(j + 1, depth):
                if i + n - 1 < depth:
                    rels.append([("x%d" % j, -1), ("x%d" % i, 1), ("x%d" % j, 1),
                                 ("x%d" % (i + n - 1), -1)])
        rank, torsion = abelianization_of_presentation(presentation(gens, rels))
        assert rank == n and torsion == []


# ---------------------------------------------------------------------------
# catalog facts


def test_catalog_bs():
    inv = lookup_invariants(parse_group_expr("BS(1,3)"))
    assert inv.sigma1_complement == points_set([1], [(-1,)])
    assert inv.omega_at(1) == points_set([1], [(1,)])
    assert inv.o_class_at(1) == "O1"
    assert inv.rinf_known is None


def test_catalog_free():
    inv = lookup_invariants(parse_group_expr("F(3)"))
    assert inv.sigma1_complement == full_sphere([3])
    assert inv.omega_at(1) == empty_set([3])
    assert inv.omega_at(4) == empty_set([3])
    assert inv.rinf_known is not None


def test_catalog_braid_and_klein():
    for text in ("B(4)", "Klein"):
        inv = lookup_invariants(parse_group_expr(text))
        assert inv.sigma1_complement == empty_set([1])
        assert inv.omega_at(1) == full_sphere([1])
        assert inv.omega_at(1).cardinality().count == 2
        assert inv.o_class_at(1) == "O2"
    assert lookup_invariants(parse_group_expr("B(3)")).rinf_known is not None
    assert lookup_invariants(parse_group_expr("B(4)")).rinf_known is None
    assert lookup_invariants(parse_group_expr("Klein")).rinf_known is not None


def test_catalog_thompson():
    inv = lookup_invariants(parse_group_expr("Thompson"))
    assert inv.hom_rank == 2
    assert inv.sigma1_complement.cardinality().count == 2
    assert inv.omega_at(1).cardinality().kind == "infinite"
    assert inv.omega_at(5).cardinality().kind == "infinite"
    inv4 = lookup_invariants(parse_group_expr("T(4)"))
    assert inv4.hom_rank == 4
    assert inv4.omega_at(2).cardinality().kind == "infinite"


def test_thompson_type_atoms_cite_their_own_sources():
    assert lookup_invariants(parse_group_expr("Thompson")).rinf_known == CITE_THOMPSON
    assert lookup_invariants(parse_group_expr("T(2)")).rinf_known == CITE_THOMPSON
    assert lookup_invariants(parse_group_expr("T(3)")).rinf_known == CITE_GEN_THOMPSON
    assert lookup_invariants(parse_group_expr("T(8)")).rinf_known == CITE_GEN_THOMPSON


def test_catalog_lamplighter():
    inv = lookup_invariants(parse_group_expr("L(2)"))
    assert inv.omega_at(1) == empty_set([1])
    assert inv.omega_at(2) is None  # not finitely presented: higher levels unknown
    assert inv.rinf_known is not None
    assert lookup_invariants(parse_group_expr("L(5)")).rinf_known is None


def test_catalog_product_derivation():
    from groupinv.spheres import EMPTY, FULL, SphereSet

    inv = lookup_invariants(parse_group_expr("BS(1,2) x F(3)"))
    assert inv.hom_rank == 4
    assert inv.omega_at(1) == points_set([1, 3], [(1, 0, 0, 0)])
    expected_sigma_c = union(points_set([1, 3], [(-1, 0, 0, 0)]),
                             SphereSet([1, 3], [(EMPTY, FULL)]))
    assert inv.sigma1_complement == expected_sigma_c
    assert inv.sigma1_complement.member(Direction((-1, 0, 0, 0)))
    assert inv.sigma1_complement.member(Direction((0, 1, 2, 3)))
    assert not inv.sigma1_complement.member(Direction((1, 0, 0, 0)))
    assert not inv.sigma1_complement.member(Direction((1, 1, 0, 0)))


def test_catalog_product_with_lamplighter_unknowns():
    inv = lookup_invariants(parse_group_expr("L(2) x Z"))
    assert inv.omega_at(1) == points_set([1, 1], [(0, 1), (0, -1)])
    assert inv.omega_at(2) is None


def test_catalog_free_product():
    inv = lookup_invariants(parse_group_expr("Zmod(2) * Zmod(2)"))
    assert inv.hom_rank == 0
    assert inv.omega_at(1).is_empty()
    inv2 = lookup_invariants(parse_group_expr("F(2) * F(3)"))
    assert inv2.hom_rank == 5
    assert inv2.sigma1_complement == full_sphere([5])
    assert inv2.omega_at(3).is_empty()


def test_invariants_are_immutable_records():
    import dataclasses

    inv = lookup_invariants(parse_group_expr("BS(1,2) x L(2)"))
    hash(inv)  # no mutable fields left
    with pytest.raises(dataclasses.FrozenInstanceError):
        inv.omega = None
    again = lookup_invariants(parse_group_expr("BS(1,2) x L(2)"))
    assert again == inv and again is not inv and hash(again) == hash(inv)
    assert lookup_invariants(parse_group_expr("Z x L(2)")) != inv
    assert inv.provenance == (
        ("sigma1_complement", "derived: embedded union of factor obstruction sets"),
        ("omega", "derived: spherical join of factor sets"))
    assert inv.summary(1)["provenance"] == dict(inv.provenance)
    assert inv.omega_at(1) is inv.omega and inv.omega_at(2) is None
    z = lookup_invariants(parse_group_expr("Z^2 x F(2)"))
    assert z.omega_at(3) is z.omega_at(1) is z.omega


def test_klein_times_zk_product_fact():
    assert lookup_invariants(parse_group_expr("Klein x Z")).rinf_known is not None
    assert lookup_invariants(parse_group_expr("Klein x Z^3")).rinf_known is not None
    assert lookup_invariants(parse_group_expr("Z x Klein")).rinf_known is not None
    assert lookup_invariants(parse_group_expr("Klein")).rinf_known is not None  # atom fact
    assert lookup_invariants(parse_group_expr("Klein x Zmod(2)")).rinf_known is None
    assert lookup_invariants(parse_group_expr("Klein x Klein")).rinf_known is None


def test_stored_sets_live_on_the_right_sphere():
    rng = random.Random(303)
    exprs = [parse_group_expr(t) for t in ATOM_POOL]
    exprs += [random_expr(rng, 2) for _ in range(60)]
    for expr in exprs:
        inv = lookup_invariants(expr)
        assert inv.sigma1_complement.dim == inv.hom_rank == inv.omega_at(1).dim


def test_o_class_of():
    assert o_class_of(empty_set([2])) == "O0"
    assert o_class_of(points_set([1], [(1,)])) == "O1"
    assert o_class_of(full_sphere([1])) == "O2"
    assert o_class_of(full_sphere([2])) == "other"
    assert o_class_of(None) == "unknown"


def test_level_monotonicity_gate():
    """Where multiple levels are known, the survivor sets can only shrink:
    with the all-levels flag they coincide, and unknown levels stay unknown."""
    for text in ATOM_POOL:
        inv = lookup_invariants(parse_group_expr(text))
        one = inv.omega_at(1)
        for level in (2, 3):
            higher = inv.omega_at(level)
            if higher is None:
                continue
            assert one is not None
            # equality is the only stored multi-level pattern; containment then
            # holds trivially, and membership confirms it pointwise
            assert higher == one


def test_internal_consistency_sweep():
    """For every atom with stored obstruction and survivor data, re-deriving
    the survivors from the obstruction set reproduces the stored set."""
    for text in ATOM_POOL + ["Zmod(5)", "Z^0", "B(5)", "T(4)", "L(5)"]:
        expr = parse_group_expr(text)
        inv = lookup_invariants(expr)
        if inv.sigma1_complement is None or inv.omega_at(1) is None:
            continue
        derived = omega_from_obstructions(inv.sigma1_complement)
        assert derived == inv.omega_at(1), text
        report = check_finite12(inv.omega_at(1))
        assert report.ok, text


def test_thompson_type_omega_matches_double_description():
    """Ω of every Thompson-type atom under the cone-dimension cap, built in
    closed form, equals the polar cone that double description derives from
    its two obstructed characters e1 and e2, at every level.  For m <= 4 the
    cone also holds exactly the primitive vectors of [-3, 3]^m with
    v1 <= 0 and v2 <= 0."""
    for text in ["Thompson"] + ["T(%d)" % m for m in range(2, MAX_CONE_DIM + 1)]:
        inv = lookup_invariants(parse_group_expr(text))
        m = inv.hom_rank
        e1, e2 = (tuple(int(i == j) for j in range(m)) for i in (0, 1))
        assert inv.sigma1_complement == points_set([m], [e1, e2]), text
        omega = inv.omega_at(1)
        assert inv.omega_all_levels and omega == omega_from_obstructions(inv.sigma1_complement)
        if m > 4:
            continue
        ((cone,),) = omega.atoms
        for vec in product(range(-3, 4), repeat=m):
            if gcd(*vec) != 1:
                continue
            d = Direction(vec)
            assert cone.contains(d) == (vec[0] <= 0 and vec[1] <= 0) == omega.member(d), vec


@pytest.mark.parametrize("text", ["Thompson", "T(3)", "T(8)"])
def test_thompson_type_lookup_builds_two_sphere_sets(monkeypatch, text):
    """A Thompson-type atom builds its obstruction set and the survivor set
    read off it, and no other SphereSet, through either constructor."""
    expr = parse_group_expr(text)
    built = []
    init, normal = SphereSet.__init__, SphereSet._normal

    def counting_init(self, ambient, atoms):
        built.append(("init", ambient))
        init(self, ambient, atoms)

    def counting_normal(cls, ambient, atoms):
        built.append(("normal", ambient))
        return normal(ambient, atoms)

    monkeypatch.setattr(SphereSet, "__init__", counting_init)
    monkeypatch.setattr(SphereSet, "_normal", classmethod(counting_normal))
    lookup_invariants(expr)
    assert len(built) == 2, built
