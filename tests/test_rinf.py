"""Verdict engine: rule-by-rule behavior, the combined strategy, and trace
structure."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from groupinv import catalog, rinf, selfcheck
from groupinv import expressions as ex
from groupinv.catalog import (
    O_CLASS_0,
    O_CLASS_1,
    O_CLASS_2,
    lookup_invariants,
    o_class_of,
    query_memo,
)
from groupinv.expressions import parse_group_expr
from groupinv.rinf import (
    FINITE_INDEX,
    INDEX_TWO,
    RINFINITY,
    RULES,
    UNKNOWN,
    Decline,
    Verdict,
    _decide_catalog,
    _decide_torsion_split,
    _TraceBuilder,
    decide,
    decide_free_product,
    decide_gk,
    decide_main,
    decide_product,
    decide_text,
)
from groupinv.spheres import DimensionCapExceeded


def assert_trace_replays(verdict: Verdict):
    """Premises must reference earlier steps only (acyclic, resolved before use)."""
    seen = set()
    for step in verdict.trace:
        for premise in step.premises:
            assert premise in seen, (step, verdict.trace)
        assert step.step_id not in seen
        seen.add(step.step_id)
    if verdict.conclusion != UNKNOWN:
        assert verdict.trace, "non-unknown verdicts need a trace"


# ---------------------------------------------------------------------------
# finite-survivor rule


def test_main_rule_bs():
    v = decide_main(parse_group_expr("BS(1,4)"))
    assert v.conclusion == RINFINITY
    assert v.final_rule() == "ThmMain1"
    assert_trace_replays(v)


def test_main_rule_free_times_z():
    v = decide_main(parse_group_expr("F(2) x Z"))
    assert v.conclusion == INDEX_TWO
    assert v.final_rule() == "ThmMain2"
    assert "ProductFormula" in v.rules()
    assert_trace_replays(v)


def test_main_rule_unknown_for_empty_or_infinite():
    no_match = "surviving-direction cardinality %s matches no finite-survivor rule"
    assert decide_main(parse_group_expr("F(3)")) == Decline("decide_main", no_match % "0")
    assert decide_main(parse_group_expr("Z^2")) == Decline("decide_main", no_match % "infinite")
    assert decide_main(parse_group_expr("L(2) x Z"), level=2) == Decline(
        "decide_main", "surviving-direction set unknown at level 2")


# ---------------------------------------------------------------------------
# finite-obstruction rule


def test_gk_rule_generalized_thompson():
    v = decide_gk(parse_group_expr("T(3)"))
    assert v.conclusion == RINFINITY
    assert v.final_rule() == "ThmGK2"
    assert "ThmGK1" in v.rules()
    assert_trace_replays(v)


def test_gk_rule_bs():
    v = decide_gk(parse_group_expr("BS(1,2)"))
    assert v.conclusion == RINFINITY
    assert v.final_rule() == "ThmGK2"


def test_gk_rule_klein_unknown():
    not_finite = "obstruction set is %s; the finite-obstruction rule needs a non-empty finite set"
    assert decide_gk(parse_group_expr("Klein")) == Decline("decide_gk", not_finite % "0")
    # full obstruction set
    assert decide_gk(parse_group_expr("F(2)")) == Decline("decide_gk", not_finite % "infinite")


def test_gk_rule_dependent_characters_stay_finite_index():
    # BS(1,2) x BS(1,3): two independent obstructed points -> full property
    v = decide_gk(parse_group_expr("BS(1,2) x BS(1,3)"))
    assert v.conclusion == RINFINITY
    assert_trace_replays(v)


# ---------------------------------------------------------------------------
# product rule


def test_product_rule_bs_times_free():
    v = decide_product(parse_group_expr("BS(1,2) x F(4)"))
    assert v.conclusion == RINFINITY
    assert v.final_rule() in ("ThmSec5Prod1", "ThmMain1")
    assert_trace_replays(v)


def test_product_rule_nested_index_two():
    expr = ex.direct_product([parse_group_expr("F(3) x Z"), parse_group_expr("F(2)")])
    v = decide_product(expr)
    assert v.conclusion == INDEX_TWO
    assert v.final_rule() in ("ThmSec5Prod2", "ThmMain2")


def test_product_rule_z_times_z_unknown():
    assert decide_product(parse_group_expr("Z x Z")) == Decline(
        "decide_product", "no lone factor of class O1 or O2 among O0 factors at level 1",
        noted=False)
    assert decide_product(parse_group_expr("BS(1,2)")) == Decline(
        "decide_product", "not a direct product", noted=False)


def reference_decide_product(expr, level=1):
    """The product rule as a loop over heads, each against the synthetic
    product of the other factors, evaluated from scratch."""
    if expr.node != "direct":
        return Decline("decide_product", "not a direct product", noted=False)
    for j, head in enumerate(expr.factors):
        rest = [f for i, f in enumerate(expr.factors) if i != j]
        rest_expr = rest[0] if len(rest) == 1 else ex.direct_product(rest)
        head_class = o_class_of(lookup_invariants(head).omega_at(level))
        rest_class = o_class_of(lookup_invariants(rest_expr).omega_at(level))
        if rest_class != O_CLASS_0:
            continue
        if head_class == O_CLASS_1:
            trace = _TraceBuilder()
            h = trace.add("CatalogFact", "%s has class O^%d_1" % (head.label(), level))
            k = trace.add("CatalogFact", "%s has class O^%d_0" % (rest_expr.label(), level))
            trace.add("ThmSec5Prod1", "%s = %s x %s" % (expr.label(), head.label(), rest_expr.label()),
                      (h, k))
            return trace.done(RINFINITY)
        if head_class == O_CLASS_2:
            trace = _TraceBuilder()
            h = trace.add("CatalogFact", "%s has class O^%d_2" % (head.label(), level))
            k = trace.add("CatalogFact", "%s has class O^%d_0" % (rest_expr.label(), level))
            trace.add("ThmSec5Prod2", "%s = %s x %s" % (expr.label(), head.label(), rest_expr.label()),
                      (h, k))
            return trace.done(INDEX_TWO)
    return Decline("decide_product", "no lone factor of class O1 or O2 among O0 factors at "
                   "level %d" % level, noted=False)


# factors by level-one class; at levels >= 2 BS, Klein, B(n) and L(n) are unknown
PRODUCT_POOL = {
    "O0": ["F(2)", "F(3)", "L(2)", "L(6)", "Zmod(4)", "Z^0", "Zmod(2) * Zmod(3)",
           "BS(1,2) * Z", "F(2) x Zmod(3)"],
    "O1": ["BS(1,2)", "BS(1,5)", "BS(1,3) x F(2)"],
    "O2": ["Z", "Klein", "B(3)", "B(5)", "F(2) x Z"],
    "other": ["Z^2", "Thompson", "T(3)", "BS(1,2) x BS(1,3)", "Z x Klein"],
}


def random_direct_product(rng):
    kinds = ["O0"] * 5 + ["O1", "O2", "other"]
    factors = [parse_group_expr(rng.choice(PRODUCT_POOL[rng.choice(kinds)]))
               for _ in range(rng.randint(2, 6))]
    # built directly, so a direct-product factor stays one node (the parser
    # and direct_product flatten it)
    return ex.GroupExpr("direct", factors=tuple(factors))


def test_product_rule_matches_synthetic_subproducts():
    rng = random.Random(5150)
    seen = Counter()
    for _ in range(150):
        expr = random_direct_product(rng)
        for level in (1, 2, 3):
            expected = reference_decide_product(expr, level)
            assert decide_product(expr, level) == expected, (expr, level)
            with query_memo():
                assert decide_product(expr, level) == expected, (expr, level)
            # the finite-survivor rule settles the same products the same way,
            # which is why decide does not run the product rule
            assert decide_main(expr, level).conclusion == expected.conclusion, (expr, level)
            classes = {lookup_invariants(f).o_class_at(level) for f in expr.factors}
            rule = expected.final_rule() if isinstance(expected, Verdict) else None
            seen[level, rule, "unknown" in classes] += 1
        assert not (decide(expr).final_rule() or "").startswith("ThmSec5Prod"), expr
    # both theorems fire at level one; at level two only all-level factors are
    # known, and products with an unknown factor occur there
    assert seen[1, "ThmSec5Prod1", False] >= 10 and seen[1, "ThmSec5Prod2", False] >= 10
    assert seen[2, "ThmSec5Prod2", False] >= 2
    assert sum(n for (level, _, unknown), n in seen.items() if level == 2 and unknown) >= 40


def count_evaluations(monkeypatch):
    counts = Counter()
    evaluate = catalog._evaluate

    def counting(expr):
        counts[expr] += 1
        return evaluate(expr)

    monkeypatch.setattr(catalog, "_evaluate", counting)
    return counts


SIXTEEN_FACTORS = " x ".join(["BS(1,2)"] + ["F(2)", "Zmod(3)", "L(2)", "(Zmod(2) * Zmod(3))",
                                             "F(3)"] * 3)


def test_decide_evaluates_each_node_once(monkeypatch):
    counts = count_evaluations(monkeypatch)
    for text, rule in ((SIXTEEN_FACTORS, "ThmMain1"), ("BS(1,2) * Z^2", "ThmFreeProd3")):
        counts.clear()
        expr = parse_group_expr(text)
        v = decide(expr)
        assert v.final_rule() == rule, v.rules()
        assert counts[expr] == 1
        assert max(counts.values()) == 1, counts.most_common(3)
    # the free product's nested decide evaluates the synthetic direct product
    assert parse_group_expr("BS(1,2) x Z^2") in counts


def test_decide_runs_decide_main_once(monkeypatch):
    calls = Counter()
    main = rinf.decide_main

    def counting(expr, level=1):
        calls[expr, level] += 1
        return main(expr, level)

    monkeypatch.setattr(rinf, "decide_main", counting)
    expr = parse_group_expr("Z x Z")
    assert decide(expr).conclusion == UNKNOWN
    assert calls == {(expr, 1): 1}


def test_memo_lives_for_one_query_only(monkeypatch):
    counts = count_evaluations(monkeypatch)
    expr = parse_group_expr("BS(1,2) x F(3)")
    decide(expr)
    decide(expr)
    assert counts[expr] == 2
    assert catalog._MEMO.get() is None
    # outside a query every lookup evaluates afresh
    lookup_invariants(expr)
    lookup_invariants(expr)
    assert counts[expr] == 4
    # a failed query drops its memo too
    with pytest.raises(DimensionCapExceeded):
        decide(parse_group_expr("T(9) x Z"))
    assert catalog._MEMO.get() is None


# ---------------------------------------------------------------------------
# free-product rule


def test_free_product_all_finite():
    v = decide_free_product(parse_group_expr("Zmod(2) * Zmod(2)"))
    assert v.conclusion == RINFINITY
    assert v.final_rule() == "ThmFreeProd1"


def test_free_product_o1_condition():
    v = decide_free_product(parse_group_expr("BS(1,5) * Zmod(3) * Zmod(4)"))
    assert v.conclusion == RINFINITY
    assert v.final_rule() == "ThmFreeProd2"
    assert_trace_replays(v)


def test_free_product_o1_condition_names_the_remaining_factors():
    v = decide_free_product(parse_group_expr("Zmod(6) * BS(1,3)"))
    assert [(step.rule, step.detail) for step in v.trace] == [
        ("CatalogFact", "BS(1,3) has class O^1_1"),
        ("CatalogFact", "remaining factors Zmod(6) have class O^1_0"),
        ("ThmFreeProd2", "Zmod(6) * BS(1,3)")]


def test_free_product_direct_product_condition():
    v = decide_free_product(parse_group_expr("Klein * Z * Zmod(2)"))
    assert v.conclusion == RINFINITY
    assert v.final_rule() == "ThmFreeProd3"
    assert "LemRFacts1" in v.rules()
    assert_trace_replays(v)


def test_free_product_hypothesis_violation():
    assert decide_free_product(parse_group_expr("F(2) * Zmod(2)")) == Decline(
        "decide_free_product", "hypothesis violation: factors F(2) are not freely indecomposable")


def test_free_product_unverified_premise():
    # Z * Zmod(2): bar = Z x Zmod(2) gets only the index-two conclusion, so
    # condition (3) reports the unverified premise instead of guessing
    assert decide_free_product(parse_group_expr("Z * Zmod(2)")) == Decline(
        "decide_free_product",
        "direct-product premise unverified: decide(Z x Zmod(2)) = IndexTwoSubgroupAllRInf")


def test_free_product_declines_outside_its_conditions():
    assert decide_free_product(parse_group_expr("F(2) x Z")) == Decline(
        "decide_free_product", "not a free product", noted=False)
    assert decide_free_product(parse_group_expr("Klein * Klein")) == Decline(
        "decide_free_product", "no free-product condition applies")


# ---------------------------------------------------------------------------
# combined strategy


def test_decide_golden_verdicts():
    cases = {
        "BS(1,2)": (RINFINITY, "ThmMain1"),
        "BS(1,7)": (RINFINITY, "ThmMain1"),
        "BS(1,2) x F(3)": (RINFINITY, "ThmMain1"),
        "F(3) x Z": (INDEX_TWO, "ThmMain2"),
        "B(4)": (INDEX_TWO, "ThmMain2"),
        "Zmod(2) * Zmod(2)": (RINFINITY, "ThmFreeProd1"),
        "BS(1,3) * Zmod(3) * Zmod(4)": (RINFINITY, "ThmFreeProd2"),
        "Klein * Z * Zmod(2)": (RINFINITY, "ThmFreeProd3"),
        "Zmod(7)": (UNKNOWN, None),
        # the antipodal-pair rule is honest on Z: the index-two subgroup of
        # Aut(Z) is the identity alone, and R(id) is infinite
        "Z": (INDEX_TWO, "ThmMain2"),
        "Z x Z": (UNKNOWN, None),
    }
    for text, (conclusion, rule) in cases.items():
        v = decide_text(text)
        assert v.conclusion == conclusion, (text, v)
        if rule is not None:
            assert v.final_rule() == rule, (text, v.rules())
        assert_trace_replays(v)


def test_decide_catalog_facts_win_first():
    for text in ("F(2)", "L(2)", "Thompson", "T(5)", "B(3)", "Klein", "Klein x Z^2"):
        v = decide_text(text)
        assert v.conclusion == RINFINITY, text
        assert v.final_rule() == "CatalogFact", text


def test_decide_bs_product_trace_cites_join():
    v = decide_text("BS(1,2) x F(3)")
    assert "ProductFormula" in v.rules()
    assert v.final_rule() == "ThmMain1"


def test_decide_torsion_split():
    v = decide_text("Klein x Z x Zmod(2)")
    assert v.conclusion == RINFINITY
    assert v.final_rule() == "LemRFacts1"
    assert_trace_replays(v)


def test_catalog_rule_declines_without_a_recorded_fact():
    assert _decide_catalog(parse_group_expr("Z x Z")) == Decline(
        "_decide_catalog", "no recorded R-infinity fact", noted=False)


def test_torsion_split_declines():
    cases = {
        "BS(1,2)": "not a direct product",
        "Z x Z": "no finite abelian factor",
        "Zmod(2) x Zmod(3)": "no torsion-free factor",
        "Z x Zmod(2) x (Zmod(2) * Zmod(3))": "a factor is neither torsion-free nor finite abelian",
        # the quotient Z has only the index-two conclusion
        "Z x Zmod(2)": "the torsion-free quotient premise is unverified: decide(Z) = "
                       "IndexTwoSubgroupAllRInf",
    }
    for text, premise in cases.items():
        assert _decide_torsion_split(parse_group_expr(text)) == Decline(
            "_decide_torsion_split", premise, noted=False), text


def test_every_cited_rule_is_stated_and_every_statement_cited():
    statements = {}
    for name, _, stated in RULES:
        assert callable(getattr(rinf, name)), name
        assert not statements.keys() & stated.keys(), name  # each statement stated once
        statements.update(stated)
    rng = random.Random(2323)
    verdicts = [decide(selfcheck._random_expr(rng, 2)) for _ in range(400)]
    verdicts += [decide_text(text) for texts in PRODUCT_POOL.values() for text in texts]
    for _ in range(150):
        expr = random_direct_product(rng)
        verdicts += [decide(expr), decide_product(expr)]
    # to_json_dict looks every quote up strictly
    cited = {step["rule"] for v in verdicts if isinstance(v, Verdict)
             for step in v.to_json_dict()["trace"]}
    assert all(statements.get(rule) for rule in cited), cited - set(statements)
    assert cited == set(statements), set(statements) - cited


def test_decide_stops_at_the_first_rinfinity(monkeypatch):
    catalog_decided = {text: decide_text(text) for text in ("F(2)", "Thompson", "Klein x Z^2")}
    calls = Counter()

    def counting(name):
        rule = getattr(rinf, name)

        def run(expr):
            calls[name] += 1
            return rule(expr)
        return run

    for name, _, _ in RULES:
        monkeypatch.setattr(rinf, name, counting(name))
    decide_text("Z x Z")
    assert calls == {name: 1 for name, run, _ in RULES if run}

    def refuse(expr):
        raise AssertionError("a rule ran after an RInfinity")

    for name in ("decide_gk", "decide_free_product", "_decide_torsion_split"):
        monkeypatch.setattr(rinf, name, refuse)
    for text, verdict in catalog_decided.items():
        assert verdict.final_rule() == "CatalogFact", text
        assert decide_text(text) == verdict, text


def test_decide_breaks_ties_by_the_earliest_rule(monkeypatch):
    # decide_main comes before decide_gk in RULES, so of their two verdicts of
    # equal strength decide_main's wins; Z^2 gets no verdict from another rule
    main = Verdict(INDEX_TWO, notes=("from decide_main",))
    gk = Verdict(INDEX_TWO, notes=("from decide_gk",))
    monkeypatch.setattr(rinf, "decide_main", lambda expr: main)
    monkeypatch.setattr(rinf, "decide_gk", lambda expr: gk)
    assert decide_text("Z^2") is main


def test_decide_deterministic():
    for text in ("BS(1,2) x F(3)", "Klein * Z * Zmod(2)", "Zmod(7)"):
        assert decide_text(text) == decide_text(text)


def test_decide_monotone_under_added_facts():
    """Removing catalog knowledge never strengthens a verdict: the pure
    theorem output for B(3) (index two) is weaker than with its catalog fact."""
    with_fact = decide_text("B(3)")
    theorem_only = decide_main(parse_group_expr("B(3)"))
    assert with_fact.strength >= theorem_only.strength
    assert theorem_only.conclusion == INDEX_TWO
    assert with_fact.conclusion == RINFINITY


def test_decide_total_on_random_expressions():
    """decide never raises and always yields a traced or noted verdict."""
    from groupinv.cones import check_finite12

    rng = random.Random(8080)
    pool = ["Z", "Z^2", "F(2)", "F(3)", "BS(1,2)", "Klein", "B(3)", "B(4)",
            "Thompson", "T(3)", "L(2)", "L(5)", "Zmod(2)", "Zmod(6)"]

    def random_expr(depth):
        if depth == 0 or rng.random() < 0.45:
            return parse_group_expr(rng.choice(pool))
        kids = [random_expr(depth - 1) for _ in range(rng.randint(2, 3))]
        if rng.random() < 0.4:
            return ex.free_product(kids)
        return ex.direct_product(kids)

    for _ in range(300):
        expr = random_expr(2)
        v = decide(expr)
        assert v.conclusion in (RINFINITY, INDEX_TWO, FINITE_INDEX, UNKNOWN)
        assert_trace_replays(v)
        omega = lookup_invariants(expr).omega_at(1)
        if omega is not None:
            assert check_finite12(omega).ok  # engine post-hook


def test_verdict_json_shape():
    v = decide_text("BS(1,2) x F(3)")
    data = v.to_json_dict()
    assert data["conclusion"] == RINFINITY
    assert all({"rule", "quote", "premises"} <= set(step) for step in data["trace"])
