"""R-infinity verdicts with derivation traces.

Each decision procedure applies one sufficient condition and returns a
Verdict whose trace names the rule, states it, and lists the premises (by
step id) it consumed.  Verdicts are three-valued with provenance: the rules
are sufficient conditions, so absence of proof is never reported as disproof.

The combined strategy runs one list of rules, in order: recorded literature
facts, the finite-survivor theorem, the finite-obstruction-set theorems, the
free product theorem, and finally the quotient by a finite characteristic
torsion subgroup; the strongest verdict wins, earliest rule breaking ties.
Every rule is total: on a group it does not cover it declines with a bare
Unknown.

The Section 5 direct product theorem (`decide_product`) is stated but not
run.  Its premise, one factor of class O1 or O2 and every other factor of
class O0, holds exactly when the joined surviving-direction set is one
rational point or an antipodal pair, so the finite-survivor theorem, which
runs first, fires on the same products with the same conclusion.
"""

from __future__ import annotations

from . import _Value
from . import expressions as ex
from .catalog import lookup_invariants, query_memo
from .cones import O_CLASS_0, O_CLASS_1, O_CLASS_2
from .linalg import matrix_rank

RINFINITY = "RInfinity"
INDEX_TWO = "IndexTwoSubgroupAllRInf"
FINITE_INDEX = "FiniteIndexSubgroupAllRInf"
UNKNOWN = "Unknown"

_STRENGTH = {RINFINITY: 4, INDEX_TWO: 3, FINITE_INDEX: 2, UNKNOWN: 0}

RULE_STATEMENTS = {
    "CatalogFact": "recorded fact with literature citation",
    "ProductFormula": "the surviving-direction set of a direct product is the "
                      "spherical join of the factor sets",
    "FreeProductVanishing": "non-trivial free products have empty surviving-direction "
                            "sets at every level",
    "ThmMain1": "a single rational surviving direction forces infinitely many twisted "
                "conjugacy classes for every automorphism",
    "ThmMain2": "an antipodal rational pair of surviving directions forces an index-two "
                "subgroup of the automorphism group all of whose members have infinitely "
                "many twisted conjugacy classes",
    "ThmGK1": "a non-empty finite set of rational obstructed characters yields a "
              "finite-index subgroup of automorphisms with infinitely many twisted "
              "conjugacy classes",
    "ThmGK2": "obstructed characters that are linearly independent span the dual of the "
              "common-kernel quotient, and then every automorphism has infinitely many "
              "twisted conjugacy classes",
    "ThmFreeProd1": "a free product of two or more non-trivial finite freely "
                    "indecomposable groups has the R-infinity property",
    "ThmFreeProd2": "a free product with one factor of class O^m_1 and every other "
                    "factor of class O^k_0 with k <= m has the R-infinity property",
    "ThmFreeProd3": "a free product whose factor direct product has the R-infinity "
                    "property and which has an abelian factor not infinite cyclic has "
                    "the R-infinity property",
    "ThmSec5Prod1": "H x K has the R-infinity property when H has class O^n_1 and K has "
                    "class O^m_0 with m <= n",
    "ThmSec5Prod2": "Aut(H x K) has an index-two subgroup with infinite Reidemeister "
                    "number throughout when H has class O^n_2 and K has class O^m_0 "
                    "with m <= n",
    "LemRFacts1": "if the induced automorphism on a quotient by a characteristic "
                  "subgroup has infinitely many twisted classes, so does the original",
}


class TraceStep(_Value):
    __slots__ = ("step_id", "rule", "detail", "premises")

    def __init__(self, step_id: str, rule: str, detail: str, premises: tuple[str, ...] = ()):
        self._set(step_id, rule, detail, premises)

    def to_json_dict(self) -> dict:
        return {"id": self.step_id, "rule": self.rule,
                "quote": RULE_STATEMENTS.get(self.rule, ""),
                "detail": self.detail, "premises": list(self.premises)}


class Verdict(_Value):
    __slots__ = ("conclusion", "trace", "notes")

    def __init__(self, conclusion: str, trace: tuple[TraceStep, ...] = (),
                 notes: tuple[str, ...] = ()):
        self._set(conclusion, trace, notes)

    @property
    def strength(self) -> int:
        return _STRENGTH[self.conclusion]

    def final_rule(self) -> str | None:
        return self.trace[-1].rule if self.trace else None

    def rules(self) -> list[str]:
        return [s.rule for s in self.trace]

    def to_json_dict(self) -> dict:
        out = {"conclusion": self.conclusion,
               "trace": [s.to_json_dict() for s in self.trace]}
        if self.notes:
            out["notes"] = list(self.notes)
        return out


class _TraceBuilder:
    def __init__(self):
        self.steps: list[TraceStep] = []

    def add(self, rule: str, detail: str, premises=()) -> str:
        step_id = "s%d" % (len(self.steps) + 1)
        self.steps.append(TraceStep(step_id, rule, detail, tuple(premises)))
        return step_id

    def absorb(self, other: tuple[TraceStep, ...]) -> str | None:
        """Import another verdict's steps, re-identified; returns the last new id."""
        mapping: dict[str, str] = {}
        new_id = None
        for step in other:
            new_premises = tuple(mapping.get(p, p) for p in step.premises)
            new_id = mapping[step.step_id] = self.add(step.rule, step.detail, new_premises)
        return new_id

    def done(self, conclusion: str) -> Verdict:
        return Verdict(conclusion, tuple(self.steps))


def _omega_evidence(expr: ex.GroupExpr, level: int, trace: _TraceBuilder) -> str | None:
    """Record how the surviving-direction set of expr was obtained; returns the
    final step id, or None if the set is unknown."""
    inv = lookup_invariants(expr)
    omega = inv.omega_at(level)
    if omega is None:
        return None
    if expr.node == "atom":
        return trace.add("CatalogFact",
                         "surviving directions of %s at level %d: %s"
                         % (expr.label(), level, omega.cardinality().describe()))
    if expr.node == "free":
        return trace.add("FreeProductVanishing",
                         "surviving directions of %s are empty" % expr.label())
    premises = []
    for f in expr.factors:
        pid = _omega_evidence(f, level, trace)
        if pid is None:
            return None
        premises.append(pid)
    return trace.add("ProductFormula",
                     "join of the factor sets of %s" % expr.label(), premises)


# ---------------------------------------------------------------------------
# individual rules


def decide_main(expr: ex.GroupExpr, level: int = 1) -> Verdict:
    """Finite-survivor rule: one rational direction gives the full property,
    an antipodal rational pair gives an index-two subgroup."""
    omega = lookup_invariants(expr).omega_at(level)
    if omega is None:
        return Verdict(UNKNOWN, notes=("surviving-direction set unknown at level %d" % level,))
    card = omega.cardinality()
    if card.kind == "finite" and card.count == 1:
        rule, conclusion = "ThmMain1", RINFINITY
        found = "exactly one surviving rational direction %s" % (card.points[0].coords,)
    elif card.is_antipodal_pair():
        rule, conclusion = "ThmMain2", INDEX_TWO
        found = "the antipodal rational pair %s" % (tuple(p.coords for p in card.points),)
    else:
        return Verdict(UNKNOWN,
                       notes=("surviving-direction cardinality %s matches no finite-survivor rule"
                              % card.describe(),))
    # the evidence is traced only once a theorem applies
    trace = _TraceBuilder()
    evidence = _omega_evidence(expr, level, trace)
    trace.add(rule, "%s has %s at level %d" % (expr.label(), found, level), (evidence,))
    return trace.done(conclusion)


def decide_gk(expr: ex.GroupExpr) -> Verdict:
    """Finite-obstruction rule, with the basis upgrade when the obstructed
    characters are linearly independent."""
    inv = lookup_invariants(expr)
    sigma_c = inv.sigma1_complement
    if sigma_c is None:
        return Verdict(UNKNOWN, notes=("level-one obstruction set unknown",))
    card = sigma_c.cardinality()
    if card.kind != "finite":
        return Verdict(UNKNOWN,
                       notes=("obstruction set is %s; the finite-obstruction rule needs a "
                              "non-empty finite set" % card.describe(),))
    trace = _TraceBuilder()
    fact = trace.add("CatalogFact",
                     "obstructed characters of %s: %s"
                     % (expr.label(), [p.coords for p in card.points]))
    gk1 = trace.add("ThmGK1", "%d rational obstructed characters" % card.count, (fact,))
    stacked = [list(p.coords) for p in card.points]
    rank = matrix_rank(stacked)
    if rank == card.count:
        # the characters embed the common-kernel quotient in R^count with full
        # rank, so they form a basis of its dual
        trace.add("ThmGK2",
                  "the %d characters are linearly independent and the quotient "
                  "lattice has matching rank %d" % (card.count, rank), (gk1,))
        return trace.done(RINFINITY)
    return trace.done(FINITE_INDEX)


def _lone_head(classes: list[str]) -> int | None:
    """Index of the only factor whose class is not O0, if there is one."""
    heads = [j for j, cls in enumerate(classes) if cls != O_CLASS_0]
    return heads[0] if len(heads) == 1 else None


def _lift(sub: Verdict, fact: str, rule: str, detail: str) -> Verdict:
    """Lift the R-infinity verdict `sub` to a larger group by `rule`, citing
    sub's conclusion and a recorded fact about the larger group."""
    trace = _TraceBuilder()
    last = trace.absorb(sub.trace)
    premise = trace.add("CatalogFact", fact)
    trace.add(rule, detail, (last, premise))
    return trace.done(RINFINITY)


def decide_product(expr: ex.GroupExpr, level: int = 1) -> Verdict:
    """Direct product rule: one factor carries the finite survivor class, the
    complementary factor(s) carry none.  `decide` does not run it, because
    `decide_main` settles the same products first (see the module docstring)."""
    if expr.node != "direct":
        return Verdict(UNKNOWN)
    # the join of the other factors' sets is empty iff each of them is, and
    # an unknown factor leaves it unknown: so the rest has class O0 exactly
    # when every other factor does, and only a lone non-O0 factor can head
    classes = [lookup_invariants(f).o_class_at(level) for f in expr.factors]
    j = _lone_head(classes)
    if j is None or classes[j] not in (O_CLASS_1, O_CLASS_2):
        return Verdict(UNKNOWN)
    head = expr.factors[j]
    rest = [f for i, f in enumerate(expr.factors) if i != j]
    rest_expr = rest[0] if len(rest) == 1 else ex.direct_product(rest)
    index = 1 if classes[j] == O_CLASS_1 else 2
    trace = _TraceBuilder()
    h = trace.add("CatalogFact", "%s has class O^%d_%d" % (head.label(), level, index))
    k = trace.add("CatalogFact", "%s has class O^%d_0" % (rest_expr.label(), level))
    trace.add("ThmSec5Prod%d" % index,
              "%s = %s x %s" % (expr.label(), head.label(), rest_expr.label()), (h, k))
    return trace.done(RINFINITY if index == 1 else INDEX_TWO)


def decide_free_product(expr: ex.GroupExpr) -> Verdict:
    if expr.node != "free":
        return Verdict(UNKNOWN)
    bad = [f.label() for f in expr.factors if not f.freely_indecomposable]
    if bad:
        return Verdict(UNKNOWN,
                       notes=("hypothesis violation: factors %s are not freely "
                              "indecomposable" % ", ".join(bad),))
    # (1) all factors finite
    if all(f.finite for f in expr.factors):
        trace = _TraceBuilder()
        trace.add("ThmFreeProd1",
                  "%s is a free product of %d non-trivial finite groups"
                  % (expr.label(), len(expr.factors)))
        return trace.done(RINFINITY)
    # (2) one O^m_1 factor, the rest O^k_0 with k <= m (level-one data)
    classes = [lookup_invariants(f).o_class_at(1) for f in expr.factors]
    j = _lone_head(classes)
    if j is not None and classes[j] == O_CLASS_1:
        trace = _TraceBuilder()
        h = trace.add("CatalogFact", "%s has class O^1_1" % expr.factors[j].label())
        others = trace.add("CatalogFact",
                           "remaining factors %s have class O^1_0"
                           % ", ".join(f.label() for i, f in enumerate(expr.factors) if i != j))
        trace.add("ThmFreeProd2", expr.label(), (h, others))
        return trace.done(RINFINITY)
    # (3) the direct product of the factors has the property, and some factor
    # is abelian but not infinite cyclic
    witness = next((f for f in expr.factors if f.abelian and not f.is_infinite_cyclic), None)
    if witness is not None:
        bar = ex.direct_product(list(expr.factors))
        sub = decide(bar)
        if sub.conclusion == RINFINITY:
            return _lift(sub, "%s is abelian and not infinite cyclic" % witness.label(),
                         "ThmFreeProd3", "direct product %s has the property" % bar.label())
        return Verdict(UNKNOWN,
                       notes=("direct-product premise unverified: decide(%s) = %s"
                              % (bar.label(), sub.conclusion),))
    return Verdict(UNKNOWN, notes=("no free-product condition applies",))


def _decide_catalog(expr: ex.GroupExpr) -> Verdict:
    inv = lookup_invariants(expr)
    if inv.rinf_known:
        trace = _TraceBuilder()
        trace.add("CatalogFact", "%s: %s" % (expr.label(), inv.rinf_known))
        return trace.done(RINFINITY)
    return Verdict(UNKNOWN)


def _decide_torsion_split(expr: ex.GroupExpr) -> Verdict:
    """Direct products (torsion-free part) x (finite abelian part): quotient by
    the characteristic finite torsion subgroup and lift the property."""
    if expr.node != "direct":
        return Verdict(UNKNOWN)
    torsion_free = [f for f in expr.factors if f.torsion_free and not f.is_trivial]
    finite_abelian = [f for f in expr.factors if f.finite and f.abelian and not f.is_trivial]
    if not finite_abelian or not torsion_free:
        return Verdict(UNKNOWN)
    if len(torsion_free) + len(finite_abelian) != sum(1 for f in expr.factors if not f.is_trivial):
        return Verdict(UNKNOWN)
    core = torsion_free[0] if len(torsion_free) == 1 else ex.direct_product(torsion_free)
    sub = decide(core)
    if sub.conclusion != RINFINITY:
        return Verdict(UNKNOWN)
    return _lift(sub,
                 "the torsion elements of %s form the finite characteristic subgroup "
                 "%s, with torsion-free quotient %s"
                 % (expr.label(), " x ".join(f.label() for f in finite_abelian), core.label()),
                 "LemRFacts1",
                 "every automorphism induces one on the quotient %s, which has the property"
                 % core.label())


def decide(expr: ex.GroupExpr) -> Verdict:
    """Strategy combinator: run every rule, return the strongest verdict,
    earliest rule winning ties; an Unknown carries the rules' notes in rule
    order.  Deterministic and total on parseable input.  One query evaluates
    each distinct expression node once: the outermost call opens the
    invariants memo, nested calls share it."""
    # the rules are named here, not bound in a module-level tuple, so that a
    # wrapped or patched rule is the one that runs
    rules = (_decide_catalog, decide_main, decide_gk, decide_free_product, _decide_torsion_split)
    with query_memo():
        stages = [rule(expr) for rule in rules]
    best = max(stages, key=lambda verdict: verdict.strength)
    if best.conclusion == UNKNOWN:
        return Verdict(UNKNOWN, notes=tuple(dict.fromkeys(n for v in stages for n in v.notes)))
    return best


def decide_text(text: str) -> Verdict:
    return decide(ex.parse_group_expr(text))
