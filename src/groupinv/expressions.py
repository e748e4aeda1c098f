"""Group expressions: catalog atoms combined by direct and free products.

Grammar (UTF-8 text):  atoms ``Z``, ``Z^k``, ``F(n)``, ``BS(1,n)``, ``Klein``,
``B(n)``, ``Thompson``, ``T(n)``, ``L(n)``, ``Zmod(k)``; binary operators
``x`` (direct product) and ``*`` (free product), both left-associative with
``*`` binding weaker; parentheses allowed.

Small-index atoms that coincide with earlier ones are aliased at construction
(F(1) and B(2) are infinite cyclic, B(1) is trivial, T(2) is the original
Thompson group) so each group has one canonical atom.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from . import _refuse_assignment, abelian


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class ParameterError(ValueError):
    pass


# ---------------------------------------------------------------------------
# atoms

FREE_ABELIAN = "FreeAbelian"
FREE = "Free"
BAUMSLAG_SOLITAR = "BaumslagSolitar"
KLEIN_BOTTLE = "KleinBottle"
BRAID = "Braid"
THOMPSON_F = "ThompsonF"
GENERALIZED_THOMPSON = "GeneralizedThompson"
LAMPLIGHTER = "Lamplighter"
FINITE_CYCLIC = "FiniteCyclic"
FINITE_TABLE = "FiniteTable"


class GroupAtom:
    """Immutable; equal and hashed by kind, parameters and table."""

    __slots__ = ("kind", "params", "table")

    def __init__(self, kind: str, params: tuple[int, ...] = (),
                 table: tuple[tuple[int, ...], ...] | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "table", table)

    __setattr__ = __delattr__ = _refuse_assignment

    def __eq__(self, other):
        if other.__class__ is GroupAtom:
            return ((self.kind, self.params, self.table)
                    == (other.kind, other.params, other.table))
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.params, self.table))

    @property
    def finite(self) -> bool:
        if self.kind == FREE_ABELIAN:
            return self.params[0] == 0
        if self.kind == FINITE_CYCLIC:
            return True
        if self.kind == FINITE_TABLE:
            return True
        return False

    @property
    def abelian(self) -> bool:
        if self.kind in (FREE_ABELIAN, FINITE_CYCLIC):
            return True
        if self.kind == FINITE_TABLE:
            return abelian.FiniteGroupTable(self.table).is_abelian()
        return False

    @property
    def trivial(self) -> bool:
        if self.kind == FREE_ABELIAN:
            return self.params[0] == 0
        if self.kind == FINITE_CYCLIC:
            return self.params[0] == 1
        if self.kind == FINITE_TABLE:
            return len(self.table) == 1
        return False

    @property
    def freely_indecomposable(self) -> bool:
        # free groups of rank >= 2 split; everything else in the catalog is
        # one-ended, finite, or amenable, hence freely indecomposable
        return not (self.kind == FREE and self.params[0] >= 2)

    @property
    def torsion_free(self) -> bool:
        if self.kind in (FREE_ABELIAN, FREE, BAUMSLAG_SOLITAR, KLEIN_BOTTLE,
                         BRAID, THOMPSON_F, GENERALIZED_THOMPSON):
            return True
        return self.trivial  # finite and lamplighter atoms carry torsion

    def label(self) -> str:
        if self.kind == FREE_ABELIAN:
            k = self.params[0]
            return "Z" if k == 1 else "Z^%d" % k
        if self.kind == FREE:
            return "F(%d)" % self.params[0]
        if self.kind == BAUMSLAG_SOLITAR:
            return "BS(1,%d)" % self.params[0]
        if self.kind == KLEIN_BOTTLE:
            return "Klein"
        if self.kind == BRAID:
            return "B(%d)" % self.params[0]
        if self.kind == THOMPSON_F:
            return "Thompson"
        if self.kind == GENERALIZED_THOMPSON:
            return "T(%d)" % self.params[0]
        if self.kind == LAMPLIGHTER:
            return "L(%d)" % self.params[0]
        if self.kind == FINITE_CYCLIC:
            return "Zmod(%d)" % self.params[0]
        return "Table(order %d)" % len(self.table)

    def __repr__(self):
        return "GroupAtom(%s)" % self.label()


def free_abelian(k: int) -> GroupAtom:
    if k < 0:
        raise ParameterError("Z^k needs k >= 0")
    return GroupAtom(FREE_ABELIAN, (k,))


def free_group(n: int) -> GroupAtom:
    if n < 1:
        raise ParameterError("F(n) needs n >= 1")
    if n == 1:
        return free_abelian(1)
    return GroupAtom(FREE, (n,))


def baumslag_solitar(m: int, n: int) -> GroupAtom:
    if m != 1:
        raise ParameterError("only BS(1,n) is supported")
    if n < 2:
        raise ParameterError("BS(1,n) needs n >= 2")
    return GroupAtom(BAUMSLAG_SOLITAR, (n,))


def klein_bottle() -> GroupAtom:
    return GroupAtom(KLEIN_BOTTLE)


def braid(n: int) -> GroupAtom:
    if n < 1:
        raise ParameterError("B(n) needs n >= 1")
    if n == 1:
        return free_abelian(0)
    if n == 2:
        return free_abelian(1)  # B(2) is infinite cyclic
    return GroupAtom(BRAID, (n,))


def thompson_f() -> GroupAtom:
    return GroupAtom(THOMPSON_F)


def generalized_thompson(n: int) -> GroupAtom:
    if n < 2:
        raise ParameterError("T(n) needs n >= 2")
    if n == 2:
        return thompson_f()
    return GroupAtom(GENERALIZED_THOMPSON, (n,))


def lamplighter(n: int) -> GroupAtom:
    if n < 2:
        raise ParameterError("L(n) needs n >= 2")
    return GroupAtom(LAMPLIGHTER, (n,))


def finite_cyclic(k: int) -> GroupAtom:
    if k < 1:
        raise ParameterError("Zmod(k) needs k >= 1")
    return GroupAtom(FINITE_CYCLIC, (k,))


def finite_table(table: Sequence[Sequence[int]]) -> GroupAtom:
    # validates the entries, the group axioms and the order cap
    return GroupAtom(FINITE_TABLE, (), abelian.FiniteGroupTable(table).table)


# ---------------------------------------------------------------------------
# expressions


class GroupExpr:
    """Immutable expression node, equal by node kind, atom and factors.

    ``depth`` counts the product nodes on the longest path down to an atom.
    ``hash_value`` is the hash of (node, atom, factors), computed once: memo
    lookups would otherwise rehash the whole subtree on every call."""

    __slots__ = ("node", "atom", "factors", "depth", "hash_value")

    def __init__(self, node: str, atom: GroupAtom | None = None,
                 factors: tuple["GroupExpr", ...] = ()):
        depth = 0
        if factors:
            depth = 1 + max([f.depth for f in factors])
            if depth > MAX_DEPTH:
                raise ValueError("products nested deeper than %d levels" % MAX_DEPTH)
        object.__setattr__(self, "node", node)  # "atom" | "direct" | "free"
        object.__setattr__(self, "atom", atom)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "hash_value", hash((node, atom, factors)))

    __setattr__ = __delattr__ = _refuse_assignment

    def __eq__(self, other):
        if other.__class__ is GroupExpr:
            return ((self.node, self.atom, self.factors)
                    == (other.node, other.atom, other.factors))
        return NotImplemented

    def __hash__(self):
        return self.hash_value

    def __repr__(self):
        return "GroupExpr(%s)" % self.label()

    def label(self) -> str:
        if self.node == "atom":
            return self.atom.label()
        sep = " x " if self.node == "direct" else " * "
        parts = []
        for f in self.factors:
            text = f.label()
            if f.node != "atom" and (f.node != self.node or self.node == "free"):
                text = "(%s)" % text
            parts.append(text)
        return sep.join(parts)

    @property
    def is_trivial(self) -> bool:
        if self.node == "atom":
            return self.atom.trivial
        return all(f.is_trivial for f in self.factors)

    @property
    def finite(self) -> bool:
        if self.node == "atom":
            return self.atom.finite
        if self.node == "direct":
            return all(f.finite for f in self.factors)
        return all(f.is_trivial for f in self.factors)  # nontrivial free products are infinite

    @property
    def abelian(self) -> bool:
        if self.node == "atom":
            return self.atom.abelian
        if self.node == "direct":
            return all(f.abelian for f in self.factors)
        return False

    @property
    def torsion_free(self) -> bool:
        if self.node == "atom":
            return self.atom.torsion_free
        return all(f.torsion_free for f in self.factors)

    @property
    def is_infinite_cyclic(self) -> bool:
        return self.node == "atom" and self.atom == free_abelian(1)

    @property
    def freely_indecomposable(self) -> bool:
        if self.node == "atom":
            return self.atom.freely_indecomposable
        if self.node == "free":
            return False
        return True  # non-trivial direct products do not split freely


def atom_expr(atom: GroupAtom) -> GroupExpr:
    return GroupExpr("atom", atom=atom)


def _flatten(node: str, factors: Iterable[GroupExpr]) -> tuple[GroupExpr, ...]:
    """The factors of a ``node`` product, with nested ``node`` products
    spliced in."""
    flat: list[GroupExpr] = []
    for f in factors:
        if f.node == node:
            flat.extend(f.factors)
        else:
            flat.append(f)
    if len(flat) < 2:
        raise ValueError("%s product needs at least two factors" % node)
    return tuple(flat)


def direct_product(factors: Iterable[GroupExpr]) -> GroupExpr:
    return GroupExpr("direct", factors=_flatten("direct", factors))


def free_product(factors: Iterable[GroupExpr]) -> GroupExpr:
    flat = _flatten("free", factors)
    if any(f.is_trivial for f in flat):
        raise ValueError("free-product factors must be non-trivial")
    return GroupExpr("free", factors=flat)


# ---------------------------------------------------------------------------
# parser

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([()^,*]))")


def _tokenize(text: str):
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError("unexpected character %r" % stripped[0],
                             len(text) - len(stripped))
        number, word, symbol = m.groups()
        token_pos = m.start(1) if number else m.start(2) if word else m.start(3)
        if number:
            yield ("int", int(number), token_pos)
        elif word:
            yield ("word", word, token_pos)
        else:
            yield ("sym", symbol, token_pos)
        pos = m.end()
    yield ("end", None, len(text))


# each parenthesis costs three stack frames (expr at both levels, factor);
# the bound keeps the descent far below the interpreter's recursion limit
MAX_NESTING = 100
# the deepest product tree a parsed string can give: the top level and each
# parenthesis level add a free product and a direct product under it.  Trees
# built through the API are refused beyond it, so every recursive walk over an
# expression stays as shallow as it is for parsed text
MAX_DEPTH = 2 * (MAX_NESTING + 1)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = list(_tokenize(text))
        self.index = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok

    def expect_symbol(self, symbol: str):
        kind, value, pos = self.peek()
        if kind != "sym" or value != symbol:
            raise ParseError("expected %r" % symbol, pos)
        return self.advance()

    def expect_int(self) -> int:
        kind, value, pos = self.peek()
        if kind != "int":
            raise ParseError("expected an integer", pos)
        self.advance()
        return value

    # grammar: expr := term ('*' term)* ; term := factor ('x' factor)* ;
    # factor := atom | '(' expr ')'.  expr(0) reads an expr, expr(1) a term
    _LEVELS = ((("sym", "*"), free_product), (("word", "x"), direct_product))

    def parse(self) -> GroupExpr:
        expr = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("unexpected trailing input", pos)
        return expr

    def expr(self, level: int = 0) -> GroupExpr:
        operator, build = self._LEVELS[level]
        factors = []
        while True:
            factors.append(self.factor() if level else self.expr(1))
            if self.peek()[:2] != operator:
                break
            self.advance()
        if len(factors) == 1:
            return factors[0]
        try:
            return build(factors)
        except ValueError as exc:
            raise ParseError(str(exc), 0)

    def factor(self) -> GroupExpr:
        kind, value, pos = self.peek()
        if kind == "sym" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError("parentheses nested deeper than %d" % MAX_NESTING, pos)
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect_symbol(")")
            return inner
        if kind != "word":
            raise ParseError("expected a group atom or '('", pos)
        self.advance()
        try:
            return atom_expr(self._atom(value, pos))
        except ParameterError as exc:
            raise ParseError(str(exc), pos)

    def _atom(self, name: str, pos: int) -> GroupAtom:
        if name == "Z":
            kind, value, _ = self.peek()
            if kind == "sym" and value == "^":
                self.advance()
                return free_abelian(self.expect_int())
            return free_abelian(1)
        if name == "Klein":
            return klein_bottle()
        if name == "Thompson":
            return thompson_f()
        if name == "F":
            return free_group(self._args(pos, 1)[0])
        if name == "BS":
            m, n = self._args(pos, 2)
            return baumslag_solitar(m, n)
        if name == "B":
            return braid(self._args(pos, 1)[0])
        if name == "T":
            return generalized_thompson(self._args(pos, 1)[0])
        if name == "L":
            return lamplighter(self._args(pos, 1)[0])
        if name == "Zmod":
            return finite_cyclic(self._args(pos, 1)[0])
        raise ParseError("unknown atom %r" % name, pos)

    def _args(self, pos: int, count: int) -> list[int]:
        self.expect_symbol("(")
        values = [self.expect_int()]
        while len(values) < count:
            self.expect_symbol(",")
            values.append(self.expect_int())
        self.expect_symbol(")")
        return values


def parse_group_expr(text: str) -> GroupExpr:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# presentations and abelianization


class FinitePresentation:
    """Finitely many generators and relators; relators are (generator, exponent)
    words.  Immutable."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators: tuple[str, ...],
                 relators: tuple[tuple[tuple[str, int], ...], ...]):
        if len(set(generators)) != len(generators):
            raise ValueError("generator names must be distinct")
        for rel in relators:
            for g, _ in rel:
                if g not in generators:
                    raise ValueError("relator uses unknown generator %r" % g)
        for rel in relators:
            reduced = free_reduce(rel)
            if reduced != rel:
                raise ValueError("relators must be freely reduced")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relators", relators)

    __setattr__ = __delattr__ = _refuse_assignment


def free_reduce(word: Sequence[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    out: list[tuple[str, int]] = []
    for g, e in word:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            combined = out[-1][1] + e
            out.pop()
            if combined:
                out.append((g, combined))
        else:
            out.append((g, e))
    return tuple(out)


def presentation(generators: Sequence[str], relators: Sequence[Sequence[tuple[str, int]]]) -> FinitePresentation:
    return FinitePresentation(tuple(generators),
                              tuple(free_reduce(r) for r in relators))


def abelianization_of_presentation(p: FinitePresentation) -> tuple[int, list[int]]:
    """(free rank, invariant torsion factors) of the abelianized presentation,
    via the Smith form of the relator exponent-sum matrix."""
    gens = list(p.generators)
    if not p.relators:
        return len(gens), []
    matrix = []
    for rel in p.relators:
        row = [0] * len(gens)
        for g, e in rel:
            row[gens.index(g)] += e
        matrix.append(row)
    # columns = generators: cokernel of the row span transposed into column form
    transposed = [[matrix[r][c] for r in range(len(matrix))] for c in range(len(gens))]
    return abelian.abelian_group_from_matrix(transposed)


def word(text: str) -> tuple[tuple[str, int], ...]:
    """Parse words like ``t a t^-1 a^-2`` into (generator, exponent) pairs."""
    out = []
    for chunk in text.split():
        if "^" in chunk:
            g, e = chunk.split("^", 1)
            out.append((g, int(e)))
        else:
            out.append((chunk, 1))
    return free_reduce(out)


def atom_presentation(atom: GroupAtom) -> FinitePresentation | None:
    """Finite presentation when the atom has one (Thompson's group included);
    None for the atoms presented infinitely (T(n), n > 2, and lamplighters)."""
    if atom.kind == FREE_ABELIAN:
        k = atom.params[0]
        gens = ["x%d" % i for i in range(1, k + 1)]
        rels = []
        for i in range(k):
            for j in range(i + 1, k):
                rels.append([(gens[i], 1), (gens[j], 1), (gens[i], -1), (gens[j], -1)])
        return presentation(gens, rels)
    if atom.kind == FREE:
        n = atom.params[0]
        return presentation(["x%d" % i for i in range(1, n + 1)], [])
    if atom.kind == BAUMSLAG_SOLITAR:
        n = atom.params[0]
        return presentation(["a", "t"], [word("t a t^-1 a^%d" % (-n))])
    if atom.kind == KLEIN_BOTTLE:
        return presentation(["a", "b"], [word("a b a b^-1")])
    if atom.kind == BRAID:
        n = atom.params[0]
        gens = ["s%d" % i for i in range(1, n)]
        rels = []
        for i in range(len(gens) - 1):
            rels.append([(gens[i], 1), (gens[i + 1], 1), (gens[i], 1),
                         (gens[i + 1], -1), (gens[i], -1), (gens[i + 1], -1)])
        for i in range(len(gens)):
            for j in range(i + 2, len(gens)):
                rels.append([(gens[i], 1), (gens[j], 1), (gens[i], -1), (gens[j], -1)])
        return presentation(gens, rels)
    if atom.kind == THOMPSON_F:
        # two-generator presentation with commutator relators
        a, b = "a", "b"
        def comm(u, v):
            return list(u) + list(v) + [(g, -e) for g, e in reversed(u)] + [(g, -e) for g, e in reversed(v)]
        u = [(a, 1), (b, -1)]
        v1 = [(a, -1), (b, 1), (a, 1)]
        v2 = [(a, -2), (b, 1), (a, 2)]
        return presentation([a, b], [comm(u, v1), comm(u, v2)])
    if atom.kind == FINITE_CYCLIC:
        k = atom.params[0]
        return presentation(["x"], [[("x", k)]] if k > 1 else [[("x", 1)]])
    # documentation only, no finite presentation exists or is used:
    #   T(n): generators x0, x1, x2, ... with x_j^-1 x_i x_j = x_{i+n-1} for
    #         0 <= j < i (the abelianization has rank n; see the tests)
    #   L(n): generators a, t with a^n and all commutators [a, t^k a t^-k]
    return None
