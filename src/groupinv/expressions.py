"""Group expressions: catalog atoms combined by direct and free products.

Grammar (UTF-8 text):  atoms ``Z``, ``Z^k``, ``F(n)``, ``BS(1,n)``, ``Klein``,
``B(n)``, ``Thompson``, ``T(n)``, ``L(n)``, ``Zmod(k)``; binary operators
``x`` (direct product) and ``*`` (free product), both left-associative with
``*`` binding weaker; parentheses allowed.

Small-index atoms that coincide with earlier ones are aliased at construction
(F(1) and B(2) are infinite cyclic, B(1) is trivial, T(2) is the original
Thompson group) so each group has one canonical atom.  Parses share one node
per atom: atom nodes are immutable, and each is built once per process.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Sequence

from . import _Record, _Value, abelian


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


class GroupAtom(_Value):
    __slots__ = ("kind", "params", "table")

    def __init__(self, kind: str, params: tuple[int, ...] = (),
                 table: tuple[tuple[int, ...], ...] | None = None):
        self._set(kind, params, table)

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
            return _table_is_abelian(self.table)
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


# validating an order-512 table takes about 15 ms, and the rules of ``rinf``
# read ``abelian`` more than once; only answers are cached, so a table that is
# not a group raises on every read
@lru_cache(maxsize=8)
def _table_is_abelian(table: tuple[tuple[int, ...], ...]) -> bool:
    return abelian.FiniteGroupTable(table).is_abelian()


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


class GroupExpr(_Record):
    """Expression node, equal by node kind, atom and factors.

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
        # node: "atom" | "direct" | "free"
        self._set(node, atom, factors, depth, hash((node, atom, factors)))

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

# one match per token: an integer, a word, a symbol, or any other non-space
# character, which the tokenizer refuses
_TOKEN = re.compile(r"\d+|[A-Za-z]+|[()^,*]|\S")
_SYMBOLS = frozenset("()^,*")

# the parser keeps one stack entry per open parenthesis and no Python frames,
# but the cap stays: MAX_DEPTH below follows from it, and it bounds every
# recursive walk over an expression, such as label, decide and
# lookup_invariants
MAX_NESTING = 100
# the deepest product tree a parsed string can give: the top level and each
# parenthesis level add a free product and a direct product under it.  Trees
# built through the API are refused beyond it, so every recursive walk over an
# expression stays as shallow as it is for parsed text
MAX_DEPTH = 2 * (MAX_NESTING + 1)

# atom name -> (constructor, count of parenthesized integer arguments); `Z`
# takes an optional `^k` instead
_ATOMS = {"Z": (free_abelian, 0), "Klein": (klein_bottle, 0), "Thompson": (thompson_f, 0),
          "F": (free_group, 1), "BS": (baumslag_solitar, 2), "B": (braid, 1),
          "T": (generalized_thompson, 1), "L": (lamplighter, 1), "Zmod": (finite_cyclic, 1)}


@lru_cache(maxsize=1024)
def _atom_node(name: str, *args: int) -> GroupExpr:
    """The node of an atom, one per process: nodes are immutable, so parses
    share it."""
    return atom_expr(_ATOMS[name][0](*args))


class _Refused(Exception):
    """A parse failure: its message and the index of the token it is at, or
    None for position 0.  The position is read only when it is raised."""


def _build(build, factors: list[GroupExpr]) -> GroupExpr:
    if len(factors) == 1:
        return factors[0]
    try:
        return build(factors)
    except ValueError as exc:
        raise _Refused(str(exc), None)


def _atom(tokens: list[str], i: int) -> tuple[GroupExpr, int]:
    """The node of the atom whose name is token i, and the index after it."""
    name = tokens[i]
    spec = _ATOMS.get(name)
    if spec is None:
        if name.isascii() and name.isalpha():
            raise _Refused("unknown atom %r" % name, i)
        raise _Refused("expected a group atom or '('", i)
    args = []
    j = i + 1
    if name == "Z":
        if tokens[j] == "^":
            j += 1
            if not tokens[j].isdecimal():
                raise _Refused("expected an integer", j)
            args.append(int(tokens[j]))
            j += 1
        else:
            args.append(1)
    elif spec[1]:
        for separator in "(,"[:spec[1]]:
            if tokens[j] != separator:
                raise _Refused("expected %r" % separator, j)
            if not tokens[j + 1].isdecimal():
                raise _Refused("expected an integer", j + 1)
            args.append(int(tokens[j + 1]))
            j += 2
        if tokens[j] != ")":
            raise _Refused("expected ')'", j)
        j += 1
    try:
        return _atom_node(name, *args), j
    except ParameterError as exc:
        raise _Refused(str(exc), i)


def _parse(tokens: list[str]) -> GroupExpr:
    """The expression of ``tokens``, which end with "".

    Grammar: expr := term ('*' term)* ; term := factor ('x' factor)* ;
    factor := atom | '(' expr ')'.  ``free`` and ``direct`` collect the terms
    of the innermost open expr and the factors of its open term; each open
    parenthesis keeps the enclosing pair on ``stack``.  A product is built
    when its level closes."""
    stack = []
    free, direct = [], []
    i = 0
    while True:
        if tokens[i] == "(":
            if len(stack) == MAX_NESTING:
                raise _Refused("parentheses nested deeper than %d" % MAX_NESTING, i)
            stack.append((free, direct))
            free, direct = [], []
            i += 1
            continue
        node, i = _atom(tokens, i)
        direct.append(node)
        # close levels until an operator opens the next factor
        while tokens[i] != "x":
            free.append(_build(direct_product, direct))
            direct = []
            if tokens[i] == "*":
                break
            expr = _build(free_product, free)
            if not stack:
                if tokens[i]:
                    raise _Refused("unexpected trailing input", i)
                return expr
            if tokens[i] != ")":
                raise _Refused("expected ')'", i)
            free, direct = stack.pop()
            direct.append(expr)
            i += 1
        i += 1


def _raise_token_error(text: str) -> None:
    """Raise the tokenizer's error, if ``text`` has one: ParseError at the
    first character that starts no token, or int's ValueError at the first
    integer longer than it reads, whichever comes first."""
    for m in _TOKEN.finditer(text):
        token = m.group()
        if token.isdecimal():
            int(token)
        elif token not in _SYMBOLS and not (token.isascii() and token.isalpha()):
            raise ParseError("unexpected character %r" % token, m.start())


def _position(text: str, index: int | None) -> int:
    if index is None:
        return 0
    for k, m in enumerate(_TOKEN.finditer(text)):
        if k == index:
            return m.start()
    return len(text)  # the end of input


def parse_group_expr(text: str) -> GroupExpr:
    tokens = _TOKEN.findall(text)
    tokens.append("")  # the end of input
    try:
        return _parse(tokens)
    except (_Refused, ValueError) as exc:
        _raise_token_error(text)  # a tokenizer error fires first
        if isinstance(exc, _Refused):
            message, index = exc.args
            raise ParseError(message, _position(text, index)) from None
        raise
