"""The parser against the reference recursive-descent parser it replaced:
equal trees, or the same exception type, message and position."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupinv.expressions import (
    MAX_NESTING,
    GroupAtom,
    ParameterError,
    ParseError,
    atom_expr,
    baumslag_solitar,
    braid,
    direct_product,
    finite_cyclic,
    free_abelian,
    free_group,
    free_product,
    generalized_thompson,
    klein_bottle,
    lamplighter,
    parse_group_expr,
    thompson_f,
)

# ---------------------------------------------------------------------------
# the reference: a tokenizer generator and a recursive-descent parser

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

    def parse(self):
        expr = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("unexpected trailing input", pos)
        return expr

    def expr(self, level: int = 0):
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

    def factor(self):
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


def reference_parse(text: str):
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# agreement


def outcome(parse, text: str):
    """The tree, or the exception's type, message and position."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


LONG_INT = "7" * 5000  # beyond int's 4,300-digit limit
ATOMS = ["Z", "Z^0", "Z^3", "F(1)", "F(2)", "BS(1,2)", "B(1)", "B(3)", "T(2)", "T(5)",
         "L(4)", "Zmod(1)", "Zmod(6)", "Klein", "Thompson"]
FRAGMENTS = ATOMS + ["Z^", "^", "x", " x ", "xx", "*", " * ", "(", ")", ",", " ", "\t",
                     "F(", "BS(1", "BS(2,3)", "L(1)", "Zmod(0)", "Q", "12", "٣", "é", "!"]
fragment_texts = st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join)
# well-formed texts, some of them refused only when a product is built
well_formed = st.recursive(
    st.sampled_from(ATOMS),
    lambda kids: st.builds(lambda op, parts, wrap: (wrap % op.join(parts)),
                           st.sampled_from([" x ", " * ", "x", "*"]),
                           st.lists(kids, min_size=2, max_size=3),
                           st.sampled_from(["%s", "(%s)", " ( %s ) "])),
    max_leaves=12)


def _splice(text: str, cut: int, fragment: str) -> str:
    return text[:cut] + fragment + text[cut:]


def _nested(levels: int, opening: str, inner: str) -> str:
    return opening * levels + inner + ")" * levels


texts = st.one_of(
    fragment_texts,
    well_formed,
    st.builds(_splice, well_formed, st.integers(0, 60), fragment_texts),
    st.builds(_nested, st.sampled_from([MAX_NESTING, MAX_NESTING + 1]),
              st.sampled_from(["(", "Z * Z x ("]), st.one_of(well_formed, fragment_texts)),
    st.builds(_splice, well_formed, st.integers(0, 60), st.just("Z^" + LONG_INT)),
)


@settings(max_examples=400, deadline=None)
@given(texts)
def test_parser_agrees_with_the_reference(text):
    assert outcome(parse_group_expr, text) == outcome(reference_parse, text)


# one text per site that raises ParseError, with its message and position
REFUSALS = [
    ("Z x é", "unexpected character 'é'", 4),
    ("Q(2) !", "unexpected character '!'", 5),
    ("F 2", "expected '('", 2),
    ("BS(1", "expected ','", 4),
    ("F(2", "expected ')'", 3),
    ("Z^", "expected an integer", 2),
    ("Zmod(x)", "expected an integer", 5),
    ("(Z x Z", "expected ')'", 6),
    ("Z x F(2) * (Klein", "expected ')'", 17),
    ("Z Z", "unexpected trailing input", 2),
    ("Z)", "unexpected trailing input", 1),
    ("Z x", "expected a group atom or '('", 3),
    ("* Z", "expected a group atom or '('", 0),
    ("Z x Q(2)", "unknown atom 'Q'", 4),
    ("Z x x", "unknown atom 'x'", 4),
    ("Z x BS(2,3)", "only BS(1,n) is supported", 4),
    ("Zmod(0)", "Zmod(k) needs k >= 1", 0),
    ("Z * Zmod(1)", "free-product factors must be non-trivial", 0),
    ("(Z * (Zmod(1) * Z) x Z", "free-product factors must be non-trivial", 0),
    ("(" * (MAX_NESTING + 1) + "Z" + ")" * (MAX_NESTING + 1),
     "parentheses nested deeper than %d" % MAX_NESTING, MAX_NESTING),
]


@pytest.mark.parametrize("text,message,position", REFUSALS,
                         ids=[message for _, message, _ in REFUSALS])
def test_each_refusal_site(text, message, position):
    expected = (ParseError, "%s (at position %d)" % (message, position), position)
    assert outcome(parse_group_expr, text) == expected
    assert outcome(reference_parse, text) == expected


def test_integers_beyond_the_digit_limit_raise_value_error_in_token_order():
    for text in ("Z^" + LONG_INT, "Q Z^" + LONG_INT, "Z^" + LONG_INT + " !"):
        with pytest.raises(ValueError, match="Exceeds the limit") as info:
            parse_group_expr(text)
        assert type(info.value) is ValueError
    with pytest.raises(ParseError, match="unexpected character '!' \\(at position 0\\)"):
        parse_group_expr("! Z^" + LONG_INT)


def test_parses_share_one_node_per_atom():
    first = parse_group_expr("BS(1,2) x F(3)")
    second = parse_group_expr("F(3) * (Z x BS(1,2))")
    assert first.factors[0] is second.factors[1].factors[1]
    assert first.factors[1] is second.factors[0]
