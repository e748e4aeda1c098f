"""Empirical connectivity probe on finite Cayley balls.

For atoms with implemented normal forms the radius-r ball of the Cayley graph
is built in one breadth-first pass, each vertex carrying its image under the
abelianization height map.  Each vertex gets its index when it is discovered
and emits its edges when it is expanded, so no second pass steps over the
ball.  One builder per family: the ``F(n)`` ball is a tree of reduced words
built without a dict; ``Z^k`` and the Klein bottle group key their dict by one
integer per normal form, so a generator move is an integer step and a key
tuple is built only for a newly found vertex.  ``BS(1,n)`` is built in the
coordinates of Z[1/n] x| Z: the normal form t^-p a^q t^s is the pair
(x, k) = (q / n^p, s - p), an a-move adds +-n^k to x and a t-move +-1 to k,
so with x scaled by n^r each vertex is one integer code, each move one integer
addition, and no key tuple is built at all.  The ball is kept as integer
columns: the edges as one flat list of (i, j, generator index) triples, the
``F(n)`` words as one last letter per vertex, the tree's parent formula giving
the rest, and the ``BS(1,n)`` normal forms as their codes; ``BallGraph.edges``
is a read-only view that builds an (i, j, name) edge only when it is read, and
the sweep reads the triples themselves.  A direction survives at level one
when the half-space sublevel sets stay connected after a bounded retreat; the
truncated-cone variant tests the closed-neighborhood analog.  All geometry is
exact: scales are rational and every comparison is an integer inequality,
never floating point.

The sublevel sets shrink as the scale grows, in both modes, so the probe is a
single sweep over the sublevel filtration (0-dimensional persistence): each
vertex gets the highest grid scale or retreat floor whose sublevel set holds
it, and one union-find pass adds vertices and edges from the highest level
down.  The levels come from one merge of the sorted scales and floors,
compared by integer cross multiplication, so no Fraction is built or hashed
on the way; a row builds its retreat only when it is not 0.  The
level of a vertex depends only on a = <h, gamma> (and |h|^2 in cone mode):
the half-space level is one bisection of a over the least integer each level
admits, the cone level a binary search below it, memoized by (a, |h|^2) and,
in front, by the height.  Each scale's core is a prefix of the core vertices
in entry order, so the sweep asks no per-scale question: it records the
highest level at which each prefix lies in one component (unions only merge,
so the prefix in the first vertex's component only grows and each entry is
written once), and the component count of each core still split at its
floor.  After the sweep a scale's retreat is one bisection in the grid
levels, and the whole probe costs O((V + E) alpha(V) + (V + Q) log L) for
V vertices, E edges, Q scales and L levels.

The work is capped before anything is allocated: the ball order predicted by
the closed growth series of the atom (for ``BS(1,n)`` the ``F(2)`` count,
which bounds the ball of any 2-generated group) may not exceed
``MAX_BALL_ORDER``, and that order times the number of generators, which
bounds both the edges and the key coordinates the ball stores, may not exceed
``MAX_BALL_WORK``.

A finite window cannot certify the limit behavior, so reports are labelled as
evidence.  Two safeguards keep ball-truncation artifacts out of the evidence:
vertices at distance exactly r are flagged as shell, and connectivity is only
demanded between core vertices well inside the ball (paths may run through
the whole ball).  Both the retreat budget and the core margin are part of the
reported configuration.

The ``probe`` command's scale reader (``_rational``) and JSON writer
(``_emit_probe``) live here too, so that no other command compiles them.
"""

from __future__ import annotations

import json
import re
import sys
from bisect import bisect_right
from collections.abc import Sequence
from fractions import Fraction
from math import isqrt
from operator import mul

from . import _Record, _Value, __version__
from . import expressions as ex
from .spheres import Direction
from .unionfind import UnionFind

HALF_SPACE = "halfspace"
TRUNCATED_CONE = "cone"

SUPPORTS_MEMBERSHIP = "SupportsMembership"
SUPPORTS_NON_MEMBERSHIP = "SupportsNonMembership"
INCONCLUSIVE = "Inconclusive"

# F(2) at radius 12 has 1,062,881 vertices and fits; F(3) at radius 12 would
# have about 3.7e8
MAX_BALL_ORDER = 1_200_000
# vertices times generators: every 2-generated ball under the order cap fits
# (F(2) at radius 12: 2,125,762), Z^300 at radius 2 (180,601 x 300) does not
MAX_BALL_WORK = 2 * MAX_BALL_ORDER


class UnsupportedAtom(ValueError):
    pass


class ProbeConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# normal forms


def _unsupported(atom: ex.GroupAtom) -> UnsupportedAtom:
    if atom.kind in (ex.THOMPSON_F, ex.GENERALIZED_THOMPSON):
        reason = ("Thompson groups T(n) are rejected by design; for n > 2 they are "
                  "presented infinitely")
    else:
        reason = "the probe supports Z^k with k >= 1, F(n), BS(1,n) and Klein"
    return UnsupportedAtom("no implemented normal form for %s (%s)" % (atom.label(), reason))


def _predicted_order(atom: ex.GroupAtom, radius: int, cap: int) -> int:
    """Order of the radius-r ball from the closed growth series of the atom,
    summed term by term and cut off at the first partial sum above ``cap``,
    so a huge radius or rank costs a few big-integer steps."""
    if atom.kind in (ex.FREE_ABELIAN, ex.KLEIN_BOTTLE):
        if atom.kind == ex.FREE_ABELIAN and atom.params[0] < 1:
            raise _unsupported(atom)
        # Z^k: sum_j 2^j C(k,j) C(r,j); the Klein bottle group has the Z^2 count
        k = atom.params[0] if atom.kind == ex.FREE_ABELIAN else 2
        total = term = 1
        for j in range(1, min(k, radius) + 1):
            if total > cap:
                break
            term = term * 2 * (k - j + 1) * (radius - j + 1) // (j * j)
            total += term
        return total
    if atom.kind in (ex.FREE, ex.BAUMSLAG_SOLITAR):
        # F(n): 1 + sum_{j=1}^r 2n (2n-1)^(j-1); BS(1,n) is bounded by F(2)
        n = atom.params[0] if atom.kind == ex.FREE else 2
        total, sphere = 1, 2 * n
        for _ in range(radius):
            if total > cap:
                break
            total += sphere
            sphere *= 2 * n - 1
        return total
    raise _unsupported(atom)


class _EdgeView(Sequence):
    """(i, j, generator name) for each i, j, generator-index triple, as a
    read-only sequence that builds an edge only when it is read; making the
    view copies nothing."""

    __slots__ = ("_triples", "_names")

    def __init__(self, triples: Sequence[int], names: tuple[str, ...]):
        self._triples, self._names = triples, names

    def __len__(self) -> int:
        return len(self._triples) // 3

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[x] for x in range(len(self))[k])
        k = range(len(self))[k]
        t = self._triples
        return t[3 * k], t[3 * k + 1], self._names[t[3 * k + 2]]

    def __iter__(self):
        names, flat = self._names, iter(self._triples)
        for i, j, g in zip(flat, flat, flat):
            yield i, j, names[g]


class BallGraph(_Record):
    """A Cayley ball as integer columns, one entry per vertex in breadth-first
    order, or per edge.

    ``heights`` and ``wordlen`` give each vertex's height and word length.
    ``key_column`` gives its normal form: the key tuple for ``Z^k`` and
    Klein; for ``F(n)`` only the word's last letter (+-(g + 1) for x_(g+1),
    0 at the root), since the tree's parent formula gives the rest of the
    word; and for ``BS(1,n)`` the integer code X (2r + 3) + (k + r + 1) of
    t^-p a^q t^s, where x = q / n^p = X / n^r and k = s - p are its
    coordinates in Z[1/n] x| Z.  ``triples`` is one flat sequence i, j, g per
    edge: vertex i times generator g (the g-th name of ``gen_heights``) is
    vertex j.  ``edges`` is a read-only view over the triples that builds an
    (i, j, name) edge only when it is read; ``order`` and ``len(edges)`` build
    nothing."""

    __slots__ = ("atom", "radius", "key_column", "heights", "wordlen", "triples",
                 "height_dim", "gen_heights")

    def __init__(self, atom: ex.GroupAtom, radius: int, key_column: tuple,
                 heights: tuple[tuple[int, ...], ...], wordlen: tuple[int, ...],
                 triples: tuple[int, ...], height_dim: int,
                 gen_heights: dict[str, tuple[int, ...]] | None = None):
        self._set(atom, radius, key_column, heights, wordlen, triples, height_dim,
                  {} if gen_heights is None else gen_heights)

    @property
    def order(self) -> int:
        return len(self.wordlen)

    @property
    def edges(self) -> Sequence[tuple[int, int, str]]:
        """Each vertex's ``+gen`` edges (i, j, name), in vertex order, then
        generator order."""
        return _EdgeView(self.triples, tuple(self.gen_heights))


def _ball_lattice(k, radius, twisted=False):
    """``Z^k`` on integer vectors, or with ``twisted`` the Klein bottle group
    on a^p b^q (b a b^-1 = a^-1), whose a-move runs backwards when q is odd.
    One breadth-first pass over a dict keyed by the code
    sum_i (x_i + r)(2r + 1)^i, so a move is one integer step; a key tuple is
    built only for a newly found vertex.  Every coordinate of a ball vertex
    lies in [-r, r].  A shell vertex's + move leaves that range only from
    r e_g, and then its code is that of -r e_g + e_(g+1), at distance r + 1
    and outside the ball, or lies past every code when g is last.  A vertex
    gets its index when it is discovered and emits its ``+gen`` edges when it
    is expanded; length-r vertices only look their neighbours up."""
    base = 2 * radius + 1
    # per parity of the last coordinate: (generator, code step, coordinate step)
    straight = [(g, base ** g, 1) for g in range(k)]
    plans = (straight, [(0, -1, -1), (1, base, 1)] if twisted else straight)
    origin = radius * sum(base ** g for g in range(k))
    index = {origin: 0}
    keys, codes, wordlen, triples = [(0,) * k], [origin], [0], []
    begin, end = 0, 1
    for d in range(1, radius + 1):
        for i in range(begin, end):
            key, c = keys[i], codes[i]
            for g, step, dx in plans[key[-1] & 1]:
                nc = c + step
                j = index.get(nc)
                if j is None:
                    j = index[nc] = len(keys)
                    keys.append(key[:g] + (key[g] + dx,) + key[g + 1:])
                    codes.append(nc)
                triples += (i, j, g)
                nc = c - step
                if nc not in index:
                    index[nc] = len(keys)
                    keys.append(key[:g] + (key[g] - dx,) + key[g + 1:])
                    codes.append(nc)
        begin, end = end, len(keys)
        wordlen += [d] * (end - begin)
    for i in range(begin, end):
        c = codes[i]
        for g, step, _ in plans[keys[i][-1] & 1]:
            j = index.get(c + step)
            if j is not None:
                triples += (i, j, g)
    return keys, wordlen, triples


def _ball_free(n, radius):
    """The ``F(n)`` ball is the tree of reduced words, built with no dict and
    stored as one last letter per vertex.  Letters are +-(g + 1) for the
    generator x_(g+1).  The children of a vertex are its reduced one-letter
    extensions, created in discovery order, so a child's index is known when
    it is made; a vertex's ``+x`` edge goes to its parent when its last letter
    is x^-1 and to its child otherwise."""
    letters = [sign * (g + 1) for g in range(n) for sign in (1, -1)]
    # per last letter (0 at the root): the extending letters, and per
    # generator the position of the child its +edge goes to, None for the parent
    extend, plan, rows = {}, {}, {}
    for last in [0] + letters:
        kids = [x for x in letters if x != -last]
        extend[last] = kids
        plan[last] = [(g, None if last == -(g + 1) else kids.index(g + 1)) for g in range(n)]
        rows[last] = {}  # parent height -> the children's heights

    def child_heights(h, last):
        out = []
        for x in extend[last]:
            g = abs(x) - 1
            out.append(h[:g] + (h[g] + (1 if x > 0 else -1),) + h[g + 1:])
        return out

    # the root has 2n children and every other vertex 2n - 1, so the parent
    # of vertex i >= 2 is (i - 2) // (2n - 1); vertex 1 is x1, with no parent edge
    branch = 2 * n - 1
    lasts, heights, wordlen, triples = [0], [(0,) * n], [0], []
    begin, end = 0, 1
    for d in range(1, radius + 1):
        for i in range(begin, end):
            last, h = lasts[i], heights[i]
            first = len(lasts)
            for g, pos in plan[last]:
                triples += (i, (i - 2) // branch if pos is None else first + pos, g)
            lasts += extend[last]
            row = rows[last].get(h)
            if row is None:
                row = rows[last][h] = child_heights(h, last)
            heights += row
        begin, end = end, len(lasts)
        wordlen += [d] * (end - begin)
    for i in range(begin, end):
        last = lasts[i]
        if last < 0:
            triples += (i, (i - 2) // branch, -last - 1)
    return lasts, heights, wordlen, triples


def _ball_bs(n, radius):
    """``BS(1,n)`` in the coordinates of Z[1/n] x| Z: the normal form
    t^-p a^q t^s is the pair (x, k) = (q / n^p, s - p), and right
    multiplication by a^+-1 adds +-n^k to x, by t^+-1 adds +-1 to k.  On the
    ball p <= r and |k| <= r, and every neighbour the shell pass looks up
    has k >= -r, so X = x n^r is an integer and |k| <= r + 1 throughout;
    the dict is keyed by the one integer code = X W + (k + r + 1), with
    W = 2r + 3, which is one-to-one.  An a-move adds +-n^(k + r) W, read from
    a table indexed by code % W = k + r + 1, and a t-move adds +-1, so every
    move is one integer addition and no key tuple is built.  The height is
    -k = p - s, the negated stable-letter exponent, which puts the surviving
    character direction on the +1 side; it is one shared 1-tuple per value.
    The generators are a (index 0) and t (index 1)."""
    width = 2 * radius + 3
    # by k + r + 1: the a-move's code step n^(k + r) W (none below k = -r),
    # and the height -k
    shift = [0] + [n ** e * width for e in range(width - 1)]
    height = [(radius + 1 - c,) for c in range(width)]
    origin = radius + 1
    index = {origin: 0}
    codes, heights, wordlen, triples = [origin], [height[origin]], [0], []
    begin, end = 0, 1
    for d in range(1, radius + 1):
        for i in range(begin, end):
            code = codes[i]
            c = code % width
            step = shift[c]
            nxt = code + step
            ja = index.get(nxt)
            if ja is None:
                ja = index[nxt] = len(codes)
                codes.append(nxt)
                heights.append(height[c])
            nxt = code - step
            if nxt not in index:
                index[nxt] = len(codes)
                codes.append(nxt)
                heights.append(height[c])
            nxt = code + 1
            jt = index.get(nxt)
            if jt is None:
                jt = index[nxt] = len(codes)
                codes.append(nxt)
                heights.append(height[c + 1])
            triples += (i, ja, 0, i, jt, 1)
            nxt = code - 1
            if nxt not in index:
                index[nxt] = len(codes)
                codes.append(nxt)
                heights.append(height[c - 1])
        begin, end = end, len(codes)
        wordlen += [d] * (end - begin)
    for i in range(begin, end):
        code = codes[i]
        j = index.get(code + shift[code % width])
        if j is not None:
            triples += (i, j, 0)
        j = index.get(code + 1)
        if j is not None:
            triples += (i, j, 1)
    return codes, heights, wordlen, triples


def check_ball(atom: ex.GroupAtom, radius: int) -> None:
    """Refuse a radius under 2, an atom without a normal form here, and a ball
    over the order or work cap, before anything is built."""
    if radius < 2:
        raise ProbeConfigError("radius must be at least 2")
    order = _predicted_order(atom, radius, MAX_BALL_ORDER)
    if order > MAX_BALL_ORDER:
        raise ProbeConfigError("the radius-%d ball of %s would have more than %d vertices"
                               % (radius, atom.label(), MAX_BALL_ORDER))
    generators = atom.params[0] if atom.kind in (ex.FREE_ABELIAN, ex.FREE) else 2
    if order * generators > MAX_BALL_WORK:
        raise ProbeConfigError("the radius-%d ball of %s would have %d vertices times %d "
                               "generators, more than %d"
                               % (radius, atom.label(), order, generators, MAX_BALL_WORK))


def enumerate_ball(atom: ex.GroupAtom, radius: int) -> BallGraph:
    """All elements of word length <= radius in breadth-first order, with
    exact heights and the full induced edge set, built in one pass by a
    builder for the atom's family: a dict-free tree for ``F(n)``, and for
    ``BS(1,n)``, ``Z^k`` and the Klein bottle group a dict keyed by one
    integer per normal form, whose moves are integer steps; for ``BS(1,n)``
    that integer codes the element's coordinates in Z[1/n] x| Z.  The ball is
    stored as columns (see ``BallGraph``): ``F(n)`` keeps one last letter per
    vertex, ``BS(1,n)`` one code per vertex, ``Z^k`` and Klein their key
    tuples, which their builders need for the moves, and every family one
    flat i, j, generator-index triple per edge, each vertex's ``+gen`` edges
    in vertex order, then generator order."""
    check_ball(atom, radius)
    if atom.kind == ex.FREE_ABELIAN and atom.params[0] >= 1:
        k = atom.params[0]
        gens = {"e%d" % (g + 1): _unit(k, g) for g in range(k)}
        column, wordlen, triples = _ball_lattice(k, radius)
        heights = column = tuple(column)  # a vector is its own height
    elif atom.kind == ex.FREE:
        n = atom.params[0]
        gens = {"x%d" % (g + 1): _unit(n, g) for g in range(n)}
        column, heights, wordlen, triples = _ball_free(n, radius)
    elif atom.kind == ex.BAUMSLAG_SOLITAR:
        gens = {"a": (0,), "t": (-1,)}
        column, heights, wordlen, triples = _ball_bs(atom.params[0], radius)
    elif atom.kind == ex.KLEIN_BOTTLE:
        gens = {"a": (0,), "b": (1,)}
        column, wordlen, triples = _ball_lattice(2, radius, twisted=True)
        height = {q: (q,) for q in range(-radius, radius + 1)}
        heights = [height[q] for _, q in column]
    else:
        raise _unsupported(atom)
    # one column at a time, so each list is freed as soon as it is copied
    column = tuple(column)
    heights = tuple(heights)
    wordlen = tuple(wordlen)
    triples = tuple(triples)
    return BallGraph(atom=atom, radius=radius, key_column=column, heights=heights,
                     wordlen=wordlen, triples=triples, height_dim=len(heights[0]),
                     gen_heights=gens)


def _unit(k: int, g: int) -> tuple[int, ...]:
    return tuple(1 if i == g else 0 for i in range(k))


# ---------------------------------------------------------------------------
# exact sublevel tests


def _ge_scaled_norm(a: int, s: Fraction, norm_sq: int) -> bool:
    """a >= s * sqrt(norm_sq), exactly."""
    sp, sq = s.numerator, s.denominator
    left = a * sq
    if sp <= 0:
        if left >= 0:
            return True
        return left * left <= sp * sp * norm_sq
    if left < 0:
        return False
    return left * left >= sp * sp * norm_sq


def halfspace_test(h: Sequence[int], gamma: Direction, s: Fraction) -> bool:
    a = sum(x * g for x, g in zip(h, gamma.coords))
    return _ge_scaled_norm(a, s, gamma.norm_sq())


def cone_test(h: Sequence[int], gamma: Direction, s: Fraction) -> bool:
    """Half-space membership plus the angle bound tan(angle) <= 1/s; at s = 0
    the angle bound is pi/2 and the test degenerates to the half-space."""
    if s < 0:
        raise ProbeConfigError("truncated cones need s >= 0")
    a = sum(x * g for x, g in zip(h, gamma.coords))
    return _in_cone(a, sum(x * x for x in h), gamma.norm_sq(), s)


def _in_cone(a: int, norm_h: int, norm_g: int, s: Fraction) -> bool:
    """cone_test for s >= 0 from a = <h, gamma>, |h|^2 and |gamma|^2."""
    if not _ge_scaled_norm(a, s, norm_g):
        return False
    sp, sq = s.numerator, s.denominator
    return sp * sp * (norm_h * norm_g - a * a) <= sq * sq * a * a


def halfspace_subgraph(ball: BallGraph, gamma: Direction, s) -> list[int]:
    s = Fraction(s)
    _check_direction(gamma, ball.height_dim)
    return [i for i in range(ball.order) if halfspace_test(ball.heights[i], gamma, s)]


def cone_subgraph(ball: BallGraph, gamma: Direction, s) -> list[int]:
    s = Fraction(s)
    _check_direction(gamma, ball.height_dim)
    return [i for i in range(ball.order) if cone_test(ball.heights[i], gamma, s)]


def _check_direction(gamma: Direction, height_dim: int):
    if len(gamma) != height_dim:
        raise ProbeConfigError("direction has %d coordinates, ball heights have %d"
                               % (len(gamma), height_dim))


# ---------------------------------------------------------------------------
# the probe


class ProbeConfig(_Value):
    """``core_margin`` None means a core radius of radius // 2 + 1."""

    __slots__ = ("radius", "direction", "grid", "mode", "lambda_max", "core_margin")

    def __init__(self, radius: int, direction: Direction, grid: tuple[Fraction, ...],
                 mode: str = HALF_SPACE, lambda_max: Fraction = Fraction(1),
                 core_margin: int | None = None):
        # a/b <= c/d as a d <= c b (denominators are positive), and a
        # non-decreasing grid is non-negative when its first scale is
        nums = [s.numerator for s in grid]
        dens = [s.denominator for s in grid]
        if nums and nums[0] < 0 or any(
                a * d > c * b for a, b, c, d in zip(nums, dens, nums[1:], dens[1:])):
            raise ProbeConfigError("grid scales must be non-negative and non-decreasing")
        if mode not in (HALF_SPACE, TRUNCATED_CONE):
            raise ProbeConfigError("unknown mode %r" % mode)
        if lambda_max < 0:
            raise ProbeConfigError("the retreat budget must be non-negative")
        self._set(radius, direction, grid, mode, lambda_max, core_margin)

    @property
    def core_radius(self) -> int:
        if self.core_margin is not None:
            return self.radius - self.core_margin
        return self.radius // 2 + 1


def _fraction(s) -> Fraction:
    """``s`` as a Fraction; one that is a Fraction already is kept, not copied."""
    return s if isinstance(s, Fraction) else Fraction(s)


# the retreat of every row whose core joins at its own level
_NO_RETREAT = Fraction(0)


def check_probe(atom: ex.GroupAtom, gamma: Direction, radius: int, grid, mode: str = HALF_SPACE,
                lambda_max=Fraction(1)) -> None:
    """What ``connectivity_probe`` checks, checked before the ball of an atom
    that ``check_ball`` accepted is built: the configuration, then the
    direction's length against the atom's height dimension (k for ``Z^k``,
    n for ``F(n)``, 1 for ``BS(1,n)`` and Klein)."""
    ProbeConfig(radius=radius, direction=gamma, grid=tuple(map(_fraction, grid)), mode=mode,
                lambda_max=_fraction(lambda_max))
    _check_direction(gamma, atom.params[0] if atom.kind in (ex.FREE_ABELIAN, ex.FREE) else 1)


def default_grid(radius: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(j) for j in range(radius // 2 + 1))


# Fraction's forms with an exponent; compiled by the first `_rational` call
_EXPONENT_FORM = (r"\s*[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?"
                  r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _rational(text: str) -> Fraction:
    """An exact rational, refused when a part has more digits than Python prints; with d
    mantissa digits and |exponent| > limit + d a part always has, and 10^e is not built."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    too_long = "scale %r has a numerator or denominator of more than %d digits" % (text, limit)
    match = limit and re.match(_EXPONENT_FORM, text)
    if match:
        exponent, digits = int(match[3]), (match[1] + (match[2] or "")).replace("_", "")
        if not digits.strip("0"):
            return Fraction(0)
        if abs(exponent) > limit + len(digits):
            raise ValueError(too_long)
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None
    big = max(abs(value.numerator), value.denominator)
    if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:  # 2^(3L) < 10^L
        raise ValueError(too_long)
    return value


class ProbeRow(_Value):
    __slots__ = ("s", "vertices", "core_vertices", "components", "retreat", "shell_touched",
                 "note")

    def __init__(self, s: Fraction, vertices: int, core_vertices: int, components: int,
                 retreat: Fraction | None, shell_touched: bool, note: str = ""):
        self._set(s, vertices, core_vertices, components, retreat, shell_touched, note)

    def to_json_dict(self) -> dict:
        return {"s": str(self.s), "vertices": self.vertices,
                "core_vertices": self.core_vertices, "components": self.components,
                "lambda": None if self.retreat is None else str(self.retreat),
                "shell_touched": self.shell_touched, "note": self.note}


class ProbeReport(_Value):
    __slots__ = ("atom", "config", "rows", "evidence")

    def __init__(self, atom: ex.GroupAtom, config: ProbeConfig, rows: tuple[ProbeRow, ...],
                 evidence: str):
        self._set(atom, config, rows, evidence)

    def to_json_dict(self) -> dict:
        return {
            "atom": self.atom.label(),
            "direction": list(self.config.direction.coords),
            "mode": self.config.mode,
            "radius": self.config.radius,
            "lambda_max": str(self.config.lambda_max),
            "core_radius": self.config.core_radius,
            "rows": [r.to_json_dict() for r in self.rows],
            "evidence": self.evidence,
        }

    def to_csv(self) -> str:
        lines = ["s,vertices,core_vertices,components,lambda,shell_touched,note"]
        for r in self.rows:
            lines.append("%s,%d,%d,%d,%s,%d,%s"
                         % (r.s, r.vertices, r.core_vertices, r.components,
                            "" if r.retreat is None else r.retreat,
                            int(r.shell_touched), r.note))
        return "\n".join(lines)


# a flat probe row at indent=2, depth 2: json's C encoder (which runs only without
# ``indent``) writes it with the line breaks and indents in the item separator
_ROW_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))


def _emit_probe(document: dict) -> None:
    """``cli._emit`` for a probe report, byte for byte, with each row rendered by
    one call of the C encoder: the pure-Python encoder that ``indent`` runs
    spent most of a large probe's time on the rows.  No encoded string holds
    a raw line break, so the one in front of ``"rows": []`` in the indented
    template belongs to the template."""
    text = json.dumps({"version": __version__, **document, "rows": []}, indent=2)
    rows = ",\n".join("    {\n      %s\n    }" % _ROW_ENCODER.encode(row)[1:-1]
                      for row in document["rows"])
    if rows:
        text = text.replace('\n  "rows": []', '\n  "rows": [\n%s\n  ]' % rows, 1)
    print(text)


def _least_holding(sp: int, sq: int, norm_sq: int) -> int:
    """The least integer a with a >= s * sqrt(norm_sq), exactly: for
    s = sp/sq with sq > 0 and X = sp^2 norm_sq, a sq >= sqrt(X) when sp > 0,
    and a sq >= -sqrt(X) otherwise; isqrt(X) decides both, with a strict
    bound when X is not a square."""
    root = isqrt(sp * sp * norm_sq)
    if sp <= 0:
        return -(root // sq)
    if root * root != sp * sp * norm_sq:
        root += 1
    return -(-root // sq)


def _merge_levels(grid: Sequence[Fraction], lambda_max: Fraction, clamp: bool):
    """The levels of a probe: the distinct grid scales and retreat floors
    s - lambda_max (at least 0 when ``clamp``), in increasing order, as one
    list of numerators and one of positive denominators (a floor's pair is
    not reduced), with each scale's and each floor's index among them.  Both
    lists are non-decreasing, so one merge finds them, comparing a/b with
    c/d as a d with c b; a floor equal to a scale shares its level, and no
    Fraction is built, hashed or subtracted."""
    nums = [s.numerator for s in grid]
    dens = [s.denominator for s in grid]
    lp, lq = lambda_max.numerator, lambda_max.denominator
    level_nums: list[int] = []
    level_dens: list[int] = []
    scale_at: list[int] = []
    floor_at: list[int] = []
    top_num = top_den = 0  # the highest level so far, once there is one
    a, n = 0, len(grid)
    for sn, sd in zip(nums, dens):
        fn, fd = sn * lq - lp * sd, sd * lq
        if clamp and fn < 0:
            fn, fd = 0, 1
        # the scales at or below this floor come first
        while a < n and nums[a] * fd <= fn * dens[a]:
            if not level_nums or nums[a] * top_den != top_num * dens[a]:
                top_num, top_den = nums[a], dens[a]
                level_nums.append(top_num)
                level_dens.append(top_den)
            scale_at.append(len(level_nums) - 1)
            a += 1
        if not level_nums or fn * top_den != top_num * fd:
            top_num, top_den = fn, fd
            level_nums.append(fn)
            level_dens.append(fd)
        floor_at.append(len(level_nums) - 1)
    for sn, sd in zip(nums[a:], dens[a:]):
        if sn * top_den != top_num * sd:
            top_num, top_den = sn, sd
            level_nums.append(sn)
            level_dens.append(sd)
        scale_at.append(len(level_nums) - 1)
    return level_nums, level_dens, scale_at, floor_at


def _entry_levels(ball: BallGraph, gamma: Direction, nums: Sequence[int],
                  dens: Sequence[int], mode: str) -> list[int]:
    """For each vertex, the index of the highest level whose sublevel set
    holds it, or -1.  Membership only shrinks as the level grows.  The tests
    read only a = <h, gamma>, and |h|^2 in cone mode, and a is an integer, so
    the half-space test at level t is a >= the least integer that holds at t,
    and one bisection over those integers finds the highest half-space level.
    In cone mode a binary search below it applies the angle bound, which
    shrinks with t too, and its answers are memoized by (a, |h|^2).  In front
    of that, answers are memoized by the height itself, which is cheaper to
    look up than the scalars are to compute.  The levels are given as
    numerators ``nums`` over positive denominators ``dens``."""
    coords = gamma.coords
    norm_g = gamma.norm_sq()
    least = [_least_holding(sp, sq, norm_g) for sp, sq in zip(nums, dens)]
    cone = mode == TRUNCATED_CONE

    def highest_cone(a, norm_h):
        # the highest level with the angle bound t^2 (|h|^2 |gamma|^2 - a^2) <= a^2,
        # at or below the highest half-space level; cone levels are >= 0
        spread = norm_h * norm_g - a * a
        lo, hi = 0, bisect_right(least, a)
        while lo < hi:
            mid = (lo + hi) // 2
            sp, left = nums[mid], a * dens[mid]
            if sp * sp * spread <= left * left:
                lo = mid + 1
            else:
                hi = mid
        return lo - 1

    by_height: dict[tuple[int, ...], int] = {}
    by_scalars: dict[tuple[int, int], int] = {}
    entry = []
    for h in ball.heights:
        k = by_height.get(h)
        if k is None:
            a = sum(map(mul, h, coords))
            if cone:
                key = (a, sum(map(mul, h, h)))
                k = by_scalars.get(key)
                if k is None:
                    k = by_scalars[key] = highest_cone(*key)
            else:
                k = bisect_right(least, a) - 1
            by_height[h] = k
        entry.append(k)
    return entry


def connectivity_probe(ball: BallGraph, gamma: Direction, grid, mode: str = HALF_SPACE,
                       lambda_max=Fraction(1), core_margin: int | None = None) -> ProbeReport:
    """For each scale s, find the least grid retreat that reconnects the core
    of the sublevel set; classify the direction from the row pattern.

    The levels are the grid scales and the retreat floors.  One union-find
    pass adds the vertices and edges of each level from the highest down, so
    after level t it holds the components of the sublevel set at t; each
    level's edges go to ``UnionFind.union_pairs`` in one call.  The pass
    records ``joined_at[n]``, the highest level at which the first n core
    vertices lie in one component, and the component count of each core
    still split at its floor, down to the lowest level a row reads.  A scale
    whose core has n vertices then retreats to the highest grid level at or
    below both its own level and ``joined_at[n]``, or to its floor when no
    grid level lies between."""
    config = ProbeConfig(radius=ball.radius, direction=gamma, grid=tuple(map(_fraction, grid)),
                         mode=mode, lambda_max=_fraction(lambda_max), core_margin=core_margin)
    _check_direction(gamma, ball.height_dim)
    grid = config.grid
    level_nums, level_dens, scale_at, floor_at = _merge_levels(grid, config.lambda_max,
                                                               mode == TRUNCATED_CONE)
    entry = _entry_levels(ball, gamma, level_nums, level_dens, mode)

    # vertices, core vertices and edges bucketed by the level they enter at
    top = len(level_nums)
    core_radius = config.core_radius
    radius = ball.radius
    entering = [0] * top
    core_entering: list[list[int]] = [[] for _ in range(top)]
    shell_top = -1
    for v, (k, d) in enumerate(zip(entry, ball.wordlen)):
        if k < 0:
            continue
        entering[k] += 1
        if d <= core_radius:
            core_entering[k].append(v)
        if d == radius and k > shell_top:
            shell_top = k
    edges_at: list[list[int]] = [[] for _ in range(top)]
    flat = iter(ball.triples)
    for i, j, _ in zip(flat, flat, flat):
        ki, kj = entry[i], entry[j]
        k = ki if ki < kj else kj
        if k >= 0:
            bucket = edges_at[k]
            bucket.append(i)
            bucket.append(j)
    # sub_at[k] and core_at[k] count the sublevel set at level k and its core;
    # that core is the first core_at[k] entries of core_order
    sub_at = [0] * (top + 1)
    core_at = [0] * (top + 1)
    core_order: list[int] = []
    for k in range(top - 1, -1, -1):
        sub_at[k] = sub_at[k + 1] + entering[k]
        core_at[k] = core_at[k + 1] + len(core_entering[k])
        core_order += core_entering[k]

    # joined_at[n] is the highest level at which core_order[:n] lies in one
    # component; core_order[:gap] shares core_order[0]'s component, and unions
    # only merge, so gap only grows and each entry is written once.  The sweep
    # stops at the lowest level a row reads.
    lowest = scale_at[0] if grid else top
    need = core_at[lowest]  # the largest core a row reads
    bottom = floor_at[0] if need else lowest
    joined_at = [-1] * (need + 1)
    split: dict[int, int] = {}  # scale index -> core components at its floor
    components_at = [0] * top
    uf = UnionFind(ball.order)
    find = uf.find
    merged = gap = 0
    q = len(grid) - 1  # floors are non-decreasing, so they are met from the last
    for k in range(top - 1, bottom - 1, -1):
        merged += uf.union_pairs(edges_at[k])
        components_at[k] = sub_at[k] - merged
        if gap < need:
            root = find(core_order[0])
            while gap < need and find(core_order[gap]) == root:
                gap += 1
                joined_at[gap] = k
        while q >= 0 and floor_at[q] == k:
            n = core_at[scale_at[q]]
            if gap < n:
                split[q] = len({find(v) for v in core_order[:n]})
            q -= 1

    grid_levels = sorted(set(scale_at))
    rows: list[ProbeRow] = []
    split_seen = False
    descents: list[int] = []  # the level s - retreat, by index
    for q, (s, sk, fk) in enumerate(zip(grid, scale_at, floor_at)):
        shell_touched = shell_top >= sk
        n = core_at[sk]
        if not n:
            rows.append(ProbeRow(s, sub_at[sk], 0, components_at[sk], None, shell_touched,
                                 note="no core vertices at this scale"))
        elif q in split:
            split_seen = True
            rows.append(ProbeRow(s, sub_at[sk], n, split[q], None, shell_touched,
                                 note="core components never merge within the budget"))
        else:
            g = bisect_right(grid_levels, min(joined_at[n], sk)) - 1
            joined = max(fk, grid_levels[g]) if g >= 0 else fk
            descents.append(joined)
            if joined == sk:
                retreat = _NO_RETREAT
            else:  # s - level, the level's pair as _merge_levels left it
                sn, sd = s.numerator, s.denominator
                ln, ld = level_nums[joined], level_dens[joined]
                retreat = Fraction(sn * ld - ln * sd, sd * ld)
            rows.append(ProbeRow(s, sub_at[sk], n, 1, retreat, shell_touched))
    if split_seen:
        evidence = SUPPORTS_NON_MEMBERSHIP
    elif len(descents) >= 2:
        increasing = all(b > a for a, b in zip(descents, descents[1:]))
        evidence = SUPPORTS_MEMBERSHIP if increasing else INCONCLUSIVE
    else:
        evidence = INCONCLUSIVE
    return ProbeReport(atom=ball.atom, config=config, rows=tuple(rows), evidence=evidence)
