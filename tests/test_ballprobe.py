"""Cayley-ball enumeration and the connectivity probe: exact geometry tests,
structural invariants over whole balls, the order cap, catalog agreement, and
the filtration sweep against a brute-force rescanning reference."""

from __future__ import annotations

import functools
import random
import time
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupinv import ballprobe as bp
from groupinv import expressions as ex
from groupinv.ballprobe import (
    HALF_SPACE,
    INCONCLUSIVE,
    MAX_BALL_ORDER,
    MAX_BALL_WORK,
    SUPPORTS_MEMBERSHIP,
    SUPPORTS_NON_MEMBERSHIP,
    TRUNCATED_CONE,
    ProbeConfig,
    ProbeConfigError,
    ProbeRow,
    UnsupportedAtom,
    cone_subgraph,
    cone_test,
    connectivity_probe,
    default_grid,
    enumerate_ball,
    halfspace_subgraph,
)
from groupinv.selfcheck import probe_direction_scan
from groupinv.spheres import Direction
from groupinv.unionfind import UnionFind


# ---------------------------------------------------------------------------
# enumeration


def test_ball_counts_z2():
    for r in (2, 3, 4):
        ball = enumerate_ball(ex.free_abelian(2), r)
        assert ball.order == 2 * r * r + 2 * r + 1  # L1 diamond


def test_ball_counts_free2():
    ball = enumerate_ball(ex.free_group(2), 2)
    assert ball.order == 1 + 4 + 12
    ball3 = enumerate_ball(ex.free_group(2), 3)
    assert ball3.order == 17 + 36


def test_ball_count_bs_regression():
    # frozen output of the breadth-first enumerator
    assert enumerate_ball(ex.baumslag_solitar(1, 2), 6).order == 375
    assert enumerate_ball(ex.baumslag_solitar(1, 2), 8).order == 1317


def test_ball_klein_quadratic():
    ball = enumerate_ball(ex.klein_bottle(), 6)
    assert ball.order == 85  # same diamond count as Z^2: bijective normal form a^p b^q


def test_ball_order_cap_checked_before_enumeration():
    # F(3) at radius 12 would have 1 + 6 (5^12 - 1) / 4 vertices: refused at once
    start = time.perf_counter()
    with pytest.raises(ProbeConfigError, match="more than %d vertices" % MAX_BALL_ORDER):
        enumerate_ball(ex.free_group(3), 12)
    with pytest.raises(ProbeConfigError):
        enumerate_ball(ex.free_abelian(100000), 10 ** 18)
    # these fit the order cap, but each vertex carries a k-tuple key and up to k edges
    for k, r in ((300, 2), (700, 2), (60, 3)):
        order = bp._predicted_order(ex.free_abelian(k), r, MAX_BALL_ORDER)
        assert order <= MAX_BALL_ORDER
        with pytest.raises(ProbeConfigError, match="%d vertices times %d generators, more than %d"
                                                   % (order, k, MAX_BALL_WORK)):
            enumerate_ball(ex.free_abelian(k), r)
    assert time.perf_counter() - start < 0.5
    # F(2) at radius 12 (1,062,881 vertices, 2 generators) and the BS(1,n) bound at it pass
    assert bp._predicted_order(ex.free_group(2), 12, MAX_BALL_ORDER) == 1062881 <= MAX_BALL_ORDER
    assert 2 * 1062881 <= MAX_BALL_WORK
    assert bp._predicted_order(ex.baumslag_solitar(1, 2), 12, MAX_BALL_ORDER) == 1062881


def test_predicted_order_matches_enumeration():
    for atom, radii in ((ex.free_abelian(1), (2, 5)), (ex.free_abelian(2), (2, 4, 7)),
                        (ex.free_abelian(3), (2, 3, 5)), (ex.klein_bottle(), (3, 6)),
                        (ex.free_group(2), (2, 5)), (ex.free_group(3), (2, 4))):
        for r in radii:
            assert bp._predicted_order(atom, r, MAX_BALL_ORDER) == enumerate_ball(atom, r).order
    for n, r in ((2, 8), (3, 7)):  # the F(2) count bounds BS(1,n)
        atom = ex.baumslag_solitar(1, n)
        assert enumerate_ball(atom, r).order <= bp._predicted_order(atom, r, MAX_BALL_ORDER)


def test_unsupported_atoms_rejected():
    with pytest.raises(UnsupportedAtom):
        enumerate_ball(ex.generalized_thompson(3), 4)
    with pytest.raises(UnsupportedAtom):
        enumerate_ball(ex.lamplighter(2), 4)
    with pytest.raises(ProbeConfigError):
        enumerate_ball(ex.free_abelian(2), 1)
    with pytest.raises(ProbeConfigError):
        enumerate_ball(ex.free_abelian(2), 10 ** 4)  # 200,020,001 vertices


def test_height_additive_on_every_edge():
    for atom in (ex.free_abelian(2), ex.free_group(2),
                 ex.baumslag_solitar(1, 2), ex.klein_bottle()):
        ball = enumerate_ball(atom, 5)
        assert ball.heights[0] == tuple([0] * ball.height_dim)
        for i, j, name in ball.edges:
            delta = ball.gen_heights[name]
            assert tuple(b - a for a, b in zip(ball.heights[i], ball.heights[j])) == delta


def _assert_bs_normal(key, n):
    p, q, s = key
    assert p >= 0 and s >= 0
    if q == 0:
        assert p == 0 or s == 0
    if p > 0 and s > 0:
        assert q % n != 0


# ---------------------------------------------------------------------------
# normal forms decoded from the key column


def free_word(ball, i):
    """The reduced word of vertex i of an ``F(n)`` ball, decoded from the
    last-letter column: the parent of vertex i >= 2 is (i - 2) // (2n - 1),
    and the same formula takes the root's children 1, ..., 2n to 0 or -1,
    where the word begins."""
    last, branch = ball.key_column, 2 * ball.atom.params[0] - 1
    word = []
    while i > 0:
        word.append(last[i])
        i = (i - 2) // branch
    return tuple(reversed(word))


def bs_normal_form(ball, i):
    """The normal form (p, q, s) of vertex i of a ``BS(1,n)`` ball, decoded
    from its code X (2r + 3) + (k + r + 1): x = X / n^r and k come back by
    one division, and the form t^-p a^q t^s with q / n^p = x and s - p = k
    that is normal has p = max(v, -k), v being the least exponent with
    x n^v an integer; then q = x n^p and s = k + p."""
    n, r = ball.atom.params[0], ball.radius
    scaled, c = divmod(ball.key_column[i], 2 * r + 3)
    k = c - r - 1
    # x n^v is an integer exactly when n^(r - v) divides X, and x = 0 has v = 0
    e = 0
    while scaled and e < r and not scaled % n ** (e + 1):
        e += 1
    p = max(r - e if scaled else 0, -k)
    return p, scaled // n ** (r - p), k + p


def ball_keys(ball):
    """Every vertex's normal form: reduced words for ``F(n)``, (p, q, s) for
    ``BS(1,n)``, vectors for ``Z^k`` and (p, q) for Klein."""
    if ball.atom.kind == ex.FREE:
        return tuple(free_word(ball, i) for i in range(ball.order))
    if ball.atom.kind == ex.BAUMSLAG_SOLITAR:
        return tuple(bs_normal_form(ball, i) for i in range(ball.order))
    return ball.key_column


def test_bs_normal_forms_are_canonical():
    for n in (2, 3):
        ball = enumerate_ball(ex.baumslag_solitar(1, n), 7)
        keys = ball_keys(ball)
        for key in keys:
            _assert_bs_normal(key, n)
        assert len(set(keys)) == ball.order
        # height is the negated stable-letter exponent
        idx = {k: i for i, k in enumerate(keys)}
        assert ball.heights[idx[(0, 0, 3)]] == (-3,)
        assert ball.heights[idx[(2, 1, 0)]] == (2,)
        assert ball.heights[idx[(1, n + 1, 2)]] == (-1,)


# ---------------------------------------------------------------------------
# the one-pass builders against the two-pass enumeration they replaced


def _reference_machine(atom):
    """Identity key, generators, step and height of the old enumerator: the
    step closures rewrite normal forms, the height walks the whole key."""
    if atom.kind == ex.FREE_ABELIAN:
        def step(key, gen, sign):
            vec = list(key)
            vec[gen] += sign
            return tuple(vec)

        k = atom.params[0]
        return tuple([0] * k), [("e%d" % (i + 1), i) for i in range(k)], step, lambda key: key
    if atom.kind == ex.FREE:
        n = atom.params[0]

        def step(key, gen, sign):
            letter = sign * (gen + 1)
            if key and key[-1] == -letter:
                return key[:-1]
            return key + (letter,)

        def height(key):
            h = [0] * n
            for letter in key:
                h[abs(letter) - 1] += 1 if letter > 0 else -1
            return tuple(h)

        return (), [("x%d" % (i + 1), i) for i in range(n)], step, height
    if atom.kind == ex.BAUMSLAG_SOLITAR:
        n = atom.params[0]

        def normalize(p, q, s):
            if q == 0:
                k = s - p
                return (-k, 0, 0) if k < 0 else (0, 0, k)
            while p > 0 and s > 0 and q % n == 0:
                p, q, s = p - 1, q // n, s - 1
            return (p, q, s)

        def step(key, gen, sign):
            p, q, s = key
            if gen == 0:  # a
                if s == 0:
                    return normalize(p, q + sign, 0)
                return normalize(p, q + sign * n ** s, s)
            if sign > 0:  # t
                return normalize(p, q, s + 1)
            if s > 0:
                return normalize(p, q, s - 1)
            return normalize(p + 1, q * n, 0)

        return (0, 0, 0), [("a", 0), ("t", 1)], step, lambda key: (key[0] - key[2],)
    assert atom.kind == ex.KLEIN_BOTTLE

    def step(key, gen, sign):
        p, q = key
        if gen == 0:
            return (p + sign * (-1) ** (q % 2), q)
        return (p, q + sign)

    return (0, 0), [("a", 0), ("b", 1)], step, lambda key: (key[1],)


def _reference_ball(atom, radius):
    """Two passes: a breadth-first search over a dict of keys, then a second
    sweep that steps every vertex along every generator to find its edges."""
    identity, gens, step, height = _reference_machine(atom)
    dist = {identity: 0}
    order = [identity]
    queue = deque([identity])
    while queue:
        key = queue.popleft()
        d = dist[key]
        if d == radius:
            continue
        for _, gen in gens:
            for sign in (1, -1):
                nxt = step(key, gen, sign)
                if nxt not in dist:
                    dist[nxt] = d + 1
                    order.append(nxt)
                    queue.append(nxt)
    index = {key: i for i, key in enumerate(order)}
    edges = []
    for i, key in enumerate(order):
        for name, gen in gens:
            j = index.get(step(key, gen, 1))
            if j is not None and j != i:
                edges.append((i, j, name))
    base = height(identity)
    gen_heights = {name: tuple(b - a for a, b in zip(base, height(step(identity, gen, 1))))
                   for name, gen in gens}
    return dict(atom=atom, radius=radius, order=len(order), keys=tuple(order),
                heights=tuple(height(key) for key in order),
                wordlen=tuple(dist[key] for key in order), edge_count=len(edges),
                edges=tuple(edges), height_dim=len(base), gen_heights=gen_heights)


def _materialized(ball):
    """Every field of a ball, its decoded keys and its edge view as plain
    tuples, in the layout of ``_reference_ball``."""
    return dict(atom=ball.atom, radius=ball.radius, order=ball.order, keys=ball_keys(ball),
                heights=tuple(ball.heights), wordlen=tuple(ball.wordlen),
                edge_count=len(ball.edges), edges=tuple(ball.edges),
                height_dim=ball.height_dim, gen_heights=ball.gen_heights)


# Z^k, Klein and BS(1,n) at every radius from 2 to 12, so that a collision of
# the integer codes at any radius shows; F(n) up to the largest radius the
# probe benchmark uses; F(1) is built directly, since free_group(1) is Z
BUILDER_CASES = (
    [(ex.free_abelian(k), r) for k in (1, 2, 3, 4) for r in range(2, 13)]
    + [(ex.klein_bottle(), r) for r in range(2, 13)]
    + [(ex.GroupAtom(ex.FREE, (1,)), r) for r in range(2, 13)]
    + [(ex.free_group(n), r) for n, top in ((2, 8), (3, 6)) for r in range(2, top + 1)]
    + [(ex.baumslag_solitar(1, n), r) for n in (2, 3, 5, 7) for r in range(2, 13)]
    + [(ex.baumslag_solitar(1, n), r) for n in (4, 6) for r in range(2, 10)]
)


@pytest.mark.parametrize("atom,radius", BUILDER_CASES,
                         ids=["%s-r%d" % (a.label(), r) for a, r in BUILDER_CASES])
def test_one_pass_ball_equals_two_pass_reference(atom, radius):
    # every key, height, word length and edge, in order, and the counts
    assert _materialized(enumerate_ball(atom, radius)) == _reference_ball(atom, radius)


def test_views_index_like_tuples():
    for atom in (ex.free_group(2), ex.free_group(3), ex.baumslag_solitar(1, 2), ex.klein_bottle()):
        ball = enumerate_ball(atom, 4)
        view = ball.edges
        whole = tuple(view)
        assert len(view) == len(whole) == len(ball.triples) // 3
        assert view[-1] == whole[-1] and view[3:9] == whole[3:9] and view[::-5] == whole[::-5]
        with pytest.raises(IndexError):
            view[len(whole)]
    # an F(n) ball stores each word's last letter, 0 for the empty word
    words = _reference_ball(ex.free_group(2), 4)["keys"]
    ball = enumerate_ball(ex.free_group(2), 4)
    assert list(ball.key_column) == [word[-1] if word else 0 for word in words]


# the largest radius for each rank whose F(n) ball is no larger than F(2) at r = 10
FREE_RADII = {1: 12, 2: 10, 3: 7, 4: 5}


@functools.lru_cache(maxsize=4)
def _free_ball(n, radius):
    return enumerate_ball(ex.GroupAtom(ex.FREE, (n,)), radius)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_decoded_free_words_are_normal_forms(data):
    n = data.draw(st.sampled_from(sorted(FREE_RADII)), label="rank")
    ball = _free_ball(n, data.draw(st.integers(2, FREE_RADII[n]), label="radius"))
    for i in data.draw(st.lists(st.integers(0, ball.order - 1), min_size=1, max_size=20),
                       label="vertices"):
        word = free_word(ball, i)
        assert all(x != 0 and abs(x) <= n for x in word)
        assert all(a != -b for a, b in zip(word, word[1:]))  # reduced
        assert len(word) == ball.wordlen[i]
        height = [0] * n
        for x in word:
            height[abs(x) - 1] += 1 if x > 0 else -1
        assert tuple(height) == ball.heights[i]


@functools.lru_cache(maxsize=4)
def _bs_ball(n, radius):
    return enumerate_ball(ex.baumslag_solitar(1, n), radius)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_decoded_bs_keys_are_normal_forms(data):
    # every radius the order cap admits; the stored code is X (2r + 3) + (k + r + 1)
    # for x = q / n^p = X / n^r and k = s - p
    n = data.draw(st.integers(2, 7), label="n")
    radius = data.draw(st.integers(2, 12), label="radius")
    ball = _bs_ball(n, radius)
    for i in data.draw(st.lists(st.integers(0, ball.order - 1), min_size=1, max_size=20),
                       label="vertices"):
        p, q, s = key = bs_normal_form(ball, i)
        _assert_bs_normal(key, n)
        assert ball.heights[i] == (p - s,)
        scaled = Fraction(q, n ** p) * n ** radius
        assert scaled.denominator == 1
        assert ball.key_column[i] == scaled.numerator * (2 * radius + 3) + s - p + radius + 1


# ---------------------------------------------------------------------------
# exact sublevel geometry


def test_halfspace_examples():
    ball = enumerate_ball(ex.free_abelian(2), 4)
    gamma = Direction((1, 0))
    sub = halfspace_subgraph(ball, gamma, 0)
    assert all(ball.heights[i][0] >= 0 for i in sub)
    assert len(sub) == sum(1 for h in ball.heights if h[0] >= 0)
    # beyond the height bound the sublevel is empty
    assert halfspace_subgraph(ball, gamma, 5) == []


def test_halfspace_scaled_norm_exactness():
    # gamma = (1,1): the boundary <h, gamma> = s*sqrt(2) never hits lattice
    # points for integer s > 0, and the comparison must still be exact
    ball = enumerate_ball(ex.free_abelian(2), 5)
    gamma = Direction((1, 1))
    sub = set(halfspace_subgraph(ball, gamma, 2))
    for i in range(ball.order):
        x, y = ball.heights[i]
        assert (i in sub) == ((x + y) ** 2 >= 8 and x + y > 0)


def test_cone_rational_angle_example():
    # direction (0,1), s = 2: tan(angle) <= 1/2
    assert cone_test((1, 3), Direction((0, 1)), Fraction(2))
    assert not cone_test((2, 3), Direction((0, 1)), Fraction(2))


def test_cone_non_unit_direction():
    # gamma = (1,1): (6,-1) has tan^2 = 49/25 > 1 and must fail at s = 1
    gamma = Direction((1, 1))
    assert not cone_test((6, -1), gamma, Fraction(1))
    assert cone_test((5, 3), gamma, Fraction(1))  # tan^2 = (34*2-64)/64 < 1
    assert cone_test((5, 5), gamma, Fraction(3))  # on-axis, beyond the truncation plane
    assert not cone_test((1, 1), gamma, Fraction(3))  # on-axis but below the plane


def test_cone_equals_halfspace_at_zero_and_in_rank_one():
    ball2 = enumerate_ball(ex.free_abelian(2), 5)
    gamma = Direction((1, 2))
    assert cone_subgraph(ball2, gamma, 0) == halfspace_subgraph(ball2, gamma, 0)
    ball1 = enumerate_ball(ex.baumslag_solitar(1, 2), 6)
    one = Direction((1,))
    for s in (0, 1, 2, Fraction(3, 2)):
        assert cone_subgraph(ball1, one, s) == halfspace_subgraph(ball1, one, s)


def test_sublevel_nesting_and_mode_inclusion():
    for atom in (ex.free_abelian(2), ex.free_group(2)):
        ball = enumerate_ball(atom, 5)
        for gamma in (Direction((1, 0)), Direction((1, 1))):
            prev_half = None
            prev_cone = None
            for s in (0, 1, 2, 3):
                half = set(halfspace_subgraph(ball, gamma, s))
                cone = set(cone_subgraph(ball, gamma, s))
                assert cone <= half  # truncated cone sits inside the half-space
                if prev_half is not None:
                    assert half <= prev_half
                    assert cone <= prev_cone
                prev_half, prev_cone = half, cone


# ---------------------------------------------------------------------------
# the probe itself


def test_probe_bs_matches_catalog_both_signs():
    ball = enumerate_ball(ex.baumslag_solitar(1, 2), 8)
    up = connectivity_probe(ball, Direction((1,)), default_grid(8))
    down = connectivity_probe(ball, Direction((-1,)), default_grid(8))
    assert up.evidence == SUPPORTS_MEMBERSHIP
    assert down.evidence == SUPPORTS_NON_MEMBERSHIP
    assert all(r.retreat is not None for r in up.rows if r.core_vertices)
    assert any(r.retreat is None and r.core_vertices for r in down.rows)


def test_probe_free_group_never_connects():
    ball = enumerate_ball(ex.free_group(2), 6)
    report = connectivity_probe(ball, Direction((1, 0)), default_grid(6))
    assert report.evidence == SUPPORTS_NON_MEMBERSHIP


def test_probe_determinism():
    ball = enumerate_ball(ex.klein_bottle(), 6)
    r1 = connectivity_probe(ball, Direction((1,)), default_grid(6))
    r2 = connectivity_probe(ball, Direction((1,)), default_grid(6))
    assert r1 == r2


def test_probe_empty_scales_noted():
    ball = enumerate_ball(ex.free_abelian(2), 4)
    report = connectivity_probe(ball, Direction((1, 1)), [0, 1, 2, 10])
    last = report.rows[-1]
    assert last.core_vertices == 0 and "no core vertices" in last.note


def test_probe_report_serialization():
    ball = enumerate_ball(ex.free_abelian(2), 4)
    report = connectivity_probe(ball, Direction((1, 0)), default_grid(4), TRUNCATED_CONE)
    data = report.to_json_dict()
    assert data["evidence"] == report.evidence
    assert all({"s", "vertices", "components", "lambda", "shell_touched"} <= set(r)
               for r in data["rows"])
    csv = report.to_csv()
    assert csv.splitlines()[0].startswith("s,vertices")
    assert len(csv.splitlines()) == len(report.rows) + 1


COMPASS = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]


def test_direction_scan_agreement_radius6():
    """Catalog agreement at radius 6 in both modes for all four probe atoms
    (the radius-8 sweep runs in the acceptance suite).  The members are
    written out, the same in both modes: every direction of Z^2 and of the
    Klein bottle group, none of F(2), and only (1,) of BS(1,2)."""
    free_dirs = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    cases = [
        (ex.free_abelian(2), COMPASS, set(COMPASS)),
        (ex.free_group(2), free_dirs, set()),
        (ex.baumslag_solitar(1, 2), [(1,), (-1,)], {(1,)}),
        (ex.klein_bottle(), [(1,), (-1,)], {(1,), (-1,)}),
    ]
    for atom, dirs, members in cases:
        ball = enumerate_ball(atom, 6)
        for mode in (HALF_SPACE, TRUNCATED_CONE):
            rows, _ = probe_direction_scan(atom, [Direction(d) for d in dirs], 6,
                                           mode, ball=ball)
            for d, row in zip(dirs, rows, strict=True):
                member = d in members
                assert not row.warn, (atom.label(), mode, row)
                assert row.catalog_member == member, (atom.label(), mode, row)
                expected = SUPPORTS_MEMBERSHIP if member else SUPPORTS_NON_MEMBERSHIP
                assert row.evidence == expected, (atom.label(), mode, row)


def test_probe_config_rejects_negative_budget():
    with pytest.raises(ProbeConfigError):
        ProbeConfig(radius=4, direction=Direction((1, 0)), grid=(Fraction(0),),
                    lambda_max=Fraction(-1))
    ball = enumerate_ball(ex.free_abelian(2), 4)
    with pytest.raises(ProbeConfigError):
        connectivity_probe(ball, Direction((1, 0)), default_grid(4), lambda_max=Fraction(-1, 2))


def test_union_pairs_matches_pairwise_unions():
    rng = random.Random(7)
    for n in (1, 2, 10, 60):
        for _ in range(20):
            flat = [rng.randrange(n) for _ in range(2 * rng.randrange(2 * n))]
            bulk, single = UnionFind(n), UnionFind(n)
            assert bulk.union_pairs(flat) == n - bulk.components
            for x in range(0, len(flat), 2):
                single.union(flat[x], flat[x + 1])
            assert bulk.components == single.components
            assert {frozenset(v for v in range(n) if bulk.find(v) == bulk.find(u))
                    for u in range(n)} == \
                {frozenset(v for v in range(n) if single.find(v) == single.find(u))
                 for u in range(n)}
    assert UnionFind(3).union_pairs([]) == 0


# ---------------------------------------------------------------------------
# the sweep against the rescanning probe it replaced


class _Rescan:
    """Sublevel sets of one ball and direction, each found by testing every
    vertex and split into components by a fresh union-find over every edge.
    A sublevel set depends only on the mode and the scale, so each is scanned
    once, however many scales, retreats, budgets and margins ask for it."""

    def __init__(self, ball, gamma):
        self.ball, self.gamma = ball, gamma
        self.known = {}

    def __call__(self, mode, s):
        """The sublevel set at s and every vertex's component root in it."""
        if (mode, s) not in self.known:
            ball = self.ball
            if mode == HALF_SPACE:
                sub = halfspace_subgraph(ball, self.gamma, s)
            else:
                sub = cone_subgraph(ball, self.gamma, max(s, Fraction(0)))
            allowed = set(sub)
            uf = UnionFind(ball.order)
            for i, j, _ in ball.edges:
                if i in allowed and j in allowed:
                    uf.union(i, j)
            self.known[mode, s] = (sub, [uf.find(v) for v in range(ball.order)])
        return self.known[mode, s]


def _reference_probe(ball, gamma, grid, mode, lambda_max, core_margin, rescan=None):
    """The probe as a brute-force rescan: every scale and every retreat
    candidate reads the components of its own sublevel set, found afresh."""
    config = ProbeConfig(radius=ball.radius, direction=gamma,
                         grid=tuple(Fraction(s) for s in grid), mode=mode,
                         lambda_max=Fraction(lambda_max), core_margin=core_margin)
    rescan = rescan or _Rescan(ball, gamma)
    rows = []
    split_seen = False
    evaluated = []
    for s in config.grid:
        sub, roots = rescan(mode, s)
        core = [i for i in sub if ball.wordlen[i] <= config.core_radius]
        shell_touched = any(ball.wordlen[i] == ball.radius for i in sub)
        if not core:
            comps = len({roots[i] for i in sub})
            rows.append(ProbeRow(s, len(sub), 0, comps, None, shell_touched,
                                 note="no core vertices at this scale"))
            continue
        floor = s - config.lambda_max
        if mode == TRUNCATED_CONE and floor < 0:
            floor = Fraction(0)
        candidates = sorted({g for g in config.grid if floor <= g <= s} | {floor}, reverse=True)
        retreat = comps = None
        for target in candidates:
            roots = rescan(mode, target)[1]
            comps = len({roots[i] for i in core})
            if comps == 1:
                retreat = s - target
                break
        if retreat is None:
            split_seen = True
            rows.append(ProbeRow(s, len(sub), len(core), comps, None, shell_touched,
                                 note="core components never merge within the budget"))
        else:
            evaluated.append((s, retreat))
            rows.append(ProbeRow(s, len(sub), len(core), 1, retreat, shell_touched))
    if split_seen:
        evidence = SUPPORTS_NON_MEMBERSHIP
    elif len(evaluated) >= 2:
        descents = [s - lam for s, lam in evaluated]
        increasing = all(b > a for a, b in zip(descents, descents[1:]))
        evidence = SUPPORTS_MEMBERSHIP if increasing else INCONCLUSIVE
    else:
        evidence = INCONCLUSIVE
    return config, tuple(rows), evidence


def _assert_sweep_matches(ball, gamma, grid, rescan):
    """Compare the sweep with the reference in both modes, over four retreat
    budgets and three core margins (None, 0 for the whole ball, the radius for
    the identity alone); returns the reference rows."""
    seen = []
    for mode in (HALF_SPACE, TRUNCATED_CONE):
        for lam in (0, Fraction(1, 2), 1, 3):
            for margin in (None, 0, ball.radius):
                report = connectivity_probe(ball, gamma, grid, mode, lam, margin)
                config, rows, evidence = _reference_probe(ball, gamma, grid, mode, lam, margin,
                                                          rescan)
                assert (report.config, report.rows, report.evidence) == (config, rows, evidence), \
                    (ball.atom.label(), gamma, mode, grid, lam, margin)
                seen += rows
    return seen


SWEEP_CASES = [
    (ex.free_abelian(2), 5, [(1, 0), (1, 1), (2, -1), (-1, -2)]),
    (ex.free_abelian(3), 3, [(1, 0, 0), (1, -1, 1), (0, 2, -1)]),
    (ex.klein_bottle(), 5, [(1,), (-1,)]),
    (ex.baumslag_solitar(1, 2), 5, [(1,), (-1,)]),
    (ex.baumslag_solitar(1, 3), 4, [(1,), (-1,)]),
    (ex.free_group(2), 4, [(1, 0), (-1, 1)]),
]


@pytest.mark.parametrize("atom,radius,directions", SWEEP_CASES,
                         ids=[case[0].label() for case in SWEEP_CASES])
def test_sweep_equals_rescanning_reference(atom, radius, directions):
    ball = enumerate_ball(atom, radius)
    grids = (default_grid(radius),
             [Fraction(j, 2) for j in range(radius + 1)],  # half-integer steps
             [0, Fraction(1, 3), 1, 1, 2, 2])  # duplicate scales
    rows = []
    for d in directions:
        gamma = Direction(d)
        rescan = _Rescan(ball, gamma)
        for grid in grids:
            rows += _assert_sweep_matches(ball, gamma, grid, rescan)
    assert any(r.core_vertices == 0 for r in rows)


def test_sweep_on_many_scales_equals_reference():
    # the default grid has r/2 + 1 scales: every scale's core check and
    # retreat targets run against a long filtration, where a rescan per scale
    # would cost (scales) x (core vertices)
    ball = enumerate_ball(ex.free_abelian(1), 200)
    rows = _assert_sweep_matches(ball, Direction((1,)), default_grid(200),
                                 _Rescan(ball, Direction((1,))))
    assert len(rows) == 2 * 4 * 3 * 101
    ball = enumerate_ball(ex.free_abelian(2), 40)
    gamma = Direction((1, 1))
    rows = _assert_sweep_matches(ball, gamma, default_grid(40), _Rescan(ball, gamma))
    assert any(r.core_vertices == 0 for r in rows)
    # fine grids of 41 and 33 scales, where cores join only after a retreat
    # over several grid levels, or never
    rows = []
    for atom, radius, d, grid in (
            (ex.free_group(2), 4, (1, 0), [Fraction(j, 10) for j in range(41)]),
            (ex.baumslag_solitar(1, 2), 6, (1,), [Fraction(j, 8) for j in range(33)])):
        ball = enumerate_ball(atom, radius)
        rows += _assert_sweep_matches(ball, Direction(d), grid, _Rescan(ball, Direction(d)))
    assert any(r.retreat is not None and r.retreat > Fraction(1, 2) for r in rows)
    assert any(r.note.startswith("core components never merge") for r in rows)


def test_probe_time_is_linear_in_the_scales():
    # Z at radius 20,000: 40,001 vertices and 10,001 scales, one sweep
    ball = enumerate_ball(ex.free_abelian(1), 20000)
    start = time.perf_counter()
    report = connectivity_probe(ball, Direction((1,)), default_grid(20000))
    assert time.perf_counter() - start < 4.0
    assert report.evidence == SUPPORTS_MEMBERSHIP
    assert [r.retreat for r in report.rows] == [0] * 10001


# the largest radius at which each atom's reference probe stays cheap
PROPERTY_RADII = {ex.free_abelian(1): 10, ex.free_abelian(2): 6, ex.free_abelian(3): 4,
                  ex.klein_bottle(): 6, ex.baumslag_solitar(1, 2): 6,
                  ex.baumslag_solitar(1, 3): 5, ex.free_group(2): 4}


@functools.lru_cache(maxsize=None)
def _property_ball(atom, radius):
    return enumerate_ball(atom, radius)


def _rationals(top, dens):
    """Fractions j / d in [0, top] with d drawn from ``dens``."""
    return st.sampled_from(dens).flatmap(
        lambda d: st.integers(0, top * d).map(lambda j: Fraction(j, d)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sweep_equals_reference_on_drawn_probes(data):
    atom = data.draw(st.sampled_from(list(PROPERTY_RADII)), label="atom")
    radius = data.draw(st.integers(2, PROPERTY_RADII[atom]), label="radius")
    ball = _property_ball(atom, radius)
    coords = data.draw(st.lists(st.integers(-3, 3), min_size=ball.height_dim,
                                max_size=ball.height_dim).filter(any), label="direction")
    scales = data.draw(st.lists(_rationals(radius + 1, (1, 2, 3, 4, 7)), max_size=8),
                       label="scales")
    repeats = data.draw(st.lists(st.sampled_from(scales), max_size=3) if scales else st.just([]),
                        label="repeats")
    grid = sorted(scales + repeats)
    lam = data.draw(_rationals(10, (1, 2, 3)), label="budget")
    margin = data.draw(st.sampled_from([None, 0, 1, radius]), label="margin")
    mode = data.draw(st.sampled_from([HALF_SPACE, TRUNCATED_CONE]), label="mode")
    gamma = Direction(tuple(coords))
    report = connectivity_probe(ball, gamma, grid, mode, lam, margin)
    assert (report.config, report.rows, report.evidence) == \
        _reference_probe(ball, gamma, grid, mode, lam, margin)


def test_probe_time_with_many_retreat_candidates():
    # F(2) at radius 6 with 4,001 scales 1/1000 apart and a budget of 4: each
    # scale has up to 4,000 grid levels to retreat to, and finds its own by
    # one bisection in the levels where the core prefixes join
    ball = enumerate_ball(ex.free_group(2), 6)
    grid = [Fraction(j, 1000) for j in range(4001)]
    for mode in (HALF_SPACE, TRUNCATED_CONE):
        start = time.perf_counter()
        report = connectivity_probe(ball, Direction((1, 0)), grid, mode, 4)
        assert time.perf_counter() - start < 1.0, mode
        assert len(report.rows) == 4001
