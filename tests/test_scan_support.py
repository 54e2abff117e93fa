"""The scan's support rule (`repmod._brick_bound`), checked with no draws,
and the rng skip (`repmod._skip_maps`) past the draws it rules out.

On any algebra dim End(X) >= q(d), the Tits form of X's dimension vector d
(the End system has sum d_v^2 unknowns and sum_a d_s d_t equations; a
relation adds none), so a support with q(d) > 1 holds no brick.  A brick
over kQ/I is a brick over the path algebra of the arrows inside its support,
where dim End - dim Ext^1 = q(d): so a support with q(d) = 1 holds at most
one brick on any algebra.  On a relation-free algebra a brick's dimension
vector is a root of the quiver: connected, with q(d) <= 1.  So on a Dynkin
quiver exactly the positive roots keep a bound above 0, each bound 1, and on
a Euclidean quiver the real roots keep bound 1 and the imaginary ones are
unbounded.  A support that the arrows inside it leave disconnected holds no
brick on any algebra.

Over a radical-square-zero algebra kQ/J^2 a brick that is not simple has its
top on a vertex set T and its socle off it, and is a brick of the arrows
from T out of T (the separated quiver): the bound sums the rule above over
these cuts, one for each T with fewer vertices than the support.  The tests
below write that rule out on its own, check the bound against every brick a
scan that examines every draw finds, and check that the scan builds no draw
where the bound is met.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fproot import repmod
from fproot.algebra import (BoundAlgebra, LengthCapExceeded, build_algebra,
                            dual_numbers_algebra, kronecker_algebra, path_algebra)
from fproot.repmod import (_brick_bound, _dimension_vectors, _module, _random_maps,
                           _skip_maps, direct_sum, euler_form, failing_relation,
                           hom_dim, projective, scan_candidates)
from fproot.quiver import (Quiver, _is_connected, dynkin_quiver,
                           extended_dynkin_quiver, positive_roots)

from scan_reference import reference_scan


def _bounds(alg, budget):
    """{dimension vector in vertex order: its bound}, for every vector the
    scan walks at this budget."""
    vs = alg.quiver.vertices
    return {tuple(d.get(v, 0) for v in vs): _brick_bound(alg, d)
            for d in _dimension_vectors(vs, budget)}


@pytest.mark.parametrize("family, rank, budget, walked, kept", [
    ("E", 6, 11, 12375, 36), ("D", 5, 7, 791, 20)])
def test_dynkin_keeps_exactly_its_positive_roots(family, rank, budget, walked, kept):
    q = dynkin_quiver(family, rank)
    bounds = _bounds(path_algebra(q), budget)
    assert len(bounds) == walked
    roots = {d for d, most in bounds.items() if most}
    assert roots == set(positive_roots(q)) and len(roots) == kept
    assert {bounds[d] for d in roots} == {1}


def test_euclidean_keeps_its_real_roots_and_the_imaginary_one():
    q = extended_dynkin_quiver("D", 4)
    bounds = _bounds(path_algebra(q), 6)
    assert len(bounds) == 461
    kept = {d: most for d, most in bounds.items() if most}
    assert len(kept) == 25
    delta = tuple(2 if v == "3" else 1 for v in q.vertices)
    assert kept.pop(delta) == math.inf
    assert set(kept.values()) == {1}
    index = {v: i for i, v in enumerate(q.vertices)}
    for d in kept:  # 24 real roots: q(d) = 1, written out here on its own
        assert sum(x * x for x in d) - sum(
            d[index[a.source]] * d[index[a.target]] for a in q.arrows) == 1


def test_a_disconnected_support_holds_no_brick_even_where_q_is_1():
    """~D4 with a path x - y hung off a leaf: its imaginary root plus the
    simple at y has q = 0 + 1 but leaves x out, so it splits."""
    q = Quiver(["c", "1", "2", "3", "4", "x", "y"],
               [(f"a{v}", v, "c") for v in "1234"] + [("b", "1", "x"), ("e", "x", "y")])
    alg = path_algebra(q)
    split = {"c": 2, "1": 1, "2": 1, "3": 1, "4": 1, "y": 1}
    assert _brick_bound(alg, split) == 0
    assert _brick_bound(alg, {**split, "x": 1}) == math.inf  # connected, q = 0


def _tits(quiver, d):
    """q(d) = sum_v d_v^2 - sum_{a: s->t} d_s d_t, written out here on its own."""
    return sum(x * x for x in d.values()) - sum(
        d.get(a.source, 0) * d.get(a.target, 0) for a in quiver.arrows)


def _radical_square_zero(quiver):
    """kQ with every composable pair of arrows as a relation."""
    return build_algebra(quiver, [[(1, (b.label, a.label))] for a in quiver.arrows
                                  for b in quiver.arrows if a.target == b.source])


def _two_loops_and_a_path():
    """Radical square zero on two loops and a path."""
    return _radical_square_zero(Quiver(["1", "2", "3", "4"], [
        ("x", "1", "1"), ("y", "4", "4"), ("b", "1", "2"), ("d", "2", "3")]))


def _cut_rule(quiver, d):
    """The bound over kQ/J^2, written out here on its own: over each vertex
    set T with fewer vertices than d's support, the arrows from T out of T
    allow 1 brick if they connect the support and their Tits form is 1,
    infinitely many if it is <= 0, else none."""
    verts, most = list(d), 0
    for mask in range(2 ** len(verts) - 1):  # every T but the whole support
        top = {v for i, v in enumerate(verts) if mask >> i & 1}
        cut = [a for a in quiver.arrows if a.source in top and a.target in d
               and a.target not in top]
        q = sum(x * x for x in d.values()) - sum(d[a.source] * d[a.target] for a in cut)
        if _is_connected(Quiver(verts, [(a.label, a.source, a.target) for a in cut])) and q <= 1:
            most += 1 if q == 1 else math.inf
    return most


def test_on_a_bound_algebra_disconnected_supports_and_q_above_1_hold_no_brick():
    """Radical square zero on two loops and a path: a support that the
    arrows inside it leave disconnected, or with q(d) > 1, holds no brick,
    and every bound is the cut rule's."""
    alg = _two_loops_and_a_path()
    q = alg.quiver
    seen = set()
    for d in _dimension_vectors(q.vertices, 4):
        inner = [(a.label, a.source, a.target) for a in q.arrows
                 if a.source in d and a.target in d]
        connected = _is_connected(Quiver(list(d), inner))
        small, most = _tits(q, d) <= 1, _brick_bound(alg, d)
        assert most == _cut_rule(q, d) and (connected and small or most == 0), d
        seen.add((connected, small))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    assert _brick_bound(alg, {"4": 1}) == 1 and _brick_bound(alg, {"4": 2}) == 0


def test_the_scan_examines_only_draws_that_may_be_new_bricks(monkeypatch):
    """No draw is examined at a support of bound 0, and at a real root the
    draws are examined up to the first brick only; the imaginary root of
    ~D4 still has every distinct draw examined."""
    alg = path_algebra(extended_dynkin_quiver("D", 4))
    verdicts, hom_dim = {}, repmod.hom_dim

    def spy(m, n):  # End nullities of the draws (named B(...)#k), by support
        dim = hom_dim(m, n)
        if m is n and m.name.startswith("B("):
            support = frozenset((v, d) for v, d in m.dimvec.items() if d)
            verdicts.setdefault(support, []).append(dim)
        return dim

    monkeypatch.setattr(repmod, "hom_dim", spy)
    scan_candidates(alg, 6, 0)
    bounds = {frozenset(d.items()): _brick_bound(alg, d)
              for d in _dimension_vectors(alg.quiver.vertices, 6)}
    assert all(bounds[s] for s in verdicts)
    real = [dims for s, dims in verdicts.items() if bounds[s] == 1]
    assert real and all(1 not in dims[:-1] for dims in real)
    imaginary, = [dims for s, dims in verdicts.items() if bounds[s] == math.inf]
    assert imaginary.count(1) > 1


def test_on_a_bound_algebra_no_draw_is_examined_where_q_is_above_1(monkeypatch):
    """The relation check that opens each draw's examination runs only at
    supports that are connected and have q(d) <= 1, and it does run there.
    Only the scan's draws are recorded: building a projective checks its
    relations too."""
    alg = _two_loops_and_a_path()
    draws, examined = [], []
    draw, check = repmod._random_maps, repmod.failing_relation

    def drawing(*args):  # the scan's draws, kept so that no other object takes their ids
        draws.append(draw(*args))
        return draws[-1]

    def spy(a, m):
        if any(m[1] is d for d in draws):
            examined.append(dict(m[0]))
        return check(a, m)

    monkeypatch.setattr(repmod, "_random_maps", drawing)
    monkeypatch.setattr(repmod, "failing_relation", spy)
    scan_candidates(alg, 4, 0)
    walked = _dimension_vectors(alg.quiver.vertices, 4)
    assert examined and any(_tits(alg.quiver, d) > 1 for d in walked)
    assert all(_tits(alg.quiver, d) <= 1 and _brick_bound(alg, d) for d in examined)


@st.composite
def bound_algebras(draw):
    """A bound algebra on 1-3 vertices and up to 3 arrows, loops and parallel
    arrows allowed: every composable pair of arrows is a relation (radical
    square zero), except that pairs with the same ends may be joined into
    two-term relations p + c q (not monomial)."""
    vertices = [str(i) for i in range(1, draw(st.integers(1, 3)) + 1)]
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
                         min_size=1, max_size=3))
    arrows = [(f"a{k}", s, t) for k, (s, t) in enumerate(ends)]
    pairs = [(b, a, s, bt) for a, s, at in arrows for b, bs, bt in arrows if bs == at]
    relations = []
    while pairs:
        b, a, s, t = pairs.pop(0)
        twins = [p for p in pairs if p[2:] == (s, t)]
        if twins and draw(st.booleans()):
            pairs.remove(twins[0])
            c = draw(st.sampled_from([-2, -1, 1, 2]))
            relations.append([(1, (b, a)), (c, twins[0][:2])])
        else:
            relations.append([(1, (b, a))])
    try:
        return BoundAlgebra(Quiver(vertices, arrows), relations, length_cap=6)
    except LengthCapExceeded:
        assume(False)


@st.composite
def modules(draw, alg):
    """A projective, or the first of a few scan draws (repmod._random_maps)
    whose relations hold at a random nonzero support of total <= 3, or the
    direct sum of two such."""
    def one():
        if draw(st.booleans()):
            return projective(alg, draw(st.sampled_from(alg.quiver.vertices)))
        dims = draw(st.lists(st.integers(0, 2), min_size=len(alg.quiver.vertices),
                             max_size=len(alg.quiver.vertices)))
        support = {v: d for v, d in zip(alg.quiver.vertices, dims) if d}
        assume(support and sum(dims) <= 3)
        rng = random.Random(draw(st.integers(0, 2 ** 16)))
        for _ in range(20):
            maps = _random_maps(alg, support, rng)
            if failing_relation(alg, (support, maps)) is None:
                return _module(alg, (support, maps))
        assume(False)
    return one() if draw(st.booleans()) else direct_sum([one(), one()])


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_end_is_at_least_the_tits_form_on_bound_algebras(data):
    """dim End(X) >= q(dim X) for every module over a bound algebra, so the
    bound 0 of a support with q(d) > 1 rules out bricks there."""
    alg = data.draw(bound_algebras(), label="algebra")
    m = data.draw(modules(alg), label="module")
    end = hom_dim(m, m)
    assert end >= euler_form(alg, m.dimvec, m.dimvec)
    if _brick_bound(alg, {v: d for v, d in m.dimvec.items() if d}) == 0:
        assert end > 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_skip_maps_makes_the_rng_calls_of_random_maps(data):
    """_skip_maps(alg, d, rng, k) leaves rng where k draws of _random_maps
    leave it: loops, parallel arrows, and zero dimensions (given or left
    out) at either end of an arrow."""
    alg = data.draw(bound_algebras(), label="algebra")
    dims = {v: data.draw(st.integers(0, 3), label=f"d{v}") for v in alg.quiver.vertices}
    if data.draw(st.booleans(), label="leave zeros out"):
        dims = {v: d for v, d in dims.items() if d}
    seed, k = data.draw(st.integers(0, 2 ** 32)), data.draw(st.integers(0, 6))
    drawn, skipped = random.Random(seed), random.Random(seed)
    for _ in range(k):
        _random_maps(alg, dims, drawn)
    _skip_maps(alg, dims, skipped, k)
    assert skipped.getstate() == drawn.getstate()


@st.composite
def radical_square_zero_algebras(draw):
    """kQ/J^2 on 1-3 vertices and 1-4 arrows, loops and parallel arrows
    allowed."""
    vertices = [str(i) for i in range(1, draw(st.integers(1, 3)) + 1)]
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
                         min_size=1, max_size=4))
    return _radical_square_zero(
        Quiver(vertices, [(f"a{k}", s, t) for k, (s, t) in enumerate(ends)]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_no_support_holds_more_bricks_than_its_bound(data):
    """The scan that examines every draw (scan_reference) never finds more
    bricks, up to isomorphism, at a support than _brick_bound allows: on
    kQ/J^2, where the bound sums over the cuts of the separated quiver, and
    on bound algebras with two-term relations, where q(d) = 1 allows one."""
    alg = data.draw(st.one_of(radical_square_zero_algebras(), bound_algebras()),
                    label="algebra")
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    cands, truncated = reference_scan(alg, 4, seed, 24, 10 ** 6)
    assert not truncated
    found = Counter(frozenset((v, d) for v, d in c.dimvec.items() if d) for c in cands)
    for support, count in found.items():
        assert count <= _brick_bound(alg, dict(support)), (sorted(support), count)


def test_on_the_dual_numbers_only_the_simple_is_a_brick(monkeypatch):
    """k[x]/(x^2): a module of dimension n >= 2 has x M inside its socle and
    its top and socle both at the one vertex, so it is no brick; the only
    cut, of no arrows, allows the simple alone.  The scan, which holds the
    simple before its first draw, builds no draw at all."""
    alg = dual_numbers_algebra()
    assert _brick_bound(alg, {"1": 1}) == 1
    assert all(_brick_bound(alg, {"1": n}) == 0 for n in range(2, 41))
    built, draw = [], repmod._random_maps
    monkeypatch.setattr(repmod, "_random_maps", lambda *a: built.append(a) or draw(*a))
    cands, truncated = scan_candidates(alg, 8, 0)
    assert built == [] and [c.name for c in cands] == ["S1"] and not truncated


def _tits_rule(alg, d):
    """The bound of a relation-free algebra by the Tits form alone: 0 where
    the arrows inside leave d disconnected or q(d) > 1, 1 at q(d) = 1, and
    unbounded at q(d) <= 0."""
    inner = [(a.label, a.source, a.target) for a in alg.quiver.arrows
             if a.source in d and a.target in d]
    q = euler_form(alg, d, d)
    if not _is_connected(Quiver(list(d), inner)) or q > 1:
        return 0
    return 1 if q == 1 else math.inf


@pytest.mark.parametrize("alg, budget", [
    (kronecker_algebra(), 9),
    (path_algebra(Quiver(["1", "2", "3", "4"], [(f"a{v}", v, "1") for v in "234"])), 6),
    (path_algebra(extended_dynkin_quiver("D", 4)), 6),
    (path_algebra(dynkin_quiver("E", 6)), 8),
    (path_algebra(Quiver([str(i) for i in range(1, 7)], [  # E6, every vertex a source or a sink
        ("a", "2", "1"), ("b", "2", "3"), ("c", "4", "3"), ("d", "4", "5"), ("e", "6", "3")])), 8),
], ids=["kron", "D4", "~D4", "E6", "E6-bipartite"])
def test_on_path_algebras_the_bound_is_the_tits_rule(alg, budget):
    """On a relation-free algebra the bound is the Tits-form rule, also
    where J^2 = 0 (every vertex of a support a source or a sink): there the
    only cut that connects a support is every arrow inside it."""
    for d in _dimension_vectors(alg.quiver.vertices, budget):
        assert _brick_bound(alg, d) == _tits_rule(alg, d), d
