"""The scan's support rule (`repmod._brick_bound`), checked with no draws,
and the rng skip (`repmod._skip_maps`) past the draws it rules out.

On any algebra dim End(X) >= q(d), the Tits form of X's dimension vector d
(the End system has sum d_v^2 unknowns and sum_a d_s d_t equations; a
relation adds none), so a support with q(d) > 1 holds no brick.  On a
relation-free algebra a brick's dimension vector is a root of the quiver:
connected, with q(d) <= 1.  So on a Dynkin quiver exactly the positive roots
keep a bound above 0, each bound 1, and on a Euclidean quiver the real roots
keep bound 1 and the imaginary ones are unbounded.  A support that the
arrows inside it leave disconnected holds no brick on any algebra.
"""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fproot import repmod
from fproot.algebra import BoundAlgebra, LengthCapExceeded, build_algebra, path_algebra
from fproot.repmod import (_brick_bound, _dimension_vectors, _module, _random_maps,
                           _skip_maps, direct_sum, euler_form, failing_relation,
                           hom_dim, projective, scan_candidates)
from fproot.quiver import (Quiver, _is_connected, dynkin_quiver,
                           extended_dynkin_quiver, positive_roots)


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


def _two_loops_and_a_path():
    """Radical square zero on two loops and a path."""
    q = Quiver(["1", "2", "3", "4"], [("x", "1", "1"), ("y", "4", "4"),
                                      ("b", "1", "2"), ("d", "2", "3")])
    return build_algebra(q, [[(1, (b.label, a.label))] for a in q.arrows
                             for b in q.arrows if a.target == b.source])


def test_on_a_bound_algebra_disconnected_supports_and_q_above_1_hold_no_brick():
    """Radical square zero on two loops and a path: a support is unbounded
    iff the arrows inside it connect it and q(d) <= 1; every other one holds
    no brick."""
    alg = _two_loops_and_a_path()
    q = alg.quiver
    seen = set()
    for d in _dimension_vectors(q.vertices, 4):
        inner = [(a.label, a.source, a.target) for a in q.arrows
                 if a.source in d and a.target in d]
        connected = _is_connected(Quiver(list(d), inner))
        small = _tits(q, d) <= 1
        assert _brick_bound(alg, d) == (math.inf if connected and small else 0), d
        seen.add((connected, small))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


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
    supports that are connected and have q(d) <= 1, and it does run there."""
    alg = _two_loops_and_a_path()
    examined, check = [], repmod.failing_relation

    def spy(a, m):
        examined.append(dict(m[0]))
        return check(a, m)

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
