"""The scan's support rule (`repmod._brick_bound`), checked with no draws.

On a relation-free algebra a brick's dimension vector is a root of the
quiver: connected, with Tits form q(d) <= 1.  So on a Dynkin quiver exactly
the positive roots keep a bound above 0, each bound 1, and on a Euclidean
quiver the real roots keep bound 1 and the imaginary ones are unbounded.
A support that the arrows inside it leave disconnected holds no brick on any
algebra.
"""

import math

import pytest

from fproot import repmod
from fproot.algebra import build_algebra, path_algebra
from fproot.repmod import _brick_bound, _dimension_vectors, scan_candidates
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


def test_on_a_bound_algebra_only_connectivity_counts():
    """Radical square zero on two loops and a path: every support the arrows
    inside it connect is unbounded, every other one holds no brick."""
    q = Quiver(["1", "2", "3", "4"], [("x", "1", "1"), ("y", "4", "4"),
                                      ("b", "1", "2"), ("d", "2", "3")])
    alg = build_algebra(q, [[(1, (b.label, a.label))] for a in q.arrows
                            for b in q.arrows if a.target == b.source])
    seen = set()
    for d in _dimension_vectors(q.vertices, 4):
        inner = [(a.label, a.source, a.target) for a in q.arrows
                 if a.source in d and a.target in d]
        connected = _is_connected(Quiver(list(d), inner))
        assert _brick_bound(alg, d) == (math.inf if connected else 0), d
        seen.add(connected)
    assert seen == {True, False}


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
