"""The Dynkin catalogue built by reflection functors, against its oracles.

dynkin_indecomposables collects the tau^- orbits of the projectives, with
tau^- = C^- computed by BGP source reflections (repmod._coxeter_minus).  The
oracles: the positive roots of the underlying graph (Gabriel's theorem), the
brick test, the Coxeter transformation on dimension vectors, and the closed
forms of the Kronecker preprojectives and preinjectives.
"""

import pytest

from fproot import repmod
from fproot.algebra import BoundAlgebra, kronecker_algebra, opposite, path_algebra
from fproot.exactlin import InputError
from fproot.quiver import Quiver, dynkin_quiver, extended_dynkin_quiver, positive_roots
from fproot.repmod import (_coxeter_minus, dual_representation, dynkin_indecomposables,
                           is_brick, is_isomorphic_brick, preinjective_brick,
                           preprojective_brick, projective)

DYNKIN = ([("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)]
          + [("E", n) for n in (6, 7, 8)])


def alternate(q: Quiver) -> Quiver:
    """q with every other arrow (the second, the fourth, ...) reversed."""
    return Quiver(q.vertices, [(a.label, a.target, a.source) if i % 2 else
                               (a.label, a.source, a.target) for i, a in enumerate(q.arrows)])


def source_order(q: Quiver) -> list:
    """The vertices of an acyclic quiver, each after every vertex with an
    arrow into it: k_1 is a source of q, k_2 one of q with k_1 turned, ..."""
    order = []
    while len(order) < len(q.vertices):
        order.append(next(v for v in q.vertices if v not in order and all(
            a.source in order for a in q.arrows if a.target == v)))
    return order


def coxeter(q: Quiver, x: dict) -> dict:
    """s_{k_n} ... s_{k_1}(x) over the source order, where s_k changes only
    coordinate k, to the sum of x_j over k's neighbours j (one term per
    arrow) minus x_k."""
    x = dict(x)
    for k in source_order(q):
        x[k] = sum(x[a.target] if a.source == k else x[a.source]
                   for a in q.arrows if k in (a.source, a.target)) - x[k]
    return x


@pytest.mark.parametrize("turned", [False, True], ids=["as_built", "alternating"])
@pytest.mark.parametrize("family,rank", DYNKIN, ids=[f"{f}{n}" for f, n in DYNKIN])
def test_catalogue_is_one_brick_per_positive_root(family, rank, turned):
    q = alternate(dynkin_quiver(family, rank)) if turned else dynkin_quiver(family, rank)
    alg = path_algebra(q)
    mods = dynkin_indecomposables(alg)
    roots = sorted(positive_roots(q), key=lambda r: (sum(r), r))
    assert [tuple(m.dimvec.values()) for m in mods] == roots
    assert [m.name for m in mods] == ["M(" + ",".join(map(str, r)) + ")" for r in roots]
    assert all(is_brick(m) for m in mods)
    op = opposite(alg)
    injectives = [dual_representation(projective(op, v), alg).dimvec for v in q.vertices]
    assert sum(m.dimvec in injectives for m in mods) == len(q.vertices)
    for m in mods:
        step = _coxeter_minus(alg, m)
        if m.dimvec in injectives:
            assert step.is_zero(), m.name
        else:
            assert step.dimvec == coxeter(q, m.dimvec), m.name


def orbits(alg: BoundAlgebra, first: str, second: str, count: int) -> list:
    """The first count modules of the tau^- orbits of P_first and P_second,
    taken in turn: P_first, P_second, tau^- P_first, tau^- P_second, ..."""
    mods, pair = [], [projective(alg, first), projective(alg, second)]
    while len(mods) < count:
        mods += pair
        pair = [_coxeter_minus(alg, m) for m in pair]
    return mods[:count]


def test_kronecker_orbits_are_the_closed_form_families():
    # the orbits never end here; the first nine of each side are compared
    K = kronecker_algebra()
    for n, m in enumerate(orbits(K, "2", "1", 9)):
        assert is_isomorphic_brick(m, preprojective_brick(K, n)), n
    for n, m in enumerate(orbits(opposite(K), "1", "2", 9)):
        assert is_isomorphic_brick(dual_representation(m, K), preinjective_brick(K, n)), n


@pytest.mark.parametrize("alg", [kronecker_algebra(), path_algebra(extended_dynkin_quiver("D", 4))],
                         ids=["kronecker", "extended_D4"])
def test_non_dynkin_graph_fails_before_any_reflection(alg, monkeypatch):
    # the tau^- orbits of these projectives never reach zero
    def entered(*args):
        raise AssertionError("the orbit loop was entered")
    monkeypatch.setattr(repmod, "projective", entered)
    monkeypatch.setattr(repmod, "_coxeter_minus", entered)
    with pytest.raises(InputError):
        dynkin_indecomposables(alg)

