"""The quiver layer against independent oracles.

Classification is checked against Smith's criterion: a connected loop-free
graph is Dynkin iff the spectral radius of its adjacency matrix is below 2,
and extended Dynkin iff it equals 2.  Cycle numbers are checked against
first-return walks counted by adjacency powers.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fproot.quiver import (Quiver, QuiverError, classify_underlying_graph,
                           cycle_number, cycle_quiver, fpdim_trichotomy_check,
                           is_acyclic)


def _quiver(n, edges):
    return Quiver([str(v) for v in range(n)],
                  [(f"e{k}", str(s), str(t)) for k, (s, t) in enumerate(edges)])


def _smith(n, edges):
    """('finite', n), ('extended', n - 1) or None from the adjacency
    spectrum of a connected loop-free graph."""
    u = np.zeros((n, n))
    for s, t in edges:
        u[s, t] += 1
        u[t, s] += 1
    radius = max(abs(np.linalg.eigvalsh(u)))
    if abs(radius - 2) <= 1e-9:
        return ("extended", n - 1)
    return ("finite", n) if radius < 2 else None


def _kind(cls):
    if cls is None:
        return None
    return ("extended" if cls[0].startswith("~") else "finite", cls[1])


def _connected(n, edges):
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for s, t in edges:
            for a, b in ((s, t), (t, s)):
                if a == v and b not in seen:
                    seen.add(b)
                    stack.append(b)
    return len(seen) == n


def _check_against_smith(n, edges):
    q = _quiver(n, edges)
    if n == 0 or not _connected(n, edges):
        with pytest.raises(QuiverError, match="connected"):
            classify_underlying_graph(q)
        return
    assert _kind(classify_underlying_graph(q)) == _smith(n, edges), edges


def _path(start, length):
    """Edges of a leg of the given length hanging off start."""
    vs = [start] + [object() for _ in range(length)]
    return list(zip(vs, vs[1:]))


def _numbered(edges):
    """(vertex count, edges) with the vertices renamed 0, 1, ..."""
    names = {}
    for e in edges:
        for v in e:
            names.setdefault(v, len(names))
    return len(names), [(names[s], names[t]) for s, t in edges]


def test_every_simple_graph_up_to_five_vertices_matches_smith():
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            _check_against_smith(n, [p for k, p in enumerate(pairs) if mask >> k & 1])


def test_stars_match_smith():
    for legs in itertools.chain(
            itertools.combinations_with_replacement(range(1, 7), 3),
            itertools.combinations_with_replacement(range(1, 4), 4)):
        _check_against_smith(*_numbered(
            [e for length in legs for e in _path("c", length)]))


def test_two_branch_trees_match_smith():
    """Two degree-3 vertices joined by a path, each with two pendant legs.
    Only all-leaf legs give the extended D shape."""
    extended = 0
    for middle in range(1, 4):
        for legs in itertools.product(range(1, 4), repeat=4):
            edges = _path("b1", middle)
            b2 = edges[-1][1]
            edges += _path("b1", legs[0]) + _path("b1", legs[1])
            edges += _path(b2, legs[2]) + _path(b2, legs[3])
            n, numbered = _numbered(edges)
            _check_against_smith(n, numbered)
            extended += classify_underlying_graph(_quiver(n, numbered)) is not None
    assert extended == 3  # the legs (1, 1, 1, 1), one per middle length


def test_the_wild_two_branch_tree_is_unclassified():
    # b1-b2, b1-l1, b1-l2, b2-l3, b2-l4, l4-l5
    n, edges = _numbered([("b1", "b2"), ("b1", "l1"), ("b1", "l2"),
                          ("b2", "l3"), ("b2", "l4"), ("l4", "l5")])
    assert _smith(n, edges) is None
    assert classify_underlying_graph(_quiver(n, edges)) is None


def test_cycles_with_a_tail_match_smith():
    for length in range(3, 8):
        for tail in range(0, 4):
            cycle = [(k, (k + 1) % length) for k in range(length)]
            n, edges = _numbered(cycle + _path(0, tail))
            _check_against_smith(n, edges)


@pytest.mark.parametrize("edges", [
    [(0, 1), (0, 1)],
    [(0, 1), (1, 0)],
    [(0, 1), (0, 1), (0, 1)],
    [(0, 1), (0, 1), (1, 2)],
    [(0, 1), (1, 2), (1, 2), (2, 3)],
    [(0, 1), (1, 2), (2, 0), (2, 0)],
], ids=["double", "double_opposed", "triple", "double_tail", "double_inside",
        "triangle_double"])
def test_double_edges_match_smith(edges):
    _check_against_smith(1 + max(max(e) for e in edges), edges)


def test_a_loop_is_reported_before_disconnection():
    q = Quiver(["1", "2"], [("l", "1", "1")])
    with pytest.raises(QuiverError, match="loops"):
        classify_underlying_graph(q)


def test_high_degree_branch_vertices_are_unclassified():
    for legs in ((1, 1, 1, 2), (1, 1, 2, 2), (1, 1, 1, 1, 1)):
        n, edges = _numbered([e for length in legs for e in _path("c", length)])
        assert _smith(n, edges) is None
        assert classify_underlying_graph(_quiver(n, edges)) is None


# -- cycle numbers ------------------------------------------------------------

def _first_return_counts(n, edges):
    """Per vertex v, the number of closed walks from v of length 1..2n that
    meet v only at their ends, saturated at 2."""
    a = [[0] * n for _ in range(n)]
    for s, t in edges:
        a[s][t] += 1
    counts = []
    for v in range(n):
        inner = [[0 if v in (i, j) else a[i][j] for j in range(n)] for i in range(n)]
        total = a[v][v]                       # length 1: the loops at v
        reach = [a[v][j] if j != v else 0 for j in range(n)]  # v, then one step
        for _ in range(2 * n - 1):            # lengths 2..2n
            total += sum(reach[j] * a[j][v] for j in range(n))
            reach = [sum(reach[i] * inner[i][j] for i in range(n)) for j in range(n)]
        counts.append(min(total, 2))
    return counts


@st.composite
def arrow_lists(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    if n == 0:
        return 0, []
    vertex = st.integers(min_value=0, max_value=n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=12))


@settings(max_examples=300, deadline=None)
@given(arrow_lists())
def test_cycle_numbers_match_first_return_walks(case):
    n, edges = case
    q = _quiver(n, edges)
    cn = cycle_number(q)
    want = _first_return_counts(n, edges)
    assert [cn.per_vertex[str(v)] for v in range(n)] == want
    assert cn.theta == max(want, default=0)
    assert is_acyclic(q) == (max(want, default=0) == 0)


def test_cycle_numbers_beyond_the_enumeration_cap():
    chorded = _quiver(30, [(k, (k + 1) % 30) for k in range(30)] + [(0, 14)])
    cn = cycle_number(chorded)
    assert set(cn.per_vertex.values()) == {2} and cn.theta == 2
    assert fpdim_trichotomy_check(chorded).consistent

    two = _quiver(40, [(k, (k + 1) % 20) for k in range(20)]
                  + [(20 + k, 20 + (k + 1) % 20) for k in range(20)])
    cn = cycle_number(two)
    assert set(cn.per_vertex.values()) == {1} and cn.theta == 1
    assert fpdim_trichotomy_check(two).consistent
    assert not is_acyclic(two)
    assert is_acyclic(_quiver(40, [(k, k + 1) for k in range(39)]))
    assert cycle_number(cycle_quiver(40)).theta == 1
