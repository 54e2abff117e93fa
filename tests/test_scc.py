"""The strongly connected component pass behind the spectral fold, the cycle
numbers, `_is_connected` and the Dynkin leg table.

The pinned lists fix both the component order and each component's vertex
order: the numeric path of `rho_nonnegative_via_scc` hands numpy a block
above size 6 in that order, so a change in either can change printed radii.
The property test checks the decomposition against a transitive closure.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from fproot.spectral import strongly_connected_components

# the support of the 8x8 matrix whose numeric radius depends on vertex order
_FOLD_8X8 = [[1, 0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 0, 1],
             [0, 0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0, 0, 1],
             [0, 0, 0, 1, 0, 0, 0, 0], [1, 1, 0, 0, 1, 1, 0, 0],
             [0, 0, 0, 0, 0, 1, 1, 0], [0, 0, 1, 0, 0, 0, 0, 0]]

PINNED = [
    (0, [], []),
    (3, [], [[0], [1], [2]]),
    (3, [(0, 0), (1, 1), (1, 2), (2, 2)], [[0], [2], [1]]),
    (3, [(0, 1), (0, 1), (1, 0), (1, 2), (1, 2), (2, 1)], [[2, 1, 0]]),
    (6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)],
     [[5, 4, 3], [2, 1, 0]]),
    # the largest component is not listed in ascending vertex order
    (6, [(0, 4), (4, 1), (1, 5), (5, 2), (2, 0), (4, 2), (3, 1), (3, 3)],
     [[2, 5, 1, 4, 0], [3]]),
    (5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 2), (3, 4), (4, 3)],
     [[4, 3, 2, 1, 0]]),
    (5, [(4, 3), (3, 2), (2, 1), (1, 0), (0, 4), (2, 4)], [[1, 2, 3, 4, 0]]),
    # a cross edge into a closed component, and one into an open one
    (4, [(0, 1), (1, 2), (2, 1), (0, 3), (3, 2)], [[2, 1], [3], [0]]),
    (4, [(0, 1), (1, 0), (0, 2), (2, 1), (3, 0)], [[2, 1, 0], [3]]),
    (8, [(i, j) for i, r in enumerate(_FOLD_8X8) for j, x in enumerate(r) if x],
     [[3, 4, 1, 5, 6, 2, 7, 0]]),
]


def test_pinned_components_and_vertex_order():
    for n, edges, comps in PINNED:
        assert strongly_connected_components(n, edges) == comps, (n, edges)


def test_long_path_and_cycles_stay_iterative():
    n = 3000
    path = [(i, i + 1) for i in range(n - 1)]
    assert strongly_connected_components(n, path) == [[i] for i in reversed(range(n))]
    cycle = [(i, (i + 1) % n) for i in range(n)]
    assert strongly_connected_components(n, cycle) == [list(reversed(range(n)))]
    backwards = [((i + 1) % n, i) for i in range(n)]
    assert strongly_connected_components(n, backwards) == [list(range(1, n)) + [0]]


def _reach(n, edges):
    """reach[u][v]: v can be reached from u by a path of length >= 0."""
    reach = [[u == v for v in range(n)] for u in range(n)]
    for u, v in edges:
        reach[u][v] = True
    for k in range(n):
        for u in range(n):
            if reach[u][k]:
                reach[u] = [a or b for a, b in zip(reach[u], reach[k])]
    return reach


@st.composite
def _multigraphs(draw):
    n = draw(st.integers(0, 12))
    if n == 0:
        return 0, []
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))


@settings(max_examples=300, deadline=None)
@given(_multigraphs())
def test_components_match_the_transitive_closure(graph):
    n, edges = graph
    comps = strongly_connected_components(n, edges)
    where = {v: i for i, comp in enumerate(comps) for v in comp}
    assert sorted(v for comp in comps for v in comp) == list(range(n))
    assert all(comps)
    reach = _reach(n, edges)
    for u in range(n):
        for v in range(n):
            assert (where[u] == where[v]) == (reach[u][v] and reach[v][u])
    for u, v in edges:
        assert where[u] >= where[v]
