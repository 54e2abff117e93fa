import pathlib
import random
import re

import pytest

from fproot.quiver import (Quiver, QuiverError, adjacency,
                           classify_underlying_graph, cycle_number,
                           cycle_quiver, dynkin_quiver, extended_dynkin_quiver,
                           fpdim_trichotomy_check, is_acyclic, kronecker_quiver,
                           path_quiver, positive_roots, quiver_fpdim,
                           quiver_from_json, quiver_to_dot, quiver_to_json,
                           simple_cycles, underlying_adjacency)
from fproot.spectral import rho


def loop_quiver(k):
    return Quiver(["v"], [(f"l{i}", "v", "v") for i in range(k)])


# -- adjacency / fpdim -------------------------------------------------------

def test_adjacency_kronecker():
    assert adjacency(kronecker_quiver()).to_lists() == [[0, 2], [0, 0]]


def test_adjacency_loop_and_path():
    assert adjacency(loop_quiver(1)).to_lists() == [[1]]
    assert adjacency(path_quiver(2)).to_lists() == [[0, 1], [0, 0]]


def test_fpdim_acyclic_is_zero_exactly():
    for q in (path_quiver(4), kronecker_quiver(), dynkin_quiver("D", 5)):
        r = quiver_fpdim(q)
        assert r.value == 0.0 and r.certified


def test_fpdim_loops():
    assert quiver_fpdim(loop_quiver(1)).value == 1.0
    assert quiver_fpdim(loop_quiver(2)).value == 2.0


# -- cycles -------------------------------------------------------------

def test_simple_cycle_enumeration_counts():
    # an oriented n-cycle has exactly one simple cycle
    for n in (2, 3, 6):
        assert len(simple_cycles(cycle_quiver(n))) == 1
    assert len(simple_cycles(loop_quiver(2))) == 2
    assert simple_cycles(path_quiver(5)) == []


def test_cycle_enumeration_oracle_walks():
    """Brute–force first-return walk oracle on a figure-eight quiver."""
    q = Quiver(["u", "v"], [("p", "u", "v"), ("q", "v", "u"),
                            ("r", "v", "v")])
    # walks from u back to u of length <= 4 that avoid u in between:
    # p q, p r q, p r r q -> with the side loop there are infinitely many,
    # so theta at u must saturate at >= 2
    cn = cycle_number(q)
    assert cn.per_vertex["u"] == 2
    assert cn.per_vertex["v"] == 2
    assert cn.theta == 2


def test_cycle_number_single_cycle():
    for n in (1, 2, 5):
        q = cycle_quiver(n) if n > 1 else loop_quiver(1)
        cn = cycle_number(q)
        assert cn.theta == 1
        assert all(v == 1 for v in cn.per_vertex.values())


def test_cycle_number_acyclic():
    assert cycle_number(path_quiver(4)).theta == 0


def test_cycle_number_two_loops():
    assert cycle_number(loop_quiver(2)).theta == 2


def test_cycle_number_disjoint_cycles_stay_one():
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "2", "1"),
                ("c", "3", "4"), ("d", "4", "3")])
    cn = cycle_number(q)
    assert cn.theta == 1


def test_cycle_number_shared_vertex_saturates():
    q = Quiver(["1", "2", "3"],
               [("a", "1", "2"), ("b", "2", "1"),
                ("c", "2", "3"), ("d", "3", "2")])
    cn = cycle_number(q)
    assert cn.theta == 2
    assert cn.per_vertex["1"] == 2  # side cycle at 2 avoids 1


def test_cycle_number_saturation_under_added_arrows():
    rng = random.Random(13)
    order = {0: 0, 1: 1, 2: 2}
    for _ in range(20):
        n = rng.randint(2, 5)
        vs = [str(i) for i in range(n)]
        arrows = []
        for k in range(rng.randint(1, 6)):
            arrows.append((f"a{k}", rng.choice(vs), rng.choice(vs)))
        q = Quiver(vs, arrows)
        t1 = cycle_number(q).theta
        arrows2 = arrows + [("extra", rng.choice(vs), rng.choice(vs))]
        t2 = cycle_number(Quiver(vs, arrows2)).theta
        assert order[t2] >= order[t1]


# -- trichotomy ---------------------------------------------------------

def test_trichotomy_examples():
    assert fpdim_trichotomy_check(path_quiver(3)).consistent
    assert fpdim_trichotomy_check(loop_quiver(1)).consistent
    assert fpdim_trichotomy_check(loop_quiver(2)).consistent


# -- classification -----------------------------------------------------

def test_classify_small_shapes():
    assert classify_underlying_graph(path_quiver(4)) == ("A", 4)
    assert classify_underlying_graph(dynkin_quiver("D", 4)) == ("D", 4)
    assert classify_underlying_graph(cycle_quiver(5)) == ("~A", 4)
    assert classify_underlying_graph(kronecker_quiver()) == ("~A", 1)
    assert classify_underlying_graph(dynkin_quiver("E", 6)) == ("E", 6)
    assert classify_underlying_graph(dynkin_quiver("E", 7)) == ("E", 7)
    assert classify_underlying_graph(dynkin_quiver("E", 8)) == ("E", 8)
    assert classify_underlying_graph(extended_dynkin_quiver("D", 4)) == ("~D", 4)
    assert classify_underlying_graph(extended_dynkin_quiver("D", 6)) == ("~D", 6)
    for r in (6, 7, 8):
        assert classify_underlying_graph(extended_dynkin_quiver("E", r)) == ("~E", r)


def test_classify_rejects_other():
    # a triangle with a tail is neither Dynkin nor extended Dynkin
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1"),
                ("d", "3", "4")])
    assert classify_underlying_graph(q) is None


def test_classify_rejects_a_tree_with_three_branch_vertices():
    # the path 1-2-3-4-5 with a leaf at each of 2, 3 and 4: a tree, but no
    # (extended) Dynkin tree has more than two branch vertices
    q = Quiver([str(i) for i in range(1, 9)],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"), ("d", "4", "5"),
                ("e", "6", "2"), ("f", "7", "3"), ("g", "8", "4")])
    assert classify_underlying_graph(q) is None


def test_classify_needs_connected():
    q = Quiver(["1", "2"], [])
    with pytest.raises(QuiverError):
        classify_underlying_graph(q)


def _classify_shapes():
    """The underlying graphs of the benchmark's classify jobs, read from
    bench/gen.py's source text, so that no bytecode is written under bench/."""
    gen = pathlib.Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    ns = {"__name__": "bench_gen"}
    exec(compile(gen.read_text(), str(gen), "exec"), ns)
    return ns["classify_shapes"]()


def test_underlying_adjacency_is_adjacency_plus_its_transpose():
    rng = random.Random(0)
    shapes = _classify_shapes()
    assert len(shapes) > 30
    for *_, nverts, edges in shapes:
        for _ in range(3):  # random orientations
            q = Quiver([str(v) for v in range(nverts)],
                       [(f"e{k}", *map(str, rng.sample((s, t), 2)))
                        for k, (s, t) in enumerate(edges)])
            a, u = adjacency(q), underlying_adjacency(q)
            assert u == a + a.transpose()
            assert {type(x) for row in u.data for x in row} == {int}
    with pytest.raises(QuiverError, match="undefined with loops"):
        underlying_adjacency(loop_quiver(1))


def test_smith_bound_dynkin_vs_extended():
    for fam, ranks in (("A", range(1, 9)), ("D", range(4, 9)), ("E", (6, 7, 8))):
        for r in ranks:
            u = underlying_adjacency(dynkin_quiver(fam, r))
            assert rho(u).value < 2 - 1e-6, (fam, r)
    for fam, ranks in (("A", range(1, 9)), ("D", range(4, 9)), ("E", (6, 7, 8))):
        for r in ranks:
            u = underlying_adjacency(extended_dynkin_quiver(fam, r))
            assert abs(rho(u).value - 2.0) <= 1e-9, (fam, r)


# -- positive roots -----------------------------------------------------

def interval_support_count(n):
    """Independent oracle: positive roots of the linear A_n graph are the
    0/1 vectors supported on intervals."""
    return n * (n + 1) // 2


def test_positive_roots_a2():
    roots = positive_roots(path_quiver(2))
    assert sorted(roots) == [(0, 1), (1, 0), (1, 1)]


def test_positive_roots_an_counts():
    for n in range(1, 7):
        assert len(positive_roots(path_quiver(n))) == interval_support_count(n)


def test_positive_roots_an_are_intervals():
    roots = set(positive_roots(path_quiver(4)))
    expected = set()
    for i in range(4):
        for j in range(i, 4):
            expected.add(tuple(1 if i <= k <= j else 0 for k in range(4)))
    assert roots == expected


def test_positive_roots_d4_and_exceptional_counts():
    assert len(positive_roots(dynkin_quiver("D", 4))) == 12
    assert len(positive_roots(dynkin_quiver("D", 5))) == 20
    assert len(positive_roots(dynkin_quiver("E", 6))) == 36


def test_positive_roots_rejects_non_dynkin():
    with pytest.raises(QuiverError):
        positive_roots(cycle_quiver(4))


# -- misc -----------------------------------------------------------------

def test_arrow_reversal_invariance():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(1, 5)
        vs = [str(i) for i in range(n)]
        arrows = [(f"a{k}", rng.choice(vs), rng.choice(vs))
                  for k in range(rng.randint(0, 7))]
        q = Quiver(vs, arrows)
        assert abs(quiver_fpdim(q).value - quiver_fpdim(q.reversed()).value) <= 1e-9


def test_is_acyclic():
    assert is_acyclic(path_quiver(5))
    assert not is_acyclic(cycle_quiver(3))
    assert not is_acyclic(loop_quiver(1))


def test_json_roundtrip_and_dot():
    q = kronecker_quiver()
    q2 = quiver_from_json(quiver_to_json(q))
    assert q2.vertices == q.vertices
    assert q2.arrows == q.arrows
    dot = quiver_to_dot(q)
    assert '"1" -> "2"' in dot and dot.startswith("digraph")
    with pytest.raises(QuiverError):
        quiver_from_json("{}")
    with pytest.raises(QuiverError):
        quiver_from_json("not json")


def test_dot_quotes_unescape_to_the_names():
    """Every quoted ID and label of the DOT text, with \\ and \" read back,
    is the quiver's name in its place, also for names holding quotes or
    backslashes."""
    names = ['a"b', "c\\d", '\\"', "x\\", '"', "plain"]
    q = Quiver(names, [(f'{s}{t}"', s, t) for s, t in zip(names, names[1:] + names[:1])])
    lines = quiver_to_dot(q).splitlines()
    assert lines[0] == "digraph quiver {" and lines[-1] == "}"

    quoted = r'"((?:[^"\\]|\\.)*)"'

    def ids(line, skeleton):
        assert re.sub(quoted, "Q", line) == skeleton
        return [re.sub(r"\\(.)", r"\1", x) for x in re.findall(quoted, line)]

    assert [ids(line, "  Q;") for line in lines[1:1 + len(names)]] == [[v] for v in names]
    assert [ids(line, "  Q -> Q [label=Q];") for line in lines[1 + len(names):-1]] == [
        [a.source, a.target, a.label] for a in q.arrows]


def test_validation_errors():
    with pytest.raises(QuiverError):
        Quiver(["1", "1"], [])
    with pytest.raises(QuiverError):
        Quiver(["1"], [("a", "1", "2")])
    with pytest.raises(QuiverError):
        Quiver(["1"], [("a", "1", "1"), ("a", "1", "1")])
