"""Property tests for the rank-only Hom path.

`hom_dim` counts the nullity of the intertwiner system with integer
fraction-free elimination, while `hom` builds the kernel basis with
`Fraction` Gauss-Jordan; the two must agree on every module pair.  The same
goes for `rank` against the pivots of `rref`, for the relation check against
the sum of path matrices, for `is_isomorphic_brick` (m is isomorphic to the
brick n) against the Schur rule and, on two bricks, the composite test on Hom
bases, and for the scan's verdicts on a draw's integer rows (`row_hom_dim`,
`row_isomorphic_to_brick`) against the same verdicts on the module built
from them.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fproot.algebra import (Path, build_algebra, dual_numbers_algebra,
                            kronecker_algebra, local_two_loop_algebra,
                            sqrt2_algebra)
from fproot.exactlin import RatMatrix, rank, rank_of_rows, rref, solve
from fproot.quiver import Quiver, path_quiver
from fproot import repmod
from fproot.cli import _random_maps
from fproot.repmod import _hom_system, regular_brick
from fproot.repmod import (Representation, RepresentationError,
                           failing_relation, hom, hom_dim, is_brick,
                           is_isomorphic_brick, minimal_resolution, module_from_json,
                           module_to_json, row_hom_dim,
                           row_isomorphic_to_brick, simple)
from test_scan_reference import ALGEBRAS as SCAN_ALGEBRAS


def _commutative_square():
    q = Quiver(["1", "2", "3", "4"],
               [("a1", "1", "2"), ("a2", "2", "4"),
                ("b1", "1", "3"), ("b2", "3", "4")])
    return build_algebra(q, [[(1, ("a2", "a1")), (-1, ("b2", "b1"))]])


ALGEBRAS = {
    "sqrt2": sqrt2_algebra(),            # monomial relations of length 2
    "kronecker": kronecker_algebra(),    # no relations
    "dual": dual_numbers_algebra(),      # a loop, x^2 = 0
    "two_loop": local_two_loop_algebra(2, 2),
    "square": _commutative_square(),     # a two-term relation
    "a4": build_algebra(path_quiver(4), [[(1, ("a3", "a2", "a1"))]]),  # length 3
}

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


# -- rank ---------------------------------------------------------------------

huge_rationals = st.builds(
    Fraction,
    st.integers(min_value=-10 ** 30, max_value=10 ** 30),
    st.integers(min_value=1, max_value=10 ** 24))

entries = st.one_of(st.just(Fraction(0)), small_rationals, huge_rationals)


@st.composite
def fraction_matrices(draw):
    r = draw(st.integers(min_value=0, max_value=6))
    c = draw(st.integers(min_value=0, max_value=6))
    data = draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    if r and draw(st.booleans()):  # a repeated row lowers the rank
        data.append(list(data[draw(st.integers(0, r - 1))]))
    return RatMatrix(data, cols=c)


@settings(max_examples=200, deadline=None)
@given(fraction_matrices())
def test_rank_matches_rref_pivots(m):
    assert rank(m) == len(rref(m)[1])


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 4), (4, 0), (3, 3)])
def test_rank_of_empty_and_zero_matrices(rows, cols):
    assert rank(RatMatrix.zeros(rows, cols)) == 0


def test_rank_of_rows_mixes_ints_and_fractions():
    rows = [[1, Fraction(1, 3), 0], [3, 1, 0], [0, 0, Fraction(-7, 10 ** 20)]]
    assert rank_of_rows(rows) == 2
    assert rank_of_rows([]) == 0


# -- random modules -------------------------------------------------------------

def _inverse(p: RatMatrix) -> RatMatrix:
    n = p.rows
    cols = [solve(p, RatMatrix.column([1 if i == j else 0 for i in range(n)]))
            for j in range(n)]
    return RatMatrix.from_columns([c.col(0) for c in cols], rows=n)


@st.composite
def invertibles(draw, n):
    """A dense invertible matrix: lower times upper unitriangular."""
    def tri(lower):
        return RatMatrix([[Fraction(1) if i == j else
                           (draw(small_rationals) if (i > j) == lower else Fraction(0))
                           for j in range(n)] for i in range(n)], cols=n)
    return tri(True) @ tri(False)


def _conjugate(m: Representation, ps) -> Representation:
    """The module isomorphic to m through the vertex maps ps."""
    maps = {}
    for a in m.algebra.quiver.arrows:
        maps[a.label] = ps[a.target] @ m.maps[a.label] @ _inverse(ps[a.source])
    return Representation(m.algebra, m.dimvec, maps, name=f"conj({m.name})")


@st.composite
def arrow_matrices(draw, r, c):
    kind = draw(st.sampled_from(["zero", "random", "upper"]))
    if kind == "zero":
        return RatMatrix.zeros(r, c)
    # "upper" is strictly upper triangular, nilpotent for square loops
    return RatMatrix([[draw(small_rationals) if kind == "random" or j > i
                       else Fraction(0) for j in range(c)] for i in range(r)],
                     cols=c)


@st.composite
def arrow_maps(draw, alg, dimvec):
    """Arrow matrices at dimvec; on the commutative square both paths may be
    given the same matrices, so that its relation holds with nonzero terms."""
    maps = {a.label: draw(arrow_matrices(dimvec[a.target], dimvec[a.source]))
            for a in alg.quiver.arrows}
    if alg is ALGEBRAS["square"] and dimvec["2"] == dimvec["3"] \
            and draw(st.booleans()):
        maps["b1"], maps["b2"] = maps["a1"], maps["a2"]
    return maps


@st.composite
def modules(draw, alg, dimvec=None):
    """A module over alg with dimensions 0..2 per vertex (zero vertices
    included), sampled structurally and then moved by a random change of
    basis, so the arrow matrices are dense with p/q entries."""
    if dimvec is None:
        dimvec = {v: draw(st.integers(min_value=0, max_value=2))
                  for v in alg.quiver.vertices}
    try:
        m = Representation(alg, dimvec, draw(arrow_maps(alg, dimvec)))
    except RepresentationError:
        assume(False)
    return _conjugate(m, {v: draw(invertibles(d)) for v, d in dimvec.items()})


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(ALGEBRAS)).flatmap(lambda k: modules(ALGEBRAS[k])))
def test_views_rebuild_the_stored_rows(m):
    """rows is a module's one stored form, and dimvec and maps are views of
    it: given back to the constructor they rebuild the same rows; dimvec
    lists every vertex in quiver order; each map has shape (dim target,
    dim source); and a JSON round trip prints the same bytes."""
    q, dimvec, maps = m.algebra.quiver, m.dimvec, m.maps
    assert Representation(m.algebra, dimvec, maps).rows == m.rows
    assert list(dimvec) == list(q.vertices)
    for a in q.arrows:
        assert maps[a.label].shape == (dimvec[a.target], dimvec[a.source])
    text = module_to_json(m)
    assert module_to_json(module_from_json(m.algebra, text)) == text


@st.composite
def module_pairs(draw):
    alg = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    m = draw(modules(alg))
    if draw(st.booleans()):
        return m, draw(modules(alg, dict(m.dimvec)))
    return m, draw(modules(alg))


@settings(max_examples=150, deadline=None)
@given(module_pairs())
def test_hom_dim_matches_hom_basis(pair):
    m, n = pair
    h = hom(m, n)
    assert hom_dim(m, n) == h.dim == len(h.basis)
    for f in h.basis:  # each basis element is an intertwiner
        for a in m.algebra.quiver.arrows:
            assert f[a.target] @ m.maps[a.label] == n.maps[a.label] @ f[a.source]


def _isomorphic_by_bases(m, n):
    """The composite test on Hom bases, exact for two bricks: they are
    isomorphic iff some composite of a map each way is nonzero."""
    if m.dimvec != n.dimvec:
        return False
    for f in hom(m, n).basis:
        for g in hom(n, m).basis:
            for v in m.algebra.quiver.vertices:
                if m.dimvec[v] and not (g[v] @ f[v]).is_zero():
                    return True
    return False


def _isomorphic_by_schur(m, n):
    """Whether m is isomorphic to n and n is a brick: their dimension vectors
    match and Hom(m, n) is spanned by one map of full rank at every vertex
    (an isomorphism spans Hom(m, n), which is then End(n) = k)."""
    if m.dimvec != n.dimvec:
        return False
    h = hom(m, n)
    return h.dim == 1 and all(rank(h.basis[0][v]) == d for v, d in m.dimvec.items())


def _check_is_isomorphic_brick(m, n):
    """is_isomorphic_brick(m, n) against the Schur rule, and against the
    composite test when both are bricks."""
    got = is_isomorphic_brick(m, n)
    assert got == _isomorphic_by_schur(m, n)
    if not m.is_zero() and not n.is_zero() and is_brick(m) and is_brick(n):
        assert got == _isomorphic_by_bases(m, n)


@settings(max_examples=150, deadline=None)
@given(module_pairs())
def test_is_isomorphic_brick_matches_basis_test(pair):
    _check_is_isomorphic_brick(*pair)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_is_isomorphic_brick_on_conjugate_pairs(data):
    alg = ALGEBRAS[data.draw(st.sampled_from(sorted(ALGEBRAS)))]
    m = data.draw(modules(alg))
    n = _conjugate(m, {v: data.draw(invertibles(d)) for v, d in m.dimvec.items()})
    _check_is_isomorphic_brick(m, n)


@st.composite
def bricks(draw, alg, dimvec=None):
    """A nonzero brick over alg; dimensions of 1 are drawn most often, since
    a random module with larger ones is seldom a brick."""
    if dimvec is None:
        dimvec = {v: draw(st.sampled_from((0, 1, 1, 2))) for v in alg.quiver.vertices}
    m = draw(modules(alg, dimvec))
    assume(not m.is_zero() and is_brick(m))
    return m


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.data())
def test_is_isomorphic_brick_matches_schur_rule(data):
    """Against the rule above and the composite test, on pairs of bricks; a
    conjugate of a brick must come out isomorphic to it."""
    alg = ALGEBRAS[data.draw(st.sampled_from(sorted(ALGEBRAS)))]
    m = data.draw(bricks(alg))
    partner = data.draw(st.sampled_from(["conjugate", "same_dimvec", "any"]))
    if partner == "conjugate":
        n = _conjugate(m, {v: data.draw(invertibles(d)) for v, d in m.dimvec.items()})
        assert is_isomorphic_brick(m, n) and is_isomorphic_brick(n, m)
    else:
        n = data.draw(bricks(alg, dict(m.dimvec) if partner == "same_dimvec" else None))
    _check_is_isomorphic_brick(m, n)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.data())
def test_isomorphic_to_brick_matches_schur_rule(data):
    """is_isomorphic_brick(m, n) with n a brick, as the scan calls it, against
    the rule above and, when m is a brick too, the composite test: m a
    conjugate of n (isomorphic both ways), a brick at n's dimension vector,
    any brick, or a module at n's dimension vector that is not a brick
    (never isomorphic to n)."""
    alg = ALGEBRAS[data.draw(st.sampled_from(sorted(ALGEBRAS)))]
    n = data.draw(bricks(alg))
    partner = data.draw(st.sampled_from(["conjugate", "same_dimvec", "any", "non_brick"]))
    if partner == "conjugate":
        m = _conjugate(n, {v: data.draw(invertibles(d)) for v, d in n.dimvec.items()})
        assert is_isomorphic_brick(m, n) and is_isomorphic_brick(n, m)
    elif partner == "non_brick":
        m = data.draw(modules(alg, dict(n.dimvec)))
        assume(not is_brick(m))
        assert not is_isomorphic_brick(m, n)
    else:
        m = data.draw(bricks(alg, dict(n.dimvec) if partner == "same_dimvec" else None))
    _check_is_isomorphic_brick(m, n)


def test_is_isomorphic_brick_on_kronecker_bricks():
    """Distinct Kronecker bricks of one dimension vector (R(0), R(1), R(inf))
    are not isomorphic; each is isomorphic to a conjugate of itself, and the
    semisimple module at (1, 1) is isomorphic to none of them."""
    alg = ALGEBRAS["kronecker"]
    rs = [regular_brick(alg, lam) for lam in (0, 1, math.inf)]
    for i, m in enumerate(rs):
        for j, n in enumerate(rs):
            assert is_isomorphic_brick(m, n) == (i == j) == _isomorphic_by_bases(m, n)
        p = {"1": RatMatrix([[Fraction(-2)]]), "2": RatMatrix([[Fraction(3, 5)]])}
        assert is_isomorphic_brick(_conjugate(m, p), m)
        semisimple = Representation(alg, {"1": 1, "2": 1}, {})
        assert not is_isomorphic_brick(semisimple, m)


# -- relation check and path columns ------------------------------------------

@st.composite
def unchecked_modules(draw):
    alg = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    dimvec = {v: draw(st.integers(min_value=0, max_value=2))
              for v in alg.quiver.vertices}
    return Representation(alg, dimvec, draw(arrow_maps(alg, dimvec)), check=False)


def _path_product(m, p):
    """The matrix of a path as the product of its arrow maps, the last arrow
    leftmost (identity for a trivial path): the reference that path_column
    and path_matrix are compared against."""
    if not p.arrows:
        return RatMatrix.identity(m.dimvec[p.source])
    *rest, first = p.arrows
    out = m.maps[first]
    for label in reversed(rest):
        out = m.maps[label] @ out
    return out


def _relations_vanish_by_matrices(m):
    for rel in m.algebra.relations:
        p0 = rel[0][1]
        acc = RatMatrix.zeros(m.dimvec[p0.target], m.dimvec[p0.source])
        for coeff, p in rel:
            acc = acc + _path_product(m, p).scale(coeff)
        if not acc.is_zero():
            return False
    return True


@pytest.mark.parametrize("b1, b2, holds", [(2, 3, True), (3, 2, True),
                                           (2, -3, False), (0, 0, False)])
def test_relation_check_weighs_each_term(b1, b2, holds):
    """a2 a1 - b2 b1 = 0 with a1 = 2, a2 = 3 holds only when b2 b1 = 6."""
    maps = {"a1": [[2]], "a2": [[3]], "b1": [[b1]], "b2": [[b2]]}
    m = Representation(ALGEBRAS["square"], {v: 1 for v in "1234"},
                       {k: RatMatrix(v) for k, v in maps.items()}, check=False)
    assert _relations_vanish_by_matrices(m) == holds
    if holds:
        Representation(m.algebra, m.dimvec, m.maps)
    else:
        with pytest.raises(RepresentationError):
            Representation(m.algebra, m.dimvec, m.maps)


@settings(max_examples=200, deadline=None)
@given(unchecked_modules())
def test_relation_check_matches_path_matrix_sum(m):
    try:
        Representation(m.algebra, m.dimvec, m.maps)
        accepted = True
    except RepresentationError:
        accepted = False
    assert accepted == _relations_vanish_by_matrices(m)


@settings(max_examples=100, deadline=None)
@given(unchecked_modules())
def test_path_column_matches_path_matrix(m):
    trivial = [Path((), v, v) for v in m.algebra.quiver.vertices]
    arrows = [Path((a.label,), a.source, a.target) for a in m.algebra.quiver.arrows]
    for p in trivial + arrows + [p for rel in m.algebra.relations for _, p in rel]:
        pm = _path_product(m, p)
        assert m.path_matrix(p) == pm
        for j in range(pm.cols):
            assert tuple(m.path_column(p, j)) == pm.col(j)


# -- the relation check on integer rows ---------------------------------------

def _relations_vanish_by_columns(m):
    """Every relation as a sum of path_column evaluations, one basis vector of
    the source at a time, with its Fraction coefficients."""
    for rel in m.algebra.relations:
        p0 = rel[0][1]
        for j in range(m.dimvec[p0.source]):
            acc = [0] * m.dimvec[p0.target]
            for coeff, p in rel:
                for i, x in enumerate(m.path_column(p, j)):
                    acc[i] += coeff * x
            if any(acc):
                return False
    return True


def _relation_sum(m, rel):
    """The matrix of one relation on m, as a sum of path products."""
    p0 = rel[0][1]
    acc = RatMatrix.zeros(m.dimvec[p0.target], m.dimvec[p0.source])
    for coeff, p in rel:
        acc = acc + _path_product(m, p).scale(coeff)
    return acc


def _row_level(alg, dimvec, rows):
    """The row-level module (support, maps) that failing_relation takes, of
    arrow rows by label (None for a zero map)."""
    return ({v: d for v, d in dimvec.items() if d},
            tuple(rows[a.label] for a in alg.quiver.arrows))


def _unchecked(alg, dimvec, rows):
    """The module of integer rows (None for a zero map), built unchecked."""
    return Representation(alg, dimvec, {label: RatMatrix(r, cols=dimvec[
        alg.quiver.arrow(label).source]) for label, r in rows.items() if r is not None},
        check=False)


@st.composite
def integer_draws(draw):
    """(algebra, dimension vector, arrow rows) as the scan draws them: per
    arrow None (a zero map), a zero matrix, or entries in -2..2; on the
    commutative square both paths may get the same rows, so that its
    two-term relation can hold with nonzero terms."""
    alg = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    dimvec = {v: draw(st.integers(min_value=0, max_value=3)) for v in alg.quiver.vertices}
    rows = {}
    for a in alg.quiver.arrows:
        r, c = dimvec[a.target], dimvec[a.source]
        kind = draw(st.sampled_from(["none", "zero", "random", "random"]))
        rows[a.label] = None if kind == "none" else tuple(
            tuple(draw(st.integers(-2, 2)) if kind == "random" else 0 for _ in range(c))
            for _ in range(r))
    if alg is ALGEBRAS["square"] and dimvec["2"] == dimvec["3"] and draw(st.booleans()):
        rows["b1"], rows["b2"] = rows["a1"], rows["a2"]
    return alg, dimvec, rows


@settings(max_examples=300, deadline=None)
@given(integer_draws())
def test_failing_relation_matches_column_evaluation(d):
    """The row-level check, which skips a term whose path runs through a zero
    map, against path_column sums and matrix products on the built module;
    it names the first relation that does not vanish."""
    alg, dimvec, rows = d
    m = _unchecked(alg, dimvec, rows)
    rel = failing_relation(alg, _row_level(alg, dimvec, rows))
    assert (rel is None) == _relations_vanish_by_columns(m) == _relations_vanish_by_matrices(m)
    if rel is not None:
        assert rel == next(r for r in alg.relations if not _relation_sum(m, r).is_zero())


@pytest.mark.parametrize("rows, holds", [
    # a2 a1 - b2 b1 with a1 a zero map: holds iff b2 b1 = 0
    ({"a1": None, "a2": ((3,),), "b1": ((2,),), "b2": ((0,),)}, True),
    ({"a1": None, "a2": ((3,),), "b1": ((2,),), "b2": ((1,),)}, False),
    ({"a1": None, "a2": ((3,),), "b1": None, "b2": ((1,),)}, True),
    ({"a1": ((2,),), "a2": ((3,),), "b1": ((-6,),), "b2": ((-1,),)}, True),
    ({"a1": ((2,),), "a2": ((3,),), "b1": ((6,),), "b2": ((-1,),)}, False),
])
def test_failing_relation_on_the_commutative_square(rows, holds):
    alg = ALGEBRAS["square"]
    dimvec = {v: 1 for v in "1234"}
    assert (failing_relation(alg, _row_level(alg, dimvec, rows)) is None) == holds
    assert _relations_vanish_by_columns(_unchecked(alg, dimvec, rows)) == holds


@pytest.mark.parametrize("name, rows, holds", [
    ("dual", {"x": ((0, 1), (0, 0))}, True),       # x^2 = 0
    ("dual", {"x": ((1, 0), (0, 0))}, False),
    ("dual", {"x": None}, True),
    ("two_loop", {"x": ((0, 1), (0, 0)), "y": ((0, 1), (0, 0))}, True),
    ("two_loop", {"x": ((0, 1), (0, 0)), "y": ((0, 0), (1, 0))}, False),  # xy != 0
    ("two_loop", {"x": ((0, 1), (0, 0)), "y": None}, True),
    ("two_loop", {"x": ((0, 0), (1, 0)), "y": ((0, 1), (0, 0))}, False),  # xy != 0
])
def test_failing_relation_on_loops(name, rows, holds):
    alg = ALGEBRAS[name]
    dimvec = {"1": 2}
    assert (failing_relation(alg, _row_level(alg, dimvec, rows)) is None) == holds
    assert _relations_vanish_by_columns(_unchecked(alg, dimvec, rows)) == holds


# -- the scan's verdicts on integer rows ----------------------------------------

def _built(alg, dimvec, draw):
    """The module of a draw (None for a zero map), built unchecked."""
    return Representation(alg, dimvec, {a.label: RatMatrix(r, cols=dimvec[a.source])
                                        for a, r in zip(alg.quiver.arrows, draw)
                                        if r is not None}, check=False)


@st.composite
def scan_draws(draw):
    """(algebra, dimension vector, draws): the distinct draws among eight
    that fproot.cli._random_maps makes from a drawn seed at a nonzero
    dimension vector, over every scan-reference algebra (loops, two parallel
    arrows, one- and two-term relations), kept when the relations hold."""
    alg = SCAN_ALGEBRAS[draw(st.sampled_from(sorted(SCAN_ALGEBRAS)))]
    dimvec = {v: draw(st.integers(min_value=0, max_value=2)) for v in alg.quiver.vertices}
    assume(any(dimvec.values()))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    draws = dict.fromkeys(_random_maps(alg, dimvec, rng) for _ in range(8))
    support = {v: d for v, d in dimvec.items() if d}
    return alg, dimvec, [d for d in draws if failing_relation(alg, (support, d)) is None]


@settings(max_examples=150, deadline=None)
@given(scan_draws())
def test_row_end_nullity_matches_is_brick(case):
    """The End nullity the scan computes on a draw's rows is dim End of the
    module built from them, so it is 1 exactly when is_brick holds."""
    alg, dimvec, draws = case
    support = {v: d for v, d in dimvec.items() if d}
    for d in draws:
        m = _built(alg, dimvec, d)
        nullity = row_hom_dim(alg.quiver.arrows, (support, d), (support, d))
        assert nullity == hom_dim(m, m) == hom(m, m).dim
        assert (nullity == 1) == is_brick(m)


@settings(max_examples=100, deadline=None)
@given(scan_draws(), st.data())
def test_row_dedup_matches_schur_rule(case, data):
    """The scan's dedup on rows against the Schur rule on the built modules,
    with the second draw a brick as in the scan, and against the composite
    test when the first is a brick too; a conjugate of a brick by rational
    vertex maps, given as its rows, matches it."""
    alg, dimvec, draws = case
    arrows, support = alg.quiver.arrows, {v: d for v, d in dimvec.items() if d}
    built = [_built(alg, dimvec, d) for d in draws]
    for d2, n in zip(draws, built):
        if not is_brick(n):
            continue
        for d1, m in zip(draws, built):
            got = row_isomorphic_to_brick(arrows, (support, d1), (support, d2))
            assert got == _isomorphic_by_schur(m, n)
            if is_brick(m):
                assert got == _isomorphic_by_bases(m, n)
        c = _conjugate(n, {v: data.draw(invertibles(k)) for v, k in dimvec.items()})
        assert row_isomorphic_to_brick(arrows, c.rows, (support, d2))
        assert is_isomorphic_brick(c, n)


def test_hom_system_of_two_simples_on_900_vertices():
    """The Hom system lays out unknowns only where both modules are nonzero.
    Between two simples of a 900-vertex arrowless quiver it has at most one
    unknown; it is given the arrows and the supports, one vertex each, so it
    has no vertex list to walk."""
    alg = build_algebra(Quiver([str(i) for i in range(900)], []), [])
    s0, s1 = simple(alg, "0"), simple(alg, "899")
    assert s0.rows == ({"0": 1}, ())
    for m, n, dim in ((s0, s0, 1), (s0, s1, 0), (s1, s0, 0)):
        rows, total, offsets = _hom_system(alg.quiver.arrows, m.rows, n.rows)
        assert (rows, total, len(offsets)) == ([], dim, dim)
        assert hom_dim(m, n) == hom(m, n).dim == dim
    assert is_brick(s0) and is_isomorphic_brick(s0, s0) and not is_isomorphic_brick(s1, s0)


def test_simple_on_3000_vertices_is_stored_by_its_support(monkeypatch):
    """A simple stores its one nonzero dimension and no arrow rows, while its
    dimvec view lists all 3,000 vertices.  Resolving a simple over 3,000
    vertices with one arrow reads the top of each syzygy only where the
    syzygy is nonzero, one _top call per step."""
    alg = build_algebra(Quiver([str(i) for i in range(3000)], []), [])
    s = simple(alg, "2999")
    assert s.rows == ({"2999": 1}, ())
    assert len(s.dimvec) == 3000 and s.dimvec["2999"] == 1 == sum(s.dimvec.values())
    alg = build_algebra(Quiver([str(i) for i in range(3000)], [("a", "0", "1")]), [])
    calls, top = [], repmod._top
    monkeypatch.setattr(repmod, "_top", lambda m, w: calls.append((m.name, w)) or top(m, w))
    res = minimal_resolution(simple(alg, "0"), 3)
    assert (res.multiplicity_pattern(), res.length) == ([{"0": 1}, {"1": 1}], 1)
    assert calls == [("S0", "0"), ("syzygy1(S0)", "1")]
