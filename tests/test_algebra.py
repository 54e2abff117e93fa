import itertools
import pathlib
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fproot.algebra import (AlgebraError, BoundAlgebra, LengthCapExceeded,
                            NonAdmissibleRelation, Path, algebra_from_json,
                            algebra_to_json, build_algebra,
                            dual_numbers_algebra, kronecker_algebra,
                            local_two_loop_algebra, opposite, path_algebra,
                            sqrt2_algebra)
from fproot.quiver import Quiver, path_quiver

from fraction_build import fraction_build
from gauss_jordan import gauss_jordan

DATA = pathlib.Path(__file__).parent / "data"


# -- word-enumeration oracle for monomial quotients ---------------------------

def monomial_quotient_dim_oracle(n_loops, forbidden, max_len):
    """Dimension of k<x_0..x_{n-1}>/(monomials): count words (written left to
    right, leftmost applied last) avoiding every forbidden factor."""
    alphabet = list(range(n_loops))
    count = 0
    for length in range(max_len + 1):
        for word in itertools.product(alphabet, repeat=length):
            if any(word[i:i + len(f)] == f for f in forbidden
                   for i in range(len(word) - len(f) + 1)):
                continue
            count += 1
    return count


def test_two_loop_algebra_dimension_matches_word_oracle():
    for m, n in [(2, 2), (2, 3), (3, 3), (4, 2)]:
        a = local_two_loop_algebra(m, n)
        # words in x (=0), y (=1); forbidden: x^m, y^n, xy
        oracle = monomial_quotient_dim_oracle(
            2, [tuple([0] * m), tuple([1] * n), (0, 1)], m + n + 2)
        assert a.dim == oracle == m * n


def test_two_loop_opposite_is_swapped():
    a = local_two_loop_algebra(2, 3)
    b = local_two_loop_algebra(3, 2)
    assert opposite(a).dim == b.dim == a.dim
    # the opposite of (x^2, y^3, xy) is (x^2, y^3, yx); swapping the loop
    # names identifies it with the (3,2) algebra
    op = opposite(a)
    op_words = sorted(tuple(p.arrows) for p in op.basis)
    swapped = sorted(tuple("y" if l == "x" else "x" for l in p.arrows)
                     for p in b.basis)
    assert op_words == swapped


def test_sqrt2_algebra_basis():
    a = sqrt2_algebra()
    assert a.dim == 5
    lengths = sorted(len(p) for p in a.basis)
    assert lengths == [0, 0, 1, 1, 1]


def test_path_algebra_linear_quiver():
    a = path_algebra(path_quiver(2))
    assert a.dim == 3
    assert path_algebra(path_quiver(4)).dim == 4 + 3 + 2 + 1


def test_dual_numbers():
    a = dual_numbers_algebra()
    assert a.dim == 2


def test_kronecker_algebra_dim():
    assert kronecker_algebra().dim == 4


def test_left_multiply_reduces():
    a = dual_numbers_algebra()
    x = a.basis_with_source("1")[1]
    assert len(x) == 1
    assert a.left_multiply("x", x) == {}  # x * x = 0


def test_left_multiply_refuses_what_has_no_normal_form():
    # a, b: 1 -> 2, c: 2 -> 3, d: 3 -> 4 with c*a = c*b, whose basis keeps c*b
    alg = BoundAlgebra(Quiver(["1", "2", "3", "4"], [
        ("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3"), ("d", "3", "4")]),
        [[(1, ("c", "a")), (-1, ("c", "b"))]])
    ca, cb = Path(("c", "a"), "1", "3"), Path(("c", "b"), "1", "3")
    assert ca not in alg.basis and cb in alg.basis
    assert alg.left_multiply("d", cb) == {Path(("d", "c", "b"), "1", "4"): 1}
    with pytest.raises(AlgebraError):  # d * (c*a) = d*c*b, not zero
        alg.left_multiply("d", ca)
    with pytest.raises(AlgebraError):  # a does not compose with c*b
        alg.left_multiply("a", cb)


def test_nonadmissible_relations_rejected():
    q = Quiver(["1"], [("x", "1", "1")])
    with pytest.raises(NonAdmissibleRelation):
        BoundAlgebra(q, [[(1, ("x",))]])  # length-1 path
    q2 = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    with pytest.raises(NonAdmissibleRelation):
        # (b a): 1 -> 1 and (a b): 2 -> 2 are not parallel
        BoundAlgebra(q2, [[(1, ("b", "a")), (1, ("a", "b"))]])
    with pytest.raises(NonAdmissibleRelation):
        # mixed lengths in one relation
        BoundAlgebra(q, [[(1, ("x", "x")), (1, ("x", "x", "x"))]])


def test_noncomposable_relation_path_rejected():
    q = Quiver(["1", "2"], [("a", "1", "2")])
    with pytest.raises(AlgebraError):
        BoundAlgebra(q, [[(1, ("a", "a"))]])


def test_infinite_dimensional_detected():
    q = Quiver(["1"], [("x", "1", "1")])
    with pytest.raises(LengthCapExceeded):
        BoundAlgebra(q, [], length_cap=12)


def test_scaled_relation_same_quotient():
    q = Quiver(["1"], [("x", "1", "1")])
    a = BoundAlgebra(q, [[(Fraction(3, 7), ("x", "x", "x"))]])
    assert a.dim == 3


def test_commutation_style_relation():
    # two loops with yx = xy: the quotient of the free algebra truncated
    q = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
    a = BoundAlgebra(q, [
        [(1, ("x", "y")), (-1, ("y", "x"))],
        [(1, ("x", "x"))],
        [(1, ("y", "y"))],
    ])
    # commutative: basis 1, x, y, xy
    assert a.dim == 4


def test_algebra_json_roundtrip():
    a = sqrt2_algebra()
    b = algebra_from_json(algebra_to_json(a))
    assert b.dim == a.dim
    assert [p.arrows for p in b.basis] == [p.arrows for p in a.basis]
    with pytest.raises(AlgebraError):
        algebra_from_json("nope")
    with pytest.raises(AlgebraError):
        algebra_from_json('{"arrows": []}')  # vertices block missing
    # a vertex-only file is a legal semisimple algebra
    assert algebra_from_json('{"vertices": ["1", "2"]}').dim == 2


# -- oracle: the definition of the ideal ---------------------------------------

def _paths(q, length):
    """Every path of the given length, as a label tuple with the first label
    applied last (the relation format)."""
    walks = [((a.label,), a.target) for a in q.arrows]
    for _ in range(length - 1):
        walks = [(w + (a.label,), end) for w, end in walks
                 for a in q.arrows if a.target == q.arrow(w[-1]).source]
    return [w for w, _ in walks]


def _ideal_rows(alg, paths):
    """I_L in path coordinates: u r v for every relation r and all paths u, v
    with u p v a path of length L, p a term of r.  paths indexes the paths of
    length L."""
    rows = set()
    for w in paths:
        for rel in alg.relations:
            terms = [(c, p.arrows) for c, p in rel]
            ell = len(terms[0][1])
            for i in range(len(w) - ell + 1):
                if w[i:i + ell] in {p for _, p in terms}:
                    row = [Fraction(0)] * len(paths)
                    for c, p in terms:
                        row[paths[w[:i] + p + w[i + ell:]]] += c
                    rows.add(tuple(row))
    return list(rows)


def _independent(rows, ncols):
    reduced, pivots = gauss_jordan(rows, ncols)
    return reduced[:len(pivots)]


def assert_algebra_matches_its_ideal(alg):
    """At each length L the basis has (paths of length L) - rank I_L paths,
    and a p - nf(a, p) lies in I_{L+1} for every arrow a and basis path p:
    adding it to I_{L+1} does not raise the rank."""
    q = alg.quiver
    assert sum(len(p) == 0 for p in alg.basis) == len(q.vertices)
    top = max(len(p) for p in alg.basis)
    ideal = {}
    for length in range(1, top + 2):
        paths = {w: i for i, w in enumerate(_paths(q, length))}
        ideal[length] = paths, _independent(_ideal_rows(alg, paths), len(paths))
        basis = [p.arrows for p in alg.basis if len(p) == length]
        assert all(w in paths for w in basis)
        assert len(basis) == len(paths) - len(ideal[length][1]), (alg, length)
    for p in alg.basis:
        paths, span = ideal[len(p) + 1]
        for a in q.arrows:
            if a.source != p.target:
                continue
            nf = alg.left_multiply(a.label, p)
            assert set(nf) <= set(alg.basis)
            row = [Fraction(0)] * len(paths)
            row[paths[(a.label,) + p.arrows]] += 1
            for b, c in nf.items():
                row[paths[b.arrows]] -= c
            assert len(_independent(span + [row], len(paths))) == len(span), \
                (alg, a.label, p, nf)


def _loops(relations):
    return build_algebra(Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")]),
                         relations)


IDEAL_CASES = {
    "sqrt2": sqrt2_algebra,
    "two_loop_2_2": lambda: local_two_loop_algebra(2, 2),
    "two_loop_3_2": lambda: local_two_loop_algebra(3, 2),
    "dual_numbers": dual_numbers_algebra,
    "commutative_square": lambda: algebra_from_json(
        (DATA / "commutative_square_algebra.json").read_text()),
    "exterior": lambda: _loops([[(1, ("x", "x"))], [(1, ("y", "y"))],
                                [(1, ("x", "y")), (1, ("y", "x"))]]),
    "quantum_plane": lambda: _loops([[(1, ("x", "x"))], [(1, ("y", "y"))],
                                     [(1, ("x", "y")), (-2, ("y", "x"))]]),
    "commutative_x2_y3": lambda: _loops([[(1, ("x", "x"))], [(1, ("y", "y", "y"))],
                                         [(1, ("x", "y")), (-1, ("y", "x"))]]),
    "ap_equals_aq": lambda: build_algebra(
        Quiver(["1", "2", "3"], [("p", "1", "2"), ("q", "1", "2"), ("a", "2", "3")]),
        [[(1, ("a", "p")), (-1, ("a", "q"))]]),
}


@pytest.mark.parametrize("name", sorted(IDEAL_CASES))
def test_basis_and_normal_forms_match_the_ideal(name):
    assert_algebra_matches_its_ideal(IDEAL_CASES[name]())


@st.composite
def two_term_algebras(draw):
    """Up to three vertices and three arrows (loops allowed); one to five
    relations, each one path or a combination of two parallel paths of
    length 2 or 3 with nonzero coefficients in -3..3; on a quiver with a
    cycle, often every path of length 3 or 4 as well."""
    verts = [str(i) for i in range(draw(st.integers(1, 3)))]
    q = Quiver(verts, [(f"x{k}", draw(st.sampled_from(verts)), draw(st.sampled_from(verts)))
                       for k in range(draw(st.integers(1, 3)))])
    coeff = st.integers(-3, 3).filter(bool)
    rels = []
    for _ in range(draw(st.integers(1, 5))):
        groups = {}
        for w in _paths(q, draw(st.integers(2, 3))):
            groups.setdefault((q.arrow(w[-1]).source, q.arrow(w[0]).target), []).append(w)
        if not groups:
            continue
        group = draw(st.sampled_from(sorted(groups.values())))
        p1, p2 = draw(st.sampled_from(group)), draw(st.sampled_from(group))
        rels.append([(draw(coeff), p1)] + ([(draw(coeff), p2)] if p2 != p1 else []))
    truncation = draw(st.sampled_from([None, 3, 4]))
    if truncation:
        rels += [[(1, w)] for w in _paths(q, truncation)]
    try:
        return build_algebra(q, rels, length_cap=6, dim_cap=40)
    except AlgebraError:  # not finite dimensional within the caps
        return None


@settings(max_examples=100, deadline=None)
@given(two_term_algebras())
def test_random_two_term_algebras_match_their_ideal(alg):
    assume(alg is not None and max(len(p) for p in alg.basis) <= 4)
    assert_algebra_matches_its_ideal(alg)


# -- the integer build against the Fraction build -------------------------------
# BoundAlgebra builds its basis on the coprime integer coefficients of the
# relations; the Fraction construction of fraction_build must give the same
# basis and the same normal forms, value for value.

SQUARES = [[(1, ("x", "x"))], [(1, ("y", "y"))]]


def assert_build_matches_fractions(alg):
    basis, nf = fraction_build(alg.quiver, alg.relations)
    assert alg.basis == basis
    for p in alg.basis:
        for a in alg.quiver.arrows:
            if a.source == p.target:
                got = alg.left_multiply(a.label, p)
                assert got == nf[(a.label, p)], (alg, a.label, p)
                # an int where the coefficient is integral, else a Fraction
                assert all(type(c) is (int if c.denominator == 1 else Fraction)
                           for c in got.values()), got


@st.composite
def rational_algebras(draw):
    """Up to three vertices and three arrows (loops allowed); one to four
    homogeneous relations of length 2 or 3, each on two or three parallel
    paths where there are two (else on one) with coefficients p/q,
    1 <= |p| <= 3 and q in {1, 2, 3}; often every path of length 3 or 4 as
    well."""
    verts = [str(i) for i in range(draw(st.integers(1, 3)))]
    q = Quiver(verts, [(f"x{k}", draw(st.sampled_from(verts)), draw(st.sampled_from(verts)))
                       for k in range(draw(st.integers(1, 3)))])
    coeff = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.sampled_from([1, 2, 3]))
    rels = []
    for _ in range(draw(st.integers(1, 4))):
        groups = {}
        for w in _paths(q, draw(st.integers(2, 3))):
            groups.setdefault((q.arrow(w[-1]).source, q.arrow(w[0]).target), []).append(w)
        if not groups:  # no path of that length
            continue
        group = draw(st.sampled_from(sorted(groups.values())))
        terms = draw(st.lists(st.sampled_from(group), min_size=min(2, len(group)), max_size=3,
                              unique=True))
        rels.append([(draw(coeff), w) for w in terms])
    truncation = draw(st.sampled_from([None, 3, 4]))
    if truncation:
        rels += [[(1, w)] for w in _paths(q, truncation)]
    try:
        return build_algebra(q, rels, length_cap=6, dim_cap=40)
    except AlgebraError:  # not finite dimensional within the caps
        return None


@settings(max_examples=150, deadline=None)
@given(rational_algebras())
def test_random_rational_algebras_match_the_fraction_build(alg):
    assume(alg is not None)
    assert_build_matches_fractions(alg)


def test_a_non_integral_normal_form_stays_a_fraction():
    # x then y, minus half of y then x: y * x = (1/2) x * y
    alg = _loops(SQUARES + [[(1, ("y", "x")), (Fraction(-1, 2), ("x", "y"))]])
    x, y, xy = alg.basis[1:]
    assert alg.left_multiply("y", x) == {xy: Fraction(1, 2)}
    assert type(alg.left_multiply("y", x)[xy]) is Fraction
    assert_build_matches_fractions(alg)


def test_integral_normal_forms_are_ints():
    # the relation x*y - (1/2) y*x rescales to 2 x*y - y*x: y * x = 2 x*y
    alg = _loops(SQUARES + [[(1, ("x", "y")), (Fraction(-1, 2), ("y", "x"))]])
    assert alg.integer_relations[2][0][0] == 2
    coeffs = [c for p in alg.basis for a in "xy" for c in alg.left_multiply(a, p).values()]
    assert coeffs and all(type(c) is int for c in coeffs)
    assert 2 in coeffs
    assert_build_matches_fractions(alg)
