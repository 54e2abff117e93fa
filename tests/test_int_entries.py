"""Modules whose arrow matrices hold ints, as the brick scan samples them,
against the same modules with Fraction entries.

`RatMatrix` keeps int and Fraction entries as given, and the exact routines
take them as they are; every answer must be the one the Fraction copy gives.
"""

import pathlib
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fproot.algebra import (algebra_from_json, dual_numbers_algebra,
                            kronecker_algebra, local_two_loop_algebra,
                            sqrt2_algebra)
from fproot.exactlin import RatMatrix, primitive_row
from fproot.repmod import (Representation, RepresentationError, hom, hom_dim,
                           is_brick, is_isomorphic_brick, module_to_json)

DATA = pathlib.Path(__file__).parent / "data"

ALGEBRAS = {
    "sqrt2": sqrt2_algebra(),
    "kronecker": kronecker_algebra(),
    "dual": dual_numbers_algebra(),
    "two_loop": local_two_loop_algebra(2, 2),
    "square": algebra_from_json(
        (DATA / "commutative_square_algebra.json").read_text()),
}

small_ints = st.integers(min_value=-2, max_value=2)


@st.composite
def int_maps(draw, alg, dimvec):
    """Integer rows for every arrow, each map zero about half the time (the
    relations seldom hold otherwise); on the commutative square both paths
    may get the same rows, so that its relation holds with nonzero terms."""
    maps = {}
    for a in alg.quiver.arrows:
        r, c = dimvec[a.target], dimvec[a.source]
        if draw(st.booleans()):
            maps[a.label] = [[0] * c for _ in range(r)]
        else:
            maps[a.label] = draw(st.lists(st.lists(small_ints, min_size=c, max_size=c),
                                          min_size=r, max_size=r))
    if "b1" in maps and dimvec["2"] == dimvec["3"] and draw(st.booleans()):
        maps["b1"], maps["b2"] = maps["a1"], maps["a2"]
    return maps


def _copies(alg, dimvec, rows, name):
    """(int copy, Fraction copy) of one module, or (None, None) when the
    relations reject it; both copies must agree on that."""
    got = []
    fractions = {label: [[Fraction(x) for x in row] for row in r] for label, r in rows.items()}
    for entries in (rows, fractions):
        maps = {a.label: RatMatrix(entries[a.label], dimvec[a.source])
                for a in alg.quiver.arrows}
        try:
            got.append(Representation(alg, dimvec, maps, name=name))
        except RepresentationError:
            got.append(None)
    assert (got[0] is None) == (got[1] is None)
    if got[0] is not None:
        assert all(type(x) is int for m in got[0].maps.values()
                   for row in m.data for x in row)
        assert all(type(x) is Fraction for m in got[1].maps.values()
                   for row in m.data for x in row)
    return got


@st.composite
def module_pairs(draw):
    """Two int/Fraction module pairs over one algebra at one dimension vector."""
    alg = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    dimvec = {v: draw(st.integers(min_value=0, max_value=2))
              for v in alg.quiver.vertices}
    return (_copies(alg, dimvec, draw(int_maps(alg, dimvec)), "M"),
            _copies(alg, dimvec, draw(int_maps(alg, dimvec)), "N"))


@settings(max_examples=200, deadline=None)
@given(module_pairs())
def test_int_and_fraction_entries_agree(pair):
    (mi, mf), (ni, nf) = pair
    for i, f in ((mi, mf), (ni, nf)):
        if i is None:
            continue
        assert module_to_json(i) == module_to_json(f)
        assert hom_dim(i, i) == hom_dim(f, f) == hom(i, i).dim == hom(f, f).dim
        if not i.is_zero():
            assert is_brick(i) == is_brick(f)
            if is_brick(i):
                assert is_isomorphic_brick(i, f) and is_isomorphic_brick(f, i)
    if mi is not None and ni is not None:
        assert hom_dim(mi, ni) == hom_dim(mf, nf) == hom(mi, ni).dim
        assert hom(mi, ni).basis == hom(mf, nf).basis
        if not mi.is_zero() and is_brick(mi) and is_brick(ni):
            assert is_isomorphic_brick(mi, ni) == is_isomorphic_brick(mf, nf) \
                == is_isomorphic_brick(mi, nf)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6), max_size=6))
def test_primitive_row_same_on_ints_and_fractions(row):
    got = primitive_row(row)
    assert got == primitive_row([Fraction(x) for x in row])
    assert got is None or (type(got) is list and got is not row)


def test_primitive_row_on_zero_and_negative_rows():
    assert primitive_row([0, 0, 0]) is None
    assert primitive_row([Fraction(0)] * 3) is None
    assert primitive_row((-2, 4, 0, -6)) == [-1, 2, 0, -3]
    assert primitive_row([Fraction(-2), Fraction(4), 0]) == [-1, 2, 0]
    assert primitive_row((-1, 2)) == [-1, 2]
