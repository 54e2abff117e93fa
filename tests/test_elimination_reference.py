"""The fraction-free elimination in `fproot.exactlin` against the textbook
Fraction Gauss-Jordan of `gauss_jordan.py`.

The reduced row echelon form is unique, so every reduced matrix, pivot list,
kernel vector and particular solution must agree value for value, on small
p/q entries, on numerators near 10^30 and denominators near 10^24, on zero
rows and columns, on empty and on wide or tall shapes, and on rows that mix
ints and Fractions.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fproot.exactlin import (RatMatrix, nullspace, pivot_columns, rank_of_rows,
                             rref, solve)
from gauss_jordan import gauss_jordan, kernel, particular_solution

entries = st.one_of(
    st.just(0),
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.sampled_from([10 ** 30, -10 ** 30, Fraction(1, 10 ** 24),
                     Fraction(-7, 10 ** 24), Fraction(10 ** 30, 3)]),
    st.builds(Fraction, st.integers(min_value=-10 ** 30, max_value=10 ** 30),
              st.integers(min_value=1, max_value=10 ** 24)))


@st.composite
def systems(draw):
    """(rows, ncols): 0..7 rows of 0..7 entries, with a zero row, a zero
    column or a repeated row (scaled) drawn in now and then."""
    r = draw(st.integers(min_value=0, max_value=7))
    c = draw(st.integers(min_value=0, max_value=7))
    rows = draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * c)
    if c and draw(st.booleans()):
        j = draw(st.integers(0, c - 1))
        rows = [row[:j] + [0] + row[j + 1:] for row in rows]
    if rows and draw(st.booleans()):
        k = draw(st.sampled_from([1, -2, Fraction(3, 5)]))
        rows.append([k * x for x in rows[draw(st.integers(0, len(rows) - 1))]])
    return rows, c


@settings(max_examples=150, deadline=None)
@given(systems())
def test_rref_matches_gauss_jordan(system):
    rows, c = system
    reduced, pivots = rref(RatMatrix(rows, cols=c))
    expected, expected_pivots = gauss_jordan(rows, c)
    assert reduced.to_lists() == expected
    assert pivots == tuple(expected_pivots)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_rank_and_pivots_match_gauss_jordan(system):
    rows, c = system
    expected_pivots = gauss_jordan(rows, c)[1]
    assert pivot_columns(rows) == tuple(expected_pivots)
    assert rank_of_rows(rows) == len(expected_pivots)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_nullspace_matches_gauss_jordan(system):
    rows, c = system
    assert nullspace(rows, c) == kernel(rows, c)


@settings(max_examples=150, deadline=None)
@given(systems(), st.data())
def test_solve_matches_gauss_jordan(system, data):
    rows, c = system
    if data.draw(st.booleans()):  # a consistent right-hand side
        x = data.draw(st.lists(entries, min_size=c, max_size=c))
        b = [sum((Fraction(a) * y for a, y in zip(row, x)), Fraction(0)) for row in rows]
    else:
        b = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    got = solve(RatMatrix(rows, cols=c), RatMatrix.column(b))
    expected = particular_solution(rows, b, c)
    assert (None if got is None else list(got.col(0))) == expected
