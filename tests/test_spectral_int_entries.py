"""Spectral radii on int entries against the same matrices with Fractions.

The parser keeps an integral entry as an int and makes a Fraction only for
a fractional one; the SCC fold, the grid and `quiver_fpdim` pass int rows
through `RatMatrix`, which keeps them.  Every radius must be the one the
Fraction copy gives, down to the certified flag and the tolerance.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fproot.exactlin import RatMatrix
from fproot.spectral import (ExtendedMatrix, SpectralError, SpectralValue,
                             _components, matrix_from_json, rho, rho_extended,
                             rho_nonnegative_via_scc, spectral_radius)

ENTRIES = st.sampled_from([0, 0, 0, 0, 1, 1, 2, 3, 7, 10**12])


@st.composite
def int_matrices(draw, with_inf=False):
    """Nonnegative int rows, n = 1..12, dense or block lower triangular (so
    that small strongly connected blocks occur at every size); with_inf puts
    "inf" at some entries."""
    n = draw(st.integers(1, 12))
    cut = draw(st.integers(0, n))  # 0: dense; else no entry from [0, cut) to [cut, n)
    rows = [[0 if i < cut <= j else draw(ENTRIES) for j in range(n)] for i in range(n)]
    if with_inf:
        for _ in range(draw(st.integers(0, 2))):
            rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = "inf"
    return rows


@settings(max_examples=80, deadline=None)
@given(int_matrices())
def test_int_and_fraction_rows_give_the_same_radius(rows):
    n = len(rows)
    as_ints = rho_nonnegative_via_scc(RatMatrix(rows, n))
    as_fractions = rho_nonnegative_via_scc(RatMatrix([[Fraction(x) for x in r] for r in rows]))
    assert isinstance(as_ints, SpectralValue)
    assert as_ints == as_fractions
    r = rho(rows)
    assert r == rho(RatMatrix(rows, n))
    assert r.certified == as_ints.certified
    # rho splits above size 6 as the fold does; a strongly connected matrix
    # goes to numpy whole, in its own vertex order and not the fold's, and
    # the two uncertified values may differ beyond the declared tolerance
    if r.certified or len(_components(rows)[1]) > 1:
        assert r == as_ints


def _as_strings(rows, times):
    """Each finite entry x written as the string "(times * x)/times"."""
    return [[x if x == "inf" else f"{times * x}/{times}" for x in row] for row in rows]


@settings(max_examples=80, deadline=None)
@given(int_matrices(with_inf=True))
def test_parsed_ints_and_pq_strings_give_the_same_radius(rows):
    whole = rho_extended(matrix_from_json(json.dumps(rows)))
    for times in (1, 2):
        assert rho_extended(matrix_from_json(json.dumps(_as_strings(rows, times)))) == whole
    # halved, every nonzero finite entry is a Fraction or an int, mixed; a
    # certified radius halves exactly (the double nearest r/2 is half the
    # double nearest r)
    half = rho_extended(matrix_from_json(json.dumps(
        [[x if x == "inf" else f"{x}/2" for x in row] for row in rows])))
    assert half.certified == whole.certified
    assert 2 * half.value == (whole.value if whole.certified
                              else pytest.approx(whole.value, rel=1e-9))


@settings(max_examples=80, deadline=None)
@given(int_matrices(with_inf=True))
def test_no_integral_fraction_survives_the_parser(rows):
    for text in (json.dumps(rows), json.dumps(_as_strings(rows, 2))):
        for row in matrix_from_json(text).entries:
            for x in row:
                assert type(x) is int or x == math.inf, x


@pytest.mark.parametrize("entry, expected", [
    (1, 1), (2.0, 2), ("3", 3), ("4/2", 2), (Fraction(4, 2), 2), (10**30, 10**30),
    ("1/2", Fraction(1, 2)), (0.5, Fraction(1, 2)), (" 3/4 ", Fraction(3, 4)),
    ("inf", math.inf), ("-inf", -math.inf)])
def test_entry_types(entry, expected):
    x = ExtendedMatrix([[entry]]).entries[0][0]
    assert type(x) is type(expected) and x == expected


@pytest.mark.parametrize("negative", [-2, -2.0, "-4/2", "-1/2"])
def test_negative_finite_entry_goes_numeric(negative):
    # an int entry is checked for its sign as a Fraction one is
    r = rho_extended(ExtendedMatrix([[1, negative], [3, 4]]))
    assert not r.certified
    assert r == spectral_radius([[1, Fraction(negative)], [3, 4]])


@pytest.mark.parametrize("entry", [True, False])
def test_bool_entry_is_a_named_error(entry):
    with pytest.raises(SpectralError, match=f"row 0, column 1: {entry}"):
        ExtendedMatrix([[1, entry], [0, 1]])


def test_rho_certifies_the_7x7_nilpotent_shift():
    shift = [[int(j == i + 1) for j in range(7)] for i in range(7)]
    assert rho(shift) == SpectralValue(0.0, True, 0.0)
    assert rho(shift) == rho_nonnegative_via_scc(RatMatrix(shift))


def test_rho_splits_an_8x8_block_diagonal_matrix():
    block = [[0, 2, 0, 1], [1, 0, 3, 0], [0, 1, 0, 2], [4, 0, 1, 0]]
    rows = [[0] * 8 for _ in range(8)]
    for i in range(4):
        for j in range(4):
            rows[i][j] = block[i][j]
            rows[4 + i][4 + j] = block[j][i] + 1
    r = rho(rows)
    assert r.certified and r.tolerance == 0.0
    assert r == rho_nonnegative_via_scc(RatMatrix(rows))
    assert r == max(rho(block), rho([[x + 1 for x in col] for col in zip(*block)]),
                    key=lambda v: v.value)


def test_rho_keeps_a_strongly_connected_7x7_matrix_whole():
    cycle = [[int(j == (i + 1) % 7) * 2 for j in range(7)] for i in range(7)]
    r = rho(cycle)
    assert not r.certified and abs(r.value - 2) <= 1e-9
