import itertools
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fproot.exactlin import (RatMatrix, nullspace_basis, quotient, rank, rat, rat_str,
                             rref, solve)


# -- oracles ----------------------------------------------------------------

def det_oracle(m):
    """Cofactor-expansion determinant; exact, independent of rref."""
    n = m.rows
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m.data[0][0]
    total = Fraction(0)
    for j in range(n):
        if not m.data[0][j]:
            continue
        minor = RatMatrix([[m.data[i][k] for k in range(n) if k != j]
                           for i in range(1, n)], cols=n - 1)
        sign = -1 if j % 2 else 1
        total += sign * m.data[0][j] * det_oracle(minor)
    return total


def minor_rank_oracle(m):
    """Rank as the largest size of a nonzero square minor."""
    best = 0
    for k in range(1, min(m.rows, m.cols) + 1):
        found = False
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                sub = RatMatrix([[m.data[i][j] for j in cols] for i in rows],
                                cols=k)
                if det_oracle(sub) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = k
    return best


def random_matrix(rng, rows, cols, span=5):
    return RatMatrix([[Fraction(rng.randint(-span, span))
                       for _ in range(cols)] for _ in range(rows)], cols=cols)


# -- examples ---------------------------------------------------------------

def test_rref_identity():
    eye = RatMatrix.identity(2)
    r, pivots = rref(eye)
    assert r == eye
    assert pivots == (0, 1)


def test_rref_rank_one():
    r, pivots = rref(RatMatrix([[1, 2], [2, 4]]))
    assert r == RatMatrix([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rank_matches_minor_oracle_on_random_5x5():
    rng = random.Random(7)
    for _ in range(10):
        m = random_matrix(rng, 5, 5, span=3)
        assert rank(m) == minor_rank_oracle(m)


def test_nullspace_identity_empty():
    assert nullspace_basis(RatMatrix.identity(3)) == []


def test_nullspace_zero_matrix_full():
    basis = nullspace_basis(RatMatrix.zeros(3, 3))
    assert len(basis) == 3


def test_nullspace_one_constraint():
    (v,) = nullspace_basis(RatMatrix([[1, 1]]))
    assert v.data[0][0] == -v.data[1][0] != 0


def test_solve_identity():
    b = RatMatrix.column([3, Fraction(1, 2)])
    assert solve(RatMatrix.identity(2), b) == b


def test_solve_inconsistent():
    assert solve(RatMatrix([[0]]), RatMatrix.column([1])) is None


def test_solve_random_consistent_verified_by_substitution():
    rng = random.Random(11)
    for _ in range(20):
        m = random_matrix(rng, 4, 6)
        x0 = random_matrix(rng, 6, 1)
        b = m @ x0
        x = solve(m, b)
        assert x is not None
        assert (m @ x) == b


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(RatMatrix.identity(2), RatMatrix.column([1, 2, 3]))


def test_rat_str_roundtrip():
    assert rat_str(Fraction(3, 4)) == "3/4"
    assert rat_str(Fraction(5)) == "5"
    assert rat("3/4") == Fraction(3, 4)


def _fraction_rat(x):
    """rat of a string before its digit-string path: through Fraction alone."""
    x = Fraction(x)
    return quotient(x.numerator, x.denominator)


def _outcome(f, x):
    try:
        value = f(x)
    except Exception as e:
        return type(e), str(e)
    return type(value), value


@pytest.mark.parametrize("text", ["0", "007", "4/2", "+1", "-1", " 1", "1_0", "",
                                  "\u0661\u0662", "\u00b2", "9" * 5000],
                         ids=lambda t: repr(t)[:12])
def test_rat_reads_a_digit_string_as_fraction_did(text):
    """An ASCII digit string is read by int(); the value, its type, and the
    class and message of a refusal (the int-to-string limit included) are
    those of the Fraction reading."""
    assert _outcome(rat, text) == _outcome(_fraction_rat, text)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int-to-string limit")
def test_an_over_long_coefficient_is_reported_as_before(monkeypatch):
    """The malformed-relation message for a 5,000-digit coefficient is the
    one the Fraction reading gives, byte for byte."""
    from fproot import algebra
    doc = json.dumps({"vertices": ["1"], "arrows": [{"label": "x", "from": "1", "to": "1"}],
                      "relations": [[{"coeff": "9" * 5000, "path": ["x", "x"]}]]})

    def message():
        try:
            algebra.algebra_from_json(doc)
        except algebra.AlgebraError as e:
            return str(e)
    got = message()
    monkeypatch.setattr(algebra, "rat", _fraction_rat)
    assert got == message() and got.startswith("malformed relation")


# -- invariants -------------------------------------------------------------

small_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def matrices(draw, max_dim=5):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    data = draw(st.lists(st.lists(small_entries, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return RatMatrix(data, cols=c)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + len(nullspace_basis(m)) == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_idempotent(m):
    r1, p1 = rref(m)
    r2, p2 = rref(r1)
    assert r1 == r2 and p1 == p2


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_nullspace_vectors_are_exact_kernel_elements(m):
    for v in nullspace_basis(m):
        assert (m @ v).is_zero()
