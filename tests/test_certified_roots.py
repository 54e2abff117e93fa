"""Certified Perron roots: the Collatz-Wielandt enclosure, the integer
kernels behind it, and the stop rule that makes a certified value the double
nearest the exact root."""

import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fproot.exactlin import RatMatrix
from fproot.quiver import quiver_from_json, quiver_fpdim
from fproot.spectral import (_perron_enclosure, _sign_variations, _sturm_chain,
                             characteristic_polynomial, largest_real_root, rho,
                             squarefree_part)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
DATA = pathlib.Path(__file__).parent / "data"


def mp_perron_root(rows, mpmath):
    """max |eigenvalue| at the caller's mpmath precision."""
    a = mpmath.matrix([[mpmath.mpf(Fraction(x).numerator) / Fraction(x).denominator
                        for x in row] for row in rows])
    return max(abs(e) for e in mpmath.eig(a, left=False, right=False))


def root_problem(m):
    """(p, lo, hi) exactly as the certified path of rho poses it, or None
    for a nilpotent matrix."""
    p = characteristic_polynomial(m)
    while len(p) > 1 and not p[-1]:
        p.pop()
    if len(p) == 1:
        return None
    bound = max(sum(r) for r in m.data) + 1
    return squarefree_part(p), Fraction(-1) - bound, bound


# -- matrices of every support shape ------------------------------------------

ENTRIES = st.sampled_from([0, 0, 0, 1, 2, 7, Fraction(1, 3), Fraction(22, 7),
                           10**12, Fraction(1, 10**12)])


@st.composite
def nonnegative_matrices(draw):
    n = draw(st.integers(2, 6))
    rows = [[draw(ENTRIES) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["dense", "reducible", "cyclic", "zero_row"]))
    if shape == "reducible":
        # block upper triangular: no entry from the last k rows back to the first
        k = draw(st.integers(1, n - 1))
        for i in range(n - k, n):
            for j in range(n - k):
                rows[i][j] = 0
    elif shape == "cyclic":
        # a weighted n-cycle, period n
        rows = [[draw(ENTRIES.filter(bool)) if j == (i + 1) % n else 0
                 for j in range(n)] for i in range(n)]
    elif shape == "zero_row":
        rows[draw(st.integers(0, n - 1))] = [0] * n
    return RatMatrix([[Fraction(x) for x in row] for row in rows], cols=n)


@settings(max_examples=150, deadline=None)
@given(nonnegative_matrices())
def test_enclosure_leaves_the_root_unchanged(m):
    problem = root_problem(m)
    if problem is None:
        return
    p, lo, hi = problem
    enclosure = _perron_enclosure(m)
    assert enclosure is not None
    assert largest_real_root(p, lo, hi, enclosure) == largest_real_root(p, lo, hi)


@settings(max_examples=150, deadline=None)
@given(nonnegative_matrices())
def test_enclosure_holds_the_largest_real_root(m):
    problem = root_problem(m)
    if problem is None:
        return
    p, _, _ = problem
    lower, upper = _perron_enclosure(m)
    chain = _sturm_chain(p)
    # Sturm counts: a root in [lower, upper] and none above upper
    v_lower, at_lower = _sign_variations(chain, lower.numerator, lower.denominator)
    v_upper, _ = _sign_variations(chain, upper.numerator, upper.denominator)
    lead = [q[0] > 0 for q in chain]
    v_inf = sum(x != y for x, y in zip(lead, lead[1:]))
    assert v_upper == v_inf
    assert at_lower or v_lower > v_upper


def test_enclosure_contains_mpmath_root_up_to_n12():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(61)
    with mpmath.workdps(50):
        for n in range(2, 13):
            for _ in range(4):
                rows = [[Fraction(rng.randint(0, 9), rng.randint(1, 4))
                         if rng.random() < 0.7 else Fraction(0)
                         for _ in range(n)] for _ in range(n)]
                lower, upper = _perron_enclosure(RatMatrix(rows, cols=n))
                # the reference carries a rounding error far below 1e-40
                ref, slack = mp_perron_root(rows, mpmath), mpmath.mpf(10) ** -40
                assert mpmath.mpf(lower.numerator) / lower.denominator <= ref + slack
                assert ref - slack <= mpmath.mpf(upper.numerator) / upper.denominator


def test_overflowing_entry_has_no_enclosure():
    m = RatMatrix([[0, 10**400, 0], [0, 0, 1], [1, 0, 0]], cols=3)
    assert _perron_enclosure(m) is None
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        expected = float(mpmath.cbrt(mpmath.mpf(10) ** 400))
    r = rho(m)
    assert r.certified and r.value == expected


# -- integer Faddeev-LeVerrier -------------------------------------------------

def faddeev_leverrier_fractions(rows):
    """Reference: the same recurrence over Fractions, no integer scaling."""
    n = len(rows)
    coeffs, M = [Fraction(1)], [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        AM = [[sum(rows[i][t] * M[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        c = -sum(AM[i][i] for i in range(n)) / k
        coeffs.append(c)
        M = [[AM[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12),
             min_size=n, max_size=n), min_size=n, max_size=n)))
def test_integer_faddeev_leverrier_matches_fractions(rows):
    n = len(rows)
    assert characteristic_polynomial(RatMatrix(rows, cols=n)) == \
        faddeev_leverrier_fractions(rows)


# -- the integer remainder sequence ----------------------------------------------

def fraction_remainder(a, b):
    """Reference: a mod b over Fractions, without leading zeros."""
    a = list(a)
    while len(a) >= len(b):
        f = a[0] / b[0]
        a = [x - f * y for x, y in zip(a[1:], b[1:] + [0] * len(a))]
    while a and not a[0]:
        a.pop(0)
    return a


def classical_sturm_chain(p):
    """Reference: q = p / gcd(p, p') by Euclid over Fractions, the gcd made
    monic, then q, q' and the negated remainders."""
    def deriv(f):
        return [c * (len(f) - 1 - i) for i, c in enumerate(f[:-1])]
    a, b = list(p), deriv(p)
    while b:
        a, b = b, fraction_remainder(a, b)
    q, g = list(p), [c / a[0] for c in a]
    quotient = []
    while len(q) >= len(g):
        f = q[0] / g[0]
        quotient.append(f)
        q = [x - f * y for x, y in zip(q[1:], g[1:] + [0] * len(q))]
    chain = [quotient, deriv(quotient)]
    while len(chain[-1]) > 1:
        r = fraction_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


ROOTS = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(ROOTS, st.integers(1, 3)), min_size=1, max_size=4),
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                min_size=0, max_size=2), st.fractions(min_value=Fraction(1, 7), max_value=9))
def test_integer_sturm_chain_is_a_positive_multiple_of_the_classical(factors, quad, scale):
    """p = scale * prod (x - r)^k * (x^2 + c), with repeated roots and
    irreducible quadratics; every member of the integer chain is a primitive
    positive multiple of the Fraction chain of p's squarefree part."""
    p = [Fraction(scale)]
    for r, k in factors:
        for _ in range(k):
            p = [x - r * y for x, y in zip(p + [0], [0] + p)]
    for c in quad:
        p = [x + c * y for x, y in zip(p + [0, 0], [0, 0] + p)]
    chain, ref = _sturm_chain(p), classical_sturm_chain(p)
    assert len(chain) == len(ref)
    for member, classical in zip(chain, ref):
        assert len(member) == len(classical)
        assert all(type(c) is int for c in member) and math.gcd(*member) == 1
        ratio = Fraction(member[0]) / classical[0]
        assert ratio > 0 and member == [ratio * c for c in classical]
    assert squarefree_part(p) == chain[0]


def test_a_squarefree_polynomial_needs_no_division(monkeypatch):
    from fproot import spectral

    def fails(a, b):
        raise AssertionError("divided a squarefree polynomial")

    monkeypatch.setattr(spectral, "_poly_divmod", fails)
    # the Tribonacci polynomial x^3 - x^2 - x - 1
    assert len(_sturm_chain([1, -1, -1, -1])) == 4


@pytest.mark.parametrize("p", [[2, -1], [4, -4, 1], [Fraction(4), Fraction(-4), Fraction(1)]])
def test_a_root_of_degree_one_stays_exact(p):
    # 2x - 1, and (2x - 1)^2 whose squarefree part has degree one
    root = largest_real_root(p, Fraction(-5), Fraction(5))
    assert type(root) is Fraction and root == Fraction(1, 2)


# -- certified means the nearest double ----------------------------------------

def test_every_certified_rho_is_the_nearest_double():
    """The matrices of the mpmath oracle in test_spectral.py, checked for
    equality with the double nearest the 50-digit root."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261018)
    with mpmath.workdps(50):
        for k in range(100):
            n = 2 + k % 5
            rows = [[Fraction(rng.randint(1, 9), rng.randint(1, 4))
                     for _ in range(n)] for _ in range(n)]
            r = rho(rows)
            assert r.certified and r.value == float(mp_perron_root(rows, mpmath)), rows


def test_root_far_below_the_row_sums_is_the_nearest_double():
    # a 4-cycle with rho**4 = 10**9 * 10**-21: rho = 1/1000 exactly, while
    # the largest row sum is 10**9
    r = rho([[0, 10**9, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
             [Fraction(1, 10**21), 0, 0, 0]])
    assert r.certified and r.value == 0.001


def test_tribonacci_quiver_fpdim_is_the_nearest_double():
    mpmath = pytest.importorskip("mpmath")
    q = quiver_from_json(
        '{"vertices": ["1", "2", "3"], "arrows": ['
        '{"label": "a", "from": "1", "to": "1"}, {"label": "b", "from": "1", "to": "2"},'
        '{"label": "c", "from": "1", "to": "3"}, {"label": "d", "from": "2", "to": "1"},'
        '{"label": "e", "from": "3", "to": "2"}]}')
    with mpmath.workdps(50):
        # the real root of x^3 - x^2 - x - 1
        expected = float(mpmath.findroot(lambda x: x**3 - x**2 - x - 1, 1.8))
    r = quiver_fpdim(q)
    assert r.certified and r.value == expected == 1.8392867552141612


# -- numpy stays out of the exact paths ------------------------------------------

def test_resolve_does_not_import_numpy():
    code = (
        "import contextlib, io, sys\n"
        "import fproot.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = cli.run(['resolve', {str(DATA / 'sqrt2_algebra.json')!r},"
        " '--simple', '1', '--depth', '3'])\n"
        "assert rc == 0, rc\n"
        "print('numpy' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
