"""Certified Perron roots: the Newton enclosure that Sturm counts prove, the
integer kernels behind it, and the binary search over the doubles that makes
a certified value the double nearest the exact root."""

import json
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
from fproot import spectral
from fproot.spectral import (_newton_bracket, _sign_variations, _sturm_chain,
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


def kept_ends(p, hi, guess):
    """Which ends of the guess (L, U) the Sturm counts prove: (U bounds every
    root in (lo, hi] from above, a root lies in (L, hi])."""
    chain = _sturm_chain(p)
    v_hi = _sign_variations(chain, hi.numerator, hi.denominator)[0]
    (ln, ld), (un, ud) = guess
    return (_sign_variations(chain, un, ud)[0] == v_hi,
            _sign_variations(chain, ln, ld)[0] > v_hi)


@settings(max_examples=150, deadline=None)
@given(nonnegative_matrices())
def test_enclosure_leaves_the_root_unchanged(m):
    problem = root_problem(m)
    if problem is None:
        return
    p, lo, hi = problem
    root = largest_real_root(p, lo, hi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_newton_bracket", lambda q, lo, hi: None)
        assert largest_real_root(p, lo, hi) == root


def ratio(x):
    return Fraction(x).numerator, Fraction(x).denominator


# (matrix, a real root below the Perron root)
SMALLER_ROOTS = {
    "sym2_root1": ([[2, 1], [1, 2]], 1),
    "swap_root-1": ([[0, 1], [1, 0]], -1),
    "fibonacci_conjugate": ([[1, 1], [1, 0]], (1 - 5 ** 0.5) / 2),
    "path3_root1": ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], 1),
    "path3_root1-sqrt2": ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], 1 - 2 ** 0.5),
    "cycle4_negated": ([[0, 3, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
                       -(3 ** 0.25)),
}


@pytest.mark.parametrize("rows, smaller", SMALLER_ROOTS.values(), ids=SMALLER_ROOTS)
def test_a_wrong_guess_is_refused_and_leaves_the_root_unchanged(rows, smaller):
    """Guesses beside the Perron root (above it, below it), around a
    smaller root, below lo and above hi: Sturm counts refuse each as a
    bracket of the root, and the search still ends on the same root."""
    m = RatMatrix([[Fraction(x) for x in row] for row in rows], cols=len(rows))
    p, lo, hi = root_problem(m)
    root = largest_real_root(p, lo, hi)
    gap = root / 2**30
    guesses = [(root + gap, root + 2 * gap), (root - 2 * gap, root - gap),
               (math.nextafter(smaller, -math.inf), math.nextafter(smaller, math.inf)),
               (float(lo) - 2, float(lo) - 1), (float(hi) + 1, float(hi) + 2)]
    for lower, upper in guesses:
        guess = ratio(lower), ratio(upper)
        assert not all(kept_ends(p, hi, guess))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_newton_bracket", lambda q, lo, hi: guess)
            assert largest_real_root(p, lo, hi) == root


def test_enclosure_contains_mpmath_root_up_to_n12():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(61)
    kept = 0
    with mpmath.workdps(50):
        for n in range(2, 13):
            for _ in range(4):
                rows = [[Fraction(rng.randint(0, 9), rng.randint(1, 4))
                         if rng.random() < 0.7 else Fraction(0)
                         for _ in range(n)] for _ in range(n)]
                p = characteristic_polynomial(RatMatrix(rows, cols=n))
                bound = max(sum(r) for r in rows) + 1
                guess = _newton_bracket(squarefree_part(p), -1 - bound, bound)
                if guess is None or not all(kept_ends(p, bound, guess)):
                    continue
                kept += 1
                (ln, ld), (un, ud) = guess
                # the reference carries a rounding error far below 1e-40
                ref, slack = mp_perron_root(rows, mpmath), mpmath.mpf(10) ** -40
                assert mpmath.mpf(ln) / ld < ref + slack
                assert ref - slack <= mpmath.mpf(un) / ud
    # 40 of the 44 guesses keep both ends; the rest stop an ulp off
    assert kept >= 35


def test_overflowing_entry_has_no_enclosure():
    m = RatMatrix([[0, 10**400, 0], [0, 0, 1], [1, 0, 0]], cols=3)
    p, lo, hi = root_problem(m)
    assert _newton_bracket(p, lo, hi) is None
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        expected = float(mpmath.cbrt(mpmath.mpf(10) ** 400))
    r = rho(m)
    assert r.certified and r.value == expected


def test_newton_starts_at_a_root_bound_not_at_the_row_sums(monkeypatch):
    """x^6 - 10^60, the weighted 6-cycle of tests/data: from the row-sum
    bound 10^30 + 1 Newton would need about 250 steps to reach 10^10; from
    the root bound 2 * 10^10 it needs a few, and both ends are kept."""
    rows = json.loads((DATA / "spectral_cycle6_1e30.json").read_text())
    p, lo, hi = root_problem(RatMatrix(rows, cols=6))
    monkeypatch.setattr(spectral, "NEWTON_STEPS", 12)
    guess = _newton_bracket(p, lo, hi)
    assert guess is not None and all(kept_ends(p, hi, guess))
    assert rho(rows).value == 10.0 ** 10


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


def test_a_largest_root_at_zero_returns_at_once():
    # -x^2 (x^4 + (269/7) x^3 - ...) has its largest root in (-1/3, 11/3] at
    # 0, the double of rank 0, between the subnormals of ranks -1 and 1.  Run
    # in a subprocess, so that a search that does not stop fails the test
    # instead of hanging the suite
    code = ("from fractions import Fraction as F\n"
            "from fproot.spectral import largest_real_root\n"
            "root = largest_real_root([-1, F(-269, 7), F(4413, 7), F(165989, 7),"
            " F(627874, 7), 0, 0], F(-1, 3), F(11, 3))\n"
            "print(type(root).__name__, root)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "Fraction 0"


@pytest.mark.parametrize("lo, hi, expected", [
    (Fraction(-1), Fraction(1), Fraction(0)),     # 0 is the first midpoint
    (Fraction(-3), Fraction(-1, 2), Fraction(-1)),  # 0 lies outside
    (Fraction(0), Fraction(5), None),             # (0, 5] leaves 0 out
    (Fraction(-5), Fraction(0), Fraction(0)),     # 0 is the upper end
])
def test_a_root_at_zero_against_the_interval(lo, hi, expected):
    # x (x + 1) (x - 7)^2 on intervals below 7; a root away from 0 is given
    # as a fraction that rounds to it
    root = largest_real_root([1, -13, 35, 49, 0], lo, hi)
    assert root == expected if expected in (None, 0) else float(root) == expected


# -- each end of the search gives the nearest double ---------------------------
# N = 2**53 + 1 lies halfway between the doubles 2**53 and 2**53 + 2, so the
# search ends on those two and finds N on the tie between them

N = 2 ** 53 + 1


def test_a_midpoint_on_the_root_returns_it():
    # (x - 3)(x^2 - 2): 3 is a double, and the search on (0, 8] returns it
    root = largest_real_root([1, -3, -2, 6], Fraction(0), Fraction(8))
    assert root == 3 and float(root) == float(Fraction(3))


@pytest.mark.parametrize("p, lo, hi", [
    ([1, -(N + 1), N], Fraction(-5), Fraction(2 ** 60)),         # (x - N)(x - 1)
    ([1, -(N + 1), N], Fraction(0), Fraction(10 ** 17)),
    ([1, -(N + 1), N], Fraction(1), Fraction(N + 1)),
    ([1, -N, 1, -N], Fraction(1), Fraction(2 ** 55)),            # (x - N)(x^2 + 1)
    ([1, -N, 1, -N], Fraction(-3), Fraction(3 * 2 ** 53)),
    ([1, -N, 1, -N], Fraction(1, 3), Fraction(10 ** 17)),
])
def test_a_root_on_the_tie_between_two_doubles_is_found_there(p, lo, hi):
    # the bracket closes on the two doubles either side of N, and one Sturm
    # count at their midpoint finds the root on it
    root = largest_real_root(p, lo, hi)
    assert root == N and float(root) == float(Fraction(N))


def test_a_bracket_straddling_a_tie_picks_the_side_of_the_root():
    # x^3 - 26x^2 - 8x - 3: the root lies close to the tie between two
    # adjacent doubles, and the count at their midpoint picks the side
    mpmath = pytest.importorskip("mpmath")
    p, lo, hi = [1, -26, -8, -3], Fraction(-423125, 4), Fraction(61562628514616543, 9)
    root = largest_real_root(p, lo, hi)
    with mpmath.workdps(60):
        exact = max(r.real for r in mpmath.polyroots(p, maxsteps=200, extraprec=200)
                    if abs(r.imag) < mpmath.mpf(10) ** -50)
        man, exp = exact.man_exp
    exact = Fraction(int(man)) * Fraction(2) ** int(exp)  # the 60-digit root
    assert lo < exact <= hi and float(root) == float(exact)


# -- the search: a bounded number of Sturm counts -------------------------------

# roots 10^20 and 10^20 +- sqrt 13, closer than one ulp: float Newton stops
# far below the Perron root
CLUSTER = RatMatrix([[10**20, 1, 0], [3, 10**20, 2], [0, 5, 10**20]], cols=3)
TINY = Fraction(1, 10 ** 300)
SEARCHES = {
    # (x - 10^-300)(x + 5)(x + 7)
    "root_1e-300": ([1, 12 - TINY, 35 - 12 * TINY, -35 * TINY],
                    Fraction(-10), Fraction(10), 1e-300),
    # (x - 2^-1074)(x^2 + 1): the least positive double
    "root_2^-1074": ([1, -Fraction(1, 2 ** 1074), 1, -Fraction(1, 2 ** 1074)],
                     Fraction(-10), Fraction(10), 5e-324),
    "cluster": (*root_problem(CLUSTER), 1e20),
}


@pytest.mark.parametrize("newton", [True, False], ids=["newton", "no_newton"])
@pytest.mark.parametrize("p, lo, hi, expected", SEARCHES.values(), ids=SEARCHES)
def test_the_search_makes_at_most_69_sturm_counts(monkeypatch, p, lo, hi, expected, newton):
    # V(hi) and V(lo), two guess ends, 64 midpoints and one tie count
    calls = []
    monkeypatch.setattr(spectral, "_sign_variations",
                        lambda *args: calls.append(args) or _sign_variations(*args))
    if not newton:
        monkeypatch.setattr(spectral, "_newton_bracket", lambda q, lo, hi: None)
    root = largest_real_root(p, lo, hi)
    assert float(root) == expected
    assert len(calls) <= 69


@settings(max_examples=150, deadline=None)
@given(nonnegative_matrices())
def test_the_root_is_a_double_or_the_tie_between_two(m):
    # a squarefree part of degree one gives its root exactly instead
    problem = root_problem(m)
    if problem is None or len(problem[0]) == 2:
        return
    root = largest_real_root(*problem)
    x = float(root)
    if Fraction(x) != root:
        side = math.nextafter(x, math.inf if root > x else -math.inf)
        assert root == (Fraction(x) + Fraction(side)) / 2


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

@pytest.mark.parametrize("argv", [
    ["resolve", str(DATA / "sqrt2_algebra.json"), "--simple", "1", "--depth", "3"],
    # 6x6 and strongly connected: the certified path, Newton included
    ["spectral", str(DATA / "spectral_cycle6_1e30.json")],
], ids=lambda argv: argv[0])
def test_certified_paths_do_not_import_numpy(argv):
    code = (
        "import contextlib, io, sys\n"
        "import fproot.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    rc = cli.run({argv!r})\n"
        "assert rc == 0, rc\n"
        "assert '\"certified\": false' not in out.getvalue()\n"
        "print('numpy' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
