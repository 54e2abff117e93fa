"""Spectral radii of square matrices, including entries of +/- infinity.

Two computation paths coexist:

* a numeric path (LAPACK eigenvalues on doubles, i.e. balancing + Hessenberg
  + QR iteration) for strongly connected n > 6, with a declared, unproven
  absolute tolerance of 1e-9; numpy is imported on its first use, and
* an exact path for small matrices (n <= 6): the characteristic polynomial p
  is computed in integers by Faddeev-LeVerrier, and its largest real root
  isolated by dyadic bisection with the Sturm chain of p's squarefree part
  (one integer remainder sequence; p need not be squarefree) until both ends
  of the bracket round to the same double.  Float Newton on that part, from
  above, guesses the doubles either side of the root; each end that a Sturm
  count proves decides every bisection step beyond it.  Values produced this way
  are flagged ``certified`` and carry tolerance 0: the reported double is
  the one nearest the exact root.

Matrices with infinite entries are handled by reducing over the strongly
connected components of the support digraph: for a matrix whose finite
entries are all nonnegative, the radius only depends on entries whose
endpoints lie in a common component, a +inf entry inside a component forces
the radius to +inf, and every off-component entry (finite or infinite) can be
zeroed out.  When the matrix mixes signs with infinities there is no exact
reduction; a substitution grid produces an uncertified estimate.  An
integral entry stays an int throughout; only a fractional one is a Fraction.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import List, Optional, Sequence, Union

from .exactlin import (InputError, InvariantViolation, RatMatrix, load_json,
                       primitive_row, quotient, rat)

INF = math.inf
NEG_INF = -math.inf

NUMERIC_TOL = 1e-9
EXACT_SIZE_LIMIT = 6
NEWTON_STEPS = 100

Entry = Union[int, Fraction, float]


class SpectralError(InputError):
    pass


@dataclass(frozen=True)
class SpectralValue:
    """A spectral radius: value, certification flag and error bound.

    certified values carry tolerance 0.0; uncertified ones carry the declared
    absolute error bound of the numeric path (or the observed spread of the
    substitution grid).
    """

    value: float
    certified: bool
    tolerance: float


def _entry(x, i: int, j: int) -> Entry:
    """Entry (i, j) of a matrix as rat reads it (a float as the nearest
    fraction with denominator <= 10**12), or +/-inf; SpectralError names it
    when it is not a number."""
    if type(x) is int:
        return x
    if isinstance(x, float) and math.isinf(x):
        return INF if x > 0 else NEG_INF
    if isinstance(x, str) and x.strip() in ("inf", "+inf", "Infinity"):
        return INF
    if isinstance(x, str) and x.strip() in ("-inf", "-Infinity"):
        return NEG_INF
    try:
        return rat(Fraction(x).limit_denominator(10**12) if isinstance(x, float) else x)
    except (ValueError, TypeError, ZeroDivisionError):
        raise SpectralError(f"bad matrix entry at row {i}, column {j}: {x!r}") from None


class ExtendedMatrix:
    """Square matrix with entries in the nonnegative rationals or +/-inf:
    an int for an integral entry, a Fraction for another finite one, a float
    for +/-inf.  Finite negative entries are accepted but route the radius
    computation to the numeric fallback.
    """

    __slots__ = ("n", "entries")

    def __init__(self, rows: Sequence[Sequence]):
        data = tuple(tuple(_entry(x, i, j) for j, x in enumerate(row))
                     for i, row in enumerate(rows))
        n = len(data)
        if any(len(r) != n for r in data):
            raise SpectralError("extended matrix must be square")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", data)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("ExtendedMatrix is immutable")

    def has_infinite(self) -> bool:
        return any(isinstance(x, float) for row in self.entries for x in row)

    def finite_part_nonnegative(self) -> bool:
        return all(x >= 0 for row in self.entries for x in row
                   if not isinstance(x, float))


def matrix_from_json(text: str) -> ExtendedMatrix:
    """Parse the JSON array-of-arrays matrix format.

    Entries may be finite numbers, 'p/q' strings, 'inf' or '-inf'.  Errors
    name the offending entry.
    """
    raw = load_json(text, SpectralError)
    if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
        raise SpectralError("matrix file must be a JSON array of arrays")
    for i, row in enumerate(raw):
        for j, x in enumerate(row):
            # an overflowing number (1e400) or a bare NaN/Infinity constant
            if isinstance(x, float) and not math.isfinite(x):
                raise SpectralError(
                    f"non-finite number at row {i}, column {j}; write an "
                    "infinite entry as \"inf\" or \"-inf\"")
    return ExtendedMatrix(raw)


# ---------------------------------------------------------------------------
# exact characteristic polynomial machinery (n <= 6)
# ---------------------------------------------------------------------------

def characteristic_polynomial(m: RatMatrix) -> list:
    """Monic characteristic polynomial of m, coefficients highest power first.

    Faddeev-LeVerrier on the integer matrix B = d*A (d the lcm of the entry
    denominators): M_0 = I, c_0 = 1, c_k = -tr(B M_{k-1}) / k and
    M_k = B M_{k-1} + c_k I.  The c_k are the integer coefficients of B's
    characteristic polynomial, so each division by k is exact, and A's
    coefficients are quotient(c_k, d^k).
    """
    if not m.is_square():
        raise SpectralError("characteristic polynomial needs a square matrix")
    d = math.lcm(*(x.denominator for row in m.data for x in row))
    b = [[x.numerator * (d // x.denominator) for x in row] for row in m.data]
    n = len(b)
    coeffs = [1]
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*M))
        BM = [[sum(map(operator.mul, row, col)) for col in cols] for row in b]
        c, r = divmod(-sum(BM[i][i] for i in range(n)), k)
        if r:
            raise InvariantViolation("Faddeev-LeVerrier division must be exact")
        coeffs.append(quotient(c, d ** k))
        for i in range(n):
            BM[i][i] += c
        M = BM
    return coeffs


def _negated_remainder(a: List[int], b: List[int]) -> Optional[List[int]]:
    """-(a mod b) times a positive rational, as a primitive integer row, or
    None.  Each step multiplies a by |b[0]| (over its gcd with a[0]) and
    cancels a[0]: every sign is kept and no Fraction is built."""
    lb = abs(b[0])
    while len(a) >= len(b):
        f = a[0] if b[0] > 0 else -a[0]
        g = math.gcd(lb, f)
        m, f = lb // g, f // g
        a = [m * x - f * y for x, y in zip_longest(a[1:], b[1:], fillvalue=0)]
    while a and not a[0]:
        a = a[1:]
    return primitive_row([-c for c in a])


def _poly_divmod(a: List[int], b: List[int]):
    """(quotient, remainder) of integer polynomials a / b, stopping with a
    nonzero remainder at the first leading coefficient that b[0] does not
    divide."""
    a, q = list(a), []
    while len(a) >= len(b):
        f, r = divmod(a[0], b[0])
        if r:
            break
        q.append(f)
        a = [x - f * y for x, y in zip_longest(a[1:], b[1:], fillvalue=0)]
    return q, a


def _sturm_chain(p: Sequence) -> List[List[int]]:
    """The Sturm chain of the squarefree part of the rational polynomial p,
    on integers: a primitive remainder sequence (Collins, J. ACM 14, 1967)
    whose members are positive multiples of p, p' and the negated remainders.
    Its last member is gcd(p, p'); unless that is a constant, the chain of
    the exact quotient p / gcd is returned instead."""
    chain = [primitive_row(p) or [0]]
    if len(chain[0]) > 1:
        n = len(chain[0]) - 1
        chain.append(primitive_row([c * (n - i) for i, c in enumerate(chain[0][:-1])]))
    while len(chain[-1]) > 1:
        r = _negated_remainder(chain[-2], chain[-1])
        if r is None:
            break
        chain.append(r)
    if len(chain[-1]) == 1:
        return chain
    g = chain[-1] if chain[-1][0] > 0 else [-c for c in chain[-1]]
    q, r = _poly_divmod(chain[0], g)
    if any(r):
        raise InvariantViolation("squarefree division must be exact")
    return _sturm_chain(q)


def squarefree_part(p: Sequence) -> List[int]:
    """p / gcd(p, p') as a primitive integer polynomial with the sign of p's
    leading coefficient: the head of its Sturm chain."""
    return _sturm_chain(p)[0]


def _sign_variations(chain, u: int, w: int):
    """(sign variations of the integer chain at u/w, whether p(u/w) == 0), w > 0.

    Each polynomial of degree e is evaluated homogeneously, times w**e, which
    keeps its sign and needs integers only."""
    wp = [w ** k for k in range(len(chain[0]))]
    vals = []
    for q in chain:
        acc = 0
        for c, wk in zip(q, wp):
            acc = acc * u + c * wk
        vals.append(acc)
    signs = [v > 0 for v in vals if v]
    return sum(x != y for x, y in zip(signs, signs[1:])), vals[0] == 0


def _newton_bracket(q: List[int], lo: Fraction, hi: Fraction):
    """The doubles L < U one ulp either side of where float Newton on the
    integer polynomial q (degree >= 2) stops, as (num, den) pairs; None on
    overflow or when L < lo.  Newton starts at min(hi, 2 max_k
    |q_k / q_0|^(1/k)), above every root.  If all roots lie in |z| <= rho (a
    Perron polynomial), by Gauss-Lucas q is monotone and convex on (rho, inf)
    and Newton falls straight to rho.  The caller proves each end by Sturm."""
    try:
        a = [c / q[0] for c in q[1:]]
        x = min(float(hi), 2 * max(abs(c) ** (1 / k) for k, c in enumerate(a, 1)))
        for _ in range(NEWTON_STEPS):
            f, d = 1.0, 0.0  # q(x) / q_0 and q'(x) / q_0 by Horner
            for c in a:
                d = d * x + f
                f = f * x + c
            step = f / d
            if not step > 0 or x - step == x:
                break
            x -= step
        lower, upper = math.nextafter(x, NEG_INF), math.nextafter(x, INF)
        return (lower.as_integer_ratio(), upper.as_integer_ratio()) if lo <= lower else None
    except (OverflowError, ZeroDivisionError):
        return None


def largest_real_root(p: Sequence, lo: Fraction, hi: Fraction) -> Optional[Fraction]:
    """Largest real root of the rational polynomial p in (lo, hi], isolated
    by Sturm bisection.  p need not be squarefree: the chain is that of its
    squarefree part, which has the same roots.

    Returns a Fraction that rounds to the double nearest the root, or None
    when p has no real root in the interval.  Bisection stops when both ends
    of the bracket [a, b] round to the same double, and returns its midpoint
    (the root itself when a midpoint lands on it).  If b - a shrinks to
    2**-64 * |a| first, the bracket straddles the tie between two adjacent
    doubles, and one Sturm count there picks the side.  b only moves past
    root-free intervals, so V(b) stays V(hi): one chain evaluation per step.
    A squarefree part of degree one gives the exact root, and so does a
    largest root at 0 (the bracket's ends would round to one double only
    once they underflow).

    _newton_bracket guesses L < U; an end is kept when a Sturm count proves
    it: V(U) == V(hi) (no root in (U, hi]), V(L) > V(hi) (a root in (L, hi]).
    The steps depend only on the root, so a midpoint at or below L or above
    U moves a or b without a chain evaluation (with both ends kept, the walk
    jumps past those steps), and the result is the same.  The walk runs on
    integers: [a, b] = [a, a + width] / den.
    """
    chain = _sturm_chain(p)
    if len(chain[0]) == 2:
        root = Fraction(-chain[0][1], chain[0][0])
        return root if lo < root <= hi else None
    lo, hi = Fraction(lo), Fraction(hi)
    den = math.lcm(lo.denominator, hi.denominator)
    a, width = int(lo * den), int((hi - lo) * den)
    v_hi, at_root = _sign_variations(chain, a + width, den)
    if at_root:
        return hi
    if not chain[0][-1] and lo < 0 < hi and _sign_variations(chain, 0, 1)[0] == v_hi:
        return Fraction(0)  # a root at 0 and none above: no bracket closes on it
    lower, upper = (-1, 0), (1, 0)  # -inf and +inf as num/den pairs
    guess = _newton_bracket(chain[0], lo, hi)
    if guess:
        if _sign_variations(chain, *guess[1])[0] == v_hi:
            upper = guess[1]
        if _sign_variations(chain, *guess[0])[0] > v_hi:
            lower = guess[0]
    if not lower[1] and _sign_variations(chain, a, den)[0] == v_hi:
        return None
    if lower[1] and upper[1]:  # skip the steps whose midpoints miss (L, U]
        k = (width * max(lower[1], upper[1]) // den).bit_length() + 1
        nl, nu = [((n * den - a * d) << k) // (d * width) for n, d in (lower, upper)]
        s = (nl ^ min(nu, (1 << k) - 1)).bit_length()  # cells nl, nu share k - s bits
        a, den = (a << (k - s)) + (nl >> s) * width, den << (k - s)
    while width << 64 > abs(a) and (width << 52 >= abs(a) or a / den != (a + width) / den):
        a, den = 2 * a, 2 * den
        mid = a + width
        if mid * lower[1] <= lower[0] * den:
            a = mid
        elif mid * upper[1] <= upper[0] * den:
            v, at_root = _sign_variations(chain, mid, den)
            if v > v_hi:
                a = mid  # a root in (mid, b]
            elif at_root:
                return Fraction(mid, den)
    if a / den == (a + width) / den:
        return Fraction(2 * a + width, 2 * den)
    t = (Fraction(a / den) + Fraction((a + width) / den)) / 2
    v, at_root = _sign_variations(chain, t.numerator, t.denominator)
    if at_root:
        return t
    return Fraction(a + width, den) if v > v_hi else Fraction(a, den)


def _rho_exact(m: RatMatrix) -> Optional[SpectralValue]:
    """Certified Perron root of a small nonnegative matrix, None if unavailable."""
    n = m.rows
    if n == 1:
        return SpectralValue(float(m.data[0][0]), True, 0.0)
    if n > EXACT_SIZE_LIMIT:
        return None
    p = characteristic_polynomial(m)
    # peel off the exact power of x: if anything is left, m has a nonzero
    # eigenvalue, so its Perron root is positive and the largest real root
    while len(p) > 1 and not p[-1]:
        p.pop()
    if len(p) == 1:
        return SpectralValue(0.0, True, 0.0)
    bound = max(sum(r) for r in m.data) + 1
    root = largest_real_root(p, Fraction(-1) - bound, bound)
    return SpectralValue(float(root), True, 0.0)


# ---------------------------------------------------------------------------
# numeric path
# ---------------------------------------------------------------------------

def _as_ratmatrix(m) -> RatMatrix:
    if isinstance(m, RatMatrix):
        return m
    if isinstance(m, ExtendedMatrix):
        if m.has_infinite():
            raise SpectralError("matrix has infinite entries; use rho_extended")
        return RatMatrix(m.entries, m.n)
    return RatMatrix(m)


def _rho_numeric(rows_of_floats) -> float:
    import numpy as np  # loaded on first use: the exact paths never need it

    a = np.array(rows_of_floats, dtype=float)
    if a.size == 0:
        return 0.0
    return float(max(abs(np.linalg.eigvals(a))))


def _within_double_range(f):
    """f, raising SpectralError where an entry or a radius overflows a double."""
    @functools.wraps(f)
    def checked(*args):
        try:
            return f(*args)
        except OverflowError as e:
            raise SpectralError(f"out of the double range: {e}") from e
    return checked


@_within_double_range
def rho(m) -> SpectralValue:
    """Perron root of a square matrix with finite nonnegative entries.

    Accepts a RatMatrix, a finite ExtendedMatrix, or nested sequences.  For
    sizes up to 6 the value is certified through the exact characteristic
    polynomial.  A larger matrix whose support is not strongly connected is
    split into its SCC blocks (rho of each, so the 7x7 nilpotent shift gets a
    certified 0); a larger strongly connected one is numeric with tolerance
    1e-9.  An entry or radius beyond the double range raises SpectralError.
    """
    rm = _as_ratmatrix(m)
    if not rm.is_square():
        raise SpectralError(f"rho needs a square matrix, got {rm.shape}")
    if any(x < 0 for row in rm.data for x in row):
        raise SpectralError("rho is defined for nonnegative matrices; "
                            "use spectral_radius for general ones")
    if rm.rows > EXACT_SIZE_LIMIT and len(_components(rm.data)[1]) > 1:
        return _fold_components(rm.data)
    return _rho_exact(rm) or SpectralValue(_rho_numeric(rm.to_floats()), False, NUMERIC_TOL)


@_within_double_range
def spectral_radius(m) -> SpectralValue:
    """max |eigenvalue| of an arbitrary finite real matrix (numeric).  An
    entry beyond the double range raises SpectralError."""
    rm = _as_ratmatrix(m)
    if not rm.is_square():
        raise SpectralError(f"spectral radius needs a square matrix, got {rm.shape}")
    return SpectralValue(_rho_numeric(rm.to_floats()), False, NUMERIC_TOL)


# ---------------------------------------------------------------------------
# strongly connected components of the support digraph
# ---------------------------------------------------------------------------

def strongly_connected_components(n: int, edges) -> List[List[int]]:
    """Tarjan's algorithm, iterative.  Components come out in reverse
    topological order of the condensation, each in the order its vertices
    leave the stack (latest reached first, the root last).  The fold hands
    numpy a block above size 6 in this order, so numeric radii depend on it."""
    adj = [[] for _ in range(n)]
    for (u, v) in edges:
        adj[u].append(v)
    # index[v] is v's position on the stack while it is there and n after,
    # so a low link never takes a vertex of a closed component
    index: List[Optional[int]] = [None] * n
    low = [0] * n
    comps: List[List[int]] = []
    for root in range(n):
        if index[root] is not None:
            continue
        index[root] = low[root] = 0
        stack = [root]
        work = [(root, iter(adj[root]))]
        while work:
            v, succ = work[-1]
            for w in succ:
                if index[w] is None:
                    index[w] = low[w] = len(stack)
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    comps.append(stack[index[v]:][::-1])
                    del stack[index[v]:]
                    for w in comps[-1]:
                        index[w] = n
    return comps


def _components(rows):
    """(support edges, SCCs of the support digraph) of a square matrix."""
    edges = [(i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x]
    return edges, strongly_connected_components(len(rows), edges)


def _fold_components(rows) -> Optional[SpectralValue]:
    """Radius of a square matrix with finite nonnegative and +/-inf entries,
    from the diagonal blocks of its SCC decomposition.  The first infinite
    entry inside a component (row-major) decides alone: +inf gives a
    certified +inf, -inf gives None (no exact reduction)."""
    edges, comps = _components(rows)
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    for i, j in edges:
        if isinstance(rows[i][j], float) and comp_of[i] == comp_of[j]:
            return SpectralValue(INF, True, 0.0) if rows[i][j] > 0 else None
    return rho_block_lower_triangular(
        [RatMatrix([[rows[i][j] for j in comp] for i in comp], len(comp))
         for comp in comps])


def rho_nonnegative_via_scc(m: RatMatrix) -> SpectralValue:
    """Perron root of a nonnegative matrix via its SCC block structure.

    The radius equals the max over diagonal SCC blocks, which keeps small
    certified blocks exact even when the whole matrix is large (and returns
    a certified 0 for any nilpotent support pattern).
    """
    return _fold_components(m.data)


# ---------------------------------------------------------------------------
# extended radius (Definition with +/-infinite entries)
# ---------------------------------------------------------------------------

def _grid_estimate(m: ExtendedMatrix) -> SpectralValue:
    """Substitution-grid estimate of the liminf for mixed-sign matrices.

    Every +/-inf slot receives +/-2^k for k = 0..20; the estimate is the
    minimum of the last five radii.  This is a documented estimate, not a
    claim of exactness; the reported tolerance is the observed spread of the
    tail plus the numeric tolerance.
    """
    vals = []
    for k in range(21):
        sub = {INF: float(2 ** k), NEG_INF: -float(2 ** k)}
        vals.append(_rho_numeric([[float(sub.get(e, e)) for e in row] for row in m.entries]))
    tail = vals[-5:]
    return SpectralValue(min(tail), False, (max(tail) - min(tail)) + NUMERIC_TOL)


@_within_double_range
def rho_extended(m: ExtendedMatrix) -> SpectralValue:
    """Spectral radius of a matrix with entries in Q union {+inf, -inf}.

    Exact SCC path when all finite entries are >= 0 and the first infinite
    entry inside a strongly connected component of the support digraph (if
    any) is +inf; numeric otherwise (grid estimate with infinite entries).
    A finite entry or radius beyond the double range raises SpectralError.
    """
    if not isinstance(m, ExtendedMatrix):
        m = ExtendedMatrix(m)
    if m.finite_part_nonnegative():
        r = _fold_components(m.entries)
        if r is not None:
            return r
    elif not m.has_infinite():
        return spectral_radius(m)
    return _grid_estimate(m)


def rho_block_lower_triangular(blocks: Sequence) -> SpectralValue:
    """Radius of a block lower-triangular matrix: max over diagonal blocks."""
    best = SpectralValue(0.0, True, 0.0)
    for b in blocks:
        r = rho(b)
        best = SpectralValue(max(best.value, r.value),
                             best.certified and r.certified,
                             max(best.tolerance, r.tolerance))
    return best


def zplus_fpdim(mult_matrix) -> SpectralValue:
    """Frobenius-Perron dimension of an object of a Z_+-ring.

    The input is the nonnegative integer matrix of left multiplication on the
    basis; the value is its Perron root.
    """
    rm = _as_ratmatrix(mult_matrix)
    for i, row in enumerate(rm.data):
        for j, x in enumerate(row):
            if x.denominator != 1 or x < 0:
                raise SpectralError(
                    f"multiplication matrix entry ({i},{j}) = {x} is not a "
                    "nonnegative integer")
    return rho_nonnegative_via_scc(rm)
