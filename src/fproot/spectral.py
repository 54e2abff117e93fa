"""Spectral radii of square matrices, including entries of +/- infinity.

At every entry point, the Perron root of a nonnegative matrix is the largest
root of its diagonal blocks, one per strongly connected component (SCC) of
its support digraph.  Two computation paths coexist, chosen per block:

* a numeric path (LAPACK eigenvalues on doubles, i.e. balancing + Hessenberg
  + QR iteration) for a block of size n > 6, with a declared, unproven
  absolute tolerance of 1e-9; numpy is imported on its first use, and
* an exact path for small blocks (n <= 6): the characteristic polynomial p
  is computed in integers by Faddeev-LeVerrier, and its largest real root
  found by a binary search over the doubles, each step a Sturm count with
  the chain of p's squarefree part (one integer remainder sequence; p need
  not be squarefree).  Float Newton on that part, from above, guesses the
  doubles either side of the root, and the search probes them first.  Values
  produced this way are flagged ``certified`` and carry tolerance 0: the
  reported double is the one nearest the exact root.

Matrices with infinite entries are handled by the same reduction: for a
matrix whose finite entries are all nonnegative, the radius only depends on
entries whose endpoints lie in a common component, a +inf entry inside a
component forces the radius to +inf, and every off-component entry (finite
or infinite) can be zeroed out.  When the matrix mixes signs with
infinities there is no exact reduction; a substitution grid produces an
uncertified estimate.  An integral entry stays an int throughout; only a
fractional one is a Fraction.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
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


def _code(x: float) -> int:
    """The rank of the double x: its IEEE bits read as an int, negated for a
    negative x, so that ranks are ordered as the doubles are."""
    k = struct.unpack("<q", struct.pack("<d", abs(x)))[0]
    return -k if x < 0 else k


def _double(k: int) -> float:
    """The double of rank k."""
    x = struct.unpack("<d", struct.pack("<q", abs(k)))[0]
    return -x if k < 0 else x


def largest_real_root(p: Sequence, lo: Fraction, hi: Fraction) -> Optional[Fraction]:
    """Largest real root r of the rational polynomial p in (lo, hi], as the
    double nearest it (a Fraction), or None when p has no real root there.
    p need not be squarefree: the chain is that of its squarefree part, which
    has the same roots.  A squarefree part of degree one gives r exactly.

    A binary search over the ranks of the doubles keeps r in (x_a, x_b]: a
    Sturm count at a double x says whether r > x (V(x) > V(hi)), which holds
    for every x below lo too.  It starts at -inf and +inf and probes the two
    doubles that _newton_bracket guesses before any midpoint, so at most
    2 + 2 + 64 + 1 chain evaluations are made.  Once x_a and x_b are adjacent,
    one count at their midpoint says which is nearer, or finds r on it.  A
    root past the double range raises OverflowError.
    """
    chain = _sturm_chain(p)
    if len(chain[0]) == 2:
        root = Fraction(-chain[0][1], chain[0][0])
        return root if lo < root <= hi else None
    lo, hi = Fraction(lo), Fraction(hi)
    v_hi = _sign_variations(chain, hi.numerator, hi.denominator)[0]
    if _sign_variations(chain, lo.numerator, lo.denominator)[0] == v_hi:
        return None
    guess = _newton_bracket(chain[0], lo, hi)
    probes = [_code(n / d) for n, d in guess] if guess else []
    a, b = _code(NEG_INF), _code(INF)
    while b - a > 1:
        k = probes.pop() if probes else (a + b) // 2
        if a < k < b:
            if _sign_variations(chain, *_double(k).as_integer_ratio())[0] > v_hi:
                a = k
            else:
                b = k
    t = (Fraction(_double(a)) + Fraction(_double(b))) / 2
    v, at_root = _sign_variations(chain, t.numerator, t.denominator)
    return t if at_root else Fraction(_double(b if v > v_hi else a))


def _rho_exact(m: RatMatrix) -> Optional[SpectralValue]:
    """Certified Perron root of a small nonnegative matrix, None if unavailable."""
    n = m.rows
    if n == 1:
        return SpectralValue(float(m.data[0][0]), True, 0.0)
    if n > EXACT_SIZE_LIMIT:
        return None
    p = characteristic_polynomial(m)
    # peel off the exact power of x, which only lowers the degree: the
    # largest real root stays the Perron root; a nilpotent m leaves [1]
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

    Accepts a RatMatrix, a finite ExtendedMatrix, or nested sequences.  The
    radius is the max over the diagonal blocks of the SCC decomposition
    (_fold_components): a block up to size 6 is certified through its exact
    characteristic polynomial (so the 7x7 nilpotent shift gets a certified
    0), a larger one is numeric with tolerance 1e-9.  An entry or radius
    beyond the double range raises SpectralError.
    """
    rm = _as_ratmatrix(m)
    if not rm.is_square():
        raise SpectralError(f"rho needs a square matrix, got {rm.shape}")
    if any(x < 0 for row in rm.data for x in row):
        raise SpectralError("rho is defined for nonnegative matrices; "
                            "use spectral_radius for general ones")
    return _fold_components(rm.data)


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


def _max_radius(radii) -> SpectralValue:
    """The radius of a block triangular matrix from its diagonal blocks'
    radii: their max, certified when all are, at the largest tolerance."""
    best = SpectralValue(0.0, True, 0.0)
    for r in radii:
        best = SpectralValue(max(best.value, r.value),
                             best.certified and r.certified,
                             max(best.tolerance, r.tolerance))
    return best


def _fold_components(rows) -> Optional[SpectralValue]:
    """Radius of a square matrix with finite nonnegative and +/-inf entries,
    from the diagonal blocks of its SCC decomposition, each exact up to size
    6 and numeric above.  The first infinite entry inside a component
    (row-major) decides alone: +inf gives a certified +inf, -inf gives None
    (no exact reduction)."""
    edges = [(i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x]
    comps = strongly_connected_components(len(rows), edges)
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    for i, j in edges:
        if isinstance(rows[i][j], float) and comp_of[i] == comp_of[j]:
            return SpectralValue(INF, True, 0.0) if rows[i][j] > 0 else None
    blocks = (RatMatrix([[rows[i][j] for j in comp] for i in comp], len(comp))
              for comp in comps)
    return _max_radius(_rho_exact(b) or spectral_radius(b) for b in blocks)


def rho_nonnegative_via_scc(m: RatMatrix) -> SpectralValue:
    """Perron root of a nonnegative matrix: rho, the max over its diagonal
    SCC blocks (a certified 0 for any nilpotent support pattern)."""
    return rho(m)


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
    return _max_radius(rho(b) for b in blocks)


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
