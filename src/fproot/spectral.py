"""Spectral radii of square matrices, including entries of +/- infinity.

Two computation paths coexist:

* a numeric path (LAPACK eigenvalues on doubles, i.e. balancing + Hessenberg
  + QR iteration) with a declared absolute tolerance of 1e-9 for sizes up to
  64, and
* an exact path for small matrices (n <= 6): the characteristic polynomial is
  computed over the rationals by Faddeev-LeVerrier and its largest real root
  isolated with a Sturm chain and dyadic bisection.  Values produced this way
  are flagged ``certified`` and carry tolerance 0: the number is pinned down
  by exact arithmetic and only reported at double precision.

Matrices with infinite entries are handled by reducing over the strongly
connected components of the support digraph: for a matrix whose finite
entries are all nonnegative, the radius only depends on entries whose
endpoints lie in a common component, a +inf entry inside a component forces
the radius to +inf, and every off-component entry (finite or infinite) can be
zeroed out.  When the matrix mixes signs with infinities there is no exact
reduction; a substitution grid produces an uncertified estimate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .exactlin import InvariantViolation, RatMatrix, rat, rat_str

INF = math.inf
NEG_INF = -math.inf

NUMERIC_TOL = 1e-9
EXACT_SIZE_LIMIT = 6

Entry = Union[Fraction, float]


class SpectralError(ValueError):
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

    def __float__(self):
        return self.value

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)


def _entry(x) -> Entry:
    if isinstance(x, float) and math.isinf(x):
        return INF if x > 0 else NEG_INF
    if isinstance(x, str) and x.strip() in ("inf", "+inf", "Infinity"):
        return INF
    if isinstance(x, str) and x.strip() in ("-inf", "-Infinity"):
        return NEG_INF
    if isinstance(x, float):
        if x == int(x):
            return Fraction(int(x))
        return Fraction(x).limit_denominator(10**12)
    return rat(x)


class ExtendedMatrix:
    """Square matrix with entries in the nonnegative rationals or +/-inf.

    Finite negative entries are accepted but route the radius computation to
    the numeric fallback.
    """

    __slots__ = ("n", "entries")

    def __init__(self, rows: Sequence[Sequence]):
        data = tuple(tuple(_entry(x) for x in row) for row in rows)
        n = len(data)
        if any(len(r) != n for r in data):
            raise SpectralError("extended matrix must be square")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", data)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("ExtendedMatrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def has_infinite(self) -> bool:
        return any(isinstance(x, float) for row in self.entries for x in row)

    def finite_part_nonnegative(self) -> bool:
        return all(x >= 0 for row in self.entries for x in row
                   if isinstance(x, Fraction))

    def to_json(self) -> str:
        def enc(x):
            if isinstance(x, float):
                return "inf" if x > 0 else "-inf"
            return rat_str(x)
        return json.dumps([[enc(x) for x in row] for row in self.entries])


def matrix_from_json(text: str) -> ExtendedMatrix:
    """Parse the JSON array-of-arrays matrix format.

    Entries may be finite numbers, 'p/q' strings, 'inf' or '-inf'.  Errors
    name the offending entry.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpectralError(f"invalid JSON: {e}") from e
    if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
        raise SpectralError("matrix file must be a JSON array of arrays")
    for i, row in enumerate(raw):
        for j, x in enumerate(row):
            # an overflowing number (1e400) or a bare NaN/Infinity constant
            if isinstance(x, float) and not math.isfinite(x):
                raise SpectralError(
                    f"non-finite number at row {i}, column {j}; write an "
                    "infinite entry as \"inf\" or \"-inf\"")
            try:
                _entry(x)
            except (ValueError, TypeError, ZeroDivisionError):
                raise SpectralError(f"bad matrix entry at row {i}, column {j}: {x!r}")
    return ExtendedMatrix(raw)


# ---------------------------------------------------------------------------
# exact characteristic polynomial machinery (n <= 6)
# ---------------------------------------------------------------------------

def characteristic_polynomial(m: RatMatrix) -> List[Fraction]:
    """Monic characteristic polynomial of m, coefficients highest power first.

    Faddeev-LeVerrier over exact rationals: M_0 = I, c_0 = 1 and
    M_k = A M_{k-1} + c_{k-1} I, c_k = -tr(A M_{k-1} ... ) / k.
    """
    if not m.is_square():
        raise SpectralError("characteristic polynomial needs a square matrix")
    n = m.rows
    coeffs = [Fraction(1)]
    M = RatMatrix.identity(n)
    for k in range(1, n + 1):
        AM = m @ M
        c = -Fraction(sum(AM.data[i][i] for i in range(n)), k)
        coeffs.append(c)
        M = RatMatrix(
            [[AM.data[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)],
            cols=n,
        )
    return coeffs


def _poly_eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in p:
        acc = acc * x + c
    return acc


def _poly_deriv(p: Sequence[Fraction]) -> List[Fraction]:
    n = len(p) - 1
    return [c * (n - i) for i, c in enumerate(p[:-1])]


def _poly_mod(a: Sequence[Fraction], b: Sequence[Fraction]) -> List[Fraction]:
    a = list(a)
    db, lb = len(b) - 1, b[0]
    while len(a) - 1 >= db and any(a):
        if not a[0]:
            a.pop(0)
            continue
        f = a[0] / lb
        for i in range(len(b)):
            a[i] -= f * b[i]
        a.pop(0)
    while len(a) > 1 and not a[0]:
        a.pop(0)
    return a


def _poly_gcd(a, b) -> List[Fraction]:
    a, b = list(a), list(b)
    while b and any(b):
        a, b = b, _poly_mod(a, b)
    lead = a[0]
    return [c / lead for c in a]


def squarefree_part(p: Sequence[Fraction]) -> List[Fraction]:
    if len(p) <= 1:
        return list(p)
    g = _poly_gcd(p, _poly_deriv(p))
    if len(g) == 1:
        return list(p)
    # exact division p / g
    q, r = _poly_divmod(p, g)
    if any(r):
        raise InvariantViolation("squarefree division must be exact")
    return q


def _poly_divmod(a, b):
    a = list(a)
    db, lb = len(b) - 1, b[0]
    q = []
    while len(a) - 1 >= db:
        f = a[0] / lb
        q.append(f)
        for i in range(len(b)):
            a[i] -= f * b[i]
        a.pop(0)
    while len(a) > 1 and not a[0]:
        a.pop(0)
    return q, a


def _sturm_chain(p: Sequence[Fraction]) -> List[List[Fraction]]:
    chain = [list(p), _poly_deriv(p)]
    while len(chain[-1]) > 1 or (chain[-1] and chain[-1][0]):
        r = _poly_mod(chain[-2], chain[-1])
        if not any(r):
            break
        chain.append([-c for c in r])
    return chain


def _sign_variations(chain, x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _poly_eval(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def largest_real_root(p: Sequence[Fraction], lo: Fraction, hi: Fraction) -> Optional[Fraction]:
    """Largest real root of squarefree p in (lo, hi], isolated by Sturm bisection.

    Returns a dyadic rational within 1e-14 of the root (or the exact root when
    bisection lands on it), or None when p has no real root in the interval.
    Degrees one and two short-circuit to closed forms.
    """
    if len(p) == 2:
        root = -p[1] / p[0]
        return root if lo < root <= hi else None
    if len(p) == 3:
        b, c = p[1] / p[0], p[2] / p[0]
        disc = b * b - 4 * c
        if disc < 0:
            return None
        root = Fraction((-float(b) + math.sqrt(float(disc))) / 2.0)
        return root if lo < root <= hi else None
    chain = _sturm_chain(p)

    def count(a: Fraction, b: Fraction) -> int:
        return _sign_variations(chain, a) - _sign_variations(chain, b)

    if _poly_eval(p, hi) == 0:
        return hi
    if count(lo, hi) == 0:
        return None
    a, b = lo, hi
    width_target = Fraction(1, 10**16) * max(Fraction(1), abs(hi))
    while b - a > width_target:
        mid = (a + b) / 2
        if _poly_eval(p, mid) == 0:
            if count(mid, b) == 0:
                return mid
            a = mid
            continue
        if count(mid, b) >= 1:
            a = mid
        else:
            b = mid
    return (a + b) / 2


def _rho_exact(m: RatMatrix) -> Optional[SpectralValue]:
    """Certified Perron root of a small nonnegative matrix, None if unavailable."""
    n = m.rows
    if n == 0:
        return SpectralValue(0.0, True, 0.0)
    if n == 1:
        return SpectralValue(float(m.data[0][0]), True, 0.0)
    if n > EXACT_SIZE_LIMIT:
        return None
    p = characteristic_polynomial(m)
    # peel off the exact power of x so that zero roots stay exactly zero
    has_zero_root = False
    while len(p) > 1 and not p[-1]:
        p.pop()
        has_zero_root = True
    if len(p) == 1:
        return SpectralValue(0.0, True, 0.0)
    p = squarefree_part(p)
    bound = max(sum(r) for r in m.data) + 1
    root = largest_real_root(p, Fraction(-1) - bound, bound)
    if root is None:
        return SpectralValue(0.0, True, 0.0) if has_zero_root else None
    if has_zero_root and root < 0:
        root = Fraction(0)
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
        return RatMatrix(m.entries)
    return RatMatrix(m)


def _rho_numeric(rows_of_floats) -> float:
    a = np.array(rows_of_floats, dtype=float)
    if a.size == 0:
        return 0.0
    return float(max(abs(np.linalg.eigvals(a))))


def rho(m) -> SpectralValue:
    """Perron root of a square matrix with finite nonnegative entries.

    Accepts a RatMatrix, a finite ExtendedMatrix, or nested sequences.  For
    sizes up to 6 the value is certified through the exact characteristic
    polynomial; otherwise it is numeric with tolerance 1e-9 (n <= 64).
    """
    rm = _as_ratmatrix(m)
    if not rm.is_square():
        raise SpectralError(f"rho needs a square matrix, got {rm.shape}")
    if any(x < 0 for row in rm.data for x in row):
        raise SpectralError("rho is defined for nonnegative matrices; "
                            "use spectral_radius for general ones")
    exact = _rho_exact(rm)
    if exact is not None:
        return exact
    return SpectralValue(_rho_numeric(rm.to_floats()), False, NUMERIC_TOL)


def spectral_radius(m) -> SpectralValue:
    """max |eigenvalue| of an arbitrary finite real matrix (numeric)."""
    rm = _as_ratmatrix(m)
    if not rm.is_square():
        raise SpectralError(f"spectral radius needs a square matrix, got {rm.shape}")
    return SpectralValue(_rho_numeric(rm.to_floats()), False, NUMERIC_TOL)


# ---------------------------------------------------------------------------
# strongly connected components of the support digraph
# ---------------------------------------------------------------------------

def strongly_connected_components(n: int, edges) -> List[List[int]]:
    """Tarjan's algorithm, iterative.  Components come out in reverse
    topological order of the condensation."""
    adj = [[] for _ in range(n)]
    for (u, v) in edges:
        adj[u].append(v)
    index = [None] * n
    low = [0] * n
    onstack = [False] * n
    stack: List[int] = []
    comps: List[List[int]] = []
    counter = [0]

    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                onstack[v] = True
            advanced = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] is None:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                elif onstack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def rho_nonnegative_via_scc(m: RatMatrix) -> SpectralValue:
    """Perron root of a nonnegative matrix via its SCC block structure.

    The radius equals the max over diagonal SCC blocks, which keeps small
    certified blocks exact even when the whole matrix is large (and returns
    a certified 0 for any nilpotent support pattern).
    """
    n = m.rows
    edges = [(i, j) for i in range(n) for j in range(n) if m.data[i][j]]
    return rho_block_lower_triangular(
        [RatMatrix([[m.data[i][j] for j in comp] for i in comp], cols=len(comp))
         for comp in strongly_connected_components(n, edges)])


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
        x = float(2 ** k)
        rows = []
        for row in m.entries:
            out = []
            for e in row:
                if isinstance(e, float):
                    out.append(x if e > 0 else -x)
                else:
                    out.append(float(e))
            rows.append(out)
        vals.append(_rho_numeric(rows))
    tail = vals[-5:]
    return SpectralValue(min(tail), False, (max(tail) - min(tail)) + NUMERIC_TOL)


def rho_extended(m: ExtendedMatrix) -> SpectralValue:
    """Spectral radius of a matrix with entries in Q union {+inf, -inf}.

    Exact SCC path when all finite entries are >= 0 and no -inf entry sits
    inside a strongly connected component of the support digraph; numeric
    grid estimate otherwise.
    """
    if not isinstance(m, ExtendedMatrix):
        m = ExtendedMatrix(m)
    n = m.n
    if n == 0:
        return SpectralValue(0.0, True, 0.0)
    if not m.has_infinite():
        if m.finite_part_nonnegative():
            return rho_nonnegative_via_scc(RatMatrix(m.entries))
        return spectral_radius(RatMatrix(m.entries))
    if not m.finite_part_nonnegative():
        return _grid_estimate(m)

    edges = [(i, j) for i in range(n) for j in range(n)
             if (isinstance(m.entries[i][j], float) or m.entries[i][j] != 0)]
    comps = strongly_connected_components(n, edges)
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci

    for i in range(n):
        for j in range(n):
            e = m.entries[i][j]
            if isinstance(e, float) and comp_of[i] == comp_of[j]:
                if e > 0:
                    return SpectralValue(INF, True, 0.0)
                return _grid_estimate(m)  # -inf on a cycle: no exact reduction

    # no infinite entry is left inside a component
    return rho_block_lower_triangular(
        [RatMatrix([[m.entries[i][j] for j in comp] for i in comp], cols=len(comp))
         for comp in comps])


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
