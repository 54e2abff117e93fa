"""Exact linear algebra over the rationals.

Everything in this module is exact; no floating point enters or leaves.  This
matters because downstream brick tests ask for statements like ``dim Hom = 1``
which are integer facts and must not depend on tolerances.  There is one
elimination routine: each row is scaled by the lcm of its denominators, and
fraction-free elimination keeps every row primitive (its entries have gcd 1).
Rank and pivot columns come from its forward pass alone, without building a
`Fraction`; `rref`, kernels and `solve` add a back-substitution and divide
each entry by its row's pivot once, at the end.

Matrices are dense and small (desk scale); no attempt is made at sparsity.
All functions are pure and all matrices immutable, so everything here is safe
to call concurrently.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

_ZERO, _ONE = Fraction(0), Fraction(1)
_FRACTION_ONLY = frozenset({Fraction})
_INT_ONLY = frozenset({int})


class InvariantViolation(AssertionError):
    """Raised when an internal consistency check fails; the CLI maps it to
    exit 4.  Defined here, in the bottom layer, so every layer can raise it."""


class InputError(ValueError):
    """The base of each layer's input error (SpectralError, QuiverError,
    AlgebraError, RepresentationError); the CLI maps it to exit 2."""


def load_json(text: str, error: type):
    """json.loads(text), raising error("invalid JSON: ...") on a decode error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise error(f"invalid JSON: {e}") from e


def rat(x) -> Fraction:
    """Coerce ints (not bools), Fractions and strings like '3/4' to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _rat_row(row) -> tuple:
    """row as a tuple of Fractions; a row that holds only Fractions is kept
    as it is, without a per-entry call."""
    row = tuple(row)
    return row if _FRACTION_ONLY.issuperset(map(type, row)) else tuple(map(rat, row))


def rat_str(x: Fraction) -> str:
    """Serialize a Fraction as 'p' or 'p/q' (used by all JSON formats)."""
    x = rat(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class RatMatrix:
    """An immutable rows x cols matrix of exact rationals, int or Fraction
    entries (the public constructor stores Fractions)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable], cols: Optional[int] = None):
        rows = tuple(map(_rat_row, data))
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows in matrix data")
            if cols is not None and cols != ncols:
                raise ValueError("explicit cols disagrees with row length")
        else:
            if cols is None:
                cols = 0
            ncols = cols
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "data", rows)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("RatMatrix is immutable")

    @staticmethod
    def _wrap(data, cols: int) -> "RatMatrix":
        """Trusted constructor: data is already a sequence of equal-length
        sequences of exact rationals, ints or Fractions (this class's own
        output, or integer samples), stored without re-checking any entry."""
        m = object.__new__(RatMatrix)
        object.__setattr__(m, "rows", len(data))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "data", tuple(map(tuple, data)))
        return m

    # -- constructors -------------------------------------------------
    @staticmethod
    def zeros(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix._wrap([(_ZERO,) * cols] * rows, cols)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix._wrap(
            [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)], n)

    @staticmethod
    def from_columns(columns: Sequence[Sequence], rows: Optional[int] = None) -> "RatMatrix":
        cols = [list(c) for c in columns]
        if cols:
            rows = len(cols[0])
        elif rows is None:
            rows = 0
        return RatMatrix([[cols[j][i] for j in range(len(cols))] for i in range(rows)],
                         cols=len(cols))

    @staticmethod
    def column(entries: Sequence) -> "RatMatrix":
        return RatMatrix([[x] for x in entries], cols=1)

    # -- access -------------------------------------------------------
    def col(self, j: int) -> tuple:
        return tuple(self.data[i][j] for i in range(self.rows))

    def to_lists(self):
        return [list(r) for r in self.data]

    def to_floats(self):
        return [[float(x) for x in r] for r in self.data]

    # -- algebra ------------------------------------------------------
    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        nonzero = [[(j, b) for j, b in enumerate(row) if b] for row in other.data]
        out = []
        for r in self.data:
            orow = [_ZERO] * other.cols
            for a, nz in zip(r, nonzero):
                if nz and a:
                    for j, b in nz:
                        orow[j] += a * b
            out.append(orow)
        return RatMatrix._wrap(out, other.cols)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in +")
        return RatMatrix._wrap(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
            self.cols)

    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        return RatMatrix._wrap([[c * a for a in r] for r in self.data], self.cols)

    def transpose(self) -> "RatMatrix":
        return RatMatrix._wrap(list(zip(*self.data)) if self.rows else
                               [()] * self.cols, self.rows)

    def hstack(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return RatMatrix._wrap(
            [r1 + r2 for r1, r2 in zip(self.data, other.data)],
            self.cols + other.cols)

    # -- predicates ---------------------------------------------------
    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(not x for r in self.data for x in r)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self.shape == other.shape \
            and self.data == other.data

    def __hash__(self):
        return hash((self.shape, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(rat_str(x) for x in r) for r in self.data)
        return f"RatMatrix({self.rows}x{self.cols}: [{body}])"


def _primitive(row):
    """Integer row divided by the gcd of its entries, or None for a zero row."""
    g = gcd(*row)
    if not g:
        return None
    return row if g == 1 else [x // g for x in row]


def primitive_row(row):
    """The rational row (ints or Fractions) times the positive rational that
    makes it a primitive integer row (entries with gcd 1), as a new list;
    None if zero.  A row of ints needs no scaling."""
    if _INT_ONLY.issuperset(map(type, row)):
        return _primitive(list(row))
    den = lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (den // x.denominator) for x in row])


def _clear(row, pivot, c):
    """row minus a multiple of pivot, cross-multiplied so that column c
    cancels and nothing is divided, then made primitive (None if zero)."""
    a, b = pivot[c], row[c]
    g = gcd(a, b)
    return _primitive([a // g * x - b // g * y for x, y in zip(row, pivot)])


def _echelon(rows):
    """Forward fraction-free elimination (Bareiss, Math. Comp. 22, 1968) of
    rational rows (ints or Fractions), scaled to primitive integer rows.

    Column by column, the first remaining row with a nonzero entry becomes
    the pivot row and _clear removes the column from the rest.  Returns
    (pivot rows, pivot columns); pivot row k is zero before pivots[k] and at
    every earlier pivot.  No Fraction is built."""
    work = [prim for prim in map(primitive_row, rows) if prim is not None]
    echelon, pivots = [], []
    for c in range(len(work[0]) if work else 0):
        for i, pivot in enumerate(work):
            if pivot[c]:
                break
        else:
            continue
        del work[i]
        echelon.append(pivot)
        pivots.append(c)
        rest = []
        for row in work:
            if row[c]:
                row = _clear(row, pivot, c)
                if row is None:
                    continue
            rest.append(row)
        work = rest
        if not work:
            break
    return echelon, pivots


def reduced_echelon(rows):
    """_echelon followed by back-substitution: each pivot column is cleared
    from the pivot rows above it, last pivot first.  Returns (primitive
    integer rows, pivot columns); entry j of row k of the reduced row echelon
    form is Fraction(row[j], row[pivots[k]])."""
    echelon, pivots = _echelon(rows)
    for k in range(len(pivots) - 1, 0, -1):
        pivot, c = echelon[k], pivots[k]
        for i in range(k):
            if echelon[i][c]:
                echelon[i] = _clear(echelon[i], pivot, c)
    return echelon, pivots


def rref(m: RatMatrix):
    """Reduced row echelon form.

    Returns (rrefmatrix, pivot_columns).  The rank of m is len(pivot_columns).
    """
    echelon, pivots = reduced_echelon(m.data)
    data = [[Fraction(x, row[p]) for x in row] for row, p in zip(echelon, pivots)]
    data += [(_ZERO,) * m.cols] * (m.rows - len(data))
    return RatMatrix._wrap(data, m.cols), tuple(pivots)


def pivot_columns(rows: Iterable[Sequence]) -> tuple:
    """The pivot columns of the rref of the rational rows (the columns that
    are not combinations of earlier ones), from forward elimination alone."""
    return tuple(_echelon(rows)[1])


def rank_of_rows(rows: Iterable[Sequence]) -> int:
    """Exact rank of the rational rows (ints or Fractions); see pivot_columns."""
    return len(pivot_columns(rows))


def rank(m: RatMatrix) -> int:
    return rank_of_rows(m.data)


def nullspace(rows: Sequence[Sequence], ncols: int):
    """Kernel {v : rows v = 0} of rational rows (ints or Fractions) with ncols
    columns, as (vectors, free_columns).

    Each vector is a list of Fractions in the standard rref form: the vector
    attached to free column f has entry 1 at f and 0 at every other free
    column, so the coordinates of any kernel vector in this basis can be read
    off its values at the free columns.
    """
    echelon, pivots = reduced_echelon(rows)
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    vectors = []
    for f in free:
        v = [_ZERO] * ncols
        v[f] = _ONE
        for row, p in zip(echelon, pivots):
            if row[f]:
                v[p] = Fraction(-row[f], row[p])
        vectors.append(v)
    return vectors, free


def nullspace_basis(m: RatMatrix):
    """Basis of {v : m v = 0} as a list of column matrices (see nullspace)."""
    return [RatMatrix._wrap([[x] for x in v], 1) for v in nullspace(m.data, m.cols)[0]]


def solve(m: RatMatrix, b: RatMatrix) -> Optional[RatMatrix]:
    """A particular solution of m x = b, or None when inconsistent.

    b must be a column with m.rows entries; free variables are set to 0.
    """
    if b.cols != 1 or b.rows != m.rows:
        raise ValueError(f"right-hand side shape {b.shape} does not match {m.shape}")
    echelon, pivots = reduced_echelon(m.hstack(b).data)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [_ZERO] * m.cols
    for row, p in zip(echelon, pivots):
        x[p] = Fraction(row[m.cols], row[p])
    return RatMatrix._wrap([[v] for v in x], 1)
