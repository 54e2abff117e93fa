"""A test-only reference for exact elimination: textbook Gauss-Jordan over
`fractions.Fraction`, independent of the fraction-free routine in
`fproot.exactlin`.  Rows are lists of ints or Fractions with ncols entries.
"""

from fractions import Fraction


def gauss_jordan(rows, ncols):
    """(reduced rows, pivot columns) of the rows, every row kept: the rows
    after the last pivot row are zero."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        if inv != 1:
            rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def kernel(rows, ncols):
    """(vectors, free columns): the kernel vector of free column f is 1 at f,
    0 at the other free columns and minus the reduced entry at each pivot."""
    reduced, pivots = gauss_jordan(rows, ncols)
    free = [j for j in range(ncols) if j not in pivots]
    vectors = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        vectors.append(v)
    return vectors, free


def particular_solution(rows, b, ncols):
    """A solution of rows x = b with the free variables 0, or None."""
    reduced, pivots = gauss_jordan([list(r) + [y] for r, y in zip(rows, b)], ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = reduced[i][ncols]
    return x
