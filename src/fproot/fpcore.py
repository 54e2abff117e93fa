"""The Frobenius-Perron engine.

Brick sets, adjacency matrices of (set, assignment) pairs, the fpdim family,
reports with growth/curvature estimates, hom-table categories, the
Ext^1-quiver upper bound, and the complexity comparison.

Everything a report claims is a certified lower bound for the categorical
supremum: the sup ranges over all brick sets, which is not enumerable, so
every report carries the budgets it was computed under.  Equality with a
theoretical value is only asserted where the supremum is provably attained
on the scanned family.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, count, product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .exactlin import RatMatrix
from .spectral import NUMERIC_TOL, SpectralValue, rho_nonnegative_via_scc
from .quiver import Quiver, quiver_fpdim
from .algebra import BoundAlgebra
from . import repmod
from .repmod import Representation, Resolution, ext_from_resolution


# ---------------------------------------------------------------------------
# assignments
# ---------------------------------------------------------------------------

class Assignment:
    """A power-indexed family of pairwise dimension functions.

    pair_dim(x, y, power) must return dim of the power-th functor applied as
    in the adjacency convention: entry (i, j) of the matrix of an ordered
    family is pair_dim(x_i, x_j, power).  Power 0 must be the plain Hom
    assignment, which is what the brick-set law is checked against.

    By construction the matrix of a subfamily is the corresponding principal
    submatrix of the full family's matrix.
    """

    def __init__(self, name: str, pair_dim: Callable):
        self.name = name
        self.pair_dim = pair_dim

    def matrix(self, objects: Sequence, power: int) -> RatMatrix:
        return RatMatrix([[int(self.pair_dim(x, y, power)) for y in objects]
                          for x in objects], cols=len(objects))


class ExtCalculator:
    """Memoized Ext dimensions over one algebra.

    Each module is resolved once, to depth m for Ext^m: its resolution is
    cached per module identity and extended in place (Resolution.extend).
    Ext^m(X, Y) = hom(Ω^m X, Y) - Σ_{v in gens P_{m-1}} dim Y_v + hom(Ω^{m-1}
    X, Y) (ext_from_resolution), each hom the power-0 entry of its syzygy
    here, shared by powers m and m + 1.  Writes must stay single-threaded.
    """

    def __init__(self, algebra: BoundAlgebra):
        self.algebra = algebra
        # keyed by the module objects (identity hash); the dict keeps them
        # alive, so keys are never recycled
        self._res: Dict[Representation, Resolution] = {}
        self._dims: Dict[tuple, int] = {}

    def resolution(self, m: Representation, depth: int) -> Resolution:
        if m not in self._res:
            self._res[m] = Resolution(m)
        return self._res[m].extend(depth)

    def ext(self, power: int, m: Representation, n: Representation) -> int:
        key = (power, m, n)
        if key not in self._dims:
            if power == 0:
                self._dims[key] = repmod.hom_dim(m, n)
            else:
                res = self.resolution(m, power)
                self._dims[key] = ext_from_resolution(res, n, power,
                                                      partial(self.ext, 0))
        return self._dims[key]


def ext_assignment(algebra: BoundAlgebra) -> Assignment:
    """The assignment family (X, Y) -> dim Ext^power(X, Y), power 0 = Hom."""
    calc = ExtCalculator(algebra)
    return Assignment("Ext", lambda x, y, p: calc.ext(p, x, y))


# ---------------------------------------------------------------------------
# brick sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BrickSet:
    members: tuple
    certificate: RatMatrix  # the pairwise Hom-dimension matrix


@dataclass(frozen=True)
class BrickSetViolation:
    index_pair: Tuple[int, int]
    observed: int
    expected: int


def verify_brick_set(objects: Sequence, assignment: Assignment):
    """Check the Kronecker-delta law dim Hom(X_i, X_j) = delta_ij.

    Returns a BrickSet certificate, or the first BrickSetViolation found.
    Violations are data, not errors.
    """
    if not objects:
        raise ValueError("a brick set is a nonempty family")
    h = assignment.matrix(objects, 0)
    for i, j in product(range(len(objects)), repeat=2):
        if h.data[i][j] != (i == j):
            return BrickSetViolation((i, j), h.data[i][j], int(i == j))
    return BrickSet(tuple(objects), h)


def adjacency_of(phi: BrickSet, assignment: Assignment, power: int = 1) -> RatMatrix:
    """Matrix with entry (i, j) = dim of assignment at the given power from
    member i to member j."""
    return assignment.matrix(phi.members, power)


def _brick_subsets(n: int, hom: Callable[[int, int], int], max_size: int):
    """Indices of all brick subsets of a family of n candidates, by DFS
    extension, reading hom(i, j) = dim Hom(X_i, X_j) only where it decides.

    Candidate i participates at all iff hom(i, i) == 1; a pair of bricks
    i < j is compatible iff hom(i, j) == hom(j, i) == 0, the reverse read
    only after a zero forward entry, and only when subsets of two fit.
    """
    bricks = [i for i in range(n) if hom(i, i) == 1]
    compat = {(i, j) for k, i in enumerate(bricks) for j in bricks[k + 1:]
              if max_size > 1 and hom(i, j) == 0 and hom(j, i) == 0}
    out: List[Tuple[int, ...]] = []

    def extend(current: Tuple[int, ...], start: int):
        if current:
            out.append(current)
        if len(current) == max_size:
            return
        for k in range(start, len(bricks)):
            i = bricks[k]
            if all((j, i) in compat for j in current):
                extend(current + (i,), k + 1)

    extend((), 0)
    return out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FpBudgets:
    max_set_size: int = 4
    max_power: int = 1
    extra: dict = field(default_factory=dict)

    def as_dict(self):
        return {"max_set_size": self.max_set_size, "max_power": self.max_power,
                **self.extra}


@dataclass
class GrowthEstimate:
    fpg: float            # limsup proxy of log_n(a_n)
    fpv: float            # limsup proxy of a_n^(1/n)
    window: Tuple[int, int]
    values: List[float]

    def as_dict(self):
        return {"fpg": self.fpg, "fpv": self.fpv,
                "window": list(self.window)}


def growth_analyze(seq: Sequence[float]) -> GrowthEstimate:
    """Growth and curvature estimates from a finite window.

    The limsup proxies take the max over the last half of the window, with
    n counted from 1: fpg from log(a_n)/log(n) (log_n 0 = -inf), fpv from
    a_n^(1/n).  A count beyond the double range stays an int, whose logs
    math.log takes exactly.
    """
    vals = [float(x) if x <= sys.float_info.max else x for x in seq]
    if len(vals) < 4:
        raise ValueError("growth analysis needs at least 4 values")
    if any(x < 0 for x in vals):
        raise ValueError("growth analysis needs nonnegative values")
    half = len(vals) // 2
    fpg, fpv = -math.inf, 0.0
    for n, a in list(enumerate(vals, 1))[half:]:
        if n >= 2:
            fpg = max(fpg, math.log(a) / math.log(n) if a > 0 else -math.inf)
        if a > 0:
            fpv = max(fpv, a ** (1.0 / n) if isinstance(a, float)
                      else math.exp(math.log(a) / n))
    return GrowthEstimate(fpg, fpv, (half + 1, len(vals)), vals)


@dataclass
class FpCell:
    """One grid entry; FpReport.cells keys it by (set size, power)."""
    value: SpectralValue
    witness: Tuple[str, ...]


@dataclass
class FpReport:
    """The (set size, functor power) grid of fp dimensions plus aggregates.

    Grid entries are suprema over the scanned brick sets only; the report
    always embeds its budgets, so every value is a certified lower bound for
    the categorical supremum at those budgets.
    """

    assignment_name: str
    candidate_names: List[str]
    budgets: FpBudgets
    cells: Dict[Tuple[int, int], FpCell]
    fpdim: float
    stabilization_index: Optional[int]
    fpgldim_window: Optional[int]
    growth: Optional[GrowthEstimate]

    def value(self, set_size: int, power: int) -> SpectralValue:
        return self.cells[(set_size, power)].value

    def as_dict(self):
        grid = [{"set_size": n, "power": m, "value": cell.value.value,
                 "certified": cell.value.certified, "tolerance": cell.value.tolerance,
                 "witness": list(cell.witness)}
                for (n, m), cell in sorted(self.cells.items())]
        return {
            "assignment": self.assignment_name,
            "budgets": self.budgets.as_dict(),
            "candidates": list(self.candidate_names),
            "grid": grid,
            "aggregates": {
                "fpdim": self.fpdim,
                "stabilization_index": self.stabilization_index,
                "fpgldim_window": self.fpgldim_window,
                "growth": self.growth.as_dict() if self.growth else None,
            },
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        powers = sorted({m for (_, m) in self.cells})
        w.writerow(["set_size"] + [f"power_{m}" for m in powers])
        for n in sorted({n for (n, _) in self.cells}):
            w.writerow([n] + [self.cells[(n, m)].value.value for m in powers])
        return buf.getvalue()


def _fill_grid(subsets: Sequence[tuple], matrix: Callable, witness: Callable,
               max_size: int, budgets: FpBudgets, assignment_name: str,
               candidate_names: List[str]) -> FpReport:
    """Fill the grid fpdim^n(sigma^m) for n <= max_size and
    m <= budgets.max_power over the given brick subsets, plus aggregates.

    matrix(subset, m) is the subset's adjacency at power m >= 1 as a tuple of
    integer rows, and witness(subset) names its members.  Each cell keeps the
    first subset of its size with the largest radius; a size without subsets
    gets a certified 0 and no witness.  At power 0 a brick subset's matrix is
    the identity, of certified radius 1, so that column needs no matrix.

    Aggregates: fpdim is the best value in the power-1 column; the
    stabilization index is the least set size at which the running max of
    that column reaches its final value; the growth section feeds the
    sequence m -> max_n grid[n][m] (m >= 1) to the growth analyzer;
    fpgldim_window is the largest power with a nonzero column, a windowed
    view of sup{m >= 0 : fpdim(sigma^m) != 0}.
    """
    N, M = max_size, budgets.max_power
    cells: Dict[Tuple[int, int], FpCell] = {}
    rho_cache: Dict[tuple, SpectralValue] = {}
    for m in range(M + 1):
        best: Dict[int, Tuple[SpectralValue, tuple]] = {
            n: (SpectralValue(0.0, True, 0.0), ()) for n in range(1, N + 1)}
        for sub in reversed(subsets) if m == 0 else ():  # identities; first wins
            best[len(sub)] = (SpectralValue(1.0, True, 0.0), sub)
        for sub in subsets if m else ():
            rows = matrix(sub, m)
            r = rho_cache.get(rows)
            if r is None:
                r = rho_nonnegative_via_scc(RatMatrix(rows, len(rows)))
                rho_cache[rows] = r
            if r.value > best[len(rows)][0].value:
                best[len(rows)] = (r, sub)
        for n, (val, sub) in best.items():
            cells[(n, m)] = FpCell(val, witness(sub))

    col_max = [max((cells[(n, m)].value.value for n in range(1, N + 1)), default=0.0)
               for m in range(M + 1)]
    fpdim = col_max[1] if M >= 1 else 0.0
    # the running max first reaches fpdim at the first value that does
    si = next((n for n in range(1, N + 1) if M >= 1
               and abs(cells[(n, 1)].value.value - fpdim) <= 1e-12), None)
    return FpReport(
        assignment_name=assignment_name,
        candidate_names=candidate_names,
        budgets=budgets,
        cells=cells,
        fpdim=fpdim,
        stabilization_index=si,
        fpgldim_window=max((m for m, v in enumerate(col_max) if v > 1e-9), default=None),
        growth=growth_analyze(col_max[1:]) if M >= 4 else None,
    )


def fp_report(candidates: Sequence, assignment: Assignment,
              budgets: FpBudgets = FpBudgets()) -> FpReport:
    """Fill the grid fpdim^n(sigma^m) for n <= max_set_size and m <= max_power
    over the brick subsets of the given candidates (see _fill_grid for the
    aggregates).  Hom (power 0) is read only where it picks the subsets (see
    _brick_subsets) and a power m >= 1 only at the pairs some subset reads:
    the diagonal of each brick and the pairs of bricks with Hom vanishing
    both ways.  The other entries are never read and are left as None."""
    N = min(budgets.max_set_size, len(candidates))
    subsets = _brick_subsets(len(candidates), lambda i, j: int(assignment.pair_dim(
        candidates[i], candidates[j], 0)), N)
    read = {(i, j) for sub in subsets for i in sub for j in sub}
    mats = [None] + [[[int(assignment.pair_dim(x, y, m)) if (i, j) in read else None
                       for j, y in enumerate(candidates)]
                      for i, x in enumerate(candidates)]
                     for m in range(1, budgets.max_power + 1)]

    def matrix(idx, m):
        return tuple(tuple(mats[m][i][j] for j in idx) for i in idx)

    names = [getattr(c, "name", str(c)) for c in candidates]
    return _fill_grid(subsets, matrix, lambda idx: tuple(names[i] for i in idx),
                      N, budgets, assignment.name, names)


def fpdim_n(n: int, candidates: Sequence, assignment: Assignment,
            power: int = 1) -> SpectralValue:
    """sup of the spectral radius over all n-element brick subsets of the
    candidates (0 when there are none)."""
    if n < 1:
        raise ValueError("set size must be >= 1")
    report = fp_report(candidates, assignment,
                       FpBudgets(max_set_size=n, max_power=power))
    cell = report.cells.get((n, power))
    return cell.value if cell else SpectralValue(0.0, True, 0.0)


# ---------------------------------------------------------------------------
# the sigma-quiver bound
# ---------------------------------------------------------------------------

def ext1_quiver(candidates: Sequence, assignment: Assignment,
                power: int = 1) -> Quiver:
    """The quiver with one vertex per brick candidate and
    dim(X, sigma(Y)) arrows X -> Y."""
    h = assignment.matrix(candidates, 0)
    for i in range(len(candidates)):
        if h.data[i][i] != 1:
            raise ValueError(
                f"candidate {i} is not a brick (End dim {h.data[i][i]})")
    names = []  # a repeated name gets the first free suffix #1, #2, ...
    for i, c in enumerate(candidates):
        base = getattr(c, "name", str(i))
        k = next(k for k in count() if (f"{base}#{k}" if k else base) not in names)
        names.append(f"{base}#{k}" if k else base)
    d = assignment.matrix(candidates, power)
    return Quiver(names, [(f"x{i}_{j}_{k}", names[i], names[j])
                          for i in range(len(candidates)) for j in range(len(candidates))
                          for k in range(d.data[i][j])])


@dataclass
class QuiverBoundReport:
    fpdim_value: float
    quiver_value: float
    holds: bool


def sigma_quiver_bound_check(candidates: Sequence,
                             assignment: Assignment) -> QuiverBoundReport:
    """Check fpdim(sigma) <= fpdim of the sigma-quiver on the candidate
    universe (both sides computed at the same budgets), up to the declared
    tolerance of an uncertified radius (spectral.NUMERIC_TOL)."""
    report = fp_report(candidates, assignment,
                       FpBudgets(max_set_size=len(candidates), max_power=1))
    lhs = report.fpdim
    rhs = quiver_fpdim(ext1_quiver(candidates, assignment)).value
    return QuiverBoundReport(lhs, rhs, lhs <= rhs + NUMERIC_TOL)


# ---------------------------------------------------------------------------
# hom-table categories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomTableCategory:
    """An integer-indexed object family with a hom-dimension table and the
    index-shift functor action.

    difference, when set, certifies homdim(i, j) = difference(j - i) with
    difference vanishing beyond the declared band (|d| > band), which unlocks
    the exact gap-pattern scan over arbitrary windows.
    """

    lo: int
    hi: int
    homdim: Callable[[int, int], int]
    difference: Optional[Callable[[int], int]] = None
    band: Optional[int] = None

    def objects(self):
        return list(range(self.lo, self.hi + 1))


def table_from_difference(lo: int, hi: int, difference: Callable[[int], int],
                          band: int) -> HomTableCategory:
    for d in (band + 1, -band - 1, band + 7, -band - 7):
        if difference(d) != 0:
            raise ValueError(f"difference profile is nonzero at {d}, "
                             f"outside the declared band {band}")
    return HomTableCategory(lo, hi, lambda i, j: difference(j - i),
                            difference, band)


def dual_numbers_shift_table(lo: int = -20, hi: int = 20) -> HomTableCategory:
    """Graded free modules over the dual numbers under degree shift: one
    dimension of Hom to the same and the next index, zero elsewhere."""
    return table_from_difference(lo, hi, lambda d: 1 if d in (0, 1) else 0,
                                 band=1)


class _IndexObj:
    __slots__ = ("i", "name")

    def __init__(self, i):
        self.i = i
        self.name = f"A({i})"


def shift_assignment(table: HomTableCategory, shift: int) -> Assignment:
    return Assignment(f"shift{shift:+d}",
                      lambda x, y, p: table.homdim(x.i, y.i + shift * p))


def _gap_patterns(max_size: int, cap: int, width: int):
    """All capped gap tuples (g_1..g_{k-1}), g >= 1, realizable in a window
    of the given width; a capped value records 'gap >= cap'."""
    out = frontier = [()]
    while frontier:
        frontier = [pat + (g,) for pat in frontier if len(pat) + 1 < max_size
                    for g in range(1, cap + 1) if sum(pat) + g <= width]
        out = out + frontier
    return out


def homtable_fp(table: HomTableCategory, shift: int,
                budgets: FpBudgets = FpBudgets(max_set_size=5, max_power=1)) -> FpReport:
    """Run the fp engine over index subsets of the table window, with the
    assignment homdim(i, j + shift * power).

    With a declared difference profile the scan runs over capped gap
    patterns, which is exact and independent of the window length; otherwise
    it enumerates subsets of the window directly.
    """
    if table.difference is None or table.band is None:
        objs = [_IndexObj(i) for i in table.objects()]
        return fp_report(objs, shift_assignment(table, shift), budgets)

    f = table.difference
    N = budgets.max_set_size
    # a capped gap makes every probed argument land outside the band
    probe = table.band + abs(shift) * budgets.max_power + 1

    bricks = []
    for pat in _gap_patterns(N, probe, table.hi - table.lo):
        pos = [0, *accumulate(pat)]
        if f(0) == 1 and all(f(b - a) == 0 for a in pos for b in pos if a != b):
            bricks.append(pos)
    return _fill_grid(
        bricks,
        lambda pos, m: tuple(tuple(f(b - a + shift * m) for b in pos) for a in pos),
        lambda pos: tuple(f"A({table.lo + p})" for p in pos),
        N, budgets, f"shift{shift:+d}", [f"A({i})" for i in table.objects()])


# ---------------------------------------------------------------------------
# complexity
# ---------------------------------------------------------------------------

def _capped_growth_summary(values: Sequence[float]) -> Tuple[float, float]:
    """(fpg-or-conventions, fpv) for a window of Ext dimensions.

    Eventually-zero windows give growth 0 by the finite-global-dimension
    convention; curvature above 1 flags exponential growth (infinite
    complexity).
    """
    g = growth_analyze(values)
    half = len(values) // 2
    if all(v == 0 for v in values[half:]):
        return 0.0, g.fpv
    if g.fpv > 1.0 + 1e-6:
        return math.inf, g.fpv
    return g.fpg + 1.0, g.fpv


@dataclass
class AGCResult:
    holds: bool
    first_violation: Optional[Tuple[int, str, str]]


@dataclass
class ComplexityReport:
    ext_table: dict                       # (i, j) -> [dim Ext^n(S_i, S_j)]
    sequence: List[int]                   # dim Ext^n(T, T)
    cx_estimate: float
    fpv_estimate: float
    agc: AGCResult


def complexity_estimate(alg: BoundAlgebra, depth: int) -> ComplexityReport:
    """Complexity of the algebra from the Ext window of its simples, read from
    repmod.ext_simple_table: Anick chain counts, exact at any depth, on a
    monomial algebra, and linear minimal resolutions otherwise.

    cx = limsup log_n dim Ext^n(T, T) + 1 with T the direct sum of the
    simples; the limsup is proxied on the last half window, an exponential
    window (curvature > 1) is flagged as infinite, and an eventually zero
    window gives 0.  The averaging growth condition (each entry at most twice
    the largest pmax within 2 steps) is checked over the same window.
    """
    if depth < 4:
        raise ValueError("complexity estimation needs depth >= 4")
    table = repmod.ext_simple_table(alg, depth)
    verts = list(alg.quiver.vertices)
    seq = [sum(table[(i, j)][n] for i in verts for j in verts)
           for n in range(depth + 1)]
    cx, fpv = _capped_growth_summary(seq[1:])

    # averaging growth condition over the window; no vertices, no Ext
    pmax = [max((min(table[(i, j)][n], table[(j, i)][n])
                 for a, i in enumerate(verts) for j in verts[a:]), default=0)
            for n in range(depth + 1)]
    bound = [2 * max(pmax[max(0, n - 2):n + 3]) for n in range(depth + 1)]
    violation = next(((n, i, j) for n in range(depth + 1) for i in verts for j in verts
                      if table[(i, j)][n] > bound[n]), None)
    return ComplexityReport(table, seq, cx, fpv, AGCResult(violation is None, violation))


@dataclass
class FpcCxReport:
    fpc_estimate: float
    cx_estimate: float
    holds: bool
    agc_holds: bool
    gap: Optional[float]


def fpc_vs_cx_check(alg: BoundAlgebra, depth: int = 10) -> FpcCxReport:
    """Compare the fp-complexity estimate (growth of the Ext assignment over
    the simples, plus one) with the complexity estimate, asserting
    fpc <= cx within the estimators' tolerance of 0.1.

    Both estimates use the same conventions: 0 for eventually vanishing Ext
    windows and infinity when the curvature exceeds 1.
    """
    comp = complexity_estimate(alg, depth)
    sims = repmod.simples(alg)
    rep = fp_report(sims, ext_assignment(alg),
                    FpBudgets(max_set_size=len(sims), max_power=depth))
    fpc, _ = _capped_growth_summary(rep.growth.values)
    if math.isinf(fpc) and math.isinf(comp.cx_estimate):
        holds, gap = True, 0.0
    else:
        holds = fpc <= comp.cx_estimate + 0.1
        gap = comp.cx_estimate - fpc if not math.isinf(comp.cx_estimate) else None
    return FpcCxReport(fpc, comp.cx_estimate, holds, comp.agc.holds,
                       gap if comp.agc.holds else None)


# ---------------------------------------------------------------------------
# genus matrices
# ---------------------------------------------------------------------------

def genus_matrix(n: int, g: int) -> RatMatrix:
    """The n x n matrix with g on the diagonal and g-1 elsewhere; its Perron
    root is n(g-1) + 1 (the all-ones vector is an eigenvector)."""
    if n < 1 or g < 2:
        raise ValueError("need n >= 1 and genus g >= 2")
    return RatMatrix([[g if i == j else g - 1 for j in range(n)]
                      for i in range(n)], cols=n)
