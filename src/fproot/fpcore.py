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
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .exactlin import RatMatrix
from .spectral import SpectralValue, rho_nonnegative_via_scc
from .quiver import Quiver, quiver_fpdim
from .algebra import BoundAlgebra
from . import repmod
from .repmod import Representation, ext_from_resolution, minimal_resolution

__version_tag__ = "fproot"


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
        n = len(objects)
        return RatMatrix(
            [[int(self.pair_dim(objects[i], objects[j], power)) for j in range(n)]
             for i in range(n)],
            cols=n,
        )


class ExtCalculator:
    """Memoized Ext dimensions over one algebra.

    Minimal resolutions are cached per module identity and reused across all
    requested degrees; the cache is only ever extended, so concurrent readers
    are safe as long as writes stay single-threaded (the CLI is sequential).
    """

    def __init__(self, algebra: BoundAlgebra):
        self.algebra = algebra
        # keyed by the module objects (identity hash); the dict keeps them
        # alive, so keys are never recycled
        self._res: Dict[Representation, object] = {}
        self._dims: Dict[tuple, int] = {}

    def resolution(self, m: Representation, depth: int):
        res = self._res.get(m)
        if res is not None and (res.length is not None
                                or len(res.steps) >= depth + 1):
            return res
        res = minimal_resolution(m, depth)
        self._res[m] = res
        return res

    def ext(self, power: int, m: Representation, n: Representation) -> int:
        key = (power, m, n)
        if key not in self._dims:
            if power == 0:
                self._dims[key] = repmod.hom_dim(m, n)
            else:
                res = self.resolution(m, power + 1)
                self._dims[key] = ext_from_resolution(res, n, power)
        return self._dims[key]


def ext_assignment(algebra: BoundAlgebra, calculator: Optional[ExtCalculator] = None) -> Assignment:
    """The assignment family (X, Y) -> dim Ext^power(X, Y), power 0 = Hom."""
    calc = calculator or ExtCalculator(algebra)
    return Assignment("Ext", lambda x, y, p: calc.ext(p, x, y))


# ---------------------------------------------------------------------------
# brick sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BrickSet:
    members: tuple
    certificate: RatMatrix  # the pairwise Hom-dimension matrix

    def names(self):
        return tuple(getattr(m, "name", str(m)) for m in self.members)


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
    n = len(objects)
    for i in range(n):
        for j in range(n):
            want = 1 if i == j else 0
            got = int(h.data[i][j])
            if got != want:
                return BrickSetViolation((i, j), got, want)
    return BrickSet(tuple(objects), h)


def adjacency_of(phi: BrickSet, assignment: Assignment, power: int = 1) -> RatMatrix:
    """Matrix with entry (i, j) = dim of assignment at the given power from
    member i to member j."""
    return assignment.matrix(phi.members, power)


def _brick_subsets(hom_matrix: RatMatrix, max_size: int):
    """Indices of all brick subsets of a candidate family, by DFS extension.

    Candidate i participates at all iff hom[i][i] == 1; a pair (i, j) is
    compatible iff hom[i][j] == hom[j][i] == 0.
    """
    n = hom_matrix.rows
    bricks = [i for i in range(n) if hom_matrix.data[i][i] == 1]
    compat = [[hom_matrix.data[i][j] == 0 and hom_matrix.data[j][i] == 0
               for j in range(n)] for i in range(n)]
    out: List[Tuple[int, ...]] = []

    def extend(current: Tuple[int, ...], start: int):
        if current:
            out.append(current)
        if len(current) == max_size:
            return
        for k in range(start, len(bricks)):
            i = bricks[k]
            if all(compat[i][j] for j in current):
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
    dim_budget: Optional[int] = None
    extra: dict = field(default_factory=dict)

    def as_dict(self):
        d = {"max_set_size": self.max_set_size, "max_power": self.max_power}
        if self.dim_budget is not None:
            d["dim_budget"] = self.dim_budget
        d.update(self.extra)
        return d


@dataclass
class GrowthEstimate:
    fpg: float            # limsup proxy of log_n(a_n)
    fpv: float            # limsup proxy of a_n^(1/n)
    window: Tuple[int, int]
    values: List[float]

    def as_dict(self):
        return {"fpg": self.fpg, "fpv": self.fpv,
                "window": list(self.window)}


def growth_analyze(seq: Sequence[float], start_index: int = 1) -> GrowthEstimate:
    """Growth and curvature estimates from a finite window.

    The limsup proxies take the max over the last half of the window:
    fpg from log(a_n)/log(n) (log_n 0 = -inf), fpv from a_n^(1/n).
    """
    vals = [float(x) for x in seq]
    if len(vals) < 4:
        raise ValueError("growth analysis needs at least 4 values")
    if any(x < 0 for x in vals):
        raise ValueError("growth analysis needs nonnegative values")
    ns = list(range(start_index, start_index + len(vals)))
    half = len(vals) // 2
    tail = list(zip(ns[half:], vals[half:]))
    fpg = -math.inf
    fpv = 0.0
    for n, a in tail:
        if n >= 2:
            fpg = max(fpg, math.log(a) / math.log(n) if a > 0 else -math.inf)
        if a > 0:
            fpv = max(fpv, a ** (1.0 / n))
    return GrowthEstimate(fpg, fpv, (ns[half], ns[-1]), vals)


@dataclass
class FpCell:
    set_size: int
    power: int
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
    truncated: bool = False

    def value(self, set_size: int, power: int) -> SpectralValue:
        return self.cells[(set_size, power)].value

    def as_dict(self):
        grid = []
        for (n, m), cell in sorted(self.cells.items()):
            grid.append({
                "set_size": n,
                "power": m,
                "value": cell.value.value,
                "certified": cell.value.certified,
                "tolerance": cell.value.tolerance,
                "witness": list(cell.witness),
            })
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
            "truncated": self.truncated,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        powers = sorted({m for (_, m) in self.cells})
        w.writerow(["set_size"] + [f"power_{m}" for m in powers])
        sizes = sorted({n for (n, _) in self.cells})
        for n in sizes:
            w.writerow([n] + [self.cells[(n, m)].value.value for m in powers])
        return buf.getvalue()


def _fill_grid(subsets: Sequence[tuple], matrix: Callable, witness: Callable,
               max_size: int, budgets: FpBudgets, assignment_name: str,
               candidate_names: List[str], truncated: bool = False) -> FpReport:
    """Fill the grid fpdim^n(sigma^m) for n <= max_size and
    m <= budgets.max_power over the given brick subsets, plus aggregates.

    matrix(subset, m) is the subset's adjacency at power m as a tuple of
    integer rows, and witness(subset) names its members.  Each cell keeps the
    first subset of its size with the largest radius; a size without subsets
    gets a certified 0 and no witness.

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
        for sub in subsets:
            rows = matrix(sub, m)
            r = rho_cache.get(rows)
            if r is None:
                r = rho_nonnegative_via_scc(RatMatrix(rows, cols=len(rows)))
                rho_cache[rows] = r
            if r.value > best[len(rows)][0].value:
                best[len(rows)] = (r, sub)
        for n, (val, sub) in best.items():
            cells[(n, m)] = FpCell(n, m, val, witness(sub))

    col1 = [cells[(n, 1)].value.value for n in range(1, N + 1)] if M >= 1 else []
    fpdim = max(col1, default=0.0)
    # the running max first reaches fpdim at the first value that does
    si = next((n for n, v in enumerate(col1, start=1)
               if abs(v - fpdim) <= 1e-12), None)
    nonzero_powers = [m for m in range(M + 1)
                      if any(cells[(n, m)].value.value > 1e-9 for n in range(1, N + 1))]
    growth = None
    if M >= 4:
        seq = [max(cells[(n, m)].value.value for n in range(1, N + 1))
               for m in range(1, M + 1)]
        growth = growth_analyze(seq, start_index=1)

    return FpReport(
        assignment_name=assignment_name,
        candidate_names=candidate_names,
        budgets=budgets,
        cells=cells,
        fpdim=fpdim,
        stabilization_index=si,
        fpgldim_window=max(nonzero_powers, default=None),
        growth=growth,
        truncated=truncated,
    )


def fp_report(candidates: Sequence, assignment: Assignment,
              budgets: FpBudgets = FpBudgets(), truncated: bool = False) -> FpReport:
    """Fill the full grid fpdim^n(sigma^m) for n <= max_set_size and
    m <= max_power over the brick subsets of the given candidates (see
    _fill_grid for the aggregates)."""
    N = min(budgets.max_set_size, len(candidates))
    h = assignment.matrix(candidates, 0)
    mats = [h.data] + [assignment.matrix(candidates, m).data
                       for m in range(1, budgets.max_power + 1)]

    def matrix(idx, m):
        return tuple(tuple(int(mats[m][i][j]) for j in idx) for i in idx)

    def witness(idx):
        return tuple(getattr(candidates[i], "name", str(candidates[i]))
                     for i in idx)

    return _fill_grid(_brick_subsets(h, N), matrix, witness, N, budgets,
                      assignment.name,
                      [getattr(c, "name", str(c)) for c in candidates],
                      truncated)


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
    names = []
    seen = set()
    for i, c in enumerate(candidates):
        base = getattr(c, "name", str(i))
        name = base
        k = 1
        while name in seen:
            name = f"{base}#{k}"
            k += 1
        seen.add(name)
        names.append(name)
    d = assignment.matrix(candidates, power)
    arrows = []
    for i in range(len(candidates)):
        for j in range(len(candidates)):
            for k in range(int(d.data[i][j])):
                arrows.append((f"x{i}_{j}_{k}", names[i], names[j]))
    return Quiver(names, arrows)


@dataclass
class QuiverBoundReport:
    fpdim_value: float
    quiver_value: float
    holds: bool


def sigma_quiver_bound_check(candidates: Sequence, assignment: Assignment,
                             tol: float = 1e-9) -> QuiverBoundReport:
    """Check fpdim(sigma) <= fpdim of the sigma-quiver on the candidate
    universe (both sides computed at the same budgets)."""
    report = fp_report(candidates, assignment,
                       FpBudgets(max_set_size=len(candidates), max_power=1))
    lhs = report.fpdim
    rhs = quiver_fpdim(ext1_quiver(candidates, assignment)).value
    return QuiverBoundReport(lhs, rhs, lhs <= rhs + tol)


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
    out = [()]
    frontier = [()]
    while frontier:
        new = []
        for pat in frontier:
            if len(pat) + 1 >= max_size:
                continue
            for g in range(1, cap + 1):
                cand = pat + (g,)
                if sum(cand) <= width:
                    new.append(cand)
        out.extend(new)
        frontier = new
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
        pos = [0]
        for g in pat:
            pos.append(pos[-1] + g)
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

def _capped_growth_summary(values: Sequence[float]) -> Tuple[float, float, float]:
    """(fpg-or-conventions, fpv, raw fpg) for a window of Ext dimensions.

    Eventually-zero windows give growth 0 by the finite-global-dimension
    convention; curvature above 1 flags exponential growth (infinite
    complexity).
    """
    g = growth_analyze(values)
    half = len(values) // 2
    if all(v == 0 for v in values[half:]):
        return 0.0, g.fpv, g.fpg
    if g.fpv > 1.0 + 1e-6:
        return math.inf, g.fpv, g.fpg
    return g.fpg + 1.0, g.fpv, g.fpg


@dataclass
class AGCResult:
    holds: bool
    constant: int
    radius: int
    first_violation: Optional[Tuple[int, str, str]]


@dataclass
class ComplexityReport:
    ext_table: dict                       # (i, j) -> [dim Ext^n(S_i, S_j)]
    sequence: List[int]                   # dim Ext^n(T, T)
    cx_estimate: float
    fpv_estimate: float
    agc: AGCResult


def complexity_estimate(alg: BoundAlgebra, depth: int,
                        agc_constant: int = 2, agc_radius: int = 2) -> ComplexityReport:
    """Complexity of the algebra from the Ext window of its simples.

    cx = limsup log_n dim Ext^n(T, T) + 1 with T the direct sum of the
    simples; the limsup is proxied on the last half window, an exponential
    window (curvature > 1) is flagged as infinite, and an eventually zero
    window gives 0.  The averaging growth condition is checked for the given
    constant and radius over the same window.
    """
    if depth < 4:
        raise ValueError("complexity estimation needs depth >= 4")
    table = repmod.ext_simple_table(alg, depth)
    verts = list(alg.quiver.vertices)
    seq = [sum(table[(i, j)][n] for i in verts for j in verts)
           for n in range(depth + 1)]
    cx, fpv, _ = _capped_growth_summary(seq[1:])

    # averaging growth condition over the window
    pmax = []
    for n in range(depth + 1):
        vals = []
        for a in range(len(verts)):
            for b in range(a, len(verts)):
                i, j = verts[a], verts[b]
                vals.append(min(table[(i, j)][n], table[(j, i)][n]))
        pmax.append(max(vals))
    holds = True
    violation = None
    for n in range(depth + 1):
        lo = max(0, n - agc_radius)
        hi = min(depth, n + agc_radius)
        bound = agc_constant * max(pmax[lo:hi + 1])
        for i in verts:
            for j in verts:
                if table[(i, j)][n] > bound:
                    holds = False
                    violation = (n, i, j)
                    break
            if violation:
                break
        if violation:
            break
    return ComplexityReport(table, seq, cx, fpv,
                            AGCResult(holds, agc_constant, agc_radius, violation))


@dataclass
class FpcCxReport:
    fpc_estimate: float
    cx_estimate: float
    holds: bool
    agc_holds: bool
    gap: Optional[float]


def fpc_vs_cx_check(alg: BoundAlgebra, depth: int = 10,
                    tolerance: float = 0.1) -> FpcCxReport:
    """Compare the fp-complexity estimate (growth of the Ext assignment over
    the simples, plus one) with the complexity estimate, asserting
    fpc <= cx within the estimator tolerance.

    Both estimates use the same conventions: 0 for eventually vanishing Ext
    windows and infinity when the curvature exceeds 1.
    """
    comp = complexity_estimate(alg, depth)
    sims = repmod.simples(alg)
    rep = fp_report(sims, ext_assignment(alg),
                    FpBudgets(max_set_size=len(sims), max_power=depth))
    fpc, _, _ = _capped_growth_summary(rep.growth.values)
    if math.isinf(fpc) and math.isinf(comp.cx_estimate):
        holds, gap = True, 0.0
    else:
        holds = fpc <= comp.cx_estimate + tolerance
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
