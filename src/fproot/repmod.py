"""Representations of bound quiver algebras.

Hom spaces (exact intertwiner systems), brick tests, minimal projective
resolutions, Ext groups (ExtCalculator, the one Ext engine), the hereditary
Euler-form shortcut, the indecomposables of Dynkin path algebras by BGP
reflection functors, and the seeded brick scan behind `fproot fp-scan`
(scan_candidates).  The scan's row-level form of a module (see _hom_system)
is never read outside this module.

Convention: an arrow a: s -> t acts as a matrix V_s -> V_t, stored with
shape dim_t x dim_s; a morphism f satisfies f_t M_a = N_a f_s for every
arrow.  The classic one-parameter matrix recipes (identity, companion block,
stacked/slit identities) are transcribed under this convention.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, combinations_with_replacement, count
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .exactlin import (InputError, InvariantViolation, RatMatrix, dump_json,
                       json_array, load_json, nullspace, pivot_columns,
                       primitive_row, rank_of_rows, rat, rat_str)
from .algebra import DEFAULT_DIM_CAP, AlgebraError, BoundAlgebra, Path
from .quiver import QuiverError, _arrow_counts, positive_roots


class RepresentationError(InputError):
    pass


class Representation:
    """A module over a BoundAlgebra: one vector space per vertex, one matrix
    per arrow, with every relation evaluating to zero.  rows is its one stored
    form, the row-level module _hom_system reads: the nonzero dimensions in
    vertex order and, per quiver arrow, the given map's rows as entered (a
    RatMatrix's entries kept), None where no map was given; dimvec and maps
    are views of it.  A dimension must be an int; the slots are filled by
    _module, which the scan and dynkin_indecomposables call on rows alone."""

    __slots__ = ("algebra", "name", "rows")

    def __init__(self, algebra: BoundAlgebra, dimvec: Dict[str, int],
                 maps: Dict[str, RatMatrix], name: str = "", check: bool = True):
        q, rows = algebra.quiver, [None] * len(algebra.quiver.arrows)
        try:
            order = sorted(dimvec, key=q.vertex_index)
        except KeyError as e:
            raise RepresentationError(f"dimvec names unknown vertex {e.args[0]!r}") from None
        for v in order:
            if type(dimvec[v]) is not int:  # not a float, a bool or a string
                raise RepresentationError(
                    f"dimension at vertex {v!r} is not an integer: {dimvec[v]!r}")
            if dimvec[v] < 0:
                raise RepresentationError("negative dimension")
        support = {str(v): dimvec[v] for v in order if dimvec[v]}
        for label, m in maps.items():
            try:
                i = q.arrow_index(label)
            except QuiverError:
                raise RepresentationError(f"maps names unknown arrow {label!r}") from None
            if m is not None:
                a, m = q.arrows[i], m if isinstance(m, RatMatrix) else RatMatrix(m)
                shape = (support.get(a.target, 0), support.get(a.source, 0))
                if m.shape != shape:
                    raise RepresentationError(f"map for arrow {label} has shape "
                                              f"{m.shape}, expected {shape}")
                rows[i] = m.data
        _module(algebra, (support, tuple(rows)), name, self)
        if check and (rel := failing_relation(algebra, self.rows)) is not None:
            raise RepresentationError(f"relation {rel} does not vanish on {self.name}")

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Representation is immutable")

    @property
    def dimvec(self) -> Dict[str, int]:
        """The dimension at every vertex, zeros included (a fresh dict)."""
        return {v: self.rows[0].get(v, 0) for v in self.algebra.quiver.vertices}

    @property
    def maps(self) -> Dict[str, RatMatrix]:
        """The matrix of every arrow, a zero matrix where no map was given."""
        d, arrows = self.dimvec, self.algebra.quiver.arrows
        return {a.label: RatMatrix.zeros(d[a.target], d[a.source]) if r is None
                else RatMatrix(r, d[a.source]) for a, r in zip(arrows, self.rows[1])}

    def path_matrix(self, p: Path) -> RatMatrix:
        """Matrix of a path acting V_source -> V_target (identity if trivial),
        one path_column at a time."""
        d = self.rows[0]
        return RatMatrix.from_columns([self.path_column(p, j) for j in range(
            d.get(p.source, 0))], rows=d.get(p.target, 0))

    def path_column(self, p: Path, j: int) -> list:
        """Column j of path_matrix(p) (see _path_column), each entry as rat
        reads it; all zero when the path runs through a zero map."""
        d, maps = self.rows
        if not p.arrows:
            return [int(i == j) for i in range(d[p.source])]
        mats = [maps[i] for i in map(self.algebra.quiver.arrow_index, reversed(p.arrows))]
        return [0] * d.get(p.target, 0) if None in mats else list(map(rat, _path_column(mats, j)))

    @property
    def total_dim(self) -> int:
        return sum(self.rows[0].values())

    def is_zero(self) -> bool:
        return not self.rows[0]

    def __repr__(self):
        return f"Representation({self.name}, dimvec={self.dimvec})"


def _module(algebra: BoundAlgebra, rows, name: str = "", m=None) -> Representation:
    """The module of the row-level form rows (see _hom_system), unchecked:
    the one constructor every Representation ends in.  It fills the slots of
    m, a new Representation by default; an empty name becomes M(dims)."""
    m = object.__new__(Representation) if m is None else m
    object.__setattr__(m, "algebra", algebra)
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "name", name or f"M{tuple(m.dimvec.values())}")
    return m


def _path_column(mats, j: int) -> list:
    """Column j of the product of the row matrices mats, mats[0] applied
    first: the j-th basis vector pushed through one matrix at a time,
    skipping zero entries."""
    col = [row[j] for row in mats[0]]
    for rows in mats[1:]:
        nz = [(k, x) for k, x in enumerate(col) if x]
        col = [sum(row[k] * x for k, x in nz if row[k]) for row in rows]
    return col


def failing_relation(alg: BoundAlgebra, m):
    """The first relation of alg that does not act as zero on the row-level
    module m = (support, maps) (see _hom_system), or None.  Each relation is
    checked on its integer terms (alg.integer_relations), one basis vector of
    the source at a time, without path matrices; a term whose path runs
    through a zero map is skipped."""
    dims, maps = m
    for rel, int_rel in zip(alg.relations, alg.integer_relations):
        p0 = rel[0][1]
        if p0.source not in dims or p0.target not in dims:
            continue  # it maps into or out of a zero space
        terms = [(c, mats) for c, path in int_rel
                 if None not in (mats := [maps[i] for i in path])]
        for j in range(dims[p0.source] if terms else 0):
            acc = [0] * dims[p0.target]
            for c, mats in terms:
                for i, x in enumerate(_path_column(mats, j)):
                    if x:
                        acc[i] += c * x
            if any(acc):
                return rel
    return None


# ---------------------------------------------------------------------------
# simples / projectives / duals
# ---------------------------------------------------------------------------

def simple(algebra: BoundAlgebra, v) -> Representation:
    """The simple at v (RepresentationError for an unknown vertex)."""
    return Representation(algebra, {str(v): 1}, {}, name=f"S{v}")


def simples(algebra: BoundAlgebra) -> List[Representation]:
    return [simple(algebra, v) for v in algebra.quiver.vertices]


def _projective_of_multiset(alg: BoundAlgebra, gens: List[str]):
    """Basis layout of directsum_i P_{gens[i]} grouped by vertex; a vertex
    where the projective is zero has no key."""
    basis: Dict[str, List[Tuple[int, Path]]] = {}
    for i, v in enumerate(gens):
        for p in alg.basis_with_source(v):
            basis.setdefault(p.target, []).append((i, p))
    return basis


def _submodule_maps(alg: BoundAlgebra, basis, vectors, free) -> Dict[str, RatMatrix]:
    """Arrow matrices of the submodule spanned at each vertex w by vectors[w],
    sparse {(copy, path): coeff} over basis[w] in rref form with free columns
    free[w] (from nullspace): an image's coordinates are its entries at the
    target's free columns.  An arrow whose source has no vectors, whose target
    has no free columns, or whose matrix is zero is left out, so it is None."""
    maps = {}
    for a in alg.quiver.arrows:
        if a.source not in vectors or a.target not in free:
            continue
        index = {basis[a.target][f]: k for k, f in enumerate(free[a.target])}
        cols = vectors[a.source]
        m = [[0] * len(cols) for _ in index]
        for j, vec in enumerate(cols):
            for (copy, p), x in vec.items():
                for tp, c in alg.left_multiply(a.label, p).items():
                    k = index.get((copy, tp))
                    if k is not None:
                        m[k][j] += x * c
        if any(map(any, m)):
            maps[a.label] = RatMatrix([list(map(rat, r)) for r in m], cols=len(cols))
    return maps


def projective(algebra: BoundAlgebra, v) -> Representation:
    """The projective cover of the simple at v, realized on the basis paths
    with source v; an arrow acts by left multiplication reduced modulo the
    relation ideal."""
    v = str(v)
    try:
        algebra.quiver.vertex_index(v)
    except KeyError:
        raise AlgebraError(f"unknown vertex {v!r}") from None
    basis = _projective_of_multiset(algebra, [v])
    units = {w: [{bp: 1} for bp in b] for w, b in basis.items()}
    free = {w: range(len(b)) for w, b in basis.items()}
    return Representation(algebra, {w: len(b) for w, b in basis.items()},
                          _submodule_maps(algebra, basis, units, free),
                          name=f"P{v}")


def _top(m: Representation, w: str) -> List[int]:
    """The basis indices of m at w outside the pivots of its radical (the
    span of the columns of every arrow map into w); each lifts one
    generator of the top of m."""
    radical = [col for a, r in zip(m.algebra.quiver.arrows, m.rows[1])
               if a.target == w and r is not None for col in zip(*r)]
    covered = set(pivot_columns(radical))
    return [j for j in range(m.rows[0].get(w, 0)) if j not in covered]


def _socle(m: Representation, w: str) -> int:
    """dim soc m at w: the common kernel of the maps out of w (see _top)."""
    return m.rows[0].get(w, 0) - rank_of_rows([row for a, r in zip(
        m.algebra.quiver.arrows, m.rows[1]) if a.source == w and r for row in r])


def projective_cover_multiplicities(m: Representation) -> Dict[str, int]:
    """Multiplicity of each P_v in the projective cover, i.e. dim of the top
    at each vertex."""
    return {w: len(_top(m, w)) for w in m.algebra.quiver.vertices}


def dual_representation(m: Representation, op_algebra: BoundAlgebra) -> Representation:
    """The linear dual as a module over the opposite algebra: same dimension
    vector, every arrow matrix transposed."""
    maps = {label: f.transpose() for label, f in m.maps.items()}
    return Representation(op_algebra, m.rows[0], maps, name=f"D({m.name})")


# ---------------------------------------------------------------------------
# Hom spaces and bricks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomSpace:
    source: Representation
    target: Representation
    basis: Tuple[Dict[str, RatMatrix], ...]
    dim: int


def _hom_system(arrows, m, n):
    """The intertwiner equations f_t M_a = N_a f_s between row-level modules
    m and n as (rows, total, offsets).  A row-level module is (support, maps):
    its nonzero dimensions by vertex and, per arrow of arrows, the map's
    integer or rational rows, None for a zero map.  The unknowns are the
    entries of f_v (dim n_v x dim m_v, row-major) only at the vertices where
    both are nonzero, stacked from offsets[v]; total counts them.  An arrow
    with two zero maps gives no equation, and zero rows are dropped."""
    (dm, mm), (dn, mn) = m, n
    offsets, total = {}, 0
    for v, d in dm.items():
        if v in dn:
            offsets[v], total = total, total + dn[v] * d
    rows = []
    for a, Ma, Na in zip(arrows, mm, mn):
        s, t = a.source, a.target
        left, right = Ma is not None and t in offsets, Na is not None and s in offsets
        if not (left or right):  # neither f_t M_a nor N_a f_s has an unknown
            continue
        ms, mt = dm.get(s, 0), dm.get(t, 0)
        cols = list(zip(*Ma)) if left else [()] * ms
        for i in range(dn.get(t, 0)):
            Ni, base = Na[i] if right else (), offsets[t] + i * mt if left else 0
            for j, col in enumerate(cols):
                row = [0] * total
                row[base:base + len(col)] = col
                for l, x in enumerate(Ni):
                    if x:
                        row[offsets[s] + l * ms + j] -= x
                if any(row):
                    rows.append(row)
    return rows, total, offsets


def _vertex_maps(vec, offsets, dm, dn):
    """{v: rows of f_v} for a solution vec of _hom_system(.., (dm, ..), (dn, ..))."""
    return {v: [vec[o + i * dm[v]:o + (i + 1) * dm[v]] for i in range(dn[v])]
            for v, o in offsets.items()}


def _rows_of(m: Representation, n: Representation):
    if m.algebra is not n.algebra:
        raise RepresentationError("hom needs two modules over the same algebra")
    return m.algebra.quiver.arrows, m.rows, n.rows


def hom(m: Representation, n: Representation) -> HomSpace:
    """Solve the intertwiner system f_t M_a = N_a f_s exactly."""
    rows, total, offsets = _hom_system(*_rows_of(m, n))
    dm, dn = m.dimvec, n.dimvec
    fs = [_vertex_maps(vec, offsets, dm, dn) for vec in nullspace(rows, total)[0]]
    return HomSpace(m, n, tuple({v: RatMatrix(f.get(v, [()] * dn[v]), cols=d)
                                 for v, d in dm.items()} for f in fs), len(fs))


def hom_dim(m: Representation, n: Representation) -> int:
    """dim Hom(m, n): the nullity of the intertwiner system, by rank alone, on
    integers where the maps are."""
    rows, total, _ = _hom_system(*_rows_of(m, n))
    return total - rank_of_rows(rows)


def is_brick(m: Representation) -> bool:
    """True when End(m) is one dimensional."""
    if m.is_zero():
        raise RepresentationError("the zero module is not a brick")
    return hom_dim(m, m) == 1


def is_isomorphic_brick(m: Representation, n: Representation) -> bool:
    """Whether m is isomorphic to n and n is a brick, so for a brick n exactly
    whether m is isomorphic to it, from one Hom system; m need not be a
    brick.  An isomorphism spans Hom(m, n) = End(n) = k, so the two are
    isomorphic iff their supports match, dim Hom(m, n) = 1 and its generator
    has full rank at every vertex."""
    arrows, mr, nr = _rows_of(m, n)
    if mr[0] != nr[0]:
        return False
    rows, total, offsets = _hom_system(arrows, mr, nr)
    kernel, _ = nullspace(rows, total)
    return len(kernel) == 1 and all(rank_of_rows(f) == len(f) for f in _vertex_maps(
        kernel[0], offsets, mr[0], nr[0]).values())


def direct_sum(ms: Sequence[Representation]) -> Representation:
    if not ms:
        raise RepresentationError("direct sum of an empty family")
    alg = ms[0].algebra
    if any(m.algebra is not alg for m in ms):
        raise RepresentationError("direct sum needs a common algebra")
    views = [(m.dimvec, m.maps) for m in ms]
    dimvec = {v: sum(d[v] for d, _ in views) for v in alg.quiver.vertices}
    maps = {}
    for a in alg.quiver.arrows:  # block diagonal: each block's rows padded with zeros
        cols, big, c0 = dimvec[a.source], [], 0
        for d, mm in views:
            c = d[a.source]
            big += [[0] * c0 + list(row) + [0] * (cols - c0 - c) for row in mm[a.label].data]
            c0 += c
        maps[a.label] = RatMatrix(big, cols=cols)
    name = "+".join(m.name for m in ms)
    return Representation(alg, dimvec, maps, name=name, check=False)


# ---------------------------------------------------------------------------
# minimal projective resolutions and Ext
# ---------------------------------------------------------------------------

@dataclass
class ResolutionStep:
    """One projective P = directsum P_{v_i} in a resolution.

    generators:   vertex of each indecomposable summand, in order
    basis:        per vertex, the ordered list of (copy index, algebra path);
                  a vertex where P is zero has no key
    differential: per generator, its image in the basis of the previous step
                  as {(copy, path): coeff}; for step 0 the image is in the
                  resolved module, stored as {vertex: column vector}.
    module:       the module P covers: at step k the k-th syzygy Ω^k.
    """

    generators: List[str]
    basis: Dict[str, List[Tuple[int, Path]]]
    differential: list
    module: Representation = field(repr=False, compare=False)


class Resolution:
    """The minimal projective resolution of module, built to some depth.

    extend(depth) draws steps from the module's one resolution_steps
    generator until depth + 1 steps exist or they run out; only then is length
    known, so a resolution of length L reports None at depth L and L at L + 1.
    A finite resolution is exact, so it checks that sum_i (-1)^i dim P_i =
    dim module and raises InvariantViolation when it does not.
    """

    def __init__(self, module: Representation):
        self.module = module
        self.steps: List[ResolutionStep] = []
        self.length: Optional[int] = None  # index of the last nonzero step, None if truncated
        self._pending = resolution_steps(module)

    def extend(self, depth: int) -> "Resolution":
        while self.length is None and len(self.steps) < depth + 1:
            step = next(self._pending, None)
            if step is None:
                euler = sum((-1) ** i * sum(map(len, s.basis.values()))
                            for i, s in enumerate(self.steps))
                if euler != self.module.total_dim:
                    raise InvariantViolation(
                        f"the resolution of {self.module.name} has alternating "
                        f"dimension sum {euler}, not its dimension {self.module.total_dim}")
                self.length = len(self.steps) - 1
            else:
                self.steps.append(step)
        return self

    def multiplicities(self, i: int) -> Dict[str, int]:
        return dict(Counter(self.steps[i].generators)) if i < len(self.steps) else {}

    def multiplicity_pattern(self) -> List[Dict[str, int]]:
        return [self.multiplicities(i) for i in range(len(self.steps))]


def resolution_steps(m: Representation) -> Iterator[ResolutionStep]:
    """The steps of the minimal projective resolution of m, one at a time,
    ending after the last nonzero step.

    Each step is the projective cover of the previous syzygy, kept as sparse
    kernel vectors {(copy, path): coeff} over its projective's basis; a lift's
    differential entry is the syzygy vector it lifts.  Minimality (image
    inside the radical) is checked at every step and raises
    InvariantViolation when it fails.
    """
    alg = m.algebra
    current = m
    syzygy = None  # per vertex, the previous syzygy's vectors
    for step_idx in count():
        lifts = [(v, j) for v in current.rows[0] for j in _top(current, v)]
        if not lifts:
            return
        gens = [v for v, _ in lifts]
        basis = _projective_of_multiset(alg, gens)

        # differential of this step expressed over the previous step
        if syzygy is None:
            differential = [
                {v: tuple(int(t == j) for t in range(m.rows[0][v]))}
                for v, j in lifts]
        else:
            differential = [syzygy[v][j] for v, j in lifts]
            if any(not ppath.arrows for entry in differential for _, ppath in entry):
                raise InvariantViolation(
                    "minimality violated: differential leaves the radical")

        yield ResolutionStep(gens, basis, differential, current)

        # syzygy = kernel of the cover map, whose column (copy, path) at w is
        # the path acting on the lift
        syzygy, free = {}, {}
        for w, b in basis.items():
            cols = [current.path_column(p, lifts[copy][1]) for copy, p in b]
            kernel, free[w] = nullspace(list(zip(*cols)), len(cols))
            syzygy[w] = [{bp: x for bp, x in zip(b, vec) if x} for vec in kernel]
        current = Representation(alg, {w: len(vs) for w, vs in syzygy.items()},
                                 _submodule_maps(alg, basis, syzygy, free),
                                 name=f"syzygy{step_idx + 1}({m.name})",
                                 check=False)


def minimal_resolution(m: Representation, depth: int) -> Resolution:
    """Minimal projective resolution of m to the requested depth: the first
    depth + 1 steps of resolution_steps(m) (see Resolution.extend)."""
    if depth < 0:
        raise RepresentationError("depth must be >= 0")
    return Resolution(m).extend(depth)


def ext(i: int, m: Representation, n: Representation) -> int:
    """dim Ext^i(m, n), by a fresh ExtCalculator over m's algebra."""
    return ExtCalculator(m.algebra).ext(i, m, n)


def ext_from_resolution(res: Resolution, n: Representation, i: int, dim_hom=None) -> int:
    """dim Ext^i(X, n), X = res.module, by dimension shift: Hom(-, n) on
    0 -> Ω^i X -> P_{i-1} -> Ω^{i-1} X -> 0 and Ext^i(X, -) = Ext^1(Ω^{i-1} X, -) give
    hom(Ω^i X, n) - Σ_{v in gens P_{i-1}} dim n_v + hom(Ω^{i-1} X, n) for i >= 1,
    hom(X, n) at 0.  Ω^k X is step k's module, zero past the last step; only
    steps <= i are read, each hom as dim_hom(module, n), hom_dim by default."""
    if i >= len(res.steps):
        return 0
    dim_hom, steps = dim_hom or hom_dim, res.steps
    shift = i and (dim_hom(steps[i - 1].module, n)
                   - sum(n.rows[0].get(v, 0) for v in steps[i - 1].generators))
    return dim_hom(steps[i].module, n) + shift


class ExtCalculator:
    """Memoized Ext dimensions over one algebra; writes must stay single-threaded.

    Over kQ/J² ΩM is semisimple: with t = dim top M, s = dim soc N, A_Q the
    arrow counts, ω = t A_Q - dim M + t (= dim ΩM) and e = A_Q s - dim N + s,
    Ext^1 = ω·s - t·dim N + hom(M, N) and Ext^m = ω A_Q^{m-2} e for m >= 2
    (Koszul duality; Beilinson, Ginzburg & Soergel, J. AMS 9 (1996); Green &
    Martínez-Villa, CMS Conf. Proc. 18 (1996)).  Otherwise a dimension shift
    along each module's resolution, extended in place; foreign modules raise.
    """

    def __init__(self, algebra: BoundAlgebra):
        self.algebra = algebra
        # keyed by module identity; holding the modules keeps ids from recycling
        self._res: Dict[Representation, Resolution] = {}
        self._vecs: Dict[Representation, tuple] = {}  # (t, dim, ω, s, [A_Q^k e])
        self._dims: Dict[tuple, int] = {}
        self._arrows = (None if any(len(p) > 1 for p in algebra.basis)
                        else _arrow_counts(algebra.quiver))  # A_Q iff J² = 0

    def resolution(self, m: Representation, depth: int) -> Resolution:
        if m not in self._res:
            self._res[m] = Resolution(m)
        return self._res[m].extend(depth)

    def _vectors(self, m: Representation) -> tuple:
        if m not in self._vecs:
            t = list(projective_cover_multiplicities(m).values())
            s = [_socle(m, v) for v in self.algebra.quiver.vertices]
            d, a = list(m.dimvec.values()), self._arrows
            omega = [_dot(t, c) - x + y for c, x, y in zip(zip(*a), d, t)]
            if min(omega, default=0) < 0:  # ω = dim ΩM; no Euler sum checks it here
                raise InvariantViolation(f"dim Ω({m.name}) = {omega} has a negative entry")
            self._vecs[m] = (t, d, omega, s, [[_dot(r, s) - x + y for r, x, y in zip(a, d, s)]])
        return self._vecs[m]

    def ext(self, power: int, m: Representation, n: Representation) -> int:
        key = (power, m, n)
        if key not in self._dims:
            if power < 0:
                raise RepresentationError("ext degree must be >= 0")
            if m.algebra is not self.algebra or n.algebra is not self.algebra:
                raise RepresentationError("ext needs modules over the calculator's algebra")
            if power == 0:
                self._dims[key] = hom_dim(m, n)
            elif self._arrows is not None:
                (t, _, omega, _, _), (_, d, _, s, e) = self._vectors(m), self._vectors(n)
                while len(e) < power - 1:  # e[k] = A_Q^k e, grown as far as asked
                    e.append([_dot(r, e[-1]) for r in self._arrows])
                self._dims[key] = (_dot(omega, e[power - 2]) if power > 1 else
                                   _dot(omega, s) - _dot(t, d) + self.ext(0, m, n))
            else:
                res = self.resolution(m, power)
                self._dims[key] = ext_from_resolution(res, n, power, partial(self.ext, 0))
        return self._dims[key]


def _dot(x, y) -> int:
    return sum(map(int.__mul__, x, y))


def _obstructions(alg: BoundAlgebra) -> Optional[List[Tuple[str, ...]]]:
    """The minimal relation paths of a monomial algebra (every relation one
    path), as arrow labels in application order; a path containing another
    one is left out.  None when some relation has two or more terms."""
    if any(len(rel) != 1 for rel in alg.relations):
        return None
    words = {tuple(reversed(rel[0][1].arrows)) for rel in alg.relations}
    return [w for w in words if not any(
        o != w and any(w[i:i + len(o)] == o for i in range(len(w) - len(o) + 1))
        for o in words)]


def _next_tails(alg: BoundAlgebra, obstructions, tail) -> List[Tuple[str, ...]]:
    """The tails u that follow tail in an Anick chain: tail + u ends in an
    obstruction that starts inside tail, and no shorter tail + u' contains
    one.  The syzygy of A*tail is the direct sum of the A*u."""
    out, stack = [], [()]
    while stack:
        u = stack.pop()
        end = alg.quiver.arrow((u or tail)[-1]).target
        for a in (a for a in alg.quiver.arrows if a.source == end):
            word = tail + u + (a.label,)
            o = next((o for o in obstructions if word[-len(o):] == o), None)
            if o is None:
                stack.append(u + (a.label,))
            elif len(word) - len(o) < len(tail):
                out.append(u + (a.label,))
            # otherwise u + a contains an obstruction: it is zero in A
    return out


def ext_simple_table(alg: BoundAlgebra, depth: int):
    """{(i, j): [dim Ext^n(S_i, S_j) for n <= depth]} over all vertex labels,
    by ext_to_simples off the multiplicity pattern of each simple's minimal
    resolution to depth, each simple resolved once.

    On a monomial algebra the generators of step n >= 1 of S_v's resolution
    are the Anick chains of n tails from v (Green, Happel & Zacharia 1985;
    Anick 1986): the first tail is an arrow out of v, each next one is read
    off the last (_next_tails, shared by every vertex), and the counts are
    walks in the tail graph, exact at any depth.  Other algebras are
    resolved linearly."""
    if depth < 0:
        raise RepresentationError("depth must be >= 0")
    verts, obstructions = alg.quiver.vertices, _obstructions(alg)
    successors, ext = {}, {}  # tail -> _next_tails(tail); vertex -> its Ext row
    for v in verts:
        if obstructions is None:
            pattern = minimal_resolution(simple(alg, v), depth).multiplicity_pattern()
        else:
            pattern = [{v: 1}]
            tails = {(a.label,): 1 for a in alg.quiver.arrows if a.source == v}
            while tails and len(pattern) <= depth:
                step, nxt = {}, {}
                for t, k in tails.items():
                    w = alg.quiver.arrow(t[-1]).target
                    step[w] = step.get(w, 0) + k
                    if t not in successors:
                        successors[t] = _next_tails(alg, obstructions, t)
                    for u in successors[t]:
                        nxt[u] = nxt.get(u, 0) + k
                pattern.append(step)
                tails = nxt
        ext[v] = ext_to_simples(pattern, verts, depth)
    return {(i, j): ext[i][j] for i in verts for j in verts}


def ext_to_simples(pattern: List[Dict[str, int]], vertices, depth: int):
    """{v: [dim Ext^n(M, S_v) for n <= depth]} from the multiplicity pattern
    of a minimal resolution of M: its Hom complex into a simple has zero
    differentials, so Ext^n(M, S_v) is the multiplicity of P_v in step n
    (0 past the last step)."""
    return {v: [pattern[n].get(v, 0) if n < len(pattern) else 0
                for n in range(depth + 1)] for v in vertices}


def euler_form(alg: BoundAlgebra, d: Dict[str, int], e: Dict[str, int]) -> int:
    """<d, e> = sum_v d_v e_v - sum_{a: s->t} d_s e_t, the quiver's Euler form.
    dim End(X) >= <d, d> for X of dimension vector d over any algebra: the
    End system has sum_v d_v^2 unknowns, sum_a d_s d_t equations, and a
    relation adds none.  Over kQ, <d, d> = dim End - dim Ext^1 (_brick_bound)."""
    val = sum(x * e.get(v, 0) for v, x in d.items())
    val -= sum(d.get(a.source, 0) * e.get(a.target, 0) for a in alg.quiver.arrows)
    return val


def euler_ext1(m: Representation, n: Representation) -> int:
    """dim Ext^1 over a relation-free path algebra via the Euler form:
    dim Hom(m, n) - <dim m, dim n>."""
    if m.algebra.relations:
        raise AlgebraError("the Euler-form shortcut needs a relation-free "
                           "path algebra")
    return hom_dim(m, n) - euler_form(m.algebra, m.dimvec, n.dimvec)


# ---------------------------------------------------------------------------
# Dynkin indecomposables by reflection functors
# ---------------------------------------------------------------------------

def _coxeter_minus(alg: BoundAlgebra, m: Representation) -> Representation:
    """tau^- m = C^- m over an acyclic path algebra, by BGP source reflections:
    each vertex k, once a source, takes the cokernel of V_k -> (+)_j V_j over
    its out-arrows (primitive integer rows spanning the left kernel), and
    those arrows turn round; each turns twice, back onto alg's quiver."""
    dims, ends = m.dimvec, {a.label: (a.source, a.target) for a in alg.quiver.arrows}
    maps = {label: f.data for label, f in m.maps.items()}
    todo = list(alg.quiver.vertices)
    while todo:
        k = next(v for v in todo if all(t != v for _, t in ends.values()))
        todo.remove(k)
        out = [label for label, (s, _) in ends.items() if s == k]
        rows = [[r[i] for a in out for r in maps[a]] for i in range(dims[k])]
        width = sum(len(maps[a]) for a in out)
        coker, at = [primitive_row(y) for y in nullspace(rows, width)[0]], 0
        for a in out:
            j = ends[a][1]
            maps[a], ends[a], at = [y[at:at + dims[j]] for y in coker], (j, k), at + dims[j]
        dims[k] = len(coker)
    return Representation(alg, dims, {label: RatMatrix(f, dims[ends[label][0]])
                                      for label, f in maps.items()}, check=False)


def dynkin_indecomposables(alg: BoundAlgebra) -> List[Representation]:
    """One brick per positive root of an ADE path algebra, named M(d1,...,dn),
    by (total, root): the tau^- orbits of the projectives up to zero.  By
    Gabriel's theorem they hold every indecomposable, so it is checked that
    they meet each positive root once.  Off the ADE graphs positive_roots
    raises QuiverError before any reflection runs."""
    if alg.relations:
        raise AlgebraError("dynkin_indecomposables needs a path algebra")
    roots, found = positive_roots(alg.quiver), []
    for v in alg.quiver.vertices:
        m = projective(alg, v)
        while not m.is_zero() and len(found) <= len(roots):
            found.append((tuple(m.dimvec.values()), m))
            m = _coxeter_minus(alg, m)
    found.sort(key=lambda dm: (sum(dm[0]), dm[0]))
    if [d for d, _ in found] != sorted(roots, key=lambda r: (sum(r), r)):
        raise InvariantViolation("the tau^- orbits miss or repeat a positive root")
    return [_module(alg, m.rows, "M(" + ",".join(map(str, d)) + ")") for d, m in found]


# ---------------------------------------------------------------------------
# one-parameter brick families on the two-parallel-arrow quivers
# ---------------------------------------------------------------------------

def _two_parallel_arrows(alg: BoundAlgebra):
    q = alg.quiver
    pairs: Dict[Tuple[str, str], List] = {}
    for a in q.arrows:
        pairs.setdefault((a.source, a.target), []).append(a)
    for (s, t), ars in pairs.items():
        if len(ars) == 2 and s != t:
            return s, t, ars[0].label, ars[1].label
    raise AlgebraError("no pair of parallel arrows between distinct vertices")


def regular_brick(alg: BoundAlgebra, lam) -> Representation:
    """The one-parameter dimension (1,1) brick: first parallel arrow acts by
    1 and the second by lam; lam = inf swaps the roles (0 and 1)."""
    s, t, b, c = _two_parallel_arrows(alg)
    if lam == math.inf or lam == "inf":
        maps = {b: [[0]], c: [[1]]}
        name = "R(inf)"
    else:
        lam = rat(lam)
        maps = {b: [[1]], c: [[lam]]}
        name = f"R({rat_str(lam)})"
    return Representation(alg, {s: 1, t: 1}, maps, name=name)


def _stacked(n: int, top: bool) -> RatMatrix:
    """(n+1) x n matrix: identity over a zero row, or zero row over identity."""
    ident, zero = RatMatrix.identity(n).data, ((0,) * n,)
    return RatMatrix(ident + zero if top else zero + ident, cols=n)


def preprojective_brick(alg: BoundAlgebra, n: int) -> Representation:
    """Dimension (n, n+1) brick of the parallel-arrow pair; n = 0 is the
    simple at the sink."""
    s, t, b, c = _two_parallel_arrows(alg)
    maps = {b: _stacked(n, top=True), c: _stacked(n, top=False)}
    name = f"S{t}" if n == 0 else f"preproj{n}"
    return Representation(alg, {s: n, t: n + 1}, maps, name=name)


def preinjective_brick(alg: BoundAlgebra, n: int) -> Representation:
    """Dimension (n+1, n) brick of the parallel-arrow pair; n = 0 is the
    simple at the source."""
    s, t, b, c = _two_parallel_arrows(alg)
    maps = {b: _stacked(n, top=True).transpose(),
            c: _stacked(n, top=False).transpose()}
    name = f"S{s}" if n == 0 else f"preinj{n}"
    return Representation(alg, {s: n + 1, t: n}, maps, name=name)


def lambda_sample(count: int):
    """count parameter values: 0, 1, ..., count-2 and inf."""
    if count < 1:
        raise ValueError("need at least one parameter value")
    return list(range(count - 1)) + [math.inf]


def sqrt2_brick_catalogue(alg: BoundAlgebra, lambda_count: int = 8,
                          family_depth: int = 3) -> List[Representation]:
    """The complete brick list of the sqrt(2) algebra, truncated: the
    projective at the sink, a lambda sample of the regular family, and the
    preprojective/preinjective families up to the given index."""
    out = [projective(alg, "2")]
    out += [regular_brick(alg, lam) for lam in lambda_sample(lambda_count)]
    out += [preprojective_brick(alg, n) for n in range(family_depth + 1)]
    out += [preinjective_brick(alg, n) for n in range(family_depth + 1)]
    return out


def kronecker_brick_catalogue(alg: BoundAlgebra, max_total_dim: int = 6,
                              lambda_count: int = 8) -> List[Representation]:
    """All Kronecker bricks of total dimension within budget: the regular
    dimension (1,1) family (sampled) plus every preprojective and
    preinjective in budget."""
    out = []
    if max_total_dim >= 2:
        out += [regular_brick(alg, lam) for lam in lambda_sample(lambda_count)]
    n = 0
    while 2 * n + 1 <= max_total_dim:
        out.append(preprojective_brick(alg, n))
        out.append(preinjective_brick(alg, n))
        n += 1
    return out


# ---------------------------------------------------------------------------
# the brick scan
# ---------------------------------------------------------------------------

def _random_maps(alg, dimvec, rng):
    """One random draw at a dimension vector (zeros may be left out),
    hashable: per arrow None for a zero map (often the only way to satisfy
    the relations), otherwise the integer rows of a small random matrix.
    Each entry is k - 2 for the first k = rng.getrandbits(3) below 5, the
    draw rng.randint(-2, 2) makes.  _skip_maps makes the same rng calls."""
    draw, bits = [], rng.getrandbits
    for a in alg.quiver.arrows:
        r, c = dimvec.get(a.target, 0), dimvec.get(a.source, 0)
        if rng.random() < 0.4:
            draw.append(None)
        else:  # r rows of c entries, grouped from one flat list
            flat = []
            for _ in range(r * c):
                k = bits(3)
                while k > 4:
                    k = bits(3)
                flat.append(k - 2)
            draw.append(tuple(zip(*[iter(flat)] * c)) if c else ((),) * r)
    return tuple(draw)


def _skip_maps(alg, dimvec, rng, count):
    """Advance rng past count draws of _random_maps at dimvec: the same
    calls (one random() per arrow, then getrandbits(3) with rejection per
    entry of a nonzero map), with nothing built."""
    sizes = [dimvec.get(a.target, 0) * dimvec.get(a.source, 0) for a in alg.quiver.arrows]
    random, bits = rng.random, rng.getrandbits
    for _ in range(count):
        for n in sizes:
            if random() >= 0.4:
                for _ in range(n):
                    while bits(3) > 4:
                        pass


def _dimension_vectors(vertices, budget):
    """Every dimension vector of total 1..budget as its support (the nonzero
    counts, in the order of vertices), in scan order: by total, then by the
    counts in sorted-label order, which orders supports of one total as their
    (-position, count) pairs listed by sorted-label position do."""
    position = {v: i for i, v in enumerate(sorted(vertices))}
    dvs = [dict(Counter(picked)) for total in range(1, budget + 1)
           for picked in combinations_with_replacement(vertices, total)]
    return sorted(dvs, key=lambda d: (sum(d.values()), [(-i, k) for i, k in sorted(
        (position[v], k) for v, k in d.items())]))


def _brick_bound(alg, support):
    """The most bricks, up to isomorphism, at a support (a dimension vector d
    as its nonzero counts): over arrow sets Q' inside it that connect d, the
    sum of 1 where q'(d) = sum_v d_v^2 - sum_{a in Q'} d_s d_t is 1 and of inf
    where it is <= 0.  A brick over kQ/I is one over kQ' (mod kQ/I is full in
    rep Q), where dim End - dim Ext^1 = q'(d): at q'(d) = 1 its orbit is open
    in the irreducible Rep(Q', d) (Voigt), so unique (Kac; Noether-Deuring).
    Q' is every arrow inside, unless J² = 0: a brick X not simple has top on
    some T, socle off T (else X ->> S_v >-> X), so it lives on the arrows from
    T out of T (separated quiver; Auslander-Reiten-Smalø X.2), T smaller than d."""
    def connects(arrows):
        reached = {next(iter(support))}
        for _ in support:
            reached.update(v for a in arrows if a.source in reached or a.target in reached
                           for v in (a.source, a.target))
        return len(reached) == len(support)

    inner = [a for a in alg.quiver.arrows if a.source in support and a.target in support]
    if not connects(inner):  # nor does any cut of them
        return 0
    most = 0
    for arrows in ([inner] if len(alg.basis[-1]) > 1 else [  # the basis is ordered by length
            [a for a in inner if a.source in t and a.target not in t]
            for k in range(len(support)) for t in combinations(support, k)]):
        tits = sum(x * x for x in support.values()) - sum(
            support[a.source] * support[a.target] for a in arrows)
        if tits <= 1 and connects(arrows):
            most += 1 if tits == 1 else math.inf
    return most


def scan_candidates(alg, dim_budget, seed, samples_per_dimvec=40,
                    max_candidates=64):
    """Deterministic brick-candidate generation for an arbitrary algebra.

    Simples and projectives come first, then seeded random draws at every
    dimension vector within the budget.  A draw repeated at one dimension
    vector is examined once: if its relations hold (failing_relation, on its
    integer rows), it is built as a module, unchecked, and admitted like the
    simples and projectives, by is_brick and by is_isomorphic_brick against
    each candidate of its support (exact, since every candidate is a brick).
    Only a brick new up to isomorphism meets the cap.  The draws at a
    dimension vector stop being built once its candidates reach _brick_bound
    (before the first draw where that is 0), which certifies that no further
    brick there is new (q = 1 inside, or on a cut over kQ/J²); _skip_maps
    advances the rng past the rest, so the rng stream, the names and the
    output are those of the scan that examines every draw.
    Returns (candidates, truncated): capped at N, the scan lists the first N
    candidates of the uncapped scan, truncated iff that lists more than N.
    """
    rng, vertices = random.Random(seed), alg.quiver.vertices
    cands, by_support = [], {}

    def admit(m):  # False iff the cap refuses a new brick
        same = by_support.setdefault(frozenset(m.rows[0].items()), [])
        if not is_brick(m) or any(is_isomorphic_brick(m, c) for c in same):
            return True
        if len(cands) >= max_candidates:
            return False
        cands.append(m)
        same.append(m)
        return True

    if not all(map(admit, simples(alg) + [projective(alg, v) for v in vertices])):
        return cands, True
    for support in _dimension_vectors(vertices, dim_budget):
        most = _brick_bound(alg, support)
        same = by_support.setdefault(frozenset(support.items()), [])
        dims = "B(" + ",".join(str(support.get(v, 0)) for v in vertices) + ")"
        seen = set()
        for k in range(samples_per_dimvec):
            if len(same) >= most:  # every brick left here is isomorphic to a candidate
                _skip_maps(alg, support, rng, samples_per_dimvec - k)
                break
            draw = _random_maps(alg, support, rng)
            if draw in seen:
                continue  # it is, or matches, a candidate, or is no brick
            seen.add(draw)
            if failing_relation(alg, (support, draw)) is None and not admit(
                    _module(alg, (support, draw), f"{dims}#{len(cands)}")):
                return cands, True
    return cands, False


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------

def module_to_json(m: Representation) -> str:
    maps = {label: [[rat_str(x) for x in row] for row in f.data] for label, f in m.maps.items()}
    return dump_json({"dimvec": m.dimvec, "maps": maps, "name": m.name})


def module_from_json(alg: BoundAlgebra, text: str) -> Representation:
    raw = load_json(text, RepresentationError)
    try:
        dimvec = dict(raw["dimvec"].items())
        arrow_rows = raw.get("maps", {}).items()
        name = raw.get("name", "")
        if not isinstance(name, str):
            raise TypeError(f"name is not a JSON string: {name!r}")
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise RepresentationError(f"malformed module file: {e}") from e
    for v, d in dimvec.items():  # Representation rejects an unknown vertex or arrow
        if type(d) is not int:  # not a float, a bool or a string
            raise RepresentationError(f"dimension at vertex {v!r} is not an integer: {d!r}")
        if d > DEFAULT_DIM_CAP:  # its zero maps alone would not fit in memory
            raise RepresentationError(
                f"dimension at vertex {v!r} exceeds the size cap {DEFAULT_DIM_CAP}")
    maps = {}
    for label, rows in arrow_rows:
        try:  # a map into a zero space has no rows to read its width from
            maps[label] = RatMatrix(
                [json_array(row, "row") for row in json_array(rows, "map")],
                cols=len(rows[0]) if rows else dimvec.get(alg.quiver.arrow(label).source, 0))
        except (TypeError, ValueError, ZeroDivisionError) as e:
            raise RepresentationError(
                f"malformed map for arrow {label!r}: {e}") from e
    return Representation(alg, dimvec, maps, name=name)
