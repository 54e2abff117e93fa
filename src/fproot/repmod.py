"""Representations of bound quiver algebras.

Hom spaces (exact intertwiner systems), brick tests, minimal projective
resolutions, Ext groups, the hereditary Euler-form shortcut, and generation
of the indecomposables of Dynkin path algebras at their positive roots.

Convention: an arrow a: s -> t acts as a matrix V_s -> V_t, stored with
shape dim_t x dim_s; a morphism f satisfies f_t M_a = N_a f_s for every
arrow.  The classic one-parameter matrix recipes (identity, companion block,
stacked/slit identities) are transcribed under this convention.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exactlin import (InvariantViolation, RatMatrix, nullspace,
                       nullspace_basis, rank, rank_of_rows, rat, rat_str, rref)
from .algebra import AlgebraError, BoundAlgebra, Path
from .quiver import classify_underlying_graph, positive_roots


class RepresentationError(ValueError):
    pass


class Representation:
    """A module over a BoundAlgebra: one vector space per vertex, one matrix
    per arrow, with every relation evaluating to zero."""

    __slots__ = ("algebra", "dimvec", "maps", "name")

    def __init__(self, algebra: BoundAlgebra, dimvec: Dict[str, int],
                 maps: Dict[str, RatMatrix], name: str = "", check: bool = True):
        q = algebra.quiver
        dv = {str(v): int(dimvec.get(str(v), 0)) for v in q.vertices}
        if any(d < 0 for d in dv.values()):
            raise RepresentationError("negative dimension")
        ms = {}
        for a in q.arrows:
            m = maps.get(a.label)
            if m is None:
                m = RatMatrix.zeros(dv[a.target], dv[a.source])
            elif not isinstance(m, RatMatrix):
                m = RatMatrix(m)
            if m.shape != (dv[a.target], dv[a.source]):
                raise RepresentationError(
                    f"map for arrow {a.label} has shape {m.shape}, expected "
                    f"({dv[a.target]}, {dv[a.source]})")
            ms[a.label] = m
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "dimvec", dv)
        object.__setattr__(self, "maps", ms)
        object.__setattr__(self, "name", name or f"M{tuple(dv.values())}")
        if check:
            self._check_relations()

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Representation is immutable")

    def _check_relations(self):
        """Every relation sum_k c_k p_k must act as zero; it is checked one
        basis vector of the source at a time, without path matrices."""
        for rel in self.algebra.relations:
            p0 = rel[0][1]
            for j in range(self.dimvec[p0.source]):
                acc = [0] * self.dimvec[p0.target]
                for coeff, p in rel:
                    for i, x in enumerate(self.path_column(p, j)):
                        if x:
                            acc[i] += coeff * x
                if any(acc):
                    raise RepresentationError(
                        f"relation {rel} does not vanish on {self.name}")

    def path_matrix(self, p: Path) -> RatMatrix:
        """Matrix of a path acting V_source -> V_target (identity if trivial)."""
        if not p.arrows:
            return RatMatrix.identity(self.dimvec[p.source])
        m = None
        for label in reversed(p.arrows):
            step = self.maps[label]
            m = step if m is None else step @ m
        return m

    def path_column(self, p: Path, j: int) -> list:
        """Column j of path_matrix(p): the path applied to the j-th basis
        vector of V_source one arrow at a time, skipping zero entries (the
        entries are Fractions or the int 0)."""
        if not p.arrows:
            col = [Fraction(0)] * self.dimvec[p.source]
            col[j] = Fraction(1)
            return col
        *rest, first = p.arrows
        col = [row[j] for row in self.maps[first].data]
        for label in reversed(rest):
            nz = [(k, x) for k, x in enumerate(col) if x]
            col = [sum(row[k] * x for k, x in nz if row[k])
                   for row in self.maps[label].data]
        return col

    @property
    def total_dim(self) -> int:
        return sum(self.dimvec.values())

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def rename(self, name: str) -> "Representation":
        return Representation(self.algebra, self.dimvec, self.maps,
                              name=name, check=False)

    def __repr__(self):
        return f"Representation({self.name}, dimvec={self.dimvec})"


# ---------------------------------------------------------------------------
# simples / projectives / duals
# ---------------------------------------------------------------------------

def simple(algebra: BoundAlgebra, v) -> Representation:
    v = str(v)
    if v not in algebra.quiver.vertices:
        raise AlgebraError(f"unknown vertex {v!r}")
    return Representation(algebra, {v: 1}, {}, name=f"S{v}")


def simples(algebra: BoundAlgebra) -> List[Representation]:
    return [simple(algebra, v) for v in algebra.quiver.vertices]


def _projective_of_multiset(alg: BoundAlgebra, gens: List[str]):
    """Basis layout of directsum_i P_{gens[i]} grouped by vertex."""
    basis: Dict[str, List[Tuple[int, Path]]] = {v: [] for v in alg.quiver.vertices}
    for i, v in enumerate(gens):
        for p in alg.basis_with_source(v):
            basis[p.target].append((i, p))
    return basis


def _projective_arrow_matrix(alg: BoundAlgebra, basis, a) -> RatMatrix:
    src, tgt = basis[a.source], basis[a.target]
    index = {bp: k for k, bp in enumerate(tgt)}
    m = [[Fraction(0)] * len(src) for _ in range(len(tgt))]
    for j, (copy, p) in enumerate(src):
        for tp, c in alg.left_multiply(a.label, p).items():
            m[index[(copy, tp)]][j] = c
    return RatMatrix(m, cols=len(src))


def projective(algebra: BoundAlgebra, v) -> Representation:
    """The projective cover of the simple at v, realized on the basis paths
    with source v; an arrow acts by left multiplication reduced modulo the
    relation ideal."""
    v = str(v)
    if v not in algebra.quiver.vertices:
        raise AlgebraError(f"unknown vertex {v!r}")
    basis = _projective_of_multiset(algebra, [v])
    maps = {a.label: _projective_arrow_matrix(algebra, basis, a)
            for a in algebra.quiver.arrows}
    return Representation(algebra, {w: len(b) for w, b in basis.items()}, maps,
                          name=f"P{v}")


def _radical_columns(m: Representation, w: str) -> list:
    """The columns of every arrow map into w; they span the radical of m
    at w."""
    return [col for a in m.algebra.quiver.arrows_into(w)
            for col in m.maps[a.label].transpose().data]


def projective_cover_multiplicities(m: Representation) -> Dict[str, int]:
    """Multiplicity of each P_v in the projective cover, i.e. dim of the top
    at each vertex."""
    return {w: m.dimvec[w] - rank_of_rows(_radical_columns(m, w))
            for w in m.algebra.quiver.vertices}


def dual_representation(m: Representation, op_algebra: BoundAlgebra) -> Representation:
    """The linear dual as a module over the opposite algebra: same dimension
    vector, every arrow matrix transposed."""
    maps = {a.label: m.maps[a.label].transpose() for a in m.algebra.quiver.arrows}
    return Representation(op_algebra, dict(m.dimvec), maps, name=f"D({m.name})")


# ---------------------------------------------------------------------------
# Hom spaces and bricks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomSpace:
    source: Representation
    target: Representation
    basis: Tuple[Dict[str, RatMatrix], ...]
    dim: int


def _hom_system(m: Representation, n: Representation):
    """The intertwiner equations f_t M_a = N_a f_s as (rows, total, offsets).

    The unknowns are the entries of every f_v (dim n_v x dim m_v, row-major)
    stacked by vertex from offsets[v]; total counts them.  Each row holds one
    equation's coefficients; rows that are identically zero are dropped.
    """
    if m.algebra is not n.algebra:
        raise RepresentationError("hom needs two modules over the same algebra")
    q = m.algebra.quiver
    offsets = {}
    total = 0
    for v in q.vertices:
        offsets[v] = total
        total += n.dimvec[v] * m.dimvec[v]  # f_v is dim_n x dim_m

    rows = []
    for a in q.arrows:
        s, t = a.source, a.target
        Ma, Na = m.maps[a.label].data, n.maps[a.label].data
        mt, ms, ot, os_ = m.dimvec[t], m.dimvec[s], offsets[t], offsets[s]
        for i in range(n.dimvec[t]):
            Ni = Na[i]
            for j in range(ms):
                row = [0] * total
                for k in range(mt):
                    if Ma[k][j]:
                        row[ot + i * mt + k] += Ma[k][j]
                for l, x in enumerate(Ni):
                    if x:
                        row[os_ + l * ms + j] -= x
                if any(row):
                    rows.append(row)
    return rows, total, offsets


def hom(m: Representation, n: Representation) -> HomSpace:
    """Solve the intertwiner system f_t M_a = N_a f_s exactly."""
    rows, total, offsets = _hom_system(m, n)
    if rows:
        kernel = [b.col(0) for b in nullspace_basis(RatMatrix(rows, cols=total))]
    else:
        kernel = [[Fraction(1 if i == k else 0) for i in range(total)]
                  for k in range(total)]
    basis = []
    for vec in kernel:
        fs = {}
        for v in m.algebra.quiver.vertices:
            r, c, o = n.dimvec[v], m.dimvec[v], offsets[v]
            fs[v] = RatMatrix([vec[o + i * c:o + (i + 1) * c] for i in range(r)],
                              cols=c)
        basis.append(fs)
    return HomSpace(m, n, tuple(basis), len(kernel))


def hom_dim(m: Representation, n: Representation) -> int:
    """dim Hom(m, n) as the nullity of the intertwiner system; only its rank
    is computed, on integers, and no basis is built."""
    rows, total, _ = _hom_system(m, n)
    return total - rank_of_rows(rows)


def is_brick(m: Representation) -> bool:
    """True when End(m) is one dimensional."""
    if m.is_zero():
        raise RepresentationError("the zero module is not a brick")
    return hom_dim(m, m) == 1


def is_isomorphic_brick(m: Representation, n: Representation) -> bool:
    """Exact isomorphism test for two bricks: they are isomorphic iff some
    composite of a map each way is a nonzero endomorphism.  When either Hom
    space is zero there is no such composite, and no basis is built."""
    if m.dimvec != n.dimvec:
        return False
    if hom_dim(m, n) == 0 or hom_dim(n, m) == 0:
        return False
    fwd, bwd = hom(m, n), hom(n, m)
    for f in fwd.basis:
        for g in bwd.basis:
            for v in m.algebra.quiver.vertices:
                if m.dimvec[v] and not (g[v] @ f[v]).is_zero():
                    return True
    return False


def direct_sum(ms: Sequence[Representation]) -> Representation:
    if not ms:
        raise RepresentationError("direct sum of an empty family")
    alg = ms[0].algebra
    if any(m.algebra is not alg for m in ms):
        raise RepresentationError("direct sum needs a common algebra")
    q = alg.quiver
    dimvec = {v: sum(m.dimvec[v] for m in ms) for v in q.vertices}
    maps = {}
    for a in q.arrows:
        rows, cols = dimvec[a.target], dimvec[a.source]
        big = [[Fraction(0)] * cols for _ in range(rows)]
        r0 = c0 = 0
        for m in ms:
            blk = m.maps[a.label]
            for i in range(blk.rows):
                for j in range(blk.cols):
                    big[r0 + i][c0 + j] = blk.data[i][j]
            r0 += m.dimvec[a.target]
            c0 += m.dimvec[a.source]
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
    basis:        per vertex, the ordered list of (copy index, algebra path)
    differential: per generator, its image in the basis of the previous step
                  as {(copy, path): coeff}; for step 0 the image is in the
                  resolved module, stored as {vertex: column vector}.
    """

    generators: List[str]
    basis: Dict[str, List[Tuple[int, Path]]]
    differential: list


@dataclass
class Resolution:
    module: Representation
    steps: List[ResolutionStep]
    length: Optional[int]  # index of the last nonzero step, None if truncated

    def multiplicities(self, i: int) -> Dict[str, int]:
        if i >= len(self.steps):
            return {}
        out: Dict[str, int] = {}
        for v in self.steps[i].generators:
            out[v] = out.get(v, 0) + 1
        return out

    def multiplicity_pattern(self) -> List[Dict[str, int]]:
        return [self.multiplicities(i) for i in range(len(self.steps))]


def minimal_resolution(m: Representation, depth: int) -> Resolution:
    """Minimal projective resolution of m to the requested depth.

    Each step is the projective cover of the previous syzygy; the syzygy is
    carried along as an explicit subrepresentation (nullspace bases per
    vertex), which keeps every differential exact.  Minimality (differential
    image inside the radical) is checked at every step and raises
    InvariantViolation when it fails.
    """
    if depth < 0:
        raise RepresentationError("depth must be >= 0")
    alg = m.algebra
    q = alg.quiver
    steps: List[ResolutionStep] = []
    current = m
    embed: Optional[Dict[str, RatMatrix]] = None  # syzygy basis inside previous P
    prev_basis = None
    length = None

    for step_idx in range(depth + 1):
        # each basis vector outside the pivots of the radical lifts one
        # generator of the top
        gens: List[str] = []
        lift_cols: List[Tuple[str, int]] = []
        for v in q.vertices:
            _, pivots = rref(RatMatrix(_radical_columns(current, v),
                                       cols=current.dimvec[v]))
            covered = set(pivots)
            for j in range(current.dimvec[v]):
                if j not in covered:
                    gens.append(v)
                    lift_cols.append((v, j))
        if not gens:
            length = step_idx - 1
            break

        basis = _projective_of_multiset(alg, gens)

        # cover map per vertex: column for (copy, path) is path acting on lift
        phi: Dict[str, RatMatrix] = {}
        for w in q.vertices:
            cols = []
            for (copy, p) in basis[w]:
                cols.append(current.path_column(p, lift_cols[copy][1]))
            phi[w] = RatMatrix.from_columns(cols, rows=current.dimvec[w]) \
                if cols else RatMatrix.zeros(current.dimvec[w], 0)

        # differential of this step expressed over the previous step
        differential = []
        for copy, (v, j) in enumerate(lift_cols):
            if step_idx == 0:
                col = [Fraction(1 if t == j else 0) for t in range(current.dimvec[v])]
                differential.append({v: tuple(col)})
            else:
                img = embed[v].col(j)  # coordinates in the previous projective at v
                entry: Dict[Tuple[int, Path], Fraction] = {}
                for k, bp in enumerate(prev_basis[v]):
                    if img[k]:
                        entry[bp] = img[k]
                differential.append(entry)
                if any(len(ppath) == 0 for _, ppath in entry):
                    raise InvariantViolation(
                        "minimality violated: differential leaves the radical")

        steps.append(ResolutionStep(gens, basis, differential))

        # syzygy = ker(phi) with arrow maps restricted from the projective
        new_embed = {}
        free_rows = {}
        for w in q.vertices:
            cols, free = nullspace(phi[w])
            new_embed[w] = RatMatrix.from_columns(cols, rows=len(basis[w]))
            free_rows[w] = free
        new_dim = {w: new_embed[w].cols for w in q.vertices}

        new_maps = {}
        for a in q.arrows:
            s, t = a.source, a.target
            pm = _projective_arrow_matrix(alg, basis, a)
            img = pm @ new_embed[s]
            mat = [[img.data[fr][j] for j in range(new_dim[s])]
                   for fr in free_rows[t]]
            new_maps[a.label] = RatMatrix(mat, cols=new_dim[s])

        prev_basis = basis
        embed = new_embed
        current = Representation(alg, new_dim, new_maps,
                                 name=f"syzygy{step_idx + 1}({m.name})",
                                 check=False)

    return Resolution(m, steps, length)


def ext(i: int, m: Representation, n: Representation) -> int:
    """dim Ext^i(m, n), from the Hom complex of a minimal resolution of m."""
    if i < 0:
        raise RepresentationError("ext degree must be >= 0")
    if m.algebra is not n.algebra:
        raise RepresentationError("ext needs modules over the same algebra")
    res = minimal_resolution(m, i + 1)
    return ext_from_resolution(res, n, i)


def _hom_complex_dim(step: ResolutionStep, n: Representation) -> int:
    return sum(n.dimvec[v] for v in step.generators)


def _hom_complex_map(res: Resolution, n: Representation, i: int) -> RatMatrix:
    """Matrix of Hom(P_{i-1}, n) -> Hom(P_i, n) induced by the differential."""
    cur, prev = res.steps[i], res.steps[i - 1]
    col_off = []
    t = 0
    for v in prev.generators:
        col_off.append(t)
        t += n.dimvec[v]
    row_off = []
    r = 0
    for v in cur.generators:
        row_off.append(r)
        r += n.dimvec[v]
    rows = [[Fraction(0)] * t for _ in range(r)]
    for gi, (gv, entry) in enumerate(zip(cur.generators, cur.differential)):
        for (pcopy, ppath), c in entry.items():
            block = n.path_matrix(ppath).scale(c)  # n.dimvec[gv] x n.dimvec[prev gen vertex]
            for a in range(block.rows):
                for b in range(block.cols):
                    if block.data[a][b]:
                        rows[row_off[gi] + a][col_off[pcopy] + b] += block.data[a][b]
    return RatMatrix(rows, cols=t)


def ext_from_resolution(res: Resolution, n: Representation, i: int) -> int:
    if i >= len(res.steps):
        return 0
    dim_ci = _hom_complex_dim(res.steps[i], n)
    rank_in = rank(_hom_complex_map(res, n, i)) if i >= 1 else 0
    rank_out = rank(_hom_complex_map(res, n, i + 1)) if i + 1 < len(res.steps) else 0
    return dim_ci - rank_in - rank_out


def ext_simple_table(alg: BoundAlgebra, depth: int):
    """dim Ext^n(S_i, S_j) for all vertex pairs and n <= depth.

    For a minimal resolution the Hom complex into a simple has zero
    differentials, so the Ext dimension is the multiplicity of P_j in step n.
    Returns {(i, j): [dims by n]} keyed by vertex labels.
    """
    out = {}
    reses = {v: minimal_resolution(simple(alg, v), depth)
             for v in alg.quiver.vertices}
    for i in alg.quiver.vertices:
        for j in alg.quiver.vertices:
            res = reses[i]
            out[(i, j)] = [res.multiplicities(nn).get(j, 0)
                           for nn in range(depth + 1)]
    return out


def euler_form(alg: BoundAlgebra, d: Dict[str, int], e: Dict[str, int]) -> int:
    """<d, e> = sum_v d_v e_v - sum_{a: s->t} d_s e_t (hereditary algebras)."""
    q = alg.quiver
    val = sum(d.get(v, 0) * e.get(v, 0) for v in q.vertices)
    val -= sum(d.get(a.source, 0) * e.get(a.target, 0) for a in q.arrows)
    return val


def euler_ext1(m: Representation, n: Representation) -> int:
    """dim Ext^1 over a relation-free path algebra via the Euler form:
    dim Hom(m, n) - <dim m, dim n>."""
    if m.algebra.relations:
        raise AlgebraError("the Euler-form shortcut needs a relation-free "
                           "path algebra")
    return hom_dim(m, n) - euler_form(m.algebra, m.dimvec, n.dimvec)


# ---------------------------------------------------------------------------
# Dynkin indecomposables by randomized search
# ---------------------------------------------------------------------------

class SearchBudgetExhausted(RuntimeError):
    pass


def dynkin_indecomposables(alg: BoundAlgebra, seed: int = 0,
                           tries: int = 400) -> List[Representation]:
    """One brick per positive root of an ADE path algebra.

    Arrow matrices are sampled with small random rational entries at the root
    dimension vector until the brick test passes; correctness is certified
    post hoc (is_brick plus the Tits form <d,d> = 1), never assumed.
    """
    if alg.relations:
        raise AlgebraError("dynkin_indecomposables needs a path algebra")
    cls = classify_underlying_graph(alg.quiver)
    if cls is None or cls[0] not in ("A", "D", "E"):
        raise AlgebraError("underlying graph is not ADE")
    roots = positive_roots(alg.quiver)
    rng = random.Random(seed)
    verts = alg.quiver.vertices
    out = []
    for root in sorted(roots, key=lambda r: (sum(r), r)):
        dimvec = {v: root[i] for i, v in enumerate(verts)}
        if euler_form(alg, dimvec, dimvec) != 1:
            raise AssertionError(f"root {root} fails <d,d>=1")
        found = None
        for _ in range(tries):
            maps = {}
            for a in alg.quiver.arrows:
                r, c = dimvec[a.target], dimvec[a.source]
                maps[a.label] = RatMatrix(
                    [[Fraction(rng.randint(-2, 2)) for _ in range(c)]
                     for _ in range(r)], cols=c)
            cand = Representation(alg, dimvec, maps,
                                  name="M(" + ",".join(map(str, root)) + ")",
                                  check=False)
            if is_brick(cand):
                found = cand
                break
        if found is None:
            raise SearchBudgetExhausted(
                f"no brick found at root {root} after {tries} samples")
        out.append(found)
    return out


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
    return Representation(alg, {s: 1, t: 1},
                          {k: RatMatrix(v) for k, v in maps.items()},
                          name=name)


def _stacked(n: int, top: bool) -> RatMatrix:
    """(n+1) x n matrix: identity over a zero row, or zero row over identity."""
    rows = []
    if top:
        rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        rows.append([Fraction(0)] * n)
    else:
        rows = [[Fraction(0)] * n]
        rows += [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    return RatMatrix(rows, cols=n)


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
# JSON format
# ---------------------------------------------------------------------------

def module_to_json(m: Representation) -> str:
    return json.dumps({
        "dimvec": dict(m.dimvec),
        "maps": {a.label: [[rat_str(x) for x in row]
                           for row in m.maps[a.label].data]
                 for a in m.algebra.quiver.arrows},
        "name": m.name,
    }, indent=2, sort_keys=True)


def module_from_json(alg: BoundAlgebra, text: str) -> Representation:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise RepresentationError(f"invalid JSON: {e}") from e
    try:
        dimvec = {str(k): int(v) for k, v in raw["dimvec"].items()}
        arrow_rows = raw.get("maps", {}).items()
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise RepresentationError(f"malformed module file: {e}") from e
    maps = {}
    for label, rows in arrow_rows:
        try:
            maps[label] = RatMatrix([[rat(x) for x in row] for row in rows],
                                    cols=len(rows[0]) if rows else 0)
        except (TypeError, ValueError, ZeroDivisionError) as e:
            raise RepresentationError(
                f"malformed map for arrow {label!r}: {e}") from e
    return Representation(alg, dimvec, maps, name=raw.get("name", ""))
