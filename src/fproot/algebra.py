"""Finite-dimensional bound quiver algebras kQ/(R).

A path is a tuple of arrow labels with the rightmost arrow applied first, so
the path (a, b) means "apply b, then a" and composes like functions.  The
trivial path at a vertex has an empty label tuple.

The basis of kQ/(R) is computed breadth-first in the path length: at each
length the candidate paths are arrow * (basis path of the previous length),
and the consequences r * v (r a relation on its coprime integer coefficients,
v a shorter basis path ending at its source) are row-reduced against them by
exactlin.reduced_echelon.  The candidates that are not pivots are the new
basis paths; a pivot candidate's normal form is minus each other entry of its
reduced row over the pivot entry (exactlin.quotient).  Every relation
is a rational combination of parallel paths of one common length >= 2; this
makes the length-by-length elimination exact, and it covers every algebra
that appears here.  A length cap and a size cap reject inputs that are not
finite dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .exactlin import (InputError, dump_json, json_array, load_json, primitive_row,
                       quotient, rat, rat_str, reduced_echelon)
from .quiver import (Quiver, QuiverError, kronecker_quiver, quiver_block,
                     quiver_from_block)

DEFAULT_LENGTH_CAP = 32
DEFAULT_DIM_CAP = 20000


class AlgebraError(InputError):
    pass


class NonAdmissibleRelation(AlgebraError):
    pass


class LengthCapExceeded(AlgebraError):
    pass


@dataclass(frozen=True)
class Path:
    """A composable sequence of arrows; arrows[-1] is applied first."""

    arrows: Tuple[str, ...]
    source: str
    target: str

    def __len__(self):
        return len(self.arrows)

    def __repr__(self):
        if not self.arrows:
            return f"e_{self.source}"
        return "*".join(self.arrows)


def _make_path(q: Quiver, labels: Sequence[str]) -> Path:
    if not labels:
        raise AlgebraError("a nonempty label list is required")
    arrows = [q.arrow(l) for l in labels]
    for left, right in zip(arrows, arrows[1:]):
        if left.source != right.target:
            raise AlgebraError(
                f"labels {list(labels)} do not compose: {right.label} ends at "
                f"{right.target} but {left.label} starts at {left.source}")
    return Path(tuple(labels), arrows[-1].source, arrows[0].target)


Relation = Tuple[Tuple[Fraction, Path], ...]


def _normalize_relations(q: Quiver, relations) -> List[Relation]:
    out: List[Relation] = []
    for rel in relations:
        terms = []
        for coeff, labels in rel:
            c = rat(coeff)
            if not c:
                continue
            p = _make_path(q, list(labels))
            terms.append((c, p))
        if not terms:
            continue
        lengths = {len(p) for _, p in terms}
        ends = {(p.source, p.target) for _, p in terms}
        if min(lengths) < 2:
            raise NonAdmissibleRelation(
                f"relation {terms} contains a path of length < 2")
        if len(ends) != 1:
            raise NonAdmissibleRelation(
                f"relation {terms} mixes non-parallel paths")
        if len(lengths) != 1:
            raise NonAdmissibleRelation(
                f"relation {terms} mixes path lengths {sorted(lengths)}; "
                "only length-homogeneous relations are supported")
        out.append(tuple(terms))
    return out


class BoundAlgebra:
    """The quotient kQ/(R) of a path algebra by an admissible homogeneous
    ideal, each relation an iterable of (coeff, [labels...]); with no
    relations it is kQ.  `build_algebra` and `path_algebra` name this class.

    Attributes:
        quiver:     the underlying quiver
        relations:  normalized relation list
        integer_relations: the same relations with coprime integer coefficients,
                    each term's path as arrow indices in application order
        basis:      residue classes of paths, ordered by length then creation
        dim:        total dimension over the rationals
    """

    def __init__(self, quiver: Quiver, relations=(),
                 length_cap: int = DEFAULT_LENGTH_CAP,
                 dim_cap: int = DEFAULT_DIM_CAP):
        self.quiver = quiver
        self.relations = _normalize_relations(quiver, relations)
        # a homogeneous relation vanishes iff its coprime integer multiple does
        self.integer_relations = [tuple(zip(primitive_row([c for c, _ in r]), [
            tuple(map(quiver.arrow_index, reversed(p.arrows))) for _, p in r]))
            for r in self.relations]
        self._build(length_cap, dim_cap)

    # -- construction -------------------------------------------------
    def _build(self, length_cap: int, dim_cap: int):
        q = self.quiver
        levels: List[List[Path]] = [[Path((), v, v) for v in q.vertices]]
        # normal form of arrow*path for every basis path, as {basis_path: coeff}
        nf: Dict[Tuple[str, Path], Dict[Path, Fraction]] = {}
        total, L = len(levels[0]), 0
        while levels[L]:
            if L + 1 > length_cap:
                raise LengthCapExceeded(
                    f"no finite basis within length cap {length_cap}; "
                    "the algebra does not look finite dimensional")
            candidates = [(a.label, p) for p in levels[L] for a in q.arrows
                          if a.source == p.target]
            cindex = {c: i for i, c in enumerate(candidates)}
            rows = [self._relation_consequence(zip(ints, rel), v, nf, cindex)
                    for rel, ints in zip(self.relations, self.integer_relations)
                    if len(rel[0][1]) <= L + 1
                    for v in levels[L + 1 - len(rel[0][1])]
                    if v.target == rel[0][1].source]
            reduced, pivots = reduced_echelon(rows)

            # the candidates that are not pivots are the new basis paths; a
            # pivot candidate is minus the rest of its reduced row
            pivset = set(pivots)
            new = {i: Path((a,) + p.arrows, p.source, q.arrow(a).target)
                   for i, (a, p) in enumerate(candidates) if i not in pivset}
            for i, path in new.items():
                nf[candidates[i]] = {path: 1}
            for row, i in zip(reduced, pivots):
                nf[candidates[i]] = {new[j]: quotient(-x, row[i])
                                     for j, x in enumerate(row) if x and j != i}

            levels.append(list(new.values()))
            total += len(new)
            if total > dim_cap:
                raise LengthCapExceeded(
                    f"basis exceeded the size cap {dim_cap}")
            L += 1

        self.basis: Tuple[Path, ...] = tuple(p for lvl in levels for p in lvl)
        self.dim = len(self.basis)
        self._nf = nf
        self._by_source: Dict[str, List[Path]] = {}
        for p in self.basis:
            self._by_source.setdefault(p.source, []).append(p)

    def _relation_consequence(self, terms, v: Path, nf, cindex):
        """Coordinates of rel * v on the current candidate list (a zero row when every
        term dies before its last arrow); terms zips rel's integer_relations with rel."""
        vec = [0] * len(cindex)
        for (coeff, _), (_, p) in terms:
            state: Dict[Path, Fraction] = {v: 1}
            labels = p.arrows
            for a in reversed(labels[1:]):
                nxt: Dict[Path, Fraction] = {}
                for bp, c in state.items():
                    for tp, d in nf[(a, bp)].items():
                        nxt[tp] = nxt.get(tp, 0) + c * d
                state = {k: x for k, x in nxt.items() if x}
                if not state:
                    break
            if not state:
                continue
            a = labels[0]
            for bp, c in state.items():
                vec[cindex[(a, bp)]] += coeff * c
        return vec

    # -- queries ------------------------------------------------------
    def left_multiply(self, arrow_label: str, p: Path) -> Dict[Path, Fraction]:
        """Normal form of arrow * basis path, as {basis_path: int or Fraction};
        _build stores one for every such pair, and any other pair raises AlgebraError."""
        nf = self._nf.get((arrow_label, p))
        if nf is None:
            raise AlgebraError(f"{arrow_label} * {p} is not an arrow times a basis path "
                               "that it composes with")
        return nf

    def basis_with_source(self, v) -> List[Path]:
        """The basis paths that start at v, in basis order (a fresh list)."""
        return list(self._by_source.get(str(v), ()))

    def __repr__(self):
        return (f"BoundAlgebra(dim={self.dim}, "
                f"vertices={len(self.quiver.vertices)}, "
                f"arrows={len(self.quiver.arrows)}, "
                f"relations={len(self.relations)})")


build_algebra = path_algebra = BoundAlgebra


def opposite(a: BoundAlgebra) -> BoundAlgebra:
    """The opposite algebra: all arrows reversed, all relation paths reversed."""
    return BoundAlgebra(a.quiver.reversed(), [[(c, tuple(reversed(p.arrows))) for c, p in rel]
                                              for rel in a.relations])


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def sqrt2_quiver() -> Quiver:
    """Two vertices with one arrow 2 -> 1 and two arrows 1 -> 2."""
    return Quiver(["1", "2"], [("a", "2", "1"), ("b", "1", "2"), ("c", "1", "2")])


def sqrt2_algebra() -> BoundAlgebra:
    """The 5-dimensional algebra whose module category has irrational
    Frobenius-Perron dimension sqrt(2).

    All four length-2 compositions vanish, so the radical squares to zero and
    the basis is the two vertex idempotents plus the three arrows.
    """
    return BoundAlgebra(sqrt2_quiver(), [[(1, p)] for p in
                                         (("b", "a"), ("c", "a"), ("a", "b"), ("a", "c"))])


def kronecker_algebra() -> BoundAlgebra:
    """Path algebra of the two-arrow Kronecker quiver (hereditary, dim 4)."""
    return path_algebra(kronecker_quiver(2))


def local_two_loop_algebra(m: int, n: int) -> BoundAlgebra:
    """k<x,y>/(x^m, y^n, xy) presented on a one-vertex quiver with two loops.

    Note the single mixed relation: the word yx survives, so the monomial
    basis is {y^b x^a : a < m, b < n} and the dimension is m*n.
    """
    if m < 2 or n < 2:
        raise AlgebraError("both truncation exponents must be >= 2")
    q = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
    return BoundAlgebra(q, [[(1, ("x",) * m)], [(1, ("y",) * n)], [(1, ("x", "y"))]])


def dual_numbers_algebra() -> BoundAlgebra:
    """k[x]/(x^2): one vertex, one loop, loop squared to zero."""
    return BoundAlgebra(Quiver(["1"], [("x", "1", "1")]), [[(1, ("x", "x"))]])


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------

def algebra_to_json(a: BoundAlgebra) -> str:
    relations = [[{"coeff": rat_str(c), "path": list(p.arrows)} for c, p in rel]
                 for rel in a.relations]
    return dump_json({**quiver_block(a.quiver), "relations": relations})


def algebra_from_json(text: str) -> BoundAlgebra:
    """Parse the algebra JSON format: a quiver block plus relations whose
    paths list arrow labels in application order (rightmost applied first)."""
    raw = load_json(text, AlgebraError)
    try:
        q = quiver_from_block(raw)
    except QuiverError as e:
        raise AlgebraError(f"malformed algebra file: {e}") from e
    rels = raw.get("relations", [])
    if not isinstance(rels, list):
        raise AlgebraError(f"malformed relations {rels!r}: not a list")
    parsed = []
    for rel in rels:
        try:
            parsed.append([(rat(term["coeff"]), tuple(json_array(term["path"], "path")))
                           for term in rel])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            raise AlgebraError(f"malformed relation {rel!r}: {e}") from e
    return BoundAlgebra(q, parsed)
