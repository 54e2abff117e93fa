"""Quivers as combinatorial objects.

Adjacency matrices, Frobenius-Perron dimension, cycle numbers, classification
of underlying graphs against the (extended) Dynkin shapes, and positive roots
of the ADE root systems.  Cycle numbers, acyclicity and connectivity are read
off strongly connected components and have no size cap; only the explicit
enumeration `simple_cycles` is capped.

Convention: adjacency entry (i, j) counts arrows i -> j.  The radius is
transpose invariant so this choice is observationally irrelevant, but it is
fixed here for file-format stability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .exactlin import InputError, RatMatrix, dump_json, json_array, load_json
from .spectral import (NUMERIC_TOL, SpectralValue, rho_nonnegative_via_scc,
                       strongly_connected_components)

CYCLE_ENUM_MAX_VERTICES = 12
CYCLE_ENUM_MAX_ARROWS = 24


class QuiverError(InputError):
    pass


@dataclass(frozen=True)
class Arrow:
    label: str
    source: str
    target: str


class Quiver:
    """A finite directed multigraph with labeled arrows (loops allowed)."""

    __slots__ = ("vertices", "arrows", "_vindex", "_aindex")

    def __init__(self, vertices: Sequence[str], arrows: Sequence):
        vs = tuple(str(v) for v in vertices)
        if len(set(vs)) != len(vs):
            raise QuiverError("duplicate vertex names")
        ars = []
        for a in arrows:
            if isinstance(a, Arrow):
                ars.append(a)
            else:
                label, s, t = a
                ars.append(Arrow(str(label), str(s), str(t)))
        labels = [a.label for a in ars]
        if len(set(labels)) != len(labels):
            raise QuiverError("duplicate arrow labels")
        vset = set(vs)
        for a in ars:
            if a.source not in vset or a.target not in vset:
                raise QuiverError(f"arrow {a.label}: {a.source}->{a.target} "
                                  "has undeclared endpoint")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "arrows", tuple(ars))
        object.__setattr__(self, "_vindex", {v: i for i, v in enumerate(vs)})
        object.__setattr__(self, "_aindex", {a.label: i for i, a in enumerate(ars)})

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Quiver is immutable")

    def vertex_index(self, v: str) -> int:
        return self._vindex[str(v)]

    def arrow_index(self, label: str) -> int:
        try:  # a label read from JSON may be unhashable
            return self._aindex[label]
        except (KeyError, TypeError):
            raise QuiverError(f"no arrow labeled {label!r}") from None

    def arrow(self, label: str) -> Arrow:
        return self.arrows[self.arrow_index(label)]

    def reversed(self) -> "Quiver":
        return Quiver(self.vertices,
                      [(a.label, a.target, a.source) for a in self.arrows])

    def __repr__(self):
        return (f"Quiver({len(self.vertices)} vertices, "
                f"{len(self.arrows)} arrows)")


def _arrow_counts(q: Quiver) -> List[List[int]]:
    """Entry (i, j) = number of arrows i -> j, as ints."""
    n = len(q.vertices)
    counts = [[0] * n for _ in range(n)]
    for a in q.arrows:
        counts[q.vertex_index(a.source)][q.vertex_index(a.target)] += 1
    return counts


def adjacency(q: Quiver) -> RatMatrix:
    """Arrow-count matrix: entry (i, j) = number of arrows i -> j."""
    return RatMatrix(_arrow_counts(q), cols=len(q.vertices))


def underlying_adjacency(q: Quiver) -> RatMatrix:
    """Symmetric edge-count matrix of the underlying undirected graph: the
    int counts both ways, summed.

    Loops are rejected: the classification target (simple graphs) has none.
    """
    if any(a.source == a.target for a in q.arrows):
        raise QuiverError("underlying simple graph is undefined with loops")
    c = _arrow_counts(q)
    return RatMatrix([map(int.__add__, row, col) for row, col in zip(c, zip(*c))],
                     cols=len(c))


def quiver_fpdim(q: Quiver) -> SpectralValue:
    """Perron root of the adjacency matrix of q."""
    return rho_nonnegative_via_scc(adjacency(q))


def _edges(q: Quiver) -> List[Tuple[int, int]]:
    """The arrows as (source, target) vertex-index pairs."""
    return [(q.vertex_index(a.source), q.vertex_index(a.target)) for a in q.arrows]


# ---------------------------------------------------------------------------
# cycle numbers
# ---------------------------------------------------------------------------

def simple_cycles(q: Quiver) -> List[Tuple[Arrow, ...]]:
    """All vertex-simple oriented cycles, as arrow tuples.

    Parallel arrows give distinct cycles.  Each cycle is reported once, based
    at its smallest vertex index.  Enumeration is capped at small quivers;
    the cycle numbers do not use it.
    """
    n = len(q.vertices)
    if n > CYCLE_ENUM_MAX_VERTICES or len(q.arrows) > CYCLE_ENUM_MAX_ARROWS:
        raise QuiverError(
            f"cycle enumeration capped at {CYCLE_ENUM_MAX_VERTICES} vertices / "
            f"{CYCLE_ENUM_MAX_ARROWS} arrows")
    out_arrows: List[List[Arrow]] = [[] for _ in range(n)]
    for a in q.arrows:
        out_arrows[q.vertex_index(a.source)].append(a)

    cycles: List[Tuple[Arrow, ...]] = []

    def dfs(base: int, v: int, visited: set, path: List[Arrow]):
        for a in out_arrows[v]:
            w = q.vertex_index(a.target)
            if w == base:
                cycles.append(tuple(path + [a]))
            elif w > base and w not in visited:
                visited.add(w)
                dfs(base, w, visited, path + [a])
                visited.remove(w)

    for base in range(n):
        dfs(base, base, {base}, [])
    return cycles


def is_acyclic(q: Quiver) -> bool:
    """True when q has no oriented cycle (no cap)."""
    return cycle_number(q).theta == 0


@dataclass(frozen=True)
class CycleNumber:
    """Per-vertex and global cycle counts, saturated at 2 (meaning >= 2)."""

    per_vertex: Dict[str, int]
    theta: int

    def describe(self) -> str:
        return {0: "0", 1: "1", 2: ">=2"}[self.theta]


def cycle_number(q: Quiver) -> CycleNumber:
    """Count first-return oriented cycles per vertex, saturated at >= 2.

    Only the strongly connected component of v matters.  With no arrow
    inside it there is no such walk; with as many inner arrows as vertices
    the component is one cycle (or one loop), walked once; with more, a
    second cycle in it can be entered and left any number of times.  So the
    count is the component's cycle rank, inner arrows - vertices + 1,
    saturated at 2.  No size cap.
    """
    edges = _edges(q)
    comps = strongly_connected_components(len(q.vertices), edges)
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    cycle_rank = [1 - len(comp) for comp in comps]
    for s, t in edges:
        if comp_of[s] == comp_of[t]:
            cycle_rank[comp_of[s]] += 1
    per = {v: min(2, cycle_rank[comp_of[i]]) for i, v in enumerate(q.vertices)}
    return CycleNumber(per, max(per.values(), default=0))


@dataclass(frozen=True)
class TrichotomyReport:
    fpdim: SpectralValue
    theta: int
    consistent: bool
    detail: str


def fpdim_trichotomy_check(q: Quiver) -> TrichotomyReport:
    """Check the three biconditionals relating fpdim(Q) and the cycle number:
    theta 0 <-> radius 0, theta 1 <-> radius 1, theta >= 2 <-> radius > 1,
    each up to the declared tolerance of an uncertified radius (NUMERIC_TOL)."""
    r = quiver_fpdim(q)
    theta = cycle_number(q).theta
    if theta == 0:
        ok = r.value <= NUMERIC_TOL
        detail = "acyclic: radius must be 0"
    elif theta == 1:
        ok = abs(r.value - 1.0) <= NUMERIC_TOL
        detail = "single cycle structure: radius must be 1"
    else:
        ok = r.value > 1.0 + NUMERIC_TOL
        detail = "multiple cycle structure: radius must exceed 1"
    return TrichotomyReport(r, theta, ok, detail)


# ---------------------------------------------------------------------------
# (extended) Dynkin classification and positive roots
# ---------------------------------------------------------------------------

def _is_connected(q: Quiver) -> bool:
    """Whether the arrows, taken both ways, join all vertices of q (a quiver
    with no vertices is not connected)."""
    edges = _edges(q)
    return len(strongly_connected_components(
        len(q.vertices), edges + [(t, s) for s, t in edges])) == 1


# the sorted leg lengths at the one branch vertex of a tree, besides the
# (1, 1, k) legs of D_{k+3}
_LEG_SHAPES = {(1, 2, 2): ("E", 6), (1, 2, 3): ("E", 7), (1, 2, 4): ("E", 8),
               (2, 2, 2): ("~E", 6), (1, 3, 3): ("~E", 7), (1, 2, 5): ("~E", 8),
               (1, 1, 1, 1): ("~D", 4)}


def classify_underlying_graph(q: Quiver):
    """Match the underlying undirected graph against the ADE and extended
    ADE shapes.

    Returns ('A'|'D'|'E', rank), ('~A'|'~D'|'~E', rank), or None.  Input must
    be connected and loop-free; parallel edges are only meaningful for the
    two-vertex double edge, which is the rank-1 extended A shape.
    """
    U = underlying_adjacency(q)  # rejects loops before the connectivity test
    if not _is_connected(q):
        raise QuiverError("classification needs a connected graph")
    n, edge_count = len(q.vertices), len(q.arrows)
    nbrs = [[j for j in range(n) if U.data[i][j]] for i in range(n)]
    deg = [len(x) for x in nbrs]
    if sum(deg) != 2 * edge_count:  # parallel edges
        return ("~A", 1) if n == 2 and edge_count == 2 else None
    if edge_count == n and all(d == 2 for d in deg):
        return ("~A", n - 1)
    if edge_count != n - 1:
        return None  # not a tree
    branch = [i for i in range(n) if deg[i] >= 3]
    if not branch:
        return ("A", n)
    if len(branch) == 2:
        # extended D: two degree-3 vertices, each with two leaf neighbours
        if all(deg[b] == 3 and [deg[w] for w in nbrs[b]].count(1) == 2
               for b in branch):
            return ("~D", n - 1)
        return None
    if len(branch) > 2:
        return None
    c = branch[0]
    # the legs are the components left when the branch vertex is removed
    rest = [(i, j) for i in range(n) for j in nbrs[i] if c not in (i, j)]
    legs = tuple(sorted(len(comp) for comp in strongly_connected_components(n, rest)
                        if c not in comp))
    if len(legs) == 3 and legs[:2] == (1, 1):
        return ("D", legs[2] + 3)
    return _LEG_SHAPES.get(legs)


# builders ------------------------------------------------------------------

def path_quiver(n: int) -> Quiver:
    """Linearly oriented A_n: arrows i -> i+1."""
    vs = [str(i) for i in range(1, n + 1)]
    ars = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    return Quiver(vs, ars)


def cycle_quiver(n: int) -> Quiver:
    """A single oriented n-cycle."""
    vs = [str(i) for i in range(1, n + 1)]
    ars = [(f"a{i}", str(i), str(i % n + 1)) for i in range(1, n + 1)]
    return Quiver(vs, ars)


def kronecker_quiver(arrow_count: int = 2) -> Quiver:
    """Two vertices with arrow_count parallel arrows 1 -> 2."""
    labels = "bcdefgh"
    return Quiver(["1", "2"],
                  [(labels[i], "1", "2") for i in range(arrow_count)])


def dynkin_quiver(family: str, rank: int) -> Quiver:
    """A quiver (one fixed orientation) whose underlying graph is the Dynkin
    diagram of the given family and rank."""
    family = family.upper()
    if family == "A":
        return path_quiver(rank)
    if family == "D":
        if rank < 4:
            raise QuiverError("type D needs rank >= 4")
        vs = [str(i) for i in range(1, rank + 1)]
        ars = [("f1", "1", "3"), ("f2", "2", "3")]
        ars += [(f"a{i}", str(i), str(i + 1)) for i in range(3, rank)]
        return Quiver(vs, ars)
    if family == "E":
        if rank not in (6, 7, 8):
            raise QuiverError("type E needs rank 6, 7 or 8")
        vs = [str(i) for i in range(1, rank)] + ["q"]
        ars = [(f"a{i}", str(i), str(i + 1)) for i in range(1, rank - 1)] + [("b", "q", "3")]
        return Quiver(vs, ars)
    raise QuiverError(f"unknown Dynkin family {family!r}")


def extended_dynkin_quiver(family: str, rank: int) -> Quiver:
    """One orientation of the extended (affine) diagram of the family."""
    family = family.upper().lstrip("~")
    if family == "A":
        if rank == 1:
            return kronecker_quiver(2)
        if rank < 1:
            raise QuiverError("extended type A needs rank >= 1")
        return cycle_quiver(rank + 1)
    if family == "D":
        if rank < 4:
            raise QuiverError("extended type D needs rank >= 4")
        vs = [str(i) for i in range(1, rank)] + ["u", "w"]
        ars = [("f1", "1", "3"), ("f2", "2", "3")]
        ars += [(f"a{i}", str(i), str(i + 1)) for i in range(3, rank - 1)]
        ars += [("g1", "u", str(rank - 1)), ("g2", "w", str(rank - 1))]
        return Quiver(vs, ars)
    if family == "E":
        base = dynkin_quiver("E", rank)
        attach = {6: "q", 7: "1", 8: str(rank - 1)}[rank]
        vs = list(base.vertices) + ["x"]
        ars = [(a.label, a.source, a.target) for a in base.arrows] + [("ext", "x", attach)]
        return Quiver(vs, ars)
    raise QuiverError(f"unknown extended Dynkin family {family!r}")


# positive roots ------------------------------------------------------------

def positive_roots(q: Quiver) -> List[Tuple[int, ...]]:
    """Positive roots of the ADE root system of the underlying graph.

    Simple roots are closed under the simple reflections
    s_i(x) = x - (sum_j C_ij x_j) e_i with C = 2I - A the Cartan matrix;
    the positive vectors of the resulting root set are returned sorted.
    """
    cls = classify_underlying_graph(q)
    if cls is None or cls[0] not in ("A", "D", "E"):
        raise QuiverError("positive roots need an ADE graph")
    n = len(q.vertices)
    U = underlying_adjacency(q)
    cartan = [[(2 if i == j else -U.data[i][j]) for j in range(n)]
              for i in range(n)]
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for x in frontier:
            for i in range(n):
                pairing = sum(cartan[i][j] * x[j] for j in range(n))
                y = tuple(x[j] - (pairing if j == i else 0) for j in range(n))
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return sorted(v for v in seen if all(c >= 0 for c in v) and any(v))


# JSON / DOT ----------------------------------------------------------------

def quiver_block(q: Quiver) -> dict:
    """The vertices/arrows block that the quiver and algebra files share."""
    return {"vertices": list(q.vertices),
            "arrows": [{"label": a.label, "from": a.source, "to": a.target}
                       for a in q.arrows]}


def quiver_from_block(raw) -> Quiver:
    """The Quiver of a vertices/arrows block read from JSON; QuiverError names
    what is malformed, and each file reader adds its own prefix."""
    try:
        return Quiver(json_array(raw["vertices"], "vertices"),
                      [(a["label"], a["from"], a["to"])
                       for a in json_array(raw.get("arrows", []), "arrows")])
    except KeyError as e:
        raise QuiverError(f"missing {e}") from e
    except TypeError as e:
        raise QuiverError(str(e)) from e


def quiver_to_json(q: Quiver) -> str:
    return dump_json(quiver_block(q))


def quiver_from_json(text: str) -> Quiver:
    raw = load_json(text, QuiverError)
    try:
        return quiver_from_block(raw)
    except QuiverError as e:
        raise QuiverError(f"malformed quiver file: {e}") from e


def quiver_to_dot(q: Quiver) -> str:
    """Graphviz DOT text; each name is a quoted ID with \\ and " escaped."""
    def quote(name):
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'
    lines = ["digraph quiver {", *(f"  {quote(v)};" for v in q.vertices),
             *(f"  {quote(a.source)} -> {quote(a.target)} [label={quote(a.label)}];"
               for a in q.arrows), "}"]
    return "\n".join(lines) + "\n"
