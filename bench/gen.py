"""Seeded inputs for the three workloads.

Every file the program reads is written from the workload seed alone.  The
`scan` and `resolve` jobs are drawn from a finite universe of job specs:
fixed algebras, a fixed pool of random radical-square-zero algebras, a fixed
range of `fp-scan --seed` values and depths fixed per algebra.  Reference
outputs recorded once (`refs/`) therefore cover every workload seed.  The
`spectral` jobs come from an unbounded space and are checked by the mpmath
oracle instead.

Each workload is a stratified mix: the strata and their job counts are fixed
and the seed only chooses inside a stratum.  The cost of one pass over the mix
then barely depends on the seed, which keeps the end-to-end metrics steady.

A job is a dict:
  id       the reference key for scan/resolve (a small stratum may repeat
           a job within one mix)
  argv     the `fproot` arguments, file paths relative to the checkout root
  stratum  the stratum it was drawn from
  check    what the oracle needs (kind plus inputs)
  props    input properties reported as shares
"""

from __future__ import annotations

import json
import os
import random

# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------


def _algebra_doc(nverts, arrows, relations):
    """arrows: [(label, src, tgt)] on vertex indices; relations: lists of
    (coeff, [labels]) terms, labels in application order (rightmost first)."""
    return {
        "vertices": [str(i + 1) for i in range(nverts)],
        "arrows": [{"label": lab, "from": str(s + 1), "to": str(t + 1)}
                   for lab, s, t in arrows],
        "relations": [[{"coeff": c, "path": list(p)} for c, p in rel]
                      for rel in relations],
    }


def rsz_algebra(nverts, pairs):
    """Radical-square-zero algebra: every composable pair of arrows is a
    relation.  pairs: [(src, tgt)] on vertex indices."""
    arrows = [(f"a{k}", s, t) for k, (s, t) in enumerate(pairs)]
    rels = [[("1", [y, x])] for x, _, xt in arrows for y, ys, _ in arrows
            if xt == ys]
    return {"kind": "rsz", "nverts": nverts, "pairs": list(pairs),
            "doc": _algebra_doc(nverts, arrows, rels)}


def path_algebra(nverts, pairs):
    """Path algebra of an acyclic quiver (hereditary, no relations)."""
    arrows = [(f"a{k}", s, t) for k, (s, t) in enumerate(pairs)]
    return {"kind": "hereditary", "nverts": nverts, "pairs": list(pairs),
            "doc": _algebra_doc(nverts, arrows, [])}


def local_two_loop(m, n):
    """k<x,y>/(x^m, y^n, xy): one vertex, two loops, dimension m*n."""
    arrows = [("x", 0, 0), ("y", 0, 0)]
    rels = [[("1", ["x"] * m)], [("1", ["y"] * n)], [("1", ["x", "y"])]]
    return {"kind": "local", "m": m, "n": n, "nverts": 1,
            "doc": _algebra_doc(1, arrows, rels)}


def _connected(nverts, pairs):
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for s, t in pairs:
            for a, b in ((s, t), (t, s)):
                if a == v and b not in seen:
                    seen.add(b)
                    stack.append(b)
    return len(seen) == nverts


def _rsz_pool(nverts, count):
    """A fixed pool of connected random radical-square-zero algebras with at
    most two parallel arrows (three made one scan job 10x its stratum)."""
    rng = random.Random(f"rsz-pool:{nverts}")
    pool, seen = [], set()
    while len(pool) < count:
        na = rng.randint(2, 4)
        pairs = tuple(sorted((rng.randrange(nverts), rng.randrange(nverts))
                             for _ in range(na)))
        if (pairs in seen or not _connected(nverts, pairs)
                or max(pairs.count(p) for p in pairs) > 2):
            continue
        seen.add(pairs)
        pool.append(pairs)
    return pool


ALGEBRAS = {
    "sqrt2": rsz_algebra(2, [(1, 0), (0, 1), (0, 1)]),
    "dual": rsz_algebra(1, [(0, 0)]),
    "kron": path_algebra(2, [(0, 1), (0, 1)]),
    "A3": path_algebra(3, [(0, 1), (1, 2)]),
    "D4": path_algebra(4, [(1, 0), (2, 0), (3, 0)]),
    "E6": path_algebra(6, [(1, 0), (0, 2), (3, 2), (4, 2), (5, 4)]),
    "l22": local_two_loop(2, 2),
    "l23": local_two_loop(2, 3),
    "l33": local_two_loop(3, 3),
}
for _nv in (2, 3):
    for _k, _pairs in enumerate(_rsz_pool(_nv, 6)):
        ALGEBRAS[f"rsz{_nv}-{_k}"] = rsz_algebra(_nv, _pairs)



def family(alg):
    """The algebra family an input-property share is reported under."""
    return alg.split("-")[0] if alg.startswith("rsz") else \
        "local" if alg.startswith("l") else alg


def adjacency(alg):
    """Arrow-count matrix, entry (i, j) = number of arrows i -> j."""
    n = alg["nverts"]
    a = [[0] * n for _ in range(n)]
    for s, t in alg["pairs"]:
        a[s][t] += 1
    return a


def _matvec_row(row, a):
    n = len(a)
    return [sum(row[k] * a[k][j] for k in range(n)) for j in range(n)]


def step_multiplicities(alg, v, depth):
    """Predicted multiplicity of each P_w at steps 0..depth of the minimal
    resolution of the simple at v: row v of A^n for radical-square-zero
    algebras, [e_v, row v of A, 0, ...] for hereditary ones.  None for the
    local algebras, which have no closed form here."""
    n = alg["nverts"]
    a = adjacency(alg) if alg["kind"] != "local" else None
    row = [1 if j == v else 0 for j in range(n)]
    out = []
    for step in range(depth + 1):
        if alg["kind"] == "local":
            return None
        out.append(row)
        if alg["kind"] == "hereditary" and step >= 1:
            row = [0] * n
        else:
            row = _matvec_row(row, a)
    return out


def projective_dims(alg):
    """dim P_w for every vertex w."""
    n = alg["nverts"]
    if alg["kind"] == "local":
        return [alg["m"] * alg["n"]]
    a = adjacency(alg)
    if alg["kind"] == "rsz":
        return [1 + sum(a[w]) for w in range(n)]
    paths = [1] * n                 # hereditary: paths starting at w
    for _ in range(n):
        paths = [1 + sum(a[w][x] * paths[x] for x in range(n)) for w in range(n)]
    return paths


def predicted_size(alg, depth):
    """Predicted size of one `resolve` job: the total projective
    multiplicity, weighted by the dimension of each projective (the work per
    summand grows with it).  The job resolves every simple to `depth` (Ext
    tables, complexity), so this sums over all simples.  For the local
    algebras the multiplicity at step k is k + 1."""
    dims = projective_dims(alg)
    if alg["kind"] == "local":
        return dims[0] * sum(k + 1 for k in range(depth + 1))
    return sum(row[w] * dims[w]
               for v in range(alg["nverts"])
               for row in step_multiplicities(alg, v, depth)
               for w in range(alg["nverts"]))


RESOLVE_CAP = 256      # predicted_size per resolve job
RESOLVE_MAX_DEPTH = 10


def resolve_depths(alg):
    """Low, middle and high depth of the algebra under the multiplicity cap."""
    hi = 2
    while hi < RESOLVE_MAX_DEPTH and predicted_size(alg, hi + 1) <= RESOLVE_CAP:
        hi += 1
    return (2, (2 + hi) // 2, hi)


# ---------------------------------------------------------------------------
# scan and resolve: strata over a finite universe
# ---------------------------------------------------------------------------

SCAN_SEEDS = range(6)          # the fp-scan --seed values in the universe

# (algebra, --budget-dim, jobs per pass).  Every pool algebra is its own
# stratum, so the seed only picks the fp-scan seed there: a stratum per family
# let the pass cost swing by 25% between workload seeds.  A job's cost moves
# by up to 25% with its fp-scan seed, so each stratum draws three times the
# jobs of a 32-job mix: with one draw, p50 and p90 moved by 7% between
# workload seeds; with three, by under 1%.  The mix is 100 jobs, one pass of
# about 19 s, so that a run is one pass with >= 10 samples above p90.
SCAN_STRATA = [
    ("dual", 3, 11), ("dual", 4, 11), ("dual", 5, 6),
    ("sqrt2", 3, 6), ("sqrt2", 4, 3),
    ("kron", 3, 6), ("kron", 4, 3),
    ("A3", 3, 6), ("D4", 3, 6),
    ("rsz2-0", 4, 3), ("rsz2-3", 4, 3),
] + [(f"rsz{nv}-{k}", 3, 3) for nv in (2, 3) for k in range(6)]

# (algebra, depth level 0/1/2, jobs per pass); the seed picks the vertex
# where a stratum holds fewer jobs than the algebra has vertices.  A job's
# cost depends on the vertex by up to 4x on the radical-square-zero pool, so
# those strata take every vertex (the two-vertex ones at level 1 twice), and
# the seed mostly sets the order.  The counts put the median among many
# ~50 ms jobs and the p90 cut among many ~0.12 s jobs: at a gap between job
# sizes, or on ~15 ms jobs, either quantile moved by 25% between runs.
RESOLVE_STRATA = [
    ("sqrt2", level, 2) for level in (0, 1, 2)
] + [(alg, level, 1) for alg in ("l22", "l23", "l33") for level in (0, 1, 2)
] + [(alg, 2, 1) for alg in ("kron", "D4", "E6")
] + [(f"rsz2-{k}", 1, 4) for k in range(6)
] + [(f"rsz2-{k}", 2, 2) for k in range(6)
] + [(f"rsz3-{k}", level, 3) for k in range(6) for level in (1, 2)]


def alg_path(name):
    return f"algebras/{name}.json"


def scan_job(alg, dim, fpseed):
    return {"id": f"scan:{alg}:d{dim}:s{fpseed}",
            "argv": ["fp-scan", alg_path(alg), "--budget-dim", str(dim),
                     "--seed", str(fpseed)],
            "check": {"kind": "reference"},
            "files": {alg_path(alg): ALGEBRAS[alg]["doc"]}}


def resolve_job(alg, v, depth):
    spec = ALGEBRAS[alg]
    check = {"kind": "reference"}
    mult = step_multiplicities(spec, v, depth)
    if mult is not None:
        check = {"kind": "reference+closed_form",
                 "multiplicities": mult,
                 "tables": {u: step_multiplicities(spec, u, depth)
                            for u in range(spec["nverts"])}}
    return {"id": f"resolve:{alg}:v{v + 1}:d{depth}",
            "argv": ["resolve", alg_path(alg), "--simple", str(v + 1),
                     "--depth", str(depth)],
            "check": check, "files": {alg_path(alg): ALGEBRAS[alg]["doc"]},
            "props": {"total_multiplicity": sum(map(sum, mult)) if mult
                      else sum(k + 1 for k in range(depth + 1))}}


def scan_universe():
    """(stratum key, job) for every scan job any seed can draw."""
    for alg, dim, _ in SCAN_STRATA:
        for s in SCAN_SEEDS:
            yield (alg, dim), scan_job(alg, dim, s)


def resolve_universe():
    """(stratum key, job) for every resolve job any seed can draw."""
    for alg, level, _ in RESOLVE_STRATA:
        d = resolve_depths(ALGEBRAS[alg])[level]
        for v in range(ALGEBRAS[alg]["nverts"]):
            yield (alg, level), resolve_job(alg, v, d)


def _stratified(rng, strata, universe):
    by_stratum = {}
    for key, job in universe:
        by_stratum.setdefault(key, []).append(job)
    jobs = []
    for *key, count in strata:
        key = tuple(key)
        tag = ":".join(str(x) for x in key)
        pop = by_stratum[key]
        picks = pop * (count // len(pop)) + rng.sample(pop, count % len(pop))
        for job in picks:
            jobs.append({**job, "stratum": tag,
                         "props": {**job.get("props", {}),
                                   "family": family(key[0])}})
    return jobs


# ---------------------------------------------------------------------------
# spectral: random matrices and quivers
# ---------------------------------------------------------------------------

def _entry(rng, rational):
    if rng.random() < 0.3:
        return 0
    if rational and rng.random() < 0.3:
        return f"{rng.randint(1, 9)}/{rng.randint(2, 5)}"
    return rng.randint(1, 9)


def dense_matrix(rng, n, rational):
    return [[_entry(rng, rational) for _ in range(n)] for _ in range(n)]


def block_matrix(rng, sizes, inf=None):
    """Irreducible diagonal blocks of the given sizes, joined by entries that
    only go from an earlier block to a later one, then randomly permuted.
    inf='off' puts one +inf entry between two blocks (radius unchanged),
    inf='on' puts one inside a block (radius +inf)."""
    n = sum(sizes)
    m = [[0] * n for _ in range(n)]
    starts, s = [], 0
    for size in sizes:
        starts.append(s)
        idx = list(range(s, s + size))
        if size > 1:
            cyc = idx[:]
            rng.shuffle(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                m[a][b] = rng.randint(1, 9)
        for a in idx:
            for b in idx:
                if rng.random() < 0.3:
                    m[a][b] = rng.randint(1, 9)
        s += size
    for bi in range(len(sizes)):
        for bj in range(bi + 1, len(sizes)):
            if rng.random() < 0.5:
                a = starts[bi] + rng.randrange(sizes[bi])
                b = starts[bj] + rng.randrange(sizes[bj])
                m[a][b] = rng.randint(1, 9)
    if inf == "off":
        bi = rng.randrange(len(sizes) - 1)
        bj = rng.randrange(bi + 1, len(sizes))
        m[starts[bi] + rng.randrange(sizes[bi])][
            starts[bj] + rng.randrange(sizes[bj])] = "inf"
    elif inf == "on":
        bi = rng.randrange(len(sizes))
        a = starts[bi] + rng.randrange(sizes[bi])
        b = starts[bi] + rng.randrange(sizes[bi])
        m[a][b] = "inf"
    perm = list(range(n))
    rng.shuffle(perm)
    return [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def _block_sizes(rng, total, largest):
    """Block sizes largest, largest-1, ..., 1, largest, ... summing to total,
    in random order: the shape (and so the cost) is fixed, the order is not."""
    sizes, size = [], largest
    while sum(sizes) < total:
        sizes.append(min(size, total - sum(sizes)))
        size = size - 1 if size > 1 else largest
    rng.shuffle(sizes)
    return sizes


def random_quiver(rng, nverts, narrows):
    arrows = [(f"e{k}", rng.randrange(nverts), rng.randrange(nverts))
              for k in range(narrows)]
    return nverts, arrows


def _path_edges(start, length, first):
    """Edges of a path of `length` new vertices hanging off `start`."""
    edges, prev = [], start
    for k in range(length):
        edges.append((prev, first + k))
        prev = first + k
    return edges


def _star(legs):
    edges, nxt = [], 1
    for length in legs:
        edges += _path_edges(0, length, nxt)
        nxt += length
    return nxt, edges


def classify_shapes():
    """(expected family or None, rank or None, vertex count, undirected edges)."""
    shapes = []
    for n in range(1, 9):
        shapes.append(("A", n) + _star([n - 1]))
    for n in range(4, 9):
        shapes.append(("D", n) + _star([1, 1, n - 3]))
    for rank, legs in ((6, [1, 2, 2]), (7, [1, 2, 3]), (8, [1, 2, 4])):
        shapes.append(("E", rank) + _star(legs))
    shapes.append(("~A", 1, 2, [(0, 1), (0, 1)]))
    for n in range(2, 9):
        shapes.append(("~A", n, n + 1, [(k, (k + 1) % (n + 1)) for k in range(n + 1)]))
    shapes.append(("~D", 4) + _star([1, 1, 1, 1]))
    for n in range(5, 9):
        # two branch vertices 0 and n-4 joined by a path, two leaves each
        edges = [(k, k + 1) for k in range(n - 4)]
        edges += [(0, n - 3), (0, n - 2), (n - 4, n - 1), (n - 4, n)]
        shapes.append(("~D", n, n + 1, edges))
    for rank, legs in ((6, [2, 2, 2]), (7, [1, 3, 3]), (8, [1, 2, 5])):
        shapes.append(("~E", rank) + _star(legs))
    for legs in ([2, 2, 3], [1, 3, 4], [1, 1, 1, 2], [2, 2, 2, 2]):
        shapes.append((None, None) + _star(legs))
    shapes.append((None, None, 4, [(0, 1), (1, 2), (2, 0), (2, 3)]))
    shapes.append((None, None, 4, [(i, j) for i in range(4) for j in range(i + 1, 4)]))
    shapes.append((None, None, 3, [(0, 1), (0, 1), (1, 2)]))
    shapes.append((None, None, 8, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5),
                                   (5, 6), (5, 7)]))
    return shapes


def oriented(rng, nverts, edges):
    arrows = []
    for k, (a, b) in enumerate(edges):
        if rng.random() < 0.5:
            a, b = b, a
        arrows.append((f"e{k}", a, b))
    return nverts, arrows


def quiver_doc(rng, nverts, arrows):
    labels = [f"v{k}" for k in range(nverts)]
    rng.shuffle(labels)
    return {"vertices": sorted(labels),
            "arrows": [{"label": lab, "from": labels[s], "to": labels[t]}
                       for lab, s, t in arrows]}


# (stratum, jobs per draw).  The counts put the p90 cut inside the cluster of
# n = 6 certified jobs, not at the gap above it, where it moved by a third.
# A pass is SPECTRAL_DRAWS draws of these strata: with one, the seed moved
# p50 (the quiver jobs on the CLI floor) by 6%.
SPECTRAL_STRATA = [(f"dense{n}", {5: 6, 6: 10}.get(n, 4)) for n in range(2, 13)] + [
    ("sparse-small", 4), ("sparse-large", 4), ("inf-off", 4), ("inf-on", 4),
    ("quiver-fpdim", 10), ("quiver-cycles", 10), ("quiver-classify", 10),
]
SPECTRAL_DRAWS = 2


def _spectral_job(rng, stratum, draw, k):
    jid = f"spectral:{stratum}:{draw}-{k}"
    path = f"inputs/{jid.replace(':', '-')}.json"
    # the k-th job of a stratum has a fixed shape; the seed picks the entries
    if stratum.startswith("dense"):
        m = dense_matrix(rng, int(stratum[5:]), rational=k == 0)
    elif stratum == "sparse-small":
        m = block_matrix(rng, _block_sizes(rng, 12 + 4 * (k % 4), 6))
    elif stratum == "sparse-large":
        m = block_matrix(rng, _block_sizes(rng, 16 + 4 * (k % 3), 9))
    elif stratum.startswith("inf-"):
        m = block_matrix(rng, _block_sizes(rng, 6 + 3 * k, 5), inf=stratum[4:])
    if not stratum.startswith("quiver"):
        return {"id": jid, "stratum": stratum, "argv": ["spectral", path],
                "check": {"kind": "spectral", "matrix": m}, "files": {path: m}}
    action = stratum.split("-")[1]
    if action == "classify":
        fam, rank, nverts, edges = rng.choice(classify_shapes())
        nverts, arrows = oriented(rng, nverts, edges)
        check = {"kind": "quiver_classify", "family": fam, "rank": rank}
    else:
        # vertex counts 2..11 (fpdim) and 3..8 (cycles) by k: drawn at random,
        # they moved p50 between seeds
        nverts = 2 + k % 10 if action == "fpdim" else 3 + k % 6
        narrows = (rng.randint(nverts - 1, 2 * nverts) if action == "fpdim"
                   else rng.randint(nverts, min(nverts + 6, 14)))
        nverts, arrows = random_quiver(rng, nverts, narrows)
        check = {"kind": f"quiver_{action}"}
    doc = quiver_doc(rng, nverts, arrows)
    check["quiver"] = doc
    return {"id": jid, "stratum": stratum, "argv": ["quiver", path, action],
            "check": check, "files": {path: doc}}


def spectral_jobs(rng):
    return [_spectral_job(rng, stratum, draw, k) for draw in range(SPECTRAL_DRAWS)
            for stratum, count in SPECTRAL_STRATA for k in range(count)]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

WORKLOADS = ("scan", "resolve", "spectral")


def make_jobs(workload, seed):
    """The job mix of one workload pass, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan":
        jobs = _stratified(rng, SCAN_STRATA, scan_universe())
    elif workload == "resolve":
        jobs = _stratified(rng, RESOLVE_STRATA, resolve_universe())
    elif workload == "spectral":
        jobs = spectral_jobs(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def write_inputs(jobs, workdir):
    """Write every input file of the mix under workdir; returns argv lists
    with paths made relative to the current directory."""
    written = set()
    for job in jobs:
        for rel, doc in job["files"].items():
            if rel in written:
                continue
            path = os.path.join(workdir, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                json.dump(doc, fh)
            written.add(rel)
    return [[os.path.join(workdir, a) if a in job["files"] else a
             for a in job["argv"]] for job in jobs]
