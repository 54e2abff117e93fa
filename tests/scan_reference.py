"""A test-only reference for the brick scan: the sampling loop of
`fproot.cli.scan_candidates` with every draw examined, repeats included,
and every sampled entry a `Fraction`.  It makes the same rng calls in the
same order, so for a seed it must find the same candidates, under the same
names, and stop at the same point.  Its dedup is the composite test on Hom
bases, not the scan's one Hom system.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

from fproot.exactlin import RatMatrix
from fproot.repmod import (Representation, RepresentationError, hom, is_brick,
                           projective, simples)


def _random_representation(alg, dimvec, rng, name):
    maps = {}
    for a in alg.quiver.arrows:
        r, c = dimvec[a.target], dimvec[a.source]
        if rng.random() < 0.4:
            maps[a.label] = RatMatrix.zeros(r, c)
        else:
            maps[a.label] = RatMatrix(
                [[Fraction(rng.randint(-2, 2)) for _ in range(c)]
                 for _ in range(r)], cols=c)
    try:
        return Representation(alg, dimvec, maps, name=name, check=True)
    except RepresentationError:
        return None


def _isomorphic_bricks(m, n):
    """Two bricks are isomorphic iff their dimension vectors match and some
    composite g f of a map f: m -> n and a map g: n -> m, taken from the Hom
    bases, is nonzero (End(m) = k, so a nonzero g f is invertible)."""
    if m.dimvec != n.dimvec:
        return False
    return any(not (g[v] @ f[v]).is_zero() for f in hom(m, n).basis
               for g in hom(n, m).basis for v in m.rows[0])


def _dimension_vectors(vertices, budget):
    for total in range(1, budget + 1):
        for picked in combinations_with_replacement(vertices, total):
            dv = dict.fromkeys(vertices, 0)
            for v in picked:
                dv[v] += 1
            yield dv


def reference_scan(alg, dim_budget, seed, samples_per_dimvec=40,
                   max_candidates=64):
    """(candidates, truncated), as scan_candidates returns them: a brick
    isomorphic to a candidate is skipped before the cap is consulted, and
    the first brick the cap refuses ends the scan as truncated."""
    rng = random.Random(seed)
    cands = []

    def push(rep):
        if any(_isomorphic_bricks(rep, c) for c in cands):
            return True
        if len(cands) >= max_candidates:
            return False
        cands.append(rep)
        return True

    for s in simples(alg):
        if not push(s):
            return cands, True
    for v in alg.quiver.vertices:
        p = projective(alg, v)
        if not p.is_zero() and is_brick(p):
            if not push(p):
                return cands, True

    for dv in sorted(_dimension_vectors(list(alg.quiver.vertices), dim_budget),
                     key=lambda d: (sum(d.values()), tuple(sorted(d.items())))):
        dims = "B(" + ",".join(str(dv[v]) for v in alg.quiver.vertices) + ")"
        for _ in range(samples_per_dimvec):
            rep = _random_representation(alg, dv, rng, f"{dims}#{len(cands)}")
            if rep is None or rep.is_zero():
                continue
            if is_brick(rep):
                if not push(rep):
                    return cands, True
    return cands, False
