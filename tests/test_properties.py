"""Counted random property suites: radius monotonicity and symmetry, the
block-triangular reduction, and the Euler-form cross-check of the resolution
engine on relation-free path algebras."""

import random
from fractions import Fraction

from fproot.exactlin import RatMatrix
from fproot.quiver import Quiver, is_acyclic
from fproot.algebra import path_algebra
from fproot.repmod import Representation, euler_ext1, ext
from fproot.spectral import rho, rho_block_lower_triangular


def random_nonneg(rng, n, span=4):
    return RatMatrix([[Fraction(rng.randint(0, span)) for _ in range(n)]
                      for _ in range(n)], cols=n)


def test_monotonicity_suite_200_pairs():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(2, 7)
        b = random_nonneg(rng, n)
        # principal minor
        keep = sorted(rng.sample(range(n), rng.randint(1, n)))
        a = RatMatrix([[b.data[i][j] for j in keep] for i in keep],
                      cols=len(keep))
        assert rho(a).value <= rho(b).value + 1e-9
        # entrywise domination
        c = RatMatrix([[b.data[i][j] + Fraction(rng.randint(0, 2))
                        for j in range(n)] for i in range(n)], cols=n)
        assert rho(b).value <= rho(c).value + 1e-9


def test_transpose_suite():
    rng = random.Random(103)
    for _ in range(100):
        m = random_nonneg(rng, rng.randint(1, 8))
        assert abs(rho(m).value - rho(m.transpose()).value) <= 1e-9


def test_block_triangular_suite():
    rng = random.Random(107)
    for _ in range(40):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        blocks = [random_nonneg(rng, s) for s in sizes]
        n = sum(sizes)
        big = [[Fraction(0)] * n for _ in range(n)]
        off = 0
        starts = []
        for b in blocks:
            starts.append(off)
            for i in range(b.rows):
                for j in range(b.cols):
                    big[off + i][off + j] = b.data[i][j]
            off += b.rows
        for bi in range(1, len(sizes)):
            for i in range(sizes[bi]):
                for j in range(starts[bi]):
                    big[starts[bi] + i][j] = Fraction(rng.randint(0, 3))
        assert abs(rho_block_lower_triangular(blocks).value -
                   rho(RatMatrix(big, cols=n)).value) <= 1e-9


def random_acyclic_quiver(rng):
    n = rng.randint(2, 4)
    vs = [str(i) for i in range(1, n + 1)]
    arrows = []
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            for _ in range(rng.randint(0, 2)):
                arrows.append((f"a{k}", vs[i], vs[j]))
                k += 1
    q = Quiver(vs, arrows)
    assert is_acyclic(q)
    return q


def random_module(rng, alg, max_dim=3):
    dimvec = {v: rng.randint(0, max_dim) for v in alg.quiver.vertices}
    maps = {}
    for a in alg.quiver.arrows:
        r, c = dimvec[a.target], dimvec[a.source]
        maps[a.label] = RatMatrix(
            [[Fraction(rng.randint(-2, 2)) for _ in range(c)]
             for _ in range(r)], cols=c)
    return Representation(alg, dimvec, maps, check=False)


def test_euler_form_vs_resolution_ext1_100_pairs():
    rng = random.Random(109)
    done = 0
    while done < 100:
        alg = path_algebra(random_acyclic_quiver(rng))
        m = random_module(rng, alg)
        n = random_module(rng, alg)
        if m.is_zero() or n.is_zero():
            continue
        assert ext(1, m, n) == euler_ext1(m, n)
        done += 1


def test_higher_ext_vanishes_on_hereditary():
    rng = random.Random(113)
    for _ in range(25):
        alg = path_algebra(random_acyclic_quiver(rng))
        m = random_module(rng, alg)
        n = random_module(rng, alg)
        if m.is_zero() or n.is_zero():
            continue
        assert ext(2, m, n) == 0
