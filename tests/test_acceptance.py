"""Acceptance suite: one test per criterion, tolerances pinned inline.

Run with `pytest tests/test_acceptance.py -v` for a pass/fail line per
criterion; each test also prints an ACCEPTANCE line when it passes.
"""

import math
import random
from fractions import Fraction

import pytest

from fproot.algebra import kronecker_algebra, path_algebra, sqrt2_algebra
from fproot.exactlin import RatMatrix
from fproot.fpcore import (FpBudgets, dual_numbers_shift_table,
                           ext1_quiver, ext_assignment, fp_report,
                           genus_matrix, growth_analyze, homtable_fp,
                           verify_brick_set, adjacency_of, BrickSet)
from fproot.quiver import (Quiver, cycle_quiver, dynkin_quiver,
                           extended_dynkin_quiver, fpdim_trichotomy_check,
                           is_acyclic, kronecker_quiver, path_quiver,
                           quiver_fpdim, underlying_adjacency)
from fproot.repmod import (dynkin_indecomposables, euler_ext1, ext,
                           ext_simple_table, hom_dim,
                           kronecker_brick_catalogue, minimal_resolution,
                           simple, simples, sqrt2_brick_catalogue,
                           Representation)
from fproot.spectral import (ExtendedMatrix, rho, rho_block_lower_triangular,
                             rho_extended, rho_nonnegative_via_scc)

SQRT2 = math.sqrt(2.0)


def report(k, text):
    print(f"ACCEPTANCE {k:02d} PASS - {text}")


def test_criterion_01_extended_radius_upper_triangular():
    r = rho_extended(ExtendedMatrix([[1, -math.inf], [0, 2]]))
    assert r.value == 2.0, f"expected exactly 2, got {r.value}"
    assert r.certified and r.tolerance == 0.0
    report(1, "radius of [[1, -inf], [0, 2]] is exactly 2, certified")


def test_criterion_02_smith_classification():
    dynkin = [("A", r) for r in range(1, 9)] + \
             [("D", r) for r in range(4, 9)] + \
             [("E", r) for r in (6, 7, 8)]
    for fam, r in dynkin:
        u = underlying_adjacency(dynkin_quiver(fam, r))
        v = rho(u).value
        assert v < 2 - 1e-6, f"{fam}{r}: {v}"
    extended = [("A", r) for r in range(1, 9)] + \
               [("D", r) for r in range(4, 9)] + \
               [("E", r) for r in (6, 7, 8)]
    for fam, r in extended:
        u = underlying_adjacency(extended_dynkin_quiver(fam, r))
        v = rho(u).value
        assert abs(v - 2.0) <= 1e-9, f"extended {fam}{r}: {v}"
    report(2, f"{len(dynkin)} Dynkin graphs below 2, "
              f"{len(extended)} extended graphs at 2")


def _trichotomy_corpus():
    corpus = [
        path_quiver(2), path_quiver(5), path_quiver(8),
        cycle_quiver(2), cycle_quiver(3), cycle_quiver(7),
        kronecker_quiver(2), kronecker_quiver(3),
        Quiver(["v"], [("l", "v", "v")]),
        Quiver(["v"], [("l1", "v", "v"), ("l2", "v", "v")]),
        # cycle with a tail
        Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "1"),
                                 ("c", "2", "3")]),
        # two disjoint 2-cycles
        Quiver(["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "1"),
                                      ("c", "3", "4"), ("d", "4", "3")]),
        # two triangles sharing one vertex
        Quiver(["1", "2", "3", "4", "5"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1"),
                ("d", "1", "4"), ("e", "4", "5"), ("f", "5", "1")]),
        # cycle with a chord
        Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"),
                ("d", "4", "1"), ("e", "2", "4")]),
    ]
    rng = random.Random(2024)
    while len(corpus) < 34:
        n = rng.randint(2, 8)
        vs = [str(i) for i in range(1, n + 1)]
        arrows = [(f"a{k}", rng.choice(vs), rng.choice(vs))
                  for k in range(rng.randint(1, 10))]
        corpus.append(Quiver(vs, arrows))
    return corpus


def test_criterion_03_trichotomy_corpus():
    corpus = _trichotomy_corpus()
    assert len(corpus) >= 30
    for q in corpus:
        rep = fpdim_trichotomy_check(q)
        assert rep.consistent, (q, rep)
    report(3, f"cycle-number trichotomy verified on {len(corpus)} quivers")


def test_criterion_04_sqrt2_suite():
    alg = sqrt2_algebra()
    assert alg.dim == 5
    s1, s2 = simples(alg)
    grid = [[ext(1, s1, s1), ext(1, s1, s2)],
            [ext(1, s2, s1), ext(1, s2, s2)]]
    assert grid == [[0, 2], [1, 0]], grid

    cat = sqrt2_brick_catalogue(alg, lambda_count=8, family_depth=3)
    rep = fp_report(cat, ext_assignment(alg),
                    FpBudgets(max_set_size=4, max_power=1,
                              extra={"lambda_count": 8, "family_depth": 3}))
    v2 = rep.value(2, 1)
    assert abs(v2.value - SQRT2) <= 1e-9
    assert v2.certified, "the sqrt(2) value must come out of the exact path"
    for n in (1, 3, 4):
        assert abs(rep.value(n, 1).value - 1.0) <= 1e-9, n
    assert rep.stabilization_index == 2
    report(4, "dim 5, Ext matrix [[0,2],[1,0]], fp dims (1, sqrt2, 1, 1), SI 2")


def test_criterion_05_resolution_closed_forms():
    alg = sqrt2_algebra()
    res = minimal_resolution(simple(alg, "1"), 8)
    mults = [sum(res.multiplicities(i).values()) for i in range(9)]
    assert mults == [1, 2, 2, 4, 4, 8, 8, 16, 16], mults
    vertices = [list(res.multiplicities(i)) for i in range(9)]
    assert vertices == [["1"], ["2"], ["1"], ["2"], ["1"],
                        ["2"], ["1"], ["2"], ["1"]]
    t = ext_simple_table(alg, 8)
    for i in range(9):
        assert t[("1", "1")][i] == (2 ** (i // 2) if i % 2 == 0 else 0)
        assert t[("2", "2")][i] == (2 ** (i // 2) if i % 2 == 0 else 0)
        assert t[("1", "2")][i] == (2 ** ((i + 1) // 2) if i % 2 == 1 else 0)
        assert t[("2", "1")][i] == (2 ** ((i - 1) // 2) if i % 2 == 1 else 0)
    report(5, "multiplicities 1,2,2,4,4,8,8,16,16 and Ext closed forms to degree 8")


def test_criterion_06_dynkin_module_categories():
    expected_counts = {("A", 2): 3, ("A", 3): 6, ("A", 4): 10, ("D", 4): 12}
    for (fam, rank), count in expected_counts.items():
        alg = path_algebra(dynkin_quiver(fam, rank))
        mods = dynkin_indecomposables(alg)
        assert len(mods) == count, (fam, rank, len(mods))
        asn = ext_assignment(alg)
        hom_matrix = asn.matrix(mods, 0)
        ext_matrix = asn.matrix(mods, 1)
        # every brick subset has a strictly triangularizable Ext adjacency
        checked = 0
        idxs = list(range(count))
        stack = [((), 0)]
        while stack:
            cur, start = stack.pop()
            if cur:
                sub = RatMatrix([[ext_matrix.data[i][j] for j in cur]
                                 for i in cur], cols=len(cur))
                r = rho_nonnegative_via_scc(sub)
                assert r.value == 0.0 and r.certified, (fam, rank, cur)
                checked += 1
            for k in range(start, count):
                i = idxs[k]
                if hom_matrix.data[i][i] != 1:
                    continue
                if all(hom_matrix.data[i][j] == 0 and hom_matrix.data[j][i] == 0
                       for j in cur):
                    stack.append((cur + (i,), k + 1))
        assert checked > 0
        eq = ext1_quiver(mods, asn)
        assert is_acyclic(eq), (fam, rank)
    report(6, "A2/A3/A4/D4: full root-count brick lists, zero radius on every "
              "brick set, acyclic Ext quivers")


def test_criterion_07_kronecker_desk_scale():
    alg = kronecker_algebra()
    cat = kronecker_brick_catalogue(alg, max_total_dim=6, lambda_count=8)
    assert all(m.total_dim <= 6 for m in cat)
    rep = fp_report(cat, ext_assignment(alg),
                    FpBudgets(max_set_size=len(cat), max_power=1,
                              extra={"dim_budget": 6}))
    worst = max(rep.value(n, 1).value
                for n in range(1, len(cat) + 1) if (n, 1) in rep.cells)
    assert abs(worst - 1.0) <= 1e-9, worst
    qv = quiver_fpdim(kronecker_quiver())
    assert qv.value == 0.0 and qv.certified
    report(7, f"max radius over {len(cat)} Kronecker bricks is 1, "
              "quiver invariant stays 0")


def test_criterion_08_tables():
    from fproot.tables import (a2_surface, p1_serre_surface, p1_twist_surface,
                               polyring_surface)
    for a in range(-10, 11):
        for b in range(-10, 11):
            assert p1_serre_surface(a, b) == p1_twist_surface(a + b, -2 * b)
    assert p1_serre_surface(1, 0) == 1.0
    assert a2_surface(1, 0) == 0.0
    for g in range(0, 9):
        assert [polyring_surface(g, i) for i in range(g + 1)] == \
            [math.comb(g, i) for i in range(g + 1)]
    report(8, "Serre/twist tables agree on the 21x21 window; fp(1,0) values "
              "and binomial rows check out")


def test_criterion_09_homtable_window():
    tbl = dual_numbers_shift_table(-20, 20)
    for power in list(range(-3, 0)) + list(range(2, 5)):
        rep = homtable_fp(tbl, power, FpBudgets(max_set_size=5, max_power=1))
        for n in range(1, 6):
            assert rep.value(n, 1).value == 0.0, (power, n)
    for power in (0, 1):
        rep = homtable_fp(tbl, power, FpBudgets(max_set_size=5, max_power=1))
        for n in range(1, 6):
            assert abs(rep.value(n, 1).value - 1.0) <= 1e-12, (power, n)
    report(9, "index-shift powers {0,1} give 1 and {-3..-1, 2..4} give 0 "
              "for set sizes up to 5")


def test_criterion_10_genus_matrices():
    for n in range(1, 11):
        for g in range(2, 6):
            v = rho(genus_matrix(n, g)).value
            assert abs(v - (n * (g - 1) + 1)) <= 1e-9, (n, g, v)
    report(10, "genus matrix radii equal n(g-1)+1 for n <= 10, g <= 5")


def test_criterion_11_growth_estimates():
    g1 = growth_analyze([math.floor(n ** 1.5) for n in range(1, 201)])
    assert 1.35 <= g1.fpg <= 1.65, g1.fpg
    g2 = growth_analyze([math.floor(1.3 ** n) for n in range(1, 61)])
    assert 1.27 <= g2.fpv <= 1.33, g2.fpv
    alg = sqrt2_algebra()
    rep = fp_report(simples(alg), ext_assignment(alg),
                    FpBudgets(max_set_size=2, max_power=10))
    assert SQRT2 - 0.05 <= rep.growth.fpv <= SQRT2 + 0.05, rep.growth.fpv
    report(11, f"fpg {g1.fpg:.3f} in [1.35,1.65]; fpv {g2.fpv:.3f} in "
               f"[1.27,1.33]; Ext-window curvature {rep.growth.fpv:.4f}")


def test_criterion_12_property_suites():
    rng = random.Random(777)

    def rand_nonneg(n, span=4):
        return RatMatrix([[Fraction(rng.randint(0, span)) for _ in range(n)]
                          for _ in range(n)], cols=n)

    for _ in range(200):
        n = rng.randint(2, 7)
        b = rand_nonneg(n)
        keep = sorted(rng.sample(range(n), rng.randint(1, n)))
        a = RatMatrix([[b.data[i][j] for j in keep] for i in keep],
                      cols=len(keep))
        assert rho(a).value <= rho(b).value + 1e-9
        c = RatMatrix([[b.data[i][j] + Fraction(rng.randint(0, 2))
                        for j in range(n)] for i in range(n)], cols=n)
        assert rho(b).value <= rho(c).value + 1e-9
        assert abs(rho(b).value - rho(b.transpose()).value) <= 1e-9

    for _ in range(40):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        blocks = [rand_nonneg(s) for s in sizes]
        n = sum(sizes)
        big = [[Fraction(0)] * n for _ in range(n)]
        off, starts = 0, []
        for bl in blocks:
            starts.append(off)
            for i in range(bl.rows):
                for j in range(bl.cols):
                    big[off + i][off + j] = bl.data[i][j]
            off += bl.rows
        for bi in range(1, len(sizes)):
            for i in range(sizes[bi]):
                for j in range(starts[bi]):
                    big[starts[bi] + i][j] = Fraction(rng.randint(0, 3))
        assert abs(rho_block_lower_triangular(blocks).value -
                   rho(RatMatrix(big, cols=n)).value) <= 1e-9

    done = 0
    while done < 100:
        nv = rng.randint(2, 4)
        vs = [str(i) for i in range(1, nv + 1)]
        arrows, k = [], 0
        for i in range(nv):
            for j in range(i + 1, nv):
                for _ in range(rng.randint(0, 2)):
                    arrows.append((f"a{k}", vs[i], vs[j]))
                    k += 1
        alg = path_algebra(Quiver(vs, arrows))

        def rand_module():
            dimvec = {v: rng.randint(0, 3) for v in vs}
            maps = {}
            for a in alg.quiver.arrows:
                r, c = dimvec[a.target], dimvec[a.source]
                maps[a.label] = RatMatrix(
                    [[Fraction(rng.randint(-2, 2)) for _ in range(c)]
                     for _ in range(r)], cols=c)
            return Representation(alg, dimvec, maps, check=False)

        m, n_ = rand_module(), rand_module()
        if m.is_zero() or n_.is_zero():
            continue
        assert ext(1, m, n_) == euler_ext1(m, n_)
        done += 1
    report(12, "monotonicity x200, transpose, block-triangular x40, "
               "Euler vs resolution x100: all within 1e-9 or exact")
