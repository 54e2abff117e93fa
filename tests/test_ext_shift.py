"""Ext by dimension shift against the Hom complex.

`repmod.ext_from_resolution` reads Ext^i(X, Y) as
hom(Ω^i X, Y) - Σ_{v in gens P_{i-1}} dim Y_v + hom(Ω^{i-1} X, Y), with the
syzygies Ω^k X that the resolution steps keep.  `hom_complex_reference.py`
reads the same numbers off the ranks of the Hom complex.  The two must agree
for i <= 4 on the fixtures, on scan bricks, their syzygies and direct sums,
and at the end of finite resolutions.
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fproot.algebra import (algebra_from_json, build_algebra,
                            dual_numbers_algebra, kronecker_algebra,
                            local_two_loop_algebra, sqrt2_algebra)
from fproot.cli import scan_candidates
from fproot import repmod
from fproot.fpcore import ExtCalculator
from fproot.quiver import Quiver
from fproot.repmod import (Representation, direct_sum, ext, ext_from_resolution,
                           hom_dim, minimal_resolution, projective, simple,
                           simples)

from hom_complex_reference import ext_by_hom_complex
from test_resolution import resolved_modules

DATA = pathlib.Path(__file__).parent / "data"
TOP = 4  # the highest Ext degree compared

FIXTURES = {
    "sqrt2": sqrt2_algebra(),
    "kronecker": kronecker_algebra(),
    "dual": dual_numbers_algebra(),
    "two_loop_2_2": local_two_loop_algebra(2, 2),
    "two_loop_2_3": local_two_loop_algebra(2, 3),
    **{"file:" + path.name[:-len("_algebra.json")]: algebra_from_json(path.read_text())
       for path in sorted(DATA.glob("*_algebra.json"))},
}


def _assert_shift_matches_reference(m, targets):
    """Ext^i(m, y) for i <= TOP by the shift equals the Hom-complex value,
    on a resolution of depth i (as ExtCalculator resolves), on one of depth
    i + 1 and on one of depth TOP + 1."""
    deep = minimal_resolution(m, TOP + 1)
    for i in range(TOP + 1):
        res, short = minimal_resolution(m, i + 1), minimal_resolution(m, i)
        for y in targets:
            want = ext_by_hom_complex(deep, y, i)
            assert ext_from_resolution(short, y, i) == want, (m.name, y.name, i)
            assert ext_from_resolution(res, y, i) == want
            assert ext_from_resolution(deep, y, i) == want


def _family(alg):
    """Simples, nonzero projectives and a few scan bricks of alg."""
    cands, _ = scan_candidates(alg, 3, seed=2, samples_per_dimvec=6, max_candidates=10)
    ps = [p for p in (projective(alg, v) for v in alg.quiver.vertices) if not p.is_zero()]
    return simples(alg) + ps + cands


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_shift_matches_hom_complex_on_fixtures(name):
    family = _family(FIXTURES[name])
    for m in family:
        _assert_shift_matches_reference(m, family)


@pytest.mark.parametrize("name", ["sqrt2", "kronecker", "two_loop_2_3", "file:commutative_square"])
def test_shift_matches_hom_complex_on_syzygies(name):
    """The syzygies a resolution keeps are modules in their own right: each
    step's module is the kernel of the previous cover (0 -> Ω^{k+1} -> P_k ->
    Ω^k -> 0 by dimensions at every vertex), and Ext out of it agrees too."""
    alg = FIXTURES[name]
    family = _family(alg)
    for m in family[:6]:
        res = minimal_resolution(m, 3)
        assert res.steps[0].module is m
        for k in range(len(res.steps) - 1):
            now, nxt = res.steps[k].module, res.steps[k + 1].module
            for w in alg.quiver.vertices:
                assert now.dimvec[w] + nxt.dimvec[w] == len(res.steps[k].basis.get(w, ()))
        for step in res.steps[1:]:
            _assert_shift_matches_reference(step.module, family)


def _radical_square_zero(nverts, pairs):
    """kQ/J² on the arrows (source, target) between vertices 1..nverts: every
    composable pair of arrows is a relation."""
    q = Quiver([str(v + 1) for v in range(nverts)],
               [(f"a{k}", str(s + 1), str(t + 1)) for k, (s, t) in enumerate(pairs)])
    return build_algebra(q, [[(1, (y.label, x.label))] for x in q.arrows
                             for y in q.arrows if x.target == y.source])


@pytest.mark.parametrize("alg", [
    FIXTURES["sqrt2"],
    _radical_square_zero(2, [(0, 0), (0, 1), (1, 0), (1, 1)]),
    _radical_square_zero(3, [(0, 0), (0, 1), (0, 2), (2, 0)]),
], ids=["sqrt2", "rsz2_loops", "rsz3"])
def test_syzygies_over_radical_square_zero_keep_no_maps(alg):
    """Over kQ/J² a syzygy lies in the radical of a projective, which J
    kills, so it is semisimple: every arrow map of a step >= 1 module is
    stored as None.  Its Homs equal those of the same module given explicit
    zero matrices."""
    family, seen = _family(alg), 0
    for m in family:
        for step in minimal_resolution(m, 3).steps[1:]:
            syz = step.module
            assert syz.rows[1] == (None,) * len(alg.quiver.arrows), syz.name
            explicit = Representation(alg, syz.dimvec, syz.maps, check=False)
            assert None not in explicit.rows[1]
            for y in family:
                assert hom_dim(syz, y) == hom_dim(explicit, y)
                assert hom_dim(y, syz) == hom_dim(y, explicit)
            seen += not syz.is_zero()
    assert seen >= len(family)


@settings(max_examples=40, deadline=None)
@given(resolved_modules(), st.data())
def test_shift_matches_hom_complex_on_direct_sums(case, data):
    """A scan brick or a direct sum of two or three, into another such
    module."""
    name, m, _ = case
    _, n, _ = data.draw(resolved_modules().filter(lambda c: c[0] == name))
    _assert_shift_matches_reference(m, [n, direct_sum([m, n])])


def test_kronecker_s1_has_no_ext2():
    """S1 = coker(P2² -> P1) has length 1: Ext^1(S1, S2) = 2, and Ext^i
    vanishes from i = 2 on, also read on a resolution just long enough to
    know its length."""
    alg = FIXTURES["kronecker"]
    s1, s2 = simple(alg, "1"), simple(alg, "2")
    assert minimal_resolution(s1, 2).length == 1
    assert ext(1, s1, s2) == 2
    for y in simples(alg) + [projective(alg, "1"), projective(alg, "2")]:
        for i in range(2, TOP + 1):
            res = minimal_resolution(s1, i + 1)
            assert ext_from_resolution(res, y, i) == 0 == ext_by_hom_complex(res, y, i)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_projectives_have_no_higher_ext(name):
    alg = FIXTURES[name]
    family = _family(alg)
    for v in alg.quiver.vertices:
        p = projective(alg, v)
        if p.is_zero():
            continue
        for y in family:
            assert [ext(i, p, y) for i in range(1, TOP + 1)] == [0] * TOP


def test_ext_calculator_solves_each_syzygy_hom_once(monkeypatch):
    """Powers 1..TOP of Ext(X, Y) need hom(Ω^k X, Y) for k <= TOP, each
    solved once through the calculator's power-0 entries; the values match
    the Hom complex.  The two-loop algebra has J^2 != 0, so its Ext goes
    through the resolution, which never ends."""
    alg = FIXTURES["two_loop_2_3"]
    x = y = simple(alg, "1")
    calls = []
    original = repmod.hom_dim
    monkeypatch.setattr(repmod, "hom_dim", lambda m, n: calls.append((m, n)) or original(m, n))
    calc = ExtCalculator(alg)
    got = [calc.ext(p, x, y) for p in range(TOP + 1)]
    res = calc.resolution(x, TOP + 1)
    assert got == [ext_by_hom_complex(res, y, p) for p in range(TOP + 1)]
    assert len(calls) == len(set(calls)) == TOP + 1
    assert [m for m, _ in calls] == [step.module for step in res.steps[:TOP + 1]]


def test_ext_calculator_reads_radical_square_zero_ext_off_vectors(monkeypatch):
    """Over √2 (J^2 = 0) the calculator builds no Resolution and solves Hom
    only at power 0, once per pair; the values still match the Hom complex."""
    alg = FIXTURES["sqrt2"]
    calls = []
    original = repmod.hom_dim
    monkeypatch.setattr(repmod, "hom_dim", lambda m, n: calls.append((m, n)) or original(m, n))
    monkeypatch.setattr(repmod, "Resolution", None)  # building one would raise
    family = simples(alg) + [projective(alg, "1")]
    calc = ExtCalculator(alg)
    got = {(x, y): [calc.ext(p, x, y) for p in range(TOP + 1)] for x in family for y in family}
    monkeypatch.undo()
    assert set(calls) == set(got) and len(calls) == len(got)
    for (x, y), values in got.items():
        deep = minimal_resolution(x, TOP + 1)
        assert values == [ext_by_hom_complex(deep, y, p) for p in range(TOP + 1)]
