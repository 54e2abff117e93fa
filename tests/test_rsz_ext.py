"""Ext over radical-square-zero algebras in closed form.

Over A = kQ/J^2 `ExtCalculator` reads Ext^m (m >= 1) off the top and socle
dimension vectors of its two modules and powers of Q's arrow-count matrix,
with no resolution.  Here it is compared with Ext by dimension shift along
`minimal_resolution` (`ext_from_resolution`) on random J^2 = 0 algebras and
modules at powers 0-5; an algebra with J^2 != 0 must still go through
resolutions, and a module over another algebra is refused at every power.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fproot import repmod
from fproot.algebra import build_algebra, local_two_loop_algebra, sqrt2_algebra
from fproot.fpcore import ExtCalculator
from fproot.quiver import Quiver
from fproot.repmod import (Representation, RepresentationError, direct_sum,
                           ext_from_resolution, failing_relation,
                           minimal_resolution, projective, simple)

TOP = 5  # the highest Ext power compared


def rsz_algebra(vertices, arrows):
    """kQ/J^2: every composable pair of arrows is a relation."""
    relations = [[(1, (b, a))] for a, _, at in arrows for b, bs, _ in arrows if bs == at]
    return build_algebra(Quiver(vertices, arrows), relations)


@st.composite
def rsz_algebras(draw):
    """kQ/J^2 on 1-3 vertices and up to 3 arrows, loops and parallel arrows
    allowed (Betti numbers grow like 3^m at most, so depth 5 stays cheap)."""
    vertices = [str(i) for i in range(1, draw(st.integers(1, 3)) + 1)]
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
                         max_size=3))
    return rsz_algebra(vertices, [(f"a{k}", s, t) for k, (s, t) in enumerate(ends)])


@st.composite
def scan_draws(draw, alg):
    """A module as the brick scan draws one (repmod._random_maps) at a
    random support of total <= 3, the first of a few draws whose relations
    hold; often decomposable."""
    dims = draw(st.lists(st.integers(0, 2), min_size=len(alg.quiver.vertices),
                         max_size=len(alg.quiver.vertices)))
    support = {v: d for v, d in zip(alg.quiver.vertices, dims) if d}
    assume(sum(dims) <= 3)
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    for _ in range(20):
        maps = repmod._random_maps(alg, support, rng)
        if failing_relation(alg, (support, maps)) is None:
            return repmod._module(alg, (support, maps))
    assume(False)


@st.composite
def rsz_parts(draw, alg):
    """A scan draw, a projective or the zero module."""
    kind = draw(st.sampled_from(["draw", "projective", "zero"]))
    if kind == "zero":
        return Representation(alg, {}, {})
    if kind == "projective":
        return projective(alg, draw(st.sampled_from(alg.quiver.vertices)))
    return draw(scan_draws(alg))


@st.composite
def rsz_modules(draw, alg):
    """One part (rsz_parts), or the direct sum of two."""
    parts = draw(st.lists(rsz_parts(alg), min_size=1, max_size=2))
    return parts[0] if len(parts) == 1 else direct_sum(parts)


def _assert_matches_resolutions(calc, modules):
    for m in modules:
        res = minimal_resolution(m, TOP)
        for n in modules:
            got = [calc.ext(p, m, n) for p in range(TOP + 1)]
            assert got == [ext_from_resolution(res, n, p) for p in range(TOP + 1)], \
                (m, n)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_closed_form_matches_resolutions(data):
    alg = data.draw(rsz_algebras(), label="algebra")
    modules = data.draw(st.lists(rsz_modules(alg), min_size=1, max_size=3), label="modules")
    calc = ExtCalculator(alg)
    _assert_matches_resolutions(calc, modules)
    assert not calc._res  # no resolution was built


def test_arrowless_algebra_has_no_higher_ext():
    """With no arrows every module is semisimple: Ext^m = 0 for m >= 1."""
    alg = rsz_algebra(["1", "2"], [])
    modules = [simple(alg, "1"), simple(alg, "2"),
               direct_sum([simple(alg, "1"), simple(alg, "2"), simple(alg, "1")]),
               Representation(alg, {}, {})]
    calc = ExtCalculator(alg)
    _assert_matches_resolutions(calc, modules)
    assert all(calc.ext(p, m, n) == 0 for p in range(1, TOP + 1)
               for m in modules for n in modules)
    assert not calc._res


def test_algebra_with_a_length_two_path_goes_through_resolutions():
    """k<x,y>/(x^2, y^3, xy) keeps y^2 and yx: J^2 != 0, so Ext^m comes off
    the module's resolution, built to depth m."""
    alg = local_two_loop_algebra(2, 3)
    s = simple(alg, "1")
    modules = [s, projective(alg, "1"), direct_sum([s, s])]
    calc = ExtCalculator(alg)
    _assert_matches_resolutions(calc, modules)
    assert set(calc._res) == set(modules)
    assert all(len(calc._res[m].steps) == TOP + 1 for m in (s, modules[2]))


@pytest.mark.parametrize("power", range(1, TOP + 1))
def test_a_module_over_another_algebra_is_refused(power):
    """At power >= 2 the closed form solves no Hom, so the calculator checks
    the algebras itself; it refuses a foreign module on either side, and
    stores nothing for it."""
    alg, other = sqrt2_algebra(), sqrt2_algebra()
    calc = ExtCalculator(alg)
    mine, foreign = simple(alg, "1"), simple(other, "1")
    for m, n in [(mine, foreign), (foreign, mine), (foreign, foreign)]:
        with pytest.raises(RepresentationError, match="calculator's algebra"):
            calc.ext(power, m, n)
    assert not any(foreign in key for key in calc._dims)
    assert calc.ext(power, mine, mine) == ExtCalculator(other).ext(power, foreign, foreign)
