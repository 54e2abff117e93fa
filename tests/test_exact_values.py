"""One rule for exact values: a value that fproot computes exactly is an int
where it is integral and a Fraction only where it is not.

`exactlin.quotient` decides between the two.  These properties check the
rule on what each layer hands on: elimination and matrix arithmetic
outputs, characteristic polynomials, strings read by `rat`, normal forms,
projectives, syzygies and the differentials of resolutions to depth 3, path
columns and Hom bases.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fproot.exactlin import RatMatrix, nullspace, quotient, rat, rref, solve
from fproot.repmod import (hom, minimal_resolution, module_from_json,
                           module_to_json, projective, simple)
from fproot.spectral import characteristic_polynomial
from test_algebra import rational_algebras
from test_hom_rank import ALGEBRAS, fraction_matrices, modules, small_rationals


def assert_rule(values):
    bad = [x for x in values if not (type(x) is int or
                                     (type(x) is Fraction and x.denominator != 1))]
    assert not bad, bad


def entries(m: RatMatrix):
    return [x for row in m.data for x in row]


def check_module(m):
    """The module's maps, and every column of every basis path acting on it."""
    assert_rule(x for f in m.maps.values() for x in entries(f))
    for p in m.algebra.basis:
        for j in range(m.dimvec[p.source]):
            assert_rule(m.path_column(p, j))


def check_resolution(m):
    """Each step's module (the module itself, then its syzygies) and each
    generator's image under the differential, to depth 3."""
    for step in minimal_resolution(m, 3).steps:
        check_module(step.module)
        assert_rule(x for image in step.differential for v in image.values()
                    for x in (v if isinstance(v, tuple) else (v,)))


@st.composite
def read_modules(draw):
    """A module of test_hom_rank's (dense p/q entries after a change of
    basis), written to JSON and read back, so that rat reads every entry."""
    alg = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    m = draw(modules(alg))
    return module_from_json(alg, module_to_json(m))


# -- exactlin --------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 3))
def test_quotient_and_rat_on_pq_strings(p, q):
    x = rat(f"{p}/{q}")
    assert x == Fraction(p, q) == quotient(p, q) == quotient(-p, -q)
    assert_rule([x, quotient(p, q), quotient(-p, -q), rat(Fraction(p, q))])
    assert_rule(entries(RatMatrix([[f"{p}/{q}", f"{p * q}/{q}"]])))


@settings(max_examples=150, deadline=None)
@given(fraction_matrices(), st.data())
def test_elimination_and_arithmetic_outputs(m, data):
    for out in (m @ m.transpose(), m + m, m.scale(data.draw(small_rationals))):
        assert_rule(entries(out))
    reduced, _ = rref(m)
    assert_rule(entries(reduced))
    assert_rule(x for v in nullspace(m.data, m.cols)[0] for x in v)
    b = RatMatrix.column(data.draw(st.lists(small_rationals, min_size=m.rows,
                                            max_size=m.rows)))
    x = solve(m, b)
    if x is not None:
        assert_rule(entries(x))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.integers(-9, 9), small_rationals), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_characteristic_polynomial(rows):
    assert_rule(characteristic_polynomial(RatMatrix(rows)))


# -- algebras and modules -----------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(rational_algebras())
def test_normal_forms_projectives_and_simple_resolutions(alg):
    """Relations with coefficients p/q give normal forms, and so projective
    and syzygy maps, of both kinds."""
    assume(alg is not None)
    for p in alg.basis:
        for a in alg.quiver.arrows:
            if a.source == p.target:
                assert_rule(alg.left_multiply(a.label, p).values())
    for v in alg.quiver.vertices:
        check_module(projective(alg, v))
        check_resolution(simple(alg, v))


@settings(max_examples=60, deadline=None)
@given(read_modules(), st.data())
def test_modules_resolutions_and_hom_bases(m, data):
    check_module(m)
    check_resolution(m)
    n = data.draw(modules(m.algebra))
    n = module_from_json(n.algebra, module_to_json(n))
    assert_rule(x for f in hom(m, n).basis for g in f.values() for x in entries(g))
