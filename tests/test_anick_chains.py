"""Anick chain counts against the linear minimal resolution.

On a monomial algebra `simple_resolution_multiplicities` counts the
generators of each step of the minimal resolution of a simple as Anick
chains; the oracle is `minimal_resolution`, extended one step at a time, so
that the trailing-step and length rule is compared at every depth.
"""

import pathlib

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fproot import repmod
from fproot.algebra import (AlgebraError, algebra_from_json, build_algebra,
                            dual_numbers_algebra, kronecker_algebra,
                            local_two_loop_algebra, sqrt2_algebra)
from fproot.fpcore import complexity_estimate
from fproot.quiver import Quiver
from fproot.repmod import (Resolution, _obstructions, simple,
                           simple_resolution_multiplicities)

DATA = pathlib.Path(__file__).parent / "data"
DEPTH = 8


def assert_chains_match_resolution(alg, depth=DEPTH):
    for v in alg.quiver.vertices:
        res = Resolution(simple(alg, v))
        for d in range(depth + 1):
            res.extend(d)
            assert simple_resolution_multiplicities(alg, v, d) == \
                (res.multiplicity_pattern(), res.length), (alg, v, d)


FIXTURES = {
    "sqrt2": sqrt2_algebra,
    "kronecker": kronecker_algebra,
    "dual_numbers": dual_numbers_algebra,
    "two_loop_2_2": lambda: local_two_loop_algebra(2, 2),
    "two_loop_3_2": lambda: local_two_loop_algebra(3, 2),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_chain_counts_match_fixture_resolutions(name):
    alg = FIXTURES[name]()
    assert _obstructions(alg) is not None
    assert_chains_match_resolution(alg)


def test_redundant_relation_is_dropped():
    # 1 -a-> 2 -b-> 3 -c-> 4 with ba and cba: cba lies in the ideal of ba
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])
    alg = build_algebra(q, [[(1, ("b", "a"))], [(1, ("c", "b", "a"))]])
    assert _obstructions(alg) == [("a", "b")]
    assert simple_resolution_multiplicities(alg, "1", 3) == \
        ([{"1": 1}, {"2": 1}, {"3": 1}], 2)
    assert_chains_match_resolution(alg)


def test_overlapping_relations_on_a_loop():
    # x^3 = 0 and x^2 y = 0 overlap in x^2 (x applied first in each word)
    q = Quiver(["1", "2"], [("x", "1", "1"), ("y", "1", "2"), ("z", "2", "1")])
    alg = build_algebra(q, [[(1, ("x", "x", "x"))], [(1, ("y", "x", "x"))],
                            [(1, ("x", "z"))], [(1, ("z", "y"))]])
    assert_chains_match_resolution(alg)


@st.composite
def monomial_algebras(draw):
    """Up to three vertices, up to four arrows (loops allowed) and one to six
    relation paths of length 2-4, drawn as walks; a drawn path may extend an
    earlier one, which makes it redundant, and so may the paths of a
    truncation."""
    nv = draw(st.integers(1, 3))
    verts = [str(i) for i in range(nv)]
    arrows = [(f"x{k}", draw(st.sampled_from(verts)), draw(st.sampled_from(verts)))
              for k in range(draw(st.integers(1, 4)))]
    words = []
    for _ in range(draw(st.integers(1, 6))):
        word = list(draw(st.sampled_from(words))) if words and draw(st.booleans()) \
            else [draw(st.sampled_from(arrows))]
        for _ in range(draw(st.integers(1, 3))):
            outs = [a for a in arrows if a[1] == word[-1][2]]
            if not outs:
                break
            word.append(draw(st.sampled_from(outs)))
        if len(word) >= 2:
            words.append(word)
    # with a cycle the drawn paths alone seldom make the algebra finite
    # dimensional; then every path of one length is a relation as well
    truncation = draw(st.sampled_from([None, 3, 4]))
    if truncation:
        walks = [[a] for a in arrows]
        for _ in range(truncation - 1):
            walks = [w + [a] for w in walks for a in arrows if a[1] == w[-1][2]]
        words += walks
    # a relation lists its arrows with the first one applied last
    rels = [[(1, tuple(a[0] for a in reversed(w)))] for w in words]
    try:
        return build_algebra(Quiver(verts, arrows), rels, length_cap=8, dim_cap=40)
    except AlgebraError:  # not finite dimensional within the caps
        return None


@settings(max_examples=150, deadline=None)
@given(monomial_algebras())
def test_chain_counts_match_random_monomial_resolutions(alg):
    assume(alg is not None)
    # the linear oracle is slow on large projectives: cap their total
    # dimension over each resolution
    dim_p = {v: len(alg.basis_with_source(v)) for v in alg.quiver.vertices}
    assume(all(sum(k * dim_p[w] for step in
                   simple_resolution_multiplicities(alg, v, DEPTH)[0]
                   for w, k in step.items()) <= 200
               for v in alg.quiver.vertices))
    assert_chains_match_resolution(alg)


def test_sqrt2_closed_form_at_depth_30():
    # radical square zero with arrow matrix [[0, 2], [1, 0]]: summed over the
    # simples, step n has 3 * 2^((n - 1) / 2) generators at odd n
    seq = complexity_estimate(sqrt2_algebra(), 30).sequence
    assert all(seq[n] == 3 * 2 ** ((n - 1) // 2) for n in range(1, 31, 2))
    assert all(seq[n] == 2 ** (n // 2 + 1) for n in range(2, 31, 2))


def test_non_monomial_algebra_takes_the_linear_path(monkeypatch):
    calls = []
    linear = repmod.minimal_resolution

    def counted(m, depth):
        calls.append(m.name)
        return linear(m, depth)

    monkeypatch.setattr(repmod, "minimal_resolution", counted)
    square = algebra_from_json((DATA / "commutative_square_algebra.json").read_text())
    assert _obstructions(square) is None
    pattern, length = simple_resolution_multiplicities(square, "1", 4)
    assert calls == ["S1"]
    assert (pattern, length) == (linear(simple(square, "1"), 4).multiplicity_pattern(), 2)

    calls.clear()
    simple_resolution_multiplicities(sqrt2_algebra(), "1", 4)
    assert calls == []
