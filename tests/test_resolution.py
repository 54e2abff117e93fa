"""Each module is resolved once.

`minimal_resolution` slices the step builder `resolution_steps`, and
`ExtCalculator` extends its cached resolution from the same builder; both
must give the resolution a fresh call gives, with the same `length`.  The
`resolve --module` subcommand reads Ext into the simples from one
`ExtCalculator` and the multiplicities off that table; on bricks and direct
sums both must agree with `repmod.ext` and with `minimal_resolution`.
"""

import functools
import json
from dataclasses import replace
import os
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fproot.algebra import (algebra_to_json, build_algebra,
                            dual_numbers_algebra, kronecker_algebra,
                            local_two_loop_algebra, path_algebra,
                            sqrt2_algebra)
from fproot.cli import run, scan_candidates
from fproot import repmod
from fproot.exactlin import InvariantViolation, RatMatrix, rank_of_rows
from fproot.fpcore import ExtCalculator
from fproot.quiver import Quiver, path_quiver
from fproot.repmod import (Representation, RepresentationError, direct_sum,
                           ext, minimal_resolution, module_to_json,
                           projective, simple)
from test_hom_rank import ALGEBRAS as RELATION_ALGEBRAS
from test_hom_rank import _conjugate, arrow_maps, invertibles, modules

ALGEBRAS = {
    "sqrt2": sqrt2_algebra(),
    "kronecker": kronecker_algebra(),
    "two_loop": local_two_loop_algebra(2, 3),
    "dual": dual_numbers_algebra(),
}


# -- ExtCalculator extends one resolution --------------------------------------

# These pin the resolution mechanism, so they run on algebras with J^2 != 0:
# over kQ/J^2 the calculator reads Ext off dimension vectors instead.
A3 = path_algebra(path_quiver(3))  # 1 -> 2 -> 3, with the path a2 a1


@pytest.mark.parametrize("name, top", [("two_loop", 6), ("a3", 4)])
def test_extended_resolution_equals_fresh_one(name, top):
    """The two-loop algebra's S1 resolves forever, A3's S1 has length 1."""
    alg = A3 if name == "a3" else ALGEBRAS[name]
    m, target = simple(alg, "1"), simple(alg, alg.quiver.vertices[-1])
    calc = ExtCalculator(alg)
    first = calc.resolution(m, 0)
    step0 = first.steps[0]
    for power in range(1, top + 1):
        calc.ext(power, m, target)
    res = calc.resolution(m, 0)  # the cached resolution, not extended again
    fresh = minimal_resolution(m, top)
    assert res is first and res.steps[0] is step0  # extended, never rebuilt
    assert res.length == fresh.length
    assert [s.generators for s in res.steps] == [s.generators for s in fresh.steps]
    assert [s.basis for s in res.steps] == [s.basis for s in fresh.steps]
    assert [s.differential for s in res.steps] == [s.differential for s in fresh.steps]


def test_ext_resolves_to_its_own_degree():
    """Ext^m reads steps <= m only, so ExtCalculator builds no step past m:
    Ext^2 out of the two-loop algebra's S1, which resolves forever, leaves 3
    steps.  A3's S1 still learns its length 1 at Ext^2, where step 2 is
    asked for and found missing."""
    alg = ALGEBRAS["two_loop"]
    calc = ExtCalculator(alg)
    s1 = simple(alg, "1")
    assert calc.ext(2, s1, s1) == ext(2, s1, s1) == 3
    res = calc.resolution(s1, 0)
    assert (len(res.steps), res.length) == (3, None)
    calc = ExtCalculator(A3)
    s1 = simple(A3, "1")
    assert calc.ext(1, s1, simple(A3, "2")) == ext(1, s1, simple(A3, "2")) == 1
    assert calc.resolution(s1, 0).length is None
    assert calc.ext(2, s1, simple(A3, "2")) == 0
    res = calc.resolution(s1, 0)
    assert (len(res.steps), res.length) == (2, 1)


# -- the length boundary --------------------------------------------------------

@pytest.mark.parametrize("name, make, length", [
    ("kronecker", lambda a: simple(a, "1"), 1),
    ("kronecker", lambda a: simple(a, "2"), 0),   # S2 = P2
    ("sqrt2", lambda a: projective(a, "1"), 0),
], ids=["kronecker_S1", "kronecker_S2", "sqrt2_P1"])
def test_length_is_known_one_step_past_the_end(name, make, length):
    """A resolution of length L reports None at depth L and L at depth L+1."""
    alg = ALGEBRAS[name]
    m = make(alg)
    at, past = minimal_resolution(m, length), minimal_resolution(m, length + 1)
    assert (at.length, len(at.steps)) == (None, length + 1)
    assert (past.length, len(past.steps)) == (length, length + 1)
    calc = ExtCalculator(alg)
    assert calc.resolution(m, length).length is None
    assert calc.resolution(m, length + 1).length == length


def test_zero_module_has_length_minus_one():
    alg = ALGEBRAS["kronecker"]
    zero = Representation(alg, {v: 0 for v in alg.quiver.vertices},
                          {a.label: RatMatrix.zeros(0, 0) for a in alg.quiver.arrows})
    assert minimal_resolution(zero, 0).length == -1
    assert minimal_resolution(zero, 0).steps == []


def _tamper_first_step(steps):
    """steps with a basis path at vertex 2 of the first one dropped."""
    for i, step in enumerate(steps):
        yield replace(step, basis={**step.basis, "2": step.basis["2"][1:]}) if i == 0 else step


def test_tampered_step_fails_the_dimension_check(monkeypatch, tmp_path):
    """A finite resolution satisfies sum_i (-1)^i dim P_i = dim M; for S1
    over the Kronecker algebra that is 3 - 2 = 1, and over A3 too.  With a
    path dropped from P_0 the sum is 0, so learning the length raises
    InvariantViolation, and resolve exits 4.  resolve runs on A3, where
    J^2 != 0 and Ext comes off the resolution."""
    alg = ALGEBRAS["kronecker"]
    res = minimal_resolution(simple(alg, "1"), 0)
    assert minimal_resolution(simple(alg, "1"), 2).length == 1
    res.steps[0] = next(_tamper_first_step(res.steps))
    with pytest.raises(InvariantViolation, match="alternating dimension sum 0"):
        res.extend(2)
    real = repmod.resolution_steps
    monkeypatch.setattr(repmod, "resolution_steps", lambda m: _tamper_first_step(real(m)))
    (tmp_path / "a.json").write_text(algebra_to_json(A3))
    (tmp_path / "m.json").write_text(module_to_json(simple(A3, "1")))
    assert run(["resolve", str(tmp_path / "a.json"), "--module",
                str(tmp_path / "m.json"), "--depth", "2"]) == 4


def test_a_negative_syzygy_dimension_fails_on_radical_square_zero(monkeypatch, tmp_path, capsys):
    """Over kQ/J^2 no resolution is built, so its dimension sum is never
    checked; the closed form checks that dim ΩM = t A_Q - dim M + t has no
    negative entry instead.  With every top dimension read as 0, resolve
    --module on the Kronecker algebra exits 4."""
    alg = ALGEBRAS["kronecker"]
    monkeypatch.setattr(repmod, "projective_cover_multiplicities",
                        lambda m: {v: 0 for v in m.algebra.quiver.vertices})
    (tmp_path / "a.json").write_text(algebra_to_json(alg))
    (tmp_path / "m.json").write_text(module_to_json(simple(alg, "1")))
    assert run(["resolve", str(tmp_path / "a.json"), "--module",
                str(tmp_path / "m.json"), "--depth", "2"]) == 4
    assert "has a negative entry" in capsys.readouterr().err


# -- resolve reads the multiplicities off Ext into the simples -----------------

@functools.lru_cache(maxsize=None)
def _bricks(name):
    alg = ALGEBRAS[name]
    cands, _ = scan_candidates(alg, 3, seed=1, samples_per_dimvec=8,
                               max_candidates=12)
    return tuple(cands)


@st.composite
def resolved_modules(draw):
    """A scan brick, or a direct sum of two or three of them."""
    name = draw(st.sampled_from(sorted(ALGEBRAS)))
    pool = _bricks(name)
    parts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    m = parts[0] if len(parts) == 1 else direct_sum(parts)
    return name, m, draw(st.integers(min_value=0, max_value=4))


@settings(max_examples=60, deadline=None)
@given(resolved_modules())
def test_resolve_ext_to_simples_matches_general_engine(case):
    name, m, depth = case
    alg = ALGEBRAS[name]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f) for f in ("alg.json", "mod.json", "out.json")]
        for path, text in zip(paths, (algebra_to_json(alg), module_to_json(m))):
            with open(path, "w") as fh:
                fh.write(text)
        assert run(["resolve", paths[0], "--module", paths[1],
                    "--depth", str(depth), "--out", paths[2]]) == 0
        with open(paths[2]) as fh:
            payload = json.load(fh)
    want = {v: [ext(i, m, simple(alg, v)) for i in range(depth + 1)]
            for v in alg.quiver.vertices}
    assert payload["ext_module_to_simples"] == want
    res = minimal_resolution(m, depth)
    assert payload["resolution"]["multiplicities"] == res.multiplicity_pattern()
    assert payload["resolution"]["finite_length"] == res.length


# -- d o d = 0 over algebras with multi-path normal forms ----------------------

def _path_image(m, image, p, at_module):
    """p times a previous differential image: on m's column vector via
    path_column when the image is in the module (step 0), else on
    {(copy, path): coeff} by one left_multiply per arrow, last label first."""
    out = {}
    if at_module:
        (_, col), = image.items()
        for j, y in enumerate(col):
            if y:
                for k, z in enumerate(m.path_column(p, j)):
                    out[k] = out.get(k, 0) + y * z
        return out
    for label in reversed(p.arrows):
        out = {}
        for (copy, q), x in image.items():
            for tq, c in m.algebra.left_multiply(label, q).items():
                out[(copy, tq)] = out.get((copy, tq), 0) + x * c
        image = out
    return image


# 1 => 2 -> 3 with p, q: 1 -> 2, a: 2 -> 3 and a p = a q: a syzygy vector
# with a p term and a q term sends both onto the one normal form of a p, so
# the arrow action must add their images, not keep the last one.
FORK = build_algebra(Quiver(["1", "2", "3"], [("p", "1", "2"), ("q", "1", "2"),
                                              ("a", "2", "3")]),
                     [[(1, ("a", "p")), (-1, ("a", "q"))]])


@st.composite
def fork_modules(draw):
    """A module over FORK; q may be given p's matrix so that the relation
    holds with nonzero terms."""
    dimvec = {v: draw(st.integers(min_value=0, max_value=2)) for v in "123"}
    maps = draw(arrow_maps(FORK, dimvec))
    if draw(st.booleans()):
        maps["q"] = maps["p"]
    try:
        m = Representation(FORK, dimvec, maps)
    except RepresentationError:
        assume(False)
    return _conjugate(m, {v: draw(invertibles(d)) for v, d in dimvec.items()})


@st.composite
def relation_modules(draw):
    """A module over one of the six algebras of test_hom_rank, among them
    the commutative square (a two-term relation) and a4 (a length-3 one),
    or over FORK."""
    name = draw(st.sampled_from(sorted(RELATION_ALGEBRAS) + ["fork"]))
    if name == "fork":
        return draw(fork_modules())
    return draw(modules(RELATION_ALGEBRAS[name]))


def _rank_at(m, step, k, w):
    """Rank of d_k at vertex w, recomputed: a basis element (copy, p) of P_k
    goes to p times the differential entry of its generator."""
    keys, images = {}, []
    for copy, p in step.basis.get(w, ()):
        image = _path_image(m, step.differential[copy], p, k == 0)
        images.append({keys.setdefault(key, len(keys)): y
                       for key, y in image.items()})
    return rank_of_rows([[im.get(j, 0) for j in range(len(keys))]
                         for im in images])


def _assert_exact(res):
    """The resolution is exact, by ranks at every vertex: d_0 is onto the
    module, the image of d_{k+1} is the kernel of d_k, and the last
    differential of a finite resolution is injective."""
    m, steps = res.module, res.steps
    for w in m.algebra.quiver.vertices:
        ranks = [_rank_at(m, step, k, w) for k, step in enumerate(steps)]
        if res.length is not None:
            ranks.append(0)
        assert ranks[0] == m.dimvec[w]
        for k in range(len(ranks) - 1):
            assert ranks[k] + ranks[k + 1] == len(steps[k].basis.get(w, ()))


def test_fork_resolution_adds_images_onto_one_path():
    """M = (k at 1, k at 2, p = q = 1): its syzygy holds p - q, which a sends
    to a p - a q = 0, so Omega M = P2 + P3 over the top and Omega^2 M = S3."""
    one = RatMatrix([[1]])
    m = Representation(FORK, {"1": 1, "2": 1, "3": 0}, {"p": one, "q": one})
    res = minimal_resolution(m, 4)
    assert res.multiplicity_pattern() == [{"1": 1}, {"2": 1, "3": 1}, {"3": 1}]
    assert res.length == 2
    _assert_exact(res)


@settings(max_examples=60, deadline=None)
@given(relation_modules())
def test_differentials_compose_to_zero(m):
    """d_{i-1} d_i = 0 at every step to depth 4, every differential path has
    length >= 1, and the steps are exact, each recomputed from the algebra's
    multiplication."""
    res = minimal_resolution(m, 4)
    _assert_exact(res)
    steps = res.steps
    for i in range(1, len(steps)):
        for entry in steps[i].differential:
            assert all(len(p) >= 1 for _, p in entry)
            acc = {}
            for (copy, p), x in entry.items():
                image = steps[i - 1].differential[copy]
                for key, y in _path_image(m, image, p, i == 1).items():
                    acc[key] = acc.get(key, 0) + x * y
            assert not any(acc.values())
