"""Each module is resolved once.

`minimal_resolution` slices the step builder `resolution_steps`, and
`ExtCalculator` extends its cached resolution from the same builder; both
must give the resolution a fresh call gives, with the same `length`.  The
`resolve` subcommand reads Ext into the simples off the multiplicities of
that one resolution, which must agree with the general Hom-complex engine
`repmod.ext` on bricks and direct sums.
"""

import functools
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fproot.algebra import (algebra_to_json, dual_numbers_algebra,
                            kronecker_algebra, local_two_loop_algebra,
                            sqrt2_algebra)
from fproot.cli import run, scan_candidates
from fproot.exactlin import RatMatrix
from fproot.fpcore import ExtCalculator
from fproot.repmod import (Representation, direct_sum, ext,
                           minimal_resolution, module_to_json, projective,
                           simple)

ALGEBRAS = {
    "sqrt2": sqrt2_algebra(),
    "kronecker": kronecker_algebra(),
    "two_loop": local_two_loop_algebra(2, 3),
    "dual": dual_numbers_algebra(),
}


# -- ExtCalculator extends one resolution --------------------------------------

@pytest.mark.parametrize("name, top", [("sqrt2", 6), ("kronecker", 4)])
def test_extended_resolution_equals_fresh_one(name, top):
    """√2 S1 resolves forever, Kronecker S1 has length 1."""
    alg = ALGEBRAS[name]
    m = simple(alg, "1")
    calc = ExtCalculator(alg)
    first = calc.resolution(m, 0)
    step0 = first.steps[0]
    for power in range(1, top + 1):
        calc.ext(power, m, simple(alg, "2"))
    res = calc.resolution(m, 0)  # the cached resolution, not extended again
    fresh = minimal_resolution(m, top + 1)
    assert res is first and res.steps[0] is step0  # extended, never rebuilt
    assert res.length == fresh.length
    assert [s.generators for s in res.steps] == [s.generators for s in fresh.steps]
    assert [s.basis for s in res.steps] == [s.basis for s in fresh.steps]
    assert [s.differential for s in res.steps] == [s.differential for s in fresh.steps]


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


# -- resolve reads Ext into the simples off the multiplicities -----------------

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
            got = json.load(fh)["ext_module_to_simples"]
    want = {v: [ext(i, m, simple(alg, v)) for i in range(depth + 1)]
            for v in alg.quiver.vertices}
    assert got == want
