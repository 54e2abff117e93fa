"""`scan_candidates` against the reference loop in `scan_reference.py`.

The scan examines a draw repeated at one dimension vector only once and
keeps its sampled entries as ints; the reference examines every draw with
Fraction entries.  Both must give the same candidates (names and maps) and
the same truncated flag, including scans cut short at a repeated draw.
"""

import pathlib

import pytest

from fproot.algebra import (algebra_from_json, dual_numbers_algebra,
                            kronecker_algebra, local_two_loop_algebra,
                            sqrt2_algebra)
from fproot.cli import scan_candidates
from fproot.exactlin import rat_str

from scan_reference import reference_scan

DATA = pathlib.Path(__file__).parent / "data"

ALGEBRAS = {
    "sqrt2": sqrt2_algebra(),
    "kronecker": kronecker_algebra(),
    "dual": dual_numbers_algebra(),
    "two_loop": local_two_loop_algebra(2, 2),
    "square": algebra_from_json(
        (DATA / "commutative_square_algebra.json").read_text()),
}


def _summary(scan):
    """(names, truncated, maps) with every map entry as its rat_str."""
    cands, truncated = scan
    maps = [{label: [[rat_str(x) for x in row] for row in m.data]
             for label, m in c.maps.items()} for c in cands]
    return [c.name for c in cands], truncated, maps


@pytest.mark.parametrize("budget", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_scan_matches_reference(name, seed, budget):
    alg = ALGEBRAS[name]
    for samples in (8, 40):
        for max_candidates in (1, 2, 3, 5, 8, 64):
            args = (alg, budget, seed, samples, max_candidates)
            assert _summary(scan_candidates(*args)) == \
                _summary(reference_scan(*args)), args


def test_scan_truncated_by_a_repeated_draw_alone():
    """Here the candidate list is full when a draw repeats an earlier brick
    draw at its dimension vector, and no new brick is drawn after it: the
    repeat alone must set the truncated flag."""
    args = (ALGEBRAS["kronecker"], 2, 4, 8, 6)
    got = scan_candidates(*args)
    assert got[1] is True
    assert _summary(got) == _summary(reference_scan(*args))
