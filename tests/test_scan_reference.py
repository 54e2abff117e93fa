"""`scan_candidates` against the reference loop in `scan_reference.py`.

The scan examines a draw repeated at one dimension vector only once and
keeps its sampled entries as ints; the reference examines every draw with
Fraction entries.  Both must give the same candidates (names and maps) and
the same truncated flag, including scans whose cap is met by a draw that
repeats or matches a candidate.
"""

import pathlib
import random

import pytest

from fproot.algebra import (algebra_from_json, build_algebra,
                            dual_numbers_algebra, kronecker_algebra,
                            local_two_loop_algebra, path_algebra, sqrt2_algebra)
from fproot.exactlin import rat_str
from fproot.quiver import Quiver, kronecker_quiver
from fproot.repmod import _dimension_vectors, _random_maps, scan_candidates

import scan_reference
from scan_reference import reference_scan


DATA = pathlib.Path(__file__).parent / "data"


def _radical_square_zero(vertices, arrows):
    """kQ with every composable pair of arrows as a relation."""
    q = Quiver(vertices, arrows)
    return build_algebra(q, [[(1, (b.label, a.label))] for a in q.arrows
                             for b in q.arrows if a.target == b.source])


ALGEBRAS = {
    "sqrt2": sqrt2_algebra(),
    "kronecker": kronecker_algebra(),
    "dual": dual_numbers_algebra(),
    "two_loop": local_two_loop_algebra(2, 2),
    "square": algebra_from_json(
        (DATA / "commutative_square_algebra.json").read_text()),
    # three vertices, a loop and two parallel arrows, radical square zero
    "rsz3": _radical_square_zero(["1", "2", "3"], [("x", "1", "1"), ("b", "1", "2"),
                                                   ("c", "1", "2"), ("d", "2", "3")]),
    # relation-free: real roots (q = 1), where the scan stops examining draws
    # once a candidate holds the root, the imaginary root of ~D4 (q = 0) and
    # the 3-Kronecker's q < 0
    "A3": path_algebra(Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])),
    "D4": path_algebra(Quiver(["1", "2", "3", "4"],
                              [(f"a{v}", v, "1") for v in "234"])),
    "~D4": path_algebra(Quiver(["1", "2", "3", "4", "5"],
                               [(f"a{v}", v, "1") for v in "2345"])),
    "kron3": path_algebra(kronecker_quiver(3)),
}


def _summary(scan):
    """(names, truncated, maps) with every map entry as its rat_str."""
    cands, truncated = scan
    maps = [{label: [[rat_str(x) for x in row] for row in m.data]
             for label, m in c.maps.items()} for c in cands]
    return [c.name for c in cands], truncated, maps


@pytest.mark.parametrize("budget", [0, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_scan_matches_reference(name, seed, budget):
    alg = ALGEBRAS[name]
    for samples in (8, 40):
        for max_candidates in (1, 2, 3, 5, 8, 64):
            args = (alg, budget, seed, samples, max_candidates)
            assert _summary(scan_candidates(*args)) == \
                _summary(reference_scan(*args)), args


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scan_matches_reference_up_to_the_imaginary_root(seed):
    """~D4 at budget 6 reaches its imaginary root (2,1,1,1,1), where q = 0
    and bricks come in a family, besides 24 real roots."""
    for samples in (8, 40):
        for max_candidates in (20, 64):
            args = (ALGEBRAS["~D4"], 6, seed, samples, max_candidates)
            assert _summary(scan_candidates(*args)) == \
                _summary(reference_scan(*args)), args


def test_scan_truncated_by_a_repeated_draw_alone():
    """Here the candidate list is full when a draw repeats an earlier brick
    draw at its dimension vector, and no new brick is drawn after it: the
    repeat is a candidate already, so the scan is complete, not truncated."""
    args = (ALGEBRAS["kronecker"], 2, 4, 8, 6)
    got = scan_candidates(*args)
    assert got[1] is False
    assert _summary(got) == _summary(scan_candidates(*args[:-1], 64))
    assert _summary(got) == _summary(reference_scan(*args))


@pytest.mark.parametrize("budget", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_capped_scan_is_a_prefix_of_the_uncapped_one(name, seed, budget):
    """A scan capped at N lists the first N candidates of the uncapped scan,
    and it is truncated iff the uncapped scan lists more than N: at every
    cap from 0 to k + 1, k the uncapped candidate count."""
    alg = ALGEBRAS[name]
    full, truncated = scan_candidates(alg, budget, seed, 8, 10 ** 6)
    assert not truncated
    names, k = [c.name for c in full], len(full)
    for cap in range(k + 2):
        cands, truncated = scan_candidates(alg, budget, seed, 8, cap)
        assert ([c.name for c in cands], truncated) == (names[:cap], k > cap), cap


def test_draws_match_randint_rows():
    """A draw takes each entry by rng.choice over -2..2, which must give the
    reference's rng.randint(-2, 2) entries and leave the generator in the
    same state, also for maps into or out of a zero space."""
    alg = ALGEBRAS["rsz3"]
    for dv in ({"1": 2, "2": 1, "3": 0}, {"1": 0, "2": 2, "3": 3}, {"1": 1, "2": 1, "3": 1}):
        for seed in range(20):
            rng, ref = random.Random(seed), random.Random(seed)
            draw = _random_maps(alg, dv, rng)
            for a, rows in zip(alg.quiver.arrows, draw):
                r, c = dv[a.target], dv[a.source]
                want = None if ref.random() < 0.4 else tuple(
                    tuple(ref.randint(-2, 2) for _ in range(c)) for _ in range(r))
                assert rows == want
            assert rng.random() == ref.random()


@pytest.mark.parametrize("vertices", [["1", "2"], ["9", "10", "2"],
                                      ["10", "9", "b", "a"], ["x"]])
def test_dimension_vector_order(vertices):
    """The scan orders dimension vectors by total, then by their counts in
    sorted-label order.  Every reference vector holds the same labels, so
    this is the order of the key (total, sorted items) the reference sorts
    by, also for labels such as "10" and "9" whose string order is not their
    numeric one.  The scan gives each vector as its support: its nonzero
    counts, in vertex order."""
    for budget in range(5):
        want = sorted(scan_reference._dimension_vectors(vertices, budget),
                      key=lambda d: (sum(d.values()), tuple(sorted(d.items()))))
        got = _dimension_vectors(vertices, budget)
        assert [list(d.items()) for d in got] == \
            [[(v, k) for v, k in d.items() if k] for d in want]
