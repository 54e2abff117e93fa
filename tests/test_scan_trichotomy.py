"""The representation-type trichotomy as an oracle for `fp-scan`.

For a finite connected acyclic quiver Q, fpdim of the suspension of
D^b(rep Q) is 0 when Q is Dynkin, 1 when Q is Euclidean and > 1 when Q is
wild.  A brick set of modules is a brick set in D^b and Hom(X, ΣY) =
Ext^1(X, Y), so the scan's Ext^1 grid is a certified lower bound for that
fpdim: it may never exceed 0 on a Dynkin quiver nor 1 on a Euclidean one.
On wild quivers the scan must exceed 1 once its dimension budget is large
enough; the corpus records the smallest such budget at seed 0.
"""

import pytest

from fproot.algebra import path_algebra
from fproot.cli import scan_candidates
from fproot.fpcore import FpBudgets, ext_assignment, fp_report
from fproot.quiver import Quiver, classify_underlying_graph, is_acyclic

SHAPES = {"A": "dynkin", "D": "dynkin", "E": "dynkin",
          "~A": "euclidean", "~D": "euclidean", "~E": "euclidean"}


def _quiver(nverts, arrows):
    return Quiver([str(v) for v in range(1, nverts + 1)],
                  [(f"a{k}", str(s), str(t)) for k, (s, t) in enumerate(arrows)])


# name -> (type, quiver, smallest --budget-dim at which a wild quiver's scan
# exceeds 1); the first nine are the connected simple graphs on 2-4 vertices
CORPUS = {
    "A2": ("dynkin", _quiver(2, [(1, 2)]), None),
    "A3": ("dynkin", _quiver(3, [(1, 2), (2, 3)]), None),
    "triangle ~A2": ("euclidean", _quiver(3, [(1, 2), (2, 3), (1, 3)]), None),
    "A4": ("dynkin", _quiver(4, [(1, 2), (2, 3), (3, 4)]), None),
    "star D4": ("dynkin", _quiver(4, [(2, 1), (3, 1), (4, 1)]), None),
    "square ~A3": ("euclidean", _quiver(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), None),
    "triangle with a pendant": ("wild", _quiver(4, [(1, 2), (2, 3), (1, 3), (4, 3)]), 6),
    "diamond": ("wild", _quiver(4, [(1, 2), (2, 3), (1, 3), (1, 4), (4, 3)]), 3),
    "K4": ("wild", _quiver(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]), 3),
    "Kronecker ~A1": ("euclidean", _quiver(2, [(1, 2), (1, 2)]), None),
    "3-Kronecker": ("wild", _quiver(2, [(1, 2)] * 3), 3),
    "double-arrow A3": ("wild", _quiver(3, [(1, 2), (1, 2), (2, 3)]), 3),
    "~A2 sink in the middle": ("euclidean", _quiver(3, [(1, 2), (1, 3), (3, 2)]), None),
    "~A3 two and two": ("euclidean", _quiver(4, [(1, 2), (2, 3), (1, 4), (4, 3)]), None),
    "~A3 alternating": ("euclidean", _quiver(4, [(1, 2), (3, 2), (3, 4), (1, 4)]), None),
    "~D4 subspace": ("euclidean", _quiver(5, [(2, 1), (3, 1), (4, 1), (5, 1)]), None),
    "~D4 two in, two out": ("euclidean", _quiver(5, [(1, 2), (1, 3), (4, 1), (5, 1)]), None),
    "~D5": ("euclidean", _quiver(6, [(1, 3), (2, 3), (3, 4), (5, 4), (6, 4)]), None),
}

EUCLIDEAN_BUDGET = 4  # ~D5 reads 0 at budget 3: its smallest tube bricks have dimension 4


def _scan_fpdim(q, dim_budget):
    """fpdim (power 1, set size <= 4) of the seed-0 scan of kQ, every cell
    certified."""
    alg = path_algebra(q)
    cands, _ = scan_candidates(alg, dim_budget, 0)
    report = fp_report(cands, ext_assignment(alg), FpBudgets(max_set_size=4, max_power=1))
    assert all(cell.value.certified for cell in report.cells.values())
    return report.fpdim


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_scan_respects_the_trichotomy(name):
    kind, q, smallest = CORPUS[name]
    assert is_acyclic(q)
    shape = classify_underlying_graph(q)
    assert SHAPES.get(shape and shape[0], "wild") == kind
    if kind == "dynkin":
        assert _scan_fpdim(q, 3) == _scan_fpdim(q, 4) == 0.0
    elif kind == "euclidean":
        assert _scan_fpdim(q, 3) <= 1.0
        assert _scan_fpdim(q, EUCLIDEAN_BUDGET) == 1.0
    else:
        budget = next(d for d in range(3, 8) if _scan_fpdim(q, d) > 1.0)
        assert budget == smallest
