import pytest

from fproot.algebra import kronecker_algebra
from fproot.fpcore import FpBudgets, ext_assignment, fp_report, homtable_fp, \
    dual_numbers_shift_table
from fproot.quiver import kronecker_quiver, quiver_fpdim
from fproot.repmod import kronecker_brick_catalogue
from fproot.tables import (a2_surface, cross_check_kronecker, p1_serre_surface,
                           p1_twist_surface, polyring_surface,
                           surface_grid_csv)


# -- twist table -------------------------------------------------------------

def test_twist_values():
    assert p1_twist_surface(0, 3) == 4.0
    assert p1_twist_surface(2, 0) == 0.0
    assert p1_twist_surface(1, -5) == 4.0
    assert p1_twist_surface(0, -1) == 1.0
    assert p1_twist_surface(1, -1) == 1.0


def test_twist_boundaries():
    # the b = -1 and b = 0 rows are the classic off-by-one traps
    assert p1_twist_surface(0, 0) == 1.0
    assert p1_twist_surface(1, -2) == 1.0
    assert p1_twist_surface(1, -3) == 2.0
    assert p1_twist_surface(-1, 0) == 0.0


# -- Serre table ---------------------------------------------------------------

def test_serre_values():
    assert p1_serre_surface(1, 0) == 1.0
    assert p1_serre_surface(0, 0) == 1.0
    assert p1_serre_surface(-1, 2) == 3.0
    assert p1_serre_surface(2, -1) == 1.0
    assert p1_serre_surface(0, 1) == 1.0
    assert p1_serre_surface(3, -3) == 7.0


def test_serre_overlapping_boundary_consistent():
    # a+b = 0 at b = 0 gives 1 from both reading orders
    assert p1_serre_surface(0, 0) == p1_twist_surface(0, 0) == 1.0


def test_serre_equals_twist_after_substitution():
    for a in range(-10, 11):
        for b in range(-10, 11):
            assert p1_serre_surface(a, b) == p1_twist_surface(a + b, -2 * b), (a, b)


# -- two-vertex quiver table -----------------------------------------------------

def test_a2_values():
    assert a2_surface(1, 0) == 0.0
    assert a2_surface(0, 1) == 1.0
    assert a2_surface(1, -2) == 1.0
    assert a2_surface(0, 0) == 1.0


def test_a2_periodicity():
    for a in range(-6, 7):
        for b in range(-6, 7):
            assert a2_surface(a, b) == a2_surface(a + 1, b - 3)


def test_a2_matches_homtable_at_power_three():
    # the suspension acts as a triple shift on the hom table, so the value at
    # (1, 0) must match the table scan at shift power 3
    tbl = dual_numbers_shift_table(-12, 12)
    rep = homtable_fp(tbl, 3, FpBudgets(max_set_size=3, max_power=1))
    assert rep.value(1, 1).value == a2_surface(1, 0) == 0.0
    rep1 = homtable_fp(tbl, 1, FpBudgets(max_set_size=3, max_power=1))
    assert rep1.value(1, 1).value == a2_surface(0, 1) == 1.0


# -- polynomial ring table ---------------------------------------------------------

def test_polyring_values():
    assert polyring_surface(3, 2) == 3
    assert polyring_surface(5, 0) == 1
    assert polyring_surface(1, 1) == 1
    assert polyring_surface(3, 4) == 0
    assert polyring_surface(3, -1) == 0


def test_polyring_row_sums():
    for g in range(0, 9):
        assert sum(polyring_surface(g, i) for i in range(g + 1)) == 2 ** g


def test_polyring_rows_are_binomials():
    import math as m
    for g in range(0, 9):
        assert [polyring_surface(g, i) for i in range(g + 1)] == \
            [m.comb(g, i) for i in range(g + 1)]


# -- CSV grids ----------------------------------------------------------------------

def test_surface_grid_csv():
    text = surface_grid_csv("p1-serre", radius=3)
    lines = text.strip().splitlines()
    assert len(lines) == 8  # header + 7 rows
    assert lines[0].startswith("a\\b")
    poly = surface_grid_csv("polyring", genus=3)
    assert poly.strip().splitlines()[1] == "g=3,1,3,3,1"
    with pytest.raises(KeyError):
        surface_grid_csv("no-such-surface")


# -- engine cross-check ----------------------------------------------------------------

def test_cross_check_kronecker():
    alg = kronecker_algebra()
    cat = kronecker_brick_catalogue(alg, max_total_dim=6, lambda_count=8)
    rep = fp_report(cat, ext_assignment(alg), FpBudgets(max_set_size=4, max_power=1))
    qv = quiver_fpdim(kronecker_quiver()).value
    chk = cross_check_kronecker(rep, qv)
    assert chk.agrees
    assert chk.surface_value == 1.0
    assert chk.quiver_value == 0.0
    assert chk.strict_gap
    assert all(abs(v - 1.0) <= 1e-9 for v in chk.engine_values.values())
