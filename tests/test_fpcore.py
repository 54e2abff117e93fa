import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fproot import repmod
from fproot.algebra import (dual_numbers_algebra, kronecker_algebra,
                            local_two_loop_algebra, path_algebra,
                            sqrt2_algebra)
from fproot.exactlin import RatMatrix
from fproot.cli import scan_candidates
from fproot.fpcore import (Assignment, BrickSet, BrickSetViolation, FpBudgets,
                           FpCell, _brick_subsets, _capped_growth_summary, _fill_grid,
                           HomTableCategory, adjacency_of, complexity_estimate,
                           dual_numbers_shift_table, ext1_quiver,
                           ext_assignment, fp_report, fpc_vs_cx_check,
                           fpdim_n, genus_matrix, growth_analyze, homtable_fp,
                           sigma_quiver_bound_check,
                           table_from_difference, verify_brick_set)
from fproot.quiver import Quiver, dynkin_quiver, path_quiver
from fproot.repmod import (direct_sum, dynkin_indecomposables, projective,
                           regular_brick, simple, simples,
                           sqrt2_brick_catalogue)
from fproot.spectral import SpectralValue, rho, rho_nonnegative_via_scc

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def A():
    return sqrt2_algebra()


@pytest.fixture(scope="module")
def cat17(A):
    return sqrt2_brick_catalogue(A, lambda_count=8, family_depth=3)


@pytest.fixture(scope="module")
def EA(A):
    return ext_assignment(A)


# -- brick sets ---------------------------------------------------------------

def test_verify_brick_set_valid_pairs(A, EA):
    s1, s2 = simples(A)
    out = verify_brick_set([s1, s2], EA)
    assert isinstance(out, BrickSet)
    assert out.certificate.to_lists() == [[1, 0], [0, 1]]

    x0, x1 = regular_brick(A, 0), regular_brick(A, 1)
    assert isinstance(verify_brick_set([x0, x1], EA), BrickSet)


def test_verify_brick_set_violation(A, EA):
    s1 = simple(A, "1")
    p2 = projective(A, "2")
    out = verify_brick_set([s1, p2], EA)
    assert isinstance(out, BrickSetViolation)
    assert out.observed != out.expected


def test_adjacency_of_simple_pair(A, EA):
    s1, s2 = simples(A)
    phi = verify_brick_set([s1, s2], EA)
    assert adjacency_of(phi, EA, 1).to_lists() == [[0, 2], [1, 0]]


def test_adjacency_of_regular_family_is_identity(A, EA):
    xs = [regular_brick(A, k) for k in (0, 1, 2)]
    phi = verify_brick_set(xs, EA)
    assert adjacency_of(phi, EA, 1).to_lists() == \
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_hom_adjacency_of_any_brick_set_is_identity(A, EA, cat17):
    phi = verify_brick_set([cat17[1], cat17[2], cat17[3]], EA)
    assert adjacency_of(phi, EA, 0).to_lists() == \
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


# -- fpdim_n -------------------------------------------------------------------

def test_fpdim_2_attains_sqrt2(A, EA, cat17):
    v = fpdim_n(2, cat17, EA)
    assert v.certified
    assert abs(v.value - SQRT2) <= 1e-9


def test_fpdim_other_sizes_are_one(A, EA, cat17):
    for n in (1, 3, 4):
        assert abs(fpdim_n(n, cat17, EA).value - 1.0) <= 1e-12


def test_fpdim_1_dynkin_is_zero():
    a = path_algebra(path_quiver(2))
    mods = dynkin_indecomposables(a)
    assert fpdim_n(1, mods, ext_assignment(a)).value == 0.0


def test_fpdim_empty_when_no_brick_sets(A, EA):
    s1 = simple(A, "1")
    p2 = projective(A, "2")
    # no valid pair inside {S1, P2}
    assert fpdim_n(2, [s1, p2], EA).value == 0.0


def test_fpdim_n_is_the_report_cell(A, EA):
    cands = sqrt2_brick_catalogue(A, lambda_count=3, family_depth=1)
    rep = fp_report(cands, EA, FpBudgets(max_set_size=len(cands), max_power=2))
    for power in (1, 2):
        for n in range(1, len(cands) + 1):
            assert fpdim_n(n, cands, EA, power) == rep.value(n, power)
        assert fpdim_n(len(cands) + 1, cands, EA, power) == \
            SpectralValue(0.0, True, 0.0)


# -- reports -------------------------------------------------------------------

def test_report_grid_and_aggregates(A, EA, cat17):
    rep = fp_report(cat17, EA, FpBudgets(max_set_size=4, max_power=1))
    assert abs(rep.value(2, 1).value - SQRT2) <= 1e-9
    assert rep.stabilization_index == 2
    assert abs(rep.fpdim - SQRT2) <= 1e-9
    assert set(rep.cells[(2, 1)].witness) == {"S1", "S2"}
    # power 0 column: Hom adjacency of a brick set is the identity
    for n in range(1, 5):
        assert abs(rep.value(n, 0).value - 1.0) <= 1e-12


def test_report_monotone_under_budgets(A, EA, cat17):
    small = fp_report(cat17[:6], EA, FpBudgets(max_set_size=3, max_power=1))
    large = fp_report(cat17, EA, FpBudgets(max_set_size=3, max_power=1))
    for n in range(1, 4):
        assert small.value(n, 1).value <= large.value(n, 1).value + 1e-12


def test_report_embedding_monotonicity(A, EA, cat17):
    # restricting the universe to the regular family only
    regs = [m for m in cat17 if m.name.startswith("R(")]
    sub = fp_report(regs, EA, FpBudgets(max_set_size=3, max_power=1))
    full = fp_report(cat17, EA, FpBudgets(max_set_size=3, max_power=1))
    for n in range(1, 4):
        assert sub.value(n, 1).value <= full.value(n, 1).value + 1e-12


def test_report_growth_on_simples(A, EA):
    rep = fp_report(simples(A), EA, FpBudgets(max_set_size=2, max_power=10))
    assert abs(rep.growth.fpv - SQRT2) <= 0.05
    seq = rep.growth.values
    for m in range(1, 11):
        assert abs(seq[m - 1] - 2 ** (m / 2.0)) <= 1e-6


def test_report_serialization(A, EA, cat17):
    rep = fp_report(cat17[:4], EA, FpBudgets(max_set_size=2, max_power=1))
    d = rep.as_dict()
    assert d["budgets"]["max_set_size"] == 2
    assert any(cell["witness"] for cell in d["grid"])
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0] == "set_size,power_0,power_1"


def _eager_fp_report(candidates, assignment, budgets):
    """fp_report with every pair filled at every power, the Ext filter's
    reference.  Its power-0 cells are the radii of the brick subsets' Hom
    submatrices (the first subset of the largest radius per size), not the
    identity shortcut of _fill_grid."""
    N = min(budgets.max_set_size, len(candidates))
    mats = [[[int(assignment.pair_dim(x, y, m)) for y in candidates]
             for x in candidates] for m in range(budgets.max_power + 1)]
    subsets = _brick_subsets(len(candidates), lambda i, j: mats[0][i][j], N)

    def witness(idx):
        return tuple(candidates[i].name for i in idx)

    rep = _fill_grid(subsets,
                     lambda idx, m: tuple(tuple(mats[m][i][j] for j in idx) for i in idx),
                     witness, N, budgets, assignment.name, [c.name for c in candidates])
    for n in range(1, N + 1):
        best = (SpectralValue(0.0, True, 0.0), ())
        for sub in (s for s in subsets if len(s) == n):
            r = rho_nonnegative_via_scc(RatMatrix([[mats[0][i][j] for j in sub]
                                                   for i in sub], cols=n))
            if r.value > best[0].value:
                best = (r, sub)
        rep.cells[(n, 0)] = FpCell(best[0], witness(best[1]))
    rep.fpgldim_window = max((m for (_, m), c in rep.cells.items()
                              if c.value.value > 1e-9), default=None)
    return rep


def _filter_families():
    """Candidate families with pairs that are not Hom-orthogonal: scan
    candidates (simples next to projectives), brick families, and families
    with a non-brick (a direct sum, a local projective)."""
    A, K, L = sqrt2_algebra(), kronecker_algebra(), local_two_loop_algebra(2, 2)
    return {
        "sqrt2_scan": (A, scan_candidates(A, 3, 3)[0]),
        "sqrt2_catalogue": (A, sqrt2_brick_catalogue(A, lambda_count=3, family_depth=1)
                            + [direct_sum([simple(A, "1"), simple(A, "2")])]),
        "kronecker_scan": (K, scan_candidates(K, 3, 1)[0]),
        "two_loop": (L, simples(L) + [projective(L, "1")]),
    }


@pytest.mark.parametrize("family", ["sqrt2_scan", "sqrt2_catalogue",
                                    "kronecker_scan", "two_loop"])
def test_fp_report_ext_filter_matches_eager_grid(family):
    """fp_report computes a power m >= 1 only at the diagonal of a brick and
    at pairs of Hom-orthogonal bricks, the entries a brick subset reads; its
    report must equal the eager full-grid one at set sizes 0-4 and powers 0-4
    (power 4 reaches the growth branch)."""
    alg, cands = _filter_families()[family]
    eager = ext_assignment(alg)
    hom = [[eager.pair_dim(x, y, 0) for y in cands] for x in cands]
    n = len(cands)
    assert any(hom[i][j] for i in range(n) for j in range(n) if i != j)
    index = {id(c): i for i, c in enumerate(cands)}
    for size in range(5):
        for power in range(5):
            budgets = FpBudgets(max_set_size=size, max_power=power)
            calls, inner = [], ext_assignment(alg)

            def pair_dim(x, y, p):
                calls.append((index[id(x)], index[id(y)], p))
                return inner.pair_dim(x, y, p)

            got = fp_report(cands, Assignment("Ext", pair_dim), budgets)
            assert got.as_dict() == _eager_fp_report(cands, eager, budgets).as_dict()
            assert got.to_csv() == _eager_fp_report(cands, eager, budgets).to_csv()
            if power >= 1:  # some pair is not read
                assert len([c for c in calls if c[2] == 1]) < n * n
            for i, j, p in calls:
                if p >= 1:  # read by a brick subset of at most `size` members
                    assert size >= 1 and hom[i][i] == hom[j][j] == 1
                    assert i == j or (size >= 2 and hom[i][j] == hom[j][i] == 0)


@pytest.mark.parametrize("family", ["sqrt2_scan", "sqrt2_catalogue",
                                    "kronecker_scan", "two_loop"])
def test_fp_report_reads_hom_only_where_it_picks_subsets(family):
    """fp_report reads each diagonal Hom entry once, a pair only when both
    members are bricks, and the reverse of a pair only after its forward
    entry read 0; at set size 1 it reads no pair at all."""
    alg, cands = _filter_families()[family]
    eager = ext_assignment(alg)
    hom = [[eager.pair_dim(x, y, 0) for y in cands] for x in cands]
    n, index = len(cands), {id(c): i for i, c in enumerate(cands)}
    bricks = {i for i in range(n) if hom[i][i] == 1}
    if not family.endswith("_scan"):  # scan candidates are all bricks
        assert bricks != set(range(n))
    for size in (1, 4):
        calls, inner = [], ext_assignment(alg)

        def pair_dim(x, y, p):
            if p == 0:
                calls.append((index[id(x)], index[id(y)]))
            return inner.pair_dim(x, y, p)

        fp_report(cands, Assignment("Ext", pair_dim), FpBudgets(max_set_size=size))
        assert sorted((i, j) for i, j in calls if i == j) == [(i, i) for i in range(n)]
        pairs = [(i, j) for i, j in calls if i != j]
        assert len(pairs) == len(set(pairs))
        assert size > 1 or not pairs
        for k, (i, j) in enumerate(pairs):
            assert i in bricks and j in bricks
            if i > j:  # a reverse read follows its zero forward read
                assert (j, i) in pairs[:k] and hom[j][i] == 0
        if size > 1:
            want = {(i, j) for i in bricks for j in bricks if i < j}
            want |= {(j, i) for i, j in want if hom[i][j] == 0}
            assert set(pairs) == want


def test_identity_radius_is_the_power0_cell():
    """_fill_grid fills the power-0 column without a matrix: the Hom matrix of
    a brick subset is the identity, whose radius is a certified 1."""
    for n in range(1, 7):
        assert rho_nonnegative_via_scc(RatMatrix.identity(n)) == \
            SpectralValue(1.0, True, 0.0)
    subsets = [(0,), (1,), (0, 2), (1, 2)]
    built = []
    rep = _fill_grid(subsets, lambda sub, m: built.append(m) or ((2,) * len(sub),) * len(sub),
                     lambda sub: sub, 3, FpBudgets(max_set_size=3, max_power=1), "t", [])
    assert 0 not in built and len(built) == len(subsets)
    assert [(rep.value(n, 0), rep.cells[(n, 0)].witness) for n in (1, 2, 3)] == [
        (SpectralValue(1.0, True, 0.0), (0,)), (SpectralValue(1.0, True, 0.0), (0, 2)),
        (SpectralValue(0.0, True, 0.0), ())]


# -- growth analyzer -------------------------------------------------------------

def test_growth_polynomial_window():
    seq = [math.floor(n ** 1.5) for n in range(1, 201)]
    g = growth_analyze(seq)
    assert 1.35 <= g.fpg <= 1.65


def test_growth_exponential_window():
    seq = [math.floor(1.3 ** n) for n in range(1, 61)]
    g = growth_analyze(seq)
    assert 1.27 <= g.fpv <= 1.33


def test_growth_constant_window():
    g = growth_analyze([1] * 40)
    assert g.fpg == 0.0
    assert g.fpv == 1.0


def test_growth_zero_window():
    g = growth_analyze([0] * 10)
    assert g.fpg == -math.inf and g.fpv == 0.0


def test_growth_needs_window():
    with pytest.raises(ValueError):
        growth_analyze([1, 2])


# -- ext1 quiver and the sigma-quiver bound ---------------------------------------

def test_ext1_quiver_of_simple_pair(A, EA):
    q = ext1_quiver(simples(A), EA)
    counts = {}
    for a in q.arrows:
        counts[(a.source, a.target)] = counts.get((a.source, a.target), 0) + 1
    assert counts == {("S1", "S2"): 2, ("S2", "S1"): 1}


def test_ext1_quiver_rejects_non_bricks(A, EA):
    from fproot.repmod import direct_sum
    s1 = simple(A, "1")
    with pytest.raises(ValueError):
        ext1_quiver([direct_sum([s1, s1])], EA)


def test_sigma_quiver_bound_dynkin():
    a = path_algebra(dynkin_quiver("A", 3))
    mods = dynkin_indecomposables(a)
    rep = sigma_quiver_bound_check(mods, ext_assignment(a))
    assert rep.holds
    assert rep.fpdim_value == 0.0 and rep.quiver_value == 0.0


def test_sigma_quiver_bound_sqrt2(A, EA, cat17):
    rep = sigma_quiver_bound_check(cat17, EA)
    assert rep.holds
    assert rep.fpdim_value >= SQRT2 - 1e-9
    assert rep.quiver_value >= rep.fpdim_value - 1e-9


def test_sigma_quiver_bound_one_object_loop_count(A, EA):
    x = regular_brick(A, 0)
    rep = sigma_quiver_bound_check([x], EA)
    # a single brick with one self-extension: both sides equal 1
    assert rep.fpdim_value == rep.quiver_value == 1.0


# -- hom tables --------------------------------------------------------------------

def test_homtable_closed_form_window():
    tbl = dual_numbers_shift_table(-20, 20)
    for power in range(-3, 5):
        rep = homtable_fp(tbl, power, FpBudgets(max_set_size=5, max_power=1))
        want = 1.0 if power in (0, 1) else 0.0
        for n in range(1, 6):
            assert abs(rep.value(n, 1).value - want) <= 1e-12, (power, n)


def test_homtable_generic_path_agrees_with_pattern_path():
    profile = lambda d: 1 if d in (0, 1) else 0
    banded = table_from_difference(-6, 6, profile, band=1)
    generic = HomTableCategory(-6, 6, lambda i, j: profile(j - i))
    for power in (-1, 0, 1, 2):
        r1 = homtable_fp(banded, power, FpBudgets(max_set_size=3, max_power=4))
        r2 = homtable_fp(generic, power, FpBudgets(max_set_size=3, max_power=4))
        for n in range(1, 4):
            for m in range(5):
                assert abs(r1.value(n, m).value - r2.value(n, m).value) <= 1e-12
                assert r1.cells[(n, m)].witness == r2.cells[(n, m)].witness
        assert r1.fpgldim_window == r2.fpgldim_window
        assert r1.growth.window == r2.growth.window
        assert r1.growth.values == pytest.approx(r2.growth.values, abs=1e-12)


def test_homtable_witnesses_are_gapped():
    tbl = dual_numbers_shift_table(-20, 20)
    rep = homtable_fp(tbl, 1, FpBudgets(max_set_size=4, max_power=1))
    wit = rep.cells[(4, 1)].witness
    idx = sorted(int(w[2:-1]) for w in wit)
    assert all(b - a >= 2 for a, b in zip(idx, idx[1:]))


def test_table_band_declaration_checked():
    with pytest.raises(ValueError):
        table_from_difference(-5, 5, lambda d: 1, band=1)


# -- block decomposition bound -----------------------------------------------------

def test_block_decomposition_bound(A, EA, cat17):
    """If homs vanish from one part to the shifted other, the report over
    the union is bounded by the max over the parts."""
    regs = [m for m in cat17 if m.name.startswith("R(")]
    pair = [m for m in cat17 if m.name in ("S1", "S2")]
    union = regs + pair
    b = FpBudgets(max_set_size=3, max_power=1)
    whole = fp_report(union, EA, b)
    part1 = fp_report(regs, EA, b)
    part2 = fp_report(pair, EA, b)
    def part_max(rep, n):
        sizes = [m for (m, p) in rep.cells if p == 1 and m <= n]
        return max(rep.value(m, 1).value for m in sizes)

    for n in range(1, 4):
        bound = max(part_max(part1, n), part_max(part2, n))
        assert whole.value(n, 1).value <= bound + 1e-9


# -- complexity ---------------------------------------------------------------------

def test_complexity_sqrt2_flags_infinite(A):
    comp = complexity_estimate(A, 10)
    assert math.isinf(comp.cx_estimate)
    assert abs(comp.fpv_estimate - SQRT2) <= 0.2
    assert comp.agc.holds


def test_complexity_dual_numbers_is_one():
    comp = complexity_estimate(dual_numbers_algebra(), 10)
    assert comp.cx_estimate == 1.0
    assert comp.agc.holds


def test_complexity_semisimple_is_zero():
    from fproot.quiver import Quiver
    from fproot.algebra import path_algebra as pa
    a = pa(Quiver(["1", "2"], []))
    comp = complexity_estimate(a, 6)
    assert comp.cx_estimate == 0.0


def _first_agc_violation(table, verts, depth):
    """The averaging growth rule, one (n, i, j) at a time: dim Ext^n(S_i, S_j)
    is at most twice the largest min(dim Ext^m(S_k, S_l), dim Ext^m(S_l, S_k))
    over every pair k, l and every m within 2 steps of n."""
    for n in range(depth + 1):
        for i in verts:
            for j in verts:
                window = [min(table[(k, l)][m], table[(l, k)][m])
                          for m in range(max(0, n - 2), min(depth, n + 2) + 1)
                          for k in verts for l in verts]
                if table[(i, j)][n] > 2 * max(window):
                    return n, i, j
    return None


@st.composite
def ext_tables(draw):
    """(vertices, depth, table): a random table of Ext dimensions over one
    to three vertices, mostly small, sometimes huge."""
    verts = [str(k) for k in range(1, draw(st.integers(1, 3)) + 1)]
    depth = draw(st.integers(4, 9))
    dims = st.integers(0, 6) | st.integers(0, 2 ** 70)
    return verts, depth, {(i, j): draw(st.lists(dims, min_size=depth + 1, max_size=depth + 1))
                          for i in verts for j in verts}


@settings(max_examples=200, deadline=None)
@given(ext_tables())
def test_agc_is_the_per_triple_rule(case):
    verts, depth, table = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repmod, "ext_simple_table", lambda alg, d: table)
        comp = complexity_estimate(path_algebra(Quiver(verts, [])), depth)
    violation = _first_agc_violation(table, verts, depth)
    assert comp.agc.first_violation == violation
    assert comp.agc.holds is (violation is None)


@settings(max_examples=200, deadline=None)
@given(ext_tables())
def test_complexity_sequence_is_the_per_degree_sum(case):
    """sequence[n] is dim Ext^n(T, T), the sum of the table's entries in
    degree n, and the complexity and curvature estimates are read off it."""
    verts, depth, table = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repmod, "ext_simple_table", lambda alg, d: table)
        comp = complexity_estimate(path_algebra(Quiver(verts, [])), depth)
    seq = [sum(table[(i, j)][n] for i in verts for j in verts) for n in range(depth + 1)]
    assert comp.sequence == seq and all(type(x) is int for x in comp.sequence)
    assert (comp.cx_estimate, comp.fpv_estimate) == _capped_growth_summary(seq[1:])


def test_fpc_vs_cx(A):
    chk = fpc_vs_cx_check(A, depth=10)
    assert chk.holds and chk.agc_holds
    assert math.isinf(chk.fpc_estimate) and math.isinf(chk.cx_estimate)

    chk2 = fpc_vs_cx_check(dual_numbers_algebra(), depth=10)
    assert chk2.holds
    assert chk2.fpc_estimate == chk2.cx_estimate == 1.0

    chk3 = fpc_vs_cx_check(path_algebra(path_quiver(2)), depth=8)
    assert chk3.holds
    assert chk3.fpc_estimate == 0.0 and chk3.cx_estimate == 0.0


# -- genus matrices -----------------------------------------------------------------

def test_genus_matrix_values():
    assert genus_matrix(3, 2).to_lists() == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    assert rho(genus_matrix(3, 2)).value == 4.0
    assert rho(genus_matrix(1, 5)).value == 5.0
    assert abs(rho(genus_matrix(5, 3)).value - 11.0) <= 1e-9


def test_genus_matrix_validation():
    with pytest.raises(ValueError):
        genus_matrix(0, 2)
    with pytest.raises(ValueError):
        genus_matrix(3, 1)
