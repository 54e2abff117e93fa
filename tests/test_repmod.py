import math
from fractions import Fraction

import pytest

from fproot.algebra import (dual_numbers_algebra, kronecker_algebra,
                            path_algebra, sqrt2_algebra, AlgebraError)
from fproot.quiver import dynkin_quiver, path_quiver
from fproot.repmod import (Representation, RepresentationError, direct_sum,
                           dual_representation, dynkin_indecomposables,
                           euler_ext1, euler_form, ext, ext_simple_table, hom,
                           hom_dim, is_brick, is_isomorphic_brick,
                           kronecker_brick_catalogue, lambda_sample,
                           minimal_resolution, module_from_json,
                           module_to_json, preinjective_brick,
                           preprojective_brick, projective,
                           projective_cover_multiplicities, regular_brick,
                           simple, simples, sqrt2_brick_catalogue)
from fproot import algebra as algmod


@pytest.fixture(scope="module")
def A():
    return sqrt2_algebra()


@pytest.fixture(scope="module")
def K():
    return kronecker_algebra()


# -- construction / validation -----------------------------------------------

def test_simples(A):
    s1, s2 = simples(A)
    assert s1.dimvec == {"1": 1, "2": 0}
    assert s2.dimvec == {"1": 0, "2": 1}


def test_projectives_of_sqrt2(A):
    p1, p2 = projective(A, "1"), projective(A, "2")
    assert p1.dimvec == {"1": 1, "2": 2}
    assert p2.dimvec == {"1": 1, "2": 1}
    assert sum(p.total_dim for p in (p1, p2)) == A.dim


def test_projective_top_is_simple(A):
    for v in A.quiver.vertices:
        tops = projective_cover_multiplicities(projective(A, v))
        assert tops == {w: (1 if w == v else 0) for w in A.quiver.vertices}


def test_relation_violation_rejected(A):
    # alpha and beta both nonzero violates the composition relations
    with pytest.raises(RepresentationError):
        Representation(A, {"1": 1, "2": 1},
                       {"a": [[1]], "b": [[1]], "c": [[0]]})


def test_shape_mismatch_rejected(A):
    with pytest.raises(RepresentationError):
        Representation(A, {"1": 1, "2": 2}, {"a": [[1]]})


def test_unknown_vertex_or_arrow_rejected(A):
    """A dimension at a vertex, or a map for an arrow, that the quiver lacks
    is an error that names it, not a silently dropped key."""
    with pytest.raises(RepresentationError, match="unknown vertex '7'"):
        Representation(A, {"7": 1}, {})
    with pytest.raises(RepresentationError, match="unknown vertex '7'"):
        simple(A, "7")
    for m in ([[1]], None):
        with pytest.raises(RepresentationError, match="unknown arrow 'zz'"):
            Representation(A, {"1": 1, "2": 1}, {"zz": m})


@pytest.mark.parametrize("d", [2.5, 2.0, True, "3"])
def test_a_dimension_that_is_no_int_is_rejected(K, d):
    """A float, a bool or a string is refused in module_from_json's words,
    not truncated or parsed by int(); the other vertex is a valid int."""
    with pytest.raises(RepresentationError) as e:
        Representation(K, {"1": d, "2": 1}, {})
    assert str(e.value) == f"dimension at vertex '1' is not an integer: {d!r}"
    with pytest.raises(RepresentationError, match="^dimension at vertex '2' is not"):
        Representation(K, {"1": 2, "2": True}, {})
    assert Representation(K, {"1": 2, "2": 1}, {}).name == "M(2, 1)"


# -- hom ---------------------------------------------------------------------

def test_hom_simples_vanish_between_vertices(A):
    s1, s2 = simples(A)
    assert hom_dim(s1, s2) == 0
    assert hom_dim(s2, s1) == 0
    assert hom_dim(s1, s1) == 1


def test_hom_regular_family_disjoint(A):
    x0 = regular_brick(A, 0)
    x1 = regular_brick(A, 1)
    xinf = regular_brick(A, math.inf)
    for u, v in [(x0, x1), (x1, x0), (x0, xinf), (xinf, x1)]:
        assert hom_dim(u, v) == 0
    assert hom_dim(x0, x0) == 1


def test_hom_basis_is_intertwiner(A):
    p1 = projective(A, "1")
    x = regular_brick(A, 2)
    hs = hom(p1, x)
    for f in hs.basis:
        for a in A.quiver.arrows:
            lhs = f[a.target] @ p1.maps[a.label]
            rhs = x.maps[a.label] @ f[a.source]
            assert lhs == rhs


def test_hom_mismatched_algebras(A, K):
    with pytest.raises(RepresentationError):
        hom(simple(A, "1"), simple(K, "1"))


def test_simple_not_into_projective_socle(A):
    s1 = simple(A, "1")
    p2 = projective(A, "2")
    assert hom_dim(s1, p2) == 1  # the socle inclusion
    assert hom_dim(p2, s1) == 0


# -- bricks -------------------------------------------------------------------

def test_simples_are_bricks(A):
    assert all(is_brick(s) for s in simples(A))


def test_direct_sum_is_not_a_brick(A):
    s1 = simple(A, "1")
    assert not is_brick(direct_sum([s1, s1]))


def test_projective_p2_is_brick(A):
    assert is_brick(projective(A, "2"))


def test_brick_catalogue_members(A):
    cat = sqrt2_brick_catalogue(A, lambda_count=8, family_depth=3)
    assert len(cat) == 17
    assert all(is_brick(m) for m in cat)


def test_family_self_ext_at_most_one(A):
    # the preprojective/preinjective families are rigid or nearly so
    for n in range(0, 5):
        for fam in (preprojective_brick, preinjective_brick):
            m = fam(A, n)
            assert ext(1, m, m) <= 1


def test_isomorphism_detector(A):
    x = regular_brick(A, 1)
    y = Representation(A, x.dimvec,
                       {"a": [[0]], "b": [[2]], "c": [[2]]}, name="scaled")
    assert is_isomorphic_brick(x, y)  # same lambda = 1 up to scaling
    assert not is_isomorphic_brick(x, regular_brick(A, 3))


# -- resolutions ---------------------------------------------------------------

def test_resolution_of_first_simple(A):
    res = minimal_resolution(simple(A, "1"), 4)
    pattern = [res.multiplicities(i) for i in range(5)]
    assert pattern[0] == {"1": 1}
    assert pattern[1] == {"2": 2}
    assert pattern[2] == {"1": 2}
    assert pattern[3] == {"2": 4}
    assert pattern[4] == {"1": 4}


def test_resolution_of_projective_has_length_zero(A):
    res = minimal_resolution(projective(A, "1"), 6)
    assert res.length == 0
    assert len(res.steps) == 1


def test_resolution_of_regular_brick(A):
    res = minimal_resolution(regular_brick(A, 5), 2)
    assert [res.multiplicities(i) for i in range(3)] == \
        [{"1": 1}, {"2": 1}, {"1": 1}]


def test_resolution_differentials_stay_in_radical(A):
    res = minimal_resolution(simple(A, "2"), 6)
    for step in res.steps[1:]:
        for entry in step.differential:
            assert all(len(path) >= 1 for (_, path) in entry)


def test_ext_zero_equals_hom(A):
    cat = sqrt2_brick_catalogue(A, lambda_count=3, family_depth=1)
    for m in cat[:4]:
        for n in cat[:4]:
            assert ext(0, m, n) == hom_dim(m, n)


def test_ext_matrix_of_simples(A):
    s1, s2 = simples(A)
    grid = [[ext(1, s1, s1), ext(1, s1, s2)],
            [ext(1, s2, s1), ext(1, s2, s2)]]
    assert grid == [[0, 2], [1, 0]]


def test_ext_closed_forms_to_degree_8(A):
    t = ext_simple_table(A, 8)
    for i in range(9):
        assert t[("1", "1")][i] == (2 ** (i // 2) if i % 2 == 0 else 0)
        assert t[("1", "2")][i] == (2 ** ((i + 1) // 2) if i % 2 == 1 else 0)
        assert t[("2", "1")][i] == (2 ** ((i - 1) // 2) if i % 2 == 1 else 0)
        assert t[("2", "2")][i] == (2 ** (i // 2) if i % 2 == 0 else 0)


def test_ext_simple_table_matches_general_engine(A):
    t = ext_simple_table(A, 4)
    for i in A.quiver.vertices:
        for j in A.quiver.vertices:
            for d in range(5):
                assert t[(i, j)][d] == ext(d, simple(A, i), simple(A, j))


def test_ext_vanishes_on_projectives(A):
    p = projective(A, "1")
    for n in simples(A):
        for i in (1, 2, 3):
            assert ext(i, p, n) == 0


def test_ext_regular_self_extension(A):
    x = regular_brick(A, 4)
    assert ext(1, x, x) == 1
    y = regular_brick(A, 5)
    assert ext(1, x, y) == 0


def test_ext_additive_over_direct_sums(A):
    s1, s2 = simples(A)
    x = regular_brick(A, 0)
    both = direct_sum([s1, s2])
    for target in (s1, x):
        assert hom_dim(both, target) == hom_dim(s1, target) + hom_dim(s2, target)
        assert ext(1, both, target) == ext(1, s1, target) + ext(1, s2, target)
        assert ext(1, target, both) == ext(1, target, s1) + ext(1, target, s2)


def test_dual_numbers_periodic_resolution():
    d = dual_numbers_algebra()
    s = simple(d, "1")
    res = minimal_resolution(s, 6)
    assert all(res.multiplicities(i) == {"1": 1} for i in range(7))
    assert all(ext(i, s, s) == 1 for i in range(5))


# -- Euler form ----------------------------------------------------------------

def test_euler_ext1_on_kronecker(K):
    r = regular_brick(K, 1)
    assert euler_ext1(r, r) == 1
    s1, s2 = simple(K, "1"), simple(K, "2")
    assert euler_ext1(s1, s2) == 2
    assert euler_ext1(s2, s1) == 0


def test_euler_ext1_on_linear_quiver():
    a = path_algebra(path_quiver(2))
    s1, s2 = simple(a, "1"), simple(a, "2")
    # the arrow 1 -> 2 contributes Ext^1 from the top side simple
    assert euler_ext1(s1, s2) == 1 == ext(1, s1, s2)
    assert euler_ext1(s2, s1) == 0 == ext(1, s2, s1)
    p1 = projective(a, "2")  # simple projective
    assert euler_ext1(p1, p1) == 0


def test_euler_ext1_requires_no_relations(A):
    with pytest.raises(AlgebraError):
        euler_ext1(simple(A, "1"), simple(A, "2"))


# -- Dynkin indecomposables ------------------------------------------------------

def test_dynkin_indecomposables_a2():
    a = path_algebra(path_quiver(2))
    mods = dynkin_indecomposables(a)
    assert len(mods) == 3
    dimvecs = sorted(tuple(m.dimvec[v] for v in a.quiver.vertices) for m in mods)
    assert dimvecs == [(0, 1), (1, 0), (1, 1)]
    assert all(is_brick(m) for m in mods)


def test_dynkin_indecomposables_counts_and_certificates():
    for fam, rank, count in [("A", 3, 6), ("D", 4, 12)]:
        a = path_algebra(dynkin_quiver(fam, rank))
        mods = dynkin_indecomposables(a)
        assert len(mods) == count
        for m in mods:
            assert is_brick(m)
            assert euler_form(a, m.dimvec, m.dimvec) == 1


def test_dynkin_search_is_deterministic():
    a = path_algebra(path_quiver(3))
    m1 = dynkin_indecomposables(a)
    m2 = dynkin_indecomposables(a)
    assert [m.maps["a1"].data for m in m1] == [m.maps["a1"].data for m in m2]


def test_dynkin_rejects_relations(A):
    with pytest.raises(AlgebraError):
        dynkin_indecomposables(A)
    # on the A3 graph too, which positive_roots alone would accept
    with pytest.raises(AlgebraError):
        dynkin_indecomposables(algmod.BoundAlgebra(path_quiver(3), [[(1, ("a2", "a1"))]]))


# -- duals -------------------------------------------------------------------

def test_dual_representation_transposes_adjacency(A):
    op = algmod.opposite(A)
    cat = sqrt2_brick_catalogue(A, lambda_count=4, family_depth=1)
    duals = [dual_representation(m, op) for m in cat]
    for i in range(len(cat)):
        for j in range(len(cat)):
            assert hom_dim(cat[i], cat[j]) == hom_dim(duals[j], duals[i])
            assert ext(1, cat[i], cat[j]) == ext(1, duals[j], duals[i])


# -- catalogues / JSON ---------------------------------------------------------

def test_lambda_sample():
    assert lambda_sample(8) == [0, 1, 2, 3, 4, 5, 6, math.inf]


def test_kronecker_catalogue_budget(K):
    cat = kronecker_brick_catalogue(K, max_total_dim=6, lambda_count=8)
    assert all(m.total_dim <= 6 for m in cat)
    assert all(is_brick(m) for m in cat)
    names = {m.name for m in cat}
    assert {"S1", "S2", "preproj1", "preinj1", "preproj2", "preinj2"} <= names


def test_module_json_roundtrip(A):
    m = regular_brick(A, Fraction(2, 3))
    m2 = module_from_json(A, module_to_json(m))
    assert m2.dimvec == m.dimvec
    assert all(m2.maps[a.label] == m.maps[a.label] for a in A.quiver.arrows)
    with pytest.raises(RepresentationError):
        module_from_json(A, "broken")


def test_dynkin_orbit_off_the_positive_roots_is_an_invariant_violation(monkeypatch):
    from fproot import repmod
    from fproot.exactlin import InvariantViolation
    from fproot.quiver import positive_roots
    # a root list without (1, 1): the orbit module of that dimension is left over
    monkeypatch.setattr(repmod, "positive_roots", lambda q: [
        r for r in positive_roots(q) if r != (1, 1)])
    with pytest.raises(InvariantViolation, match="positive root"):
        dynkin_indecomposables(path_algebra(path_quiver(2)))
