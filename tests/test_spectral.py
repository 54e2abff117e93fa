import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fproot.exactlin import RatMatrix
from fproot.spectral import (ExtendedMatrix, SpectralError,
                             characteristic_polynomial, matrix_from_json,
                             rho, rho_block_lower_triangular, rho_extended,
                             rho_nonnegative_via_scc, spectral_radius,
                             squarefree_part, zplus_fpdim)

SQRT2 = math.sqrt(2.0)


def random_nonneg(rng, n, span=4):
    return RatMatrix([[Fraction(rng.randint(0, span)) for _ in range(n)]
                      for _ in range(n)], cols=n)


# -- rho ----------------------------------------------------------------

def test_rho_sqrt2_certified():
    r = rho([[0, 2], [1, 0]])
    assert r.certified and r.tolerance == 0.0
    assert abs(r.value - SQRT2) <= 1e-12


def test_rho_identity():
    for n in (1, 3, 8):
        r = rho(RatMatrix.identity(n))
        assert abs(r.value - 1.0) <= 1e-9


def test_rho_cycle_graph_is_two():
    # symmetric adjacency of an (n+1)-cycle has radius exactly 2
    for n in (3, 5, 9):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][(i + 1) % n] = m[(i + 1) % n][i] = 1
        assert abs(rho(m).value - 2.0) <= 1e-9


def test_rho_rejects_nonsquare_and_negative():
    with pytest.raises(SpectralError):
        rho([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(SpectralError):
        rho([[-1]])


def test_input_errors_name_the_fault():
    with pytest.raises(SpectralError, match="use rho_extended"):
        rho(ExtendedMatrix([[1, "inf"], [0, 1]]))
    with pytest.raises(SpectralError, match="spectral radius needs a square matrix"):
        spectral_radius([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(SpectralError, match="needs a square matrix"):
        characteristic_polynomial(RatMatrix([[1, 2, 3], [4, 5, 6]]))
    # the -1 lies outside every component, so no block sees it; the name
    # promises a nonnegative matrix and rho checks it
    with pytest.raises(SpectralError, match="nonnegative"):
        rho_nonnegative_via_scc(RatMatrix([[1, 0], [-1, 1]]))


def test_rho_empty_matrix():
    r = rho(RatMatrix([], cols=0))
    assert r.value == 0.0 and r.certified


# -- characteristic polynomial -------------------------------------------

def test_char_poly_known():
    assert characteristic_polynomial(RatMatrix([[0, 2], [1, 0]])) == \
        [Fraction(1), Fraction(0), Fraction(-2)]
    assert characteristic_polynomial(RatMatrix.identity(3)) == \
        [Fraction(1), Fraction(-3), Fraction(3), Fraction(-1)]


def test_char_poly_matches_numpy_roots():
    rng = random.Random(3)
    for _ in range(10):
        m = random_nonneg(rng, 4)
        p = [float(c) for c in characteristic_polynomial(m)]
        roots = np.roots(p)
        assert abs(max(abs(roots)) - rho(m).value) <= 1e-8


def test_squarefree_part_strips_multiplicity():
    # (x - 1)^2
    p = [Fraction(1), Fraction(-2), Fraction(1)]
    assert squarefree_part(p) == [Fraction(1), Fraction(-1)]


def test_rho_with_repeated_perron_root():
    r = rho(RatMatrix.identity(2))
    assert r.certified and abs(r.value - 1.0) == 0.0


# -- extended radius ------------------------------------------------------

def test_extended_upper_minus_infinity():
    r = rho_extended(ExtendedMatrix([[1, -math.inf], [0, 2]]))
    assert r.certified and r.value == 2.0


def test_extended_infinite_loop():
    r = rho_extended(ExtendedMatrix([[math.inf]]))
    assert r.certified and r.value == math.inf


def test_extended_nilpotent_infinity_and_grid_oracle():
    m = ExtendedMatrix([[0, math.inf], [0, 0]])
    r = rho_extended(m)
    assert r.certified and r.value == 0.0
    # oracle: substitute x = 2^k; the matrix stays nilpotent for every k
    for k in range(0, 21):
        a = np.array([[0.0, 2.0 ** k], [0.0, 0.0]])
        assert max(abs(np.linalg.eigvals(a))) == 0.0


def test_extended_plain_finite_matrix():
    r = rho_extended(ExtendedMatrix([[0, 2], [1, 0]]))
    assert abs(r.value - SQRT2) <= 1e-12


def test_extended_mixed_sign_falls_back_uncertified():
    r = rho_extended(ExtendedMatrix([[1, -math.inf], [1, 1]]))
    assert not r.certified


def test_matrix_json_parse_and_errors():
    m = matrix_from_json('[["1/2", "inf"], [0, "-inf"]]')
    assert m.entries[0][0] == Fraction(1, 2)
    assert m.entries[0][1] == math.inf
    assert m.entries[1][1] == -math.inf
    with pytest.raises(SpectralError, match="row 0, column 1"):
        matrix_from_json('[[1, "zap"], [0, 1]]')
    with pytest.raises(SpectralError):
        matrix_from_json('{"not": "a matrix"}')
    with pytest.raises(SpectralError):
        matrix_from_json('[[1, 2], [3]]')


# -- block triangular ------------------------------------------------------

def test_block_lower_triangular_simple():
    assert rho_block_lower_triangular([[[2]], [[3]]]).value == 3.0


def test_block_lower_triangular_single_block():
    b = [[0, 2], [1, 0]]
    assert abs(rho_block_lower_triangular([b]).value - rho(b).value) == 0.0


def test_block_lower_triangular_matches_assembled():
    rng = random.Random(5)
    for _ in range(20):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        blocks = [random_nonneg(rng, s) for s in sizes]
        n = sum(sizes)
        big = [[Fraction(0)] * n for _ in range(n)]
        off = 0
        offs = []
        for b in blocks:
            offs.append(off)
            for i in range(b.rows):
                for j in range(b.cols):
                    big[off + i][off + j] = b.data[i][j]
            off += b.rows
        # arbitrary strictly-lower rectangular fill
        for bi in range(1, len(sizes)):
            for i in range(sizes[bi]):
                for j in range(offs[bi]):
                    big[offs[bi] + i][j] = Fraction(rng.randint(0, 3))
        lhs = rho_block_lower_triangular(blocks).value
        rhs = rho(RatMatrix(big, cols=n)).value
        assert abs(lhs - rhs) <= 1e-9


# -- zplus ------------------------------------------------------------------

def test_zplus_identity_is_one():
    assert zplus_fpdim(RatMatrix.identity(4)).value == 1.0


def test_zplus_swap():
    # eigenvalues +1 and -1: radius 1
    assert abs(zplus_fpdim([[0, 1], [1, 0]]).value - 1.0) == 0.0


def test_zplus_all_ones():
    # rank one, trace two
    assert abs(zplus_fpdim([[1, 1], [1, 1]]).value - 2.0) == 0.0


def test_zplus_rejects_noninteger():
    with pytest.raises(SpectralError):
        zplus_fpdim([[Fraction(1, 2)]])


# -- monotonicity and symmetry properties -----------------------------------

def test_principal_minor_monotonicity():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(2, 6)
        b = random_nonneg(rng, n)
        keep = sorted(rng.sample(range(n), rng.randint(1, n)))
        a = RatMatrix([[b.data[i][j] for j in keep] for i in keep],
                      cols=len(keep))
        assert rho(a).value <= rho(b).value + 1e-9


def test_entrywise_monotonicity():
    rng = random.Random(19)
    for _ in range(50):
        n = rng.randint(1, 6)
        a = random_nonneg(rng, n, span=3)
        b = RatMatrix([[a.data[i][j] + Fraction(rng.randint(0, 2))
                        for j in range(n)] for i in range(n)], cols=n)
        assert rho(a).value <= rho(b).value + 1e-9


def test_transpose_invariance():
    rng = random.Random(23)
    for _ in range(50):
        m = random_nonneg(rng, rng.randint(1, 7))
        assert abs(rho(m).value - rho(m.transpose()).value) <= 1e-9


def test_permutation_similarity_invariance():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(2, 6)
        m = random_nonneg(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        pm = RatMatrix([[m.data[perm[i]][perm[j]] for j in range(n)]
                        for i in range(n)], cols=n)
        assert abs(rho(m).value - rho(pm).value) <= 1e-9


def test_strictly_triangular_radius_zero():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 6)
        m = RatMatrix([[Fraction(rng.randint(0, 4)) if j < i else Fraction(0)
                        for j in range(n)] for i in range(n)], cols=n)
        assert rho_nonnegative_via_scc(m).value == 0.0


# -- an independent oracle for certified roots ----------------------------

def test_certified_rho_matches_mpmath_oracle():
    """On strictly positive matrices the Perron root is a simple eigenvalue,
    so 50-digit mpmath eigenvalues pin it far below double precision."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261018)
    with mpmath.workdps(50):
        for k in range(100):
            n = 2 + k % 5
            rows = [[Fraction(rng.randint(1, 9), rng.randint(1, 4))
                     for _ in range(n)] for _ in range(n)]
            r = rho(rows)
            assert r.certified and r.tolerance == 0.0
            exact = mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator
                                    for x in row] for row in rows])
            ref = max(abs(e) for e in mpmath.eig(exact, left=False, right=False))
            assert abs(r.value - ref) <= 1e-14 * max(1, ref), (rows, r.value)


@pytest.mark.parametrize("radius", [rho, spectral_radius, rho_nonnegative_via_scc,
                                    zplus_fpdim])
def test_entries_beyond_the_double_range(radius):
    with pytest.raises(SpectralError, match="out of the double range"):
        radius([[0, 10 ** 400], [10 ** 400, 0]])
