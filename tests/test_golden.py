"""Cross-version golden outputs: the full stdout of fixed CLI runs, recorded
once and compared byte for byte.

`test_fp_scan_deterministic` compares two runs of the same code; these files
pin the output across changes to the code, so an optimisation that alters a
single byte of a report (a candidate name, a witness, a float) fails here.
Re-record a file only for a change that is meant to alter the output.
"""

import pathlib
import subprocess
import sys

import pytest

DATA = pathlib.Path(__file__).parent / "data"

GOLDEN = [
    (["fp-scan", "sqrt2_algebra.json", "--budget-dim", "4", "--seed", "3"],
     "sqrt2_fp_scan_dim4_seed3.out"),
    (["fp-scan", "kronecker_algebra.json", "--budget-dim", "4", "--seed", "3"],
     "kronecker_fp_scan_dim4_seed3.out"),
    (["resolve", "sqrt2_algebra.json", "--simple", "1", "--depth", "6"],
     "sqrt2_resolve_s1_depth6.out"),
    # Ext into the simples of a non-simple module (the regular brick R(2))
    (["resolve", "sqrt2_algebra.json", "--module", "sqrt2_regular_brick2.json",
      "--depth", "4"],
     "sqrt2_resolve_brick2_depth4.out"),
    # depth < 4: the complexity window is deeper than the printed tables
    (["resolve", "two_loop_2_2_algebra.json", "--simple", "1", "--depth", "2"],
     "two_loop_2_2_resolve_s1_depth2.out"),
    # a finite resolution (length 1) at a depth past its end
    (["resolve", "kronecker_algebra.json", "--simple", "1", "--depth", "3"],
     "kronecker_resolve_s1_depth3.out"),
    # a two-term relation (the commutative square): Ext^2(S1, S4) = 1
    (["resolve", "commutative_square_algebra.json", "--simple", "1",
      "--depth", "4"],
     "commutative_square_resolve_s1_depth4.out"),
    # irreducible 5x5, squarefree characteristic polynomial of degree 5:
    # the certified value comes out of the Sturm search over the doubles
    (["spectral", "spectral_irreducible5.json"], "spectral_irreducible5.out"),
    # x^6 - 10^60: a root of 10^10 far below the row sums of 10^30
    (["spectral", "spectral_cycle6_1e30.json"], "spectral_cycle6_1e30.out"),
    # a 4-cycle whose root 1/1000 lies far below its row sum 10^9
    (["spectral", "spectral_far_below_row_sums.json"],
     "spectral_far_below_row_sums.out"),
    # a 3-cycle of weights 1/10^100: a root of 10^-100, close to 0
    (["spectral", "spectral_cycle3_1e-100.json"], "spectral_cycle3_1e-100.out"),
    # roots 10^20 and 10^20 +- sqrt 13, closer than one ulp: float Newton
    # stops far from the Perron root
    (["spectral", "spectral_root_cluster.json"], "spectral_root_cluster.out"),
    # +inf and -inf only between components: the exact SCC fold
    (["spectral", "spectral_inf_between_components.json"],
     "spectral_inf_between_components.out"),
    # +inf inside a component: a certified infinite radius, printed as null
    (["spectral", "spectral_inf_in_component.json"],
     "spectral_inf_in_component.out"),
    # -inf inside a component, before a +inf in another one in row-major
    # order: the uncertified substitution-grid estimate
    (["spectral", "spectral_neg_inf_in_component.json"],
     "spectral_neg_inf_in_component.out"),
]


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=[g[1] for g in GOLDEN])
def test_cli_output_is_byte_identical(argv, expected):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    proc = subprocess.run([sys.executable, "-m", "fproot.cli"] + argv,
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA / expected).read_bytes()


def test_fp_scan_truncated_at_repeated_draw_is_byte_identical():
    """A scan whose candidate list is full when a later brick, new up to
    isomorphism, is refused: exit 3 and the same partial report."""
    argv = ["fp-scan", str(DATA / "sqrt2_algebra.json"), "--budget-dim", "3",
            "--seed", "3", "--max-candidates", "7"]
    proc = subprocess.run([sys.executable, "-m", "fproot.cli"] + argv,
                          capture_output=True)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == (DATA / "sqrt2_fp_scan_dim3_seed3_max7.out").read_bytes()
