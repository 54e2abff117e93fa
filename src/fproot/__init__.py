"""Frobenius-Perron invariants of quivers, bound quiver algebras and their
module categories.

The layers, bottom to top:

* exactlin  - exact rational linear algebra (the kernel everything sits on)
* spectral  - spectral radii, including entries of +/- infinity
* quiver    - quivers, cycle numbers, Dynkin classification, positive roots
* algebra   - bound quiver algebras kQ/(R) and the fixture algebras
* repmod    - representations: Hom, bricks, minimal resolutions, Ext
* fpcore    - brick sets, fp reports, growth/curvature, complexity
* tables    - closed-form fp tables for the classical examples
* cli       - the fproot command
"""

__version__ = "0.1.0"

from .exactlin import RatMatrix, nullspace_basis, rank, rat, rat_str, rref, solve
from .spectral import (ExtendedMatrix, SpectralValue, characteristic_polynomial,
                       matrix_from_json, rho, rho_block_lower_triangular,
                       rho_extended, rho_nonnegative_via_scc, zplus_fpdim)
from .quiver import (Arrow, CycleNumber, Quiver, adjacency,
                     classify_underlying_graph, cycle_number, cycle_quiver,
                     dynkin_quiver, extended_dynkin_quiver,
                     fpdim_trichotomy_check, is_acyclic, kronecker_quiver, path_quiver,
                     positive_roots, quiver_fpdim, quiver_from_json,
                     quiver_to_dot, quiver_to_json, simple_cycles,
                     underlying_adjacency)
from .algebra import (BoundAlgebra, algebra_from_json, algebra_to_json,
                      build_algebra, dual_numbers_algebra, kronecker_algebra,
                      local_two_loop_algebra, opposite, path_algebra,
                      sqrt2_algebra, sqrt2_quiver)
from .repmod import (HomSpace, Representation, Resolution, direct_sum,
                     dual_representation, dynkin_indecomposables, euler_ext1,
                     euler_form, ext, ext_simple_table, hom, hom_dim, is_brick,
                     is_isomorphic_brick, kronecker_brick_catalogue,
                     lambda_sample, minimal_resolution, module_from_json,
                     module_to_json, preinjective_brick, preprojective_brick,
                     projective, regular_brick, simple, simples,
                     sqrt2_brick_catalogue)
from .fpcore import (Assignment, BrickSet, BrickSetViolation, ExtCalculator,
                     FpBudgets, FpReport, HomTableCategory, adjacency_of,
                     complexity_estimate, dual_numbers_shift_table,
                     ext1_quiver, ext_assignment, fp_report, fpc_vs_cx_check,
                     fpdim_n, genus_matrix, growth_analyze, homtable_fp,
                     shift_assignment, sigma_quiver_bound_check,
                     table_from_difference, verify_brick_set)
from .tables import (a2_surface, cross_check_kronecker, p1_serre_surface,
                     p1_twist_surface, polyring_surface, surface_grid_csv)
