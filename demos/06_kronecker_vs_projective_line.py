# Kronecker modules against the projective-line tables.
#
# The derived category of Kronecker modules is equivalent to that of the
# projective line, so the module-level scan must reach the closed-form value
# 1 while the bare quiver invariant stays at 0: the fp dimension of the
# category sees strictly more than the fp dimension of the quiver.

from fproot import (FpBudgets, cross_check_kronecker, ext_assignment,
                    fp_report, kronecker_algebra, kronecker_brick_catalogue,
                    kronecker_quiver, p1_serre_surface, quiver_fpdim)

alg = kronecker_algebra()
cat = kronecker_brick_catalogue(alg, max_total_dim=6, lambda_count=8)
print("bricks within total dimension 6:")
for m in cat:
    print(f"  {m.name:10s} dimvec {m.dimvec}")

report = fp_report(cat, ext_assignment(alg),
                   FpBudgets(max_set_size=4, max_power=1,
                             extra={"dim_budget": 6}))
check = cross_check_kronecker(report, quiver_fpdim(kronecker_quiver()).value)

print()
print("engine values by set size:", check.engine_values)
print("closed-form value at (1,0):", check.surface_value)
print("quiver fp dimension:       ", check.quiver_value)
print("engine agrees with table:  ", check.agrees)
print("strict quiver gap:         ", check.strict_gap)

print()
print("a slice of the Serre table, fp(a, b) for a in -2..2, b = 0:")
for a in range(-2, 3):
    print(f"  fp({a}, 0) = {p1_serre_surface(a, 0)}")
