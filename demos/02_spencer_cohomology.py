"""Generalized Spencer cohomology in action.

H^{d,1}(m, g) = 0 exactly characterizes full prolongation at degree d; the
demo checks the vanishing tables for the sl(2|1) jet grading and for the
(17|14) prolongation of the super Hilbert-Cartan symbol, then exercises the
reduced differential p o delta and its complement N = Z + B.
"""

from superprolong import SymbolAlgebra, build_named, cohomology_dims, prolong
from superprolong.catalog import odd_ode_scalings, odd_ode_symbol, shc_symbol
from superprolong.spencer import CochainSlice, reduced_differential_check
from superprolong.linalg import rank_rows

g = build_named("sl_graded:2|1")
print("sl(2|1) with the jet grading: H^{d,1} for d = 1, 2")
for d in (1, 2):
    print("   H^{%d,1} = (%d|%d)" % (d, *cohomology_dims(d, 1, g)))

res = prolong(SymbolAlgebra(shc_symbol()))
print("\nSHC coefficients g = pr(m) of dimension (%d|%d):" % res.total_superdim)
for d in range(0, 4):
    print("   H^{%d,1}(m, g) = (%d|%d)" % (d, *cohomology_dims(d, 1, res.m, res.algebra)))

# The prolongation engine and the Spencer complex are independent
# implementations of the same linear kernel; their dimensions must agree.
print("\ncross-check: dim ker(delta: C^{i,1} -> C^{i,2}) vs dim g_i")
for i in (1, 2, 3):
    sl = CochainSlice(res.algebra, i, 1)
    ker = len(sl.basis) - rank_rows(sl.matrix_rows)
    print("   i=%d: kernel %d, component %d" % (i, ker, sum(res.component_superdim(i))))

# Reduced differential: same kernels on 1-cochains, injective projection on
# closed 2-cochains, and a concrete normalization complement per degree.
ode = prolong(SymbolAlgebra(odd_ode_symbol(3)), g0=odd_ode_scalings(3))
rep = reduced_differential_check(ode.m, ode.algebra)
print("\nreduced differential on the odd-ODE (4|4) data: ok =", rep["ok"])
for d in sorted(rep["degrees"])[:4]:
    e = rep["degrees"][d]
    print(
        "   d=%d: ker delta %d = ker partial %d, B-part dim %d, Z = %s"
        % (d, e["ker_delta"], e["ker_partial"], e["complement_B_dim"],
           e["complement_Z"] or "[]")
    )
