"""Acceptance battery: the headline results, one test per criterion.

All comparisons are exact (the arithmetic is over Q or Q(i)); there are no
tolerances to calibrate.  Each test prints a PASS line so the battery reads
as a checklist under pytest -s.
"""

import random
import time

import pytest

from superprolong.scalars import Scalar
from superprolong.superspace import EVEN, ODD
from superprolong import catalog
from superprolong.catalog import (
    abelian,
    cpe,
    gl,
    odd_ode_scalings,
    odd_ode_symbol,
    osp,
    shc_symbol,
    spe_ab,
    spo,
    supertranslation,
)
from superprolong.liesuper import SymbolAlgebra, validate
from superprolong.prolong import projective_trace_reduction, prolong
from superprolong.spencer import (
    CochainSlice,
    cohomology_dims,
    reduced_differential_check,
)
from superprolong.superfield import (
    bracket_fields,
    check_strong_regularity,
    derived_flag,
    extract_symbol,
    left_invariant_distribution,
    symbols_isomorphic_on_the_nose,
)
from superprolong.oddode import (
    OdeSpec,
    contact_vf,
    determine_symmetries,
    lagrange_bracket,
    parse_jet,
    _span_coefficients,
)
from superprolong.linalg import rank_rows

from conftest import delta_squared_rows, g0_of


def ok(msg):
    print("PASS  %s" % msg)


def test_criterion_1_shc_total_dimension():
    t0 = time.time()
    res = prolong(SymbolAlgebra(shc_symbol()))
    elapsed = time.time() - t0
    assert res.status == "stabilized"
    assert res.total_superdim == (17, 14)
    assert elapsed < 60
    ok("criterion 1: pr(shc_symbol) stabilizes at (17|14) in %.1fs" % elapsed)


def test_criterion_2_odd_ode_prolongations():
    res = prolong(SymbolAlgebra(odd_ode_symbol(2)), g0=odd_ode_scalings(2))
    assert res.total_superdim == (4, 4)
    assert res.component_superdim(1) == (1, 1)
    assert res.component_superdim(2) == (0, 1)
    res = prolong(SymbolAlgebra(odd_ode_symbol(3)), g0=odd_ode_scalings(3))
    assert res.component_superdim(1) == (1, 0)
    assert res.component_superdim(2) == (0, 1)
    assert res.component_superdim(3) == (0, 0)
    ok("criterion 2: odd-ODE prolongations (4|4) with the stated gradings")


def test_criterion_3_spencer_vanishing_and_complex_property():
    g = catalog.build_named("sl_graded:2|1")
    for d in (1, 2):
        assert cohomology_dims(d, 1, g) == (0, 0)
    res = prolong(
        SymbolAlgebra(abelian(2, 1)),
        g0=g0_of(gl(2, 1)),
        reductions=[(1, projective_trace_reduction)],
    )
    assert cohomology_dims(2, 1, res.algebra) == (0, 0)
    # delta^2 = 0 at every computed bidegree of both coefficient algebras
    for coeffs in (g, res.algebra):
        degs = [b.degree for b in coeffs.space]
        mu = max(-d for d in degs if d < 0)
        for d in range(min(degs) + 2, max(degs) + 2 * mu + 1):
            for k in (0, 1, 2):
                assert not delta_squared_rows(coeffs, d, k)[0], (d, k)
    ok("criterion 3: H^{d,1} vanishing (sl(2|1), projective) and delta^2 = 0")


def test_criterion_4_periplectic_family():
    V = SymbolAlgebra(abelian(2, 2))
    res = prolong(V, g0=g0_of(cpe(2)))
    assert res.status == "stabilized"
    assert res.total_superdim == (9, 9)  # = dim pe(3)
    res = prolong(V, g0=g0_of(spe_ab(2, 1, 2)))
    assert res.status == "stabilized"
    assert res.total_superdim == (8, 9)  # = dim spe(3)
    res = prolong(
        V, g0=g0_of(cpe(2, skew=True)), max_degree=5, validate_result=False
    )
    assert res.status == "truncated"
    for k in range(1, 6):
        assert res.component_superdim(k)[1] >= 1
    ok("criterion 4: cpe(2) -> (9|9), spe_{1,2}(2) -> (8|9), skew growth")


def test_criterion_5_holonomic_classics():
    for (m, tn) in [(2, 2), (3, 2), (4, 4)]:
        res = prolong(
            SymbolAlgebra(abelian(m, tn)), g0=g0_of(osp(m, tn)),
            validate_result=False,
        )
        assert res.component_superdim(1) == (0, 0), (m, tn)
    for n in (2, 3):
        res = prolong(SymbolAlgebra(abelian(0, n)), g0=g0_of(spo(0, n)))
        t = res.total_superdim
        assert t[0] + t[1] == 2 ** n - 1, n
    for (p, q) in [(2, 1), (1, 2), (2, 2)]:
        res = prolong(
            SymbolAlgebra(abelian(p, q)),
            g0=g0_of(gl(p, q)),
            reductions=[(1, projective_trace_reduction)],
        )
        assert res.component_superdim(2) == (0, 0), (p, q)
    ok("criterion 5: osp first prolongations, spo totals, projective g2 = 0")


def test_criterion_6_super_poincare():
    res = prolong(SymbolAlgebra(supertranslation(1)))
    assert res.status == "stabilized"
    assert res.total_superdim == (10, 4)  # matches osp(1|4)
    res = prolong(SymbolAlgebra(supertranslation(2)))
    assert res.status == "stabilized"
    assert res.total_superdim == (11, 8)  # matches osp(2|4)
    ok("criterion 6: supertranslation N=1 -> (10|4), N=2 -> (11|8)")


@pytest.mark.parametrize("N", [3, 4])
def test_supertranslation_prolongs_to_osp_n_4(N):
    # pr(supertranslation(N)) is osp(N|4), the 3D N-extended superconformal
    # algebra (Nahm 1978; Altomani and Santi 2014): (10 + N(N-1)/2 | 4N),
    # with g_0 = (4 + N(N-1)/2 | 0), g_{+-1} = (0 | 2N), g_{+-2} = (3 | 0)
    res = prolong(SymbolAlgebra(supertranslation(N)))
    so = N * (N - 1) // 2
    assert res.status == "stabilized"
    assert res.total_superdim == (10 + so, 4 * N)
    assert res.per_degree() == {
        -2: (3, 0), -1: (0, 2 * N), 0: (4 + so, 0), 1: (0, 2 * N), 2: (3, 0),
        3: (0, 0),
    }
    ok("supertranslation N=%d -> (%d|%d), osp(%d|4)" % ((N,) + res.total_superdim + (N,)))


def test_criterion_7_regularity_diagnosis():
    from superprolong.papersuite import nonregular_hc_extension

    flag = derived_flag(nonregular_hc_extension())
    rep = check_strong_regularity(flag)
    assert not rep["ok"]
    assert any("theta*@u" in w for w in rep["witnesses"])
    m = SymbolAlgebra(shc_symbol())
    flag = derived_flag(left_invariant_distribution(m))
    rep = check_strong_regularity(flag)
    assert rep["ok"]
    sym = extract_symbol(flag, rep)
    assert symbols_isomorphic_on_the_nose(sym, m)
    ok("criterion 7: non-regular witness theta*du; SHC model symbol identical")


def test_criterion_8_symmetry_tables():
    ctx_gen = lambda t: parse_jet(spec.ctx, t)

    spec = OdeSpec(2, "0", poly_degree=3)
    res = determine_symmetries(spec)
    assert res.superdim == (4, 4) and res.certified_complete
    coefficients = _span_coefficients(res.generators)
    for t in ["x*xi - x^2*xi1", "x*xi1", "xi", "xi1",
              "x*xi*xi1", "xi1*xi", "x", "1"]:
        assert coefficients(ctx_gen(t)) is not None, t

    spec = OdeSpec(3, "0", poly_degree=3)
    res = determine_symmetries(spec)
    assert res.superdim == (4, 4) and res.certified_complete

    spec = OdeSpec(3, "xi2", poly_degree=2)
    res = determine_symmetries(spec)
    assert res.superdim == (2, 3)
    exp_x = [g for g in res.generators if g.to_str() == "exp(x)"]
    assert exp_x
    from fractions import Fraction
    from superprolong.oddode import JetFunction

    gens = {
        "xi1": ctx_gen("xi1"), "xi": ctx_gen("xi"), "1": ctx_gen("1"),
        "x": ctx_gen("x"),
        "exp(x)": JetFunction(spec.ctx, {((0,), Fraction(1), ()): Scalar(1)}),
    }
    printed = {
        ("xi1", "x"): "-1", ("xi1", "exp(x)"): "-exp(x)",
        ("xi", "1"): "-1", ("xi", "x"): "-x", ("xi", "exp(x)"): "-exp(x)",
        ("1", "xi"): "1", ("x", "xi1"): "1", ("x", "xi"): "x",
        ("exp(x)", "xi1"): "exp(x)", ("exp(x)", "xi"): "exp(x)",
    }
    for a in gens:
        for b in gens:
            assert lagrange_bracket(gens[a], gens[b]).to_str() == printed.get(
                (a, b), "0"
            ), (a, b)

    spec = OdeSpec(3, "xi*xi1*xi2", poly_degree=2)
    res = determine_symmetries(spec)
    assert res.superdim == (2, 2)
    h = ctx_gen("3 + x*xi*xi1")
    gens = {
        "xi1": ctx_gen("xi1"), "x*xi1": ctx_gen("x*xi1"),
        "xi*xi1": ctx_gen("xi*xi1"), "h": h,
    }
    printed = {
        ("xi1", "x*xi1"): "-xi1", ("xi1", "h"): "-xi*xi1",
        ("x*xi1", "xi1"): "xi1", ("x*xi1", "xi*xi1"): "xi*xi1",
        ("xi*xi1", "x*xi1"): "-xi*xi1", ("xi*xi1", "h"): "3*xi1",
        ("h", "xi1"): "xi*xi1", ("h", "xi*xi1"): "3*xi1", ("h", "h"): "6*x*xi1",
    }
    for a in gens:
        for b in gens:
            assert lagrange_bracket(gens[a], gens[b]).to_str() == printed.get(
                (a, b), "0"
            ), (a, b)
    ok("criterion 8: all four symmetry tables and both bracket tables, exact")


def test_criterion_9_property_suites():
    # validate() empty on every catalog build
    for name in [
        "gl:2|1", "sl:2|1", "osp:2|2", "spo:0|3", "pe:2", "spe:2", "cpe:2",
        "spe_ab:2:1:2", "pe_sk:2", "heisenberg_contact:2|2", "shc_symbol",
        "odd_ode_symbol:3", "supertranslation:1", "abelian:2|2",
    ]:
        assert validate(catalog.build_named(name)) == [], name

    # super Jacobi for bracket_fields on random homogeneous triples
    from superprolong.superfield import Ambient
    from test_superfield import rand_field

    amb = Ambient(["x1", "x2"], ["t1", "t2"], degree_cap=12)
    rng = random.Random(42)
    for _ in range(10):
        X, Y, Z = (rand_field(amb, rng) for _ in range(3))
        lhs = bracket_fields(X, bracket_fields(Y, Z))
        r1 = bracket_fields(bracket_fields(X, Y), Z)
        r2 = bracket_fields(Y, bracket_fields(X, Z))
        sgn = -1 if (X.parity and Y.parity) else 1
        rhs = r1 + (r2 if sgn == 1 else -r2)
        assert not (lhs - rhs).coeffs

    # [S_f, S_g] = S_{[f,g]} randomized
    from test_oddode import rand_gen_function

    rng = random.Random(4242)
    for _ in range(15):
        f, g = rand_gen_function(rng), rand_gen_function(rng)
        assert not (
            contact_vf(f).bracket(contact_vf(g))
            - contact_vf(lagrange_bracket(f, g))
        ).coeffs

    # reduced-differential lemma on SHC and odd-ODE prolongation data
    shc_res = prolong(SymbolAlgebra(shc_symbol()))
    assert reduced_differential_check(shc_res.m, shc_res.algebra)["ok"]
    ode_res = prolong(SymbolAlgebra(odd_ode_symbol(3)), g0=odd_ode_scalings(3))
    assert reduced_differential_check(ode_res.m, ode_res.algebra)["ok"]

    # prolong-vs-spencer dimension cross-check on the acceptance examples
    for res in (shc_res, ode_res):
        top = max(res.engine.comp)
        for i in range(1, top + 1):
            sl = CochainSlice(res.algebra, i, 1)
            ker = len(sl.basis) - rank_rows(sl.matrix_rows)
            assert ker == sum(res.component_superdim(i)), i
    ok("criterion 9: validators, field Jacobi, S_[f,g], reduced lemma, cross-check")
