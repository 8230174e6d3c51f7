"""The regression battery: every worked dimension table in one place.

``collect_results`` computes the full set of headline numbers; the CLI
--paper-suite flag diffs them against the checked-in expected JSON
(data/paper_suite_expected.json) and prints one line per item.
"""

from __future__ import annotations

import json
from importlib import resources

from . import catalog
from .liesuper import SymbolAlgebra, validate
from .prolong import prolong, projective_trace_reduction
from .spencer import cohomology_dims, reduced_differential_check
from .superfield import (
    Ambient,
    DistributionSpec,
    check_strong_regularity,
    derived_flag,
    extract_symbol,
    left_invariant_distribution,
    parse_field,
    symbols_isomorphic_on_the_nose,
)
from .oddode import OdeSpec, determine_symmetries


def _g0(alg):
    return [(alg.space[k].parity, alg.rep[k]) for k in range(len(alg.space))]


def _dims(pair):
    return list(pair)


def nonregular_hc_extension():
    """A rank-(2|1) odd extension of the Hilbert-Cartan distribution on
    R^{5|2} whose second derived sheaf is not a distribution."""
    amb = Ambient(["x", "u", "p", "q", "z"], ["theta", "nu"])
    return DistributionSpec(
        amb,
        [
            parse_field(amb, "@x + p*@u + q*@p + q^2*@z", name="Dx"),
            parse_field(amb, "@q", name="Dq"),
            parse_field(
                amb, "@theta + q*@nu + theta*@p + 2*nu*@z", name="Dtheta"
            ),
        ],
    )


def collect_results():
    out = {}

    shc = prolong(SymbolAlgebra(catalog.shc_symbol()))
    out["shc.total"] = _dims(shc.total_superdim)
    out["shc.status"] = shc.status
    out["shc.per_degree"] = {
        str(k): _dims(v) for k, v in shc.per_degree().items()
    }

    for n in (2, 3):
        res = prolong(
            SymbolAlgebra(catalog.odd_ode_symbol(n)),
            g0=catalog.odd_ode_scalings(n),
        )
        out["odd_ode_%d.total" % n] = _dims(res.total_superdim)
        out["odd_ode_%d.per_degree" % n] = {
            str(k): _dims(v) for k, v in res.per_degree().items()
        }

    V22 = SymbolAlgebra(catalog.abelian(2, 2))
    out["cpe2.total"] = _dims(prolong(V22, g0=_g0(catalog.cpe(2))).total_superdim)
    out["spe_1_2.total"] = _dims(
        prolong(V22, g0=_g0(catalog.spe_ab(2, 1, 2))).total_superdim
    )
    res = prolong(
        V22, g0=_g0(catalog.cpe(2, skew=True)), max_degree=5,
        validate_result=False,
    )
    out["skew_cpe2.status"] = res.status
    out["skew_cpe2.odd_dims"] = [
        res.component_superdim(k)[1] for k in range(1, 6)
    ]

    for (m, tn) in [(2, 2), (3, 2), (4, 4)]:
        res = prolong(
            SymbolAlgebra(catalog.abelian(m, tn)),
            g0=_g0(catalog.osp(m, tn)), validate_result=False,
        )
        out["osp_%d_%d.g1" % (m, tn)] = _dims(res.component_superdim(1))

    for n in (2, 3):
        res = prolong(
            SymbolAlgebra(catalog.abelian(0, n)), g0=_g0(catalog.spo(0, n))
        )
        t = res.total_superdim
        out["spo_0_%d.total_sum" % n] = t[0] + t[1]

    for (p, q) in [(2, 1), (1, 2), (2, 2)]:
        res = prolong(
            SymbolAlgebra(catalog.abelian(p, q)),
            g0=_g0(catalog.gl(p, q)),
            reductions=[(1, projective_trace_reduction)],
        )
        out["projective_%d_%d.g2" % (p, q)] = _dims(res.component_superdim(2))
        out["projective_%d_%d.H21" % (p, q)] = _dims(
            cohomology_dims(2, 1, res.algebra)
        )

    for N in (1, 2):
        res = prolong(SymbolAlgebra(catalog.supertranslation(N)))
        out["supertranslation_%d.total" % N] = _dims(res.total_superdim)

    g = catalog.build_named("sl_graded:2|1")
    for d in (1, 2):
        out["sl21.H%d1" % d] = _dims(cohomology_dims(d, 1, g))

    for d in range(0, 4):
        out["shc.H%d1" % d] = _dims(cohomology_dims(d, 1, shc.m, shc.algebra))
    out["shc.reduced_check"] = reduced_differential_check(shc.m, shc.algebra)["ok"]

    flag = derived_flag(nonregular_hc_extension())
    rep = check_strong_regularity(flag)
    out["nonregular_hc.regular"] = rep["ok"]
    out["nonregular_hc.witness_thetadu"] = any(
        "theta*@u" in w for w in rep["witnesses"]
    )

    m = SymbolAlgebra(catalog.shc_symbol())
    flag = derived_flag(left_invariant_distribution(m))
    rep = check_strong_regularity(flag)
    out["shc_model.regular"] = rep["ok"]
    if rep["ok"]:
        out["shc_model.symbol_identical"] = symbols_isomorphic_on_the_nose(
            extract_symbol(flag, rep), m
        )

    for key, order, rhs, deg in [
        ("ode2_trivial", 2, "0", 3),
        ("ode3_trivial", 3, "0", 3),
        ("ode3_exp", 3, "xi2", 2),
        ("ode3_dterm", 3, "xi*xi1*xi2", 2),
    ]:
        sym = determine_symmetries(OdeSpec(order, rhs, poly_degree=deg))
        out["%s.dims" % key] = _dims(sym.superdim)
        out["%s.certified" % key] = sym.certified_complete
        out["%s.validates" % key] = not validate(sym.algebra)
    return out


def expected_results():
    with resources.files("superprolong.data").joinpath(
        "paper_suite_expected.json"
    ).open() as fh:
        return json.load(fh)


def run_suite(verbose=True):
    expected = expected_results()
    actual = collect_results()
    ok = True
    for key in sorted(expected):
        got = actual.get(key)
        want = expected[key]
        good = got == want
        ok = ok and good
        if verbose:
            mark = "PASS" if good else "FAIL"
            extra = "" if good else "  (got %r, want %r)" % (got, want)
            print("%s  %s%s" % (mark, key, extra))
    # a result with no expected value is checked by nothing: that fails too
    for key in sorted(set(actual) - set(expected)):
        ok = False
        if verbose:
            print("FAIL  %s  (got %r, not in the expected file)" % (key, actual[key]))
    return ok
