import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from superprolong.scalars import Scalar
from superprolong.superspace import EVEN, ODD
from superprolong.cli import read_ode
from superprolong.liesuper import validate
from superprolong.oddode import (
    ContactField,
    GeneratingFunction,
    JetContext,
    JetFunction,
    OdeSpec,
    contact_vf,
    determine_symmetries,
    lagrange_bracket,
    parse_jet,
    prolong_field,
)

from oracles import contact_form_preserved, iota_sigma, prolong_field_direct, restrict

CTX = JetContext(1)


def jf(text):
    if text == "exp(x)":
        return JetFunction(CTX, {((0,), Fraction(1), ()): Scalar(1)})
    return parse_jet(CTX, text)


def test_contact_vf_examples():
    assert contact_vf(jf("xi1")).to_str() == "-@x"
    assert contact_vf(jf("x")).to_str() == "x*@xi+@xi1"
    assert not contact_vf(jf("0"))
    assert contact_vf(jf("1")).to_str() == "@xi"


def test_contact_vf_parity():
    assert contact_vf(jf("xi")).parity == EVEN
    assert contact_vf(jf("x")).parity == ODD


def test_prolongation_table_rows():
    assert (
        prolong_field(jf("x*xi - x^2*xi1"), 2).to_str()
        == "x^2*@x+x*xi*@xi+(xi-x*xi1)*@xi1-3*x*xi2*@xi2"
    )
    assert (
        prolong_field(jf("xi*xi1"), 3).to_str()
        == "-xi*@x+xi1*xi2*@xi2+2*xi1*xi3*@xi3"
    )
    assert (
        prolong_field(jf("x*xi*xi1"), 2).to_str()
        == "-x*xi*@x+xi*xi1*@xi1+(2*xi*xi2+x*xi1*xi2)*@xi2"
    )
    assert prolong_field(jf("1"), 5).to_str() == "@xi"


_SAMPLES = ["x*xi", "xi*xi1", "x^2*xi1", "x", "1", "x*xi*xi1", "xi1"]


def assert_same_field(got, want):
    assert got.parity == want.parity
    assert got.coeffs == want.coeffs
    assert got.to_str() == want.to_str()


def test_prolongation_restriction_consistency():
    for text in _SAMPLES:
        f = jf(text)
        for r in (2, 3, 4):
            full = prolong_field(f, r)
            down = prolong_field(f, r - 1)
            assert not (restrict(full, r - 1) - down).coeffs, (text, r)
            assert_same_field(full, prolong_field_direct(f, r))
            assert_same_field(down, prolong_field_direct(f, r - 1))


# the ansatz monomials c(x) * {1, xi, xi', xi xi'} with exponentials, the
# samples above and one function on the jet space of two variables
_POOL = [
    JetFunction(CTX, {((k,), lam, mono): Scalar(1)})
    for mono in [(), ((),), ((1,),), ((), (1,))]
    for k in (0, 2)
    for lam in (0, 1, Fraction(-1, 2))
] + [jf(text) for text in _SAMPLES] + [parse_jet(JetContext(2), "x1*xi*xi_2 + x2^2")]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(calls=st.lists(
    st.tuples(st.integers(0, len(_POOL) - 1), st.integers(1, 8)),
    min_size=1, max_size=10,
))
def test_the_jet_chain_memo_matches_the_direct_prolongation(calls):
    # whatever order the memo is filled in, each field is the one the
    # direct loop builds from scratch
    from superprolong import oddode

    oddode._jet_chains.clear()
    for index, r in calls:
        f = _POOL[index]
        assert_same_field(prolong_field(f, r), prolong_field_direct(f, r))


def test_a_chain_is_kept_from_the_second_prolongation_up_to_the_kept_order():
    from superprolong import oddode

    top = oddode._KEPT_ORDER
    f = JetFunction(CTX, {((3,), 1, ((), (1,))): Scalar(1)})  # x^3 e^x xi xi1
    key = (1, frozenset(f.terms.items()))
    oddode._jet_chains.clear()
    for r in (top + 3, top + 1, top - 2, top + 2):
        assert_same_field(prolong_field(f, r), prolong_field_direct(f, r))
        if r == top + 3:
            assert oddode._jet_chains == {key: None}
    chain = oddode._jet_chains[key]
    assert len(chain.levels) == top
    assert {len(I) for I in chain.top} == {top}


def test_one_solve_keeps_no_chain_and_the_memo_stays_bounded(monkeypatch):
    # a single solve prolongs each ansatz function once; past _KEPT_CHAINS
    # functions the least recently used are dropped
    from superprolong import oddode

    spec = OdeSpec(oddode._KEPT_ORDER + 2, "0", poly_degree=40)
    monkeypatch.setattr(oddode, "prolong_field", prolong_field_direct)
    want = determine_symmetries(spec).to_json()
    monkeypatch.undo()
    oddode._jet_chains.clear()
    assert determine_symmetries(spec).to_json() == want
    assert len(oddode._jet_chains) == oddode._KEPT_CHAINS
    assert set(oddode._jet_chains.values()) == {None}
    small = OdeSpec(3, "0", poly_degree=3)
    oddode._jet_chains.clear()
    determine_symmetries(small)
    assert set(oddode._jet_chains.values()) == {None}
    determine_symmetries(small)
    assert None not in oddode._jet_chains.values()


def test_a_refused_call_leaves_no_memo_entry():
    from superprolong import oddode

    oddode._jet_chains.clear()
    with pytest.raises(ValueError, match="generating superfunctions live on J"):
        prolong_field(jf("xi2"), 3)
    with pytest.raises(ValueError, match="prolongation order must be >= 1"):
        prolong_field(jf("xi"), 0)
    assert not oddode._jet_chains


_SUITE_SPECS = [(2, "0", 3), (3, "0", 3), (3, "xi2", 2), (3, "xi*xi1*xi2", 2)]


def test_a_third_round_of_solves_reuses_every_chain(monkeypatch):
    # the four odd-ODE solves of the paper suite against the direct
    # prolongation of every call: the second round keeps a chain for each
    # generating function, which the third reads
    from superprolong import oddode

    def solve_all():
        return [
            determine_symmetries(OdeSpec(n, rhs, poly_degree=d)).to_json()
            for n, rhs, d in _SUITE_SPECS
        ]

    monkeypatch.setattr(oddode, "prolong_field", prolong_field_direct)
    want = solve_all()
    monkeypatch.undo()
    full = []
    total_derivative = JetFunction._total_derivative
    monkeypatch.setattr(
        JetFunction, "_total_derivative",
        lambda g, i, below: (below is None and full.append(i))
        or total_derivative(g, i, below),
    )
    oddode._jet_chains.clear()
    for _ in range(2):
        del full[:]
        assert solve_all() == want
        assert full
    assert None not in oddode._jet_chains.values()
    del full[:]
    assert solve_all() == want
    assert not full


def test_lagrange_bracket_table_entries():
    assert lagrange_bracket(jf("1"), jf("xi")).to_str() == "1"
    assert lagrange_bracket(jf("xi1"), jf("x")).to_str() == "-1"
    h = jf("3 + x*xi*xi1")
    assert lagrange_bracket(jf("xi*xi1"), h).to_str() == "3*xi1"
    assert lagrange_bracket(h, h).to_str() == "6*x*xi1"


def rand_gen_function(rng):
    mono = rng.choice([(), ((),), ((1,),), ((), (1,))])
    k = rng.randint(0, 3)
    lam = rng.choice([Fraction(0), Fraction(0), Fraction(1), Fraction(-2)])
    c = rng.randint(-3, 3) or 1
    return JetFunction(CTX, {((k,), lam, mono): Scalar(c)})


def test_bracket_represents_field_bracket():
    rng = random.Random(21)
    for _ in range(40):
        f, g = rand_gen_function(rng), rand_gen_function(rng)
        Sf, Sg = contact_vf(f), contact_vf(g)
        left = Sf.bracket(Sg)
        right = contact_vf(lagrange_bracket(f, g))
        assert not (left - right).coeffs, (f.to_str(), g.to_str())


def test_sigma_contraction_and_invariance():
    rng = random.Random(22)
    for _ in range(30):
        f = rand_gen_function(rng)
        S = contact_vf(f)
        assert not (iota_sigma(S) - f).terms
        assert contact_form_preserved(S)


def test_bracket_super_antisymmetry_on_fields():
    rng = random.Random(23)
    for _ in range(30):
        f, g = rand_gen_function(rng), rand_gen_function(rng)
        br1 = lagrange_bracket(f, g)
        br2 = lagrange_bracket(g, f)
        pf, pg = (f.parity() + 1) % 2, (g.parity() + 1) % 2
        sgn = 1 if (pf and pg) else -1
        assert not (br1 - br2.scale(sgn)).terms


def expect_span(result, texts):
    from superprolong.oddode import _span_coefficients

    coefficients = _span_coefficients(result.generators)
    for t in texts:
        assert coefficients(jf(t)) is not None, t
    assert len(result.generators) == len(texts)


def test_trivial_second_order():
    res = determine_symmetries(OdeSpec(2, "0", poly_degree=3))
    assert res.superdim == (4, 4)
    assert res.certified_complete
    expect_span(
        res,
        ["x*xi - x^2*xi1", "x*xi1", "xi", "xi1", "x*xi*xi1", "xi1*xi", "x", "1"],
    )
    gradings = {g.to_str(): g.grading for g in res.generators}
    assert gradings["xi1"] == -1
    assert gradings["1"] == -2
    assert gradings["x*xi-x^2*xi1"] == 1
    assert gradings["x*xi*xi1"] == 2
    assert validate(res.algebra) == []


def test_trivial_third_order():
    res = determine_symmetries(OdeSpec(3, "0", poly_degree=3))
    assert res.superdim == (4, 4)
    assert res.certified_complete
    expect_span(
        res,
        ["x*xi - 1/2*x^2*xi1", "x*xi1", "xi", "xi1", "xi*xi1", "x^2", "x", "1"],
    )
    gradings = {g.to_str(): g.grading for g in res.generators}
    assert gradings["1"] == -3
    assert gradings["x"] == -2
    assert gradings["xi*xi1"] == 2


def test_exponential_equation():
    res = determine_symmetries(OdeSpec(3, "xi2", poly_degree=2))
    assert res.superdim == (2, 3)
    assert not res.certified_complete
    expect_span(res, ["xi1", "xi", "1", "x", "exp(x)"])
    # bracket table entry-for-entry against the printed table, in the
    # printed generator order (xi1, xi | 1, x, exp(x))
    order = ["xi1", "xi", "1", "x", "exp(x)"]
    printed = {
        ("xi1", "x"): "-1",
        ("xi1", "exp(x)"): "-exp(x)",
        ("xi", "1"): "-1",
        ("xi", "x"): "-x",
        ("xi", "exp(x)"): "-exp(x)",
        ("1", "xi"): "1",
        ("x", "xi1"): "1",
        ("x", "xi"): "x",
        ("exp(x)", "xi1"): "exp(x)",
        ("exp(x)", "xi"): "exp(x)",
    }
    for a in order:
        for b in order:
            got = lagrange_bracket(jf(a), jf(b)).to_str()
            assert got == printed.get((a, b), "0"), (a, b, got)


def test_relative_invariant_equation():
    res = determine_symmetries(OdeSpec(3, "xi*xi1*xi2", poly_degree=2))
    assert res.superdim == (2, 2)
    assert not res.certified_complete
    expect_span(res, ["xi1", "x*xi1", "xi*xi1", "3 + x*xi*xi1"])
    order = ["xi1", "x*xi1", "xi*xi1", "3 + x*xi*xi1"]
    printed = {
        ("xi1", "x*xi1"): "-xi1",
        ("xi1", "3 + x*xi*xi1"): "-xi*xi1",
        ("x*xi1", "xi1"): "xi1",
        ("x*xi1", "xi*xi1"): "xi*xi1",
        ("xi*xi1", "x*xi1"): "-xi*xi1",
        ("xi*xi1", "3 + x*xi*xi1"): "3*xi1",
        ("3 + x*xi*xi1", "xi1"): "xi*xi1",
        ("3 + x*xi*xi1", "xi*xi1"): "3*xi1",
        ("3 + x*xi*xi1", "3 + x*xi*xi1"): "6*x*xi1",
    }
    for a in order:
        for b in order:
            got = lagrange_bracket(jf(a), jf(b)).to_str()
            assert got == printed.get((a, b), "0"), (a, b, got)


def test_both_relative_invariant_examples_below_the_bound():
    for rhs in ("xi2", "xi*xi1*xi2"):
        res = determine_symmetries(OdeSpec(3, rhs, poly_degree=2))
        assert res.bound == (4, 4)
        p, q = res.superdim
        assert p < 4 or q < 4
        assert p <= 4 and q <= 4


def test_trivializability_grid_for_linear_second_order():
    # constant-coefficient F0, F1 with rational characteristic roots: every
    # equation is trivializable and the solver certifies (4|4)
    grid = [
        ("0", "0"),
        ("xi", "0"),          # roots +-1
        ("0", "xi1"),         # roots 0, 1
        ("2*xi", "xi1"),      # roots 2, -1
        ("6*xi", "xi1"),      # roots 3, -2
        ("4*xi", "0"),        # roots +-2
        ("3*xi", "2*xi1"),    # roots 3, -1
    ]
    for f0, f1 in grid:
        rhs = (
            "0"
            if f0 == f1 == "0"
            else f0 if f1 == "0" else f1 if f0 == "0" else "%s + %s" % (f0, f1)
        )
        res = determine_symmetries(OdeSpec(2, rhs, poly_degree=3))
        assert res.superdim == (4, 4), rhs
        assert res.certified_complete, rhs
        assert validate(res.algebra) == [], rhs


def test_rhs_must_be_odd_and_low_order():
    with pytest.raises(ValueError):
        OdeSpec(2, "x")
    with pytest.raises(ValueError):
        OdeSpec(2, "xi2")


@pytest.mark.parametrize("rhs", [2, 2.5, None, {"xi2": 1}])
def test_rhs_must_be_a_string_or_a_jet_function(rhs):
    with pytest.raises(ValueError, match="right-hand side must be a string"):
        OdeSpec(3, rhs)
    with pytest.raises(ValueError, match="^rhs: expected a string, got "):
        read_ode({"order": 3, "rhs": rhs})
    # a JetFunction is taken as it is
    assert OdeSpec(3, parse_jet(CTX, "xi2")).rhs.to_str() == "xi2"


def test_json_round_trip():
    spec = read_ode(
        {"order": 3, "rhs": "xi2", "basis": {"poly_degree": 2, "exponentials": []}}
    )
    res = determine_symmetries(spec)
    data = res.to_json()
    assert data["superdim"] == {"even": 2, "odd": 3}
    assert data["prolongation_bound"] == {"even": 4, "odd": 4}
    assert any(g["f"] == "exp(x)" for g in data["generators"])


_GOLDEN = json.loads((Path(__file__).parent / "data" / "odesym_golden.json").read_text())


@pytest.mark.parametrize(
    "case", _GOLDEN,
    ids=["%(order)d:%(rhs)s" % c + "".join(
        ":%s=%s" % (k, c[k]) for k in ("poly_degree", "exponentials") if k in c
    ) for c in _GOLDEN],
)
def test_symmetry_results_match_the_golden_outputs(case):
    spec = OdeSpec(
        case["order"], case["rhs"], poly_degree=case.get("poly_degree", 4),
        exponentials=case.get("exponentials", ()),
    )
    got = json.dumps(determine_symmetries(spec).to_json(), sort_keys=True)
    assert got == json.dumps(case["result"], sort_keys=True)


_NOT_RATIONAL = 'basis.exponentials[0]: number %r is neither an integer nor a "p/q" string'


@pytest.mark.parametrize(
    "data, message",
    [
        ({"order": 3.7}, "order: expected an integer, got 3.7"),
        ({"order": 3.0}, "order: expected an integer, got 3.0"),
        ({"order": True}, "order: expected an integer, got true"),
        ({"order": "3"}, 'order: expected an integer, got "3"'),
        ({"basis": {"poly_degree": 2.5}}, "basis.poly_degree: expected an integer, got 2.5"),
        ({"basis": {"poly_degree": False}},
         "basis.poly_degree: expected an integer, got false"),
        ({"basis": {"poly_degree": "2"}}, 'basis.poly_degree: expected an integer, got "2"'),
        ({"basis": {"exponentials": [0.1]}}, _NOT_RATIONAL % 0.1),
        ({"basis": {"exponentials": [True]}}, _NOT_RATIONAL % True),
        ({"basis": {"exponentials": ["0.5"]}}, _NOT_RATIONAL % "0.5"),
        ({"basis": {"exponentials": ["1+1*i"]}}, _NOT_RATIONAL % "1+1*i"),
        ({"basis": {"exponentials": 0.5}},
         "basis.exponentials: expected an array, got 0.5"),
    ],
    ids=["order-float", "order-integral-float", "order-bool", "order-string",
         "degree-float", "degree-bool", "degree-string", "exp-float",
         "exp-bool", "exp-decimal-string", "exp-gaussian", "exp-not-a-list"],
)
def test_ode_json_numbers_must_be_exact(data, message):
    with pytest.raises(ValueError) as err:
        read_ode({"order": 3, "rhs": "xi2", **data})
    assert str(err.value) == message


def test_exponentials_are_read_once_as_exact_rationals():
    want = [Fraction(1, 2), Fraction(1), Fraction(-3)]
    spec = read_ode(
        {"order": 3, "rhs": "xi2", "basis": {"exponentials": ["1/2", 1, "-3"]}}
    )
    assert spec.exponentials == want
    assert OdeSpec(3, "xi2", exponentials=[Fraction(1, 2), "1", -3]).exponentials == want


def test_closure_adopts_the_bracket_the_ansatz_missed():
    # poly_degree 1 has no x^2 coefficient, so the generator with x^2*xi1
    # can only come from a bracket of two found generators
    res = determine_symmetries(OdeSpec(2, "0", poly_degree=1))
    assert res.superdim == (4, 4)
    assert res.certified_complete
    assert res.warnings == [
        "closure adopted a bracket outside the ansatz span: -x*xi+x^2*xi1"
    ]
    res = determine_symmetries(OdeSpec(4, "0", poly_degree=2))
    assert res.superdim == (4, 4)
    assert res.certified_complete
    assert res.warnings == [
        "closure adopted a bracket outside the ansatz span: 1/3*x^3"
    ]


@pytest.mark.parametrize(
    "order, rhs, degree",
    [(2, "0", 1), (4, "0", 2), (3, "xi2", 2), (3, "xi*xi1*xi2", 2), (5, "xi4", 4)],
)
def test_bracket_table_is_every_lagrange_bracket(order, rhs, degree):
    res = determine_symmetries(OdeSpec(order, rhs, poly_degree=degree))
    gens = res.generators
    assert len(res.bracket_table) == len(gens)
    for a, g in enumerate(gens):
        assert len(res.bracket_table[a]) == len(gens)
        for b, h in enumerate(gens):
            want = lagrange_bracket(g.fn, h.fn).to_str()
            assert res.bracket_table[a][b] == want, (a, b)


@pytest.mark.parametrize(
    "order, rhs, degree", [(2, "0", 3), (3, "xi2", 2), (2, "0", 1), (5, "0", 2)]
)
def test_each_unordered_pair_is_bracketed_once(order, rhs, degree, monkeypatch):
    # with or without adoptions, the closure scans bracket n(n+1)/2 pairs
    # and the table reuses them
    from superprolong import oddode

    calls = []
    monkeypatch.setattr(
        oddode, "lagrange_bracket",
        lambda f, g: calls.append(1) or lagrange_bracket(f, g),
    )
    n = len(determine_symmetries(OdeSpec(order, rhs, poly_degree=degree)).generators)
    assert len(calls) == n * (n + 1) // 2


def test_the_tanaka_bound_is_prolonged_once_per_order(monkeypatch):
    from superprolong import oddode
    from superprolong.prolong import prolong

    specs = [OdeSpec(3, "0", poly_degree=3), OdeSpec(3, "xi2", poly_degree=2),
             OdeSpec(3, "xi*xi1*xi2", poly_degree=2)]
    # uncached: every solve prolongs the symbol again
    monkeypatch.setattr(oddode, "_tanaka_bound", oddode._tanaka_bound.__wrapped__)
    want = [determine_symmetries(spec).to_json() for spec in specs]
    monkeypatch.undo()
    calls = []
    monkeypatch.setattr(
        oddode, "prolong", lambda *a, **kw: calls.append(a) or prolong(*a, **kw)
    )
    oddode._tanaka_bound.cache_clear()
    assert [determine_symmetries(spec).to_json() for spec in specs] == want
    assert len(calls) == 1


def test_a_result_without_a_bound_writes_a_null_bound(monkeypatch, capsys):
    from superprolong import cli, oddode

    # pr(symbol, scalings) did not stabilize: no bound, nothing certified
    monkeypatch.setattr(oddode, "_tanaka_bound", lambda n: None)
    res = determine_symmetries(OdeSpec(2, "0", poly_degree=3))
    assert res.bound is None
    assert res.certified_complete is False
    data = json.loads(json.dumps(res.to_json()))
    assert data["prolongation_bound"] is None
    assert data["certified_complete"] is False
    with pytest.raises(SystemExit) as exc:
        cli.main(["odesym", "--order", "2", "--rhs", "0", "--poly-degree", "3",
                  "--format", "json"])
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out)["prolongation_bound"] is None


def test_closure_errors(monkeypatch):
    from superprolong import oddode

    # a bracket that is not a symmetry fails the tangency check
    monkeypatch.setattr(oddode, "lagrange_bracket", lambda f, g: jf("x^7*xi"))
    with pytest.raises(AssertionError, match="failed tangency"):
        determine_symmetries(OdeSpec(2, "0", poly_degree=3))
    monkeypatch.undo()
    # a span that never holds a nonzero bracket: the eight generators
    # already reach the bound (4|4), so no adoption fits
    monkeypatch.setattr(
        oddode, "_span_coefficients", lambda gens: lambda f: None if f else {}
    )
    with pytest.raises(AssertionError, match="leaves the closed solution span"):
        determine_symmetries(OdeSpec(2, "0", poly_degree=3))
    # without a stabilized bound it stops after _ADOPTION_LIMIT adoptions
    monkeypatch.setattr(oddode, "_tanaka_bound", lambda n: None)
    with pytest.raises(
        AssertionError,
        match=r"leaves the closed solution span after %d adoptions$"
        % oddode._ADOPTION_LIMIT,
    ):
        determine_symmetries(OdeSpec(2, "0", poly_degree=3))


def test_an_adoption_past_the_bound_names_the_pair(monkeypatch):
    from superprolong import oddode

    # poly_degree 1 finds 7 generators and the closure adopts
    # [x, x*xi*xi1] = -x*xi+x^2*xi1 as the eighth; a bound of (4|3) leaves
    # no room for it
    tanaka_bound = oddode._tanaka_bound

    def low_bound(n):
        assert tanaka_bound(n) == (4, 4)
        return (4, 3)

    monkeypatch.setattr(oddode, "_tanaka_bound", low_bound)
    with pytest.raises(AssertionError) as exc:
        determine_symmetries(OdeSpec(2, "0", poly_degree=1))
    assert str(exc.value) == (
        "bracket [x, x*xi*xi1] leaves the closed solution span of 7 "
        "symmetries, past the bound dim pr(m, g0) = (4|3)"
    )
