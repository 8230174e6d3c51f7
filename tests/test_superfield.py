import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from superprolong.scalars import Scalar
from superprolong.superspace import EVEN, ODD
from superprolong.catalog import build_named, odd_ode_symbol, shc_symbol
from superprolong.liesuper import SymbolAlgebra, validate
from superprolong.superfield import (
    Ambient,
    DegreeCapError,
    DistributionSpec,
    SuperPolynomial,
    SuperVectorField,
    _bracket,
    bracket_fields,
    check_strong_regularity,
    derived_flag,
    extract_symbol,
    left_invariant_distribution,
    left_invariant_fields,
    parse_field,
    parse_superfunction,
    symbols_isomorphic_on_the_nose,
)
from superprolong.cli import _read_field
from superprolong.papersuite import nonregular_hc_extension
from superprolong.oddode import JetContext, parse_jet

import oracles


def field_from_json(amb, data):
    """One generator in the coefficient-table form, read as the distribution
    JSON reader reads it."""
    return _read_field(amb, data, "generators[0]")


def example_35():
    amb = Ambient(["x", "u", "p", "q", "z"], ["theta", "nu"])
    return DistributionSpec(
        amb,
        [
            parse_field(amb, "@x + p*@u + q*@p + q^2*@z", name="Dx"),
            parse_field(amb, "@q", name="Dq"),
            parse_field(amb, "@theta + q*@nu + theta*@p + 2*nu*@z", name="Dth"),
        ],
    )


def test_bracket_examples_from_nonregular_distribution():
    dist = example_35()
    Dx, Dq, Dth = dist.generators
    amb = dist.ambient
    assert bracket_fields(Dq, Dx).to_str() == "@p+2*q*@z"
    assert bracket_fields(Dq, Dth).to_str() == "@nu"
    assert bracket_fields(Dx, Dth).to_str() == "-theta*@u"
    assert bracket_fields(Dth, Dth).to_str() == "2*@p+4*q*@z"


def rand_poly(amb, rng, parity):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        xe = tuple(rng.randint(0, 2) for _ in range(amb.m))
        nth = [a for a in range(amb.n) if rng.random() < 0.5]
        if len(nth) % 2 != parity:
            if nth:
                nth.pop()
            else:
                nth = [rng.randrange(amb.n)] if amb.n else []
        if len(nth) % 2 != parity:
            continue
        terms[(xe, tuple(sorted(nth)))] = Scalar(rng.randint(-2, 2))
    return SuperPolynomial(amb, terms)


def rand_field(amb, rng):
    parity = rng.randint(0, 1)
    coeffs = {}
    for d in amb.directions():
        if rng.random() < 0.6:
            want = (parity + amb.direction_parity(d)) % 2
            p = rand_poly(amb, rng, want)
            if p:
                coeffs[d] = p
    return SuperVectorField(amb, parity, coeffs)


def test_super_jacobi_randomized():
    amb = Ambient(["x1", "x2"], ["t1", "t2"], degree_cap=12)
    rng = random.Random(13)
    for _ in range(25):
        X, Y, Z = (rand_field(amb, rng) for _ in range(3))
        lhs = bracket_fields(X, bracket_fields(Y, Z))
        r1 = bracket_fields(bracket_fields(X, Y), Z)
        sgn = -1 if (X.parity and Y.parity) else 1
        r2 = bracket_fields(Y, bracket_fields(X, Z))
        rhs = r1 + (r2 if sgn == 1 else -r2)
        assert not (lhs - rhs).coeffs


# a small chart for the property tests of field application and brackets
SMALL = Ambient(["x", "y"], ["s", "t", "u"], degree_cap=12)


@st.composite
def superfunctions(draw, parity=None):
    """A superfunction on SMALL of even degree <= 2 per variable; of the
    given parity, or of mixed parity when parity is None."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        xe = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        th = tuple(sorted(draw(st.sets(st.integers(0, 2), max_size=3))))
        if parity is None or len(th) % 2 == parity:
            terms[(xe, th)] = Scalar(draw(st.integers(-2, 2)))
    return SuperPolynomial(SMALL, terms)


@st.composite
def vector_fields(draw):
    parity = draw(st.integers(0, 1))
    coeffs = {
        d: draw(superfunctions((parity + SMALL.direction_parity(d)) % 2))
        for d in SMALL.directions()
    }
    return SuperVectorField(SMALL, parity, coeffs)


@settings(max_examples=60, deadline=None)
@given(vector_fields(), superfunctions())
def test_field_application_matches_compositional_oracle(X, f):
    assert X.apply(f) == oracles.apply_field(X, f)


@settings(max_examples=60, deadline=None)
@given(vector_fields(), vector_fields(), superfunctions())
def test_bracket_acts_as_the_supercommutator(X, Y, f):
    # [X, Y](f) = X(Y(f)) - (-1)^{|X||Y|} Y(X(f)) on every test function
    YXf = Y.apply(X.apply(f))
    twisted = -YXf if X.parity and Y.parity else YXf
    assert bracket_fields(X, Y).apply(f) == X.apply(Y.apply(f)) - twisted


@settings(max_examples=60, deadline=None)
@given(vector_fields(), vector_fields())
def test_a_stored_bracket_answers_the_other_order(X, Y):
    # [X, Y] = -(-1)^{|X||Y|} [Y, X]: the flip of the stored entry, with
    # nothing computed or stored
    table = {(Y, X): bracket_fields(Y, X)}
    assert not (_bracket(table, X, Y) - bracket_fields(X, Y)).coeffs
    assert list(table) == [(Y, X)]


def test_even_self_bracket_vanishes():
    amb = Ambient(["x1", "x2"], ["t1"], degree_cap=12)
    rng = random.Random(5)
    for _ in range(20):
        X = rand_field(amb, rng)
        if X.parity == EVEN:
            assert not bracket_fields(X, X)


def test_nonregular_example_fails_with_witness():
    flag = derived_flag(example_35())
    assert flag.levels_rank[2] == (3, 2)
    # six module generators at level 2, evaluation rank only (3|2)
    rep = check_strong_regularity(flag)
    assert not rep["ok"]
    assert any("theta*@u" in w for w in rep["witnesses"])


def test_shc_left_invariant_model():
    m = SymbolAlgebra(shc_symbol())
    flag = derived_flag(left_invariant_distribution(m))
    assert [flag.levels_rank[k] for k in (1, 2, 3)] == [(2, 4), (3, 6), (5, 6)]
    assert flag.depth == 3
    rep = check_strong_regularity(flag)
    assert rep["ok"]
    sym = extract_symbol(flag, rep)
    assert symbols_isomorphic_on_the_nose(sym, m)


def test_left_invariant_bracket_law():
    for name in ("shc_symbol", "odd_ode_symbol:3", "heisenberg_contact:2|2"):
        m = SymbolAlgebra(build_named(name))
        amb, fields = left_invariant_fields(m)
        for i in range(len(m.space)):
            for j in range(len(m.space)):
                br = bracket_fields(fields[i], fields[j])
                expect = None
                for c, s in m.bracket_indices(i, j).items():
                    term = fields[c].scale_fn(SuperPolynomial.constant(amb, s))
                    expect = term if expect is None else expect + term
                if expect is None:
                    assert not br
                else:
                    assert not (br - expect).coeffs


def test_round_trip_catalog_symbols():
    for name in (
        "odd_ode_symbol:2",
        "odd_ode_symbol:4",
        "heisenberg_contact:2|0",
        "heisenberg_contact:0|2",
        "shc_symbol",
        "abelian:2|1",
    ):
        m = SymbolAlgebra(build_named(name))
        flag = derived_flag(left_invariant_distribution(m))
        sym = extract_symbol(flag)
        assert symbols_isomorphic_on_the_nose(sym, m), name
        assert validate(sym) == []


def test_contact_frame_of_second_order_ode():
    amb = Ambient(["x"], ["xi", "xi1"])
    E = parse_field(amb, "@x + xi1*@xi", name="E")
    V = parse_field(amb, "@xi1", name="V")
    flag = derived_flag(DistributionSpec(amb, [E, V]))
    assert flag.levels_rank == {1: (1, 1), 2: (1, 2)}
    sym = extract_symbol(flag)
    assert symbols_isomorphic_on_the_nose(
        sym, SymbolAlgebra(odd_ode_symbol(2))
    )


def test_flag_monotone_ranks():
    flag = derived_flag(left_invariant_distribution(SymbolAlgebra(shc_symbol())))
    ranks = [flag.levels_rank[k] for k in sorted(flag.levels_rank)]
    for a, b in zip(ranks, ranks[1:]):
        assert a[0] <= b[0] and a[1] <= b[1]


def test_parser_and_json_round_trip():
    amb = Ambient(["x", "y"], ["t1", "t2"])
    f = parse_field(amb, "2*x*@y + t1*t2*@x - 1/2*@y")
    data = f.to_json()
    back = field_from_json(amb, data)
    assert not (f - back).coeffs
    g = parse_superfunction(amb, "x^2*t1 - 3*t2 + x*t1")
    assert g.parity() == ODD


def test_parser_rejects_mixed_parity():
    amb = Ambient(["x"], ["t"])
    with pytest.raises(ValueError):
        parse_field(amb, "@x + t*@x")


def test_translated_basepoint():
    # unit pivots are judged at the base point: x*@x is a frame member at
    # x0 = 1 but not at the origin
    amb = Ambient(["x"], ["t"])
    F = parse_field(amb, "x*@x")
    G = parse_field(amb, "@t")
    flag0 = derived_flag(DistributionSpec(amb, [F, G]))
    rep0 = check_strong_regularity(flag0)
    assert not rep0["ok"]
    flag1 = derived_flag(DistributionSpec(amb, [F, G], basepoint=[1]))
    rep1 = check_strong_regularity(flag1)
    assert rep1["ok"]


def vanishing_line_distribution():
    """D = <@x, @y - x*@y> on R^2: a frame near x0 = 0, dependent on x = 1."""
    amb = Ambient(["x", "y"], [])
    return DistributionSpec(
        amb, [parse_field(amb, "@x", name="X"), parse_field(amb, "@y - x*@y", name="Y")]
    )


def test_regularity_is_decided_at_the_base_point():
    # strong regularity is a germ condition at x0; the line x = 1, where the
    # generators become dependent, is outside every small enough neighbourhood
    rep = check_strong_regularity(derived_flag(vanishing_line_distribution()))
    assert rep["ok"] and rep["witnesses"] == []


@pytest.mark.parametrize(
    "dist", [vanishing_line_distribution, example_35], ids=["regular", "not-regular"]
)
def test_regularity_report_ignores_the_seed(dist):
    flag = derived_flag(dist())
    reports = [check_strong_regularity(flag, seed=s) for s in (None, *range(8))]
    assert all(r == reports[0] for r in reports)


def _left_invariant(name):
    return lambda: left_invariant_distribution(SymbolAlgebra(build_named(name)))


# every flag the tests and the benchmark workloads build
_FLAGS = {
    **{name: _left_invariant(name) for name in (
        "shc_symbol", "odd_ode_symbol:5", "odd_ode_symbol:7",
        "heisenberg_contact:2|2", "heisenberg_contact:4|2",
        "heisenberg_contact:2|4",
    )},
    "example_35": example_35,
    "nonregular_hc": nonregular_hc_extension,
}


@pytest.mark.parametrize("name", list(_FLAGS))
def test_stored_brackets_give_what_recomputing_them_gives(name):
    flag = derived_flag(_FLAGS[name]())
    framed = {f.field for f in flag.frames}
    assert flag.brackets and all(framed.issuperset(k) for k in flag.brackets)
    for (X, Y), br in flag.brackets.items():
        assert not (br - bracket_fields(X, Y)).coeffs
    stored = check_strong_regularity(flag)
    symbol = extract_symbol(flag).to_json() if stored["ok"] else None
    flag.brackets = {}
    assert check_strong_regularity(flag) == stored
    if stored["ok"]:
        flag.brackets = {}
        assert extract_symbol(flag).to_json() == symbol


def test_the_flag_and_its_regularity_check_bracket_each_pair_once(monkeypatch):
    from superprolong import superfield

    dist = left_invariant_distribution(SymbolAlgebra(shc_symbol()))
    pairs = []
    monkeypatch.setattr(
        superfield, "bracket_fields",
        lambda X, Y: pairs.append((X, Y)) or bracket_fields(X, Y),
    )
    flag = derived_flag(dist)
    assert check_strong_regularity(flag)["ok"]
    unordered = {frozenset(p) for p in pairs}
    assert len(pairs) == len(unordered)
    frames = [f.field for f in flag.frames]
    assert all(frozenset((X, Y)) in unordered
               for a, X in enumerate(frames) for Y in frames[a:])


def rand_term(amb, rng, parity):
    """A random +-1, +-2 multiple of a low-degree monomial of the given parity."""
    even = [SuperPolynomial.constant(amb, 1)]
    even += [SuperPolynomial.coordinate(amb, n) for n in amb.even]
    odd = [SuperPolynomial.coordinate(amb, n) for n in amb.odd]
    if parity == EVEN:
        f = rng.choice(even + [odd[0] * odd[1]])
    elif rng.random() < 0.5:
        f = rng.choice(even) * rng.choice(odd)
    else:
        f = rng.choice(odd)
    return f.scale(rng.choice([-2, -1, 1, 2]))


def test_flag_frame_is_triangular_at_the_base_point():
    # the argument that makes strong regularity a base-point check: each frame
    # member has coefficient zero in every earlier pivot direction and an even
    # unit pivot at x0, so the frame's evaluation rank at x0 is its size
    amb = Ambient(["x", "y", "z"], ["t1", "t2"])
    x0 = [0, 0, 0]
    rng = random.Random(7)
    framed = nonconstant_pivot = 0
    for _ in range(60):
        gens = []
        for lead in ("x", "y", "t1"):
            F = parse_field(amb, "@" + lead)
            for d in amb.directions():
                if amb.direction_name(d) != lead and rng.random() < 0.5:
                    want = (F.parity + amb.direction_parity(d)) % 2
                    F = F + SuperVectorField(
                        amb, F.parity, {d: rand_term(amb, rng, want)}
                    )
            gens.append(F)
        try:
            flag = derived_flag(DistributionSpec(amb, gens))
        except DegreeCapError:  # a size limit of the engine, not a verdict
            continue
        if flag.residuals:
            continue
        framed += 1
        for k, fr in enumerate(flag.frames):
            assert fr.pivot_poly.parity() == EVEN and fr.pivot_poly.ev(x0)
            for earlier in flag.frames[:k]:
                assert not fr.field.coefficient(earlier.pivot_dir)
        nonconstant_pivot += any(
            not fr.pivot_poly.is_constant() for fr in flag.frames
        )
        even = sum(1 for fr in flag.frames if fr.field.parity == EVEN)
        assert flag.levels_rank[flag.depth] == (even, len(flag.frames) - even)
    assert framed >= 10 and nonconstant_pivot >= 3


def test_degree_cap_enforced():
    amb = Ambient(["x"], [], degree_cap=3)
    f = parse_superfunction(amb, "x^2")
    with pytest.raises(ValueError):
        f * f


def test_json_theta_subset_order_carries_the_sign():
    # theta_subset is an ordered product: it must read like the expression
    # with the same factor order, and a repeated name gives a zero monomial
    amb = Ambient(["x"], ["a", "b", "c"])
    for names in (("a", "b"), ("b", "c"), ("a", "b", "c"), ("a", "a"), ("a", "b", "a")):
        for perm in set(permutations(names)):
            data = {
                "parity": "even" if len(perm) % 2 == 0 else "odd",
                "coefficients": [
                    {
                        "direction": "x",
                        "monomials": [
                            {"x_exponents": [1], "theta_subset": list(perm), "coeff": "2"}
                        ],
                    }
                ],
            }
            got = field_from_json(amb, data)
            want = parse_field(amb, "2*x*%s*@x" % "*".join(perm))
            assert got.coeffs == want.coeffs, perm
            assert bool(got.coeffs) == (len(set(perm)) == len(perm)), perm


@pytest.mark.parametrize(
    "exponents", [[1], [1, 0, 5], [1, -1], [1, "0"], [1.0, 0], [True, 0], "10"]
)
def test_json_x_exponents_need_one_nonnegative_int_per_even_coordinate(exponents):
    amb = Ambient(["x", "y"], ["t"])
    data = {
        "coefficients": [
            {
                "direction": "x",
                "monomials": [{"x_exponents": exponents, "coeff": "1"}],
            }
        ]
    }
    with pytest.raises(ValueError, match="x_exponents"):
        field_from_json(amb, data)
    data["coefficients"][0]["monomials"][0]["x_exponents"] = [1, 0]
    assert not (field_from_json(amb, data) - parse_field(amb, "x*@x")).coeffs


@pytest.mark.parametrize("basepoint", [[0.1], [True], ["0.5"], ["1/0"], 0.5, []])
def test_basepoint_coordinates_must_be_exact_rationals(basepoint):
    amb = Ambient(["x"], ["t"])
    gens = [parse_field(amb, "x*@x"), parse_field(amb, "@t")]
    with pytest.raises(ValueError, match="basepoint"):
        DistributionSpec(amb, gens, basepoint=basepoint)
    dist = DistributionSpec(amb, gens, basepoint=["1/2"])
    assert dist.basepoint == [Fraction(1, 2)]


@pytest.mark.parametrize("cap", ["8", 2.5, 8.0, True, -1, None])
def test_degree_cap_must_be_a_nonnegative_integer(cap):
    with pytest.raises(ValueError) as err:
        Ambient(["x"], [], degree_cap=cap)
    assert str(err.value) == "degree_cap must be an int >= 0, got %r" % (cap,)


_PARSE_AMBIENT = Ambient(["x", "y"], ["th"])


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_field, "x $ @x", "cannot tokenize 'x $ @x' at 1"),
        (parse_field, "2^3*@x", "misplaced '^' in '2^3*@x'"),
        (parse_field, "x^y*@x", "'^' needs an integer exponent in 'x^y*@x'"),
        (parse_field, "x^1/2*@x", "exponent must be an integer in 'x^1/2*@x'"),
        (parse_field, "(x)*@x", "unsupported token '(' in '(x)*@x'"),
        (parse_field, "@x*@y", "two directions in one term: '@x*@y'"),
        (parse_field, "x + @y", "term without a direction in 'x + @y'"),
        (parse_superfunction, "x*@y", "direction symbol in a superfunction: 'x*@y'"),
        (lambda amb, text: parse_jet(JetContext(1), text), "xi*@x",
         "direction symbol in a jet superfunction: 'xi*@x'"),
    ] + [
        (lambda amb, text: parse_jet(JetContext(1), text), text, message % text)
        for text, message in (
            ("xi2 +", "missing factor at the end of %r"),
            ("xi2 -", "missing factor at the end of %r"),
            ("xi2 *", "missing factor at the end of %r"),
            ("*xi2", "missing factor before '*' in %r"),
            ("xi2 * * xi", "missing factor before '*' in %r"),
            ("--xi", "missing factor before '-' in %r"),
            ("xi + -xi2", "missing factor before '-' in %r"),
            ("2 3", "missing operator between factors in %r"),
            ("xi2 xi", "missing operator between factors in %r"),
            ("x^2^3", "misplaced '^' in %r"),
            ("x^2^3*xi", "misplaced '^' in %r"),
        )
    ],
    ids=["tokenize", "misplaced-power", "symbolic-exponent", "fractional-exponent",
         "parenthesis", "two-directions", "no-direction", "superfunction-direction",
         "jet-direction", "trailing-plus", "trailing-minus", "trailing-times",
         "leading-times", "double-times", "double-sign", "sign-after-plus",
         "adjacent-numbers", "adjacent-names", "double-power", "double-power-term"],
)
def test_parser_errors_name_the_expression(parse, text, message):
    with pytest.raises(ValueError) as err:
        parse(_PARSE_AMBIENT, text)
    assert str(err.value) == message
