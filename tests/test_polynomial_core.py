"""Properties of the Grassmann-polynomial core that superfunctions on
R^{m|n} and jet functions share: products of monomials against the Koszul
sign oracle, associativity, supercommutativity and the Leibniz rule of the odd
derivative, the multiply-accumulate behind products, field application and
brackets against whole products and sums, the contact-field bracket on jets
with p = 2, the one-pass jet total derivative against its compositional
oracle, and the invariants of the stored terms (nonzero Scalar values, an int
exponent lambda when integral)."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from superprolong.oddode import (
    JetContext,
    JetFunction,
    contact_vf,
    lagrange_bracket,
    parse_jet,
)
from superprolong.scalars import Scalar
from superprolong.superfield import Ambient, SuperPolynomial
from superprolong.superspace import EVEN

import oracles
from oracles import koszul_sign, odd_coords, total_derivative

SETTINGS = settings(max_examples=60, deadline=None)


def subsets(symbols):
    return [c for k in range(len(symbols) + 1) for c in combinations(symbols, k)]


def _check_monomial_products(ring, ambient, even, symbols, key=None):
    """Every product of two monomials over the odd symbols, each sorted under
    key: zero when a symbol repeats, else the sorted concatenation with the
    oracle's sign, odd symbols tagged EVEN as in the exterior convention."""
    order = key or (lambda s: s)
    for a in subsets(symbols):
        for b in subsets(symbols):
            prod = ring(ambient, {even + (a,): 1}) * ring(ambient, {even + (b,): 1})
            ab = a + b
            if set(a) & set(b):
                assert not prod, (a, b)
                continue
            perm = sorted(range(len(ab)), key=lambda p: order(ab[p]))
            sign = koszul_sign([EVEN] * len(ab), perm)
            odd = tuple(ab[p] for p in perm)
            assert prod.terms == {even + (odd,): Scalar(sign)}, (a, b)


def test_monomial_products_match_koszul_oracle():
    amb = Ambient(["x"], ["a%d" % k for k in range(6)])
    _check_monomial_products(SuperPolynomial, amb, ((0,),), tuple(range(6)))


def test_jet_monomial_products_match_koszul_oracle():
    # multi-indices of J^2 with p = 2, ordered by (order, lex)
    ctx = JetContext(2)
    symbols = sorted(odd_coords(ctx, 2), key=JetFunction.symbol_key)
    _check_monomial_products(
        JetFunction, ctx, ((0, 0), Fraction(0)), symbols, JetFunction.symbol_key
    )


# (ring element class, ambient, even parts of keys, odd symbols, sort key)
AMB = Ambient(["x", "y"], ["a", "b", "c"], degree_cap=12)
RINGS = {
    "superfunction": (
        SuperPolynomial, AMB,
        [((i, j),) for i in range(3) for j in range(3)],
        [0, 1, 2], None,
    ),
    "jet_p1": (
        JetFunction, JetContext(1),
        [((k,), lam) for k in range(3) for lam in (0, 1, -2, Fraction(1, 2))],
        odd_coords(JetContext(1), 3), JetFunction.symbol_key,
    ),
    "jet_p2": (
        JetFunction, JetContext(2),
        [((i, j), 0) for i in range(2) for j in range(2)],
        odd_coords(JetContext(2), 2), JetFunction.symbol_key,
    ),
}


@st.composite
def homogeneous(draw, ring, parity=None):
    cls, amb, evens, symbols, key = RINGS[ring]
    if parity is None:
        parity = draw(st.integers(0, 1))
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        even = draw(st.sampled_from(evens))
        odd = draw(st.sets(st.sampled_from(symbols), max_size=3))
        if len(odd) % 2 != parity:
            continue
        c = draw(st.integers(-3, 3))
        terms[even + (tuple(sorted(odd, key=key)),)] = Scalar(c)
    return cls(amb, terms)


JET_RINGS = ["jet_p1", "jet_p2"]


def sign_of(f, g):
    return -1 if f.parity() and g.parity() else 1


@pytest.mark.parametrize("ring", sorted(RINGS))
@SETTINGS
@given(data=st.data())
def test_ring_axioms(ring, data):
    f, g, h = (data.draw(homogeneous(ring)) for _ in range(3))
    assert (f * g) * h == f * (g * h)
    assert f * g == (g * f).scale(sign_of(f, g))
    assert f * (g + h) == f * g + f * h


@pytest.mark.parametrize("ring", sorted(RINGS))
@SETTINGS
@given(data=st.data())
def test_odd_derivative_leibniz(ring, data):
    f, g = (data.draw(homogeneous(ring)) for _ in range(2))
    s = data.draw(st.sampled_from(RINGS[ring][3]))
    twist = -1 if f.parity() == 1 else 1
    assert (f * g).diff_odd(s) == f.diff_odd(s) * g + (f * g.diff_odd(s)).scale(twist)


@pytest.mark.parametrize("ring", sorted(RINGS))
@SETTINGS
@given(data=st.data(), neg=st.booleans())
def test_multiply_accumulate_adds_the_signed_product(ring, data, neg):
    f, g, h = (data.draw(homogeneous(ring)) for _ in range(3))
    out = dict(h.terms)
    assert f._mac(out, g, neg) is out
    assert h._new(out) == (h - f * g if neg else h + f * g)
    _assert_stored_terms(h._new(out))


@pytest.mark.parametrize("ring", JET_RINGS)
@SETTINGS
@given(data=st.data())
def test_lagrange_bracket_matches_compositional_oracle(ring, data):
    # generating superfunctions live on J^1
    f, g = (data.draw(homogeneous(ring)).truncate(1) for _ in range(2))
    assert lagrange_bracket(f, g) == oracles.lagrange_bracket(f, g)


@pytest.mark.parametrize("ring", JET_RINGS)
@SETTINGS
@given(data=st.data())
def test_contact_field_application_matches_compositional_oracle(ring, data):
    f = data.draw(homogeneous(ring)).truncate(1)
    h = data.draw(homogeneous(ring))
    S = contact_vf(f)
    assert S.apply(h) == oracles.apply_field(S, h)


@st.composite
def generating_p2(draw):
    # generating superfunctions live on J^1: symbols xi, xi_1, xi_2
    ctx = JetContext(2)
    parity = draw(st.integers(0, 1))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        xe = (draw(st.integers(0, 1)), draw(st.integers(0, 1)))
        odd = draw(st.sets(st.sampled_from(odd_coords(ctx, 1)), max_size=3))
        if len(odd) % 2 == parity:
            terms[(xe, Fraction(0), tuple(sorted(odd, key=JetFunction.symbol_key)))] = (
                Scalar(draw(st.integers(-2, 2)))
            )
    return JetFunction(ctx, terms)


@SETTINGS
@given(generating_p2(), generating_p2())
def test_contact_bracket_represents_lagrange_bracket_p2(f, g):
    left = contact_vf(f).bracket(contact_vf(g))
    right = contact_vf(lagrange_bracket(f, g))
    assert not (left - right).coeffs


def directions(ring):
    amb = RINGS[ring][1]
    return st.integers(0, (amb.p if ring in JET_RINGS else amb.m) - 1)


@pytest.mark.parametrize("ring", JET_RINGS)
@SETTINGS
@given(data=st.data())
def test_total_derivative_matches_oracle_and_leibniz(ring, data):
    f, g = (data.draw(homogeneous(ring)) for _ in range(2))
    i = data.draw(directions(ring))
    assert f.total_derivative(i) == total_derivative(f, i)
    # D is an even derivation
    assert (f * g).total_derivative(i) == (
        f.total_derivative(i) * g + f * g.total_derivative(i)
    )


@pytest.mark.parametrize("ring", JET_RINGS)
@SETTINGS
@given(data=st.data())
def test_first_order_total_is_the_truncated_total_derivative(ring, data):
    f = data.draw(homogeneous(ring)).truncate(1)
    i = data.draw(directions(ring))
    assert f.first_order_total(i) == f.total_derivative(i).truncate(1)


def _assert_stored_terms(f):
    """Values are nonzero Scalars; a jet key's exponent is an int when
    integral."""
    for key, v in f.terms.items():
        assert type(v) is Scalar and v, (key, v)
        if isinstance(f, JetFunction):
            assert type(key[1]) is int or key[1].denominator != 1, key


@pytest.mark.parametrize("ring", sorted(RINGS))
@SETTINGS
@given(data=st.data())
def test_results_hold_nonzero_scalars_and_exact_exponents(ring, data):
    f, g = (data.draw(homogeneous(ring)) for _ in range(2))
    i = data.draw(directions(ring))
    s = data.draw(st.sampled_from(RINGS[ring][3]))
    c = data.draw(st.sampled_from([Scalar(2), Scalar(Fraction(-1, 3)), Scalar(0, 1)]))
    results = [f + g, f - g, -f, f.scale(c), f * g, f.diff_x(i), f.diff_odd(s)]
    if ring in JET_RINGS:
        h = data.draw(homogeneous(ring, parity=1))
        results += [
            f.total_derivative(i), f.first_order_total(i), f.truncate(1),
            f.substitute_odd(s, h),
        ]
    for result in results:
        _assert_stored_terms(result)


def test_integral_exponents_are_stored_as_int():
    ctx = JetContext(1)
    half = JetFunction.x_power(ctx, 0, lam=Fraction(1, 2))
    square = half * half
    assert [type(key[1]) for key in square.terms] == [int]
    assert list(square.terms) == [((0,), 1, ())]
    assert square.to_str() == "exp(x)"
    assert half.to_str() == "exp(1/2*x)"
    assert JetFunction.x_power(ctx, 0, lam=Fraction(-2, 2)).to_str() == "exp(-1*x)"
    assert JetFunction.x_power(ctx, 0, lam=-1).to_str() == "exp(-1*x)"
    for f in (
        JetFunction.constant(ctx, 3), JetFunction.x_power(ctx, 2, lam=Fraction(4, 2)),
        JetFunction.odd_coord(ctx, (1,)), half.total_derivative() * half,
    ):
        _assert_stored_terms(f)
        assert all(type(key[1]) is int for key in f.terms)


def test_p2_jet_monomials_sort_by_order_then_lex():
    assert parse_jet(JetContext(2), "xi_11*xi_2").to_str() == "-xi_2*xi_11"


def test_p2_jet_names_take_indices_in_1_to_p():
    ctx = JetContext(2)
    assert parse_jet(ctx, "xi_12").to_str() == "xi_12"
    assert parse_jet(ctx, "xi_21") == parse_jet(ctx, "xi_12")
    assert parse_jet(ctx, "x2*xi_1").to_str() == "x2*xi_1"
    for name in ("xi_3", "xi_0", "xi_", "xi_1a", "x3", "x0"):
        with pytest.raises(ValueError, match="unknown jet coordinate %r" % name):
            parse_jet(ctx, name)
