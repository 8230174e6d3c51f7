import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from oracles import (
    dense,
    jacobi_violations_all_triples,
    mat_add,
    mat_is_zero,
    mat_mul,
    supertranspose,
)
from superprolong.scalars import FIELD_QI, Scalar
from superprolong.superspace import EVEN, ODD
from superprolong import catalog
from superprolong.catalog import (
    _periplectic_form,
    abelian,
    build_named,
    cpe,
    gl,
    heisenberg_contact,
    odd_ode_symbol,
    osp,
    pe,
    shc_symbol,
    spe,
    spe_ab,
    spo,
    supertranslation,
)
from superprolong.cli import read_algebra
from superprolong.liesuper import (
    LieSuperalgebra,
    SymbolAlgebra,
    check_fundamental_nondegenerate,
    derivations_gr,
    validate,
)

SMALL_CATALOG = [
    "gl:1|1", "gl:2|1", "sl:2|1", "sl:2|2",
    "osp:1|2", "osp:2|2", "osp:3|2", "osp:4|4",
    "spo:2|1", "spo:0|2", "spo:0|3", "spo:2|2",
    "pe:1", "pe:2", "pe:3", "spe:2", "cpe:2", "cspe:2",
    "spe_ab:2:1:2", "pe_sk:2", "spe_sk:2", "cpe_sk:2",
    "heisenberg_contact:2|0", "heisenberg_contact:4|4",
    "shc_symbol", "odd_ode_symbol:2", "odd_ode_symbol:3", "odd_ode_symbol:4",
    "abelian:2|2", "supertranslation:1", "supertranslation:2",
    "sl_graded:2|1",
]


@pytest.mark.parametrize("name", SMALL_CATALOG)
def test_catalog_validates(name):
    alg = build_named(name)
    assert validate(alg) == []


def test_known_dimensions():
    assert pe(2).superdim() == (4, 4)
    assert pe(3).superdim() == (9, 9)
    assert spe(3).superdim() == (8, 9)
    assert spe(2).superdim() == (3, 4)
    assert cpe(2).superdim() == (5, 4)
    assert spe_ab(2, 1, 2).superdim() == (4, 4)
    assert pe(2, skew=True).superdim() == (4, 4)
    # on R^{0|0} only the central Z and the T of spe_ab remain
    for spec, dims in (("gl:0|0", (0, 0)), ("pe:0", (0, 0)), ("cpe:0", (1, 0)),
                       ("spe_ab:0:1:2", (1, 0))):
        alg = build_named(spec)
        assert (alg.superdim(), alg.rep_shape, alg.table) == (dims, (0, 0), {})
    # growth vector of the SHC symbol
    shc = shc_symbol()
    assert [shc.space.superdim(d) for d in (-1, -2, -3)] == [
        (2, 4), (1, 2), (2, 0),
    ]


def test_spe_ab_projective_normalization():
    a = spe_ab(2, 1, 2)
    b = spe_ab(2, 2, 4)
    assert a.to_json() == b.to_json()


# one small instance of every matrix family in catalog._NAMED
MATRIX_FAMILIES = [
    "gl:1|1", "gl:2|1", "sl:2|1", "sl_graded:2|1", "osp:2|2", "spo:2|1",
    "pe:2", "spe:2", "cpe:2", "cspe:2", "pe_sk:2", "spe_sk:2", "cpe_sk:2",
    "cspe_sk:2", "spe_ab:2:1:2", "spe_ab:2:1:-1",
]


def test_matrix_bracket_is_supercommutator():
    # the sparse actions against the dense supercommutator: the matrix of
    # [x_a, x_b] is M_a M_b - (-1)^{|a||b|} M_b M_a
    covered = {spec.split(":")[0] for spec in MATRIX_FAMILIES}
    assert covered == set(catalog._NAMED) - {
        "abelian", "heisenberg_contact", "shc_symbol", "odd_ode_symbol",
        "supertranslation",
    }
    for spec in MATRIX_FAMILIES:
        alg = build_named(spec)
        n = sum(alg.rep_shape)
        rep = [dense(alg.rep[k], n) for k in range(len(alg.space))]
        for a in range(len(rep)):
            for b in range(a, len(rep)):
                pa = alg.space[a].parity
                pb = alg.space[b].parity
                sgn = Scalar(1) if (pa and pb) else Scalar(-1)
                C = mat_add(mat_mul(rep[a], rep[b]), mat_mul(mat_mul(rep[b], rep[a]), sgn))
                got = mat_mul(rep[a], Scalar(0))
                for c, s in alg.bracket_indices(a, b).items():
                    got = mat_add(got, mat_mul(rep[c], s))
                assert C == got, (spec, alg.space[a].name, alg.space[b].name)


def test_matrix_family_refusals_name_the_member():
    # the brackets come from the prolongation engine's g_0 block: without
    # the diagonal, [E12, E21] leaves the span, and a multiple of a member
    # used to build silently as a second basis vector with an empty table
    E12 = (EVEN, {1: {0: Scalar(1)}})
    with pytest.raises(ValueError, match="g0 elements 0 and 1 does not lie in g0$"):
        catalog._matrix_family(2, 0, [E12, (EVEN, {0: {1: Scalar(1)}})], ["a", "b"])
    with pytest.raises(ValueError, match="^g0 element 1 lies in the span"):
        catalog._matrix_family(2, 0, [E12, (EVEN, {1: {0: Scalar(2)}})], ["a", "b"])


def test_pe_supertranspose_membership():
    # every pe(n) basis element satisfies X^st P + (-1)^{|X|} P X = 0
    for n in (2, 3):
        for skew in (False, True):
            alg = pe(n, skew=skew)
            form = _periplectic_form(n, skew)
            P = [[form.get((i, j), Scalar(0)) for j in range(2 * n)]
                 for i in range(2 * n)]
            for k in range(len(alg.space)):
                X = dense(alg.rep[k], 2 * n)
                sgn = Scalar(-1) if alg.space[k].parity else Scalar(1)
                M = mat_add(
                    mat_mul(supertranspose(X, n), P), mat_mul(mat_mul(P, X), sgn)
                )
                assert mat_is_zero(M), (n, skew, alg.space[k].name)


def test_validator_catches_broken_jacobi():
    shc = shc_symbol()
    ix = shc.space.index
    # deleting [th1p, rho1] = f1 breaks Jacobi on (e1, th1p, th2p):
    # [th1p,[e1,th2p]] = [th1p,rho1] = 0 but [e1,[th1p,th2p]] = [e1,h] = f1
    table = {k: dict(v) for k, v in shc.table.items()}
    del table[(ix("th1p"), ix("rho1"))]
    report = validate(LieSuperalgebra(shc.space, table))
    assert any(
        v["kind"] == "jacobi" and v["where"] == ("e1", "th1p", "th2p")
        for v in report
    )
    # deleting [e1, e2] = h, by contrast, leaves a consistent table: h is
    # still produced by the theta pairs and no Jacobi triple needs [e1, e2]
    table = {k: dict(v) for k, v in shc.table.items()}
    del table[(ix("e1"), ix("e2"))]
    assert validate(LieSuperalgebra(shc.space, table)) == []


def test_validator_catches_grading_and_antisymmetry():
    shc = shc_symbol()
    ix = shc.space.index
    table = {k: dict(v) for k, v in shc.table.items()}
    table[(ix("e1"), ix("e2"))] = {ix("f1"): Scalar(1)}  # wrong degree
    rep = validate(LieSuperalgebra(shc.space, table))
    assert any(v["kind"] == "degree" for v in rep)
    table = {k: dict(v) for k, v in shc.table.items()}
    table[(ix("e2"), ix("e1"))] = {ix("h"): Scalar(1)}  # should be -h
    rep = validate(LieSuperalgebra(shc.space, table))
    assert any(v["kind"] == "antisymmetry" for v in rep)


def test_validator_checks_repeated_odd_indices():
    # [x, x] = y and [x, y] = w for odd x: J(x, x, x) = [x,y] - [y,x] + [x,y]
    # = 3w, found only on the triple (x, x, x), which repeats an odd index
    from superprolong.superspace import BasisVector, GradedSuperSpace

    space = GradedSuperSpace(
        [BasisVector("x", -1, ODD), BasisVector("y", -2, EVEN),
         BasisVector("w", -3, ODD)]
    )
    alg = LieSuperalgebra(space, {(0, 0): {1: Scalar(1)}, (0, 1): {2: Scalar(1)}})
    assert validate(alg) == [
        {"kind": "jacobi", "where": ("x", "x", "x"), "detail": "defect w: 3"}
    ]
    assert jacobi_violations_all_triples(alg) == validate(alg)


def test_validator_reports_jacobi_on_all_triples_after_a_grading_error():
    shc = shc_symbol()
    ix = shc.space.index
    table = {k: dict(v) for k, v in shc.table.items()}
    # the Jacobi defect of test_validator_catches_broken_jacobi
    del table[(ix("th1p"), ix("rho1"))]
    # [f1, f2] = f1 has the wrong degree; f1 and f2 are central, so it adds
    # no Jacobi defect of its own
    table[(ix("f1"), ix("f2"))] = {ix("f1"): Scalar(1)}
    broken = LieSuperalgebra(shc.space, table)
    report = validate(broken)
    assert [v["kind"] for v in report if v["kind"] != "jacobi"] == ["degree"]
    jacobi = [v for v in report if v["kind"] == "jacobi"]
    assert any(v["where"] == ("e1", "th1p", "th2p") for v in jacobi)
    # without antisymmetry the canonical triples do not suffice, so the
    # ordered triples are all checked: the same list as the oracle's
    assert jacobi == jacobi_violations_all_triples(broken)
    assert any(v["where"] == ("th2p", "th1p", "e1") for v in jacobi)


def test_validate_reports_are_pinned_entry_by_entry():
    # the whole report, in order, for SHC without [th1p, rho1] (the CI
    # input shc_broken.json), for a raw table whose two orders of [x, y]
    # disagree and whose even [x, x] is nonzero, and for a table with a
    # parity and a degree defect, whose Jacobi defects are then reported
    # on all ordered triples
    from superprolong.superspace import BasisVector, GradedSuperSpace

    data = shc_symbol().to_json()
    data["brackets"] = [b for b in data["brackets"]
                        if (b["left"], b["right"]) != ("th1p", "rho1")]
    assert validate(read_algebra(data)) == [
        {"kind": "jacobi", "where": ("e1", "th1p", "th2p"), "detail": "defect f1: 1"},
        {"kind": "jacobi", "where": ("e2", "th1p", "th1pp"), "detail": "defect f1: 1"},
    ]
    one = Scalar(1)
    space = GradedSuperSpace([BasisVector("x", -1, EVEN), BasisVector("y", -1, EVEN),
                              BasisVector("z", -2, EVEN)])
    raw = {(0, 1): {2: one}, (1, 0): {2: one}, (0, 0): {2: one}}
    assert validate(LieSuperalgebra(space, raw)) == [
        {"kind": "antisymmetry", "where": ("x", "y"),
         "detail": "[x,y] != -(-1)^{|x||y|}[y,x]"},
        {"kind": "antisymmetry", "where": ("x", "x"), "detail": "[x,x] != 0 for even x"},
    ]
    space = GradedSuperSpace([BasisVector("x", -1, ODD), BasisVector("y", -2, EVEN),
                              BasisVector("w", -3, ODD), BasisVector("u", -3, EVEN)])
    raw = {(0, 0): {1: one}, (0, 1): {2: one, 3: one}, (0, 2): {1: one}}
    assert validate(LieSuperalgebra(space, raw)) == [
        {"kind": "parity", "where": ("x", "y", "u"), "detail": "parity mismatch"},
        {"kind": "degree", "where": ("x", "w", "y"), "detail": "deg -2 != -1 + -3"},
        {"kind": "jacobi", "where": ("x", "x", "x"), "detail": "defect w: 3, u: 3"},
        {"kind": "jacobi", "where": ("x", "x", "y"), "detail": "defect y: 2"},
        {"kind": "jacobi", "where": ("x", "x", "w"), "detail": "defect w: 2, u: 2"},
        {"kind": "jacobi", "where": ("x", "y", "x"), "detail": "defect y: -2"},
        {"kind": "jacobi", "where": ("x", "w", "x"), "detail": "defect w: 2, u: 2"},
        {"kind": "jacobi", "where": ("y", "x", "x"), "detail": "defect y: 2"},
        {"kind": "jacobi", "where": ("w", "x", "x"), "detail": "defect w: 2, u: 2"},
    ]


def _small_prolongation():
    from superprolong.prolong import prolong

    m = SymbolAlgebra(odd_ode_symbol(3))
    return prolong(m, g0=catalog.odd_ode_scalings(3)).algebra


PERTURBED = [
    shc_symbol(),
    osp(1, 2),
    gl(1, 1),
    pe(2),
    build_named("sl_graded:2|1"),
    heisenberg_contact(2, 2),
    supertranslation(1),
    _small_prolongation(),
]


@st.composite
def perturbed_tables(draw):
    """A table of PERTURBED with one structure constant changed, by a
    rational or a Gaussian delta: on a pair already in the table, on an odd
    repeated pair, or on any pair, and mostly towards a target of the right
    degree and parity, so the grading checks pass and the canonical triples
    are what is checked."""
    alg = draw(st.sampled_from(PERTURBED))
    space, n = alg.space, len(alg.space)
    odd = [a for a in range(n) if space[a].parity == ODD]
    pairs = [sorted(alg.table)]
    if odd:
        pairs.append([(a, a) for a in odd])
    pairs.append([(a, b) for a in range(n) for b in range(a, n)])
    a, b = draw(st.sampled_from(draw(st.sampled_from(pairs))))
    graded = [
        c for c in range(n)
        if space[c].degree == space[a].degree + space[b].degree
        and space[c].parity == (space[a].parity + space[b].parity) % 2
    ]
    targets = graded if graded and draw(st.integers(0, 3)) else range(n)
    c = draw(st.sampled_from(list(targets)))
    # Gaussian and fractional deltas give the integer Jacobi loop a common
    # denominator D > 1 and defects with an imaginary part
    delta = draw(st.sampled_from(
        [Scalar(x) for x in (-2, -1, Fraction(1, 2), 1, 3)]
        + [Scalar(0, 1), Scalar(Fraction(1, 3), -1)]
    ))
    table = {k: dict(v) for k, v in alg.table.items()}
    vec = table.setdefault((a, b), {})
    vec[c] = vec.get(c, Scalar(0)) + delta
    return LieSuperalgebra(space, table, field=alg.field)


@settings(max_examples=120, deadline=None)
@given(perturbed_tables())
def test_validator_agrees_with_the_all_triples_oracle(alg):
    report = validate(alg)
    oracle = jacobi_violations_all_triples(alg)
    jacobi = [v for v in report if v["kind"] == "jacobi"]
    others = [v for v in report if v["kind"] != "jacobi"]
    event("all ordered triples" if others else "canonical triples")
    event("Jacobi defect" if oracle else "no Jacobi defect")
    assert bool(report) == bool(others or oracle)
    assert bool(jacobi) == bool(oracle)
    assert all(v in oracle for v in jacobi)
    if others:
        assert jacobi == oracle
    else:
        ix = alg.space.index
        assert jacobi == [
            v for v in oracle
            if ix(v["where"][0]) <= ix(v["where"][1]) <= ix(v["where"][2])
        ]


def test_symbol_algebra_is_a_lie_superalgebra_sharing_its_input():
    alg = shc_symbol()
    m = SymbolAlgebra(alg)
    assert isinstance(m, LieSuperalgebra) and m.mu == 3
    assert m.space is alg.space and m.raw is alg.raw and m.table is alg.table
    # the symbol sees the raw input, not its canonicalized table: both
    # orders of one pair with the wrong relative sign, and [e1, e1] != 0
    ix = alg.space.index
    table = {k: dict(v) for k, v in alg.table.items()}
    table[(ix("e2"), ix("e1"))] = dict(table[(ix("e1"), ix("e2"))])
    table[(ix("e1"), ix("e1"))] = {ix("f1"): Scalar(1)}
    broken = LieSuperalgebra(alg.space, table)
    report = validate(broken)
    assert {v["kind"] for v in report} >= {"antisymmetry", "degree"}
    assert validate(SymbolAlgebra(broken)) == report


@pytest.mark.parametrize("build", [SymbolAlgebra, derivations_gr])
def test_nonnegative_degrees_are_refused(build):
    with pytest.raises(ValueError, match="negative degrees"):
        build(gl(2, 1))


@pytest.mark.parametrize("brackets", [
    {(-1, 0): {1: 1}},  # Python's index -1 would be y: [y, x]
    {(0, 5): {1: 1}},
    {(0, 1): {7: 1}},
    {(0, 1): {-2: 1}},
    {(0.5, 0): {1: 1}},
    {(0, 1): {0.5: 1}},
    {(True, 0): {1: 1}},
    {(0, 1): {False: 1}},
    {(0, 1, 1): {1: 1}},
    {0: {1: 1}},
])
def test_bracket_indices_must_be_ints_inside_the_space(brackets):
    from superprolong.superspace import BasisVector, GradedSuperSpace

    space = GradedSuperSpace([BasisVector("x", -1, ODD), BasisVector("y", -2, EVEN)])
    key = next(iter(brackets))
    with pytest.raises(ValueError, match=r"^bracket %s: every index must be an "
                       r"int in 0\.\.1$" % re.escape(repr(key))):
        LieSuperalgebra(space, brackets)
    # the same entry inside the space is taken
    assert LieSuperalgebra(space, {(0, 0): {1: 1}}).table == {(0, 0): {1: Scalar(1)}}


def test_abelian_validates_and_fundamentality_witness():
    assert validate(abelian(3, 2)) == []
    # abelian with a degree -2 slice is not fundamental
    from superprolong.superspace import BasisVector, GradedSuperSpace

    space = GradedSuperSpace(
        [BasisVector("a", -1, EVEN), BasisVector("b", -2, EVEN)]
    )
    m = SymbolAlgebra(LieSuperalgebra(space, {}))
    rep = check_fundamental_nondegenerate(m)
    assert not rep["ok"] and not rep["fundamental"]
    assert any("b" in w for w in rep["witnesses"])
    # with no brackets at all, a commutes with everything: a central element
    # of m inside g_{-1}, so m is degenerate as well
    assert not rep["nondegenerate"]
    assert "central element of m inside g_{-1}: a" in rep["witnesses"]
    # the unwrapped algebra is wrapped as prolong wraps it, to the same report
    assert check_fundamental_nondegenerate(LieSuperalgebra(space, {})) == rep


def test_fundamental_pass_cases():
    for name in ("shc_symbol", "odd_ode_symbol:3", "heisenberg_contact:2|2"):
        m = SymbolAlgebra(build_named(name))
        rep = check_fundamental_nondegenerate(m)
        assert rep["ok"], (name, rep)


def test_degenerate_center_detected():
    from superprolong.superspace import BasisVector, GradedSuperSpace

    # g_{-1} = <a, b>, g_{-2} = <c> with only [a,a]... use [a,b]=c, b central
    space = GradedSuperSpace(
        [
            BasisVector("a", -1, EVEN),
            BasisVector("b", -1, EVEN),
            BasisVector("c", -2, EVEN),
        ]
    )
    alg = LieSuperalgebra(space, {(0, 1): {2: Scalar(1)}})
    rep = check_fundamental_nondegenerate(SymbolAlgebra(alg))
    assert rep["fundamental"]
    assert rep["nondegenerate"]
    # now a genuinely degenerate one: z commutes with everything
    space = GradedSuperSpace(
        [
            BasisVector("a", -1, EVEN),
            BasisVector("b", -1, EVEN),
            BasisVector("z", -1, EVEN),
            BasisVector("c", -2, EVEN),
        ]
    )
    alg = LieSuperalgebra(space, {(0, 1): {3: Scalar(1)}})
    rep = check_fundamental_nondegenerate(SymbolAlgebra(alg))
    assert not rep["nondegenerate"]
    assert any("z" in w for w in rep["witnesses"])


def test_derivations_examples():
    # odd ODE order 2: even scalings (2) plus the odd derivation X -> th1
    d = derivations_gr(SymbolAlgebra(odd_ode_symbol(2)), 0)
    assert d.superdim == (2, 1)
    # classical Heisenberg: csp(2) = gl(2)
    d = derivations_gr(SymbolAlgebra(heisenberg_contact(2, 0)), 0)
    assert d.superdim == (4, 0)
    # abelian purely even: all of gl(n)
    for n in (1, 2, 3):
        d = derivations_gr(SymbolAlgebra(abelian(n, 0)), 0)
        assert d.superdim == (n * n, 0)
    # SHC: the G(3) parabolic degree-0 slice
    assert derivations_gr(SymbolAlgebra(shc_symbol()), 0).superdim == (7, 2)


def test_derivations_satisfy_identity_independently():
    m = SymbolAlgebra(shc_symbol())
    ders = derivations_gr(m, 0)
    n = len(m.space)
    for p, action in ders.elements:
        for a in range(n):
            for b in range(n):
                lhs = {}
                for c, s in m.bracket_indices(a, b).items():
                    col = action.get(c, {})
                    for i, x in col.items():
                        lhs[i] = lhs.get(i, Scalar(0)) + s * x
                rhs = {}
                for i, x in action.get(a, {}).items():
                    for c, s in m.bracket_indices(i, b).items():
                        rhs[c] = rhs.get(c, Scalar(0)) + x * s
                sgn = Scalar(-1) if (p and m.space[a].parity) else Scalar(1)
                for i, x in action.get(b, {}).items():
                    for c, s in m.bracket_indices(a, i).items():
                        rhs[c] = rhs.get(c, Scalar(0)) + sgn * x * s
                assert {k2: v for k2, v in lhs.items() if v} == {
                    k2: v for k2, v in rhs.items() if v
                }


def test_json_round_trip():
    for name in ("shc_symbol", "pe:2", "supertranslation:1"):
        alg = build_named(name)
        data = alg.to_json()
        back = read_algebra(data)
        assert back.to_json() == data
        assert validate(back) == []


def test_a_bracket_listed_twice_is_an_input_error():
    # summing the two entries would load [e1, e2] = 2h, which validates
    data = build_named("shc_symbol").to_json()
    assert data["brackets"][0]["left"] == "e1"
    assert data["brackets"][0]["right"] == "e2"
    data["brackets"].append(data["brackets"][0])
    with pytest.raises(ValueError, match=r"bracket \[e1, e2\] listed twice"):
        read_algebra(data)
    # the other argument order is no repeat: antisymmetry checks it
    first = dict(data["brackets"].pop(), left="e2", right="e1")
    first["result"] = [{"basis": "h", "coeff": "-1"}]
    data["brackets"].append(first)
    assert validate(read_algebra(data)) == []


def test_a_basis_vector_named_twice_in_one_result_is_an_input_error():
    # keeping the last coefficient would load [e1, e2] = 2h, which validates
    data = build_named("shc_symbol").to_json()
    data["brackets"][0]["result"] = [
        {"basis": "h", "coeff": "1"}, {"basis": "h", "coeff": "2"}
    ]
    with pytest.raises(ValueError, match=r"^brackets\[0\]\.result\[1\]\.basis: h named twice$"):
        read_algebra(data)


@pytest.mark.parametrize("coeff", [0.5, 1.0, True, None, [1, 2]])
def test_a_coefficient_must_be_a_string_or_a_json_integer(coeff):
    data = build_named("shc_symbol").to_json()
    data["brackets"][0]["result"][0]["coeff"] = coeff
    with pytest.raises(ValueError, match="neither a \"p/q\" string nor an integer"):
        read_algebra(data)
    # a JSON integer is read exactly, like its "p/q" string
    data["brackets"][0]["result"][0]["coeff"] = 3
    alg = read_algebra(data)
    data["brackets"][0]["result"][0]["coeff"] = "3/1"
    assert read_algebra(data).to_json() == alg.to_json()


def test_supertranslation_brackets():
    st = supertranslation(1)
    ix = st.space.index
    # [s1, s1] = -v1 - i v2, [s1, s2] = v3, [s2, s2] = v1 - i v2
    i1, i2 = ix("s1_1"), ix("s1_2")
    assert st.bracket_indices(i1, i1) == {
        ix("v1"): Scalar(-1), ix("v2"): Scalar(0, -1),
    }
    assert st.bracket_indices(i1, i2) == {ix("v3"): Scalar(1)}
    assert st.bracket_indices(i2, i2) == {
        ix("v1"): Scalar(1), ix("v2"): Scalar(0, -1),
    }
    assert st.field == FIELD_QI


def test_supertranslation_rejects_inadmissible_form():
    one = Scalar(1)
    bad = {(0, 0): one, (1, 1): one}  # symmetric: Gamma not symmetric
    with pytest.raises(ValueError, match="not admissible"):
        supertranslation(1, form=bad)
    # eps with one entry moved outside the 2N = 2 spinor slots
    with pytest.raises(ValueError, match="index outside 0..1"):
        supertranslation(1, form={(0, 1): one, (2, 0): -one})


def test_spe_ab_refuses_a_float():
    # a float is not read as its binary fraction, as in Scalar
    for a, b in ((0.1, 1), (1, 0.5)):
        with pytest.raises(TypeError, match="cannot coerce"):
            spe_ab(2, a, b)


def test_form_preserving_refuses_a_form_index_outside_the_space():
    # a form entry outside 0..p+q-1 is not dropped, which would leave gl(1)
    with pytest.raises(ValueError, match="^form has an index outside 0..0$"):
        catalog.form_preserving(1, 0, {(5, 5): 1})
    with pytest.raises(ValueError, match="^form has an index outside 0..2$"):
        catalog.form_preserving(2, 1, {(0, 1): 1, (1, -1): 1})


def test_build_named_errors():
    with pytest.raises(ValueError):
        build_named("nonsense:3")
    with pytest.raises(ValueError):
        build_named("osp:2|3")  # odd symplectic rank


NEGATIVE_DIMENSIONS = [
    ("gl", (-1, 2)), ("sl", (0, -1)), ("osp", (-1, 2)), ("osp", (2, -1)),
    ("spo", (2, -1)), ("pe", (-2,)), ("spe", (-1,)), ("cpe", (-1,)),
    ("cspe", (-1,)), ("spe_ab", (-1, 1, 2)), ("form_preserving", (0, -1, {})),
    ("abelian", (0, -1)), ("heisenberg_contact", (-2, 0)),
    ("heisenberg_contact", (-1, 0)),
]


@pytest.mark.parametrize(
    "name, args", NEGATIVE_DIMENSIONS,
    ids=["%s%r" % case for case in NEGATIVE_DIMENSIONS],
)
def test_builders_refuse_negative_dimensions(name, args):
    # checked before the parity of a symplectic rank: osp(2, -1) and
    # heisenberg_contact(-1, 0) name the dimension, not the odd rank
    with pytest.raises(ValueError, match="^dimensions must be >= 0$"):
        getattr(catalog, name)(*args)


@pytest.mark.parametrize(
    "spec, form",
    [("pe", "pe:n"), ("gl", "gl:p|q"), ("spe_ab:2:1", "spe_ab:n:a:b"),
     ("osp:2|2:5", "osp:p|q"), ("shc_symbol:3", "shc_symbol"),
     # an empty field is refused, not dropped
     ("shc_symbol:", "shc_symbol"), ("shc_symbol()", "shc_symbol"),
     ("pe:2:", "pe:n"), ("spe_ab:2::2", "spe_ab:n:a:b")],
)
def test_build_named_checks_the_argument_count(spec, form):
    with pytest.raises(ValueError, match="expected the form %s$" % re.escape(form)):
        build_named(spec)


# derivations_gr(m, d).elements for d = -2..1, recorded before derivations
# became the 1-cocycles of the Spencer rows (spencer._stream_rows); any
# change in the kernel basis (its column order, normalization or span)
# shows up here.
DERIVATION_CASES = {
    "shc": shc_symbol,
    "supertranslation_2": lambda: supertranslation(2),
    "heisenberg_contact_2_2": lambda: heisenberg_contact(2, 2),
    "odd_ode_symbol_3": lambda: odd_ode_symbol(3),
}


def _derivation_snapshot(m, d):
    sp = m.space
    return [
        {
            "parity": "even" if p == EVEN else "odd",
            "action": [
                [sp[j].name, [[sp[i].name, s.to_str()] for i, s in col.items()]]
                for j, col in action.items()
            ],
        }
        for p, action in derivations_gr(m, d).elements
    ]


@pytest.mark.parametrize("name", sorted(DERIVATION_CASES))
def test_derivations_unchanged(name):
    path = Path(__file__).parent / "data" / "derivations.json"
    want = json.loads(path.read_text())[name]
    m = SymbolAlgebra(DERIVATION_CASES[name]())
    got = {str(d): _derivation_snapshot(m, d) for d in range(-2, 2)}
    assert got == want


def _apply(action, vec):
    out = {}
    for j, s in vec.items():
        for i, x in action.get(j, {}).items():
            out[i] = out.get(i, Scalar(0)) + s * x
    return {i: x for i, x in out.items() if x}


@pytest.mark.parametrize("name", sorted(DERIVATION_CASES))
def test_derivations_satisfy_identity_by_direct_brackets(name):
    # D[x,y] = [Dx,y] + (-1)^{|D||x|}[x,Dy] on every ordered basis pair
    m = SymbolAlgebra(DERIVATION_CASES[name]())
    n = len(m.space)
    found = 0
    for d in range(-2, 2):
        for p, action in derivations_gr(m, d).elements:
            found += 1
            for a in range(n):
                sgn = Scalar(-1) if (p and m.space[a].parity) else Scalar(1)
                x = {a: Scalar(1)}
                for b in range(n):
                    y = {b: Scalar(1)}
                    lhs = _apply(action, m.bracket_indices(a, b))
                    rhs = m.bracket_vec(_apply(action, x), y)
                    for c, s in m.bracket_vec(x, _apply(action, y)).items():
                        rhs[c] = rhs.get(c, Scalar(0)) + sgn * s
                    assert lhs == {c: s for c, s in rhs.items() if s}, (d, a, b)
    assert found
