import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings, strategies as st

from superprolong.scalars import Scalar
from superprolong.superspace import (
    EVEN, ODD, BasisVector, GradedSuperSpace, exterior_power_basis,
)
from superprolong.catalog import (
    abelian,
    cpe,
    cspe,
    gl,
    heisenberg_contact,
    odd_ode_scalings,
    odd_ode_symbol,
    osp,
    pe,
    shc_symbol,
    sl,
    spe,
    spe_ab,
    spo,
    supertranslation,
)
from superprolong.liesuper import (
    LieSuperalgebra,
    SymbolAlgebra,
    check_fundamental_nondegenerate,
    derivations_gr,
    one_cocycles,
    validate,
)
from superprolong.prolong import (
    Prolongation,
    ProlongationError,
    projective_trace_reduction,
    prolong,
)
from superprolong.spencer import CochainSlice, cochain_basis, cohomology_dims
from superprolong.oddode import JetContext, OdeSpec, parse_jet, prolong_field
from superprolong.linalg import rank_rows
from superprolong.superfield import Ambient
from superprolong.cli import read_algebra

from conftest import g0_of, g2_symbol, two_step_symbols
from oracles import RecursiveBrackets, dense, prolongation_step, truncation

_ONE = Scalar(1)


def test_odd_ode_scaling_prolongations():
    res = prolong(SymbolAlgebra(odd_ode_symbol(3)), g0=odd_ode_scalings(3))
    assert res.status == "stabilized"
    assert res.component_superdim(1) == (1, 0)
    assert res.component_superdim(2) == (0, 1)
    assert res.component_superdim(3) == (0, 0)
    assert res.total_superdim == (4, 4)

    res = prolong(SymbolAlgebra(odd_ode_symbol(2)), g0=odd_ode_scalings(2))
    assert res.component_superdim(1) == (1, 1)
    assert res.component_superdim(2) == (0, 1)
    assert res.total_superdim == (4, 4)


def test_advance_explicit_and_stabilization_soundness():
    m = SymbolAlgebra(odd_ode_symbol(3))
    engine = Prolongation(m, g0=odd_ode_scalings(3))
    for i in (1, 2, 3):
        engine.advance(i)
    assert [len(engine.comp[k].elements) for k in range(4)] == [2, 1, 1, 0]
    # after a zero component, one more step is still zero
    comp4 = engine.advance(4)
    assert len(comp4.elements) == 0


def test_transitivity_of_components():
    res = prolong(SymbolAlgebra(shc_symbol()))
    eng = res.engine
    deg1 = eng.space.indices_of_degree(-1)
    for k in range(1, eng.top + 1):
        for par, action in eng.comp[k].elements:
            assert any(action.get(b) for b in deg1)


def test_assembled_algebra_validates_and_is_graded():
    res = prolong(SymbolAlgebra(odd_ode_symbol(2)), g0=odd_ode_scalings(2))
    alg = res.algebra
    assert validate(alg) == []
    assert alg.space.superdim() == (4, 4)
    # g0-equivariance: [g0, g_i] stays in g_i by construction; the bracket
    # tables of the assembled algebra respect the Z-degree
    for (a, b), vec in alg.table.items():
        for c in vec:
            assert (
                alg.space[c].degree
                == alg.space[a].degree + alg.space[b].degree
            )


def test_reduction_noop_and_zero():
    m = SymbolAlgebra(abelian(2, 1))
    g0 = g0_of(gl(2, 1))

    def identity_reduction(engine):
        out = []
        for par, action in engine.comp[1].elements:
            out.append((par, {b: dict(v) for b, v in action.items()}))
        return out

    base = prolong(m, g0=g0, reductions=[(1, projective_trace_reduction)])
    noop = prolong(m, g0=g0, reductions=[(1, identity_reduction)])
    full = prolong(m, g0=g0)
    assert noop.per_degree() == full.per_degree()

    zero = prolong(m, g0=g0, reductions=[(1, lambda e: [])])
    assert zero.status == "stabilized"
    total = zero.total_superdim
    m_dims = m.space.superdim()
    g0_dims = (
        sum(1 for p, _ in zero.engine.comp[0].elements if p == EVEN),
        sum(1 for p, _ in zero.engine.comp[0].elements if p == ODD),
    )
    assert total == (m_dims[0] + g0_dims[0], m_dims[1] + g0_dims[1])
    assert base.component_superdim(2) == (0, 0)


def test_projective_reduction_finite_type():
    for (p, q) in [(2, 1), (1, 2), (2, 2)]:
        res = prolong(
            SymbolAlgebra(abelian(p, q)),
            g0=g0_of(gl(p, q)),
            reductions=[(1, projective_trace_reduction)],
        )
        assert res.status == "stabilized"
        assert res.component_superdim(1) == (p, q)  # trace part ~ V*
        assert res.component_superdim(2) == (0, 0)
        assert validate(res.algebra) == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projective_gl_is_sl(n):
    # the projective algebra of P^n: V + gl(V) + V* = sl(n+1)
    res = prolong(
        SymbolAlgebra(abelian(n, 0)),
        g0=g0_of(gl(n, 0)),
        reductions=[(1, projective_trace_reduction)],
    )
    assert res.status == "stabilized"
    assert res.per_degree() == {-1: (n, 0), 0: (n * n, 0), 1: (n, 0), 2: (0, 0)}
    assert res.total_superdim == ((n + 1) ** 2 - 1, 0)


def test_g2_from_the_235_symbol():
    # Cartan 1910: the (2,3,5) symbol prolongs to the 14-dimensional
    # exceptional algebra G_2
    res = prolong(SymbolAlgebra(g2_symbol()))
    assert res.status == "stabilized"
    assert [sum(res.component_superdim(k)) for k in range(-3, 4)] == [
        2, 1, 2, 4, 2, 1, 2
    ]
    assert res.total_superdim == (14, 0)


@settings(max_examples=60, deadline=None)
@given(two_step_symbols())
def test_step_matches_hand_written_equations(alg):
    engine = Prolongation(SymbolAlgebra(alg))
    for i in (1, 2, 3):
        comp = engine.step(i)
        assert comp.elements == prolongation_step(engine, i)
        if not comp.elements:
            break
        # append without advance(): a random symbol need not be fundamental,
        # and the next step reads only the components
        engine.comp[i] = comp
        engine.top = i


# a symbol of the kind two_step_symbols draws whose prolongation stabilizes
# with g_1 != 0, so that every run checks a stabilized case
STABILIZING_TWO_STEP = LieSuperalgebra(
    GradedSuperSpace(
        [BasisVector("x0", -1, EVEN), BasisVector("th0", -1, ODD),
         BasisVector("th1", -1, ODD), BasisVector("y0", -2, EVEN),
         BasisVector("et0", -2, ODD)]
    ),
    {(0, 1): {4: 1}, (0, 2): {4: 2}, (1, 1): {3: 2}, (1, 2): {3: 1},
     (2, 2): {3: 2}},
)


def _symbol(names_degrees, brackets):
    return LieSuperalgebra(
        GradedSuperSpace([BasisVector(n, d, EVEN) for n, d in names_degrees]),
        brackets,
    )


def test_prolong_refuses_a_symbol_not_generated_from_degree_minus_one():
    # y in degree -2 with no bracket reaching it: refused before the first
    # step, with the witness check_fundamental_nondegenerate names
    m = _symbol([("x", -1), ("y", -2)], {})
    with pytest.raises(ProlongationError) as err:
        prolong(m)
    assert str(err.value) == "m is not fundamental: y is not generated from degree -1"
    report = check_fundamental_nondegenerate(m)
    assert report["witnesses"][0] == "not generated from degree -1: y"


def test_prolong_allows_a_fundamental_degenerate_symbol():
    # Heisenberg [x1, x2] = y plus z central in g_{-1}: fundamental but
    # degenerate, so it prolongs, here without stabilizing by degree 3
    m = _symbol([("x1", -1), ("x2", -1), ("z", -1), ("y", -2)], {(0, 1): {3: 1}})
    report = check_fundamental_nondegenerate(m)
    assert (report["fundamental"], report["nondegenerate"]) == (True, False)
    res = prolong(m, max_degree=3)
    assert (res.status, res.total_superdim) == ("truncated", (80, 0))


def test_two_step_example_stabilizes_with_nonzero_g1():
    res = prolong(STABILIZING_TWO_STEP)
    assert res.per_degree() == {-2: (1, 1), -1: (1, 2), 0: (2, 1), 1: (1, 1),
                                2: (0, 0)}


# the two refusals a random two-step symbol may meet
_REFUSED = re.compile(
    r"m is not fundamental: \S+ is not generated from degree -1$"
    r"|transitivity failure at degree"
)


@settings(max_examples=60, deadline=None)
@given(two_step_symbols())
@example(STABILIZING_TWO_STEP)
def test_stabilized_prolongation_validates(alg):
    try:
        res = prolong(alg, max_degree=3, validate_result=False)
    except ProlongationError as e:
        # a random symbol need not be fundamental, and a fundamental one
        # need not be transitive
        assert _REFUSED.match(str(e)), str(e)
        event(str(e).split(":")[0])
        return
    event(res.status)
    if res.status == "stabilized":
        assert validate(res.algebra) == []


def _assert_blocks_match_the_recursion(res):
    # every pair in either order, with its coordinates in the same order;
    # above a truncated top the recursion raises for a nonzero z, so only a
    # stabilized result is compared there
    engine = res.engine
    oracle = RecursiveBrackets(engine)
    elements = [
        (k, e) for k in sorted(engine.comp) for e in range(len(engine.comp[k].elements))
    ]
    for k, a in elements:
        for l, b in elements:
            if k + l > engine.top and res.status != "stabilized":
                continue
            got = engine.bracket_elements(k, a, l, b)
            want = oracle.bracket_elements(k, a, l, b)
            assert list(got.items()) == list(want.items())


@settings(max_examples=60, deadline=None)
@given(two_step_symbols())
@example(STABILIZING_TWO_STEP)
def test_block_brackets_match_the_recursion_on_random_symbols(alg):
    try:
        res = prolong(alg, max_degree=3, validate_result=False)
    except ProlongationError as e:
        assert _REFUSED.match(str(e)), str(e)
        return
    _assert_blocks_match_the_recursion(res)
    _assert_assembled_table_is_the_block_brackets(res)


@pytest.mark.parametrize(
    "alg, g0, max_degree",
    [(shc_symbol(), None, None), (abelian(1, 2), gl(1, 2), 4),
     (supertranslation(2), None, None)],
    ids=["shc", "gl12-deg4", "supertranslation2"],
)
def test_block_brackets_match_the_recursion(alg, g0, max_degree):
    res = prolong(
        SymbolAlgebra(alg), g0=None if g0 is None else g0_of(g0),
        max_degree=max_degree, validate_result=False,
    )
    _assert_blocks_match_the_recursion(res)


def _assert_assembled_table_is_the_block_brackets(res):
    # assemble reads the blocks row by row; bracket_elements reads one pair:
    # the assembled table is the truncated algebra's table plus each
    # nonzero canonical pair (k, a) <= (l, c), k + l <= top, at its keys
    engine = res.engine
    g, offsets = engine._truncation()
    want = dict(g.table)
    degrees = sorted(engine.comp)
    for k in degrees:
        for l in degrees[k:]:
            if k + l > engine.top:
                continue
            for a in range(len(engine.comp[k].elements)):
                for c in range(a if k == l else 0, len(engine.comp[l].elements)):
                    vec = engine.bracket_elements(k, a, l, c)
                    if vec:
                        want[(offsets[k] + a, offsets[l] + c)] = {
                            offsets[k + l] + t: s for t, s in vec.items()
                        }
    assert list(res.algebra.space) == list(g.space)
    assert res.algebra.table == want


@pytest.mark.parametrize("reductions", [None, [(1, projective_trace_reduction)]],
                         ids=["truncated-deg4", "projective"])
def test_assembled_table_matches_bracket_elements(reductions):
    # flat gl(2|1) does not stabilize, so its table to degree 4 skips the
    # blocks with k + l > 4; the projective reduction stabilizes
    res = prolong(SymbolAlgebra(abelian(2, 1)), g0=g0_of(gl(2, 1)),
                  reductions=reductions, max_degree=4, validate_result=False)
    assert res.status == ("truncated" if reductions is None else "stabilized")
    assert len(res.algebra.table) > len(res.engine._truncation()[0].table)
    _assert_assembled_table_is_the_block_brackets(res)


def _assert_truncation_matches_the_rebuild(engine):
    # the engine's one growing algebra against a from-scratch rebuild:
    # basis names, degrees, parities, offsets and canonical table
    g, offsets = engine._truncation()
    want, want_offsets = truncation(engine)
    assert offsets == want_offsets
    assert [(b.name, b.degree, b.parity) for b in g.space] == [
        (b.name, b.degree, b.parity) for b in want.space
    ]
    assert g.table == want.table


@settings(max_examples=40, deadline=None)
@given(two_step_symbols())
@example(STABILIZING_TWO_STEP)
def test_grown_truncation_matches_the_rebuild_on_random_symbols(alg):
    engine = Prolongation(SymbolAlgebra(alg))
    _assert_truncation_matches_the_rebuild(engine)
    for i in (1, 2, 3):
        try:
            engine.advance(i)
        except ProlongationError as e:
            # a random symbol need not be fundamental; g_i is appended first
            assert "transitivity failure" in str(e)
        _assert_truncation_matches_the_rebuild(engine)
        if not engine.comp[i].elements:
            break


def test_grown_truncation_follows_reductions():
    # degree 0: gl(2) cut to its scalings after the algebra grew by gl(2)
    engine = Prolongation(SymbolAlgebra(abelian(2, 0)), g0=g0_of(gl(2, 0)))
    _assert_truncation_matches_the_rebuild(engine)
    one = Scalar(1)
    engine.reduce_component(0, [(EVEN, {0: {0: one}, 1: {1: one}})])
    _assert_truncation_matches_the_rebuild(engine)
    assert len(engine._truncation()[0].space) == 3
    engine.advance(1)
    _assert_truncation_matches_the_rebuild(engine)
    # degree 1: the projective reduction of gl(2|1), S^2 V* (x) V -> V*
    engine = Prolongation(SymbolAlgebra(abelian(2, 1)), g0=g0_of(gl(2, 1)))
    engine.advance(1)
    _assert_truncation_matches_the_rebuild(engine)
    engine.reduce_component(1, projective_trace_reduction(engine))
    _assert_truncation_matches_the_rebuild(engine)
    assert len(engine._truncation()[0].space) == 3 + 9 + 3
    engine.advance(2)
    _assert_truncation_matches_the_rebuild(engine)


def test_assembled_table_is_not_changed_by_later_steps():
    res = prolong(SymbolAlgebra(abelian(1, 2)), g0=g0_of(gl(1, 2)), max_degree=3)
    assert res.status == "truncated"
    alg = res.algebra
    before = ({key: dict(vec) for key, vec in alg.table.items()}, alg.space)
    res.engine.advance(res.engine.top + 1)
    grown, _ = res.engine._truncation()
    assert len(grown.space) > len(alg.space) and grown.table is not alg.table
    assert (alg.table, alg.space) == before


def _flat_gl21(max_degree):
    return prolong(SymbolAlgebra(abelian(2, 1)), g0=g0_of(gl(2, 1)),
                   max_degree=max_degree, validate_result=False)


def test_assembled_table_is_built_on_first_read_from_a_snapshot():
    # two snapshots: at degree 4, and after g_4 is replaced by its elements
    # in reverse order (which drops its blocks and cuts the truncation)
    res = _flat_gl21(4)
    engine = res.engine
    engine.reduce_component(4, engine.comp[4].elements[::-1])
    late = engine.assemble()
    for alg in (res.algebra, late):
        assert not {"table", "raw"} & set(vars(alg))
    engine.advance(5)
    engine.reduce_component(5, engine.comp[5].elements[::-1])
    # the eager copies: fresh engines, their tables read at once
    eager = _flat_gl21(4)
    first = eager.algebra.table
    eager.engine.reduce_component(4, eager.engine.comp[4].elements[::-1])
    for alg, want in ((res.algebra, first),
                      (late, eager.engine.assemble().table)):
        assert list(alg.table.items()) == list(want.items())
        assert alg.raw == alg.table.items() and "_thunk" not in vars(alg)
    # a symbol over a thunk shares the table it builds, and its raw view
    shc = shc_symbol()
    lazy = LieSuperalgebra._canonical(shc.space, lambda: dict(shc.table), shc.field)
    m = SymbolAlgebra(lazy)
    assert m.table is lazy.table and m.raw is lazy.raw and m.table == shc.table


def test_assemble_leaves_out_the_blocks_past_an_unstabilized_top():
    # an engine advanced by hand to degree 4 has a nonzero g_4, so its
    # algebra is the truncated one that prolong returns at max_degree 4
    engine = Prolongation(SymbolAlgebra(abelian(2, 1)), g0=g0_of(gl(2, 1)))
    for i in range(1, 5):
        engine.advance(i)
    assert engine.comp[4].elements
    assert engine.assemble().table == _flat_gl21(4).algebra.table


def test_assemble_of_a_stabilized_engine_makes_every_block():
    # g_top = 0, so no block is left out: each block past top is made,
    # and so checked to vanish, and the table is prolong's
    res = prolong(SymbolAlgebra(shc_symbol()))
    engine = res.engine
    assert res.status == "stabilized" and not engine.comp[engine.top].elements
    engine._blocks.clear()
    alg = engine.assemble()
    nonzero = [k for k in engine.comp if engine.comp[k].elements]
    assert set(engine._blocks) == {(k, l) for k in nonzero for l in nonzero if k <= l}
    assert any(k + l > engine.top for k, l in engine._blocks)
    assert alg.table == res.algebra.table


def _assert_int_is_the_rebuild(engine):
    # the grown Gaussian-integer copy against _int_table of a fresh algebra
    # over the same table, entry for entry
    g = engine._g
    assert g._int is not None
    D, br, _ = LieSuperalgebra._canonical(g.space, dict(g.table), g.field)._int_table()
    assert g._int[0] == D and len(g._int[1]) == len(br)
    for a, row in enumerate(br):
        assert g._int[1][a].keys() == row.keys()
        for b in row:
            assert g._int[1][a][b] == row[b], (a, b)


def _counting_int_tables(monkeypatch, engine):
    # the _int_table calls on the engine's truncated algebra, by outcome
    calls = {"rebuilt": 0, "grown": 0, "dropped": 0}
    original = LieSuperalgebra._int_table

    def counted(self, keys=None):
        out = original(self, keys)
        if self is engine._g:
            calls["rebuilt" if keys is None else "grown" if out else "dropped"] += 1
        return out
    monkeypatch.setattr(LieSuperalgebra, "_int_table", counted)
    return calls


def test_grown_int_table_matches_the_rebuild(monkeypatch):
    # flat gl(2|1): built once at the first step, grown at every later one
    engine = Prolongation(SymbolAlgebra(abelian(2, 1)), g0=g0_of(gl(2, 1)))
    calls = _counting_int_tables(monkeypatch, engine)
    for i in range(1, 5):
        engine.advance(i)
        _assert_int_is_the_rebuild(engine)
    assert calls == {"rebuilt": 1, "grown": 3, "dropped": 0}


def test_grown_int_table_is_dropped_on_a_cut(monkeypatch):
    # step(2) grows the copy by the unreduced g_1; the projective reduction
    # of g_1 then cuts the truncation there, and the next step rebuilds it
    engine = Prolongation(SymbolAlgebra(abelian(2, 1)), g0=g0_of(gl(2, 1)))
    calls = _counting_int_tables(monkeypatch, engine)
    engine.advance(1)
    engine.step(2)
    _assert_int_is_the_rebuild(engine)
    engine.reduce_component(1, projective_trace_reduction(engine))
    engine.advance(2)
    _assert_int_is_the_rebuild(engine)
    assert calls == {"rebuilt": 2, "grown": 1, "dropped": 0}


def test_grown_int_table_is_rebuilt_after_a_new_denominator(monkeypatch):
    # the g_1 of the SHC symbol has a denominator that does not divide the
    # D = 2 of m + g_0 (D is 6 after it), so growing by it drops the copy
    # and the step rebuilds it; g_2 and g_3 are grown in
    engine = Prolongation(SymbolAlgebra(shc_symbol()))
    calls = _counting_int_tables(monkeypatch, engine)
    i = 0
    while not i or engine.comp[i].elements:
        i += 1
        engine.advance(i)
        _assert_int_is_the_rebuild(engine)
    assert engine._g._int[0] == 6 and i == 4
    assert calls == {"rebuilt": 2, "grown": 2, "dropped": 1}


def test_growing_or_cutting_the_truncation_leaves_new_empty_ranks():
    # the Spencer ranks live in the integer copy: a step that grows nothing
    # keeps them, a growth or a cut leaves an empty dict in a new copy
    engine = Prolongation(SymbolAlgebra(abelian(2, 1)), g0=g0_of(gl(2, 1)))
    engine.advance(1)
    g = engine._truncation()[0]
    cohomology_dims(0, 1, g)
    kept = g._int
    assert kept[2]
    engine.step(2)
    assert g._int is kept
    engine.advance(2)
    assert engine._truncation()[0] is g
    assert g._int is not kept and g._int[2] == {}
    # a cut: the projective g_1 after step(2) grew the copy by the full g_1
    engine = Prolongation(SymbolAlgebra(abelian(2, 1)), g0=g0_of(gl(2, 1)))
    engine.advance(1)
    engine.step(2)
    g = engine._g
    cohomology_dims(0, 1, g)
    assert g._int[2]
    engine.reduce_component(1, projective_trace_reduction(engine))
    assert g._int is None and len(g.space) == 3 + 9
    engine.advance(2)
    assert g._int[2] == {} and len(g.space) == 3 + 9 + 3
    _assert_int_is_the_rebuild(engine)


def _read_only_tables():
    # (name, algebra whose table is read) for each way an algebra is made
    res = prolong(SymbolAlgebra(abelian(2, 1)), g0=g0_of(gl(2, 1)),
                  reductions=[(1, projective_trace_reduction)],
                  validate_result=False)
    unread = res.engine.assemble()
    assert "_thunk" in vars(unread)
    yield "assembled-unread", unread
    yield "assembled-read", res.algebra
    yield "constructor", LieSuperalgebra(
        GradedSuperSpace([BasisVector("x", -1, EVEN), BasisVector("y", -1, EVEN),
                          BasisVector("z", -2, EVEN)]), {(1, 0): {2: -1}})
    yield "symbol", SymbolAlgebra(shc_symbol())
    yield "catalog", gl(2, 1)
    yield "read_algebra", read_algebra(gl(2, 1).to_json())
    yield "truncation", res.engine._truncation()[0]


def test_every_table_is_read_only():
    # setting or deleting a key raises TypeError, and the table is unchanged
    for name, alg in _read_only_tables():
        table = alg.table
        before = dict(table)
        key = next(iter(before))
        with pytest.raises(TypeError):
            table[key] = {}
        with pytest.raises(TypeError):
            table[(0, 0)] = {0: Scalar(1)}
        with pytest.raises(TypeError):
            del table[key]
        assert alg.table is table and dict(table) == before, name


@pytest.mark.parametrize("degree", [True, 1.0])
def test_reduce_component_refuses_a_degree_before_it_touches_the_engine(degree):
    # a bool or a float equal to 1 is refused before g_1 is replaced or the
    # degree recorded
    engine = Prolongation(SymbolAlgebra(abelian(2, 1)), g0=g0_of(gl(2, 1)))
    engine.advance(1)
    g1 = engine.comp[1]
    with pytest.raises(ProlongationError) as exc:
        engine.reduce_component(degree, [])
    assert str(exc.value) == "degree must be an int >= 0, got %r" % (degree,)
    assert engine.comp[1] is g1 and engine.reduced_at == []


def test_zero_coefficients_of_a_g0_action_are_no_entries():
    # as in the matrix form, an explicit zero is no entry: it neither breaks
    # parity-homogeneity (X -> th1) nor reaches the structure constants
    # (an all-zero image of X)
    padded = [(p, {b: dict(col) for b, col in act.items()})
              for p, act in odd_ode_scalings(3)]
    padded[0][1][0][1] = Scalar(0)
    padded[1][1][0] = {0: Scalar(0)}
    m = SymbolAlgebra(odd_ode_symbol(3))
    assert prolong(m, g0=padded).to_json(include_algebra=True) == prolong(
        m, g0=odd_ode_scalings(3)
    ).to_json(include_algebra=True)


def test_validate_checks_the_degree_of_an_assembled_entry():
    # one order per pair and no raw copy: a wrong-degree entry in a table
    # built on first read, as an assembled one is, is still read by the
    # degree check
    res = prolong(SymbolAlgebra(abelian(2, 1)), g0=g0_of(gl(2, 1)),
                  reductions=[(1, projective_trace_reduction)])
    alg = res.algebra
    assert validate(alg) == []
    space = alg.space
    (a, b), vec = next(iter(alg.table.items()))
    c = next(
        c for c, v in enumerate(space)
        if v.degree != space[a].degree + space[b].degree
        and v.parity == (space[a].parity + space[b].parity) % 2
    )
    table = dict(alg.table)
    table[(a, b)] = {c: Scalar(1)}
    edited = LieSuperalgebra._canonical(space, lambda: table, alg.field)
    report = validate(edited)
    kinds = [(r["kind"], r["where"]) for r in report]
    assert ("degree", (space[a].name, space[b].name, space[c].name)) in kinds
    assert "parity" not in {kind for kind, _ in kinds}
    # the Jacobi check reads the edited table, as a fresh algebra over it
    # does, and the assembled algebra is left as it was
    jacobi = [r for r in report if r["kind"] == "jacobi"]
    fresh = LieSuperalgebra._canonical(space, dict(table), alg.field)
    assert jacobi == [r for r in validate(fresh) if r["kind"] == "jacobi"]
    assert len(jacobi) == 78
    assert validate(alg) == [] and alg.table[(a, b)] == vec


@pytest.mark.parametrize("g0, shape", [(gl(2, 2), "4x4"), (gl(1, 1), "2x2")])
def test_g0_matrices_must_be_dim_m_square(g0, shape):
    # m = R^{2|1}: E14 of gl(2|2) reaches basis index 3; gl(1|1) stays inside
    # 0..2, but its odd E12 maps the even x2 to the even x1
    message = {
        "4x4": "g0 element 3 acts on basis index 3, outside 0..2 (dim m)",
        "2x2": "g0 element 1 is not parity-homogeneous",
    }[shape]
    with pytest.raises(ProlongationError) as exc:
        Prolongation(abelian(2, 1), g0=g0_of(g0))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "action, index",
    [({-1: {-2: _ONE}}, -1), ({0: {-1: _ONE}}, -1), ({-2: {0: _ONE}}, -2),
     ({0: {2: _ONE}}, 2), ({5: {0: _ONE}}, 5)],
    ids=["negative-both", "negative-target", "negative-source",
         "target-n", "source-past-n"],
)
def test_g0_index_outside_m_is_refused(action, index):
    # m = R^{2|0}: basis indices 0 and 1; element 1 is at fault
    with pytest.raises(ProlongationError) as exc:
        Prolongation(abelian(2, 0), g0=[(EVEN, {0: {0: _ONE}}), (EVEN, action)])
    assert str(exc.value) == (
        "g0 element 1 acts on basis index %d, outside 0..1 (dim m)" % index
    )


@pytest.mark.parametrize("parity", [2, -1, True, 1.0, "odd", None])
def test_g0_parity_must_be_0_or_1(parity):
    # a parity of 2 used to be read as odd: on m = R^{1|0}, g0 = the identity
    # with parity 2 prolonged to (10|1), where parity 0 gives (11|0)
    g0 = [(EVEN, {0: {0: _ONE}}), (parity, {1: {1: _ONE}})]
    with pytest.raises(ProlongationError) as exc:
        Prolongation(abelian(2, 0), g0=g0)
    assert str(exc.value) == "g0 element 1 has parity %r, expected 0 or 1" % (parity,)


@pytest.mark.parametrize(
    "action",
    [[[1, 0], [0, 1]], {0: [1, 0]}, {0: {0: 1}, 1: None}, "E22"],
    ids=["dense-matrix", "list-column", "none-column", "string"],
)
def test_g0_action_must_be_a_dict_of_dicts(action):
    # a dense matrix used to end in AttributeError
    with pytest.raises(ProlongationError) as exc:
        Prolongation(abelian(2, 0), g0=[(EVEN, {0: {0: _ONE}}), (EVEN, action)])
    assert str(exc.value) == (
        "g0 element 1 is not an action {src: {dst: coefficient}}"
    )


def test_g0_coefficients_may_be_ints_or_fractions():
    # the grading derivation of R^{2|0}, its coefficients given three ways;
    # a float is refused as everywhere else
    m = SymbolAlgebra(abelian(2, 0))
    results = [
        prolong(m, g0=[(EVEN, {0: {0: one}, 1: {1: one}})]).to_json(include_algebra=True)
        for one in (_ONE, 1, Fraction(1))
    ]
    assert results[1] == results[2] == results[0]
    with pytest.raises(TypeError):
        Prolongation(m, g0=[(EVEN, {0: {0: 1.0}})])


def _unit(c=1):
    return (EVEN, {0: {0: Scalar(c)}})


@pytest.mark.parametrize(
    "g0",
    [[_unit(), _unit()], [_unit(), _unit(2)], g0_of(gl(1, 0)) * 2],
    ids=["e-e", "e-2e", "gl10-twice"],
)
def test_dependent_g0_elements_are_refused(g0):
    # counting each copy would double every g_k: (2|0) in degrees 0..3
    m = SymbolAlgebra(abelian(1, 0))
    assert prolong(m, g0=g0[:1], max_degree=3).component_superdim(0) == (1, 0)
    with pytest.raises(ProlongationError) as exc:
        Prolongation(m, g0=g0)
    assert str(exc.value) == "g0 element 1 lies in the span of the elements before it"
    # a zero element lies in the span of none
    with pytest.raises(ProlongationError, match="^g0 element 0 lies in the span"):
        Prolongation(m, g0=[(EVEN, {})] + g0)


def test_incompatible_reduction_rejected():
    # a non-gl(V)-invariant line inside g_1 must be refused
    m = SymbolAlgebra(abelian(2, 0))

    def bad_reduction(engine):
        par, action = engine.comp[1].elements[0]
        return [(par, {b: dict(v) for b, v in action.items()})]

    with pytest.raises(ProlongationError, match="does not lie in g_1"):
        prolong(m, g0=g0_of(gl(2, 0)), reductions=[(1, bad_reduction)])


def test_g0_not_closed_under_the_bracket_names_the_two_elements():
    # E12 and E21 of gl(2) alone: [E12, E21] = E11 - E22 lies outside their
    # span, and no reduction was applied
    m = SymbolAlgebra(abelian(2, 0))
    one = Scalar(1)
    e12 = (EVEN, {1: {0: one}})
    e21 = (EVEN, {0: {1: one}})
    with pytest.raises(ProlongationError) as exc:
        Prolongation(m, g0=[e12, e21])
    assert str(exc.value) == (
        "g0 is not closed under the bracket: the bracket of g0 elements "
        "0 and 1 does not lie in g0"
    )


@pytest.mark.parametrize(
    "alg, g0, max_degree",
    [(shc_symbol(), None, None), (abelian(1, 2), gl(1, 2), 4)],
    ids=["shc", "gl12-deg4"],
)
def test_brackets_are_super_antisymmetric_in_either_order(alg, g0, max_degree):
    # only canonical pairs are cached, and the other order is their sign
    # flip; the assembled algebra derives each reversed pair by its own
    # sign rule, so the two must agree on every pair in either order
    res = prolong(
        SymbolAlgebra(alg), g0=None if g0 is None else g0_of(g0),
        max_degree=max_degree, validate_result=False,
    )
    engine = res.engine
    _, offsets = engine._truncation()
    elements = [
        (k, e, p)
        for k in sorted(engine.comp)
        for e, (p, _) in enumerate(engine.comp[k].elements)
    ]
    assert len(elements) > 10
    for k, a, pa in elements:
        for l, b, pb in elements:
            if k + l > engine.top:
                continue
            got = engine.bracket_elements(k, a, l, b)
            sign = 1 if pa == ODD and pb == ODD else -1
            assert got == {
                t: sign * s for t, s in engine.bracket_elements(l, b, k, a).items()
            }
            glob = {offsets[k + l] + t: s for t, s in got.items()}
            assert glob == res.algebra.bracket_indices(offsets[k] + a, offsets[l] + b)


def test_reduction_outside_component_rejected():
    # u(e_1) = E12, u(e_2) = 0 is not symmetric (u(e_1)e_2 = e_1 while
    # u(e_2)e_1 = 0), so it is not in g_1 = S^2 V* (x) V for g_0 = gl(2)
    engine = Prolongation(SymbolAlgebra(abelian(2, 0)), g0=g0_of(gl(2, 0)))
    engine.advance(1)
    inside = list(engine.comp[1].elements)
    outside = (EVEN, {0: {1: Scalar(1)}})
    with pytest.raises(ProlongationError,
                       match="^reduction element 6 is not inside the computed g_1$"):
        engine.reduce_component(1, inside + [outside])
    engine.reduce_component(1, inside)
    assert engine.comp[1].elements == inside


@pytest.mark.parametrize(
    "args, message",
    [((1, 5, 1, 6), "no element 6 of degree 1: g_1 has 6 elements"),
     ((1, -1, 1, 0), "no element -1 of degree 1: g_1 has 6 elements"),
     ((1, True, 1, 0), "no element True of degree 1: g_1 has 6 elements"),
     ((1, 0, 1, 99), "no element 99 of degree 1: g_1 has 6 elements"),
     ((1, 0.5, 1, 0), "no element 0.5 of degree 1: g_1 has 6 elements"),
     ((7, 0, 0, 0), "no element 0 of degree 7: degree outside 0..4"),
     ((0, 0, -1, 0), "no element 0 of degree -1: degree outside 0..4"),
     ((True, 0, 0, 0), "no element 0 of degree True: degree outside 0..4"),
     ((4, 0, 0, 0), "no element 0 of degree 4: g_4 has 0 elements")],
    ids=["index-dim", "index-negative", "index-bool", "index-past-dim",
         "index-float", "degree-past-top", "degree-negative", "degree-bool",
         "empty-component"],
)
def test_bracket_elements_refuses_bad_indices(args, message):
    # SHC has g_0..g_4 of dims 9, 6, 3, 2, 0; -1 used to wrap to element 5
    # and read below the diagonal of block (1, 1), True was read as 1
    engine = prolong(SymbolAlgebra(shc_symbol())).engine
    assert engine.bracket_elements(1, 5, 1, 0) == {2: Scalar(-1)}
    with pytest.raises(ProlongationError) as exc:
        engine.bracket_elements(*args)
    assert str(exc.value) == message


def _gl_engine(p, q, degree):
    engine = Prolongation(SymbolAlgebra(abelian(p, q)), g0=g0_of(gl(p, q)))
    for i in range(1, degree + 1):
        engine.advance(i)
    return engine


def test_reduction_coefficients_may_be_ints_or_fractions():
    # the projective V* inside g_1 = S^2 V* (x) V of flat gl(2), its
    # integral coefficients given three ways
    engine = _gl_engine(2, 0, 1)
    trace = projective_trace_reduction(engine)
    got = []
    for conv in (lambda s: s, lambda s: int(s.re), lambda s: Fraction(s.re)):
        engine = _gl_engine(2, 0, 1)
        engine.reduce_component(1, [
            (p, {b: {t: conv(s) for t, s in col.items()} for b, col in act.items()})
            for p, act in trace
        ])
        got.append(engine.comp[1].elements)
    assert got == [trace] * 3


@pytest.mark.parametrize(
    "p, q, degree, subspace, message",
    [(2, 0, 1, [(5, {0: {0: _ONE}})], "reduction element 0 has parity 5, expected 0 or 1"),
     (2, 0, 1, [(EVEN, {0: {0: _ONE}}), (True, {0: {0: _ONE}})],
      "reduction element 1 has parity True, expected 0 or 1"),
     (2, 0, 1, [(EVEN, [[1, 0]])],
      "reduction element 0 is not an action {src: {dst: coefficient}}"),
     (2, 0, 1, [(ODD, {0: {0: _ONE}})], "reduction element 0 does not have parity 1"),
     (2, 1, 1, [(EVEN, {0: {0: _ONE, 6: _ONE}})],
      "reduction element 0 does not have parity 0"),
     (2, 0, 1, [(EVEN, {2: {0: _ONE}})],
      "reduction element 0 acts on basis index 2, outside 0..1 (dim m)"),
     (2, 1, 1, [(EVEN, {3: {2: _ONE}})],
      "reduction element 0 acts on basis index 3, outside 0..2 (dim m)"),
     (2, 0, 1, [(EVEN, {-1: {0: _ONE}})],
      "reduction element 0 acts on basis index -1, outside 0..1 (dim m)"),
     (2, 0, 1, [(EVEN, {0: {4: _ONE}})],
      "reduction element 0 sends basis index 0 to 4, not an index of g_0"),
     (2, 0, 1, [(EVEN, {0: {True: _ONE}})],
      "reduction element 0 sends basis index 0 to True, not an index of g_0"),
     (2, 0, 0, [(EVEN, {0: {2: _ONE}})],
      "reduction element 0 sends basis index 0 to 2, not an index of g_-1"),
     (2, 0, 1, [(EVEN, {0: {0: _ONE}}), (EVEN, {0: {0: Scalar(2)}})],
      "reduction element 1 lies in the span of the elements before it"),
     (2, 0, 1, [(EVEN, {})], "reduction element 0 lies in the span of the elements before it")],
    ids=["parity-5", "parity-bool", "not-an-action", "odd-label-even-action",
         "mixed-parity-action", "source-n", "source-aliases-a-key", "source-negative",
         "target-past-g0", "target-bool", "target-outside-m", "repeated", "zero"],
)
def test_reduction_subspace_is_checked(p, q, degree, subspace, message):
    # these used to crash, be read as another element, or be reported as a
    # violated reduction compatibility; on flat gl(2|1), elements 0 and 8 of
    # g_1 are even and odd, and the source index 3 aliases a key of g_1
    engine = _gl_engine(p, q, degree)
    before = list(engine.comp[degree].elements)
    with pytest.raises(ProlongationError) as exc:
        engine.reduce_component(degree, subspace)
    assert str(exc.value) == message
    assert engine.comp[degree].elements == before


def test_reducing_a_component_below_the_top_is_rejected():
    # g_2 acts in the coordinates of g_1, so replacing g_1 after g_2 is
    # computed would leave g_2 pointing at the old coordinates
    engine = Prolongation(SymbolAlgebra(abelian(2, 0)), g0=g0_of(gl(2, 0)))
    engine.advance(1)
    engine.advance(2)
    g1 = list(engine.comp[1].elements)
    with pytest.raises(ProlongationError, match="component 1 lies below the computed g_2"):
        engine.reduce_component(1, projective_trace_reduction(engine))
    assert engine.comp[1].elements == g1
    # m + gl(2) + S^2 V* (x) V + S^3 V* (x) V
    assert len(engine.assemble().space) == 2 + 4 + 6 + 8


def _catalog_snapshot(alg):
    """Structure constants of a catalog algebra plus its defining matrices,
    each entry as a "p/q" string."""
    n = sum(alg.rep_shape)
    return {
        "algebra": alg.to_json(),
        "rep": [
            [[e.to_str() for e in row] for row in dense(alg.rep[k], n)]
            for k in range(len(alg.space))
        ],
    }


# Structure constants of assembled prolongations, recorded before the
# coordinate solve was made sparse, and of the catalog matrix families,
# recorded before their brackets moved to sparse matrix products, and of the
# supertranslation symbols N = 1..3, recorded before each Gamma was computed
# once; any change in a kernel basis, a pivot order or a bracket coordinate
# shows up here.
SNAPSHOTS = {
    "projective_gl_2_1": lambda: prolong(
        SymbolAlgebra(abelian(2, 1)), g0=g0_of(gl(2, 1)),
        reductions=[(1, projective_trace_reduction)],
    ).to_json(include_algebra=True),
    "gl_1_1_deg4": lambda: prolong(
        SymbolAlgebra(abelian(1, 1)), g0=g0_of(gl(1, 1)), max_degree=4
    ).to_json(include_algebra=True),
    "shc": lambda: prolong(SymbolAlgebra(shc_symbol())).to_json(include_algebra=True),
    "supertranslation_2": lambda: prolong(
        SymbolAlgebra(supertranslation(2))
    ).to_json(include_algebra=True),
    "catalog_gl_2_1": lambda: _catalog_snapshot(gl(2, 1)),
    "catalog_sl_3_2": lambda: _catalog_snapshot(sl(3, 2)),
    "catalog_sl_graded_2_2": lambda: _catalog_snapshot(
        sl(2, 2, weights=[-1, -2, -3, -4])
    ),
    "catalog_osp_3_2": lambda: _catalog_snapshot(osp(3, 2)),
    "catalog_spo_2_3": lambda: _catalog_snapshot(spo(2, 3)),
    "catalog_pe_3": lambda: _catalog_snapshot(pe(3)),
    "catalog_spe_2": lambda: _catalog_snapshot(spe(2)),
    "catalog_cpe_2": lambda: _catalog_snapshot(cpe(2)),
    "catalog_cspe_2": lambda: _catalog_snapshot(cspe(2)),
    "catalog_pe_sk_3": lambda: _catalog_snapshot(pe(3, skew=True)),
    "catalog_spe_sk_2": lambda: _catalog_snapshot(spe(2, skew=True)),
    "catalog_cpe_sk_2": lambda: _catalog_snapshot(cpe(2, skew=True)),
    "catalog_cspe_sk_2": lambda: _catalog_snapshot(cspe(2, skew=True)),
    "catalog_spe_ab_2_1_2": lambda: _catalog_snapshot(spe_ab(2, 1, 2)),
    "catalog_spe_ab_sk_2_1_3": lambda: _catalog_snapshot(spe_ab(2, 1, 3, skew=True)),
    "catalog_supertranslation": lambda: {
        str(N): supertranslation(N).to_json() for N in (1, 2, 3)
    },
}


@pytest.mark.parametrize("name", sorted(SNAPSHOTS))
def test_assembled_structure_constants_unchanged(name):
    path = Path(__file__).parent / "data" / ("%s.json" % name)
    want = json.loads(path.read_text())
    got = json.loads(json.dumps(SNAPSHOTS[name]()))
    assert got == want


# sha256 of the sorted JSON of the flat W(p|q) tables truncated at degree 9,
# 13,705 and 2,455 brackets: every block bracket of degree up to 9 is in them,
# so a sign or a coordinate key of the block kernel that goes wrong shows here
FLAT_GL_TABLES = {
    (2, 1): "7e9b000b68e720303ca13408bb9e3f3314014e321e5b8fcc5317459cca76b345",
    (1, 2): "c150973a36f106a238776ecc00536a836ea025bf4344c83fc58869e33b266106",
}


@pytest.mark.parametrize("p, q", sorted(FLAT_GL_TABLES), ids=["gl21", "gl12"])
def test_flat_gl_tables_to_degree_9_are_pinned(p, q):
    res = prolong(SymbolAlgebra(abelian(p, q)), g0=g0_of(gl(p, q)))
    assert (res.status, res.max_degree) == ("truncated", 9)
    text = json.dumps(res.algebra.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == FLAT_GL_TABLES[(p, q)]


def test_spencer_prolong_cross_check_odd_ode():
    res = prolong(SymbolAlgebra(odd_ode_symbol(2)), g0=odd_ode_scalings(2))
    g = res.algebra
    for i in (1, 2, 3):
        sl = CochainSlice(g, i, 1)
        ker = len(sl.basis) - rank_rows(sl.matrix_rows)
        assert ker == sum(res.component_superdim(i))


def test_heisenberg_contact_prolongation_is_infinite_growth():
    # purely even contact symbol: pr = contact algebra, does not stabilize
    m = SymbolAlgebra(heisenberg_contact(2, 0))
    res = prolong(m, max_degree=4, validate_result=False)
    assert res.status == "truncated"
    assert all(
        sum(res.component_superdim(k)) > 0 for k in range(1, 5)
    )


def test_spo_purely_odd_totals():
    for n in (2, 3):
        res = prolong(SymbolAlgebra(abelian(0, n)), g0=g0_of(spo(0, n)))
        t = res.total_superdim
        assert t[0] + t[1] == 2 ** n - 1
        assert res.status == "stabilized"


def test_g0_must_be_derivations():
    m = SymbolAlgebra(odd_ode_symbol(2))
    bad = {0: {2: Scalar(1)}}  # X -> th2 has degree -1, not 0
    with pytest.raises(ProlongationError):
        Prolongation(m, g0=[(EVEN, bad)])


@pytest.mark.parametrize(
    "bad, message",
    [
        ((EVEN, {0: {4: _ONE}}), "g0 element 1 is not of degree 0"),
        ((ODD, {0: {0: _ONE}}), "g0 element 1 is not parity-homogeneous"),
        ((EVEN, {2: {2: _ONE}}),
         "g0 element 1 is not a derivation of m (fails on pair th1, th1)"),
        ((EVEN, {0: {0: _ONE}}),
         "g0 element 1 is not a derivation of m (fails on pair x1, x2)"),
        ((ODD, {0: {2: _ONE}}),
         "g0 element 1 is not a derivation of m (fails on pair x1, th1)"),
    ],
    ids=["degree", "parity", "even-on-odd-pair", "even-on-even-pair", "odd"],
)
def test_g0_check_names_element_and_pair(bad, message):
    # basis x1, x2, th1, th2 (degree -1), Z (degree -2); element 0 is the
    # grading derivation, element 1 is at fault
    m = SymbolAlgebra(heisenberg_contact(2, 2))
    euler = (EVEN, {b: {b: Scalar(1 if b < 4 else 2)} for b in range(5)})
    with pytest.raises(ProlongationError) as exc:
        Prolongation(m, g0=[euler, bad])
    assert str(exc.value) == message


def _zero(engine):
    return []


@pytest.mark.parametrize("kwargs, message", [
    ({"max_degree": -1}, "max_degree must be an int >= 0, got -1"),
    ({"max_degree": 2.5}, "max_degree must be an int >= 0, got 2.5"),
    ({"max_degree": True}, "max_degree must be an int >= 0, got True"),
    ({"max_degree": "3"}, "max_degree must be an int >= 0, got '3'"),
    ({"reductions": [(1.0, _zero)]},
     "reduction 0 has degree 1.0, not an int in 0..3 (max_degree)"),
    ({"reductions": [(1, _zero), (12, _zero)]},
     "reduction 1 has degree 12, not an int in 0..3 (max_degree)"),
    ({"reductions": [(-3, _zero)]},
     "reduction 0 has degree -3, not an int in 0..3 (max_degree)"),
    ({"reductions": [(True, _zero)]},
     "reduction 0 has degree True, not an int in 0..3 (max_degree)"),
    ({"reductions": [1]}, "reduction 0 is not a (degree, callable) pair"),
    ({"reductions": [(1, None)]}, "reduction 0 is not callable"),
], ids=["deg-1", "deg2.5", "degTrue", "deg'3'", "red1.0", "red12", "red-3",
        "redTrue", "red[1]", "red(1,None)"])
def test_prolong_refuses_bad_run_arguments(kwargs, message):
    # refused before the first step; 1.0 used to run as degree 1, 12 and
    # -3 were dropped silently, and '3', [1] and (1, None) raised TypeError
    kwargs.setdefault("max_degree", 3)
    with pytest.raises(ProlongationError) as exc:
        prolong(SymbolAlgebra(abelian(2, 1)), g0=g0_of(gl(2, 1)), **kwargs)
    assert str(exc.value) == message


def test_a_reduction_past_the_stabilization_is_listed_unreached():
    # SHC stabilizes at degree 4, so a reduction at 6 never runs
    m = SymbolAlgebra(shc_symbol())
    base = prolong(m)
    assert "unreached_reductions" not in base.metadata
    res = prolong(m, reductions=[(6, _zero), (4, _zero), (6, _zero)])
    assert res.stabilized_at == base.stabilized_at == 4
    assert res.metadata["reductions"] == [4]
    assert res.metadata.pop("unreached_reductions") == [6, 6]
    assert res.to_json(include_algebra=True) == dict(
        base.to_json(include_algebra=True),
        metadata=dict(base.metadata, reductions=[4]))


def _line():
    return SymbolAlgebra(abelian(1, 0))


def _never(value):
    return False


# (the argument, a call with it, the start of its refusal, the drawn values
# that are valid there); m = R^{1|0}, so no call computes much
_CHECKED_ARGUMENTS = [
    ("max_degree", lambda v: prolong(_line(), max_degree=v), "max_degree ",
     lambda v: v is None),
    ("reduction", lambda v: prolong(_line(), reductions=[v], max_degree=2),
     "reduction 0 ", _never),
    ("reduction-degree",
     lambda v: prolong(_line(), reductions=[(v, _zero)], max_degree=2),
     "reduction 0 ", _never),
    ("cohomology_dims-d", lambda v: cohomology_dims(v, 1, _line()), "d ",
     lambda v: type(v) is int),
    ("cohomology_dims-k", lambda v: cohomology_dims(0, v, _line()), "k ", _never),
    ("derivations_gr-d", lambda v: derivations_gr(_line(), v), "d ",
     lambda v: type(v) is int),
    ("exterior_power_basis-k", lambda v: exterior_power_basis(_line().space, v),
     "k ", _never),
    ("CochainSlice-k", lambda v: CochainSlice(_line(), 0, v), "k ", _never),
    ("cochain_basis-d", lambda v: cochain_basis(_line(), v, 1), "d ",
     lambda v: type(v) is int),
    ("one_cocycles-d", lambda v: one_cocycles(_line(), v), "d ",
     lambda v: type(v) is int),
    ("gl-p", lambda v: gl(v, 0), "dimensions must be", _never),
    ("pe-n", lambda v: pe(v), "dimensions must be", _never),
    ("abelian-q", lambda v: abelian(0, v), "dimensions must be", _never),
    ("odd_ode_symbol-order", lambda v: odd_ode_symbol(v), "order ", _never),
    ("odd_ode_scalings-order", lambda v: odd_ode_scalings(v), "order ", _never),
    ("supertranslation-N", lambda v: supertranslation(v), "N ", _never),
    ("JetContext-p", lambda v: JetContext(v), "p ", _never),
    ("prolong_field-r",
     lambda v: prolong_field(parse_jet(JetContext(1), "xi"), v),
     "prolongation order ", _never),
    ("OdeSpec-order", lambda v: OdeSpec(v, "xi"), "order ", _never),
    ("OdeSpec-poly_degree", lambda v: OdeSpec(3, "xi2", poly_degree=v),
     "poly_degree ", _never),
    ("Prolongation.step-i", lambda v: Prolongation(_line()).step(v), "i ",
     lambda v: type(v) is int),
    ("Prolongation.advance-i", lambda v: Prolongation(_line()).advance(v), "i ",
     lambda v: type(v) is int),
    ("Prolongation.reduce_component-degree",
     lambda v: Prolongation(_line()).reduce_component(v, []), "degree ", _never),
    ("Ambient-degree_cap", lambda v: Ambient(["x"], [], degree_cap=v),
     "degree_cap ", _never),
    ("ProlongationResult.component_superdim-k",
     lambda v: prolong(_line(), max_degree=1).component_superdim(v), "k ",
     lambda v: type(v) is int),
]


@pytest.mark.parametrize("what, call, name, valid", _CHECKED_ARGUMENTS,
                         ids=[case[0] for case in _CHECKED_ARGUMENTS])
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_degree_like_arguments_are_refused_by_name(what, call, name, valid, data):
    # a bool, float, str, None or negative int; a RecursionError,
    # IndexError, KeyError, AttributeError or ZeroDivisionError propagates
    # and fails the test
    value = data.draw(st.one_of(
        st.booleans(), st.floats(), st.text(max_size=3), st.none(),
        st.integers(max_value=-1),
    ).filter(lambda v: not valid(v)))
    event(type(value).__name__)
    with pytest.raises((ValueError, TypeError)) as exc:
        call(value)
    assert str(exc.value).startswith(name), (what, value, str(exc.value))


def test_the_package_attribute_prolong_is_the_function():
    # the re-exported function shadows the submodule, which is reached by
    # its full name
    import importlib
    import superprolong
    module = importlib.import_module("superprolong.prolong")
    assert superprolong.prolong is prolong is module.prolong
    assert module.Prolongation is Prolongation
