import json
import random
from itertools import combinations_with_replacement
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings

from superprolong.scalars import Scalar
from superprolong.superspace import EVEN, ODD, BasisVector, GradedSuperSpace
from superprolong.catalog import (
    abelian,
    build_named,
    gl,
    odd_ode_scalings,
    odd_ode_symbol,
    shc_symbol,
    supertranslation,
)
from superprolong.liesuper import LieSuperalgebra, SymbolAlgebra
from superprolong.prolong import Prolongation, projective_trace_reduction, prolong
from superprolong.spencer import (
    CochainSlice,
    _cochains,
    _stream_rows,
    cochain_basis,
    cohomology_dims,
    reduced_differential_check,
)
from superprolong.linalg import _echelon, rank_rows

from conftest import delta_squared_rows, g0_of, g2_symbol, two_step_symbols
from oracles import (
    differential_formula,
    naive_rank,
    reduced_p_injective,
    scalar_differential_rows,
)


def slice_dims(g, d, k):
    b = cochain_basis(g, d, k)
    return len(b)


def test_delta_squared_is_zero_everywhere():
    cases = [
        build_named("sl_graded:2|1"),
        shc_symbol(),
        prolong(
            SymbolAlgebra(odd_ode_symbol(3)), g0=odd_ode_scalings(3)
        ).algebra,
    ]
    rows = 0
    for g in cases:
        degs = [b.degree for b in g.space]
        dmin, dmax = min(degs) + 2, max(degs) + 3 * max(-d for d in degs if d < 0)
        for d in range(dmin, dmax + 1):
            for k in (0, 1, 2):
                bad, n = delta_squared_rows(g, d, k)
                assert not bad, (d, k, bad[:3])
                rows += n
    assert rows == 11227  # product rows over all three cases


def test_differential_is_superalternating():
    # the k = 1 formula of the spencer docstring, for a basis cochain
    # w = x_t* (x) e_b of parity |w|, evaluated by direct brackets:
    #   (dw)(x_i, x_j) = (-1)^{|x_i||w|} [x_i, w(x_j)]
    #     - (-1)^{|x_i||x_j| + |x_j||w|} [x_j, w(x_i)] - w([x_i, x_j])
    g = shc_symbol()
    par = [b.parity for b in g.space]
    checked = 0
    for d in (0, 1, 2):
        sl = CochainSlice(g, d, 1)
        for c, ((t,), b, pw) in enumerate(sl.basis):
            for r, ((i, j), e, _) in enumerate(sl.target):
                want = Scalar(0)
                if j == t:
                    s = -1 if par[i] and pw else 1
                    want = want + Scalar(s) * g.bracket_indices(i, b).get(e, Scalar(0))
                if i == t:
                    s = -1 if (par[i] * par[j] + par[j] * pw) % 2 else 1
                    want = want - Scalar(s) * g.bracket_indices(j, b).get(e, Scalar(0))
                if e == b:
                    want = want - g.bracket_indices(i, j).get(t, Scalar(0))
                assert sl.matrix_rows[r].get(c, Scalar(0)) == want, (d, t, b, i, j, e)
                checked += bool(want)
    assert checked


def _projective(p, q):
    """The flat projective structure pr(R^{p|q}, gl(p|q)) with the trace
    reduction in degree 1: sl(p+1|q) with its contact grading."""
    return prolong(
        SymbolAlgebra(abelian(p, q)),
        g0=g0_of(gl(p, q)),
        reductions=[(1, projective_trace_reduction)],
    ).algebra


@pytest.mark.parametrize(
    "g, nonzero",
    [
        # Cartan 1910: the harmonic curvature of a generic rank-2
        # distribution on a 5-manifold is a binary quartic
        (lambda: prolong(SymbolAlgebra(g2_symbol())).algebra, {4: (5, 0)}),
        # Liouville 1889: a projective structure on a surface has the
        # Liouville tensor in degree 3
        (lambda: _projective(2, 0), {3: (2, 0)}),
        # Weyl 1921: the projective Weyl tensor, of dimension
        # n^2 (n^2 - 4) / 3 for n >= 3, in degree 2
        (lambda: _projective(3, 0), {2: (15, 0)}),
        (lambda: _projective(4, 0), {2: (64, 0)}),
    ],
    ids=["g2", "projective_2", "projective_3", "projective_4"],
)
def test_second_cohomology_is_the_classical_curvature(g, nonzero):
    g = g()
    for d in range(8):
        assert cohomology_dims(d, 2, g) == nonzero.get(d, (0, 0)), d


def _naive_cohomology(g, d, k):
    """H^{d,k} per parity from the formula's matrices, ranked densely by the
    oracle elimination; delta is even, so it splits by column parity."""
    zero = Scalar(0)
    dims = []
    for parity in (EVEN, ODD):
        dim = sum(1 for _, _, p in cochain_basis(g, d, k) if p == parity)
        for kk in (k - 1, k):
            basis, target = cochain_basis(g, d, kk), cochain_basis(g, d, kk + 1)
            entries = differential_formula(g, basis, target)
            cols = [c for c, (_, _, p) in enumerate(basis) if p == parity]
            dim -= naive_rank([[entries.get((r, c), zero) for c in cols]
                               for r in range(len(target))])
        dims.append(dim)
    return tuple(dims)


@pytest.mark.parametrize(
    "g, d, h",
    [(lambda: prolong(SymbolAlgebra(g2_symbol())).algebra, 4, (5, 0)),
     (lambda: _projective(2, 1), 2, (7, 8))],
    ids=["g2", "projective_2_1"],
)
def test_k2_differential_matches_the_docstring_formula(g, d, h):
    # C^{d,2} -> C^{d,3} entry by entry against the formula evaluated by
    # direct brackets and the oracle signs, and the one nonzero H^{d,2}
    # ranked from the formula by the oracle elimination
    g = g()
    checked = 0
    for e in range(-3, 9):
        sl = CochainSlice(g, e, 2)
        got = {(r, c): v for r, row in enumerate(sl.matrix_rows)
               for c, v in row.items()}
        assert got == differential_formula(g, sl.basis, sl.target), e
        checked += len(got)
    assert checked
    assert cohomology_dims(d, 2, g) == _naive_cohomology(g, d, 2) == h


def test_k1_kernel_equals_prolongation_equations():
    # on the assembled odd-ODE prolongation g, the kernel of delta on the
    # degree-i 1-cochains C^{i,1}(m, g) has the dimension of g_i, i = 1..4
    res = prolong(SymbolAlgebra(odd_ode_symbol(3)), g0=odd_ode_scalings(3))
    g = res.algebra
    for i in (1, 2, 3, 4):
        sl = CochainSlice(g, i, 1)
        ker = len(sl.basis) - rank_rows(sl.matrix_rows)
        assert ker == sum(res.component_superdim(i))


def test_sl21_first_cohomology_vanishes():
    g = build_named("sl_graded:2|1")
    for d in (1, 2):
        assert cohomology_dims(d, 1, g) == (0, 0)


def test_shc_first_cohomology_vanishes():
    res = prolong(SymbolAlgebra(shc_symbol()))
    for d in range(0, 4):
        assert cohomology_dims(d, 1, res.m, res.algebra) == (0, 0)


def test_projective_h21_vanishes():
    for (p, q) in [(2, 1), (1, 2), (2, 2)]:
        res = prolong(
            SymbolAlgebra(abelian(p, q)),
            g0=g0_of(gl(p, q)),
            reductions=[(1, projective_trace_reduction)],
        )
        assert cohomology_dims(2, 1, res.algebra) == (0, 0)


def test_invariants_bidegree_of_abelian():
    # abelian (1|0) with g = m: 0-cochains of degree -1 are all invariant
    a = abelian(1, 0)
    assert cohomology_dims(-1, 0, a) == (1, 0)
    assert cohomology_dims(0, 0, a) == (0, 0)


def test_euler_characteristic_per_degree():
    g = build_named("sl_graded:2|1")
    degs = [b.degree for b in g.space]
    kmax = 3  # dim m = 3, so C^{d,k} = 0 beyond... odd coords repeat: cap by degree
    for d in range(min(degs) + 2, max(degs) + 7):
        chi_c = {EVEN: 0, ODD: 0}
        chi_h = {EVEN: 0, ODD: 0}
        k = 0
        while True:
            basis = cochain_basis(g, d, k)
            if not basis and k > 0 and not cochain_basis(g, d, k + 1):
                # differentials out of and into empty spaces vanish; check a
                # couple more k to be safe with odd repeats
                if not cochain_basis(g, d, k + 2):
                    break
            sgn = 1 if k % 2 == 0 else -1
            ev = sum(1 for (_, _, p) in basis if p == EVEN)
            od = len(basis) - ev
            chi_c[EVEN] += sgn * ev
            chi_c[ODD] += sgn * od
            h = cohomology_dims(d, k, g)
            chi_h[EVEN] += sgn * h[0]
            chi_h[ODD] += sgn * h[1]
            k += 1
            if k > 12:
                break
        assert chi_c == chi_h, d


def test_reduced_differential_lemma():
    # SHC prolongation data
    res = prolong(SymbolAlgebra(shc_symbol()))
    rep = reduced_differential_check(res.m, res.algebra)
    assert rep["ok"]
    assert rep["degrees"]
    # odd ODE (4|4) prolongation data
    res = prolong(SymbolAlgebra(odd_ode_symbol(3)), g0=odd_ode_scalings(3))
    rep = reduced_differential_check(res.m, res.algebra)
    assert rep["ok"]
    # depth one: partial = delta trivially, B = 0
    res = prolong(SymbolAlgebra(abelian(1, 1)), g0=g0_of(gl(1, 1)),
                  max_degree=2, validate_result=False)
    rep = reduced_differential_check(res.m, res.algebra)
    assert rep["ok"]
    for entry in rep["degrees"].values():
        assert entry["complement_B_dim"] == 0


def test_complement_spans():
    res = prolong(SymbolAlgebra(odd_ode_symbol(2)), g0=odd_ode_scalings(2))
    rep = reduced_differential_check(res.m, res.algebra)
    assert rep["ok"]
    g = res.algebra
    names = [b.name for b in g.space]
    for d, entry in rep["degrees"].items():
        c1 = CochainSlice(g, d, 1)
        a_rows = [
            r for r, (T, _, _) in enumerate(c1.target)
            if any(g.space[t].degree == -1 for t in T)
        ]
        labels = {
            "^".join(names[t] + "*" for t in T) + "(x)" + names[b]: r
            for r, (T, b, _) in enumerate(c1.target)
        }
        z_rows = [labels[label] for label in entry["complement_Z"]]
        assert set(z_rows) <= set(a_rows)
        assert entry["complement_B_dim"] == len(c1.target) - len(a_rows)
        # Im(partial) in A coordinates: one vector per cochain, by the oracle
        zero = Scalar(0)
        image = [
            [c1.matrix_rows[r].get(c, zero) for r in a_rows]
            for c in range(len(c1.basis))
        ]
        units = [[Scalar(int(r == z)) for r in a_rows] for z in z_rows]
        # dim A = dim Im(partial) + dim Z, and together they span A
        assert len(a_rows) == naive_rank(image) + len(z_rows), d
        assert naive_rank(image + units) == len(a_rows), d


def _abelian_two_step():
    # a, t in degree -1 and z, w in degree -2 (even, odd), all brackets zero:
    # delta vanishes on the B monomials z*^w*, w*^w* of degrees 2 and 3
    return LieSuperalgebra(
        GradedSuperSpace(
            [
                BasisVector("a", -1, EVEN),
                BasisVector("t", -1, ODD),
                BasisVector("z", -2, EVEN),
                BasisVector("w", -2, ODD),
            ]
        ),
        {},
    )


@lru_cache(maxsize=None)
def _reduced_case(name):
    """(m, g) of the reduced-check cases."""
    if name == "abelian_a_t_z_w":
        m = _abelian_two_step()
        return m, m
    if name == "odd_ode_3":
        res = prolong(SymbolAlgebra(odd_ode_symbol(3)), g0=odd_ode_scalings(3))
    elif name == "shc":
        res = prolong(SymbolAlgebra(shc_symbol()))
    else:
        res = prolong(SymbolAlgebra(supertranslation(int(name[-1]))))
    return res.m, res.algebra


REDUCED_CASES = [
    "abelian_a_t_z_w", "odd_ode_3", "shc", "supertranslation_2",
    "supertranslation_3",
]


@pytest.mark.parametrize("name", REDUCED_CASES)
def test_reduced_check_unchanged(name):
    # whole reports, recorded before p-injectivity became a rank on the B
    # monomials
    path = Path(__file__).parent / "data" / "reduced_check.json"
    want = json.loads(path.read_text())[name]
    got = json.loads(json.dumps(reduced_differential_check(*_reduced_case(name))))
    assert got == want


def test_reduced_check_negative_case():
    rep = reduced_differential_check(_abelian_two_step())
    assert rep["ok"] is False
    bad = sorted(
        d for d, e in rep["degrees"].items() if not e["p_injective_on_ker"]
    )
    assert bad == [2, 3]
    assert all(e["kernels_agree"] for e in rep["degrees"].values())


@pytest.mark.parametrize(
    "name", ["abelian_a_t_z_w", "odd_ode_3", "shc", "supertranslation_2"]
)
def test_reduced_injectivity_matches_kernel_projection(name):
    m, g = _reduced_case(name)
    rep = reduced_differential_check(m, g)
    assert rep["degrees"]
    for d, entry in rep["degrees"].items():
        assert entry["p_injective_on_ker"] == reduced_p_injective(g, d), d


@pytest.mark.parametrize("name", REDUCED_CASES)
def test_reduced_check_leaves_out_only_zero_rows_of_the_c3_target(name):
    # delta on the B monomials of C^{d,2} is zero at every 3-monomial whose
    # arguments all have degree -1, so the p-injectivity rank may skip them
    m, g = _reduced_case(name)
    sp = g.space
    degs = [b.degree for b in sp]
    dropped = 0
    for d in range(min(degs) + 2, max(degs) + 2 * max(-x for x in degs) + 1):
        b_cols = [t for t in cochain_basis(g, d, 2)
                  if all(sp[x].degree <= -2 for x in t[0])]
        target = cochain_basis(g, d, 3)
        for (T, _, _), row in zip(target, _stream_rows(g, b_cols, target)):
            if all(sp[x].degree == -1 for x in T):
                assert row == {}, (d, T)
                dropped += 1
    assert dropped


def _reduced_slices(g):
    """Per degree d of the reduced check: d, C^{d,1}, C^{d,2}, its B
    monomials and the test "an argument of degree <= -2" on tuples."""
    sp = g.space
    degs = [b.degree for b in sp]

    def deep(T):
        return any(sp[x].degree <= -2 for x in T)

    for d in range(min(degs) + 2, max(degs) + 2 * max(-x for x in degs) + 1):
        c2 = cochain_basis(g, d, 2)
        b_mons = [t for t in c2 if all(sp[x].degree <= -2 for x in t[0])]
        yield d, cochain_basis(g, d, 1), c2, b_mons, deep


@pytest.mark.parametrize("name", ["odd_ode_3", "shc", "supertranslation_2"])
def test_streamed_rows_are_the_scalar_rows_times_d(name):
    # a fully read _stream_rows is D times the Scalar loop's rows, entry
    # for entry and in order: C^{d,1} -> C^{d,2} in target order and with
    # the A monomials first, and the B monomials -> the lazily filtered
    # C^{d,3}
    _, g = _reduced_case(name)
    den = Scalar(g._int_table()[0])
    checked = 0
    for d, c1, c2, b_mons, deep in _reduced_slices(g):
        b_set = set(b_mons)
        a_then_b = [t for t in c2 if t not in b_set] + b_mons
        c3 = [t for t in cochain_basis(g, d, 3) if deep(t[0])]
        assert list(_cochains(g, d, 3, keep=deep)) == c3, d
        for basis, target, stream in [
            (c1, c2, c2), (c1, a_then_b, iter(a_then_b)),
            (b_mons, c3, _cochains(g, d, 3, keep=deep)),
        ]:
            want = [[(c, v * den) for c, v in row.items()]
                    for row in scalar_differential_rows(g, basis, target)]
            got = [[(c, Scalar(*v)) for c, v in row.items()]
                   for row in _stream_rows(g, basis, stream)]
            assert got == want, d
            checked += sum(map(len, got))
    assert checked


def test_the_injectivity_stream_stops_early_on_shc():
    # fed a counting C^{d,3} target, the reduced check's injectivity
    # elimination draws fewer monomials than C^{d,3} holds, even filtered:
    # the rows past the stop at full column rank are never built
    _, g = _reduced_case("shc")
    drawn = filtered = full = 0

    def counted(target):
        nonlocal drawn
        for t in target:
            drawn += 1
            yield t

    for d, _, _, b_mons, deep in _reduced_slices(g):
        if not b_mons:
            continue
        target = counted(_cochains(g, d, 3, keep=deep))
        assert len(_echelon(_stream_rows(g, b_mons, target), units=True,
                            ncols=len(b_mons))) == len(b_mons), d
        c3 = cochain_basis(g, d, 3)
        full += len(c3)
        filtered += sum(1 for t in c3 if deep(t[0]))
    assert drawn < filtered < full, (drawn, filtered, full)


def test_cochain_basis_is_canonical_monomials_times_values():
    # weakly increasing m-index tuples, strict on even indices, in
    # lexicographic order, each times every g basis vector of degree d above
    for g in (build_named("sl_graded:2|1"), shc_symbol()):
        sp = g.space
        m_idx = [i for i, b in enumerate(sp) if b.degree < 0]
        for d in range(-2, 4):
            for k in range(4):
                want = []
                for T in combinations_with_replacement(m_idx, k):
                    if any(T[i] == T[i + 1] and sp[T[i]].parity == EVEN
                           for i in range(k - 1)):
                        continue
                    for b, bv in enumerate(sp):
                        if bv.degree - sum(sp[t].degree for t in T) == d:
                            par = (bv.parity + sum(sp[t].parity for t in T)) % 2
                            want.append((T, b, par))
                assert cochain_basis(g, d, k) == want, (d, k)
    with pytest.raises(ValueError):
        cochain_basis(shc_symbol(), 0, -1)
    # True and 1 are one key of the cached exterior basis, which k = 1 has
    # just filled; the slice must still refuse True, and a float degree
    with pytest.raises(ValueError, match="^k must be an int >= 0, got True"):
        CochainSlice(shc_symbol(), 0, True)
    with pytest.raises(ValueError, match="^d must be an int, got 0.5"):
        CochainSlice(shc_symbol(), 0.5, 1)


def _assert_rows_match_the_scalar_loop(g):
    """CochainSlice.matrix_rows against the Scalar loop, entry for entry
    and in row order, on every slice with k = 0..3 that can be nonzero;
    the slice's public rows are read only after its integer rows were
    ranked by both pivot rules.  Returns the largest common denominator D
    met."""
    degs = [b.degree for b in g.space]
    mu = -min(degs)
    dens = [1]
    for k in range(4):
        for d in range(min(degs) + k, max(degs) + (k + 1) * mu + 1):
            sl = CochainSlice(g, d, k)
            want = [list(row.items())
                    for row in scalar_differential_rows(g, sl.basis, sl.target)]
            # delta is even: a row of target parity p holds only columns of
            # basis parity p, which the per-parity ranks rely on
            for row, (_, _, p) in zip(sl._rows, sl.target):
                assert all(sl.basis[c][2] == p for c in row), (d, k)
            _echelon(sl._rows, units=True)
            _echelon(sl._rows)
            assert [list(row.items()) for row in sl.matrix_rows] == want, (d, k)
            dens.append(sl._den)
    return max(dens)


def test_integer_rows_match_the_scalar_loop_on_shc():
    # SHC's prolongation has Fraction structure constants, so D > 1
    g = prolong(SymbolAlgebra(shc_symbol())).algebra
    assert _assert_rows_match_the_scalar_loop(g) > 1


@pytest.mark.parametrize("N", [1, 2, 3])
def test_integer_rows_match_the_scalar_loop_on_supertranslations(N):
    g = prolong(SymbolAlgebra(supertranslation(N))).algebra
    assert g.field == "Qi"
    _assert_rows_match_the_scalar_loop(g)


def test_integer_rows_match_the_scalar_loop_on_flat_gl21():
    # the truncated algebra m + g_0 + g_1 + g_2 of pr(R^{2|1}, gl(2|1))
    engine = Prolongation(SymbolAlgebra(abelian(2, 1)), g0=g0_of(gl(2, 1)))
    engine.advance(1)
    engine.advance(2)
    _assert_rows_match_the_scalar_loop(engine._truncation()[0])


@settings(max_examples=25, deadline=None)
@given(two_step_symbols())
def test_integer_rows_match_the_scalar_loop_on_random_symbols(alg):
    # the symbol with its degree-0 derivations, m + g_0
    engine = Prolongation(SymbolAlgebra(alg))
    _assert_rows_match_the_scalar_loop(engine._truncation()[0])
