import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superprolong.catalog import shc_symbol, supertranslation
from superprolong.prolong import prolong
from superprolong.scalars import I, Scalar, as_scalar, parse_scalar
from superprolong.linalg import (
    SpanSolver,
    _echelon,
    _int_row,
    _kernel_basis,
    independent_rows,
    kernel_basis_rows,
    pivot_columns,
    rank_rows,
    svec_axpy,
)

from oracles import (
    C,
    gaussian_content_norm,
    mat_apply,
    mat_mul,
    naive_kernel_dim,
    naive_rank,
    naive_rref,
)


def rand_scalar(rng, gaussian=False):
    re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    im = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if gaussian else 0
    return Scalar(re, im)


def test_scalar_field_axioms_randomized():
    rng = random.Random(7)
    for _ in range(200):
        gaussian = rng.random() < 0.5
        a, b, c = (rand_scalar(rng, gaussian) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if c:
            assert (a / c) * c == a


def test_scalar_gaussian_division():
    assert (Scalar(1) / I) == Scalar(0, -1)
    assert I * I == Scalar(-1)
    assert (Scalar(2, 3) / Scalar(2, 3)) == Scalar(1)


def test_scalar_serialization_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        s = rand_scalar(rng, gaussian=rng.random() < 0.5)
        assert parse_scalar(s.to_str()) == s
    assert parse_scalar("3/4") == Scalar(Fraction(3, 4))
    assert parse_scalar("-1/2+2/3*i") == Scalar(Fraction(-1, 2), Fraction(2, 3))
    assert parse_scalar("1/2-1/3*i") == Scalar(Fraction(1, 2), Fraction(-1, 3))
    with pytest.raises(ValueError):
        parse_scalar("i+1")


def assert_exact_parts(s):
    """Each part is an int exactly when it is integral, else a Fraction;
    never a float or a bool."""
    for part in (s.re, s.im):
        assert type(part) in (int, Fraction)
        assert (type(part) is int) == (Fraction(part).denominator == 1)


@st.composite
def operands(draw):
    """An int, a Fraction, or a rational or Gaussian Scalar, with small parts."""
    def part():
        return Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))

    kind = draw(st.sampled_from(["int", "fraction", "rational", "gaussian"]))
    if kind == "int":
        return draw(st.integers(-6, 6))
    if kind == "fraction":
        return part()
    if kind == "rational":
        return Scalar(part())
    return Scalar(part(), part())


def pair_oracle(x):
    return C(x.re, x.im) if isinstance(x, Scalar) else C(x)


@settings(max_examples=400, deadline=None)
@given(operands(), operands(),
       st.sampled_from([operator.add, operator.sub, operator.mul, operator.truediv]))
def test_scalar_arithmetic_matches_the_fraction_pair_oracle(a, b, op):
    if not isinstance(a, Scalar) and not isinstance(b, Scalar):
        a = Scalar(a)  # one Scalar operand at least, on either side
    if op is operator.truediv and not pair_oracle(b):
        with pytest.raises(ZeroDivisionError):
            op(a, b)
        return
    got, want = op(a, b), op(pair_oracle(a), pair_oracle(b))
    assert type(got) is Scalar
    assert_exact_parts(got)
    assert (got.re, got.im) == (want.re, want.im)
    assert hash(got) == hash(want)
    assert bool(got) == bool(want)
    assert (a == b) == (pair_oracle(a) == pair_oracle(b)) == (b == a)
    assert (got == want.re) == (want.im == 0)


def test_scalar_parts_are_ints_exactly_when_integral():
    cases = [
        (Scalar(3), 3, 0), (Scalar(Fraction(6, 2)), 3, 0),
        (Scalar(True, False), 1, 0), (Scalar(Fraction(1, 2)), Fraction(1, 2), 0),
        (Scalar(Fraction(-4, 6), Fraction(8, 4)), Fraction(-2, 3), 2),
        (Scalar(Fraction(1, 2)) + Fraction(1, 2), 1, 0),
        (Scalar(1) / 3 * 3, 1, 0), (I * I, -1, 0),
        (Scalar(2, 3) / Scalar(2, 3), 1, 0),
    ]
    for s, re, im in cases:
        assert (s.re, s.im) == (re, im)
        assert type(s.re) is type(re) and type(s.im) is type(im)
        assert_exact_parts(s)
    # hashes follow the value, not the representation: hash(Fraction(3)) == hash(3)
    assert hash(Scalar(3)) == hash((Fraction(3), Fraction(0)))


@pytest.mark.parametrize(
    "build",
    [lambda: Scalar(0.1), lambda: Scalar(1, 0.5), lambda: as_scalar(0.1),
     lambda: Scalar(1) + 0.5, lambda: 0.5 * Scalar(1), lambda: Scalar("1/2")],
    ids=["re", "im", "as_scalar", "add", "rmul", "string"],
)
def test_scalar_refuses_floats_and_other_inexact_inputs(build):
    with pytest.raises(TypeError, match="cannot coerce"):
        build()


def test_scalar_text_forms_are_unchanged():
    cases = [
        (Scalar(3), "3/1", "3"),
        (Scalar(Fraction(-6, 4)), "-3/2", "-3/2"),
        (Scalar(0), "0/1", "0"),
        (Scalar(0, 1), "0/1+1/1*i", "i"),
        (Scalar(0, -1), "0/1-1/1*i", "-i"),
        (Scalar(Fraction(1, 2), -2), "1/2-2/1*i", "1/2-2*i"),
        (Scalar(0, Fraction(2, 3)), "0/1+2/3*i", "2/3*i"),
        (Scalar(-4, Fraction(-5, 3)), "-4/1-5/3*i", "-4-5/3*i"),
        (Scalar(Fraction(10, 5), Fraction(3, 3)), "2/1+1/1*i", "2+1*i"),
    ]
    for s, text, pretty in cases:
        assert (s.to_str(), s.pretty(), repr(s)) == (text, pretty, "Scalar(%s)" % text)
        back = parse_scalar(text)
        assert back == s and back.to_str() == text
        assert_exact_parts(back)


@pytest.mark.parametrize("build", [shc_symbol, lambda: supertranslation(2)],
                         ids=["shc", "supertranslation-2"])
def test_prolongation_structure_constants_keep_integral_parts_as_ints(build):
    res = prolong(build())
    entries = [s for vec in res.algebra.table.values() for s in vec.values()]
    for comp in res.engine.comp.values():
        for _, action in comp.elements:
            entries.extend(s for img in action.values() for s in img.values())
    assert entries
    for s in entries:
        assert_exact_parts(s)


def test_kernel_identity_is_trivial():
    assert kernel_basis_rows([{i: Scalar(1)} for i in range(3)], 3) == []


def test_kernel_zero_map_full_basis():
    km = kernel_basis_rows([{}, {}], 3)
    assert km == [{i: Scalar(1)} for i in range(3)]


def test_kernel_single_row():
    # hand row-reduction: x1 = -2 x2 - 3 x3, span {(-2,1,0), (-3,0,1)};
    # returned vectors are the same span normalized to leading entry 1
    km = kernel_basis_rows([{0: Scalar(1), 1: Scalar(2), 2: Scalar(3)}], 3)
    assert len(km) == 2
    for v in dense(km, 3):
        assert all(not e for e in mat_apply([[Scalar(1), Scalar(2), Scalar(3)]], v))
        assert next(e for e in v if e) == Scalar(1)
    solver = SpanSolver(km)
    for hand in ([-2, 1, 0], [-3, 0, 1]):
        assert solver.solve({i: Scalar(c) for i, c in enumerate(hand) if c}) is not None


def test_rank_examples():
    assert rank_rows([{i: Scalar(1)} for i in range(4)]) == 4
    assert rank_rows([{0: Scalar(1), 1: Scalar(2)}, {0: Scalar(2), 1: Scalar(4)}]) == 1
    # row 2 = -i * row 1 over Q(i)
    assert rank_rows([{0: I, 1: Scalar(1)}, {0: Scalar(1), 1: -I}]) == 1


def test_rank_plus_kernel_is_cols_randomized():
    rng = random.Random(11)
    for _ in range(40):
        nrows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        gaussian = rng.random() < 0.4
        rows = []
        for _ in range(nrows):
            row = {}
            for j in range(cols):
                x = rand_scalar(rng, gaussian)
                if x and rng.random() < 0.7:
                    row[j] = x
            rows.append(row)
        M = dense(rows, cols)
        r = rank_rows(rows)
        km = kernel_basis_rows(rows, cols)
        assert r + len(km) == cols
        assert r == naive_rank(M)
        assert len(km) == naive_kernel_dim(M)
        for v in km:
            # sparse: no stored zeros, lowest key normalized to 1
            assert all(v.values())
            assert v[min(v)] == Scalar(1)
            for row in rows:
                s = Scalar(0)
                for j, a in row.items():
                    s = s + a * v.get(j, Scalar(0))
                assert not s
        # M x = rhs: the unique solution on the pivot columns, free
        # variables 0, is the SpanSolver's over the columns of M
        piv = pivot_columns(rows)
        x = {c: rand_scalar(rng, gaussian) for c in piv}
        rhs = [sum((a * x.get(j, Scalar(0)) for j, a in row.items()), Scalar(0)) for row in rows]
        columns = [{i: row[j] for i, row in enumerate(rows) if j in row} for j in range(cols)]
        solver = SpanSolver(columns)
        got = solver.solve({i: b for i, b in enumerate(rhs) if b})
        assert got == {c: s for c, s in x.items() if s}
        off = [rand_scalar(rng, gaussian) for _ in rows]
        if naive_rank([m + [b] for m, b in zip(M, off)]) > r:
            assert solver.solve({i: b for i, b in enumerate(off) if b}) is None


def test_rank_of_product_bound():
    def rank(M):
        return rank_rows([dict(enumerate(row)) for row in M])

    rng = random.Random(5)
    for _ in range(20):
        A = [[rand_scalar(rng) for _ in range(4)] for _ in range(4)]
        B = [[rand_scalar(rng) for _ in range(4)] for _ in range(4)]
        assert rank(mat_mul(A, B)) <= min(rank(A), rank(B))


def test_solve_consistent_and_inconsistent():
    # M = [[1, 1], [0, 1]] by columns: M x = (3, 1) at x = (2, 1)
    solver = SpanSolver([{0: Scalar(1)}, {0: Scalar(1), 1: Scalar(1)}])
    assert solver.solve({0: Scalar(3), 1: Scalar(1)}) == {0: Scalar(2), 1: Scalar(1)}
    # M = [[1, 1], [1, 1]]: (0, 1) is off the column span
    both = {0: Scalar(1), 1: Scalar(1)}
    assert SpanSolver([both, both]).solve({1: Scalar(1)}) is None


def test_solve_in_span():
    v1 = {0: Scalar(1), 2: Scalar(2)}
    v2 = {1: Scalar(1)}
    target = {0: Scalar(3), 1: Scalar(-1), 2: Scalar(6)}
    solver = SpanSolver([v1, v2])
    assert solver.solve(target) == {0: Scalar(3), 1: Scalar(-1)}
    assert solver.solve({0: Scalar(1)}) is None


def test_span_solver_ignores_stored_zeros():
    # a stored zero is neither a pivot nor a residual
    solver = SpanSolver([{0: Scalar(0), 1: Scalar(1)}])
    assert solver.solve({1: Scalar(2)}) == {0: Scalar(2)}
    assert solver.solve({0: Scalar(1)}) is None
    solver = SpanSolver([{0: Scalar(1)}])
    assert solver.solve({0: Scalar(1), 1: Scalar(0)}) == {0: Scalar(1)}
    assert solver.solve({1: Scalar(0)}) == {}


@st.composite
def scalars(draw, gaussian):
    re = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    im = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))) if gaussian else 0
    return Scalar(re, im)


@st.composite
def span_problems(draw):
    """Small sparse vectors over Q or Q(i) on coordinates 0..dim-1 (often
    dependent), the independent subset picked greedily by the oracle rank,
    and sparse coefficients over that subset."""
    gaussian = draw(st.booleans())
    dim = draw(st.integers(1, 5))
    vectors = []
    for _ in range(draw(st.integers(0, 6))):
        v = {}
        for j in draw(st.sets(st.integers(0, dim - 1), max_size=3)):
            x = draw(scalars(gaussian))
            if x:
                v[j] = x
        vectors.append(v)
    indep = []
    for v in vectors:
        if naive_rank(dense(indep + [v], dim)) > len(indep):
            indep.append(v)
    coeffs = {}
    for i in range(len(indep)):
        x = draw(scalars(gaussian))
        if x:
            coeffs[i] = x
    return dim, vectors, indep, coeffs, draw(scalars(gaussian))


def dense(vectors, dim):
    return [[v.get(j, Scalar(0)) for j in range(dim)] for v in vectors]


def combination(vectors, coeffs):
    acc = {}
    for i, x in coeffs.items():
        svec_axpy(acc, x, vectors[i])
    return acc


@settings(max_examples=150, deadline=None)
@given(span_problems())
def test_span_solver_returns_exact_sparse_coefficients(problem):
    dim, vectors, indep, coeffs, x = problem
    target = combination(indep, coeffs)
    # over an independent set the coefficients are unique: the solver
    # returns exactly the sparse dict the combination was built from
    assert SpanSolver(indep).solve(target) == coeffs
    # over the dependent set it returns some exact preimage
    solver = SpanSolver(vectors)
    got = solver.solve(target)
    assert got is not None and all(got.values())
    assert combination(vectors, got) == target
    # a component outside the span leaves a nonzero residual: no solution,
    # both on a coordinate no vector touches and along any direction the
    # oracle finds outside the span
    if x:
        assert solver.solve(svec_axpy(dict(target), x, {dim: Scalar(1)})) is None
        for j in range(dim):
            if naive_rank(dense(indep + [{j: x}], dim)) > len(indep):
                assert solver.solve(svec_axpy(dict(target), x, {j: Scalar(1)})) is None


@st.composite
def dependent_spans(draw):
    """Sparse vectors over Q or Q(i) on keys 0..dim-1 in which some vectors
    are combinations of earlier ones; the indices of the vectors that raise
    the oracle rank; coefficients of a random combination of all vectors;
    an extra key with a scalar; and keys for stored zeros."""
    gaussian = draw(st.booleans())
    dim = draw(st.integers(1, 6))
    vectors = []
    for _ in range(draw(st.integers(1, 7))):
        if vectors and draw(st.booleans()):
            v = {}
            for i in draw(st.sets(st.integers(0, len(vectors) - 1), max_size=3)):
                svec_axpy(v, draw(scalars(gaussian)), vectors[i])
        else:
            v = {}
            for j in draw(st.sets(st.integers(0, dim - 1), max_size=4)):
                x = draw(scalars(gaussian))
                if x:
                    v[j] = x
        vectors.append(v)
    indep = [
        i for i in range(len(vectors))
        if naive_rank(dense(vectors[:i + 1], dim)) > naive_rank(dense(vectors[:i], dim))
    ]
    coeffs = {i: draw(scalars(gaussian)) for i in range(len(vectors))}
    extra = (draw(st.integers(0, dim)), draw(scalars(gaussian)))
    zeros = draw(st.sets(st.integers(0, dim + 1), max_size=3))
    return dim, vectors, indep, coeffs, extra, zeros


@settings(max_examples=200, deadline=None)
@given(dependent_spans())
def test_span_solver_reads_off_coefficients_on_the_independent_vectors(problem):
    dim, vectors, indep, coeffs, (j, x), zeros = problem
    solver = SpanSolver(vectors)
    target = combination(vectors, {i: c for i, c in coeffs.items() if c})
    got = solver.solve(target)
    # exact, sparse, in increasing order, on the independent vectors only,
    # and re-expanding to the target
    assert got is not None and all(got.values())
    assert list(got) == sorted(got) and set(got) <= set(indep)
    assert combination(vectors, got) == target
    # stored zeros in the target change nothing
    padded = dict(target)
    for k in zeros:
        padded.setdefault(k, Scalar(0))
    assert solver.solve(padded) == got
    # one extra entry off the span leaves a residual: key dim lies outside
    # every vector, and key j < dim when it raises the oracle rank
    off = svec_axpy(dict(target), x, {j: Scalar(1)})
    dims = max(dim, j + 1)
    if x and naive_rank(dense([vectors[i] for i in indep] + [{j: x}], dims)) > len(indep):
        assert solver.solve(off) is None


@st.composite
def sparse_matrices(draw):
    """Sparse rows over Q or Q(i), up to 6 x 6, with a repeated row or a
    combination of two rows now and then so that ranks fall short."""
    gaussian = draw(st.booleans())
    ncols = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["fresh", "fresh", "combination"]))
        if kind == "combination" and rows:
            a, b = draw(scalars(gaussian)), draw(scalars(gaussian))
            row = svec_axpy(svec_axpy({}, a, draw(st.sampled_from(rows))),
                            b, draw(st.sampled_from(rows)))
        else:
            row = {}
            for j in draw(st.sets(st.integers(0, ncols - 1), max_size=4)):
                x = draw(scalars(gaussian))
                if x:
                    row[j] = x
        rows.append(row)
    return rows, ncols


def rref_kernel(rows, ncols):
    """The kernel read off the oracle's RREF: for each free column f, 1 at f
    and minus the RREF entries of column f at the pivots, scaled so that
    the lowest entry is 1; and the RREF pivots."""
    mat, piv = naive_rref(dense(rows, ncols)) if rows else ([], [])
    basis = []
    for f in range(ncols):
        if f in piv:
            continue
        v = {f: Scalar(1)}
        for k, c in enumerate(piv):
            x = Scalar(mat[k][f].re, mat[k][f].im)
            if x:
                v[c] = -x
        lead = v[min(v)]
        basis.append([(j, v[j] / lead) for j in sorted(v)])
    return basis, piv


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_one_elimination_matches_the_rref_oracle(problem):
    rows, ncols = problem
    want, piv = rref_kernel(rows, ncols)
    # entry for entry and in order, whatever the elimination order
    assert [list(v.items()) for v in kernel_basis_rows(rows, ncols)] == want
    assert pivot_columns(rows) == piv
    assert rank_rows(rows) == len(piv)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_independent_rows_are_the_rows_that_raise_the_oracle_rank(problem):
    rows, ncols = problem
    want = [
        i for i in range(len(rows))
        if naive_rank(dense(rows[:i + 1], ncols)) > naive_rank(dense(rows[:i], ncols))
    ]
    assert independent_rows(rows) == want
    assert len(want) == rank_rows(rows)


def test_pivot_columns_when_the_first_row_does_not_hold_the_leftmost_pivot():
    one = Scalar(1)
    rows = [{2: one}, {1: one, 3: one}, {0: Scalar(2), 1: one}]
    assert pivot_columns(rows) == [0, 1, 2]
    assert kernel_basis_rows(rows, 4) == [
        {0: one, 1: Scalar(-2), 3: Scalar(2)}
    ]
    # a later row that repeats an earlier one adds no pivot
    rows = [{1: one, 2: one}, {0: I}, {1: Scalar(3), 2: Scalar(3)}]
    assert pivot_columns(rows) == [0, 1]
    assert kernel_basis_rows(rows, 3) == [{1: one, 2: Scalar(-1)}]


# entries for the unit rule: units, non-unit integers, fractions and
# Gaussian integers that are not units
UNITS = [Scalar(1), Scalar(-1), I, Scalar(0, -1)]
NON_UNITS = [
    Scalar(2), Scalar(-3), Scalar(0, 2),
    Scalar(Fraction(1, 2)), Scalar(Fraction(-2, 3), 1), Scalar(0, Fraction(1, 3)),
    Scalar(1, 1), Scalar(2, -1), Scalar(-3, 2),
]


@st.composite
def unit_rule_matrices(draw):
    """Sparse rows over Q(i), up to 7 x 6, each row's columns in a drawn
    order so that its first unit is often not its leftmost entry; some rows
    have no unit entry and some are combinations of earlier rows."""
    ncols = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["mixed", "mixed", "no unit", "combination"]))
        if kind == "combination" and rows:
            a, b = (draw(st.sampled_from(UNITS + NON_UNITS)) for _ in "ab")
            row = svec_axpy(svec_axpy({}, a, draw(st.sampled_from(rows))),
                            b, draw(st.sampled_from(rows)))
        else:
            entries = NON_UNITS if kind == "no unit" else UNITS + NON_UNITS
            cols = draw(st.permutations(range(ncols)))
            row = {j: draw(st.sampled_from(entries))
                   for j in cols[:draw(st.integers(0, ncols))]}
        rows.append(row)
    return rows, ncols


def int_rows(rows):
    """The rows as ``_echelon`` takes them: dicts {col: (re, im)} of
    Gaussian integers, each row scaled by the lcm of its denominators."""
    return [_int_row(row.items())[0] for row in rows]


def assert_insertion_order_echelon(pivots):
    """Each pivot row of the unit rule holds no pivot column inserted before
    it, and is led by (1, 0) at a unit pivot or else by its lowest column."""
    for k, (c, row) in enumerate(pivots.items()):
        assert not set(row) & set(list(pivots)[:k])
        assert row[c] == (1, 0) or c == min(row)


@settings(max_examples=300, deadline=None)
@given(unit_rule_matrices())
def test_unit_rule_ranks_and_independent_rows_match_the_oracle(problem):
    rows, ncols = problem
    ranks = [naive_rank(dense(rows[:k], ncols)) if k else 0
             for k in range(len(rows) + 1)]
    assert rank_rows(rows) == ranks[-1]
    assert independent_rows(rows) == [
        k for k in range(len(rows)) if ranks[k + 1] > ranks[k]
    ]
    assert_insertion_order_echelon(_echelon(int_rows(rows), units=True))
    # the leftmost rule still gives the oracle's pivots and kernel
    want, piv = rref_kernel(rows, ncols)
    assert pivot_columns(rows) == piv
    assert [list(v.items()) for v in kernel_basis_rows(rows, ncols)] == want
    # stopped at full column rank, both rules give the full loop's pivots,
    # in insertion order, its independent rows and its kernel
    for units in (False, True):
        full, stopped = [], []
        whole = _echelon(int_rows(rows), full, units=units)
        got = _echelon(int_rows(rows), stopped, units=units, ncols=ncols)
        assert list(got.items()) == list(whole.items())
        assert stopped == full
        assert _kernel_basis(got, ncols) == _kernel_basis(whole, ncols)


def test_unit_rule_terminates_when_an_earlier_pivot_row_holds_a_later_pivot():
    one, two = Scalar(1), Scalar(2)
    rows = [
        {0: two, 1: one, 3: one},   # first unit at column 1
        {0: one, 2: one},           # pivots on column 0, which row 0 holds
        {1: one, 2: Scalar(3)},     # reduces to {2: 5, 3: -1}
        {0: Scalar(4), 1: one, 2: two, 3: one},   # row 0 + 2 row 1
    ]
    # row 2 meets column 1 (inserted first) and then column 0, which the
    # subtraction of row 0 brought in; it then pivots on its first unit,
    # -1 at column 3, not on its leftmost entry
    pivots = _echelon(int_rows(rows), units=True)
    assert pivots == {
        1: {0: (2, 0), 1: (1, 0), 3: (1, 0)},
        0: {0: (1, 0), 2: (1, 0)},
        3: {2: (-5, 0), 3: (1, 0)},
    }
    assert_insertion_order_echelon(pivots)
    assert rank_rows(rows) == 3
    assert independent_rows(rows) == [0, 1, 2]
    # pivot_columns and kernel_basis_rows keep the leftmost pivots
    assert pivot_columns(rows) == [0, 1, 2]
    assert sorted(_echelon(int_rows(rows))) == [0, 1, 2]
    assert all(c == min(row) for c, row in _echelon(int_rows(rows)).items())
    want, piv = rref_kernel(rows, 4)
    assert piv == [0, 1, 2]
    assert [list(v.items()) for v in kernel_basis_rows(rows, 4)] == want


def test_echelon_stops_before_the_next_row_at_full_column_rank():
    # four rows on two columns, of rank 2 after the first two: the loop
    # stops before the third row and leaves the last two unread
    rows = [{0: (1, 0)}, {0: (1, 0), 1: (2, 0)}, {1: (3, 0)},
            {0: (5, 0), 1: (0, 1)}]
    for units in (False, True):
        full, stopped = [], []
        want = _echelon(rows, full, units=units)
        left = iter(rows)
        got = _echelon(left, stopped, units=units, ncols=2)
        assert list(left) == rows[2:]
        assert list(got.items()) == list(want.items())
        assert stopped == full == [0, 1]
        assert _kernel_basis(got, 2) == _kernel_basis(want, 2) == []


def test_unit_rule_finds_the_units_of_a_row_scaled_by_a_common_factor():
    # 6 * (1 + 2i, -i, 3), as the Spencer rows come scaled by one common
    # denominator: no entry is a unit until the content 6 is divided out,
    # and then the row pivots on -i at column 1, times the inverse unit i
    row = {0: (6, 12), 1: (0, -6), 2: (18, 0)}
    assert _echelon([row], units=True) == {
        1: {0: (-2, 1), 1: (1, 0), 2: (0, 3)}
    }
    assert row == {0: (6, 12), 1: (0, -6), 2: (18, 0)}


def test_span_solver_mixes_rational_and_gaussian_coefficients():
    one = Scalar(1)
    # rational vectors, Gaussian target: Gaussian coefficients
    solver = SpanSolver([{0: one, 1: Scalar(Fraction(1, 2))}, {1: Scalar(3)}])
    target = {0: Scalar(2, 1), 1: Scalar(1, Fraction(7, 2))}
    assert solver.solve(target) == {0: Scalar(2, 1), 1: Scalar(0, 1)}
    assert solver.solve({2: I}) is None
    # Gaussian vectors, rational target
    solver = SpanSolver([{0: I, 1: one}, {1: Scalar(1, 1)}])
    assert solver.solve({0: one}) == {
        0: Scalar(0, -1), 1: Scalar(Fraction(1, 2), Fraction(1, 2))
    }
    assert solver.solve({0: one, 1: Scalar(0, -1)}) == {0: Scalar(0, -1)}


def test_span_solver_reads_off_pivots_led_by_2_and_3():
    # the pivot rows keep their leads 2 and 3, so a target holding both
    # pivot keys is read off at L = 6; the third coordinate is the residual
    solver = SpanSolver([{0: Scalar(2), 2: Scalar(1)}, {1: Scalar(3), 2: Scalar(1)}])
    assert [row[c] for c, row in solver.pivots.items()] == [(3, 0), (2, 0)]
    target = {0: Scalar(1), 1: Scalar(1), 2: Scalar(Fraction(5, 6))}
    kept = dict(target)
    assert solver.solve(target) == {
        0: Scalar(Fraction(1, 2)), 1: Scalar(Fraction(1, 3))
    }
    assert target == kept and list(target) == list(kept)
    outside = {0: Scalar(1), 1: Scalar(1), 2: Scalar(1)}
    assert solver.solve(outside) is None
    assert outside == {0: Scalar(1), 1: Scalar(1), 2: Scalar(1)}
    # a Gaussian target over the same leads
    assert solver.solve({0: Scalar(0, 2), 1: Scalar(3), 2: Scalar(1, 1)}) == {
        0: Scalar(0, 1), 1: Scalar(1)
    }


def test_span_solver_puts_coefficients_on_the_earliest_independent_vectors():
    one = Scalar(1)
    vectors = [
        {},                         # zero: dependent on nothing before it
        {0: one},
        {0: Scalar(2)},             # 2 * vector 1
        {1: I},
        {0: one, 1: I},             # vector 1 + vector 3
        {2: Scalar(Fraction(1, 3))},
    ]
    solver = SpanSolver(vectors)
    assert solver.solve({0: Scalar(3), 1: Scalar(0, 5), 2: one}) == {
        1: Scalar(3), 3: Scalar(5), 5: Scalar(3)
    }
    assert solver.solve({1: one}) == {3: Scalar(0, -1)}
    assert solver.solve({}) == {}



@st.composite
def dense_gaussian_matrices(draw):
    """Dense rows over Q(i), up to 7 x 8; most entries are nonzero."""
    ncols = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        row = {}
        for j in range(ncols):
            x = draw(scalars(True))
            if x:
                row[j] = x
        rows.append(row)
    return rows, ncols


def assert_gaussian_primitive(pivots):
    for row in pivots.values():
        assert gaussian_content_norm(row.values()) == 1


@settings(max_examples=100, deadline=None)
@given(dense_gaussian_matrices())
def test_dense_gaussian_elimination_matches_the_oracle_with_primitive_pivots(problem):
    rows, ncols = problem
    want, piv = rref_kernel(rows, ncols)
    assert [list(v.items()) for v in kernel_basis_rows(rows, ncols)] == want
    assert pivot_columns(rows) == piv
    # every stored pivot row has a unit as its Gaussian content
    assert_gaussian_primitive(_echelon(int_rows(rows)))
    assert_gaussian_primitive(SpanSolver(rows).pivots)


def test_a_gaussian_common_factor_is_removed_from_a_pivot_row():
    # (1 + i) * (1, 1 + i, 1 - 2i): the rational content is 1, the Gaussian
    # content 1 + i
    row = {0: Scalar(1, 1), 1: Scalar(0, 2), 2: Scalar(3, -1)}
    (stored,) = _echelon(int_rows([row])).values()
    assert gaussian_content_norm(stored.values()) == 1
    unit = Scalar(*stored[0])
    assert gaussian_content_norm([stored[0]]) == 1
    assert [Scalar(*stored[j]) / unit for j in range(3)] == [
        Scalar(1), Scalar(1, 1), Scalar(1, -2)
    ]


def test_dense_random_gaussian_matrix_matches_the_oracle():
    # entries p/q + r i with |p| <= 5, q <= 3, |r| <= 2 at density 1/2: a
    # Gaussian common factor left in the pivot rows makes this matrix take
    # seconds, its pivot rows growing to thousands of bits
    rng = random.Random(20)
    nrows, ncols = 20, 30
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < 0.5:
                x = Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                           rng.randint(-2, 2))
                if x:
                    row[j] = x
        rows.append(row)
    want, piv = rref_kernel(rows, ncols)
    assert [list(v.items()) for v in kernel_basis_rows(rows, ncols)] == want
    assert rank_rows(rows) == len(piv)
    assert_gaussian_primitive(_echelon(int_rows(rows)))
