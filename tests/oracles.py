"""Independent oracles used to freeze expected values.

The elimination oracle here is a naive dense Gaussian elimination over
Fraction pairs, written without reference to the package's sparse
fraction-free code path.  Its scalar, C, a Gaussian rational kept as a plain
pair of Fractions, is also the oracle for ``Scalar`` arithmetic.  The
dense matrix products, the supertranspose and the contact-form checks are
reference computations that only tests read; ``truncation`` is the
from-scratch rebuild of a prolongation's truncated algebra that the engine's
growing one replaced, and ``RecursiveBrackets`` is the per-pair bracket
recursion that the prolongation's block kernel replaced.  ``koszul_sign``
is the O(n^2) inversion count that the package's one sign routine,
``superspace.sort_with_sign``, is compared against, and
``differential_formula`` evaluates the Spencer differential from the
formula in the ``spencer`` docstring with those signs.
``scalar_differential_rows`` is the ``Scalar`` loop that the package's
Gaussian-integer Spencer rows replaced.  ``total_derivative`` is the
compositional jet total derivative, d/dx^i plus the products
xi_{I+e_i} * d_{xi_I}, that the one-pass ``JetFunction.total_derivative``
replaced.  ``apply_field`` and ``lagrange_bracket`` build a field's value on
a function and the bracket of generating functions from whole products and
sums, as the package did before its one multiply-accumulate
(``GrassmannPolynomial._mac``) took their place.  ``prolong_field_direct``
is the prolongation loop that rebuilds every level of total derivatives
from f on each call, as the package did before ``oddode.prolong_field``
kept one chain per generating function.
"""

from fractions import Fraction
from math import comb, floor


class C:
    """Naive Gaussian-rational scalar for the oracle path."""

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        return C(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return C(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return C(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        return C(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))


def gaussian_content_norm(values):
    """The norm of a gcd in Z[i] of Gaussian integers given as (re, im)
    pairs: Euclid's algorithm on C values, each quotient rounded half up
    part by part."""
    g = C()
    for a, b in values:
        x, y = C(a, b), g
        while y:
            q = x / y
            q = C(floor(q.re + Fraction(1, 2)), floor(q.im + Fraction(1, 2)))
            x, y = y, x - q * y
        g = x
    return g.re * g.re + g.im * g.im


def naive_rref(rows):
    """Reduced row echelon form by textbook Gaussian elimination."""
    mat = [[C(e.re, e.im) for e in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    piv = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if mat[i][c]:
                sel = i
                break
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        pv = mat[r][c]
        mat[r] = [e / pv for e in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        piv.append(c)
        r += 1
    return mat, piv


def naive_rank(rows):
    _, piv = naive_rref(rows)
    return len(piv)


def naive_kernel_dim(rows):
    if not rows:
        return 0
    return len(rows[0]) - naive_rank(rows)


def koszul_sign(parities, perm):
    """Sign of rearranging parity-tagged symbols under the exterior convention.

    perm[i] is the position in the original list of the symbol that ends up
    at slot i.  Each inversion contributes -1, except inversions of two odd
    symbols which contribute +1.
    """
    from superprolong.superspace import ODD

    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation: %r" % (perm,))
    sign = 1
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                if not (parities[perm[i]] == ODD and parities[perm[j]] == ODD):
                    sign = -sign
    return sign


def differential_formula(g, basis, target):
    """The matrix {(row, col): Scalar} of the Spencer differential between
    cochain bases (``spencer.cochain_basis``), each entry evaluated from the
    docstring formula

      (d w)(x_1,...,x_{k+1}) =
          sum_i  s_i (-1)^{|x_i||w|} [x_i, w(..., no x_i, ...)]
        - sum_{i<j} s_ij w([x_i, x_j], ..., no x_i, x_j, ...)

    by direct brackets, with s_i, s_ij and the values of a basis cochain on
    unsorted arguments taken from ``koszul_sign``."""
    from superprolong.scalars import Scalar

    par = [b.parity for b in g.space]
    zero = Scalar(0)

    def extraction(pars, front):
        rest = [p for p in range(len(pars)) if p not in front]
        return koszul_sign(pars, list(front) + rest)

    def value(T0, args):
        """The coefficient of w(x_args) on the value of the basis cochain
        with tuple T0: the sign of sorting args into T0, or 0."""
        perm = sorted(range(len(args)), key=lambda p: args[p])
        if tuple(args[p] for p in perm) != T0:
            return 0
        return koszul_sign([par[a] for a in args], perm)

    out = {}
    for r, (T, e, _) in enumerate(target):
        pars = [par[t] for t in T]
        for c, (T0, b0, pw) in enumerate(basis):
            total = zero
            for i in range(len(T)):
                rest = T[:i] + T[i + 1 :]
                v = value(T0, rest)
                if v:
                    s = extraction(pars, (i,)) * (-1 if par[T[i]] and pw else 1)
                    br = g.bracket_indices(T[i], b0).get(e, zero)
                    total = total + br * Scalar(s * v)
            if e == b0:
                for i in range(len(T)):
                    for j in range(i + 1, len(T)):
                        rest = tuple(t for p, t in enumerate(T) if p not in (i, j))
                        for x, coeff in g.bracket_indices(T[i], T[j]).items():
                            v = value(T0, (x,) + rest)
                            if v:
                                s = extraction(pars, (i, j)) * v
                                total = total - coeff * Scalar(s)
            if total:
                out[(r, c)] = total
    return out


def scalar_differential_rows(g, basis, target):
    """The Spencer differential's sparse rows (dicts col -> Scalar) between
    cochain bases, one per target monomial, built in ``Scalar`` arithmetic
    from ``bracket_indices``: the loop that the package's Spencer rows ran
    before they were built in Gaussian integers over a common denominator
    (``spencer._stream_rows``, and ``CochainSlice.matrix_rows`` divides
    them by it)."""
    from superprolong.spencer import _slot_signs
    from superprolong.superspace import sort_with_sign

    space = g.space
    pos = {(T, b): r for r, (T, b, _) in enumerate(target)}
    cols_by_tuple = {}
    col_parity = {}
    for c, (T0, b0, par) in enumerate(basis):
        cols_by_tuple.setdefault(T0, []).append((c, b0))
        col_parity[c] = par
    rows = [dict() for _ in range(len(target))]

    def add(r, c, v):
        row = rows[r]
        old = row.get(c)
        val = v if old is None else old + v
        if val:
            row[c] = val
        else:
            row.pop(c, None)

    out_tuples = sorted({T for T, _, _ in target})
    k1 = len(out_tuples[0]) if out_tuples else 0
    for T in out_tuples:
        s1, s2 = _slot_signs(tuple(space[t].parity for t in T))
        for i in range(k1):
            rest = T[:i] + T[i + 1 :]
            hits = cols_by_tuple.get(rest)
            if not hits:
                continue
            s_i = s1[i]
            xi = T[i]
            pxi = space[xi].parity
            for c, b in hits:
                br = g.bracket_indices(xi, b)
                if not br:
                    continue
                tw = -s_i if (pxi and col_parity[c]) else s_i
                for tgt, s in br.items():
                    r = pos.get((T, tgt))
                    if r is None:
                        raise AssertionError("differential left the expected bidegree")
                    add(r, c, s * tw)
        for i in range(k1):
            for j in range(i + 1, k1):
                br = g.bracket_indices(T[i], T[j])
                if not br:
                    continue
                s_ij = s2[(i, j)]
                rest = tuple(t for p, t in enumerate(T) if p != i and p != j)
                rest_pars = [space[t].parity for t in rest]
                for cidx, s in br.items():
                    args = (cidx,) + rest
                    srt, sgn = sort_with_sign(
                        args, [space[cidx].parity] + rest_pars
                    )
                    if sgn == 0:
                        continue
                    hits = cols_by_tuple.get(srt)
                    if not hits:
                        continue
                    for c, b in hits:
                        add(pos[(T, b)], c, s * -(s_ij * sgn))
    return rows


def reduced_p_injective(g, d):
    """The reduced check's injectivity verdict in its kernel-then-project
    form: a kernel basis of delta on C^{d,2}(m, g), projected onto the
    monomials with an argument of degree -1, keeps its full rank.  This uses
    the package's sparse elimination but not the B-column rank criterion."""
    from superprolong.linalg import kernel_basis_rows, rank_rows
    from superprolong.spencer import CochainSlice

    c2 = CochainSlice(g, d, 2)
    a_rows = [
        r
        for r, (T, _, _) in enumerate(c2.basis)
        if any(g.space[t].degree == -1 for t in T)
    ]
    a_pos = {r: k for k, r in enumerate(a_rows)}
    ker2 = kernel_basis_rows(c2.matrix_rows, len(c2.basis))
    proj = [{a_pos[r]: x for r, x in v.items() if r in a_pos} for v in ker2]
    return rank_rows(proj) == len(ker2)


def prolongation_step(engine, i):
    """The degree-i prolongation step of a Prolongation engine, with its
    equations written out pair by pair rather than read off the Spencer
    rows of spencer._stream_rows.

    An element u of g_i is unknown through its values u(b) for every m-basis
    index b: unknowns (b, t) run over the coordinates t of the component of
    degree i + deg(b) (global m indices when negative, element indices of the
    computed component otherwise) of parity p + |b|.  For every pair v <= w
    the equation u([v,w]) - [u(v),w] + (-1)^{|v||w|}[u(w),v] = 0 gives one
    sparse row per target coordinate.  Returns the (parity, action) list."""
    from superprolong.linalg import kernel_basis_rows
    from superprolong.scalars import Scalar
    from superprolong.superspace import EVEN, ODD

    m, space, n, mu = engine.m, engine.space, engine.n, engine.m.mu

    def deg(b):
        return space[b].degree

    def par(b):
        return space[b].parity

    def coords(k, parity=None):
        if k < -mu or (k >= 0 and k not in engine.comp):
            return []
        if k < 0:
            idxs = space.indices_of_degree(k)
            pars = [par(t) for t in idxs]
        else:
            idxs = list(range(len(engine.comp[k].elements)))
            pars = [p for p, _ in engine.comp[k].elements]
        return [t for t, q in zip(idxs, pars) if parity is None or q == parity]

    def bracket_with_m(k, t, w):
        # [e_t, w] for a coordinate e_t of the degree-k component
        if k < 0:
            return m.bracket_indices(t, w)
        return engine.comp[k].elements[t][1].get(w, {})

    def equations(v, w, pos):
        if i + deg(v) + deg(w) < -mu:
            return []
        sgn_vw = Scalar(-1) if (par(v) and par(w)) else Scalar(1)
        coeffs = {}  # target coord -> {unknown col -> Scalar}

        def add(c, col, s):
            if s:
                row = coeffs.setdefault(c, {})
                row[col] = row.get(col, Scalar(0)) + s

        for d, s in m.bracket_indices(v, w).items():
            for t in coords(i + deg(d)):
                if (d, t) in pos:
                    add(t, pos[(d, t)], s)
        for t in coords(i + deg(v)):
            if (v, t) in pos:
                for c, s in bracket_with_m(i + deg(v), t, w).items():
                    add(c, pos[(v, t)], -s)
        for t in coords(i + deg(w)):
            if (w, t) in pos:
                for c, s in bracket_with_m(i + deg(w), t, v).items():
                    add(c, pos[(w, t)], sgn_vw * s)
        rows = ({col: x for col, x in row.items() if x} for row in coeffs.values())
        return [row for row in rows if row]

    elements = []
    for p in (EVEN, ODD):
        unknowns = []
        pos = {}
        for b in range(n):
            for t in coords(i + deg(b), (p + par(b)) % 2):
                pos[(b, t)] = len(unknowns)
                unknowns.append((b, t))
        if not unknowns:
            continue
        rows = []
        for v in range(n):
            for w in range(v, n):
                rows.extend(equations(v, w, pos))
        for vec in kernel_basis_rows(rows, len(unknowns)):
            action = {}
            for col, s in vec.items():
                b, t = unknowns[col]
                action.setdefault(b, {})[t] = s
            elements.append((p, action))
    return elements


def truncation(engine):
    """The truncated algebra m + g_0 + ... + g_top of a Prolongation engine
    rebuilt from scratch through the public constructor, as the engine did
    at every step before it grew one algebra, and the global index of the
    first element of each g_k.

    The basis is that of m, then the g%d_%d names; [e, x_b] is the
    action of e on b, and the constructor derives [x_b, e].  The
    brackets between the g_k are left out: they are what ``assemble``
    adds, and 1-cochains of m never read them."""
    from superprolong.liesuper import LieSuperalgebra
    from superprolong.superspace import BasisVector, GradedSuperSpace

    names = [b.name for b in engine.space]
    basis = list(engine.space.basis)
    offsets = {}
    for k in range(0, engine.top + 1):
        offsets[k] = len(basis)
        for idx, (par, _) in enumerate(engine.comp[k].elements):
            nm = "g%d_%d" % (k, idx + 1)
            while nm in names:
                nm += "'"
            names.append(nm)
            basis.append(BasisVector(nm, k, par))
    brackets = dict(engine.m.table)
    for k in range(0, engine.top + 1):
        for idx, (_, action) in enumerate(engine.comp[k].elements):
            for b, vec in action.items():
                off = offsets.get(k + engine._degs[b], 0)
                brackets[(offsets[k] + idx, b)] = {
                    off + t: s for t, s in vec.items()
                }
    g = LieSuperalgebra(GradedSuperSpace(basis), brackets, field=engine.m.field)
    return g, offsets


class RecursiveBrackets:
    """Brackets between the computed components of a Prolongation engine
    by the per-pair recursion the engine used before its block kernel:
    ``apply_element`` and ``bracket_elements`` as they stood there, on the
    engine's components and its Scalar ``_solve_in_component``, with their
    own cache of canonical pairs."""

    def __init__(self, engine):
        self.engine = engine
        self._brackets = {}

    def apply_element(self, k, e_idx, target_k, vec):
        """[e, x] for e in comp[k] (k >= 0) and x a vector in the degree
        target_k component; lands in degree k + target_k.  A bracket with a
        component element t is read from the cache in canonical order, with
        the super-antisymmetry sign folded into its coefficient."""
        from superprolong.linalg import svec_axpy
        from superprolong.superspace import ODD

        par_e, action = self.engine.comp[k].elements[e_idx]
        out = {}
        if target_k < 0:
            for b, c in vec.items():
                img = action.get(b)
                if img:
                    svec_axpy(out, c, img)
            return out
        elements = self.engine.comp[target_k].elements
        for t, c in vec.items():
            if (k, e_idx) <= (target_k, t):
                res = self.bracket_elements(k, e_idx, target_k, t)
            else:
                res = self.bracket_elements(target_k, t, k, e_idx)
                if not (par_e == ODD and elements[t][0] == ODD):
                    c = -c
            if res:
                svec_axpy(out, c, res)
        return out

    def bracket_elements(self, k, ek, l, el):
        """[e_k, e_l] for computed elements (k, l >= 0) as a vector over
        comp[k+l]; zero when k+l exceeds the stabilized range.  Only
        canonical pairs, (k, ek) <= (l, el), are cached; any other pair is
        the sign-flipped copy of its canonical one."""
        from superprolong.linalg import svec_axpy, svec_scale
        from superprolong.prolong import ProlongationError
        from superprolong.superspace import ODD

        key = (k, ek, l, el)
        if key in self._brackets:
            return self._brackets[key]
        pk, act_k = self.engine.comp[k].elements[ek]
        pl, act_l = self.engine.comp[l].elements[el]
        sign = 1 if (pk == ODD and pl == ODD) else -1
        if (l, el) < (k, ek):
            return svec_scale(self.bracket_elements(l, el, k, ek), sign)
        # z(b) = [e_k, [e_l, b]] - (-1)^{pk pl} [e_l, [e_k, b]]
        degs = self.engine._degs
        z_action = {}
        for b in act_l.keys() | act_k.keys():
            degb = degs[b]
            v1 = act_l.get(b)
            term = self.apply_element(k, ek, l + degb, v1) if v1 else {}
            v2 = act_k.get(b)
            if v2:
                svec_axpy(term, sign, self.apply_element(l, el, k + degb, v2))
            if term:
                z_action[b] = term
        degree = k + l
        if degree > self.engine.top or degree not in self.engine.comp:
            if z_action:
                raise ProlongationError(
                    "bracket [g_%d, g_%d] escapes the computed range" % (k, l)
                )
            self._brackets[key] = {}
            return {}
        res = self.engine._solve_in_component(degree, z_action)
        if res is None:
            raise ProlongationError(
                "bracket of g_%d and g_%d does not lie in g_%d "
                "(reduction compatibility violated by elements %d, %d)"
                % (k, l, degree, ek, el)
            )
        self._brackets[key] = res
        return res


def jacobi_violations_all_triples(L):
    """The "jacobi" violations of L's table on all n^3 ordered basis
    triples, every bracket read through ``L.bracket_indices``: the super
    Jacobi loop of ``liesuper.validate`` before it was restricted to
    canonical, degree-pruned triples."""
    from superprolong.linalg import svec_axpy
    from superprolong.scalars import Scalar

    space = L.space
    out = []

    def name(i):
        return space[i].name

    # super Jacobi on all ordered basis triples:
    #   [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|}[y,[x,z]]
    n = len(space)
    for x in range(n):
        px = space[x].parity
        for y in range(n):
            sgn = Scalar(-1) if (px and space[y].parity) else Scalar(1)
            xy = L.bracket_indices(x, y)
            for z in range(n):
                yz = L.bracket_indices(y, z)
                lhs = {}
                for c, s in yz.items():
                    svec_axpy(lhs, s, L.bracket_indices(x, c))
                rhs = {}
                for c, s in xy.items():
                    svec_axpy(rhs, s, L.bracket_indices(c, z))
                xz = L.bracket_indices(x, z)
                for c, s in xz.items():
                    svec_axpy(rhs, sgn * s, L.bracket_indices(y, c))
                defect = dict(lhs)
                svec_axpy(defect, Scalar(-1), rhs)
                if defect:
                    out.append(
                        {
                            "kind": "jacobi",
                            "where": (name(x), name(y), name(z)),
                            "detail": "defect "
                            + ", ".join(
                                "%s: %s" % (name(c), s.pretty())
                                for c, s in sorted(defect.items())
                            ),
                        }
                    )
    return out


# ---------------------------------------------------------------------------
# dense matrix products: the reference for matrix realizations and ranks
# ---------------------------------------------------------------------------
# A matrix here is a list of rows, each a list of Scalars.

def dense(action, n):
    """The n x n matrix of an action {src: {dst: Scalar}}: entry [i][j] is
    the coefficient of basis vector i in the image of basis vector j."""
    from superprolong.scalars import Scalar

    out = [[Scalar(0)] * n for _ in range(n)]
    for j, col in action.items():
        for i, s in col.items():
            out[i][j] = s
    return out


def mat_mul(A, other):
    """A * other for a matrix A and a matrix or a scalar."""
    from superprolong.scalars import Scalar, as_scalar

    if isinstance(other, list):
        if any(len(row) != len(other) for row in A):
            raise ValueError("shape mismatch")
        cols = range(len(other[0]) if other else 0)
        return [
            [sum((a * other[k][j] for k, a in enumerate(row) if a), Scalar(0))
             for j in cols]
            for row in A
        ]
    s = as_scalar(other)
    return [[e * s for e in row] for row in A]


def mat_add(A, B):
    if len(A) != len(B) or any(len(r1) != len(r2) for r1, r2 in zip(A, B)):
        raise ValueError("shape mismatch")
    return [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(A, B)]


def mat_apply(A, vec):
    """Matrix-vector product; vec is a list of Scalars."""
    from superprolong.scalars import Scalar

    return [sum((a * v for a, v in zip(row, vec) if a and v), Scalar(0)) for row in A]


def mat_is_zero(A):
    return all(not e for row in A for e in row)


def supertranspose(M, p):
    """Supertranspose convention under which X^st P + (-1)^{|X|} P X = 0
    cuts out the periplectic algebras in their block form:
    (A B; C D)^st = (A^t -C^t; B^t D^t)."""
    from superprolong.catalog import _entry_parity
    from superprolong.scalars import Scalar
    from superprolong.superspace import EVEN, ODD

    n = len(M)
    out = [[Scalar(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = M[i][j]
            if not s:
                continue
            sign = -1 if (_entry_parity(p, i) == ODD and _entry_parity(p, j) == EVEN) else 1
            out[j][i] = s * Scalar(sign)
    return out


# ---------------------------------------------------------------------------
# superspaces and jets
# ---------------------------------------------------------------------------

def exterior_dim(p, q, k):
    """dim Lambda^k of a (p|q)-dimensional space: sum_j C(p,k-j)*C(q+j-1,j)."""
    total = 0
    for j in range(k + 1):
        if k - j > p:
            continue
        multiset = 1 if j == 0 else (0 if q == 0 else comb(q + j - 1, j))
        total += comb(p, k - j) * multiset
    return total


def odd_coords(ctx, order):
    """All multi-indices (sorted tuples over 1..p) with |I| <= order of the
    jet context ctx."""
    out = [()]
    cur = [()]
    for _ in range(order):
        nxt = []
        for I in cur:
            lo = I[-1] if I else 1
            for i in range(lo, ctx.p + 1):
                nxt.append(I + (i,))
        out.extend(nxt)
        cur = nxt
    return out


def total_derivative(f, i=0):
    """D_{x^i} f = d/dx^i f + sum over the odd coordinates xi_I of f of
    xi_{I+e_i} * d_{xi_I} f, built from the ring's own products."""
    from superprolong.oddode import JetFunction

    out = f.diff_x(i)
    symbols = {I for key in f.terms for I in key[2]}
    for I in sorted(symbols, key=JetFunction.symbol_key):
        up = tuple(sorted(I + (i + 1,)))
        out = out + JetFunction.odd_coord(f.ambient, up) * f.diff_odd(I)
    return out


def apply_field(X, f):
    """X(f) as the sum over the directions d of X_d * (d f), one whole
    polynomial product and one sum at a time."""
    out = X.polynomial(X.ambient)
    for d, c in X.coeffs.items():
        df = f.diff_x(d[1]) if d[0] == "x" else f.diff_odd(d[1])
        if df:
            out = out + c * df
    return out


def lagrange_bracket(f, g):
    """[f, g] of generating superfunctions, term by term from the formula in
    the ``oddode`` docstring, each term a whole product."""
    from superprolong.oddode import JetFunction

    pf = f.parity()
    if pf is None:
        return JetFunction(f.ambient)
    sgn = -1 if pf else 1
    out = f * g.diff_odd(()) + (f.diff_odd(()) * g).scale(sgn)
    for i in range(f.ambient.p):
        out = out + f.first_order_total(i) * g.diff_odd((i + 1,))
        out = out + (f.diff_odd((i + 1,)) * g.first_order_total(i)).scale(sgn)
    return out


def prolong_field_direct(f, r):
    """Prolongation of S_f to J^r, every level recomputed: the d_{xi_I}
    coefficient for |I| = k is D_{x^{j_1}}...D_{x^{j_k}} f truncated to jet
    order k."""
    from superprolong.oddode import ContactField, contact_vf
    from superprolong.superspace import _check_degree

    ctx = f.ambient
    base = contact_vf(f)
    _check_degree("prolongation order", r)
    if r < 1:
        raise ValueError("prolongation order must be >= 1")
    coeffs = dict(base.coeffs)
    level = {(): f}
    for k in range(1, r + 1):
        nxt = {}
        for I, g in level.items():
            lo = I[-1] if I else 1
            for i in range(lo, ctx.p + 1):
                J = I + (i,)
                if J in nxt:
                    continue
                nxt[J] = g.total_derivative(i - 1)
        level = nxt
        if k >= 2:
            for J, g in level.items():
                t = g.truncate(k)
                if t:
                    coeffs[("xi", J)] = t
    return ContactField(ctx, base.parity, coeffs)


def restrict(S, order):
    """The contact field S on J^order: coefficients truncated to jet order
    order, directions d_{xi_I} with |I| > order dropped."""
    from superprolong.oddode import ContactField

    return ContactField(
        S.ambient, S.parity,
        {
            d: f.truncate(order)
            for d, f in S.coeffs.items()
            if d[0] == "x" or len(d[1]) <= order
        },
    )


def iota_sigma(S):
    """Contraction of the contact form sigma = d xi - dx^i xi_i with S."""
    from superprolong.oddode import JetFunction

    ctx = S.ambient
    out = JetFunction(ctx) + S.coefficient(("xi", ()))
    for i in range(ctx.p):
        cx = S.coefficient(("x", i))
        if cx:
            out = out - cx * JetFunction.odd_coord(ctx, (i + 1,))
    return out


def contact_form_preserved(S):
    """sigma([S, V]) = 0 for V in the contact distribution of J^1."""
    from superprolong.oddode import ContactField, JetFunction
    from superprolong.superspace import EVEN, ODD

    ctx = S.ambient
    kernel_fields = []
    for i in range(ctx.p):
        kernel_fields.append(
            ContactField(
                ctx, EVEN,
                {
                    ("x", i): JetFunction.constant(ctx, 1),
                    ("xi", ()): JetFunction.odd_coord(ctx, (i + 1,)),
                },
            )
        )
        kernel_fields.append(
            ContactField(
                ctx, ODD,
                {("xi", (i + 1,)): JetFunction.constant(ctx, 1)},
            )
        )
    for V in kernel_fields:
        if iota_sigma(S.bracket(V)):
            return False
    return True
