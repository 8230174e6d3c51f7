"""Generalized Spencer complex Lambda^k m* (x) g and its cohomology.

Coefficients g are a graded Lie superalgebra whose negative part is the
symbol m; the m-action is the bracket of g.  A k-cochain is a
super-alternating k-linear map m^k -> g, stored by its values on canonical
argument tuples (weakly increasing basis indices, strictly increasing on
even-parity indices).

Normative differential.  For a parity-homogeneous k-cochain w,

  (d w)(x_1,...,x_{k+1}) =
      sum_i  s_i (-1)^{|x_i||w|} [x_i, w(..., no x_i, ...)]
    - sum_{i<j} s_ij w([x_i, x_j], ..., no x_i, x_j, ...)

where s_i is the Koszul sign of extracting x_i to the front of the argument
list and s_ij of extracting x_i then x_j (exterior convention: adjacent
transposition contributes -1 unless both symbols are odd).  For k = 1 and
even w this is [x1, w(x2)] - (-1)^{|x1||x2|}[x2, w(x1)] - w([x1, x2]), and
for every parity the kernel on degree-i 1-cochains coincides with the
degree-i prolongation equations written out by hand (the step oracle in
tests/oracles.py, compared on random symbols); these two anchors fix the
convention.

This is the package's one Chevalley-Eilenberg differential:
``liesuper.one_cocycles`` reads the 1-cocycles Z^{d,1}(m, g) off it, which
are the degree-d derivations of m (``derivations_gr``, g = m) and the
prolongation component g_i (``Prolongation.step``, g the truncated algebra
m + g_0 + ... + g_{i-1}, an ordinary ``LieSuperalgebra`` without the
brackets between the g_k, which 1-cochains of m never read); the engine
checks a prescribed g_0 by applying its C^{0,1}(m, m) rows, and
``cohomology_dims`` and ``reduced_differential_check`` take ranks of its
rows.  The rows are built once per call as Gaussian-integer pairs (re, im)
off g's ``_int_table``: D times the Scalar rows, D the one table-wide lcm of
the denominators.  Ranks, row independence and kernel bases do not change
under one common scale, so these callers eliminate the integer rows as they
are; ``differential_rows`` and ``CochainSlice.matrix_rows`` divide them by D.

Reduced differential.  C^{d,2} = A + B, where A is spanned by the monomials
with an argument of degree -1 and B by those with both arguments of degree
<= -2; p projects onto A along B.  The check eliminates the rows of
delta: C^{d,1} -> C^{d,2} once, A rows first.  A row becomes a pivot iff it
is independent of the rows before it, so rank(p o delta) is the number of
pivots among the A rows, rank(delta) the number of all pivots, and the A
monomials whose rows reduce to zero span a complement Z of Im(p o delta)
in A.  Since ker p = B, p is injective on ker(delta | C^{d,2}) exactly when
delta restricted to the B monomials has rank |B|, computed from the B
columns alone, without a kernel basis.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .linalg import _echelon
from .scalars import Scalar
from .superspace import (EVEN, ODD, BasisVector, exterior_power_basis,
                         sort_with_sign)


class CochainSlice:
    """The component C^{d,k}(m, g) with the sparse rows of its differential
    d: C^{d,k} -> C^{d,k+1} in the canonical monomial bases: ``_rows`` in
    Gaussian integers, ``_den`` (g's table-wide D) times ``matrix_rows``."""

    def __init__(self, g, d, k):
        self.g = g
        self.d = d
        self.k = k
        self.basis = cochain_basis(g, d, k)
        self.target = cochain_basis(g, d, k + 1)
        self._rows, self._den = _differential_rows(g, self.basis, self.target)

    @cached_property
    def matrix_rows(self):
        return _scalar_rows(self._rows, self._den)


def cochain_basis(g, d, k):
    """Basis of C^{d,k}: triples (tuple, value_index, parity), one for each
    canonical k-monomial of m (``exterior_power_basis`` of the negative part
    of g, indices mapped back into g) and each basis vector of g whose degree
    exceeds the monomial's by d."""
    space = g.space
    m_idx = [i for i, b in enumerate(space) if b.degree < 0]
    by_degree = {}
    for b, bv in enumerate(space):
        by_degree.setdefault(bv.degree, []).append((b, bv.parity))
    key = tuple((space[i].degree, space[i].parity) for i in m_idx)
    out = []
    for T, deg, par in _exterior_basis(key, k):
        T = tuple(m_idx[i] for i in T)
        for b, parity in by_degree.get(deg + d, ()):
            out.append((T, b, (par + parity) % 2))
    return out


@lru_cache(maxsize=None)
def _exterior_basis(m, k):
    """(indices, degree, parity) of the ``exterior_power_basis`` monomials
    of m's (degree, parity) pairs."""
    return tuple((mono.indices, mono.degree, mono.parity) for mono in
                 exterior_power_basis([BasisVector("", *dp) for dp in m], k))


@lru_cache(maxsize=None)
def _slot_signs(pars):
    """(s_i per slot i, s_ij per slot pair i < j) of argument slots with
    these parities: the signs of sorting the slot orders (i, rest) and
    (i, j, rest) back into place."""
    def sign(front):
        order = front + tuple(p for p in range(len(pars)) if p not in front)
        return sort_with_sign(order, [pars[p] for p in order])[1]

    slots = range(len(pars))
    return ([sign((i,)) for i in slots],
            {(i, j): sign((i, j)) for i in slots for j in slots if i < j})


def differential_rows(g, basis, target):
    """Sparse matrix rows (dicts col -> Scalar) of the differential w.r.t.
    monomial bases; rows are indexed by the target basis."""
    return _scalar_rows(*_differential_rows(g, basis, target))


def _scalar_rows(rows, den):
    """The integer rows divided by den, as dicts col -> Scalar."""
    return [{c: Scalar(a, b) / den for c, (a, b) in row.items()}
            for row in rows]


def _differential_rows(g, basis, target):
    """(rows, D): D times the rows of ``differential_rows`` in Gaussian
    integers, read off g's integer table (``_int_table``) over its D."""
    rows_of = {}
    for r, (T, b, _) in enumerate(target):
        rows_of.setdefault(T, {})[b] = r
    cols_by_tuple = {}
    for c, (T0, b0, par) in enumerate(basis):
        cols_by_tuple.setdefault(T0, []).append((c, b0, par))
    den, br = g._int or g._int_table()
    par = [v.parity for v in g.space]
    rows = [{} for _ in range(len(target))]

    def add(row, c, x, y):
        if (old := row.get(c)) is not None:
            x, y = x + old[0], y + old[1]
        if x or y:
            row[c] = (x, y)
        else:
            del row[c]

    for T, pos in sorted(rows_of.items()):
        s1, s2 = _slot_signs(tuple(par[t] for t in T))
        for i, xi in enumerate(T):
            s_i = s1[i]
            for c, b, pc in cols_by_tuple.get(T[:i] + T[i + 1 :], ()):
                vec = br[xi].get(b)
                if vec is None:
                    continue
                tw = -s_i if (par[xi] and pc) else s_i
                for tgt, x, y in vec:
                    r = pos.get(tgt)
                    if r is None:
                        raise AssertionError("differential left the expected bidegree")
                    add(rows[r], c, x * tw, y * tw)
        for (i, j), s_ij in s2.items():
            vec = br[T[i]].get(T[j])
            if vec is None:
                continue
            rest = tuple(t for p, t in enumerate(T) if p != i and p != j)
            rest_pars = [par[t] for t in rest]
            for cidx, x, y in vec:
                srt, sgn = sort_with_sign(
                    (cidx,) + rest, [par[cidx]] + rest_pars
                )
                if sgn == 0:
                    continue
                f = -(s_ij * sgn)
                for c, b, _ in cols_by_tuple.get(srt, ()):
                    add(rows[pos[b]], c, x * f, y * f)
    return rows, den


def cohomology_dims(d, k, m, g=None):
    """Superdimension (even|odd) of H^{d,k}(m, g).

    delta is even, so a row whose target has parity p has its entries in
    the parity-p columns only: delta on the parity-p cochains is those rows,
    ranked as they stand, with no column remap.  Only the rank is read, so
    the rows go in shortest first, and the elimination stops once it has
    as many pivots as the slice has parity-p columns.  d must be an int and
    k an int >= 0.
    """
    if type(d) is not int:
        raise ValueError("d must be an int, got %r" % (d,))
    if type(k) is not int or k < 0:
        raise ValueError("k must be an int >= 0, got %r" % (k,))
    g = m if g is None else g
    here = CochainSlice(g, d, k)
    slices = [here, CochainSlice(g, d, k - 1)] if k >= 1 else [here]
    dims = []
    for parity in (EVEN, ODD):
        dim = sum(1 for _, _, p in here.basis if p == parity)
        for sl in slices:
            dim -= len(_echelon(
                sorted((row for row, (_, _, p) in zip(sl._rows, sl.target)
                        if p == parity), key=len),
                units=True,
                ncols=sum(1 for _, _, p in sl.basis if p == parity),
            ))
        dims.append(dim)
    return tuple(dims)


def reduced_differential_check(m, g=None):
    """Check ker(p o delta) = ker(delta) on 1-cochains and injectivity of p on
    ker(delta | C^{d,2}) for every degree d with nonzero C^{d,2}; emit a
    complement N = Z + B per degree on success.  A, B, p and the ranks that
    decide both halves are as in the module docstring.

    Both eliminations stop at full column rank, where every later row is
    dependent.  The A-then-B one keeps its order, because Z depends on it:
    an A row left after the stop counts as dependent, as its reduction
    would have shown.  The injectivity half reads only a rank, but its rows
    stay in target order as well: the stop comes sooner there than with
    the shortest rows first.
    """
    g = m if g is None else g
    space = g.space
    degs = [b.degree for b in space]
    mdegs = [abs(d) for d in degs if d < 0]
    if not mdegs:
        raise ValueError("coefficients have no negative part")
    d_min = min(degs) + 2 * 1
    d_max = max(degs) + 2 * max(mdegs)
    report = {"ok": True, "degrees": {}}
    for d in range(d_min, d_max + 1):
        c1 = CochainSlice(g, d, 1)
        if not c1.target:
            continue
        a_rows, b_rows = [], []
        for r, (T, _, _) in enumerate(c1.target):
            if all(space[t].degree <= -2 for t in T):
                b_rows.append(r)
            else:
                a_rows.append(r)
        # one elimination, A rows first: the pivots among them are the
        # rank of p o delta
        ncols = len(c1.basis)
        independent = []
        _echelon((c1._rows[r] for r in a_rows + b_rows), independent,
                 units=True, ncols=ncols)
        independent = set(independent)
        z_members = [r for i, r in enumerate(a_rows) if i not in independent]
        rk_full = len(independent)
        rk_part = len(a_rows) - len(z_members)
        entry = {
            "ker_delta": ncols - rk_full,
            "ker_partial": ncols - rk_part,
            "kernels_agree": rk_full == rk_part,
        }
        b_cols = [c1.target[r] for r in b_rows]
        # on a cochain w supported on B, a 3-monomial whose arguments all
        # have degree -1 gets zero from both terms of delta: w vanishes on
        # the pairs of its arguments and on ([x_i, x_j], x_k), which holds
        # x_k of degree -1; so those rows are left out of the target
        target = [
            t for t in cochain_basis(g, d, 3)
            if any(space[x].degree <= -2 for x in t[0])
        ]
        entry["p_injective_on_ker"] = not b_cols or len(_echelon(
            _differential_rows(g, b_cols, target)[0], units=True,
            ncols=len(b_cols),
        )) == len(b_cols)
        ok = entry["kernels_agree"] and entry["p_injective_on_ker"]
        if ok:
            # complement N = Z + B: the A monomials whose rows depend on the
            # A rows before them extend Im(p o delta) to all of A
            entry["complement_Z"] = [
                _monomial_label(g, c1.target[r]) for r in z_members
            ]
            entry["complement_B_dim"] = len(b_rows)
        else:
            report["ok"] = False
        report["degrees"][d] = entry
    return report


def _monomial_label(g, basis_elem):
    T, b, _ = basis_elem
    names = [g.space[t].name for t in T]
    return "^".join("%s*" % nm for nm in names) + "(x)" + g.space[b].name
