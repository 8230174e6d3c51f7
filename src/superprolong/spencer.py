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
degree-i prolongation equations; these two anchors fix the convention.
"""

from __future__ import annotations

from .linalg import ExactMatrix, kernel_basis_rows, pivot_columns, rank_rows
from .scalars import Scalar
from .superspace import EVEN, ODD, extraction_sign, sort_with_sign
from .liesuper import LieSuperalgebra, SymbolAlgebra


class CochainSlice:
    """The component C^{d,k}(m, g) with its differential matrix d: C^{d,k} ->
    C^{d,k+1} in the canonical monomial bases."""

    def __init__(self, g, d, k):
        self.g = g
        self.d = d
        self.k = k
        self.basis = cochain_basis(g, d, k)
        self.target = cochain_basis(g, d, k + 1)
        self.matrix_rows = differential_rows(g, self.basis, self.target)

    def matrix(self):
        if not self.basis or not self.target:
            return ExactMatrix.zeros(len(self.target), len(self.basis), self.g.field)
        n = len(self.basis)
        dense = [
            [row.get(c, Scalar(0)) for c in range(n)] for row in self.matrix_rows
        ]
        return ExactMatrix(dense, self.g.field)

    def superdim(self):
        p = sum(1 for t in self.basis if t[2] == EVEN)
        return (p, len(self.basis) - p)


def _mpart(g):
    return [i for i, b in enumerate(g.space) if b.degree < 0]


def canonical_tuples(g, k):
    """Canonical k-tuples of m-indices: weakly increasing, strict on evens."""
    m_idx = _mpart(g)
    space = g.space
    out = []

    def rec(start, chosen):
        if len(chosen) == k:
            out.append(tuple(chosen))
            return
        for pos in range(start, len(m_idx)):
            i = m_idx[pos]
            nxt = pos if space[i].parity == ODD else pos + 1
            chosen.append(i)
            rec(nxt, chosen)
            chosen.pop()

    rec(0, [])
    return out


def cochain_basis(g, d, k):
    """Basis of C^{d,k}: triples (tuple, value_index, parity)."""
    space = g.space
    out = []
    for T in canonical_tuples(g, k):
        argdeg = sum(space[t].degree for t in T)
        argpar = sum(space[t].parity for t in T) % 2
        for b, bv in enumerate(space):
            if bv.degree - argdeg == d:
                out.append((T, b, (argpar + bv.parity) % 2))
    return out


def differential_rows(g, basis, target):
    """Sparse matrix rows (dicts col -> Scalar) of the differential w.r.t.
    monomial bases; rows are indexed by the target basis."""
    space = g.space
    pos = {(T, b): r for r, (T, b, _) in enumerate(target)}
    cols_by_tuple = {}
    col_parity = {}
    for c, (T0, b0, par) in enumerate(basis):
        cols_by_tuple.setdefault(T0, []).append((c, b0))
        col_parity[c] = par
    rows = [dict() for _ in range(len(target))]

    def deposit(T, gvec, c, factor):
        for tgt, s in gvec.items():
            key = (T, tgt)
            r = pos.get(key)
            if r is None:
                if s:
                    raise AssertionError("differential left the expected bidegree")
                continue
            val = rows[r].get(c, Scalar(0)) + factor * s
            if val:
                rows[r][c] = val
            else:
                rows[r].pop(c, None)

    out_tuples = sorted({T for T, _, _ in target})
    k1 = len(out_tuples[0]) if out_tuples else 0
    for T in out_tuples:
        pars = [space[t].parity for t in T]
        for i in range(k1):
            rest = T[:i] + T[i + 1 :]
            hits = cols_by_tuple.get(rest)
            if not hits:
                continue
            s_i = extraction_sign(pars, (i,))
            xi = T[i]
            pxi = space[xi].parity
            for c, b in hits:
                br = g.bracket_indices(xi, b)
                if not br:
                    continue
                tw = -s_i if (pxi and col_parity[c]) else s_i
                deposit(T, br, c, Scalar(tw))
        for i in range(k1):
            for j in range(i + 1, k1):
                br = g.bracket_indices(T[i], T[j])
                if not br:
                    continue
                s_ij = extraction_sign(pars, (i, j))
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
                        val = rows[pos[(T, b)]].get(c, Scalar(0)) - Scalar(
                            s_ij * sgn
                        ) * s
                        if val:
                            rows[pos[(T, b)]][c] = val
                        else:
                            rows[pos[(T, b)]].pop(c, None)
    return rows


def ce_differential(d, k, m, g=None):
    """Matrix of the Chevalley-Eilenberg differential C^{d,k} -> C^{d,k+1}.

    m is accepted for interface symmetry (its dimensions are checked against
    the negative part of g); pass the coefficient algebra as g.
    """
    if g is None:
        g = m if isinstance(m, LieSuperalgebra) else m.alg
    if isinstance(g, SymbolAlgebra):
        g = g.alg
    if m is not None and m is not g:
        malg = m.alg if isinstance(m, SymbolAlgebra) else m
        for deg in malg.space.degrees():
            if malg.space.superdim(deg) != g.space.superdim(deg):
                raise ValueError(
                    "negative part of g does not match m at degree %d" % deg
                )
    return CochainSlice(g, d, k).matrix()


def _parity_blocks(basis):
    ev = [i for i, (_, _, p) in enumerate(basis) if p == EVEN]
    od = [i for i, (_, _, p) in enumerate(basis) if p == ODD]
    return ev, od


def _restrict(rows, row_idx, col_idx):
    """Restrict sparse rows to a column subset (columns are reindexed)."""
    remap = {c: k for k, c in enumerate(col_idx)}
    return [
        {remap[c]: v for c, v in rows[r].items() if c in remap} for r in row_idx
    ]


def cohomology_dims(d, k, m, g=None):
    """Superdimension (even|odd) of H^{d,k}(m, g)."""
    if g is None:
        g = m if isinstance(m, LieSuperalgebra) else m.alg
    if isinstance(g, SymbolAlgebra):
        g = g.alg
    here = CochainSlice(g, d, k)
    below = CochainSlice(g, d, k - 1) if k >= 1 else None
    dims = []
    for parity in (EVEN, ODD):
        cols = [i for i, (_, _, p) in enumerate(here.basis) if p == parity]
        if here.target and here.basis:
            rows = _restrict(
                here.matrix_rows, range(len(here.target)), cols
            )
            r = rank_rows(rows, len(cols))
        else:
            r = 0
        ker = len(cols) - r
        rk_below = 0
        if below is not None and below.basis:
            bcols = [i for i, (_, _, p) in enumerate(below.basis) if p == parity]
            if bcols and below.target:
                rows = _restrict(
                    below.matrix_rows, range(len(below.target)), bcols
                )
                rk_below = rank_rows(rows, len(bcols))
        dims.append(ker - rk_below)
    return tuple(dims)


class ReducedSlice:
    """The reduced differential data at degree d: A = (g_{-1}* ^ m*) (x) g,
    the projection p onto A (forget tuples with both arguments of degree
    <= -2) and the operator p o delta."""

    def __init__(self, g, d):
        self.g = g
        self.d = d
        self.c1 = CochainSlice(g, d, 1)
        self.c2 = CochainSlice(g, d, 2)
        space = g.space
        self.a_rows = [
            r
            for r, (T, _, _) in enumerate(self.c2.basis)
            if any(space[t].degree == -1 for t in T)
        ]
        self.b_rows = [
            r
            for r, (T, _, _) in enumerate(self.c2.basis)
            if all(space[t].degree <= -2 for t in T)
        ]

    def partial_rows(self):
        return [self.c1.matrix_rows[r] for r in self.a_rows]


def reduced_differential_check(m, g=None):
    """Check ker(p o delta) = ker(delta) on 1-cochains and injectivity of p on
    ker(delta | C^{d,2}) for every degree d with nonzero C^{d,2}; emit a
    complement N = Z + B per degree on success."""
    if g is None:
        g = m if isinstance(m, LieSuperalgebra) else m.alg
    if isinstance(g, SymbolAlgebra):
        g = g.alg
    space = g.space
    degs = [b.degree for b in space]
    mdegs = [abs(d) for d in degs if d < 0]
    if not mdegs:
        raise ValueError("coefficients have no negative part")
    d_min = min(degs) + 2 * 1
    d_max = max(degs) + 2 * max(mdegs)
    report = {"ok": True, "degrees": {}}
    for d in range(d_min, d_max + 1):
        sl = ReducedSlice(g, d)
        if not sl.c2.basis:
            continue
        entry = {}
        ncols = len(sl.c1.basis)
        part = sl.partial_rows()
        if ncols:
            rk_full = rank_rows(sl.c1.matrix_rows, ncols)
            rk_part = rank_rows(part, ncols)
            entry["ker_delta"] = ncols - rk_full
            entry["ker_partial"] = ncols - rk_part
            entry["kernels_agree"] = rk_full == rk_part
        else:
            entry["ker_delta"] = entry["ker_partial"] = 0
            entry["kernels_agree"] = True
        # injectivity of p on ker(delta | C^{d,2})
        ker2 = kernel_basis_rows(sl.c2.matrix_rows, len(sl.c2.basis))
        a_pos = {r: k for k, r in enumerate(sl.a_rows)}
        proj = [{a_pos[r]: x for r, x in v.items() if r in a_pos} for v in ker2]
        entry["p_injective_on_ker"] = rank_rows(proj, len(sl.a_rows)) == len(ker2)
        ok = entry["kernels_agree"] and entry["p_injective_on_ker"]
        if ok:
            # complement N = Z + B: the standard monomials of A at non-pivot
            # positions of Im(partial) extend it to all of A
            by_col = {}
            for r_local, row in enumerate(part):
                for c, v in row.items():
                    by_col.setdefault(c, {})[r_local] = v
            im_vecs = [by_col.get(c, {}) for c in range(ncols)]
            pivset = set(pivot_columns(im_vecs, len(sl.a_rows)))
            z_members = [
                sl.a_rows[r_local]
                for r_local in range(len(sl.a_rows))
                if r_local not in pivset
            ]
            entry["complement_Z"] = [
                _monomial_label(g, sl.c2.basis[r]) for r in z_members
            ]
            entry["complement_B_dim"] = len(sl.b_rows)
        else:
            report["ok"] = False
        report["degrees"][d] = entry
    return report


def _monomial_label(g, basis_elem):
    T, b, _ = basis_elem
    names = [g.space[t].name for t in T]
    return "^".join("%s*" % nm for nm in names) + "(x)" + g.space[b].name
