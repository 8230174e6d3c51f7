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
rows.  The rows are streamed: ``_stream_rows`` yields them in target order
as Gaussian-integer pairs (re, im) off g's ``_int_table``, D times the
Scalar rows with D the one table-wide lcm of the denominators, the rows of
one argument tuple as soon as that tuple is done.  Ranks, row independence
and kernel bases do not change under one common scale, so the callers
eliminate the integer rows as they are.  ``one_cocycles`` and both halves
of the reduced check feed the stream straight into an elimination that
stops at full column rank, so the rows past the stop are never built;
``CochainSlice`` is the one view that keeps them, as a list, and divides
them by D in ``matrix_rows``.

Reduced differential.  C^{d,2} = A + B, where A is spanned by the monomials
with an argument of degree -1 and B by those with both arguments of degree
<= -2; p projects onto A along B.  The check eliminates the rows of
delta: C^{d,1} -> C^{d,2} once, streamed A rows first; A or B is decided by
the argument tuple, so each tuple's rows stay together.  A row becomes a
pivot iff it is independent of the rows before it, so rank(p o delta) is
the number of pivots among the A rows, rank(delta) the number of all
pivots, and the A monomials whose rows reduce to zero span a complement Z
of Im(p o delta) in A.  Since ker p = B, p is injective on
ker(delta | C^{d,2}) exactly when delta restricted to the B monomials has
rank |B|, computed from the B columns alone, without a kernel basis.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import groupby
from operator import itemgetter

from .linalg import _echelon
from .scalars import Scalar
from .superspace import (EVEN, ODD, BasisVector, _check_degree,
                         exterior_power_basis, sort_with_sign)


class CochainSlice:
    """The component C^{d,k}(m, g) with the sparse rows of its differential
    d: C^{d,k} -> C^{d,k+1} in the canonical monomial bases: ``_rows``, the
    ``_stream_rows`` in Gaussian integers, and ``matrix_rows``, the same
    divided by ``_den`` (g's table-wide D).  target, if given, is C^{d,k+1}
    as ``cochain_basis`` built it."""

    def __init__(self, g, d, k, target=None):
        self.g = g
        self.d = d
        self.k = k
        self.basis = cochain_basis(g, d, k)
        self.target = cochain_basis(g, d, k + 1) if target is None else target
        self._rows = list(_stream_rows(g, self.basis, self.target))
        self._den = g._int[0]

    @cached_property
    def matrix_rows(self):
        return [{c: Scalar(a, b) / self._den for c, (a, b) in row.items()}
                for row in self._rows]


def cochain_basis(g, d, k):
    """Basis of C^{d,k}: triples (tuple, value_index, parity), one for each
    canonical k-monomial of m (``exterior_power_basis`` of the negative part
    of g, indices mapped back into g) and each basis vector of g whose degree
    exceeds the monomial's by d.  d must be an int and k an int >= 0."""
    _check_degree("d", d)
    _check_degree("k", k, 0)
    return list(_cochains(g, d, k))


def _cochains(g, d, k, keep=None):
    """The ``cochain_basis`` triples, in order and drawn lazily; with keep,
    only those of the argument tuples T with keep(T)."""
    space = g.space
    m_idx = [i for i, b in enumerate(space) if b.degree < 0]
    by_degree = {}
    for b, bv in enumerate(space):
        by_degree.setdefault(bv.degree, []).append((b, bv.parity))
    key = tuple((space[i].degree, space[i].parity) for i in m_idx)
    for T, deg, par in _exterior_basis(key, k):
        values = by_degree.get(deg + d)
        if values is None:
            continue
        T = tuple(m_idx[i] for i in T)
        if keep is None or keep(T):
            for b, parity in values:
                yield T, b, (par + parity) % 2


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


def _stream_rows(g, basis, target):
    """D times the differential's rows on the basis monomials, one dict
    col -> (re, im) per target monomial, in Gaussian integers read off g's
    integer table (``_int_table``) over its D, yielded in target order.
    target may be any iterable that keeps the monomials of each argument
    tuple T together; the rows of T are written only while T is
    processed and yielded as soon as it is done, so a reader that stops
    early leaves the later rows unbuilt."""
    cols_by_tuple = {}
    for c, (T0, b0, par) in enumerate(basis):
        cols_by_tuple.setdefault(T0, []).append((c, b0, par))
    br = (g._int or g._int_table())[1]
    par = [v.parity for v in g.space]

    def add(row, c, x, y):
        if (old := row.get(c)) is not None:
            x, y = x + old[0], y + old[1]
        if x or y:
            row[c] = (x, y)
        else:
            del row[c]

    for T, group in groupby(target, itemgetter(0)):
        bs = [b for _, b, _ in group]
        pos = {b: r for r, b in enumerate(bs)}
        rows = [{} for _ in bs]
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
        yield from rows


def cohomology_dims(d, k, m, g=None):
    """Superdimension (even|odd) of H^{d,k}(m, g).

    delta is even, so a row whose target has parity p has its entries in
    the parity-p columns only: delta on the parity-p cochains is those rows,
    ranked as they stand, with no column remap.  Only the rank is read, so
    the rows go in shortest first, and the elimination stops once it has
    as many pivots as the slice has parity-p columns.  C^{d,k} is built
    once, as the basis of one slice and the target of the other.  d must
    be an int and k an int >= 0 (``cochain_basis`` checks both).
    """
    g = m if g is None else g
    here = CochainSlice(g, d, k)
    slices = [here]
    if k >= 1:
        slices.append(CochainSlice(g, d, k - 1, target=here.basis))
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

    Both eliminations read the rows as ``_stream_rows`` yields them and
    stop at full column rank, where every later row is dependent, so the
    rows past the stop are never built.  The A-then-B one keeps its order,
    because Z depends on it: an A row left after the stop counts as
    dependent, as its reduction would have shown.  The injectivity half
    reads only a rank, but its rows stay in target order as well: the stop
    comes sooner there than with the shortest rows first, and its C^{d,3}
    target is drawn monomial by monomial as the stream asks for it.
    """
    g = m if g is None else g
    degs = [b.degree for b in g.space]
    mdegs = [abs(d) for d in degs if d < 0]
    if not mdegs:
        raise ValueError("coefficients have no negative part")
    deep = {i for i, x in enumerate(degs) if x <= -2}
    d_min = min(degs) + 2 * 1
    d_max = max(degs) + 2 * max(mdegs)
    report = {"ok": True, "degrees": {}}
    for d in range(d_min, d_max + 1):
        a_mons, b_mons = [], []
        for t in cochain_basis(g, d, 2):
            (b_mons if deep.issuperset(t[0]) else a_mons).append(t)
        if not a_mons and not b_mons:
            continue
        # one elimination, A rows first: the pivots among them are the
        # rank of p o delta
        basis = cochain_basis(g, d, 1)
        ncols = len(basis)
        independent = []
        _echelon(_stream_rows(g, basis, a_mons + b_mons), independent,
                 units=True, ncols=ncols)
        independent = set(independent)
        z_members = [t for i, t in enumerate(a_mons) if i not in independent]
        rk_full = len(independent)
        rk_part = len(a_mons) - len(z_members)
        entry = {
            "ker_delta": ncols - rk_full,
            "ker_partial": ncols - rk_part,
            "kernels_agree": rk_full == rk_part,
        }
        # on a cochain w supported on B, a 3-monomial whose arguments all
        # have degree -1 gets zero from both terms of delta: w vanishes on
        # the pairs of its arguments and on ([x_i, x_j], x_k), which holds
        # x_k of degree -1; so those rows are left out of the target
        target = _cochains(g, d, 3, keep=lambda T: not deep.isdisjoint(T))
        entry["p_injective_on_ker"] = not b_mons or len(_echelon(
            _stream_rows(g, b_mons, target), units=True, ncols=len(b_mons),
        )) == len(b_mons)
        ok = entry["kernels_agree"] and entry["p_injective_on_ker"]
        if ok:
            # complement N = Z + B: the A monomials whose rows depend on the
            # A rows before them extend Im(p o delta) to all of A
            entry["complement_Z"] = [_monomial_label(g, t) for t in z_members]
            entry["complement_B_dim"] = len(b_mons)
        else:
            report["ok"] = False
        report["degrees"][d] = entry
    return report


def _monomial_label(g, basis_elem):
    T, b, _ = basis_elem
    names = [g.space[t].name for t in T]
    return "^".join("%s*" % nm for nm in names) + "(x)" + g.space[b].name
