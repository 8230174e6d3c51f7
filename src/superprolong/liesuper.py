"""Lie superalgebras by structure constants.

Brackets are stored sparsely for canonical index pairs (a <= b); the other
order is derived from super antisymmetry [x,y] = -(-1)^{|x||y|}[y,x].
``validate`` re-checks everything that can go wrong with a structure-constant
table (grading, parity, antisymmetry of the raw input, super Jacobi) and
reports violations as data rather than raising.  Jacobi defects are reported
on canonical triples x <= y <= z when grading and antisymmetry hold, and on
all ordered triples otherwise; the Jacobiator runs on the table's one
Gaussian-integer copy, as the Spencer rows do.  ``LieSuperalgebra`` is the
one type: a symbol (``SymbolAlgebra``) is one concentrated in negative
degrees, and a prolongation's truncated algebra is an ordinary one over a
canonical table (``_canonical``) that the engine grows by each new
component, without the brackets between nonnegative components.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

from .linalg import (
    SpanSolver,
    _echelon,
    _int_row,
    _ints,
    _kernel_basis,
    _pair_axpy,
    kernel_basis_rows,
    svec_axpy,
    svec_scale,
)
from .scalars import FIELD_Q, Scalar, as_scalar
from .superspace import (
    EVEN,
    ODD,
    _check_degree,
    parity_to_str,
)
from .spencer import _stream_rows, cochain_basis


class LieSuperalgebra:
    """Finite-dimensional Lie superalgebra with exact structure constants.

    brackets maps basis-index pairs to sparse result vectors
    {target_index: Scalar}.  Any pair order may be supplied; storage is
    canonicalized to a <= b.  Matrix families carry a realization on
    R^{p|q}, rep_shape = (p, q): rep maps each basis index to its action
    {src: {dst: Scalar}}, the form g0 takes; structure constants remain the
    source of truth.

    The Spencer differentials read the table through its Gaussian-integer
    copy ``_int_table``, made at their first use or at the last ``validate``
    (which always rebuilds it); an in-place edit of ``table`` must drop it.
    An assembled prolongation's table is built on the first read of
    ``table`` or ``raw`` (see ``_canonical``), and the engine's truncated
    algebra grows its ``_int`` with each new component.
    """
    _int = None  # (D, br) of ``_int_table``, once made

    def __init__(self, space, brackets, field=FIELD_Q, rep=None, rep_shape=None):
        self.space = space
        self.field = field
        self.rep = rep
        self.rep_shape = rep_shape  # (p, q) of the defining representation
        n = len(space)
        self.raw = []
        for key, res in brackets.items():
            if not (type(key) is tuple and len(key) == 2 and all(
                    type(i) is int and 0 <= i < n for i in (*key, *res))):
                raise ValueError("bracket %r: every index must be an int in "
                                 "0..%d" % (key, n - 1))
            self.raw.append(
                (key, {c: t for c, s in res.items() if (t := as_scalar(s))}))
        self.table = {}
        for key, vec in self.raw:
            if key[0] <= key[1] and vec:
                self.table[key] = dict(vec)
        for (a, b), vec in self.raw:
            if a > b and (b, a) not in self.table:
                sign = Scalar(-1) if not (
                    space[a].parity == ODD and space[b].parity == ODD
                ) else Scalar(1)
                flipped = svec_scale(vec, sign)
                if flipped:
                    self.table[(b, a)] = flipped

    @classmethod
    def _canonical(cls, space, table, field):
        """An algebra over a table that is already canonical (a <= b) with
        zero-free Scalar coefficients, taken by reference, or over a thunk
        that returns one, called when ``table`` or ``raw`` is first read;
        ``raw`` is a live view of the table's own items."""
        alg = cls.__new__(cls)
        alg.space, alg.field = space, field
        alg.rep = alg.rep_shape = None
        if callable(table):
            alg._thunk = table
        else:
            alg.table = table
        return alg

    @cached_property
    def table(self):
        return self.__dict__.pop("_thunk")()

    raw = cached_property(lambda self: self.table.items())

    def _int_table(self, keys=None):
        """(D, br), stored on the algebra: D the lcm of the table's denominators,
        br[a][b] = D [x_a, x_b] as (c, re, im) triples for both orders.  Given
        keys added since, it grows the stored copy, or drops it (None) if a
        new denominator does not divide D."""
        par = [v.parity for v in self.space]
        ints = [(key, *_int_row(self.table[key].items()))
                for key in (self.table if keys is None else keys)]
        D, br = (lcm(*(d for _, _, d in ints)), []) if keys is None else self._int
        if any(D % d for _, _, d in ints):
            self._int = None
            return None
        br += ({} for _ in par[len(br):])
        for (a, b), row, d in ints:
            q = D // d
            vec = [(c, x * q, y * q) for c, (x, y) in row.items()]
            br[a][b] = vec
            if a != b:
                br[b][a] = vec if par[a] and par[b] else [(c, -x, -y) for c, x, y in vec]
        self._int = D, br
        return self._int

    # -- bracket evaluation ------------------------------------------------

    def bracket_indices(self, a, b):
        """[x_a, x_b] as a sparse vector."""
        if a <= b:
            return self.table.get((a, b), {})
        base = self.table.get((b, a))
        if not base:
            return {}
        sign = Scalar(1) if (
            self.space[a].parity == ODD and self.space[b].parity == ODD
        ) else Scalar(-1)
        return svec_scale(base, sign)

    def bracket_vec(self, u, v):
        """Bracket of sparse coordinate vectors (coefficients are scalars)."""
        out = {}
        for a, ca in u.items():
            for b, cb in v.items():
                res = self.bracket_indices(a, b)
                if res:
                    svec_axpy(out, ca * cb, res)
        return out

    def __len__(self):
        return len(self.space)

    def superdim(self):
        return self.space.superdim()

    # -- serialization -------------------------------------------------------

    def to_json(self):
        basis = [
            {"name": b.name, "degree": b.degree, "parity": parity_to_str(b.parity)}
            for b in self.space
        ]
        brackets = []
        for (a, b) in sorted(self.table):
            res = self.table[(a, b)]
            brackets.append(
                {
                    "left": self.space[a].name,
                    "right": self.space[b].name,
                    "result": [
                        {"basis": self.space[c].name, "coeff": res[c].to_str()}
                        for c in sorted(res)
                    ],
                }
            )
        return {"basis": basis, "brackets": brackets, "field": self.field}


class SymbolAlgebra(LieSuperalgebra):
    """A Lie superalgebra concentrated in degrees -mu..-1.

    It shares the basis, structure constants, raw input and matrix
    realization of ``alg`` by reference, so ``validate`` sees the same input.
    """

    def __init__(self, alg):
        degs = alg.space.degrees()
        if not degs or max(degs) > -1:
            raise ValueError("symbol algebra must live in negative degrees")
        self.space, self.field, self.raw, self.table = (
            alg.space, alg.field, alg.raw, alg.table
        )
        self.rep, self.rep_shape = alg.rep, alg.rep_shape
        self.mu = -min(degs)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(L):
    """All violations of the Lie-superalgebra axioms in L's table.

    Returns a list of dicts {"kind": ..., "where": names, "detail": str};
    empty list iff the structure constants define a graded Lie superalgebra.
    The raw-input antisymmetry check compares the two orders of a pair where
    both were given; a table built canonical (``_canonical``, as by the
    prolongation engine) has one order, so there it checks [x,x] = 0 only.

    Super Jacobi is checked through the Jacobiator
    J(x,y,z) = [x,[y,z]] - [[x,y],z] - (-1)^{|x||y|}[y,[x,z]] on basis
    triples.  If the degree, parity and antisymmetry checks
    report nothing, the bracket is graded and super-antisymmetric, and then
    swapping two adjacent arguments u, v of J multiplies it by
    -(-1)^{|u||v|}.  So J vanishes on every ordered triple iff it vanishes
    on every canonical triple x <= y <= z, and it vanishes outright when an
    even element repeats (then J = -J, and Q and Q(i) have characteristic
    0), when deg x + deg y + deg z is not a degree of L (J lies in that
    degree), or when [x,y], [y,z] and [x,z] are all zero.  Jacobi defects
    are then reported on the remaining canonical triples only.  Otherwise
    the argument does not apply, and they are reported on all n^3 ordered
    triples.

    The Jacobiator is computed on Gaussian integers over D, the one
    table-wide lcm of the denominators: the algebra's ``_int_table``, rebuilt
    from ``table`` on every call, so an edited table is read, and stored for
    the Spencer rows.  D^2 J is compared with 0, and a defect entry (u, v) is
    reported as the Scalar (u + v i) / D^2.
    """
    space = L.space
    out = []

    def name(i):
        return space[i].name

    def report(kind, where, detail):
        out.append({"kind": kind, "where": tuple(map(name, where)), "detail": detail})

    for (a, b), vec in L.raw:
        for c, s in vec.items():
            if not s:
                continue
            if space[c].degree != space[a].degree + space[b].degree:
                report("degree", (a, b, c), "deg %d != %d + %d"
                       % (space[c].degree, space[a].degree, space[b].degree))
            if space[c].parity != (space[a].parity + space[b].parity) % 2:
                report("parity", (a, b, c), "parity mismatch")

    # antisymmetry on the raw input: both orders present must be consistent,
    # and [x,x] = 0 for even x
    raw_map = dict(L.raw)
    for (a, b), vec in raw_map.items():
        if a == b and space[a].parity == EVEN and vec:
            report("antisymmetry", (a, a), "[x,x] != 0 for even x")
        if a < b and (b, a) in raw_map:
            other = raw_map[(b, a)]
            sign = Scalar(1) if (
                space[a].parity == ODD and space[b].parity == ODD
            ) else Scalar(-1)
            if svec_scale(other, sign) != vec:
                report("antisymmetry", (a, b), "[x,y] != -(-1)^{|x||y|}[y,x]")

    # super Jacobi, J(x,y,z) = [x,[y,z]] - [[x,y],z] - (-1)^{|x||y|}[y,[x,z]],
    # on the integer table rebuilt from the table as it stands, so the two
    # sides below are D^2 times the brackets
    n = len(space)
    par = [space[i].parity for i in range(n)]
    deg = [space[i].degree for i in range(n)]
    D, br = L._int_table()
    canonical = not out
    degrees = set(deg)
    empty = ()
    for x in range(n):
        bx = br[x]
        for y in range(x, n) if canonical else range(n):
            if canonical and y == x and not par[x]:
                continue
            by = br[y]
            xy = bx.get(y, empty)
            odd_xy = par[x] and par[y]
            for z in range(y, n) if canonical else range(n):
                if canonical and (
                    (z == y and not par[y])
                    or deg[x] + deg[y] + deg[z] not in degrees
                ):
                    continue
                yz = by.get(z, empty)
                xz = bx.get(z, empty)
                if not (xy or yz or xz):
                    continue
                # lhs - rhs = D^2 J(x,y,z); the [y,[x,z]] term goes to the
                # side where its sign is +
                lhs = {}
                rhs = {}
                for c, u, v in yz:
                    _pair_axpy(lhs, u, v, bx.get(c, empty))
                for c, u, v in xy:
                    _pair_axpy(rhs, u, v, br[c].get(z, empty))
                acc = lhs if odd_xy else rhs
                for c, u, v in xz:
                    _pair_axpy(acc, u, v, by.get(c, empty))
                if lhs != rhs:
                    defect = _pair_axpy(
                        dict(lhs), -1, 0, ((c, u, v) for c, (u, v) in rhs.items()))
                    report("jacobi", (x, y, z), "defect " + ", ".join(
                        "%s: %s" % (name(c), (Scalar(u, v) / (D * D)).pretty())
                        for c, (u, v) in sorted(defect.items())))
    return out


def _ungenerated(m):
    """For each degree -2 >= -d >= -mu of m, in turn, that g_{-1} does not
    generate, its first basis vector outside; each degree's generated part
    is bracketed on by a basis of it, and a depth-1 m brackets nothing."""
    space = m.space
    deg1 = space.indices_of_degree(-1)
    current = [{i: Scalar(1)} for i in deg1]
    for depth in range(2, m.mu + 1):
        nxt = []
        for b in deg1:
            for u in current:
                w = m.bracket_vec({b: Scalar(1)}, u)
                if w:
                    nxt.append(w)
        slice_idx = space.indices_of_degree(-depth)
        basis = []
        _echelon(_ints(nxt), basis, units=True, ncols=len(slice_idx))
        if len(basis) < len(slice_idx):
            solver = SpanSolver(nxt)
            yield next(i for i in slice_idx if solver.solve({i: Scalar(1)}) is None)
        current = [nxt[k] for k in basis]


def check_fundamental_nondegenerate(m):
    """Fundamentality (generated by g_{-1}) and non-degeneracy of a symbol.

    Returns {"ok": bool, "fundamental": bool, "nondegenerate": bool,
    "witnesses": [...]}; witnesses name offending basis vectors.  A plain
    ``LieSuperalgebra`` is wrapped in ``SymbolAlgebra`` first.
    """
    if not isinstance(m, SymbolAlgebra):
        m = SymbolAlgebra(m)
    space = m.space
    report = {"ok": True, "fundamental": True, "nondegenerate": True, "witnesses": []}
    for i in _ungenerated(m):
        report["ok"] = False
        report["fundamental"] = False
        report["witnesses"].append("not generated from degree -1: %s" % space[i].name)
    deg1 = space.indices_of_degree(-1)
    if m.mu > 1 and deg1:
        rows = []
        for b in range(len(space)):
            targets = {}
            for col, a in enumerate(deg1):
                res = m.bracket_indices(a, b)
                for c, s in res.items():
                    targets.setdefault(c, {})[col] = s
            rows.extend(targets[c] for c in sorted(targets))
        central = kernel_basis_rows(rows, len(deg1))
        if central:
            report["ok"] = False
            report["nondegenerate"] = False
            for v in central:
                terms = [space[deg1[k]].name for k in v]
                report["witnesses"].append(
                    "central element of m inside g_{-1}: " + " + ".join(terms)
                )
    return report


# ---------------------------------------------------------------------------
# graded derivations
# ---------------------------------------------------------------------------

class ProlongationComponent:
    """The degree-d component of a graded algebra of maps on m: the
    degree-d derivations of m (``derivations_gr``) or a computed
    prolongation component g_d (d >= 0).

    elements: list of (parity, action); action maps each m-basis index b to
    a sparse vector over the coordinates of the component of degree
    d + deg(b): global m indices when that degree is negative, element
    indices of the computed component otherwise.
    """

    def __init__(self, degree, elements):
        self.degree = degree
        self.elements = elements

    @property
    def superdim(self):
        p = sum(1 for par, _ in self.elements if par == EVEN)
        return (p, len(self.elements) - p)


def derivations_gr(m, d=0):
    """All degree-d superderivations D of m, D[x,y] = [Dx,y] + (-1)^{|D||x|}[x,Dy].

    They are the 1-cocycles Z^{d,1}(m, m) of the Spencer differential with
    coefficients m (see ``one_cocycles``); m must live in negative degrees,
    and d must be an int.
    """
    _check_degree("d", d)
    if not isinstance(m, SymbolAlgebra):
        m = SymbolAlgebra(m)
    return ProlongationComponent(d, one_cocycles(m, d))


def one_cocycles(g, d):
    """The 1-cocycles Z^{d,1}(m, g) of the negative part m of g, as
    (parity, action) pairs with action = {j: {i: Scalar}} (source j in m,
    value index i in g): per parity, a kernel basis of the Spencer rows
    ``spencer._stream_rows`` on C^{d,1}(m, g), in Gaussian integers, whose
    columns (source j, image i) are ordered by j, then i.  delta is even,
    so the parity-p columns are read against the parity-p part of C^{d,2}
    only; the rows of the other parity would be empty.  The rows are
    streamed into the elimination in target order (taking the shortest
    first was measured slower on the large prolongations), and it stops
    at full column rank, where the kernel is zero, so the rows past the
    stop are never built."""
    basis = cochain_basis(g, d, 1)
    target = cochain_basis(g, d, 2)
    elements = []
    for p in (EVEN, ODD):
        cols = [c for c in basis if c[2] == p]
        rows = _stream_rows(g, cols, (t for t in target if t[2] == p))
        for v in _kernel_basis(_echelon(rows, ncols=len(cols)), len(cols)):
            action = {}
            for col, s in v.items():
                (j,), i, _ = cols[col]
                action.setdefault(j, {})[i] = s
            elements.append((p, action))
    return elements
