"""Tanaka-Weisfeiler prolongation of negatively graded Lie superalgebras.

Degree-i elements are represented by their full restriction maps on m: an
element u of g_i assigns to every basis vector b of m (of degree -j) a
vector in the component g_{i-j}, and the defining equations are

    u([v,w]) = [u(v), w] - (-1)^{|v||w|} [u(w), v]     for all v, w in m,

that is, g_i = Z^{i,1}(m, m + g_0 + ... + g_{i-1}).  They are read off the
package's one Chevalley-Eilenberg differential, in ``spencer``:
the truncated algebra m + g_0 + ... + g_{i-1} is one ``LieSuperalgebra``
that the engine grows by each new component, never rebuilds, and whose
table ``assemble`` snapshots with the blocks (see there); each step is its
``liesuper.one_cocycles`` in degree i, the same per-parity kernel that
``derivations_gr`` uses for the default g_0 = Z^{0,1}(m, m).

Brackets between nonnegative components are recovered from the operator
identity ad_{[u,v]} = [ad_u, ad_v] and solved back to coordinates;
well-definedness relies on transitivity and is asserted at runtime.  They
are computed by blocks, in increasing total degree: ``_block(k, l)`` makes
every [e_{k,a}, e_{l,c}] in one loop over Gaussian-integer pairs and keeps
each as integer coordinates over one denominator.  Each element's action
is read once per component as a flat tuple of (b, t, re, im) terms over
its one denominator, and the sign of the second term of a pair is folded
into that denominator.  The pair's value on all of m is one sparse vector
keyed by the int t * n + b (b an m-basis index, t a target coordinate,
n = dim m).  ``assemble`` reads the blocks row by row, in their canonical
order, and ``bracket_elements`` reads a single pair, in either order.
Each component is eliminated and back-substituted once, into a cached
SpanSolver over its elements' actions under the same int keys; a block
reads each bracket off it in integers, and a nonzero residual certifies
that the bracket lies outside the component, which raises
ProlongationError.  Reductions express g_0 matrices and prescribed
subspaces through the same cached solvers, after checking every index,
since an m index outside 0..n-1 would alias another key.

Reductions replace a computed component by a prescribed subspace; codomains
of all later steps are restricted cumulatively (recorded in metadata).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .linalg import (
    SpanSolver,
    _int_row,
    independent_rows,
    rank_rows,
    svec_axpy,
)
from .scalars import Scalar, as_scalar
from .superspace import BasisVector, GradedSuperSpace, _check_degree
from .spencer import CochainSlice
from .liesuper import (
    LieSuperalgebra,
    ProlongationComponent,
    SymbolAlgebra,
    _ungenerated,
    derivations_gr,
    one_cocycles,
    validate,
)


class ProlongationError(ValueError):
    pass


def _normalize_actions(elements, what, n, targets=None):
    """Accept (parity, action) pairs, parity the int 0 or 1 and action =
    {src_index: {dst_index: Scalar, int or Fraction}}; return them with
    Scalar coefficients and without zero entries.  Every src index must be
    an int in 0..n-1 (n = dim m), and so must every dst index when targets
    is None; otherwise targets(src) gives (the valid dst indices, the name
    of their component).  ``what % idx`` names element idx in errors."""
    out = []
    for idx, (parity, act) in enumerate(elements):
        name = what % idx
        if type(parity) is not int or parity not in (0, 1):
            raise ProlongationError(
                "%s has parity %r, expected 0 or 1" % (name, parity))
        if not (isinstance(act, dict) and all(isinstance(c, dict) for c in act.values())):
            raise ProlongationError(
                "%s is not an action {src: {dst: coefficient}}" % name)
        for j, col in act.items():
            for i in (j,) if targets else (j, *col):
                if type(i) is not int or not 0 <= i < n:
                    raise ProlongationError(
                        "%s acts on basis index %r, outside 0..%d (dim m)"
                        % (name, i, n - 1))
            if targets:
                span, where = targets(j)
                for i in col:
                    if type(i) is not int or i not in span:
                        raise ProlongationError(
                            "%s sends basis index %d to %r, not an index of %s"
                            % (name, j, i, where))
        out.append((parity, {j: v for j, col in act.items() if (v := {
            i: t for i, s in col.items() if (t := as_scalar(s))})}))
    return out


def _first_dependent(rows):
    """The index of the first row in the span of the rows before it (a zero
    row lies in the span of none), or None when the rows are independent."""
    found = independent_rows(rows) + [None]
    idx = next(i for i, j in enumerate(found) if i != j)
    return idx if idx < len(rows) else None


class Prolongation:
    """Incremental prolongation engine; use prolong() for the one-shot API."""

    def __init__(self, m, g0=None):
        if not isinstance(m, SymbolAlgebra):
            m = SymbolAlgebra(m)
        self.m = m
        self.space = m.space
        self.n = len(m.space)
        self._degs = [b.degree for b in m.space]
        elements = (derivations_gr(m, 0).elements if g0 is None
                    else _normalize_actions(g0, "g0 element %d", self.n))
        self._check_derivations(elements)
        if g0 is not None:
            idx = _first_dependent([self._keyed(a) for _, a in elements])
            if idx is not None:
                raise ProlongationError(
                    "g0 element %d lies in the span of the elements before it" % idx)
        self.comp = {0: ProlongationComponent(0, elements)}
        self.top = 0
        self._blocks = {}  # (k, l), k <= l -> rows of brackets, see _block
        self._ints = {}  # k -> integer actions of g_k, see _int_actions
        self._solvers = {}
        self._table = dict(m.table)  # _g's table, which only the engine writes
        self._g = LieSuperalgebra._canonical(m.space, self._table, m.field)
        self._grown = []  # the offset in _g of each component it was grown by
        self.reduced_at = []
        if g0 is not None:
            self._check_g0_closed()

    # -- brackets between nonnegative components ------------------------------

    def bracket_elements(self, k, ek, l, el):
        """[e_k, e_l] for computed elements (k, l >= 0) as {t: Scalar} over
        comp[k+l], in increasing t; zero when k+l exceeds the stabilized
        range.  It is read off the block of the canonical order
        (k, ek) <= (l, el); the other order is its sign flip by
        super-antisymmetry.  A degree outside 0..top or an element index
        that is not an int in 0..dim g_k - 1 raises ProlongationError."""
        for deg, idx in ((k, ek), (l, el)):
            if type(deg) is not int or not 0 <= deg <= self.top:
                why = "degree outside 0..%d" % self.top
            elif type(idx) is not int or not 0 <= idx < len(self.comp[deg].elements):
                why = "g_%d has %d elements" % (deg, len(self.comp[deg].elements))
            else:
                continue
            raise ProlongationError(
                "no element %r of degree %r: %s" % (idx, deg, why))
        if (k, ek) <= (l, el):
            entry = self._block(k, l)[ek][el]
        else:
            both_odd = self.comp[k].elements[ek][0] and self.comp[l].elements[el][0]
            entry = _flip(self._block(l, k)[el][ek], both_odd)
        return {} if entry is None else _scalars(entry)

    def _block(self, k, l):
        """Every bracket [e_{k,a}, e_{l,c}] for k <= l, with c >= a when
        k == l, as rows [a][c] of (coords, den) or None for a zero bracket
        (and below the diagonal of a k == l block).  coords are the
        coordinates over comp[k+l] as Gaussian-integer triples (t, re, im)
        in increasing t, divided with den > 0 by their gcd (a read-off over
        den 1 is kept as it is), so the bracket is coords / den.  A block is
        cached once it is complete.

        With s = -(-1)^{|e_a||e_c|}, z(b) = [e_a, e_c(b)] + s [e_c, e_a(b)]
        for each m-basis vector b; the inner brackets are read from the
        rows of the lower blocks (k, l + deg b) and (l, k + deg b), which
        are ensured first, so blocks are made in increasing total degree.
        The two terms run over the flat (b, t, re, im) terms of e_c and of
        e_a (see ``_int_actions``), each over its element's denominator,
        with s folded into the second one's.  z is accumulated in integer
        pairs over one running denominator, keyed by the int u * n + b for
        target coordinate u, and read off the solver of g_{k+l}, which is
        built over the same keys; a nonzero residual raises
        ProlongationError, which names the pair in ``elements``."""
        block = self._blocks.get((k, l))
        if block is not None:
            return block
        degs, n = self._degs, self.n
        flat_k, flat_l = self._int_actions(k)[1], self._int_actions(l)[1]
        par_k = [p for p, _ in self.comp[k].elements]
        par_l = [p for p, _ in self.comp[l].elements]
        lower_x = {d: self._rows(k, l + d) for d in set(degs)}
        lower_y = {d: self._rows(l, k + d) for d in set(degs)}
        xs = [lower_x[d] for d in degs]
        ys_of = [[lower_y[d][c] for d in degs] for c in range(len(flat_l))]
        degree = k + l
        solver = self._solver(degree) if degree <= self.top else None
        block = []
        for a, (terms_a, den_a) in enumerate(flat_k):
            xs_of_a = [x[a] for x in xs]
            row = [None] * len(flat_l)
            for c in range(a if k == l else 0, len(flat_l)):
                terms_c, den_c = flat_l[c]
                z = {}
                D = 1
                for terms, den, lower in (
                    (terms_c, den_c, xs_of_a),
                    (terms_a, den_a if par_k[a] and par_l[c] else -den_a, ys_of[c]),
                ):
                    for b, t, vr, vi in terms:
                        br = lower[b][t]
                        if br is None:
                            continue
                        coords, q = br
                        q *= den
                        if q != D:
                            if D % q:
                                m = lcm(D, q) // D
                                for key, (x, y) in z.items():
                                    z[key] = (x * m, y * m)
                                D *= m
                            m = D // q
                            vr, vi = vr * m, vi * m
                        for u, cr, ci in coords:
                            key = u * n + b
                            x = vr * cr - vi * ci
                            y = vr * ci + vi * cr
                            old = z.get(key)
                            if old is not None:
                                x += old[0]
                                y += old[1]
                                if not (x or y):
                                    del z[key]
                                    continue
                            z[key] = (x, y)
                if not z:
                    continue
                if solver is None:
                    raise ProlongationError(
                        "bracket [g_%d, g_%d] escapes the computed range" % (k, l)
                    )
                found = solver._read_off(z, D)
                if found is None:
                    err = ProlongationError(
                        "bracket of g_%d and g_%d does not lie in g_%d "
                        "(reduction compatibility violated by elements %d, %d)"
                        % (k, l, degree, a, c)
                    )
                    err.elements = (a, c)
                    raise err
                acc, d = found
                if not acc:
                    continue
                if d == 1:
                    row[c] = tuple([(t, x, y) for t, (x, y) in sorted(acc.items())]), 1
                    continue
                g = d
                for x, y in acc.values():
                    if g == 1:
                        break
                    g = gcd(g, x, y)
                row[c] = tuple([(t, x // g, y // g) for t, (x, y) in sorted(acc.items())]), d // g
            block.append(row)
        self._blocks[(k, l)] = block
        return block

    def _rows(self, k, d):
        """[e_{k,a}, x_t] as lists [a][t] of (coords, den) or None: for
        d < 0, x_t an m-basis vector of degree d and the element's own
        action; for d >= 0, x_t = e_{d,t}, read from the block of (k, d) or
        (d, k) with the super-antisymmetry sign folded into den."""
        if d < 0:
            return self._int_actions(k)[0]
        if k < d:
            return self._block(k, d)
        block = self._block(d, k)
        par_k = [p for p, _ in self.comp[k].elements]
        par_d = [p for p, _ in self.comp[d].elements]
        return [
            [
                block[a][t] if k == d and t >= a else _flip(block[t][a], pa and pt)
                for t, pt in enumerate(par_d)
            ]
            for a, pa in enumerate(par_k)
        ]

    def _int_actions(self, k):
        """The actions of g_k's elements in Gaussian-integer form, made once
        per component, as the pair (imgs, flat).  imgs[a] is a list over
        the m basis of (coords, den) or None, coords (t, re, im) triples of
        the image and den the element's one denominator; flat[a] is
        (terms, den), terms the same entries as one tuple of (b, t, re, im),
        in the order of the element's ``_keyed`` action."""
        ints = self._ints.get(k)
        if ints is None:
            ints = imgs, flat = [], []
            n = self.n
            for _, action in self.comp[k].elements:
                row, den = _int_row(self._keyed(action).items())
                by_b = [[] for _ in range(n)]
                terms = []
                for key, (x, y) in row.items():
                    t, b = divmod(key, n)
                    by_b[b].append((t, x, y))
                    terms.append((b, t, x, y))
                imgs.append([(tuple(v), den) if v else None for v in by_b])
                flat.append((tuple(terms), den))
            self._ints[k] = ints
        return ints

    def _keyed(self, action):
        """An action {b: {t: s}} as one sparse vector keyed by the int
        t * n + b, n = dim m: the engine's one key form, read by the component
        solvers, ``_block``'s z, ``_int_actions`` and the rank checks."""
        n = self.n
        return {t * n + b: s for b, vec in action.items() for t, s in vec.items()}

    def _solver(self, degree):
        """The cached SpanSolver over g_degree's keyed actions."""
        solver = self._solvers.get(degree)
        if solver is None:
            solver = SpanSolver([self._keyed(a) for _, a in self.comp[degree].elements])
            self._solvers[degree] = solver
        return solver

    def _solve_in_component(self, degree, action):
        """Sparse coordinates {element index: Scalar} of an action over the
        computed component g_degree, or None when it lies outside.  The
        action's indices are not checked: an m index outside 0..n-1 would
        alias another key."""
        return self._solver(degree).solve(self._keyed(action))

    # -- validation of inputs ----------------------------------------------

    def _check_derivations(self, elements):
        m = self.m
        for idx, (p, action) in enumerate(elements):
            for b, col in action.items():
                for i in col:
                    if self._degs[i] != self._degs[b]:
                        raise ProlongationError(
                            "g0 element %d is not of degree 0" % idx
                        )
                    if self.space[i].parity != (self.space[b].parity + p) % 2:
                        raise ProlongationError(
                            "g0 element %d is not parity-homogeneous" % idx
                        )
        # (d w)(a, b) = [w a, b] + (-1)^{|w||a|}[a, w b] - w[a, b]: each
        # element must be a cocycle of C^{0,1}(m, m), and a nonzero target
        # row names the canonical pair a <= b at fault; the slice's integer
        # rows are D times its Scalar rows, so they vanish on the same w
        sl = CochainSlice(m, 0, 1)
        col = {(T[0], i): c for c, (T, i, _) in enumerate(sl.basis)}
        for idx, (p, action) in enumerate(elements):
            w = {
                col[(b, i)]: s for b, img in action.items() for i, s in img.items()
            }
            for r, row in enumerate(sl._rows):
                val = 0
                for c, x in row.items():
                    if c in w:
                        val = val + Scalar(*x) * w[c]
                if val:
                    a, b = sl.target[r][0]
                    raise ProlongationError(
                        "g0 element %d is not a derivation of m "
                        "(fails on pair %s, %s)"
                        % (idx, self.space[a].name, self.space[b].name)
                    )

    def _check_g0_closed(self):
        # the first read computes the whole (0, 0) block, which stops at the
        # first pair of g0 elements whose bracket lies outside g0
        if not self.comp[0].elements:
            return
        try:
            self.bracket_elements(0, 0, 0, 0)
        except ProlongationError as e:
            raise ProlongationError(
                "g0 is not closed under the bracket: the bracket of "
                "g0 elements %d and %d does not lie in g0" % e.elements
            ) from None

    # -- the prolongation step ----------------------------------------------

    def step(self, i):
        """Solve the degree-i system and return the new component (not yet
        appended); i must be top+1.

        g_i is Z^{i,1}(m, m + g_0 + ... + g_{i-1}): the ``one_cocycles`` of
        the truncated algebra in degree i, with each value index mapped back
        to its component-local coordinate."""
        _check_degree("i", i, error=ProlongationError)
        if i != self.top + 1:
            raise ProlongationError("steps must be computed in order")
        g, offsets = self._truncation()
        elements = []
        for p, action in one_cocycles(g, i):
            local = {}
            for b, vec in action.items():
                off = offsets.get(i + self._degs[b], 0)
                local[b] = {t - off: s for t, s in vec.items()}
            elements.append((p, local))
        return ProlongationComponent(i, elements)

    def advance(self, i):
        """Compute, transitivity-check and append component i."""
        comp = self.step(i)
        self.comp[i] = comp
        self.top = i
        self._check_transitivity(i)
        return comp

    def _check_transitivity(self, i):
        comp = self.comp[i]
        if not comp.elements:
            return
        deg1 = self.space.indices_of_degree(-1)
        rows = [self._keyed({b: action[b] for b in deg1 if b in action})
                for _, action in comp.elements]
        if rank_rows(rows) != len(comp.elements):
            raise ProlongationError(
                "transitivity failure at degree %d: ad restricted to g_{-1} "
                "is not injective" % i
            )

    # -- reductions ---------------------------------------------------------

    def reduce_component(self, degree, subspace):
        """Replace g_degree, the newest computed component, by a subspace.

        subspace: list of (parity, action) in the same action format.
        Compatibility [g_j, g_{degree-j}] in g_degree' for 1 <= j <= degree-1
        and g_0-invariance are enforced.  A lower component cannot be
        reduced: the actions of the components above it are written in its
        coordinates.
        """
        _check_degree("degree", degree, 0, ProlongationError)
        if degree not in self.comp or degree > self.top:
            raise ProlongationError("component %d not computed yet" % degree)
        if degree < self.top:
            raise ProlongationError(
                "component %d lies below the computed g_%d; only the newest "
                "component can be reduced" % (degree, self.top)
            )
        old = self.comp[degree]

        def targets(b):
            d = degree + self._degs[b]
            return (self.space.indices_of_degree(d) if d < 0
                    else range(len(self.comp[d].elements))), "g_%d" % d

        subspace = _normalize_actions(subspace, "reduction element %d", self.n, targets)
        new_elements, coeff_rows = [], []
        for idx, (parity, action) in enumerate(subspace):
            coeffs = self._solve_in_component(degree, action)
            if coeffs is None:
                raise ProlongationError(
                    "reduction element %d is not inside the computed g_%d" % (idx, degree)
                )
            if any(old.elements[t][0] != parity for t in coeffs):
                raise ProlongationError(
                    "reduction element %d does not have parity %d" % (idx, parity))
            reduced = {}
            for t, s in coeffs.items():
                for b, vec in old.elements[t][1].items():
                    tgt = reduced.setdefault(b, {})
                    svec_axpy(tgt, s, vec)
                    if not tgt:
                        del reduced[b]
            new_elements.append((parity, reduced))
            coeff_rows.append(coeffs)
        idx = _first_dependent(coeff_rows)
        if idx is not None:
            raise ProlongationError(
                "reduction element %d lies in the span of the elements before it" % idx)
        self.comp[degree] = ProlongationComponent(degree, new_elements)
        # drop what the old component made: the blocks, integer actions and
        # solver touching it, and the part of _g grown from it, with _g's
        # integer copy
        self._blocks = {
            key: val for key, val in self._blocks.items() if key[0] + key[1] < degree
        }
        self._ints.pop(degree, None)
        self._solvers.pop(degree, None)
        if degree < len(self._grown):
            cut = self._grown.pop()
            for key in [key for key in self._table if key[1] >= cut]:
                del self._table[key]
            self._g.space = GradedSuperSpace(self._g.space.basis[:cut])
            self._g._int = None
        self.reduced_at.append(degree)
        self._check_reduction_compat(degree)

    def _check_reduction_compat(self, degree):
        # each block [g_k, g_{degree-k}] lands in the reduced g_degree or
        # raises at its first pair outside it: 0 < k <= degree - k, then k = 0
        for k in list(range(1, degree // 2 + 1)) + [0]:
            if self.comp[k].elements and self.comp[degree - k].elements:
                self.bracket_elements(k, 0, degree - k, 0)

    # -- assembly -------------------------------------------------------------

    def _truncation(self):
        """The truncated algebra m + g_0 + ... + g_top without the brackets
        between the g_k (``assemble`` adds them; 1-cochains of m never read
        them), and the global index of the first element of each g_k.

        It is one algebra, grown by each new component, with its integer
        copy (dropped on a new denominator); ``reduce_component`` cuts off
        the part grown from a replaced component.  The basis is that of m,
        then the g%d_%d names; [x_b, e] = -(-1)^{|b||e|} [e, x_b] is written
        at the canonical key (b, e)."""
        g, grown, table = self._g, self._grown, self._table
        basis = list(g.space)
        names = {b.name for b in basis}
        for k in range(len(grown), self.top + 1):
            start = len(basis)
            grown.append(start)
            for idx, (par, action) in enumerate(self.comp[k].elements):
                nm = "g%d_%d" % (k, idx + 1)
                while nm in names:
                    nm += "'"
                names.add(nm)
                basis.append(BasisVector(nm, k, par))
                for b, vec in action.items():
                    if vec:
                        d = k + self._degs[b]
                        off = grown[d] if d >= 0 else 0
                        odd = par and self.space[b].parity
                        table[(b, start + idx)] = {
                            off + t: s if odd else -s for t, s in vec.items()
                        }
        if len(basis) > len(g.space):
            g.space = GradedSuperSpace(basis)
            if g._int:  # the new keys (b, e) are those past its rows
                g._int_table([key for key in table if key[1] >= len(g._int[1])])
        return g, dict(enumerate(grown))

    def assemble(self):
        """Extended structure constants of m + g_0 + ... + g_top: a shallow
        copy of the truncated algebra's table plus the block brackets, read
        row by row off each block (k, l), k <= l, which is in the canonical
        order, so each nonzero entry is written once at its key.  The engine
        decides the truncation: while g_top is nonzero, the blocks past top
        are left out; once it is zero, all are made and so checked.  The copy
        and the blocks are taken here, and the Scalar entries are written on
        the first read of ``table`` or ``raw``, whatever the engine did since."""
        g, offsets = self._truncation()
        # a result keeps its engine, so the grown copy is not kept past here
        g._int, table = None, dict(self._table)
        blocks = [(offsets[k], offsets[l], offsets.get(k + l), self._block(k, l))
                  for k in range(self.top + 1) for l in range(k, self.top + 1)
                  if self.comp[k].elements and self.comp[l].elements
                  and (k + l <= self.top or not self.comp[self.top].elements)]

        def build():
            table.update(((a, c), _scalars(entry, off))
                         for off_k, off_l, off, block in blocks
                         for a, row in enumerate(block, off_k)
                         for c, entry in enumerate(row, off_l) if entry is not None)
            return table
        return LieSuperalgebra._canonical(g.space, build, self.m.field)


def _scalars(entry, offset=0):
    """A (coords, den) block entry as the bracket {offset + t: Scalar}, in
    increasing t."""
    coords, d = entry
    if d == 1:
        return {offset + t: Scalar(a, b) for t, a, b in coords}
    return {
        offset + t: Scalar(Fraction(a, d), Fraction(b, d)) for t, a, b in coords
    }


def _flip(entry, both_odd):
    """A (coords, den) bracket entry of [x, y] as one of [y, x]: the sign
    -(-1)^{|x||y|} is folded into den."""
    if entry is None or both_odd:
        return entry
    return entry[0], -entry[1]


# ---------------------------------------------------------------------------
# results and the one-shot driver
# ---------------------------------------------------------------------------

class ProlongationResult:
    def __init__(self, m, engine, status, stabilized_at, max_degree, algebra,
                 metadata):
        self.m = m
        self.engine = engine
        self.status = status  # "stabilized" | "truncated"
        self.stabilized_at = stabilized_at
        self.max_degree = max_degree
        self.algebra = algebra
        self.metadata = metadata

    def component_superdim(self, k):
        _check_degree("k", k, error=TypeError)
        if k < 0:
            return self.m.space.superdim(k)
        if k in self.engine.comp:
            return self.engine.comp[k].superdim
        return (0, 0)

    def degrees(self):
        lo = -self.m.mu
        hi = max(self.engine.comp) if self.engine.comp else -1
        return list(range(lo, hi + 1))

    @property
    def total_superdim(self):
        p = q = 0
        for k in self.degrees():
            a, b = self.component_superdim(k)
            p += a
            q += b
        return (p, q)

    def per_degree(self):
        return {k: self.component_superdim(k) for k in self.degrees()}

    def to_json(self, include_algebra=False):
        data = {
            "status": self.status,
            "stabilized_at": self.stabilized_at,
            "max_degree": self.max_degree,
            "per_degree": [
                {"degree": k, "even": d[0], "odd": d[1]}
                for k, d in sorted(self.per_degree().items())
            ],
            "total": {"even": self.total_superdim[0], "odd": self.total_superdim[1]},
            "metadata": self.metadata,
        }
        if include_algebra and self.algebra is not None:
            data["algebra"] = self.algebra.to_json()
        return data


def prolong(m, g0=None, reductions=None, max_degree=None, validate_result=True):
    """Full prolongation pr(m, g0) with optional reductions.

    reductions: list of (degree, reduction) where reduction is a callable
    engine -> subspace in reduce_component's format, called right after that
    degree is computed.  A symbol that g_{-1} does not generate is refused
    before the first step, naming the first basis vector outside, and so is
    a max_degree that is not an int >= 0 and a reduction that is not a pair
    of an int degree in 0..max_degree and a callable, naming its index.  A
    reduction past the stabilization never runs; metadata lists its degree
    under "unreached_reductions".
    """
    if max_degree is not None:
        _check_degree("max_degree", max_degree, 0, ProlongationError)
    engine = Prolongation(m, g0=g0)
    m = engine.m
    for i in _ungenerated(m):
        raise ProlongationError("m is not fundamental: %s is not generated "
                                "from degree -1" % m.space[i].name)
    if max_degree is None:
        max_degree = m.mu + 8
    red = {}
    for idx, pair in enumerate(reductions or []):
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
            raise ProlongationError(
                "reduction %d is not a (degree, callable) pair" % idx)
        degree, reduction = pair
        if type(degree) is not int or not 0 <= degree <= max_degree:
            raise ProlongationError(
                "reduction %d has degree %r, not an int in 0..%d (max_degree)"
                % (idx, degree, max_degree))
        if not callable(reduction):
            raise ProlongationError("reduction %d is not callable" % idx)
        red.setdefault(degree, []).append(reduction)
    for reduction in red.get(0, []):
        engine.reduce_component(0, reduction(engine))
    status, stabilized_at = "truncated", None
    i = 0
    while i < max_degree:
        i += 1
        comp = engine.advance(i)
        for reduction in red.get(i, []):
            engine.reduce_component(i, reduction(engine))
            comp = engine.comp[i]
        if not comp.elements:
            status = "stabilized"
            stabilized_at = i
            break
    metadata = {
        "reductions": sorted(engine.reduced_at),
        "codomain_policy": "cumulative (later steps map into reduced components)",
    }
    if status == "truncated":
        metadata["note"] = "not stabilized by max_degree %d" % max_degree
    unreached = [d for d in sorted(red) if d > i for _ in red[d]]
    if unreached:
        metadata["unreached_reductions"] = unreached
    algebra = engine.assemble()
    if validate_result and status == "stabilized":
        report = validate(algebra)
        if report:
            raise ProlongationError(
                "assembled prolongation fails validation: %r" % report[:3]
            )
    return ProlongationResult(
        m, engine, status, stabilized_at, max_degree, algebra,
        metadata,
    )


# ---------------------------------------------------------------------------
# reduction helpers
# ---------------------------------------------------------------------------

def projective_trace_reduction(engine):
    """The trace part g_1' ~ V* inside g_1 = S^2 V* (x) V for m = V abelian
    with g_0 = gl(V): A_w(u)(v) = w(u) v + (-1)^{|u||v|} w(v) u."""
    m = engine.m
    space = m.space
    n = len(space)
    if m.mu != 1:
        raise ProlongationError("projective reduction expects depth 1")
    out = []
    for a in range(n):
        action = {}
        for b in range(n):
            # the map e_j -> w(e_b) e_j + (-1)^{|e_b||e_j|} w(e_j) e_b with
            # w = dual of basis vector a, as a degree-0 action {j: {i: s}}
            target = {j: {j: Scalar(1)} for j in range(n)} if a == b else {}
            sgn = Scalar(-1) if (space[b].parity and space[a].parity) else Scalar(1)
            svec_axpy(target.setdefault(a, {}), sgn, {b: Scalar(1)})
            col = engine._solve_in_component(0, target)
            if col is None:
                raise ProlongationError("matrix is not in the span of g_0")
            if col:
                action[b] = col
        out.append((space[a].parity, action))
    return out
