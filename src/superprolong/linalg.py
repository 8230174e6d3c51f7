"""Exact linear algebra: one fraction-free sparse elimination, rank, kernels.

Sparse contract.  A row or a vector is a dict {col: Scalar}; zero entries
of input rows are ignored, and nothing this module returns stores a zero.
``rank_rows``, ``pivot_columns`` and ``independent_rows`` take a list of
such rows, keyed by any mutually comparable hashables; ``kernel_basis_rows``
takes rows keyed by the columns 0..ncols-1 and ncols, and returns such
dicts.  ``SpanSolver`` is the one exact solver: it eliminates sparse vectors
once and returns sparse coefficients.

One elimination, two pivot rules.  Each row is scaled by the lcm of its
denominators and stored as {col: (re, im)} with integer components, over Q
and Q(i) alike.  Rows are inserted in input order, each reduced against
the current pivot rows; a row that is still nonzero becomes a pivot row.
A row becomes a pivot exactly when it is independent of the rows before
it, whatever column it pivots on, and ``independent_rows`` reports which
rows did.

* Leftmost rule (``pivot_columns``, ``kernel_basis_rows``, ``SpanSolver``).
  A row pivots on its lowest column, divided once by a gcd in Z[i] of its
  components so that no Gaussian common factor grows through later rows.
  A row is reduced in increasing pivot column order by
  cross-multiplication (row := p * row - f * pivot_row) and divided by the
  gcd of its components, so no division ever rounds.
* Unit rule (``rank_rows``, ``independent_rows``, which need only a count
  or a set of rows).  A row pivots on its first entry, in row order, that
  is a unit (+-1, +-i), multiplied by the inverse unit so that this entry
  is 1; a row with no unit entry falls back to the leftmost rule's pivot.
  A row is reduced in the pivots' insertion order, by row -= f * pivot_row
  at a pivot led by 1 (no rescaling, no gcd) and by cross-multiplication
  at the others.  A pivot row holds no pivot column inserted before it, so
  a step brings in only later pivot columns and the reduction ends; in
  column order a column could come back.

``_echelon`` and ``_reduce`` run both rules, told apart by a private
argument; ``_echelon`` takes integer rows, which the public names make with
``_int_row``.  ``SpanSolver`` then back-substitutes once, in descending pivot
order with the leftmost rule's reduction, so that no pivot row holds
another pivot column; each solve reads its coefficients off those rows,
one integer multiple per pivot the target holds, and eliminates nothing:
the read-off uses up the integer target row, which becomes the residual.

Stop at full rank.  Told by its argument ncols how many columns the rows
can hold, or any smaller bound on their rank, ``_echelon`` stops once it
has that many pivots: they span the rows, so every later row would reduce
to zero, and the answers are those of the full loop.  The Spencer ranks
and ``one_cocycles`` pass it, as their differentials have many more rows
than columns; the public names read every row.

The leftmost rule's answers do not depend on the order of elimination.
Its pivot columns are the lowest columns of the nonzero vectors of the row
space, an invariant of it.  For each free column exactly one kernel vector
has 1 there and 0 at the other free columns; back substitution finds it
from any echelon form, and it is then scaled so that its lowest entry is
1.  So kernel bases are the same, entry for entry and in order,
across runs and platforms.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from fractions import Fraction
from math import gcd, lcm

from .scalars import Scalar


# ---------------------------------------------------------------------------
# the elimination, on rows {col: (re, im)} of Gaussian integers
# ---------------------------------------------------------------------------

def _int_row(items):
    """(row, den): the nonzero (col, Scalar) items as a dict of integer
    pairs (re, im), all scaled by den, the lcm of their denominators."""
    row = {}
    den = 1
    for j, e in items:
        a, b = e.re, e.im
        if a or b:
            row[j] = (a, b)
            if type(a) is not int or type(b) is not int:
                den = lcm(den, a.denominator, b.denominator)
    if den == 1:
        return row, 1
    return {
        j: (a.numerator * (den // a.denominator),
            b.numerator * (den // b.denominator))
        for j, (a, b) in row.items()
    }, den


def _reduce(row, pivots, order=None):
    """Reduce an integer row against pivots {col: pivot row}; returns a row
    holding no pivot column.

    With order None (leftmost rule) each pivot row is led by its column and
    the pivots are applied in increasing column order.  With order
    {pivot col: (insertion index, col)} (unit rule) they are applied in
    insertion order, and a pivot row whose lead is (1, 0) is subtracted
    from the row in place, row -= f * pivot_row.  Any other step
    cross-multiplies, row := p * row - f * pivot_row, and divides by the
    gcd of the components.
    """
    todo = [j if order is None else order[j] for j in row if j in pivots]
    heapify(todo)
    while todo:
        c = heappop(todo)
        if order is not None:
            c = c[1]
        f = row.get(c)
        if f is None:
            continue
        piv_row = pivots[c]
        pa, pb = piv_row[c]
        fa, fb = f
        if order is not None and pa == 1 and not pb:
            out = row
        else:
            out = {j: (pa * a - pb * b, pa * b + pb * a)
                   for j, (a, b) in row.items()}
        for j, (a, b) in piv_row.items():
            x = fa * a - fb * b
            y = fa * b + fb * a
            old = out.get(j)
            if old is None:
                out[j] = (-x, -y)
                if j in pivots:
                    heappush(todo, j if order is None else order[j])
            else:
                x = old[0] - x
                y = old[1] - y
                if x or y:
                    out[j] = (x, y)
                else:
                    del out[j]
        row = out if out is row else _primitive(out)
    return row


def _primitive(row):
    """The integer row divided by the gcd of its components."""
    g = 0
    for a, b in row.values():
        g = gcd(g, a, b)
        if g == 1:
            return row
    if g == 0:
        return row
    return {j: (a // g, b // g) for j, (a, b) in row.items()}


def _gaussian_gcd(x, y):
    """A gcd in Z[i] of the Gaussian integers x and y, as (re, im) pairs,
    by Euclid's algorithm with the quotient rounded to the nearest."""
    while y != (0, 0):
        (a, b), (c, d) = x, y
        n = c * c + d * d
        # x / y = (a + b i)(c - d i) / n, each part rounded to the nearest
        q = ((2 * (a * c + b * d) + n) // (2 * n),
             (2 * (b * c - a * d) + n) // (2 * n))
        x, y = y, (a - q[0] * c + q[1] * d, b - q[0] * d - q[1] * c)
    return x


def _pivot_row(row):
    """The integer row divided by a gcd in Z[i] of its components, so that
    its content is a unit; the division is exact."""
    row = _primitive(row)
    if all(not b for _, b in row.values()):
        return row
    g = (0, 0)
    for e in row.values():
        g = _gaussian_gcd(g, e)
        if g[0] * g[0] + g[1] * g[1] == 1:
            return row
    s, t = g
    n = s * s + t * t
    return {j: ((a * s + b * t) // n, (b * s - a * t) // n)
            for j, (a, b) in row.items()}


def _echelon(rows, independent=None, units=False, ncols=None):
    """{pivot column: pivot row} of the integer rows, inserted in input
    order; the indices of the rows that become pivots are appended to
    independent.  Each row is copied first, as the unit rule reduces in
    place, and divided by the gcd of its components, so that a row scaled
    by a common denominator gets its unit entries back.

    By default (leftmost rule) a row pivots on its lowest column.  With
    units (unit rule) it pivots on its first unit entry in row order, the
    row multiplied by the inverse unit so that this entry is (1, 0); a row
    with no unit entry pivots on its lowest column as before.

    With ncols given, any upper bound on the rank of the rows (the size of
    their column set, or the Spencer bound from delta o delta = 0), the
    loop stops, reading no further row, once it holds ncols pivots, and
    reads no row if ncols is 0.  The stop is exact: pivots as many as the
    rank span the rows, so every later row would reduce to zero and become
    no pivot.  The pivots, independent and any kernel read off them are
    those of the full loop.
    """
    pivots = {}
    order = {} if units else None
    if ncols == 0:
        return pivots
    for i, row in enumerate(rows):
        row = _reduce(_primitive(dict(row)), pivots, order)
        if row:
            c = None
            if units:
                for j, (a, b) in row.items():
                    if abs(a) + abs(b) == 1:
                        c = j
                        if b or a != 1:
                            # times the inverse unit a - b i
                            row = {k: (x * a + y * b, y * a - x * b)
                                   for k, (x, y) in row.items()}
                        break
            if c is None:
                c = min(row)
                row = _pivot_row(row)
            pivots[c] = row
            if units:
                order[c] = (len(order), c)
            if independent is not None:
                independent.append(i)
            if len(pivots) == ncols:
                break
    return pivots


# ---------------------------------------------------------------------------
# sparse API (rows: dicts col -> Scalar)
# ---------------------------------------------------------------------------

def _ints(rows):
    """The rows as integer rows, each scaled by its lcm of denominators."""
    return (_int_row(row.items())[0] for row in rows)


def pivot_columns(rows):
    """Pivot columns of the row echelon form, increasing: the leftmost
    columns independent of the columns before them."""
    return sorted(_echelon(_ints(rows)))


def rank_rows(rows):
    return len(_echelon(_ints(rows), units=True))


def independent_rows(rows):
    """Increasing indices of the rows independent of the rows before them:
    rows[:k] has rank the number of these indices below k."""
    independent = []
    _echelon(_ints(rows), independent, units=True)
    return independent


def kernel_basis_rows(rows, ncols):
    """Basis of {v : M v = 0}, one sparse vector per non-pivot column.

    Each vector is a dict {col: Scalar} in increasing column order, with no
    zeros stored and its lowest entry normalized to 1; the basis size equals
    ncols - rank.
    """
    return _kernel_basis(_echelon(_ints(rows)), ncols)


def _kernel_basis(pivots, ncols):
    """``kernel_basis_rows`` from the pivots of the leftmost rule."""
    piv = sorted(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        # back substitution on an integer multiple v = n * w of the vector
        # w, n a rational integer: v[c] = -s / p becomes v[c] = -s * conj(p)
        # after scaling v by |p|^2, and the gcd of v's components is removed.
        # Entries are filled from column fc down through the pivots, so the
        # reversed insertion order is increasing.
        v = {fc: (1, 0)}
        for c in reversed(piv):
            if c > fc:
                continue
            row = pivots[c]
            sa = sb = 0
            for j, (a, b) in row.items():
                w = v.get(j)
                if w is not None:
                    sa += a * w[0] - b * w[1]
                    sb += a * w[1] + b * w[0]
            if sa or sb:
                pa, pb = row[c]
                n = pa * pa + pb * pb
                if n != 1:
                    v = {j: (n * a, n * b) for j, (a, b) in v.items()}
                v[c] = (-sa * pa - sb * pb, sa * pb - sb * pa)
                v = _primitive(v)
        items = list(v.items())[::-1]
        lead = Scalar(*items[0][1])
        basis.append({j: Scalar(a, b) / lead for j, (a, b) in items})
    return basis


class SpanSolver:
    """Reusable exact solver for membership in the span of fixed sparse
    vectors: one elimination and one back substitution up front, then each
    solve is a read-off.

    Keys of the vectors may be any mutually comparable hashables; zero
    entries of the vectors and of a target are ignored.  Vector i enters the
    elimination as the row {(0, key): entry} + {(1, i): 1}, so each pivot
    row records which combination of the vectors it is.  A vector whose
    (0, key) part vanishes depends on earlier ones and is dropped; a pivot
    row thus involves only its own vector and earlier independent ones.

    Back substitution then runs in descending pivot order: each pivot row is
    reduced against the rows already done and divided by its Gaussian
    content again, so that no pivot row holds another pivot column.
    ``pivots`` maps each pivot column to that reduced, Gaussian-primitive
    integer row.  Multiplied by conj(lead) / gcd(lead.re, lead.im), a row
    has a positive rational integer lead; it is stored under its pivot key
    as (lead, w, comb), w its vector part off the pivot and comb its (1, i)
    part, both as (key, re, im) triples, so that
    lead * e_key + w = sum of comb[i] * vector i.
    """

    def __init__(self, vectors):
        pivots = {}
        for i, v in enumerate(vectors):
            row, den = _int_row(((0, j), x) for j, x in v.items())
            row[(1, i)] = (den, 0)
            row = _reduce(row, pivots)
            c = min(row)
            if c[0] == 0:
                pivots[c] = _pivot_row(row)
        self.pivots = {}
        for c in sorted(pivots, reverse=True):
            self.pivots[c] = _pivot_row(_reduce(pivots[c], self.pivots))
        self._read = {}
        for c, row in self.pivots.items():
            parts = ([], [])
            for key, (x, y) in row.items():
                if key != c:
                    parts[key[0]].append((key[1], x, y))
            a, b = row[c]
            g = gcd(a, b)
            fa, fb = a // g, -b // g
            w, comb = (tuple((j, fa * x - fb * y, fa * y + fb * x)
                             for j, x, y in p) for p in parts)
            self._read[c[1]] = ((a * a + b * b) // g, w, comb)

    def solve(self, target):
        """Sparse coefficients {vector index: Scalar} over the original
        vectors, in increasing index order (zero coefficients omitted), or
        None when target is not in their span.  The coefficients sit on the
        vectors independent of the ones before them.

        No elimination runs here.  With t = den * target in Gaussian
        integers and L the lcm of the leads of the pivot keys that t holds,
        f_c = t[c] * L / lead_c.  The residual L * t - sum of
        f_c * (lead_c * e_c + w_c) is zero at every pivot column and lies in
        the span exactly when target does, so a nonzero residual certifies
        that target is outside; otherwise target is the sum of
        f_c * comb_c / (den * L).
        """
        if not target:
            return {}
        found = self._read_off(*_int_row(target.items()))
        if found is None:
            return None
        acc, d = found
        return {
            i: Scalar(a, b) if d == 1 else Scalar(Fraction(a, d), Fraction(b, d))
            for i, (a, b) in sorted(acc.items())
        }

    def _read_off(self, row, den):
        """The read-off of ``solve`` on a target given as row / den, row a
        dict of Gaussian-integer pairs with no zeros and den > 0: (acc, d)
        with coefficients acc / d, acc a pair dict keyed by vector index and
        d > 0, or None when the residual is nonzero.

        The row is used up: its pivot keys are popped and it becomes the
        residual, so callers pass a dict of their own.  One scan collects
        the pivot keys it holds and L, the lcm of their leads other than 1;
        the row is scaled by L only when L != 1."""
        read = self._read
        hits = []
        L = 1
        for j, x in row.items():
            r = read.get(j)
            if r is not None:
                hits.append((j, x, r))
                if r[0] != 1 and L % r[0]:
                    L = lcm(L, r[0])
        for j, _, _ in hits:
            del row[j]
        if L != 1:
            for j, (a, b) in row.items():
                row[j] = (L * a, L * b)
        acc = {}
        for _, (a, b), (lead, w, comb) in hits:
            q = L // lead
            fa, fb = a * q, b * q
            # row -= f * w: w holds no pivot key, so none comes back
            for j, x, y in w:
                u = fa * x - fb * y
                v = fa * y + fb * x
                old = row.get(j)
                if old is None:
                    row[j] = (-u, -v)
                else:
                    u = old[0] - u
                    v = old[1] - v
                    if u or v:
                        row[j] = (u, v)
                    else:
                        del row[j]
            for i, x, y in comb:
                u = fa * x - fb * y
                v = fa * y + fb * x
                old = acc.get(i)
                if old is None:
                    acc[i] = (u, v)
                else:
                    u += old[0]
                    v += old[1]
                    if u or v:
                        acc[i] = (u, v)
                    else:
                        del acc[i]
        if row:
            return None
        return acc, den * L


def _pair_axpy(acc, fa, fb, v):
    """acc += (fa + fb i) * v in place, acc a dict of Gaussian-integer pairs
    (re, im) and v (key, re, im) triples; zero entries are pruned."""
    for j, x, y in v:
        a = fa * x - fb * y
        b = fa * y + fb * x
        old = acc.get(j)
        if old is not None:
            a += old[0]
            b += old[1]
        if a or b:
            acc[j] = (a, b)
        else:
            acc.pop(j, None)
    return acc


# ---------------------------------------------------------------------------
# sparse dict-vectors (index -> Scalar), zero entries always pruned
# ---------------------------------------------------------------------------

def svec_axpy(acc, s, v):
    """acc += s * v in place; acc and v are dicts index -> Scalar."""
    if not s:
        return acc
    for i, x in v.items():
        y = acc.get(i)
        y = s * x if y is None else y + s * x
        if y:
            acc[i] = y
        else:
            acc.pop(i, None)
    return acc


def svec_scale(v, s):
    if not s:
        return {}
    return {i: s * x for i, x in v.items()}
