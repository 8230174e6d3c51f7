"""Exact linear algebra: fraction-free sparse elimination, rank, kernels.

Sparse contract.  Inside the package a row or a vector is a dict
{col: Scalar}; zero entries of input rows are ignored, and nothing this
module returns stores a zero.  ``rank_rows``, ``pivot_columns`` and
``kernel_basis_rows`` take a list of such rows and the number of columns;
``kernel_basis_rows`` returns such dicts.  ``SpanSolver`` is the one exact
solver: it eliminates sparse vectors once and returns sparse coefficients.

Dense boundary.  ``ExactMatrix`` and the public ``rank``, ``kernel_basis``
and ``solve`` take dense rows (an ExactMatrix or lists of scalars), convert
them to sparse rows once and densify their answers once.

Rows are cleared of denominators and eliminated by cross-multiplication
(p * row - f * pivot_row) with gcd-content removal, so all intermediate
entries are (Gaussian) integers and no division ever rounds.  Pivoting is
deterministic: columns are scanned left to right and the first candidate row
in the original order is taken, which makes kernel bases reproducible
across runs and platforms.  Rational matrices run on plain Python ints;
Q(i) matrices on integer pairs.
"""

from __future__ import annotations

from math import gcd

from .scalars import FIELD_Q, FIELD_QI, Scalar, as_scalar


# ---------------------------------------------------------------------------
# integerization
# ---------------------------------------------------------------------------

def _lcm(a, b):
    return a // gcd(a, b) * b


def _to_int_rows(rows):
    """Convert sparse rows {col: Scalar} into sparse dicts with integer
    values; Gaussian entries become (re, im) int pairs.
    Returns (introws, gaussian_flag)."""
    cache = [[(j, e) for j, e in row.items() if e] for row in rows]
    gaussian = any(e.im for items in cache for _, e in items)
    out = []
    for items in cache:
        denom = 1
        for _, e in items:
            denom = _lcm(denom, e.re.denominator)
            if gaussian:
                denom = _lcm(denom, e.im.denominator)
        if gaussian:
            out.append({j: (int(e.re * denom), int(e.im * denom)) for j, e in items})
        else:
            out.append({j: int(e.re * denom) for j, e in items})
    return out, gaussian


def _content_normalize(row, gaussian):
    """Divide a sparse integer row by the gcd of all integer components."""
    g = 0
    if gaussian:
        for a, b in row.values():
            g = gcd(g, gcd(abs(a), abs(b)))
            if g == 1:
                return row
        if g > 1:
            for j in list(row):
                a, b = row[j]
                row[j] = (a // g, b // g)
    else:
        for a in row.values():
            g = gcd(g, abs(a))
            if g == 1:
                return row
        if g > 1:
            for j in list(row):
                row[j] //= g
    return row


def _eliminate(row, f, piv_row, p, gaussian):
    """row := p * row - f * piv_row (sparse, integer or Gaussian-pair)."""
    out = {}
    if gaussian:
        pa, pb = p
        fa, fb = f
        for j, (a, b) in row.items():
            out[j] = (pa * a - pb * b, pa * b + pb * a)
        for j, (a, b) in piv_row.items():
            c, d = (fa * a - fb * b, fa * b + fb * a)
            if j in out:
                x, y = out[j]
                x -= c
                y -= d
                if x or y:
                    out[j] = (x, y)
                else:
                    del out[j]
            elif c or d:
                out[j] = (-c, -d)
    else:
        for j, a in row.items():
            out[j] = p * a
        for j, a in piv_row.items():
            c = f * a
            if j in out:
                x = out[j] - c
                if x:
                    out[j] = x
                else:
                    del out[j]
            elif c:
                out[j] = -c
    return _content_normalize(out, gaussian)


def _sparse_echelon(introws, gaussian):
    """Row echelon form of sparse integer rows.

    Returns (ech, piv_cols): ech[k] is a sparse row with leading column
    piv_cols[k], strictly increasing.
    """
    active = [(i, row) for i, row in enumerate(introws) if row]
    ech = []
    piv_cols = []
    lead = {i: min(row) for i, row in active}
    while active:
        c = min(lead[i] for i, _ in active)
        pick = None
        for pos, (i, row) in enumerate(active):
            if lead[i] == c:
                pick = pos
                break
        pi, piv_row = active.pop(pick)
        p = piv_row[c]
        rest = []
        for i, row in active:
            if c in row:
                row = _eliminate(row, row[c], piv_row, p, gaussian)
                if row:
                    lead[i] = min(row)
                    rest.append((i, row))
            else:
                rest.append((i, row))
        active = rest
        ech.append(piv_row)
        piv_cols.append(c)
    return ech, piv_cols


def _int_to_scalar(x, gaussian):
    if gaussian:
        return Scalar(x[0], x[1])
    return Scalar(x)


# ---------------------------------------------------------------------------
# sparse API (rows: dicts col -> Scalar)
# ---------------------------------------------------------------------------

def _echelon(rows):
    introws, gaussian = _to_int_rows(rows)
    ech, piv = _sparse_echelon(introws, gaussian)
    return ech, piv, gaussian


def pivot_columns(rows, ncols):
    """Pivot columns of the row echelon form, increasing: the leftmost
    columns independent of the columns before them."""
    if not rows or ncols == 0:
        return []
    return _echelon(rows)[1]


def rank_rows(rows, ncols):
    return len(pivot_columns(rows, ncols))


def kernel_basis_rows(rows, ncols):
    """Basis of {v : M v = 0}, one sparse vector per non-pivot column.

    Each vector is a dict {col: Scalar} in increasing column order, with no
    zeros stored and its lowest entry normalized to 1; the basis size equals
    ncols - rank.
    """
    if ncols == 0:
        return []
    ech, piv, gaussian = _echelon(rows)
    piv_set = set(piv)
    basis = []
    for fc in range(ncols):
        if fc in piv_set:
            continue
        # entries are filled from column fc down through the pivots, so the
        # reversed insertion order is increasing
        v = {fc: Scalar(1)}
        for k in range(len(piv) - 1, -1, -1):
            c = piv[k]
            if c > fc:
                continue
            row = ech[k]
            s = Scalar(0)
            for j, x in row.items():
                if j > c and j in v:
                    s = s + _int_to_scalar(x, gaussian) * v[j]
            if s:
                v[c] = -s / _int_to_scalar(row[c], gaussian)
        items = list(v.items())[::-1]
        lead = items[0][1]
        if lead != 1:
            items = [(j, x / lead) for j, x in items]
        basis.append(dict(items))
    return basis


# ---------------------------------------------------------------------------
# dense matrix wrapper
# ---------------------------------------------------------------------------

class ExactMatrix:
    """Dense matrix of Scalars with a field tag ("Q" or "Qi")."""

    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, entries, field=FIELD_Q):
        self.entries = [[as_scalar(e) for e in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
        if field not in (FIELD_Q, FIELD_QI):
            raise ValueError("unknown field tag %r" % field)
        if field == FIELD_Q:
            for row in self.entries:
                for e in row:
                    if not e.is_rational:
                        raise ValueError("Gaussian entry in a Q-tagged matrix")
        self.field = field

    @staticmethod
    def zeros(rows, cols, field=FIELD_Q):
        return ExactMatrix([[0] * cols for _ in range(rows)], field)

    @staticmethod
    def identity(n, field=FIELD_Q):
        return ExactMatrix(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], field
        )

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.entries == other.entries
            and self.field == other.field
        )

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            field = FIELD_QI if FIELD_QI in (self.field, other.field) else FIELD_Q
            out = []
            for i in range(self.rows):
                row = []
                for j in range(other.cols):
                    s = Scalar(0)
                    for k in range(self.cols):
                        a = self.entries[i][k]
                        if a:
                            s = s + a * other.entries[k][j]
                    row.append(s)
                out.append(row)
            return ExactMatrix(out, field)
        s = as_scalar(other)
        return ExactMatrix(
            [[e * s for e in row] for row in self.entries], self.field
        )

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        field = FIELD_QI if FIELD_QI in (self.field, other.field) else FIELD_Q
        return ExactMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
            field,
        )

    def __neg__(self):
        return ExactMatrix([[-e for e in row] for row in self.entries], self.field)

    def __sub__(self, other):
        return self + (-other)

    def apply(self, vec):
        """Matrix-vector product; vec is a list of Scalars."""
        out = []
        for row in self.entries:
            s = Scalar(0)
            for a, v in zip(row, vec):
                if a and v:
                    s = s + a * v
            out.append(s)
        return out

    def is_zero(self):
        return all(not e for row in self.entries for e in row)


def _sparse_rows(M):
    """(sparse rows, ncols) of an ExactMatrix or a list of dense rows."""
    if isinstance(M, ExactMatrix):
        dense, ncols = M.entries, M.cols
    else:
        dense = [[as_scalar(e) for e in row] for row in M]
        ncols = len(dense[0]) if dense else 0
    return [{j: e for j, e in enumerate(row) if e} for row in dense], ncols


def _densify(v, ncols):
    return [v.get(c, Scalar(0)) for c in range(ncols)]


def rank(M):
    """Rank of M over its exact field."""
    return rank_rows(*_sparse_rows(M))


def kernel_basis(M):
    """Basis of the right kernel as dense lists; see kernel_basis_rows for
    the normalization."""
    rows, ncols = _sparse_rows(M)
    return [_densify(v, ncols) for v in kernel_basis_rows(rows, ncols)]


def solve(M, rhs):
    """One solution of M x = rhs, or None: the unique one supported on the
    leftmost independent columns (free variables set to 0).  rhs holds one
    entry per row of M; any other length raises ValueError."""
    rows, ncols = _sparse_rows(M)
    if len(rhs) != len(rows):
        raise ValueError(
            "right-hand side has %d entries for %d rows" % (len(rhs), len(rows))
        )
    columns = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, e in row.items():
            columns[j][i] = e
    target = {}
    for i, b in enumerate(rhs):
        b = as_scalar(b)
        if b:
            target[i] = b
    x = SpanSolver(columns).solve(target)
    return None if x is None else _densify(x, ncols)


class SpanSolver:
    """Reusable exact solver for membership in the span of fixed sparse
    vectors; one elimination up front, then many solves.

    Keys of the vectors may be any mutually comparable hashables; zero
    entries of the vectors and of a target are ignored.
    """

    def __init__(self, vectors):
        self.pivots = []  # (pivot_key, row, coeffs) with row[pivot_key] == 1
        for i, v in enumerate(vectors):
            row = {j: x for j, x in v.items() if x}
            coeff = {i: Scalar(1)}
            self._reduce(row, coeff)
            if row:
                c = min(row)
                pv = row[c]
                if pv != 1:
                    row = {j: x / pv for j, x in row.items()}
                    coeff = {j: x / pv for j, x in coeff.items()}
                self.pivots.append((c, row, coeff))
                self.pivots.sort(key=lambda t: t[0])

    def _reduce(self, row, coeff):
        for c, prow, pcoeff in self.pivots:
            x = row.get(c)
            if x:
                svec_axpy(row, -x, prow)
                svec_axpy(coeff, -x, pcoeff)

    def solve(self, target):
        """Sparse coefficients {vector index: Scalar} over the original
        vectors (zero coefficients omitted), or None when target is not in
        their span: the nonzero residual after elimination is the
        certificate."""
        row = {j: x for j, x in target.items() if x}
        acc = {}
        for c, prow, pcoeff in self.pivots:
            x = row.get(c)
            if x:
                svec_axpy(row, -x, prow)
                svec_axpy(acc, x, pcoeff)
        if row:
            return None
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
