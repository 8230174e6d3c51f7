"""Exact linear algebra: fraction-free sparse elimination, rank, kernels.

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


def _row_items(row, ncols):
    if isinstance(row, dict):
        return row.items()
    return ((j, e) for j, e in enumerate(row) if as_scalar(e))


def _to_int_rows(rows, ncols):
    """Convert rows (lists of Scalars or dicts col->Scalar) into sparse dicts
    with integer values; Gaussian entries become (re, im) int pairs.
    Returns (introws, gaussian_flag)."""
    gaussian = False
    cache = []
    for row in rows:
        items = [(j, as_scalar(e)) for j, e in _row_items(row, ncols) if as_scalar(e)]
        cache.append(items)
        if not gaussian and any(e.im for _, e in items):
            gaussian = True
    out = []
    for items in cache:
        if not items:
            out.append({})
            continue
        denom = 1
        for _, e in items:
            denom = _lcm(denom, e.re.denominator)
            if gaussian:
                denom = _lcm(denom, e.im.denominator)
        if gaussian:
            out.append(
                {
                    j: (
                        int(e.re * denom),
                        int(e.im * denom),
                    )
                    for j, e in items
                }
            )
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
# public sparse API (rows: lists of Scalars or dicts col -> Scalar)
# ---------------------------------------------------------------------------

def rank_rows(rows, ncols):
    if not rows or ncols == 0:
        return 0
    introws, gaussian = _to_int_rows(rows, ncols)
    _, piv = _sparse_echelon(introws, gaussian)
    return len(piv)


def kernel_basis_rows(rows, ncols):
    """Basis of {v : M v = 0}.

    Each basis vector is a list of Scalars with its first nonzero entry
    normalized to 1; the basis size equals ncols - rank.
    """
    if ncols == 0:
        return []
    introws, gaussian = _to_int_rows(rows or [], ncols)
    ech, piv = _sparse_echelon(introws, gaussian)
    piv_set = set(piv)
    free = [c for c in range(ncols) if c not in piv_set]
    basis = []
    for fc in free:
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
        dense = [v.get(c, Scalar(0)) for c in range(ncols)]
        for e in dense:
            if e:
                if e != 1:
                    dense = [x / e for x in dense]
                break
        basis.append(dense)
    return basis


def solve_rows(rows, ncols, rhs):
    """One solution of M x = rhs (free variables set to 0), or None."""
    aug = []
    for row, b in zip(rows, rhs):
        d = dict(_row_items(row, ncols)) if not isinstance(row, dict) else dict(row)
        b = as_scalar(b)
        if b:
            d[ncols] = b
        aug.append(d)
    introws, gaussian = _to_int_rows(aug, ncols + 1)
    ech, piv = _sparse_echelon(introws, gaussian)
    if ncols in piv:
        return None
    x = {}
    for k in range(len(piv) - 1, -1, -1):
        c = piv[k]
        row = ech[k]
        s = _int_to_scalar(row.get(ncols, 0), gaussian) if ncols in row else Scalar(0)
        for j, e in row.items():
            if c < j < ncols and j in x:
                s = s - _int_to_scalar(e, gaussian) * x[j]
        if s:
            x[c] = s / _int_to_scalar(row[c], gaussian)
    return [x.get(c, Scalar(0)) for c in range(ncols)]


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

    def transpose(self):
        return ExactMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            self.field,
        )

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


def rank(M):
    """Rank of M over its exact field."""
    if isinstance(M, ExactMatrix):
        return rank_rows(M.entries, M.cols)
    rows = list(M)
    return rank_rows(rows, len(rows[0]) if rows else 0)


def kernel_basis(M):
    """Basis of the right kernel; see kernel_basis_rows for normalization."""
    if isinstance(M, ExactMatrix):
        return kernel_basis_rows(M.entries, M.cols)
    rows = list(M)
    return kernel_basis_rows(rows, len(rows[0]) if rows else 0)


def solve(M, rhs):
    if isinstance(M, ExactMatrix):
        return solve_rows(M.entries, M.cols, rhs)
    rows = list(M)
    return solve_rows(rows, len(rows[0]) if rows else 0, rhs)


def solve_in_span(vectors, target, dim):
    """Coefficients c with sum_k c_k vectors[k] == target, or None.

    vectors and target are sparse dicts index -> Scalar on a space of the
    given dimension.
    """
    if not vectors:
        return [] if not target else None
    rows = {}
    for k, v in enumerate(vectors):
        for i, s in v.items():
            rows.setdefault(i, {})[k] = s
    rhs_rows = []
    rhs = []
    for i in sorted(set(rows) | set(target)):
        rhs_rows.append(rows.get(i, {}))
        rhs.append(target.get(i, Scalar(0)))
    return solve_rows(rhs_rows, len(vectors), rhs)


class SpanSolver:
    """Reusable exact solver for membership in the span of fixed sparse
    vectors; one elimination up front, then many solves.

    Keys of the vectors may be any mutually comparable hashables.
    """

    def __init__(self, vectors):
        self.pivots = []  # (pivot_key, row, coeffs) with row[pivot_key] == 1
        for i, v in enumerate(vectors):
            row = dict(v)
            coeff = {i: Scalar(1)}
            self._reduce(row, coeff)
            if row:
                c = min(row)
                pv = row[c]
                if pv != 1:
                    row = {j: x / pv for j, x in row.items()}
                    coeff = {j: x / pv for j, x in coeff.items()}
                self.pivots.append((c, row, coeff))
                self.pivots.sort(key=lambda t: _KeyWrap(t[0]))

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
        row = dict(target)
        acc = {}
        for c, prow, pcoeff in self.pivots:
            x = row.get(c)
            if x:
                svec_axpy(row, -x, prow)
                svec_axpy(acc, x, pcoeff)
        if row:
            return None
        return acc


class _KeyWrap:
    """Total order on possibly mixed key types (by type name, then value)."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        a, b = self.key, other.key
        ta, tb = type(a).__name__, type(b).__name__
        if ta != tb:
            return ta < tb
        return a < b


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
