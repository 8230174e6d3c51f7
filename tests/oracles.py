"""Independent oracles used to freeze expected values.

The elimination oracle here is a naive dense Gaussian elimination over
Fraction pairs, written without reference to the package's sparse
fraction-free code path.
"""

from fractions import Fraction


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
    return rank_rows(proj, len(a_rows)) == len(ker2)
