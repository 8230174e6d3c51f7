import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))


def delta_squared_rows(g, d, k):
    """Rows of the product (delta: C^{d,k+1} -> C^{d,k+2}) (delta: C^{d,k} ->
    C^{d,k+1}) of the shipped sparse matrices: (nonzero rows, all rows)."""
    from superprolong.linalg import svec_axpy
    from superprolong.spencer import CochainSlice

    lower, upper = CochainSlice(g, d, k), CochainSlice(g, d, k + 1)
    assert upper.basis == lower.target
    bad = []
    for r, row in enumerate(upper.matrix_rows):
        acc = {}
        for j, a in row.items():
            svec_axpy(acc, a, lower.matrix_rows[j])
        if acc:
            bad.append(upper.target[r])
    return bad, len(upper.matrix_rows)


def g0_of(alg):
    """Structure algebra as prolongation input: its defining matrices."""
    return [(alg.space[k].parity, alg.rep[k]) for k in range(len(alg.space))]
