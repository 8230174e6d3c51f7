import sys
from pathlib import Path

from hypothesis import strategies as st

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
    """Structure algebra as prolongation input: the actions of its defining
    representation."""
    return [(alg.space[k].parity, alg.rep[k]) for k in range(len(alg.space))]


def g2_symbol():
    """Cartan's (2,3,5) symbol, the symbol of a generic rank-2 distribution
    on a 5-manifold: x1, x2 | y = [x1, x2] | z1 = [x1, y], z2 = [x2, y]."""
    from superprolong.liesuper import LieSuperalgebra
    from superprolong.superspace import EVEN, BasisVector, GradedSuperSpace

    space = GradedSuperSpace(
        [BasisVector("x1", -1, EVEN), BasisVector("x2", -1, EVEN),
         BasisVector("y", -2, EVEN),
         BasisVector("z1", -3, EVEN), BasisVector("z2", -3, EVEN)]
    )
    return LieSuperalgebra(space, {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1}})


@st.composite
def two_step_symbols(draw):
    """Random 2-step nilpotent symbols: m_{-1} of superdimension at most
    (2|2), m_{-2} at most (2|1), and [m_{-1}, m_{-1}] -> m_{-2} by random
    super-antisymmetric constants (canonical pairs a <= b, a repeated index
    only when odd); Jacobi holds because every double bracket has degree
    -3."""
    from superprolong.liesuper import LieSuperalgebra
    from superprolong.superspace import EVEN, ODD, BasisVector, GradedSuperSpace

    p1 = draw(st.integers(0, 2))
    q1 = draw(st.integers(0 if p1 else 1, 2))
    p2 = draw(st.integers(0, 2))
    q2 = draw(st.integers(0 if p2 else 1, 1))
    basis = [BasisVector("x%d" % k, -1, EVEN) for k in range(p1)]
    basis += [BasisVector("th%d" % k, -1, ODD) for k in range(q1)]
    basis += [BasisVector("y%d" % k, -2, EVEN) for k in range(p2)]
    basis += [BasisVector("et%d" % k, -2, ODD) for k in range(q2)]
    low, high = range(p1 + q1), range(p1 + q1, len(basis))
    brackets = {}
    for a in low:
        for b in range(a, p1 + q1):
            if a == b and basis[a].parity == EVEN:
                continue
            parity = (basis[a].parity + basis[b].parity) % 2
            vec = {}
            for c in high:
                if basis[c].parity == parity:
                    x = draw(st.integers(-2, 2))
                    if x:
                        vec[c] = x
            if vec:
                brackets[(a, b)] = vec
    return LieSuperalgebra(GradedSuperSpace(basis), brackets)
