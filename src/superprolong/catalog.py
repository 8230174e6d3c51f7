"""Builders for the named Lie superalgebras used throughout the package.

Matrix families (gl, sl, osp, spo, the periplectic zoo) are produced from a
single generic routine that solves the invariance equation of a bilinear
form and reads the brackets off the prolongation engine's g_0 block; their
defining representation is attached, one action {src: {dst: Scalar}} each.
Nilpotent symbols (Heisenberg contact, SHC, odd-ODE) are entered by
explicit structure constants.  The supertranslation builder works over Q(i)
with the Pauli realization of the three-dimensional Clifford module; every
other builder works over Q.  Builders that take a dimension p, q or n
refuse a negative one through one shared check.

Basis naming follows the sources these algebras come from: E11, E12, ... for
matrix units; X, th1, th2, ... for odd-ODE symbols; e1, e2, th1p, th1pp,
th2p, th2pp, h, rho1, rho2, f1, f2 for the SHC symbol; v1..v3, s{copy}_{1,2}
for supertranslations.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .linalg import kernel_basis_rows
from .scalars import FIELD_QI, Scalar, _exact, _read_rational
from .superspace import EVEN, ODD, BasisVector, GradedSuperSpace, _check_degree
from .liesuper import LieSuperalgebra
from .prolong import Prolongation


# ---------------------------------------------------------------------------
# generic matrix-family machinery
# ---------------------------------------------------------------------------

def _entry_parity(p, i):
    return EVEN if i < p else ODD


def _check_dims(*dims):
    if any(type(d) is not int for d in dims):
        raise ValueError("dimensions must be ints, got %r" % (dims,))
    if min(dims) < 0:
        raise ValueError("dimensions must be >= 0")


def _check_order(order):
    _check_degree("order", order)
    if order < 2:
        raise ValueError("order must be >= 2")


def _check_form(form, n, what):
    if any(i not in range(n) or j not in range(n) for i, j in form):
        raise ValueError("%s has an index outside 0..%d" % (what, n - 1))


def _matrix_family(p, q, members, names, weights=None):
    """LieSuperalgebra from a list of (parity, action) pairs closed under the
    supercommutator, each action {src: {dst: Scalar}} a matrix on the basis
    of R^{p|q}.  The structure constants are the members' brackets as g_0 of
    ``Prolongation`` over R^{p|q}, whose ValueError names a member that is
    not parity-homogeneous, dependent, or bracketed outside the span."""
    basis = []
    for k, (par, A) in enumerate(members):
        deg = 0
        if weights is not None:
            degs = {weights[i] - weights[j] for j, col in A.items() for i in col}
            if len(degs) > 1:
                raise ValueError("member %d not weight-homogeneous" % k)
            deg = degs.pop() if degs else 0
        basis.append(BasisVector(name=names[k], degree=deg, parity=par))
    brackets = {}
    if p + q:
        engine = Prolongation(abelian(p, q), g0=members)
        for a in range(len(members)):
            for b in range(a, len(members)):
                vec = engine.bracket_elements(0, a, 0, b)
                if vec:
                    brackets[(a, b)] = vec
    rep = {k: A for k, (_, A) in enumerate(members)}
    return LieSuperalgebra(GradedSuperSpace(basis), brackets, rep=rep, rep_shape=(p, q))


def _units(p, q, diagonal):
    """The matrix units E_ij of gl(p|q) row by row, E_ii only if diagonal,
    as (parity, action) members and their names."""
    _check_dims(p, q)
    n = p + q
    fmt = "E%d%d" if n <= 9 else "E%d_%d"
    members, labels = [], []
    for i in range(n):
        for j in range(n):
            if diagonal or i != j:
                parity = (_entry_parity(p, i) + _entry_parity(p, j)) % 2
                members.append((parity, {j: {i: Scalar(1)}}))
                labels.append(fmt % (i + 1, j + 1))
    return members, labels


def gl(p, q):
    """gl(p|q): all matrix units E_ij."""
    return _matrix_family(p, q, *_units(p, q, diagonal=True))


def sl(p, q, weights=None):
    """sl(p|q): supertrace-zero matrices."""
    members, labels = _units(p, q, diagonal=False)
    n = p + q
    # supertrace-zero diagonal combinations
    str_signs = [1 if i < p else -1 for i in range(n)]
    diag = kernel_basis_rows([{i: Scalar(s) for i, s in enumerate(str_signs)}], n)
    for k, v in enumerate(diag):
        members.append((EVEN, {i: {i: s} for i, s in v.items()}))
        labels.append("H%d" % (k + 1))
    return _matrix_family(p, q, members, labels, weights=weights)


def form_preserving(p, q, P, extra_supertrace_zero=False, extend_center=False,
                    prefix="M"):
    """Subalgebra of gl(p|q) preserving the bilinear form P, a dict
    {(i, j): Scalar} of its nonzero entries:
    P(Xu, v) + (-1)^{|X||u|} P(u, Xv) = 0 for all basis u, v."""
    _check_dims(p, q)
    n = p + q
    _check_form(P, n, "form")
    members, labels = [], []
    for parity in (EVEN, ODD):
        slots = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if (_entry_parity(p, i) + _entry_parity(p, j)) % 2 == parity
        ]
        pos = {s: k for k, s in enumerate(slots)}
        rows = []
        for j in range(n):
            pj = _entry_parity(p, j)
            sgn = Scalar(-1) if (parity == ODD and pj == ODD) else Scalar(1)
            for k in range(n):
                row = {}
                for i in range(n):
                    if (i, j) in pos and (x := P.get((i, k))):
                        col = pos[(i, j)]
                        row[col] = row.get(col, Scalar(0)) + x
                    if (i, k) in pos and (x := P.get((j, i))):
                        col = pos[(i, k)]
                        row[col] = row.get(col, Scalar(0)) + sgn * x
                if row:
                    rows.append(row)
        if extra_supertrace_zero and parity == EVEN:
            rows.append(
                {pos[(i, i)]: Scalar(1 if i < p else -1) for i in range(n) if (i, i) in pos}
            )
        for v in kernel_basis_rows(rows, len(slots)):
            act = {}
            for k, s in v.items():
                i, j = slots[k]
                act.setdefault(j, {})[i] = s
            members.append((parity, act))
            labels.append("%s%d" % (prefix, len(labels) + 1))
    if extend_center:
        members.append((EVEN, {i: {i: Scalar(1)} for i in range(n)}))
        labels.append("Z")
    return _matrix_family(p, q, members, labels)


def _osp_form(m, two_n):
    _check_dims(m, two_n)
    if two_n % 2:
        raise ValueError("osp needs an even symplectic rank")
    h = two_n // 2
    P = {(i, i): Scalar(1) for i in range(m)}
    for i in range(h):
        P[(m + i, m + h + i)] = Scalar(1)
        P[(m + h + i, m + i)] = Scalar(-1)
    return P


def osp(m, two_n):
    """osp(m|2n): even supersymmetric form (symmetric | symplectic)."""
    return form_preserving(m, two_n, _osp_form(m, two_n), prefix="S")


def _spo_form(m, n):
    _check_dims(m, n)
    if m % 2:
        raise ValueError("spo needs an even symplectic rank on the even part")
    h = m // 2
    P = {}
    for i in range(h):
        P[(i, h + i)] = Scalar(1)
        P[(h + i, i)] = Scalar(-1)
    for i in range(n):
        P[(m + i, m + i)] = Scalar(1)
    return P


def spo(m, n):
    """spo(m|n): even super-skewsymmetric form (symplectic | symmetric)."""
    return form_preserving(m, n, _spo_form(m, n), prefix="S")


def _periplectic_form(n, skew):
    _check_dims(n)
    P = {}
    for i in range(n):
        P[(i, n + i)] = Scalar(1)
        P[(n + i, i)] = Scalar(-1 if skew else 1)
    return P


def pe(n, skew=False):
    """pe(n), or the skew-periplectic pe^sk(n) when skew=True."""
    return form_preserving(n, n, _periplectic_form(n, skew), prefix="P")


def spe(n, skew=False):
    return form_preserving(
        n, n, _periplectic_form(n, skew), extra_supertrace_zero=True, prefix="P",
    )


def cpe(n, skew=False):
    return form_preserving(
        n, n, _periplectic_form(n, skew), extend_center=True, prefix="P",
    )


def cspe(n, skew=False):
    return form_preserving(
        n, n, _periplectic_form(n, skew),
        extra_supertrace_zero=True, extend_center=True, prefix="P",
    )


def spe_ab(n, a, b, skew=False):
    """spe_{a,b}(n) = <a*tau + b*z> x| spe(n); depends only on [a:b]."""
    a, b = Fraction(_exact(a)), Fraction(_exact(b))
    if a == 0 and b == 0:
        return spe(n, skew=skew)
    if a != 0:
        b = b / a
        a = Fraction(1)
    else:
        b = Fraction(1)
    base = spe(n, skew=skew)
    members = [
        (base.space[k].parity, base.rep[k]) for k in range(len(base.space))
    ]
    labels = [base.space[k].name for k in range(len(base.space))]
    diag = [Scalar(a) + Scalar(b)] * n + [Scalar(b) - Scalar(a)] * n
    members.append((EVEN, {i: {i: s} for i, s in enumerate(diag) if s}))
    labels.append("T")
    return _matrix_family(n, n, members, labels)


# ---------------------------------------------------------------------------
# nilpotent symbols
# ---------------------------------------------------------------------------

def abelian(p, q):
    _check_dims(p, q)
    basis = [BasisVector("x%d" % (i + 1), -1, EVEN) for i in range(p)]
    basis += [BasisVector("th%d" % (i + 1), -1, ODD) for i in range(q)]
    return LieSuperalgebra(GradedSuperSpace(basis), {})


def heisenberg_contact(p, q):
    """Contact symbol: g_{-1} = R^{p|q} with the even super-skew form w of
    spo(p|q), g_{-2} = <Z>, [u, v] = w(u, v) Z."""
    _check_dims(p, q)
    if p % 2:
        raise ValueError("heisenberg_contact needs an even p, got %d" % p)
    form = _spo_form(p, q)
    basis = [BasisVector("x%d" % (i + 1), -1, EVEN) for i in range(p)]
    basis += [BasisVector("th%d" % (i + 1), -1, ODD) for i in range(q)]
    basis.append(BasisVector("Z", -2, EVEN))
    z = p + q
    brackets = {}
    for a in range(p + q):
        for b in range(a, p + q):
            w = form.get((a, b))
            if w:
                brackets[(a, b)] = {z: w}
    return LieSuperalgebra(GradedSuperSpace(basis), brackets)


def shc_symbol():
    """Symbol of super Hilbert-Cartan type: growth vector (2|4, 1|2, 2|0)."""
    basis = [
        BasisVector("e1", -1, EVEN),
        BasisVector("e2", -1, EVEN),
        BasisVector("th1p", -1, ODD),
        BasisVector("th1pp", -1, ODD),
        BasisVector("th2p", -1, ODD),
        BasisVector("th2pp", -1, ODD),
        BasisVector("h", -2, EVEN),
        BasisVector("rho1", -2, ODD),
        BasisVector("rho2", -2, ODD),
        BasisVector("f1", -3, EVEN),
        BasisVector("f2", -3, EVEN),
    ]
    space = GradedSuperSpace(basis)
    ix = space.index
    one = Scalar(1)
    brackets = {
        (ix("e1"), ix("e2")): {ix("h"): one},
        (ix("e1"), ix("h")): {ix("f1"): one},
        (ix("e2"), ix("h")): {ix("f2"): one},
        (ix("th1p"), ix("th2p")): {ix("h"): one},
        (ix("th1pp"), ix("th2pp")): {ix("h"): one},
        (ix("e1"), ix("th2p")): {ix("rho1"): one},
        (ix("e2"), ix("th1pp")): {ix("rho1"): one},
        (ix("e1"), ix("th2pp")): {ix("rho2"): one},
        (ix("e2"), ix("th1p")): {ix("rho2"): -one},
        (ix("th1p"), ix("rho1")): {ix("f1"): one},
        (ix("th1pp"), ix("rho2")): {ix("f1"): one},
        (ix("th2pp"), ix("rho1")): {ix("f2"): one},
        (ix("th2p"), ix("rho2")): {ix("f2"): -one},
    }
    return LieSuperalgebra(space, brackets)


def odd_ode_symbol(order):
    """Contact symbol of an order-n odd ODE: <X|th1> + <th2> + ... + <thn>,
    [X, th_i] = th_{i+1}."""
    _check_order(order)
    basis = [BasisVector("X", -1, EVEN), BasisVector("th1", -1, ODD)]
    for i in range(2, order + 1):
        basis.append(BasisVector("th%d" % i, -i, ODD))
    space = GradedSuperSpace(basis)
    brackets = {}
    for i in range(1, order):
        brackets[(0, space.index("th%d" % i))] = {
            space.index("th%d" % (i + 1)): Scalar(1)
        }
    return LieSuperalgebra(space, brackets)


def odd_ode_scalings(order):
    """The two scaling derivations of odd_ode_symbol(order) fixing the two
    distinguished lines: diag(1,0,1,2,...,n-1) and diag(0,1,1,...,1) in the
    basis (X, th1, ..., thn).  Returned as (parity, action) pairs."""
    _check_order(order)
    t1 = {0: {0: Scalar(1)}}
    t2 = {1: {1: Scalar(1)}}
    for i in range(2, order + 1):
        t1[i] = {i: Scalar(i - 1)}
        t2[i] = {i: Scalar(1)}
    return [(EVEN, t1), (EVEN, t2)]


# ---------------------------------------------------------------------------
# supertranslation algebras (d = 3, Pauli realization, over Q(i))
# ---------------------------------------------------------------------------

PAULI = (
    ((Scalar(0), Scalar(1)), (Scalar(1), Scalar(0))),
    ((Scalar(0), Scalar(0, -1)), (Scalar(0, 1), Scalar(0))),
    ((Scalar(1), Scalar(0)), (Scalar(0), Scalar(-1))),
)


def default_admissible_form(N):
    """eps (x) Id_N on (C^2)^N, eps = ((0,1),(-1,0)), as {(i, j): Scalar}."""
    B = {}
    for a in range(N):
        B[(2 * a, 2 * a + 1)] = Scalar(1)
        B[(2 * a + 1, 2 * a)] = Scalar(-1)
    return B


def supertranslation(N, form=None):
    """Supertranslation algebra m = V + S^{+N} for dim V = 3 over Q(i).

    V = m_{-2} is even with orthonormal form; S = C^2 carries the Pauli
    Clifford action; the bracket on m_{-1} is (Gamma(s,t), v) = B(v.s, t)
    for the form B (default eps (x) Id_N), which must be admissible:
    Gamma(s, t) = Gamma(t, s) on every pair of spinor slots."""
    _check_degree("N", N)
    if N < 1:
        raise ValueError("N must be >= 1")
    if form is None:
        form = default_admissible_form(N)
    _check_form(form, 2 * N, "admissible form")
    basis = [BasisVector("v%d" % (i + 1), -2, EVEN) for i in range(3)]
    for a in range(N):
        basis.append(BasisVector("s%d_1" % (a + 1), -1, ODD))
        basis.append(BasisVector("s%d_2" % (a + 1), -1, ODD))
    space = GradedSuperSpace(basis)

    def gamma(r, t):
        # (Gamma(s_r, s_t), v_i) = B(sigma_i s_r, s_t); sigma_i s_r is column
        # r % 2 of PAULI[i] on the two spinor slots of s_r's copy
        base, col = r - r % 2, r % 2
        vec = {}
        for i in range(3):
            c = Scalar(0)
            for k in range(2):
                f = form.get((base + k, t))
                if f:
                    c = c + PAULI[i][k][col] * f
            if c:
                vec[i] = c
        return vec

    slots = range(2 * N)
    gammas = {(r, t): gamma(r, t) for r in slots for t in slots}
    brackets = {}
    for r in slots:
        for t in slots[r:]:
            if gammas[r, t] != gammas[t, r]:
                raise ValueError("form is not admissible: Gamma is not supersymmetric")
            if gammas[r, t]:
                brackets[(3 + r, 3 + t)] = gammas[r, t]
    return LieSuperalgebra(space, brackets, field=FIELD_QI)


# ---------------------------------------------------------------------------
# named dispatch
# ---------------------------------------------------------------------------

_ALIASES = {
    "skew_pe": "pe_sk",
    "skew_spe": "spe_sk",
    "skew_cpe": "cpe_sk",
    "skew_cspe": "cspe_sk",
}


def _int(arg):
    """An integer field of a spec: an optional "-" and ASCII digits."""
    if not re.fullmatch("-?[0-9]+", arg):
        raise ValueError("expected an integer, got %r" % arg)
    return int(arg)


def _rational(arg, what):
    """A rational field of a spec: an integer field or p/q with q ASCII
    digits; q = 0 is refused by ``_read_rational``."""
    if not re.fullmatch("-?[0-9]+(/[0-9]+)?", arg):
        raise ValueError('%s %r is neither an integer nor a "p/q" string' % (what, arg))
    return _read_rational(arg, what)


def _parse_pq(arg):
    parts = arg.split("|")
    if len(parts) != 2:
        raise ValueError("expected p|q, got %r" % arg)
    return _int(parts[0]), _int(parts[1])


def _graded_sl(pq):
    p, q = _parse_pq(pq)
    return sl(p, q, weights=[-(i + 1) for i in range(p + q)])


# name -> (the form of its spec, builder of the spec's arguments)
_NAMED = {
    "gl": ("gl:p|q", lambda pq: gl(*_parse_pq(pq))),
    "sl": ("sl:p|q", lambda pq: sl(*_parse_pq(pq))),
    "sl_graded": ("sl_graded:p|q", _graded_sl),
    "osp": ("osp:p|q", lambda pq: osp(*_parse_pq(pq))),
    "spo": ("spo:p|q", lambda pq: spo(*_parse_pq(pq))),
    "pe": ("pe:n", lambda n: pe(_int(n))),
    "spe": ("spe:n", lambda n: spe(_int(n))),
    "cpe": ("cpe:n", lambda n: cpe(_int(n))),
    "cspe": ("cspe:n", lambda n: cspe(_int(n))),
    "pe_sk": ("pe_sk:n", lambda n: pe(_int(n), skew=True)),
    "spe_sk": ("spe_sk:n", lambda n: spe(_int(n), skew=True)),
    "cpe_sk": ("cpe_sk:n", lambda n: cpe(_int(n), skew=True)),
    "cspe_sk": ("cspe_sk:n", lambda n: cspe(_int(n), skew=True)),
    "spe_ab": (
        "spe_ab:n:a:b",
        lambda n, a, b: spe_ab(
            _int(n), _rational(a, "spe_ab argument a"),
            _rational(b, "spe_ab argument b"),
        ),
    ),
    "abelian": ("abelian:p|q", lambda pq: abelian(*_parse_pq(pq))),
    "heisenberg_contact": (
        "heisenberg_contact:p|q",
        lambda pq: heisenberg_contact(*_parse_pq(pq)),
    ),
    "shc_symbol": ("shc_symbol", shc_symbol),
    "odd_ode_symbol": ("odd_ode_symbol:n", lambda n: odd_ode_symbol(_int(n))),
    "supertranslation": ("supertranslation:N", lambda n: supertranslation(_int(n))),
}


def build_named(spec):
    """Build a catalog algebra from a spec string like "pe:2", "osp:2|2",
    "spe_ab:2:1:2", "odd_ode_symbol:3", "supertranslation:1", "shc_symbol",
    "sl_graded:2|1", "abelian:2|2", "heisenberg_contact:2|0"; "osp(2|2)"
    is read as "osp:2|2".  A wrong argument count or an empty field raises
    ValueError naming the expected form, and a ValueError of the builder is
    raised again with the spec in front."""
    parts = spec.replace("(", ":").replace(")", "").split(":")
    name = parts[0].strip()
    args = parts[1:]
    name = _ALIASES.get(name, name)
    if name not in _NAMED:
        raise ValueError("unknown catalog name %r" % name)
    form, build = _NAMED[name]
    slots = form.split(":")[1:]
    if len(args) != len(slots) or "" in args:
        raise ValueError("%r: expected the form %s" % (spec, form))
    try:
        return build(*args)
    except ValueError as e:
        raise ValueError("%r: %s" % (spec, e)) from None
