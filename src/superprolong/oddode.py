"""Jets of maps R^{p|0} -> R^{0|1}, contact vector fields with generating
superfunctions, the Lagrange bracket, prolongation, and the contact-symmetry
solver for odd ODEs xi^{(n)} = F(x, xi, ..., xi^{(n-1)}).

Jet coordinates: even x^1..x^p and odd xi_I for multi-indices I with
|I| <= r (xi itself is I = ()).  Function coefficients are spanned by
x^k e^{lambda x} with rational lambda (exponentials for p = 1 only).

The contact field of a generating superfunction f = f(x, xi, xi_i):

    S_f = (-1)^{|f|} (d_{xi_i} f) D^(1)_{x_i} + f d_xi + (D^(1)_{x_i} f) d_{xi_i},

its parity is |f|+1, and prolongation coefficients are iterated total
derivatives D_{x^{j_1}}...D_{x^{j_k}} f truncated to jet order k.  The
bracket of generating superfunctions is

    [f,g] = f d_xi(g) + (-1)^{|f|} d_xi(f) g
          + (D^(1)_j f)(d_{xi_j} g) + (-1)^{|f|} (d_{xi_j} f)(D^(1)_j g),

with [S_f, S_g] = S_{[f,g]}.

A generating function prolonged more than once in a process keeps its
prolonged field, up to jet order 6, for later calls (``prolong_field``);
one solve prolongs each function once, so a process that makes one solve
keeps none.  The kept polynomials are shared with the fields returned, so
no code mutates a polynomial's ``terms`` in place.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations_with_replacement, count
from math import lcm
from types import SimpleNamespace

from .scalars import FIELD_Q, Scalar, _exact, _read_rational, as_scalar
from .superspace import (
    EVEN,
    ODD,
    BasisVector,
    GradedSuperSpace,
    GrassmannPolynomial,
    _check_degree,
    parse_polynomial,
    sort_with_sign,
)
from .liesuper import LieSuperalgebra, SymbolAlgebra, validate as validate_alg
from .superfield import PolynomialField
from .linalg import SpanSolver, kernel_basis_rows
from .catalog import _check_order, odd_ode_scalings, odd_ode_symbol
from .prolong import prolong


class JetContext:
    """p independent even variables, one odd dependent variable."""

    def __init__(self, p=1):
        _check_degree("p", p, 1)
        self.p = p

    def direction_name(self, d):
        if d[0] == "x":
            return "x" if self.p == 1 else "x%d" % (d[1] + 1)
        return self.coord_name(d[1])

    def coord_name(self, I):
        if not I:
            return "xi"
        if self.p == 1:
            return "xi%d" % len(I)
        return "xi_" + "".join(str(i) for i in I)


def _odd_key(I):
    return (len(I), I)


def _odds_key(odd):
    return tuple(_odd_key(I) for I in odd)


class JetFunction(GrassmannPolynomial):
    """Element of the jet function ring.

    terms: {(xexp tuple, lam, odd tuple of multi-indices): Scalar}; the
    exponent lam is an int when integral, else a Fraction, as for the parts
    of a Scalar; odd tuples are strictly increasing in (length, lex) order.
    """

    __slots__ = ()
    symbol_key = staticmethod(_odd_key)
    term_order = staticmethod(lambda key: (key[1], key[0], _odds_key(key[2])))
    kind = "jet superfunction"

    @staticmethod
    def constant(ctx, c):
        c = as_scalar(c)
        key = ((0,) * ctx.p, 0, ())
        return JetFunction(ctx, {key: c} if c else {})

    @staticmethod
    def x_power(ctx, k, i=0, lam=0):
        exp = tuple(k if j == i else 0 for j in range(ctx.p))
        if lam and ctx.p != 1:
            raise ValueError("exponentials only for p = 1")
        return JetFunction(ctx, {(exp, _exact(Fraction(lam)), ()): Scalar(1)})

    @staticmethod
    def odd_coord(ctx, I):
        return JetFunction(ctx, {((0,) * ctx.p, 0, (tuple(I),)): Scalar(1)})

    def _mul_even(self, a, b):
        lam = a[1] + b[1]
        return (
            tuple(p + q for p, q in zip(a[0], b[0])),
            lam if type(lam) is int else _exact(lam),
        )

    def _even_factors(self, key):
        out = super()._even_factors(key)
        lam = key[1]
        if lam:
            out.append("exp(x)" if lam == 1 else "exp(%s*x)" % lam)
        return out

    def max_order(self):
        mo = 0
        for (_, _, odd) in self.terms:
            for I in odd:
                mo = max(mo, len(I))
        return mo

    def diff_x(self, i=0):
        """d/dx^i; for p = 1 this also differentiates the exponential part."""
        out = super().diff_x(i)
        # a nonzero lambda only occurs for p = 1, where i = 0
        exp_part = {key: v * key[1] for key, v in self.terms.items() if key[1]}
        return out + self._new(exp_part) if exp_part else out

    def total_derivative(self, i=0):
        """Full total derivative D_{x^i} (raises jet order by one)."""
        return self._total_derivative(i, None)

    def first_order_total(self, i=0):
        """D^(1)_{x^i} f = d_x f + xi_i d_xi f (for f of order <= 1)."""
        return self._total_derivative(i, 1)

    def _total_derivative(self, i, below):
        """d/dx^i plus, for each odd factor xi_I with |I| < below (every
        factor when below is None), that factor replaced in place by
        xi_{I+e_i}.  D is an even derivation, so a replaced monomial carries
        only the sign of re-sorting its odd tuple."""
        out = {}
        up = i + 1
        for key, v in self.terms.items():
            xe, lam, odd = key
            new = []
            e = xe[i]
            if e:
                new.append(((xe[:i] + (e - 1,) + xe[i + 1 :], lam, odd), v * e))
            if lam:
                new.append((key, v * lam))
            for j, I in enumerate(odd):
                if below is not None and len(I) >= below:
                    break
                raised, sign = sort_with_sign(
                    odd[:j] + (tuple(sorted(I + (up,))),) + odd[j + 1 :],
                    (EVEN,) * len(odd), _odd_key,
                )
                if sign:
                    new.append(((xe, lam, raised), v if sign > 0 else -v))
            for k, w in new:
                s = out.get(k)
                s = w if s is None else s + w
                if s:
                    out[k] = s
                else:
                    del out[k]
        return self._new(out)

    def truncate(self, order):
        """Drop terms containing a jet coordinate of order > order."""
        return self._new(
            {
                key: v
                for key, v in self.terms.items()
                if all(len(I) <= order for I in key[2])
            }
        )

    def substitute_odd(self, I, g):
        """Replace the odd coordinate xi_I by the odd function g: with
        f = xi_I * d_{xi_I} f + (terms free of xi_I), that is
        g * d_{xi_I} f + (terms free of xi_I)."""
        keep = {key: v for key, v in self.terms.items() if I not in key[2]}
        return self._new(g._mac(keep, self.diff_odd(I), False))

    def weighted_grading(self, order):
        """Grading of S_f induced by the symbol filtration: each monomial
        weighs (#x plus sum over xi^{(j)} factors of (order - j)) - order;
        None when monomials disagree or an exponential is present."""
        grades = set()
        for (xe, lam, odd) in self.terms:
            if lam:
                return None
            w = sum(xe)
            for I in odd:
                w += order - len(I)
            grades.add(w - order)
        if len(grades) != 1:
            return None
        return grades.pop()


# ---------------------------------------------------------------------------
# contact fields
# ---------------------------------------------------------------------------

class ContactField(PolynomialField):
    """Vector field on J^r: coefficients per d_{x^i}, d_{xi_I}."""

    __slots__ = ()
    polynomial = JetFunction


class GeneratingFunction:
    """A generating superfunction on J^1 with its parity and its grading
    under the symbol filtration of an order-`order` ODE, None if it has none."""

    def __init__(self, fn, order):
        self.fn = fn
        self.parity = fn.parity() if fn else EVEN
        self.grading = fn.weighted_grading(order)

    def to_str(self):
        return self.fn.to_str()


def contact_vf(f):
    """The order-1 contact field S_f of a generating superfunction."""
    ctx = f.ambient
    if f.max_order() > 1:
        raise ValueError("generating superfunctions live on J^1")
    pf = f.parity()
    if pf is None:
        return ContactField(ctx, ODD, {})
    sgn = Scalar(-1) if pf else Scalar(1)
    coeffs = {}
    xi_terms = dict(f.terms)
    for i in range(ctx.p):
        dfi = f.diff_odd((i + 1,))
        if dfi:
            coeffs[("x", i)] = dfi.scale(sgn)
            dfi._mac(xi_terms, JetFunction.odd_coord(ctx, (i + 1,)), pf)
        dtot = f.first_order_total(i)
        if dtot:
            coeffs[("xi", (i + 1,))] = dtot
    if xi_terms:
        coeffs[("xi", ())] = f._new(xi_terms)
    return ContactField(ctx, (pf + 1) % 2, coeffs)


# The prolongation memo, least recently used first: (p, terms) of each of
# the last _KEPT_CHAINS generating functions met, to None after its first
# prolongation and to its chain after the second.  A chain keeps the levels
# up to _KEPT_ORDER, since its terms grow as the cube of its order.
_KEPT_ORDER = 6
_KEPT_CHAINS = 128
_jet_chains = {}


def prolong_field(f, r):
    """Prolongation of S_f to J^r: the d_{xi_I} coefficient for |I| = k is
    D_{x^{j_1}}...D_{x^{j_k}} f truncated to jet order k, which does not
    depend on r.  From its second prolongation on, f keeps a chain in
    ``_jet_chains``: its contact field, the untruncated total derivatives
    {I: D_I f} of the top order kept and the truncated coefficients of each
    order up to _KEPT_ORDER, extended when r exceeds its order.  The field
    returned has a coeffs dict of its own, but its coefficient polynomials
    are shared with the chain, so callers must not mutate their ``terms``."""
    ctx = f.ambient
    key = (ctx.p, frozenset(f.terms.items()))
    chain = _jet_chains.get(key)
    if chain is None:
        chain = SimpleNamespace(field=contact_vf(f), top={(): f}, levels=[])
    _check_degree("prolongation order", r)
    if r < 1:
        raise ValueError("prolongation order must be >= 1")
    met = key in _jet_chains
    _jet_chains.pop(key, None)
    _jet_chains[key] = chain if met else None
    if len(_jet_chains) > _KEPT_CHAINS:
        del _jet_chains[next(iter(_jet_chains))]
    top, levels = chain.top, chain.levels[:r]
    for k in range(len(levels) + 1, r + 1):
        nxt = {}
        for I, g in top.items():
            lo = I[-1] if I else 1
            for i in range(lo, ctx.p + 1):
                J = I + (i,)
                if J in nxt:
                    continue
                nxt[J] = g.total_derivative(i - 1)
        level = []
        if k >= 2:
            for J, g in nxt.items():
                t = g.truncate(k)
                if t:
                    level.append((("xi", J), t))
        top = nxt
        levels.append(level)
        if k <= _KEPT_ORDER:
            chain.top = top
            chain.levels.append(level)
    coeffs = dict(chain.field.coeffs)
    for level in levels:
        coeffs.update(level)
    return ContactField(ctx, chain.field.parity, coeffs)


def lagrange_bracket(f, g):
    """[f, g] with S_{[f,g]} = [S_f, S_g], summed in one term dict; the
    terms signed (-1)^{|f|} are subtracted when f is odd."""
    ctx = f.ambient
    pf = f.parity()
    if pf is None:
        return JetFunction(ctx)
    out = f._mac({}, g.diff_odd(()), False)
    f.diff_odd(())._mac(out, g, pf)
    for i in range(ctx.p):
        f.first_order_total(i)._mac(out, g.diff_odd((i + 1,)), False)
        f.diff_odd((i + 1,))._mac(out, g.first_order_total(i), pf)
    return f._new(out)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_jet(ctx, text):
    """Parse "a(x)*xi + b*xi1*xi2" style jet functions (p = 1 names: x, xi,
    xi1, xi2, ...; p > 1: x1..xp, xi, xi_12...)."""
    return parse_polynomial(
        text, JetFunction.constant(ctx, 1), partial(_jet_coordinate, ctx)
    )


def _jet_coordinate(ctx, nm):
    if ctx.p == 1 and nm == "x":
        return JetFunction.x_power(ctx, 1)
    if ctx.p > 1 and nm[:1] == "x" and nm[1:].isdecimal():
        if 1 <= int(nm[1:]) <= ctx.p:
            return JetFunction.x_power(ctx, 1, i=int(nm[1:]) - 1)
    if nm == "xi":
        return JetFunction.odd_coord(ctx, ())
    # xi_<indices>: one digit in 1..p per differentiation
    digits = "123456789"[: ctx.p]
    if nm.startswith("xi_") and nm[3:] and all(ch in digits for ch in nm[3:]):
        return JetFunction.odd_coord(ctx, sorted(int(ch) for ch in nm[3:]))
    if nm.startswith("xi") and nm[2:].isdigit():
        if ctx.p != 1:
            raise ValueError("xi%s needs p = 1; use xi_... indices" % nm[2:])
        return JetFunction.odd_coord(ctx, (1,) * int(nm[2:]))
    raise ValueError("unknown jet coordinate %r" % nm)


# ---------------------------------------------------------------------------
# odd ODE symmetry solver (p = 1)
# ---------------------------------------------------------------------------

class OdeSpec:
    def __init__(self, order, rhs, poly_degree=4, exponentials=()):
        _check_order(order)
        _check_degree("poly_degree", poly_degree)
        if poly_degree < 0:
            raise ValueError("poly_degree must be >= 0")
        self.ctx = JetContext(1)
        if isinstance(rhs, str):
            rhs = parse_jet(self.ctx, rhs)
        elif not isinstance(rhs, JetFunction):
            raise ValueError(
                "the right-hand side must be a string or a JetFunction, not %r" % (rhs,)
            )
        self.order = order
        self.rhs = rhs
        if rhs and rhs.parity() != ODD:
            raise ValueError("the right-hand side of an odd ODE must be odd")
        if rhs.max_order() > order - 1:
            raise ValueError("right-hand side order exceeds %d" % (order - 1))
        self.poly_degree = poly_degree
        self.exponentials = [_read_rational(l, "exponential") for l in exponentials]


def _linear_constant_coefficients(spec):
    """RHS = sum a_k xi^{(k)} with constant a_k, or None."""
    coeffs = {}
    for (xe, lam, odd), v in spec.rhs.terms.items():
        if any(xe) or lam or len(odd) != 1:
            return None
        coeffs[len(odd[0])] = v
    return coeffs


def _rational_roots(coeffs):
    """Rational roots with multiplicity of a Fraction-coefficient polynomial
    given low-to-high with a nonzero leading coefficient; returns (roots
    dict, fully_factored flag)."""
    shift = next(k for k, c in enumerate(coeffs) if c)
    coeffs = coeffs[shift:]
    roots = {Fraction(0): shift} if shift else {}
    # candidates p/q: p divides the lowest and q the leading coefficient of
    # the polynomial scaled to integers; every quotient's roots are among them
    den = lcm(*(c.denominator for c in coeffs))
    ps = _divisors(int(coeffs[0] * den))
    qs = _divisors(int(coeffs[-1] * den))
    for lam in sorted({Fraction(s * p, q) for p in ps for q in qs for s in (1, -1)}):
        while len(coeffs) > 1:
            quotient, remainder = _divide(coeffs, lam)
            if remainder:
                break
            roots[lam] = roots.get(lam, 0) + 1
            coeffs = quotient
    return roots, len(coeffs) <= 1


def _divisors(n):
    """The positive divisors of n != 0, by trial division up to sqrt|n|."""
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.update((d, n // d))
        d += 1
    return out


def _divide(coeffs, lam):
    """(quotient, remainder) of the division by (t - lam); coeffs
    low-to-high, exact."""
    n = len(coeffs) - 1
    out = [Fraction(0)] * n
    carry = coeffs[n]
    for k in range(n - 1, -1, -1):
        out[k] = carry
        carry = coeffs[k] + lam * carry
    return out, carry


def _span_coefficients(generators):
    """Coefficients over the generating functions, which are independent, so
    the coefficients are unique: a function mapping f to the sparse
    {generator index: Scalar}, or to None when f is outside their span."""
    keypos = {}
    solver = SpanSolver(
        [
            {keypos.setdefault(key, len(keypos)): v for key, v in g.fn.terms.items()}
            for g in generators
        ]
    )

    def coefficients(f):
        if any(key not in keypos for key in f.terms):
            return None
        return solver.solve({keypos[key]: v for key, v in f.terms.items()})

    return coefficients


class SymmetryResult:
    def __init__(self, spec, generators, algebra, bracket_table, bound,
                 warnings):
        self.spec = spec
        self.generators = generators  # list of GeneratingFunction
        self.algebra = algebra
        self.bracket_table = bracket_table
        self.bound = bound  # total superdim of pr(symbol, scalings)
        self.warnings = warnings

    @property
    def superdim(self):
        p = sum(1 for g in self.generators if g.parity == ODD)
        return (p, len(self.generators) - p)

    @property
    def certified_complete(self):
        return self.bound is not None and self.superdim == self.bound

    def to_json(self):
        return {
            "order": self.spec.order,
            "rhs": self.spec.rhs.to_str(),
            "superdim": {"even": self.superdim[0], "odd": self.superdim[1]},
            "generators": [
                {
                    "f": g.to_str(),
                    "field_parity": "even" if g.parity == ODD else "odd",
                    "grading": g.grading,
                }
                for g in self.generators
            ],
            "bracket_table": self.bracket_table,
            "prolongation_bound": None if self.bound is None else {
                "even": self.bound[0], "odd": self.bound[1],
            },
            "certified_complete": self.certified_complete,
            "warnings": self.warnings,
            "algebra": self.algebra.to_json(),
        }


# Adoptions the Lie closure allows when pr(symbol, scalings) does not
# stabilize, so that no bound caps them.
_ADOPTION_LIMIT = 32


@lru_cache(maxsize=None)
def _tanaka_bound(order):
    """Total superdim of pr(odd_ode_symbol(order), scalings), or None when it
    does not stabilize: computed once per order."""
    res = prolong(SymbolAlgebra(odd_ode_symbol(order)),
                  g0=odd_ode_scalings(order), validate_result=False)
    return res.total_superdim if res.status == "stabilized" else None


def determine_symmetries(spec):
    """All contact symmetries of xi^(n) = rhs with generating superfunctions
    in the ansatz span c(x) * {1, xi, xi', xi xi'}.

    The solver finds every symmetry whose coefficients lie in the ansatz
    span; it cannot certify there are no others, but when its dimensions
    reach the Tanaka bound pr(symbol, scalings) the result is complete.
    That bound depends on n alone and is kept per order (``_tanaka_bound``).
    """
    ctx = spec.ctx
    n = spec.order
    warnings = []
    basis_fns = [(k, Fraction(0)) for k in range(spec.poly_degree + 1)]
    lincoeffs = _linear_constant_coefficients(spec)
    if lincoeffs is not None:
        char = [Fraction(0)] * (n + 1)
        char[n] = Fraction(1)
        for k, v in lincoeffs.items():
            if not v.is_rational:
                warnings.append("non-rational coefficient; basis may be incomplete")
                continue
            char[k] -= v.re
        roots, complete = _rational_roots(char)
        if not complete:
            warnings.append(
                "characteristic polynomial has non-rational roots; "
                "basis may be incomplete"
            )
        # generating functions of linear equations involve products of
        # solutions, their duals and e^{-int F_{n-1}}; all of these live on
        # exponents that are {-1,0,1}-combinations of the roots
        wanted = {}
        items = sorted(roots.items())
        if len(items) <= 6:
            combos = [(Fraction(0), 0)]
            for lam, mult in items:
                combos = [
                    (s + eps * lam, m + (mult if eps else 0))
                    for (s, m) in combos
                    for eps in (-1, 0, 1)
                ]
            for s, m in combos:
                wanted[s] = max(wanted.get(s, 0), max(1, m - 1))
        for lam, mult in items:
            wanted[lam] = max(wanted.get(lam, 0), mult)
        for lam, mult in sorted(wanted.items()):
            if lam == 0:
                continue
            for j in range(mult):
                if (j, lam) not in basis_fns:
                    basis_fns.append((j, lam))
    for lam in spec.exponentials:
        if lam and (0, lam) not in basis_fns:
            basis_fns.append((0, lam))
    monomials = {
        EVEN: [(), ((), (1,))],       # 1 and xi*xi'
        ODD: [((),), ((1,),)],         # xi and xi'
    }

    def defect(f):
        """The tangency defect of f's prolonged field on xi^(n) = rhs."""
        S = prolong_field(f, n)
        T = S.coefficient(("xi", (1,) * n)) - S.apply(spec.rhs)
        return T.substitute_odd((1,) * n, spec.rhs)

    generators = []
    for parity in (EVEN, ODD):
        ansatz = []
        for mono in monomials[parity]:
            for (k, lam) in basis_fns:
                f = JetFunction(
                    ctx,
                    {((k,), _exact(lam), tuple(mono)): Scalar(1)},
                )
                ansatz.append(f)
        rows_by_key = {}
        for col, f in enumerate(ansatz):
            for key, v in defect(f).terms.items():
                rows_by_key.setdefault(key, {})[col] = v
        rows = list(rows_by_key.values())
        for vec in kernel_basis_rows(rows, len(ansatz)):
            f = JetFunction(ctx)
            for col, s in vec.items():
                f = f + ansatz[col].scale(s)
            generators.append(GeneratingFunction(f, order=n))

    # the Tanaka bound dim sym <= dim pr(symbol, scalings): it certifies
    # completeness and caps the Lie closure below
    bound = _tanaka_bound(n)

    # Lie closure: a bracket of symmetries is a symmetry; adopt any bracket
    # that escapes the current span (possible when the ansatz basis missed a
    # coefficient function), then scan again from the first pair.  Each
    # unordered pair is bracketed once; the scan that adopts nothing leaves
    # every bracket's coordinates in coords.  Each adoption adds a symmetry
    # independent of the generators, so with a bound at most sum(bound) -
    # len(generators) adoptions fit: one more would contradict the bound.
    # Without a bound the closure stops after _ADOPTION_LIMIT adoptions.
    limit = _ADOPTION_LIMIT if bound is None else sum(bound) - len(generators)
    brackets = {}
    for adoptions in count():
        coefficients = _span_coefficients(generators)
        coords = {}
        for a, b in combinations_with_replacement(range(len(generators)), 2):
            if (a, b) not in brackets:
                brackets[a, b] = lagrange_bracket(generators[a].fn, generators[b].fn)
            vec = coefficients(brackets[a, b])
            if vec is None:
                break
            if vec:
                coords[a, b] = vec
        else:
            break
        adopted = brackets[a, b]
        if defect(adopted):
            raise AssertionError("a bracket of symmetries failed tangency")
        if adoptions >= limit:
            pair = (generators[a].to_str(), generators[b].to_str())
            if bound is None:
                raise AssertionError(
                    "bracket [%s, %s] leaves the closed solution span after "
                    "%d adoptions" % (pair + (adoptions,))
                )
            raise AssertionError(
                "bracket [%s, %s] leaves the closed solution span of %d "
                "symmetries, past the bound dim pr(m, g0) = (%d|%d)"
                % (pair + (len(generators),) + bound)
            )
        generators.append(GeneratingFunction(adopted, order=n))
        warnings.append(
            "closure adopted a bracket outside the ansatz span: %s"
            % adopted.to_str()
        )
    # order: even fields (odd f) first to match the (even|odd) convention
    order = sorted(range(len(generators)), key=lambda i: generators[i].parity != ODD)
    pos = {i: k for k, i in enumerate(order)}
    generators = [generators[i] for i in order]
    # abstract symmetry algebra: element parity is the field parity |f|+1;
    # the generators are independent, so their printed forms are distinct
    graded = all(g.grading is not None for g in generators)
    if not graded:
        warnings.append(
            "some generators have ambiguous weights; algebra left ungraded"
        )
    space = GradedSuperSpace([
        BasisVector(g.to_str(), g.grading if graded else 0, (g.parity + 1) % 2)
        for g in generators
    ])
    # coordinates and table in the sorted order; LieSuperalgebra takes
    # either pair order, and [g_b, g_a] is the super-antisymmetric flip
    algebra = LieSuperalgebra(space, {
        (pos[a], pos[b]): {pos[c]: v for c, v in vec.items()}
        for (a, b), vec in coords.items()
    }, field=FIELD_Q)
    bad = validate_alg(algebra)
    if bad:
        raise AssertionError("symmetry algebra fails validation: %r" % bad[:3])
    table = [[None] * len(generators) for _ in generators]
    for (i, j), br in brackets.items():
        a, b = pos[i], pos[j]
        table[a][b] = br.to_str()
        odd_fields = generators[a].parity == generators[b].parity == EVEN
        table[b][a] = (br if odd_fields else -br).to_str()
    return SymmetryResult(spec, generators, algebra, table, bound, warnings)
