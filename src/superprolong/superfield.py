"""Polynomial supervector fields on R^{m|n}: brackets, weak derived flags,
strong-regularity diagnosis and symbol extraction.

Coefficients live in Q[x^1..x^m] (x) Lambda[th^1..th^n] with a cap on the
even polynomial degree.  A superfunction is treated as invertible at the
base point x0 iff its evaluation there after killing nilpotents is nonzero.

Strong regularity is decided locally at x0, from the derived flag's own
frame: it holds iff every flag generator reduces into the frame (no
residuals) and the graded bracket coefficients in that frame are constants.
The frame needs no further independence test.  ``derived_flag`` reduces each
new member against the earlier ones, so as a polynomial it has coefficient
zero in every earlier pivot direction, and its own pivot coefficient is an
even unit at x0.  The evaluation matrix at x0 (members x pivot directions) is
therefore triangular with a nonzero diagonal; full rank is an open condition,
and super Nakayama lifts it to a local frame of a direct factor near x0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .scalars import FIELD_Q, Scalar, _read_rational, as_scalar
from .superspace import (
    EVEN,
    ODD,
    BasisVector,
    GradedSuperSpace,
    GrassmannPolynomial,
    _check_degree,
    parse_polynomial,
    parse_polynomial_terms,
    scaled_name,
    signed_sum,
)
from .liesuper import LieSuperalgebra, SymbolAlgebra, validate as validate_alg
from .linalg import rank_rows


class Ambient:
    """Coordinate chart of R^{m|n}: ordered even and odd coordinate names."""

    def __init__(self, even_names, odd_names, degree_cap=8):
        self.even = list(even_names)
        self.odd = list(odd_names)
        self.m = len(self.even)
        self.n = len(self.odd)
        _check_degree("degree_cap", degree_cap, 0)
        self.degree_cap = degree_cap
        if len(set(self.even) | set(self.odd)) != self.m + self.n:
            raise ValueError("coordinate names must be distinct")

    def directions(self):
        return [("x", i) for i in range(self.m)] + [
            ("th", a) for a in range(self.n)
        ]

    def direction_name(self, d):
        return self.even[d[1]] if d[0] == "x" else self.odd[d[1]]

    def direction_parity(self, d):
        return EVEN if d[0] == "x" else ODD

    def direction(self, name):
        """The direction of the coordinate called name."""
        if name in self.even:
            return ("x", self.even.index(name))
        if name in self.odd:
            return ("th", self.odd.index(name))
        raise ValueError("unknown direction %r" % name)


class DegreeCapError(ValueError):
    pass


class SuperPolynomial(GrassmannPolynomial):
    """Sparse element of Q[x] (x) Lambda[theta].

    terms: {(xexp tuple, theta tuple sorted strictly increasing): Scalar}.
    """

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(ambient, c):
        c = as_scalar(c)
        key = ((0,) * ambient.m, ())
        return SuperPolynomial(ambient, {key: c} if c else {})

    @staticmethod
    def coordinate(ambient, name):
        if name in ambient.even:
            i = ambient.even.index(name)
            exp = tuple(1 if j == i else 0 for j in range(ambient.m))
            return SuperPolynomial(ambient, {(exp, ()): Scalar(1)})
        if name in ambient.odd:
            a = ambient.odd.index(name)
            return SuperPolynomial(ambient, {((0,) * ambient.m, (a,)): Scalar(1)})
        raise ValueError("unknown coordinate %r" % name)

    # -- structure ----------------------------------------------------------

    def _mul_even(self, a, b):
        xe = tuple(p + q for p, q in zip(a[0], b[0]))
        if sum(xe) > self.ambient.degree_cap:
            raise DegreeCapError(
                "even degree cap %d exceeded in a product" % self.ambient.degree_cap
            )
        return (xe,)

    def ev(self, point):
        """Evaluation at (x = point, theta = 0)."""
        total = Scalar(0)
        for (xe, th), v in self.terms.items():
            if th:
                continue
            c = v
            for e, p in zip(xe, point):
                if e:
                    pw = as_scalar(p)
                    for _ in range(e):
                        c = c * pw
            total = total + c
        return total

    def is_constant(self):
        return all(
            not th and not any(xe) for (xe, th) in self.terms
        )

    def constant_value(self):
        return self.terms.get(((0,) * self.ambient.m, ()), Scalar(0))


class PolynomialField:
    """Parity-homogeneous derivation of a Grassmann-polynomial ring: one
    coefficient per direction, ("x", i) for an even coordinate and any other
    tag for the odd symbol d[1].  Subclasses name their coefficient class
    (``polynomial``); results are of the subclass's own type (``_like``)."""

    __slots__ = ("ambient", "parity", "coeffs")
    polynomial = None

    def __init__(self, ambient, parity, coeffs):
        self.ambient = ambient
        self.parity = parity
        self.coeffs = {d: poly for d, poly in coeffs.items() if poly}

    def _like(self, parity, coeffs):
        """A field of this class on the same chart."""
        return type(self)(self.ambient, parity, coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, d):
        return self.coeffs.get(d, self.polynomial(self.ambient))

    def apply(self, f):
        """X(f) for a superfunction f."""
        return f._new(self._apply_into({}, f, False))

    def _apply_into(self, out, f, neg):
        """Add X(f) = sum_d X_d * (d f), or -X(f) when neg, into the term
        dict out; return out."""
        for d, c in self.coeffs.items():
            df = f.diff_x(d[1]) if d[0] == "x" else f.diff_odd(d[1])
            if df:
                c._mac(out, df, neg)
        return out

    def bracket(self, other):
        return bracket_fields(self, other)

    def __add__(self, other):
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            s = out.get(d)
            s = c if s is None else s + c
            if s:
                out[d] = s
            else:
                out.pop(d, None)
        return self._like(self.parity, out)

    def __neg__(self):
        return self._like(self.parity, {d: -c for d, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def _direction_order(self, d):
        """Even directions first, each kind in the order of its symbols."""
        key = self.polynomial.symbol_key
        return (d[0] != "x", d[1] if d[0] == "x" or key is None else key(d[1]))

    def to_str(self):
        parts = []
        for d in sorted(self.coeffs, key=self._direction_order):
            cs = self.coeffs[d].to_str()
            if "+" in cs[1:] or "-" in cs[1:]:
                cs = "(%s)" % cs
            parts.append(scaled_name(cs, "@" + self.ambient.direction_name(d)))
        return signed_sum(parts)


def bracket_fields(X, Y):
    """[X, Y] = XY - (-1)^{|X||Y|} YX as a derivation: its coefficient
    X(Y_d) - (-1)^{|X||Y|} Y(X_d) along each d sums in one term dict."""
    neg = not (X.parity and Y.parity)
    out = {}
    for d in set(X.coeffs) | set(Y.coeffs):
        xd, yd = X.coeffs.get(d), Y.coeffs.get(d)
        terms = {} if yd is None else X._apply_into({}, yd, False)
        if xd is not None:
            Y._apply_into(terms, xd, neg)
        if terms:
            out[d] = (xd or yd)._new(terms)
    return X._like((X.parity + Y.parity) % 2, out)


class SuperVectorField(PolynomialField):
    """Parity-homogeneous derivation of the polynomial superalgebra."""

    __slots__ = ("name",)
    polynomial = SuperPolynomial

    def __init__(self, ambient, parity, coeffs, name=None, check=True):
        super().__init__(ambient, parity, coeffs)
        self.name = name
        if check:
            for d, poly in self.coeffs.items():
                want = (parity + ambient.direction_parity(d)) % 2
                if poly.parity() != want:
                    raise ValueError(
                        "coefficient of %s breaks the declared parity"
                        % ambient.direction_name(d)
                    )

    def _like(self, parity, coeffs):
        return SuperVectorField(self.ambient, parity, coeffs, check=False)

    def scale_fn(self, f):
        """f * X (left module action); parity of f must be homogeneous."""
        fp = f.parity()
        if fp is None:
            return SuperVectorField(self.ambient, self.parity, {}, check=False)
        return SuperVectorField(
            self.ambient,
            (self.parity + fp) % 2,
            {d: f * c for d, c in self.coeffs.items()},
            check=False,
        )

    def ev(self, point):
        """Values at (x = point, theta = 0) per direction."""
        return {d: c.ev(point) for d, c in self.coeffs.items()}

    def to_json(self):
        amb = self.ambient
        coeffs = []
        for d in amb.directions():
            c = self.coeffs.get(d)
            if not c:
                continue
            coeffs.append(
                {
                    "direction": amb.direction_name(d),
                    "monomials": [
                        {
                            "x_exponents": list(xe),
                            "theta_subset": [amb.odd[a] for a in th],
                            "coeff": v.to_str(),
                        }
                        for (xe, th), v in sorted(c.terms.items())
                    ],
                }
            )
        return {
            "parity": "even" if self.parity == EVEN else "odd",
            "coefficients": coeffs,
        }


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _field_parity(ambient, terms, what):
    """The one parity of the field with these coefficients (EVEN for 0)."""
    pars = {(poly.parity() + ambient.direction_parity(d)) % 2
            for d, poly in terms.items() if poly}
    if len(pars) > 1:
        raise ValueError("%s is not parity-homogeneous" % what)
    return pars.pop() if pars else EVEN


def _ring(ambient):
    """The unit and the coordinate function of the superfunctions."""
    return (SuperPolynomial.constant(ambient, 1),
            partial(SuperPolynomial.coordinate, ambient))


def parse_superfunction(ambient, text):
    return parse_polynomial(text, *_ring(ambient))


def parse_field(ambient, text, name=None):
    """Parse "@x + p*@u + q^2*@z" style expressions; the direction marker is
    '@name', 'd_name' or a literal unicode del."""
    terms = {}
    for direction, poly in parse_polynomial_terms(text, *_ring(ambient)):
        if direction is None:
            raise ValueError("term without a direction in %r" % text)
        d = ambient.direction(direction)
        cur = terms.get(d)
        terms[d] = poly if cur is None else cur + poly
    return SuperVectorField(
        ambient, _field_parity(ambient, terms, "field %r" % text), terms, name=name
    )


# ---------------------------------------------------------------------------
# distributions and the weak derived flag
# ---------------------------------------------------------------------------

class DistributionSpec:
    def __init__(self, ambient, generators, basepoint=None):
        self.ambient = ambient
        self.generators = list(generators)
        for g in self.generators:
            if not g:
                raise ValueError("zero generator")
        if not isinstance(basepoint, (list, tuple, type(None))):
            raise ValueError("basepoint must be a list, not %r" % (basepoint,))
        self.basepoint = [
            _read_rational(v, "basepoint coordinate")
            for v in ([0] * ambient.m if basepoint is None else basepoint)
        ]
        if len(self.basepoint) != ambient.m:
            raise ValueError("basepoint needs %d even coordinates" % ambient.m)


class FrameField:
    """A frame member: field, flag level, pivot direction and pivot
    coefficient (an even unit at the base point)."""

    def __init__(self, field, level, pivot_dir, pivot_poly, label):
        self.field = field
        self.level = level
        self.pivot_dir = pivot_dir
        self.pivot_poly = pivot_poly
        self.label = label


class DerivedFlag:
    """``brackets`` maps (X, Y), two frame fields as objects, to [X, Y] for
    each such bracket computed, for ``check_strong_regularity`` to reuse."""

    def __init__(self, frames, residuals, depth, levels_rank, bracket_generating,
                 brackets):
        self.frames = frames          # list of FrameField, frame order
        self.residuals = residuals    # list of (level, field)
        self.depth = depth
        self.levels_rank = levels_rank  # level -> (even, odd) eval rank at x0
        self.bracket_generating = bracket_generating
        self.brackets = brackets


def _is_scalar_multiple(F, G):
    """True when F = lambda * G for a scalar lambda (same direction support)."""
    if set(F.coeffs) != set(G.coeffs):
        return False
    lam = None
    for d, cf in F.coeffs.items():
        cg = G.coeffs[d]
        for key, v in cf.terms.items():
            w = cg.terms.get(key)
            if w is None:
                return False
            ratio = v / w
            if lam is None:
                lam = ratio
            elif ratio != lam:
                return False
        if len(cf.terms) != len(cg.terms):
            return False
    return lam is not None


def _find_pivot(field, point):
    """First direction (canonical order) whose coefficient is a unit at the
    base point."""
    for d in field.ambient.directions():
        c = field.coeffs.get(d)
        if c and c.ev(point):
            return d
    return None


def _expand_in_frame(field, frames):
    """Unique frame expansion over the local ring: returns (coeffs, remainder,
    denominator) with field = (sum_k coeffs[k] * frame[k] + remainder)/den.

    Each frame member in turn clears its pivot direction: a constant pivot
    divides exactly, a non-constant unit pivot eliminates by
    cross-multiplication.  The remainder is what ``derived_flag`` adds."""
    R = field
    den = SuperPolynomial.constant(field.ambient, 1)
    coeffs = [SuperPolynomial(field.ambient) for _ in frames]
    for k, fr in enumerate(frames):
        c = R.coeffs.get(fr.pivot_dir)
        if not c:
            continue
        p = fr.pivot_poly
        if p.is_constant():
            lam = c.scale(Scalar(1) / p.constant_value())
            coeffs[k] = coeffs[k] + lam * den
            R = R - fr.field.scale_fn(lam)
        else:
            for j in range(len(coeffs)):
                coeffs[j] = p * coeffs[j]
            coeffs[k] = coeffs[k] + c
            den = den * p
            R = R.scale_fn(p) - fr.field.scale_fn(c)
    return coeffs, R, den


def _bracket(table, X, Y):
    """[X, Y] through table, keyed by the field objects: the stored [X, Y],
    the flip of a stored [Y, X], exact since [X, Y] = -(-1)^{|X||Y|} [Y, X]
    term by term, or bracket_fields(X, Y), which is stored."""
    if (X, Y) not in table:
        if (Y, X) in table:
            return table[Y, X] if X.parity and Y.parity else -table[Y, X]
        table[X, Y] = bracket_fields(X, Y)
    return table[X, Y]


def derived_flag(dist):
    """Weak derived flag D = D^1 in D^2 in ... up to depth m + n + 1; per
    level a reduced generating set (frame members with unit pivots plus
    non-framable residual generators).  Each bracket is computed once
    (``_bracket``); those of two frame fields are kept as ``brackets``."""
    amb = dist.ambient
    point = dist.basepoint
    frames = []
    residuals = []
    table = {}

    def try_add(field, level, label):
        R = _expand_in_frame(field, frames)[1]
        if not R:
            return False
        piv = _find_pivot(R, point)
        if piv is None:
            for _, old in residuals:
                if _is_scalar_multiple(R, old):
                    return False
            residuals.append((level, R))
            return True
        frames.append(FrameField(R, level, piv, R.coeffs[piv], label))
        return True

    for g in dist.generators:
        try_add(g, 1, g.name or ("gen%d" % (len(frames) + 1)))
    level = 1
    levels_rank = {1: _eval_rank(frames, residuals, 1, point)}
    while level < amb.m + amb.n + 1:
        new = False
        current = [(f.field, f.label) for f in frames if f.level == level]
        current += [(r, "res") for lv, r in residuals if lv == level]
        for g in dist.generators:
            for h, hl in current:
                br = _bracket(table, g, h)
                if br:
                    lbl = "[%s,%s]" % (g.name or "?", hl)
                    if try_add(br, level + 1, lbl):
                        new = True
        if not new:
            break
        level += 1
        levels_rank[level] = _eval_rank(frames, residuals, level, point)
    bracket_generating = levels_rank[level] == (amb.m, amb.n)
    framed = {f.field for f in frames}
    return DerivedFlag(frames, residuals, level, levels_rank, bracket_generating,
                       {k: v for k, v in table.items() if framed.issuperset(k)})


def _eval_rank(frames, residuals, level, point):
    """Evaluation rank at the base point of the level-<=level generators,
    split by parity."""
    ev_rows = {EVEN: [], ODD: []}
    fields = [f.field for f in frames if f.level <= level]
    fields += [r for lv, r in residuals if lv <= level]
    for f in fields:
        vals = f.ev(point)
        row = {}
        for k, d in enumerate(f.ambient.directions()):
            v = vals.get(d)
            if v:
                row[k] = v
        ev_rows[f.parity].append(row)
    return rank_rows(ev_rows[EVEN]), rank_rows(ev_rows[ODD])


# ---------------------------------------------------------------------------
# strong regularity and the symbol
# ---------------------------------------------------------------------------

def check_strong_regularity(flag, seed=None):
    """Strong regularity of the flag's distribution near the base point x0.

    PASS iff the flag has no residuals (every generator reduces into the
    adapted frame) and the graded bracket coefficients in that frame are
    constants.  The verdict is local at x0: the frame of ``derived_flag`` is
    independent there by construction (see the module docstring), so no
    other point is examined.  ``seed`` is accepted for old callers and
    ignored.  Brackets are read from, and added to, ``flag.brackets``.

    Returns {"ok", "witnesses", "constants"}; constants maps
    (level_i_index, level_j_index) -> {frame_index: Scalar} on PASS.
    """
    report = {"ok": True, "witnesses": [], "constants": {}}
    if flag.residuals:
        report["ok"] = False
        for lv, r in flag.residuals:
            report["witnesses"].append(
                "level %d generator with no invertible coefficient: %s"
                % (lv, r.to_str())
            )
        return report
    # the graded bracket coefficients must be constants
    for a, fa in enumerate(flag.frames):
        for b, fb in enumerate(flag.frames):
            if b < a:
                continue
            lv = fa.level + fb.level
            br = _bracket(flag.brackets, fa.field, fb.field)
            if not br and lv > flag.depth:
                continue
            coeffs, R, den = _expand_in_frame(br, flag.frames)
            if R:
                report["ok"] = False
                report["witnesses"].append(
                    "bracket [%s,%s] leaves the frame span: %s"
                    % (fa.label, fb.label, R.to_str())
                )
                continue
            for k, fr in enumerate(flag.frames):
                c = coeffs[k]
                if fr.level < lv or not c:
                    continue
                if fr.level > lv:
                    report["ok"] = False
                    report["witnesses"].append(
                        "bracket [%s,%s] escapes level %d (hits %s)"
                        % (fa.label, fb.label, lv, fr.label)
                    )
                    continue
                # c/den must be a constant scalar
                lam = _constant_ratio(c, den)
                if lam is None:
                    report["ok"] = False
                    report["witnesses"].append(
                        "non-constant graded coefficient of %s in [%s,%s]: (%s)/(%s)"
                        % (fr.label, fa.label, fb.label, c.to_str(), den.to_str())
                    )
                else:
                    report["constants"].setdefault((a, b), {})[k] = lam
    return report


def _constant_ratio(c, den):
    """lambda with c == lambda * den, or None."""
    lam = None
    dv = den.constant_value()
    cv = c.constant_value()
    if dv:
        lam = cv / dv
    else:
        return None
    if c - den.scale(lam):
        return None
    return lam


def extract_symbol(flag, regularity=None, seed=None):
    """SymbolAlgebra of a strongly regular flag; structure constants are the
    constant graded bracket coefficients in the adapted frame.  ``seed`` is
    accepted for old callers and ignored."""
    if regularity is None:
        regularity = check_strong_regularity(flag)
    if not regularity["ok"]:
        raise ValueError(
            "distribution is not strongly regular: %s"
            % "; ".join(regularity["witnesses"][:3])
        )
    frames = flag.frames
    basis = []
    names = set()
    for k, fr in enumerate(frames):
        nm = fr.label
        while nm in names:
            nm += "'"
        names.add(nm)
        basis.append(BasisVector(nm, -fr.level, fr.field.parity))
    space = GradedSuperSpace(basis)
    brackets = {}
    for (a, b), coeffs in regularity["constants"].items():
        vec = {k: lam for k, lam in coeffs.items() if lam}
        if vec:
            brackets[(a, b)] = vec
    alg = LieSuperalgebra(space, brackets, field=FIELD_Q)
    bad = validate_alg(alg)
    if bad:
        raise ValueError("extracted symbol fails validation: %r" % bad[:3])
    return SymbolAlgebra(alg)


# ---------------------------------------------------------------------------
# left-invariant model of a nilpotent symbol
# ---------------------------------------------------------------------------

def _bernoulli_plus(k):
    """Bernoulli numbers with B_1 = +1/2 (series x/(1 - e^{-x}))."""
    B = [Fraction(0)] * (k + 1)
    B[0] = Fraction(1)
    from math import comb

    for m in range(1, k + 1):
        s = Fraction(0)
        for j in range(m):
            s += comb(m + 1, j) * B[j]
        B[m] = -s / (m + 1)
    if k >= 1:
        B[1] = Fraction(1, 2)
    return B


def left_invariant_fields(m):
    """Left-invariant vector fields on exp(m) in exponential coordinates of
    the first kind: X_y = sum_k B+_k/k! (ad_a)^k y with a the tautological
    m-valued coordinate function.  Returns (ambient, fields_by_basis_index).
    """
    if not isinstance(m, SymbolAlgebra):
        m = SymbolAlgebra(m)
    space = m.space
    even_names = [b.name for b in space if b.parity == EVEN]
    odd_names = [b.name for b in space if b.parity == ODD]
    amb = Ambient(even_names, odd_names, degree_cap=max(8, m.mu + 2))
    coord_poly = {}
    direction_of = {}
    for i, b in enumerate(space):
        coord_poly[i] = SuperPolynomial.coordinate(amb, b.name)
        if b.parity == EVEN:
            direction_of[i] = ("x", even_names.index(b.name))
        else:
            direction_of[i] = ("th", odd_names.index(b.name))
    Bp = _bernoulli_plus(m.mu)
    from math import factorial

    fields = []
    for y in range(len(space)):
        # v_k = (ad_a)^k y as {basis_index: SuperPolynomial}
        vec = {y: SuperPolynomial.constant(amb, 1)}
        total = {y: SuperPolynomial.constant(amb, Bp[0])}
        for k in range(1, m.mu):
            nxt = {}
            for c, poly in vec.items():
                for i, b in enumerate(space):
                    res = m.bracket_indices(i, c)
                    if not res:
                        continue
                    # [coord_i (x) e_i, poly (x) e_c] =
                    #   (-1)^{|e_i| |poly|} coord_i * poly (x) [e_i, e_c]
                    pp = poly.parity()
                    sgn = -1 if (space[i].parity and pp) else 1
                    contrib = coord_poly[i] * poly
                    if sgn < 0:
                        contrib = contrib.scale(-1)
                    for tgt, s in res.items():
                        cur = nxt.get(tgt)
                        add = contrib.scale(s)
                        nxt[tgt] = add if cur is None else cur + add
            vec = {cidx: p for cidx, p in nxt.items() if p}
            if not vec:
                break
            coeff = Scalar(Fraction(Bp[k], factorial(k)))
            for cidx, p in vec.items():
                cur = total.get(cidx)
                add = p.scale(coeff)
                total[cidx] = add if cur is None else cur + add
        coeffs = {}
        for cidx, poly in total.items():
            if poly:
                coeffs[direction_of[cidx]] = poly
        fields.append(
            SuperVectorField(
                amb, space[y].parity, coeffs, name=space[y].name
            )
        )
    return amb, fields


def left_invariant_distribution(m):
    """DistributionSpec generated by the left-invariant fields of g_{-1}."""
    amb, fields = left_invariant_fields(m)
    gens = [
        fields[i]
        for i in range(len(m.space))
        if m.space[i].degree == -1
    ]
    return DistributionSpec(amb, gens)


def symbols_isomorphic_on_the_nose(s1, s2):
    """Positional comparison: same per-(degree,parity) dimensions and
    identical structure constants under the order-preserving basis match
    within each degree."""
    if len(s1.space) != len(s2.space):
        return False
    perm = {}
    used = set()
    for i, b in enumerate(s1.space):
        found = None
        for j, c in enumerate(s2.space):
            if j in used:
                continue
            if c.degree == b.degree and c.parity == b.parity:
                found = j
                break
        if found is None:
            return False
        perm[i] = found
        used.add(found)
    for x in range(len(s1.space)):
        for y in range(len(s1.space)):
            v1 = s1.bracket_indices(x, y)
            v2 = s2.bracket_indices(perm[x], perm[y])
            if {perm[c]: s for c, s in v1.items()} != v2:
                return False
    return True
