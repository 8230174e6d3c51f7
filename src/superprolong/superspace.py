"""Graded supervector spaces, the one Koszul sign routine, super-Lambda^k
and the Grassmann-polynomial core.

Sign convention (used verbatim everywhere else in the package): inside a
super exterior power, exchanging two adjacent symbols contributes -1 unless
both symbols are odd, in which case it contributes +1.  Even symbols never
repeat in a monomial; odd symbols may.  :func:`sort_with_sign` is the only
routine that does sign arithmetic on permutations: the Spencer signs s_i and
s_ij are the signs of sorting a slot order, and a product of Grassmann
monomials is the sort of their concatenation with every symbol tagged EVEN
(odd coordinates anticommute like the even symbols of the exterior
convention).

:class:`GrassmannPolynomial` is the one sparse polynomial-superalgebra core:
superfunctions on R^{m|n} and functions on jet superspaces subclass it, it
differentiates along every coordinate, and :func:`parse_polynomial_terms`
is the one loop reading their expressions, :func:`parse_polynomial` the one
summing them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exprparse import parse_terms
from .scalars import Scalar, as_scalar

EVEN = 0
ODD = 1


def parity_from_str(s):
    """The parity named by the int 0 or 1 or the string "even", "odd", "0"
    or "1"; anything else, a boolean or a float included, is a ValueError."""
    if type(s) is int or isinstance(s, str):
        if s in (0, "even", "0"):
            return EVEN
        if s in (1, "odd", "1"):
            return ODD
    raise ValueError("bad parity %r" % (s,))


def parity_to_str(p):
    return "even" if p == EVEN else "odd"


def _check_degree(name, value, low=None, error=ValueError):
    """Refuse a degree-like argument: value must be an int, not a bool, and
    at least low when low is given; the error names the argument."""
    if type(value) is not int or (low is not None and value < low):
        raise error("%s must be an int%s, got %r" % (
            name, "" if low is None else " >= %d" % low, value))


@dataclass(frozen=True)
class BasisVector:
    name: str
    degree: int
    parity: int  # EVEN or ODD


class GradedSuperSpace:
    """An ordered basis of Z-graded, Z2-parity-tagged vectors."""

    def __init__(self, basis):
        self.basis = tuple(basis)
        names = [b.name for b in self.basis]
        if len(set(names)) != len(names):
            raise ValueError("duplicate basis names")
        self._index = {b.name: i for i, b in enumerate(self.basis)}

    def __len__(self):
        return len(self.basis)

    def __iter__(self):
        return iter(self.basis)

    def __getitem__(self, i):
        return self.basis[i]

    def index(self, name):
        return self._index[name]

    def degrees(self):
        return sorted({b.degree for b in self.basis})

    def superdim(self, degree=None):
        """(even, odd) dimension, optionally of a single degree slice."""
        p = q = 0
        for b in self.basis:
            if degree is not None and b.degree != degree:
                continue
            if b.parity == EVEN:
                p += 1
            else:
                q += 1
        return (p, q)

    def indices_of_degree(self, degree):
        return [i for i, b in enumerate(self.basis) if b.degree == degree]

    def __repr__(self):
        dims = ", ".join(
            "%d: (%d|%d)" % (d, *self.superdim(d)) for d in self.degrees()
        )
        return "GradedSuperSpace{%s}" % dims


# ---------------------------------------------------------------------------
# the sign routine
# ---------------------------------------------------------------------------

def sort_with_sign(items, parities, key=None):
    """Sort items ascending under key (default: their own order), returning
    (sorted_tuple, Koszul sign of the rearrangement) under the exterior
    convention: each exchange of two adjacent items contributes -1 unless
    both are odd.  The sign is 0 when an even item repeats (the monomial
    dies).  Insertion sort; inputs here are tiny.
    """
    keys = list(items) if key is None else [key(s) for s in items]
    items = list(items)
    pars = list(parities)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and keys[j - 1] > keys[j]:
            if not (pars[j - 1] == ODD and pars[j] == ODD):
                sign = -sign
            keys[j - 1], keys[j] = keys[j], keys[j - 1]
            items[j - 1], items[j] = items[j], items[j - 1]
            pars[j - 1], pars[j] = pars[j], pars[j - 1]
            j -= 1
    for k in range(1, len(items)):
        if keys[k] == keys[k - 1] and pars[k] == EVEN:
            return tuple(items), 0
    return tuple(items), sign


# ---------------------------------------------------------------------------
# super exterior powers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExteriorBasisMonomial:
    """Canonical monomial in super-Lambda^k: weakly increasing indices,
    strictly increasing on even-parity indices."""

    indices: tuple
    degree: int
    parity: int


def exterior_power_basis(space, k):
    """All canonical k-monomials on the given space; k must be an int >= 0."""
    _check_degree("k", k, 0)
    n = len(space)
    out = []

    def rec(start, chosen):
        if len(chosen) == k:
            deg = sum(space[i].degree for i in chosen)
            par = sum(space[i].parity for i in chosen) % 2
            out.append(ExteriorBasisMonomial(tuple(chosen), deg, par))
            return
        for i in range(start, n):
            nxt = i if space[i].parity == ODD else i + 1
            chosen.append(i)
            rec(nxt, chosen)
            chosen.pop()

    rec(0, [])
    return out


# ---------------------------------------------------------------------------
# Grassmann-polynomial core
# ---------------------------------------------------------------------------

def signed_sum(parts):
    """Join printed terms with '+', except before a term starting with '-'."""
    if not parts:
        return "0"
    return parts[0] + "".join(p if p.startswith("-") else "+" + p for p in parts[1:])


def scaled_name(c, name):
    """The printed product c*name, with the coefficients 1 and -1 folded."""
    if c == "1":
        return name
    if c == "-1":
        return "-" + name
    return "%s*%s" % (c, name)


class GrassmannPolynomial:
    """Sparse element of E (x) Lambda[odd symbols] with E a ring of even
    functions (polynomials, possibly times exponentials).

    terms: {key: nonzero Scalar}; a key is a tuple whose first entry is the
    exponent tuple of the even coordinates and whose last entry is the odd
    monomial, a tuple of symbols strictly increasing under ``symbol_key``.
    The ambient names the factors: ``ambient.direction_name(d)`` with
    d = ("x", i) for an even coordinate and any other tag for the odd symbol
    d[1].  Subclasses say how even parts multiply (``_mul_even``).

    The public constructor coerces its values to ``Scalar`` and drops zeros;
    ``_new`` trusts its dict to hold nonzero ``Scalar`` values already, and
    every operation below builds its result through it.
    """

    __slots__ = ("ambient", "terms")
    symbol_key = None  # sort key of the odd symbols; None: their own order
    term_order = None  # sort key of the printed terms; None: the term keys
    kind = "superfunction"

    def __init__(self, ambient, terms=None):
        self.ambient = ambient
        self.terms = {}
        for key, val in (terms or {}).items():
            val = as_scalar(val)
            if val:
                self.terms[key] = val

    def _new(self, terms):
        out = object.__new__(type(self))
        out.ambient = self.ambient
        out.terms = terms
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def parity(self):
        """EVEN/ODD when homogeneous, None for 0, raises when mixed."""
        pars = {len(key[-1]) % 2 for key in self.terms}
        if not pars:
            return None
        if len(pars) > 1:
            raise ValueError("inhomogeneous %s" % self.kind)
        return pars.pop()

    def __add__(self, other):
        out = dict(self.terms)
        for key, val in other.terms.items():
            s = out.get(key, Scalar(0)) + val
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return self._new(out)

    def __neg__(self):
        return self._new({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        s = as_scalar(s)
        if not s:
            return self._new({})
        return self._new({k: v * s for k, v in self.terms.items()})

    def _mul_even(self, a, b):
        """Even part of the product of the monomials with keys a and b, as the
        key without its odd entry."""
        raise NotImplementedError

    def __mul__(self, other):
        if not isinstance(other, GrassmannPolynomial):
            return self.scale(other)
        return self._new(self._mac({}, other, False))

    def _mac(self, out, other, neg):
        """Add self * other, or -self * other when neg, into the term dict
        out, dropping keys that cancel; return out.  The one product loop."""
        key_of = self.symbol_key
        for ka, va in self.terms.items():
            oa, va = ka[-1], -va if neg else va
            for kb, vb in other.terms.items():
                odd, sign = oa + kb[-1], 1
                if oa and kb[-1]:
                    odd, sign = sort_with_sign(odd, (EVEN,) * len(odd), key_of)
                    if sign == 0:
                        continue
                key = self._mul_even(ka, kb) + (odd,)
                v = va * vb if sign > 0 else -(va * vb)
                s = out.get(key)
                s = v if s is None else s + v
                if s:
                    out[key] = s
                else:
                    del out[key]
        return out

    def diff_x(self, i):
        """Derivative along the even coordinate x^i of the polynomial part:
        lowers the exponent key[0][i]."""
        out = {}
        for key, v in self.terms.items():
            e = key[0][i]
            if e:
                xe = key[0][:i] + (e - 1,) + key[0][i + 1 :]
                out[(xe,) + key[1:]] = v * e
        return self._new(out)

    def diff_odd(self, s):
        """Left derivative with respect to the odd symbol s."""
        out = {}
        for key, v in self.terms.items():
            odd = key[-1]
            if s in odd:
                pos = odd.index(s)
                out[key[:-1] + (odd[:pos] + odd[pos + 1 :],)] = -v if pos % 2 else v
        return self._new(out)

    def _even_factors(self, key):
        name = self.ambient.direction_name
        return [
            name(("x", i)) if e == 1 else "%s^%d" % (name(("x", i)), e)
            for i, e in enumerate(key[0])
            if e
        ]

    def to_str(self):
        name = self.ambient.direction_name
        parts = []
        for key in sorted(self.terms, key=self.term_order):
            factors = self._even_factors(key) + [name(("odd", s)) for s in key[-1]]
            c = self.terms[key].pretty()
            parts.append(scaled_name(c, "*".join(factors)) if factors else c)
        return signed_sum(parts)


def parse_polynomial_terms(text, one, coordinate):
    """The terms of an expression as [(direction name or None, polynomial)].

    one is the unit of the ring and coordinate(name) its coordinate
    function; factors multiply in the order written, so reordered odd names
    carry their sign.  A term may hold at most one direction factor.
    """
    out = []
    for sign, factors in parse_terms(text):
        poly = one.scale(sign)
        direction = None
        for f in factors:
            if f[0] == "num":
                poly = poly.scale(f[1])
            elif f[0] == "name":
                base = coordinate(f[1])
                for _ in range(f[2]):
                    poly = poly * base
            elif direction is not None:
                raise ValueError("two directions in one term: %r" % text)
            else:
                direction = f[1]
        out.append((direction, poly))
    return out


def parse_polynomial(text, one, coordinate):
    """The sum of the terms of an expression without direction factors, read
    as in :func:`parse_polynomial_terms`."""
    out = one.scale(0)
    for direction, poly in parse_polynomial_terms(text, one, coordinate):
        if direction is not None:
            raise ValueError("direction symbol in a %s: %r" % (one.kind, text))
        out = out + poly
    return out
