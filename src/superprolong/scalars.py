"""Exact scalar arithmetic over Q and Q(i).

Every quantity in this package is a :class:`Scalar`: a pair of
arbitrary-precision rationals (re, im).  Purely rational values keep
``im == 0`` and can live in matrices tagged with field ``"Q"``; Gaussian
rationals require the field tag ``"Qi"``.  There is no floating point
anywhere.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

FIELD_Q = "Q"
FIELD_QI = "Qi"


class Scalar:
    """An element of Q(i), degenerating to Q when the imaginary part is 0."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- predicates ----------------------------------------------------

    @property
    def is_rational(self):
        return self.im == 0

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if self.im == 0 and other.im == 0:
            return Scalar(self.re * other.re)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if not other:
            raise ZeroDivisionError("division by zero Scalar")
        if other.im == 0:
            return Scalar(self.re / other.re, self.im / other.re)
        n = other.re * other.re + other.im * other.im
        return Scalar(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return _coerce(other) / self

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    # -- serialization ---------------------------------------------------

    def __repr__(self):
        return "Scalar(%s)" % self.to_str()

    def to_str(self):
        """Canonical string form: "p/q" or "p/q+r/s*i" (sign folded into r)."""
        s = "%d/%d" % (self.re.numerator, self.re.denominator)
        if self.im == 0:
            return s
        sign = "+" if self.im > 0 else "-"
        im = abs(self.im)
        return "%s%s%d/%d*i" % (s, sign, im.numerator, im.denominator)

    def pretty(self):
        """Human-oriented form used in aligned tables."""
        def frac(f):
            if f.denominator == 1:
                return str(f.numerator)
            return "%d/%d" % (f.numerator, f.denominator)

        if self.im == 0:
            return frac(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return frac(self.im) + "*i"
        sign = "+" if self.im > 0 else "-"
        return "%s%s%s*i" % (frac(self.re), sign, frac(abs(self.im)))


_SCALAR_RE = _re.compile(
    r"^\s*(?P<re>[+-]?\d+(?:/\d+)?)"
    r"(?:(?P<sign>[+-])(?P<im>\d+(?:/\d+)?)\*i)?\s*$"
)


def parse_scalar(text):
    """Parse "p/q" or "p/q+r/s*i" (integers allowed in place of p/q)."""
    m = _SCALAR_RE.match(text)
    if not m:
        raise ValueError("cannot parse scalar %r" % text)
    re_part = Fraction(m.group("re"))
    if m.group("im") is None:
        return Scalar(re_part)
    im_part = Fraction(m.group("im"))
    if m.group("sign") == "-":
        im_part = -im_part
    return Scalar(re_part, im_part)


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    raise TypeError("cannot coerce %r to Scalar" % (x,))


I = Scalar(0, 1)


def as_scalar(x):
    """Public coercion helper (ints, Fractions, Scalars)."""
    return _coerce(x)
