"""Exact scalar arithmetic over Q and Q(i).

Every quantity in this package is a :class:`Scalar`: a pair (re, im) of
exact rationals.  Each component is a plain ``int`` when it is integral and
a lowest-terms ``Fraction`` only when it is not, so the common integer case
runs on machine-speed ``int`` arithmetic; division always goes through
``Fraction``.  Purely rational values keep ``im == 0`` and can live in
matrices tagged with field ``"Q"``; Gaussian rationals require the field tag
``"Qi"``.  There are no floats anywhere: a ``float`` component is refused.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

FIELD_Q = "Q"
FIELD_QI = "Qi"


def _exact(x):
    """x as an ``int`` when integral, else as a lowest-terms ``Fraction``."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError("cannot coerce %r to Scalar" % (x,))


class Scalar:
    """An element of Q(i), degenerating to Q when the imaginary part is 0."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int else _exact(re)
        self.im = im if type(im) is int else _exact(im)

    # -- predicates ----------------------------------------------------

    @property
    def is_rational(self):
        return not self.im

    def __bool__(self):
        return bool(self.re or self.im)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return as_scalar(other) - self

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        if type(other) is not Scalar:
            if type(other) is int:
                return Scalar(self.re * other, self.im * other)
            other = as_scalar(other)
        if not (self.im or other.im):
            return Scalar(self.re * other.re)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not d:
            if not c:
                raise ZeroDivisionError("division by zero Scalar")
            return Scalar(Fraction(a, c), Fraction(b, c) if b else 0)
        n = c * c + d * d
        return Scalar(Fraction(a * c + b * d, n), Fraction(b * c - a * d, n))

    def __rtruediv__(self, other):
        return as_scalar(other) / self

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if type(other) is Scalar:
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
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


def _fraction(numeral, what):
    """The Fraction of a numeral "p" or "p/q" (p, q digit strings, p
    possibly signed); q = 0 is a ValueError naming what."""
    try:
        return Fraction(numeral)
    except ZeroDivisionError:
        raise ValueError("%s %r has a zero denominator" % (what, numeral)) from None


def parse_scalar(text):
    """Parse "p/q" or "p/q+r/s*i" (integers allowed in place of p/q); a
    zero denominator is a ValueError."""
    m = _SCALAR_RE.match(text)
    if not m:
        raise ValueError("cannot parse scalar %r" % text)
    re_part = _fraction(m.group("re"), "scalar")
    if m.group("im") is None:
        return Scalar(re_part)
    im_part = _fraction(m.group("im"), "scalar")
    if m.group("sign") == "-":
        im_part = -im_part
    return Scalar(re_part, im_part)


def scalar_from_json(x):
    """A JSON coefficient: a "p/q" string (see parse_scalar) or a JSON
    integer; anything else, a float or a boolean included, is a ValueError."""
    if isinstance(x, str):
        return parse_scalar(x)
    if type(x) is int:
        return Scalar(x)
    raise ValueError("coefficient %r is neither a \"p/q\" string nor an integer" % (x,))


def _read_rational(x, what="number"):
    """x as a Fraction: an int, a Fraction or a "p/q" string with q != 0
    (integers allowed in place of p/q); anything else, a float or a boolean
    included, is a ValueError naming what."""
    if type(x) is int or isinstance(x, Fraction):
        return Fraction(x)
    if isinstance(x, str):
        m = _SCALAR_RE.match(x)
        if m and m.group("im") is None:
            return _fraction(m.group("re"), what)
    raise ValueError('%s %r is neither an integer nor a "p/q" string' % (what, x))


I = Scalar(0, 1)


def as_scalar(x):
    """x as a Scalar: a Scalar itself, an int or a Fraction; any other
    value, a float included, is a TypeError."""
    return x if isinstance(x, Scalar) else Scalar(x)
