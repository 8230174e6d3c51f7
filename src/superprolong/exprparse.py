"""Tiny expression grammar shared by the field and jet parsers.

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := NUMBER | NAME ['^' INT] | DIR
    NUMBER := integer or integer/integer (nonzero denominator)
    DIR    := '@' NAME   (also written with a leading 'd_' or a unicode del)

The parser returns a list of signed factor lists; consumers interpret names
and directions.  Factor order within a term is preserved (it matters for odd
symbols).
"""

from __future__ import annotations

import re

from .scalars import _fraction

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)"
    r"|(?P<dir>(?:∂|@|d_)(?P<dirname>[A-Za-z_][A-Za-z0-9_']*))"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<op>[-+*^()])"
    r")"
)


def tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ValueError("cannot tokenize %r at %d" % (text, pos))
        if m.group("num"):
            out.append(("num", _fraction(m.group("num"), "number")))
        elif m.group("dir"):
            out.append(("dir", m.group("dirname")))
        elif m.group("name"):
            out.append(("name", m.group("name")))
        elif m.group("op") in "()":
            raise ValueError("unsupported token %r in %r" % (m.group("op"), text))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    return out


def parse_terms(text):
    """Parse into [(sign, factors)] with factors from tokenize; no
    parenthesized subexpressions (the inputs here never need them).  Text
    outside the grammar is a ValueError naming it: a sign or '*' where a
    factor belongs, two factors with no operator between them, or a second
    '^' on one name.  Blank text has no terms."""
    toks = tokenize(text)
    terms = []
    i = 0
    sign = 1
    if toks and toks[0] in (("op", "+"), ("op", "-")):
        sign = -1 if toks[0][1] == "-" else 1
        i = 1
    while toks:
        factors = []
        while True:
            if i == len(toks):
                raise ValueError("missing factor at the end of %r" % text)
            kind, val = toks[i]
            i += 1
            if kind == "op":
                raise ValueError("missing factor before %r in %r" % (val, text))
            if kind != "name":
                factors.append((kind, val))
            elif toks[i : i + 1] != [("op", "^")]:
                factors.append(("name", val, 1))
            else:
                if i + 1 == len(toks) or toks[i + 1][0] != "num":
                    raise ValueError("'^' needs an integer exponent in %r" % text)
                exp = toks[i + 1][1]
                if exp.denominator != 1:
                    raise ValueError("exponent must be an integer in %r" % text)
                factors.append(("name", val, int(exp)))
                i += 2
            if toks[i : i + 1] != [("op", "*")]:
                break
            i += 1
        terms.append((sign, factors))
        if i == len(toks):
            break
        kind, val = toks[i]
        i += 1
        if kind != "op":
            raise ValueError("missing operator between factors in %r" % text)
        if val == "^":
            raise ValueError("misplaced '^' in %r" % text)
        sign = -1 if val == "-" else 1
    return terms
