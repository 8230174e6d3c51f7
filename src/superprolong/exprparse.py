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
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    return out


def parse_terms(text):
    """Parse into [(sign, factors)] with factors from tokenize; no
    parenthesized subexpressions (the inputs here never need them)."""
    toks = tokenize(text)
    terms = []
    sign = 1
    cur = []
    started = False

    def flush():
        nonlocal cur, sign, started
        if started:
            terms.append((sign, cur))
        cur = []
        sign = 1
        started = False

    i = 0
    expect_factor = True
    while i < len(toks):
        kind, val = toks[i]
        if kind == "op" and val in "+-":
            if expect_factor:
                if val == "-":
                    sign = -sign
            else:
                flush()
                sign = 1 if val == "+" else -1
                started = False
                expect_factor = True
            i += 1
            continue
        if kind == "op" and val == "*":
            i += 1
            expect_factor = True
            continue
        if kind == "op" and val == "^":
            if not cur or cur[-1][0] != "name":
                raise ValueError("misplaced '^' in %r" % text)
            if i + 1 >= len(toks) or toks[i + 1][0] != "num":
                raise ValueError("'^' needs an integer exponent in %r" % text)
            exp = toks[i + 1][1]
            if exp.denominator != 1:
                raise ValueError("exponent must be an integer in %r" % text)
            cur[-1] = ("name", cur[-1][1], int(exp))
            i += 2
            expect_factor = False
            continue
        if kind == "op":
            raise ValueError("unsupported token %r in %r" % (val, text))
        if kind == "name":
            cur.append(("name", val, 1))
        elif kind == "num":
            cur.append(("num", val))
        else:
            cur.append(("dir", val))
        started = True
        expect_factor = False
        i += 1
    flush()
    return terms
