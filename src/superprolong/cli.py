"""Command-line surface: prolongation, cohomology tables, regularity
diagnosis, symbol extraction and odd-ODE symmetry reports.

Exit codes: 0 success, 2 input error, 3 prolongation not stabilized,
4 regularity failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from . import catalog
from .liesuper import LieSuperalgebra, SymbolAlgebra, validate
from .prolong import ProlongationError, prolong, projective_trace_reduction
from .scalars import FIELD_Q, FIELD_QI, _read_rational, scalar_from_json
from .spencer import cohomology_dims
from .superspace import BasisVector, GradedSuperSpace, parity_from_str
from .superfield import (
    Ambient, DegreeCapError, DistributionSpec, SuperPolynomial, SuperVectorField,
    _field_parity, check_strong_regularity, derived_flag, extract_symbol, parse_field,
)
from .oddode import JetContext, OdeSpec, determine_symmetries, parse_jet

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_STABILIZED = 3
EXIT_NOT_REGULAR = 4


class InputError(Exception):
    pass


def _read_input(path, build):
    """build(data) for the JSON object in the file at path.  A file that
    cannot be read, malformed JSON, a top-level value that is not an object,
    and a KeyError, TypeError, AttributeError or ValueError of build are an
    InputError naming the file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("expected a JSON object, got %s" % type(data).__name__)
        return build(data)
    except OSError as e:  # the message names the file
        raise InputError(str(e))
    except KeyError as e:
        raise InputError("%s: unknown or missing name %s" % (path, e))
    except (TypeError, AttributeError, ValueError) as e:
        # ValueError includes json.JSONDecodeError
        raise InputError("%s: %s" % (path, e))


# -- one checked reader per JSON input format (docs/formats.md) -------------

_MISSING = object()
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", type(None): "null"}


def _check(value, path, kind):
    """value as kind: a JSON type (no boolean is an int), a tuple of them, or
    a leaf reader that turns the value into an object or raises ValueError.
    A value of another type and a leaf ValueError raise one ValueError that
    starts with path, e.g. ``brackets[2].result[0].basis: ...``."""
    try:
        if not isinstance(kind, (type, tuple)):
            return kind(value)
        kinds = kind if isinstance(kind, tuple) else (kind,)
        if type(value) not in kinds:
            raise ValueError("expected %s, got %s" % (
                " or ".join(_JSON_TYPES[k] for k in kinds), json.dumps(value)))
        return value
    except ValueError as e:
        raise ValueError("%s: %s" % (path, e)) from None


def _read(obj, key, path, kind, default=_MISSING):
    """obj[key] checked as kind, where path names the JSON object obj; a
    missing key without a default is a ValueError naming its path."""
    path = "%s.%s" % (path, key) if path else key
    if key not in obj:
        if default is _MISSING:
            raise ValueError("%s: missing" % path)
        return default
    return _check(obj[key], path, kind)


def _each(obj, key, path, kind, default=_MISSING):
    """[(path, item)] of the JSON array obj[key], each item checked as kind."""
    items = _read(obj, key, path, list, default)
    path = "%s.%s" % (path, key) if path else key
    paths = ["%s[%d]" % (path, i) for i in range(len(items))]
    return [(q, _check(item, q, kind)) for q, item in zip(paths, items)]


def _one_of(names, what):
    """A leaf reader: one of the strings names, as its index."""
    index = {name: i for i, name in enumerate(names)}
    def read(value):
        if type(value) is not str or value not in index:
            raise ValueError("unknown %s %r" % (what, value))
        return index[value]
    return read


def _distinct(named, what):
    """A ValueError at the path of the first of the (path, name) pairs whose
    name repeats an earlier one."""
    seen = set()
    for path, name in named:
        if name in seen:
            raise ValueError("%s: duplicate %s %r" % (path, what, name))
        seen.add(name)


def read_algebra(data):
    """A LieSuperalgebra from algebra JSON."""
    field = _read(data, "field", "", str, FIELD_Q)
    if field not in (FIELD_Q, FIELD_QI):
        raise ValueError('field: expected "Q" or "Qi", got %s' % json.dumps(field))
    basis = [(p, BasisVector(_read(b, "name", p, str), _read(b, "degree", p, int),
                             _read(b, "parity", p, parity_from_str)))
             for p, b in _each(data, "basis", "", dict)]
    _distinct([(p + ".name", v.name) for p, v in basis], "basis name")
    space = GradedSuperSpace([v for _, v in basis])
    index = _one_of([b.name for b in space], "basis vector")
    brackets = {}
    for p, entry in _each(data, "brackets", "", dict, []):
        a, b = _read(entry, "left", p, index), _read(entry, "right", p, index)
        if (a, b) in brackets:
            raise ValueError("%s: bracket [%s, %s] listed twice"
                             % (p, space[a].name, space[b].name))
        vec = brackets[(a, b)] = {}
        for q, term in _each(entry, "result", p, dict):
            c = _read(term, "basis", q, index)
            if c in vec:
                raise ValueError("%s.basis: %s named twice" % (q, space[c].name))
            vec[c] = _read(term, "coeff", q, scalar_from_json)
            if field == FIELD_Q and not vec[c].is_rational:
                raise ValueError('%s.coeff: Gaussian coefficient %s under field "Q"'
                                 % (q, term["coeff"]))
    return LieSuperalgebra(space, brackets, field=field)


def _read_field(amb, entry, path):
    """A coefficient-table generator; each theta_subset is an ordered product
    of odd coordinates, so its order carries the sign and a repeat gives 0."""

    def exponents(xe):
        if not (type(xe) is list and len(xe) == amb.m
                and all(type(e) is int and e >= 0 for e in xe)):
            raise ValueError("need one nonnegative integer per even coordinate "
                             "(%d), got %s" % (amb.m, json.dumps(xe)))
        if sum(xe) > amb.degree_cap:
            raise ValueError("even degree %d exceeds degree_cap %d"
                             % (sum(xe), amb.degree_cap))
        return tuple(xe)

    terms, zero, odd = {}, SuperPolynomial(amb), _one_of(amb.odd, "odd coordinate")
    for p, coeff in _each(entry, "coefficients", path, dict):
        d = _read(coeff, "direction", p, amb.direction)
        for q, mono in _each(coeff, "monomials", p, dict):
            xe = _read(mono, "x_exponents", q, exponents, (0,) * amb.m)
            c = _read(mono, "coeff", q, scalar_from_json)
            term = SuperPolynomial(amb, {(xe, ()): c})
            for _, a in _each(mono, "theta_subset", q, odd, []):
                term = term * SuperPolynomial.coordinate(amb, amb.odd[a])
            terms[d] = terms.get(d, zero) + term
    parity = _read(entry, "parity", path, parity_from_str, None)
    name = _read(entry, "name", path, (str, type(None)), None)
    return _check(terms, path, lambda terms: SuperVectorField(
        amb, _field_parity(amb, terms, "the field") if parity is None else parity,
        terms, name=name))


def read_distribution(data):
    """A DistributionSpec from distribution JSON."""
    ambient = _read(data, "ambient", "", dict)
    even, odd = (_each(ambient, side, "ambient", str) for side in ("even", "odd"))
    _distinct(even + odd, "coordinate name")
    amb = Ambient([x for _, x in even], [x for _, x in odd],
                  degree_cap=_read(data, "degree_cap", "", int, 8))
    gens = []
    for p, entry in _each(data, "generators", "", (str, dict)):
        if type(entry) is str:
            gen = _check(entry, p, partial(parse_field, amb))
        elif "expr" in entry:
            gen = _check(_read(entry, "expr", p, str), p + ".expr", partial(
                parse_field, amb, name=_read(entry, "name", p, (str, type(None)), None)))
        else:
            gen = _read_field(amb, entry, p)
        if not gen:
            raise ValueError("%s: zero generator" % p)
        gens.append(gen)
    if not gens:
        raise ValueError("generators: must not be empty")
    basepoint = None  # a missing base point is the origin
    if "basepoint" in data:
        basepoint = [v for _, v in _each(data, "basepoint", "", _read_rational)]
    return _check(basepoint, "basepoint", partial(DistributionSpec, amb, gens))


def read_ode(data):
    """An OdeSpec from ODE JSON."""
    basis = _read(data, "basis", "", dict, {})
    return OdeSpec(
        _read(data, "order", "", int),
        _check(_read(data, "rhs", "", str), "rhs", partial(parse_jet, JetContext(1))),
        poly_degree=_read(basis, "poly_degree", "basis", int, 4),
        exponentials=[x for _, x in _each(basis, "exponentials", "basis", _read_rational, [])],
    )


def _load_algebra(args):
    if args.name is not None:
        try:
            return catalog.build_named(args.name)
        except ValueError as e:
            raise InputError(str(e))
    alg = _read_input(args.input, read_algebra)
    bad = validate(alg)
    if bad:
        first = bad[0]
        raise InputError(
            "%s: input algebra fails validation: %s at (%s): %s"
            % (args.input, first["kind"], ", ".join(first["where"]), first["detail"])
        )
    return alg


def _g0_for(args, m):
    if not args.g0:
        return None
    if args.g0 == "scalings":
        order = m.mu
        return catalog.odd_ode_scalings(order)
    try:
        alg = catalog.build_named(args.g0)
    except ValueError as e:
        raise InputError(str(e))
    if alg.rep is None:
        raise InputError("--g0 algebra has no matrix realization")
    if sum(alg.rep_shape) != len(m.space):
        raise InputError(
            "--g0 %r acts on dimension %d, but m has dimension %d"
            % (args.g0, sum(alg.rep_shape), len(m.space))
        )
    return [(alg.space[k].parity, alg.rep[k]) for k in range(len(alg.space))]


def _reductions_for(args):
    out = []
    for spec in args.reduce or []:
        try:
            degree, kind = spec.split(":", 1)
            degree = int(degree)
        except ValueError:
            raise InputError("bad --reduce %r (expected DEGREE:NAME)" % spec)
        if kind == "projective_trace":
            if degree != 1:
                raise InputError("projective_trace reduction lives at degree 1")
            out.append((1, projective_trace_reduction))
        elif kind == "zero":
            out.append((degree, lambda engine: []))
        else:
            raise InputError("unknown reduction %r" % kind)
    return out


def _fmt_dims(d):
    return "(%d|%d)" % d


def cmd_prolong(args):
    alg = _load_algebra(args)
    source = args.input if args.name is None else repr(args.name)
    degs = alg.space.degrees()
    if degs == [0] and alg.rep is not None:
        # a matrix structure algebra: prolong the flat G-structure it cuts
        # out, i.e. m = R^{p|q} abelian with g0 = the algebra itself
        p, q = alg.rep_shape
        m = SymbolAlgebra(catalog.abelian(p, q))
        g0 = [(alg.space[k].parity, alg.rep[k]) for k in range(len(alg.space))]
        if args.g0:
            raise InputError("--g0 conflicts with a degree-0 structure algebra")
    else:
        try:
            m = SymbolAlgebra(alg)
        except ValueError as e:
            raise InputError(
                "%s: %s, got degrees %s"
                % (source, e, ", ".join(map(str, degs)) or "none")
            )
        g0 = _g0_for(args, m)
    try:
        res = prolong(
            m,
            g0=g0,
            reductions=_reductions_for(args),
            max_degree=args.max_degree,
        )
    except ProlongationError as e:
        raise InputError("%s: %s" % (source, e))
    if args.format == "json":
        print(json.dumps(res.to_json(include_algebra=args.constants), indent=2))
    else:
        print("degree   dim")
        for k, d in sorted(res.per_degree().items()):
            print("%6d   %s" % (k, _fmt_dims(d)))
        print("total    %s" % _fmt_dims(res.total_superdim))
        print("status   %s" % res.status)
        if res.status == "stabilized":
            print(
                "symmetry superalgebra dimension <= %s in the strong sense"
                % _fmt_dims(res.total_superdim)
            )
        else:
            print("not stabilized by max_degree %d" % res.max_degree)
    return EXIT_OK if res.status == "stabilized" else EXIT_NOT_STABILIZED


def _parse_drange(text):
    try:
        if ".." in text:
            lo, hi = text.split("..")
            degrees = range(int(lo), int(hi) + 1)
        else:
            degrees = [int(text)]
    except ValueError:
        raise InputError("--d expects a degree or a range lo..hi, got %r" % text)
    if not degrees:
        raise InputError("--d range %s is empty" % text)
    return degrees


def cmd_cohomology(args):
    if args.k < 0:
        raise InputError("--k must be >= 0, got %d" % args.k)
    alg = _load_algebra(args)
    rows = []
    for d in _parse_drange(args.d):
        dims = cohomology_dims(d, args.k, alg)
        rows.append({"d": d, "k": args.k, "dim_even": dims[0], "dim_odd": dims[1]})
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        print(" d  k   H^{d,k}")
        for r in rows:
            print(
                "%2d %2d   (%d|%d)" % (r["d"], r["k"], r["dim_even"], r["dim_odd"])
            )
    return EXIT_OK


def cmd_symbol(args):
    dist = _read_input(args.input, read_distribution)
    try:
        flag = derived_flag(dist)
        rep = check_strong_regularity(flag)
    except DegreeCapError as e:
        raise InputError("%s: %s; raise degree_cap" % (args.input, e))
    if args.format == "json":
        out = {
            "regular": rep["ok"],
            "witnesses": rep["witnesses"],
            "depth": flag.depth,
            "bracket_generating": flag.bracket_generating,
            "ranks": {str(k): list(v) for k, v in flag.levels_rank.items()},
        }
        if rep["ok"]:
            sym = extract_symbol(flag, rep)
            out["symbol"] = sym.to_json()
        print(json.dumps(out, indent=2))
    else:
        print("levels: %s" % " < ".join(
            _fmt_dims(flag.levels_rank[k]) for k in sorted(flag.levels_rank)
        ))
        if rep["ok"]:
            print("strongly regular: PASS")
            if not args.check_only:
                sym = extract_symbol(flag, rep)
                print("symbol dims:", end=" ")
                print(
                    ", ".join(
                        _fmt_dims(sym.space.superdim(d))
                        for d in sorted(sym.space.degrees(), reverse=True)
                    )
                )
        else:
            print("strongly regular: FAIL")
            for w in rep["witnesses"]:
                print("  witness: %s" % w)
    return EXIT_OK if rep["ok"] else EXIT_NOT_REGULAR


def cmd_odesym(args):
    given = [
        flag
        for flag, value in (
            ("--order", args.order),
            ("--rhs", args.rhs),
            ("--poly-degree", args.poly_degree),
            ("--exp", args.exp),
        )
        if value is not None
    ]
    if args.input:
        if given:
            raise InputError("--input excludes %s" % ", ".join(given))
        spec = _read_input(args.input, read_ode)
    else:
        if args.order is None or args.rhs is None:
            raise InputError("need --order and --rhs (or --input)")
        try:
            spec = OdeSpec(
                args.order,
                args.rhs,
                poly_degree=4 if args.poly_degree is None else args.poly_degree,
                exponentials=args.exp or [],
            )
        except ValueError as e:
            raise InputError(str(e))
    res = determine_symmetries(spec)
    if args.format == "json":
        print(json.dumps(res.to_json(), indent=2))
    else:
        print("xi^(%d) = %s" % (spec.order, spec.rhs.to_str()))
        print("symmetry superdimension: %s" % _fmt_dims(res.superdim))
        print("generators (grading | f):")
        for g in res.generators:
            gr = "%+d" % g.grading if g.grading is not None else " ?"
            print("  %s | %s" % (gr, g.to_str()))
        print("bracket table:")
        width = max(len(s) for row in res.bracket_table for s in row)
        for row in res.bracket_table:
            print("  " + "  ".join(s.rjust(width) for s in row))
        print(
            "prolongation bound: %s%s"
            % (
                _fmt_dims(res.bound) if res.bound else "n/a",
                "  (completeness certified)" if res.certified_complete else "",
            )
        )
        for w in res.warnings:
            print("note: %s" % w)
    return EXIT_OK


def cmd_paper_suite(args):
    from .papersuite import run_suite

    ok = run_suite(verbose=True)
    return EXIT_OK if ok else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="superprolong",
        description="Exact prolongation, Spencer cohomology and symmetry "
        "computations for graded Lie superalgebras and superdistributions.",
    )
    ap.add_argument("--paper-suite", action="store_true",
                    help="run the whole regression battery and diff against "
                    "the checked-in expected results")
    sub = ap.add_subparsers(dest="command")

    def format_option(p):
        p.add_argument("--format", choices=["json", "table"], default="table")

    def algebra_options(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--name", help="catalog name, e.g. shc_symbol, pe:2")
        source.add_argument("--input", help="algebra JSON file")
        format_option(p)

    p = sub.add_parser("prolong", help="Tanaka-Weisfeiler prolongation")
    algebra_options(p)
    p.add_argument("--g0", help="catalog name of the reduced g0, or 'scalings'")
    p.add_argument("--reduce", action="append",
                   help="higher-order reduction DEGREE:NAME "
                   "(names: projective_trace, zero)")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--constants", action="store_true",
                   help="include structure constants in JSON output")
    p.set_defaults(func=cmd_prolong)

    p = sub.add_parser("cohomology", help="Spencer cohomology dimensions")
    algebra_options(p)
    p.add_argument("--d", required=True, help="degree or range lo..hi")
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_cohomology)

    for command, help_text, check_only in (
        ("symbol", "extract the symbol of a distribution", False),
        ("check-regular", "strong regularity diagnosis at the base point", True),
    ):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--input", required=True, help="distribution JSON file")
        format_option(p)
        p.set_defaults(func=cmd_symbol, check_only=check_only)

    p = sub.add_parser("odesym", help="contact symmetries of an odd ODE")
    p.add_argument("--input", help="ODE JSON file (instead of --order/--rhs)")
    format_option(p)
    p.add_argument("--order", type=int)
    p.add_argument("--rhs", help="e.g. 'xi2' for xi''' = xi''")
    p.add_argument("--poly-degree", type=int,
                   help="degree of the polynomial basis (default 4)")
    p.add_argument("--exp", action="append",
                   help="extra exponential e^{lambda x} (rational lambda)")
    p.set_defaults(func=cmd_odesym)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.paper_suite:
        return sys.exit(cmd_paper_suite(args))
    if not getattr(args, "command", None):
        ap.print_help()
        return sys.exit(EXIT_INPUT)
    try:
        code = args.func(args)
    except InputError as e:
        print("input error: %s" % e, file=sys.stderr)
        code = EXIT_INPUT
    sys.exit(code)


if __name__ == "__main__":
    main()
