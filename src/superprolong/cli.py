"""Command-line surface: prolongation, cohomology tables, regularity
diagnosis, symbol extraction and odd-ODE symmetry reports.

Exit codes: 0 success, 2 input error, 3 prolongation not stabilized,
4 regularity failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog
from .liesuper import LieSuperalgebra, SymbolAlgebra, validate
from .prolong import ProlongationError, prolong, projective_trace_reduction
from .spencer import cohomology_dims
from .superfield import (
    Ambient,
    DegreeCapError,
    DistributionSpec,
    check_strong_regularity,
    derived_flag,
    extract_symbol,
    field_from_json,
    parse_field,
)
from .oddode import OdeSpec, determine_symmetries

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


def _load_algebra(args):
    if args.name is not None:
        try:
            return catalog.build_named(args.name)
        except ValueError as e:
            raise InputError(str(e))
    alg = _read_input(args.input, LieSuperalgebra.from_json)
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
            source = args.input if args.name is None else repr(args.name)
            raise InputError(
                "%s: %s, got degrees %s"
                % (source, e, ", ".join(map(str, degs)))
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
        raise InputError(str(e))
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


def _distribution_from_json(data):
    amb = Ambient(
        data["ambient"]["even"],
        data["ambient"]["odd"],
        degree_cap=data.get("degree_cap", 8),
    )
    generators = data["generators"]
    if not isinstance(generators, list):
        raise ValueError(
            "generators must be a JSON array, got %s" % type(generators).__name__
        )
    if not generators:
        raise ValueError("generators must not be empty")
    gens = []
    for entry in generators:
        if isinstance(entry, str):
            gens.append(parse_field(amb, entry))
        elif not isinstance(entry, dict):
            raise ValueError(
                "generators: %r is neither a string nor a JSON object" % (entry,)
            )
        elif not isinstance(entry.get("name", ""), (str, type(None))):
            raise ValueError("generators: name %r is not a string" % (entry["name"],))
        elif "expr" in entry:
            gens.append(parse_field(amb, entry["expr"], name=entry.get("name")))
        else:
            gens.append(field_from_json(amb, entry))
    base = data.get("basepoint")
    return DistributionSpec(amb, gens, basepoint=base)


def cmd_symbol(args):
    dist = _read_input(args.input, _distribution_from_json)
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
        spec = _read_input(args.input, OdeSpec.from_json)
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
