"""Opt-in span tracing of superprolong's layers, installed from outside.

Nothing here runs at import time.  ``Tracer.install`` replaces each traced
name *where its caller looks it up*: a function imported by name into another
module (``prolong.validate`` and ``oddode.validate_alg`` are both
``liesuper.validate``) is wrapped in every module that holds it, and linear
algebra entry points get one wrapper per calling layer, so their spans are
named ``<layer>.linalg.<fn>``.  ``Tracer.uninstall`` puts every original
object back, and ``untraced_offenders`` asserts by identity that no wrapper
is left in place.

A span is ``[name, start, end, parent, op, attrs]`` with ``parent`` the index
of the enclosing span (-1 at top level).  Spans stay in memory; the caller
writes them out when the pass ends.  Size attributes (``entries_in``,
``triples``, ``basis_dim``) are computed after the wrapped call returns and
the time spent computing them is recorded as a ``trace.bookkeeping`` span, a
sibling of the measured span, so it is excluded from its parent's self time.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
import types

ORIGINAL = "__perfbench_original__"
BOOKKEEPING = "trace.bookkeeping"

# Public functions that get a span, per defining module; None means every
# public function the module defines.
SPANNED = {
    "catalog": None,
    "prolong": ("prolong", "prolong_step", "projective_trace_reduction"),
    "liesuper": ("validate", "derivations_gr", "check_fundamental_nondegenerate"),
    "spencer": ("cohomology_dims", "reduced_differential_check", "ce_differential"),
    "superfield": (
        "left_invariant_distribution",
        "derived_flag",
        "check_strong_regularity",
        "extract_symbol",
    ),
    "oddode": ("determine_symmetries", "prolong_field", "lagrange_bracket"),
}
# Hot functions that only get a call counter.
COUNTED = {"superfield": ("bracket_fields",)}
# Methods of engine classes: (module, class) -> (spanned, counted).
METHODS = {
    ("prolong", "Prolongation"): (
        ("step", "advance", "assemble", "reduce_component"),
        ("bracket_elements",),
    ),
}
# Classes whose construction is a span, traced through a subclass.
CLASSES = {("spencer", "CochainSlice"): "spencer.cochain_slice"}
# Linear algebra entry points and the metric each alias reports under.
LINALG = {
    "kernel_basis_rows": "kernel_basis_rows",
    "rank_rows": "rank_rows",
    "span_rank": "rank_rows",
    "solve_in_span": "solve_in_span",
    "in_span": "solve_in_span",
}
LINALG_CLASS = "SpanSolver"
PACKAGE = "superprolong"


def _module(short):
    return importlib.import_module("%s.%s" % (PACKAGE, short))


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _unwrap(obj):
    return getattr(obj, ORIGINAL, obj)


def _public_functions(mod):
    return [
        name
        for name, val in vars(mod).items()
        if not name.startswith("_")
        and isinstance(_unwrap(val), types.FunctionType)
        and _unwrap(val).__module__ == mod.__name__
    ]


def nnz(rows):
    """Nonzero entries of sparse dict rows or dense rows."""
    total = 0
    for row in rows:
        if isinstance(row, dict):
            total += len(row)
        else:
            total += sum(1 for x in row if x)
    return total


def _size_validate(args, kwargs, result):
    alg = args[0]
    n = len(getattr(alg, "alg", alg).space)
    return {"n": n, "triples": n ** 3}


def _size_reduced(args, kwargs, result):
    g = args[1] if len(args) > 1 and args[1] is not None else kwargs.get("g", args[0])
    return {"n": len(getattr(g, "alg", g).space)}


def _size_rows(args, kwargs, result):
    return {"entries_in": nnz(args[0])}


def _size_span(args, kwargs, result):
    return {"entries_in": nnz(args[0]) + len(args[1])}


def _size_solver(args, kwargs, result):
    vecs = args[1]  # the vectors of __init__ or the target of solve
    return {"entries_in": len(vecs) if isinstance(vecs, dict) else nnz(vecs)}


def _size_catalog(args, kwargs, result):
    return {"args": [a for a in args if isinstance(a, (int, str))]}


def _size_slice(args, kwargs, result):
    return {"basis_dim": len(args[0].basis)}


# Size attributes per span name, or per the last part of a linalg span name.
SIZERS = {
    "liesuper.validate": _size_validate,
    "spencer.reduced_differential_check": _size_reduced,
    "spencer.cochain_slice": _size_slice,
    "kernel_basis_rows": _size_rows,
    "rank_rows": _size_rows,
    "solve_in_span": _size_span,
    "span_solver": _size_solver,
}


def _sizer(name):
    if name.startswith("catalog."):
        return _size_catalog
    return SIZERS.get(name) or SIZERS.get(name.rsplit(".", 1)[-1])


def _aliases(mods, orig):
    """(module, attribute) pairs that hold ``orig`` or a wrapper of it."""
    return [
        (mod, attr)
        for mod in mods
        for attr, val in list(vars(mod).items())
        if _unwrap(val) is orig
    ]


def targets():
    """Every (owner, attribute, original, span name, kind) tracing patches;
    kind is "span", "count" or "class".

    Originals are found through any installed wrapper, so the list is the
    same whether or not tracing is installed.
    """
    mods = _package_modules()
    out = []
    plan = [(short, names, "span") for short, names in SPANNED.items()]
    plan += [(short, names, "count") for short, names in COUNTED.items()]
    for short, names, kind in plan:
        defmod = _module(short)
        for name in _public_functions(defmod) if names is None else names:
            if hasattr(defmod, name):
                orig = _unwrap(getattr(defmod, name))
                for mod, attr in _aliases(mods, orig):
                    out.append((mod, attr, orig, "%s.%s" % (short, name), kind))
    for (short, cls_name), (spanned, counted) in METHODS.items():
        cls = getattr(_module(short), cls_name, None)
        for kind, names in (("span", spanned), ("count", counted)):
            for name in names:
                if cls is not None and name in vars(cls):
                    orig = _unwrap(vars(cls)[name])
                    out.append((cls, name, orig, "%s.%s" % (short, name), kind))
    for (short, cls_name), span_name in CLASSES.items():
        defmod = _module(short)
        if hasattr(defmod, cls_name):
            orig = _unwrap(getattr(defmod, cls_name))
            for mod, attr in _aliases(mods, orig):
                out.append((mod, attr, orig, span_name, "class"))
    linalg = _module("linalg")
    metric_of = {
        id(_unwrap(getattr(linalg, n))): metric
        for n, metric in LINALG.items()
        if hasattr(linalg, n)
    }
    solver = getattr(linalg, LINALG_CLASS, None)
    for mod in mods:
        if mod is linalg or mod.__name__ == PACKAGE:
            continue
        layer = mod.__name__.rsplit(".", 1)[-1]
        for attr, val in list(vars(mod).items()):
            orig = _unwrap(val)
            if id(orig) in metric_of and isinstance(orig, types.FunctionType):
                name = "%s.linalg.%s" % (layer, metric_of[id(orig)])
                out.append((mod, attr, orig, name, "span"))
            elif solver is not None and orig is solver:
                name = "%s.linalg.span_solver" % layer
                out.append((mod, attr, orig, name, "class"))
    return out


def untraced_offenders():
    """Attributes that are not their original object (tracing left in place).

    Returns a list of "owner.attr" strings; empty when every traced name is
    the original object, compared by identity.
    """
    bad = []
    found = targets()
    if not found:
        return ["no traced names found in %s" % PACKAGE]
    for owner, attr, orig, _, _ in found:
        if vars(owner)[attr] is not orig:
            bad.append("%s.%s" % (getattr(owner, "__name__", owner), attr))
    return bad


class Tracer:
    """Span recorder for one pass; install, run the ops, uninstall."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.stack = []
        self.op = None
        self._patched = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, sizer=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = [name, t0, clock(), parent, tracer.op, None]
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            if sizer is None:
                spans[idx] = [name, t0, t1, parent, tracer.op, None]
            else:
                spans[idx] = [name, t0, t1, parent, tracer.op, sizer(args, kwargs, result)]
                spans.append([BOOKKEEPING, t1, clock(), parent, tracer.op, None])
            return result

        setattr(traced, ORIGINAL, fn)
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(counted, ORIGINAL, fn)
        counted.__name__ = getattr(fn, "__name__", name)
        return counted

    def traced_class(self, cls, name, methods, sizer=None):
        attrs = {ORIGINAL: cls, "__module__": cls.__module__}
        for meth in methods:
            if meth in vars(cls):
                attrs[meth] = self.wrap(name, vars(cls)[meth], sizer)
        return type(cls.__name__, (cls,), attrs)

    # -- installation --------------------------------------------------------

    def install(self):
        """Patch every target; returns how many attributes were replaced."""
        made = {}
        for owner, attr, orig, name, kind in targets():
            key = (id(orig), name)
            if key not in made:
                if kind == "count":
                    made[key] = self.counter(name, orig)
                elif kind == "class":
                    made[key] = self.traced_class(
                        orig, name, ("__init__", "solve"), _sizer(name)
                    )
                else:
                    made[key] = self.wrap(name, orig, _sizer(name))
            self._patched.append((owner, attr, orig))
            setattr(owner, attr, made[key])
        return len(self._patched)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def union_length(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Per span: its duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    return [
        (s[2] - s[1]) - union_length(children.get(i, ()), s[1], s[2])
        for i, s in enumerate(spans)
    ]


def _outermost(spans):
    """Flags: True where no ancestor span has the same name."""
    flags = []
    for s in spans:
        p = s[3]
        ok = True
        while p >= 0:
            if spans[p][0] == s[0]:
                ok = False
                break
            p = spans[p][3]
        flags.append(ok)
    return flags


def summarize(spans, counts):
    """Per span name: calls, self_s, total_s (outermost spans only) and the
    sums of numeric size attributes, over spans recorded inside an op.  Layer aggregates ``<layer>.calls`` and
    ``<layer>.self_s`` cover the layer's own spans, not its linalg calls."""
    selfs = self_times(spans)
    outer = _outermost(spans)
    out = {}
    for i, s in enumerate(spans):
        name = s[0]
        if name == BOOKKEEPING or s[4] is None:
            continue
        rec = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += selfs[i]
        if outer[i]:
            rec["total_s"] += s[2] - s[1]
        for key, val in (s[5] or {}).items():
            if isinstance(val, int) and not isinstance(val, bool) and key != "n":
                rec[key] = rec.get(key, 0) + val
        if ".linalg." not in name:
            layer = name.split(".", 1)[0]
            agg = out.setdefault(layer, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += selfs[i]
    for name, n in counts.items():
        out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        out[name]["calls"] += n
    return out


def roadmap_rows(spans):
    """The ROADMAP baseline table's layer rows, measured from one pass.

    Rows are identified by what the span saw (algebra size 31 is the
    assembled super Hilbert-Cartan algebra; ``osp(4, 4)`` by its arguments)
    or by the op that ran them.  A row the pass did not run reads 0.
    """
    outer = _outermost(spans)

    def durs(name, op=None, **attrs):
        return [
            s[2] - s[1] for i, s in enumerate(spans)
            if s[0] == name and outer[i] and s[4] is not None
            and (op is None or s[4] == op)
            and all((s[5] or {}).get(k) == v for k, v in attrs.items())
        ]

    def med(vals):
        return statistics.median(vals) if vals else 0.0

    novalidate = [
        (spans[s[3]][2] - spans[s[3]][1]) - (s[2] - s[1])
        for s in spans
        if s[0] == "liesuper.validate" and s[4] is not None
        and (s[5] or {}).get("n") == 31
        and s[3] >= 0 and spans[s[3]][0] == "prolong.prolong"
    ]
    return {
        "roadmap.shc_prolong_novalidate.s": med(novalidate),
        "roadmap.shc_validate.s": med(durs("liesuper.validate", n=31)),
        "roadmap.shc_reduced_check.s": med(
            durs("spencer.reduced_differential_check", n=31)
        ),
        "roadmap.catalog_osp44.s": med(durs("catalog.osp", args=[4, 4])),
        "roadmap.gl21_deg9_steps.s": sum(durs("prolong.step", "gl21_deg9")),
        "roadmap.gl21_deg9_assemble.s": sum(durs("prolong.assemble", "gl21_deg9")),
        "roadmap.projective_gl33.s": sum(durs("prolong.prolong", "projective_gl33")),
        "roadmap.odesym_dterm.s": sum(
            durs("oddode.determine_symmetries", "ode3_dterm")
        ),
    }
