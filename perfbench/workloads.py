"""The benchmark's workloads: fixed lists of ops with their output checks.

Each op calls superprolong's public API, looking every function up on its
module at call time so that tracing, when installed, sees the call.  An op
returns its raw result; ``summary`` turns it into JSON after the op's timer
stops, and the summary is compared with the recorded oracle
(``expected.json``) and with independent cross-checks where one exists.

Why these workloads:

* ``paper_suite``: ``run_suite``, the headline every change is judged by; it
  touches every layer.
* ``prolong_assemble`` (Q): large prolongations dominated by the step,
  ``assemble``, ``validate`` and the catalog; it runs no Spencer, superfield
  or odd-ODE code.  The projective reduction drops the bracket cache while the
  plain runs keep it.
* ``cohomology_qi`` (Q(i)): the only Gaussian arithmetic, so a coefficient
  change that helps Q but hurts Q(i) shows here.
* ``fields_odes``: superfield flags and symbols and the odd-ODE solver, which
  the other workloads barely touch.
"""

from __future__ import annotations

import importlib
import json
import os
import random
from math import comb

ORACLE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
WORKLOADS = ("paper_suite", "prolong_assemble", "cohomology_qi", "fields_odes")


class Op:
    """One timed call; ``needs`` names earlier ops whose raw results it takes."""

    def __init__(self, name, run, summary, checks=(), needs=()):
        self.name = name
        self.run = run
        self.summary = summary
        self.checks = checks
        self.needs = needs


def _mod(short):
    return importlib.import_module("superprolong." + short)


# ---------------------------------------------------------------------------
# independent values
# ---------------------------------------------------------------------------

def _multichoose(n, k):
    if n == 0:
        return 1 if k == 0 else 0
    return comb(n + k - 1, k)


def sym_power_superdim(p, q, n):
    """Superdimension of S^n of a (p|q)-dimensional superspace: a monomial
    takes j distinct odd vectors and n - j even ones with repetition."""
    even = odd = 0
    for j in range(0, min(n, q) + 1):
        c = _multichoose(p, n - j) * comb(q, j)
        if j % 2:
            odd += c
        else:
            even += c
    return even, odd


def _tensor(a, b):
    return a[0] * b[0] + a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def w_component(p, q, k):
    """g_k of W(p|q) = pr(R^{p|q}, gl(p|q)): V (x) S^{k+1} V*."""
    if k == -1:
        return p, q
    return _tensor((p, q), sym_power_superdim(p, q, k + 1))


def sl_superdim(p, q):
    return p * p + q * q - 1, 2 * p * q


def osp_superdim(m, two_n):
    n = two_n // 2
    return m * (m - 1) // 2 + n * (2 * n + 1), m * two_n


# ---------------------------------------------------------------------------
# summaries and checks
# ---------------------------------------------------------------------------

def _g0(alg):
    return [(alg.space[k].parity, alg.rep[k]) for k in range(len(alg.space))]


def _prolong_summary(res):
    return {
        "status": res.status,
        "per_degree": {str(k): list(v) for k, v in sorted(res.per_degree().items())},
        "total": list(res.total_superdim),
    }


def _check_w(p, q):
    def check(summary, raw):
        return [
            "g_%s is %s, W(%d|%d) has %s" % (k, v, p, q, list(w_component(p, q, int(k))))
            for k, v in summary["per_degree"].items()
            if v != list(w_component(p, q, int(k)))
        ]
    return check


def _check_value(path, want, source):
    def check(summary, raw):
        got = summary
        for key in path:
            got = got[key]
        if got != want:
            return ["%s is %r, %s gives %r" % ("/".join(path), got, source, want)]
        return []
    return check


def _check_validates(getter):
    def check(summary, raw):
        bad = _mod("liesuper").validate(getter(raw))
        return ["validate reports %r" % bad[:2]] if bad else []
    return check


def _superdims(space):
    degs = sorted({b.degree for b in space})
    return {str(d): list(space.superdim(d)) for d in degs}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _paper_suite(seed):
    papersuite = _mod("papersuite")
    return [
        Op(
            "run_suite",
            lambda inp: papersuite.run_suite(verbose=False),
            lambda ok: ok,
            (_check_value((), True, "data/paper_suite_expected.json"),),
        )
    ]


def _prolong_assemble(seed):
    catalog, P, liesuper = _mod("catalog"), _mod("prolong"), _mod("liesuper")
    Sym = liesuper.SymbolAlgebra

    def flat_gl(p, q):
        def run(inp):
            return P.prolong(Sym(catalog.abelian(p, q)), g0=_g0(catalog.gl(p, q)))
        return run

    def projective(inp):
        return P.prolong(
            Sym(catalog.abelian(3, 3)),
            g0=_g0(catalog.gl(3, 3)),
            reductions=[(1, P.projective_trace_reduction)],
        )

    def osp44(inp):
        return P.prolong(
            Sym(catalog.abelian(4, 4)), g0=_g0(catalog.osp(4, 4)),
            validate_result=False,
        )

    sl43 = list(sl_superdim(4, 3))
    return [
        Op("gl21_deg9", flat_gl(2, 1), _prolong_summary, (_check_w(2, 1),)),
        Op("gl12_deg9", flat_gl(1, 2), _prolong_summary, (_check_w(1, 2),)),
        Op("projective_gl33", projective, _prolong_summary, (
            _check_value(("total",), sl43, "sl(4|3)"),
            _check_value(("per_degree", "2"), [0, 0], "the paper (g_2 = 0)"),
            _check_value(("status",), "stabilized", "validation inside prolong"),
        )),
        Op("osp44_g1", osp44, _prolong_summary, (
            _check_value(("per_degree", "0"), list(osp_superdim(4, 4)), "dim osp(4|4)"),
            _check_value(("per_degree", "1"), [0, 0], "the paper"),
        )),
    ]


def _cohomology_qi(seed):
    catalog, P, liesuper, spencer = (
        _mod("catalog"), _mod("prolong"), _mod("liesuper"), _mod("spencer"),
    )
    paper = {1: [10, 4], 2: [11, 8]}

    def st(N):
        return lambda inp: P.prolong(liesuper.SymbolAlgebra(catalog.supertranslation(N)))

    def coh(N):
        def run(inp):
            res = inp["st%d" % N]
            out = {}
            for d, k in [(0, 1), (1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)]:
                out["H%d,%d" % (d, k)] = list(
                    spencer.cohomology_dims(d, k, res.m, res.algebra)
                )
            return out
        return run

    def rdc(N):
        def run(inp):
            res = inp["st%d" % N]
            return spencer.reduced_differential_check(res.m, res.algebra)
        return run

    def rdc_summary(rep):
        return json.loads(json.dumps(
            {"ok": rep["ok"], "degrees": {str(d): e for d, e in rep["degrees"].items()}}
        ))

    ops = []
    for N in (1, 2, 3):
        checks = ()
        if N in paper:
            checks = (_check_value(("total",), paper[N], "the paper"),)
        ops.append(Op("st%d" % N, st(N), _prolong_summary, checks))
    for N in (2, 3):
        ops.append(Op("cohomology_st%d" % N, coh(N), dict, needs=("st%d" % N,)))
        ops.append(Op(
            "reduced_check_st%d" % N, rdc(N), rdc_summary,
            (_check_value(("ok",), True, "ker(p o delta) = ker(delta)"),),
            needs=("st%d" % N,),
        ))
    return ops


MODELS = [
    ("shc", "shc_symbol", ()),
    ("odd_ode5", "odd_ode_symbol", (5,)),
    ("odd_ode7", "odd_ode_symbol", (7,)),
    ("heisenberg22", "heisenberg_contact", (2, 2)),
    ("heisenberg42", "heisenberg_contact", (4, 2)),
    ("heisenberg24", "heisenberg_contact", (2, 4)),
]
# (op name, order, rhs, poly degree, paper's superdim or None)
ODES = [
    ("ode2_trivial", 2, "0", 3, [4, 4]),
    ("ode3_trivial", 3, "0", 3, [4, 4]),
    ("ode3_exp", 3, "xi2", 2, [2, 3]),
    ("ode3_dterm", 3, "xi*xi1*xi2", 2, [2, 2]),
    ("ode4_trivial_p6", 4, "0", 6, None),
    ("ode5_trivial_p6", 5, "0", 6, None),
    ("ode4_trivial_p8", 4, "0", 8, None),
    ("ode5_exp", 5, "xi2", 4, None),
    ("ode5_xi4", 5, "xi4", 4, None),
]


def _fields_odes(seed):
    catalog, liesuper, superfield, oddode, papersuite = (
        _mod("catalog"), _mod("liesuper"), _mod("superfield"), _mod("oddode"),
        _mod("papersuite"),
    )

    def model(builder, args):
        def run(inp):
            m = liesuper.SymbolAlgebra(getattr(catalog, builder)(*args))
            flag = superfield.derived_flag(superfield.left_invariant_distribution(m))
            rep = superfield.check_strong_regularity(flag, seed=seed)
            sym = superfield.extract_symbol(flag, rep, seed=seed)
            return m, rep, sym
        return run

    def model_summary(raw):
        m, rep, sym = raw
        return {
            "regular": rep["ok"],
            "witnesses": rep["witnesses"],
            "symbol": _superdims(sym.space),
            "on_the_nose": superfield.symbols_isomorphic_on_the_nose(sym, m),
        }

    def nonregular(inp):
        flag = superfield.derived_flag(papersuite.nonregular_hc_extension())
        return superfield.check_strong_regularity(flag, seed=seed)

    def nonregular_summary(rep):
        return {"regular": rep["ok"], "witnesses": rep["witnesses"]}

    def nonregular_witness(summary, raw):
        if not any("theta*@u" in w for w in summary["witnesses"]):
            return ["no theta*du witness, the paper has one"]
        return []

    def ode(order, rhs, deg):
        return lambda inp: oddode.determine_symmetries(
            oddode.OdeSpec(order, rhs, poly_degree=deg)
        )

    def ode_summary(sym):
        return {
            "superdim": list(sym.superdim),
            "certified": sym.certified_complete,
            "bound": list(sym.bound) if sym.bound is not None else None,
            "generators": [g.to_str() for g in sym.generators],
            "bracket_table": sym.bracket_table,
            "warnings": sym.warnings,
        }

    ops = []
    for name, builder, args in MODELS:
        ops.append(Op("model_" + name, model(builder, args), model_summary, (
            _check_value(("regular",), True, "a left-invariant model"),
            _check_value(("on_the_nose",), True, "a left-invariant model"),
            _check_validates(lambda raw: raw[2]),
        )))
    ops.append(Op("nonregular_hc", nonregular, nonregular_summary, (
        _check_value(("regular",), False, "the paper"),
        nonregular_witness,
    )))
    for name, order, rhs, deg, paper in ODES:
        checks = [_check_validates(lambda raw: raw.algebra)]
        if paper is not None:
            checks.append(_check_value(("superdim",), paper, "the paper"))
        if paper == [4, 4]:
            checks.append(_check_value(("certified",), True, "the paper"))
        ops.append(Op(name, ode(order, rhs, deg), ode_summary, tuple(checks)))
    return ops


BUILDERS = {
    "paper_suite": _paper_suite,
    "prolong_assemble": _prolong_assemble,
    "cohomology_qi": _cohomology_qi,
    "fields_odes": _fields_odes,
}


def seeded_order(ops, seed):
    """A seeded random order of ``ops`` in which every op follows its needs."""
    rng = random.Random(seed)
    done, order = set(), []
    pending = list(ops)
    while pending:
        ready = [op for op in pending if all(n in done for n in op.needs)]
        if not ready:
            raise ValueError("ops have unmet or circular needs")
        op = ready[rng.randrange(len(ready))]
        pending.remove(op)
        done.add(op.name)
        order.append(op)
    return order


def build(workload, seed):
    """The ops of one pass, in the seed's order."""
    return seeded_order(BUILDERS[workload](seed), seed)


def load_oracle(workload):
    """Recorded summaries of ``workload``'s ops; paper_suite has none (its
    op checks itself against the package's expected data)."""
    if workload == "paper_suite":
        return {}
    with open(ORACLE_FILE) as fh:
        return json.load(fh)[workload]
