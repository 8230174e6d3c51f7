"""Benchmark of superprolong through its public API.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S]

One client in a closed loop, one process and one thread at a time: each pass
runs a workload's fixed list of ops in a fresh interpreter (a CLI call pays
its imports and cache fills every time), and the next pass starts when the
previous one has ended.  The seed fixes the order of ops within a pass and is
passed to the superfield regularity check; outputs must not depend on it.

With ``--trace 0`` a run reports the end-to-end metrics:

* ``pass_s``: seconds per pass, the sum of the timed op calls (median over
  the run's passes; the highest percentile with ten samples beyond it is
  printed once a run has eleven passes or more)
* ``setup_s``: interpreter start, import and building the pass's ops,
  median over several set-up-only starts
* ``peak_rss_mb``: peak resident set of the pass process, median over
  passes (``worker.peak_rss_kb``)
* ``fail_ratio``: failed ops over attempted ops, printed in the table; the
  JSON line carries it as ``failed`` and ``attempted``

With ``--trace 1`` a run alternates untraced and traced passes and reports
the per-layer metrics of the traced ones (see ``PER_LAYER``) and
``trace.overhead_ratio``, traced over untraced ``pass_s``.

``pass_s`` is in nominal seconds.  On a shared 2-vCPU virtual machine the
speed of pure-Python code changes by tens of percent from one few-second
stretch to the next, which no number of passes averages away, so
each op's wall time is scaled by ``REF_S`` over the mean time of a fixed
reference loop timed just before, during and just after the op
(``worker.reference_seconds`` and ``worker.SpeedSampler``).  An op that
takes 1 s while the loop takes ``REF_S`` reads 1 s.  The table also prints
the raw wall median and the loop's median time.  Per-layer times are scaled
like ``pass_s``, op by op.  ``setup_s`` (interpreter start, file reads and
imports) follows the loop only loosely but follows a bare interpreter start
closely, so each set-up start is scaled by ``BARE_S`` over the time of a
bare start of the same interpreter (``BARE_CMD``) made just before it.

``--report`` runs every workload both ways and prints the end-to-end table
and the ROADMAP baseline table with measured values.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 11
REF_S = 0.030
BARE_S = 0.060
BARE_CMD = [sys.executable, "-c", "import argparse, fractions, json"]
PASS_TIMEOUT_S = 120

END_TO_END = [
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _per_layer():
    out = []

    def add(prefix, fields):
        for f in fields:
            out.append(("%s.%s" % (prefix, f), "s" if f.endswith("_s") else "count"))

    add("prolong.prolong", ("calls", "self_s", "total_s"))
    add("prolong.step", ("calls", "self_s", "total_s"))
    add("prolong.advance", ("self_s",))
    add("prolong.assemble", ("calls", "self_s", "total_s"))
    add("prolong.bracket_elements", ("calls",))
    add("prolong.reduce_component", ("calls", "self_s", "total_s"))
    for layer, fns in (
        ("prolong", ("kernel_basis_rows", "rank_rows", "solve_in_span", "span_solver")),
        ("liesuper", ("kernel_basis_rows", "rank_rows", "solve_in_span")),
        ("catalog", ("kernel_basis_rows", "span_solver")),
        ("spencer", ("kernel_basis_rows", "rank_rows")),
        ("oddode", ("kernel_basis_rows",)),
    ):
        for fn in fns:
            add("%s.linalg.%s" % (layer, fn), ("calls", "self_s", "entries_in"))
    add("liesuper.validate", ("calls", "self_s", "triples"))
    add("catalog", ("calls", "self_s"))
    add("spencer.cochain_slice", ("calls", "self_s", "basis_dim"))
    add("spencer.cohomology_dims", ("calls", "self_s", "total_s"))
    add("spencer.reduced_differential_check", ("calls", "self_s", "total_s"))
    for fn in ("left_invariant_distribution", "derived_flag",
               "check_strong_regularity", "extract_symbol"):
        add("superfield." + fn, ("self_s",))
    add("superfield.bracket_fields", ("calls",))
    add("oddode.determine_symmetries", ("self_s",))
    add("oddode.prolong_field", ("calls", "self_s"))
    add("oddode.lagrange_bracket", ("calls", "self_s"))
    out.append(("trace.overhead_ratio", "ratio"))
    for row in ROADMAP_ROWS:
        out.append((row[0], "s"))
    return out


# ROADMAP baseline rows: (metric, row label, workload that measures it).
ROADMAP_ROWS = [
    ("roadmap.shc_prolong_novalidate.s",
     "`prolong(shc_symbol)`, no validation", "paper_suite"),
    ("roadmap.shc_validate.s",
     "`validate` on the assembled SHC algebra (n = 31)", "paper_suite"),
    ("roadmap.shc_reduced_check.s",
     "`reduced_differential_check` on SHC", "paper_suite"),
    ("roadmap.catalog_osp44.s", "`catalog.osp(4, 4)` build", "prolong_assemble"),
    ("roadmap.gl21_deg9_steps.s",
     "full `pr(R^{2\\|1}, gl(2\\|1))` to degree 9: all nine steps",
     "prolong_assemble"),
    ("roadmap.gl21_deg9_assemble.s",
     "full `pr(R^{2\\|1}, gl(2\\|1))` to degree 9: `assemble`", "prolong_assemble"),
    ("roadmap.projective_gl33.s", "projective `gl(3\\|3)`, validated",
     "prolong_assemble"),
    ("roadmap.odesym_dterm.s", "`odesym` order 3, `xi*xi1*xi2`", "fields_odes"),
]
PER_LAYER = _per_layer()


class BenchError(Exception):
    """The benchmark itself could not run (not an op failure)."""


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _loadavg():
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def environment():
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "loadavg_start": _loadavg(),
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def spawn(workload, seed, mode, spans=None):
    """Start one worker, wait for it, return (result dict, setup seconds,
    wall seconds)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a %s pass of %s ran past %d s" % (mode, workload, PASS_TIMEOUT_S))
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            "worker exited %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:])
        )
    result = json.loads(lines[-1])
    return result, result["t_ready"] - t0, wall


def setup_sample(workload, seed):
    """(nominal, wall) seconds of one set-up-only start."""
    t0 = time.monotonic()
    proc = subprocess.run(BARE_CMD, cwd=ROOT, timeout=PASS_TIMEOUT_S)
    bare = time.monotonic() - t0
    if proc.returncode != 0:
        raise BenchError("a bare interpreter start exited %d" % proc.returncode)
    wall = spawn(workload, seed, "setup")[1]
    return wall * BARE_S / bare, wall


def run_passes(workload, seed, seconds, trace):
    """Passes until the next one would end more than half a pass past
    ``seconds``; with tracing, untraced and traced passes alternate and each
    kind runs at least once.  ``SETUP_SAMPLES`` set-up-only starts are
    spread over the run, one before each pass, and finished at the end."""
    spawn(workload, seed, "setup")  # compiles bytecode; not measured
    passes = []
    setups = []
    t_start = time.monotonic()
    while True:
        kinds = [p["mode"] for p in passes]
        elapsed = time.monotonic() - t_start
        est = statistics.median(p["wall"] for p in passes) if passes else 0.0
        need_both = trace and ("traced" not in kinds or "run" not in kinds)
        if passes and not need_both and elapsed + est / 2 > seconds:
            break
        mode = "traced" if trace and len(passes) % 2 else "run"
        spans = None
        if mode == "traced":
            os.makedirs(OUT_DIR, exist_ok=True)
            spans = os.path.join(
                OUT_DIR, "%s-seed%d-pass%d.spans.json" % (workload, seed, len(passes))
            )
        if len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(workload, seed))
        result, _, wall = spawn(workload, seed, mode, spans)
        result.update(mode=mode, wall=wall, spans_file=spans)
        passes.append(result)
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(workload, seed))
    return passes, setups


def pass_seconds(p):
    """Nominal seconds of a pass's timed op calls."""
    return sum(r["seconds"] * REF_S / r["ref"] for r in p["ops"])


def pass_wall(p):
    return sum(r["seconds"] for r in p["ops"])


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11  # ten samples lie above index k
    return 100.0 * (k + 1) / n, sorted(values)[k]


def failures(passes):
    """(attempted, failed, messages) over every op of every pass; a pass
    that left a tracing wrapper in place fails as one more op."""
    attempted = failed = 0
    msgs = []
    for p in passes:
        for r in p["ops"]:
            attempted += 1
            if not r["ok"]:
                failed += 1
                msgs.append("%s: %s" % (r["op"], "; ".join(r["problems"])))
        if p["untraced_offenders"]:
            attempted += 1
            failed += 1
            msgs.append("tracing left in place: %s" % p["untraced_offenders"][:5])
    return attempted, failed, msgs


def layer_metrics(traced_pass):
    """Per-layer values of one traced pass.  Every span of an op is scaled
    by that op's ``REF_S / ref``, so times are nominal seconds like
    ``pass_s``; scaling all of an op's timestamps by one factor keeps each
    child inside its parent."""
    with open(traced_pass["spans_file"]) as fh:
        data = json.load(fh)
    scale = {r["op"]: REF_S / r["ref"] for r in traced_pass["ops"]}
    spans = [
        [name, t0 * scale.get(op, 1.0), t1 * scale.get(op, 1.0), parent, op, attrs]
        for name, t0, t1, parent, op, attrs in data["spans"]
    ]
    agg = tracing.summarize(spans, data["counts"])
    values = {}
    for name, unit in PER_LAYER:
        base, field = name.rsplit(".", 1)
        if base in agg and field in agg[base]:
            values[name] = agg[base][field]
    values.update(tracing.roadmap_rows(spans))
    return values


def measure(workload, seed, seconds, trace):
    """One run: returns (metrics, attempted, failed, report lines)."""
    passes, setups = run_passes(workload, seed, seconds, trace)
    attempted, failed, msgs = failures(passes)
    plain = [p for p in passes if p["mode"] == "run"]
    plain_s = [pass_seconds(p) for p in plain]
    lines = ["workload %s, seed %d, %d passes (%d traced)" % (
        workload, seed, len(passes), len(passes) - len(plain))]
    if not trace:
        metrics = {
            "pass_s": statistics.median(plain_s),
            "setup_s": statistics.median(s for s, _ in setups),
            "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in plain) / 1024.0,
        }
        t = tail(plain_s)
        refs = [r["ref"] for p in plain for r in p["ops"]]
        lines.append("  pass_s median %.4f s over %d passes; %s" % (
            metrics["pass_s"], len(plain_s),
            "p%.0f %.4f s" % t if t else "no tail percentile below 11 passes"))
        lines.append("  pass_s samples %s" % " ".join("%.3f" % v for v in plain_s))
        lines.append("  pass wall median %.4f s; reference loop median %.4f s "
                     "(nominal %.3f s)" % (
                         statistics.median(pass_wall(p) for p in plain),
                         statistics.median(refs), REF_S))
        lines.append("  setup_s median %.4f s over %d starts (wall %.4f s)" % (
            metrics["setup_s"], len(setups), statistics.median(w for _, w in setups)))
        lines.append("  peak_rss_mb %.1f MB" % metrics["peak_rss_mb"])
        units = dict(END_TO_END)
    else:
        traced = [p for p in passes if p["mode"] == "traced"]
        per_pass = [layer_metrics(p) for p in traced]
        counts_differ = [
            name for name, unit in PER_LAYER
            if unit == "count" and len({pp.get(name, 0) for pp in per_pass}) > 1
        ]
        if counts_differ:
            attempted += 1
            failed += 1
            msgs.append("counts differ between traced passes: %s" % counts_differ[:5])
        metrics = {}
        for name, unit in PER_LAYER:
            vals = [pp.get(name, 0) for pp in per_pass]
            metrics[name] = statistics.median(vals) if unit != "count" else vals[0]
        metrics["trace.overhead_ratio"] = (
            statistics.median(pass_seconds(p) for p in traced)
            / statistics.median(plain_s)
        )
        units = dict(PER_LAYER)
    lines.append("  fail_ratio %.4f (%d of %d ops failed)" % (
        failed / attempted, failed, attempted))
    for m in msgs[:20]:
        lines.append("  FAILED %s" % m)
    return {k: (v, units[k]) for k, v in metrics.items()}, attempted, failed, lines


def result_json(metrics, attempted, failed):
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
        },
    })


def report(seed, seconds):
    """Every workload with tracing off and on; the end-to-end table and the
    ROADMAP baseline table from the measured values."""
    e2e, layers, total_failed = {}, {}, 0
    for w in WORKLOADS:
        for trace in (False, True):
            metrics, attempted, failed, lines = measure(w, seed, seconds, trace)
            print("\n".join(lines), flush=True)
            total_failed += failed
            (layers if trace else e2e)[w] = (metrics, attempted, failed)
    print("\n| workload | pass_s (s) | setup_s (s) | peak_rss_mb (MB) | fail_ratio |")
    print("|---|---|---|---|---|")
    for w in WORKLOADS:
        m, attempted, failed = e2e[w]
        print("| %s | %.3f | %.3f | %.1f | %.4f |" % (
            w, m["pass_s"][0], m["setup_s"][0], m["peak_rss_mb"][0],
            failed / attempted))
    print("\n| workload | seconds |\n|---|---|")
    print("| `--paper-suite` end to end (`run_suite`) | %.2f |"
          % e2e["paper_suite"][0]["pass_s"][0])
    for metric, label, w in ROADMAP_ROWS:
        print("| %s | %.2f |" % (label, layers[w][0][metric][0]))
    return total_failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "superprolong", "__init__.py")):
        print("run.py: no superprolong sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    if not args.report and args.workload is None:
        ap.error("--workload or --report is required")
    env = environment()
    print("# environment %s" % json.dumps(env), flush=True)
    try:
        if args.report:
            failed = report(args.seed, args.seconds)
            print("# loadavg_end %s" % json.dumps(_loadavg()))
            return 1 if failed else 0
        metrics, attempted, failed, lines = measure(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    print("\n".join(lines))
    for name, (value, unit) in metrics.items():
        print("  %-48s %14.6f %s" % (name, value, unit))
    print("# loadavg_end %s" % json.dumps(_loadavg()))
    print(result_json(metrics, attempted, failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
