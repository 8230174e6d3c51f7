"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --mode run|traced|setup
        [--spans FILE]

Imports superprolong from the checkout's ``src``, builds the pass's ops, then
stamps ``time.monotonic()`` as ``t_ready`` (the parent subtracts its own
stamp taken before starting this process, which gives the set-up time).  In
``setup`` mode it stops there.  Otherwise it runs every op, timing only the
op's call, then summarizes and checks the op's output with the timer stopped.
An op that raises or fails a check counts as failed; the pass goes on.  In
``traced`` mode the tracer is installed around the ops and its spans are
written to ``--spans`` at the end; in ``run`` mode the pass asserts that
every name tracing would wrap is still its original object.

Prints one JSON object on its last line of output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


REF_ITERS = 12000
SAMPLE_ITERS = 2000
SAMPLE_PERIOD_S = 0.25


def reference_seconds(iters=REF_ITERS):
    """Wall time of a fixed pure-Python loop of exact arithmetic and dict
    updates, the kind of work superprolong does, scaled to ``REF_ITERS``
    iterations.  The host's speed drifts by tens of percent over seconds;
    timing this loop during and next to each op lets the benchmark scale op
    times to one nominal speed."""
    t0 = time.perf_counter()
    acc = {}
    s = Fraction(0)
    for i in range(1, iters + 1):
        s += Fraction(i % 7 + 1, i % 11 + 1)
        acc[i % 97] = acc.get(i % 97, 0) + i * i
    return (time.perf_counter() - t0) * REF_ITERS / iters


class SpeedSampler:
    """Times a short reference loop every ``SAMPLE_PERIOD_S`` seconds while
    an op runs, from a SIGALRM handler in the same thread; ``stolen`` is the
    time the handler took, which the op's timer excludes."""

    def __init__(self):
        self.samples = []
        self.stolen = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_seconds(SAMPLE_ITERS))
        self.stolen += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.stolen = [], 0.0
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False


def peak_rss_kb():
    """Peak resident set of this process image.  ``ru_maxrss`` is not used
    where /proc gives VmHWM: Linux carries ``ru_maxrss`` over from the
    parent across fork and exec, so a large parent would hide the pass."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_ops(ops, oracle, tracer=None):
    """Run ``ops`` in order; return one record per op.

    A record is {"op", "seconds", "ref", "ok", "problems"}.  ``seconds``
    covers the op's call only, less the speed samples taken during it;
    ``ref`` is the mean reference-loop time over the samples and the loops
    just before and just after the op.  The summary, the oracle comparison
    and the cross-checks run after that, with spans attributed to no op.
    """
    keep = {n for op in ops for n in op.needs}
    results = {}
    records = []
    reference_seconds()  # warm-up
    ref_before = reference_seconds()
    for op in ops:
        problems = []
        raw = None
        if tracer is not None:
            tracer.op = op.name
        with SpeedSampler() as sampler:
            t0 = time.perf_counter()
            try:
                raw = op.run({n: results[n] for n in op.needs})
            except Exception as exc:  # an op failure is data, not a crash
                problems.append("raised %s: %s" % (type(exc).__name__, exc))
            seconds = time.perf_counter() - t0 - sampler.stolen
        if tracer is not None:
            tracer.op = None
        ref_after = reference_seconds()
        refs = [ref_before, ref_after] + sampler.samples
        ref = sum(refs) / len(refs)
        ref_before = ref_after
        if not problems:
            try:
                summary = json.loads(json.dumps(op.summary(raw)))
                if op.name in oracle and summary != oracle[op.name]:
                    problems.append("output differs from the recorded oracle")
                elif oracle and op.name not in oracle:
                    problems.append("no recorded oracle value")
                for check in op.checks:
                    problems.extend(check(summary, raw))
            except Exception as exc:
                problems.append(
                    "check raised %s: %s" % (type(exc).__name__, exc)
                )
            if op.name in keep:
                results[op.name] = raw
        records.append({
            "op": op.name,
            "seconds": seconds,
            "ref": ref,
            "ok": not problems,
            "problems": problems,
        })
    return records


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "traced", "setup"), required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "superprolong", "__init__.py")):
        print("worker: no superprolong sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import superprolong
    import tracing
    import workloads

    pkg = os.path.dirname(os.path.abspath(superprolong.__file__))
    if pkg != os.path.join(SRC, "superprolong"):
        print("worker: imported superprolong from %s, not %s" % (pkg, SRC),
              file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed)
    oracle = workloads.load_oracle(args.workload)
    t_ready = time.monotonic()
    out = {"t_ready": t_ready}
    if args.mode != "setup":
        tracer = None
        if args.mode == "traced":
            tracer = tracing.Tracer()
            tracer.install()
        try:
            out["ops"] = run_ops(ops, oracle, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        out["untraced_offenders"] = tracing.untraced_offenders()
        if tracer is not None:
            with open(args.spans, "w") as fh:
                json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
        out["peak_rss_kb"] = peak_rss_kb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
