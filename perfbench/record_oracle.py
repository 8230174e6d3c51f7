"""Record the op outputs of the non-paper-suite workloads as the oracle.

    python3 perfbench/record_oracle.py

Runs each op once (seed 0) and writes its JSON summary to
perfbench/expected.json.  Refuses to write if any op raises or fails one of
its independent cross-checks.  Re-record only when a change is meant to alter
an output, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main():
    oracle = {}
    failures = []
    for workload in workloads.WORKLOADS:
        if workload == "paper_suite":
            continue
        results, out = {}, {}
        for op in workloads.build(workload, 0):
            raw = op.run({n: results[n] for n in op.needs})
            results[op.name] = raw
            summary = json.loads(json.dumps(op.summary(raw)))
            for check in op.checks:
                failures += ["%s/%s: %s" % (workload, op.name, p)
                             for p in check(summary, raw)]
            out[op.name] = summary
        oracle[workload] = out
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    with open(workloads.ORACLE_FILE, "w") as fh:
        json.dump(oracle, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % workloads.ORACLE_FILE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
