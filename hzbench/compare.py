"""Compare two sets of saved benchmark runs, metric by metric.

    python3 hzbench/compare.py BASE.txt NEW.txt

Each file holds the standard output of run.py or all.py runs; the
``{"record": ...}`` lines are read.  For every workload and end-to-end
metric it prints the two medians, the change and whether the change stays
within the metric's bound.  Runs made on different mpmath backends are not
compared: installing gmpy2 would change every number.
"""

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spec  # noqa: E402


def load(path):
    with open(path) as fh:
        return [json.loads(line)["record"] for line in fh if line.startswith('{"record"')]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    base, new = load(argv[0]), load(argv[1])
    backends = {r["env"]["backend"] for r in base + new}
    if len(backends) > 1:
        sys.exit(f"hzbench: refusing to compare runs on different mpmath backends: "
                 f"{sorted(backends)}")
    worse_than_bound = False
    for workload in spec.WORKLOADS:
        for metric, (unit, better, bound) in spec.END_TO_END.items():
            values = [
                [r["end_to_end"][metric] for r in runs
                 if r["workload"] == workload and not r["trace"]]
                for runs in (base, new)
            ]
            if not all(values):
                continue
            b, n = (statistics.median(v) for v in values)
            change = (n - b) / b
            worse = change if better == "lower" else -change
            verdict = "WORSE than bound" if worse > bound else "within bound"
            print(f"{workload:13s} {metric:18s} {b:12.6g} -> {n:12.6g} {unit:4s} "
                  f"{change:+8.2%} ({len(values[0])} vs {len(values[1])} runs, "
                  f"bound {bound:.0%}: {verdict})")
            worse_than_bound |= worse > bound
    return 1 if worse_than_bound else 0


if __name__ == "__main__":
    sys.exit(main())
