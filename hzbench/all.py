"""Run every workload once untraced and once traced, and print every metric.

    python3 hzbench/all.py [--seed N] [--seconds S]

For each workload this prints the end-to-end metrics with their units, the
fail ratio and known defects, the tracing overhead (traced against untraced
latency over the same requests of the same seed, both at the reference speed)
and the per-layer metrics of the traced run.  It then writes BENCHMARK.json
from spec.py and echoes the raw record lines, so that its output can be saved
and given to compare.py.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    sys.stderr.write(out.stderr)
    if out.returncode:
        sys.exit(f"hzbench: run.py --workload {workload} exited {out.returncode}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1]), lines[-2]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    args = ap.parse_args(argv)

    raw = []
    all_correct = True
    for name in spec.WORKLOADS:
        rec, res, line = run(name, args.seed, args.seconds, 0)
        trec, tres, tline = run(name, args.seed, args.seconds, 1)
        raw += [line, tline]
        all_correct = all_correct and res["correct"] and tres["correct"]
        print(f"== {name}  seed {args.seed}: {rec['samples']} requests in "
              f"{rec['rounds']} rounds, {rec['timed_s']:.1f} s timed, "
              f"correct={res['correct']}")
        for metric, (unit, _, bound) in spec.END_TO_END.items():
            print(f"   {metric:20s} {rec['end_to_end'][metric]:14.6g} {unit:6s}"
                  f" (bound {bound:.0%})")
        print(f"   {'fail_ratio':20s} {rec['fail_ratio']:14.6g} {'ratio':6s}"
              f" ({len(rec['failures'])} of {rec['samples']} requests, "
              f"{rec['known_defects']} documented defects)")
        print(f"   latency_tail_s is p{rec['tail_percentile']:.1f} of "
              f"{rec['samples']} samples")
        k = min(rec["samples"], trec["samples"])
        base = sum(rec["request_latencies_s"][:k])
        traced = sum(trec["request_latencies_s"][:k])
        print(f"   tracing overhead     {traced / base - 1:+14.2%} "
              f"over the first {k} requests")
        for metric, value in trec["per_layer"].items():
            print(f"   {metric:52s} {value:14.6g}")

    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    print(f"wrote {os.path.relpath(path)}")
    print("records:")
    for line in raw:
        print(line)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
