"""Run one hyperzeta benchmark workload from the root of a source checkout.

    python3 hzbench/run.py --workload point_eval --seed 1 --seconds 12 --trace 0

One process, one thread, one client in a closed loop: each request is sent
when the previous one has returned.  The library is imported from ./src.

Set-up (``import hyperzeta`` plus the workload's warm-up) is measured in this
process and in two fresh child processes; ``setup_s`` is the median.  The
timed part then runs whole rounds (see workloads.py).  ``--seconds`` sets
their number, ``max(1, round(seconds / nominal_round_s))``, where
``nominal_round_s`` is the round's time at the reference speed.
A fixed count keeps the mix and the sample count, and so the percentile the
tail reads, identical on every run and every commit, and makes every count
repeat exactly for a given seed.  Every timing is scaled to the host's
reference speed by probes taken during it and at its ends (speed.py); the
raw timings are kept in the record.  Throughput is requests per second of
request time, so the probes between requests do not count.  ``--trace 1``
wraps the library's public functions and reports per-layer metrics instead
of end-to-end ones; it probes only between requests, so that no probe falls
inside a span.  Every result is checked after the timed part.

Output: failures and a summary on stderr; on stdout a ``{"record": ...}``
line (environment stamp, every metric with its details, cache counters,
failures) and, last, ``{"correct", "attempted", "failed", "metrics"}``.
``failed`` counts the failures that match no documented defect; those that
do are reported as ``known_defects`` and included in ``fail_ratio``.
"""

from time import perf_counter

RUN_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
PACKAGE = "hyperzeta"
SETUP_REPEATS = 3
# probes after a set-up, for the part of it before the sampler started
SETTLE_PROBES = 9
CHILD_TIMEOUT_S = 150

sys.path.insert(0, HERE)

import mpmath  # noqa: E402

import spec  # noqa: E402
import speed  # noqa: E402
from tracing import CacheCounters, Tracer  # noqa: E402
from workloads import CHECK_BITS, WORKLOADS, MissingInput, Verdict  # noqa: E402


def load_library():
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        sys.exit(f"hzbench: no {PACKAGE} sources under ./src; run from a checkout root")
    sys.path.insert(0, SRC)
    import hyperzeta

    return hyperzeta


def set_up(name: str, seed: int):
    """Import and warm up; returns the library, the workload and the set-up
    time from the start of the process as (raw, reference) seconds."""
    with speed.Sampler() as sampler:
        lib = load_library()
        with lib.DEFAULT_POLICY.context():
            workload = WORKLOADS[name](lib, seed)
            workload.warmup()
        raw = perf_counter() - RUN_START - sampler.spent_s
    probes = sampler.samples + [speed.probe() for _ in range(SETTLE_PROBES)]
    return lib, workload, (raw, raw * speed.factor(probes))


def child_setup(name: str, seed: int) -> tuple:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return tuple(json.loads(out.stdout.strip().splitlines()[-1])["setup"])


def run_rounds(lib, rounds, tracer):
    """Closed loop over the rounds.

    Returns [(round, [(ok, value, raw latency, speed factor, probes)])] and
    the timed seconds.  A request's probes are the one before it, the
    sampler's during it, and the one before the next request."""
    done = []
    request_id = 0
    probes = []  # the previous request's, awaiting its closing probe
    start = perf_counter()
    with speed.Sampler(0 if tracer else speed.INTERVAL_S) as sampler:
        for rnd in rounds:
            results = []
            for req in rnd.requests:
                before = speed.probe()
                probes.append(before)
                if tracer:
                    tracer.request = request_id
                mark = sampler.mark()
                t = perf_counter()
                try:
                    value, ok = req.call(), True
                except (lib.HyperzetaError, MissingInput) as exc:
                    value, ok = exc, False
                latency = perf_counter() - t
                if tracer:
                    tracer.request = None
                inside, spent = sampler.since(mark)
                probes = [before] + inside
                results.append([ok, value, latency - spent, None, probes])
                request_id += 1
            done.append((rnd, results))
        probes.append(speed.probe())
        elapsed = perf_counter() - start
    for _, results in done:
        for res in results:
            res[3] = speed.factor(res[4])
    return done, elapsed


def check_round(rnd, results):
    verdicts = []
    for req, (ok, value, *_) in zip(rnd.requests, results):
        if not ok:
            verdicts.append(
                req.on_error(value) if req.on_error
                else Verdict(f"{type(value).__name__}: {value}")
            )
        else:
            verdicts.append(req.check(value) if req.check else None)
    for members, check in rnd.groups:
        if any(not results[i][0] for i in members):
            verdict = Verdict("another request of its check group failed")
        else:
            verdict = check([results[i][1] for i in members])
        if verdict:
            for i in members:
                verdicts[i] = verdicts[i] or verdict
    return verdicts


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment(lib, seed):
    return {
        "backend": mpmath.libmp.BACKEND,
        "mpmath": mpmath.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "precision_bits": lib.DEFAULT_BITS,
        "seed": seed,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    lib, workload, setup = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0
    setup_runs = [setup] + [child_setup(args.workload, args.seed)
                            for _ in range(SETUP_REPEATS - 1)]
    setups = [scaled for _, scaled in setup_runs]

    caches = CacheCounters(PACKAGE, spec.CACHES)
    tracer = None
    if args.trace:
        tracer = Tracer(PACKAGE, lib.HyperzetaError)
        tracer.install()
    with lib.DEFAULT_POLICY.context():
        rounds = workload.rounds(max(1, round(args.seconds / workload.nominal_round_s)))
        before = caches.snapshot()
        done, elapsed = run_rounds(lib, rounds, tracer)
    cache_stats = CacheCounters.delta(before, caches.snapshot())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    raw_latencies, latencies, factors, n_probes, failures = [], [], [], [], []
    for rnd, results in done:
        with mpmath.mp.workprec(CHECK_BITS):
            verdicts = check_round(rnd, results)
        for req, (_, _, raw, fac, probes), verdict in zip(rnd.requests, results, verdicts):
            n = len(raw_latencies)
            raw_latencies.append(raw)
            latencies.append(raw * fac)
            factors.append(fac)
            n_probes.append(len(probes))
            if verdict:
                failures.append({"request": n, "kind": req.kind, "inputs": req.inputs,
                                 "reason": verdict.reason, "known": verdict.known})
    for f in failures:
        label = "known defect" if f["known"] else "FAILED"
        print(f"hzbench {args.workload}: request {f['request']} [{f['kind']}] "
              f"{f['inputs']}: {label}: {f['reason']}", file=sys.stderr)

    attempted = len(raw_latencies)
    known = sum(f["known"] for f in failures)
    unexpected = len(failures) - known
    tail_s, tail_pct = tail(latencies)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": attempted / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb,
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(lib, args.seed),
        "end_to_end": end_to_end,
        "setup_runs_s": setups,
        "setup_raw_runs_s": [raw for raw, _ in setup_runs],
        "ref_probe_s": speed.REF_PROBE_S,
        "tail_percentile": tail_pct,
        "samples": attempted,
        "rounds": len(done),
        "timed_s": elapsed,
        "request_latencies_s": latencies,
        "request_raw_latencies_s": raw_latencies,
        "request_speed_factors": factors,
        "request_probe_counts": n_probes,
        "request_kinds": [req.kind for rnd, _ in done for req in rnd.requests],
        "request_inputs": [req.inputs for rnd, _ in done for req in rnd.requests],
        "fail_ratio": len(failures) / attempted,
        "known_defects": known,
        "caches": cache_stats,
        "failures": failures,
    }
    if tracer:
        layers = tracer.layer_stats()
        per_layer = {}
        for fn, stats in spec.SPAN_STATS.items():
            for stat in stats:
                per_layer[f"{fn}.{stat}"] = layers.get(fn, {}).get(stat, 0)
        for name, c in cache_stats.items():
            per_layer[f"{name}.hit_ratio"] = c["hit_ratio"]
            per_layer[f"{name}.lookups"] = c["lookups"]
        per_layer["hankel.integrals_per_request"] = (
            layers.get("hankel.hankel_integrate", {}).get("calls", 0) / attempted
        )
        per_layer["requests.fail_ratio"] = record["fail_ratio"]
        per_layer["requests.known_defects"] = known
        record["per_layer"] = per_layer
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans)
        record["spans_file"] = os.path.relpath(spans, os.path.dirname(HERE))
        units = {n: u for n, u, _ in spec.PER_LAYER}
        metrics = {n: {"value": v, "unit": units[n]} for n, v in per_layer.items()}
    else:
        metrics = {n: {"value": v, "unit": spec.END_TO_END[n][0]}
                   for n, v in end_to_end.items()}

    print(
        f"hzbench {args.workload}: seed {args.seed}, {attempted} requests in "
        f"{len(done)} rounds, {elapsed:.2f} s timed, {unexpected} failed, "
        f"{known} known defects, fail_ratio {record['fail_ratio']:.4f}",
        file=sys.stderr,
    )
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": unexpected,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
