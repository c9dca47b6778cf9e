"""One benchmark process: set up one workload, print READY, then run it.

Started by run.py, which times the interval from process start to READY as
the set-up time; the READY line carries the in-process warm-up time, raw and
scaled.  Without --trace the worker runs a closed loop (one client,
next item only after the previous one is checked) for --seconds over a
fixed list of inputs drawn from the seed, and prints a JSON summary as its
last line.  With --trace it runs a fixed number of
items twice each, plain and traced, then the counting pass, and prints the
per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import tracing
from calibrate import loop_calibration

# Items per --seconds in a traced run, sized so a traced run of today's
# code takes about --seconds.  Fixed counts make calls and ratios repeat
# exactly for a seed.
TRACE_ITEMS_PER_S = {"exact-periods": 150, "group-actions": 36, "spectral-numeric": 100,
                     "cli-cold": 2.4}
# Distinct inputs per --seconds of an end-to-end run, sized so one round of
# them takes at most about half a run on a slow moment of the reference host;
# cli-cold takes its 24 inputs.
RUN_ITEMS_PER_S = {"exact-periods": 60, "group-actions": 16, "spectral-numeric": 40}
# Items in the counting pass; cli-cold counts one cycle of its inputs.
COUNT_ITEMS = {"exact-periods": 64, "group-actions": 40, "spectral-numeric": 64}
PROBE_REPS = 5


def make_workload(name, seed, root):
    """Set up one workload.  Returns it with the raw and the quiet-speed
    seconds of its in-process warm-up (generator tables, W_fin), which the
    loop calibration scales; run.py scales the rest of set-up, which starts
    processes and loads modules, by the process calibration.  cli-cold warms
    up through a child process and reports 0."""
    if name == "cli-cold":
        import clicold

        wl = clicold.CliCold(seed, root)
        wl.warm()
        return wl, 0.0, 0.0
    import inproc
    from hitchin4 import coxeter

    cal = loop_calibration()
    cal.fill()
    t0 = time.perf_counter()
    # caches a long-lived session fills once: the generator tables and W_fin
    for i in range(5):
        coxeter.generator(i)
        coxeter.target_generator(i)
    coxeter.enumerate_W_fin()
    wl = inproc.WORKLOADS[name](seed)
    warm = time.perf_counter() - t0
    cal.fill()
    return wl, warm, warm * cal.nominal / statistics.median(cal.samples)


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_inputs(wl, name, seconds):
    """Number of distinct inputs an end-to-end run draws: whole cycles of the
    input mix, about RUN_ITEMS_PER_S per second of the run."""
    rate = RUN_ITEMS_PER_S.get(name)
    if rate is None:
        return wl.cycle
    return wl.cycle * max(1, math.ceil(seconds * rate / wl.cycle))


def latency_quantiles(sample):
    """Harrell-Davis estimates of the median and the 90th percentile: a
    Beta-weighted mean of all order statistics.  Item costs cluster (word
    lengths are whole letters, denominators small or large), and a plain
    order statistic that falls between two clusters jumps between them from
    run to run; the weighted mean moves smoothly."""
    from scipy.stats.mstats import hdquantiles

    if len(sample) == 1:
        return sample[0], sample[0]
    return tuple(float(v) for v in hdquantiles(sample, prob=(0.5, 0.9)))


def timed_loop(wl, name, seconds):
    """Closed loop for ``seconds`` over a fixed list of distinct inputs drawn
    from the seed, taken in turn and round again; every execution is checked.
    Inputs the loop did not reach run once after it, untimed, so that every
    input is checked: ``attempted`` and the failure counts are over distinct
    inputs, and an input fails if any of its executions fails.  Latencies
    are scaled to the host's quiet speed (see calibrate.py); raw figures are
    kept too."""
    inputs = [wl.next_item() for _ in range(run_inputs(wl, name, seconds))]
    n = len(inputs)
    latencies = [[] for _ in inputs]
    status = [None] * n
    reasons = [None] * n

    def record(i, out):
        st, why = wl.check(inputs[i], out)
        if status[i] in (None, "ok"):
            status[i], reasons[i] = st, why

    raw = 0.0
    cal = wl.calibration()
    cal.fill()
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds:
        i = k % n
        cal.tick()
        t0 = time.perf_counter()
        out = wl.run(inputs[i])
        dt = time.perf_counter() - t0
        raw += dt
        latencies[i].append(dt * cal.factor())
        record(i, out)
        k += 1
    for i in range(k, n):  # inputs the timed loop did not reach
        record(i, wl.run(inputs[i]))
    # Each timed input weighs once, by the median of its executions, so the
    # partial last round does not tilt the item mix.
    timed = [i for i in range(n) if latencies[i]]
    sample = [statistics.median(latencies[i]) for i in timed]
    rss = peak_rss_mb(children=not wl.in_process)  # before scipy loads
    p50, p90 = latency_quantiles(sample)
    counts = Counter(status)
    return {
        "attempted": n,
        "ok": counts["ok"], "error": counts["error"], "wrong": counts["wrong"],
        "executions": k,
        "throughput": sum(status[i] == "ok" for i in timed) / sum(sample),
        "latency_p50_ms": p50 * 1e3, "latency_p90_ms": p90 * 1e3,
        "latency_samples": len(sample),
        "peak_rss_mb": rss,
        "reasons": dict(Counter(r for r in reasons if r).most_common()),
        "raw_timed_s": raw,
        "calibration_median_ms": statistics.median(cal.samples) * 1e3,
    }


def _probe_ms(code, root):
    """Median wall (ms) of a fresh interpreter running ``code``; if it prints
    a number, that number (seconds) is taken instead."""
    import clicold

    vals = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=clicold.cli_env(root), cwd=root, timeout=60, check=True)
        wall = time.perf_counter() - t0
        vals.append(float(p.stdout) if p.stdout.strip() else wall)
    return statistics.median(vals) * 1e3


def traced_loop(wl, name, seconds, root, spans_path):
    items = [wl.next_item() for _ in range(max(1, round(seconds * TRACE_ITEMS_PER_S[name])))]
    tracer = tracing.Tracer()
    if wl.in_process:
        tracer.prepare()
    plain_ns = traced_ns = 0
    status = Counter()
    reasons = Counter()
    ratios = Counter()
    for k, item in enumerate(items):
        kind = wl.kind(item)
        for traced in ((False, True) if k % 2 else (True, False)):
            if traced:
                tracer.install()
                idx = tracer.begin(f"item.{kind}", k)
                out = wl.run(item)
                tracer.end()
                tracer.uninstall()
                traced_ns += tracer.spans[idx][2] - tracer.spans[idx][1]
                ratios.update(wl.counters(item, out))
            else:
                t0 = time.perf_counter_ns()
                out = wl.run(item)
                plain_ns += time.perf_counter_ns() - t0
            st, why = wl.check(item, out)
            if traced:
                status[st] += 1
                if why:
                    reasons[why] += 1
            elif st == "wrong":
                status["wrong_untraced"] += 1
    metrics = dict.fromkeys(tracing.PER_LAYER, 0.0)
    metrics.update(tracer.layer_stats())
    for key, (num, den, _) in tracing.RATIOS.items():
        metrics[key] = ratios[num] / ratios[den] if ratios[den] else 0.0
    metrics["trace.overhead_fraction"] = traced_ns / plain_ns - 1 if plain_ns else 0.0
    count_items = items[:COUNT_ITEMS.get(name, wl.cycle)]
    if wl.in_process:
        metrics.update(tracing.count_constructions(wl.run, count_items))
    else:
        import hitchin4.cli  # noqa: F401  (counts cover the command, not the import)

        metrics.update(tracing.count_constructions(wl.run_in_process, count_items))
        metrics["cli.interpreter_ms"] = _probe_ms("pass", root)
        metrics["cli.import_ms"] = _probe_ms(
            "import time; t = time.perf_counter(); import hitchin4; "
            "print(time.perf_counter() - t)", root)
        walls = {}
        for rec in tracer.spans:
            walls.setdefault(rec[0][len("item."):], []).append((rec[2] - rec[1]) / 1e6)
        for group, vals in walls.items():
            metrics[f"cli.{group}.wall_ms"] = statistics.median(vals)
    tracer.dump(spans_path)
    return {
        "attempted": len(items),
        "ok": status["ok"], "error": status["error"],
        "wrong": status["wrong"] + status["wrong_untraced"],
        "reasons": dict(reasons.most_common()),
        "metrics": metrics,
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the child clean-up


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--spans", default="")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    wl, warm, warm_scaled = make_workload(args.workload, args.seed, args.root)
    print(f"READY {warm!r} {warm_scaled!r}", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced_loop(wl, args.workload, args.seconds, args.root, args.spans)
    else:
        result = timed_loop(wl, args.workload, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
