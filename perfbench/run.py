"""hitchin4 benchmark: one workload, end-to-end metrics or (--trace 1) per-layer metrics.

    python3 perfbench/run.py --workload exact-periods --seed 1 --seconds 25 --trace 0

Run from the repository root.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are a readable report.  Results (and spans of a traced run) are also
written to ``.perfbench-out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from clicold import cli_env  # noqa: E402
from calibrate import process_calibration  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

WORKLOADS = ("exact-periods", "group-actions", "spectral-numeric", "cli-cold")
UNITS = {"throughput_items_per_s": "items/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "completed_fraction": "fraction", "setup_s": "s"}
SETUP_REPS = 5          # fresh set-up-only workers per run; setup_s is their median
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 150
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def _environment(seed):
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "hitchin4")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    commit = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "seed": seed}


def _start(args, setup_only, spans=""):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--spans", spans]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(cli_env(ROOT), PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    return proc, t0


def _finish(proc, t0, timeout):
    """(set-up seconds, READY line, remaining stdout) of a worker; kills it
    on timeout."""
    try:
        if not select.select([proc.stdout], [], [], timeout)[0]:
            raise subprocess.TimeoutExpired(proc.args, timeout)
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker exceeded {timeout} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if not ready.startswith("READY") or proc.returncode != 0:
        raise SystemExit(f"worker failed (exit {proc.returncode})")
    return setup, ready, rest


def _timed_setups(args):
    """Set-up times of fresh set-up-only workers, raw and scaled to the
    host's quiet speed: the in-process warm-up as the worker scaled it, the
    rest (interpreter start, imports, child processes) by a reference cold
    process timed just before the worker."""
    cal = process_calibration(cli_env(ROOT), ROOT)
    out = []
    for _ in range(SETUP_REPS):
        cal.tick(force=True)
        setup, ready, _ = _finish(*_start(args, True), SETUP_TIMEOUT_S)
        warm, warm_scaled = (float(v) for v in ready.split()[1:])
        out.append((setup, (setup - warm) * cal.factor() + warm_scaled))
    return out


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the child clean-up


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(ROOT, "src", "hitchin4", "__init__.py")):
        print(f"no hitchin4 sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = _environment(args.seed)

    setups = [] if args.trace else _timed_setups(args)
    spans = os.path.join(OUT_DIR, f"{tag}-spans.jsonl") if args.trace else ""
    _, _, rest = _finish(*_start(args, False, spans), RUN_TIMEOUT_S)
    res = json.loads(rest.strip().splitlines()[-1])

    attempted = res["attempted"]
    failed = res["error"] + res["wrong"]
    if args.trace:
        metrics = res["metrics"]
    else:
        metrics = {
            "throughput_items_per_s": res["throughput"],
            "latency_p50_ms": res["latency_p50_ms"],
            "latency_p90_ms": res["latency_p90_ms"],
            "completed_fraction": res["ok"] / attempted,
            "setup_s": statistics.median(s for _, s in setups),
        }
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "attempted": attempted, "completed": res["ok"],
              "failed_error": res["error"], "failed_wrong": res["wrong"],
              "failure_reasons": res["reasons"],
              "setup_samples_s": [{"raw": r, "scaled": v} for r, v in setups],
              "latency_samples": res.get("latency_samples"), "metrics": metrics, "raw": res}
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  closed loop, 1 client, nproc {env['nproc']}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    if not args.trace:
        print(f"timed executions {res['executions']} over {attempted} distinct inputs")
    print(f"inputs attempted {attempted}  completed {res['ok']}  failed {failed} "
          f"(raised {res['error']}, wrong {res['wrong']})  "
          f"failed_fraction {failed / attempted:.6f}")
    for why, n in res["reasons"].items():
        print(f"  failure x{n}: {why}")
    units = PER_LAYER if args.trace else UNITS
    for name, v in metrics.items():
        unit = units[name]
        extra = f"  (n={res['latency_samples']})" if name.startswith("latency") else ""
        print(f"{name} = {v:.6g} {unit}{extra}")
    if not args.trace:
        print(f"peak_rss_mb = {res['peak_rss_mb']:.6g} MB  (reported, not bounded)")
        print("queue wait: not applicable (closed loop with one client, no queue)")
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
