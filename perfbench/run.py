"""qspec benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 0 --seconds 30 --trace 0

Workloads: train, landscape, dla, bounds (see workloads.py for why each
exists). The run is a closed loop of worker processes, one after another,
each one setting up the workload once and running one pass (worker.py);
workers start until ``--seconds`` is used up, with at least three (two
when tracing). Only one process generates load at a time and it runs
numpy single-threaded, so no more threads run than there are cores.

With ``--trace 0`` the metrics are, as medians over the workers:
wall_s (one pass of the workload's qspec calls, oracle checks excluded),
cpu_s (user + sys CPU over the same interval), setup_s (from starting the
process to its first timed call: interpreter, numpy and qspec imports,
input generation, warm-up) and peak_rss_mib (ru_maxrss of a process that
ran only this workload). error_rate (failed operations and checks over
those attempted) is printed with them; the result line carries it as
``failed`` / ``attempted``. With ``--trace 1`` each worker times an
untraced and then a traced pass, and the metrics are the per-layer ones
of spans.py; the count metrics must repeat exactly between the workers.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. ``--workload all`` runs the four
workloads one after another, each ending with its own result line. The benchmark exits non-zero,
without that line, when a worker cannot run (for example when the
checkout holds no qspec sources).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from spans import COUNT_METRICS, LAYERS, PER_LAYER
from worker import THREAD_VARS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("train", "landscape", "dla", "bounds")
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
MIN_WORKERS = {0: 3, 1: 2}
# every run must end within 180 s; no worker starts that could pass this
HARD_LIMIT_S = 150.0


class HarnessError(Exception):
    """A worker could not run or produced no report."""


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    # qspec's own thread pools stay at their default of one worker
    env.pop("QSPEC_THREADS", None)
    return env


def run_worker(workload: str, seed: int, trace: int, timeout: float) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0), check=False)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise HarnessError(f"unreadable worker report: {lines[-1][:200]!r}") from exc


def run_workers(workload: str, seed: int, trace: int, seconds: float) -> list:
    start = time.monotonic()
    reports = []
    while True:
        reports.append(run_worker(workload, seed, trace, start + HARD_LIMIT_S - time.monotonic()))
        elapsed = time.monotonic() - start
        per_worker = elapsed / len(reports)
        if elapsed + per_worker > HARD_LIMIT_S:
            return reports
        if len(reports) >= MIN_WORKERS[trace] and elapsed + per_worker > seconds:
            return reports


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def report(workload: str, seed: int, trace: int, seconds: float) -> int:
    """Run one workload, print its metrics and the result line."""
    try:
        reports = run_workers(workload, seed, trace, seconds)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    n = len(reports)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    failures = [f for r in reports for f in r["failures"]]

    print(f"# qspec benchmark: workload={workload} seed={seed} "
          f"trace={trace} processes={n} (one pass each, run one after another)")
    print(f"# conditions: nproc={os.cpu_count()} cpu={cpu_model()!r} "
          f"python={platform.python_version()} {reports[0]['build']}; "
          f"{'/'.join(THREAD_VARS)}=1 set before numpy import; "
          "no cache dropping and no CPU pinning (the benchmark changes no machine setting)")
    for name, unit in END_TO_END:
        values = [r[name] for r in reports]
        q1, q3 = quartiles(values)
        print(f"{name:<14} {statistics.median(values):.6g} {unit}  "
              f"(median of {n}; q1 {q1:.6g}, q3 {q3:.6g})")

    if trace:
        layers = [r["layers"] for r in reports]
        # counts are taken from the first worker; the loop below checks
        # that every other worker saw the same
        metrics = {name: {"value": layers[0][name] if name in COUNT_METRICS
                          else statistics.median(lay[name] for lay in layers), "unit": unit}
                   for name, unit, _ in PER_LAYER}
        for name in COUNT_METRICS:
            attempted += 1
            if any(lay[name] != layers[0][name] for lay in layers):
                failed += 1
                failures.append(f"count {name} differs between traced processes: "
                                f"{[lay[name] for lay in layers]}")
        wall = metrics["trace.wall_s"]["value"]
        for name, unit, _ in PER_LAYER:
            print(f"{name:<36} {metrics[name]['value']:.6g} {unit}")
        shares = ", ".join(f"{layer} {metrics[layer + '.self_s']['value'] / wall:.2f}"
                           for layer in LAYERS)
        print(f"# self time as a share of the traced pass: {shares}; "
              f"qsim.forward {metrics['qsim.forward.s']['value'] / wall:.2f}")
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in reports), "unit": unit}
                   for name, unit in END_TO_END}

    print(f"error_rate     {failed / attempted:.6g} ratio  ({failed} failed of {attempted} "
          "operations and checks attempted)")
    for f in failures:
        print(f"# failed: {f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                    help="one workload, or all four one after another")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be a nonnegative integer")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(report(w, args.seed, args.trace, args.seconds) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
