"""One benchmark process: set up one workload, run one pass, check it.

run.py starts one worker per pass, one at a time, with the BLAS and
OpenMP thread variables set to 1 in its environment, so they hold before
numpy is imported. The worker imports qspec from the checkout's ``src``,
builds the workload's inputs from the seed and warms up, then times one
untraced pass. With ``--trace 1`` it then times a second pass with every
public qspec function wrapped (see spans.py). The oracles run last, after
the peak RSS of the timed work has been read.

Prints one JSON line: setup_s (from ``--t0``, the parent's monotonic
clock just before it started this process, to the first timed call),
wall_s and cpu_s of the untraced pass, peak_rss_mib, the checks attempted
and failed, and in trace mode the per-layer metrics.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_qspec():
    """Import qspec from this checkout's src, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import qspec
    if not os.path.realpath(qspec.__file__).startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"qspec was imported from {qspec.__file__}, not from {src}")
    return qspec


def blas_info() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"numpy {np.__version__}, {blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return f"numpy {np.__version__}"


def run_pass(wl) -> tuple:
    """Run every operation; an exception fails that operation only."""
    outputs, failures = {}, []
    for name, op in wl.ops():
        try:
            outputs[name] = op()
        except Exception as exc:  # counted against error_rate, never fatal
            outputs[name] = None
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    return outputs, failures


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="monotonic clock reading when the parent started this process")
    args = ap.parse_args()
    for var in THREAD_VARS:
        if os.environ.get(var) != "1":
            raise SystemExit(f"{var} must be 1 before numpy is imported")

    import_qspec()
    import oracles
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warm_up()

    setup_s = time.monotonic() - args.t0
    cpu0, wall0 = time.process_time(), time.perf_counter()
    outputs, failures = run_pass(wl)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mib": peak_rss_mib, "build": blas_info()}
    passes = [outputs]
    checks = []
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            wall0 = time.perf_counter()
            traced, traced_failures = run_pass(wl)
            traced_wall_s = time.perf_counter() - wall0
        finally:
            tracer.uninstall()
        passes.append(traced)
        failures += traced_failures
        checks.append(("tracer_restored_originals", tracer.restored(), {}))
        layers = tracer.metrics(traced_wall_s)
        layers["trace.overhead_s"] = traced_wall_s - wall_s
        report["layers"] = layers

    for out in passes:
        checks += oracles.ORACLES[args.workload](wl, out)
    failed_checks = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    report.update({
        "attempted": len(wl.ops()) * len(passes) + len(checks),
        "failed": len(failures) + len(failed_checks),
        "failures": failures + failed_checks,
    })
    print(json.dumps(report, default=str))


if __name__ == "__main__":
    main()
