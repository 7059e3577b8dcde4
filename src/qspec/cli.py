"""Command-line interface.

Subcommands: spectrum, bounds {lower, upper, limit}, dla, train, variance,
selftest. Output is JSON (default) or CSV on stdout or --out, always with
a run manifest (subcommand, package version, resolved options,
duration). Exit codes: 0 success, 1 computation error, 2 usage error.
Floats are printed with 17 significant digits, so equal numbers render as
equal bytes.
"""

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .bounds import (SobolevParams, _jackson_factors, limit_probe, minimax_lower_curve,
                     unit_ball_sweep)
from .checks import battery
from .dla import CLOSURE_TOL, pauli_expr_report
from .experiments import (MAX_VARIANCE_SAMPLES, TrainConfig, analytic_variance_oracle,
                          fast_profile, load_train_config, spectrum_matching_experiment,
                          variance_sweep)
from .linalg import QspecError
from .spectrum import DEDUP_TOL, NonCommensurate, envelope, gap_set, normalize_gaps

# flags whose values may start with a minus sign; argparse needs them glued
_MERGE_FLAGS = ("--eigs", "--weights", "--K", "--pairs", "--seeds", "--paulis")


# ---------------------------------------------------------------- rendering

def format_float(x: float) -> str:
    """17 significant digits: enough to round-trip a double exactly.

    Non-finite values have no JSON form, so no output may carry them.
    """
    f = float(x)
    if not np.isfinite(f):
        raise QspecError(f"result holds a non-finite value ({f!r})")
    return format(f, ".17g")


def _scalar_json(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"cannot serialize {type(v).__name__}")


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, %.17g floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(f'{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}'
                          for k, v in obj.items())
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        nested = any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in items)
        if not nested:
            return "[" + ", ".join(_scalar_json(v) for v in items) + "]"
        body = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in items)
        return "[\n" + body + "\n" + pad + "]"
    return _scalar_json(obj)


def _csv_cell(v) -> str:
    s = v if isinstance(v, str) else "" if v is None else _scalar_json(v)
    if any(ch in s for ch in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s


def _flatten(obj, prefix: str = ""):
    """Depth-first (key, value) pairs with dotted paths and list indices."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}[{i}]")
    else:
        yield prefix, obj


def render_csv(manifest: dict, header, rows) -> str:
    """Two sections: '# manifest' key,value lines then a '# result' table."""
    lines = ["# manifest"] + [f"{_csv_cell(key)},{_csv_cell(val)}"
                              for key, val in _flatten(manifest)]
    lines += ["# result"] + [",".join(_csv_cell(c) for c in row) for row in [header, *rows]]
    return "\n".join(lines) + "\n"


def _generic_rows(result: dict):
    return [(k, "", v) for k, v in _flatten(result)]


# ------------------------------------------------------------------ parsing

def _list_of(kind, noun: str):
    """argparse type: comma-separated values of kind, empty items skipped."""
    def parse(text: str) -> list:
        try:
            return [kind(tok) for tok in text.split(",") if tok.strip() != ""]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {noun}, got {text!r}") from exc
    return parse


def _rd_pair(tok: str) -> tuple:
    r, sep, d = tok.partition(":")
    if not sep:
        raise ValueError(f"expected r:d, got {tok!r}")
    return float(r), int(d)


_float_list = _list_of(float, "numbers")
_int_list = _list_of(int, "integers")
_rd_list = _list_of(_rd_pair, "r:d pairs")


def _rd_pairs(text: str) -> list:
    """Pairs "r:d,r:d" for the limit probe, at least one."""
    pairs = _rd_list(text)
    if not pairs:
        raise argparse.ArgumentTypeError("need at least one r:d pair")
    return pairs


def normalize_argv(argv) -> list:
    """Glue values onto flags whose arguments can start with '-'."""
    out = []
    for tok in argv:
        if out and out[-1] in _MERGE_FLAGS:   # a flag still waiting for its value
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


# ------------------------------------------------------------- subcommands

def _cmd_spectrum(ns) -> dict:
    per_param = []
    normalized = []
    for eigs in ns.eigs:
        gs = gap_set(eigs, tol=ns.tol)
        entry = {"eigs": list(eigs), "gaps": list(gs.gaps), "omega_max": gs.omega_max}
        try:
            ng = normalize_gaps(gs, tol=ns.tol)
            entry["gamma"] = ng.gamma
            entry["int_gaps"] = [int(v) for v in ng.int_gaps]
            entry["commensurate"] = True
            normalized.append(ng)
        except NonCommensurate as exc:
            entry["commensurate"] = False
            entry["detail"] = str(exc)
        per_param.append(entry)
    env = envelope(normalized) if len(normalized) == len(per_param) else None
    return {"per_param": per_param, "envelope": None if env is None else {
        "d": env.d, "K_l2": env.k_l2, "K_l1": env.k_l1, "K_cov": env.k_cov}}


def _cmd_bounds_lower(ns) -> dict:
    params = SobolevParams(d=ns.d, r=ns.r)
    errors, slope, ref = minimax_lower_curve(params, ns.K)
    return {"d": ns.d, "r": ns.r, "K": list(ns.K), "witness_errors": list(errors),
            "fitted_slope": slope, "reference_exponent": ref}


def _bounds_lower_rows(result: dict) -> list:
    rows = [("K", k, e) for k, e in zip(result["K"], result["witness_errors"])]
    return rows + [(key, "", result[key]) for key in ("fitted_slope", "reference_exponent")]


def _cmd_bounds_upper(ns) -> dict:
    params = SobolevParams(d=ns.d, r=ns.r)
    errors, rigorous, reference = unit_ball_sweep(params, ns.K, ns.count, ns.max_freq,
                                                  ns.modes, ns.seed)
    # largest error / bound over the positive bounds, and at least 0
    worst, empirical = (max(0.0, float(np.divide(errors, bound, out=np.zeros_like(bound),
                                                 where=bound > 0).max()))
                        for bound in (rigorous, reference))
    return {"d": ns.d, "r": ns.r, "K": list(ns.K), "series_count": ns.count,
            "max_truncation_error": list(errors.max(axis=0)),
            "rigorous_bound": [factor for factor, _ in _jackson_factors(params, ns.K)],
            "worst_ratio": worst, "bound_holds": bool(worst <= 1.0 + 1e-12),
            "empirical_reference_constant": empirical}


def _cmd_bounds_limit(ns) -> dict:
    return {"pairs": ns.pairs, "values": list(limit_probe(ns.pairs))}


def _cmd_dla(ns) -> dict:
    exprs = [expr for expr in ns.paulis.split(";") if expr.strip()]
    return {"generator_count": len(exprs), **vars(pauli_expr_report(exprs, tol=ns.tol))}


def _cmd_train(ns) -> dict:
    cfg = load_train_config(ns.config) if ns.config else TrainConfig()
    if ns.fast:
        cfg = fast_profile(cfg)
    if ns.seeds is not None:
        cfg = replace(cfg, seeds=tuple(ns.seeds))
    return spectrum_matching_experiment(cfg).to_dict()


def _train_rows(result: dict) -> list:
    bs = [(b, repr(b)) for b in result["b_models"]]   # the per-b tables' keys
    rows = [(seed, f"rmse_b{b:g}", v) for b, key in bs
            for seed, v in zip(result["seeds"], result["rmse"][key])]
    for b, key in bs:
        rows += [("summary", f"mean_rmse_b{b:g}", result["means"][key]),
                 ("summary", f"std_rmse_b{b:g}", result["stds"][key])]
    return rows + [("summary", "wilcoxon_p", result["wilcoxon_p"])]


def _cmd_variance(ns) -> dict:
    result = variance_sweep(ns.weights, ns.samples, ns.seed).to_dict()
    result["analytic_variances"] = [analytic_variance_oracle(w) for w in result["weights"]]
    return result


def _cmd_selftest(ns) -> dict:
    checks = battery(ns.seed, ns.full)
    for c in checks:
        print(f"[{'pass' if c['passed'] else 'FAIL'}] {c['name']}", file=sys.stderr)
    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}


def _selftest_rows(result: dict) -> list:
    rows = [(c["name"], "passed", c["passed"]) for c in result["checks"]]
    return rows + [("all", "passed", result["all_passed"])]


# ------------------------------------------------------------------ driver

@functools.cache   # one parser per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qspec", allow_abbrev=False,
        description="Fourier-spectrum, approximation-bound, and Lie-algebra "
                    "diagnostics for parameterized quantum circuits")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, seed=False):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write the report to a file")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("spectrum", allow_abbrev=False, help="gap sets and frequency envelope")
    p.add_argument("--eigs", type=_float_list, action="append", required=True,
                   help="comma-separated eigenvalues; repeat per parameter")
    p.add_argument("--tol", type=float, default=DEDUP_TOL)
    common(p)

    pb = sub.add_parser("bounds", allow_abbrev=False, help="approximation error bounds")
    bsub = pb.add_subparsers(dest="bounds_mode", required=True)

    p = bsub.add_parser("lower", allow_abbrev=False,
                        help="annulus-witness truncation errors and slope")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--K", type=_float_list, default=[4.0, 8.0, 16.0, 32.0, 64.0])
    common(p)

    p = bsub.add_parser("upper", allow_abbrev=False, help="tail bound on random unit-ball series")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--K", type=_float_list, default=[float(k) for k in range(1, 9)])
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--max-freq", type=int, default=8)
    p.add_argument("--modes", type=int, default=12)
    common(p, seed=True)

    p = bsub.add_parser("limit", allow_abbrev=False, help="reference exponent in the large-d limit")
    p.add_argument("--pairs", type=_rd_pairs, required=True,
                   help="comma-separated r:d pairs, e.g. 2.5:1,3:4")
    common(p)

    p = sub.add_parser("dla", allow_abbrev=False, help="Lie closure, center, derived algebra, eta")
    p.add_argument("--paulis", required=True,
                   help="semicolon-separated generators, each a weighted "
                        "Pauli-string sum like '0.5*IY+II; IZ'")
    p.add_argument("--tol", type=float, default=CLOSURE_TOL)
    common(p)

    p = sub.add_parser("train", allow_abbrev=False, help="spectrum-matching training study")
    p.add_argument("--config", default=None, help="key=value or JSON config file")
    p.add_argument("--fast", action="store_true",
                   help="reduced profile: 200 samples, 100 epochs, 6 seeds")
    p.add_argument("--seeds", type=_int_list, default=None,
                   help="override experiment seeds, comma-separated")
    common(p)

    p = sub.add_parser("variance", allow_abbrev=False, help="gradient variance vs identity weight")
    p.add_argument("--weights", type=_float_list,
                   default=[0.0, 0.25, 0.5, 0.75, 1.0])
    p.add_argument("--samples", type=int, default=50,
                   help=f"gradient samples per weight, at most {MAX_VARIANCE_SAMPLES}")
    common(p, seed=True)

    p = sub.add_parser("selftest", allow_abbrev=False, help="run the acceptance battery")
    p.add_argument("--full", action="store_true",
                   help="train at full scale (about 25 s)")
    common(p, seed=True)

    return parser


class _Command(NamedTuple):
    """A handler, options -> result, and the CSV table of its result."""

    run: Callable
    header: tuple = ("key", "index", "value")
    rows: Callable = _generic_rows


_COMMANDS = {
    "spectrum": _Command(_cmd_spectrum),
    "bounds lower": _Command(_cmd_bounds_lower, rows=_bounds_lower_rows),
    "bounds upper": _Command(_cmd_bounds_upper),
    "bounds limit": _Command(_cmd_bounds_limit, ("pair", "index", "value"), lambda res: [
        (f"{r:g}:{d}", "", v) for (r, d), v in zip(res["pairs"], res["values"])]),
    "dla": _Command(_cmd_dla),
    "train": _Command(_cmd_train, ("seed", "metric", "value"), _train_rows),
    "variance": _Command(_cmd_variance, ("weight", "variance", "eta"),
                         lambda res: list(zip(res["weights"], res["variances"], res["etas"]))),
    "selftest": _Command(_cmd_selftest, ("check", "metric", "value"), _selftest_rows),
}


def _manifest(ns, label: str, duration_s: float) -> dict:
    options = {key: getattr(ns, key)
               for key in sorted(set(vars(ns)) - {"subcommand", "bounds_mode", "out", "format"})}
    return {"subcommand": label, "version": __version__, "format": ns.format,
            "options": options, "duration_s": duration_s}


def _check_out(path) -> None:
    """Reject an --out path that cannot be a new file, before any work."""
    if path is None:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise QspecError(f"--out directory does not exist: {parent}")
    if os.path.isdir(path):
        raise QspecError(f"--out names a directory: {path}")


def dispatch(argv=None) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    argv = normalize_argv(list(sys.argv[1:] if argv is None else argv))
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return 0 if code == 0 else 2

    label = f"bounds {ns.bounds_mode}" if ns.subcommand == "bounds" else ns.subcommand

    started = time.perf_counter()
    try:
        _check_out(ns.out)
        command = _COMMANDS[label]
        # a non-finite result fails in rendering, so numpy's floating-point
        # warnings would only add lines before the error
        with np.errstate(all="ignore"):
            result = command.run(ns)
        manifest = _manifest(ns, label, time.perf_counter() - started)
        if ns.format == "json":
            text = render_json({"manifest": manifest, "result": result}) + "\n"
        else:
            text = render_csv(manifest, command.header, command.rows(result))
    except (QspecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    if ns.subcommand == "selftest" and not result["all_passed"]:
        return 1
    return 0


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
