"""Command-line interface.

Subcommands: spectrum, bounds {lower, upper, limit}, dla, train, variance,
selftest. Output is JSON (default) or CSV on stdout or --out, always with
a run manifest (subcommand, package version, resolved options,
duration). Exit codes: 0 success, 1 computation error, 2 usage error.
Floats are printed with 17 significant digits, so equal numbers render as
equal bytes.
"""

import argparse
import json
import os
import re
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .bounds import (SobolevParams, jackson_upper, limit_probe,
                     minimax_lower_curve, random_unit_ball_series,
                     truncation_error)
from .dla import CLOSURE_TOL, MAX_DLA_SIDE, dla_report
from .experiments import (MAX_VARIANCE_SAMPLES, TrainConfig, analytic_variance_oracle,
                          fast_profile, load_train_config, spectrum_matching_experiment,
                          variance_sweep, wilcoxon_exact)
from .linalg import QspecError, complex_gaussians, rng_stream, unitary_from_generator
from .qsim import make_generator, pauli_matrix, trig_poly_coeffs
from .spectrum import (DEDUP_TOL, NonCommensurate, coverage_radius, coverage_radius_box,
                       envelope, gap_set, normalize_gaps)

# flags whose values may start with a minus sign; argparse needs them glued
_MERGE_FLAGS = ("--eigs", "--weights", "--K", "--pairs")


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
        if not items:
            return "[]"
        nested = any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in items)
        if not nested:
            return "[" + ", ".join(_scalar_json(v) for v in items) + "]"
        body = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in items)
        return "[\n" + body + "\n" + pad + "]"
    return _scalar_json(obj)


def _csv_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        s = format_float(v)
    elif isinstance(v, (bool, np.bool_)):
        s = "true" if v else "false"
    elif v is None:
        s = ""
    else:
        s = str(v)
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
    lines = ["# manifest"]
    for key, val in _flatten(manifest):
        lines.append(f"{_csv_cell(key)},{_csv_cell(val)}")
    lines.append("# result")
    lines.append(",".join(_csv_cell(h) for h in header))
    for row in rows:
        lines.append(",".join(_csv_cell(c) for c in row))
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


def parse_pauli_expr(expr: str) -> np.ndarray:
    """Weighted Pauli-string sum, e.g. "0.5*IY + II" or "Z".

    A string whose matrix side would exceed MAX_DLA_SIDE is rejected
    before its matrix is built. Every character must belong to a term: an
    empty term or a stray sign ("X-", "X--Y", "-") is a ValueError.
    """
    s = expr.replace(" ", "")
    if not s:
        raise ValueError("empty generator expression")
    # protect exponent signs (1e-3, 2E+5) before splitting on +/-
    s = re.sub(r"([0-9.])[eE]-", r"\1#m", s)
    s = re.sub(r"([0-9.])[eE]\+", r"\1#p", s)
    # nonempty terms joined by single signs
    if not re.fullmatch(r"[+-]?[^+-]+(?:[+-][^+-]+)*", s):
        raise ValueError(f"empty term or stray sign in generator expression {expr!r}")
    total = None
    for term in re.findall(r"[+-]?[^+-]+", s):
        sign = 1.0
        if term[0] in "+-":
            sign = -1.0 if term[0] == "-" else 1.0
            term = term[1:]
        term = term.replace("#m", "e-").replace("#p", "e+")
        coeff_s, sep, label = term.partition("*")
        if sep:
            coeff = float(coeff_s)
        else:
            coeff, label = 1.0, term
        if 1 << len(label) > MAX_DLA_SIDE:
            raise ValueError(f"term {label!r} acts on {len(label)} qubits; dla takes at most "
                             f"{MAX_DLA_SIDE.bit_length() - 1}")
        mat = sign * coeff * pauli_matrix(label)
        if total is not None and total.shape != mat.shape:
            raise ValueError(f"term {label!r} acts on a different qubit count")
        total = mat if total is None else total + mat
    return total


def normalize_argv(argv) -> list:
    """Glue values onto flags whose arguments can start with '-'."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _MERGE_FLAGS and i + 1 < len(argv):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


# ------------------------------------------------------------- subcommands

def _cmd_spectrum(ns) -> tuple[dict, object]:
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
    result = {"per_param": per_param}
    if len(normalized) == len(per_param):
        env = envelope(normalized)
        result["envelope"] = {"d": env.d, "K_l2": env.k_l2,
                              "K_l1": env.k_l1, "K_cov": env.k_cov}
    else:
        result["envelope"] = None
    return result, _generic_rows(result)


def _cmd_bounds_lower(ns) -> tuple[dict, object]:
    params = SobolevParams(d=ns.d, r=ns.r)
    errors, slope, ref = minimax_lower_curve(params, ns.K)
    result = {"d": ns.d, "r": ns.r, "K": list(ns.K),
              "witness_errors": list(errors),
              "fitted_slope": slope,
              "reference_exponent": ref}
    rows = [("K", k, e) for k, e in zip(ns.K, errors)]
    rows.append(("fitted_slope", "", slope))
    rows.append(("reference_exponent", "", ref))
    return result, rows


def _cmd_bounds_upper(ns) -> tuple[dict, object]:
    if ns.count < 1 or not ns.K:
        raise QspecError("bounds upper needs --count >= 1 and at least one K")
    params = SobolevParams(d=ns.d, r=ns.r)
    worst_ratio = 0.0
    empirical_c = 0.0
    max_err = [0.0] * len(ns.K)
    for i in range(ns.count):
        series = random_unit_ball_series(params, ns.max_freq, ns.modes, ns.seed + i)
        bounds = jackson_upper(series, params, ns.K)
        for j, (k, (rig, ref)) in enumerate(zip(ns.K, bounds)):
            err = truncation_error(series, k)
            worst_ratio = max(worst_ratio, err / rig if rig > 0 else 0.0)
            empirical_c = max(empirical_c, err / ref if ref > 0 else 0.0)
            max_err[j] = max(max_err[j], err)
    result = {"d": ns.d, "r": ns.r, "K": list(ns.K),
              "series_count": ns.count,
              "max_truncation_error": max_err,
              "rigorous_bound": [(1.0 + k * k) ** (-ns.r / 2) for k in ns.K],
              "worst_ratio": worst_ratio,
              "bound_holds": bool(worst_ratio <= 1.0 + 1e-12),
              "empirical_reference_constant": empirical_c}
    return result, _generic_rows(result)


def _cmd_bounds_limit(ns) -> tuple[dict, object]:
    values = limit_probe(ns.pairs)
    result = {"pairs": [[r, d] for r, d in ns.pairs], "values": list(values)}
    rows = [(f"{r:g}:{d}", "", v) for (r, d), v in zip(ns.pairs, values)]
    return result, rows


def _cmd_dla(ns) -> tuple[dict, object]:
    generators = [parse_pauli_expr(expr) for expr in ns.paulis.split(";") if expr.strip()]
    if not generators:
        raise QspecError("no generator expressions given")
    report = dla_report(generators, tol=ns.tol)
    result = {"generator_count": len(generators),
              "dim": report.dim,
              "center_dim": report.center_dim,
              "derived_dim": report.derived_dim,
              "eta_per_generator": list(report.eta_per_generator)}
    return result, _generic_rows(result)


def _cmd_train(ns) -> tuple[dict, object]:
    if ns.config:
        cfg = load_train_config(ns.config)
    else:
        cfg = TrainConfig()
    if ns.fast:
        cfg = fast_profile(cfg)
    if ns.seeds is not None:
        cfg = replace(cfg, seeds=tuple(ns.seeds))
    report = spectrum_matching_experiment(cfg)
    result = report.to_dict()
    rows = []
    for b in report.b_models:
        for seed, v in zip(report.seeds, report.rmse[b]):
            rows.append((seed, f"rmse_b{b:g}", v))
    for b in report.b_models:
        rows.append(("summary", f"mean_rmse_b{b:g}", report.means[b]))
        rows.append(("summary", f"std_rmse_b{b:g}", report.stds[b]))
    rows.append(("summary", "wilcoxon_p", report.wilcoxon_p))
    return result, rows


def _cmd_variance(ns) -> tuple[dict, object]:
    report = variance_sweep(ns.weights, ns.samples, ns.seed)
    result = report.to_dict()
    result["analytic_variances"] = [analytic_variance_oracle(w) for w in report.weights]
    rows = list(zip(report.weights, report.variances, report.etas))
    return result, rows


# -------------------------------------------------------------- selftest

def _check(name: str, passed: bool, **observed) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    entry.update(observed)
    return entry


def _selftest_reconstruction(seed: int) -> list:
    worst_recon = 0.0
    worst_support = 0.0
    worst_conj = 0.0
    thetas = np.linspace(-3.0, 3.0, 25)
    for i in range(20):
        h = make_generator(8, 10.0, rng_stream(seed, 0, i).integers(0, 2 ** 32))
        obs = make_generator(8, 1.0, rng_stream(seed, 1, i).integers(0, 2 ** 32))
        phi = complex_gaussians(rng_stream(seed, 2, i), 8)
        phi = phi / np.linalg.norm(phi)
        coeffs = trig_poly_coeffs(h, phi, obs)
        gaps = gap_set(np.linalg.eigvalsh(h)).gaps
        for t in thetas:
            direct = float(np.real(phi.conj() @ _heisenberg(h, t, obs) @ phi))
            recon = float(np.real(sum(a * np.exp(-1j * t * w) for w, a in coeffs.items())))
            worst_recon = max(worst_recon, abs(direct - recon))
        for w, a in coeffs.items():
            if abs(a) > 1e-12:
                worst_support = max(worst_support, float(np.min(np.abs(gaps - w))))
            mirror = min(coeffs, key=lambda u: abs(u + w))
            worst_conj = max(worst_conj, abs(coeffs[mirror] - np.conj(a)))
    return [
        _check("trig_reconstruction_matches_simulation", worst_recon <= 1e-9,
               max_abs_deviation=worst_recon, instances=20),
        _check("coeff_support_within_gap_set", worst_support <= 1e-9,
               max_gap_distance=worst_support),
        _check("conjugate_symmetry", worst_conj <= 1e-10,
               max_asymmetry=worst_conj),
    ]


def _heisenberg(h: np.ndarray, t: float, obs: np.ndarray) -> np.ndarray:
    u = unitary_from_generator(h, t)
    return u.conj().T @ obs @ u


def _selftest_bounds(seed: int) -> list:
    p1 = SobolevParams(d=1, r=2.0)
    _, slope1, ref1 = minimax_lower_curve(p1, [4, 8, 16, 32, 64])
    p2 = SobolevParams(d=2, r=2.0)
    _, slope2, ref2 = minimax_lower_curve(p2, [4, 8, 16, 32])
    checks = [
        _check("lower_bound_slope_d1", abs(slope1 - (-2.0)) <= 0.1,
               fitted_slope=slope1, reference_exponent=ref1),
        _check("lower_bound_slope_d2", abs(slope2 - (-2.0)) <= 0.2,
               fitted_slope=slope2, reference_exponent=ref2),
    ]
    params = SobolevParams(d=2, r=2.0)
    worst = 0.0
    ks = range(1, 9)
    for i in range(20):
        series = random_unit_ball_series(params, 8, 12, seed + 1000 + i)
        for k, (rig, _) in zip(ks, jackson_upper(series, params, ks)):
            err = truncation_error(series, k)
            worst = max(worst, err - rig)
    checks.append(_check("upper_bound_holds", worst <= 1e-12,
                         max_violation=worst, series_count=20))
    return checks


def _selftest_coverage(seed: int) -> list:
    from .spectrum import NormalizedGapSet

    def ng(ints):
        return NormalizedGapSet(gamma=1.0, int_gaps=np.array(sorted(ints)))

    full = ng(range(-1, 2))
    ex_ok = (coverage_radius([full, full]) == 2.0
             and coverage_radius([ng([0]), ng(range(-5, 6))]) == 1.0
             and coverage_radius([ng(range(-2, 3))] * 2) == 3.0)
    gen = rng_stream(seed, 3)
    worst = 0.0
    for _ in range(25):
        d = int(gen.integers(1, 4))
        params = []
        for _ in range(d):
            width = int(gen.integers(0, 4))
            ints = {0}
            for v in range(1, width + 1):
                if gen.random() < 0.7:
                    ints.add(v)
                    ints.add(-v)
            params.append(ng(ints))
        worst = max(worst, abs(coverage_radius(params) - coverage_radius_box(params)))
    return [
        _check("coverage_radius_examples", ex_ok),
        _check("coverage_radius_matches_box_scan", worst == 0.0,
               max_abs_difference=worst, cases=25),
    ]


def _selftest_variance(seed: int) -> list:
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    rep_small = variance_sweep(grid, 50, seed)
    nondecreasing = all(b >= a - 1e-12 for a, b in
                        zip(rep_small.variances, rep_small.variances[1:]))
    eta_exact = max(abs(e - 2.0 / np.sqrt(1.0 + w * w))
                    for w, e in zip(rep_small.weights, rep_small.etas))
    etas_decreasing = all(b < a for a, b in zip(rep_small.etas, rep_small.etas[1:]))
    zero_exact = rep_small.variances[0] == 0.0

    mc_grid = [0.1 * k for k in range(1, 11)]
    rep_mc = variance_sweep(mc_grid, 100000, seed)
    rel = max(abs(v - analytic_variance_oracle(w)) / analytic_variance_oracle(w)
              for w, v in zip(rep_mc.weights, rep_mc.variances))
    return [
        _check("variance_monotone_50_samples", nondecreasing,
               variances=list(rep_small.variances)),
        _check("variance_zero_weight_exact", zero_exact),
        _check("eta_closed_form", eta_exact <= 1e-12 and etas_decreasing,
               max_abs_error=eta_exact),
        _check("variance_matches_oracle_1e5", rel <= 0.02,
               max_rel_error=rel, samples=100000),
    ]


def _selftest_train(full: bool) -> list:
    cfg = TrainConfig() if full else TrainConfig.fast()
    report = spectrum_matching_experiment(cfg)
    m = report.means
    ordered = m[10.0] < m[1.0] < m[0.1]
    checks = [_check("train_rmse_ordering", ordered,
                     profile="full" if full else "fast",
                     mean_rmse={repr(b): m[b] for b in report.b_models},
                     wilcoxon_p=report.wilcoxon_p)]
    if full:
        checks.append(_check("train_wilcoxon_significant",
                             report.wilcoxon_p is not None and report.wilcoxon_p <= 0.05,
                             wilcoxon_p=report.wilcoxon_p))
    return checks


def _selftest_stats() -> list:
    p_all_pos = wilcoxon_exact([(float(i + 1), 0.0) for i in range(10)])
    p_mirror = wilcoxon_exact([(1.0, 0.0), (0.0, 1.0)])
    return [
        _check("wilcoxon_ten_positive", abs(p_all_pos - 2.0 / 1024.0) < 1e-15,
               p=p_all_pos),
        _check("wilcoxon_mirrored_pair_capped", p_mirror == 1.0, p=p_mirror),
    ]


def _selftest_dla() -> list:
    from .dla import center_basis, derived_algebra, eta, lie_closure

    z = pauli_matrix("Z")
    x = pauli_matrix("X")
    y = pauli_matrix("Y")
    dims_ok = (len(lie_closure([z])) == 1
               and len(lie_closure([x, y])) == 3
               and len(lie_closure([pauli_matrix("ZI"), pauli_matrix("IZ")])) == 2)
    u2 = lie_closure([np.eye(2), x, y, z])
    u2_ok = (len(u2) == 4 and len(center_basis(u2)) == 1
             and len(derived_algebra(u2)) == 3)
    eta_ok = (eta(np.eye(4)) == 2.0
              and eta(pauli_matrix("XX")) == 0.0
              and abs(eta(0.5 * pauli_matrix("IY") + pauli_matrix("II"))
                      - 2.0 / np.sqrt(1.25)) <= 1e-15)
    return [
        _check("lie_closure_dimensions", dims_ok),
        _check("u2_center_and_derived", u2_ok),
        _check("eta_examples", eta_ok),
    ]


def _cmd_selftest(ns) -> tuple[dict, object]:
    checks = []
    checks.extend(_selftest_reconstruction(ns.seed))
    checks.extend(_selftest_bounds(ns.seed))
    checks.extend(_selftest_coverage(ns.seed))
    checks.extend(_selftest_variance(ns.seed))
    checks.extend(_selftest_stats())
    checks.extend(_selftest_dla())
    checks.extend(_selftest_train(ns.full))
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}", file=sys.stderr)
    result = {"checks": checks, "all_passed": all(c["passed"] for c in checks)}
    rows = [(c["name"], "passed", c["passed"]) for c in checks]
    rows.append(("all", "passed", result["all_passed"]))
    return result, rows


# ------------------------------------------------------------------ driver

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


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "dla": _cmd_dla,
    "train": _cmd_train,
    "variance": _cmd_variance,
    "selftest": _cmd_selftest,
}

_BOUNDS_HANDLERS = {
    "lower": _cmd_bounds_lower,
    "upper": _cmd_bounds_upper,
    "limit": _cmd_bounds_limit,
}

# headers for the CSV result tables
_CSV_HEADERS = {
    "spectrum": ("key", "index", "value"),
    "bounds lower": ("key", "index", "value"),
    "bounds upper": ("key", "index", "value"),
    "bounds limit": ("pair", "index", "value"),
    "dla": ("key", "index", "value"),
    "train": ("seed", "metric", "value"),
    "variance": ("weight", "variance", "eta"),
    "selftest": ("check", "metric", "value"),
}


def _manifest(ns, label: str) -> dict:
    skip = {"subcommand", "bounds_mode", "out", "format"}
    options = {}
    for key in sorted(vars(ns)):
        if key in skip:
            continue
        val = getattr(ns, key)
        if isinstance(val, list) and val and isinstance(val[0], tuple):
            val = [list(v) for v in val]
        options[key] = val
    return {
        "subcommand": label,
        "version": __version__,
        "format": ns.format,
        "options": options,
        "duration_s": 0.0,
    }


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

    if ns.subcommand == "bounds":
        label = f"bounds {ns.bounds_mode}"
        handler = _BOUNDS_HANDLERS[ns.bounds_mode]
    else:
        label = ns.subcommand
        handler = _HANDLERS[ns.subcommand]

    started = time.perf_counter()
    try:
        _check_out(ns.out)
        # a non-finite result fails in rendering, so numpy's floating-point
        # warnings would only add lines before the error
        with np.errstate(all="ignore"):
            result, rows = handler(ns)
        manifest = _manifest(ns, label)
        manifest["duration_s"] = time.perf_counter() - started
        if ns.format == "json":
            text = render_json({"manifest": manifest, "result": result}) + "\n"
        else:
            text = render_csv(manifest, _CSV_HEADERS[label], rows)
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
