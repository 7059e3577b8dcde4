"""Correctness oracles, run after the timed section.

Each ``check_<workload>`` takes the workload and the dict of its operation
outputs (None for an operation that raised) and returns a list of
(check name, passed, detail). The oracles use closed forms, scipy, an
independent Pauli-string closure and an independent dense simulation,
never the qspec code path they check, except where a check compares two
qspec paths with each other (theta-scans against the Fourier
reconstruction).
"""

import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def _load_reference() -> dict:
    """Per-seed RMSEs of ``qspec train --fast`` on the seed sets
    100 * s + (0..5), recorded at the commit that added the benchmark."""
    with open(os.path.join(HERE, "reference_train.json"), encoding="utf-8") as fh:
        return {int(s): rmse for s, rmse in json.load(fh).items()}


TRAIN_REFERENCE = _load_reference()

# Seed sets on which mean RMSE b=10 < b=1 < b=0.1 held at that commit. With
# six seeds and 100 epochs the ordering is not a law: it fails on some other
# seed sets, so it is only checked where it is known to hold.
TRAIN_ORDERED_SEEDS = frozenset(
    s for s, r in TRAIN_REFERENCE.items()
    if np.mean(r["10.0"]) < np.mean(r["1.0"]) < np.mean(r["0.1"]))


def _ok(passed, **detail) -> tuple:
    return bool(passed), detail


def _guarded(name, fn) -> tuple:
    """Run one check as (name, passed, detail); a missing output or an
    exception fails it."""
    try:
        return (name, *fn())
    except Exception as exc:  # the check's subject is broken output
        return name, False, {"error": f"{type(exc).__name__}: {exc}"}


# ------------------------------------------------------------------ train

def check_train(wl, out: dict) -> list:
    r = out.get("train")

    def seeds():
        return _ok(r["seeds"] == wl.seeds, seeds=r["seeds"])

    def finite():
        vals = [v for b in ("0.1", "1.0", "10.0") for v in r["rmse"][b]]
        ok = len(vals) == 18 and all(math.isfinite(v) and v >= 0 for v in vals)
        return _ok(ok)

    def summary():
        worst = 0.0
        for b, vals in r["rmse"].items():
            worst = max(worst, abs(r["means"][b] - float(np.mean(vals))),
                        abs(r["stds"][b] - float(np.std(vals, ddof=1))))
        return _ok(worst <= 1e-12, max_abs_error=worst)

    def wilcoxon():
        from scipy.stats import wilcoxon as scipy_wilcoxon
        p_ref = float(scipy_wilcoxon(r["rmse"]["1.0"], r["rmse"]["10.0"],
                                     method="exact").pvalue)
        p = r["wilcoxon_p"]
        return _ok(abs(p - p_ref) <= 1e-12, p=p, scipy_p=p_ref)

    def reference():
        ref = TRAIN_REFERENCE[wl.seed]
        worst = max(abs(a - b) for k in ref for a, b in zip(r["rmse"][k], ref[k], strict=True))
        return _ok(worst <= 1e-10, max_abs_error=worst)

    def ordering():
        m = r["means"]
        return _ok(m["10.0"] < m["1.0"] < m["0.1"], means=m)

    checks = [("train_seeds", seeds), ("train_rmse_finite", finite),
              ("train_means_stds", summary), ("train_wilcoxon_matches_scipy", wilcoxon)]
    if wl.seed in TRAIN_REFERENCE:
        checks.append(("train_rmse_matches_reference", reference))
    if wl.seed in TRAIN_ORDERED_SEEDS:
        checks.append(("train_rmse_ordering", ordering))
    return [_guarded(name, fn) for name, fn in checks]


# -------------------------------------------------------------- landscape

class DenseCircuit:
    """Independent dense simulation of the qspec circuit family on n >= 3
    qubits: RY(x) on every qubit of |0..0>, the CNOT ring 0->1, .., n-1->0,
    then one generator exponential per layer; the observable is given."""

    def __init__(self, n: int, generators, observable):
        self.n = n
        self.eigs = [np.linalg.eigh(h) for h in generators]
        self.obs = observable

    def encode(self, x: float) -> np.ndarray:
        state = np.ones(1)
        for _ in range(self.n):
            state = np.kron(state, [math.cos(x / 2), math.sin(x / 2)])
        idx = np.arange(1 << self.n)
        for c in range(self.n):
            cbit, tbit = 1 << (self.n - 1 - c), 1 << (self.n - 1 - (c + 1) % self.n)
            new = np.empty_like(state)
            new[np.where(idx & cbit, idx ^ tbit, idx)] = state
            state = new
        return state.astype(complex)

    def expectation(self, thetas, x: float) -> float:
        psi = self.encode(x)
        for (lam, vecs), t in zip(self.eigs, thetas, strict=True):
            psi = vecs @ (np.exp(-1j * t * lam) * (vecs.conj().T @ psi))
        return float(np.real(psi.conj() @ self.obs @ psi))


def check_landscape(wl, out: dict) -> list:
    spec = out.get("build_circuit")
    scans = out.get("theta_scans")
    coeffs_by_layer = out.get("layer_coeffs")
    spectrum = out.get("spectrum")
    grads = out.get("grad_fd")
    pred = out.get("x_grid")
    sweep = out.get("variance")
    step = 1e-4   # qspec.qsim.FD_STEP, the grad_fd default

    def recon(coeffs, t):
        return sum(a * np.exp(-1j * t * w) for w, a in coeffs.items()).real

    def fd_tolerance(coeffs):
        # central difference: |error| <= step^2 / 6 * max|f'''|, plus rounding
        return step * step / 6 * sum(abs(a) * abs(w) ** 3 for w, a in coeffs.items()) + 1e-10

    def scans_match():
        worst = 0.0
        for scan, layer_coeffs in zip(scans, coeffs_by_layer, strict=True):
            for column, coeffs in zip(scan.T, layer_coeffs, strict=True):
                worst = max(worst, float(np.max(np.abs(recon(coeffs, wl.theta_grid) - column))))
        return _ok(worst <= 1e-9, max_abs_error=worst)

    def support():
        worst = 0.0
        for param, layer_coeffs in zip(spectrum["per_param"], coeffs_by_layer, strict=True):
            gaps = np.asarray(param["gaps"])
            for coeffs in layer_coeffs:
                for w, a in coeffs.items():
                    if abs(a) > 1e-12:
                        worst = max(worst, float(np.min(np.abs(gaps - w))))
        return _ok(worst <= 1e-9, max_gap_distance=worst)

    def normalized():
        # eigenvalues linspace(-b, b, 2^n): every layer's gaps are the
        # multiples -w..w of 2b / w with w = 2^n - 1, so the envelope of the
        # L layers has K_l1 = L w, K_l2 = sqrt(L) w and K_cov = w + 1
        top = (1 << spec.n) - 1
        params = spectrum["per_param"]
        env = spectrum["envelope"]
        ok = (len(params) == spec.depth
              and all(p["int_gaps"] == list(range(-top, top + 1))
                      and abs(p["gamma"] - 2 * 10.0 / top) <= 1e-9 for p in params)
              and env["d"] == spec.depth and env["K_l1"] == spec.depth * top
              and abs(env["K_l2"] - math.sqrt(spec.depth) * top) <= 1e-12
              and env["K_cov"] == top + 1)
        return _ok(ok, envelope=env)

    def grad_vs_recon():
        worst = 0.0
        for b, g in enumerate(grads[:len(wl.xs_scan)]):
            for layer in range(len(wl.theta0)):
                coeffs = coeffs_by_layer[layer][b]
                t = wl.theta0[layer]
                exact = sum(a * (-1j * w) * np.exp(-1j * t * w) for w, a in coeffs.items()).real
                worst = max(worst, abs(g[layer] - exact) / fd_tolerance(coeffs))
        return _ok(worst <= 1.0, worst_error_over_tolerance=worst)

    def grad_vs_dense():
        dense = DenseCircuit(spec.n, spec.generators, spec.observable)
        eye = np.eye(len(wl.theta0))
        worst = 0.0
        for x, g in zip(wl.xs_grad, grads, strict=True):
            fd = [(dense.expectation(wl.theta0 + step * e, x)
                   - dense.expectation(wl.theta0 - step * e, x)) / (2 * step) for e in eye]
            worst = max(worst, float(np.max(np.abs(np.asarray(g) - fd))))
        return _ok(worst <= 1e-8, max_abs_error=worst)

    def x_spectrum():
        n = spec.n
        c = np.abs(np.fft.fft(pred)) / pred.shape[0]
        k = np.fft.fftfreq(pred.shape[0], d=1.0 / pred.shape[0])
        outside = float(np.max(c[np.abs(k) > n]))
        inside = float(np.max(c[(np.abs(k) <= n) & (k != 0)]))
        return _ok(outside <= 1e-10 and inside > 1e-6, max_outside=outside, max_inside=inside)

    def x_grid_dense():
        dense = DenseCircuit(spec.n, spec.generators, spec.observable)
        idx = np.linspace(0, pred.shape[0] - 1, 16).astype(int)
        worst = max(abs(pred[i] - dense.expectation(wl.theta0, wl.x_grid[i])) for i in idx)
        return _ok(worst <= 1e-12, max_abs_error=worst)

    def variances():
        worst = 0.0
        for w, v in zip(sweep["weights"], sweep["variances"], strict=True):
            exact = 4 * w * w * (0.5 - math.sin(8 * math.pi * w) / (16 * math.pi * w))
            worst = max(worst, abs(v - exact) / exact)
        ok = worst <= 0.02 and sweep["weights"] == sorted(wl.weights)
        return _ok(ok, max_rel_error=worst)

    def etas():
        worst = max(abs(e - 2.0 / math.sqrt(1.0 + w * w))
                    for w, e in zip(sweep["weights"], sweep["etas"], strict=True))
        return _ok(worst <= 1e-12, max_abs_error=worst)

    checks = [("landscape_scan_matches_reconstruction", scans_match),
              ("landscape_support_in_gap_set", support),
              ("landscape_gaps_and_envelope", normalized),
              ("landscape_grad_fd_matches_reconstruction", grad_vs_recon),
              ("landscape_grad_fd_matches_dense", grad_vs_dense),
              ("landscape_x_spectrum_within_degree", x_spectrum),
              ("landscape_x_grid_matches_dense", x_grid_dense),
              ("landscape_variance_within_2pct", variances),
              ("landscape_eta_closed_form", etas)]
    return [_guarded(name, fn) for name, fn in checks]


# -------------------------------------------------------------------- dla

# (dim, center_dim, derived_dim) per case
DLA_EXPECTED = {"su8": (63, 0, 63), "ring_ising": (30, 0, 30), "u4": (16, 1, 15)}


def _pauli_bits(label: str) -> tuple:
    x = z = 0
    for ch in label:
        x, z = x << 1 | (ch in "XY"), z << 1 | (ch in "ZY")
    return x, z


def _anticommute(p, q) -> bool:
    return bin(p[0] & q[1] ^ p[1] & q[0]).count("1") % 2 == 1


def pauli_dla_dims(labels) -> tuple:
    """(dim, center_dim, derived_dim) of the Lie algebra generated by
    i * (Pauli strings).

    Brackets of Pauli strings are multiples of single Pauli strings (zero
    when they commute), so the algebra is spanned by the strings reachable
    by brackets, its center by those commuting with all of them, and its
    derived algebra by the products of anticommuting pairs.
    """
    span = {_pauli_bits(label) for label in labels}
    frontier = list(span)
    while frontier:
        new = []
        for p in frontier:
            for q in list(span):
                if _anticommute(p, q):
                    r = (p[0] ^ q[0], p[1] ^ q[1])
                    if r not in span:
                        span.add(r)
                        new.append(r)
        frontier = new
    center = [p for p in span if not any(_anticommute(p, q) for q in span)]
    derived = {(p[0] ^ q[0], p[1] ^ q[1]) for p in span for q in span if _anticommute(p, q)}
    return len(span), len(center), len(derived)


def check_dla(wl, out: dict) -> list:
    checks = []
    for case, terms in wl.cases:
        r = out.get(case)
        labels = [label for label, _ in terms]

        def dims(case=case, r=r, labels=labels):
            got = (r["dim"], r["center_dim"], r["derived_dim"])
            oracle = pauli_dla_dims(labels)
            ok = got == oracle == DLA_EXPECTED[case]
            if case == "su8":
                ok = ok and got[0] == 4 ** len(labels[0]) - 1
            return _ok(ok, reported=got, oracle=oracle)

        def etas(r=r, labels=labels, case=case):
            expected = [math.sqrt(2 ** len(label)) if set(label) == {"I"} else 0.0
                        for label in labels]
            return _ok(r["eta_per_generator"] == expected,
                       reported=r["eta_per_generator"], expected=expected)

        checks += [_guarded(f"dla_{case}_dims", dims), _guarded(f"dla_{case}_eta_exact", etas)]
    return checks


# ----------------------------------------------------------------- bounds

def witness_error(d: int, r: float, k: float) -> float:
    """Truncation error of the annulus witness at radius k, in closed form:
    sqrt(mean over k < |s| <= 2k of (1 + |s|^2)^-r)."""
    m = int(math.floor(2 * k))
    axis = np.arange(-m, m + 1)
    norm_sq = sum(np.meshgrid(*([axis ** 2] * d), indexing="ij"))
    ring = norm_sq[(norm_sq > k * k) & (norm_sq <= 4 * k * k)].astype(float)
    return math.sqrt(float(np.mean((1.0 + ring) ** -r)))


def check_bounds(wl, out: dict) -> list:
    lower, upper = out.get("lower"), out.get("upper")

    def witness():
        exact = [witness_error(wl.d, wl.r, k) for k in wl.lower_k]
        worst = max(abs(e - x) / x for e, x in zip(lower["witness_errors"], exact, strict=True))
        return _ok(worst <= 1e-12, max_rel_error=worst)

    def slope():
        s = lower["fitted_slope"]
        ok = abs(s + wl.r) <= 0.1 and lower["reference_exponent"] == wl.d / 2 - wl.r
        return _ok(ok, fitted_slope=s)

    def upper_holds():
        rig = [(1.0 + k * k) ** (-wl.upper_r / 2) for k in upper["K"]]
        ok = (upper["bound_holds"] is True
              and upper["series_count"] == wl.count
              and upper["worst_ratio"] <= 1.0 + 1e-12
              and all(abs(a - b) <= 1e-15 * b for a, b in zip(upper["rigorous_bound"], rig,
                                                               strict=True))
              and all(e <= b * (1.0 + 1e-12) for e, b in zip(upper["max_truncation_error"], rig,
                                                               strict=True)))
        return _ok(ok, worst_ratio=upper["worst_ratio"])

    return [_guarded(name, fn) for name, fn in (
        ("bounds_witness_closed_form", witness),
        ("bounds_slope_near_minus_r", slope),
        ("bounds_upper_bound_holds", upper_holds))]


ORACLES = {"train": check_train, "landscape": check_landscape,
           "dla": check_dla, "bounds": check_bounds}
