"""End-to-end acceptance checks, one test per guaranteed behavior.

Tests 01-09 run the checks of qspec.checks, which `qspec selftest` also
runs, on their own instances, seeds and bounds, and add the assertions the
selftest does not make. Each test prints a PASS line with the observed
numbers and asserts its runtime budget. Budgets are wall-clock upper
bounds on commodity hardware, not performance targets.
"""

import json
import re
import time

import numpy as np

from qspec import checks
from qspec.bounds import SobolevParams, unit_ball_sweep
from qspec.cli import dispatch
from qspec.experiments import (TrainConfig, fast_profile, spectrum_matching_experiment,
                               variance_sweep)
from qspec.linalg import complex_gaussians, rng_stream
from qspec.qsim import make_generator, pauli_matrix, trig_poly_coeffs
from qspec.spectrum import NormalizedGapSet


def single_parameter_instances():
    """20 one-parameter circuits: 1 or 2 qubits, generator with a generic (Haar)
    eigenbasis, random product input state, random Hermitian observable."""
    out = []
    for i in range(20):
        n, dim, gen = 1 + i % 2, 2 + 2 * (i % 2), rng_stream(9100 + i)
        state = np.ones(1, dtype=complex)
        for _ in range(n):
            q = complex_gaussians(gen, 2)
            state = np.kron(state, q / np.linalg.norm(q))
        z = complex_gaussians(rng_stream(9200 + i), (dim, dim))
        out.append((make_generator(dim, 1.0 + 0.5 * i, seed=9000 + i), state, (z + z.conj().T) / 2))
    return out


def test_01_expectation_equals_fourier_reconstruction(capsys):
    t0 = time.monotonic()
    instances = single_parameter_instances()
    thetas = np.linspace(-np.pi, np.pi, 100)
    check = checks.reconstruction_matches_simulation(instances, thetas, tol=1e-9)
    # the check compares real parts; the sum's imaginary part counts too
    imag = max(abs(sum(a * np.exp(-1j * t * w) for w, a in trig_poly_coeffs(*inst).items()).imag)
               for inst in instances for t in thetas)
    worst = float(np.hypot(check["max_abs_deviation"], imag))
    el = time.monotonic() - t0
    assert check["passed"]
    assert worst <= 1e-9
    assert el <= 10.0
    with capsys.disabled():
        print(f"\nPASS 1 expectation reconstruction: max |simulated - Fourier sum| "
              f"<= {worst:.3e} <= 1e-9 over 20 instances x 100 angles ({el:.1f}s)")


def test_02_coefficient_support_inside_gap_set(capsys):
    t0 = time.monotonic()
    check = checks.coeff_support_within_gap_set(single_parameter_instances(), 1e-10, tol=1e-9)
    el = time.monotonic() - t0
    assert check["passed"]
    assert el <= 10.0
    with capsys.disabled():
        print(f"\nPASS 2 frequency support: coefficients above 1e-10 sit at most "
              f"{check['max_gap_distance']:.3e} <= 1e-9 from a spectral gap ({el:.1f}s)")


def test_03_witness_error_decay_rate(capsys):
    t0 = time.monotonic()
    d1 = checks.lower_bound_slope(SobolevParams(1, 2.0), [4, 8, 16, 32, 64], tol=0.1)
    d2 = checks.lower_bound_slope(SobolevParams(2, 2.0), [4, 8, 16, 32], tol=0.2)
    el = time.monotonic() - t0
    assert d1["passed"] and d2["passed"]
    slope1, slope2 = d1["fitted_slope"], d2["fitted_slope"]
    ref1, ref2 = d1["reference_exponent"], d2["reference_exponent"]
    assert ref1 == -1.5 and ref2 == -1.0
    assert el <= 30.0
    with capsys.disabled():
        print(f"\nPASS 3 witness decay: fitted slopes {slope1:.4f} (d=1, within -2 +- 0.1) and "
              f"{slope2:.4f} (d=2, within -2 +- 0.2); reference exponents d/2 - r = {ref1}, "
              f"{ref2} printed for comparison; the measured decay follows -r ({el:.1f}s)")


def test_04_truncation_upper_bound_holds(capsys):
    t0 = time.monotonic()
    ks = np.arange(1, 9)
    errors, rigorous, _ = unit_ball_sweep(SobolevParams(2, 2.0), ks, 20, 8, 12, seed=1000)
    check = checks.upper_bound_holds(errors, rigorous)
    closed_form = (1.0 + ks * ks) ** (-1.0)
    violations = int(np.count_nonzero(errors > closed_form))
    worst_ratio = float(np.max(errors / closed_form))
    el = time.monotonic() - t0
    assert check["passed"] and check["series_count"] == 20
    assert violations == 0
    assert np.all(np.diff(errors, axis=1) <= 0)   # nonincreasing in K
    assert el <= 10.0
    with capsys.disabled():
        print(f"\nPASS 4 truncation bound: 0 violations of err <= (1+K^2)^(-r/2) over 20 series "
              f"x K in 1..8, worst ratio {worst_ratio:.3f}, errors nonincreasing in K ({el:.1f}s)")


def test_05_coverage_radius(capsys):
    t0 = time.monotonic()
    unit = NormalizedGapSet(gamma=1.0, int_gaps=np.array([-1, 0, 1]))
    zero = NormalizedGapSet(gamma=1.0, int_gaps=np.array([0]))
    wide = NormalizedGapSet(gamma=1.0, int_gaps=np.arange(-3, 4))
    examples = checks.coverage_radius_examples(
        [([unit] * d, 2.0) for d in (1, 2, 3)] + [([zero], 1.0), ([wide, zero], 1.0)])
    scan = checks.coverage_radius_matches_box_scan(checks.random_product_sets(rng_stream(55), 60))
    el = time.monotonic() - t0
    assert examples["passed"] and scan["passed"]
    assert el <= 5.0
    with capsys.disabled():
        print(f"\nPASS 5 coverage radius: {{-1,0,1}}^d -> 2 for d in 1..3, {{0}} -> 1, formula "
              f"== brute-force scan on {scan['cases']} random product sets ({el:.1f}s)")


def test_06_gradient_variance_sweep(capsys):
    t0 = time.monotonic()
    assert checks.variance_zero_weight_exact(variance_sweep([0.0], samples=50, seed=0))["passed"]

    ws = [round(0.1 * k, 1) for k in range(1, 11)]
    mc = checks.variance_matches_oracle(variance_sweep(ws, samples=100_000, seed=123), tol=0.02)
    assert mc["passed"]

    small = variance_sweep([0.0] + ws, samples=50, seed=0)
    ups = sum(b > a for a, b in zip(small.variances, small.variances[1:]))
    assert ups >= 8  # monotone-trending at 50 samples
    assert small.variances[-1] > small.variances[0]
    assert checks.eta_closed_form(small, tol=1e-12)["passed"]
    el = time.monotonic() - t0
    assert el <= 30.0
    with capsys.disabled():
        rel = 100 * mc["max_rel_error"]
        print(f"\nPASS 6 gradient variance: var(0) == 0; 1e5-sample MC within {rel:.2f}% (<= 2%) "
              f"of 4w^2(1/2 - sin(8 pi w)/(16 pi w)); 50-sample sweep trends up ({ups}/10 steps); "
              f"eta matches 2/sqrt(1+w^2) to 1e-12 and strictly decreases ({el:.1f}s)")


def test_07_training_separates_spectral_widths(capsys):
    t0 = time.monotonic()
    full = spectrum_matching_experiment(TrainConfig())
    el_full = time.monotonic() - t0
    assert checks.train_rmse_ordering(full, "full")["passed"]   # b = 10 < 1 < 0.1
    assert checks.train_wilcoxon_significant(full, alpha=0.05)["passed"]
    assert el_full <= 45 * 60

    t1 = time.monotonic()
    fast = spectrum_matching_experiment(fast_profile(TrainConfig()))
    el_fast = time.monotonic() - t1
    assert checks.train_rmse_ordering(fast, "fast")["passed"]
    assert el_fast <= 5 * 60
    with capsys.disabled():
        print(f"\nPASS 7 training: full scale mean RMSE {full.means[10.0]:.4f} (b=10) < "
              f"{full.means[1.0]:.4f} (b=1), exact two-sided p = {full.wilcoxon_p:.6f} <= 0.05 "
              f"in {el_full:.0f}s; fast profile keeps the ordering ({fast.means[10.0]:.4f} < "
              f"{fast.means[1.0]:.4f}) in {el_fast:.0f}s")


def test_08_signed_rank_exactness(capsys):
    t0 = time.monotonic()
    check = checks.signed_rank_p("wilcoxon_ten_positive", [(float(i + 1), 0.0) for i in range(10)],
                                 want=2.0 / 1024.0, tol=0.0)
    p = check["p"]
    el = time.monotonic() - t0
    assert check["passed"]
    assert p == 2.0 / 1024.0
    assert f"{p:.4f}" == "0.0020"
    assert el <= 1.0
    with capsys.disabled():
        print(f"\nPASS 8 signed-rank exactness: 10 positive differences give "
              f"p = {p!r} == 2/1024, printed as {p:.4f} ({el:.2f}s)")


def test_09_lie_closure_and_eta(capsys):
    t0 = time.monotonic()
    x, y, z = (pauli_matrix(label) for label in "XYZ")
    assert checks.lie_closure_dimensions(
        [([z], 1), ([x, y], 3), ([pauli_matrix("ZI"), pauli_matrix("IZ")], 2)])["passed"]
    # u(2) = center (1) + derived su(2) (3)
    assert checks.center_and_derived([np.eye(2), x, y, z], (4, 1, 3))["passed"]
    exact = [(np.eye(n), np.sqrt(n), 0.0) for n in (2, 4, 8)]
    exact += [(pauli_matrix(label), 0.0, 0.0) for label in ("X", "Y", "Z", "XY", "ZZ")]
    assert checks.eta_examples(exact)["passed"]
    el = time.monotonic() - t0
    assert el <= 5.0
    with capsys.disabled():
        print(f"\nPASS 9 Lie diagnostics: closure dims 1/3/2, u(2) splits 1 (center) + 3 "
              f"(derived) = 4, eta(I_N) == sqrt(N) and eta(traceless) == 0 exactly ({el:.1f}s)")


def test_10_selftest_determinism(tmp_path, capsys):
    t0 = time.monotonic()
    paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
    for p in paths:
        assert dispatch(["selftest", "--out", str(p)]) == 0
    texts = [re.sub(r'"duration_s": [^,\n]+', '"duration_s": X',
                    p.read_text()) for p in paths]
    assert texts[0] == texts[1]
    r1, r2 = (json.loads(p.read_text())["result"] for p in paths)
    assert r1 == r2
    el = time.monotonic() - t0
    with capsys.disabled():
        print(f"\nPASS 10 determinism: two selftest runs are byte-identical outside the timing "
              f"field; {len(r1['checks'])} checks all passed twice ({el:.1f}s)")
