"""The paper's guaranteed behaviours as checks.

Each check takes its instances and bounds and returns one entry: a dict
with the check's name, whether it passed, and what it observed. `battery`
runs every check on the instances, seeds and bounds of `qspec selftest`;
the acceptance tests call the same checks on their own.
"""

import numpy as np

from .bounds import SobolevParams, minimax_lower_curve, unit_ball_sweep
from .dla import dla_report, eta, lie_closure
from .experiments import (TrainConfig, analytic_variance_oracle, fast_profile,
                          spectrum_matching_experiment, variance_sweep, wilcoxon_exact)
from .linalg import complex_gaussians, rng_stream, unitary_from_generator
from .qsim import make_generator, pauli_matrix, trig_poly_coeffs
from .spectrum import NormalizedGapSet, coverage_radius, coverage_radius_box, gap_set


def _entry(name: str, passed: bool, **observed) -> dict:
    return {"name": name, "passed": bool(passed), **observed}


def reconstruction_matches_simulation(instances, thetas, tol: float = 1e-9) -> dict:
    """<phi| U(t)^dag O U(t) |phi> = Re sum_w a_w e^{-i t w} for each (h, phi, O) and t."""
    worst = 0.0
    for h, phi, obs in instances:
        coeffs = trig_poly_coeffs(h, phi, obs)
        for t in thetas:
            u = unitary_from_generator(h, t)
            direct = float(np.real(phi.conj() @ (u.conj().T @ obs @ u) @ phi))
            recon = float(np.real(sum(a * np.exp(-1j * t * w) for w, a in coeffs.items())))
            worst = max(worst, abs(direct - recon))
    return _entry("trig_reconstruction_matches_simulation", worst <= tol,
                  max_abs_deviation=worst, instances=len(instances))


def coeff_support_within_gap_set(instances, floor: float = 1e-12, tol: float = 1e-9) -> dict:
    """Every coefficient above floor sits within tol of a gap of h."""
    worst = 0.0
    for h, phi, obs in instances:
        gaps = gap_set(np.linalg.eigvalsh(h)).gaps
        for w, a in trig_poly_coeffs(h, phi, obs).items():
            if abs(a) > floor:
                worst = max(worst, float(np.min(np.abs(gaps - w))))
    return _entry("coeff_support_within_gap_set", worst <= tol, max_gap_distance=worst)


def conjugate_symmetry(instances, tol: float = 1e-10) -> dict:
    """a_{-w} = conj(a_w) within tol, so the expectation is real."""
    worst = 0.0
    for h, phi, obs in instances:
        coeffs = trig_poly_coeffs(h, phi, obs)
        for w, a in coeffs.items():
            mirror = min(coeffs, key=lambda u: abs(u + w))
            worst = max(worst, abs(coeffs[mirror] - np.conj(a)))
    return _entry("conjugate_symmetry", worst <= tol, max_asymmetry=worst)


def lower_bound_slope(p: SobolevParams, ks, tol: float) -> dict:
    """The witness errors' log-log slope lies within tol of -r."""
    _, slope, ref = minimax_lower_curve(p, ks)
    return _entry(f"lower_bound_slope_d{p.d}", abs(slope - (-p.r)) <= tol,
                  fitted_slope=slope, reference_exponent=ref)


def upper_bound_holds(errors, rigorous, tol: float = 1e-12) -> dict:
    """No error of a unit_ball_sweep exceeds its rigorous bound by more than tol."""
    worst = max(0.0, float(np.max(errors - rigorous)))
    return _entry("upper_bound_holds", worst <= tol, max_violation=worst,
                  series_count=len(errors))


def coverage_radius_examples(cases) -> dict:
    """coverage_radius of each list of gap sets is its known radius."""
    return _entry("coverage_radius_examples",
                  all(coverage_radius(sets) == want for sets, want in cases))


def coverage_radius_matches_box_scan(cases) -> dict:
    """The closed-form coverage radius equals a brute-force box scan."""
    worst = max([0.0] + [abs(coverage_radius(sets) - coverage_radius_box(sets))
                         for sets in cases])
    return _entry("coverage_radius_matches_box_scan", worst == 0.0,
                  max_abs_difference=worst, cases=len(cases))


def random_product_sets(gen, count: int) -> list:
    """count lists of 1 to 3 gap sets {0, +-v, ...} with 1 <= v <= 3."""
    cases = []
    for _ in range(count):
        sets = []
        for _ in range(int(gen.integers(1, 4))):
            ints = {0}
            for v in range(1, int(gen.integers(0, 4)) + 1):
                if gen.random() < 0.7:
                    ints.update((v, -v))
            sets.append(_int_gaps(ints))
        cases.append(sets)
    return cases


def _int_gaps(ints) -> NormalizedGapSet:
    return NormalizedGapSet(gamma=1.0, int_gaps=np.array(sorted(ints)))


def variance_monotone(report, slack: float = 1e-12) -> dict:
    """No variance of the sweep falls below its predecessor by more than slack."""
    v = report.variances
    return _entry("variance_monotone_50_samples", all(b >= a - slack for a, b in zip(v, v[1:])),
                  variances=list(v))


def variance_zero_weight_exact(report) -> dict:
    """At weight 0 the gradient vanishes, so its variance is exactly 0."""
    return _entry("variance_zero_weight_exact",
                  report.weights[0] == 0.0 and report.variances[0] == 0.0)


def eta_closed_form(report, tol: float = 1e-12) -> dict:
    """eta(H(w)) is 2 / sqrt(1 + w^2) within tol and strictly falls in w."""
    err = max(abs(e - 2.0 / np.sqrt(1.0 + w * w)) for w, e in zip(report.weights, report.etas))
    falling = all(b < a for a, b in zip(report.etas, report.etas[1:]))
    return _entry("eta_closed_form", err <= tol and falling, max_abs_error=err)


def variance_matches_oracle(report, tol: float = 0.02) -> dict:
    """Monte-Carlo variances lie within relative tol of the closed form."""
    rel = max(abs(v - analytic_variance_oracle(w)) / analytic_variance_oracle(w)
              for w, v in zip(report.weights, report.variances))
    return _entry("variance_matches_oracle_1e5", rel <= tol, max_rel_error=rel,
                  samples=report.samples)


def signed_rank_p(name: str, pairs, want: float, tol: float) -> dict:
    """The exact signed-rank p-value of pairs is want within tol."""
    p = wilcoxon_exact(pairs)
    return _entry(name, abs(p - want) <= tol, p=p)


def lie_closure_dimensions(cases) -> dict:
    """Each generator list closes to an algebra of the given dimension."""
    return _entry("lie_closure_dimensions",
                  all(len(lie_closure(gens)) == dim for gens, dim in cases))


def center_and_derived(generators, dims) -> dict:
    """The closure, its center and its derived algebra have dims (all, center, derived)."""
    r = dla_report(generators)
    return _entry("u2_center_and_derived", (r.dim, r.center_dim, r.derived_dim) == dims)


def eta_examples(cases) -> dict:
    """eta(matrix) is want within tol for each (matrix, want, tol)."""
    return _entry("eta_examples", all(abs(eta(m) - want) <= tol for m, want, tol in cases))


def train_rmse_ordering(report, profile: str) -> dict:
    """Mean RMSE falls as the model spectrum widens: b = 10 < 1 < 0.1."""
    m = report.means
    return _entry("train_rmse_ordering", m[10.0] < m[1.0] < m[0.1], profile=profile,
                  mean_rmse={repr(b): m[b] for b in report.b_models},
                  wilcoxon_p=report.wilcoxon_p)


def train_wilcoxon_significant(report, alpha: float = 0.05) -> dict:
    """The b = 1 vs b = 10 signed-rank p-value is at most alpha."""
    p = report.wilcoxon_p
    return _entry("train_wilcoxon_significant", p is not None and p <= alpha, wilcoxon_p=p)


def battery(seed: int, full: bool) -> list:
    """Every check on the selftest's instances, in report order; full
    trains at full scale and adds the significance check."""
    circuits = []
    for i in range(20):
        phi = complex_gaussians(rng_stream(seed, 2, i), 8)
        circuits.append((make_generator(8, 10.0, rng_stream(seed, 0, i).integers(0, 2 ** 32)),
                         phi / np.linalg.norm(phi),
                         make_generator(8, 1.0, rng_stream(seed, 1, i).integers(0, 2 ** 32))))
    p = SobolevParams(d=2, r=2.0)
    errors, rigorous, _ = unit_ball_sweep(p, range(1, 9), 20, 8, 12, seed + 1000)
    small = variance_sweep([0.0, 0.25, 0.5, 0.75, 1.0], 50, seed)
    x, y, z = (pauli_matrix(label) for label in "XYZ")
    train = spectrum_matching_experiment(TrainConfig() if full else fast_profile(TrainConfig()))
    return [
        reconstruction_matches_simulation(circuits, np.linspace(-3.0, 3.0, 25)),
        coeff_support_within_gap_set(circuits),
        conjugate_symmetry(circuits),
        lower_bound_slope(SobolevParams(d=1, r=2.0), [4, 8, 16, 32, 64], 0.1),
        lower_bound_slope(p, [4, 8, 16, 32], 0.2),
        upper_bound_holds(errors, rigorous),
        coverage_radius_examples([([_int_gaps(range(-1, 2))] * 2, 2.0),
                                  ([_int_gaps([0]), _int_gaps(range(-5, 6))], 1.0),
                                  ([_int_gaps(range(-2, 3))] * 2, 3.0)]),
        coverage_radius_matches_box_scan(random_product_sets(rng_stream(seed, 3), 25)),
        variance_monotone(small),
        variance_zero_weight_exact(small),
        eta_closed_form(small),
        variance_matches_oracle(variance_sweep([0.1 * k for k in range(1, 11)], 100000, seed)),
        signed_rank_p("wilcoxon_ten_positive", [(float(i + 1), 0.0) for i in range(10)],
                      2.0 / 1024.0, 1e-15),
        signed_rank_p("wilcoxon_mirrored_pair_capped", [(1.0, 0.0), (0.0, 1.0)], 1.0, 0.0),
        lie_closure_dimensions([([z], 1), ([x, y], 3),
                                ([pauli_matrix("ZI"), pauli_matrix("IZ")], 2)]),
        center_and_derived([np.eye(2), x, y, z], (4, 1, 3)),
        eta_examples([(np.eye(4), 2.0, 0.0), (pauli_matrix("XX"), 0.0, 0.0),
                      (0.5 * pauli_matrix("IY") + pauli_matrix("II"), 2.0 / np.sqrt(1.25),
                       1e-15)]),
        train_rmse_ordering(train, "full" if full else "fast"),
    ] + ([train_wilcoxon_significant(train)] if full else [])
