import json
import os
from types import SimpleNamespace

import numpy as np

from qspec import checks
from qspec.bounds import SobolevParams, unit_ball_sweep
from qspec.cli import dispatch
from qspec.experiments import variance_sweep
from qspec.qsim import pauli_matrix
from qspec.spectrum import NormalizedGapSet

REFERENCE = os.path.join(os.path.dirname(__file__), "data", "selftest_reference.json")


def observed_close(got, want, tol=1e-10) -> bool:
    """Same structure and keys; floats within tol, everything else equal."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and list(got) == list(want)
                and all(observed_close(got[k], want[k], tol) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(observed_close(g, w, tol) for g, w in zip(got, want)))
    if isinstance(want, float) or isinstance(got, float):
        return abs(got - want) <= tol
    return type(got) is type(want) and got == want


def test_selftest_matches_reference(tmp_path, capsys):
    # the report of the selftest before its checks moved into qspec.checks
    with open(REFERENCE, encoding="utf-8") as fh:
        want = json.load(fh)["checks"]
    out = tmp_path / "selftest.json"
    assert dispatch(["selftest", "--seed", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    got = json.loads(out.read_text())["result"]["checks"]
    assert [c["name"] for c in got] == [c["name"] for c in want]
    assert [c["passed"] for c in got] == [c["passed"] for c in want]
    for g, w in zip(got, want):
        assert observed_close(g, w), (g, w)


def test_observed_close_rejects_what_differs():
    assert observed_close({"a": [1.0, 2]}, {"a": [1.0 + 1e-11, 2]})
    for got in ({"a": [1.0 + 1e-9, 2]}, {"a": [1.0, 3]}, {"a": [1.0]}, {"b": [1.0, 2]},
                {"a": [1.0, True]}):
        assert not observed_close(got, {"a": [1.0, 2]})


def gaps(*ints):
    return NormalizedGapSet(gamma=1.0, int_gaps=np.array(sorted(ints)))


def test_checks_fail_on_violating_instances():
    # each check, given an instance or bound it must refuse, reports a failure
    p = SobolevParams(2, 2.0)
    errors, rigorous, _ = unit_ball_sweep(p, range(1, 5), 3, 8, 12, 0)
    sweep = variance_sweep([0.25, 0.5], 50, 0)
    x, y, z = (pauli_matrix(label) for label in "XYZ")
    shuffled = SimpleNamespace(means={0.1: 0.3, 1.0: 0.4, 10.0: 0.5}, b_models=(0.1, 1.0, 10.0),
                               wilcoxon_p=0.5)
    failing = [
        checks.lower_bound_slope(SobolevParams(1, 2.0), [4, 8, 16], tol=1e-6),
        checks.upper_bound_holds(errors, 0.0 * rigorous),
        checks.coverage_radius_examples([([gaps(-1, 0, 1)], 1.0)]),
        checks.variance_zero_weight_exact(sweep),
        checks.eta_closed_form(SimpleNamespace(weights=(0.0, 1.0), etas=(2.0, 2.0))),
        checks.variance_matches_oracle(sweep, tol=1e-6),
        checks.variance_monotone(SimpleNamespace(variances=(1.0, 0.5))),
        checks.signed_rank_p("p", [(1.0, 0.0)] * 3, want=0.5, tol=1e-3),
        checks.lie_closure_dimensions([([x, y], 2)]),
        checks.center_and_derived([np.eye(2), x, y, z], (4, 0, 4)),
        checks.eta_examples([(np.eye(2), 1.0, 0.0)]),
        checks.train_rmse_ordering(shuffled, "fast"),
        checks.train_wilcoxon_significant(shuffled),
    ]
    assert [c["name"] for c in failing if c["passed"]] == []


def test_checks_catch_wrong_computations(monkeypatch):
    # checks that compare two computations fail when one of them is wrong
    circuit = [(pauli_matrix("Z"), np.array([1.0, 1.0]) / np.sqrt(2.0), pauli_matrix("X"))]
    monkeypatch.setattr(checks, "trig_poly_coeffs", lambda h, phi, obs: {-0.5: 1j, 0.5: 1j})
    assert not checks.reconstruction_matches_simulation(circuit, [0.0, 1.0])["passed"]
    assert not checks.coeff_support_within_gap_set(circuit)["passed"]   # gaps are -2, 0, 2
    assert not checks.conjugate_symmetry(circuit)["passed"]
    monkeypatch.setattr(checks, "coverage_radius", lambda sets: 1.0)
    assert not checks.coverage_radius_matches_box_scan([[gaps(-1, 0, 1)]])["passed"]
