"""Self-test of the benchmark harness at reduced size.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_harness.py

Each oracle must accept a correct result and reject a corrupted one; the
tracer must wrap a function at every qspec namespace that binds it, put
the originals back, and give identical counts on two traced passes.
"""

import copy
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from worker import import_qspec, run_pass  # noqa: E402

qspec = import_qspec()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def failed(checks) -> set:
    return {name for name, ok, _ in checks if not ok}


def small_landscape():
    return workloads.Landscape(3, n_theta=32, n_scan_x=4, n_grad_x=8,
                               n_grid=4096, samples=20_000)


def small_dla():
    return workloads.Dla(5, cases=[c for c in workloads.DLA_CASES if c[0] != "su8"])


# ------------------------------------------------------------------ oracles

def train_result(wl, rmse) -> dict:
    """A train result assembled from recorded RMSEs, as the CLI reports it."""
    return {"seeds": list(wl.seeds), "rmse": copy.deepcopy(rmse),
            "means": {b: float(np.mean(v)) for b, v in rmse.items()},
            "stds": {b: float(np.std(v, ddof=1)) for b, v in rmse.items()},
            "wilcoxon_p": qspec.wilcoxon_exact(list(zip(rmse["1.0"], rmse["10.0"])))}


def test_train_oracle_accepts_reference_and_rejects_corruption():
    wl = workloads.Train(0)
    good = {"train": train_result(wl, oracles.TRAIN_REFERENCE[0])}
    names = [name for name, _, _ in oracles.check_train(wl, good)]
    assert "train_rmse_matches_reference" in names and "train_rmse_ordering" in names
    assert failed(oracles.check_train(wl, good)) == set()

    bad = copy.deepcopy(good)
    bad["train"]["rmse"]["1.0"][2] += 1e-9
    assert "train_rmse_matches_reference" in failed(oracles.check_train(wl, bad))

    bad = copy.deepcopy(good)
    bad["train"]["wilcoxon_p"] *= 2
    assert failed(oracles.check_train(wl, bad)) == {"train_wilcoxon_matches_scipy"}

    bad = copy.deepcopy(good)
    bad["train"]["means"]["1.0"], bad["train"]["means"]["10.0"] = (
        bad["train"]["means"]["10.0"], bad["train"]["means"]["1.0"])
    assert "train_rmse_ordering" in failed(oracles.check_train(wl, bad))

    assert failed(oracles.check_train(wl, {"train": None})) == {
        name for name, _, _ in oracles.check_train(wl, good)}


def test_train_ordering_is_checked_only_where_it_held():
    ordered = [s for s in oracles.TRAIN_REFERENCE if s in oracles.TRAIN_ORDERED_SEEDS]
    assert {0, 1, 2, 3} <= set(ordered)
    unordered = set(oracles.TRAIN_REFERENCE) - oracles.TRAIN_ORDERED_SEEDS
    for s in unordered:
        wl = workloads.Train(s)
        names = [n for n, _, _ in oracles.check_train(
            wl, {"train": train_result(wl, oracles.TRAIN_REFERENCE[s])})]
        assert "train_rmse_ordering" not in names


@pytest.fixture(scope="module")
def landscape_run():
    wl = small_landscape()
    out, failures = run_pass(wl)
    assert failures == []
    return wl, out


def test_landscape_oracle_accepts_correct_run(landscape_run):
    wl, out = landscape_run
    assert failed(oracles.check_landscape(wl, out)) == set()


@pytest.mark.parametrize("corrupt, check", [
    (lambda out, wl: out["theta_scans"][2].__setitem__((5, 1), out["theta_scans"][2][5, 1] + 1e-6),
     "landscape_scan_matches_reconstruction"),
    (lambda out, wl: out["grad_fd"][0].__setitem__(1, out["grad_fd"][0][1] + 1e-3),
     "landscape_grad_fd_matches_reconstruction"),
    (lambda out, wl: out["grad_fd"][-1].__setitem__(0, out["grad_fd"][-1][0] + 1e-3),
     "landscape_grad_fd_matches_dense"),
    (lambda out, wl: out.__setitem__("x_grid", out["x_grid"] + 1e-6 * np.cos(5 * wl.x_grid)),
     "landscape_x_spectrum_within_degree"),
    (lambda out, wl: out["variance"].__setitem__(
        "variances", [1.03 * v for v in out["variance"]["variances"]]),
     "landscape_variance_within_2pct"),
    (lambda out, wl: out.__setitem__("layer_coeffs", out["layer_coeffs"][:-1]),
     "landscape_scan_matches_reconstruction"),
    (lambda out, wl: out["spectrum"]["per_param"][3]["int_gaps"].pop(),
     "landscape_gaps_and_envelope"),
    (lambda out, wl: out["spectrum"]["per_param"][0].__setitem__("gaps", [0.0]),
     "landscape_support_in_gap_set"),
])
def test_landscape_oracle_rejects_corruption(landscape_run, corrupt, check):
    wl, out = landscape_run
    bad = copy.deepcopy(out)
    corrupt(bad, wl)
    assert check in failed(oracles.check_landscape(wl, bad))


def test_dla_oracle_rejects_wrong_dims_and_eta():
    wl = small_dla()
    out, failures = run_pass(wl)
    assert failures == []
    assert failed(oracles.check_dla(wl, out)) == set()

    bad = copy.deepcopy(out)
    bad["u4"]["center_dim"] = 2
    assert failed(oracles.check_dla(wl, bad)) == {"dla_u4_dims"}

    bad = copy.deepcopy(out)
    bad["ring_ising"]["eta_per_generator"][0] = 1e-17
    assert failed(oracles.check_dla(wl, bad)) == {"dla_ring_ising_eta_exact"}


def test_pauli_closure_oracle_on_su8():
    labels = dict(workloads.DLA_CASES)["su8"]
    assert oracles.pauli_dla_dims(labels) == oracles.DLA_EXPECTED["su8"] == (63, 0, 63)


def test_bounds_oracle_rejects_corruption():
    wl = workloads.Bounds(2, lower_k=(4, 6, 8, 10), count=20)
    out, failures = run_pass(wl)
    assert failures == []
    assert failed(oracles.check_bounds(wl, out)) == set()

    bad = copy.deepcopy(out)
    bad["lower"]["witness_errors"][1] *= 1 + 1e-9
    assert failed(oracles.check_bounds(wl, bad)) == {"bounds_witness_closed_form"}

    bad = copy.deepcopy(out)
    bad["upper"]["max_truncation_error"][0] = 2 * bad["upper"]["rigorous_bound"][0]
    assert failed(oracles.check_bounds(wl, bad)) == {"bounds_upper_bound_holds"}

    bad = copy.deepcopy(out)
    bad["lower"]["fitted_slope"] = -wl.r + 0.2
    assert failed(oracles.check_bounds(wl, bad)) == {"bounds_slope_near_minus_r"}


# ------------------------------------------------------------------- tracer

def traced_pass(wl):
    tracer = spans.Tracer()
    original = qspec.qsim.circuit_forward_encoded
    tracer.install()
    try:
        wrapped = qspec.qsim.circuit_forward_encoded
        assert wrapped is not original
        assert qspec.experiments.circuit_forward_encoded is wrapped
        assert qspec.circuit_forward_encoded is wrapped
        out, failures = run_pass(wl)
    finally:
        tracer.uninstall()
    assert tracer.restored()
    assert qspec.qsim.circuit_forward_encoded is original
    assert qspec.experiments.circuit_forward_encoded is original
    assert failures == []
    return tracer, out


def test_tracer_wraps_every_binding_and_restores():
    tracer, _ = traced_pass(small_landscape())
    assert tracer.binding_count("qsim.circuit_forward_encoded") == 3
    assert tracer.binding_count("linalg.commutator") >= 3   # linalg, dla, spectrum, ...


def test_traced_counts_repeat_exactly():
    first = traced_pass(small_landscape())[0].metrics(1.0)
    second = traced_pass(small_landscape())[0].metrics(1.0)
    assert first["qsim.forward.calls"] > 0
    assert {k: first[k] for k in spans.COUNT_METRICS} == {k: second[k] for k in spans.COUNT_METRICS}


def test_traced_outputs_equal_untraced(landscape_run):
    wl, out = landscape_run
    _, traced = traced_pass(wl)
    np.testing.assert_array_equal(traced["x_grid"], out["x_grid"])
    assert traced["variance"] == out["variance"]


def test_dla_bracket_counts_follow_closure_dims():
    wl = small_dla()
    tracer, out = traced_pass(wl)
    m = tracer.metrics(1.0)
    dims = [out[case]["dim"] for case, _ in wl.cases]
    sides = [2 ** len(terms[0][0]) for _, terms in wl.cases]
    brackets = sum(d * (d - 1) // 2 for d in dims)
    gens = sum(len(terms) for _, terms in wl.cases)
    assert m["dla.closure.brackets"] == brackets
    assert m["dla.closure.accept_ratio"] == sum(dims) / (gens + brackets)
    # complex128 elements, side x side each
    assert m["dla.basis_bytes"] == sum(d * n * n * 16 for d, n in zip(dims, sides))


def test_self_time_adds_up():
    wl = small_dla()
    tracer, _ = traced_pass(wl)
    m = tracer.metrics(1.0)
    layer_total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    top = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    assert layer_total == pytest.approx(top, rel=1e-9)
    assert m["cli.dispatch.self_s"] > 0


# ------------------------------------------------------------ BENCHMARK.json

def test_benchmark_json_lists_the_reported_metrics():
    import json

    import run
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert set(spans.LAYERS) <= {m.__name__.split(".")[1] for m in spans.qspec_namespaces()
                                 if m.__name__ != "qspec"}
