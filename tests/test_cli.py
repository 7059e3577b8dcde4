import json
import re
import time
import tracemalloc

import numpy as np
import pytest

from qspec import cli, dla
from qspec.cli import dispatch, normalize_argv
from qspec.dla import MAX_DLA_GENERATOR_ENTRIES, parse_pauli_expr
from qspec.experiments import MAX_SIGNED_RANK_PAIRS
from qspec.qsim import pauli_matrix


def run_json(capsys, argv):
    rc = dispatch(argv)
    out = capsys.readouterr().out
    assert rc == 0, out
    return json.loads(out)


def test_normalize_argv_glues_merge_flags():
    assert normalize_argv(["spectrum", "--eigs", "-1,1"]) == ["spectrum", "--eigs=-1,1"]
    assert normalize_argv(["bounds", "lower", "--K", "4,8", "--d", "1"]) == [
        "bounds", "lower", "--K=4,8", "--d", "1"]
    assert normalize_argv(["train", "--seeds", "-1,2", "--fast"]) == [
        "train", "--seeds=-1,2", "--fast"]
    assert normalize_argv(["dla", "--paulis", "-0.5*IZ+XX;YY"]) == [
        "dla", "--paulis=-0.5*IZ+XX;YY"]
    # already-glued and non-merge flags pass through
    assert normalize_argv(["spectrum", "--eigs=-1,1"]) == ["spectrum", "--eigs=-1,1"]
    assert normalize_argv(["variance", "--samples", "50"]) == ["variance", "--samples", "50"]


def test_parse_pauli_expr():
    m = parse_pauli_expr("0.5*IY+1*II")
    want = 0.5 * pauli_matrix("IY") + pauli_matrix("II")
    assert np.max(np.abs(m - want)) == 0.0
    m2 = parse_pauli_expr("X - 0.25*Z")
    assert np.max(np.abs(m2 - (pauli_matrix("X") - 0.25 * pauli_matrix("Z")))) == 0.0
    # scientific-notation coefficients keep their exponent sign
    m3 = parse_pauli_expr("1e-2*X")
    assert np.max(np.abs(m3 - 0.01 * pauli_matrix("X"))) == 0.0
    with pytest.raises(ValueError):
        parse_pauli_expr("0.5*QQ")
    with pytest.raises(ValueError):
        parse_pauli_expr("X+YY")  # mixed qubit counts


@pytest.mark.parametrize("expr, want", [
    ("0.5*IY + II", 0.5 * pauli_matrix("IY") + pauli_matrix("II")),
    ("-X", -pauli_matrix("X")),
    ("X - 0.5*Y", pauli_matrix("X") - 0.5 * pauli_matrix("Y")),
    ("1e-3*X", 1e-3 * pauli_matrix("X")),
])
def test_parse_pauli_expr_signed_terms(expr, want):
    assert np.max(np.abs(parse_pauli_expr(expr) - want)) == 0.0


@pytest.mark.parametrize("expr", ["X-", "X--Y", "-", "+", "+-X", "X+ +Y"])
def test_parse_pauli_expr_rejects_stray_signs(expr):
    with pytest.raises(ValueError, match="stray sign"):
        parse_pauli_expr(expr)


@pytest.mark.parametrize("paulis", ["X-", "X--Y", "-"])
def test_dla_stray_sign_exits_one(capsys, paulis):
    rc = dispatch(["dla", "--paulis=" + paulis])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert "stray sign" in error_line(captured)


def test_spectrum_example(capsys):
    doc = run_json(capsys, ["spectrum", "--eigs", "-1,1"])
    entry = doc["result"]["per_param"][0]
    assert entry["gaps"] == [-2, 0, 2]
    assert entry["gamma"] == 2
    assert entry["int_gaps"] == [-1, 0, 1]
    assert entry["commensurate"] is True
    env = doc["result"]["envelope"]
    assert env["d"] == 1 and env["K_cov"] == 2
    assert doc["manifest"]["subcommand"] == "spectrum"


def test_spectrum_non_commensurate(capsys):
    doc = run_json(capsys, ["spectrum", "--eigs", f"0,1,{float(np.sqrt(2))!r}"])
    entry = doc["result"]["per_param"][0]
    assert entry["commensurate"] is False
    assert "gamma" not in entry
    assert "detail" in entry
    assert doc["result"]["envelope"] is None


def test_spectrum_multi_param_envelope(capsys):
    doc = run_json(capsys, ["spectrum", "--eigs", "-1.5,1.5", "--eigs", "-2,0,2"])
    env = doc["result"]["envelope"]
    assert env["d"] == 2
    # widths (1, 2): K_l2 = sqrt(5), K_l1 = 3, K_cov = 2
    assert env["K_l2"] == pytest.approx(np.sqrt(5.0), abs=1e-12)
    assert env["K_l1"] == 3 and env["K_cov"] == 2


def test_variance_csv(capsys):
    rc = dispatch(["variance", "--weights", "0,0.5,1", "--samples", "50",
                   "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("# manifest\n")
    body = out.split("# result\n", 1)[1].strip().splitlines()
    assert body[0] == "weight,variance,eta"
    rows = [line.split(",") for line in body[1:]]
    assert [r[0] for r in rows] == ["0", "0.5", "1"]
    assert float(rows[0][1]) == 0.0
    etas = [float(r[2]) for r in rows]
    assert etas[0] == 2.0
    assert etas[1] == pytest.approx(2.0 / np.sqrt(1.25), abs=1e-12)
    assert etas[2] == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_variance_json_includes_oracle(capsys):
    doc = run_json(capsys, ["variance", "--weights", "0,1", "--samples", "10"])
    res = doc["result"]
    assert res["weights"] == [0, 1]
    assert res["analytic_variances"][0] == 0.0
    assert res["analytic_variances"][1] == pytest.approx(2.0, abs=1e-12)


def test_variance_json_tiny_weight_oracle_is_positive_zero(capsys):
    rc = dispatch(["variance", "--weights", "1e-320", "--samples", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert '"analytic_variances": [0]' in out


def test_variance_samples_cap_checked_before_allocating(capsys):
    tracemalloc.start()
    try:
        rc = dispatch(["variance", "--weights", "0.5", "--samples", str(10 ** 12)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "at most 1000000" in lines[0]
    assert peak < 1 << 20, peak


def test_variance_total_draw_cap_checked_before_allocating(capsys):
    # eleven weights at the per-weight cap: 1.1e7 draws, over the 1e7 total
    weights = ",".join(str(k / 10) for k in range(11))
    tracemalloc.start()
    try:
        rc = dispatch(["variance", "--weights", weights, "--samples", str(10 ** 6)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert "at most 10000000" in error_line(captured)
    assert peak < 1 << 20, peak


def test_spectrum_value_cap_exits_one_before_work(capsys):
    t0 = time.perf_counter()
    rc = dispatch(["spectrum", "--eigs", ",".join(str(k) for k in range(4097))])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert "at most 4096 eigenvalues" in error_line(captured)
    assert elapsed <= 1.0, elapsed


def test_bounds_lower_frozen_slope(capsys):
    doc = run_json(capsys, ["bounds", "lower", "--d", "1", "--r", "2"])
    res = doc["result"]
    assert res["K"] == [4, 8, 16, 32, 64]
    assert res["fitted_slope"] == pytest.approx(-1.9235383459448987, abs=1e-12)
    assert res["reference_exponent"] == -1.5
    errs = res["witness_errors"]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_bounds_upper_holds(capsys):
    doc = run_json(capsys, ["bounds", "upper", "--d", "2", "--r", "2",
                            "--K", "1,2,4", "--count", "5"])
    res = doc["result"]
    assert res["bound_holds"] is True
    assert 0.0 < res["worst_ratio"] <= 1.0
    assert len(res["max_truncation_error"]) == 3
    assert res["series_count"] == 5


def test_bounds_limit_values_and_domain_error(capsys):
    doc = run_json(capsys, ["bounds", "limit", "--pairs", "4:4,2:2,52:100"])
    vals = doc["result"]["values"]
    assert vals[0] == 0.0625
    assert vals[1] == 0.5
    assert vals[2] == pytest.approx(1e-4, rel=1e-10)
    rc = dispatch(["bounds", "limit", "--pairs", "10:100"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err


HUGE_D = "1" + "0" * 400


@pytest.mark.parametrize("argv", [
    ["bounds", "limit", "--pairs", f"3:{HUGE_D}"],
    ["bounds", "lower", "--d", HUGE_D, "--r", "2"],
    ["bounds", "upper", "--d", HUGE_D],
    # r > d/2 holds, but the scan cap must compare d without a float of it
    ["bounds", "lower", "--d", "3" + "0" * 308, "--r", "1.7e308"],
])
def test_bounds_huge_d_exits_one(capsys, argv):
    rc = dispatch(argv)
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    error_line(captured)


def test_bounds_limit_d_beyond_int64_runs(capsys):
    doc = run_json(capsys, ["bounds", "limit", "--pairs", "1e300:100000000000000000000"])
    assert doc["result"]["values"] == [0.0]


def test_dla_example(capsys):
    doc = run_json(capsys, ["dla", "--paulis", "0.5*IY+1*II"])
    res = doc["result"]
    assert res["dim"] == 1 and res["center_dim"] == 1 and res["derived_dim"] == 0
    assert res["eta_per_generator"][0] == pytest.approx(2.0 / np.sqrt(1.25), abs=1e-12)


def test_dla_multiple_generators(capsys):
    doc = run_json(capsys, ["dla", "--paulis", "X;Y"])
    res = doc["result"]
    assert res["generator_count"] == 2
    assert res["dim"] == 3 and res["center_dim"] == 0 and res["derived_dim"] == 3
    assert res["eta_per_generator"] == [0, 0]


def test_dla_leading_sign(capsys):
    res = run_json(capsys, ["dla", "--paulis", "-X;Y"])["result"]
    assert (res["dim"], res["center_dim"], res["derived_dim"]) == (3, 0, 3)


def test_dla_bad_label_exits_one(capsys):
    rc = dispatch(["dla", "--paulis", "0.5*QQ"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err


def error_line(captured):
    """The whole of stderr, which must be one 'error:' line."""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


def test_dla_beyond_size_cap_exits_one(capsys):
    # X_q, Y_q and Z_q Z_{q+1} on 5 qubits generate su(32), dimension 1023
    labels = ["I" * q + p + "I" * (5 - q - len(p))
              for p in ("X", "Y", "ZZ") for q in range(6 - len(p))]
    t0 = time.perf_counter()
    rc = dispatch(["dla", "--paulis", ";".join(labels)])
    elapsed = time.perf_counter() - t0
    assert rc == 1
    assert "cap 256" in error_line(capsys.readouterr())
    assert elapsed <= 30.0, elapsed


def free_fermion_chain(q):
    """Z_q and X_q X_{q+1} on a q-qubit chain: so(2q), dimension q(2q - 1)."""
    return ([("I" * k + "Z").ljust(q, "I") for k in range(q)]
            + [("I" * k + "XX").ljust(q, "I") for k in range(q - 1)])


def test_dla_six_qubit_chain_within_side_cap(capsys):
    res = run_json(capsys, ["dla", "--paulis", ";".join(free_fermion_chain(6))])["result"]
    assert (res["dim"], res["center_dim"], res["derived_dim"]) == (66, 0, 66)


@pytest.mark.parametrize("paulis", [";".join(free_fermion_chain(7)), "X" * 20])
def test_dla_beyond_side_cap_exits_one_before_work(capsys, paulis):
    t0 = time.perf_counter()
    rc = dispatch(["dla", "--paulis", paulis])
    elapsed = time.perf_counter() - t0
    assert rc == 1
    assert "at most 6" in error_line(capsys.readouterr())
    assert elapsed <= 1.0, elapsed


def test_dla_generator_entry_cap_admits_its_six_qubit_count(capsys):
    paulis = ";".join(["1*XZXZXZ"] * (MAX_DLA_GENERATOR_ENTRIES // 64 ** 2))
    res = run_json(capsys, ["dla", "--paulis", paulis])["result"]
    assert (res["dim"], res["center_dim"], res["derived_dim"]) == (1, 1, 0)


@pytest.mark.parametrize("paulis", [
    ";".join(["1*XZXZXZ"] * (MAX_DLA_GENERATOR_ENTRIES // 64 ** 2 + 1)),
    ";".join(["1*XZXZXZ"] * 4000),
    # one six-qubit term sets the side every generator is counted at
    ";".join(["X"] * (MAX_DLA_GENERATOR_ENTRIES // 64 ** 2) + ["0.5*Z+XZXZXZ"]),
])
def test_dla_beyond_generator_entry_cap_exits_one_before_any_matrix(capsys, monkeypatch, paulis):
    def never(label):
        raise AssertionError("a generator matrix was built")
    monkeypatch.setattr(dla, "pauli_matrix", never)
    rc = dispatch(["dla", "--paulis", paulis])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert f"cap of {MAX_DLA_GENERATOR_ENTRIES} matrix entries" in error_line(captured)


def run_dla(capsys, argv):
    """Exit code, stdout without its duration line, and stderr."""
    rc = dispatch(argv)
    captured = capsys.readouterr()
    return rc, re.sub(r'"duration_s": .*\n', "", captured.out), captured.err


def assert_as_dense(capsys, monkeypatch, argv):
    """argv runs as it does with every generator set sent to the dense path."""
    got = run_dla(capsys, argv)
    with monkeypatch.context() as m:
        m.setattr(dla, "_single_strings", lambda terms: None)
        assert run_dla(capsys, argv) == got, argv
    return got


@pytest.mark.parametrize("paulis, tol, error", [
    ("QQ", "1e-8", "invalid Pauli label 'QQ'"),
    ("qq", "1e-8", "invalid Pauli label 'QQ'"),
    ("X;0.5*qQ", "1e-8", "invalid Pauli label 'QQ'"),
    ("0*X;Y", "1e-8", "zero matrix"),
    ("inf*X;Y", "1e-8", "non-finite"),
    ("nan*X", "1e-8", "non-finite"),
    ("1e-301*X;Y", "1e-8", "zero matrix"),
    ("X;YY", "1e-8", "error: "),
    ("QQ;XXXXXXX", "1e-8", "at most 6"),   # the side cap is checked first
    ("X;Y", "-1", "tol must be finite and positive"),
    ("X;Y", "nan", "tol must be finite and positive"),
    ("0*X;Y", "-1", "zero matrix"),       # eta fails before tol is checked
])
def test_dla_errors_do_not_depend_on_the_path(capsys, monkeypatch, paulis, tol, error):
    rc, out, err = assert_as_dense(capsys, monkeypatch, ["dla", "--paulis", paulis, "--tol", tol])
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and error in err, err


def test_dla_string_sets_print_as_on_the_dense_path(capsys, monkeypatch):
    gen = np.random.default_rng(2309)
    weights = ["1", "-2.5", "1e-300", "-7.1e-301", "1e200", "-1.7e308", "3e-17"]
    for _ in range(60):
        n = int(gen.integers(1, 4))
        paulis = ";".join(f"{gen.choice(weights)}*{''.join(gen.choice(list('IXYZixyz'), n))}"
                          for _ in range(int(gen.integers(1, 7))))
        assert assert_as_dense(capsys, monkeypatch, ["dla", "--paulis", paulis])[0] == 0


@pytest.mark.parametrize("paulis, tol, dims", [
    ("XIIIII;IXIIII;ZZIIII", "0.3", [6, 0, 6]),   # the dense path reads 3/3/0
    ("X;Y", "1e-300", [3, 0, 3]),                 # the dense path passes its cap
])
def test_dla_string_sets_are_exact_at_any_tolerance(capsys, paulis, tol, dims):
    res = run_json(capsys, ["dla", "--paulis", paulis, "--tol", tol])["result"]
    assert [res["dim"], res["center_dim"], res["derived_dim"]] == dims


@pytest.mark.parametrize("paulis, dims", [
    ("XIII;YIII;IXII;IYII;IIXI;IIYI;IIIX;IIIY;ZZII;IZZI;IIZZ", [255, 0, 255]),
    ("XIIIII;IXIIII;IIXIII;IIIXII;IIIIXI;IIIIIX;ZZIIII;IZZIII;IIZZII;IIIZZI;IIIIZZ;ZIIIIZ",
     [132, 0, 132]),
    (";".join(["-2*I"] + ["X"] * 4095), [2, 2, 0]),
], ids=["su16", "ring_ising_6", "identity_and_copies"])
def test_dla_string_sets_build_no_matrix(capsys, monkeypatch, paulis, dims):
    def never(label):
        raise AssertionError("a generator matrix was built")
    monkeypatch.setattr(dla, "pauli_matrix", never)
    res = run_json(capsys, ["dla", "--paulis", paulis])["result"]
    assert [res["dim"], res["center_dim"], res["derived_dim"]] == dims
    assert res["eta_per_generator"][0] == (np.sqrt(2.0) if paulis[0] == "-" else 0.0)


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_dla_rejects_bad_tolerance(capsys, tol):
    rc = dispatch(["dla", "--paulis", "X;Y", "--tol", tol])
    captured = capsys.readouterr()
    assert rc == 1
    assert "tol must be finite and positive" in error_line(captured)
    assert captured.out == ""


@pytest.mark.parametrize("ks", ["1,2,300000", "4,8,1e308"])
def test_bounds_lower_beyond_scan_cap_exits_one_before_work(capsys, ks):
    t0 = time.perf_counter()
    rc = dispatch(["bounds", "lower", "--d", "3", "--r", "2", "--K", ks])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert rc == 1
    assert "orthant points" in error_line(captured)
    assert captured.out == ""
    assert elapsed <= 1.0, elapsed


def test_bounds_lower_caps_the_orthant_not_the_box(capsys):
    # the K = 100 box at d = 3 has 401^3 points, past the box cap, but the
    # scan visits only the 201^3 orthant points
    res = run_json(capsys, ["bounds", "lower", "--d", "3", "--r", "2", "--K", "1,2,100"])["result"]
    assert len(res["witness_errors"]) == 3


@pytest.mark.parametrize("argv", [["--count", "0"], ["--count", "-1"], ["--K", ","]])
def test_bounds_upper_rejects_vacuous_runs(capsys, argv):
    rc = dispatch(["bounds", "upper"] + argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert "count >= 1 and at least one K" in error_line(captured)
    assert captured.out == ""


@pytest.mark.parametrize("max_freq", ["-1", str(2 ** 63), str(10 ** 21)])
def test_bounds_upper_max_freq_beyond_int64_exits_one_before_work(capsys, monkeypatch, max_freq):
    import qspec.bounds as bounds

    def never(*args):
        raise AssertionError("a series was drawn")
    monkeypatch.setattr(bounds, "_stream_draws", never)
    rc = dispatch(["bounds", "upper", "--max-freq", max_freq])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert f"max_freq <= {2 ** 63 - 1}, got {max_freq}" in error_line(captured)


def test_bounds_upper_max_freq_at_int64_max_runs(capsys):
    doc = run_json(capsys, ["bounds", "upper", "--max-freq", str(2 ** 63 - 1), "--count", "3"])
    assert doc["result"]["bound_holds"] is True


@pytest.mark.parametrize("argv, cap", [
    (["--modes", str(10 ** 12), "--count", "1"], "drawn integers"),
    (["--count", str(10 ** 8)], "series"),
    (["--count", "2000", "--K", ",".join(str(k) for k in range(1, 1001))], "(series, K) pairs"),
    (["--count", "1", "--modes", "500000", "--K", ",".join(["1"] * 3000)], "summed terms"),
])
def test_bounds_upper_beyond_work_caps_exits_one_before_work(capsys, argv, cap):
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        rc = dispatch(["bounds", "upper"] + argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert cap in error_line(captured)
    assert peak < 1 << 20, peak
    assert elapsed <= 1.0, elapsed


@pytest.mark.parametrize("argv", [["spectrum", "--eigs", "-1,1"],
                                  ["bounds", "lower", "--d", "1", "--r", "2", "--K", "1,2,3"],
                                  ["bounds", "limit", "--pairs", "2:2"],
                                  ["dla", "--paulis", "X"]])
def test_seed_only_where_it_is_used(capsys, argv):
    assert dispatch(argv + ["--seed", "5"]) == 2
    capsys.readouterr()
    assert "seed" not in run_json(capsys, argv)["manifest"]["options"]


def test_flag_abbreviations_exit_two(capsys):
    # a unique prefix of a flag is a usage error, not the full flag
    for argv in (["train", "--seed", "5"],
                 ["bounds", "upper", "--max", "3"],
                 ["variance", "--sample", "5"],
                 ["selftest", "--fu"],
                 ["--form", "csv", "spectrum", "--eigs", "-1,1"]):
        assert dispatch(argv) == 2, argv
        assert "usage:" in capsys.readouterr().err


def test_seed_accepted_where_it_is_used(capsys):
    for argv in (["bounds", "upper", "--count", "1", "--K", "2"],
                 ["variance", "--weights", "0.5", "--samples", "5"]):
        assert run_json(capsys, argv + ["--seed", "5"])["manifest"]["options"]["seed"] == 5


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_spectrum_rejects_bad_tolerance(capsys, tol):
    rc = dispatch(["spectrum", "--eigs", "-1,0,1", "--tol", tol])
    captured = capsys.readouterr()
    assert rc == 1
    assert "tol must be finite and positive" in error_line(captured)
    assert captured.out == ""


def test_out_to_missing_directory_fails_before_work(tmp_path, capsys, monkeypatch):
    def never(ns):
        raise AssertionError("handler ran")
    monkeypatch.setitem(cli._COMMANDS, "dla", cli._Command(never))
    target = tmp_path / "missing" / "x"
    rc = dispatch(["dla", "--paulis", "X;Y", "--out", str(target)])
    assert rc == 1
    assert "--out directory does not exist" in error_line(capsys.readouterr())
    assert not target.parent.exists()


def test_json_output_builds_no_csv_rows(capsys, monkeypatch):
    def never(result):
        raise AssertionError("CSV rows were built")
    monkeypatch.setitem(cli._COMMANDS, "dla", cli._COMMANDS["dla"]._replace(rows=never))
    assert run_json(capsys, ["dla", "--paulis", "X;Y"])["result"]["dim"] == 3


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_output_exits_one(capsys, monkeypatch, fmt):
    # no subcommand is known to return a non-finite value, so a stand-in
    # handler hands the renderer one
    nan = float("nan")
    monkeypatch.setitem(cli._COMMANDS, "bounds limit", cli._Command(lambda ns: {"values": [nan]}))
    rc = dispatch(["bounds", "limit", "--pairs", "2:2", "--format", fmt])
    captured = capsys.readouterr()
    assert rc == 1
    assert "non-finite" in error_line(captured)
    assert captured.out == ""


@pytest.mark.parametrize("ks", ["1,2,4", "1,1.5,2"])
def test_bounds_lower_underflowing_witness_exits_one_before_work(capsys, ks):
    # at r = 400 every squared coefficient of the K = 2 witness underflows,
    # though (1 + K^2)^(-r/2) squared does not: its nearest point has |s| = 3
    rc = dispatch(["bounds", "lower", "--d", "1", "--r", "400", "--K", ks])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert "underflows" in error_line(captured)


@pytest.mark.parametrize("eigs", ["0,1e308,3", "1e308,-1e308"])
def test_spectrum_overflowing_gaps_exit_one(capsys, eigs):
    rc = dispatch(["spectrum", f"--eigs={eigs}"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert "too far apart" in error_line(captured)


@pytest.mark.parametrize("config, cap", [
    ({"dataset_size": 1e13, "epochs": 1, "seeds": [0]}, "amplitudes"),
    ({"epochs": 1e9}, "multiply-adds"),
    ({"n": 1, "depth": 1, "dataset_size": 1, "epochs": 1e9, "seeds": [0], "b_models": [1.0]},
     "steps"),
    ({"n": 1000}, "at most 12"),
    ({"epochs": 2.5}, "whole number"),
    ({"n": 1, "depth": 1, "dataset_size": 1, "epochs": 1, "batch_size": 1,
      "seeds": list(range(MAX_SIGNED_RANK_PAIRS + 1))}, "signed-rank"),
])
def test_train_beyond_work_caps_exits_one_before_work(tmp_path, capsys, config, cap):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    tracemalloc.start()
    try:
        rc = dispatch(["train", "--config", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert cap in error_line(captured)
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("config, name", [({"b_models": [1.0, 1e308]}, "b_models"),
                                          ({"b_target": 1e308}, "b_target")])
def test_train_overflowing_eigenvalue_bound_exits_one(tmp_path, capsys, config, name):
    # the generator's entries overflowed and were blamed on its Hermiticity
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    rc = dispatch(["train", "--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert f"{name} must lie in" in error_line(captured)


def test_train_overflowing_eigenphase_exits_one_before_training(tmp_path, capsys, monkeypatch):
    # every field is in range, but Adam may move theta far enough that
    # theta * lambda overflows and the report holds a nan
    import qspec.experiments as experiments

    def never(*args):
        raise AssertionError("training started")
    monkeypatch.setattr(experiments, "_train_runs", never)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"b_models": [2e307], "lr": 1, "epochs": 5, "seeds": [0],
                                "dataset_size": 20}))
    rc = dispatch(["train", "--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert "eigenphases could overflow" in error_line(captured)


def test_train_tiny_with_config_and_seed_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "depth": 2, "dataset_size": 20,
                               "lr": 0.01, "epochs": 2, "batch_size": 20,
                               "b_models": [1.0, 10.0]}))
    doc = run_json(capsys, ["train", "--config", str(cfg), "--seeds", "0,1"])
    res = doc["result"]
    assert res["seeds"] == [0, 1]
    assert set(res["rmse"]) == {"1.0", "10.0"}
    assert len(res["rmse"]["1.0"]) == 2
    assert res["wilcoxon_p"] is not None
    assert doc["manifest"]["options"]["config"] == str(cfg)


def test_train_negative_seeds_in_either_spelling(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 1, "depth": 1, "dataset_size": 4, "epochs": 1,
                               "batch_size": 4, "b_models": [1.0, 10.0]}))
    spaced = run_json(capsys, ["train", "--config", str(cfg), "--seeds", "-1,2"])
    glued = run_json(capsys, ["train", "--config", str(cfg), "--seeds=-1,2"])
    assert spaced["result"]["seeds"] == [-1, 2]
    assert spaced["result"] == glued["result"]
    assert spaced["manifest"]["options"] == glued["manifest"]["options"]


def test_train_csv_rows(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "depth": 2, "dataset_size": 20,
                               "lr": 0.01, "epochs": 2, "batch_size": 20,
                               "b_models": [1.0], "seeds": [0]}))
    rc = dispatch(["train", "--config", str(cfg), "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "# result" in out


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc = dispatch(["spectrum", "--eigs", "-1,1", "--out", str(path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == ""
    doc = json.loads(path.read_text())
    assert doc["result"]["per_param"][0]["gamma"] == 2


def test_deterministic_output_modulo_duration(capsys):
    rc1 = dispatch(["spectrum", "--eigs", "-1,1"])
    out1 = capsys.readouterr().out
    rc2 = dispatch(["spectrum", "--eigs", "-1,1"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    strip = lambda s: re.sub(r'"duration_s": [0-9eE.+-]+', '"duration_s": X', s)
    assert strip(out1) == strip(out2)


def test_usage_errors_exit_two(capsys):
    assert dispatch(["no-such-command"]) == 2
    capsys.readouterr()
    assert dispatch(["spectrum"]) == 2  # --eigs is required
    capsys.readouterr()
    assert dispatch(["bounds"]) == 2  # bounds requires a mode
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    capsys.readouterr()
    assert dispatch(["train", "--help"]) == 0
    capsys.readouterr()


# each subcommand on its defaults, with the required options at small values
DEFAULT_RUNS = [["spectrum", "--eigs", "-1,1"],
                ["bounds", "lower", "--d", "1", "--r", "2"],
                ["bounds", "upper"],
                ["bounds", "limit", "--pairs", "2:2"],
                ["dla", "--paulis", "X;Y"],
                ["train", "--fast", "--seeds", "0"],
                ["variance"],
                ["selftest"]]


@pytest.mark.parametrize("argv", DEFAULT_RUNS, ids=lambda argv: " ".join(a for a in argv[:2] if a[0] != "-"))
def test_cached_parser_repeats_every_subcommand(capsys, monkeypatch, tmp_path, argv):
    def parsed():
        return vars(cli._build_parser().parse_args(normalize_argv(argv)))

    def run():
        rc = dispatch(argv)
        out = capsys.readouterr().out
        assert rc == 0
        return re.sub(r'"duration_s": [0-9eE.+-]+', '"duration_s": X', out)

    defaults = json.dumps(parsed())
    first = run()

    class NoNewParser:
        def __init__(self, *args, **kwargs):
            raise AssertionError("dispatch built a second parser")
    monkeypatch.setattr(cli.argparse, "ArgumentParser", NoNewParser)
    assert run() == first
    assert dispatch(argv + ["--no-such-flag"]) == 2
    capsys.readouterr()
    assert run() == first
    assert dispatch(argv + ["--out", str(tmp_path / "missing" / "x")]) == 1
    capsys.readouterr()
    assert run() == first
    # no handler changed a parsed default (argparse shares the default lists)
    assert json.dumps(parsed()) == defaults
