import json
import math
import os
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from qspec import experiments
from qspec.experiments import (ADAM_STEP_BOUND, MAX_SIGNED_RANK_PAIRS, MAX_TRAIN_AMPLITUDES,
                               MAX_TRAIN_MULADDS, MAX_TRAIN_STEPS, MAX_VARIANCE_DRAWS,
                               MAX_VARIANCE_SAMPLES, ORACLE_SERIES_BELOW,
                               AllZeroDifferences, TrainConfig, _train_runs, _train_work,
                               analytic_variance_oracle, build_circuit, fast_profile,
                               gen_dataset, load_train_config, spectrum_matching_experiment,
                               variance_sweep, wilcoxon_exact)
from qspec.linalg import DimMismatch, derive_seed, rng_stream
from qspec.qsim import MAX_EIGEN_BOUND, CircuitSpec, circuit_forward_batch, pauli_matrix

with open(os.path.join(os.path.dirname(__file__), "data", "kernel_reference.json"),
          encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)


# ---- config ---------------------------------------------------------------

def test_train_config_defaults_and_fast():
    cfg = TrainConfig()
    assert cfg.n == 3 and cfg.depth == 5 and cfg.dataset_size == 1000
    assert cfg.epochs == 500 and cfg.seeds == tuple(range(10))
    assert cfg.b_models == (0.1, 1.0, 10.0) and cfg.b_target == 10.0
    fast = fast_profile(cfg)
    assert fast.dataset_size == 200 and fast.epochs == 100
    assert fast.seeds == tuple(range(6))
    assert fast.lr == cfg.lr and fast.depth == cfg.depth
    assert fast_profile(TrainConfig(lr=1e-3)).lr == 1e-3


def test_fast_profile_keeps_other_fields():
    cfg = TrainConfig(lr=2e-5, n=2, b_models=(1.0, 10.0))
    fast = fast_profile(cfg)
    assert fast.lr == 2e-5 and fast.n == 2 and fast.b_models == (1.0, 10.0)
    assert fast.dataset_size == 200 and fast.epochs == 100
    assert fast.seeds == tuple(range(6))


def test_train_config_validation():
    for bad in (dict(n=0), dict(depth=0), dict(dataset_size=0), dict(lr=0.0),
                dict(epochs=0), dict(batch_size=0), dict(fd_step=0.0),
                dict(seeds=()), dict(seeds=(0, 0)), dict(b_models=()),
                dict(b_models=(0.0,)), dict(b_target=0.0), dict(n=13), dict(epochs=2.5),
                dict(dataset_size=float("inf")), dict(batch_size="32"), dict(lr=float("nan")),
                dict(fd_step=float("inf")), dict(b_models=(1.0, float("nan"))),
                dict(b_target=float("inf")), dict(lr="fast"), dict(b_target=None),
                dict(seeds=(0, 1.5)), dict(b_models=("ten",)), dict(lr=10 ** 400)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    cfg = TrainConfig(dataset_size=200.0, epochs=np.int64(3))
    assert cfg.dataset_size == 200 and type(cfg.dataset_size) is int and cfg.epochs == 3


def test_train_config_rejects_values_that_fail_after_training():
    # each of these trained to a non-finite RMSE or config entry, which
    # only the rendering of the finished report rejected
    for bad in (dict(lr=1e308), dict(fd_step=1e308), dict(lr=1.5), dict(fd_step=2.0),
                dict(share_generator_basis=float("nan")), dict(share_generator_basis="x"),
                dict(share_generator_basis=1)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    cfg = TrainConfig(lr=1.0, fd_step=1.0, share_generator_basis=True)
    assert cfg.lr == cfg.fd_step == 1.0 and cfg.share_generator_basis is True


def test_train_config_rejects_overflowing_eigenvalue_bounds():
    # make_generator's predicate, applied before any circuit is built
    for name, bad in (("b_target", dict(b_target=1e308)),
                      ("b_models", dict(b_models=(1.0, np.nextafter(MAX_EIGEN_BOUND, np.inf))))):
        with pytest.raises(ValueError, match=f"{name} must lie in"):
            TrainConfig(**bad)
    cfg = TrainConfig(b_target=MAX_EIGEN_BOUND, b_models=(MAX_EIGEN_BOUND,))
    assert cfg.b_target == cfg.b_models[0] == MAX_EIGEN_BOUND


def test_train_config_bounds_the_eigenphases():
    # b * (pi + ADAM_STEP_BOUND * lr * steps + fd_step) must stay finite; here
    # steps = 5, so the reach is pi + 36.5 + fd_step
    big = dict(lr=1.0, epochs=5, seeds=(0,), dataset_size=20)
    reach = np.pi + ADAM_STEP_BOUND * 5 + 1e-4
    with pytest.raises(ValueError, match="eigenphases could overflow"):
        TrainConfig(b_models=(1.0, 2e307), **big)
    with pytest.raises(ValueError, match="eigenphases could overflow"):
        TrainConfig(b_models=(np.finfo(float).max / reach * 1.01,), **big)
    TrainConfig(b_models=(np.finfo(float).max / reach * 0.99,), **big)


def test_adam_step_bound_covers_growing_gradients():
    # the update rule of _train_runs on gradients that grow by beta2 / beta1
    # per step, the worst case; they start at 1e-120 so g^2 stays finite for
    # 6,000 steps. Kingma & Ba's single-gradient bound, 3.16 lr, is exceeded
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = v = largest = 0.0
    for step_count in range(1, 6001):
        grad = 1e-120 * (beta2 / beta1) ** step_count
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        move = (m / (1.0 - beta1 ** step_count)) / (np.sqrt(v / (1.0 - beta2 ** step_count)) + eps)
        largest = max(largest, move)
    limit = (1.0 - beta1) / np.sqrt((1.0 - beta2) * (1.0 - beta1 ** 2 / beta2))
    assert 7.2 < largest <= limit <= ADAM_STEP_BOUND


def test_train_work_caps():
    # the default study uses at most a quarter of each cap
    caps = (MAX_TRAIN_AMPLITUDES, MAX_TRAIN_MULADDS, MAX_TRAIN_STEPS)
    assert _train_work(TrainConfig()) == (358_800, 24_330_240_000, 16_000)
    assert all(4 * used <= cap for used, cap in zip(_train_work(TrainConfig()), caps))
    # each cap on its own; the configs are rejected without being run
    for bad, cap in ((dict(dataset_size=10 ** 13, seeds=(0,)), "amplitudes"),
                     (dict(depth=2000, epochs=1, seeds=(0,)), "amplitudes"),
                     (dict(epochs=10 ** 9), "multiply-adds"),
                     (dict(n=1, depth=1, dataset_size=1, epochs=10 ** 9, seeds=(0,),
                           b_models=(1.0,)), "steps")):
        with pytest.raises(ValueError, match=cap):
            TrainConfig(**bad)
    edge = TrainConfig(n=1, depth=1, dataset_size=1, epochs=MAX_TRAIN_STEPS, seeds=(0,),
                       b_models=(1.0,))
    assert _train_work(edge)[2] == MAX_TRAIN_STEPS


def test_seed_count_capped_before_any_circuit_is_built(monkeypatch):
    # a tiny study of 20,000 seeds fits the work caps, but its signed-rank
    # test would take hours after training
    def never(*args):
        raise AssertionError("a circuit was built")
    monkeypatch.setattr(experiments, "build_circuit", never)
    tiny = dict(n=1, depth=1, dataset_size=1, epochs=1, batch_size=1)
    for count in (MAX_SIGNED_RANK_PAIRS + 1, 20_000):
        with pytest.raises(ValueError, match="signed-rank"):
            spectrum_matching_experiment(TrainConfig(seeds=range(count), **tiny))
    edge = TrainConfig(seeds=range(MAX_SIGNED_RANK_PAIRS), **tiny)
    assert len(edge.seeds) == MAX_SIGNED_RANK_PAIRS


def test_load_train_config_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "depth": 3, "seeds": [0, 1],
                                "b_models": [1.0, 10.0], "lr": 2e-5}))
    cfg = load_train_config(str(path))
    assert cfg.n == 2 and cfg.depth == 3 and cfg.lr == 2e-5
    assert cfg.seeds == (0, 1) and cfg.b_models == (1.0, 10.0)
    assert cfg.epochs == 500  # untouched default


def test_load_train_config_key_value(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# reduced run\nn = 2\nlr = 1e-4\nseeds = [3, 4]\n\n"
                    "share_generator_basis = true\n")
    cfg = load_train_config(str(path))
    assert cfg.n == 2 and cfg.lr == 1e-4 and cfg.seeds == (3, 4)
    assert cfg.share_generator_basis is True


def test_load_train_config_errors(tmp_path):
    bad_key = tmp_path / "a.txt"
    bad_key.write_text("learning_rate = 0.1\n")
    with pytest.raises(ValueError, match="learning_rate"):
        load_train_config(str(bad_key))
    bad_val = tmp_path / "b.txt"
    bad_val.write_text("lr = fast\n")
    with pytest.raises(ValueError, match="unparseable"):
        load_train_config(str(bad_val))
    bad_line = tmp_path / "c.txt"
    bad_line.write_text("just some words\n")
    with pytest.raises(ValueError, match="key = value"):
        load_train_config(str(bad_line))
    empty = tmp_path / "d.txt"
    empty.write_text("")
    assert load_train_config(str(empty)) == TrainConfig()
    for key in ("seeds", "b_models"):
        not_list = tmp_path / f"{key}.json"
        not_list.write_text(json.dumps({key: 5}))
        with pytest.raises(ValueError, match=f"{key} must be a list"):
            load_train_config(str(not_list))


# ---- dataset and training -------------------------------------------------

def test_gen_dataset_bounds_and_determinism():
    target = build_circuit(2, 2, 10.0, seed=3, stream=(0,))
    xs, ys = gen_dataset(target, 40, seed=11)
    xs2, ys2 = gen_dataset(target, 40, seed=11)
    assert np.array_equal(xs, xs2) and np.array_equal(ys, ys2)
    assert xs.shape == ys.shape == (40,)
    assert np.all(np.abs(xs) <= 1.0)
    assert np.all(np.abs(ys) <= 1.0 + 1e-12)  # Z expectation values
    xs3, _ = gen_dataset(target, 40, seed=12)
    assert not np.array_equal(xs, xs3)
    with pytest.raises(ValueError):
        gen_dataset(target, 0, seed=1)


def test_gen_dataset_matches_reference_labels():
    ref = REFERENCE["gen_dataset"]
    target = build_circuit(ref["n"], ref["depth"], ref["b_max"], ref["seed"],
                           tuple(ref["stream"]))
    xs, ys = gen_dataset(target, ref["count"], ref["data_seed"])
    assert xs.tolist() == ref["xs"]
    # labels are Z expectations, so the scale for "relative" is 1
    assert np.max(np.abs(ys - np.array(ref["ys"]))) <= 1e-12


def test_gen_dataset_labels_match_forward():
    target = build_circuit(2, 3, 5.0, seed=8, stream=(0,))
    xs, ys = gen_dataset(target, 12, seed=9)
    ones = np.ones(3)
    for i in (0, 5, 11):
        assert circuit_forward_batch(target, ones, [xs[i]])[0] == pytest.approx(
            float(ys[i]), abs=1e-12)


def train_one(model, data, cfg, shuffle_seed, theta0):
    """(theta, RMSE) of one run trained by _train_runs alone."""
    thetas, rmses = _train_runs([model], data[0][None], data[1][None], [0], cfg,
                                [shuffle_seed], np.asarray(theta0, dtype=float)[None])
    return thetas[0], float(rmses[0])


def test_adam_train_descends():
    cfg = TrainConfig(n=2, depth=2, dataset_size=60, lr=1e-2, epochs=30,
                      batch_size=16, seeds=(0,))
    model = build_circuit(2, 2, 1.0, seed=4, stream=(2, 0))
    target = build_circuit(2, 2, 1.0, seed=5, stream=(0,))
    data = gen_dataset(target, 60, seed=6)
    theta0 = np.array([0.4, -0.8])
    pred0 = circuit_forward_batch(model, theta0, data[0])
    rmse0 = float(np.sqrt(np.mean((pred0 - data[1]) ** 2)))
    theta, rmse = train_one(model, data, cfg, 7, theta0)
    assert rmse < rmse0
    assert theta.shape == (2,)
    assert not np.array_equal(theta, theta0)


def test_adam_train_deterministic():
    cfg = TrainConfig(n=2, depth=2, lr=1e-2, epochs=5, batch_size=10, seeds=(0,))
    model = build_circuit(2, 2, 1.0, seed=14, stream=(2, 0))
    data = gen_dataset(build_circuit(2, 2, 1.0, seed=15, stream=(0,)), 20, seed=16)
    theta0 = rng_stream(17).uniform(-np.pi, np.pi, 2)
    t1, r1 = train_one(model, data, cfg, 17, theta0)
    t2, r2 = train_one(model, data, cfg, 17, theta0)
    assert np.array_equal(t1, t2) and r1 == r2
    # another shuffle stream walks the batches in another order
    t3, _ = train_one(model, data, cfg, 18, theta0)
    assert not np.array_equal(t1, t3)


# ---- end-to-end study at toy scale ----------------------------------------

TOY = TrainConfig(n=2, depth=2, dataset_size=40, lr=1e-2, epochs=5,
                  batch_size=20, seeds=(2, 0, 1), b_models=(1.0, 10.0))


def test_spectrum_matching_toy_report():
    rep = spectrum_matching_experiment(TOY)
    assert rep.seeds == (0, 1, 2)  # sorted
    assert set(rep.rmse) == {1.0, 10.0}
    assert all(len(v) == 3 for v in rep.rmse.values())
    assert all(np.isfinite(v).all() for v in map(np.asarray, rep.rmse.values()))
    assert rep.wilcoxon_p is not None and 0.0 < rep.wilcoxon_p <= 1.0
    for b in rep.rmse:
        assert rep.means[b] == pytest.approx(float(np.mean(rep.rmse[b])), abs=1e-15)
    js = json.dumps(rep.to_dict())
    assert '"wilcoxon_p"' in js


def test_spectrum_matching_deterministic():
    rep1 = spectrum_matching_experiment(TOY)
    rep2 = spectrum_matching_experiment(TOY)
    assert rep1.rmse == rep2.rmse and rep1.wilcoxon_p == rep2.wilcoxon_p


def test_spectrum_matching_without_test_pairing():
    cfg = TrainConfig(n=2, depth=2, dataset_size=20, lr=1e-2, epochs=2,
                      batch_size=20, seeds=(0,), b_models=(0.5,))
    rep = spectrum_matching_experiment(cfg)
    assert rep.wilcoxon_p is None
    assert set(rep.rmse) == {0.5}


def test_spectrum_matching_more_than_twenty_seeds():
    cfg = TrainConfig(n=1, depth=1, dataset_size=4, lr=1e-2, epochs=1,
                      batch_size=4, seeds=tuple(range(21)), b_models=(1.0, 10.0))
    rep = spectrum_matching_experiment(cfg)
    assert len(rep.rmse[1.0]) == 21
    assert rep.wilcoxon_p is not None and 0.0 < rep.wilcoxon_p <= 1.0


def test_train_amplitude_estimate_bounds_memory():
    # the traced peak of a whole study stays within a small multiple of the
    # estimate, so the cap on the estimate bounds memory
    for cfg in (TrainConfig(n=2, depth=3, dataset_size=100, epochs=1, seeds=(0, 1)),
                TrainConfig(n=5, depth=6, dataset_size=60, batch_size=60, epochs=1,
                            seeds=(0,)),
                TrainConfig(n=1, depth=30, dataset_size=20, epochs=1, seeds=(0, 1, 2))):
        tracemalloc.start()
        try:
            spectrum_matching_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 16 * _train_work(cfg)[0], (cfg, peak)


def toy_runs(cfg):
    """The runs of spectrum_matching_experiment(cfg), built as it builds them."""
    runs = []
    for si, seed in enumerate(sorted(cfg.seeds)):
        target = build_circuit(cfg.n, cfg.depth, cfg.b_target, seed, (0,))
        data = gen_dataset(target, cfg.dataset_size, derive_seed(seed, 1))
        for bi, b in enumerate(cfg.b_models):
            init_seed = derive_seed(seed, 3, bi)
            runs.append((build_circuit(cfg.n, cfg.depth, b, seed, (2, bi)), data, si, init_seed,
                         rng_stream(init_seed).uniform(-np.pi, np.pi, cfg.depth)))
    return runs


def test_lockstep_runs_equal_solo_adam_train():
    cfg = TrainConfig(n=2, depth=3, dataset_size=45, lr=1e-2, epochs=4, batch_size=16,
                      seeds=(4, 1, 7), b_models=(0.5, 1.0, 10.0))
    runs = toy_runs(cfg)
    xs = np.stack([runs[3 * k][1][0] for k in range(3)])
    ys = np.stack([runs[3 * k][1][1] for k in range(3)])
    thetas, rmses = _train_runs([r[0] for r in runs], xs, ys, [r[2] for r in runs], cfg,
                                [r[3] for r in runs], np.stack([r[4] for r in runs]))
    report = spectrum_matching_experiment(cfg)
    for i, (model, data, si, init_seed, theta0) in enumerate(runs):
        theta, rmse = train_one(model, data, cfg, init_seed, theta0)
        assert np.array_equal(theta, thetas[i]) and rmse == rmses[i]
        assert report.rmse[cfg.b_models[i % 3]][si] == rmse
        assert not np.array_equal(theta, theta0)


def test_spectrum_matching_runs_independent_of_seed_subset_and_order():
    base = dict(n=2, depth=2, dataset_size=40, lr=1e-2, epochs=3, batch_size=12,
                b_models=(1.0, 10.0))
    full = spectrum_matching_experiment(TrainConfig(seeds=(0, 1, 2, 3), **base))
    for subset in ((3, 1), (2,), (1, 0, 3, 2)):
        rep = spectrum_matching_experiment(TrainConfig(seeds=subset, **base))
        assert rep.seeds == tuple(sorted(subset))
        for b in base["b_models"]:
            assert rep.rmse[b] == tuple(full.rmse[b][s] for s in rep.seeds)


def test_train_runs_reject_mixed_runs():
    cfg = TrainConfig(n=2, depth=2, dataset_size=10, epochs=1, seeds=(0,))
    model = build_circuit(2, 2, 1.0, 5, (2, 0))
    xs, ys = gen_dataset(build_circuit(2, 2, 1.0, 5, (0,)), 10, 6)
    for other in (build_circuit(2, 3, 1.0, 5, (2, 1)),
                  CircuitSpec(2, list(model.generators), observable=pauli_matrix("ZZ"))):
        with pytest.raises(DimMismatch, match="runs differ"):
            _train_runs([model, other], xs[None], ys[None], [0, 0], cfg, [1, 2],
                        np.zeros((2, 2)))


# ---- gradient variance sweep ----------------------------------------------

def test_variance_sweep_oracle_grid():
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    want = [0.0, 0.125, 0.5, 1.125, 2.0]
    for w, v in zip(grid, want):
        assert analytic_variance_oracle(w) == pytest.approx(v, abs=1e-12)
    with pytest.raises(ValueError):
        analytic_variance_oracle(-0.5)


def test_variance_oracle_small_weights_follow_series():
    # the closed form cancelled: 5% off at w = 1e-9, 0 at 1e-12, -0 at 1e-320
    for w in np.concatenate([np.logspace(-12, -4, 17), [1e-150, 1e-320, 0.0]]):
        a = 8.0 * np.pi * w
        want = 64.0 / 3.0 * np.pi ** 2 * w ** 4 * (1.0 - a * a / 20.0 + a ** 4 / 840.0)
        got = analytic_variance_oracle(w)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        assert math.copysign(1.0, got) == 1.0


def test_variance_oracle_closed_form_kept_above_series():
    w_edge = ORACLE_SERIES_BELOW / (8.0 * np.pi)
    # the two branches meet at the threshold
    below, above = (analytic_variance_oracle(w_edge * (1.0 + s)) for s in (-1e-12, 1e-12))
    assert below == pytest.approx(above, rel=1e-11)
    for w in (np.nextafter(w_edge, 1.0) * 1.0000001, 0.05, 0.1, 0.25, 0.5, 1.0, 3.7):
        closed = 4.0 * w * w * (0.5 - np.sin(8.0 * np.pi * w) / (16.0 * np.pi * w))
        assert analytic_variance_oracle(w) == closed


def test_variance_sweep_report():
    rep = variance_sweep([1.0, 0.0, 0.5], samples=50, seed=7)
    assert rep.weights == (0.0, 0.5, 1.0)  # sorted
    assert rep.samples == 50
    assert rep.variances[0] == 0.0  # w = 0: gradient identically zero
    assert rep.variances[1] < rep.variances[2]
    for w, e in zip(rep.weights, rep.etas):
        assert e == pytest.approx(2.0 / np.sqrt(1.0 + w * w), abs=1e-12)
    assert rep.etas[0] > rep.etas[1] > rep.etas[2]
    rep2 = variance_sweep([1.0, 0.0, 0.5], samples=50, seed=7)
    assert rep.variances == rep2.variances and rep.etas == rep2.etas


def test_variance_sweep_monte_carlo_accuracy():
    rep = variance_sweep([0.5, 1.0], samples=4000, seed=21)
    for w, v in zip(rep.weights, rep.variances):
        assert v == pytest.approx(analytic_variance_oracle(w), rel=0.1)


def test_variance_sweep_validation():
    with pytest.raises(ValueError):
        variance_sweep([], samples=10, seed=0)
    with pytest.raises(ValueError):
        variance_sweep([-0.1], samples=10, seed=0)
    with pytest.raises(ValueError):
        variance_sweep([1.5], samples=10, seed=0)
    with pytest.raises(ValueError):
        variance_sweep([0.5], samples=0, seed=0)
    with pytest.raises(ValueError, match="at most"):
        variance_sweep([0.5], samples=MAX_VARIANCE_SAMPLES + 1, seed=0)
    # each weight within its own cap, the total over the cap
    weights = np.linspace(0.0, 1.0, MAX_VARIANCE_DRAWS // MAX_VARIANCE_SAMPLES + 1)
    with pytest.raises(ValueError, match=f"at most {MAX_VARIANCE_DRAWS}"):
        variance_sweep(weights, samples=MAX_VARIANCE_SAMPLES, seed=0)
    assert variance_sweep([0.5], samples=1, seed=0).variances == (0.0,)


def test_variance_sweep_matches_reference():
    ref = REFERENCE["variance_sweep"]
    rep = variance_sweep(ref["weights"], ref["samples"], ref["seed"])
    np.testing.assert_allclose(rep.variances, ref["variances"], rtol=1e-12, atol=0)
    assert variance_sweep([0.0], ref["samples"], ref["seed"]).variances == (0.0,)


@pytest.mark.parametrize("w", [1e-9, 1e-6, 1e-3])
def test_variance_sweep_keeps_precision_at_tiny_weights(w):
    # the gradient of cos(2 w theta) is -2w sin(2w theta), exact on the same thetas
    rep = variance_sweep([w], samples=100_000, seed=5)
    thetas = rng_stream(5, 0).uniform(-2.0 * np.pi, 2.0 * np.pi, 100_000)
    want = float(np.var(-2.0 * w * np.sin(2.0 * w * thetas), ddof=1))
    assert abs(rep.variances[0] - want) <= 1e-12 * want


# ---- exact signed-rank test -----------------------------------------------

def wilcoxon_brute(pairs):
    """Direct 2^n enumeration over sign assignments, average ranks."""
    d = np.asarray(pairs, dtype=float)
    d = d[:, 0] - d[:, 1]
    d = d[d != 0.0]
    ranks = scipy.stats.rankdata(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    n = d.size
    sums = np.array([sum(ranks[i] for i in range(n) if (mask >> i) & 1)
                     for mask in range(1 << n)])
    p_le = float(np.count_nonzero(sums <= w_plus)) / sums.size
    p_ge = float(np.count_nonzero(sums >= w_plus)) / sums.size
    return min(1.0, 2.0 * min(p_le, p_ge))


def test_wilcoxon_all_positive_ten_pairs():
    pairs = [(float(i + 1), 0.0) for i in range(10)]
    p = wilcoxon_exact(pairs)
    assert p == 2.0 / 1024.0
    assert f"{p:.4f}" == "0.0020"


def test_wilcoxon_mirrored_is_one():
    assert wilcoxon_exact([(1.0, 0.0), (0.0, 1.0)]) == 1.0
    assert wilcoxon_exact([(2.0, 0.0), (0.0, 2.0), (3.0, 0.0), (0.0, 3.0)]) == 1.0


def test_wilcoxon_zeros_dropped():
    pairs = [(float(i + 1), 0.0) for i in range(10)] + [(5.0, 5.0)]
    assert wilcoxon_exact(pairs) == 2.0 / 1024.0
    with pytest.raises(AllZeroDifferences):
        wilcoxon_exact([(1.0, 1.0), (2.0, 2.0)])


def test_wilcoxon_matches_brute_force_with_ties():
    pairs = [(2.0, 0.0), (0.0, 2.0), (3.0, 0.0), (1.0, 0.0), (1.0, 0.0)]
    assert wilcoxon_exact(pairs) == wilcoxon_brute(pairs)
    gen = np.random.default_rng(90)
    for _ in range(30):
        n = int(gen.integers(3, 8))
        a = gen.integers(-4, 5, n).astype(float)
        b = gen.integers(-4, 5, n).astype(float)
        if np.all(a == b):
            continue
        pairs = list(zip(a, b))
        assert wilcoxon_exact(pairs) == wilcoxon_brute(pairs)


def test_wilcoxon_matches_scipy_exact_no_ties():
    gen = np.random.default_rng(91)
    for _ in range(10):
        n = int(gen.integers(4, 12))
        d = gen.permutation(np.arange(1, n + 1)) * gen.choice([-1.0, 1.0], n)
        pairs = [(float(x), 0.0) for x in d]
        want = scipy.stats.wilcoxon(d, alternative="two-sided", method="exact").pvalue
        assert wilcoxon_exact(pairs) == pytest.approx(float(want), rel=1e-12)


def test_wilcoxon_affine_invariance():
    gen = np.random.default_rng(92)
    a = gen.normal(size=8)
    b = gen.normal(size=8)
    base = wilcoxon_exact(list(zip(a, b)))
    for scale, shift in ((2.5, 1.0), (-3.0, 0.4), (0.01, -7.0)):
        assert wilcoxon_exact(list(zip(scale * a + shift, scale * b + shift))) == base


def test_wilcoxon_validation():
    with pytest.raises(ValueError):
        wilcoxon_exact([])
    with pytest.raises(ValueError):
        wilcoxon_exact([(1.0, 2.0, 3.0)])
    # at most MAX_SIGNED_RANK_PAIRS pairs; all differences positive give p = 2 / 2^n
    pairs = [(float(i), 0.0) for i in range(1, MAX_SIGNED_RANK_PAIRS + 2)]
    with pytest.raises(ValueError, match=f"at most {MAX_SIGNED_RANK_PAIRS} pairs"):
        wilcoxon_exact(pairs)
    assert wilcoxon_exact(pairs[:-1]) == 2.0 ** (1 - MAX_SIGNED_RANK_PAIRS)
    # exact beyond 20 pairs
    gen = np.random.default_rng(93)
    for n in range(21, 31):
        d = gen.permutation(np.arange(1, n + 1)) * gen.choice([-1.0, 1.0], n)
        pairs = [(float(x), 0.0) for x in d]
        want = scipy.stats.wilcoxon(d, alternative="two-sided", method="exact").pvalue
        assert wilcoxon_exact(pairs) == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("bad", [(float("nan"), 0.0), (0.0, float("nan")), (float("inf"), 0.0),
                                 (0.0, -float("inf")), (float("inf"), float("inf")),
                                 (1e308, -1e308)])
def test_wilcoxon_rejects_non_finite_differences(bad):
    # a nan or infinite difference has no rank; 1e308 - (-1e308) overflows
    with pytest.raises(ValueError, match="finite"):
        wilcoxon_exact([bad, (1.0, 0.0), (2.0, 0.0)])
