"""Spectrum-matching training and gradient-variance experiments.

Two numerical studies with analytic oracles:

* spectrum_matching_experiment: a random-generator target circuit with
  eigenvalue bound b = 10 is fit by models whose generators have
  b in {0.1, 1, 10}; only the spectrum-matched model can represent the
  target's frequency content, and its RMSE wins across seeds (exact
  signed-rank test on the b = 1 vs b = 10 pairing). Every (seed, model)
  run trains in lockstep: one Adam loop, one kernel call per step.

* variance_sweep: for H(w) = w (Y on qubit 1) + identity on two qubits,
  the gradient variance over theta ~ U[-2pi, 2pi] grows with the spectral
  width 2w while the trace-concentration eta falls; closed forms for both
  are available as oracles.
"""

import json
import operator
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .dla import eta
from .linalg import QspecError, derive_seed, rng_stream
from .qsim import (FD_STEP, MAX_EIGEN_BOUND, MAX_QUBITS, CircuitSpec, _fd_forward, _forward,
                   _phases, _stack_specs, _workspace, circuit_forward_encoded, encode_inputs,
                   grad_analytic_1p_batch, make_generator, pauli_matrix)
from .spectrum import _sorted_runs

class AllZeroDifferences(QspecError):
    """Signed-rank test is undefined when every difference is zero."""


# stream roles hung off the experiment seed
_TARGET, _DATA, _MODEL, _INIT = 0, 1, 2, 3

# Most gradient samples a variance sweep draws per weight (bounds memory)
MAX_VARIANCE_SAMPLES = 10 ** 6
# Most gradient samples a variance sweep draws over all weights (bounds time)
MAX_VARIANCE_DRAWS = 10 ** 7
# Below a = 8 pi w = this, analytic_variance_oracle's closed form would lose
# about 1e-15 / a^2 to cancellation; its series through a^14 loses 1e-18
ORACLE_SERIES_BELOW = 0.5
# Most complex amplitudes a training study holds at once (bounds memory);
# TrainConfig() holds 358,800
MAX_TRAIN_AMPLITUDES = 1 << 21
# Most estimated multiply-adds of a training study (bounds time); TrainConfig()
# needs about 2.4e10
MAX_TRAIN_MULADDS = 10 ** 11
# Most optimizer steps of a training study: each has a fixed cost of tens of
# microseconds, whatever its arithmetic; TrainConfig() takes 16,000
MAX_TRAIN_STEPS = 1 << 20
# Most pairs wilcoxon_exact takes, and so most seeds of a training study: its
# dynamic program takes O(n^3) time and O(n^2) memory, about 0.35 s and 2 MiB
# per array at 500 pairs on one core, and 3 s at 1,000
MAX_SIGNED_RANK_PAIRS = 500

# How far one Adam step moves a parameter, in units of lr, for the betas of
# _train_runs: by Cauchy-Schwarz at most (1 - beta1) / sqrt((1 - beta2)
# (1 - beta1^2 / beta2)) = 7.27, approached by gradients that grow by
# beta2 / beta1 every step; bias correction and eps only lower it
ADAM_STEP_BOUND = 7.3


@dataclass(frozen=True)
class TrainConfig:
    """Configuration of the spectrum-matching study (defaults = full scale).

    ValueError at construction for a malformed field, more than
    MAX_SIGNED_RANK_PAIRS seeds, or a study over the MAX_TRAIN_AMPLITUDES,
    MAX_TRAIN_MULADDS or MAX_TRAIN_STEPS caps.
    """

    n: int = 3
    depth: int = 5
    dataset_size: int = 1000
    lr: float = 1e-5
    epochs: int = 500
    batch_size: int = 32
    fd_step: float = FD_STEP
    seeds: tuple = tuple(range(10))
    b_target: float = 10.0
    b_models: tuple = (0.1, 1.0, 10.0)
    share_generator_basis: bool = False

    def __post_init__(self):
        for name in ("n", "depth", "dataset_size", "epochs", "batch_size"):
            object.__setattr__(self, name, _whole(name, getattr(self, name)))
        for name in ("lr", "fd_step", "b_target"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        object.__setattr__(self, "seeds", tuple(_whole("seeds", s) for s in self.seeds))
        object.__setattr__(self, "b_models", tuple(_real("b_models", b) for b in self.b_models))
        if self.n < 1 or self.depth < 1 or self.dataset_size < 1:
            raise ValueError("n, depth and dataset_size must be positive")
        if self.n > MAX_QUBITS:
            raise ValueError(f"n must be at most {MAX_QUBITS}, got {self.n}")
        if (self.epochs < 1 or self.batch_size < 1 or not _positive(self.lr, self.fd_step)
                or max(self.lr, self.fd_step) > 1):
            raise ValueError("epochs and batch_size must be positive, lr and fd_step in (0, 1]")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be nonempty and distinct")
        if len(self.seeds) > MAX_SIGNED_RANK_PAIRS:
            raise ValueError(f"seeds must number at most {MAX_SIGNED_RANK_PAIRS}, the most pairs "
                             f"the exact signed-rank test takes; got {len(self.seeds)}")
        # make_generator's bounds, checked before any circuit is built
        for name, bounds in (("b_models", self.b_models), ("b_target", (self.b_target,))):
            if not bounds or not all(0.0 < b <= MAX_EIGEN_BOUND for b in bounds):
                raise ValueError(f"{name} must lie in (0, {MAX_EIGEN_BOUND:.4g}]")
        if not isinstance(self.share_generator_basis, bool):
            raise ValueError("share_generator_basis must be true or false")
        caps = {"complex amplitudes held": MAX_TRAIN_AMPLITUDES,
                "multiply-adds": MAX_TRAIN_MULADDS, "optimizer steps": MAX_TRAIN_STEPS}
        work = _train_work(self)
        for (what, cap), value in zip(caps.items(), work):
            if value > cap:
                raise ValueError(f"training exceeds the cap of {cap:.3g} {what}; use fewer "
                                 f"seeds, models, samples, epochs, layers or qubits")
        # theta starts in [-pi, pi] and the finite differences shift it by fd_step,
        # so theta * lambda in qsim._phases stays finite while this product does
        steps = work[2]
        reach = np.pi + ADAM_STEP_BOUND * self.lr * steps + self.fd_step
        if not max(self.b_models) * reach <= sys.float_info.max:
            raise ValueError(f"eigenphases could overflow: the largest b_models, "
                             f"{max(self.b_models):.4g}, times the angle reach {reach:.4g} of "
                             f"{steps} steps at this lr exceeds the largest float; use a "
                             f"smaller b_models, lr or number of steps")


def _whole(name: str, value) -> int:
    """value as an int; integral floats (JSON writes 1e13 as one) are accepted."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be a whole number, got {value!r}") from None


def _real(name: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def _positive(*values) -> bool:
    return all(np.isfinite(v) and v > 0 for v in values)


def _train_work(cfg: TrainConfig) -> tuple[int, int, int]:
    """(complex amplitudes held at once, multiply-adds, optimizer steps) of
    the lockstep study of cfg, in exact integers; nothing is allocated.

    Each of the R = seeds x models runs holds its dataset's encoded rows at
    the end and, per step, the phases, the unitaries and the states of its
    2L + 1 parameter vectors; a step costs each run about
    (2L + 1) (L N^3 + B N^2) multiply-adds.
    """
    dim = 1 << cfg.n
    runs = len(cfg.seeds) * len(cfg.b_models)
    batch = min(cfg.batch_size, cfg.dataset_size)
    variants = 2 * cfg.depth + 1
    steps = cfg.epochs * -(-cfg.dataset_size // batch)
    held = runs * (cfg.dataset_size + variants * (cfg.depth + dim + batch)) * dim
    muladds = runs * steps * variants * (cfg.depth * dim ** 3 + batch * dim ** 2)
    return held, muladds, steps


def fast_profile(cfg: TrainConfig) -> TrainConfig:
    """cfg reduced to 200 samples, 100 epochs and seeds 0..5; other fields kept."""
    return replace(cfg, dataset_size=200, epochs=100, seeds=tuple(range(6)))


def load_train_config(path: str) -> TrainConfig:
    """TrainConfig from a file: one JSON object, or key = value lines.

    Unknown keys are rejected; list values become tuples. Lines starting
    with # are comments in the key = value form.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.strip()
    if not stripped:
        return TrainConfig()
    if stripped.startswith("{"):
        data = json.loads(stripped)
    else:
        data = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, _, value = line.partition("=")
            try:
                data[key.strip()] = json.loads(value.strip())
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: unparseable value {value.strip()!r}") from exc
    known = {f.name for f in fields(TrainConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for key in ("seeds", "b_models"):
        if key in data:
            if not isinstance(data[key], list):
                raise ValueError(f"{key} must be a list, got {data[key]!r}")
            data[key] = tuple(data[key])
    return TrainConfig(**data)


@dataclass(frozen=True, eq=False)
class TrainReport:
    """Per-seed RMSE by model bound, summary stats, and the paired test."""

    config: TrainConfig
    seeds: tuple
    b_models: tuple
    rmse: dict         # b -> tuple of per-seed final RMSE, seed order
    means: dict        # b -> mean RMSE
    stds: dict         # b -> sample std of RMSE (0 for a single seed)
    wilcoxon_p: float | None  # b=1 vs b=10 pairing when both present

    def to_dict(self) -> dict:
        cfg = {f.name: getattr(self.config, f.name) for f in fields(TrainConfig)}
        return {
            "config": cfg,
            "seeds": list(self.seeds),
            "b_models": list(self.b_models),
            "rmse": {repr(b): list(v) for b, v in self.rmse.items()},
            "means": {repr(b): v for b, v in self.means.items()},
            "stds": {repr(b): v for b, v in self.stds.items()},
            "wilcoxon_p": self.wilcoxon_p,
        }


def build_circuit(n: int, depth: int, b_max: float, seed: int, stream: tuple) -> CircuitSpec:
    """Circuit whose layer generators are drawn from one seed stream."""
    gens = [make_generator(1 << n, b_max, derive_seed(seed, *stream, layer))
            for layer in range(depth)]
    return CircuitSpec(n, gens)


def gen_dataset(target: CircuitSpec, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(xs, ys): inputs uniform on [-1, 1], labels from the target circuit
    evaluated at all-ones parameters."""
    if count < 1:
        raise ValueError("count must be positive")
    xs = rng_stream(seed).uniform(-1.0, 1.0, int(count))
    ys = np.asarray(
        circuit_forward_encoded(target, np.ones((1, target.depth)), encode_inputs(target, xs))[0])
    return xs, ys


def _train_runs(models, xs: np.ndarray, ys: np.ndarray, data_of, cfg: TrainConfig,
                shuffle_seeds, theta0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adam on R runs in lockstep; returns the final thetas (R, L) and RMSEs (R,).

    Run r trains models[r] from theta0[r] on dataset data_of[r] of the
    inputs xs and labels ys, both (S, M). DimMismatch unless all models
    share qubit count, depth, entangler and observable. Each epoch every
    run draws one permutation of its data from its own stream
    (shuffle_seeds[r], 1) and walks batches of cfg.batch_size. A step gets
    the centre values and all L central differences (step cfg.fd_step) of
    every run from one _fd_forward call on the 2L + 1 parameter vectors
    per run, and updates each run's Adam moments (bias-corrected,
    beta1 = 0.9, beta2 = 0.999, eps = 1e-8). Each run's slice of every
    array is computed as it would be alone, so its result does not depend
    on which runs train beside it.
    """
    stack = _stack_specs(models)
    n_sets, n_samples = xs.shape
    encoded = encode_inputs(models[0], xs.ravel()).reshape(n_sets, n_samples, -1)
    data_of = np.asarray(data_of)
    rows = data_of[:, None]
    shufflers = [rng_stream(seed, 1) for seed in shuffle_seeds]

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    theta = np.array(theta0, dtype=float)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step_count = 0
    batch = min(cfg.batch_size, n_samples)
    work = _workspace(len(models), 2 * theta.shape[1] + 1, encoded.shape[-1], batch)

    for _ in range(cfg.epochs):
        orders = np.stack([shuffler.permutation(n_samples) for shuffler in shufflers])
        for start in range(0, n_samples, batch):
            idx = orders[:, start:start + batch]
            vals, dfs = _fd_forward(stack, theta, encoded[rows, idx], cfg.fd_step, work)
            resid = vals - ys[rows, idx]
            grad = np.mean(2.0 * resid[:, None, :] * dfs, axis=2)

            step_count += 1
            m = beta1 * m + (1.0 - beta1) * grad
            v = beta2 * v + (1.0 - beta2) * grad * grad
            mhat = m / (1.0 - beta1 ** step_count)
            vhat = v / (1.0 - beta2 ** step_count)
            theta = theta - cfg.lr * mhat / (np.sqrt(vhat) + eps)

    pred = _forward(stack, _phases(stack, theta[:, None]), encoded[data_of])[:, 0]
    return theta, np.sqrt(np.mean((pred - ys[data_of]) ** 2, axis=1))


def spectrum_matching_experiment(cfg: TrainConfig | None = None) -> TrainReport:
    """Train every model bound on every seed and pair-test the outcome.

    All seeds x models runs train in lockstep (_train_runs): one Adam loop
    over an (R, L) theta array, one kernel call per step. Run (seed, b)
    fits model stream (seed, 2, index of b), or (seed, 2, 0) for every b
    when share_generator_basis, to the seed's dataset from theta0 on
    stream derive_seed(seed, 3, index of b), which also seeds its shuffler.
    Runs do not affect each other, so a seed's results do not depend on
    the other seeds. The report lists seeds in sorted order. cfg is
    bounded by its caps (TrainConfig) before any circuit is built.
    """
    cfg = cfg or TrainConfig()
    seeds = sorted(cfg.seeds)
    models, init_seeds, inits, data = [], [], [], []
    for seed in seeds:
        target = build_circuit(cfg.n, cfg.depth, cfg.b_target, seed, (_TARGET,))
        data.append(gen_dataset(target, cfg.dataset_size, derive_seed(seed, _DATA)))
        for bi, b in enumerate(cfg.b_models):
            model_stream = (_MODEL, 0) if cfg.share_generator_basis else (_MODEL, bi)
            models.append(build_circuit(cfg.n, cfg.depth, b, seed, model_stream))
            init_seeds.append(derive_seed(seed, _INIT, bi))
            inits.append(rng_stream(init_seeds[-1]).uniform(-np.pi, np.pi, cfg.depth))
    n_models = len(cfg.b_models)
    xs, ys = (np.stack(arrays) for arrays in zip(*data))
    _, final = _train_runs(models, xs, ys, np.repeat(np.arange(len(seeds)), n_models), cfg,
                           init_seeds, np.stack(inits))
    final = final.reshape(len(seeds), n_models)

    rmse = {b: tuple(final[:, bi].tolist()) for bi, b in enumerate(cfg.b_models)}
    means = {b: float(np.mean(v)) for b, v in rmse.items()}
    stds = {b: float(np.std(v, ddof=1)) if len(v) > 1 else 0.0 for b, v in rmse.items()}

    p = None
    if 1.0 in cfg.b_models and 10.0 in cfg.b_models:
        try:
            p = wilcoxon_exact(list(zip(rmse[1.0], rmse[10.0])))
        except AllZeroDifferences:
            p = 1.0
    return TrainReport(config=cfg, seeds=tuple(seeds), b_models=cfg.b_models,
                       rmse=rmse, means=means, stds=stds, wilcoxon_p=p)


@dataclass(frozen=True, eq=False)
class VarianceSweepReport:
    """Gradient variance and eta against the spectral-width weight."""

    weights: tuple
    variances: tuple
    etas: tuple
    samples: int

    def to_dict(self) -> dict:
        return {"weights": list(self.weights), "variances": list(self.variances),
                "etas": list(self.etas), "samples": self.samples}


def _variance_operators(w: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    h = float(w) * pauli_matrix("IY") + pauli_matrix("II")
    obs = pauli_matrix("IZ")
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    return h, obs, state


def analytic_variance_oracle(w: float) -> float:
    """Closed-form Var_theta[dC/dtheta] for theta ~ U[-2pi, 2pi].

    The cost is C(theta) = cos(2 w theta), so the derivative is
    -2w sin(2 w theta) and the variance integrates to
    4 w^2 (1/2 - sin(8 pi w) / (16 pi w)) = 4 w^2 (a - sin a) / (2a) with
    a = 8 pi w. Below a = ORACLE_SERIES_BELOW the difference cancels, so
    (a - sin a) / (2a) is summed as its Taylor series a^2/12 - a^4/240 +
    ... through a^14 instead; the result is never negative, and 0 at w = 0.
    """
    w = float(w)
    if not np.isfinite(w) or w < 0:
        raise ValueError("weight must be finite and nonnegative")
    a = 8.0 * np.pi * w
    if a < ORACLE_SERIES_BELOW:
        x = a * a
        series = 1.0
        for d in (210.0, 156.0, 110.0, 72.0, 42.0, 20.0):   # (2k + 2)(2k + 3), k = 6 .. 1
            series = 1.0 - x / d * series
        return 4.0 * w * w * (x / 12.0) * series
    return 4.0 * w * w * (0.5 - np.sin(8.0 * np.pi * w) / (16.0 * np.pi * w))


def variance_sweep(weights, samples: int, seed: int) -> VarianceSweepReport:
    """Monte-Carlo gradient variance and eta over a weight grid.

    For each weight w (sorted ascending), draws `samples` values of theta
    uniform on [-2pi, 2pi] from stream (seed, index) and evaluates the
    exact one-parameter gradient of <00| U^dag (Z on qubit 1) U |00> for
    the generator H(w) = w (Y on qubit 1) + identity. Sample variance
    (ddof = 1) except for a single sample, where the variance is 0.
    ValueError, before any draw, for more than MAX_VARIANCE_SAMPLES samples
    per weight or more than MAX_VARIANCE_DRAWS over all weights.
    """
    ws = sorted(float(w) for w in weights)
    if not ws:
        raise ValueError("need at least one weight")
    if any(not np.isfinite(w) or w < 0.0 or w > 1.0 for w in ws):
        raise ValueError("weights must lie in [0, 1]")
    samples = int(samples)
    if samples < 1:
        raise ValueError("need at least one sample")
    if samples > MAX_VARIANCE_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_VARIANCE_SAMPLES}, got {samples}")
    if len(ws) * samples > MAX_VARIANCE_DRAWS:
        raise ValueError(f"weights x samples must be at most {MAX_VARIANCE_DRAWS}, "
                         f"got {len(ws)} x {samples}")

    variances, etas = [], []
    for idx, w in enumerate(ws):
        h, obs, state = _variance_operators(w)
        thetas = rng_stream(seed, idx).uniform(-2.0 * np.pi, 2.0 * np.pi, samples)
        grads = grad_analytic_1p_batch(h, thetas, obs, state)
        variances.append(float(np.var(grads, ddof=1)) if samples > 1 else 0.0)
        etas.append(float(eta(h)))
    return VarianceSweepReport(weights=tuple(ws), variances=tuple(variances),
                               etas=tuple(etas), samples=samples)


def _doubled_ranks(vals: np.ndarray) -> np.ndarray:
    """Twice the ranks 1..n of finite vals, ties sharing their average rank.
    A tie run over sorted positions i..j gets i + j + 2, an integer."""
    order = np.argsort(vals, kind="stable")
    starts = _sorted_runs(vals[order], 0.0)[1]
    ends = np.append(starts[1:], vals.shape[0])         # one past each run
    ranks2 = np.empty(vals.shape[0], dtype=np.int64)
    ranks2[order] = np.repeat(starts + ends + 1, ends - starts)
    return ranks2


def wilcoxon_exact(pairs) -> float:
    """Exact two-sided signed-rank p-value over all 2^n sign assignments.

    Differences a - b per pair, ValueError unless all are finite; zero
    differences are dropped (error if none remain); tied |differences|
    share average ranks. The statistic is the sum of ranks of the
    positive differences, and the two-sided p doubles the smaller exact
    tail (capped at 1). The null distribution of twice the statistic
    comes from a dynamic program over the doubled ranks r: starting from
    prob[0] = 1, each r sets prob <- (prob + prob shifted by r) / 2. Every
    entry is a count over 2^n, so for n <= 52 the tails are exact; the
    work is O(n^3), so ValueError past MAX_SIGNED_RANK_PAIRS pairs.
    """
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
        raise ValueError("pairs must be a nonempty list of (a, b) pairs")
    if arr.shape[0] > MAX_SIGNED_RANK_PAIRS:
        raise ValueError(f"at most {MAX_SIGNED_RANK_PAIRS} pairs, got {arr.shape[0]}")
    with np.errstate(invalid="ignore", over="ignore"):
        d = arr[:, 0] - arr[:, 1]
    if not np.all(np.isfinite(d)):
        raise ValueError("differences a - b must be finite")
    d = d[d != 0.0]
    if d.size == 0:
        raise AllZeroDifferences("every difference is zero")

    ranks2 = _doubled_ranks(np.abs(d))
    w2 = int(np.sum(ranks2[d > 0]))
    prob = np.zeros(int(np.sum(ranks2)) + 1)
    prob[0] = 1.0
    for r in ranks2:
        shifted = np.zeros_like(prob)
        shifted[r:] = prob[:-r]
        prob = 0.5 * (prob + shifted)
    p_le = float(np.sum(prob[:w2 + 1]))
    p_ge = float(np.sum(prob[w2:]))
    return min(1.0, 2.0 * min(p_le, p_ge))
