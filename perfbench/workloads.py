"""The four benchmark workloads.

Each workload makes its inputs from the benchmark seed with numpy alone
(qspec receives only the generated inputs), warms up outside the timed
section, and exposes its timed work as a list of named operations. An
operation drives qspec through ``qspec.cli.dispatch`` where a subcommand
exists and through the library otherwise; its return value is the output
the oracles in ``oracles.py`` check after the timed section.

Why these four:

* train: the paper's headline study, ``qspec train --fast``. Small-batch
  forward passes (11 parameter vectors x 32 inputs, N = 8, L = 5) are
  nearly all of its time; it never calls dla or bounds.
* landscape: the same circuit family in the kernel shapes train does not
  use (theta-scans with V = 256 x B = 8, single-input grad_fd with
  V = 10 x B = 1, one x-grid prediction with V = 1 x B = 1e5), plus
  per-layer Fourier coefficients, ``qspec spectrum`` on the layer
  generators and ``qspec variance`` with 1e5 samples. A kernel
  that trades per-row work for per-variant work wins on one side of this
  workload and loses on the other.
* dla: ``qspec dla`` on su(8), a 3-qubit ring Ising set and u(4). Dense
  closure, center and derived algebra are all of its time and memory.
* bounds: ``qspec bounds lower`` at d = 3 (the annulus scan) and
  ``bounds upper`` with 1000 random series: the only heavy bounds code.
"""

import contextlib
import io
import json

import numpy as np

import qspec
import qspec.cli

# circuit family shared by train and landscape
N_QUBITS, DEPTH, B_TARGET = 3, 5, 10.0


class OpFailed(Exception):
    """A CLI invocation ended with a non-zero exit code."""


def cli(argv) -> dict:
    """Run one qspec subcommand in-process; returns its JSON result."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qspec.cli.dispatch(list(argv))
    if code != 0:
        raise OpFailed(f"qspec {' '.join(argv)} exited with code {code}")
    return json.loads(buf.getvalue())["result"]


def _rng(seed: int, workload: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), workload])


class Train:
    """``qspec train --fast`` on six experiment seeds derived from the
    benchmark seed: 100 * seed + (0..5), so seed 0 is the CLI default."""

    name = "train"

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.seeds = [100 * self.seed + k for k in range(6)]

    def warm_up(self) -> None:
        qspec.spectrum_matching_experiment(
            qspec.TrainConfig(dataset_size=32, epochs=1, seeds=(0,)))
        cli(["bounds", "limit", "--pairs", "2:2"])

    def ops(self) -> list:
        argv = ["train", "--fast", "--seeds", ",".join(map(str, self.seeds))]
        return [("train", lambda: cli(argv))]


class Landscape:
    """Theta-scans, Fourier coefficients, gap sets, gradients and an x-grid
    prediction on one seeded circuit (3 qubits, 5 layers, b = 10), and the
    variance sweep."""

    name = "landscape"

    def __init__(self, seed: int, n_theta: int = 256, n_scan_x: int = 8,
                 n_grad_x: int = 256, n_grid: int = 100_000,
                 samples: int = 100_000):
        self.seed = int(seed)
        gen = _rng(seed, 1)
        self.theta0 = gen.uniform(-np.pi, np.pi, DEPTH)
        self.xs_scan = gen.uniform(-np.pi, np.pi, n_scan_x)
        self.theta_grid = (gen.uniform(0.0, 2.0 * np.pi / n_theta)
                           + np.linspace(-np.pi, np.pi, n_theta, endpoint=False))
        # the scan inputs come first, so their gradients can be checked
        # against the Fourier reconstruction
        self.xs_grad = np.concatenate(
            [self.xs_scan, gen.uniform(-np.pi, np.pi, n_grad_x - n_scan_x)])
        self.x_grid = (gen.uniform(0.0, 2.0 * np.pi / n_grid)
                       + 2.0 * np.pi * np.arange(n_grid) / n_grid)
        self.weights = [0.1 * k for k in range(1, 11)]
        self.samples = samples
        self.spec = None

    def warm_up(self) -> None:
        spec = qspec.build_circuit(N_QUBITS, DEPTH, B_TARGET, self.seed + 1, (0,))
        qspec.circuit_forward_batch(spec, self.theta0, self.xs_scan)
        qspec.grad_fd(spec, self.theta0, 0.5)
        qspec.trig_poly_coeffs(spec.generators[0], np.eye(8)[0], spec.observable)
        cli(["spectrum", "--eigs", "-1,0,1"])
        cli(["variance", "--weights", "0.5", "--samples", "10", "--seed", str(self.seed)])

    def _build(self):
        self.spec = qspec.build_circuit(N_QUBITS, DEPTH, B_TARGET, self.seed, (0,))
        return self.spec

    def _scans(self):
        enc = qspec.encode_inputs(self.spec, self.xs_scan)
        out = []
        for layer in range(DEPTH):
            thetas = np.tile(self.theta0, (self.theta_grid.shape[0], 1))
            thetas[:, layer] = self.theta_grid
            out.append(qspec.circuit_forward_encoded(self.spec, thetas, enc))
        return out

    def _layer_coeffs(self):
        """Per layer, the Fourier coefficients of the expectation as a
        function of that layer's angle, one dict per scan input, with the
        other layers held at theta0."""
        spec = self.spec
        gens = spec.generators
        units = [qspec.unitary_from_generator(h, t) for h, t in zip(gens, self.theta0)]
        states = qspec.encode_inputs(spec, self.xs_scan).T        # columns
        out = []
        for layer in range(DEPTH):
            suffix = np.eye(spec.dim, dtype=complex)
            for u in units[layer + 1:]:
                suffix = u @ suffix
            obs_eff = suffix.conj().T @ spec.observable @ suffix
            out.append([qspec.trig_poly_coeffs(gens[layer], states[:, b], obs_eff)
                        for b in range(states.shape[1])])
            states = units[layer] @ states
        return out

    def _spectrum(self):
        """``qspec spectrum`` on the eigenvalues of every layer generator."""
        argv = ["spectrum"]
        for h in self.spec.generators:
            argv += ["--eigs", ",".join(repr(float(v)) for v in qspec.eig_hermitian(h).values)]
        return cli(argv)

    def ops(self) -> list:
        variance = ["variance", "--weights", ",".join(map(repr, self.weights)),
                    "--samples", str(self.samples), "--seed", str(self.seed)]
        return [
            ("build_circuit", self._build),
            ("theta_scans", self._scans),
            ("layer_coeffs", self._layer_coeffs),
            ("spectrum", self._spectrum),
            ("grad_fd", lambda: [qspec.grad_fd(self.spec, self.theta0, x)
                                 for x in self.xs_grad]),
            ("x_grid", lambda: qspec.circuit_forward_batch(
                self.spec, self.theta0, self.x_grid)),
            ("variance", lambda: cli(variance)),
        ]


# (case, generator Pauli strings); the seed shuffles and weights them
DLA_CASES = (
    ("su8", ("XII", "YII", "IXI", "IYI", "IIX", "IIY", "ZZI", "IZZ")),
    ("ring_ising", ("XII", "IXI", "IIX", "ZZI", "IZZ", "ZIZ")),
    ("u4", ("XI", "YI", "IX", "IY", "ZZ", "II")),
)

# nonzero weights leave every dimension and eta unchanged
DLA_WEIGHTS = (0.5, 0.75, 1.25, 1.5, 2.0)


class Dla:
    """``qspec dla`` on each case, generators in a seeded order with
    seeded nonzero weights."""

    name = "dla"

    def __init__(self, seed: int, cases=DLA_CASES):
        gen = _rng(seed, 2)
        self.cases = []
        for case, labels in cases:
            order = gen.permutation(len(labels))
            weights = gen.choice(DLA_WEIGHTS, len(labels))
            terms = [(labels[i], float(w)) for i, w in zip(order, weights)]
            self.cases.append((case, terms))

    @staticmethod
    def argv(terms) -> list:
        return ["dla", "--paulis", ";".join(f"{w!r}*{label}" for label, w in terms)]

    def warm_up(self) -> None:
        cli(["dla", "--paulis", "X;Y"])

    def ops(self) -> list:
        return [(case, lambda t=terms: cli(self.argv(t))) for case, terms in self.cases]


class Bounds:
    """``bounds lower`` on a d = 3 annulus scan and ``bounds upper`` on
    1000 random unit-ball series drawn from the seed."""

    name = "bounds"

    def __init__(self, seed: int, lower_k=(4, 6, 8, 10, 12, 14, 16), count: int = 1000):
        self.seed = int(seed)
        self.d, self.r = 3, 2.0
        self.lower_k = tuple(lower_k)
        self.upper_d, self.upper_r, self.count = 2, 2.0, count

    def warm_up(self) -> None:
        cli(["bounds", "lower", "--d", "1", "--r", "2", "--K", "1,2,3"])
        cli(["bounds", "upper", "--count", "2", "--seed", str(self.seed)])

    def ops(self) -> list:
        lower = ["bounds", "lower", "--d", str(self.d), "--r", repr(self.r),
                 "--K", ",".join(map(str, self.lower_k))]
        upper = ["bounds", "upper", "--d", str(self.upper_d), "--r", repr(self.upper_r),
                 "--count", str(self.count), "--seed", str(self.seed)]
        return [("lower", lambda: cli(lower)), ("upper", lambda: cli(upper))]


WORKLOADS = {cls.name: cls for cls in (Train, Landscape, Dla, Bounds)}
