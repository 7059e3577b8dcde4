import tracemalloc
import warnings

import numpy as np
import pytest

from qspec import qsim
from qspec.linalg import (DimMismatch, NoConvergence, complex_gaussians, eig_hermitian,
                          haar_unitary, rng_stream, unitary_from_generator)
from qspec.qsim import (FD_STEP, FORWARD_BLOCK_ELEMENTS, GRAD_BLOCK_ELEMENTS, MAX_EIGEN_BOUND,
                        CircuitSpec, _block_rows, _eigen_gram, _fd_batch_grad, _forward, _phases,
                        _row_blocks, _shift_gains, _stack_specs,
                        circuit_forward_batch, circuit_forward_encoded,
                        default_entangler, encode_inputs,
                        grad_analytic_1p_batch, grad_fd, make_generator,
                        pauli_matrix, trig_poly_coeffs)
from qspec.spectrum import DEDUP_TOL, gap_set


# ---- dense reference circuit, built from scratch -------------------------

def ry_dense(x):
    c, s = np.cos(x / 2.0), np.sin(x / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def cnot_dense(n, c, t):
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        cm, tm = 1 << (n - 1 - c), 1 << (n - 1 - t)
        m[b ^ tm if b & cm else b, b] = 1.0
    return m


def expm_herm(h, t):
    lam, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * t * lam)) @ vecs.conj().T


def dense_encoded(n, entangler, xs):
    """Oracle rows: RY(x) on every qubit as a Kronecker product, then the
    CNOT matrices one after another."""
    rows = []
    for x in xs:
        enc = ry_dense(x)
        for _ in range(n - 1):
            enc = np.kron(enc, ry_dense(x))
        psi = enc[:, 0]
        for c, t in entangler:
            psi = cnot_dense(n, c, t) @ psi
        rows.append(psi)
    return np.array(rows)


def dense_forward(n, gens, entangler, obs, theta, x):
    psi = dense_encoded(n, entangler, [x])[0]
    for h, th in zip(gens, theta):
        psi = expm_herm(h, th) @ psi
    return float(np.real(psi.conj() @ obs @ psi))


def random_state(dim, seed):
    v = complex_gaussians(rng_stream(seed), (dim,))
    return v / np.linalg.norm(v)


def random_hermitian(dim, seed):
    z = complex_gaussians(rng_stream(seed), (dim, dim))
    return (z + z.conj().T) / 2


# ---- forward pass ---------------------------------------------------------

def test_forward_identity_point():
    # theta = 0 and x = 0 leave |0..0>, where Z on qubit 0 reads +1
    for n in (1, 2, 3):
        spec = CircuitSpec(n, [random_hermitian(1 << n, seed=50 + n)])
        assert circuit_forward_batch(spec, [0.0], [0.0])[0] == pytest.approx(1.0, abs=1e-12)


def test_forward_matches_dense_reference():
    gen = rng_stream(60)
    for trial in range(8):
        n = 2 + trial % 2
        depth = 1 + trial % 3
        gens = [random_hermitian(1 << n, seed=600 + 10 * trial + l)
                for l in range(depth)]
        obs = random_hermitian(1 << n, seed=700 + trial)
        spec = CircuitSpec(n, gens, observable=obs)
        theta = gen.uniform(-3, 3, depth)
        x = float(gen.uniform(-3, 3))
        want = dense_forward(n, gens, default_entangler(n), obs, theta, x)
        got = circuit_forward_batch(spec, theta, [x])[0]
        assert got == pytest.approx(want, abs=1e-12)


def test_forward_layer_order():
    # non-commuting layers applied in index order; swapping them must differ
    gx = pauli_matrix("X")
    gz = pauli_matrix("Z")
    a = circuit_forward_batch(CircuitSpec(1, [gx, gz]), [0.7, 0.3], [0.5])[0]
    b = circuit_forward_batch(CircuitSpec(1, [gz, gx]), [0.3, 0.7], [0.5])[0]
    want_a = dense_forward(1, [gx, gz], (), pauli_matrix("Z"), [0.7, 0.3], 0.5)
    assert a == pytest.approx(want_a, abs=1e-12)
    assert abs(a - b) > 1e-3


def test_forward_norm_preserved():
    # with O = identity the expectation is the state norm, exactly 1
    spec = CircuitSpec(2, [random_hermitian(4, seed=81), random_hermitian(4, seed=82)],
                       observable=np.eye(4))
    gen = rng_stream(83)
    for _ in range(20):
        theta = gen.uniform(-4, 4, 2)
        x = float(gen.uniform(-4, 4))
        assert circuit_forward_batch(spec, theta, [x])[0] == pytest.approx(1.0, abs=1e-10)


def test_forward_batch_matches_scalar():
    spec = CircuitSpec(2, [random_hermitian(4, seed=90)])
    gen = rng_stream(91)
    theta = gen.uniform(-2, 2, 1)
    xs = gen.uniform(-3, 3, 17)
    vals = circuit_forward_batch(spec, theta, xs)
    assert vals.shape == (17,)
    for x, v in zip(xs, vals):
        assert circuit_forward_batch(spec, theta, [x])[0] == pytest.approx(float(v), abs=1e-13)


def test_forward_offdiag_observable_path():
    # X on qubit 0 exercises the general einsum branch
    spec = CircuitSpec(2, [random_hermitian(4, seed=95)],
                       observable=pauli_matrix("XI"))
    gens = list(spec.generators)
    want = dense_forward(2, gens, default_entangler(2), pauli_matrix("XI"), [0.4], 1.1)
    assert circuit_forward_batch(spec, [0.4], [1.1])[0] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_forward_x_spectrum_within_encoding_degree(n):
    # n RY(x) encodings make f a trigonometric polynomial of degree n in x
    # (Schuld, Sweke & Meyer, arXiv 2008.08605), whatever follows them
    dim = 1 << n
    entangler = ((n - 1, 0),) if n > 1 else ()
    spec = CircuitSpec(n, [random_hermitian(dim, seed=950 + 10 * n + l) for l in range(3)],
                       entangler=entangler, observable=random_hermitian(dim, seed=960 + n))
    theta = rng_stream(970 + n).uniform(-np.pi, np.pi, 3)
    grid = 64
    vals = circuit_forward_batch(spec, theta, 2.0 * np.pi * np.arange(grid) / grid)
    coeffs = np.fft.fft(vals) / grid
    degree = np.abs(np.fft.fftfreq(grid, 1.0 / grid))
    assert np.max(np.abs(coeffs[degree > n])) <= 1e-10
    assert np.max(np.abs(coeffs[degree == n])) > 1e-3


def test_encode_inputs_product_structure():
    # n = 2: RY(x)|0> per qubit, then CNOT(0 -> 1) swaps the last two amps
    x = 0.9
    c, s = np.cos(x / 2), np.sin(x / 2)
    raw = np.array([c * c, c * s, s * c, s * s])
    want = raw[[0, 1, 3, 2]]
    got = encode_inputs(CircuitSpec(2, [np.zeros((4, 4))]), [x])[0]
    assert np.max(np.abs(got - want)) <= 1e-14


def reversed_chain(n):
    return tuple((q, q - 1) for q in range(n - 1, 0, -1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_encode_inputs_matches_dense_kron(n):
    xs = rng_stream(140 + n).uniform(-np.pi, np.pi, 9)
    for entangler in (default_entangler(n), reversed_chain(n)):
        spec = CircuitSpec(n, [np.zeros((1 << n, 1 << n))], entangler=entangler)
        got = encode_inputs(spec, xs)
        assert got.shape == (9, 1 << n) and got.dtype == complex
        assert got.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(got, dense_encoded(n, entangler, xs))


@pytest.mark.parametrize("n", [1, 3])
def test_encode_inputs_of_no_inputs_is_empty(n):
    spec = CircuitSpec(n, [np.zeros((1 << n, 1 << n))])
    got = encode_inputs(spec, [])
    assert got.shape == (0, 1 << n) and got.dtype == complex
    assert circuit_forward_batch(spec, np.zeros(1), []).size == 0


@pytest.mark.parametrize("depth", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_forward_encoded_matches_dense_layer_product(n, depth):
    # oracle: psi = U_L ... U_1 psi0, one exp(-i theta_l H_l) per layer and
    # per parameter vector, each from its own eigensolve
    dim = 1 << n
    gen = rng_stream(150 + 10 * n + depth)
    gens = [random_hermitian(dim, seed=1500 + 10 * n + l) for l in range(depth)]
    for entangler in (None, reversed_chain(n)):
        for obs in (None, random_hermitian(dim, seed=1590 + n)):
            spec = CircuitSpec(n, gens, entangler=entangler, observable=obs)
            for v, b in ((1, 1), (1, 1000), (256, 8), (7, 3)):
                thetas = gen.uniform(-np.pi, np.pi, (v, depth))
                enc = encode_inputs(spec, gen.uniform(-np.pi, np.pi, b))
                want = np.empty((v, b))
                for i, theta in enumerate(thetas):
                    w = np.eye(dim, dtype=complex)
                    for h, t in zip(gens, theta):
                        w = unitary_from_generator(h, t) @ w
                    psi = enc @ w.T
                    want[i] = np.einsum("bn,nm,bm->b", psi.conj(), spec.observable, psi).real
                got = circuit_forward_encoded(spec, thetas, enc)
                assert got.shape == (v, b)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_forward_encoded_rejects_bad_encoded_shape():
    spec = CircuitSpec(2, [random_hermitian(4, seed=97)])
    enc = encode_inputs(spec, [0.1, 0.2])
    for bad in (enc[0], enc[:, :3], np.ones((2, 8)), enc[None]):
        with pytest.raises(DimMismatch, match="encoded shape"):
            circuit_forward_encoded(spec, [[0.5]], bad)


def test_circuit_spec_validation():
    with pytest.raises(DimMismatch):
        CircuitSpec(2, [np.eye(3)])
    with pytest.raises(DimMismatch):
        CircuitSpec(2, [])
    with pytest.raises(DimMismatch):
        CircuitSpec(2, [np.eye(4)], entangler=((0, 0),))
    with pytest.raises(DimMismatch):
        CircuitSpec(2, [np.eye(4)], entangler=((0, 2),))
    with pytest.raises(DimMismatch):
        CircuitSpec(2, [np.eye(4)], observable=np.diag([1j, 0, 0, 0]))
    # within np.allclose's relative tolerance, beyond linalg.is_hermitian's
    zi, xi = pauli_matrix("ZI"), pauli_matrix("XI")
    zi[0, 0] += 4e-6j
    xi[0, 2] += 4e-6
    for obs in (zi, xi):
        with pytest.raises(DimMismatch, match="observable must be Hermitian"):
            CircuitSpec(2, [np.eye(4)], observable=obs)
    with pytest.raises(DimMismatch):
        circuit_forward_batch(CircuitSpec(2, [np.eye(4)]), [0.1, 0.2], [0.0])


def test_default_entangler_shapes():
    assert default_entangler(1) == ()
    assert default_entangler(2) == ((0, 1),)
    assert default_entangler(3) == ((0, 1), (1, 2), (2, 0))
    assert default_entangler(5)[-1] == (4, 0)


# ---- Fourier coefficients -------------------------------------------------

def test_trig_poly_coeffs_single_qubit_example():
    # H = Y, |0>, O = Z: f(t) = cos(2t), so a_{+-2} = 1/2 and a_0 = 0
    coeffs = trig_poly_coeffs(pauli_matrix("Y"), [1.0, 0.0], pauli_matrix("Z"))
    assert sorted(coeffs) == [-2.0, 0.0, 2.0]
    assert coeffs[2.0] == pytest.approx(0.5, abs=1e-12)
    assert coeffs[-2.0] == pytest.approx(0.5, abs=1e-12)
    assert abs(coeffs[0.0]) <= 1e-12


def test_trig_poly_coeffs_reconstruction():
    gen = rng_stream(110)
    for trial in range(20):
        dim = [2, 4, 8][trial % 3]
        h = random_hermitian(dim, seed=1100 + trial)
        obs = random_hermitian(dim, seed=1200 + trial)
        phi = random_state(dim, seed=1300 + trial)
        coeffs = trig_poly_coeffs(h, phi, obs)
        # value at t = 0 is the plain expectation; also check a theta grid
        total = sum(coeffs.values())
        assert abs(total.imag) <= 1e-10
        assert total.real == pytest.approx(float(np.real(phi.conj() @ obs @ phi)), abs=1e-10)
        lam, vecs = np.linalg.eigh(h)
        for t in gen.uniform(-3, 3, 7):
            psi = (vecs * np.exp(-1j * t * lam)) @ (vecs.conj().T @ phi)
            direct = float(np.real(psi.conj() @ obs @ psi))
            recon = sum(a * np.exp(-1j * t * w) for w, a in coeffs.items())
            assert abs(recon.imag) <= 1e-10
            assert abs(recon.real - direct) <= 1e-10


def test_trig_poly_coeffs_conjugate_symmetry_and_support():
    for trial in range(10):
        dim = [4, 8][trial % 2]
        h = random_hermitian(dim, seed=1400 + trial)
        obs = random_hermitian(dim, seed=1500 + trial)
        phi = random_state(dim, seed=1600 + trial)
        coeffs = trig_poly_coeffs(h, phi, obs)
        keys = np.array(sorted(coeffs))
        gaps = gap_set([np.linalg.eigvalsh(h)]).gaps
        for w in keys:
            assert np.min(np.abs(gaps - w)) <= 1e-9
            match = keys[np.argmin(np.abs(keys + w))]
            assert abs(match + w) <= 1e-9
            assert abs(coeffs[float(w)] - np.conj(coeffs[float(match)])) <= 1e-10


def test_trig_poly_coeffs_recovers_known_gaps():
    # eigenvalues linspace(-10, 10, 8) have gaps at multiples of 20/7
    h = make_generator(8, 10.0, seed=77)
    phi = random_state(8, seed=78)
    obs = random_hermitian(8, seed=79)
    step = 20.0 / 7.0
    for w in trig_poly_coeffs(h, phi, obs):
        k = round(w / step)
        assert abs(w - k * step) <= 1e-9


def split_loop_coeffs(h, phi, obs, tol=DEDUP_TOL):
    """Oracle: one np.split array per run of sorted gaps, its mean the key
    and its sum the coefficient."""
    lam, gram = _eigen_gram(h, phi, obs)
    gaps = (lam[None, :] - lam[:, None]).ravel()
    order = np.argsort(gaps, kind="stable")
    gaps, vals = gaps[order], gram.ravel()[order]
    splits = np.where(np.diff(gaps) > tol)[0] + 1
    return {float(g.mean()): complex(v.sum())
            for g, v in zip(np.split(gaps, splits), np.split(vals, splits))}


@pytest.mark.parametrize("label", ["generic", "ZZZ+XII", "XX+ZZ", "ZZ", "I"])
def test_trig_poly_coeffs_match_per_run_split(label):
    for seed in range(5):
        if label == "generic":
            h = random_hermitian(8, seed=1700 + seed)
        else:
            h = sum(pauli_matrix(term) for term in label.split("+"))
        dim = h.shape[0]
        phi, obs = random_state(dim, seed=1710 + seed), random_hermitian(dim, seed=1720 + seed)
        got, want = trig_poly_coeffs(h, phi, obs), split_loop_coeffs(h, phi, obs)
        assert len(got) == len(want)
        np.testing.assert_allclose(list(got), list(want), rtol=0, atol=1e-12)
        np.testing.assert_allclose(list(got.values()), list(want.values()), rtol=0, atol=1e-12)


def test_single_parameter_series_reject_non_hermitian_observable():
    # the sine series needs a_{-w} = conj(a_w), which holds only for Hermitian O
    h = np.diag([0.0, 1.0]).astype(complex)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    obs = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(DimMismatch, match="observable must be Hermitian"):
        trig_poly_coeffs(h, plus, obs)
    with pytest.raises(DimMismatch, match="observable must be Hermitian"):
        grad_analytic_1p_batch(h, [0.1, 0.2], obs, plus)


# ---- generator factory ----------------------------------------------------

def test_make_generator_eigenvalues():
    for n_dim, b in ((2, 1.0), (4, 0.1), (8, 10.0)):
        h = make_generator(n_dim, b, seed=200 + n_dim)
        assert np.max(np.abs(h - h.conj().T)) == 0.0
        lam = np.linalg.eigvalsh(h)
        assert np.max(np.abs(lam - np.linspace(-b, b, n_dim))) <= 1e-9


def test_make_generator_determinism_and_validation():
    a = make_generator(4, 2.0, seed=5)
    b = make_generator(4, 2.0, seed=5)
    c = make_generator(4, 2.0, seed=6)
    assert np.array_equal(a, b)
    assert np.max(np.abs(a - c)) > 1e-3
    with pytest.raises(DimMismatch):
        make_generator(1, 1.0, seed=0)
    with pytest.raises(ValueError):
        make_generator(4, -1.0, seed=0)


def test_make_generator_rejects_overflowing_bound():
    # past the cap, linspace's span or H + H^dag overflowed and the
    # generator failed as non-Hermitian
    for b in (np.nextafter(MAX_EIGEN_BOUND, np.inf), 1e308):
        with pytest.raises(ValueError, match="b_max must lie in"):
            make_generator(4, b, seed=0)
    for n_dim in (2, 3, 8, 64):
        for seed in range(5):
            h = make_generator(n_dim, MAX_EIGEN_BOUND, seed)
            assert np.all(np.isfinite(h.view(float)))
            assert np.max(np.abs(h - h.conj().T)) == 0.0


# ---- gradients ------------------------------------------------------------

def test_grad_analytic_closed_form():
    # H = w (Y on qubit 1) + I, |00>, O = Z on qubit 1: d/dt = -2w sin(2wt)
    w = 0.63
    h = w * pauli_matrix("IY") + pauli_matrix("II")
    obs = pauli_matrix("IZ")
    state = np.array([1, 0, 0, 0], dtype=complex)
    ts = np.array([-1.2, 0.0, 0.4, 2.8])
    want = -2.0 * w * np.sin(2.0 * w * ts)
    np.testing.assert_allclose(grad_analytic_1p_batch(h, ts, obs, state), want, rtol=0, atol=1e-12)


def test_grad_analytic_batch_matches_series_derivative():
    # f(t) = sum_w a_w e^{-i t w}, so f'(t) = Re sum_w (-i w) a_w e^{-i t w}
    h = random_hermitian(8, seed=310)
    obs = random_hermitian(8, seed=311)
    state = random_state(8, seed=312)
    thetas = rng_stream(313).uniform(-3, 3, 25)
    batch = grad_analytic_1p_batch(h, thetas, obs, state)
    assert batch.shape == (25,)
    coeffs = trig_poly_coeffs(h, state, obs)
    for t, g in zip(thetas, batch):
        want = float(np.real(sum(-1j * w * a * np.exp(-1j * t * w) for w, a in coeffs.items())))
        assert float(g) == pytest.approx(want, abs=1e-11)


def direct_expectation(h, obs, state, t):
    psi = expm_herm(h, t) @ state
    return float(np.real(psi.conj() @ obs @ psi))


def test_grad_analytic_batch_repeated_and_generic_eigenvalues():
    z = complex_gaussians(rng_stream(350), (2, 2))
    h2 = (z + z.conj().T) / 2
    repeated = np.kron(np.eye(2), h2 / np.linalg.norm(h2, 2))
    generic = random_hermitian(8, seed=351)
    generic = generic / np.linalg.norm(generic, 2)
    thetas = rng_stream(352).uniform(-3, 3, 12)
    # the repeated case folds 4 eigenvalues into 2 distinct ones
    assert np.unique(eig_hermitian(repeated).values).shape == (2,)
    assert np.unique(eig_hermitian(generic).values).shape == (8,)
    step = 1e-5
    for h, seed in ((repeated, 353), (generic, 356)):
        dim = h.shape[0]
        obs = random_hermitian(dim, seed=seed)
        state = random_state(dim, seed=seed + 1)
        got = grad_analytic_1p_batch(h, thetas, obs, state)
        coeffs = trig_poly_coeffs(h, state, obs)
        for t, g in zip(thetas, got):
            central = (direct_expectation(h, obs, state, t + step)
                       - direct_expectation(h, obs, state, t - step)) / (2.0 * step)
            assert abs(g - central) <= 1e-8
            series = np.real(sum(-1j * w * a * np.exp(-1j * t * w) for w, a in coeffs.items()))
            assert abs(g - series) <= 1e-11


def test_grad_analytic_batch_scalar_generator_is_exactly_zero():
    for n in (1, 2, 3):
        dim = 1 << n
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
        thetas = rng_stream(360 + n).uniform(-2 * np.pi, 2 * np.pi, 1000)
        for c in (0.0, 1.0, -2.5):
            got = grad_analytic_1p_batch(c * np.eye(dim), thetas, random_hermitian(dim, 361), state)
            assert np.all(got == 0.0)


def test_grad_analytic_batch_rejects_bad_thetas():
    h, obs = pauli_matrix("Y"), pauli_matrix("Z")
    state = np.array([1.0, 0.0])
    assert grad_analytic_1p_batch(h, 0.3, obs, state).shape == (1,)
    with pytest.raises(DimMismatch, match="1-D"):
        grad_analytic_1p_batch(h, np.zeros((2, 3)), obs, state)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="finite"):
                grad_analytic_1p_batch(h, [0.1, bad], obs, state)


def phase_vector_grad(h, thetas, obs, state):
    """Oracle: the quadratic form over per-eigenvalue phases. With z_p =
    e^{-i t lam_p}, f'(t) = Im(z^dag A z), A_pq = G_pq (lam_q - lam_p), rows
    and columns of G at exactly equal eigenvalues summed first."""
    lam, gram = _eigen_gram(h, state, obs)
    mu, group = np.unique(lam, return_inverse=True)
    fold = (group == np.arange(mu.shape[0])[:, None]).astype(float)
    amat = (fold @ gram @ fold.T) * (mu[None, :] - mu[:, None])
    zc = np.exp(1j * np.outer(thetas, mu))
    return np.einsum("bi,bi->b", zc, zc.conj() @ amat.T).imag


def oracle_cases():
    """(name, H) pairs covering generic, repeated, near-equal-gap and scalar spectra."""
    z = complex_gaussians(rng_stream(380), (2, 2))
    h2 = (z + z.conj().T) / 2
    cases = [(f"random{dim}", random_hermitian(dim, seed=381 + dim)) for dim in (2, 4, 8)]
    cases += [("repeated", np.kron(np.eye(2), h2)),
              ("linspace8", make_generator(8, 10.0, seed=390)),
              ("linspace16", make_generator(16, 1.0, seed=391))]
    cases += [(f"scalar{dim}", c * np.eye(dim)) for dim, c in ((2, 0.0), (4, 1.0), (8, -2.5))]
    return cases


@pytest.mark.parametrize("name,h", oracle_cases())
def test_grad_analytic_batch_matches_phase_vector_oracle(name, h):
    dim = h.shape[0]
    obs, state = random_hermitian(dim, seed=392), random_state(dim, seed=393)
    thetas = rng_stream(394).uniform(-3, 3, 200)
    got = grad_analytic_1p_batch(h, thetas, obs, state)
    np.testing.assert_allclose(got, phase_vector_grad(h, thetas, obs, state), rtol=0, atol=1e-12)
    if name.startswith("scalar"):
        assert np.all(got == 0.0)


def test_grad_analytic_batch_crosses_block_boundary():
    # dim 64 has 2016 positive gaps, so 1e4 angles take several blocks
    h = random_hermitian(64, seed=395)
    obs, state = random_hermitian(64, seed=396), random_state(64, seed=397)
    thetas = rng_stream(398).uniform(-3, 3, 10_000)
    assert thetas.size * 2016 > GRAD_BLOCK_ELEMENTS
    got = grad_analytic_1p_batch(h, thetas, obs, state)
    np.testing.assert_allclose(got, phase_vector_grad(h, thetas, obs, state), rtol=0, atol=1e-12)


def test_grad_analytic_batch_temporaries_stay_in_block_bound():
    # one gap: a block is GRAD_BLOCK_ELEMENTS angles, far fewer than the batch
    h, obs = pauli_matrix("Y"), pauli_matrix("Z")
    state = np.array([1.0, 0.0])
    thetas = rng_stream(399).uniform(-3, 3, 4 * GRAD_BLOCK_ELEMENTS)
    grad_analytic_1p_batch(h, thetas[:8], obs, state)
    tracemalloc.start()
    try:
        got = grad_analytic_1p_batch(h, thetas, obs, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result, the finiteness mask and one float block, with 64 KiB to spare
    assert peak <= got.nbytes + thetas.size + 8 * GRAD_BLOCK_ELEMENTS + (1 << 16)
    np.testing.assert_allclose(got, -2.0 * np.sin(2.0 * thetas), rtol=0, atol=1e-12)


def test_grad_fd_matches_analytic_single_layer():
    # depth-1 circuit: FD gradient of the forward pass vs exact derivative
    n = 2
    h = random_hermitian(4, seed=320)
    spec = CircuitSpec(n, [h])
    x = 0.7
    psi0 = encode_inputs(spec, [x])[0]
    theta = np.array([0.9])
    want = grad_analytic_1p_batch(h, [0.9], spec.observable, psi0)[0]
    got = grad_fd(spec, theta, x)
    assert got.shape == (1,)
    assert got[0] == pytest.approx(want, abs=1e-7)


def test_grad_fd_second_order_convergence():
    h = random_hermitian(4, seed=330)
    spec = CircuitSpec(2, [h])
    psi0 = encode_inputs(spec, [0.3])[0]
    exact = grad_analytic_1p_batch(h, [1.1], spec.observable, psi0)[0]
    e1 = abs(grad_fd(spec, [1.1], 0.3, step=2e-3)[0] - exact)
    e2 = abs(grad_fd(spec, [1.1], 0.3, step=1e-3)[0] - exact)
    assert e1 > 0 and e2 > 0
    assert e1 / e2 == pytest.approx(4.0, rel=0.2)
    with pytest.raises(ValueError):
        grad_fd(spec, [1.1], 0.3, step=0.0)


def test_grad_fd_multilayer_shape():
    spec = CircuitSpec(2, [random_hermitian(4, seed=340 + l) for l in range(3)])
    g = grad_fd(spec, [0.1, -0.2, 0.3], 0.5)
    assert g.shape == (3,)
    assert np.all(np.isfinite(g))


# ---- finite-difference training kernel -----------------------------------

def dense_fd_forward(spec, theta, encoded, step):
    """Oracle: each variant theta, theta + step e_l and theta - step e_l as
    a dense product of expm_herm layers on the encode_inputs rows."""
    def values(angles):
        psi = encoded.T
        for h, t in zip(spec.generators, angles):
            psi = expm_herm(h, t) @ psi
        return np.einsum("nb,nm,mb->b", psi.conj(), spec.observable, psi).real

    eye = np.eye(spec.depth)
    diffs = [values(theta + step * e) - values(theta - step * e) for e in eye]
    return values(theta), np.array(diffs) / (2.0 * step)


def dense_batch_grad(spec, theta, encoded, labels, step):
    """Oracle: centre values and mean_b 2 (f_b - labels_b) d_lb from dense_fd_forward."""
    vals, diffs = dense_fd_forward(spec, theta, encoded, step)
    return vals, np.mean(2.0 * (vals - labels) * diffs, axis=1)


def fd_batch_grad(specs, theta, encoded, labels, step=FD_STEP):
    """_fd_batch_grad on the runs specs, with buffers that start as nan."""
    stack = _stack_specs(specs)
    gains = _shift_gains(stack, step)
    prefix, suffix = np.full((2,) + gains.shape, np.nan, dtype=complex)
    return _fd_batch_grad(stack, gains, theta, encoded, labels, prefix, suffix)


def shifted_degenerate_generator(dim, seed):
    """Eigenvalues -1.5 and 2 (dim 2: 2 only), each repeated, plus 0.75 I, in a Haar basis."""
    lam = np.where(np.arange(dim) < dim // 2, -1.5, 2.0) if dim > 2 else np.full(2, 2.0)
    u = haar_unitary(dim, seed)
    return (u * (lam + 0.75)) @ u.conj().T


@pytest.mark.parametrize("depth", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_fd_forward_matches_stacked_variants(n, depth):
    # the kernel's values and batch gradient against shifted dense circuits;
    # layer 0 spans b = 10, as the study's target does, so sin(h w) / h and
    # w differ by about h^2 w^3 / 6 = 1e-5 there, and layer 1 has repeated
    # eigenvalues and a trace part
    dim = 1 << n
    gen = rng_stream(800 + 10 * n + depth)
    gens = [make_generator(dim, 10.0, 805 + 10 * n), shifted_degenerate_generator(dim, 807 + n)]
    gens = (gens + [random_hermitian(dim, seed=810 + 10 * n + l) for l in range(2, depth)])[:depth]
    # None: the default CNOT ring and the diagonal Z on qubit 0; the other
    # entangler is the reversed chain n-1 -> n-2, ..., 1 -> 0. X on qubit 0
    # is degenerate from n = 2 on
    entanglers = [None] + ([reversed_chain(n)] if n > 1 else [])
    observables = [None, random_hermitian(dim, seed=890 + n), pauli_matrix("X" + "I" * (n - 1))]
    for entangler in entanglers:
        for obs in observables:
            spec = CircuitSpec(n, gens, entangler=entangler, observable=obs)
            for batch in (1, 7, 32):
                theta = gen.uniform(-np.pi, np.pi, depth)
                enc = encode_inputs(spec, gen.uniform(-np.pi, np.pi, batch))
                labels = gen.uniform(-1.0, 1.0, batch)
                want_vals, want_grad = dense_batch_grad(spec, theta, enc, labels, FD_STEP)
                vals, grad = fd_batch_grad([spec], theta[None], enc[None], labels[None])
                assert vals.shape == (1, batch) and grad.shape == (1, depth)
                np.testing.assert_allclose(vals[0], want_vals, rtol=0, atol=1e-12)
                np.testing.assert_allclose(grad[0], want_grad, rtol=0, atol=1e-9)


# ---- runs stacked on one kernel call --------------------------------------

@pytest.mark.parametrize("n, depth", [(1, 1), (2, 3), (3, 5)])
def test_forward_runs_match_dense_layer_product(n, depth):
    # oracle: per run, a dense product of expm_herm layers on its own rows
    dim = 1 << n
    assert 4 * 20 * 500 * dim > FORWARD_BLOCK_ELEMENTS
    gen = rng_stream(900 + 10 * n + depth)
    entanglers = [None] + ([reversed_chain(n)] if n > 1 else [])
    for entangler in entanglers:
        for obs in (None, random_hermitian(dim, seed=990 + n)):
            specs = [CircuitSpec(n, [random_hermitian(dim, seed=9000 + 100 * r + l)
                                     for l in range(depth)], entangler=entangler,
                                 observable=obs)
                     for r in range(4)]
            stack = _stack_specs(specs)
            # the last shape spans several blocks, its last one partial
            for v, b in ((1, 1), (3, 7), (2 * depth + 1, 32), (20, 500)):
                thetas = gen.uniform(-np.pi, np.pi, (4, v, depth))
                enc = np.stack([encode_inputs(specs[0], gen.uniform(-np.pi, np.pi, b))
                                for _ in specs])
                got = _forward(stack, _phases(stack, thetas), enc)
                assert got.shape == (4, v, b)
                for r, spec in enumerate(specs):
                    for i, theta in enumerate(thetas[r]):
                        psi = enc[r].T
                        for h, t in zip(spec.generators, theta):
                            psi = expm_herm(h, t) @ psi
                        want = np.einsum("nb,nm,mb->b", psi.conj(), spec.observable, psi).real
                        np.testing.assert_allclose(got[r, i], want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("terms", [("XI",), ("XX", "ZZ")])
def test_forward_matches_dense_layer_product_for_degenerate_observables(terms):
    # degenerate eigenvalues leave the observable's eigenbasis free, so the
    # basis folded into the last layer must still give the same values
    obs = sum(pauli_matrix(t) for t in terms)
    gen = rng_stream(970)
    specs = [CircuitSpec(2, [random_hermitian(4, seed=9700 + 10 * r + l) for l in range(3)],
                         observable=obs) for r in range(3)]
    thetas = gen.uniform(-np.pi, np.pi, (3, 7, 3))
    enc = np.stack([encode_inputs(specs[0], gen.uniform(-np.pi, np.pi, 5)) for _ in specs])
    stack = _stack_specs(specs)
    stacked = _forward(stack, _phases(stack, thetas), enc)
    labels = gen.uniform(-1.0, 1.0, (3, 5))
    fd_vals, fd_grad = fd_batch_grad(specs, thetas[:, 0], enc, labels)
    for r, spec in enumerate(specs):
        want = np.empty((7, 5))
        for i, theta in enumerate(thetas[r]):
            psi = enc[r].T
            for h, t in zip(spec.generators, theta):
                psi = expm_herm(h, t) @ psi
            want[i] = np.einsum("nb,nm,mb->b", psi.conj(), obs, psi).real
        np.testing.assert_allclose(circuit_forward_encoded(spec, thetas[r], enc[r]), want,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(stacked[r], want, rtol=0, atol=1e-12)
        want_vals, want_grad = dense_batch_grad(spec, thetas[r, 0], enc[r], labels[r], FD_STEP)
        np.testing.assert_allclose(fd_vals[r], want_vals, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fd_grad[r], want_grad, rtol=0, atol=1e-9)


# ---- rows in blocks --------------------------------------------------------

def test_row_blocks_cover_the_rows_and_keep_no_lone_last_row():
    for count in range(0, 40):
        for step in (1, 2, 4, 8):
            blocks = _row_blocks(count, step)
            assert [i for block in blocks for i in range(count)[block]] == list(range(count))
            sizes = [block.stop - block.start for block in blocks]
            assert all(size == step for size in sizes[:-1])
            assert not sizes or sizes[-1] <= step or (sizes[-1] == step + 1 and step > 1)
            assert count <= 1 or step == 1 or sizes[-1] > 1


@pytest.mark.parametrize("runs, nvec, rows, n", [
    (1, 1, 203, 3),     # B not a multiple of the 16-row block
    (3, 2, 41, 2),      # R > 1; blocks of 4 rows and a last one of 5
    (2, 40, 9, 3),      # V * N above the cap: one row per block
])
def test_forward_blocks_equal_calls_on_their_slices(monkeypatch, runs, nvec, rows, n):
    monkeypatch.setattr(qsim, "FORWARD_BLOCK_ELEMENTS", 128)
    dim = 1 << n
    gen = rng_stream(880 + rows)
    specs = [CircuitSpec(n, [random_hermitian(dim, seed=8800 + 10 * r + l) for l in range(3)],
                         observable=random_hermitian(dim, seed=8890))
             for r in range(runs)]
    stack = _stack_specs(specs)
    phases = _phases(stack, gen.uniform(-np.pi, np.pi, (runs, nvec, 3)))
    enc = np.stack([encode_inputs(specs[0], gen.uniform(-np.pi, np.pi, rows)) for _ in specs])
    blocks = _row_blocks(rows, _block_rows(runs, nvec, dim))
    assert len(blocks) > 1
    got = _forward(stack, phases, enc)
    want = np.concatenate([_forward(stack, phases, enc[:, block]) for block in blocks], axis=2)
    assert np.array_equal(got, want)
    # the same values when every row is its own call, up to BLAS's rounding
    one_by_one = np.concatenate([_forward(stack, phases, enc[:, i:i + 1]) for i in range(rows)],
                                axis=2)
    np.testing.assert_allclose(got, one_by_one, rtol=0, atol=1e-14)
    if runs == 1 and nvec == 1:
        xs = gen.uniform(-np.pi, np.pi, rows)
        theta = gen.uniform(-np.pi, np.pi, 3)
        got = circuit_forward_batch(specs[0], theta, xs)
        want = np.concatenate([circuit_forward_batch(specs[0], theta, xs[block])
                               for block in blocks])
        assert np.array_equal(got, want)


def test_forward_batch_memory_stays_within_one_block():
    # 10^6 inputs hold their 8 MB of values and one block of rows, not
    # several (10^6, 8) arrays
    spec = CircuitSpec(3, [make_generator(8, 1.0, 870 + l) for l in range(5)])
    theta = np.linspace(-1.0, 1.0, 5)
    xs = rng_stream(871).uniform(0.0, 2.0 * np.pi, 10 ** 6)
    circuit_forward_batch(spec, theta, xs[:8])
    tracemalloc.start()
    try:
        got = circuit_forward_batch(spec, theta, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (10 ** 6,)
    assert peak <= got.nbytes + (4 << 20), peak
    sample = slice(0, None, 99_991)
    np.testing.assert_allclose(got[sample], circuit_forward_batch(spec, theta, xs[sample]),
                               rtol=0, atol=1e-14)


def test_observable_eigensolve_failure_is_no_convergence(monkeypatch):
    eigh = np.linalg.eigh

    def failing_on_matrices(a):
        # the generator stack is 3-D; the observable alone is a matrix
        if np.ndim(a) == 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)

    gens = [random_hermitian(4, seed=860 + l) for l in range(2)]
    monkeypatch.setattr(np.linalg, "eigh", failing_on_matrices)
    CircuitSpec(2, gens, observable=pauli_matrix("ZZ"))        # diagonal: no eigensolve
    with pytest.raises(NoConvergence):
        CircuitSpec(2, gens, observable=pauli_matrix("XI"))


def test_diagonal_observable_takes_the_generator_basis_as_it_is():
    gens = [random_hermitian(8, seed=980 + l) for l in range(3)]
    for obs in (None, pauli_matrix("IZZ"), np.diag(np.arange(8.0))):
        stack = CircuitSpec(3, gens, observable=obs)._stack
        assert np.array_equal(stack.last[0], eig_hermitian(gens[-1]).vectors)
    stack = CircuitSpec(3, gens, observable=pauli_matrix("XII"))._stack
    assert not np.array_equal(stack.last[0], eig_hermitian(gens[-1]).vectors)


def test_forward_runs_do_not_depend_on_their_neighbours():
    specs = [CircuitSpec(3, [random_hermitian(8, seed=950 + 10 * r + l) for l in range(4)])
             for r in range(5)]
    gen = rng_stream(951)
    theta = gen.uniform(-np.pi, np.pi, (5, 4))
    enc = np.stack([encode_inputs(specs[0], gen.uniform(-1, 1, 32)) for _ in specs])
    labels = gen.uniform(-1, 1, (5, 32))
    vals, grad = fd_batch_grad(specs, theta, enc, labels)
    for r in (0, 3, 4):
        alone = fd_batch_grad(specs[r:r + 1], theta[r:r + 1], enc[r:r + 1], labels[r:r + 1])
        assert np.array_equal(alone[0][0], vals[r]) and np.array_equal(alone[1][0], grad[r])


def test_stack_specs_rejects_mixed_runs():
    base = CircuitSpec(2, [random_hermitian(4, seed=960 + l) for l in range(2)])
    others = [CircuitSpec(3, [random_hermitian(8, seed=962 + l) for l in range(2)]),
              CircuitSpec(2, [random_hermitian(4, seed=964)]),
              CircuitSpec(2, list(base.generators), entangler=[(1, 0)]),
              CircuitSpec(2, list(base.generators), observable=pauli_matrix("IZ"))]
    for other in others:
        with pytest.raises(DimMismatch, match="runs differ"):
            _stack_specs([base, other])
    same = CircuitSpec(2, [random_hermitian(4, seed=966 + l) for l in range(2)])
    assert _stack_specs([base, same, base]).lam.shape == (3, 2, 4)


# ---- Pauli helper ---------------------------------------------------------

def test_pauli_matrix_values():
    assert np.array_equal(pauli_matrix("I"), np.eye(2))
    assert np.array_equal(pauli_matrix("ZI"), np.kron(PAULI_Z, np.eye(2)))
    assert np.array_equal(pauli_matrix("xy"), np.kron(PAULI_X, PAULI_Y))
    with pytest.raises(ValueError):
        pauli_matrix("Q")
    with pytest.raises(ValueError):
        pauli_matrix("")


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
