import warnings

import numpy as np
import pytest
from scipy import stats

from qspec.linalg import (DimMismatch, NotHermitian, _philox_keys, commutator,
                          complex_gaussians, derive_seed, eig_hermitian,
                          haar_unitary, is_hermitian, rng_stream, rng_streams,
                          unitary_from_generator)

PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(dim, seed):
    z = complex_gaussians(rng_stream(seed), (dim, dim))
    return (z + z.conj().T) / 2


def test_eig_pauli_y():
    values, vectors = eig_hermitian(PAULI_Y)
    assert np.allclose(values, [-1.0, 1.0])
    assert np.allclose(vectors @ np.diag(values) @ vectors.conj().T, PAULI_Y)


def test_eig_reconstruction_random():
    for i in range(100):
        dim = [2, 4, 8, 16][i % 4]
        h = random_hermitian(dim, seed=1000 + i)
        values, vectors = eig_hermitian(h)
        assert np.all(np.diff(values) >= 0)
        recon = vectors @ np.diag(values) @ vectors.conj().T
        bound = 1e-10 * (1.0 + np.linalg.norm(h))
        assert np.max(np.abs(recon - h)) <= bound
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(dim))) <= 1e-12


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_rejects_non_square():
    with pytest.raises(DimMismatch):
        eig_hermitian(np.ones((2, 3)))


def test_is_hermitian_tolerance_scales_with_norm():
    h = np.eye(2) * 1e6
    h[0, 1] = 1e-7  # tiny asymmetry relative to the norm
    assert is_hermitian(h)
    assert not is_hermitian(np.array([[0.0, 1e-3], [0.0, 0.0]]))
    # a Frobenius norm past the float range once made every matrix pass
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_hermitian(1e200 * np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert is_hermitian(1e200 * np.array([[1.0, 2.0], [2.0, 0.0]]))


def test_unitary_identity_at_zero():
    h = random_hermitian(4, seed=7)
    assert np.allclose(unitary_from_generator(h, 0.0), np.eye(4), atol=1e-12)


def test_unitary_pauli_z_quarter_turn():
    u = unitary_from_generator(PAULI_Z, np.pi / 2)
    assert np.allclose(u, np.diag([-1j, 1j]), atol=1e-12)


def test_unitary_is_unitary_and_group_law():
    for i in range(20):
        dim = [2, 4, 8][i % 3]
        h = random_hermitian(dim, seed=2000 + i)
        a, b = 0.3 + 0.1 * i, -1.7 + 0.05 * i
        ua, ub = unitary_from_generator(h, a), unitary_from_generator(h, b)
        assert np.linalg.norm(ua.conj().T @ ua - np.eye(dim)) <= 1e-10
        uab = unitary_from_generator(h, a + b)
        assert np.linalg.norm(ua @ ub - uab) <= 1e-9


def test_haar_deterministic_and_unitary():
    u1 = haar_unitary(4, seed=42)
    u2 = haar_unitary(4, seed=42)
    u3 = haar_unitary(4, seed=43)
    assert np.array_equal(u1, u2)
    assert not np.allclose(u1, u3)
    assert np.linalg.norm(u1.conj().T @ u1 - np.eye(4)) <= 1e-12


def test_haar_eigenphases_uniform():
    # marginal eigenvalue angle of a Haar 2x2 unitary is uniform on the
    # circle; chi-square over 16 bins at 1e4 samples must not reject
    samples = 10000
    angles = np.empty(2 * samples)
    for i in range(samples):
        u = haar_unitary(2, seed=50000 + i)
        angles[2 * i:2 * i + 2] = np.angle(np.linalg.eigvals(u))
    counts, _ = np.histogram(angles, bins=16, range=(-np.pi, np.pi))
    expected = 2 * samples / 16
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    p = float(stats.chi2.sf(chi2, df=15))
    assert p > 0.001


def test_complex_gaussians_moments():
    z = complex_gaussians(rng_stream(9), 200000)
    assert abs(np.mean(z)) < 0.01
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01
    assert abs(np.var(z.real) - 0.5) < 0.01
    assert abs(np.var(z.imag) - 0.5) < 0.01


def test_rng_stream_splitting():
    base = rng_stream(5).random(4)
    again = rng_stream(5).random(4)
    other_stream = rng_stream(5, 1).random(4)
    other_seed = rng_stream(6).random(4)
    assert np.array_equal(base, again)
    assert not np.array_equal(base, other_stream)
    assert not np.array_equal(base, other_seed)


@pytest.mark.parametrize("seeds", [
    [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1],
    [-1, 10 ** 30],
    range(2 ** 40 - 1000, 2 ** 40 + 1000),
], ids=["word-edges", "masked", "2000-consecutive"])
def test_philox_keys_match_seed_sequence(seeds):
    want = [np.random.SeedSequence(entropy=s & (2 ** 64 - 1)).generate_state(2, np.uint64)
            for s in seeds]
    keys = _philox_keys(seeds)
    assert keys.dtype == np.uint64
    assert np.array_equal(keys, np.array(want).reshape(-1, 2))


def test_philox_keys_of_no_seeds():
    assert _philox_keys([]).shape == (0, 2)
    assert list(rng_streams([])) == []


def assert_stream_of(gen, seed):
    """gen stands where a new rng_stream(seed) stands, and draws what it
    draws. The states are compared too: a zero word left pending or in the
    buffer would hide from integers(-8, 9), whose rejection step drops a
    32-bit zero."""
    fresh = rng_stream(seed)
    assert plain(gen.bit_generator.state) == plain(fresh.bit_generator.state), seed
    got, want = ((g.integers(-8, 9, (12, 2)), g.random((2, 12))) for g in (gen, fresh))
    assert all(np.array_equal(a, b) for a, b in zip(got, want)), seed


def plain(state):
    return {k: plain(v) if isinstance(v, dict) else np.asarray(v).tolist()
            for k, v in state.items()}


def test_rng_streams_draw_what_rng_stream_draws():
    seeds = [0, 1, 7, 2 ** 32, 2 ** 64 - 1, -3, 10 ** 30]
    for seed, gen in zip(seeds, rng_streams(seeds)):
        assert_stream_of(gen, seed)


def test_rng_streams_reseat_drops_a_pending_uint32():
    streams = rng_streams([5, 6, 7])
    gen = next(streams)
    gen.integers(-8, 9, 3)   # three 32-bit draws: half of a 64-bit word is left
    for seed, gen in zip([6, 7], streams):
        assert_stream_of(gen, seed)
        gen.integers(0, 5, 1)   # a pending uint32 again before the next seed
        assert gen.bit_generator.state["has_uint32"] == 1


def test_derive_seed_is_stable_and_64bit():
    a = derive_seed(123, 0, 7)
    assert a == derive_seed(123, 0, 7)
    assert a != derive_seed(123, 0, 8)
    assert a != derive_seed(124, 0, 7)
    assert 0 <= a < 2 ** 64
    assert 0 <= derive_seed(-1) < 2 ** 64


def test_commutator_antisymmetry_and_jacobi():
    for i in range(10):
        a = random_hermitian(4, seed=3000 + i)
        b = random_hermitian(4, seed=3100 + i)
        c = random_hermitian(4, seed=3200 + i)
        assert np.allclose(commutator(a, b), -commutator(b, a), atol=1e-12)
        jacobi = (commutator(a, commutator(b, c))
                  + commutator(b, commutator(c, a))
                  + commutator(c, commutator(a, b)))
        assert np.max(np.abs(jacobi)) <= 1e-10


def test_commutator_dim_mismatch():
    with pytest.raises(DimMismatch):
        commutator(np.eye(2), np.eye(3))


def test_commutator_on_stacks_equals_the_matrix_loop():
    stack = np.array([random_hermitian(4, seed=3300 + i) for i in range(5)])
    other = np.array([random_hermitian(4, seed=3400 + i) for i in range(5)])
    single = random_hermitian(4, seed=3500)
    pairs = [(stack, other, list(zip(stack, other))),
             (stack, single, [(a, single) for a in stack]),
             (single, stack, [(single, b) for b in stack])]
    for a, b, loop in pairs:
        out = commutator(a, b)
        assert out.shape == (5, 4, 4)
        assert np.array_equal(out, [commutator(x, y) for x, y in loop])


@pytest.mark.parametrize("a, b", [
    (np.ones(2), np.ones(2)),                  # 1-D
    (np.ones((2, 3)), np.ones((2, 3))),        # not square
    (np.ones((3, 2, 2)), np.ones((3, 3, 3))),  # trailing sides differ
    (np.ones((0, 0)), np.ones((0, 0))),        # 0 x 0
])
def test_commutator_rejects_bad_shapes(a, b):
    with pytest.raises(DimMismatch):
        commutator(a, b)

