import warnings

import numpy as np
import pytest
from scipy import stats

from qspec.linalg import (DimMismatch, NotHermitian, _mulhilo, _philox_keys, _philox_words,
                          commutator, complex_gaussians, derive_seed, eig_hermitian,
                          haar_unitary, is_hermitian, rng_stream, unitary_from_generator)

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
    assert _philox_words(_philox_keys([]), 3).shape == (0, 12)


def test_mulhilo_matches_python_integers():
    edges = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]
    a = np.array(edges + rng_stream(4).integers(0, 2 ** 64, 500, dtype=np.uint64,
                                               endpoint=False).tolist(), dtype=np.uint64)
    for b in (a[::-1], np.uint64(2 ** 64 - 1), np.uint64(0xD2E7470EE14C6C93)):
        low, high = _mulhilo(a, b)
        for x, y, lo, hi in zip(a.tolist(), np.broadcast_to(b, a.shape).tolist(),
                                low.tolist(), high.tolist()):
            assert (lo, hi) == (x * y % 2 ** 64, x * y >> 64)


def test_philox_words_match_numpy_philox():
    edge = np.array([[0, 0], [2 ** 64 - 1, 2 ** 64 - 1], [2 ** 64 - 1, 0]], dtype=np.uint64)
    keys = np.concatenate([edge, _philox_keys(range(-50, 250))])
    words = _philox_words(keys, 5)
    assert words.dtype == np.uint64 and words.shape == (len(keys), 20)
    for key, row in zip(keys, words):
        assert np.array_equal(row, np.random.Philox(key=key).random_raw(20)), key


def test_philox_words_start_at_each_rows_first_block():
    keys = _philox_keys(range(40))
    first = np.arange(40) % 7
    words = _philox_words(keys, 3, first)
    for key, start, row in zip(keys, first, words):
        assert np.array_equal(row, np.random.Philox(key=key).random_raw(4 * (start + 3))[-12:])


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

