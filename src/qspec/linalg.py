"""Dense complex linear algebra and seeded randomness.

Hermitian eigensolves, generator exponentials, Haar-random unitaries,
and commutators. All randomness in the package flows through
counter-based Philox generators addressed by an explicit 64-bit seed
plus an integer stream path, so every stochastic result is reproducible
from its arguments alone. A Philox stream is fixed by its 128-bit key,
and each of its 64-bit words by that key and a counter, so the streams
of many seeds are computed together as arrays: _philox_keys hashes all
their keys in one pass of numpy's SeedSequence hash, and _philox_words
runs the Philox4x64-10 rounds on all their counters at once.
"""

from typing import NamedTuple

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# numpy's SeedSequence constants (pool of 4 uint32 words)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

# Philox4x64-10 round multipliers and key bumps (Random123, as numpy uses them)
_PHILOX_M0, _PHILOX_M1 = np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157)
_PHILOX_W0, _PHILOX_W1 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B)
_U32, _U32_BITS = np.uint64(_MASK32), np.uint64(32)

# Hermiticity check: max |M_ij - conj(M_ji)| <= tol * (1 + ||M||_F)
HERMITIAN_TOL = 1e-12


class QspecError(Exception):
    """Base class for computation errors raised by this package."""


class NotHermitian(QspecError):
    """Matrix fails the Hermiticity tolerance."""


class NoConvergence(QspecError):
    """Eigensolver did not converge."""


class DimMismatch(QspecError):
    """Operands have missing or incompatible dimensions."""


def _check_tol(tol: float) -> None:
    """Reject a tolerance that is not finite and positive (nan included)."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def rng_stream(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator for a 64-bit seed and an optional stream path.

    Distinct stream paths yield statistically independent streams for the
    same seed; experiments use them to give each role (data, init, model,
    shuffling) its own stream without seed arithmetic.
    """
    key = np.random.SeedSequence(entropy=int(seed) & _MASK64,
                                 spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(key))


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays; each call moves the constant on."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)
    return hashmix


def _philox_keys(seeds) -> np.ndarray:
    """uint64 (n, 2) Philox keys: row i equals
    SeedSequence(entropy=seeds[i] & _MASK64).generate_state(2, np.uint64).

    The SeedSequence hash runs once on uint32 arrays holding every seed. An
    entropy of one word hashes as its zero-padded two words would: the pool
    of 4 hashes a missing word as 0.
    """
    words = np.array([int(s) & _MASK64 for s in seeds], dtype=np.uint64)
    lo, hi = (words & _MASK32).astype(np.uint32), (words >> np.uint64(32)).astype(np.uint32)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in (lo, hi, np.zeros_like(lo), np.zeros_like(lo))]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (np.uint32(_MIX_MULT_L) * pool[dst]
                         - np.uint32(_MIX_MULT_R) * hashmix(pool[src]))
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    out = [w.astype(np.uint64) for w in map(_hasher(_INIT_B, _MULT_B), pool)]
    return np.stack([out[0] | out[1] << np.uint64(32), out[2] | out[3] << np.uint64(32)], axis=1)


def _mulhilo(a, b):
    """(low, high) 64-bit halves of the 128-bit products a * b of uint64
    arrays, the high half carried through products of 32-bit halves."""
    a_lo, a_hi = a & _U32, a >> _U32_BITS
    b_lo, b_hi = b & _U32, b >> _U32_BITS
    t = a_hi * b_lo + (a_lo * b_lo >> _U32_BITS)   # each sum here stays below 2^64
    u = a_lo * b_hi + (t & _U32)
    return a * b, a_hi * b_hi + (t >> _U32_BITS) + (u >> _U32_BITS)


def _philox_words(keys, blocks: int, first=0) -> np.ndarray:
    """uint64 (n, 4 * blocks) words: row i holds counter blocks first[i] ..
    first[i] + blocks - 1 of the Philox4x64-10 stream keyed by keys[i], so
    with first = 0 it equals Philox(key=keys[i]).random_raw(4 * blocks).
    Block b is the 10-round map of counter b + 1 (a new Philox bumps its
    counter from 0 before the first block); first is an int or an (n,) array.
    """
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 2)
    first = np.asarray(first, dtype=np.uint64).reshape(-1, 1)
    c0 = first + np.arange(1, blocks + 1, dtype=np.uint64)
    c0 = np.broadcast_to(c0, (len(keys), blocks))
    c1 = c2 = c3 = np.zeros_like(c0)
    k0, k1 = keys[:, :1], keys[:, 1:]
    for rnd in range(10):
        if rnd:   # the key is bumped before every round but the first
            k0, k1 = k0 + _PHILOX_W0, k1 + _PHILOX_W1
        lo0, hi0 = _mulhilo(_PHILOX_M0, c0)
        lo1, hi1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(len(keys), 4 * blocks)


def derive_seed(seed: int, *stream: int) -> int:
    """Fold a seed and a stream path into a fresh 64-bit seed."""
    key = np.random.SeedSequence(entropy=int(seed) & _MASK64,
                                 spawn_key=tuple(int(s) for s in stream))
    lo, hi = key.generate_state(2, dtype=np.uint32)
    return (int(lo) | (int(hi) << 32)) & _MASK64


def complex_gaussians(gen: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussians via the Box-Muller map on uniforms."""
    return box_muller(gen.random(shape), gen.random(shape))


def box_muller(radial, phase) -> np.ndarray:
    """Standard complex Gaussians from two same-shape arrays of uniforms on
    [0, 1): the first sets the modulus, the second the phase."""
    # 1 - U keeps the log argument inside (0, 1]
    return np.sqrt(-np.log(1.0 - radial)) * np.exp(2j * np.pi * phase)


def require_square(m) -> np.ndarray:
    """Coerce to a complex 2-D square array or raise DimMismatch."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _peak_scaled(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix of a complex (m, N, N) stack over its largest real or imaginary
    part, and those peaks; zero matrices stay zero. The parts are divided as
    reals: complex division overflows at a subnormal peak."""
    parts = np.ascontiguousarray(stack, dtype=complex).view(np.float64)
    peaks = np.max(np.abs(parts), axis=(1, 2))
    scale = np.where(peaks > 0.0, peaks, 1.0)[:, None, None]
    return (parts / scale).view(complex), peaks


def is_hermitian(m) -> bool:
    m = require_square(m)
    # ||M||_F as peak * ||M / peak||_F: no overflow below the float limit
    scaled, peaks = _peak_scaled(m[None])
    bound = HERMITIAN_TOL * (1.0 + float(peaks[0]) * float(np.linalg.norm(scaled)))
    return float(np.max(np.abs(m - m.conj().T))) <= bound


def require_hermitian_set(generators) -> list:
    """At least one square Hermitian matrix, all of one side; DimMismatch
    or NotHermitian otherwise."""
    gens = [require_square(g) for g in generators]
    if not gens:
        raise DimMismatch("need at least one generator")
    for g in gens:
        if g.shape != gens[0].shape:
            raise DimMismatch("generators must share one dimension")
        if not is_hermitian(g):
            raise NotHermitian("generators must be Hermitian")
    return gens


class HermitianEigen(NamedTuple):
    values: np.ndarray   # real, ascending
    vectors: np.ndarray  # orthonormal columns, vectors[:, k] for values[k]


def eig_hermitian(h) -> HermitianEigen:
    """Full eigendecomposition of a Hermitian matrix.

    Returns eigenvalues in ascending order with matching orthonormal
    eigenvector columns, so h = vectors @ diag(values) @ vectors.conj().T.
    Raises NotHermitian when the input fails the symmetry tolerance and
    NoConvergence if the underlying solver gives up.
    """
    h = require_square(h)
    if not is_hermitian(h):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return HermitianEigen(values=values, vectors=vectors)


def unitary_from_generator(h, theta: float) -> np.ndarray:
    """exp(-i * theta * h) for Hermitian h, via eigendecomposition."""
    values, vectors = eig_hermitian(h)
    phases = np.exp(-1j * float(theta) * values)
    return (vectors * phases) @ vectors.conj().T


def haar_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed n x n unitary, deterministic in the seed.

    QR of a complex Ginibre matrix, with the R diagonal renormalized to
    unit-modulus phases; without that correction QR output is not Haar.
    """
    n = int(n)
    if n < 1:
        raise DimMismatch("dimension must be at least 1")
    z = complex_gaussians(rng_stream(seed), (n, n))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    mags = np.abs(diag)
    phases = np.where(mags > 0, diag / np.where(mags > 0, mags, 1.0), 1.0)
    return q * phases


def commutator(a, b) -> np.ndarray:
    """Matrix commutator [a, b] = a @ b - b @ a, broadcast over leading stack
    axes as @ broadcasts them. DimMismatch unless both are at least 2-D with
    one square, nonempty trailing shape."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if (min(a.ndim, b.ndim) < 2 or a.shape[-2:] != b.shape[-2:]
            or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0):
        raise DimMismatch(f"need square matrices of one side, got shapes {a.shape} and {b.shape}")
    return a @ b - b @ a
