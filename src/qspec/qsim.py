"""Exact state-vector simulation of the experiment circuit family.

Circuit layout for n qubits (qubit 0 is the leftmost, most significant
bit of a basis index):

    |psi(theta, x)> = e^{-i theta_L H_L} ... e^{-i theta_1 H_1}
                      * U_ent * RY(x)^{tensor n} |0...0>

with RY(x) = exp(-i (x/2) Y) encoding the scalar input on every qubit and
U_ent a CNOT ring 0->1, 1->2, ..., n-1->0 (a single CNOT for n = 2,
nothing for n = 1). The default observable is Z on qubit 0. Generator
eigensystems and the basis changes between neighbouring layers are
stacked on the circuit description, so a forward pass builds each
parameter vector's whole-circuit unitary with one phase scaling and one
small matmul per layer, applies it to the encoded rows once, and needs no
eigensolve. The observable is stored as O = U diag(o) U^dag, with U^dag
folded into the last basis, so every expectation value is one
contraction: the squared real and imaginary parts of the output
amplitudes weighed by o. A diagonal observable keeps U = I.

The encoded rows are real: RY encoding and the CNOT permutation make no
imaginary part, and encode_inputs builds them as floats. There are two
kernels, each with a leading run axis over R circuits of one shape and
observable (a _Stack). _forward gives expectation values: each run's V
parameter vectors go through one (R, V*N, N) @ (R, N, N) matmul per
layer, and the rows meet the V unitaries in blocks of at most
FORWARD_BLOCK_ELEMENTS amplitudes across R * rows * V * N, one
(R, rows, N) matmul each, so its temporaries do not grow with the row
count. The rows are multiplied by the float view of W^T, whose columns
interleave the real and imaginary parts of W, so one real product gives
the (Re, Im) pairs that the expectations square, at half the arithmetic
of a complex product. It is the one block loop: circuit_forward_encoded
calls it with R = 1 on given rows and circuit_forward_batch with rows it
encodes one block at a time.
_fd_batch_grad serves a training step of every run of a lockstep study
at once, on real rows. A layer's angle enters an expectation as a trig
polynomial whose modes are its generator's gaps w_ij, so the central
difference of each (i, j) term is that term times i sin(step w_ij) /
step, exactly; one prefix sweep, one suffix sweep (_sweep) and one real
Gram of the batch's residual-weighed rows give the centre values and the
batch gradient without evaluating shifted circuits. Each run's slice of
a call is computed the same way whatever R is, so a run's values do not
depend on the other runs.

grad_fd takes the same differences one input at a time. From the same
sweeps it builds, once per (theta, step), the real derivative operators
Im D_l, one (N, N) block per layer side by side in an (N, L*N) array, so
that the difference in theta_l at encoded row x is -x^T Im(D_l) x: a call
costs one encoded row and one (1, N) @ (N, L*N) product. Each spec keeps
the operators of the last (theta, step) it was asked for, L*N^2 floats,
and builds new ones when either changes.

trig_poly_coeffs and grad_analytic_1p_batch take the modes (the gaps of H)
and coefficients of f(t) = <s| e^{itH} O e^{-itH} |s> from one routine,
_gap_coeffs; the gradient is a real sine series over the positive gaps.
"""

import math
from typing import NamedTuple

import numpy as np

from .linalg import (DimMismatch, _eigh, eig_hermitian, haar_unitary, is_hermitian,
                     require_hermitian_set, require_square)
from .spectrum import DEDUP_TOL, _sorted_runs

FD_STEP = 1e-4

MAX_QUBITS = 12

# Most elements of one (gaps, block of thetas) temporary of grad_analytic_1p_batch.
# From 2^17 elements (1 MiB) up, a 10^5-sample variance sweep run after the
# forward passes' smaller blocks page-faulted about 2,400 times and took 3-4 ms
# longer: glibc maps such blocks afresh each time unless larger frees have
# raised its mmap threshold
GRAD_BLOCK_ELEMENTS = 1 << 14

# Most complex amplitudes of one block of rows in a forward pass (_block_rows),
# from a per-operation sweep over 2^12 ... 2^16: 2^14 and 2^15 were fastest,
# and 2^16, whose 1 MiB products glibc maps afresh, page-faulted on every block
FORWARD_BLOCK_ELEMENTS = 1 << 14

# Largest b_max of make_generator: its eigenvalues' span 2 b_max and the
# entries of H + H^dag, at most 2 b_max up to rounding, stay finite with a
# factor 4 to spare, and so do the default study's eigenphases, whose angle
# reach is about 4.31
MAX_EIGEN_BOUND = np.finfo(float).max / 8

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _pauli_label(label: str) -> str:
    """label stripped and upper-cased; ValueError unless it is a nonempty
    word over I, X, Y, Z."""
    label = label.strip().upper()
    if not label or any(ch not in PAULI_1Q for ch in label):
        raise ValueError(f"invalid Pauli label {label!r}; use characters I, X, Y, Z")
    return label


def pauli_matrix(label: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, e.g. "ZI" = Z on qubit 0."""
    label = _pauli_label(label)
    out = PAULI_1Q[label[0]]
    for ch in label[1:]:
        out = np.kron(out, PAULI_1Q[ch])
    return out


def _entangler_perm(n: int, pairs) -> np.ndarray:
    """Basis permutation of the CNOT sequence: index b maps to perm[b]."""
    perm = np.arange(1 << n)
    for c, t in pairs:
        cmask = 1 << (n - 1 - c)
        tmask = 1 << (n - 1 - t)
        # target bit flips exactly on the indices whose control bit is set
        perm = np.where(perm & cmask != 0, perm ^ tmask, perm)
    return perm


def default_entangler(n: int) -> tuple:
    """CNOT ring pairs: 0->1, ..., n-1->0; one CNOT for n = 2, none for 1."""
    if n == 1:
        return ()
    if n == 2:
        return ((0, 1),)
    return tuple((q, (q + 1) % n) for q in range(n))


class _Stack(NamedTuple):
    """Eigensystems of R circuits of one shape and observable O = U diag(o) U^dag,
    each array but weights with a leading run axis: U^dag W = U^dag V_L P_L
    C_L ... C_2 P_1 V_1^dag, with P_l the layer's eigenphases and
    C_l = V_l^dag V_{l-1} the basis changes, so <psi|O|psi> weighs the
    squared parts of U^dag W |psi> by o."""

    lam: np.ndarray        # (R, L, N) generator eigenvalues
    last: np.ndarray       # (R, N, N) U^dag V_L
    hops: np.ndarray       # (R, L - 1, N, N) C_2 ... C_L
    first_h: np.ndarray    # (R, N, N) V_1^dag
    weights: np.ndarray    # (2N,) each eigenvalue o_k twice, for Re^2 and Im^2


class CircuitSpec:
    """Immutable circuit description with cached generator eigensystems.

    n: qubit count; generators: one Hermitian 2^n x 2^n matrix per layer;
    entangler: CNOT (control, target) pairs applied once after encoding;
    observable: Hermitian matrix, default Z on qubit 0. A non-diagonal
    observable is eigensolved once here and its eigenbasis folded into the
    last layer's basis; a diagonal one is taken as it is. The one mutable
    slot is private: grad_fd keeps there the derivative operators of the
    last (theta, step) it was called with.
    """

    __slots__ = ("n", "dim", "generators", "entangler", "observable",
                 "_stack", "_unperm", "_fd_operators")

    def __init__(self, n: int, generators, entangler=None, observable=None):
        self.n = int(n)
        if self.n < 1 or self.n > MAX_QUBITS:
            raise DimMismatch(f"qubit count must be in 1..{MAX_QUBITS}")
        self.dim = 1 << self.n

        gens = tuple(require_hermitian_set(generators))
        if gens[0].shape[0] != self.dim:
            raise DimMismatch(f"generator shape {gens[0].shape} != ({self.dim}, {self.dim})")
        self.generators = gens

        if entangler is None:
            entangler = default_entangler(self.n)
        pairs = tuple((int(c), int(t)) for c, t in entangler)
        for c, t in pairs:
            if not (0 <= c < self.n and 0 <= t < self.n) or c == t:
                raise DimMismatch(f"invalid CNOT pair ({c}, {t}) for n = {self.n}")
        self.entangler = pairs
        # the entangler sends basis index b to perm[b]; states gather through the inverse
        self._unperm = np.argsort(_entangler_perm(self.n, pairs))

        if observable is None:
            # Z on qubit 0: +1 when the most significant bit is 0
            zdiag = 1.0 - 2.0 * ((np.arange(self.dim) >> (self.n - 1)) & 1)
            observable = np.diag(zdiag.astype(complex))
        self.observable = obs = _observable(observable, self.dim)

        # one eigensolve of the checked stack, which eigh solves matrix by matrix
        lam, vecs = _eigh(np.stack(gens))                     # (L, N), (L, N, N)
        vecs_h = vecs.conj().transpose(0, 2, 1)
        last = vecs[-1]
        if np.count_nonzero(obs - np.diag(np.diagonal(obs))):
            obs_vals, obs_vecs = _eigh(obs)
            last = obs_vecs.conj().T @ last
        else:
            obs_vals = np.real(np.diagonal(obs))
        # C-contiguous, as a concatenation in _stack_specs is, so a run's
        # matmuls take the same BLAS path alone and stacked with others
        self._stack = _Stack(lam=lam[None],
                             last=last[None].copy(),
                             hops=(vecs_h[1:] @ vecs[:-1])[None],
                             first_h=vecs_h[0][None].copy(),
                             weights=np.repeat(obs_vals, 2))
        # grad_fd's last ((theta bytes, step), _derivative_operators)
        self._fd_operators = None

    @property
    def depth(self) -> int:
        return len(self.generators)


def _observable(obs, dim: int) -> np.ndarray:
    """obs as a complex dim x dim Hermitian array; DimMismatch otherwise."""
    obs = require_square(obs)
    if obs.shape[0] != dim:
        raise DimMismatch(f"observable shape {obs.shape} != ({dim}, {dim})")
    if not is_hermitian(obs):
        raise DimMismatch("observable must be Hermitian")
    return obs


def _stack_specs(specs) -> _Stack:
    """One _Stack over the circuits in specs, in order. DimMismatch unless
    every circuit has the first one's qubit count, depth, entangler and
    observable."""
    specs = list(specs)
    head = specs[0]
    for spec in specs[1:]:
        if (spec.n, spec.depth, spec.entangler) != (head.n, head.depth, head.entangler):
            raise DimMismatch(f"runs differ in shape: {spec.n} qubits, depth {spec.depth}, "
                              f"entangler {spec.entangler} against {head.n}, {head.depth}, "
                              f"{head.entangler}")
        if not np.array_equal(spec.observable, head.observable):
            raise DimMismatch("runs differ in observable")
    if len(specs) == 1:
        return head._stack
    return head._stack._replace(**{
        name: np.concatenate([getattr(spec._stack, name) for spec in specs])
        for name in ("lam", "last", "hops", "first_h")})


def _inputs(xs) -> np.ndarray:
    """xs as a 1-D float batch; DimMismatch unless scalar or 1-D."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.ndim != 1:
        raise DimMismatch("inputs must be scalars or a 1-D batch")
    return xs


def encode_inputs(spec: CircuitSpec, xs) -> np.ndarray:
    """Post-encoding states for a batch of scalar inputs as real rows, a
    C-contiguous float (B, 2^n) array. Precompute this once per dataset:
    it does not depend on theta.

    RY(x) = exp(-i (x/2) Y) turns each qubit of |0...0> into
    (cos(x/2), sin(x/2)) and the entangler permutes the basis, so every
    amplitude is real. The states are built as (2^n, B) columns from the
    first qubit's, one qubit at a time, then gathered and copied into rows
    (one copy into the rows straight from the columns, by np.take, was
    slower from a few hundred rows up).
    """
    xs = _inputs(xs)
    half = xs / 2.0
    amps = qubit = np.stack([np.cos(half), np.sin(half)])      # (2, B)
    for _ in range(spec.n - 1):
        # append the next qubit as the least significant index bit
        amps = (amps[:, None, :] * qubit[None, :, :]).reshape(2 * len(amps), len(xs))
    return np.ascontiguousarray(amps[spec._unperm].T)


def _block_rows(runs: int, nvec: int, dim: int) -> int:
    """Rows per block of a forward pass over R = runs circuits and V = nvec
    vectors of dimension N = dim: the largest power of two whose block of
    R * rows * V * N output amplitudes stays within FORWARD_BLOCK_ELEMENTS,
    or 1 when one row exceeds it. From 8 rows up, every block starts at a
    multiple of 8, where OpenBLAS's unrolled matrix-vector kernels start a
    group in a whole-batch call too, so the values have matched that
    call's bit for bit."""
    fit = max(1, FORWARD_BLOCK_ELEMENTS // (runs * nvec * dim))
    return 1 << (fit.bit_length() - 1)


def _row_blocks(count: int, step: int) -> list:
    """Slices of step rows covering range(count), except that a lone last row
    joins the block before it: BLAS takes a one-row product down its
    matrix-vector path, which can round differently from a whole-batch call."""
    starts = list(range(0, count, step))
    if count > step and count % step == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [count])]


def _unitaries(stack: _Stack, phases: np.ndarray) -> np.ndarray:
    """The whole-circuit unitaries W of R runs with V parameter vectors each,
    as the float operand, (R, N, 2*V*N), that real rows are multiplied by.

    phases (R, V, L, N) holds exp(-i theta_l lam_l) per run, vector and
    layer. W is built from the left as one (R, V*N, N) array, with row
    (v, i) the output amplitude i of vector v, so each layer is one batched
    matmul, and returned as _interleaved(W).
    """
    runs, nvec, depth, dim = phases.shape
    flat = (runs, nvec * dim, dim)
    w, tmp = np.empty((2, runs, nvec, dim, dim), dtype=complex)
    np.multiply(stack.last[:, None], phases[:, :, -1, None, :], out=w)   # (R, V, N, N)
    for layer in range(depth - 2, -1, -1):
        np.matmul(w.reshape(flat), stack.hops[:, layer], out=tmp.reshape(flat))
        np.multiply(tmp, phases[:, :, layer, None, :], out=w)
    np.matmul(w.reshape(flat), stack.first_h, out=tmp.reshape(flat))
    return _interleaved(tmp.reshape(flat))


def _interleaved(w: np.ndarray) -> np.ndarray:
    """The float view, (R, N, 2M), of a C-contiguous copy of the transpose of
    the complex (R, M, N) w: column 2m holds Re w_m and column 2m + 1 Im w_m,
    so real rows times it give the (Re, Im) pairs of their amplitudes,
    interleaved as a complex product's float view holds them."""
    return np.ascontiguousarray(w.transpose(0, 2, 1)).view(float)


def _forward(stack: _Stack, phases: np.ndarray, count: int, rows) -> np.ndarray:
    """Expectation values, real (R, V, count), of R runs with V parameter
    vectors each on count encoded rows per run.

    phases (R, V, L, N) holds exp(-i theta_l lam_l) per run, vector and
    layer; rows(block) gives the real (R, rows, N) encoded rows of the
    slice block of range(count). The unitaries are built once
    (_unitaries), and the rows meet them block by block (_block_rows,
    _row_blocks), one (R, rows, N) matmul each whose product holds the
    (Re, Im) pairs that _expectations squares, written into the output in
    place. Beyond the operand and the output, a call holds one block. The
    products have equalled the complex product of the same rows with W^T
    bit for bit from 2 rows up on OpenBLAS; a one-row product goes down
    BLAS's matrix-vector path, which can round differently.
    """
    runs, nvec, _, dim = phases.shape
    operand = _unitaries(stack, phases)
    out = np.empty((runs, nvec, count))
    for block in _row_blocks(count, _block_rows(runs, nvec, dim)):
        parts = (rows(block) @ operand).reshape(runs, -1, 2 * dim)     # rows (b, v)
        out[:, :, block] = _expectations(stack, parts).reshape(runs, -1, nvec).transpose(0, 2, 1)
    return out


def _expectations(stack: _Stack, parts: np.ndarray) -> np.ndarray:
    """<psi|O|psi>, real (R, rows), of output amplitudes given as their
    (Re, Im) pairs, a C-contiguous float (R, rows, 2N): the parts squared
    in place, weighed by o."""
    return np.square(parts, out=parts) @ stack.weights


def _shift_gains(stack: _Stack, step: float) -> np.ndarray:
    """sin(step w_ij) / step, real (R, L, N, N), for the gaps w_ij = lam_i - lam_j
    of every run's layers. Shifting theta_l by +-step scales the (i, j) term of
    an expectation in layer l's eigenbasis by exp(+-i step w_ij), so its
    central difference is that term times i sin(step w_ij) / step."""
    return np.sin(step * (stack.lam[..., :, None] - stack.lam[..., None, :])) / step


def _sweep(stack: _Stack, theta: np.ndarray, prefix: np.ndarray, suffix: np.ndarray) -> None:
    """Write Q_l = P_l C_l ... P_1 V_1^dag into prefix[:, l] and
    T_l = U^dag V_L P_L C_L ... P_{l+1} C_{l+1} into suffix[:, l], both
    complex (R, L, N, N), for the angles theta (R, L): W = T_l Q_l for
    every layer l, from one sweep from each end."""
    depth = theta.shape[1]
    phases = _phases(stack, theta[:, None])[:, 0]                     # (R, L, N)
    transfer = phases[:, 1:, :, None] * stack.hops                     # P_l C_l, l = 2 .. L
    np.multiply(phases[:, 0, :, None], stack.first_h, out=prefix[:, 0])
    suffix[:, -1] = stack.last
    for layer in range(1, depth):
        np.matmul(transfer[:, layer - 1], prefix[:, layer - 1], out=prefix[:, layer])
        np.matmul(suffix[:, -layer], transfer[:, -layer], out=suffix[:, -layer - 1])


def _observable_terms(stack: _Stack, suffix: np.ndarray) -> np.ndarray:
    """M_l = T_l^dag diag(o) T_l, complex (R, L, N, N), of the suffixes T_l
    that _sweep writes: the observable seen just after layer l."""
    return (suffix.conj().transpose(0, 1, 3, 2) * stack.weights[::2]) @ suffix


def _fd_batch_grad(stack: _Stack, gains: np.ndarray, theta: np.ndarray, encoded: np.ndarray,
                   labels: np.ndarray, prefix: np.ndarray,
                   suffix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre values, shape (R, B), and batch gradients, shape (R, L), of R runs.

    theta is (R, L), encoded (R, B, N) real rows (encode_inputs), labels
    (R, B) and gains from _shift_gains. Gradient l is mean_b 2 r_b d_lb,
    with r_b = f_b - labels_b and d_lb the central difference of f_b in
    theta_l, computed exactly without shifted circuits:

    * _sweep writes Q_l into prefix[:, l] and T_l into suffix[:, l], so
      W = T_l Q_l;
    * the values f_b take the rows through _interleaved(W), as _forward does;
    * with a_b = Q_l x_b and M_l = T_l^dag diag(o) T_l (_observable_terms),
      d_lb = sum_ij conj(a_bi) (M_l)_ij a_bj i gains_ij;
    * the batch meets the layers once, as the real residual Gram
      X = sum_b r_b x_b x_b^T, one (R, N, N) product: with
      A_l = conj(Q_l) X Q_l^T, gradient l = (2 / B) Re sum_ij i gains_ij
      (M_l)_ij (A_l)_ij.

    A training loop passes the same prefix and suffix, (R, L, N, N), every
    step: arrays this large allocated and freed every step can let glibc
    trim the heap top and fault the pages back in each time, which made
    `train --fast` about a third slower in some heap layouts.
    """
    runs, depth = theta.shape
    _sweep(stack, theta, prefix, suffix)
    vals = _expectations(stack, encoded @ _interleaved(stack.last @ prefix[:, -1]))
    resid = vals - labels
    gram = (encoded * resid[..., None]).transpose(0, 2, 1) @ encoded               # (R, N, N)
    terms = _observable_terms(stack, suffix)                                         # M_l
    terms *= prefix.conj() @ gram[:, None] @ prefix.transpose(0, 1, 3, 2)         # A_l
    terms = (gains * terms.imag).reshape(runs, depth, -1)              # Re(i z) = -Im z
    return vals, terms.sum(axis=2) * (-2.0 / encoded.shape[1])


def _phases(stack: _Stack, thetas: np.ndarray) -> np.ndarray:
    """Eigenphases exp(-i theta_l lam_l), shape (R, V, L, N), of thetas (R, V, L)."""
    return np.exp(-1j * (thetas[..., None] * stack.lam[:, None]))


def circuit_forward_encoded(spec: CircuitSpec, thetas, encoded) -> np.ndarray:
    """Expectation values for V parameter vectors x B encoded states.

    thetas has shape (V, depth); encoded holds real rows of shape
    (B, 2^n), as encode_inputs gives them, and DimMismatch is raised for
    any other shape or for rows that are not real numbers (complex ones
    included). Returns a real (V, B) array. Each parameter vector's
    circuit unitary W = V_L P_L C_L ... C_2 P_1 V_1^dag (P_l the layer's
    eigenphases, C_l the stacked basis changes) is built first, so the
    rows are multiplied once, whatever the depth (_forward).
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != spec.depth:
        raise DimMismatch(f"thetas shape {thetas.shape} != (V, {spec.depth})")
    encoded = np.asarray(encoded)
    if encoded.dtype.kind not in "biuf":
        raise DimMismatch(f"encoded rows must be real numbers, got dtype {encoded.dtype}")
    if encoded.ndim != 2 or encoded.shape[1] != spec.dim:
        raise DimMismatch(f"encoded shape {encoded.shape} != (B, {spec.dim})")
    encoded = encoded.astype(float, copy=False)
    stack = spec._stack
    return _forward(stack, _phases(stack, thetas[None]), encoded.shape[0],
                    lambda block: encoded[None, block])[0]


def circuit_forward_batch(spec: CircuitSpec, theta, xs) -> np.ndarray:
    """Expectation <psi(theta, x)| O |psi(theta, x)> over a batch of x.

    The circuit unitary is built once, and the inputs are encoded as
    _forward takes them, one block of _block_rows(1, 1, N) rows at a time,
    so beyond the output the call holds one block's rows.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.shape[0] != spec.depth:
        raise DimMismatch(f"theta has length {theta.shape[0]}, expected {spec.depth}")
    xs = _inputs(xs)
    stack = spec._stack
    return _forward(stack, _phases(stack, theta[None, None]), xs.shape[0],
                    lambda block: encode_inputs(spec, xs[block])[None])[0, 0]


def _derivative_operators(stack: _Stack, theta: np.ndarray, step: float) -> np.ndarray:
    """Im D_l side by side, real (N, L*N), with D_l = Q_l^dag (gains_l * M_l) Q_l
    from _sweep and _observable_terms for the angles theta (L,) and gains
    _shift_gains(stack, step): the central difference of the expectation
    in theta_l at real encoded row x is d_l = x^T (i D_l) x = -x^T Im(D_l) x,
    the one-row case of _fd_batch_grad's d_lb."""
    gains = _shift_gains(stack, step)                                   # (1, L, N, N)
    prefix, suffix = np.empty_like(gains, dtype=complex), np.empty_like(gains, dtype=complex)
    _sweep(stack, theta[None], prefix, suffix)
    terms = _observable_terms(stack, suffix)
    terms *= gains
    del suffix, gains                   # freed before the two products, which set the peak
    ops = (prefix.conj().transpose(0, 1, 3, 2) @ terms @ prefix)[0].imag   # (L, N, N)
    depth, dim = ops.shape[:2]
    return np.ascontiguousarray(ops.transpose(1, 0, 2)).reshape(dim, depth * dim)


def _finite_scalar(value, name: str) -> float:
    """value as a float; DimMismatch unless it is a real scalar, ValueError
    unless it is finite."""
    value = np.asarray(value)
    if value.ndim != 0 or value.dtype.kind not in "biuf":
        raise DimMismatch(f"{name} must be a real scalar, got shape {value.shape} "
                          f"and dtype {value.dtype}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return value


def grad_fd(spec: CircuitSpec, theta, x: float, step: float = FD_STEP) -> np.ndarray:
    """Central differences [f(theta + step e_l) - f(theta - step e_l)] / (2 step)
    of the expectation at one input x, one per layer l.

    They are exact, from the derivative operators of (theta, step)
    (_derivative_operators), which the spec keeps until a call brings
    another theta or step, and O(step^2) from the true derivative: halving
    the step shrinks that error about 4x. DimMismatch unless theta holds
    depth real numbers and x and step are real scalars, ValueError unless
    all are finite and step is positive, both before any work.
    """
    theta = np.asarray(theta)
    if theta.dtype.kind not in "biuf" or theta.size != spec.depth:
        raise DimMismatch(f"theta must hold {spec.depth} real numbers, got shape "
                          f"{theta.shape} and dtype {theta.dtype}")
    theta = theta.astype(float).ravel()
    x = _finite_scalar(x, "x")
    step = _finite_scalar(step, "step")
    if step <= 0.0:
        raise ValueError("step must be positive")
    key = (theta.tobytes(), step)
    # read once, so a call on another thread that replaces the slot cannot
    # pair this key with its operators
    kept = spec._fd_operators
    if kept is None or kept[0] != key:
        # a theta equal to the kept one was found finite when it was kept
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")
        kept = spec._fd_operators = (key, _derivative_operators(spec._stack, theta, step))
    row = encode_inputs(spec, x)                                        # (1, N)
    return -((row @ kept[1]).reshape(spec.depth, spec.dim) @ row[0])


def _eigen_gram(h, state, obs) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lam of H - (Tr H / N) I and G = diag(conj(a)) V^dag O V diag(a),
    a = V^dag |state>: <state| e^{itH} O e^{-itH} |state> = z^dag G z with
    z_p = e^{-i t lam_p}. Removing the trace changes no gap and keeps a
    large identity part from rounding small gaps away: eigenvalues 1 +- w
    lose the low digits of w, +- w keep them. DimMismatch for a state or
    observable of the wrong size or a non-Hermitian observable."""
    h = require_square(h)
    dim = h.shape[0]
    lam, vecs = eig_hermitian(h - np.sum(np.diagonal(h).real / dim) * np.eye(dim))
    state = np.asarray(state, dtype=complex).ravel()
    if state.shape[0] != dim:
        raise DimMismatch(f"state length {state.shape[0]} != generator dimension {dim}")
    obs = _observable(obs, dim)
    amps = vecs.conj().T @ state
    return lam, amps.conj()[:, None] * (vecs.conj().T @ obs @ vecs) * amps[None, :]


def _gap_coeffs(h, state, obs, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Sorted gaps w = lam_q - lam_p of H, runs within tol merged to their mean
    (tol = 0: exactly equal gaps only), and the sums a_w of G_pq over each run:
    <state| e^{itH} O e^{-itH} |state> = sum_w a_w e^{-i t w}."""
    lam, gram = _eigen_gram(h, state, obs)
    gaps = (lam[None, :] - lam[:, None]).ravel()
    order = np.argsort(gaps, kind="stable")
    means, starts = _sorted_runs(gaps[order], tol)
    return means, np.add.reduceat(gram.ravel()[order], starts)


def trig_poly_coeffs(h, phi, obs) -> dict:
    """Fourier coefficients of f(t) = <phi| e^{itH} O e^{-itH} |phi>.

    The accessible modes are eigenvalue gaps w = lam_q - lam_p of H; the
    coefficient of e^{-i t w} is the sum over pairs at that gap of
    conj(<p|phi>) <q|phi> O_pq in the eigenbasis. Gaps within DEDUP_TOL
    are merged. Returns a dict mapping the real gap to its complex
    coefficient; conjugate symmetry a_{-w} = conj(a_w) holds for
    Hermitian O and the coefficients reconstruct direct simulation.
    """
    gaps, coeffs = _gap_coeffs(h, phi, obs, DEDUP_TOL)
    return dict(zip(gaps.tolist(), coeffs.tolist()))


def make_generator(n_dim: int, b_max: float, seed: int) -> np.ndarray:
    """Random Hermitian with eigenvalues exactly linspace(-b_max, b_max).

    Conjugates the known diagonal by a Haar unitary, so the gap structure
    is controlled while the eigenbasis is generic. Deterministic in seed.
    """
    n_dim = int(n_dim)
    if n_dim < 2:
        raise DimMismatch("dimension must be at least 2")
    b_max = float(b_max)
    if not 0.0 <= b_max <= MAX_EIGEN_BOUND:   # nan fails too
        raise ValueError(f"b_max must lie in [0, {MAX_EIGEN_BOUND:.4g}], got {b_max:.4g}")
    lam = np.linspace(-b_max, b_max, n_dim)
    u = haar_unitary(n_dim, seed)
    h = (u * lam) @ u.conj().T
    return (h + h.conj().T) / 2.0


def grad_analytic_1p_batch(h, thetas, obs, state) -> np.ndarray:
    """Exact derivatives d/dt <s| e^{itH} O e^{-itH} |s> at each t in thetas.

    With a_w from _gap_coeffs, exactly equal gaps merged, a_{-w} = conj(a_w)
    gives f'(t) = sum_{w > 0} 2 w |a_w| sin(arg a_w - w t): one sine per
    positive gap and sample, and exact zeros when H has one distinct
    eigenvalue. One eigensolve serves the whole batch; thetas, a scalar or
    a 1-D array of finite angles, goes in blocks of max(1,
    GRAD_BLOCK_ELEMENTS // gaps) samples, so the (gaps, block) temporary
    stays within GRAD_BLOCK_ELEMENTS unless one sample's gaps exceed it.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if thetas.ndim != 1:
        raise DimMismatch(f"thetas must be a scalar or a 1-D array, got shape {thetas.shape}")
    if not np.all(np.isfinite(thetas)):
        raise ValueError("thetas must be finite")
    gaps, coeffs = _gap_coeffs(h, state, obs, 0.0)
    pos = gaps > 0.0
    omega, coeffs = gaps[pos], coeffs[pos]
    amp, phase = 2.0 * omega * np.abs(coeffs), np.angle(coeffs)
    if omega.size == 0:
        return np.zeros(thetas.shape[0])
    out = np.empty(thetas.shape[0])
    cols = max(1, GRAD_BLOCK_ELEMENTS // omega.size)
    for lo in range(0, thetas.shape[0], cols):
        arg = np.multiply.outer(omega, thetas[lo:lo + cols])       # (gaps, block)
        np.subtract(phase[:, None], arg, out=arg)
        np.dot(amp, np.sin(arg, out=arg), out=out[lo:lo + cols])
        del arg                  # freed before the next block is allocated
    return out
