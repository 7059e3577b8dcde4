import time
import tracemalloc

import numpy as np
import pytest

from qspec import dla
from qspec.dla import (MAX_DLA_DIM, MAX_DLA_SIDE, DimCap, LieBasis, ZeroMatrix,
                       center_and_derived, dla_report, eta, lie_closure)
from qspec.linalg import commutator, complex_gaussians, haar_unitary, rng_stream
from qspec.qsim import pauli_matrix


def inner(a, b):
    return float(np.real(np.sum(a.conj() * b)))


def random_hermitian(dim, seed):
    z = complex_gaussians(rng_stream(seed), (dim, dim))
    return (z + z.conj().T) / 2


def test_closure_dimensions():
    assert len(lie_closure([pauli_matrix("Z")])) == 1
    assert len(lie_closure([pauli_matrix("X"), pauli_matrix("Y")])) == 3
    assert len(lie_closure([pauli_matrix("ZI"), pauli_matrix("IZ")])) == 2
    assert len(lie_closure([np.eye(2), pauli_matrix("X"),
                            pauli_matrix("Y"), pauli_matrix("Z")])) == 4


def test_closure_basis_is_orthonormal_antihermitian():
    basis = lie_closure([pauli_matrix("X"), pauli_matrix("Y")])
    els = basis.elements
    for i, a in enumerate(els):
        assert np.max(np.abs(a + a.conj().T)) <= 1e-12
        for j, b in enumerate(els):
            assert inner(a, b) == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_closure_invariant_under_recombination():
    x, y = pauli_matrix("X"), pauli_matrix("Y")
    d1 = len(lie_closure([x, y]))
    d2 = len(lie_closure([x + y, x - y]))
    d3 = len(lie_closure([0.3 * x, 5.0 * y, x + 0.1 * y]))
    assert d1 == d2 == d3 == 3


def test_closure_random_generators_fill_u4():
    gens = [random_hermitian(4, seed=10), random_hermitian(4, seed=11)]
    assert len(lie_closure(gens)) == 16


def test_closure_dim_cap(monkeypatch):
    monkeypatch.setattr(dla, "MAX_DLA_DIM", 2)
    with pytest.raises(DimCap, match="exceeds cap 2"):
        lie_closure([pauli_matrix("X"), pauli_matrix("Y")])


def test_center_and_derived_u2():
    u2 = lie_closure([np.eye(2), pauli_matrix("X"),
                      pauli_matrix("Y"), pauli_matrix("Z")])
    center, derived = center_and_derived(u2)
    assert len(center) == 1
    assert len(derived) == 3
    assert len(center) + len(derived) == len(u2)
    # the center element is a phase of the identity
    c = center[0]
    off = c - (np.trace(c) / 2.0) * np.eye(2)
    assert np.max(np.abs(off)) <= 1e-10


def test_center_elements_commute_with_algebra():
    basis = lie_closure([pauli_matrix("ZI"), pauli_matrix("IZ"),
                         np.eye(4)])
    for c in center_and_derived(basis)[0]:
        for el in basis.elements:
            assert np.max(np.abs(commutator(c, el))) <= 1e-8


def test_su2_has_trivial_center():
    su2 = lie_closure([pauli_matrix("X"), pauli_matrix("Y")])
    center, derived = center_and_derived(su2)
    assert len(center) == 0
    assert len(derived) == 3


def test_abelian_algebra_is_its_center():
    basis = lie_closure([pauli_matrix("ZI"), pauli_matrix("IZ")])
    center, derived = center_and_derived(basis)
    assert len(center) == 2
    assert len(derived) == 0


def test_derived_lies_inside_algebra():
    basis = lie_closure([random_hermitian(4, seed=21), random_hermitian(4, seed=22)])
    for el in center_and_derived(basis)[1]:
        proj = sum(inner(b, el) * b for b in basis.elements)
        assert np.max(np.abs(proj - el)) <= 1e-10


def test_dla_report_splits_once(monkeypatch):
    # spy: the report takes both dimensions from one center_and_derived call
    # on the closure's basis
    calls, split = [], dla.center_and_derived

    def spy(g, tol):
        calls.append((g, tol))
        return split(g, tol)
    monkeypatch.setattr(dla, "center_and_derived", spy)
    for gens, dims in (([np.eye(2), pauli_matrix("X"), pauli_matrix("Y")], (4, 1, 3)),
                       ([pauli_matrix("ZI"), pauli_matrix("IZ")], (2, 2, 0))):
        calls.clear()
        rep = dla_report(gens, tol=1e-9)
        assert (rep.dim, rep.center_dim, rep.derived_dim) == dims
        assert len(calls) == 1 and calls[0][1] == 1e-9
        basis = lie_closure(gens, tol=1e-9)
        assert np.array_equal(calls[0][0].elements, basis.elements)
        assert calls[0][0].generator_count == basis.generator_count
        center, derived = split(basis, 1e-9)
        assert (rep.center_dim, rep.derived_dim) == (len(center), len(derived))


def test_eta_identity_and_traceless_exact():
    for n in (2, 4, 8):
        assert eta(np.eye(n)) == np.sqrt(n)
        assert eta(-3.7 * np.eye(n)) == np.sqrt(n)
    for label in ("X", "Y", "Z", "XX", "ZIZ"):
        assert eta(pauli_matrix(label)) == 0.0


def test_eta_weighted_identity_example():
    for w in (0.0, 0.25, 0.5, 1.0):
        g = w * pauli_matrix("IY") + pauli_matrix("II")
        assert eta(g) == pytest.approx(2.0 / np.sqrt(1.0 + w * w), abs=1e-13)


def test_eta_invariances_and_bounds():
    gen = rng_stream(31)
    for i in range(50):
        n = [2, 4, 8][i % 3]
        g = random_hermitian(n, seed=4000 + i)
        e = eta(g)
        assert 0.0 <= e <= np.sqrt(n)
        # a random Hermitian is essentially never a multiple of identity
        assert e < np.sqrt(n) - 1e-6
        c = float(gen.uniform(0.1, 10.0)) * (-1.0 if i % 2 else 1.0)
        assert eta(c * g) == pytest.approx(e, abs=1e-12)
        u = haar_unitary(n, seed=5000 + i)
        assert eta(u @ g @ u.conj().T) == pytest.approx(e, abs=1e-10)


def test_eta_zero_matrix():
    with pytest.raises(ZeroMatrix):
        eta(np.zeros((3, 3)))
    # a subnormal peak once gave nan through complex division
    for scale in (1e-310, 1e-320):
        with pytest.raises(ZeroMatrix, match="zero matrix"):
            eta(scale * pauli_matrix("X"))
    assert eta(1e-300 * np.eye(2)) == pytest.approx(np.sqrt(2.0), abs=1e-15)


@pytest.mark.parametrize("scale", [1e200, 1e-300, 1e-9, 3.0])
def test_closure_dims_do_not_depend_on_generator_scale(scale):
    # brackets of 1e200-scale generators once overflowed and were dropped,
    # and generators below tol counted as zero
    rep = dla_report([scale * pauli_matrix("X"), pauli_matrix("Y")])
    assert (rep.dim, rep.center_dim, rep.derived_dim) == (3, 0, 3)
    assert len(lie_closure([scale * pauli_matrix("X"), scale * pauli_matrix("Y")])) == 3


def test_dla_report_weighted_generator():
    g = 0.5 * pauli_matrix("IY") + pauli_matrix("II")
    rep = dla_report([g])
    assert rep.dim == 1
    assert rep.center_dim == 1
    assert rep.derived_dim == 0
    assert rep.eta_per_generator[0] == pytest.approx(2.0 / np.sqrt(1.25), abs=1e-13)


# ------------------------------------------------- Pauli-string oracle

def pauli_bits(label):
    """Symplectic (x, z) bit masks of a Pauli string: X -> x, Z -> z, Y -> both."""
    x = z = 0
    for q, ch in enumerate(label):
        x |= (ch in "XY") << q
        z |= (ch in "YZ") << q
    return x, z


def anticommute(a, b):
    return bin((a[0] & b[1]) ^ (a[1] & b[0])).count("1") % 2 == 1


def pauli_closure_dims(labels):
    """(dim, center, derived) of the algebra spanned by i * strings, on bits.

    The bracket of two strings is zero when they commute and a multiple
    of their product otherwise, so the closure is spanned by strings. The
    center is the strings that commute with all others; the derived
    algebra is spanned by the products of anticommuting pairs.
    """
    strings = list(dict.fromkeys(pauli_bits(s) for s in labels))
    seen = set(strings)
    j = 0
    while j < len(strings):
        for t in strings[:j]:
            if anticommute(strings[j], t):
                p = (strings[j][0] ^ t[0], strings[j][1] ^ t[1])
                if p not in seen:
                    seen.add(p)
                    strings.append(p)
        j += 1
    center = [s for s in strings if not any(anticommute(s, t) for t in strings)]
    derived = {(a[0] ^ b[0], a[1] ^ b[1]) for a in strings for b in strings
               if anticommute(a, b)}
    return len(strings), len(center), len(derived)


def dense_dims(labels):
    rep = dla_report([pauli_matrix(s) for s in labels])
    return rep.dim, rep.center_dim, rep.derived_dim


@pytest.mark.parametrize("labels, dims", [
    ("XII;YII;IXI;IYI;IIX;IIY;ZZI;IZZ", (63, 0, 63)),   # su(8)
    ("XII;IXI;IIX;ZZI;IZZ;ZIZ", (30, 0, 30)),           # ring Ising
    ("XI;YI;IX;IY;ZZ;II", (16, 1, 15)),                 # u(4)
    ("I;X;Y;Z", (4, 1, 3)),                             # u(2)
    ("ZI;IZ", (2, 2, 0)),                               # commuting strings
])
def test_dense_dims_match_pauli_oracle(labels, dims):
    labels = labels.split(";")
    assert pauli_closure_dims(labels) == dims
    assert dense_dims(labels) == dims


def block_generators(blocks):
    """Two generic Hermitian generators on each diagonal block: they
    generate u(b1) + u(b2) + ..."""
    gens = []
    for seed in (41, 42):
        g = np.zeros((sum(blocks), sum(blocks)), dtype=complex)
        at = 0
        for k, b in enumerate(blocks):
            g[at:at + b, at:at + b] = random_hermitian(b, seed=100 * seed + k)
            at += b
        gens.append(g)
    return gens


@pytest.mark.parametrize("blocks, dims", [
    ((4,), (16, 1, 15)), ((2, 2), (8, 2, 6)), ((3, 1), (10, 2, 8))])
def test_random_block_diagonal_generators(blocks, dims):
    # one center direction per block, derived algebra su(b1) + su(b2)
    gens = block_generators(blocks)
    rep = dla_report(gens)
    assert (rep.dim, rep.center_dim, rep.derived_dim) == dims
    basis = lie_closure(gens)
    center, derived = center_and_derived(basis)
    for c in center:
        for el in basis.elements:
            assert np.max(np.abs(commutator(c, el))) <= 1e-10
    for d in derived:
        edges = np.cumsum((0,) + blocks)
        for lo, hi in zip(edges, edges[1:]):
            assert abs(np.trace(d[lo:hi, lo:hi])) <= 1e-10


# ------------------------------------------ brute-force center and derived

def real_rows(mats):
    """Real (k, 2 N^2) rows of N x N complex matrices."""
    mats = np.ascontiguousarray(mats, dtype=complex)
    return mats.reshape(-1, mats.shape[-1] ** 2).view(np.float64)


def projector(mats):
    """Orthogonal projector onto the real span of orthonormal N x N matrices."""
    rows = real_rows(mats)
    return rows.T @ rows


def brute_force_center(basis, tol=1e-8):
    """Common null space of ad over every basis element: the coordinates v
    with sum_i v_i [X_i, X_j] = 0 for all j, from brackets taken one by one."""
    els = basis.elements
    cols = [real_rows([a @ b - b @ a for b in els]).ravel() for a in els]
    _, svals, vh = np.linalg.svd(np.array(cols).T, full_matrices=False)
    return np.tensordot(vh[svals <= tol], els, axes=1)


def brute_force_derived(basis, tol=1e-8):
    """Orthonormal basis of the span of all pairwise brackets of the basis."""
    els, n = basis.elements, basis.dim_matrix
    brackets = real_rows([a @ b - b @ a for a in els for b in els])
    _, svals, vh = np.linalg.svd(brackets, full_matrices=False)
    return np.ascontiguousarray(vh[svals > tol]).view(complex).reshape(-1, n, n)


def pauli_set(labels):
    return [pauli_matrix(s) for s in labels.split(";")]


def free_fermions(n):
    return pauli_set(";".join(["I" * q + "Z" + "I" * (n - q - 1) for q in range(n)]
                              + ["I" * q + "XX" + "I" * (n - q - 2) for q in range(n - 1)]))


ORACLE_SETS = {
    **{f"random_pair_{n}": [random_hermitian(n, seed=600 + n), random_hermitian(n, seed=700 + n)]
       for n in (2, 4, 8)},
    **{f"blocks_{blocks}": block_generators(blocks) for blocks in ((4,), (2, 2), (3, 1))},
    "shifted_su2": [pauli_matrix("X") + 3 * np.eye(2), pauli_matrix("Y") + 3 * np.eye(2)],
    **{f"free_fermions_{n}": free_fermions(n) for n in (2, 3, 4)},
    "su8": pauli_set("XII;YII;IXI;IYI;IIX;IIY;ZZI;IZZ"),
    "ring_ising": pauli_set("XII;IXI;IIX;ZZI;IZZ;ZIZ"),
    "u4": pauli_set("XI;YI;IX;IY;ZZ;II"),
}


@pytest.mark.parametrize("name", list(ORACLE_SETS))
def test_center_and_derived_match_brute_force(name):
    basis = lie_closure(ORACLE_SETS[name])
    center, derived = center_and_derived(basis)
    want_center, want_derived = brute_force_center(basis), brute_force_derived(basis)
    assert center.shape == want_center.shape and derived.shape == want_derived.shape
    assert len(center) + len(derived) == len(basis)
    assert np.max(np.abs(projector(center) - projector(want_center)), initial=0.0) <= 1e-10
    assert np.max(np.abs(projector(derived) - projector(want_derived)), initial=0.0) <= 1e-10
    assert np.max(np.abs(real_rows(center) @ real_rows(derived).T), initial=0.0) <= 1e-10


def su16_labels():
    """X_q and Y_q on every qubit plus Z_q Z_{q+1}: they generate su(16)."""
    return ["I" * q + p + "I" * (4 - q - len(p)) for p in ("X", "Y", "ZZ") for q in range(5 - len(p))]


def test_su16_matches_oracle_within_budget():
    # the report's traced peak, about 29 MiB, is center_and_derived's chunked
    # products and its (G m, m) adjoint matrix; the closure's basis is 1 MiB
    labels = su16_labels()
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        dims = dense_dims(labels)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dims == pauli_closure_dims(labels) == (255, 0, 255)
    assert elapsed <= 10.0, elapsed
    assert peak < 64 * 2 ** 20, peak


def brute_force_closure_dim(gens, tol=1e-8):
    """Rank of the span reached by adding every pairwise bracket of an
    orthonormal basis of the span until the rank stops growing."""
    n = gens[0].shape[0]
    rows = real_rows([1j * g / np.linalg.norm(g) for g in gens])
    while True:
        _, svals, vh = np.linalg.svd(rows, full_matrices=False)
        els = np.ascontiguousarray(vh[svals > tol * svals[0]]).view(complex).reshape(-1, n, n)
        rows = np.vstack([real_rows(els), real_rows([a @ b - b @ a for a in els for b in els])])
        if np.linalg.matrix_rank(rows, tol=tol) == len(els):
            return len(els)


@pytest.mark.parametrize("name", list(ORACLE_SETS))
def test_closure_is_closed_under_every_bracket(name):
    gens = ORACLE_SETS[name]
    basis = lie_closure(gens)
    els, rows = basis.elements, real_rows(basis.elements)
    assert len(basis) == brute_force_closure_dim(gens)
    # the generators lie in the span, and so does every pairwise bracket
    brackets = real_rows([1j * g / np.linalg.norm(g) for g in gens]
                         + [a @ b - b @ a for a in els for b in els])
    assert np.max(np.abs(brackets - (brackets @ rows.T) @ rows)) <= 1e-10


def test_su16_closure_brackets_with_the_generators_only(monkeypatch):
    # each accepted row after the first is bracketed with the G generator
    # rows, so _extend sees G_in + (m - 1) G candidate rows, not about m^2 / 2
    seen, extend = [], dla._extend
    monkeypatch.setattr(dla, "_extend", lambda basis, m, cands, tol: seen.append(len(cands))
                        or extend(basis, m, cands, tol))
    labels = su16_labels()
    basis = lie_closure([pauli_matrix(s) for s in labels])
    assert (len(basis), basis.generator_count) == (255, 11)
    assert sum(seen) <= len(labels) + (len(basis) - 1) * basis.generator_count == 2805


def test_center_and_derived_refuse_oversized_algebra():
    big = LieBasis(dim_matrix=2, elements=np.zeros((MAX_DLA_DIM + 1, 2, 2), dtype=complex),
                   generator_count=MAX_DLA_DIM + 1)
    with pytest.raises(DimCap):
        center_and_derived(big)


def test_closure_refuses_matrix_side_above_cap():
    assert len(lie_closure([np.eye(MAX_DLA_SIDE)])) == 1
    t0 = time.perf_counter()
    with pytest.raises(DimCap):
        lie_closure([np.eye(2 * MAX_DLA_SIDE)])
    assert time.perf_counter() - t0 <= 1.0


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_non_positive_or_non_finite_tolerance_rejected(tol):
    basis = lie_closure([pauli_matrix("X"), pauli_matrix("Y")])
    for fn in (lie_closure, dla_report):
        with pytest.raises(ValueError):
            fn([pauli_matrix("X")], tol=tol)
    with pytest.raises(ValueError):
        center_and_derived(basis, tol=tol)
