"""Lie-algebraic diagnostics for generator sets.

Closure of {i * H_j} under commutators, center (commutant within the
algebra), derived subalgebra, and the trace-concentration metric
eta(G) = |Tr G| / ||G||_F that separates identity-like generators from
traceless ones. Every algebra here lies in u(N), whose inner product
Re Tr(A^dag B) is ad-invariant, so g = center + [g, g] orthogonally: both
halves come from one SVD of the generators' adjoint action on g.
Generators that are each a multiple of one Pauli string have an exact
path on bit masks, pauli_dla_report, with no matrix built; for generators
written as Pauli-string sums, pauli_expr_report chooses the path.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .linalg import (QspecError, _check_tol, _peak_scaled, commutator, require_hermitian_set,
                     require_square)
from .qsim import _pauli_label, pauli_matrix

CLOSURE_TOL = 1e-8

# Frobenius norms at or below this count as the zero matrix
ZERO_FLOOR = 1e-300

# Largest algebra the dense path takes on, u(16); the generators' adjoint
# matrix then holds G m^2 floats for G generators, 128 MiB only if G = m
MAX_DLA_DIM = 256

# Largest matrix side N the dense path takes on, 6 qubits: each qubit more
# multiplies the work about tenfold below the dimension cap
MAX_DLA_SIDE = 64

# Most generator entries (count x N^2) the dense path takes on: MAX_DLA_DIM
# generators at the side cap, as many as the basis holds. In-process, `qspec
# dla` on 256 six-qubit generators took 0.2 s and 100 MiB peak RSS, and on
# 1,024 0.64 s and 292 MiB: the parsed list and its stacked copies grow
MAX_DLA_GENERATOR_ENTRIES = MAX_DLA_DIM * MAX_DLA_SIDE ** 2

_CHUNK = 1 << 21   # complex entries per chunk of products in center_and_derived

# a Pauli string's x and z bit masks as binary digits: X sets x, Z sets z, Y both
_X_DIGITS = str.maketrans("IXYZ", "0110")
_Z_DIGITS = str.maketrans("IXYZ", "0011")


class ZeroMatrix(QspecError):
    """eta of the zero matrix is undefined."""


class DimCap(QspecError):
    """Closure dimension would exceed the cap."""


@dataclass(frozen=True, eq=False)
class LieBasis:
    """Orthonormal basis (real inner product Re Tr(A^dag B)) of a matrix
    Lie algebra: elements is a C-contiguous complex (m, N, N) array of
    anti-Hermitian matrices, whose first generator_count span the
    generators."""

    elements: np.ndarray
    generator_count: int

    @property
    def dim_matrix(self) -> int:
        return self.elements.shape[-1]

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class DlaReport:
    """Closure dimension, center/derived dimensions, and per-generator eta."""

    dim: int
    center_dim: int
    derived_dim: int
    eta_per_generator: tuple


def _rows(stack: np.ndarray) -> np.ndarray:
    """Real (m, 2 N^2) view of a C-contiguous complex (m, N, N) stack, in
    which Re Tr(A^dag B) is a dot product and projections are matmuls."""
    return stack.reshape(len(stack), -1).view(np.float64)


def _extend(basis: np.ndarray, m: int, cands: np.ndarray, tol: float) -> int:
    """Append to orthonormal rows basis[:m] the parts of the rows of cands
    outside their span, in order; returns the new row count, or DimCap
    past len(basis) rows. One block projection drops candidates in the
    span; survivors are projected twice, so near-dependent residuals
    survive cancellation."""
    resid = cands - (cands @ basis[:m].T) @ basis[:m]
    for v in resid[np.linalg.norm(resid, axis=1) > tol]:
        for _ in range(2):
            v = v - (basis[:m] @ v) @ basis[:m]
        nrm = float(np.linalg.norm(v))
        if nrm > tol:
            if m == len(basis):
                raise DimCap(f"closure dimension exceeds cap {m}")
            basis[m] = v / nrm
            m += 1
    return m


def lie_closure(generators, tol: float = CLOSURE_TOL) -> LieBasis:
    """Orthonormal basis of the real Lie algebra generated by {i * H_j}.

    Breadth-first bracket search: each accepted element is bracketed with
    the generators only. The final span holds the generators and the
    brackets of each of its rows with them, so it is closed under their
    adjoint action and holds every nested bracket; every accepted row is
    such a bracket. The span does not depend on the generators' scale,
    so each is peak-rescaled first: brackets cannot overflow, and tol is
    relative to each generator. A dimension above min(N^2, MAX_DLA_DIM),
    N^2 being the ambient u(N) bound, raises DimCap, as do a side N above
    MAX_DLA_SIDE and, before the generators are stacked, more than
    MAX_DLA_GENERATOR_ENTRIES generator entries.
    """
    _check_tol(tol)
    gens = require_hermitian_set(generators)
    n = gens[0].shape[0]
    if n > MAX_DLA_SIDE:
        raise DimCap(f"matrix side {n} exceeds {MAX_DLA_SIDE}")
    if len(gens) * n * n > MAX_DLA_GENERATOR_ENTRIES:
        raise DimCap(f"{len(gens)} generators of side {n} exceed the cap of "
                     f"{MAX_DLA_GENERATOR_ENTRIES} matrix entries")

    basis = np.empty((min(n * n, MAX_DLA_DIM), 2 * n * n))
    cube = basis.view(complex).reshape(-1, n, n)
    m = spanned = _extend(basis, 0, _rows(1j * _peak_scaled(np.array(gens))[0]), tol)
    j = 1   # row 0 is a generator row: the others' brackets with it cover its own
    while j < m:
        m = _extend(basis, m, _rows(commutator(cube[:spanned], cube[j])), tol)
        j += 1
    return LieBasis(elements=cube[:m].copy(), generator_count=spanned)


def center_and_derived(g: LieBasis, tol: float = CLOSURE_TOL) -> tuple:
    """Orthonormal bases of the center {X in g : [X, Y] = 0 for all Y} and of
    the derived algebra span{[X, Y] : X, Y in g}, as (k, N, N) arrays: the
    right singular vectors of the generators' adjoint matrix with singular
    value <= tol and > tol. Its rows are (a, k) and its columns i, the X_k
    coordinate of [X_i, X_a] for the G basis elements X_a that span the
    generators, built in chunks of a. As the generators generate g, its
    null space is the center and its row space the orthogonal complement,
    [g, g]. For anti-Hermitian X, Re Tr(X_k^dag X_a X_i) = -Re Tr(X_k^dag
    X_i X_a), so a bracket's coordinates are twice those of the product
    X_i X_a. The SVD is of the m x m triangular factor of the nonzero rows
    (zero rows change nothing), so no (G m) x m left factor is built.
    ValueError for a tol that is not finite and positive."""
    _check_tol(tol)
    m, n, els = len(g), g.dim_matrix, g.elements
    if m > MAX_DLA_DIM:
        raise DimCap(f"algebra dimension {m} exceeds {MAX_DLA_DIM}")
    if not m:
        return els, els
    gens = els[:g.generator_count]
    adj = np.empty((len(gens), m, m))
    step = max(1, _CHUNK // (m * n * n))
    for a in range(0, len(gens), step):
        # stacked [X_0; X_1; ...] times X_a: X_i X_a for every i, a-major
        prods = (els.reshape(m * n, n) @ gens[a:a + step]).reshape(-1, n, n)
        coords = (_rows(prods) @ _rows(els).T).reshape(-1, m, m)
        adj[a:a + step] = 2.0 * coords.transpose(0, 2, 1)
    adj = adj.reshape(-1, m)
    keep = np.any(adj != 0.0, axis=1)
    keep[:m] = True   # at least m rows, so m singular values
    _, svals, vh = np.linalg.svd(np.linalg.qr(adj[keep], mode="r"), full_matrices=False)
    coords = (vh @ _rows(els)).view(complex).reshape(m, n, n)
    small = svals <= tol
    return coords[small], coords[~small]


def eta(g) -> float:
    """Trace concentration |Tr G| / ||G||_F; sqrt(N) iff G is a nonzero
    multiple of the identity, 0 iff G is traceless.

    Evaluated as sqrt(|Tr G|^2 / ||G||_F^2) on a peak-rescaled copy: the
    squared ratio keeps integer cases (identity, Pauli strings) exact and
    the rescale keeps tiny norms away from underflow.
    """
    scaled, peaks = _peak_scaled(require_square(g)[None])
    gs, peak = scaled[0], float(peaks[0])
    if not np.isfinite(peak):
        raise ZeroMatrix("eta is undefined for non-finite matrices")
    if peak == 0.0:
        raise ZeroMatrix("eta is undefined for the zero matrix")
    fro_sq = float(np.real(np.vdot(gs, gs)))   # >= 1 by construction
    if peak * float(np.sqrt(fro_sq)) <= ZERO_FLOOR:
        raise ZeroMatrix("eta is undefined for the zero matrix")
    tr = complex(np.trace(gs))
    return float(np.sqrt((tr.real * tr.real + tr.imag * tr.imag) / fro_sq))


def dla_report(generators, tol: float = CLOSURE_TOL) -> DlaReport:
    """Closure, center, derived dimensions plus eta per generator. eta
    comes first, so a zero generator fails before the closure runs."""
    generators = list(generators)
    etas = tuple(eta(g) for g in generators)
    basis = lie_closure(generators, tol=tol)
    center, derived = center_and_derived(basis, tol)
    return DlaReport(dim=len(basis), center_dim=len(center), derived_dim=len(derived),
                     eta_per_generator=etas)


def pauli_dla_report(labels) -> DlaReport:
    """dla_report of generators that are each a real multiple, of norm above
    ZERO_FLOOR, of one Pauli string, from the strings' upper-case labels of
    one length n: exact, with no matrix built and no tolerance.

    A string is one int s = x | z << n of its symplectic masks. Two strings
    anticommute iff popcount((x1 & z2) ^ (z1 & x2)) is odd, the parity of
    s1 & swap(s2) with swap exchanging the halves; their bracket is then
    +-2i times the string s1 ^ s2, and 0 otherwise. So the algebra is
    spanned by strings, and it is closed as lie_closure closes matrices:
    each accepted string is bracketed with the distinct generator strings
    only, and a dimension above min(N^2, MAX_DLA_DIM) raises DimCap. ad of a
    generator string maps distinct strings to distinct strings, so the
    center is spanned by the strings that commute with every generator, and
    derived = dim - center as g = center + [g, g]. eta is sqrt(N) for the
    identity string and 0 otherwise, as eta gives for these generators.
    """
    labels = list(labels)
    if not labels:
        raise ValueError("need at least one Pauli string")
    n = len(labels[0])
    distinct = list(dict.fromkeys(labels))
    if not n or any(len(s) != n or not set(s) <= set("IXYZ") for s in distinct):
        raise ValueError("Pauli strings must be nonempty words over I, X, Y, Z of one length")
    strings = [int(s.translate(_Z_DIGITS) + s.translate(_X_DIGITS), 2) for s in distinct]
    low = (1 << n) - 1
    gens = [(g, g >> n | (g & low) << n) for g in strings]   # (string, swapped halves)
    cap = min(1 << 2 * n, MAX_DLA_DIM)
    if len(strings) > cap:
        raise DimCap(f"closure dimension exceeds cap {cap}")
    seen = set(strings)
    j = 0
    while j < len(strings):
        for g, swapped in gens:
            prod = strings[j] ^ g
            if (strings[j] & swapped).bit_count() & 1 and prod not in seen:
                if len(strings) == cap:
                    raise DimCap(f"closure dimension exceeds cap {cap}")
                seen.add(prod)
                strings.append(prod)
        j += 1
    center = sum(not any((s & swapped).bit_count() & 1 for _, swapped in gens) for s in strings)
    root, identity = float(np.sqrt(1 << n)), "I" * n
    return DlaReport(dim=len(strings), center_dim=center, derived_dim=len(strings) - center,
                     eta_per_generator=tuple(root if s == identity else 0.0 for s in labels))


def _pauli_terms(expr: str) -> list:
    """(weight, label) terms of a weighted Pauli-string sum, parsed and
    checked as parse_pauli_expr describes, with no matrix built."""
    s = expr.replace(" ", "")
    if not s:
        raise ValueError("empty generator expression")
    # protect exponent signs (1e-3, 2E+5) before splitting on +/-
    s = re.sub(r"([0-9.])[eE]-", r"\1#m", s)
    s = re.sub(r"([0-9.])[eE]\+", r"\1#p", s)
    # nonempty terms joined by single signs
    if not re.fullmatch(r"[+-]?[^+-]+(?:[+-][^+-]+)*", s):
        raise ValueError(f"empty term or stray sign in generator expression {expr!r}")
    terms = []
    for term in re.findall(r"[+-]?[^+-]+", s):
        sign = 1.0
        if term[0] in "+-":
            sign = -1.0 if term[0] == "-" else 1.0
            term = term[1:]
        term = term.replace("#m", "e-").replace("#p", "e+")
        coeff_s, sep, label = term.partition("*")
        if sep:
            coeff = float(coeff_s)
        else:
            coeff, label = 1.0, term
        if 1 << len(label) > MAX_DLA_SIDE:
            raise ValueError(f"term {label!r} acts on {len(label)} qubits; dla takes at most "
                             f"{MAX_DLA_SIDE.bit_length() - 1}")
        terms.append((sign * coeff, label))
    return terms


def parse_pauli_expr(expr: str) -> np.ndarray:
    """Weighted Pauli-string sum, e.g. "0.5*IY + II" or "Z".

    A string whose matrix side would exceed MAX_DLA_SIDE is rejected
    before its matrix is built. Every character must belong to a term: an
    empty term or a stray sign ("X-", "X--Y", "-") is a ValueError.
    """
    return _pauli_sum(_pauli_terms(expr))


def _pauli_sum(terms) -> np.ndarray:
    """Matrix of parsed (weight, label) terms."""
    total = None
    for weight, label in terms:
        mat = weight * pauli_matrix(label)
        if total is not None and total.shape != mat.shape:
            raise ValueError(f"term {label!r} acts on a different qubit count")
        total = mat if total is None else total + mat
    return total


def _single_strings(terms) -> list | None:
    """Upper-case labels when every generator is one Pauli string, all of
    one length, with a finite weight above ZERO_FLOOR in magnitude; None
    sends any other set to the dense path, with its own errors (there eta
    decides whether a tinier weight leaves a nonzero generator). An
    invalid label raises pauli_matrix's error, as the dense path would
    first."""
    if any(len(each) != 1 for each in terms):
        return None
    if not all(math.isfinite(w) and abs(w) > ZERO_FLOOR for ((w, _),) in terms):
        return None
    labels = [_pauli_label(label) for ((_, label),) in terms]
    return labels if len(set(map(len, labels))) == 1 else None


def pauli_expr_report(exprs, tol: float = CLOSURE_TOL) -> DlaReport:
    """dla_report of generators written as parse_pauli_expr sums, e.g.
    ["0.5*IY + II", "IZ"]. A term over MAX_DLA_SIDE, or more than
    MAX_DLA_GENERATOR_ENTRIES entries at the widest term's side, raises
    before any matrix is built. A set that _single_strings admits goes to
    pauli_dla_report, with tol checked but unused."""
    terms = [_pauli_terms(expr) for expr in exprs]
    if not terms:
        raise QspecError("no generator expressions given")
    side = max(1 << len(label) for each in terms for _, label in each)
    if len(terms) * side * side > MAX_DLA_GENERATOR_ENTRIES:
        raise DimCap(f"{len(terms)} generators of side up to {side} exceed the cap of "
                     f"{MAX_DLA_GENERATOR_ENTRIES} matrix entries")
    labels = _single_strings(terms)
    if labels is None:
        return dla_report([_pauli_sum(each) for each in terms], tol=tol)
    _check_tol(tol)
    return pauli_dla_report(labels)
