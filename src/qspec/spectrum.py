"""Spectral-gap analysis for circuit generators.

Gap sets (all pairwise eigenvalue differences), commensurate normalization
to an integer lattice, multi-parameter frequency envelopes, and coverage
radii. The accessible frequencies of a parameterized expectation value are
exactly the generator gaps, so these sets describe which Fourier modes a
circuit can reach.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import DimMismatch, QspecError, _check_tol

DEDUP_TOL = 1e-9

# integer gaps larger than this mean the "common scale" found is noise
MAX_INT_GAP = 10 ** 6

# Most eigenvalues per gap set: the side of a 12-qubit generator (qsim.MAX_QUBITS)
MAX_GAP_VALUES = 1 << 12


class NonCommensurate(QspecError):
    """Gap set admits no common scale within tolerance."""


@dataclass(frozen=True, eq=False)
class GapSet:
    """Deduplicated eigenvalue differences, symmetric about 0."""

    gaps: np.ndarray    # sorted ascending, contains 0
    omega_max: float    # largest gap, 0 for a single-point spectrum


@dataclass(frozen=True, eq=False)
class NormalizedGapSet:
    """Gap set expressed as gamma times a symmetric set of integers."""

    gamma: float
    int_gaps: np.ndarray  # sorted integers, contains 0, symmetric


@dataclass(frozen=True, eq=False)
class FrequencyEnvelope:
    """Per-parameter widths combined into truncation radii.

    w_j is the largest integer gap magnitude of parameter j. k_l2 and k_l1
    are the Euclidean and l1 norms of the width vector; k_cov is the
    coverage radius (distance to the nearest unreachable integer point).
    """

    d: int
    k_l2: float
    k_l1: float
    k_cov: float


def _sorted_runs(sorted_vals: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Means and start indices of the runs of sorted values: a run begins at
    the first value and wherever the step from the previous value exceeds tol."""
    starts = np.flatnonzero(np.diff(sorted_vals, prepend=-np.inf) > tol)
    return np.add.reduceat(sorted_vals, starts) / np.diff(starts, append=sorted_vals.size), starts


def gap_set(values, tol: float = DEDUP_TOL) -> GapSet:
    """All pairwise eigenvalue differences, deduplicated at tolerance tol.

    The result always contains 0 and is exactly symmetric about it:
    positive differences are clustered and the negatives mirrored.
    DimMismatch, before any difference is formed, for more than
    MAX_GAP_VALUES values, or when the n^2 differences, each at most
    max - min, could overflow the sum of a cluster.
    """
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size == 0 or not np.all(np.isfinite(vals)):
        raise DimMismatch("need a nonempty finite list of eigenvalues")
    if vals.size > MAX_GAP_VALUES:
        raise DimMismatch(f"at most {MAX_GAP_VALUES} eigenvalues, got {vals.size}")
    with np.errstate(over="ignore"):
        total = (vals.max() - vals.min()) * float(vals.size) ** 2
    if not np.isfinite(total):
        raise DimMismatch(f"eigenvalues from {vals.min():g} to {vals.max():g} are too "
                          f"far apart: sums of their {vals.size}^2 gaps overflow")
    _check_tol(tol)
    diffs = (vals[None, :] - vals[:, None]).ravel()
    pos = _sorted_runs(np.sort(diffs[diffs > tol]), tol)[0]
    gaps = np.concatenate([-pos[::-1], [0.0], pos])
    omega = float(pos[-1]) if pos.size else 0.0
    return GapSet(gaps=gaps, omega_max=omega)


def _real_gcd(a: float, b: float, cutoff: float) -> float:
    """Euclid on reals: remainder loop stops once below the cutoff."""
    while b > cutoff:
        a, b = b, abs(a - b * round(a / b))
    return a


def normalize_gaps(g: GapSet, tol: float = DEDUP_TOL) -> NormalizedGapSet:
    """Extract a common scale gamma so that gaps = gamma * integers.

    gamma is the approximate GCD of the positive gaps. Raises
    NonCommensurate when no scale reproduces the gaps within tolerance or
    the implied integers are implausibly large (the near-zero "gcd" an
    irrational ratio produces). The degenerate single-point spectrum
    normalizes to gamma = 1 with integer gaps {0}.
    """
    _check_tol(tol)
    pos = g.gaps[g.gaps > 0]
    if pos.size == 0:
        return NormalizedGapSet(gamma=1.0, int_gaps=np.array([0]))
    cutoff = tol * max(1.0, g.omega_max)
    gamma = float(pos[0])
    for p in pos[1:]:
        gamma = _real_gcd(gamma, float(p), cutoff)
    if gamma <= cutoff or g.omega_max / gamma > MAX_INT_GAP:
        raise NonCommensurate(
            f"no common scale in [{cutoff:g}, {g.omega_max:g}] reproduces the gaps")
    ints = np.rint(g.gaps / gamma).astype(int)
    if float(np.max(np.abs(g.gaps - gamma * ints))) > cutoff:
        raise NonCommensurate("rounding residual exceeds tolerance")
    return NormalizedGapSet(gamma=gamma, int_gaps=np.unique(ints))


def _width(ng: NormalizedGapSet) -> int:
    return int(np.max(np.abs(ng.int_gaps)))


def _params(per_param) -> tuple:
    params = tuple(per_param)
    if not params:
        raise DimMismatch("need at least one parameter")
    return params


def coverage_radius(per_param) -> float:
    """Smallest Euclidean norm of an integer point outside the product set.

    The reachable set is the product of the per-parameter integer gap
    sets. A missing point has some coordinate that is either a hole inside
    its parameter's range or past the end of it; zeroing every other
    coordinate (0 is always reachable) keeps the point missing and only
    shrinks the norm, so the minimum lies on a coordinate axis and equals
    min over parameters of min(first hole magnitude, width + 1).
    """
    params = _params(per_param)
    best = None
    for ng in params:
        width = _width(ng)
        have = set(int(v) for v in ng.int_gaps)
        escape = width + 1
        for v in range(1, width + 1):
            if v not in have or -v not in have:
                escape = v
                break
        best = escape if best is None else min(best, escape)
    return float(best)


def coverage_radius_box(per_param) -> float:
    """Brute-force coverage radius: scan the box prod [-(w+1), w+1].

    Exact but exponential in the parameter count; kept as an independent
    cross-check for coverage_radius. The nearest missing point has every
    coordinate within its parameter's width + 1, so the box suffices.
    """
    params = _params(per_param)
    sets = [set(int(v) for v in ng.int_gaps) for ng in params]
    ranges = [range(-(_width(ng) + 1), _width(ng) + 2) for ng in params]
    best = None
    for point in itertools.product(*ranges):
        if all(v in s for v, s in zip(point, sets)):
            continue
        norm_sq = sum(v * v for v in point)
        if best is None or norm_sq < best:
            best = norm_sq
    # the box always misses a corner, so best is never None
    return float(np.sqrt(best))


def envelope(per_param) -> FrequencyEnvelope:
    """Combine per-parameter normalized gap sets into truncation radii."""
    params = _params(per_param)
    widths = np.array([_width(ng) for ng in params], dtype=float)
    return FrequencyEnvelope(
        d=len(params),
        k_l2=float(np.sqrt(np.sum(widths ** 2))),
        k_l1=float(np.sum(widths)),
        k_cov=coverage_radius(params),
    )
