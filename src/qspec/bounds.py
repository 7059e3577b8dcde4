"""Sobolev machinery on the d-torus for approximation bounds.

Finite Fourier series with coefficients indexed by integer frequency
vectors, Sobolev norms, truncation errors, the minimax lower bound from
annulus witnesses with its log-log rate fit, the Jackson-type upper bound
over random unit-ball series, and the large-d limit probe.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linalg import QspecError, box_muller, rng_streams

# coefficients below this magnitude are dropped at construction
PRUNE_FLOOR = 1e-300

# Most integer points an annulus scan may visit: (m + 1)^d in the orthant
# [0, m]^d, m = floor(2K), of the box [-m, m]^d holding the annulus K < |s| <= 2K
MAX_ORTHANT_SCAN = 2 ** 24

# Caps of unit_ball_sweep, each sized so that a sweep at it takes at most
# about 10 s and 180 MiB on one core: series (about 60 us each, nearly all
# of it seeding and drawing), random integers drawn (count x modes x d; 0.8 s
# and 152 MiB when one series draws 10^6 distinct ones), (series, K) pairs
# (about 0.1 us each) and coefficients summed by the truncation errors
# (count x len(K) x modes; about 9 ns each)
MAX_SWEEP_SERIES = 5 * 10 ** 4
MAX_SWEEP_DRAWS = 10 ** 6
MAX_SWEEP_RADII = 10 ** 6
MAX_SWEEP_TERMS = 10 ** 9


class DomainError(QspecError):
    """Parameters outside the valid domain (e.g. smoothness r <= d/2)."""


@dataclass(frozen=True)
class SobolevParams:
    """Torus dimension d and smoothness r; requires r > d/2."""

    d: int
    r: float

    def __post_init__(self):
        if int(self.d) < 1:
            raise DomainError("dimension d must be at least 1")
        if not np.isfinite(self.r):
            raise DomainError(f"need a finite smoothness r, got r = {self.r}")
        # r > d/2 compared in integers: d / 2 as a float overflows past about 3.6e308
        num, den = float(self.r).as_integer_ratio()
        if 2 * num <= self.d * den:
            raise DomainError(f"need smoothness r > d/2 at d = {self.d}, got r = {self.r}")


class FourierSeries:
    """Finite Fourier series sum_s b_s e^{i s.x} on the d-torus.

    freqs is an int64 (M, d) array of frequency vectors s in strictly
    increasing lexicographic order, so each appears once; coeffs is the
    complex (M,) array of their b_s. norm_sq holds |s|^2 per row in
    float64, which does not wrap as int64 would past |s| ~ 3e9. Entries
    with |b_s| < PRUNE_FLOOR are dropped at construction.
    """

    __slots__ = ("d", "freqs", "coeffs", "norm_sq")

    def __init__(self, d: int, freqs, coeffs):
        self.d = int(d)
        if self.d < 1:
            raise DomainError("dimension d must be at least 1")
        freqs = np.asarray(freqs, dtype=np.int64)
        coeffs = np.asarray(coeffs, dtype=complex)
        if freqs.ndim != 2 or freqs.shape[1] != self.d or coeffs.shape != freqs.shape[:1]:
            raise DomainError(f"need (M, {self.d}) frequencies and (M,) coefficients, "
                              f"got {freqs.shape} and {coeffs.shape}")
        # each row must exceed the one before it at their first differing entry
        up, down = freqs[1:] > freqs[:-1], freqs[1:] < freqs[:-1]
        if not np.all(np.take_along_axis(up, (up | down).argmax(axis=1)[:, None], axis=1)):
            raise DomainError("frequencies must be distinct and in increasing lexicographic order")
        keep = np.abs(coeffs) >= PRUNE_FLOOR
        self.freqs = freqs[keep]
        self.coeffs = coeffs[keep]
        self.norm_sq = np.einsum("ij,ij->i", self.freqs, self.freqs, dtype=float)

    def evaluate(self, x) -> complex:
        """Pointwise value sum_s b_s e^{i s.x} at a point x in R^d."""
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.d:
            raise DomainError(f"point has length {x.shape[0]}, expected {self.d}")
        return complex(np.sum(self.coeffs * np.exp(1j * (self.freqs @ x))))


def sobolev_norm(h: FourierSeries, r: float) -> float:
    """Weighted l2 norm sqrt(sum (1 + |s|^2)^r |b_s|^2)."""
    if not np.isfinite(r) or r < 0:
        raise DomainError("smoothness r must be finite and nonnegative")
    return float(np.sqrt(np.sum((1.0 + h.norm_sq) ** r * np.abs(h.coeffs) ** 2)))


def truncation_error(h: FourierSeries, k: float) -> float:
    """l2 mass of the coefficients strictly outside the ball |s| <= k."""
    if not np.isfinite(k) or k < 0:
        raise DomainError("truncation radius must be finite and nonnegative")
    k = float(k)   # k * k is inf past about 1.3e154, where k ** 2 raises OverflowError
    return float(np.sqrt(np.sum(np.abs(h.coeffs[h.norm_sq > k * k]) ** 2)))


def _scan_half_side(d: int, k: float) -> int:
    """Half side m = floor(2k) of an annulus scan over the orthant [0, m]^d;
    DomainError past MAX_ORTHANT_SCAN points."""
    m = np.floor(2.0 * k)
    if m < 1:
        return 0
    # (m + 1)^d equals the power-of-two cap only if m + 1 is a power of two,
    # whose log2 is exact, so comparing logarithms decides exactly; nan and inf
    # fail. d stays an int: a float of it overflows past about 1.8e308
    if not d <= math.log2(MAX_ORTHANT_SCAN) / math.log2(m + 1.0):
        raise DomainError(f"the annulus scan for d = {d}, K = {k:g} would visit more "
                          f"than {MAX_ORTHANT_SCAN} orthant points")
    return int(m)


def _annulus_shells(d: int, k: float) -> tuple[np.ndarray, np.ndarray]:
    """|s|^2 and sign multiplicity 2^(nonzero entries of s), int64 (B,) arrays,
    of the integer points s with k < |s| <= 2k in the nonnegative orthant.

    Sign flips of a point's nonzero entries give its multiplicity of
    distinct integer points in the annulus, and each annulus point comes
    from one orthant point. The scan covers [0, m]^d, m = floor(2k), capped
    at MAX_ORTHANT_SCAN points.
    """
    axis = np.arange(_scan_half_side(d, k) + 1)
    q = sum(np.ix_(*[axis ** 2] * d))
    inside = (q > k * k) & (q <= 4.0 * k * k)
    mult = math.prod(np.ix_(*[np.where(axis > 0, 2, 1)] * d))
    return q[inside], mult[inside]


def minimax_lower_curve(p: SobolevParams, k_list) -> tuple[np.ndarray, float, float]:
    """Witness truncation errors over k with a fitted log-log slope.

    Returns (errors, fitted_slope, reference_exponent) where the slope is
    the ordinary least-squares line through (log k, log error) and the
    reference exponent d/2 - r is reported alongside for comparison; the
    measured decay follows -r, not the reference exponent.

    The witness at k is the unit-Sobolev-norm series on the A integer
    points s with k < |s| <= 2k, coefficients A^{-1/2} (1 + |s|^2)^{-r/2}:
    all of it lies outside the ball |s| <= k. Its truncation error is found
    without building it, as a sum over the annulus points in one orthant,
    each weighted by its sign multiplicity, of its squared coefficient.
    Radii go largest first, so DomainError comes before any other work if
    that radius's scan is over MAX_ORTHANT_SCAN. DomainError too if an
    error is 0 because every squared coefficient underflows (its logarithm
    would make the slope nan).
    """
    ks = [float(k) for k in k_list]
    if len(ks) < 3:
        raise DomainError("need at least 3 truncation radii")
    # stated positively so that a nan radius fails it
    if not (ks[0] >= 1 and all(a < b for a, b in zip(ks, ks[1:]))):
        raise DomainError("radii must be strictly increasing and at least 1")
    errors = np.empty(len(ks))
    for j in reversed(range(len(ks))):   # the largest scan first, so an oversized one fails first
        q, mult = _annulus_shells(p.d, ks[j])
        coeffs = 1.0 / np.sqrt(mult.sum()) * (1.0 + q) ** (-p.r / 2)   # the witness's coefficients
        errors[j] = np.sqrt(np.sum(mult * (coeffs * coeffs)))
        if errors[j] == 0.0:
            raise DomainError(f"every squared coefficient of the K = {ks[j]:g} witness underflows "
                              f"at r = {p.r:g}, so its error is 0; use a smaller r or K")
    slope = float(np.polyfit(np.log(ks), np.log(errors), 1)[0])
    return errors, slope, p.d / 2 - p.r


def _jackson_factors(p: SobolevParams, ks) -> list[tuple[float, float]]:
    """((1 + k^2)^{-r/2}, k^{d/2 - r}) per radius k: times a series' Sobolev
    norm, the rigorous Jackson bound on its truncation error at every
    k >= 1 and the looser reference form; DomainError unless every k is
    finite and at least 1."""
    ks = [float(k) for k in ks]
    if not all(np.isfinite(k) and k >= 1 for k in ks):
        raise DomainError("truncation radius k must be at least 1")
    # k * k, not k ** 2: see truncation_error
    return [((1.0 + k * k) ** (-p.r / 2), k ** (p.d / 2 - p.r)) for k in ks]


def limit_probe(pairs) -> np.ndarray:
    """Value of d^{d/2 - r} for (r, d) pairs, computed in log space.

    Probes the large-d behavior of the reference exponent; requires
    r > d/2 for every pair (DomainError otherwise).
    """
    out = []
    for r, d in pairs:
        p = SobolevParams(d=int(d), r=float(r))
        # log-space form stays finite for large d; log(1) = 0 gives 1 at d = 1.
        # np.log takes d as an int64, math.log any int
        log_d = np.log(p.d) if p.d < 2 ** 63 else math.log(p.d)
        out.append(float(np.exp(-(p.r - p.d / 2) * log_d)))
    return np.array(out, dtype=float)


def _draw_unit_ball(p: SobolevParams, max_freq: int, modes: int, seeds):
    """One random series rescaled to unit Sobolev norm per seed s in seeds,
    packed as (coeffs, norm_sq, lengths): series i is the next lengths[i]
    entries of the (T,) coeffs and of the |s|^2 in norm_sq, in increasing
    lexicographic order of frequency s.

    Series s draws `modes` integer frequencies uniformly from
    [-max_freq, max_freq]^d, then complex_gaussians' uniforms for their
    coefficients, from the stream of rng_stream(s), reached through
    rng_streams; one box_muller call maps the uniforms of all series,
    elementwise as per-series calls would. One stable lexsort by (series,
    frequency row) keeps repeats in draw order, so the one np.add.at sums
    each as a per-series np.add.at would. Coefficients below PRUNE_FLOOR
    are dropped before and after the rescaling to sobolev_norm(., r) = 1,
    as FourierSeries builds of the series before and after would drop them.
    """
    if not 0 <= max_freq <= np.iinfo(np.int64).max:
        raise DomainError(f"need 0 <= max_freq <= {np.iinfo(np.int64).max}, got {max_freq}")
    if modes < 1:
        raise DomainError("need modes >= 1")
    count = len(seeds)
    draws = np.empty((count, modes, p.d), dtype=np.int64)
    uniforms = np.empty((2, count, modes))   # (modulus, phase) rows, each contiguous
    for i, gen in enumerate(rng_streams(seeds)):
        draws[i] = gen.integers(-max_freq, max_freq + 1, size=(modes, p.d))
        uniforms[:, i] = gen.random((2, modes))   # complex_gaussians(gen, modes)'s draws
    amps = box_muller(*uniforms)
    draws, series = draws.reshape(-1, p.d), np.repeat(np.arange(count), modes)
    order = np.lexsort([*draws.T[::-1], series])
    draws, series = draws[order], series[order]
    first = np.ones(len(order), dtype=bool)   # first draw of each (series, frequency)
    first[1:] = (series[1:] != series[:-1]) | np.any(draws[1:] != draws[:-1], axis=1)
    coeffs = np.zeros(np.count_nonzero(first), dtype=complex)
    np.add.at(coeffs, np.cumsum(first) - 1, amps.ravel()[order])   # repeats sum in draw order
    keep = np.abs(coeffs) >= PRUNE_FLOOR
    freqs, coeffs, series = draws[first][keep], coeffs[keep], series[first][keep]
    norm_sq = np.einsum("ij,ij->i", freqs, freqs, dtype=float)
    lengths = np.bincount(series, minlength=count)
    scale = _sobolev_norms(norm_sq, coeffs, lengths, p.r)
    if np.any(scale < PRUNE_FLOOR):
        raise DomainError("degenerate draw: zero Sobolev norm")
    coeffs = coeffs / np.repeat(scale, lengths)
    keep = np.abs(coeffs) >= PRUNE_FLOOR
    return coeffs[keep], norm_sq[keep], np.bincount(series[keep], minlength=count)


def _sobolev_norms(norm_sq, coeffs, lengths, r) -> np.ndarray:
    """sobolev_norm of each packed series (see _draw_unit_ball), bit for bit."""
    return np.sqrt(_run_sums((1.0 + norm_sq) ** r * np.abs(coeffs) ** 2, lengths))


def _run_sums(values, lengths) -> np.ndarray:
    """Sum of each run of a float (T,) array, run i holding the next
    lengths[i] entries, equal bit for bit to np.sum of the run alone.

    The runs of each length are copied into one (runs, length) array and
    summed along rows, which pairs terms as np.sum of one run does; zero
    padding to a common length would change that pairing.
    """
    out = np.zeros(len(lengths))
    starts, low = np.cumsum(lengths) - lengths, lengths.min()
    for n in np.flatnonzero(np.bincount(lengths - low)) + low:
        if n:   # an empty run sums to 0.0
            runs = np.flatnonzero(lengths == n)
            out[runs] = sliding_window_view(values, n)[starts[runs]].sum(axis=1)
    return out


def unit_ball_sweep(p: SobolevParams, ks, count: int, max_freq: int, modes: int,
                    seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(errors, rigorous, reference), float (count, len(ks)) arrays: [i, j]
    holds the truncation error at radius ks[j] of series i, the unit-ball
    draw of seed + i (see _draw_unit_ball), and its Sobolev norm times the
    _jackson_factors at ks[j], bit for bit as truncation_error and
    sobolev_norm give them. DomainError, before the first draw, for
    count < 1, an empty ks, a radius below 1 or not finite, or a sweep over
    one of the MAX_SWEEP_* caps.

    All series are drawn and reduced together: each radius costs one pass
    over the packed coefficients, whatever the count.
    """
    ks = [float(k) for k in ks]
    count, modes = int(count), int(modes)
    if count < 1 or not ks:
        raise DomainError("need count >= 1 and at least one K")
    work = ((count, MAX_SWEEP_SERIES, "series"),
            (count * modes * p.d, MAX_SWEEP_DRAWS, "drawn integers (count x modes x d)"),
            (count * len(ks), MAX_SWEEP_RADII, "(series, K) pairs"),
            (count * len(ks) * modes, MAX_SWEEP_TERMS, "summed terms (count x K x modes)"))
    for value, cap, what in work:
        if value > cap:
            raise DomainError(f"the sweep needs {value} {what}; the cap is {cap}")
    factors = np.array(_jackson_factors(p, ks))
    coeffs, norm_sq, lengths = _draw_unit_ball(p, max_freq, modes, range(seed, seed + count))
    norms = _sobolev_norms(norm_sq, coeffs, lengths, p.r)
    squares, ends = np.abs(coeffs) ** 2, np.cumsum(lengths)
    errors = np.empty((count, len(ks)))
    for j, k in enumerate(ks):
        outside = np.flatnonzero(norm_sq > k * k)   # as in truncation_error
        hits = np.diff(np.searchsorted(outside, ends), prepend=0)
        errors[:, j] = np.sqrt(_run_sums(squares[outside], hits))
    return errors, norms[:, None] * factors[:, 0], norms[:, None] * factors[:, 1]
