import itertools
import tracemalloc

import numpy as np
import pytest

from qspec import bounds
from qspec.bounds import (MAX_ORTHANT_SCAN, MAX_SWEEP_DRAWS, MAX_SWEEP_RADII, MAX_SWEEP_SERIES,
                          MAX_SWEEP_TERMS, PRUNE_FLOOR, DomainError, FourierSeries,
                          SobolevParams, limit_probe, minimax_lower_curve, sobolev_norm,
                          truncation_error, unit_ball_sweep)
from qspec.linalg import box_muller, complex_gaussians, rng_stream


def series_from_dict(d, coeffs):
    """FourierSeries from a dict of integer tuples, rows in sorted order."""
    keys = sorted(coeffs)
    return FourierSeries(d, np.array(keys, dtype=np.int64).reshape(-1, d),
                         [coeffs[s] for s in keys])


def random_series(d, max_freq, modes, seed):
    gen = rng_stream(seed)
    coeffs = {}
    for _ in range(modes):
        s = tuple(int(v) for v in gen.integers(-max_freq, max_freq + 1, d))
        coeffs[s] = complex(gen.normal(), gen.normal())
    return series_from_dict(d, coeffs)


def scan_annulus(d, k):
    """Oracle: the integer points with k < |s| <= 2k, by a plain scan of the
    box [-floor(2k), floor(2k)]^d in lexicographic order."""
    m = int(np.floor(2.0 * k))
    return [s for s in itertools.product(range(-m, m + 1), repeat=d)
            if k * k < sum(v * v for v in s) <= 4.0 * k * k]


def witness(p, k):
    """Oracle: the unit-Sobolev-norm series on the annulus k < |s| <= 2k,
    coefficients |A|^{-1/2} (1 + |s|^2)^{-r/2} over its points A."""
    pts = np.array(scan_annulus(p.d, k), dtype=np.int64).reshape(-1, p.d)
    q = np.einsum("ij,ij->i", pts, pts)
    return FourierSeries(p.d, pts, 1.0 / np.sqrt(len(pts)) * (1.0 + q) ** (-p.r / 2))


def jackson_pairs(h, p, ks):
    """Oracle: the rigorous and reference Jackson bounds of series h per radius."""
    w = sobolev_norm(h, p.r)
    return [((1.0 + k * k) ** (-p.r / 2) * w, k ** (p.d / 2 - p.r) * w) for k in ks]


def grid_l2_norm(series, points_per_dim):
    """Parseval oracle: root mean square of the series on a uniform grid.

    For a grid with more points per dimension than twice the maximum
    frequency, the discrete mean of |f|^2 equals sum |b_s|^2 exactly.
    """
    axes = [np.arange(points_per_dim) * 2 * np.pi / points_per_dim] * series.d
    total = 0.0
    for x in itertools.product(*axes):
        total += abs(series.evaluate(x)) ** 2
    return float(np.sqrt(total / points_per_dim ** series.d))


def test_sobolev_norm_single_mode_example():
    h = FourierSeries(3, [[1, 1, 1]], [1.0])  # |s|^2 = 3, r = 1
    assert sobolev_norm(h, 1.0) == pytest.approx(2.0, abs=1e-15)


def test_sobolev_norm_zero_smoothness_is_parseval():
    for seed in range(5):
        h = random_series(1, max_freq=6, modes=8, seed=100 + seed)
        grid = grid_l2_norm(h, points_per_dim=14)  # 14 >= 2*6 + 2
        assert sobolev_norm(h, 0.0) == pytest.approx(grid, abs=1e-8)
    h2 = random_series(2, max_freq=3, modes=6, seed=200)
    assert sobolev_norm(h2, 0.0) == pytest.approx(grid_l2_norm(h2, 8), abs=1e-8)


def test_truncation_is_least_squares_error():
    # the best band-limited approximation is the projection, so its error
    # equals the tail mass; verify against an explicit least-squares fit
    for d, max_freq, grid_n, k in ((1, 6, 16, 3.0), (2, 3, 8, 2.0)):
        h = random_series(d, max_freq, modes=7, seed=300 + d)
        axes = [np.arange(grid_n) * 2 * np.pi / grid_n] * d
        points = list(itertools.product(*axes))
        fvals = np.array([h.evaluate(x) for x in points])
        modes = [s for s in itertools.product(range(-max_freq, max_freq + 1), repeat=d)
                 if sum(v * v for v in s) <= k * k]
        design = np.array([[np.exp(1j * np.dot(s, x)) for s in modes] for x in points])
        fit, *_ = np.linalg.lstsq(design, fvals, rcond=None)
        resid = fvals - design @ fit
        ls_error = np.sqrt(np.mean(np.abs(resid) ** 2))
        assert truncation_error(h, k) == pytest.approx(ls_error, abs=1e-8)


def test_truncation_strict_boundary():
    h = FourierSeries(1, [[2], [3]], [1.0, 1.0])
    # |s| = 2 is NOT outside the ball of radius 2
    assert truncation_error(h, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert truncation_error(h, 1.9) == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert truncation_error(h, 3.0) == 0.0


def test_annulus_points_d1_unit():
    # the annulus 1 < |s| <= 2 holds s = -2 and 2: one orthant point of sign multiplicity 2
    q, mult = bounds._annulus_shells(1, 1.0)
    assert (q.tolist(), mult.tolist()) == ([4], [2])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_annulus_points_match_scan(d):
    # the orthant's |s|^2, each repeated by its sign multiplicity, are those of
    # the whole annulus: integer radii, non-integer radii, and radii whose 2k
    # is an integer norm |s| = 2k (the closed outer boundary): 2.5 -> |(5, 0)| = |(3, 4)|
    for k in (1.0, 1.3, 1.5, 2.0, 2.5, 2.75, 3.0):
        if (2 * int(np.floor(2 * k)) + 1) ** d > 20000:
            continue
        q, mult = bounds._annulus_shells(d, k)
        assert q.dtype == mult.dtype == np.int64
        assert sorted(np.repeat(q, mult).tolist()) == sorted(sum(v * v for v in s)
                                                            for s in scan_annulus(d, k))
    assert all(len(a) == 0 for a in bounds._annulus_shells(d, 0.4))


def test_lower_curve_scan_cap_checked_before_allocating():
    tracemalloc.start()
    try:
        for k in (300000.0, 1e308, float("inf")):
            with pytest.raises(DomainError, match="orthant points"):
                minimax_lower_curve(SobolevParams(3, 2.0), [1.0, 2.0, k])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    # the CLI default K = 4..64 fits at d = 3
    assert (128 + 1) ** 3 <= MAX_ORTHANT_SCAN


def test_orthant_scan_cap_is_exact():
    # the orthant [0, m]^d has (m + 1)^d points; a power-of-two count equal
    # to the cap is admitted, one more point is not
    assert MAX_ORTHANT_SCAN == 2 ** 24
    assert bounds._scan_half_side(1, (2 ** 24 - 1) / 2) == 2 ** 24 - 1
    assert bounds._scan_half_side(24, 0.5) == 1
    for d, k in ((1, 2.0 ** 23), (25, 0.5), (3, 150.0)):
        with pytest.raises(DomainError, match=f"more than {MAX_ORTHANT_SCAN} orthant points"):
            bounds._scan_half_side(d, k)
    # the cap counts orthant points, not box points: 201^3 of them, against 401^3
    assert bounds._scan_half_side(3, 100.0) == 200
    assert 201 ** 3 <= MAX_ORTHANT_SCAN < 401 ** 3


def test_lower_curve_checks_largest_scan_first(monkeypatch):
    shells, scans = bounds._annulus_shells, []
    monkeypatch.setattr(bounds, "_annulus_shells", lambda d, k: scans.append(k) or shells(d, k))
    for ks in ([1.0, 2.0, 300000.0], [4.0, 8.0, 1e308], [4.0, 8.0, float("inf")]):
        scans.clear()
        with pytest.raises(DomainError, match="orthant points"):
            minimax_lower_curve(SobolevParams(3, 2.0), ks)
        assert scans == ks[-1:]   # the one scan attempted is the oversized one


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_lower_curve_matches_the_witness_oracle(d):
    # radii whose box fits, 2.5 among them: |(5, 0)| = |(3, 4)| = 2K on the closed boundary
    ks = [k for k in (1.0, 1.3, 2.5, 2.75, 4.0, 8.0) if (2 * np.floor(2 * k) + 1) ** d <= 10 ** 5]
    q = np.array([sum(v * v for v in s) for s in scan_annulus(d, ks[-1])])
    # a square below about 2^-1075 rounds to 0; aim that at the middle of the largest annulus
    edge = 1075 * np.log(2.0) / np.log(1.0 + (q.min() + q.max()) / 2)
    # the largest witness's coefficients before it prunes: some square to 0, not all
    coeffs = 1.0 / np.sqrt(len(q)) * (1.0 + q) ** (-edge / 2)
    assert 0 < np.count_nonzero(coeffs * coeffs == 0.0) < len(q)
    for r in (d / 2 + 0.01, 2.0, edge):
        if r <= d / 2:
            continue
        p = SobolevParams(d, r)
        errors, _, _ = minimax_lower_curve(p, ks)
        exact = [truncation_error(witness(p, k), k) for k in ks]
        assert np.allclose(errors, exact, rtol=1e-14, atol=0.0), (d, r)


def test_lower_curve_memory_stays_small():
    # the dense scan of the box [-128, 128]^3 behind K = 64 peaked at 755 MiB
    tracemalloc.start()
    try:
        minimax_lower_curve(SobolevParams(3, 2.0), [4.0, 8.0, 16.0, 32.0, 64.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 << 20, peak


def test_annulus_counts_scale_with_volume():
    # |A_K| / K^d stays within constant brackets across K and d
    brackets = {1: (1.5, 2.5), 2: (8.0, 11.0), 3: (27.0, 31.0)}
    for d in (1, 2, 3):
        lo, hi = brackets[d]
        for k in (4.0, 8.0, 16.0):
            m = int(np.floor(2 * k))
            ax = np.arange(-m, m + 1)
            grids = np.meshgrid(*([ax] * d), indexing="ij")
            q = sum(g * g for g in grids)
            count = int(np.count_nonzero((q > k * k) & (q <= 4 * k * k)))
            assert count == bounds._annulus_shells(d, k)[1].sum()
            assert lo <= count / k ** d <= hi


def test_witness_has_unit_sobolev_norm():
    for d, r, k in ((1, 2.0, 1.0), (1, 2.0, 16.0), (2, 2.0, 8.0), (3, 2.5, 4.0)):
        w = witness(SobolevParams(d, r), k)
        assert sobolev_norm(w, r) == pytest.approx(1.0, abs=1e-12)
        # support lies strictly inside the annulus
        q = np.sum(w.freqs ** 2, axis=1)
        assert np.array_equal(q, w.norm_sq)
        assert np.all((k * k < q) & (q <= 4 * k * k))


def test_witness_d1_unit_radius_amplitude():
    w = witness(SobolevParams(1, 2.0), 1.0)
    assert w.freqs.tolist() == [[-2], [2]]
    expected = (1.0 / np.sqrt(2.0)) * (1.0 + 4.0) ** -1.0
    assert w.coeffs[1] == pytest.approx(expected, abs=1e-15)


def test_lower_curve_frozen_slopes():
    errors1, slope1, ref1 = minimax_lower_curve(SobolevParams(1, 2.0),
                                                [4.0, 8.0, 16.0, 32.0, 64.0])
    assert np.all(np.diff(errors1) < 0)
    assert slope1 == pytest.approx(-1.9235383459448987, abs=1e-12)
    assert ref1 == -1.5
    errors2, slope2, ref2 = minimax_lower_curve(SobolevParams(2, 2.0),
                                                [4.0, 8.0, 16.0, 32.0])
    assert np.all(np.diff(errors2) < 0)
    assert slope2 == pytest.approx(-1.9935026675203993, abs=1e-12)
    assert ref2 == -1.0


def test_lower_curve_validates_radii():
    p = SobolevParams(1, 2.0)
    with pytest.raises(DomainError):
        minimax_lower_curve(p, [4.0, 8.0])
    with pytest.raises(DomainError):
        minimax_lower_curve(p, [4.0, 8.0, 8.0])
    with pytest.raises(DomainError):
        minimax_lower_curve(p, [0.5, 1.0, 2.0])
    with pytest.raises(DomainError):
        minimax_lower_curve(p, [4.0, float("nan"), 16.0])


def test_jackson_unit_ball_example():
    # on a unit-norm series the bounds are the factors themselves
    p = SobolevParams(1, 2.0)
    [(rigorous, reference)] = bounds._jackson_factors(p, [4.0])
    assert sobolev_norm(witness(p, 4.0), p.r) == pytest.approx(1.0, abs=1e-12)
    assert rigorous == pytest.approx(1.0 / 17.0, abs=1e-12)
    assert reference == pytest.approx(4.0 ** -1.5, abs=1e-12)


def test_jackson_dominates_truncation():
    params = SobolevParams(2, 2.0)
    ks = [float(k) for k in range(1, 9)]
    errors, rigorous, _ = unit_ball_sweep(params, ks, 10, max_freq=8, modes=12, seed=400)
    for seed in range(10):
        h, _ = reference_unit_ball_series(params, 8, 12, 400 + seed)
        assert sobolev_norm(h, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert np.all(errors <= rigorous + 1e-12)
    assert np.all(np.diff(errors, axis=1) <= 1e-15)


def test_sobolev_params_domain():
    with pytest.raises(DomainError):
        SobolevParams(4, 2.0)  # r <= d/2
    with pytest.raises(DomainError):
        SobolevParams(0, 1.0)


def test_limit_probe_examples():
    vals = limit_probe([(4.0, 4), (2.5, 1), (52.0, 100)])
    assert vals[0] == pytest.approx(1.0 / 16.0, abs=1e-15)
    assert vals[1] == 1.0
    assert vals[2] == pytest.approx(1e-4, rel=1e-12)
    with pytest.raises(DomainError):
        limit_probe([(1.0, 4)])


def test_random_unit_ball_series_deterministic():
    p, ks = SobolevParams(2, 2.0), [1.0, 2.0, 4.0, 8.0]
    a = unit_ball_sweep(p, ks, 1, 8, 12, seed=5)
    b = unit_ball_sweep(p, ks, 1, 8, 12, seed=5)
    c = unit_ball_sweep(p, ks, 1, 8, 12, seed=6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])


def test_random_unit_ball_series_merges_repeats():
    # 9 frequencies for 200 draws: every frequency repeats many times
    for d, max_freq, modes, r in ((2, 1, 200, 2.0), (1, 2, 50, 1.0), (3, 1, 40, 2.0)):
        p = SobolevParams(d, r)
        gen = rng_stream(7)
        draws = gen.integers(-max_freq, max_freq + 1, size=(modes, d))
        amps = complex_gaussians(gen, modes)
        merged = {}
        for row, a in zip(draws, amps):
            s = tuple(int(v) for v in row)
            merged[s] = merged.get(s, 0j) + complex(a)
        scale = np.sqrt(sum((1.0 + sum(v * v for v in s)) ** r * abs(b) ** 2
                            for s, b in merged.items()))
        h, _ = reference_unit_ball_series(p, max_freq, modes, seed=7)
        keys = sorted(s for s, b in merged.items() if abs(b) >= PRUNE_FLOOR)
        assert h.freqs.tolist() == [list(s) for s in keys]
        want = np.array([merged[s] / scale for s in keys])
        assert np.allclose(h.coeffs, want, rtol=1e-13, atol=0)
        assert sobolev_norm(h, r) == pytest.approx(1.0, abs=1e-12)
        # and so is the sweep's series of seed 7
        ks = [1.0, 1.5, 2.0, 2.5]
        errors, _, _ = unit_ball_sweep(p, ks, 1, max_freq, modes, seed=7)
        merged_h = series_from_dict(d, {s: merged[s] / scale for s in keys})
        want = [truncation_error(merged_h, k) for k in ks]
        assert np.allclose(errors[0], want, rtol=1e-13, atol=0)


def test_series_prunes_negligible_coefficients():
    h = FourierSeries(1, [[0], [1], [2]], [1.0, 0.0, 1e-301])
    assert h.freqs.tolist() == [[0]] and h.coeffs.tolist() == [1.0]
    assert h.norm_sq.tolist() == [0]


def test_series_norm_of_large_frequencies():
    # |s|^2 = 2^64 + 2^62 would wrap in int64
    h = FourierSeries(2, [[2 ** 31, 2 ** 32]], [1.0])
    assert h.norm_sq.tolist() == [2.0 ** 64 + 2.0 ** 62]
    assert truncation_error(h, 2.0 ** 32) == 1.0
    assert truncation_error(h, 2.0 ** 33) == 0.0


def test_series_rejects_bad_shape_and_order():
    FourierSeries(2, [[-1, 5], [0, -3], [0, 2]], [1.0, 1.0, 1.0])
    FourierSeries(2, np.empty((0, 2)), [])
    bad = [
        ([[0]], [1.0]),                      # frequency of length 1 at d = 2
        ([0, 1], [1.0, 1.0]),                # not an (M, d) array
        ([[0, 1], [0, 2]], [1.0]),           # coefficient count differs
        ([[0, 2], [0, 1]], [1.0, 1.0]),      # decreasing
        ([[1, -5], [0, 5]], [1.0, 1.0]),     # decreasing in the first entry
        ([[0, 1], [0, 1]], [1.0, 1.0]),      # repeated
        ([[0, 1], [1, 0], [1, 0]], [1.0, 1.0, 1.0]),
    ]
    for freqs, coeffs in bad:
        with pytest.raises(DomainError):
            FourierSeries(2, freqs, coeffs)


def test_lower_curve_rejects_underflow_exactly_when_a_witness_error_is_zero():
    # oracle: build every witness and look for a zero truncation error
    gen = rng_stream(2024)
    outcomes = set()
    for _ in range(300):
        d = int(gen.integers(1, 4))
        # smoothness around the underflow edge of radii 1..6: (1 + |s|^2)^-r near 1e-324
        p = SobolevParams(d, float(gen.uniform(d / 2 + 0.01, 700.0)))
        ks = sorted(set(float(k) for k in gen.choice([1, 1.5, 2, 2.5, 3, 4, 5, 6], size=3)))
        if len(ks) < 3:
            continue
        brute = any(truncation_error(witness(p, k), k) == 0.0 for k in ks)
        try:
            minimax_lower_curve(p, ks)
            rejected = False
        except DomainError as exc:
            assert "underflows" in str(exc)
            rejected = True
        assert rejected == brute, (d, p.r, ks)
        outcomes.add(brute)
    assert outcomes == {False, True}   # both verdicts occur


def per_seed_draws(seeds, max_freq, modes, d):
    """The integers and uniforms that _draw_unit_ball takes from each seed's
    stream, drawn one seed at a time by numpy's Generator, as the
    (count, modes x d) and (count, 2 modes) arrays _stream_draws returns."""
    ints, uniforms = [], []
    for seed in seeds:
        gen = rng_stream(seed)
        ints.append(gen.integers(-max_freq, max_freq + 1, size=(modes, d)).ravel())
        uniforms.append(gen.random((2, modes)).ravel())
    return np.array(ints), np.array(uniforms)


DRAW_RANGES = [0, 1, 8, 10 ** 9, 2 ** 31 - 1, 2 ** 31, 2 ** 62, 2 ** 63 - 1]
DRAW_SEEDS = [*range(-3, 30), *range(2 ** 64 - 3, 2 ** 64 + 3)]   # negative, and across 2^64


@pytest.mark.parametrize("max_freq", DRAW_RANGES)
@pytest.mark.parametrize("d, modes", [(1, 1), (1, 25), (2, 12), (3, 7)])
def test_stream_draws_match_per_seed_generator_calls(max_freq, d, modes):
    ints, uniforms = bounds._stream_draws(DRAW_SEEDS, max_freq, modes * d, 2 * modes)
    want_ints, want_uniforms = per_seed_draws(DRAW_SEEDS, max_freq, modes, d)
    assert ints.dtype == np.int64 and uniforms.dtype == float
    assert np.array_equal(ints, want_ints) and np.array_equal(uniforms, want_uniforms)


@pytest.mark.parametrize("max_freq, share", [(10 ** 9, 0.07), (2 ** 30, 0.5), (2 ** 62, 0.5)])
def test_stream_draws_reject_as_often_as_lemire_predicts(max_freq, share):
    """These spans reject a large share of draws, 2^w mod span over 2^w, and
    each rejected draw moves the stream on as numpy's Generator moves it."""
    span, w = 2 * max_freq + 1, 32 if max_freq < 2 ** 31 else 64
    assert abs(2 ** w % span / 2 ** w - share) < 0.01
    seeds = range(5, 25)
    ints, uniforms = bounds._stream_draws(seeds, max_freq, 300, 4)
    want_ints, want_uniforms = per_seed_draws(seeds, max_freq, 2, 150)
    assert np.array_equal(ints, want_ints) and np.array_equal(uniforms, want_uniforms)


@pytest.mark.parametrize("span", [3, 17, 2 * 10 ** 9 + 1, 2 ** 32 - 1, 2 ** 32 + 1, 2 ** 63 + 1,
                                  2 ** 64 - 1])
def test_bounded_draws_reject_exactly_below_the_threshold(span):
    """_bounded_draws against numpy's Lemire step in Python integers, on
    draws whose low product word is just below, at and just above the
    threshold 2^w mod span (found through the inverse of span mod 2^w),
    and on random ones."""
    w = 32 if span <= 2 ** 32 else 64
    threshold = 2 ** w % span
    draws = [t * pow(span, -1, 2 ** w) % 2 ** w for t in (threshold - 1, threshold, threshold + 1)]
    draws += rng_stream(span % 1000).integers(0, 2 ** w, 13, dtype=np.uint64, endpoint=False).tolist()
    if w == 32:   # two draws per word, the low half first
        words = [lo | hi << 32 for lo, hi in zip(draws[::2], draws[1::2])]
    else:
        words = draws
    ok, value = bounds._bounded_draws(np.array([words], dtype=np.uint64), span)
    assert ok.ravel().tolist() == [x * span % 2 ** w >= threshold for x in draws]
    assert value.ravel().tolist() == [x * span >> w for x in draws]
    assert ok.ravel().tolist()[:3] == [False, True, True]


@pytest.mark.parametrize("chunk", [1, 2, 5])
@pytest.mark.parametrize("max_freq, count, modes, d", [
    (8, 50, 12, 2), (10 ** 9, 30, 40, 1), (2 ** 62, 9, 7, 3), (0, 7, 3, 2), (10 ** 9, 1, 301, 1),
])
def test_stream_draws_in_chunks_equal_one_pass(monkeypatch, chunk, max_freq, count, modes, d):
    seeds = range(40, 40 + count)
    whole = bounds._stream_draws(seeds, max_freq, modes * d, 2 * modes)
    monkeypatch.setattr(bounds, "DRAW_CHUNK_BLOCKS", chunk)
    chunked = bounds._stream_draws(seeds, max_freq, modes * d, 2 * modes)
    assert all(np.array_equal(a, b) for a, b in zip(chunked, whole))


def reference_unit_ball_series(p, max_freq, modes, seed):
    """The draw one series at a time: np.unique merges the repeats and two
    FourierSeries builds prune. Returns the series and its term counts as
    drawn, after the first prune and after the second. The amplitudes are
    complex_gaussians' draws mapped by box_muller as read from qspec.bounds,
    so a patched one serves both sides."""
    gen = rng_stream(seed)
    draws = gen.integers(-max_freq, max_freq + 1, size=(modes, p.d))
    amps = bounds.box_muller(gen.random(modes), gen.random(modes))
    freqs, slot = np.unique(draws, axis=0, return_inverse=True)
    coeffs = np.zeros(len(freqs), dtype=complex)
    np.add.at(coeffs, slot.ravel(), amps)
    h = FourierSeries(p.d, freqs, coeffs)
    g = FourierSeries(p.d, h.freqs, h.coeffs / sobolev_norm(h, p.r))
    return g, (len(freqs), len(h.freqs), len(g.freqs))


def tiny_box_muller(radial, phase):
    """box_muller with every fourth mode of a series below PRUNE_FLOOR and
    the next one just above it, so that rescaling by a norm above 3 prunes it."""
    amps = box_muller(radial, phase)
    amps[..., ::4] *= 1e-301
    amps[..., 1::4] *= 3e-300 / np.abs(amps[..., 1::4])
    return amps


def test_box_muller_on_stacked_uniforms_matches_per_series_draws():
    # _draw_unit_ball's layout: one row of each series' uniforms per role
    for modes in (12, 37):
        uniforms = np.empty((2, 1000, modes))
        for i in range(1000):
            uniforms[:, i] = rng_stream(70 + i).random((2, modes))
        want = [complex_gaussians(rng_stream(70 + i), modes) for i in range(1000)]
        assert np.array_equal(box_muller(*uniforms), want)


@pytest.mark.parametrize("d, max_freq, modes, tiny", [
    (2, 5, 9, False), (2, 1, 200, False), (3, 1, 40, False), (1, 2, 50, False), (2, 50, 40, True),
    (1, 10 ** 9, 31, False),
], ids=["d2-modes9", "d2-modes200-repeats", "d3-modes40-repeats", "d1-modes50-repeats",
        "d2-modes40-pruned", "d1-modes31-rejecting"])
def test_unit_ball_sweep_matches_per_series_calls(monkeypatch, d, max_freq, modes, tiny):
    if tiny:
        monkeypatch.setattr(bounds, "box_muller", tiny_box_muller)
    p = SobolevParams(d, 2.0)
    ks = [1.0, 2.5, 4.0, 9.0, 1e200]   # 1e200 * 1e200 overflows to inf
    errors, rigorous, reference = unit_ball_sweep(p, ks, 6, max_freq, modes, seed=31)
    assert errors.shape == rigorous.shape == reference.shape == (6, 5)
    terms = []
    for i in range(6):
        want, counts = reference_unit_ball_series(p, max_freq, modes, 31 + i)
        assert errors[i].tolist() == [truncation_error(want, k) for k in ks]
        # exact: the same expressions times one norm
        assert list(zip(rigorous[i], reference[i])) == jackson_pairs(want, p, ks)
        terms.append(counts)
    drawn, first, second = np.array(terms).T
    if (2 * max_freq + 1) ** d < modes:   # more draws than frequencies: repeats merge
        assert np.all(drawn < modes)
    # the pruned config drops terms at both prunes, the others at neither
    assert (np.any(first < drawn), np.any(second < first)) == (tiny, tiny)


@pytest.mark.parametrize("seed", [2 ** 64 - 3, -2], ids=["across-2^64", "negative"])
def test_unit_ball_sweep_wraps_seeds_as_rng_stream_does(seed):
    p, ks = SobolevParams(2, 2.0), [1.0, 2.5, 4.0, 9.0]
    errors, rigorous, reference = unit_ball_sweep(p, ks, 6, 8, 12, seed=seed)
    for i in range(6):
        want, _ = reference_unit_ball_series(p, 8, 12, seed + i)
        assert errors[i].tolist() == [truncation_error(want, k) for k in ks]
        assert list(zip(rigorous[i], reference[i])) == jackson_pairs(want, p, ks)


def test_unit_ball_sweep_rejects_a_degenerate_draw(monkeypatch):
    monkeypatch.setattr(bounds, "box_muller", lambda radial, phase: np.zeros(radial.shape, complex))
    with pytest.raises(DomainError, match="degenerate draw"):
        unit_ball_sweep(SobolevParams(2, 2.0), [1.0, 2.0], 3, 8, 12, seed=0)


@pytest.mark.parametrize("count, ks, modes, d", [
    (MAX_SWEEP_SERIES + 1, [1.0], 1, 1),
    (1, [1.0], MAX_SWEEP_DRAWS // 2 + 1, 2),
    (2, [1.0 + k for k in range(MAX_SWEEP_RADII // 2 + 1)], 1, 1),
    (1, [1.0] * 1000, MAX_SWEEP_TERMS // 1000 + 1, 1),
    (0, [1.0], 1, 1),
    (1, [], 1, 1),
    (3, [2.0, 0.5], 12, 2),
    (3, [float("nan")], 12, 2),
    (3, [4.0, float("inf")], 12, 2),
])
def test_unit_ball_sweep_caps_reject_before_drawing(monkeypatch, count, ks, modes, d):
    def never(*args):
        raise AssertionError("a series was drawn")
    monkeypatch.setattr(bounds, "_stream_draws", never)
    with pytest.raises(DomainError):
        unit_ball_sweep(SobolevParams(d, 2.0), ks, count, 8, modes, seed=0)


def test_unit_ball_sweep_caps_admit_their_limits(monkeypatch):
    class Drawn(Exception):
        pass

    def drawn(*args):
        raise Drawn
    monkeypatch.setattr(bounds, "_stream_draws", drawn)
    for count, ks, modes, d in ((MAX_SWEEP_SERIES, [1.0], 1, 1),
                                (1, [1.0], MAX_SWEEP_DRAWS // 2, 2),
                                (1, [1.0] * 1000, MAX_SWEEP_TERMS // 1000, 1)):
        with pytest.raises(Drawn):
            unit_ball_sweep(SobolevParams(d, 2.0), ks, count, 8, modes, seed=0)
    # the CLI default (20 series) and the benchmark's 1000, each of 12 modes at d = 2
    # and 8 radii, stay at least 40 times inside every cap
    for count in (20, 1000):
        assert 40 * count <= MAX_SWEEP_SERIES and 40 * count * 12 * 2 <= MAX_SWEEP_DRAWS
        assert 40 * count * 8 <= MAX_SWEEP_RADII and 40 * count * 8 * 12 <= MAX_SWEEP_TERMS
