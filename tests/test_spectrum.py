import tracemalloc

import numpy as np
import pytest

from qspec.linalg import DimMismatch, rng_stream
from qspec.qsim import MAX_QUBITS
from qspec.spectrum import (DEDUP_TOL, MAX_GAP_VALUES, GapSet, NonCommensurate,
                            NormalizedGapSet, _sorted_runs, coverage_radius,
                            coverage_radius_box, envelope, gap_set, normalize_gaps)


def ng(ints):
    return NormalizedGapSet(gamma=1.0, int_gaps=np.array(sorted(ints)))


def test_gap_set_two_levels():
    gs = gap_set([-1.0, 1.0])
    assert np.array_equal(gs.gaps, [-2.0, 0.0, 2.0])
    assert gs.omega_max == 2.0


def test_gap_set_uniform_grid():
    vals = np.linspace(-10.0, 10.0, 8)
    gs = gap_set(vals)
    step = 20.0 / 7.0
    expected = step * np.arange(-7, 8)
    assert gs.omega_max == pytest.approx(20.0, abs=1e-12)
    assert np.allclose(gs.gaps, expected, atol=1e-9)


def test_gap_set_single_point():
    gs = gap_set([5.0])
    assert np.array_equal(gs.gaps, [0.0])
    assert gs.omega_max == 0.0


def test_gap_set_symmetry_and_dedup():
    gen = rng_stream(11)
    for _ in range(20):
        vals = gen.uniform(-3, 3, 6)
        gs = gap_set(vals)
        assert np.array_equal(gs.gaps, -gs.gaps[::-1])
        assert np.all(np.diff(gs.gaps) > 0)
    # values closer than tol merge
    gs = gap_set([0.0, 1.0, 1.0 + 1e-12])
    assert len(gs.gaps) == 3


def test_gap_set_rejects_empty():
    with pytest.raises(DimMismatch):
        gap_set([])


def test_gap_set_value_cap_is_a_full_generator_side():
    assert MAX_GAP_VALUES == 1 << MAX_QUBITS
    assert gap_set(np.arange(64.0)).omega_max == 63.0
    with pytest.raises(DimMismatch, match=f"at most {MAX_GAP_VALUES}"):
        gap_set(np.arange(MAX_GAP_VALUES + 1.0))


@pytest.mark.parametrize("vals", [[0.0, 1e308, 3.0], [1e308, -1e308],
                                  [1e306] + [0.0] * (MAX_GAP_VALUES - 1)])
def test_gap_set_rejects_overflowing_gaps_before_forming_them(vals):
    tracemalloc.start()
    try:
        with pytest.raises(DimMismatch, match="too far apart"):
            gap_set(vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert gap_set([-1e299, 0.0, 1e299]).omega_max == 2e299


def test_cluster_means_match_per_run_mean():
    # oracle: the mean of each run as its own array, as np.split gives them
    gen = rng_stream(71)
    for case in range(200):
        centres = np.sort(gen.uniform(-50.0, 50.0, int(gen.integers(1, 40))))
        counts = gen.integers(1, 6, centres.size)
        vals = np.sort(np.repeat(centres, counts)
                       + gen.uniform(-1.0, 1.0, counts.sum()) * DEDUP_TOL * 0.4)
        splits = np.where(np.diff(vals) > DEDUP_TOL)[0] + 1
        want = [run.mean() for run in np.split(vals, splits)]
        means, starts = _sorted_runs(vals, DEDUP_TOL)
        np.testing.assert_allclose(means, want, rtol=1e-12, atol=0)
        assert np.array_equal(starts, np.concatenate([[0], splits]))
    means, starts = _sorted_runs(np.array([]), DEDUP_TOL)
    assert means.size == 0 and starts.size == 0


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0])
def test_bad_tolerance_rejected(tol):
    with pytest.raises(ValueError, match="finite and positive"):
        gap_set([-1.0, 0.0, 1.0], tol=tol)
    with pytest.raises(ValueError, match="finite and positive"):
        normalize_gaps(gap_set([-1.0, 0.0, 1.0]), tol=tol)


def test_normalize_integer_multiples():
    gs = GapSet(gaps=np.array([-2.0, 0.0, 2.0]), omega_max=2.0)
    ngap = normalize_gaps(gs)
    assert ngap.gamma == pytest.approx(2.0, abs=1e-12)
    assert np.array_equal(ngap.int_gaps, [-1, 0, 1])


def test_normalize_sevenths_grid():
    ngap = normalize_gaps(gap_set(np.linspace(-10.0, 10.0, 8)))
    assert ngap.gamma == pytest.approx(20.0 / 7.0, abs=1e-9)
    assert np.array_equal(ngap.int_gaps, np.arange(-7, 8))


def test_normalize_rejects_irrational_ratio():
    with pytest.raises(NonCommensurate):
        normalize_gaps(gap_set([-np.sqrt(2), -1.0, 0.0, 1.0, np.sqrt(2)]))


def test_normalize_degenerate_spectrum():
    ngap = normalize_gaps(gap_set([3.0]))
    assert ngap.gamma == 1.0
    assert np.array_equal(ngap.int_gaps, [0])


def test_normalize_round_trip_and_scaling():
    gen = rng_stream(12)
    for _ in range(10):
        ints = np.unique(gen.integers(1, 9, 3))
        scale = float(gen.uniform(0.1, 5.0))
        vals = np.concatenate([[0.0], scale * ints])
        gs = gap_set(vals)
        ngap = normalize_gaps(gs)
        assert np.allclose(ngap.gamma * ngap.int_gaps, gs.gaps,
                           atol=1e-9 * max(1.0, gs.omega_max))
        # the integer pattern is scale invariant
        ngap2 = normalize_gaps(gap_set(0.37 * vals))
        assert np.array_equal(ngap.int_gaps, ngap2.int_gaps)
        assert ngap2.gamma == pytest.approx(0.37 * ngap.gamma, rel=1e-9)


def test_coverage_radius_examples():
    full = ng(range(-1, 2))
    assert coverage_radius([full]) == 2.0
    assert coverage_radius([full, full]) == 2.0
    assert coverage_radius([full, full, full]) == 2.0
    assert coverage_radius([ng([0]), ng(range(-5, 6))]) == 1.0
    assert coverage_radius([ng(range(-2, 3))] * 2) == 3.0


def test_coverage_radius_hole_beats_width():
    # {-3, 0, 3} reaches width 3 but misses 1: the hole wins
    assert coverage_radius([ng([-3, 0, 3])]) == 1.0
    assert coverage_radius([ng([-2, -1, 0, 1, 2]), ng([-3, 0, 3])]) == 1.0


def test_coverage_radius_matches_box_scan():
    # brute-force oracle over random gap sets, exact agreement required
    gen = rng_stream(13)
    for _ in range(100):
        d = int(gen.integers(1, 4))
        params = []
        for _ in range(d):
            width = int(gen.integers(0, 5))
            ints = {0}
            for v in range(1, width + 1):
                if gen.random() < 0.65:
                    ints.update((v, -v))
            params.append(ng(ints))
        assert coverage_radius(params) == coverage_radius_box(params)


def test_envelope_norms():
    env = envelope([ng(range(-3, 4)), ng(range(-4, 5))])
    assert env.d == 2
    assert env.k_l2 == 5.0
    assert env.k_l1 == 7.0
    assert env.k_cov == 4.0
    with pytest.raises(DimMismatch):
        envelope([])
