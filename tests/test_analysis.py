import math

import numpy as np
import pytest

from ptwell import (
    InsufficientDataError,
    InvalidModelError,
    ScanConfig,
    WellParameters,
    beat_period,
    compute_spectrum,
    figure_data,
    gap_statistics,
    trace_envelope,
)
from conftest import params


class TestEnvelope:
    def test_bare_well_envelope_is_flat(self, bare_box):
        trace = trace_envelope(bare_box, (0.1, 30.0))
        heights = trace.maxima[:, 1]
        assert np.allclose(heights, 1.0, atol=1e-6)
        assert len(trace.envelope_extrema) == 0

    def test_too_few_maxima_rejected(self, bare_box):
        with pytest.raises(InsufficientDataError):
            trace_envelope(bare_box, (0.1, 2.0))

    def test_maxima_and_minima_interleave(self):
        trace = trace_envelope(params(3), (5.0, 60.0))
        ks = sorted(
            [(k, "M") for k, _ in trace.maxima] + [(k, "m") for k, _ in trace.minima]
        )
        kinds = [t[1] for t in ks]
        assert all(k1 != k2 for k1, k2 in zip(kinds, kinds[1:]))

    def test_figure2_overall_decrease(self):
        # strong coupling: the maxima curve trends downward across the window
        trace = trace_envelope(params(2), (5.0, 60.0))
        heights = trace.maxima[:, 1]
        assert heights[-1] < 0.25 * heights[0]


class TestBeatPeriod:
    def test_flat_envelope_has_no_beats(self, bare_box):
        trace = trace_envelope(bare_box, (0.1, 30.0))
        with pytest.raises(InsufficientDataError):
            beat_period(trace)

    def test_beats_shorten_when_wells_approach(self):
        # reference periods: the slow factor sin^2(kappa (1-a)) beats with
        # period ~pi/(1-a): 62.8 for regime 2 and 20.9 for regime 3.  The
        # window must span several beats for regime 2.
        trace2 = trace_envelope(params(2), (5.0, 200.0))
        trace3 = trace_envelope(params(3), (5.0, 200.0))
        beats2 = beat_period(trace2)
        beats3 = beat_period(trace3)
        assert beats3.mean < beats2.mean
        assert beats2.mean == pytest.approx(math.pi / 0.05, rel=0.05)
        assert beats3.mean == pytest.approx(math.pi / 0.15, rel=0.10)
        assert beats2.std / beats2.mean < 0.5
        assert beats3.std / beats3.mean < 0.5

    def test_figure4_has_competing_spacings(self):
        # overlapping beat families show up as alternating crest-trough
        # spacings (3.2 vs 5.6 at this window); same-kind pooling averages
        # the alternation away, so the scatter of *successive* extremum
        # spacings is the discriminating statistic
        def all_kind_scatter(fig):
            trace = trace_envelope(params(fig), (5.0, 60.0))
            ks = np.array([e[0] for e in trace.envelope_extrema])
            sp = np.diff(ks)
            return float(sp.std() / sp.mean())

        scatter4 = all_kind_scatter(4)
        scatter3 = all_kind_scatter(3)
        assert scatter4 > 0.15
        assert scatter4 > 1.5 * scatter3


class TestGapStatistics:
    def test_bare_well_uniform_gaps(self, bare_box):
        rep = compute_spectrum(bare_box, ScanConfig(kappa_max=20.0, kappa_min=0.1))
        stats = gap_statistics(rep, threshold=0.1)
        assert stats.quasi_degenerate_pairs == ()
        assert stats.median_gap == pytest.approx(math.pi / 2, rel=1e-9)

    def test_figure6_flags_pairs(self, fig6):
        rep = compute_spectrum(fig6, ScanConfig(kappa_max=40.0))
        stats = gap_statistics(rep, threshold=0.1)
        assert len(stats.quasi_degenerate_pairs) >= 1
        for n, m, ratio in stats.quasi_degenerate_pairs:
            assert m == n + 1
            assert ratio < 0.1

    def test_figure1_flags_nothing(self, fig1):
        rep = compute_spectrum(fig1, ScanConfig(kappa_max=15.0))
        stats = gap_statistics(rep, threshold=0.1)
        assert stats.quasi_degenerate_pairs == ()

    def test_too_few_levels_rejected(self):
        with pytest.raises(InsufficientDataError):
            gap_statistics([1.0, 2.0, 3.0])

    def test_default_threshold_is_the_reports(self):
        # the gap ratio of levels 12 and 13 here is 0.078: above the report's
        # cluster_threshold of 0.05, below the plain-sequence default of 0.1
        p = WellParameters(0.46029408969787067, 0.10093289254171338, 47.4033930344634)
        rep = compute_spectrum(p, ScanConfig(kappa_max=40.0, cluster_threshold=0.05))
        assert all(r.flag == "regular" for r in rep.levels)
        assert gap_statistics(rep).quasi_degenerate_pairs == ()
        assert [pair[:2] for pair in gap_statistics(rep.kappas()).quasi_degenerate_pairs] == [(12, 13)]


class TestFigureData:
    def test_invalid_id_rejected(self):
        with pytest.raises(InvalidModelError):
            figure_data(8)

    def test_figure1_regular_oscillation(self):
        ds = figure_data(1)
        assert ds.kappa_range == (1e-3, 15.0)
        assert len(ds.report.levels) == 9
        # amplitude near 1 with small slow variation
        assert np.max(np.abs(ds.f_values)) < 2.6
        assert ds.envelope is None  # fewer than 8 maxima on (0, 15)

    def test_figure2_amplitude_growth(self):
        ds1 = figure_data(1)
        ds2 = figure_data(2, kappa_max=15.0)
        window1 = np.abs(ds1.f_values[ds1.kappa_grid > 5.0])
        window2 = np.abs(ds2.f_values[ds2.kappa_grid > 5.0])
        assert np.mean(window2) > 1e2 * np.mean(window1)

    def test_figure6_dataset_flags_pairs(self):
        ds = figure_data(6, kappa_max=40.0)
        assert ds.gaps is not None
        assert len(ds.gaps.quasi_degenerate_pairs) >= 1

    def test_roots_lie_between_adjacent_extrema(self):
        ds = figure_data(5, kappa_max=30.0)
        ext = np.sort(
            np.concatenate([ds.envelope.maxima[:, 0], ds.envelope.minima[:, 0]])
        )
        for r in ds.report.levels:
            if r.flag != "regular":
                continue  # pair members sit inside a single dip
            if not ext[0] < r.kappa < ext[-1]:
                continue  # window truncation: no surrounding extrema recorded
            i = np.searchsorted(ext, r.kappa)
            assert 0 < i < ext.size  # bracketed by an adjacent max/min pair

    def test_eta_is_irrelevant_at_strong_coupling(self):
        # quantifies the weak eta-dependence at omega^4 >> eta^2
        base = params(2)
        p0 = WellParameters(base.a, base.omega, 0.0)
        cfg = ScanConfig(kappa_max=60.0)
        k_eta = compute_spectrum(base, cfg).kappas()
        k_0 = compute_spectrum(p0, cfg).kappas()
        assert k_eta.size == k_0.size
        rel = np.abs(k_eta - k_0) / k_eta
        assert np.max(rel) < 1e-6

    def test_determinism(self):
        ds_a = figure_data(1)
        ds_b = figure_data(1)
        assert np.array_equal(ds_a.f_values, ds_b.f_values)
        assert [r.kappa for r in ds_a.report.levels] == [r.kappa for r in ds_b.report.levels]
