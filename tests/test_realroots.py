import math

import numpy as np
import pytest

from ptwell import (
    FIGURE_PARAMETERS,
    BracketingError,
    InvalidModelError,
    ScanConfig,
    WellParameters,
    compute_spectrum,
    gap_statistics,
    refine_root,
    resolve_cluster,
    scan_brackets,
)
from ptwell.realroots import SuspiciousSite, _brent, _local_envelope, _window_medians
from conftest import params


class TestScanConfig:
    def test_defaults_are_valid(self):
        cfg = ScanConfig(kappa_max=10.0)
        assert cfg.kappa_min == 1e-3
        assert cfg.cluster_threshold == 0.1

    @pytest.mark.parametrize(
        "kw",
        [
            dict(kappa_max=1.0, kappa_min=2.0),
            dict(kappa_max=10.0, kappa_min=0.0),
            dict(kappa_max=10.0, samples_per_unit=4),
            dict(kappa_max=10.0, refine_tol=1e-3),
            dict(kappa_max=10.0, refine_tol=0.0),
            dict(kappa_max=10.0, cluster_threshold=1.5),
        ],
    )
    def test_invalid_configs_rejected(self, kw):
        with pytest.raises(InvalidModelError):
            ScanConfig(**kw)

    def test_density_scales_with_coupling(self):
        cfg = ScanConfig(kappa_max=10.0)
        weak = cfg.effective_density(WellParameters(0.5, 0.0, 0.0))
        strong = cfg.effective_density(WellParameters(0.5, 15000.0, 0.0))
        assert weak == 64
        assert strong > 8 * weak


class TestScanBrackets:
    def test_bare_well_brackets_at_half_pi_lattice(self, bare_box):
        brackets, sites = scan_brackets(bare_box, ScanConfig(kappa_max=10.0, kappa_min=0.1))
        assert len(sites) == 0
        assert len(brackets) == 6  # n pi/2 for n = 1..6 below 10
        for n, (lo, hi) in enumerate(brackets, start=1):
            assert lo < n * math.pi / 2 < hi

    def test_figure1_bracket_count_matches_bare_well(self, fig1, bare_box):
        cfg = ScanConfig(kappa_max=15.0, kappa_min=0.1)
        b1, _ = scan_brackets(fig1, cfg)
        b0, _ = scan_brackets(bare_box, cfg)
        assert len(b1) == len(b0) == 9

    def test_figure6_regime_has_suspicious_sites(self, fig6):
        # the near-double roots at m pi/(1-a) do not resolve into sign
        # changes at any feasible grid and must surface as suspicious dips
        brackets, sites = scan_brackets(fig6, ScanConfig(kappa_max=11.0, kappa_min=4.0))
        assert len(sites) >= 2
        centers = sorted(s.kappa_at_min for s in sites)
        assert any(abs(c - math.pi / 0.65) < 1e-2 for c in centers)
        assert any(abs(c - 2 * math.pi / 0.65) < 1e-2 for c in centers)

    def test_degenerate_interval_rejected(self, bare_box):
        with pytest.raises(InvalidModelError):
            scan_brackets(bare_box, ScanConfig(kappa_max=1.0001e-3, kappa_min=1e-3))

    @pytest.mark.parametrize("n, window", [(1, 4), (7, 3), (50, 4), (50, 49), (50, 80), (300, 17)])
    def test_local_envelope_matches_naive_running_max(self, n, window):
        absf = np.abs(np.random.default_rng(n + window).standard_normal(n))
        naive = [absf[max(0, i - window) : i + window + 1].max() for i in range(n)]
        assert _local_envelope(absf, window).tolist() == naive


class TestRefineRoot:
    def test_bare_well_half_pi(self, bare_box):
        root = refine_root(bare_box, (1.5, 1.6), 1e-12)
        assert root == pytest.approx(math.pi / 2, abs=1e-12)

    def test_bare_well_pi(self, bare_box):
        root = refine_root(bare_box, (3.0, 3.2), 1e-12)
        assert root == pytest.approx(math.pi, abs=1e-12)

    def test_figure1_first_root_stable_under_density(self, fig1):
        cfg = ScanConfig(kappa_max=3.0, kappa_min=0.5)
        (lo, hi), _ = scan_brackets(fig1, cfg)[0][0], None
        root = refine_root(fig1, (lo, hi), 1e-10)
        cfg2 = ScanConfig(kappa_max=3.0, kappa_min=0.5, samples_per_unit=128)
        (lo2, hi2) = scan_brackets(fig1, cfg2)[0][0]
        root2 = refine_root(fig1, (lo2, hi2), 1e-10)
        assert root == pytest.approx(1.6113159577100156, abs=1e-9)
        assert abs(root - root2) < 1e-9

    def test_no_sign_change_raises(self, bare_box):
        with pytest.raises(BracketingError):
            refine_root(bare_box, (1.0, 1.2), 1e-10)

    def test_brent_iteration_budget(self):
        with pytest.raises(BracketingError):
            _brent(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)


class TestResolveCluster:
    def test_lifted_dip_reports_no_roots(self, bare_box):
        # F = sin(2 kappa) stays near 1 on (0.7, 0.87): no sign change and a
        # minimum far above the zero floor, so the site holds no roots
        site = SuspiciousSite(
            kappa_lo=0.7,
            kappa_hi=0.87,
            kappa_at_min=0.7,
            f_at_min=math.sin(1.4),
            local_scale=1.0,
            refined_spacing=0.17 / 512,
        )
        assert resolve_cluster(bare_box, site) == []

    def test_figure6_site_resolves_to_pair(self, fig6):
        _, sites = scan_brackets(fig6, ScanConfig(kappa_max=5.5, kappa_min=4.0))
        assert len(sites) == 1
        roots = resolve_cluster(fig6, sites[0])
        assert len(roots) == 2
        assert all(flag == "quasi-degenerate-pair-member" for _, flag in roots)
        k1, k2 = roots[0][0], roots[1][0]
        assert k2 > k1
        center = math.pi / 0.65 * (1 + 1.0 / (0.65 * 15000.0**2))
        assert 0.5 * (k1 + k2) == pytest.approx(center, abs=1e-6)

    def test_figure7_resolvable_pair_matches_reference_gap(self):
        # pair gap frozen from a 60-digit independent computation; the scan's
        # local densification resolves this one into ordinary sign changes
        p = params(7)
        rep = compute_spectrum(p, ScanConfig(kappa_max=34.5, kappa_min=33.0))
        near = [r for r in rep.levels if abs(r.kappa - 33.8348) < 1e-2]
        assert len(near) == 2
        gap = near[1].kappa - near[0].kappa
        assert gap == pytest.approx(5.67544e-6, rel=1e-3)
        assert near[0].kappa == pytest.approx(33.83484649936022, abs=1e-8)
        assert near[1].kappa == pytest.approx(33.83485217479815, abs=1e-8)

    def test_overwide_window_yields_regular_roots(self, fig6):
        # a window that happens to span two separate spectral structures must
        # not invent a quasi-degenerate pair out of distant crossings
        site = SuspiciousSite(
            kappa_lo=4.0,
            kappa_hi=10.5,
            kappa_at_min=4.8332,
            f_at_min=1.0,
            local_scale=1e15,
            refined_spacing=1e-3,
        )
        roots = resolve_cluster(fig6, site)
        assert len(roots) == 2
        assert all(flag == "regular" for _, flag in roots)
        assert roots[0][0] == pytest.approx(4.487989562, abs=1e-6)
        assert roots[1][0] == pytest.approx(8.975979124, abs=1e-6)

    def test_inconsistent_winding_escalates(self, fig6, monkeypatch):
        import ptwell.complexroots as cr
        from ptwell import ClusterError

        _, sites = scan_brackets(fig6, ScanConfig(kappa_max=5.5, kappa_min=4.0))

        def fake_winding(p, region, **kw):
            return cr.ZeroCount(
                region=region, winding=4, samples_used=0, boundary_min_modulus=1.0
            )

        monkeypatch.setattr(cr, "winding_count", fake_winding)
        with pytest.raises(ClusterError):
            resolve_cluster(fig6, sites[0])

    def test_resolver_splits_resolvable_pair_from_raw_site(self):
        # hand the resolver the raw dip window; its internal dense scan must
        # find both sign changes and return the same reference pair
        p = params(7)
        site = SuspiciousSite(
            kappa_lo=33.8335,
            kappa_hi=33.8365,
            kappa_at_min=33.8348,
            f_at_min=1.0,
            local_scale=1e6,
            refined_spacing=1e-5,
        )
        roots = resolve_cluster(p, site)
        assert len(roots) == 2
        assert roots[0][0] == pytest.approx(33.83484649936022, abs=1e-8)
        assert roots[1][0] - roots[0][0] == pytest.approx(5.67544e-6, rel=1e-3)


class TestComputeSpectrum:
    def test_bare_well_lattice(self, bare_box):
        rep = compute_spectrum(bare_box, ScanConfig(kappa_max=20.0, kappa_min=0.1))
        assert len(rep.levels) == 12
        for r in rep.levels:
            assert r.kappa == pytest.approx(r.n * math.pi / 2, abs=1e-11)
            assert r.residual < 1e-11
            assert r.energy == r.kappa**2

    def test_figure1_weak_perturbation(self, fig1):
        rep = compute_spectrum(fig1, ScanConfig(kappa_max=15.0))
        assert len(rep.levels) == 9
        for r in rep.levels:
            assert abs(r.kappa - r.n * math.pi / 2) < math.pi / 4

    def test_monotone_with_positive_gaps(self, fig6):
        rep = compute_spectrum(fig6, ScanConfig(kappa_max=12.0))
        kappas = rep.kappas()
        assert np.all(np.diff(kappas) > 0)
        for r in rep.levels[1:]:
            assert r.gap_prev is not None and r.gap_prev > 0

    def test_figure6_pairs_flagged(self, fig6):
        rep = compute_spectrum(fig6, ScanConfig(kappa_max=12.0))
        flags = [r.flag for r in rep.levels]
        assert flags.count("quasi-degenerate-pair-member") == 4  # two pairs below 12
        assert len(rep.levels) == 6

    def test_density_doubling_stability(self):
        # doubling samples_per_unit changes no root by more than 10 * tol
        for fig in (1, 5, 7):
            p = params(fig)
            base = compute_spectrum(p, ScanConfig(kappa_max=20.0, refine_tol=1e-12))
            fine = compute_spectrum(
                p, ScanConfig(kappa_max=20.0, refine_tol=1e-12, samples_per_unit=128)
            )
            assert len(base.levels) == len(fine.levels)
            for r1, r2 in zip(base.levels, fine.levels):
                if r1.flag == "regular":
                    assert abs(r1.kappa - r2.kappa) <= 1e-11

    def test_residual_envelope_bound(self, fig5):
        from ptwell.secular import secular_scale

        rep = compute_spectrum(fig5, ScanConfig(kappa_max=15.0))
        for r in rep.levels:
            assert r.residual <= 1e-8 * (1.0 + secular_scale(fig5, r.kappa))

    def test_negative_levels_near_hermitian_binding(self):
        # omega = 3 binds a near-degenerate doublet at tau ~ omega^2/2 in the
        # Hermitian limit; small eta keeps it real (values frozen from an
        # independent high-precision scan of Im F(i tau))
        p = WellParameters(0.5, 3.0, 0.05)
        rep = compute_spectrum(p, ScanConfig(kappa_max=5.0), include_negative=True)
        taus = [r.kappa for r in rep.negative_levels]
        assert len(taus) == 2
        assert taus[0] == pytest.approx(4.396421612121911, rel=1e-8)
        assert taus[1] == pytest.approx(4.49222105567573, rel=1e-8)
        assert rep.negative_levels[0].energy == pytest.approx(-19.32852299153262, rel=1e-8)
        assert all(r.flag == "negative-energy" for r in rep.negative_levels)

    def test_bare_well_has_no_negative_levels(self, bare_box):
        rep = compute_spectrum(bare_box, ScanConfig(kappa_max=5.0), include_negative=True)
        assert rep.negative_levels == ()

    def test_strong_conjugate_pair_does_not_bind_real_levels(self):
        # the tau scan finds no sign change at (0.95, 15000, 20): the
        # Hermitian doublet at tau ~ omega^2/2 is split into a complex pair
        # by eta, invisible on the imaginary axis
        p = params(2)
        rep = compute_spectrum(p, ScanConfig(kappa_max=3.0), include_negative=True)
        assert rep.negative_levels == ()

    def test_determinism_across_runs(self, fig1):
        cfg = ScanConfig(kappa_max=15.0)
        rep1 = compute_spectrum(fig1, cfg)
        rep2 = compute_spectrum(fig1, cfg)
        assert [r.kappa for r in rep1.levels] == [r.kappa for r in rep2.levels]
        assert [r.residual for r in rep1.levels] == [r.residual for r in rep2.levels]

    def test_eta_sign_gives_identical_spectrum(self):
        cfg = ScanConfig(kappa_max=15.0)
        rep_p = compute_spectrum(WellParameters(0.65, 150.0, 20.0), cfg)
        rep_m = compute_spectrum(WellParameters(0.65, 150.0, -20.0), cfg)
        assert [r.kappa for r in rep_p.levels] == [r.kappa for r in rep_m.levels]

    @pytest.mark.parametrize("fig", [2, 3, 4, 6])
    def test_strong_coupling_level_count_matches_lattice(self, fig):
        # at omega = 15000 the interactions act as near-Dirichlet walls: the
        # spectrum is the n pi/(2a) lattice plus a quasi-degenerate pair at
        # every m pi/(1-a); counts follow from the two lattices
        p = params(fig)
        kappa_max = 60.0
        rep = compute_spectrum(p, ScanConfig(kappa_max=kappa_max))
        n_single = math.floor(kappa_max * 2 * p.a / math.pi)
        n_pairs = math.floor(kappa_max * (1 - p.a) / math.pi)
        assert len(rep.levels) == n_single + 2 * n_pairs
        flags = [r.flag for r in rep.levels]
        assert flags.count("quasi-degenerate-pair-member") == 2 * n_pairs


class TestQuasiDegenerateGaps:
    @pytest.mark.parametrize("n", [1, 3, 7, 8, 9, 40])
    def test_window_medians_match_numpy_median(self, n):
        gaps = np.random.default_rng(n).exponential(size=n)
        naive = [np.median(gaps[max(0, i - 4) : i + 4]) for i in range(n)]
        assert _window_medians(gaps).tolist() == naive

    def test_spectrum_flags_both_levels_of_every_listed_pair(self):
        # a per-level rule (gap below 0.1 of the mean of six nearby gaps)
        # flagged only level 12 of the pair at kappa ~ 38.23 here
        p = WellParameters(0.46029408969787067, 0.10093289254171338, 47.4033930344634)
        rep = compute_spectrum(p, ScanConfig(kappa_max=40.0))
        assert rep.levels[11].flag == rep.levels[12].flag == "quasi-degenerate-pair-member"
        reports = [rep] + [
            compute_spectrum(WellParameters(a, omega, eta), ScanConfig(kappa_max=k_hi))
            for a, omega, eta, (_, k_hi) in FIGURE_PARAMETERS.values()
        ]
        for r in reports:
            for n, m, _ in gap_statistics(r).quasi_degenerate_pairs:
                assert r.levels[n - 1].flag == "quasi-degenerate-pair-member"
                assert r.levels[m - 1].flag == "quasi-degenerate-pair-member"
