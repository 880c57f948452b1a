import cmath
import math

import numpy as np
import pytest

from ptwell import (
    InvalidModelError,
    LevelJumpError,
    RegularizedProblem,
    ScanConfig,
    WellParameters,
    compute_spectrum,
    convergence_study,
    integrate_ode,
    shoot_eigenvalue,
)
from ptwell.oracle import _shoot, _shoot_with_derivative
from ptwell.realroots import find_level
from conftest import params


def _rp(p, sigma):
    return RegularizedProblem(parameters=p, sigma=sigma, grid_step=sigma / 10.0)


class TestRegularizedProblem:
    def test_wide_bump_rejected(self, bare_box):
        with pytest.raises(InvalidModelError):
            RegularizedProblem(parameters=bare_box, sigma=0.2, grid_step=0.002)

    def test_coarse_step_rejected(self, bare_box):
        with pytest.raises(InvalidModelError):
            RegularizedProblem(parameters=bare_box, sigma=1e-3, grid_step=5e-4)


class TestIntegrate:
    def test_bare_well_eigenvalue_gives_node_at_wall(self, bare_box):
        rp = _rp(bare_box, 1e-3)
        shot = _shoot(rp, (math.pi / 2) ** 2)
        assert shot.end_ratio < 1e-7

    def test_bare_well_non_eigenvalue_does_not(self, bare_box):
        rp = _rp(bare_box, 1e-3)
        shot = _shoot(rp, 2.0)
        assert shot.end_ratio > 1e-2

    def test_integrate_returns_end_value(self, bare_box):
        # bare box: psi = sin(sqrt(E)(x+1))/sqrt(E), so psi(1) has a closed form
        rp = _rp(bare_box, 1e-3)
        e = 2.0
        expected = math.sin(2.0 * math.sqrt(e)) / math.sqrt(e)
        assert complex(integrate_ode(rp, e)).real == pytest.approx(expected, rel=1e-9)

    def test_overflow_guard_renormalizes(self, bare_box):
        # deeply negative energy: psi ~ sinh(tau (x+1)) blows past 1e100 and
        # the renormalization keeps the state finite; the scale-invariant end
        # ratio says the trajectory peaks at the far wall
        rp = _rp(bare_box, 4e-3)
        shot = _shoot(rp, -250_000.0)
        assert shot.log_scale > 0
        assert math.isfinite(abs(shot.psi_end))
        assert shot.end_ratio == pytest.approx(1.0, rel=1e-6)
        assert abs(integrate_ode(rp, -250_000.0)) == math.inf


class TestShoot:
    def test_bare_well_ground_state(self, bare_box):
        e = shoot_eigenvalue(_rp(bare_box, 1e-3), 2.4)
        assert e.real == pytest.approx((math.pi / 2) ** 2, rel=1e-9)
        assert abs(e.imag) < 1e-12

    def test_bare_well_second_level(self, bare_box):
        e = shoot_eigenvalue(_rp(bare_box, 1e-3), 9.5)
        assert e.real == pytest.approx(math.pi**2, rel=1e-9)

    def test_complex_seed_converges_to_real_eigenvalue(self, fig1):
        # reality corroboration: the search is free to roam the complex plane
        rep = compute_spectrum(fig1, ScanConfig(kappa_max=5.0))
        e_match = rep.levels[0].energy
        e = shoot_eigenvalue(_rp(fig1, 1e-3), e_match + 0.1j)
        assert abs(e.imag) < 1e-6 * abs(e)
        assert e.real == pytest.approx(e_match, rel=1e-3)

    def test_level_jump_reported(self, bare_box):
        # seed far from any level with a tight spacing guard
        with pytest.raises(LevelJumpError):
            shoot_eigenvalue(_rp(bare_box, 2e-3), 6.0, level_spacing=2.0)

    def test_figure1_first_level_matches_and_improves(self, fig1):
        rep = compute_spectrum(fig1, ScanConfig(kappa_max=5.0))
        e_match = rep.levels[0].energy
        e_coarse = shoot_eigenvalue(_rp(fig1, 1e-3), e_match)
        e_fine = shoot_eigenvalue(_rp(fig1, 5e-4), e_match)
        err_coarse = abs(e_coarse - e_match)
        err_fine = abs(e_fine - e_match)
        assert err_coarse / e_match < 1e-2
        assert abs(e_coarse.imag) < 1e-6 * abs(e_coarse)
        assert err_fine < err_coarse

    def test_step_halving_is_high_order(self, bare_box):
        # fixed sigma, halved h: the discretization error drops by ~2^4
        p = WellParameters(0.5, 2.0, 1.0)
        sigma = 4e-3
        e_ref = shoot_eigenvalue(
            RegularizedProblem(parameters=p, sigma=sigma, grid_step=sigma / 80), 2.3
        )
        e_h = shoot_eigenvalue(
            RegularizedProblem(parameters=p, sigma=sigma, grid_step=sigma / 10), 2.3
        )
        e_h2 = shoot_eigenvalue(
            RegularizedProblem(parameters=p, sigma=sigma, grid_step=sigma / 20), 2.3
        )
        err_h = abs(e_h - e_ref)
        err_h2 = abs(e_h2 - e_ref)
        assert err_h2 < err_h / 8.0


class TestConvergenceStudy:
    def test_bare_well_is_sigma_independent(self, bare_box):
        study = convergence_study(bare_box, 1, [4e-3, 2e-3])
        es = [row.energy.real for row in study.rows]
        assert es[0] == pytest.approx(es[1], rel=1e-10)
        assert study.monotone

    def test_figure1_errors_decrease(self, fig1):
        study = convergence_study(fig1, 1, [4e-3, 2e-3, 1e-3])
        deltas = [row.delta_to_matching for row in study.rows]
        assert deltas[2] < deltas[0]
        assert study.monotone
        # Richardson extrapolation lands closer than the coarsest sigma
        assert abs(study.extrapolated - study.matching_energy) < deltas[0]

    def test_increasing_sigmas_rejected(self, bare_box):
        with pytest.raises(InvalidModelError):
            convergence_study(bare_box, 1, [1e-3, 2e-3])


def _full_grid_psi1(rp, energy):
    """psi(1) by classical RK4 over every node of the box (no windows).

    The reference the windowed shot must reproduce: V on the whole
    half-step grid, fixed step h, no renormalization (the energies used
    here keep psi far from overflow).
    """
    p = rp.parameters
    n = int(round(2.0 / rp.grid_step))
    h = 2.0 / n
    x = -1.0 + 0.5 * h * np.arange(2 * n + 1)
    peak = 1.0 / (rp.sigma * math.sqrt(2.0 * math.pi))
    v = complex(-p.omega_sq, -p.eta) * peak * np.exp(-0.5 * ((x + p.a) / rp.sigma) ** 2)
    v = v + complex(-p.omega_sq, p.eta) * peak * np.exp(-0.5 * ((x - p.a) / rp.sigma) ** 2)
    v = [complex(c) for c in v]
    e = complex(energy)
    u, w = 0j, 1.0 + 0j
    for j in range(n):
        v0, vh, v1 = v[2 * j], v[2 * j + 1], v[2 * j + 2]
        k1u, k1w = w, (v0 - e) * u
        u2 = u + 0.5 * h * k1u
        k2u, k2w = w + 0.5 * h * k1w, (vh - e) * u2
        u3 = u + 0.5 * h * k2u
        k3u, k3w = w + 0.5 * h * k2w, (vh - e) * u3
        u4 = u + h * k3u
        k4u, k4w = w + h * k3w, (v1 - e) * u4
        u = u + h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        w = w + h / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
    return u


class TestWindowedShot:
    @pytest.mark.parametrize(
        "p, sigma",
        [
            (params(1), 1e-3),
            # 12 sigma = 0.15 > a: the two RK4 windows merge into one
            (WellParameters(0.1, 1.5, 20.0), 0.1 / 8.0),
        ],
    )
    @pytest.mark.parametrize("energy", [2.0, 3.3 + 0.1j])
    def test_matches_full_grid_rk4(self, p, sigma, energy):
        rp = _rp(p, sigma)
        shot = _shoot(rp, energy)
        psi1 = shot.psi_end * math.exp(shot.log_scale)
        ref = _full_grid_psi1(rp, energy)
        assert abs(psi1 - ref) < 1e-10 * abs(ref)

    @pytest.mark.parametrize("energy", [3.3 + 0.1j, -7.5])
    def test_analytic_energy_derivative(self, fig1, energy):
        rp = _rp(fig1, 1e-3)
        shot, dpsi_de = _shoot_with_derivative(rp, energy)
        analytic = dpsi_de * math.exp(shot.log_scale)
        d = 1e-5 * (1.0 + abs(energy))
        central = (integrate_ode(rp, energy + d) - integrate_ode(rp, energy - d)) / (2.0 * d)
        assert abs(analytic - central) < 1e-6 * abs(central)

    def test_deep_negative_energy_stays_finite(self, bare_box):
        # k L ~ 1e4 i: cos(kL) alone would overflow (cmath raises, numpy
        # gives inf - inf = nan); the scaled exponentials move it to log_scale
        with pytest.raises(OverflowError):
            cmath.cos(1e4j)
        rp = _rp(bare_box, 1e-3)
        shot = _shoot(rp, -1e8)
        assert math.isfinite(abs(shot.psi_end))
        assert shot.log_scale > 700
        assert shot.end_ratio == pytest.approx(1.0, rel=1e-6)
        assert abs(integrate_ode(rp, -1e8)) == math.inf

    def test_cost_is_independent_of_sigma(self, fig1):
        # sigma = 1e-6 needs 2 million full-grid steps; the windowed shot
        # converges in milliseconds and sits near the delta limit
        study = convergence_study(fig1, 1, [1e-5, 1e-6])
        last = study.rows[-1]
        assert abs(last.energy - study.matching_energy) < 1e-6 * study.matching_energy


class TestFirstOrderExtrapolation:
    def test_weak_coupling_extrapolates_to_matching(self):
        # the regularization shift is first order in sigma here: 2.1% at
        # sigma = 5e-4; a second-order Richardson step leaves 1.4e-2
        p = WellParameters(0.8296105766465718, 2.5267820407827446, 0.480298010834726)
        study = convergence_study(p, 1, [1e-3, 5e-4])
        e_match = study.matching_energy
        assert abs(study.extrapolated - e_match) < 1e-3 * e_match


class TestRegime5Pair:
    def test_level_four_is_a_conjugate_pair(self, fig5):
        """At sigma = 1e-7 the oracle sees regime 5's fourth level as E, E*.

        The first-order shift is then ~1e-4, below the pair's split, and
        shots from E4 +- 2e-5 i converge to 80.58868 +- 1.486e-5 i (at
        sigma = 1e-8: +- 1.488e-5 i).  Factorizing F in offset coordinates
        at kappa_1 = pi/(1-a) gives Im kappa = 8.288e-7 for this dip, i.e.
        Im E = 2 kappa Im kappa = 1.488e-5, while ``compute_spectrum`` still
        lists it as a real pair (levels 4 and 5).  The oracle shares no code
        with the matching solver.
        """
        e4 = find_level(fig5, 4, 8.0).energy
        rp = _rp(fig5, 1e-7)
        up = shoot_eigenvalue(rp, e4 + 2e-5j)
        down = shoot_eigenvalue(rp, e4 - 2e-5j)
        assert abs(up - down.conjugate()) < 1e-9 * abs(up)
        im_expected = 2.0 * math.sqrt(e4) * 8.288e-7
        assert abs(up.imag) == pytest.approx(im_expected, rel=1e-2)
        assert up.imag > 0
        assert abs(up.real - 80.58866) < 1e-4
