import math

import numpy as np
import pytest

from ptwell import (
    FIGURE_PARAMETERS,
    ConventionError,
    InvalidModelError,
    NullspaceError,
    ScanConfig,
    WellParameters,
    build_wavefunction,
    compute_spectrum,
    norms,
    nullspace_coeffs,
    parity_decompose,
)
from ptwell.wavefunction import Wavefunction, _nullspace_4x4
from conftest import params


# regime 5, level 6: kappa a is within 1.4e-4 of 2 pi, so the odd state nearly
# vanishes at x = 0, +-a/2 and +-a, the nodes an equal-spaced rule takes first
REGIME5_LEVEL6 = 9.66710108500333
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(200)


def _gauss_legendre_norms(psi, panels=50):
    """(L2 norm, pseudo-norm) by a composite 200-point Gauss-Legendre rule, `panels` per cell."""
    a = psi.parameters.a
    l2_sq, pseudo = 0.0, 0.0j
    for lo, hi in ((-1.0, -a), (-a, a), (a, 1.0)):
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * np.diff(edges)[:, None]
        x = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * GL_NODES).ravel()
        w = (half * GL_WEIGHTS).ravel()
        v = psi.value(x)
        l2_sq += float(np.sum(w * np.abs(v) ** 2))
        pseudo += complex(np.sum(w * v * psi.value(-x)))
    return math.sqrt(l2_sq), pseudo


def _assert_norms_match_gauss_legendre(psi, rel=1e-10):
    l2, pt = norms(psi)
    ref_l2, ref_pt = _gauss_legendre_norms(psi)
    assert abs(l2 - ref_l2) <= rel * ref_l2, (psi.kappa, l2, ref_l2)
    assert abs(pt - ref_pt) <= rel * ref_l2**2, (psi.kappa, pt, ref_pt)


def _random_wavefunction(rng, kind):
    if kind == "real":
        kappa = complex(rng.uniform(0.1, 40.0), 0.0)
    elif kind == "complex":
        kappa = complex(rng.uniform(0.1, 40.0), rng.uniform(-3.0, 3.0))
    else:
        kappa = complex(0.0, rng.uniform(0.1, 15.0))
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
    return Wavefunction(kappa, *coeffs, parameters=WellParameters(rng.uniform(0.05, 0.95), 1.0, 1.0))


def _state(p, level, kappa_max=15.0):
    rep = compute_spectrum(p, ScanConfig(kappa_max=kappa_max))
    return build_wavefunction(p, rep.levels[level - 1].kappa)


class TestNullspace:
    def test_bare_well_even_state(self, bare_box):
        alpha, beta, gamma, delta = nullspace_coeffs(bare_box, math.pi / 2)
        assert beta == 0 and delta == 0
        # psi_C = gamma cos(pi x / 2): the bare-well ground state
        assert abs(gamma) == pytest.approx(1.0)
        assert alpha.imag == 0

    def test_bare_well_odd_state(self, bare_box):
        kappa = 3.1415926535897909  # refined root, not exactly pi
        alpha, beta, gamma, delta = nullspace_coeffs(bare_box, kappa)
        assert abs(alpha) < 1e-9 and abs(gamma) < 1e-9
        assert abs(delta) == pytest.approx(1.0)

    def test_non_eigenvalue_rejected(self, bare_box):
        with pytest.raises(NullspaceError) as err:
            nullspace_coeffs(bare_box, 2.0)
        assert err.value.rank == 4

    def test_rank_two_matrix_flagged_as_degenerate(self):
        m = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(NullspaceError) as err:
            _nullspace_4x4(m)
        assert err.value.rank == 2

    def test_full_pivot_handles_permuted_nullspace(self):
        # nullspace along the first coordinate requires column pivoting
        m = np.array(
            [
                [0.0, 2.0, 0.0, 0.0],
                [0.0, 0.0, 3.0, 0.0],
                [0.0, 0.0, 0.0, 4.0],
                [0.0, 0.0, 0.0, 0.0],
            ],
            dtype=complex,
        )
        vec, _ = _nullspace_4x4(m)
        assert np.allclose(m @ vec, 0.0)
        assert abs(vec[0]) == pytest.approx(1.0)


class TestEvaluation:
    def test_boundary_zeros_exact(self, fig1):
        psi = _state(fig1, 1)
        assert psi.value(-1.0) == 0
        assert psi.value(1.0) == 0

    def test_continuity_at_interfaces(self, fig1):
        psi = _state(fig1, 1)
        mx = psi.max_abs()
        for x0 in (-fig1.a, fig1.a):
            jump = abs(psi.value(x0, side="+") - psi.value(x0, side="-"))
            assert jump < 1e-10 * mx

    # level 6 of regime 5 is the fourth regular root; levels 4-5 there are
    # an unresolved quasi-degenerate pair whose members are not individually
    # eigen-certified (the nullspace correctly refuses them)
    @pytest.mark.parametrize("fig,level", [(1, 1), (1, 3), (5, 1), (5, 6)])
    def test_derivative_jump_matches_interaction_strength(self, fig, level):
        p = params(fig)
        psi = _state(p, level)
        for x0, strength in ((p.a, complex(-p.omega_sq, p.eta)), (-p.a, complex(-p.omega_sq, -p.eta))):
            jump = psi.derivative(x0, side="+") - psi.derivative(x0, side="-")
            target = strength * psi.value(x0)
            assert abs(jump - target) <= 1e-8 * abs(target)

    def test_outside_box_rejected(self, bare_box):
        psi = _state(bare_box, 1, kappa_max=5.0)
        with pytest.raises(InvalidModelError):
            psi.value(1.5)

    def test_ode_residual_by_second_differences(self, fig1):
        # -psi'' = kappa^2 psi on each open subinterval; the centered second
        # difference at step h carries O(h^2) truncation plus eps/h^2 roundoff,
        # so the bound is the sum of both contributions
        psi = _state(fig1, 2)
        k2 = abs(psi.kappa) ** 2
        mx = psi.max_abs()
        for h, budget in ((1e-4, 1e-6), (1e-6, 1e-3)):
            for x in (-0.97, -0.5, 0.11, 0.6, 0.952):
                num = (psi.value(x + h) - 2 * psi.value(x) + psi.value(x - h)) / h**2
                assert abs(-num - k2 * psi.value(x)) <= budget * k2 * mx


class TestParity:
    def test_bare_well_even_state_has_no_odd_part(self, bare_box):
        psi = _state(bare_box, 1, kappa_max=5.0)
        parts = parity_decompose(psi)
        x = np.linspace(-1, 1, 101)
        assert np.max(np.abs(parts.psi_A(x))) < 1e-12
        assert np.max(np.abs(parts.psi_S(x) - np.cos(math.pi * x / 2))) < 1e-9

    def test_bare_well_odd_state_has_no_even_part(self, bare_box):
        psi = _state(bare_box, 2, kappa_max=5.0)
        parts = parity_decompose(psi)
        x = np.linspace(-1, 1, 101)
        assert np.max(np.abs(parts.psi_S(x))) < 1e-9
        # psi = i psi_A with psi_A = sin(pi x) under the phase convention
        assert np.max(np.abs(parts.psi_A(x) - np.sin(math.pi * x))) < 1e-8

    def test_figure1_identities_on_grid(self, fig1):
        psi = _state(fig1, 1)
        parts = parity_decompose(psi, grid_points=1001)
        x = np.linspace(-1, 1, 1001)
        s = parts.psi_S(x)
        aa = parts.psi_A(x)
        mx = psi.max_abs()
        assert np.max(np.abs(s - s[::-1])) < 1e-10 * mx  # even
        assert np.max(np.abs(aa + aa[::-1])) < 1e-10 * mx  # odd
        assert np.max(np.abs(s)) > 0.1 * mx and np.max(np.abs(aa)) > 0.01 * mx
        recon = s + 1j * aa
        assert np.max(np.abs(recon - psi.value(x))) < 1e-10 * mx

    def test_phase_violation_detected(self, fig1):
        psi = _state(fig1, 1)
        rotated = Wavefunction(
            kappa=psi.kappa,
            alpha=psi.alpha * np.exp(0.3j),
            beta=psi.beta * np.exp(0.3j),
            gamma=psi.gamma * np.exp(0.3j),
            delta=psi.delta * np.exp(0.3j),
            parameters=psi.parameters,
        )
        with pytest.raises(ConventionError):
            parity_decompose(rotated)


class TestNorms:
    def test_bare_well_even_state(self, bare_box):
        psi = _state(bare_box, 1, kappa_max=5.0)
        l2, pt = norms(psi)
        # psi = cos(pi x/2): unit L2 norm on (-1,1) and real state, so the
        # pseudo-norm equals the squared L2 norm
        assert l2 == pytest.approx(1.0, abs=1e-10)
        assert pt == pytest.approx(l2**2 + 0j, abs=1e-10)

    def test_bare_well_odd_state(self, bare_box):
        psi = _state(bare_box, 2, kappa_max=5.0)
        l2, pt = norms(psi)
        # psi = i sin(pi x): psi(-x) psi(x) = sin^2(pi x), integral exactly 1
        assert l2 == pytest.approx(1.0, abs=1e-10)
        assert pt.real == pytest.approx(1.0, abs=1e-10)
        assert abs(pt.imag) < 1e-12

    @pytest.mark.parametrize("fig,level", [(1, 1), (5, 2)])
    def test_pseudo_norm_real_for_unbroken_states(self, fig, level):
        psi = _state(params(fig), level)
        _, pt = norms(psi)
        assert abs(pt.imag) <= 1e-9 * abs(pt)

    def test_optional_pseudo_normalization(self, fig1):
        rep = compute_spectrum(fig1, ScanConfig(kappa_max=5.0))
        psi = build_wavefunction(fig1, rep.levels[0].kappa, normalize_pseudo=True)
        _, pt = norms(psi)
        assert pt == pytest.approx(1.0 + 0j, abs=1e-9)

    # the first two cases put psi's zeros (or near-zeros) on the first nodes
    # of an equal-spaced rule, where an adaptive rule stops at once
    def test_regime5_level6_against_gauss_legendre(self, fig5):
        _assert_norms_match_gauss_legendre(build_wavefunction(fig5, REGIME5_LEVEL6))

    def test_node_zeros_against_gauss_legendre(self):
        p = WellParameters(a=0.5, omega=3.0, eta=0.05)
        _assert_norms_match_gauss_legendre(build_wavefunction(p, 4 * math.pi))

    @pytest.mark.parametrize("kind", ["real", "complex", "imaginary"])
    def test_random_states_against_gauss_legendre(self, kind):
        # imaginary and real kappa hit the q = 0 and p = 0 limits of the closed form
        rng = np.random.default_rng(7)
        for _ in range(20):
            _assert_norms_match_gauss_legendre(_random_wavefunction(rng, kind))

    @pytest.mark.parametrize("fig", sorted(FIGURE_PARAMETERS))
    def test_canonical_levels_against_gauss_legendre(self, fig):
        a, omega, eta, (k_lo, k_hi) = FIGURE_PARAMETERS[fig]
        p = WellParameters(a, omega, eta)
        accepted = 0
        for level in compute_spectrum(p, ScanConfig(kappa_max=k_hi, kappa_min=k_lo)).levels:
            try:
                psi = build_wavefunction(p, level.kappa)
            except NullspaceError:
                continue
            accepted += 1
            _assert_norms_match_gauss_legendre(psi)
        assert accepted > 0

    def test_pseudo_normalization_at_regime5_level6(self, fig5):
        psi = build_wavefunction(fig5, REGIME5_LEVEL6, normalize_pseudo=True)
        _, pt = _gauss_legendre_norms(psi)
        assert abs(pt - 1.0) <= 1e-10
