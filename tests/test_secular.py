import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptwell import (
    InvalidModelError,
    SingularPointError,
    WellParameters,
    entire_secular,
    make_parameters,
    matching_matrix,
    mu,
    nu,
    secular_closed_form,
    secular_det,
    secular_imaginary_axis,
)
from ptwell.secular import _g_scaled

valid_a = st.floats(min_value=0.05, max_value=0.95)
valid_omega = st.floats(min_value=0.0, max_value=50.0)
valid_eta = st.floats(min_value=-50.0, max_value=50.0)
real_kappa = st.floats(min_value=0.1, max_value=60.0)


class TestParameters:
    def test_figure1_regime_is_valid(self):
        p = make_parameters(0.95, 1.5, 20.0)
        assert p.a == 0.95
        assert p.omega_sq == pytest.approx(2.25)
        assert p.quartic_coupling == pytest.approx(1.5**4 + 400.0)

    def test_zero_coupling_is_valid(self):
        p = make_parameters(0.5, 0.0, 0.0)
        assert p.omega_sq == 0.0
        assert p.quartic_coupling == 0.0

    @pytest.mark.parametrize("a", [1.2, 0.0, 1.0, -0.3])
    def test_position_outside_open_interval_rejected(self, a):
        with pytest.raises(InvalidModelError):
            make_parameters(a, 1.0, 0.0)

    def test_negative_omega_rejected(self):
        with pytest.raises(InvalidModelError):
            make_parameters(0.5, -1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(InvalidModelError):
            make_parameters(0.5, 1.0, bad)


class TestMuNu:
    def test_mu_reduces_to_cosine_at_zero_omega(self):
        p = make_parameters(0.5, 0.0, 0.0)
        assert abs(mu(p, math.pi)) < 1e-15  # cos(pi/2)

    def test_mu_direct_formula_value(self):
        # independent evaluation of the printed expression
        p = make_parameters(0.95, 1.5, 20.0)
        expected = math.cos(0.05) - 2.25 * math.sin(0.05)
        assert complex(mu(p, 1.0)).real == pytest.approx(expected, rel=1e-15)

    def test_mu_small_kappa_series_limit(self):
        # mu -> 1 - omega^2 (1-a) as kappa -> 0+; magnitude set by omega^2(1-a)
        p = make_parameters(0.3, 4.0, 0.0)
        expected = 1.0 - p.omega_sq * (1.0 - p.a)
        assert complex(mu(p, 1e-7)).real == pytest.approx(expected, rel=1e-9)

    def test_nu_vanishes_at_zero_eta(self):
        p = make_parameters(0.3, 2.0, 0.0)
        for k in (0.5, 2.0, 11.0):
            assert nu(p, k) == 0.0

    def test_nu_direct_formula_value(self):
        p = make_parameters(0.95, 1.5, 20.0)
        expected = 20.0 * math.sin(0.05 * math.pi) / math.pi
        assert complex(nu(p, math.pi)).real == pytest.approx(expected, rel=1e-15)

    def test_nu_on_imaginary_axis_matches_sinh_identity(self):
        # sin(i y) = i sinh(y)  =>  nu(i tau) = (eta/tau) sinh(tau (1-a)), real
        p = make_parameters(0.6, 1.0, 7.0)
        tau = 2.3
        val = complex(nu(p, 1j * tau))
        expected = (p.eta / tau) * math.sinh(tau * (1 - p.a))
        assert val.imag == pytest.approx(0.0, abs=1e-14)
        assert val.real == pytest.approx(expected, rel=1e-13)

    def test_singular_point_rejected(self):
        p = make_parameters(0.5, 1.0, 1.0)
        with pytest.raises(SingularPointError):
            mu(p, 0.0)
        with pytest.raises(SingularPointError):
            nu(p, 0.0)


class TestMatchingMatrix:
    def test_bare_well_third_row(self):
        p = make_parameters(0.5, 0.0, 0.0)
        m = matching_matrix(p, math.pi / 2).entries
        expected = np.array([-math.cos(math.pi / 4), 0.0, math.sin(math.pi / 4), 0.0])
        assert np.allclose(m[2], expected, atol=1e-15)

    @given(a=valid_a, omega=valid_omega, eta=valid_eta, kappa=real_kappa)
    @settings(max_examples=50, deadline=None)
    def test_real_kappa_gives_real_entries(self, a, omega, eta, kappa):
        m = matching_matrix(WellParameters(a, omega, eta), kappa).entries
        assert np.all(m.imag == 0.0)

    @pytest.mark.parametrize(
        "kappa",
        [
            np.linspace(0.3, 40.0, 12).reshape(3, 4),
            # first row on the real axis, the others off it
            np.linspace(0.3, 40.0, 12).reshape(4, 3) + 1j * np.array([[0.0], [0.2], [-1.5], [3.0]]),
        ],
    )
    def test_array_kappa_matches_scalar_calls(self, kappa):
        # one matrix per element; matrix and F bit for bit those of the scalar call
        p = make_parameters(0.65, 150.0, 20.0)
        m = matching_matrix(p, kappa).entries
        f = secular_det(p, kappa).f
        assert m.shape == kappa.shape + (4, 4) and f.shape == kappa.shape
        for idx in np.ndindex(kappa.shape):
            assert np.array_equal(m[idx], matching_matrix(p, kappa[idx]).entries)
            assert f[idx] == secular_det(p, kappa[idx]).f

    def test_determinant_is_minus_half_f(self):
        # det(M) = F * (-1/2) under the chosen scaling
        p = make_parameters(0.95, 1.5, 20.0)
        m = matching_matrix(p, 2.0).entries
        det = np.linalg.det(m)
        f = secular_closed_form(p, 2.0, "B").f
        assert det == pytest.approx(-0.5 * f, rel=1e-12)


class TestSecularDet:
    def test_bare_well_root_at_half_pi(self):
        p = make_parameters(0.35, 0.0, 0.0)
        assert abs(secular_det(p, math.pi / 2).f) < 1e-13

    def test_bare_well_value_at_quarter_pi(self):
        p = make_parameters(0.35, 0.0, 0.0)
        assert complex(secular_det(p, math.pi / 4).f).real == pytest.approx(1.0, rel=1e-14)

    def test_agrees_with_closed_form_b_at_figure1(self):
        p = make_parameters(0.95, 1.5, 20.0)
        d = complex(secular_det(p, 3.0).f)
        c = complex(secular_closed_form(p, 3.0, "B").f)
        assert d == pytest.approx(c, rel=1e-12)

    @given(a=valid_a, omega=valid_omega, eta=valid_eta, kappa=real_kappa)
    @settings(max_examples=100, deadline=None)
    def test_realness_on_real_axis(self, a, omega, eta, kappa):
        f = complex(secular_det(WellParameters(a, omega, eta), kappa).f)
        assert abs(f.imag) <= 1e-13 * max(1.0, abs(f.real))

    @given(a=valid_a, omega=valid_omega, eta=valid_eta, kappa=real_kappa)
    @settings(max_examples=100, deadline=None)
    def test_oddness(self, a, omega, eta, kappa):
        p = WellParameters(a, omega, eta)
        f_pos = complex(secular_det(p, kappa).f)
        f_neg = complex(secular_det(p, -kappa).f)
        assert f_neg == pytest.approx(-f_pos, rel=1e-12, abs=1e-12)

    @given(a=valid_a, omega=valid_omega, eta=valid_eta)
    @settings(max_examples=60, deadline=None)
    def test_eta_sign_equivalence_exact(self, a, omega, eta):
        # all spectral quantities depend on eta^2 only; flipping the sign
        # reproduces F bit for bit
        k = np.linspace(0.2, 40.0, 97)
        f_plus = secular_det(WellParameters(a, omega, eta), k).f
        f_minus = secular_det(WellParameters(a, omega, -eta), k).f
        assert np.array_equal(f_plus, f_minus)

    def test_hermitian_limit_matches_nu_free_determinant(self):
        # at eta = 0 the matrix has nu == 0; zeroing nu by hand changes nothing
        p = make_parameters(0.7, 2.5, 0.0)
        for kappa in (0.8, 3.7, 12.1):
            m = matching_matrix(p, kappa).entries
            assert m[2, 1] == 0.0 and m[3, 0] == 0.0
            assert -2.0 * np.linalg.det(m) == pytest.approx(
                complex(secular_det(p, kappa).f), rel=1e-12
            )


class TestClosedFormVariants:
    def test_both_variants_reduce_to_sin2k_at_zero_coupling(self):
        p = make_parameters(0.4, 0.0, 0.0)
        for k in (0.7, 2.2, 9.3):
            for variant in ("A", "B"):
                f = secular_closed_form(p, k, variant).f
                assert complex(f).real == pytest.approx(math.sin(2 * k), rel=1e-13, abs=1e-15)

    def test_variants_differ_at_generic_kappa(self):
        p = make_parameters(0.3, 2.0, 5.0)
        k = 2.7
        fa = complex(secular_closed_form(p, k, "A").f)
        fb = complex(secular_closed_form(p, k, "B").f)
        assert abs(fa - fb) > 1e-3 * max(abs(fa), abs(fb))

    def test_variant_b_matches_determinant_variant_a_does_not(self):
        # determinant oracle comparison at the strong-coupling regime
        p = make_parameters(0.95, 15000.0, 20.0)
        rng = np.random.default_rng(42)
        k = rng.uniform(1.0, 50.0, size=100)
        d = secular_det(p, k).f
        fb = secular_closed_form(p, k, "B").f
        fa = secular_closed_form(p, k, "A").f
        scale = np.maximum(np.abs(d), np.abs(fb))
        assert np.max(np.abs(d - fb) / scale) < 1e-12
        assert np.max(np.abs(d - fa) / np.maximum(np.abs(d), np.abs(fa))) > 1e-3

    def test_unknown_variant_rejected(self):
        with pytest.raises(InvalidModelError):
            secular_closed_form(make_parameters(0.5, 1, 1), 1.0, "C")


class TestEntireSecular:
    def test_origin_value(self):
        p = make_parameters(0.5, 3.0, 7.0)
        assert entire_secular(p, 0.0) == 0.0

    def test_small_kappa_series_bare_well(self):
        # H = kappa^2 sin(2 kappa) ~ 2 kappa^3 at zero coupling
        p = make_parameters(0.5, 0.0, 0.0)
        k = 1e-4
        assert complex(entire_secular(p, k)).real == pytest.approx(2 * k**3, rel=1e-7)

    @given(
        a=valid_a,
        omega=valid_omega,
        eta=valid_eta,
        re=st.floats(min_value=0.1, max_value=40.0),
        im=st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_conjugate_symmetry(self, a, omega, eta, re, im):
        p = WellParameters(a, omega, eta)
        z = complex(re, im)
        h = complex(entire_secular(p, z))
        h_conj = complex(entire_secular(p, z.conjugate()))
        assert h_conj == pytest.approx(h.conjugate(), rel=1e-12, abs=1e-300)

    @given(a=valid_a, omega=valid_omega, eta=valid_eta, kappa=real_kappa)
    @settings(max_examples=60, deadline=None)
    def test_equals_kappa_squared_times_f(self, a, omega, eta, kappa):
        p = WellParameters(a, omega, eta)
        h = complex(entire_secular(p, kappa))
        f = complex(secular_det(p, kappa).f)
        assert h == pytest.approx(kappa * kappa * f, rel=1e-10, abs=1e-10)


class TestImaginaryAxis:
    def test_bare_well_is_sinh(self):
        p = make_parameters(0.5, 0.0, 0.0)
        for tau in (0.3, 1.0, 5.0):
            assert secular_imaginary_axis(p, tau) == pytest.approx(math.sinh(2 * tau), rel=1e-12)

    def test_f_on_imaginary_axis_is_purely_imaginary(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = WellParameters(rng.uniform(0.1, 0.9), rng.uniform(0, 20), rng.uniform(-20, 20))
            tau = rng.uniform(0.1, 30.0)
            f = complex(secular_det(p, 1j * tau).f)
            assert abs(f.real) <= 1e-13 * abs(f)

    def test_scaled_form_matches_determinant_in_overlap(self):
        # both evaluation paths are valid for moderate tau
        for p in (WellParameters(0.65, 150.0, 20.0), WellParameters(0.35, 15000.0, 20.0)):
            for tau in (25.0, 60.0, 120.0):
                direct = complex(secular_det(p, 1j * tau).f).imag
                scaled = float(_g_scaled(p, tau)) * math.exp(2.0 * tau)
                assert scaled == pytest.approx(direct, rel=1e-11)

    def test_overflow_guard_returns_signed_infinity(self):
        p = make_parameters(0.5, 3.0, 0.05)
        g = secular_imaginary_axis(p, 500.0)
        assert math.isinf(g) and g > 0

    def test_strong_coupling_regime_stays_positive(self):
        # at (0.95, 15000, 20) the scaled G never changes sign: the would-be
        # negative-energy doublet of the Hermitian limit is pushed off the
        # real axis by eta, so the tau scan correctly finds nothing
        p = make_parameters(0.95, 15000.0, 20.0)
        tau = np.logspace(-3, math.log10(2 * p.omega_sq), 4000)
        vals = _g_scaled(p, tau[tau > 20.0])
        assert np.all(vals > 0)

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(InvalidModelError):
            secular_imaginary_axis(make_parameters(0.5, 1, 1), 0.0)
