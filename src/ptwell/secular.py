"""Secular function of a hard-wall box with a conjugate pair of point wells.

The model lives on (-1, 1) with Dirichlet walls and two point interactions
of complex-conjugate strengths -omega^2 - i*eta at x = -a and
-omega^2 + i*eta at x = +a (units hbar = 2m = 1).  Bound-state momenta
kappa (energies E = kappa^2) are the zeros of the secular function F,
defined here as the determinant of the 4x4 matching system scaled by -2
so the zero-coupling limit is exactly sin(2*kappa).

Two evaluation paths are provided and cross-checked by the test suite:

* ``secular_det``          -- cofactor expansion of the matching matrix
                              (the authoritative definition),
* ``secular_closed_form``  -- compact trigonometric formula; variant "B"
                              (last factor sin^2[kappa(1-a)]) reproduces the
                              determinant, variant "A" (sin^2[2 kappa(1-a)])
                              is retained for comparison and does not.

``entire_secular`` returns H(kappa) = kappa^2 F(kappa), an entire function
with the same nonzero roots, used for complex-plane work, and
``secular_imaginary_axis`` evaluates Im F(i tau) for the negative-energy
search E = -tau^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModelError, SingularPointError

__all__ = [
    "WellParameters",
    "MatchingMatrix",
    "SecularValue",
    "make_parameters",
    "mu",
    "nu",
    "matching_matrix",
    "secular",
    "secular_det",
    "secular_closed_form",
    "entire_secular",
    "secular_imaginary_axis",
    "secular_scale",
]


@dataclass(frozen=True)
class WellParameters:
    """Geometry and couplings: wells at x = -a, +a with strengths -omega^2 -+ i eta.

    ``a`` must lie strictly inside (0, 1); ``omega`` is the (nonnegative)
    attractive strength and ``eta`` the imaginary asymmetry.  All spectral
    quantities depend on eta only through eta^2.
    """

    a: float
    omega: float
    eta: float

    def __post_init__(self):
        for name in ("a", "omega", "eta"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise InvalidModelError(f"{name} must be a finite real number, got {v!r}")
        if not 0.0 < self.a < 1.0:
            raise InvalidModelError(f"well position a must satisfy 0 < a < 1, got {self.a}")
        if self.omega < 0.0:
            raise InvalidModelError(f"omega must be nonnegative, got {self.omega}")

    @property
    def omega_sq(self) -> float:
        """omega^2, the real part of the interaction strength."""
        return self.omega * self.omega

    @property
    def quartic_coupling(self) -> float:
        """omega^4 + eta^2, the coefficient of the 1/kappa^2 secular term."""
        return self.omega_sq * self.omega_sq + self.eta * self.eta


def make_parameters(a: float, omega: float, eta: float) -> WellParameters:
    """Validate and build a :class:`WellParameters` record."""
    return WellParameters(float(a), float(omega), float(eta))


@dataclass(frozen=True)
class MatchingMatrix:
    """The 4x4 homogeneous system annihilating (alpha, beta, gamma, delta)."""

    entries: np.ndarray
    kappa: complex


@dataclass(frozen=True)
class SecularValue:
    """F(kappa) together with the argument and the evaluation path used."""

    f: complex
    kappa: complex
    method: str


def _check_nonzero(kappa):
    if np.any(np.asarray(kappa) == 0):
        raise SingularPointError("kappa = 0 is a (removable) singular point; use entire_secular")


def mu(p: WellParameters, kappa):
    """cos kappa(1-a) - (omega^2/kappa) sin kappa(1-a); real for real kappa."""
    _check_nonzero(kappa)
    k = np.asarray(kappa)
    return np.cos(k * (1 - p.a)) - (p.omega_sq / k) * np.sin(k * (1 - p.a))


def nu(p: WellParameters, kappa):
    """(eta/kappa) sin kappa(1-a); identically zero when eta = 0."""
    _check_nonzero(kappa)
    k = np.asarray(kappa)
    return (p.eta / k) * np.sin(k * (1 - p.a))


def matching_matrix(p: WellParameters, kappa) -> MatchingMatrix:
    """Assemble the 4x4 matching matrix at scalar or array (possibly complex) kappa.

    Rows 1-2 impose continuity of psi at x = -+a, rows 3-4 the derivative
    jumps, with m = mu and n = nu; all entries are real when kappa is real.
    ``entries`` has shape ``kappa.shape + (4, 4)``.
    """
    _check_nonzero(kappa)
    # flattened to 1-d: numpy scalars round some complex products differently
    # from array loops, and a scalar call must give the bits of the array one
    k = np.asarray(kappa, dtype=complex).reshape(-1)
    s1 = np.sin(k * (1 - p.a))
    sa = np.sin(k * p.a)
    ca = np.cos(k * p.a)
    m = mu(p, k)
    n = nu(p, k)
    zero = np.zeros_like(s1)
    rows = [
        [s1, zero, -ca, zero],
        [zero, s1, zero, -sa],
        [-m, n, sa, zero],
        [n, m, zero, ca],
    ]
    # built as (4, 4, size), so each entry m[..., i, j] is a contiguous block
    entries = np.moveaxis(np.array(rows), (0, 1), (-2, -1)).reshape(np.shape(kappa) + (4, 4))
    return MatchingMatrix(entries=entries, kappa=kappa)


def _det3(a11, a12, a13, a21, a22, a23, a31, a32, a33):
    return (
        a11 * (a22 * a33 - a23 * a32)
        - a12 * (a21 * a33 - a23 * a31)
        + a13 * (a21 * a32 - a22 * a31)
    )


def _det4(m):
    """Laplace expansion along the first row of the trailing 4x4 axes of m."""
    out = 0
    sign = 1
    for j in range(4):
        cols = [c for c in range(4) if c != j]
        minor = _det3(
            m[..., 1, cols[0]], m[..., 1, cols[1]], m[..., 1, cols[2]],
            m[..., 2, cols[0]], m[..., 2, cols[1]], m[..., 2, cols[2]],
            m[..., 3, cols[0]], m[..., 3, cols[1]], m[..., 3, cols[2]],
        )
        out = out + sign * m[..., 0, j] * minor
        sign = -sign
    return out


def secular_det(p: WellParameters, kappa) -> SecularValue:
    """F(kappa) = -2 det M(kappa), M the matching matrix.

    This is the authoritative definition of F.  Accepts scalar or array
    kappa; the determinant is a first-row cofactor expansion evaluated
    elementwise, so each element of an array result equals the scalar call.
    """
    m = matching_matrix(p, kappa).entries
    # over a 1-d stack, for the reason given in matching_matrix
    f = (-2.0 * _det4(m.reshape(-1, 4, 4))).reshape(np.shape(kappa))
    if np.ndim(kappa) == 0:
        f = complex(f)
    return SecularValue(f=f, kappa=kappa, method="determinant")


def secular_closed_form(p: WellParameters, kappa, variant: str = "B") -> SecularValue:
    """Closed-form F(kappa).

    variant "B": last factor sin^2[kappa(1-a)]  (matches the determinant),
    variant "A": last factor sin^2[2 kappa(1-a)] (does not; kept for audit).

    The middle term uses cos 2k - cos 2ka = -2 sin k(1+a) sin k(1-a), which
    is exact and avoids cancellation at small kappa.
    """
    if variant not in ("A", "B"):
        raise InvalidModelError(f"variant must be 'A' or 'B', got {variant!r}")
    _check_nonzero(kappa)
    k = np.asarray(kappa)
    s_mid = np.sin(k * (1 + p.a)) * np.sin(k * (1 - p.a))
    if variant == "B":
        s_last = np.sin(k * (1 - p.a)) ** 2
    else:
        s_last = np.sin(2 * k * (1 - p.a)) ** 2
    f = (
        np.sin(2 * k)
        - (2 * p.omega_sq / k) * s_mid
        + (p.quartic_coupling / k**2) * np.sin(2 * k * p.a) * s_last
    )
    if np.ndim(kappa) == 0:
        f = complex(f) if np.iscomplexobj(np.asarray(f)) else float(f)
    return SecularValue(f=f, kappa=kappa, method="closed-form")


def secular(p: WellParameters, kappa):
    """Bare F values (closed form, variant B); workhorse for scanning."""
    return secular_closed_form(p, kappa, "B").f


def entire_secular(p: WellParameters, kappa):
    """H(kappa) = kappa^2 F(kappa), entire in kappa, H(0) = 0.

    H has the same nonzero roots as F plus an artificial order-3 root at
    the origin; complex-plane zero counting always excludes Re kappa <= 0.
    """
    k = np.asarray(kappa)
    s_mid = np.sin(k * (1 + p.a)) * np.sin(k * (1 - p.a))
    h = (
        k * k * np.sin(2 * k)
        - 2.0 * p.omega_sq * k * s_mid
        + p.quartic_coupling * np.sin(2 * k * p.a) * np.sin(k * (1 - p.a)) ** 2
    )
    if np.ndim(kappa) == 0:
        return complex(h)
    return h


def secular_scale(p: WellParameters, kappa):
    """Magnitude envelope of the three secular terms at kappa.

    Used to turn absolute residuals into relative ones; grows like
    exp(2 |Im kappa|) off the real axis.
    """
    k = np.asarray(kappa)
    ak = np.maximum(np.abs(k), 1e-300)
    grow = np.exp(2.0 * np.abs(np.imag(k))) if np.iscomplexobj(k) else 1.0
    return (1.0 + 2.0 * p.omega_sq / ak + p.quartic_coupling / ak**2) * grow


def _g_scaled(p: WellParameters, tau):
    """Im F(i tau) * exp(-2 tau): overflow-free form for the tau scan.

    Exact rearrangement of the determinant at kappa = i*tau with every
    exponential written as exp(-positive); accurate for tau(1-a) and tau*a
    not both tiny (the scan uses the determinant path below the switch).
    """
    t = np.asarray(tau, dtype=float)
    a = p.a
    w2 = p.omega_sq
    q = p.quartic_coupling
    e4 = np.exp(-4.0 * t)
    e1m = np.exp(-2.0 * t * (1 - a))
    e1p = np.exp(-2.0 * t * (1 + a))
    e4m = np.exp(-4.0 * t * (1 - a))
    e4a = np.exp(-4.0 * t * a)
    return (
        0.5 * (1.0 - e4)
        - (w2 / (2.0 * t)) * (1.0 + e4 - e1m - e1p)
        + (q / (8.0 * t * t)) * (1.0 - 2.0 * e1m + e4m - e4a + 2.0 * e1p - e4)
    )


def _tau_switch(p: WellParameters) -> float:
    """Hand-off point between the determinant and the scaled evaluation."""
    return min(300.0, max(20.0, 2.0 / min(p.a, 1.0 - p.a)))


def _imaginary_axis_signed(p: WellParameters, tau):
    """Im F(i tau) up to the overflow switch, Im F(i tau) exp(-2 tau) beyond it.

    Same sign as Im F(i tau) everywhere and finite for any tau > 0; the
    tau scan and its Brent refinement run on it.  Scalar or array tau.
    """
    t = np.asarray(tau, dtype=float)
    low = t <= _tau_switch(p)
    out = np.empty_like(t)
    if low.any():
        out[low] = np.imag(secular_det(p, 1j * t[low]).f)
    if (~low).any():
        out[~low] = _g_scaled(p, t[~low])
    return out if out.ndim else float(out)


def secular_imaginary_axis(p: WellParameters, tau: float) -> float:
    """G(tau) = Im F(i tau); roots tau* give bound states with E = -tau*^2.

    F(i tau) is purely imaginary (H is entire with real coefficients and F
    is odd).  Below the overflow switch the value comes from the matching
    determinant at kappa = i tau; above it from the scaled exponential
    form, with +-inf returned once exp(2 tau) leaves double range.
    """
    if not tau > 0:
        raise InvalidModelError(f"tau must be positive, got {tau}")
    g = _imaginary_axis_signed(p, tau)
    if tau <= _tau_switch(p) or g == 0.0:
        return g
    log_mag = 2.0 * tau + math.log(abs(g))
    if log_mag > 700.0:
        return math.inf if g > 0 else -math.inf
    return g * math.exp(2.0 * tau)
