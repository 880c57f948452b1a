"""Independent eigenvalue oracle: regularize, integrate, shoot.

Each point interaction is replaced by a unit-mass Gaussian of width sigma
carrying the same complex strength, and eigenvalues are Newton roots of
psi(1; E) = 0 in the full complex E plane (so the oracle could find
complex eigenvalues if any existed; their absence is a result, not an
assumption).

A shot starts at x = -1 with psi = 0, psi' = 1 and runs over the nodes
x_j = -1 + j h.  Fixed-step classical RK4 runs only across the two bumps,
on the nodes within 12 sigma of x = -+a (beyond that the Gaussian is below
e^-72 of its peak); overlapping windows merge.  Between and beyond the
bumps psi is carried exactly by the free transfer matrix
[[cos kL, sin kL / k], [-k sin kL, cos kL]], k = sqrt(E), written with the
scaled exponentials exp(+-ikL - |Im k| L) so deep negative and complex
energies renormalize instead of overflowing.  A shot therefore costs about
240 RK4 steps per bump at h = sigma/10, whatever sigma is.  dpsi/dE is
carried alongside psi: RK4 on the variational equations across the bumps,
the derivative of the transfer matrix between them.  Newton takes one
shot per step.

The construction shares nothing with the matching solver: agreement of
the two spectra as sigma -> 0 is the package's end-to-end check.  To first
order in sigma a level shifts by (sigma/sqrt(pi)) sum g^2 psi(-+a)^2 /
int psi^2, g = -omega^2 -+ i eta, so the delta limit needs
(omega^4 + eta^2) sigma small against the level spacing; at strong
coupling a finite sigma is a physically different (resonant) obstacle and
agreement degrades accordingly.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceError, InvalidModelError, LevelJumpError
from .realroots import find_level
from .secular import WellParameters

__all__ = [
    "RegularizedProblem",
    "ShotResult",
    "ConvergenceRow",
    "ConvergenceStudy",
    "integrate_ode",
    "shoot_eigenvalue",
    "convergence_study",
]

_RENORM = 1e100
_CUT = 12.0  # RK4 windows reach this many sigma from each bump centre
# Taylor coefficients in x = E L^2, used where |kL| < 1:
# sin(kL)/k = L sum _SIN[n] x^n and d/dE sin(kL)/k = L^3 sum _DSIN[n] x^n
_SIN = [(-1) ** n / math.factorial(2 * n + 1) for n in range(10)]
_DSIN = [(-1) ** (n + 1) * (n + 1) / math.factorial(2 * n + 3) for n in range(10)]


@dataclass(frozen=True)
class RegularizedProblem:
    """Gaussian-regularized model plus the RK4 step tied to the bump width."""

    parameters: WellParameters
    sigma: float
    grid_step: float

    def __post_init__(self):
        a = self.parameters.a
        if not 0 < self.sigma <= min((1.0 - a) / 8.0, a / 8.0):
            raise InvalidModelError(
                f"sigma must lie in (0, min((1-a)/8, a/8)] = "
                f"(0, {min((1.0 - a) / 8.0, a / 8.0):.4g}], got {self.sigma}"
            )
        if not 0 < self.grid_step <= self.sigma / 10.0:
            raise InvalidModelError(
                f"grid_step must lie in (0, sigma/10]; got {self.grid_step} for sigma={self.sigma}"
            )


@dataclass(frozen=True)
class ShotResult:
    """End values of one integration.

    psi_end/dpsi_end are in the final renormalized scale; the true values
    are psi_end * exp(log_scale).  max_log_abs is log of the trajectory
    maximum of |psi| in absolute (unscaled) terms.
    """

    psi_end: complex
    dpsi_end: complex
    log_scale: float
    max_log_abs: float

    @property
    def end_ratio(self) -> float:
        """|psi(1)| / max |psi| along the trajectory (scale-invariant)."""
        if self.psi_end == 0:
            return 0.0
        return math.exp(math.log(abs(self.psi_end)) + self.log_scale - self.max_log_abs)


@lru_cache(maxsize=16)
def _potential_grid(rp: RegularizedProblem):
    """RK4 windows on the nodes x_j = -1 + j h: (windows, gaps, steps, h).

    A window holds the nodes within 12 sigma of a bump centre, clipped to
    the box; overlapping windows merge.  Each window is V sampled on its
    half-step grid (RK4 needs midpoints).  gaps[i] is the free length before
    windows[i], gaps[-1] the one after the last window; steps is the number
    of RK4 steps a shot takes.
    """
    n = int(round(2.0 / rp.grid_step))
    h = 2.0 / n
    p = rp.parameters
    spans = []
    for centre in (-p.a, p.a):
        lo = max(0, math.ceil((centre + 1.0 - _CUT * rp.sigma) / h))
        hi = min(n, math.floor((centre + 1.0 + _CUT * rp.sigma) / h))
        if spans and lo <= spans[-1][1]:
            spans[-1] = (spans[-1][0], hi)
        else:
            spans.append((lo, hi))
    g_minus = complex(-p.omega_sq, -p.eta)
    g_plus = complex(-p.omega_sq, p.eta)
    peak = 1.0 / (rp.sigma * math.sqrt(2.0 * math.pi))
    windows = []
    for lo, hi in spans:
        x = -1.0 + 0.5 * h * np.arange(2 * lo, 2 * hi + 1)
        v = g_minus * peak * np.exp(-0.5 * ((x + p.a) / rp.sigma) ** 2)
        v = v + g_plus * peak * np.exp(-0.5 * ((x - p.a) / rp.sigma) ** 2)
        windows.append(tuple(complex(c) for c in v))
    edges = [0] + [j for span in spans for j in span] + [n]
    gaps = tuple((edges[i + 1] - edges[i]) * h for i in range(0, len(edges), 2))
    steps = sum(hi - lo for lo, hi in spans)
    return tuple(windows), gaps, steps, h


def _fly(e, k, length, state, log_scale, max_log):
    """Carry (u, w, u_E, w_E) exactly across a free segment of ``length``.

    cos(kt) and sin(kt)/k come times exp(-|Im k| t), which is added to
    log_scale.  max |psi| is read from the closed form at 2 + 16|Re k|L/pi
    points, ends included: a subsample can only under-read the maximum.
    """
    u, w, ue, we = state
    t = np.linspace(0.0, length, 2 + int(16.0 * abs(k.real) * length / math.pi))
    kt = k * t
    damp = abs(k.imag) * t
    ep = np.exp(1j * kt - damp)
    em = np.exp(-1j * kt - damp)
    c = 0.5 * (ep + em)
    s = (ep - em) / (2j * (k if k != 0 else 1.0))
    small = np.abs(kt) < 1.0
    s_series = t * np.polynomial.polynomial.polyval(e * t * t, _SIN) * np.exp(-damp)
    s = np.where(small, s_series, s)
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(c * u + s * w)) + damp
    max_log = max(max_log, float(logs.max()) + log_scale)

    c, s = complex(c[-1]), complex(s[-1])
    c_e = -0.5 * length * s
    if small[-1]:
        x = e * length * length
        s_e = length**3 * complex(np.polynomial.polynomial.polyval(x, _DSIN)) * math.exp(-damp[-1])
    else:
        s_e = (length * c - s) / (2.0 * e)
    state = (
        c * u + s * w,
        -e * s * u + c * w,
        c * ue + s * we + c_e * u + s_e * w,
        -e * s * ue + c * we - (s + e * s_e) * u + c_e * w,
    )
    state, log_scale = _renormalize(state, log_scale + float(damp[-1]))
    return state, log_scale, max_log


def _renormalize(state, log_scale):
    """Divide all four by max(|u|, |w|) once |u| or |w| passes 1e100."""
    scale = max(abs(state[0]), abs(state[1]))
    if scale <= _RENORM:
        return state, log_scale
    return tuple(z / scale for z in state), log_scale + math.log(scale)


def _rk4(v, h, e, state, log_scale, max_log):
    """Classical RK4 for (u, w) and its variational pair across one window.

    u' = w, w' = (V - E) u; u_E' = w_E, w_E' = (V - E) u_E - u.
    """
    u, w, ue, we = state
    h6 = h / 6.0
    h2 = 0.5 * h
    a = [x - e for x in v]
    max_abs = 0.0  # running max of |psi| in the current scale
    for a0, ah, a1 in zip(a[0:-1:2], a[1::2], a[2::2]):
        k1u = w
        k1w = a0 * u
        k1ue = we
        k1we = a0 * ue - u
        u2 = u + h2 * k1u
        ue2 = ue + h2 * k1ue
        k2u = w + h2 * k1w
        k2w = ah * u2
        k2ue = we + h2 * k1we
        k2we = ah * ue2 - u2
        u3 = u + h2 * k2u
        ue3 = ue + h2 * k2ue
        k3u = w + h2 * k2w
        k3w = ah * u3
        k3ue = we + h2 * k2we
        k3we = ah * ue3 - u3
        u4 = u + h * k3u
        ue4 = ue + h * k3ue
        k4u = w + h * k3w
        k4w = a1 * u4
        k4ue = we + h * k3we
        k4we = a1 * ue4 - u4
        u = u + h6 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        w = w + h6 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        ue = ue + h6 * (k1ue + 2.0 * k2ue + 2.0 * k3ue + k4ue)
        we = we + h6 * (k1we + 2.0 * k2we + 2.0 * k3we + k4we)
        au = abs(u)
        if au > max_abs:
            max_abs = au
        if au > _RENORM or abs(w) > _RENORM:
            if max_abs > 0:
                max_log = max(max_log, math.log(max_abs) + log_scale)
            (u, w, ue, we), log_scale = _renormalize((u, w, ue, we), log_scale)
            max_abs = abs(u)
    if max_abs > 0:
        max_log = max(max_log, math.log(max_abs) + log_scale)
    return (u, w, ue, we), log_scale, max_log


def _shoot_with_derivative(rp: RegularizedProblem, energy: complex):
    """(ShotResult, dpsi(1)/dE in the shot's final scale)."""
    windows, gaps, _, h = _potential_grid(rp)
    e = complex(energy)
    k = cmath.sqrt(e)
    state = (0j, 1.0 + 0j, 0j, 0j)  # psi, psi', and their E-derivatives
    log_scale = 0.0
    max_log = -math.inf
    for i, gap in enumerate(gaps):
        if gap > 0:
            state, log_scale, max_log = _fly(e, k, gap, state, log_scale, max_log)
        if i < len(windows):
            state, log_scale, max_log = _rk4(windows[i], h, e, state, log_scale, max_log)
    shot = ShotResult(psi_end=state[0], dpsi_end=state[1], log_scale=log_scale, max_log_abs=max_log)
    return shot, state[2]


def _shoot(rp: RegularizedProblem, energy: complex) -> ShotResult:
    """psi from x=-1 with psi=0, psi'=1; renormalizes above 1e100."""
    return _shoot_with_derivative(rp, energy)[0]


def integrate_ode(rp: RegularizedProblem, energy: complex) -> complex:
    """psi(1) for the regularized problem at the given (complex) energy."""
    shot = _shoot(rp, energy)
    if shot.log_scale == 0.0:
        return shot.psi_end
    log_mag = math.log(abs(shot.psi_end) + 1e-300) + shot.log_scale
    if log_mag > 700.0:
        return cmath.rect(math.inf, cmath.phase(shot.psi_end))
    return shot.psi_end * math.exp(shot.log_scale)


def shoot_eigenvalue(
    rp: RegularizedProblem,
    energy_seed: complex,
    tol: float = 1e-10,
    max_iter: int = 60,
    level_spacing: Optional[float] = None,
) -> complex:
    """Newton root of psi(1; E) = 0 in complex E.

    Each Newton step is one shot: the shot carries dpsi(1)/dE alongside
    psi(1) (see the module docstring), so no difference quotient is taken.
    Convergence: |psi(1)| / max|psi| < tol.  If ``level_spacing`` is given
    and the converged E strays further than that from the seed, the jump
    is reported as an error rather than silently accepted.
    """
    e = complex(energy_seed)
    for _ in range(max_iter):
        shot, dpsi_de = _shoot_with_derivative(rp, e)
        if shot.end_ratio < tol:
            if level_spacing is not None and abs(e - energy_seed) > level_spacing:
                raise LevelJumpError(
                    f"shooting converged to E={e:.6g}, a different level than the "
                    f"seed {energy_seed:.6g} (moved {abs(e - energy_seed):.3g} "
                    f"> spacing {level_spacing:.3g})"
                )
            return e
        if dpsi_de == 0:
            raise ConvergenceError(f"vanishing dpsi(1)/dE at E={e}")
        e = e - shot.psi_end / dpsi_de
        if not (math.isfinite(e.real) and math.isfinite(e.imag)):
            raise ConvergenceError("shooting iterate diverged")
    raise ConvergenceError(f"no convergence after {max_iter} Newton steps from {energy_seed}")


@dataclass(frozen=True)
class ConvergenceRow:
    sigma: float
    energy: complex
    delta_to_matching: float


@dataclass(frozen=True)
class ConvergenceStudy:
    parameters: WellParameters
    level: int
    matching_energy: float
    rows: tuple
    extrapolated: complex
    monotone: bool


def convergence_study(
    p: WellParameters,
    level: int,
    sigmas: Sequence[float],
    strict: bool = False,
) -> ConvergenceStudy:
    """Shoot the given level for each sigma (h = sigma/10) and extrapolate.

    ``sigmas`` must be decreasing.  The sigma -> 0 limit is estimated by
    Richardson extrapolation on the last two rows with a first-order model,
    (r E_last - E_prev) / (r - 1), r = sigma_prev / sigma_last: the leading
    regularization shift is linear in sigma (see the module docstring).
    Non-monotone approach to the matching energy beyond noise is recorded
    in ``monotone`` and raises only when ``strict``.
    """
    sig = [float(s) for s in sigmas]
    if any(s2 >= s1 for s1, s2 in zip(sig, sig[1:])):
        raise InvalidModelError("sigmas must be strictly decreasing")
    e_match = find_level(p, level, 8.0).energy
    rows = []
    e_prev = complex(e_match)
    for s in sig:
        rp = RegularizedProblem(parameters=p, sigma=s, grid_step=s / 10.0)
        e_star = shoot_eigenvalue(rp, e_prev)
        rows.append(ConvergenceRow(sigma=s, energy=e_star, delta_to_matching=abs(e_star - e_match)))
        e_prev = e_star

    if len(rows) >= 2:
        r = rows[-2].sigma / rows[-1].sigma
        extrapolated = (r * rows[-1].energy - rows[-2].energy) / (r - 1.0)
    else:
        extrapolated = rows[-1].energy

    deltas = [row.delta_to_matching for row in rows]
    noise = 1e-9 * abs(e_match) + 1e-12
    monotone = all(d2 <= d1 + noise for d1, d2 in zip(deltas, deltas[1:]))
    if strict and not monotone:
        raise ConvergenceError(
            f"non-monotone approach to the matching energy: deltas {deltas}"
        )
    return ConvergenceStudy(
        parameters=p,
        level=level,
        matching_energy=e_match,
        rows=tuple(rows),
        extrapolated=extrapolated,
        monotone=monotone,
    )
