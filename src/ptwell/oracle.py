"""Independent eigenvalue oracle: regularize, integrate, shoot.

Each point interaction is replaced by a unit-mass Gaussian of width sigma
carrying the same complex strength, the Schroedinger equation is
integrated across the box by fixed-step classical RK4, and eigenvalues are
Newton roots of psi(1; E) = 0 in the full complex E plane (so the oracle
could find complex eigenvalues if any existed; their absence is a result,
not an assumption).

The construction shares nothing with the matching solver: agreement of
the two spectra as sigma -> 0 is the package's end-to-end check.  Note
the delta limit needs omega^2 * sigma << 1; at strong coupling a finite
sigma is a physically different (resonant) obstacle and agreement
degrades accordingly.
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
    """V sampled on the half-step grid x_j = -1 + j h/2 (RK4 needs midpoints)."""
    n = int(round(2.0 / rp.grid_step))
    h = 2.0 / n
    x = -1.0 + 0.5 * h * np.arange(2 * n + 1)
    p = rp.parameters
    g_minus = complex(-p.omega_sq, -p.eta)
    g_plus = complex(-p.omega_sq, p.eta)
    peak = 1.0 / (rp.sigma * math.sqrt(2.0 * math.pi))
    v = g_minus * peak * np.exp(-0.5 * ((x + p.a) / rp.sigma) ** 2)
    v = v + g_plus * peak * np.exp(-0.5 * ((x - p.a) / rp.sigma) ** 2)
    return tuple(complex(c) for c in v), h, n


def _shoot(rp: RegularizedProblem, energy: complex) -> ShotResult:
    """RK4 from x=-1 with psi=0, psi'=1; renormalizes above 1e100."""
    v, h, n = _potential_grid(rp)
    e = complex(energy)
    u = 0.0 + 0.0j
    w = 1.0 + 0.0j
    log_scale = 0.0
    max_log = -math.inf
    max_abs = 0.0  # running max of |psi| in the current scale
    h6 = h / 6.0
    h2 = 0.5 * h
    for j in range(n):
        v0 = v[2 * j]
        vh = v[2 * j + 1]
        v1 = v[2 * j + 2]
        k1u = w
        k1w = (v0 - e) * u
        u2 = u + h2 * k1u
        k2u = w + h2 * k1w
        k2w = (vh - e) * u2
        u3 = u + h2 * k2u
        k3u = w + h2 * k2w
        k3w = (vh - e) * u3
        u4 = u + h * k3u
        k4u = w + h * k3w
        k4w = (v1 - e) * u4
        u = u + h6 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        w = w + h6 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        au = abs(u)
        if au > max_abs:
            max_abs = au
        if au > _RENORM or abs(w) > _RENORM:
            if max_abs > 0:
                max_log = max(max_log, math.log(max_abs) + log_scale)
            s = max(au, abs(w))
            u /= s
            w /= s
            log_scale += math.log(s)
            max_abs = abs(u)
    if max_abs > 0:
        max_log = max(max_log, math.log(max_abs) + log_scale)
    return ShotResult(psi_end=u, dpsi_end=w, log_scale=log_scale, max_log_abs=max_log)


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

    The derivative uses a central difference in E (psi(1; .) is entire, so
    a real-direction stencil yields the complex derivative).  Convergence:
    |psi(1)| / max|psi| < tol.  If ``level_spacing`` is given and the
    converged E strays further than that from the seed, the jump is
    reported as an error rather than silently accepted.
    """
    e = complex(energy_seed)
    for _ in range(max_iter):
        shot = _shoot(rp, e)
        if shot.end_ratio < tol:
            if level_spacing is not None and abs(e - energy_seed) > level_spacing:
                raise LevelJumpError(
                    f"shooting converged to E={e:.6g}, a different level than the "
                    f"seed {energy_seed:.6g} (moved {abs(e - energy_seed):.3g} "
                    f"> spacing {level_spacing:.3g})"
                )
            return e
        d = 1e-6 * (1.0 + abs(e))
        shot_p = _shoot(rp, e + d)
        shot_m = _shoot(rp, e - d)
        # bring all three values to a common scale before differencing
        log_ref = max(shot.log_scale, shot_p.log_scale, shot_m.log_scale)
        f = shot.psi_end * math.exp(shot.log_scale - log_ref)
        fp = shot_p.psi_end * math.exp(shot_p.log_scale - log_ref)
        fm = shot_m.psi_end * math.exp(shot_m.log_scale - log_ref)
        df = (fp - fm) / (2.0 * d)
        if df == 0:
            raise ConvergenceError(f"vanishing dpsi(1)/dE at E={e}")
        e = e - f / df
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
    Richardson extrapolation (second-order model) on the last two rows.
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
        w = r * r
        extrapolated = (w * rows[-1].energy - rows[-2].energy) / (w - 1.0)
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
