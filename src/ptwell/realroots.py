"""Real-spectrum pipeline: grid scan, bracketed refinement, cluster resolution.

Quasi-degenerate pairs are the delicate part.  Near kappa = m pi/(1-a) the
secular function dips by many orders of magnitude without necessarily
crossing zero on any feasible grid; such sites are flagged "suspicious",
locally densified, and finally classified with the help of a local
argument-principle count (two zeros of H in a thin box around the dip).
A dip whose measured minimum is consistent with zero (below 1e-9 times the
local term scale) and whose box holds two zeros is reported as a
quasi-degenerate pair; the gap, when below double-precision resolution,
is replaced by a resolution-limited estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BracketingError,
    ClusterError,
    ConvergenceError,
    InsufficientDataError,
    InvalidModelError,
)
from .secular import (
    WellParameters,
    secular,
    secular_imaginary_axis,
    secular_scale,
    _g_scaled,
    _imaginary_axis_signed,
    _tau_switch,
)

__all__ = [
    "ScanConfig",
    "EigenvalueRecord",
    "SpectrumReport",
    "SuspiciousSite",
    "scan_brackets",
    "refine_root",
    "resolve_cluster",
    "compute_spectrum",
    "find_level",
    "quasi_degenerate_gaps",
]

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ScanConfig:
    """Grid and tolerance knobs for the real-root scan."""

    kappa_max: float
    kappa_min: float = 1e-3
    samples_per_unit: int = 64
    refine_tol: float = 1e-12
    cluster_threshold: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.kappa_min) and math.isfinite(self.kappa_max)):
            raise InvalidModelError("kappa bounds must be finite")
        if not 0 < self.kappa_min < self.kappa_max:
            raise InvalidModelError("require 0 < kappa_min < kappa_max")
        if self.samples_per_unit < 8:
            raise InvalidModelError("samples_per_unit must be at least 8")
        if not 0 < self.refine_tol <= 1e-6:
            raise InvalidModelError("refine_tol must lie in (0, 1e-6]")
        if not 0 < self.cluster_threshold < 1:
            raise InvalidModelError("cluster_threshold must lie in (0, 1)")

    def effective_density(self, p: WellParameters) -> float:
        # strong coupling sharpens root clustering; scale the grid with it
        return self.samples_per_unit * max(1.0, math.log10(1.0 + p.omega_sq))

    def grid(self, p: WellParameters, kappa_min: Optional[float] = None) -> np.ndarray:
        """The uniform scan grid on [kappa_min, kappa_max] at the effective density.

        ``kappa_min`` overrides the configured lower bound (the scan of the
        entire H starts at 0, where F itself is singular).
        """
        lo = self.kappa_min if kappa_min is None else kappa_min
        n = int(math.ceil((self.kappa_max - lo) * self.effective_density(p))) + 1
        return np.linspace(lo, self.kappa_max, n)


@dataclass(frozen=True)
class EigenvalueRecord:
    """One spectral line.  For negative-energy records kappa holds tau = |Im kappa|
    and energy = -tau^2; for ordinary records energy = kappa^2 exactly."""

    n: int
    kappa: float
    energy: float
    residual: float
    gap_prev: Optional[float]
    flag: str  # "regular" | "quasi-degenerate-pair-member" | "tangency" | "negative-energy"


@dataclass(frozen=True)
class SuspiciousSite:
    """A local |F| minimum without a sign change, refined as far as the grid allows."""

    kappa_lo: float
    kappa_hi: float
    kappa_at_min: float
    f_at_min: float
    local_scale: float
    refined_spacing: float


@dataclass(frozen=True)
class SpectrumReport:
    parameters: WellParameters
    config: ScanConfig
    levels: tuple
    negative_levels: tuple = ()

    def kappas(self):
        return np.array([r.kappa for r in self.levels])


def _local_envelope(absf: np.ndarray, window: int) -> np.ndarray:
    """Running maximum of |F| over +-window samples (rough local amplitude).

    Padding with zeros is exact because |F| >= 0.
    """
    return sliding_window_view(np.pad(absf, window), 2 * window + 1).max(axis=1)


def scan_brackets(p: WellParameters, cfg: ScanConfig):
    """Sample F on the grid; return (sign-change brackets, suspicious minima).

    Suspicious sites (deep |F| dips with no sign change) are re-sampled at
    doubled density, up to 2^10 times the base grid; dips that resolve into
    sign changes become ordinary brackets.
    """
    grid = cfg.grid(p)
    n = grid.size
    if n < 4:
        raise InvalidModelError("scan interval holds fewer than 4 grid points")
    f = np.real(secular(p, grid))

    brackets = []
    sign = np.sign(f)
    flips = np.where(sign[:-1] * sign[1:] < 0)[0]
    for i in flips:
        brackets.append((grid[i], grid[i + 1]))
    # an exact zero on the grid is a root already; give it a one-cell bracket
    for i in np.where(sign == 0)[0]:
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, n - 1)]
        brackets.append((lo, hi))

    absf = np.abs(f)
    window = max(4, int(cfg.effective_density(p)))
    env = _local_envelope(absf, window)
    interior = np.arange(1, n - 1)
    is_min = (absf[interior] <= absf[interior - 1]) & (absf[interior] <= absf[interior + 1])
    no_flip = sign[interior - 1] * sign[interior] > 0
    no_flip &= sign[interior] * sign[interior + 1] > 0
    deep = absf[interior] < 1e-3 * env[interior]
    sites = []
    for i in interior[is_min & no_flip & deep]:
        lo, hi = grid[i - 1], grid[i + 1]
        site = _densify(p, lo, hi, env[i])
        if isinstance(site, list):
            brackets.extend(site)
        elif site is not None:
            sites.append(site)
    brackets.sort()
    return brackets, sites


def _densify(p: WellParameters, lo: float, hi: float, env: float, max_doublings: int = 10):
    """Re-sample a dip at doubled density until sign changes appear or 2^10 is hit.

    Returns a list of brackets if the dip resolves, a SuspiciousSite if not,
    or None if densification reveals the dip is shallow after all.
    """
    n = 16
    for _ in range(max_doublings):
        grid = np.linspace(lo, hi, n + 1)
        f = np.real(secular(p, grid))
        sign = np.sign(f)
        flips = np.where(sign[:-1] * sign[1:] < 0)[0]
        if flips.size:
            return [(grid[i], grid[i + 1]) for i in flips]
        n *= 2
    i = int(np.argmin(np.abs(f)))
    fmin = float(f[i])
    if abs(fmin) > 0.5 * env:
        return None
    return SuspiciousSite(
        kappa_lo=lo,
        kappa_hi=hi,
        kappa_at_min=float(grid[i]),
        f_at_min=fmin,
        local_scale=float(env),
        refined_spacing=float(grid[1] - grid[0]),
    )


def _brent(f: Callable[[float], float], a: float, b: float, tol: float, max_iter: int = 200):
    """Bracketed Brent root finder (bisection + inverse quadratic / secant).

    Stays inside [a, b]; raises if the bracket has no sign change or the
    iteration budget runs out.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a, fa
    if fb == 0.0:
        return b, fb
    if fa * fb > 0:
        raise BracketingError(f"no sign change on [{a}, {b}]: F={fa:.3e}, {fb:.3e}")
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b, fb
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                pq = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                pq = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if pq > 0:
                q = -q
            pq = abs(pq)
            if 2.0 * pq < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = pq / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        else:
            b += tol1 if xm > 0 else -tol1
        fb = f(b)
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
    raise ConvergenceError(f"root refinement exceeded {max_iter} iterations on [{a}, {b}]")


def refine_root(p: WellParameters, bracket, tol: float) -> float:
    """Refine one sign-change bracket to |interval| < tol; stays inside it."""
    lo, hi = bracket
    root, _ = _brent(lambda k: float(np.real(secular(p, k))), lo, hi, tol)
    return root


def _golden_min(f: Callable[[float], float], lo: float, hi: float, tol: float):
    """Golden-section minimum of f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    return (x1, f1) if f1 < f2 else (x2, f2)


def resolve_cluster(p: WellParameters, site: SuspiciousSite):
    """Classify a suspicious dip into zero, one (tangency), or two roots.

    The decision is made by a local argument-principle count of H in a thin
    box around the dip: two enclosed zeros plus a dip minimum consistent
    with zero (below the 1e-9 * local-scale floor) is a quasi-degenerate
    pair, one enclosed zero is a tangency.

    Returns a list of (kappa, flag) pairs.
    """
    fn = lambda k: float(np.real(secular(p, k)))
    lo, hi = site.kappa_lo, site.kappa_hi
    width = hi - lo
    kmin, fmin_abs = _golden_min(lambda k: abs(fn(k)), lo, hi, tol=1e-13 * max(1.0, abs(lo)))
    fmin = fn(kmin)

    # a dense last-chance sign scan; cheap and catches barely-resolved pairs
    grid = np.linspace(lo, hi, 4097)
    fg = np.real(secular(p, grid))
    sign = np.sign(fg)
    flips = np.where(sign[:-1] * sign[1:] < 0)[0]
    if flips.size:
        roots = sorted(_brent(fn, grid[i], grid[i + 1], 1e-12)[0] for i in flips)
        # two tight crossings are a resolved pair; anything else is just
        # ordinary roots that happened to share an over-wide window
        if len(roots) == 2 and roots[1] - roots[0] < 0.1 * width:
            return [(r, "quasi-degenerate-pair-member") for r in roots]
        return [(r, "regular") for r in roots]

    floor = 1e-9 * site.local_scale
    if abs(fmin) >= floor:
        return []  # the dip never approaches zero: no spectrum here

    from .complexroots import ComplexRegion, winding_count  # deferred: avoids import cycle

    half = max(0.25 * width, 64.0 * site.refined_spacing)
    region = ComplexRegion(kmin - half, kmin + half, -half, half)
    count = winding_count(p, region).winding
    if count == 0:
        return []
    if count == 1:
        return [(kmin, "tangency")]
    if count == 2:
        gap = _pair_gap_estimate(p, kmin, fmin, width)
        return [
            (kmin - 0.5 * gap, "quasi-degenerate-pair-member"),
            (kmin + 0.5 * gap, "quasi-degenerate-pair-member"),
        ]
    raise ClusterError(
        f"winding count {count} near kappa={kmin:.6f} inconsistent with a local pair"
    )


def _pair_gap_estimate(p: WellParameters, kmin: float, fmin: float, width: float) -> float:
    """Gap of an unresolved pair from the local quadratic, floored at resolution.

    Fits F ~ f0 + c2 (k-kmin)^2 around the dip.  If the fitted parabola dips
    measurably below zero the gap is 2 sqrt(-f0/c2); otherwise the pair is
    below double-precision resolution and the noise-floor gap
    2 sqrt(noise/c2) is reported instead.
    """
    h = 0.125 * width
    ks = kmin + h * np.linspace(-1.0, 1.0, 33)
    fs = np.real(secular(p, ks))
    coef = np.polyfit(ks - kmin, fs, 2)
    c2, f0 = coef[0], coef[2]
    noise = 64.0 * _EPS * secular_scale(p, kmin)
    if abs(c2) < 1e-300:
        return math.sqrt(noise)
    if f0 * c2 < 0 and abs(f0) > noise:
        return 2.0 * math.sqrt(-f0 / c2 if c2 > 0 else f0 / -c2)
    return 2.0 * math.sqrt(noise / abs(c2))


def _negative_roots(p: WellParameters, tol: float):
    """Roots of Im F(i tau) on tau in (1e-3, tau_max), tau_max = max(10, 2 omega^2).

    Log-spaced scan of the exp(-2 tau)-scaled form (sign-equivalent), with
    the determinant path used below the overflow switch; each sign change
    is refined by Brent on a consistent evaluator.  Energies are E = -tau^2.
    """
    tau_max = max(10.0, 2.0 * p.omega_sq)
    t_sw = _tau_switch(p)
    n = max(256, int(256 * math.log10(tau_max / 1e-3)))
    grid = np.logspace(-3, math.log10(tau_max), n)
    vals = _imaginary_axis_signed(p, grid)
    sign = np.sign(vals)
    roots = []
    for i in np.where(sign[:-1] * sign[1:] < 0)[0]:
        lo, hi = grid[i], grid[i + 1]
        if hi <= t_sw or lo > t_sw:
            tau, _ = _brent(lambda t: _imaginary_axis_signed(p, t), lo, hi, tol)
        else:
            tau, _ = _brent(lambda t: float(_g_scaled(p, t)), lo, hi, tol)
        roots.append(tau)
    return sorted(roots)


def _window_medians(gaps: np.ndarray) -> np.ndarray:
    """np.median(gaps[max(0, i-4):min(G, i+4)]) for every gap i, vectorized."""
    i = np.arange(gaps.size)
    nan4 = np.full(4, np.nan)
    # row i holds gaps[i-4:i+4] of the NaN-padded gaps; NaN sorts last, so the
    # true values of each window lead its sorted row
    windows = np.sort(np.concatenate((nan4, gaps, nan4))[i[:, None] + np.arange(8)], axis=1)
    length = np.minimum(i + 4, gaps.size) - np.maximum(i - 4, 0)
    return (windows[i, (length - 1) // 2] + windows[i, length // 2]) / 2


def quasi_degenerate_gaps(gaps, threshold: float):
    """[(i, gaps[i] / median)] for each gap below threshold times its local median.

    The local median is that of the eight gaps gaps[max(0, i-4):min(G, i+4)],
    a nine-level window centred on gap i and truncated at the ends; a zero
    median flags nothing.
    """
    gaps = np.asarray(gaps, dtype=float)
    median = _window_medians(gaps)
    flagged = (median > 0) & (gaps < threshold * median)
    return [(int(i), float(gaps[i] / median[i])) for i in np.flatnonzero(flagged)]


def compute_spectrum(
    p: WellParameters, cfg: ScanConfig, include_negative: bool = False
) -> SpectrumReport:
    """Full pipeline: scan, refine, resolve clusters, sort, flag, index.

    Pair flags come from cluster resolution and from ``quasi_degenerate_gaps``
    at ``cfg.cluster_threshold``: both regular levels of each gap that
    ``analysis.gap_statistics`` lists at that threshold are marked.  Results
    are deterministic for fixed inputs.
    """
    brackets, sites = scan_brackets(p, cfg)
    found = []
    for br in brackets:
        try:
            root = refine_root(p, br, cfg.refine_tol)
        except (BracketingError, ConvergenceError) as exc:
            raise type(exc)(f"kappa window ({br[0]:.9g}, {br[1]:.9g}): {exc}") from exc
        found.append((root, "regular"))
    for site in sites:
        try:
            found.extend(resolve_cluster(p, site))
        except ClusterError as exc:
            raise ClusterError(
                f"kappa window ({site.kappa_lo:.9g}, {site.kappa_hi:.9g}): {exc}"
            ) from exc

    found.sort(key=lambda t: t[0])
    # collapse duplicates from overlapping brackets (identical root refined twice)
    dedup = []
    for k, flag in found:
        if dedup and abs(k - dedup[-1][0]) < 10 * cfg.refine_tol and flag == dedup[-1][1] == "regular":
            continue
        dedup.append((k, flag))

    kappas = np.array([k for k, _ in dedup])
    flags = [f for _, f in dedup]
    if kappas.size:
        resid = np.abs(np.real(secular(p, kappas)))
    else:
        resid = np.array([])

    gaps = np.diff(kappas)
    for i, _ in quasi_degenerate_gaps(gaps, cfg.cluster_threshold):
        for j in (i, i + 1):
            if flags[j] == "regular":
                flags[j] = "quasi-degenerate-pair-member"

    levels = []
    for i, k in enumerate(kappas):
        levels.append(
            EigenvalueRecord(
                n=i + 1,
                kappa=float(k),
                energy=float(k) ** 2,
                residual=float(resid[i]),
                gap_prev=float(gaps[i - 1]) if i > 0 else None,
                flag=flags[i],
            )
        )

    negative = []
    if include_negative:
        taus = _negative_roots(p, cfg.refine_tol)
        for j, tau in enumerate(taus):
            g = secular_imaginary_axis(p, tau)
            if math.isinf(g):  # exp(2 tau) overflows: report the scaled value
                g = float(_g_scaled(p, tau))
            negative.append(
                EigenvalueRecord(
                    n=j + 1,
                    kappa=float(tau),
                    energy=-float(tau) ** 2,
                    residual=abs(g),
                    gap_prev=None,
                    flag="negative-energy",
                )
            )

    return SpectrumReport(parameters=p, config=cfg, levels=tuple(levels), negative_levels=tuple(negative))


def find_level(p: WellParameters, level: int, kappa_max: float) -> EigenvalueRecord:
    """Record of the 1-based ``level``, scanning from kappa_max upward.

    The scan range is doubled, up to seven times, until the spectrum holds
    that many levels.
    """
    if level < 1:
        raise InvalidModelError(f"level must be at least 1, got {level}")
    for _ in range(8):
        report = compute_spectrum(p, ScanConfig(kappa_max=kappa_max))
        if len(report.levels) >= level:
            return report.levels[level - 1]
        kappa_max *= 2.0
    raise InsufficientDataError(f"level {level} not found below kappa={report.config.kappa_max}")
