"""Reference computations made apart from ptwell.

Nothing here imports ptwell.  The secular function is written again from
the paper's closed form,

    F(k) = sin 2k - (2 w^2 / k) sin k(1+a) sin k(1-a)
           + ((w^4 + eta^2) / k^2) sin 2ka sin^2 k(1-a),

with H(k) = k^2 F(k) for complex-plane work.  On top of it sit a real root
finder (grid scan plus scipy's brentq), a dip classifier that evaluates F
with mpmath at two working precisions, an argument-principle zero count of
H with its own adaptive contour sum, Gauss-Legendre norms of the
piecewise eigenfunction, and the first-order shift of a level under the
oracle's Gaussian regularization.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import mpmath
import numpy as np
from scipy.optimize import brentq

EPS = float(np.finfo(float).eps)
DIP_PRECISIONS = (50, 80)  # decimal digits; a dip verdict must agree at both


class Params(NamedTuple):
    a: float
    omega: float
    eta: float


class ReferenceError(RuntimeError):
    """A reference computation could not reach a verdict."""


def secular(p: Params, k):
    k = np.asarray(k)
    w2 = p.omega * p.omega
    q = w2 * w2 + p.eta * p.eta
    s = np.sin(k * (1.0 - p.a))
    return np.sin(2.0 * k) - (2.0 * w2 / k) * np.sin(k * (1.0 + p.a)) * s + (q / (k * k)) * np.sin(
        2.0 * k * p.a
    ) * s * s


def entire(p: Params, k):
    k = np.asarray(k)
    w2 = p.omega * p.omega
    q = w2 * w2 + p.eta * p.eta
    s = np.sin(k * (1.0 - p.a))
    return k * k * np.sin(2.0 * k) - 2.0 * w2 * k * np.sin(k * (1.0 + p.a)) * s + q * np.sin(
        2.0 * k * p.a
    ) * s * s


def term_scale(p: Params, k):
    """Size of the largest secular term at k: rounding noise in F is ~EPS times this."""
    ak = np.abs(np.asarray(k))
    w2 = p.omega * p.omega
    grow = np.exp(2.0 * np.abs(np.imag(k)))
    return (1.0 + 2.0 * w2 / ak + (w2 * w2 + p.eta * p.eta) / (ak * ak)) * grow


def scan_density(p: Params) -> float:
    """Samples per unit kappa: three times the density ptwell's own scan uses."""
    return 3.0 * 64.0 * max(1.0, math.log10(1.0 + p.omega * p.omega))


def running_max(x: np.ndarray, window: int) -> np.ndarray:
    pad = np.pad(x, window, mode="edge")
    return np.lib.stride_tricks.sliding_window_view(pad, 2 * window + 1).max(axis=1)


class Scan(NamedTuple):
    grid: np.ndarray
    f: np.ndarray
    noise: np.ndarray  # 64 EPS times the term scale at each sample
    env: np.ndarray  # running max of |F| over about one unit of kappa


def scan(p: Params, k_lo: float, k_hi: float) -> Scan:
    density = scan_density(p)
    n = int(math.ceil((k_hi - k_lo) * density)) + 1
    grid = np.linspace(k_lo, k_hi, n)
    f = secular(p, grid)
    return Scan(grid, f, 64.0 * EPS * term_scale(p, grid), running_max(np.abs(f), int(density)))


def certain_flips(s: Scan) -> np.ndarray:
    """Cells whose ends have opposite signs, both well above the rounding noise."""
    ok = np.abs(s.f) > s.noise
    return np.where((s.f[:-1] * s.f[1:] < 0) & ok[:-1] & ok[1:])[0]


def dip_windows(s: Scan, depth: float = 1e-3):
    """(lo, hi) windows around deep |F| minima that show no certain sign change.

    A window spans the minimum's two neighbouring samples; F' changes sign
    inside it.  Near-zero samples (inside the noise) count as part of a dip.
    """
    absf = np.abs(s.f)
    i = np.arange(1, absf.size - 1)
    is_min = (absf[i] <= absf[i - 1]) & (absf[i] <= absf[i + 1])
    deep = absf[i] < depth * s.env[i]
    flips = set(certain_flips(s).tolist())
    out = []
    for j in i[is_min & deep]:
        if (j - 1) in flips or j in flips:
            continue
        out.append((float(s.grid[j - 1]), float(s.grid[j + 1])))
    return out


# ---------------------------------------------------------------------------
# multiprecision dip classification


def mp_functions(p: Params):
    """(F, F') as mpmath functions, at the working precision they are called in."""
    a, w, eta = mpmath.mpf(p.a), mpmath.mpf(p.omega), mpmath.mpf(p.eta)
    w2 = w * w
    q = w2 * w2 + eta * eta
    b, c = 1 - a, 1 + a

    def f(k):
        s = mpmath.sin(k * b)
        return mpmath.sin(2 * k) - 2 * w2 / k * mpmath.sin(k * c) * s + q / (k * k) * mpmath.sin(2 * k * a) * s * s

    def df(k):
        sb, cb = mpmath.sin(k * b), mpmath.cos(k * b)
        sc, cc = mpmath.sin(k * c), mpmath.cos(k * c)
        s2a, c2a = mpmath.sin(2 * k * a), mpmath.cos(2 * k * a)
        mid = sc * sb
        dmid = c * cc * sb + b * sc * cb
        last = s2a * sb * sb
        dlast = 2 * a * c2a * sb * sb + 2 * b * s2a * sb * cb
        return 2 * mpmath.cos(2 * k) + 2 * w2 / (k * k) * mid - 2 * w2 / k * dmid - 2 * q / k**3 * last + q / (k * k) * dlast

    return f, df


def _illinois(f, lo, hi, flo, fhi, tol):
    """Bracketed false position with the Illinois fix; f(lo), f(hi) of opposite sign."""
    side = 0
    x = lo
    for _ in range(400):
        x = (lo * fhi - hi * flo) / (fhi - flo)
        fx = f(x)
        if fx == 0:
            return x
        if (fx > 0) == (flo > 0):
            lo, flo = x, fx
            if side == -1:
                fhi /= 2
            side = -1
        else:
            hi, fhi = x, fx
            if side == 1:
                flo /= 2
            side = 1
        if hi - lo < tol:
            return x
    raise ReferenceError(f"bracketed root did not converge on [{lo}, {hi}]")


class DipVerdict(NamedTuple):
    kind: str  # "real-pair" | "complex-pair"
    k_crit: float
    f_crit: float  # F at the critical point (rounded to double)
    zeros: tuple  # the two real zeros, rounded to double; () for a complex pair
    gap: float  # distance between the two real zeros; 0 for a complex pair
    im_estimate: float  # |Im kappa| from the local parabola; 0 for a real pair
    curvature: float  # F''(k_crit) / 2


def _classify_at(p: Params, lo: float, hi: float, dps: int):
    with mpmath.workdps(dps):
        f, df = mp_functions(p)
        mlo, mhi = mpmath.mpf(lo), mpmath.mpf(hi)
        flo, fhi = f(mlo), f(mhi)
        if (flo > 0) != (fhi > 0):
            raise ReferenceError(f"window [{lo}, {hi}] holds an odd number of zeros, not a dip")
        dlo, dhi = df(mlo), df(mhi)
        if (dlo > 0) == (dhi > 0):
            raise ReferenceError(f"F' keeps its sign on [{lo}, {hi}]: no critical point")
        tol = mpmath.mpf(10) ** (-(dps - 8)) * (1 + abs(mlo))
        kc = _illinois(df, mlo, mhi, dlo, dhi, tol)
        fc = f(kc)
        curv = mpmath.diff(f, kc, 2) / 2
        if fc != 0 and (fc > 0) == (flo > 0):
            im = float(mpmath.sqrt(abs(fc / curv))) if curv != 0 else math.inf
            return "complex-pair", kc, fc, (), 0, im, curv
        z1 = _illinois(f, mlo, kc, flo, fc, tol) if fc != 0 else kc
        z2 = _illinois(f, kc, mhi, fc, fhi, tol) if fc != 0 else kc
        return "real-pair", kc, fc, (z1, z2), z2 - z1, 0.0, curv


def classify_dip(p: Params, lo: float, hi: float, precisions=DIP_PRECISIONS) -> DipVerdict:
    """Decide whether the dip of F on [lo, hi] holds two real zeros or a conjugate pair.

    F must have the same sign at both ends and one critical point inside.
    The verdict is made at each working precision and accepted only when
    they agree on the kind and on the critical point.  Parameters are
    taken as exact binary doubles.
    """
    results = [_classify_at(p, lo, hi, d) for d in precisions]
    kinds = {r[0] for r in results}
    if len(kinds) != 1:
        raise ReferenceError(f"dip on [{lo}, {hi}]: verdict changes with precision: {kinds}")
    kind, kc, fc, zeros, gap, im, curv = results[0]
    for other in results[1:]:
        if abs(other[1] - kc) > 1e-30 * (1 + abs(kc)):
            raise ReferenceError(f"dip on [{lo}, {hi}]: critical point moves with precision")
    return DipVerdict(kind, float(kc), float(fc), tuple(float(z) for z in zeros), float(gap), im, float(curv))


# ---------------------------------------------------------------------------
# real roots


class RealRoots(NamedTuple):
    simple: tuple  # refined sign-change roots (double)
    pairs: tuple  # DipVerdict of each deep dip holding a real pair
    conjugates: tuple  # DipVerdict of each deep dip holding a conjugate pair


def real_roots(p: Params, k_lo: float, k_hi: float, precisions=DIP_PRECISIONS):
    """All real zeros of F on (k_lo, k_hi), with deep dips settled by classify_dip."""
    s = scan(p, k_lo, k_hi)
    f = lambda k: float(secular(p, k))  # noqa: E731
    simple = tuple(
        brentq(f, s.grid[i], s.grid[i + 1], xtol=1e-15, rtol=4 * EPS, maxiter=200) for i in certain_flips(s)
    )
    pairs, conj = [], []
    for lo, hi in dip_windows(s):
        try:
            v = classify_dip(p, lo, hi, precisions)
        except ReferenceError:
            continue  # shallow wiggle of F': no critical point with a dip
        (pairs if v.kind == "real-pair" else conj).append(v)
    return RealRoots(simple, tuple(pairs), tuple(conj)), s


def lowest_isolated_roots(p: Params, count: int, k_hi: float, min_rel_gap: float = 0.1):
    """The lowest ``count`` real zeros, if each is a clean simple crossing.

    Returns None when a deep dip (a pair, real or complex) lies below the
    highest of them or two of them are closer than ``min_rel_gap`` of
    their mean spacing; such points are not used as eigen-inputs.
    """
    s = scan(p, 1e-3, k_hi)
    flips = certain_flips(s)
    if flips.size < count:
        return None
    f = lambda k: float(secular(p, k))  # noqa: E731
    roots = [brentq(f, s.grid[i], s.grid[i + 1], xtol=1e-15, rtol=4 * EPS) for i in flips[: count + 1]]
    top = roots[count - 1]
    if any(lo < top for lo, _ in dip_windows(s, depth=1e-2)):
        return None
    gaps = np.diff(roots)
    if gaps.size and gaps.min() < min_rel_gap * gaps.mean():
        return None
    for k in roots[:count]:
        d = 1e-6 * k
        if abs(float(secular(p, k + d)) - float(secular(p, k - d))) < 1e-4 * d * float(term_scale(p, k)):
            return None  # too flat a crossing to be a regular level
    return roots[:count]


# ---------------------------------------------------------------------------
# argument-principle zero count


def zero_count(p: Params, re_lo: float, re_hi: float, im_lo: float, im_hi: float) -> int:
    """Zeros of H inside the rectangle, from the winding of arg H along its edge.

    The boundary is sampled and segments are bisected until every phase
    step is below pi/4.  Raises when the winding does not settle or the
    contour passes within rounding of a zero.
    """
    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo), complex(re_hi, im_hi), complex(re_lo, im_hi)]
    pts = []
    for c0, c1 in zip(corners, corners[1:] + corners[:1]):
        n = max(64, int(abs(c1 - c0) * 64))
        pts.append(c0 + (c1 - c0) * np.arange(n) / n)
    z = np.concatenate(pts)
    h = entire(p, z)
    while True:
        rel = np.abs(h) / (np.abs(z) ** 2 * term_scale(p, z))
        if rel.min() < 1e-12:
            raise ReferenceError("contour passes within rounding of a zero of H")
        steps = np.angle(np.roll(h, -1) / h)
        bad = np.abs(steps) > 0.25 * math.pi
        if not bad.any():
            w = float(steps.sum()) / (2 * math.pi)
            if abs(w - round(w)) > 0.01:
                raise ReferenceError(f"winding {w} is not an integer")
            return int(round(w))
        if z.size > 1 << 21:
            raise ReferenceError("contour sample budget exhausted")
        idx = np.where(bad)[0]
        mids = 0.5 * (z[idx] + z[(idx + 1) % z.size])
        z = np.insert(z, idx + 1, mids)
        h = np.insert(h, idx + 1, entire(p, mids))


# ---------------------------------------------------------------------------
# eigenfunction norms


def psi(p: Params, kappa: float, coeffs, x):
    """The piecewise eigenfunction with matching coefficients (alpha, beta, gamma, delta)."""
    al, be, ga, de = coeffs
    x = np.asarray(x, dtype=float)
    left = (al - 1j * be) * np.sin(kappa * (x + 1.0))
    mid = ga * np.cos(kappa * x) + 1j * de * np.sin(kappa * x)
    right = (al + 1j * be) * np.sin(kappa * (1.0 - x))
    return np.where(x < -p.a, left, np.where(x < p.a, mid, right))


def _gauss_legendre(p: Params, kappa: float):
    """Composite 24-point Gauss-Legendre nodes and weights on (-1, -a), (-a, a) and (a, 1).

    Each piece is cut into panels of width at most 1/(1 + kappa), so every
    panel spans well under one oscillation.
    """
    t, wts = np.polynomial.legendre.leggauss(24)
    for lo, hi in ((-1.0, -p.a), (-p.a, p.a), (p.a, 1.0)):
        panels = max(1, int(math.ceil((hi - lo) * (1.0 + abs(kappa)))))
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        yield (mid[:, None] + half[:, None] * t[None, :]).ravel(), (half[:, None] * wts[None, :]).ravel()


def gauss_legendre_norms(p: Params, kappa: float, coeffs):
    """(L2 norm, parity pseudo-norm int psi(-x) psi(x) dx) by composite Gauss-Legendre."""
    l2 = 0.0
    pseudo = 0.0 + 0.0j
    for x, w in _gauss_legendre(p, kappa):
        v = psi(p, kappa, coeffs, x)
        vm = psi(p, kappa, coeffs, -x)
        l2 += float(np.sum(w * np.abs(v) ** 2))
        pseudo += complex(np.sum(w * v * vm))
    return math.sqrt(l2), pseudo


# ---------------------------------------------------------------------------
# regularization shift of a level


def regularization_shift(p: Params, kappa: float, sigma: float):
    """Shift of E = kappa^2, to first order in sigma, when each delta becomes a Gaussian of width sigma.

    With strengths g = -omega^2 -+ i eta at x = -+a, the difference of the
    two potentials contributes sigma sqrt(2/pi) g^2 psi(x_g)^2 at first
    order of perturbation theory, and -sigma (sqrt 2 - 1)/sqrt(pi) g^2
    psi(x_g)^2 at second order through the local Green's function
    |x - x'| / 2; together

        dE = (sigma / sqrt(pi)) sum_g g^2 psi(x_g)^2 / int psi^2,

    with the bilinear norm (the problem is complex symmetric).  psi is
    propagated here from psi(-1) = 0 through both jumps.  Returns
    (dE, scale), where scale is the same sum with every term replaced by
    its modulus: the size of the first-order term before its parts cancel.
    """
    k = kappa
    g_minus, g_plus = complex(-p.omega**2, -p.eta), complex(-p.omega**2, p.eta)

    def piece(x0, v0, d0):
        return lambda x: v0 * np.cos(k * (x - x0)) + d0 / k * np.sin(k * (x - x0))

    v_minus = math.sin(k * (1.0 - p.a)) / k
    d_minus = math.cos(k * (1.0 - p.a)) + g_minus * v_minus
    middle = piece(-p.a, v_minus, d_minus)
    v_plus = complex(middle(p.a))
    d_plus = -v_minus * k * math.sin(2.0 * k * p.a) + d_minus * math.cos(2.0 * k * p.a) + g_plus * v_plus
    pieces = (lambda x: np.sin(k * (x + 1.0)) / k, middle, piece(p.a, v_plus, d_plus))
    norm = sum(complex(np.sum(w * f(x) ** 2)) for (x, w), f in zip(_gauss_legendre(p, k), pieces))
    c = sigma / math.sqrt(math.pi) / norm
    terms = (g_minus**2 * v_minus**2, g_plus**2 * v_plus**2)
    return c * sum(terms), abs(c) * sum(abs(t) for t in terms)
