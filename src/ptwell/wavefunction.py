"""Eigenfunction reconstruction from the 4x4 matching system.

The piecewise ansatz (coefficients alpha, beta, gamma, delta):

    psi(x) = (alpha - i beta) sin kappa(x+1)            on (-1, -a)
           = gamma cos(kappa x) + i delta sin(kappa x)  on (-a,  a)
           = (alpha + i beta) sin kappa(1-x)            on ( a,  1)

vanishes at the walls by construction; the coefficients are the nullspace
of the matching matrix at an eigen-kappa.  The phase convention (largest
coefficient real positive) makes psi = psi_S + i psi_A with psi_S even
and psi_A odd, both real-valued, whenever the eigenvalue is real.

psi is a trigonometric polynomial on each cell, so its L2 norm and parity
pseudo-norm are exact closed-form sums of cell integrals; no quadrature.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConventionError, InvalidModelError, NullspaceError
from .secular import WellParameters, matching_matrix

__all__ = [
    "Wavefunction",
    "ParityParts",
    "nullspace_coeffs",
    "build_wavefunction",
    "parity_decompose",
    "norms",
]


def _nullspace_4x4(m: np.ndarray, rank_tol: float = 1e-8):
    """One-dimensional nullspace of a 4x4 by full-pivot Gaussian elimination.

    Returns (vector, pivots).  Raises NullspaceError when the numerical
    rank is 4 (no nullspace: kappa is not an eigenvalue) or at most 2
    (degenerate nullspace: exact degeneracy flagged to the caller).
    """
    a = np.array(m, dtype=complex)
    col_perm = list(range(4))
    pivots = []
    for step in range(3):
        sub = np.abs(a[step:, step:])
        i_rel, j_rel = np.unravel_index(np.argmax(sub), sub.shape)
        i, j = step + i_rel, step + j_rel
        if i != step:
            a[[step, i], :] = a[[i, step], :]
        if j != step:
            a[:, [step, j]] = a[:, [j, step]]
            col_perm[step], col_perm[j] = col_perm[j], col_perm[step]
        piv = a[step, step]
        pivots.append(abs(piv))
        if abs(piv) == 0.0:
            break
        for r in range(step + 1, 4):
            a[r, step:] -= (a[r, step] / piv) * a[step, step:]
    pivots.append(abs(a[3, 3]))
    pivots += [0.0] * (4 - len(pivots))

    scale = max(pivots[0], 1e-300)
    rank = sum(1 for pv in pivots if pv > rank_tol * scale)
    if rank == 4:
        raise NullspaceError(
            f"matrix numerically nonsingular (pivots {pivots}); kappa is not an eigenvalue",
            rank=4,
        )
    if rank <= 2:
        raise NullspaceError(
            f"nullspace dimension {4 - rank} > 1 (pivots {pivots}); exact degeneracy",
            rank=rank,
        )

    # rank 3: free variable is the last permuted column
    x = np.zeros(4, dtype=complex)
    x[3] = 1.0
    for r in (2, 1, 0):
        x[r] = -(a[r, r + 1 :] @ x[r + 1 :]) / a[r, r]
    out = np.zeros(4, dtype=complex)
    for pos, orig in enumerate(col_perm):
        out[orig] = x[pos]
    return out, pivots


def nullspace_coeffs(p: WellParameters, kappa, rank_tol: float = 1e-8):
    """Matching-matrix nullspace at an eigen-kappa as (alpha, beta, gamma, delta).

    Normalized so the largest-magnitude coefficient is exactly 1 with zero
    phase; for real kappa the vector is then real.
    """
    m = matching_matrix(p, kappa).entries
    vec, _ = _nullspace_4x4(m, rank_tol)
    i = int(np.argmax(np.abs(vec)))
    vec = vec / vec[i]
    return tuple(vec)


@dataclass(frozen=True)
class Wavefunction:
    """Piecewise eigenfunction; immutable and safe to share."""

    kappa: complex
    alpha: complex
    beta: complex
    gamma: complex
    delta: complex
    parameters: WellParameters

    def value(self, x, side: str = "+"):
        """psi(x) for scalar or array x in [-1, 1].

        ``side`` selects the branch exactly at the interfaces x = -+a:
        "+" evaluates the limit from above, "-" from below (the two agree
        to roundoff by construction; the derivative does not).
        """
        return self._eval(x, side, derivative=False)

    def derivative(self, x, side: str = "+"):
        """psi'(x) with the same side convention as :meth:`value`."""
        return self._eval(x, side, derivative=True)

    def __call__(self, x, side: str = "+"):
        return self.value(x, side)

    def _eval(self, x, side, derivative):
        if side not in ("+", "-"):
            raise InvalidModelError(f"side must be '+' or '-', got {side!r}")
        xa = np.asarray(x, dtype=float)
        if np.any(xa < -1.0) or np.any(xa > 1.0):
            raise InvalidModelError("x outside the box [-1, 1]")
        k = self.kappa
        a = self.parameters.a
        cl = self.alpha - 1j * self.beta
        cr = self.alpha + 1j * self.beta

        if derivative:
            left = k * cl * np.cos(k * (xa + 1.0))
            center = -k * self.gamma * np.sin(k * xa) + 1j * k * self.delta * np.cos(k * xa)
            right = -k * cr * np.cos(k * (1.0 - xa))
        else:
            left = cl * np.sin(k * (xa + 1.0))
            center = self.gamma * np.cos(k * xa) + 1j * self.delta * np.sin(k * xa)
            right = cr * np.sin(k * (1.0 - xa))

        if side == "+":
            out = np.where(xa < -a, left, np.where(xa < a, center, right))
        else:
            out = np.where(xa <= -a, left, np.where(xa <= a, center, right))
        if np.ndim(x) == 0:
            return complex(out)
        return out

    def max_abs(self, samples: int = 1001) -> float:
        grid = np.linspace(-1.0, 1.0, samples)
        return float(np.max(np.abs(self.value(grid))))


def build_wavefunction(
    p: WellParameters, kappa, rank_tol: float = 1e-8, normalize_pseudo: bool = False
) -> Wavefunction:
    """Reconstruct the eigenfunction at a refined eigen-kappa.

    By default the largest coefficient is 1 (the phase convention).  With
    ``normalize_pseudo`` the coefficients are further divided by the
    principal square root of the parity pseudo-norm, making
    int psi(-x) psi(x) dx = 1; this is one of the two norm candidates and
    is never applied silently.
    """
    alpha, beta, gamma, delta = nullspace_coeffs(p, kappa, rank_tol)
    psi = Wavefunction(
        kappa=complex(kappa), alpha=alpha, beta=beta, gamma=gamma, delta=delta, parameters=p
    )
    if normalize_pseudo:
        _, pt = norms(psi)
        if abs(pt) == 0.0:
            raise ConventionError("pseudo-norm vanishes; cannot normalize")
        s = 1.0 / np.sqrt(complex(pt))
        psi = Wavefunction(
            kappa=psi.kappa,
            alpha=alpha * s,
            beta=beta * s,
            gamma=gamma * s,
            delta=delta * s,
            parameters=p,
        )
    return psi


@dataclass(frozen=True)
class ParityParts:
    """Even real part psi_S and odd real part psi_A of psi = psi_S + i psi_A."""

    psi_S: Callable
    psi_A: Callable


def parity_decompose(psi: Wavefunction, grid_points: int = 1001, tol: float = 1e-10) -> ParityParts:
    """Split psi into its even (psi_S) and odd (psi_A) real-valued parts.

    Validates the phase convention on a symmetric grid: the real part of
    psi must be even and the imaginary part odd to within ``tol`` relative
    to max|psi|; a violation signals a phase bug or a complex eigenvalue.
    """
    x = np.linspace(-1.0, 1.0, grid_points)
    v = psi.value(x)
    vm = psi.value(-x)
    scale = float(np.max(np.abs(v))) or 1.0
    odd_real = np.max(np.abs(v.real - vm.real)) / scale
    even_imag = np.max(np.abs(v.imag + vm.imag)) / scale
    if odd_real > tol or even_imag > tol:
        raise ConventionError(
            f"parity convention violated: odd(Re psi)={odd_real:.2e}, "
            f"even(Im psi)={even_imag:.2e} exceed {tol:.1e}"
        )

    def psi_S(xq):
        return 0.5 * np.real(psi.value(xq) + psi.value(-np.asarray(xq)))

    def psi_A(xq):
        return 0.5 * np.imag(psi.value(xq) - psi.value(-np.asarray(xq)))

    return ParityParts(psi_S=psi_S, psi_A=psi_A)


def _sin_ratio(w: complex, h: float):
    """sin(2 w h) / (2 w), with its limit h at w = 0."""
    return h if w == 0 else cmath.sin(2 * w * h) / (2 * w)


def norms(psi: Wavefunction):
    """(L2 norm, parity pseudo-norm) of psi, in closed form.

    l2 = (int |psi|^2)^(1/2); pseudo = int psi(-x) psi(x) dx.  With
    kappa = p + iq, L = 1 - a, c_l = alpha - i beta and c_r = alpha + i beta,
    the cell integrals are

        outer = int_0^L  |sin kappa t|^2 dt = (sinh(2qL)/(2q) - sin(2pL)/(2p)) / 2
        cc    = int_-a^a |cos kappa x|^2 dx = sinh(2qa)/(2q) + sin(2pa)/(2p)
        ss    = int_-a^a |sin kappa x|^2 dx = sinh(2qa)/(2q) - sin(2pa)/(2p)

    and the centre cross term cos(kappa x) conj(sin kappa x) is odd, so

        l2^2   = (|c_l|^2 + |c_r|^2) outer + |gamma|^2 cc + |delta|^2 ss
        pseudo = c_l c_r (L - s(L)) + gamma^2 (a + s(a)) + delta^2 (a - s(a))

    with s(h) = sin(2 kappa h)/(2 kappa); sinh(2qh)/(2q) is the same ratio
    at w = iq.  Each ratio takes its limit h at a zero frequency, so real
    and imaginary kappa (negative energies) are both covered.
    """
    k = complex(psi.kappa)
    a = psi.parameters.a
    L = 1.0 - a
    cl = psi.alpha - 1j * psi.beta
    cr = psi.alpha + 1j * psi.beta
    p, iq = k.real, 1j * k.imag
    outer = 0.5 * (_sin_ratio(iq, L) - _sin_ratio(p, L)).real
    sinh_a, sin_a = _sin_ratio(iq, a).real, _sin_ratio(p, a).real
    l2_sq = (abs(cl) ** 2 + abs(cr) ** 2) * outer + abs(psi.gamma) ** 2 * (sinh_a + sin_a)
    l2_sq += abs(psi.delta) ** 2 * (sinh_a - sin_a)
    sa = _sin_ratio(k, a)
    pt = cl * cr * (L - _sin_ratio(k, L)) + psi.gamma**2 * (a + sa) + psi.delta**2 * (a - sa)
    return math.sqrt(l2_sq), complex(pt)
