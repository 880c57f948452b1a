"""Envelope, beat, and gap analyses of the secular function.

The oscillatory secular function develops a slow "envelope" at strong
coupling: the curve through its local maxima.  Its turning points define
the beat period; consecutive-gap statistics of the spectrum expose
quasi-degenerate pairs.  ``figure_data`` bundles everything for the seven
canonical parameter regimes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InsufficientDataError, InvalidModelError
from .realroots import ScanConfig, SpectrumReport, compute_spectrum, quasi_degenerate_gaps
from .secular import WellParameters, secular

__all__ = [
    "EnvelopeTrace",
    "BeatStats",
    "GapStatistics",
    "FigureDataset",
    "FIGURE_PARAMETERS",
    "trace_envelope",
    "beat_period",
    "gap_statistics",
    "figure_data",
]

# canonical regimes: (a, omega, eta, kappa_range)
FIGURE_PARAMETERS = {
    1: (0.95, 1.5, 20.0, (1e-3, 15.0)),
    2: (0.95, 15000.0, 20.0, (1e-3, 60.0)),
    3: (0.85, 15000.0, 20.0, (1e-3, 60.0)),
    4: (0.65, 15000.0, 20.0, (1e-3, 60.0)),
    5: (0.65, 150.0, 20.0, (1e-3, 60.0)),
    6: (0.35, 15000.0, 20.0, (1e-3, 60.0)),
    7: (0.35, 150.0, 20.0, (1e-3, 60.0)),
}


@dataclass(frozen=True)
class EnvelopeTrace:
    """Local extrema of F and the turning points of the maxima curve.

    maxima/minima: arrays of (kappa, F) rows; envelope_extrema: tuple of
    (kappa, |F|, kind) with kind +1 for a crest of the maxima curve and
    -1 for a trough.
    """

    maxima: np.ndarray
    minima: np.ndarray
    envelope_extrema: tuple


@dataclass(frozen=True)
class BeatStats:
    mean: float
    std: float
    spacings: tuple


@dataclass(frozen=True)
class GapStatistics:
    gaps: np.ndarray
    median_gap: float
    quasi_degenerate_pairs: tuple  # (n, n+1, gap / rolling median)


@dataclass(frozen=True)
class FigureDataset:
    figure_id: int
    parameters: WellParameters
    kappa_range: tuple
    kappa_grid: np.ndarray
    f_values: np.ndarray
    report: SpectrumReport
    envelope: Optional[EnvelopeTrace]  # None when the range holds too few maxima
    gaps: Optional[GapStatistics]


def _parabolic_vertex(x0, x1, x2, y0, y1, y2):
    """Vertex of the parabola through three points (uniform spacing not assumed)."""
    d1 = (y1 - y0) / (x1 - x0)
    d2 = (y2 - y1) / (x2 - x1)
    curv = (d2 - d1) / (x2 - x0)
    if curv == 0:
        return x1, y1
    xv = 0.5 * (x0 + x1 - d1 / curv)
    # evaluate the interpolant at the vertex for a consistent height
    yv = (
        y0 * (xv - x1) * (xv - x2) / ((x0 - x1) * (x0 - x2))
        + y1 * (xv - x0) * (xv - x2) / ((x1 - x0) * (x1 - x2))
        + y2 * (xv - x0) * (xv - x1) / ((x2 - x0) * (x2 - x1))
    )
    return xv, yv


def _local_extrema(x: np.ndarray, y: np.ndarray, kind: str, prominence: float = 0.0):
    """Indices of strict three-point extrema, refined parabolically.

    ``prominence`` suppresses turning points whose height difference from
    both neighbours is below the threshold (a flat curve sampled at
    roundoff noise has no extrema).
    """
    if kind == "max":
        mask = (y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])
    else:
        mask = (y[1:-1] < y[:-2]) & (y[1:-1] <= y[2:])
    if prominence > 0.0:
        mask &= (np.abs(y[1:-1] - y[:-2]) > prominence) & (
            np.abs(y[1:-1] - y[2:]) > prominence
        )
    idx = np.where(mask)[0] + 1
    out_x, out_y = [], []
    for i in idx:
        xv, yv = _parabolic_vertex(x[i - 1], x[i], x[i + 1], y[i - 1], y[i], y[i + 1])
        out_x.append(xv)
        out_y.append(yv)
    return np.array(out_x), np.array(out_y)


def trace_envelope(p: WellParameters, kappa_range) -> EnvelopeTrace:
    """Sample F on the scan grid of kappa_range and trace its envelope.

    Raises when the range holds fewer than 8 local maxima of F.
    """
    lo, hi = kappa_range
    grid = ScanConfig(kappa_max=hi, kappa_min=lo).grid(p)
    return _envelope_of(grid, np.real(secular(p, grid)))


def _envelope_of(grid: np.ndarray, f: np.ndarray) -> EnvelopeTrace:
    """Local extrema of sampled F and the turning points of the maxima curve.

    The envelope's own extrema come from the same three-point comparison
    applied to the sequence of refined maxima.
    """
    mx, my = _local_extrema(grid, f, "max")
    nx, ny = _local_extrema(grid, f, "min")
    if mx.size < 8:
        raise InsufficientDataError(
            f"only {mx.size} local maxima on ({grid[0]}, {grid[-1]}); envelope needs at least 8"
        )
    maxima = np.column_stack([mx, my])
    minima = np.column_stack([nx, ny])

    extrema = []
    prominence = 1e-6 * float(np.max(np.abs(my)))  # flat envelopes have none
    for kind_name, sign in (("max", +1), ("min", -1)):
        ex, ey = _local_extrema(mx, my, kind_name, prominence=prominence)
        for xv, yv in zip(ex, ey):
            extrema.append((float(xv), abs(float(yv)), sign))
    extrema.sort()
    return EnvelopeTrace(maxima=maxima, minima=minima, envelope_extrema=tuple(extrema))


def beat_period(trace: EnvelopeTrace) -> BeatStats:
    """Mean distance between successive same-kind envelope extrema.

    Needs at least 3 envelope extrema; crest-to-crest and trough-to-trough
    spacings are pooled.
    """
    ext = trace.envelope_extrema
    if len(ext) < 3:
        raise InsufficientDataError(
            f"only {len(ext)} envelope extrema; beat period needs at least 3"
        )
    spacings = []
    for kind in (+1, -1):
        ks = [e[0] for e in ext if e[2] == kind]
        spacings.extend(np.diff(ks))
    if not spacings:
        raise InsufficientDataError("no same-kind envelope extremum pairs")
    arr = np.array(spacings)
    return BeatStats(mean=float(arr.mean()), std=float(arr.std()), spacings=tuple(arr))


def gap_statistics(report, threshold: Optional[float] = None) -> GapStatistics:
    """Consecutive-gap statistics with quasi-degenerate pair flags.

    Pairs come from ``realroots.quasi_degenerate_gaps``, the rule that also
    sets the pair flags of ``compute_spectrum``.  Accepts a SpectrumReport
    or a plain sequence of kappa values.  ``threshold`` defaults to the
    report's ``config.cluster_threshold``, so every pair listed is flagged
    in the report, and to 0.1 for a plain sequence.
    """
    if isinstance(report, SpectrumReport):
        kappas = report.kappas()
        default = report.config.cluster_threshold
    else:
        kappas = np.asarray(report, dtype=float)
        default = 0.1
    if threshold is None:
        threshold = default
    if kappas.size < 4:
        raise InsufficientDataError(f"need at least 4 levels, got {kappas.size}")
    gaps = np.diff(kappas)
    pairs = tuple((i + 1, i + 2, ratio) for i, ratio in quasi_degenerate_gaps(gaps, threshold))
    return GapStatistics(
        gaps=gaps, median_gap=float(np.median(gaps)), quasi_degenerate_pairs=pairs
    )


def figure_data(figure_id: int, kappa_max: Optional[float] = None) -> FigureDataset:
    """Full dataset (scan, spectrum, envelope, gaps) for one canonical regime."""
    if figure_id not in FIGURE_PARAMETERS:
        raise InvalidModelError(f"figure_id must be 1..7, got {figure_id}")
    a, omega, eta, (k_lo, k_hi) = FIGURE_PARAMETERS[figure_id]
    if kappa_max is not None:
        k_hi = float(kappa_max)
    p = WellParameters(a=a, omega=omega, eta=eta)
    cfg = ScanConfig(kappa_max=k_hi, kappa_min=k_lo)
    grid = cfg.grid(p)
    f = np.real(secular(p, grid))
    report = compute_spectrum(p, cfg)
    try:
        envelope = _envelope_of(grid, f)
    except InsufficientDataError:
        envelope = None
    try:
        gaps = gap_statistics(report)
    except InsufficientDataError:
        gaps = None
    return FigureDataset(
        figure_id=figure_id,
        parameters=p,
        kappa_range=(k_lo, k_hi),
        kappa_grid=grid,
        f_values=f,
        report=report,
        envelope=envelope,
        gaps=gaps,
    )
