"""Command-line interface: machine-readable spectra, scans, and census reports.

Numeric output uses 17 significant digits so CSV and JSON round-trip
doubles bit-faithfully.  Exit codes: 0 success, 2 usage error (argparse),
3 computation error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .analysis import FIGURE_PARAMETERS, figure_data
from .complexroots import breaking_search
from .errors import PtwellError
from .oracle import convergence_study
from .realroots import ScanConfig, SpectrumReport, compute_spectrum, find_level
from .secular import WellParameters, entire_secular, secular
from .wavefunction import build_wavefunction, parity_decompose

__all__ = ["main"]


def _fmt(x) -> str:
    return f"{x:.17g}"


def _write(path, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _params_from(args) -> WellParameters:
    return WellParameters(a=args.a, omega=args.omega, eta=args.eta)


def _config_from(args) -> ScanConfig:
    return ScanConfig(
        kappa_max=args.kappa_max,
        kappa_min=args.kappa_min,
        samples_per_unit=args.density,
        refine_tol=args.tol,
    )


def _record_row(r) -> dict:
    return {
        "n": r.n,
        "kappa": r.kappa,
        "energy": r.energy,
        "residual": r.residual,
        "gap_prev": r.gap_prev,
        "flag": r.flag,
    }


def _report_dict(report: SpectrumReport) -> dict:
    return {
        "parameters": asdict(report.parameters),
        "config": asdict(report.config),
        "levels": [_record_row(r) for r in report.levels],
        "negative_levels": [_record_row(r) for r in report.negative_levels],
    }


def _spectrum_csv(report: SpectrumReport) -> str:
    lines = ["n,kappa,energy,residual,gap_prev,flag"]
    for r in list(report.levels) + list(report.negative_levels):
        gp = "" if r.gap_prev is None else _fmt(r.gap_prev)
        lines.append(
            f"{r.n},{_fmt(r.kappa)},{_fmt(r.energy)},{_fmt(r.residual)},{gp},{r.flag}"
        )
    return "\n".join(lines) + "\n"


def cmd_spectrum(args) -> int:
    p = _params_from(args)
    report = compute_spectrum(p, _config_from(args), include_negative=args.negative)
    if args.format == "csv":
        _write(args.out, _spectrum_csv(report))
    else:
        _write(args.out, json.dumps(_report_dict(report), indent=2) + "\n")
    return 0


def cmd_scan(args) -> int:
    p = _params_from(args)
    grid = _config_from(args).grid(p, 0.0 if args.entire else None)
    if args.entire:
        vals = np.real(entire_secular(p, grid))
        header = "kappa,H"
    else:
        vals = np.real(secular(p, grid))
        header = "kappa,F"
    lines = [header] + [f"{_fmt(k)},{_fmt(v)}" for k, v in zip(grid, vals)]
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_breaking(args) -> int:
    p = _params_from(args)
    rep = breaking_search(p, args.kappa_max, args.strip_height)
    payload = {
        "parameters": asdict(p),
        "kappa_max": rep.kappa_max,
        "strip_height": rep.strip_height,
        "real_roots": rep.real_root_count,
        "winding_total": rep.winding_total,
        "off_axis": [{"re": z.real, "im": z.imag} for z in rep.off_axis],
        "tiles": [
            {"re_lo": lo, "re_hi": hi, "winding": w, "real_count": c}
            for (lo, hi, w, c) in rep.tiles
        ],
    }
    _write(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_wavefunction(args) -> int:
    p = _params_from(args)
    psi = build_wavefunction(p, find_level(p, args.level, args.kappa_max).kappa)
    parts = parity_decompose(psi)

    base = [x for x in np.linspace(-1.0, 1.0, args.points) if x not in (-p.a, p.a)]
    rows = []
    for x in base:
        rows.append((x, "", psi.value(x)))
    for x0 in (-p.a, p.a):
        rows.append((x0, "L", psi.value(x0, side="-")))
        rows.append((x0, "R", psi.value(x0, side="+")))
    rows.sort(key=lambda t: (t[0], t[1]))

    lines = ["x,re_psi,im_psi,psi_S,psi_A,side"]
    for x, side, v in rows:
        s = float(parts.psi_S(x))
        aa = float(parts.psi_A(x))
        lines.append(f"{_fmt(x)},{_fmt(v.real)},{_fmt(v.imag)},{_fmt(s)},{_fmt(aa)},{side}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_figure(args) -> int:
    ds = figure_data(args.id, kappa_max=args.kappa_max)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    scan_lines = ["kappa,F"] + [
        f"{_fmt(k)},{_fmt(v)}" for k, v in zip(ds.kappa_grid, ds.f_values)
    ]
    (out_dir / "scan.csv").write_text("\n".join(scan_lines) + "\n")
    (out_dir / "spectrum.csv").write_text(_spectrum_csv(ds.report))

    env_lines = ["kind,kappa,value"]
    if ds.envelope is not None:
        for k, v in ds.envelope.maxima:
            env_lines.append(f"max,{_fmt(k)},{_fmt(v)}")
        for k, v in ds.envelope.minima:
            env_lines.append(f"min,{_fmt(k)},{_fmt(v)}")
        for k, absv, kind in ds.envelope.envelope_extrema:
            name = "env_crest" if kind > 0 else "env_trough"
            env_lines.append(f"{name},{_fmt(k)},{_fmt(absv)}")
    (out_dir / "envelope.csv").write_text("\n".join(env_lines) + "\n")

    gap_lines = ["i,gap"]
    flagged = []
    if ds.gaps is not None:
        for i, g in enumerate(ds.gaps.gaps):
            gap_lines.append(f"{i + 1},{_fmt(g)}")
        flagged = [
            {"n": n, "m": m, "ratio": ratio} for n, m, ratio in ds.gaps.quasi_degenerate_pairs
        ]
    (out_dir / "gaps.csv").write_text("\n".join(gap_lines) + "\n")

    manifest = {
        "figure": ds.figure_id,
        "parameters": asdict(ds.parameters),
        "kappa_range": list(ds.kappa_range),
        "samples": int(ds.kappa_grid.size),
        "levels": len(ds.report.levels),
        "quasi_degenerate_pairs": flagged,
        "median_gap": None if ds.gaps is None else ds.gaps.median_gap,
        "files": ["scan.csv", "spectrum.csv", "envelope.csv", "gaps.csv"],
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_oracle(args) -> int:
    p = _params_from(args)
    sigmas = [float(s) for s in args.sigmas.split(",")]
    study = convergence_study(p, args.level, sigmas)
    lines = ["sigma,re_E,im_E,delta_to_matching"]
    for row in study.rows:
        lines.append(
            f"{_fmt(row.sigma)},{_fmt(row.energy.real)},{_fmt(row.energy.imag)},"
            f"{_fmt(row.delta_to_matching)}"
        )
    ex = study.extrapolated
    lines.append(
        f"{_fmt(0.0)},{_fmt(ex.real)},{_fmt(ex.imag)},"
        f"{_fmt(abs(ex - study.matching_energy))}"
    )
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ptwell",
        description="Bound states of a hard-wall box with a conjugate pair of point wells.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_model(sp):
        sp.add_argument("--a", type=float, required=True, help="well position in (0, 1)")
        sp.add_argument("--omega", type=float, required=True, help="attractive strength (>= 0)")
        sp.add_argument("--eta", type=float, required=True, help="imaginary asymmetry strength")

    def add_scan(sp):
        sp.add_argument("--kappa-max", type=float, required=True, dest="kappa_max")
        sp.add_argument("--kappa-min", type=float, default=1e-3, dest="kappa_min")
        sp.add_argument("--density", type=int, default=64, help="base samples per unit kappa")
        sp.add_argument("--tol", type=float, default=1e-12, help="kappa refinement tolerance")

    def add_out(sp):
        sp.add_argument("--out", default="-", help="output path ('-' for stdout)")

    sp = sub.add_parser("spectrum", help="real (and optionally negative) eigenvalues")
    add_model(sp)
    add_scan(sp)
    sp.add_argument("--negative", action="store_true", help="append negative-energy search")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    add_out(sp)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("scan", help="sample the secular function on a grid")
    add_model(sp)
    add_scan(sp)
    sp.add_argument(
        "--entire", action="store_true", help="emit H = kappa^2 F (defined at kappa = 0)"
    )
    add_out(sp)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("breaking", help="complex-plane zero census of the strip")
    add_model(sp)
    sp.add_argument("--kappa-max", type=float, required=True, dest="kappa_max")
    sp.add_argument("--strip-height", type=float, default=0.5, dest="strip_height")
    add_out(sp)
    sp.set_defaults(func=cmd_breaking)

    sp = sub.add_parser("wavefunction", help="eigenfunction grid export")
    add_model(sp)
    sp.add_argument("--level", type=int, required=True, help="1-based level index")
    sp.add_argument("--points", type=int, default=401)
    sp.add_argument("--kappa-max", type=float, default=15.0, dest="kappa_max")
    add_out(sp)
    sp.set_defaults(func=cmd_wavefunction)

    sp = sub.add_parser("figure", help="bundled dataset for one canonical regime")
    sp.add_argument("--id", type=int, required=True, choices=sorted(FIGURE_PARAMETERS))
    sp.add_argument("--out-dir", required=True, dest="out_dir")
    sp.add_argument("--kappa-max", type=float, default=None, dest="kappa_max")
    sp.set_defaults(func=cmd_figure)

    sp = sub.add_parser("oracle", help="shooting-method convergence table")
    add_model(sp)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--sigmas", default="4e-3,2e-3,1e-3", help="comma-separated, decreasing")
    add_out(sp)
    sp.set_defaults(func=cmd_oracle)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (PtwellError, ValueError) as exc:
        print(f"ptwell: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
