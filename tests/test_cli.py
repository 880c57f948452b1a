import csv
import io
import json
import math
import subprocess
import sys

import pytest

from ptwell.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCommand:
    def test_bare_well_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--a", "0.5", "--omega", "0", "--eta", "0", "--kappa-max", "10"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6
        for n, row in enumerate(rows, start=1):
            assert float(row["kappa"]) == pytest.approx(n * math.pi / 2, abs=1e-10)
            assert row["flag"] == "regular"
        assert rows[0]["gap_prev"] == ""

    def test_figure1_spectrum(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--a", "0.95", "--omega", "1.5", "--eta", "20",
            "--kappa-max", "15",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        assert float(rows[0]["kappa"]) == pytest.approx(1.6113159577100156, abs=1e-9)

    def test_quasi_degenerate_flags_present(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--a", "0.35", "--omega", "15000", "--eta", "20",
            "--kappa-max", "11",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        flags = [r["flag"] for r in rows]
        assert flags.count("quasi-degenerate-pair-member") == 4

    def test_negative_flag_appends_records(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--a", "0.5", "--omega", "3", "--eta", "0.05",
            "--kappa-max", "5", "--negative",
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        neg = [r for r in rows if r["flag"] == "negative-energy"]
        assert len(neg) == 2
        assert float(neg[0]["energy"]) < 0

    def test_json_round_trip_is_exact(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--a", "0.95", "--omega", "1.5", "--eta", "20",
            "--kappa-max", "15", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        again = json.dumps(payload, indent=2) + "\n"
        assert json.loads(again) == payload
        # parsed floats reproduce the in-memory report exactly
        from ptwell import ScanConfig, WellParameters, compute_spectrum

        rep = compute_spectrum(
            WellParameters(0.95, 1.5, 20.0), ScanConfig(kappa_max=15.0)
        )
        assert [lv["kappa"] for lv in payload["levels"]] == [r.kappa for r in rep.levels]

    def test_csv_floats_round_trip(self, capsys):
        _, out, _ = run_cli(
            capsys, "spectrum", "--a", "0.95", "--omega", "1.5", "--eta", "20",
            "--kappa-max", "15",
        )
        from ptwell import ScanConfig, WellParameters, compute_spectrum

        rep = compute_spectrum(WellParameters(0.95, 1.5, 20.0), ScanConfig(kappa_max=15.0))
        rows = list(csv.DictReader(io.StringIO(out)))
        # 17 significant digits recover doubles bit for bit
        assert [float(r["kappa"]) for r in rows] == [r.kappa for r in rep.levels]


class TestScanCommand:
    def test_plain_scan(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--a", "0.5", "--omega", "0", "--eta", "0", "--kappa-max", "3"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kappa,F"
        k, f = lines[1].split(",")
        assert float(k) == pytest.approx(1e-3)
        assert float(f) == pytest.approx(math.sin(2e-3), rel=1e-12)

    def test_entire_scan_defined_at_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--a", "0.5", "--omega", "2", "--eta", "7", "--kappa-max", "3",
            "--entire",
        )
        lines = out.strip().split("\n")
        assert lines[0] == "kappa,H"
        k0, h0 = lines[1].split(",")
        assert float(k0) == 0.0 and float(h0) == 0.0


class TestBreakingCommand:
    def test_figure1_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "breaking", "--a", "0.95", "--omega", "1.5", "--eta", "20",
            "--kappa-max", "15",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["real_roots"] == 9
        assert payload["winding_total"] == 9
        assert payload["off_axis"] == []

    def test_synthetic_breaking_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "breaking", "--a", "0.4", "--omega", "1", "--eta", "12",
            "--kappa-max", "15", "--strip-height", "1.5",
        )
        payload = json.loads(out)
        assert payload["winding_total"] == 9
        assert len(payload["off_axis"]) == 4


class TestWavefunctionCommand:
    def test_grid_with_side_limit_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "wavefunction", "--a", "0.5", "--omega", "0", "--eta", "0",
            "--level", "1", "--points", "401",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        # the 401-point grid contains -+0.5 exactly; those rows are replaced
        # by L/R side-limit pairs: 401 - 2 + 4
        assert len(rows) == 403
        assert rows[0]["x"] == "-1" and float(rows[0]["re_psi"]) == 0.0
        assert float(rows[-1]["re_psi"]) == 0.0
        sides = [r["side"] for r in rows if r["side"]]
        assert sides == ["L", "R", "L", "R"]
        xs = [float(r["x"]) for r in rows if r["side"]]
        assert xs == [-0.5, -0.5, 0.5, 0.5]

    def test_level_two_is_odd_state(self, capsys):
        _, out, _ = run_cli(
            capsys, "wavefunction", "--a", "0.5", "--omega", "0", "--eta", "0",
            "--level", "2", "--points", "21",
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        mid = [r for r in rows if abs(float(r["x"]) - 0.3) < 1e-9][0]
        assert float(mid["psi_S"]) == pytest.approx(0.0, abs=1e-9)
        assert float(mid["psi_A"]) == pytest.approx(math.sin(math.pi * 0.3), abs=1e-9)

    def test_missing_level_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "wavefunction", "--a", "0.5", "--omega", "0", "--eta", "0",
            "--level", "4000",
        )
        assert code == 3
        assert "level" in err

    def test_level_zero_exits_3(self, capsys):
        # levels are 1-based; 0 must not wrap round to the last level
        code, _, err = run_cli(
            capsys, "wavefunction", "--a", "0.5", "--omega", "0", "--eta", "0", "--level", "0"
        )
        assert code == 3
        assert "level" in err


class TestFigureCommand:
    def test_writes_bundle(self, capsys, tmp_path):
        out_dir = tmp_path / "fig1"
        code, _, _ = run_cli(capsys, "figure", "--id", "1", "--out-dir", str(out_dir))
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["envelope.csv", "gaps.csv", "manifest.json", "scan.csv", "spectrum.csv"]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["figure"] == 1
        assert manifest["levels"] == 9
        assert manifest["parameters"]["a"] == 0.95

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        dirs = []
        for name in ("r1", "r2", "r3"):
            out_dir = tmp_path / name
            run_cli(capsys, "figure", "--id", "1", "--out-dir", str(out_dir))
            dirs.append(out_dir)
        for fname in ("manifest.json", "scan.csv", "spectrum.csv", "envelope.csv", "gaps.csv"):
            blobs = [(d / fname).read_bytes() for d in dirs]
            assert blobs[0] == blobs[1] == blobs[2]


class TestOracleCommand:
    def test_bare_well_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--a", "0.5", "--omega", "0", "--eta", "0",
            "--level", "1", "--sigmas", "4e-3,2e-3",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3  # two sigmas plus the sigma=0 extrapolation row
        assert float(rows[-1]["sigma"]) == 0.0
        for row in rows:
            assert float(row["delta_to_matching"]) < 1e-6
            assert abs(float(row["im_E"])) < 1e-10


class TestExitCodes:
    def test_usage_error_is_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "ptwell.cli", "spectrum", "--bogus"],
            capture_output=True,
        )
        assert result.returncode == 2

    def test_invalid_model_is_3(self, capsys):
        code, _, err = run_cli(
            capsys, "spectrum", "--a", "1.2", "--omega", "1", "--eta", "0",
            "--kappa-max", "10",
        )
        assert code == 3
        assert "a must satisfy" in err

    def test_entry_point_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "ptwell.cli", "spectrum", "--a", "0.5", "--omega", "0",
             "--eta", "0", "--kappa-max", "5"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("n,kappa,energy")
