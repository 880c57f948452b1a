"""Golden CLI outputs: SHA-256 digests of every byte the CLI writes.

Covers the seven canonical regimes (spectrum with the negative-energy
search, plain and entire scans, the breaking census, a wavefunction grid
and every file of the figure bundle) plus four parameter sets for the
negative-energy search.  A refactor must leave every digest unchanged; a
deliberate change of output regenerates them with

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from ptwell.analysis import FIGURE_PARAMETERS
from ptwell.cli import main

DIGESTS = Path(__file__).parent / "golden" / "cli_sha256.json"

# (a, omega, eta, kappa_max) for the imaginary-axis search: two roots; none;
# roots at tau ~ 329.6 and 508.8, beyond the determinant switch, the second
# with a scaled value of exactly 0; and a root at tau ~ 380.7 where
# Im F(i tau) overflows, so its residual is the scaled value
NEGATIVE_CASES = (
    (0.5, 3.0, 0.05, 5.0),
    (0.3, 12.0, 40.0, 5.0),
    (0.002, 30.0, 0.0, 3.0),
    (0.002, 25.0, 0.0, 3.0),
)


def _model(a, omega, eta):
    return ["--a", repr(a), "--omega", repr(omega), "--eta", repr(eta)]


def _cases():
    """(name, argv) for every single-file output; argv lacks --out."""
    for fig, (a, omega, eta, (_, k_hi)) in sorted(FIGURE_PARAMETERS.items()):
        m = _model(a, omega, eta)
        yield f"regime{fig}/spectrum.csv", ["spectrum", *m, "--negative", "--kappa-max", repr(k_hi)]
        yield f"regime{fig}/scan.csv", ["scan", *m, "--kappa-max", "20"]
        yield f"regime{fig}/scan-entire.csv", ["scan", *m, "--entire", "--kappa-max", "5"]
        yield f"regime{fig}/breaking.json", ["breaking", *m, "--kappa-max", "20"]
        yield f"regime{fig}/wavefunction.csv", ["wavefunction", *m, "--level", "1", "--points", "101"]
    for a, omega, eta, k_hi in NEGATIVE_CASES:
        yield (
            f"negative/a{a}-omega{omega}-eta{eta}.csv",
            ["spectrum", *_model(a, omega, eta), "--negative", "--kappa-max", repr(k_hi)],
        )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli_digests(work: Path) -> dict:
    """Run every golden case under ``work``; map output name to its digest."""
    out = {}
    for name, argv in _cases():
        path = work / name.replace("/", "__")
        assert main([*argv, "--out", str(path)]) == 0, f"{name}: ptwell exited non-zero"
        out[name] = _sha256(path)
    for fig in sorted(FIGURE_PARAMETERS):
        bundle = work / f"figure{fig}"
        assert main(["figure", "--id", str(fig), "--out-dir", str(bundle)]) == 0, f"figure {fig}"
        for f in sorted(bundle.iterdir()):
            out[f"regime{fig}/figure/{f.name}"] = _sha256(f)
    return out


def test_cli_outputs_match_golden_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    actual = cli_digests(tmp_path)
    differ = sorted(n for n in expected.keys() & actual.keys() if expected[n] != actual[n])
    missing = sorted(expected.keys() - actual.keys())
    extra = sorted(actual.keys() - expected.keys())
    assert not (differ or missing or extra), (
        f"outputs differ: {differ}; missing: {missing}; unexpected: {extra}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        digests = cli_digests(Path(d))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
