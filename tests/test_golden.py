"""Byte-equality gate: every CLI subcommand against a committed golden corpus.

Each case runs ``main()`` in process on the committed inputs and compares
stdout and every file written through ``--out``, ``--json`` or
``--save-config`` with ``tests/golden/expected/<case>/``.  A refactor that
claims unchanged behaviour must leave every byte in place.

To rewrite the expected files after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
from pathlib import Path

import pytest

from blindspot.cli import main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
EXPECTED = GOLDEN / "expected"

ALL_MODES = ["--mode", "plugin", "--mode", "plugin+unseen", "--mode", "generalized-gt"]
ACT = "{data}/activity_counts.csv"
ACT_W = "{data}/activity_weights.tsv"
CTRL = "{inputs}/ctrl_counts.csv"
CTRL_W = "{inputs}/ctrl_weights.tsv"
SAMPLES = "{inputs}/samples.csv"

CASES = {
    "curve-act-all-modes": ["curve", "--counts", ACT, "--tau-max", "130", *ALL_MODES,
                            "--json", "{out}/curve.json"],
    "curve-ctrl-json": ["curve", "--counts", CTRL, "--tau-max", "12",
                        "--mode", "generalized-gt", "--mode", "plugin",
                        "--blind-accuracy", "0.25", "--dataset-id", "golden ctrl",
                        "--json", "{out}/curve.json"],
    "curve-samples": ["curve", "--samples", SAMPLES, "--tau-max", "8", "--out", "{out}/curve.csv"],
    "decompose-act-weighted": ["decompose", "--counts", ACT, "--tau", "150", "--weights", ACT_W,
                               "--json", "{out}/decomp.json"],
    "decompose-ctrl-weighted-top-k": ["decompose", "--counts", CTRL, "--tau", "6",
                                      "--weights", CTRL_W, "--top-k", "3",
                                      "--json", "{out}/decomp.json"],
    "decompose-ctrl-unweighted": ["decompose", "--counts", CTRL, "--tau", "4",
                                  "--json", "{out}/decomp.json"],
    "decompose-act-unweighted-top-k": ["decompose", "--counts", ACT, "--tau", "135", "--top-k", "4",
                                       "--json", "{out}/decomp.json"],
    "decompose-samples-top-k": ["decompose", "--samples", SAMPLES, "--tau", "6", "--top-k", "2",
                                "--out", "{out}/decomp.csv", "--json", "{out}/decomp.json"],
    "ceiling-number": ["ceiling", "--counts", ACT, "--tau-max", "130", "--blind-accuracy", "0.3",
                       "--mode", "plugin+unseen"],
    "ceiling-default": ["ceiling", "--counts", CTRL, "--tau-max", "5"],
    "ceiling-chance": ["ceiling", "--counts", CTRL, "--tau-max", "6", "--blind-accuracy", "chance",
                       "--classes", "4", "--mode", "generalized-gt", "--out", "{out}/ceiling.csv"],
    "histogram-ctrl": ["histogram", "--counts", CTRL],
    "histogram-samples": ["histogram", "--samples", SAMPLES, "--out", "{out}/hist.csv"],
    "wilson-default": ["wilson", "--input", "{inputs}/wilson.csv"],
    "wilson-confidence": ["wilson", "--input", "{inputs}/wilson.csv", "--confidence", "0.8",
                          "--out", "{out}/wilson.csv"],
    "simulate-spec": ["simulate", "--spec", "{data}/sweep_small.txt", "--json", "{out}/sweep.json"],
    "simulate-families": ["simulate", "--spec", "{inputs}/families.txt", "--json", "{out}/sweep.json"],
    "simulate-sparse": ["simulate", "--spec", "{inputs}/sparse.txt", "--out", "{out}/sweep.csv",
                        "--json", "{out}/sweep.json"],
    "simulate-overrides": ["simulate", "--spec", "{data}/sweep_small.txt", "--trials", "3",
                           "--seed", "5", "--out", "{out}/sweep.csv", "--json", "{out}/sweep.json"],
    "report-act": ["report", "--counts", ACT, "--tau-max", "130", *ALL_MODES,
                   "--decompose-tau", "122", "--decompose-tau", "150", "--top-k", "5",
                   "--blind-accuracy", "0.1", "--dataset-id", "activity"],
    "report-ctrl": ["report", "--counts", CTRL, "--tau-max", "10",
                    "--mode", "generalized-gt", "--mode", "plugin",
                    "--decompose-tau", "3", "--decompose-tau", "10", "--out", "{out}/report.json"],
    "report-samples": ["report", "--samples", SAMPLES, "--tau-max", "5", "--mode", "plugin+unseen",
                       "--decompose-tau", "4", "--top-k", "3"],
    "ingest-samples-csv": ["ingest", "--samples-csv", "{inputs}/rows.csv",
                           "--key-columns", "activity", "surface"],
    "ingest-diagnoses": ["ingest", "--diagnoses", "{inputs}/diagnoses.csv",
                         "--out", "{out}/samples.csv"],
    "ingest-pamap2": ["ingest", "--pamap2", "{inputs}/subject101.dat", "--subjects", "101",
                      "--preset", "activity-tilt-energy", "--window-s", "0.5", "--stride-s", "0.25",
                      "--out", "{out}/samples.csv", "--save-config", "{out}/abstraction.txt"],
    "ingest-pamap2-config": ["ingest", "--pamap2", "{inputs}/subject101.dat", "--subjects", "101",
                             "--config", "{inputs}/config.txt", "--window-s", "0.5", "--stride-s", "0.25",
                             "--save-config", "{out}/abstraction.txt"],
    "ingest-pamap2-overrides": ["ingest", "--pamap2", "{inputs}/subject101.dat", "--subjects", "101",
                                "--preset", "deployment-refined", "--factors", "activity", "tilt", "energy",
                                "--tilt-bins", "3", "--energy-bins", "2", "--rate-bins", "4",
                                "--window-s", "0.5", "--stride-s", "0.25",
                                "--out", "{out}/samples.csv", "--save-config", "{out}/abstraction.txt"],
    "ingest-pamap2-config-rebin": ["ingest", "--pamap2", "{inputs}/subject101.dat", "--subjects", "101",
                                   "--config", "{inputs}/config_edges.txt", "--rate-bins", "2",
                                   "--window-s", "0.5", "--stride-s", "0.25",
                                   "--save-config", "{out}/abstraction.txt"],
}


def run_case(case: str, out_dir: Path) -> dict[str, bytes]:
    """Run one case; return {file name: bytes} for stdout and every output file."""
    argv = [arg.format(data=HERE / "data", inputs=GOLDEN / "inputs", out=out_dir)
            for arg in CASES[case]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == 0, f"{case} exited {code}"
    outputs = {"stdout": stdout.getvalue().encode("utf-8")}
    outputs.update((p.name, p.read_bytes()) for p in sorted(out_dir.iterdir()))
    return outputs


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, tmp_path):
    got = run_case(case, tmp_path)
    expected = {p.name: p.read_bytes() for p in (EXPECTED / case).iterdir()}
    assert sorted(got) == sorted(expected)
    for name, data in expected.items():
        assert got[name] == data, f"{case}/{name} differs from the golden corpus"


def test_every_expected_case_is_run():
    assert sorted(p.name for p in EXPECTED.iterdir()) == sorted(CASES)


if __name__ == "__main__":
    import shutil
    import tempfile

    shutil.rmtree(EXPECTED, ignore_errors=True)
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            outputs = run_case(name, Path(tmp))
        (EXPECTED / name).mkdir(parents=True)
        for file_name, data in outputs.items():
            (EXPECTED / name / file_name).write_bytes(data)
        print(f"{name}: {', '.join(outputs)}")
