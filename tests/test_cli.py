"""Command-line interface, exercised in process through main()."""

import contextlib
import csv
import gc
import gzip
import io
import json
import logging
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blindspot
from blindspot import read_abstraction_config, read_samples_file
from blindspot.cli import _build_parser, main
from blindspot.report import TOOL_VERSION
from conftest import DATA_DIR

COUNTS = str(DATA_DIR / "activity_counts.csv")
WEIGHTS = str(DATA_DIR / "activity_weights.tsv")
SWEEP = str(DATA_DIR / "sweep_small.txt")
GOLDEN_INPUTS = DATA_DIR.parent / "golden" / "inputs"
SRC_DIR = DATA_DIR.parent.parent / "src"
PAMAP2 = str(GOLDEN_INPUTS / "subject101.dat")

# every file reader of the CLI; "{bad}" is the file under test
READER_ARGVS = [
    ["histogram", "--samples", "{bad}"],
    ["histogram", "--counts", "{bad}"],
    ["histogram", "--counts", "{bad}.gz"],
    ["decompose", "--counts", COUNTS, "--tau", "150", "--weights", "{bad}"],
    ["wilson", "--input", "{bad}"],
    ["simulate", "--spec", "{bad}", "--trials", "2"],
    ["ingest", "--samples-csv", "{bad}", "--key-columns", "activity"],
    ["ingest", "--diagnoses", "{bad}"],
    ["ingest", "--pamap2", "{bad}", "--subjects", "101", "--window-s", "0.5", "--stride-s", "0.25"],
    ["ingest", "--pamap2", PAMAP2, "--subjects", "101", "--window-s", "0.5", "--stride-s", "0.25",
     "--config", "{bad}"],
]

# a valid input for each entry of READER_ARGVS, for the fuzzer to damage; the
# spec and config hold few digits, so that no damaged copy asks for a huge
# sweep or bin count
READER_SEEDS = [
    (GOLDEN_INPUTS / "samples.csv").read_bytes(),
    (DATA_DIR / "activity_counts.csv").read_bytes(),
    gzip.compress((DATA_DIR / "activity_counts.csv").read_bytes(), mtime=0),
    (DATA_DIR / "activity_weights.tsv").read_bytes(),
    (GOLDEN_INPUTS / "wilson.csv").read_bytes(),
    b"family = zipf, uniform\nzipf_s = 1.0\nK = 3\nn = 4\ntau = 1, 2\nseed = 1\n",
    (GOLDEN_INPUTS / "rows.csv").read_bytes(),
    (GOLDEN_INPUTS / "diagnoses.csv").read_bytes(),
    (GOLDEN_INPUTS / "subject101.dat").read_bytes(),
    b"factors = activity, tilt, energy\ntilt_bins = 6\nenergy_bins = 3\n",
]


# every numeric flag of each subcommand, after arguments that take the command
# past parsing: the analysis inputs do not exist, so a value the flag accepts
# ends in exit 2 there, while the ingest recording is real, so that window
# lengths reach the windowing code
ABSENT = "/nonexistent/input.csv"
NUMERIC_FLAGS = {
    "ingest": (["--pamap2", PAMAP2, "--subjects", "101"],
               ["--subjects", "--window-s", "--stride-s", "--tilt-bins", "--energy-bins",
                "--rate-bins", "--fit-fraction"]),
    "curve": (["--counts", ABSENT, "--tau-max", "2"], ["--tau-max", "--blind-accuracy"]),
    "decompose": (["--counts", ABSENT, "--tau", "2"], ["--tau", "--top-k"]),
    "ceiling": (["--counts", ABSENT, "--tau-max", "2"], ["--tau-max", "--blind-accuracy", "--classes"]),
    "wilson": (["--input", ABSENT], ["--confidence"]),
    "simulate": (["--spec", ABSENT], ["--trials", "--seed"]),
    "report": (["--counts", ABSENT, "--tau-max", "2"],
               ["--tau-max", "--decompose-tau", "--top-k", "--blind-accuracy"]),
}
EXTREME_NUMBERS = ["inf", "nan", "1e308", "-1", "0"]


def rows_of(text):
    return list(csv.reader(io.StringIO(text)))


def _damaged(seed: bytes):
    """Arbitrary bytes, or ``seed`` with one span replaced by up to six bytes.
    The inserted bytes hold no digit, so a number in ``seed`` can grow only by
    joining the digits around a deleted span."""
    junk = st.binary(max_size=6).map(lambda b: b.translate(None, b"0123456789"))
    spliced = st.tuples(st.integers(0, len(seed)), st.integers(0, len(seed)), junk).map(
        lambda t: seed[: min(t[:2])] + t[2] + seed[max(t[:2]):]
    )
    return st.one_of(st.binary(max_size=200), spliced)


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["curve", "--counts", COUNTS],                       # --tau-max missing
            ["curve", "--counts", COUNTS, "--tau-max", "0"],
            ["curve", "--tau-max", "2"],                         # no table source
            ["curve", "--counts", COUNTS, "--samples", COUNTS, "--tau-max", "2"],
            ["curve", "--counts", COUNTS, "--tau-max", "2", "--mode", "plugin", "--mode", "plugin"],
            ["curve", "--counts", COUNTS, "--tau-max", "2", "--blind-accuracy", "1.5"],
            ["ceiling", "--counts", COUNTS, "--tau-max", "2", "--blind-accuracy", "chance"],
            ["ceiling", "--counts", COUNTS, "--tau-max", "2", "--blind-accuracy", "nonsense"],
            ["ingest", "--samples-csv", COUNTS],                 # --key-columns missing
            ["wilson"],                                          # --input missing
        ],
    )
    def test_usage_errors_exit_1_with_clean_stdout(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err != ""

    def test_pamap2_without_subjects_is_usage_error(self, capsys, tmp_path):
        dat = tmp_path / "subject101.dat"
        dat.write_text(" ".join(["0"] * 54) + "\n")
        assert main(["ingest", "--pamap2", str(dat)]) == 1
        assert capsys.readouterr().out == ""

    def test_config_and_preset_together_rejected(self, capsys, tmp_path):
        dat = tmp_path / "subject101.dat"
        dat.write_text(" ".join(["0"] * 54) + "\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("factors = activity\n")
        code = main(
            ["ingest", "--pamap2", str(dat), "--subjects", "101",
             "--preset", "activity", "--config", str(cfg)]
        )
        assert code == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv,message", [
        (["ceiling", "--counts", ABSENT, "--tau-max", "2", "--blind-accuracy", "chance"],
         "--blind-accuracy chance needs --classes"),
        (["ingest", "--pamap2", ABSENT, "--subjects", "101", "--preset", "activity", "--config", "x"],
         "--preset and --config cannot be combined"),
    ])
    def test_usage_error_wins_over_unreadable_input(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"blindspot: error: {message}\n"

    @pytest.mark.parametrize("columns,message", [
        (["a", "a"], "schema has duplicate factor names: ['a', 'a']"),
        (["a|b"], "factor name may not contain '|': 'a|b'"),
    ], ids=["duplicate", "pipe"])
    @pytest.mark.parametrize("data", ["a,b\n1,2\n", "a,b\n", None], ids=["rows", "header", "absent"])
    def test_bad_key_columns_are_a_usage_error(self, capsys, tmp_path, columns, message, data):
        path = tmp_path / "k.csv"
        if data is not None:
            path.write_text(data)
        assert main(["ingest", "--samples-csv", str(path), "--key-columns", *columns]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"blindspot: error: --key-columns: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--counts", "/nonexistent/x.csv", "--tau-max", "2"],
            ["simulate", "--spec", "/nonexistent/spec.txt"],
        ],
    )
    def test_missing_files_exit_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    def test_malformed_counts_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "c.csv"
        bad.write_text("activity,count\nwalk,zero\n")
        assert main(["curve", "--counts", str(bad), "--tau-max", "2"]) == 2
        assert capsys.readouterr().out == ""

    def test_malformed_weights_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "w.tsv"
        bad.write_text("Walking\t-3\n")
        assert main(["decompose", "--counts", COUNTS, "--tau", "150", "--weights", str(bad)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv, text, message", [
        (["wilson", "--input"], "class,successes,trials\nA,5,10,7\n",
         "line 2: expected 3 fields, found 4"),
        (["ingest", "--key-columns", "activity", "--samples-csv"],
         "activity,surface\nwalk,grass\n\nrun\n", "line 4: expected 2 fields, found 1"),
        (["ingest", "--diagnoses"], "hadm_id,seq_num,icd_code\n1,1,41071\n2,1,0389,7\n",
         "line 3: expected 3 fields, found 4"),
        (["histogram", "--samples"], "factor:a,factor:b\nx,y\nx\n", "line 3: expected 2 fields, found 1"),
        (["histogram", "--counts"], "activity,count\nwalk,1\nrun,2,3\n", "line 3: expected 2 fields, found 3"),
    ], ids=["wilson", "samples-csv", "diagnoses", "samples", "counts"])
    def test_a_ragged_row_exits_2(self, capsys, tmp_path, argv, text, message):
        # the header fixes the width; a blank line is skipped, not ragged,
        # except in a samples or counts file
        bad = tmp_path / "rows.csv"
        bad.write_text(text)
        assert main([*argv, str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"blindspot: error: {bad}: {message}\n"

    @pytest.mark.parametrize("argv, text, column, header", [
        (["wilson", "--input"], "class,successes,trials,Trials\nk,1,2,4\n",
         "trials", ["class", "successes", "trials", "Trials"]),
        (["ingest", "--key-columns", "a", "--samples-csv"], "a,a,b\nx,y,z\n", "a", ["a", "a", "b"]),
        (["ingest", "--diagnoses"], "hadm_id,seq_num,icd_code,SEQ_NUM\n1,1,41071,2\n",
         "seq_num", ["hadm_id", "seq_num", "icd_code", "SEQ_NUM"]),
    ], ids=["wilson", "samples-csv", "diagnoses"])
    def test_a_header_naming_a_read_column_twice_exits_2(self, capsys, tmp_path, argv, text, column, header):
        # which copy to read would be a guess; names are compared as each format compares them
        bad = tmp_path / "rows.csv"
        bad.write_text(text)
        assert main([*argv, str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"blindspot: error: {bad}: column {column!r} appears more than once; header has {header}\n"
        )

    def test_wilson_missing_columns_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "acc.csv"
        bad.write_text("class,wins,games\nx,1,2\n")
        assert main(["wilson", "--input", str(bad)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", READER_ARGVS)
    def test_undecodable_input_exits_2(self, capsys, tmp_path, argv):
        bad = tmp_path / "subject101.dat"  # the pamap2 reader wants a subject id in the name
        bad.write_bytes(b"activity,count\n\xff\xfe,1\n")
        (tmp_path / "subject101.dat.gz").write_bytes(gzip.compress(bad.read_bytes()))
        assert main([arg.format(bad=bad) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "codec can't decode" in captured.err
        named = next(arg.format(bad=bad) for arg in argv if "{bad}" in arg)
        assert f"blindspot: error: {named}: " in captured.err

    @pytest.mark.parametrize("argv, seed", [
        (["histogram", "--counts", "{path}"], DATA_DIR / "activity_counts.csv"),
        (["histogram", "--counts", "{path}.gz"], DATA_DIR / "activity_counts.csv"),
        (["histogram", "--samples", "{path}"], GOLDEN_INPUTS / "samples.csv"),
        (["wilson", "--input", "{path}"], GOLDEN_INPUTS / "wilson.csv"),
    ], ids=["counts", "counts-gz", "samples", "wilson"])
    def test_a_byte_order_mark_changes_no_output(self, capsys, tmp_path, argv, seed):
        # Excel's "CSV UTF-8" starts the file with the UTF-8 byte-order mark
        outputs = []
        for name, data in [("plain", seed.read_bytes()), ("bom", b"\xef\xbb\xbf" + seed.read_bytes())]:
            path = tmp_path / name
            path.write_bytes(data)
            (tmp_path / f"{name}.gz").write_bytes(gzip.compress(data))
            assert main([arg.format(path=path) for arg in argv]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1] == outputs[0]
        assert "\ufeff" not in outputs[1].out and outputs[1].err == ""

    @pytest.mark.parametrize("name", ["subject101.dat", "subject101.dat.gz"], ids=["pamap2", "pamap2-gz"])
    def test_a_byte_order_mark_changes_no_recording_output(self, capsys, tmp_path, monkeypatch, name):
        # the summary on stderr names each recording: run both from a
        # directory of their own, under the same relative name
        data = (GOLDEN_INPUTS / "subject101.dat").read_bytes()
        outputs = []
        for variant, body in [("plain", data), ("bom", b"\xef\xbb\xbf" + data)]:
            (tmp_path / variant).mkdir()
            monkeypatch.chdir(tmp_path / variant)
            (tmp_path / variant / name).write_bytes(gzip.compress(body) if name.endswith(".gz") else body)
            argv = ["ingest", "--pamap2", name, "--subjects", "101", "--window-s", "0.5", "--stride-s", "0.25"]
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1] == outputs[0]
        assert "\ufeff" not in outputs[1].out + outputs[1].err

    @pytest.mark.parametrize(
        "flag, text",
        [("--samples", 'factor:a\nx\n"{big}"\n'), ("--counts", 'a,count\nx,1\n"{big}",2\n')],
        ids=["samples", "counts"],
    )
    def test_oversized_csv_field_exits_2(self, capsys, tmp_path, flag, text):
        path = tmp_path / "big.csv"
        path.write_text(text.format(big="x" * 200_000))
        assert main(["histogram", flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"blindspot: error: {path}: field larger than field limit" in captured.err

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_damaged_gzip_exits_2(self, capsys, tmp_path, damage):
        body = bytearray(gzip.compress(b"activity,count\n" + b"".join(b"s%d,%d\n" % (i, i + 1) for i in range(300))))
        if damage == "truncate":
            del body[-20:]
        else:
            body[30] ^= 0x55
        path = tmp_path / "counts.csv.gz"
        path.write_bytes(bytes(body))
        assert main(["histogram", "--counts", str(path)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, seed", zip(READER_ARGVS, READER_SEEDS), ids=[f"argv{i}" for i in range(len(READER_ARGVS))]
    )
    def test_fuzzed_input_never_exits_3(self, tmp_path_factory, argv, seed):
        # exit 3 is reserved for bugs; any file content is 0 (it parsed) or 2
        work = tmp_path_factory.mktemp("fuzz")
        bad = work / "subject101.dat"  # the pamap2 reader wants a subject id in the name

        @settings(max_examples=40, deadline=None)
        @given(_damaged(seed))
        def check(data):
            bad.write_bytes(data)
            (work / "subject101.dat.gz").write_bytes(data)
            assert main([arg.format(bad=bad) for arg in argv]) in (0, 2)

        check()

    @pytest.mark.parametrize("value", EXTREME_NUMBERS)
    @pytest.mark.parametrize(
        "command, flag", [(c, f) for c, (_, flags) in NUMERIC_FLAGS.items() for f in flags]
    )
    def test_extreme_numbers_exit_1_or_2(self, capsys, tmp_path, command, flag, value):
        base, _ = NUMERIC_FLAGS[command]
        argv = [command, *base, flag, value]
        if command == "ingest":
            argv += ["--out", str(tmp_path / "samples.csv")]
        assert main(argv) in (1, 2)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal error" not in captured.err

    def test_numeric_flag_table_names_every_typed_flag(self):
        subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
        typed = {
            (command, action.option_strings[0])
            for command, parser in subparsers.choices.items()
            for action in parser._actions
            if action.type is not None
        }
        listed = {(c, f) for c, (_, flags) in NUMERIC_FLAGS.items() for f in flags}
        assert typed == listed

    def test_negative_seed_flag_is_usage_error(self, capsys):
        assert main(["simulate", "--spec", SWEEP, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be >= 0, got -1" in captured.err

    def test_negative_spec_seed_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("family = uniform\nK = 3\nn = 4\ntau = 1\nseed = -3\n")
        assert main(["simulate", "--spec", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"blindspot: error: {spec}: seed must be >= 0, got -3\n"

    @pytest.mark.parametrize("line, message", [
        ("K = 1000000000000000\nn = 4", "K=1000000000000000 is too large: the distribution does not fit in memory"),
        ("K = 3\nn = 1000000000000000", "n=1000000000000000 is too large: the draws do not fit in memory"),
    ], ids=["K", "n"])
    def test_a_cell_too_large_for_memory_exits_2(self, capsys, tmp_path, line, message):
        spec = tmp_path / "spec.txt"
        spec.write_text(f"family = uniform\n{line}\ntau = 1\n")
        assert main(["simulate", "--spec", str(spec), "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"blindspot: error: {spec}: {message}\n"

    @pytest.mark.parametrize("line, message", [
        ("trials = 0", "trials must be >= 1, got 0"),
        ("seed = -3", "seed must be >= 0, got -3"),
        ("K = 0", "size must be >= 1, got 0"),
        ("n = 0", "n must be >= 1, got 0"),
        ("tau = 0", "tau must be >= 1, got 0"),
        ("family = zipf; zipf_s = -1", "zipf exponent must be >= 0, got -1.0"),
        ("family = geometric; geom_ratio = 1.5", "geometric ratio must lie in (0, 1), got 1.5"),
        ("family = uniform, uniform; tau = 1, 1", "family lists uniform more than once"),
        ("family = zipf; zipf_s = 1.0, 2, 1", "zipf_s lists 1.0 more than once"),
        ("family = geometric; geom_ratio = 0.5, .5", "geom_ratio lists 0.5 more than once"),
        ("K = 5, 05", "K lists 5 more than once"),
        ("n = 4, 8, 4", "n lists 4 more than once"),
        ("tau = 1, 1", "tau lists 1 more than once"),
    ])
    def test_spec_range_errors_name_the_file(self, capsys, tmp_path, line, message):
        # ``line`` holds "; "-separated settings that replace or extend a good spec's
        settings = {"family": "uniform", "K": "3", "n": "4", "tau": "1"}
        settings.update(setting.split(" = ") for setting in line.split("; "))
        spec = tmp_path / "spec.txt"
        spec.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
        # the flags would override both values, but the spec itself is bad
        assert main(["simulate", "--spec", str(spec), "--trials", "2", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"blindspot: error: {spec}: ")
        assert captured.err == f"blindspot: error: {spec}: {message}\n"

    def test_a_family_line_naming_no_family_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("family = ,\nK = 3\nn = 4\ntau = 1\n")
        assert main(["simulate", "--spec", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"blindspot: error: {spec}: family must name at least one value\n"

    @pytest.mark.parametrize("window, code", [("inf", 1), ("1e307", 2)])
    def test_unbounded_window_length_is_rejected(self, capsys, tmp_path, window, code):
        argv = ["ingest", "--pamap2", PAMAP2, "--subjects", "101", "--window-s", window,
                "--out", str(tmp_path / "samples.csv")]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal error" not in captured.err

    def test_module_entry_point_exits_2_on_undecodable_input(self, tmp_path):
        bad = tmp_path / "c.csv"
        bad.write_bytes(b"\xff" * 16)
        path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-m", "blindspot", "histogram", "--counts", str(bad)],
            capture_output=True, env=env, timeout=60,
        )
        assert done.returncode == 2
        assert done.stdout == b""
        assert f"blindspot: error: {bad}: ".encode() in done.stderr

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "blindspot" in capsys.readouterr().out

    def test_version_exits_0(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == "blindspot 0.1.0"

    def test_one_version_literal(self):
        # a regex, not tomllib, so that this runs on Python 3.10
        pyproject = (SRC_DIR.parent / "pyproject.toml").read_text(encoding="utf-8")
        # the package metadata reads its version from the one literal
        assert re.search(r'^dynamic\s*=\s*\["version"\]', pyproject, re.MULTILINE)
        (source,) = re.findall(r'^version\s*=\s*\{\s*attr\s*=\s*"([^"]+)"\s*\}', pyproject, re.MULTILINE)
        assert not re.search(r'^version\s*=\s*"', pyproject, re.MULTILINE)
        assert source == "blindspot.report.TOOL_VERSION"
        assert blindspot.__version__ == TOOL_VERSION

    @pytest.mark.parametrize(
        "body,argv,names",
        [
            ("factor:a,factor:a\nx,y\n", ["histogram", "--samples"], "['a', 'a']"),
            ("a,a,count\nx,y,3\n", ["histogram", "--counts"], "['a', 'a']"),
        ],
    )
    def test_bad_schema_names_the_first_row(self, capsys, tmp_path, body, argv, names):
        path = tmp_path / "input.csv"
        path.write_text(body)
        assert main(argv + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"blindspot: error: {path}: line 2: schema has duplicate factor names: {names}\n"
        )

    def test_header_only_samples_file_with_bad_schema_has_no_rows(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("factor:a,factor:a\n")
        assert main(["histogram", "--samples", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"blindspot: error: {path}: samples file has no data rows\n"


class TestCyclicCollector:
    """A command runs with the cyclic collector paused and leaves it as it
    found it, whatever its exit code."""

    CASES = [
        (0, ["histogram", "--counts", COUNTS]),
        (1, ["frobnicate"]),
        (1, ["ceiling", "--counts", COUNTS, "--tau-max", "2", "--blind-accuracy", "chance"]),
        (2, ["histogram", "--counts", ABSENT]),
        (3, ["histogram", "--counts", COUNTS]),
    ]

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("code,argv", CASES, ids=["0", "1-parse", "1-needs", "2", "3"])
    def test_main_restores_the_callers_state(self, capsys, monkeypatch, enabled, code, argv):
        seen = []
        read = blindspot.cli.read_counts_file

        def reading(path):
            seen.append(gc.isenabled())
            if code == 3:
                raise RuntimeError("a bug")
            return read(path)

        monkeypatch.setattr(blindspot.cli, "read_counts_file", reading)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(argv) == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == ([] if code == 1 else [False])


class TestCurve:
    def test_csv_shape_and_values(self, capsys, tmp_path):
        counts = tmp_path / "c.csv"
        counts.write_text("activity,count\na,1\nb,1\nc,3\n")
        assert main(["curve", "--counts", str(counts), "--tau-max", "2"]) == 0
        out = capsys.readouterr().out
        assert rows_of(out) == [
            ["tau", "mode", "mass"],
            ["1", "plugin", "0.000000"],
            ["2", "plugin", "0.400000"],
        ]

    def test_multiple_modes_grouped_by_mode(self, capsys, tmp_path):
        counts = tmp_path / "c.csv"
        counts.write_text("activity,count\na,1\nb,1\nc,3\n")
        code = main(
            ["curve", "--counts", str(counts), "--tau-max", "1",
             "--mode", "plugin", "--mode", "plugin+unseen"]
        )
        assert code == 0
        body = rows_of(capsys.readouterr().out)[1:]
        assert body == [["1", "plugin", "0.000000"], ["1", "plugin+unseen", "0.400000"]]

    def test_json_bundle_written(self, capsys, tmp_path):
        out_json = tmp_path / "bundle.json"
        code = main(
            ["curve", "--counts", COUNTS, "--tau-max", "3",
             "--dataset-id", "bench", "--json", str(out_json)]
        )
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert doc["metadata"]["dataset_id"] == "bench"
        assert doc["metadata"]["n"] == 1674
        assert len(doc["curves"][0]["points"]) == 3


    def test_huge_count_exits_0(self, capsys, tmp_path):
        # the numerator is summed over distinct counts, never indexed by them
        counts = tmp_path / "c.csv"
        counts.write_text(f"activity,count\na,1\nb,{10**30}\n")
        assert main(["curve", "--counts", str(counts), "--tau-max", "2",
                     "--mode", "plugin", "--mode", "generalized-gt"]) == 0
        assert rows_of(capsys.readouterr().out)[1:] == [
            ["1", "plugin", "0.000000"], ["2", "plugin", "0.000000"],
            ["1", "generalized-gt", "0.000000"], ["2", "generalized-gt", "0.000000"],
        ]


class TestDashMeansStdout:
    """``-`` names stdout for every output flag, and at most one output may
    go there."""

    def test_curve_json_to_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["curve", "--counts", COUNTS, "--tau-max", "2", "--out", "c.csv", "--json", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["n"] == 1674
        assert sorted(os.listdir(tmp_path)) == ["c.csv"]

    def test_decompose_json_to_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["decompose", "--counts", COUNTS, "--tau", "150", "--out", "d.csv", "--json", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["tau"] == 150
        assert sorted(os.listdir(tmp_path)) == ["d.csv"]

    def test_simulate_json_to_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--spec", SWEEP, "--out", "s.csv", "--json", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["trials"] == 4
        assert sorted(os.listdir(tmp_path)) == ["s.csv"]

    def test_save_config_to_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["ingest", "--pamap2", PAMAP2, "--subjects", "101", "--preset", "activity-tilt-energy",
                "--window-s", "0.5", "--stride-s", "0.25", "--out", "samples.csv", "--save-config"]
        assert main(argv + ["cfg.txt"]) == 0
        saved = (tmp_path / "cfg.txt").read_text()
        capsys.readouterr()
        assert main(argv + ["-"]) == 0
        assert capsys.readouterr().out == saved
        assert sorted(os.listdir(tmp_path)) == ["cfg.txt", "samples.csv"]

    @pytest.mark.parametrize("argv", [
        ["curve", "--counts", COUNTS, "--tau-max", "2", "--json", "-"],
        ["curve", "--counts", COUNTS, "--tau-max", "2", "--json", "-", "--out", "-"],
        ["decompose", "--counts", COUNTS, "--tau", "150", "--json", "-"],
        ["simulate", "--spec", SWEEP, "--json", "-"],
        ["ingest", "--pamap2", PAMAP2, "--subjects", "101", "--save-config", "-"],
    ])
    def test_both_outputs_to_stdout_is_usage_error(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "would both write to stdout" in captured.err
        assert os.listdir(tmp_path) == []


class TestOneFilePerOutput:
    """Two output flags never name one file, however the path is spelled."""

    @pytest.mark.parametrize("argv,flag", [
        (["curve", "--counts", COUNTS, "--tau-max", "2", "--out", "same.txt", "--json", "same.txt"],
         "--json"),
        (["curve", "--counts", COUNTS, "--tau-max", "2", "--out", "./same.txt", "--json", "same.txt"],
         "--json"),
        (["decompose", "--counts", COUNTS, "--tau", "150", "--out", "same.txt", "--json", "./same.txt"],
         "--json"),
        (["simulate", "--spec", SWEEP, "--out", "same.txt", "--json", "sub/../same.txt"], "--json"),
        (["ingest", "--pamap2", PAMAP2, "--subjects", "101", "--out", "same.txt",
          "--save-config", "./same.txt"], "--save-config"),
        (["ingest", "--diagnoses", str(GOLDEN_INPUTS / "diagnoses.csv"), "--out", "same.txt",
          "--save-config", "same.txt"], "--save-config"),
    ])
    def test_same_file_is_usage_error(self, capsys, tmp_path, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"blindspot: error: --out and {flag} name the same file\n"
        assert os.listdir(tmp_path) == ["sub"]


class TestFlagNeeds:
    """A flag that defaults to None and acts only alongside another flag is
    a usage error without it, raised before any input is read."""

    SAMPLES_CSV = ["ingest", "--samples-csv", ABSENT, "--key-columns", "activity"]

    @pytest.mark.parametrize("argv,message", [
        (SAMPLES_CSV + ["--subjects", "101", "--preset", "activity"], "--subjects needs --pamap2"),
        (SAMPLES_CSV + ["--preset", "activity"], "--preset needs --pamap2"),
        (SAMPLES_CSV + ["--config", ABSENT], "--config needs --pamap2"),
        (SAMPLES_CSV + ["--factors", "activity"], "--factors needs --pamap2"),
        (SAMPLES_CSV + ["--tilt-bins", "3"], "--tilt-bins needs --pamap2"),
        (SAMPLES_CSV + ["--energy-bins", "3"], "--energy-bins needs --pamap2"),
        (SAMPLES_CSV + ["--rate-bins", "3"], "--rate-bins needs --pamap2"),
        (SAMPLES_CSV + ["--save-config", "cfg.txt"], "--save-config needs --pamap2"),
        (["ingest", "--diagnoses", ABSENT, "--key-columns", "activity"],
         "--key-columns needs --samples-csv"),
        (["ingest", "--pamap2", ABSENT, "--subjects", "101", "--key-columns", "activity"],
         "--key-columns needs --samples-csv"),
        (["ceiling", "--counts", ABSENT, "--tau-max", "2", "--blind-accuracy", "0.5", "--classes", "3"],
         "--classes needs --blind-accuracy chance"),
        (["ceiling", "--counts", ABSENT, "--tau-max", "2", "--classes", "3"],
         "--classes needs --blind-accuracy chance"),
        (["report", "--counts", ABSENT, "--tau-max", "2", "--top-k", "3"],
         "--top-k needs --decompose-tau"),
    ])
    def test_flag_without_its_partner_is_usage_error(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--out", "out.txt"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"blindspot: error: {message}\n"
        assert os.listdir(tmp_path) == []


class TestDecompose:
    def test_weighted_contributions_match_published_values(self, capsys):
        code = main(["decompose", "--counts", COUNTS, "--tau", "150", "--weights", WEIGHTS])
        assert code == 0
        body = rows_of(capsys.readouterr().out)[1:]
        by_state = {r[0]: r for r in body}
        assert "activity=Walking" not in by_state
        top = [(r[0], round(float(r[4]), 3)) for r in body[:4]]
        assert top == [
            ("activity=Backward fall", 0.073),
            ("activity=Front fall", 0.073),
            ("activity=Stairs down", 0.052),
            ("activity=Stairs up", 0.048),
        ]
        assert float(by_state["activity=Sitting"][4]) == 0.0

    def test_unweighted_total_and_order(self, capsys, tmp_path):
        counts = tmp_path / "c.csv"
        counts.write_text("activity,count\na,1\nb,2\nc,9\n")
        out_json = tmp_path / "d.json"
        code = main(
            ["decompose", "--counts", str(counts), "--tau", "3", "--json", str(out_json)]
        )
        assert code == 0
        body = rows_of(capsys.readouterr().out)[1:]
        assert [r[0] for r in body] == ["activity=b", "activity=a"]
        doc = json.loads(out_json.read_text())
        assert doc["tau"] == 3
        assert math.isclose(doc["total"], 0.25, abs_tol=1e-15)

    def test_unmatched_weight_keys_warn_on_stderr_only(self, capsys, tmp_path):
        assert main(["decompose", "--counts", COUNTS, "--tau", "150", "--weights", WEIGHTS]) == 0
        matched = capsys.readouterr()
        assert matched.err == ""
        extra = tmp_path / "w.tsv"
        unmatched = "activity=Ghost\t0.5\nSwimming\t2\n"
        extra.write_text((DATA_DIR / "activity_weights.tsv").read_text() + unmatched)
        assert main(["decompose", "--counts", COUNTS, "--tau", "150", "--weights", str(extra)]) == 0
        captured = capsys.readouterr()
        assert captured.out == matched.out
        assert captured.err == "blindspot: warning: 2 weight key(s) match no observed state\n"

    def test_top_k_truncates(self, capsys, tmp_path):
        counts = tmp_path / "c.csv"
        counts.write_text("activity,count\na,1\nb,2\nc,9\n")
        assert main(["decompose", "--counts", str(counts), "--tau", "3", "--top-k", "1"]) == 0
        assert len(rows_of(capsys.readouterr().out)) == 2  # header + 1


class TestCeiling:
    def test_numeric_blind_accuracy(self, capsys, tmp_path):
        counts = tmp_path / "c.csv"
        counts.write_text("activity,count\na,1\nb,1\nc,3\n")
        code = main(["ceiling", "--counts", str(counts), "--tau-max", "2", "--blind-accuracy", "0.25"])
        assert code == 0
        body = rows_of(capsys.readouterr().out)
        assert body[0] == ["tau", "blind_mass", "ceiling"]
        assert body[1] == ["1", "0.000000", "1.000000"]
        assert body[2] == ["2", "0.400000", "0.700000"]  # 0.6 + 0.4*0.25

    def test_chance_uses_class_count(self, capsys, tmp_path):
        counts = tmp_path / "c.csv"
        counts.write_text("activity,count\na,1\nb,1\nc,3\n")
        code = main(
            ["ceiling", "--counts", str(counts), "--tau-max", "2",
             "--blind-accuracy", "chance", "--classes", "4"]
        )
        assert code == 0
        body = rows_of(capsys.readouterr().out)
        assert body[2] == ["2", "0.400000", "0.700000"]  # a = 1/4

    def test_chance_over_more_classes_than_a_float_holds(self, capsys, tmp_path):
        counts = tmp_path / "c.csv"
        counts.write_text("activity,count\na,1\nb,1\nc,3\n")
        argv = ["ceiling", "--counts", str(counts), "--tau-max", "2", "--blind-accuracy"]
        assert main(argv + ["chance", "--classes", "1" + "0" * 400]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert main(argv + ["0"]) == 0
        assert captured.out == capsys.readouterr().out


class TestHistogram:
    def test_order_and_format(self, capsys, tmp_path):
        counts = tmp_path / "c.csv"
        counts.write_text("activity,count\nb,3\na,3\nc,7\n")
        assert main(["histogram", "--counts", str(counts)]) == 0
        assert rows_of(capsys.readouterr().out) == [
            ["state", "count"],
            ["activity=c", "7"],
            ["activity=a", "3"],
            ["activity=b", "3"],
        ]


class TestWilson:
    def test_frozen_interval_row(self, capsys, tmp_path):
        acc = tmp_path / "acc.csv"
        acc.write_text("Class,Successes,Trials\noverall,5,5\nhalf,10,20\n")
        assert main(["wilson", "--input", str(acc)]) == 0
        body = rows_of(capsys.readouterr().out)
        assert body[0] == ["class", "successes", "trials", "p_hat", "lower", "upper"]
        assert body[1] == ["overall", "5", "5", "1.000000", "0.565518", "1.000000"]
        lower, upper = float(body[2][4]), float(body[2][5])
        assert lower < 0.5 < upper

    def test_confidence_flag_narrows(self, capsys, tmp_path):
        acc = tmp_path / "acc.csv"
        acc.write_text("class,successes,trials\nx,10,20\n")
        main(["wilson", "--input", str(acc)])
        wide = rows_of(capsys.readouterr().out)[1]
        main(["wilson", "--input", str(acc), "--confidence", "0.5"])
        narrow = rows_of(capsys.readouterr().out)[1]
        assert float(narrow[5]) - float(narrow[4]) < float(wide[5]) - float(wide[4])


    def test_error_names_the_physical_line_after_a_multiline_field(self, capsys, tmp_path):
        acc = tmp_path / "acc.csv"
        # the quoted class of record 1 spans lines 2-3, so the bad row is on line 5
        acc.write_text('class,successes,trials\n"two\nlines",1,2\nok,1,2\nbad,5,2\n')
        assert main(["wilson", "--input", str(acc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"blindspot: error: {acc}: line 5: successes must lie in [0, trials]; got 5 of 2\n"
        )

    def test_trials_beyond_the_float_range_exit_2(self, capsys, tmp_path):
        acc = tmp_path / "acc.csv"
        acc.write_text("class,successes,trials\nx,5,1" + "0" * 400 + "\n")
        assert main(["wilson", "--input", str(acc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"blindspot: error: {acc}: line 2: trials must be at most 1.7976931348623157e+308 "
            "(the largest float), got a 1329-bit integer\n"
        )

    def test_a_non_integer_count_exits_2(self, capsys, tmp_path):
        acc = tmp_path / "acc.csv"
        acc.write_text("class,successes,trials\nx,1,2\ny,1.5,2\n")
        assert main(["wilson", "--input", str(acc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"blindspot: error: {acc}: line 3: successes and trials must be integers\n"

    def test_gzipped_input_matches_plain(self, capsys, tmp_path):
        text = b"class,successes,trials\nx,10,20\ny,3,4\n"
        plain, packed = tmp_path / "acc.csv", tmp_path / "acc.csv.gz"
        plain.write_bytes(text)
        packed.write_bytes(gzip.compress(text))
        assert main(["wilson", "--input", str(plain)]) == 0
        expected = capsys.readouterr().out
        assert main(["wilson", "--input", str(packed)]) == 0
        assert capsys.readouterr().out == expected


class TestSimulate:
    def test_byte_determinism(self, capsys):
        assert main(["simulate", "--spec", SWEEP]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", "--spec", SWEEP]) == 0
        assert capsys.readouterr().out == first

    def test_seed_flag_changes_output(self, capsys):
        main(["simulate", "--spec", SWEEP])
        first = capsys.readouterr().out
        main(["simulate", "--spec", SWEEP, "--seed", "32"])
        assert capsys.readouterr().out != first

    def test_csv_header_and_grid(self, capsys):
        assert main(["simulate", "--spec", SWEEP]) == 0
        body = rows_of(capsys.readouterr().out)
        assert body[0][:8] == ["family", "params", "K", "n", "tau", "trials", "true_mean", "true_std"]
        assert body[0][8:11] == ["plugin_mean", "plugin_std", "plugin_mae"]
        assert [r[0] for r in body[1:]] == ["zipf", "zipf", "uniform", "uniform"]
        assert body[1][1] == "s=1" and body[1][5] == "4"

    def test_json_output(self, tmp_path, capsys):
        out_json = tmp_path / "sweep.json"
        assert main(["simulate", "--spec", SWEEP, "--json", str(out_json)]) == 0
        capsys.readouterr()
        doc = json.loads(out_json.read_text())
        assert doc["generator"] == "PCG64"
        assert doc["master_seed"] == 31
        assert doc["trials"] == 4
        assert len(doc["cells"]) == 4
        modes = [e["mode"] for e in doc["cells"][0]["estimates"]]
        assert modes == ["plugin", "plugin+unseen", "generalized-gt"]


class TestReport:
    def test_deterministic_file_output(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = [
            "report", "--counts", COUNTS, "--tau-max", "4",
            "--decompose-tau", "2", "--decompose-tau", "3",
            "--mode", "plugin", "--mode", "generalized-gt",
            "--dataset-id", "bench", "--out", str(out),
        ]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first
        doc = json.loads(first)
        assert [d["tau"] for d in doc["decompositions"]] == [2, 3]
        assert "estimator_notes" in doc["metadata"]
        capsys.readouterr()

    def test_stdout_by_default(self, capsys):
        assert main(["report", "--counts", COUNTS, "--tau-max", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metadata"]["n"] == 1674


class TestReportSamples:
    """``report --samples`` counts distinct lines; what it accepts, prints and
    refuses is what the row reader gives."""

    def _report(self, capsys, path):
        code = main(["report", "--samples", str(path), "--tau-max", "2"])
        return code, capsys.readouterr()

    @pytest.mark.parametrize(
        "body,message",
        [
            ("factor:a,factor:b\nx,y\nx,y\ny,x\nx\nx,y\n", "line 5: expected 2 fields, found 1"),
            ("factor:a,factor:a\nx,y\nx,y\n", "line 2: schema has duplicate factor names: ['a', 'a']"),
            ("factor:a,factor:b\n", "samples file has no data rows"),
            ("factor:a,factor:b\r\n", "samples file has no data rows"),
            ('factor:a,factor:b\nx,y\nx,"p\nq"\nx,y\n', "line 4: factor value may not contain '\\n': 'p\\nq'"),
            ("factor:a,factor:b\nx,y\r\n\r\nx,y\r\n", "line 3: expected 2 fields, found 0"),
            ("factor:a,factor:b\nx,y\nx, y\nx, y\n",
             "line 3: factor value must be non-empty without leading/trailing whitespace: ' y'"),
        ],
    )
    def test_errors_exit_2_naming_the_line(self, capsys, tmp_path, body, message):
        path = tmp_path / "s.csv"
        path.write_bytes(body.encode())
        code, captured = self._report(capsys, path)
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"blindspot: error: {path}: {message}\n"

    def test_quoted_fields_and_line_endings_count_as_their_values(self, capsys, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_bytes(b"factor:a,factor:b\nx,y\nx,y\nx,z\nx,p;q\n")
        variant = tmp_path / "variant.csv"
        variant.write_bytes(b'factor:a,factor:b\r\n"x",y\rx,y\r\nx,z\nx,"p;q"')
        outputs = []
        for path in (plain, variant):
            code, captured = self._report(capsys, path)
            assert code == 0 and captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]
        doc = json.loads(outputs[0])
        assert doc["metadata"]["n"] == 4
        assert doc["histogram"] == [
            {"state": "a=x|b=y", "count": 2},
            {"state": "a=x|b=p;q", "count": 1},
            {"state": "a=x|b=z", "count": 1},
        ]


class TestIngest:
    def test_a_bad_config_is_reported_before_any_recording_is_read(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("factors = activity\ntilt_bins = 0\n")
        code = main(["ingest", "--pamap2", str(tmp_path / "subject101.dat"), "--subjects", "101",
                     "--config", str(cfg)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"blindspot: error: {cfg}: tilt_bins must be >= 1, got 0\n"

    def test_a_saved_config_reingests_to_the_same_samples(self, capsys, tmp_path):
        # the saved quantile edges are reused, not refitted on a new fraction
        source = ["ingest", "--pamap2", PAMAP2, "--subjects", "101",
                  "--window-s", "0.5", "--stride-s", "0.25"]
        paths = [(tmp_path / f"samples{i}.csv", tmp_path / f"config{i}.txt") for i in range(2)]
        assert main([*source, "--preset", "activity-tilt-energy",
                     "--out", str(paths[0][0]), "--save-config", str(paths[0][1])]) == 0
        assert main([*source, "--config", str(paths[0][1]), "--fit-fraction", "0.3",
                     "--out", str(paths[1][0]), "--save-config", str(paths[1][1])]) == 0
        capsys.readouterr()
        for first, again in zip(*paths):
            assert again.read_bytes() == first.read_bytes()

    def test_samples_csv_to_stdout(self, capsys, tmp_path):
        src = tmp_path / "rows.csv"
        src.write_text("activity,surface\nwalk,grass\nrun,road\n")
        code = main(["ingest", "--samples-csv", str(src), "--key-columns", "activity", "surface"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "factor:activity,factor:surface",
            "walk,grass",
            "run,road",
        ]
        assert "rows read: 2" in captured.err

    def test_diagnoses_out_file(self, capsys, tmp_path):
        src = tmp_path / "diag.csv"
        src.write_text("hadm_id,seq_num,icd_code\n1,1,41071\n2,1,0389\n")
        dst = tmp_path / "samples.csv"
        assert main(["ingest", "--diagnoses", str(src), "--out", str(dst)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "admissions read: 2" in captured.err
        samples, schema = read_samples_file(dst)
        assert schema == ("icd4",)
        assert [s.value_of("icd4") for s in samples] == ["4107", "0389"]

    def test_a_bad_icd_code_names_its_file_and_line(self, capsys, tmp_path):
        src = tmp_path / "diag.csv"
        src.write_text("hadm_id,seq_num,icd_code\n1,1,41|07\n")
        assert main(["ingest", "--diagnoses", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"blindspot: error: {src}: line 2: factor value may not contain '|': '41|0'\n"

    def test_each_call_writes_its_skip_warning_to_its_own_stderr(self, tmp_path):
        src = tmp_path / "diag.csv"
        src.write_text("hadm_id,seq_num,icd_code\n7,2,V3000\n8,1,4107\n")
        handlers = list(logging.getLogger().handlers)
        for _ in range(2):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                assert main(["ingest", "--diagnoses", str(src)]) == 0
            assert err.getvalue().startswith(
                "blindspot: warning: skipping admission: admission '7' has no sequence-1 diagnosis\n"
                "sources: "
            )
        assert logging.getLogger().handlers == handlers

    def test_pamap2_pipeline(self, capsys, tmp_path):
        rng_rows = []
        for i in range(200):
            row = ["0"] * 54
            row[0] = format(0.01 * i, "g")
            row[1] = "4"
            row[2] = "90"
            row[21:24] = ["0.1", "0.2", "9.8"]       # chest acc16g
            row[27:30] = [format(0.3 + 0.001 * i, "g"), "0.1", "0.2"]  # chest gyro
            rng_rows.append(" ".join(row))
        dat = tmp_path / "subject101.dat"
        dat.write_text("\n".join(rng_rows) + "\n")

        dst = tmp_path / "samples.csv"
        cfg = tmp_path / "cfg.txt"
        code = main(
            ["ingest", "--pamap2", str(dat), "--subjects", "101",
             "--preset", "activity-tilt-energy",
             "--window-s", "0.5", "--stride-s", "0.25",
             "--out", str(dst), "--save-config", str(cfg)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "emitted: 7" in captured.err

        samples, schema = read_samples_file(dst)
        assert schema == ("activity", "tilt", "energy")
        assert len(samples) == 7
        assert all(s.value_of("activity") == "4" for s in samples)

        fitted = read_abstraction_config(cfg)
        assert fitted.energy_edges is not None
        assert len(fitted.energy_edges) == 4

    @pytest.mark.parametrize("activity", ["1e30", "inf", "-inf"])
    def test_pamap2_out_of_range_activity_exit_2(self, capsys, tmp_path, activity):
        rows = []
        for i in range(100):
            row = ["0"] * 54
            row[0] = format(0.01 * i, ".2f")
            row[1] = activity if i == 60 else "4"
            row[21:24] = ["0.1", "0.2", "9.8"]
            rows.append(" ".join(row))
        dat = tmp_path / "subject101.dat"
        dat.write_text("\n".join(rows) + "\n")
        code = main(["ingest", "--pamap2", str(dat), "--subjects", "101",
                     "--window-s", "0.2", "--stride-s", "0.1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"blindspot: error: {dat}: ")
        assert format(float(activity), "g") in captured.err

    @pytest.mark.parametrize(
        "source",
        [
            ["--samples-csv", str(GOLDEN_INPUTS / "rows.csv"), "--key-columns", "activity"],
            ["--diagnoses", str(GOLDEN_INPUTS / "diagnoses.csv")],
        ],
    )
    def test_save_config_without_pamap2_is_usage_error(self, capsys, tmp_path, source):
        cfg = tmp_path / "cfg.txt"
        assert main(["ingest", *source, "--save-config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "blindspot: error: --save-config needs --pamap2\n"
        assert not cfg.exists()

    def test_pamap2_no_windows_exit_2(self, capsys, tmp_path):
        row = ["0"] * 54
        row[1] = "4"
        dat = tmp_path / "subject101.dat"
        dat.write_text(" ".join(row) + "\n")
        code = main(["ingest", "--pamap2", str(dat), "--subjects", "101", "--window-s", "5"])
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_pamap2_zero_mean_acceleration_exit_2(self, capsys, tmp_path):
        rows = []
        for i in range(100):
            row = ["0"] * 54
            row[0] = format(0.01 * i, ".2f")
            row[1] = "4"
            row[27:30] = ["0.3", "0.1", "0.2"]  # chest gyro; the chest acc stays 0
            rows.append(" ".join(row))
        dat = tmp_path / "subject101.dat"
        dat.write_text("\n".join(rows) + "\n")
        code = main(["ingest", "--pamap2", str(dat), "--subjects", "101", "--preset", "activity-tilt",
                     "--window-s", "0.5", "--stride-s", "0.25"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "blindspot: error: window (label=4) has a zero-norm mean acceleration; tilt is undefined\n"
        )
