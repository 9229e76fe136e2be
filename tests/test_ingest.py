"""File formats and dataset adapters."""

import contextlib
import gzip
import math
import re
import warnings
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blindspot.ingest
from blindspot import (
    FACTOR_ORDER,
    AbstractionConfig,
    InputError,
    count_samples_file,
    SweepCell,
    abstract_stream,
    ingest_diagnoses,
    ingest_pamap2,
    ingest_samples_csv,
    make_windows,
    preset,
    read_abstraction_config,
    read_counts_file,
    read_kv_file,
    read_risk_weights,
    read_samples_file,
    read_sweep_spec,
    write_abstraction_config,
    write_samples_file,
)
from conftest import DATA_DIR, key, reference_count, reference_counts


def raises_at(path, pattern):
    """Expect an ``InputError`` whose message starts with ``<path>: ``.  A
    ``pattern`` that starts with ``line `` must follow that prefix directly;
    any other is searched for in the rest of the message."""
    gap = "" if pattern.startswith("line ") else ".*"
    return pytest.raises(InputError, match="^" + re.escape(f"{path}: ") + gap + pattern)


class TestSamplesFile:
    def test_round_trip(self, tmp_path):
        samples = [key(a="1", b="x"), key(a="2", b="y"), key(a="1", b="x")]
        path = tmp_path / "samples.csv"
        write_samples_file(path, samples, ("a", "b"))
        back, schema = read_samples_file(path)
        assert back == samples
        assert schema == ("a", "b")

    def test_header_written_with_factor_prefix(self, tmp_path):
        path = tmp_path / "samples.csv"
        write_samples_file(path, [key(a="1")], ("a",))
        assert path.read_text().splitlines()[0] == "factor:a"

    def test_gzip_read(self, tmp_path):
        path = tmp_path / "samples.csv.gz"
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            fh.write("factor:a\n1\n2\n")
        back, schema = read_samples_file(path)
        assert back == [key(a="1"), key(a="2")]
        assert schema == ("a",)

    def test_write_rejects_schema_mismatch(self, tmp_path):
        with pytest.raises(InputError):
            write_samples_file(tmp_path / "s.csv", [key(other="1")], ("a",))

    def test_read_rejects_unprefixed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InputError, match="factor:"):
            read_samples_file(path)

    def test_read_rejects_field_count_mismatch_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("factor:a,factor:b\n1,2\n3\n")
        with pytest.raises(InputError, match="line 3"):
            read_samples_file(path)

    def test_read_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InputError):
            read_samples_file(path)

    def test_read_rejects_bad_value_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('factor:a\n"x|y"\n')
        with pytest.raises(InputError, match="line 2"):
            read_samples_file(path)

    def test_equal_rows_share_one_key(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("factor:a,factor:b\n1,x\n2,y\n1,x\n1,x\n")
        back, _ = read_samples_file(path)
        assert back == [key(a="1", b="x"), key(a="2", b="y"), key(a="1", b="x"), key(a="1", b="x")]
        assert back[0] is back[2] is back[3]
        assert back[0] is not back[1]

    def test_repeated_bad_value_reported_at_first_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('factor:a\nok\n"x|y"\nok\nfine\nok\n"x|y"\n')
        with pytest.raises(InputError, match=r"line 3: factor value may not contain '\|'"):
            read_samples_file(path)

    def test_keys_share_the_schema_tuple(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("factor:a,factor:b\n1,x\n2,y\n1,z\n")
        back, schema = read_samples_file(path)
        assert all(k.names is schema for k in back)

    def test_field_count_error_before_bad_value_wins(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('factor:a,factor:b\n1,x\n2,y\n3\n"x|y",z\n')
        with pytest.raises(InputError, match="line 4: expected 2 fields, found 1"):
            read_samples_file(path)


# cells that read as values, and cells the reader refuses or reads by quoting
PLAIN_CELLS = st.sampled_from(["x", "y", "10", "p;q"])
ODD_CELLS = st.sampled_from(['"x"', '"p,q"', '"a""b"', '"a\nb"', '"a\r\nb"', " x", "x ", "", "x|y", "x\ty"])
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])
# records a samples file refuses: blank, a field short or over, a refused
# value, a quoted value that spans lines, a quote left open into the next
# lines or to the end of the file
SAMPLE_FAULTS = ["", "x,x,x,x", "x|y", " x", '"p\nq"', '"p\r\nq\rr"', '"p']


@st.composite
def samples_texts(draw):
    """Samples files with repeated rows, mixed line endings, an optional final
    newline and, in about half of them, quoted, padded, blank, wrong-width or
    refused cells and rows; up to two more refused records at random lines;
    a few have a bad or missing header."""
    width = draw(st.integers(1, 3))
    header = ",".join(f"factor:f{i}" for i in range(width))
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.sampled_from(["", "f0", "factor:f0,factor:f0", '"factor:f0"']))
    odd = draw(st.booleans())
    cells = st.one_of(PLAIN_CELLS, ODD_CELLS) if odd else PLAIN_CELLS
    pool = draw(st.lists(st.lists(cells, min_size=width, max_size=width).map(",".join),
                         min_size=1, max_size=4))
    if odd:
        pool += ["", ",".join(["x"] * (width + 1))]
    lines = [header] + draw(st.lists(st.sampled_from(pool), max_size=30))
    for bad in draw(st.lists(st.sampled_from(SAMPLE_FAULTS), max_size=2)):
        lines.insert(draw(st.integers(1, len(lines))), bad)
    text = "".join(line + draw(ENDINGS) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def outcome(read, path):
    try:
        table = read(path)
    except InputError as exc:
        return str(exc)
    return dict(table.counts), table.n, table.schema


def count_opens(monkeypatch) -> list:
    """The paths ``blindspot.ingest`` opens from now on, in order."""
    opened = []
    real = blindspot.ingest._open_text
    monkeypatch.setattr(blindspot.ingest, "_open_text", lambda path: opened.append(path) or real(path))
    return opened


class TestCountSamplesFile:
    @settings(max_examples=300, deadline=None)
    @given(text=samples_texts(), block=st.integers(1, 3))
    def test_equals_the_row_reader(self, tmp_path_factory, text, block):
        work = tmp_path_factory.mktemp("count")
        plain = work / "s.csv"
        plain.write_bytes(text.encode())
        packed = work / "s.csv.gz"
        packed.write_bytes(gzip.compress(text.encode()))
        for path in (plain, packed):
            with mock.patch.object(blindspot.ingest, "_BLOCK_ROWS", block):
                got = outcome(count_samples_file, path)
            assert got == outcome(reference_count, path)

    def test_lines_that_differ_only_in_their_ending_are_one_state(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"factor:a,factor:b\nx,y\nx,y\r\nx,y\rz,y\nx,y")
        table = count_samples_file(path)
        assert dict(table.counts) == {key(a="x", b="y"): 4, key(a="z", b="y"): 1}
        assert table.n == 5 and table.schema == ("a", "b")
        assert all(k.names is table.schema for k in table.counts)

    @pytest.mark.parametrize("block", [1, 4096])
    def test_a_quoted_field_counts_as_its_value_in_one_read(self, tmp_path, monkeypatch, block):
        path = tmp_path / "s.csv"
        path.write_text('factor:a\nx\n"x"\n')
        opened = count_opens(monkeypatch)
        with mock.patch.object(blindspot.ingest, "_BLOCK_ROWS", block):
            table = count_samples_file(path)
        assert dict(table.counts) == {key(a="x"): 2}
        assert opened == [path]

    @pytest.mark.parametrize("block", [1, 2])
    def test_a_quoted_field_across_blocks_is_refused_at_its_last_line(self, tmp_path, block):
        path = tmp_path / "s.csv"
        # the record starts on line 3 and ends on line 5, past the end of its block
        path.write_bytes(b'factor:a,factor:b\nx,y\nx,"p\nq\r\nr"\nx,y\n')
        message = "line 5: factor value may not contain '\\n': 'p\\nq\\r\\nr'"
        with mock.patch.object(blindspot.ingest, "_BLOCK_ROWS", block), \
                raises_at(path, re.escape(message) + "$"):
            count_samples_file(path)
        assert outcome(reference_count, path) == f"{path}: {message}"

    @pytest.mark.parametrize("block", [1, 2, 4096])
    @pytest.mark.parametrize("lines, message", [
        # the line after the open quote repeats line 2, so it is not among
        # the block's new lines; the record still ends on line 5
        (['x,y', '"p,q', 'x,y', 'r,s'], "line 5: expected 2 fields, found 1"),
        (['x,y', '"p,q', 'x,y"', 'r,s', 'x,y'], "line 4: expected 2 fields, found 1"),
        (['"p,q', 'x,y'], "line 3: expected 2 fields, found 1"),
        (['x,"y'], "line 2: factor value must be non-empty without leading/trailing whitespace: 'y\\n'"),
    ], ids=["repeat", "closed", "to-eof", "last-field"])
    def test_a_record_that_runs_past_its_line_is_refused_where_it_ends(self, tmp_path, block, lines, message):
        path = tmp_path / "s.csv"
        path.write_text("".join(f"{line}\n" for line in ["factor:a,factor:b", *lines]))
        with mock.patch.object(blindspot.ingest, "_BLOCK_ROWS", block):
            assert outcome(count_samples_file, path) == f"{path}: {message}"
        assert outcome(reference_count, path) == f"{path}: {message}"

    @pytest.mark.parametrize("block", [1, 2, 4096])
    @pytest.mark.parametrize("lines, message", [
        (["x", '"p', "b" * 140_000 + '"'], "line 4: field larger than field limit (131072)"),
        # the repeated line is not among the block's new lines, but the
        # parser stops on the fifth line of the file
        (["x", "x", '"p', "b" * 140_000 + '"'], "line 5: field larger than field limit (131072)"),
    ], ids=["spanning", "after-a-repeat"])
    def test_a_csv_refusal_in_a_record_that_spans_lines_names_where_the_parser_stopped(
            self, tmp_path, block, lines, message):
        path = tmp_path / "s.csv"
        path.write_text("".join(f"{line}\n" for line in ["factor:a", *lines]))
        with mock.patch.object(blindspot.ingest, "_BLOCK_ROWS", block):
            assert outcome(count_samples_file, path) == f"{path}: {message}"
        assert outcome(reference_count, path) == f"{path}: {message}"


# count cells int() accepts, padded or quoted, three spanning two lines; value
# cells padded, quoted or repeated
COUNT_CELLS = st.sampled_from(["1", "2", " 3", "4 ", "+7", "1_000", '"5"', '"6\n"', '"7\r\n"', '"8\r"'])
VALUE_CELLS = st.sampled_from(["x", "y", "10", " x", "y ", '"x"', '"p,q"'])
# up to two faulty records: a bad count, a bad value (one spanning lines), a
# ragged or blank record
COUNT_FAULTS = ["0", "-2", "x", "1.5", ""]
VALUE_FAULTS = ["", "x|y", '"p\r\nq"']


@st.composite
def counts_texts(draw):
    """Counts files of a few rows with repeated, padded and quoted states and
    counts, and in most of them one or two faulty records at random lines."""
    width = draw(st.integers(1, 3))
    header = [draw(st.sampled_from([f"f{i}", f"factor:f{i}", f" f{i} "])) for i in range(width)]
    record = st.tuples(st.lists(VALUE_CELLS, min_size=width, max_size=width), COUNT_CELLS)
    records = [[*values, count] for values, count in draw(st.lists(record, max_size=12))]
    for fault in draw(st.lists(st.sampled_from(["count", "value", "ragged", "blank"]), max_size=2)):
        bad = ["x"] * width + ["1"]
        if fault == "count":
            bad[-1] = draw(st.sampled_from(COUNT_FAULTS))
        elif fault == "value":
            bad[draw(st.integers(0, width - 1))] = draw(st.sampled_from(VALUE_FAULTS))
        elif fault == "ragged":
            bad = bad[:-1] if draw(st.booleans()) else bad + ["1"]
        else:
            bad = []
        records.insert(draw(st.integers(0, len(records))), bad)
    return "".join(",".join(cells) + "\n" for cells in [[*header, "count"], *records])


def counts_outcome(read, path):
    """The table's items in order and its schema, or the error's text."""
    try:
        table = read(path)
    except InputError as exc:
        return str(exc)
    assert all(k.names is table.schema for k in table.counts)
    return list(table.counts.items()), table.schema


class TestCountsFile:
    def test_reference_fixture(self):
        table = read_counts_file(DATA_DIR / "activity_counts.csv")
        assert table.n == 1674
        assert table.k_observed == 12
        assert table.schema == ("activity",)
        assert table.count(key(activity="Walking")) == 307

    def test_keys_share_the_schema_tuple(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("a,b,count\n1,x,3\n2,y,1\n1,z,2\n")
        table = read_counts_file(path)
        assert all(k.names is table.schema for k in table.counts)

    def test_duplicate_states_summed(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("activity,count\nwalk,3\nrun,1\nwalk,2\n")
        table = read_counts_file(path)
        assert table.count(key(activity="walk")) == 5
        assert table.n == 6

    def test_factor_prefixed_header_accepted(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("factor:a,factor:b,count\n1,2,7\n")
        table = read_counts_file(path)
        assert table.schema == ("a", "b")
        assert table.count(key(a="1", b="2")) == 7

    @pytest.mark.parametrize(
        "body,pattern",
        [
            ("activity\nwalk\n", "count"),
            ("activity,count\nwalk,0\n", "line 2"),
            ("activity,count\nwalk,two\n", "line 2"),
            ("activity,count\nwalk\n", "line 2"),
            ("activity,count\n", "no data rows"),
            ("", "missing header"),
            ("activity,count\nrun,1\nwalk,two\n", "line 3: count 'two' is not an integer$"),
            ("activity,count\nx|y,1\n", r"line 2: factor value may not contain '\|'"),
            # the quoted count spans lines 2-3, so the bad row is on line 4
            ('activity,count\nwalk,"1\n"\nrun,0\n', "line 4: count must be >= 1, got 0$"),
        ],
    )
    def test_malformed_rejected(self, tmp_path, body, pattern):
        path = tmp_path / "c.csv"
        path.write_text(body)
        with raises_at(path, pattern):
            read_counts_file(path)

    @pytest.mark.parametrize("column", [" factor:a", "factor:a ", "a ", " a", "factor:a"])
    def test_a_padded_header_column_names_its_factor(self, tmp_path, column):
        path = tmp_path / "c.csv"
        path.write_text(f"{column},count\nx,1\n")
        table = read_counts_file(path)
        assert table.schema == ("a",)
        assert dict(table.counts) == {key(a="x"): 1}

    @settings(max_examples=300, deadline=None)
    @given(text=counts_texts(), block=st.integers(1, 3))
    def test_equals_the_row_reader(self, tmp_path_factory, text, block):
        work = tmp_path_factory.mktemp("counts")
        plain = work / "c.csv"
        plain.write_bytes(text.encode())
        packed = work / "c.csv.gz"
        packed.write_bytes(gzip.compress(text.encode()))
        for path in (plain, packed):
            with mock.patch.object(blindspot.ingest, "_BLOCK_ROWS", block):
                got = counts_outcome(read_counts_file, path)
            assert got == counts_outcome(reference_counts, path)


@pytest.mark.parametrize(
    "read,body,refused",
    [
        (count_samples_file, "factor:a\nx\nx\n", False),
        (count_samples_file, "factor:a\nx\nx|y\n", True),
        (count_samples_file, 'factor:a\nx\n"x"\n', False),
        (count_samples_file, 'factor:a\nx\n"x\ny"\n', True),
        (read_counts_file, "a,count\nx,1\nx,2\n", False),
        (read_counts_file, "a,count\nx,1\nx,0\n", True),
        (read_counts_file, 'a,count\n"x",1\n"x\ny",2\n', True),
    ],
)
def test_a_table_reader_opens_its_file_once(tmp_path, monkeypatch, read, body, refused):
    path = tmp_path / "t.csv"
    path.write_text(body)
    opened = count_opens(monkeypatch)
    with pytest.raises(InputError) if refused else contextlib.nullcontext():
        read(path)
    assert opened == [path]


# each CSV reader: what its missing-header error calls the file, a header, and
# a record of the header's width
CSV_READERS = {
    "samples": (read_samples_file, "samples file", "factor:a,factor:b", "x,y"),
    "counts": (read_counts_file, "counts file", "a,count", "x,1"),
    "wilson": (blindspot.ingest.read_class_accuracies, "file", "class,successes,trials", "x,1,2"),
    "samples-csv": (lambda path: ingest_samples_csv(path, ["a"]), "file", "a,b", "x,y"),
    "diagnoses": (ingest_diagnoses, "file", "hadm_id,seq_num,icd_code", "1,1,41071"),
}


@pytest.mark.parametrize("fmt", CSV_READERS)
class TestCsvRules:
    """The header and record rules every CSV reader shares."""

    def test_an_empty_file_has_no_header(self, tmp_path, fmt):
        read, what, _, _ = CSV_READERS[fmt]
        path = tmp_path / "x.csv"
        path.write_text("")
        with raises_at(path, re.escape(f"empty {what} (missing header)") + "$"):
            read(path)

    def test_a_ragged_record_is_named_by_the_line_it_ends_on(self, tmp_path, fmt):
        read, _, header, record = CSV_READERS[fmt]
        width = header.count(",") + 1
        path = tmp_path / "x.csv"
        path.write_text(f'{header}\n{record}\n"p\nq",{record}\n')  # the quoted field spans lines 3-4
        with raises_at(path, f"line 4: expected {width} fields, found {width + 1}$"):
            read(path)

    def test_a_blank_line_is_refused_in_samples_and_counts_files_only(self, tmp_path, fmt):
        read, _, header, record = CSV_READERS[fmt]
        width = header.count(",") + 1
        path = tmp_path / "x.csv"
        path.write_text(f"{header}\n{record}\n\n{record},z\n")
        if fmt in ("samples", "counts"):
            message = f"line 3: expected {width} fields, found 0$"
        else:  # skipped, and the next record is named by its own line
            message = f"line 4: expected {width} fields, found {width + 1}$"
        with raises_at(path, message):
            read(path)


@pytest.mark.parametrize("fmt", ["wilson", "samples-csv", "diagnoses"])
def test_a_column_the_reader_does_not_read_may_repeat(tmp_path, fmt):
    read, _, header, record = CSV_READERS[fmt]
    path = tmp_path / "x.csv"
    path.write_text(f"{header},u,U\n{record},1,2\n")
    repeated = read(path)
    path.write_text(f"{header},u,v\n{record},1,2\n")
    assert read(path) == repeated


# every file reader with files it refuses: each CSV reader a bad header, a bad
# record, a field over the csv module's limit and an empty file; the others a
# bad record, or a bad value where their records are read by key
REFUSED_FILES = [
    *[
        pytest.param(read, text, id=f"{fmt}-{fault}")
        for fmt, (read, _, header, record) in {
            **CSV_READERS, "count-samples": (count_samples_file, None, "factor:a,factor:b", "x,y"),
        }.items()
        for fault, text in {
            "header": f"p,q\n{record}\n",
            "record": f"{header}\n{record}\n{record},z\n",
            "field": f'{header}\n{record}\n"{"x" * 200_000}"{"," * header.count(",")}\n',
            "empty": "",
        }.items()
    ],
    pytest.param(lambda path: read_risk_weights(path, ("a",)), "x\t1\ny\n", id="weights-record"),
    pytest.param(lambda path: read_kv_file(path, ("a",)), "a = 1\nb = 2\n", id="kv-record"),
    pytest.param(read_abstraction_config, "tilt_bins = x\n", id="config-value"),
    pytest.param(read_sweep_spec, "family = zipf\nK = 3\nn = 4\ntau = 1\n", id="spec-value"),
    pytest.param(read_sweep_spec, "", id="spec-empty"),
    pytest.param(lambda path: ingest_pamap2([path], [101]), "1 2 3\n", id="pamap2-record"),
]


@pytest.mark.parametrize("read, text", REFUSED_FILES)
def test_a_refused_file_is_named_once_and_its_line_at_most_once(tmp_path, read, text):
    path = tmp_path / "subject101.dat"  # the pamap2 reader wants a subject id in the name
    path.write_text(text)
    with pytest.raises(InputError) as refused:
        read(path)
    message = str(refused.value)
    assert message.startswith(f"{path}: ") and message.count(str(path)) == 1
    assert message.count("line ") <= 1


class TestRiskWeights:
    def test_reference_fixture(self):
        w = read_risk_weights(DATA_DIR / "activity_weights.tsv", ("activity",))
        assert w.weight(key(activity="Front fall")) == 1.0
        assert w.weight(key(activity="Stairs up")) == 0.6
        assert w.weight(key(activity="Walking")) == 0.2
        assert w.weight(key(activity="Sitting")) == 0.0  # '*' default

    def test_bare_and_canonical_forms(self, tmp_path):
        path = tmp_path / "w.tsv"
        path.write_text("a=1|b=2\t0.5\n3|4\t2.0\n# comment\n\n")
        w = read_risk_weights(path, ("a", "b"))
        assert w.weight(key(a="1", b="2")) == 0.5
        assert w.weight(key(a="3", b="4")) == 2.0
        assert w.weight(key(a="9", b="9")) == 1.0  # no '*': default stays 1

    @pytest.mark.parametrize(
        "body,pattern",
        [
            ("x=1\t0.5\n", "do not match"),
            ("walk 0.5\n", "TAB"),
            ("walk\tmany\n", "not a number"),
            ("walk\t-1\n", ">= 0"),
            ("walk\t0.5\nwalk\t0.7\n", "duplicate"),
            ("*\t0\n*\t1\n", "duplicate"),
            ("walk\t1\nx=1\t0.5\n", r"line 2: state factors \['x'\] do not match schema \['activity'\]$"),
            ("# note\n\nwalk 0.5\n", "line 3: expected <state><TAB><weight>, got 'walk 0.5'$"),
            ("walk\t0.5\n*\t0\nwalk\t0.7\n", "line 3: duplicate weight for 'activity=walk'$"),
            ("a|b\t1\n", "line 1: expected 1 factor values"),
        ],
    )
    def test_malformed_rejected(self, tmp_path, body, pattern):
        path = tmp_path / "w.tsv"
        path.write_text(body)
        with raises_at(path, pattern):
            read_risk_weights(path, ("activity",))


class TestKvFile:
    def test_parsing(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header comment\n\na = 1\nb=two words \n")
        assert read_kv_file(path, ("a", "b")) == {"a": "1", "b": "two words"}

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a = 1\na = 2\n")
        with raises_at(path, "line 2: duplicate key 'a'$"):
            read_kv_file(path, ("a",))

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\njust some text\n")
        with raises_at(path, "line 2: expected 'key = value', got 'just some text'$"):
            read_kv_file(path, ("a",))

    def test_unknown_key_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a = 1\n# comment\nc = 3\nb = 2\n")
        with raises_at(path, "line 3: unknown key 'c'; expected \\['a', 'b'\\]$"):
            read_kv_file(path, ("a", "b"))


# a bin count and either no edges or bins + 1 sorted finite edges, tiny and
# huge magnitudes included
_EDGE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 1.7976931348623157e308]
)
_BINS_AND_EDGES = st.integers(1, 12).flatmap(lambda b: st.tuples(
    st.just(b),
    st.none() | st.lists(_EDGE, min_size=b + 1, max_size=b + 1).map(lambda v: tuple(sorted(v))),
))


class TestAbstractionConfigFile:
    def test_round_trip_with_edges(self, tmp_path):
        cfg = AbstractionConfig(
            factors=("activity", "tilt", "energy"),
            tilt_bins=6,
            energy_bins=3,
            energy_edges=(0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0),
            refinement_tag="a,p,e",
        )
        path = tmp_path / "cfg.txt"
        write_abstraction_config(path, cfg)
        assert read_abstraction_config(path) == cfg  # .17g keeps floats exact

    @settings(max_examples=200, deadline=None)
    @given(
        factors=st.lists(st.sampled_from(FACTOR_ORDER), min_size=1, unique=True),
        tilt_bins=st.integers(1, 12),
        energy=_BINS_AND_EDGES,
        rate=_BINS_AND_EDGES,
        tag=st.from_regex(r"[a-z](,[a-z])*", fullmatch=True),
    )
    def test_round_trip_property(self, tmp_path_factory, factors, tilt_bins, energy, rate, tag):
        cfg = AbstractionConfig(
            factors=tuple(factors),
            tilt_bins=tilt_bins,
            energy_bins=energy[0],
            rate_bins=rate[0],
            energy_edges=energy[1],
            rate_edges=rate[1],
            refinement_tag=tag,
        )
        path = tmp_path_factory.getbasetemp() / "round-trip-cfg.txt"
        write_abstraction_config(path, cfg)
        assert read_abstraction_config(path) == cfg

    def test_exact_text_with_rate_edges_only(self, tmp_path):
        cfg = AbstractionConfig(
            factors=("rate", "activity"), rate_bins=2, rate_edges=(0.1, 0.5, 2.0), refinement_tag="a,r"
        )
        path = tmp_path / "cfg.txt"
        write_abstraction_config(path, cfg)
        assert path.read_bytes() == (
            b"factors = activity, rate\n"
            b"tilt_bins = 6\n"
            b"energy_bins = 3\n"
            b"rate_bins = 2\n"
            b"refinement_tag = a,r\n"
            b"rate_edges = 0.10000000000000001, 0.5, 2\n"
        )

    def test_defaults_fill_missing_keys(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("factors = activity\n")
        cfg = read_abstraction_config(path)
        assert cfg.factors == ("activity",)
        assert cfg.tilt_bins == 6

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("factors = activity\nwibble = 3\n")
        with pytest.raises(InputError, match="wibble"):
            read_abstraction_config(path)

    def test_bad_number_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("tilt_bins = six\n")
        with raises_at(path, "tilt_bins must be an integer, got 'six'$"):
            read_abstraction_config(path)

    def test_unknown_key_reported_at_its_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("factors = activity\nwibble = 3\n")
        with raises_at(path, "line 2: unknown key 'wibble'; expected \\['factors', "):
            read_abstraction_config(path)

    @pytest.mark.parametrize("body, message", [
        ("tilt_bins = 0", "tilt_bins must be >= 1, got 0"),
        ("factors = activity, bogus", r"unknown factors \['bogus'\]"),
        ("factors = activity, energy\nenergy_bins = 2\nenergy_edges = 3, 2, 1",
         "energy_edges must be nondecreasing"),
        ("factors = activity, energy\nenergy_bins = 2\nenergy_edges = 0, nan, 1",
         "energy_edges must be nondecreasing"),
        ("tilt_bins = 1.5", "tilt_bins must be an integer, got '1.5'$"),
        ("factors = activity, energy\nenergy_bins = 2\nenergy_edges = 0, abc, 2",
         "energy_edges must be a comma-separated list of numbers$"),
    ], ids=["tilt_bins", "factors", "energy_edges", "nan energy_edges", "integer tilt_bins", "number energy_edges"])
    def test_value_errors_name_the_file(self, tmp_path, body, message):
        path = tmp_path / "cfg.txt"
        path.write_text(body + "\n")
        with raises_at(path, message):
            read_abstraction_config(path)


class TestSweepSpec:
    def test_cross_product_order(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text(
            "family = zipf, uniform\n"
            "zipf_s = 0.5, 1.0\n"
            "K = 10, 20\n"
            "n = 100\n"
            "tau = 1, 2\n"
            "trials = 7\n"
            "seed = 3\n"
        )
        cells, trials, seed = read_sweep_spec(path)
        assert trials == 7 and seed == 3
        expected = []
        for params in ((("s", 0.5),), (("s", 1.0),)):
            for size in (10, 20):
                for tau in (1, 2):
                    expected.append(SweepCell(family="zipf", params=params, size=size, n=100, tau=tau))
        for size in (10, 20):
            for tau in (1, 2):
                expected.append(SweepCell(family="uniform", params=(), size=size, n=100, tau=tau))
        assert cells == expected

    def test_trials_and_seed_optional(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("family = uniform\nK = 5\nn = 10\ntau = 1\n")
        cells, trials, seed = read_sweep_spec(path)
        assert len(cells) == 1 and trials is None and seed is None

    @pytest.mark.parametrize(
        "body,pattern",
        [
            ("family = zipf\nK = 5\nn = 10\ntau = 1\n", "zipf_s"),
            ("family = pareto\nzipf_s = 1\nK = 5\nn = 10\ntau = 1\n", "pareto"),
            ("family = uniform\nn = 10\ntau = 1\n", "'K'"),
            ("family = uniform\nK = 5\nn = ten\ntau = 1\n", "integers"),
            ("family = uniform\nK = 5\nn = 10\ntau = 1\ntrials = 1e3\n", r"trials must be an integer, got '1e3'$"),
            ("family = uniform\nK = 5\nn = 10\ntau = 1\nseed = 0x1\n", r"seed must be an integer, got '0x1'$"),
            ("family = uniform\nK = 5\nn = 10\ntau = 1\nbogus = 2\n", "bogus"),
            ("family = uniform\nK = 5\nK = 6\n", "line 3: duplicate key 'K'$"),
            ("family = uniform\n\ntrials 4\n", "line 3: expected 'key = value', got 'trials 4'$"),
            ("family = uniform\nK = 5\nn = 10\ntau = 1\nbogus = 2\n", "line 5: unknown key 'bogus'; expected "),
            ("family = uniform\nzipf_s = 1.0\ngeom_ratio = 0.5\nK = 5\nn = 10\ntau = 1\n",
             "zipf_s needs family zipf$"),
            ("family = zipf\nzipf_s = 1.0\ngeom_ratio = 0.5\nK = 5\nn = 10\ntau = 1\n",
             "geom_ratio needs family geometric$"),
            ("family = zipf\nzipf_s = 1.0, -1\nK = 5\nn = 10\ntau = 1\n",
             r"zipf exponent must be >= 0, got -1.0$"),
            ("family = geometric\ngeom_ratio = 0.5\nK = 5, 0\nn = 10\ntau = 1\n",
             "size must be >= 1, got 0$"),
        ],
    )
    def test_malformed_rejected(self, tmp_path, body, pattern):
        path = tmp_path / "spec.txt"
        path.write_text(body)
        with raises_at(path, pattern):
            read_sweep_spec(path)


class TestSamplesCsvAdapter:
    def test_states_from_key_columns(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text(
            "when,activity,surface,note\n"
            "1,walk,grass,ok\n"
            "2,run,road,\n"
            "3,walk,grass,fine\n"
        )
        samples, summary = ingest_samples_csv(path, ("activity", "surface"))
        assert samples == [
            key(activity="walk", surface="grass"),
            key(activity="run", surface="road"),
            key(activity="walk", surface="grass"),
        ]
        assert summary.rows_read == 3 and summary.rows_kept == 3
        assert summary.emitted == 3 and summary.dropped == {}

    def test_blank_cells_drop_the_row(self, tmp_path):
        path = tmp_path / "rows.csv"
        # the fully empty line is not a row at all; the whitespace one is
        path.write_text("activity\nwalk\n\n  \nrun\n")
        samples, summary = ingest_samples_csv(path, ("activity",))
        assert [s.value_of("activity") for s in samples] == ["walk", "run"]
        assert summary.dropped == {"missing-label": 1}
        assert summary.rows_read == summary.rows_kept + 1

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InputError, match="missing key column"):
            ingest_samples_csv(path, ("a", "zzz"))

    def test_values_are_stripped(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("activity\n  walk  \n")
        samples, _ = ingest_samples_csv(path, ("activity",))
        assert samples == [key(activity="walk")]

    def test_equal_rows_share_one_key(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("id,activity,surface\n1,walk,grass\n2,run,road\n3, walk ,grass\n4,walk,grass\n")
        samples, _ = ingest_samples_csv(path, ("activity", "surface"))
        assert samples[0] is samples[2] is samples[3]
        assert samples[0] is not samples[1]
        assert all(s.names is samples[0].names for s in samples)

    def test_repeated_bad_value_reported_at_first_line(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text('activity\nok\n"x|y"\nok\n"x|y"\n')
        with pytest.raises(InputError, match=r"line 3: factor value may not contain '\|'"):
            ingest_samples_csv(path, ("activity",))

    def test_error_names_the_physical_line_after_a_multiline_field(self, tmp_path):
        path = tmp_path / "rows.csv"
        # the quoted note of record 1 spans lines 2-4
        path.write_text('activity,notes\nwalk,"first\nsecond\nthird"\nrun,ok\na|b,bad\n')
        with raises_at(path, r"line 6: factor value may not contain '\|': 'a\|b'$"):
            ingest_samples_csv(path, ("activity",))


DIAG_BODY = (
    "HADM_ID,SEQ_NUM,ICD_CODE\n"
    "200,2,E8889\n"
    "200,1,41071\n"
    "201,1,0389\n"
    "201,1,99999\n"
    "202,2,V3000\n"
)


class TestDiagnosesAdapter:
    def test_admission_unit_accounting(self, tmp_path):
        path = tmp_path / "diag.csv"
        path.write_text(DIAG_BODY)
        samples, summary = ingest_diagnoses(path)
        assert samples == [key(icd4="4107"), key(icd4="0389")]
        assert summary.unit == "admissions"
        assert summary.rows_read == 3
        assert summary.rows_kept == 2
        assert summary.dropped == {"no-seq1-diagnosis": 1}
        assert summary.notes == {"diagnosis-rows": 5, "duplicate-seq1-diagnosis": 1}
        assert summary.skipped == ["skipping admission: admission '202' has no sequence-1 diagnosis"]

    def test_case_insensitive_alias_headers(self, tmp_path):
        path = tmp_path / "diag.csv"
        path.write_text("admission_id,Seq_Num,icd_code\n9,1,G4730\n")
        samples, _ = ingest_diagnoses(path)
        assert samples == [key(icd4="G473")]

    def test_gzip_read(self, tmp_path):
        path = tmp_path / "diag.csv.gz"
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            fh.write(DIAG_BODY)
        samples, _ = ingest_diagnoses(path)
        assert len(samples) == 2

    def test_equal_prefixes_share_one_key(self, tmp_path):
        path = tmp_path / "diag.csv"
        path.write_text("hadm_id,seq_num,icd_code\n1,1,41071\n2,1,0389\n3,1,41072\n4,1,4107\n")
        samples, _ = ingest_diagnoses(path)
        assert samples == [key(icd4="4107"), key(icd4="0389"), key(icd4="4107"), key(icd4="4107")]
        assert samples[0] is samples[2] is samples[3]
        assert samples[0] is not samples[1]
        assert all(s.names is samples[0].names for s in samples)

    @pytest.mark.parametrize(
        "body,pattern",
        [
            ("who,seq_num,icd_code\n1,1,A\n", "hadm_id"),
            ("hadm_id,seq_num,icd_code\n,1,A\n", "empty admission id"),
            ("hadm_id,seq_num,icd_code\n1,one,A\n", "not an integer"),
            ("hadm_id,seq_num,icd_code\n1,1,A\n2,x,B\n", "line 3: sequence number 'x' is not an integer$"),
            # the quoted code of record 1 spans lines 2-3, so the bad row is on line 4
            ('hadm_id,seq_num,icd_code\n1,1,"A\nB"\n,1,C\n', "line 4: empty admission id$"),
            # a bad prefix is found after the file is read; the line is the
            # admission's first sequence-1 row
            ("hadm_id,seq_num,icd_code\n1,1,41|07\n", r"line 2: factor value may not contain '\|': '41\|0'$"),
            ("hadm_id,seq_num,icd_code\n7,1,4107\n8,2,E888\n8,1,41|07\n8,1,0389\n",
             r"line 4: factor value may not contain '\|': '41\|0'$"),
        ],
    )
    def test_malformed_rejected(self, tmp_path, body, pattern):
        path = tmp_path / "diag.csv"
        path.write_text(body)
        with raises_at(path, pattern):
            ingest_diagnoses(path)


# --------------------------------------------------------------------------
# raw IMU fixtures

CHEST_BASE = 20
HAND_BASE = 3


def raw_row(ts, act, acc=(0.0, 0.0, 9.8), gyro=(0.1, 0.2, 0.3), base=CHEST_BASE):
    row = [0.0] * 54
    row[0] = ts
    row[1] = act
    row[2] = 90.0
    row[base] = 30.0  # temperature
    row[base + 1 : base + 4] = list(acc)  # 16g accelerometer
    row[base + 4 : base + 7] = [v / 2 for v in acc]  # 6g accelerometer (unused)
    row[base + 7 : base + 10] = list(gyro)
    row[base + 10 : base + 13] = [10.0, 20.0, 30.0]  # magnetometer (unused)
    return row


RAW_NAMES = ("subject101.dat", "subject101.dat.gz")


def write_raw_text(path, text):
    """``text`` as UTF-8, gzipped when the file name ends in ``.gz``."""
    data = text.encode()
    path.write_bytes(gzip.compress(data) if path.suffix == ".gz" else data)


def write_dat(path, rows):
    def tok(v):
        if isinstance(v, float) and math.isnan(v):
            return "NaN"
        return format(v, "g")

    path.write_text("".join(" ".join(tok(v) for v in row) + "\n" for row in rows))


class TestRawRecordingAdapter:
    def test_extracts_the_right_columns(self, tmp_path):
        path = tmp_path / "subject101.dat"
        write_dat(path, [raw_row(0.01 * i, 4, acc=(1.0, 2.0, 3.0), gyro=(4.0, 5.0, 6.0)) for i in range(10)])
        stream, summary = ingest_pamap2([path], [101], "chest")
        assert len(stream) == 10
        assert stream.sample_rate_hz == 100.0
        assert list(stream.labels) == [4] * 10
        assert stream.acc[0].tolist() == [1.0, 2.0, 3.0]
        assert stream.gyro[0].tolist() == [4.0, 5.0, 6.0]
        assert summary.rows_read == 10 and summary.rows_kept == 10

    def test_placement_selects_imu_block(self, tmp_path):
        path = tmp_path / "subject101.dat"
        rows = []
        for i in range(5):
            row = raw_row(0.01 * i, 2, acc=(7.0, 8.0, 9.0), gyro=(1.0, 1.0, 1.0), base=HAND_BASE)
            # plant different chest values so a mixup is visible
            row[CHEST_BASE + 1 : CHEST_BASE + 4] = [0.5, 0.5, 0.5]
            rows.append(row)
        write_dat(path, rows)
        stream, _ = ingest_pamap2([path], [101], "hand")
        assert stream.acc[0].tolist() == [7.0, 8.0, 9.0]

    def test_drop_accounting(self, tmp_path):
        nan = float("nan")
        rows = [
            raw_row(0.00, nan),             # unlabeled
            raw_row(0.01, 4, gyro=(1.0, 2.0, 3.0)),
            raw_row(0.02, 4, gyro=(nan, nan, nan)),  # filled from the row above
            raw_row(0.03, 0),               # transient marker
            raw_row(0.04, 5, gyro=(nan, nan, nan)),  # run starts NaN: no donor
            raw_row(0.05, 5, gyro=(7.0, 8.0, 9.0)),
        ]
        path = tmp_path / "subject101.dat"
        write_dat(path, rows)
        stream, summary = ingest_pamap2([path], [101], "chest")
        assert summary.rows_read == 6
        assert summary.dropped == {
            "missing-label": 1,
            "transient-activity": 1,
            "NaN-after-impute": 1,
        }
        assert summary.rows_kept == 3
        assert list(stream.labels) == [4, 4, 5]
        assert stream.gyro[1].tolist() == [1.0, 2.0, 3.0]  # imputed copy
        assert stream.gyro[2].tolist() == [7.0, 8.0, 9.0]

    def test_fill_does_not_cross_label_changes(self, tmp_path):
        nan = float("nan")
        rows = [
            raw_row(0.00, 4, gyro=(1.0, 1.0, 1.0)),
            raw_row(0.01, 7, gyro=(nan, nan, nan)),  # new label, no fill from label 4
            raw_row(0.02, 7, gyro=(2.0, 2.0, 2.0)),
        ]
        path = tmp_path / "subject101.dat"
        write_dat(path, rows)
        stream, summary = ingest_pamap2([path], [101], "chest")
        assert summary.dropped == {"NaN-after-impute": 1}
        assert list(stream.labels) == [4, 7]

    def test_transient_gap_blocks_fill(self, tmp_path):
        nan = float("nan")
        rows = [
            raw_row(0.00, 4, gyro=(1.0, 1.0, 1.0)),
            raw_row(0.01, 0),
            raw_row(0.02, 4, gyro=(nan, nan, nan)),  # separate run after the break
        ]
        path = tmp_path / "subject101.dat"
        write_dat(path, rows)
        stream, summary = ingest_pamap2([path], [101], "chest")
        assert len(stream) == 1
        assert summary.dropped == {"transient-activity": 1, "NaN-after-impute": 1}

    def test_fractional_ids_truncate_before_the_run_and_transient_tests(self, tmp_path):
        nan = float("nan")
        rows = [
            raw_row(0.00, 4.2, gyro=(1.0, 2.0, 3.0)),
            raw_row(0.01, 4.7, gyro=(nan, nan, nan)),  # id 4 as above: same run, filled
            raw_row(0.02, 0.5),                        # id 0: transient
        ]
        path = tmp_path / "subject101.dat"
        write_dat(path, rows)
        stream, summary = ingest_pamap2([path], [101], "chest")
        assert stream.labels.tolist() == [4, 4]
        assert stream.gyro[1].tolist() == [1.0, 2.0, 3.0]
        assert summary.dropped == {"transient-activity": 1}

    def test_nan_acc_also_filled(self, tmp_path):
        nan = float("nan")
        rows = [
            raw_row(0.00, 4, acc=(1.0, 2.0, 3.0)),
            raw_row(0.01, 4, acc=(nan, 5.0, nan)),
        ]
        path = tmp_path / "subject101.dat"
        write_dat(path, rows)
        stream, _ = ingest_pamap2([path], [101], "chest")
        assert stream.acc[1].tolist() == [1.0, 5.0, 3.0]  # per-column fill

    def test_subject_order_controls_concatenation(self, tmp_path):
        p1 = tmp_path / "subject101.dat"
        p2 = tmp_path / "subject105.dat"
        write_dat(p1, [raw_row(0.0, 1)])
        write_dat(p2, [raw_row(0.0, 2)])
        stream, summary = ingest_pamap2([p1, p2], [105, 101], "chest")
        assert list(stream.labels) == [2, 1]
        assert summary.sources == (str(p2), str(p1))

    def test_unknown_subject_rejected(self, tmp_path):
        path = tmp_path / "subject101.dat"
        write_dat(path, [raw_row(0.0, 1)])
        with pytest.raises(InputError, match="unknown subject"):
            ingest_pamap2([path], [109], "chest")

    def test_a_path_without_digits_matches_no_subject(self, tmp_path):
        path = tmp_path / "recording.dat"
        write_dat(path, [raw_row(0.0, 1)])
        with pytest.raises(InputError, match=r"^unknown subject id\(s\) \[101\]: no matching file"):
            ingest_pamap2([path], [101], "chest")

    def test_conflicting_files_for_one_subject_rejected(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        p1 = tmp_path / "a" / "subject101.dat"
        p2 = tmp_path / "b" / "subject101.dat"
        write_dat(p1, [raw_row(0.0, 1)])
        write_dat(p2, [raw_row(0.0, 1)])
        with pytest.raises(InputError, match="two files"):
            ingest_pamap2([p1, p2], [101], "chest")

    def test_bad_placement_rejected(self, tmp_path):
        path = tmp_path / "subject101.dat"
        write_dat(path, [raw_row(0.0, 1)])
        with pytest.raises(InputError, match="placement"):
            ingest_pamap2([path], [101], "wrist")

    # numpy decompresses a .gz recording itself; the scan that names the bad
    # line must read the same text
    def test_short_row_reported_with_file_and_line(self, tmp_path):
        good = " ".join(["0"] * 54)
        for name in RAW_NAMES:
            path = tmp_path / name
            write_raw_text(path, f"{good}\n{good}\n0 1 2\n")
            with raises_at(path, "line 3: expected 54 columns, found 3$"):
                ingest_pamap2([path], [101], "chest")

    def test_non_numeric_token_reported_with_file_and_line(self, tmp_path):
        row = ["0"] * 54
        row[5] = "abc"
        good = " ".join(["0"] * 54)
        for name in RAW_NAMES:
            path = tmp_path / name
            write_raw_text(path, f"{good}\n{' '.join(row)}\n")
            with raises_at(path, "line 2: non-numeric value 'abc'$"):
                ingest_pamap2([path], [101], "chest")

    def test_uniformly_wrong_width_reported(self, tmp_path):
        path = tmp_path / "subject101.dat"
        write_dat(path, [[0.0] * 53, [0.0] * 53])
        with raises_at(path, "line 1: expected 54 columns, found 53$"):
            ingest_pamap2([path], [101], "chest")
        # the parser skips blank lines; the message names the first data line
        path.write_text("\n" + path.read_text())
        with raises_at(path, "line 2: expected 54 columns, found 53$"):
            ingest_pamap2([path], [101], "chest")

    def test_undecodable_recording_is_read_once(self, tmp_path, monkeypatch):
        path = tmp_path / "subject101.dat"
        path.write_bytes(" ".join(["0"] * 54).encode() + b"\n\xff\n")
        scans = []
        monkeypatch.setattr(blindspot.ingest, "_scan_raw_file", scans.append)
        with raises_at(path, "'utf-8' codec can't decode byte 0xff"):
            ingest_pamap2([path], [101], "chest")
        assert scans == []

    def test_comment_lines_skipped_when_naming_the_bad_line(self, tmp_path):
        path = tmp_path / "subject101.dat"
        good = " ".join(["0"] * 54)
        path.write_text(f"# chest IMU only\n{good}  # a trailing comment\n0 1 2\n")
        with raises_at(path, "line 3: expected 54 columns, found 3$"):
            ingest_pamap2([path], [101], "chest")
        # the parser accepts the same comments once the short row is gone
        path.write_text(f"# chest IMU only\n{good}  # a trailing comment\n")
        stream, _ = ingest_pamap2([path], [101], "chest")
        assert len(stream) == 0  # activity 0 is a transient

    def test_empty_recording_gives_empty_stream(self, tmp_path):
        path = tmp_path / "subject101.dat"
        path.write_text("")
        stream, summary = ingest_pamap2([path], [101], "chest")
        assert len(stream) == 0
        assert summary.rows_read == 0 and summary.rows_kept == 0

    def test_summary_lines_mention_drops(self, tmp_path):
        path = tmp_path / "subject101.dat"
        write_dat(path, [raw_row(0.0, 0), raw_row(0.01, 3)])
        _, summary = ingest_pamap2([path], [101], "chest")
        text = "\n".join(summary.lines())
        assert "transient-activity" in text
        assert "rows read: 2" in text


def reference_ingest(paths, base):
    """The raw adapter the plain way: per recording, four arrays and a
    forward fill per label run and column; the arrays concatenated last."""
    parts, rows_read, dropped = [], 0, {}

    def drop(reason, mask):
        if mask.any():
            dropped[reason] = dropped.get(reason, 0) + int(mask.sum())

    for path in paths:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            data = np.loadtxt(path, ndmin=2)
        if data.size == 0:
            continue
        rows_read += len(data)
        labeled = ~np.isnan(data[:, 1])
        drop("missing-label", ~labeled)
        data = data[labeled]
        ts, labels = data[:, 0], data[:, 1].astype(np.int64)
        sensors = data[:, [*range(base + 1, base + 4), *range(base + 7, base + 10)]]
        bounds = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1), len(labels)]
        for lo, hi in zip(bounds, bounds[1:]):
            for col in range(6):
                last = math.nan  # a NaN that leads its run stays NaN
                for i in range(lo, hi):
                    if math.isnan(sensors[i, col]):
                        sensors[i, col] = last
                    else:
                        last = sensors[i, col]
        active = labels != 0
        drop("transient-activity", ~active)
        ts, labels, sensors = ts[active], labels[active], sensors[active]
        clean = ~np.isnan(sensors).any(axis=1)
        drop("NaN-after-impute", ~clean)
        if clean.any():
            parts.append((ts[clean], labels[clean], sensors[clean]))
    starts = list(accumulate(len(p[1]) for p in parts))[:-1]
    if not parts:
        parts = [(np.empty(0), np.empty(0, dtype=np.int64), np.empty((0, 6)))]
    ts, labels, sensors = (np.concatenate(cols) for cols in zip(*parts))
    return ts, labels, sensors[:, :3], sensors[:, 3:], starts, rows_read, dropped


# fractional ids truncate toward zero; -0.5 and 0.5 are transient
RAW_LABELS = (math.nan, 0.0, 0.5, -0.5, 3.0, 4.2, 4.7, 5.0, 24.0)


@st.composite
def raw_recordings(draw):
    """One to three recordings of random label runs; each timestamp and
    sensor cell is NaN with probability 1/4, and a recording may be empty."""
    recordings = []
    for _ in range(draw(st.integers(1, 3))):
        rows = []
        for label, length in draw(st.lists(st.tuples(st.sampled_from(RAW_LABELS), st.integers(1, 5)),
                                           max_size=6)):
            for _ in range(length):
                nan = draw(st.lists(st.integers(0, 3).map(lambda k: k == 0), min_size=7, max_size=7))
                v = [math.nan if nan[c] else float(10 * len(rows) + c) for c in range(7)]
                rows.append((math.nan if nan[6] else 0.01 * len(rows), label, v[:3], v[3:6]))
        recordings.append(rows)
    return recordings


class TestRawAdapterProperty:
    @settings(max_examples=150, deadline=None)
    @given(raw_recordings(), st.sampled_from(sorted(blindspot.ingest._IMU_BASE)))
    def test_matches_the_per_run_reference(self, tmp_path_factory, recordings, placement):
        folder = tmp_path_factory.mktemp("raw")
        base = blindspot.ingest._IMU_BASE[placement]
        paths = [folder / f"subject{101 + i}.dat" for i in range(len(recordings))]
        for path, rows in zip(paths, recordings):
            write_dat(path, [raw_row(ts, act, acc, gyro, base) for ts, act, acc, gyro in rows])
        stream, summary = ingest_pamap2(paths, [101 + i for i in range(len(paths))], placement)
        ts, labels, acc, gyro, starts, rows_read, dropped = reference_ingest(paths, base)
        assert np.array_equal(stream.acc, acc)
        assert np.array_equal(stream.gyro, gyro)
        assert stream.labels.dtype == np.int64 and np.array_equal(stream.labels, labels)
        assert np.array_equal(stream.timestamps, ts, equal_nan=True)
        assert stream.segment_starts == tuple(starts)
        assert summary.rows_read == rows_read
        assert summary.rows_kept == len(labels)
        assert summary.dropped == dropped


def run_rows(act, count, t0, **kw):
    return [raw_row(round(t0 + 0.01 * i, 2), act, **kw) for i in range(count)]


class TestContiguousWindows:
    """Windows built from ingested recordings never span rows that were not
    recorded one after another."""

    def test_same_label_gap_is_not_spliced(self, tmp_path):
        # the activity-0 rows are dropped; at 5 s / 2.5 s the start-750 window
        # of the remaining 2000 rows would join the two activity-3 runs
        path = tmp_path / "subject101.dat"
        write_dat(path, run_rows(3, 1000, 0.0) + run_rows(0, 500, 10.0) + run_rows(3, 1000, 15.0))
        stream, _ = ingest_pamap2([path], [101], "chest")
        assert len(stream) == 2000
        assert len(make_windows(stream, 5.0, 2.5)) == 6
        _, states = abstract_stream(stream, preset("activity"), 5.0, 2.5)
        assert len(states) == 6

    def test_windows_do_not_cross_recordings(self, tmp_path):
        # the second recording's clock carries on from the first, so only the
        # file boundary tells the two apart
        p1 = tmp_path / "subject101.dat"
        p2 = tmp_path / "subject105.dat"
        write_dat(p1, run_rows(3, 1000, 0.0))
        write_dat(p2, run_rows(3, 600, 10.0))
        stream, _ = ingest_pamap2([p1, p2], [101, 105], "chest")
        assert stream.segment_starts == (1000,)
        windows = make_windows(stream, 5.0, 2.5)
        # starts 0, 250, 500 in the first file and 1000 in the second; 750 crosses
        assert len(windows) == 4
        _, states = abstract_stream(stream, preset("activity"), 5.0, 2.5)
        assert len(states) == 4

    def test_empty_recording_marks_no_segment(self, tmp_path):
        p1 = tmp_path / "subject101.dat"
        p2 = tmp_path / "subject102.dat"
        p3 = tmp_path / "subject105.dat"
        write_dat(p1, run_rows(3, 10, 0.0))
        p2.write_text("")
        write_dat(p3, run_rows(4, 5, 0.0))
        stream, _ = ingest_pamap2([p1, p2, p3], [101, 102, 105], "chest")
        assert stream.segment_starts == (10,)
