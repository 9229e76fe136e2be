"""Report assembly and deterministic JSON rendering."""

import csv
import io
import json
import math
import tracemalloc
from json.encoder import encode_basestring
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindspot import (
    MODE_GENERALIZED_GT,
    MODE_PLUGIN,
    MODE_PLUGIN_UNSEEN,
    InputError,
    InvariantViolation,
    build_report,
    bundle_to_json,
    format_float,
    mass_estimate,
    render_json,
    support_histogram,
)
import blindspot.report
from blindspot.counts import KeyIndex, StateKey, freq_of_freqs
from blindspot.report import Table, histogram_table, write_csv
from conftest import key, random_single_table, table_of, tied_tables

import random


class TestRenderJson:
    @pytest.mark.parametrize("x", [1.0 / 3.0, 0.1, 2.0 ** -52, 1.7e308, -4.625e-4, 0.0])
    def test_floats_round_trip_exactly(self, x):
        assert float(json.loads(render_json(x))) == x

    def test_negative_zero_normalized(self):
        assert render_json(-0.0) == "0"

    def test_bools_before_ints(self):
        assert render_json(True) == "true"
        assert render_json(False) == "false"
        assert render_json(None) == "null"
        assert render_json(7) == "7"

    def test_string_escaping(self):
        s = 'a"b\\c\nd\te\x01f\x08g\x0ch'
        assert json.loads(render_json(s)) == s
        assert "\\u0001" in render_json(s)
        assert json.loads(render_json({s: s})) == {s: s}

    def test_mapping_preserves_insertion_order(self):
        doc = {"z": 1, "a": [2, 3], "m": {"k": None}}
        rendered = render_json(doc)
        assert rendered == '{"z":1,"a":[2,3],"m":{"k":null}}'

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvariantViolation):
            render_json(bad)

    def test_unsupported_type_rejected(self):
        with pytest.raises(InvariantViolation):
            render_json({1, 2})


# key names and values, with the characters CSV and JSON escape: ",", '"',
# "\\" and non-ASCII text
TOKENS = st.one_of(
    st.sampled_from([",", '"', "\\", 'a,"b"\\c', "é", "名"]),
    st.text(min_size=1).filter(lambda t: t == t.strip() and not any(c in t for c in "=|\t\n\r")),
)
STATE_KEYS = st.lists(st.tuples(TOKENS, TOKENS), min_size=1, max_size=3, unique_by=lambda nv: nv[0]).map(
    lambda pairs: StateKey(*zip(*pairs))
)
SCALARS = st.one_of(
    st.text(), st.integers(), st.floats(allow_nan=False, allow_infinity=False), STATE_KEYS
)


def as_text(cell):
    """A ``StateKey`` cell as the text both writers give it; any other as is."""
    return cell.serialize() if isinstance(cell, StateKey) else cell


TABLES = st.lists(st.text(), unique=True, max_size=6).flatmap(
    lambda fields: st.builds(
        Table,
        st.just(tuple(fields)),
        st.lists(st.lists(SCALARS, min_size=len(fields), max_size=len(fields)), max_size=5),
    )
)


BLOCK = blindspot.report._BLOCK_ROWS
# a cell of each kind, a column of mixed kinds, and a StateKey column
BLOCK_FIELDS = ("state", "count", "share", "note", "mixed")
BLOCK_CELLS = [
    (key(a="x", b="y"), 3, 0.25, "é", None),
    (key(a="x", b="z"), 1, -0.0, '"', 2.5),
    (key(a="%s", b="y"), 10**20, 1e300, "", "text"),
]


class TestTable:
    @settings(max_examples=200, deadline=None)
    @given(TABLES, st.integers(1, 3))
    def test_json_equals_one_object_per_row(self, table, block):
        records = [dict(zip(table.fields, map(as_text, row))) for row in table.rows]
        assert render_json(table) == render_json(records)
        with mock.patch.object(blindspot.report, "_BLOCK_ROWS", block):  # a table of many blocks
            assert render_json(table) == render_json(records)

    @pytest.mark.parametrize("rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    @pytest.mark.parametrize("fields", [BLOCK_FIELDS, ()])
    def test_json_equals_one_object_per_row_at_block_edges(self, rows, fields):
        table = Table(fields, [BLOCK_CELLS[i % 3][: len(fields)] for i in range(rows)])
        records = [dict(zip(table.fields, map(as_text, row))) for row in table.rows]
        assert render_json(table) == render_json(records)

    def test_rendering_peaks_near_the_text_it_returns(self):
        keys = KeyIndex(("site", "device", "regime"))
        histogram = [(keys[(f"s{i % 40}", f"d{i // 40 % 25}", f"r{i // 1000}")], 20000 - i) for i in range(20000)]
        table = histogram_table(histogram)
        tracemalloc.start()
        try:
            text = render_json(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text)

    @settings(max_examples=200, deadline=None)
    @given(TABLES)
    def test_csv_formats_each_float_cell(self, table):
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(list(table.fields))
        for row in table.rows:
            writer.writerow([format_float(v) if isinstance(v, float) else as_text(v) for v in row])
        got = io.StringIO()
        write_csv(got, table)
        assert got.getvalue() == expected.getvalue()

    @pytest.mark.parametrize("row", [(1,), (1, 2, 3)])
    def test_row_length_must_match_fields(self, row):
        table = Table(("a", "b"), [(0, 0.5), row])
        with pytest.raises(ValueError):
            render_json(table)
        with pytest.raises(ValueError):
            write_csv(io.StringIO(), table)

    def test_nested_table_renders_in_place(self):
        inner = Table(("tau", "mass"), ((1, 0.5), (2, 0.25)))
        assert render_json(Table(("mode", "points"), [("plugin", inner)])) == (
            '[{"mode":"plugin","points":[{"tau":1,"mass":0.5},{"tau":2,"mass":0.25}]}]'
        )


def reference_json(value) -> str:
    """``render_json`` as it rendered a ``Table`` before rows went through
    one template: each cell rendered on its own and joined to its key."""
    if not isinstance(value, Table):
        return render_json(value)
    keys = [encode_basestring(k) + ":" for k in value.fields]
    objects = [
        "{" + ",".join([k + reference_json(v) for k, v in zip(keys, row, strict=True)]) + "}"
        for row in value.rows
    ]
    return "[" + ",".join(objects) + "]"


# field names with the template's own "%", quotes and non-ASCII text
FIELD_NAMES = st.one_of(st.text(), st.sampled_from(["%", "%s", "%%", "%(a)s", '"', "é", "名", "\\"]))
# a float repeats within a table, -0.0 among them; numpy floats and bools are
# not exactly float or int
CELLS = st.one_of(
    st.text(), st.integers(), st.none(), st.booleans(), STATE_KEYS,
    st.sampled_from([0.5, -0.0, 0.0, 0.1, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)


def tables_of(cells):
    return st.lists(FIELD_NAMES, unique=True, max_size=6).flatmap(
        lambda fields: st.builds(
            Table,
            st.just(tuple(fields)),
            st.lists(st.tuples(*[cells] * len(fields)), max_size=6),
        )
    )


NESTED_TABLES = tables_of(st.one_of(CELLS, tables_of(CELLS)))


class TestTableTemplate:
    @settings(max_examples=300, deadline=None)
    @given(NESTED_TABLES)
    def test_equals_the_per_cell_rendering(self, table):
        assert render_json(table) == reference_json(table)

    def test_percent_in_a_field_name_is_literal(self):
        table = Table(("%s", "100%"), [("x", 1), ("%d", 2.5)])
        assert render_json(table) == '[{"%s":"x","100%":1},{"%s":"%d","100%":2.5}]'


# factor names with the key template's own "%", values with the characters
# JSON escapes and non-ASCII text
PERCENT_SCHEMA = ("%", "%s", "%%")
ESCAPED_KEYS = [
    StateKey(PERCENT_SCHEMA, values)
    for values in (('"', "\\", "\x01"), ("名", "%d", "%%"), ("a", "b", "c"))
]


class TestColumnRendering:
    """Each column kind of the column-at-a-time renderer, checked against
    the per-cell rendering."""

    @pytest.mark.parametrize(
        "column",
        [
            ESCAPED_KEYS,  # one schema: through the schema's key template
            [key(a="1"), key(a="2", b="3"), key(b="4")],  # keys of two schemas
            [key(a="1"), "a=1", key(a="2")],  # keys mixed with strings
            [True, False, True],  # bool is not exactly int
            [Table(("t",), [(1,)]), Table((), [()]), Table(("t", "m"), [])],  # nested tables
        ],
    )
    def test_column_equals_the_per_cell_rendering(self, column):
        table = Table(("c", "n"), [(cell, i) for i, cell in enumerate(column)])
        assert render_json(table) == reference_json(table)

    def test_one_schema_key_text(self):
        table = Table(("state",), [(k,) for k in ESCAPED_KEYS[:2]])
        assert json.loads(render_json(table)) == [
            {"state": '%="|%s=\\|%%=\x01'},
            {"state": "%=名|%s=%d|%%=%%"},
        ]

    def test_zero_field_rows_render_as_empty_objects(self):
        table = Table((), [[], []])
        assert render_json(table) == "[{},{}]" == reference_json(table)
        assert render_json(Table((), [])) == "[]"


class TestFormatting:
    def test_fixed_six_decimals(self):
        assert format_float(0.0725) == "0.072500"
        assert format_float(1.0) == "1.000000"

    @given(tied_tables())
    def test_histogram_equals_the_one_key_sort(self, table):
        assert support_histogram(table) == sorted(
            table.counts.items(), key=lambda kv: (-kv[1], kv[0].values)
        )

    def test_histogram_sorted_by_count_then_state(self):
        table = table_of({"b": 3, "a": 3, "c": 7})
        hist = support_histogram(table)
        assert [(k.value_of("activity"), c) for k, c in hist] == [
            ("c", 7),
            ("a", 3),
            ("b", 3),
        ]


class TestBuildReport:
    def make(self, **kw):
        table = table_of({"a": 1, "b": 1, "c": 3})
        defaults = dict(tau_max=4, modes=(MODE_PLUGIN,))
        defaults.update(kw)
        return table, build_report(table, **defaults)

    def test_metadata_field_order(self):
        _, bundle = self.make(dataset_id="toy")
        assert list(bundle.metadata) == [
            "dataset_id",
            "tool_version",
            "n",
            "k_eff",
            "abstraction",
            "modes",
            "assumed_blind_accuracy",
            "ceiling_source_mode",
        ]
        assert bundle.metadata["n"] == 5
        assert bundle.metadata["k_eff"] == 3
        assert bundle.metadata["abstraction"] is None

    def test_extension_mode_adds_notes(self):
        _, bundle = self.make(modes=(MODE_PLUGIN, MODE_GENERALIZED_GT))
        keys = list(bundle.metadata)
        assert "estimator_notes" in keys
        assert keys.index("estimator_notes") == keys.index("modes") + 1
        assert MODE_GENERALIZED_GT in bundle.metadata["estimator_notes"]

    def test_curves_match_direct_estimates(self):
        table, bundle = self.make(modes=(MODE_PLUGIN, MODE_PLUGIN_UNSEEN), tau_max=3)
        fof = freq_of_freqs(table)
        by_mode = {c.estimator_mode: c for c in bundle.curves}
        assert set(by_mode) == {MODE_PLUGIN, MODE_PLUGIN_UNSEEN}
        for mode, curve in by_mode.items():
            assert curve.taus == (1, 2, 3)
            for tau, mass in zip(curve.taus, curve.masses):
                assert mass == mass_estimate(fof, tau, mode)

    def test_decompositions_agree_with_curve(self):
        _, bundle = self.make(decomposition_taus=(1, 2), tau_max=4)
        curve = bundle.curves[0]
        for d in bundle.decompositions:
            assert math.isclose(d.total, curve.mass_at(d.tau), abs_tol=1e-12)

    def test_ceiling_uses_first_mode(self):
        _, bundle = self.make(modes=(MODE_PLUGIN_UNSEEN, MODE_PLUGIN), blind_accuracy=0.25)
        assert bundle.metadata["ceiling_source_mode"] == MODE_PLUGIN_UNSEEN
        assert bundle.ceiling.assumed_blind_accuracy == 0.25
        b = bundle.curves[0].mass_at(2)
        by_tau = {tau: (mass, ceil) for tau, mass, ceil in bundle.ceiling.points}
        assert by_tau[2] == (b, (1.0 - b) + b * 0.25)

    def test_empty_modes_rejected(self):
        with pytest.raises(InputError):
            self.make(modes=())


class TestBundleJson:
    def test_document_shape_and_key_order(self):
        table = table_of({"a": 1, "b": 1, "c": 3})
        bundle = build_report(
            table,
            tau_max=3,
            modes=(MODE_PLUGIN,),
            decomposition_taus=(2,),
            dataset_id="toy",
        )
        text = bundle_to_json(bundle)
        doc = json.loads(text, object_pairs_hook=lambda p: p)

        def keys(pairs):
            return [k for k, _ in pairs]

        assert keys(doc) == ["metadata", "curves", "decompositions", "ceiling", "histogram"]
        top = dict((k, v) for k, v in doc)
        curve = dict(top["curves"][0])
        assert keys(top["curves"][0]) == ["mode", "n", "k_eff", "points"]
        assert keys(curve["points"][0]) == ["tau", "mass"]
        decomp = dict(top["decompositions"][0])
        assert keys(top["decompositions"][0]) == ["tau", "total", "entries"]
        assert keys(decomp["entries"][0]) == ["state", "count", "prob", "weight", "contribution"]
        assert keys(top["ceiling"]) == ["assumed_blind_accuracy", "points"]
        assert keys(dict(top["ceiling"])["points"][0]) == ["tau", "blind_mass", "ceiling"]
        assert keys(top["histogram"][0]) == ["state", "count"]

    def test_states_serialized_canonically(self):
        table = table_of({"walk": 2})
        bundle = build_report(table, tau_max=1, decomposition_taus=(1,))
        doc = json.loads(bundle_to_json(bundle))
        assert doc["histogram"][0]["state"] == "activity=walk"

    def test_byte_determinism(self):
        rng = random.Random(88)
        table = random_single_table(rng)
        bundle_a = build_report(table, tau_max=5, modes=(MODE_PLUGIN, MODE_GENERALIZED_GT), decomposition_taus=(1, 3))
        bundle_b = build_report(table, tau_max=5, modes=(MODE_PLUGIN, MODE_GENERALIZED_GT), decomposition_taus=(1, 3))
        assert bundle_to_json(bundle_a) == bundle_to_json(bundle_b)

    def test_json_parses_and_floats_survive(self):
        rng = random.Random(13)
        for _ in range(20):
            table = random_single_table(rng)
            bundle = build_report(table, tau_max=4, decomposition_taus=(2,))
            doc = json.loads(bundle_to_json(bundle))
            fof = freq_of_freqs(table)
            for point in doc["curves"][0]["points"]:
                assert point["mass"] == mass_estimate(fof, point["tau"], MODE_PLUGIN)
