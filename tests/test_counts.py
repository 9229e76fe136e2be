"""State keys, count tables, and their exact-arithmetic invariants."""

import random
from collections import Counter
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import blindspot.counts
from blindspot import (
    CountTable,
    FreqOfFreqs,
    InputError,
    StateKey,
    blindness_decomposition,
    build_count_table,
    coarsen,
    freq_of_freqs,
)
from blindspot.counts import KeyIndex
from blindspot.ingest import count_samples_file, read_counts_file
from blindspot.report import support_histogram
from conftest import ACTIVITY_COUNTS, key, random_multi_table, table_of

# valid factor names and values: non-empty, unpadded, none of = | tab CR LF
TOKENS = st.text(st.characters(blacklist_characters="=|\t\n\r"), min_size=1).filter(
    lambda s: s == s.strip()
)


class TestStateKey:
    def test_integer_values_coerce_to_str(self):
        k = StateKey(("activity", "tilt"), ("walk", 3))
        assert k.values == ("walk", "3")
        assert k.value_of("tilt") == "3"
        assert k == StateKey(("activity", "tilt"), ("walk", "3"))

    def test_bool_value_rejected(self):
        with pytest.raises(InputError):
            StateKey(("flag",), (True,))

    def test_float_value_rejected(self):
        with pytest.raises(InputError):
            StateKey(("x",), (1.5,))

    @pytest.mark.parametrize("ch", ["=", "|", "\t", "\n", "\r"])
    def test_forbidden_characters_rejected(self, ch):
        with pytest.raises(InputError):
            StateKey(("a",), (f"x{ch}y",))
        with pytest.raises(InputError):
            StateKey((f"a{ch}b",), ("x",))

    def test_empty_or_padded_tokens_rejected(self):
        for bad in ["", " x", "x ", "  "]:
            with pytest.raises(InputError):
                StateKey(("a",), (bad,))
            with pytest.raises(InputError):
                StateKey((bad,), ("v",))

    def test_duplicate_factor_names_rejected(self):
        with pytest.raises(InputError):
            StateKey(("a", "a"), ("1", "2"))

    def test_at_least_one_factor_required(self):
        with pytest.raises(InputError):
            StateKey((), ())

    def test_serialize_parse_round_trip(self):
        k = key(activity="walk", tilt="3")
        assert k.serialize() == "activity=walk|tilt=3"
        assert str(k) == k.serialize()
        assert StateKey.parse(k.serialize()) == k

    @given(
        st.lists(TOKENS, min_size=1, max_size=4, unique=True).flatmap(
            lambda names: st.tuples(
                st.just(tuple(names)),
                st.lists(TOKENS | st.integers(), min_size=len(names), max_size=len(names)),
            )
        )
    )
    def test_parse_inverts_serialize(self, names_values):
        names, values = names_values
        k = StateKey(names, values)
        assert k.names is names
        back = StateKey.parse(k.serialize())
        assert back == k and hash(back) == hash(k)

    def test_percent_in_names_round_trips(self):
        k = StateKey(("%", "%s", "%%", "a%(x)s"), ("%", "%d", "%%s", "v"))
        assert k.serialize() == "%=%|%s=%d|%%=%%s|a%(x)s=v"
        assert StateKey.parse(k.serialize()) == k

    def test_keys_have_slots_only(self):
        k = key(a="1")
        assert not hasattr(k, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(k, "extra", 1)

    def test_parse_rejects_field_without_equals(self):
        with pytest.raises(InputError):
            StateKey.parse("activity=walk|tilt")

    def test_value_count_must_match_names(self):
        with pytest.raises(InputError, match="expected 2 factor values"):
            StateKey(("a", "b"), ("1",))
        with pytest.raises(InputError, match="single string"):
            StateKey(("a", "b"), "12")

    def test_values_order_keys(self):
        ks = [key(s="b"), key(s="a"), key(s="c")]
        assert sorted(ks, key=lambda x: x.values) == [key(s="a"), key(s="b"), key(s="c")]

    def test_project_preserves_requested_order(self):
        k = key(a="1", b="2", c="3")
        projected = k.project(("c", "a"))
        assert (projected.names, projected.values) == (("c", "a"), ("3", "1"))
        with pytest.raises(InputError):
            k.project(("missing",))


class TestKeyIndex:
    @given(
        st.lists(TOKENS, min_size=1, max_size=3, unique=True).flatmap(
            lambda names: st.tuples(
                st.just(tuple(names)),
                st.lists(
                    st.tuples(*[st.sampled_from(["x", "y", 1, 2])] * len(names)),
                    min_size=1,
                    max_size=20,
                ),
            )
        )
    )
    def test_interned_keys_equal_the_public_constructor(self, names_rows):
        names, rows = names_rows
        index = KeyIndex(names)
        keys = [index[values] for values in rows]
        for values, k in zip(rows, keys):
            public = StateKey(names, values)
            assert k == public and hash(k) == hash(public)
            assert k.names is names and index.schema is names
            assert index[values] is k
        assert len({id(k) for k in keys}) == len(set(rows)) == len(index)

    def test_schema_errors_wait_for_the_first_key(self):
        index = KeyIndex(("a", "a"))
        with pytest.raises(InputError, match=r"duplicate factor names: \['a', 'a'\]"):
            index[("x", "y")]

    @pytest.mark.parametrize(
        "values,pattern",
        [(("x", ""), "non-empty"), (("x",), "expected 2 factor values"), (("x", 1.5), "string or integer")],
    )
    def test_later_keys_keep_the_value_checks(self, values, pattern):
        index = KeyIndex(("a", "b"))
        index[("x", "y")]
        with pytest.raises(InputError, match=pattern):
            index[values]
        assert len(index) == 1

    @pytest.mark.parametrize("bad", ["", " x", "x|y", "a=b", "x\ty"])
    def test_a_rejected_token_is_rejected_again_with_the_same_message(self, bad):
        index = KeyIndex(("a", "b"))
        index[("x", "y")]
        messages = []
        for values in ((bad, "y"), ("y", bad), (bad, "y")):
            with pytest.raises(InputError) as info:
                index[values]
            messages.append(str(info.value))
        with pytest.raises(InputError) as info:
            StateKey(("a", "b"), (bad, "y"))
        assert messages == [str(info.value)] * 3
        assert len(index) == 1

    @pytest.mark.parametrize("values", [("x",), ("x", "y", "x"), "xy", "yx"])
    def test_known_tokens_in_the_wrong_shape_keep_the_shape_error(self, values):
        index = KeyIndex(("a", "b"))
        index[("x", "y")]
        index[("y", "x")]
        with pytest.raises(InputError) as info:
            index[values]
        with pytest.raises(InputError) as public:
            StateKey(("a", "b"), values)
        assert str(info.value) == str(public.value)

    def test_integer_values_are_coerced_as_the_constructor_does(self):
        index = KeyIndex(("a", "b"))
        index[("1", "2")]  # the tokens are known before the integers arrive
        for values in ((1, 2), (1, "2"), (-3, 0), (10**30, "1")):
            k = index[values]
            public = StateKey(("a", "b"), values)
            assert k == public and k.values == public.values
            assert all(type(v) is str for v in k.values)
        with pytest.raises(InputError, match="may not be a bool"):
            index[(True, "9")]

    @pytest.mark.parametrize("number,flag", [(1, True), (0, False)])
    def test_a_bool_is_refused_after_the_integer_it_equals(self, number, flag):
        index = KeyIndex(("a", "b"))
        k = index[(number, "2")]
        with pytest.raises(InputError, match="^factor value may not be a bool$"):
            index[(flag, "2")]
        assert index[(str(number), "2")] is k and index[(number, "2")] is k
        assert list(index) == [(str(number), "2")]

    def test_the_first_bad_line_is_reported_after_many_good_rows(self, tmp_path):
        good = "".join(f"v{i % 50},w{i % 7},1\n" for i in range(2000))
        for bad, message in (("v1|x,w1,1", "factor value may not contain '|': 'v1|x'"),
                             ("v1,,1", "factor value must be non-empty without leading/trailing "
                                       "whitespace: ''"),
                             ("v1,w1,x", "count 'x' is not an integer")):
            path = tmp_path / "c.csv"
            path.write_text("a,b,count\n" + good + bad + "\nv2,w2,1\n" + bad + "\n")
            with pytest.raises(InputError) as info:
                read_counts_file(path)
            assert str(info.value) == f"{path}: line 2002: {message}"

    def test_schema_is_checked_once_per_read(self, monkeypatch, tmp_path):
        calls = []
        check = blindspot.counts._check_schema

        def counting(schema):
            calls.append(schema)
            return check(schema)

        monkeypatch.setattr(blindspot.counts, "_check_schema", counting)
        per_read = []
        for rows in (50, 400):
            path = tmp_path / f"c{rows}.csv"
            path.write_text("a,b,count\n" + "".join(f"{i},{i % 7},1\n" for i in range(rows)))
            calls.clear()
            assert read_counts_file(path).k_observed == rows
            per_read.append(len(calls))
        assert per_read[0] == per_read[1] <= 2

    def test_equal_values_share_one_string(self):
        index = KeyIndex(("a", "b"))
        v1, v2, v3 = ("".join(["v", "12345"]) for _ in range(3))
        assert v1 == v2 == v3 and v1 is not v2 and v2 is not v3
        k1 = index[(v1, "p")]
        k2 = index[(v2, "q")]  # checked beside a new value
        k3 = index[("q", v3)]  # made only of values checked before
        assert k1.values[0] is k2.values[0] is k3.values[1] is v1
        k4, k5 = index[(12345, "p")], index[("q", 12345)]
        assert k4.values[0] == "12345" and k4.values[0] is k5.values[1]

    def test_keys_built_together_are_the_keys_of_their_rows(self):
        rows = [("x", "y"), ("y", "x"), ("10", "x")]
        index = KeyIndex(("a", "b"))
        keys = index._new_keys(rows)
        assert keys == [StateKey(("a", "b"), values) for values in rows]
        assert all(index[values] is key for values, key in zip(rows, keys))
        assert keys[0].values[1] is keys[1].values[0] and keys[1].values[1] is keys[2].values[1]
        for bad, pattern in (([("x", "y"), ("x",)], "expected 2 factor values"),
                             ([("x", "y|z")], "may not contain '\\|'"),
                             ([("x", "")], "non-empty")):
            with pytest.raises(InputError, match=pattern):
                KeyIndex(("a", "b"))._new_keys(bad)
        with pytest.raises(InputError, match="duplicate factor names"):
            KeyIndex(("a", "a"))._new_keys(rows)

    def test_keys_read_from_files_share_one_string_per_value(self, tmp_path):
        counts = tmp_path / "c.csv"
        counts.write_text("a,b,count\nv12345,p,1\nv12345,q,2\nq,v12345,1\n")
        samples = tmp_path / "s.csv"
        samples.write_text("factor:a,factor:b\nv12345,p\nv12345,q\nq,v12345\nv12345,q\n")
        for table in (read_counts_file(counts), count_samples_file(samples)):
            k1, k2, k3 = table.counts
            assert k1.values[0] is k2.values[0] is k3.values[1]

    def test_coarsened_keys_share_one_string_per_value(self):
        v1, v2, v3 = ("".join(["v", "12345"]) for _ in range(3))
        schema = ("a", "b", "c")
        table = CountTable(
            {StateKey(schema, (v1, "p", "x")): 1, StateKey(schema, (v2, "q", "x")): 2,
             StateKey(schema, ("q", v3, "x")): 3},
            schema,
        )
        k1, k2, k3 = coarsen(table, ("a", "b")).counts
        assert k1.values[0] is k2.values[0] is k3.values[1]


class TestCountTable:
    def test_build_matches_counter_oracle(self):
        rng = random.Random(101)
        alphabet = [key(s=f"v{i}") for i in range(25)]
        samples = [rng.choice(alphabet) for _ in range(400)]
        table = build_count_table(samples, ("s",))
        oracle = Counter(samples)
        assert dict(table.counts) == dict(oracle)
        assert table.n == 400
        assert table.k_observed == len(oracle)

    def test_sample_order_is_irrelevant(self):
        rng = random.Random(102)
        samples = [key(s=f"v{rng.randrange(8)}") for _ in range(100)]
        shuffled = samples[:]
        rng.shuffle(shuffled)
        assert build_count_table(samples, ("s",)) == build_count_table(shuffled, ("s",))

    def test_replayed_activity_table(self):
        table = table_of(ACTIVITY_COUNTS)
        assert table.n == 1674
        assert table.k_observed == 12
        assert table.count(key(activity="Walking")) == 307
        prob = {e.state: e.prob for e in blindness_decomposition(table, table.n + 1).entries}
        assert round(prob[key(activity="Walking")], 3) == 0.183
        assert round(prob[key(activity="Stairs up")], 3) == 0.080

    def test_schema_mismatch_names_sample_and_factor(self):
        samples = [key(s="a"), key(t="b")]
        with pytest.raises(InputError, match=r"sample 1.*'t'"):
            build_count_table(samples, ("s",))

    def test_arity_mismatch_reported(self):
        samples = [key(s="a", t="b")]
        with pytest.raises(InputError, match="sample 0"):
            build_count_table(samples, ("s",))

    @given(
        st.lists(st.tuples(st.sampled_from("xyz"), st.integers(0, 3)), max_size=60),
        st.booleans(),
    )
    def test_build_matches_per_row_reference(self, rows, as_generator):
        # fresh key objects per row, so equal states arrive as distinct objects
        samples = [StateKey(("a", "b"), row) for row in rows]
        reference: dict[StateKey, int] = {}
        for k in samples:
            reference[k] = reference.get(k, 0) + 1
        source = (k for k in samples) if as_generator else samples
        if not samples:
            with pytest.raises(InputError, match="no samples"):
                build_count_table(source, ("a", "b"))
            return
        table = build_count_table(source, ("a", "b"))
        assert list(table.counts.items()) == list(reference.items())
        assert table.n == len(samples)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("s=c", "sample 3 is not a StateKey (got str)"),
            (["s", "c"], "sample 3 is not a StateKey (got list)"),
            (key(t="c"), "sample 3: factor 't' at position 0 does not match schema factor 's'"),
        ],
    )
    @pytest.mark.parametrize("as_generator", [False, True])
    def test_first_bad_sample_named_exactly(self, bad, message, as_generator):
        samples = [key(s="a"), key(s="b"), key(s="a"), bad, key(s="b")]
        source = iter(samples) if as_generator else samples
        with pytest.raises(InputError) as exc:
            build_count_table(source, ("s",))
        assert str(exc.value) == message

    def test_empty_samples_rejected(self):
        with pytest.raises(InputError):
            build_count_table([], ("s",))

    def test_schema_as_bare_string_rejected(self):
        with pytest.raises(InputError):
            build_count_table([key(s="a")], "s")

    def test_duplicate_schema_names_rejected(self):
        with pytest.raises(InputError):
            CountTable(counts={key(a="1", b="2"): 1}, schema=("a", "a"))

    def test_zero_count_rejected(self):
        with pytest.raises(InputError):
            CountTable(counts={key(s="a"): 0}, schema=("s",))

    def test_sum_mismatch_rejected(self):
        # n is the sum of the counts: no other value can be given
        with pytest.raises(TypeError):
            CountTable(counts={key(s="a"): 2}, n=3, schema=("s",))
        assert CountTable(counts={key(s="a"): 2, key(s="b"): 1}, schema=("s",)).n == 3

    def test_empty_rejected(self):
        with pytest.raises(InputError, match="needs at least one observation"):
            CountTable(counts={}, schema=("s",))

    def test_counts_are_read_only(self):
        table = table_of({"a": 1, "b": 2})
        with pytest.raises(TypeError):
            table.counts[key(activity="a")] = 5

    def test_unobserved_state_counts_zero(self):
        table = table_of({"a": 1})
        assert table.count(key(activity="zzz")) == 0

    def test_sorted_items_by_value(self):
        table = table_of({"b": 2, "a": 1, "c": 3})
        assert [k.value_of("activity") for k, _ in table.sorted_items()] == ["a", "b", "c"]

    @pytest.mark.parametrize("mapping", [dict, Counter, lambda d: MappingProxyType(dict(d))])
    @pytest.mark.parametrize(
        "items, message",
        [
            # a bad count before a bad key
            ([(key(s="a"), 1), (key(s="b"), "2"), ("s=c", 1)], "count for 's=b' must be an integer"),
            ([(key(s="a"), 1), (key(s="b"), 0), (key(t="c"), 1)], "stored counts must be >= 1, got 0 for 's=b'"),
            ([(key(s="b"), -1), (key(s="a"), 1.0)], "stored counts must be >= 1, got -1 for 's=b'"),
            # a bad key before a bad count
            ([(key(s="a"), 1), (key(t="c"), 1), (key(s="b"), 0)], "state 't=c' does not match schema ['s']"),
            ([(key(s="a", t="c"), 1), (key(s="b"), "2")], "state 's=a|t=c' does not match schema ['s']"),
            ([("s=c", 1), (key(s="b"), 0)], "count table keys must be StateKey, got str"),
            ([(key(s="a"), 2), (key(s="b"), 1.0), (key(s="c"), 0)], "count for 's=b' must be an integer"),
        ],
    )
    def test_first_bad_item_named_exactly(self, mapping, items, message):
        with pytest.raises(InputError) as exc:
            CountTable(counts=mapping(dict(items)), schema=("s",))
        assert str(exc.value) == message

    def test_state_key_subclass_accepted(self):
        class TaggedKey(StateKey):
            pass

        tagged = TaggedKey(("s",), ("a",))
        table = CountTable(counts={tagged: 2, key(s="b"): 1}, schema=("s",))
        assert table.n == 3 and table.count(tagged) == 2
        assert [k for k, _ in table.sorted_items()] == [tagged, key(s="b")]

    @pytest.mark.parametrize("mapping", [dict, Counter])
    def test_integer_like_counts_stored_as_int(self, mapping):
        counts = {key(s="a"): np.int64(3), key(s="b"): 2, key(s="c"): True, key(s="d"): np.uint8(1)}
        table = CountTable(counts=mapping(counts), schema=("s",))
        assert list(table.counts.items()) == [(key(s="a"), 3), (key(s="b"), 2), (key(s="c"), 1), (key(s="d"), 1)]
        assert all(type(c) is int for c in table.counts.values())
        assert type(table.n) is int and table.n == 7

    def test_sorted_items_is_a_new_list_per_call(self):
        table = table_of({"b": 2, "a": 1, "c": 3, "d": 1})
        before = table.sorted_items()
        histogram = support_histogram(table)
        decomposition = blindness_decomposition(table, 3)
        mutated = table.sorted_items()
        mutated.reverse()
        mutated.append((key(activity="z"), 9))
        assert table.sorted_items() == before
        assert support_histogram(table) == histogram
        assert blindness_decomposition(table, 3) == decomposition
        assert [e.state for e in decomposition.entries] == [key(activity="b"), key(activity="a"), key(activity="d")]


class TestFreqOfFreqs:
    def test_hand_case(self):
        table = table_of({"a": 1, "b": 1, "c": 3})
        fof = freq_of_freqs(table)
        assert dict(fof.f) == {1: 2, 3: 1}
        assert fof.singletons == 2
        assert fof.n == 5
        assert fof.k_observed == 3

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=40))
    def test_identities_hold(self, counts):
        table = table_of({f"v{i}": c for i, c in enumerate(counts)})
        fof = freq_of_freqs(table)
        assert sum(r * fr for r, fr in fof.f.items()) == table.n
        assert sum(fof.f.values()) == table.k_observed

    @given(st.dictionaries(st.integers(min_value=1, max_value=10**20), st.integers(min_value=1, max_value=50),
                           min_size=1, max_size=20),
           st.lists(st.integers(min_value=-2, max_value=10**20 + 2), max_size=10))
    def test_below_is_the_exact_prefix_numerator(self, f, ts):
        fof = FreqOfFreqs(f=f)
        for t in [*ts, *f, *(r + 1 for r in f)]:
            assert fof.below(t) == sum(r * fr for r, fr in f.items() if r < t)

    @given(st.dictionaries(st.integers(min_value=1, max_value=10**20),
                           st.integers(min_value=1, max_value=10**20), min_size=1, max_size=20))
    def test_totals_are_derived_from_f(self, f):
        fof = FreqOfFreqs(f)
        assert fof.n == sum(r * fr for r, fr in f.items())
        assert fof.k_observed == sum(f.values())

    @given(st.dictionaries(TOKENS, st.integers(min_value=1, max_value=10**20), min_size=1, max_size=30))
    def test_totals_are_the_tables(self, counts):
        table = table_of(counts)
        fof = freq_of_freqs(table)
        assert fof.n == table.n == sum(counts.values())
        assert fof.k_observed == table.k_observed == len(counts)

    def test_empty_rejected(self):
        with pytest.raises(InputError, match="at least one entry"):
            FreqOfFreqs({})

    def test_inconsistent_totals_rejected(self):
        with pytest.raises(InputError):
            FreqOfFreqs(f={0: 1})

    def test_mixed_key_types_name_the_entry_not_the_sort(self):
        with pytest.raises(InputError, match="^frequency-of-frequencies entry must be an integer, got str$"):
            FreqOfFreqs(f={2: 1, "1": 1, 3: 1})


class TestCoarsen:
    def test_matches_preimage_sum_oracle(self):
        rng = random.Random(202)
        for _ in range(30):
            table = random_multi_table(rng)
            projections = [("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("b", "c")]
            proj = projections[rng.randrange(len(projections))]
            merged = coarsen(table, proj)
            oracle: dict = {}
            for state, c in table.counts.items():
                coarse = state.project(proj)
                oracle[coarse] = oracle.get(coarse, 0) + c
            assert dict(merged.counts) == oracle
            assert merged.n == table.n
            assert merged.schema == proj

    def test_projection_order_normalized_to_schema_order(self):
        table = random_multi_table(random.Random(203))
        assert coarsen(table, ("c", "a")).schema == ("a", "c")
        assert coarsen(table, ("c", "a")) == coarsen(table, ("a", "c"))

    def test_full_projection_is_identity(self):
        table = random_multi_table(random.Random(204))
        again = coarsen(table, ("a", "b", "c"))
        assert dict(again.counts) == dict(table.counts)

    def test_bad_projections_rejected(self):
        table = random_multi_table(random.Random(205))
        with pytest.raises(InputError, match="^schema must name at least one factor$"):
            coarsen(table, ())
        with pytest.raises(InputError, match=r"^schema has duplicate factor names: \['a', 'a'\]$"):
            coarsen(table, ("a", "a"))
        with pytest.raises(InputError, match=r"^projection names factors absent from schema .*\['nope'\]$"):
            coarsen(table, ("nope",))
        with pytest.raises(InputError, match="^schema must be a sequence of factor names, not a single string$"):
            coarsen(table, "a")
