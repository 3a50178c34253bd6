"""Unit tests for the columnar layout's building blocks.

Mirrors the :mod:`tests.datalog.test_database` coverage one level down:
:class:`InternTable` round-trips and ordering stability,
:class:`ColumnarRelation` append/index/key semantics, packed-key helpers,
the :class:`ColumnarStore` lifecycle behind ``layout="columnar"`` (lazy
encoding, mutation maintenance, invalidation on retraction, copy/overlay
sharing), and the lazily decoded result databases the vector lane returns.
"""

import sys
import threading
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog.columnar import (
    KEY_BITS,
    ColumnarRelation,
    InternTable,
    arity_of_key,
    pack_codes,
    unpack_key,
)
from repro.datalog.columnar.decode import LazyDecodedDatabase
from repro.datalog.database import Database


class TestInternTable:
    def test_round_trips_mixed_value_kinds(self):
        table = InternTable()
        constants = ["a", 7, -3, 2.5, None, b"bytes", ("pair", 1), True]
        codes = [table.intern(value) for value in constants]
        assert codes == list(range(len(constants)))
        for value, code in zip(constants, codes):
            assert table.value(code) == value
            assert table.lookup(value) == code
            assert value in table

    def test_interning_is_idempotent(self):
        table = InternTable()
        assert table.intern("x") == table.intern("x") == 0
        assert len(table) == 1

    def test_equal_values_share_a_code_like_set_membership(self):
        # The tuple layout stores facts in sets where 1 == True == 1.0;
        # the table must key codes the same way or columnar membership
        # would be stricter than tuple membership.
        table = InternTable()
        assert table.intern(1) == table.intern(True) == table.intern(1.0)
        assert table.value(0) == 1  # first-seen representative wins

    def test_lookup_of_unseen_value_is_none(self):
        assert InternTable().lookup("missing") is None

    def test_intern_many_preserves_order(self):
        table = InternTable()
        assert table.intern_many(["b", "a", "b"]) == [0, 1, 0]
        assert table.values() == ["b", "a"]

    def test_codes_stay_stable_across_database_copy(self):
        database = Database({"e": [("a", "b"), ("b", "c")]}).with_layout("columnar")
        table = database.columnar_store().table
        database.columnar_parts("e")  # encode: assigns codes
        before = {value: table.lookup(value) for value in ("a", "b", "c")}
        clone = database.copy()
        clone.add_fact("e", ("c", "d"))
        clone.columnar_parts("e")
        # The clone shares the table; old codes never move, new values append.
        assert clone.columnar_store().table is table
        after = {value: table.lookup(value) for value in ("a", "b", "c")}
        assert after == before
        assert table.lookup("d") == len(before)


class TestPackedKeys:
    def test_pack_unpack_round_trip(self):
        for codes in [(), (0,), (5,), (1, 2), (7, 0, 9), (1, 2, 3, 4)]:
            key = pack_codes(codes)
            assert arity_of_key(key) == len(codes)
            assert unpack_key(key, len(codes)) == tuple(codes)

    def test_arity_seed_prevents_cross_arity_collisions(self):
        # Without the seed, (5,) and (0, 5) would pack identically.
        assert pack_codes((5,)) != pack_codes((0, 5))
        assert pack_codes(()) != pack_codes((0,))

    def test_keys_occupy_disjoint_32_bit_lanes(self):
        key = pack_codes((3, 4))
        assert key == (2 << (2 * KEY_BITS)) | (3 << KEY_BITS) | 4


def code_rows(part):
    return list(zip(*part.columns))


def codes_relation(arity, rows):
    """A relation adopting the columns of distinct code *rows* (the bulk path)."""
    return ColumnarRelation(
        arity, [array("q", column) for column in zip(*rows)] if arity else ()
    )


class TestColumnarRelation:
    def test_adopted_columns_build_keys_lazily(self):
        part = codes_relation(2, [(1, 2), (3, 4)])
        assert part._keys is None  # the bulk encoder never packs keys
        assert len(part) == 2
        assert (1, 2) in part and (3, 4) in part and (2, 1) not in part
        assert part.keys == {pack_codes((1, 2)), pack_codes((3, 4))}
        assert code_rows(part) == [(1, 2), (3, 4)]

    def test_index_built_lazily_and_maintained_on_append(self):
        part = codes_relation(2, [(1, 2), (1, 3)])
        index = part.index(0)
        assert index == {1: [0, 1]}
        part.extend_columns(([1, 5], [4, 6]))
        assert part.index(0) is index  # maintained in place, not rebuilt
        assert index == {1: [0, 1, 2], 5: [3]}
        assert part.index(1) == {2: [0], 3: [1], 4: [2], 6: [3]}

    def test_distinct_counts_track_mutation(self):
        part = codes_relation(2, [(1, 2), (1, 3), (4, 3)])
        assert part.distinct(0) == 2
        assert part.distinct(1) == 2
        part.extend_columns(([9], [9]))
        assert part.distinct(0) == 3

    def test_extend_columns_trusts_pre_deduped_input(self):
        part = ColumnarRelation(2)
        part.extend_columns(([1], [2]), [pack_codes((1, 2))])
        part.index(0)  # build, so the bulk append must maintain it
        keys = [pack_codes((3, 4)), pack_codes((5, 6))]
        part.extend_columns(([3, 5], [4, 6]), keys)
        assert len(part) == 3
        assert (3, 4) in part and (5, 6) in part
        assert part.index(0) == {1: [0], 3: [1], 5: [2]}

    def test_extend_columns_leaves_an_unbuilt_key_set_unbuilt(self):
        part = codes_relation(1, [(1,)])
        part.extend_columns(([2],), [pack_codes((2,))])
        assert part._keys is None
        assert (2,) in part and (1,) in part and (3,) not in part
        # Once built, the set is maintained, packing keys when none are given.
        part.extend_columns(([3],))
        assert part.keys == {pack_codes((code,)) for code in (1, 2, 3)}

    def test_zero_arity_relation_holds_at_most_the_empty_row(self):
        part = ColumnarRelation(0)
        assert len(part) == 0 and () not in part
        part.extend_columns((), [pack_codes(())])
        assert len(part) == 1 and () in part
        adopted = codes_relation(0, [()])
        assert len(adopted) == 1 and () in adopted


class TestColumnarStoreLifecycle:
    def test_layout_round_trip_and_validation(self):
        database = Database({"e": [(1, 2)]})
        assert database.layout == "tuple"
        columnar = database.with_layout("columnar")
        assert columnar.layout == "columnar"
        assert columnar == database  # layout is invisible to equality
        assert columnar.with_layout("tuple").layout == "tuple"
        with pytest.raises(ValueError, match="unknown layout"):
            database.with_layout("rowgroup")

    def test_parts_encode_lazily_and_group_by_arity(self):
        database = Database({"m": [(1,), (1, 2), (3, 4)]}).with_layout("columnar")
        store = database.columnar_store()
        assert not store.encoded("m")
        parts = database.columnar_parts("m")
        assert store.encoded("m")
        assert sorted(part.arity for part in parts) == [1, 2]
        by_arity = {part.arity: part for part in parts}
        assert len(by_arity[1]) == 1 and len(by_arity[2]) == 2

    def test_encoded_predicate_is_maintained_on_add_fact(self):
        database = Database({"e": [("a", "b")]}).with_layout("columnar")
        (part,) = database.columnar_parts("e")
        database.add_fact("e", ("b", "c"))
        assert len(part) == 2  # same part object, appended in place
        table = database.columnar_store().table
        assert code_rows(part)[1] == (table.lookup("b"), table.lookup("c"))

    def test_unencoded_predicates_ignore_mutation_hooks(self):
        database = Database({"e": [("a", "b")]}).with_layout("columnar")
        database.add_fact("e", ("b", "c"))  # never encoded: hook is a no-op
        assert not database.columnar_store().encoded("e")
        (part,) = database.columnar_parts("e")
        assert len(part) == 2

    def test_retraction_invalidates_and_reencodes(self):
        database = Database({"e": [("a", "b"), ("b", "c")]}).with_layout("columnar")
        database.columnar_parts("e")
        store = database.columnar_store()
        database.remove_relation("e")
        assert not store.encoded("e")
        database.add_fact("e", ("x", "y"))
        (part,) = database.columnar_parts("e")
        assert len(part) == 1
        # Codes for retracted values survive: the table is append-only.
        assert store.table.lookup("a") is not None

    def test_column_distincts_report_the_dominant_arity_group(self):
        database = Database(
            {"m": [(1, 2), (1, 3), (9,)], "empty": []}
        ).with_layout("columnar")
        store = database.columnar_store()
        assert store.column_distincts("m") == {0: 1, 1: 2}
        assert store.column_distincts("empty") == {}


# ----------------------------------------------------------------------
# Bulk encoding: identical to interning one row at a time
# ----------------------------------------------------------------------
# 0, False, 0.0 and 1, True, 1.0 collide under set equality, so the first
# one seen must stay the representative; nested tuples collide the same way.
scalar_values = st.one_of(
    st.integers(min_value=-1, max_value=3),
    st.booleans(),
    st.sampled_from([0.0, 1.0, 2.5]),
    st.sampled_from(["a", "b", ""]),
    st.none(),
)
nested_values = st.recursive(
    scalar_values, lambda inner: st.tuples(inner) | st.tuples(inner, inner), max_leaves=3
)
value_rows = st.integers(min_value=0, max_value=3).flatmap(
    lambda arity: st.tuples(*[nested_values] * arity)
)
relation_maps = st.dictionaries(
    st.sampled_from(["p", "q", "r"]), st.sets(value_rows, max_size=12), max_size=3
)


class ReferenceEncoding:
    """The row-at-a-time encoder: intern each row's values left to right."""

    def __init__(self):
        self.table = InternTable()
        self.groups = {}  # predicate -> arity -> [code rows]

    def add(self, predicate, rows):
        groups = self.groups.setdefault(predicate, {})
        for values in rows:
            codes = tuple(self.table.intern(value) for value in values)
            groups.setdefault(len(values), []).append(codes)


def assert_encoding_matches(database, reference, predicate):
    groups = reference.groups.get(predicate, {})
    parts = database.columnar_parts(predicate)
    assert [part.arity for part in parts] == list(groups)
    for part in parts:
        rows = groups[part.arity]
        assert len(part) == len(rows)
        assert [list(column) for column in part.columns] == [
            list(column) for column in zip(*rows)
        ]
        assert part.keys == {pack_codes(row) for row in rows}


def assert_membership(database, predicate):
    """``in`` agrees with the tuple relation, building key sets on demand."""
    table = database.columnar_store().table
    relation = database.relation(predicate)
    for part in database.columnar_parts(predicate):
        if part.arity:
            assert (len(table),) * part.arity not in part  # a code no value holds
        for values in relation:
            if len(values) == part.arity:
                assert tuple(table.lookup(value) for value in values) in part


@settings(max_examples=60, deadline=None)
@given(relation_maps, st.data())
def test_bulk_encoding_matches_row_at_a_time_interning(relations, data):
    database = Database(relations).with_layout("columnar")
    table = database.columnar_store().table
    reference = ReferenceEncoding()
    predicates = sorted(relations)
    for predicate in predicates:
        database.columnar_parts(predicate)
        # The live set, not a snapshot copy: the orders must match exactly.
        reference.add(predicate, database._relations.get(predicate, ()))
        for part in database.columnar_parts(predicate):
            assert part._keys is None or part.arity == 0  # built only on demand
    assert [repr(value) for value in table.values()] == [
        repr(value) for value in reference.table.values()
    ]
    for predicate in predicates:
        assert_membership(database, predicate)  # first check builds the keys
        assert_encoding_matches(database, reference, predicate)

    # note_added: single facts extend the encoding exactly as the reference.
    for predicate in predicates:
        extra = data.draw(st.lists(value_rows, max_size=4), label=predicate)
        for values in extra:
            if database.add_fact(predicate, values):
                reference.add(predicate, [values])
        assert_membership(database, predicate)
        assert_encoding_matches(database, reference, predicate)
    assert [repr(value) for value in table.values()] == [
        repr(value) for value in reference.table.values()
    ]

    # A copy shares the table and re-encodes lazily into the same codes.
    clone = database.copy()
    assert clone.columnar_store().table is table
    for predicate in predicates:
        assert_membership(clone, predicate)
        original = {
            (part.arity, row)
            for part in database.columnar_parts(predicate)
            for row in zip(*part.columns)
        }
        copied = {
            (part.arity, row)
            for part in clone.columnar_parts(predicate)
            for row in zip(*part.columns)
        }
        assert copied == original


def test_concurrent_bulk_encodes_keep_the_intern_table_a_bijection():
    threads_count = 8
    for round_number in range(4):
        # Overlapping value domains, so threads race to intern the same values.
        relations = {
            f"p{index}": {
                (f"v{(index * 37 + row) % 300}", (row + round_number) % 97, (row % 5, "n"))
                for row in range(600)
            }
            for index in range(threads_count)
        }
        base = Database(relations).with_layout("columnar")
        table = base.columnar_store().table
        copies = [base.copy() for _ in range(threads_count)]
        barrier = threading.Barrier(threads_count)
        errors = []

        def encode(index):
            try:
                barrier.wait()
                copies[index].columnar_parts(f"p{index}")
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        threads = [
            threading.Thread(target=encode, args=(index,))
            for index in range(threads_count)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors

        values = table.values()
        assert len(values) == len(table)
        assert len(dict.fromkeys(values)) == len(values)  # no value twice
        for code, value in enumerate(values):
            assert table.lookup(value) == code  # no code issued twice
        for index, database in enumerate(copies):
            (part,) = database.columnar_parts(f"p{index}")
            decoded = set(
                zip(*[[values[code] for code in column] for column in part.columns])
            )
            assert decoded == relations[f"p{index}"]


class TestColumnarOverlay:
    def test_overlay_inherits_layout_and_shares_the_intern_table(self):
        base = Database({"e": [("a", "b")]}).with_layout("columnar")
        overlay = base.overlay()
        assert overlay.layout == "columnar"
        assert overlay.columnar_store().table is base.columnar_store().table

    def test_overlay_parts_append_local_groups_after_base(self):
        base = Database({"e": [("a", "b")]}).with_layout("columnar")
        base.columnar_parts("e")
        overlay = base.overlay()
        assert overlay.columnar_parts("e") == base.columnar_parts("e")
        overlay.add_fact("e", ("b", "c"))
        parts = overlay.columnar_parts("e")
        assert len(parts) == 2
        assert parts[0] is base.columnar_parts("e")[0]
        table = base.columnar_store().table
        assert code_rows(parts[1])[0] == (table.lookup("b"), table.lookup("c"))
        # The base mirror never sees the overlay's local facts.
        assert len(base.columnar_parts("e")[0]) == 1

    def test_seed_codes_land_in_the_base_code_space(self):
        base = Database({"e": [("a", "b")]}).with_layout("columnar")
        base.columnar_parts("e")
        overlay = base.overlay()
        overlay.add_fact("seed", ("a",))
        (part,) = overlay.columnar_parts("seed")
        # "a" reuses the code the base assigned — no per-overlay domains.
        assert code_rows(part)[0] == (base.columnar_store().table.lookup("a"),)


class TestLazyDecodedDatabase:
    def test_thunk_runs_once_on_first_read(self):
        calls = []

        def decode():
            calls.append(1)
            return {"t": {("a", "b")}}

        database = LazyDecodedDatabase.defer(decode)
        assert not calls
        assert database.relation("t") == {("a", "b")}
        assert database.relation("t") == {("a", "b")}
        assert calls == [1]

    def test_behaves_as_a_database_after_decoding(self):
        database = LazyDecodedDatabase.defer(lambda: {"t": {(1, 2)}})
        assert database == Database({"t": [(1, 2)]})
        assert database.fact_count() == 1
        database.add_fact("t", (3, 4))
        assert database.relation("t") == {(1, 2), (3, 4)}
