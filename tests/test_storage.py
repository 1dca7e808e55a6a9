"""Tests for the columnar storage substrate."""

import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hardware.memory import Device
from repro.storage import Column, Database, DictionaryEncoder, Table


class TestColumn:
    def test_basic_properties(self):
        column = Column("x", np.arange(10, dtype=np.int32))
        assert len(column) == 10
        assert column.values.dtype.itemsize == 4
        assert column.nbytes == 40
        assert column.min() == 0 and column.max() == 9

    def test_rejects_multidimensional(self):
        with pytest.raises(ValueError):
            Column("x", np.zeros((2, 2)))

    def test_to_device_shares_data(self):
        column = Column("x", np.arange(4))
        moved = column.to_device(Device.GPU)
        assert moved.device is Device.GPU
        assert moved.values is column.values


class TestDictionaryEncoder:
    def test_encode_decode_round_trip(self):
        encoder = DictionaryEncoder.from_values(["ASIA", "AMERICA", "ASIA", "EUROPE"])
        codes = encoder.encode(["ASIA", "EUROPE", "AMERICA"])
        assert encoder.decode(codes) == ["ASIA", "EUROPE", "AMERICA"]
        assert len(encoder) == 3

    def test_codes_are_sorted_lexicographically(self):
        """Sorted code assignment keeps range predicates on encoded columns valid."""
        encoder = DictionaryEncoder.from_values(["MFGR#2228", "MFGR#2221", "MFGR#2225"])
        assert encoder.encode_value("MFGR#2221") < encoder.encode_value("MFGR#2225")
        assert encoder.encode_value("MFGR#2225") < encoder.encode_value("MFGR#2228")

    def test_unknown_value_raises(self):
        encoder = DictionaryEncoder.from_values(["A"])
        with pytest.raises(KeyError):
            encoder.encode_value("B")

    def test_contains(self):
        encoder = DictionaryEncoder.from_values([str(i) for i in range(300)])
        assert "5" in encoder

    def test_decode_inverts_encode_value(self):
        encoder = DictionaryEncoder.from_values(["ASIA", "EUROPE", "AMERICA"])
        labels = ["ASIA", "EUROPE", "AMERICA"]
        assert encoder.decode([encoder.encode_value(label) for label in labels]) == labels
        assert encoder.decode((np.int32(0), 2)) == ["AMERICA", "EUROPE"]
        assert encoder.decode(()) == []
        with pytest.raises(IndexError):
            encoder.decode([0, 3])

    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=50))
    def test_round_trip_property(self, values):
        encoder = DictionaryEncoder.from_values(values)
        assert encoder.decode(encoder.encode(values)) == [str(v) for v in values]


class TestTable:
    def _table(self):
        return Table.from_arrays("t", {"a": np.arange(5, dtype=np.int32), "b": np.ones(5, dtype=np.int32)})

    def test_from_arrays_and_access(self):
        table = self._table()
        assert table.num_rows == 5
        assert table.num_columns == 2
        assert "a" in table
        assert list(table["a"]) == [0, 1, 2, 3, 4]

    def test_rejects_mismatched_column(self):
        table = self._table()
        with pytest.raises(ValueError):
            table.add_column(Column("c", np.arange(3)))

    def test_missing_column_message(self):
        with pytest.raises(KeyError, match="available"):
            self._table().column("zzz")

    def test_encoded_column_and_predicate_rewrite(self):
        table = Table(name="supplier")
        table.add_encoded_column("s_region", ["ASIA", "AMERICA", "ASIA"])
        assert table.num_rows == 3
        code = table.dictionaries["s_region"].encode_value("ASIA")
        assert list(table["s_region"] == code) == [True, False, True]

    def test_column_names_keep_insertion_order(self):
        table = Table.from_arrays("t", {"b": np.arange(2), "a": np.arange(2)})
        table.add_encoded_column("c", ["x", "y"])
        assert table.column_names() == ["b", "a", "c"]

    def test_select_rows(self):
        table = self._table()
        subset = table.select_rows(np.array([0, 2]))
        assert subset.num_rows == 2
        assert list(subset["a"]) == [0, 2]


class TestDatabase:
    def test_add_and_lookup(self):
        db = Database("test")
        db.add_table(Table.from_arrays("t", {"a": np.arange(3)}))
        assert "t" in db
        assert db["t"].num_rows == 3
        with pytest.raises(ValueError):
            db.add_table(Table.from_arrays("t", {"a": np.arange(3)}))
        with pytest.raises(KeyError):
            db.table("missing")

    def test_summary_mentions_tables(self):
        db = Database("test")
        db.add_table(Table.from_arrays("lineorder", {"a": np.arange(10)}))
        assert "lineorder" in db.summary()

    def test_to_device(self):
        db = Database("test")
        db.add_table(Table.from_arrays("t", {"a": np.arange(3)}))
        moved = db.to_device(Device.GPU)
        assert moved["t"].column("a").device is Device.GPU


class TestLosslessCast:
    """The append-time cast check: value-preserving or refused, and quiet."""

    def test_nan_fits_a_narrower_float_column(self):
        table = Table.from_arrays("t", {"x": np.array([1.0], dtype=np.float32)})
        table.append({"x": np.array([np.nan, 3.0])})  # float64 in, float32 stored
        assert table["x"].dtype == np.float32
        assert np.isnan(table["x"][1]) and table["x"][2] == 3.0
        with pytest.raises(ValueError, match="losslessly"):
            table.append({"x": np.array([0.1])})  # not representable in float32
        with pytest.raises(ValueError, match="losslessly"):
            table.append({"x": np.array([1e300])})  # overflows to inf

    @pytest.mark.parametrize("bad", [np.nan, 1e300, 2.0**31, 1.5])
    def test_unfit_value_into_an_integer_column_raises_without_warning(self, bad):
        table = Table.from_arrays("t", {"x": np.arange(3, dtype=np.int32)})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="losslessly"):
                table.append({"x": np.array([bad, 3.0])})
        assert not caught, [str(w.message) for w in caught]
        assert table.num_rows == 3 and table.version == 0
        table.append({"x": np.array([7.0, 2.0**31 - 1])})  # integral floats in range still fit
        assert list(table["x"][3:]) == [7, 2**31 - 1]


#: Batch sizes the generated model draws, relative to the spare capacity the
#: table owns at that moment (0 before its first append).
BATCH_KINDS = ("zero", "one", "one", "fill", "over", "multi")


def _batch_rows(table, kind):
    owned = table._buffers.get("a")
    spare = owned.shape[0] - table.num_rows if owned is not None else 0
    return {"zero": 0, "one": 1, "fill": spare, "over": spare + 1, "multi": 3 * table.num_rows + 2}[kind]


class _Model:
    """The oracle: a table is the concatenation of the batches applied to it."""

    def __init__(self, content):
        self.version = 0
        self.content = {name: values.copy() for name, values in content.items()}
        self.counter = 1000

    @property
    def rows(self):
        return len(next(iter(self.content.values())))

    def batch(self, rows):
        """``rows`` never-repeating values per column, in the stored dtypes."""
        start, self.counter = self.counter, self.counter + rows
        return {
            name: np.arange(start, start + rows).astype(values.dtype)
            for name, values in self.content.items()
        }

    def apply(self, batch):
        self.content = {name: np.concatenate([values, batch[name]]) for name, values in self.content.items()}

    def expect(self):
        return self.version, {name: values.tobytes() for name, values in self.content.items()}


def _assert_matches(table, expected):
    version, content = expected
    assert table.version == version
    assert sorted(table.columns) == sorted(content)
    rows = {len(column) for column in table.columns.values()}
    assert len(rows) == 1 and table.num_rows == rows.pop()
    for name, raw in content.items():
        column = table.column(name)
        assert column.values.tobytes() == raw, (table.name, name, version)
        # Published length, never capacity: profiles charge these bytes.
        assert column.nbytes == len(raw) == table.num_rows * column.values.dtype.itemsize
    assert table.nbytes == sum(len(raw) for raw in content.values())


class TestVersionIsALength:
    """Appends write into a table-owned spare tail; a version is a length."""

    @settings(max_examples=80, deadline=None)
    @given(
        base_rows=st.integers(0, 40),
        ops=st.lists(
            st.one_of(
                st.tuples(st.sampled_from(["append", "append", "twin_append"]), st.sampled_from(BATCH_KINDS)),
                st.tuples(st.just("replay"), st.sampled_from(["dup", "next", "gap"])),
                st.tuples(st.just("snapshot"), st.none()),
                st.tuples(st.just("add_column"), st.booleans()),
                st.tuples(st.just("restore"), st.integers(0, 7)),
            ),
            max_size=24,
        ),
    )
    # Restoring a shorter view of a buffer the table owns, then appending,
    # must not write over the rows a longer snapshot of that buffer holds.
    @example(
        base_rows=16,
        ops=[("append", "one"), ("snapshot", None), ("append", "one"), ("snapshot", None),
             ("restore", 0), ("append", "one")],
    )  # fmt: skip
    # Replacing a column after the table owns a buffer for it: the next
    # in-place append must publish the new values, not the stale buffer.
    @example(base_rows=16, ops=[("append", "one"), ("add_column", True), ("append", "one")])
    def test_generated_sequences_match_a_list_of_batches(self, base_rows, ops):
        base = {
            "a": np.arange(base_rows, dtype=np.int32),
            "b": np.arange(base_rows, dtype=np.float64) / 2,
        }
        shared = {name: Column(name, values) for name, values in base.items()}
        table, twin = Table("t", columns=dict(shared)), Table("twin", columns=dict(shared))
        model, twin_model = _Model(base), _Model(base)
        twin_model.counter = -10**6
        #: Arrays the tables were handed but did not allocate, with the
        #: bytes they had when handed over: none may ever change.
        foreign = [(values, values.tobytes()) for values in base.values()]
        snapshots = []  # (frozen view, expectation, publish epoch)
        epoch = 0
        for kind, arg in ops:
            if kind == "append":
                batch = model.batch(_batch_rows(table, arg))
                rows = len(batch["a"])
                model.version += bool(rows)
                model.apply(batch)
                epoch += bool(rows)
                assert table.append(batch) == model.version
            elif kind == "twin_append":
                batch = twin_model.batch(_batch_rows(twin, arg))
                twin_model.version += bool(len(batch["a"]))
                twin_model.apply(batch)
                assert twin.append(batch) == twin_model.version
            elif kind == "snapshot":
                snapshots.append((table.snapshot(), model.expect(), epoch))
            elif kind == "replay":
                batch = model.batch(2)
                if arg == "gap":
                    with pytest.raises(ValueError, match="replay gap"):
                        table.replay_append(model.version + 2, batch)
                elif arg == "dup":
                    assert table.replay_append(model.version, batch) is False
                else:
                    assert table.replay_append(model.version + 1, batch) is True
                    model.version += 1
                    model.apply(batch)
                    epoch += 1
            elif kind == "restore":
                if snapshots and arg % 2 == 0:
                    # Adversarial: the restored columns are views of a buffer
                    # this table allocated, and longer snapshots share it.
                    snap, (version, content), _ = snapshots[arg % len(snapshots)]
                    table.restore_published(version, snap.columns)
                    model.version = version
                    model.content = {
                        name: np.frombuffer(raw, dtype=snap[name].dtype) for name, raw in content.items()
                    }
                else:
                    model.version = arg
                    model.content = {name: values[: model.rows // 2].copy() for name, values in model.content.items()}
                    handed = {name: values.copy() for name, values in model.content.items()}
                    foreign += [(values, values.tobytes()) for values in handed.values()]
                    table.restore_published(arg, {name: Column(name, values) for name, values in handed.items()})
                epoch += 1
            else:  # add_column mutates the published dict in place (set-up only),
                # so views of this same publish legitimately see the change.
                snapshots = [entry for entry in snapshots if entry[2] != epoch]
                values = np.arange(model.rows, dtype=np.int64) * 7 + len(foreign)
                foreign.append((values, values.tobytes()))
                name = "b" if arg else f"x{len(model.content)}"  # replace, or add
                table.add_column(Column(name, values))
                model.content[name] = values.copy()
            _assert_matches(table, model.expect())
            _assert_matches(twin, twin_model.expect())
            for snap, expected, _ in snapshots:
                _assert_matches(snap, expected)
        for values, raw in foreign:
            assert values.tobytes() == raw, "an array the table did not allocate was written"

    def test_snapshots_never_tear_while_the_writer_reallocates(self):
        """One writer across several reallocations, readers snapshotting."""
        base_rows, batch_rows, appends = 64, 16, 600
        table = Table.from_arrays(
            "t", {"a": np.arange(base_rows, dtype=np.int64), "b": np.arange(base_rows, dtype=np.int32) * 3}
        )
        # 64 -> 9664 rows outgrows a 1.25x buffer some twenty times over.
        assert base_rows + batch_rows * appends > 2 * (base_rows + batch_rows) * 1.25**2
        errors, kept, versions, done = [], [], set(), threading.Event()
        start = threading.Barrier(4, timeout=60)

        def check(snap):
            rows = base_rows + batch_rows * snap.version
            if [len(column) for column in snap.columns.values()] != [rows, rows]:
                return f"torn lengths at v{snap.version}"
            expected = np.arange(rows, dtype=np.int64)
            if not (np.array_equal(snap["a"], expected) and np.array_equal(snap["b"], expected * 3)):
                return f"wrong rows at v{snap.version}"
            return None

        def writer():
            try:
                start.wait()
                for i in range(appends):
                    if i % 25 == 0:
                        # Let the readers in: the race is inside a burst of
                        # appends, the overlap itself is not left to luck.
                        target, deadline = len(versions) + 1, time.monotonic() + 30
                        while len(versions) < target and i and time.monotonic() < deadline:
                            time.sleep(0)
                    rows = np.arange(table.num_rows, table.num_rows + batch_rows, dtype=np.int64)
                    table.append({"a": rows, "b": (rows * 3).astype(np.int32)})
            except Exception as exc:  # surfaced through ``errors`` below
                errors.append(repr(exc))
            finally:
                done.set()

        def reader():
            seen = 0
            start.wait()
            while not errors:
                finished = done.is_set()
                snap = table.snapshot()
                problem = check(snap)
                if problem:
                    errors.append(problem)
                versions.add(snap.version)
                if seen % 7 == 0:
                    kept.append(snap)  # outlives its buffer's replacement
                seen += 1
                if finished:
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(3)] + [threading.Thread(target=writer)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[:3]
        assert table.version == appends and kept
        assert len(versions) > 2, "the readers never overlapped the writer"
        assert [check(snap) for snap in kept] == [None] * len(kept)

    def test_append_allocates_the_batch_not_the_table(self):
        """Clock-free: once the table owns its buffers, a 4096-row append to
        a 1 M-row table allocates O(batch) -- it used to allocate the table."""
        rows, batch_rows = 1_000_000, 4096
        table = Table.from_arrays("t", {name: np.zeros(rows, dtype=np.int32) for name in "abc"})
        batch = {name: np.ones(batch_rows, dtype=np.int32) for name in "abc"}
        table.append(batch)  # the buffer-allocating append: one copy of the table
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            table.append(batch)
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20 < table.nbytes // 4
        assert table.num_rows == rows + 2 * batch_rows and table.version == 2
