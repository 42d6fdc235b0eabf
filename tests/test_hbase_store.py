"""LSM internals: memstore, HFiles, tombstone merge semantics."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.hbase.cell import Result
from repro.hbase.region import Region
from repro.hbase.store import HFile, MemStore, RowEntry, merge_row


class TestRowEntry:
    def test_versions_sorted_newest_first(self):
        e = RowEntry()
        e.put_cell(b"cf", b"q", 1, b"old")
        e.put_cell(b"cf", b"q", 3, b"new")
        e.put_cell(b"cf", b"q", 2, b"mid")
        assert e.cells[(b"cf", b"q")][0] == (3, b"new")

    def test_row_tombstone_keeps_max(self):
        e = RowEntry()
        e.delete_row(5)
        e.delete_row(3)
        assert e.row_tombstone_ts == 5

    def test_size_accounting(self):
        e = RowEntry()
        e.put_cell(b"cf", b"q", 1, b"value")
        assert e.size_bytes(b"rowkey", kv_overhead=24) == 6 + 2 + 1 + 5 + 24


class TestMemStore:
    def test_keys_sorted(self):
        m = MemStore()
        for k in (b"c", b"a", b"b"):
            m.entry(k, create=True)
        assert list(m.keys_in_range(b"", None)) == [b"a", b"b", b"c"]

    def test_range_bounds(self):
        m = MemStore()
        for k in (b"a", b"b", b"c", b"d"):
            m.entry(k, create=True)
        assert list(m.keys_in_range(b"b", b"d")) == [b"b", b"c"]

    def test_missing_entry_not_created_by_default(self):
        m = MemStore()
        assert m.entry(b"x") is None
        assert len(m) == 0


class TestMergeRow:
    def _entry(self, ts_values, tombstone=None):
        e = RowEntry()
        for ts, v in ts_values:
            e.put_cell(b"cf", b"q", ts, v)
        if tombstone is not None:
            e.delete_row(tombstone)
        return e

    def test_newest_version_wins(self):
        merged = merge_row([self._entry([(1, b"a"), (2, b"b")])], max_versions=1)
        assert merged[(b"cf", b"q")] == ((2, b"b"),)

    def test_max_versions_respected(self):
        merged = merge_row(
            [self._entry([(1, b"a"), (2, b"b"), (3, b"c")])], max_versions=2
        )
        assert merged[(b"cf", b"q")] == ((3, b"c"), (2, b"b"))

    def test_row_tombstone_hides_older_cells(self):
        merged = merge_row(
            [self._entry([(1, b"a"), (5, b"b")], tombstone=3)], max_versions=5
        )
        assert merged[(b"cf", b"q")] == ((5, b"b"),)

    def test_fully_deleted_row_is_none(self):
        merged = merge_row([self._entry([(1, b"a")], tombstone=9)], max_versions=1)
        assert merged is None

    def test_column_tombstone(self):
        e = self._entry([(1, b"a")])
        e.put_cell(b"cf", b"other", 1, b"x")
        e.delete_column(b"cf", b"q", 2)
        merged = merge_row([e], max_versions=1)
        assert (b"cf", b"q") not in merged
        assert (b"cf", b"other") in merged

    def test_tombstone_across_components(self):
        # delete in a newer component hides a cell in an older HFile
        newer = RowEntry()
        newer.delete_row(10)
        older = self._entry([(5, b"v")])
        assert merge_row([newer, older], max_versions=1) is None

    def test_time_range_filtering(self):
        merged = merge_row(
            [self._entry([(1, b"a"), (5, b"b"), (9, b"c")])],
            max_versions=3,
            time_range=(2, 9),
        )
        assert merged[(b"cf", b"q")] == ((5, b"b"),)

    @given(st.lists(st.tuples(st.integers(1, 100), st.binary(max_size=4)),
                    min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_newest_visible_version_is_global_max(self, versions):
        e = RowEntry()
        seen = {}
        for ts, v in versions:
            e.put_cell(b"cf", b"q", ts, v)
            seen[ts] = v  # same-ts later put appends; max keeps first sorted
        merged = merge_row([e], max_versions=1)
        top_ts = merged[(b"cf", b"q")][0][0]
        assert top_ts == max(ts for ts, _ in versions)


class TestHFile:
    def test_immutable_lookup(self):
        e = RowEntry()
        e.put_cell(b"cf", b"q", 1, b"v")
        h = HFile({b"k": e})
        assert h.entry(b"k") is e
        assert h.entry(b"missing") is None
        assert list(h.keys_in_range(b"", None)) == [b"k"]

    def test_unique_file_ids(self):
        a, b = HFile({}), HFile({})
        assert a.file_id != b.file_id


class TestResultAdd:
    def test_add_to_result_built_from_sorted(self):
        r = Result.from_sorted(b"k", {(b"cf", b"q"): ((5, b"a"), (2, b"b"))})
        r.add(b"cf", b"q", 7, b"c")
        r.add(b"cf", b"q", 5, b"d")  # equal timestamps keep insertion order
        r.add(b"cf", b"new", 1, b"e")
        assert r.versions(b"cf", b"q") == [(7, b"c"), (5, b"a"), (5, b"d"), (2, b"b")]
        assert r.value(b"cf", b"new") == b"e"


class TestVersionContainersUntracked:
    """Cell versions are immutable tuples of atomic objects, so after a
    full collection the cyclic GC no longer tracks them, nor the
    per-row cell dicts holding them: collections stop walking the store."""

    def test_no_store_container_is_tracked_after_collect(self):
        region = Region("t", b"", None, max_versions=3, flush_threshold_rows=10_000)
        for gen in range(3):
            for i in range(50):
                row = b"r%03d" % i
                region.put_row(row, [(b"cf", b"a", b"v%d" % gen, None)], 10 * gen + 1)
                region.put_row(row, [(b"cf", b"b", b"w", 10 * gen + 2)], 0)
            if gen == 0:
                region.flush()
        region.delete_row(b"r007", None, 100)
        region.flush()
        region.major_compact()
        for i in range(0, 50, 5):  # a dirty memstore on top of the HFile
            region.put_row(b"r%03d" % i, [(b"cf", b"a", b"late", None)], 50)
            region.put_row(b"r%03d" % i, [(b"cf", b"a", b"early", None)], 40)
        assert len(region.hfiles) == 1 and len(region.memstore) == 10
        # a collection untracks a container only once its elements are
        # untracked, and visits children after parents: one full
        # collection per nesting level (cell dict -> versions -> version)
        for _ in range(3):
            gc.collect()

        checked = 0
        for component in [region.memstore, *region.hfiles]:
            for _, entry in component.items():
                assert not gc.is_tracked(entry._cells)
                for versions in entry._cells.values():
                    assert type(versions) is tuple
                    assert not gc.is_tracked(versions)
                    checked += 1
        assert checked == 49 * 2 + 10
