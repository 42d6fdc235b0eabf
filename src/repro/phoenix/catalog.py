"""Physical catalog: relations, indexes, views and view-indexes.

Every catalog entry is backed by one HBase table. Row keys are the
delimited concatenation of the entry's key attributes (paper Sec. II-D);
all non-key attributes live in column family ``0`` under their attribute
name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import SchemaError
from repro.hbase.bytes_util import encode_key, join_key, split_key
from repro.hbase.cell import Result
from repro.hbase.ops import Put
from repro.relational.datatypes import DataType, decoder, encoder
from repro.relational.schema import Index, Relation, Schema

CF = b"0"

DIRTY_QUALIFIER = b"_d"
"""Dirty-marker column written on view rows during update maintenance."""

ROW_MARKER_QUALIFIER = b"_0"
"""Placeholder cell for key-only entries, so the row exists."""

TABLE = "table"
INDEX = "index"
VIEW = "view"
VIEW_INDEX = "view_index"


@dataclass
class CatalogEntry:
    """Metadata for one physical HBase table."""

    name: str
    kind: str
    key_attrs: tuple[str, ...]
    attrs: tuple[str, ...]
    dtypes: dict[str, DataType]
    relation: str | None = None
    base: str | None = None
    """For indexes/view-indexes: the entry name this index covers."""

    view_path: tuple[str, ...] = ()
    """For views/view-indexes: the sequence of relations of the view."""

    indexed_on: tuple[str, ...] = ()
    """For indexes/view-indexes: Xtuple — attrs the index is indexed upon."""

    def __post_init__(self) -> None:
        for a in self.key_attrs:
            if a not in self.dtypes:
                raise SchemaError(f"{self.name}: key attr {a!r} has no dtype")
        for a in self.attrs:
            if a not in self.dtypes:
                raise SchemaError(f"{self.name}: attr {a!r} has no dtype")
        # Compile the row codec once: entries are never mutated after
        # construction, and the encode/decode methods below run once per
        # row written or read.
        dtypes = self.dtypes
        self._value_attrs = tuple(a for a in self.attrs if a not in self.key_attrs)
        self._key_dtypes = tuple(dtypes[a] for a in self.key_attrs)
        self._key_encoders = tuple((a, encoder(dtypes[a])) for a in self.key_attrs)
        self._key_decoders = tuple((a, decoder(dtypes[a])) for a in self.key_attrs)
        qualifiers = [a.encode() for a in self._value_attrs]  # shared by every cell
        self._value_columns = tuple((CF, q) for q in qualifiers)
        self._value_encoders = tuple(
            (a, q, encoder(dtypes[a])) for a, q in zip(self._value_attrs, qualifiers)
        )
        self._value_decoders = tuple((a, decoder(dtypes[a])) for a in self._value_attrs)
        self._projection = (
            *self._value_columns,
            (CF, ROW_MARKER_QUALIFIER),
            (CF, DIRTY_QUALIFIER),
        )

    @property
    def value_attrs(self) -> tuple[str, ...]:
        return self._value_attrs

    def has_attribute(self, name: str) -> bool:
        return name in self.dtypes

    # -- encode / decode -------------------------------------------------------------
    def key_dtypes(self) -> tuple[DataType, ...]:
        return self._key_dtypes

    def encode_key(self, row: dict[str, Any]) -> bytes:
        """Missing/None key components encode as NULL (indexes may carry
        NULL key parts, like Phoenix's); statement-level validation
        rejects base-table writes that omit primary-key attributes."""
        get = row.get
        return join_key([enc(get(a)) for a, enc in self._key_encoders])

    def encode_key_values(self, values: Iterable[Any]) -> bytes:
        return encode_key(self._key_dtypes, values)

    def encode_key_prefix(self, values: list[Any]) -> bytes:
        """Key prefix for the first ``len(values)`` key attributes."""
        return encode_key(self._key_dtypes[: len(values)], values)

    def decode_key(self, key: bytes) -> dict[str, Any]:
        parts = split_key(key)
        decoders = self._key_decoders
        if len(parts) != len(decoders):
            raise ValueError(
                f"key arity mismatch: {len(parts)} components, {len(decoders)} types"
            )
        return {a: dec(part) for (a, dec), part in zip(decoders, parts)}

    def row_to_put(self, row: dict[str, Any]) -> Put:
        """Encode a full relational row as a single-row Put."""
        put = Put(self.encode_key(row))
        get = row.get
        # key-only entries still need one cell so the row exists
        put.cells = [
            (CF, qualifier, enc(get(a)), None)
            for a, qualifier, enc in self._value_encoders
        ] or [(CF, ROW_MARKER_QUALIFIER, b"", None)]
        return put

    def projection(self) -> list[tuple[bytes, bytes]]:
        """Every column a physical row of this entry can carry — the set
        pushed down into Gets/Scans so the storage engine never merges
        columns the decoder would not read (column-pushdown contract).
        Includes the row marker (key-only entries) and the dirty marker
        (view-maintenance bookkeeping), so results stay byte-identical
        to an unprojected read."""
        return list(self._projection)

    def result_to_row(self, result: Result) -> dict[str, Any]:
        """Decode an HBase Result back into a relational row."""
        row = self.decode_key(result.row)
        for (a, dec), raw in zip(
            self._value_decoders, result.newest_values(self._value_columns)
        ):
            row[a] = dec(raw)
        return row


class Catalog:
    """All physical entries of one deployed database."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._entries: dict[str, CatalogEntry] = {}
        self._relation_table: dict[str, str] = {}
        self._relation_indexes: dict[str, list[str]] = {}
        self._views: dict[str, str] = {}
        self._view_indexes: dict[str, list[str]] = {}
        self.stats: dict[str, int] = {}
        """entry name -> cached row count (refreshed by ``analyze``)."""
        self.generation = 0
        """Bumped by every change a planner reads (a new entry, refreshed
        statistics); cached plans carry it in their key."""

    # -- registration ---------------------------------------------------------------
    def add_entry(self, entry: CatalogEntry) -> CatalogEntry:
        if entry.name in self._entries:
            raise SchemaError(f"duplicate catalog entry {entry.name!r}")
        self._entries[entry.name] = entry
        self.generation += 1
        if entry.kind == TABLE:
            assert entry.relation is not None
            self._relation_table[entry.relation] = entry.name
            self._relation_indexes.setdefault(entry.relation, [])
        elif entry.kind == INDEX:
            assert entry.relation is not None
            self._relation_indexes.setdefault(entry.relation, []).append(entry.name)
        elif entry.kind == VIEW:
            self._views[entry.name] = entry.name
            self._view_indexes.setdefault(entry.name, [])
        elif entry.kind == VIEW_INDEX:
            assert entry.base is not None
            self._view_indexes.setdefault(entry.base, []).append(entry.name)
        else:  # pragma: no cover - guarded by constants
            raise SchemaError(f"unknown entry kind {entry.kind!r}")
        return entry

    # -- lookup ------------------------------------------------------------------------
    def entry(self, name: str) -> CatalogEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise SchemaError(f"no catalog entry {name!r}") from None

    def has_entry(self, name: str) -> bool:
        return name in self._entries

    def entries(self, kind: str | None = None) -> list[CatalogEntry]:
        if kind is None:
            return list(self._entries.values())
        return [e for e in self._entries.values() if e.kind == kind]

    def table_for_relation(self, relation: str) -> CatalogEntry:
        try:
            return self._entries[self._relation_table[relation]]
        except KeyError:
            raise SchemaError(f"relation {relation!r} has no table") from None

    def indexes_for_relation(self, relation: str) -> list[CatalogEntry]:
        return [self._entries[n] for n in self._relation_indexes.get(relation, ())]

    def views(self) -> list[CatalogEntry]:
        return [self._entries[n] for n in self._views]

    def view(self, name: str) -> CatalogEntry:
        entry = self.entry(name)
        if entry.kind != VIEW:
            raise SchemaError(f"{name!r} is not a view")
        return entry

    def indexes_for_view(self, view_name: str) -> list[CatalogEntry]:
        return [self._entries[n] for n in self._view_indexes.get(view_name, ())]

    def indexes_for(self, entry: CatalogEntry) -> list[CatalogEntry]:
        """Secondary-access entries for a table or view."""
        if entry.kind == TABLE:
            assert entry.relation is not None
            return self.indexes_for_relation(entry.relation)
        if entry.kind == VIEW:
            return self.indexes_for_view(entry.name)
        return []

    def resolve_from_name(self, name: str) -> CatalogEntry:
        """Resolve a FROM-clause name: relation name or view name."""
        if name in self._relation_table:
            return self.table_for_relation(name)
        return self.entry(name)

    # -- statistics ------------------------------------------------------------------
    def set_row_counts(self, counts: dict[str, int]) -> None:
        self.stats.update(counts)
        self.generation += 1

    def estimated_rows(self, entry_name: str) -> int:
        return self.stats.get(entry_name, 1_000_000_000)


class CatalogNamespace:
    """Schema-like adapter so the SQL analyzer can resolve FROM names that
    are views (rewritten Synergy queries) as well as base relations."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    def has_relation(self, name: str) -> bool:
        try:
            self.catalog.resolve_from_name(name)
            return True
        except SchemaError:
            return False

    def relation(self, name: str) -> CatalogEntry:
        return self.catalog.resolve_from_name(name)
