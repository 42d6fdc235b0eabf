"""The compiled row codec against the byte-loop and if-chain codecs it
replaced, kept here as references: ``split_key``, every ``DataType``,
and every entry of the TPC-W Synergy catalog."""

from __future__ import annotations

import functools
import struct
from datetime import date, datetime
from typing import Any

from hypothesis import example, given, settings, strategies as st

from repro.hbase.bytes_util import decode_key, encode_key, split_key
from repro.hbase.cell import Result
from repro.phoenix.catalog import CF, ROW_MARKER_QUALIFIER
from repro.relational.datatypes import DataType, decode_value, encode_value
from repro.synergy.system import SynergySystem
from repro.tpcw import TPCW_ROOTS, tpcw_schema, tpcw_workload

_INT_BIAS = 1 << 63


# --------------------------------------------------------------- references
def reference_split_key(key: bytes) -> list[bytes]:
    out: list[bytes] = []
    cur = bytearray()
    i = 0
    n = len(key)
    while i < n:
        b = key[i]
        if b == 0:
            if i + 1 < n and key[i + 1] == 0xFF:  # escaped 0x00
                cur.append(0)
                i += 2
                continue
            out.append(bytes(cur))
            cur.clear()
            i += 1
            continue
        cur.append(b)
        i += 1
    out.append(bytes(cur))
    return out


def reference_encode_value(dtype: DataType, value: Any) -> bytes:
    if value is None:
        return b""
    if dtype in (DataType.INT, DataType.BIGINT):
        return struct.pack(">Q", int(value) + _INT_BIAS)
    if dtype is DataType.FLOAT:
        return struct.pack(">d", float(value))
    if dtype is DataType.VARCHAR:
        return str(value).encode("utf-8")
    if dtype is DataType.DATE:
        if isinstance(value, (date, datetime)):
            value = value.toordinal()
        return struct.pack(">Q", int(value) + _INT_BIAS)
    if dtype is DataType.DATETIME:
        if isinstance(value, datetime):
            value = value.timestamp()
        return struct.pack(">d", float(value))
    if dtype is DataType.BOOL:
        return b"\x01" if value else b"\x00"
    raise TypeError(f"unsupported dtype: {dtype}")


def reference_decode_value(dtype: DataType, data: bytes) -> Any:
    if data == b"":
        return None
    if dtype in (DataType.INT, DataType.BIGINT, DataType.DATE):
        return struct.unpack(">Q", data)[0] - _INT_BIAS
    if dtype is DataType.FLOAT or dtype is DataType.DATETIME:
        return struct.unpack(">d", data)[0]
    if dtype is DataType.VARCHAR:
        return data.decode("utf-8")
    if dtype is DataType.BOOL:
        return data != b"\x00"
    raise TypeError(f"unsupported dtype: {dtype}")


def reference_encode_key(dtypes, values) -> bytes:
    return b"\x00".join(
        reference_encode_value(dt, v).replace(b"\x00", b"\x00\xff")
        for dt, v in zip(dtypes, values)
    )


def reference_decode_key(dtypes, key: bytes) -> tuple:
    parts = reference_split_key(key)
    if len(parts) != len(dtypes):
        raise ValueError("key arity mismatch")
    return tuple(reference_decode_value(dt, p) for dt, p in zip(dtypes, parts))


def outcome(fn, *args):
    """``fn(*args)``'s value, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc)


# --------------------------------------------------------------- split_key
KEY_BYTES = st.binary(max_size=24).map(
    lambda raw: bytes(b"\x00\xff\x01\x80"[b % 4] for b in raw)
)


@given(KEY_BYTES)
@example(b"")
@example(b"\x00")
@example(b"\x01\x00")  # trailing delimiter
@example(b"\x00\x00\xff")
@example(b"\x01\x00\x00\xff\x80\x00")
@example(b"\x00\xff\xff\x00\xff")
@settings(max_examples=400)
def test_split_key_matches_byte_loop(key):
    assert split_key(key) == reference_split_key(key)


# --------------------------------------------------------------- scalars
INTS = st.integers(min_value=-(2**62), max_value=2**62)
DATES = st.dates(min_value=date(1, 1, 2))
DATETIMES = st.datetimes(
    min_value=datetime(1971, 1, 2), max_value=datetime(2200, 1, 1)
)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# a fixed alphabet (NUL and multi-byte UTF-8 included) spares hypothesis
# building its full character map, which is slow on a cold cache
TEXT = st.text(alphabet=st.sampled_from("aZ0 \x00\xe9\u20ac\U0001f600"), max_size=16)
VALUES = {
    DataType.INT: INTS | st.booleans(),
    DataType.BIGINT: INTS | st.booleans(),
    DataType.FLOAT: FLOATS | INTS,
    DataType.VARCHAR: TEXT | INTS,
    DataType.DATE: st.integers(0, 3_000_000) | DATES | DATETIMES,
    DataType.DATETIME: FLOATS | DATETIMES,
    DataType.BOOL: st.booleans() | st.integers(-2, 2),
}


def test_every_type_has_values():
    assert set(VALUES) == set(DataType)


@given(st.sampled_from(list(DataType)).flatmap(
    lambda dt: st.tuples(st.just(dt), st.none() | VALUES[dt])
))
@settings(max_examples=400)
def test_value_codec_matches_if_chain(case):
    dtype, value = case
    encoded = encode_value(dtype, value)
    assert encoded == reference_encode_value(dtype, value)
    assert decode_value(dtype, encoded) == reference_decode_value(dtype, encoded)


@given(st.lists(
    st.sampled_from(list(DataType)).flatmap(
        lambda dt: st.tuples(st.just(dt), st.none() | VALUES[dt])
    ),
    min_size=1, max_size=4,
))
def test_key_codec_matches_reference(parts):
    dtypes = [dt for dt, _ in parts]
    values = [v for _, v in parts]
    key = encode_key(dtypes, values)
    assert key == reference_encode_key(dtypes, values)
    # the format is ambiguous when an empty (NULL) component precedes one
    # that starts with 0xFF: both codecs then fail alike
    assert outcome(decode_key, dtypes, key) == outcome(
        reference_decode_key, dtypes, key
    )


# --------------------------------------------------------------- catalog
@functools.cache
def tpcw_catalog_entries():
    system = SynergySystem(tpcw_schema(), tpcw_workload(), TPCW_ROOTS)
    return tuple(system.catalog.entries())


def reference_key_row(entry, key: bytes) -> dict:
    key_dtypes = [entry.dtypes[a] for a in entry.key_attrs]
    return dict(zip(entry.key_attrs, reference_decode_key(key_dtypes, key)))


def reference_result_to_row(entry, result: Result) -> dict:
    row = reference_key_row(entry, result.row)
    for a in entry.attrs:
        if a not in entry.key_attrs:
            raw = result.value(CF, a.encode())
            row[a] = (
                reference_decode_value(entry.dtypes[a], raw) if raw is not None else None
            )
    return row


def row_strategy(entry):
    """A row for ``entry``: any attr may be missing (a missing key attr
    encodes as NULL), and a non-key attr may be None."""
    fields = {}
    for a in entry.attrs:
        values = VALUES[entry.dtypes[a]]
        fields[a] = values if a in entry.key_attrs else st.none() | values
    return st.fixed_dictionaries({}, optional=fields)


def test_catalog_covers_every_kind():
    kinds = {e.kind for e in tpcw_catalog_entries()}
    assert kinds == {"table", "index", "view", "view_index"}
    assert any(not e.value_attrs for e in tpcw_catalog_entries())


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_catalog_codec_matches_generic_path(data):
    for entry in tpcw_catalog_entries():
        row = data.draw(row_strategy(entry), label=entry.name)
        key_dtypes = [entry.dtypes[a] for a in entry.key_attrs]
        value_attrs = [a for a in entry.attrs if a not in entry.key_attrs]

        key = reference_encode_key(key_dtypes, [row.get(a) for a in entry.key_attrs])
        assert entry.encode_key(row) == key

        expected_cells = [
            (CF, a.encode(), reference_encode_value(entry.dtypes[a], row.get(a)), None)
            for a in value_attrs
        ] or [(CF, ROW_MARKER_QUALIFIER, b"", None)]
        put = entry.row_to_put(row)
        assert put.row == key
        assert put.cells == expected_cells

        # decode the stored cells, with one value column left absent
        result = Result(key)
        for family, qualifier, value, _ in put.cells[1:]:
            result.add(family, qualifier, 1, value)
        assert outcome(entry.decode_key, key) == outcome(
            reference_key_row, entry, key
        )
        assert outcome(entry.result_to_row, result) == outcome(
            reference_result_to_row, entry, result
        )
