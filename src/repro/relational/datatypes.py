"""Value types and byte encodings.

The simulated HBase stores opaque byte strings; this module provides the
(order-preserving where it matters) encodings used for row keys and cell
values, plus size accounting used for Table III (database sizes).
"""

from __future__ import annotations

import enum
import struct
from datetime import date, datetime
from typing import Any, Callable


class DataType(enum.Enum):
    """SQL-ish column types supported by the engines."""

    INT = "int"
    BIGINT = "bigint"
    FLOAT = "float"
    VARCHAR = "varchar"
    DATE = "date"
    DATETIME = "datetime"
    BOOL = "bool"


_INT_BIAS = 1 << 63  # order-preserving encoding for signed integers
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")

# One encoder and one decoder per type. ``None`` encodes to the empty
# byte string for every type (the engines treat absent cells and NULLs
# identically, like HBase does), and empty bytes decode back to None.


def _encode_int(value: Any) -> bytes:
    return b"" if value is None else _U64.pack(int(value) + _INT_BIAS)


def _encode_float(value: Any) -> bytes:
    return b"" if value is None else _F64.pack(float(value))


def _encode_varchar(value: Any) -> bytes:
    return b"" if value is None else str(value).encode("utf-8")


def _encode_date(value: Any) -> bytes:
    if isinstance(value, (date, datetime)):
        value = value.toordinal()
    return _encode_int(value)


def _encode_datetime(value: Any) -> bytes:
    if isinstance(value, datetime):
        value = value.timestamp()
    return _encode_float(value)


def _encode_bool(value: Any) -> bytes:
    return b"" if value is None else b"\x01" if value else b"\x00"


def _decode_int(data: bytes) -> Any:
    return _U64.unpack(data)[0] - _INT_BIAS if data else None


def _decode_float(data: bytes) -> Any:
    return _F64.unpack(data)[0] if data else None


def _decode_varchar(data: bytes) -> Any:
    return data.decode("utf-8") if data else None


def _decode_bool(data: bytes) -> Any:
    return data != b"\x00" if data else None


_ENCODERS: dict[DataType, Callable[[Any], bytes]] = {
    DataType.INT: _encode_int,
    DataType.BIGINT: _encode_int,
    DataType.FLOAT: _encode_float,
    DataType.VARCHAR: _encode_varchar,
    DataType.DATE: _encode_date,
    DataType.DATETIME: _encode_datetime,
    DataType.BOOL: _encode_bool,
}

_DECODERS: dict[DataType, Callable[[bytes], Any]] = {
    DataType.INT: _decode_int,
    DataType.BIGINT: _decode_int,
    DataType.FLOAT: _decode_float,
    DataType.VARCHAR: _decode_varchar,
    DataType.DATE: _decode_int,  # dates decode to ordinals
    DataType.DATETIME: _decode_float,
    DataType.BOOL: _decode_bool,
}


def encoder(dtype: DataType) -> Callable[[Any], bytes]:
    """The encoder of one type: value (or None) -> bytes. Integer and
    date encodings preserve order."""
    try:
        return _ENCODERS[dtype]
    except KeyError:
        raise TypeError(f"unsupported dtype: {dtype}") from None


def decoder(dtype: DataType) -> Callable[[bytes], Any]:
    """The decoder of one type, inverse of :func:`encoder` (dates decode
    to ordinals)."""
    try:
        return _DECODERS[dtype]
    except KeyError:
        raise TypeError(f"unsupported dtype: {dtype}") from None


def encode_value(dtype: DataType, value: Any) -> bytes:
    """Encode ``value`` as bytes with the type's :func:`encoder`."""
    return encoder(dtype)(value)


def decode_value(dtype: DataType, data: bytes) -> Any:
    """Inverse of :func:`encode_value`."""
    return decoder(dtype)(data)


def value_size_bytes(dtype: DataType, value: Any) -> int:
    """Size of the encoded value, for storage accounting."""
    return len(encode_value(dtype, value))
