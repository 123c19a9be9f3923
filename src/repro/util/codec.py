"""Text record codec for on-disk Ficus metadata.

Ficus stores directories, auxiliary replication attributes and graft points
as ordinary UFS *files* (paper Sections 2.6, 4.3).  Those files need a byte
format.  We use a line-oriented ``key=value`` record format with escaping, so
that metadata files are human-inspectable (handy when debugging a simulated
disk image) and so that arbitrary user-supplied names round-trip exactly.

A *record* is one line of ``key=value`` fields separated by spaces; a file is
a sequence of records separated by newlines.  Values are escaped so they may
contain spaces, newlines, ``=`` and arbitrary unicode.
"""

from __future__ import annotations

from repro.errors import InvalidArgument

_ESCAPES = {
    "\\": "\\\\",
    " ": "\\s",
    "\n": "\\n",
    "=": "\\e",
    # Every stored record escapes the pipe this way: nothing splits on
    # it, but the escape is part of the on-disk format.
    "|": "\\p",
}
_UNESCAPES = {v[1]: k for k, v in _ESCAPES.items()}
_ESCAPE_TABLE = str.maketrans(_ESCAPES)
_NEEDS_ESCAPE = set(_ESCAPES)


def escape_value(value: str) -> str:
    """Escape a field value so it contains no space, newline or ``=``."""
    # fast path: hex handles, plain names etc. need no escaping at all
    if not _NEEDS_ESCAPE.intersection(value):
        return value
    return value.translate(_ESCAPE_TABLE)


def unescape_value(value: str) -> str:
    """Inverse of :func:`escape_value`."""
    if "\\" not in value:
        return value
    pieces = value.split("\\")
    out = [pieces[0]]
    i = 1
    while i < len(pieces):
        piece = pieces[i]
        if piece:
            code = piece[0]
            if code not in _UNESCAPES:
                raise InvalidArgument(f"unknown escape in {value!r}")
            out.append(_UNESCAPES[code])
            out.append(piece[1:])
            i += 1
        else:
            # an empty piece between two backslashes encodes a literal
            # backslash; an empty piece at the END is a dangling escape
            if i == len(pieces) - 1:
                raise InvalidArgument(f"dangling escape in {value!r}")
            out.append("\\")
            out.append(pieces[i + 1])
            i += 2
    return "".join(out)


def encode_record(fields: dict[str, str]) -> str:
    """Encode one record (dict of string fields) as a single line."""
    parts = []
    for key, value in fields.items():
        if not key or any(c in key for c in " =\n\\"):
            raise InvalidArgument(f"bad record key {key!r}")
        parts.append(f"{key}={escape_value(value)}")
    return " ".join(parts)


def decode_record(line: str) -> dict[str, str]:
    """Decode one record line back into a dict of string fields."""
    fields: dict[str, str] = {}
    if not line:
        return fields
    for part in line.split(" "):
        if "=" not in part:
            raise InvalidArgument(f"bad record field {part!r}")
        key, _, raw = part.partition("=")
        fields[key] = unescape_value(raw)
    return fields


def encode_records(records: list[dict[str, str]]) -> bytes:
    """Encode a list of records as file contents."""
    return "\n".join(encode_record(r) for r in records).encode("utf-8")


def decode_records(data: bytes) -> list[dict[str, str]]:
    """Decode file contents back into a list of records."""
    text = data.decode("utf-8")
    if not text:
        return []
    return [decode_record(line) for line in text.split("\n")]
