"""Directory records: decoding builds only the entries a rewrite changed,
and a decoded entry is a frozen value every decoder of its line shares."""

import dataclasses

import pytest

from repro.physical.wire import (
    DECODE_LINE_CAP,
    DirectoryEntry,
    EntryId,
    EntryType,
    decode_directory,
    encode_directory,
)
from repro.util import FicusFileHandle, VolumeId
from repro.util.codec import _ESCAPES
from repro.util.ids import FileId

VOL = VolumeId(0x7E57, 0xD1)


def entry(seq: int, name: str, etype: EntryType = EntryType.FILE, **fields) -> DirectoryEntry:
    # a replica id no other test uses, so no line is already in the memo
    return DirectoryEntry(EntryId(0xA11CE, seq), name, FicusFileHandle(VOL, FileId(0xA11CE, seq)), etype, **fields)


class TestDecodeByLine:
    def test_rewriting_one_entry_builds_one_entry(self, monkeypatch):
        entries = [entry(1000 + i, f"file-{i:02d}") for i in range(30)]
        decode_directory(encode_directory(entries))
        entries[17] = entries[17].killed(frozenset({1}))
        built = []
        original = DirectoryEntry.from_record.__func__

        def counting(cls, rec):
            built.append(rec["name"])
            return original(cls, rec)

        monkeypatch.setattr(DirectoryEntry, "from_record", classmethod(counting))
        decoded = decode_directory(encode_directory(entries))
        assert built == ["file-17"]
        assert decoded == entries

    def test_decode_then_encode_is_byte_identical(self):
        every_escape = "a" + "".join(_ESCAPES) + "z"
        shapes = [
            entry(2000, "live-file"),
            entry(2001, "dir", EntryType.DIRECTORY),
            entry(2002, "gone", status="dead", acks=frozenset({1, 3}), acks2=frozenset({2})),
            entry(2003, "loc", EntryType.LOCATION, data="host-b:00000001"),
            entry(2004, every_escape),
        ]
        for shape in shapes:
            data = encode_directory([shape])
            (decoded,) = decode_directory(data)
            assert decoded == shape
            assert encode_directory([decoded]) == data
            assert decoded.fold_component() == shape.fold_component()
        assert decode_directory(encode_directory(shapes)) == shapes

    def test_equal_lines_share_one_entry(self):
        data = encode_directory([entry(3000, "shared")])
        assert decode_directory(data)[0] is decode_directory(data)[0]

    def test_more_lines_than_the_memo_holds(self):
        entries = [entry(10_000 + i, f"n{i}") for i in range(DECODE_LINE_CAP + 50)]
        data = encode_directory(entries)
        assert decode_directory(data) == entries
        assert decode_directory(data) == entries

    def test_entry_is_frozen(self):
        shared = decode_directory(encode_directory([entry(4000, "frozen")]))[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.name = "renamed"
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.status = "dead"
        assert shared.name == "frozen" and shared.live
