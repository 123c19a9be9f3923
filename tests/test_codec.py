"""Unit and property tests for the metadata record codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidArgument
from repro.util import (
    decode_record,
    decode_records,
    encode_record,
    encode_records,
    escape_value,
    unescape_value,
)


class TestEscaping:
    def test_plain_text_unchanged(self):
        assert escape_value("hello") == "hello"

    def test_space_escaped(self):
        assert escape_value("a b") == "a\\sb"
        assert unescape_value("a\\sb") == "a b"

    def test_newline_escaped(self):
        assert unescape_value(escape_value("a\nb")) == "a\nb"

    def test_equals_escaped(self):
        assert unescape_value(escape_value("a=b")) == "a=b"

    def test_backslash_escaped(self):
        assert unescape_value(escape_value("a\\b")) == "a\\b"

    def test_nul_escaped(self):
        # the attribute table reads a NUL as the end of a torn run
        assert "\0" not in escape_value("a\0b")
        assert unescape_value(escape_value("a\0b")) == "a\0b"

    def test_dangling_escape_rejected(self):
        with pytest.raises(InvalidArgument):
            unescape_value("oops\\")

    def test_unknown_escape_rejected(self):
        with pytest.raises(InvalidArgument):
            unescape_value("\\q")

    @given(st.text())
    def test_round_trip_arbitrary_unicode(self, text):
        assert unescape_value(escape_value(text)) == text


class TestRecords:
    def test_simple_record(self):
        rec = {"name": "file.txt", "ino": "42"}
        assert decode_record(encode_record(rec)) == rec

    def test_record_with_hostile_values(self):
        rec = {"name": "a b=c\nd\\e", "x": ""}
        assert decode_record(encode_record(rec)) == rec

    def test_bad_key_rejected(self):
        with pytest.raises(InvalidArgument):
            encode_record({"bad key": "v"})
        with pytest.raises(InvalidArgument):
            encode_record({"": "v"})

    def test_empty_record(self):
        assert decode_record("") == {}

    def test_malformed_field_rejected(self):
        with pytest.raises(InvalidArgument):
            decode_record("noequals")

    def test_multi_record_file(self):
        records = [{"a": "1"}, {"b": "two words"}, {"c": "x=y"}]
        assert decode_records(encode_records(records)) == records

    def test_empty_file(self):
        assert decode_records(b"") == []
        assert encode_records([]) == b""

    keys = st.text(
        alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=8
    )

    @given(st.lists(st.dictionaries(keys, st.text(), min_size=1, max_size=4), max_size=6))
    def test_round_trip_property(self, records):
        assert decode_records(encode_records(records)) == records
