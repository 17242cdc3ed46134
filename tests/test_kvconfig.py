import pytest

from olivenet.kvconfig import dump_kv, group_indexed, parse_kv


class TestParse:
    def test_basic_entries_comments_blanks(self):
        text = "# header\n\na = 1\nb.0.x = 2.5  # trailing\n"
        assert parse_kv(text) == {"a": "1", "b.0.x": "2.5"}

    def test_missing_equals(self):
        with pytest.raises(ValueError, match=r"^line 2: expected 'key = value'"):
            parse_kv("a = 1\nbroken line\n")

    def test_duplicate_key(self):
        with pytest.raises(ValueError, match=r"^line 2: duplicate key 'a'"):
            parse_kv("a = 1\na = 2\n")

    def test_empty_key(self):
        with pytest.raises(ValueError, match=r"^line 1: empty key"):
            parse_kv(" = 3\n")

    def test_dump_parse_roundtrip(self):
        entries = {"x": "1", "peak.0.center_nm": "678.0", "flag": "strict"}
        assert parse_kv(dump_kv(entries)) == entries


class TestGroupIndexed:
    def test_collects_in_order(self):
        entries = {"p.1.a": "x", "p.0.a": "y", "p.0.b": "z", "other": "1"}
        groups = group_indexed(entries, "p")
        assert groups == [{"a": "y", "b": "z"}, {"a": "x"}]

    def test_gap_detected(self):
        with pytest.raises(ValueError, match="contiguous"):
            group_indexed({"p.0.a": "x", "p.2.a": "y"}, "p")

    def test_malformed_key(self):
        with pytest.raises(ValueError):
            group_indexed({"p.0": "x"}, "p")
        with pytest.raises(ValueError):
            group_indexed({"p.zero.a": "x"}, "p")

    def test_absent_prefix_gives_empty(self):
        assert group_indexed({"a": "1"}, "p") == []
