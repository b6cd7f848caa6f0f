"""Canonical ``contains`` semantics (repro.text.ngrams).

The Python and SQL ``contains`` implementations are pinned against
each other.
"""

from hypothesis import given, strategies as st

from repro.storage.engine import Database
from repro.text.ngrams import contains_match, contains_sql_condition
from tests.conftest import prop_settings

# SQLite TEXT cannot round-trip NUL and surrogates are not valid UTF-8.
_text = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\x00"
    ),
    max_size=20,
)


class TestContainsSemantics:
    def test_exact_substring(self):
        assert contains_match("a.uni-passau.de", "passau")
        assert not contains_match("a.uni-passau.de", "tum")

    def test_case_sensitive(self):
        assert not contains_match("a.uni-passau.de", "UNI")
        assert not contains_match("A.UNI-PASSAU.DE", "uni")

    def test_empty_needle_matches_everything(self):
        assert contains_match("", "")
        assert contains_match("anything", "")

    def test_unicode_codepoints(self):
        assert contains_match("münchen.de", "ünch")
        assert not contains_match("munchen.de", "ünch")

    def test_numeric_looking_text(self):
        # Text comparison even when operands look numeric; SQL paths
        # must quote the needle so no numeric affinity applies.
        assert contains_match("12345", "234")
        assert not contains_match("12345", "23.4")


def _sql_contains(db: Database, value: str, needle: str) -> bool:
    condition = contains_sql_condition("?", "?")
    return bool(db.scalar(f"SELECT {condition}", (value, needle)))


class TestSqlAgreement:
    def test_known_cases(self, db):
        cases = [
            ("a.uni-passau.de", "passau"),
            ("a.uni-passau.de", "UNI"),
            ("anything", ""),
            ("", ""),
            ("12345", "234"),
            ("münchen.de", "ünch"),
            ("o'neil.de", "'nei"),
        ]
        for value, needle in cases:
            assert _sql_contains(db, value, needle) == contains_match(
                value, needle
            ), (value, needle)

    @prop_settings(100)
    @given(value=_text, needle=_text)
    def test_property(self, value, needle):
        db = Database()
        try:
            assert _sql_contains(db, value, needle) == contains_match(
                value, needle
            )
        finally:
            db.close()

