"""Tokenizer and canonical ``contains`` semantics (repro.text.ngrams).

The exactness lemma the index rests on lives here: for an indexable
needle, substring containment implies trigram-set containment — so the
index probe can only over-approximate, never miss.  The Python and SQL
``contains`` implementations are also pinned against each other.
"""

from hypothesis import given, strategies as st

from repro.storage.engine import Database
from repro.text.ngrams import (
    TRIGRAM_LENGTH,
    contains_match,
    contains_sql_condition,
    is_indexable,
    trigrams,
)
from tests.conftest import prop_settings

# SQLite TEXT cannot round-trip NUL and surrogates are not valid UTF-8.
_text = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\x00"
    ),
    max_size=20,
)


class TestTrigrams:
    def test_sliding_windows(self):
        assert trigrams("abcde") == {"abc", "bcd", "cde"}

    def test_exact_length(self):
        assert trigrams("uni") == {"uni"}

    def test_too_short_is_empty(self):
        assert trigrams("ab") == frozenset()
        assert trigrams("") == frozenset()

    def test_repeated_windows_collapse(self):
        assert trigrams("aaaa") == {"aaa"}

    def test_is_indexable_boundary(self):
        assert not is_indexable("de")
        assert is_indexable("uni")
        assert len("de") < TRIGRAM_LENGTH <= len("uni")


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


class TestExactnessLemma:
    """Substring containment implies trigram-set containment."""

    @prop_settings(150)
    @given(value=_text, data=st.data())
    def test_needle_trigrams_subset_of_value_trigrams(self, value, data):
        if len(value) < TRIGRAM_LENGTH:
            return
        start = data.draw(
            st.integers(0, len(value) - TRIGRAM_LENGTH), label="start"
        )
        end = data.draw(st.integers(start + TRIGRAM_LENGTH, len(value)))
        needle = value[start:end]
        assert contains_match(value, needle)
        assert trigrams(needle) <= trigrams(value)

    @prop_settings(150)
    @given(value=_text, needle=_text)
    def test_probe_never_misses(self, value, needle):
        # The contrapositive the probe uses: a missing needle trigram
        # proves the needle does not occur in the value.
        if is_indexable(needle) and not trigrams(needle) <= trigrams(value):
            assert not contains_match(value, needle)
