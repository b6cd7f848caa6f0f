"""Property tests pinning the counting matcher to its SQL ground truth.

Two layers:

- :func:`repro.filter.counting.sqlite_cast_real` must agree with the
  engine's actual ``CAST(? AS REAL)`` on arbitrary text — the range
  index orders bounds by that conversion, so any divergence (junk
  prefixes, lone exponents, hex spellings, whitespace) would silently
  skew range verdicts;
- :meth:`CountingMatcher.match` over a random rule base and a random
  atom batch must return exactly the ``(uri, rule)`` pairs the paper's
  relational triggering joins (:func:`select_triggering_hits`) produce
  for the same ``filter_input`` — the per-batch analogue of the
  end-to-end differential suite.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.filter.counting import CountingMatcher, sqlite_cast_real
from repro.filter.matcher import select_triggering_hits
from repro.rdf.namespaces import RDF_SUBJECT
from repro.rdf.schema import objectglobe_schema
from repro.rules.decompose import decompose_rule
from repro.rules.normalize import normalize_rule
from repro.rules.parser import parse_rule
from repro.rules.registry import RuleRegistry
from repro.storage.engine import Database
from repro.storage.schema import create_all
from repro.storage.tables import FilterInputTable
from tests.conftest import prop_settings

SCHEMA = objectglobe_schema()

# Dense in the shapes sqlite3AtoF treats specially: signs, lone dots,
# partial exponents, hex prefixes, embedded whitespace — plus arbitrary
# printable junk.
_numericish = st.text(
    alphabet="0123456789+-.eExX \t\nabz", min_size=0, max_size=12
)
_any_text = st.text(max_size=12)


@given(st.one_of(_numericish, _any_text))
@prop_settings(max_examples=300)
def test_cast_real_matches_sqlite(text):
    db = Database()
    try:
        assert sqlite_cast_real(text) == db.scalar(
            "SELECT CAST(? AS REAL)", (text,)
        )
    finally:
        db.close()


# ----------------------------------------------------------------------
# match_rows vs the relational triggering joins
# ----------------------------------------------------------------------
# "abc-xbc-cde.org" holds every 3-window of the needle "abcde",
# scattered, but not "abcde" itself.  "münchen.de" / "ünch" compare
# codepoints beyond ASCII; "" matches every value, "abc-xbc-cde.org.x"
# is longer than every value and "ana" overlaps itself in "ananas.de".
_values = st.sampled_from(
    [
        "0", "3", "5", "5.0", "07", "abc", "x.uni-passau.de", "tum.de", "",
        "abc-xbc-cde.org", "münchen.de", "ananas.de",
    ]
)
_needles = st.sampled_from(
    [
        "pas", "de", "x.", "uni-passau", "zz", "abcde", "ünch", "",
        "abc-xbc-cde.org.x", "ana",
    ]
)
_ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
_props = st.sampled_from(["serverHost", "synthValue"])


@st.composite
def _rule_texts(draw):
    shape = draw(st.integers(min_value=0, max_value=2))
    if shape == 0:
        return "search CycleProvider c register c"
    if shape == 1:
        needle = draw(_needles)
        return (
            "search CycleProvider c register c "
            f"where c.serverHost contains '{needle}'"
        )
    op = draw(_ops)
    value = draw(st.sampled_from(["0", "3", "5"]))
    return (
        "search CycleProvider c register c "
        f"where c.synthValue {op} {value}"
    )


@st.composite
def _atoms(draw):
    uri = f"d{draw(st.integers(min_value=0, max_value=2))}.rdf#h"
    kind = draw(st.integers(min_value=0, max_value=2))
    if kind == 0:
        return (uri, "CycleProvider", RDF_SUBJECT, uri)
    return (uri, "CycleProvider", draw(_props), draw(_values))


@given(
    rules=st.lists(_rule_texts(), min_size=0, max_size=6),
    atoms=st.lists(_atoms(), min_size=0, max_size=8),
)
@prop_settings(max_examples=60)
def test_counting_matches_sql_joins(rules, atoms):
    db = Database()
    create_all(db)
    registry = RuleRegistry(db)
    try:
        for index, text in enumerate(dict.fromkeys(rules)):
            (normalized,) = normalize_rule(parse_rule(text), SCHEMA)
            registry.register_subscription(
                f"lmr{index}", text, decompose_rule(normalized, SCHEMA)
            )
        matcher = CountingMatcher()
        matcher.refresh(db, registry.mutation_version, registry.mutation_log)
        FilterInputTable(db).load(atoms)
        oracle = {
            (uri, rule) for uri, rule in select_triggering_hits(db)
        }
        assert set(matcher.match(atoms)) == oracle
    finally:
        db.close()
