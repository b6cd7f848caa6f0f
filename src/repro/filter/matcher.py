"""Determination of affected triggering rules (paper, Section 3.4).

*"Our prototype implementation starts with joining the table FilterData
with FilterRules and all FilterRulesOP tables using a join predicate
depending on the actual FilterRules/FilterRulesOP table."*

This module emits exactly those joins: one ``INSERT … SELECT`` per
triggering index table, matching the run's input atoms
(``filter_input``) against the rules and writing hits into
``result_objects`` at iteration 0.  The same predicates, re-targeted at
the persistent ``filter_data`` table, serve to initialize the
materialized results of a *newly registered* triggering rule against the
already-stored metadata.

Index behaviour mirrors the paper's findings:

- equality predicates (and the ``rdf#subject`` identity used by OID
  rules) probe the ``(class, property, value)`` index — their cost is
  independent of the rule base size (Figure 11);
- range and ``contains`` predicates scan all rules sharing
  ``(class, property)`` — their cost grows with the rule base size and
  the match percentage (Figures 13 and 15).

``contains_index="trigram"`` replaces the second finding for text
predicates: indexable ``contains`` rules (needle at least one trigram
long) are matched through the inverted index of :mod:`repro.text.index`
— probe the postings with the value's trigram set, verify candidates —
while short needles stay on the scan join, restricted to
``length(fr.value) < 3`` so the two paths partition the rule base
exactly.  The default remains the paper's scan.
"""

from __future__ import annotations

from collections.abc import Collection

from repro.obs.metrics import MetricsRegistry, default_registry
from repro.rdf.namespaces import RDF_SUBJECT
from repro.storage.engine import Database
from repro.storage.schema import TRIGGER_TABLES
from repro.text.index import CONTAINS_INDEX_MODES, match_contains_indexed
from repro.text.ngrams import TRIGRAM_LENGTH, contains_sql_condition

__all__ = [
    "TRIGGERING_JOINS",
    "match_triggering_rules",
    "select_triggering_hits",
    "initialize_triggering_rule",
]

#: ``(index table, SQL condition)`` per matching join.  ``fi`` is the
#: atom side (``filter_input`` or ``filter_data``), ``fr`` the rule side.
#: Ordering operators compare numerically — constants are stored as
#: strings and re-converted, as in the paper's Section 3.3.4.  Every
#: condition requires ``fr.class = fi.class`` and relates one atom row to
#: one rule row — the property the counting index
#: (:mod:`repro.filter.counting`) relies on to probe one atom at a time.
TRIGGERING_JOINS = (
    (
        "filter_rules_class",
        f"fr.class = fi.class AND fi.property = '{RDF_SUBJECT}'",
    ),
    (
        "filter_rules_eq",
        "fr.class = fi.class AND fr.property = fi.property "
        "AND fr.value = fi.value",
    ),
    (
        "filter_rules_ne",
        "fr.class = fi.class AND fr.property = fi.property "
        "AND fr.value != fi.value",
    ),
    (
        "filter_rules_con",
        "fr.class = fi.class AND fr.property = fi.property "
        "AND " + contains_sql_condition("fi.value", "fr.value"),
    ),
    (
        "filter_rules_lt",
        "fr.class = fi.class AND fr.property = fi.property "
        "AND CAST(fi.value AS REAL) < CAST(fr.value AS REAL)",
    ),
    (
        "filter_rules_le",
        "fr.class = fi.class AND fr.property = fi.property "
        "AND CAST(fi.value AS REAL) <= CAST(fr.value AS REAL)",
    ),
    (
        "filter_rules_gt",
        "fr.class = fi.class AND fr.property = fi.property "
        "AND CAST(fi.value AS REAL) > CAST(fr.value AS REAL)",
    ),
    (
        "filter_rules_ge",
        "fr.class = fi.class AND fr.property = fi.property "
        "AND CAST(fi.value AS REAL) >= CAST(fr.value AS REAL)",
    ),
)

#: In trigram mode the scan join keeps only the rules the index cannot
#: hold.  ``length()`` counts codepoints on TEXT, matching Python's
#: ``len`` in :func:`repro.text.ngrams.is_indexable` — the two paths
#: partition ``filter_rules_con`` exactly.
_CONTAINS_FALLBACK = f" AND length(fr.value) < {TRIGRAM_LENGTH}"


def _check_mode(contains_index: str) -> None:
    if contains_index not in CONTAINS_INDEX_MODES:
        raise ValueError(
            f"contains_index must be one of {CONTAINS_INDEX_MODES}, got "
            f"{contains_index!r}"
        )


def _joins(contains_index: str) -> list[tuple[str, str, str]]:
    """The triggering joins as ``(table, FROM clause, condition)``.

    The ``CROSS JOIN`` order is load-bearing twice over.  Normally the
    (small) input batch drives and the rule index is probed per atom —
    left to itself the planner may scan the rule table and probe the
    input, O(rule base) per statement, which would destroy the OID
    flatness of Figure 11.  The trigram mode's contains fallback flips
    the order: its rule side is the partial index over short needles
    (``idx_frcon_short``, usually near-empty), and driving from it keeps
    the statement O(short rules) — input-driven, the planner builds a
    bloom filter by scanning all of ``filter_rules_con``.
    """
    joins = []
    for table, condition in TRIGGERING_JOINS:
        from_clause = f"filter_input fi CROSS JOIN {table} fr"
        if table == "filter_rules_con" and contains_index == "trigram":
            condition = condition + _CONTAINS_FALLBACK
            from_clause = f"{table} fr CROSS JOIN filter_input fi"
        joins.append((table, from_clause, condition))
    return joins


def match_triggering_rules(
    db: Database,
    contains_index: str = "scan",
    metrics: MetricsRegistry | None = None,
) -> int:
    """Join ``filter_input`` against every triggering index table.

    Hits are written into ``result_objects`` at iteration 0.  Returns the
    number of distinct ``(resource, rule)`` hits inserted.  With
    ``contains_index="trigram"``, indexable ``contains`` rules are
    matched through the trigram postings instead of the scan join.
    """
    _check_mode(contains_index)
    inserted = 0
    fallback_hits = 0
    for table, from_clause, condition in _joins(contains_index):
        cursor = db.execute(
            f"INSERT OR IGNORE INTO result_objects "
            f"(uri_reference, rule_id, iteration) "
            f"SELECT DISTINCT fi.uri_reference, fr.rule_id, 0 "
            f"FROM {from_clause} WHERE {condition}"
        )
        inserted += cursor.rowcount
        if table == "filter_rules_con" and contains_index == "trigram":
            fallback_hits = max(cursor.rowcount, 0)
    if contains_index == "trigram":
        registry = metrics if metrics is not None else default_registry()
        registry.counter("text.fallback_hits").inc(fallback_hits)
        hits = match_contains_indexed(db, metrics=registry)
        if hits:
            cursor = db.executemany(
                "INSERT OR IGNORE INTO result_objects "
                "(uri_reference, rule_id, iteration) VALUES (?, ?, 0)",
                hits,
            )
            inserted += max(cursor.rowcount, 0)
    return inserted


def select_triggering_hits(
    db: Database,
    contains_index: str = "scan",
    metrics: MetricsRegistry | None = None,
) -> list[tuple[str, int]]:
    """The matching joins as plain SELECTs: ``(uri_reference, rule_id)``.

    Same predicates and join order as :func:`match_triggering_rules`, but
    the hits are returned to the caller instead of being inserted into
    ``result_objects`` — the reference the counting index is compared
    against (``tests/filter/test_counting_properties.py``).
    """
    _check_mode(contains_index)
    hits: list[tuple[str, int]] = []
    fallback_hits = 0
    for table, from_clause, condition in _joins(contains_index):
        rows = db.query_all(
            f"SELECT DISTINCT fi.uri_reference, fr.rule_id "
            f"FROM {from_clause} WHERE {condition}"
        )
        hits.extend((str(row[0]), int(row[1])) for row in rows)
        if table == "filter_rules_con" and contains_index == "trigram":
            fallback_hits = len(rows)
    if contains_index == "trigram":
        registry = metrics if metrics is not None else default_registry()
        registry.counter("text.fallback_hits").inc(fallback_hits)
        hits.extend(match_contains_indexed(db, metrics=registry))
    return hits


def initialize_triggering_rule(
    db: Database, rule_id: int, tables: Collection[str] = TRIGGER_TABLES
) -> int:
    """Materialize a newly registered triggering rule over ``filter_data``.

    Runs the same matching joins as :func:`match_triggering_rules`, but
    against the persistent atom store and restricted to ``rule_id``,
    inserting straight into ``materialized``.  ``tables`` names the
    index tables that hold rows of the rule when the caller knows them
    (:meth:`~repro.rules.registry.RuleRegistry.triggering_tables`) —
    the join against any other table finds nothing and is skipped.
    Returns the number of matching resources found.  Always uses the
    scan joins: the trigram index is over rule *needles*, and here the
    rule side is a single row — the atom store is the big side either
    way.
    """
    inserted = 0
    for table, condition in TRIGGERING_JOINS:
        if table not in tables:
            continue
        # Here the rule side is a single rule and the atom store is the
        # big side — drive from the rule row, probe the atom indexes.
        cursor = db.execute(
            f"INSERT OR IGNORE INTO materialized (rule_id, uri_reference) "
            f"SELECT DISTINCT fr.rule_id, fi.uri_reference "
            f"FROM {table} fr CROSS JOIN filter_data fi "
            f"WHERE fr.rule_id = ? AND {condition}",
            (rule_id,),
        )
        inserted += cursor.rowcount
    return inserted
