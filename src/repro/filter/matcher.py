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

These joins are the ``triggering="sql"`` evaluator.  The in-memory
counting matcher (:mod:`repro.filter.counting`, ``triggering="counting"``)
removes the second finding, and :func:`select_triggering_hits` is the
reference it is checked against.
"""

from __future__ import annotations

from collections.abc import Collection

from repro.rdf.namespaces import RDF_SUBJECT
from repro.storage.engine import Database
from repro.storage.schema import TRIGGER_TABLES
from repro.text.ngrams import contains_sql_condition

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

#: The triggering joins as ``(FROM clause, condition)``.  The ``CROSS
#: JOIN`` order is load-bearing: the (small) input batch drives and the
#: rule index is probed per atom — left to itself the planner may scan
#: the rule table and probe the input, O(rule base) per statement, which
#: would destroy the OID flatness of Figure 11.
_JOINS = tuple(
    (f"filter_input fi CROSS JOIN {table} fr", condition)
    for table, condition in TRIGGERING_JOINS
)


def match_triggering_rules(db: Database) -> int:
    """Join ``filter_input`` against every triggering index table.

    Hits are written into ``result_objects`` at iteration 0.  Returns the
    number of distinct ``(resource, rule)`` hits inserted.
    """
    inserted = 0
    for from_clause, condition in _JOINS:
        cursor = db.execute(
            f"INSERT OR IGNORE INTO result_objects "
            f"(uri_reference, rule_id, iteration) "
            f"SELECT DISTINCT fi.uri_reference, fr.rule_id, 0 "
            f"FROM {from_clause} WHERE {condition}"
        )
        inserted += cursor.rowcount
    return inserted


def select_triggering_hits(db: Database) -> list[tuple[str, int]]:
    """The matching joins as plain SELECTs: ``(uri_reference, rule_id)``.

    Same predicates and join order as :func:`match_triggering_rules`, but
    the hits are returned to the caller instead of being inserted into
    ``result_objects`` — the reference the counting index is compared
    against (``tests/filter/test_counting_properties.py``).
    """
    hits: list[tuple[str, int]] = []
    for from_clause, condition in _JOINS:
        rows = db.query_all(
            f"SELECT DISTINCT fi.uri_reference, fr.rule_id "
            f"FROM {from_clause} WHERE {condition}"
        )
        hits.extend((str(row[0]), int(row[1])) for row in rows)
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
    Returns the number of matching resources found.
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
