"""Auditor for the semantic vocabulary store (``MDV07x``).

The semantic tier (:mod:`repro.semantics`) validates vocabulary at
registration time — cyclic taxonomy edges and non-invertible mappings
are rejected with :class:`~repro.errors.SemanticError` before they are
persisted.  This module is the *post-hoc* complement: it re-checks a
store's persisted vocabulary tables wholesale, catching hand-edited
databases, schema drift (a synonym registered against a property that a
later schema revision dropped) and closure corruption:

- every concept a synonym set, taxonomy edge or mapping references
  should still exist in the schema, the registered rule base or the
  published data (``MDV070``);
- the precomputed taxonomy closure must equal the naive transitive
  closure of the edge list and must stay acyclic (``MDV071``);
- mapping functions must remain invertible — non-zero affine scale,
  no enum source mapped to two targets (``MDV072``) — and typed
  consistently with the schema (``MDV073``);
- semantically expanded equality rows must stay publishable: an
  integer-typed property compared against a non-integral mapped
  constant can never match (``MDV074``).

``audit_vocabulary`` never mutates the database; the ``audit`` CLI
command runs it alongside the MDV03x invariant audit.
"""

from __future__ import annotations

from repro.rdf.schema import PropertyKind, Schema
from repro.storage.engine import Database
from repro.storage.schema import COMPARISON_TABLES

from repro.analysis.diagnostics import AnalysisReport, Severity

__all__ = ["audit_vocabulary"]


def audit_vocabulary(
    db: Database, schema: Schema | None = None
) -> AnalysisReport:
    """Audit one store's semantic vocabulary; returns violations found."""
    report = AnalysisReport()
    _check_concepts(db, schema, report)
    _check_closure(db, report)
    _check_mappings(db, schema, report)
    _check_mapped_satisfiability(db, schema, report)
    return report


# ----------------------------------------------------------------------
# Individual checks
# ----------------------------------------------------------------------
def _schema_properties(schema: Schema) -> set[str]:
    return {
        name
        for cls in schema.class_names()
        for name in schema.class_def(cls).properties
    }


def _known_properties(db: Database, schema: Schema) -> set[str]:
    """Property names the schema declares or the store actually uses.

    MDP databases do not persist their schema, so a CLI audit may run
    against the fallback ObjectGlobe schema while the store speaks a
    custom one.  Published statements and registered (non-semantic)
    triggering rows prove a property exists regardless of which schema
    object we were handed — only names *nobody* uses are dead weight.
    """
    known = _schema_properties(schema)
    for row in db.query_all("SELECT DISTINCT property FROM filter_data"):
        known.add(row["property"])
    for table in COMPARISON_TABLES.values():
        for row in db.query_all(
            f"SELECT DISTINCT property FROM {table} WHERE semantic = 0"
        ):
            known.add(row["property"])
    return known


def _known_classes(db: Database, schema: Schema) -> set[str]:
    """Class names the schema declares or the store actually uses."""
    known = set(schema.class_names())
    for row in db.query_all("SELECT DISTINCT class FROM filter_data"):
        known.add(row["class"])
    for row in db.query_all(
        "SELECT DISTINCT class FROM filter_rules_class WHERE semantic = 0"
    ):
        known.add(row["class"])
    return known


def _property_kinds(schema: Schema, prop: str) -> set[PropertyKind]:
    """Every kind ``prop`` is declared with, across all schema classes."""
    return {
        definition.kind
        for cls in schema.class_names()
        for name, definition in schema.class_def(cls).properties.items()
        if name == prop
    }


def _known_value_concepts(db: Database) -> set[str]:
    """Free-string concepts the store or rule base already speaks of."""
    known: set[str] = set()
    for row in db.query_all(
        "SELECT term FROM semantic_synonyms WHERE kind = 'value'"
    ):
        known.add(row["term"])
    for row in db.query_all(
        "SELECT source_value, target_value FROM semantic_mapping_values"
    ):
        known.add(row["source_value"])
        known.add(row["target_value"])
    # Original (unexpanded) subscription constants and published content
    # values: what subscribers ask for — or publishers say — is a
    # concept by definition.
    for row in db.query_all(
        "SELECT DISTINCT value FROM filter_rules_eq WHERE semantic = 0"
    ):
        known.add(row["value"])
    for row in db.query_all("SELECT DISTINCT value FROM filter_data"):
        known.add(row["value"])
    return known


def _check_concepts(
    db: Database, schema: Schema | None, report: AnalysisReport
) -> None:
    if schema is None:
        return
    properties = _known_properties(db, schema)

    for row in db.query_all(
        "SELECT term FROM semantic_synonyms WHERE kind = 'property' "
        "ORDER BY term"
    ):
        if row["term"] not in properties:
            report.add(
                Severity.WARNING,
                "MDV070",
                f"property synonym {row['term']!r} names no known "
                "property — no schema, rule or document spells it, the "
                "expansion rows are dead weight",
                source="semantic_synonyms",
            )

    known_values = _known_classes(db, schema) | _known_value_concepts(db)
    for row in db.query_all(
        "SELECT narrower, broader FROM semantic_taxonomy_edges "
        "ORDER BY narrower, broader"
    ):
        for concept in (row["narrower"], row["broader"]):
            if concept not in known_values:
                report.add(
                    Severity.INFO,
                    "MDV070",
                    f"taxonomy concept {concept!r} is neither a schema "
                    "class nor a value any synonym, mapping or "
                    "subscription mentions",
                    source=f"taxonomy edge {row['narrower']!r} -> "
                    f"{row['broader']!r}",
                )

    for row in db.query_all(
        "SELECT map_id, source_property, target_property "
        "FROM semantic_mappings ORDER BY map_id"
    ):
        for prop in (row["source_property"], row["target_property"]):
            if prop not in properties:
                report.add(
                    Severity.WARNING,
                    "MDV070",
                    f"mapping {int(row['map_id'])} references property "
                    f"{prop!r}, which no schema, rule or document uses",
                    source=f"mapping {int(row['map_id'])}",
                )


def _check_closure(db: Database, report: AnalysisReport) -> None:
    """The stored closure must equal the naive one and be acyclic."""
    parents: dict[str, set[str]] = {}
    for row in db.query_all(
        "SELECT narrower, broader FROM semantic_taxonomy_edges"
    ):
        parents.setdefault(row["narrower"], set()).add(row["broader"])

    expected: set[tuple[str, str]] = set()
    cyclic: set[str] = set()
    for start in parents:
        seen: set[str] = set()
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for parent in parents.get(node, ()):
                if parent == start:
                    cyclic.add(start)
                    continue
                if parent not in seen:
                    seen.add(parent)
                    expected.add((parent, start))
                    frontier.append(parent)
    for concept in sorted(cyclic):
        report.add(
            Severity.ERROR,
            "MDV071",
            f"taxonomy edges form a cycle through {concept!r} — the "
            "closure is unsound and expansion would not terminate",
            hint="delete one edge of the cycle and re-register the rules",
            source="semantic_taxonomy_edges",
        )

    stored = {
        (row["ancestor"], row["descendant"])
        for row in db.query_all(
            "SELECT ancestor, descendant FROM semantic_taxonomy_closure"
        )
    }
    for ancestor, descendant in sorted(expected - stored):
        report.add(
            Severity.ERROR,
            "MDV071",
            f"closure is missing the entailed pair "
            f"{ancestor!r} -> {descendant!r}",
            hint="rebuild the closure from the edge list",
            source="semantic_taxonomy_closure",
        )
    for ancestor, descendant in sorted(stored - expected):
        report.add(
            Severity.ERROR,
            "MDV071",
            f"closure contains {ancestor!r} -> {descendant!r}, which "
            "no edge path entails",
            hint="rebuild the closure from the edge list",
            source="semantic_taxonomy_closure",
        )


def _check_mappings(
    db: Database, schema: Schema | None, report: AnalysisReport
) -> None:
    mappings = db.query_all(
        "SELECT map_id, source_property, target_property, kind, scale "
        "FROM semantic_mappings ORDER BY map_id"
    )
    for row in mappings:
        map_id = int(row["map_id"])
        label = (
            f"mapping {map_id} ({row['source_property']!r} -> "
            f"{row['target_property']!r})"
        )
        if row["kind"] == "affine" and float(row["scale"]) == 0.0:
            report.add(
                Severity.ERROR,
                "MDV072",
                f"{label} has scale 0 — it is not invertible, "
                "subscribed constants cannot be pushed through it",
                source=label,
            )
        if row["kind"] == "enum":
            duplicates = db.query_all(
                "SELECT source_value, COUNT(DISTINCT target_value) AS n "
                "FROM semantic_mapping_values WHERE map_id = ? "
                "GROUP BY source_value HAVING n > 1 ORDER BY source_value",
                (map_id,),
            )
            for dup in duplicates:
                report.add(
                    Severity.ERROR,
                    "MDV072",
                    f"{label} maps source value {dup['source_value']!r} "
                    f"to {int(dup['n'])} different targets — it is not "
                    "a function",
                    source=label,
                )
        if schema is None:
            continue
        source_kinds = _property_kinds(schema, row["source_property"])
        target_kinds = _property_kinds(schema, row["target_property"])
        numeric = (PropertyKind.INTEGER, PropertyKind.FLOAT)
        if row["kind"] == "affine":
            for prop, kinds in (
                (row["source_property"], source_kinds),
                (row["target_property"], target_kinds),
            ):
                if kinds and not any(kind in numeric for kind in kinds):
                    report.add(
                        Severity.ERROR,
                        "MDV073",
                        f"{label} is affine but {prop!r} is "
                        "non-numeric in every schema class",
                        source=label,
                    )
        else:
            for prop, kinds in (
                (row["source_property"], source_kinds),
                (row["target_property"], target_kinds),
            ):
                if kinds and all(kind in numeric for kind in kinds):
                    report.add(
                        Severity.WARNING,
                        "MDV073",
                        f"{label} is an enum mapping but {prop!r} is "
                        "numeric in every schema class — enum variants "
                        "only expand non-numeric equality atoms",
                        source=label,
                    )


def _is_integral(text: str) -> bool:
    try:
        return float(text) == int(float(text))
    except (ValueError, OverflowError):
        return False


def _check_mapped_satisfiability(
    db: Database, schema: Schema | None, report: AnalysisReport
) -> None:
    """Expanded ``=`` rows over integer properties need integral values.

    Equality triggering compares raw value strings; publishers of an
    INTEGER-kind property serialize whole numbers.  A semantic variant
    whose constant has a fractional part (an affine mapping with a
    non-integral inverse image, say ``priceCents -> price`` queried at
    an odd cent amount) therefore matches nothing — silently.
    """
    if schema is None:
        return
    rows = db.query_all(
        f"SELECT rule_id, class, property, value "
        f"FROM {COMPARISON_TABLES['=']} WHERE semantic = 1 "
        f"ORDER BY rule_id, class, property, value"
    )
    for row in rows:
        kinds = _property_kinds(schema, row["property"])
        if kinds != {PropertyKind.INTEGER}:
            continue
        if not _is_integral(row["value"]):
            report.add(
                Severity.WARNING,
                "MDV074",
                f"rule {int(row['rule_id'])} expands to "
                f"{row['property']} = {row['value']!r} on class "
                f"{row['class']!r}, but the property is INTEGER-typed — "
                "no publishable value can ever equal it",
                hint="the variant is harmless but dead; check the "
                "mapping's scale/offset if a match was expected",
                source=f"rule {int(row['rule_id'])}",
            )
