"""Persistence for the semantic matching tier's vocabulary (S-ToPSS).

The store owns the ``semantic_*`` tables (DDL in
:mod:`repro.storage.schema`) and the invariants the rewriter relies on:

- **Synonym sets** — disjoint sets of interchangeable terms, separately
  for property names and for values.  Registering a set that overlaps
  existing sets merges them (synonymy is transitive here, the classic
  S-ToPSS simplification).
- **Taxonomy** — a DAG of ``narrower → broader`` concept edges with its
  transitive closure *precomputed* in ``semantic_taxonomy_closure``.
  The closure is maintained incrementally on every edge insert (new
  pairs = ancestors-of-broader × descendants-of-narrower), never
  recomputed from scratch, so a rewrite never walks edges at match or
  registration time.  Cycles and self-edges are rejected (MDV071).
- **Mapping functions** — declarative property-to-property conversions:
  ``affine`` (``value_target = scale * value_source + offset``, e.g.
  cents → euros) and ``enum`` (finite value renames).  Non-invertible
  mappings (zero scale, one source value mapped onto two targets) are
  rejected at registration (MDV072); with a schema at hand, affine
  mappings over non-numeric properties are too (MDV073).

The store is mode-free: which degrees are *used* is the rewriter's
business (:mod:`repro.semantics.rewrite`); the vocabulary is a property
of the database, exactly like the triggering index tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SemanticError
from repro.rdf.schema import Schema
from repro.storage.engine import Database

__all__ = [
    "SEMANTICS_MODES",
    "MappingFunction",
    "SemanticStore",
    "format_numeric",
]

#: Valid values of the ``semantics=`` knob on the registry and the
#: provider.  ``"off"`` is the paper's purely syntactic matching; the
#: other three are the cumulative S-ToPSS degrees: ``"synonyms"`` ⊂
#: ``"taxonomy"`` ⊂ ``"mappings"``.
SEMANTICS_MODES = ("off", "synonyms", "taxonomy", "mappings")


def format_numeric(value: float) -> str:
    """Canonical string form of a mapped numeric constant.

    Equality triggering compares *strings* (both the SQL join and the
    counting matcher's hash index), so a mapped ``=`` constant must be
    rendered exactly as a publisher would render the value: integral
    floats print without a fractional part (``"600"``, not ``"600.0"``).
    """
    if value == int(value):
        return str(int(value))
    return str(value)


@dataclass(frozen=True, slots=True)
class MappingFunction:
    """One registered mapping, as the rewriter consumes it.

    ``affine`` rows use ``scale``/``offset``; ``enum`` rows have their
    value pairs in ``semantic_mapping_values``.
    """

    map_id: int
    source_property: str
    target_property: str
    kind: str
    scale: float
    offset: float


class SemanticStore:
    """Accessors over the ``semantic_*`` vocabulary tables."""

    def __init__(self, db: Database, schema: Schema | None = None):
        self._db = db
        self._schema = schema

    # -- synonym sets ---------------------------------------------------

    def register_synonyms(self, kind: str, terms: list[str]) -> int:
        """Register (or extend) a synonym set; returns its set id.

        Terms already belonging to other sets pull those sets into this
        one — synonym sets stay disjoint.
        """
        if kind not in ("property", "value"):
            raise ValueError(f"synonym kind must be property|value, got {kind!r}")
        if len(set(terms)) < 2:
            raise ValueError("a synonym set needs at least two distinct terms")
        placeholders = ",".join("?" for __ in terms)
        existing = self._db.query_all(
            f"SELECT DISTINCT set_id FROM semantic_synonyms "
            f"WHERE kind = ? AND term IN ({placeholders}) ORDER BY set_id",
            (kind, *terms),
        )
        if existing:
            set_id = int(existing[0][0])
            for row in existing[1:]:
                self._db.execute(
                    "UPDATE semantic_synonyms SET set_id = ? "
                    "WHERE kind = ? AND set_id = ?",
                    (set_id, kind, int(row[0])),
                )
        else:
            max_row = self._db.query_one(
                "SELECT COALESCE(MAX(set_id), 0) FROM semantic_synonyms"
            )
            set_id = int(max_row[0]) + 1 if max_row is not None else 1
        self._db.executemany(
            "INSERT OR IGNORE INTO semantic_synonyms (set_id, kind, term) "
            "VALUES (?, ?, ?)",
            ((set_id, kind, term) for term in terms),
        )
        return set_id

    def synonyms_of(self, kind: str, term: str) -> tuple[str, ...]:
        """The other members of ``term``'s synonym set (sorted)."""
        rows = self._db.query_all(
            "SELECT s2.term FROM semantic_synonyms s1 "
            "JOIN semantic_synonyms s2 "
            "ON s2.set_id = s1.set_id AND s2.kind = s1.kind "
            "WHERE s1.kind = ? AND s1.term = ? AND s2.term != ? "
            "ORDER BY s2.term",
            (kind, term, term),
        )
        return tuple(str(row[0]) for row in rows)

    # -- taxonomy -------------------------------------------------------

    def register_taxonomy_edge(self, narrower: str, broader: str) -> bool:
        """Add a ``narrower → broader`` concept edge, updating the closure.

        Returns ``False`` when the edge already existed.  Raises
        :class:`SemanticError` (MDV071) for self-edges and edges that
        would close a cycle.
        """
        if narrower == broader:
            raise SemanticError(
                f"taxonomy self-edge rejected: {narrower!r}", code="MDV071"
            )
        if self._closure_contains(narrower, broader):
            raise SemanticError(
                f"taxonomy edge {narrower!r} → {broader!r} would create a "
                f"cycle ({broader!r} is already narrower than {narrower!r})",
                code="MDV071",
            )
        cursor = self._db.execute(
            "INSERT OR IGNORE INTO semantic_taxonomy_edges "
            "(narrower, broader) VALUES (?, ?)",
            (narrower, broader),
        )
        if cursor.rowcount == 0:
            return False
        # Incremental closure maintenance: every (new or old) ancestor
        # of the broader end now reaches every descendant of the
        # narrower end.
        ancestors = [broader, *self.ancestors(broader)]
        descendants = [narrower, *self.descendants(narrower)]
        self._db.executemany(
            "INSERT OR IGNORE INTO semantic_taxonomy_closure "
            "(ancestor, descendant) VALUES (?, ?)",
            ((a, d) for a in ancestors for d in descendants),
        )
        return True

    def _closure_contains(self, ancestor: str, descendant: str) -> bool:
        row = self._db.query_one(
            "SELECT 1 FROM semantic_taxonomy_closure "
            "WHERE ancestor = ? AND descendant = ?",
            (ancestor, descendant),
        )
        return row is not None

    def descendants(self, concept: str) -> tuple[str, ...]:
        """All strictly narrower concepts (sorted)."""
        rows = self._db.query_all(
            "SELECT descendant FROM semantic_taxonomy_closure "
            "WHERE ancestor = ? ORDER BY descendant",
            (concept,),
        )
        return tuple(str(row[0]) for row in rows)

    def ancestors(self, concept: str) -> tuple[str, ...]:
        """All strictly broader concepts (sorted)."""
        rows = self._db.query_all(
            "SELECT ancestor FROM semantic_taxonomy_closure "
            "WHERE descendant = ? ORDER BY ancestor",
            (concept,),
        )
        return tuple(str(row[0]) for row in rows)

    def closure_size(self) -> int:
        """Number of (ancestor, descendant) pairs in the closure."""
        row = self._db.query_one(
            "SELECT COUNT(*) FROM semantic_taxonomy_closure"
        )
        return int(row[0]) if row is not None else 0

    def seed_schema_taxonomy(self, schema: Schema) -> int:
        """Import the RDF-Schema class hierarchy as taxonomy edges.

        Every ``subClassOf`` link becomes a ``subclass → superclass``
        edge; returns the number of *new* edges.  Idempotent, so
        providers can seed on every startup.
        """
        added = 0
        for name in schema.class_names():
            superclass = schema.class_def(name).superclass
            if superclass is not None:
                if self.register_taxonomy_edge(name, superclass):
                    added += 1
        return added

    # -- mapping functions ----------------------------------------------

    def register_affine_mapping(
        self,
        source_property: str,
        target_property: str,
        scale: float,
        offset: float = 0.0,
    ) -> int:
        """Register ``value_target = scale * value_source + offset``.

        A subscription constant over the target property is rewritten to
        the inverse, ``(value - offset) / scale``, over the source
        property — hence the invertibility requirement (MDV072).
        """
        if scale == 0.0:
            raise SemanticError(
                f"affine mapping {source_property!r} → {target_property!r} "
                f"with scale 0 is not invertible",
                code="MDV072",
            )
        if self._schema is not None:
            for prop in (source_property, target_property):
                kind = self._property_kinds(prop)
                if kind and not any(k in ("integer", "float") for k in kind):
                    raise SemanticError(
                        f"affine mapping over non-numeric property {prop!r}",
                        code="MDV073",
                    )
        return self._insert_mapping(
            source_property, target_property, "affine", scale, offset
        )

    def register_enum_mapping(
        self,
        source_property: str,
        target_property: str,
        pairs: list[tuple[str, str]],
    ) -> int:
        """Register a finite value rename (source value → target value)."""
        by_source: dict[str, str] = {}
        for source_value, target_value in pairs:
            seen = by_source.get(source_value)
            if seen is not None and seen != target_value:
                raise SemanticError(
                    f"enum mapping {source_property!r} → {target_property!r} "
                    f"maps {source_value!r} onto both {seen!r} and "
                    f"{target_value!r}",
                    code="MDV072",
                )
            by_source[source_value] = target_value
        if not by_source:
            raise ValueError("an enum mapping needs at least one value pair")
        map_id = self._insert_mapping(
            source_property, target_property, "enum", 1.0, 0.0
        )
        self._db.executemany(
            "INSERT OR IGNORE INTO semantic_mapping_values "
            "(map_id, source_value, target_value) VALUES (?, ?, ?)",
            (
                (map_id, source_value, target_value)
                for source_value, target_value in by_source.items()
            ),
        )
        return map_id

    def _insert_mapping(
        self,
        source_property: str,
        target_property: str,
        kind: str,
        scale: float,
        offset: float,
    ) -> int:
        if source_property == target_property:
            raise SemanticError(
                f"mapping from {source_property!r} onto itself", code="MDV073"
            )
        self._db.execute(
            "INSERT OR REPLACE INTO semantic_mappings "
            "(source_property, target_property, kind, scale, offset) "
            "VALUES (?, ?, ?, ?, ?)",
            (source_property, target_property, kind, scale, offset),
        )
        row = self._db.query_one(
            "SELECT map_id FROM semantic_mappings "
            "WHERE source_property = ? AND target_property = ?",
            (source_property, target_property),
        )
        assert row is not None
        return int(row[0])

    def mappings_to(self, target_property: str) -> tuple[MappingFunction, ...]:
        """All mappings whose target is ``target_property`` (ordered)."""
        rows = self._db.query_all(
            "SELECT map_id, source_property, target_property, kind, "
            "scale, offset FROM semantic_mappings "
            "WHERE target_property = ? ORDER BY map_id",
            (target_property,),
        )
        return tuple(
            MappingFunction(
                map_id=int(row[0]),
                source_property=str(row[1]),
                target_property=str(row[2]),
                kind=str(row[3]),
                scale=float(row[4]),
                offset=float(row[5]),
            )
            for row in rows
        )

    def enum_sources(self, map_id: int, target_value: str) -> tuple[str, ...]:
        """Source values an enum mapping sends to ``target_value``."""
        rows = self._db.query_all(
            "SELECT source_value FROM semantic_mapping_values "
            "WHERE map_id = ? AND target_value = ? ORDER BY source_value",
            (map_id, target_value),
        )
        return tuple(str(row[0]) for row in rows)

    def _property_kinds(self, prop: str) -> set[str]:
        """Kinds under which any schema class defines ``prop``."""
        kinds: set[str] = set()
        if self._schema is None:
            return kinds
        for name in self._schema.class_names():
            definition = self._schema.class_def(name).properties.get(prop)
            if definition is not None:
                kinds.add(definition.kind.value)
        return kinds

    # -- statistics -----------------------------------------------------

    def vocabulary_counts(self) -> dict[str, int]:
        """Row counts per vocabulary table (for stats and the advisor)."""
        counts: dict[str, int] = {}
        for key, sql in (
            ("synonym_terms", "SELECT COUNT(*) FROM semantic_synonyms"),
            ("taxonomy_edges", "SELECT COUNT(*) FROM semantic_taxonomy_edges"),
            ("taxonomy_closure", "SELECT COUNT(*) FROM semantic_taxonomy_closure"),
            ("mappings", "SELECT COUNT(*) FROM semantic_mappings"),
            ("mapping_values", "SELECT COUNT(*) FROM semantic_mapping_values"),
        ):
            row = self._db.query_one(sql)
            counts[key] = int(row[0]) if row is not None else 0
        return counts
