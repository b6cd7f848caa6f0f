"""Bulk synthetic COMP rule registries for the semantics figure.

:func:`build_registry` mass-registers a COMP rule base — through the
*real* parse/normalize/decompose/register pipeline, so every triggering
index row and semantic expansion row is exactly what live subscriptions
would have produced.  With a semantic degree active, every third rule
is spelled over the ``synthMeasure`` alias of :func:`semantic_schema`.
"""

from __future__ import annotations

from repro.filter.engine import FilterEngine
from repro.rdf.schema import PropertyDef, PropertyKind, Schema, objectglobe_schema
from repro.semantics.store import SEMANTICS_MODES
from repro.rules.decompose import decompose_rule
from repro.rules.normalize import normalize_rule
from repro.rules.parser import parse_rule
from repro.rules.registry import RuleRegistry
from repro.storage.engine import Database
from repro.storage.schema import create_all
from repro.workload.rules import comp_rule

__all__ = ["build_registry", "semantic_schema"]


def semantic_schema() -> Schema:
    """The ObjectGlobe schema plus the divergent spellings.

    ``synthMeasure`` is an alternative spelling of ``synthValue`` (the
    property-synonym workload) and ``synthMilli`` its thousandths
    (the affine-mapping workload).  Normalization validates every rule
    path against the schema, so divergent *rules* need the alias
    declared even though only the vocabulary relates the two.
    """
    schema = objectglobe_schema()
    provider = schema.class_def("CycleProvider")
    provider.add(PropertyDef("synthMeasure", PropertyKind.INTEGER))
    provider.add(PropertyDef("synthMilli", PropertyKind.INTEGER))
    return schema


def build_registry(
    db: Database, count: int, semantics: str = "off"
) -> RuleRegistry:
    """Mass-register ``count`` COMP rules into ``db``.

    Every rule runs through the full registration pipeline (including
    filter-engine rule initialization), inside one transaction.

    With ``semantics`` enabled the base becomes vocabulary-divergent:
    every third rule is spelled over the ``synthMeasure`` alias, the
    ``{synthValue, synthMeasure}`` synonym set unifies the spellings
    (doubling those rules' triggering rows) and — at the ``mappings``
    degree — an affine ``synthMilli`` mapping adds a third row per
    comparison.
    """
    if semantics not in SEMANTICS_MODES:
        raise ValueError(
            f"semantics must be one of {SEMANTICS_MODES}, got {semantics!r}"
        )
    schema = semantic_schema() if semantics != "off" else objectglobe_schema()
    create_all(db)
    registry = RuleRegistry(db, deduplicate=True, semantics=semantics)
    if semantics != "off":
        # Vocabulary first: expansion happens at registration, which is
        # far cheaper than re-expanding the whole base afterwards.
        registry.register_synonyms(
            "property", ["synthValue", "synthMeasure"]
        )
        if SEMANTICS_MODES.index(semantics) >= 3:
            registry.register_affine_mapping(
                "synthMilli", "synthValue", scale=0.001
            )
    engine = FilterEngine(db, registry, True, "scan")
    with db.transaction():
        for index in range(count):
            text = comp_rule(index)
            if semantics != "off" and index % 3 == 1:
                # The divergent spelling: same thresholds, the alias
                # property — only the synonym set relates the two.
                text = text.replace("c.synthValue", "c.synthMeasure")
            normalized = normalize_rule(parse_rule(text), schema)[0]
            decomposed = decompose_rule(normalized, schema)
            registration = registry.register_subscription(
                "bulk-0", text, decomposed
            )
            engine.initialize_rules(registration.created)
    db.execute("ANALYZE")
    db.commit()
    return registry
