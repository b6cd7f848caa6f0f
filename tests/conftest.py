"""Shared fixtures for the MDV reproduction test suite.

Set ``MDV_SOAK=1`` to multiply every hypothesis example budget by 10 —
a deep-soak mode for release validation (the default budgets keep the
suite under ~20 seconds).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

#: Deep-soak mode: multiply every property-test example budget by 10.
SOAK_MULTIPLIER = 10 if os.environ.get("MDV_SOAK") else 1


def prop_settings(max_examples: int, **kwargs) -> settings:
    """Hypothesis settings honouring the MDV_SOAK multiplier."""
    return settings(
        max_examples=max_examples * SOAK_MULTIPLIER, deadline=None, **kwargs
    )

from repro.filter.engine import FilterEngine
from repro.obs import reset_default_registry
from repro.rdf.model import Document, URIRef
from repro.rdf.schema import (
    PropertyDef,
    PropertyKind,
    RefStrength,
    Schema,
    objectglobe_schema,
)
from repro.rules.decompose import decompose_rule
from repro.rules.normalize import normalize_rule
from repro.rules.parser import parse_rule
from repro.rules.registry import RuleRegistry
from repro.storage.engine import Database
from repro.storage.schema import create_all


@pytest.fixture(autouse=True)
def _fresh_metrics_registry():
    """Give every test a pristine default metrics registry.

    Databases, engines and providers built without an explicit registry
    record into the process-global default; without this reset, counter
    assertions would see deltas from whichever tests ran before.
    """
    reset_default_registry()
    yield


@pytest.fixture()
def schema() -> Schema:
    """The paper's example schema (CycleProvider / ServerInformation)."""
    return objectglobe_schema()


@pytest.fixture()
def rich_schema() -> Schema:
    """A wider schema exercising subclassing and multi-valued props."""
    schema = Schema()
    schema.define_class(
        "ServerInformation",
        [
            PropertyDef("memory", PropertyKind.INTEGER),
            PropertyDef("cpu", PropertyKind.INTEGER),
            PropertyDef("load", PropertyKind.FLOAT),
        ],
    )
    schema.define_class(
        "Provider",
        [
            PropertyDef("serverHost", PropertyKind.STRING),
            PropertyDef(
                "mirrors",
                PropertyKind.REFERENCE,
                target_class="Provider",
                multivalued=True,
            ),
        ],
    )
    schema.define_class(
        "CycleProvider",
        [
            PropertyDef("serverPort", PropertyKind.INTEGER),
            PropertyDef("synthValue", PropertyKind.INTEGER),
            PropertyDef(
                "serverInformation",
                PropertyKind.REFERENCE,
                target_class="ServerInformation",
                strength=RefStrength.STRONG,
            ),
            PropertyDef("tags", PropertyKind.STRING, multivalued=True),
        ],
        superclass="Provider",
    )
    schema.define_class(
        "DataProvider",
        [
            PropertyDef("collection", PropertyKind.STRING),
            PropertyDef(
                "host",
                PropertyKind.REFERENCE,
                target_class="CycleProvider",
            ),
        ],
        superclass="Provider",
    )
    schema.freeze_check()
    return schema


def count_vm_steps(db: Database, fn) -> int:
    """SQLite VM instructions ``fn()`` executes on ``db``, to the hundred.

    A progress handler runs every 100 instructions.  Unlike
    ``storage.rows_read``, which counts the rows a statement returns,
    this sees every b-tree step it takes: an index range walked inside a
    subquery to return one row shows here and nowhere else.
    """
    ticks = 0

    def tick() -> int:
        nonlocal ticks
        ticks += 1
        return 0

    db.connection.set_progress_handler(tick, 100)
    try:
        fn()
    finally:
        db.connection.set_progress_handler(None, 0)
    return ticks * 100


@pytest.fixture()
def db() -> Database:
    database = Database()
    create_all(database)
    yield database
    database.close()


@pytest.fixture()
def registry(db: Database) -> RuleRegistry:
    return RuleRegistry(db)


@pytest.fixture()
def engine(db: Database, registry: RuleRegistry) -> FilterEngine:
    return FilterEngine(db, registry)


def figure1_document() -> Document:
    """The paper's Figure 1 document, built programmatically."""
    doc = Document("doc.rdf")
    host = doc.new_resource("host", "CycleProvider")
    host.add("serverHost", "pirates.uni-passau.de")
    host.add("serverPort", 5874)
    host.add("serverInformation", URIRef("doc.rdf#info"))
    info = doc.new_resource("info", "ServerInformation")
    info.add("memory", 92)
    info.add("cpu", 600)
    return doc


@pytest.fixture()
def figure1() -> Document:
    return figure1_document()


def register_rule(
    engine: FilterEngine,
    registry: RuleRegistry,
    schema: Schema,
    rule_text: str,
    subscriber: str = "lmr",
) -> int:
    """Parse/normalize/decompose/register one rule; returns its end rule id."""
    rule = parse_rule(rule_text)
    normalized = normalize_rule(rule, schema)
    assert len(normalized) == 1, "helper only supports or-free rules"
    decomposed = decompose_rule(normalized[0], schema)
    registration = registry.register_subscription(
        subscriber, rule_text, decomposed
    )
    engine.initialize_rules(registration.created)
    return registration.end_rule


#: The paper's Section 3.3.1 example rule (used by several test modules).
PAPER_RULE = (
    "search CycleProvider c register c "
    "where c.serverHost contains 'uni-passau.de' "
    "and c.serverInformation.memory > 64 "
    "and c.serverInformation.cpu > 500"
)
