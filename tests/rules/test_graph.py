"""Unit tests for the dependency-graph view."""

from repro.rules.decompose import decompose_rule
from repro.rules.graph import DependencyGraph
from repro.rules.normalize import normalize_rule
from repro.rules.parser import parse_rule

from tests.conftest import PAPER_RULE


def register(registry, schema, text, subscriber="lmr"):
    normalized = normalize_rule(parse_rule(text), schema)[0]
    return registry.register_subscription(
        subscriber, text, decompose_rule(normalized, schema)
    )


def test_empty_graph(db):
    graph = DependencyGraph.load(db)
    assert graph.stats() == {
        "atoms": 0,
        "triggering": 0,
        "joins": 0,
        "groups": 0,
        "edges": 0,
        "max_depth": 0,
    }
    assert graph.is_acyclic()


def test_paper_example_structure(db, registry, schema):
    registration = register(registry, schema, PAPER_RULE)
    graph = DependencyGraph.load(db)
    stats = graph.stats()
    assert stats["atoms"] == 5
    assert stats["triggering"] == 3
    assert stats["joins"] == 2
    assert stats["edges"] == 4
    assert stats["max_depth"] == 2
    assert graph.roots() == [registration.end_rule]
    assert len(graph.leaves()) == 3


def test_merged_graph_shares_nodes(db, registry, schema):
    register(
        registry,
        schema,
        "search CycleProvider c register c "
        "where c.serverInformation.memory > 64",
        "lmr1",
    )
    register(
        registry,
        schema,
        "search CycleProvider c register c "
        "where c.serverInformation.cpu > 500",
        "lmr2",
    )
    graph = DependencyGraph.load(db)
    stats = graph.stats()
    # Shared class-only atom: 3 + 2 atoms rather than 3 + 3.
    assert stats["atoms"] == 5
    assert stats["groups"] == 1
    assert len(graph.roots()) == 2


def test_successors_predecessors(db, registry, schema):
    registration = register(registry, schema, PAPER_RULE)
    graph = DependencyGraph.load(db)
    end = registration.end_rule
    assert graph.successors(end) == []
    inputs = graph.predecessors(end)
    assert len(inputs) == 2


def test_refcounts_visible(db, registry, schema):
    register(registry, schema, PAPER_RULE, "lmr1")
    register(registry, schema, PAPER_RULE, "lmr2")
    graph = DependencyGraph.load(db)
    assert all(node.refcount == 2 for node in graph.nodes.values())
