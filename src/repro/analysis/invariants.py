"""Auditor for the persisted filter state (the paper's storage contracts).

The authoritative rule catalogue lives in relational tables
(``atomic_rules``, ``rule_dependencies``, ``rule_groups``, the
triggering-index ``filter_rules_*`` tables, ``subscriptions`` …).  The
filter algorithm's correctness and termination rest on invariants the
code maintains but never re-checks:

- the dependency graph is a DAG (the filter's iteration bound, §3.4);
- every atom's ``refcount`` equals the number of subscriptions (and
  named rules) referencing it — the garbage collector trusts this;
- every triggering atom has its index rows and no index row is orphaned
  ("the filter tables act as indexes to all triggering rules");
- join atoms, their dependency edges and their rule group agree with
  each other (§3.3.2–3.3.3);
- the iteration-depth bound derived from dependency edges matches the
  one derived from the join input columns;
- the document store of record agrees with itself: every ``resources``
  row has its ``rdf#subject`` atom in ``filter_data`` and every stored
  subject its ``resources`` row, because a document is rebuilt from
  exactly those rows (docs/DURABILITY.md);
- the stored taxonomy closure equals the transitive closure of the
  taxonomy edges, and the edges are acyclic (docs/SEMANTICS.md): the
  semantic expansion of every rule reads the closure, never the edges.

``audit_database`` re-checks all of them and reports violations as
``MDV03x`` (filter state), ``MDV04x`` (document store) and ``MDV071``
(taxonomy) diagnostics; it never mutates the database.
"""

from __future__ import annotations

import re
import sqlite3

from repro.rdf.namespaces import RDF_SUBJECT
from repro.rules.graph import DependencyGraph
from repro.storage.engine import Database
from repro.storage.schema import TRIGGER_TABLES

from repro.analysis.diagnostics import AnalysisReport, Severity

__all__ = ["audit_database"]

#: Suffix appended to rule texts when deduplication is disabled (an
#: ablation knob of the registry); stripped before signature checks.
_SALT = re.compile(r"~!\d+$")


def audit_database(db: Database) -> AnalysisReport:
    """Audit one MDP store; returns the violations found."""
    report = AnalysisReport()
    graph = DependencyGraph.load(db)
    acyclic = _check_acyclicity(db, graph, report)
    _check_refcounts(db, report)
    _check_trigger_indexes(db, report)
    _check_groups(db, report)
    _check_join_dependencies(db, report)
    _check_dangling(db, report)
    if acyclic:
        _check_depth_bound(db, graph, report)
    _check_document_store(db, report)
    _check_closure(db, report)
    return report


# ----------------------------------------------------------------------
# Individual checks
# ----------------------------------------------------------------------
def _check_acyclicity(
    db: Database, graph: DependencyGraph, report: AnalysisReport
) -> bool:
    if graph.is_acyclic():
        return True
    cycle_members = _cycle_members(graph)
    report.add(
        Severity.ERROR,
        "MDV030",
        f"dependency graph contains a cycle through rule(s) "
        f"{sorted(cycle_members)}",
        hint="the filter's iteration bound is void; the affected rules "
        "can never finish evaluating",
        source="rule_dependencies",
    )
    return False


def _cycle_members(graph: DependencyGraph) -> set[int]:
    """Nodes left after repeatedly peeling zero-in-degree nodes."""
    in_degree = {rule_id: 0 for rule_id in graph.nodes}
    successors: dict[int, list[int]] = {rule_id: [] for rule_id in graph.nodes}
    for source, target, __ in graph.edges:
        if source in successors and target in in_degree:
            in_degree[target] += 1
            successors[source].append(target)
    frontier = [rule_id for rule_id, deg in in_degree.items() if deg == 0]
    remaining = set(graph.nodes)
    while frontier:
        current = frontier.pop()
        remaining.discard(current)
        for target in successors[current]:
            in_degree[target] -= 1
            if in_degree[target] == 0:
                frontier.append(target)
    return remaining


def _check_refcounts(db: Database, report: AnalysisReport) -> None:
    rows = db.query_all(
        "SELECT ar.rule_id, ar.refcount, "
        "(SELECT COUNT(*) FROM subscription_rules sr "
        " WHERE sr.rule_id = ar.rule_id) AS actual "
        "FROM atomic_rules ar WHERE ar.refcount != "
        "(SELECT COUNT(*) FROM subscription_rules sr "
        " WHERE sr.rule_id = ar.rule_id)"
    )
    for row in rows:
        report.add(
            Severity.ERROR,
            "MDV031",
            f"atom {int(row['rule_id'])} has refcount "
            f"{int(row['refcount'])} but {int(row['actual'])} subscription "
            f"reference(s)",
            hint="unsubscription cleanup will leak or over-collect this atom",
            source="atomic_rules",
        )


def _check_trigger_indexes(db: Database, report: AnalysisReport) -> None:
    for table in TRIGGER_TABLES:
        rows = db.query_all(
            f"SELECT rule_id FROM {table} WHERE rule_id NOT IN "
            f"(SELECT rule_id FROM atomic_rules)"
        )
        for row in rows:
            report.add(
                Severity.ERROR,
                "MDV032",
                f"{table} row references missing atomic rule "
                f"{int(row['rule_id'])}",
                hint="documents will keep triggering a rule that no longer "
                "exists",
                source=table,
            )
    union = " UNION ".join(f"SELECT rule_id FROM {t}" for t in TRIGGER_TABLES)
    rows = db.query_all(
        f"SELECT rule_id FROM atomic_rules WHERE kind = 'triggering' "
        f"AND rule_id NOT IN ({union})"
    )
    for row in rows:
        report.add(
            Severity.ERROR,
            "MDV033",
            f"triggering atom {int(row['rule_id'])} has no rows in any "
            f"triggering-index table",
            hint="the atom can never fire; its dependents are dead",
            source="atomic_rules",
        )
    rows = db.query_all(
        "SELECT DISTINCT rule_id FROM materialized WHERE rule_id NOT IN "
        "(SELECT rule_id FROM atomic_rules)"
    )
    for row in rows:
        report.add(
            Severity.WARNING,
            "MDV038",
            f"materialized results reference missing atomic rule "
            f"{int(row['rule_id'])}",
            source="materialized",
        )


def _expected_signature(row: sqlite3.Row) -> str:
    """Recompute a group signature from the group's stored attributes."""
    left = f"{row['left_class']}.{row['left_property'] or '*'}"
    right = f"{row['right_class']}.{row['right_property'] or '*'}"
    flags = ("n" if row["numeric_compare"] else "") + (
        "s" if row["self_join"] else ""
    )
    return (
        f"G[{left} {row['operator']} {right}"
        f"|reg={row['register_side']}|{flags}]"
    )


def _check_groups(db: Database, report: AnalysisReport) -> None:
    groups: dict[int, str] = {}
    for row in db.query_all("SELECT * FROM rule_groups"):
        group_id = int(row["group_id"])
        signature = str(row["signature"])
        groups[group_id] = signature
        expected = _expected_signature(row)
        if signature != expected:
            report.add(
                Severity.ERROR,
                "MDV034",
                f"group {group_id} stores signature {signature!r} but its "
                f"attributes say {expected!r}",
                source="rule_groups",
            )
    rows = db.query_all(
        "SELECT rule_id, rule_text, group_id FROM atomic_rules "
        "WHERE kind = 'join'"
    )
    for row in rows:
        rule_id = int(row["rule_id"])
        if row["group_id"] is None:
            report.add(
                Severity.ERROR,
                "MDV034",
                f"join atom {rule_id} belongs to no rule group",
                source="atomic_rules",
            )
            continue
        group_id = int(row["group_id"])
        signature = groups.get(group_id)
        if signature is None:
            report.add(
                Severity.ERROR,
                "MDV036",
                f"join atom {rule_id} references missing group {group_id}",
                source="atomic_rules",
            )
            continue
        rule_text = _SALT.sub("", str(row["rule_text"]))
        if not rule_text.endswith(f"|{signature}]"):
            report.add(
                Severity.ERROR,
                "MDV034",
                f"join atom {rule_id} carries a rule text inconsistent with "
                f"its group signature {signature!r}",
                hint="the group-wise evaluation would apply the wrong "
                "predicate to this rule",
                source="atomic_rules",
            )


def _check_join_dependencies(db: Database, report: AnalysisReport) -> None:
    edges: dict[tuple[int, str], list[int]] = {}
    for row in db.query_all(
        "SELECT source_rule, target_rule, side FROM rule_dependencies"
    ):
        key = (int(row["target_rule"]), str(row["side"]))
        edges.setdefault(key, []).append(int(row["source_rule"]))
    join_rows = db.query_all(
        "SELECT rule_id, left_rule, right_rule FROM atomic_rules "
        "WHERE kind = 'join'"
    )
    join_ids = set()
    for row in join_rows:
        rule_id = int(row["rule_id"])
        join_ids.add(rule_id)
        for side, column in (("left", "left_rule"), ("right", "right_rule")):
            if row[column] is None:
                report.add(
                    Severity.ERROR,
                    "MDV035",
                    f"join atom {rule_id} has no {side} input rule",
                    source="atomic_rules",
                )
                continue
            expected = [int(row[column])]
            actual = sorted(edges.get((rule_id, side), []))
            if actual != expected:
                report.add(
                    Severity.ERROR,
                    "MDV035",
                    f"join atom {rule_id} expects {side} dependency edge "
                    f"from {expected[0]} but the graph records {actual}",
                    hint="incremental evaluation would feed the join from "
                    "the wrong inputs",
                    source="rule_dependencies",
                )
    for (target, side), sources in edges.items():
        if target not in join_ids:
            report.add(
                Severity.ERROR,
                "MDV035",
                f"dependency edge(s) {sources} -> {target} ({side}) target "
                f"a rule that is not a join atom",
                source="rule_dependencies",
            )


def _check_dangling(db: Database, report: AnalysisReport) -> None:
    checks = (
        (
            "rule_dependencies",
            "SELECT DISTINCT source_rule AS rule_id FROM rule_dependencies "
            "WHERE source_rule NOT IN (SELECT rule_id FROM atomic_rules)",
        ),
        (
            "rule_dependencies",
            "SELECT DISTINCT target_rule AS rule_id FROM rule_dependencies "
            "WHERE target_rule NOT IN (SELECT rule_id FROM atomic_rules)",
        ),
        (
            "subscriptions",
            "SELECT DISTINCT end_rule AS rule_id FROM subscriptions "
            "WHERE end_rule NOT IN (SELECT rule_id FROM atomic_rules)",
        ),
        (
            "subscription_rules",
            "SELECT DISTINCT rule_id FROM subscription_rules "
            "WHERE rule_id NOT IN (SELECT rule_id FROM atomic_rules)",
        ),
        (
            "named_rules",
            "SELECT DISTINCT end_rule AS rule_id FROM named_rules "
            "WHERE end_rule NOT IN (SELECT rule_id FROM atomic_rules)",
        ),
    )
    for table, sql in checks:
        for row in db.query_all(sql):
            report.add(
                Severity.ERROR,
                "MDV036",
                f"{table} references missing atomic rule {int(row['rule_id'])}",
                source=table,
            )


def _check_depth_bound(
    db: Database, graph: DependencyGraph, report: AnalysisReport
) -> None:
    """Compare the two derivations of the filter iteration bound."""
    from_edges = graph.longest_path_length()
    depth: dict[int, int] = {}
    inputs: dict[int, tuple[int | None, int | None]] = {}
    for row in db.query_all(
        "SELECT rule_id, left_rule, right_rule FROM atomic_rules"
    ):
        inputs[int(row["rule_id"])] = (
            None if row["left_rule"] is None else int(row["left_rule"]),
            None if row["right_rule"] is None else int(row["right_rule"]),
        )

    def column_depth(rule_id: int, trail: frozenset[int]) -> int:
        if rule_id in depth:
            return depth[rule_id]
        if rule_id in trail:  # corrupt cycle through input columns
            return 0
        left, right = inputs.get(rule_id, (None, None))
        children = [c for c in (left, right) if c is not None and c in inputs]
        value = (
            0
            if not children
            else 1 + max(column_depth(c, trail | {rule_id}) for c in children)
        )
        depth[rule_id] = value
        return value

    from_columns = (
        max((column_depth(rule_id, frozenset()) for rule_id in inputs), default=0)
    )
    if from_edges != from_columns:
        report.add(
            Severity.ERROR,
            "MDV037",
            f"iteration-depth bound is {from_edges} by dependency edges but "
            f"{from_columns} by join input columns",
            hint="rule_dependencies and atomic_rules disagree about the "
            "graph shape",
            source="rule_dependencies",
        )


def _check_document_store(db: Database, report: AnalysisReport) -> None:
    """``resources`` and the ``rdf#subject`` atoms name the same
    resources: the loader starts a resource at its subject row and
    finds a document's resources through ``resources``."""
    rows = db.query_all(
        "SELECT uri_reference, document_uri FROM resources r "
        "WHERE NOT EXISTS (SELECT 1 FROM filter_data f "
        "WHERE f.uri_reference = r.uri_reference AND f.property = ?) "
        "ORDER BY uri_reference",
        (RDF_SUBJECT,),
    )
    for row in rows:
        report.add(
            Severity.ERROR,
            "MDV040",
            f"resource <{row['uri_reference']}> of document "
            f"{row['document_uri']!r} has no {RDF_SUBJECT} atom",
            hint="its document comes back without it",
            source="resources",
        )
    rows = db.query_all(
        "SELECT DISTINCT uri_reference FROM filter_data f "
        "WHERE property = ? AND NOT EXISTS (SELECT 1 FROM resources r "
        "WHERE r.uri_reference = f.uri_reference) ORDER BY uri_reference",
        (RDF_SUBJECT,),
    )
    for row in rows:
        report.add(
            Severity.ERROR,
            "MDV040",
            f"stored resource <{row['uri_reference']}> belongs to no "
            f"document (no resources row)",
            hint="no document lists it, yet rules still match it",
            source="filter_data",
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
