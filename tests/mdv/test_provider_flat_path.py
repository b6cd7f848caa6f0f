"""The provider path pays for what an operation touched, not for the
rule base (paper, Fig. 11, on the path users call).

Two deterministic guards, no timings:

- *plan guard*: every statement the provider's database executes during
  a publish, an update, a delete, a batch and an unsubscribe is
  ``EXPLAIN QUERY PLAN``-ed; none may scan a persistent table.  This is
  the check ``storage.rows_read`` cannot make — an ``IN``-subquery scan
  reads the whole rule base and returns one row.
- *counter flatness*: rows read and statements of an OID subscribe,
  publish, update and delete are equal at 1 000 and 10 000
  subscriptions, and none of them asks the registry for every end rule.
"""

from __future__ import annotations

import re
import sqlite3

from repro.mdv.provider import MetadataProvider
from repro.mdv.repository import LocalMetadataRepository
from repro.rdf.model import Document, URIRef
from repro.rdf.schema import objectglobe_schema
from repro.rules.registry import RuleRegistry

#: The benchmark's deployment profile (benchmarks/e2e/adapter.py).
PROFILE = {"triggering": "counting", "join_evaluation": "probe"}

#: All a statement may scan: the transient tables of one filter run, the
#: ids it was handed as a JSON array, its own CTE — and ``named_rules``
#: (the foreign-key check of ``DELETE FROM atomic_rules``; a row per
#: named rule, never per subscription or document).  Every other table —
#: ``subscriptions``, ``subscription_rules``, ``atomic_rules``,
#: ``rule_dependencies``, ``filter_data``, ``materialized``,
#: ``resources``, ``documents`` … — has to be probed through an index.
SCANNABLE = {
    "result_objects", "filter_input", "json_each", "names", "named_rules",
}

HEAD = "search CycleProvider c register c where "


def make_doc(index: int, memory: int = 64, synth: int = 5) -> Document:
    doc = Document(f"doc{index}.rdf")
    host = doc.new_resource("host", "CycleProvider")
    host.add("serverHost", f"host{index}.uni-passau.de")
    host.add("synthValue", synth)
    host.add("serverInformation", URIRef(f"doc{index}.rdf#info"))
    info = doc.new_resource("info", "ServerInformation")
    info.add("memory", memory)
    info.add("cpu", 600)
    return doc


def oid_rule(index: int) -> str:
    return HEAD + f"c = 'doc{index}.rdf#host'"


def five_type_rules(count: int) -> list[str]:
    """``count`` rules of each Figure-10 type."""
    rules = []
    for k in range(count):
        rules += [
            oid_rule(k),
            HEAD + f"c.synthValue > {k}",
            HEAD + f"c.serverInformation.memory = {60 + k}",
            HEAD + "c.serverHost contains 'uni-passau.de' "
            f"and c.serverInformation.cpu = 600 "
            f"and c.serverInformation.memory = {60 + k}",
            HEAD + f"c.serverHost contains 'host{k}.'",
        ]
    return rules


class StatementLog:
    """Every ``(sql, parameters)`` a database executes while installed."""

    def __init__(self, db, monkeypatch):
        self.seen: dict[str, object] = {}
        execute, executemany = db.execute, db.executemany

        def logged_execute(sql, parameters=()):
            self.seen.setdefault(sql, parameters)
            return execute(sql, parameters)

        def logged_executemany(sql, parameter_rows):
            rows = list(parameter_rows)
            if rows:
                self.seen.setdefault(sql, rows[0])
            return executemany(sql, rows)

        monkeypatch.setattr(db, "execute", logged_execute)
        monkeypatch.setattr(db, "executemany", logged_executemany)


_SOURCE = re.compile(
    r"\b(?:FROM|JOIN|INTO|UPDATE)\s+(\w+)(?:\([^)]*\))?"
    r"(?:\s+(?:AS\s+)?(\w+))?",
    re.I,
)
_KEYWORDS = {
    "where", "on", "join", "cross", "left", "inner", "order", "group",
    "set", "select", "values", "union", "using", "limit",
}


def scanned_tables(db, sql: str, parameters) -> set[str]:
    """The tables (aliases resolved) the plan of ``sql`` scans."""
    names = {}
    for table, alias in _SOURCE.findall(sql):
        names[table] = table
        if alias and alias.lower() not in _KEYWORDS:
            names[alias] = table
    plan = db.connection.execute(
        "EXPLAIN QUERY PLAN " + sql, parameters
    ).fetchall()
    scanned = set()
    for row in plan:
        detail = row["detail"]
        if detail.startswith("SCAN "):
            name = detail.split()[1]
            scanned.add(names.get(name, name))
    return scanned


def test_no_operation_scans_a_persistent_table(monkeypatch):
    mdp = MetadataProvider(objectglobe_schema(), **PROFILE)
    lmrs = [LocalMetadataRepository(f"lmr{i}", mdp) for i in range(2)]
    rules = five_type_rules(8)
    for index, rule in enumerate(rules):
        lmrs[index % 2].subscribe(rule)
    lmrs[0].subscribe(
        HEAD + "c.synthValue > 100 or c.serverInformation.memory = 1"
    )
    mdp.register_documents([make_doc(i, memory=60 + i % 8) for i in range(20)])

    log = StatementLog(mdp.db, monkeypatch)
    mdp.register_document(make_doc(100, memory=63))           # publish
    mdp.register_document(make_doc(3, memory=61, synth=2))    # update
    mdp.delete_document("doc5.rdf")                           # delete
    mdp.register_documents(
        [make_doc(i, memory=60 + i % 8) for i in range(200, 210)]
    )
    lmrs[1].unsubscribe(rules[3])                             # a JOIN rule
    lmrs[0].unsubscribe(
        HEAD + "c.synthValue > 100 or c.serverInformation.memory = 1"
    )
    # The matcher resyncs the unsubscribed rules on the next publish.
    mdp.register_document(make_doc(101, memory=63))

    assert len(log.seen) > 40  # the log really saw the operations
    # ... the group discovery of the join iterations among them: the
    # one CycleProvider class atom feeds all eight PATH members.
    assert any(
        "FROM rule_dependencies rd WHERE rd.source_rule IN" in sql
        for sql in log.seen
    )
    offenders = {}
    for sql, parameters in log.seen.items():
        scanned = scanned_tables(mdp.db, sql, parameters) - SCANNABLE
        if scanned:
            offenders[sql] = scanned
    assert not offenders, offenders


def test_the_guard_sees_a_scan_behind_an_alias(db):
    scanned = scanned_tables(
        db,
        "SELECT ro.rule_id FROM result_objects ro WHERE ro.rule_id IN "
        "(SELECT DISTINCT s.end_rule FROM subscriptions AS s)",
        (),
    )
    assert "subscriptions" in scanned


def test_a_deletion_needs_no_sql_variable_per_rule():
    """Regression: ``subscriptions_for`` bound one ``?`` per end rule, so
    the deletion broadcast failed with "too many SQL variables" once the
    rule base outgrew SQLITE_LIMIT_VARIABLE_NUMBER (999 before 3.32)."""
    mdp = MetadataProvider(objectglobe_schema(), **PROFILE)
    mdp.db.connection.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 50)
    lmr = LocalMetadataRepository("lmr", mdp)
    for index in range(200):
        lmr.subscribe(HEAD + f"c.synthValue > {index}")
    mdp.register_document(make_doc(0, synth=150))
    assert len(lmr.cache.get("doc0.rdf#host").matched_subs) == 150
    mdp.register_document(make_doc(0, synth=120))
    assert len(lmr.cache.get("doc0.rdf#host").matched_subs) == 120
    mdp.delete_document("doc0.rdf")
    assert len(lmr.cache) == 0


def _operation_costs(subscriptions: int) -> dict[str, tuple]:
    """``(rows read, statements)`` of an OID subscribe, publish, update
    and delete behind ``subscriptions`` OID rules."""
    mdp = MetadataProvider(objectglobe_schema(), **PROFILE)
    lmr = LocalMetadataRepository("lmr", mdp)
    for index in range(subscriptions):
        lmr.subscribe(oid_rule(index))
    mdp.register_documents([make_doc(i) for i in (*range(10), 20_000)])
    rows_read = mdp.metrics.counter("storage.rows_read")
    statements = mdp.metrics.counter("storage.statements")
    costs = {}
    for name, operation in (
        ("subscribe", lambda: lmr.subscribe(oid_rule(20_000))),
        ("publish", lambda: mdp.register_document(make_doc(500))),
        ("update", lambda: mdp.register_document(make_doc(500, memory=1))),
        ("delete", lambda: mdp.delete_document("doc500.rdf")),
    ):
        before = (rows_read.value, statements.value)
        received = lmr.notifications_received
        operation()
        assert lmr.notifications_received > received, name
        costs[name] = (
            rows_read.value - before[0], statements.value - before[1]
        )
    mdp.close()
    return costs


def test_oid_operation_counters_are_flat_in_the_rule_base(monkeypatch):
    def forbidden(self):
        raise AssertionError("end_rule_ids() called on the provider path")

    monkeypatch.setattr(RuleRegistry, "end_rule_ids", forbidden)
    small, large = _operation_costs(1_000), _operation_costs(10_000)
    assert small == large
    assert all(rows > 0 and count > 0 for rows, count in small.values())


def test_a_new_rule_is_initialized_from_its_own_index_table(monkeypatch):
    """A triggering rule has rows in one ``filter_rules_*`` table; only
    that table's join runs against the stored metadata."""
    mdp = MetadataProvider(objectglobe_schema(), **PROFILE)
    lmr = LocalMetadataRepository("lmr", mdp)
    mdp.register_documents([make_doc(i) for i in range(5)])

    log = StatementLog(mdp.db, monkeypatch)
    lmr.subscribe(oid_rule(3))
    initializations = [
        sql
        for sql in log.seen
        if sql.startswith("INSERT OR IGNORE INTO materialized")
        and "FROM filter_rules_" in sql
    ]
    assert len(initializations) == 1
    assert "FROM filter_rules_eq fr" in initializations[0]
    assert lmr.cache.get("doc3.rdf#host") is not None
