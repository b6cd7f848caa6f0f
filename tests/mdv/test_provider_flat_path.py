"""The provider path pays for what an operation touched, not for the
rule base (paper, Fig. 11, on the path users call).

Four deterministic guards, no timings:

- *plan guard*: every statement the provider's database executes during
  a subscribe of each rule type, a publish, an update, a delete, a batch
  and an unsubscribe is
  ``EXPLAIN QUERY PLAN``-ed; none may scan a persistent table.  This is
  the check ``storage.rows_read`` cannot make — an ``IN``-subquery scan
  reads the whole rule base and returns one row.
- *counter flatness*: rows read and statements of an OID subscribe,
  publish, update and delete are equal at 1 000 and 10 000
  subscriptions, and none of them asks the registry for every end rule.
- *subscribe counters*: the statements of a new rule of each benchmark
  type, one transaction each, the same however many named rules exist.
- *VM-step flatness*: the SQLite instructions of a PATH/JOIN publish,
  update and delete stay flat when 10x the join rules read the atoms
  the operation hits — the one count that sees an index range a
  statement walks to return a single row.
"""

from __future__ import annotations

import re
import sqlite3

from repro.filter.joins import _DEPENDENT_GROUPS
from repro.mdv.provider import MetadataProvider
from repro.mdv.repository import LocalMetadataRepository
from repro.rdf.model import Document, URIRef
from repro.rdf.schema import objectglobe_schema
from repro.rules.registry import RuleRegistry

from tests.conftest import count_vm_steps

#: The benchmark's deployment profile (benchmarks/e2e/adapter.py).
PROFILE = {"triggering": "counting", "join_evaluation": "probe"}

#: All a statement may scan besides its own CTEs: the transient tables
#: of one filter run, the ids it was handed as a JSON array — and
#: ``named_rules`` (the foreign-key check of ``DELETE FROM
#: atomic_rules``; a row per named rule, never per subscription or
#: document).  Every other table — ``subscriptions``,
#: ``subscription_rules``, ``atomic_rules``, ``rule_dependencies``,
#: ``filter_data``, ``materialized``, ``resources``, ``documents`` … —
#: has to be probed through an index.
SCANNABLE = {"result_objects", "filter_input", "json_each", "named_rules"}

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


def path_rule(index: int) -> str:
    """Every PATH rule reads the one CycleProvider class atom."""
    return HEAD + f"c.serverInformation.memory = {60 + index}"


def join_rule(index: int) -> str:
    """Every JOIN rule reads the one ``contains`` and ``cpu`` atoms."""
    return (
        HEAD + "c.serverHost contains 'uni-passau.de' "
        f"and c.serverInformation.cpu = 600 "
        f"and c.serverInformation.memory = {60 + index}"
    )


def five_type_rules(count: int) -> list[str]:
    """``count`` rules of each Figure-10 type."""
    rules = []
    for k in range(count):
        rules += [
            oid_rule(k),
            HEAD + f"c.synthValue > {k}",
            path_rule(k),
            join_rule(k),
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
#: A name a ``WITH`` clause defines: ``WITH [RECURSIVE] name[(cols)] AS
#: [[NOT] MATERIALIZED] (`` or ``, name[(cols)] AS (``.
_CTE = re.compile(
    r"(?:\bWITH\s+(?:RECURSIVE\s+)?|,\s*)(\w+)\s*(?:\([^)]*\))?\s+AS\s+"
    r"(?:(?:NOT\s+)?MATERIALIZED\s+)?\(",
    re.I,
)


def scanned_tables(db, sql: str, parameters) -> set[str]:
    """The tables (aliases resolved) the plan of ``sql`` scans.

    A scan of a common table expression reads only what the CTE
    produced, so it is skipped; a table scanned inside a CTE is not.
    """
    names = {}
    for table, alias in _SOURCE.findall(sql):
        names[table] = table
        if alias and alias.lower() not in _KEYWORDS:
            names[alias] = table
    ctes = (
        set(_CTE.findall(sql))
        if sql.lstrip()[:4].upper() == "WITH"
        else set()
    )
    plan = db.connection.execute(
        "EXPLAIN QUERY PLAN " + sql, parameters
    ).fetchall()
    scanned = set()
    for row in plan:
        detail = row["detail"]
        # ``SCAN CONSTANT ROW`` is a SELECT without FROM, no table.
        if detail.startswith("SCAN ") and detail != "SCAN CONSTANT ROW":
            name = detail.split()[1]
            name = names.get(name, name)
            if name not in ctes:
                scanned.add(name)
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
    # Subscribe a new rule of each type, and a PATH rule whose new join
    # initialises from inputs that match stored documents.
    fed = HEAD + "c.serverInformation.cpu = 600"
    for rule in [*five_type_rules(10)[-5:], fed]:
        lmrs[0].subscribe(rule)
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
    assert join_initializations(log)  # ... a join initialised from data
    # ... the group discovery of the join iterations among them: the
    # one CycleProvider class atom feeds all eight PATH members, and one
    # seek per (source rule, group) finds their group.
    assert _DEPENDENT_GROUPS in log.seen
    offenders = {}
    for sql, parameters in log.seen.items():
        scanned = scanned_tables(mdp.db, sql, parameters) - SCANNABLE
        if scanned:
            offenders[sql] = scanned
    assert not offenders, offenders
    assert "idx_rd_source_group" in mdp.db.explain(
        _DEPENDENT_GROUPS, log.seen[_DEPENDENT_GROUPS]
    )


def test_the_guard_sees_a_scan_behind_an_alias(db):
    scanned = scanned_tables(
        db,
        "SELECT ro.rule_id FROM result_objects ro WHERE ro.rule_id IN "
        "(SELECT DISTINCT s.end_rule FROM subscriptions AS s)",
        (),
    )
    assert "subscriptions" in scanned


def test_the_guard_skips_a_cte_but_not_a_table_scanned_inside_one(db):
    walk = (
        "WITH RECURSIVE walk(sub_id) AS ("
        "SELECT MIN(sub_id) FROM subscriptions UNION ALL "
        "SELECT (SELECT MIN(sub_id) FROM subscriptions"
        " WHERE sub_id > walk.sub_id) "
        "FROM walk WHERE walk.sub_id IS NOT NULL) "
        "SELECT w.sub_id FROM walk w"
    )
    assert scanned_tables(db, walk, ()) == set()
    ids = (
        "WITH ids(rule_id) AS MATERIALIZED "
        "(SELECT end_rule FROM subscriptions) SELECT i.rule_id FROM ids i"
    )
    assert scanned_tables(db, ids, ()) == {"subscriptions"}


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


def join_initializations(log: StatementLog) -> list[str]:
    return [
        sql
        for sql in log.seen
        if sql.startswith("INSERT OR IGNORE INTO materialized")
        and "FROM materialized" in sql
    ]


def test_a_new_join_rule_starts_at_its_smaller_input(monkeypatch):
    """The PATH join of ``memory = 62`` starts at the three matching
    infos, not at the twelve hosts of the class atom; with an empty
    input no join statement runs at all."""
    mdp = MetadataProvider(objectglobe_schema(), **PROFILE)
    lmr = LocalMetadataRepository("lmr", mdp)
    mdp.register_documents([make_doc(i, memory=60 + i % 4) for i in range(12)])

    log = StatementLog(mdp.db, monkeypatch)
    lmr.subscribe(path_rule(2))
    (initialization,) = join_initializations(log)
    assert "FROM materialized r CROSS JOIN filter_data fdl" in initialization
    hosts = [i for i in range(12) if f"doc{i}.rdf#host" in lmr.cache]
    assert hosts == [2, 6, 10]

    log = StatementLog(mdp.db, monkeypatch)
    lmr.subscribe(path_rule(9))
    assert join_initializations(log) == []
    assert mdp.db.count("materialized") == 12 + 3 + 3


def _path_join_operation_steps(members: int) -> dict[str, int]:
    """VM steps of a publish, an update and a delete behind ``members``
    PATH and ``members`` JOIN rules.  Every PATH rule reads the one
    CycleProvider class atom and every JOIN rule the one ``contains``
    and ``cpu`` atoms, and each operation hits all three."""
    mdp = MetadataProvider(objectglobe_schema(), **PROFILE)
    lmr = LocalMetadataRepository("lmr", mdp)
    for index in range(members):
        lmr.subscribe(path_rule(index))
        lmr.subscribe(join_rule(index))
    mdp.register_documents([make_doc(i, memory=60 + i) for i in range(20)])
    steps = {}
    for name, operation in (
        ("publish", lambda: mdp.register_document(make_doc(500, memory=63))),
        ("update", lambda: mdp.register_document(make_doc(500, memory=64))),
        ("delete", lambda: mdp.delete_document("doc500.rdf")),
    ):
        received = lmr.notifications_received
        steps[name] = count_vm_steps(mdp.db, operation)
        assert lmr.notifications_received > received, name
    mdp.close()
    return steps


def test_join_iterations_are_flat_in_the_members_of_a_shared_atom():
    """A group's discovery and evaluation cost one seek per (source rule,
    group), not one step per member rule reading the source: 10x the
    members reading the shared atoms, the same work per operation
    (``storage.rows_read`` cannot see this — the walk returns one row)."""
    small, large = (
        _path_join_operation_steps(20), _path_join_operation_steps(200)
    )
    for name in small:
        assert large[name] <= 1.3 * small[name], (name, small, large)


def test_a_delta_on_one_side_runs_only_that_sides_statements(monkeypatch):
    mdp = MetadataProvider(objectglobe_schema(), **PROFILE)
    lmr = LocalMetadataRepository("lmr", mdp)
    for index in range(4):
        lmr.subscribe(path_rule(index))
    mdp.register_document(make_doc(0, memory=62))

    # A host whose information resource is already stored: the delta
    # reaches the PATH group's left input (the class atom) only, and
    # the match comes from the right input's materialized rows.
    doc = Document("late.rdf")
    host = doc.new_resource("host", "CycleProvider")
    host.add("serverInformation", URIRef("doc0.rdf#info"))
    log = StatementLog(mdp.db, monkeypatch)
    mdp.register_document(doc)

    joins = [
        sql for sql in log.seen
        if sql.startswith("INSERT OR IGNORE INTO result_objects")
    ]
    assert len(joins) == 2, joins
    assert all("ar.left_rule = d.rule_id" in sql for sql in joins)
    assert lmr.cache.get("late.rdf#host") is not None


def _count(mdp, operation) -> tuple[int, int, int]:
    """``(statements, transactions, rows read)`` of ``operation``."""
    counters = [
        mdp.metrics.counter(name)
        for name in (
            "storage.statements", "storage.transactions", "storage.rows_read"
        )
    ]
    before = [counter.value for counter in counters]
    operation()
    return tuple(
        int(counter.value - start) for counter, start in zip(counters, before)
    )


#: Statements of a new rule of each type (``five_type_rules`` order) on
#: an empty store that already holds one rule of every type, so shared
#: atoms (the CycleProvider class atom, the ``cpu`` atom, the
#: ``contains`` atom, the rule groups) exist: a rule-base build in its
#: steady state.  They were 11, 11, 19, 24 and 11 when every subscribe
#: also read the named rules, checked for a duplicate with a query,
#: counted each reference with an update, read its new empty end rule
#: and re-read each new join's inputs and group; 6 for OID, COMP and CON
#: when a single atom was looked up before it was inserted.
SUBSCRIBE_STATEMENTS = {"OID": 5, "COMP": 5, "PATH": 10, "JOIN": 11, "CON": 5}


def test_a_new_rule_of_each_type_costs_few_statements_in_one_transaction():
    mdp = MetadataProvider(objectglobe_schema(), **PROFILE)
    lmr = LocalMetadataRepository("lmr", mdp)
    first, second = five_type_rules(2)[:5], five_type_rules(2)[5:]
    for rule in first:
        lmr.subscribe(rule)
    costs = {}
    for kind, rule in zip(SUBSCRIBE_STATEMENTS, second):
        statements, transactions, __ = _count(
            mdp, lambda rule=rule: lmr.subscribe(rule)
        )
        costs[kind] = statements
        assert transactions == 1, kind
    assert costs == SUBSCRIBE_STATEMENTS
    mdp.close()


def _subscribe_cost_behind_named_rules(count: int) -> tuple[int, int, int]:
    mdp = MetadataProvider(objectglobe_schema(), **PROFILE)
    lmr = LocalMetadataRepository("lmr", mdp)
    for index in range(count):
        mdp.register_named_rule(f"Hosts{index}", path_rule(index))
    mdp.register_documents([make_doc(i) for i in range(3)])
    lmr.subscribe(oid_rule(0))  # the first subscribe reads the named rules
    cost = _count(mdp, lambda: lmr.subscribe(oid_rule(1)))
    mdp.close()
    return cost


def test_a_subscribe_does_not_read_the_named_rules_again():
    assert _subscribe_cost_behind_named_rules(0) == (
        _subscribe_cost_behind_named_rules(50)
    )


def test_the_guard_reads_a_select_without_from_as_no_scan(db):
    counts = (
        "SELECT (SELECT COUNT(*) FROM materialized WHERE rule_id = ?), "
        "(SELECT COUNT(*) FROM materialized WHERE rule_id = ?)"
    )
    assert scanned_tables(db, counts, (1, 2)) == set()
