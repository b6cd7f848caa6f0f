"""Crash recovery for an MDP's store (docs/DURABILITY.md).

A provider that restarts on an existing database cannot assume the
previous process died politely.  Committed state is trustworthy — that
is SQLite's contract — but *multi-transaction* operations of older
(non-durable) providers, raw-commit call sites, or operator surgery can
leave **torn derived state**: ``filter_data`` rows that disagree with
their document's XML, refcounts that disagree with
``subscription_rules``, atom trees no subscription references, scratch
rows of an interrupted filter run.

:class:`RecoveryManager` runs at startup, before the node reattaches to
its bus:

1. roll back any open transaction and clear the per-run scratch tables
   (``filter_input``, ``result_objects``);
2. audit the invariants (:func:`repro.analysis.invariants.audit_database`
   — the MDV03x pack);
3. repair from source-of-truth tables: refcounts are recomputed from
   ``subscription_rules``, orphaned index/materialized/canon rows are
   dropped, unreachable atom trees are garbage-collected, and
   ``filter_data`` / ``resources`` rows are rebuilt from the registered
   documents' XML;
4. audit again — a clean second audit is the contract the
   crash-recovery oracle (:mod:`repro.workload.crashes`) enforces.

Repairs restore the *structural* invariants the auditor checks.  They
deliberately do not re-run the filter: materialized match sets are part
of committed filter output, and with the durable single-transaction
write path (``durable_delivery``) they can never tear away from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.invariants import audit_database
from repro.filter.decompose import document_atoms
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.rdf.parser import parse_document
from repro.rdf.schema import Schema
from repro.storage.engine import Database
from repro.storage.schema import TRIGGER_TABLES

__all__ = ["RecoveryManager", "RecoveryReport"]


@dataclass
class RecoveryReport:
    """What one recovery pass found and fixed."""

    findings_before: list[Diagnostic] = field(default_factory=list)
    findings_after: list[Diagnostic] = field(default_factory=list)
    repairs: dict[str, int] = field(default_factory=dict)
    #: Leftover ``filter_input``/``result_objects`` rows cleared on
    #: startup.  The engine clears them itself at the start of every
    #: run, so finding some is routine residue, not damage — they are
    #: reported here but do not count as repairs.
    scratch_rows: int = 0

    @property
    def clean(self) -> bool:
        """``True`` when the post-repair audit found nothing."""
        return not self.findings_after

    @property
    def repaired(self) -> int:
        return sum(self.repairs.values())

    def summary(self) -> str:
        fixed = ", ".join(
            f"{name}={count}"
            for name, count in sorted(self.repairs.items())
            if count
        )
        return (
            f"recovery: {len(self.findings_before)} finding(s) before, "
            f"{len(self.findings_after)} after"
            + (f" ({fixed})" if fixed else "")
        )


class RecoveryManager:
    """Audits and repairs one store; see the module docstring."""

    def __init__(
        self,
        db: Database,
        schema: Schema,
        metrics: MetricsRegistry | None = None,
    ):
        self._db = db
        self._schema = schema
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_runs = self.metrics.counter("recovery.runs")
        self._m_repairs = self.metrics.counter("recovery.repairs")
        self._m_before = self.metrics.counter("recovery.findings_before")
        self._m_after = self.metrics.counter("recovery.findings_after")

    def recover(self, repair: bool = True) -> RecoveryReport:
        """Audit, optionally repair, audit again."""
        self._m_runs.inc()
        # The previous process may have died mid-transaction; SQLite
        # discards it at reopen, but a same-process simulated restart
        # (crash injection) leaves it open on the shared connection.
        self._db.rollback()
        repairs: dict[str, int] = {}
        scratch_rows = self._clear_scratch()
        before = list(audit_database(self._db).diagnostics)
        self._m_before.inc(len(before))
        if repair:
            with self._db.transaction():
                repairs["orphan_subscription_rules"] = (
                    self._drop_orphan_subscription_rows()
                )
                repairs["orphan_index_rows"] = self._drop_orphan_index_rows()
                repairs["refcounts"] = self._repair_refcounts()
                repairs["dead_atoms"] = self._collect_unreachable_atoms()
                repairs["orphan_groups"] = self._drop_orphan_groups()
                repairs["filter_data_documents"] = self._rebuild_filter_data()
        after = list(audit_database(self._db).diagnostics)
        self._m_after.inc(len(after))
        self._m_repairs.inc(sum(repairs.values()))
        return RecoveryReport(before, after, repairs, scratch_rows)

    # ------------------------------------------------------------------
    # Individual repairs (each returns how many rows/entities it fixed)
    # ------------------------------------------------------------------
    def _clear_scratch(self) -> int:
        """Drop per-run scratch rows an interrupted filter left behind."""
        with self._db.transaction():
            cleared = self._db.execute("DELETE FROM filter_input").rowcount
            cleared += self._db.execute("DELETE FROM result_objects").rowcount
        return max(cleared, 0)

    def _drop_orphan_subscription_rows(self) -> int:
        """``subscription_rules`` rows whose subscription is gone."""
        cursor = self._db.execute(
            "DELETE FROM subscription_rules WHERE sub_id NOT IN "
            "(SELECT sub_id FROM subscriptions)"
        )
        return max(cursor.rowcount, 0)

    def _drop_orphan_index_rows(self) -> int:  # mdv: allow(MDV065): runs inside caller's transaction
        """Index/materialized/canon rows referencing missing atoms."""
        dropped = 0
        guard = "(SELECT rule_id FROM atomic_rules)"
        for table in (*TRIGGER_TABLES, "materialized", "rule_canon",
                      "subscription_rules"):
            cursor = self._db.execute(
                f"DELETE FROM {table} WHERE rule_id NOT IN {guard}"
            )
            dropped += max(cursor.rowcount, 0)
        cursor = self._db.execute(
            f"DELETE FROM rule_dependencies WHERE source_rule NOT IN {guard} "
            f"OR target_rule NOT IN {guard}"
        )
        dropped += max(cursor.rowcount, 0)
        cursor = self._db.execute(
            f"DELETE FROM named_rules WHERE end_rule NOT IN {guard}"
        )
        dropped += max(cursor.rowcount, 0)
        cursor = self._db.execute(
            f"DELETE FROM subscriptions WHERE end_rule NOT IN {guard}"
        )
        dropped += max(cursor.rowcount, 0)
        return dropped

    def _repair_refcounts(self) -> int:
        """Recompute ``atomic_rules.refcount`` from ``subscription_rules``."""
        cursor = self._db.execute(
            "UPDATE atomic_rules SET refcount = ("
            "  SELECT COUNT(*) FROM subscription_rules sr"
            "  WHERE sr.rule_id = atomic_rules.rule_id"
            ") WHERE refcount != ("
            "  SELECT COUNT(*) FROM subscription_rules sr"
            "  WHERE sr.rule_id = atomic_rules.rule_id"
            ")"
        )
        return max(cursor.rowcount, 0)

    def _live_rule_ids(self) -> set[int]:
        """Atoms reachable from any subscription or named rule."""
        roots = {
            int(row["end_rule"])
            for row in self._db.query_all("SELECT end_rule FROM subscriptions")
        }
        roots.update(
            int(row["end_rule"])
            for row in self._db.query_all("SELECT end_rule FROM named_rules")
        )
        live: set[int] = set()
        frontier = list(roots)
        while frontier:
            rule_id = frontier.pop()
            if rule_id in live:
                continue
            live.add(rule_id)
            row = self._db.query_one(
                "SELECT left_rule, right_rule FROM atomic_rules "
                "WHERE rule_id = ?",
                (rule_id,),
            )
            if row is not None:
                for column in ("left_rule", "right_rule"):
                    if row[column] is not None:
                        frontier.append(int(row[column]))
            for dep in self._db.query_all(
                "SELECT source_rule FROM rule_dependencies "
                "WHERE target_rule = ?",
                (rule_id,),
            ):
                frontier.append(int(dep["source_rule"]))
        return live

    def _collect_unreachable_atoms(self) -> int:  # mdv: allow(MDV065): runs inside caller's transaction
        """Drop atom trees no subscription or named rule can reach.

        A crash between ``ensure_atoms`` and the subscription insert of
        a (non-durable) registration strands a whole atom chain with
        zero refcounts; this is the transitive garbage collection that
        removes it together with every index row it owns.
        """
        live = self._live_rule_ids()
        rows = self._db.query_all("SELECT rule_id FROM atomic_rules")
        dead = [
            int(row["rule_id"])
            for row in rows
            if int(row["rule_id"]) not in live
        ]
        for rule_id in dead:
            self._db.execute(
                "DELETE FROM rule_dependencies WHERE source_rule = ? "
                "OR target_rule = ?",
                (rule_id, rule_id),
            )
            for table in (*TRIGGER_TABLES, "materialized", "rule_canon",
                          "subscription_rules"):
                self._db.execute(
                    f"DELETE FROM {table} WHERE rule_id = ?", (rule_id,)
                )
        # Atom rows must go parents-first: a join atom's left_rule /
        # right_rule foreign keys pin its children until it is gone.
        # Rule trees are acyclic, so each pass frees at least one atom.
        pending = set(dead)
        while pending:
            referenced: set[int] = set()
            for row in self._db.query_all(
                "SELECT left_rule, right_rule FROM atomic_rules "
                "WHERE left_rule IS NOT NULL OR right_rule IS NOT NULL"
            ):
                for column in ("left_rule", "right_rule"):
                    if row[column] is not None:
                        referenced.add(int(row[column]))
            batch = sorted(pending - referenced)
            if not batch:
                break
            self._db.executemany(
                "DELETE FROM atomic_rules WHERE rule_id = ?",
                ((rule_id,) for rule_id in batch),
            )
            pending.difference_update(batch)
        return len(dead) - len(pending)

    def _drop_orphan_groups(self) -> int:
        """Rule groups no join rule references anymore."""
        cursor = self._db.execute(
            "DELETE FROM rule_groups WHERE group_id NOT IN "
            "(SELECT group_id FROM atomic_rules WHERE group_id IS NOT NULL)"
        )
        return max(cursor.rowcount, 0)

    def _rebuild_filter_data(self) -> int:  # mdv: allow(MDV065): runs inside caller's transaction
        """Rebuild ``filter_data``/``resources`` from the documents' XML.

        The stored RDF/XML is the source of truth for a document's
        atoms; a torn multi-transaction registration can commit the
        document row without (or with stale) derived rows.  Each
        document's expected atoms are recomputed with the same
        decomposition the registration path uses and compared; only
        mismatching documents are rewritten.  Returns the number of
        documents repaired.
        """
        repaired = 0
        doc_rows = self._db.query_all(
            "SELECT uri, xml FROM documents ORDER BY uri"
        )
        for doc_row in doc_rows:
            uri = doc_row["uri"]
            document = parse_document(doc_row["xml"], uri, self._schema)
            expected_atoms = sorted(document_atoms(document))
            expected_resources = sorted(
                (str(r.uri), r.rdf_class, uri) for r in document
            )
            actual_resources = sorted(
                (row["uri_reference"], row["class"], row["document_uri"])
                for row in self._db.query_all(
                    "SELECT uri_reference, class, document_uri "
                    "FROM resources WHERE document_uri = ?",
                    (uri,),
                )
            )
            subject_uris = {entry[0] for entry in expected_resources} | {
                entry[0] for entry in actual_resources
            }
            actual_atoms: list[tuple[str, str, str, str]] = []
            for subject in sorted(subject_uris):
                actual_atoms.extend(
                    (
                        row["uri_reference"], row["class"],
                        row["property"], row["value"],
                    )
                    for row in self._db.query_all(
                        "SELECT uri_reference, class, property, value "
                        "FROM filter_data WHERE uri_reference = ?",
                        (subject,),
                    )
                )
            if (
                sorted(actual_atoms) == expected_atoms
                and actual_resources == expected_resources
            ):
                continue
            repaired += 1
            self._db.executemany(
                "DELETE FROM filter_data WHERE uri_reference = ?",
                ((subject,) for subject in sorted(subject_uris)),
            )
            self._db.executemany(
                "DELETE FROM resources WHERE uri_reference = ?",
                ((subject,) for subject in sorted(subject_uris)),
            )
            self._db.executemany(
                "INSERT INTO resources (uri_reference, class, document_uri) "
                "VALUES (?, ?, ?)",
                expected_resources,
            )
            self._db.executemany(
                "INSERT INTO filter_data (uri_reference, class, property, "
                "value) VALUES (?, ?, ?, ?)",
                expected_atoms,
            )
        # Atoms of resources whose document vanished entirely.
        cursor = self._db.execute(
            "DELETE FROM filter_data WHERE uri_reference NOT IN "
            "(SELECT uri_reference FROM resources)"
        )
        if cursor.rowcount > 0:
            repaired += 1
        return repaired
