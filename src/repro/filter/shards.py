"""Sharded, parallel evaluation of the triggering stage.

The paper's filter pushes all matching into the RDBMS; this module
splits the *triggering* joins of one filter run across ``N`` worker
shards so document batches can be matched in parallel (the direction of
Burcea et al. and Zervakis et al.: partition subscription evaluation
across workers).  Design:

- **Partitioning is by resource, not by rule.**  Every triggering join
  condition (:data:`repro.filter.matcher.TRIGGERING_JOINS`) relates one
  input atom to one rule row and requires ``fr.class = fi.class`` — a
  hit ``(resource, rule)`` is derived from a *single* atom row.  The
  union of per-partition hit sets over any partition of the input atoms
  therefore equals the serial hit set exactly.  Routing whole resources
  (all atoms share their resource's ``uri_reference``) keeps every hit
  on exactly one shard, so the merged set is duplicate-free by
  construction.  The route key hashes the URI reference with a
  *deterministic* hash (crc32), keeping shard assignment reproducible
  across processes and runs.
- **Each shard owns one thread and one connection.**  sqlite3
  connections are thread-affine; a :class:`TriggerShard` runs a
  dedicated single-thread executor and creates its private in-memory
  :class:`~repro.storage.engine.Database` *inside* that thread, so the
  default ``check_same_thread`` protection stays enabled.  All shard
  work is submitted to that executor.
- **Rule replicas are refreshed by version.**  Shards hold full copies
  of the eight triggering index tables (small relative to the data:
  one row per triggering rule and extension class) and of the trigram
  index tables of :mod:`repro.text` (needed when
  ``contains_index="trigram"``).  The
  :class:`~repro.rules.registry.RuleRegistry` bumps a mutation counter
  whenever index rows change; :meth:`ShardPool.refresh_rules` reloads
  the replicas only when the counter moved, so steady-state publishes
  pay nothing for replication.
- **Merging is serial.**  The engine routes the per-shard hit lists on
  the main database: hits of rules some join reads enter
  ``result_objects`` at iteration 0, hits of end rules nothing joins
  on go straight to ``materialized`` and the run's pairs; the
  join-rule/rule-group closure then runs unchanged on the shared
  dependency graph.  Parallel output is byte-identical to serial —
  enforced by ``tests/filter/test_parallel_differential.py``.

Metrics (all in the engine's registry): ``filter.shard.dispatches``,
``filter.shard.rows`` (atoms routed), ``filter.shard.hits`` (merged
hits), ``filter.shard.rule_reloads`` and the per-shard latency
histogram ``filter.shard.batch_ms``.  See docs/CONCURRENCY.md.
"""

from __future__ import annotations

import time
import zlib
from collections.abc import Iterable, Sequence
from concurrent.futures import Future, ThreadPoolExecutor

from repro.filter.matcher import select_triggering_hits
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.storage.engine import Database
from repro.storage.schema import COMPARISON_TABLES, TEXT_TABLES, TRIGGER_TABLES
from repro.storage.tables import AtomRow
from repro.text.ngrams import TRIGRAM_LENGTH

__all__ = ["MAX_SHARDS", "ShardPlan", "TriggerShard", "ShardPool", "PendingMatch"]

#: Upper bound on the ``parallelism=`` knob — far above any sensible
#: fan-out, it only turns a typo into an error instead of 10k threads.
MAX_SHARDS = 64

#: Shard-local DDL: the run input table plus the triggering index
#: tables, same names and shapes as the main schema so the triggering
#: join SQL runs verbatim against a shard connection.
_SHARD_INPUT_DDL = """
CREATE TABLE IF NOT EXISTS filter_input (
    uri_reference TEXT NOT NULL,
    class         TEXT NOT NULL,
    property      TEXT NOT NULL,
    value         TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_fi_class_prop
    ON filter_input(class, property);

CREATE TABLE IF NOT EXISTS filter_rules_class (
    rule_id  INTEGER NOT NULL,
    class    TEXT NOT NULL,
    semantic INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (rule_id, class)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_frc_class ON filter_rules_class(class);
"""

_SHARD_OP_TABLE_DDL = """
CREATE TABLE IF NOT EXISTS {table} (
    rule_id  INTEGER NOT NULL,
    class    TEXT NOT NULL,
    property TEXT NOT NULL,
    value    TEXT NOT NULL,
    numeric  INTEGER NOT NULL DEFAULT 0,
    semantic INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (rule_id, class, property, value)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_{table}
    ON {table}(class, property, value);
"""

#: Shard replica of the trigram index (:mod:`repro.text`), mirroring
#: the main schema (minus foreign keys, like the other shard replicas)
#: so the indexed matching SQL runs verbatim against a shard connection.
_SHARD_TEXT_DDL = """
CREATE TABLE IF NOT EXISTS filter_rules_con_tri (
    rule_id       INTEGER NOT NULL,
    class         TEXT NOT NULL,
    property      TEXT NOT NULL,
    value         TEXT NOT NULL,
    trigram_count INTEGER NOT NULL,
    PRIMARY KEY (rule_id, class, property)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_frct_class_prop
    ON filter_rules_con_tri(class, property);

CREATE TABLE IF NOT EXISTS text_postings (
    trigram TEXT NOT NULL,
    rule_id INTEGER NOT NULL,
    PRIMARY KEY (trigram, rule_id)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_tp_rule ON text_postings(rule_id);

-- Same partial index as the main schema: keeps the trigram mode's
-- short-needle fallback join from scanning every contains rule.
CREATE INDEX IF NOT EXISTS idx_frcon_short
    ON filter_rules_con(class, property, value)
    WHERE length(value) < {length};
"""


class ShardPlan:
    """Deterministic routing of atom rows to shards, by resource."""

    def __init__(self, shard_count: int):
        if shard_count < 1 or shard_count > MAX_SHARDS:
            raise ValueError(
                f"shard_count must be in 1..{MAX_SHARDS}, got {shard_count}"
            )
        self.shard_count = shard_count

    def shard_of(self, uri_reference: str) -> int:
        """The shard owning a resource (stable across processes)."""
        return zlib.crc32(uri_reference.encode("utf-8")) % self.shard_count

    def partition(self, rows: Iterable[AtomRow]) -> list[list[AtomRow]]:
        """Split atom rows into per-shard batches.

        Atom rows of one resource are contiguous in practice (decompose
        emits them together), so the route of the previous row is cached
        — partitioning cost is one crc32 per *resource*, not per atom.
        """
        parts: list[list[AtomRow]] = [[] for __ in range(self.shard_count)]
        last_uri: str | None = None
        target = parts[0]
        for row in rows:
            uri = row[0]
            if uri != last_uri:
                target = parts[self.shard_of(uri)]
                last_uri = uri
            target.append(row)
        return parts


class TriggerShard:
    """One worker: a dedicated thread owning one shard database."""

    def __init__(
        self,
        index: int,
        metrics: MetricsRegistry,
        contains_index: str = "scan",
    ):
        self.index = index
        self._metrics = metrics
        self._contains_index = contains_index
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"mdv-shard-{index}"
        )
        self._db: Database | None = None
        self._closed = False
        # The connection is created (and only ever used) inside the
        # shard's own thread — sqlite3's thread check stays on.
        self._executor.submit(self._open, metrics).result()

    def _open(self, metrics: MetricsRegistry) -> None:
        db = Database(metrics=metrics)
        db.executescript(_SHARD_INPUT_DDL)
        for table in COMPARISON_TABLES.values():
            db.executescript(_SHARD_OP_TABLE_DDL.format(table=table))
        db.executescript(_SHARD_TEXT_DDL.format(length=TRIGRAM_LENGTH))
        self._db = db

    def load_rules(
        self, table_rows: dict[str, list[tuple[object, ...]]]
    ) -> Future[None]:
        """Replace the shard's rule replicas (runs on the shard thread)."""

        def work() -> None:
            db = self._db
            assert db is not None
            for table, rows in table_rows.items():
                db.execute(f"DELETE FROM {table}")
                if rows:
                    placeholders = ",".join("?" * len(rows[0]))
                    db.executemany(
                        f"INSERT INTO {table} VALUES ({placeholders})", rows
                    )
            db.commit()

        return self._executor.submit(work)

    def match(
        self, rows: Sequence[AtomRow]
    ) -> Future[tuple[list[tuple[str, int]], float]]:
        """Match an input partition; resolves to ``(hits, seconds)``."""

        def work() -> tuple[list[tuple[str, int]], float]:
            started = time.perf_counter()
            db = self._db
            assert db is not None
            db.execute("DELETE FROM filter_input")
            db.executemany(
                "INSERT INTO filter_input "
                "(uri_reference, class, property, value) VALUES (?, ?, ?, ?)",
                rows,
            )
            hits = select_triggering_hits(
                db,
                contains_index=self._contains_index,
                metrics=self._metrics,
            )
            db.commit()
            return hits, time.perf_counter() - started

        return self._executor.submit(work)

    def close(self) -> None:
        """Close the shard connection and stop its thread (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._db is not None:
            self._executor.submit(self._db.close).result()
            self._db = None
        self._executor.shutdown(wait=True)


class PendingMatch:
    """An in-flight sharded match; ``gather()`` merges the hit sets.

    Returned by :meth:`ShardPool.dispatch` so callers can overlap other
    work (e.g. the ``filter_data`` ingest) with the shard evaluation.
    """

    def __init__(
        self,
        pool: ShardPool,
        futures: list[Future[tuple[list[tuple[str, int]], float]]],
        row_count: int,
    ):
        self._pool = pool
        self._futures = futures
        #: Total atoms routed (the run's ``atoms_scanned``).
        self.row_count = row_count

    def gather(self) -> list[tuple[str, int]]:
        """Wait for every shard; returns the merged ``(uri, rule)`` hits.

        Shard results are concatenated in shard order, so the merged
        list is deterministic for a given input and shard count.
        """
        hits: list[tuple[str, int]] = []
        for future in self._futures:
            shard_hits, seconds = future.result()
            self._pool.batch_latency.observe(seconds * 1000.0)
            hits.extend(shard_hits)
        self._pool.hits_counter.inc(len(hits))
        return hits


class ShardPool:
    """``N`` trigger shards plus the routing plan and rule replication."""

    def __init__(
        self,
        shard_count: int,
        metrics: MetricsRegistry | None = None,
        contains_index: str = "scan",
    ):
        self.plan = ShardPlan(shard_count)
        self.contains_index = contains_index
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_dispatches = self.metrics.counter("filter.shard.dispatches")
        self._m_rows = self.metrics.counter("filter.shard.rows")
        self.hits_counter = self.metrics.counter("filter.shard.hits")
        self._m_reloads = self.metrics.counter("filter.shard.rule_reloads")
        self.batch_latency = self.metrics.histogram("filter.shard.batch_ms")
        self.shards = [
            TriggerShard(index, self.metrics, contains_index=contains_index)
            for index in range(shard_count)
        ]
        #: Registry mutation version the replicas were loaded at.
        self.rules_version: int | None = None
        self._closed = False

    @property
    def shard_count(self) -> int:
        return self.plan.shard_count

    def refresh_rules(self, db: Database, version: int) -> bool:
        """Reload every shard's rule replicas if ``version`` moved.

        The index-table rows are read from ``db`` on the *calling*
        thread (the main connection is thread-affine too) and shipped to
        the shard threads.  Returns ``True`` when a reload happened.
        """
        if version == self.rules_version:
            return False
        # The trigram replicas ride along with the triggering tables:
        # both change only on registry mutations, so one version counter
        # covers them.
        table_rows = {
            table: [tuple(row) for row in db.query_all(f"SELECT * FROM {table}")]
            for table in (*TRIGGER_TABLES, *TEXT_TABLES)
        }
        for future in [shard.load_rules(table_rows) for shard in self.shards]:
            future.result()
        self.rules_version = version
        self._m_reloads.inc()
        return True

    def dispatch(self, rows: Iterable[AtomRow]) -> PendingMatch:
        """Fan an atom batch out to the shards (non-blocking).

        Shards whose partition is empty are skipped — they contribute no
        hits and their stale input table is cleared on their next use.
        """
        parts = self.plan.partition(rows)
        total = sum(len(part) for part in parts)
        futures = [
            shard.match(part)
            for shard, part in zip(self.shards, parts)
            if part
        ]
        self._m_dispatches.inc()
        self._m_rows.inc(total)
        return PendingMatch(self, futures, total)

    def match(self, rows: Iterable[AtomRow]) -> list[tuple[str, int]]:
        """Dispatch and gather in one call (convenience)."""
        return self.dispatch(rows).gather()

    def close(self) -> None:
        """Close every shard (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> ShardPool:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
