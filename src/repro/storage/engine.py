"""A thin, explicit wrapper around :mod:`sqlite3`.

The paper's filter algorithm is "solely based on standard relational
database technology" (Section 3); the prototype used a major commercial
RDBMS via JDBC.  This reproduction uses SQLite — the algorithm is plain
SQL over indexed tables, so any engine with B-tree indexes exercises the
same access paths (see DESIGN.md, substitutions).

:class:`Database` adds the small amount of policy the rest of the library
wants:

- dict-like row access (``sqlite3.Row``),
- explicit transactions via :meth:`transaction`,
- pragmas tuned for an embedded workload,
- helpers (:meth:`query_all`, :meth:`query_one`, :meth:`scalar`) that
  keep call sites one-liners,
- :meth:`clone` using the SQLite backup API, which the benchmark harness
  uses to restore a prepared rule base between measurements without
  paying rule registration again (and which provider snapshots reuse),
- a ``durability`` knob selecting the pragma profile
  (:func:`repro.storage.durability.pragmas_for`): ``"fast"`` for
  in-memory measurement runs, ``"safe"`` (WAL + ``synchronous=NORMAL``)
  for stores that must survive process death,
- crash-point injection: an armed
  :class:`~repro.storage.durability.CrashPlan` is consulted at every
  statement and commit boundary and tears the open transaction away
  with a :class:`~repro.errors.CrashError` when it fires,
- statement/row accounting into a :class:`~repro.obs.MetricsRegistry`
  (``storage.statements``, ``storage.rows_read``,
  ``storage.rows_written``) so filter cost is attributable to actual
  database work, not just wall time.
"""

from __future__ import annotations

import sqlite3
import threading
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from typing import Any

from repro.errors import CrashError, StorageError
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.storage.durability import CrashPlan, pragmas_for

__all__ = ["Database"]


class Database:
    """A connection to one MDV store (an MDP's or an LMR's database)."""

    def __init__(
        self,
        path: str = ":memory:",
        metrics: MetricsRegistry | None = None,
        check_same_thread: bool = True,
        durability: str = "fast",
    ):
        self.path = path
        #: Selected pragma profile ("fast" or "safe"); clones inherit it.
        self.durability = durability
        pragmas = pragmas_for(path, durability)  # validates the knob
        try:
            # sqlite3 connections are thread-affine; the check stays on
            # by default.  ``check_same_thread=False`` is for callers
            # that serialize access themselves (e.g. the concurrency
            # stress tests) — SQLite objects are still not safe for
            # unsynchronized concurrent use (docs/CONCURRENCY.md).
            self._connection = sqlite3.connect(
                path, check_same_thread=check_same_thread
            )
        except sqlite3.Error as exc:  # pragma: no cover - environment issue
            raise StorageError(f"cannot open database {path!r}: {exc}") from exc
        self._connection.row_factory = sqlite3.Row
        for pragma in pragmas:
            self._connection.execute(pragma)
        self._in_transaction = False
        self._transaction_owner: int | None = None
        #: Set when a nested block raised: the outermost block rolls back.
        self._rollback_only = False
        self._crash_plan: CrashPlan | None = None
        # Instrument handles are resolved once; every statement then
        # pays one attribute-add, keeping the hot path hot.
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_statements = self.metrics.counter("storage.statements")
        self._m_rows_read = self.metrics.counter("storage.rows_read")
        self._m_rows_written = self.metrics.counter("storage.rows_written")
        self._m_transactions = self.metrics.counter("storage.transactions")
        self._m_crashes = self.metrics.counter("storage.crash.injected")
        self._m_crash_armed = self.metrics.counter("storage.crash.armed")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None  # type: ignore[assignment]

    def __enter__(self) -> Database:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def connection(self) -> sqlite3.Connection:
        """The raw connection (escape hatch for advanced callers)."""
        if self._connection is None:
            raise StorageError("database is closed")
        return self._connection

    def clone(
        self, path: str | None = None, durability: str | None = None
    ) -> Database:
        """A full copy of this database (SQLite backup API).

        Used by the benchmark harness (prepare an expensive rule base
        once, restore a pristine copy per measurement point) and by
        provider snapshots.  ``path`` selects the destination —
        ``:memory:`` by default, a file path for a durable snapshot; an
        existing destination database file is overwritten.  Call it at a
        quiescent point: cloning mid-transaction would snapshot
        uncommitted state.
        """
        if self._connection is None:
            raise StorageError(
                f"cannot clone a closed database (source {self.path!r})"
            )
        duplicate = Database(
            path if path is not None else ":memory:",
            metrics=self.metrics,
            durability=durability if durability is not None else self.durability,
        )
        self.connection.backup(duplicate.connection)
        return duplicate

    # ------------------------------------------------------------------
    # Crash injection (fault-injection harness; see docs/DURABILITY.md)
    # ------------------------------------------------------------------
    @property
    def crash_plan(self) -> CrashPlan | None:
        """The armed crash plan, if any."""
        return self._crash_plan

    def install_crash_plan(self, plan: CrashPlan) -> None:
        """Arm ``plan``: every statement/commit boundary consults it."""
        self._crash_plan = plan
        self._m_crash_armed.inc()

    def clear_crash_plan(self) -> None:
        """Disarm crash injection (a simulated restart discards the plan)."""
        self._crash_plan = None

    def _crash(self, boundary: str, ordinal: int) -> None:
        """Inject the crash: discard the open transaction and raise."""
        self._m_crashes.inc()
        if self._connection is not None:
            self._connection.rollback()
        raise CrashError(boundary, ordinal)

    def _statement_boundary(self) -> None:
        plan = self._crash_plan
        if plan is not None and plan.on_statement():
            self._crash("statement", plan.statements_seen)

    def _commit_boundary(self) -> None:
        plan = self._crash_plan
        if plan is not None and plan.on_commit():
            self._crash("commit", plan.commits_seen)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self, sql: str, parameters: Sequence[Any] | dict[str, Any] = ()
    ) -> sqlite3.Cursor:
        """Execute one statement, translating engine errors."""
        self._statement_boundary()
        try:
            cursor = self.connection.execute(sql, parameters)
        except sqlite3.Error as exc:
            raise StorageError(f"{exc}\nSQL: {sql}") from exc
        self._m_statements.inc()
        if cursor.rowcount > 0:  # -1 for SELECTs
            self._m_rows_written.inc(cursor.rowcount)
        return cursor

    def executemany(
        self, sql: str, parameter_rows: Iterable[Sequence[Any]]
    ) -> sqlite3.Cursor:
        """Execute one statement for many parameter rows."""
        self._statement_boundary()
        try:
            cursor = self.connection.executemany(sql, parameter_rows)
        except sqlite3.Error as exc:
            raise StorageError(f"{exc}\nSQL: {sql}") from exc
        self._m_statements.inc()
        if cursor.rowcount > 0:
            self._m_rows_written.inc(cursor.rowcount)
        return cursor

    def executescript(self, script: str) -> None:
        """Execute a multi-statement script (DDL).

        Refused inside a :meth:`transaction` block: ``executescript``
        issues an implicit COMMIT first, which would silently persist
        the block's partial work.
        """
        if self._in_transaction:
            raise StorageError(
                "executescript() inside a transaction() block would "
                "implicitly commit its partial work; run DDL outside "
                "explicit transactions"
            )
        try:
            self.connection.executescript(script)
        except sqlite3.Error as exc:
            raise StorageError(f"{exc}\nscript: {script[:200]}...") from exc

    @contextmanager
    def transaction(self) -> Iterator[Database]:
        """Run a block atomically.

        The top-level block opens one SQLite transaction, committed on
        normal exit and rolled back on any exception.  Nested
        invocations from the *same* thread simply join it: their work
        commits or vanishes with the outer block.  A raising nested
        block marks the whole transaction rollback-only — if a caller
        swallows the exception, the outermost block still rolls back and
        raises :class:`~repro.errors.StorageError` instead of committing
        half an operation.  Nested invocations from a *different* thread
        are rejected with a diagnostic — two threads sharing one
        connection would silently commit each other's partial work
        (SQLite has a single transaction per connection).
        """
        if self._in_transaction:
            if threading.get_ident() != self._transaction_owner:
                raise StorageError(
                    "nested transaction() from a different thread: the "
                    "connection's single transaction belongs to thread "
                    f"{self._transaction_owner}; serialize access or give "
                    "each thread its own Database (docs/CONCURRENCY.md)"
                )
            try:
                yield self
            except BaseException:
                self._rollback_only = True
                raise
            return
        self._m_transactions.inc()
        self._in_transaction = True
        self._rollback_only = False
        self._transaction_owner = threading.get_ident()
        if not self.connection.in_transaction:
            # When raw statements already opened an implicit
            # transaction, join it — same commit scope as ever.
            self.connection.execute("BEGIN")
        try:
            yield self
        except BaseException:
            self.connection.rollback()
            raise
        else:
            if self._rollback_only:
                self.connection.rollback()
                raise StorageError(
                    "a nested transaction() block raised and its caller "
                    "went on; the whole transaction was rolled back"
                )
            self._commit_boundary()
            self.connection.commit()
        finally:
            self._in_transaction = False
            self._rollback_only = False
            self._transaction_owner = None

    def commit(self) -> None:
        """Commit outside :meth:`transaction` blocks.

        Inside a block it is rejected: committing mid-block would
        persist partial work and break the block's atomicity (this is
        also what lint MDV065 flags statically).
        """
        if self._in_transaction:
            raise StorageError(
                "commit() inside a transaction() block would persist "
                "partial work; let the block commit on exit"
            )
        self._commit_boundary()
        self.connection.commit()

    def rollback(self) -> None:
        """Discard the open (implicit or explicit) transaction, if any.

        Inside a :meth:`transaction` block it is rejected — raise out of
        the block instead and let the block unwind atomically.
        """
        if self._in_transaction:
            raise StorageError(
                "rollback() inside a transaction() block; raise instead "
                "and let the block roll back atomically"
            )
        self.connection.rollback()

    # ------------------------------------------------------------------
    # Query helpers
    # ------------------------------------------------------------------
    def query_all(
        self, sql: str, parameters: Sequence[Any] | dict[str, Any] = ()
    ) -> list[sqlite3.Row]:
        """All rows of a query."""
        rows = self.execute(sql, parameters).fetchall()
        self._m_rows_read.inc(len(rows))
        return rows

    def query_one(
        self, sql: str, parameters: Sequence[Any] | dict[str, Any] = ()
    ) -> sqlite3.Row | None:
        """The first row of a query, or ``None``."""
        row = self.execute(sql, parameters).fetchone()
        if row is not None:
            self._m_rows_read.inc()
        return row

    def scalar(
        self, sql: str, parameters: Sequence[Any] | dict[str, Any] = ()
    ) -> Any:
        """The single value of a single-row, single-column query."""
        row = self.query_one(sql, parameters)
        return None if row is None else row[0]

    def count(self, table: str, where: str = "", parameters: Sequence[Any] = ()) -> int:
        """Row count of ``table`` (optionally filtered).

        ``table`` and ``where`` are trusted SQL fragments supplied by
        library code, never by end users.
        """
        suffix = f" WHERE {where}" if where else ""
        return int(self.scalar(f"SELECT COUNT(*) FROM {table}{suffix}", parameters))

    def table_names(self) -> list[str]:
        """Names of all user tables, sorted."""
        rows = self.query_all(
            "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
        )
        return [row["name"] for row in rows]

    def explain(self, sql: str, parameters: Sequence[Any] = ()) -> str:
        """The query plan as text (index-usage assertions in tests)."""
        rows = self.query_all(f"EXPLAIN QUERY PLAN {sql}", parameters)
        return "\n".join(row["detail"] for row in rows)
