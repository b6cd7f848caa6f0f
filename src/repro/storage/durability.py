"""Durability profiles and crash-point injection for the storage tier.

The paper's MDPs are long-lived services over a commercial RDBMS whose
crash recovery is taken for granted.  This reproduction makes the
contract explicit in two halves:

- **Pragma profiles.**  :func:`pragmas_for` maps a ``durability`` knob
  to the connection pragmas the :class:`~repro.storage.engine.Database`
  applies.  ``"fast"`` is the historical benchmark configuration
  (memory journal, ``synchronous = OFF``) — nothing survives a process
  crash, which is fine for in-memory measurement runs.  ``"safe"`` is
  the service configuration: WAL journaling with ``synchronous =
  NORMAL`` for on-disk stores, the standard SQLite durability point for
  applications that must survive process death (an OS crash may lose
  the tail of the WAL but never corrupts committed state).
- **Crash plans.**  A :class:`CrashPlan` is armed on a ``Database`` and
  consulted at every statement and commit boundary.  When its target
  boundary is reached the engine rolls back the open transaction and
  raises :class:`~repro.errors.CrashError` — the storage-level view of
  ``kill -9``: committed state survives, the in-flight transaction is
  torn away.  A plan with no target never fires and doubles as a
  boundary *counter*, which is how the crash oracle enumerates
  every crash point of a scripted workload before sweeping them
  (the ``crash`` fault plan of :mod:`repro.workload.differential`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "DURABILITY_PROFILES",
    "pragmas_for",
    "CrashPlan",
    "CrashPoint",
    "enumerate_crash_points",
]

#: Valid values of the ``durability`` knob.
DURABILITY_PROFILES = ("fast", "safe")

#: Pragmas shared by both profiles.
_COMMON_PRAGMAS = (
    "PRAGMA temp_store = MEMORY",
    "PRAGMA cache_size = -65536",  # 64 MiB page cache
    "PRAGMA foreign_keys = ON",
)


def pragmas_for(path: str, durability: str) -> tuple[str, ...]:
    """The connection pragmas of a durability profile.

    ``"fast"`` keeps the journal in memory with ``synchronous = OFF``:
    maximum speed, zero crash safety.  ``"safe"`` uses WAL +
    ``synchronous = NORMAL`` on disk-backed stores; for ``:memory:``
    databases (which cannot outlive the process anyway) it keeps the
    memory journal but raises ``synchronous`` so the profile stays
    meaningful when a test swaps paths.
    """
    if durability not in DURABILITY_PROFILES:
        raise ValueError(
            f"durability must be one of {DURABILITY_PROFILES}, "
            f"got {durability!r}"
        )
    if durability == "fast":
        journal = ("PRAGMA journal_mode = MEMORY", "PRAGMA synchronous = OFF")
    elif path == ":memory:":
        journal = (
            "PRAGMA journal_mode = MEMORY",
            "PRAGMA synchronous = NORMAL",
        )
    else:
        journal = ("PRAGMA journal_mode = WAL", "PRAGMA synchronous = NORMAL")
    return (*journal, *_COMMON_PRAGMAS)


@dataclass
class CrashPlan:
    """A scripted process death, armed on one :class:`Database`.

    The plan counts the database's statement and commit boundaries.
    When ``crash_at_statement`` (1-based: the Nth statement never
    executes) or ``crash_at_commit`` (the Nth commit is torn away) is
    reached, the consulting engine injects a crash.  Each plan fires at
    most once — after a simulated restart the "process" that armed it is
    gone.

    With both targets ``None`` the plan only counts, which a workload
    driver uses to learn how many boundaries a clean run has.
    """

    crash_at_statement: int | None = None
    crash_at_commit: int | None = None
    #: Boundaries observed so far.
    statements_seen: int = field(default=0, init=False)
    commits_seen: int = field(default=0, init=False)
    #: Set once the plan has injected its crash.
    fired: bool = field(default=False, init=False)

    def on_statement(self) -> bool:
        """Count one statement boundary; ``True`` = crash now."""
        self.statements_seen += 1
        if (
            not self.fired
            and self.crash_at_statement is not None
            and self.statements_seen >= self.crash_at_statement
        ):
            self.fired = True
            return True
        return False

    def on_commit(self) -> bool:
        """Count one commit boundary; ``True`` = tear this commit away."""
        self.commits_seen += 1
        if (
            not self.fired
            and self.crash_at_commit is not None
            and self.commits_seen >= self.crash_at_commit
        ):
            self.fired = True
            return True
        return False


@dataclass(frozen=True)
class CrashPoint:
    """One enumerated crash point of a scripted workload."""

    boundary: str  # "statement" | "commit"
    ordinal: int

    def plan(self) -> CrashPlan:
        """A fresh plan that crashes at this point."""
        if self.boundary == "statement":
            return CrashPlan(crash_at_statement=self.ordinal)
        return CrashPlan(crash_at_commit=self.ordinal)


def enumerate_crash_points(
    statements: int, commits: int, statement_stride: int = 1
) -> list[CrashPoint]:
    """Every commit boundary plus every Nth statement boundary.

    ``statements``/``commits`` are the totals a clean run of the
    workload produced (measured with a counting :class:`CrashPlan`).
    Commit boundaries are where torn transactions hide, so all of them
    are always enumerated; statement boundaries are sampled at
    ``statement_stride`` to keep sweep cost proportional.
    """
    if statement_stride < 1:
        raise ValueError("statement_stride must be >= 1")
    points = [
        CrashPoint("statement", ordinal)
        for ordinal in range(1, statements + 1, statement_stride)
    ]
    points.extend(
        CrashPoint("commit", ordinal) for ordinal in range(1, commits + 1)
    )
    return points
