"""Reliable at-least-once delivery: outbox, retry/backoff, dedup.

The paper requires MDPs to "consistently replicate metadata among each
other" and to keep LMR caches consistent through notifications — over a
network that, at Internet scale, loses and duplicates messages.  This
module supplies the delivery contract that survives that network:

- :class:`Outbox` — a per-destination FIFO of unacknowledged messages,
  each stamped with a monotonic per-destination sequence number.  A
  successful (non-raising) transport call is the acknowledgement;
  :class:`~repro.errors.NetworkError` failures are retried with capped
  exponential backoff plus seeded jitter on a *simulated* clock, and
  after ``max_attempts`` the entry moves to a dead-letter queue from
  which :meth:`Outbox.redrive` can resurrect it (e.g. after a partition
  heals).  Delivery is therefore *at-least-once*.
- :class:`DedupIndex` — the receiving side: ``(source, seq)`` pairs are
  applied exactly once; duplicates (from retries or from a faulty link)
  are counted and ignored.  At-least-once delivery plus idempotent
  receivers yields *exactly-once application*.
- :class:`ReplicaUpdate` — the backbone's replication envelope: a
  document change with its version vector entry and delivery metadata.

Non-network transport failures (the receiver rejected the message) are
*poison*: they dead-letter immediately instead of retrying forever, and
the fan-out to other destinations continues — a raising peer never
again stalls the loop.

With an :class:`OutboxStore` the outbox becomes a *transactional*
outbox (docs/DURABILITY.md): entries are written to the
``outbox_messages`` table as they are staged (:meth:`Outbox.stage`) —
inside the same database transaction as the state change that produced
them — queued once it commits, and marked delivered after a successful
transport call.  A process crash
between commit and delivery therefore loses nothing: a restarted outbox
:meth:`Outbox.recover`\\ s its sequence watermarks and its undelivered
tail from the store before the bus reattaches.
"""

from __future__ import annotations

import pickle
import random
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import CrashError, NetworkError
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.storage.engine import Database

if TYPE_CHECKING:
    from repro.rdf.model import Document

__all__ = [
    "RetryPolicy",
    "OutboxEntry",
    "DeadLetter",
    "Outbox",
    "OutboxStore",
    "DedupIndex",
    "ReplicaUpdate",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with jitter, in simulated ms."""

    base_delay_ms: float = 10.0
    multiplier: float = 2.0
    max_delay_ms: float = 5000.0
    jitter_ms: float = 5.0
    #: Attempts before an entry is dead-lettered.
    max_attempts: int = 8

    def delay_for(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        raw = self.base_delay_ms * self.multiplier ** max(attempt - 1, 0)
        return min(raw, self.max_delay_ms) + rng.uniform(0.0, self.jitter_ms)


@dataclass
class OutboxEntry:
    """One unacknowledged message."""

    destination: str
    kind: str
    payload: Any
    seq: int
    attempts: int = 0
    #: Simulated time before which no retry is attempted.
    due_ms: float = 0.0
    last_error: str | None = None
    #: Clock reading at enqueue time (delivery-latency accounting).
    enqueued_ms: float = 0.0


@dataclass(frozen=True)
class DeadLetter:
    """An entry that exhausted its retries or poisoned its receiver."""

    entry: OutboxEntry
    error: str
    at_ms: float
    #: ``True`` when the receiver rejected the message (non-retryable).
    poison: bool = False


@dataclass(frozen=True)
class ReplicaUpdate:
    """A replicated document change (``document is None`` = deletion)."""

    document_uri: str
    document: Document | None
    #: ``(counter, origin)`` — totally ordered, last-writer-wins.
    version: tuple[int, str]
    source: str
    seq: int

    def approximate_size(self) -> int:
        size = len(self.document_uri) + len(self.source) + 16
        if self.document is not None:
            for resource in self.document:
                size += len(str(resource.uri)) + len(resource.rdf_class)
                for name in resource.property_names():
                    for value in resource.get(name):
                        size += len(name) + len(str(value))
        return size


#: ``transport(destination, kind, payload)``; raises on failure.
Transport = Callable[[str, str, Any], Any]


class OutboxStore:
    """SQLite persistence behind an :class:`Outbox`.

    Rows live in the ``outbox_messages`` table of the owning node's
    store (:mod:`repro.storage.schema`), so :meth:`record` calls made
    inside the provider's operation transaction commit or vanish
    *atomically with* the state change whose notifications they carry.
    Payloads are pickled: the store is written and read only by the
    owning node, never by untrusted parties.
    """

    def __init__(self, db: Database):
        self._db = db

    def record(self, entry: OutboxEntry) -> None:
        """Persist one enqueued entry (idempotent per ``(dest, seq)``)."""
        with self._db.transaction():
            self._db.execute(
                "INSERT OR REPLACE INTO outbox_messages "
                "(destination, seq, kind, payload, delivered) "
                "VALUES (?, ?, ?, ?, 0)",
                (
                    entry.destination,
                    entry.seq,
                    entry.kind,
                    pickle.dumps(entry.payload),
                ),
            )

    def mark_delivered(self, destination: str, seq: int) -> None:
        with self._db.transaction():
            self._db.execute(
                "UPDATE outbox_messages SET delivered = 1 "
                "WHERE destination = ? AND seq = ?",
                (destination, seq),
            )

    def watermarks(self) -> dict[str, int]:
        """Highest persisted sequence number per destination."""
        rows = self._db.query_all(
            "SELECT destination, MAX(seq) AS high FROM outbox_messages "
            "GROUP BY destination"
        )
        return {row["destination"]: int(row["high"]) for row in rows}

    def undelivered(self) -> list[OutboxEntry]:
        """Every persisted entry not yet marked delivered, in seq order."""
        rows = self._db.query_all(
            "SELECT destination, seq, kind, payload FROM outbox_messages "
            "WHERE delivered = 0 ORDER BY destination, seq"
        )
        return [self._entry(row) for row in rows]

    def entries_since(self, destination: str, after_seq: int) -> list[OutboxEntry]:
        """Persisted entries of a destination with ``seq > after_seq``."""
        rows = self._db.query_all(
            "SELECT destination, seq, kind, payload FROM outbox_messages "
            "WHERE destination = ? AND seq > ? ORDER BY seq",
            (destination, after_seq),
        )
        return [self._entry(row) for row in rows]

    @staticmethod
    def _entry(row: Any) -> OutboxEntry:
        return OutboxEntry(
            destination=row["destination"],
            kind=row["kind"],
            payload=pickle.loads(row["payload"]),
            seq=int(row["seq"]),
        )


class Outbox:
    """Per-destination reliable send queues for one source node.

    ``clock`` and ``sleep`` tie retries to a simulated timeline (by
    default the outbox keeps its own); with a
    any :class:`~repro.net.transport.Transport` pass ``clock=bus.now_ms``
    and ``sleep=bus.sleep`` so backoff windows and
    network latency share one clock.  No wall time is ever consumed.
    """

    def __init__(
        self,
        source: str,
        transport: Transport,
        clock: Callable[[], float] | None = None,
        sleep: Callable[[float], None] | None = None,
        policy: RetryPolicy | None = None,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
        store: OutboxStore | None = None,
    ):
        self.source = source
        self.policy = policy or RetryPolicy()
        self._transport = transport
        self._store = store
        self._own_clock_ms = 0.0
        self._clock = clock if clock is not None else self._read_own_clock
        self._sleep = sleep if sleep is not None else self._advance_own_clock
        self._rng = random.Random(seed)
        self._queues: dict[str, deque[OutboxEntry]] = {}
        self._next_seq: dict[str, int] = {}
        #: Destinations whose queue was dead-lettered wholesale; no
        #: further delivery is attempted until a redrive unparks them,
        #: preserving sequence order across the outage.
        self._parked: set[str] = set()
        #: Acknowledged entries retained per destination for replay;
        #: with a store, replay reads the store and this stays empty.
        self._history: dict[str, list[OutboxEntry]] = {}
        self.dead_letters: list[DeadLetter] = []
        self.enqueued = 0
        self.delivered = 0
        self.retries = 0
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_enqueued = self.metrics.counter("outbox.enqueued")
        self._m_delivered = self.metrics.counter("outbox.delivered")
        self._m_retries = self.metrics.counter("outbox.retries")
        self._m_dead = self.metrics.counter("outbox.dead_letters")
        self._m_poison = self.metrics.counter("outbox.poison")
        self._m_redriven = self.metrics.counter("outbox.redriven")
        self._m_replayed = self.metrics.counter("outbox.replayed")
        self._m_persisted = self.metrics.counter("outbox.persisted")
        self._m_recovered = self.metrics.counter("outbox.recovered")
        self._m_latency = self.metrics.histogram("outbox.delivery_latency_ms")
        self._g_pending = self.metrics.gauge(
            "outbox.pending", {"source": source}
        )
        self._g_dead = self.metrics.gauge(
            "outbox.dead", {"source": source}
        )

    def _sync_gauges(self) -> None:
        self._g_pending.set(self.pending_count())
        self._g_dead.set(len(self.dead_letters))

    def _read_own_clock(self) -> float:
        return self._own_clock_ms

    def _advance_own_clock(self, ms: float) -> None:
        self._own_clock_ms += ms

    # ------------------------------------------------------------------
    # Enqueue
    # ------------------------------------------------------------------
    def reserve_seq(self, destination: str) -> int:
        """Claim the next monotonic sequence number for a destination.

        With a persistent store the first reservation per destination
        resumes from the highest persisted sequence number, so a
        restarted node continues the stream instead of reusing numbers
        its receivers already applied.
        """
        current = self._next_seq.get(destination)
        if current is None:
            current = 0
            if self._store is not None:
                current = self._store.watermarks().get(destination, 0)
        seq = current + 1
        self._next_seq[destination] = seq
        return seq

    def rewind_seq(self, destination: str, seq: int) -> None:
        """Give back ``seq`` and every later reservation for
        ``destination`` — the transaction that used them rolled back."""
        if self._next_seq.get(destination, 0) >= seq:
            self._next_seq[destination] = seq - 1

    def enqueue(
        self, destination: str, kind: str, payload: Any, seq: int | None = None
    ) -> OutboxEntry:
        """Queue a message; ``seq`` defaults to a freshly reserved one."""
        if seq is None:
            seq = self.reserve_seq(destination)
        entry = self.stage(destination, kind, payload, seq)
        self.queue(entry)
        return entry

    def stage(
        self, destination: str, kind: str, payload: Any, seq: int
    ) -> OutboxEntry:
        """Build a stamped entry and persist it without queueing it.

        With a persistent store the row joins the caller's open
        transaction (transactional outbox), so it commits or vanishes
        with the state change that produced it; :meth:`queue` the entry
        once that transaction has committed.
        """
        entry = OutboxEntry(
            destination, kind, payload, seq, enqueued_ms=self._clock()
        )
        if self._store is not None:
            self._store.record(entry)
            self._m_persisted.inc()
        return entry

    def queue(self, entry: OutboxEntry) -> None:
        """Append a staged entry to its destination's send queue."""
        self._queues.setdefault(entry.destination, deque()).append(entry)
        self.enqueued += 1
        self._m_enqueued.inc()
        self._g_pending.set(self.pending_count())

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def flush(self, destination: str | None = None) -> int:
        """Attempt every due entry once; returns deliveries.

        Per destination the queue is FIFO with head-of-line blocking: a
        retryable failure of the head backs the whole queue off, so
        sequence order is preserved on the wire.  When the head exhausts
        its retries the destination is considered down: the *entire*
        queue dead-letters and the destination is parked until
        :meth:`redrive` — delivering later entries past a lost earlier
        one would reorder the stream.  Poison failures (receiver
        rejected the message) skip just the poisoned entry.
        """
        destinations = (
            [destination] if destination is not None else sorted(self._queues)
        )
        delivered = 0
        for name in destinations:
            delivered += self._flush_queue(name)
        self._sync_gauges()
        return delivered

    def _flush_queue(self, destination: str) -> int:
        if destination in self._parked:
            return 0
        queue = self._queues.get(destination)
        delivered = 0
        while queue:
            entry = queue[0]
            if entry.due_ms > self._clock():
                break
            try:
                self._transport(destination, entry.kind, entry.payload)
            except CrashError:
                # An injected crash is a process death, not a receiver
                # rejection — it must never be absorbed as poison.  The
                # entry stays undelivered in the store; the restarted
                # outbox re-enqueues and redelivers it (receiver dedup
                # absorbs the duplicate if the handler already ran).
                raise
            except NetworkError as exc:
                entry.attempts += 1
                entry.last_error = str(exc)
                if entry.attempts >= self.policy.max_attempts:
                    self._park(destination, queue, str(exc))
                    break
                self.retries += 1
                self._m_retries.inc()
                entry.due_ms = self._clock() + self.policy.delay_for(
                    entry.attempts, self._rng
                )
                break
            except Exception as exc:  # noqa: BLE001 - receiver rejected it
                entry.attempts += 1
                entry.last_error = str(exc)
                queue.popleft()
                self.dead_letters.append(
                    DeadLetter(entry, str(exc), self._clock(), poison=True)
                )
                self._m_dead.inc()
                self._m_poison.inc()
                continue
            queue.popleft()
            if self._store is not None:
                self._store.mark_delivered(destination, entry.seq)
            else:
                self._history.setdefault(destination, []).append(entry)
            self.delivered += 1
            delivered += 1
            self._m_delivered.inc()
            self._m_latency.observe(
                max(self._clock() - entry.enqueued_ms, 0.0)
            )
        if queue is not None and not queue:
            del self._queues[destination]
        return delivered

    def _park(self, destination: str, queue: deque[OutboxEntry],
              error: str) -> None:
        """Dead-letter the whole queue and halt delivery to ``destination``."""
        head = True
        now = self._clock()
        while queue:
            entry = queue.popleft()
            reason = error if head else f"held back behind dead letter: {error}"
            head = False
            self.dead_letters.append(DeadLetter(entry, reason, now))
            self._m_dead.inc()
        self._parked.add(destination)

    def drain(
        self, destination: str | None = None, max_rounds: int = 10_000
    ) -> int:
        """Flush repeatedly, sleeping out backoff windows, until the
        pending queues are empty (delivered or dead-lettered)."""
        delivered = 0
        for _ in range(max_rounds):
            if not self._deliverable_pending(destination):
                break
            delivered += self.flush(destination)
            next_due = self._next_due(destination)
            if next_due is None:
                continue
            now = self._clock()
            if next_due > now:
                self._sleep(next_due - now)
        return delivered

    def _deliverable_pending(self, destination: str | None) -> int:
        """Queued entries on destinations that are not parked."""
        return sum(
            len(queue)
            for name, queue in self._queues.items()
            if name not in self._parked
            and (destination is None or name == destination)
        )

    def _next_due(self, destination: str | None) -> float | None:
        heads = [
            queue[0].due_ms
            for name, queue in self._queues.items()
            if queue
            and name not in self._parked
            and (destination is None or name == destination)
        ]
        return min(heads) if heads else None

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> int:
        """Reload watermarks and the undelivered tail from the store.

        Run once after a restart, *before* the bus reattaches: sequence
        counters resume past every persisted number (no reuse), and
        committed-but-undelivered entries re-enter their queues in seq
        order, ready for the next flush.  Returns the number of entries
        restored.
        """
        if self._store is None:
            return 0
        for destination, high in self._store.watermarks().items():
            if high > self._next_seq.get(destination, 0):
                self._next_seq[destination] = high
        restored = 0
        queued = {
            (name, entry.seq)
            for name, queue in self._queues.items()
            for entry in queue
        }
        for entry in self._store.undelivered():
            if (entry.destination, entry.seq) in queued:
                continue
            queue = self._queues.setdefault(entry.destination, deque())
            entry.enqueued_ms = self._clock()
            queue.append(entry)
            self.enqueued += 1
            restored += 1
        for queue in self._queues.values():
            ordered = sorted(queue, key=lambda e: e.seq)
            queue.clear()
            queue.extend(ordered)
        self._m_recovered.inc(restored)
        self._sync_gauges()
        return restored

    def redrive(self, destination: str | None = None) -> int:
        """Move dead letters back into their queues (in seq order) and
        unpark the affected destinations."""
        if destination is None:
            self._parked.clear()
        else:
            self._parked.discard(destination)
        kept: list[DeadLetter] = []
        revived: list[OutboxEntry] = []
        for letter in self.dead_letters:
            if destination is None or letter.entry.destination == destination:
                revived.append(letter.entry)
            else:
                kept.append(letter)
        self.dead_letters = kept
        for entry in sorted(revived, key=lambda e: (e.destination, e.seq)):
            entry.attempts = 0
            entry.due_ms = 0.0
            queue = self._queues.setdefault(entry.destination, deque())
            # Dead letters predate anything still pending: put them in
            # front, keeping per-destination seq order on the wire.
            queue.appendleft(entry)
        for queue in self._queues.values():
            ordered = sorted(queue, key=lambda e: e.seq)
            queue.clear()
            queue.extend(ordered)
        self._m_redriven.inc(len(revived))
        self._sync_gauges()
        return len(revived)

    def replay_since(self, destination: str, after_seq: int) -> int:
        """Re-enqueue acknowledged history with ``seq > after_seq``.

        Supports receiver resync after a restart: replayed entries are
        redelivered and deduplicated by the receiver's
        :class:`DedupIndex`.  With a persistent store the acknowledged
        history survives the *sender's* restarts too, so replay works
        across process boundaries, not just within one.
        """
        if self._store is not None:
            entries = self._store.entries_since(destination, after_seq)
        else:
            # A restarted sender without a store numbers from scratch;
            # continue past what the receiver applied, or it would drop
            # the new stream as duplicates.
            if after_seq > self._next_seq.get(destination, 0):
                self._next_seq[destination] = after_seq
            entries = [
                entry
                for entry in self._history.get(destination, [])
                if entry.seq > after_seq
            ]
        queue = self._queues.setdefault(destination, deque())
        pending_seqs = {entry.seq for entry in queue}
        replayed = 0
        for entry in entries:
            if entry.seq in pending_seqs:
                continue
            replay = OutboxEntry(
                destination, entry.kind, entry.payload, entry.seq,
                enqueued_ms=self._clock(),
            )
            queue.append(replay)
            self.enqueued += 1
            replayed += 1
        ordered = sorted(queue, key=lambda e: e.seq)
        queue.clear()
        queue.extend(ordered)
        self._m_enqueued.inc(replayed)
        self._m_replayed.inc(replayed)
        self._sync_gauges()
        return len(entries)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_count(self, destination: str | None = None) -> int:
        if destination is not None:
            return len(self._queues.get(destination, ()))
        return sum(len(queue) for queue in self._queues.values())

    def dead_count(self, destination: str | None = None) -> int:
        return sum(
            1
            for letter in self.dead_letters
            if destination is None or letter.entry.destination == destination
        )

    def destinations(self) -> list[str]:
        names = set(self._queues) | set(self._next_seq)
        return sorted(names)

    def lag_report(self) -> dict[str, dict[str, object]]:
        """Per-destination backlog: pending, dead, last error."""
        report: dict[str, dict[str, object]] = {}
        for name in self.destinations():
            queue = self._queues.get(name)
            pending = len(queue) if queue else 0
            dead = self.dead_count(name)
            if not pending and not dead:
                continue
            last_error: str | None = None
            if queue:
                last_error = queue[0].last_error
            if last_error is None and dead:
                last_error = next(
                    letter.error
                    for letter in reversed(self.dead_letters)
                    if letter.entry.destination == name
                )
            report[name] = {
                "pending": pending,
                "dead": dead,
                "last_error": last_error,
            }
        return report


class DedupIndex:
    """Receiver-side ``(source, seq)`` exactly-once-application index.

    With a backing :class:`~repro.storage.engine.Database` (its
    ``dedup_entries`` table) the index is durable: recorded pairs are
    persisted as they arrive and reloaded on construction, so a
    restarted receiver keeps ignoring the duplicates it already
    applied.  :meth:`prime` additionally seeds a per-source floor —
    everything at or below it counts as seen — which is how an LMR
    restored from a provider snapshot skips the stream prefix the
    snapshot already reflects.
    """

    def __init__(self, db: Database | None = None) -> None:
        self._db = db
        self._seen: dict[str, set[int]] = {}
        #: Per-source floor: seqs <= floor are treated as already seen.
        self._floor: dict[str, int] = {}
        #: Messages applied for the first time.
        self.applied = 0
        #: Messages ignored as duplicates.
        self.duplicates_ignored = 0
        if db is not None:
            for row in db.query_all("SELECT source, seq FROM dedup_entries"):
                self._seen.setdefault(row["source"], set()).add(int(row["seq"]))

    def check_and_record(self, source: str, seq: int) -> bool:
        """``True`` when ``(source, seq)`` is fresh (and now recorded)."""
        if seq <= self._floor.get(source, 0):
            self.duplicates_ignored += 1
            return False
        seen = self._seen.setdefault(source, set())
        if seq in seen:
            self.duplicates_ignored += 1
            return False
        seen.add(seq)
        if self._db is not None:
            with self._db.transaction():
                self._db.execute(
                    "INSERT OR IGNORE INTO dedup_entries (source, seq) "
                    "VALUES (?, ?)",
                    (source, seq),
                )
        self.applied += 1
        return True

    def forget(self, source: str, seq: int) -> None:
        """Undo a :meth:`check_and_record` whose transaction rolled back
        (the ``dedup_entries`` row went with it)."""
        self._seen[source].discard(seq)
        self.applied -= 1

    def prime(self, source: str, upto_seq: int) -> None:
        """Mark every seq of ``source`` up to ``upto_seq`` as seen."""
        if upto_seq > self._floor.get(source, 0):
            self._floor[source] = upto_seq

    def highest(self, source: str) -> int:
        seen = self._seen.get(source)
        high = max(seen) if seen else 0
        return max(high, self._floor.get(source, 0))

    def watermarks(self) -> dict[str, int]:
        marks = {
            source: max(seqs) for source, seqs in self._seen.items() if seqs
        }
        for source, floor in self._floor.items():
            if floor > marks.get(source, 0):
                marks[source] = floor
        return marks

    def seen_count(self, source: str) -> int:
        return len(self._seen.get(source, ()))
