"""The Local Metadata Repository (LMR) — the caching middle tier.

LMRs "do the actual metadata query processing.  For efficiency reasons,
i.e., to avoid communication across the Internet, LMRs cache global
metadata and use only locally available metadata for query processing"
(paper, Section 2.2).

An LMR:

- subscribes to an MDP with rules describing the metadata its clients
  need; the MDP delivers current matches immediately and keeps the cache
  consistent through match/unmatch/delete notifications;
- answers :meth:`query` calls entirely from its cache (plus local
  metadata), never touching the network;
- stores *local metadata* that "should not be accessible to the public
  and therefore is not forwarded to the backbone";
- forwards global registrations by its clients to the MDP;
- runs a reference-counting garbage collector over strong-reference
  copies (Section 2.4);
- applies notification batches *exactly once* (``(source, seq)``
  dedup) although the reliable delivery layer may redeliver them, and
  keeps serving (possibly stale) cached results when its provider is
  unreachable (:meth:`~LocalMetadataRepository.query_with_status`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic
from repro.errors import (
    NetworkError,
    RepositoryError,
    RuleAnalysisError,
    SubscriptionError,
)
from repro.mdv.cache import CacheStore
from repro.mdv.gc import GarbageCollector, GcReport
from repro.mdv.outbox import DedupIndex
from repro.mdv.provider import MetadataProvider
from repro.net.bus import DEFAULT_LAN_LATENCY_MS, Message
from repro.net.transport import Transport
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.pubsub.closure import strong_closure
from repro.pubsub.notifications import (
    DeleteNotification,
    MatchNotification,
    NotificationBatch,
    ResourcePayload,
    UnmatchNotification,
)
from repro.query.evaluator import evaluate_query
from repro.rdf.model import Document, Resource, URIRef
from repro.rdf.parser import parse_document
from repro.rdf.schema import Schema
from repro.rules.parser import parse_query
from repro.storage.engine import Database

__all__ = ["CachedQueryResult", "LocalMetadataRepository"]


@dataclass
class CachedQueryResult:
    """A degraded-read-aware query result.

    ``stale`` marks results served while the LMR's provider was
    unreachable: the cache answered, but it may lag behind the backbone
    until the partition heals and pending notifications arrive.
    """

    resources: list[Resource] = field(default_factory=list)
    stale: bool = False
    reason: str | None = None

    def __iter__(self):
        return iter(self.resources)

    def __len__(self) -> int:
        return len(self.resources)


class LocalMetadataRepository:
    """One LMR node, connected to one MDP."""

    def __init__(
        self,
        name: str,
        provider: MetadataProvider,
        schema: Schema | None = None,
        bus: Transport | None = None,
        analyze: str = "off",
        metrics: MetricsRegistry | None = None,
    ):
        self.name = name
        self.provider = provider
        self.schema = schema or provider.schema
        #: Pre-subscription analysis policy ("off", "warn" or "reject").
        self.analyze = analyze
        self.bus = bus
        self.metrics = metrics if metrics is not None else default_registry()
        labels = {"lmr": name}
        self._m_batches_received = self.metrics.counter(
            "lmr.batches_received", labels
        )
        self._m_batches_applied = self.metrics.counter(
            "lmr.batches_applied", labels
        )
        self._m_duplicates = self.metrics.counter(
            "lmr.duplicates_ignored", labels
        )
        self._m_notifications = self.metrics.counter(
            "lmr.notifications", labels
        )
        self._m_resyncs = self.metrics.counter("lmr.resyncs", labels)
        self._m_stale_reads = self.metrics.counter("lmr.stale_reads", labels)
        self.cache = CacheStore(self.schema)
        self.collector = GarbageCollector(self.schema)
        self._local: dict[URIRef, Resource] = {}
        self._subscriptions: dict[str, list[int]] = {}
        #: Logical clock advanced per notification batch (TTL support).
        self.clock = 0
        self.notifications_received = 0
        #: Exactly-once application of reliable batches by (source, seq).
        self.dedup = DedupIndex()
        #: Every batch that reached this LMR, duplicates included.
        self.batches_received = 0
        if bus is not None:
            bus.register(name, self._handle_message)
        else:
            provider.connect_subscriber(name, self.apply_batch)

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------
    def subscribe(
        self, rule_text: str, analyze: str | None = None
    ) -> list[Diagnostic]:
        """Register a subscription rule at the MDP.

        Rules are produced "by users browsing and selecting metadata or
        by administrators of LMRs" (Section 2.3); either way they arrive
        here as rule text.

        With an analysis policy (``analyze`` argument, falling back to
        the LMR's default), the MDP statically analyzes the rule first
        and the findings are returned; the ``"reject"`` policy raises
        :class:`~repro.errors.RuleAnalysisError` on analyzer errors and
        registers nothing.
        """
        if rule_text in self._subscriptions:
            raise SubscriptionError(
                f"LMR {self.name!r} already subscribed: {rule_text!r}"
            )
        policy = self.analyze if analyze is None else analyze
        diagnostics: list[Diagnostic] = []
        if policy != "off":
            diagnostics = list(
                self._call_provider("analyze", (self.name, rule_text))
            )
            if policy == "reject" and any(d.is_error for d in diagnostics):
                first = next(d for d in diagnostics if d.is_error)
                raise RuleAnalysisError(
                    f"subscription rejected by analysis: "
                    f"[{first.code}] {first.message}",
                    diagnostics=diagnostics,
                )
        subscriptions = self._call_provider(
            "subscribe", (self.name, rule_text)
        )
        self._subscriptions[rule_text] = [s.sub_id for s in subscriptions]
        return diagnostics

    def unsubscribe(self, rule_text: str) -> None:
        """Cancel a subscription and evict its no-longer-covered matches."""
        sub_ids = self._subscriptions.pop(rule_text, None)
        if sub_ids is None:
            raise SubscriptionError(
                f"LMR {self.name!r} is not subscribed: {rule_text!r}"
            )
        self._call_provider("unsubscribe", (self.name, rule_text))
        for sub_id in sub_ids:
            self.cache.drop_subscription(sub_id)

    def subscriptions(self) -> list[str]:
        return sorted(self._subscriptions)

    # ------------------------------------------------------------------
    # Notification handling
    # ------------------------------------------------------------------
    def apply_batch(self, batch: NotificationBatch) -> bool:
        """Apply one notification batch to the cache.

        Within a batch, matches are applied before unmatches and
        deletions so content refreshes never race against evictions of
        the same publish event.

        Batches carrying reliable-delivery metadata are applied exactly
        once: a redelivered ``(source, seq)`` pair is counted in the
        dedup index and ignored.  Returns ``True`` when the batch was
        applied, ``False`` for a duplicate.
        """
        self.batches_received += 1
        self._m_batches_received.inc()
        if batch.source is not None and batch.seq is not None:
            if not self.dedup.check_and_record(batch.source, batch.seq):
                self._m_duplicates.inc()
                return False
        self.clock += 1
        self.notifications_received += len(batch)
        self._m_batches_applied.inc()
        self._m_notifications.inc(len(batch))
        matches = [n for n in batch if isinstance(n, MatchNotification)]
        unmatches = [n for n in batch if isinstance(n, UnmatchNotification)]
        deletes = [n for n in batch if isinstance(n, DeleteNotification)]
        self.cache.apply_matches(
            ((n.sub_id, n.payload) for n in matches), now=self.clock
        )
        for notification in unmatches:
            self.cache.apply_unmatch(notification.sub_id, notification.uri)
        for notification in deletes:
            self.cache.apply_delete(notification.uri)
        return True

    def resync(self, max_attempts: int = 25) -> None:
        """Ask the provider to replay batches missed while unreachable.

        Sends the highest applied sequence number; the provider
        redrives dead letters and re-sends everything newer.  Replayed
        duplicates are absorbed by the ``(source, seq)`` dedup index.
        Without a bus the provider is called directly — the path a
        durable direct-connected deployment uses after a restart.  With
        a bus the request is idempotent, so transient link faults are
        retried (with backoff on the simulated clock) up to
        ``max_attempts`` times before the last error propagates.
        """
        watermark = self.dedup.highest(self.provider.name)
        if self.bus is None:
            if self.provider.outbox is None:
                return
            self._m_resyncs.inc()
            self.provider.resync_subscriber(self.name, watermark)
            return
        self._m_resyncs.inc()
        for attempt in range(max_attempts):
            try:
                self.bus.send(
                    self.name,
                    self.provider.name,
                    "resync",
                    (self.name, watermark),
                )
                return
            except NetworkError:
                if attempt == max_attempts - 1:
                    raise
                self.bus.sleep(2.0 * (attempt + 1))

    # ------------------------------------------------------------------
    # Crash recovery (docs/DURABILITY.md)
    # ------------------------------------------------------------------
    def reattach(self, provider: MetadataProvider) -> None:
        """Rebind to a restarted provider object (same logical node).

        The LMR survives the provider's crash; when a new provider
        process comes up on the same store, the LMR re-registers its
        batch handler and rebuilds its rule-text → subscription-id map
        from the provider's (persisted) registry.  The dedup index is
        kept: the restarted provider resumes its sequence stream from
        the persisted watermark, so already-applied batches that get
        redelivered are recognised and ignored.
        """
        self.provider = provider
        if self.bus is None:
            provider.connect_subscriber(self.name, self.apply_batch)
        subscriptions: dict[str, list[int]] = {}
        for subscription in provider.registry.subscriptions_of(self.name):
            base_text = subscription.rule_text.split("#or")[0]
            subscriptions.setdefault(base_text, []).append(
                subscription.sub_id
            )
        self._subscriptions = subscriptions

    def catch_up_from_snapshot(self, snapshot: Database) -> int:
        """Rebuild the cache from a provider snapshot, then resync.

        Restores a *blank* LMR (a replacement node, or one whose cache
        was lost) from a provider :meth:`~MetadataProvider.snapshot`:
        the cache is filled with every resource the snapshot's
        ``materialized`` table records for this LMR's subscriptions,
        the dedup index is primed with the snapshot's outbox watermark
        — everything at or below it is already reflected in the cache —
        and a :meth:`resync` replays the stream *after* the watermark
        from the live provider.  Returns the number of cached matches.
        """
        row = snapshot.query_one(
            "SELECT MAX(seq) AS high FROM outbox_messages "
            "WHERE destination = ?",
            (self.name,),
        )
        watermark = (
            int(row["high"])
            if row is not None and row["high"] is not None
            else 0
        )
        documents: dict[str, Document | None] = {}

        def lookup(uri: URIRef | str) -> Resource | None:
            reference = URIRef(uri)
            document_uri = reference.document_uri
            if document_uri not in documents:
                doc_row = snapshot.query_one(
                    "SELECT xml FROM documents WHERE uri = ?",
                    (document_uri,),
                )
                documents[document_uri] = (
                    parse_document(doc_row["xml"], document_uri, self.schema)
                    if doc_row is not None
                    else None
                )
            document = documents[document_uri]
            return document.get(reference) if document is not None else None

        cached = 0
        subscriptions: dict[str, list[int]] = {}
        for sub in snapshot.query_all(
            "SELECT sub_id, end_rule, rule_text FROM subscriptions "
            "WHERE subscriber = ? ORDER BY sub_id",
            (self.name,),
        ):
            base_text = sub["rule_text"].split("#or")[0]
            subscriptions.setdefault(base_text, []).append(int(sub["sub_id"]))
            for match in snapshot.query_all(
                "SELECT uri_reference FROM materialized WHERE rule_id = ? "
                "ORDER BY uri_reference",
                (sub["end_rule"],),
            ):
                resource = lookup(match["uri_reference"])
                if resource is None:
                    continue
                closure = strong_closure(resource, self.schema, lookup)
                payload = ResourcePayload(
                    resource=resource.copy(),
                    strong_closure=[child.copy() for child in closure],
                )
                self.clock += 1
                self.cache.apply_match(
                    int(sub["sub_id"]), payload, now=self.clock
                )
                cached += 1
        self._subscriptions = subscriptions
        self.dedup.prime(self.provider.name, watermark)
        self.resync()
        return cached

    # ------------------------------------------------------------------
    # Query processing (local only)
    # ------------------------------------------------------------------
    def query(self, query_text: str) -> list[Resource]:
        """Evaluate a query against local data only.

        Queries referencing *named rules* as extensions need the named
        rules' definitions, which live at the MDP; they are fetched once
        and cached, so only the first such query crosses the network.
        """
        query = parse_query(query_text)
        unknown = [
            ext.name
            for ext in query.extensions
            if not self.schema.has_class(ext.name)
        ]
        if unknown:
            from repro.rules.inline import inline_named_query
            from repro.rules.parser import parse_rule

            definitions = {
                name: parse_rule(text)
                for name, text in self._named_definitions().items()
            }
            query = inline_named_query(query, definitions)
        pool = {r.uri: r for r in self.cache.resources()}
        pool.update(self._local)
        return evaluate_query(query, pool, self.schema)

    def query_with_status(self, query_text: str) -> CachedQueryResult:
        """Evaluate a query, degrading gracefully when the MDP is away.

        The cache always answers; what the provider's reachability
        decides is the *staleness marker*.  During a partition (or
        provider crash) the result is flagged ``stale`` instead of
        raising — the cache may lag behind the backbone until pending
        notifications are redelivered.  A query whose named-rule
        extensions cannot be resolved (definitions live at the MDP and
        were never fetched) comes back empty and stale rather than
        failing.
        """
        try:
            resources = self.query(query_text)
        except NetworkError as exc:
            self._m_stale_reads.inc()
            return CachedQueryResult(
                resources=[],
                stale=True,
                reason=(
                    f"named-rule definitions unavailable while provider "
                    f"is unreachable: {exc}"
                ),
            )
        if not self.provider_reachable():
            self._m_stale_reads.inc()
            return CachedQueryResult(
                resources=resources,
                stale=True,
                reason="provider unreachable; serving cached results",
            )
        return CachedQueryResult(resources=resources)

    def provider_reachable(self, attempts: int = 3) -> bool:
        """Probe the provider (pings over the bus).

        A single lost ping on a lossy-but-connected link must not flag
        query results stale, so the probe retries a few times; during a
        real partition or crash every attempt fails fast anyway.
        """
        if self.bus is None:
            return True
        for attempt in range(attempts):
            try:
                self.bus.send(self.name, self.provider.name, "ping", None)
            except NetworkError:
                if attempt < attempts - 1:
                    self.bus.sleep(1.0)
                continue
            return True
        return False

    def _named_definitions(self) -> dict[str, str]:
        if not hasattr(self, "_named_definition_cache"):
            if self.bus is not None:
                fetched = self.bus.send(
                    self.name, self.provider.name, "named_definitions", None
                )
            else:
                fetched = self.provider.registry.named_rule_definitions()
            self._named_definition_cache = dict(fetched)
        return self._named_definition_cache

    # ------------------------------------------------------------------
    # Metadata registration
    # ------------------------------------------------------------------
    def register_local_document(self, document: Document) -> int:
        """Store local metadata; never forwarded to the backbone."""
        self.schema.validate_document(document)
        for resource in document:
            self._local[resource.uri] = resource
        return len(document)

    def register_document(self, document: Document):
        """Forward a global registration to the MDP."""
        return self._call_provider("register_document", document)

    def delete_document(self, document_uri: str):
        return self._call_provider("delete_document", document_uri)

    # ------------------------------------------------------------------
    # Garbage collection and expiry
    # ------------------------------------------------------------------
    def collect_garbage(self, cycles: bool = False) -> GcReport:
        if cycles:
            return self.collector.collect_cycles(self.cache)
        return self.collector.sweep(self.cache)

    def expire(self, ttl: int) -> int:
        """TTL expiry pass (for providers in ``consistency="ttl"`` mode).

        Evicts cached entries not refreshed within ``ttl`` notification
        batches; local metadata never expires.  Returns the number of
        evictions.
        """
        from repro.mdv.consistency import expire_stale_entries

        return expire_stale_entries(self.cache, now=self.clock, ttl=ttl)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _call_provider(self, kind: str, payload):
        if self.bus is not None:
            return self.bus.send(self.name, self.provider.name, kind, payload)
        if kind == "subscribe":
            return self.provider.subscribe(*payload)
        if kind == "analyze":
            subscriber, rule_text = payload
            return self.provider.analyze_rule(rule_text, subscriber=subscriber)
        if kind == "unsubscribe":
            return self.provider.unsubscribe(*payload)
        if kind == "register_document":
            return self.provider.register_document(payload)
        if kind == "delete_document":
            return self.provider.delete_document(payload)
        raise RepositoryError(f"unknown provider call {kind!r}")

    def _handle_message(self, message: Message):
        if message.kind == "notifications":
            batch: NotificationBatch = message.payload
            applied = self.apply_batch(batch)
            return batch.ack(duplicate=not applied)
        if message.kind == "query":
            return self.query(message.payload)
        raise RepositoryError(f"unknown message kind {message.kind!r}")

    def stats(self) -> dict[str, int]:
        stats = self.cache.stats()
        stats["local_resources"] = len(self._local)
        stats["notifications"] = self.notifications_received
        stats["batches_received"] = self.batches_received
        stats["batches_applied"] = self.dedup.applied
        stats["duplicates_ignored"] = self.dedup.duplicates_ignored
        return stats

    def configure_lan_latency(self) -> None:
        """Mark the LMR↔client links as LAN-cheap on the bus, if any.

        Latency modelling is a simulated-bus concept; transports
        without per-link latency (real sockets) are left alone.
        """
        set_latency = getattr(self.bus, "set_latency", None)
        if callable(set_latency):
            set_latency(self.name, self.name, DEFAULT_LAN_LATENCY_MS)
