"""The MDV backbone: replicated Metadata Providers (paper, Section 2.2).

"Metadata Providers (MDPs), referred to as (MDV) backbone, are
distributed all over the Internet to provide a uniform access regarding
network latency and metadata content.  MDPs accomplish the latter by
sharing the same schema and consistently replicating metadata among each
other.  Basically, the backbone is an extension of a distributed DBMS
with a flat hierarchy, full synchronization, and replication."

This module implements that flat, fully synchronized topology over an
unreliable network: a document registered (or deleted) at any provider
is replicated to every peer through a reliable per-origin outbox
(:mod:`repro.mdv.outbox`) — at-least-once delivery with retry/backoff,
exactly-once application through ``(source, seq)`` dedup and
``(counter, origin)`` document versions.  A failing peer never aborts
the fan-out to the others; its backlog is tracked and surfaced through
:meth:`Backbone.lag_report` until :meth:`Backbone.recover` (retry
drain + digest-exchange anti-entropy) converges the backbone again,
e.g. after a partition heals.  More sophisticated partitioning schemes
are explicitly out of the paper's scope (its footnote 1) and out of
ours.
"""

from __future__ import annotations

from typing import Any

from repro.errors import MDVError, NetworkError
from repro.filter.results import PublishOutcome
from repro.mdv.outbox import Outbox, ReplicaUpdate
from repro.mdv.provider import MetadataProvider
from repro.net.transport import Transport
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.rdf.model import Document
from repro.rdf.schema import Schema

__all__ = ["Backbone"]


class Backbone:
    """A flat set of fully synchronized MDPs."""

    def __init__(
        self,
        schema: Schema,
        bus: Transport | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.schema = schema
        self.bus = bus
        self.providers: dict[str, MetadataProvider] = {}
        self.replications = 0
        #: Outboxes for bus-less backbones (direct peer calls); with a
        #: bus each provider's own outbox carries the replication.
        self._direct_outboxes: dict[str, Outbox] = {}
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_replications = self.metrics.counter("backbone.replications")
        self._m_repairs = self.metrics.counter(
            "backbone.anti_entropy_repairs"
        )
        self._m_recoveries = self.metrics.counter("backbone.recoveries")
        self._g_lag = self.metrics.gauge("backbone.replication_lag")

    def add_provider(self, name: str, **options: Any) -> MetadataProvider:
        """Create and wire a new MDP into the backbone.

        ``options`` are :class:`MetadataProvider` keyword arguments
        (``db``, ``metrics``, ``triggering``, …); the backbone supplies
        the schema, the name and the bus.
        """
        if name in self.providers:
            raise MDVError(f"provider {name!r} already exists")
        provider = MetadataProvider(
            self.schema, name=name, bus=self.bus, **options
        )
        provider.set_replication_hook(
            lambda uri, doc, version, origin=name: self._replicate(
                origin, uri, doc, version
            )
        )
        self.providers[name] = provider
        return provider

    def provider(self, name: str) -> MetadataProvider:
        try:
            return self.providers[name]
        except KeyError:
            raise MDVError(f"no provider named {name!r}") from None

    # ------------------------------------------------------------------
    # Replication (reliable, partial-failure tolerant)
    # ------------------------------------------------------------------
    def _outbox_for(self, origin: str) -> Outbox:
        provider = self.providers[origin]
        if provider.outbox is not None:
            return provider.outbox
        outbox = self._direct_outboxes.get(origin)
        if outbox is None:
            outbox = Outbox(origin, transport=self._direct_transport)
            self._direct_outboxes[origin] = outbox
        return outbox

    def _direct_transport(self, destination: str, kind: str,
                          payload: Any) -> Any:
        """Bus-less transport: apply the replica on the peer directly."""
        peer = self.providers[destination]
        update: ReplicaUpdate = payload
        return peer.apply_replica(
            update.document_uri,
            update.document,
            version=update.version,
            source=update.source,
            seq=update.seq,
        )

    def _replicate(
        self,
        origin: str,
        document_uri: str,
        document: Document | None,
        version: tuple[int, str],
    ) -> None:
        """Queue a change from ``origin`` for every peer MDP.

        Each peer has its own outbox queue: a peer that is down, cut
        off, or raising never blocks the fan-out to the others.  The
        flush attempts immediate delivery; whatever fails stays queued
        (or dead-letters) and shows up in :meth:`lag_report`.
        """
        outbox = self._outbox_for(origin)
        for name in self.providers:
            if name == origin:
                continue
            self.replications += 1
            self._m_replications.inc()
            seq = outbox.reserve_seq(name)
            update = ReplicaUpdate(
                document_uri, document, version, origin, seq
            )
            outbox.enqueue(name, "replicate", update, seq)
        outbox.flush()

    # ------------------------------------------------------------------
    # Convenience entry points
    # ------------------------------------------------------------------
    def register_document(
        self, document: Document, at: str | None = None
    ) -> PublishOutcome:
        """Register at one provider; replication fans out to the rest."""
        name = at or next(iter(self.providers), None)
        if name is None:
            raise MDVError("backbone has no providers")
        return self.provider(name).register_document(document)

    def delete_document(self, document_uri: str, at: str | None = None):
        name = at or next(iter(self.providers), None)
        if name is None:
            raise MDVError("backbone has no providers")
        return self.provider(name).delete_document(document_uri)

    # ------------------------------------------------------------------
    # Lag tracking and recovery
    # ------------------------------------------------------------------
    def _outboxes(self) -> dict[str, Outbox]:
        boxes: dict[str, Outbox] = {}
        for name, provider in self.providers.items():
            if provider.outbox is not None:
                boxes[name] = provider.outbox
        boxes.update(self._direct_outboxes)
        return boxes

    def lag_report(self) -> dict[str, dict[str, Any]]:
        """Per-link replication backlog, keyed ``"origin->peer"``.

        Only provider-to-provider lag is reported; notification backlog
        toward LMRs lives in each provider's own outbox lag report.
        """
        report: dict[str, dict[str, Any]] = {}
        for origin, outbox in self._outboxes().items():
            for destination, lag in outbox.lag_report().items():
                if destination in self.providers:
                    report[f"{origin}->{destination}"] = lag
        return report

    def replication_lag(self) -> int:
        """Total queued + dead-lettered replica updates backbone-wide."""
        total = 0
        for lag in self.lag_report().values():
            total += int(lag["pending"]) + int(lag["dead"])
        self._g_lag.set(total)
        return total

    def recover(self, anti_entropy: bool = True) -> dict[str, int]:
        """Converge the backbone after failures heal.

        Dead-lettered replica updates are redriven and every outbox is
        drained (backoff windows are slept out on the simulated clock);
        then a digest-exchange anti-entropy pass fills any remaining
        holes (e.g. from messages dead-lettered at a crashed-and-wiped
        peer), and a final drain pushes out the notifications those
        repairs produced.
        """
        redriven = 0
        delivered = 0
        for outbox in self._outboxes().values():
            redriven += outbox.redrive()
            delivered += outbox.drain()
        repaired = self.reconcile() if anti_entropy else 0
        for outbox in self._outboxes().values():
            delivered += outbox.drain()
        self._m_recoveries.inc()
        return {
            "redriven": redriven,
            "delivered": delivered,
            "repaired": repaired,
        }

    # ------------------------------------------------------------------
    # Anti-entropy (digest exchange)
    # ------------------------------------------------------------------
    def reconcile(self) -> int:
        """One full anti-entropy round: every provider pulls from every
        peer whatever the peer holds in a strictly newer version.

        Digests map document URI to ``(counter, origin)`` version
        (tombstones included), so deletions propagate too.  Unreachable
        peers are skipped — run again after the network heals.  Returns
        the number of replica updates applied.
        """
        applied = 0
        names = sorted(self.providers)
        for puller in names:
            for holder in names:
                if puller != holder:
                    applied += self._pull(puller, holder)
        if applied:
            self._m_repairs.inc(applied)
        return applied

    def _pull(self, puller: str, holder: str) -> int:
        puller_provider = self.providers[puller]
        try:
            if self.bus is not None:
                digest = self.bus.send(puller, holder, "digest", None)
            else:
                digest = self.providers[holder].version_digest()
        except NetworkError:
            return 0
        applied = 0
        local = puller_provider.version_digest()
        for uri in sorted(digest):
            version = digest[uri]
            mine = local.get(uri)
            if mine is not None and mine >= version:
                continue
            try:
                if self.bus is not None:
                    document, held_version = self.bus.send(
                        puller, holder, "fetch_document", uri
                    )
                else:
                    document, held_version = self.providers[
                        holder
                    ].fetch_document(uri)
            except NetworkError:
                continue
            if held_version is None:
                continue
            outcome = puller_provider.apply_replica(
                uri, document, version=held_version
            )
            if outcome == "applied":
                applied += 1
        return applied

    def is_synchronized(self) -> bool:
        """All providers hold the same documents and nothing is in flight."""
        if self.replication_lag():
            return False
        snapshots = [
            {
                uri: provider.document(uri)
                for uri in provider.document_uris()
            }
            for provider in self.providers.values()
        ]
        return all(snapshot == snapshots[0] for snapshot in snapshots[1:])
