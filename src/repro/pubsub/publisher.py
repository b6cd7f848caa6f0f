"""Turning filter outcomes into per-subscriber notification batches.

After the filter terminates, "all resources produced by end rules are
transmitted to the appropriate LMRs" (paper, Section 3.4).  The
:class:`Publisher` performs the routing: it expands each end rule's
matches/unmatches to the subscriptions registered on it, attaches
resource content plus strong-reference closure to match notifications,
and appends delete notifications for removed resources.
"""

from __future__ import annotations

from repro.filter.results import PublishOutcome
from repro.pubsub.closure import ResourceLookup, strong_closure
from repro.pubsub.notifications import (
    DeleteNotification,
    MatchNotification,
    NotificationBatch,
    ResourcePayload,
    UnmatchNotification,
)
from repro.rdf.model import Resource, URIRef
from repro.rdf.schema import Schema
from repro.rules.registry import RuleRegistry

__all__ = ["Publisher"]


class Publisher:
    """Routes one :class:`PublishOutcome` to subscriber batches."""

    def __init__(self, schema: Schema, registry: RuleRegistry, lookup: ResourceLookup):
        self._schema = schema
        self._registry = registry
        self._lookup = lookup
        #: Total notifications produced (diagnostics / benchmarks).
        self.notifications_sent = 0

    def build_payload(self, resource: Resource) -> ResourcePayload:
        """Content plus strong closure, deep-copied for transmission."""
        closure = strong_closure(resource, self._schema, self._lookup)
        return ResourcePayload(
            resource=resource.copy(),
            strong_closure=[child.copy() for child in closure],
        )

    def batches_for(self, outcome: PublishOutcome) -> list[NotificationBatch]:
        """One batch per subscriber that has anything to hear about."""
        touched_rules = set(outcome.matched) | set(outcome.unmatched)
        subscriptions = self._registry.subscriptions_for(touched_rules)
        batches: dict[str, NotificationBatch] = {}

        def batch(subscriber: str) -> NotificationBatch:
            if subscriber not in batches:
                batches[subscriber] = NotificationBatch(subscriber)
            return batches[subscriber]

        # One lookup and one payload per distinct resource, however
        # many subscriptions it matched; None = the reference dangles.
        payload_cache: dict[URIRef, ResourcePayload | None] = {}
        for subscription in subscriptions:
            if subscription.subscriber.startswith("~named~"):
                # Named rules are building blocks, not delivery targets.
                continue
            for uri in sorted(outcome.matched.get(subscription.end_rule, ())):
                if uri not in payload_cache:
                    resource = self._lookup(uri)
                    payload_cache[uri] = (
                        None
                        if resource is None
                        else self.build_payload(resource)
                    )
                payload = payload_cache[uri]
                if payload is None:
                    continue
                batch(subscription.subscriber).notifications.append(
                    MatchNotification(
                        subscription.sub_id, subscription.rule_text, payload
                    )
                )
            for uri in sorted(outcome.unmatched.get(subscription.end_rule, ())):
                batch(subscription.subscriber).notifications.append(
                    UnmatchNotification(
                        subscription.sub_id, subscription.rule_text, uri
                    )
                )

        if outcome.deleted:
            # Deletions are broadcast: any LMR may hold a copy through a
            # strong reference even without a matching rule (Section 2.4).
            for subscriber in self._registry.subscribers():
                if subscriber.startswith("~named~"):
                    continue
                for uri in sorted(outcome.deleted):
                    batch(subscriber).notifications.append(
                        DeleteNotification(uri)
                    )

        result = [batches[name] for name in sorted(batches)]
        self.notifications_sent += sum(len(b) for b in result)
        return result

    def initial_batch(
        self, subscriber: str, sub_id: int, rule_text: str, matches: list[URIRef]
    ) -> NotificationBatch:
        """The batch filling a brand-new subscription with current matches."""
        notifications = []
        for uri in sorted(matches):
            resource = self._lookup(uri)
            if resource is None:
                continue
            notifications.append(
                MatchNotification(sub_id, rule_text, self.build_payload(resource))
            )
        self.notifications_sent += len(notifications)
        return NotificationBatch(subscriber, notifications)
