"""The LMR cache store with rule-match and strong-reference accounting.

An LMR's cache "should contain relevant metadata, appropriate to the
users or applications using it" (paper, Section 2.2).  Every cached
resource therefore tracks *why* it is cached:

- ``matched_subs`` — the subscriptions whose rules currently match it.
  A resource evicted from the last matching rule leaves the cache
  ("It must be removed from an LMR's cache if this was the only rule the
  resource matched" — Section 3.5) …
- ``strong_refcount`` — … unless other cached resources strongly
  reference it.  "With strong references an LMR can receive resources
  where there is no corresponding rule for.  An LMR must take care for
  deleting such resources if the resource that caused their transmission
  is deleted.  MDV uses a garbage collector (based on reference
  counting) to detect such resources" (Section 2.4).
- ``is_local`` — local metadata registered directly at the LMR, never
  forwarded to the backbone and never evicted by notifications.

Reference counts are edge-accurate: each cached resource accounts one
count on every *direct* strong target, and content updates reconcile the
old and new target sets.  Cascading eviction is immediate; the separate
:mod:`repro.mdv.gc` module adds a mark-sweep pass for strong-reference
cycles, which pure reference counting cannot reclaim.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.pubsub.notifications import ResourcePayload
from repro.rdf.model import Resource, URIRef
from repro.rdf.schema import Schema
from repro.pubsub.closure import strong_targets

__all__ = ["CacheEntry", "CacheStore"]


@dataclass
class CacheEntry:
    """One cached resource with its retention bookkeeping."""

    resource: Resource
    matched_subs: set[int] = field(default_factory=set)
    strong_refcount: int = 0
    is_local: bool = False

    @property
    def retained(self) -> bool:
        return bool(self.matched_subs) or self.strong_refcount > 0 or self.is_local


class CacheStore:
    """URI-keyed store of :class:`CacheEntry` objects."""

    def __init__(self, schema: Schema):
        self._schema = schema
        self._entries: dict[URIRef, CacheEntry] = {}
        #: Strong edges whose target content has not arrived yet; only
        #: populated within one payload application.
        self._pending_edges: dict[URIRef, int] = {}
        #: Eviction counter (diagnostics; examples report it).
        self.evictions = 0

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    def get(self, uri: URIRef | str) -> CacheEntry | None:
        return self._entries.get(URIRef(uri))

    def resource(self, uri: URIRef | str) -> Resource | None:
        entry = self.get(uri)
        return entry.resource if entry else None

    def resources(self) -> list[Resource]:
        return [entry.resource for entry in self._entries.values()]

    def uris(self) -> list[URIRef]:
        return sorted(self._entries)

    def entries(self) -> list[CacheEntry]:
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, uri: object) -> bool:
        return URIRef(str(uri)) in self._entries

    # ------------------------------------------------------------------
    # Content upserts with edge-accurate strong accounting
    # ------------------------------------------------------------------
    def _upsert_content(self, resource: Resource) -> CacheEntry:
        """Insert or update content, reconciling strong-target counts."""
        uri = resource.uri
        entry = self._entries.get(uri)
        new_targets = set(strong_targets(resource, self._schema))
        if entry is None:
            entry = CacheEntry(resource=resource)
            self._entries[uri] = entry
            old_targets: set[URIRef] = set()
        else:
            old_targets = set(strong_targets(entry.resource, self._schema))
            entry.resource = resource
        for gone in old_targets - new_targets:
            self._release_strong(gone)
        for added in new_targets - old_targets:
            target = self._entries.get(added)
            if target is not None:
                target.strong_refcount += 1
            else:
                # Target content not cached yet; the payload walk will
                # insert it and call _account_pending_edges afterwards.
                self._pending_edges.setdefault(added, 0)
                self._pending_edges[added] += 1
        return entry

    def apply_match(self, sub_id: int, payload: ResourcePayload) -> None:
        """Apply a match notification: content + closure + accounting."""
        self._pending_edges: dict[URIRef, int] = {}
        main = self._upsert_content(payload.resource)
        main.matched_subs.add(sub_id)
        for child in payload.strong_closure:
            self._upsert_content(child)
        # Resolve edges whose target arrived later in the payload walk.
        for uri, count in self._pending_edges.items():
            target = self._entries.get(uri)
            if target is not None:
                target.strong_refcount += count
        self._pending_edges = {}

    def apply_matches(
        self, matches: Iterable[tuple[int, ResourcePayload]]
    ) -> None:
        """Apply one batch's ``(sub_id, payload)`` matches, in order,
        upserting each distinct payload resource once.

        A batch describes one provider state, so every payload of a URI
        carries the same content (the very object in-process, a decoded
        copy per notification over the socket).  Upserting equal content
        again changes nothing unless an entry has left the cache since
        the previous upsert began; otherwise the notification only adds
        its subscription.
        """
        upserted_at: dict[URIRef, int] = {}  # URI -> evictions before it
        for sub_id, payload in matches:
            uri = payload.resource.uri
            if upserted_at.get(uri) == self.evictions:
                self._entries[uri].matched_subs.add(sub_id)
                continue
            upserted_at[uri] = self.evictions
            self.apply_match(sub_id, payload)

    def insert_local(self, resource: Resource) -> CacheEntry:
        """Insert local metadata (not subject to notification eviction)."""
        self._pending_edges = {}
        entry = self._upsert_content(resource)
        entry.is_local = True
        for uri, count in self._pending_edges.items():
            target = self._entries.get(uri)
            if target is not None:
                target.strong_refcount += count
        self._pending_edges = {}
        return entry

    # ------------------------------------------------------------------
    # Unmatch / delete / eviction
    # ------------------------------------------------------------------
    def apply_unmatch(self, sub_id: int, uri: URIRef) -> bool:
        """Remove one rule match; returns True when the entry was evicted."""
        entry = self._entries.get(uri)
        if entry is None:
            return False
        entry.matched_subs.discard(sub_id)
        return self._maybe_evict(uri)

    def apply_delete(self, uri: URIRef) -> bool:
        """Drop a resource's content regardless of bookkeeping.

        Serves delete notifications and the collector's evictions alike;
        strong targets are released and cascade as usual.
        """
        entry = self._entries.pop(URIRef(uri), None)
        if entry is None:
            return False
        self.evictions += 1
        for target in strong_targets(entry.resource, self._schema):
            self._release_strong(target)
        return True

    def drop_subscription(self, sub_id: int) -> int:
        """Remove every match of one subscription (unsubscribe cleanup).

        Returns the number of evicted entries — "An LMR must take care
        for deleting such resources if … the according rule is changed or
        removed" (Section 2.4).
        """
        evicted = 0
        for uri in list(self._entries):
            entry = self._entries.get(uri)
            if entry is not None and sub_id in entry.matched_subs:
                entry.matched_subs.discard(sub_id)
                if self._maybe_evict(uri):
                    evicted += 1
        return evicted

    def _release_strong(self, uri: URIRef) -> None:
        entry = self._entries.get(uri)
        if entry is None:
            return
        entry.strong_refcount -= 1
        self._maybe_evict(uri)

    def _maybe_evict(self, uri: URIRef) -> bool:
        entry = self._entries.get(uri)
        if entry is None or entry.retained:
            return False
        del self._entries[uri]
        self.evictions += 1
        for target in strong_targets(entry.resource, self._schema):
            self._release_strong(target)
        return True

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        matched = sum(1 for e in self._entries.values() if e.matched_subs)
        strong_only = sum(
            1
            for e in self._entries.values()
            if not e.matched_subs and not e.is_local and e.strong_refcount > 0
        )
        local = sum(1 for e in self._entries.values() if e.is_local)
        return {
            "entries": len(self._entries),
            "matched": matched,
            "strong_only": strong_only,
            "local": local,
            "evictions": self.evictions,
        }
