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

**Layout and cost per item.**  An entry is a four-slot record
(:class:`CacheEntry`); ``matched_subs`` is an immutable tuple of
subscription ids, sorted so that two LMRs that received the same
matches in a different order hold equal entries, and ``()`` when no
rule matches.  :meth:`CacheStore.apply_matches` builds each touched
entry's tuple once per batch, so a batch adding K subscriptions to an
entry holding n costs O(K + n).  Beside the entries the store keeps, per
subscription, the URIs it has matched (appended at its first match of
an entry) and its count of live matches, so :meth:`CacheStore
.drop_subscription` visits that subscription's entries only, however
large the cache.  The tuples stay the record of truth: a listed URI
whose entry is gone or no longer holds the subscription is skipped, and
a list is compacted once it holds more than twice its live count plus
:data:`_LIST_SLACK`.  Traced with :mod:`tracemalloc` (the resource
itself, which the notification payload shares, excluded), the
bookkeeping costs about 100 B per entry that no rule matches and about
340 B per entry that twelve rules match, about 9 B of it per
(subscription, URI) pair in the match lists.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable

from repro.pubsub.notifications import ResourcePayload
from repro.rdf.model import Resource, URIRef
from repro.rdf.schema import Schema
from repro.pubsub.closure import strong_targets

__all__ = ["CacheEntry", "CacheStore"]

#: Stale URIs a subscription's match list may carry beyond twice its
#: live count before it is compacted.
_LIST_SLACK = 8


class CacheEntry:
    """One cached resource with its retention bookkeeping.

    ``matched_subs`` is a sorted tuple of subscription ids; the store
    replaces it rather than mutating it.
    """

    __slots__ = ("resource", "matched_subs", "strong_refcount", "is_local")

    def __init__(self, resource: Resource):
        self.resource = resource
        self.matched_subs: tuple[int, ...] = ()
        self.strong_refcount = 0
        self.is_local = False

    def __repr__(self) -> str:
        return (
            f"CacheEntry({self.resource.uri!s}, "
            f"matched_subs={self.matched_subs!r}, "
            f"strong_refcount={self.strong_refcount}, "
            f"is_local={self.is_local})"
        )

    @property
    def retained(self) -> bool:
        return bool(self.matched_subs) or self.strong_refcount > 0 or self.is_local

    def unmatch(self, sub_id: int) -> bool:
        """Take ``sub_id`` out of ``matched_subs``; False when absent."""
        subs = self.matched_subs
        at = bisect_left(subs, sub_id)
        if at == len(subs) or subs[at] != sub_id:
            return False
        self.matched_subs = subs[:at] + subs[at + 1 :]
        return True


class CacheStore:
    """URI-keyed store of :class:`CacheEntry` objects."""

    def __init__(self, schema: Schema):
        self._schema = schema
        self._entries: dict[URIRef, CacheEntry] = {}
        #: Strong edges whose target content has not arrived yet; only
        #: populated within one payload application.
        self._pending_edges: dict[URIRef, int] = {}
        #: sub id -> URIs it has matched, possibly stale or repeated.
        self._sub_uris: dict[int, list[URIRef]] = {}
        #: sub id -> number of entries whose tuple holds it.
        self._sub_live: dict[int, int] = {}
        #: Eviction counter (diagnostics; examples report it).
        self.evictions = 0
        #: Entries :meth:`drop_subscription` visited (diagnostics).
        self.unsubscribe_visits = 0

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
            entry = CacheEntry(resource)
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
                # insert it and _account_pending_edges resolves it.
                self._pending_edges.setdefault(added, 0)
                self._pending_edges[added] += 1
        return entry

    def _account_pending_edges(self) -> None:
        """Count edges whose target arrived later in the payload walk."""
        for uri, count in self._pending_edges.items():
            target = self._entries.get(uri)
            if target is not None:
                target.strong_refcount += count
        self._pending_edges = {}

    def apply_match(self, sub_id: int, payload: ResourcePayload) -> None:
        """Apply a match notification: content + closure + accounting."""
        self.apply_matches(((sub_id, payload),))

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

        Each touched entry's tuple is built once, after the loop.  A
        matched entry is never evicted, so an entry no rule matched
        holds its first subscription at once — before an upsert can
        release the last strong reference to it — and every touched
        entry is still there to merge into.
        """
        upserted_at: dict[URIRef, int] = {}  # URI -> evictions before it
        #: URI -> (its tuple before this batch, the batch's sub ids)
        touched: dict[URIRef, tuple[tuple[int, ...], list[int]]] = {}
        for sub_id, payload in matches:
            uri = payload.resource.uri
            if uri in touched:
                touched[uri][1].append(sub_id)
                if upserted_at[uri] == self.evictions:
                    continue
            else:
                entry = self._entries.get(uri)
                touched[uri] = (
                    () if entry is None else entry.matched_subs, [sub_id]
                )
                if entry is not None and not entry.matched_subs:
                    entry.matched_subs = (sub_id,)
            upserted_at[uri] = self.evictions
            self._pending_edges = {}
            main = self._upsert_content(payload.resource)
            if not main.matched_subs:
                main.matched_subs = (sub_id,)
            for child in payload.strong_closure:
                self._upsert_content(child)
            self._account_pending_edges()
        for uri, (before, sub_ids) in touched.items():
            merged = set(before)
            merged.update(sub_ids)
            if len(merged) > len(before):
                self._entries[uri].matched_subs = tuple(sorted(merged))
                self._list_match(uri, merged.difference(before))

    def insert_local(self, resource: Resource) -> CacheEntry:
        """Insert local metadata (not subject to notification eviction)."""
        self._pending_edges = {}
        entry = self._upsert_content(resource)
        entry.is_local = True
        self._account_pending_edges()
        return entry

    # ------------------------------------------------------------------
    # Per-subscription match lists
    # ------------------------------------------------------------------
    def _list_match(self, uri: URIRef, sub_ids: Iterable[int]) -> None:
        """List ``uri`` under each subscription that newly matches it."""
        sub_uris = self._sub_uris
        sub_live = self._sub_live
        for sub_id in sub_ids:
            uris = sub_uris.get(sub_id)
            if uris is None:
                sub_uris[sub_id] = [uri]
                sub_live[sub_id] = 1
                continue
            uris.append(uri)
            live = sub_live[sub_id] + 1
            sub_live[sub_id] = live
            if len(uris) > 2 * live + _LIST_SLACK:
                self._compact(sub_id)

    def _lose_match(self, sub_id: int) -> None:
        """Account one live match of ``sub_id`` as gone."""
        live = self._sub_live.get(sub_id)
        if live is None:
            return
        if live == 1:
            del self._sub_live[sub_id]
            del self._sub_uris[sub_id]
            return
        self._sub_live[sub_id] = live - 1
        if len(self._sub_uris[sub_id]) > 2 * (live - 1) + _LIST_SLACK:
            self._compact(sub_id)

    def _compact(self, sub_id: int) -> None:
        """Drop repeated and stale URIs from one subscription's list."""
        entries = self._entries
        self._sub_uris[sub_id] = [
            uri
            for uri in dict.fromkeys(self._sub_uris[sub_id])
            if uri in entries and sub_id in entries[uri].matched_subs
        ]

    # ------------------------------------------------------------------
    # Unmatch / delete / eviction
    # ------------------------------------------------------------------
    def apply_unmatch(self, sub_id: int, uri: URIRef) -> bool:
        """Remove one rule match; returns True when the entry was evicted."""
        entry = self._entries.get(uri)
        if entry is None:
            return False
        if entry.unmatch(sub_id):
            self._lose_match(sub_id)
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
        for sub_id in entry.matched_subs:
            self._lose_match(sub_id)
        for target in strong_targets(entry.resource, self._schema):
            self._release_strong(target)
        return True

    def drop_subscription(self, sub_id: int) -> int:
        """Remove every match of one subscription (unsubscribe cleanup).

        Walks the subscription's own match list, not the cache.  Returns
        the number of evicted entries — "An LMR must take care for
        deleting such resources if … the according rule is changed or
        removed" (Section 2.4).
        """
        uris = self._sub_uris.pop(sub_id, [])
        self._sub_live.pop(sub_id, None)
        self.unsubscribe_visits += len(uris)
        evicted = 0
        for uri in uris:
            entry = self._entries.get(uri)
            if entry is not None and entry.unmatch(sub_id):
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
