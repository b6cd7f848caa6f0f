"""Garbage collection for LMR caches (paper, Section 2.4).

The paper's MDV uses a reference-counting collector to remove resources
that were transmitted only because of strong references once the
referencing resource disappears.  In this implementation the reference
counts live on the cache entries and cascade eagerly (see
:mod:`repro.mdv.cache`), so the collector here serves two roles:

- :meth:`GarbageCollector.sweep` — a defensive full pass that evicts any
  entry whose bookkeeping says it is unreachable (it finds nothing when
  the eager cascade is correct; tests assert exactly that);
- :meth:`GarbageCollector.collect_cycles` — a mark-and-sweep pass that
  also reclaims *cyclic* strong-reference clusters, which reference
  counting alone can never free.  The paper does not address cycles;
  this is an extension documented in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mdv.cache import CacheStore
from repro.pubsub.closure import strong_targets
from repro.rdf.model import URIRef
from repro.rdf.schema import Schema

__all__ = ["GcReport", "GarbageCollector"]


@dataclass
class GcReport:
    """Outcome of one collection pass."""

    examined: int = 0
    evicted: int = 0
    cycles_broken: int = 0

    def __str__(self) -> str:
        return (
            f"gc(examined={self.examined}, evicted={self.evicted}, "
            f"cycles={self.cycles_broken})"
        )


class GarbageCollector:
    """Collects unreachable entries of one :class:`CacheStore`."""

    def __init__(self, schema: Schema):
        self._schema = schema

    def sweep(self, cache: CacheStore) -> GcReport:
        """Evict every entry that is not retained (refcount-based pass)."""
        report = GcReport()
        for uri in list(cache.uris()):
            entry = cache.get(uri)
            if entry is None:
                continue
            report.examined += 1
            if not entry.retained:
                cache.apply_delete(uri)
                report.evicted += 1
        return report

    def collect_cycles(self, cache: CacheStore) -> GcReport:
        """Mark from the roots, sweep unmarked strong-only entries.

        Roots are entries retained for a reason *other than* strong
        references: a matching rule or local registration.  Everything
        reachable from a root over strong reference edges is live; the
        rest — including strong-reference cycles that keep each other's
        refcount positive — is reclaimed.
        """
        report = GcReport()
        marked: set[URIRef] = set()
        frontier: list[URIRef] = []
        for uri in cache.uris():
            entry = cache.get(uri)
            if entry is None:
                continue
            report.examined += 1
            if entry.matched_subs or entry.is_local:
                marked.add(uri)
                frontier.append(uri)
        while frontier:
            current = frontier.pop()
            entry = cache.get(current)
            if entry is None:
                continue
            for target in strong_targets(entry.resource, self._schema):
                if target not in marked and cache.get(target) is not None:
                    marked.add(target)
                    frontier.append(target)
        for uri in list(cache.uris()):
            if uri not in marked:
                cache.apply_delete(uri)
                report.evicted += 1
                report.cycles_broken += 1
        return report
