"""Result types of filter runs and of the update/delete algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rdf.model import URIRef

__all__ = ["FilterRunResult", "PublishOutcome"]


@dataclass
class FilterRunResult:
    """The outcome of one execution of the filter (one pass).

    ``pairs`` holds the distinct ``(rule_id, uri_reference)`` pairs the
    run derived — triggering hits and join results of every iteration,
    whether they passed through ``ResultObjects`` or were handed on
    directly because no join reads their rule — restricted by the run's
    ``collect`` mode; ``by_rule`` groups them.  ``iterations`` counts
    join-evaluation waves (the paper bounds it by the longest
    dependency-graph path); ``triggering_hits`` is the number of
    distinct triggering hits.
    """

    pairs: set[tuple[int, URIRef]] = field(default_factory=set)
    iterations: int = 0
    triggering_hits: int = 0
    #: Wall time spent matching triggering rules (iteration 0).
    triggering_seconds: float = 0.0
    #: Wall time spent in join-rule (group) iterations.
    join_seconds: float = 0.0

    @property
    def by_rule(self) -> dict[int, set[URIRef]]:
        grouped: dict[int, set[URIRef]] = {}
        for rule_id, uri in self.pairs:
            grouped.setdefault(rule_id, set()).add(uri)
        return grouped

    def matches_of(self, rule_ids: set[int]) -> dict[int, set[URIRef]]:
        """The pairs restricted to the given (end) rules."""
        result: dict[int, set[URIRef]] = {}
        for rule_id, uri in self.pairs:
            if rule_id in rule_ids:
                result.setdefault(rule_id, set()).add(uri)
        return result

    def uris_of(self, rule_ids: set[int]) -> set[URIRef]:
        return {uri for rule_id, uri in self.pairs if rule_id in rule_ids}

    def all_uris(self) -> set[URIRef]:
        return {uri for __, uri in self.pairs}


@dataclass
class PublishOutcome:
    """What one registration/update/deletion means for subscribers.

    - ``matched``: per end rule, the resources that (newly or still)
      match after the change — the publisher sends their content.
    - ``unmatched``: per end rule, the *true candidates* of the paper's
      Section 3.5 — resources that no longer match that rule.
    - ``deleted``: resources removed from the store entirely.
    - ``passes`` records the :class:`FilterRunResult` of each executed
      filter pass (one for inserts, three for updates/deletions).
    """

    matched: dict[int, set[URIRef]] = field(default_factory=dict)
    unmatched: dict[int, set[URIRef]] = field(default_factory=dict)
    deleted: set[URIRef] = field(default_factory=set)
    passes: list[FilterRunResult] = field(default_factory=list)

    def add_matched(self, rule_id: int, uri: URIRef) -> None:
        self.matched.setdefault(rule_id, set()).add(uri)

    def add_unmatched(self, rule_id: int, uri: URIRef) -> None:
        self.unmatched.setdefault(rule_id, set()).add(uri)

    @property
    def has_notifications(self) -> bool:
        return bool(self.matched or self.unmatched or self.deleted)

    def matched_uris(self) -> set[URIRef]:
        return {uri for uris in self.matched.values() for uri in uris}

    def summary(self) -> str:
        matched = sum(len(v) for v in self.matched.values())
        unmatched = sum(len(v) for v in self.unmatched.values())
        return (
            f"publish(matched={matched}, unmatched={unmatched}, "
            f"deleted={len(self.deleted)}, passes={len(self.passes)})"
        )
