"""Closed-form expectations for every operation the generator issues.

The oracle never looks at the system under test.  From the Figure-10
matching contracts (see ``generators.py``) it keeps the set of live
rules and live documents and answers, for each operation *before* it
runs, how many notifications each LMR must have received once the
operation is visible, and — at the end — which URIs every LMR's cache
must hold.

Notification counts per operation (one rule = one subscription, owned
by LMR ``k mod lmr_count``):

- publish / batch: one match per live rule matching the new document;
- update (host and info both change): one match per rule matching the
  new version, one unmatch per rule that matched only the old one;
- delete: one unmatch per rule that matched, plus a delete notification
  for each of the document's two resources at *every* LMR;
- subscribe: one match per live document the new rule matches;
- unsubscribe: none (the LMR evicts locally).
"""

from __future__ import annotations

import random

from generators import DocParams, Rule, host_uri, info_uri

__all__ = ["Oracle"]


class Oracle:
    def __init__(self, lmr_count: int, oid_stride: int = 1):
        self.lmr_count = lmr_count
        self.oid_stride = oid_stride
        self.live_rules: set[Rule] = set()
        self.docs: dict[int, DocParams] = {}
        #: Live document ids in insertion order with O(1) removal, so a
        #: seeded ``random_doc`` is cheap and repeatable.
        self._doc_list: list[int] = []
        self._doc_slot: dict[int, int] = {}
        self._by_memory: dict[int, set[int]] = {}
        self._by_token: dict[int, set[int]] = {}
        #: Notifications each LMR must have received so far.
        self.expected = [0] * lmr_count

    # -- contracts ------------------------------------------------------
    def owner(self, rule: Rule) -> int:
        return rule.k % self.lmr_count

    def candidate_rules(self, doc: DocParams) -> list[Rule]:
        """Every rule of the universe the document satisfies."""
        rules = [Rule("COMP", k) for k in range(doc.synth)]
        if doc.d % self.oid_stride == 0:
            rules.append(Rule("OID", doc.d // self.oid_stride))
        rules.append(Rule("PATH", doc.memory))
        rules.append(Rule("JOIN", doc.memory))
        rules.extend(Rule("CON", k) for k in doc.tokens)
        return rules

    def matching_rules(self, doc: DocParams) -> set[Rule]:
        return {
            rule for rule in self.candidate_rules(doc)
            if rule in self.live_rules
        }

    def matching_docs(self, rule: Rule) -> list[int]:
        if rule.type == "OID":
            d = rule.k * self.oid_stride
            return [d] if d in self.docs else []
        if rule.type == "COMP":
            return [d for d, doc in self.docs.items() if doc.synth > rule.k]
        if rule.type in ("PATH", "JOIN"):
            return sorted(self._by_memory.get(rule.k, ()))
        if rule.type == "CON":
            return sorted(self._by_token.get(rule.k, ()))
        raise ValueError(f"unknown rule type {rule.type!r}")

    def holders(self, doc: DocParams) -> set[int]:
        """The LMRs whose cache must hold the document."""
        return {self.owner(rule) for rule in self.matching_rules(doc)}

    # -- state ----------------------------------------------------------
    def _index(self, doc: DocParams) -> None:
        self.docs[doc.d] = doc
        self._doc_slot[doc.d] = len(self._doc_list)
        self._doc_list.append(doc.d)
        self._by_memory.setdefault(doc.memory, set()).add(doc.d)
        for k in doc.tokens:
            self._by_token.setdefault(k, set()).add(doc.d)

    def _unindex(self, d: int) -> DocParams:
        doc = self.docs.pop(d)
        slot = self._doc_slot.pop(d)
        last = self._doc_list.pop()
        if last != d:
            self._doc_list[slot] = last
            self._doc_slot[last] = slot
        self._by_memory[doc.memory].discard(d)
        for k in doc.tokens:
            self._by_token[k].discard(d)
        return doc

    def random_doc(self, rng: random.Random) -> DocParams:
        return self.docs[self._doc_list[rng.randrange(len(self._doc_list))]]

    def _count(self, rules) -> None:
        """One notification to the owner of each rule."""
        for rule in rules:
            self.expected[self.owner(rule)] += 1

    # -- operations -----------------------------------------------------
    def subscribe(self, rule: Rule) -> None:
        self.live_rules.add(rule)
        self.expected[self.owner(rule)] += len(self.matching_docs(rule))

    def unsubscribe(self, rule: Rule) -> None:
        self.live_rules.remove(rule)

    def publish(self, doc: DocParams) -> None:
        self._count(self.matching_rules(doc))
        self._index(doc)

    def update(self, new: DocParams) -> None:
        old = self._unindex(new.d)
        before = self.matching_rules(old)
        after = self.matching_rules(new)
        self._count(after)
        self._count(before - after)
        self._index(new)

    def delete(self, d: int) -> None:
        old = self._unindex(d)
        self._count(self.matching_rules(old))
        for lmr in range(self.lmr_count):
            self.expected[lmr] += 2  # host and info, broadcast

    # -- end state ------------------------------------------------------
    def expected_caches(self) -> list[set[str]]:
        """Per LMR, the URIs its cache must hold: every live document
        one of its rules matches, with the ``#info`` it drags along."""
        caches: list[set[str]] = [set() for _ in range(self.lmr_count)]
        for doc in self.docs.values():
            for lmr in self.holders(doc):
                caches[lmr].add(host_uri(doc.d))
                caches[lmr].add(info_uri(doc.d))
        return caches
