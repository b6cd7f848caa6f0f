"""Differential fuzzing: the trigram contains path against the scan.

The paper's O(rules) contains scan (``contains_index="scan"``) is the
correctness oracle; the trigram probe must produce a *byte-identical*
digest of every publish outcome and of the final materialized match
sets.

The workload is contains-heavy on purpose: indexable needles, short
needles (the fallback scan join), needles sharing trigrams with each
other, and hosts crafted so that trigram candidates are sometimes false
positives.  Scenarios cover registrations, a mid-stream subscription
(postings added while documents are stored), updates, deletions and an
unsubscribe (postings dropped).
"""

from __future__ import annotations

import json
import random

import pytest

from repro.filter.engine import FilterEngine
from repro.rdf.diff import deletion_diff, diff_documents
from repro.rdf.model import Document, URIRef
from repro.rdf.schema import objectglobe_schema
from repro.rules.decompose import decompose_rule
from repro.rules.normalize import normalize_rule
from repro.rules.parser import parse_rule
from repro.rules.registry import RuleRegistry
from repro.storage.engine import Database
from repro.storage.schema import create_all

SEEDS = [1, 7, 42]

# "abc-xbc-cde" contains every trigram of "abcde" scattered — a trigram
# candidate that must fail verification.  "pas" vs "passau" exercises
# prefix-sharing needles; "de"/"pa" ride the short-needle fallback.
_HOST_POOL = [
    "a.uni-passau.de",
    "b.tum.de",
    "c.uni-muenchen.de",
    "abc-xbc-cde.org",
    "abcde.org",
    "pa",
]

_FRAGMENTS = ["passau", "pas", "uni", "de", "pa", "abcde", "tum.de", ".org"]

_RULE_TEMPLATES = [
    "search CycleProvider c register c where c.serverHost contains '{frag}'",
    "search CycleProvider c register c "
    "where c.serverHost contains '{frag}' "
    "and c.serverHost contains '{frag2}'",
    "search CycleProvider c register c "
    "where c.serverHost contains '{frag}' "
    "and c.serverInformation.memory > {mem}",
    "search CycleProvider c register c "
    "where c.serverHost contains '{frag}' "
    "or c.serverHost contains '{frag2}'",
    "search CycleProvider c register c where c.serverInformation.cpu <= {cpu}",
]


def _random_rules(rng: random.Random, count: int) -> list[str]:
    rules = []
    for __ in range(count):
        template = rng.choice(_RULE_TEMPLATES)
        rules.append(
            template.format(
                frag=rng.choice(_FRAGMENTS),
                frag2=rng.choice(_FRAGMENTS),
                mem=rng.choice([32, 64, 128]),
                cpu=rng.choice([400, 500, 600]),
            )
        )
    # Dedup while preserving order; registering the same (subscriber,
    # rule) pair twice is an error.
    return list(dict.fromkeys(rules))


def _random_document(rng: random.Random, index: int) -> Document:
    doc = Document(f"doc{index}.rdf")
    provider = doc.new_resource("host", "CycleProvider")
    provider.add("serverHost", rng.choice(_HOST_POOL))
    provider.add("serverInformation", URIRef(f"doc{index}.rdf#info"))
    info = doc.new_resource("info", "ServerInformation")
    info.add("memory", rng.choice([16, 64, 92, 128, 256]))
    info.add("cpu", rng.choice([300, 450, 550, 700]))
    return doc


def _outcome_key(outcome) -> dict:
    """A canonical, JSON-serializable digest of one PublishOutcome."""
    return {
        "matched": sorted(
            (rule_id, sorted(str(u) for u in uris))
            for rule_id, uris in outcome.matched.items()
        ),
        "unmatched": sorted(
            (rule_id, sorted(str(u) for u in uris))
            for rule_id, uris in outcome.unmatched.items()
        ),
        "deleted": sorted(str(u) for u in outcome.deleted),
        "passes": [
            {"hits": p.triggering_hits, "iterations": p.iterations}
            for p in outcome.passes
        ],
    }


def run_scenario(seed: int, contains_index: str) -> bytes:
    """One seeded publish/subscribe workload; returns a canonical digest."""
    rng = random.Random(seed)
    schema = objectglobe_schema()
    db = Database()
    create_all(db)
    registry = RuleRegistry(db)
    engine = FilterEngine(db, registry, contains_index=contains_index)

    conjunct_texts: dict[str, list[str]] = {}

    def subscribe(index: int, text: str) -> list[int]:
        # Or-rules normalize to several conjuncts; each is registered as
        # its own subscription (distinct rule_text per conjunct).
        ends = []
        conjunct_texts[text] = []
        for j, normalized in enumerate(normalize_rule(parse_rule(text), schema)):
            sub_text = text if j == 0 else f"{text} [conjunct {j}]"
            registration = registry.register_subscription(
                f"lmr{index}", sub_text, decompose_rule(normalized, schema)
            )
            engine.initialize_rules(registration.created)
            ends.append(registration.end_rule)
            conjunct_texts[text].append(sub_text)
        return ends

    try:
        rules = _random_rules(rng, 7)
        late_rule = rules.pop()
        ends = {text: subscribe(i, text) for i, text in enumerate(rules)}

        documents = [_random_document(rng, i) for i in range(12)]
        digests = []
        for doc in documents[:8]:
            digests.append(
                _outcome_key(engine.process_diff(diff_documents(None, doc)))
            )

        # Mid-stream subscription: its postings must be probed by the
        # next publish.
        ends[late_rule] = subscribe(99, late_rule)
        for doc in documents[8:]:
            digests.append(
                _outcome_key(engine.process_diff(diff_documents(None, doc)))
            )

        # Updates: move hosts across the needle pool (match sets flip
        # between indexed, fallback and no-match rules).
        for index in rng.sample(range(12), 4):
            old = documents[index]
            new = old.copy()
            host = new.get(f"doc{index}.rdf#host")
            host.set("serverHost", rng.choice(_HOST_POOL))
            digests.append(
                _outcome_key(engine.process_diff(diff_documents(old, new)))
            )
            documents[index] = new

        # Unsubscribe (drops the rule's postings), then one more publish
        # and a deletion.
        for sub_text in conjunct_texts[rules[0]]:
            registry.unsubscribe("lmr0", sub_text)
        del ends[rules[0]]
        extra = _random_document(rng, 12)
        digests.append(
            _outcome_key(engine.process_diff(diff_documents(None, extra)))
        )
        digests.append(
            _outcome_key(engine.process_diff(deletion_diff(documents[3])))
        )

        final = {
            text: sorted(
                str(u)
                for end in end_rules
                for u in engine.current_matches(end)
            )
            for text, end_rules in ends.items()
        }
        return json.dumps(
            {"digests": digests, "final": final}, sort_keys=True
        ).encode()
    finally:
        engine.close()
        db.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_trigram_matches_scan_oracle(seed):
    baseline = run_scenario(seed, contains_index="scan")
    variant = run_scenario(seed, contains_index="trigram")
    assert variant == baseline
