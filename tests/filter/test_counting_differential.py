"""Differential fuzzing: the counting matcher against the sql backend.

``triggering="sql"`` with the paper's contains scan is the correctness
oracle; the in-memory counting matcher
(``triggering="counting"``) must produce a *byte-identical* digest of
every publish outcome and of the final materialized match sets across
seeded workloads — registrations, a mid-stream subscription (counting
index refreshed off the mutation log), updates, deletions and an
unsubscribe (index entries dropped).

The workload is contains-heavy on purpose: indexable needles, short
needles (the per-bucket brute-force list), needles sharing trigrams
with each other and hosts crafted so that trigram candidates are
sometimes false positives, plus range conjuncts over ``memory``/``cpu``
(the sorted-bound arrays and the ``sqlite_cast_real`` replica) — so the
counting index's three predicate families and its verify step are all
on the hook.

It ends with *role changes*: the counting merge routes a hit by what
its rule is for at the time of the run (docs/FILTER_ALGORITHM.md, step
2), so the scenario holds a rule that is end rule and join input at
once, an end rule that becomes a join input through a later
subscription and stops being one when that is unsubscribed, and an
update and a deletion of documents whose only matches never entered
``result_objects`` — the sql oracle has no such routing.
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
# prefix-sharing needles; "de"/"pa" ride the short-needle list.
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


_INFO_HEAD = "search ServerInformation s register s where "
_HOST_HEAD = "search CycleProvider c register c where c.serverInformation."


def _info_document(name: str, memory: int, cpu: int) -> Document:
    """A document holding one ``ServerInformation`` and no host: nothing
    in it can reach a join through the ``CycleProvider`` class atom."""
    doc = Document(f"{name}.rdf")
    info = doc.new_resource("info", "ServerInformation")
    info.add("memory", memory)
    info.add("cpu", cpu)
    return doc


def run_scenario(
    seed: int,
    triggering: str,
    dedupe: str = "off",
) -> bytes:
    """One seeded publish/subscribe workload; returns a canonical digest."""
    rng = random.Random(seed)
    schema = objectglobe_schema()
    db = Database()
    create_all(db)
    registry = RuleRegistry(db, dedupe=dedupe)
    engine = FilterEngine(db, registry, triggering=triggering)

    conjunct_texts: dict[str, list[str]] = {}

    def subscribe(index: int, text: str) -> list[int]:
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

        # Mid-stream subscription: the counting index must pick the new
        # rule up incrementally (mutation log) before the next publish.
        ends[late_rule] = subscribe(99, late_rule)
        for doc in documents[8:]:
            digests.append(
                _outcome_key(engine.process_diff(diff_documents(None, doc)))
            )

        # Updates: move hosts across the needle pool (match sets flip
        # between indexed, short-needle and no-match rules).
        for index in rng.sample(range(12), 4):
            old = documents[index]
            new = old.copy()
            host = new.get(f"doc{index}.rdf#host")
            host.set("serverHost", rng.choice(_HOST_POOL))
            digests.append(
                _outcome_key(engine.process_diff(diff_documents(old, new)))
            )
            documents[index] = new

        # Unsubscribe (drops the rule's counting-index entries), then
        # one more publish and a deletion.
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

        def publish(old, new) -> None:
            digests.append(
                _outcome_key(engine.process_diff(diff_documents(old, new)))
            )

        def unsubscribe(index: int, text: str) -> None:
            for sub_text in conjunct_texts[text]:
                registry.unsubscribe(f"lmr{index}", sub_text)
            del ends[text]

        # End rule and join input at once: the atom `memory > 64` ends
        # one subscription and feeds the path join of another.
        both = _INFO_HEAD + "s.memory > 64"
        ends[both] = subscribe(50, both)
        over_both = _HOST_HEAD + "memory > 64"
        ends[over_both] = subscribe(51, over_both)
        # An end rule nothing joins on, and (what dedupe="merge" folds
        # into one stored rule) a base with its equivalent respelling.
        lone = _INFO_HEAD + "s.cpu > 950"
        ends[lone] = subscribe(52, lone)
        base = _INFO_HEAD + "s.memory < 10"
        ends[base] = subscribe(53, base)
        respelled = _INFO_HEAD + "s.memory < 10.0 and s.memory < 1000"
        ends[respelled] = subscribe(54, respelled)
        early = _random_document(rng, 13)
        early.get("doc13.rdf#info").set("cpu", 1000)
        publish(None, early)
        solo = _info_document("solo", memory=20, cpu=1000)
        publish(None, solo)  # matches `lone` and nothing else
        publish(None, _info_document("tiny", memory=8, cpu=960))

        # `cpu > 950` becomes a join input: the new join initializes
        # from the matches materialized while it was nobody's input.
        joiner = _HOST_HEAD + "cpu > 950"
        ends[joiner] = subscribe(55, joiner)
        fast = _random_document(rng, 14)
        fast.get("doc14.rdf#info").set("cpu", 1000)
        publish(None, fast)
        final_joiner = sorted(
            str(u) for end in ends[joiner] for u in engine.current_matches(end)
        )
        assert final_joiner == ["doc13.rdf#host", "doc14.rdf#host"]
        unsubscribe(55, joiner)  # ... and stops being one
        faster = _random_document(rng, 15)
        faster.get("doc15.rdf#info").set("cpu", 2000)
        publish(None, faster)

        # Update and deletion of documents whose only matches took the
        # direct route: the true candidates must still be reported.
        slowed = solo.copy()
        slowed.get("solo.rdf#info").set("cpu", 800)
        publish(solo, slowed)
        brief = _info_document("brief", memory=20, cpu=970)
        publish(None, brief)
        digests.append(
            _outcome_key(engine.process_diff(deletion_diff(brief)))
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
            {"digests": digests, "final": final, "joiner": final_joiner},
            sort_keys=True,
        ).encode()
    finally:
        engine.close()
        db.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_counting_matches_sql_oracle(seed):
    baseline = run_scenario(seed, triggering="sql")
    variant = run_scenario(seed, triggering="counting")
    assert variant == baseline


@pytest.mark.parametrize("seed", SEEDS)
def test_counting_matches_sql_oracle_under_merged_rules(seed):
    """``dedupe="merge"`` folds the respelled rule into its base, which
    therefore stays an end rule nothing joins on."""
    baseline = run_scenario(seed, "sql", dedupe="merge")
    variant = run_scenario(seed, "counting", dedupe="merge")
    assert variant == baseline
