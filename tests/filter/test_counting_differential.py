"""Differential fuzzing: the counting matcher against the sql backend.

``triggering="sql"`` with the paper's contains scan is the correctness
oracle; the in-memory counting matcher
(``triggering="counting"``) must produce a *byte-identical* digest of
every publish outcome and of the final materialized match sets across
the same seeded workloads the trigram differential uses — registrations,
a mid-stream subscription (counting index refreshed off the mutation
log), updates, deletions and an unsubscribe (index entries dropped).

The workload mixes indexable and short ``contains`` needles, range
conjuncts over ``memory``/``cpu`` (the sorted-bound arrays plus the
``sqlite_cast_real`` replica) and trigram false-positive hosts, so the
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
from repro.rdf.model import Document
from repro.rdf.schema import objectglobe_schema
from repro.rules.decompose import decompose_rule
from repro.rules.normalize import normalize_rule
from repro.rules.parser import parse_rule
from repro.rules.registry import RuleRegistry
from repro.storage.engine import Database
from repro.storage.schema import create_all
from tests.filter.test_text_differential import (
    SEEDS,
    _HOST_POOL,
    _outcome_key,
    _random_document,
    _random_rules,
)


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
    contains_index: str,
    dedupe: str = "off",
) -> bytes:
    """One seeded publish/subscribe workload; returns a canonical digest."""
    rng = random.Random(seed)
    schema = objectglobe_schema()
    db = Database()
    create_all(db)
    registry = RuleRegistry(db, dedupe=dedupe)
    engine = FilterEngine(
        db,
        registry,
        contains_index=contains_index,
        triggering=triggering,
    )

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
@pytest.mark.parametrize("contains_index", ["scan", "trigram"])
def test_counting_matches_sql_oracle(seed, contains_index):
    baseline = run_scenario(seed, triggering="sql", contains_index="scan")
    variant = run_scenario(seed, "counting", contains_index)
    assert variant == baseline


@pytest.mark.parametrize("seed", SEEDS)
def test_counting_matches_sql_oracle_under_merged_rules(seed):
    """``dedupe="merge"`` folds the respelled rule into its base, which
    therefore stays an end rule nothing joins on."""
    baseline = run_scenario(
        seed, "sql", contains_index="scan", dedupe="merge"
    )
    variant = run_scenario(seed, "counting", "scan", dedupe="merge")
    assert variant == baseline
