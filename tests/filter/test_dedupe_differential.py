"""Differential fuzzing: the registry ``dedupe`` knob against ``off``.

``dedupe="merge"`` shares one stored triggering entry between
semantically equivalent subscriptions; the contract is that the
*delivered* notification streams are byte-identical to the undeduped
path once rule ids are expanded to their riders.  The digest therefore
keys every outcome by ``(subscriber, rule_text)`` — looked up via
:meth:`RuleRegistry.subscriptions_for` **at publish time**, exactly as
the notification fan-out would — and excludes rule ids and filter-pass
internals (a merged base runs fewer passes by design).

Scenarios cover equivalent respellings of comparison, contains and
path rules, a late equivalent subscription mid-stream (it must inherit
the shared entry's materialized matches), updates, an unsubscribe of
one rider (the other must keep matching) and a deletion — under both
triggering evaluators, seeds 1/7/42.
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

_PREFIX = "search CycleProvider c register c where "

#: (base spelling, equivalent respelling) — different stored atoms,
#: identical match sets.
_EQUIVALENT_PAIRS = [
    (
        "c.synthValue > {n}",
        "c.synthValue > {n}.0 and c.synthValue > -1",
    ),
    (
        "c.serverHost contains 'passau'",
        "c.serverHost contains 'passau' and c.serverHost contains 'pas'",
    ),
    (
        "c.serverInformation.memory > {mem}",
        "c.serverInformation.memory > {mem}.0 "
        "and c.serverInformation.memory > 0",
    ),
]

_HOST_POOL = [
    "a.uni-passau.de",
    "b.tum.de",
    "c.uni-muenchen.de",
    "pastiche.org",
    "unrelated.example",
]


def _rule_pool(rng: random.Random) -> list[tuple[str, str]]:
    """(subscriber, rule_text) pairs — every base with its respelling."""
    pool: list[tuple[str, str]] = []
    for index, (base, equivalent) in enumerate(_EQUIVALENT_PAIRS):
        values = {"n": rng.choice([10, 50, 90]), "mem": rng.choice([32, 64])}
        pool.append((f"base{index}", _PREFIX + base.format(**values)))
        pool.append(
            (f"equiv{index}", _PREFIX + equivalent.format(**values))
        )
    # A couple of singletons keep the registry from being all-merged.
    pool.append(
        ("solo0", _PREFIX + f"c.serverPort > {rng.choice([1000, 5000])}")
    )
    pool.append(("solo1", _PREFIX + "c.serverHost contains 'tum'"))
    return pool


def _random_document(rng: random.Random, index: int) -> Document:
    doc = Document(f"doc{index}.rdf")
    provider = doc.new_resource("host", "CycleProvider")
    provider.add("serverHost", rng.choice(_HOST_POOL))
    provider.add("serverPort", rng.choice([80, 2000, 8080]))
    provider.add("synthValue", rng.choice([5, 25, 75, 95]))
    provider.add("serverInformation", URIRef(f"doc{index}.rdf#info"))
    info = doc.new_resource("info", "ServerInformation")
    info.add("memory", rng.choice([16, 48, 92, 256]))
    info.add("cpu", rng.choice([300, 550]))
    return doc


def _expand(registry: RuleRegistry, mapping) -> list:
    """Rule-id keyed match sets -> (subscriber, rule_text) keyed.

    The lookup happens at publish time, mirroring notification fan-out:
    a shared triggering entry expands to every rider registered *now*.
    """
    expanded = []
    for rule_id, uris in mapping.items():
        for sub in registry.subscriptions_for({rule_id}):
            expanded.append(
                [
                    sub.subscriber,
                    sub.rule_text,
                    sorted(str(u) for u in uris),
                ]
            )
    return sorted(expanded)


def _outcome_key(registry: RuleRegistry, outcome) -> dict:
    return {
        "matched": _expand(registry, outcome.matched),
        "unmatched": _expand(registry, outcome.unmatched),
        "deleted": sorted(str(u) for u in outcome.deleted),
    }


def run_scenario(seed: int, dedupe: str, triggering: str) -> bytes:
    """One seeded workload; canonical digest of every delivered stream."""
    rng = random.Random(seed)
    schema = objectglobe_schema()
    db = Database()
    create_all(db)
    registry = RuleRegistry(db, dedupe=dedupe)
    engine = FilterEngine(db, registry, triggering=triggering)

    def subscribe(subscriber: str, text: str) -> int:
        normalized = normalize_rule(parse_rule(text), schema)
        assert len(normalized) == 1
        registration = registry.register_subscription(
            subscriber, text, decompose_rule(normalized[0], schema)
        )
        engine.initialize_rules(registration.created)
        return registration.end_rule

    try:
        pool = _rule_pool(rng)
        # Hold one respelling back: it subscribes mid-stream, after its
        # base has already materialized matches.
        late_subscriber, late_text = pool.pop(1)
        ends = {(s, t): subscribe(s, t) for s, t in pool}

        documents = [_random_document(rng, i) for i in range(10)]
        digests = []
        for doc in documents[:6]:
            digests.append(
                _outcome_key(
                    registry, engine.process_diff(diff_documents(None, doc))
                )
            )

        ends[(late_subscriber, late_text)] = subscribe(
            late_subscriber, late_text
        )
        for doc in documents[6:]:
            digests.append(
                _outcome_key(
                    registry, engine.process_diff(diff_documents(None, doc))
                )
            )

        # Updates flip values across every rule family's thresholds.
        for index in rng.sample(range(10), 3):
            old = documents[index]
            new = old.copy()
            host = new.get(f"doc{index}.rdf#host")
            host.set("serverHost", rng.choice(_HOST_POOL))
            host.set("synthValue", rng.choice([5, 95]))
            digests.append(
                _outcome_key(
                    registry, engine.process_diff(diff_documents(old, new))
                )
            )
            documents[index] = new

        # Drop one rider of a merged pair; its twin keeps matching.
        registry.unsubscribe(*pool[0])
        del ends[pool[0]]
        extra = _random_document(rng, 10)
        digests.append(
            _outcome_key(
                registry, engine.process_diff(diff_documents(None, extra))
            )
        )
        digests.append(
            _outcome_key(
                registry, engine.process_diff(deletion_diff(documents[2]))
            )
        )

        if dedupe == "merge":
            # Guard against a vacuous pass: the respellings really did
            # share triggering entries.
            assert len(set(ends.values())) < len(ends)

        final = {
            f"{subscriber}|{text}": sorted(
                str(u) for u in engine.current_matches(end)
            )
            for (subscriber, text), end in ends.items()
        }
        return json.dumps(
            {"digests": digests, "final": final}, sort_keys=True
        ).encode()
    finally:
        engine.close()
        db.close()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "dedupe,triggering",
    [
        ("report", "sql"),
        ("merge", "sql"),
        ("merge", "counting"),
    ],
)
def test_dedupe_matches_off_oracle(seed, dedupe, triggering):
    baseline = run_scenario(seed, dedupe="off", triggering="sql")
    variant = run_scenario(seed, dedupe, triggering)
    assert variant == baseline
