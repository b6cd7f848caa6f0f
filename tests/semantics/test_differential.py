"""Differential suites for the semantic tier (repro.semantics).

Three checks pin the registration-time rewrite:

- **Cross-knob byte-identity** — at every semantics degree, the
  ``triggering="sql"`` engine is the baseline and the counting matcher
  must produce byte-identical digests of every publish outcome and of
  the final materialized match sets.  Semantic rows ride the same
  triggering tables as base rows, so any path-specific handling of
  ``semantic = 1`` rows would show up here.
- **Browse equals subscription** — at every degree a browse of a rule
  text answers what a subscription of that text matches, whether the
  browse reuses the live rule or initializes it afresh.
- **The naive oracle** — :class:`repro.semantics.SemanticOracle`
  evaluates the *original, unexpanded* atoms per resource, walking the
  vocabulary store at match time.  The engine's materialized match sets
  must agree with it exactly, for every degree.

The scenario is deliberately hostile: part of the vocabulary (synonyms,
mappings) is registered before the subscriptions, the taxonomy edges
arrive *after* the first publishes (re-expansion plus back-fill of
``materialized``), a subscription arrives mid-stream, documents are
updated, one subscriber unsubscribes and one document is deleted.
"""

from __future__ import annotations

import json
import random
import re
from functools import lru_cache

import pytest

from repro.mdv.provider import MetadataProvider
from repro.rdf.model import Document
from repro.semantics import SEMANTICS_MODES, SemanticOracle
from repro.workload.marketplace import marketplace_schema
from tests.filter.test_counting_differential import _outcome_key

SEEDS = [1, 7, 42]

#: Single-atom rules only: for those the triggering rule *is* the end
#: rule, which lets the oracle check materialized match sets per rule
#: without re-implementing the join iterations that combine atoms.
RULES = [
    ("bargain-hunter", "search Vehicle v register v where v.price <= 50"),
    ("car-watcher", "search Listing l register l where l.category = 'car'"),
    (
        "vehicle-watcher",
        "search Listing l register l where l.category = 'vehicle'",
    ),
    ("condition-new", "search Listing l register l where l.condition = 'new'"),
    ("truck-fan", "search Truck t register t"),
    ("reseller", "search Listing l register l where l.price > 100"),
    ("text-scout", "search Listing l register l where l.title contains 'road'"),
]

LATE_RULE = ("late-comer", "search Listing l register l where l.cost >= 20")

_CLASSES = ["Listing", "Vehicle", "Truck", "Pickup"]
_CATEGORIES = ["car", "automobile", "vehicle", "truck", "pickup", "boat"]
_TITLES = ["roadster", "off-road hauler", "city car", "vintage find"]
# 5000 and 5001 straddle the affine image of ``price <= 50`` exactly.
_CENTS = [999, 4500, 5000, 5001, 20000]


def _random_listing(rng: random.Random, index: int) -> Document:
    doc = Document(f"listing{index}.rdf")
    item = doc.new_resource("item", rng.choice(_CLASSES))
    price_spelling = rng.randrange(4)
    if price_spelling == 1:
        item.add("price", rng.choice([10, 45, 60, 120, 500]))
    elif price_spelling == 2:
        item.add("cost", rng.choice([5, 20, 40, 150]))
    elif price_spelling == 3:
        item.add("priceCents", rng.choice(_CENTS))
    if rng.random() < 0.8:
        item.add("category", rng.choice(_CATEGORIES))
    if rng.random() < 0.4:
        item.add("condition", rng.choice(["new", "used"]))
    if rng.random() < 0.4:
        item.add("grade", rng.choice(["A", "B", "C"]))
    if rng.random() < 0.6:
        item.add("title", rng.choice(_TITLES))
    return doc


def _seed_early_vocabulary(mdp: MetadataProvider) -> None:
    mdp.register_synonyms("property", ["price", "cost"])
    mdp.register_synonyms("value", ["car", "automobile"])
    mdp.register_affine_mapping("priceCents", "price", scale=0.01)
    mdp.register_enum_mapping(
        "grade", "condition", [("A", "new"), ("B", "used"), ("C", "parts")]
    )


def _seed_late_taxonomy(mdp: MetadataProvider) -> None:
    mdp.register_taxonomy_edge("truck", "vehicle")
    mdp.register_taxonomy_edge("pickup", "truck")
    mdp.register_taxonomy_edge("Pickup", "Vehicle")


def _matches(mdp: MetadataProvider, end_rules: list[int]) -> list[str]:
    return sorted(
        str(uri) for end in end_rules for uri in mdp.engine.current_matches(end)
    )


def _browse(mdp: MetadataProvider, rule_text: str) -> list[str]:
    """Browse the query a rule text states (its ``register`` dropped)."""
    query = re.sub(r" register \w+", "", rule_text)
    return [str(resource.uri) for resource in mdp.browse(query)]


def run_scenario(
    seed: int,
    semantics: str,
    triggering: str,
    oracle_check: bool = False,
) -> bytes:
    """One seeded marketplace workload; returns a canonical digest."""
    rng = random.Random(seed)
    mdp = MetadataProvider(
        marketplace_schema(),
        name="semdiff",
        semantics=semantics,
        triggering=triggering,
    )
    # uri -> (rdf class, [(property, stored value), ...]) of every live
    # resource, maintained alongside the engine for the oracle check.
    live: dict[str, tuple[str, list[tuple[str, str]]]] = {}

    def track(doc: Document) -> None:
        for resource in doc:
            live[str(resource.uri)] = (
                resource.rdf_class,
                [(s.predicate, s.sql_value()) for s in resource.statements()],
            )

    try:
        _seed_early_vocabulary(mdp)
        ends: dict[str, list[int]] = {}
        for subscriber, text in RULES:
            subs = mdp.subscribe(subscriber, text)
            ends[text] = [s.end_rule for s in subs]

        documents = [_random_listing(rng, i) for i in range(10)]
        digests = []
        for doc in documents[:6]:
            digests.append(_outcome_key(mdp.register_document(doc)))
            track(doc)

        # The taxonomy arrives after content and subscriptions exist:
        # every rule re-expands and `materialized` is back-filled.
        _seed_late_taxonomy(mdp)

        # A browse initializes the rule afresh (no live atom yet) and
        # must answer what the subscription's initial batch carries.
        subscriber, text = LATE_RULE
        browsed = _browse(mdp, text)
        ends[text] = [s.end_rule for s in mdp.subscribe(subscriber, text)]
        assert browsed == _matches(mdp, ends[text]), semantics
        for doc in documents[6:]:
            digests.append(_outcome_key(mdp.register_document(doc)))
            track(doc)

        for index in rng.sample(range(10), 3):
            old = documents[index]
            new = old.copy()
            item = new.get(f"listing{index}.rdf#item")
            item.set("category", rng.choice(_CATEGORIES))
            item.set("price", rng.choice([15, 45, 200]))
            digests.append(_outcome_key(mdp.register_document(new)))
            track(new)
            documents[index] = new

        mdp.unsubscribe("reseller", RULES[5][1])
        del ends[RULES[5][1]]
        digests.append(_outcome_key(mdp.delete_document("listing2.rdf")))
        doomed = documents[2]
        for resource in doomed:
            live.pop(str(resource.uri), None)

        final = {
            text: _matches(mdp, end_rules)
            for text, end_rules in ends.items()
        }
        # Browsing a live rule's text reads that rule's matches; the
        # unsubscribed rule's atoms are gone, so its browse starts
        # afresh and must equal a new subscription's initial matches.
        for text in final:
            assert _browse(mdp, text) == final[text], (text, semantics)
        dropped = RULES[5][1]
        browsed = _browse(mdp, dropped)
        twin = mdp.subscribe("browse-twin", dropped)
        assert browsed == _matches(mdp, [s.end_rule for s in twin])

        if oracle_check:
            oracle = SemanticOracle(mdp.registry.semantic_store, semantics)
            for text, end_rules in ends.items():
                predicted = set()
                for end in end_rules:
                    row = mdp.db.query_one(
                        "SELECT class FROM atomic_rules WHERE rule_id = ?",
                        (end,),
                    )
                    atom = mdp.registry._load_triggering(
                        end, str(row["class"])
                    )
                    predicted.update(
                        uri
                        for uri, (rdf_class, rows) in live.items()
                        if oracle.matches_resource(atom, rdf_class, rows)
                    )
                assert sorted(predicted) == final[text], (
                    f"engine disagrees with the naive oracle for {text!r} "
                    f"at semantics={semantics!r}"
                )

        return json.dumps(
            {"digests": digests, "final": final}, sort_keys=True
        ).encode()
    finally:
        mdp.close()


@lru_cache(maxsize=None)
def _baseline(seed: int, semantics: str) -> bytes:
    return run_scenario(seed, semantics, "sql", oracle_check=True)


@pytest.mark.parametrize("semantics", SEMANTICS_MODES)
@pytest.mark.parametrize("seed", SEEDS)
def test_cross_knob_identity(seed, semantics):
    variant = run_scenario(seed, semantics, "counting")
    assert variant == _baseline(seed, semantics)


@pytest.mark.parametrize("semantics", SEMANTICS_MODES)
@pytest.mark.parametrize("seed", SEEDS)
def test_engine_matches_oracle(seed, semantics):
    # The assertion lives inside run_scenario (oracle_check=True); the
    # lru_cache shares the run with the byte-identity baseline.
    _baseline(seed, semantics)


def test_degrees_are_cumulative():
    """Each degree's final match sets contain the previous degree's."""
    for seed in SEEDS:
        previous: dict[str, list[str]] | None = None
        for mode in SEMANTICS_MODES:
            final = json.loads(_baseline(seed, mode))["final"]
            if previous is not None:
                for text, uris in previous.items():
                    assert set(uris) <= set(final[text]), (
                        f"degree {mode!r} lost matches of {text!r}"
                    )
            previous = final
