"""Seeded stress test: a full backbone under a long operation stream.

Two MDPs replicate over the simulated network; three LMRs (attached to
different providers) hold overlapping rule sets.  A seeded random
stream of registrations, updates, deletions and batch registrations runs for
a few hundred operations; afterwards every LMR's matched cache must
equal the query oracle over the surviving global state, every provider
must agree on the document set, and the caches must answer queries
identically regardless of which backbone node fed them.
"""

import random

import pytest

from repro.mdv.backbone import Backbone
from repro.mdv.repository import LocalMetadataRepository
from repro.net.bus import NetworkBus
from repro.query.evaluator import evaluate_query
from repro.rdf.model import Document, URIRef
from repro.rdf.schema import objectglobe_schema
from repro.rules.ast import Query
from repro.rules.parser import parse_rule

SCHEMA = objectglobe_schema()
DOC_SLOTS = 12
OPERATIONS = 250

RULESETS = {
    "lmr-passau": [
        "search CycleProvider c register c "
        "where c.serverHost contains 'passau'",
        "search CycleProvider c register c "
        "where c.serverInformation.memory > 64 "
        "and c.serverInformation.cpu > 500",
    ],
    "lmr-munich": [
        "search CycleProvider c register c "
        "where c.serverInformation.memory > 128",
        "search ServerInformation s register s where s.cpu >= 600",
    ],
    "lmr-mixed": [
        "search CycleProvider c register c "
        "where c.synthValue >= 3 or c.serverHost contains 'tum'",
    ],
}

HOSTS = ["a.uni-passau.de", "b.tum.de", "c.fu.de", "d.uni-passau.de"]


def make_doc(index, rng):
    doc = Document(f"doc{index}.rdf")
    provider = doc.new_resource("host", "CycleProvider")
    provider.add("serverHost", rng.choice(HOSTS))
    provider.add("synthValue", rng.randint(0, 6))
    target = rng.randint(0, DOC_SLOTS)
    provider.add("serverInformation", URIRef(f"doc{target}.rdf#info"))
    info = doc.new_resource("info", "ServerInformation")
    info.add("memory", rng.choice([16, 32, 92, 256, 512]))
    info.add("cpu", rng.choice([200, 400, 600, 900]))
    return doc


@pytest.mark.parametrize("seed", [7, 42, 1234])
def test_backbone_stress(seed):
    rng = random.Random(seed)
    bus = NetworkBus()
    backbone = Backbone(SCHEMA, bus=bus)
    mdp_eu = backbone.add_provider("mdp-eu")
    mdp_us = backbone.add_provider("mdp-us")
    lmrs = {
        "lmr-passau": LocalMetadataRepository("lmr-passau", mdp_eu, bus=bus),
        "lmr-munich": LocalMetadataRepository("lmr-munich", mdp_eu, bus=bus),
        "lmr-mixed": LocalMetadataRepository("lmr-mixed", mdp_us, bus=bus),
    }
    for name, rules in RULESETS.items():
        for rule in rules:
            lmrs[name].subscribe(rule)

    current: dict[str, Document] = {}

    for __ in range(OPERATIONS):
        action = rng.choices(
            ["register", "batch", "delete"], weights=[5, 3, 2]
        )[0]
        index = rng.randrange(DOC_SLOTS)
        if action == "register":
            doc = make_doc(index, rng)
            backbone.register_document(
                doc, at=rng.choice(["mdp-eu", "mdp-us"])
            )
            current[doc.uri] = doc
        elif action == "batch":
            # One filter run for the batch; a URI repeated within it
            # updates the earlier version, as two calls would.
            docs = [
                make_doc(rng.randrange(DOC_SLOTS), rng)
                for __ in range(rng.randint(1, 4))
            ]
            mdp_us.register_documents([doc.copy() for doc in docs])
            for doc in docs:
                current[doc.uri] = doc
        else:
            uri = f"doc{index}.rdf"
            if uri in current:
                backbone.delete_document(
                    uri, at=rng.choice(["mdp-eu", "mdp-us"])
                )
                del current[uri]

    # Backbone agreement.
    assert backbone.is_synchronized()
    assert mdp_eu.document_count() == len(current)

    # Every LMR's matched set equals the oracle over surviving state.
    pool = {r.uri: r for doc in current.values() for r in doc}
    for name, rules in RULESETS.items():
        lmr = lmrs[name]
        expected: set[URIRef] = set()
        for text in rules:
            rule = parse_rule(text)
            query = Query(rule.extensions, rule.register, rule.where)
            expected |= {
                r.uri for r in evaluate_query(query, pool, SCHEMA)
            }
        matched = {
            uri
            for uri in lmr.cache.uris()
            if lmr.cache.get(uri).matched_subs
        }
        assert matched == expected, (seed, name)
        for uri in matched:
            assert lmr.cache.resource(uri) == pool[uri], (seed, name, uri)

    # The network actually carried the load.
    assert bus.total_messages > OPERATIONS / 2
