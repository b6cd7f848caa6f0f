"""Round-trip tests for the wire codec (repro.net.codec)."""

from __future__ import annotations

import json

import pytest

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.errors import WireCodecError
from repro.filter.results import FilterRunResult, PublishOutcome
from repro.mdv.outbox import ReplicaUpdate
from repro.net.codec import dumps, from_wire, loads, to_wire, wire_size
from repro.pubsub.notifications import (
    DeleteNotification,
    MatchNotification,
    NotificationBatch,
    ResourcePayload,
    UnmatchNotification,
)
from repro.rdf.model import Document, Literal, Resource, URIRef
from repro.rules.registry import Subscription
from tests.conftest import figure1_document


def roundtrip(value):
    return loads(dumps(value))


@pytest.mark.parametrize("value", [
    None, True, False, 0, -17, 3.25, "", "héllo ✓", "search X",
    [1, "two", None], [[1], [2, [3]]],
    {"a": 1, "b": [True]}, {},
])
def test_scalars_and_json_containers_pass_through(value):
    assert to_wire(value) == value
    assert roundtrip(value) == value


def test_tuples_survive_as_tuples():
    version = (3, "mdp-1")
    decoded = roundtrip(version)
    assert decoded == version
    assert isinstance(decoded, tuple)
    # The property versions depend on: tuple comparison after decode.
    assert decoded >= (2, "mdp-1")


def test_nested_tuple_in_dict_value():
    digest = {"doc1.rdf": (4, "mdp-2"), "doc2.rdf": (1, "mdp-1")}
    decoded = roundtrip(digest)
    assert decoded == digest
    assert all(isinstance(v, tuple) for v in decoded.values())


def test_sets_are_canonically_ordered():
    value = {3, 1, 2}
    assert roundtrip(value) == value
    assert isinstance(roundtrip(value), set)
    # Same set, different construction order -> identical bytes.
    assert dumps({3, 1, 2}) == dumps({2, 1, 3})


def test_uriref_is_distinguished_from_str():
    uri = URIRef("doc.rdf#host")
    decoded = roundtrip(uri)
    assert decoded == uri
    assert isinstance(decoded, URIRef)
    plain = roundtrip("doc.rdf#host")
    assert not isinstance(plain, URIRef)


def test_uriref_dict_keys_survive():
    value = {URIRef("a#r"): {URIRef("b#s")}, "plain": 1}
    decoded = roundtrip(value)
    assert decoded == value
    key_types = {type(key) for key in decoded}
    assert URIRef in key_types


def test_literal_roundtrip():
    for inner in ("text", 42, 2.5):
        decoded = roundtrip(Literal(inner))
        assert isinstance(decoded, Literal)
        assert decoded.value == inner


def test_tag_colliding_dict_key_is_preserved():
    value = {"_t": "not-a-tag", "x": 1}
    assert roundtrip(value) == value


def test_document_roundtrip_preserves_order_and_values():
    document = figure1_document()
    decoded = roundtrip(document)
    assert isinstance(decoded, Document)
    assert decoded.uri == document.uri
    originals = list(document)
    copies = list(decoded)
    assert [r.uri for r in copies] == [r.uri for r in originals]
    for original, copy in zip(originals, copies):
        assert copy.rdf_class == original.rdf_class
        assert copy.property_names() == original.property_names()
        for name in original.property_names():
            assert copy.get(name) == original.get(name)
            assert [type(v) for v in copy.get(name)] == [
                type(v) for v in original.get(name)
            ]


def test_notification_batch_roundtrip():
    document = figure1_document()
    resource = next(iter(document))
    batch = NotificationBatch(
        subscriber="lmr-a",
        notifications=[
            MatchNotification(
                sub_id=7,
                rule_text="search CycleProvider c register c",
                payload=ResourcePayload(resource=resource, strong_closure=[]),
            ),
            UnmatchNotification(
                sub_id=7,
                rule_text="search CycleProvider c register c",
                uri=URIRef("doc.rdf#gone"),
            ),
            DeleteNotification(uri=URIRef("doc.rdf#dead")),
        ],
        source="mdp-1",
        seq=12,
    )
    decoded = roundtrip(batch)
    assert isinstance(decoded, NotificationBatch)
    assert decoded.subscriber == "lmr-a"
    assert decoded.source == "mdp-1" and decoded.seq == 12
    kinds = [type(n).__name__ for n in decoded.notifications]
    assert kinds == [
        "MatchNotification", "UnmatchNotification", "DeleteNotification"
    ]
    assert decoded.notifications[0].payload.resource.uri == resource.uri
    assert decoded.ack() == batch.ack()


def test_decoded_batch_applies_like_the_shared_payload_one(schema):
    """Over the wire every notification decodes a payload copy of its
    own; the LMR still upserts each distinct resource once (by URI) and
    ends in the state the in-process batch leaves."""
    from repro.mdv.provider import MetadataProvider
    from repro.mdv.repository import LocalMetadataRepository

    mdp = MetadataProvider(schema)
    direct = LocalMetadataRepository("lmr", mdp)
    sent = []

    def record(batch):
        sent.append(batch)
        return direct.apply_batch(batch)

    mdp.connect_subscriber("lmr", record)
    for port in (1, 2, 3):
        direct.subscribe(
            f"search CycleProvider c register c where c.serverPort > {port}"
        )
    mdp.register_document(figure1_document())
    updated = figure1_document()
    updated.get("doc.rdf#info").set("memory", 1)
    mdp.register_document(updated)

    remote = LocalMetadataRepository("remote", MetadataProvider(schema))
    upserts = []
    upsert = remote.cache._upsert_content

    def counted_upsert(resource, now):
        upserts.append(resource.uri)
        return upsert(resource, now)

    remote.cache._upsert_content = counted_upsert
    for batch in sent:
        decoded = roundtrip(batch)
        payloads = [n.payload for n in decoded.notifications]
        assert len(payloads) == 3
        assert len({id(payload) for payload in payloads}) == 3
        remote.apply_batch(decoded)
    # Two batches, each: the host and its strong child, once.
    assert sorted(upserts) == ["doc.rdf#host"] * 2 + ["doc.rdf#info"] * 2

    def state(lmr):
        return {
            uri: (
                lmr.cache.get(uri).resource,
                lmr.cache.get(uri).matched_subs,
                lmr.cache.get(uri).strong_refcount,
            )
            for uri in lmr.cache.uris()
        }

    assert state(remote) == state(direct)
    assert len(state(remote)["doc.rdf#host"][1]) == 3
    assert remote.notifications_received == direct.notifications_received == 6


def test_replica_update_roundtrip():
    update = ReplicaUpdate(
        document_uri="doc.rdf",
        document=figure1_document(),
        version=(5, "mdp-2"),
        source="mdp-2",
        seq=3,
    )
    decoded = roundtrip(update)
    assert isinstance(decoded, ReplicaUpdate)
    assert decoded.version == (5, "mdp-2")
    assert isinstance(decoded.version, tuple)
    assert decoded.document.uri == "doc.rdf"


def test_subscription_and_diagnostic_roundtrip():
    subscription = Subscription(
        sub_id=4, subscriber="lmr-a",
        rule_text="search CycleProvider c register c", end_rule=9,
    )
    decoded = roundtrip(subscription)
    assert isinstance(decoded, Subscription)
    assert (decoded.sub_id, decoded.end_rule) == (4, 9)

    diagnostic = Diagnostic(
        severity=Severity.WARNING,
        code="MDV020",
        message="always matches",
        span=(3, 9),
        hint="drop the predicate",
    )
    decoded = roundtrip(diagnostic)
    assert isinstance(decoded, Diagnostic)
    assert decoded.severity is Severity.WARNING
    assert decoded.span == (3, 9)


def test_publish_outcome_roundtrip():
    run = FilterRunResult(
        pairs={(1, URIRef("a#r"))},
        iterations=2,
        triggering_hits=5,
        triggering_seconds=0.25,
        join_seconds=0.5,
    )
    outcome = PublishOutcome(
        matched={1: {URIRef("a#r")}},
        unmatched={2: {URIRef("b#s")}},
        deleted={URIRef("c#t")},
        passes=[run],
    )
    decoded = roundtrip(outcome)
    assert isinstance(decoded, PublishOutcome)
    assert decoded.matched == outcome.matched
    assert decoded.unmatched == outcome.unmatched
    assert decoded.deleted == outcome.deleted
    assert decoded.passes[0].pairs == run.pairs
    assert decoded.summary() == outcome.summary()


def test_unknown_type_raises_wire_codec_error():
    class Opaque:
        pass

    with pytest.raises(WireCodecError):
        to_wire(Opaque())
    with pytest.raises(WireCodecError):
        dumps({"x": Opaque()})


def test_malformed_wire_values_raise():
    with pytest.raises(WireCodecError):
        from_wire({"_t": "no-such-tag"})
    with pytest.raises(WireCodecError):
        from_wire({"_t": "res"})  # missing fields
    with pytest.raises(WireCodecError):
        loads(b"{not json")


def test_wire_size_is_serialized_length():
    value = {"a": (1, "x"), "s": {1, 2}}
    assert wire_size(value) == len(dumps(value))
    assert wire_size("12345") == len(json.dumps("12345").encode())


def test_dumps_is_canonical():
    assert dumps({"b": 1, "a": 2}) == dumps({"a": 2, "b": 1})
