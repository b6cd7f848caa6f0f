"""Unit tests for the LMR cache store (rule matches + strong refcounts)."""

import gc
import tracemalloc

from repro.mdv.cache import CacheStore
from repro.pubsub.notifications import ResourcePayload
from repro.rdf.model import Document, Resource, URIRef


def payload_for(doc: Document, uri: str, schema) -> ResourcePayload:
    from repro.pubsub.closure import strong_closure

    resource = doc.get(uri)
    closure = strong_closure(resource, schema, doc.get)
    return ResourcePayload(resource.copy(), [c.copy() for c in closure])


def figure1_payload(figure1, schema):
    return payload_for(figure1, "doc.rdf#host", schema)


class TestMatches:
    def test_match_inserts_content_and_closure(self, schema, figure1):
        cache = CacheStore(schema)
        cache.apply_match(1, figure1_payload(figure1, schema))
        assert "doc.rdf#host" in cache
        assert "doc.rdf#info" in cache
        assert set(cache.get("doc.rdf#host").matched_subs) == {1}
        assert cache.get("doc.rdf#info").strong_refcount == 1

    def test_second_rule_match_tracked(self, schema, figure1):
        cache = CacheStore(schema)
        cache.apply_match(1, figure1_payload(figure1, schema))
        cache.apply_match(2, figure1_payload(figure1, schema))
        assert set(cache.get("doc.rdf#host").matched_subs) == {1, 2}
        # Refresh must not double-count the strong edge.
        assert cache.get("doc.rdf#info").strong_refcount == 1

    def test_unmatch_of_last_rule_evicts(self, schema, figure1):
        cache = CacheStore(schema)
        cache.apply_match(1, figure1_payload(figure1, schema))
        evicted = cache.apply_unmatch(1, URIRef("doc.rdf#host"))
        assert evicted
        assert "doc.rdf#host" not in cache
        # The strong child cascades away with its only parent.
        assert "doc.rdf#info" not in cache
        assert cache.evictions == 2

    def test_unmatch_with_remaining_rule_keeps(self, schema, figure1):
        cache = CacheStore(schema)
        cache.apply_match(1, figure1_payload(figure1, schema))
        cache.apply_match(2, figure1_payload(figure1, schema))
        assert not cache.apply_unmatch(1, URIRef("doc.rdf#host"))
        assert "doc.rdf#host" in cache

    def test_unmatch_of_unknown_uri_is_noop(self, schema):
        cache = CacheStore(schema)
        assert not cache.apply_unmatch(1, URIRef("ghost.rdf#x"))


class TestContentUpdates:
    def test_content_refresh_replaces_resource(self, schema, figure1):
        cache = CacheStore(schema)
        cache.apply_match(1, figure1_payload(figure1, schema))
        updated = figure1.copy()
        updated.get("doc.rdf#info").set("memory", 256)
        cache.apply_match(1, payload_for(updated, "doc.rdf#host", schema))
        assert cache.resource("doc.rdf#info").get_one("memory").value == 256

    def test_retarget_strong_reference_reconciles_counts(self, schema):
        cache = CacheStore(schema)
        doc = Document("d.rdf")
        host = doc.new_resource("host", "CycleProvider")
        host.add("serverInformation", URIRef("d.rdf#a"))
        a = doc.new_resource("a", "ServerInformation")
        a.add("memory", 1)
        b = doc.new_resource("b", "ServerInformation")
        b.add("memory", 2)
        cache.apply_match(1, payload_for(doc, "d.rdf#host", schema))
        assert cache.get("d.rdf#a").strong_refcount == 1

        retargeted = doc.copy()
        retargeted.get("d.rdf#host").set(
            "serverInformation", URIRef("d.rdf#b")
        )
        cache.apply_match(1, payload_for(retargeted, "d.rdf#host", schema))
        # Old child released and collected; new child accounted.
        assert "d.rdf#a" not in cache
        assert cache.get("d.rdf#b").strong_refcount == 1


class TestDeletes:
    def test_delete_removes_despite_matches(self, schema, figure1):
        cache = CacheStore(schema)
        cache.apply_match(1, figure1_payload(figure1, schema))
        assert cache.apply_delete(URIRef("doc.rdf#host"))
        assert "doc.rdf#host" not in cache
        assert "doc.rdf#info" not in cache

    def test_delete_unknown_is_noop(self, schema):
        cache = CacheStore(schema)
        assert not cache.apply_delete(URIRef("ghost.rdf#x"))


class TestLocalMetadata:
    def test_local_resources_never_evicted_by_unmatch(self, schema):
        cache = CacheStore(schema)
        resource = Resource("local.rdf#x", "ServerInformation")
        resource.add("memory", 1)
        cache.insert_local(resource)
        cache.apply_unmatch(1, URIRef("local.rdf#x"))
        assert "local.rdf#x" in cache

    def test_local_keeps_strong_children_alive(self, schema):
        cache = CacheStore(schema)
        doc = Document("local.rdf")
        host = doc.new_resource("host", "CycleProvider")
        host.add("serverInformation", URIRef("local.rdf#info"))
        info = doc.new_resource("info", "ServerInformation")
        info.add("memory", 1)
        cache.insert_local(info)
        cache.insert_local(host)
        assert cache.get("local.rdf#info").strong_refcount == 1


class TestDropSubscription:
    def test_drop_evicts_only_sole_matches(self, schema, figure1):
        cache = CacheStore(schema)
        cache.apply_match(1, figure1_payload(figure1, schema))
        other = Document("e.rdf")
        info = other.new_resource("info", "ServerInformation")
        info.add("memory", 5)
        cache.apply_match(1, payload_for(other, "e.rdf#info", schema))
        cache.apply_match(2, payload_for(other, "e.rdf#info", schema))
        evicted = cache.drop_subscription(1)
        assert evicted == 1  # the figure1 host (+ cascaded child not counted)
        assert "doc.rdf#host" not in cache
        assert "e.rdf#info" in cache


class TestSharedStrongChildren:
    def test_child_survives_until_last_parent_goes(self, schema):
        cache = CacheStore(schema)
        shared = URIRef("s.rdf#info")
        for index in (1, 2):
            doc = Document(f"p{index}.rdf")
            host = doc.new_resource("host", "CycleProvider")
            host.add("serverInformation", shared)
            shared_doc = Document("s.rdf")
            info = shared_doc.new_resource("info", "ServerInformation")
            info.add("memory", 7)
            payload = ResourcePayload(host.copy(), [info.copy()])
            cache.apply_match(index, payload)
        assert cache.get(shared).strong_refcount == 2
        cache.apply_unmatch(1, URIRef("p1.rdf#host"))
        assert shared in cache
        cache.apply_unmatch(2, URIRef("p2.rdf#host"))
        assert shared not in cache


class TestBookkeepingMemory:
    """Traced bytes the store adds per entry; the resource, which the
    notification payload shares, is excluded.  Entries as dataclasses
    with a ``set`` of subscriptions cost 361 B with no matching
    subscription and 869 B with twelve."""

    ENTRIES = 2_000

    def bytes_per_entry(self, schema, subscriptions: int) -> float:
        resources = [
            Resource(f"d{index}.rdf#host", "CycleProvider")
            for index in range(self.ENTRIES)
        ]
        matches = [
            (sub_id, ResourcePayload(resource, []))
            for resource in resources
            for sub_id in range(1_000, 1_000 + subscriptions)
        ]
        cache = CacheStore(schema)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            if subscriptions:
                cache.apply_matches(matches)
            else:
                for resource in resources:
                    cache.insert_local(resource)
            gc.collect()  # empties the free lists that keep temporaries
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(cache) == self.ENTRIES
        return held / self.ENTRIES

    def test_entry_no_rule_matches(self, schema):
        assert self.bytes_per_entry(schema, 0) <= 150

    def test_entry_twelve_rules_match(self, schema):
        assert self.bytes_per_entry(schema, 12) <= 400


def test_stats_shape(schema, figure1):
    cache = CacheStore(schema)
    cache.apply_match(1, figure1_payload(figure1, schema))
    resource = Resource("local.rdf#x", "ServerInformation")
    cache.insert_local(resource)
    stats = cache.stats()
    assert stats["entries"] == 3
    assert stats["matched"] == 1
    assert stats["strong_only"] == 1
    assert stats["local"] == 1
