"""Property-based invariants for the LMR cache's reference counting.

After an arbitrary sequence of match / unmatch / delete notifications
and unsubscribes, the strong reference counts on cache entries must
equal a from-scratch recount over the entries' strong edges, and every
entry must be retained for a reason (a matching rule, a positive
refcount, or local registration).  An unsubscribe, which walks only the
subscription's own match list, must leave the same cache as one that
walks every entry.
"""

from unittest.mock import patch

from tests.conftest import prop_settings
from hypothesis import given, settings, strategies as st

from repro.mdv import cache as cache_module
from repro.mdv.cache import CacheStore
from repro.mdv.provider import MetadataProvider
from repro.mdv.repository import LocalMetadataRepository
from repro.pubsub.closure import strong_closure, strong_targets
from repro.pubsub.notifications import (
    DeleteNotification,
    MatchNotification,
    NotificationBatch,
    ResourcePayload,
    UnmatchNotification,
)
from repro.rdf.model import Document, Resource, URIRef
from repro.rdf.schema import (
    PropertyDef,
    PropertyKind,
    RefStrength,
    Schema,
    objectglobe_schema,
)

SCHEMA = objectglobe_schema()
DOC_COUNT = 4
SUB_IDS = (1, 2)


def build_payload(index: int, target: int, memory: int) -> ResourcePayload:
    """A CycleProvider strongly referencing ``doc{target}``'s info."""
    doc = Document(f"doc{index}.rdf")
    host = doc.new_resource("host", "CycleProvider")
    host.add("serverHost", f"h{index}.de")
    host.add("serverInformation", URIRef(f"doc{target}.rdf#info"))
    info_doc = Document(f"doc{target}.rdf")
    info = info_doc.new_resource("info", "ServerInformation")
    info.add("memory", memory)
    info.add("cpu", 600)
    return ResourcePayload(host, [info])


@st.composite
def notification_sequences(draw, max_steps=12):
    steps = []
    for __ in range(draw(st.integers(min_value=1, max_value=max_steps))):
        kind = draw(st.sampled_from(["match", "unmatch", "delete", "drop"]))
        index = draw(st.integers(min_value=0, max_value=DOC_COUNT - 1))
        if kind == "match":
            steps.append(
                (
                    "match",
                    draw(st.sampled_from(SUB_IDS)),
                    index,
                    draw(st.integers(min_value=0, max_value=DOC_COUNT - 1)),
                    draw(st.integers(min_value=1, max_value=512)),
                )
            )
        elif kind == "unmatch":
            steps.append(
                ("unmatch", draw(st.sampled_from(SUB_IDS)), index)
            )
        elif kind == "delete":
            steps.append(("delete", index))
        else:
            steps.append(("drop", draw(st.sampled_from(SUB_IDS))))
    return steps


def apply_step(cache: CacheStore, step, walk_every_entry=False) -> None:
    """Apply one step; ``walk_every_entry`` unsubscribes by visiting
    every cached entry instead of the subscription's match list."""
    if step[0] == "match":
        __, sub_id, index, target, memory = step
        cache.apply_match(sub_id, build_payload(index, target, memory))
    elif step[0] == "unmatch":
        __, sub_id, index = step
        cache.apply_unmatch(sub_id, URIRef(f"doc{index}.rdf#host"))
    elif step[0] == "delete":
        __, index = step
        cache.apply_delete(URIRef(f"doc{index}.rdf#host"))
    elif walk_every_entry:
        __, sub_id = step
        for uri in cache.uris():
            entry = cache.get(uri)
            if entry is not None and sub_id in entry.matched_subs:
                cache.apply_unmatch(sub_id, uri)
    else:
        __, sub_id = step
        cache.drop_subscription(sub_id)


def recount_strong_refs(cache: CacheStore) -> dict[URIRef, int]:
    counts: dict[URIRef, int] = {uri: 0 for uri in cache.uris()}
    for uri in cache.uris():
        entry = cache.get(uri)
        for target in strong_targets(entry.resource, SCHEMA):
            if target in counts:
                counts[target] += 1
    return counts


@prop_settings(80)
@given(steps=notification_sequences())
def test_refcounts_match_recount(steps):
    cache = CacheStore(SCHEMA)
    for step in steps:
        apply_step(cache, step)

    recounted = recount_strong_refs(cache)
    for uri in cache.uris():
        entry = cache.get(uri)
        assert entry.strong_refcount == recounted[uri], uri
        assert entry.retained, uri


@prop_settings(80)
@given(steps=notification_sequences())
def test_unmatch_all_then_empty(steps):
    """Revoking every match empties the cache (no leaks, no dangling)."""
    cache = CacheStore(SCHEMA)
    for step in steps:
        apply_step(cache, step)
    for uri in list(cache.uris()):
        entry = cache.get(uri)
        if entry is None:
            continue
        for sub_id in list(entry.matched_subs):
            cache.apply_unmatch(sub_id, uri)
    # The ObjectGlobe schema has no strong cycles, so nothing survives.
    assert len(cache) == 0


def assert_match_lists(cache: CacheStore) -> None:
    """Every subscription's list covers its matches, its live count is
    exact, and the list stays within its compaction bound."""
    holders: dict[int, set[URIRef]] = {}
    for uri in cache.uris():
        for sub_id in cache.get(uri).matched_subs:
            holders.setdefault(sub_id, set()).add(uri)
    assert cache._sub_live == {s: len(uris) for s, uris in holders.items()}
    assert set(cache._sub_uris) == set(holders)
    for sub_id, uris in holders.items():
        listed = cache._sub_uris[sub_id]
        assert uris <= set(listed)
        assert len(listed) <= 2 * len(uris) + cache_module._LIST_SLACK


@prop_settings(150)
@given(
    steps=notification_sequences(max_steps=40),
    slack=st.sampled_from([0, cache_module._LIST_SLACK]),
)
def test_drop_subscription_equals_walking_every_entry(steps, slack):
    with patch.object(cache_module, "_LIST_SLACK", slack):
        cache = CacheStore(SCHEMA)
        reference = CacheStore(SCHEMA)
        for step in steps:
            apply_step(cache, step)
            apply_step(reference, step, walk_every_entry=True)
            assert cache_state(cache) == cache_state(reference)
            assert_match_lists(cache)


# ----------------------------------------------------------------------
# apply_batch upserts each distinct payload once; the reference applies
# every notification through apply_match, as apply_batch used to.
# ----------------------------------------------------------------------
NODE_COUNT = 5
NODE_SCHEMA = Schema()
NODE_SCHEMA.define_class(
    "Node",
    [
        PropertyDef("value", PropertyKind.INTEGER),
        PropertyDef(
            "next",
            PropertyKind.REFERENCE,
            target_class="Node",
            strength=RefStrength.STRONG,
            multivalued=True,
        ),
    ],
)
NODE_SCHEMA.freeze_check()


def node_uri(index: int) -> URIRef:
    return URIRef(f"w.rdf#n{index}")


@st.composite
def batch_sequences(draw):
    """Batches as a provider builds them: within one batch every payload
    of a URI shows the same content (one provider state), strong
    references may dangle or form cycles, a URI may be matched by
    several subscriptions — sharing one payload object (in-process) or
    each with its own copy (decoded from the wire) — and unmatches and
    deletions follow the matches."""
    indexes = st.integers(min_value=0, max_value=NODE_COUNT - 1)
    batches = []
    for __ in range(draw(st.integers(min_value=1, max_value=4))):
        world = {}
        for index in range(NODE_COUNT):
            if draw(st.booleans()):
                node = Resource(node_uri(index), "Node")
                node.add("value", draw(st.integers(0, 2)))
                for target in draw(st.sets(indexes, max_size=2)):
                    node.add("next", node_uri(target))
                world[node.uri] = node
        shared = draw(st.booleans())
        payloads = {
            uri: ResourcePayload(
                node, strong_closure(node, NODE_SCHEMA, world.get)
            )
            for uri, node in world.items()
        }
        notifications = []
        for __ in range(draw(st.integers(0, 8)) if world else 0):
            payload = payloads[draw(st.sampled_from(sorted(world)))]
            if not shared:
                payload = ResourcePayload(
                    payload.resource.copy(),
                    [child.copy() for child in payload.strong_closure],
                )
            notifications.append(
                MatchNotification(draw(st.integers(1, 3)), "rule", payload)
            )
        for __ in range(draw(st.integers(0, 3))):
            notifications.append(
                UnmatchNotification(
                    draw(st.integers(1, 3)), "rule", node_uri(draw(indexes))
                )
            )
        for __ in range(draw(st.integers(0, 2))):
            notifications.append(DeleteNotification(node_uri(draw(indexes))))
        batches.append(notifications)
    return batches


def cache_state(cache: CacheStore):
    return (
        {
            uri: (
                entry.resource, entry.matched_subs, entry.strong_refcount,
            )
            for uri, entry in ((uri, cache.get(uri)) for uri in cache.uris())
        },
        cache.evictions,
    )


@prop_settings(150)
@given(batches=batch_sequences())
def test_apply_batch_equals_one_notification_at_a_time(batches):
    lmr = LocalMetadataRepository("lmr", MetadataProvider(NODE_SCHEMA))
    reference = CacheStore(NODE_SCHEMA)
    for notifications in batches:
        lmr.apply_batch(NotificationBatch("lmr", list(notifications)))
        for n in notifications:
            if isinstance(n, MatchNotification):
                reference.apply_match(n.sub_id, n.payload)
        for n in notifications:
            if isinstance(n, UnmatchNotification):
                reference.apply_unmatch(n.sub_id, n.uri)
        for n in notifications:
            if isinstance(n, DeleteNotification):
                reference.apply_delete(n.uri)
        assert cache_state(lmr.cache) == cache_state(reference)
    assert lmr.notifications_received == sum(len(b) for b in batches)
