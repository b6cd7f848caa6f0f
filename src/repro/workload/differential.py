"""The differential harness: one scenario, one digest, one runner.

MDV's correctness contract is that an LMR cache equals what its MDP's
notifications make it, through updates, deletions and strong-reference
closure (paper, Sections 2.4 and 3.5), whatever evaluator, delivery
path or failure sits in between.  Three parts check it:

- **One seeded scenario** (:func:`scenario`): vocabulary, a named rule
  with subscriptions over it, subscriptions over two LMRs, publishes,
  late vocabulary and subscriptions, updates, a batch that repeats a
  URI, unsubscriptions, deletions, the counting merge's role changes, a
  provider restart and an LMR that catches up from a snapshot.
  :data:`HOSTS`, :data:`NEEDLES` and :data:`TARGETED_RULES` hold the
  cases matchers get wrong.
- **One digest** (:meth:`Run.digest`): the notification stream each
  LMR applied, each unsubscribed rule's matches as it was dropped, the
  provider's documents and match sets, each LMR cache.
- **One runner** over configuration × transport × fault plan.  A
  configuration (:data:`DIMENSIONS`) is ``MetadataProvider`` keyword
  arguments plus ``use_rule_groups`` and ``deduplicate``, set on the
  engine and registry before the first operation.  The transport is
  ``direct``, ``bus`` (:class:`~repro.net.bus.NetworkBus`) or
  ``socket`` (a served provider process).  The fault plan is none, a
  crash sweep (:func:`run_crash_sweep`; the provider restarts after
  each crash, or keeps running on the rolled-back store), link chaos
  over a two-MDP backbone (:func:`run_chaos`) or ``kill -9`` of a
  served MDP (:func:`run_kill`).

Every fault-free run must reproduce the baseline configuration's direct
run at its ``semantics`` degree (:func:`check`; a run that differs from
it in triggering and transport only, also its filter passes), and
every run audits itself: a clean store audit, browse equal to
subscription (where atoms are not shared), agreement with :class:`~repro.semantics.SemanticOracle`
on the single-atom rules and with a :func:`closed_form` evaluation on
the objectglobe rules (at the end, and as each is unsubscribed), caches
holding exactly the provider's matches with its content, and no batch
applied twice.  CLI::

    python -m repro.workload.differential --faults none|crash|chaos|kill --seed N [--stride K]

``none`` runs the full lattice; ``--triggering`` and
``--[no-]durable-delivery`` pin those dimensions; ``--in-place`` makes
a crash sweep roll back on the running provider instead of restarting
it.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import operator
import os
import random
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

from repro.analysis.invariants import audit_database
from repro.errors import (
    CrashError,
    DocumentNotFoundError,
    MDVError,
    NetworkError,
    SubscriptionError,
)
from repro.mdv.backbone import Backbone
from repro.mdv.client import ProviderHandle, ServiceClient
from repro.mdv.provider import MetadataProvider
from repro.mdv.repository import LocalMetadataRepository
from repro.net.bus import NetworkBus
from repro.net.faults import FaultPlan, LinkFaults
from repro.net.socket import SocketTransport
from repro.obs.metrics import MetricsRegistry
from repro.pubsub.notifications import NotificationBatch
from repro.rdf.model import Document, Resource, URIRef
from repro.rdf.schema import Schema, objectglobe_schema
from repro.semantics import SEMANTICS_MODES, SemanticOracle
from repro.storage.durability import CrashPlan, CrashPoint, enumerate_crash_points
from repro.storage.engine import Database
from repro.workload.marketplace import marketplace_schema

__all__ = [
    "BASELINE",
    "BOTH",
    "DIMENSIONS",
    "JOINER",
    "KillReport",
    "LONE",
    "NAMED",
    "OVER_BOTH",
    "OVER_NAMED",
    "Run",
    "SEMANTIC_RULES",
    "SweepReport",
    "TRANSPORTS",
    "batch_image",
    "chaos_failures",
    "check",
    "covering_array",
    "crash_run",
    "kill_divergences",
    "kill_failures",
    "launch_node",
    "lattice",
    "main",
    "reference_digest",
    "resource_snapshot",
    "run_chaos",
    "run_crash_sweep",
    "run_kill",
    "scenario",
    "served_ops",
]

# ----------------------------------------------------------------------
# Configurations
# ----------------------------------------------------------------------
#: Every configuration dimension, baseline value first.
DIMENSIONS: dict[str, tuple] = {
    "triggering": ("sql", "counting"),
    "join_evaluation": ("probe", "scan"),
    "durability": ("fast", "safe"),
    "durable_delivery": (False, True),
    "semantics": SEMANTICS_MODES,
    "use_rule_groups": (True, False),
    "deduplicate": (True, False),
}
#: Set on ``provider.engine`` / ``provider.registry``, not passed.
_ATTRIBUTES = {"use_rule_groups": "engine", "deduplicate": "registry"}
TRANSPORTS = ("direct", "bus", "socket")
BASELINE = {
    name: values[0]
    for name, values in {**DIMENSIONS, "transport": TRANSPORTS}.items()
}
LMRS = ("lmr-a", "lmr-b")
PROVIDER = "mdp"


def covering_array() -> list[dict]:
    """A pairwise covering array over :data:`DIMENSIONS` × transport.

    Greedy and deterministic: each row starts from the first value pair
    no row covers yet, widest dimensions first, and fills the other
    dimensions with the values that cover the most uncovered pairs
    (ties: the earlier value).
    """
    dims = {**DIMENSIONS, "transport": TRANSPORTS}
    names = sorted(dims, key=lambda name: -len(dims[name]))
    uncovered = {
        ((a, va), (b, vb))
        for a, b in itertools.combinations(names, 2)
        for va in dims[a]
        for vb in dims[b]
    }
    rows: list[dict] = []
    while uncovered:
        (a, va), (b, vb) = min(uncovered, key=lambda pair: (
            names.index(pair[0][0]), dims[pair[0][0]].index(pair[0][1]),
            names.index(pair[1][0]), dims[pair[1][0]].index(pair[1][1]),
        ))
        row = {a: va, b: vb}
        for name in names:
            if name not in row:
                row[name] = max(dims[name], key=lambda value: sum(
                    ((other, row[other]), (name, value)) in uncovered
                    or ((name, value), (other, row[other])) in uncovered
                    for other in row
                ) * 10 - dims[name].index(value))
        rows.append({name: row[name] for name in dims})
        uncovered -= {
            ((x, row[x]), (y, row[y])) for x, y in itertools.combinations(names, 2)
        }
    return rows


def lattice(pinned: dict | None = None) -> list[dict]:
    """Every configuration × transport, with ``pinned`` values fixed."""
    dims = {**DIMENSIONS, "transport": TRANSPORTS}
    dims.update((name, (value,)) for name, value in (pinned or {}).items())
    return [dict(zip(dims, values)) for values in itertools.product(*dims.values())]


# ----------------------------------------------------------------------
# The scenario
# ----------------------------------------------------------------------
#: "abc-xbc-cde.org" holds every 3-window of "abcde" but not "abcde";
#: "ananas.de" holds "ana" twice, overlapping.
HOSTS = (
    "a.uni-passau.de", "b.tum.de", "c.uni-muenchen.de", "abc-xbc-cde.org",
    "abcde.org", "ananas.de", "pa",
)
#: The empty needle, prefix-sharing needles, one longer than every host
#: and one that overlaps itself in a host.
NEEDLES = (
    "passau", "pas", "uni", "de", "pa", "abcde", "tum.de", ".org", "",
    "c.uni-muenchen.de.org", "ana",
)
_HOST = "search CycleProvider c register c where "
_INFO = "search ServerInformation s register s where "
_HOST_TEMPLATES = (
    _HOST + "c.serverHost contains '{a}'",
    _HOST + "c.serverHost contains '{a}' and c.serverHost contains '{b}'",
    _HOST + "c.serverHost contains '{a}' and c.serverInformation.memory > {mem}",
    _HOST + "c.serverHost contains '{a}' or c.serverHost contains '{b}'",
    _HOST + "c.serverInformation.cpu <= {cpu}",
)
#: Subscribed in every scenario, whatever the seed draws: a class-only
#: rule, a three-conjunct join and the needle and range cases.
TARGETED_RULES = (
    "search CycleProvider c register c",
    _HOST + "c.serverHost contains 'de' and c.serverInformation.memory > 64"
    " and c.serverInformation.cpu > 500",
    _HOST + "c.serverHost contains ''",
    _HOST + "c.serverHost contains 'c.uni-muenchen.de.org'",
    _HOST + "c.serverHost contains 'ana'",
    _HOST + "c.serverHost contains 'abcde'",
    _HOST + "c.serverHost contains 'pa' and c.serverInformation.memory > 64",
    _HOST + "c.serverInformation.cpu <= 500",
)
#: Single-atom marketplace rules: the triggering rule is the end rule,
#: so :class:`SemanticOracle` predicts their match sets directly.
SEMANTIC_RULES = (
    "search Vehicle v register v where v.price <= 50",
    "search Listing l register l where l.category = 'car'",
    "search Listing l register l where l.category = 'vehicle'",
    "search Listing l register l where l.condition = 'new'",
    "search Truck t register t",
    "search Listing l register l where l.price > 100",
    "search Listing l register l where l.title contains 'road'",
    "search Listing l register l where l.cost >= 20",
)
_CLASSES = ("Listing", "Vehicle", "Truck", "Pickup")
_CATEGORIES = ("car", "automobile", "vehicle", "truck", "pickup", "boat")
_TITLES = ("roadster", "off-road hauler", "city car", "vintage find")
# 5000 and 5001 straddle the affine image of ``price <= 50`` exactly.
_CENTS = (999, 4500, 5000, 5001, 20000)
_EARLY_VOCABULARY = (
    ("register_synonyms", ("property", ["price", "cost"])),
    ("register_synonyms", ("value", ["car", "automobile"])),
    ("register_affine_mapping", ("priceCents", "price", 0.01)),
    ("register_enum_mapping",
     ("grade", "condition", [("A", "new"), ("B", "used"), ("C", "parts")])),
)
#: Registered once content and subscriptions exist.
_LATE_VOCABULARY = (
    ("register_taxonomy_edge", ("truck", "vehicle")),
    ("register_taxonomy_edge", ("pickup", "truck")),
    ("register_taxonomy_edge", ("Pickup", "Vehicle")),
)
#: Role changes of the counting merge (docs/FILTER_ALGORITHM.md, step
#: 2): ``memory > 64`` ends BOTH and feeds OVER_BOTH's join; LONE's
#: ``cpu > 950`` becomes a join input through JOINER and stops being
#: one when JOINER is unsubscribed.
BOTH = _INFO + "s.memory > 64"
OVER_BOTH = _HOST + "c.serverInformation.memory > 64"
LONE = _INFO + "s.cpu > 950"
JOINER = _HOST + "c.serverInformation.cpu > 950"
#: A named rule (paper, Section 2.3: an extension may be "another
#: subscription rule"), registered before content, and the rules over
#: it: subscribed before content, after content, and before content
#: and unsubscribed later.  The last one's end rule is the named rule's.
NAMED = ("UniHosts", _HOST + "c.serverHost contains 'uni'")
OVER_NAMED = (
    "search UniHosts u register u where u.serverInformation.memory > 64",
    "search UniHosts u register u where u.serverInformation.cpu <= 500",
    "search UniHosts u register u",
)


def harness_schema() -> Schema:
    """The objectglobe schema plus the marketplace classes."""
    schema = objectglobe_schema()
    market = marketplace_schema()
    for name in _CLASSES:
        schema.add_class(market.class_def(name))
    schema.freeze_check()
    return schema


def _info(doc: Document, memory: int, cpu: int) -> Document:
    info = doc.new_resource("info", "ServerInformation")
    info.add("memory", memory)
    info.add("cpu", cpu)
    return doc


def _host_document(index: int, host: str, memory: int, cpu: int) -> Document:
    doc = Document(f"doc{index}.rdf")
    provider = doc.new_resource("host", "CycleProvider")
    provider.add("serverHost", host)
    provider.add("serverInformation", URIRef(f"doc{index}.rdf#info"))
    return _info(doc, memory, cpu)


def _listing(rng: random.Random, index: int) -> Document:
    doc = Document(f"listing{index}.rdf")
    item = doc.new_resource("item", rng.choice(_CLASSES))
    spelling = rng.randrange(4)
    if spelling == 1:
        item.add("price", rng.choice([10, 45, 60, 120, 500]))
    elif spelling == 2:
        item.add("cost", rng.choice([5, 20, 40, 150]))
    elif spelling == 3:
        item.add("priceCents", rng.choice(_CENTS))
    for name, values, odds in (
        ("category", _CATEGORIES, 0.8),
        ("condition", ("new", "used"), 0.4),
        ("grade", ("A", "B", "C"), 0.4),
        ("title", _TITLES, 0.6),
    ):
        if rng.random() < odds:
            item.add(name, rng.choice(values))
    return doc


def scenario(seed: int, documents: int = 2) -> list[tuple]:
    """The operation list of one seed; new objects on every call.

    ``documents`` is how many documents (and rules) of each family the
    seed draws beyond the hand-placed ones.  Operations are
    ``("vocab", method, args)``, ``("named", name, rule)``,
    ``("subscribe" | "unsubscribe", lmr, rule)``, ``("publish",
    document)``, ``("batch", documents)``,
    ``("delete", uri)``, ``("restart",)`` and ``("catch_up", lmr)``.
    """
    rng = random.Random(seed)

    def memory() -> int:
        return rng.choice([16, 64, 92, 128, 256])

    def cpu() -> int:
        return rng.choice([300, 450, 550, 700])

    drawn = [
        rng.choice(_HOST_TEMPLATES).format(
            a=rng.choice(NEEDLES), b=rng.choice(NEEDLES),
            mem=rng.choice([32, 64, 128]), cpu=rng.choice([400, 500, 600]),
        )
        for __ in range(documents)
    ]
    rules = list(dict.fromkeys([*TARGETED_RULES, *drawn]))
    late_rule = rules.pop()
    owner = {rule: LMRS[i % 2] for i, rule in enumerate(rules + [late_rule])}
    owner.update({rule: LMRS[i % 2] for i, rule in enumerate(SEMANTIC_RULES)})
    hosts = list(HOSTS)
    rng.shuffle(hosts)
    hosts += [rng.choice(HOSTS) for __ in range(documents)]
    current = [
        _host_document(i, host, memory(), cpu()) for i, host in enumerate(hosts)
    ]
    # A Pickup listed as a pickup, published before the taxonomy edges
    # that widen the Vehicle and category rules to it.
    pickup = Document("listing0.rdf")
    item = pickup.new_resource("item", "Pickup")
    item.add("category", "pickup")
    item.add("price", 40)
    listings = [pickup] + [_listing(rng, i) for i in range(1, documents + 2)]
    fresh = itertools.count(len(current))

    def host(cpu_value: int) -> Document:
        return _host_document(next(fresh), rng.choice(HOSTS), memory(), cpu_value)

    def subscribe(rule: str, lmr: str | None = None) -> tuple:
        return ("subscribe", lmr or owner[rule], rule)

    half, market_half = len(current) // 2, len(listings) // 2
    ops: list[tuple] = [("vocab", *entry) for entry in _EARLY_VOCABULARY]
    ops += [
        ("named", *NAMED),
        subscribe(OVER_NAMED[0], "lmr-a"),
        subscribe(OVER_NAMED[2], "lmr-b"),
    ]
    ops += [subscribe(rule) for rule in rules + list(SEMANTIC_RULES[:-1])]
    ops += [("publish", doc) for doc in current[:half] + listings[:market_half]]
    ops += [("vocab", *entry) for entry in _LATE_VOCABULARY]
    ops += [
        subscribe(late_rule),
        subscribe(SEMANTIC_RULES[-1]),
        subscribe(OVER_NAMED[1], "lmr-b"),
    ]
    ops += [("publish", doc) for doc in current[half:] + listings[market_half:]]
    # Updates move a host across the needle pool and a listing across
    # categories and price thresholds.
    for index in rng.sample(range(len(current)), 2):
        current[index] = current[index].copy()
        current[index].get(f"doc{index}.rdf#host").set(
            "serverHost", rng.choice(HOSTS)
        )
        ops.append(("publish", current[index]))
    index = rng.randrange(len(listings))
    listings[index] = listings[index].copy()
    item = listings[index].get(f"listing{index}.rdf#item")
    item.set("category", rng.choice(_CATEGORIES))
    item.set("price", rng.choice([15, 45, 200]))
    ops.append(("publish", listings[index]))
    # A batch that registers a document and then updates it.
    batched = host(cpu())
    again = batched.copy()
    again.get(f"{batched.uri}#info").set("memory", memory())
    ops.append(("batch", [batched, _listing(rng, len(listings)), again]))
    ops += [
        ("unsubscribe", owner[rules[-1]], rules[-1]),
        ("unsubscribe", owner[SEMANTIC_RULES[5]], SEMANTIC_RULES[5]),
        ("unsubscribe", "lmr-b", OVER_NAMED[2]),
        ("publish", host(cpu())),
        ("delete", current[3].uri),
        ("delete", listings[1].uri),
    ]
    # The role changes.  solo and brief hold a ServerInformation only,
    # so their matches never reach a join's result objects.
    solo = _info(Document("solo.rdf"), memory=20, cpu=1000)
    slowed = solo.copy()
    slowed.get("solo.rdf#info").set("cpu", 800)
    brief = _info(Document("brief.rdf"), memory=20, cpu=970)
    ops += [
        subscribe(BOTH, "lmr-a"),
        subscribe(OVER_BOTH, "lmr-b"),
        subscribe(LONE, "lmr-a"),
        subscribe(_INFO + "s.memory < 10", "lmr-b"),
        # An equivalent respelling registers a tree of its own.
        subscribe(_INFO + "s.memory < 10.0 and s.memory < 1000", "lmr-a"),
        ("publish", host(1000)),
        ("publish", solo),
        ("publish", _info(Document("tiny.rdf"), memory=8, cpu=960)),
        subscribe(JOINER, "lmr-b"),
        ("publish", host(1000)),
        ("unsubscribe", "lmr-b", JOINER),
        ("publish", host(2000)),
        ("publish", slowed),
        ("publish", brief),
        ("delete", brief.uri),
    ]
    # A restart, traffic the restarted provider numbers on, a blank LMR
    # catching up from a snapshot, and traffic after that.
    updated = current[0].copy()
    updated.get("doc0.rdf#info").set("memory", memory())
    ops += [
        ("restart",),
        ("publish", updated),
        ("catch_up", "lmr-b"),
        ("publish", host(cpu())),
        ("delete", current[1].uri),
    ]
    return ops


# ----------------------------------------------------------------------
# The digest
# ----------------------------------------------------------------------
def resource_snapshot(resource: Resource) -> tuple:
    """A canonical, comparable image of one resource."""
    return (
        str(resource.uri),
        resource.rdf_class,
        tuple(
            (name, tuple(sorted(str(v) for v in resource.get(name))))
            for name in sorted(resource.property_names())
        ),
    )


def batch_image(batch: NotificationBatch) -> dict:
    """A canonical, comparable image of one applied batch."""
    notifications = []
    for notification in batch.notifications:
        image: dict[str, Any] = {"kind": notification.kind}
        if notification.kind == "match":
            image["resources"] = sorted(
                map(resource_snapshot, notification.payload.all_resources())
            )
        else:
            image["uri"] = str(notification.uri)
        if notification.kind != "delete":
            image.update(sub_id=notification.sub_id, rule=notification.rule_text)
        notifications.append(image)
    return {
        "source": batch.source,
        "seq": batch.seq,
        "subscriber": batch.subscriber,
        "notifications": notifications,
    }


def _stream_entry(image: dict) -> dict:
    """A :func:`batch_image` without the delivery stamp, in canonical
    order: what every configuration must apply alike."""
    return {
        "subscriber": image["subscriber"],
        "notifications": sorted(
            image["notifications"], key=lambda n: json.dumps(n, sort_keys=True)
        ),
    }


def cache_image(lmr: LocalMetadataRepository) -> list[tuple]:
    return sorted(map(resource_snapshot, lmr.cache.resources()))


def subscription_matches(provider: MetadataProvider, lmr: str) -> dict:
    """Each rule text ``lmr`` subscribes and its current matches
    (or-conjuncts merged)."""
    by_text: dict[str, set[str]] = {}
    for sub in provider.registry.subscriptions_of(lmr):
        by_text.setdefault(sub.rule_text.split("#or")[0], set()).update(
            map(str, provider.engine.current_matches(sub.end_rule))
        )
    return {text: sorted(uris) for text, uris in by_text.items()}


def provider_image(provider: MetadataProvider) -> dict:
    """Stored documents, and per LMR its :func:`subscription_matches`."""
    return {
        "documents": {
            uri: sorted(map(resource_snapshot, provider.document(uri)))
            for uri in provider.document_uris()
        },
        "matches": {name: subscription_matches(provider, name) for name in LMRS},
    }


def _canonical(value: Any) -> Any:
    """``value`` as JSON reads it back (tuples become lists)."""
    return json.loads(json.dumps(value, sort_keys=True))


def diff_digests(name: str, got: dict, want: dict) -> list[str]:
    """One readable line per digest part that differs."""
    failures = []
    for part in want:
        for key in sorted(set(want[part]) | set(got[part]), key=str):
            if got[part].get(key) != want[part].get(key):
                failures.append(f"{name}: {part}[{key}] diverged")
                break
    return failures


def audit_failures(db: Database) -> list[str]:
    return [f"[{d.code}] {d.message}" for d in audit_database(db).diagnostics]


def stored_resources(provider: MetadataProvider) -> dict[str, Resource]:
    return {
        str(r.uri): r for uri in provider.document_uris() for r in provider.document(uri)
    }


_OBJECTGLOBE = ("CycleProvider", "ServerInformation")
_ATOM = re.compile(r"\w+\.([\w.]+) (contains|<=|>=|<|>) ('.*'|[\d.]+)$")
_ORDER = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt}


def closed_form(rule: str, resources: dict[str, Resource]) -> list[str]:
    """The URIs an objectglobe rule of the scenario matches among
    ``resources`` (by URI), evaluated by hand: each path followed
    through references, strings tested by containment and numbers
    compared as numbers."""
    head, __, condition = rule.partition(" where ")
    combine, atoms = (any, condition.split(" or ")) if " or " in condition else (
        all, condition.split(" and ") if condition else []
    )

    def holds(resource: Resource, atom: str) -> bool:
        path, test, constant = _ATOM.match(atom).groups()
        found = [resource]
        for step in path.split("."):
            found = [resources.get(str(v), v) for r in found for v in r.get(step)]
        if test == "contains":
            return any(constant.strip("'") in v.value for v in found)
        return any(_ORDER[test](float(v.value), float(constant)) for v in found)

    return sorted(
        uri for uri, resource in resources.items()
        if resource.rdf_class == head.split()[1]
        and combine(holds(resource, atom) for atom in atoms)
    )


def closed_form_failures(resources: dict[str, Resource], matches: dict) -> list[str]:
    """Each objectglobe rule in ``matches`` (rule text → URIs) whose
    URIs differ from its :func:`closed_form` over ``resources``."""
    return [
        f"{text!r} differs from its closed form"
        for text, uris in matches.items()
        if text.split()[1] in _OBJECTGLOBE and closed_form(text, resources) != uris
    ]


def provider_facts(provider: MetadataProvider) -> dict:
    """The provider's side of the end state: its :func:`provider_image`
    and, as ``failures``, the store audit, each browse that differs from
    the subscription it states (without deduplication), each single-atom
    rule that disagrees with :class:`SemanticOracle` and each objectglobe
    rule that differs from its :func:`closed_form`."""
    failures = audit_failures(provider.db)
    image = provider_image(provider)
    oracle = SemanticOracle(provider.registry.semantic_store, provider.semantics)
    resources = stored_resources(provider)
    rows = {
        uri: (r.rdf_class, [(s.predicate, s.sql_value()) for s in r.statements()])
        for uri, r in resources.items()
    }
    for name in LMRS:
        failures += closed_form_failures(resources, image["matches"][name])
        for sub in provider.registry.subscriptions_of(name):
            if sub.rule_text not in SEMANTIC_RULES:
                continue
            rdf_class = provider.db.scalar(
                "SELECT class FROM atomic_rules WHERE rule_id = ?", (sub.end_rule,)
            )
            atom = provider.registry._load_triggering(sub.end_rule, rdf_class)
            predicted = sorted(
                uri for uri, (cls, props) in rows.items()
                if oracle.matches_resource(atom, cls, props)
            )
            if predicted != image["matches"][name][sub.rule_text]:
                failures.append(f"{sub.rule_text!r} disagrees with the semantic oracle")
        if provider.registry.deduplicate:
            # A browse equal to a live rule then creates no atom and
            # reads that rule's own matches; only an unshared registry
            # evaluates it afresh.
            continue
        for text, found in image["matches"][name].items():
            query = re.sub(r" register \w+", "", text)
            if sorted(str(r.uri) for r in provider.browse(query)) != found:
                failures.append(f"browse of {text!r} differs from its matches")
    return {
        "image": image,
        "stamped": provider.outbox is not None,
        "failures": failures,
    }


def memory_failures(provider: MetadataProvider) -> list[str]:
    """Where the provider's in-memory named rules, which rule
    compilation reads, disagree with its store's."""
    registry = provider.registry
    rows = provider.db.query_all("SELECT name, end_rule, class FROM named_rules")
    failures = []
    if dict(registry.named_rule_types()) != {r["name"]: r["class"] for r in rows}:
        failures.append("the named-rule classes differ from the store's")
    stored = {r["name"]: registry.load_atom(r["end_rule"]).key for r in rows}
    if {n: a.key for n, a in registry.named_producers().items()} != stored:
        failures.append("the named-rule producers differ from the store's")
    return failures


def lmr_failures(facts: dict, lmrs: dict[str, LocalMetadataRepository]) -> list[str]:
    """Each LMR caches exactly the resources its subscriptions match,
    with the provider's content, and counts each batch it did not apply
    as a duplicate."""
    failures = []
    stored = {
        resource[0]: resource
        for resources in facts["image"]["documents"].values()
        for resource in resources
    }
    for name, lmr in lmrs.items():
        matched = {str(e.resource.uri) for e in lmr.cache.entries() if e.matched_subs}
        if matched != set().union(*facts["image"]["matches"][name].values()):
            failures.append(f"{name} caches other matches than the provider's")
        for resource in lmr.cache.resources():
            if _canonical(resource_snapshot(resource)) != stored.get(str(resource.uri)):
                failures.append(f"{name} holds stale <{resource.uri}>")
                break
        if facts["stamped"] and (
            lmr.batches_received - lmr.dedup.applied != lmr.dedup.duplicates_ignored
        ):
            failures.append(f"{name} dedup counters are inconsistent")
    return failures


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class Run:
    """One scenario run under one configuration and transport.

    :meth:`apply` runs operations, :meth:`finish` settles delivery and
    audits the end state into :attr:`failures`, :meth:`digest` returns
    the canonical image.  :attr:`applied` keeps each LMR's batches as
    they arrived (order and stamps included), :attr:`passes` each
    filter pass's triggering hits and join iterations.  With a crash
    plan armed on :attr:`db` (direct transport) a
    :class:`~repro.errors.CrashError` restarts the provider and the
    operation is retried.  With :attr:`restart_on_crash` off the
    provider keeps running on the rolled-back store instead, and its
    in-memory named rules must agree with the store
    (:func:`memory_failures`) before the retry; then, as after a
    restart, the LMRs reattach and the outbox sends what it holds.

    Over ``socket`` the provider is a served node, as ``python -m
    repro.mdv serve`` runs one: a forked process that owns the store and
    serves its own transport on its one thread.  The LMRs stay here, and
    what the wire protocol lacks (batches, vocabulary, named rules,
    restart, snapshot, the end-state facts) travels as ``harness``
    requests.
    """

    def __init__(self, config: dict | None = None, transport: str = "direct"):
        if transport not in TRANSPORTS:
            raise ValueError(f"transport must be one of {TRANSPORTS}")
        config = dict(config or {})
        self.transport = transport
        self.attributes = {n: config.pop(n) for n in _ATTRIBUTES if n in config}
        self.kwargs = config
        self.schema = harness_schema()
        self.metrics = MetricsRegistry()
        #: Each LMR's applied batches, as :func:`batch_image` reads them.
        self.applied: dict[str, list[dict]] = {name: [] for name in LMRS}
        #: ``(LMR, replacements, source, seq)`` of each stamped batch
        #: applied: exactly once per LMR object.
        self.stamps: list[tuple] = []
        #: The provider's matches of each rule as it was unsubscribed.
        self.unsubscribed: dict[str, list[str]] = {}
        #: ``(triggering hits, join iterations)`` of each filter pass.
        self.passes: list = []
        self._replacements = dict.fromkeys(LMRS, 0)
        self.failures: list[str] = []
        self.recoveries = 0
        self.restart_on_crash = True
        self._recording = True
        self._facts: dict = {}
        #: The served node's pid here, 0 inside the node, else None.
        self._node: int | None = None
        self.lmrs: dict[str, LocalMetadataRepository] = {}
        self.bus: NetworkBus | SocketTransport | None = None
        if transport == "bus":
            self.bus = NetworkBus(metrics=self.metrics)
        if transport != "socket":
            self.db = self._new_db()
            self.provider: Any = self._new_provider()
        else:
            if threading.active_count() != 1:
                # A forked child inherits no thread but every lock one
                # held: only a single-threaded process forks safely.
                others = [t.name for t in threading.enumerate()
                          if t is not threading.current_thread()]
                raise MDVError(
                    "the socket transport forks its served node and needs a "
                    f"single-threaded process; running threads: {others}"
                )
            self.bus = SocketTransport(metrics=self.metrics).start()
            self._workdir = tempfile.mkdtemp(prefix="mdv-differential-")
            read, write = os.pipe()
            gc.freeze()  # no collection copies the shared pages over
            pid = os.fork()
            if pid == 0:  # pragma: no cover - the served node's process
                os.close(read)
                self._serve(write)
            gc.unfreeze()
            os.close(write)
            with os.fdopen(read) as pipe:
                port = pipe.read()
            if not port:
                os.waitpid(pid, 0)
                raise MDVError("the served provider node failed to start")
            self._node = pid
            self.bus.add_peer(PROVIDER, "127.0.0.1", int(port))
            self.provider = ProviderHandle(PROVIDER, self.schema)
        self.lmrs = {name: self._new_lmr(name) for name in LMRS}

    def _new_db(self) -> Database:
        return Database(
            durability=self.kwargs.get("durability", "fast"), metrics=self.metrics
        )

    def _new_provider(self) -> MetadataProvider:
        provider = MetadataProvider(
            self.schema, name=PROVIDER, db=self.db, bus=self.bus,
            metrics=self.metrics, **self.kwargs,
        )
        for name, value in self.attributes.items():
            setattr(getattr(provider, _ATTRIBUTES[name]), name, value)
        filter_pass = provider.engine.run

        def counted(*args: Any, **kwargs: Any) -> Any:
            result = filter_pass(*args, **kwargs)
            self.passes.append((result.triggering_hits, result.iterations))
            return result

        provider.engine.run = counted  # type: ignore[method-assign]
        if self._node == 0:
            def handler(message: Any) -> Any:
                if message.kind == "harness":
                    return self._at_node(*message.payload)
                return self.provider._handle_message(message)

            self.bus.register(PROVIDER, handler)
        return provider

    def _serve(self, pipe: int) -> None:  # pragma: no cover - forked
        """The served node: build the provider on a transport of its own,
        report the port through ``pipe`` and serve until stopped (or
        orphaned).  The parent's transport is left alone."""
        status = 1
        try:
            parent, client_port = os.getppid(), self.bus.port
            self.bus, self._node = SocketTransport(metrics=self.metrics), 0
            for name in LMRS:
                self.bus.add_peer(name, "127.0.0.1", client_port)
            self.db = self._new_db()
            self.provider = self._new_provider()
            os.write(pipe, str(self.bus.start().port).encode())
            os.close(pipe)
            while self._node == 0 and os.getppid() == parent:
                self.bus.serve(0.05)
            status = 0
        finally:
            os._exit(status)

    def _new_lmr(self, name: str) -> LocalMetadataRepository:
        lmr = LocalMetadataRepository(
            name, self.provider, bus=self.bus, metrics=self.metrics
        )
        apply = lmr.apply_batch

        def recording(batch: NotificationBatch) -> bool:
            applied = apply(batch)
            if applied and self._recording:
                self.applied[name].append(batch_image(batch))
                if batch.seq is not None:
                    self.stamps.append(
                        (name, self._replacements[name], batch.source, batch.seq)
                    )
            return applied

        lmr.apply_batch = recording  # type: ignore[method-assign]
        if self.bus is None:
            self.provider.connect_subscriber(name, recording)
        elif self.transport == "socket":
            self.bus.set_reentrant_kinds(name, {"notifications"})
        return lmr

    # -- operations -----------------------------------------------------
    def _at_provider(self, method: str, *args: Any) -> Any:
        """Run a provider-side step where the provider lives."""
        if self.transport == "socket":
            return self.bus.send(LMRS[0], PROVIDER, "harness", (method, args))
        return self._at_node(method, args)

    def _at_node(self, method: str, args: Any) -> Any:
        if method == "restart":
            self._restart()
        elif method == "snapshot":
            self.provider.snapshot(*args).close()
        elif method == "facts":
            return {**provider_facts(self.provider), "passes": self.passes}
        elif method == "matches":
            lmr, rule = args
            found = {rule: subscription_matches(self.provider, lmr)[rule]}
            wrong = closed_form_failures(stored_resources(self.provider), found)
            return found[rule], wrong
        elif method == "stop":
            self._node = None
        else:
            return getattr(self.provider, method)(*args)
        return None

    def _restart(self) -> None:
        """Discard the provider object; a new one opens the same store."""
        self.provider.close()
        self.provider = self._new_provider()
        self._reattach()

    def _reattach(self) -> None:
        """Rebind every LMR to the provider as its store holds it, then
        send the batches its outbox holds undelivered: a crash after an
        operation's commit leaves both to do."""
        for lmr in self.lmrs.values():
            lmr.reattach(self.provider)
        self.provider.deliver_pending()

    def _catch_up(self, name: str) -> None:
        """Replace an LMR by a blank one restored from a snapshot.  The
        replay of the catch-up is left out of the stream and stamps."""
        lost = cache_image(self.lmrs[name])
        if self.transport == "socket":
            path = os.path.join(self._workdir, f"{name}.db")
            self._at_provider("snapshot", path)
            snapshot = Database(path)
        else:
            snapshot = self.provider.snapshot()
        fresh = self._new_lmr(name)
        self._recording = False
        try:
            fresh.catch_up_from_snapshot(snapshot)
        finally:
            self._recording = True
            snapshot.close()
        self.lmrs[name] = fresh
        self._replacements[name] += 1
        if cache_image(fresh) != lost:
            self.failures.append(f"catch-up of {name} rebuilt another cache")

    def _once(self, op: tuple) -> None:
        kind, lmrs = op[0], self.lmrs
        if kind == "vocab":
            self._at_provider(op[1], *op[2])
        elif kind == "named":
            self._at_provider("register_named_rule", *op[1:])
        elif kind == "subscribe":
            lmrs[op[1]].subscribe(op[2])
        elif kind == "unsubscribe":
            # Kept from the first attempt: a retry after a crash may
            # find the rule already gone.
            key = f"{op[1]}: {op[2]}"
            if key not in self.unsubscribed:
                self.unsubscribed[key], wrong = self._at_provider("matches", *op[1:])
                self.failures += [f"as {key} went: {f}" for f in wrong]
            lmrs[op[1]].unsubscribe(op[2])
        elif kind == "publish":
            lmrs[LMRS[0]].register_document(op[1])
        elif kind == "batch":
            self._at_provider("register_documents", op[1])
        elif kind == "delete":
            lmrs[LMRS[0]].delete_document(op[1])
        elif kind == "restart":
            self._at_provider("restart")
            for lmr in lmrs.values():
                lmr.resync()
        else:
            self._catch_up(op[1])

    def apply(self, op: tuple) -> None:
        """One operation; a crash restarts the provider and retries it.

        A retry of an operation the crashed attempt had already
        committed is redundant by design: re-registration is an empty
        diff, a re-delete, re-subscribe, re-unsubscribe or repeated named
        rule raises, and that error is absorbed only after a crash.  A
        batch is read back instead: one that registers a URI twice is no
        such no-op.
        """
        crashed = False
        while True:
            try:
                self._once(op)
                return
            except CrashError:
                crashed = True
                self.recoveries += 1
                self.db.clear_crash_plan()
                self.failures += [f"after a crash: {f}" for f in audit_failures(self.db)]
                if self.restart_on_crash:
                    self._restart()
                else:
                    self.failures += [
                        f"after a rollback: {f}"
                        for f in memory_failures(self.provider)
                    ]
                    self._reattach()
                if op[0] == "batch" and self._stored(op[1]):
                    return
            except (SubscriptionError, DocumentNotFoundError):
                if not crashed:
                    raise
                return

    def _stored(self, documents: list[Document]) -> bool:
        """Does the store hold each URI as its last version here?"""
        last = {document.uri: document for document in documents}
        return all(
            (stored := self.provider.document(uri)) is not None
            and sorted(map(resource_snapshot, stored))
            == sorted(map(resource_snapshot, document))
            for uri, document in last.items()
        )

    def run(self, ops: list[tuple]) -> Run:
        try:
            for op in ops:
                self.apply(op)
            self.finish()
        finally:
            self.close()
        return self

    def close(self) -> None:
        """Stop the served node, or close the local provider."""
        if self._node is None:
            self.provider.close()
            return
        pid, self._node = self._node, None
        try:
            self._at_provider("stop")
        except MDVError:
            os.kill(pid, signal.SIGKILL)
        finally:
            os.waitpid(pid, 0)
            self.bus.close()
            shutil.rmtree(self._workdir, ignore_errors=True)

    def finish(self) -> None:
        """Resync every LMR, then audit the end state."""
        for lmr in self.lmrs.values():
            lmr.resync()
        self._facts = _canonical(self._at_provider("facts"))
        self.passes = self._facts["passes"]
        self.failures += self._facts["failures"]
        self.failures += lmr_failures(self._facts, self.lmrs)
        if len(set(self.stamps)) != len(self.stamps):
            self.failures.append("a batch was applied twice")

    def digest(self) -> dict:
        return {
            "streams": {
                name: [_stream_entry(image) for image in images]
                for name, images in self.applied.items()
            },
            "unsubscribed": self.unsubscribed,
            "provider": self._facts["image"],
            "caches": {name: cache_image(lmr) for name, lmr in self.lmrs.items()},
        }


@lru_cache(maxsize=None)
def _reference(seed: int, semantics: str, documents: int) -> str:
    run = Run({"semantics": semantics}).run(scenario(seed, documents))
    return json.dumps({
        "digest": run.digest(), "failures": run.failures, "passes": run.passes,
    })


def reference_digest(seed: int, semantics: str = "off", documents: int = 2) -> dict:
    """The baseline configuration's direct run at one ``semantics``
    degree (cached); raises if that run failed its own checks."""
    reference = json.loads(_reference(seed, semantics, documents))
    if reference["failures"]:
        raise MDVError(f"the reference run failed: {reference['failures']}")
    return reference["digest"]


def check(seed: int, row: dict, documents: int = 2) -> list[str]:
    """Run one configuration-and-transport row; returns its failures.

    The run must pass its own checks and reproduce the reference digest
    at its ``semantics`` degree; the baseline row is the reference.  A
    row that differs from the reference in triggering and transport
    only must also repeat its triggering hits and join iterations pass
    by pass.
    """
    config = {k: v for k, v in row.items() if v != BASELINE.get(k)}
    transport = config.pop("transport", "direct")
    semantics = config.pop("semantics", "off")
    reference = json.loads(_reference(seed, semantics, documents))
    if not config and transport == "direct":
        return reference["failures"]
    run = Run({**config, "semantics": semantics}, transport)
    run.run(scenario(seed, documents))
    failures = (
        [f"reference: {f}" for f in reference["failures"]]
        + run.failures
        + diff_digests(f"{row}", _canonical(run.digest()), reference["digest"])
    )
    if set(config) <= {"triggering"} and run.passes != reference["passes"]:
        failures.append(f"{row}: triggering hits or join iterations diverged")
    return failures


# ----------------------------------------------------------------------
# Fault plan: crash sweep
# ----------------------------------------------------------------------
@dataclass
class SweepReport:
    """Outcome of a crash-point sweep of one configuration."""

    config: dict
    statements: int
    commits: int
    points_tested: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return (
            f"{self.config}: {self.points_tested} crash "
            f"point(s) over {self.statements} statements / {self.commits} "
            f"commits — {status}"
        )


def crash_run(ops: list[tuple], config: dict, point: CrashPoint | None = None,
              restart: bool = True) -> tuple[Run, CrashPlan]:
    """One direct run of ``ops`` (a :func:`scenario` or a prefix of
    one) with ``point``'s crash plan armed (without a point, a plan
    that only counts boundaries); ``restart`` is the run's
    :attr:`Run.restart_on_crash`."""
    run = Run(config)
    run.restart_on_crash = restart
    plan = point.plan() if point is not None else CrashPlan()
    run.db.install_crash_plan(plan)
    try:
        for op in ops:
            run.apply(op)
        run.db.clear_crash_plan()
        run.finish()
    finally:
        run.close()
    return run, plan


def run_crash_sweep(ops: list[tuple], config: dict | None = None,
                    stride: int = 5, restart: bool = True) -> SweepReport:
    """Kill ``ops`` at every commit boundary and every ``stride``-th
    statement boundary; each resumed run, restarted or (``restart``
    off) rolled back in place, must reproduce the never-crashed run's
    digest and delivery stamps and audit clean after every crash and at
    the end."""
    config = {"durable_delivery": True, **(config or {})}
    baseline, plan = crash_run(ops, config)
    report = SweepReport(config, plan.statements_seen, plan.commits_seen)
    report.failures += [f"baseline: {f}" for f in baseline.failures]
    for point in enumerate_crash_points(
        plan.statements_seen, plan.commits_seen, stride
    ):
        run, crash = crash_run(ops, config, point, restart)
        report.points_tested += 1
        if not crash.fired:
            report.failures.append(f"{point}: plan never fired")
            continue
        report.failures += [f"{point}: {f}" for f in run.failures]
        report.failures += diff_digests(str(point), run.digest(), baseline.digest())
        if run.stamps != baseline.stamps:
            report.failures.append(f"{point}: delivery stamps diverged")
    return report


# ----------------------------------------------------------------------
# Fault plan: link chaos over a two-MDP backbone
# ----------------------------------------------------------------------
CHAOS_FAULTS = LinkFaults(
    drop_rate=0.12, duplicate_rate=0.12, error_rate=0.08,
    delay_ms=5.0, delay_jitter_ms=10.0,
)


@dataclass
class ChaosReport:
    """What the convergence checks need from one chaos run."""

    digest: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    faults_injected: int = 0
    duplicates_ignored: int = 0
    stale_read_observed: bool = False
    lag_during_partition: int = 0
    synchronized: bool = False


def _retry(call, *args, pause: float = 0.0, attempts: int = 60) -> None:
    """Send a request again while it fails with a NetworkError (it got
    lost on a lossy link, or the MDP is down).  A retried request may
    have committed before its reply was lost: a re-delete then raises,
    and that is absorbed after a retry."""
    for attempt in range(attempts):
        try:
            call(*args)
            return
        except NetworkError:
            time.sleep(pause)
        except DocumentNotFoundError:
            if not attempt:
                raise
            return
    raise MDVError(f"{call.__name__}{args!r} failed {attempts} times")


def _partition_window(ops: list[tuple]) -> tuple[int, int]:
    """The longest stretch of document operations, so that no LMR
    request has to cross the partition."""
    best, start = (0, 0), None
    for index, op in enumerate(ops + [("end",)]):
        if op[0] in ("publish", "batch", "delete"):
            start = index if start is None else start
        elif start is not None:
            best = max(best, (start, index), key=lambda w: w[1] - w[0])
            start = None
    return best


def run_chaos(seed: int, config: dict | None = None, faulty: bool = True,
              documents: int = 2) -> ChaosReport:
    """The scenario over two replicating MDPs, ``lmr-a`` on ``mdp-a``
    and ``lmr-b`` on ``mdp-b``, with lossy links and a partition that
    cuts ``mdp-a`` off during the longest stretch of document
    operations; then recovery.  Each document is written at one home
    MDP.  Restart and catch-up belong to the crash plan: skipped."""
    config = dict(config or {})
    attributes = {n: config.pop(n) for n in _ATTRIBUTES if n in config}
    schema = harness_schema()
    metrics = MetricsRegistry()
    plan = FaultPlan(seed=seed, default_faults=CHAOS_FAULTS) if faulty else None
    bus = NetworkBus(fault_plan=plan, metrics=metrics)
    backbone = Backbone(schema, bus=bus, metrics=metrics)
    names = ("mdp-a", "mdp-b")
    for name in names:
        provider = backbone.add_provider(
            name, metrics=metrics,
            db=Database(durability=config.get("durability", "fast")), **config,
        )
        for attribute, value in attributes.items():
            setattr(getattr(provider, _ATTRIBUTES[attribute]), attribute, value)
    lmrs = {
        lmr: LocalMetadataRepository(lmr, backbone.provider(mdp), bus=bus,
                                     metrics=metrics)
        for lmr, mdp in zip(LMRS, names)
    }
    report = ChaosReport()
    ops = scenario(seed, documents)
    start, end = _partition_window(ops)
    homes: dict[str, str] = {}
    for index, op in enumerate(ops):
        if plan is not None and index == start:
            plan.partition({"mdp-a"}, {"mdp-b", "lmr-a"})
        if plan is not None and index == end:
            report.lag_during_partition = backbone.replication_lag()
            read = lmrs["lmr-a"].query_with_status("search CycleProvider c")
            report.stale_read_observed = read.stale
            plan.heal()
            backbone.recover()
            for lmr in lmrs.values():
                lmr.resync()
        kind = op[0]
        if kind == "vocab":
            for provider in backbone.providers.values():
                getattr(provider, op[1])(*op[2])
        elif kind == "named":
            for provider in backbone.providers.values():
                provider.register_named_rule(*op[1:])
        elif kind in ("subscribe", "unsubscribe"):
            _retry(getattr(lmrs[op[1]], kind), op[2])
        elif kind == "publish":
            home = homes.setdefault(op[1].uri, names[len(homes) % 2])
            backbone.register_document(op[1], at=home)
        elif kind == "batch":
            home = homes.setdefault(op[1][0].uri, names[len(homes) % 2])
            homes.update((document.uri, home) for document in op[1])
            backbone.provider(home).register_documents(op[1])
        elif kind == "delete":
            backbone.delete_document(op[1], at=homes[op[1]])
    backbone.recover()
    for lmr in lmrs.values():
        lmr.resync()
    report.synchronized = backbone.is_synchronized()
    images = {}
    for name, provider in backbone.providers.items():
        facts = _canonical(provider_facts(provider))
        images[name] = facts["image"]
        attached = {n: lmr for n, lmr in lmrs.items() if lmr.provider is provider}
        report.failures += [f"{name}: {f}" for f in facts["failures"]]
        report.failures += lmr_failures(facts, attached)
        provider.close()
    report.digest = {
        "providers": images,
        "caches": _canonical({name: cache_image(lmr) for name, lmr in lmrs.items()}),
    }
    report.duplicates_ignored = sum(
        lmr.dedup.duplicates_ignored for lmr in lmrs.values()
    )
    if plan is not None:
        report.faults_injected = plan.faults_injected
    return report


def chaos_failures(seed: int, config: dict | None = None,
                   documents: int = 2) -> list[str]:
    """A faulty chaos run against the clean one, and the clean run's
    caches against the single-MDP reference's."""
    faulty = run_chaos(seed, config, True, documents)
    clean = run_chaos(seed, config, False, documents)
    failures = faulty.failures + [f"clean: {f}" for f in clean.failures]
    failures += diff_digests("chaos", faulty.digest, clean.digest)
    reference = reference_digest(
        seed, (config or {}).get("semantics", "off"), documents
    )
    failures += diff_digests(
        "chaos vs reference", clean.digest, {"caches": reference["caches"]}
    )
    for broken, failure in (
        (not faulty.faults_injected, "the plan injected no fault"),
        (not faulty.stale_read_observed,
         "the partitioned LMR's read was not flagged stale"),
        (not faulty.lag_during_partition, "no replication lag while partitioned"),
        (not faulty.synchronized, "the backbone did not resynchronize"),
    ):
        if broken:
            failures.append(failure)
    return failures


# ----------------------------------------------------------------------
# Fault plan: kill -9 of a served MDP
# ----------------------------------------------------------------------
_READY = re.compile(r"MDV-SERVE READY .*port=(\d+)")


@dataclass
class ServedNode:
    """One ``python -m repro.mdv serve`` subprocess."""

    process: subprocess.Popen
    port: int

    def terminate(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck
                self.process.kill()
                self.process.wait(timeout=30)


def _write_config(config: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle)
    return path


def launch_node(config_path: str, timeout_s: float = 30.0) -> ServedNode:
    """Start ``python -m repro.mdv serve`` and wait for its READY line."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.mdv", "serve", "--config", config_path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
    )
    deadline = time.perf_counter() + timeout_s
    line = process.stdout.readline()
    while line:
        match = _READY.search(line)
        if match:
            return ServedNode(process, int(match.group(1)))
        if time.perf_counter() > deadline:  # pragma: no cover - hang
            break
        line = process.stdout.readline()
    process.kill()
    __, stderr = process.communicate(timeout=10)
    raise RuntimeError(
        f"serve daemon {config_path!r} never became ready: {stderr[-2000:]}"
    )


def served_ops(ops: list[tuple]) -> list[tuple]:
    """The scenario as a served MDP and one served LMR can run it.

    A served node knows the objectglobe schema and the service protocol
    only: the objectglobe subscriptions of both LMRs go to one served
    LMR, a batch becomes single registrations, and vocabulary, the named
    rule and the rules over it, restart and catch-up are left out (the
    kill is the restart).
    """
    served = []
    for op in ops:
        kind = op[0]
        if kind in ("subscribe", "unsubscribe"):
            if op[2].split()[1] in _OBJECTGLOBE:
                served.append((kind, op[2]))
        elif kind in ("publish", "batch"):
            for doc in op[1] if kind == "batch" else [op[1]]:
                if next(iter(doc)).rdf_class in _OBJECTGLOBE:
                    served.append(("publish", doc))
        elif kind == "delete" and not op[1].startswith("listing"):
            served.append(op)
    return served


@dataclass
class KillReport:
    """One served run: the LMR cache and how the run got there."""

    cache: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    audit: list[str] = field(default_factory=list)


def run_kill(seed: int, kill_at: int | None, documents: int = 2,
             config: dict | None = None, workdir: str | None = None) -> KillReport:
    """The served scenario; ``kill_at`` = SIGKILL the MDP before that
    document operation and relaunch it on the same store and port
    (``None`` = the clean run)."""
    report = KillReport()
    with tempfile.TemporaryDirectory() as tempdir:
        base = workdir or tempdir
        os.makedirs(base, exist_ok=True)
        db_path = os.path.join(base, "mdp.db")
        # The LMR reaches the MDP only once the scenario starts, so it
        # comes up first, pointed at the port the MDP will take.
        with socket.create_server(("127.0.0.1", 0)) as probe:
            mdp_port = probe.getsockname()[1]
        nodes: list[ServedNode] = []
        try:
            nodes.append(launch_node(_write_config(
                {"name": LMRS[0], "role": "lmr", "port": 0, "provider": PROVIDER,
                 "peers": {PROVIDER: ["127.0.0.1", mdp_port]}},
                os.path.join(base, "lmr.json"),
            )))
            lmr_port = nodes[0].port
            mdp_path = _write_config({
                "name": PROVIDER, "role": "mdp", "port": mdp_port,
                "db_path": db_path,
                "triggering": (config or {}).get("triggering", "sql"),
                "durability": "safe", "durable_delivery": True,
                "peers": {LMRS[0]: ["127.0.0.1", lmr_port]},
            }, os.path.join(base, "mdp.json"))
            nodes.append(launch_node(mdp_path))
            with ServiceClient("harness", LMRS[0], "127.0.0.1", lmr_port) as lmr, \
                    ServiceClient("harness", PROVIDER, "127.0.0.1", mdp_port,
                                  request_timeout_s=10.0) as mdp:
                ordinal = 0
                for op in served_ops(scenario(seed, documents)):
                    if op[0] in ("subscribe", "unsubscribe"):
                        _retry(lmr.call, *op, pause=0.25)
                        continue
                    if ordinal == kill_at:
                        # SIGKILL: no drain, no cleanup.
                        nodes[-1].process.kill()
                        nodes[-1].process.wait(timeout=30)
                        db = Database(db_path, durability="safe")
                        report.audit = audit_failures(db)
                        db.close()
                        nodes.append(launch_node(mdp_path))
                    ordinal += 1
                    if op[0] == "publish":
                        _retry(mdp.register_document, op[1], pause=0.25)
                    else:
                        _retry(mdp.call, "delete_document", op[1], pause=0.25)
                lmr.call("resync")
                report.stats = dict(lmr.call("stats"))
                report.cache = sorted(
                    resource_snapshot(resource)
                    for cls in _OBJECTGLOBE
                    for resource in lmr.call("query", f"search {cls} x")
                )
        finally:
            for node in nodes:
                node.terminate()
    return report


def kill_failures(seed: int, kill_at: int | None = None, documents: int = 2,
                  config: dict | None = None) -> list[str]:
    """A served run killed at ``kill_at`` (default: halfway through the
    document operations) against the clean served run."""
    if kill_at is None:
        ops = served_ops(scenario(seed, documents))
        kill_at = sum(op[0] in ("publish", "delete") for op in ops) // 2
    return kill_divergences(
        run_kill(seed, kill_at, documents, config),
        run_kill(seed, None, documents, config),
    )


def kill_divergences(killed: KillReport, clean: KillReport) -> list[str]:
    """The convergence assertions on a killed and a clean served run."""
    failures = [f"store audit after the kill: {f}" for f in killed.audit]
    if killed.cache != clean.cache:
        failures.append("the killed run's LMR cache diverged from the clean run's")
    stats = killed.stats
    if stats.get("batches_received", 0) - stats.get("batches_applied", 0) != (
        stats.get("duplicates_ignored", 0)
    ):
        failures.append(f"dedup counters are inconsistent: {stats}")
    return failures


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workload.differential",
        description="differential harness: configuration x transport x faults",
    )
    parser.add_argument("--faults", choices=("none", "crash", "chaos", "kill"),
                        default="none")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--stride", type=int, default=5,
                        help="crash: every Nth statement boundary (commits: all)")
    parser.add_argument("--documents", type=int, default=2,
                        help="documents per family beyond the hand-placed ones")
    parser.add_argument("--kill-at", type=int, default=None,
                        help="kill: SIGKILL before this document operation")
    parser.add_argument("--triggering", choices=("sql", "counting"), default=None)
    parser.add_argument("--durable-delivery",
                        action=argparse.BooleanOptionalAction, default=None)
    parser.add_argument("--in-place", action="store_true",
                        help="crash: roll back on the running provider "
                             "instead of restarting it")
    args = parser.parse_args(argv)
    pinned = {
        name: value
        for name, value in (("triggering", args.triggering),
                            ("durable_delivery", args.durable_delivery))
        if value is not None
    }
    if args.faults == "none":
        rows = lattice(pinned)
        failures = [f for row in rows for f in check(args.seed, row, args.documents)]
        print(f"lattice seed={args.seed}: {len(rows)} runs")
    elif args.faults == "crash":
        report = run_crash_sweep(
            scenario(args.seed, args.documents), pinned, args.stride,
            restart=not args.in_place,
        )
        failures = report.failures
        arm = " in-place" if args.in_place else ""
        print(f"crash{arm} seed={args.seed} {report.summary()}")
    elif args.faults == "chaos":
        failures = chaos_failures(args.seed, pinned, args.documents)
        print(f"chaos seed={args.seed} {pinned}")
    else:
        failures = kill_failures(args.seed, args.kill_at, args.documents, pinned)
        print(f"kill seed={args.seed} {pinned}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print("FAILED" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
