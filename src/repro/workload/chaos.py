"""Seeded chaos scenario: a faulty run must converge to the fault-free one.

The acceptance contract of the fault-tolerance layer (see
``docs/FAULT_TOLERANCE.md``): with any seeded
:class:`~repro.net.faults.FaultPlan` — drops, duplicates, transport
errors, delays and one partition that eventually heals — a workload of
registrations, updates and deletions leaves every MDP and every LMR
cache byte-identical to the same workload run with no faults, with zero
duplicate notification applications.

:func:`run_chaos_scenario` builds a two-provider backbone with one LMR
per provider, executes a scripted workload (derived deterministically
from the seed) in three phases — faulty links, a partition that cuts
``lmr-a`` and the backbone apart, and a healed tail — then runs the
recovery protocol and snapshots all four nodes.  The test suite and the
``python -m repro.mdv --chaos-seed N`` smoke entry both diff a faulty
run against the clean run of the same seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.mdv.backbone import Backbone
from repro.mdv.repository import LocalMetadataRepository
from repro.net.bus import NetworkBus
from repro.net.faults import FaultPlan, LinkFaults
from repro.rdf.model import Document, Resource
from repro.rdf.schema import objectglobe_schema
from repro.rdf.serializer import to_rdfxml
from repro.workload.documents import benchmark_document, document_uri

__all__ = ["ChaosReport", "run_chaos_scenario", "resource_snapshot"]

#: Default link behaviour of the chaos plan.
CHAOS_FAULTS = LinkFaults(
    drop_rate=0.12,
    duplicate_rate=0.12,
    error_rate=0.08,
    delay_ms=5.0,
    delay_jitter_ms=10.0,
)


def resource_snapshot(resource: Resource) -> tuple:
    """A canonical, comparable image of one cached resource."""
    return (
        str(resource.uri),
        resource.rdf_class,
        tuple(
            (name, tuple(sorted(str(v) for v in resource.get(name))))
            for name in sorted(resource.property_names())
        ),
    )


@dataclass
class ChaosReport:
    """Everything a convergence check needs from one scenario run."""

    seed: int
    faulty: bool
    #: Per provider: document URI -> serialized RDF/XML.
    provider_snapshots: dict[str, dict[str, str]] = field(default_factory=dict)
    #: Per LMR: resource URI -> canonical resource image.
    lmr_snapshots: dict[str, dict[str, tuple]] = field(default_factory=dict)
    faults_injected: int = 0
    duplicates_ignored: int = 0
    batches_received: int = 0
    batches_applied: int = 0
    replica_duplicates_ignored: int = 0
    #: A degraded read during the partition came back flagged stale.
    stale_read_observed: bool = False
    #: Replication lag observed while the partition was up.
    lag_during_partition: int = 0
    recovery: dict[str, int] = field(default_factory=dict)
    backbone_synchronized: bool = False

    def summary(self) -> str:
        mode = "faulty" if self.faulty else "clean"
        return (
            f"seed={self.seed} ({mode}): "
            f"{self.faults_injected} faults injected, "
            f"{self.batches_applied} batches applied, "
            f"{self.duplicates_ignored} duplicates ignored, "
            f"lag during partition={self.lag_during_partition}, "
            f"synchronized={self.backbone_synchronized}"
        )


def _workload(seed: int) -> list[tuple]:
    """The scripted operation list for one seed.

    Deterministic in the seed alone, so the faulty and the clean run
    execute the identical workload.  Every document has a *home*
    provider and is only ever written there — concurrent cross-site
    writes to one document are out of the scenario's scope (the
    last-writer-wins resolution is exercised separately).
    """
    rng = random.Random(seed)

    def home(index: int) -> str:
        return "mdp-a" if index % 2 == 0 else "mdp-b"

    ops: list[tuple] = []
    # Memory values straddle the 64MB subscription threshold so updates
    # produce match, unmatch and refresh notifications alike.
    def memory() -> int:
        return rng.randint(10, 900)

    # Phase 1: faulty links, no partition.
    for index in range(8):
        ops.append(("register", index, memory(), home(index)))
    for index in rng.sample(range(8), 3):
        ops.append(("update", index, memory(), home(index)))
    ops.append(("delete", 6, None, home(6)))
    ops.append(("partition", None, None, None))
    # Phase 2: the backbone is split and lmr-a is cut off.
    for index in range(8, 12):
        ops.append(("register", index, memory(), home(index)))
    for index in rng.sample(range(4), 2):
        ops.append(("update", index, memory(), home(index)))
    ops.append(("delete", 7, None, home(7)))
    ops.append(("heal", None, None, None))
    # Phase 3: healed, faults still active on the links.
    ops.append(("register", 12, memory(), home(12)))
    ops.append(("update", 8, memory(), home(8)))
    return ops


def run_chaos_scenario(seed: int, faulty: bool = True) -> ChaosReport:
    """Run the scripted scenario, faulty or clean, and snapshot it."""
    schema = objectglobe_schema()
    plan: FaultPlan | None = None
    if faulty:
        plan = FaultPlan(seed=seed, default_faults=CHAOS_FAULTS)
    bus = NetworkBus(fault_plan=plan)
    backbone = Backbone(schema, bus=bus)
    backbone.add_provider("mdp-a")
    backbone.add_provider("mdp-b")
    lmr_a = LocalMetadataRepository("lmr-a", backbone.provider("mdp-a"),
                                    bus=bus)
    lmr_b = LocalMetadataRepository("lmr-b", backbone.provider("mdp-b"),
                                    bus=bus)
    lmrs = {"lmr-a": lmr_a, "lmr-b": lmr_b}
    # Subscriptions ride the bus too; register them before faults bite
    # by retrying is overkill — the plan is consulted per message, so
    # simply subscribe while the default plan has not yet partitioned.
    _subscribe_with_retry(lmr_a, "search CycleProvider c register c "
                                 "where c.serverInformation.memory > 64")
    _subscribe_with_retry(lmr_b, "search CycleProvider c register c "
                                 "where c.serverHost contains 'uni-passau.de'")

    report = ChaosReport(seed=seed, faulty=faulty)
    for op, index, value, at in _workload(seed):
        if op == "register" or op == "update":
            assert index is not None and value is not None
            backbone.register_document(
                benchmark_document(index, memory=value), at=at
            )
        elif op == "delete":
            assert index is not None
            backbone.delete_document(document_uri(index), at=at)
        elif op == "partition":
            if plan is not None:
                plan.partition({"mdp-a"}, {"mdp-b", "lmr-a"})
        elif op == "heal":
            if plan is not None:
                report.lag_during_partition = backbone.replication_lag()
                result = lmr_a.query_with_status("search CycleProvider c")
                report.stale_read_observed = result.stale
                plan.heal()
                report.recovery = backbone.recover()
                lmr_a.resync()
                lmr_b.resync()
    # Final convergence sweep: phase-3 traffic may still be queued
    # behind backoff windows or dead letters on the faulty links.
    backbone.recover()
    lmr_a.resync()
    lmr_b.resync()

    for name, provider in backbone.providers.items():
        report.provider_snapshots[name] = {
            uri: to_rdfxml(doc) for uri, doc in _documents(provider).items()
        }
        report.replica_duplicates_ignored += (
            provider.replica_dedup.duplicates_ignored
        )
    for name, lmr in lmrs.items():
        report.lmr_snapshots[name] = {
            str(r.uri): resource_snapshot(r) for r in lmr.cache.resources()
        }
        report.duplicates_ignored += lmr.dedup.duplicates_ignored
        report.batches_received += lmr.batches_received
        report.batches_applied += lmr.dedup.applied
    if plan is not None:
        report.faults_injected = plan.faults_injected
    report.backbone_synchronized = backbone.is_synchronized()
    return report


def _documents(provider) -> dict[str, Document]:
    return {uri: provider.document(uri) for uri in provider.document_uris()}


def _subscribe_with_retry(lmr: LocalMetadataRepository, rule: str,
                          attempts: int = 25) -> None:
    """Subscribe across a faulty (but unpartitioned) link.

    Subscription is a client-facing request/response call, not covered
    by the MDP-side outbox; the client simply retries it.  A
    :class:`~repro.errors.NetworkError` means the request never reached
    the MDP (the bus drops and errors before invoking the handler), so
    retrying is safe; an injected *duplicate* of a successful subscribe
    is rejected MDP-side and absorbed by the bus.
    """
    from repro.errors import NetworkError

    for _ in range(attempts):
        try:
            lmr.subscribe(rule)
            return
        except NetworkError:
            continue
    raise RuntimeError(f"could not subscribe {rule!r} in {attempts} attempts")
