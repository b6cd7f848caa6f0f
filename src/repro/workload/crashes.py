"""Crash differential oracle (docs/DURABILITY.md).

The acceptance contract of the durability layer: a scripted pub/sub
workload that is killed at *any* statement or commit boundary, restarted
and resumed must be indistinguishable from the same workload run with no
crash — the stream of applied notification batches is byte-identical
(sources, sequence numbers, batch contents, order), the LMR cache holds
the same resources, and the invariant audit is clean both right after
every crash and at the end of the run.  Nothing is repaired in between:
every provider operation is one transaction, so a crash can only leave
whole operations behind.

:func:`run_crash_scenario` executes one run: a provider (durable or
in-process delivery, ``durable_delivery``) with one directly connected
LMR, a seeded workload of subscriptions, registrations, updates and a
deletion.  With a :class:`~repro.storage.durability.CrashPoint` the run
is killed at that boundary (:class:`~repro.errors.CrashError`), the
store is audited, the provider "restarted" — the object is discarded
and a new one constructed on the same database — reattached,
redelivered, and the interrupted operation is retried.  Retries of
operations the crashed run had already committed are no-ops: a
re-registration produces an empty diff, a re-delete raises
``DocumentNotFoundError``, a re-subscribe raises
``SubscriptionError``; both exceptions are absorbed only when a crash
preceded them.  Redelivered batches the LMR already applied are
dropped by its ``(source, seq)`` dedup index and never re-enter the
stream.

:func:`run_crash_sweep` enumerates every commit boundary plus every
``statement_stride``-th statement boundary of the workload (counted by a
targetless :class:`~repro.storage.durability.CrashPlan` during the
baseline run) and diffs each crashed run against the baseline.

CLI::

    python -m repro.workload.crashes --seed 7 --stride 5
    python -m repro.workload.crashes --seed 1 --no-durable-delivery
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.analysis.invariants import audit_database
from repro.errors import CrashError, DocumentNotFoundError, SubscriptionError
from repro.mdv.provider import MetadataProvider
from repro.mdv.repository import LocalMetadataRepository
from repro.pubsub.notifications import NotificationBatch
from repro.rdf.model import Resource
from repro.rdf.schema import Schema, objectglobe_schema
from repro.storage.durability import (
    CrashPlan,
    CrashPoint,
    enumerate_crash_points,
)
from repro.storage.engine import Database
from repro.workload.chaos import resource_snapshot
from repro.workload.documents import benchmark_document, document_uri
from repro.workload.rules import comp_rule, con_rule, con_token

__all__ = [
    "crash_workload",
    "batch_image",
    "CrashRunResult",
    "CrashSweepReport",
    "run_crash_scenario",
    "run_crash_sweep",
]


def crash_workload(seed: int, documents: int = 6) -> list[tuple]:
    """The scripted operation list for one seed.

    Deterministic in the seed alone, so the baseline and every crashed
    run execute the identical workload.  Mixes the operation kinds whose
    crash-atomicity matters: subscriptions (with immediate initial
    delivery), registrations, updates that move resources across match
    thresholds (match, unmatch and contains-rule traffic alike) and a
    deletion (broadcast notifications plus multi-table removal).
    """
    rng = random.Random(seed)
    token = con_token(1)
    ops: list[tuple] = [
        ("subscribe", comp_rule(2)),
        ("subscribe", con_rule(1)),
    ]
    def synth() -> int:
        return rng.randint(0, 8)

    def host(index: int) -> str | None:
        # About half the documents embed the CON token in their host.
        if rng.random() < 0.5:
            return f"host{index}.{token}.example.org"
        return None

    for index in range(documents):
        ops.append(("register", index, synth(), rng.randint(10, 900),
                    host(index)))
    # A mid-stream subscription exercises initial-batch delivery from
    # current matches inside the crash window.
    ops.append(("subscribe", comp_rule(5)))
    for index in rng.sample(range(documents), min(3, documents)):
        ops.append(("register", index, synth(), rng.randint(10, 900),
                    host(index)))
    ops.append(("delete", rng.randrange(documents)))
    return ops


def _resource_image(resource: Resource) -> dict:
    return {
        "uri": str(resource.uri),
        "class": resource.rdf_class,
        "properties": {
            name: sorted(str(value) for value in resource.get(name))
            for name in sorted(resource.property_names())
        },
    }


def batch_image(batch: NotificationBatch) -> dict:
    """A canonical, comparable image of one applied batch."""
    notifications = []
    for notification in batch.notifications:
        if notification.kind == "match":
            notifications.append({
                "kind": "match",
                "sub_id": notification.sub_id,
                "rule": notification.rule_text,
                "resources": [
                    _resource_image(resource)
                    for resource in notification.payload.all_resources()
                ],
            })
        elif notification.kind == "unmatch":
            notifications.append({
                "kind": "unmatch",
                "sub_id": notification.sub_id,
                "rule": notification.rule_text,
                "uri": str(notification.uri),
            })
        else:
            notifications.append({
                "kind": "delete",
                "uri": str(notification.uri),
            })
    return {
        "source": batch.source,
        "seq": batch.seq,
        "subscriber": batch.subscriber,
        "notifications": notifications,
    }


@dataclass
class CrashRunResult:
    """Everything the differential check needs from one run."""

    stream: list[dict] = field(default_factory=list)
    cache: list[tuple] = field(default_factory=list)
    audit_findings: list[str] = field(default_factory=list)
    crash: CrashPoint | None = None
    #: Whether the installed plan actually fired.
    crashed: bool = False
    #: Crashes survived (restart cycles).
    recoveries: int = 0
    #: Boundary totals observed by the run's (counting) crash plan.
    statements: int = 0
    commits: int = 0


def _new_provider(
    db: Database,
    schema: Schema,
    triggering: str,
    durable_delivery: bool,
) -> MetadataProvider:
    return MetadataProvider(
        schema,
        name="mdp",
        db=db,
        durable_delivery=durable_delivery,
        triggering=triggering,
    )


def _apply(provider: MetadataProvider, lmr: LocalMetadataRepository,
           op: tuple) -> None:
    kind = op[0]
    if kind == "subscribe":
        lmr.subscribe(op[1])
    elif kind == "register":
        __, index, synth_value, memory, server_host = op
        provider.register_document(
            benchmark_document(
                index,
                synth_value=synth_value,
                memory=memory,
                server_host=server_host,
            )
        )
    elif kind == "delete":
        provider.delete_document(document_uri(op[1]))
    else:  # pragma: no cover - workload generator is closed
        raise ValueError(f"unknown workload op {kind!r}")


def run_crash_scenario(
    seed: int,
    crash_point: CrashPoint | None = None,
    documents: int = 6,
    triggering: str = "sql",
    durable_delivery: bool = True,
) -> CrashRunResult:
    """One workload run, optionally killed at ``crash_point``.

    Without a crash point a targetless counting plan is installed, so
    the result carries the run's statement/commit boundary totals — the
    input of :func:`~repro.storage.durability.enumerate_crash_points`.
    """
    schema = objectglobe_schema()
    db = Database(metrics=None)
    result = CrashRunResult(crash=crash_point)
    provider = _new_provider(db, schema, triggering, durable_delivery)
    lmr = LocalMetadataRepository("lmr", provider)

    def attach(to_provider: MetadataProvider) -> None:
        def handler(batch: NotificationBatch) -> None:
            if lmr.apply_batch(batch):
                result.stream.append(batch_image(batch))

        to_provider.connect_subscriber(lmr.name, handler)

    attach(provider)
    plan = crash_point.plan() if crash_point is not None else CrashPlan()
    db.install_crash_plan(plan)
    try:
        for op in crash_workload(seed, documents):
            recovered_this_op = False
            while True:
                try:
                    _apply(provider, lmr, op)
                    break
                except CrashError:
                    result.crashed = True
                    result.recoveries += 1
                    recovered_this_op = True
                    db.clear_crash_plan()
                    provider.close()
                    # The store as the crash left it must need no repair.
                    result.audit_findings.extend(
                        f"at restart: [{d.code}] {d.message}"
                        for d in audit_database(db).diagnostics
                    )
                    provider = _new_provider(
                        db, schema, triggering, durable_delivery
                    )
                    lmr.reattach(provider)
                    attach(provider)
                    provider.deliver_pending()
                except (SubscriptionError, DocumentNotFoundError):
                    if recovered_this_op:
                        # The crashed attempt had already committed;
                        # the retry is redundant by design.
                        break
                    raise
    finally:
        live_plan = db.crash_plan
        if live_plan is not None:
            result.statements = live_plan.statements_seen
            result.commits = live_plan.commits_seen
            db.clear_crash_plan()
        provider.close()
    result.audit_findings.extend(
        f"[{d.code}] {d.message}" for d in audit_database(db).diagnostics
    )
    result.cache = sorted(
        resource_snapshot(resource) for resource in lmr.cache.resources()
    )
    db.close()
    return result


@dataclass
class CrashSweepReport:
    """Outcome of a full crash-point sweep for one configuration."""

    seed: int
    triggering: str = "sql"
    durable_delivery: bool = True
    statements: int = 0
    commits: int = 0
    points_tested: int = 0
    points_fired: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURE(S)"
        delivery = "" if self.durable_delivery else " durable_delivery=False"
        return (
            f"seed={self.seed} triggering={self.triggering}{delivery}: "
            f"{self.points_tested} crash point(s) over "
            f"{self.statements} statements / "
            f"{self.commits} commits — {status}"
        )


def run_crash_sweep(
    seed: int,
    statement_stride: int = 5,
    documents: int = 6,
    triggering: str = "sql",
    durable_delivery: bool = True,
) -> CrashSweepReport:
    """Kill the workload at every enumerated boundary and diff each run
    against the never-crashed baseline."""
    baseline = run_crash_scenario(
        seed,
        None,
        documents=documents,
        triggering=triggering,
        durable_delivery=durable_delivery,
    )
    report = CrashSweepReport(seed, triggering, durable_delivery)
    report.statements = baseline.statements
    report.commits = baseline.commits
    if baseline.audit_findings:
        report.failures.append(
            f"baseline audit not clean: {baseline.audit_findings}"
        )
    points = enumerate_crash_points(
        baseline.statements, baseline.commits, statement_stride
    )
    for point in points:
        result = run_crash_scenario(
            seed,
            point,
            documents=documents,
            triggering=triggering,
            durable_delivery=durable_delivery,
        )
        report.points_tested += 1
        if result.crashed:
            report.points_fired += 1
        else:
            report.failures.append(f"{point}: plan never fired")
            continue
        if result.audit_findings:
            report.failures.append(
                f"{point}: audit findings: "
                f"{result.audit_findings}"
            )
        if result.stream != baseline.stream:
            report.failures.append(
                f"{point}: applied notification stream diverged "
                f"({len(result.stream)} vs {len(baseline.stream)} batches)"
            )
        if result.cache != baseline.cache:
            report.failures.append(
                f"{point}: LMR cache diverged "
                f"({len(result.cache)} vs {len(baseline.cache)} resources)"
            )
    return report


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Crash differential oracle sweep"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--triggering", choices=("sql", "counting"), default="sql"
    )
    parser.add_argument(
        "--stride", type=int, default=5,
        help="test every Nth statement boundary (commits: all)",
    )
    parser.add_argument("--documents", type=int, default=6)
    parser.add_argument(
        "--durable-delivery", action=argparse.BooleanOptionalAction,
        default=True,
        help="persist the outbox (default) or deliver in-process",
    )
    args = parser.parse_args(argv)
    report = run_crash_sweep(
        args.seed,
        statement_stride=args.stride,
        documents=args.documents,
        triggering=args.triggering,
        durable_delivery=args.durable_delivery,
    )
    print(report.summary())
    for failure in report.failures:
        print(f"  FAIL {failure}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
