"""Concurrency stress: mixed mutations from many threads, under faults.

Four worker threads hammer one provider — under each triggering
evaluator, the paper's SQL joins and the counting index the benchmark
profile runs — with register/update/delete plus subscribe/unsubscribe,
over a faulty bus link to one LMR.  Provider access is serialized by a
lock — SQLite objects are not safe for unsynchronized concurrent use
(docs/CONCURRENCY.md); the point of the test is the *interleaving*:
matching, the counting index's refresh off the mutation log and the
LMR's at-least-once delivery all hop between threads from one
operation to the next.

Afterwards, everything must reconcile:

- the graph/store invariants of :mod:`repro.analysis.invariants` hold,
- the LMR cache equals the provider's materialized matches (no lost
  notifications),
- every received batch was applied exactly once or discarded as a
  duplicate (no double applications).
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.analysis.invariants import audit_database
from repro.mdv.provider import MetadataProvider
from repro.mdv.repository import LocalMetadataRepository
from repro.net.bus import NetworkBus
from repro.net.faults import FaultPlan, LinkFaults
from repro.rdf.schema import objectglobe_schema
from repro.storage.engine import Database
from repro.workload.documents import benchmark_document, document_uri

SEEDS = [1, 7, 42]

#: Duplicates and delays only: a *dropped* notification batch is an
#: availability problem handled by resync (exercised in the chaos
#: suite); here every batch must arrive so exactly-once application
#: can be asserted without a recovery pass.
STRESS_FAULTS = LinkFaults(duplicate_rate=0.25, delay_ms=1.0)

RULE = (
    "search CycleProvider c register c "
    "where c.serverInformation.memory > 64"
)
#: One per worker thread — subscribe/unsubscribe must not collide
#: across threads (an LMR rejects duplicate subscriptions).
EXTRA_RULES = [
    "search CycleProvider c register c where c.serverHost contains 'de'",
    "search ServerInformation s register s where s.memory > 128",
    "search CycleProvider c register c",
    "search CycleProvider c register c where c.serverInformation.cpu > 500",
]

_THREADS = 4
_OPS_PER_THREAD = 12
_DOCS_PER_THREAD = 6


def _worker(index: int, seed: int, lock, provider, lmr, errors) -> None:
    """One thread's operation stream over its private document keyspace.

    Document indexes are partitioned per thread (``base + i``) so two
    threads never write the same document; subscriptions are per-thread
    rules so subscribe/unsubscribe cannot collide either.
    """
    rng = random.Random(seed * 1000 + index)
    base = 1000 * index
    live: list[int] = []
    extra_rule = EXTRA_RULES[index % len(EXTRA_RULES)]
    subscribed = False
    try:
        for op in range(_OPS_PER_THREAD):
            choice = rng.random()
            with lock:
                if choice < 0.2 and not subscribed:
                    lmr.subscribe(extra_rule)
                    subscribed = True
                elif choice < 0.3 and subscribed:
                    lmr.unsubscribe(extra_rule)
                    subscribed = False
                elif choice < 0.55 and live:
                    doc_index = rng.choice(live)
                    provider.register_document(
                        benchmark_document(
                            doc_index, memory=rng.randint(10, 900)
                        )
                    )
                elif choice < 0.7 and live:
                    doc_index = live.pop(rng.randrange(len(live)))
                    provider.delete_document(document_uri(doc_index))
                elif len(live) < _DOCS_PER_THREAD:
                    doc_index = base + len(live)
                    provider.register_document(
                        benchmark_document(
                            doc_index, memory=rng.randint(10, 900)
                        )
                    )
                    live.append(doc_index)
    except Exception as exc:  # pragma: no cover - the assertion payload
        errors.append((index, exc))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("triggering", ["sql", "counting"])
def test_concurrent_mutations_reconcile(seed, triggering):
    plan = FaultPlan(seed=seed, default_faults=STRESS_FAULTS)
    bus = NetworkBus(fault_plan=plan)
    db = Database(check_same_thread=False)
    provider = MetadataProvider(
        objectglobe_schema(), name="mdp", db=db, bus=bus,
        triggering=triggering,
    )
    lmr = LocalMetadataRepository("lmr-stress", provider, bus=bus)
    lock = threading.Lock()
    errors: list[tuple[int, Exception]] = []

    lmr.subscribe(RULE)
    threads = [
        threading.Thread(
            target=_worker,
            args=(index, seed, lock, provider, lmr, errors),
            name=f"stress-{index}",
        )
        for index in range(_THREADS)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "worker deadlocked"
        assert not errors, f"worker failures: {errors}"

        lmr.resync()

        # Store/graph invariants survive the interleaving.
        report = audit_database(provider.db)
        assert not report.has_errors, report

        # No lost notifications: the cache holds exactly the provider's
        # current matches for the always-on subscription.
        end_rule = provider.registry.subscriptions_for(
            provider.registry.end_rule_ids()
        )
        [sub] = [s for s in end_rule if s.rule_text == RULE]
        expected = {
            str(uri) for uri in provider.engine.current_matches(sub.end_rule)
        }
        cached = {
            str(r.uri)
            for r in lmr.cache.resources()
            if r.rdf_class == "CycleProvider"
        }
        assert expected <= cached

        # Exactly-once application: every received batch was either
        # applied or discarded as a duplicate, and duplicates were
        # actually injected (otherwise the fault plan did nothing).
        assert (
            lmr.dedup.applied + lmr.dedup.duplicates_ignored
            == lmr.batches_received
        )
        assert plan.faults_injected > 0
    finally:
        provider.close()
        db.close()
