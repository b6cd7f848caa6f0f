"""The four workloads and the closed loop that drives them.

One process, one caller: every operation blocks until the system has
answered, and its interval ends when the subscriber side has reached
the notification count the oracle expects (see README.md, "visible").

A run is: build the rule base on a fresh system, and a tenth of it on a
second one, the *twin*; fill the first with documents; execute *rounds*;
check both end states; then, both closed, build the rule base a few more
times (``setup_s`` is the median of all the like builds).  A round is a
fixed multiset of operations in a seeded order, so every round does the
same work, the first round is the warm-up, and a traced pass can trace
every other round and compare.  The twin takes one publish for every
publish of the round, in between the other operations:
``publish_scale_ratio`` divides two medians taken over the same seconds,
so what the machine does to one it does to the other.
Operation counts are fixed (``--seconds`` only scales the number of
rounds, and no clock ends a run early), so state, counters and the
oracle repeat exactly for a seed.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import sys
import threading
import time
import traceback
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace

import adapter
from generators import (
    DocParams,
    Rule,
    build_document,
    document_uri,
    host_uri,
    query_text,
    rule_text,
)
from oracle import Oracle
from report import percentile
from tracing import LayerTimer

__all__ = ["NOMINAL_SECONDS", "SCALES", "Spec", "run_workload"]

#: The run length the frozen ``rounds`` below were sized for
#: (``run_seconds`` in BENCHMARK.json).
NOMINAL_SECONDS = 10

#: One visibility probe per this many daemon publishes (seeded choice).
PROBE_ONE_IN = 50


@dataclass(frozen=True)
class Spec:
    name: str
    system: str  # "in-process" or "daemon"
    lmrs: int
    #: Rule types, dealt round-robin: rule r has type mix[r % len(mix)].
    mix: tuple[str, ...]
    rules: int
    #: OID rule k names document k * oid_stride, so OID matches stay
    #: evenly spread over the documents a run publishes.
    oid_stride: int
    #: Mean number of COMP rules a document matches at the full base.
    comp_matches: float
    #: A document embeds 0..con_max tokens of CON rules.
    con_max: int
    #: Documents stored (in untimed batches) before the first round.
    prefill: int
    #: Operations per round; the twin takes ``round["publish"]`` more.
    round: dict[str, int] = field(default_factory=dict)
    #: Counted rounds at NOMINAL_SECONDS (one more runs first, as warm-up).
    rounds: int = 10
    batch_size: int = 100
    #: Builds of the whole rule base (``setup_s`` is their median): the
    #: measured system's and ``setup_repeats - 1`` more after the rounds.
    setup_repeats: int = 3


_FULL = [
    # Filter, publisher and LMR do almost nothing here, so any
    # O(rule base) term on the provider path is the whole cost.
    Spec(
        name="oid_fanout", system="in-process", lmrs=4, mix=("OID",),
        rules=10_000, oid_stride=1, comp_matches=0, con_max=0,
        prefill=1600,
        round={"publish": 20, "update": 4, "delete": 3, "batch": 2,
               "subscribe": 6, "unsubscribe": 6, "query": 12},
        rounds=24,
    ),
    # The same layers used differently: three-pass updates, deletes,
    # join iterations, rule churn and reads beside writes.
    Spec(
        name="mixed_churn", system="in-process", lmrs=4,
        mix=("OID", "COMP", "PATH", "JOIN", "CON"),
        rules=6_000, oid_stride=3, comp_matches=12, con_max=2,
        prefill=1000,
        round={"publish": 14, "update": 6, "delete": 4, "batch": 3,
               "subscribe": 6, "unsubscribe": 6, "query": 10},
        rounds=22, batch_size=20,
    ),
    # Per-run and per-rule-base costs are amortised over 100 documents;
    # joins, result collection, closure, batching and LMR apply do the
    # work.  The bypass workload for rule-base-size fixes.
    Spec(
        name="batch_ingest", system="in-process", lmrs=4,
        mix=("COMP", "PATH"),
        rules=3_000, oid_stride=1, comp_matches=50, con_max=0,
        prefill=1200,
        round={"publish": 10, "update": 4, "delete": 4, "batch": 3,
               "subscribe": 8, "unsubscribe": 8, "query": 8},
        rounds=16, setup_repeats=5,
    ),
    # Small rule base behind two daemons: codec, frames, socket
    # dispatch, outbox and SQLite commits dominate.
    Spec(
        name="daemon_small", system="daemon", lmrs=1,
        mix=("OID", "COMP", "PATH", "JOIN", "CON"),
        rules=600, oid_stride=10, comp_matches=2, con_max=2,
        prefill=300,
        round={"publish": 24, "update": 10, "delete": 5, "batch": 3,
               "subscribe": 5, "unsubscribe": 5, "query": 6, "ping": 5},
        rounds=18, batch_size=10,
    ),
]


def _smoke(spec: Spec) -> Spec:
    """Hundreds of rules, tens of operations: the test-suite scale."""
    per_type = 40 if spec.system == "in-process" else 20
    return replace(
        spec,
        rules=per_type * len(spec.mix),
        comp_matches=min(spec.comp_matches, 3),
        prefill=10,
        round={kind: min(count, 3) for kind, count in spec.round.items()},
        rounds=2, batch_size=5, setup_repeats=1,
    )


SCALES: dict[str, dict[str, Spec]] = {
    "full": {spec.name: spec for spec in _FULL},
    "smoke": {spec.name: _smoke(spec) for spec in _FULL},
}

_SYSTEMS = {
    "in-process": adapter.InProcessSystem,
    "daemon": adapter.DaemonSystem,
}

#: Operations that make documents visible.
_PUBLISHING = ("publish", "update", "batch")

#: Rule types the final browse cross-check samples.
_BROWSABLE = ("OID", "COMP", "CON")


class Run:
    """One workload run: the generator, the loop and its samples."""

    def __init__(
        self, spec: Spec, seed: int, timer: LayerTimer | None, share: int = 1
    ):
        """``share=10`` makes the twin: the first tenth of the rules."""
        self.spec = spec
        self.rng = random.Random(f"{spec.name}/{seed}/{share}")
        self.timer = timer
        self.oracle = Oracle(spec.lmrs, spec.oid_stride)
        #: Rule r has type ``mix[r % len(mix)]`` and ordinal r // len(mix).
        self.rules = [
            Rule(spec.mix[r % len(spec.mix)], r // len(spec.mix))
            for r in range(spec.rules // share)
        ]
        #: Rule ordinals per type; documents draw their values from it,
        #: so the twin's documents match the same kinds of rule.
        self.per_type = len(self.rules) // len(spec.mix)
        self.system = None
        self.next_doc = 0
        #: Rules unsubscribed earlier; subscribe operations bring them
        #: back, oldest first, over the documents that arrived meanwhile.
        self.parked: list[Rule] = []
        self.churn_types = [
            kind for kind in spec.mix if kind in ("OID", "PATH", "JOIN")
        ]
        self.churned = 0
        self.attempted = 0
        self.failed = 0
        #: Calls made into the current system (daemon counter divisor).
        self.system_ops = 0
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.statements: dict[str, list[float]] = defaultdict(list)
        self.round_walls: dict[bool, list[float]] = {True: [], False: []}
        self.traced_ops: dict[str, int] = defaultdict(int)
        self.counted_ops = 0
        self._traced = False
        self._recording = False
        self._phase = "full" if share == 1 else "small"

    # -- building -------------------------------------------------------
    def build(self):
        """A fresh system with every rule subscribed, and the seconds
        that took (for the daemons, from before they boot)."""
        started = time.perf_counter()
        system = _SYSTEMS[self.spec.system](self.spec.lmrs)
        try:
            for rule in self.rules:
                system.subscribe(*self._address(rule))
        except BaseException:
            system.close()  # never leave daemons behind
            raise
        return system, time.perf_counter() - started

    def adopt(self, system) -> None:
        """Make ``system`` the one under test; tell the oracle its rules."""
        self.system = system
        for rule in self.rules:
            self.oracle.subscribe(rule)
        self.system_ops += len(self.rules)
        self._visible("build", system.visible_counts(), self.oracle.expected)

    # -- generators -----------------------------------------------------
    def _fresh_params(self, d: int, avoid: DocParams | None = None) -> DocParams:
        spec, rng = self.spec, self.rng
        # COMP matches: within half of the mean either way, scaled to
        # this system's share of the rule base.
        mean = spec.comp_matches * len(self.rules) / spec.rules
        synth_low = round(mean / 2)
        synth_high = max(synth_low + 2, round(1.5 * mean) + 1)
        while True:
            count = rng.randrange(spec.con_max + 1)
            params = DocParams(
                d=d,
                synth=rng.randrange(synth_low, synth_high),
                memory=rng.randrange(self.per_type),
                tokens=tuple(sorted(
                    rng.sample(range(self.per_type), count)
                )),
            )
            if avoid is None or (
                params.synth != avoid.synth and params.memory != avoid.memory
            ):
                return params

    def _new_doc(self) -> DocParams:
        params = self._fresh_params(self.next_doc)
        self.next_doc += 1
        return params

    def _prepare_publish(self):
        params = self._new_doc()
        document = build_document(params)
        self.oracle.publish(params)
        probe = None
        if (
            self.spec.system == "daemon"
            and self.rng.randrange(PROBE_ONE_IN) == 0
        ):
            probe = params
        return (lambda: self.system.publish(document)), probe

    def _prepare_batch(self):
        batch = [self._new_doc() for _ in range(self.spec.batch_size)]
        documents = [build_document(params) for params in batch]
        for params in batch:
            self.oracle.publish(params)
        return (lambda: self.system.publish_batch(documents)), None

    def _prepare_update(self):
        old = self.oracle.random_doc(self.rng)
        params = self._fresh_params(old.d, avoid=old)
        document = build_document(params)
        self.oracle.update(params)
        return (lambda: self.system.publish(document)), None

    def _prepare_delete(self):
        old = self.oracle.random_doc(self.rng)
        self.oracle.delete(old.d)
        return (lambda: self.system.delete(document_uri(old.d))), None

    def _prepare_subscribe(self):
        rule = self.parked.pop(0)
        self.oracle.subscribe(rule)
        lmr, text = self._address(rule)
        return (lambda: self.system.subscribe(lmr, text)), None

    def _address(self, rule: Rule) -> tuple[int, str]:
        return self.oracle.owner(rule), rule_text(rule, self.spec.oid_stride)

    def _prepare_unsubscribe(self):
        """Park one rule.  Churn cycles through the one-to-one rule
        types in a fixed order and prefers a rule some live document
        matches, so every run subscribes the same kinds of rule, each
        with about one initial match."""
        kind = self.churn_types[self.churned % len(self.churn_types)]
        self.churned += 1
        rule = None
        for _ in range(64):
            matching = [
                candidate for candidate in self.oracle.matching_rules(
                    self.oracle.random_doc(self.rng)
                )
                if candidate.type == kind
            ]
            if matching:
                rule = matching[0]
                break
        while rule is None or rule not in self.oracle.live_rules:
            rule = Rule(kind, self.rng.randrange(self.per_type))
        self.oracle.unsubscribe(rule)
        self.parked.append(rule)
        lmr, text = self._address(rule)
        return (lambda: self.system.unsubscribe(lmr, text)), None

    def _prepare_query(self):
        """A path query over one LMR's cache, with its expected answer."""
        target = self.oracle.random_doc(self.rng)
        lmr = self.rng.randrange(self.spec.lmrs)
        expected = sorted(
            host_uri(d)
            for d in self.oracle.matching_docs(Rule("PATH", target.memory))
            if lmr in self.oracle.holders(self.oracle.docs[d])
        )
        text = query_text(Rule("PATH", target.memory))
        return (lambda: self.system.query(lmr, text)), expected

    def _prepare_ping(self):
        return self.system.ping, None

    # -- the loop -------------------------------------------------------
    def _fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {what}", file=sys.stderr)

    def _visible(self, what: str, seen, expected: list[int]) -> bool:
        """Whether the LMRs hold the notifications the oracle expects
        (``seen`` is ``None`` where that cannot be read per operation)."""
        if seen is None or seen == expected:
            return True
        self._fail(f"{what}: notifications {seen}, oracle expects {expected}")
        self.oracle.expected = list(seen)  # one failure, not a cascade
        return False

    def op(self, kind: str) -> float:
        """Run one operation closed-loop; returns its milliseconds
        (0.0 for a failed one, which is counted and not sampled)."""
        self.attempted += 1
        self.system_ops += 1
        call, check = getattr(self, "_prepare_" + kind)()
        expected = list(self.oracle.expected)
        what = f"{self._phase} op {self.attempted} ({kind})"
        timer = self.timer
        sample_statements = timer is not None and kind == "publish"
        if sample_statements:
            statements = self.system.counter("storage.statements")
        if timer is not None:
            timer.op_id = self.attempted
            timer.enabled = self._traced
        started = time.perf_counter()
        try:
            result = call()
            seen = self.system.visible_counts()
            elapsed = (time.perf_counter() - started) * 1000.0
        except Exception:  # noqa: BLE001 - any failure is a failed operation
            self._fail(f"{what} raised:\n{traceback.format_exc()}")
            return 0.0
        finally:
            if timer is not None:
                timer.enabled = False
        if not self._visible(what, seen, expected):
            return 0.0
        if kind == "query" and sorted(result) != check:
            self._fail(f"{what}: returned {sorted(result)}, expected {check}")
            return 0.0
        if kind == "publish" and check is not None:
            self._probe(what, check)
        if sample_statements:
            self.statements[self._phase].append(
                self.system.counter("storage.statements") - statements
            )
        if self._recording:
            self.samples[kind].append(elapsed)
            if self._traced:
                self.traced_ops[kind] += 1
        return elapsed

    def _probe(self, what: str, params: DocParams) -> None:
        """The visibility invariant behind the daemon timings: right
        after the acknowledgement the LMR answers for the document."""
        self.system_ops += 1
        uri = host_uri(params.d)
        found = self.system.query(
            0, f"search CycleProvider c where c = '{uri}'"
        )
        wanted = [uri] if self.oracle.holders(params) else []
        if found != wanted:
            self._fail(f"{what}: visibility probe saw {found}, not {wanted}")

    def prefill(self) -> None:
        """Store the documents the first round finds, in batches: the
        cheapest way in, checked like every operation, never sampled."""
        for _ in range(self.spec.prefill // self.spec.batch_size):
            self.op("batch")

    def _round_order(self) -> list[str]:
        order = [
            kind for kind, count in self.spec.round.items()
            for _ in range(count)
        ]
        # As many publishes again, for the twin.
        order += ["twin"] * self.spec.round["publish"]
        self.rng.shuffle(order)
        # A subscribe needs a parked rule: where none is left, let the
        # next unsubscribe of the round go first.
        parked = len(self.parked)
        for index, kind in enumerate(order):
            if kind == "unsubscribe":
                parked += 1
            elif kind == "subscribe" and parked == 0:
                swap = order.index("unsubscribe", index)
                order[index], order[swap] = "unsubscribe", "subscribe"
                parked += 1
            elif kind == "subscribe":
                parked -= 1
        return order

    def rounds(self, count: int, twin: Run) -> dict[str, float]:
        """The warm-up round, then ``count`` counted rounds, ``twin``
        publishing in between; returns the (non-zero) counter deltas
        over the counted rounds.  Every round runs however long it
        takes: a slower system is measured over the same work, not over
        less of it."""
        before: dict[str, float] = {}
        for index in range(-1, count):
            counted = index >= 0
            if index == 0:
                before = self.system.counter_values()
            self._recording = twin._recording = counted
            self._traced = (
                counted and self.timer is not None and index % 2 == 0
            )
            gc.collect()  # between rounds, never inside a timed interval
            wall = 0.0
            for kind in self._round_order():
                if kind == "twin":
                    twin.op("publish")
                else:
                    wall += self.op(kind)
            if counted:
                self.counted_ops += sum(self.spec.round.values())
                self.round_walls[self._traced].append(wall)
        self._recording = self._traced = False
        return self.system.counters_since(before)

    # -- output checks --------------------------------------------------
    def final_checks(self, corrupt: bool) -> None:
        """Totals, caches and a browse sample against the oracle."""
        self._phase = "final"
        self.attempted += 1
        totals = self.system.notification_totals()
        if totals != self.oracle.expected:
            self._fail(
                f"notification totals {totals}, oracle expects "
                f"{self.oracle.expected}"
            )
        for lmr, expected in enumerate(self.oracle.expected_caches()):
            self.attempted += 1
            if corrupt:
                expected.add("corrupted.rdf#host")
            cached = self.system.cache_uris(lmr)
            if cached != expected:
                self._fail(
                    f"cache of LMR {lmr}: {len(cached - expected)} unexpected, "
                    f"{len(expected - cached)} missing URIs"
                )
        # Path predicates are left to the cache check above: their SQL
        # translation in browse() is quadratic in the stored documents
        # (seconds per query at a few thousand), see README.md.
        live = sorted(
            rule for rule in self.oracle.live_rules
            if rule.type in _BROWSABLE
        )
        for rule in self.rng.sample(live, min(100, len(live))):
            self.attempted += 1
            self.system_ops += 1
            browsed = sorted(
                self.system.browse(query_text(rule, self.spec.oid_stride))
            )
            expected_uris = sorted(
                host_uri(d) for d in self.oracle.matching_docs(rule)
            )
            if browsed != expected_uris:
                self._fail(
                    f"browse of {rule}: {browsed[:3]}… ({len(browsed)}), "
                    f"oracle expects {expected_uris[:3]}… "
                    f"({len(expected_uris)})"
                )


def _peak_rss_mb() -> float:
    """This process plus its largest reaped child (the daemons)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def _metric(value, unit: str, n: int) -> dict[str, object]:
    return {"value": value, "unit": unit, "n": n}


def _end_to_end(
    run: Run, twin: Run, setup_times: list[float]
) -> dict[str, dict]:
    samples = run.samples
    metrics: dict[str, dict] = {
        "setup_s": _metric(
            percentile(setup_times, 50), "s", len(setup_times)
        ),
    }
    for name, kind in (
        ("publish_visible_ms_p50", "publish"),
        ("update_visible_ms_p50", "update"),
        ("delete_visible_ms_p50", "delete"),
        ("batch_visible_ms_p50", "batch"),
    ):
        metrics[name] = _metric(
            percentile(samples[kind], 50), "ms", len(samples[kind])
        )
    documents = (
        len(samples["publish"]) + len(samples["update"])
        + run.spec.batch_size * len(samples["batch"])
    )
    busy_ms = sum(sum(samples[kind]) for kind in _PUBLISHING)
    metrics["docs_per_s"] = _metric(
        documents / (busy_ms / 1000.0) if busy_ms else None,
        "docs/s", documents,
    )
    at_a_tenth = twin.samples["publish"]
    small = percentile(at_a_tenth, 50)
    full = metrics["publish_visible_ms_p50"]["value"]
    metrics["publish_scale_ratio"] = _metric(
        full / small if small and full else None, "ratio", len(at_a_tenth)
    )
    metrics["peak_rss_mb"] = _metric(_peak_rss_mb(), "MiB", 1)
    return metrics


def _per(total, count):
    """``total / count``, keeping a lost wrap point's ``None``."""
    if total is None:
        return None
    return total / count if count else 0.0


def _labelled(deltas: dict[str, float], name: str) -> float:
    """Sum of one counter over all its label sets."""
    return sum(
        value for key, value in deltas.items()
        if key == name or key.startswith(name + "{")
    )


def _histogram_sum(dump: dict, name: str) -> float:
    histogram = dump.get("histograms", {}).get(name)
    return float(histogram["sum"]) if histogram else 0.0


def _per_layer(
    run: Run, twin: Run, deltas: dict[str, float], info: dict[str, object]
) -> dict[str, dict]:
    timer = run.timer
    assert timer is not None
    traced = sum(run.traced_ops.values())
    subscribes = run.traced_ops["subscribe"]
    queries = run.traced_ops["query"]
    counted = run.counted_ops
    dumps = info["dumps"]
    if dumps:
        # Daemon counters leave the processes only as whole-life totals
        # (the dump at SIGTERM), so they are divided by every call the
        # generator made, set-up subscriptions included.
        server = {}
        for dump in dumps.values():
            for key, value in dump.get("counters", {}).items():
                server[key] = server.get(key, 0.0) + value
        divisor = run.system_ops
        mdp_dump = dumps.get("mdp-1", {})
        server_ms = {
            "filter.run": _histogram_sum(mdp_dump, "trace.filter.run.ms"),
            "filter.counting": _histogram_sum(mdp_dump, "counting.match_ms"),
            "mdv.outbox": _histogram_sum(
                mdp_dump, "outbox.delivery_latency_ms"
            ),
        }
    else:
        server, divisor, server_ms = deltas, counted, {}

    def time_per(count: int, *prefixes: str):
        if prefixes[0] in server_ms:
            return _per(server_ms[prefixes[0]], divisor)
        return _per(timer.self_ms(*prefixes), count)

    def count_per_op(name: str):
        return _per(_labelled(server, name), divisor)

    lmr_stats = info["lmr_stats"]
    values: dict[str, tuple[object, str]] = {
        "rdf.self_ms_per_op": (time_per(traced, "rdf"), "ms"),
        "rdf.calls_per_op": (_per(timer.call_count("rdf"), traced), "count"),
        "rules.compile_ms_per_subscribe": (time_per(
            subscribes, "rules.parse_rule", "rules.normalize_rule",
            "rules.decompose_rule",
        ), "ms"),
        "rules.registry.register_ms_per_subscribe": (time_per(
            subscribes, "rules.registry.register_subscription"
        ), "ms"),
        "rules.registry.end_rule_ids_ms_per_op": (
            time_per(traced, "rules.registry.end_rule_ids"), "ms"),
        "rules.registry.end_rule_ids_calls_per_op": (_per(
            timer.call_count("rules.registry.end_rule_ids"), traced
        ), "count"),
        "rules.registry.subscriptions_for_ms_per_op": (
            time_per(traced, "rules.registry.subscriptions_for"), "ms"),
        "filter.engine.self_ms_per_op": (
            time_per(traced, "filter.engine"), "ms"),
        "filter.run_ms_per_op": (time_per(traced, "filter.run"), "ms"),
        "filter.runs_per_op": (count_per_op("filter.runs"), "count"),
        "filter.counting.match_ms_per_op": (
            time_per(traced, "filter.counting"), "ms"),
        "filter.initialize_rules_ms_per_subscribe": (
            time_per(subscribes, "filter.initialize_rules"), "ms"),
        "filter.iterations_per_op": (
            count_per_op("filter.iterations"), "count"),
        "filter.result_rows_per_op": (
            count_per_op("filter.result_rows"), "count"),
        "filter.atoms_scanned_per_op": (
            count_per_op("filter.atoms_scanned"), "count"),
        "storage.statements_per_op": (
            count_per_op("storage.statements"), "count"),
        "storage.rows_read_per_op": (
            count_per_op("storage.rows_read"), "count"),
        "storage.rows_written_per_op": (
            count_per_op("storage.rows_written"), "count"),
        "storage.transactions_per_op": (
            count_per_op("storage.transactions"), "count"),
        "storage.statements_per_publish_small": (
            percentile(twin.statements["small"], 50) or 0.0, "count"),
        "storage.statements_per_publish_full": (
            percentile(run.statements["full"], 50) or 0.0, "count"),
        "storage.db_bytes": (info["db_bytes"], "bytes"),
        "pubsub.publisher_ms_per_op": (
            time_per(traced, "pubsub.publisher"), "ms"),
        "pubsub.notifications_per_op": (
            count_per_op("lmr.notifications"), "count"),
        "pubsub.batches_per_op": (
            count_per_op("mdp.notification_batches"), "count"),
        "mdv.provider.self_ms_per_op": (
            time_per(traced, "mdv.provider"), "ms"),
        "mdv.provider.store_ms_per_op": (
            time_per(traced, "mdv.store"), "ms"),
        "mdv.outbox.delivery_ms_per_op": (
            _per(server_ms.get("mdv.outbox", 0.0), divisor), "ms"),
        "mdv.outbox.enqueued": (server.get("outbox.enqueued", 0.0), "count"),
        "mdv.outbox.retries": (server.get("outbox.retries", 0.0), "count"),
        "mdv.outbox.dead_letters": (
            server.get("outbox.dead_letters", 0.0), "count"),
        "net.codec.encode_ms_per_op": (time_per(
            traced, "net.codec.to_wire", "net.codec.wire_size",
            "net.codec.encode_frame",
        ), "ms"),
        "net.codec.decode_ms_per_op": (time_per(
            traced, "net.codec.next_frame", "net.codec.from_wire"
        ), "ms"),
        "net.bytes_per_op": (_per(
            deltas.get("net.socket.bytes_sent", 0.0)
            + deltas.get("net.socket.bytes_received", 0.0), counted
        ), "bytes"),
        "net.socket.ping_rtt_ms_p50": (
            percentile(run.samples["ping"], 50) or 0.0, "ms"),
        "net.socket.request_ms_p50": (percentile(
            timer.durations_ms("net.socket.request"), 50
        ) or 0.0, "ms"),
        "mdv.repository.apply_ms_per_op": (
            time_per(traced, "mdv.repository.apply_batch"), "ms"),
        "mdv.repository.notifications_applied": (
            sum(stats["notifications"] for stats in lmr_stats), "count"),
        "mdv.repository.duplicates_ignored": (
            sum(stats["duplicates_ignored"] for stats in lmr_stats), "count"),
        "mdv.repository.cache_entries": (
            sum(stats["entries"] for stats in lmr_stats), "count"),
        "query.evaluate_ms_per_query": (time_per(
            queries, "query", "mdv.repository.query"
        ), "ms"),
        "query.pool_size": (_per(
            sum(stats["entries"] for stats in lmr_stats), len(lmr_stats)
        ), "count"),
    }
    walls = run.round_walls
    plain = percentile(walls[False], 50)
    values["trace.overhead_ratio"] = (
        percentile(walls[True], 50) / plain if plain else None, "ratio")
    traced_wall = sum(walls[True])
    attributed = timer.root_ns[threading.main_thread().ident] / 1e6
    values["trace.unattributed_share"] = (
        1.0 - attributed / traced_wall if traced_wall else None, "ratio")
    metrics = {
        name: _metric(value, unit, traced)
        for name, (value, unit) in values.items()
    }
    # End-to-end timings without a bound, over all counted rounds: too
    # few samples for a tail metric; and the two short operations that
    # are pure Python over small objects swing twice as far from run to
    # run as the others (README.md, "Bounds").
    for name, kind, q in (
        ("publish_visible_ms_p95", "publish", 95),
        ("subscribe_live_ms_p50", "subscribe", 50),
        ("query_ms_p50", "query", 50),
    ):
        samples = run.samples[kind]
        metrics[name] = _metric(percentile(samples, q), "ms", len(samples))
    return metrics


def _share_table(run: Run) -> list[tuple[str, float, float]]:
    """``(span name, self ms per traced op, share of traced wall)``."""
    timer = run.timer
    traced = sum(run.traced_ops.values())
    wall = sum(run.round_walls[True])
    if timer is None or not traced or not wall:
        return []
    rows = [
        (name, ns / 1e6 / traced, ns / 1e6 / wall)
        for name, ns in timer.self_ns.items()
    ]
    return sorted(rows, key=lambda row: -row[1])


@contextmanager
def _steady():
    """Keep two kinds of pause out of the timed intervals.

    Collector pauses grow with the heap (the rule base) and land on
    random operations; the loop collects between rounds instead.

    This thread, and the threads and daemons it starts, stay on one
    CPU.  With one caller in a closed loop only one of them ever has
    work, so nothing is lost; and a CPU that always has work is never
    parked, so the time a busy host takes to wake a parked virtual CPU
    (a 1 ms round trip was seen to take 20 ms for an hour) stays out of
    every request.
    """
    gc.disable()
    pin = hasattr(os, "sched_setaffinity")  # Linux
    if pin:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        if pin:
            os.sched_setaffinity(0, allowed)
        gc.enable()


def run_workload(
    spec: Spec,
    seed: int = 1,
    seconds: float = NOMINAL_SECONDS,
    trace: bool = False,
    corrupt: bool = False,
) -> dict[str, object]:
    """Run one workload; returns its metrics and failure accounting.

    ``seconds`` scales the number of counted rounds and nothing else;
    ``corrupt`` spoils the expected cache sets, which must fail the run
    (the test suite's check that the oracle is really consulted).
    """
    rounds = max(2, round(spec.rounds * seconds / NOMINAL_SECONDS))
    timer = LayerTimer() if trace else None
    clock = time.perf_counter
    phases = {"begin": clock()}
    with ExitStack() as stack:
        stack.enter_context(_steady())
        if timer is not None:
            timer.install(adapter.WRAP_POINTS, adapter.resolve_wrap_point)
            stack.callback(timer.uninstall)
        run = Run(spec, seed, timer)
        twin = Run(spec, seed, timer, share=10)
        # Set-up time is the median of like builds: whole rule base,
        # fresh system, no documents.  This is the first of them.
        system, seconds_taken = run.build()
        setup_times = [seconds_taken]
        try:
            run.adopt(system)
            twin_system, _ = twin.build()
            try:
                twin.adopt(twin_system)
                phases["build"] = clock()
                run.prefill()
                phases["prefill"] = clock()
                deltas = run.rounds(rounds, twin)
                phases["rounds"] = clock()
                run.final_checks(corrupt)
                twin.final_checks(corrupt=False)
            finally:
                twin_system.close()
        finally:
            info = system.close()
        phases["checks"] = clock()
        # The traced pass reports no set-up time: no more builds.
        for _ in range(0 if trace else spec.setup_repeats - 1):
            system, seconds_taken = run.build()
            system.close()
            setup_times.append(seconds_taken)
        phases["setup"] = clock()
    stamps = list(phases.items())
    result: dict[str, object] = {
        "workload": spec.name,
        "seed": seed,
        "trace": int(trace),
        "attempted": run.attempted + twin.attempted,
        "failed": run.failed + twin.failed,
        "rounds": len(run.round_walls[True]) + len(run.round_walls[False]),
        #: Wall seconds per phase of the run, for sizing.
        "phases_s": {
            name: round(stamp - stamps[index][1], 3)
            for index, (name, stamp) in enumerate(stamps[1:])
        },
    }
    if timer is None:
        result["metrics"] = _end_to_end(run, twin, setup_times)
    else:
        result["metrics"] = _per_layer(run, twin, deltas, info)
        result["shares"] = _share_table(run)
        timer.dump(adapter.OUT_DIR / f"trace-{spec.name}.jsonl")
    result["correct"] = result["failed"] == 0
    return result
