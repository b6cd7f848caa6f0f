"""The benchmark's only door into ``repro``.

Every import of the system under test lives here: building a provider
with its LMRs in-process, booting the two ``python -m repro.mdv serve``
daemons and their clients, and the table of public functions the traced
pass wraps.  An API refactor in ``src/`` is answered by editing this one
file; generators, oracle, driver loop and reporting never name ``repro``.

Both systems expose the same small surface (``subscribe`` … ``close``),
which is all the driver loop in ``workloads.py`` calls.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

from repro.errors import MDVError  # noqa: E402
from repro.mdv.client import ServiceClient  # noqa: E402
from repro.mdv.provider import MetadataProvider  # noqa: E402
from repro.mdv.repository import LocalMetadataRepository  # noqa: E402
from repro.net.socket import SocketTransport  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.rdf.model import Document, URIRef  # noqa: E402
from repro.rdf.schema import objectglobe_schema  # noqa: E402

__all__ = [
    "DaemonSystem",
    "Document",
    "InProcessSystem",
    "OUT_DIR",
    "PROFILE",
    "URIRef",
    "WRAP_POINTS",
    "resolve_wrap_point",
]

#: The deployment profile every workload runs under (the paper profile
#: keeps its kernel figures in ``benchmarks/baselines/``).
PROFILE = {"triggering": "counting", "join_evaluation": "probe"}

#: span name -> where the public function is *bound* ("module:attr.path").
#: Functions a module imported by name are wrapped at the importing
#: module's binding, i.e. around the call into the layer, from outside.
WRAP_POINTS: dict[str, str] = {
    # rdf
    "rdf.validate_document": "repro.rdf.schema:Schema.validate_document",
    "rdf.diff_documents": "repro.mdv.provider:diff_documents",
    "rdf.deletion_diff": "repro.mdv.provider:deletion_diff",
    "rdf.to_rdfxml": "repro.mdv.provider:to_rdfxml",
    "rdf.parse_document": "repro.mdv.provider:parse_document",
    # rules
    "rules.parse_rule": "repro.mdv.provider:parse_rule",
    "rules.normalize_rule": "repro.mdv.provider:normalize_rule",
    "rules.decompose_rule": "repro.mdv.provider:decompose_rule",
    "rules.registry.register_subscription":
        "repro.rules.registry:RuleRegistry.register_subscription",
    "rules.registry.unsubscribe":
        "repro.rules.registry:RuleRegistry.unsubscribe",
    "rules.registry.end_rule_ids":
        "repro.rules.registry:RuleRegistry.end_rule_ids",
    "rules.registry.subscriptions_for":
        "repro.rules.registry:RuleRegistry.subscriptions_for",
    "rules.registry.subscriptions_of":
        "repro.rules.registry:RuleRegistry.subscriptions_of",
    # filter
    "filter.engine.process_diff":
        "repro.filter.engine:FilterEngine.process_diff",
    "filter.engine.process_insertions":
        "repro.filter.engine:FilterEngine.process_insertions",
    "filter.initialize_rules":
        "repro.filter.engine:FilterEngine.initialize_rules",
    "filter.engine.current_matches":
        "repro.filter.engine:FilterEngine.current_matches",
    "filter.run": "repro.filter.engine:FilterEngine.run",
    "filter.counting.refresh":
        "repro.filter.counting:CountingMatcher.refresh",
    "filter.counting.dispatch":
        "repro.filter.counting:CountingMatcher.dispatch",
    "filter.counting.match": "repro.filter.counting:CountingMatcher.match",
    # pubsub
    "pubsub.publisher.batches_for":
        "repro.pubsub.publisher:Publisher.batches_for",
    "pubsub.publisher.initial_batch":
        "repro.pubsub.publisher:Publisher.initial_batch",
    # mdv.provider (self time) and its document store
    "mdv.provider.register_document":
        "repro.mdv.provider:MetadataProvider.register_document",
    "mdv.provider.register_documents":
        "repro.mdv.provider:MetadataProvider.register_documents",
    "mdv.provider.delete_document":
        "repro.mdv.provider:MetadataProvider.delete_document",
    "mdv.provider.subscribe":
        "repro.mdv.provider:MetadataProvider.subscribe",
    "mdv.provider.unsubscribe":
        "repro.mdv.provider:MetadataProvider.unsubscribe",
    "mdv.store.documents_upsert":
        "repro.storage.tables:DocumentTable.upsert",
    "mdv.store.documents_delete":
        "repro.storage.tables:DocumentTable.delete",
    "mdv.store.resources_insert":
        "repro.storage.tables:ResourceTable.insert_many",
    "mdv.store.resources_delete":
        "repro.storage.tables:ResourceTable.delete_many",
    "mdv.store.document_of":
        "repro.storage.tables:ResourceTable.document_of",
    # mdv.repository
    "mdv.repository.apply_batch":
        "repro.mdv.repository:LocalMetadataRepository.apply_batch",
    "mdv.repository.subscribe":
        "repro.mdv.repository:LocalMetadataRepository.subscribe",
    "mdv.repository.unsubscribe":
        "repro.mdv.repository:LocalMetadataRepository.unsubscribe",
    "mdv.repository.query":
        "repro.mdv.repository:LocalMetadataRepository.query",
    # query
    "query.parse_query": "repro.mdv.repository:parse_query",
    "query.evaluate_query": "repro.mdv.repository:evaluate_query",
    # net, generator side of the daemon workload
    "net.codec.to_wire": "repro.net.socket:to_wire",
    "net.codec.wire_size": "repro.net.socket:wire_size",
    "net.codec.encode_frame": "repro.net.socket:encode_frame",
    "net.codec.next_frame": "repro.net.frames:FrameDecoder.next_frame",
    "net.codec.from_wire": "repro.net.socket:from_wire",
    "net.socket.request": "repro.mdv.client:ServiceClient.call",
}


def resolve_wrap_point(target: str):
    """``(owner, attribute, function)`` of one wrap point, or ``None``
    when the module or attribute no longer exists."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    function = getattr(owner, attribute, None)
    if function is None:
        return None
    return owner, attribute, function


def _uris(resources) -> list[str]:
    return [str(resource.uri) for resource in resources]


class _System:
    """What both systems share: a metrics registry of their own (a run
    holds two systems at a time, and their counts must not mix)."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()

    def counter(self, name: str) -> float:
        """Current value of one unlabelled counter (a handle read)."""
        return self.registry.counter(name).value

    def counter_values(self) -> dict[str, float]:
        return self.registry.counter_values()

    def counters_since(self, before: dict[str, float]) -> dict[str, float]:
        return self.registry.counters_since(before)


class InProcessSystem(_System):
    """One provider with ``lmr_count`` directly attached LMRs."""

    def __init__(self, lmr_count: int):
        super().__init__()
        self.provider = MetadataProvider(
            objectglobe_schema(), name="mdp", metrics=self.registry, **PROFILE
        )
        self.lmrs = [
            LocalMetadataRepository(
                f"lmr{index}", self.provider, metrics=self.registry
            )
            for index in range(lmr_count)
        ]

    def subscribe(self, lmr: int, rule_text: str) -> None:
        self.lmrs[lmr].subscribe(rule_text)

    def unsubscribe(self, lmr: int, rule_text: str) -> None:
        self.lmrs[lmr].unsubscribe(rule_text)

    def publish(self, document: Document) -> None:
        self.provider.register_document(document)

    def publish_batch(self, documents: list[Document]) -> None:
        self.provider.register_documents(documents)

    def delete(self, document_uri: str) -> None:
        self.provider.delete_document(document_uri)

    def query(self, lmr: int, query_text: str) -> list[str]:
        return _uris(self.lmrs[lmr].query(query_text))

    def ping(self) -> None:
        raise NotImplementedError("an in-process provider has no ping")

    def browse(self, query_text: str) -> list[str]:
        return _uris(self.provider.browse(query_text))

    def visible_counts(self) -> list[int] | None:
        """Notifications applied so far, per LMR — an O(1) read."""
        return [lmr.notifications_received for lmr in self.lmrs]

    notification_totals = visible_counts

    def cache_uris(self, lmr: int) -> set[str]:
        return {str(uri) for uri in self.lmrs[lmr].cache.uris()}

    def close(self) -> dict[str, object]:
        db = self.provider.db
        info = {
            "db_bytes": int(db.scalar("PRAGMA page_count"))
            * int(db.scalar("PRAGMA page_size")),
            "lmr_stats": [lmr.stats() for lmr in self.lmrs],
            "dumps": {},
        }
        self.provider.close()
        db.close()
        self.provider = None
        self.lmrs = []
        gc.collect()
        return info


_READY = re.compile(r"MDV-SERVE READY .*port=(\d+)")


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class _Daemon:
    """One ``python -m repro.mdv serve`` child process."""

    def __init__(self, workdir: Path, config: dict):
        self.name = config["name"]
        self.dump_path = workdir / f"{self.name}.metrics.json"
        config_path = workdir / f"{self.name}.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        self.stderr_path = workdir / f"{self.name}.stderr"
        with open(self.stderr_path, "w", encoding="utf-8") as stderr:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.mdv", "serve",
                    "--config", str(config_path),
                    "--metrics-dump", str(self.dump_path),
                ],
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
                cwd=str(workdir),
                env={
                    **os.environ,
                    "PYTHONPATH": str(SRC_DIR),
                    "PYTHONUNBUFFERED": "1",
                },
            )

    def wait_ready(self) -> None:
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if not _READY.search(line):
            self.stop()
            raise RuntimeError(
                f"daemon {self.name!r} never became ready: "
                f"{self.stderr_path.read_text(encoding='utf-8')[-2000:]}"
            )

    def stop(self) -> dict | None:
        """SIGTERM, wait for the graceful drain, return the dump."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        if self.process.stdout is not None:
            self.process.stdout.close()
        if self.dump_path.exists():
            return json.loads(self.dump_path.read_text(encoding="utf-8"))
        return None


class DaemonSystem(_System):
    """An MDP daemon and an LMR daemon, driven over two client sockets.
    The registry counts the generator side only (the clients' ``net.*``);
    the daemons' own counters arrive in their dumps at ``close``."""

    _serial = 0

    def __init__(self, lmr_count: int = 1):
        if lmr_count != 1:
            raise ValueError("the daemon system runs exactly one LMR")
        super().__init__()
        DaemonSystem._serial += 1
        self.workdir = OUT_DIR / f"daemons-{os.getpid()}-{DaemonSystem._serial}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        mdp_port, lmr_port = _free_port(), _free_port()
        self.daemons: list[_Daemon] = []
        self.transports: list[SocketTransport] = []
        try:
            self.daemons.append(_Daemon(self.workdir, {
                "name": "mdp-1", "role": "mdp", "port": mdp_port,
                "db_path": str(self.workdir / "mdp-1.db"),
                "durability": "safe", "durable_delivery": True,
                "triggering": PROFILE["triggering"],
                "peers": {"lmr-a": ["127.0.0.1", lmr_port]},
            }))
            self.daemons.append(_Daemon(self.workdir, {
                "name": "lmr-a", "role": "lmr", "port": lmr_port,
                "provider": "mdp-1",
                "peers": {"mdp-1": ["127.0.0.1", mdp_port]},
            }))
            for daemon in self.daemons:
                daemon.wait_ready()
            self.mdp = self._client("mdp-1", mdp_port)
            self.lmr = self._client("lmr-a", lmr_port)
            self.mdp.ping()
            self.lmr.call("ping")
        except BaseException:
            self.close()
            raise

    def _client(self, endpoint: str, port: int) -> ServiceClient:
        transport = SocketTransport(metrics=self.registry)
        self.transports.append(transport)
        return ServiceClient(
            "bench", endpoint, "127.0.0.1", port, transport=transport
        )

    def subscribe(self, lmr: int, rule_text: str) -> None:
        self.lmr.call("subscribe", rule_text)

    def unsubscribe(self, lmr: int, rule_text: str) -> None:
        self.lmr.call("unsubscribe", rule_text)

    def publish(self, document: Document) -> None:
        self.mdp.register_document(document)

    def publish_batch(self, documents: list[Document]) -> None:
        # The wire API has no batch request: a batch is its documents
        # sent one request after the other.
        for document in documents:
            self.mdp.register_document(document)

    def delete(self, document_uri: str) -> None:
        self.mdp.call("delete_document", document_uri)

    def query(self, lmr: int, query_text: str) -> list[str]:
        return _uris(self.lmr.call("query", query_text))

    def ping(self) -> None:
        self.mdp.ping()

    def browse(self, query_text: str) -> list[str]:
        return _uris(self.mdp.browse(query_text))

    def visible_counts(self) -> list[int] | None:
        """Not readable per operation: ``stats`` is O(cache) at the LMR."""
        return None

    def notification_totals(self) -> list[int]:
        return [int(self.lmr.call("stats")["notifications"])]

    def cache_uris(self, lmr: int) -> set[str]:
        return set(
            self.query(0, "search CycleProvider c")
            + self.query(0, "search ServerInformation s")
        )

    def close(self) -> dict[str, object]:
        info: dict[str, object] = {"db_bytes": 0, "lmr_stats": [], "dumps": {}}
        if len(self.transports) == 2:
            try:
                info["lmr_stats"] = [dict(self.lmr.call("stats"))]
            except (MDVError, OSError):
                pass  # a dead daemon must not stop the teardown
        for transport in self.transports:
            transport.close()
        self.transports = []
        for daemon in self.daemons:
            dump = daemon.stop()
            if dump is not None:
                info["dumps"][daemon.name] = dump
        self.daemons = []
        db_file = self.workdir / "mdp-1.db"
        if db_file.exists():
            info["db_bytes"] = db_file.stat().st_size
        shutil.rmtree(self.workdir, ignore_errors=True)
        return info
