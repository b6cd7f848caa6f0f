"""The ``python -m repro.mdv serve`` daemon: one MDV node per process.

The paper's deployment has MDPs and LMRs as long-lived services spread
over the network; this module runs one of them as an OS process on top
of :class:`~repro.net.socket.SocketTransport`.  A JSON config file
names the node, picks its role and knobs, and lists the peers it talks
to (docs/SERVICE.md has the full format and a worked example):

.. code-block:: json

    {"name": "mdp-1", "role": "mdp", "port": 7401,
     "db_path": "mdp-1.db", "durability": "safe",
     "durable_delivery": true, "recovery": "auto",
     "peers": {"lmr-a": ["127.0.0.1", 7402]}}

Process model
-------------
The transport's I/O loop runs on a background thread; the daemon's
main thread owns the node's state (for an MDP that includes the
SQLite connection, which is thread-affine) and drains the transport's
request queue — every handler runs on the main thread.  An LMR node
additionally answers ``notifications`` inline on the I/O thread (its
cache tier is pure in-memory state) so the provider can push the
initial matches of a ``subscribe`` *while* the main thread is blocked
inside that same subscribe call.

Lifecycle: the daemon prints one ``MDV-SERVE READY ...`` line (with
the bound port — ``port: 0`` asks the OS for one) once it accepts
requests, then serves until SIGTERM/SIGINT.  Shutdown is a graceful
drain: queued requests are answered, an MDP attempts one last outbox
delivery pass, ``--metrics-dump PATH`` writes the final metrics
snapshot, and only then do the transport and database close.  A crash
(kill -9) skips all of that by definition — recovering from it is the
job of the durability knobs (``durability="safe"``,
``durable_delivery``, ``recovery="auto"``) plus the subscriber-side
dedup floor, which the socket chaos suite exercises end to end.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import MDVError
from repro.mdv.client import ProviderHandle
from repro.mdv.provider import MetadataProvider
from repro.mdv.repository import LocalMetadataRepository
from repro.net.socket import SocketTransport
from repro.obs.metrics import default_registry
from repro.rdf.schema import objectglobe_schema
from repro.storage.engine import Database

__all__ = [
    "ServiceConfig",
    "config_from_dict",
    "load_config",
    "run_serve",
    "serve_from_args",
]

#: The only schema a served node currently knows how to build.
_SCHEMAS = ("objectglobe",)


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one served node needs to come up."""

    name: str
    role: str
    host: str = "127.0.0.1"
    port: int = 0
    #: SQLite file for an MDP node; ``None`` = in-memory (no crash
    #: safety). Ignored by LMR nodes, whose cache tier is in-memory.
    db_path: str | None = None
    #: Peer endpoint name -> (host, port).
    peers: dict[str, tuple[str, int]] = field(default_factory=dict)
    #: The MDP endpoint an LMR node attaches to (must be in ``peers``).
    provider: str | None = None
    schema: str = "objectglobe"
    # Provider knobs (MDP role), mirroring MetadataProvider's.
    triggering: str = "sql"
    consistency: str = "filter"
    dedupe: str = "off"
    durability: str = "fast"
    durable_delivery: bool = False
    recovery: str = "off"
    #: Subscription-analysis policy (LMR role).
    analyze: str = "off"
    request_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.role not in ("mdp", "lmr"):
            raise ValueError(f"role must be 'mdp' or 'lmr', got {self.role!r}")
        if self.schema not in _SCHEMAS:
            raise ValueError(
                f"schema must be one of {_SCHEMAS}, got {self.schema!r}"
            )
        if self.role == "lmr":
            if not self.provider:
                raise ValueError("an 'lmr' node needs a 'provider' endpoint")
            if self.provider not in self.peers:
                raise ValueError(
                    f"provider {self.provider!r} is not in peers "
                    f"({sorted(self.peers)})"
                )


def config_from_dict(raw: dict[str, Any]) -> ServiceConfig:
    """Build a :class:`ServiceConfig` from parsed JSON, strictly."""
    if not isinstance(raw, dict):
        raise ValueError("service config must be a JSON object")
    known = {f for f in ServiceConfig.__dataclass_fields__}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"unknown service config keys: {unknown}")
    if "name" not in raw or "role" not in raw:
        raise ValueError("service config needs at least 'name' and 'role'")
    peers_raw = raw.get("peers", {})
    if not isinstance(peers_raw, dict):
        raise ValueError("'peers' must map endpoint names to [host, port]")
    peers: dict[str, tuple[str, int]] = {}
    for peer_name, address in peers_raw.items():
        if (not isinstance(address, (list, tuple)) or len(address) != 2):
            raise ValueError(
                f"peer {peer_name!r} address must be [host, port], "
                f"got {address!r}"
            )
        peers[peer_name] = (str(address[0]), int(address[1]))
    fields = dict(raw)
    fields["peers"] = peers
    return ServiceConfig(**fields)


def load_config(path: str) -> ServiceConfig:
    with open(path, encoding="utf-8") as handle:
        return config_from_dict(json.load(handle))


def _build_node(
    config: ServiceConfig, transport: SocketTransport
) -> tuple[MetadataProvider | None, LocalMetadataRepository | None,
           Database | None]:
    schema = objectglobe_schema()
    if config.role == "mdp":
        db = Database(
            config.db_path if config.db_path else ":memory:",
            durability=config.durability,
        )
        provider = MetadataProvider(
            schema,
            name=config.name,
            db=db,
            bus=transport,
            consistency=config.consistency,
            analyze=config.analyze,
            triggering=config.triggering,
            dedupe=config.dedupe,
            durability=config.durability,
            durable_delivery=config.durable_delivery,
            recovery=config.recovery,
        )
        return provider, None, db
    handle = ProviderHandle(config.provider or "", schema)
    repository = LocalMetadataRepository(
        config.name,
        handle,  # type: ignore[arg-type] - only .name/.schema are read
        schema=schema,
        bus=transport,
        analyze=config.analyze,
    )

    def lmr_handler(message: Any) -> Any:
        # The served LMR speaks the cache-tier wire API (notifications,
        # query) plus the control kinds a remote client drives it with.
        kind = message.kind
        if kind == "subscribe":
            return repository.subscribe(message.payload)
        if kind == "unsubscribe":
            repository.unsubscribe(message.payload)
            return None
        if kind == "resync":
            repository.resync()
            return None
        if kind == "stats":
            return repository.stats()
        if kind == "ping":
            return "pong"
        return repository._handle_message(message)

    transport.register(config.name, lmr_handler, dispatch="queue")
    # Notification pushes must be answered while the main thread is
    # blocked inside subscribe/resync (the provider delivers initial
    # matches before returning); the cache tier is pure in-memory
    # state, safe to touch from the I/O thread.
    transport.set_inline_kinds(config.name, {"notifications"})
    return None, repository, None


def run_serve(
    config: ServiceConfig,
    metrics_dump: str | None = None,
    ready_stream: Any = None,
) -> int:
    """Serve one MDV node until SIGTERM/SIGINT; returns the exit code."""
    stream = ready_stream if ready_stream is not None else sys.stdout
    transport = SocketTransport(
        host=config.host,
        port=config.port,
        peers=config.peers,
        request_timeout_s=config.request_timeout_s,
        dispatch="queue",
    )
    transport.start()
    try:
        provider, _repository, db = _build_node(config, transport)
    except (MDVError, ValueError, OSError):
        transport.close()
        raise
    stop = threading.Event()

    def _on_signal(signum: int, frame: Any) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    print(
        f"MDV-SERVE READY name={config.name} role={config.role} "
        f"host={config.host} port={transport.port}",
        file=stream,
        flush=True,
    )
    try:
        while not stop.is_set():
            request = transport.next_request(timeout=0.2)
            if request is not None:
                transport.execute(request)
        # Graceful drain: answer everything already queued, then give
        # the outbox one last chance to hand off retained deliveries.
        while True:
            request = transport.next_request()
            if request is None:
                break
            transport.execute(request)
        if provider is not None and provider.outbox is not None:
            try:
                provider.deliver_pending()
            except MDVError:
                pass  # peers may already be gone; retained for resync
        if metrics_dump:
            with open(metrics_dump, "w", encoding="utf-8") as handle:
                json.dump(default_registry().snapshot(), handle, indent=2)
    finally:
        transport.close()
        if db is not None:
            db.close()
    return 0


def serve_from_args(
    config_path: str,
    metrics_dump: str | None = None,
    port: int | None = None,
) -> int:
    """CLI glue: load a config file, apply overrides, serve."""
    config = load_config(config_path)
    if port is not None:
        config = replace(config, port=port)
    return run_serve(config, metrics_dump=metrics_dump)
