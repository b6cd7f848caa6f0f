"""The ``python -m repro.mdv serve`` daemon: one MDV node per process.

The paper's deployment has MDPs and LMRs as long-lived services spread
over the network; this module runs one of them as an OS process on top
of :class:`~repro.net.socket.SocketTransport`.  A JSON config file
names the node, picks its role and knobs, and lists the peers it talks
to (docs/SERVICE.md has the full format and a worked example):

.. code-block:: json

    {"name": "mdp-1", "role": "mdp", "port": 7401,
     "db_path": "mdp-1.db", "durability": "safe",
     "durable_delivery": true,
     "peers": {"lmr-a": ["127.0.0.1", 7402]}}

Process model
-------------
One thread per process.  The main thread builds the node (for an MDP
that includes the SQLite connection, which is thread-affine) and then
loops on :meth:`~repro.net.socket.SocketTransport.serve`: it does all
socket I/O and runs every handler, one request at a time, in arrival
order.  While a handler waits for a peer's reply, the node serves only
re-entrant kinds — an LMR marks ``notifications``, so the provider can
push the initial matches of a ``subscribe`` *while* the LMR is blocked
inside that same subscribe call.  Every other request waits its turn,
so no reader ever sees a cache in the middle of a batch.

Lifecycle: the daemon prints one ``MDV-SERVE READY ...`` line (with
the bound port — ``port: 0`` asks the OS for one) once it accepts
requests, then serves until SIGTERM/SIGINT.  Shutdown is a graceful
drain: received requests are answered, an MDP attempts one last outbox
delivery pass, ``--metrics-dump PATH`` writes the final metrics
snapshot, and only then do the transport and database close.  A crash
(kill -9) skips all of that by definition.  Start-up repairs nothing:
every provider operation is one SQLite transaction, so the store holds
whole operations only, and a restarted MDP simply resumes.  What the
crash must not lose is kept by the durability knobs
(``durability="safe"``, ``durable_delivery``) plus the subscriber-side
dedup floor, which the differential harness's kill plan exercises end
to end.
"""

from __future__ import annotations

import json
import math
import signal
import sys
from dataclasses import dataclass, field, replace
from typing import Any, get_args, get_type_hints

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
_MAX_PORT = 65535


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
    durability: str = "fast"
    durable_delivery: bool = False
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


def _is_a(value: Any, kind: type) -> bool:
    """JSON-strict ``isinstance``: a bool is no int, an int is a float."""
    if kind is bool:
        return isinstance(value, bool)
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, kind)


def config_from_dict(raw: dict[str, Any]) -> ServiceConfig:
    """Build a :class:`ServiceConfig` from parsed JSON, strictly.

    The one place a daemon's config is validated: unknown keys, each
    scalar against its field's type (``str | None`` also takes
    ``null``), the peer table, ports in 0–65535 and a finite
    ``request_timeout_s > 0``.  Errors are ``ValueError`` naming the key.
    """
    if not isinstance(raw, dict):
        raise ValueError("service config must be a JSON object")
    hints = get_type_hints(ServiceConfig)
    unknown = sorted(set(raw) - set(hints))
    if unknown:
        raise ValueError(f"unknown service config keys: {unknown}")
    if "name" not in raw or "role" not in raw:
        raise ValueError("service config needs at least 'name' and 'role'")
    fields = dict(raw)
    for key, value in raw.items():
        if key == "peers":
            continue
        kinds = get_args(hints[key]) or (hints[key],)
        if not any(_is_a(value, kind) for kind in kinds):
            expected = " or ".join(
                "null" if kind is type(None) else kind.__name__
                for kind in kinds
            )
            raise ValueError(
                f"service config key {key!r} must be {expected}, "
                f"got {value!r}"
            )
        if hints[key] is float:
            fields[key] = float(value)
    if "request_timeout_s" in raw and not 0 < raw["request_timeout_s"] < math.inf:
        # The comparison is also false for NaN, which json.load accepts.
        raise ValueError(
            f"service config key 'request_timeout_s' must be finite and "
            f"> 0, got {raw['request_timeout_s']!r}"
        )
    if "port" in raw and not 0 <= raw["port"] <= _MAX_PORT:
        raise ValueError(
            f"service config key 'port' must be in 0..{_MAX_PORT}, "
            f"got {raw['port']!r}"
        )
    peers_raw = raw.get("peers", {})
    if not isinstance(peers_raw, dict):
        raise ValueError("'peers' must map endpoint names to [host, port]")
    peers: dict[str, tuple[str, int]] = {}
    for peer_name, address in peers_raw.items():
        if (
            not isinstance(address, (list, tuple))
            or len(address) != 2
            or not _is_a(address[0], str)
            or not _is_a(address[1], int)
            or not 0 <= address[1] <= _MAX_PORT
        ):
            raise ValueError(
                f"peer {peer_name!r} address must be [host, port], "
                f"got {address!r}"
            )
        peers[peer_name] = (address[0], address[1])
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
            triggering=config.triggering,
            durability=config.durability,
            durable_delivery=config.durable_delivery,
        )
        return provider, None, db
    handle = ProviderHandle(config.provider or "", schema)
    repository = LocalMetadataRepository(
        config.name,
        handle,  # type: ignore[arg-type] - only .name/.schema are read
        schema=schema,
        bus=transport,
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

    transport.register(config.name, lmr_handler)
    # The provider delivers the initial matches of a subscribe (and the
    # replay of a resync) before it replies, while this node waits
    # inside that call.
    transport.set_reentrant_kinds(config.name, {"notifications"})
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
    )
    transport.start()
    try:
        provider, _repository, db = _build_node(config, transport)
    except (MDVError, ValueError, OSError):
        transport.close()
        raise
    signals: list[int] = []

    def _on_signal(signum: int, frame: Any) -> None:
        signals.append(signum)

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    print(
        f"MDV-SERVE READY name={config.name} role={config.role} "
        f"host={config.host} port={transport.port}",
        file=stream,
        flush=True,
    )
    try:
        while not signals:
            transport.serve(timeout=0.2)
        # Graceful drain: answer everything already received, then give
        # the outbox one last chance to hand off retained deliveries.
        while transport.serve():
            pass
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
