"""A deterministic in-process network simulator.

The paper's MDPs and LMRs are "distributed all over the Internet"; the
evaluation (Section 4), however, benchmarks the filter on a single node.
What the distributed tier needs from the network is delivery semantics
plus cost accounting — both provided here without sockets:

- endpoints register a handler under a name;
- :meth:`NetworkBus.send` delivers synchronously and returns the
  handler's response; a request/response exchange is charged two link
  traversals, a :meth:`NetworkBus.send_one_way` notification one;
- every message advances a simulated clock by the link's latency and
  accumulates byte counts, so examples and tests can quantify the
  benefit of answering queries at the LMR instead of crossing the
  "Internet" to an MDP;
- an optional :class:`~repro.net.faults.FaultPlan` injects drops,
  duplicates, transport errors, delays, endpoint crashes and
  partitions; injected faults are accounted per link in
  :class:`LinkStats` and surface to senders as
  :class:`~repro.errors.NetworkError` subclasses.

Latency defaults model the paper's setting: LAN-local traffic is cheap,
wide-area traffic is two orders of magnitude more expensive.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.errors import DeliveryError, EndpointDownError, NetworkError, WireCodecError
from repro.net.codec import wire_size
from repro.net.faults import FaultDecision, FaultPlan
from repro.obs.metrics import MetricsRegistry, default_registry

__all__ = ["Message", "LinkStats", "NetworkBus"]

#: Default one-way latency for unconfigured links, in simulated ms.
DEFAULT_WAN_LATENCY_MS = 80.0


@dataclass(frozen=True, slots=True)
class Message:
    """One message on the bus."""

    source: str
    destination: str
    kind: str
    payload: Any

    def approximate_size(self) -> int:
        """The message's wire size in bytes.

        Measured as the serialized JSON length of the payload
        (:func:`repro.net.codec.wire_size`) — the same bytes the socket
        transport puts on a real connection, so simulated and socket
        ``net.bytes`` accounting agree.  Payloads outside the wire
        codec (test doubles, in-process-only objects) fall back to
        their ``approximate_size`` hook, then to ``len(str(...))``.
        """
        try:
            return wire_size(self.payload)
        except WireCodecError:
            payload_size = getattr(self.payload, "approximate_size", None)
            if callable(payload_size):
                return int(payload_size())
            return len(str(self.payload))


@dataclass
class LinkStats:
    """Accumulated traffic and injected faults on one directed link."""

    messages: int = 0
    bytes: int = 0
    latency_ms: float = 0.0
    #: Messages lost in transit by the fault plan.
    dropped: int = 0
    #: Extra deliveries injected by the fault plan.
    duplicated: int = 0
    #: Transport errors signalled to the sender.
    errored: int = 0
    #: Sends that timed out against a crashed or partitioned endpoint.
    timeouts: int = 0
    #: Extra delay injected by the fault plan, in simulated ms.
    fault_delay_ms: float = 0.0

    @property
    def faults(self) -> int:
        return self.dropped + self.duplicated + self.errored + self.timeouts


class NetworkBus:
    """Synchronous message delivery with latency and traffic accounting."""

    def __init__(
        self,
        default_latency_ms: float = DEFAULT_WAN_LATENCY_MS,
        fault_plan: FaultPlan | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self._handlers: dict[str, Callable[[Message], Any]] = {}
        self._latency: dict[tuple[str, str], float] = {}
        self.default_latency_ms = default_latency_ms
        self.links: dict[tuple[str, str], LinkStats] = {}
        #: Total simulated network time spent, in ms.
        self.simulated_ms = 0.0
        self.total_messages = 0
        #: Optional fault-injection plan consulted once per message.
        self.faults = fault_plan
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_messages = self.metrics.counter("net.messages")
        self._m_bytes = self.metrics.counter("net.bytes")
        self._m_latency = self.metrics.histogram("net.latency_ms")
        self._m_dropped = self.metrics.counter("net.faults.dropped")
        self._m_duplicated = self.metrics.counter("net.faults.duplicated")
        self._m_errored = self.metrics.counter("net.faults.errored")
        self._m_timeouts = self.metrics.counter("net.faults.timeouts")
        self._g_simulated = self.metrics.gauge("net.simulated_ms")

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def register(self, name: str, handler: Callable[[Message], Any]) -> None:
        """Attach an endpoint; re-registration replaces the handler."""
        self._handlers[name] = handler

    def unregister(self, name: str) -> None:
        self._handlers.pop(name, None)

    def endpoints(self) -> list[str]:
        return sorted(self._handlers)

    def set_latency(self, source: str, destination: str, latency_ms: float,
                    symmetric: bool = True) -> None:
        """Configure per-link latency (e.g. LAN vs WAN links)."""
        self._latency[(source, destination)] = latency_ms
        if symmetric:
            self._latency[(destination, source)] = latency_ms

    def latency(self, source: str, destination: str) -> float:
        return self._latency.get((source, destination), self.default_latency_ms)

    # ------------------------------------------------------------------
    # Simulated time
    # ------------------------------------------------------------------
    def now_ms(self) -> float:
        """The simulated clock (the :class:`Transport` clock contract)."""
        return self.simulated_ms

    def sleep(self, ms: float) -> None:
        """Advance the simulated clock without sending anything.

        Retry/backoff layers use this to wait out backoff windows
        deterministically — no wall time is ever consumed.
        """
        if ms < 0:
            raise ValueError(f"cannot sleep a negative duration: {ms!r}")
        self.simulated_ms += ms
        self._g_simulated.set(self.simulated_ms)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def send(self, source: str, destination: str, kind: str, payload: Any) -> Any:
        """Deliver a message; returns the destination handler's response.

        The response trip is charged with the reverse link's latency (a
        request/response exchange costs two traversals).
        """
        return self._deliver(source, destination, kind, payload,
                             round_trip=True)

    def send_one_way(
        self, source: str, destination: str, kind: str, payload: Any
    ) -> None:
        """Fire-and-forget variant (notifications): one traversal."""
        self._deliver(source, destination, kind, payload, round_trip=False)

    def _deliver(self, source: str, destination: str, kind: str,
                 payload: Any, round_trip: bool) -> Any:
        message = Message(source, destination, kind, payload)
        link = self.links.setdefault((source, destination), LinkStats())
        latency = self.latency(source, destination)
        decision = (
            self.faults.decide(source, destination)
            if self.faults is not None
            else FaultDecision()
        )
        if decision.unreachable:
            # The request is charged — it was sent and timed out.
            link.timeouts += 1
            self._m_timeouts.inc()
            self._charge(link, latency, message.approximate_size())
            if self.faults is not None and self.faults.crashed(destination):
                raise EndpointDownError(destination, "crashed")
            if self.faults is not None and self.faults.crashed(source):
                raise EndpointDownError(source, "crashed")
            raise EndpointDownError(destination, "partitioned away")
        handler = self._handlers.get(destination)
        if handler is None:
            raise EndpointDownError(destination, "not registered on the bus")
        if decision.extra_delay_ms:
            link.fault_delay_ms += decision.extra_delay_ms
        self._charge(
            link, latency + decision.extra_delay_ms, message.approximate_size()
        )
        if decision.dropped:
            link.dropped += 1
            self._m_dropped.inc()
            raise DeliveryError(
                f"message {kind!r} from {source!r} to {destination!r} "
                f"was dropped in transit"
            )
        if decision.errored:
            link.errored += 1
            self._m_errored.inc()
            raise NetworkError(
                f"link {source!r} -> {destination!r} signalled a transport "
                f"error for message {kind!r}"
            )
        response = handler(message)
        for _ in range(decision.duplicates):
            # A duplicated packet: delivered again, charged again; its
            # outcome (including receiver-side errors) never affects the
            # original exchange.
            link.duplicated += 1
            self._m_duplicated.inc()
            self._charge(link, latency, message.approximate_size())
            try:
                handler(message)
            except Exception:  # noqa: BLE001 - receiver rejected the dup
                pass
        if round_trip:
            back_latency = self.latency(destination, source)
            back = self.links.setdefault((destination, source), LinkStats())
            back.latency_ms += back_latency
            self.simulated_ms += back_latency
        return response

    def _charge(self, link: LinkStats, latency_ms: float, size: int) -> None:
        link.messages += 1
        link.bytes += size
        link.latency_ms += latency_ms
        self.simulated_ms += latency_ms
        self.total_messages += 1
        self._m_messages.inc()
        self._m_bytes.inc(size)
        self._m_latency.observe(latency_ms)
        self._g_simulated.set(self.simulated_ms)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def publish_link_metrics(self) -> None:
        """Fold the per-link accounting into the metrics registry.

        Aggregate counters are maintained live on the hot path; the
        per-link breakdown (one gauge family per ``source->destination``
        link) is folded on demand so delivery never pays per-link
        instrument lookups.  ``--metrics`` dumps call this before
        snapshotting.
        """
        for (source, destination), stats in self.links.items():
            labels = {"link": f"{source}->{destination}"}
            self.metrics.gauge("net.link.messages", labels).set(stats.messages)
            self.metrics.gauge("net.link.bytes", labels).set(stats.bytes)
            self.metrics.gauge("net.link.latency_ms", labels).set(
                stats.latency_ms
            )
            if stats.faults:
                self.metrics.gauge("net.link.faults", labels).set(stats.faults)

    def stats_summary(self) -> str:
        lines = [
            f"messages={self.total_messages} simulated_ms={self.simulated_ms:.1f}"
        ]
        for (source, destination), stats in sorted(self.links.items()):
            line = (
                f"  {source} -> {destination}: {stats.messages} msgs, "
                f"{stats.bytes} bytes, {stats.latency_ms:.1f} ms"
            )
            if stats.faults:
                line += (
                    f" [faults: {stats.dropped} dropped, "
                    f"{stats.duplicated} duplicated, {stats.errored} errored, "
                    f"{stats.timeouts} timeouts]"
                )
            lines.append(line)
        return "\n".join(lines)

    def reset_stats(self) -> None:
        self.links.clear()
        self.simulated_ms = 0.0
        self.total_messages = 0
