"""In-process tests for the single-threaded socket transport."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.errors import (
    EndpointDownError,
    NetworkError,
    RemoteError,
    SubscriptionError,
    WireCodecError,
)
from repro.net.bus import Message
from repro.net.codec import to_wire
from repro.net.frames import FrameDecoder, encode_frame
from repro.net.socket import SocketTransport
from repro.net.transport import Transport
from repro.obs.metrics import MetricsRegistry
from repro.rdf.model import URIRef
from repro.workload.documents import benchmark_document
from tests.net.service_helpers import ProviderNode, ServingThread


@pytest.fixture()
def server():
    transport = SocketTransport(metrics=MetricsRegistry())
    node = ServingThread(transport)
    yield transport
    node.close()


@pytest.fixture()
def client(server):
    transport = SocketTransport(
        metrics=MetricsRegistry(),
        request_timeout_s=10.0,
        connect_attempts=2,
        connect_base_delay_s=0.01,
    ).start()
    yield transport
    transport.close()


def _peer(client, server, name):
    client.add_peer(name, "127.0.0.1", server.port)


def test_satisfies_transport_protocol(server):
    assert isinstance(server, Transport)


def test_request_response_roundtrip(server, client):
    server.register("echo", lambda m: (m.kind, m.payload))
    _peer(client, server, "echo")
    result = client.send("cli", "echo", "ping", {"v": (1, "mdp"), "u": URIRef("a#r")})
    assert result == ("ping", {"v": (1, "mdp"), "u": URIRef("a#r")})
    assert isinstance(result[1]["u"], URIRef)


def test_one_way_notify_delivers(server, client):
    received = []
    done = threading.Event()

    def handler(message: Message):
        received.append((message.source, message.kind, message.payload))
        done.set()

    server.register("sink", handler)
    _peer(client, server, "sink")
    assert client.send_one_way("cli", "sink", "note", [1, 2]) is None
    assert done.wait(timeout=10)
    assert received == [("cli", "note", [1, 2])]


def test_remote_domain_error_is_reconstructed(server, client):
    def handler(message):
        raise SubscriptionError("already subscribed")

    server.register("mdp", handler)
    _peer(client, server, "mdp")
    with pytest.raises(SubscriptionError, match="already subscribed"):
        client.send("cli", "mdp", "subscribe", None)


def test_remote_unknown_error_becomes_remote_error(server, client):
    def handler(message):
        raise ValueError("unknown message kind 'x'")

    server.register("mdp", handler)
    _peer(client, server, "mdp")
    with pytest.raises(RemoteError) as excinfo:
        client.send("cli", "mdp", "x", None)
    assert excinfo.value.remote_type == "ValueError"
    assert not isinstance(excinfo.value, NetworkError)


def test_remote_network_error_is_never_retryable(server, client):
    # A handler that itself failed with a NetworkError still *received*
    # the request — reconstructing the retryable type would make the
    # outbox re-send a processed request.
    def handler(message):
        raise NetworkError("downstream link failed")

    server.register("mdp", handler)
    _peer(client, server, "mdp")
    with pytest.raises(RemoteError):
        client.send("cli", "mdp", "x", None)


def test_unregistered_endpoint_is_retryable(server, client):
    # The server is up but the endpoint isn't registered (a daemon
    # still booting): no handler ran, so the sender may retry.
    _peer(client, server, "ghost")
    with pytest.raises(EndpointDownError):
        client.send("cli", "ghost", "ping", None)


def test_unreachable_peer_raises_endpoint_down(client):
    client.add_peer("nowhere", "127.0.0.1", 9)  # discard port: refused
    with pytest.raises(EndpointDownError):
        client.send("cli", "nowhere", "ping", None)
    assert client.metrics.counter("net.socket.retries").value >= 1


def test_unknown_destination_without_address(client):
    with pytest.raises(EndpointDownError):
        client.send("cli", "never-heard-of-it", "ping", None)


def test_request_timeout(server):
    block = threading.Event()

    def handler(message):
        block.wait(timeout=30)
        return None

    server.register("slow", handler)
    client = SocketTransport(
        metrics=MetricsRegistry(), request_timeout_s=0.3
    ).start()
    try:
        client.add_peer("slow", "127.0.0.1", server.port)
        with pytest.raises(EndpointDownError, match="timed out"):
            client.send("cli", "slow", "ping", None)
        assert client.metrics.counter("net.socket.timeouts").value == 1
    finally:
        block.set()
        client.close()


def test_reconnect_after_server_restart(client):
    first = SocketTransport(metrics=MetricsRegistry())
    first.register("echo", lambda m: m.payload)
    first_node = ServingThread(first)
    client.add_peer("echo", "127.0.0.1", first.port)
    assert client.send("cli", "echo", "k", 1) == 1
    port = first.port
    first_node.close()
    with pytest.raises(NetworkError):
        client.send("cli", "echo", "k", 2)
    second = SocketTransport(metrics=MetricsRegistry(), port=port)
    second.register("echo", lambda m: m.payload * 10)
    second_node = ServingThread(second)
    try:
        assert client.send("cli", "echo", "k", 3) == 30
    finally:
        second_node.close()


def test_local_endpoint_short_circuit():
    transport = SocketTransport(metrics=MetricsRegistry())
    transport.register("local", lambda m: m.payload + 1)
    # No start() needed: local endpoints never touch the network.
    assert transport.send("cli", "local", "k", 41) == 42
    assert transport.metrics.counter("net.messages").value == 1
    transport.close()


def test_unencodable_payload_raises_caller_side(server, client):
    server.register("echo", lambda m: m.payload)
    _peer(client, server, "echo")

    class Opaque:
        pass

    with pytest.raises(WireCodecError):
        client.send("cli", "echo", "k", Opaque())
    # Nothing was charged for the failed encode.
    assert client.metrics.counter("net.messages").value == 0


def test_unencodable_result_is_an_error_frame(server, client):
    class Opaque:
        pass

    server.register("bad", lambda m: Opaque())
    _peer(client, server, "bad")
    with pytest.raises(WireCodecError):
        client.send("cli", "bad", "k", None)


def test_counters_charge_sender_side(server, client):
    server.register("echo", lambda m: m.payload)
    _peer(client, server, "echo")
    client.send("cli", "echo", "k", "12345")
    assert client.metrics.counter("net.messages").value == 1
    assert client.metrics.counter("net.bytes").value == 7  # '"12345"'
    # The receiving transport never touches the shared counters …
    assert server.metrics.counter("net.messages").value == 0
    assert server.metrics.counter("net.bytes").value == 0
    # … but does account raw socket traffic and requests.
    assert server.metrics.counter("net.socket.requests").value == 1
    assert server.metrics.counter("net.socket.bytes_received").value > 0


def test_port_zero_binds_an_os_assigned_port(server):
    assert server.port > 0


def _raw_request(kind: str, frame_id: int, destination: str) -> bytes:
    return encode_frame({
        "v": 1, "type": "request", "id": frame_id, "source": "raw",
        "destination": destination, "kind": kind, "payload": to_wire(None),
    })


def _raw_response(frame_id: int, payload: str) -> bytes:
    return encode_frame(
        {"v": 1, "type": "response", "id": frame_id, "payload": payload}
    )


def _read_frame(sock, decoder: FrameDecoder):
    while True:
        frame = decoder.next_frame()
        if frame is not None:
            return frame
        chunk = sock.recv(65536)
        if not chunk:
            return None
        decoder.feed(chunk)


def test_reentrant_kind_is_served_during_a_wait(server, client):
    # The server answers "work" only after pushing "notifications" back
    # to the client, which is blocked waiting for that very answer: the
    # push has to be served inside the wait, on the waiting thread.
    applied = []

    def apply(message):
        applied.append((message.payload, threading.current_thread()))
        return "applied"

    client.register("node", apply)
    client.set_reentrant_kinds("node", {"notifications"})
    server.add_peer("node", "127.0.0.1", client.port)
    server.register(
        "mdp",
        lambda m: ("done", server.send("mdp", "node", "notifications", [1])),
    )
    _peer(client, server, "mdp")
    assert client.send("node", "mdp", "work", None) == ("done", "applied")
    assert applied == [([1], threading.current_thread())]


def test_queued_reentrant_frame_is_served_before_the_wait_polls():
    # One serve() pass reads a "subscribe" (A) and a "notifications"
    # push (B) together.  A's handler asks the provider, which answers
    # only once B is acknowledged — the way an MDP's outbox flush blocks
    # on its push.  B is already queued, so the wait must serve it
    # before polling, or both sides sit out the request timeout.
    node = SocketTransport(
        metrics=MetricsRegistry(), request_timeout_s=3.0
    ).start()
    provider = socket.create_server(("127.0.0.1", 0))
    node.add_peer("mdp", "127.0.0.1", provider.getsockname()[1])
    node.register(
        "lmr",
        lambda m: (
            node.send("lmr", "mdp", "subscribe", None)
            if m.kind == "subscribe" else "ack"
        ),
    )
    node.set_reentrant_kinds("lmr", {"notifications"})
    pusher = socket.create_connection(("127.0.0.1", node.port), timeout=10)
    replies = []

    def provider_side():
        conn, _ = provider.accept()
        with conn:
            conn.settimeout(10)
            request = _read_frame(conn, FrameDecoder())
            decoder = FrameDecoder()
            replies.append(_read_frame(pusher, decoder))  # B's ack first
            conn.sendall(_raw_response(request["id"], "registered"))
            replies.append(_read_frame(pusher, decoder))

    peer = threading.Thread(target=provider_side, daemon=True)
    peer.start()
    try:
        pusher.sendall(_raw_request("subscribe", 1, "lmr")
                       + _raw_request("notifications", 2, "lmr"))
        time.sleep(0.05)  # both frames land in one read
        started = time.perf_counter()
        served = 0
        while not served and time.perf_counter() - started < 5:
            served = node.serve(0.5)  # the first pass may only accept
        assert served == 1  # B was served inside A's wait
        elapsed = time.perf_counter() - started
        peer.join(timeout=10)
        assert not peer.is_alive()
        assert [(r["id"], r.get("payload")) for r in replies] == [
            (2, "ack"), (1, "registered"),
        ]
        assert elapsed < 1.0
        assert node.metrics.counter("net.socket.timeouts").value == 0
    finally:
        pusher.close()
        provider.close()
        node.close()


def test_request_arriving_during_a_wait_is_served_after_it(server, client):
    served = []
    client.register("node", lambda m: served.append(m.kind) or m.kind)
    started, release = threading.Event(), threading.Event()

    def slow(message):
        started.set()
        release.wait(timeout=10)
        return "slow-done"

    server.register("mdp", slow)
    _peer(client, server, "mdp")
    raw = socket.create_connection(("127.0.0.1", client.port), timeout=10)

    def interleave():
        # Two requests for the waiting node, then the awaited reply.
        started.wait(timeout=10)
        raw.sendall(_raw_request("first", 1, "node")
                    + _raw_request("second", 2, "node"))
        time.sleep(0.1)
        release.set()

    helper = threading.Thread(target=interleave, daemon=True)
    helper.start()
    try:
        assert client.send("cli", "mdp", "slow", None) == "slow-done"
        assert served == []  # not a re-entrant kind: nothing ran inside
        assert client.serve() == 2
        assert served == ["first", "second"]
        decoder = FrameDecoder()
        replies = [_read_frame(raw, decoder) for _ in range(2)]
        assert [(r["id"], r["payload"]) for r in replies] == [
            (1, "first"), (2, "second"),
        ]
    finally:
        helper.join(timeout=10)
        assert not helper.is_alive()
        raw.close()


def test_replies_are_matched_by_id_not_arrival_order(client):
    # A raw peer receives an outer request, provokes a nested request on
    # the same connection, then answers the *outer* one first: each
    # waiter must still get its own reply.
    listener = socket.create_server(("127.0.0.1", 0))
    client.add_peer("raw", "127.0.0.1", listener.getsockname()[1])
    client.register("node", lambda m: client.send("node", "raw", "inner", None))
    client.set_reentrant_kinds("node", {"poke"})
    poke_replies = []

    def raw_peer():
        conn, _ = listener.accept()
        with conn:
            decoder = FrameDecoder()
            outer = _read_frame(conn, decoder)
            with socket.create_connection(
                ("127.0.0.1", client.port), timeout=10
            ) as poke:
                poke.sendall(_raw_request("poke", 7, "node"))
                inner = _read_frame(conn, decoder)
                assert inner["id"] != outer["id"]
                conn.sendall(_raw_response(outer["id"], "outer-reply")
                             + _raw_response(inner["id"], "inner-reply"))
                poke_replies.append(_read_frame(poke, FrameDecoder()))

    peer = threading.Thread(target=raw_peer, daemon=True)
    peer.start()
    try:
        assert client.send("node", "raw", "outer", None) == "outer-reply"
    finally:
        peer.join(timeout=10)
        listener.close()
    assert not peer.is_alive()
    assert [(r["id"], r["payload"]) for r in poke_replies] == [
        (7, "inner-reply")
    ]


def test_a_second_thread_may_not_send_or_serve(client):
    client.register("local", lambda m: m.payload)
    assert client.send("cli", "local", "k", 1) == 1  # this thread owns it
    errors = []

    def intruder():
        for call in (
            lambda: client.send("cli", "local", "k", 2),
            lambda: client.serve(),
        ):
            try:
                call()
            except RuntimeError as exc:
                errors.append(str(exc))

    thread = threading.Thread(target=intruder, daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(errors) == 2
    assert all("owned by another thread" in error for error in errors)


def test_start_does_not_claim_the_transport(client):
    # Bound here, served by another thread: the daemon binds before it
    # builds its node, and tests hand a bound transport to a server.
    transport = SocketTransport(metrics=MetricsRegistry()).start()
    transport.register("echo", lambda m: m.payload)
    node = ServingThread(transport)
    try:
        client.add_peer("echo", "127.0.0.1", transport.port)
        assert client.send("cli", "echo", "k", 5) == 5
    finally:
        node.close()


def _publish_bytes() -> tuple[float, float]:
    node = ProviderNode()
    client = SocketTransport(metrics=MetricsRegistry())
    try:
        client.add_peer("mdp-1", "127.0.0.1", node.port)
        for index in range(20):
            client.send(
                "cli", "mdp-1", "register_document", benchmark_document(index)
            )
    finally:
        client.close()
        node.close()
    # Read after the node's thread has stopped: it counts a reply's bytes
    # once ``sendall`` returns, which may be after the client read them.
    return (
        client.metrics.counter("net.socket.bytes_sent").value,
        node.metrics.counter("net.socket.bytes_sent").value,
    )


def test_wire_bytes_repeat_across_identical_runs():
    # A publish reply carries the filter runs; their wall-clock fields
    # used to ride along and made the byte count vary from run to run.
    assert _publish_bytes() == _publish_bytes()


def test_peer_that_stops_reading_is_dropped_after_the_timeout(client):
    # Large replies to a peer that never reads fill the socket buffers;
    # the write gives up after request_timeout_s, the connection goes,
    # and the node serves everyone else again.
    server = SocketTransport(metrics=MetricsRegistry(), request_timeout_s=0.3)
    server.register("big", lambda m: "x" * (1 << 20) if m.kind == "big" else "ok")
    node = ServingThread(server)
    stalled = socket.create_connection(("127.0.0.1", server.port), timeout=10)
    try:
        stalled.sendall(b"".join(
            _raw_request("big", frame_id, "big") for frame_id in range(64)
        ))
        client.add_peer("big", "127.0.0.1", server.port)
        started = time.perf_counter()
        assert client.send("cli", "big", "ping", None) == "ok"
        assert time.perf_counter() - started < 5
    finally:
        stalled.close()
        node.close()
