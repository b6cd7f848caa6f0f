"""Socket-level tests against a real ``mdv serve`` subprocess.

Everything here talks raw TCP: frames are hand-built (including broken
ones) so the daemon's protocol handling is exercised exactly as a
buggy or malicious client would exercise it. The invariant under test:
a bad frame gets an error frame back (or a clean disconnect for
unrecoverable framing), and the daemon keeps serving afterwards.
"""

from __future__ import annotations

import json
import socket
import struct

import pytest

from repro.net.codec import to_wire
from repro.net.frames import FrameDecoder, encode_frame
from repro.workload.documents import benchmark_document
from repro.workload.differential import launch_node


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("daemon-protocol")
    config_path = workdir / "mdp.json"
    config_path.write_text(json.dumps({
        "name": "mdp-proto",
        "role": "mdp",
        "port": 0,
        "peers": {},
    }))
    node = launch_node(str(config_path))
    yield node
    node.terminate()


@pytest.fixture()
def conn(daemon):
    sock = socket.create_connection(("127.0.0.1", daemon.port), timeout=10)
    yield sock
    sock.close()


def _request(kind, payload=None, frame_id=1):
    return encode_frame({
        "v": 1,
        "type": "request",
        "id": frame_id,
        "source": "raw-client",
        "destination": "mdp-proto",
        "kind": kind,
        "payload": to_wire(payload),
    })


def _read_frame(sock):
    decoder = FrameDecoder()
    while True:
        frame = decoder.next_frame()
        if frame is not None:
            return frame
        chunk = sock.recv(65536)
        if not chunk:
            return None
        decoder.feed(chunk)


def test_ping_round_trips(conn):
    conn.sendall(_request("ping"))
    frame = _read_frame(conn)
    assert frame["type"] == "response"
    assert frame["id"] == 1
    assert frame["payload"] == "pong"


def test_unknown_kind_gets_error_frame_and_daemon_survives(conn):
    conn.sendall(_request("no-such-kind", frame_id=2))
    frame = _read_frame(conn)
    assert frame["type"] == "error"
    assert frame["id"] == 2
    assert frame["error"]["message"]
    # Same connection still works.
    conn.sendall(_request("ping", frame_id=3))
    assert _read_frame(conn)["payload"] == "pong"


def test_garbage_json_body_gets_error_frame(conn):
    garbage = b"this is not json {"
    conn.sendall(struct.pack(">I", len(garbage)) + garbage)
    frame = _read_frame(conn)
    assert frame["type"] == "error"
    conn.sendall(_request("ping", frame_id=4))
    assert _read_frame(conn)["payload"] == "pong"


def test_invalid_frame_type_gets_error_frame(conn):
    body = {"v": 1, "type": "surprise", "id": 9}
    conn.sendall(encode_frame(body))
    frame = _read_frame(conn)
    assert frame["type"] == "error"
    assert frame["id"] == 9


def test_malformed_payload_encoding_gets_error_frame(conn):
    body = {
        "v": 1, "type": "request", "id": 11,
        "source": "raw-client", "destination": "mdp-proto",
        "kind": "ping", "payload": {"_t": "no-such-tag"},
    }
    conn.sendall(encode_frame(body))
    frame = _read_frame(conn)
    assert frame["type"] == "error"
    assert frame["id"] == 11


def test_oversized_length_prefix_closes_connection_only(daemon, conn):
    # Declared length beyond MAX_FRAME_BYTES: framing sync is lost, so
    # the daemon replies with an error frame and drops this connection —
    # but keeps serving new ones.
    conn.sendall(struct.pack(">I", 1 << 30) + b"xxxx")
    frame = _read_frame(conn)
    if frame is not None:
        assert frame["type"] == "error"
        assert _read_frame(conn) is None  # then EOF
    with socket.create_connection(
        ("127.0.0.1", daemon.port), timeout=10
    ) as fresh:
        fresh.sendall(_request("ping", frame_id=5))
        assert _read_frame(fresh)["payload"] == "pong"


def test_truncated_frame_then_disconnect_is_harmless(daemon):
    with socket.create_connection(
        ("127.0.0.1", daemon.port), timeout=10
    ) as sock:
        sock.sendall(struct.pack(">I", 100) + b"only-part")
    with socket.create_connection(
        ("127.0.0.1", daemon.port), timeout=10
    ) as fresh:
        fresh.sendall(_request("ping", frame_id=6))
        assert _read_frame(fresh)["payload"] == "pong"


def test_real_work_after_abuse(conn):
    # After all of the above the daemon still does real registry work.
    document = benchmark_document(1)
    conn.sendall(_request("register_document", document, frame_id=7))
    frame = _read_frame(conn)
    assert frame["type"] == "response"
    conn.sendall(_request("browse", "search CycleProvider c", frame_id=8))
    frame = _read_frame(conn)
    assert frame["type"] == "response"


def test_cyclic_browse_is_a_rule_error_frame(conn):
    # Browse decomposes the query like a subscription, so a cyclic join
    # graph fails the way subscribe does; the daemon keeps serving.
    conn.sendall(_request(
        "browse",
        "search CycleProvider a, CycleProvider b "
        "where a.serverPort = b.serverPort and a.serverHost = b.serverHost",
        frame_id=12,
    ))
    frame = _read_frame(conn)
    assert frame["type"] == "error"
    assert frame["id"] == 12
    assert frame["error"]["type"] == "DecompositionError"
    conn.sendall(_request("ping", frame_id=13))
    assert _read_frame(conn)["payload"] == "pong"
