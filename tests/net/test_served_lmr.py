"""The served node's threading model: one thread owns all of its state.

A served LMR applies notification batches and answers ``query`` and
``stats`` on the same thread, so a reader can never observe a cache in
the middle of a batch — the race is gone by construction, and these
tests hold it there: concurrent readers against a writer, with a tiny
switch interval, and a count of the OS threads each ``mdv serve``
process runs.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading

import pytest

from repro.mdv.client import ServiceClient
from repro.mdv.daemon import ServiceConfig, _build_node
from repro.net.socket import SocketTransport
from repro.obs.metrics import MetricsRegistry
from repro.workload.documents import benchmark_document, document_uri
from repro.workload.differential import launch_node
from tests.net.service_helpers import ProviderNode, ServingThread

RULE = "search CycleProvider c register c"
CHURN_RULE = "search CycleProvider c register c where c.serverPort = 443"
QUERY = "search CycleProvider c"
PUBLISHES = 200


def _reader(port: int, stop: threading.Event, errors: list, reads: list):
    client = ServiceClient("reader", "lmr-a", "127.0.0.1", port)
    try:
        while not stop.is_set():
            client.call("query", QUERY)
            client.call("stats")
            reads.append(1)
    except Exception as exc:  # noqa: BLE001 - asserted on by the test
        errors.append(exc)
    finally:
        client.close()


def test_readers_never_race_the_applier():
    node = ProviderNode(name="mdp-1")
    config = ServiceConfig(
        name="lmr-a", role="lmr", provider="mdp-1",
        peers={"mdp-1": ("127.0.0.1", node.port)},
    )
    transport = SocketTransport(
        peers=config.peers, metrics=MetricsRegistry()
    ).start()
    _build_node(config, transport)  # the daemon's own LMR handler
    lmr = ServingThread(transport, name="served-lmr")
    node.add_peer("lmr-a", transport.port)
    writer = ServiceClient("writer", "mdp-1", "127.0.0.1", node.port)
    control = ServiceClient("control", "lmr-a", "127.0.0.1", transport.port)
    stop = threading.Event()
    errors: list[BaseException] = []
    reads: list[int] = []
    readers = [
        threading.Thread(
            target=_reader, args=(transport.port, stop, errors, reads),
            daemon=True,
        )
        for _ in range(2)
    ]
    expected: set[str] = set()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        control.call("subscribe", RULE)
        for reader in readers:
            reader.start()
        for ordinal in range(PUBLISHES):
            index = ordinal % 160
            writer.register_document(benchmark_document(index))
            expected.add(f"{document_uri(index)}#host")
            if ordinal % 10 == 9:
                writer.call("delete_document", document_uri(index))
                expected.discard(f"{document_uri(index)}#host")
    finally:
        sys.setswitchinterval(interval)
        stop.set()
        for reader in readers:
            reader.join(timeout=30)
    try:
        assert not any(reader.is_alive() for reader in readers)
        assert errors == []
        assert reads  # the readers really overlapped the writer
        hosts = {str(r.uri) for r in control.call("query", QUERY)}
        assert hosts == expected
    finally:
        control.close()
        writer.close()
        lmr.close()
        node.close()


def _churn(port: int, stop: threading.Event, errors: list, calls: list):
    client = ServiceClient("churn", "lmr-a", "127.0.0.1", port)
    try:
        while not stop.is_set():
            client.call("subscribe", CHURN_RULE)
            client.call("unsubscribe", CHURN_RULE)
            calls.append(1)
    except Exception as exc:  # noqa: BLE001 - asserted on by the test
        errors.append(exc)
    finally:
        client.close()


def test_subscribes_during_publishes_never_wait_out_the_timeout():
    # A subscribe and a provider's push can reach the LMR in one read;
    # the provider answers the subscribe only once the push is acked.
    # A short timeout turns a missed push into a failed subscribe.
    node = ProviderNode(name="mdp-1")
    config = ServiceConfig(
        name="lmr-a", role="lmr", provider="mdp-1",
        peers={"mdp-1": ("127.0.0.1", node.port)},
    )
    transport = SocketTransport(
        peers=config.peers, metrics=MetricsRegistry(), request_timeout_s=2.0
    ).start()
    _build_node(config, transport)
    lmr = ServingThread(transport, name="served-lmr")
    node.add_peer("lmr-a", transport.port)
    writer = ServiceClient("writer", "mdp-1", "127.0.0.1", node.port)
    control = ServiceClient("control", "lmr-a", "127.0.0.1", transport.port)
    stop = threading.Event()
    errors: list[BaseException] = []
    calls: list[int] = []
    churn = threading.Thread(
        target=_churn, args=(transport.port, stop, errors, calls), daemon=True
    )
    try:
        control.call("subscribe", RULE)
        churn.start()
        for index in range(PUBLISHES):
            writer.register_document(benchmark_document(index))
        stop.set()
        churn.join(timeout=30)
        assert not churn.is_alive()
        assert errors == []
        assert calls  # the churn really overlapped the writer
        assert transport.metrics.counter("net.socket.timeouts").value == 0
        assert len(control.call("query", QUERY)) == PUBLISHES
    finally:
        stop.set()
        control.close()
        writer.close()
        lmr.close()
        node.close()


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _threads(pid: int) -> int:
    return len(os.listdir(f"/proc/{pid}/task"))


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts threads via /proc"
)
def test_each_serve_process_runs_one_thread(tmp_path):
    mdp_port, lmr_port = _free_port(), _free_port()
    configs = {
        "mdp-1": {"name": "mdp-1", "role": "mdp", "port": mdp_port,
                  "peers": {"lmr-a": ["127.0.0.1", lmr_port]}},
        "lmr-a": {"name": "lmr-a", "role": "lmr", "port": lmr_port,
                  "provider": "mdp-1",
                  "peers": {"mdp-1": ["127.0.0.1", mdp_port]}},
    }
    nodes = []
    try:
        for name, config in configs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            nodes.append(launch_node(str(path)))
        assert [_threads(n.process.pid) for n in nodes] == [1, 1]
        with ServiceClient("cli", "lmr-a", "127.0.0.1", lmr_port) as lmr, \
                ServiceClient("cli", "mdp-1", "127.0.0.1", mdp_port) as mdp:
            lmr.call("subscribe", RULE)
            for index in range(3):
                mdp.register_document(benchmark_document(index))
            assert len(lmr.call("query", QUERY)) == 3
            assert lmr.call("stats")["notifications"] > 0
        assert [_threads(n.process.pid) for n in nodes] == [1, 1]
    finally:
        for node in nodes:
            node.terminate()
            node.process.communicate(timeout=10)  # closes the pipes
