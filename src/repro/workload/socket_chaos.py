"""Socket-level chaos: kill -9 a served MDP mid-stream, then converge.

The simulated chaos scenario (:mod:`repro.workload.chaos`) proves the
reliability layers converge under injected link faults; this module
proves the same contract against *real* failure: an actual
``python -m repro.mdv serve`` MDP process killed with SIGKILL halfway
through a seeded registration stream, then restarted on the same port
and database.  No graceful drain, no flushed buffers — whatever
survives is what the durability knobs (``durability="safe"``,
``durable_delivery=True``) actually persisted.

Between the kill and the relaunch the store is audited
(:func:`~repro.analysis.invariants.audit_database`, the MDV03x/MDV04x pack)
exactly as the crash left it: every provider operation is one
transaction, so the audit must be clean — the restarted daemon repairs
nothing.

Convergence contract: after the restart, client-side retries (a
network error means the request *may not* have been processed —
re-registering a committed document is an empty diff, so no duplicate
notifications), the Outbox redelivering its committed tail, the LMR
daemon's dedup floor, and one ``resync``, the LMR cache must be
byte-identical (same canonical digest) to the cache of an uninterrupted
run of the same seed.

The tier-1 test runs a small stream; the nightly lane runs this
module's CLI at full scale::

    python -m repro.workload.socket_chaos --seed 7 --documents 120 --kill-at 60
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from repro.analysis.invariants import audit_database
from repro.errors import NetworkError
from repro.mdv.client import ServiceClient
from repro.net.codec import dumps
from repro.storage.engine import Database
from repro.workload.chaos import resource_snapshot
from repro.workload.documents import benchmark_document

__all__ = [
    "ServedNode",
    "SocketChaosReport",
    "launch_node",
    "main",
    "run_socket_chaos",
]

_READY_PATTERN = re.compile(r"MDV-SERVE READY .*port=(\d+)")

#: The subscription every run installs before the stream starts.
CHAOS_RULE = "search CycleProvider c register c"


@dataclass
class ServedNode:
    """One ``mdv serve`` subprocess and how to reach / restart it."""

    name: str
    config_path: str
    process: subprocess.Popen
    port: int

    def kill_hard(self) -> None:
        """SIGKILL — no drain, no cleanup; the crash under test."""
        self.process.kill()
        self.process.wait(timeout=30)

    def terminate(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck
                self.process.kill()
                self.process.wait(timeout=30)


def launch_node(config_path: str, timeout_s: float = 30.0) -> ServedNode:
    """Start ``python -m repro.mdv serve`` and wait for its READY line."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.mdv", "serve", "--config", config_path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
    )
    assert process.stdout is not None
    deadline = time.perf_counter() + timeout_s
    line = process.stdout.readline()
    while line:
        match = _READY_PATTERN.search(line)
        if match:
            with open(config_path, encoding="utf-8") as handle:
                name = json.load(handle)["name"]
            return ServedNode(name, config_path, process, int(match.group(1)))
        if time.perf_counter() > deadline:  # pragma: no cover - hang
            break
        line = process.stdout.readline()
    process.kill()
    _, stderr = process.communicate(timeout=10)
    raise RuntimeError(
        f"serve daemon for {config_path!r} never became ready: {stderr[-2000:]}"
    )


@dataclass
class SocketChaosReport:
    """Everything the convergence check needs from one run."""

    seed: int
    interrupted: bool
    #: Canonical digest of the LMR cache (the convergence oracle).
    cache_digest: str = ""
    #: Resource URI -> canonical image, for readable divergence output.
    cache_snapshot: dict[str, tuple] = field(default_factory=dict)
    lmr_stats: dict[str, int] = field(default_factory=dict)
    #: Registrations re-sent after a network error (interrupted runs).
    retries: int = 0
    duplicates_ignored: int = 0
    #: MDV03x/MDV04x findings on the killed MDP's store, before the relaunch.
    audit_findings: list[str] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"seed={self.seed} interrupted={self.interrupted} "
            f"resources={len(self.cache_snapshot)} retries={self.retries} "
            f"duplicates_ignored={self.duplicates_ignored} "
            f"digest={self.cache_digest[:12]}"
        )


def _write_config(path: str, config: dict) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle)
    return path


def _document_stream(seed: int, documents: int):
    """The seeded workload: fresh registrations mixed with updates."""
    rng = random.Random(seed)
    for ordinal in range(documents):
        if ordinal and rng.random() < 0.3:
            index = rng.randrange(ordinal)  # update an earlier document
        else:
            index = ordinal
        yield benchmark_document(
            index,
            memory=rng.randrange(1024),
            server_host=f"host-{rng.randrange(64)}.example",
        )


def _register_with_retry(
    client: ServiceClient, document, max_attempts: int = 60,
    backoff_s: float = 0.25,
) -> int:
    """Register, retrying while the daemon is down; returns retry count."""
    for attempt in range(max_attempts):
        try:
            client.register_document(document)
            return attempt
        except NetworkError:
            if attempt == max_attempts - 1:
                raise
            time.sleep(backoff_s)
    return max_attempts  # pragma: no cover - loop always returns/raises


def run_socket_chaos(
    seed: int,
    documents: int = 20,
    kill_at: int | None = None,
    workdir: str | None = None,
) -> SocketChaosReport:
    """One full scenario run; ``kill_at=None`` is the clean baseline."""
    interrupted = kill_at is not None
    with tempfile.TemporaryDirectory() as tempdir:
        base = str(workdir) if workdir is not None else tempdir
        os.makedirs(base, exist_ok=True)
        report = SocketChaosReport(seed=seed, interrupted=interrupted)
        mdp_config = _write_config(
            os.path.join(base, "mdp.json"),
            {
                "name": "mdp-1",
                "role": "mdp",
                "port": 0,
                "db_path": os.path.join(base, "mdp-1.db"),
                "durability": "safe",
                "durable_delivery": True,
                "peers": {},
            },
        )
        mdp = launch_node(mdp_config)
        lmr_config = _write_config(
            os.path.join(base, "lmr.json"),
            {
                "name": "lmr-a",
                "role": "lmr",
                "port": 0,
                "provider": "mdp-1",
                "peers": {"mdp-1": ["127.0.0.1", mdp.port]},
            },
        )
        lmr = launch_node(lmr_config)
        # The MDP must know the LMR's (OS-assigned) port: fix both ports
        # in the config and restart it — also the config the mid-stream
        # restart reuses, so the crashed and reborn process are
        # indistinguishable to the LMR.
        mdp.terminate()
        _write_config(
            mdp_config,
            {
                "name": "mdp-1",
                "role": "mdp",
                "port": mdp.port,
                "db_path": os.path.join(base, "mdp-1.db"),
                "durability": "safe",
                "durable_delivery": True,
                "peers": {"lmr-a": ["127.0.0.1", lmr.port]},
            },
        )
        mdp = launch_node(mdp_config)
        lmr_client = ServiceClient("chaos-driver", "lmr-a", "127.0.0.1",
                                   lmr.port)
        mdp_client = ServiceClient("chaos-driver", "mdp-1", "127.0.0.1",
                                   mdp.port, request_timeout_s=10.0)
        try:
            lmr_client.call("subscribe", CHAOS_RULE)
            for ordinal, document in enumerate(
                _document_stream(seed, documents)
            ):
                if interrupted and ordinal == kill_at:
                    mdp.kill_hard()  # SIGKILL mid-stream: the crash
                    report.audit_findings = _audit_store(
                        os.path.join(base, "mdp-1.db")
                    )
                    mdp = launch_node(mdp_config)
                report.retries += _register_with_retry(mdp_client, document)
            lmr_client.call("resync")
            stats = lmr_client.call("stats")
            report.lmr_stats = dict(stats)
            report.duplicates_ignored = int(stats.get("duplicates_ignored", 0))
            resources = lmr_client.call("query", CHAOS_RULE.split(" register")[0])
            report.cache_snapshot = {
                str(resource.uri): resource_snapshot(resource)
                for resource in resources
            }
            canonical = dumps(
                [report.cache_snapshot[uri]
                 for uri in sorted(report.cache_snapshot)]
            )
            report.cache_digest = hashlib.sha256(canonical).hexdigest()
        finally:
            lmr_client.close()
            mdp_client.close()
            mdp.terminate()
            lmr.terminate()
        return report


def _audit_store(path: str) -> list[str]:
    """MDV03x/MDV04x findings on a store exactly as a crash left it."""
    db = Database(path, durability="safe")
    try:
        return [
            f"[{d.code}] {d.message}" for d in audit_database(db).diagnostics
        ]
    finally:
        db.close()


def compare_runs(
    interrupted: SocketChaosReport, clean: SocketChaosReport
) -> list[str]:
    """The convergence assertions; returns human-readable failures."""
    failures: list[str] = [
        f"store audit after the kill: {finding}"
        for finding in interrupted.audit_findings
    ]
    if interrupted.cache_digest != clean.cache_digest:
        missing = sorted(
            set(clean.cache_snapshot) - set(interrupted.cache_snapshot)
        )
        extra = sorted(
            set(interrupted.cache_snapshot) - set(clean.cache_snapshot)
        )
        failures.append(
            f"LMR caches diverged (missing={missing[:5]} extra={extra[:5]})"
        )
    received = interrupted.lmr_stats.get("batches_received", 0)
    applied = interrupted.lmr_stats.get("batches_applied", 0)
    if received - applied != interrupted.duplicates_ignored:
        failures.append(
            f"dedup counters inconsistent: received={received} "
            f"applied={applied} duplicates={interrupted.duplicates_ignored}"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workload.socket_chaos",
        description="kill -9 convergence check against real serve daemons",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--documents", type=int, default=120)
    parser.add_argument("--kill-at", type=int, default=None,
                        help="SIGKILL the MDP before this ordinal "
                             "(default: documents // 2)")
    args = parser.parse_args(argv)
    kill_at = args.kill_at if args.kill_at is not None else args.documents // 2
    print(f"socket chaos, seed {args.seed}: {args.documents} documents, "
          f"SIGKILL at {kill_at}")
    interrupted = run_socket_chaos(args.seed, args.documents, kill_at=kill_at)
    clean = run_socket_chaos(args.seed, args.documents, kill_at=None)
    print("interrupted:", interrupted.summary())
    print("clean:      ", clean.summary())
    failures = compare_runs(interrupted, clean)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"ok: converged after a kill -9 at ordinal {kill_at} "
              f"({interrupted.retries} registrations retried, "
              f"{interrupted.duplicates_ignored} duplicate batches ignored)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
