"""Small-scale socket chaos run (tier-1 version of the nightly lane).

Kills the MDP daemon with SIGKILL mid-stream, restarts it, and asserts
the surviving LMR daemon converges to the exact state a clean run
reaches; the killed MDP's store must pass the invariant audit as the
crash left it.  The nightly lane runs the same harness at full scale via
``python -m repro.workload.socket_chaos``.
"""

from __future__ import annotations

from repro.workload.socket_chaos import (
    SocketChaosReport,
    compare_runs,
    run_socket_chaos,
)


def test_kill9_restart_converges_to_clean_run_state(tmp_path):
    interrupted = run_socket_chaos(
        seed=11, documents=8, kill_at=4, workdir=tmp_path / "interrupted"
    )
    clean = run_socket_chaos(
        seed=11, documents=8, kill_at=None, workdir=tmp_path / "clean"
    )
    assert interrupted.interrupted
    assert not clean.interrupted
    divergences = compare_runs(interrupted, clean)
    assert divergences == []
    assert interrupted.cache_digest == clean.cache_digest
    # The stream survived the crash: every document landed.
    assert interrupted.lmr_stats["entries"] == clean.lmr_stats["entries"]


def test_store_audit_finding_fails_the_comparison():
    interrupted = SocketChaosReport(
        seed=11, interrupted=True, audit_findings=["[MDV031] torn refcount"]
    )
    clean = SocketChaosReport(seed=11, interrupted=False)
    assert compare_runs(interrupted, clean) == [
        "store audit after the kill: [MDV031] torn refcount"
    ]
