"""Small-scale kill -9 run (the tier-1 version of the nightly lane).

Kills the served MDP with SIGKILL mid-scenario, relaunches it, and
asserts the surviving served LMR converges to the state a clean served
run reaches; the killed MDP's store must pass the invariant audit as
the crash left it.  The nightly lane runs ``python -m
repro.workload.differential --faults kill`` at full scale.
"""

from __future__ import annotations

from repro.workload.differential import (
    KillReport,
    kill_divergences,
    run_kill,
    served_ops,
    scenario,
)


def test_kill9_restart_converges_to_clean_run_state(tmp_path):
    documents = [op for op in served_ops(scenario(11, 1)) if op[0] != "subscribe"]
    killed = run_kill(11, len(documents) // 2, 1,
                      workdir=str(tmp_path / "interrupted"))
    clean = run_kill(11, None, 1, workdir=str(tmp_path / "clean"))
    assert kill_divergences(killed, clean) == []
    # The scenario survived the crash: every document landed.
    assert killed.cache and killed.cache == clean.cache
    assert killed.stats["entries"] == clean.stats["entries"]


def test_store_audit_finding_fails_the_comparison():
    killed = KillReport(audit=["[MDV031] torn refcount"])
    assert kill_divergences(killed, KillReport()) == [
        "store audit after the kill: [MDV031] torn refcount"
    ]
