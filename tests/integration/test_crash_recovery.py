"""Crash-recovery differential oracle (tier-1 matrix).

Every enumerated crash point must leave the recovered, resumed run
byte-identical to the never-crashed baseline: same applied notification
stream, same LMR cache, clean invariant audit.  The full sweep
(``--stride 5``) runs in CI; here a coarser statement stride keeps the
matrix inside tier-1 budgets while still covering every commit boundary.
"""

import pytest

from repro.workload.crashes import run_crash_scenario, run_crash_sweep

MATRIX = [
    pytest.param(seed, triggering, id=f"seed{seed}-{triggering}")
    for seed, triggering in [
        (1, "sql"),
        (7, "sql"),
        (42, "sql"),
        # The counting matcher rebuilds its in-memory index during
        # recovery (the mutation log dies with the process) — the
        # resumed stream must still be byte-identical.
        (7, "counting"),
    ]
]


@pytest.mark.parametrize("seed,triggering", MATRIX)
def test_crash_sweep_matches_baseline(seed, triggering):
    report = run_crash_sweep(
        seed,
        triggering=triggering,
        statement_stride=45,
        documents=4,
    )
    assert report.points_tested > 0
    assert report.points_fired > 0
    assert report.ok, report.failures


def test_baseline_run_counts_boundaries():
    result = run_crash_scenario(1, None, documents=4)
    assert not result.crashed
    assert result.statements > result.commits > 0
    assert result.audit_findings == []
    assert result.stream  # the workload produced notifications


def test_single_crash_point_recovers():
    baseline = run_crash_scenario(1, None, documents=4)
    from repro.storage.durability import CrashPoint

    crashed = run_crash_scenario(
        1, CrashPoint("commit", 3), documents=4
    )
    assert crashed.crashed
    assert crashed.recoveries >= 1
    assert crashed.stream == baseline.stream
    assert crashed.cache == baseline.cache
    assert crashed.audit_findings == []
