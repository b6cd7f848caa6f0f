"""Crash differential oracle (tier-1 matrix).

Every enumerated crash point must leave the restarted, resumed run
byte-identical to the never-crashed baseline: same applied notification
stream, same LMR cache, and an invariant audit that is clean right after
each crash (nothing needs repair) and at the end.  The full sweep
(``--stride 5``) runs in CI; here a coarser statement stride keeps the
matrix inside tier-1 budgets while still covering every commit boundary.
"""

import pytest

from repro.workload.crashes import run_crash_scenario, run_crash_sweep

MATRIX = [
    pytest.param(
        seed, triggering, durable,
        id=f"seed{seed}-{triggering}" + ("" if durable else "-in-process"),
    )
    for seed, triggering, durable in [
        (1, "sql", True),
        (7, "sql", True),
        (42, "sql", True),
        # The counting matcher rebuilds its in-memory index on restart
        # (the mutation log dies with the process) — the resumed stream
        # must still be byte-identical.
        (7, "counting", True),
        # In-process delivery: no persisted outbox, so only the single
        # transaction per operation keeps a crash from tearing it.
        (1, "sql", False),
        (7, "sql", False),
        (7, "counting", False),
    ]
]


@pytest.mark.parametrize("seed,triggering,durable", MATRIX)
def test_crash_sweep_matches_baseline(seed, triggering, durable):
    report = run_crash_sweep(
        seed,
        triggering=triggering,
        statement_stride=45,
        documents=4,
        durable_delivery=durable,
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
