"""Crash differential oracle (tier-1 matrix).

Killed at an enumerated crash point, restarted and resumed, the
scenario of :mod:`repro.workload.differential` must reproduce the
never-crashed run: the same digest and delivery stamps, and an
invariant audit that is clean right after each crash (nothing needs
repair) and at the end.  CI sweeps the whole scenario.  Here each arm
sweeps the shortest prefix of its scenario that holds a publish and
as many boundaries as the deleted crash driver's tier-1 sweep visited
at the same seed and stride, crashing at every commit boundary and
every 45th statement boundary of it; the operation kinds the prefixes
lack are crashed at every commit further below.
"""

from collections.abc import Iterator

import pytest

from repro.storage.durability import CrashPlan, CrashPoint
from repro.workload.differential import (
    Run,
    crash_run,
    run_crash_sweep,
    scenario,
)

STRIDE = 45
#: Per arm, the statement and commit boundaries the deleted driver's
#: tier-1 sweep (4 documents, stride 45) counted.
MATRIX = [
    pytest.param(
        seed, triggering, durable, statements, commits,
        id=f"seed{seed}-{triggering}" + ("" if durable else "-in-process"),
    )
    for seed, triggering, durable, statements, commits in [
        (1, "sql", True, 352, 19),
        (7, "sql", True, 347, 17),
        (42, "sql", True, 348, 18),
        # The counting matcher rebuilds its in-memory index on restart
        # (the mutation log dies with the process).
        (7, "counting", True, 185, 17),
        # In-process delivery: no persisted outbox, so only the single
        # transaction per operation keeps a crash from tearing it.
        (1, "sql", False, 335, 11),
        (7, "sql", False, 334, 11),
        (7, "counting", False, 172, 11),
    ]
]


def boundaries(ops: list[tuple], config: dict) -> Iterator[tuple[int, int]]:
    """The statement and commit boundaries seen by the end of each of
    ``ops``, counted by a crash plan that never fires."""
    run = Run(config)
    plan = CrashPlan()
    run.db.install_crash_plan(plan)
    try:
        for op in ops:
            run.apply(op)
            yield plan.statements_seen, plan.commits_seen
    finally:
        run.close()


@pytest.mark.parametrize("seed,triggering,durable,statements,commits", MATRIX)
def test_crash_sweep_matches_baseline(seed, triggering, durable, statements, commits):
    config = {"triggering": triggering, "durable_delivery": durable}
    ops = scenario(seed)
    # Enough statements for as many stride points as the old sweep had.
    wanted = 1 + STRIDE * (len(range(1, statements + 1, STRIDE)) - 1)
    first = next(i for i, op in enumerate(ops) if op[0] == "publish")
    length = next(
        n for n, (seen_statements, seen_commits) in enumerate(
            boundaries(ops, config), 1
        )
        if n > first and seen_statements >= wanted and seen_commits >= commits
    )
    report = run_crash_sweep(ops[:length], config, STRIDE)
    assert report.ok, report.failures
    assert report.points_tested == report.commits + len(
        range(1, report.statements + 1, STRIDE)
    )


def test_baseline_run_counts_boundaries():
    run, plan = crash_run(scenario(1), {"durable_delivery": True})
    assert not plan.fired
    assert plan.statements_seen > plan.commits_seen > 0
    assert run.failures == []
    assert all(run.applied.values())


def test_single_crash_point_recovers():
    config = {"durable_delivery": True}
    baseline, __ = crash_run(scenario(1), config)
    crashed, plan = crash_run(scenario(1), config, CrashPoint("commit", 3))
    assert plan.fired
    assert crashed.recoveries == 1
    assert crashed.failures == []
    assert crashed.digest() == baseline.digest()
    assert crashed.stamps == baseline.stamps


def test_crash_at_every_commit_of_each_later_operation_kind():
    """The prefixes above hold vocabulary, subscriptions and publishes.
    Crash at every commit of the first operation of each other kind,
    and of the first vocabulary and subscription that follow content,
    and at every statement of the catch-up (which commits nothing).
    This found two bugs at seed 7: a crash after the batch (which
    registers one URI twice) had committed made the retry apply it
    twice over, and a crash inside the catch-up made the retried
    replacement LMR look like a third one."""
    config = {"durable_delivery": True, "triggering": "counting"}
    ops = scenario(7)
    seen = list(boundaries(ops, config))
    published, kinds, points = set(), set(), []
    for op, (statements, commits), (now_statements, now_commits) in zip(
        ops, [(0, 0)] + seen, seen
    ):
        kind = op[0]
        if kind == "publish":
            kind = "update" if op[1].uri in published else kind
            published.add(op[1].uri)
        if not published or kind in kinds | {"publish"}:
            continue
        kinds.add(kind)
        if kind == "catch_up":
            points += [CrashPoint("statement", n)
                       for n in range(statements + 1, now_statements + 1)]
        else:
            points += [CrashPoint("commit", n)
                       for n in range(commits + 1, now_commits + 1)]
    assert kinds == {"vocab", "subscribe", "update", "batch", "unsubscribe",
                     "delete", "restart", "catch_up"}
    baseline, __ = crash_run(ops, config)
    for point in points:
        crashed, fired = crash_run(ops, config, point)
        assert fired.fired
        assert crashed.failures == []
        assert crashed.digest() == baseline.digest()
        assert crashed.stamps == baseline.stamps


def test_a_rollback_in_place_leaves_memory_as_the_store_holds_it():
    """Without a restart the provider keeps its memory over the
    rolled-back store.  At every commit and every 5th statement up to
    the first publish (the named rule and the rules over it included)
    its named rules must read as the store holds them, and the resumed
    run must reproduce the never-crashed one."""
    ops = scenario(1)
    first = next(i for i, op in enumerate(ops) if op[0] == "publish")
    assert "named" in {op[0] for op in ops[:first]}
    report = run_crash_sweep(
        ops[:first + 1], {"durable_delivery": True}, 5, restart=False
    )
    assert report.ok, report.failures
    assert report.points_tested == report.commits + len(
        range(1, report.statements + 1, 5)
    )


def test_a_crash_in_the_flush_after_a_subscribe_commits_rolls_forward():
    """The first commit after a subscription's own is the outbox
    marking its initial batch delivered.  A crash there makes the
    subscribe raise although the store holds it.  Rolled back in place,
    the LMR reattaches and holds the subscription (before, its later
    unsubscribe raised "not subscribed"), and the run reproduces the
    never-crashed one."""
    config = {"durable_delivery": True}
    ops = scenario(1)
    seen = list(boundaries(ops, config))
    first = next(i for i, op in enumerate(ops) if op[0] == "publish")
    commit = next(
        before + 2
        for i, (op, (__, before), (__, after)) in enumerate(
            zip(ops, [(0, 0)] + seen, seen)
        )
        if i > first and op[0] == "subscribe" and after - before >= 2
        and ("unsubscribe", *op[1:]) in ops
    )
    baseline, __ = crash_run(ops, config)
    crashed, plan = crash_run(
        ops, config, CrashPoint("commit", commit), restart=False
    )
    assert plan.fired
    assert crashed.recoveries == 1
    assert crashed.failures == []
    assert crashed.digest() == baseline.digest()
    assert crashed.stamps == baseline.stamps
