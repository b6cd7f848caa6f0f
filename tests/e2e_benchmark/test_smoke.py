"""Smoke tests of the repo benchmark (``benchmarks/e2e``) at ``--scale smoke``.

They hold the benchmark to its contract — every metric named in
``BENCHMARK.json`` is reported with its unit, outputs are checked
against the oracle, deterministic counters repeat for a seed — and stay
under ten seconds including one two-daemon run.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
BENCH = REPO / "benchmarks" / "e2e"
sys.path.insert(0, str(BENCH))

import adapter  # noqa: E402
import report  # noqa: E402
from workloads import SCALES, run_workload  # noqa: E402

MANIFEST = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE = SCALES["smoke"]
IN_PROCESS = ["oid_fanout", "mixed_churn", "batch_ingest"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Counters that must repeat exactly for a seed.
DETERMINISTIC = (
    "storage.statements_per_op", "storage.rows_read_per_op",
    "storage.rows_written_per_op", "storage.transactions_per_op",
    "filter.runs_per_op", "filter.iterations_per_op",
    "filter.result_rows_per_op", "filter.atoms_scanned_per_op",
    "pubsub.notifications_per_op", "pubsub.batches_per_op",
)


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in MANIFEST[section]}


def _reported(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_manifest_is_well_formed():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert MANIFEST["paths"] == ["benchmarks/e2e", "tests/e2e_benchmark"]
    assert [w["name"] for w in MANIFEST["workloads"]] == list(SCALES["full"])
    for workload in MANIFEST["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = []
    for metric in MANIFEST["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in MANIFEST["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    assert "setup_s" in names
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_every_metric_is_reported_and_the_oracle_passes(workload):
    plain = run_workload(SMOKE[workload], seed=1)
    traced = run_workload(SMOKE[workload], seed=1, trace=True)
    assert _reported(plain) == _units("end_to_end")
    assert _reported(traced) == _units("per_layer")
    for result in (plain, traced):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] > 50
    assert all(m["value"] for m in plain["metrics"].values())
    assert (adapter.OUT_DIR / f"trace-{workload}.jsonl").exists()


def test_counters_repeat_for_a_seed_and_differ_across_seeds():
    first, second, other = (
        run_workload(SMOKE["mixed_churn"], seed=seed, trace=True)["metrics"]
        for seed in (5, 5, 6)
    )
    for name in DETERMINISTIC:
        assert first[name]["value"] == second[name]["value"], name
    assert any(
        first[name]["value"] != other[name]["value"] for name in DETERMINISTIC
    )


def test_a_corrupted_expected_set_fails_the_run():
    result = run_workload(SMOKE["oid_fanout"], seed=1, corrupt=True)
    assert not result["correct"]
    assert result["failed"] == SMOKE["oid_fanout"].lmrs


def test_a_missing_wrap_point_degrades_to_null(monkeypatch, capsys):
    monkeypatch.setitem(
        adapter.WRAP_POINTS, "rules.registry.end_rule_ids",
        "repro.rules.registry:RuleRegistry.no_such_method",
    )
    result = run_workload(SMOKE["oid_fanout"], seed=1, trace=True)
    assert result["correct"]
    metrics = result["metrics"]
    assert metrics["rules.registry.end_rule_ids_ms_per_op"]["value"] is None
    assert metrics["filter.run_ms_per_op"]["value"] > 0
    assert "no longer exists" in capsys.readouterr().err


def test_two_daemon_run_reports_every_layer():
    result = run_workload(SMOKE["daemon_small"], seed=1, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert _reported(result) == _units("per_layer")
    metrics = result["metrics"]
    for name in (
        "net.codec.encode_ms_per_op", "net.codec.decode_ms_per_op",
        "net.bytes_per_op", "net.socket.ping_rtt_ms_p50",
        "mdv.outbox.enqueued", "storage.statements_per_op",
        "mdv.outbox.delivery_ms_per_op", "filter.run_ms_per_op",
    ):
        assert metrics[name]["value"] > 0, name
    assert metrics["mdv.outbox.dead_letters"]["value"] == 0


def test_command_line_contract():
    done = subprocess.run(
        [sys.executable, *MANIFEST["command"][1:], "--workload",
         "daemon_small", "--seed", "3", "--seconds", "1", "--trace", "0",
         "--scale", "smoke"],
        cwd=REPO, capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert {
        name: metric["unit"] for name, metric in last["metrics"].items()
    } == _units("end_to_end")
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())


def _runs(workload: str, metric: str, values: list[float]) -> dict:
    return {"runs": [
        {"workload": workload, "trace": 0,
         "metrics": {metric: {"value": value}}}
        for value in values
    ]}


def _verdicts(capsys, workload: str = "oid_fanout") -> list[str]:
    return [
        line.split()[-1] for line in capsys.readouterr().out.splitlines()
        if line.startswith(workload)
    ]


def test_compare_verdicts(capsys):
    metric = "publish_visible_ms_p50"
    spec = [{"name": metric, "unit": "ms", "better": "lower", "bound": 0.10}]
    base = _runs("oid_fanout", metric, [10, 10.1, 9.9, 10])
    same = _runs("oid_fanout", metric, [10.2, 10, 10.3, 10])
    slow = _runs("oid_fanout", metric, [12, 12.1, 11.9, 12])
    noisy = _runs("oid_fanout", metric, [8, 14, 9, 13])
    assert report.compare(base, same, spec) == 0
    assert report.compare(base, slow, spec) == 1
    assert report.compare(base, noisy, spec) == 0
    assert _verdicts(capsys) == ["ok", "worse", "unresolved"]


def test_compare_fails_on_a_side_without_data(capsys):
    metric = "publish_visible_ms_p50"
    spec = [{"name": metric, "unit": "ms", "better": "lower", "bound": 0.10}]
    base = _runs("oid_fanout", metric, [10, 10.1, 9.9, 10])
    crashed = {"runs": []}
    other_workload = _runs("mixed_churn", metric, [10, 10.1, 9.9, 10])
    no_value = _runs("oid_fanout", metric, [None, None])
    zero = _runs("oid_fanout", metric, [0, 0, 0, 0])
    assert report.compare(base, crashed, spec) == 1
    assert report.compare(crashed, crashed, spec) == 1
    assert report.compare(base, no_value, spec) == 1
    assert report.compare(zero, base, spec) == 1
    assert _verdicts(capsys) == ["missing"] * 3
    # A workload only one side ran is missing on the other, both ways.
    assert report.compare(base, other_workload, spec) == 1
    assert _verdicts(capsys, "mixed_churn") == ["missing"]
