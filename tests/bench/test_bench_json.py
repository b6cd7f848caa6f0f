"""Tests for BENCH_*.json emission and the perf-regression gate."""

from __future__ import annotations

import json

import pytest

import repro.bench.__main__ as cli
from repro.bench.harness import MeasurementPoint, SweepResult
from repro.bench.regression import compare
from repro.bench.regression import main as regression_main
from repro.bench.reporting import (
    FigureResult,
    figure_slug,
    figure_to_dict,
    write_bench_json,
)
from repro.workload.scenarios import WorkloadSpec


def make_figure(total_seconds: float = 0.25, counters=()) -> FigureResult:
    spec = WorkloadSpec("OID", 10)
    point = MeasurementPoint(
        spec=spec, batch_size=1, repeats=2, total_seconds=total_seconds,
        hits=2, iterations=1, counters=tuple(counters),
    )
    return FigureResult(
        "Figure 12", "PATH rules",
        series=[SweepResult(spec=spec, points=[point])],
        claims=[("amortization", True)],
    )


class TestFigureSlug:
    def test_figure_number_extracted(self):
        assert figure_slug("Figure 12") == "fig12"
        assert figure_slug("Figure 5 (variant)") == "fig5"

    def test_fallback_slugifies(self):
        assert figure_slug("Ablations: groups") == "ablations_groups"


class TestFigureToDict:
    def test_every_point_carries_wall_time_and_counters(self):
        figure = make_figure(
            counters=(("filter.atoms_scanned", 40.0),
                      ("storage.statements", 9.0)),
        )
        payload = figure_to_dict(figure)
        assert payload["figure"] == "fig12"
        assert payload["wall_time_seconds"] == pytest.approx(0.25)
        point = payload["series"][0]["points"][0]
        assert point["total_seconds"] == pytest.approx(0.25)
        assert point["ms_per_document"] > 0
        assert point["counters"] == {
            "filter.atoms_scanned": 40.0,
            "storage.statements": 9.0,
        }
        assert payload["claims"] == [
            {"text": "amortization", "holds": True}
        ]


class TestWriteBenchJson:
    def test_writes_named_file_with_extra_fields(self, tmp_path):
        path = write_bench_json(
            make_figure(), tmp_path, extra={"mode": "quick"}
        )
        assert path.name == "BENCH_fig12.json"
        payload = json.loads(path.read_text())
        assert payload["mode"] == "quick"
        assert payload["series"][0]["points"]

    def test_output_is_deterministic(self, tmp_path):
        first = write_bench_json(make_figure(), tmp_path / "a").read_text()
        second = write_bench_json(make_figure(), tmp_path / "b").read_text()
        assert first == second


class TestCliMetricsFlag:
    @pytest.fixture()
    def fake_figures(self, monkeypatch):
        def build(quick: bool = True):
            return make_figure()

        monkeypatch.setattr(cli, "FIGURES", {"fig12": build})

    def test_metrics_writes_bench_json(self, fake_figures, tmp_path, capsys):
        assert cli.main(
            ["fig12", "--metrics", "--metrics-dir", str(tmp_path)]
        ) == 0
        payload = json.loads((tmp_path / "BENCH_fig12.json").read_text())
        assert payload["figure"] == "fig12"
        assert "elapsed_seconds" in payload
        out = capsys.readouterr().out
        assert "BENCH_fig12.json" in out
        assert '"counters"' in out  # the registry snapshot dump

    def test_no_metrics_flag_writes_nothing(self, fake_figures, tmp_path,
                                            capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["fig12"]) == 0
        assert not list(tmp_path.glob("BENCH_*.json"))


class TestRegressionGate:
    def test_within_tolerance_passes(self):
        baseline = figure_to_dict(make_figure(1.0))
        current = figure_to_dict(make_figure(1.2))
        assert compare(baseline, current) == []

    def test_past_tolerance_fails(self):
        baseline = figure_to_dict(make_figure(1.0))
        current = figure_to_dict(make_figure(1.3))
        failures = compare(baseline, current)
        assert failures and "wall time regressed" in failures[0]

    def test_counter_movement_is_reported(self):
        baseline = figure_to_dict(
            make_figure(1.0, counters=(("storage.statements", 100.0),))
        )
        current = figure_to_dict(
            make_figure(1.5, counters=(("storage.statements", 250.0),))
        )
        failures = compare(baseline, current)
        assert any("counters moved" in failure for failure in failures)

    def test_main_end_to_end(self, tmp_path, capsys):
        baseline_dir = tmp_path / "baselines"
        current_dir = tmp_path / "current"
        write_bench_json(make_figure(1.0), baseline_dir)
        write_bench_json(make_figure(1.05), current_dir)
        assert regression_main([
            "--baseline-dir", str(baseline_dir),
            "--current-dir", str(current_dir),
        ]) == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_main_fails_on_regression(self, tmp_path, capsys):
        baseline_dir = tmp_path / "baselines"
        current_dir = tmp_path / "current"
        write_bench_json(make_figure(1.0), baseline_dir)
        write_bench_json(make_figure(2.0), current_dir)
        assert regression_main([
            "--baseline-dir", str(baseline_dir),
            "--current-dir", str(current_dir),
        ]) == 1

    def test_main_fails_on_missing_current_run(self, tmp_path, capsys):
        baseline_dir = tmp_path / "baselines"
        write_bench_json(make_figure(1.0), baseline_dir)
        assert regression_main([
            "--baseline-dir", str(baseline_dir),
            "--current-dir", str(tmp_path / "empty"),
        ]) == 1

    def test_main_errors_without_baselines(self, tmp_path, capsys):
        assert regression_main([
            "--baseline-dir", str(tmp_path / "nothing"),
            "--current-dir", str(tmp_path),
        ]) == 2

    def test_main_fails_on_unbaselined_current_figure(self, tmp_path, capsys):
        # A figure produced by the perf run without a committed baseline
        # would silently skip the gate — it must fail with a pointer to
        # committing one.
        baseline_dir = tmp_path / "baselines"
        current_dir = tmp_path / "current"
        write_bench_json(make_figure(1.0), baseline_dir)
        write_bench_json(make_figure(1.0), current_dir)
        extra = FigureResult(
            "Figure 99", "new figure",
            series=make_figure(1.0).series,
        )
        write_bench_json(extra, current_dir)
        assert regression_main([
            "--baseline-dir", str(baseline_dir),
            "--current-dir", str(current_dir),
        ]) == 1
        err = capsys.readouterr().err
        assert "BENCH_fig99.json" in err
        assert "no committed baseline" in err

    def test_checked_in_baselines_cover_the_ci_figures(self):
        from pathlib import Path

        names = sorted(
            path.name for path in Path("benchmarks/baselines").glob("*.json")
        )
        assert names == [
            "BENCH_analysis.json",
            "BENCH_fig11.json", "BENCH_fig12.json", "BENCH_fig13.json",
            "BENCH_fig14.json", "BENCH_fig15.json",
            "BENCH_matcher.json",
            "BENCH_recovery.json",
            "BENCH_semantics.json",
        ]
