"""Tests for the ``python -m repro.bench`` command-line interface."""

import pytest

import repro.bench.__main__ as cli
from repro.bench.harness import MeasurementPoint, SweepResult
from repro.bench.reporting import FigureResult
from repro.workload.scenarios import WorkloadSpec


def fake_figure(holds: bool):
    def build(quick: bool = True):
        spec = WorkloadSpec("OID", 10)
        point = MeasurementPoint(
            spec=spec, batch_size=1, repeats=1, total_seconds=0.001,
            hits=1, iterations=0,
        )
        figure = FigureResult(
            "Figure T", f"test figure (quick={quick})",
            series=[SweepResult(spec=spec, points=[point])],
        )
        figure.claims = [("claim", holds)]
        return figure

    return build


@pytest.fixture()
def fake_figures(monkeypatch):
    figures = {"figT": fake_figure(True), "figF": fake_figure(False)}
    monkeypatch.setattr(cli, "FIGURES", figures)
    return figures


def test_single_figure_success(fake_figures, capsys):
    assert cli.main(["figT"]) == 0
    out = capsys.readouterr().out
    assert "Figure T" in out
    assert "HOLDS" in out


def test_failing_claim_sets_exit_code(fake_figures, capsys):
    assert cli.main(["figF"]) == 1
    assert "VIOLATED" in capsys.readouterr().out


def test_all_runs_every_figure(fake_figures, capsys):
    assert cli.main(["all"]) == 1  # figF fails
    out = capsys.readouterr().out
    assert out.count("Figure T") >= 2


def test_csv_output(fake_figures, tmp_path, capsys):
    target = tmp_path / "out.csv"
    assert cli.main(["figT", "--csv", str(target)]) == 0
    content = target.read_text().splitlines()
    assert content[0].startswith("figure,series,batch_size")
    assert len(content) == 2
    assert "OID n=10" in content[1]


def test_unknown_figure_rejected(fake_figures):
    with pytest.raises(SystemExit):
        cli.main(["figZZ"])


def test_real_figures_registered():
    from repro.bench.figures import FIGURES

    assert set(FIGURES) == {
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "analysis",
        "recovery",
        "matcher",
        "semantics",
    }


def test_chart_flag(fake_figures, capsys):
    assert cli.main(["figT", "--chart"]) == 0
    out = capsys.readouterr().out
    assert "ms/document (y max" in out
    assert "* = OID n=10" in out


def test_render_chart_shapes():
    from repro.bench.reporting import render_chart

    spec = WorkloadSpec("OID", 10)
    points = [
        MeasurementPoint(
            spec=spec, batch_size=b, repeats=1,
            total_seconds=0.001 * (10 - i), hits=1, iterations=0,
        )
        for i, b in enumerate((1, 10, 100))
    ]
    figure = FigureResult(
        "Figure C", "chart test",
        series=[SweepResult(spec=spec, points=points)],
    )
    chart = render_chart(figure, width=30, height=6)
    lines = chart.splitlines()
    assert lines[0].startswith("Figure C")
    assert any("*" in line for line in lines)
    assert " batch: 1 10 100" in chart


def test_render_chart_empty():
    from repro.bench.reporting import render_chart

    assert render_chart(FigureResult("F", "t")) == "(no data)"
