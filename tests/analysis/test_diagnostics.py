"""The diagnostic contract shared by the store audit and the lint pack."""

import pytest

from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity


class TestDiagnosticContract:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(Severity.ERROR, "MDV999", "nope")

    def test_render_mentions_code_and_span(self):
        report = AnalysisReport()
        report.add(
            Severity.ERROR, "MDV062", "wall-clock call", span=(4, 15),
            hint="use the clock abstraction",
        )
        rendered = report.render()
        assert "error[MDV062] at 4..15" in rendered
        assert "hint: use the clock abstraction" in rendered
        assert report.exit_code() == 2
