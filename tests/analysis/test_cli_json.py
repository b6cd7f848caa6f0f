"""CLI tests for the machine-readable surface added with the optimizer:
``--format json`` on every subcommand, the ``audit`` registry section +
``--analysis-json`` dump, and the ``code`` lint-pack subcommand."""

import json

import pytest

from repro.analysis.__main__ import main
from repro.mdv.provider import MetadataProvider
from repro.rdf.schema import objectglobe_schema
from repro.storage.engine import Database

REDUNDANT_RULE = (
    "search CycleProvider c register c "
    "where c.serverPort > 5 and c.serverPort > 3"
)


@pytest.fixture()
def mdp_db(tmp_path):
    """A file-backed MDP store with two equivalent subscriptions."""
    path = str(tmp_path / "mdp.db")
    provider = MetadataProvider(objectglobe_schema(), db=Database(path))
    provider.subscribe(
        "lmr1", "search CycleProvider c register c where c.serverPort > 5"
    )
    provider.subscribe(
        "lmr2",
        "search CycleProvider c register c "
        "where c.serverPort > 5.0 and c.serverPort > -1",
    )
    provider.db.commit()
    return path


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


class TestLintJson:
    def test_rule_findings_as_json(self, capsys):
        assert main(["lint", "--rule", REDUNDANT_RULE, "--format", "json"]) == 1
        payload = _json_out(capsys)
        assert payload["summary"]["warnings"] >= 1
        (entry,) = payload["inputs"]
        assert entry["rule"] == REDUNDANT_RULE
        assert any(d["code"] == "MDV011" for d in entry["diagnostics"])

    def test_clean_rule_json(self, capsys):
        clean = "search CycleProvider c register c"
        assert main(["lint", "--rule", clean, "--format", "json"]) == 0
        payload = _json_out(capsys)
        assert payload["summary"]["errors"] == 0


class TestAuditJson:
    def test_registry_sections_present(self, mdp_db, capsys):
        code = main(["audit", "--db", mdp_db, "--format", "json"])
        payload = _json_out(capsys)
        rulebase = payload["rulebase"]
        assert rulebase["registry"]["end_rules"] >= 1
        assert rulebase["equivalence"]["equivalent_groups"]
        assert set(rulebase["advisor"]) == {
            "join_evaluation",
            "triggering",
            "stats",
        }
        # The equivalent pair surfaces as MDV051 — a warning, exit 1.
        assert code == 1
        assert any(
            d["code"] == "MDV051" for d in payload["diagnostics"]
        )

    def test_analysis_json_dump(self, mdp_db, tmp_path, capsys):
        out = tmp_path / "ANALYSIS.json"
        main(["audit", "--db", mdp_db, "--analysis-json", str(out)])
        capsys.readouterr()
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["generated_by"] == "repro.analysis.rulebase"
        assert set(payload) == {
            "generated_by",
            "registry",
            "equivalence",
            "subsumption",
            "advisor",
            "diagnostics",
        }

    def test_text_format_mentions_registry(self, mdp_db, capsys):
        main(["audit", "--db", mdp_db])
        out = capsys.readouterr().out
        assert "MDV051" in out


class TestCodeSubcommand:
    def test_shipped_tree_clean_json(self, capsys):
        assert main(["code", "--format", "json"]) == 0
        payload = _json_out(capsys)
        assert payload["files_checked"] > 50
        assert payload["summary"]["errors"] == 0

    def test_findings_on_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import time\n__all__ = []\nstamp = time.time()\n",
            encoding="utf-8",
        )
        code = main(
            ["code", str(bad), "--root", str(tmp_path), "--format", "json"]
        )
        assert code == 2
        payload = _json_out(capsys)
        assert payload["files_checked"] == 1
        assert any(
            d["code"] == "MDV062" for d in payload["diagnostics"]
        )

    def test_text_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f():\n    return 1\n", encoding="utf-8")
        assert main(["code", str(bad), "--root", str(tmp_path)]) == 2
        assert "MDV064" in capsys.readouterr().out


def test_codes_json_lists_rulebase_and_lint_pack(capsys):
    assert main(["codes", "--format", "json"]) == 0
    payload = _json_out(capsys)
    codes = set(payload)
    assert {"MDV050", "MDV051", "MDV054", "MDV060", "MDV064"} <= codes
