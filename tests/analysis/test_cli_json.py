"""CLI tests for the machine-readable surface: ``--format json`` on every
subcommand, and the ``code`` lint-pack subcommand."""

import json

from repro.analysis.__main__ import main
from repro.mdv.provider import MetadataProvider
from repro.rdf.schema import objectglobe_schema
from repro.storage.engine import Database


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


class TestAuditJson:
    def test_payload_is_invariants_and_vocabulary(self, tmp_path, capsys):
        path = str(tmp_path / "mdp.db")
        provider = MetadataProvider(objectglobe_schema(), db=Database(path))
        provider.subscribe(
            "lmr1", "search CycleProvider c register c where c.serverPort > 5"
        )
        provider.db.commit()
        assert main(["audit", "--db", path, "--format", "json"]) == 0
        payload = _json_out(capsys)
        assert set(payload) == {
            "database", "diagnostics", "summary", "exit_code"
        }
        assert payload["exit_code"] == 0


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
        bad.write_text(
            "import time\n\ndef f():\n    return time.time()\n",
            encoding="utf-8",
        )
        assert main(["code", str(bad), "--root", str(tmp_path)]) == 2
        assert "MDV062" in capsys.readouterr().out

    def test_unparsable_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        assert main(["code", str(bad), "--root", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


def test_codes_json_lists_audit_and_lint_pack(capsys):
    assert main(["codes", "--format", "json"]) == 0
    payload = _json_out(capsys)
    codes = set(payload)
    assert {"MDV031", "MDV040", "MDV060", "MDV071"} <= codes
    # The store audit and the lint pack own every code left.
    assert {code[:5] for code in codes} == {"MDV03", "MDV04", "MDV06", "MDV07"}
