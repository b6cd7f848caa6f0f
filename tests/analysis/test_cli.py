"""CLI tests: ``python -m repro.analysis`` commands and exit codes."""

import pytest

from repro.analysis.__main__ import main
from repro.mdv.provider import MetadataProvider
from repro.rdf.schema import objectglobe_schema
from repro.storage.engine import Database


@pytest.fixture()
def mdp_db(tmp_path):
    """A file-backed MDP store with one live subscription."""
    path = str(tmp_path / "mdp.db")
    provider = MetadataProvider(objectglobe_schema(), db=Database(path))
    provider.subscribe(
        "lmr1", "search CycleProvider c register c where c.serverPort > 5"
    )
    provider.db.commit()
    return path


class TestAudit:
    def test_clean_database_exits_zero(self, mdp_db, capsys):
        assert main(["audit", "--db", mdp_db]) == 0
        assert "clean" in capsys.readouterr().out

    def test_corrupted_refcount_exits_two(self, mdp_db, capsys):
        db = Database(mdp_db)
        db.execute("UPDATE atomic_rules SET refcount = refcount + 1")
        db.commit()
        db.close()
        assert main(["audit", "--db", mdp_db]) == 2
        assert "MDV031" in capsys.readouterr().out

    def test_orphaned_materialized_row_exits_one(self, mdp_db, capsys):
        db = Database(mdp_db)
        db.execute(
            "INSERT INTO materialized (rule_id, uri_reference) "
            "VALUES (9999, 'x')"
        )
        db.commit()
        db.close()
        assert main(["audit", "--db", mdp_db]) == 1
        assert "MDV038" in capsys.readouterr().out

    def test_missing_database_exits_two(self, capsys):
        assert main(["audit", "--db", "/no/such.db"]) == 2
        assert "no such database" in capsys.readouterr().err


def test_only_the_audit_and_the_lint_pack_remain(capsys):
    with pytest.raises(SystemExit):
        main(["lint", "--rule", "search CycleProvider c register c"])
    assert "invalid choice" in capsys.readouterr().err


class TestCodes:
    def test_codes_lists_every_code(self, capsys):
        from repro.analysis.diagnostics import CODES

        assert main(["codes"]) == 0
        out = capsys.readouterr().out
        for code in CODES:
            assert code in out
