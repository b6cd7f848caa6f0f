"""Smoke tests for the ablation experiment module (tiny sizes)."""

from repro.bench.ablations import (
    ABLATIONS,
    ablation_dedup,
    ablation_join_evaluation,
    ablation_rule_groups,
)


def test_registry_complete():
    assert set(ABLATIONS) == {"rule-groups", "dedup", "join-evaluation"}


def test_rule_groups_structure():
    result = ablation_rule_groups(rule_count=40, batch_size=4)
    assert set(result.timings) == {"grouped", "ungrouped"}
    assert all(seconds > 0 for seconds in result.timings.values())
    assert len(result.claims) == 1
    assert "rule groups" in result.render()


def test_dedup_structure():
    result = ablation_dedup(rule_count=30, batch_size=4)
    assert set(result.timings) == {"merged", "private"}
    # The atom-count claim is deterministic even at tiny sizes.
    atom_claim = result.claims[0]
    assert atom_claim[1] is True


def test_join_evaluation_structure():
    result = ablation_join_evaluation(rule_count=50, batch_size=2)
    assert set(result.timings) == {"scan", "probe"}


def test_cli_ablations_wiring(monkeypatch, capsys):
    import repro.bench.__main__ as cli
    from repro.bench.ablations import AblationResult

    def fake_ablation():
        result = AblationResult("x", "fake ablation")
        result.timings = {"a": 0.001}
        result.claims = [("always", True)]
        return result

    monkeypatch.setattr(cli, "ABLATIONS", {"x": fake_ablation})
    assert cli.main(["ablations"]) == 0
    out = capsys.readouterr().out
    assert "fake ablation" in out
    assert "HOLDS" in out
