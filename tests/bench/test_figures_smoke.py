"""Smoke tests for the figure-reproduction functions (tiny sizes).

These verify structure — series, labels, claim wiring — not performance
claims, which need realistic sizes (the `python -m repro.bench` CLI and
EXPERIMENTS.md cover those).
"""

import pytest

from repro.bench.figures import figure11, figure12, figure13, figure14, figure15

TINY_BATCHES = (1, 4)


def test_figure11_structure():
    figure = figure11(sizes=(30, 60), batches=TINY_BATCHES)
    assert figure.figure_id == "Figure 11"
    assert [s.spec.rule_count for s in figure.series] == [30, 60]
    assert len(figure.claims) == 2
    assert all(isinstance(holds, bool) for __, holds in figure.claims)


def test_figure12_structure():
    figure = figure12(sizes=(20, 40), batches=TINY_BATCHES)
    assert [s.spec.rule_type for s in figure.series] == ["PATH", "PATH"]
    assert {p.batch_size for p in figure.series[0].points} == set(TINY_BATCHES)


def test_figure13_structure():
    figure = figure13(sizes=(20, 40), batches=TINY_BATCHES, con_sizes=(20, 40))
    comp = [s for s in figure.series if s.spec.rule_type == "COMP"]
    con = [s for s in figure.series if s.spec.rule_type == "CON"]
    assert all(s.spec.match_fraction == 0.1 for s in comp)
    # Per CON size: one sql scan sweep and one counting sweep, same
    # workload.
    assert len(con) == 4
    assert sum("triggering=counting" in s.label for s in con) == 2
    assert len(figure.claims) == 5


def test_figure14_structure():
    figure = figure14(sizes=(20, 40), batches=TINY_BATCHES)
    assert [s.spec.rule_type for s in figure.series] == ["JOIN", "JOIN"]


def test_figure15_structure():
    figure = figure15(rule_count=40, batches=TINY_BATCHES, con_rules=40)
    comp = [s for s in figure.series if s.spec.rule_type == "COMP"]
    con = [s for s in figure.series if s.spec.rule_type == "CON"]
    assert [s.spec.match_fraction for s in comp] == [
        0.01,
        0.05,
        0.1,
        0.2,
    ]
    assert len(con) == 4
    assert sum("triggering=counting" in s.label for s in con) == 2
    assert len(figure.claims) == 3


def test_figure_batches_exceeding_rule_base_skipped():
    figure = figure12(sizes=(3, 5), batches=(1, 2, 100))
    # batch 100 > rule base: skipped by the one-to-one contract.
    assert figure.series[0].batch_sizes() == [1, 2]
