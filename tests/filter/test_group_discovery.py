"""Which rule groups a join iteration evaluates, and in which order.

Within one iteration a group's statements read the ``result_objects``
rows the groups before it inserted, so the order decides in which
iteration a derived row lands.  Both discovery arms order explicitly —
by source rule, then by first member rule — and this pins the Figure 9
trace (paper, §3.4) for each: the identity join alone in iteration 1,
the reference join alone in iteration 2.
"""

from __future__ import annotations

import pytest

from repro.filter.decompose import resources_atoms
from repro.filter.joins import evaluate_groups_at
from repro.filter.matcher import match_triggering_rules
from repro.storage.tables import FilterDataTable, FilterInputTable, ResultObjectsTable

from tests.conftest import PAPER_RULE, register_rule


@pytest.mark.parametrize("use_rule_groups", [True, False])
@pytest.mark.parametrize("member_order", ["scan", "probe"])
def test_figure9_trace_of_both_discovery_arms(
    db, registry, engine, schema, figure1, use_rule_groups, member_order
):
    end_rule = register_rule(engine, registry, schema, PAPER_RULE)
    (identity_join,) = {
        row[0]
        for row in db.query_all(
            "SELECT rule_id FROM atomic_rules WHERE kind = 'join'"
        )
    } - {end_rule}
    atoms = resources_atoms(list(figure1))
    FilterDataTable(db).insert_atoms(atoms)
    FilterInputTable(db).load(atoms)
    results = ResultObjectsTable(db)
    assert match_triggering_rules(db) == 3

    trace = []
    for iteration in range(3):
        inserted = evaluate_groups_at(
            db, iteration, iteration + 1, use_rule_groups, member_order
        )
        trace.append((inserted, results.rows_at(iteration + 1)))

    assert trace == [
        (1, [("doc.rdf#info", identity_join)]),
        (1, [("doc.rdf#host", end_rule)]),
        (0, []),
    ]
