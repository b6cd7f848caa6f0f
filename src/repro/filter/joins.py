"""Incremental evaluation of join rules and rule groups (paper, §3.4).

*"Now, all join rules depending on affected triggering rules are
evaluated.  With join rules complete incremental evaluation is not
possible, so the results of atomic rules join rules depend on are
materialized.  The evaluation consists of several iterations.  In each
iteration all atomic rules depending on the atomic rules currently
stored in ResultObjects are determined using the table RuleDependencies.
Then, the rule groups of these atomic rules are evaluated using the
resources currently stored in ResultObjects and — if necessary —
materialized data as input."*

Implementation notes:

- An iteration's dependent groups are found by one loose index scan of
  ``rule_dependencies`` (using the denormalized ``group_id`` the paper
  stores there "for efficiency reasons"): one seek per distinct
  ``(source rule, group)`` pair, however many member rules of the group
  read that source.  The same statement returns each group's
  ``rule_groups`` row and which of its input sides received a delta.
- Evaluation is **delta-driven**: each statement starts at the previous
  iteration's ``result_objects`` rows, follows the group's shared where
  part through indexed ``filter_data`` lookups, and finally probes the
  other input side.  This is the paper's "combine their input data,
  evaluate the shared where part, split up the result" (Figure 6): the
  split is the member rule carried through each produced row.
- The join order is forced with ``CROSS JOIN`` (a SQLite planner
  directive); every probe is a full-key index lookup.
- Only the delta sides that received rows are tried (a new resource may
  arrive on either input of a join); the primary key of
  ``result_objects`` deduplicates.
- A full (non-incremental) evaluation with both sides read from
  ``materialized`` initializes newly registered join rules against
  pre-existing metadata.  It issues no join when either input is empty,
  and a plain equality is driven from the smaller input.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry
from repro.storage.engine import Database

__all__ = ["GroupSpec", "load_group", "evaluate_groups_at", "initialize_join_rule"]


@dataclass(frozen=True, slots=True)
class GroupSpec:
    """One row of ``rule_groups`` (the shared join shape)."""

    group_id: int
    left_class: str
    right_class: str
    left_property: str | None
    right_property: str | None
    operator: str
    register_side: str
    numeric: bool
    self_join: bool


def load_group(db: Database, group_id: int) -> GroupSpec:
    row = db.query_one(
        "SELECT * FROM rule_groups WHERE group_id = ?", (group_id,)
    )
    if row is None:
        raise ValueError(f"no rule group {group_id}")
    return _group_from_row(row)


def _group_from_row(row: sqlite3.Row) -> GroupSpec:
    return GroupSpec(
        group_id=int(row["group_id"]),
        left_class=row["left_class"],
        right_class=row["right_class"],
        left_property=row["left_property"],
        right_property=row["right_property"],
        operator=row["operator"],
        register_side=row["register_side"],
        numeric=bool(row["numeric_compare"]),
        self_join=bool(row["self_join"]),
    )


def _value_comparison(operator: str, numeric: bool, left: str, right: str) -> str:
    """SQL comparing two value expressions under the group's operator."""
    if numeric:
        left = f"CAST({left} AS REAL)"
        right = f"CAST({right} AS REAL)"
    return f"{left} {operator} {right}"


def _delta_chain(
    group: GroupSpec, delta_side: str
) -> tuple[list[str], list[str], str]:
    """``(tables, conditions, o_link)`` for the group's where part.

    ``tables`` are extra ``filter_data`` scans resolving property
    accesses, ``conditions`` their WHERE clauses, ``o_link`` the
    condition tying the other input row ``o`` into the chain.  The group
    predicate is stored left-to-right; value expressions are assigned to
    the stored sides explicitly, so the delta may arrive on either input
    without operator mirroring.
    """
    delta_prop = (
        group.left_property if delta_side == "left" else group.right_property
    )
    other_prop = (
        group.right_property if delta_side == "left" else group.left_property
    )
    plain_equality = group.operator == "=" and not group.numeric

    def oriented(delta_expr: str, other_expr: str) -> tuple[str, str]:
        """(left_value, right_value) of the stored predicate."""
        if delta_side == "left":
            return delta_expr, other_expr
        return other_expr, delta_expr

    if delta_prop is None and other_prop is None:
        if plain_equality:
            return [], [], "o.uri_reference = d.uri_reference"
        left_value, right_value = oriented("d.uri_reference", "o.uri_reference")
        return [], [], _value_comparison(
            group.operator, group.numeric, left_value, right_value
        )

    if delta_prop is not None and other_prop is None:
        tables = ["filter_data fdd"]
        conditions = [
            "fdd.uri_reference = d.uri_reference",
            "fdd.property = :delta_prop",
        ]
        if plain_equality:
            return tables, conditions, "o.uri_reference = fdd.value"
        left_value, right_value = oriented("fdd.value", "o.uri_reference")
        return tables, conditions, _value_comparison(
            group.operator, group.numeric, left_value, right_value
        )

    if delta_prop is None and other_prop is not None:
        tables = ["filter_data fdo"]
        conditions = ["fdo.property = :other_prop"]
        if plain_equality:
            conditions.append("fdo.value = d.uri_reference")
        else:
            left_value, right_value = oriented("d.uri_reference", "fdo.value")
            conditions.append(
                _value_comparison(
                    group.operator, group.numeric, left_value, right_value
                )
            )
        return tables, conditions, "o.uri_reference = fdo.uri_reference"

    # Both sides access properties.
    tables = ["filter_data fdd", "filter_data fdo"]
    conditions = [
        "fdd.uri_reference = d.uri_reference",
        "fdd.property = :delta_prop",
        "fdo.property = :other_prop",
    ]
    if plain_equality:
        conditions.append("fdo.value = fdd.value")
    else:
        left_value, right_value = oriented("fdd.value", "fdo.value")
        conditions.append(
            _value_comparison(group.operator, group.numeric, left_value, right_value)
        )
    return tables, conditions, "o.uri_reference = fdo.uri_reference"


def _group_params(group: GroupSpec, delta_side: str = "left") -> dict[str, object]:
    return {
        "group_id": group.group_id,
        "delta_prop": (
            group.left_property
            if delta_side == "left"
            else group.right_property
        ),
        "other_prop": (
            group.right_property
            if delta_side == "left"
            else group.left_property
        ),
    }


def _evaluate_delta_side(
    db: Database,
    group: GroupSpec,
    delta_side: str,
    other_source: str,
    prev_iteration: int,
    iteration: int,
    member_condition: str,
    member_order: str,
) -> int:
    """One incremental statement: delta on ``delta_side``, the other
    input read from ``other_source`` (``materialized`` or this run's
    ``result_objects``).  Returns the number of rows inserted.

    ``member_order`` selects how member join rules are associated:

    - ``"scan"`` (the paper's combined evaluation): the member list of
      the group is scanned once per statement, each member probing the
      delta — "combining their input data, evaluating the shared where
      part, and splitting up the result afterwards" (Figure 6).  Cost
      has an O(group size) component per batch, which is what makes the
      paper's PATH/JOIN registration costs depend on the rule base size
      (Figures 12 and 14) while amortizing over the batch.
    - ``"probe"`` (a beyond-paper optimization, see the ablation bench):
      statements start at the delta, follow the shared where part to the
      candidate other-side rows, and only then look up the member join
      rule by its ``(left input, right input)`` pair — so the member
      list is never scanned and a shared triggering atom feeding
      thousands of members does not fan out.
    """
    other_side = "right" if delta_side == "left" else "left"
    chain_tables, chain_conditions, o_link = _delta_chain(group, delta_side)
    if (group.register_side == "left") == (delta_side == "left"):
        out_uri = "d.uri_reference"
    else:
        out_uri = "o.uri_reference"
    if member_order == "scan":
        tables = [
            "atomic_rules ar",
            "result_objects d",
            *chain_tables,
            f"{other_source} o",
        ]
        where = [
            member_condition,
            f"d.rule_id = ar.{delta_side}_rule",
            "d.iteration = :prev",
            *chain_conditions,
            f"o.rule_id = ar.{other_side}_rule",
            o_link,
        ]
    else:
        tables = [
            "result_objects d",
            *chain_tables,
            f"{other_source} o",
            "atomic_rules ar",
        ]
        where = [
            "d.iteration = :prev",
            *chain_conditions,
            o_link,
            f"ar.{delta_side}_rule = d.rule_id",
            f"ar.{other_side}_rule = o.rule_id",
            member_condition,
        ]
    sql = (
        f"INSERT OR IGNORE INTO result_objects "
        f"(uri_reference, rule_id, iteration) "
        f"SELECT DISTINCT {out_uri}, ar.rule_id, :iteration "
        f"FROM " + " CROSS JOIN ".join(tables) + " WHERE " + " AND ".join(where)
    )
    params = _group_params(group, delta_side)
    params["iteration"] = iteration
    params["prev"] = prev_iteration
    return db.execute(sql, params).rowcount


def _evaluate_self_join(
    db: Database,
    group: GroupSpec,
    prev_iteration: int,
    iteration: int,
    member_condition: str,
) -> int:
    """Self joins constrain both property accesses to one resource."""
    comparison = _value_comparison(
        group.operator, group.numeric, "fdl.value", "fdr.value"
    )
    sql = (
        f"INSERT OR IGNORE INTO result_objects "
        f"(uri_reference, rule_id, iteration) "
        f"SELECT DISTINCT d.uri_reference, ar.rule_id, :iteration "
        f"FROM result_objects d "
        f"CROSS JOIN atomic_rules ar "
        f"CROSS JOIN filter_data fdl "
        f"CROSS JOIN filter_data fdr "
        f"WHERE d.iteration = :prev "
        f"AND ar.left_rule = d.rule_id "
        f"AND {member_condition} "
        f"AND fdl.uri_reference = d.uri_reference "
        f"AND fdl.property = :delta_prop "
        f"AND fdr.uri_reference = d.uri_reference "
        f"AND fdr.property = :other_prop "
        f"AND {comparison}"
    )
    params = _group_params(group, "left")
    params["iteration"] = iteration
    params["prev"] = prev_iteration
    return db.execute(sql, params).rowcount


def _evaluate_spec(
    db: Database,
    group: GroupSpec,
    prev_iteration: int,
    iteration: int,
    member_condition: str,
    member_order: str,
    delta_sides: tuple[str, ...] = ("left", "right"),
) -> int:
    if group.self_join:
        return _evaluate_self_join(
            db, group, prev_iteration, iteration, member_condition
        )
    inserted = 0
    for delta_side in delta_sides:
        for other_source in ("materialized", "result_objects"):
            inserted += _evaluate_delta_side(
                db,
                group,
                delta_side,
                other_source,
                prev_iteration,
                iteration,
                member_condition,
                member_order,
            )
    return inserted


#: Whether the iteration's delta reaches ``side`` of group ``f``.
_SIDE_FED = (
    "EXISTS (SELECT 1 FROM result_objects d CROSS JOIN rule_dependencies rd"
    " WHERE d.iteration = :prev AND rd.source_rule = d.rule_id"
    " AND rd.group_id = f.group_id AND rd.side = '{side}')"
)
#: The first member of group ``f`` reading its first source on ``side``.
_FIRST_MEMBER = (
    "(SELECT MIN(target_rule) FROM rule_dependencies"
    " WHERE source_rule = f.source_rule AND group_id = f.group_id"
    " AND side = '{side}')"
)

#: The rule groups depending on one iteration, by a loose index scan of
#: ``idx_rd_source_group``.  ``walk`` visits each distinct source rule's
#: groups one seek at a time, so a class atom read by thousands of
#: members of one group costs one seek, not a walk of its thousands of
#: dependency rows.  Each group then comes once, with its
#: ``rule_groups`` row and the input sides the delta reaches, ordered by
#: its first source rule and then that source's first member: the order
#: a walk of the primary key meets the groups in.
_DEPENDENT_GROUPS = (
    "WITH RECURSIVE "
    "sources(source_rule) AS ("
    " SELECT DISTINCT rule_id FROM result_objects WHERE iteration = :prev), "
    "walk(source_rule, group_id) AS ("
    " SELECT source_rule, (SELECT MIN(group_id) FROM rule_dependencies"
    "  WHERE source_rule = sources.source_rule) FROM sources"
    " WHERE EXISTS (SELECT 1 FROM rule_dependencies"
    "  WHERE source_rule = sources.source_rule)"
    " UNION ALL"
    " SELECT source_rule, (SELECT MIN(group_id) FROM rule_dependencies"
    "  WHERE source_rule = walk.source_rule AND group_id > walk.group_id)"
    " FROM walk WHERE group_id IS NOT NULL), "
    "firsts(group_id, source_rule) AS MATERIALIZED ("
    " SELECT group_id, MIN(source_rule) FROM walk"
    " WHERE group_id IS NOT NULL GROUP BY group_id) "
    "SELECT g.*, "
    + _SIDE_FED.format(side="left") + " AS left_fed, "
    + _SIDE_FED.format(side="right") + " AS right_fed "
    "FROM firsts f CROSS JOIN rule_groups g WHERE g.group_id = f.group_id "
    "ORDER BY f.source_rule, MIN("
    "IFNULL(" + _FIRST_MEMBER.format(side="left") + ", "
    + _FIRST_MEMBER.format(side="right") + "), "
    "IFNULL(" + _FIRST_MEMBER.format(side="right") + ", "
    + _FIRST_MEMBER.format(side="left") + "))"
)

#: The dependent join rules of one iteration, one by one (the
#: ``use_rule_groups=False`` ablation pays per member on purpose), in
#: the order a walk of the primary key meets them.
_DEPENDENT_RULES = (
    "SELECT rd.target_rule, rd.group_id FROM rule_dependencies rd "
    "WHERE rd.source_rule IN "
    "(SELECT rule_id FROM result_objects WHERE iteration = ?) "
    "GROUP BY rd.target_rule, rd.group_id "
    "ORDER BY MIN(rd.source_rule), rd.target_rule"
)


def evaluate_groups_at(
    db: Database,
    prev_iteration: int,
    iteration: int,
    use_rule_groups: bool = True,
    member_order: str = "scan",
    metrics: MetricsRegistry | None = None,
) -> int:
    """Evaluate every join rule depending on the previous iteration.

    Dependent rules are found through ``rule_dependencies`` (with the
    denormalized ``group_id`` the paper stores there "for efficiency
    reasons").  With ``use_rule_groups`` (the paper's design) all member
    rules of a group are handled by one set of statements, run only for
    the input sides the iteration fed; without it (ablation) each
    dependent join rule runs its own statements, restricted to its
    ``rule_id``.  ``member_order`` selects the paper's member-scan
    evaluation (``"scan"``) or the delta-probe optimization
    (``"probe"``); see :func:`_evaluate_delta_side`.

    Returns the number of new ``result_objects`` rows.
    """
    inserted = 0
    if use_rule_groups:
        rows = db.query_all(_DEPENDENT_GROUPS, {"prev": prev_iteration})
        for row in rows:
            sides = tuple(s for s in ("left", "right") if row[f"{s}_fed"])
            inserted += _evaluate_spec(
                db, _group_from_row(row), prev_iteration, iteration,
                "ar.group_id = :group_id", member_order, sides,
            )
    else:
        rows = db.query_all(_DEPENDENT_RULES, (prev_iteration,))
        for row in rows:
            group = load_group(db, int(row["group_id"]))
            inserted += _evaluate_spec(
                db, group, prev_iteration, iteration,
                f"ar.rule_id = {int(row['target_rule'])}", member_order,
            )
    if metrics is not None and rows:
        metrics.counter(f"filter.groups_evaluated.{member_order}").inc(
            len(rows)
        )
        metrics.counter("filter.join_rows_inserted").inc(inserted)
    return inserted


# ----------------------------------------------------------------------
# Full evaluation (new-rule initialization)
# ----------------------------------------------------------------------
def initialize_join_rule(
    db: Database,
    rule_id: int,
    left_rule: int,
    right_rule: int,
    group: GroupSpec,
) -> int:
    """Full (non-incremental) evaluation of a newly registered join rule.

    Both inputs are read from ``materialized`` — children are always
    initialized first (the registry yields atoms children-first) — and
    the result goes straight into the rule's own materialized set.  This
    step is what makes a *new* subscription see metadata registered
    before it existed.  An empty input means no join runs at all; a
    plain equality is driven from the smaller input, since its other
    side is a full-key probe either way.
    """
    counts = db.query_one(
        "SELECT (SELECT COUNT(*) FROM materialized WHERE rule_id = ?), "
        "(SELECT COUNT(*) FROM materialized WHERE rule_id = ?)",
        (left_rule, right_rule),
    )
    if not counts[0] or not counts[1]:
        return 0
    params: dict[str, object] = {
        "rule_id": rule_id,
        "left_rule": left_rule,
        "right_rule": right_rule,
        "left_prop": group.left_property,
        "right_prop": group.right_property,
    }
    if group.self_join:
        comparison = _value_comparison(
            group.operator, group.numeric, "fdl.value", "fdr.value"
        )
        sql = (
            f"INSERT OR IGNORE INTO materialized (rule_id, uri_reference) "
            f"SELECT DISTINCT :rule_id, l.uri_reference "
            f"FROM materialized l "
            f"CROSS JOIN filter_data fdl CROSS JOIN filter_data fdr "
            f"WHERE l.rule_id = :left_rule "
            f"AND fdl.uri_reference = l.uri_reference "
            f"AND fdl.property = :left_prop "
            f"AND fdr.uri_reference = l.uri_reference "
            f"AND fdr.property = :right_prop "
            f"AND {comparison}"
        )
        return db.execute(sql, params).rowcount

    out_uri = (
        "l.uri_reference" if group.register_side == "left" else "r.uri_reference"
    )
    drive, probe = ("left", "right")
    plain_equality = group.operator == "=" and not group.numeric
    if plain_equality and counts[1] < counts[0]:
        drive, probe = probe, drive
    inputs = {
        "left": ("l", "fdl", group.left_property),
        "right": ("r", "fdr", group.right_property),
    }
    values: dict[str, str] = {}
    alias, fd, prop = inputs[drive]
    tables = [f"materialized {alias}"]
    where = [f"{alias}.rule_id = :{drive}_rule"]
    values[drive] = f"{alias}.uri_reference"
    if prop is not None:
        tables.append(f"filter_data {fd}")
        where.append(f"{fd}.uri_reference = {alias}.uri_reference")
        where.append(f"{fd}.property = :{drive}_prop")
        values[drive] = f"{fd}.value"
    alias, fd, prop = inputs[probe]
    values[probe] = f"{alias}.uri_reference"
    if prop is not None:
        tables.append(f"filter_data {fd}")
        where.append(f"{fd}.property = :{probe}_prop")
        values[probe] = f"{fd}.value"
    tables.append(f"materialized {alias}")
    where.append(f"{alias}.rule_id = :{probe}_rule")
    if prop is not None:
        where.append(f"{alias}.uri_reference = {fd}.uri_reference")
    where.append(
        _value_comparison(
            group.operator, group.numeric, values["left"], values["right"]
        )
    )
    sql = (
        f"INSERT OR IGNORE INTO materialized (rule_id, uri_reference) "
        f"SELECT DISTINCT :rule_id, {out_uri} "
        f"FROM " + " CROSS JOIN ".join(tables) + " WHERE " + " AND ".join(where)
    )
    return db.execute(sql, params).rowcount
