"""Physical database design for the filter algorithm (paper, Section 3.3.4).

The paper calls the physical design "a key concept to an efficient filter
implementation": the filter tables act as *indexes to all triggering
rules affected by newly registered metadata*, and the tables themselves
carry database-level indexes.  This module holds the complete DDL.

Table inventory (paper name → ours):

- ``FilterData``      → ``filter_data``: the persistent atom store; one
  row per RDF statement plus one identity row (``rdf#subject``) per
  resource (Figure 4).
- *(input batch)*     → ``filter_input``: the transient atoms a single
  filter run takes as input.  The paper feeds "the document atoms" to the
  filter; updates/deletions require feeding *old* versions that are no
  longer in ``filter_data``, hence a separate input table.
- ``AtomicRules``     → ``atomic_rules``: all atomic rules, deduplicated
  by canonical rule text (Figure 7).  Join rules carry their two input
  rules and their rule group.
- ``RuleDependencies``→ ``rule_dependencies``: the global dependency
  graph; the target's group id is denormalized here "for efficiency
  reasons", exactly as the paper describes.
- ``RuleGroups``      → ``rule_groups``: shared join shapes (Figure 6).
- ``FilterRules`` / ``FilterRulesOP`` → ``filter_rules_class`` plus one
  ``filter_rules_<op>`` table per comparison operator (Figure 8 shows
  ``FilterRulesGT`` and ``FilterRulesCON``).  Constants are stored as
  strings and re-converted when joining, as in the paper.
- ``ResultObjects``   → ``result_objects``: per-run iteration results
  (Figure 9).
- *(materialization)* → ``materialized``: the materialized results of
  every atomic rule; the paper notes that "with join rules complete
  incremental evaluation is not possible, so the results of atomic rules
  join rules depend on are materialized".
- ``subscriptions`` / ``subscription_rules``: which subscriber registered
  which rule, and which atomic rules each subscription contributed to
  (reference counts drive unsubscription cleanup).
- ``documents`` / ``resources``: one row per live document, and the
  resource → document mapping (``filter_data`` has no document column).
  A document's content is its resources' ``filter_data`` rows; nothing
  else stores it (docs/DURABILITY.md).
- ``semantic_*``: the vocabulary store of the semantic matching tier
  (repro.semantics) — synonym sets, the taxonomy edge list with its
  precomputed transitive closure, and declarative mapping functions.
  Rows these produce in the triggering tables carry ``semantic = 1`` so
  atom reconstruction can recover the subscriber's original predicate.
"""

from __future__ import annotations

from repro.errors import StorageError
from repro.storage.engine import Database

__all__ = [
    "create_all",
    "COMPARISON_TABLES",
    "SEMANTIC_TABLES",
    "STORE_VERSION",
    "TRIGGER_TABLES",
    "filter_rules_table",
]

#: The store layout this tree reads and writes, stamped into
#: ``PRAGMA user_version``.  Stores written before the stamp existed
#: read 0 (they kept each document's RDF/XML text in ``documents``);
#: version 1 kept ``outbox_messages`` as a ``WITHOUT ROWID`` table.
STORE_VERSION = 2

#: Comparison operators of the rule language that have their own
#: triggering-rule index table, mapped to the table name suffix.
COMPARISON_TABLES = {
    "=": "filter_rules_eq",
    "!=": "filter_rules_ne",
    "<": "filter_rules_lt",
    "<=": "filter_rules_le",
    ">": "filter_rules_gt",
    ">=": "filter_rules_ge",
    "contains": "filter_rules_con",
}

#: All triggering-rule index tables, including the predicate-free one.
TRIGGER_TABLES = ("filter_rules_class", *COMPARISON_TABLES.values())

#: The vocabulary tables of the semantic matching tier (repro.semantics).
SEMANTIC_TABLES = (
    "semantic_synonyms",
    "semantic_taxonomy_edges",
    "semantic_taxonomy_closure",
    "semantic_mappings",
    "semantic_mapping_values",
)


def filter_rules_table(operator: str) -> str:
    """The index table holding triggering rules with ``operator``."""
    try:
        return COMPARISON_TABLES[operator]
    except KeyError:
        raise ValueError(f"no triggering index table for operator {operator!r}")


_DDL = """
CREATE TABLE IF NOT EXISTS documents (
    uri           TEXT PRIMARY KEY,
    registered_at INTEGER NOT NULL DEFAULT 0
) WITHOUT ROWID;

CREATE TABLE IF NOT EXISTS resources (
    uri_reference TEXT PRIMARY KEY,
    class         TEXT NOT NULL,
    document_uri  TEXT NOT NULL REFERENCES documents(uri) ON DELETE CASCADE
);
CREATE INDEX IF NOT EXISTS idx_resources_document
    ON resources(document_uri);

CREATE TABLE IF NOT EXISTS filter_data (
    uri_reference TEXT NOT NULL,
    class         TEXT NOT NULL,
    property      TEXT NOT NULL,
    value         TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_fd_class_prop_value
    ON filter_data(class, property, value);
CREATE INDEX IF NOT EXISTS idx_fd_uri_prop
    ON filter_data(uri_reference, property);
CREATE INDEX IF NOT EXISTS idx_fd_prop_value
    ON filter_data(property, value);

CREATE TABLE IF NOT EXISTS filter_input (
    uri_reference TEXT NOT NULL,
    class         TEXT NOT NULL,
    property      TEXT NOT NULL,
    value         TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_fi_class_prop
    ON filter_input(class, property);

CREATE TABLE IF NOT EXISTS atomic_rules (
    rule_id    INTEGER PRIMARY KEY AUTOINCREMENT,
    kind       TEXT NOT NULL CHECK (kind IN ('triggering', 'join')),
    rule_text  TEXT NOT NULL UNIQUE,
    class      TEXT NOT NULL,
    left_rule  INTEGER REFERENCES atomic_rules(rule_id),
    right_rule INTEGER REFERENCES atomic_rules(rule_id),
    group_id   INTEGER,
    refcount   INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_ar_group ON atomic_rules(group_id);
CREATE INDEX IF NOT EXISTS idx_ar_left_right
    ON atomic_rules(left_rule, right_rule);
CREATE INDEX IF NOT EXISTS idx_ar_right_left
    ON atomic_rules(right_rule, left_rule);

CREATE TABLE IF NOT EXISTS rule_dependencies (
    source_rule INTEGER NOT NULL REFERENCES atomic_rules(rule_id),
    target_rule INTEGER NOT NULL REFERENCES atomic_rules(rule_id),
    side        TEXT NOT NULL CHECK (side IN ('left', 'right')),
    group_id    INTEGER,
    PRIMARY KEY (source_rule, target_rule, side)
) WITHOUT ROWID;
-- One seek per (source rule, group) finds an iteration's groups
-- (repro.filter.joins).  It supersedes idx_rd_source(source_rule), the
-- primary key's own prefix, which the DROP removes from older stores.
DROP INDEX IF EXISTS idx_rd_source;
CREATE INDEX IF NOT EXISTS idx_rd_source_group
    ON rule_dependencies(source_rule, group_id, side);
CREATE INDEX IF NOT EXISTS idx_rd_target ON rule_dependencies(target_rule);

CREATE TABLE IF NOT EXISTS rule_groups (
    group_id       INTEGER PRIMARY KEY AUTOINCREMENT,
    signature      TEXT NOT NULL UNIQUE,
    left_class     TEXT NOT NULL,
    right_class    TEXT NOT NULL,
    left_property  TEXT,
    right_property TEXT,
    operator       TEXT NOT NULL,
    register_side  TEXT NOT NULL CHECK (register_side IN ('left', 'right')),
    numeric_compare INTEGER NOT NULL DEFAULT 0,
    self_join      INTEGER NOT NULL DEFAULT 0
);

CREATE TABLE IF NOT EXISTS named_rules (
    name      TEXT PRIMARY KEY,
    rule_text TEXT NOT NULL,
    end_rule  INTEGER NOT NULL REFERENCES atomic_rules(rule_id),
    class     TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS filter_rules_class (
    rule_id  INTEGER NOT NULL REFERENCES atomic_rules(rule_id),
    class    TEXT NOT NULL,
    semantic INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (rule_id, class)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_frc_class ON filter_rules_class(class);

CREATE TABLE IF NOT EXISTS result_objects (
    uri_reference TEXT NOT NULL,
    rule_id       INTEGER NOT NULL,
    iteration     INTEGER NOT NULL,
    PRIMARY KEY (uri_reference, rule_id, iteration)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_ro_iter_rule
    ON result_objects(iteration, rule_id);
CREATE INDEX IF NOT EXISTS idx_ro_rule
    ON result_objects(rule_id, uri_reference);

CREATE TABLE IF NOT EXISTS materialized (
    rule_id       INTEGER NOT NULL,
    uri_reference TEXT NOT NULL,
    PRIMARY KEY (rule_id, uri_reference)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_mat_uri ON materialized(uri_reference);

CREATE TABLE IF NOT EXISTS subscriptions (
    sub_id        INTEGER PRIMARY KEY AUTOINCREMENT,
    subscriber    TEXT NOT NULL,
    rule_text     TEXT NOT NULL,
    end_rule      INTEGER NOT NULL REFERENCES atomic_rules(rule_id),
    registered_at INTEGER NOT NULL DEFAULT 0,
    UNIQUE (subscriber, rule_text)
);
CREATE INDEX IF NOT EXISTS idx_subs_end_rule ON subscriptions(end_rule);

CREATE TABLE IF NOT EXISTS subscription_rules (
    sub_id  INTEGER NOT NULL REFERENCES subscriptions(sub_id) ON DELETE CASCADE,
    rule_id INTEGER NOT NULL REFERENCES atomic_rules(rule_id),
    PRIMARY KEY (sub_id, rule_id)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_sr_rule ON subscription_rules(rule_id);

-- Durable-state tables (docs/DURABILITY.md).  ``doc_versions`` persists
-- the provider's per-document (counter, origin) version vector entries,
-- tombstones included, so a restarted provider keeps ordering
-- anti-entropy correctly.  ``outbox_messages`` is the transactional
-- outbox: notification batches are written here in the same transaction
-- as the filter run that produced them, then delivered (and marked)
-- after commit — a crash between commit and delivery re-sends them,
-- never invents or loses them.  Its rows hold a pickled batch (about
-- 1.3 KB each), so it is a rowid table: a WITHOUT ROWID b-tree keeps
-- only about 1 KB of a row in its page and would give every row an
-- overflow page of its own.  ``dedup_entries`` persists a receiver's
-- (source, seq) exactly-once index.
CREATE TABLE IF NOT EXISTS doc_versions (
    document_uri TEXT PRIMARY KEY,
    counter      INTEGER NOT NULL,
    origin       TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS outbox_messages (
    destination TEXT NOT NULL,
    seq         INTEGER NOT NULL,
    kind        TEXT NOT NULL,
    payload     BLOB NOT NULL,
    delivered   INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (destination, seq)
);
CREATE INDEX IF NOT EXISTS idx_om_undelivered
    ON outbox_messages(destination, seq) WHERE delivered = 0;

CREATE TABLE IF NOT EXISTS dedup_entries (
    source TEXT NOT NULL,
    seq    INTEGER NOT NULL,
    PRIMARY KEY (source, seq)
) WITHOUT ROWID;

-- Semantic-tier vocabulary (repro.semantics, docs/SEMANTICS.md).
-- ``semantic_synonyms`` holds synonym sets: every term of a set shares
-- one ``set_id``; ``kind`` separates property-name synonyms from value
-- synonyms.  ``semantic_taxonomy_edges`` is the user-visible
-- broader/narrower edge list; ``semantic_taxonomy_closure`` its
-- precomputed transitive closure (maintained incrementally on edge
-- insert, never recomputed from scratch on the hot path).
-- ``semantic_mappings`` declares property-to-property mapping
-- functions: affine numeric conversions (value_dst = scale * value_src
-- + offset) or enumerated renames with pairs in
-- ``semantic_mapping_values``.
CREATE TABLE IF NOT EXISTS semantic_synonyms (
    set_id INTEGER NOT NULL,
    kind   TEXT NOT NULL CHECK (kind IN ('property', 'value')),
    term   TEXT NOT NULL,
    PRIMARY KEY (kind, term)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_ss_set ON semantic_synonyms(set_id, kind);

CREATE TABLE IF NOT EXISTS semantic_taxonomy_edges (
    narrower TEXT NOT NULL,
    broader  TEXT NOT NULL,
    PRIMARY KEY (narrower, broader)
) WITHOUT ROWID;

CREATE TABLE IF NOT EXISTS semantic_taxonomy_closure (
    ancestor   TEXT NOT NULL,
    descendant TEXT NOT NULL,
    PRIMARY KEY (ancestor, descendant)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_stc_descendant
    ON semantic_taxonomy_closure(descendant);

CREATE TABLE IF NOT EXISTS semantic_mappings (
    map_id          INTEGER PRIMARY KEY AUTOINCREMENT,
    source_property TEXT NOT NULL,
    target_property TEXT NOT NULL,
    kind            TEXT NOT NULL CHECK (kind IN ('affine', 'enum')),
    scale           REAL NOT NULL DEFAULT 1.0,
    offset          REAL NOT NULL DEFAULT 0.0,
    UNIQUE (source_property, target_property)
);
CREATE INDEX IF NOT EXISTS idx_sm_target ON semantic_mappings(target_property);

CREATE TABLE IF NOT EXISTS semantic_mapping_values (
    map_id       INTEGER NOT NULL REFERENCES semantic_mappings(map_id)
                 ON DELETE CASCADE,
    source_value TEXT NOT NULL,
    target_value TEXT NOT NULL,
    PRIMARY KEY (map_id, target_value, source_value)
) WITHOUT ROWID;
"""

_OP_TABLE_DDL = """
CREATE TABLE IF NOT EXISTS {table} (
    rule_id  INTEGER NOT NULL REFERENCES atomic_rules(rule_id),
    class    TEXT NOT NULL,
    property TEXT NOT NULL,
    value    TEXT NOT NULL,
    numeric  INTEGER NOT NULL DEFAULT 0,
    semantic INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (rule_id, class, property, value)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_{table}
    ON {table}(class, property, value);
"""


def create_all(db: Database) -> None:
    """Create every table and index of the MDP store (idempotent).

    A new store is stamped with :data:`STORE_VERSION`; a store that has
    tables and another version is refused with :class:`StorageError`.
    """
    version = int(db.scalar("PRAGMA user_version"))
    if version != STORE_VERSION and db.table_names():
        raise StorageError(
            f"store {db.path!r} has layout version {version}, but this "
            f"tree reads layout version {STORE_VERSION}"
        )
    db.executescript(_DDL)
    for table in COMPARISON_TABLES.values():
        db.executescript(_OP_TABLE_DDL.format(table=table))
    db.executescript(f"PRAGMA user_version = {STORE_VERSION};")
    db.commit()
