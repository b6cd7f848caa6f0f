"""In-memory counting matcher for the triggering stage.

``triggering="counting"`` replaces the paper's SQL triggering joins with
the index half of the classic publish/subscribe *counting algorithm*
(Yan & Garcia-Molina; the same skeleton Gryphon, Le Subscribe and
SIENA's predicate indexes use): one compiled index per ``(class,
property, operator)`` over the registered triggering predicates, probed
once per input atom.  In this system a triggering atom is a *single*
predicate (conjunctions become join rules in the dependency graph,
evaluated by the shared closure) and extension classes are OR'd (one
index entry per class), so an index hit fires its rule outright and
matching a batch is a dedup of ``(resource, rule)`` pairs.

Index layout (one structure per operator family):

- **class membership** (``rdf#subject`` atoms) — hash map
  ``class → rules``;
- **eq** — two-level hash map ``(class, property) → value → rules``:
  probe cost is O(1) in the rule-base size;
- **ne** — per ``(class, property)`` the rules with their constants; a
  probe scans only that bucket (ne rules are rare; SQL text
  inequality is replicated exactly);
- **lt/le/gt/ge** — per ``(class, property, op)`` a sorted array of
  bounds with parallel rule ids; a probe is one :mod:`bisect` plus the
  matching slice, O(log n + answers).  Bounds compare as SQLite REALs:
  both sides of the paper's join are ``CAST(… AS REAL)``, replicated by
  :func:`sqlite_cast_real`;
- **contains** — a substring dictionary ``(class, property) → needle
  length → needle → rules`` (Yan & Garcia-Molina's *key* method).  A
  probe looks up ``value[i:i+L]`` for every start ``i`` and every
  distinct needle length ``L`` (``L = 0`` is the empty needle, which
  every value contains).  A needle occurs in a value exactly when it
  equals one of the value's windows of its length, so the answer is the
  canonical :func:`~repro.text.ngrams.contains_match` with nothing to
  verify, at O(|value| × distinct lengths) lookups whatever the rule
  count.

**Memory model.**  A leaf bucket of the class, eq and contains maps
holds the bare rule id while one rule uses it and becomes an
insertion-ordered dict once several do (an extension class or a
semantic expansion shared with another rule; atomic rules are
deduplicated, so almost every bucket holds one rule).  All entries on
one ``(class, property)`` share a single key tuple of interned strings,
and ``_idx_entries`` keeps a rule's one entry as a flat tuple — the
``_idx_*`` map, then the key path — or a tuple of them when the rule has
several.  Adds and drops stay O(1), so a rebuild stays linear.  Traced
with :mod:`tracemalloc`, the index holds about 210 B per rule on 10k
OID rules plus 2k each of COMP, CON and PATH rules (the value strings
the rules carry included), and 200–225 B per rule on the ``matcher``
figure's mixed base from 1k to 1M rules.

**Locking.**  All index state lives in ``_idx_*`` attributes and
every mutation happens under ``self._lock`` — the MDV066 lint enforces
this lexically.  The matcher starts no thread of its own (MDV061 proves
that for the whole filter package), but a provider may be called from
several threads under a caller's lock, and the matcher's lock keeps a
match on one of them from observing an index another is half-way
through re-syncing (docs/CONCURRENCY.md).  Maintenance is incremental:
the :class:`~repro.rules.registry.RuleRegistry` appends a
:class:`~repro.rules.registry.RuleMutation` to its bounded log whenever
``mutation_version`` moves; :meth:`CountingMatcher.refresh` re-syncs
exactly the touched rules from the database when the log covers the
version gap and falls back to a full rebuild otherwise (fresh matcher,
log overflow, a restarted provider).  Re-syncing — drop then reload from the
store — is idempotent and rollback-proof: a log entry whose transaction
never committed simply reloads the unchanged rows.

Instruments: ``counting.rebuilds``, ``counting.incremental`` (log
entries applied), ``counting.rules`` (gauge), ``counting.batches``,
``counting.rows``, ``counting.hits``, ``counting.contains_lookups``
(substring-dictionary lookups) and the per-batch latency histogram
``counting.match_ms``.
"""

from __future__ import annotations

import re
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import MetricsRegistry, default_registry
from repro.rdf.namespaces import RDF_SUBJECT
from repro.storage.engine import Database
from repro.storage.schema import COMPARISON_TABLES
from repro.storage.tables import AtomRow

if TYPE_CHECKING:  # imported lazily to avoid a module cycle
    from repro.rules.registry import RuleMutation

__all__ = [
    "TRIGGERING_MODES",
    "CountingMatcher",
    "sqlite_cast_real",
]

#: Valid values of the ``triggering=`` knob on the filter engine and the
#: provider: ``"sql"`` is the paper's relational triggering join (the
#: default, for fidelity), ``"counting"`` this module's in-memory index.
TRIGGERING_MODES = ("sql", "counting")

#: One ``(uri_reference, rule_id)`` triggering hit.
Hit = tuple[str, int]

#: A leaf bucket of ``_idx_class``, ``_idx_eq`` or ``_idx_con``: the bare
#: rule id while it holds one rule, an insertion-ordered dict of rule ids
#: once several rules share it.
_Bucket = int | dict[int, None]

#: One index entry of a rule, flat: the ``_idx_*`` map it sits in, then
#: the key path to its slot there (for ranges, the bucket key and the
#: bound).
_Entry = tuple[Any, ...]

#: The prefix of a string SQLite's ``CAST(… AS REAL)`` consumes:
#: optional ASCII whitespace, optional sign, ASCII digits with optional
#: fraction, optional complete exponent.  Anything after the longest
#: valid prefix is ignored, exactly like ``sqlite3AtoF``.
_CAST_REAL = re.compile(
    r"[ \t\n\v\f\r]*"
    r"(?P<sign>[+-]?)"
    r"(?P<int>[0-9]*)"
    r"(?:\.(?P<frac>[0-9]*))?"
    r"(?:[eE](?P<exp>[+-]?[0-9]+))?"
)


def sqlite_cast_real(text: str) -> float:
    """Python replica of SQLite's ``CAST(text AS REAL)``.

    The paper's range joins compare ``CAST(fi.value AS REAL)`` against
    ``CAST(fr.value AS REAL)``; the counting index must order bounds by
    the *same* conversion or range verdicts diverge from the SQL path on
    non-numeric junk ("abc" → 0.0), partial prefixes ("1.5x" → 1.5,
    "1e" → 1.0) and hex-looking strings ("0x10" → 0.0).  Pinned against
    the real engine by a Hypothesis property test.
    """
    match = _CAST_REAL.match(text)
    assert match is not None  # every prefix (even empty) matches
    int_part = match.group("int")
    frac = match.group("frac") or ""
    if not int_part and not frac:
        return 0.0
    sign = match.group("sign")
    exp = match.group("exp") or "0"
    return float(f"{sign}{int_part or '0'}.{frac or '0'}e{exp}")


class _RangeIndex:
    """Sorted bound array with parallel rule ids for one range bucket."""

    __slots__ = ("bounds", "rules")

    def __init__(self) -> None:
        self.bounds: list[float] = []
        self.rules: list[int] = []

    def add(self, bound: float, rule_id: int) -> None:
        at = bisect_right(self.bounds, bound)
        self.bounds.insert(at, bound)
        self.rules.insert(at, rule_id)

    def remove(self, bound: float, rule_id: int) -> None:
        at = bisect_left(self.bounds, bound)
        while at < len(self.bounds) and self.bounds[at] == bound:
            if self.rules[at] == rule_id:
                del self.bounds[at]
                del self.rules[at]
                return
            at += 1

    def matches(self, op: str, value: float) -> Sequence[int]:
        """Rules whose join ``CAST(atom) <op> CAST(bound)`` holds."""
        if op == "<":  # atom < bound: bounds strictly above the value
            return self.rules[bisect_right(self.bounds, value):]
        if op == "<=":
            return self.rules[bisect_left(self.bounds, value):]
        if op == ">":  # atom > bound: bounds strictly below the value
            return self.rules[: bisect_left(self.bounds, value)]
        return self.rules[: bisect_right(self.bounds, value)]  # >=


def _bucket_add(mapping: dict[Any, _Bucket], key: Any, rule_id: int) -> None:
    """Add ``rule_id`` to the bucket ``mapping[key]`` (the caller holds
    the matcher lock)."""
    bucket = mapping.get(key)
    if bucket is None:
        mapping[key] = rule_id
    elif type(bucket) is int:
        if bucket != rule_id:
            mapping[key] = {bucket: None, rule_id: None}
    else:
        bucket[rule_id] = None


def _discard(
    index: dict[Any, Any], keys: Sequence[Any], rule_id: int
) -> None:
    """Remove ``rule_id`` from the bucket (or, for ``ne``, the rule →
    constant map) at ``index[keys[0]][…]``, deleting every level the
    removal empties (no-op when absent)."""
    head, *rest = keys
    inner = index.get(head)
    if inner is None:
        return
    if rest:
        _discard(inner, rest, rule_id)
    elif type(inner) is int:
        if inner == rule_id:
            del index[head]
        return
    else:
        inner.pop(rule_id, None)
    if not inner:
        del index[head]


def _entries_of(record: _Entry | tuple[_Entry, ...]) -> tuple[_Entry, ...]:
    """A rule's index entries: a rule with one entry stores that entry
    itself (its first item is an ``_idx_*`` map), a rule with several a
    tuple of them."""
    return (record,) if isinstance(record[0], dict) else record


class CountingMatcher:
    """The compiled predicate index plus its maintenance."""

    def __init__(self, metrics: MetricsRegistry | None = None):
        self.metrics = metrics if metrics is not None else default_registry()
        # Reentrant: refresh() holds the lock across its helper calls
        # and every mutating helper takes it again lexically — the
        # MDV066 lint checks each `self._idx_*` mutation sits inside a
        # `with self._lock:` block, so a match on another caller's
        # thread can never read a torn index.
        self._lock = threading.RLock()
        #: Registry mutation version the index was built at.
        self.rules_version: int | None = None
        self._idx_class: dict[str, _Bucket] = {}
        self._idx_eq: dict[tuple[str, str], dict[str, _Bucket]] = {}
        self._idx_ne: dict[tuple[str, str], dict[int, str]] = {}
        self._idx_rng: dict[tuple[str, str, str], _RangeIndex] = {}
        self._idx_con: dict[
            tuple[str, str], dict[int, dict[str, _Bucket]]
        ] = {}
        #: rule → its entry, or a tuple of its entries, for drops/re-syncs.
        self._idx_entries: dict[int, _Entry | tuple[_Entry, ...]] = {}
        #: The one key tuple, of interned strings, every entry on the
        #: same ``(class, property)`` or ``(op, class, property)`` shares.
        self._idx_keys: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._m_rebuilds = self.metrics.counter("counting.rebuilds")
        self._m_incremental = self.metrics.counter("counting.incremental")
        self._m_rules = self.metrics.gauge("counting.rules")
        self._m_batches = self.metrics.counter("counting.batches")
        self._m_rows = self.metrics.counter("counting.rows")
        self._m_hits = self.metrics.counter("counting.hits")
        self._m_lookups = self.metrics.counter("counting.contains_lookups")
        self._m_match_ms = self.metrics.histogram("counting.match_ms")

    @property
    def rule_count(self) -> int:
        """Triggering rules currently indexed."""
        return len(self._idx_entries)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def refresh(
        self,
        db: Database,
        version: int,
        log: Iterable[RuleMutation] = (),
    ) -> bool:
        """Bring the index up to registry ``version``.

        When the mutation log covers the gap since the version the index
        was built at, only the touched rules are re-synced from ``db``;
        otherwise (fresh matcher, log overflow) the index is rebuilt
        from the triggering tables.  Returns ``True`` when work was
        done.
        """
        with self._lock:
            if version == self.rules_version:
                return False
            if self.rules_version is not None:
                delta = [m for m in log if m.version > self.rules_version]
                covers = (
                    len(delta) == version - self.rules_version
                    and delta
                    and delta[0].version == self.rules_version + 1
                )
                if covers:
                    for mutation in delta:
                        self._resync_rule(db, mutation.rule_id)
                    self.rules_version = version
                    self._m_incremental.inc(len(delta))
                    self._m_rules.set(float(self.rule_count))
                    return True
            self._rebuild(db)
            self.rules_version = version
            self._m_rebuilds.inc()
            self._m_rules.set(float(self.rule_count))
            return True

    def _rebuild(self, db: Database) -> None:
        """Full rebuild from the triggering index tables."""
        with self._lock:
            self._idx_class.clear()
            self._idx_eq.clear()
            self._idx_ne.clear()
            self._idx_rng.clear()
            self._idx_con.clear()
            self._idx_entries.clear()
            self._idx_keys.clear()
        for row in db.query_all(
            "SELECT rule_id, class FROM filter_rules_class "
            "ORDER BY rule_id, class"
        ):
            self._add_class_entry(int(row[0]), str(row[1]))
        for operator, table in COMPARISON_TABLES.items():
            for row in db.query_all(
                f"SELECT rule_id, class, property, value FROM {table} "
                f"ORDER BY rule_id, class"
            ):
                self._add_op_entry(
                    int(row[0]), operator, str(row[1]), str(row[2]),
                    str(row[3]),
                )

    def _resync_rule(self, db: Database, rule_id: int) -> None:
        """Drop and reload one rule's entries from the store.

        Idempotent for every log entry kind: an insert loads the new
        rows, a delete finds none, and an entry whose transaction rolled
        back reloads exactly what was already there.
        """
        self._drop_rule(rule_id)
        for row in db.query_all(
            "SELECT class FROM filter_rules_class WHERE rule_id = ? "
            "ORDER BY class",
            (rule_id,),
        ):
            self._add_class_entry(rule_id, str(row[0]))
        for operator, table in COMPARISON_TABLES.items():
            for row in db.query_all(
                f"SELECT class, property, value FROM {table} "
                f"WHERE rule_id = ? ORDER BY class",
                (rule_id,),
            ):
                self._add_op_entry(
                    rule_id, operator, str(row[0]), str(row[1]), str(row[2])
                )

    def _shared_key(self, *parts: str) -> tuple[str, ...]:
        """The canonical key tuple for ``parts``."""
        key = tuple(map(sys.intern, parts))
        with self._lock:
            return self._idx_keys.setdefault(key, key)

    def _record_entry(self, rule_id: int, entry: _Entry) -> None:
        with self._lock:
            record = self._idx_entries.get(rule_id)
            if record is None:
                self._idx_entries[rule_id] = entry
            else:
                self._idx_entries[rule_id] = (*_entries_of(record), entry)

    def _add_class_entry(self, rule_id: int, cls: str) -> None:
        cls = sys.intern(cls)
        with self._lock:
            _bucket_add(self._idx_class, cls, rule_id)
            self._record_entry(rule_id, (self._idx_class, cls))

    def _add_op_entry(
        self, rule_id: int, operator: str, cls: str, prop: str, value: str
    ) -> None:
        entry: _Entry
        with self._lock:
            if operator in ("<", "<=", ">", ">="):
                key = self._shared_key(operator, cls, prop)
                bound = sqlite_cast_real(value)
                self._idx_rng.setdefault(key, _RangeIndex()).add(
                    bound, rule_id
                )
                self._record_entry(rule_id, (self._idx_rng, key, bound))
                return
            key = self._shared_key(cls, prop)
            if operator == "=":
                _bucket_add(self._idx_eq.setdefault(key, {}), value, rule_id)
                entry = (self._idx_eq, key, value)
            elif operator == "!=":
                self._idx_ne.setdefault(key, {})[rule_id] = value
                entry = (self._idx_ne, key)
            else:  # contains
                _bucket_add(
                    self._idx_con.setdefault(key, {}).setdefault(
                        len(value), {}
                    ),
                    value,
                    rule_id,
                )
                entry = (self._idx_con, key, len(value), value)
            self._record_entry(rule_id, entry)

    def _drop_rule(self, rule_id: int) -> None:
        """Remove every index entry of one rule (no-op when the rule
        was never indexed)."""
        with self._lock:
            record = self._idx_entries.pop(rule_id, None)
            if record is None:
                return
            for index, *keys in _entries_of(record):
                if index is not self._idx_rng:
                    _discard(index, keys, rule_id)
                    continue
                key, bound = keys
                rng = self._idx_rng.get(key)
                if rng is not None:
                    rng.remove(bound, rule_id)
                    if not rng.bounds:
                        del self._idx_rng[key]

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match(self, rows: Sequence[AtomRow]) -> list[Hit]:
        """Match one batch of input atoms against the index.

        Returns deduplicated ``(uri_reference, rule_id)`` hits — exactly
        the pairs the SQL triggering joins produce for the same input.
        """
        self._m_batches.inc()
        self._m_rows.inc(len(rows))
        started = time.perf_counter()
        hits: dict[Hit, None] = {}
        lookups = 0
        with self._lock:
            for uri, cls, prop, value in rows:
                for rule_id in self._probe(cls, prop, value):
                    hits[(uri, rule_id)] = None
                by_length = self._idx_con.get((cls, prop))
                if not by_length:
                    continue
                for length, needles in by_length.items():
                    starts = range(len(value) - length + 1)
                    lookups += len(starts)
                    for at in starts:
                        bucket = needles.get(value[at : at + length])
                        if bucket is None:
                            continue
                        if type(bucket) is int:
                            hits[(uri, bucket)] = None
                        else:
                            for rule_id in bucket:
                                hits[(uri, rule_id)] = None
        self._m_match_ms.observe((time.perf_counter() - started) * 1000.0)
        self._m_lookups.inc(lookups)
        self._m_hits.inc(len(hits))
        return list(hits)

    # The benchmark's traced pass wraps both names
    # (benchmarks/e2e/adapter.py::WRAP_POINTS) and reports the layer as
    # null when either stops resolving; the alias goes when a benchmark
    # PR drops the spare wrap point.
    dispatch = match

    def _probe(self, cls: str, prop: str, value: str) -> Iterator[int]:
        """Rules whose class, eq, ne or range predicate one atom
        satisfies (:meth:`match` probes the contains dictionary).

        Yields may repeat a rule (several extension-class entries);
        :meth:`match` deduplicates.
        """
        if prop == RDF_SUBJECT:
            class_bucket = self._idx_class.get(cls)
            if type(class_bucket) is int:
                yield class_bucket
            elif class_bucket:
                yield from class_bucket
        key = (cls, prop)
        by_value = self._idx_eq.get(key)
        if by_value:
            exact = by_value.get(value)
            if type(exact) is int:
                yield exact
            elif exact:
                yield from exact
        ne = self._idx_ne.get(key)
        if ne:
            for rule_id, constant in ne.items():
                if constant != value:
                    yield rule_id
        numeric: float | None = None
        for operator in ("<", "<=", ">", ">="):
            rng = self._idx_rng.get((operator, cls, prop))
            if rng is not None:
                if numeric is None:
                    numeric = sqlite_cast_real(value)
                yield from rng.matches(operator, numeric)
