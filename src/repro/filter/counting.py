"""In-memory counting matcher for the triggering stage.

``triggering="counting"`` replaces the paper's SQL triggering joins with
the classic publish/subscribe *counting algorithm* (Yan & Garcia-Molina;
the same skeleton Gryphon, Le Subscribe and SIENA's predicate indexes
use): one compiled index per ``(class, property, operator)`` over the
registered triggering predicates, probed once per input atom, plus a
per-rule satisfied-conjunct counter that fires the rule when every
conjunct of its predicate has been seen.

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
- **contains** — trigram postings ``trigram → rules`` over the needles
  (tokenized by :mod:`repro.text.ngrams`), candidates where the *entire*
  needle-trigram set was found, verified with the canonical substring
  check.  Needles shorter than a trigram sit in a per-bucket list and
  are brute-forced, so the two paths partition the rules exactly.

**Counter protocol.**  Matching a batch keeps a per-``(resource, rule)``
counter and a satisfied-conjunct set; an index hit increments the
counter once per distinct conjunct and the rule fires when the counter
reaches the rule's conjunct count.  In this system a triggering atom is
a *single* predicate (conjunctions become join rules in the dependency
graph, evaluated by the shared closure) and extension classes are OR'd
(one index entry per class), so every rule's conjunct count is 1 — the
protocol is kept in its general form for fidelity to the algorithm and
for the day decomposition inlines conjunctions.

**Memory model.**  All index state lives in ``_idx_*`` attributes and
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
log overflow, crash recovery).  Re-syncing — drop then reload from the
store — is idempotent and rollback-proof: a log entry whose transaction
never committed simply reloads the unchanged rows.

Instruments: ``counting.rebuilds``, ``counting.incremental`` (log
entries applied), ``counting.rules`` (gauge), ``counting.batches``,
``counting.rows``, ``counting.hits``, ``counting.candidates`` /
``counting.false_positives`` (contains verification) and the per-batch
latency histogram ``counting.match_ms``.
"""

from __future__ import annotations

import re
import threading
import time
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry, default_registry
from repro.rdf.namespaces import RDF_SUBJECT
from repro.storage.engine import Database
from repro.storage.schema import COMPARISON_TABLES
from repro.storage.tables import AtomRow
from repro.text.ngrams import contains_match, is_indexable, trigrams

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


class _ContainsBucket:
    """Per ``(class, property)`` contains rules: postings + short list."""

    __slots__ = ("postings", "needles", "short")

    def __init__(self) -> None:
        #: trigram → rules whose needle contains it (insertion-ordered
        #: dict as a set, for O(1) removal).
        self.postings: dict[str, dict[int, None]] = {}
        #: rule → (needle, distinct trigram count) for indexable needles.
        self.needles: dict[int, tuple[str, int]] = {}
        #: rule → needle for sub-trigram needles (brute-forced per
        #: bucket: they have no trigram to post).
        self.short: dict[int, str] = {}

    @property
    def empty(self) -> bool:
        return not self.needles and not self.short


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
        self._idx_class: dict[str, dict[int, None]] = {}
        self._idx_eq: dict[tuple[str, str], dict[str, dict[int, None]]] = {}
        self._idx_ne: dict[tuple[str, str], dict[int, str]] = {}
        self._idx_rng: dict[tuple[str, str, str], _RangeIndex] = {}
        self._idx_con: dict[tuple[str, str], _ContainsBucket] = {}
        #: rule → reverse list of index entries, for drops/re-syncs.
        self._idx_entries: dict[int, list[tuple[str, ...]]] = {}
        #: rule → conjuncts required to fire (see the module docstring:
        #: always 1 today, the protocol is kept general).
        self._idx_needed: dict[int, int] = {}
        self._m_rebuilds = self.metrics.counter("counting.rebuilds")
        self._m_incremental = self.metrics.counter("counting.incremental")
        self._m_rules = self.metrics.gauge("counting.rules")
        self._m_batches = self.metrics.counter("counting.batches")
        self._m_rows = self.metrics.counter("counting.rows")
        self._m_hits = self.metrics.counter("counting.hits")
        self._m_candidates = self.metrics.counter("counting.candidates")
        self._m_false = self.metrics.counter("counting.false_positives")
        self._m_match_ms = self.metrics.histogram("counting.match_ms")

    @property
    def rule_count(self) -> int:
        """Triggering rules currently indexed."""
        return len(self._idx_needed)

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
            self._idx_needed.clear()
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

    def _register(self, rule_id: int, entry: tuple[str, ...]) -> None:
        with self._lock:
            self._idx_entries.setdefault(rule_id, []).append(entry)
            # Every entry of a rule belongs to its single conjunct
            # (extension classes are OR'd); the conjunct count is 1
            # either way.
            self._idx_needed[rule_id] = 1

    def _add_class_entry(self, rule_id: int, cls: str) -> None:
        with self._lock:
            self._idx_class.setdefault(cls, {})[rule_id] = None
        self._register(rule_id, ("class", cls))

    def _add_op_entry(
        self, rule_id: int, operator: str, cls: str, prop: str, value: str
    ) -> None:
        key = (cls, prop)
        entry: tuple[str, ...]
        with self._lock:
            if operator == "=":
                self._idx_eq.setdefault(key, {}).setdefault(value, {})[
                    rule_id
                ] = None
                entry = ("eq", cls, prop, value)
            elif operator == "!=":
                self._idx_ne.setdefault(key, {})[rule_id] = value
                entry = ("ne", cls, prop)
            elif operator == "contains":
                bucket = self._idx_con.setdefault(key, _ContainsBucket())
                if is_indexable(value):
                    grams = trigrams(value)
                    bucket.needles[rule_id] = (value, len(grams))
                    for gram in sorted(grams):
                        bucket.postings.setdefault(gram, {})[rule_id] = None
                else:
                    bucket.short[rule_id] = value
                entry = ("con", cls, prop)
            else:  # <, <=, >, >=
                bound = sqlite_cast_real(value)
                self._idx_rng.setdefault(
                    (operator, cls, prop), _RangeIndex()
                ).add(bound, rule_id)
                entry = ("rng", operator, cls, prop, repr(bound))
        self._register(rule_id, entry)

    def _drop_rule(self, rule_id: int) -> None:
        """Remove every index entry of one rule (no-op when the rule
        was never indexed)."""
        with self._lock:
            entries = self._idx_entries.pop(rule_id, None)
            if entries is None:
                return
            self._idx_needed.pop(rule_id, None)
            for entry in entries:
                kind = entry[0]
                if kind == "class":
                    bucket = self._idx_class.get(entry[1])
                    if bucket is not None:
                        bucket.pop(rule_id, None)
                        if not bucket:
                            del self._idx_class[entry[1]]
                elif kind == "eq":
                    __, cls, prop, value = entry
                    by_value = self._idx_eq.get((cls, prop))
                    if by_value is not None:
                        rules = by_value.get(value)
                        if rules is not None:
                            rules.pop(rule_id, None)
                            if not rules:
                                del by_value[value]
                        if not by_value:
                            del self._idx_eq[(cls, prop)]
                elif kind == "ne":
                    ne = self._idx_ne.get((entry[1], entry[2]))
                    if ne is not None:
                        ne.pop(rule_id, None)
                        if not ne:
                            del self._idx_ne[(entry[1], entry[2])]
                elif kind == "rng":
                    __, operator, cls, prop, bound_repr = entry
                    rng = self._idx_rng.get((operator, cls, prop))
                    if rng is not None:
                        rng.remove(float(bound_repr), rule_id)
                        if not rng.bounds:
                            del self._idx_rng[(operator, cls, prop)]
                else:  # con
                    con = self._idx_con.get((entry[1], entry[2]))
                    if con is not None:
                        needle = con.needles.pop(rule_id, None)
                        con.short.pop(rule_id, None)
                        if needle is not None:
                            for gram in trigrams(needle[0]):
                                post = con.postings.get(gram)
                                if post is not None:
                                    post.pop(rule_id, None)
                                    if not post:
                                        del con.postings[gram]
                        if con.empty:
                            del self._idx_con[(entry[1], entry[2])]

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
        counts: dict[Hit, int] = {}
        satisfied: set[tuple[str, int, int]] = set()
        with self._lock:
            for uri, cls, prop, value in rows:
                for rule_id in self._probe(cls, prop, value):
                    conjunct_key = (uri, rule_id, 0)
                    if conjunct_key in satisfied:
                        continue
                    satisfied.add(conjunct_key)
                    pair = (uri, rule_id)
                    count = counts.get(pair, 0) + 1
                    counts[pair] = count
                    if count >= self._idx_needed[rule_id]:
                        hits[pair] = None
        self._m_match_ms.observe((time.perf_counter() - started) * 1000.0)
        self._m_hits.inc(len(hits))
        return list(hits)

    # The benchmark's traced pass wraps both names
    # (benchmarks/e2e/adapter.py::WRAP_POINTS) and reports the layer as
    # null when either stops resolving; the alias goes when a benchmark
    # PR drops the spare wrap point.
    dispatch = match

    def _probe(self, cls: str, prop: str, value: str) -> Iterator[int]:
        """Rules whose triggering predicate one atom satisfies.

        Yields may repeat a rule (several extension-class entries); the
        counter protocol in :meth:`match` deduplicates per conjunct.
        """
        if prop == RDF_SUBJECT:
            class_bucket = self._idx_class.get(cls)
            if class_bucket:
                yield from class_bucket
        key = (cls, prop)
        by_value = self._idx_eq.get(key)
        if by_value:
            exact = by_value.get(value)
            if exact:
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
        con = self._idx_con.get(key)
        if con is not None:
            yield from self._probe_contains(con, value)

    def _probe_contains(
        self, bucket: _ContainsBucket, value: str
    ) -> Iterator[int]:
        if bucket.needles:
            grams = trigrams(value)
            if grams:
                matched: dict[int, int] = {}
                for gram in grams:
                    post = bucket.postings.get(gram)
                    if post:
                        for rule_id in post:
                            matched[rule_id] = matched.get(rule_id, 0) + 1
                for rule_id, count in matched.items():
                    needle, needed = bucket.needles[rule_id]
                    if count == needed:
                        self._m_candidates.inc()
                        if contains_match(value, needle):
                            yield rule_id
                        else:
                            self._m_false.inc()
        for rule_id, needle in bucket.short.items():
            if contains_match(value, needle):
                yield rule_id
