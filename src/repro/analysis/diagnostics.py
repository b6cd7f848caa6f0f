"""Structured diagnostics emitted by the subscription-rule analyzer.

Every finding of the static analyzer — linter, subsumption checker and
storage auditor alike — is a :class:`Diagnostic`: a severity, a stable
``MDV0xx`` code, an optional character span into the analyzed rule text,
a human-readable message and an optional fix hint.  Codes are stable API
(documented in ``docs/RULE_ANALYSIS.md``); messages are not.

Code blocks:

- ``MDV00x`` — schema and typing errors found by the linter;
- ``MDV01x`` — satisfiability findings (contradictions, redundancies);
- ``MDV02x`` — subsumption/duplication against the live registry;
- ``MDV03x`` — storage/graph invariant violations found by the auditor;
- ``MDV05x`` — whole-registry rule-base findings (equivalence classes,
  shadowing/covering, dead rules, index-advisor recommendations);
- ``MDV06x`` — source-code lint pack (connection affinity, wall-clock
  discipline, instrumentation and export hygiene);
- ``MDV07x`` — semantic-tier findings (unknown concepts, cyclic
  taxonomy edges, invalid mapping functions, expansion fan-out).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import IntEnum

__all__ = [
    "Severity",
    "Diagnostic",
    "AnalysisReport",
    "CODES",
    "EXIT_CLEAN",
    "EXIT_WARNINGS",
    "EXIT_ERRORS",
]

#: CLI exit-code semantics (also used by the registration policies).
EXIT_CLEAN = 0
EXIT_WARNINGS = 1
EXIT_ERRORS = 2


class Severity(IntEnum):
    """Diagnostic severity; higher values are more severe."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


#: Stable diagnostic codes with their one-line meaning.  The dict is the
#: single source of truth: the CLI ``codes`` command prints it and the
#: docs are generated from the same wording.
CODES: dict[str, str] = {
    # -- linter: syntax / schema / typing (MDV00x) ---------------------
    "MDV001": "rule text could not be parsed",
    "MDV002": "unknown class or extension name in the search clause",
    "MDV003": "unknown property in a path expression",
    "MDV004": "invalid use of the any operator '?'",
    "MDV005": "set-valued property compared without the any operator '?'",
    "MDV006": "operator/type mismatch between property and constant",
    "MDV007": "malformed predicate (constants, paths or operator misuse)",
    "MDV008": "variable not join-connected to the register variable",
    # -- linter: satisfiability (MDV01x) -------------------------------
    "MDV010": "conjunct can never be satisfied (contradictory predicates)",
    "MDV011": "predicate is implied by the rest of its conjunct (always true)",
    # -- subsumption against the registry (MDV02x) ---------------------
    "MDV020": "rule duplicates an already registered subscription",
    "MDV021": "rule is subsumed by a more general registered subscription",
    "MDV022": "rule subsumes (is more general than) a registered subscription",
    # -- storage / graph invariants (MDV03x) ---------------------------
    "MDV030": "dependency graph contains a cycle",
    "MDV031": "atom refcount disagrees with its subscription references",
    "MDV032": "orphaned triggering-index row (no owning atomic rule)",
    "MDV033": "triggering atom has no triggering-index rows",
    "MDV034": "rule group signature disagrees with its stored attributes",
    "MDV035": "join atom's dependency edges disagree with its input columns",
    "MDV036": "dangling reference to a missing atomic rule",
    "MDV037": "iteration-depth bound disagrees between edges and inputs",
    "MDV038": "orphaned materialized-result row (no owning atomic rule)",
    # -- linter: performance hints (MDV039) ----------------------------
    "MDV039": "contains needle shorter than a trigram has no trigram "
    "postings (brute-forced per bucket by the counting matcher)",
    # -- whole-registry rule-base audit (MDV05x) -----------------------
    "MDV050": "multiple subscriptions share one triggering entry "
    "(duplicate rule registrations)",
    "MDV051": "registered rules are semantically equivalent "
    "(same canonical form, different spelling)",
    "MDV052": "registered rule is shadowed by a more general registered "
    "rule (covering edge)",
    "MDV053": "registered rule is unsatisfiable (dead triggering entry)",
    "MDV054": "index-advisor recommendation for an engine knob",
    # -- source-code lint pack (MDV06x) --------------------------------
    "MDV060": "raw sqlite3.connect outside the storage engine",
    "MDV061": "thread-affinity hazard (check_same_thread=False or "
    "thread/executor creation outside the concurrency allowlist)",
    "MDV062": "wall-clock call outside the clock abstraction",
    "MDV063": "registered hot path lacks obs instrumentation",
    "MDV064": "module lacks __all__ or exports an undefined name",
    "MDV065": "raw commit or multi-table mutation outside a "
    "transaction() block in the durability scope",
    "MDV066": "counting-index mutation outside a `with self._lock:` "
    "block in the lock scope",
    # -- semantic matching tier (MDV07x) -------------------------------
    "MDV070": "semantic construct references an unknown concept "
    "(property, class or value never seen by the schema or registry)",
    "MDV071": "taxonomy edge would create a cycle (or a self-edge)",
    "MDV072": "mapping function is not invertible (zero scale or "
    "duplicate enum source values)",
    "MDV073": "mapping function is type-mismatched for its properties",
    "MDV074": "mapped atom is unsatisfiable (no publishable source "
    "value can reach the subscribed constant)",
    "MDV075": "semantic expansion pushes the rule base past the "
    "counting-matcher threshold (advisor recommendation)",
}


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One analyzer finding.

    ``span`` is a ``(start, end)`` character range into the analyzed rule
    text (``None`` for database-level findings); ``hint`` suggests a fix;
    ``source`` names what was analyzed (a rule text, a table, …).
    """

    severity: Severity
    code: str
    message: str
    span: tuple[int, int] | None = None
    hint: str | None = None
    source: str | None = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def render(self) -> str:
        """One-line human-readable rendering."""
        where = ""
        if self.span is not None:
            where = f" at {self.span[0]}..{self.span[1]}"
        text = f"{self.severity}[{self.code}]{where}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> dict[str, object]:
        """A JSON-serializable rendering (``--format json``)."""
        return {
            "severity": str(self.severity),
            "code": self.code,
            "message": self.message,
            "span": list(self.span) if self.span is not None else None,
            "hint": self.hint,
            "source": self.source,
        }

    def __str__(self) -> str:
        return self.render()


@dataclass
class AnalysisReport:
    """The collected diagnostics of one analyzer run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(
        self,
        severity: Severity,
        code: str,
        message: str,
        span: tuple[int, int] | None = None,
        hint: str | None = None,
        source: str | None = None,
    ) -> Diagnostic:
        diagnostic = Diagnostic(severity, code, message, span, hint, source)
        self.diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, other: "AnalysisReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    @property
    def has_warnings(self) -> bool:
        return any(d.severity is Severity.WARNING for d in self.diagnostics)

    @property
    def is_clean(self) -> bool:
        return not self.diagnostics

    def exit_code(self) -> int:
        """CLI semantics: 0 clean, 1 warnings only, 2 any error."""
        if self.has_errors:
            return EXIT_ERRORS
        if self.has_warnings:
            return EXIT_WARNINGS
        return EXIT_CLEAN

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def render(self) -> str:
        if not self.diagnostics:
            return "no findings"
        return "\n".join(d.render() for d in self.diagnostics)

    def to_dict(self) -> dict[str, object]:
        """A JSON-serializable rendering (``--format json``)."""
        return {
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "summary": {
                "errors": len(self.errors()),
                "warnings": len(self.warnings()),
                "total": len(self.diagnostics),
            },
            "exit_code": self.exit_code(),
        }

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)
