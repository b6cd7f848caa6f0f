"""Structured diagnostics emitted by the store audit and the lint pack.

Every finding of the analyzers — storage auditor and source lint pack
alike — is a :class:`Diagnostic`: a severity, a stable ``MDV0xx`` code,
an optional ``(start, end)`` span, a human-readable message and an
optional fix hint.  Codes are stable API (documented in
``docs/RULE_ANALYSIS.md``); messages are not.

Code blocks:

- ``MDV03x`` — storage/graph invariant violations found by the auditor;
- ``MDV04x`` — document-store violations found by the auditor;
- ``MDV06x`` — source-code lint pack (connection affinity, wall-clock
  discipline, instrumentation and durability hygiene);
- ``MDV07x`` — semantic-tier findings: a cyclic taxonomy or a stored
  closure that disagrees with its edges (the auditor and the
  vocabulary store), a non-invertible or type-mismatched mapping
  function (raised by the vocabulary store at registration).
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

#: CLI exit-code semantics.
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
    # -- document store of record (MDV04x) -----------------------------
    "MDV040": "resources row and rdf#subject atom disagree (a resource "
    "without its subject atom, or a stored subject without a document)",
    # -- source-code lint pack (MDV06x) --------------------------------
    "MDV060": "raw sqlite3.connect outside the storage engine",
    "MDV061": "thread-affinity hazard (check_same_thread=False or "
    "thread/executor creation outside the concurrency allowlist)",
    "MDV062": "wall-clock call outside the clock abstraction",
    "MDV063": "registered hot path lacks obs instrumentation",
    "MDV065": "raw commit or multi-table mutation outside a "
    "transaction() block in the durability scope",
    "MDV066": "counting-index mutation outside a `with self._lock:` "
    "block in the lock scope",
    # -- semantic matching tier (MDV07x) -------------------------------
    "MDV071": "taxonomy edge would create a cycle (or a self-edge), or "
    "the stored closure disagrees with the edges",
    "MDV072": "mapping function is not invertible (zero scale or "
    "duplicate enum source values)",
    "MDV073": "mapping function is type-mismatched for its properties",
}


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One analyzer finding.

    ``span`` is a ``(start, end)`` character range into the analyzed
    source file (``None`` for database-level findings); ``hint``
    suggests a fix; ``source`` names what was analyzed (a file, a
    table, …).
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
