"""Audits of persisted filter state and of the package source.

Two analyzers, both reporting structured
:class:`~repro.analysis.diagnostics.Diagnostic` findings instead of
raising on the first problem:

- :mod:`repro.analysis.invariants` — storage, dependency-graph,
  document-store and taxonomy-closure invariant auditing of an MDP
  database (``MDV03x``, ``MDV04x``, ``MDV071``);
- :mod:`repro.analysis.code` — AST lint pack over the package source
  for concurrency/determinism hygiene (``MDV06x``).

``python -m repro.analysis`` exposes both from the command line.  A
rule is checked by compiling it (normalize, decompose, register), so
subscribing never runs an analyzer, and no tier imports this package
except the differential harness (``repro.workload.differential``),
which audits with ``invariants``.
"""

from __future__ import annotations

from repro.analysis.code import lint_file, lint_paths
from repro.analysis.diagnostics import (
    CODES,
    AnalysisReport,
    Diagnostic,
    Severity,
)
from repro.analysis.invariants import audit_database

__all__ = [
    "AnalysisReport",
    "CODES",
    "Diagnostic",
    "Severity",
    "audit_database",
    "lint_file",
    "lint_paths",
]
