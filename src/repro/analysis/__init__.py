"""Static analysis for subscription rules and persisted filter state.

Five analyzers over the rule pipeline and its source tree, all
reporting structured :class:`~repro.analysis.diagnostics.Diagnostic`
findings instead of raising on the first problem:

- :mod:`repro.analysis.lint` — schema, typing and satisfiability checks
  on the parsed rule AST (``MDV00x``/``MDV01x``);
- :mod:`repro.analysis.subsume` — duplication and subsumption of a
  candidate rule against the live registry (``MDV02x``);
- :mod:`repro.analysis.invariants` — storage, dependency-graph and
  document-store invariant auditing of an MDP database (``MDV03x``,
  ``MDV04x``);
- :mod:`repro.analysis.code` — AST lint pack over the package source
  for concurrency/determinism hygiene (``MDV06x``);
- :mod:`repro.analysis.semantics` — post-hoc auditor for the semantic
  vocabulary store (``MDV07x``).

``python -m repro.analysis`` exposes all five from the command line
and is the analyzer's only entry point: ``lint --db PATH`` lints a rule
and then checks it for subsumption against a live store.  Subscribing
never runs an analyzer, and no tier imports this package except the
differential harness (``repro.workload.differential``), which audits
with ``invariants``.
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
from repro.analysis.lint import lint_rule, lint_rule_text
from repro.analysis.semantics import audit_vocabulary
from repro.analysis.subsume import check_subsumption

__all__ = [
    "AnalysisReport",
    "CODES",
    "Diagnostic",
    "Severity",
    "audit_database",
    "audit_vocabulary",
    "check_subsumption",
    "lint_file",
    "lint_paths",
    "lint_rule",
    "lint_rule_text",
]
