"""Command-line entry point: ``python -m repro.analysis <command>``.

Commands:

- ``lint [FILE ...] [--rule TEXT] [--db PATH]`` — lint subscription
  rules.  Rule files hold one rule per paragraph (blank-line separated;
  ``#`` starts a comment line).  With ``--db`` the rules are also
  checked for duplication/subsumption against the registry stored in
  that MDP database.
- ``audit --db PATH`` — audit a live MDP database for what the crash
  oracle checks after every crash: storage/graph invariants
  (``MDV03x``), the document store (``MDV04x``) and the semantic
  vocabulary audit (``MDV07x``).  Start-up
  never runs it; an operator does, e.g. after an unclean shutdown.
- ``code [PATH ...] [--root DIR]`` — run the source-code lint pack
  (``MDV06x``) over Python files; defaults to the installed ``repro``
  package tree.
- ``codes`` — list every diagnostic code with its meaning.

Every command takes ``--format text|json``; ``json`` prints one
machine-readable object on stdout (used by the CI lint-pack job).

Exit status: 0 when clean (infos allowed), 1 when warnings were found,
2 on any error (including unreadable inputs).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import MDVError
from repro.rdf.schema import Schema, objectglobe_schema
from repro.rules.registry import RuleRegistry
from repro.storage.engine import Database

from repro.analysis.code import lint_paths
from repro.analysis.diagnostics import CODES, EXIT_ERRORS, AnalysisReport
from repro.analysis.invariants import audit_database
from repro.analysis.lint import lint_rule_text
from repro.analysis.semantics import audit_vocabulary
from repro.analysis.subsume import check_subsumption

__all__ = ["main"]


def _parse_rule_file(text: str) -> list[str]:
    """Split a rule file into rules: paragraphs, ``#`` comments dropped."""
    rules: list[str] = []
    paragraph: list[str] = []
    for line in [*text.splitlines(), ""]:
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if not stripped:
            if paragraph:
                rules.append(" ".join(paragraph))
                paragraph = []
            continue
        paragraph.append(stripped)
    return rules


def _open_database(path: str) -> Database:
    if not Path(path).exists():
        raise FileNotFoundError(f"no such database: {path}")
    return Database(path)


def _provider_schema(db: Database) -> Schema:
    """The schema to lint against.

    MDP databases do not persist their schema, so the CLI falls back to
    the paper's ObjectGlobe example schema — the one every bundled
    scenario and benchmark uses.
    """
    return objectglobe_schema()


def run_lint(
    files: list[str],
    rule: str | None,
    db_path: str | None,
    fmt: str = "text",
) -> int:
    """Lint rules from files and/or ``--rule``; print findings."""
    sources: list[tuple[str, str]] = []
    for file_name in files:
        try:
            text = Path(file_name).read_text()
        except OSError as exc:
            print(f"error: cannot read {file_name}: {exc}", file=sys.stderr)
            return EXIT_ERRORS
        for index, rule_text in enumerate(_parse_rule_file(text), start=1):
            sources.append((f"{file_name}:{index}", rule_text))
    if rule is not None:
        sources.append(("--rule", rule))
    if not sources:
        print("error: nothing to lint (pass FILE or --rule)", file=sys.stderr)
        return EXIT_ERRORS

    db = None
    registry = None
    schema = objectglobe_schema()
    if db_path is not None:
        try:
            db = _open_database(db_path)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERRORS
        registry = RuleRegistry(db)
        schema = _provider_schema(db)

    total = AnalysisReport()
    inputs: list[dict[str, object]] = []
    for label, rule_text in sources:
        named_types = registry.named_rule_types() if registry else None
        report = lint_rule_text(rule_text, schema, named_types)
        if registry is not None and not report.has_errors:
            report.extend(_subsumption_report(rule_text, schema, registry))
        if fmt == "json":
            inputs.append(
                {"source": label, "rule": rule_text, **report.to_dict()}
            )
        else:
            _print_findings(label, rule_text, report)
        total.extend(report)
    if fmt == "json":
        print(json.dumps(
            {"inputs": inputs, **_summary_dict(total)}, indent=2
        ))
    else:
        _print_summary(total, len(sources))
    return total.exit_code()


def _subsumption_report(
    rule_text: str, schema: Schema, registry: RuleRegistry
) -> AnalysisReport:
    """Subsumption findings for one lint-clean rule, never raising."""
    from repro.rules.decompose import decompose_rule
    from repro.rules.normalize import normalize_rule
    from repro.rules.parser import parse_rule

    report = AnalysisReport()
    try:
        parsed = parse_rule(rule_text)
        conjuncts = normalize_rule(
            parsed, schema, registry.named_rule_types()
        )
        named_producers = registry.named_producers()
        for normalized in conjuncts:
            decomposed = decompose_rule(normalized, schema, named_producers)
            report.extend(
                check_subsumption(decomposed, registry, source=rule_text)
            )
    except MDVError:
        pass  # the linter already reported everything it models
    return report


def run_audit(db_path: str, fmt: str = "text") -> int:
    """Audit one MDP database; print findings."""
    try:
        db = _open_database(db_path)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERRORS
    schema = _provider_schema(db)
    report = audit_database(db)
    report.extend(audit_vocabulary(db, schema))
    if fmt == "json":
        print(json.dumps(
            {"database": db_path, **report.to_dict()}, indent=2
        ))
    else:
        for diagnostic in report:
            where = f" [{diagnostic.source}]" if diagnostic.source else ""
            print(f"{db_path}{where}: {diagnostic.render()}")
        _print_summary(report, 1)
    return report.exit_code()


def run_code(paths: list[str], root: str | None, fmt: str = "text") -> int:
    """Run the source-code lint pack (``MDV06x``) and print findings."""
    targets = [Path(p) for p in paths] or None
    try:
        report, files_checked = lint_paths(
            targets, root=Path(root) if root else None
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERRORS
    if fmt == "json":
        print(json.dumps(
            {"files_checked": files_checked, **report.to_dict()}, indent=2
        ))
    else:
        for diagnostic in report:
            where = f"{diagnostic.source}: " if diagnostic.source else ""
            print(f"{where}{diagnostic.render()}")
        _print_summary(report, files_checked)
    return report.exit_code()


def run_codes(fmt: str = "text") -> int:
    if fmt == "json":
        print(json.dumps(dict(sorted(CODES.items())), indent=2))
        return 0
    for code, meaning in sorted(CODES.items()):
        print(f"{code}  {meaning}")
    return 0


def _print_findings(
    label: str, rule_text: str, report: AnalysisReport
) -> None:
    for diagnostic in report:
        print(f"{label}: {diagnostic.render()}")
        if diagnostic.span is not None:
            start, end = diagnostic.span
            print(f"    {rule_text}")
            print(f"    {' ' * start}{'^' * max(end - start, 1)}")


def _summary_dict(report: AnalysisReport) -> dict[str, object]:
    payload = report.to_dict()
    return {"summary": payload["summary"], "exit_code": payload["exit_code"]}


def _print_summary(report: AnalysisReport, analyzed: int) -> None:
    errors = len(report.errors())
    warnings = len(report.warnings())
    infos = len(report.diagnostics) - errors - warnings
    parts = [f"{analyzed} input(s)"]
    for count, word in ((errors, "error"), (warnings, "warning"),
                        (infos, "info")):
        if count:
            parts.append(f"{count} {word}(s)")
    if not errors and not warnings:
        parts.append("clean")
    print(", ".join(parts))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis for subscription rules and MDP stores.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    lint_parser = subparsers.add_parser(
        "lint", help="lint subscription rules from files or --rule"
    )
    lint_parser.add_argument(
        "files", nargs="*", metavar="FILE",
        help="rule files (one rule per blank-line separated paragraph)",
    )
    lint_parser.add_argument(
        "--rule", help="lint a single rule given on the command line"
    )
    lint_parser.add_argument(
        "--db", help="also check duplication/subsumption against this "
        "MDP database",
    )
    audit_parser = subparsers.add_parser(
        "audit", help="audit an MDP database (invariants + vocabulary)"
    )
    audit_parser.add_argument(
        "--db", required=True, help="path to the MDP SQLite database"
    )
    code_parser = subparsers.add_parser(
        "code", help="run the MDV06x source-code lint pack"
    )
    code_parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the repro package)",
    )
    code_parser.add_argument(
        "--root", help="directory the relative source labels are "
        "computed against",
    )
    subparsers.add_parser("codes", help="list all diagnostic codes")
    for sub in subparsers.choices.values():
        sub.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output format (default: text)",
        )
    args = parser.parse_args(argv)
    if args.command == "lint":
        return run_lint(args.files, args.rule, args.db, args.format)
    if args.command == "audit":
        return run_audit(args.db, args.format)
    if args.command == "code":
        return run_code(args.paths, args.root, args.format)
    return run_codes(args.format)


if __name__ == "__main__":
    sys.exit(main())
