"""Command-line entry point: ``python -m repro.analysis <command>``.

Commands:

- ``audit --db PATH`` — audit a live MDP database for what the crash
  oracle checks after every crash: storage/graph invariants
  (``MDV03x``), the document store (``MDV04x``) and the taxonomy
  closure (``MDV071``).  Start-up never runs it; an operator does,
  e.g. after an unclean shutdown.
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

from repro.storage.engine import Database

from repro.analysis.code import lint_paths
from repro.analysis.diagnostics import CODES, EXIT_ERRORS, AnalysisReport
from repro.analysis.invariants import audit_database

__all__ = ["main"]


def _open_database(path: str) -> Database:
    if not Path(path).exists():
        raise FileNotFoundError(f"no such database: {path}")
    return Database(path)


def run_audit(db_path: str, fmt: str = "text") -> int:
    """Audit one MDP database; print findings."""
    try:
        db = _open_database(db_path)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERRORS
    report = audit_database(db)
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
    except (OSError, SyntaxError) as exc:
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
        description="Audit MDP stores and lint the package source.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    audit_parser = subparsers.add_parser(
        "audit", help="audit an MDP database (graph, document store, taxonomy)"
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
    if args.command == "audit":
        return run_audit(args.db, args.format)
    if args.command == "code":
        return run_code(args.paths, args.root, args.format)
    return run_codes(args.format)


if __name__ == "__main__":
    sys.exit(main())
