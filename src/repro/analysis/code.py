"""AST lint pack enforcing the repository's concurrency/determinism rules.

Invariants that would otherwise be enforced only by convention and code
review:

- **MDV060** — ``sqlite3.connect`` may only be called inside the storage
  engine (:mod:`repro.storage.engine`).  Raw connections bypass the
  statement/row accounting and the thread-affinity policy.
- **MDV061** — ``check_same_thread=False`` and thread/executor creation
  are restricted to the concurrency allowlist (the socket transport's
  loop thread; see docs/CONCURRENCY.md).  Nothing under ``repro/filter``
  is on it: the filter is single-threaded and this check proves it.
- **MDV062** — wall-clock reads (``time.time``, ``datetime.now``,
  ``datetime.utcnow``, ``date.today``) are banned outside clock-waived
  sites: simulated/replayed paths must be deterministic, and benchmarks
  must use the monotonic ``time.perf_counter``.  A line may carry an
  explicit waiver comment ``# mdv: allow(MDV062)``.
- **MDV063** — registered hot paths (:data:`HOT_PATHS`) must carry
  ``obs`` instrumentation: a function on the list has to touch a
  metrics/tracer handle (``self._m_*``, ``metrics``, ``tracer``)
  somewhere in its body, so filter cost stays attributable.
- **MDV064** — every module must declare ``__all__`` as a literal list
  or tuple of strings naming top-level definitions.
- **MDV065** — durability hygiene for the write path
  (:data:`DURABILITY_SCOPE`: ``repro/mdv``, ``repro/rules``): no raw
  ``.commit()`` calls (atomicity belongs to ``with db.transaction()``
  blocks, which compose through savepoints), and no function may mutate
  two or more distinct tables outside such a block — a crash between
  the statements would tear related state (docs/DURABILITY.md).  A line
  may carry ``# mdv: allow(MDV065)`` to waive a site that is provably
  crash-safe (e.g. single-row idempotent writes).
- **MDV066** — counting-matcher lock discipline (:data:`LOCK_SCOPE`):
  outside ``__init__``, every statement that mutates a ``self._idx_*``
  attribute (assignment, ``del``, or a call to a mutating container
  method) must sit lexically inside a ``with self._lock:`` block.  A
  provider may be called from several threads under a caller's lock,
  which then match against the same index; an unlocked mutation could
  expose a torn structure (docs/CONCURRENCY.md).
  A line may carry ``# mdv: allow(MDV066)``.

``python -m repro.analysis code`` runs the pack over ``src/repro`` (CI
wires it up with ``--format json``).  The checks are deliberately
syntactic — no imports are executed — so the pack runs on any tree.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.analysis.diagnostics import AnalysisReport, Severity

__all__ = [
    "lint_file",
    "lint_paths",
    "default_root",
    "HOT_PATHS",
    "CONNECT_ALLOWLIST",
    "CONCURRENCY_ALLOWLIST",
    "DURABILITY_SCOPE",
    "LOCK_SCOPE",
    "WAIVER_MARK",
]

#: Files (by ``/``-joined path suffix) allowed to call ``sqlite3.connect``.
CONNECT_ALLOWLIST = ("repro/storage/engine.py",)

#: Files allowed to create threads/executors or unbind thread affinity.
CONCURRENCY_ALLOWLIST = ("repro/net/socket.py",)

#: Files whose ``self._idx_*`` state gets the MDV066 lock-discipline
#: check.
LOCK_SCOPE = ("repro/filter/counting.py",)

#: Functions (file suffix, qualified name) that must reference an ``obs``
#: handle somewhere in their body.
HOT_PATHS: tuple[tuple[str, str], ...] = (
    ("repro/storage/engine.py", "Database.execute"),
    ("repro/filter/engine.py", "FilterEngine.run"),
    ("repro/filter/counting.py", "CountingMatcher.match"),
)

#: Path fragments whose files get the MDV065 durability checks.
DURABILITY_SCOPE = ("repro/mdv/", "repro/rules/")

#: Inline waiver comment; must name the code it waives.
WAIVER_MARK = "# mdv: allow("

#: Leading SQL of a statement that mutates a table.
_MUTATION_RE = re.compile(
    r"^\s*(?:INSERT(?:\s+OR\s+\w+)?\s+INTO|REPLACE\s+INTO|DELETE\s+FROM"
    r"|UPDATE)\s+([A-Za-z_][A-Za-z0-9_]*)?",
    re.IGNORECASE,
)

#: ``(module, attribute)`` calls that read the wall clock.
_WALL_CLOCK_TIME_ATTRS = frozenset({"time", "time_ns"})
_WALL_CLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

_THREAD_FACTORIES = frozenset(
    {"Thread", "ThreadPoolExecutor", "ProcessPoolExecutor", "Timer"}
)

_OBS_MARKERS = frozenset({"metrics", "tracer"})


def default_root() -> Path:
    """The ``repro`` package directory (self-locating for CI)."""
    import repro

    return Path(repro.__file__).resolve().parent


def _suffix_match(path: Path, suffixes: tuple[str, ...]) -> bool:
    normalized = path.as_posix()
    return any(normalized.endswith(suffix) for suffix in suffixes)


def _waived(source_lines: list[str], node: ast.AST, code: str) -> bool:
    lineno = getattr(node, "lineno", None)
    if lineno is None or lineno > len(source_lines):
        return False
    line = source_lines[lineno - 1]
    return f"{WAIVER_MARK}{code})" in line


def _span(source_lines: list[str], node: ast.AST) -> tuple[int, int] | None:
    lineno = getattr(node, "lineno", None)
    col = getattr(node, "col_offset", None)
    if lineno is None or col is None:
        return None
    offset = sum(len(line) + 1 for line in source_lines[: lineno - 1]) + col
    end_col = getattr(node, "end_col_offset", col + 1)
    end_lineno = getattr(node, "end_lineno", lineno)
    end_offset = (
        sum(len(line) + 1 for line in source_lines[: end_lineno - 1]) + end_col
    )
    return offset, end_offset


class _ImportOrigins(ast.NodeVisitor):
    """Map local names to ``module`` / ``module.attr`` import origins."""

    def __init__(self) -> None:
        self.origins: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.origins[alias.asname or alias.name.split(".")[0]] = (
                alias.name
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None:
            return
        for alias in node.names:
            self.origins[alias.asname or alias.name] = (
                f"{node.module}.{alias.name}"
            )


def _call_target(node: ast.Call, origins: dict[str, str]) -> str | None:
    """The dotted origin of a call, resolved through the import map."""
    func = node.func
    parts: list[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name):
        return None
    base = origins.get(func.id, func.id)
    parts.append(base)
    return ".".join(reversed(parts))


def lint_file(path: Path, relative_to: Path | None = None) -> AnalysisReport:
    """Run every MDV06x check over one Python source file."""
    report = AnalysisReport()
    source = path.read_text(encoding="utf-8")
    source_lines = source.splitlines()
    label = (
        path.relative_to(relative_to).as_posix()
        if relative_to is not None and path.is_relative_to(relative_to)
        else path.as_posix()
    )
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        report.add(
            Severity.ERROR,
            "MDV064",
            f"file does not parse: {exc.msg}",
            source=label,
        )
        return report

    origins_visitor = _ImportOrigins()
    origins_visitor.visit(tree)
    origins = origins_visitor.origins

    connect_ok = _suffix_match(path, CONNECT_ALLOWLIST)
    concurrency_ok = _suffix_match(path, CONCURRENCY_ALLOWLIST)
    durability_scoped = any(
        fragment in path.as_posix() for fragment in DURABILITY_SCOPE
    )

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            target = _call_target(node, origins)
            if target is not None:
                _check_call(
                    report, source_lines, label, node, target,
                    connect_ok, concurrency_ok,
                )
            if (
                durability_scoped
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "commit"
                and not node.args
                and not _waived(source_lines, node, "MDV065")
            ):
                report.add(
                    Severity.ERROR,
                    "MDV065",
                    "raw .commit() call in the durability scope; wrap "
                    "the writes in `with db.transaction()` so they "
                    "commit or vanish atomically",
                    span=_span(source_lines, node),
                    source=label,
                )
        if isinstance(node, ast.keyword):
            if (
                node.arg == "check_same_thread"
                and isinstance(node.value, ast.Constant)
                and node.value.value is False
                and not concurrency_ok
                and not _waived(source_lines, node.value, "MDV061")
            ):
                report.add(
                    Severity.ERROR,
                    "MDV061",
                    "check_same_thread=False unbinds sqlite thread "
                    "affinity outside the concurrency allowlist",
                    span=_span(source_lines, node.value),
                    source=label,
                )

    _check_hot_paths(report, tree, path, label)
    _check_exports(report, tree, label)
    if durability_scoped:
        _check_multi_table_mutations(report, tree, source_lines, label)
    if _suffix_match(path, LOCK_SCOPE):
        _check_lock_scope(report, tree, source_lines, label)
    return report


def _check_call(
    report: AnalysisReport,
    source_lines: list[str],
    label: str,
    node: ast.Call,
    target: str,
    connect_ok: bool,
    concurrency_ok: bool,
) -> None:
    parts = target.split(".")
    if target == "sqlite3.connect" and not connect_ok:
        if not _waived(source_lines, node, "MDV060"):
            report.add(
                Severity.ERROR,
                "MDV060",
                "raw sqlite3.connect bypasses the storage engine's "
                "accounting and affinity policy",
                span=_span(source_lines, node),
                hint="go through repro.storage.engine.Database",
                source=label,
            )
        return
    if len(parts) >= 2 and parts[0] == "time":
        if parts[-1] in _WALL_CLOCK_TIME_ATTRS:
            if not _waived(source_lines, node, "MDV062"):
                report.add(
                    Severity.ERROR,
                    "MDV062",
                    f"wall-clock call {target} breaks determinism; use "
                    "time.perf_counter for intervals",
                    span=_span(source_lines, node),
                    source=label,
                )
            return
    if parts[0] == "datetime" and parts[-1] in _WALL_CLOCK_DATETIME_ATTRS:
        if not _waived(source_lines, node, "MDV062"):
            report.add(
                Severity.ERROR,
                "MDV062",
                f"wall-clock call {target} breaks determinism",
                span=_span(source_lines, node),
                source=label,
            )
        return
    factory = parts[-1]
    if factory in _THREAD_FACTORIES and not concurrency_ok:
        origin = ".".join(parts[:-1])
        if origin in ("threading", "concurrent.futures") or target in (
            "threading.Thread",
            "threading.Timer",
            "concurrent.futures.ThreadPoolExecutor",
            "concurrent.futures.ProcessPoolExecutor",
        ):
            if not _waived(source_lines, node, "MDV061"):
                report.add(
                    Severity.ERROR,
                    "MDV061",
                    f"{factory} created outside the concurrency "
                    "allowlist (the socket transport owns all threads)",
                    span=_span(source_lines, node),
                    source=label,
                )


def _mutated_table(node: ast.Call) -> str | None:
    """The table an ``execute``/``executemany`` call mutates, if any.

    Dynamic SQL (f-strings) is matched on its leading literal part; an
    interpolated table name maps to a per-line sentinel so two dynamic
    mutations still count as distinct tables.
    """
    if not (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in ("execute", "executemany")
        and node.args
    ):
        return None
    sql_node = node.args[0]
    if isinstance(sql_node, ast.Constant) and isinstance(sql_node.value, str):
        sql = sql_node.value
    elif isinstance(sql_node, ast.JoinedStr):
        first = sql_node.values[0] if sql_node.values else None
        if not (
            isinstance(first, ast.Constant) and isinstance(first.value, str)
        ):
            return None
        sql = first.value
    else:
        return None
    match = _MUTATION_RE.match(sql)
    if match is None:
        return None
    return match.group(1) or f"<dynamic:{node.lineno}>"


class _MutationScanner(ast.NodeVisitor):
    """Collect table mutations made outside ``with *.transaction()``."""

    def __init__(self) -> None:
        self.in_transaction = 0
        #: ``(call node, table)`` for every unprotected mutation.
        self.unprotected: list[tuple[ast.Call, str]] = []

    def visit_With(self, node: ast.With) -> None:
        is_transaction = any(
            isinstance(item.context_expr, ast.Call)
            and isinstance(item.context_expr.func, ast.Attribute)
            and item.context_expr.func.attr == "transaction"
            for item in node.items
        )
        if is_transaction:
            self.in_transaction += 1
        self.generic_visit(node)
        if is_transaction:
            self.in_transaction -= 1

    def visit_Call(self, node: ast.Call) -> None:
        if self.in_transaction == 0:
            table = _mutated_table(node)
            if table is not None:
                self.unprotected.append((node, table))
        self.generic_visit(node)

    # Nested scopes are analysed as their own functions.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def _check_multi_table_mutations(
    report: AnalysisReport,
    tree: ast.Module,
    source_lines: list[str],
    label: str,
) -> None:
    """MDV065: two+ tables mutated in one function with no transaction."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        scanner = _MutationScanner()
        for statement in node.body:
            scanner.visit(statement)
        tables = {table for _, table in scanner.unprotected}
        if len(tables) < 2:
            continue
        first = scanner.unprotected[0][0]
        if _waived(source_lines, first, "MDV065") or _waived(
            source_lines, node, "MDV065"
        ):
            continue
        report.add(
            Severity.ERROR,
            "MDV065",
            f"{node.name} mutates {len(tables)} tables "
            f"({', '.join(sorted(tables))}) outside a transaction() "
            "block; a crash between the statements would tear them",
            span=_span(source_lines, first),
            source=label,
        )


#: Container-method calls that mutate their receiver (MDV066).
_LOCK_MUTATORS = frozenset(
    {
        "add", "append", "clear", "discard", "extend", "insert", "pop",
        "popitem", "remove", "setdefault", "update",
    }
)

_IDX_PREFIX = "_idx_"


def _roots_at_index(node: ast.expr) -> bool:
    """Whether an attribute/subscript/call chain reaches ``self._idx_*``."""
    current: ast.expr | None = node
    while current is not None:
        if isinstance(current, ast.Attribute):
            if (
                current.attr.startswith(_IDX_PREFIX)
                and isinstance(current.value, ast.Name)
                and current.value.id == "self"
            ):
                return True
            current = current.value
        elif isinstance(current, ast.Subscript):
            current = current.value
        elif isinstance(current, ast.Call):
            current = current.func
        else:
            return False
    return False


class _LockScanner(ast.NodeVisitor):
    """Collect ``self._idx_*`` mutations outside ``with self._lock:``."""

    def __init__(self) -> None:
        self.in_lock = 0
        self.unprotected: list[ast.AST] = []
        self._seen_lines: set[int] = set()

    def _is_lock_item(self, expr: ast.expr) -> bool:
        return (
            isinstance(expr, ast.Attribute)
            and expr.attr == "_lock"
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        )

    def visit_With(self, node: ast.With) -> None:
        is_lock = any(
            self._is_lock_item(item.context_expr) for item in node.items
        )
        if is_lock:
            self.in_lock += 1
        self.generic_visit(node)
        if is_lock:
            self.in_lock -= 1

    def _record(self, node: ast.AST, targets: list[ast.expr]) -> None:
        # One finding per source line: a statement like
        # `self._idx_x.setdefault(k, {})[r] = v` is both an assignment
        # and a mutating call, but it is one violation.
        line = getattr(node, "lineno", 0)
        if (
            self.in_lock == 0
            and line not in self._seen_lines
            and any(_roots_at_index(target) for target in targets)
        ):
            self._seen_lines.add(line)
            self.unprotected.append(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record(node, node.targets)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record(node, [node.target])
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record(node, [node.target])
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._record(node, list(node.targets))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _LOCK_MUTATORS
        ):
            self._record(node, [node.func.value])
        self.generic_visit(node)

    # Nested scopes are analysed as their own functions.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def _check_lock_scope(
    report: AnalysisReport,
    tree: ast.Module,
    source_lines: list[str],
    label: str,
) -> None:
    """MDV066: index mutations must hold the matcher lock.

    ``__init__`` is exempt — construction happens before the object is
    visible to any other thread.
    """
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name == "__init__":
            continue
        scanner = _LockScanner()
        for statement in node.body:
            scanner.visit(statement)
        for mutation in scanner.unprotected:
            # Waivable on the mutation line or on the enclosing def
            # line (the MDV065 convention for whole-function waivers).
            if _waived(source_lines, mutation, "MDV066") or _waived(
                source_lines, node, "MDV066"
            ):
                continue
            report.add(
                Severity.ERROR,
                "MDV066",
                f"{node.name} mutates counting-index state (self._idx_*) "
                "outside a `with self._lock:` block; a match on another "
                "thread could read a torn index",
                span=_span(source_lines, mutation),
                source=label,
            )


def _function_qualnames(
    tree: ast.Module,
) -> dict[str, ast.FunctionDef | ast.AsyncFunctionDef]:
    functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions[f"{node.name}.{member.name}"] = member
    return functions


def _references_obs(function: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for node in ast.walk(function):
        if isinstance(node, ast.Attribute):
            if node.attr.startswith("_m_") or node.attr in _OBS_MARKERS:
                return True
        elif isinstance(node, ast.Name) and node.id in _OBS_MARKERS:
            return True
    return False


def _check_hot_paths(
    report: AnalysisReport, tree: ast.Module, path: Path, label: str
) -> None:
    wanted = [
        qualname
        for suffix, qualname in HOT_PATHS
        if path.as_posix().endswith(suffix)
    ]
    if not wanted:
        return
    functions = _function_qualnames(tree)
    for qualname in wanted:
        function = functions.get(qualname)
        if function is None:
            report.add(
                Severity.WARNING,
                "MDV063",
                f"registered hot path {qualname} not found",
                source=label,
            )
        elif not _references_obs(function):
            report.add(
                Severity.ERROR,
                "MDV063",
                f"hot path {qualname} lacks obs instrumentation "
                "(no metrics/tracer reference in its body)",
                source=label,
            )


def _check_exports(
    report: AnalysisReport, tree: ast.Module, label: str
) -> None:
    top_level: set[str] = set()
    exported: list[str] | None = None
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            top_level.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                top_level.add(
                    alias.asname or alias.name.split(".")[0]
                )
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    top_level.add(target.id)
                    if target.id == "__all__":
                        exported = _literal_strings(node.value)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                top_level.add(node.target.id)
        elif isinstance(node, (ast.If, ast.Try)):
            for sub in ast.walk(node):
                if isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    top_level.add(sub.name)
                elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                    for alias in sub.names:
                        top_level.add(alias.asname or alias.name.split(".")[0])
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            top_level.add(target.id)
    if exported is None:
        report.add(
            Severity.ERROR,
            "MDV064",
            "module does not declare __all__ as a literal list/tuple",
            source=label,
        )
        return
    for name in exported:
        if name not in top_level:
            report.add(
                Severity.ERROR,
                "MDV064",
                f"__all__ exports {name!r} which is not defined at the "
                "top level",
                source=label,
            )


def _literal_strings(node: ast.expr) -> list[str]:
    if isinstance(node, (ast.List, ast.Tuple)):
        values = []
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(
                element.value, str
            ):
                values.append(element.value)
        return values
    return []


def lint_paths(
    paths: list[Path] | None = None, root: Path | None = None
) -> tuple[AnalysisReport, int]:
    """Lint every ``.py`` file under ``paths`` (default: the package).

    Returns ``(report, files_checked)``.
    """
    base = root if root is not None else default_root()
    targets = paths if paths else [base]
    files: list[Path] = []
    for target in targets:
        if target.is_dir():
            files.extend(sorted(target.rglob("*.py")))
        else:
            files.append(target)
    report = AnalysisReport()
    relative_root = base.parent
    for file_path in files:
        report.extend(lint_file(file_path, relative_to=relative_root))
    return report, len(files)
