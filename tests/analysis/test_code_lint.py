"""The MDV06x source-code lint pack (``repro.analysis.code``).

Every rule is exercised on synthetic files in ``tmp_path`` — the pack
is purely syntactic, so no imports run — plus the one invariant that
matters most: the shipped ``src/repro`` tree itself lints clean (this
is exactly what the CI job asserts).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.code import (
    CONCURRENCY_ALLOWLIST,
    CONNECT_ALLOWLIST,
    HOT_PATHS,
    default_root,
    lint_file,
    lint_paths,
)

# Wall-clock / sqlite / thread snippets used across the tests.
_CLOCK = "import time\n__all__ = []\n\ndef stamp():\n    return time.time()\n"


def _write(tmp_path: Path, name: str, source: str) -> Path:
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return target


def _codes(report) -> list[str]:
    return [d.code for d in report.diagnostics]


class TestConnectRule:
    def test_raw_connect_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            "import sqlite3\n__all__ = []\nconn = sqlite3.connect(':memory:')\n",
        )
        assert _codes(lint_file(path)) == ["MDV060"]

    def test_aliased_import_resolved(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            "import sqlite3 as sql\n__all__ = []\nconn = sql.connect('x')\n",
        )
        assert _codes(lint_file(path)) == ["MDV060"]

    def test_storage_engine_allowlisted(self, tmp_path):
        path = _write(
            tmp_path,
            "repro/storage/engine.py",
            "import sqlite3\n__all__ = []\nconn = sqlite3.connect(':memory:')\n",
        )
        # The same suffix registers a hot path (MDV063) — only the
        # connect rule is under test here.
        assert "MDV060" not in _codes(lint_file(path))


class TestConcurrencyRule:
    def test_thread_creation_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            "import threading\n__all__ = []\nt = threading.Thread(target=print)\n",
        )
        assert _codes(lint_file(path)) == ["MDV061"]

    def test_executor_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            "from concurrent.futures import ThreadPoolExecutor\n"
            "__all__ = []\npool = ThreadPoolExecutor(4)\n",
        )
        assert _codes(lint_file(path)) == ["MDV061"]

    def test_check_same_thread_false_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "repro/storage/engine.py",
            "import sqlite3\n__all__ = []\n"
            "conn = sqlite3.connect('x', check_same_thread=False)\n",
        )
        assert "MDV061" in _codes(lint_file(path))

    def test_socket_transport_may_not_start_threads(self, tmp_path):
        # The allowlist is empty: the socket transport does its I/O on
        # the thread that owns the node, so a thread there is an error.
        assert CONCURRENCY_ALLOWLIST == ()
        path = _write(
            tmp_path,
            "repro/net/socket.py",
            "import threading\n__all__ = []\nt = threading.Thread(target=print)\n",
        )
        assert _codes(lint_file(path)) == ["MDV061"]

    def test_filter_package_may_not_start_threads(self, tmp_path):
        # No file under repro/filter is on the allowlist, so the clean
        # shipped tree (TestLintPaths) proves the filter single-threaded.
        assert not any("filter" in suffix for suffix in CONCURRENCY_ALLOWLIST)
        path = _write(
            tmp_path,
            "repro/filter/counting.py",
            "from concurrent.futures import ThreadPoolExecutor\n"
            "__all__ = []\n\n"
            "class CountingMatcher:\n"
            "    def match(self):\n"
            "        self._m_match_ms.observe(1.0)\n"
            "        return ThreadPoolExecutor(4)\n",
        )
        assert _codes(lint_file(path)) == ["MDV061"]


class TestWallClockRule:
    def test_time_time_flagged(self, tmp_path):
        path = _write(tmp_path, "mod.py", _CLOCK)
        assert _codes(lint_file(path)) == ["MDV062"]

    def test_datetime_now_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            "from datetime import datetime\n__all__ = []\n"
            "stamp = datetime.now()\n",
        )
        assert _codes(lint_file(path)) == ["MDV062"]

    def test_perf_counter_is_clean(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            "import time\n__all__ = []\nstarted = time.perf_counter()\n",
        )
        assert _codes(lint_file(path)) == []

    def test_waiver_comment_suppresses(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            "import time\n__all__ = []\n"
            "stamp = time.time()  # mdv: allow(MDV062)\n",
        )
        assert _codes(lint_file(path)) == []

    def test_waiver_must_name_the_code(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            "import time\n__all__ = []\n"
            "stamp = time.time()  # mdv: allow(MDV060)\n",
        )
        assert _codes(lint_file(path)) == ["MDV062"]


class TestHotPathRule:
    def test_uninstrumented_hot_path_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "repro/filter/engine.py",
            "__all__ = []\n\nclass FilterEngine:\n"
            "    def run(self):\n        return []\n",
        )
        assert _codes(lint_file(path)) == ["MDV063"]

    def test_instrumented_hot_path_clean(self, tmp_path):
        path = _write(
            tmp_path,
            "repro/filter/engine.py",
            "__all__ = []\n\nclass FilterEngine:\n"
            "    def run(self, metrics):\n"
            "        metrics.counter('x').inc()\n        return []\n",
        )
        assert _codes(lint_file(path)) == []

    def test_missing_hot_path_warns(self, tmp_path):
        path = _write(tmp_path, "repro/filter/engine.py", "__all__ = []\n")
        report = lint_file(path)
        assert _codes(report) == ["MDV063"]
        assert report.diagnostics[0].severity.name == "WARNING"


class TestDurabilityRule:
    SCOPED = "repro/mdv/mod.py"

    def test_raw_commit_flagged_in_scope(self, tmp_path):
        path = _write(
            tmp_path,
            self.SCOPED,
            "__all__ = []\n\ndef f(db):\n    db.commit()\n",
        )
        assert _codes(lint_file(path)) == ["MDV065"]

    def test_raw_commit_outside_scope_ignored(self, tmp_path):
        path = _write(
            tmp_path,
            "repro/bench/mod.py",
            "__all__ = []\n\ndef f(db):\n    db.commit()\n",
        )
        assert _codes(lint_file(path)) == []

    def test_multi_table_mutation_outside_transaction_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            self.SCOPED,
            "__all__ = []\n\n"
            "def f(db):\n"
            "    db.execute('DELETE FROM a WHERE x = ?', (1,))\n"
            "    db.execute('INSERT INTO b VALUES (?)', (1,))\n",
        )
        assert _codes(lint_file(path)) == ["MDV065"]

    def test_transaction_block_makes_it_clean(self, tmp_path):
        path = _write(
            tmp_path,
            self.SCOPED,
            "__all__ = []\n\n"
            "def f(db):\n"
            "    with db.transaction():\n"
            "        db.execute('DELETE FROM a')\n"
            "        db.execute('INSERT INTO b VALUES (1)')\n",
        )
        assert _codes(lint_file(path)) == []

    def test_single_table_mutation_allowed(self, tmp_path):
        path = _write(
            tmp_path,
            self.SCOPED,
            "__all__ = []\n\n"
            "def f(db):\n"
            "    db.execute('UPDATE a SET x = 1')\n"
            "    db.execute('DELETE FROM a WHERE x = 2')\n"
            "    db.query_all('SELECT * FROM b')\n",
        )
        assert _codes(lint_file(path)) == []

    def test_waiver_on_def_line_suppresses(self, tmp_path):
        path = _write(
            tmp_path,
            self.SCOPED,
            "__all__ = []\n\n"
            "def f(db):  # mdv: allow(MDV065): caller holds the txn\n"
            "    db.execute('DELETE FROM a')\n"
            "    db.execute('INSERT INTO b VALUES (1)')\n",
        )
        assert _codes(lint_file(path)) == []

    def test_dynamic_sql_counts_as_distinct_tables(self, tmp_path):
        path = _write(
            tmp_path,
            self.SCOPED,
            "__all__ = []\n\n"
            "def f(db, t1, t2):\n"
            "    db.execute(f'DELETE FROM {t1} WHERE x = 1')\n"
            "    db.execute(f'DELETE FROM {t2} WHERE x = 2')\n",
        )
        assert _codes(lint_file(path)) == ["MDV065"]

    def test_executemany_counts_as_mutation(self, tmp_path):
        path = _write(
            tmp_path,
            self.SCOPED,
            "__all__ = []\n\n"
            "def f(db, rows):\n"
            "    db.executemany('INSERT OR REPLACE INTO a VALUES (?)', rows)\n"
            "    db.execute('DELETE FROM b')\n",
        )
        assert _codes(lint_file(path)) == ["MDV065"]


class TestLockScopeRule:
    SCOPED = "repro/filter/counting.py"
    # The same suffix registers a hot path (MDV063); this stub satisfies
    # it so the lock-scope rule is tested in isolation.
    _STUB = (
        "__all__ = []\n\n"
        "class CountingMatcher:\n"
        "    def match(self):\n"
        "        self._m_match_ms.observe(1.0)\n"
    )

    def test_unlocked_assign_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            self.SCOPED,
            self._STUB
            + "\n    def wipe(self):\n        self._idx_eq = {}\n",
        )
        assert _codes(lint_file(path)) == ["MDV066"]

    def test_unlocked_mutating_call_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            self.SCOPED,
            self._STUB
            + "\n    def add(self, k, r):\n"
            "        self._idx_eq.setdefault(k, {})[r] = None\n",
        )
        assert _codes(lint_file(path)) == ["MDV066"]

    def test_unlocked_delete_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            self.SCOPED,
            self._STUB
            + "\n    def drop(self, k):\n        del self._idx_eq[k]\n",
        )
        assert _codes(lint_file(path)) == ["MDV066"]

    def test_mutation_under_lock_clean(self, tmp_path):
        path = _write(
            tmp_path,
            self.SCOPED,
            self._STUB
            + "\n    def add(self, k):\n"
            "        with self._lock:\n"
            "            self._idx_eq[k] = {}\n"
            "            self._idx_entries.clear()\n",
        )
        assert _codes(lint_file(path)) == []

    def test_init_exempt(self, tmp_path):
        path = _write(
            tmp_path,
            self.SCOPED,
            self._STUB
            + "\n    def __init__(self):\n        self._idx_eq = {}\n",
        )
        assert _codes(lint_file(path)) == []

    def test_reads_and_other_attributes_ignored(self, tmp_path):
        path = _write(
            tmp_path,
            self.SCOPED,
            self._STUB
            + "\n    def peek(self, k):\n"
            "        self.cache = {}\n"
            "        return self._idx_eq.get(k)\n",
        )
        assert _codes(lint_file(path)) == []

    def test_waiver_on_def_line_suppresses(self, tmp_path):
        path = _write(
            tmp_path,
            self.SCOPED,
            self._STUB
            + "\n    def wipe(self):"
            "  # mdv: allow(MDV066): single-threaded setup\n"
            "        self._idx_eq = {}\n",
        )
        assert _codes(lint_file(path)) == []

    def test_outside_scope_ignored(self, tmp_path):
        path = _write(
            tmp_path,
            "repro/filter/other.py",
            "__all__ = []\n\n"
            "class X:\n"
            "    def wipe(self):\n        self._idx_eq = {}\n",
        )
        assert _codes(lint_file(path)) == []


class TestLintPaths:
    def test_directory_walk_counts_files(self, tmp_path):
        _write(tmp_path, "pkg/a.py", "__all__ = []\n")
        _write(tmp_path, "pkg/b.py", _CLOCK)
        report, checked = lint_paths([tmp_path / "pkg"], root=tmp_path / "pkg")
        assert checked == 2
        assert _codes(report) == ["MDV062"]

    def test_syntax_error_raises(self, tmp_path):
        path = _write(tmp_path, "mod.py", "def broken(:\n")
        with pytest.raises(SyntaxError):
            lint_file(path)

    def test_shipped_tree_lints_clean(self):
        # The CI gate: the real source tree carries zero findings (all
        # sanctioned sites are allowlisted or explicitly waived).
        report, checked = lint_paths()
        assert checked > 50
        assert report.diagnostics == []

    def test_allowlists_cover_real_files(self):
        root = default_root().parent
        for suffix in CONNECT_ALLOWLIST + CONCURRENCY_ALLOWLIST:
            assert (root / suffix).exists(), suffix
        for suffix, __ in HOT_PATHS:
            assert (root / suffix).exists(), suffix
