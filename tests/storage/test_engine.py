"""Unit tests for the SQLite engine wrapper."""

import pytest

from repro.errors import StorageError
from repro.storage.engine import Database


def test_row_access_by_name():
    db = Database()
    db.execute("CREATE TABLE t (a, b)")
    db.execute("INSERT INTO t VALUES (1, 'x')")
    row = db.query_one("SELECT * FROM t")
    assert row["a"] == 1
    assert row["b"] == "x"
    db.close()


def test_scalar_and_count():
    db = Database()
    db.execute("CREATE TABLE t (a)")
    db.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(5)])
    assert db.scalar("SELECT SUM(a) FROM t") == 10
    assert db.count("t") == 5
    assert db.count("t", "a > ?", (2,)) == 2
    db.close()


def test_scalar_of_empty_result_is_none():
    db = Database()
    db.execute("CREATE TABLE t (a)")
    assert db.query_one("SELECT a FROM t") is None
    db.close()


def test_transaction_commits():
    db = Database()
    db.execute("CREATE TABLE t (a)")
    with db.transaction():
        db.execute("INSERT INTO t VALUES (1)")
    assert db.count("t") == 1
    db.close()


def test_transaction_rolls_back_on_error():
    db = Database()
    db.execute("CREATE TABLE t (a)")
    db.commit()
    with pytest.raises(RuntimeError):
        with db.transaction():
            db.execute("INSERT INTO t VALUES (1)")
            raise RuntimeError("boom")
    assert db.count("t") == 0
    db.close()


def test_nested_transactions_join_outer():
    db = Database()
    db.execute("CREATE TABLE t (a)")
    db.commit()
    with pytest.raises(RuntimeError):
        with db.transaction():
            db.execute("INSERT INTO t VALUES (1)")
            with db.transaction():
                db.execute("INSERT INTO t VALUES (2)")
            raise RuntimeError("boom")
    assert db.count("t") == 0
    db.close()


def test_sql_errors_wrapped():
    db = Database()
    with pytest.raises(StorageError) as err:
        db.execute("SELECT * FROM missing_table")
    assert "missing_table" in str(err.value)
    db.close()


def test_executemany_errors_wrapped():
    db = Database()
    with pytest.raises(StorageError):
        db.executemany("INSERT INTO nope VALUES (?)", [(1,)])
    db.close()


def test_closed_database_rejected():
    db = Database()
    db.close()
    with pytest.raises(StorageError):
        db.execute("SELECT 1")
    db.close()  # idempotent


def test_clone_copies_data_and_is_independent():
    db = Database()
    db.execute("CREATE TABLE t (a)")
    db.execute("INSERT INTO t VALUES (1)")
    db.commit()
    duplicate = db.clone()
    duplicate.execute("INSERT INTO t VALUES (2)")
    assert db.count("t") == 1
    assert duplicate.count("t") == 2
    db.close()
    duplicate.close()


def test_table_names_sorted():
    db = Database()
    db.execute("CREATE TABLE zeta (a)")
    db.execute("CREATE TABLE alpha (a)")
    assert db.table_names() == ["alpha", "zeta"]
    db.close()


def test_explain_returns_plan_text():
    db = Database()
    db.execute("CREATE TABLE t (a PRIMARY KEY, b)")
    plan = db.explain("SELECT b FROM t WHERE a = ?", (1,))
    assert "t" in plan
    db.close()


def test_context_manager_closes():
    with Database() as db:
        db.execute("SELECT 1")
    with pytest.raises(StorageError):
        db.execute("SELECT 1")


def test_clone_to_disk_and_back(tmp_path):
    db = Database()
    db.execute("CREATE TABLE t (a)")
    db.execute("INSERT INTO t VALUES (1)")
    db.commit()
    path = str(tmp_path / "copy.db")
    on_disk = db.clone(path, durability="safe")
    assert on_disk.path == path
    assert on_disk.durability == "safe"
    assert on_disk.count("t") == 1
    on_disk.close()
    # The file persists: reopening it sees the data.
    reopened = Database(path, durability="safe")
    assert reopened.count("t") == 1
    reopened.close()
    db.close()


def test_clone_of_closed_database_raises():
    db = Database()
    db.close()
    with pytest.raises(StorageError) as err:
        db.clone()
    assert "closed" in str(err.value)


def test_commit_inside_transaction_block_rejected():
    db = Database()
    db.execute("CREATE TABLE t (a)")
    db.commit()
    with pytest.raises(StorageError) as err:
        with db.transaction():
            db.execute("INSERT INTO t VALUES (1)")
            db.commit()
    assert "transaction" in str(err.value)
    # The block's rollback ran: the partial work is gone.
    assert db.count("t") == 0
    db.close()


def test_rollback_inside_transaction_block_rejected():
    db = Database()
    with pytest.raises(StorageError):
        with db.transaction():
            db.rollback()
    db.close()


def test_nested_transaction_rolls_back_inner_only():
    # A nested block joins the outer transaction, so its failure cannot be
    # unwound on its own: when the caller swallows it, the outermost exit
    # rolls back everything and raises instead of committing.
    db = Database()
    db.execute("CREATE TABLE t (a)")
    db.commit()
    with pytest.raises(StorageError, match="nested"):
        with db.transaction():
            db.execute("INSERT INTO t VALUES (1)")
            with pytest.raises(RuntimeError):
                with db.transaction():
                    db.execute("INSERT INTO t VALUES (2)")
                    raise RuntimeError("inner boom")
            db.execute("INSERT INTO t VALUES (3)")
    assert db.count("t") == 0
    db.close()


def test_deeply_nested_savepoints():
    # No level of nesting opens a savepoint: a swallowed failure two levels
    # down still rolls back the whole transaction.
    db = Database()
    db.execute("CREATE TABLE t (a)")
    db.commit()
    with pytest.raises(StorageError, match="nested"):
        with db.transaction():
            db.execute("INSERT INTO t VALUES (1)")
            with db.transaction():
                db.execute("INSERT INTO t VALUES (2)")
                try:
                    with db.transaction():
                        db.execute("INSERT INTO t VALUES (3)")
                        raise RuntimeError("inner boom")
                except RuntimeError:
                    pass  # the caller goes on as if nothing happened
            db.execute("INSERT INTO t VALUES (4)")
    assert db.count("t") == 0
    # The flag does not outlive the transaction.
    with db.transaction():
        db.execute("INSERT INTO t VALUES (5)")
    assert db.count("t") == 1
    db.close()


def test_cross_thread_nested_transaction_rejected():
    import threading

    db = Database(check_same_thread=False)
    db.execute("CREATE TABLE t (a)")
    db.commit()
    failures = []

    def nested_from_other_thread():
        try:
            with db.transaction():
                pass
        except StorageError as exc:
            failures.append(str(exc))

    with db.transaction():
        db.execute("INSERT INTO t VALUES (1)")
        worker = threading.Thread(target=nested_from_other_thread)
        worker.start()
        worker.join()
    assert len(failures) == 1
    assert "thread" in failures[0]
    db.close()


def test_executescript_inside_transaction_rejected():
    db = Database()
    with pytest.raises(StorageError) as err:
        with db.transaction():
            db.executescript("CREATE TABLE t (a);")
    assert "executescript" in str(err.value)
    db.close()
