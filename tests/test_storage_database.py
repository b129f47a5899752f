"""Database wrapper: execution, transactions, timing, identifier quoting."""

import pytest

from repro.errors import StorageError
from repro.storage.database import Database, quote_ident, sql_literal


class TestQuoting:
    def test_plain_identifier_untouched(self):
        assert quote_ident("statement") == "statement"
        assert quote_ident("policy_id") == "policy_id"

    def test_keyword_quoted(self):
        # 'all' is an ACCESS value element and an SQL keyword.
        assert quote_ident("all") == '"all"'
        assert quote_ident("current") == '"current"'

    def test_odd_characters_quoted(self):
        assert quote_ident("Weird Name") == '"Weird Name"'
        assert quote_ident('has"quote') == '"has""quote"'

    def test_sql_literal_escapes_quotes(self):
        assert sql_literal("it's") == "'it''s'"
        assert sql_literal("plain") == "'plain'"

    def test_empty_identifier_quoted(self):
        assert quote_ident("") == '""'

    def test_uppercase_identifier_quoted(self):
        # The plain-identifier pattern is lowercase-only, so uppercase
        # (including uppercase keywords) always gets quoted.
        assert quote_ident("Policy") == '"Policy"'
        assert quote_ident("SELECT") == '"SELECT"'

    def test_unicode_identifier_quoted_and_roundtrips(self):
        name = "pöl_icy"
        assert quote_ident(name) == f'"{name}"'
        with Database() as db:
            db.execute(f"CREATE TABLE {quote_ident(name)} (x INTEGER)")
            db.execute(f"INSERT INTO {quote_ident(name)} VALUES (1)")
            assert db.table_count(name) == 1

    def test_every_keyword_roundtrips_as_column_name(self):
        from repro.storage.database import _SQL_KEYWORDS

        with Database() as db:
            for index, keyword in enumerate(sorted(_SQL_KEYWORDS)):
                table = f"t{index}"
                db.execute(
                    f"CREATE TABLE {table} ({quote_ident(keyword)} INTEGER)"
                )
                db.execute(f"INSERT INTO {table} VALUES (1)")
                assert db.scalar(
                    f"SELECT {quote_ident(keyword)} FROM {table}"
                ) == 1

    def test_sql_literal_edge_cases(self):
        assert sql_literal("") == "''"
        assert sql_literal("''") == "''''''"
        assert sql_literal("naïve — ünïcode") == "'naïve — ünïcode'"
        with Database() as db:
            assert db.scalar(f"SELECT {sql_literal(chr(39) * 3)}") == "'''"


class TestExecution:
    def test_basic_roundtrip(self):
        with Database() as db:
            db.execute("CREATE TABLE t (x INTEGER, y TEXT)")
            db.execute("INSERT INTO t VALUES (?, ?)", (1, "one"))
            row = db.query_one("SELECT * FROM t")
            assert row["x"] == 1
            assert row["y"] == "one"

    def test_scalar(self):
        with Database() as db:
            assert db.scalar("SELECT 41 + 1") == 42
            assert db.scalar("SELECT 1 WHERE 0") is None

    def test_executemany(self):
        with Database() as db:
            db.execute("CREATE TABLE t (x INTEGER)")
            db.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(5)])
            assert db.table_count("t") == 5

    def test_bad_sql_raises_storage_error(self):
        with Database() as db:
            with pytest.raises(StorageError):
                db.execute("SELEKT broken")

    def test_executemany_bad_sql_raises_storage_error(self):
        with Database() as db:
            with pytest.raises(StorageError):
                db.executemany("INSERT INTO missing VALUES (?)", [(1,)])

    def test_executemany_arity_mismatch_raises_storage_error(self):
        with Database() as db:
            db.execute("CREATE TABLE t (x INTEGER, y INTEGER)")
            with pytest.raises(StorageError):
                db.executemany("INSERT INTO t VALUES (?, ?)", [(1, 2), (3,)])

    def test_executemany_constraint_violation_raises_storage_error(self):
        with Database() as db:
            db.execute("CREATE TABLE t (x INTEGER PRIMARY KEY)")
            with pytest.raises(StorageError):
                db.executemany("INSERT INTO t VALUES (?)",
                               [(1,), (2,), (1,)])

    def test_failed_executemany_records_no_stats(self):
        with Database() as db:
            db.execute("CREATE TABLE t (x INTEGER)")
            before = db.stats.statements
            with pytest.raises(StorageError):
                db.executemany("INSERT INTO nowhere VALUES (?)", [(1,)])
            assert db.stats.statements == before

    def test_executescript_bad_sql_raises_storage_error(self):
        with Database() as db:
            with pytest.raises(StorageError):
                db.executescript("CREATE TABLE ok (x); SELEKT broken;")

    def test_table_names(self):
        with Database() as db:
            db.executescript("CREATE TABLE b (x); CREATE TABLE a (x);")
            assert db.table_names() == ["a", "b"]


class TestTransactions:
    def test_commit_on_success(self):
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        with db.transaction():
            db.execute("INSERT INTO t VALUES (1)")
        assert db.table_count("t") == 1

    def test_rollback_on_error(self):
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        db.commit()
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.execute("INSERT INTO t VALUES (1)")
                raise RuntimeError("boom")
        assert db.table_count("t") == 0

    def test_swallowed_statement_failure_is_not_committed(self):
        """Regression: a statement fails inside the block, the caller
        swallows the error, and the context manager used to commit the
        half-applied transaction anyway."""
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        db.commit()
        with pytest.raises(StorageError, match="rolled back"):
            with db.transaction():
                db.execute("INSERT INTO t VALUES (1)")
                try:
                    db.execute("INSERT INTO missing VALUES (1)")
                except StorageError:
                    pass  # swallowed — the transaction must still abort
        assert db.table_count("t") == 0

    def test_transaction_recovers_after_aborted_predecessor(self):
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        db.commit()
        with pytest.raises(StorageError):
            with db.transaction():
                try:
                    db.execute("SELEKT nope")
                except StorageError:
                    pass
        with db.transaction():
            db.execute("INSERT INTO t VALUES (2)")
        assert db.table_count("t") == 1

    def test_failure_outside_transaction_does_not_poison_next_one(self):
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        db.commit()
        try:
            db.execute("SELEKT nope")
        except StorageError:
            pass
        with db.transaction():
            db.execute("INSERT INTO t VALUES (1)")
        assert db.table_count("t") == 1

    def test_nested_block_commits_with_the_outermost(self):
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        db.commit()
        with pytest.raises(RuntimeError):
            with db.transaction():
                with db.transaction():
                    db.execute("INSERT INTO t VALUES (1)")
                assert db.in_transaction   # the inner block committed nothing
                raise RuntimeError("boom")
        assert db.table_count("t") == 0
        with db.transaction():
            with db.transaction():
                db.execute("INSERT INTO t VALUES (2)")
        assert not db.in_transaction
        assert db.table_count("t") == 1

    def test_caught_inner_failure_aborts_the_outermost(self):
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        db.commit()
        with pytest.raises(StorageError, match="rolled back"):
            with db.transaction():
                db.execute("INSERT INTO t VALUES (1)")
                try:
                    with db.transaction():
                        raise ValueError("refused")
                except ValueError:
                    pass  # caught — the outer block must still abort
        assert db.table_count("t") == 0


class TestStats:
    def test_statement_count_and_time_accumulate(self):
        db = Database()
        db.execute("SELECT 1")
        db.execute("SELECT 2")
        assert db.stats.statements == 2
        assert db.stats.seconds >= 0.0
        assert db.stats.last_seconds >= 0.0

    def test_reset(self):
        db = Database()
        db.execute("SELECT 1")
        db.stats.reset()
        assert db.stats.statements == 0
        assert db.stats.seconds == 0.0


class TestExplain:
    @pytest.fixture()
    def db(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, "
                   "grp INTEGER)")
        db.execute("CREATE INDEX idx_t_grp ON t(grp)")
        db.executemany("INSERT INTO t (name, grp) VALUES (?, ?)",
                       [(f"row{i}", i % 4) for i in range(64)])
        db.commit()
        return db

    def test_index_probe_reported_as_search(self, db):
        steps = db.explain("SELECT * FROM t WHERE grp = ?", (2,))
        assert len(steps) == 1
        step = steps[0]
        assert step.uses_index and not step.is_scan
        assert step.table == "t"
        assert "idx_t_grp" in step.detail

    def test_primary_key_lookup_is_not_a_scan(self, db):
        (step,) = db.explain("SELECT * FROM t WHERE id = ?", (7,))
        assert step.uses_index and not step.is_scan

    def test_clustered_primary_key_lookup_is_an_index_probe(self, db):
        db.execute("CREATE TABLE c (k TEXT, n INTEGER, v TEXT, "
                   "PRIMARY KEY (k, n)) WITHOUT ROWID")
        (step,) = db.explain("SELECT v FROM c WHERE k = ?", ("a",))
        assert "USING PRIMARY KEY" in step.detail
        assert step.uses_index and not step.is_scan
        (step,) = db.explain("SELECT v FROM c WHERE v = ?", ("a",))
        assert step.is_scan and not step.uses_index

    def test_full_scan_reported_as_scan(self, db):
        (step,) = db.explain("SELECT * FROM t WHERE name = ?", ("row3",))
        assert step.is_scan and not step.uses_index
        assert step.table == "t"

    def test_parameters_optional(self, db):
        (step,) = db.explain("SELECT COUNT(*) FROM t")
        assert step.table == "t"

    def test_invalid_sql_raises_storage_error(self, db):
        with pytest.raises(StorageError):
            db.explain("SELECT * FROM missing_table")

    def test_explain_does_not_skew_query_stats(self, db):
        db.stats.reset()
        db.explain("SELECT * FROM t WHERE grp = ?", (1,))
        assert db.stats.statements == 0

    def test_str_is_planner_detail(self, db):
        (step,) = db.explain("SELECT * FROM t WHERE grp = 1")
        assert str(step) == step.detail


class TestAuditCounters:
    def test_record_audit_accumulates_and_resets(self):
        db = Database()
        db.stats.record_audit(2)
        db.stats.record_audit(0)
        assert db.stats.plans_audited == 2
        assert db.stats.audit_findings == 2
        db.stats.reset()
        assert db.stats.plans_audited == 0
        assert db.stats.audit_findings == 0
