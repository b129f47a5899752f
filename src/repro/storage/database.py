"""Thin SQLite wrapper used by every storage component.

The paper ran against DB2 UDB 7.2; we substitute SQLite (see DESIGN.md).
The wrapper adds what the experiments need on top of :mod:`sqlite3`:
transactions as context managers, script execution, and cumulative query
timing so the benchmark harness can separate *conversion time* from *query
time* the way Figure 20 does.
"""

from __future__ import annotations

import re
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.errors import StorageError

#: SQLite keywords that clash with identifiers we generate (e.g. the ACCESS
#: value element ``all``).  ``quote_ident`` quotes these and anything that
#: is not a plain identifier.
_SQL_KEYWORDS = frozenset({
    "all", "and", "as", "between", "by", "case", "check", "current",
    "default", "delete", "distinct", "drop", "each", "else", "end",
    "exists", "from", "group", "having", "in", "index", "insert", "into",
    "is", "join", "like", "limit", "no", "not", "null", "on", "or",
    "order", "primary", "references", "select", "set", "table", "then",
    "to", "union", "unique", "update", "using", "values", "when", "where",
})

_PLAIN_IDENT = re.compile(r"^[a-z_][a-z0-9_]*$")


def quote_ident(name: str) -> str:
    """Quote *name* for use as an SQL identifier when necessary."""
    if _PLAIN_IDENT.match(name) and name not in _SQL_KEYWORDS:
        return name
    return '"' + name.replace('"', '""') + '"'


def sql_literal(value: str) -> str:
    """Render *value* as an SQL string literal (single quotes doubled)."""
    return "'" + value.replace("'", "''") + "'"


@dataclass
class QueryStats:
    """Cumulative statistics over every statement run on a Database.

    ``cache_hits``/``cache_misses`` track the per-connection prepared-
    statement cache: a *hit* means the statement text was seen recently
    on this connection, so sqlite3's statement cache re-executes the
    already-compiled program instead of re-preparing it.

    ``plans_audited``/``audit_findings`` count runs of the EXPLAIN-plan
    auditor (:mod:`repro.analysis.plans`) against this connection and
    the findings those runs produced; the pool folds them into its
    aggregate so ``GET /metrics`` can expose serving-path audit activity.
    """

    statements: int = 0
    seconds: float = 0.0
    last_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    plans_audited: int = 0
    audit_findings: int = 0

    def record(self, elapsed: float) -> None:
        self.statements += 1
        self.seconds += elapsed
        self.last_seconds = elapsed

    def record_cache(self, hit: bool) -> None:
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1

    def record_audit(self, findings: int) -> None:
        self.plans_audited += 1
        self.audit_findings += findings

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return (self.cache_hits / lookups) if lookups else 0.0

    def reset(self) -> None:
        self.statements = 0
        self.seconds = 0.0
        self.last_seconds = 0.0
        self.cache_hits = 0
        self.cache_misses = 0
        self.plans_audited = 0
        self.audit_findings = 0


@dataclass(frozen=True)
class ExplainStep:
    """One row of SQLite's ``EXPLAIN QUERY PLAN`` output.

    ``detail`` is the planner's human-readable step description, e.g.
    ``SEARCH statement USING INDEX idx_statement_policy (policy_id=?)``
    or ``SCAN purpose``.  ``is_scan``/``uses_index`` pre-digest the two
    facts the plan auditor cares about; ``table`` extracts the relation
    the step touches (None for subquery/compound bookkeeping rows).
    """

    id: int
    parent: int
    detail: str

    _TABLE = re.compile(
        r"^(?:SCAN|SEARCH)\s+(?:TABLE\s+)?([A-Za-z_][A-Za-z0-9_]*)"
    )

    @property
    def is_scan(self) -> bool:
        """True for a full scan step: ``SCAN t``, also when it walks an
        index (``SCAN t USING COVERING INDEX i`` still visits every
        entry of *t*)."""
        return (self.detail.startswith("SCAN")
                and "CONSTANT ROW" not in self.detail)

    @property
    def builds_index(self) -> bool:
        """True for a step that probes an index SQLite builds for this
        one statement (``USING AUTOMATIC … INDEX``): building it reads
        every row of the table, as a scan does."""
        return "USING AUTOMATIC" in self.detail

    @property
    def uses_index(self) -> bool:
        """True for a ``SEARCH`` step that probes an index; ``USING
        PRIMARY KEY`` is the clustered key of a ``WITHOUT ROWID``
        table."""
        return self.detail.startswith("SEARCH") and (
            "USING INDEX" in self.detail
            or "USING COVERING INDEX" in self.detail
            or "USING INTEGER PRIMARY KEY" in self.detail
            or "USING PRIMARY KEY" in self.detail
            or "USING ROWID SEARCH" in self.detail)

    @property
    def table(self) -> str | None:
        match = self._TABLE.match(self.detail)
        return match.group(1) if match else None

    def __str__(self) -> str:
        return self.detail


class Database:
    """A SQLite database with timing and transaction helpers.

    >>> db = Database()            # in-memory
    >>> db.execute("CREATE TABLE t (x INTEGER)")
    >>> with db.transaction():
    ...     db.execute("INSERT INTO t VALUES (?)", (1,))
    >>> db.query_one("SELECT x FROM t")[0]
    1
    """

    def __init__(self, path: str = ":memory:", *,
                 timeout: float = 5.0,
                 wal: bool = False,
                 check_same_thread: bool | None = None,
                 statement_cache_size: int = 128):
        self.path = path
        if check_same_thread is None:
            # With a serialized (threadsafety == 3) sqlite3 build the C
            # module takes its own mutexes, so one connection may be used
            # from many threads; only enforce thread affinity when the
            # build cannot guarantee that.
            check_same_thread = sqlite3.threadsafety < 3
        self.statement_cache_size = max(1, statement_cache_size)
        self._connection = sqlite3.connect(
            path, timeout=timeout, check_same_thread=check_same_thread,
            cached_statements=self.statement_cache_size,
        )
        self._connection.row_factory = sqlite3.Row
        self.stats = QueryStats()
        self.wal = False
        self._statement_failed = False
        self._transaction_depth = 0
        # Shadow of sqlite3's per-connection prepared-statement cache:
        # an LRU of recently executed statement texts, sized to match,
        # so hit/miss counters reflect what the C layer re-prepares.
        self._statement_lru: "dict[str, None]" = {}
        if wal:
            self.ensure_wal()

    # -- lifecycle -----------------------------------------------------------

    def ensure_wal(self) -> bool:
        """Switch to write-ahead logging; returns True when WAL is active.

        WAL lets any number of reader connections proceed while one
        writer commits (the basis of :class:`repro.storage.pool.
        ConnectionPool`).  In-memory databases have no journal file, so
        the pragma is a no-op there and this returns False.
        """
        row = self._connection.execute("PRAGMA journal_mode=WAL").fetchone()
        self.wal = row[0] == "wal"
        return self.wal

    def create_function(self, name: str, narg: int,
                        func: Callable[..., Any]) -> None:
        """Register deterministic Python *func* as SQL function *name*.

        Redefining a function expires every statement this connection
        has prepared, so register once per connection.
        """
        self._connection.create_function(name, narg, func,
                                         deterministic=True)

    def restore_backup(self, source_path: str, *,
                       timeout: float = 30.0) -> None:
        """Replace this database's contents with *source_path*'s.

        SQLite's online backup API copies a consistent committed
        snapshot of the source even while another process is writing it
        (the read is transactional), which is what the cluster's read
        replicas refresh with.  The destination — this connection —
        must not be inside an open transaction.
        """
        source = sqlite3.connect(source_path, timeout=timeout)
        try:
            source.backup(self._connection)
        except sqlite3.Error as exc:
            raise StorageError(
                f"backup from {source_path!r} failed: {exc}") from exc
        finally:
            source.close()

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- execution -----------------------------------------------------------

    def _note_statement(self, sql: str) -> None:
        """Record a statement-cache hit or miss for *sql*.

        Mirrors sqlite3's own LRU (same capacity, same key: the exact
        statement text), which the module does not expose counters for.
        Parameterized SQL is what makes this cache effective: a plan
        executed against 1000 policies is one cached program, where the
        literal pipeline's 1000 distinct texts are 1000 misses.
        """
        lru = self._statement_lru
        if sql in lru:
            # dict preserves insertion order; re-insert to refresh.
            del lru[sql]
            lru[sql] = None
            self.stats.record_cache(True)
            return
        lru[sql] = None
        if len(lru) > self.statement_cache_size:
            del lru[next(iter(lru))]
        self.stats.record_cache(False)

    def execute(self, sql: str,
                parameters: Sequence[Any] = ()) -> sqlite3.Cursor:
        """Run one statement, recording its wall-clock time."""
        start = time.perf_counter()
        self._note_statement(sql)
        try:
            cursor = self._connection.execute(sql, parameters)
        except sqlite3.Error as exc:
            self._statement_failed = True
            raise StorageError(f"SQL failed: {exc}\n{sql}") from exc
        self.stats.record(time.perf_counter() - start)
        return cursor

    def executemany(self, sql: str,
                    rows: Sequence[Sequence[Any]]) -> None:
        start = time.perf_counter()
        self._note_statement(sql)
        try:
            self._connection.executemany(sql, rows)
        except sqlite3.Error as exc:
            self._statement_failed = True
            raise StorageError(f"SQL failed: {exc}\n{sql}") from exc
        self.stats.record(time.perf_counter() - start)

    def executescript(self, script: str) -> None:
        start = time.perf_counter()
        try:
            self._connection.executescript(script)
        except sqlite3.Error as exc:
            self._statement_failed = True
            raise StorageError(f"SQL script failed: {exc}") from exc
        self.stats.record(time.perf_counter() - start)

    def query(self, sql: str,
              parameters: Sequence[Any] = ()) -> list[sqlite3.Row]:
        """Run a SELECT and fetch all rows."""
        return self.execute(sql, parameters).fetchall()

    def query_one(self, sql: str,
                  parameters: Sequence[Any] = ()) -> sqlite3.Row | None:
        """Run a SELECT and fetch the first row (or None)."""
        return self.execute(sql, parameters).fetchone()

    def scalar(self, sql: str, parameters: Sequence[Any] = ()) -> Any:
        """Run a SELECT and return the first column of the first row."""
        row = self.query_one(sql, parameters)
        return None if row is None else row[0]

    def explain(self, sql: str,
                parameters: Sequence[Any] = ()) -> list[ExplainStep]:
        """Return the query plan SQLite chose for *sql* as structured rows.

        Runs ``EXPLAIN QUERY PLAN`` with the same *parameters* the real
        statement would use, so parameterized plans (one ``?`` bind per
        rule) are explained exactly as executed.  The probe bypasses the
        timing and statement-cache accounting — introspection must not
        skew the serving metrics it exists to protect.
        """
        try:
            cursor = self._connection.execute(
                "EXPLAIN QUERY PLAN " + sql, parameters)
        except sqlite3.Error as exc:
            raise StorageError(
                f"EXPLAIN QUERY PLAN failed: {exc}\n{sql}") from exc
        return [
            ExplainStep(id=int(row["id"]), parent=int(row["parent"]),
                        detail=str(row["detail"]))
            for row in cursor.fetchall()
        ]

    def statement_actions(self, sql: str,
                          parameters: Sequence[Any] | None = None
                          ) -> list[tuple[int, str | None, str | None]]:
        """Prepare *sql* (without running it) and report what it touches.

        SQLite consults the connection's authorizer while *compiling* a
        statement, naming every table it would read or write — which
        makes the authorizer a schema-aware static analyzer: no rows
        move, yet ``INSERT``/``UPDATE``/``DELETE`` targets and every
        ``(table, column)`` read are known exactly, derived-table
        aliases already resolved to base tables.  The statement is
        wrapped in ``EXPLAIN`` so only bytecode is produced; *parameters*
        defaults to a null bind per ``?`` (the compiled program does not
        depend on bound values).  Returns ``(action, arg1, arg2)``
        tuples using the ``sqlite3.SQLITE_*`` action codes
        (``SQLITE_READ`` carries table+column, the write actions carry
        the table).  Raises :class:`StorageError` when the statement
        does not compile — the caller's cue that the statement
        references schema that does not exist.
        """
        if parameters is None:
            # Null bind per live placeholder (quoted regions carry no
            # binds; sqlite3 insists the count match even for EXPLAIN).
            live = re.sub(r"'(?:[^']|'')*'|\"(?:[^\"]|\"\")*\"", " ", sql)
            parameters = (None,) * live.count("?")
        actions: list[tuple[int, str | None, str | None]] = []

        def authorizer(action: int, arg1, arg2, dbname, trigger) -> int:
            actions.append((action, arg1, arg2))
            return sqlite3.SQLITE_OK

        try:
            # The first compile of a statement on a connection may touch
            # the schema on SQLite's own behalf — a first use of an
            # eponymous virtual table such as ``json_each`` registers
            # it, which the authorizer reports as an UPDATE of
            # sqlite_master — so only a second compile is recorded.
            self._connection.execute("EXPLAIN " + sql,
                                     parameters).fetchall()
            self._connection.set_authorizer(authorizer)
            self._connection.execute("EXPLAIN " + sql,
                                     parameters).fetchall()
        except sqlite3.Error as exc:
            raise StorageError(f"SQL failed: {exc}\n{sql}") from exc
        finally:
            self._connection.set_authorizer(None)
        return actions

    # -- transactions ----------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator["Database"]:
        """Commit on success, roll back on error.

        The block is also rolled back — and StorageError raised — when a
        statement inside it failed but the caller swallowed the error:
        committing the surviving half of a transaction whose other half
        silently failed would corrupt multi-table invariants (e.g. a
        policy row without its statement rows).

        Blocks nest: an inner block joins the outermost one, which alone
        commits or rolls back, so steps that each run in a transaction
        compose into one atomic step.  An inner block that raises marks
        the whole transaction failed, even if the caller catches.
        """
        if self._transaction_depth:
            self._transaction_depth += 1
            try:
                yield self
            except Exception:
                self._statement_failed = True
                raise
            finally:
                self._transaction_depth -= 1
            return
        self._statement_failed = False
        self._transaction_depth = 1
        try:
            yield self
        except Exception:
            self._connection.rollback()
            self._statement_failed = False
            raise
        finally:
            self._transaction_depth = 0
        if self._statement_failed:
            self._connection.rollback()
            self._statement_failed = False
            raise StorageError(
                "transaction rolled back: a statement inside the block "
                "failed and the error was swallowed"
            )
        self._connection.commit()

    @property
    def in_transaction(self) -> bool:
        """True while the connection holds uncommitted work."""
        return self._connection.in_transaction

    def commit(self) -> None:
        self._connection.commit()

    def rollback(self) -> None:
        self._connection.rollback()

    # -- introspection -----------------------------------------------------------

    def table_names(self) -> list[str]:
        rows = self.query(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "ORDER BY name"
        )
        return [row["name"] for row in rows]

    def table_columns(self, table: str) -> list[str]:
        """Column names of *table*, in declaration order (empty when the
        table does not exist)."""
        rows = self.query(f"PRAGMA table_info({quote_ident(table)})")
        return [row["name"] for row in rows]

    def ensure_columns(self, table: str,
                       columns: "dict[str, str]") -> list[str]:
        """Migrate *table* forward: ``ALTER TABLE ADD COLUMN`` for every
        column of *columns* (name -> type/default declaration) it lacks.

        Returns the names added.  A missing table is left alone — the
        caller's CREATE TABLE IF NOT EXISTS already carries the full
        shape, so there is nothing to migrate.
        """
        existing = set(self.table_columns(table))
        if not existing:
            return []
        added: list[str] = []
        for name, declaration in columns.items():
            if name in existing:
                continue
            self.execute(
                f"ALTER TABLE {quote_ident(table)} "
                f"ADD COLUMN {quote_ident(name)} {declaration}"
            )
            added.append(name)
        return added

    def table_count(self, table: str) -> int:
        return int(self.scalar(f"SELECT COUNT(*) FROM {quote_ident(table)}"))
