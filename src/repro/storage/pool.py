"""Thread-safe SQLite access: per-thread readers, one serialized writer.

The paper's serving argument (Section 4.2) is that preference checks are
*queries* — so a policy server should answer many of them at once.  SQLite
supports exactly one writer per database but, in write-ahead-log (WAL)
mode, any number of concurrent readers that never block the writer and
are never blocked by it.  :class:`ConnectionPool` packages that shape:

* the **writer** is a single :class:`~repro.storage.database.Database`
  guarded by a re-entrant lock (``pool.write()``); installs and the
  batched check log serialize through it;
* **readers** are opened lazily, one per thread (``pool.read()``), so a
  thread's statement cache stays hot and no locking is needed on the
  read path;
* **in-memory** databases are invisible to other connections, so the
  pool degrades to serializing every access through the writer — the
  same API, minus the parallelism;
* every connection keeps its own :class:`~repro.storage.database.
  QueryStats`; :meth:`ConnectionPool.stats` aggregates them.

Connection hooks (:meth:`add_connect_hook`) run against the writer and
every reader — present and future — which is how per-connection state
like the ``glob_pattern`` SQL function reaches reader connections.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.errors import StorageError
from repro.storage.database import Database, QueryStats


class ConnectionPool:
    """A WAL-mode connection pool over one SQLite database.

    *database* is either a path (the pool opens and owns the writer) or
    an existing :class:`Database` to adopt as the writer — adopted
    writers keep their journal mode unless ``wal=True`` is forced, so
    legacy single-connection callers see unchanged behavior.
    """

    def __init__(self, database: Database | str = ":memory:", *,
                 wal: bool | None = None,
                 timeout: float = 30.0):
        if isinstance(database, Database):
            self.writer = database
            self.path = database.path
            if wal is None:
                wal = False
        else:
            self.path = database
            self.writer = Database(database, timeout=timeout,
                                   check_same_thread=False)
            if wal is None:
                wal = True
        self.timeout = timeout
        self._memory = self.path == ":memory:" or "mode=memory" in self.path
        if wal and not self._memory:
            self.writer.ensure_wal()
        self._write_lock = threading.RLock()
        self._registry_lock = threading.Lock()
        self._local = threading.local()
        #: reader connection -> the thread that owns it.  Handler threads
        #: come and go (one per HTTP connection); readers whose owner has
        #: exited are reaped, or the registry grows without bound.
        self._readers: dict[Database, threading.Thread] = {}
        #: Stats carried over from reaped readers, so reader churn never
        #: makes the pool-wide totals go backwards.
        self._retired_stats = QueryStats()
        self._connect_hooks: list[Callable[[Database], None]] = []
        self._closed = False

    # -- connections ---------------------------------------------------------

    @contextmanager
    def read(self) -> Iterator[Database]:
        """A connection for queries: this thread's reader.

        On-disk databases hand out a dedicated per-thread connection
        with no locking (WAL readers never block).  In-memory databases
        fall back to the writer under the write lock.
        """
        if self._closed:
            raise StorageError("connection pool is closed")
        if self._memory:
            with self._write_lock:
                yield self.writer
        else:
            yield self._thread_reader()

    @contextmanager
    def write(self) -> Iterator[Database]:
        """The writer connection, exclusively held while the block runs.

        The lock is re-entrant, so code already inside ``write()`` may
        call helpers that acquire it again (e.g. a log flush during an
        install).  :attr:`write_depth` exposes the current thread's
        nesting so such helpers can tell whether they joined an
        enclosing transaction (and must not roll it back).
        """
        with self._write_lock:
            if self._closed:
                raise StorageError("connection pool is closed")
            self._local.write_depth = self.write_depth + 1
            try:
                yield self.writer
            finally:
                self._local.write_depth -= 1

    @property
    def write_depth(self) -> int:
        """How many ``write()`` blocks the *current thread* is inside."""
        return getattr(self._local, "write_depth", 0)

    def _thread_reader(self) -> Database:
        db = getattr(self._local, "reader", None)
        if db is None:
            db = Database(self.path, timeout=self.timeout,
                          check_same_thread=False)
            with self._registry_lock:
                if self._closed:
                    db.close()
                    raise StorageError("connection pool is closed")
                hooks = list(self._connect_hooks)
                self._readers[db] = threading.current_thread()
                dead = self._reap_locked()
            for hook in hooks:
                hook(db)
            for stale in dead:
                stale.close()
            self._local.reader = db
        return db

    def _reap_locked(self) -> list[Database]:
        """Unregister readers whose owning thread has exited.

        Caller holds ``_registry_lock`` and closes the returned
        connections outside it.  A dead thread cannot be using its
        reader (the connection is thread-local), so closing from
        another thread is safe.
        """
        dead = [db for db, owner in self._readers.items()
                if not owner.is_alive()]
        for db in dead:
            del self._readers[db]
            self._retired_stats.statements += db.stats.statements
            self._retired_stats.seconds += db.stats.seconds
            self._retired_stats.cache_hits += db.stats.cache_hits
            self._retired_stats.cache_misses += db.stats.cache_misses
            self._retired_stats.plans_audited += db.stats.plans_audited
            self._retired_stats.audit_findings += db.stats.audit_findings
        return dead

    def reap_readers(self) -> int:
        """Close readers orphaned by exited threads; returns the count."""
        with self._registry_lock:
            dead = self._reap_locked()
        for db in dead:
            db.close()
        return len(dead)

    def add_connect_hook(self, hook: Callable[[Database], None]) -> None:
        """Run *hook* on the writer, every open reader, and every reader
        opened later — for per-connection setup such as registering SQL
        functions or pragmas."""
        with self._registry_lock:
            self._connect_hooks.append(hook)
            targets = [self.writer, *self._readers]
        for db in targets:
            hook(db)

    # -- introspection -------------------------------------------------------

    @property
    def reader_count(self) -> int:
        with self._registry_lock:
            dead = self._reap_locked()
            count = len(self._readers)
        for db in dead:
            db.close()
        return count

    @property
    def wal(self) -> bool:
        return self.writer.wal

    def stats(self) -> QueryStats:
        """Cumulative statistics summed over the writer and all readers.

        Readers orphaned by exited threads are reaped first; their
        counters — statement counts, seconds, and statement-cache
        hits/misses — are folded into a retained total, so churn never
        makes the aggregate go backwards.
        """
        with self._registry_lock:
            dead = self._reap_locked()
            connections = [self.writer, *self._readers]
            total = QueryStats()
            total.statements = self._retired_stats.statements
            total.seconds = self._retired_stats.seconds
            total.cache_hits = self._retired_stats.cache_hits
            total.cache_misses = self._retired_stats.cache_misses
            total.plans_audited = self._retired_stats.plans_audited
            total.audit_findings = self._retired_stats.audit_findings
        for db in dead:
            db.close()
        for db in connections:
            total.statements += db.stats.statements
            total.seconds += db.stats.seconds
            total.cache_hits += db.stats.cache_hits
            total.cache_misses += db.stats.cache_misses
            total.plans_audited += db.stats.plans_audited
            total.audit_findings += db.stats.audit_findings
            total.last_seconds = max(total.last_seconds,
                                     db.stats.last_seconds)
        return total

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close every reader and the writer (idempotent)."""
        with self._registry_lock:
            if self._closed:
                return
            self._closed = True
            readers, self._readers = list(self._readers), {}
        for db in readers:
            db.close()
        self.writer.close()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
