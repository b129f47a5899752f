"""The materialized decision cache: correctness, staleness, crashes.

Three layers of proof that the cache never serves a wrong decision:

* unit tests over :class:`DecisionCache` (hit/miss/negative rows, the
  version-guarded lookup, install-time invalidation, forward migration);
* a hypothesis state machine interleaving installs, rollbacks,
  registrations and corpus matches on a live :class:`PolicyServer`,
  checking every served decision against the native APPEL engine — the
  cache and the rule bits it is decided from are invisible except in
  the counters;
* chaos: a crash mid-populate must leave *no* partial rows after
  recovery (population is one transaction), and a faulting cache write
  must never fail the check it would have accelerated.
"""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    precondition,
    rule,
)
import hypothesis.strategies as st

from repro.analysis.plans import audit_decision_lookup
from repro.appel.engine import AppelEngine
from repro.corpus.preferences import jrc_suite
from repro.errors import StorageError
from repro.p3p.model import Policy, PurposeValue, RecipientValue, Statement
from repro.server.policy_server import PolicyServer
from repro.storage.database import Database
from repro.storage.decision_cache import DecisionCache, decision_rows
from repro.storage.shredder import PolicyStore
from repro.testing.faults import FaultPlan, crash_pool, install_pool_faults

#: The decision cache as stores before clustering hold it: a rowid
#: table plus a separate primary-key index.
_ROWID_DECISION_CACHE_DDL = """
CREATE TABLE decision_cache (
  pref_hash       TEXT NOT NULL,
  policy_id       INTEGER NOT NULL,
  policy_version  INTEGER NOT NULL,
  behavior        TEXT,
  rule_index      INTEGER,
  computed_at     TEXT NOT NULL,
  PRIMARY KEY (pref_hash, policy_id, policy_version)
);
"""

#: The same rows clustered by preference (``WITHOUT ROWID``, keyed
#: ``pref_hash`` first), as stores held them before the cache was
#: clustered by policy on integer keys.
_PREF_CLUSTERED_DECISION_CACHE_DDL = (
    _ROWID_DECISION_CACHE_DDL.rstrip().rstrip(";") + " WITHOUT ROWID;")

#: The first layout: no ``computed_at`` column.
_FIRST_DECISION_CACHE_DDL = """
CREATE TABLE decision_cache (
  pref_hash TEXT NOT NULL,
  policy_id INTEGER NOT NULL,
  policy_version INTEGER NOT NULL,
  behavior TEXT, rule_index INTEGER,
  PRIMARY KEY (pref_hash, policy_id, policy_version));
"""

_NAMES = ("alpha", "beta")
_RETENTIONS = ("no-retention", "stated-purpose", "indefinitely")
_LEVELS = ("Very High", "Medium", "Low")


def _policy(name: str, retention: str) -> Policy:
    return Policy(
        name=name,
        discuri=f"http://{name}.example.com/p",
        statements=(
            Statement(
                purposes=(PurposeValue("current"),),
                recipients=(RecipientValue("ours"),),
                retention=retention,
            ),
        ),
    )


def _open_legacy_store(tmp_path, ddl):
    """Write two preferences' decisions over three policies into a
    table of *ddl*, then open the file with a server and read them back
    through the migrated table."""
    path = str(tmp_path / "legacy.db")
    legacy = PolicyStore(Database(path))
    ids = [legacy.install_policy(_policy(f"p{index}", "no-retention"),
                                 version=1).policy_id
           for index in range(3)]
    legacy.db.executescript(ddl)
    legacy.db.executemany(
        "INSERT INTO decision_cache VALUES (?, ?, ?, ?, ?, ?)",
        [(pref_hash, policy_id, 1,
          "block" if policy_id == ids[0] else None,
          0 if policy_id == ids[0] else None, "2003-03-05T00:00:00")
         for pref_hash in ("h", "g") for policy_id in ids])
    legacy.db.commit()
    legacy.db.close()

    server = PolicyServer(path)
    try:
        with server.pool.read() as db:
            table_sql = db.scalar(
                "SELECT sql FROM sqlite_master "
                "WHERE name = 'decision_cache'")
            assert "WITHOUT ROWID" in table_sql
            assert "pref_hash" not in table_sql
            assert db.scalar(
                "SELECT COUNT(*) FROM sqlite_master "
                "WHERE tbl_name LIKE 'decision_cache%'") == 1
            assert db.scalar("SELECT COUNT(*) FROM preference_key") == 2
            assert server.decisions.row_count(db) == 6
            for pref_hash in ("h", "g"):
                assert server.decisions.lookup(db, pref_hash, ids[0]) == \
                    ("block", 0)
                assert server.decisions.lookup(db, pref_hash, ids[1]) == \
                    (None, None)
    finally:
        server.close()


@pytest.fixture()
def store():
    store = PolicyStore(Database())
    yield store
    store.db.close()


@pytest.fixture()
def cache(store):
    cache = DecisionCache()
    cache.ensure_schema(store.db)
    return cache


class TestCacheTable:
    def test_lookup_misses_then_hits(self, store, cache):
        policy_id = store.install_policy(_policy("a", "no-retention"),
                                         version=1).policy_id
        assert cache.lookup(store.db, "h", policy_id) is None
        cache.store_rows(store.db,
                         [("h", policy_id, 1, "block", 0)])
        assert cache.lookup(store.db, "h", policy_id) == ("block", 0)
        assert cache.hits == 1 and cache.misses == 1

    def test_negative_decision_is_a_hit_not_a_miss(self, store, cache):
        policy_id = store.install_policy(_policy("a", "no-retention"),
                                         version=1).policy_id
        cache.store_rows(store.db,
                         [("h", policy_id, 1, None, None)])
        # Row-present-with-NULLs: "no rule fires" is a cached fact.
        assert cache.lookup(store.db, "h", policy_id) == (None, None)
        assert cache.hits == 1 and cache.misses == 0

    def test_version_guard_rejects_mismatched_rows(self, store, cache):
        policy_id = store.install_policy(_policy("a", "no-retention"),
                                         version=2).policy_id
        cache.store_rows(store.db,
                         [("h", policy_id, 1, "block", 0)])
        # A row written against version 1 of an id whose live version is
        # 2 must miss (defense-in-depth; ids are immutable in practice).
        assert cache.lookup(store.db, "h", policy_id) is None

    def test_invalidate_only_inactive_versions(self, store, cache):
        old = store.install_policy(_policy("a", "no-retention"),
                                   version=1, active=False).policy_id
        new = store.install_policy(_policy("a", "indefinitely"),
                                   version=2).policy_id
        cache.store_rows(store.db, [("h", old, 1, "block", 0),
                                    ("h", new, 2, "request", 1)])
        assert cache.invalidate_inactive(store.db, "a", None) == 1
        assert cache.lookup(store.db, "h", new) == ("request", 1)
        assert cache.row_count(store.db) == 1
        assert cache.invalidated == 1

    def test_decision_rows_fill_negatives(self):
        rows = decision_rows("h", [(1, 1), (2, 1)], {1: ("block", 0)})
        assert rows == [("h", 1, 1, "block", 0),
                        ("h", 2, 1, None, None)]

    def test_store_without_computed_at_migrates_forward(self, store):
        """The first layout (no ``computed_at``) opens in today's shape
        with its rows kept."""
        policy_id = store.install_policy(_policy("a", "no-retention"),
                                         version=1).policy_id
        store.db.executescript(_FIRST_DECISION_CACHE_DDL)
        store.db.execute("INSERT INTO decision_cache VALUES (?, ?, ?, ?, ?)",
                         ("h", policy_id, 1, "block", 0))
        store.db.commit()
        DecisionCache().ensure_schema(store.db)
        assert store.db.table_columns("decision_cache") == [
            "policy_id", "pref_id", "policy_version", "behavior",
            "rule_index"]
        assert DecisionCache().lookup(store.db, "h", policy_id) == \
            ("block", 0)

    def test_table_is_clustered_on_its_primary_key(self, store, cache):
        table_sql = store.db.scalar(
            "SELECT sql FROM sqlite_master WHERE name = 'decision_cache'")
        assert "WITHOUT ROWID" in table_sql
        assert "PRIMARY KEY (policy_id, pref_id, policy_version)" in \
            table_sql
        policy_id = store.install_policy(_policy("a", "no-retention"),
                                         version=1).policy_id
        assert audit_decision_lookup(store.db, DecisionCache.LOOKUP_SQL,
                                     ("h", policy_id)) == []
        assert audit_decision_lookup(store.db, DecisionCache.MATCH_SQL,
                                     ("h",)) == []
        # An install's delete reads one key range per superseded
        # version, never the whole cache.
        steps = [step.detail for step in store.db.explain(
            DecisionCache._INVALIDATE, ("a", None))]
        assert "SEARCH decision_cache USING PRIMARY KEY (policy_id=?)" \
            in steps
        assert not any(detail.startswith("SCAN decision_cache")
                       for detail in steps)

    def test_rowid_store_is_clustered_with_rows_kept(self, tmp_path):
        """A store written with the rowid table (and its separate
        primary-key index) opens clustered by policy, every cached row
        intact."""
        _open_legacy_store(tmp_path, _ROWID_DECISION_CACHE_DDL)

    def test_pref_clustered_store_is_reclustered_with_rows_kept(
            self, tmp_path):
        """A store written with the table clustered by ``pref_hash``
        opens clustered by policy, every cached row intact."""
        _open_legacy_store(tmp_path, _PREF_CLUSTERED_DECISION_CACHE_DDL)

    def test_failed_clustering_leaves_the_rowid_table(self, store):
        """The rebuild is one transaction: a failure in its last step
        rolls every step back."""
        store.db.executescript(_ROWID_DECISION_CACHE_DDL)
        policy_id = store.install_policy(_policy("a", "no-retention"),
                                         version=1).policy_id
        store.db.execute(
            "INSERT INTO decision_cache VALUES (?, ?, ?, ?, ?, ?)",
            ("h", policy_id, 1, "block", 0, "2003-03-05T00:00:00"))
        store.db.commit()

        def refuse_drop(action, table, *_):
            return (sqlite3.SQLITE_DENY
                    if action == sqlite3.SQLITE_DROP_TABLE
                    else sqlite3.SQLITE_OK)

        store.db._connection.set_authorizer(refuse_drop)
        with pytest.raises(StorageError):
            DecisionCache().ensure_schema(store.db)
        store.db._connection.set_authorizer(None)
        assert store.db.scalar(
            "SELECT sql FROM sqlite_master WHERE name = 'decision_cache'"
        ) == _ROWID_DECISION_CACHE_DDL.strip().rstrip(";")
        tables = store.db.scalar(
            "SELECT group_concat(name) FROM sqlite_master")
        assert "decision_cache_by_pref" not in tables
        assert "preference_key" not in tables
        assert tuple(store.db.query_one(
            "SELECT behavior, rule_index FROM decision_cache "
            "WHERE pref_hash = 'h'")) == ("block", 0)
        DecisionCache().ensure_schema(store.db)
        assert DecisionCache().lookup(store.db, "h", policy_id) == \
            ("block", 0)

    def test_snapshot_reports_hit_rate(self, cache):
        cache.record_hits(3, 1)
        snapshot = cache.snapshot()
        assert snapshot["hits"] == 3 and snapshot["misses"] == 1
        assert snapshot["hit_rate"] == pytest.approx(0.75)


class TestServerIntegration:
    def test_register_then_match_is_all_hits(self, corpus, suite):
        server = PolicyServer()
        try:
            for policy in corpus[:8]:
                server.install_policy(policy)
            preference = suite["High"]
            assert server.register_preference(preference) == 8
            result = server.match_all(preference)
            assert len(result.decisions) == 8
            assert result.cache_hits == 8 and result.cache_misses == 0
            assert all(decision.cached for decision in result.decisions)
        finally:
            server.close()

    def test_unregistered_match_repairs_and_warms(self, corpus, suite):
        server = PolicyServer()
        try:
            for policy in corpus[:6]:
                server.install_policy(policy)
            preference = suite["Medium"]
            cold = server.match_all(preference)
            assert cold.cache_misses == 6 and cold.cache_hits == 0
            warm = server.match_all(preference)
            assert warm.cache_misses == 0 and warm.cache_hits == 6
            assert [d.decision for d in warm.decisions] == \
                [d.decision for d in cold.decisions]
        finally:
            server.close()

    def test_reinstall_invalidates_exactly_that_name(self, corpus, suite):
        server = PolicyServer()
        try:
            for policy in corpus[:5]:
                server.install_policy(policy)
            preference = suite["High"]
            server.register_preference(preference)
            server.install_policy(corpus[0])      # version bump
            result = server.match_all(preference)
            assert result.cache_misses == 1
            missed = [d for d in result.decisions if not d.cached]
            assert [d.name for d in missed] == [corpus[0].name]
            assert missed[0].version == 2
        finally:
            server.close()

    def test_racing_install_between_listing_and_repair_rereads(
            self, suite, monkeypatch):
        """The bulk repair plan only sees active policies, and the
        listing and the repair are separate statements: an install
        committing between them deactivates a listed version, which
        (before the re-read) was served with no decision at all."""
        server = PolicyServer()
        try:
            server.install_policy(_policy("alpha", "no-retention"))
            server.install_policy(_policy("beta", "no-retention"))
            preference = suite["Very High"]
            server.register_preference(preference)
            # v2: beta stays cached, alpha's new version is the miss
            # the repair query must decide.
            server.install_policy(_policy("alpha", "stated-purpose"))

            real = server.decisions.match_rows
            state = {"calls": 0}

            def racing(db, pref_hash):
                rows = real(db, pref_hash)
                state["calls"] += 1
                if state["calls"] == 1:
                    # v3 lands after the listing, before the repair —
                    # deactivating the v2 the listing just returned.
                    server.install_policy(
                        _policy("alpha", "indefinitely"))
                return rows

            monkeypatch.setattr(server.decisions, "match_rows", racing)
            result = server.match_all(preference)

            assert state["calls"] == 2
            assert server.decisions.repair_races == 1
            alpha = [d for d in result.decisions if d.name == "alpha"]
            assert [d.version for d in alpha] == [3]
            verdict = AppelEngine().evaluate(
                _policy("alpha", "indefinitely"), preference)
            assert (alpha[0].behavior, alpha[0].rule_index) == \
                (verdict.behavior, verdict.rule_index)
            assert all(d.behavior is not None for d in result.decisions)
        finally:
            server.close()

    def test_sustained_racing_installs_never_loop_forever(
            self, suite, monkeypatch):
        """When every re-read races yet another install, the match
        serves without the vanished versions instead of retrying
        unboundedly."""
        from repro.server.policy_server import MATCH_RACE_RETRIES

        server = PolicyServer()
        try:
            server.install_policy(_policy("alpha", "no-retention"))
            server.install_policy(_policy("beta", "no-retention"))
            preference = suite["Very High"]
            server.register_preference(preference)
            server.install_policy(_policy("alpha", "stated-purpose"))

            real = server.decisions.match_rows
            retentions = _RETENTIONS

            def always_racing(db, pref_hash):
                rows = real(db, pref_hash)
                version = server.decisions.repair_races + 3
                server.install_policy(_policy(
                    "alpha", retentions[version % len(retentions)]))
                return rows

            monkeypatch.setattr(server.decisions, "match_rows",
                                always_racing)
            result = server.match_all(preference)

            assert server.decisions.repair_races == MATCH_RACE_RETRIES + 1
            assert [d.name for d in result.decisions] == ["beta"]
            assert all(d.behavior is not None for d in result.decisions)
        finally:
            server.close()

    def test_cache_decisions_off_bypasses_the_table(self, corpus, suite):
        server = PolicyServer(cache_decisions=False)
        try:
            for policy in corpus[:4]:
                server.install_policy(policy)
            result = server.match_all(suite["Low"])
            assert len(result.decisions) == 4
            # Without write-back every match recomputes.
            again = server.match_all(suite["Low"])
            assert again.cache_misses == 4
            assert [d.decision for d in again.decisions] == \
                [d.decision for d in result.decisions]
        finally:
            server.close()


class TestChaos:
    def test_crash_mid_populate_leaves_no_partial_rows(self, tmp_path,
                                                       corpus, suite):
        """Population is one transaction: a crash between the cache
        INSERTs and the commit must recover to *zero* rows, never some."""
        path = str(tmp_path / "p3p.db")
        server = PolicyServer(path)
        for policy in corpus[:6]:
            server.install_policy(policy)
        pool = server.pool
        original = pool.writer.executemany

        def crash_after_write(sql, rows):
            result = original(sql, rows)
            if "decision_cache" in sql:
                # Rows are in the open transaction; die before commit.
                crash_pool(pool)
                raise sqlite3.OperationalError("injected: crashed")
            return result

        pool.writer.executemany = crash_after_write
        with pytest.raises(Exception):
            server.register_preference(suite["High"])

        recovered = Database(path)
        try:
            for table in ("decision_cache", "rule_fired", "rule_body"):
                assert recovered.scalar(
                    f"SELECT COUNT(*) FROM {table}") == 0, table
            assert recovered.scalar(
                "SELECT COUNT(*) FROM policy") == 6
        finally:
            recovered.close()

    def test_faulting_write_back_never_fails_the_check(self, corpus,
                                                       suite):
        """check() must survive a decision-cache write failure — the
        cache is an optimization, and the error is counted, not raised."""
        server = PolicyServer()
        try:
            for policy in corpus[:3]:
                server.install_policy(policy)
            plan = FaultPlan(every={"sqlite": 1})
            # Match the INSERT alone: in-memory reads share the writer
            # connection, and the warm-path SELECT names the table too.
            uninstall = install_pool_faults(
                server.pool, plan,
                match="INSERT OR REPLACE INTO decision_cache")
            try:
                result = server.match_all(suite["High"])
                assert result.cache_misses == 3
                assert server.decisions.write_errors >= 1
                # Still correct, still recomputing (nothing cached).
                again = server.match_all(suite["High"])
                assert again.cache_misses == 3
                assert [d.decision for d in again.decisions] == \
                    [d.decision for d in result.decisions]
            finally:
                uninstall()
            # Healed: the next match repairs and the one after hits.
            server.match_all(suite["High"])
            assert server.match_all(suite["High"]).cache_misses == 0
        finally:
            server.close()


class DecisionCacheMachine(RuleBasedStateMachine):
    """Installs, rollbacks, registrations and matches in random order:
    every decision the server returns — cached, decided from stored rule
    bits, or evaluated — must equal the native APPEL engine's verdict on
    the currently active version."""

    def __init__(self):
        super().__init__()
        self.server = PolicyServer()
        self.native = AppelEngine()
        self.suite = {level: jrc_suite()[level] for level in _LEVELS}
        self.model: dict[str, Policy] = {}
        self.installed: dict[int, Policy] = {}
        self.installs: dict[str, int] = {}

    @rule(name=st.sampled_from(_NAMES),
          retention=st.sampled_from(_RETENTIONS))
    def install(self, name, retention):
        policy = _policy(name, retention)
        report = self.server.install_policy(policy)
        self.model[name] = policy
        self.installed[report.policy_id] = policy
        self.installs[name] = self.installs.get(name, 0) + 1

    @precondition(lambda self: any(n > 1 for n in self.installs.values()))
    @rule(data=st.data())
    def rollback(self, data):
        # Re-activates a version whose decisions and bits its
        # successor's install deleted.
        name = data.draw(st.sampled_from(sorted(
            name for name, count in self.installs.items() if count > 1)))
        with self.server.pool.write():
            policy_id = self.server.versions.rollback(name)
        self.model[name] = self.installed[policy_id]

    @precondition(lambda self: self.model)
    @rule(level=st.sampled_from(_LEVELS))
    def register(self, level):
        cached = self.server.register_preference(self.suite[level])
        assert cached == len(self.model)
        assert self.server.match_all(self.suite[level]).cache_misses == 0

    @precondition(lambda self: self.model)
    @rule(level=st.sampled_from(_LEVELS))
    def match(self, level):
        result = self.server.match_all(self.suite[level])
        by_name = {decision.name: decision
                   for decision in result.decisions}
        assert set(by_name) == set(self.model)
        for name, policy in self.model.items():
            verdict = self.native.evaluate(policy, self.suite[level])
            decision = by_name[name]
            assert (decision.behavior, decision.rule_index) == \
                (verdict.behavior, verdict.rule_index), (name, level)

    @precondition(lambda self: self.model)
    @rule(level=st.sampled_from(_LEVELS))
    def match_twice_is_stable(self, level):
        first = self.server.match_all(self.suite[level])
        second = self.server.match_all(self.suite[level])
        assert [d.decision for d in second.decisions] == \
            [d.decision for d in first.decisions]
        assert second.cache_misses == 0

    def teardown(self):
        self.server.close()


DecisionCacheMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=12, deadline=None,
)
TestDecisionCacheMachine = DecisionCacheMachine.TestCase
