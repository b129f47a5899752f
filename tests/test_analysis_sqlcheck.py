"""The SQL contract checker: schema catalogs, per-rule known-bad
fixtures, the read-only replica write-set rule, and the full
corpus-wide enumeration gate."""

import pytest

from repro.analysis import (
    StatementContract,
    check_contracts,
    check_statement,
    contract_report,
    engine_contracts,
    generic_catalog,
    optimized_catalog,
    static_contracts,
)
from repro.corpus.policies import fortune_corpus
from repro.corpus.preferences import jrc_suite
from repro.storage.database import Database
from repro.storage.decision_cache import DecisionCache
from repro.storage.optimized_schema import create_optimized_schema

#: The decision cache as it was keyed before it was clustered by
#: policy: ``pref_hash`` leads, so ``policy_id`` alone probes nothing.
_PREF_FIRST_DECISION_CACHE_DDL = """
CREATE TABLE decision_cache (
  pref_hash       TEXT NOT NULL,
  policy_id       INTEGER NOT NULL,
  policy_version  INTEGER NOT NULL,
  behavior        TEXT,
  rule_index      INTEGER,
  PRIMARY KEY (pref_hash, policy_id, policy_version)
) WITHOUT ROWID;
"""


@pytest.fixture(scope="module")
def optimized_db():
    return optimized_catalog()


@pytest.fixture(scope="module")
def generic_db():
    return generic_catalog()


def codes(findings):
    return [finding.code for finding in findings]


class TestCatalogs:
    def test_optimized_catalog_carries_every_tier_table(self, optimized_db):
        tables = set(optimized_db.table_names())
        for table in ("policy", "statement", "purpose", "recipient",
                      "data", "category", "meta", "policyref", "include",
                      "exclude", "check_log", "decision_cache"):
            assert table in tables

    def test_generic_catalog_carries_node_tables(self, generic_db):
        tables = set(generic_db.table_names())
        for table in ("policy", "statement", "purpose", "recipient",
                      "data_group", "data", "categories"):
            assert table in tables

    def test_catalogs_are_separate(self, optimized_db, generic_db):
        # The two schema families share table names with different
        # shapes — the whole reason the structural backend needs a
        # sidecar database.
        optimized = set(optimized_db.table_columns("statement"))
        generic = set(generic_db.table_columns("statement"))
        assert optimized != generic


class TestRulesFire:
    """Each contract rule proves itself on a seeded known-bad fixture."""

    def test_unknown_table(self, optimized_db):
        findings = check_statement(optimized_db, StatementContract(
            where="fixture", sql="SELECT * FROM no_such_table"))
        assert codes(findings) == ["unknown-table"]

    def test_unknown_column(self, optimized_db):
        findings = check_statement(optimized_db, StatementContract(
            where="fixture", sql="SELECT no_such_column FROM policy"))
        assert codes(findings) == ["unknown-column"]

    def test_sql_prepare_error(self, optimized_db):
        findings = check_statement(optimized_db, StatementContract(
            where="fixture", sql="SELEC syntax error"))
        assert codes(findings) == ["sql-prepare-error"]

    def test_bind_arity(self, optimized_db):
        findings = check_statement(optimized_db, StatementContract(
            where="fixture", binds=1,
            sql="SELECT policy_id FROM policy WHERE name = ? AND site = ?"))
        assert codes(findings) == ["bind-arity"]

    def test_placeholder_inside_literal_not_counted(self, optimized_db):
        findings = check_statement(optimized_db, StatementContract(
            where="fixture", binds=1,
            sql="SELECT '?' FROM policy WHERE policy_id = ?"))
        assert findings == []

    def test_illegal_write_on_read_only_tier(self, optimized_db):
        # The seeded replica-write fixture: a statement a replica must
        # never run — its contract carries the empty write-set.
        findings = check_statement(optimized_db, StatementContract(
            where="replica/seeded-write", binds=2,
            sql="INSERT INTO decision_cache (policy_id, pref_id, "
                "policy_version, behavior, rule_index) "
                "VALUES (?, ?, 1, 'block', 0)"))
        assert codes(findings) == ["illegal-write"]
        assert "read-only tier" in findings[0].message

    def test_illegal_write_outside_declared_write_set(self, optimized_db):
        findings = check_statement(optimized_db, StatementContract(
            where="fixture", binds=1,
            sql="DELETE FROM check_log WHERE check_id = ?",
            writes=frozenset({"decision_cache"})))
        assert codes(findings) == ["illegal-write"]

    def test_write_inside_write_set_passes(self, optimized_db):
        findings = check_statement(optimized_db, StatementContract(
            where="fixture", binds=1,
            sql="DELETE FROM check_log WHERE check_id = ?",
            writes=frozenset({"check_log"})))
        assert findings == []

    def test_unindexed_hot_predicate(self, optimized_db):
        # `consequence` has no index: demanding hot coverage flags it.
        findings = check_statement(optimized_db, StatementContract(
            where="fixture", binds=1,
            sql="SELECT * FROM statement WHERE consequence = ?",
            hot_tables=frozenset({"statement"})))
        assert codes(findings) == ["unindexed-hot-predicate"]
        assert findings[0].severity == "warning"

    def test_pref_first_cache_key_scans_on_invalidate(self):
        # The decision cache keyed pref_hash first, as stores held it
        # before it was clustered by policy: an install's delete reads
        # every cached decision, and the cache/invalidate contract says
        # so.
        db = Database()
        create_optimized_schema(db)
        db.executescript(_PREF_FIRST_DECISION_CACHE_DDL)
        contract, = [contract for contract in static_contracts()
                     if contract.where == "cache/invalidate"]
        findings = check_statement(db, contract)
        assert codes(findings) == ["unindexed-hot-predicate"]
        assert "SCAN decision_cache" in findings[0].message

    def test_decide_scans_rule_rows_without_their_key(self):
        # A preference_rule without its (pref_id, rule_index) key: each
        # policy's decision reads every stored rule of every registered
        # preference, and the cache/decide contract says so.
        db = Database()
        create_optimized_schema(db)
        DecisionCache().ensure_schema(db)
        db.executescript(
            "DROP TABLE preference_rule;"
            "CREATE TABLE preference_rule (pref_id INTEGER NOT NULL,"
            " rule_index INTEGER NOT NULL, body_id INTEGER NOT NULL,"
            " behavior TEXT NOT NULL);")
        contract, = [contract for contract in static_contracts()
                     if contract.where == "cache/decide"]
        findings = check_statement(db, contract)
        assert findings
        assert set(codes(findings)) == {"unindexed-hot-predicate"}
        assert all("preference_rule" in finding.message
                   for finding in findings)
        db.close()

    def test_decide_is_clean_against_the_shipped_schema(self,
                                                        optimized_db):
        contract, = [contract for contract in static_contracts()
                     if contract.where == "cache/decide"]
        assert contract.hot_tables >= {"preference_rule", "rule_fired"}
        assert check_statement(optimized_db, contract) == []

    def test_version_lookups_scan_policy_without_its_index(self):
        # Without idx_policy_name_site, an install's lookup of the
        # version it supersedes and both invalidation deletes read every
        # policy version ever installed.
        db = Database()
        create_optimized_schema(db)
        DecisionCache().ensure_schema(db)
        db.execute("DROP INDEX idx_policy_name_site")
        by_where = {c.where: c for c in static_contracts()}
        for where in ("server/active-version", "cache/invalidate",
                      "cache/bits-invalidate"):
            findings = check_statement(db, by_where[where])
            assert codes(findings) == ["unindexed-hot-predicate"], where
            assert "SCAN policy" in findings[0].message
        db.close()

    def test_aliased_hot_table_scan_is_flagged(self, optimized_db):
        # EXPLAIN names the step by its alias; the rule still fires.
        findings = check_statement(optimized_db, StatementContract(
            where="fixture", binds=1,
            sql="SELECT * FROM statement AS s WHERE s.consequence = ?",
            hot_tables=frozenset({"statement"})))
        assert codes(findings) == ["unindexed-hot-predicate"]

    def test_indexed_hot_predicate_passes(self, optimized_db):
        findings = check_statement(optimized_db, StatementContract(
            where="fixture", binds=1,
            sql="SELECT * FROM statement WHERE policy_id = ?",
            hot_tables=frozenset({"statement"})))
        assert findings == []


class TestStaticRegistry:
    def test_covers_every_tier(self):
        wheres = {contract.where for contract in static_contracts()}
        for expected in ("cache/lookup", "cache/insert",
                         "cache/invalidate", "cache/preference-id",
                         "cache/preference-intern", "cache/body-id",
                         "cache/body-intern", "cache/bits-insert",
                         "cache/bits-invalidate", "cache/rule-insert",
                         "cache/decide", "server/active-version",
                         "server/check-log-insert",
                         "server/retarget-policyref",
                         "refstore/insert-meta",
                         "refstore/applicable-policy[uri]",
                         "refstore/applicable-policy[cookie]"):
            assert expected in wheres

    def test_read_paths_declare_empty_write_sets(self):
        by_where = {c.where: c for c in static_contracts()}
        for read_path in ("cache/lookup", "cache/match",
                          "server/policy-version",
                          "refstore/applicable-policy[uri]"):
            assert by_where[read_path].writes == frozenset()

    def test_registry_is_clean(self):
        assert check_contracts(static_contracts()) == []


class TestEngineEnumeration:
    @pytest.fixture(scope="class")
    def enumerated(self):
        policies = fortune_corpus()[:3]
        preferences = jrc_suite()
        contracts, over_budget = engine_contracts(policies, preferences)
        return preferences, contracts, over_budget

    def test_every_engine_level_cell_covered(self, enumerated):
        """Acceptance: >= 1 statement per (engine/compiler x level)."""
        preferences, contracts, _ = enumerated
        wheres = [c.where for c in contracts]
        for level in preferences:
            for engine in ("plan", "bulk", "literal", "structural",
                           "xtable"):
                assert any(w.startswith(f"{level}/{engine}")
                           for w in wheres), (level, engine)

    def test_xtable_over_budget_rules_still_checked(self, enumerated):
        # The Figure 21 blank cell: at least one Medium-level XTABLE
        # rule exceeds the default complexity budget, but its SQL is
        # still enumerated and contract-checked.
        preferences, contracts, over_budget = enumerated
        assert over_budget >= 1
        medium = [c for c in contracts
                  if c.where.startswith("Medium/xtable")]
        assert medium

    def test_plan_contracts_declare_their_arity(self, enumerated):
        _, contracts, _ = enumerated
        plans = [c for c in contracts if "/plan" in c.where]
        assert plans
        for contract in plans:
            assert contract.binds is not None
            assert contract.probe is not None

    def test_enumerated_statements_are_clean(self, enumerated):
        _, contracts, _ = enumerated
        assert check_contracts(contracts) == []


class TestContractReport:
    def test_full_gate_is_clean(self):
        """Acceptance: zero unchecked statements, zero findings on the
        shipped engines against the shipped schema."""
        report = contract_report(fortune_corpus()[:3], jrc_suite())
        assert report.ok
        assert report.findings == ()
        sources = dict(report.per_source)
        for source in ("plan", "bulk", "literal", "structural", "xtable",
                       "cache", "server", "refstore"):
            assert sources.get(source, 0) >= 1, source
        assert report.statements_checked == sum(sources.values())
