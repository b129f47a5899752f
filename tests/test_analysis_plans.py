"""The EXPLAIN-plan auditor: scan detection, SQL taint, corpus gate."""

import pytest

from repro.analysis import (
    HOT_TABLES,
    audit_body_plan,
    audit_bulk_plan,
    audit_compiled_plan,
    audit_corpus,
    audit_decision_lookup,
    audit_statement,
    audit_translated_ruleset,
    scan_findings,
    taint_findings,
)
from repro.analysis.plans import plan_untrusted_strings, strip_quoted
from repro.storage.database import Database
from repro.storage.decision_cache import DecisionCache
from repro.storage.shredder import PolicyStore
from repro.translate.appel_to_sql import (
    OptimizedSqlTranslator,
    applicable_policy_literal,
)
from repro.translate.plan import BodyPlan, BulkPlan, CompiledPlan, PlanRule


@pytest.fixture()
def store(volga):
    """Optimized store with Volga's policy installed (policy_id 1)."""
    store = PolicyStore(Database())
    store.install_policy(volga)
    return store


class TestStripQuoted:
    def test_blanks_string_literals(self):
        assert strip_quoted("SELECT 'a''b', x") == "SELECT " + " " * 6 + ", x"

    def test_blanks_quoted_identifiers(self):
        live = strip_quoted('SELECT "weird""name" FROM t')
        assert '"' not in live and "FROM t" in live

    def test_preserves_length(self):
        sql = "SELECT 'abc' FROM \"t\" WHERE x = 'd'"
        assert len(strip_quoted(sql)) == len(sql)


class TestTaint:
    def test_quoted_value_is_inert(self):
        assert taint_findings("SELECT * FROM t WHERE b = 'block'",
                              ["block"], "w") == []

    def test_bare_value_is_flagged(self):
        findings = taint_findings("SELECT * FROM t WHERE b = block",
                                  ["block"], "w")
        assert [f.code for f in findings] == ["tainted-sql"]
        assert findings[0].severity == "error"

    def test_substring_of_identifier_not_flagged(self):
        # "data" the untrusted string vs the data table: word-bounded.
        assert taint_findings("SELECT * FROM datathing", ["data"],
                              "w") == []

    def test_digit_only_values_skipped(self):
        assert taint_findings("SELECT 1 FROM t LIMIT 1", ["1"], "w") == []

    def test_each_value_reported_once(self):
        findings = taint_findings("SELECT bad, bad, bad FROM t",
                                  ["bad", "bad"], "w")
        assert len(findings) == 1


class TestScanFindings:
    def test_indexed_probe_is_clean(self, store):
        sql = "SELECT * FROM statement WHERE policy_id = ?"
        assert scan_findings(store.db, sql, (1,)) == []

    def test_full_scan_of_hot_table_is_flagged(self, store):
        findings = scan_findings(store.db,
                                 "SELECT * FROM statement WHERE "
                                 "consequence = 'x'")
        assert [f.code for f in findings] == ["full-scan"]
        assert "statement" in findings[0].message

    def test_scan_through_a_covering_index_is_still_a_scan(self, store):
        # Planned as "SCAN statement USING COVERING INDEX
        # idx_statement_policy": every entry is read, index or not.
        sql = "SELECT COUNT(*) FROM statement"
        (step,) = store.db.explain(sql)
        assert "USING COVERING INDEX" in step.detail
        assert step.is_scan and not step.uses_index
        findings = scan_findings(store.db, sql)
        assert [f.code for f in findings] == ["full-scan"]

    def test_full_scan_of_cold_table_is_ignored(self, store):
        assert scan_findings(store.db, "SELECT * FROM policy") == []

    def test_custom_hot_set(self, store):
        findings = scan_findings(store.db, "SELECT * FROM policy",
                                 hot_tables=frozenset({"policy"}))
        assert len(findings) == 1

    def test_audit_statement_combines_scan_and_taint(self, store):
        # "retention" names a real column, so the statement still
        # EXPLAINs — but as the untrusted string it is live SQL text.
        findings = audit_statement(
            store.db,
            "SELECT * FROM statement WHERE consequence = retention",
            untrusted=["retention"], where="combo")
        assert {f.code for f in findings} == {"full-scan", "tainted-sql"}
        assert all(f.where == "combo" for f in findings)


class TestCompiledPlanAudit:
    def test_suite_plans_are_clean(self, store, suite):
        translator = OptimizedSqlTranslator()
        for level, rs in suite.items():
            plan = translator.compile_ruleset(rs)
            findings = audit_compiled_plan(
                store.db, plan, where=level,
                untrusted=plan_untrusted_strings(rs))
            assert findings == [], level

    def test_literal_translations_are_clean(self, store, suite):
        translator = OptimizedSqlTranslator()
        for level, rs in suite.items():
            translated = translator.translate_ruleset(
                rs, applicable_policy_literal(1))
            findings = audit_translated_ruleset(
                store.db, translated, where=level,
                untrusted=plan_untrusted_strings(rs))
            assert findings == [], level

    def test_bind_arity_mismatch_detected(self, store):
        doctored = CompiledPlan(
            rules=(PlanRule(behavior="block", rule_index=0,
                            sql="SELECT 'block' AS behavior, "
                                "0 AS rule_index"),),
            sql="SELECT 'block' AS behavior, 0 AS rule_index",
        )
        findings = audit_compiled_plan(store.db, doctored)
        assert [f.code for f in findings] == ["bind-arity"]

    def test_placeholders_inside_literals_not_counted(self, store):
        plan = CompiledPlan(
            rules=(PlanRule(behavior="block", rule_index=0, sql="x"),),
            sql="SELECT 'what?' AS behavior, 0 AS rule_index "
                "FROM policy WHERE policy_id = ?",
        )
        assert audit_compiled_plan(store.db, plan) == []

    def test_untrusted_strings_cover_behaviors_and_attributes(self, jane):
        collected = plan_untrusted_strings(jane)
        assert "block" in collected
        assert "request" in collected
        assert any(value == "always" for value in collected)


class TestBulkPlanAudit:
    def test_suite_bulk_plans_are_clean(self, store, suite):
        translator = OptimizedSqlTranslator()
        for level, rs in suite.items():
            plan = translator.compile_bulk(rs)
            findings = audit_bulk_plan(
                store.db, plan, where=f"{level}/bulk",
                untrusted=plan_untrusted_strings(rs))
            assert findings == [], level

    def test_bind_arity_mismatch_detected(self, store, suite):
        """A bulk plan binds nothing: a stray ``?`` would mis-bind."""
        plan = OptimizedSqlTranslator().compile_bulk(suite["Low"])
        doctored = BulkPlan(rules=plan.rules,
                            sql=plan.sql.replace("active = 1",
                                                 "active = ?"))
        findings = audit_bulk_plan(store.db, doctored)
        assert [f.code for f in findings] == ["bind-arity"]
        assert findings[0].severity == "error"

    def test_empty_bulk_plan_is_clean(self, store):
        assert audit_bulk_plan(store.db,
                               BulkPlan(rules=(), sql="")) == []


class TestBodyPlanAudit:
    @pytest.fixture()
    def bits_db(self, store):
        DecisionCache().ensure_schema(store.db)
        return store.db

    def test_suite_body_plans_are_clean(self, bits_db, suite):
        translator = OptimizedSqlTranslator()
        for level, rs in suite.items():
            for index, rule in enumerate(rs.rules):
                findings = audit_body_plan(
                    bits_db, translator.compile_body(rule),
                    where=f"{level}/body[{index}]",
                    untrusted=plan_untrusted_strings(rs))
                assert findings == [], (level, index)

    def test_bind_arity_mismatch_detected(self, bits_db):
        findings = audit_body_plan(bits_db, BodyPlan(
            sql="SELECT policy_id, fired, 0 AS fresh FROM rule_fired"))
        assert [f.code for f in findings] == ["bind-arity"]

    def test_bit_read_by_scan_is_flagged(self, bits_db):
        # Reading the bits by body id alone cannot use the key, which
        # leads with policy_id: every stored bit would be read.
        findings = audit_body_plan(bits_db, BodyPlan(
            sql="SELECT policy_id, fired, 0 AS fresh FROM rule_fired "
                "WHERE body_id = ?"))
        assert [f.code for f in findings] == ["full-scan"]
        assert "rule_fired" in findings[0].message


class TestDecisionLookupAudit:
    @pytest.fixture()
    def cache_db(self, store):
        cache = DecisionCache()
        cache.ensure_schema(store.db)
        return cache, store.db

    def test_lookup_and_match_statements_are_clean(self, cache_db):
        cache, db = cache_db
        assert audit_decision_lookup(db, cache.LOOKUP_SQL,
                                     ("probe", 1)) == []
        assert audit_decision_lookup(db, cache.MATCH_SQL, ("probe",)) == []

    def test_unindexed_cache_read_is_flagged(self, cache_db):
        _, db = cache_db
        findings = audit_decision_lookup(
            db, "SELECT * FROM decision_cache WHERE behavior = 'block'")
        assert [f.code for f in findings] == ["cache-scan"]
        assert findings[0].severity == "error"

    def test_aliased_cache_scan_is_flagged(self, cache_db):
        # EXPLAIN names the step "dc", not "decision_cache".
        _, db = cache_db
        findings = audit_decision_lookup(
            db, "SELECT * FROM decision_cache AS dc "
                "WHERE dc.behavior = 'block'")
        assert [f.code for f in findings] == ["cache-scan"]
        assert "'decision_cache'" in findings[0].message

    def test_preference_key_scan_is_flagged(self, cache_db):
        # The hash -> handle join is part of every cache read.
        _, db = cache_db
        findings = audit_decision_lookup(
            db, "SELECT pref_id FROM preference_key "
                "WHERE pref_hash LIKE 'ab%'")
        assert [f.code for f in findings] == ["cache-scan"]

    def test_cache_scan_is_stricter_than_hot_table_scan(self, cache_db):
        # scan_findings alone would pass this statement — the cache
        # table is not in HOT_TABLES; the cache audit must not.
        _, db = cache_db
        sql = "SELECT * FROM decision_cache WHERE behavior = 'block'"
        assert scan_findings(db, sql) == []
        assert audit_decision_lookup(db, sql) != []


class TestCorpusGate:
    def test_small_corpus_audit_is_clean(self, small_corpus, suite):
        report = audit_corpus(small_corpus, suite)
        assert report.ok
        assert report.policies == len(small_corpus)
        assert report.preferences == len(suite)
        assert report.plans_explained == len(suite)
        assert report.findings == ()
        assert report.differential_ok

    def test_no_literal_mode_explains_only_plans(self, small_corpus,
                                                 suite):
        report = audit_corpus(small_corpus, suite, audit_literal=False)
        assert report.ok
        # Per preference: one compiled plan + one full-corpus bulk plan
        # + one structural XQuery plan; one body plan per distinct rule
        # body across the suite; plus the two static cache statements
        # audited once.
        bodies = {OptimizedSqlTranslator().compile_body(rule).sql
                  for preference in suite.values()
                  for rule in preference.rules}
        assert report.bulk_plans_explained == len(suite)
        assert report.structural_plans_explained == len(suite)
        assert report.body_plans_explained == len(bodies)
        assert report.cache_lookups_explained == 2
        assert report.statements_explained == \
            3 * len(suite) + len(bodies) + 2

    def test_unreachable_rule_surfaces_in_report(self, small_corpus,
                                                 suite):
        from repro.appel.model import rule, ruleset

        rs = suite["Very Low"]
        poisoned = ruleset(*rs.rules, rule("block"))  # after catch-all
        report = audit_corpus(small_corpus, {"poisoned": poisoned},
                              audit_literal=False)
        dead = [f for f in report.reachability
                if f.code == "unreachable-rule"]
        assert [f.rule_index for f in dead] == [len(rs.rules)]
        assert report.differential_ok  # flagged rule never fired
        assert report.ok  # reachability findings inform, not gate

    def test_hot_tables_match_optimized_schema(self):
        assert HOT_TABLES == {"statement", "purpose", "recipient",
                              "data", "category"}
