"""BulkPlan: set-at-a-time corpus matching against every reference.

Four independent evaluation pipelines must agree on every (policy,
preference) decision across the full corpus x all five JRC levels:

* the native APPEL engine (the paper's client-side reference),
* the literal SQL pipeline (policy id spliced in, one round-trip per
  rule — :func:`evaluate_ruleset`),
* the per-policy compiled plan (:meth:`CompiledPlan.execute`),
* the bulk plan (:meth:`BulkPlan.execute`) — the whole corpus in one
  statement.
"""

from __future__ import annotations

import pytest

from repro.appel.engine import AppelEngine
from repro.storage.generic_shredder import GenericPolicyStore
from repro.storage.shredder import PolicyStore
from repro.translate.appel_to_sql import (
    GenericSqlTranslator,
    OptimizedSqlTranslator,
    applicable_policy_literal,
    evaluate_ruleset,
)
from repro.translate.plan import BulkPlan, combine_bulk_rules


@pytest.fixture(scope="module")
def optimized_store(corpus):
    store = PolicyStore()
    handles = [store.install_policy(policy).policy_id
               for policy in corpus]
    yield store, handles
    store.db.close()


class TestBulkPlanShape:
    def test_full_corpus_form_takes_no_parameters(self, suite):
        translator = OptimizedSqlTranslator()
        for preference in suite.values():
            plan = translator.compile_bulk(preference)
            assert plan.sql.count("?") == 0

    def test_first_rule_wins_via_window_function(self, suite):
        plan = OptimizedSqlTranslator().compile_bulk(suite["Low"])
        assert "MIN(rule_index) OVER (PARTITION BY policy_id)" in plan.sql
        assert "LIMIT 1" not in plan.sql
        assert plan.sql.count("UNION ALL") == len(plan.rules) - 1

    def test_empty_plan_never_touches_the_database(self):
        plan = BulkPlan(rules=(), sql=combine_bulk_rules(()))
        assert plan.sql == ""
        # db=None proves no query is attempted.
        assert plan.execute(None) == {}

    def test_only_active_policies_are_evaluated(self, suite):
        assert "active = 1" in OptimizedSqlTranslator().BULK_POLICY_SOURCE


class TestDifferentialFullCorpus:
    """Every corpus policy x all five JRC preference levels, 4 ways."""

    def test_bulk_agrees_with_plan_literal_and_native(
            self, optimized_store, corpus, suite):
        store, handles = optimized_store
        translator = OptimizedSqlTranslator()
        native = AppelEngine()
        checked = 0
        for level, preference in suite.items():
            plan = translator.compile_ruleset(preference)
            fired = translator.compile_bulk(preference).execute(store.db)
            for policy, handle in zip(corpus, handles):
                got = fired.get(handle, (None, None))
                assert got == plan.execute(store.db, handle), \
                    (level, handle)
                literal = translator.translate_ruleset(
                    preference, applicable_policy_literal(handle))
                assert got == evaluate_ruleset(store.db, literal), \
                    (level, handle)
                verdict = native.evaluate(policy, preference)
                assert got == (verdict.behavior, verdict.rule_index), \
                    (level, handle)
                checked += 1
        assert checked == len(corpus) * len(suite)

    def test_generic_schema_bulk_agrees_too(self, small_corpus, suite):
        store = GenericPolicyStore()
        handles = [store.install_policy(policy)
                   for policy in small_corpus]
        translator = GenericSqlTranslator()
        try:
            for preference in suite.values():
                plan = translator.compile_ruleset(preference)
                fired = translator.compile_bulk(preference) \
                    .execute(store.db)
                for handle in handles:
                    assert fired.get(handle, (None, None)) == \
                        plan.execute(store.db, handle)
        finally:
            store.db.close()


class TestSingleRoundTrip:
    def test_whole_corpus_is_exactly_one_statement(self, optimized_store,
                                                   suite):
        store, handles = optimized_store
        plan = OptimizedSqlTranslator().compile_bulk(suite["High"])
        plan.execute(store.db)                   # warm
        before = store.db.stats.statements
        fired = plan.execute(store.db)
        assert store.db.stats.statements == before + 1
        assert set(fired) <= set(handles)

    def test_superseded_versions_produce_no_rows(self, corpus, suite):
        """The bulk source is the *active* corpus: reinstalling a name
        leaves the old policy_id out of the next bulk result."""
        from repro.storage.versioning import VersionedPolicyStore

        store = VersionedPolicyStore()
        try:
            first = store.install(corpus[0]).policy_id
            second = store.install(corpus[0]).policy_id
            fired = OptimizedSqlTranslator() \
                .compile_bulk(suite["Very High"]).execute(store.db)
            assert first not in fired
            assert set(fired) <= {second}
        finally:
            store.db.close()
