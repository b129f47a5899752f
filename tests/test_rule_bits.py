"""Rule bits: registration and corpus matching decided per rule body.

A preference's decision against a policy is the first rule whose body
fires, and whether a body fires does not depend on the rest of the
ruleset.  The server stores one bit per (rule body, policy id) in
``rule_fired`` and derives every registration's and every cache-miss
match's decisions from them.  These tests prove the composition equals
the set-at-a-time :class:`~repro.translate.plan.BulkPlan` and the
native APPEL engine over the full corpus, and that each bit is
evaluated once: shared bodies are reused, an install costs only the new
version's bits, a rollback refills the bits its install deleted, and
``cache_decisions=False`` stores none.
"""

from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.appel.engine import AppelEngine
from repro.appel.model import Ruleset
from repro.appel.templates import compose_preference, template_keys
from repro.corpus.volga import jane_preference
from repro.p3p.model import Policy, PurposeValue, RecipientValue, Statement
from repro.server.policy_server import (
    PolicyServer,
    preference_hash,
    rule_body_hash,
)

#: Catch-all behaviors a sampled preference may end with; ``None`` drops
#: the catch-all, so some policies get no decision (a cached negative).
_CATCH_ALLS = ("request", "block", "limited", None)


def _sampled_preferences(count: int, seed: int = 2003) -> list[Ruleset]:
    """*count* distinct preferences composed from the template catalog:
    one to four templates in a random order, as the JRC editor builds
    them."""
    rng = random.Random(seed)
    keys = template_keys()
    preferences: dict[str, Ruleset] = {}
    while len(preferences) < count:
        catch_all = rng.choice(_CATCH_ALLS)
        composed = compose_preference(rng.sample(keys, rng.randint(1, 4)),
                                      catch_all or "request")
        if catch_all is None:
            composed = Ruleset(rules=composed.rules[:-1])
        preferences.setdefault(
            preference_hash(composed), composed)
    return list(preferences.values())


def _bodies(*preferences: Ruleset) -> set[str]:
    return {rule_body_hash(rule) for preference in preferences
            for rule in preference.rules}


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


def _bit_rows(server: PolicyServer, policy_id: int | None = None) -> int:
    with server.pool.read() as db:
        if policy_id is None:
            return int(db.scalar("SELECT COUNT(*) FROM rule_fired"))
        return int(db.scalar(
            "SELECT COUNT(*) FROM rule_fired WHERE policy_id = ?",
            (policy_id,)))


@pytest.fixture(scope="module")
def corpus_server(corpus):
    server = PolicyServer()
    ids = [server.install_policy(policy).policy_id for policy in corpus]
    yield server, ids
    server.close()


class TestBodyHash:
    def test_behavior_description_and_prompt_are_not_the_body(self, jane):
        rule = jane.rules[0]
        twin = replace(rule, behavior="block", description="other",
                       prompt=True)
        assert rule_body_hash(twin) == rule_body_hash(rule)

    def test_different_bodies_hash_apart(self, jane):
        assert len(_bodies(jane)) == len(jane.rules)


class TestDifferentialFullCorpus:
    """Bits composition against BulkPlan and the native engine, every
    corpus policy, both the registration and the match-repair path."""

    def _check(self, server, ids, corpus, preferences):
        native = AppelEngine()
        prepared = [native.prepare(policy) for policy in corpus]
        translator = server.translator
        for index, (name, preference) in enumerate(preferences):
            results = []
            # Alternate which path meets a new body first: the match
            # repair (bits evaluated on the reader) or the registration
            # (bits evaluated in the write transaction).
            if index % 2:
                results.append(server.match_all(preference))
                assert results[0].cache_misses == len(ids), name
            assert server.register_preference(preference) == len(ids)
            results.append(server.match_all(preference))
            assert results[-1].cache_misses == 0, name
            with server.pool.read() as db:
                bulk = translator.compile_bulk(preference).execute(db)
            expected = {}
            for policy, policy_id in zip(prepared, ids):
                verdict = native.evaluate_prepared(policy, preference)
                expected[policy_id] = (verdict.behavior, verdict.rule_index)
            assert {policy_id: bulk.get(policy_id, (None, None))
                    for policy_id in ids} == expected, name
            for result in results:
                assert {d.policy_id: (d.behavior, d.rule_index)
                        for d in result.decisions} == expected, name

    def test_jrc_levels_and_jane(self, corpus_server, corpus, suite):
        server, ids = corpus_server
        preferences = list(suite.items()) + [("Jane", jane_preference())]
        self._check(server, ids, corpus, preferences)

    def test_seeded_composed_sample(self, corpus_server, corpus):
        server, ids = corpus_server
        sample = _sampled_preferences(200)
        assert any(not p.has_catch_all() for p in sample)
        self._check(server, ids, corpus,
                    [(f"sample[{index}]", preference)
                     for index, preference in enumerate(sample)])
        # However many preferences, the bits grow with distinct bodies:
        # one per (body, policy), the sample's 200 preferences included.
        bodies = server.decisions.snapshot()["rule_bodies"]
        assert bodies >= len(_bodies(*sample))
        assert _bit_rows(server) == len(ids) * bodies


class TestEvaluatedOnce:
    def test_shared_body_is_evaluated_once(self, corpus):
        first = compose_preference(["no-telemarketing",
                                    "no-third-parties"])
        second = compose_preference(["no-third-parties", "no-profiling"],
                                    "block")
        shared = _bodies(first) & _bodies(second)
        assert shared and _bodies(second) - _bodies(first)
        with PolicyServer() as server:
            for policy in corpus[:6]:
                server.install_policy(policy)
            server.register_preference(first)
            before = server.decisions.snapshot()
            assert before["bits_evaluated"] == 6 * len(_bodies(first))
            server.register_preference(second)
            after = server.decisions.snapshot()
            assert after["bits_evaluated"] - before["bits_evaluated"] == \
                6 * len(_bodies(second) - _bodies(first))
            assert after["bits_reused"] - before["bits_reused"] == \
                6 * len(shared)
            assert after["rule_bodies"] == len(_bodies(first, second))
            assert _bit_rows(server) == 6 * len(_bodies(first, second))

    def test_registration_after_install_evaluates_only_the_new_version(
            self, corpus, suite):
        preference = suite["High"]
        with PolicyServer() as server:
            for policy in corpus[:5]:
                server.install_policy(policy)
            server.register_preference(preference)
            old_id = server.versions.active_policy_id(corpus[0].name)
            report = server.install_policy(corpus[0])     # version bump
            # The superseded version's bits went with the install.
            assert _bit_rows(server, old_id) == 0
            evaluated = server.decisions.bits_evaluated
            # Same bodies, another behavior order: a new preference.
            reordered = Ruleset(rules=tuple(reversed(preference.rules)))
            assert server.register_preference(reordered) == 5
            assert server.decisions.bits_evaluated - evaluated == \
                len(_bodies(preference))
            assert _bit_rows(server, report.policy_id) == \
                len(_bodies(preference))

    def test_rollback_refills_deleted_bits(self, suite):
        preference = suite["Very High"]
        native = AppelEngine()
        first = _policy("alpha", "no-retention")
        with PolicyServer() as server:
            old_id = server.install_policy(first).policy_id
            server.install_policy(_policy("beta", "no-retention"))
            server.register_preference(preference)
            server.install_policy(_policy("alpha", "indefinitely"))
            assert _bit_rows(server, old_id) == 0
            assert server.versions.rollback("alpha") == old_id

            result = server.match_all(preference)
            alpha, = [d for d in result.decisions if d.name == "alpha"]
            assert alpha.policy_id == old_id and not alpha.cached
            verdict = native.evaluate(first, preference)
            assert (alpha.behavior, alpha.rule_index) == \
                (verdict.behavior, verdict.rule_index)
            assert _bit_rows(server, old_id) == len(_bodies(preference))
            assert server.match_all(preference).cache_misses == 0

    def test_cache_decisions_off_writes_no_bits(self, corpus, suite):
        with PolicyServer(cache_decisions=False) as server:
            for policy in corpus[:4]:
                server.install_policy(policy)
            assert server.register_preference(suite["Low"]) == 4
            first = server.match_all(suite["Medium"])
            again = server.match_all(suite["Medium"])
            assert [d.decision for d in again.decisions] == \
                [d.decision for d in first.decisions]
            with server.pool.read() as db:
                assert db.scalar("SELECT COUNT(*) FROM rule_body") == 0
            assert _bit_rows(server) == 0
            snapshot = server.decisions.snapshot()
            assert snapshot["bits_reused"] == 0
            assert snapshot["rule_bodies"] == 0


class TestNoPerPreferencePlan:
    def test_register_and_match_run_no_bulk_plan(self, corpus, suite,
                                                 monkeypatch):
        from repro.translate.appel_to_sql import OptimizedSqlTranslator
        from repro.translate.plan import BulkPlan, CompiledPlan

        def refuse(*args, **kwargs):
            raise AssertionError("per-preference plan on the set path")

        for target, name in ((BulkPlan, "execute"),
                             (CompiledPlan, "execute"),
                             (OptimizedSqlTranslator, "compile_bulk"),
                             (OptimizedSqlTranslator, "compile_ruleset")):
            monkeypatch.setattr(target, name, refuse)
        with PolicyServer() as server:
            for policy in corpus[:3]:
                server.install_policy(policy)
            server.register_preference(suite["High"])
            server.install_policy(corpus[0])
            assert server.match_all(suite["High"]).cache_misses == 1
            assert server.match_all(suite["Low"]).cache_misses == 3


class TestAuditedBodies:
    def test_each_body_statement_is_audited_once(self, corpus, suite):
        with PolicyServer(audit_plans=True) as server:
            for policy in corpus[:3]:
                server.install_policy(policy)
            server.register_preference(suite["High"])
            assert server.pool.stats().plans_audited == \
                len(_bodies(suite["High"]))
            server.register_preference(suite["High"])
            server.match_all(suite["Medium"])
            assert server.pool.stats().plans_audited == \
                len(_bodies(suite["High"], suite["Medium"]))
            assert server.pool.stats().audit_findings == 0
            assert server.last_audit_findings == ()


class TestMetrics:
    def test_snapshot_reports_bit_counters(self, corpus, suite):
        with PolicyServer() as server:
            for policy in corpus[:2]:
                server.install_policy(policy)
            server.register_preference(suite["Low"])
            snapshot = server.decisions.snapshot()
            bodies = len(_bodies(suite["Low"]))
            assert snapshot["rule_bodies"] == bodies
            assert snapshot["bits_evaluated"] == 2 * bodies
            assert snapshot["bits_reused"] == 0

    def test_rule_bodies_counts_the_stored_table_on_reopen(
            self, tmp_path, corpus, suite):
        path = str(tmp_path / "bits.db")
        with PolicyServer(path) as server:
            server.install_policy(corpus[0])
            server.register_preference(suite["Low"])
        with PolicyServer(path) as reopened:
            assert reopened.decisions.snapshot()["rule_bodies"] == \
                len(_bodies(suite["Low"]))


class TestConcurrentRepair:
    def test_threads_sharing_bodies_write_each_bit_once(self, tmp_path,
                                                        corpus):
        """Cold matches on more threads than cores, preferences sharing
        bodies: every decision still equals the native engine's, the
        racing write-backs leave one bit per (body, policy), and the
        lock-protected counters lose no update."""
        preferences = _sampled_preferences(24, seed=7)
        native = AppelEngine()
        with PolicyServer(str(tmp_path / "bits.db")) as server:
            for policy in corpus[:8]:
                server.install_policy(policy)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                with ThreadPoolExecutor(max_workers=6) as executor:
                    results = list(executor.map(server.match_all,
                                                preferences,
                                                timeout=60))
            finally:
                sys.setswitchinterval(interval)
            for preference, result in zip(preferences, results):
                for decision, policy in zip(result.decisions, corpus):
                    verdict = native.evaluate(policy, preference)
                    assert (decision.behavior, decision.rule_index) == \
                        (verdict.behavior, verdict.rule_index)
            snapshot = server.decisions.snapshot()
            assert snapshot["write_errors"] == 0
            assert snapshot["rule_bodies"] == len(_bodies(*preferences))
            assert _bit_rows(server) == 8 * len(_bodies(*preferences))
            assert snapshot["bits_evaluated"] + snapshot["bits_reused"] \
                == 8 * sum(len(_bodies(p)) for p in preferences)
