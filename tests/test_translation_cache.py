"""TranslationCache: LRU bounds, eviction order, plan reuse across policies."""

import pytest

from repro.corpus.preferences import jrc_suite
from repro.corpus.volga import (
    VOLGA_REFERENCE_XML,
    jane_preference,
    volga_policy,
)
from repro.server.policy_server import (
    PolicyServer,
    TranslationCache,
    preference_hash,
)

SITE = "volga.example.com"


class TestLruSemantics:
    def test_bound_is_enforced(self):
        cache = TranslationCache(maxsize=3)
        for i in range(10):
            cache.put(("pref", i), f"t{i}")
        assert len(cache) == 3
        assert cache.evictions == 7

    def test_least_recently_used_is_evicted_first(self):
        cache = TranslationCache(maxsize=3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        cache.put("d", 4)  # evicts a, the oldest
        assert "a" not in cache
        assert cache.keys() == ["b", "c", "d"]

    def test_get_refreshes_recency(self):
        cache = TranslationCache(maxsize=3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") == 1  # a is now the most recent
        cache.put("d", 4)           # so b is evicted instead
        assert "a" in cache
        assert "b" not in cache

    def test_put_of_existing_key_refreshes_without_growth(self):
        cache = TranslationCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)  # evicts b: a was refreshed by the re-put
        assert cache.keys() == ["a", "c"]
        assert cache.get("a") == 10

    def test_hit_and_miss_counters(self):
        cache = TranslationCache(maxsize=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        assert (cache.hits, cache.misses) == (1, 1)

    def test_invalidate_by_predicate(self):
        cache = TranslationCache(maxsize=10)
        for i in range(6):
            cache.put(("p", i), i)
        dropped = cache.invalidate(lambda key: key[1] % 2 == 0)
        assert dropped == 3
        assert sorted(key[1] for key in cache.keys()) == [1, 3, 5]

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            TranslationCache(maxsize=0)


@pytest.fixture()
def server():
    server = PolicyServer()
    server.install_policy(volga_policy(), site=SITE)
    server.install_reference_file(VOLGA_REFERENCE_XML, SITE)
    return server


class TestServerCache:
    def test_cache_stays_within_bound(self):
        server = PolicyServer(translation_cache_size=2)
        server.install_policy(volga_policy(), site=SITE)
        server.install_reference_file(VOLGA_REFERENCE_XML, SITE)
        for preference in jrc_suite().values():  # 5 distinct preferences
            server.check(SITE, "/catalog/book", preference)
        assert server.cache_size() == 2

    def test_cache_hit_skips_retranslation(self, server):
        jane = jane_preference()
        server.check(SITE, "/catalog/a", jane)
        misses = server._translation_cache.misses
        server.check(SITE, "/catalog/b", jane)
        # Never recompiled — and with the decision cache in front, the
        # repeat check resolves from the materialized decision without
        # even consulting the plan cache.
        assert server._translation_cache.misses == misses
        assert server.decisions.hits >= 1

    def test_decision_cache_off_reuses_plan(self):
        server = PolicyServer(cache_decisions=False)
        server.install_policy(volga_policy(), site=SITE)
        server.install_reference_file(VOLGA_REFERENCE_XML, SITE)
        jane = jane_preference()
        server.check(SITE, "/catalog/a", jane)
        misses = server._translation_cache.misses
        server.check(SITE, "/catalog/b", jane)
        assert server._translation_cache.misses == misses
        assert server._translation_cache.hits >= 1

    def test_keyed_by_preference_hash_alone(self, server):
        """Compiled plans are policy-independent, so the cache key is the
        preference content hash — no policy id component."""
        jane = jane_preference()
        server.check(SITE, "/catalog/book", jane)
        assert server._translation_cache.keys() == \
            [preference_hash(jane)]

    def test_plan_reused_across_distinct_policy_ids(self, server):
        """One compilation serves every installed policy: checks against
        two distinct policy ids miss the cache exactly once."""
        from dataclasses import replace

        other_site = "other.example.com"
        renamed = replace(volga_policy(), name="other-policy")
        server.install_policy(renamed, site=other_site)
        server.install_reference_file(
            VOLGA_REFERENCE_XML.replace("#volga", "#other-policy"),
            other_site)

        jane = jane_preference()
        first = server.check(SITE, "/catalog/book", jane)
        second = server.check(other_site, "/catalog/book", jane)
        assert first.policy_id != second.policy_id
        assert first.behavior == second.behavior
        # One miss (the compile), every later check a hit — across ids.
        assert server._translation_cache.misses == 1
        assert server._translation_cache.hits >= 1
        assert server.cache_size() == 1

    def test_version_bump_invalidates_nothing(self, server):
        """A re-install supersedes the old policy version, but plans bind
        the policy id at execution — the cached compilation stays valid
        and the next check resolves to the new version without a
        recompile."""
        jane = jane_preference()
        first = server.check(SITE, "/catalog/book", jane)
        old_id = first.policy_id
        misses = server._translation_cache.misses

        server.install_policy(volga_policy(), site=SITE)  # version 2

        # The old id is still present (inactive) in the version history…
        assert server.policies.has_policy(old_id)
        # …and the plan survives: the new version is a cache hit.
        second = server.check(SITE, "/catalog/book", jane)
        assert second.policy_id != old_id
        assert second.behavior == first.behavior
        assert server._translation_cache.misses == misses
        assert server.cache_size() == 1

    def test_cache_size_helper_counts_entries(self, server):
        assert server.cache_size() == 0
        server.check(SITE, "/catalog/book", jane_preference())
        assert server.cache_size() == 1
