"""The asyncio front end: protocol parity, batching, idempotency.

The async server must be observationally identical to the threaded one
— same decisions, same error envelopes, same check-log rows — while
deciding concurrent same-preference checks as one micro-batch, each
distinct policy once.  The differential tests here drive the full
corpus × every JRC level through both front ends (and, on the miss
path, the native engine) and diff the decisions; the idempotency tests
retry a fixed ``check_key`` across batch boundaries and count log rows.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.corpus.preferences import jrc_suite
from repro.corpus.volga import (
    VOLGA_POLICY_XML,
    VOLGA_REFERENCE_XML,
    jane_preference,
    volga_policy,
)
from repro.net import protocol
from repro.net.aio import AsyncP3PServer, BatchingExecutor, serve_async
from repro.net.client import HttpClientAgent
from repro.p3p.parser import parse_policy
from repro.server.policy_server import PolicyServer

from tests.test_net_httpd import raw_request

SITE = "volga.example.com"


@pytest.fixture()
def aio(tmp_path):
    """A disk-backed async server on an ephemeral port, Volga installed."""
    server = serve_async(str(tmp_path / "aio.db"))
    thread = server.run_in_thread()
    agent = HttpClientAgent(server.base_url)
    agent.install_policy(VOLGA_POLICY_XML, site=SITE,
                         reference_file=VOLGA_REFERENCE_XML)
    agent.close()
    yield server
    server.close()
    thread.join(timeout=5)


@pytest.fixture()
def agent(aio):
    with HttpClientAgent(aio.base_url, jane_preference()) as jane:
        yield jane


class TestBasics:
    def test_healthz(self, agent):
        assert agent.health()["status"] == "ok"

    def test_ephemeral_port_bound_before_loop(self, tmp_path):
        server = serve_async(str(tmp_path / "cold.db"))
        try:
            # The socket is bound in the constructor — base_url is
            # valid before serve_forever has ever run.
            assert server.port != 0
            assert str(server.port) in server.base_url
        finally:
            server.close()

    def test_check_decision_matches_threaded(self, aio, agent, tmp_path):
        over_wire = agent.check(SITE, "/catalog/book-1")
        reference = PolicyServer(str(tmp_path / "ref.db"))
        try:
            reference.install_policy(volga_policy(), site=SITE)
            reference.install_reference_file(VOLGA_REFERENCE_XML, SITE)
            local = reference.check(SITE, "/catalog/book-1",
                                    jane_preference())
        finally:
            reference.close()
        assert over_wire.decision == (SITE, "/catalog/book-1",
                                      local.policy_id, local.behavior,
                                      local.rule_index)

    def test_uncovered_uri(self, agent):
        result = agent.check(SITE, "/legacy/old-page")
        assert not result.covered
        assert result.allowed

    def test_metrics_have_batching_block(self, aio, agent):
        agent.check(SITE, "/catalog/metrics-probe")
        metrics = agent.metrics()
        assert metrics["server"]["frontend"] == "async"
        batching = metrics["batching"]
        assert batching["requests"] >= 1
        assert batching["batches"] >= 1
        assert batching["depth_max"] >= 1
        assert 0.0 <= batching["window_occupancy"] <= 1.0
        assert "window_seconds" not in batching
        assert batching["by_preference"]


class TestCoalescing:
    def test_concurrent_checks_coalesce(self, aio, tmp_path):
        """Concurrent same-preference checks share micro-batches: the
        checks that arrive while a batch executes leave together, so
        8 clients × 10 checks produce fewer batches than requests."""
        jane = jane_preference()
        bootstrap = HttpClientAgent(aio.base_url, jane)
        digest = bootstrap.register_preference()
        bootstrap.check(SITE, "/catalog/item-0")
        bootstrap.close()
        before = aio.batching_snapshot()

        def drive(worker: int) -> None:
            with HttpClientAgent(aio.base_url, jane,
                                 preference_hash=digest) as client:
                for i in range(10):
                    client.check(SITE, f"/catalog/item-{i % 8}")

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(drive, range(8)))

        after = aio.batching_snapshot()
        requests = after["requests"] - before["requests"]
        batches = after["batches"] - before["batches"]
        assert requests == 80
        assert batches < requests
        assert after["coalesced"] > before["coalesced"]
        assert after["depth_max"] >= 2


class _HeldBatching(BatchingExecutor):
    """Every batch blocks in ``_execute`` until ``gate`` opens; a batch
    holding ``/fail`` then raises.  Decisions are stand-in strings."""

    def __init__(self, loop, executor, **options):
        super().__init__(None, executor, loop, **options)
        self.gate = threading.Event()
        self.entered = threading.Semaphore(0)
        self.executed: list[list[str]] = []

    def _execute(self, batch):
        uris = [uri for _, uri, _, _ in batch.items]
        self.executed.append(uris)
        self.entered.release()
        self.gate.wait(10)
        if "/fail" in uris:
            raise RuntimeError("injected: batch failed")
        return [f"decided {uri}" for uri in uris]

    async def batch_entered(self) -> bool:
        """Wait (off the loop) until one more batch is in ``_execute``."""
        return await asyncio.to_thread(self.entered.acquire, True, 10)

    def submit(self, uri: str) -> asyncio.Task:
        return asyncio.create_task(self.check(
            "pref-hash", jane_preference(), site=SITE, uri=uri))

    async def settle(self, requests: int) -> None:
        """Yield to the loop until *requests* checks have been submitted."""
        for _ in range(100):
            if self.requests_total >= requests:
                return
            await asyncio.sleep(0)
        raise AssertionError(f"only {self.requests_total} checks arrived")


def _run_held(scenario, **options) -> None:
    """Run *scenario(batching)* on a fresh loop with a 2-thread executor."""
    async def main():
        with ThreadPoolExecutor(max_workers=2) as executor:
            batching = _HeldBatching(asyncio.get_running_loop(), executor,
                                     **options)
            try:
                # A stranded check fails the test instead of hanging it.
                await asyncio.wait_for(scenario(batching), 30)
            finally:
                batching.gate.set()

    asyncio.run(main())


class TestSelfClockedBatching:
    """Dispatch follows the executing batch, never a timer.  Every batch
    is held in ``_execute`` until the test opens the gate, so what leaves
    together is decided by arrival order alone."""

    def test_lone_check_dispatches_with_no_timer_armed(self):
        async def scenario(batching):
            loop = asyncio.get_running_loop()
            timers = []
            for name in ("call_later", "call_at"):
                def record(*args, _arm=getattr(loop, name), **kwargs):
                    timers.append(args)
                    return _arm(*args, **kwargs)
                setattr(loop, name, record)
            lone = batching.submit("/lone")
            assert await batching.batch_entered()
            assert batching.executed == [["/lone"]]
            assert timers == []
            batching.gate.set()
            assert await lone == "decided /lone"
            snapshot = batching.snapshot()
            assert snapshot["idle_dispatches"] == 1
            assert snapshot["batches"] == 1

        _run_held(scenario)

    def test_checks_arriving_during_a_batch_leave_as_one(self):
        async def scenario(batching):
            first = batching.submit("/first")
            assert await batching.batch_entered()
            queued = [batching.submit(f"/q{i}") for i in range(5)]
            await batching.settle(6)
            assert batching.executed == [["/first"]]
            batching.gate.set()
            results = await asyncio.gather(first, *queued)
            assert batching.executed == [["/first"],
                                         [f"/q{i}" for i in range(5)]]
            assert results == ["decided /first"] + [
                f"decided /q{i}" for i in range(5)]
            snapshot = batching.snapshot()
            assert snapshot["handoff_flushes"] == 1
            assert snapshot["depth_max"] == 5
            assert snapshot["coalesced"] == 5

        _run_held(scenario)

    def test_full_batch_leaves_while_another_runs(self):
        async def scenario(batching):
            first = batching.submit("/first")
            assert await batching.batch_entered()
            full = [batching.submit(f"/f{i}") for i in range(3)]
            await batching.settle(4)
            # /first is still held, yet the full batch is executing.
            assert await batching.batch_entered()
            assert batching.executed == [["/first"], ["/f0", "/f1", "/f2"]]
            assert batching.snapshot()["full_flushes"] == 1
            batching.gate.set()
            await asyncio.gather(first, *full)

        _run_held(scenario, max_batch=3)

    def test_failing_batch_releases_the_checks_queued_behind_it(self):
        async def scenario(batching):
            failing = batching.submit("/fail")
            assert await batching.batch_entered()
            queued = [batching.submit(f"/q{i}") for i in range(3)]
            await batching.settle(4)
            batching.gate.set()
            with pytest.raises(RuntimeError, match="injected"):
                await failing
            assert await asyncio.gather(*queued) == [
                f"decided /q{i}" for i in range(3)]
            assert batching.executed == [["/fail"], ["/q0", "/q1", "/q2"]]

        _run_held(scenario)


def _install_corpus(base_url: str, entries) -> None:
    with HttpClientAgent(base_url) as admin:
        for site, policy_xml, reference_xml in entries:
            admin.install_policy(policy_xml, site=site,
                                 reference_file=reference_xml)


class TestDifferentialCorpus:
    """async + batched ≡ threaded per-request over corpus × JRC suite."""

    @pytest.fixture(scope="class")
    def corpus(self):
        from repro.bench.harness import cluster_corpus

        return cluster_corpus(corpus_size=12)

    @pytest.fixture(scope="class")
    def reference_server(self, corpus, tmp_path_factory):
        """The in-process oracle: one PolicyServer, per-request checks."""
        path = tmp_path_factory.mktemp("diff") / "oracle.db"
        server = PolicyServer(str(path))
        from repro.p3p.parser import parse_policy

        for site, policy_xml, reference_xml in corpus:
            server.install_policy(parse_policy(policy_xml), site=site)
            server.install_reference_file(reference_xml, site)
        yield server
        server.close()

    @pytest.mark.parametrize("level", sorted(jrc_suite().keys()))
    def test_async_batched_matches_threaded(self, level, corpus,
                                            reference_server, tmp_path):
        preference = jrc_suite()[level]
        requests = [(site, f"/catalog/item-{i % 4}")
                    for i, (site, _, _) in enumerate(corpus * 2)]
        expected = {
            (site, uri): reference_server.check(site, uri, preference)
            for site, uri in requests
        }

        server = serve_async(str(tmp_path / f"diff-{level}.db"))
        thread = server.run_in_thread()
        try:
            _install_corpus(server.base_url, corpus)
            bootstrap = HttpClientAgent(server.base_url, preference)
            digest = bootstrap.register_preference()
            bootstrap.close()

            def drive(chunk):
                decisions = {}
                with HttpClientAgent(server.base_url, preference,
                                     preference_hash=digest) as client:
                    for site, uri in chunk:
                        decisions[(site, uri)] = client.check(site, uri)
                return decisions

            chunks = [requests[i::6] for i in range(6)]
            observed: dict = {}
            with ThreadPoolExecutor(max_workers=6) as pool:
                for result in pool.map(drive, chunks):
                    observed.update(result)
        finally:
            server.close()
            thread.join(timeout=5)

        assert set(observed) == set(expected)
        for key, oracle in expected.items():
            wire = observed[key]
            assert wire.policy_id == oracle.policy_id, key
            assert wire.behavior == oracle.behavior, key
            assert wire.rule_index == oracle.rule_index, key
            assert wire.covered == oracle.covered, key


class TestDifferentialMissPath:
    """async batched ≡ threaded ≡ native over corpus × JRC levels when
    the decisions are not cached: with the decision cache off, and after
    installs supersede every registered decision.  (The corpus test
    above registers first, so every async decision there is a hit.)"""

    @pytest.fixture(scope="class")
    def corpus(self):
        from repro.bench.harness import cluster_corpus

        return cluster_corpus(corpus_size=12)

    @staticmethod
    def _successors(corpus) -> list[tuple[str, str]]:
        """A second version per site: the next entry's policy under
        this site's policy name, so many decisions change."""
        from dataclasses import replace

        from repro.p3p.serializer import serialize_policy

        policies = [parse_policy(xml) for _, xml, _ in corpus]
        return [(site, serialize_policy(replace(
                    policies[(index + 1) % len(policies)],
                    name=policies[index].name)))
                for index, (site, _, _) in enumerate(corpus)]

    @staticmethod
    def _drive(base_url, preference, digest, requests) -> dict:
        def drive(chunk):
            with HttpClientAgent(base_url, preference,
                                 preference_hash=digest) as client:
                return {(site, uri): client.check(site, uri)
                        for site, uri in chunk}

        observed: dict = {}
        with ThreadPoolExecutor(max_workers=6) as pool:
            for result in pool.map(drive, [requests[i::6]
                                           for i in range(6)]):
                observed.update(result)
        return observed

    @pytest.mark.parametrize("setting", ["cache-off", "superseded"])
    def test_async_miss_path_matches_threaded_and_native(
            self, setting, corpus, tmp_path):
        from repro.appel.engine import AppelEngine

        suite = jrc_suite()
        successors = (self._successors(corpus)
                      if setting == "superseded" else [])
        active = {site: parse_policy(xml) for site, xml, _ in corpus}
        active.update((site, parse_policy(xml)) for site, xml in successors)
        if successors:
            # The installs must change decisions, or serving a stale
            # one would go unseen.
            native = AppelEngine()
            assert any(
                native.evaluate(parse_policy(xml), preference).behavior
                != native.evaluate(active[site], preference).behavior
                for site, xml, _ in corpus
                for preference in suite.values())
        requests = [(site, f"/catalog/item-{i % 4}")
                    for i, (site, _, _) in enumerate(corpus * 2)]

        policy_server = PolicyServer(
            str(tmp_path / "miss.db"),
            cache_decisions=setting != "cache-off")
        server = AsyncP3PServer(policy_server, owns_policy_server=True)
        thread = server.run_in_thread()
        oracle = PolicyServer()
        try:
            _install_corpus(server.base_url, corpus)
            for site, policy_xml, reference_xml in corpus:
                oracle.install_policy(parse_policy(policy_xml), site=site)
                oracle.install_reference_file(reference_xml, site)
            digests = {}
            for level, preference in suite.items():
                with HttpClientAgent(server.base_url, preference) as agent:
                    digests[level] = agent.register_preference()
            with HttpClientAgent(server.base_url) as admin:
                for site, policy_xml in successors:
                    admin.install_policy(policy_xml, site=site)
                    oracle.install_policy(parse_policy(policy_xml),
                                          site=site)

            native = AppelEngine()
            for level, preference in suite.items():
                observed = self._drive(server.base_url, preference,
                                       digests[level], requests)
                assert set(observed) == set(requests)
                for site, uri in requests:
                    wire = observed[(site, uri)]
                    threaded = oracle.check(site, uri, preference)
                    verdict = native.evaluate(active[site], preference)
                    key = (level, site, uri)
                    assert wire.policy_id == threaded.policy_id, key
                    assert (wire.behavior, wire.rule_index) == \
                        (threaded.behavior, threaded.rule_index) == \
                        (verdict.behavior, verdict.rule_index), key
            decisions = policy_server.decisions.snapshot()
        finally:
            server.close()
            thread.join(timeout=5)
            oracle.close()

        if setting == "cache-off":
            # No cache read at all: every decision ran the compiled plan.
            assert decisions["hits"] == decisions["misses"] == 0
            assert policy_server._translation_cache.misses == len(suite)
        else:
            # Each level's registered decisions were all superseded, so
            # every policy is decided through the miss path at least once.
            assert decisions["invalidated"] >= len(corpus) * len(suite)
            assert decisions["misses"] >= len(corpus) * len(suite)


class TestIdempotency:
    def test_retried_check_key_logs_once_across_batches(self, aio):
        """The same check_key re-sent after the first batch has been
        serviced must still deduplicate: at most one check_log row."""
        jane = jane_preference()
        bootstrap = HttpClientAgent(aio.base_url, jane)
        digest = bootstrap.register_preference()
        bootstrap.close()
        payload = protocol.encode(protocol.CheckRequest(
            site=SITE, uri="/catalog/item-1", preference_hash=digest,
            check_key="fixed-key-aio-001").to_wire())

        first = raw_request(aio, "POST", "/v1/check", body=payload)
        time.sleep(0.05)        # the first batch has long since flushed
        second = raw_request(aio, "POST", "/v1/check", body=payload)
        assert first[0] == 200 and second[0] == 200
        decision_fields = ("site", "uri", "policy_id", "behavior",
                           "rule_index", "covered")
        first_body = json.loads(first[2])
        second_body = json.loads(second[2])
        assert [first_body.get(f) for f in decision_fields] == \
            [second_body.get(f) for f in decision_fields]

        aio.policy_server.flush_log()
        with aio.policy_server.pool.read() as db:
            rows = db.scalar(
                "SELECT COUNT(*) FROM check_log WHERE check_key = ?",
                ("fixed-key-aio-001",))
        assert rows == 1

    def test_batch_of_distinct_keys_all_logged(self, aio, agent):
        agent.check_batch([(SITE, f"/catalog/item-{i}") for i in range(6)])
        aio.policy_server.flush_log()
        with aio.policy_server.pool.read() as db:
            rows = db.scalar(
                "SELECT COUNT(*) FROM check_log WHERE uri LIKE ?",
                ("/catalog/item-%",))
        assert rows >= 6


class TestClusterFrontend:
    def test_async_worker_serves_shard_checks(self, tmp_path):
        from repro.cluster.worker import InProcessWorker, WorkerConfig

        config = WorkerConfig(shard_id=0, role="primary",
                              db_path=str(tmp_path / "shard0.db"),
                              frontend="async")
        worker = InProcessWorker(config).start()
        try:
            assert isinstance(worker.httpd, AsyncP3PServer)
            agent = HttpClientAgent(worker.base_url, jane_preference())
            agent.install_policy(VOLGA_POLICY_XML, site=SITE,
                                 reference_file=VOLGA_REFERENCE_XML)
            result = agent.check(SITE, "/catalog/book-1")
            assert result.covered
            metrics = agent.metrics()
            assert metrics["server"]["frontend"] == "async"
            assert metrics["server"]["shard"] == 0
            agent.close()
        finally:
            worker.terminate()

    def test_async_cluster_end_to_end(self, tmp_path):
        from repro.appel.serializer import serialize_ruleset
        from repro.cluster import ClusterClient, P3PCluster

        appel = serialize_ruleset(jane_preference(), indent=False)
        cluster = P3PCluster(shards=2, replicas=0,
                             db_dir=str(tmp_path / "cluster"),
                             in_process=True, frontend="async").start()
        try:
            client = ClusterClient(cluster.base_url, appel)
            client.install_policy(VOLGA_POLICY_XML, site=SITE,
                                  reference_file=VOLGA_REFERENCE_XML)
            result = client.check(SITE, "/catalog/book-1")
            assert result.covered
            client.close()
        finally:
            cluster.close()
