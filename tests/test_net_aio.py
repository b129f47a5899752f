"""The asyncio front end: protocol parity, batching, idempotency.

The async server must be observationally identical to the threaded one
— same decisions, same error envelopes, same check-log rows — while
servicing concurrent same-preference checks through one micro-batched
``BulkPlan`` round trip.  The differential tests here drive the full
corpus × every JRC level through both front ends and diff the
decisions; the idempotency tests retry a fixed ``check_key`` across
batch boundaries and count log rows.
"""

from __future__ import annotations

import json
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
from repro.net.aio import AsyncP3PServer, serve_async
from repro.net.client import HttpClientAgent
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
        assert batching["by_preference"]


class TestCoalescing:
    def test_concurrent_checks_coalesce(self, aio, tmp_path):
        """Concurrent same-preference checks share micro-batches: with
        a generous window, 8 clients × 10 checks must produce far fewer
        batches than requests."""
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

        server = serve_async(str(tmp_path / f"diff-{level}.db"),
                             batch_window=0.005)
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
