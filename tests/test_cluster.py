"""The cluster tier end to end: routing, replicas, failover, parity.

Workers run in-process (threads) throughout — the cluster semantics are
identical to process mode (one smoke test below proves the spawn path),
and thread workers keep the suite fast and give the failover tests a
handle on each worker's ``PolicyServer`` for crash injection.
"""

from __future__ import annotations

import time

import pytest

from repro.appel.serializer import serialize_ruleset
from repro.bench.harness import cluster_corpus
from repro.cluster import ClusterClient, P3PCluster, Topology
from repro.cluster import router as router_module
from repro.corpus.volga import jane_preference
from repro.net import protocol
from repro.net.client import HttpClientAgent
from repro.testing.faults import crash_pool

JANE = serialize_ruleset(jane_preference(), indent=False)

# Small corpus for the routing tests; every site hashes to exactly one
# shard, and with 8 sites on 2 shards both sides of the ring are hit.
ENTRIES = cluster_corpus(corpus_size=8)


def install_entries(client: ClusterClient, entries=ENTRIES) -> None:
    for site, policy_xml, reference in entries:
        client.install_policy(policy_xml, site=site,
                              reference_file=reference)


def wait_for_replicas(cluster: P3PCluster, entries=ENTRIES,
                      timeout: float = 5.0) -> None:
    """Block until every replica's snapshot contains every installed
    policy (the refresh loop is asynchronous; tests that read through
    replicas must not race it)."""
    deadline = time.monotonic() + timeout
    pending = [(site.split(".")[1], worker)
               for site, _, _ in entries
               for worker in cluster.replicas[cluster.owner_shard(site)]]
    while pending:
        name, worker = pending[-1]
        server = worker.policy_server
        if server is not None and \
                server.policies.policy_id_by_name(name) is not None:
            pending.pop()
            continue
        if time.monotonic() > deadline:
            raise TimeoutError(f"replica never saw policy {name!r}")
        time.sleep(0.02)


@pytest.fixture(scope="module")
def cluster():
    """A started 2-shard x 1-replica in-process cluster with the small
    corpus installed (module-scoped: read-only tests share it)."""
    with P3PCluster(shards=2, replicas=1, in_process=True,
                    refresh_interval=0.05).start() as cluster:
        with ClusterClient(cluster.base_url, JANE) as admin:
            install_entries(admin)
        wait_for_replicas(cluster)
        yield cluster


class TestRoutedInstalls:
    def test_policy_lands_on_owning_primary_only(self, cluster):
        for site, _, _ in ENTRIES:
            owner = cluster.owner_shard(site)
            name = site.split(".")[1]
            for shard in (0, 1):
                server = cluster.primary(shard).policy_server
                found = server.policies.policy_id_by_name(name) is not None
                assert found == (shard == owner), (
                    f"{name} on shard {shard}, owner {owner}")

    def test_install_without_site_is_rejected(self, cluster):
        with HttpClientAgent(cluster.base_url) as agent:
            with pytest.raises(protocol.ProtocolError) as err:
                agent.install_policy(ENTRIES[0][1])
            assert err.value.code == protocol.ERR_BAD_REQUEST

    def test_corpus_spans_both_shards(self, cluster):
        owners = {cluster.owner_shard(site) for site, _, _ in ENTRIES}
        assert owners == {0, 1}


class TestRoutedChecks:
    def test_router_and_direct_paths_agree(self, cluster):
        """A plain agent at the router and a topology-aware client get
        the same decision for every site."""
        with HttpClientAgent(cluster.base_url, JANE) as via_router, \
                ClusterClient(cluster.base_url, JANE) as direct:
            for site, _, _ in ENTRIES:
                a = via_router.check(site, "/catalog/item-1")
                b = direct.check(site, "/catalog/item-1")
                assert (a.behavior, a.rule_index) == \
                    (b.behavior, b.rule_index)
            # The topology-aware client really did bypass the router.
            assert direct.direct_checks == len(ENTRIES)
            assert direct.router_fallbacks == 0

    def test_batch_splits_by_shard_and_preserves_order(self, cluster):
        with HttpClientAgent(cluster.base_url, JANE) as agent:
            sites = [site for site, _, _ in ENTRIES]
            batch = agent.check_batch((site, "/catalog/item-2")
                                      for site in sites)
            assert len(batch) == len(sites)
            singles = [agent.check(site, "/catalog/item-2")
                       for site in sites]
            assert [(r.behavior, r.rule_index) for r in batch] == \
                [(r.behavior, r.rule_index) for r in singles]

    def test_unknown_site_still_answers(self, cluster):
        """A site no shard has a policy for routes fine and comes back
        undecided, exactly like the single-server behaviour."""
        with HttpClientAgent(cluster.base_url, JANE) as agent:
            response = agent.check("www.nowhere.invalid", "/")
            assert response.policy_id is None


class TestShardIdentity:
    def test_wrong_shard_header_is_rejected(self, cluster):
        site = ENTRIES[0][0]
        owner = cluster.owner_shard(site)
        wrong = 1 - owner
        url = cluster.primary_url(owner)
        with HttpClientAgent(
                url, JANE, retry=None,
                default_headers={
                    protocol.SHARD_HEADER: str(wrong),
                    protocol.TOPOLOGY_HEADER:
                        str(cluster.topology.version),
                }) as agent:
            with pytest.raises(protocol.ProtocolError) as err:
                agent.check(site, "/catalog/item-0")
            assert err.value.code == protocol.ERR_WRONG_SHARD

    def test_stale_topology_version_is_rejected(self, cluster):
        site = ENTRIES[0][0]
        owner = cluster.owner_shard(site)
        with HttpClientAgent(
                cluster.primary_url(owner), JANE, retry=None,
                default_headers={
                    protocol.SHARD_HEADER: str(owner),
                    protocol.TOPOLOGY_HEADER:
                        str(cluster.topology.version + 7),
                }) as agent:
            with pytest.raises(protocol.ProtocolError) as err:
                agent.check(site, "/catalog/item-0")
            assert err.value.code == protocol.ERR_WRONG_SHARD

    def test_health_probes_are_shard_agnostic(self, cluster):
        with HttpClientAgent(
                cluster.primary_url(0), retry=None,
                default_headers={protocol.SHARD_HEADER: "99"}) as agent:
            assert agent.health()["status"] == "ok"

    def test_client_recovers_from_stale_topology(self, cluster):
        """A client holding yesterday's ring gets ``wrong-shard``,
        refreshes, and completes the check — one extra round trip, never
        a wrong answer."""
        site = ENTRIES[0][0]
        with ClusterClient(cluster.base_url, JANE) as client:
            client.refresh_topology()
            refreshes = client.topology_refreshes
            client.topology = Topology(
                shards=cluster.topology.shards,
                replicas=cluster.topology.replicas,
                version=cluster.topology.version + 7)
            for agent in client._agents.values():
                agent.close()
            client._agents.clear()
            response = client.check(site, "/catalog/item-3")
            assert response.decision is not None
            assert client.topology_refreshes == refreshes + 1
            assert client.topology.version == cluster.topology.version
            assert client.router_fallbacks == 0


class TestTopologyEndpoint:
    def test_wire_topology_roundtrips(self, cluster):
        with HttpClientAgent(cluster.base_url) as agent:
            snapshot = agent.call("GET", "/v1/topology")
        assert Topology.from_wire(snapshot["topology"]) == \
            cluster.topology
        backends = snapshot["backends"]
        for shard in ("0", "1"):
            assert backends[shard]["primary"].startswith("http://")
            assert len(backends[shard]["replicas"]) == 1


class TestAggregatedMetrics:
    def test_metrics_cover_router_and_every_backend(self, cluster):
        with ClusterClient(cluster.base_url, JANE) as client:
            client.check(ENTRIES[0][0], "/catalog/item-4")
            metrics = client.metrics()
        router = metrics["cluster"]["router"]
        assert router["server_id"].startswith("router-")
        assert router["uptime_seconds"] > 0
        assert "forwarding" in router
        aggregate = metrics["cluster"]["aggregate"]
        assert aggregate["backends"] == 4          # 2 primaries + 2 replicas
        assert aggregate["checks_served"] > 0
        ids = set()
        for shard in ("0", "1"):
            block = metrics["shards"][shard]
            primary = block["primary"]["server"]
            assert primary["pid"] > 0
            assert primary["role"] == "primary"
            assert primary["shard"] == int(shard)
            ids.add(primary["server_id"])
            (replica,) = block["replicas"]
            assert replica["server"]["role"] == "replica"
            ids.add(replica["server"]["server_id"])
            replication = replica["replication"]
            assert replication["generation"] >= 1
            assert replication["lag_seconds"] is not None
        assert len(ids) == 4                       # every backend distinct

    def test_replica_served_reads_are_counted(self, cluster):
        router = cluster.router
        before = router.counters.snapshot()["replica_reads"]
        with HttpClientAgent(cluster.base_url, JANE) as agent:
            agent.check(ENTRIES[1][0], "/catalog/item-5")
        assert router.counters.snapshot()["replica_reads"] == before + 1


class TestDifferential:
    def test_cluster_match_equals_single_server_match(self, corpus):
        """Acceptance: the full corpus, installed across shards, must
        produce decision-for-decision the same match a single
        ``PolicyServer.match_all`` does (compared by policy name —
        policy ids are shard-local)."""
        from repro.p3p.serializer import serialize_policy
        from repro.server import PolicyServer

        with PolicyServer() as single:
            for policy in corpus:
                single.install_policy(policy)
            single.register_preference(jane_preference())
            expected = {
                entry.name: (entry.behavior, entry.rule_index)
                for entry in single.match_all(jane_preference()).decisions
            }

        with P3PCluster(shards=3, in_process=True).start() as cluster:
            with ClusterClient(cluster.base_url, JANE) as client:
                for policy in corpus:
                    client.install_policy(
                        serialize_policy(policy),
                        site=f"www.{policy.name}.example.com")
                merged = client.match_corpus()

        got = {entry["name"]: (entry["behavior"], entry["rule_index"])
               for entry in merged["results"]}
        assert got == expected
        assert len(got) == len(corpus)
        # Every entry says which shard answered, and >1 shard took part.
        shards = {entry["shard"] for entry in merged["results"]}
        assert len(shards) > 1


class TestFailover:
    @pytest.fixture()
    def fresh(self):
        """A private 2x1 cluster the test may freely damage."""
        with P3PCluster(shards=2, replicas=1, in_process=True,
                        refresh_interval=0.05,
                        retry_after_install=7.0).start() as cluster:
            with ClusterClient(cluster.base_url, JANE) as admin:
                install_entries(admin)
            wait_for_replicas(cluster)
            yield cluster

    def test_crashed_primary_fails_over_to_replica(self, fresh):
        site = ENTRIES[0][0]
        shard = fresh.owner_shard(site)
        with HttpClientAgent(fresh.base_url, JANE) as agent:
            baseline = agent.check(site, "/catalog/item-6")

            worker = fresh.primary(shard)
            crash_pool(worker.policy_server.pool)
            fresh.kill_primary(shard)
            assert fresh.primary_url(shard) is None

            # Reads keep working, served by the shard's replica.
            survived = agent.check(site, "/catalog/item-6")
            assert (survived.behavior, survived.rule_index) == \
                (baseline.behavior, baseline.rule_index)

            # Installs need the primary: shard-unavailable, retryable.
            with HttpClientAgent(fresh.base_url) as installer, \
                    pytest.raises(protocol.ProtocolError) as err:
                installer.install_policy(ENTRIES[0][1], site=site)
            assert err.value.code == protocol.ERR_SHARD_UNAVAILABLE
            # The router advertises the cluster's install back-off.
            assert err.value.retry_after == 7.0

            # Restart heals the shard: installs land again.
            fresh.restart_primary(shard)
            with HttpClientAgent(fresh.base_url) as installer:
                receipt = installer.install_policy(
                    ENTRIES[0][1], site=site,
                    reference_file=ENTRIES[0][2])
            assert receipt.statements > 0
            after = agent.check(site, "/catalog/item-6")
            assert (after.behavior, after.rule_index) == \
                (baseline.behavior, baseline.rule_index)

    def test_no_duplicate_check_log_rows_across_retries(self, fresh):
        """The same ``check_key`` presented repeatedly — as failover
        retries do — logs exactly one row, even across a primary
        crash/restart."""
        site = ENTRIES[2][0]
        shard = fresh.owner_shard(site)
        with HttpClientAgent(fresh.base_url, JANE) as agent:
            digest = agent.register_preference()
            payload = protocol.CheckRequest(
                site=site, uri="/dup/probe", preference_hash=digest,
                check_key="failover-dup-probe").to_wire()

            primary = HttpClientAgent(
                fresh.primary_url(shard), retry=None,
                default_headers={
                    protocol.SHARD_HEADER: str(shard),
                    protocol.TOPOLOGY_HEADER:
                        str(fresh.topology.version),
                })
            try:
                primary.call("POST", "/v1/check", payload,
                             retry_key="failover-dup-probe")
                primary.call("POST", "/v1/check", payload,
                             retry_key="failover-dup-probe")
            finally:
                primary.close()

            worker = fresh.primary(shard)
            worker.policy_server.flush_log()
            crash_pool(worker.policy_server.pool)
            fresh.kill_primary(shard)
            fresh.restart_primary(shard)

            # The retried request arrives once more after the restart
            # (via the router this time) — still no second row.
            agent.call("POST", "/v1/check", payload,
                       retry_key="failover-dup-probe")

            server = fresh.primary(shard).policy_server
            server.flush_log()
            with server.pool.read() as db:
                rows = db.execute(
                    "SELECT COUNT(*) FROM check_log "
                    "WHERE check_key = ?",
                    ("failover-dup-probe",)).fetchone()[0]
                duplicates = db.execute(
                    "SELECT check_key, COUNT(*) AS n FROM check_log "
                    "WHERE check_key IS NOT NULL "
                    "GROUP BY check_key HAVING n > 1").fetchall()
            assert rows == 1
            assert duplicates == []


class TestPartialMatch:
    def test_dead_shard_is_reported_not_silently_dropped(self):
        """scatter_match with one dead shard (no replicas to fail over
        to) must answer with the live shard's results, ``partial:
        true``, and a per-shard error entry — not a silently smaller
        corpus, and not a hard failure."""
        with P3PCluster(shards=2, replicas=0,
                        in_process=True).start() as cluster:
            with ClusterClient(cluster.base_url, JANE) as admin:
                install_entries(admin)

            with ClusterClient(cluster.base_url, JANE) as client:
                complete = client.match_corpus()
                assert complete["partial"] is False
                assert complete["shard_errors"] == {}
                full_names = {e["name"] for e in complete["results"]}

                dead = cluster.owner_shard(ENTRIES[0][0])
                cluster.kill_primary(dead)

                merged = client.match_corpus()
                assert merged["partial"] is True
                assert set(merged["shard_errors"]) == {str(dead)}
                error = merged["shard_errors"][str(dead)]
                assert error["code"] == protocol.ERR_SHARD_UNAVAILABLE
                assert error["message"]

                live_shards = {e["shard"] for e in merged["results"]}
                assert merged["results"]          # live shard answered
                assert dead not in live_shards
                surviving = {e["name"] for e in merged["results"]}
                assert surviving < full_names     # strictly partial

                # Every shard dead: now the match itself fails.
                for shard in cluster.topology.shard_ids():
                    if shard != dead:
                        cluster.kill_primary(shard)
                with pytest.raises(protocol.ProtocolError) as err:
                    client.match_corpus()
                assert err.value.code == protocol.ERR_SHARD_UNAVAILABLE

    def test_http_agent_sees_a_partial_corpus(self):
        """``HttpClientAgent.match_corpus()`` keeps what the router says
        about a partial corpus — ``partial``, ``shard_errors`` and each
        entry's ``shard`` — so a plain agent can tell, too."""
        with P3PCluster(shards=2, replicas=0,
                        in_process=True).start() as cluster:
            with ClusterClient(cluster.base_url, JANE) as admin:
                install_entries(admin)
            with HttpClientAgent(cluster.base_url,
                                 jane_preference()) as agent:
                complete = agent.match_corpus()
                dead = cluster.owner_shard(ENTRIES[0][0])
                cluster.kill_primary(dead)
                merged = agent.match_corpus()

        assert complete.partial is False
        assert complete.shard_errors == {}
        assert {entry.shard for entry in complete.results} == {0, 1}
        assert len(complete.results) == len(ENTRIES)

        assert merged.partial is True
        assert set(merged.shard_errors) == {dead}
        assert merged.shard_errors[dead].code == \
            protocol.ERR_SHARD_UNAVAILABLE
        assert merged.results
        assert {entry.shard for entry in merged.results} == {1 - dead}


class TestRouterClose:
    def test_close_leaves_no_backend_agent_open(self, monkeypatch):
        """The router keeps one kept-alive agent per backend per handler
        thread; ``P3PCluster.close()`` closes every one of them, those
        of handler threads that already ended included."""
        created: list[HttpClientAgent] = []

        class RecordedAgent(HttpClientAgent):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(router_module, "HttpClientAgent",
                            RecordedAgent)
        with P3PCluster(shards=2, replicas=1, in_process=True,
                        refresh_interval=0.05).start() as cluster:
            with HttpClientAgent(cluster.base_url) as admin:
                for site, policy_xml, reference in ENTRIES[:4]:
                    admin.install_policy(policy_xml, site=site,
                                         reference_file=reference)
            wait_for_replicas(cluster, ENTRIES[:4])
            # Three connections in turn: three handler threads.
            for _ in range(3):
                with HttpClientAgent(cluster.base_url, JANE) as user:
                    for site, _, _ in ENTRIES[:4]:
                        user.check(site, "/")
                    user.match_corpus()
        assert len(created) >= 4
        assert [agent for agent in created
                if agent._connection is not None] == []


class TestProcessMode:
    def test_spawned_cluster_serves_and_shuts_down_cleanly(self):
        """The real deployment shape: spawned worker processes, graceful
        SIGTERM drain, exit code 0."""
        with P3PCluster(shards=2, replicas=1).start() as cluster:
            with ClusterClient(cluster.base_url, JANE) as client:
                install_entries(client, ENTRIES[:2])
                for site, _, _ in ENTRIES[:2]:
                    assert client.check(site, "/").decision is not None
            # Drain replicas then primaries ourselves so the exit codes
            # are observable; close() below only tidies router/tmpdir.
            workers = [w for group in cluster.replicas.values()
                       for w in group] + list(cluster.primaries)
            assert [w.terminate() for w in workers] == [0, 0, 0, 0]
