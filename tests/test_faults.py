"""Chaos suite: seeded faults over the serving stack, healed end to end.

The contract under test: with retries enabled and faults injected on a
deterministic schedule, (a) every decision equals the fault-free run of
the same requests, (b) no ``check_key`` is ever logged twice, and
(c) committed check-log rows survive a crash exactly once.
"""

import sqlite3
import threading

import pytest

from repro.corpus.volga import (
    VOLGA_POLICY_XML,
    VOLGA_REFERENCE_XML,
    jane_preference,
)
from repro.net import protocol
from repro.net.aio import serve_async
from repro.net.client import HttpClientAgent
from repro.net.httpd import serve
from repro.net.retry import RetryPolicy
from repro.server.policy_server import PolicyServer
from repro.testing import (
    FaultPlan,
    crash_pool,
    http_fault_hook,
    install_pool_faults,
)

SITE = "volga.example.com"

#: Fast schedule so a chaos run prices mechanics, not sleep time.
FAST_RETRY = RetryPolicy(max_attempts=8, base_delay=0.005,
                         multiplier=2.0, max_delay=0.05, deadline=10.0)

URIS = [f"/catalog/item-{i % 6}" if i % 3 else f"/legacy/item-{i}"
        for i in range(30)]


def assert_no_duplicate_keys(policy_server):
    policy_server.flush_log()
    with policy_server.pool.read() as db:
        duplicates = db.query(
            "SELECT check_key, COUNT(*) FROM check_log "
            "WHERE check_key IS NOT NULL "
            "GROUP BY check_key HAVING COUNT(*) > 1"
        )
    assert list(duplicates) == []


@pytest.fixture()
def chaos_httpd(tmp_path):
    server = serve(str(tmp_path / "chaos.db"))
    thread = server.run_in_thread()
    with HttpClientAgent(server.base_url) as admin:
        admin.install_policy(VOLGA_POLICY_XML, site=SITE,
                             reference_file=VOLGA_REFERENCE_XML)
    yield server
    server.fault_hook = None
    server.close()
    thread.join(timeout=5)


def fault_free_decisions(chaos_httpd):
    with HttpClientAgent(chaos_httpd.base_url, jane_preference(),
                         retry=None) as agent:
        return [agent.check(SITE, uri).decision for uri in URIS]


class TestFaultPlan:
    def test_every_nth_occurrence_fires(self):
        plan = FaultPlan(every={"sqlite": 3})
        fired = [plan.should("sqlite") for _ in range(9)]
        assert fired == [False, False, True] * 3
        assert plan.occurrences["sqlite"] == 9
        assert plan.injected["sqlite"] == 3

    def test_rates_are_seeded_and_reproducible(self):
        first = FaultPlan(seed=7, rates={"delay": 0.5})
        second = FaultPlan(seed=7, rates={"delay": 0.5})
        sequence = [first.should("delay") for _ in range(50)]
        assert sequence == [second.should("delay") for _ in range(50)]
        assert any(sequence) and not all(sequence)

    def test_max_faults_budget_caps_injection(self):
        plan = FaultPlan(every={"sqlite": 1}, max_faults=2)
        assert sum(plan.should("sqlite") for _ in range(10)) == 2
        assert plan.total_injected == 2

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(every={"tornado": 2})


class TestHttpChaos:
    def test_response_drops_heal_and_decisions_match(self, chaos_httpd):
        expected = fault_free_decisions(chaos_httpd)

        plan = FaultPlan(every={"response-drop": 3})
        chaos_httpd.fault_hook = http_fault_hook(plan)
        with HttpClientAgent(chaos_httpd.base_url, jane_preference(),
                             retry=FAST_RETRY) as agent:
            decisions = [agent.check(SITE, uri).decision for uri in URIS]
        chaos_httpd.fault_hook = None

        assert decisions == expected
        assert plan.total_injected > 0
        assert agent.retries >= plan.total_injected
        assert_no_duplicate_keys(chaos_httpd.policy_server)

    def test_consecutive_request_drops_need_the_backoff_policy(
            self, chaos_httpd):
        expected = fault_free_decisions(chaos_httpd)

        # Drop *every* request until the budget runs out: the single
        # stale-connection re-send cannot heal consecutive drops, only
        # the policy's bounded backoff can.
        plan = FaultPlan(every={"request-drop": 1}, max_faults=3)
        chaos_httpd.fault_hook = http_fault_hook(plan)
        with HttpClientAgent(chaos_httpd.base_url, jane_preference(),
                             retry=FAST_RETRY) as agent:
            decision = agent.check(SITE, URIS[0]).decision
        chaos_httpd.fault_hook = None

        assert decision == expected[0]
        assert plan.total_injected == 3
        assert agent.retries >= 3
        assert_no_duplicate_keys(chaos_httpd.policy_server)

    def test_truncated_responses_heal(self, chaos_httpd):
        expected = fault_free_decisions(chaos_httpd)

        plan = FaultPlan(every={"response-truncate": 4})
        chaos_httpd.fault_hook = http_fault_hook(plan)
        with HttpClientAgent(chaos_httpd.base_url, jane_preference(),
                             retry=FAST_RETRY) as agent:
            decisions = [agent.check(SITE, uri).decision for uri in URIS]
        chaos_httpd.fault_hook = None

        assert decisions == expected
        assert plan.total_injected > 0
        assert_no_duplicate_keys(chaos_httpd.policy_server)

    def test_faulted_batches_log_each_check_once(self, chaos_httpd):
        plan = FaultPlan(every={"response-drop": 2})
        chaos_httpd.fault_hook = http_fault_hook(plan)
        with HttpClientAgent(chaos_httpd.base_url, jane_preference(),
                             retry=FAST_RETRY) as agent:
            for start in range(0, len(URIS), 10):
                batch = [(SITE, uri) for uri in URIS[start:start + 10]]
                assert len(agent.check_batch(batch)) == len(batch)
        chaos_httpd.fault_hook = None

        backend = chaos_httpd.policy_server
        assert plan.total_injected > 0
        assert_no_duplicate_keys(backend)
        backend.flush_log()
        with backend.pool.read() as db:
            logged = db.scalar(
                "SELECT COUNT(DISTINCT check_key) FROM check_log "
                "WHERE check_key IS NOT NULL")
        assert logged == len(URIS)

    def test_shed_load_heals_via_retry_after(self, tmp_path):
        server = serve(str(tmp_path / "tiny.db"), max_inflight=1,
                       retry_after=0.05)
        thread = server.run_in_thread()
        try:
            with HttpClientAgent(server.base_url) as admin:
                admin.install_policy(VOLGA_POLICY_XML, site=SITE,
                                     reference_file=VOLGA_REFERENCE_XML)
            agent = HttpClientAgent(server.base_url, jane_preference(),
                                    retry=FAST_RETRY)
            agent.check(SITE, "/catalog/warm")

            assert server.admission.try_enter()  # occupy the only slot
            release = threading.Timer(0.2, server.admission.leave)
            release.start()
            try:
                # The 503 + Retry-After round trips through the policy:
                # the client waits the server out instead of failing.
                result = agent.check(SITE, "/catalog/overload")
                assert result.behavior is not None
                assert agent.retries >= 1
            finally:
                release.join()
            agent.close()
        finally:
            server.close()
            thread.join(timeout=5)


class TestAsyncChaos:
    def test_async_front_end_takes_the_same_fault_hook(self, tmp_path):
        """The hook sits in the shared request core, so drops and
        truncations heal the same way on the asyncio front end."""
        server = serve_async(str(tmp_path / "chaos-aio.db"))
        thread = server.run_in_thread()
        try:
            with HttpClientAgent(server.base_url) as admin:
                admin.install_policy(VOLGA_POLICY_XML, site=SITE,
                                     reference_file=VOLGA_REFERENCE_XML)
            expected = fault_free_decisions(server)
            plan = FaultPlan(every={"request-drop": 5, "response-drop": 4,
                                    "response-truncate": 3})
            server.fault_hook = http_fault_hook(plan)
            with HttpClientAgent(server.base_url, jane_preference(),
                                 retry=FAST_RETRY) as agent:
                decisions = [agent.check(SITE, uri).decision
                             for uri in URIS]
            server.fault_hook = None

            assert decisions == expected
            assert all(plan.injected[kind] > 0 for kind in
                       ("request-drop", "response-drop",
                        "response-truncate"))
            assert_no_duplicate_keys(server.policy_server)
        finally:
            server.close()
            thread.join(timeout=5)


class TestSqliteFaults:
    def test_faulted_flush_requeues_and_later_flush_drains(self, tmp_path):
        from repro.corpus.volga import volga_policy
        server = PolicyServer(str(tmp_path / "flaky.db"),
                              log_batch_size=1000)
        server.install_policy(volga_policy(), site=SITE)
        server.install_reference_file(VOLGA_REFERENCE_XML, SITE)
        jane = jane_preference()
        try:
            requests = [(SITE, uri, jane, f"key-{i}")
                        for i, uri in enumerate(URIS)]
            plan = FaultPlan(every={"sqlite": 1}, max_faults=2)
            uninstall = install_pool_faults(server.pool, plan)
            try:
                for request in requests:
                    server.check(request[0], request[1], request[2],
                                 check_key=request[3])
                for _ in range(2):  # the two scheduled faults
                    with pytest.raises(sqlite3.OperationalError):
                        server.flush_log()
                assert server.log.pending == len(requests)  # re-queued
                assert server.flush_log() == len(requests)
            finally:
                uninstall()

            # Retrying every check after the failure window adds nothing.
            for request in requests:
                server.check(request[0], request[1], request[2],
                             check_key=request[3])
            assert_no_duplicate_keys(server)
            with server.pool.read() as db:
                assert db.scalar(
                    "SELECT COUNT(*) FROM check_log "
                    "WHERE check_key IS NOT NULL") == len(requests)
        finally:
            server.close()


class TestCrashRecovery:
    def _server(self, path, **kwargs):
        from repro.corpus.volga import volga_policy
        server = PolicyServer(str(path), **kwargs)
        server.install_policy(volga_policy(), site=SITE)
        server.install_reference_file(VOLGA_REFERENCE_XML, SITE)
        return server

    def test_committed_rows_survive_a_crash_exactly_once(self, tmp_path):
        path = tmp_path / "crash.db"
        server = self._server(path, log_batch_size=1000)
        jane = jane_preference()

        committed = [f"crash-{i}" for i in range(10)]
        buffered = [f"lost-{i}" for i in range(5)]
        for i, key in enumerate(committed):
            server.check(SITE, f"/catalog/item-{i}", jane, check_key=key)
        server.flush_log()
        for i, key in enumerate(buffered):
            server.check(SITE, f"/catalog/late-{i}", jane, check_key=key)
        assert server.log.pending == len(buffered)
        crash_pool(server.pool)  # kill -9: buffered rows die

        survivor = PolicyServer(str(path))
        try:
            with survivor.pool.read() as db:
                keys = sorted(row[0] for row in db.query(
                    "SELECT check_key FROM check_log "
                    "WHERE check_key IS NOT NULL"))
            assert keys == sorted(committed)
            assert_no_duplicate_keys(survivor)

            # Clients retry what they never got an answer for — both
            # the lost checks and (spuriously) some committed ones.
            for i, key in enumerate(buffered):
                survivor.check(SITE, f"/catalog/late-{i}", jane,
                               check_key=key)
            for i, key in enumerate(committed[:3]):
                survivor.check(SITE, f"/catalog/item-{i}", jane,
                               check_key=key)
            survivor.flush_log()
            with survivor.pool.read() as db:
                total = db.scalar(
                    "SELECT COUNT(*) FROM check_log "
                    "WHERE check_key IS NOT NULL")
            assert total == len(committed) + len(buffered)
            assert_no_duplicate_keys(survivor)
        finally:
            survivor.close()

    @pytest.mark.slow
    def test_crash_mid_concurrent_load_loses_no_committed_row(
            self, tmp_path):
        path = tmp_path / "midload.db"
        server = self._server(path, log_batch_size=8,
                              log_flush_interval=0.01)
        jane = jane_preference()
        stop = threading.Event()
        issued: list[str] = []
        issued_lock = threading.Lock()

        def hammer(worker):
            n = 0
            while not stop.is_set():
                key = f"w{worker}-{n}"
                try:
                    server.check(SITE, f"/catalog/item-{n % 6}", jane,
                                 check_key=key)
                except Exception:
                    return  # the crash landed mid-call
                with issued_lock:
                    issued.append(key)
                n += 1

        threads = [threading.Thread(target=hammer, args=(w,))
                   for w in range(4)]
        for thread in threads:
            thread.start()
        while True:  # crash only after real load has committed
            try:
                with server.pool.read() as db:
                    if db.scalar("SELECT COUNT(*) FROM check_log") >= 64:
                        break
            except Exception:
                break
        crash_pool(server.pool)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)

        survivor = PolicyServer(str(path))
        try:
            with survivor.pool.read() as db:
                rows = db.scalar("SELECT COUNT(*) FROM check_log")
                distinct = db.scalar(
                    "SELECT COUNT(DISTINCT check_key) FROM check_log "
                    "WHERE check_key IS NOT NULL")
                logged = {row[0] for row in db.query(
                    "SELECT check_key FROM check_log "
                    "WHERE check_key IS NOT NULL")}
            # No duplicates, nothing invented: every logged key was
            # issued by a worker (committed rows are a prefix of the
            # issued stream; buffered tails may be lost, never forged).
            assert rows == distinct
            assert rows >= 64
            with issued_lock:
                tracked = set(issued)
            untracked = logged - tracked
            # A worker that crashed mid-call may have committed its row
            # without recording it as issued; at most one per worker.
            assert len(untracked) <= len(threads)
            assert_no_duplicate_keys(survivor)
        finally:
            survivor.close()


class TestProtocolHardening:
    def test_negative_content_length_is_rejected(self, chaos_httpd):
        import http.client
        connection = http.client.HTTPConnection(chaos_httpd.host,
                                                chaos_httpd.port,
                                                timeout=10)
        try:
            connection.putrequest("POST", "/v1/check",
                                  skip_accept_encoding=True)
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", "-17")
            connection.endheaders()
            response = connection.getresponse()
            body = response.read()
            assert response.status == 400
            envelope = protocol.ErrorEnvelope.from_wire(
                protocol.decode(body))
            assert envelope.code == protocol.ERR_BAD_REQUEST
        finally:
            connection.close()
