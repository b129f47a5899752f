"""The HTTP tier end to end: ephemeral-port server, thin client, admission.

Servers bind port 0 and read the address back — no fixed ports, so the
suite parallelizes and never collides with the host.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.corpus.policies import fortune_corpus
from repro.corpus.preferences import jrc_suite
from repro.corpus.volga import (
    VOLGA_POLICY_XML,
    VOLGA_REFERENCE_XML,
    jane_preference,
    volga_policy,
)
from repro.errors import StorageError
from repro.net import protocol
from repro.net.admission import AdmissionController
from repro.net.aio import AsyncP3PServer, serve_async
from repro.net.client import HttpClientAgent
from repro.net.httpd import (
    P3PHttpServer,
    PreferenceRegistry,
    run_to_completion,
    serve,
)
from repro.p3p.reference import parse_reference_file
from repro.server.client import ClientAgent
from repro.server.policy_server import PolicyServer, rule_body_hash
from repro.server.site import Site

SITE = "volga.example.com"


@pytest.fixture()
def httpd(request, tmp_path):
    """A disk-backed HTTP server on an ephemeral port, Volga installed:
    the threaded front end, or the factory a test class names in
    ``serve`` (the parity classes below re-run against the async one)."""
    server = getattr(request.cls, "serve", serve)(str(tmp_path / "httpd.db"))
    thread = server.run_in_thread()
    agent = HttpClientAgent(server.base_url)
    agent.install_policy(VOLGA_POLICY_XML, site=SITE,
                         reference_file=VOLGA_REFERENCE_XML)
    agent.close()
    yield server
    server.close()
    thread.join(timeout=5)


@pytest.fixture()
def agent(httpd):
    with HttpClientAgent(httpd.base_url, jane_preference()) as jane:
        yield jane


def raw_request(httpd, method, path, body=None, headers=None):
    """A request outside HttpClientAgent's conveniences (raw status)."""
    connection = http.client.HTTPConnection(httpd.host, httpd.port,
                                            timeout=10)
    try:
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/json",
                                    **(headers or {})})
        response = connection.getresponse()
        received = dict(
            (key.lower(), value) for key, value in response.getheaders())
        # Every response, error envelopes and 304s included, names the
        # server that produced it.
        assert received.get(protocol.SERVER_ID_HEADER.lower())
        return response.status, received, response.read()
    finally:
        connection.close()


class TestBasics:
    def test_healthz(self, agent):
        assert agent.health()["status"] == "ok"

    def test_ephemeral_port_bound(self, httpd):
        assert httpd.port != 0
        assert str(httpd.port) in httpd.base_url

    def test_check_decision_matches_in_process(self, httpd, agent,
                                               tmp_path):
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

    def test_register_is_idempotent(self, httpd, agent):
        first = agent.register_preference()
        second = agent.register_preference()
        assert first == second
        assert len(httpd.preferences) == 1

    def test_metrics_counters(self, httpd, agent):
        agent.check(SITE, "/catalog/metrics-probe")
        metrics = agent.metrics()
        assert metrics["checks_served"] >= 1
        assert metrics["requests"]["total"] >= 2
        assert metrics["admission"]["limit"] == 64
        assert 0.0 <= metrics["translation_cache"]["hit_rate"] <= 1.0
        assert metrics["check_log"]["pending"] >= 0
        assert metrics["preferences"]["registered"] == 1


class TestErrors:
    serve = staticmethod(serve)

    def test_malformed_json_is_400_bad_json(self, httpd):
        status, _, body = raw_request(httpd, "POST", "/v1/check",
                                      body=b"{not json")
        assert status == 400
        assert json.loads(body)["error"]["code"] == protocol.ERR_BAD_JSON

    def test_unknown_version_is_400_bad_version(self, httpd):
        status, _, body = raw_request(
            httpd, "POST", "/v1/check",
            body=json.dumps({"v": 99, "site": SITE, "uri": "/x",
                             "preference_hash": "h"}).encode())
        assert status == 400
        assert json.loads(body)["error"]["code"] == \
            protocol.ERR_BAD_VERSION

    def test_missing_field_is_400_bad_request(self, httpd):
        status, _, body = raw_request(
            httpd, "POST", "/v1/check",
            body=json.dumps({"v": 1, "site": SITE}).encode())
        assert status == 400
        assert json.loads(body)["error"]["code"] == \
            protocol.ERR_BAD_REQUEST

    def test_unknown_endpoint_is_404(self, httpd):
        status, _, body = raw_request(httpd, "GET", "/v1/nope")
        assert status == 404
        assert json.loads(body)["error"]["code"] == protocol.ERR_NOT_FOUND

    def test_wrong_method_is_405(self, httpd):
        status, _, body = raw_request(httpd, "GET", "/v1/check")
        assert status == 405
        assert json.loads(body)["error"]["code"] == \
            protocol.ERR_METHOD_NOT_ALLOWED

    def test_unparseable_appel_is_422(self, httpd):
        status, _, body = raw_request(
            httpd, "POST", "/v1/preferences",
            body=protocol.encode({"appel": "<not-appel/>"}))
        assert status == 422
        assert json.loads(body)["error"]["code"] == protocol.ERR_PARSE

    def test_unknown_preference_hash_is_404(self, httpd):
        status, _, body = raw_request(
            httpd, "POST", "/v1/check",
            body=protocol.encode({"site": SITE, "uri": "/x",
                                  "preference_hash": "f" * 64}))
        assert status == 404
        assert json.loads(body)["error"]["code"] == \
            protocol.ERR_UNKNOWN_PREFERENCE

    def test_oversized_body_is_413(self, tmp_path):
        server = self.serve(str(tmp_path / "small.db"), max_body_bytes=512)
        thread = server.run_in_thread()
        try:
            status, _, body = raw_request(
                server, "POST", "/v1/preferences",
                body=b"x" * 1024)
            assert status == 413
            assert json.loads(body)["error"]["code"] == \
                protocol.ERR_PAYLOAD_TOO_LARGE
        finally:
            server.close()
            thread.join(timeout=5)


class TestReferenceFileETag:
    serve = staticmethod(serve)

    def test_fetch_and_revalidate(self, httpd):
        status, headers, body = raw_request(
            httpd, "GET", f"/w3c/p3p.xml?site={SITE}")
        assert status == 200
        assert headers["content-type"].startswith("application/xml")
        etag = headers["etag"]
        assert etag.startswith('"') and etag.endswith('"')
        assert body.decode("utf-8") == VOLGA_REFERENCE_XML

        status, headers, body = raw_request(
            httpd, "GET", f"/w3c/p3p.xml?site={SITE}",
            headers={"If-None-Match": etag})
        assert status == 304
        assert body == b""
        assert headers["etag"] == etag

    def test_stale_etag_gets_full_body(self, httpd):
        status, _, body = raw_request(
            httpd, "GET", f"/w3c/p3p.xml?site={SITE}",
            headers={"If-None-Match": '"0000"'})
        assert status == 200
        assert body.decode("utf-8") == VOLGA_REFERENCE_XML

    def test_unknown_site_is_404(self, httpd):
        status, _, body = raw_request(
            httpd, "GET", "/w3c/p3p.xml?site=nowhere.example")
        assert status == 404
        assert json.loads(body)["error"]["code"] == protocol.ERR_NOT_FOUND

    def test_client_agent_caches_via_etag(self, httpd, agent):
        first = agent.fetch_reference_file(SITE)
        second = agent.fetch_reference_file(SITE)
        assert first == second == VOLGA_REFERENCE_XML
        assert agent.revalidations == 1
        assert agent.metrics()["reference_not_modified"] == 1

    def test_host_header_selects_site(self, httpd):
        status, _, body = raw_request(httpd, "GET", "/w3c/p3p.xml",
                                      headers={"Host": f"{SITE}:80"})
        assert status == 200
        assert body.decode("utf-8") == VOLGA_REFERENCE_XML


class TestAtomicInstall:
    """An install whose reference file is refused changes nothing: the
    policy, its retargeted references and the invalidated decisions all
    commit with the reference file or not at all."""

    serve = staticmethod(serve)

    REFUSED = {
        "unparseable": VOLGA_REFERENCE_XML.replace("</META>", ""),
        "unknown-policy": VOLGA_REFERENCE_XML.replace("#volga",
                                                      "#no-such-policy"),
    }

    @staticmethod
    def state(httpd):
        with httpd.policy_server.pool.read() as db:
            return {
                "policies": [tuple(row) for row in db.query(
                    "SELECT policy_id, version, active FROM policy "
                    "ORDER BY policy_id")],
                "references": [tuple(row) for row in db.query(
                    "SELECT meta.site, policyref.about, policyref.policy_id "
                    "FROM policyref JOIN meta USING (meta_id) "
                    "ORDER BY meta.meta_id, policyref.policyref_id")],
                "decisions": sorted(tuple(row) for row in db.query(
                    "SELECT policy_id, policy_version, behavior, "
                    "rule_index FROM decision_cache")),
            }

    @pytest.mark.parametrize("refused", sorted(REFUSED))
    def test_refused_reference_file_changes_nothing(self, httpd, agent,
                                                    refused):
        agent.check(SITE, "/catalog/book-1")       # registers, caches
        before = self.state(httpd)
        assert before["decisions"]
        with HttpClientAgent(httpd.base_url, retry=None) as admin:
            with pytest.raises(protocol.ProtocolError) as excinfo:
                admin.install_policy(VOLGA_POLICY_XML, site=SITE,
                                     reference_file=self.REFUSED[refused])
        assert excinfo.value.code == protocol.ERR_PARSE
        assert self.state(httpd) == before
        status, _, body = raw_request(
            httpd, "GET", f"/w3c/p3p.xml?site={SITE}")
        assert status == 200
        assert body.decode("utf-8") == VOLGA_REFERENCE_XML
        assert agent.check(SITE, "/catalog/book-1").policy_id == \
            before["policies"][-1][0]

    def test_accepted_install_commits_everything(self, httpd, agent):
        agent.check(SITE, "/catalog/book-1")
        (old_id, _, _), = self.state(httpd)["policies"]
        with HttpClientAgent(httpd.base_url, retry=None) as admin:
            admin.install_policy(VOLGA_POLICY_XML, site=SITE,
                                 reference_file=VOLGA_REFERENCE_XML)
        after = self.state(httpd)
        assert [(version, active) for _, version, active
                in after["policies"]] == [(1, 0), (2, 1)]
        new_id = after["policies"][-1][0]
        assert {row[2] for row in after["references"]} == {new_id}
        assert all(row[0] != old_id for row in after["decisions"])
        assert agent.check(SITE, "/catalog/book-1").policy_id == new_id


class TestErrorsAsync(TestErrors):
    """Every error case again, against the asyncio front end."""

    serve = staticmethod(serve_async)


class TestReferenceFileETagAsync(TestReferenceFileETag):
    """Reference files and ETag revalidation on the asyncio front end."""

    serve = staticmethod(serve_async)


class TestAtomicInstallAsync(TestAtomicInstall):
    """Refused and accepted installs on the asyncio front end."""

    serve = staticmethod(serve_async)


class TestRequestCore:
    def test_suspending_handler_is_refused_off_the_loop(self):
        async def suspends():
            await asyncio.sleep(0)

        with pytest.raises(RuntimeError, match="suspended"):
            run_to_completion(suspends())

    @pytest.mark.parametrize("server_class", [P3PHttpServer,
                                              AsyncP3PServer])
    def test_failed_batch_logs_the_good_checks_before_replying(
            self, server_class, tmp_path):
        """A batch whose tail fails answers internal-error only after
        every sub-batch finished and the check log was flushed: the
        good checks are durable when the reply arrives."""
        policy_server = PolicyServer(str(tmp_path / "batch.db"),
                                     log_batch_size=1000)
        policy_server.install_policy(volga_policy(), site=SITE)
        policy_server.install_reference_file(VOLGA_REFERENCE_XML, SITE)
        resolve = policy_server.references.applicable_policy_id

        def failing_resolve(site, uri, *args, **kwargs):
            if site == "broken.example":
                raise RuntimeError("injected: resolution failed")
            return resolve(site, uri, *args, **kwargs)

        policy_server.references.applicable_policy_id = failing_resolve
        server = server_class(policy_server, owns_policy_server=True)
        thread = server.run_in_thread()
        try:
            with HttpClientAgent(server.base_url, jane_preference(),
                                 retry=None) as agent:
                agent.register_preference()
                checks = ([(SITE, f"/catalog/good-{i}") for i in range(32)]
                          + [("broken.example", f"/bad-{i}")
                             for i in range(8)])
                with pytest.raises(protocol.ProtocolError) as excinfo:
                    agent.check_batch(checks)
            assert excinfo.value.code == protocol.ERR_INTERNAL
            with policy_server.pool.read() as db:
                durable = db.scalar("SELECT COUNT(*) FROM check_log")
            assert durable == 32
            assert policy_server.log.pending == 0
        finally:
            server.close()
            thread.join(timeout=5)


class TestFailureIsolation:
    """A check whose resolution fails fails alone, on both front ends:
    the good check beside it is answered, and the failure maps to the
    same status and code as on the threaded path."""

    @pytest.mark.parametrize("error, status, code", [
        (RuntimeError, 500, protocol.ERR_INTERNAL),
        (StorageError, 422, protocol.ERR_PARSE),
    ])
    @pytest.mark.parametrize("server_class", [P3PHttpServer,
                                              AsyncP3PServer])
    def test_failed_resolution_fails_only_its_check(
            self, server_class, error, status, code, tmp_path):
        policy_server = PolicyServer(str(tmp_path / "isolate.db"))
        policy_server.install_policy(volga_policy(), site=SITE)
        policy_server.install_reference_file(VOLGA_REFERENCE_XML, SITE)
        resolve = policy_server.references.applicable_policy_id
        held, release = threading.Event(), threading.Event()

        def resolve_or_fail(site, uri, *args, **kwargs):
            if site == "held.example":
                held.set()
                release.wait(10)
            elif site == "broken.example":
                raise error("injected: resolution failed")
            return resolve(site, uri, *args, **kwargs)

        policy_server.references.applicable_policy_id = resolve_or_fail
        server = server_class(policy_server, owns_policy_server=True)
        thread = server.run_in_thread()
        try:
            with HttpClientAgent(server.base_url, jane_preference()) as agent:
                digest = agent.register_preference()

            def check(site, uri):
                return raw_request(server, "POST", "/v1/check",
                                   body=protocol.encode(
                                       protocol.CheckRequest(
                                           site=site, uri=uri,
                                           preference_hash=digest,
                                           check_key=f"key-{uri}",
                                       ).to_wire()))

            with ThreadPoolExecutor(max_workers=3) as pool:
                # On the async front end the held check keeps its key
                # busy, so the failing and the good check queue behind
                # it and leave together as one batch.
                first = pool.submit(check, "held.example", "/held")
                assert held.wait(10)
                bad = pool.submit(check, "broken.example", "/bad")
                good = pool.submit(check, SITE, "/catalog/good")
                if server_class is AsyncP3PServer:
                    deadline = time.monotonic() + 10
                    while (server.batching.requests_total < 3
                           and time.monotonic() < deadline):
                        time.sleep(0.001)
                release.set()
                results = [future.result() for future in
                           (first, bad, good)]
            if server_class is AsyncP3PServer:
                assert server.batching.depth_max == 2
            (held_status, _, _), (bad_status, _, bad_body), \
                (good_status, _, good_body) = results
            assert held_status == 200
            assert bad_status == status
            assert json.loads(bad_body)["error"]["code"] == code
            assert good_status == 200
            assert json.loads(good_body)["policy_id"] is not None
            policy_server.flush_log()
            with policy_server.pool.read() as db:
                logged = {row["check_key"] for row in db.query(
                    "SELECT check_key FROM check_log")}
            assert logged == {"key-/held", "key-/catalog/good"}
        finally:
            server.close()
            thread.join(timeout=5)

    @pytest.mark.parametrize("server_class", [P3PHttpServer,
                                              AsyncP3PServer])
    def test_nul_in_uri_resolves_like_any_other_uri(self, server_class,
                                                    tmp_path):
        """Site and URI are bound, never spliced into SQL: a NUL (valid
        JSON) is decided by the reference file, not refused."""
        policy_server = PolicyServer(str(tmp_path / "nul.db"))
        policy_server.install_policy(volga_policy(), site=SITE)
        policy_server.install_reference_file(VOLGA_REFERENCE_XML, SITE)
        reference = parse_reference_file(VOLGA_REFERENCE_XML)
        server = server_class(policy_server, owns_policy_server=True)
        thread = server.run_in_thread()
        try:
            with HttpClientAgent(server.base_url, jane_preference(),
                                 retry=None) as agent:
                for uri in ("/catalog/x\u0000y", "/legacy/x\u0000y",
                            "/leg\u0000acy/x"):
                    result = agent.check(SITE, uri)
                    assert result.covered == (
                        reference.applicable_policy(uri) is not None), uri
        finally:
            server.close()
            thread.join(timeout=5)


class TestAdmissionControl:
    def test_unit_gate_semantics(self):
        gate = AdmissionController(2, retry_after=3.0)
        assert gate.try_enter() and gate.try_enter()
        assert not gate.try_enter()
        snapshot = gate.snapshot()
        assert snapshot["in_flight"] == 2
        assert snapshot["rejected"] == 1
        gate.leave()
        assert gate.try_enter()
        assert gate.snapshot()["peak_in_flight"] == 2
        with pytest.raises(ValueError):
            AdmissionController(0)

    def test_unbalanced_leave_refused(self):
        gate = AdmissionController(1)
        with pytest.raises(RuntimeError):
            gate.leave()

    def test_admit_context_manager(self):
        gate = AdmissionController(1)
        with gate.admit() as ok:
            assert ok
            with gate.admit() as nested:
                assert not nested
        assert gate.snapshot()["in_flight"] == 0

    def test_check_sheds_load_with_503_and_retry_after(self, tmp_path):
        server = serve(str(tmp_path / "tiny.db"), max_inflight=1,
                       retry_after=2.0)
        thread = server.run_in_thread()
        try:
            # retry=None: this test asserts the raw shedding contract,
            # not the client-side healing built on top of it.
            agent = HttpClientAgent(server.base_url, jane_preference(),
                                    retry=None)
            agent.install_policy(VOLGA_POLICY_XML, site=SITE,
                                 reference_file=VOLGA_REFERENCE_XML)
            agent.check(SITE, "/catalog/warm")     # registers + warms

            assert server.admission.try_enter()    # occupy the only slot
            try:
                with pytest.raises(protocol.ProtocolError) as excinfo:
                    agent.check(SITE, "/catalog/overload")
                assert excinfo.value.code == protocol.ERR_OVERLOADED
                assert excinfo.value.http_status == 503
                assert excinfo.value.retry_after == 2.0

                status, headers, _ = raw_request(
                    server, "POST", "/v1/check",
                    body=protocol.encode(protocol.CheckRequest(
                        site=SITE, uri="/x",
                        preference_hash=agent.preference_hash,
                    ).to_wire()))
                assert status == 503
                assert headers["retry-after"] == "2"
            finally:
                server.admission.leave()

            # The slot is free again: the same request now succeeds.
            assert agent.check(SITE, "/catalog/after").covered
            assert server.admission.snapshot()["rejected"] == 2
            agent.close()
        finally:
            server.close()
            thread.join(timeout=5)

    def test_healthz_bypasses_admission(self, tmp_path):
        server = serve(str(tmp_path / "busy.db"), max_inflight=1)
        thread = server.run_in_thread()
        try:
            assert server.admission.try_enter()
            try:
                agent = HttpClientAgent(server.base_url)
                assert agent.health()["status"] == "ok"
                assert agent.metrics()["admission"]["in_flight"] == 1
                agent.close()
            finally:
                server.admission.leave()
        finally:
            server.close()
            thread.join(timeout=5)


class TestRegisterOnceSelfHealing:
    def test_client_reregisters_after_registry_loss(self, httpd, agent):
        agent.check(SITE, "/catalog/first")
        # Simulate a server restart: the registry forgets everything.
        httpd.preferences._entries.clear()
        result = agent.check(SITE, "/catalog/second")
        assert result.covered
        assert agent.reregistrations == 1

    def test_registry_eviction_is_bounded_and_survivable(self, httpd,
                                                         agent):
        registry = PreferenceRegistry(maxsize=2)
        httpd.preferences = registry
        suite = jrc_suite()
        for preference in suite.values():       # 5 levels through size 2
            registry.register(preference)
        assert len(registry) == 2
        assert registry.evictions == 3
        result = agent.check(SITE, "/catalog/evicted")   # re-registers
        assert result.covered


class TestGracefulShutdown:
    def test_close_flushes_check_log(self, tmp_path):
        server = serve(str(tmp_path / "flush.db"))
        thread = server.run_in_thread()
        agent = HttpClientAgent(server.base_url, jane_preference())
        agent.install_policy(VOLGA_POLICY_XML, site=SITE,
                             reference_file=VOLGA_REFERENCE_XML)
        for index in range(5):
            agent.check(SITE, f"/catalog/shutdown-{index}")
        pending = server.policy_server.log.pending
        assert pending > 0, "checks should still be buffered"
        agent.close()
        server.close()
        thread.join(timeout=5)
        assert server.policy_server.log.pending == 0
        assert server.policy_server.log.written >= pending

    def test_close_is_idempotent(self, tmp_path):
        server = serve(str(tmp_path / "idem.db"))
        server.close()
        server.close()


class TestSiteAndClientAgentOverHttp:
    def test_site_from_url(self, httpd):
        site = Site.from_url(httpd.base_url, SITE)
        assert site.host == SITE
        ref = site.reference_file.applicable_policy("/catalog/x")
        assert ref is not None and ref.policy_name == "volga"
        assert site.reference_file.applicable_policy("/legacy/x") is None
        assert site.fetch_counts["reference"] == 1

    def test_client_agent_delegates_over_the_wire(self, httpd):
        site = Site.from_url(httpd.base_url, SITE)
        thin = ClientAgent(jane_preference(),
                           transport=HttpClientAgent(httpd.base_url))
        result = thin.check(site, "/catalog/book-9")
        assert result.policy_name == "volga"
        assert result.behavior == "request"
        assert result.allowed
        # First check pays registration + check; later checks 1 round trip.
        assert result.fetches == 2
        assert thin.check(site, "/catalog/book-10").fetches == 1

    def test_wire_and_simulated_agents_agree(self, httpd):
        from repro.p3p.reference import parse_reference_file

        simulated_site = Site(
            host=SITE,
            reference_file=parse_reference_file(VOLGA_REFERENCE_XML),
            policies={"volga": volga_policy()},
        )
        simulated = ClientAgent(jane_preference())
        wired = ClientAgent(jane_preference(),
                            transport=HttpClientAgent(httpd.base_url))
        for uri in ("/catalog/a", "/legacy/b", "/anything"):
            local = simulated.check(simulated_site, uri)
            remote = wired.check(simulated_site, uri)
            assert (local.policy_name, local.behavior) == \
                (remote.policy_name, remote.behavior)


class TestEndToEndAcceptance:
    """The ISSUE's acceptance scenario, verbatim."""

    THREADS = 4

    def test_batch_checks_match_in_process_byte_for_byte(self, tmp_path):
        policy = fortune_corpus()[0]
        reference_xml = (
            '<META xmlns="http://www.w3.org/2002/01/P3Pv1">\n'
            "  <POLICY-REFERENCES>\n"
            f'    <POLICY-REF about="#{policy.name}">\n'
            "      <INCLUDE>/*</INCLUDE>\n"
            "      <EXCLUDE>/private/*</EXCLUDE>\n"
            "    </POLICY-REF>\n"
            "  </POLICY-REFERENCES>\n"
            "</META>\n"
        )
        corp = "corp.example.com"
        preference = jrc_suite()["High"]        # a JRC preference
        requests = [
            (corp, f"/products/p{i}" if i % 3 else f"/private/p{i}")
            for i in range(48)
        ]

        # In-process reference run.
        local = PolicyServer(str(tmp_path / "local.db"))
        try:
            local.install_policy(policy, site=corp)
            local.install_reference_file(reference_xml, corp)
            expected = [
                local.check(site, uri, preference)
                for site, uri in requests
            ]
        finally:
            local.close()

        # Over-the-wire run: 4 client threads, one batch each.
        server = serve(str(tmp_path / "wire.db"))
        thread = server.run_in_thread()
        try:
            admin = HttpClientAgent(server.base_url, preference)
            admin.install_policy(policy, site=corp,
                                 reference_file=reference_xml)
            digest = admin.register_preference()
            admin.close()

            chunks = [requests[i::self.THREADS]
                      for i in range(self.THREADS)]
            decisions: dict[int, list] = {}
            errors: list[Exception] = []

            def worker(index: int) -> None:
                try:
                    with HttpClientAgent(server.base_url, preference,
                                         preference_hash=digest) as c:
                        decisions[index] = c.check_batch(chunks[index])
                except Exception as exc:     # pragma: no cover
                    errors.append(exc)

            workers = [threading.Thread(target=worker, args=(i,))
                       for i in range(self.THREADS)]
            for worker_thread in workers:
                worker_thread.start()
            for worker_thread in workers:
                worker_thread.join(timeout=30)
            assert errors == []

            # Stitch the interleaved chunks back into request order.
            over_wire: list = [None] * len(requests)
            for index, chunk in decisions.items():
                for offset, result in enumerate(chunk):
                    over_wire[index + offset * self.THREADS] = result

            expected_decisions = json.dumps(
                [(r.site, r.uri, r.policy_id, r.behavior, r.rule_index)
                 for r in expected])
            wire_decisions = json.dumps(
                [list(r.decision) for r in over_wire])
            assert json.loads(wire_decisions) == \
                json.loads(expected_decisions)
            assert wire_decisions.encode("utf-8") == json.dumps(
                [list(t) for t in json.loads(expected_decisions)]
            ).encode("utf-8")

            # Exactly-once logging across the network boundary.
            assert server.policy_server.check_count() == len(requests)
        finally:
            server.close()
            thread.join(timeout=5)


class TestMatchCorpus:
    def test_match_covers_every_installed_policy(self, httpd):
        with HttpClientAgent(httpd.base_url, jane_preference()) as agent:
            response = agent.match_corpus()
            names = [entry.name for entry in response.results]
            assert "volga" in names
            # Registration eagerly populated the cache, so the first
            # match is already warm.
            assert response.cache_misses == 0
            assert all(entry.cached for entry in response.results)

    def test_metrics_expose_decision_cache(self, httpd):
        with HttpClientAgent(httpd.base_url, jane_preference()) as agent:
            agent.match_corpus()
            cache = agent.metrics()["decision_cache"]
            assert cache["populated"] >= 1
            assert cache["write_errors"] == 0
            assert cache["hits"] >= 1

    def test_unknown_hash_gets_unknown_preference(self, httpd):
        status, _, body = raw_request(
            httpd, "POST", "/v1/match",
            body=protocol.encode({"preference_hash": "nope"}))
        assert status == 404
        envelope = protocol.ErrorEnvelope.from_wire(json.loads(body))
        assert envelope.code == protocol.ERR_UNKNOWN_PREFERENCE


class TestMatchCorpusConcurrency:
    """4 matcher threads against a thread of version-bumping installs:
    every served (version, decision) pair must be internally consistent
    — the decision the native engine gives for exactly that version —
    so no interleaving can expose a stale cache row."""

    MATCHERS = 4
    MATCHES_EACH = 10
    VERSIONS = 8

    @staticmethod
    def _flux(retention):
        from repro.p3p.model import (
            Policy,
            PurposeValue,
            RecipientValue,
            Statement,
        )

        return Policy(
            name="flux",
            discuri="http://flux.example.com/p",
            statements=(
                Statement(
                    purposes=(PurposeValue("current"),),
                    recipients=(RecipientValue("ours"),),
                    retention=retention,
                ),
            ),
        )

    def test_every_response_consistent_with_some_install_order(
            self, httpd):
        from repro.appel.engine import AppelEngine
        from repro.p3p.serializer import serialize_policy

        retentions = ("no-retention", "stated-purpose", "indefinitely")
        preference = jrc_suite()["Very High"]
        native = AppelEngine()
        retention_for = {
            version: retentions[(version - 1) % len(retentions)]
            for version in range(1, self.VERSIONS + 1)
        }
        expected_by_version = {
            version: (verdict.behavior, verdict.rule_index)
            for version, retention in retention_for.items()
            for verdict in (native.evaluate(self._flux(retention),
                                            preference),)
        }
        # The interleaving only proves something if versions disagree.
        assert len(set(expected_by_version.values())) > 1

        with HttpClientAgent(httpd.base_url, preference) as admin:
            admin.install_policy(
                serialize_policy(self._flux(retention_for[1])))
            admin.register_preference()

        barrier = threading.Barrier(self.MATCHERS + 1)
        observed: list[tuple] = []
        lock = threading.Lock()
        errors: list[Exception] = []

        def matcher() -> None:
            try:
                with HttpClientAgent(httpd.base_url, preference) as c:
                    barrier.wait(timeout=10)
                    for _ in range(self.MATCHES_EACH):
                        for entry in c.match_corpus().results:
                            if entry.name == "flux":
                                with lock:
                                    observed.append(
                                        (entry.version, entry.behavior,
                                         entry.rule_index))
            except Exception as exc:     # pragma: no cover
                errors.append(exc)

        def installer() -> None:
            try:
                with HttpClientAgent(httpd.base_url, preference) as c:
                    barrier.wait(timeout=10)
                    for version in range(2, self.VERSIONS + 1):
                        c.install_policy(serialize_policy(
                            self._flux(retention_for[version])))
            except Exception as exc:     # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=matcher)
                   for _ in range(self.MATCHERS)]
        threads.append(threading.Thread(target=installer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        # A versioned install inserts the new active version before
        # deactivating the old one (a reader never sees *zero* active
        # versions), so a match racing an install may carry both — at
        # least one "flux" entry per match, never more than two.
        floor = self.MATCHERS * self.MATCHES_EACH
        assert floor <= len(observed) <= 2 * floor

        # Serializability: whatever version a response carried, its
        # decision is that version's — never another version's through
        # a stale cache row.
        for version, behavior, rule_index in set(observed):
            assert (behavior, rule_index) == \
                expected_by_version[version], version


class TestStaticAnalysisSurface:
    def test_metrics_expose_audit_and_validation_counters(self, agent):
        metrics = agent.metrics()
        assert metrics["plan_audit"] == {"plans_audited": 0,
                                         "findings": 0}
        assert metrics["preferences"]["validation_findings"] == 0

    def test_registry_logs_bad_ruleset_without_rejecting(self, caplog):
        from repro.appel.model import expression, rule, ruleset

        registry = PreferenceRegistry()
        suspect = ruleset(rule("blokk", expression(
            "POLICY", expression("STATEMNT"))))
        with caplog.at_level("WARNING", logger="repro.net.httpd"):
            digest, created = registry.register(suspect)
        assert created and registry.get(digest) is suspect
        assert registry.validation_findings > 0
        messages = " ".join(record.message for record in caplog.records)
        assert "blokk" in messages
        assert "STATEMNT" in messages

    def test_revalidation_skipped_for_known_ruleset(self):
        from repro.appel.model import rule, ruleset

        registry = PreferenceRegistry()
        suspect = ruleset(rule("blokk"))
        registry.register(suspect)
        before = registry.validation_findings
        registry.register(suspect)  # same content hash: no re-validation
        assert registry.validation_findings == before

    def test_audited_server_over_http(self, tmp_path):
        policy_server = PolicyServer(str(tmp_path / "audited.db"),
                                     audit_plans=True)
        server = P3PHttpServer(policy_server, ("127.0.0.1", 0),
                               owns_policy_server=True)
        thread = server.run_in_thread()
        try:
            with HttpClientAgent(server.base_url,
                                 jane_preference()) as agent:
                agent.install_policy(VOLGA_POLICY_XML, site=SITE,
                                     reference_file=VOLGA_REFERENCE_XML)
                agent.check(SITE, "/catalog/book-1")
                metrics = agent.metrics()
                # The lazy registration compiles one statement per
                # distinct rule body, each audited once; the check is
                # then a decision-cache hit that compiles nothing.
                bodies = {rule_body_hash(rule)
                          for rule in jane_preference().rules}
                assert metrics["plan_audit"]["plans_audited"] == \
                    len(bodies)
                assert metrics["plan_audit"]["findings"] == 0
        finally:
            server.close()
            thread.join(timeout=5)
