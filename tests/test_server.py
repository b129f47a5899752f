"""Server-centric, client-centric, and hybrid deployments + analytics."""

import pytest

from repro.corpus.volga import VOLGA_REFERENCE_XML
from repro.errors import StorageError, UnknownPolicyError
from repro.p3p.parser import parse_policy
from repro.p3p.reference import parse_reference_file
from repro.server import (
    ClientAgent,
    HybridAgent,
    PolicyServer,
    Site,
    blocking_rules,
    policy_conflicts,
    uncovered_uris,
)

SITE = "volga.example.com"


@pytest.fixture()
def server(volga):
    server = PolicyServer()
    server.install_policy(volga, site=SITE)
    server.install_reference_file(VOLGA_REFERENCE_XML, SITE)
    return server


@pytest.fixture()
def site(volga):
    return Site(
        host=SITE,
        reference_file=parse_reference_file(VOLGA_REFERENCE_XML),
        policies={"volga": volga},
    )


class TestPolicyServer:
    def test_check_allowed(self, server, jane):
        result = server.check(SITE, "/catalog/book", jane)
        assert result.behavior == "request"
        assert result.allowed
        assert result.covered
        assert result.elapsed_seconds > 0

    def test_check_blocked(self, server):
        from repro.corpus.preferences import very_high_preference

        result = server.check(SITE, "/catalog/book",
                              very_high_preference())
        assert result.behavior == "block"
        assert not result.allowed

    def test_uncovered_uri(self, server, jane):
        result = server.check(SITE, "/legacy/old", jane)
        assert not result.covered
        assert result.behavior is None
        assert result.allowed  # nothing blocked it; caller decides

    def test_preference_as_xml_string(self, server):
        from repro.corpus.volga import JANE_PREFERENCE_XML

        result = server.check(SITE, "/catalog/book", JANE_PREFERENCE_XML)
        assert result.behavior == "request"

    def test_translation_cache_grows_once_per_pref_policy(self, server,
                                                          jane):
        server.check(SITE, "/a", jane)
        server.check(SITE, "/b", jane)  # same policy, same pref
        assert server.cache_size() == 1

    def test_check_log_grows(self, server, jane):
        before = server.check_count()
        server.check(SITE, "/x", jane)
        assert server.check_count() == before + 1

    def test_versioned_reinstall(self, server, volga, jane):
        # Installing again supersedes; the reference file is retargeted
        # automatically, so checks hit the new version.
        report = server.install_policy(volga, site=SITE)
        versions = server.versions.history("volga")
        assert [v.version for v in versions] == [1, 2]
        result = server.check(SITE, "/catalog/book", jane)
        assert result.behavior == "request"
        assert result.policy_id == report.policy_id

    def test_same_policy_name_on_two_sites_is_independent(self, volga,
                                                          jane):
        """Version chains and reference retargeting are per site: two
        sites may both name their policy 'volga' without interference."""
        from repro.corpus.volga import VOLGA_POLICY_NO_OPTIN_XML

        server = PolicyServer()
        good = server.install_policy(volga, site="a.example.com")
        server.install_reference_file(
            VOLGA_REFERENCE_XML.replace("volga.example.com",
                                        "a.example.com"),
            "a.example.com")
        bad = server.install_policy(
            parse_policy(VOLGA_POLICY_NO_OPTIN_XML), site="b.example.com")
        server.install_reference_file(
            VOLGA_REFERENCE_XML.replace("volga.example.com",
                                        "b.example.com"),
            "b.example.com")

        result_a = server.check("a.example.com", "/x", jane)
        result_b = server.check("b.example.com", "/x", jane)
        assert result_a.policy_id == good.policy_id
        assert result_b.policy_id == bad.policy_id
        assert result_a.behavior == "request"
        assert result_b.behavior == "block"

    def test_like_metacharacters_in_name_retarget_nothing_else(self,
                                                               volga,
                                                               jane):
        """Reinstalling 'vol_a' must not steal 'volga' references: an
        unescaped LIKE would read the underscore as a wildcard and
        '%#vol_a' matches '...#volga'."""
        from repro.corpus.volga import VOLGA_POLICY_NO_OPTIN_XML

        server = PolicyServer()
        good = server.install_policy(volga, site=SITE)
        underscore = parse_policy(
            VOLGA_POLICY_NO_OPTIN_XML.replace('name="volga"',
                                              'name="vol_a"'))
        server.install_policy(underscore, site=SITE)
        server.install_reference_file(
            """<META xmlns="http://www.w3.org/2002/01/P3Pv1">
              <POLICY-REFERENCES>
                <POLICY-REF about="/w3c/policy.xml#volga">
                  <INCLUDE>/catalog/*</INCLUDE>
                </POLICY-REF>
                <POLICY-REF about="/w3c/policy.xml#vol_a">
                  <INCLUDE>/other/*</INCLUDE>
                </POLICY-REF>
              </POLICY-REFERENCES>
            </META>""", SITE)

        report = server.install_policy(underscore, site=SITE)  # v2

        other = server.check(SITE, "/other/x", jane)
        catalog = server.check(SITE, "/catalog/x", jane)
        assert other.policy_id == report.policy_id
        assert catalog.policy_id == good.policy_id
        assert catalog.behavior == "request"
        assert other.behavior == "block"

    def test_cookie_check(self, server, jane):
        result = server.check(SITE, "/anything", jane, cookie=True)
        assert result.covered


class TestRollback:
    """A rollback walks one site's version chain and retargets that
    site's references, in one transaction, as an install does."""

    A, B = "a.example.com", "b.example.com"

    def _two_sites(self, volga):
        """Sites a and b each install 'volga'; a then installs a v2 that
        blocks Jane.  Returns the server and each site's v1 id."""
        from repro.corpus.volga import VOLGA_POLICY_NO_OPTIN_XML

        server = PolicyServer()
        first = {}
        for host in (self.A, self.B):
            first[host] = server.install_policy(volga, site=host).policy_id
            server.install_reference_file(
                VOLGA_REFERENCE_XML.replace("volga.example.com", host),
                host)
        server.install_policy(parse_policy(VOLGA_POLICY_NO_OPTIN_XML),
                              site=self.A)
        return server, first

    def test_rollback_is_scoped_to_one_site(self, volga, jane):
        server, first = self._two_sites(volga)
        with server:
            v2 = server.check(self.A, "/cart", jane)
            assert v2.behavior == "block"        # decided and cached

            assert server.rollback_policy("volga", site=self.A) == \
                first[self.A]

            active = {version.policy_id for version
                      in server.versions.history("volga")
                      if version.active}
            assert active == set(first.values())
            result = server.check(self.A, "/cart", jane)
            assert result.policy_id == first[self.A]
            assert result.behavior == "request"
            assert server.check(self.B, "/cart", jane).policy_id == \
                first[self.B]
            with server.pool.read() as db:
                assert db.scalar(
                    "SELECT COUNT(*) FROM decision_cache "
                    "WHERE policy_id = ?", (v2.policy_id,)) == 0

    def test_store_rollback_leaves_other_sites_chains(self, volga):
        server, first = self._two_sites(volga)
        with server, server.pool.write():
            assert server.versions.rollback("volga", site=self.A) == \
                first[self.A]
            with pytest.raises(StorageError, match="no prior version"):
                server.versions.rollback("volga", site=self.B)
            with pytest.raises(UnknownPolicyError):
                server.versions.rollback("volga")     # no site-less chain


class TestAnalytics:
    def test_policy_conflicts(self, server, jane, suite):
        for preference in suite.values():
            server.check(SITE, "/catalog/book", preference)
        server.flush_log()  # the check log is buffered/batched
        reports = policy_conflicts(server.db)
        assert len(reports) == 1
        report = reports[0]
        assert report.policy_name == "volga"
        assert report.checks == 5
        assert report.blocks >= 1           # Very High blocks Volga
        assert report.distinct_preferences == 5
        assert 0 < report.block_rate < 1

    def test_blocking_rules(self, server, suite):
        for preference in suite.values():
            server.check(SITE, "/catalog/book", preference)
        server.flush_log()
        reports = policy_conflicts(server.db)
        rules = blocking_rules(server.db, reports[0].policy_id)
        assert rules, "expected at least one blocking rule"
        assert all(r.fires >= 1 for r in rules)

    def test_uncovered_uris(self, server, jane):
        server.check(SITE, "/legacy/a", jane)
        server.check(SITE, "/legacy/a", jane)
        server.check(SITE, "/legacy/b", jane)
        server.flush_log()
        gaps = uncovered_uris(server.db)
        assert gaps[0] == ("/legacy/a", 2)


class TestClientAgent:
    def test_check_matches_server_decision(self, server, site, jane):
        client = ClientAgent(jane)
        client_result = client.check(site, "/catalog/book")
        server_result = server.check(SITE, "/catalog/book", jane)
        assert client_result.behavior == server_result.behavior

    def test_reference_file_cached(self, site, jane):
        client = ClientAgent(jane)
        first = client.check(site, "/catalog/a")
        second = client.check(site, "/catalog/b")
        assert first.fetches == 2   # reference + policy
        assert second.fetches == 1  # policy only

    def test_reference_cache_disabled(self, site, jane):
        client = ClientAgent(jane, cache_reference_files=False)
        client.check(site, "/catalog/a")
        second = client.check(site, "/catalog/b")
        assert second.fetches == 2

    def test_uncovered_uri(self, site, jane):
        client = ClientAgent(jane)
        result = client.check(site, "/legacy/old")
        assert not result.covered


class TestHybridAgent:
    def test_check_matches_server_decision(self, server, site, jane):
        hybrid = HybridAgent(jane, server)
        result = hybrid.check(site, "/catalog/book")
        assert result.behavior == "request"

    def test_reference_cached_after_first_check(self, server, site, jane):
        hybrid = HybridAgent(jane, server)
        first = hybrid.check(site, "/catalog/a")
        second = hybrid.check(site, "/catalog/b")
        assert not first.used_cached_reference
        assert second.used_cached_reference

    def test_uncovered_uri(self, server, site, jane):
        hybrid = HybridAgent(jane, server)
        result = hybrid.check(site, "/legacy/x")
        assert result.policy_name is None

    def test_all_three_architectures_agree(self, server, site, suite):
        for level, preference in suite.items():
            server_result = server.check(SITE, "/catalog/book", preference)
            client_result = ClientAgent(preference).check(
                site, "/catalog/book")
            hybrid_result = HybridAgent(preference, server).check(
                site, "/catalog/book")
            assert server_result.behavior == client_result.behavior \
                == hybrid_result.behavior, level


class TestPlanAudit:
    def test_audit_runs_on_cache_miss_only(self, volga, jane):
        server = PolicyServer(audit_plans=True)
        server.install_policy(volga, site=SITE)
        server.install_reference_file(VOLGA_REFERENCE_XML, SITE)
        server.check(SITE, "/catalog/book", jane)
        stats = server.pool.stats()
        assert stats.plans_audited == 1
        assert stats.audit_findings == 0  # suite plans are index-driven
        assert server.last_audit_findings == ()
        # Warm path: the cached plan is not re-audited.
        server.check(SITE, "/catalog/other", jane)
        assert server.pool.stats().plans_audited == 1
        server.close()

    def test_audit_off_by_default(self, server, jane):
        server.check(SITE, "/catalog/book", jane)
        assert server.pool.stats().plans_audited == 0
