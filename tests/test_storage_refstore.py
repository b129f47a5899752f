"""Reference store (Figure 16): in-database applicable-policy lookup."""

import pytest

from repro.corpus.volga import (
    VOLGA_REFERENCE_XML,
    jane_preference,
    volga_policy,
)
from repro.errors import ReferenceFileError
from repro.net.aio import BatchingExecutor, _Batch
from repro.p3p.reference import (
    PolicyRef,
    ReferenceFile,
    parse_reference_file,
)
from repro.storage.database import Database
from repro.storage.refstore import ReferenceStore, glob_pattern
from repro.server.policy_server import PolicyServer
from repro.storage.shredder import PolicyStore


class TestGlobPattern:
    def test_star_stays_the_wildcard(self):
        assert glob_pattern("/a/*") == "/a/*"

    def test_glob_metacharacters_escaped(self):
        assert glob_pattern("/q?/[x]*") == "/q[?]/[[]x]*"

    def test_like_metacharacters_and_backslash_are_literal(self):
        assert glob_pattern("/100%_done\\") == "/100%_done\\"


@pytest.fixture()
def stores(volga):
    db = Database()
    policies = PolicyStore(db)
    pid = policies.install_policy(volga, site="volga.example.com").policy_id
    references = ReferenceStore(db)
    references.install_reference_file(
        parse_reference_file(VOLGA_REFERENCE_XML),
        "volga.example.com",
        policy_store=policies,
    )
    return references, pid


class TestApplicablePolicy:
    def test_covered_uri(self, stores):
        references, pid = stores
        assert references.applicable_policy_id(
            "volga.example.com", "/catalog/book"
        ) == pid

    def test_excluded_uri(self, stores):
        references, _ = stores
        assert references.applicable_policy_id(
            "volga.example.com", "/legacy/old-page"
        ) is None

    def test_unknown_site(self, stores):
        references, _ = stores
        assert references.applicable_policy_id(
            "elsewhere.example.com", "/catalog/book"
        ) is None

    def test_cookie_lookup(self, stores):
        references, pid = stores
        assert references.applicable_policy_id(
            "volga.example.com", "/anything", cookie=True
        ) == pid

    def test_subquery_is_plain_sql(self, stores):
        references, pid = stores
        sql = references.applicable_policy_subquery(
            "volga.example.com", "/catalog/x"
        )
        references.register_sql_functions()
        assert references.db.scalar(sql) == pid

    def test_document_order_priority(self, volga):
        """First matching POLICY-REF in document order wins."""
        db = Database()
        policies = PolicyStore(db)
        first = policies.install_policy(volga).policy_id
        second = policies.install_policy(volga).policy_id
        references = ReferenceStore(db)
        reference = ReferenceFile(refs=(
            PolicyRef(about="#checkout", includes=("/checkout/*",)),
            PolicyRef(about="#site", includes=("/*",)),
        ))
        references.install_reference_file(
            reference, "shop.example.com",
            policy_ids={"checkout": first, "site": second},
        )
        assert references.applicable_policy_id(
            "shop.example.com", "/checkout/pay") == first
        assert references.applicable_policy_id(
            "shop.example.com", "/browse") == second


class TestInstallation:
    def test_unresolvable_policy_name_raises(self):
        references = ReferenceStore()
        reference = ReferenceFile(refs=(
            PolicyRef(about="#ghost", includes=("/*",)),
        ))
        with pytest.raises(ReferenceFileError):
            references.install_reference_file(reference, "x.example.com")

    def test_policy_ids_mapping_used(self):
        references = ReferenceStore()
        reference = ReferenceFile(refs=(
            PolicyRef(about="#p", includes=("/*",)),
        ))
        references.install_reference_file(reference, "x.example.com",
                                          policy_ids={"p": 42})
        assert references.applicable_policy_id("x.example.com", "/a") == 42

    def test_reinstall_replaces_site_reference(self):
        """A new reference file supersedes the site's previous one —
        otherwise stale META rows shadow new policy versions."""
        references = ReferenceStore()
        reference = ReferenceFile(refs=(
            PolicyRef(about="#p", includes=("/*",)),
        ))
        references.install_reference_file(reference, "x.example.com",
                                          policy_ids={"p": 1})
        references.install_reference_file(reference, "x.example.com",
                                          policy_ids={"p": 2})
        assert references.applicable_policy_id("x.example.com", "/a") == 2
        assert references.db.table_count("meta") == 1

    def test_reinstall_keep_mode(self):
        references = ReferenceStore()
        reference = ReferenceFile(refs=(
            PolicyRef(about="#p", includes=("/*",)),
        ))
        references.install_reference_file(reference, "x.example.com",
                                          policy_ids={"p": 1})
        references.install_reference_file(reference, "x.example.com",
                                          policy_ids={"p": 2},
                                          replace=False)
        # Without replacement the earlier installation still wins.
        assert references.applicable_policy_id("x.example.com", "/a") == 1

    def test_multiple_sites_isolated(self):
        references = ReferenceStore()
        for index, site in enumerate(("a.example.com", "b.example.com")):
            references.install_reference_file(
                ReferenceFile(refs=(
                    PolicyRef(about="#p", includes=("/*",)),
                )),
                site, policy_ids={"p": index + 1},
            )
        assert references.applicable_policy_id("a.example.com", "/") == 1
        assert references.applicable_policy_id("b.example.com", "/") == 2


class TestBoundLookup:
    """The lookup binds site and URI: request data never becomes SQL
    text, and every URI resolves as the parsed reference file says."""

    ODD = ("/100%/*", "/a_b/*", "/back\\slash/*", "/it's/*",
           "/q?/*", "/[ab]/*", "/x]/*")
    REFERENCE = ReferenceFile(refs=(
        PolicyRef(about="#exact", includes=("/exact",),
                  cookie_includes=("/exact",)),
        PolicyRef(about="#odd", includes=ODD, cookie_includes=ODD),
        PolicyRef(about="#shop", includes=("/Shop/*",),
                  cookie_includes=("/Shop/*",)),
        PolicyRef(about="#site", includes=("/*",), excludes=("/private/*",),
                  cookie_includes=("/*",), cookie_excludes=("/private/*",)),
    ))
    IDS = {"exact": 1, "odd": 2, "site": 3, "shop": 4}
    URIS = (
        "/exact", "/exact\0", "/exact\0tail", "/ex\0act",
        "/private/a\0b", "/priv\0ate/a", "/private\0/a",
        "/100%/x", "/100x/x", "/100%\0/x",
        "/a_b/x", "/aXb/x",
        "/back\\slash/x", "/backslash/x", "/back\\\\slash/x",
        "/it's/x", "/it''s/x", "/x' OR '1'='1",
        # Patterns match case-sensitively, as the reference file does.
        "/EXACT", "/Exact", "/PRIVATE/a", "/Private/a",
        "/Shop/a", "/SHOP/a", "/shop/a",
        # GLOB's metacharacters in a pattern match only themselves.
        "/q?/x", "/qa/x", "/q/x", "/[ab]/x", "/a/x", "/b/x", "/x]/x",
        # ``*`` matches a newline, and nothing follows a pattern's end.
        "/a/b\nc", "/x\n", "/q\nz", "/exact\n", "/private/a\nb",
    )

    @pytest.fixture()
    def store(self):
        references = ReferenceStore()
        references.install_reference_file(self.REFERENCE, "s.example",
                                          policy_ids=self.IDS)
        return references

    @pytest.mark.parametrize("cookie", [False, True])
    def test_resolves_like_the_reference_file(self, store, cookie):
        for uri in self.URIS:
            ref = (self.REFERENCE.applicable_cookie_policy(uri) if cookie
                   else self.REFERENCE.applicable_policy(uri))
            expected = None if ref is None else self.IDS[ref.policy_name]
            assert store.applicable_policy_id(
                "s.example", uri, cookie=cookie) == expected, repr(uri)

    def test_site_is_bound(self, store):
        assert store.applicable_policy_id("s.example", "/a") == 3
        for site in ("s.example' OR '1'='1", "s.example\0", "s.exampl_"):
            assert store.applicable_policy_id(site, "/a") is None

    def test_every_uri_reuses_one_prepared_statement(self, store):
        store.applicable_policy_id("s.example", "/warm")
        before = store.db.stats.cache_misses
        for index in range(20):
            store.applicable_policy_id("s.example", f"/page-{index}")
        assert store.db.stats.cache_misses == before


class TestFunctionRegistration:
    def test_checks_never_redefine_glob_pattern(self, tmp_path,
                                                monkeypatch):
        """Redefining an SQL function expires every statement the
        connection prepared; the pool's connect hook registers
        ``glob_pattern`` once per connection, so checks never do."""
        server = PolicyServer(str(tmp_path / "register.db"))
        try:
            server.install_policy(volga_policy(), site="volga.example.com")
            server.install_reference_file(VOLGA_REFERENCE_XML,
                                          "volga.example.com")
            jane = jane_preference()
            server.check("volga.example.com", "/warm", jane)
            calls = []
            monkeypatch.setattr(Database, "create_function",
                                lambda self, *args: calls.append(args))
            for index in range(8):
                server.check("volga.example.com", f"/catalog/{index}", jane,
                             cookie=bool(index % 2))
            batching = BatchingExecutor(server, None, None)
            batching._execute(_Batch(jane, False, [
                ("volga.example.com", f"/catalog/b{index}", None, None)
                for index in range(4)]))
            assert calls == []
        finally:
            server.close()
