"""Reference files: URI patterns, coverage, parse/serialize (Section 2.3)."""

import pytest

from repro.corpus.volga import VOLGA_REFERENCE_XML
from repro.errors import ReferenceFileError
from repro.p3p.reference import (
    PolicyRef,
    ReferenceFile,
    parse_reference_file,
    serialize_reference_file,
    uri_matches,
)


class TestUriMatching:
    @pytest.mark.parametrize("pattern,uri,expected", [
        ("/*", "/anything/at/all", True),
        ("/catalog/*", "/catalog/books/1", True),
        ("/catalog/*", "/cart", False),
        ("/exact.html", "/exact.html", True),
        ("/exact.html", "/exact.html?x=1", False),
        ("/a/*/c", "/a/b/c", True),
        ("/a/*/c", "/a/c", False),
        ("*", "", True),
        ("/images/*.png", "/images/logo.png", True),
        ("/images/*.png", "/images/logo.gif", False),
    ])
    def test_wildcards(self, pattern, uri, expected):
        assert uri_matches(pattern, uri) is expected

    def test_regex_metacharacters_are_literal(self):
        assert uri_matches("/a.b", "/a.b")
        assert not uri_matches("/a.b", "/aXb")
        assert not uri_matches("/a+b", "/ab")

    def test_newlines_match_as_in_glob(self):
        # ``*`` spans a newline; a trailing newline is a character the
        # pattern does not have.
        assert uri_matches("/a/*", "/a/b\nc")
        assert uri_matches("/*", "/q\nz")
        assert not uri_matches("/x", "/x\n")
        assert not uri_matches("/a/*/c", "/a/b/c\n")


class TestPolicyRef:
    def test_covers_include_minus_exclude(self):
        ref = PolicyRef(about="#main", includes=("/*",),
                        excludes=("/admin/*",))
        assert ref.covers("/shop")
        assert not ref.covers("/admin/panel")

    def test_no_include_covers_nothing(self):
        assert not PolicyRef(about="#main").covers("/x")

    def test_cookie_patterns_are_separate(self):
        ref = PolicyRef(about="#main", includes=("/pages/*",),
                        cookie_includes=("/*",))
        assert not ref.covers("/other")
        assert ref.covers_cookie("/other")

    def test_policy_name_from_fragment(self):
        assert PolicyRef(about="/w3c/p.xml#shop").policy_name == "shop"
        assert PolicyRef(about="bare-name").policy_name == "bare-name"


class TestReferenceFileLookup:
    def test_first_matching_ref_wins(self):
        reference = ReferenceFile(refs=(
            PolicyRef(about="#specific", includes=("/checkout/*",)),
            PolicyRef(about="#general", includes=("/*",)),
        ))
        assert reference.applicable_policy("/checkout/pay").about == \
            "#specific"
        assert reference.applicable_policy("/browse").about == "#general"

    def test_no_match_returns_none(self):
        reference = ReferenceFile(refs=(
            PolicyRef(about="#only", includes=("/a/*",)),
        ))
        assert reference.applicable_policy("/b") is None


class TestParsing:
    def test_volga_reference(self):
        reference = parse_reference_file(VOLGA_REFERENCE_XML)
        assert len(reference.refs) == 1
        assert reference.expiry == "86400"
        ref = reference.refs[0]
        assert ref.policy_name == "volga"
        assert ref.includes == ("/*",)
        assert ref.excludes == ("/legacy/*",)
        assert ref.cookie_includes == ("/*",)

    def test_meta_without_references_container(self):
        xml = (
            "<META><POLICY-REF about='#p'><INCLUDE>/*</INCLUDE>"
            "</POLICY-REF></META>"
        )
        reference = parse_reference_file(xml)
        assert reference.refs[0].about == "#p"

    def test_missing_about_raises(self):
        with pytest.raises(ReferenceFileError):
            parse_reference_file(
                "<META><POLICY-REF><INCLUDE>/*</INCLUDE></POLICY-REF></META>"
            )

    def test_no_meta_raises(self):
        with pytest.raises(ReferenceFileError):
            parse_reference_file("<NOT-A-REFERENCE/>")

    def test_malformed_xml_raises(self):
        with pytest.raises(ReferenceFileError):
            parse_reference_file("<META>")

    def test_serialize_roundtrip(self):
        reference = parse_reference_file(VOLGA_REFERENCE_XML)
        again = parse_reference_file(serialize_reference_file(reference))
        assert again == reference
