"""Wire protocol: round-trips, versioning, and stable error codes."""

import json

import pytest

from repro.net import protocol


def roundtrip(message):
    """encode → decode → from_wire must reproduce the message."""
    payload = protocol.decode(protocol.encode(message.to_wire()))
    return type(message).from_wire(payload)


class TestRoundTrips:
    def test_register_preference_request(self):
        message = protocol.RegisterPreferenceRequest(appel="<RULESET/>")
        assert roundtrip(message) == message

    def test_register_preference_response(self):
        message = protocol.RegisterPreferenceResponse(
            preference_hash="abc123", rules=7, created=True)
        assert roundtrip(message) == message

    def test_check_request(self):
        message = protocol.CheckRequest(
            site="volga.example.com", uri="/catalog/1",
            preference_hash="abc123", cookie=True)
        assert roundtrip(message) == message

    def test_check_request_cookie_defaults_false(self):
        payload = protocol.CheckRequest(
            site="s", uri="/u", preference_hash="h").to_wire()
        del payload["cookie"]
        assert protocol.CheckRequest.from_wire(payload).cookie is False

    def test_check_response_covered(self):
        message = protocol.CheckResponse(
            site="s", uri="/u", policy_id=3, behavior="block",
            rule_index=1, elapsed_seconds=0.25)
        restored = roundtrip(message)
        assert restored == message
        assert not restored.allowed
        assert restored.covered

    def test_check_response_uncovered(self):
        message = protocol.CheckResponse(
            site="s", uri="/u", policy_id=None, behavior=None,
            rule_index=None, elapsed_seconds=0.0)
        restored = roundtrip(message)
        assert restored == message
        assert restored.allowed
        assert not restored.covered

    def test_check_request_carries_its_check_key(self):
        message = protocol.CheckRequest(
            site="s", uri="/u", preference_hash="h",
            check_key="agent-00000001")
        assert roundtrip(message) == message
        # Absent key stays absent on the wire (old clients unchanged).
        bare = protocol.CheckRequest(site="s", uri="/u",
                                     preference_hash="h")
        assert "check_key" not in bare.to_wire()
        assert roundtrip(bare).check_key is None

    def test_batch_check_request(self):
        message = protocol.BatchCheckRequest(
            preference_hash="h",
            checks=(("a.example", "/x"), ("b.example", "/y")))
        assert roundtrip(message) == message

    def test_batch_check_request_with_keys(self):
        message = protocol.BatchCheckRequest(
            preference_hash="h",
            checks=(("a.example", "/x"), ("b.example", "/y")),
            check_keys=("k-1", "k-2"))
        assert roundtrip(message) == message

    def test_batch_check_keys_must_align_with_checks(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.BatchCheckRequest(
                preference_hash="h",
                checks=(("a.example", "/x"),),
                check_keys=("k-1", "k-2"))

    def test_batch_check_response(self):
        message = protocol.BatchCheckResponse(results=(
            protocol.CheckResponse(site="s", uri="/1", policy_id=1,
                                   behavior="request", rule_index=2,
                                   elapsed_seconds=0.1),
            protocol.CheckResponse(site="s", uri="/2", policy_id=None,
                                   behavior=None, rule_index=None,
                                   elapsed_seconds=0.0),
        ))
        assert roundtrip(message) == message

    def test_match_corpus_response(self):
        entry = protocol.MatchCorpusEntry(
            policy_id=3, name="acme", version=2, behavior="request",
            rule_index=1, cached=True)
        message = protocol.MatchCorpusResponse(
            results=(entry,), cache_hits=1, cache_misses=0,
            elapsed_seconds=0.01)
        wire = message.to_wire()
        # A single server's document: none of the router's fields.
        assert set(wire) == {"v", "results", "cache_hits", "cache_misses",
                             "elapsed_seconds"}
        assert set(wire["results"][0]) == {"policy_id", "name", "version",
                                           "behavior", "rule_index",
                                           "cached"}
        assert roundtrip(message) == message

    def test_partial_match_corpus_response(self):
        message = protocol.MatchCorpusResponse(
            results=(protocol.MatchCorpusEntry(
                policy_id=3, name="acme", version=1, behavior=None,
                rule_index=None, cached=False, shard=0),),
            cache_hits=0, cache_misses=1, elapsed_seconds=0.0,
            partial=True,
            shard_errors={1: protocol.ErrorEnvelope(
                code=protocol.ERR_SHARD_UNAVAILABLE, message="down")})
        assert message.to_wire()["shard_errors"] == {
            "1": {"code": protocol.ERR_SHARD_UNAVAILABLE,
                  "message": "down"}}
        assert roundtrip(message) == message

    def test_install_policy_request(self):
        message = protocol.InstallPolicyRequest(
            policy="<POLICY/>", site="s", reference_file="<META/>")
        assert roundtrip(message) == message

    def test_install_policy_response(self):
        message = protocol.InstallPolicyResponse(
            policy_id=4, statements=2, data_items=5, categories=8,
            seconds=0.01, reference_rows=1)
        assert roundtrip(message) == message

    def test_error_envelope(self):
        message = protocol.ErrorEnvelope(
            code=protocol.ERR_OVERLOADED, message="busy", retry_after=2.0)
        assert roundtrip(message) == message

    def test_error_envelope_without_retry_after(self):
        message = protocol.ErrorEnvelope(code="not-found", message="nope")
        wire = message.to_wire()
        assert "retry_after" not in wire["error"]
        assert roundtrip(message) == message


class TestVersioning:
    def test_encode_stamps_version(self):
        payload = json.loads(protocol.encode({"x": 1}))
        assert payload["v"] == protocol.PROTOCOL_VERSION

    @pytest.mark.parametrize("version", [None, 0, 2, 99, "1"])
    def test_unknown_version_rejected(self, version):
        body = json.dumps({"v": version, "site": "s"})
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.decode(body)
        assert excinfo.value.code == protocol.ERR_BAD_VERSION
        assert excinfo.value.http_status == 400

    def test_missing_version_rejected(self):
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.decode(b"{}")
        assert excinfo.value.code == protocol.ERR_BAD_VERSION


class TestMalformedBodies:
    @pytest.mark.parametrize("raw", [b"", b"{", b"not json", b"\xff\xfe"])
    def test_unparseable_json(self, raw):
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.decode(raw)
        assert excinfo.value.code == protocol.ERR_BAD_JSON

    @pytest.mark.parametrize("raw", [b"[1, 2]", b'"text"', b"3", b"null"])
    def test_non_object_json(self, raw):
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.decode(raw)
        assert excinfo.value.code == protocol.ERR_BAD_JSON

    def test_missing_field(self):
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.CheckRequest.from_wire(
                {"v": 1, "site": "s", "preference_hash": "h"})
        assert excinfo.value.code == protocol.ERR_BAD_REQUEST
        assert "uri" in str(excinfo.value)

    def test_mistyped_field(self):
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.CheckRequest.from_wire(
                {"v": 1, "site": "s", "uri": 7, "preference_hash": "h"})
        assert excinfo.value.code == protocol.ERR_BAD_REQUEST

    def test_batch_entry_must_be_object(self):
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.BatchCheckRequest.from_wire(
                {"v": 1, "preference_hash": "h", "checks": ["/x"]})
        assert excinfo.value.code == protocol.ERR_BAD_REQUEST

    def test_batch_size_capped(self):
        checks = [{"site": "s", "uri": f"/{i}"}
                  for i in range(protocol.MAX_BATCH_CHECKS + 1)]
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.BatchCheckRequest.from_wire(
                {"v": 1, "preference_hash": "h", "checks": checks})
        assert excinfo.value.code == protocol.ERR_BAD_REQUEST

    @pytest.mark.parametrize("shard_errors", [
        ["1"], {"one": {"code": "c", "message": "m"}}, {"1": "down"},
        {"1": {"code": "c"}}])
    def test_shard_errors_must_name_shards(self, shard_errors):
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.MatchCorpusResponse.from_wire(
                {"v": 1, "results": [], "partial": True,
                 "shard_errors": shard_errors})
        assert excinfo.value.code == protocol.ERR_BAD_REQUEST

    def test_match_entry_shard_must_be_int(self):
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.MatchCorpusResponse.from_wire(
                {"v": 1, "results": [{"policy_id": 1, "version": 1,
                                      "shard": "0"}]})
        assert excinfo.value.code == protocol.ERR_BAD_REQUEST

    def test_reference_file_requires_site(self):
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.InstallPolicyRequest.from_wire(
                {"v": 1, "policy": "<POLICY/>",
                 "reference_file": "<META/>"})
        assert excinfo.value.code == protocol.ERR_BAD_REQUEST


class TestErrorMapping:
    def test_codes_have_stable_statuses(self):
        assert protocol.HTTP_STATUS[protocol.ERR_UNKNOWN_PREFERENCE] == 404
        assert protocol.HTTP_STATUS[protocol.ERR_OVERLOADED] == 503
        assert protocol.HTTP_STATUS[protocol.ERR_PARSE] == 422
        assert protocol.HTTP_STATUS[protocol.ERR_METHOD_NOT_ALLOWED] == 405

    def test_protocol_error_derives_status_from_code(self):
        error = protocol.ProtocolError(protocol.ERR_OVERLOADED, "busy",
                                       retry_after=1.5)
        assert error.http_status == 503
        envelope = error.envelope()
        assert envelope.code == protocol.ERR_OVERLOADED
        assert envelope.retry_after == 1.5

    def test_error_from_http_reads_envelope(self):
        body = protocol.encode(protocol.ErrorEnvelope(
            code=protocol.ERR_NOT_FOUND, message="gone").to_wire())
        error = protocol.error_from_http(404, body)
        assert error.code == protocol.ERR_NOT_FOUND
        assert error.http_status == 404

    def test_error_from_http_degrades_on_garbage(self):
        error = protocol.error_from_http(502, b"<html>bad gateway</html>")
        assert error.code == protocol.ERR_INTERNAL
        assert error.http_status == 502
