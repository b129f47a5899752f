"""The versioned JSON wire format spoken between agent and policy server.

Every message is a JSON object carrying ``"v": 1``; unknown versions are
rejected before any field is looked at, so the format can evolve without
silent misreads.  Failures travel as one error envelope shape with a
small set of **stable error codes** (machine-matchable strings — clients
branch on ``code``, never on the human-readable ``message``):

========================  ======  =============================================
code                      status  meaning
========================  ======  =============================================
``bad-json``              400     body is not a JSON object
``bad-version``           400     ``v`` missing or not a supported version
``bad-request``           400     a field is missing or has the wrong type
``parse-error``           422     APPEL/P3P XML inside the request is invalid
``unknown-preference``    404     no registered preference under that hash
``not-found``             404     no such endpoint / reference document
``method-not-allowed``    405     endpoint exists, verb is wrong
``payload-too-large``     413     body exceeds the server's size limit
``wrong-shard``           421     request addressed to a shard this server
                                  does not own (stale topology)
``overloaded``            503     admission control shed the request
``shard-unavailable``     503     the owning shard has no reachable backend
``internal-error``        500     unexpected server-side failure
========================  ======  =============================================

**Shard identity.**  Cluster deployments (see :mod:`repro.cluster`)
stamp every response with the shard-identity headers below, and a
request *may* carry them to assert which shard (at which topology
version) it believes it is talking to.  A mismatch is answered with
``wrong-shard`` (421 Misdirected Request) — the response headers name
the shard the server actually owns, so a smart client refreshes its
topology and re-routes instead of acting on a wrong answer.

Messages are frozen dataclasses with ``to_wire()`` / ``from_wire()``;
``from_wire`` validates shape and raises :class:`ProtocolError` (never a
bare ``KeyError``), so the HTTP layer can map any protocol failure to one
envelope uniformly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ReproError

PROTOCOL_VERSION = 1

#: Largest number of checks one batch request may carry.
MAX_BATCH_CHECKS = 1024

ERR_BAD_JSON = "bad-json"
ERR_BAD_VERSION = "bad-version"
ERR_BAD_REQUEST = "bad-request"
ERR_PARSE = "parse-error"
ERR_UNKNOWN_PREFERENCE = "unknown-preference"
ERR_NOT_FOUND = "not-found"
ERR_METHOD_NOT_ALLOWED = "method-not-allowed"
ERR_PAYLOAD_TOO_LARGE = "payload-too-large"
ERR_WRONG_SHARD = "wrong-shard"
ERR_OVERLOADED = "overloaded"
ERR_SHARD_UNAVAILABLE = "shard-unavailable"
ERR_INTERNAL = "internal-error"

#: Default HTTP status per error code (a ProtocolError may override).
HTTP_STATUS = {
    ERR_BAD_JSON: 400,
    ERR_BAD_VERSION: 400,
    ERR_BAD_REQUEST: 400,
    ERR_PARSE: 422,
    ERR_UNKNOWN_PREFERENCE: 404,
    ERR_NOT_FOUND: 404,
    ERR_METHOD_NOT_ALLOWED: 405,
    ERR_PAYLOAD_TOO_LARGE: 413,
    ERR_WRONG_SHARD: 421,
    ERR_OVERLOADED: 503,
    ERR_SHARD_UNAVAILABLE: 503,
    ERR_INTERNAL: 500,
}

#: Shard-identity headers.  Servers stamp responses with all three;
#: requests may carry SHARD/TOPOLOGY to assert the intended target.
SHARD_HEADER = "X-P3P-Shard"
TOPOLOGY_HEADER = "X-P3P-Topology-Version"
SERVER_ID_HEADER = "X-P3P-Server-Id"
ROLE_HEADER = "X-P3P-Role"


@dataclass(frozen=True)
class ShardIdentity:
    """Which shard a server claims, at which topology version.

    Handed to :class:`~repro.net.httpd.P3PHttpServer` by the cluster's
    worker supervisor; a standalone server has no identity and skips
    the shard checks entirely.
    """

    shard_id: int
    topology_version: int
    role: str = "primary"


class ProtocolError(ReproError):
    """A wire-protocol failure, carrying its stable code and HTTP status."""

    def __init__(self, code: str, message: str, *,
                 http_status: int | None = None,
                 retry_after: float | None = None):
        super().__init__(message)
        self.code = code
        self.http_status = http_status or HTTP_STATUS.get(code, 400)
        self.retry_after = retry_after

    def envelope(self) -> "ErrorEnvelope":
        return ErrorEnvelope(code=self.code, message=str(self),
                             retry_after=self.retry_after)


def encode(payload: Mapping[str, Any]) -> bytes:
    """Serialize a wire dict (``v`` added if absent) to UTF-8 JSON."""
    document = {"v": PROTOCOL_VERSION, **payload}
    return json.dumps(document, sort_keys=True).encode("utf-8")


def decode(raw: bytes | str) -> dict[str, Any]:
    """Parse and version-check a request/response body."""
    try:
        payload = json.loads(raw)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(ERR_BAD_JSON,
                            f"body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(ERR_BAD_JSON, "body must be a JSON object")
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            ERR_BAD_VERSION,
            f"unsupported protocol version {version!r} "
            f"(this server speaks v{PROTOCOL_VERSION})",
        )
    return payload


def _field(payload: Mapping[str, Any], name: str, types, *,
           required: bool = True, default: Any = None) -> Any:
    value = payload.get(name, default)
    if value is None:
        if required:
            raise ProtocolError(ERR_BAD_REQUEST,
                                f"missing required field {name!r}")
        return None
    if not isinstance(value, types):
        wanted = getattr(types, "__name__", None) or \
            "/".join(t.__name__ for t in types)
        raise ProtocolError(
            ERR_BAD_REQUEST,
            f"field {name!r} must be {wanted}, got {type(value).__name__}",
        )
    return value


@dataclass(frozen=True)
class ErrorEnvelope:
    """The one shape every failure response takes."""

    code: str
    message: str
    retry_after: float | None = None

    def to_wire(self) -> dict[str, Any]:
        error: dict[str, Any] = {"code": self.code, "message": self.message}
        if self.retry_after is not None:
            error["retry_after"] = self.retry_after
        return {"v": PROTOCOL_VERSION, "error": error}

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "ErrorEnvelope":
        error = _field(payload, "error", dict)
        return cls(
            code=_field(error, "code", str),
            message=_field(error, "message", str),
            retry_after=_field(error, "retry_after", (int, float),
                               required=False),
        )

    def raise_(self, http_status: int | None = None) -> None:
        raise ProtocolError(self.code, self.message,
                            http_status=http_status,
                            retry_after=self.retry_after)


@dataclass(frozen=True)
class RegisterPreferenceRequest:
    """POST /v1/preferences — pay the translation/parse cost once."""

    appel: str

    def to_wire(self) -> dict[str, Any]:
        return {"v": PROTOCOL_VERSION, "appel": self.appel}

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]
                  ) -> "RegisterPreferenceRequest":
        return cls(appel=_field(payload, "appel", str))


@dataclass(frozen=True)
class RegisterPreferenceResponse:
    """The registry's receipt: check by this hash from now on."""

    preference_hash: str
    rules: int
    created: bool

    def to_wire(self) -> dict[str, Any]:
        return {
            "v": PROTOCOL_VERSION,
            "preference_hash": self.preference_hash,
            "rules": self.rules,
            "created": self.created,
        }

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]
                  ) -> "RegisterPreferenceResponse":
        return cls(
            preference_hash=_field(payload, "preference_hash", str),
            rules=_field(payload, "rules", int),
            created=_field(payload, "created", bool),
        )


@dataclass(frozen=True)
class CheckRequest:
    """POST /v1/check — one preference check, by registered hash.

    ``check_key`` is the client-generated idempotency token: a retry of
    the same logical check re-sends the same key, and the server's log
    writer deduplicates within a bounded window, so a retry after a
    lost response cannot double-log.
    """

    site: str
    uri: str
    preference_hash: str
    cookie: bool = False
    check_key: str | None = None

    def to_wire(self) -> dict[str, Any]:
        wire: dict[str, Any] = {
            "v": PROTOCOL_VERSION,
            "site": self.site,
            "uri": self.uri,
            "preference_hash": self.preference_hash,
            "cookie": self.cookie,
        }
        if self.check_key is not None:
            wire["check_key"] = self.check_key
        return wire

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "CheckRequest":
        return cls(
            site=_field(payload, "site", str),
            uri=_field(payload, "uri", str),
            preference_hash=_field(payload, "preference_hash", str),
            cookie=_field(payload, "cookie", bool,
                          required=False, default=False),
            check_key=_field(payload, "check_key", str, required=False),
        )


@dataclass(frozen=True)
class CheckResponse:
    """The server's decision for one URI (allowed/covered are derived)."""

    site: str
    uri: str
    policy_id: int | None
    behavior: str | None
    rule_index: int | None
    elapsed_seconds: float

    @property
    def allowed(self) -> bool:
        return self.behavior != "block"

    @property
    def covered(self) -> bool:
        return self.policy_id is not None

    @property
    def decision(self) -> tuple:
        """The comparable decision, independent of timing."""
        return (self.site, self.uri, self.policy_id,
                self.behavior, self.rule_index)

    def to_wire(self) -> dict[str, Any]:
        return {
            "v": PROTOCOL_VERSION,
            "site": self.site,
            "uri": self.uri,
            "policy_id": self.policy_id,
            "behavior": self.behavior,
            "rule_index": self.rule_index,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "CheckResponse":
        return cls(
            site=_field(payload, "site", str),
            uri=_field(payload, "uri", str),
            policy_id=_field(payload, "policy_id", int, required=False),
            behavior=_field(payload, "behavior", str, required=False),
            rule_index=_field(payload, "rule_index", int, required=False),
            elapsed_seconds=_field(payload, "elapsed_seconds",
                                   (int, float), required=False,
                                   default=0.0),
        )

    @classmethod
    def from_result(cls, result) -> "CheckResponse":
        """Adapt a :class:`~repro.server.policy_server.CheckResult`."""
        return cls(
            site=result.site,
            uri=result.uri,
            policy_id=result.policy_id,
            behavior=result.behavior,
            rule_index=result.rule_index,
            elapsed_seconds=result.elapsed_seconds,
        )


@dataclass(frozen=True)
class BatchCheckRequest:
    """POST /v1/check-batch — many URIs, one preference hash.

    ``check_keys``, when present, is aligned with ``checks`` (one
    idempotency token per check) so a retried batch cannot double-log
    any of its rows even if the first attempt's response was lost.
    """

    preference_hash: str
    checks: tuple[tuple[str, str], ...]   # (site, uri) pairs
    cookie: bool = False
    check_keys: tuple[str | None, ...] | None = None

    def __post_init__(self) -> None:
        if self.check_keys is not None and \
                len(self.check_keys) != len(self.checks):
            raise ProtocolError(
                ERR_BAD_REQUEST,
                f"{len(self.check_keys)} check_keys for "
                f"{len(self.checks)} checks",
            )

    def to_wire(self) -> dict[str, Any]:
        entries = []
        for index, (site, uri) in enumerate(self.checks):
            entry: dict[str, Any] = {"site": site, "uri": uri}
            if self.check_keys is not None and \
                    self.check_keys[index] is not None:
                entry["check_key"] = self.check_keys[index]
            entries.append(entry)
        return {
            "v": PROTOCOL_VERSION,
            "preference_hash": self.preference_hash,
            "checks": entries,
            "cookie": self.cookie,
        }

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "BatchCheckRequest":
        raw_checks = _field(payload, "checks", list)
        if len(raw_checks) > MAX_BATCH_CHECKS:
            raise ProtocolError(
                ERR_BAD_REQUEST,
                f"batch of {len(raw_checks)} checks exceeds the limit of "
                f"{MAX_BATCH_CHECKS}; split it",
            )
        checks: list[tuple[str, str]] = []
        keys: list[str | None] = []
        for index, entry in enumerate(raw_checks):
            if not isinstance(entry, dict):
                raise ProtocolError(
                    ERR_BAD_REQUEST,
                    f"checks[{index}] must be an object with site/uri",
                )
            checks.append((_field(entry, "site", str),
                           _field(entry, "uri", str)))
            keys.append(_field(entry, "check_key", str, required=False))
        return cls(
            preference_hash=_field(payload, "preference_hash", str),
            checks=tuple(checks),
            cookie=_field(payload, "cookie", bool,
                          required=False, default=False),
            check_keys=tuple(keys) if any(key is not None
                                          for key in keys) else None,
        )


@dataclass(frozen=True)
class BatchCheckResponse:
    """Decisions in request order."""

    results: tuple[CheckResponse, ...]

    def to_wire(self) -> dict[str, Any]:
        return {
            "v": PROTOCOL_VERSION,
            "results": [
                {key: value for key, value in result.to_wire().items()
                 if key != "v"}
                for result in self.results
            ],
        }

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "BatchCheckResponse":
        raw = _field(payload, "results", list)
        results = []
        for index, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise ProtocolError(ERR_BAD_REQUEST,
                                    f"results[{index}] must be an object")
            results.append(CheckResponse.from_wire(
                {"v": PROTOCOL_VERSION, **entry}))
        return cls(results=tuple(results))


@dataclass(frozen=True)
class MatchCorpusRequest:
    """POST /v1/match — one preference against every installed policy.

    Set-at-a-time: the server answers from its materialized decision
    cache where it can and repairs the misses with a bulk plan, so the
    response covers the whole corpus in a bounded number of statements
    regardless of how many policies are installed.
    """

    preference_hash: str

    def to_wire(self) -> dict[str, Any]:
        return {
            "v": PROTOCOL_VERSION,
            "preference_hash": self.preference_hash,
        }

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "MatchCorpusRequest":
        return cls(preference_hash=_field(payload, "preference_hash", str))


def match_entry_wire(policy_id: int, name: str | None, version: int,
                     behavior: str | None, rule_index: int | None,
                     cached: bool) -> dict[str, Any]:
    """One policy's entry in a ``/v1/match`` document: the six keys a
    server writes.  The arguments come in the field order of the
    server's ``MatchDecision``, so a server encodes its records as
    ``match_entry_wire(*decision)`` with no object in between."""
    return {"policy_id": policy_id, "name": name, "version": version,
            "behavior": behavior, "rule_index": rule_index,
            "cached": cached}


@dataclass(frozen=True)
class MatchCorpusEntry:
    """One policy's decision within a corpus match.  ``shard`` names
    the shard that answered, on an entry merged by the cluster router."""

    policy_id: int
    name: str | None
    version: int
    behavior: str | None
    rule_index: int | None
    cached: bool
    shard: int | None = None

    @property
    def decision(self) -> tuple:
        """The comparable decision, independent of cache temperature."""
        return (self.policy_id, self.behavior, self.rule_index)

    def to_wire(self) -> dict[str, Any]:
        wire = match_entry_wire(self.policy_id, self.name, self.version,
                                self.behavior, self.rule_index,
                                self.cached)
        if self.shard is not None:
            wire["shard"] = self.shard
        return wire

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "MatchCorpusEntry":
        return cls(
            policy_id=_field(payload, "policy_id", int),
            name=_field(payload, "name", str, required=False),
            version=_field(payload, "version", int),
            behavior=_field(payload, "behavior", str, required=False),
            rule_index=_field(payload, "rule_index", int, required=False),
            cached=_field(payload, "cached", bool,
                          required=False, default=False),
            shard=_field(payload, "shard", int, required=False),
        )


@dataclass(frozen=True)
class MatchCorpusResponse:
    """Every active policy's decision: ordered by policy id from one
    server, by (name, shard, policy id) from the cluster router.

    A router whose shards did not all answer sets ``partial`` and names
    each missing shard, by id, in ``shard_errors`` (its error code and
    message), so a caller can tell a smaller corpus from a partial one.
    """

    results: tuple[MatchCorpusEntry, ...]
    cache_hits: int
    cache_misses: int
    elapsed_seconds: float
    partial: bool = False
    shard_errors: Mapping[int, ErrorEnvelope] = field(default_factory=dict)

    def to_wire(self) -> dict[str, Any]:
        wire: dict[str, Any] = {
            "v": PROTOCOL_VERSION,
            "results": [entry.to_wire() for entry in self.results],
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.partial:
            wire["partial"] = True
        if self.shard_errors:
            wire["shard_errors"] = {
                str(shard): {"code": error.code, "message": error.message}
                for shard, error in self.shard_errors.items()}
        return wire

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]
                  ) -> "MatchCorpusResponse":
        raw = _field(payload, "results", list)
        results = []
        for index, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise ProtocolError(ERR_BAD_REQUEST,
                                    f"results[{index}] must be an object")
            results.append(MatchCorpusEntry.from_wire(entry))
        shard_errors: dict[int, ErrorEnvelope] = {}
        raw_errors = _field(payload, "shard_errors", dict, required=False)
        for shard, error in (raw_errors or {}).items():
            if not shard.isdecimal() or not isinstance(error, dict):
                raise ProtocolError(
                    ERR_BAD_REQUEST,
                    f"shard_errors[{shard!r}] must map a shard id to an "
                    "object with code/message")
            shard_errors[int(shard)] = ErrorEnvelope.from_wire(
                {"error": error})
        return cls(
            results=tuple(results),
            cache_hits=_field(payload, "cache_hits", int,
                              required=False, default=0),
            cache_misses=_field(payload, "cache_misses", int,
                                required=False, default=0),
            elapsed_seconds=_field(payload, "elapsed_seconds",
                                   (int, float), required=False,
                                   default=0.0),
            partial=_field(payload, "partial", bool,
                           required=False, default=False),
            shard_errors=shard_errors,
        )


@dataclass(frozen=True)
class InstallPolicyRequest:
    """POST /v1/policies — shred a policy (and optionally its reference
    file) into the store; supersedes earlier versions of the same name."""

    policy: str
    site: str | None = None
    reference_file: str | None = None

    def to_wire(self) -> dict[str, Any]:
        wire: dict[str, Any] = {"v": PROTOCOL_VERSION, "policy": self.policy}
        if self.site is not None:
            wire["site"] = self.site
        if self.reference_file is not None:
            wire["reference_file"] = self.reference_file
        return wire

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "InstallPolicyRequest":
        request = cls(
            policy=_field(payload, "policy", str),
            site=_field(payload, "site", str, required=False),
            reference_file=_field(payload, "reference_file", str,
                                  required=False),
        )
        if request.reference_file is not None and request.site is None:
            raise ProtocolError(
                ERR_BAD_REQUEST,
                "installing a reference_file requires a site",
            )
        return request


@dataclass(frozen=True)
class InstallPolicyResponse:
    """The shred report, over the wire."""

    policy_id: int
    statements: int
    data_items: int
    categories: int
    seconds: float
    reference_rows: int | None = None

    def to_wire(self) -> dict[str, Any]:
        return {
            "v": PROTOCOL_VERSION,
            "policy_id": self.policy_id,
            "statements": self.statements,
            "data_items": self.data_items,
            "categories": self.categories,
            "seconds": self.seconds,
            "reference_rows": self.reference_rows,
        }

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]
                  ) -> "InstallPolicyResponse":
        return cls(
            policy_id=_field(payload, "policy_id", int),
            statements=_field(payload, "statements", int),
            data_items=_field(payload, "data_items", int),
            categories=_field(payload, "categories", int),
            seconds=_field(payload, "seconds", (int, float),
                           required=False, default=0.0),
            reference_rows=_field(payload, "reference_rows", int,
                                  required=False),
        )


def error_from_http(status: int, body: bytes | str) -> ProtocolError:
    """Turn an HTTP error response into the ProtocolError it carries.

    Non-envelope bodies (a proxy's HTML error page, a truncated read)
    degrade to ``internal-error`` with the status attached, so callers
    always get a ProtocolError with a usable ``code``.
    """
    try:
        envelope = ErrorEnvelope.from_wire(decode(body))
    except ProtocolError:
        return ProtocolError(ERR_INTERNAL,
                             f"HTTP {status} with unreadable error body",
                             http_status=status)
    return ProtocolError(envelope.code, envelope.message,
                         http_status=status,
                         retry_after=envelope.retry_after)
