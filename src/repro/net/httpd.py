"""The request core every front end shares, and its threaded transport.

This is the deployment Section 3 sketches: the site's web server answers
preference checks itself, backed by the policy database.  One process,
stdlib only:

* ``POST /v1/preferences``  — register an APPEL ruleset once; the
  response carries its hash.  Parsing (and, lazily, SQL translation) is
  paid at registration — the paper's pay-once insight moved to the wire.
* ``POST /v1/check``        — one decision, by preference hash.
* ``POST /v1/check-batch``  — many decisions (results in request order,
  check log flushed before replying).
* ``POST /v1/match``        — one preference against the *whole* corpus
  (``match_all``): answered from the materialized decision cache where
  possible, misses repaired set-at-a-time from rule bits.  Registering
  a preference eagerly populates its cache rows, so the first match
  after registration is already warm.
* ``POST /v1/policies``     — install a policy (optionally with its
  reference file); compiled plans are policy-independent, so installs
  invalidate nothing in the plan cache.
* ``GET /w3c/p3p.xml``      — the site's reference file with a strong
  ETag; ``If-None-Match`` revalidation answers 304 with no body, so
  agents refresh caches for the price of a header.
* ``GET /healthz``          — liveness.
* ``GET /metrics``          — JSON counters (requests, errors, plan- and
  statement-cache hit rates, check-log pending, admission occupancy).

Every connection, whichever transport accepted it, runs one loop,
:meth:`RequestCore.serve_connection`: heads are framed by
:mod:`repro.net.framing` (a head that cannot be framed gets ``400
bad-request`` and the connection closes), and each request is answered
by one coroutine, :meth:`RequestCore.handle`: body-size cap → route
(404/405) → shard-identity check → admission → handler → error
envelope and header block.  Transports only move bytes:
:class:`P3PHttpServer` (a thread per kept-alive connection over
``socketserver``, mapping one-to-one onto the connection pool's
reader-per-thread design), :class:`repro.net.aio.AsyncP3PServer` (one
event loop, checks micro-batched across connections) and
:class:`repro.cluster.router.ClusterRouter` (this threaded transport
again, with handlers that forward to shards).

The check endpoints sit behind an
:class:`~repro.net.admission.AdmissionController`; everything else
(registration, installs, health) bypasses it so operators can always
look inside an overloaded server.  Shutdown is graceful:
:meth:`ThreadedTransport.close` stops accepting, then flushes the
buffered check log, so exactly-once logging holds across the network
boundary.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import socketserver
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Coroutine, Mapping, TypeVar
from urllib.parse import parse_qs

from repro.appel.analysis import validate_ruleset
from repro.appel.model import Ruleset
from repro.appel.parser import parse_ruleset
from repro.errors import ReproError
from repro.net import framing, protocol
from repro.net.admission import AdmissionController
from repro.p3p.parser import parse_policy
from repro.server.policy_server import (CheckResult, PolicyServer,
                                        preference_hash)

logger = logging.getLogger(__name__)

T = TypeVar("T")

#: Capacity of the registered-preference LRU.
REGISTRY_SIZE = 4096
#: Threads ``serve_many`` fans a threaded ``/v1/check-batch`` out over.
BATCH_THREADS = 4


class PreferenceRegistry:
    """Registered APPEL rulesets, addressable by content hash.

    Bounded LRU, same discipline as the translation cache: a crowd of
    distinct users cannot grow server memory without limit.  Eviction is
    safe because the protocol is self-healing — a check whose hash was
    evicted gets ``unknown-preference`` and the client re-registers.
    """

    def __init__(self, maxsize: int = REGISTRY_SIZE):
        if maxsize < 1:
            raise ValueError("registry maxsize must be >= 1")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, Ruleset] = OrderedDict()
        self.evictions = 0
        self.validation_findings = 0

    def register(self, preference: Ruleset) -> tuple[str, bool]:
        """Store *preference*; returns ``(hash, created)``.

        Newly seen rulesets are run through
        :func:`repro.appel.analysis.validate_ruleset`; problems are
        *logged, never rejected* — an APPEL ruleset with a misspelled
        vocabulary term is legal, it just matches nothing, and the
        user's agent deserves service while the operator sees why
        checks keep returning the catch-all behavior.
        """
        digest = preference_hash(preference)
        with self._lock:
            created = digest not in self._entries
            self._entries[digest] = preference
            self._entries.move_to_end(digest)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
        if created:
            problems = validate_ruleset(preference)
            if problems:
                with self._lock:
                    self.validation_findings += len(problems)
                for problem in problems:
                    logger.warning("preference %s: %s",
                                   digest[:12], problem)
        return digest, created

    def get(self, preference_hash: str) -> Ruleset | None:
        with self._lock:
            preference = self._entries.get(preference_hash)
            if preference is not None:
                self._entries.move_to_end(preference_hash)
            return preference

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, preference_hash: str) -> bool:
        with self._lock:
            return preference_hash in self._entries


class _Metrics:
    """Lock-protected request/error counters behind ``GET /metrics``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests_total = 0
        self.by_endpoint: dict[str, int] = {}
        self.errors_total = 0
        self.by_error_code: dict[str, int] = {}
        self.checks_served = 0
        self.not_modified = 0

    def request(self, endpoint: str) -> None:
        with self._lock:
            self.requests_total += 1
            self.by_endpoint[endpoint] = \
                self.by_endpoint.get(endpoint, 0) + 1

    def error(self, code: str) -> None:
        with self._lock:
            self.errors_total += 1
            self.by_error_code[code] = self.by_error_code.get(code, 0) + 1

    def checks(self, count: int) -> None:
        with self._lock:
            self.checks_served += count

    def revalidated(self) -> None:
        with self._lock:
            self.not_modified += 1

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "requests": {
                    "total": self.requests_total,
                    "by_endpoint": dict(self.by_endpoint),
                },
                "errors": {
                    "total": self.errors_total,
                    "by_code": dict(self.by_error_code),
                },
                "checks_served": self.checks_served,
                "reference_not_modified": self.not_modified,
            }


@dataclass
class Response:
    """One HTTP response, as a transport writes it out."""

    status: int
    body: bytes = b""
    headers: dict[str, str] = field(default_factory=dict)
    #: Close the connection after writing (an unread body, a fault).
    close: bool = False

    def encode(self) -> bytes:
        """The status line, header block and body as one buffer."""
        return framing.render_response(self.status, self.headers,
                                       self.body)


def json_response(status: int, payload: Mapping[str, Any]) -> Response:
    return Response(status, json.dumps(payload, sort_keys=True).encode(
        "utf-8"), {"Content-Type": "application/json"})


def run_to_completion(coroutine: Coroutine[Any, Any, T]) -> T:
    """Drive *coroutine* on the calling thread, without an event loop.

    On threads ``run`` is a direct call and a
    :class:`~repro.net.framing.SocketConnection` blocks, so a
    connection's whole loop finishes in one step and no work moves to
    another thread.  A coroutine that suspends anyway (it awaited a
    loop-only primitive) is a bug, raised here rather than left hanging.
    """
    try:
        coroutine.send(None)
    except StopIteration as done:
        return done.value
    coroutine.close()
    raise RuntimeError("request handler suspended outside an event loop")


class RequestCore:
    """The transport-free request path shared by every front end.

    Subclasses supply :attr:`ROUTES`, the handlers it names and
    ``metrics_snapshot``; the transport mixed in after them supplies
    ``_bind`` (claim the listening address, setting the bound
    ``server_address``) and ``close``.  Handlers are coroutines ``(body, query, headers) ->
    Response``, because async checks await the batching executor; all
    blocking work goes through :meth:`run`, which an event-loop
    transport overrides to use its executor.
    """

    #: path -> (method, admission class or None, handler method name)
    ROUTES: dict[str, tuple[str, str | None, str]] = {}

    def __init__(self, address: tuple[str, int],
                 admission: AdmissionController, *,
                 max_body_bytes: int,
                 server_id: str,
                 identity: protocol.ShardIdentity | None = None):
        self._bind(address)
        self.admission = admission
        self.net_metrics = _Metrics()
        self.max_body_bytes = max_body_bytes
        #: Stable within the process lifetime: lets aggregated cluster
        #: metrics attribute a snapshot to one server instance even
        #: when several share a host (and distinguishes a restarted
        #: worker from its predecessor).
        self.server_id = server_id
        self.started_monotonic = time.monotonic()
        #: Cluster deployments set this: responses carry the shard-
        #: identity headers and mismatched requests get ``wrong-shard``.
        self.identity = identity
        #: Test/chaos extension point: ``hook(stage, path) -> action``.
        #: *stage* is ``"request"`` (routed, before the handler runs) or
        #: ``"response"`` (before the reply is written); ``"drop"``
        #: severs the connection, ``"truncate"`` (response only) sends a
        #: partial body, anything else is a no-op.  See
        #: repro.testing.faults.
        self.fault_hook = None

    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def base_url(self) -> str:
        host = self.host
        if ":" in host:                      # bare IPv6 literal
            host = f"[{host}]"
        return f"http://{host}:{self.port}"

    async def run(self, work: Callable[[], T]) -> T:
        """Run blocking *work*: a direct call on a handler thread."""
        return work()

    async def serve_connection(
            self, connection: framing.SocketConnection
            | framing.StreamConnection) -> None:
        """Answer the requests on one connection until either side
        closes it.

        *connection* is a :class:`~repro.net.framing.SocketConnection`
        (the threaded transport drives this coroutine with
        :func:`run_to_completion`) or a
        :class:`~repro.net.framing.StreamConnection` (the event loop
        awaits it); either way the framing rules below are the same.
        A head that cannot be framed is answered by :meth:`reject`.
        ``100 Continue`` goes out only when :meth:`handle` reads the
        body, so never before a 413.  The connection closes after a
        response that says so, or when the client asked for it.  A
        dropped connection propagates for the transport to close.
        """
        while True:
            try:
                head = await connection.request_head()
            except framing.FramingError as exc:
                await connection.write(self.reject(exc).encode())
                return
            if head is None:
                return

            async def body(length: int) -> bytes:
                if length and head.expects_continue:
                    await connection.write(framing.CONTINUE)
                return await connection.read(length)

            response = await self.handle(head, body)
            await connection.write(response.encode())
            if response.close or not head.keep_alive:
                return

    async def handle(self, head: framing.RequestHead,
                     body: Callable[[int], Awaitable[bytes]]) -> Response:
        """Answer one request; every failure becomes the error envelope.

        *body(n)* reads exactly *n* request-body bytes; it is called
        only once Content-Length has passed the size cap, so an
        oversized body is refused unread — and a response that leaves
        the body unread closes the connection, since its bytes would
        otherwise be parsed as the next request.  A dropped connection
        (``ConnectionResetError``, injected drops included) propagates:
        the transport closes without a reply.
        """
        path = head.path
        payload = None
        try:
            if head.content_length > self.max_body_bytes:
                raise protocol.ProtocolError(
                    protocol.ERR_PAYLOAD_TOO_LARGE,
                    f"body of {head.content_length} bytes exceeds the "
                    f"{self.max_body_bytes}-byte limit")
            payload = await body(head.content_length)
            route = self.ROUTES.get(path)
            if route is None:
                raise protocol.ProtocolError(
                    protocol.ERR_NOT_FOUND, f"no endpoint at {path}")
            route_method, op_class, name = route
            if head.method != route_method:
                raise protocol.ProtocolError(
                    protocol.ERR_METHOD_NOT_ALLOWED,
                    f"{path} does not accept {head.method}")
            self.net_metrics.request(path)
            self._check_shard_identity(path, head.headers)
            hook = self.fault_hook
            if hook is not None and hook("request", path) == "drop":
                raise ConnectionResetError("injected: connection dropped")
            if op_class is not None and not self.admission.try_enter():
                raise protocol.ProtocolError(
                    protocol.ERR_OVERLOADED,
                    f"server is at its {self.admission.max_inflight}"
                    "-request concurrency limit; retry shortly",
                    retry_after=self.admission.retry_after_for(op_class))
            try:
                response = await getattr(self, name)(
                    payload, parse_qs(head.query), head.headers)
            finally:
                if op_class is not None:
                    self.admission.leave()
        except protocol.ProtocolError as exc:
            response = self._error(exc)
        except ReproError as exc:
            # Library-level rejection of the request's content (unknown
            # policy name in a reference file, vocabulary violations...).
            response = self._error(protocol.ProtocolError(
                protocol.ERR_PARSE, str(exc)))
        except (BrokenPipeError, ConnectionResetError):
            raise
        except Exception as exc:   # noqa: BLE001 — keep the server up
            response = self._error(protocol.ProtocolError(
                protocol.ERR_INTERNAL, f"{type(exc).__name__}: {exc}"))
        if payload is None:
            response.close = True
        return self._finish(response, path)

    def reject(self, exc: framing.FramingError) -> Response:
        """The reply to a head that cannot be framed: ``bad-request``,
        then close — nothing after it on the connection can be trusted."""
        response = self._error(protocol.ProtocolError(
            protocol.ERR_BAD_REQUEST, str(exc)))
        response.close = True
        return self._finish(response, "")

    def _check_shard_identity(self, path: str,
                              headers: Mapping[str, str]) -> None:
        """Reject a request addressed to a shard this server is not.

        A misrouted request must get a *redirect-shaped* error, never a
        wrong answer: a client holding a stale topology would otherwise
        read decisions (or install policies!) against the wrong shard's
        corpus.  Only ``/v1/*`` traffic is checked — health probes and
        metrics scrapes are deliberately shard-agnostic.
        """
        identity = self.identity
        if identity is None or not path.startswith("/v1/"):
            return
        claimed = headers.get(protocol.SHARD_HEADER.lower())
        if claimed is not None and claimed != str(identity.shard_id):
            raise protocol.ProtocolError(
                protocol.ERR_WRONG_SHARD,
                f"request addressed shard {claimed} but this server "
                f"owns shard {identity.shard_id} (topology "
                f"v{identity.topology_version}); refresh the topology "
                "and re-route",
            )
        version = headers.get(protocol.TOPOLOGY_HEADER.lower())
        if version is not None and \
                version != str(identity.topology_version):
            raise protocol.ProtocolError(
                protocol.ERR_WRONG_SHARD,
                f"request carries topology v{version} but this server "
                f"is at v{identity.topology_version}; refresh the "
                "topology and re-route",
            )

    def _error(self, exc: protocol.ProtocolError) -> Response:
        self.net_metrics.error(exc.code)
        response = json_response(exc.http_status, exc.envelope().to_wire())
        if exc.retry_after is not None:
            # Retry-After is delta-seconds; never advertise zero.
            response.headers["Retry-After"] = \
                str(max(1, round(exc.retry_after)))
        return response

    def _finish(self, response: Response, path: str) -> Response:
        """Stamp the header block every response carries, then give the
        fault hook its response stage."""
        headers = response.headers
        headers["Content-Length"] = str(len(response.body))
        headers[protocol.SERVER_ID_HEADER] = self.server_id
        identity = self.identity
        if identity is not None:
            headers[protocol.SHARD_HEADER] = str(identity.shard_id)
            headers[protocol.TOPOLOGY_HEADER] = \
                str(identity.topology_version)
            headers[protocol.ROLE_HEADER] = identity.role
        if response.close:
            headers["Connection"] = "close"
        hook = self.fault_hook
        if hook is not None:
            action = hook("response", path)
            if action == "drop":
                raise ConnectionResetError("injected: response dropped")
            if action == "truncate":
                # Advertise the full length, deliver half, sever: the
                # client sees an IncompleteRead, like a mid-reply crash.
                half = max(1, len(response.body) // 2)
                response.body = response.body[:half]
                response.close = True
        return response

    # -- endpoints every front end answers -----------------------------------

    def health(self) -> dict[str, Any]:
        return {"v": protocol.PROTOCOL_VERSION, "status": "ok"}

    async def _healthz(self, body: bytes, query: dict,
                       headers: Mapping[str, str]) -> Response:
        return json_response(200, self.health())

    async def _metrics(self, body: bytes, query: dict,
                       headers: Mapping[str, str]) -> Response:
        return json_response(200, self.metrics_snapshot())

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class PolicyService(RequestCore):
    """The protocol's endpoints over one :class:`PolicyServer`.

    Shared by :class:`P3PHttpServer` and
    :class:`~repro.net.aio.AsyncP3PServer`; the only transport-specific
    step is how checks are decided (:meth:`_decide`,
    :meth:`_decide_batch`) — here directly on the handler thread, on the
    async server through its batching executor.
    """

    ROUTES = {
        "/healthz": ("GET", None, "_healthz"),
        "/metrics": ("GET", None, "_metrics"),
        "/w3c/p3p.xml": ("GET", None, "_reference"),
        "/v1/preferences": ("POST", None, "_register_preference"),
        "/v1/check": ("POST", "check", "_check"),
        "/v1/check-batch": ("POST", "check", "_check_batch"),
        "/v1/match": ("POST", "check", "_match_corpus"),
        "/v1/policies": ("POST", None, "_install_policy"),
    }

    def __init__(self, policy_server: PolicyServer,
                 address: tuple[str, int] = ("127.0.0.1", 0), *,
                 max_inflight: int = 64,
                 retry_after: float = 1.0,
                 retry_after_by_class: Mapping[str, float] | None = None,
                 max_body_bytes: int = 4 * 1024 * 1024,
                 identity: protocol.ShardIdentity | None = None,
                 owns_policy_server: bool = False):
        super().__init__(
            address,
            AdmissionController(max_inflight, retry_after=retry_after,
                                retry_after_by_class=retry_after_by_class),
            max_body_bytes=max_body_bytes, server_id=uuid.uuid4().hex[:16],
            identity=identity)
        self.policy_server = policy_server
        self.preferences = PreferenceRegistry()
        self.owns_policy_server = owns_policy_server
        #: Extra top-level blocks merged into ``metrics_snapshot()``
        #: (zero-argument callables returning a mapping) — the replica
        #: refresh loop reports its generation/lag through this.
        self.metrics_extensions: list = []
        self._reference_lock = threading.Lock()
        #: site -> (raw XML bytes, strong ETag)
        self._reference_documents: dict[str, tuple[bytes, str]] = {}

    # -- reference documents -------------------------------------------------

    def register_reference_document(self, site: str, xml: str) -> None:
        """Make ``GET /w3c/p3p.xml?site=...`` serve *xml* for *site*."""
        body = xml.encode("utf-8")
        etag = '"' + hashlib.sha256(body).hexdigest()[:32] + '"'
        with self._reference_lock:
            self._reference_documents[site] = (body, etag)

    def reference_document(self, site: str) -> tuple[bytes, str] | None:
        with self._reference_lock:
            return self._reference_documents.get(site)

    # -- introspection -------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, Any]:
        """The ``GET /metrics`` document: one schema for both front ends."""
        # "translation_cache": one compiled plan per preference or rule body.
        cache = self.policy_server._translation_cache
        log = self.policy_server.log
        pool_stats = self.policy_server.pool.stats()
        server_block: dict[str, Any] = {
            "server_id": self.server_id,
            "pid": os.getpid(),
            "uptime_seconds": time.monotonic() - self.started_monotonic,
        }
        if self.identity is not None:
            server_block["shard"] = self.identity.shard_id
            server_block["role"] = self.identity.role
            server_block["topology_version"] = \
                self.identity.topology_version
        snapshot = {
            "v": protocol.PROTOCOL_VERSION,
            "server": server_block,
            **self.net_metrics.snapshot(),
            "translation_cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "hit_rate": cache.hit_rate(),
                "size": len(cache),
                "size_chars": cache.size_chars(),
            },
            "statement_cache": {
                "hits": pool_stats.cache_hits,
                "misses": pool_stats.cache_misses,
                "hit_rate": pool_stats.cache_hit_rate,
            },
            "check_log": {
                "pending": log.pending,
                "appended": log.appended,
                "written": log.written,
                "batches": log.batches,
            },
            "admission": self.admission.snapshot(),
            "preferences": {
                "registered": len(self.preferences),
                "evictions": self.preferences.evictions,
                "validation_findings": self.preferences.validation_findings,
            },
            # Flag-gated EXPLAIN audits of freshly compiled plans
            # (PolicyServer(audit_plans=True)); counters ride on the
            # per-connection QueryStats the pool aggregates.
            "plan_audit": {
                "plans_audited": pool_stats.plans_audited,
                "findings": pool_stats.audit_findings,
            },
            # The decision cache behind every check and /v1/match: hit
            # rate, populate/invalidate volume, write-back failures.
            "decision_cache": self.policy_server.decisions.snapshot(),
        }
        for extension in self.metrics_extensions:
            snapshot.update(extension())
        return snapshot

    def _release(self) -> None:
        """Close the PolicyServer when this server owns it (the factories
        and the CLI set that up); otherwise just flush its check log."""
        if self.owns_policy_server:
            self.policy_server.close()     # close() flushes first
        else:
            self.policy_server.flush_log()

    # -- endpoints -----------------------------------------------------------

    def _preference(self, preference_hash: str) -> Ruleset:
        preference = self.preferences.get(preference_hash)
        if preference is None:
            raise protocol.ProtocolError(
                protocol.ERR_UNKNOWN_PREFERENCE,
                f"no preference registered under {preference_hash!r}; "
                "POST it to /v1/preferences first",
            )
        return preference

    async def _reference(self, body: bytes, query: dict,
                         headers: Mapping[str, str]) -> Response:
        sites = query.get("site")
        # Default to the Host header, as a real deployment would.
        site = sites[0] if sites else \
            (headers.get("host") or "").split(":")[0]
        document = self.reference_document(site)
        if document is None:
            raise protocol.ProtocolError(
                protocol.ERR_NOT_FOUND,
                f"no reference file registered for site {site!r}",
            )
        xml, etag = document
        candidates = headers.get("if-none-match")
        if candidates is not None:
            matches = {candidate.strip() for candidate
                       in candidates.split(",")}
            if "*" in matches or etag in matches:
                self.net_metrics.revalidated()
                return Response(304, headers={"ETag": etag})
        return Response(200, xml, {
            "Content-Type": "application/xml; charset=utf-8",
            "ETag": etag,
            "Cache-Control": "max-age=86400",
        })

    async def _register_preference(self, body: bytes, query: dict,
                                   headers: Mapping[str, str]) -> Response:
        request = protocol.RegisterPreferenceRequest.from_wire(
            protocol.decode(body))
        return await self.run(lambda: self._register(request.appel))

    def _register(self, appel: str) -> Response:
        preference = parse_ruleset(appel)
        digest, created = self.preferences.register(preference)
        if created and self.policy_server.cache_decisions:
            # Eagerly materialize this preference's decision for every
            # installed policy — the pay-once moment.  Best-effort: a
            # failed populate costs the first match a repair pass, it
            # must not fail the registration.
            try:
                self.policy_server.register_preference(preference)
            except Exception:      # noqa: BLE001 — populate is advisory
                self.policy_server.decisions.record_write_error()
                logger.warning("decision-cache populate failed for %s",
                               digest[:12], exc_info=True)
        return json_response(201 if created else 200,
                             protocol.RegisterPreferenceResponse(
                                 preference_hash=digest,
                                 rules=len(preference.rules),
                                 created=created,
                             ).to_wire())

    async def _check(self, body: bytes, query: dict,
                     headers: Mapping[str, str]) -> Response:
        request = protocol.CheckRequest.from_wire(protocol.decode(body))
        result = await self._decide(
            request, self._preference(request.preference_hash))
        self.net_metrics.checks(1)
        return json_response(
            200, protocol.CheckResponse.from_result(result).to_wire())

    async def _check_batch(self, body: bytes, query: dict,
                           headers: Mapping[str, str]) -> Response:
        request = protocol.BatchCheckRequest.from_wire(
            protocol.decode(body))
        results = await self._decide_batch(
            request, self._preference(request.preference_hash))
        self.net_metrics.checks(len(results))
        return json_response(200, protocol.BatchCheckResponse(
            results=tuple(protocol.CheckResponse.from_result(result)
                          for result in results)).to_wire())

    async def _decide(self, request: protocol.CheckRequest,
                      preference: Ruleset) -> CheckResult:
        """One decision, on the handler thread."""
        return await self.run(lambda: self.policy_server.check(
            request.site, request.uri, preference,
            cookie=request.cookie, check_key=request.check_key))

    async def _decide_batch(self, request: protocol.BatchCheckRequest,
                            preference: Ruleset) -> list[CheckResult]:
        """Every decision of a batch, in request order.

        ``serve_many`` flushes the check log in a finally, so checks
        that completed before a worker failure are durable even when
        this raises and the handler answers with an error envelope.
        """
        keys = request.check_keys or (None,) * len(request.checks)
        return await self.run(lambda: self.policy_server.serve_many(
            [(site, uri, preference, key)
             for (site, uri), key in zip(request.checks, keys)],
            threads=BATCH_THREADS, cookie=request.cookie))

    async def _match_corpus(self, body: bytes, query: dict,
                            headers: Mapping[str, str]) -> Response:
        request = protocol.MatchCorpusRequest.from_wire(
            protocol.decode(body))
        preference = self._preference(request.preference_hash)
        result = await self.run(
            lambda: self.policy_server.match_all(preference))
        self.net_metrics.checks(len(result.decisions))
        # MatchCorpusResponse's document, no entry object per decision.
        return json_response(200, {
            "v": protocol.PROTOCOL_VERSION,
            "results": [protocol.match_entry_wire(*decision)
                        for decision in result.decisions],
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
            "elapsed_seconds": result.elapsed_seconds,
        })

    async def _install_policy(self, body: bytes, query: dict,
                              headers: Mapping[str, str]) -> Response:
        request = protocol.InstallPolicyRequest.from_wire(
            protocol.decode(body))
        return await self.run(lambda: self._install(request))

    def _install(self, request: protocol.InstallPolicyRequest) -> Response:
        policy = parse_policy(request.policy)
        reference_rows = None
        if request.reference_file is None:
            report = self.policy_server.install_policy(policy,
                                                       site=request.site)
        else:
            # One transaction: a refused reference file rolls the
            # policy back too.  Its document is served only once both
            # are committed.
            report, reference_rows = self.policy_server.install_with_reference(
                policy, request.reference_file, request.site)
            self.register_reference_document(request.site,
                                             request.reference_file)
        return json_response(201, protocol.InstallPolicyResponse(
            policy_id=report.policy_id,
            statements=report.statements,
            data_items=report.data_items,
            categories=report.categories,
            seconds=report.seconds,
            reference_rows=reference_rows,
        ).to_wire())


class _Connection(socketserver.BaseRequestHandler):
    """One kept-alive connection, served on its own thread."""

    def handle(self) -> None:
        try:
            run_to_completion(self.server.serve_connection(
                framing.SocketConnection(self.request)))
        except OSError:
            pass                   # the peer went away


class ThreadedTransport(socketserver.ThreadingTCPServer):
    """A thread per kept-alive connection under a :class:`RequestCore`
    (which a subclass mixes in first); lifecycle as ``BaseServer``."""

    daemon_threads = True
    allow_reuse_address = True
    # The listen backlog asyncio gives the async server.  socketserver's
    # default of 5 overflows when a burst of clients connects at once,
    # and every SYN it drops costs its client a 1 s retransmission.
    request_queue_size = 100
    thread_name = "p3p-httpd"
    _serving = False
    _closed = False

    def _bind(self, address: tuple[str, int]) -> None:
        socketserver.ThreadingTCPServer.__init__(self, address, _Connection)

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._serving = True
        try:
            super().serve_forever(poll_interval)
        finally:
            self._serving = False

    def run_in_thread(self) -> threading.Thread:
        """Start ``serve_forever`` on a daemon thread and return it."""
        thread = threading.Thread(target=self.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  name=self.thread_name, daemon=True)
        thread.start()
        return thread

    def close(self) -> None:
        """Stop accepting, release the socket, then ``_release`` what
        the server holds (for a policy server: flush the check log).

        Idempotent.  Call from a different thread than ``serve_forever``
        (or after it returned), as with ``BaseServer.shutdown``.
        """
        if self._closed:
            return
        self._closed = True
        if self._serving:          # shutdown() hangs if never serving
            self.shutdown()
        self.server_close()
        self._release()


class P3PHttpServer(PolicyService, ThreadedTransport):
    """An HTTP policy server: bind, then ``serve_forever`` or
    :meth:`run_in_thread`.  Bind to port 0 for an ephemeral port and
    read :attr:`base_url` back."""


def serve(db: str | None = None, host: str = "127.0.0.1", port: int = 0,
          **options: Any) -> P3PHttpServer:
    """Boot an HTTP server over a fresh :class:`PolicyServer` on *db*.

    The returned server owns its PolicyServer: ``close()`` flushes the
    check log and closes the pool.
    """
    policy_server = PolicyServer(db)
    return P3PHttpServer(policy_server, (host, port),
                         owns_policy_server=True, **options)
