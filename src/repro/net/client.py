"""``HttpClientAgent`` — the thin client of the server-centric design.

The paper's Section 4.2 point: the client should *not* re-do document
processing per check.  Over the wire that becomes: serialize and POST
the APPEL preference **once** (``/v1/preferences``), keep the returned
hash, and make every subsequent check a small JSON request.  The agent
registers lazily on first use and transparently **re-registers** when
the server answers ``unknown-preference`` — which happens after a server
restart or a registry eviction — so callers never see the handshake.

Transport is one kept-alive socket framed by :mod:`repro.net.framing`:
each request goes out as one write and its reply is parsed by the same
code the servers use (Nagle off, the agent's timeout on every socket
operation; the socket is rebuilt once if a reused one failed, and
dropped when the server answers ``Connection: close``).  One agent is
therefore **not** thread-safe — give each client thread its own agent,
the exact analogue of the connection pool's reader-per-thread rule.
Reference files are cached with their ETag and revalidated with
``If-None-Match``, so a fresh copy costs a 304 with no body.

**Fault tolerance.**  Idempotent calls (checks, registration, GETs)
run under a :class:`~repro.net.retry.RetryPolicy` — bounded attempts,
exponential backoff with deterministic jitter, ``Retry-After`` honored
on ``overloaded`` — so shed load, dropped connections, truncated
replies and transient server errors heal without surfacing.  Every
check is stamped with a generated ``check_key`` and a retry re-sends
the *same* key, so the server logs the check exactly once even when
the first response was lost.  Installs are **not** retried (repeating
one creates a new policy version); pass ``retry=None`` to disable
retries everywhere.
"""

from __future__ import annotations

import socket
import time
import uuid
from typing import Any, Iterable, Mapping
from urllib.parse import quote, urlsplit

from repro.appel.model import Ruleset
from repro.appel.parser import parse_ruleset
from repro.appel.serializer import serialize_ruleset
from repro.net import framing, protocol
from repro.net.retry import RetryPolicy
from repro.p3p.model import Policy
from repro.p3p.serializer import serialize_policy
from repro.translate.plan import TranslationCache

#: Sentinel: "caller did not choose a policy" (None means *no retries*).
_DEFAULT_RETRY = RetryPolicy()


class HttpClientAgent:
    """A P3P user agent speaking the v1 wire protocol to one server."""

    def __init__(self, base_url: str,
                 preference: Ruleset | str | None = None, *,
                 preference_hash: str | None = None,
                 timeout: float = 30.0,
                 retry: RetryPolicy | None = _DEFAULT_RETRY,
                 default_headers: Mapping[str, str] | None = None,
                 reference_cache_size: int = 64):
        split = urlsplit(base_url if "//" in base_url
                         else f"http://{base_url}")
        if split.scheme not in ("", "http"):
            raise ValueError(
                f"unsupported scheme {split.scheme!r} (http only)")
        self._host = split.hostname or "127.0.0.1"
        self._port = split.port or 80
        host = f"[{self._host}]" if ":" in self._host else self._host
        self._host_header = host if self._port == 80 \
            else f"{host}:{self._port}"
        if isinstance(preference, str):
            preference = parse_ruleset(preference)
        self.preference = preference
        self.preference_hash = preference_hash
        self.timeout = timeout
        self.retry = retry
        #: Sent with every request (cluster clients stamp the shard-
        #: identity headers here, so a misrouted call is *rejected* by
        #: the receiving server instead of silently answered).
        self.default_headers = dict(default_headers or {})
        self.requests_sent = 0
        self.reregistrations = 0
        self.revalidations = 0
        self.retries = 0
        self._check_counter = 0
        self._agent_id = uuid.uuid4().hex[:16]
        self._connection: framing.SocketConnection | None = None
        #: site -> (etag, xml) for If-None-Match revalidation.  Bounded
        #: LRU: an agent crawling many sites revalidates the hot ones
        #: and refetches the cold ones instead of growing forever.
        self._reference_cache = TranslationCache(reference_cache_size)

    # -- transport -----------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: bytes | None = None,
                 headers: Mapping[str, str] | None = None
                 ) -> tuple[int, dict[str, str], bytes]:
        """One round trip, reusing the kept-alive connection.

        A request that fails on a *reused* connection is retried once on
        a fresh one (the server may have idled it out between checks);
        a failure on a fresh connection propagates.
        """
        send_headers = {"Host": self._host_header,
                        "Content-Type": "application/json",
                        **self.default_headers,
                        **(headers or {})}
        if body is not None:
            send_headers["Content-Length"] = str(len(body))
        message = framing.render_request(method, path, send_headers,
                                         body or b"")
        for attempt in (0, 1):
            fresh = self._connection is None
            if fresh:
                self._connection = framing.SocketConnection(
                    socket.create_connection((self._host, self._port),
                                             timeout=self.timeout))
            connection = self._connection
            try:
                connection.send(message)
                head = connection.read_head()
                if head is None:
                    raise ConnectionResetError(
                        "server closed the connection")
                response = framing.parse_response_head(head)
                payload = connection.read_body(response.content_length)
            except (framing.FramingError, OSError):
                self.close()
                if fresh or attempt:
                    raise
                self.retries += 1
                continue
            self.requests_sent += 1
            if not response.keep_alive:
                self.close()
            return response.status, response.headers, payload
        raise AssertionError("unreachable")

    def _call(self, method: str, path: str,
              payload: Mapping[str, Any] | None = None, *,
              retry_key: str | None = None) -> dict[str, Any]:
        """One protocol call; retried under the policy when *retry_key*
        marks it idempotent (the key also seeds the backoff jitter)."""
        body = protocol.encode(payload) if payload is not None else None

        def attempt() -> dict[str, Any]:
            status, _, raw = self._request(method, path, body)
            if status >= 400:
                raise protocol.error_from_http(status, raw)
            return protocol.decode(raw)

        if self.retry is None or retry_key is None:
            return attempt()
        return self.retry.run(attempt, key=retry_key,
                              on_retry=self._count_retry)

    def call(self, method: str, path: str,
             payload: Mapping[str, Any] | None = None, *,
             retry_key: str | None = None) -> dict[str, Any]:
        """One raw protocol call: encode, send, decode, raise on error.

        The cluster router and topology-aware clients forward already-
        decoded wire payloads through this without re-modeling them as
        dataclasses; *retry_key* marks the call idempotent and enables
        the agent's retry policy (installs must pass None).
        """
        return self._call(method, path, payload, retry_key=retry_key)

    def _count_retry(self, exc: BaseException, attempt: int) -> None:
        self.retries += 1

    def _next_check_key(self) -> str:
        """A fresh idempotency token; retries of the same logical check
        re-send the same token, distinct checks never collide."""
        self._check_counter += 1
        return f"{self._agent_id}-{self._check_counter:08x}"

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "HttpClientAgent":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- preference lifecycle ------------------------------------------------

    def register_preference(self) -> str:
        """POST the APPEL document; remember and return its hash."""
        if self.preference is None:
            raise ValueError("agent has no preference to register")
        # Registration is content-addressed, so retrying it is safe.
        response = protocol.RegisterPreferenceResponse.from_wire(
            self._call("POST", "/v1/preferences",
                       protocol.RegisterPreferenceRequest(
                           appel=serialize_ruleset(self.preference,
                                                   indent=False),
                       ).to_wire(),
                       retry_key=f"{self._agent_id}-register"))
        self.preference_hash = response.preference_hash
        return response.preference_hash

    def _ensure_registered(self) -> str:
        if self.preference_hash is None:
            return self.register_preference()
        return self.preference_hash

    def _with_reregistration(self, call):
        """Run *call(hash)*; on ``unknown-preference`` re-register once.

        This is the self-healing half of register-once: a restarted
        server (empty registry) or an evicting one only costs the agent
        one extra round trip, not an error surfaced to the caller.
        """
        digest = self._ensure_registered()
        try:
            return call(digest)
        except protocol.ProtocolError as exc:
            if exc.code != protocol.ERR_UNKNOWN_PREFERENCE or \
                    self.preference is None:
                raise
        self.reregistrations += 1
        return call(self.register_preference())

    # -- checking ------------------------------------------------------------

    def check(self, site: str, uri: str,
              cookie: bool = False) -> protocol.CheckResponse:
        """One decision for (site, uri) under the agent's preference.

        The check is stamped with a fresh ``check_key``; retries (shed
        load, dropped connection, lost response) re-send the same key,
        so the server logs the check at most once.
        """
        check_key = self._next_check_key()
        return self._with_reregistration(
            lambda digest: protocol.CheckResponse.from_wire(
                self._call("POST", "/v1/check",
                           protocol.CheckRequest(
                               site=site, uri=uri,
                               preference_hash=digest,
                               cookie=cookie,
                               check_key=check_key).to_wire(),
                           retry_key=check_key)))

    def check_batch(self, checks: Iterable[tuple[str, str]],
                    cookie: bool = False) -> list[protocol.CheckResponse]:
        """Decisions for many (site, uri) pairs, in request order.

        Every check in the batch carries its own ``check_key``, so a
        retried batch re-logs none of the rows the first attempt
        already durably recorded.
        """
        checks = tuple(checks)
        check_keys = tuple(self._next_check_key() for _ in checks)
        response = self._with_reregistration(
            lambda digest: protocol.BatchCheckResponse.from_wire(
                self._call("POST", "/v1/check-batch",
                           protocol.BatchCheckRequest(
                               preference_hash=digest,
                               checks=checks,
                               cookie=cookie,
                               check_keys=check_keys).to_wire(),
                           retry_key=check_keys[0] if check_keys
                           else None)))
        return list(response.results)

    def match_corpus(self) -> protocol.MatchCorpusResponse:
        """The whole corpus matched against the agent's preference.

        One round trip returns a decision for every installed policy;
        matching is read-only (any cache write-back on the server is
        idempotent), so transport retries are safe.
        """
        return self._with_reregistration(
            lambda digest: protocol.MatchCorpusResponse.from_wire(
                self._call("POST", "/v1/match",
                           protocol.MatchCorpusRequest(
                               preference_hash=digest).to_wire(),
                           retry_key=f"{self._agent_id}-match")))

    # -- site administration -------------------------------------------------

    def install_policy(self, policy: Policy | str,
                       site: str | None = None,
                       reference_file: str | None = None
                       ) -> protocol.InstallPolicyResponse:
        """Install a policy (optionally with its reference file)."""
        if isinstance(policy, Policy):
            policy = serialize_policy(policy)
        return protocol.InstallPolicyResponse.from_wire(
            self._call("POST", "/v1/policies",
                       protocol.InstallPolicyRequest(
                           policy=policy, site=site,
                           reference_file=reference_file).to_wire()))

    def fetch_reference_file(self, site: str) -> str:
        """GET /w3c/p3p.xml for *site*, revalidating the cached copy.

        A GET is idempotent, so transport failures retry under the
        agent's policy.
        """
        def attempt() -> str:
            headers = {}
            cached = self._reference_cache.get(site)
            if cached is not None:
                headers["If-None-Match"] = cached[0]
            status, response_headers, body = self._request(
                "GET", f"/w3c/p3p.xml?site={quote(site)}",
                headers=headers)
            if status == 304 and cached is not None:
                self.revalidations += 1
                return cached[1]
            if status >= 400:
                raise protocol.error_from_http(status, body)
            xml = body.decode("utf-8")
            etag = response_headers.get("etag")
            if etag is not None:
                self._reference_cache.put(site, (etag, xml))
            return xml

        if self.retry is None:
            return attempt()
        return self.retry.run(attempt, key=f"{self._agent_id}-ref",
                              on_retry=self._count_retry)

    # -- introspection -------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self._call("GET", "/healthz")

    def metrics(self) -> dict[str, Any]:
        return self._call("GET", "/metrics")

    def wait_until_healthy(self, timeout: float = 5.0,
                           interval: float = 0.05) -> bool:
        """Poll /healthz until the server answers or *timeout* passes."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                if self.health().get("status") == "ok":
                    return True
            except (protocol.ProtocolError, OSError):
                pass
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            # Clamp the final sleep: overshooting the deadline by a
            # full interval turns "poll for 5s" into "poll for 5s and
            # change", which callers budgeting startup time notice.
            time.sleep(min(interval, remaining))
