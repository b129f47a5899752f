"""The cluster front door and its supervisor.

:class:`ClusterRouter` is a thin HTTP proxy that makes N shards look
like one policy server — the request core of :mod:`repro.net.httpd` on
its threaded transport, with forwarding handlers:

* ``POST /v1/check`` / ``/v1/check-batch`` — routed by the consistent-
  hash owner of each check's ``site``; reads are served
  **replica-first** (round-robin) with primary fallback, and fail over
  between backends on transport errors or a crashed backend's
  ``internal-error``.  Checks are idempotent (client ``check_key``), so
  trying the next backend is always safe.
* ``POST /v1/policies`` — installs go to the owning shard's **primary
  only**, are never retried and never fail over (repeating an install
  creates a new version); an unreachable primary is answered with
  ``shard-unavailable`` + the *install-class* ``Retry-After``, which is
  deliberately longer than the check-class one — writers back off
  harder than readers.
* ``POST /v1/match`` — scatter-gathered across every shard (one read
  backend each, in parallel) and merged into a single corpus response,
  ordered by policy name.  Any shard failing fails the match: a
  partial corpus would be a wrong answer, not a degraded one.
* ``POST /v1/preferences`` — broadcast to **every** backend (replicas
  serve checks, so they need the registration too).  The router also
  remembers the APPEL text by hash (bounded LRU): when a restarted
  worker answers ``unknown-preference`` mid-check, the router
  re-registers and retries on that backend transparently — the same
  self-healing the client agent does, applied fleet-wide.
* ``GET /v1/topology`` — the serialized ring plus the current backend
  addresses, for topology-aware clients
  (:class:`repro.cluster.client.ClusterClient`) that want to skip the
  proxy hop.
* ``GET /metrics`` — every backend's ``/metrics`` gathered in parallel
  and nested under its shard, with cluster-level aggregates
  (``checks_served`` summed across the fleet) and the router's own
  counters.  Per-server ``server_id``/``pid`` (satellite of this PR)
  is what keeps the merged view attributable.

Every request the router forwards carries the shard-identity headers
(``X-P3P-Shard``, ``X-P3P-Topology-Version``), so a worker that is not
the shard the router thinks it is answers ``wrong-shard`` instead of a
wrong decision.

:class:`P3PCluster` owns the deployment: it derives per-worker
configs from a :class:`~repro.cluster.topology.Topology`, starts
primaries, then replicas, then the router; ``close()`` is the reverse,
gracefully.  ``in_process=True`` swaps process workers for thread
workers (same stack) so tests can reach into a worker's pool.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Mapping

from repro.net import protocol
from repro.net.admission import AdmissionController
from repro.net.client import HttpClientAgent
from repro.net.httpd import (
    RequestCore,
    Response,
    ThreadedTransport,
    json_response,
)
from repro.net.retry import TRANSPORT_ERRORS

from repro.cluster.topology import Topology
from repro.cluster.worker import (
    START_METHOD,
    InProcessWorker,
    ProcessWorker,
    WorkerConfig,
)

__all__ = ["ClusterRouter", "P3PCluster"]

#: Protocol codes a *read* may fail over on: the backend is broken or
#: saturated, and an idempotent check is safe to repeat elsewhere.
_READ_FAILOVER_CODES = frozenset({protocol.ERR_INTERNAL,
                                  protocol.ERR_OVERLOADED})

#: APPEL texts the router remembers (LRU) for backend re-registration.
PREFERENCE_MEMORY = 4096


class _RouterCounters:
    """Forwarding statistics the plain request counters cannot show."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.replica_reads = 0
        self.primary_reads = 0
        self.failovers = 0
        self.healed_preferences = 0
        self.broadcasts = 0

    def bump(self, name: str, count: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + count)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "replica_reads": self.replica_reads,
                "primary_reads": self.primary_reads,
                "failovers": self.failovers,
                "healed_preferences": self.healed_preferences,
                "preference_broadcasts": self.broadcasts,
            }


class ClusterRouter(RequestCore, ThreadedTransport):
    """The HTTP front door over a :class:`P3PCluster`'s workers: the
    shared request core on the threaded transport, with a route table
    whose handlers forward instead of serve.

    Admission ``Retry-After`` hints come from the cluster it fronts
    (``retry_after_check`` / ``retry_after_install``), so clients see
    the same back-off whether a worker or the router shed them.
    """

    ROUTES = {
        "/healthz": ("GET", None, "_healthz"),
        "/metrics": ("GET", None, "_metrics"),
        "/v1/topology": ("GET", None, "_topology"),
        "/v1/preferences": ("POST", None, "_register_preference"),
        "/v1/check": ("POST", "check", "_check"),
        "/v1/check-batch": ("POST", "check", "_check_batch"),
        "/v1/match": ("POST", "check", "_match_corpus"),
        "/v1/policies": ("POST", "install", "_install_policy"),
    }
    thread_name = "p3p-router"

    def __init__(self, cluster: "P3PCluster",
                 address: tuple[str, int] = ("127.0.0.1", 0), *,
                 max_inflight: int = 256,
                 max_body_bytes: int = 4 * 1024 * 1024,
                 backend_timeout: float = 15.0):
        super().__init__(
            address,
            AdmissionController(
                max_inflight, retry_after=cluster.retry_after_check,
                retry_after_by_class={
                    "check": cluster.retry_after_check,
                    "install": cluster.retry_after_install,
                }),
            max_body_bytes=max_body_bytes,
            server_id="router-" + os.urandom(8).hex())
        self.cluster = cluster
        self.counters = _RouterCounters()
        self.backend_timeout = backend_timeout
        self._local = threading.local()
        #: Every backend agent this router created, per handler thread,
        #: so ``_release`` can close their sockets.
        self._agents_lock = threading.Lock()
        self._agents: dict[threading.Thread,
                           dict[str, HttpClientAgent]] = {}
        self._rr_lock = threading.Lock()
        self._rr: dict[int, int] = {}
        #: hash -> APPEL text, for transparent backend re-registration.
        self._preference_lock = threading.Lock()
        self._preference_texts: OrderedDict[str, str] = OrderedDict()
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, 2 * cluster.topology.shards),
            thread_name_prefix="p3p-router")

    # -- backend agents ------------------------------------------------------

    def agent_for(self, url: str, shard: int) -> HttpClientAgent:
        """A kept-alive agent to *url*, cached per handler thread.

        Agents are not thread-safe, so the cache is thread-local —
        exactly the pool's reader-per-thread discipline one level up.
        Retries are off: the router *is* the retry layer here (it fails
        over between backends instead of hammering one).
        """
        agents: dict[str, HttpClientAgent] | None = getattr(
            self._local, "agents", None)
        if agents is None:
            agents = self._thread_agents()
        agent = agents.get(url)
        if agent is None:
            agent = HttpClientAgent(
                url, timeout=self.backend_timeout, retry=None,
                default_headers={
                    protocol.SHARD_HEADER: str(shard),
                    protocol.TOPOLOGY_HEADER:
                        str(self.cluster.topology.version),
                })
            stale: list[HttpClientAgent] = []
            with self._agents_lock:
                if len(agents) > 8 * (self.cluster.topology.shards
                                      * (1 + self.cluster.topology.replicas)):
                    # Restarted workers leave dead URLs behind; reset
                    # the thread's cache rather than growing it forever.
                    stale = list(agents.values())
                    agents.clear()
                agents[url] = agent
            for old in stale:
                old.close()
        return agent

    def _thread_agents(self) -> dict[str, HttpClientAgent]:
        """A new agent cache for this thread, registered so ``_release``
        can close it; closes the caches of handler threads that ended
        (each connection gets its own thread)."""
        agents: dict[str, HttpClientAgent] = {}
        self._local.agents = agents
        with self._agents_lock:
            ended = [thread for thread in self._agents
                     if not thread.is_alive()]
            stale = [agent for thread in ended
                     for agent in self._agents.pop(thread).values()]
            self._agents[threading.current_thread()] = agents
        for old in stale:
            old.close()
        return agents

    def _read_candidates(self, shard: int) -> list[tuple[str, str]]:
        """(url, role) to try for a read: replicas round-robin, then
        the primary as the fallback of last resort."""
        replicas = self.cluster.replica_urls(shard)
        if replicas:
            with self._rr_lock:
                offset = self._rr.get(shard, 0)
                self._rr[shard] = offset + 1
            replicas = (replicas[offset % len(replicas):]
                        + replicas[:offset % len(replicas)])
        candidates = [(url, "replica") for url in replicas]
        primary = self.cluster.primary_url(shard)
        if primary is not None:
            candidates.append((primary, "primary"))
        return candidates

    # -- preference memory ---------------------------------------------------

    def remember_preference(self, digest: str, appel: str) -> None:
        with self._preference_lock:
            self._preference_texts[digest] = appel
            self._preference_texts.move_to_end(digest)
            while len(self._preference_texts) > PREFERENCE_MEMORY:
                self._preference_texts.popitem(last=False)

    def _recall_preference(self, digest: str) -> str | None:
        with self._preference_lock:
            appel = self._preference_texts.get(digest)
            if appel is not None:
                self._preference_texts.move_to_end(digest)
            return appel

    def _heal_backend(self, agent: HttpClientAgent,
                      payload: Mapping[str, Any]) -> bool:
        """Re-register the payload's preference on *agent*'s backend.

        A restarted (or registry-evicting) worker forgot the hash; if
        the router remembers the APPEL text, one registration round
        trip heals the backend without the client ever noticing.
        """
        digest = payload.get("preference_hash")
        appel = self._recall_preference(digest) if digest else None
        if appel is None:
            return False
        try:
            agent.call("POST", "/v1/preferences", {"appel": appel},
                       retry_key=None)
        except (protocol.ProtocolError, *TRANSPORT_ERRORS):
            return False
        self.counters.bump("healed_preferences")
        return True

    # -- forwarding ----------------------------------------------------------

    def forward_read(self, shard: int, path: str,
                     payload: Mapping[str, Any], *,
                     retry_key: str | None = None) -> dict[str, Any]:
        """Forward an idempotent read to *shard*, failing over across
        its backends; ``shard-unavailable`` when every backend fails."""
        last_error: BaseException | None = None
        for url, role in self._read_candidates(shard):
            agent = self.agent_for(url, shard)
            for attempt in (0, 1):
                try:
                    result = agent.call("POST", path, payload,
                                        retry_key=retry_key)
                except protocol.ProtocolError as exc:
                    if (exc.code == protocol.ERR_UNKNOWN_PREFERENCE
                            and attempt == 0
                            and self._heal_backend(agent, payload)):
                        continue
                    if exc.code in _READ_FAILOVER_CODES:
                        last_error = exc
                        break          # next backend
                    raise
                except TRANSPORT_ERRORS as exc:
                    last_error = exc
                    break              # next backend
                self.counters.bump(f"{role}_reads")
                return result
            self.counters.bump("failovers")
        raise protocol.ProtocolError(
            protocol.ERR_SHARD_UNAVAILABLE,
            f"no backend of shard {shard} could serve the read "
            f"({type(last_error).__name__ if last_error else 'no backends'}"
            f"); retry shortly",
            retry_after=self.admission.retry_after_for("check"),
        )

    def forward_install(self, shard: int,
                        payload: Mapping[str, Any]) -> dict[str, Any]:
        """Forward an install to *shard*'s primary; no retry, no
        failover — repeating an install creates a new policy version."""
        url = self.cluster.primary_url(shard)
        if url is None:
            raise protocol.ProtocolError(
                protocol.ERR_SHARD_UNAVAILABLE,
                f"shard {shard} has no primary to install into",
                retry_after=self.admission.retry_after_for("install"),
            )
        agent = self.agent_for(url, shard)
        try:
            return agent.call("POST", "/v1/policies", payload,
                              retry_key=None)
        except TRANSPORT_ERRORS as exc:
            raise protocol.ProtocolError(
                protocol.ERR_SHARD_UNAVAILABLE,
                f"shard {shard} primary unreachable for install: "
                f"{type(exc).__name__}; retry after the supervisor "
                "restarts it",
                retry_after=self.admission.retry_after_for("install"),
            ) from exc

    def broadcast_preference(self,
                             payload: Mapping[str, Any]
                             ) -> dict[str, Any]:
        """Register a preference on every backend; merged receipt.

        Best-effort per backend: a down worker misses the broadcast but
        heals later (router re-registration, or the client's own).  At
        least one backend must succeed.
        """
        self.counters.bump("broadcasts")
        targets: list[tuple[str, int]] = []
        for shard in self.cluster.topology.shard_ids():
            primary = self.cluster.primary_url(shard)
            if primary is not None:
                targets.append((primary, shard))
            targets.extend((url, shard)
                           for url in self.cluster.replica_urls(shard))

        def register(target: tuple[str, int]) -> dict[str, Any]:
            url, shard = target
            return self.agent_for(url, shard).call(
                "POST", "/v1/preferences", payload, retry_key=None)

        responses: list[dict[str, Any]] = []
        last_error: BaseException | None = None
        for future in [self._executor.submit(register, target)
                       for target in targets]:
            try:
                responses.append(future.result())
            except (protocol.ProtocolError, *TRANSPORT_ERRORS) as exc:
                last_error = exc
        if not responses:
            if isinstance(last_error, protocol.ProtocolError):
                raise last_error
            raise protocol.ProtocolError(
                protocol.ERR_SHARD_UNAVAILABLE,
                "no backend accepted the preference registration",
                retry_after=self.admission.retry_after_for("check"),
            )
        digest = responses[0].get("preference_hash")
        appel = payload.get("appel")
        if isinstance(digest, str) and isinstance(appel, str):
            self.remember_preference(digest, appel)
        return {
            "v": protocol.PROTOCOL_VERSION,
            "preference_hash": digest,
            "rules": responses[0].get("rules"),
            "created": any(bool(r.get("created")) for r in responses),
            "backends": len(responses),
        }

    def scatter_match(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """POST /v1/match on every shard in parallel; merge by name.

        A failing shard must not silently shrink the corpus: its error
        becomes a per-shard entry under ``shard_errors`` and the merged
        response carries ``partial: true``, so a caller can tell "the
        corpus is this big" from "this is what the healthy shards
        know".  Only when *every* shard fails does the match itself
        fail (``shard-unavailable``).
        """
        shards = list(self.cluster.topology.shard_ids())
        futures = {
            shard: self._executor.submit(
                self.forward_read, shard, "/v1/match", payload,
                retry_key=f"{self.server_id}-match-{shard}")
            for shard in shards
        }
        merged: list[dict[str, Any]] = []
        shard_errors: dict[str, dict[str, str]] = {}
        cache_hits = cache_misses = 0
        elapsed = 0.0
        for shard in shards:
            try:
                response = futures[shard].result()
            except protocol.ProtocolError as exc:
                shard_errors[str(shard)] = {"code": exc.code,
                                            "message": str(exc)}
                continue
            except TRANSPORT_ERRORS as exc:
                shard_errors[str(shard)] = {
                    "code": protocol.ERR_SHARD_UNAVAILABLE,
                    "message": f"{type(exc).__name__}: {exc}",
                }
                continue
            # The decoded response is this call's own: tag in place.
            results = response.get("results", [])
            for entry in results:
                entry["shard"] = shard
            merged.extend(results)
            cache_hits += int(response.get("cache_hits", 0))
            cache_misses += int(response.get("cache_misses", 0))
            elapsed = max(elapsed,
                          float(response.get("elapsed_seconds", 0.0)))
        if shard_errors and len(shard_errors) == len(shards):
            raise protocol.ProtocolError(
                protocol.ERR_SHARD_UNAVAILABLE,
                "no shard answered the corpus match",
                retry_after=self.admission.retry_after_for("check"),
            )
        merged.sort(key=lambda entry: (entry.get("name") or "",
                                       entry.get("shard", -1),
                                       entry.get("policy_id", -1)))
        return {
            "v": protocol.PROTOCOL_VERSION,
            "results": merged,
            "cache_hits": cache_hits,
            "cache_misses": cache_misses,
            "elapsed_seconds": elapsed,
            "partial": bool(shard_errors),
            "shard_errors": shard_errors,
        }

    # -- introspection -------------------------------------------------------

    def topology_snapshot(self) -> dict[str, Any]:
        return {
            "v": protocol.PROTOCOL_VERSION,
            "topology": self.cluster.topology.to_wire(),
            "backends": self.cluster.backends_wire(),
        }

    def metrics_snapshot(self) -> dict[str, Any]:
        """Router counters plus every backend's metrics, aggregated."""
        targets: list[tuple[int, str, str]] = []
        for shard in self.cluster.topology.shard_ids():
            primary = self.cluster.primary_url(shard)
            if primary is not None:
                targets.append((shard, "primary", primary))
            for url in self.cluster.replica_urls(shard):
                targets.append((shard, "replica", url))

        def scrape(target: tuple[int, str, str]) -> dict[str, Any]:
            shard, _, url = target
            try:
                return self.agent_for(url, shard).metrics()
            except (protocol.ProtocolError, *TRANSPORT_ERRORS) as exc:
                return {"error": f"{type(exc).__name__}: {exc}"}

        scraped = list(self._executor.map(scrape, targets))
        shards: dict[str, dict[str, Any]] = {
            str(shard): {"primary": None, "replicas": []}
            for shard in self.cluster.topology.shard_ids()
        }
        checks_served = requests_total = 0
        for (shard, role, _), metrics in zip(targets, scraped):
            if role == "primary":
                shards[str(shard)]["primary"] = metrics
            else:
                shards[str(shard)]["replicas"].append(metrics)
            checks_served += int(metrics.get("checks_served", 0))
            requests_total += int(
                metrics.get("requests", {}).get("total", 0))
        return {
            "v": protocol.PROTOCOL_VERSION,
            "cluster": {
                "topology": self.cluster.topology.to_wire(),
                "router": {
                    "server_id": self.server_id,
                    "pid": os.getpid(),
                    "uptime_seconds":
                        time.monotonic() - self.started_monotonic,
                    **self.net_metrics.snapshot(),
                    "admission": self.admission.snapshot(),
                    "forwarding": self.counters.snapshot(),
                },
                "aggregate": {
                    "checks_served": checks_served,
                    "requests_total": requests_total,
                    "backends": len(targets),
                },
            },
            "shards": shards,
        }

    def health(self) -> dict[str, Any]:
        return {**super().health(), "role": "router",
                "shards": self.cluster.topology.shards}

    def _release(self) -> None:
        self._executor.shutdown(wait=False)
        with self._agents_lock:
            held = [agent for agents in self._agents.values()
                    for agent in agents.values()]
            self._agents.clear()
        for agent in held:
            agent.close()

    # -- forwarding handlers -------------------------------------------------

    async def _topology(self, body: bytes, query: dict,
                        headers: Mapping[str, str]) -> Response:
        return json_response(200, self.topology_snapshot())

    async def _register_preference(self, body: bytes, query: dict,
                                   headers: Mapping[str, str]) -> Response:
        payload = protocol.decode(body)
        protocol.RegisterPreferenceRequest.from_wire(payload)  # validate
        response = await self.run(lambda: self.broadcast_preference(payload))
        return json_response(201 if response.get("created") else 200,
                             response)

    async def _check(self, body: bytes, query: dict,
                     headers: Mapping[str, str]) -> Response:
        payload = protocol.decode(body)
        request = protocol.CheckRequest.from_wire(payload)
        shard = self.cluster.topology.owner_shard(request.site)
        response = await self.run(lambda: self.forward_read(
            shard, "/v1/check", payload, retry_key=request.check_key))
        self.net_metrics.checks(1)
        return json_response(200, response)

    async def _check_batch(self, body: bytes, query: dict,
                           headers: Mapping[str, str]) -> Response:
        payload = protocol.decode(body)
        request = protocol.BatchCheckRequest.from_wire(payload)
        results = await self.run(lambda: self._split_batch(request, payload))
        self.net_metrics.checks(len(results))
        return json_response(200, {"v": protocol.PROTOCOL_VERSION,
                                   "results": results})

    def _split_batch(self, request: protocol.BatchCheckRequest,
                     payload: Mapping[str, Any]) -> list[Any]:
        """Forward each shard's share of a batch in parallel; stitch the
        results back into request order."""
        topology = self.cluster.topology
        by_shard: dict[int, list[int]] = {}
        for index, (site, _) in enumerate(request.checks):
            by_shard.setdefault(topology.owner_shard(site), []).append(index)
        raw_checks = payload.get("checks", [])
        results: list[dict[str, Any] | None] = [None] * len(request.checks)

        def forward(shard: int, indexes: list[int]) -> None:
            sub = {
                "v": protocol.PROTOCOL_VERSION,
                "preference_hash": request.preference_hash,
                "cookie": request.cookie,
                "checks": [raw_checks[i] for i in indexes],
            }
            keys = request.check_keys
            response = self.forward_read(
                shard, "/v1/check-batch", sub,
                retry_key=(keys[indexes[0]] if keys else None))
            for position, index in enumerate(indexes):
                results[index] = response["results"][position]

        futures = [self._executor.submit(forward, shard, indexes)
                   for shard, indexes in by_shard.items()]
        for future in futures:
            future.result()
        return results

    async def _match_corpus(self, body: bytes, query: dict,
                            headers: Mapping[str, str]) -> Response:
        payload = protocol.decode(body)
        protocol.MatchCorpusRequest.from_wire(payload)  # validate
        response = await self.run(lambda: self.scatter_match(payload))
        self.net_metrics.checks(len(response["results"]))
        return json_response(200, response)

    async def _install_policy(self, body: bytes, query: dict,
                              headers: Mapping[str, str]) -> Response:
        payload = protocol.decode(body)
        request = protocol.InstallPolicyRequest.from_wire(payload)
        if request.site is None:
            raise protocol.ProtocolError(
                protocol.ERR_BAD_REQUEST,
                "cluster installs require a site: ownership is keyed "
                "by site, and a siteless policy has no shard",
            )
        shard = self.cluster.topology.owner_shard(request.site)
        return json_response(201, await self.run(
            lambda: self.forward_install(shard, payload)))


class P3PCluster:
    """A sharded, replicated deployment: workers plus a router.

    >>> cluster = P3PCluster(shards=2, replicas=1).start()
    >>> cluster.base_url                       # doctest: +SKIP
    'http://127.0.0.1:41725'
    >>> cluster.close()

    With ``in_process=True`` workers run on threads in this process
    (tests); otherwise each worker is a spawned OS process.  *db_dir*
    holds one SQLite file per worker (``shard-N.db``,
    ``shard-N-replica-M.db``); omitted, a temporary directory is
    created and removed on :meth:`close`.
    """

    def __init__(self, shards: int = 2, replicas: int = 0, *,
                 topology: Topology | None = None,
                 db_dir: str | None = None,
                 in_process: bool = False,
                 start_method: str = START_METHOD,
                 host: str = "127.0.0.1",
                 router_port: int = 0,
                 max_inflight: int = 64,
                 router_max_inflight: int = 256,
                 retry_after_check: float = 0.5,
                 retry_after_install: float = 2.0,
                 refresh_interval: float = 0.25,
                 audit_plans: bool = False,
                 frontend: str = "threaded"):
        self.topology = topology if topology is not None else \
            Topology(shards=shards, replicas=replicas)
        self._owned_tmpdir: tempfile.TemporaryDirectory | None = None
        if db_dir is None:
            self._owned_tmpdir = tempfile.TemporaryDirectory(
                prefix="p3p-cluster-")
            db_dir = self._owned_tmpdir.name
        os.makedirs(db_dir, exist_ok=True)
        self.db_dir = db_dir
        self.in_process = in_process
        self.start_method = start_method
        self.host = host
        self.router_port = router_port
        self.router_max_inflight = router_max_inflight
        #: Admission back-off hints, advertised by workers and router.
        self.retry_after_check = retry_after_check
        self.retry_after_install = retry_after_install
        self.router: ClusterRouter | None = None
        self._router_thread: threading.Thread | None = None
        worker_options = dict(
            topology_version=self.topology.version,
            host=host,
            max_inflight=max_inflight,
            retry_after_check=retry_after_check,
            retry_after_install=retry_after_install,
            refresh_interval=refresh_interval,
            audit_plans=audit_plans,
            frontend=frontend,
        )
        self.primaries: list[Any] = []
        self.replicas: dict[int, list[Any]] = {}
        for shard in self.topology.shard_ids():
            primary_path = os.path.join(db_dir, f"shard-{shard}.db")
            self.primaries.append(self._make_worker(WorkerConfig(
                shard_id=shard, role="primary", db_path=primary_path,
                **worker_options)))
            self.replicas[shard] = [
                self._make_worker(WorkerConfig(
                    shard_id=shard, role="replica",
                    db_path=os.path.join(
                        db_dir, f"shard-{shard}-replica-{index}.db"),
                    primary_path=primary_path,
                    **worker_options))
                for index in range(self.topology.replicas)
            ]

    def _make_worker(self, config: WorkerConfig):
        if self.in_process:
            return InProcessWorker(config)
        return ProcessWorker(config, start_method=self.start_method)

    # -- lifecycle -----------------------------------------------------------

    def start(self, timeout: float = 60.0) -> "P3PCluster":
        """Primaries (in parallel), then replicas, then the router."""
        try:
            with ThreadPoolExecutor(
                    max_workers=max(1, len(self.primaries))) as pool:
                list(pool.map(lambda w: w.start(timeout=timeout),
                              self.primaries))
            all_replicas = [worker for workers in self.replicas.values()
                            for worker in workers]
            if all_replicas:
                with ThreadPoolExecutor(
                        max_workers=len(all_replicas)) as pool:
                    list(pool.map(lambda w: w.start(timeout=timeout),
                                  all_replicas))
            self.router = ClusterRouter(
                self, (self.host, self.router_port),
                max_inflight=self.router_max_inflight)
            self._router_thread = self.router.run_in_thread()
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        """Router first (no new traffic), then workers, gracefully."""
        if self.router is not None:
            self.router.close()
            if self._router_thread is not None:
                self._router_thread.join(5.0)
            self.router = None
            self._router_thread = None
        workers = [w for workers in self.replicas.values()
                   for w in workers] + list(self.primaries)
        live = [w for w in workers if w.is_alive()]
        if live:
            with ThreadPoolExecutor(max_workers=len(live)) as pool:
                list(pool.map(lambda w: w.terminate(), live))
        if self._owned_tmpdir is not None:
            self._owned_tmpdir.cleanup()
            self._owned_tmpdir = None

    def __enter__(self) -> "P3PCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- addressing ----------------------------------------------------------

    @property
    def base_url(self) -> str:
        if self.router is None:
            raise RuntimeError("cluster is not started")
        return self.router.base_url

    def primary(self, shard: int):
        return self.primaries[shard]

    def primary_url(self, shard: int) -> str | None:
        worker = self.primaries[shard]
        return worker.base_url if worker.is_alive() else None

    def replica_urls(self, shard: int) -> list[str]:
        return [worker.base_url
                for worker in self.replicas.get(shard, [])
                if worker.is_alive() and worker.base_url is not None]

    def backends_wire(self) -> dict[str, Any]:
        return {
            str(shard): {
                "primary": self.primary_url(shard),
                "replicas": self.replica_urls(shard),
            }
            for shard in self.topology.shard_ids()
        }

    # -- supervision ---------------------------------------------------------

    def restart_primary(self, shard: int, timeout: float = 30.0):
        """Bring shard *shard*'s primary back (fresh process/stack over
        the same database file; WAL recovery runs on open)."""
        worker = self.primaries[shard]
        worker.restart(timeout=timeout)
        return worker

    def kill_primary(self, shard: int) -> None:
        """Crash the shard primary (SIGKILL / abandoned socket)."""
        self.primaries[shard].kill()

    def owner_shard(self, site: str) -> int:
        return self.topology.owner_shard(site)
