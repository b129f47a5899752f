"""The three workloads, the surfaces they drive and the loops that drive
them.

``warm_browse``
    The threaded HTTP front end over 300 sites.  Six users (the five JRC
    levels and Jane) are registered in set-up, so every decision is
    already in the decision cache: reference resolution, the cache probe,
    the check log and the wire do the work, the plan layer none.
``new_users``
    The cluster router over two async shards, 100 sites.  Each session
    registers a preference drawn Zipf from a 2000-preference population
    (broadcast to both shards) and then makes eight checks: APPEL parsing,
    validation, bulk compilation and decision-cache population run here,
    and it is the only workload that crosses the router.
``policy_churn``
    The in-process library on a WAL file, the paper-sized 29-policy
    corpus.  A closed loop mixes checks by never-registered users with
    installs of edited policy versions and corpus matches, so writes run
    beside reads and checks take the cache-miss path.

All load comes from this one process, on the main thread, with one
kept-alive connection over which preferences travel by hash: on a
2-vCPU host a second generator thread, beside the front end's own
threads, made latencies measure the scheduler.  Between operations,
while no request is in flight, the loop takes calibration samples
(``perfbench/calibration.py``).
After the measured window a short probe phase times the operation types
the workload's own mix lacks (registrations, installs, corpus matches),
on the same store, so every end-to-end metric exists on every workload.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import repro.p3p.parser
from repro.cluster.router import P3PCluster
from repro.net import protocol
from repro.net.client import HttpClientAgent
from repro.net.httpd import serve
from repro.server.policy_server import PolicyServer

from perfbench.calibration import Calibrator
from perfbench.checks import CheckRecord, Ledger, MatchRecord, RegisterRecord
from perfbench.inputs import (
    ChurnMix, Preference, Site, Zipf, browsing_preferences, draw_uri,
    make_sites, preference_population, wire_bytes,
)
from perfbench.tracer import Tracer, clock

#: Traced runs alternate untraced and traced slices of this length, so
#: the overhead of tracing is measured against the same store.
SLICE_SECONDS = 0.5
#: Checks per new_users session after its registration.
SESSION_CHECKS = 8
#: Zipf exponent of new_users' user popularity.  With it about three in
#: four of a window's registrations are first-time; at 1.0 the share
#: sits near one half, and the median registration flips between the
#: first-time and the returning latency from run to run.
USER_ZIPF = 0.7


# -- surfaces --------------------------------------------------------------


class Surface:
    """One public entry point of the program, with the ledger of what it
    acknowledged.  Operation methods record into the ledger and return
    the request bytes the server accepted."""

    def __init__(self, sites: list[Site]):
        self.sites = sites
        self.ledger = Ledger()
        self.registered: dict[str, Preference] = {}
        self.work_dir = ""

    def shard_of(self, host: str) -> int:
        return 0

    def note_registered(self, preference: Preference) -> bool:
        """Mark *preference* registered; True when it was new."""
        new = preference.digest not in self.registered
        self.registered.setdefault(preference.digest, preference)
        return new

    def is_registered(self, preference: Preference) -> bool:
        return preference.digest in self.registered

    def registered_list(self) -> list[Preference]:
        return list(self.registered.values())

    def close_client(self, client) -> None:
        pass

    def db_files(self) -> list[str]:
        return [os.path.join(self.work_dir, name)
                for name in sorted(os.listdir(self.work_dir))]


class HttpSurface(Surface):
    """Shared by the threaded front end and the cluster router: both
    speak the v1 protocol, so one client path drives either."""

    base_url = ""

    def client(self) -> HttpClientAgent:
        return HttpClientAgent(self.base_url)

    def close_client(self, client: HttpClientAgent) -> None:
        client.close()

    def check(self, agent: HttpClientAgent, preference: Preference,
              site: Site, uri: str, key: str) -> int:
        payload = protocol.CheckRequest(
            site=site.host, uri=uri, preference_hash=preference.digest,
            check_key=key).to_wire()
        response = protocol.CheckResponse.from_wire(
            agent.call("POST", "/v1/check", payload, retry_key=key))
        self.ledger.add(CheckRecord(
            preference.appel, site.host, uri, key, self.shard_of(site.host),
            response.policy_id, response.behavior, response.rule_index))
        return wire_bytes(payload)

    def register(self, agent: HttpClientAgent,
                 preference: Preference) -> int:
        payload = protocol.RegisterPreferenceRequest(
            appel=preference.appel).to_wire()
        start = clock()
        response = agent.call("POST", "/v1/preferences", payload,
                              retry_key=f"register-{preference.digest}")
        self.ledger.add(RegisterRecord(
            preference.digest, str(response.get("preference_hash")),
            bool(response.get("created")), start, clock()))
        self.note_registered(preference)
        return wire_bytes(payload)

    def install(self, agent: HttpClientAgent, site: Site, xml: str) -> int:
        payload = protocol.InstallPolicyRequest(
            policy=xml, site=site.host,
            reference_file=site.reference_xml).to_wire()
        # Installs are never retried: a repeat is a new version.
        response = agent.call("POST", "/v1/policies", payload)
        self.ledger.installed(site.host, self.shard_of(site.host),
                              int(response["policy_id"]), xml)
        return wire_bytes(payload)

    def match(self, agent: HttpClientAgent, preference: Preference) -> int:
        payload = protocol.MatchCorpusRequest(
            preference_hash=preference.digest).to_wire()
        response = agent.call("POST", "/v1/match", payload,
                              retry_key=f"match-{preference.digest}")
        self.ledger.add(MatchRecord(preference.appel, tuple(
            (int(entry.get("shard", 0)), entry["policy_id"], entry["name"],
             entry["behavior"], entry["rule_index"])
            for entry in response["results"])))
        return wire_bytes(payload)


class ThreadedSurface(HttpSurface):
    """``repro.net.httpd.serve`` on a thread: the threaded front end."""

    def start(self, work_dir: str) -> None:
        self.work_dir = work_dir
        self.db_path = os.path.join(work_dir, "store.db")
        self.httpd = serve(self.db_path)
        self._thread = self.httpd.run_in_thread()
        self.base_url = self.httpd.base_url

    def policy_servers(self) -> list[PolicyServer]:
        return [self.httpd.policy_server]

    def front_ends(self) -> list:
        return [self.httpd]

    def log_dbs(self) -> list[str]:
        return [self.db_path]

    def db_for_host(self, host: str) -> str:
        return self.db_path

    def close(self) -> None:
        self.httpd.close()
        self._thread.join(10)


class ClusterSurface(HttpSurface):
    """Two async shards behind the cluster router, workers on threads."""

    SHARDS = 2

    def start(self, work_dir: str) -> None:
        self.work_dir = work_dir
        self.cluster = P3PCluster(shards=self.SHARDS, replicas=0,
                                  in_process=True, frontend="async",
                                  db_dir=work_dir).start()
        self.base_url = self.cluster.base_url

    def shard_of(self, host: str) -> int:
        return self.cluster.owner_shard(host)

    def policy_servers(self) -> list[PolicyServer]:
        return [worker.policy_server for worker in self.cluster.primaries]

    def front_ends(self) -> list:
        return [self.cluster.router] + [worker.httpd for worker
                                        in self.cluster.primaries]

    def log_dbs(self) -> list[str]:
        return [os.path.join(self.work_dir, f"shard-{shard}.db")
                for shard in range(self.SHARDS)]

    def db_for_host(self, host: str) -> str:
        return os.path.join(self.work_dir,
                            f"shard-{self.shard_of(host)}.db")

    def close(self) -> None:
        self.cluster.close()


class LibrarySurface(Surface):
    """``PolicyServer`` on a WAL file, called in process: no wire.  The
    request bytes are counted as the v1 requests the calls stand for,
    with each preference's text counted once, on first use."""

    def start(self, work_dir: str) -> None:
        self.work_dir = work_dir
        self.db_path = os.path.join(work_dir, "store.db")
        self.server = PolicyServer(self.db_path)

    def client(self) -> PolicyServer:
        return self.server

    def _preference_bytes(self, preference: Preference) -> int:
        if not self.note_registered(preference):
            return 0
        return wire_bytes(protocol.RegisterPreferenceRequest(
            appel=preference.appel).to_wire())

    def check(self, server: PolicyServer, preference: Preference,
              site: Site, uri: str, key: str) -> int:
        result = server.check(site.host, uri, preference.ruleset,
                              check_key=key)
        self.ledger.add(CheckRecord(
            preference.appel, site.host, uri, key, 0, result.policy_id,
            result.behavior, result.rule_index))
        return self._preference_bytes(preference) + wire_bytes(
            protocol.CheckRequest(site=site.host, uri=uri,
                                  preference_hash=preference.digest,
                                  check_key=key).to_wire())

    def register(self, server: PolicyServer,
                 preference: Preference) -> int:
        rows = server.register_preference(preference.ruleset)
        self.ledger.materialized.append((rows, len(self.sites)))
        return self._preference_bytes(preference)

    def install(self, server: PolicyServer, site: Site, xml: str) -> int:
        # Looked up through the module at call time, so the tracer's
        # wrapper sees the parse.
        policy = repro.p3p.parser.parse_policy(xml)
        report = server.install_policy(policy, site=site.host)
        server.install_reference_file(site.reference_xml, site.host)
        self.ledger.installed(site.host, 0, report.policy_id, xml)
        return wire_bytes(protocol.InstallPolicyRequest(
            policy=xml, site=site.host,
            reference_file=site.reference_xml).to_wire())

    def match(self, server: PolicyServer, preference: Preference) -> int:
        result = server.match_all(preference.ruleset)
        self.ledger.add(MatchRecord(preference.appel, tuple(
            (0, decision.policy_id, decision.name, decision.behavior,
             decision.rule_index) for decision in result.decisions)))
        return self._preference_bytes(preference) + wire_bytes(
            protocol.MatchCorpusRequest(
                preference_hash=preference.digest).to_wire())

    def policy_servers(self) -> list[PolicyServer]:
        return [self.server]

    def front_ends(self) -> list:
        return []

    def log_dbs(self) -> list[str]:
        return [self.db_path]

    def db_for_host(self, host: str) -> str:
        return self.db_path

    def close(self) -> None:
        self.server.close()


# -- measurement -----------------------------------------------------------


@dataclass
class Stats:
    """The load generator's observations."""

    #: (kind, latency seconds, traced, start, CPU seconds of the whole
    #: process in that time) per completed operation.
    samples: list[tuple[str, float, bool, float, float]] = field(
        default_factory=list)
    errors: Counter = field(default_factory=Counter)
    attempted: int = 0
    accepted_bytes: int = 0
    #: Seconds spent in calibration samples.
    calibrating: float = 0.0
    registrations: int = 0
    first_time: int = 0
    checks: int = 0
    uncovered: int = 0
    sites: set = field(default_factory=set)
    uris: set = field(default_factory=set)
    preferences: set = field(default_factory=set)

    def latencies(self, kind: str, traced: bool | None = None
                  ) -> list[float]:
        return [latency for k, latency, t, _, _ in self.samples
                if k == kind and (traced is None or t == traced)]


class LoadGen:
    """Runs timed operations against a surface, and calibration samples
    between them."""

    def __init__(self, surface: Surface, tracer: Tracer | None,
                 calibrator: Calibrator):
        self.surface = surface
        self.tracer = tracer
        self.calibrator = calibrator

    def run(self, stats: Stats, kind: str, call: Callable[[], int], *,
            request: str | None = None) -> bool:
        """Time one operation.  Failures are counted, never raised."""
        tracer = self.tracer
        frame = None
        if tracer is not None and tracer.installed:
            tracer.set_request(request)
            frame = tracer.enter(f"op.{kind}", request)
        stats.attempted += 1
        cpu = time.process_time()
        start = clock()
        try:
            accepted = call()
        except Exception as exc:     # noqa: BLE001 — counted as failed
            code = getattr(exc, "code", None) or type(exc).__name__
            stats.errors[f"{kind}:{code}"] += 1
            return False
        finally:
            end = clock()
            cpu = time.process_time() - cpu
            if frame is not None:
                tracer.exit(frame)
                tracer.set_request(None)
        stats.accepted_bytes += accepted
        stats.samples.append((kind, end - start, frame is not None, start,
                              cpu))
        return True

    def check(self, stats: Stats, client, preference: Preference,
              site: Site, uri: str, key: str) -> None:
        if self.run(stats, "check", lambda: self.surface.check(
                client, preference, site, uri, key),
                request=key):
            stats.checks += 1
            stats.uncovered += not site.covers(uri)
            stats.sites.add(site.host)
            stats.uris.add((site.host, uri))
            stats.preferences.add(preference.digest)

    def register(self, stats: Stats, client, preference: Preference
                 ) -> None:
        first = not self.surface.is_registered(preference)
        if self.run(stats, "register", lambda: self.surface.register(
                client, preference), request=f"register-{preference.index}"):
            stats.registrations += 1
            stats.first_time += first
            stats.preferences.add(preference.digest)


def closed_loop(load: LoadGen, seconds: float,
                body: Callable[[Stats, object, random.Random,
                                Callable[[], str], float], None],
                seed: int) -> tuple[Stats, float, object]:
    """Run *body(stats, client, rng, next_key, deadline)*, one step of
    the closed loop, until the window ends; returns the stats, the
    window's seconds and the client.  Between steps the loop takes
    calibration samples and, in a traced run, switches between untraced
    and traced slices of SLICE_SECONDS, starting untraced."""
    client = load.surface.client()
    tracer = load.tracer
    stats = Stats()
    rng = random.Random(f"{seed}-loop")
    numbers = itertools.count(1)

    def next_key() -> str:
        return f"k{next(numbers):07d}"

    start = clock()
    deadline = start + seconds
    switch = start + SLICE_SECONDS
    while (now := clock()) < deadline:
        if tracer is not None and now >= switch:
            if tracer.installed:
                tracer.uninstall()
            else:
                tracer.install()
            switch = now + SLICE_SECONDS
        body(stats, client, rng, next_key, deadline)
        stats.calibrating += load.calibrator.maybe()
    if tracer is not None:
        tracer.uninstall()
    return stats, clock() - start, client


# -- workloads -------------------------------------------------------------


@dataclass
class Workload:
    name: str
    surface: Callable[[list[Site]], Surface]
    sites: Callable[[], list[Site]]
    #: Set-ups per run; the reported set-up time is their median.
    setups: int
    #: Operations per probe kind run after the window (the kinds the
    #: mix lacks), each phase a second or more on this host.  Installs
    #: make one pass over the sites: a second install of a site finds
    #: no cached decisions left to invalidate and is several times
    #: cheaper, which would split their median.
    probes: dict[str, int]

    def setup_preferences(self) -> list[Preference]:
        return []


class WarmBrowse(Workload):
    def setup_preferences(self) -> list[Preference]:
        return browsing_preferences()

    def window(self, load: LoadGen, inputs: dict, seconds: float,
               seed: int):
        users = inputs["setup_preferences"]
        sites = Zipf(inputs["sites"], random.Random(f"sites-{seed}"))

        def step(stats, client, rng, next_key, deadline):
            load.check(stats, client, rng.choice(users), sites.draw(rng),
                         draw_uri(rng), next_key())

        return closed_loop(load, seconds, step, seed)


class NewUsers(Workload):
    def window(self, load: LoadGen, inputs: dict, seconds: float,
               seed: int):
        population = inputs["population"]
        users = Zipf(population, random.Random(f"users-{seed}"),
                     s=USER_ZIPF)
        sites = Zipf(inputs["sites"], random.Random(f"sites-{seed}"))

        def session(stats, client, rng, next_key, deadline):
            preference = users.draw(rng)
            load.register(stats, client, preference)
            for _ in range(SESSION_CHECKS):
                if clock() >= deadline:
                    break
                load.check(stats, client, preference, sites.draw(rng),
                             draw_uri(rng), next_key())

        return closed_loop(load, seconds, session, seed)


class PolicyChurn(Workload):
    def window(self, load: LoadGen, inputs: dict, seconds: float,
               seed: int):
        surface = load.surface
        mix = ChurnMix(inputs["sites"], inputs["population"],
                       random.Random(f"churn-{seed}"))

        def step(stats, server, rng, next_key, deadline):
            op = mix.draw(rng)
            if op.kind == "check":
                load.check(stats, server, op.preference, op.site, op.uri,
                           next_key())
            elif op.kind == "install":
                load.run(stats, "install", lambda: surface.install(
                    server, op.site, op.site.edits[op.edit]))
            else:
                load.run(stats, "match", lambda: surface.match(
                    server, op.preference))
                stats.preferences.add(op.preference.digest)

        return closed_loop(load, seconds, step, seed)


WORKLOADS: dict[str, Workload] = {
    "warm_browse": WarmBrowse(
        name="warm_browse",
        surface=ThreadedSurface,
        sites=lambda: make_sites(300, edit_versions=1),
        setups=4,
        probes={"match": 300, "register": 300, "install": 300},
    ),
    "new_users": NewUsers(
        name="new_users",
        surface=ClusterSurface,
        sites=lambda: make_sites(100, edit_versions=1),
        setups=6,
        probes={"match": 600, "install": 100},
    ),
    "policy_churn": PolicyChurn(
        name="policy_churn",
        surface=LibrarySurface,
        sites=lambda: make_sites(None, edit_versions=4),
        setups=10,
        probes={"register": 1000},
    ),
}


def build_inputs(workload: Workload, seed: int) -> dict:
    return {
        "sites": workload.sites(),
        "population": preference_population(seed),
        "setup_preferences": workload.setup_preferences(),
    }


def set_up(workload: Workload, inputs: dict, work_dir: str,
           calibrator: Calibrator
           ) -> tuple[Surface, list[tuple[float, float, float]], int]:
    """Build the store and start the front end, with calibration samples
    between the steps; returns the surface, ``(start, seconds, process
    CPU seconds)`` per step and the request bytes accepted."""
    steps: list[tuple[float, float, float]] = []

    def step(call: Callable[[], object]):
        cpu = time.process_time()
        start = clock()
        result = call()
        steps.append((start, clock() - start, time.process_time() - cpu))
        calibrator.maybe()
        return result

    surface = workload.surface(inputs["sites"])
    step(lambda: surface.start(work_dir))
    admin = step(surface.client)
    accepted = 0
    for site in inputs["sites"]:
        accepted += step(lambda: surface.install(admin, site,
                                                 site.policy_xml))
    for preference in inputs["setup_preferences"]:
        accepted += step(lambda: surface.register(admin, preference))
    surface.close_client(admin)
    return surface, steps, accepted


def run_probes(workload: Workload, surface: Surface, inputs: dict,
               seed: int, calibrator: Calibrator) -> Stats:
    """The kinds the window's mix lacks, one operation at a time,
    untraced, in this order: corpus matches (on the cache the window
    left), installs (which invalidate the registered users' decisions),
    first-time registrations (last, so that how many there are moves
    neither of the others).  Matches and installs cycle through every
    registered user and every site, so which ones a seed draws does not
    move their median."""
    rng = random.Random(f"probe-{seed}")
    load = LoadGen(surface, None, calibrator)
    client = surface.client()
    stats = Stats()
    users = surface.registered_list()
    rng.shuffle(users)
    for index in range(workload.probes.get("match", 0)):
        preference = users[index % len(users)]
        load.run(stats, "match", lambda: surface.match(client,
                                                         preference))
        stats.calibrating += calibrator.maybe()
    sites = list(inputs["sites"])
    rng.shuffle(sites)
    for index in range(workload.probes.get("install", 0)):
        site = sites[index % len(sites)]
        xml = site.edits[rng.randrange(len(site.edits))]
        load.run(stats, "install", lambda: surface.install(client, site,
                                                             xml))
        stats.calibrating += calibrator.maybe()
    fresh = [preference for preference in inputs["population"]
             if not surface.is_registered(preference)]
    for preference in rng.sample(fresh, min(
            workload.probes.get("register", 0), len(fresh))):
        load.register(stats, client, preference)
        stats.calibrating += calibrator.maybe()
    surface.close_client(client)
    return stats
