"""Freshness under racing installs: every check is served from a version
that was active while it ran.

Policy evolution is an UPDATE on the server (Sec. 4.2) and there is no
client cache to expire, so a check must see an install or a rollback as
soon as it commits.  Checker threads race one writer that installs new
versions and rolls them back on several sites of a disk store; the
writer records when each commit started and ended.  Every served
``policy_id`` must be a version of its site that was active at some
instant between its check's start and end, and its decision must be
the native engine's on that version.  The URIs repeat, so a resolution
remembered across an install would be served again, and caught.  Runs
in process and over both HTTP front ends.
"""

from __future__ import annotations

import contextlib
import math
import random
import threading
import time
from dataclasses import replace

import pytest

from repro.appel.engine import AppelEngine
from repro.corpus.policies import fortune_corpus
from repro.corpus.preferences import jrc_suite
from repro.net.aio import serve_async
from repro.net.client import HttpClientAgent
from repro.net.httpd import serve
from repro.server.policy_server import PolicyServer

SITES = [f"www.site{index}.example.com" for index in range(4)]
URIS = ("/", "/catalog/item-1", "/account/login")
CHECKERS = 4
#: Writer steps; every third one on a site is a rollback.
WRITES = 24
PREFERENCES = jrc_suite()

REFERENCE = """\
<META xmlns="http://www.w3.org/2002/01/P3Pv1">
  <POLICY-REFERENCES>
    <POLICY-REF about="/w3c/policy.xml#{name}">
      <INCLUDE>/*</INCLUDE>
    </POLICY-REF>
  </POLICY-REFERENCES>
</META>
"""


def policy_name(site: str) -> str:
    return site.split(".")[1]


@contextlib.contextmanager
def deployment(kind: str, path: str):
    """Yield the :class:`PolicyServer` and a ``check(site, uri, level)
    -> (policy_id, behavior, rule_index)`` usable from any thread."""
    if kind == "in-process":
        with PolicyServer(path) as server:
            def check(site, uri, level):
                result = server.check(site, uri, PREFERENCES[level])
                return result.policy_id, result.behavior, result.rule_index

            yield server, check
        return
    front = (serve if kind == "threaded" else serve_async)(path)
    thread = front.run_in_thread()
    local = threading.local()
    agents: list[HttpClientAgent] = []
    lock = threading.Lock()

    def check(site, uri, level):
        # One kept-alive agent per (thread, preference).
        mine = getattr(local, "agents", None)
        if mine is None:
            mine = local.agents = {}
        agent = mine.get(level)
        if agent is None:
            agent = mine[level] = HttpClientAgent(front.base_url,
                                                  PREFERENCES[level])
            with lock:
                agents.append(agent)
        response = agent.check(site, uri)
        return response.policy_id, response.behavior, response.rule_index

    try:
        yield front.policy_server, check
    finally:
        for agent in agents:
            agent.close()
        front.close()
        thread.join(timeout=5)


@pytest.mark.parametrize("kind", ["in-process", "threaded", "async"])
def test_checks_are_served_from_a_version_active_while_they_ran(
        kind, tmp_path):
    corpus = fortune_corpus(count=12)
    contents = {}           # policy_id -> Policy
    # site -> [(policy_id, active from, active until)], in commit order.
    timeline: dict[str, list[list]] = {}
    observed: list[tuple] = []
    errors: list[BaseException] = []
    done = threading.Event()

    with deployment(kind, str(tmp_path / "fresh.db")) as (server, check):
        for index, site in enumerate(SITES):
            policy = replace(corpus[index], name=policy_name(site))
            report, _ = server.install_with_reference(
                policy, REFERENCE.format(name=policy.name), site)
            contents[report.policy_id] = policy
            timeline[site] = [[report.policy_id, -math.inf, math.inf]]
        if kind == "in-process":
            for preference in PREFERENCES.values():
                server.register_preference(preference)

        def checker(seed: int) -> None:
            rng = random.Random(seed)
            try:
                while not done.is_set():
                    site, uri = rng.choice(SITES), rng.choice(URIS)
                    level = rng.choice(sorted(PREFERENCES))
                    start = time.perf_counter()
                    served = check(site, uri, level)
                    observed.append((site, level, *served, start,
                                     time.perf_counter()))
            except BaseException as exc:     # noqa: BLE001 — reported
                errors.append(exc)

        def writer() -> None:
            try:
                for step in range(WRITES):
                    site = SITES[step % len(SITES)]
                    name = policy_name(site)
                    time.sleep(0.01)      # let checks run in between
                    start = time.perf_counter()
                    if step // len(SITES) % 3 == 2:
                        policy_id = server.rollback_policy(name, site)
                    else:
                        policy = replace(
                            corpus[(step + len(SITES)) % len(corpus)],
                            name=name)
                        policy_id = server.install_policy(
                            policy, site=site).policy_id
                        contents[policy_id] = policy
                    end = time.perf_counter()
                    timeline[site][-1][2] = end
                    timeline[site].append([policy_id, start, math.inf])
            except BaseException as exc:     # noqa: BLE001 — reported
                errors.append(exc)
            finally:
                done.set()

        threads = [threading.Thread(target=checker, args=(seed,))
                   for seed in range(CHECKERS)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    assert errors == []

    native = AppelEngine()
    verdicts: dict[tuple, tuple] = {}
    assert len(observed) > WRITES
    for site, level, policy_id, behavior, rule_index, start, end in observed:
        windows = [(since, until) for served, since, until
                   in timeline[site] if served == policy_id]
        assert windows, (site, policy_id, "not a version of this site")
        assert any(since <= end and until >= start
                   for since, until in windows), (
            site, policy_id, "not active while the check ran", start, end,
            timeline[site])
        key = (policy_id, level)
        if key not in verdicts:
            verdict = native.evaluate(contents[policy_id],
                                      PREFERENCES[level])
            verdicts[key] = (verdict.behavior, verdict.rule_index)
        assert (behavior, rule_index) == verdicts[key], (site, level,
                                                         policy_id)
