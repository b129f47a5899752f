"""The ``/v1/match`` document is the native engine's, byte for byte.

A corpus match answers with one entry per active policy, encoded from
the server's ``MatchDecision`` records with no protocol object per
entry.  For the threaded front end, the async front end and the cluster
router this checks, for every JRC level and Jane:

* the decoded document, ``elapsed_seconds`` aside, equals one built
  from :class:`~repro.appel.engine.AppelEngine` over the corpus — with
  every decision cached, after installs supersede versions (their
  misses are repaired at match time), and with the decision cache off;
* the raw body is ``json.dumps(decoded, sort_keys=True)``: the key order
  and separators every front end has always written;
* answering builds no :class:`~repro.net.protocol.MatchCorpusEntry`.
"""

from __future__ import annotations

import contextlib
import json

import pytest

from repro.appel.engine import AppelEngine
from repro.bench.harness import cluster_corpus
from repro.cluster import P3PCluster
from repro.corpus.preferences import jrc_suite
from repro.corpus.volga import jane_preference
from repro.net import protocol
from repro.net.aio import serve_async
from repro.net.client import HttpClientAgent
from repro.net.httpd import serve
from repro.p3p.parser import parse_policy

from tests import test_net_aio

CORPUS = cluster_corpus(corpus_size=29)
PREFERENCES = {**jrc_suite(), "Jane": jane_preference()}


@contextlib.contextmanager
def front_end(kind: str, path: str):
    """Yield ``(base_url, policy servers, shard_of)``; *shard_of* maps a
    site to the shard that owns it, or is None on a single server."""
    if kind == "router":
        with P3PCluster(shards=2, replicas=0, in_process=True,
                        db_dir=path).start() as cluster:
            yield (cluster.base_url,
                   [cluster.primary(shard).policy_server
                    for shard in cluster.topology.shard_ids()],
                   cluster.owner_shard)
        return
    server = (serve if kind == "threaded" else serve_async)(
        f"{path}/store.db")
    thread = server.run_in_thread()
    try:
        yield server.base_url, [server.policy_server], None
    finally:
        server.close()
        thread.join(timeout=5)


def successors() -> dict[str, str]:
    """A second version for every third site, so superseded and cached
    entries interleave in one document."""
    return dict(test_net_aio.TestDifferentialMissPath._successors(CORPUS)[::3])


def expected_document(active: dict, preference, shard_of) -> dict:
    """The match document the native engine implies: *active* maps each
    site to ``(policy_id, version, policy, cached)``."""
    native = AppelEngine()
    entries = []
    for site, (policy_id, version, policy, cached) in active.items():
        verdict = native.evaluate(policy, preference)
        entry = {"policy_id": policy_id, "name": policy.name,
                 "version": version, "behavior": verdict.behavior,
                 "rule_index": verdict.rule_index, "cached": cached}
        if shard_of is not None:
            entry["shard"] = shard_of(site)
        entries.append(entry)
    hits = sum(entry["cached"] for entry in entries)
    document = {"v": protocol.PROTOCOL_VERSION,
                "cache_hits": hits, "cache_misses": len(entries) - hits}
    if shard_of is None:
        entries.sort(key=lambda entry: entry["policy_id"])
    else:
        entries.sort(key=lambda entry: (entry["name"], entry["shard"],
                                        entry["policy_id"]))
        document.update(partial=False, shard_errors={})
    document["results"] = entries
    return document


class TestMatchDocument:
    @pytest.mark.parametrize("state", ["cached", "superseded", "cache-off"])
    @pytest.mark.parametrize("kind", ["threaded", "async", "router"])
    def test_document_is_the_native_engines(self, kind, state, tmp_path,
                                            monkeypatch):
        later = successors() if state == "superseded" else {}
        with front_end(kind, str(tmp_path)) as (base_url, servers,
                                                shard_of):
            for server in servers:
                server.cache_decisions = state != "cache-off"
            active = {}
            with HttpClientAgent(base_url) as admin:
                for site, policy_xml, reference_xml in CORPUS:
                    receipt = admin.install_policy(
                        policy_xml, site=site, reference_file=reference_xml)
                    active[site] = (receipt.policy_id, 1,
                                    parse_policy(policy_xml), True)
            agents = {level: HttpClientAgent(base_url, preference)
                      for level, preference in PREFERENCES.items()}
            try:
                digests = {level: agent.register_preference()
                           for level, agent in agents.items()}
                with HttpClientAgent(base_url) as admin:
                    for site, policy_xml in later.items():
                        receipt = admin.install_policy(policy_xml,
                                                       site=site)
                        active[site] = (receipt.policy_id, 2,
                                        parse_policy(policy_xml), False)
                if state == "cache-off":
                    active = {site: (*entry[:3], False)
                              for site, entry in active.items()}

                built: list[int] = []
                init = protocol.MatchCorpusEntry.__init__

                def counting(self, *args, **kwargs):
                    built.append(1)
                    init(self, *args, **kwargs)

                monkeypatch.setattr(protocol.MatchCorpusEntry, "__init__",
                                    counting)
                for level, agent in agents.items():
                    payload = protocol.MatchCorpusRequest(
                        preference_hash=digests[level]).to_wire()
                    status, _, raw = agent._request(
                        "POST", "/v1/match", protocol.encode(payload))
                    assert status == 200, raw
                    decoded = json.loads(raw)
                    assert raw == json.dumps(decoded,
                                             sort_keys=True).encode("utf-8")
                    decoded.pop("elapsed_seconds")
                    # A superseding version is a miss for every level:
                    # each preference caches its own decisions.
                    assert decoded == expected_document(
                        active, PREFERENCES[level], shard_of), level

                    built.clear()
                    agent.call("POST", "/v1/match", payload)
                    assert built == [], "the server built match entries"
                    # The counter does count: the client's parse builds
                    # one entry per policy.
                    assert len(agent.match_corpus().results) == len(CORPUS)
                    assert len(built) == len(CORPUS)
            finally:
                for agent in agents.values():
                    agent.close()
        if later:
            # The superseding installs changed some decision, or serving
            # a superseded one would go unseen.
            native = AppelEngine()
            assert any(
                native.evaluate(parse_policy(xml), preference).behavior
                != native.evaluate(active[site][2], preference).behavior
                for site, xml, _ in CORPUS if site in later
                for preference in PREFERENCES.values())
