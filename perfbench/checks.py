"""Output checks.

During a run the :class:`Ledger` records what the server acknowledged:
installs (which policy id names which policy text), registrations,
check decisions and corpus matches.  After the server has closed,
:func:`verify` compares

* every served check decision, and every entry of a seeded sample of
  corpus matches, with the native APPEL engine
  (:class:`repro.appel.engine.AppelEngine`) run on the policy version
  the response's ``policy_id`` names, and the response's coverage with
  the site's reference file;
* every registration receipt with the preference hash and the
  first-time/returning state;
* the reopened database files: ``check_log`` holds exactly one row per
  acknowledged ``check_key``, and each site's active policy is the last
  acknowledged install.

Every disagreement is a mismatch; mismatches count as failed operations.
"""

from __future__ import annotations

import random
import sqlite3
import threading
from collections import Counter
from dataclasses import dataclass, field

from repro.appel.engine import AppelEngine
from repro.appel.parser import parse_ruleset
from repro.p3p.parser import parse_policy

from perfbench.inputs import Site


@dataclass(frozen=True)
class CheckRecord:
    appel: str
    host: str
    uri: str
    check_key: str
    shard: int
    policy_id: int | None
    behavior: str | None
    rule_index: int | None


@dataclass(frozen=True)
class MatchRecord:
    appel: str
    #: (shard, policy_id, name, behavior, rule_index) per entry.
    entries: tuple[tuple, ...]


@dataclass(frozen=True)
class RegisterRecord:
    digest: str
    received: str
    created: bool
    start: float
    end: float


@dataclass
class Ledger:
    """What the server acknowledged, recorded as it happens."""

    #: (shard, policy_id) -> (host, policy XML)
    versions: dict[tuple[int, int], tuple[str, str]] = field(
        default_factory=dict)
    #: host -> (shard, policy_id) of the last acknowledged install
    active: dict[str, tuple[int, int]] = field(default_factory=dict)
    checks: list[CheckRecord] = field(default_factory=list)
    matches: list[MatchRecord] = field(default_factory=list)
    registrations: list[RegisterRecord] = field(default_factory=list)
    #: Rows :meth:`PolicyServer.register_preference` reported, with the
    #: number of active policies it should have decided.
    materialized: list[tuple[int, int]] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def installed(self, host: str, shard: int, policy_id: int,
                  xml: str) -> None:
        """Call while no other install of *host* can complete."""
        with self._lock:
            self.versions[(shard, policy_id)] = (host, xml)
            self.active[host] = (shard, policy_id)

    def add(self, record) -> None:
        target = {CheckRecord: self.checks, MatchRecord: self.matches,
                  RegisterRecord: self.registrations}[type(record)]
        with self._lock:
            target.append(record)

    def acknowledged_keys(self) -> list[str]:
        return [record.check_key for record in self.checks]


class Oracle:
    """Native-engine decisions, memoized per (preference, policy text)."""

    def __init__(self) -> None:
        self._engine = AppelEngine()
        self._prepared: dict[str, object] = {}
        self._rulesets: dict[str, object] = {}
        self._decisions: dict[tuple[str, str], tuple] = {}

    def decision(self, appel: str, policy_xml: str) -> tuple:
        key = (appel, policy_xml)
        decision = self._decisions.get(key)
        if decision is None:
            prepared = self._prepared.get(policy_xml)
            if prepared is None:
                prepared = self._engine.prepare(parse_policy(policy_xml))
                self._prepared[policy_xml] = prepared
            ruleset = self._rulesets.get(appel)
            if ruleset is None:
                ruleset = parse_ruleset(appel)
                self._rulesets[appel] = ruleset
            result = self._engine.evaluate_prepared(prepared, ruleset)
            decision = (result.behavior, result.rule_index)
            self._decisions[key] = decision
        return decision


@dataclass
class Verdict:
    mismatches: int = 0
    examples: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.mismatches += 1
        if len(self.examples) < 10:
            self.examples.append(message)


#: Corpus matches whose every entry is compared with the native engine
#: (a seeded sample; every match is checked for covering the corpus).
MATCH_SAMPLE = 16


def verify(ledger: Ledger, sites: list[Site], log_dbs: list[str],
           db_for_host, rng: random.Random) -> Verdict:
    """Check the recorded outputs; *db_for_host* maps a host to the
    database file that owns it, *rng* picks the sampled matches."""
    verdict = Verdict()
    oracle = Oracle()
    by_host = {site.host: site for site in sites}
    names = {site.policy_name for site in sites}

    for record in ledger.checks:
        site = by_host[record.host]
        covered = site.covers(record.uri)
        if (record.policy_id is not None) != covered:
            verdict.fail(f"check {record.check_key}: coverage of "
                         f"{record.host}{record.uri} is {not covered}")
            continue
        if not covered:
            continue
        version = ledger.versions.get((record.shard, record.policy_id))
        if version is None or version[0] != record.host:
            verdict.fail(f"check {record.check_key}: policy "
                         f"{record.policy_id} is no version of "
                         f"{record.host}")
            continue
        expected = oracle.decision(record.appel, version[1])
        if (record.behavior, record.rule_index) != expected:
            verdict.fail(f"check {record.check_key}: served "
                         f"{(record.behavior, record.rule_index)}, "
                         f"native engine {expected}")

    sampled = set(rng.sample(range(len(ledger.matches)),
                             min(MATCH_SAMPLE, len(ledger.matches))))
    for position, record in enumerate(ledger.matches):
        seen = {entry[2] for entry in record.entries}
        if seen != names:
            verdict.fail(f"match covers {len(seen)} of {len(names)} "
                         "policies")
        if position not in sampled:
            continue
        for shard, policy_id, _, behavior, rule_index in record.entries:
            version = ledger.versions.get((shard, policy_id))
            if version is None:
                verdict.fail(f"match names unknown policy {policy_id}")
                continue
            expected = oracle.decision(record.appel, version[1])
            if (behavior, rule_index) != expected:
                verdict.fail(f"match on policy {policy_id}: served "
                             f"{(behavior, rule_index)}, native engine "
                             f"{expected}")

    _verify_registrations(ledger, verdict)
    for rows, actives in ledger.materialized:
        if rows != actives:
            verdict.fail(f"registration materialized {rows} decisions "
                         f"for {actives} active policies")
    _verify_files(ledger, log_dbs, db_for_host, verdict)
    return verdict


def _verify_registrations(ledger: Ledger, verdict: Verdict) -> None:
    """Each receipt names the preference's hash.  A preference reports
    ``created`` on its first registration; one that starts after a
    ``created`` receipt came back must report returning."""
    first_ack: dict[str, float] = {}
    for record in sorted(ledger.registrations, key=lambda r: r.end):
        if record.received != record.digest:
            verdict.fail(f"registration hash {record.received[:12]} "
                         f"for preference {record.digest[:12]}")
        if record.created:
            first_ack.setdefault(record.digest, record.end)
    for record in ledger.registrations:
        acked = first_ack.get(record.digest)
        if acked is None:
            verdict.fail(f"preference {record.digest[:12]} never "
                         "reported as new")
        elif record.created and record.start > acked:
            verdict.fail(f"preference {record.digest[:12]} reported "
                         "new after its first registration")


def _verify_files(ledger: Ledger, log_dbs: list[str], db_for_host,
                  verdict: Verdict) -> None:
    logged: Counter[str | None] = Counter()
    for path in log_dbs:
        connection = sqlite3.connect(path)
        try:
            for key, count in connection.execute(
                    "SELECT check_key, COUNT(*) FROM check_log "
                    "GROUP BY check_key"):
                logged[key] += count
        finally:
            connection.close()
    acknowledged = Counter(ledger.acknowledged_keys())
    for key, count in acknowledged.items():
        if count != 1:
            verdict.fail(f"check_key {key} acknowledged {count} times")
        if logged.get(key, 0) != 1:
            verdict.fail(f"check_key {key} has {logged.get(key, 0)} "
                         "check_log rows")
    for key in logged.keys() - acknowledged.keys():
        verdict.fail(f"check_log row for unacknowledged key {key}")

    for host, (shard, policy_id) in ledger.active.items():
        connection = sqlite3.connect(db_for_host(host))
        try:
            active = [row[0] for row in connection.execute(
                "SELECT policy_id FROM policy "
                "WHERE site = ? AND active = 1", (host,))]
        finally:
            connection.close()
        if active != [policy_id]:
            verdict.fail(f"{host}: active policy {active}, last "
                         f"acknowledged install {policy_id}")
