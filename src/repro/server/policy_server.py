"""The server-centric P3P deployment (Figures 5 and 6).

:class:`PolicyServer` is the piece the paper proposes: a site (or hosting
provider serving many sites) installs its privacy policies and reference
files into a database (Figure 5); when a user requests a URI, her APPEL
preference is translated into SQL and matched against the applicable
policy inside the database (Figure 6).

Design choices straight from Section 4.2:

* preferences are compiled **once** into policy-independent
  :class:`~repro.translate.plan.CompiledPlan` objects (parameterized
  SQL; the applicable policy id binds at execution) and cached by
  preference hash alone — thin clients send APPEL (or pre-translated
  SQL) and the server pays conversion once per preference, not once
  per (preference, policy) pair;
* a check is **one query**: the plan folds the first-rule-wins loop
  into a single ``UNION ALL ... ORDER BY rule_index LIMIT 1``
  statement, the paper's "checked ... using a single query";
* every check is logged, giving site owners the conflict visibility the
  client-centric architecture cannot provide ("Site owners can refine
  their policies if they know what policies have a conflict with the
  privacy preferences of their users");
* policies are installed (and rolled back) through the versioned store,
  so policy evolution is an UPDATE, not a file push.

Serving-scale additions beyond the paper:

* checks run on a :class:`~repro.storage.pool.ConnectionPool` — WAL mode
  for on-disk databases, a per-thread reader for every checking thread,
  and a single serialized writer for installs and the log;
* the plan cache is a bounded, lock-protected LRU
  (:class:`~repro.translate.plan.TranslationCache`).  Because plans
  carry no policy id, a policy re-install (version bump) invalidates
  **nothing** — checks simply resolve to the new id and execute the
  same plan against it;
* the check log is written by :class:`CheckLogWriter`, which batches
  INSERTs via ``executemany`` and commits on size, age, or close —
  **not** once per check.  Readers of ``check_log`` (analytics, tests)
  should call :meth:`PolicyServer.flush_log` first; ``check_count``
  flushes automatically.
* every check is decided by one routine over a set of requests of one
  preference, :meth:`PolicyServer.check_requests`: ``check()`` passes
  it one request, the async front end a coalesced micro-batch, and a
  miss in the decision cache runs the compiled plan once per distinct
  policy;
* :meth:`PolicyServer.serve_many` fans a batch of checks across worker
  threads and flushes the log once at the end (in a ``finally``, so
  completed checks are durable even when the batch fails);
* checks may carry a client-generated ``check_key``; the log writer
  deduplicates keys within a bounded window and the table enforces key
  uniqueness, so a *retried* check (lost response, dropped connection)
  is logged exactly once — see docs/architecture.md "Failure model".
* decisions are **materialized**: registering a preference
  (:meth:`PolicyServer.register_preference`) stores its rule list in
  ``preference_rule`` and decides every active policy from *rule bits*
  — whether each of its rule bodies fires against each policy, stored
  in ``rule_fired`` and shared by every preference containing the body
  — evaluating only the (body, policy) pairs no earlier preference
  settled, and stores the decisions in the ``decision_cache`` table
  (:mod:`repro.storage.decision_cache`), all in set-at-a-time
  statements, so a warm check — and a warm corpus match
  (:meth:`PolicyServer.match_all`) — is an indexed point lookup, no
  plan execution at all.  Version bumps invalidate only the superseded
  version's rows and bits, inside the install transaction; see
  docs/architecture.md "Materialized decision cache".
"""

from __future__ import annotations

import datetime
import hashlib
import logging
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from repro.analysis.plans import (
    audit_body_plan,
    audit_compiled_plan,
    plan_untrusted_strings,
)
from repro.appel.model import Rule, Ruleset
from repro.appel.parser import parse_ruleset
from repro.appel.serializer import serialize_ruleset
from repro.p3p.model import Policy
from repro.p3p.reference import ReferenceFile, parse_reference_file
from repro.storage.database import Database
from repro.storage.decision_cache import DecisionCache, decision_rows
from repro.storage.pool import ConnectionPool
from repro.storage.refstore import ReferenceStore
from repro.storage.shredder import PolicyStore, ShredReport
from repro.storage.versioning import VersionedPolicyStore
from repro.translate.appel_to_sql import OptimizedSqlTranslator
from repro.translate.plan import BodyPlan, CompiledPlan, TranslationCache

__all__ = [
    "CheckLogWriter",
    "CheckResult",
    "MatchAllResult",
    "MatchDecision",
    "PolicyServer",
    "TranslationCache",
]

#: How many times :meth:`PolicyServer.match_all` re-reads when a racing
#: install deactivates a listed policy version between the cache listing
#: and the repair (the body statements only see active policies).
MATCH_RACE_RETRIES = 3

logger = logging.getLogger(__name__)

_CHECK_LOG_DDL = """
CREATE TABLE IF NOT EXISTS check_log (
  check_id        INTEGER PRIMARY KEY,
  site            TEXT NOT NULL,
  uri             TEXT NOT NULL,
  policy_id       INTEGER,
  behavior        TEXT,
  rule_index      INTEGER,
  preference_hash TEXT NOT NULL,
  elapsed_seconds REAL NOT NULL,
  checked_at      TEXT NOT NULL,
  check_key       TEXT
);
"""

#: Partial unique index: the durable half of idempotent logging.  The
#: in-memory dedupe window stops retried checks from re-buffering; this
#: index (with INSERT OR IGNORE) stops a retry that crosses a server
#: restart — where the window is empty — from inserting a second row.
_CHECK_LOG_KEY_INDEX = (
    "CREATE UNIQUE INDEX IF NOT EXISTS check_log_check_key "
    "ON check_log (check_key) WHERE check_key IS NOT NULL"
)

#: Serving-path SQL as named constants: the sqlcheck contract gate
#: imports these and validates each against the schema catalog (tables
#: and columns exist, bind arity, tier write-sets), so a schema change
#: that breaks one fails `p3pdb audit --sql-contracts` instead of the
#: first live request.
RETARGET_POLICYREF_SQL = (
    "UPDATE policyref SET policy_id = ? "
    "WHERE (about = ? OR about LIKE ? ESCAPE '\\') "
    "  AND meta_id IN (SELECT meta_id FROM meta WHERE site IS ?)"
)
POLICY_VERSION_SQL = "SELECT version FROM policy WHERE policy_id = ?"
CHECK_COUNT_SQL = "SELECT COUNT(*) FROM check_log"


def _migrate_check_log(db: Database) -> None:
    """Bring a pre-existing check_log table up to the current shape."""
    db.ensure_columns("check_log", {"check_key": "TEXT"})


@lru_cache(maxsize=1024)
def preference_hash(preference: Ruleset) -> str:
    """SHA-256 of the canonical serialization: the key a preference's
    compiled plan, cached decisions and check-log rows are filed under.

    Cached, but a cached lookup still hashes the frozen ruleset tree,
    so a check or a batch computes it once and passes it along.
    """
    text = serialize_ruleset(preference, indent=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@lru_cache(maxsize=4096)
def rule_body_hash(rule: Rule) -> str:
    """SHA-256 of a rule's *body*: its connective and expressions in the
    canonical serialization, without behavior, description or prompt.
    Rules with equal bodies fire against exactly the same policies, so
    this is the key their ``rule_fired`` bits are shared under."""
    body = Rule(behavior="body", expressions=rule.expressions,
                connective=rule.connective)
    text = serialize_ruleset(Ruleset(rules=(body,)), indent=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: One rule body's bits over the active corpus: the ids of the policies
#: it has a bit for, and of those it fires against.
BodyBits = tuple[set[int], set[int]]


def _first_fired(preference: Ruleset, rule_bits: Sequence[BodyBits],
                policy_ids: Iterable[int]
                ) -> tuple[dict[int, tuple[str, int]], set[int]]:
    """First-rule-wins over rule bits.

    *rule_bits* holds each rule's :data:`BodyBits`, in rule order.
    Returns ``{policy_id: (behavior, rule_index)}`` for the policies
    some rule fires against (others are absent, as in
    :meth:`BulkPlan.execute`), and the ids a rule's body has no bit for
    before any earlier rule fired — policies that were not active when
    that body was read.
    """
    fired: dict[int, tuple[str, int]] = {}
    unknown: set[int] = set()
    undecided = set(policy_ids)
    for index, (rule, (known, hits)) in enumerate(
            zip(preference.rules, rule_bits)):
        if not undecided:
            break
        unknown |= undecided - known
        undecided &= known
        for policy_id in undecided & hits:
            fired[policy_id] = (rule.behavior, index)
        undecided -= hits
    return fired, unknown


class CheckLogWriter:
    """Buffered check-log writer: batched INSERTs, group commit.

    Rows accumulate in memory and are written with one ``executemany``
    plus one commit when the buffer reaches *batch_size*, when the
    oldest buffered row is older than *flush_interval* seconds (tested
    on the next append — there is no background thread), or on
    :meth:`flush` / :meth:`close`.  With ``batch_size=1`` every append
    commits immediately (the paper-faithful serial behavior).

    Concurrent flushes coalesce: whichever thread flushes first carries
    every pending row in its batch, so N threads churning out checks
    share commits instead of queueing N fsyncs.

    **Idempotency.**  Rows carry an optional client-generated
    ``check_key``.  A key seen within the last *dedupe_window* appends
    is dropped (a retry of a check whose response was lost must not
    log twice), and the INSERT is ``OR IGNORE`` against a partial
    unique index on ``check_key``, so even a retry that crosses a
    server restart — where the in-memory window is empty — cannot
    produce a duplicate row.
    """

    _INSERT = (
        "INSERT OR IGNORE INTO check_log (site, uri, policy_id, "
        "behavior, rule_index, preference_hash, elapsed_seconds, "
        "checked_at, check_key) "
        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)"
    )

    def __init__(self, pool: ConnectionPool, *,
                 batch_size: int = 32,
                 flush_interval: float = 1.0,
                 dedupe_window: int = 4096):
        self.pool = pool
        self.batch_size = max(1, batch_size)
        self.flush_interval = flush_interval
        self.dedupe_window = max(0, dedupe_window)
        self._lock = threading.Lock()
        self._rows: list[tuple] = []
        self._oldest: float | None = None
        self._seen_keys: OrderedDict[str, None] = OrderedDict()
        self.appended = 0
        self.written = 0
        self.batches = 0
        self.deduped = 0
        self.deferrals = 0

    def append(self, row: tuple, check_key: str | None = None) -> None:
        with self._lock:
            if check_key is not None and self.dedupe_window:
                if check_key in self._seen_keys:
                    self._seen_keys.move_to_end(check_key)
                    self.deduped += 1
                    return
                self._seen_keys[check_key] = None
                while len(self._seen_keys) > self.dedupe_window:
                    self._seen_keys.popitem(last=False)
            self._rows.append(row)
            self.appended += 1
            if self._oldest is None:
                self._oldest = time.monotonic()
            due = (
                len(self._rows) >= self.batch_size
                or time.monotonic() - self._oldest >= self.flush_interval
            )
        if due:
            self.flush()

    def flush(self) -> int:
        """Write every buffered row in one batch; returns rows written.

        Called while the current thread is already inside
        ``pool.write()`` (a flush during an install, say), the write is
        *deferred*: committing here would commit the enclosing
        transaction's half-done work, and rolling back on failure would
        discard it.  The rows stay buffered for the next top-level
        flush and 0 is returned.
        """
        if self.pool.write_depth > 0:
            with self._lock:
                if self._rows:
                    self.deferrals += 1
            return 0
        with self._lock:
            rows, self._rows = self._rows, []
            self._oldest = None
        if not rows:
            return 0
        try:
            with self.pool.write() as db:
                db.executemany(self._INSERT, rows)
                db.commit()
        except BaseException:
            # Never drop log rows: undo the partial batch and re-queue
            # it ahead of anything appended meanwhile.
            try:
                with self.pool.write() as db:
                    db.rollback()
            except Exception:
                pass
            with self._lock:
                self._rows = rows + self._rows
                if self._oldest is None:
                    self._oldest = time.monotonic()
            raise
        with self._lock:
            self.batches += 1
            self.written += len(rows)
        return len(rows)

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._rows)

    def close(self) -> None:
        self.flush()


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one preference check against a requested URI."""

    site: str
    uri: str
    policy_id: int | None
    behavior: str | None
    rule_index: int | None
    elapsed_seconds: float

    @property
    def allowed(self) -> bool:
        """Conventional reading: anything but ``block`` lets the request
        proceed (an uncovered URI is surfaced as ``policy_id is None``)."""
        return self.behavior != "block"

    @property
    def covered(self) -> bool:
        return self.policy_id is not None


class MatchDecision(NamedTuple):
    """One policy's decision within a corpus match: a tuple filled by
    position, in ``MATCH_SQL``'s column order, and the one record an
    entry is built as on its way from the SQL row to the wire."""

    policy_id: int
    name: str | None
    version: int
    behavior: str | None
    rule_index: int | None
    cached: bool

    @property
    def decision(self) -> tuple:
        """The comparable decision, independent of cache provenance."""
        return (self.policy_id, self.behavior, self.rule_index)


@dataclass(frozen=True)
class MatchAllResult:
    """A preference matched against every active policy at once."""

    decisions: tuple[MatchDecision, ...]
    cache_hits: int
    cache_misses: int
    elapsed_seconds: float

    def by_policy_id(self) -> dict[int, MatchDecision]:
        return {entry.policy_id: entry for entry in self.decisions}


class PolicyServer:
    """A database-backed P3P server for one or many sites.

    *db* may be a :class:`Database` (adopted as the pool's writer — the
    legacy single-connection mode), a path string (the pool opens it in
    WAL mode: the concurrent serving configuration), or None for an
    in-memory server.  A pre-built :class:`ConnectionPool` can be passed
    instead via *pool*.

    A check runs one plan shape, the preference's
    :class:`~repro.translate.plan.CompiledPlan`; the set-at-a-time
    paths run one :class:`~repro.translate.plan.BodyPlan` per distinct
    rule body: :meth:`register_preference` its fill form, which stores
    the missing bits inside SQLite before one statement decides the
    corpus from the preference's ``preference_rule`` rows, and
    :meth:`match_all`'s miss repair its read form.

    ``cache_decisions=False`` is the always-execute configuration: no
    decision, rule row or bit is stored or served.
    """

    def __init__(self, db: Database | str | None = None, *,
                 pool: ConnectionPool | None = None,
                 translation_cache_size: int = 256,
                 log_batch_size: int = 32,
                 log_flush_interval: float = 1.0,
                 audit_plans: bool = False,
                 cache_decisions: bool = True,
                 log_checks: bool = True):
        if pool is None:
            pool = ConnectionPool(db if db is not None else ":memory:")
        self.pool = pool
        self.db = pool.writer
        self.policies = PolicyStore(self.db)
        self.versions = VersionedPolicyStore(self.policies)
        self.references = ReferenceStore(self.db)
        self.translator = OptimizedSqlTranslator()
        self.db.executescript(_CHECK_LOG_DDL)
        _migrate_check_log(self.db)
        self.db.execute(_CHECK_LOG_KEY_INDEX)
        #: The materialized decision cache.  ``cache_decisions=False``
        #: turns the server back into the always-execute configuration
        #: (benchmarks compare the two): registration stores nothing,
        #: and checks and corpus matches decide every policy.
        self.cache_decisions = cache_decisions
        self.decisions = DecisionCache()
        self.decisions.ensure_schema(self.db)
        self.db.commit()
        self._translation_cache = TranslationCache(translation_cache_size)
        #: When set, every cache-miss compilation is EXPLAIN-audited
        #: against this database before the plan enters the cache; the
        #: counters surface through ``pool.stats()`` into ``/metrics``.
        self.audit_plans = audit_plans
        self.last_audit_findings: tuple = ()
        #: Read replicas set ``log_checks=False``: the check log is
        #: authoritative on the shard primary only — a replica's file is
        #: overwritten wholesale by every backup refresh, so rows logged
        #: there would silently vanish.  Replica-served checks are
        #: counted in the replica's ``/metrics`` instead.
        self.log_checks = log_checks
        self.log = CheckLogWriter(pool, batch_size=log_batch_size,
                                  flush_interval=log_flush_interval)
        # Reader connections need the reference store's SQL functions.
        self.pool.add_connect_hook(self.references.register_sql_functions)

    # -- installation (Figure 5) ------------------------------------------------

    def install_policy(self, policy: Policy,
                       site: str | None = None) -> ShredReport:
        """Shred one policy; repeated installs of a name create versions.

        Reference-file rows pointing at the policy's name are retargeted
        to the new version, so URIs resolve to the active policy without
        re-installing the reference file.  The shred, the version bump,
        the retarget and the cache invalidation are one transaction.
        """
        with self.pool.write() as db, db.transaction():
            if policy.name is not None:
                report = self.versions.install(policy, site=site)
                self._activate(db, policy.name, site, report.policy_id)
            else:
                report = self.policies.install_policy(policy, site=site)
        # No plan-cache invalidation: compiled plans are policy-
        # independent (the policy id is a bind parameter), so a
        # superseded version only changes what the reference lookup
        # resolves to — the cached plan executes unchanged against the
        # new id.
        return report

    def rollback_policy(self, name: str, site: str | None = None) -> int:
        """Re-activate the previous version of (*name*, *site*); returns
        its policy id.

        The version flip, the retarget of *site*'s reference rows and
        the cache invalidation are one transaction, as for an install,
        so the next check resolves to the re-activated version and no
        decision of the rolled-back one stays serveable.  Other sites'
        policies of the same name are left alone.
        """
        with self.pool.write() as db, db.transaction():
            policy_id = self.versions.rollback(name, site=site)
            self._activate(db, name, site, policy_id)
        return policy_id

    def _activate(self, db: Database, name: str, site: str | None,
                  policy_id: int) -> None:
        """Point (*name*, *site*)'s reference rows at *policy_id*, the
        version just made active, and drop what the now inactive
        versions had cached.  Runs inside the caller's write
        transaction."""
        # Retarget only this site's reference rows — other sites may
        # use the same policy name for their own, unrelated policies.
        # The name is escaped so LIKE metacharacters in a policy name
        # (%, _) match literally instead of retargeting unrelated
        # references.
        escaped = (name.replace("\\", "\\\\")
                   .replace("%", "\\%").replace("_", "\\_"))
        db.execute(RETARGET_POLICYREF_SQL,
                   (policy_id, f"#{name}", f"%#{escaped}", site))
        # Incremental decision-cache invalidation: only the inactive
        # versions of this name lose their cached decisions and bits,
        # in the caller's transaction — an observer never sees the new
        # version active with an old version's decisions still
        # serveable through it.  (The active policy_id may have no rows,
        # so its first check/match recomputes.)
        self.decisions.invalidate_inactive(db, name, site)

    def install_reference_file(self, reference: ReferenceFile | str,
                               site: str) -> int:
        """Shred a reference file (parsed or XML text) for *site*."""
        if isinstance(reference, str):
            reference = parse_reference_file(reference)
        with self.pool.write():
            return self.references.install_reference_file(
                reference, site, policy_store=self.policies
            )

    def install_with_reference(self, policy: Policy,
                               reference: ReferenceFile | str,
                               site: str) -> tuple[ShredReport, int]:
        """:meth:`install_policy` then :meth:`install_reference_file`,
        committed together: a reference file that is refused (it does
        not parse, or names a policy the store does not hold) leaves the
        active version, the reference rows and the cached decisions as
        they were.  Returns the shred report and the new meta id.
        """
        if isinstance(reference, str):
            reference = parse_reference_file(reference)
        with self.pool.write() as db, db.transaction():
            report = self.install_policy(policy, site=site)
            meta_id = self.install_reference_file(reference, site)
        return report, meta_id

    # -- checking (Figure 6) -----------------------------------------------------

    def check(self, site: str, uri: str,
              preference: Ruleset | str,
              cookie: bool = False, *,
              check_key: str | None = None) -> CheckResult:
        """Match a user's preference against the policy governing *uri*.

        Thread-safe: reads run on this thread's pooled reader, the log
        entry goes through the buffered writer.  *check_key*, when
        given, makes the log append idempotent: a retried check with
        the same key evaluates again (reads are harmless) but is
        logged at most once.  :meth:`check_requests` over one request.
        """
        if isinstance(preference, str):
            preference = parse_ruleset(preference)
        outcome, = self.check_requests(preference,
                                       [(site, uri, check_key)], cookie)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def check_requests(self, preference: Ruleset,
                       requests: Sequence[tuple[str, str, str | None]],
                       cookie: bool = False
                       ) -> list[CheckResult | Exception]:
        """Decide ``(site, uri, check_key)`` *requests* for one
        preference: :meth:`check` passes one, the async front end a
        coalesced micro-batch.

        One reader resolves every request's applicable policy and
        probes the decision cache once per distinct policy; each
        distinct policy it misses runs the cached :class:`CompiledPlan`
        once, and its decision is written back best-effort, guarded by
        the version read beside it.  Every decided request is logged
        once, idempotently on its ``check_key``.  ``elapsed_seconds``
        is the wall time of the call — what each request waited.

        Returns one outcome per request, in order: its result, or the
        exception its reference resolution raised (that request is
        neither decided nor logged).  Anything else that raises fails
        the call.
        """
        start = time.perf_counter()
        key = preference_hash(preference)
        resolved: list[int | None | Exception] = []
        decided: dict[int, tuple[str | None, int | None]] = {}
        write_back: list[tuple] = []
        with self.pool.read() as db:
            for site, uri, _ in requests:
                try:
                    resolved.append(self.references.applicable_policy_id(
                        site, uri, cookie=cookie, db=db))
                except Exception as exc:  # noqa: BLE001 — fails one request
                    resolved.append(exc)
            plan: CompiledPlan | None = None
            for policy_id in resolved:
                if (policy_id is None or isinstance(policy_id, Exception)
                        or policy_id in decided):
                    continue
                # The materialized decision, if any version-guarded row
                # exists (a registered preference, or an earlier check
                # against this policy version).
                cached = (self.decisions.lookup(db, key, policy_id)
                          if self.cache_decisions else None)
                if cached is not None:
                    decided[policy_id] = cached
                    continue
                if plan is None:
                    plan = self._compiled_plan(preference, key)
                decided[policy_id] = plan.execute(db, policy_id)
                if self.cache_decisions:
                    version = db.scalar(POLICY_VERSION_SQL, (policy_id,))
                    if version is not None:
                        write_back.append((key, int(policy_id), int(version),
                                           *decided[policy_id]))
        if write_back:
            # Best-effort: a failed cache write must never fail the
            # checks it would have accelerated.
            self._store_decisions(write_back, best_effort=True)
        elapsed = time.perf_counter() - start
        outcomes: list[CheckResult | Exception] = []
        for (site, uri, check_key), policy_id in zip(requests, resolved):
            if isinstance(policy_id, Exception):
                outcomes.append(policy_id)
                continue
            behavior, rule_index = decided.get(policy_id, (None, None))
            result = CheckResult(site=site, uri=uri, policy_id=policy_id,
                                 behavior=behavior, rule_index=rule_index,
                                 elapsed_seconds=elapsed)
            self._log(result, key, check_key)
            outcomes.append(result)
        return outcomes

    def serve_many(self, requests: Iterable[Sequence],
                   threads: int = 4,
                   cookie: bool = False) -> list[CheckResult]:
        """Check a batch of ``(site, uri, preference)`` requests
        (a fourth element, an idempotency ``check_key``, is optional).

        With ``threads > 1`` the checks fan out over a thread pool —
        each worker reads on its own pooled connection and the log
        batches across all of them.  Results come back in request
        order, and the log is flushed before returning — in a
        ``finally``, so the checks that *did* complete are durable
        even when a worker raises and the batch as a whole fails.
        """
        requests = list(requests)

        def run(request: Sequence) -> CheckResult:
            site, uri, preference, *rest = request
            return self.check(site, uri, preference, cookie=cookie,
                              check_key=rest[0] if rest else None)

        try:
            if threads <= 1 or len(requests) <= 1:
                results = [run(request) for request in requests]
            else:
                with ThreadPoolExecutor(max_workers=threads) as executor:
                    results = list(executor.map(run, requests))
        finally:
            self.flush_log()
        return results

    # -- set-at-a-time matching (the corpus as one query) ------------------------

    def register_preference(self, preference: Ruleset | str) -> int:
        """Materialize the whole corpus decision for *preference*.

        One transaction of set-at-a-time statements: the preference's
        rule list goes to ``preference_rule``, each distinct rule body's
        fill statement stores the bits no earlier preference settled (a
        body another preference already brought evaluates nothing), and
        one statement decides every active policy as the lowest rule
        index whose body fired, negatives included, so later misses are
        only ever *new* policies.  No row per policy crosses into
        Python, and a crash mid-populate leaves nothing (see
        tests/test_decision_cache.py).  The paper's pay-once insight
        applied to the corpus: after this, every check and corpus match
        for the preference is an indexed point lookup.  Returns the
        number of decision rows cached: 0 with ``cache_decisions=False``,
        which stores nothing.
        """
        if isinstance(preference, str):
            preference = parse_ruleset(preference)
        if not self.cache_decisions:
            return 0
        key = preference_hash(preference)
        rules: list[tuple[str, str]] = []
        plans: dict[str, BodyPlan] = {}
        for rule in preference.rules:
            body_hash = rule_body_hash(rule)
            rules.append((body_hash, rule.behavior))
            if body_hash not in plans:
                plans[body_hash] = self.translate_body(rule, body_hash)
        with self.pool.write() as db:
            with db.transaction():
                self.decisions.store_rules(db, key, rules)
                evaluated = sum(plan.fill(db, body_hash)
                                for body_hash, plan in plans.items())
                decided = self.decisions.decide(db, key)
        self.decisions.record_bits(evaluated,
                                   decided * len(plans) - evaluated)
        return decided

    def match_all(self, preference: Ruleset | str) -> MatchAllResult:
        """Match *preference* against every active policy.

        Warm (registered preference, no installs since): one indexed
        statement — every active policy LEFT JOINed to its cached,
        version-guarded decision.  Cache misses (new policies, or a
        never-registered preference) are repaired from rule bits read
        on this thread's reader — the lowest rule index whose body
        fired, as :meth:`register_preference` decides them — and the
        new bits and decisions are written back (best-effort).  With
        ``cache_decisions=False`` no stored decision is served: every
        active policy is decided, and nothing is written.
        """
        if isinstance(preference, str):
            preference = parse_ruleset(preference)
        key = preference_hash(preference)
        start = time.perf_counter()
        for _attempt in range(MATCH_RACE_RETRIES + 1):
            fired: dict[int, tuple] = {}
            stale: set[int] = set()
            fresh: list[tuple] = []
            with self.pool.read() as db:
                # Read by position, in MatchDecision's field order.  A
                # NULL hash joins no stored decision: every row misses.
                rows = self.decisions.match_rows(
                    db, key if self.cache_decisions else None)
                missing = [(row[0], row[2]) for row in rows if not row[5]]
                if missing:
                    rule_bits, fresh = self._read_bits(db, preference)
                    # Reads here are not one snapshot: an install
                    # committing between the listing above and a body
                    # statement can deactivate a listed version, which
                    # the body statements (active policies only) then
                    # leave without a bit.  Re-read when that happens.
                    fired, stale = _first_fired(
                        preference, rule_bits,
                        [policy_id for policy_id, _ in missing])
            if not stale:
                break
            self.decisions.record_repair_race(len(stale))
        else:
            # Installs kept racing every re-read: serve without the
            # superseded versions rather than retry unboundedly.
            rows = [row for row in rows if row[0] not in stale]
            missing = [pair for pair in missing if pair[0] not in stale]
        self.decisions.record_hits(len(rows) - len(missing),
                                   len(missing))
        if missing and self.cache_decisions:
            self._store_decisions(decision_rows(key, missing, fired),
                                  best_effort=True, bits=fresh)
        decisions = tuple(
            MatchDecision(policy_id, name, version, behavior, rule_index,
                          True) if cached else
            MatchDecision(policy_id, name, version,
                          *fired.get(policy_id, (None, None)), False)
            for policy_id, name, version, behavior, rule_index, cached
            in rows)
        return MatchAllResult(
            decisions=decisions,
            cache_hits=len(rows) - len(missing),
            cache_misses=len(missing),
            elapsed_seconds=time.perf_counter() - start,
        )

    def _read_bits(self, db: Database, preference: Ruleset
                   ) -> tuple[list[BodyBits], list[tuple]]:
        """:meth:`match_all`'s repair read.  Every active policy's bit
        for each rule body of *preference*:
        one :data:`BodyBits` per rule (rules with equal bodies share one
        read), plus the ``(body_hash, policy_id, fired)`` bits that had
        to be evaluated because none was stored.  With
        ``cache_decisions=False`` no stored bit is read: every pair is
        evaluated."""
        by_body: dict[str, BodyBits] = {}
        rule_bits: list[BodyBits] = []
        fresh: list[tuple] = []
        read = 0
        for rule in preference.rules:
            body_hash = rule_body_hash(rule)
            bits = by_body.get(body_hash)
            if bits is None:
                rows = self.translate_body(rule, body_hash).execute(
                    db, body_hash if self.cache_decisions else None)
                bits = by_body[body_hash] = (
                    {row[0] for row in rows},
                    {row[0] for row in rows if row[1]})
                fresh.extend((body_hash, row[0], row[1])
                             for row in rows if row[2])
                read += len(rows)
            rule_bits.append(bits)
        self.decisions.record_bits(len(fresh), read - len(fresh))
        return rule_bits, fresh

    def translate_body(self, rule: Rule, body_hash: str) -> BodyPlan:
        """The cached :class:`BodyPlan` of *rule*'s body.

        Keyed by body hash, so the cache grows with distinct rule
        bodies, not with preferences; like every plan here it embeds no
        policy id.
        """
        key = (body_hash, "body")
        plan = self._translation_cache.get(key)
        if plan is None:
            plan = self.translator.compile_body(rule)
            if self.audit_plans:
                self._audit(audit_body_plan, plan, f"body:{body_hash[:12]}",
                            plan_untrusted_strings(Ruleset(rules=(rule,))))
            self._translation_cache.put(key, plan)
        return plan

    def _store_decisions(self, rows: list[tuple],
                         best_effort: bool = False,
                         bits: Sequence[tuple] = ()) -> int:
        """Write decision rows (and the rule *bits* they were decided
        from) through the serialized writer, atomically.

        ``best_effort`` swallows (and counts) failures — cache writes
        on the check path are an optimization, never a reason to fail
        the check.
        """
        try:
            with self.pool.write() as db:
                with db.transaction():
                    self.decisions.store_bits(db, bits)
                    return self.decisions.store_rows(db, rows)
        except Exception:
            if not best_effort:
                raise
            self.decisions.record_write_error()
            logger.warning("decision-cache write-back failed",
                           exc_info=True)
            return 0

    def translate(self, preference: Ruleset) -> CompiledPlan:
        """The cached compiled plan for *preference*.

        Keyed by preference hash alone: the plan's SQL binds the
        applicable policy id at execution time, so one compilation
        serves every policy the server will ever check it against.
        """
        return self._compiled_plan(preference, preference_hash(preference))

    def _compiled_plan(self, preference: Ruleset, key: str) -> CompiledPlan:
        """:meth:`translate` with the preference hash already known."""
        plan = self._translation_cache.get(key)
        if plan is None:
            plan = self.translator.compile_ruleset(preference)
            if self.audit_plans:
                self._audit(audit_compiled_plan, plan, f"plan:{key[:12]}",
                            plan_untrusted_strings(preference))
            self._translation_cache.put(key, plan)
        return plan

    def _audit(self, audit, plan, where: str,
               untrusted: list[str]) -> None:
        """EXPLAIN-audit a freshly compiled plan (flag-gated).

        Findings never reject the plan — a full scan is slow, not
        wrong — but they are logged and counted on the connection's
        stats, which the pool aggregates into ``/metrics``.  Runs once
        per compilation (cache misses only), so the audit cost is paid
        with the translation cost, not per check.
        """
        with self.pool.read() as conn:
            findings = audit(conn, plan, where=where, untrusted=untrusted)
            conn.stats.record_audit(len(findings))
        self.last_audit_findings = tuple(findings)
        for finding in findings:
            logger.warning("plan audit: %s", finding)

    def _log(self, result: CheckResult, key: str,
             check_key: str | None = None) -> None:
        """Buffer *result*'s check-log row; *key* is the preference
        hash the caller already computed."""
        if not self.log_checks:
            return
        self.log.append(
            (
                result.site,
                result.uri,
                result.policy_id,
                result.behavior,
                result.rule_index,
                key,
                result.elapsed_seconds,
                datetime.datetime.now(datetime.timezone.utc).isoformat(),
                check_key,
            ),
            check_key=check_key,
        )

    def flush_log(self) -> int:
        """Force the buffered check log to disk; returns rows written."""
        return self.log.flush()

    # -- introspection -------------------------------------------------------------

    def check_count(self) -> int:
        self.flush_log()
        with self.pool.read() as db:
            return int(db.scalar(CHECK_COUNT_SQL))

    def cache_size(self) -> int:
        return len(self._translation_cache)

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Flush the check log and close every pooled connection."""
        self.log.close()
        self.pool.close()

    def __enter__(self) -> "PolicyServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
