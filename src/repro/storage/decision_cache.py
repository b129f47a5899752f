"""The materialized decision cache: corpus matching as a point lookup.

A ``decision_cache`` row is one *decided* (preference, policy-version)
cell: ``(policy_id, pref_id, policy_version) -> (behavior,
rule_index)``, with ``behavior IS NULL`` recording a *negative* decision
(no rule fired) — row-present-with-NULLs and row-absent are different
facts, so a cache miss is always observable.  ``pref_id`` is the
preference's integer handle: each preference hash is interned once in
``preference_key``, so a row holds no text but its behavior.

**Why this can never serve a stale decision.**  The versioned store
never updates a policy in place: installing a new version of a name
creates a *new* ``policy_id`` and deactivates the old row, so the policy
content behind a given ``policy_id`` is immutable and a decision keyed
by it cannot rot.  Two structural defenses back that argument up:

* the lookup joins ``policy`` on ``policy_id`` *and*
  ``version = policy_version`` — a row written against a different
  version of the same id (impossible today, cheap to guard) simply
  misses;
* :meth:`DecisionCache.invalidate_inactive` deletes the rows of every
  superseded (inactive) version of a name at install time, inside the
  installer's write transaction — incremental garbage collection, not a
  correctness requirement.

**Why the table is clustered by policy.**  It is ``WITHOUT ROWID``, so
rows are stored in primary-key order, and the key leads with
``policy_id``.  A check's lookup and a warm corpus match still probe the
full key; an install's delete reads one contiguous range per superseded
version instead of every cached decision.  The price is that a
registration writes one row into every active policy's range; narrow
integer rows keep those ranges dense enough that the writes stay cheap
(``docs/architecture.md``, "Materialized decision cache", has the
measured trade).

**Rule bits.**  Preferences share rules: the JRC editor builds a
preference by choosing from a set of predefined rules (Sec. 3.3), and
whether a rule's *body* — its connective and expressions, without the
behavior, description or prompt — fires against a policy does not
depend on the rest of the ruleset.  Each distinct body is interned once
in ``rule_body`` by a canonical hash, and ``rule_fired(policy_id,
body_id) -> fired`` records whether it fires against a policy id.  A
policy id's content never changes, so a bit never goes stale either; an
install deletes the bits of the superseded versions with their
decisions.

**Registration is set-at-a-time SQL.**  Registering a preference writes
its rule list to ``preference_rule(pref_id, rule_index) -> (body_id,
behavior)``, fills each distinct body's missing bits with the body
plan's ``INSERT … SELECT`` (only the (body, active policy) pairs that
have no bit are evaluated), and decides every active policy with one
``INSERT … SELECT`` (:data:`DecisionCache.DECIDE_SQL`): the lowest rule
index whose body's bit fired, or NULLs.  The statements and the rows
that cross into Python grow with the preference's rules, never with
the corpus: with several shards in one interpreter, each row handed to
Python is a GIL hand-off, so a row per policy would make a
registration's wall time grow with the corpus.

All SQL here is static text over storage-layer tables; the serving
layer calls these methods with a pooled connection and never assembles
cache SQL itself.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Iterable, Sequence

from repro.errors import StorageError
from repro.storage.database import Database

PREFERENCE_KEY_DDL = """
CREATE TABLE IF NOT EXISTS preference_key (
  pref_id    INTEGER PRIMARY KEY,
  pref_hash  TEXT NOT NULL UNIQUE
);
"""

DECISION_CACHE_DDL = """
CREATE TABLE IF NOT EXISTS decision_cache (
  policy_id       INTEGER NOT NULL,
  pref_id         INTEGER NOT NULL,
  policy_version  INTEGER NOT NULL,
  behavior        TEXT,
  rule_index      INTEGER,
  PRIMARY KEY (policy_id, pref_id, policy_version)
) WITHOUT ROWID;
"""

RULE_BODY_DDL = """
CREATE TABLE IF NOT EXISTS rule_body (
  body_id    INTEGER PRIMARY KEY,
  body_hash  TEXT NOT NULL UNIQUE
);
"""

#: A registered preference's rules in order: each rule's body handle
#: and behavior, clustered by preference.
PREFERENCE_RULE_DDL = """
CREATE TABLE IF NOT EXISTS preference_rule (
  pref_id     INTEGER NOT NULL,
  rule_index  INTEGER NOT NULL,
  body_id     INTEGER NOT NULL,
  behavior    TEXT NOT NULL,
  PRIMARY KEY (pref_id, rule_index)
) WITHOUT ROWID;
"""

#: Clustered by policy like ``decision_cache``: an install's delete is
#: one key range per superseded version.
RULE_FIRED_DDL = """
CREATE TABLE IF NOT EXISTS rule_fired (
  policy_id  INTEGER NOT NULL,
  body_id    INTEGER NOT NULL,
  fired      INTEGER NOT NULL,
  PRIMARY KEY (policy_id, body_id)
) WITHOUT ROWID;
"""

#: Rebuilds a ``decision_cache`` keyed by ``pref_hash`` (the rowid
#: table, with or without ``computed_at``, and the pref-clustered
#: ``WITHOUT ROWID`` table) as the tables above, rows kept, in one
#: transaction.
_MIGRATION = f"""
BEGIN;
ALTER TABLE decision_cache RENAME TO decision_cache_by_pref;
{PREFERENCE_KEY_DDL}
{DECISION_CACHE_DDL}
INSERT OR IGNORE INTO preference_key (pref_hash)
  SELECT DISTINCT pref_hash FROM decision_cache_by_pref;
INSERT OR REPLACE INTO decision_cache
  (policy_id, pref_id, policy_version, behavior, rule_index)
  SELECT old.policy_id, pk.pref_id, old.policy_version, old.behavior,
         old.rule_index
  FROM decision_cache_by_pref AS old
  JOIN preference_key AS pk ON pk.pref_hash = old.pref_hash;
DROP TABLE decision_cache_by_pref;
COMMIT;
"""


class DecisionCache:
    """Reads, writes and counters over the ``decision_cache`` table.

    The object itself holds no connection — every method takes the
    :class:`Database` the caller is already holding (a pooled reader
    for lookups, the serialized writer for populate/invalidate), so the
    pool's locking discipline is preserved.  Counters are process-local
    and lock-protected; :meth:`snapshot` feeds ``GET /metrics``.
    """

    #: The hot-path point lookup: every access must be an index probe —
    #: the preference's handle by ``preference_key``'s unique index, the
    #: cache row by its full primary key, the version guard by the
    #: policy table's integer primary key.
    #: ``repro.analysis.plans.audit_decision_lookup`` gates on exactly
    #: that.
    LOOKUP_SQL = (
        "SELECT dc.behavior, dc.rule_index\n"
        "FROM preference_key AS pk\n"
        "JOIN decision_cache AS dc ON dc.pref_id = pk.pref_id\n"
        "JOIN policy ON policy.policy_id = dc.policy_id\n"
        "           AND policy.version = dc.policy_version\n"
        "WHERE pk.pref_hash = ? AND dc.policy_id = ?"
    )

    #: The warm corpus match: every active policy LEFT JOINed to its
    #: cached decision in one statement.  ``cached = 0`` rows are the
    #: misses the caller must compute (and may write back).  The caller
    #: reads the columns by position, in this order.
    MATCH_SQL = (
        "SELECT policy.policy_id AS policy_id,\n"
        "       policy.name AS name,\n"
        "       policy.version AS version,\n"
        "       dc.behavior AS behavior,\n"
        "       dc.rule_index AS rule_index,\n"
        "       dc.pref_id IS NOT NULL AS cached\n"
        "FROM policy\n"
        "LEFT JOIN decision_cache AS dc\n"
        "       ON dc.policy_id = policy.policy_id\n"
        "      AND dc.pref_id = (SELECT pref_id FROM preference_key\n"
        "                        WHERE pref_hash = ?)\n"
        "      AND dc.policy_version = policy.version\n"
        "WHERE policy.active = 1\n"
        "ORDER BY policy.policy_id"
    )

    #: Registration's decisions: every active policy's lowest rule
    #: index whose body's bit fired (NULLs where none did), one
    #: statement.  Per policy, the candidate rules are a primary-key
    #: range of ``preference_rule`` and each bit a primary-key probe of
    #: ``rule_fired``; the behavior is one more ``preference_rule``
    #: probe.  Every rule body must have a bit for every active policy
    #: (the registration filled them in the same transaction): a
    #: missing bit reads as a rule that did not fire.
    DECIDE_SQL = (
        "INSERT OR REPLACE INTO decision_cache\n"
        "  (policy_id, pref_id, policy_version, behavior, rule_index)\n"
        "SELECT decided.policy_id, decided.pref_id, decided.version,\n"
        "       rule.behavior, rule.rule_index\n"
        "FROM (SELECT policy.policy_id AS policy_id,\n"
        "             policy.version AS version,\n"
        "             pk.pref_id AS pref_id,\n"
        "             (SELECT candidate.rule_index\n"
        "              FROM preference_rule AS candidate\n"
        "              JOIN rule_fired AS bit\n"
        "                ON bit.policy_id = policy.policy_id\n"
        "               AND bit.body_id = candidate.body_id\n"
        "              WHERE candidate.pref_id = pk.pref_id\n"
        "                AND bit.fired = 1\n"
        "              ORDER BY candidate.rule_index\n"
        "              LIMIT 1) AS first_fired\n"
        "      FROM preference_key AS pk\n"
        "      JOIN policy ON policy.active = 1\n"
        "      WHERE pk.pref_hash = ?) AS decided\n"
        "LEFT JOIN preference_rule AS rule\n"
        "       ON rule.pref_id = decided.pref_id\n"
        "      AND rule.rule_index = decided.first_fired"
    )

    _PREF_ID = "SELECT pref_id FROM preference_key WHERE pref_hash = ?"

    _INTERN = "INSERT INTO preference_key (pref_hash) VALUES (?)"

    _INTERN_IF_NEW = (
        "INSERT OR IGNORE INTO preference_key (pref_hash) VALUES (?)")

    #: Interns each hash of a JSON array the store lacks, in one
    #: statement: a registration's distinct bodies.
    _INTERN_BODIES = (
        "INSERT OR IGNORE INTO rule_body (body_hash) "
        "SELECT value FROM json_each(?)"
    )

    _INSERT_RULE = (
        "INSERT OR REPLACE INTO preference_rule "
        "(pref_id, rule_index, body_id, behavior) "
        "SELECT pk.pref_id, ?, body.body_id, ? "
        "FROM preference_key AS pk, rule_body AS body "
        "WHERE pk.pref_hash = ? AND body.body_hash = ?"
    )

    _INSERT = (
        "INSERT OR REPLACE INTO decision_cache "
        "(policy_id, pref_id, policy_version, behavior, rule_index) "
        "VALUES (?, ?, ?, ?, ?)"
    )

    #: One primary-key range per superseded version of the name.
    _INVALIDATE = (
        "DELETE FROM decision_cache WHERE policy_id IN ("
        "SELECT policy_id FROM policy "
        "WHERE name = ? AND site IS ? AND active = 0)"
    )

    _BODY_ID = "SELECT body_id FROM rule_body WHERE body_hash = ?"

    _INTERN_BODY = "INSERT INTO rule_body (body_hash) VALUES (?)"

    _INSERT_BITS = (
        "INSERT OR REPLACE INTO rule_fired (policy_id, body_id, fired) "
        "VALUES (?, ?, ?)"
    )

    #: The bits of the same superseded versions, deleted with their
    #: decisions.
    _INVALIDATE_BITS = (
        "DELETE FROM rule_fired WHERE policy_id IN ("
        "SELECT policy_id FROM policy "
        "WHERE name = ? AND site IS ? AND active = 0)"
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.populated = 0
        self.invalidated = 0
        self.write_errors = 0
        self.repair_races = 0
        self.rule_bodies = 0
        self.bits_evaluated = 0
        self.bits_reused = 0

    # -- schema ---------------------------------------------------------------

    def ensure_schema(self, db: Database) -> None:
        """Create the tables, or rebuild a table keyed by ``pref_hash``
        (any earlier layout) in place, rows kept."""
        if "pref_hash" in db.table_columns("decision_cache"):
            try:
                db.executescript(_MIGRATION)
            except StorageError:
                db.rollback()
                raise
        db.executescript(PREFERENCE_KEY_DDL + DECISION_CACHE_DDL
                         + RULE_BODY_DDL + RULE_FIRED_DDL
                         + PREFERENCE_RULE_DDL)
        with self._lock:
            self.rule_bodies = int(
                db.scalar("SELECT COUNT(*) FROM rule_body"))

    # -- reads ----------------------------------------------------------------

    def lookup(self, db: Database, pref_hash: str, policy_id: int
               ) -> tuple[str | None, int | None] | None:
        """The cached decision for one (preference, policy) cell.

        Returns ``None`` on a miss; on a hit, the ``(behavior,
        rule_index)`` pair — possibly ``(None, None)``, a cached
        negative decision.
        """
        row = db.query_one(self.LOOKUP_SQL, (pref_hash, int(policy_id)))
        with self._lock:
            if row is None:
                self.misses += 1
            else:
                self.hits += 1
        if row is None:
            return None
        return (
            row["behavior"],
            int(row["rule_index"]) if row["rule_index"] is not None
            else None,
        )

    def match_rows(self, db: Database, pref_hash: str) -> list[Any]:
        """One statement: every active policy with its cached decision
        (or ``cached = 0`` where none is materialized).  Hit/miss
        counters are the caller's to record — it knows which misses it
        goes on to compute."""
        return db.query(self.MATCH_SQL, (pref_hash,))

    def row_count(self, db: Database) -> int:
        return int(db.scalar("SELECT COUNT(*) FROM decision_cache"))

    # -- writes ---------------------------------------------------------------

    def store_rows(self, db: Database,
                   rows: Sequence[tuple]) -> int:
        """Materialize decided cells: ``(pref_hash, policy_id,
        policy_version, behavior, rule_index)`` tuples.

        Each distinct hash is resolved to its integer handle once, then
        the rows are written as integers.  The caller owns transaction
        scope (population must be atomic — a crash mid-populate may not
        leave partial rows; see ``tests/test_decision_cache.py``).
        """
        if not rows:
            return 0
        pref_ids = {pref_hash: self._pref_id(db, pref_hash)
                    for pref_hash in dict.fromkeys(row[0] for row in rows)}
        db.executemany(self._INSERT, [
            (policy_id, pref_ids[pref_hash], version, behavior, rule_index)
            for pref_hash, policy_id, version, behavior, rule_index in rows])
        with self._lock:
            self.populated += len(rows)
        return len(rows)

    def _pref_id(self, db: Database, pref_hash: str) -> int:
        """The integer handle of *pref_hash*, assigned on its first
        write (under the serialized writer, so no other write can
        intern the same hash in between)."""
        pref_id = db.scalar(self._PREF_ID, (pref_hash,))
        if pref_id is None:
            pref_id = db.execute(self._INTERN, (pref_hash,)).lastrowid
        return int(pref_id)

    def store_bits(self, db: Database,
                   bits: Sequence[tuple[str, int, int]]) -> int:
        """Record evaluated rule bits: ``(body_hash, policy_id, fired)``
        tuples, each body interned on its first write.  The caller owns
        transaction scope, as for :meth:`store_rows`."""
        if not bits:
            return 0
        body_ids = {body_hash: self._body_id(db, body_hash)
                    for body_hash in dict.fromkeys(bit[0] for bit in bits)}
        db.executemany(self._INSERT_BITS, [
            (policy_id, body_ids[body_hash], fired)
            for body_hash, policy_id, fired in bits])
        return len(bits)

    def _body_id(self, db: Database, body_hash: str) -> int:
        """The integer handle of *body_hash*, assigned on its first
        write (under the serialized writer, as for :meth:`_pref_id`)."""
        body_id = db.scalar(self._BODY_ID, (body_hash,))
        if body_id is None:
            body_id = db.execute(self._INTERN_BODY, (body_hash,)).lastrowid
            with self._lock:
                self.rule_bodies += 1
        return int(body_id)

    def store_rules(self, db: Database, pref_hash: str,
                    rules: Sequence[tuple[str, str]]) -> None:
        """Write *pref_hash*'s rule list: ``(body_hash, behavior)`` per
        rule, in rule order.  The preference and every body the store
        lacks are interned first.  The caller owns transaction scope."""
        db.execute(self._INTERN_IF_NEW, (pref_hash,))
        bodies = json.dumps(list(dict.fromkeys(body for body, _ in rules)))
        interned = db.execute(self._INTERN_BODIES, (bodies,)).rowcount
        db.executemany(self._INSERT_RULE, [
            (index, behavior, pref_hash, body_hash)
            for index, (body_hash, behavior) in enumerate(rules)])
        with self._lock:
            self.rule_bodies += interned

    def decide(self, db: Database, pref_hash: str) -> int:
        """Decide every active policy for the stored preference
        *pref_hash* from its rule rows and their bits
        (:data:`DECIDE_SQL`); returns the decision rows written.  The
        caller owns transaction scope."""
        written = db.execute(self.DECIDE_SQL, (pref_hash,)).rowcount
        with self._lock:
            self.populated += written
        return written

    def record_bits(self, evaluated: int, reused: int) -> None:
        """Count (body, policy) pairs evaluated against the policy
        tables and pairs answered from stored bits."""
        with self._lock:
            self.bits_evaluated += evaluated
            self.bits_reused += reused

    def invalidate_inactive(self, db: Database, name: str,
                            site: str | None) -> int:
        """Drop the cached decisions and rule bits of every superseded
        version of (*name*, *site*); returns decision rows deleted.

        Called by the installer inside its write transaction, right
        after a version bump deactivates the old ``policy_id`` — the
        delete and the install commit or roll back together.
        """
        db.execute(self._INVALIDATE_BITS, (name, site))
        cursor = db.execute(self._INVALIDATE, (name, site))
        deleted = max(0, cursor.rowcount)
        with self._lock:
            self.invalidated += deleted
        return deleted

    def record_hits(self, hits: int, misses: int) -> None:
        """Fold a bulk match's hit/miss split into the counters."""
        with self._lock:
            self.hits += hits
            self.misses += misses

    def record_write_error(self) -> None:
        with self._lock:
            self.write_errors += 1

    def record_repair_race(self, stale: int) -> None:
        """Count listed policy versions a racing install deactivated
        before the miss-repair query could decide them (each one forces
        the match to re-read)."""
        with self._lock:
            self.repair_races += stale

    # -- introspection --------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
                "populated": self.populated,
                "invalidated": self.invalidated,
                "write_errors": self.write_errors,
                "repair_races": self.repair_races,
                "rule_bodies": self.rule_bodies,
                "bits_evaluated": self.bits_evaluated,
                "bits_reused": self.bits_reused,
            }


def decision_rows(pref_hash: str,
                  actives: Iterable[tuple[int, int]],
                  fired: dict[int, tuple[str, int]]) -> list[tuple]:
    """Build :meth:`DecisionCache.store_rows` tuples for every active
    policy, negatives included.

    *actives* is ``(policy_id, version)`` pairs; *fired* the bulk
    plan's ``{policy_id: (behavior, rule_index)}``.  Policies absent
    from *fired* become cached negative decisions (NULL behavior).
    """
    rows: list[tuple] = []
    for policy_id, version in actives:
        behavior, rule_index = fired.get(int(policy_id), (None, None))
        rows.append((pref_hash, int(policy_id), int(version),
                     behavior, rule_index))
    return rows
