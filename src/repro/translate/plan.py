"""Compile-once preference plans: parameterized SQL, executed many times.

The paper's speedup argument rests on two facts: "the P3P policy could
be checked ... using a single query" (Section 4) and the preference-
conversion cost being paid once, not per match (Section 6.3.2).  The
literal pipeline in :mod:`repro.translate.appel_to_sql` honors neither
fully — it splices the applicable policy id into the SQL text (so a
translation is pinned to one policy) and runs one round-trip per rule.

A :class:`CompiledPlan` is the compile-once shape:

* every rule's SQL carries a ``?`` placeholder where the literal
  pipeline spliced the policy id, so one compilation executes against
  *any* policy — plan caches become O(preferences), not
  O(preferences x policies), and installing a new policy version
  invalidates nothing;
* the ordered first-rule-wins loop is folded into one compound
  statement — ``UNION ALL`` members tagged with their rule index,
  ``ORDER BY rule_index LIMIT 1`` — so a warm check is exactly one SQL
  round-trip regardless of rule count.

A :class:`BulkPlan` generalizes the compiled plan from policy-at-a-time
to **set-at-a-time**: the ``?`` bind is dropped and the ApplicablePolicy
relation becomes *every installed policy*, so one statement returns
``(policy_id, behavior, rule_index)`` for the whole corpus.  First-rule-
wins per policy is expressed with a window function —
``MIN(rule_index) OVER (PARTITION BY policy_id)`` — instead of
``ORDER BY rule_index LIMIT 1``, which only works for a single policy.

A :class:`BodyPlan` is the unit preferences share: one rule *body*
(its connective and expressions, without behavior or position) compiled
set-at-a-time against the stored rule bits of every active policy, so
the server evaluates each (body, policy) pair once however many
preferences contain the body.

:class:`TranslationCache` (the bounded, thread-safe LRU the serving
layer shares) lives here too: it caches compiled plans keyed by
preference content hash alone.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable

from repro.storage.database import Database

#: The ApplicablePolicy relation with the policy id as a bind parameter.
#: Each rule embeds this derived table exactly once, so a compiled rule
#: takes exactly one parameter and a compiled plan takes one per rule
#: (the same policy id, repeated).
APPLICABLE_POLICY_PARAM = "SELECT ? AS policy_id"


@dataclass(frozen=True)
class PlanRule:
    """One APPEL rule compiled to parameterized SQL.

    The SQL selects ``behavior`` and ``rule_index`` columns and carries
    one ``?`` placeholder for the applicable policy id.
    """

    behavior: str
    rule_index: int
    sql: str


@dataclass(frozen=True)
class CompiledPlan:
    """A full preference compiled once, executable against any policy.

    ``sql`` is the single-round-trip statement: every rule as a
    ``UNION ALL`` member, ``ORDER BY rule_index LIMIT 1`` picking the
    first rule that fires.  ``execute`` binds the policy id once per
    member and runs it as one query.
    """

    rules: tuple[PlanRule, ...]
    sql: str

    @property
    def parameter_count(self) -> int:
        """Bind parameters the combined statement takes (one per rule)."""
        return len(self.rules)

    def parameters(self, policy_id: int) -> tuple[int, ...]:
        """The bind tuple for *policy_id* — the id once per member."""
        return (int(policy_id),) * len(self.rules)

    def execute(self, db: Database,
                policy_id: int) -> tuple[str | None, int | None]:
        """One round-trip: (behavior, rule index) of the first rule that
        fires against *policy_id*, or (None, None)."""
        if not self.rules:
            return None, None
        row = db.query_one(self.sql, self.parameters(policy_id))
        if row is None:
            return None, None
        return row["behavior"], int(row["rule_index"])

    def execute_serial(self, db: Database,
                       policy_id: int) -> tuple[str | None, int | None]:
        """Rule-at-a-time execution (one round-trip per rule probed).

        Differential reference for :meth:`execute`; the serving path
        never uses it.
        """
        for rule in self.rules:
            if db.query_one(rule.sql, (int(policy_id),)) is not None:
                return rule.behavior, rule.rule_index
        return None, None

    def size_chars(self) -> int:
        """Memory proxy: characters of SQL this plan pins in a cache."""
        return len(self.sql)


def combine_rules(rules: tuple[PlanRule, ...]) -> str:
    """Fold per-rule SELECTs into the single first-rule-wins statement."""
    if not rules:
        return ""
    members = "\nUNION ALL\n".join(rule.sql for rule in rules)
    return members + "\nORDER BY rule_index\nLIMIT 1"


@dataclass(frozen=True)
class BulkPlan:
    """A preference compiled against the *whole* policy corpus at once.

    ``sql`` returns one ``(policy_id, behavior, rule_index)`` row per
    matching policy — the first rule that fires for each, selected via
    ``MIN(rule_index) OVER (PARTITION BY policy_id)``.  Policies no
    rule fires against produce no row; :meth:`execute` returns a dict,
    so absence is observable.  The statement takes no bind parameters:
    every installed (active) policy is evaluated in one round trip.
    """

    rules: tuple[PlanRule, ...]
    sql: str

    def execute(self, db: Database) -> dict[int, tuple[str, int]]:
        """One round trip: ``{policy_id: (behavior, rule_index)}`` for
        every policy a rule fired against (others are absent)."""
        if not self.rules:
            return {}
        rows = db.query(self.sql)
        return {
            int(row["policy_id"]): (row["behavior"],
                                    int(row["rule_index"]))
            for row in rows
        }

    def size_chars(self) -> int:
        """Memory proxy: characters of SQL this plan pins in a cache."""
        return len(self.sql)


def combine_bulk_rules(rules: tuple[PlanRule, ...]) -> str:
    """Fold bulk rule members into the set-at-a-time statement.

    ``ORDER BY rule_index LIMIT 1`` cannot express first-rule-wins for
    many policies at once; the window function computes each policy's
    winning rule index across the UNION ALL members, and the outer
    filter keeps exactly that row per policy (rule indexes are unique
    within a policy, so no ties).
    """
    if not rules:
        return ""
    members = "\nUNION ALL\n".join(rule.sql for rule in rules)
    return (
        "SELECT policy_id, behavior, rule_index\n"
        "FROM (\n"
        "SELECT policy_id, behavior, rule_index,\n"
        "       MIN(rule_index) OVER (PARTITION BY policy_id)"
        " AS first_rule_index\n"
        "FROM (\n" + members + "\n) AS fired\n"
        ") AS ranked\n"
        "WHERE rule_index = first_rule_index\n"
        "ORDER BY policy_id"
    )


@dataclass(frozen=True)
class BodyPlan:
    """One rule body compiled against every active policy at once.

    ``sql`` takes one bind, the body's ``rule_body`` hash, and returns
    one ``(policy_id, fired, fresh)`` row per active policy: the stored
    ``rule_fired`` bit where one exists (``fresh = 0``), else the body
    evaluated against the policy tables (``fresh = 1``).  ``COALESCE``
    evaluates the body only where no bit is stored, so a known pair
    costs one primary-key probe.  A hash never interned — or ``None`` —
    reads no bits: every active policy is evaluated.
    """

    sql: str

    def execute(self, db: Database, body_hash: str | None) -> list:
        """One round trip: the ``(policy_id, fired, fresh)`` rows."""
        return db.query(self.sql, (body_hash,))

    def size_chars(self) -> int:
        """Memory proxy: characters of SQL this plan pins in a cache."""
        return len(self.sql)


def body_statement(source: str, clause: str) -> str:
    """The :class:`BodyPlan` statement for a body's boolean *clause*
    over the ApplicablePolicy *source* (which the clause correlates
    with as ``applicable_policy``)."""
    return (
        "SELECT applicable_policy.policy_id AS policy_id,\n"
        "       COALESCE(bit.fired,\n"
        "                CASE WHEN " + clause + "\n"
        "                THEN 1 ELSE 0 END) AS fired,\n"
        "       bit.fired IS NULL AS fresh\n"
        "FROM (\n" + source + "\n) AS applicable_policy\n"
        "LEFT JOIN rule_fired AS bit\n"
        "       ON bit.policy_id = applicable_policy.policy_id\n"
        "      AND bit.body_id = (SELECT body_id FROM rule_body\n"
        "                         WHERE body_hash = ?)"
    )


class TranslationCache:
    """A bounded, thread-safe LRU cache for compiled preference plans.

    Keys are preference content hashes — a :class:`CompiledPlan` is
    policy-independent, so one entry serves every policy id and the
    cache grows as O(preferences).  ``get`` refreshes recency; ``put``
    evicts the least recently used entry beyond *maxsize*;
    ``invalidate`` drops keys matching a predicate (plans never go
    stale when policies change, but callers caching anything
    policy-derived may still need it).
    """

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable):
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every key for which *predicate* is true; returns count."""
        with self._lock:
            stale = [key for key in self._entries if predicate(key)]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def keys(self) -> list[Hashable]:
        """Snapshot of cached keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def hit_rate(self) -> float:
        with self._lock:
            lookups = self.hits + self.misses
            return (self.hits / lookups) if lookups else 0.0

    def size_chars(self) -> int:
        """Memory proxy: total SQL characters pinned by cached plans."""
        with self._lock:
            return sum(value.size_chars() for value in self._entries.values()
                       if hasattr(value, "size_chars"))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries
