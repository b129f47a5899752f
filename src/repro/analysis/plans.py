"""EXPLAIN-plan auditing of generated SQL (the Figure 14 fast path).

The paper's performance claim rests on compiled preference SQL being
*index driven* against the optimized schema: every hot-table access
(``statement``, ``purpose``, ``recipient``, ``data``, ``category``)
should resolve through the ``idx_*`` indexes of
:mod:`repro.storage.optimized_schema` or a primary-key lookup, never a
full scan.  Nothing in the repo ever verified that — the SQL is a
generated artifact nobody reads.  This module reads it:

* :func:`audit_statement` runs ``EXPLAIN QUERY PLAN`` (via
  :meth:`repro.storage.database.Database.explain`) and flags ``SCAN``
  steps over hot tables (``full-scan`` findings) — a regression in a
  translator or schema index shows up here before it shows up in a
  latency chart;
* :func:`taint_findings` checks that untrusted strings (behaviors,
  attribute values, policy names...) reach the generated SQL only in a
  neutralized form — inside a properly quoted region produced by
  ``sql_literal``/``quote_ident`` or replaced by a ``?`` bind — never
  as bare SQL text (``tainted-sql`` findings);
* :func:`audit_compiled_plan` applies both to a
  :class:`~repro.translate.plan.CompiledPlan` (plus a bind-arity
  cross-check), :func:`audit_bulk_plan` to a set-at-a-time
  :class:`~repro.translate.plan.BulkPlan`, :func:`audit_body_plan` to
  a rule body's :class:`~repro.translate.plan.BodyPlan`, and
  :func:`audit_translated_ruleset` to the literal pipeline's per-rule
  queries;
* :func:`audit_decision_lookup` holds the decision cache to its own
  bar: a ``decision_cache`` access that is not an index point lookup
  is a ``cache-scan`` error — a cache read slower than the computation
  it memoizes;
* :func:`audit_corpus` is the CI gate: it shreds a policy corpus into
  a fresh optimized store and audits every preference's compiled plan
  *and* literal translation against it, also running the
  reachability analyzers of :mod:`repro.analysis.rules` with their
  differential confirmation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.analysis.findings import Finding
from repro.analysis.rules import analyze_ruleset, differential_reachability
from repro.appel.model import Ruleset
from repro.p3p.model import Policy
from repro.storage.database import Database
from repro.storage.shredder import PolicyStore
from repro.translate.appel_to_sql import OptimizedSqlTranslator
from repro.translate.plan import BodyPlan, BulkPlan, CompiledPlan

#: Tables on the per-check critical path of the optimized schema.  A full
#: scan of any of these turns O(index probe) checks into O(corpus) ones.
HOT_TABLES = frozenset(
    {"statement", "purpose", "recipient", "data", "category"}
)

#: Generic (Figure 8) node tables on the structural XQuery compiler's
#: critical path.  Same reasoning as :data:`HOT_TABLES`, different
#: schema: the pedagogical decomposition names them per element, and the
#: structural plan probes them through the per-table ``policy_id``
#: indexes of ``create_structural_indexes`` — a SCAN here means those
#: indexes are missing or the compiler stopped emitting the probe.
HOT_NODE_TABLES = frozenset(
    {"statement", "purpose", "recipient", "data_group", "data",
     "categories"}
)

#: What a rule body's statement must probe: the hot shredded tables,
#: the body's handle, and the stored bit it reads before evaluating
#: anything.
BODY_HOT_TABLES = HOT_TABLES | {"rule_body", "rule_fired"}

#: Tables whose whole point is O(1) access: a cache that the planner
#: reads by scanning is slower than not having the cache at all.  Any
#: access to these that is not an index probe is an error finding.
#: ``preference_key`` maps a preference hash to the integer handle the
#: cache rows are keyed by, so every cache read joins through it.
CACHE_TABLES = frozenset({"decision_cache", "preference_key"})

#: ``FROM table AS alias`` / ``JOIN table AS alias`` in live SQL text.
_TABLE_ALIAS = re.compile(
    r"\b(?:FROM|JOIN)\s+([A-Za-z_][A-Za-z0-9_]*)\s+AS\s+"
    r"([A-Za-z_][A-Za-z0-9_]*)", re.IGNORECASE)

#: Quoted regions of SQL text: string literals (single quotes, with ''
#: escapes — what ``sql_literal`` emits) and quoted identifiers (double
#: quotes with "" escapes — what ``quote_ident`` emits).  Text inside
#: these regions is inert; taint only matters outside them.
_QUOTED_REGION = re.compile(r"'(?:[^']|'')*'|\"(?:[^\"]|\"\")*\"")


def strip_quoted(sql: str) -> str:
    """Blank out every properly quoted region of *sql*.

    Replacement preserves length with spaces so any reported offsets
    stay meaningful; what remains is the *live* SQL text where an
    untrusted string would be interpreted as syntax.
    """
    return _QUOTED_REGION.sub(lambda m: " " * len(m.group()), sql)


def table_aliases(sql: str) -> dict[str, str]:
    """Alias -> table for every ``FROM/JOIN table AS alias`` in *sql*.

    EXPLAIN QUERY PLAN names a step by its alias (``SEARCH dc USING
    PRIMARY KEY ...``), so a rule keyed on table names maps the alias
    back to its table before it compares.
    """
    return {alias: table
            for table, alias in _TABLE_ALIAS.findall(strip_quoted(sql))}


def taint_findings(sql: str, untrusted: Iterable[str],
                   where: str) -> list[Finding]:
    """Flag untrusted strings that appear in *sql* outside quotes/binds.

    Digit-only strings are skipped: a numeric value that coincides with
    a numeric SQL token (``1`` vs the ``1 = 1`` TRUE clause, a rule
    index, a policy id bound by the caller) is indistinguishable from
    legitimately generated arithmetic and cannot carry injected syntax
    by itself.
    """
    live = strip_quoted(sql)
    findings: list[Finding] = []
    seen: set[str] = set()
    for value in untrusted:
        if not value or value in seen:
            continue
        seen.add(value)
        if value.isdigit():
            continue
        pattern = (r"(?<![A-Za-z0-9_])" + re.escape(value)
                   + r"(?![A-Za-z0-9_])")
        if re.search(pattern, live):
            findings.append(Finding(
                "error", "tainted-sql",
                f"untrusted string {value!r} reaches the SQL text outside "
                "any quoted literal or ? bind — it must pass through "
                "sql_literal/quote_ident or a parameter",
                where=where,
            ))
    return findings


def scan_findings(db: Database, sql: str, parameters: Sequence = (),
                  where: str = "<statement>",
                  hot_tables: frozenset[str] = HOT_TABLES) -> list[Finding]:
    """Flag full scans of hot tables in the plan SQLite picks for *sql*."""
    findings: list[Finding] = []
    aliases = table_aliases(sql)
    for step in db.explain(sql, parameters):
        table = aliases.get(step.table, step.table)
        if step.is_scan and table in hot_tables:
            findings.append(Finding(
                "error", "full-scan",
                f"planner step {step.detail!r} reads every row of hot "
                f"table {table!r} instead of probing an index",
                where=where,
            ))
    return findings


def audit_statement(db: Database, sql: str, parameters: Sequence = (),
                    where: str = "<statement>",
                    untrusted: Iterable[str] = ()) -> list[Finding]:
    """Scan audit + taint audit of one SQL statement."""
    findings = scan_findings(db, sql, parameters, where)
    findings.extend(taint_findings(sql, untrusted, where))
    return findings


def plan_untrusted_strings(ruleset: Ruleset) -> list[str]:
    """The strings of a ruleset an attacker (or a sloppy preference
    author) controls: behaviors and every attribute value in the body."""
    collected: list[str] = []

    def visit(expr) -> None:
        for _, value in expr.attributes:
            collected.append(value)
        for sub in expr.subexpressions:
            visit(sub)

    for rule in ruleset.rules:
        collected.append(rule.behavior)
        for expr in rule.expressions:
            visit(expr)
    return collected


def audit_compiled_plan(db: Database, plan: CompiledPlan,
                        where: str = "<plan>",
                        untrusted: Iterable[str] = (),
                        probe_policy_id: int = 1) -> list[Finding]:
    """Audit one compiled plan: index usage, taint, bind arity.

    ``probe_policy_id`` only parameterizes the EXPLAIN probe; the plan
    chosen by SQLite does not depend on the bound value.
    """
    findings: list[Finding] = []
    placeholders = strip_quoted(plan.sql).count("?")
    if placeholders != plan.parameter_count:
        findings.append(Finding(
            "error", "bind-arity",
            f"plan declares {plan.parameter_count} parameter(s) (one per "
            f"rule) but its SQL carries {placeholders} '?' "
            "placeholder(s): execute() would mis-bind",
            where=where,
        ))
        return findings  # the EXPLAIN probe below could not bind either
    if plan.rules:
        findings.extend(scan_findings(
            db, plan.sql, plan.parameters(probe_policy_id), where))
    findings.extend(taint_findings(plan.sql, untrusted, where))
    return findings


def audit_structural_plan(db: Database, plan,
                          where: str = "<structural>",
                          untrusted: Iterable[str] = (),
                          probe_policy_id: int = 1) -> list[Finding]:
    """Audit one structural XQuery plan: index usage, taint, bind arity.

    *db* must carry the generic (Figure 8) schema plus the structural
    ``policy_id`` indexes; the scan audit runs against
    :data:`HOT_NODE_TABLES` since the structural compiler only ever
    touches the pedagogical node tables.  Bind arity is checked against
    the plan's full bind tuple (policy-id sentinels *and* attribute
    values), catching both a dropped placeholder and a value that leaked
    into the SQL text instead of a ``?``.
    """
    findings: list[Finding] = []
    placeholders = strip_quoted(plan.sql).count("?")
    if placeholders != plan.parameter_count:
        findings.append(Finding(
            "error", "bind-arity",
            f"structural plan declares {plan.parameter_count} "
            f"parameter(s) but its SQL carries {placeholders} '?' "
            "placeholder(s): execute() would mis-bind",
            where=where,
        ))
        return findings  # the EXPLAIN probe below could not bind either
    if plan.rules:
        findings.extend(scan_findings(
            db, plan.sql, plan.parameters(probe_policy_id), where,
            hot_tables=HOT_NODE_TABLES))
    findings.extend(taint_findings(plan.sql, untrusted, where))
    return findings


def audit_bulk_plan(db: Database, plan: BulkPlan,
                    where: str = "<bulk>",
                    untrusted: Iterable[str] = ()) -> list[Finding]:
    """Audit one bulk plan: index usage, taint, bind arity.

    A bulk plan deliberately enumerates every applicable policy, so a
    scan of the ``policy`` table is expected; the hot shredded tables
    must still be probed through their indexes per policy.  It binds
    nothing, so a ``?`` in its SQL is a bind-arity error.
    """
    findings: list[Finding] = []
    placeholders = strip_quoted(plan.sql).count("?")
    if placeholders:
        findings.append(Finding(
            "error", "bind-arity",
            f"bulk plan takes no parameters but its SQL carries "
            f"{placeholders} '?' placeholder(s): execute() would "
            "mis-bind",
            where=where,
        ))
        return findings  # the EXPLAIN probe below could not bind either
    if plan.rules:
        findings.extend(scan_findings(db, plan.sql, (), where))
    findings.extend(taint_findings(plan.sql, untrusted, where))
    return findings


def audit_body_plan(db: Database, plan: BodyPlan,
                    where: str = "<body>",
                    untrusted: Iterable[str] = ()) -> list[Finding]:
    """Audit one rule-body plan: index usage, taint, bind arity.

    Like a bulk plan it enumerates every active policy, so a scan of
    ``policy`` is expected; the stored bit and the hot shredded tables
    must be probed by key per policy (:data:`BODY_HOT_TABLES`).  *db*
    must carry the rule-bit tables.
    """
    placeholders = strip_quoted(plan.sql).count("?")
    if placeholders != 1:
        return [Finding(
            "error", "bind-arity",
            f"body plan binds one rule_body hash but its SQL carries "
            f"{placeholders} '?' placeholder(s): execute() would "
            "mis-bind",
            where=where,
        )]
    findings = scan_findings(db, plan.sql, ("probe",), where,
                             hot_tables=BODY_HOT_TABLES)
    findings.extend(taint_findings(plan.sql, untrusted, where))
    return findings


def audit_decision_lookup(db: Database, sql: str,
                          parameters: Sequence = (),
                          where: str = "<cache>") -> list[Finding]:
    """Flag any decision-cache access that is not an index probe.

    The scan audit alone would miss this — the cache tables are not hot
    shredded tables — but the cache's contract is stricter than "no
    full scan of hot tables": every read of ``decision_cache`` must go
    through its primary key, and the ``preference_key`` join that turns
    a preference hash into the key's ``pref_id`` through its unique
    index, or the materialization is pure overhead.  Steps named by an
    alias count as their table.
    """
    findings = scan_findings(db, sql, parameters, where)
    aliases = table_aliases(sql)
    for step in db.explain(sql, parameters):
        table = aliases.get(step.table, step.table)
        if table in CACHE_TABLES and not step.uses_index:
            findings.append(Finding(
                "error", "cache-scan",
                f"planner step {step.detail!r} reads decision cache "
                f"table {table!r} without an index probe — the "
                "cache read would cost more than the match it memoizes",
                where=where,
            ))
    return findings


def audit_translated_ruleset(db: Database, translated,
                             where: str = "<literal>",
                             untrusted: Iterable[str] = ()) -> list[Finding]:
    """Audit the literal pipeline's per-rule queries (no parameters)."""
    findings: list[Finding] = []
    for index, rule in enumerate(translated.rules):
        label = f"{where}/rule[{index}]"
        findings.extend(scan_findings(db, rule.sql, (), label))
        findings.extend(taint_findings(rule.sql, untrusted, label))
    return findings


# -- the corpus-wide gate -----------------------------------------------------

@dataclass(frozen=True)
class CorpusAuditReport:
    """Everything ``p3pdb audit`` (and the CI gate) checks in one pass."""

    policies: int
    preferences: int
    plans_explained: int
    statements_explained: int
    findings: tuple[Finding, ...]
    reachability: tuple[Finding, ...]
    differential_ok: bool
    differential_violations: tuple[tuple[str, str, int], ...] = field(
        default_factory=tuple)
    bulk_plans_explained: int = 0
    cache_lookups_explained: int = 0
    structural_plans_explained: int = 0
    body_plans_explained: int = 0

    @property
    def ok(self) -> bool:
        return (self.differential_ok
                and not any(f.severity == "error" for f in self.findings))


def audit_corpus(policies: Sequence[Policy],
                 preferences: Mapping[str, Ruleset],
                 translator=None,
                 audit_literal: bool = True,
                 db: Database | None = None) -> CorpusAuditReport:
    """Shred *policies* into a fresh optimized store and audit every
    preference's generated SQL against it.

    For each preference: the compiled plan and its bulk forms (full
    corpus and a two-id micro-batch) are explained once each (they are
    policy-independent), so is each rule body's plan the first time a
    preference brings it, and, when *audit_literal* is set, the literal
    translation is explained against every policy id (its SQL splices
    the id into the text, so each policy yields distinct statements).
    Reachability findings for each ruleset are differentially confirmed
    over the whole corpus — see
    :func:`repro.analysis.rules.differential_reachability`.

    With *db* the audit runs against an existing optimized store — a
    cluster replica refreshed from a primary backup, say — instead of
    shredding a fresh one.  Nothing is installed or migrated: policy
    ids are read from the store's own ``policy`` table, and every
    EXPLAIN probe is a pure read, so the audit is safe on a database
    the tier treats as read-only.
    """
    from repro.storage.decision_cache import DecisionCache

    if translator is None:
        translator = OptimizedSqlTranslator()
    if db is None:
        store = PolicyStore(Database())
        policy_ids = [store.install_policy(policy).policy_id
                      for policy in policies]
        audit_db = store.db
        DecisionCache().ensure_schema(audit_db)
    else:
        audit_db = db
        policy_ids = [int(row["policy_id"]) for row in audit_db.query(
            "SELECT policy_id FROM policy ORDER BY policy_id")]

    # The structural XQuery plans run against the generic schema, so
    # they get their own (empty) database to EXPLAIN against — the
    # planner's choice of index does not depend on the row counts.
    from repro.storage.generic_schema import (
        create_generic_schema,
        create_structural_indexes,
    )
    from repro.xquery.structural import compile_ruleset as compile_structural
    generic_db = Database()
    create_generic_schema(generic_db)
    create_structural_indexes(generic_db)

    findings: list[Finding] = []
    reachability: list[Finding] = []
    violations: list[tuple[str, str, int]] = []
    plans = 0
    bulk_plans = 0
    structural_plans = 0
    statements = 0
    body_sql: set[str] = set()

    #: The cache's own statements are static SQL — audit them once
    #: against the fresh store, with representative binds.
    cache_statements = (
        ("cache/lookup", DecisionCache.LOOKUP_SQL, ("probe", 1)),
        ("cache/match", DecisionCache.MATCH_SQL, ("probe",)),
    )
    for label, sql, parameters in cache_statements:
        findings.extend(audit_decision_lookup(
            audit_db, sql, parameters, where=label))
    cache_lookups = len(cache_statements)
    statements += cache_lookups

    for name, ruleset in preferences.items():
        untrusted = plan_untrusted_strings(ruleset)

        plan = translator.compile_ruleset(ruleset)
        findings.extend(audit_compiled_plan(
            audit_db, plan, where=f"{name}/plan", untrusted=untrusted))
        plans += 1
        statements += 1

        bulk = translator.compile_bulk(ruleset)
        findings.extend(audit_bulk_plan(
            audit_db, bulk, where=f"{name}/bulk", untrusted=untrusted))
        bulk_plans += 1
        statements += 1

        for index, rule in enumerate(ruleset.rules):
            body = translator.compile_body(rule)
            if body.sql not in body_sql:
                body_sql.add(body.sql)
                findings.extend(audit_body_plan(
                    audit_db, body, where=f"{name}/body[{index}]",
                    untrusted=untrusted))
                statements += 1

        structural = compile_structural(ruleset)
        findings.extend(audit_structural_plan(
            generic_db, structural, where=f"{name}/structural",
            untrusted=untrusted))
        structural_plans += 1
        statements += 1

        if audit_literal:
            from repro.translate.appel_to_sql import (
                applicable_policy_literal,
            )
            for policy_id in policy_ids:
                translated = translator.translate_ruleset(
                    ruleset, applicable_policy_literal(policy_id))
                findings.extend(audit_translated_ruleset(
                    audit_db, translated,
                    where=f"{name}/literal/policy[{policy_id}]",
                    untrusted=untrusted))
                statements += len(translated.rules)

        ruleset_findings = analyze_ruleset(ruleset)
        for finding in ruleset_findings:
            reachability.append(Finding(
                finding.severity, finding.code, finding.message,
                rule_index=finding.rule_index, where=name))
        report = differential_reachability(ruleset, policies)
        for policy_name, rule_index in report.violations:
            violations.append((name, policy_name, rule_index))

    return CorpusAuditReport(
        policies=len(policy_ids),
        preferences=len(preferences),
        plans_explained=plans,
        statements_explained=statements,
        findings=tuple(findings),
        reachability=tuple(reachability),
        differential_ok=not violations,
        differential_violations=tuple(violations),
        bulk_plans_explained=bulk_plans,
        cache_lookups_explained=cache_lookups,
        structural_plans_explained=structural_plans,
        body_plans_explained=len(body_sql),
    )
