"""Schema-aware SQL contract checking (every statement, before it runs).

The plan auditor of :mod:`repro.analysis.plans` asks *how* a statement
runs (index probe or scan); this module asks whether it is *allowed to
run at all*.  Every statement any of the six engines can emit — the
literal translator, :class:`~repro.translate.plan.CompiledPlan`,
:class:`~repro.translate.plan.BulkPlan`, the XTABLE compiler, and the
structural XQuery compiler, plus the static SQL constants of
``storage/``, ``server/`` and ``net/`` — is validated against a *schema
catalog* without executing it:

* every referenced table and column exists in the tier's schema
  (``unknown-table`` / ``unknown-column``), and the statement prepares
  at all (``sql-prepare-error``);
* the live ``?`` placeholder count matches the bind arity the caller
  declares — ``parameters()`` for plans, the documented tuple for
  static statements (``bind-arity``);
* the statement writes only inside its tier's *write-set*: a replica
  or read-path statement carries an empty write-set, so an INSERT
  sneaking onto it is flagged statically, not left to the
  ``log_checks=False`` convention (``illegal-write``);
* hot-path predicates resolve through a declared index
  (``unindexed-hot-predicate``).

The mechanism is SQLite's own front end: each statement is *prepared*
(never stepped) against a throwaway in-memory database carrying one
schema family, with an authorizer callback recording every table the
statement would read or write —
:meth:`repro.storage.database.Database.statement_actions`.  SQLite
resolves names, expands ``*``, and classifies reads vs writes exactly
as the serving path would, so the checker cannot drift from the
engine's actual semantics.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.analysis.findings import Finding
from repro.analysis.plans import (
    BODY_HOT_TABLES,
    HOT_NODE_TABLES,
    HOT_TABLES,
    strip_quoted,
    table_aliases,
)
from repro.appel.model import Ruleset
from repro.errors import StorageError, TranslationTooComplexError
from repro.p3p.model import Policy
from repro.storage.database import Database

__all__ = [
    "SqlContractReport",
    "StatementContract",
    "check_contracts",
    "check_statement",
    "contract_report",
    "engine_contracts",
    "generic_catalog",
    "optimized_catalog",
    "static_contracts",
]

#: Authorizer action codes that modify rows.  DDL actions are excluded
#: deliberately: schema creation runs through the ``create_*_schema``
#: helpers at install time, never through a checked serving statement,
#: so any CREATE/DROP reaching a contract would fail the write-set test
#: as soon as it is added here — and none should.
_WRITE_ACTIONS = {
    sqlite3.SQLITE_INSERT: "INSERT",
    sqlite3.SQLITE_UPDATE: "UPDATE",
    sqlite3.SQLITE_DELETE: "DELETE",
}

#: The XTABLE compiler's complexity budget is a *performance* guard (it
#: reproduces the blank Medium cell of Figure 21), not a
#: well-formedness constraint — the contract checker lifts it so every
#: rule's SQL is validated, and reports how many exceed the default
#: budget separately.
_UNBOUNDED_COMPLEXITY = 1_000_000


# -- schema catalogs ----------------------------------------------------------

def optimized_catalog() -> Database:
    """A throwaway database carrying the optimized tier's full schema.

    Everything a :class:`~repro.server.policy_server.PolicyServer`
    connection can see: the Section 5.2 optimized policy tables, the
    Figure 16 reference tables, the check log, and the decision cache —
    plus the ``glob_pattern`` SQL function the ApplicablePolicy
    subquery calls, which the reference store registers on its
    connection as the pool's connect hook does on every serving one.
    """
    from repro.server.policy_server import (
        _CHECK_LOG_DDL,
        _CHECK_LOG_KEY_INDEX,
    )
    from repro.storage.decision_cache import DecisionCache
    from repro.storage.optimized_schema import (
        create_optimized_schema,
        create_reference_schema,
    )
    from repro.storage.refstore import ReferenceStore

    db = Database()
    create_optimized_schema(db)
    create_reference_schema(db)
    db.executescript(_CHECK_LOG_DDL)
    db.execute(_CHECK_LOG_KEY_INDEX)
    DecisionCache().ensure_schema(db)
    ReferenceStore(db)
    return db


def generic_catalog() -> Database:
    """A throwaway database carrying the generic (Figure 8) schema.

    The XTABLE and structural compilers emit SQL against the
    pedagogical per-element node tables; the structural ``policy_id``
    indexes are created too so index-coverage checks see what a served
    sidecar would declare.  Kept separate from the optimized catalog on
    purpose: the two schema families share table names (``statement``,
    ``purpose``...) with different shapes and cannot coexist in one
    database file.
    """
    from repro.storage.generic_schema import (
        create_generic_schema,
        create_structural_indexes,
    )

    db = Database()
    create_generic_schema(db)
    create_structural_indexes(db)
    return db


# -- the contract model -------------------------------------------------------

@dataclass(frozen=True)
class StatementContract:
    """One statement plus everything its tier promises about it.

    ``binds`` is the arity the call site supplies (``None`` skips the
    check for statements whose arity is derived, e.g. executescript
    DDL).  ``writes`` is the tier's allowed write-set — *empty* means
    the statement runs on a read path (replica readers, plan
    execution) and must not modify any table.  ``hot_tables`` demands
    index-backed access; ``probe`` supplies representative bind values
    for the index-coverage EXPLAIN (``None`` probes with NULLs).
    """

    where: str
    sql: str
    catalog: str = "optimized"
    binds: int | None = None
    writes: frozenset[str] = frozenset()
    hot_tables: frozenset[str] = frozenset()
    probe: tuple | None = None


def _prepare_error_finding(contract: StatementContract,
                           message: str) -> Finding:
    lowered = message.lower()
    if "no such table" in lowered:
        code = "unknown-table"
    elif "no such column" in lowered or "no column named" in lowered:
        code = "unknown-column"
    else:
        code = "sql-prepare-error"
    first_line = message.splitlines()[0] if message else message
    return Finding(
        "error", code,
        f"statement does not prepare against the {contract.catalog} "
        f"catalog: {first_line}",
        where=contract.where,
    )


def check_statement(db: Database,
                    contract: StatementContract) -> list[Finding]:
    """Validate one statement against its catalog, without running it."""
    findings: list[Finding] = []
    live = strip_quoted(contract.sql).count("?")
    if contract.binds is not None and live != contract.binds:
        findings.append(Finding(
            "error", "bind-arity",
            f"call site supplies {contract.binds} bind value(s) but the "
            f"SQL carries {live} live '?' placeholder(s): execution "
            "would mis-bind",
            where=contract.where,
        ))
    probe = contract.probe if contract.probe is not None else (None,) * live
    try:
        actions = db.statement_actions(contract.sql, probe)
    except StorageError as exc:
        findings.append(_prepare_error_finding(contract, str(exc)))
        return findings

    written = {table for action, table, _column in actions
               if action in _WRITE_ACTIONS and table is not None}
    for table in sorted(written - contract.writes):
        verb = next(_WRITE_ACTIONS[a] for a, t, _c in actions
                    if a in _WRITE_ACTIONS and t == table)
        tier = (f"write-set {{{', '.join(sorted(contract.writes))}}}"
                if contract.writes else "a read-only tier")
        findings.append(Finding(
            "error", "illegal-write",
            f"statement {verb}s into {table!r} but its contract declares "
            f"{tier} — a replica or read path must never modify this "
            "table",
            where=contract.where,
        ))

    if contract.hot_tables:
        aliases = table_aliases(contract.sql)
        for step in db.explain(contract.sql, probe):
            table = aliases.get(step.table, step.table)
            if ((step.is_scan or step.builds_index)
                    and table in contract.hot_tables):
                findings.append(Finding(
                    "warning", "unindexed-hot-predicate",
                    f"planner step {step.detail!r} reads hot table "
                    f"{table!r} without a declared index — the "
                    "per-check cost becomes O(corpus)",
                    where=contract.where,
                ))
    return findings


# -- the static registry ------------------------------------------------------

def static_contracts() -> list[StatementContract]:
    """Every static SQL constant the serving tiers execute.

    Each entry records the bind arity its call site supplies and the
    write-set its tier allows.  Read paths (decision-cache lookups, the
    ApplicablePolicy subquery, version probes) carry an empty write-set:
    the replica tier executes exactly these statements, so read-only-ness
    is proved here once for every tier that shares them.
    """
    from repro.server.policy_server import (
        CHECK_COUNT_SQL,
        POLICY_VERSION_SQL,
        RETARGET_POLICYREF_SQL,
        CheckLogWriter,
    )
    from repro.storage.decision_cache import DecisionCache
    from repro.storage.versioning import ACTIVE_VERSION_SQL
    from repro.storage.refstore import (
        APPLICABLE_COOKIE_POLICY_SQL,
        APPLICABLE_POLICY_SQL,
        INSERT_META_SQL,
        INSERT_POLICYREF_SQL,
        PATTERN_INSERT_SQL,
        REFERENCE_DELETE_ORDER,
        REFERENCE_DELETE_SQL,
        ReferenceStore,
    )

    cache_tables = frozenset({"decision_cache", "preference_key"})
    contracts = [
        # Decision cache: reads are the replica-shared fast path, writes
        # go through the serialized writer only.  Every cache access,
        # the install's delete included, is a key probe: a scan there
        # grows with registered preferences x policies — and the
        # delete's version lookup grows with every version installed.
        StatementContract(
            where="cache/lookup", sql=DecisionCache.LOOKUP_SQL, binds=2,
            hot_tables=cache_tables),
        StatementContract(
            where="cache/match", sql=DecisionCache.MATCH_SQL, binds=1,
            hot_tables=cache_tables),
        StatementContract(
            where="cache/insert", sql=DecisionCache._INSERT, binds=5,
            writes=frozenset({"decision_cache"})),
        StatementContract(
            where="cache/invalidate", sql=DecisionCache._INVALIDATE,
            binds=2, writes=frozenset({"decision_cache"}),
            hot_tables=frozenset({"decision_cache", "policy"})),
        StatementContract(
            where="cache/preference-id", sql=DecisionCache._PREF_ID,
            binds=1, hot_tables=frozenset({"preference_key"})),
        StatementContract(
            where="cache/preference-intern", sql=DecisionCache._INTERN,
            binds=1, writes=frozenset({"preference_key"})),
        # Rule bits: the same discipline over rule_body/rule_fired.
        StatementContract(
            where="cache/body-id", sql=DecisionCache._BODY_ID, binds=1,
            hot_tables=frozenset({"rule_body"})),
        StatementContract(
            where="cache/body-intern", sql=DecisionCache._INTERN_BODY,
            binds=1, writes=frozenset({"rule_body"})),
        StatementContract(
            where="cache/bits-insert", sql=DecisionCache._INSERT_BITS,
            binds=3, writes=frozenset({"rule_fired"})),
        StatementContract(
            where="cache/bits-invalidate",
            sql=DecisionCache._INVALIDATE_BITS, binds=2,
            writes=frozenset({"rule_fired"}),
            hot_tables=frozenset({"rule_fired", "policy"})),
        # Registration: the rule list, then one statement deciding the
        # corpus.  Per policy, its rules and their bits must be key
        # probes, or a registration reads every stored rule or bit.
        StatementContract(
            where="cache/preference-intern-if-new",
            sql=DecisionCache._INTERN_IF_NEW, binds=1,
            writes=frozenset({"preference_key"})),
        StatementContract(
            where="cache/bodies-intern", sql=DecisionCache._INTERN_BODIES,
            binds=1, probe=("[]",), writes=frozenset({"rule_body"})),
        StatementContract(
            where="cache/rule-insert", sql=DecisionCache._INSERT_RULE,
            binds=4, writes=frozenset({"preference_rule"}),
            hot_tables=frozenset({"preference_key", "rule_body"})),
        StatementContract(
            where="cache/decide", sql=DecisionCache.DECIDE_SQL, binds=1,
            writes=frozenset({"decision_cache"}),
            hot_tables=frozenset({"preference_key", "preference_rule",
                                  "rule_fired"})),
        # An install's lookup of the version it supersedes.
        StatementContract(
            where="server/active-version", sql=ACTIVE_VERSION_SQL,
            binds=2, hot_tables=frozenset({"policy"})),
        # Check log: the one write the serving path performs per check.
        StatementContract(
            where="server/check-log-insert", sql=CheckLogWriter._INSERT,
            binds=9, writes=frozenset({"check_log"})),
        StatementContract(
            where="server/check-count", sql=CHECK_COUNT_SQL, binds=0),
        # Policy metadata probes: read-only everywhere (check path,
        # match_all repair, async write-back — and replicas).
        StatementContract(
            where="server/policy-version", sql=POLICY_VERSION_SQL,
            binds=1),
        # Install path: the only statement allowed to touch policyref
        # outside reference-file shredding.
        StatementContract(
            where="server/retarget-policyref",
            sql=RETARGET_POLICYREF_SQL, binds=4,
            writes=frozenset({"policyref"})),
        # Reference-file shredding (Figure 16).
        StatementContract(
            where="refstore/insert-meta", sql=INSERT_META_SQL, binds=2,
            writes=frozenset({"meta"})),
        StatementContract(
            where="refstore/insert-policyref", sql=INSERT_POLICYREF_SQL,
            binds=4, writes=frozenset({"policyref"})),
    ]
    for table, sql in PATTERN_INSERT_SQL.items():
        contracts.append(StatementContract(
            where=f"refstore/insert-{table}", sql=sql, binds=4,
            writes=frozenset({table})))
    for table in REFERENCE_DELETE_ORDER:
        contracts.append(StatementContract(
            where=f"refstore/delete-{table}",
            sql=REFERENCE_DELETE_SQL[table], binds=1,
            writes=frozenset({table})))
    # The ApplicablePolicy lookup the check path runs binds site and URI
    # (the URI twice); it must prepare read-only for the replica tier.
    contracts.append(StatementContract(
        where="refstore/applicable-policy-bound[uri]",
        sql=APPLICABLE_POLICY_SQL, binds=3))
    contracts.append(StatementContract(
        where="refstore/applicable-policy-bound[cookie]",
        sql=APPLICABLE_COOKIE_POLICY_SQL, binds=3))
    # The paper's Section 5.3 form inlines its literals (site and URI
    # pass through sql_literal), so a representative probe stands in
    # for that family.
    store = ReferenceStore(Database())
    for cookie in (False, True):
        label = "cookie" if cookie else "uri"
        contracts.append(StatementContract(
            where=f"refstore/applicable-policy[{label}]",
            sql=store.applicable_policy_subquery(
                "example.com", "/catalog/item", cookie=cookie),
            binds=0))
    return contracts


# -- engine enumeration -------------------------------------------------------

def engine_contracts(policies: Sequence[Policy],
                     preferences: Mapping[str, Ruleset],
                     ) -> tuple[list[StatementContract], int]:
    """Every statement the five compilers produce for the corpus.

    For each preference level: the literal translation per policy id
    (its SQL splices the id into the text, so each policy yields
    distinct statements), the compiled point plan, the full-corpus
    bulk plan, each rule body's plan and its fill form (once per
    distinct body across the levels), the per-rule XTABLE SQL, and the
    structural plan.  Returns the contracts plus how many XTABLE rules
    exceeded the *default* complexity budget (their SQL is still
    checked — the budget guards latency, not validity).
    """
    from repro.translate.appel_to_sql import (
        OptimizedSqlTranslator,
        applicable_policy_literal,
    )
    from repro.translate.appel_to_xquery import XQueryTranslator
    from repro.translate.plan import APPLICABLE_POLICY_PARAM
    from repro.xquery.parser import parse_query
    from repro.xquery.structural import (
        compile_ruleset as compile_structural,
    )
    from repro.xquery.to_sql import (
        DEFAULT_COMPLEXITY_LIMIT,
        XTableCompiler,
    )

    translator = OptimizedSqlTranslator()
    xquery_translator = XQueryTranslator()
    policy_ids = range(1, len(policies) + 1)
    contracts: list[StatementContract] = []
    over_budget = 0
    body_sql: set[str] = set()

    for name, ruleset in preferences.items():
        plan = translator.compile_ruleset(ruleset)
        contracts.append(StatementContract(
            where=f"{name}/plan", sql=plan.sql,
            binds=plan.parameter_count,
            probe=plan.parameters(1) if plan.rules else (),
            hot_tables=HOT_TABLES))

        bulk = translator.compile_bulk(ruleset)
        contracts.append(StatementContract(
            where=f"{name}/bulk", sql=bulk.sql, binds=0,
            hot_tables=HOT_TABLES))

        for index, rule in enumerate(ruleset.rules):
            body = translator.compile_body(rule)
            if body.sql not in body_sql:
                body_sql.add(body.sql)
                contracts.append(StatementContract(
                    where=f"{name}/body[{index}]", sql=body.sql,
                    binds=1, probe=("probe",),
                    hot_tables=BODY_HOT_TABLES))
                contracts.append(StatementContract(
                    where=f"{name}/fill[{index}]", sql=body.fill_sql,
                    binds=2, probe=("probe", "probe"),
                    writes=frozenset({"rule_fired"}),
                    hot_tables=BODY_HOT_TABLES))

        for policy_id in policy_ids:
            translated = translator.translate_ruleset(
                ruleset, applicable_policy_literal(policy_id))
            for index, rule in enumerate(translated.rules):
                contracts.append(StatementContract(
                    where=f"{name}/literal/policy[{policy_id}]"
                          f"/rule[{index}]",
                    sql=rule.sql, binds=0, hot_tables=HOT_TABLES))

        structural = compile_structural(ruleset)
        contracts.append(StatementContract(
            where=f"{name}/structural", sql=structural.sql,
            catalog="generic", binds=structural.parameter_count,
            probe=(structural.parameters(1)
                   if structural.rules else ()),
            hot_tables=HOT_NODE_TABLES))

        # XTABLE SQL is the paper's deliberately slow path (nested
        # EXISTS per element) — no index-coverage demand, but names,
        # arity, and read-only-ness still hold.
        translated_xq = xquery_translator.translate_ruleset(ruleset)
        for index, rule in enumerate(translated_xq.rules):
            query = parse_query(rule.xquery)
            budget_probe = XTableCompiler(
                complexity_limit=DEFAULT_COMPLEXITY_LIMIT)
            try:
                sql = budget_probe.compile_query(
                    query, APPLICABLE_POLICY_PARAM)
            except TranslationTooComplexError:
                over_budget += 1
                sql = XTableCompiler(
                    complexity_limit=_UNBOUNDED_COMPLEXITY,
                ).compile_query(query, APPLICABLE_POLICY_PARAM)
            contracts.append(StatementContract(
                where=f"{name}/xtable/rule[{index}]", sql=sql,
                catalog="generic", binds=1))

    return contracts, over_budget


# -- the gate -----------------------------------------------------------------

@dataclass(frozen=True)
class SqlContractReport:
    """Everything ``p3pdb audit --sql-contracts`` checks in one pass."""

    statements_checked: int
    findings: tuple[Finding, ...]
    per_source: tuple[tuple[str, int], ...]
    xtable_over_budget: int = 0

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)


def _source_of(where: str) -> str:
    """Bucket a contract label into its engine/source family."""
    head, _, rest = where.partition("/")
    if head in {"cache", "server", "refstore"}:
        return head
    source = rest.partition("/")[0].partition("[")[0]
    return source or head


def check_contracts(contracts: Iterable[StatementContract],
                    catalogs: Mapping[str, Database] | None = None,
                    ) -> list[Finding]:
    """Run :func:`check_statement` over *contracts* (catalogs cached)."""
    catalogs = dict(catalogs) if catalogs else {}
    findings: list[Finding] = []
    for contract in contracts:
        db = catalogs.get(contract.catalog)
        if db is None:
            db = (generic_catalog() if contract.catalog == "generic"
                  else optimized_catalog())
            catalogs[contract.catalog] = db
        findings.extend(check_statement(db, contract))
    return findings


def contract_report(policies: Sequence[Policy] | None = None,
                    preferences: Mapping[str, Ruleset] | None = None,
                    ) -> SqlContractReport:
    """The full gate: static registry + corpus enumeration.

    Defaults mirror ``p3pdb audit``: the synthetic Fortune-100 corpus
    and the five JRC preference levels, so every (engine × level) cell
    contributes at least one validated statement.
    """
    if policies is None:
        from repro.corpus.policies import fortune_corpus
        policies = fortune_corpus()
    if preferences is None:
        from repro.corpus.preferences import jrc_suite
        preferences = jrc_suite()

    statics = static_contracts()
    engines, over_budget = engine_contracts(policies, preferences)
    contracts = statics + engines
    catalogs = {"optimized": optimized_catalog(),
                "generic": generic_catalog()}
    findings = check_contracts(contracts, catalogs)

    counts: dict[str, int] = {}
    for contract in contracts:
        source = _source_of(contract.where)
        counts[source] = counts.get(source, 0) + 1
    return SqlContractReport(
        statements_checked=len(contracts),
        findings=tuple(findings),
        per_source=tuple(sorted(counts.items())),
        xtable_over_budget=over_budget,
    )
