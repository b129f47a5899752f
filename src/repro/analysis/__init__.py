"""Static analysis of the repo's generated artifacts and its own code.

Five analyzers over the things nobody reads until they fail:

* :mod:`repro.analysis.rules` — APPEL rule reachability under
  first-rule-wins, with differential confirmation against the native
  engine;
* :mod:`repro.analysis.plans` — ``EXPLAIN QUERY PLAN`` auditing of
  compiled preference plans and literal translations (hot-table scans,
  SQL taint, bind arity);
* :mod:`repro.analysis.codelint` — project-invariant lint over the
  Python sources (connection discipline, SQL construction discipline,
  cache boundedness), gated by a checked-in baseline;
* :mod:`repro.analysis.concurrency` — concurrency-safety lint: blocking
  calls inside async bodies, lock discipline, lock-guarded attributes
  written unguarded, spawn-safety of worker configs;
* :mod:`repro.analysis.sqlcheck` — schema-aware SQL contract checking:
  every statement the six engines can emit, prepared (never run)
  against a schema catalog with write-set and index-coverage rules.

The expression-level vocabulary checks of
:func:`repro.appel.analysis.validate_ruleset` are re-exported here so
callers get every ruleset-facing diagnostic from one module.
"""

from repro.analysis.codelint import lint_paths, lint_source
from repro.analysis.concurrency import (
    concurrency_file,
    concurrency_paths,
    concurrency_source,
)
from repro.analysis.findings import (
    RULE_DOCS,
    Finding,
    count_by_severity,
    explain_rule,
    format_findings,
    known_rule_ids,
    load_baseline,
    save_baseline,
    sort_findings,
    split_by_baseline,
)
from repro.analysis.plans import (
    HOT_NODE_TABLES,
    HOT_TABLES,
    CorpusAuditReport,
    audit_body_plan,
    audit_bulk_plan,
    audit_compiled_plan,
    audit_corpus,
    audit_decision_lookup,
    audit_statement,
    audit_structural_plan,
    audit_translated_ruleset,
    scan_findings,
    taint_findings,
)
from repro.analysis.sqlcheck import (
    SqlContractReport,
    StatementContract,
    check_contracts,
    check_statement,
    contract_report,
    engine_contracts,
    generic_catalog,
    optimized_catalog,
    static_contracts,
)
from repro.analysis.rules import (
    DifferentialReport,
    analyze_ruleset,
    differential_reachability,
    rule_always_fires,
    rule_can_fire,
    rule_subsumes,
    unreachable_rule_indexes,
)
from repro.appel.analysis import (
    RulesetProblem,
    ruleset_stats,
    validate_ruleset,
)

__all__ = [
    "CorpusAuditReport",
    "DifferentialReport",
    "Finding",
    "HOT_NODE_TABLES",
    "HOT_TABLES",
    "RULE_DOCS",
    "RulesetProblem",
    "SqlContractReport",
    "StatementContract",
    "analyze_ruleset",
    "audit_body_plan",
    "audit_bulk_plan",
    "audit_compiled_plan",
    "audit_corpus",
    "audit_decision_lookup",
    "audit_statement",
    "audit_structural_plan",
    "audit_translated_ruleset",
    "check_contracts",
    "check_statement",
    "concurrency_file",
    "concurrency_paths",
    "concurrency_source",
    "contract_report",
    "count_by_severity",
    "differential_reachability",
    "engine_contracts",
    "explain_rule",
    "format_findings",
    "generic_catalog",
    "known_rule_ids",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "optimized_catalog",
    "rule_always_fires",
    "rule_can_fire",
    "rule_subsumes",
    "ruleset_stats",
    "save_baseline",
    "scan_findings",
    "sort_findings",
    "split_by_baseline",
    "static_contracts",
    "taint_findings",
    "unreachable_rule_indexes",
    "validate_ruleset",
]
