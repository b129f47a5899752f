"""The shared finding model of the static-analysis layer.

Every analyzer — APPEL reachability (:mod:`repro.analysis.rules`), the
EXPLAIN-plan auditor (:mod:`repro.analysis.plans`) and the codebase lint
(:mod:`repro.analysis.codelint`) — reports :class:`Finding` objects, so
the CLI, the serving-path audit hook, and the CI gate consume one shape.

A finding's identity for baseline purposes is ``(code, path, line,
message)``: the codebase lint persists grandfathered findings to a
checked-in JSON baseline (see :func:`load_baseline`) and only *new*
findings gate the build.  Analyzer findings over rulesets and plans have
no path/line; they locate themselves with ``rule_index`` instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

#: Severity levels, most severe first (the sort order of reports).
SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Finding:
    """One diagnostic from a static analyzer.

    ``code`` is a stable kebab-case identifier (``full-scan``,
    ``unreachable-rule``, ``dynamic-sql``, ...) documented in
    docs/static-analysis.md; ``message`` is the human explanation.
    Source findings carry ``path``/``line``; ruleset and plan findings
    carry ``rule_index`` and/or a free-form ``where`` label (the plan or
    preference the finding is about).
    """

    severity: str
    code: str
    message: str
    path: str | None = None
    line: int | None = None
    rule_index: int | None = None
    where: str | None = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def location(self) -> str:
        """Human-readable anchor: ``file.py:12``, ``rule[3]``, a label."""
        parts: list[str] = []
        if self.path is not None:
            parts.append(self.path if self.line is None
                         else f"{self.path}:{self.line}")
        if self.where is not None:
            parts.append(self.where)
        if self.rule_index is not None:
            parts.append(f"rule[{self.rule_index}]")
        return "/".join(parts) if parts else "<global>"

    def key(self) -> tuple[str, str, int, str]:
        """Baseline identity: exact (code, path, line, message)."""
        return (self.code, self.path or "", self.line or 0, self.message)

    def __str__(self) -> str:
        return f"{self.severity}: {self.code}: {self.location}: " \
               f"{self.message}"


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Most severe first, then by location, for stable reports."""
    return sorted(findings,
                  key=lambda f: (SEVERITIES.index(f.severity),
                                 f.path or "", f.line or 0,
                                 f.where or "", f.rule_index or 0,
                                 f.code))


def count_by_severity(findings: Iterable[Finding]) -> dict[str, int]:
    counts = {severity: 0 for severity in SEVERITIES}
    for finding in findings:
        counts[finding.severity] += 1
    return counts


def format_findings(findings: Iterable[Finding]) -> str:
    ordered = sort_findings(findings)
    if not ordered:
        return "no findings"
    lines = [str(finding) for finding in ordered]
    counts = count_by_severity(ordered)
    summary = ", ".join(f"{count} {severity}(s)"
                        for severity, count in counts.items() if count)
    lines.append(f"{len(ordered)} finding(s): {summary}")
    return "\n".join(lines)


# -- baseline persistence (the codelint grandfather file) ---------------------

BASELINE_VERSION = 1


def load_baseline(path: str | Path) -> set[tuple[str, str, int, str]]:
    """Read the checked-in baseline; a missing file is an empty baseline."""
    file = Path(path)
    if not file.exists():
        return set()
    document = json.loads(file.read_text(encoding="utf-8"))
    if document.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"unsupported baseline version {document.get('version')!r} "
            f"in {file}"
        )
    return {
        (entry["code"], entry["path"], int(entry["line"]),
         entry["message"])
        for entry in document.get("findings", ())
    }


def save_baseline(path: str | Path,
                  findings: Sequence[Finding]) -> None:
    """Persist *findings* as the new grandfathered baseline."""
    document = {
        "version": BASELINE_VERSION,
        "findings": [
            {
                "code": finding.code,
                "path": finding.path or "",
                "line": finding.line or 0,
                "message": finding.message,
            }
            for finding in sort_findings(findings)
        ],
    }
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True)
                          + "\n", encoding="utf-8")


def split_by_baseline(findings: Sequence[Finding],
                      baseline: set[tuple[str, str, int, str]]
                      ) -> tuple[list[Finding], list[Finding]]:
    """Partition into (new, grandfathered) against *baseline*."""
    new: list[Finding] = []
    old: list[Finding] = []
    for finding in findings:
        (old if finding.key() in baseline else new).append(finding)
    return new, old


# -- the rule catalog (stable ids, reviewable baselines) ----------------------

#: Every rule id any analyzer may emit, with the explanation ``p3pdb
#: lint --explain <rule-id>`` prints.  A baseline entry names one of
#: these codes, so a reviewer can go from the JSON entry to "what
#: invariant is being grandfathered here" without reading the analyzer.
#: Adding a rule without an entry fails the analyzers' own test suite.
RULE_DOCS: dict[str, dict[str, str]] = {
    # -- repro.analysis.rules (APPEL reachability) ------------------------
    "unreachable-rule": {
        "severity": "error", "analyzer": "rules",
        "summary": "an earlier rule subsumes this one under "
                   "first-rule-wins",
        "detail": "Under APPEL's first-rule-wins evaluation an earlier "
                  "rule fires on every policy this rule could fire on, "
                  "so this rule can never be the decision.  Reorder the "
                  "ruleset or tighten the earlier rule.",
    },
    "effectively-unconditional": {
        "severity": "warning", "analyzer": "rules",
        "summary": "rule matches every policy (no restricting "
                   "expression)",
        "detail": "The rule body places no constraint any real policy "
                  "can fail, so everything after it is unreachable.  "
                  "Fine for a terminal catch-all; a bug anywhere else.",
    },
    "contradictory-siblings": {
        "severity": "warning", "analyzer": "rules",
        "summary": "AND-connected siblings can never hold together",
        "detail": "Two subexpressions joined by `and` demand "
                  "contradictory values of the same element, so the "
                  "rule can never fire.  Check the connective.",
    },
    "dead-branch": {
        "severity": "warning", "analyzer": "rules",
        "summary": "an `or` branch is subsumed by its sibling",
        "detail": "One alternative of an `or` accepts a superset of "
                  "the other, so the narrower branch never decides "
                  "anything.  Usually a copy-paste remnant.",
    },
    # -- repro.analysis.plans (EXPLAIN auditing) --------------------------
    "full-scan": {
        "severity": "error", "analyzer": "plans",
        "summary": "compiled plan scans a hot table instead of probing "
                   "an index",
        "detail": "EXPLAIN QUERY PLAN shows `SCAN` (not `SEARCH ... "
                  "USING INDEX`) over a table on the per-check hot "
                  "path.  Every check pays O(table) instead of "
                  "O(log n); add or fix the covering index.",
    },
    "tainted-sql": {
        "severity": "error", "analyzer": "plans",
        "summary": "preference-derived string appears inlined in plan "
                   "SQL",
        "detail": "A value that originated in the user's APPEL "
                  "preference shows up as literal text in the compiled "
                  "SQL rather than as a `?` bind.  That is an "
                  "injection surface; route the value through a bind "
                  "or `sql_literal`.",
    },
    "bind-arity": {
        "severity": "error", "analyzer": "plans/sqlcheck",
        "summary": "statement placeholder count disagrees with "
                   "parameters()",
        "detail": "The number of `?` placeholders in the statement "
                  "(string literals stripped) does not match the "
                  "parameter vector the plan declares.  The statement "
                  "would raise at execute time — or worse, bind "
                  "values to the wrong slots.",
    },
    "cache-scan": {
        "severity": "error", "analyzer": "plans",
        "summary": "decision-cache lookup is not index-backed",
        "detail": "The materialized decision lookup must probe the "
                  "decision_cache primary key; a scan makes the cache "
                  "slower than recomputing the plan it memoizes.",
    },
    # -- repro.analysis.codelint (project invariants) ---------------------
    "sqlite-connect": {
        "severity": "error", "analyzer": "codelint",
        "summary": "sqlite3.connect outside storage/",
        "detail": "Raw connections bypass Database timing/WAL/"
                  "statement-cache setup and the pool's thread-"
                  "affinity rules.  Go through "
                  "repro.storage.database.Database or the pool.",
    },
    "dynamic-sql": {
        "severity": "error", "analyzer": "codelint",
        "summary": "dynamically assembled SQL where a bind belongs",
        "detail": "Outside translate//storage/ no runtime-assembled "
                  "string may reach an execute method; inside the "
                  "SQL-composer layers an f-string in SQL text must "
                  "not interpolate a bare attribute/subscript value.  "
                  "Use a `?` bind or sql_literal/quote_ident.",
    },
    "unbounded-cache": {
        "severity": "warning", "analyzer": "codelint",
        "summary": "bare dict used as a cache on a serving path",
        "detail": "A `*cache*` attribute initialized to {}/dict()/"
                  "OrderedDict()/defaultdict() on server//net//"
                  "cluster/ grows without eviction for the life of "
                  "the process.  Use a bounded cache such as "
                  "TranslationCache.",
    },
    "syntax-error": {
        "severity": "error", "analyzer": "codelint",
        "summary": "file does not parse; nothing else was checked",
        "detail": "ast.parse failed, so every other rule was skipped "
                  "for this file.  Fix the syntax error first.",
    },
    # -- repro.analysis.concurrency (thread/async/spawn safety) -----------
    "async-blocking": {
        "severity": "error", "analyzer": "concurrency",
        "summary": "blocking call reached directly from an async def "
                   "body",
        "detail": "A call that blocks the thread (sqlite3/pool I/O, "
                  "time.sleep, file or socket I/O, PolicyServer "
                  "methods) sits directly in a coroutine body, so it "
                  "stalls the event loop and every connection it "
                  "serves.  Wrap the work in a function and route it "
                  "through loop.run_in_executor (the request core's "
                  "`run(fn)` in net/httpd.py, which net/aio.py sends "
                  "to its executor).",
    },
    "bare-acquire": {
        "severity": "error", "analyzer": "concurrency",
        "summary": ".acquire() without a guaranteed release",
        "detail": "An explicit lock.acquire() has no matching "
                  "lock.release() in a `finally` block of the same "
                  "function.  An exception between the two leaves the "
                  "lock held forever; use `with lock:` (or "
                  "try/finally).",
    },
    "double-acquire": {
        "severity": "error", "analyzer": "concurrency",
        "summary": "non-reentrant lock re-acquired on the same path",
        "detail": "While holding `with self.<lock>` (a threading.Lock, "
                  "not an RLock) the method calls another method of "
                  "the same class that takes the same lock — a "
                  "guaranteed self-deadlock.  Split out a _locked "
                  "helper (caller holds the lock) or use an RLock.",
    },
    "unguarded-attribute": {
        "severity": "warning", "analyzer": "concurrency",
        "summary": "attribute written both under a lock and without it",
        "detail": "In a class that owns a threading.Lock, an instance "
                  "attribute is written inside `with self.<lock>` on "
                  "one path and with no lock on another (outside "
                  "__init__).  Either every post-construction write "
                  "holds the lock or the lock is theater; move the "
                  "unguarded write under the lock.",
    },
    "spawn-target": {
        "severity": "error", "analyzer": "concurrency",
        "summary": "multiprocessing target is not a module-level "
                   "function",
        "detail": "With the spawn start method the child re-imports "
                  "the module and unpickles the target; a lambda, "
                  "bound method, or nested function either fails to "
                  "pickle or drags the whole parent object graph "
                  "(locks, sockets, pools) across.  Pass a "
                  "module-level function.",
    },
    "spawn-config-mutable": {
        "severity": "error", "analyzer": "concurrency",
        "summary": "worker config dataclass is not frozen/immutable",
        "detail": "A `*Config` dataclass handed to spawned workers "
                  "must be frozen=True with immutable-typed fields "
                  "(int/str/float/bool/bytes/tuple/None unions): "
                  "mutable state pickled into a child silently forks "
                  "— the parent's copy and the child's copy diverge.",
    },
    # -- repro.analysis.sqlcheck (schema contracts) -----------------------
    "unknown-table": {
        "severity": "error", "analyzer": "sqlcheck",
        "summary": "statement references a table the catalog lacks",
        "detail": "Preparing the statement against the schema catalog "
                  "failed with `no such table`.  The emitter and the "
                  "DDL have drifted; fix whichever is wrong before "
                  "anything executes it.",
    },
    "unknown-column": {
        "severity": "error", "analyzer": "sqlcheck",
        "summary": "statement references a column the catalog lacks",
        "detail": "Preparing the statement against the schema catalog "
                  "failed with `no such column`.  The emitter and the "
                  "DDL have drifted; fix whichever is wrong before "
                  "anything executes it.",
    },
    "sql-prepare-error": {
        "severity": "error", "analyzer": "sqlcheck",
        "summary": "statement fails to prepare against the catalog",
        "detail": "sqlite could not compile the statement for a "
                  "reason other than a missing table/column (syntax, "
                  "misuse of an aggregate, ...).  The statement can "
                  "never run.",
    },
    "illegal-write": {
        "severity": "error", "analyzer": "sqlcheck",
        "summary": "statement writes a table outside its tier's "
                   "write-set",
        "detail": "The prepare-time authorizer saw an INSERT/UPDATE/"
                  "DELETE against a table the statement's tier may "
                  "not write (compiled plans and replica-served reads "
                  "are read-only by contract, not convention).  Move "
                  "the write to the owning tier or extend the "
                  "write-set deliberately.",
    },
    "unindexed-hot-predicate": {
        "severity": "warning", "analyzer": "sqlcheck",
        "summary": "hot-table predicate not covered by a declared "
                   "index",
        "detail": "EXPLAIN QUERY PLAN against the schema catalog "
                  "shows a SCAN of a hot-path table for this "
                  "statement: its predicates are not served by any "
                  "declared index.  Add the index or get the "
                  "predicate onto an indexed column.",
    },
}


def explain_rule(code: str) -> str:
    """The ``--explain`` text for *code*; raises KeyError if unknown."""
    doc = RULE_DOCS[code]
    return (f"{code} ({doc['severity']}, {doc['analyzer']})\n"
            f"  {doc['summary']}\n\n{doc['detail']}")


def known_rule_ids() -> tuple[str, ...]:
    """Every stable rule id, sorted (the --explain completion set)."""
    return tuple(sorted(RULE_DOCS))
