"""Render harness results as the paper's tables (plain text + markdown).

Times are printed in milliseconds: the substrate is SQLite on modern
hardware rather than DB2 7.2 on a dual 600 MHz NT server, so seconds would
be all zeros.  Orderings and ratios are the reproduced quantities.
"""

from __future__ import annotations

from repro.bench.harness import (
    AblationResult,
    BatchingLoadResult,
    BulkMatchingResult,
    ClusterResult,
    ConcurrencyResult,
    ConnectionScalingResult,
    EngineSummary,
    FaultToleranceResult,
    HttpLoadResult,
    LevelSummary,
    PlanCompilationResult,
    ShreddingResult,
    WarmColdResult,
    batching_speedup,
    cluster_speedups,
    http_overhead,
    retry_overhead,
)
from repro.corpus.policies import CorpusStats

_ENGINE_LABELS = {
    "appel": "APPEL Engine",
    "sql": "SQL",
    "sql-generic": "SQL (generic schema)",
    "xquery": "XQuery",
    "xquery-native": "XQuery (native store)",
    "xquery-structural": "XQuery (structural)",
}


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:8.3f}"


def format_dataset_stats(stats: CorpusStats) -> str:
    """E1: the Section 6.2 paragraph as a table."""
    lines = [
        "Dataset (synthetic Fortune-1000 corpus; paper: 29 policies, "
        "1.6-11.9 KB, avg 4.4 KB, 54 statements)",
        f"  policies            : {stats.policy_count}",
        f"  total statements    : {stats.total_statements}",
        f"  statements / policy : {stats.statements_per_policy:.2f}",
        f"  size min/avg/max KB : {stats.min_kb:.1f} / "
        f"{stats.avg_kb:.1f} / {stats.max_kb:.1f}",
    ]
    return "\n".join(lines)


def format_preference_stats(rows: list[tuple[str, int, float]]) -> str:
    """E2: the Figure 19 table."""
    lines = [
        "Figure 19: JRC-style APPEL preferences",
        f"{'Preference':12s} {'#Rules':>6s} {'Size (KB)':>10s}",
    ]
    total_rules = 0
    total_size = 0.0
    for level, rules, size_kb in rows:
        lines.append(f"{level:12s} {rules:6d} {size_kb:10.1f}")
        total_rules += rules
        total_size += size_kb
    lines.append(
        f"{'Average':12s} {total_rules / len(rows):6.1f} "
        f"{total_size / len(rows):10.1f}"
    )
    return "\n".join(lines)


def format_shredding(result: ShreddingResult) -> str:
    """E3: Section 6.3.1's shredding numbers (milliseconds here)."""
    agg = result.aggregate
    lines = [
        "Shredding time per policy (paper: avg 3.19 s, max 11.94, "
        "min 1.17 on DB2/NT4)",
        f"  average : {_ms(agg.average)} ms",
        f"  maximum : {_ms(agg.maximum)} ms",
        f"  minimum : {_ms(agg.minimum)} ms",
        f"  policies: {agg.count}",
    ]
    return "\n".join(lines)


def format_figure20(rows: list[EngineSummary]) -> str:
    """E4: the Figure 20 table (avg/max/min per engine, ms)."""
    lines = [
        "Figure 20: execution time for matching a preference against a "
        "policy (ms)",
        f"{'':9s} {'APPEL Engine':>14s} "
        f"{'SQL Convert':>12s} {'SQL Query':>10s} {'SQL Total':>10s} "
        f"{'XQuery':>10s}",
    ]
    by_engine = {row.engine: row for row in rows}

    def cell(engine: str, series: str, stat: str) -> str:
        row = by_engine.get(engine)
        if row is None or getattr(row, series).count == 0:
            return "-"
        return f"{getattr(getattr(row, series), stat) * 1000:.3f}"

    for label, stat in (("Average", "average"), ("Max", "maximum"),
                        ("Min", "minimum")):
        lines.append(
            f"{label:9s} {cell('appel', 'total', stat):>14s} "
            f"{cell('sql', 'convert', stat):>12s} "
            f"{cell('sql', 'query', stat):>10s} "
            f"{cell('sql', 'total', stat):>10s} "
            f"{cell('xquery', 'total', stat):>10s}"
        )
    xq = by_engine.get("xquery")
    if xq is not None and xq.failures:
        lines.append(
            f"(XQuery: {xq.failures} matches failed XTABLE translation "
            "and are excluded, as in the paper)"
        )
    return "\n".join(lines)


def format_figure21(rows: list[LevelSummary]) -> str:
    """E5: the Figure 21 table (per preference level, average ms)."""
    levels = list(dict.fromkeys(row.level for row in rows))
    lines = [
        "Figure 21: per-preference-type execution times (average ms)",
        f"{'Preference':12s} {'APPEL':>10s} {'Convert':>10s} "
        f"{'Query':>10s} {'SQL Total':>10s} {'XQuery':>10s}",
    ]
    cells = {(row.level, row.engine): row for row in rows}

    def fmt(level: str, engine: str, series: str) -> str:
        row = cells.get((level, engine))
        if row is None or row.unavailable:
            return "-"
        return f"{getattr(row, series).average * 1000:.3f}"

    for level in levels:
        lines.append(
            f"{level:12s} {fmt(level, 'appel', 'total'):>10s} "
            f"{fmt(level, 'sql', 'convert'):>10s} "
            f"{fmt(level, 'sql', 'query'):>10s} "
            f"{fmt(level, 'sql', 'total'):>10s} "
            f"{fmt(level, 'xquery', 'total'):>10s}"
        )
    return "\n".join(lines)


def markdown_figure20(rows: list[EngineSummary]) -> str:
    """Figure 20 as a markdown table (for EXPERIMENTS.md regeneration)."""
    by_engine = {row.engine: row for row in rows}

    def cell(engine: str, series: str, stat: str) -> str:
        row = by_engine.get(engine)
        if row is None or getattr(row, series).count == 0:
            return "—"
        return f"{getattr(getattr(row, series), stat) * 1000:.2f}"

    lines = [
        "|  | APPEL engine | SQL convert | SQL query | SQL total "
        "| XQuery |",
        "|---|---|---|---|---|---|",
    ]
    for label, stat in (("Average", "average"), ("Max", "maximum"),
                        ("Min", "minimum")):
        lines.append(
            f"| {label} | {cell('appel', 'total', stat)} "
            f"| {cell('sql', 'convert', stat)} "
            f"| {cell('sql', 'query', stat)} "
            f"| {cell('sql', 'total', stat)} "
            f"| {cell('xquery', 'total', stat)} |"
        )
    return "\n".join(lines)


def markdown_figure21(rows: list[LevelSummary]) -> str:
    """Figure 21 as a markdown table (averages, ms; failed cells em-dash)."""
    levels = list(dict.fromkeys(row.level for row in rows))
    cells = {(row.level, row.engine): row for row in rows}

    def fmt(level: str, engine: str, series: str) -> str:
        row = cells.get((level, engine))
        if row is None or row.unavailable:
            return "—"
        return f"{getattr(row, series).average * 1000:.2f}"

    lines = [
        "| Preference | APPEL | Convert | Query | SQL total | XQuery |",
        "|---|---|---|---|---|---|",
    ]
    for level in levels:
        lines.append(
            f"| {level} | {fmt(level, 'appel', 'total')} "
            f"| {fmt(level, 'sql', 'convert')} "
            f"| {fmt(level, 'sql', 'query')} "
            f"| {fmt(level, 'sql', 'total')} "
            f"| {fmt(level, 'xquery', 'total')} |"
        )
    return "\n".join(lines)


def format_warm_cold(rows: list[WarmColdResult]) -> str:
    """E6: warm vs cold matching (Section 6.3.2)."""
    lines = [
        "Warm vs cold matching time (ms)",
        f"{'Engine':22s} {'Cold':>10s} {'Warm':>10s} {'Delta':>10s}",
    ]
    for row in rows:
        label = _ENGINE_LABELS.get(row.engine, row.engine)
        lines.append(
            f"{label:22s} {row.cold_seconds * 1000:10.3f} "
            f"{row.warm_seconds * 1000:10.3f} "
            f"{row.delta_seconds * 1000:10.3f}"
        )
    return "\n".join(lines)


def format_ablation(result: AblationResult) -> str:
    """E7: the profiling/ablation report."""
    lines = [
        "Ablation: where does the native engine's time go? (avg ms)",
        f"  native, full per-match pipeline : "
        f"{_ms(result.native_full.average)}",
        f"  native, augmentation disabled   : "
        f"{_ms(result.native_no_augment.average)}",
        f"  native, document prepared once  : "
        f"{_ms(result.native_prepared.average)}",
        f"  per-match preparation share     : "
        f"{result.augmentation_share * 100:.1f}% of full cost",
        "",
        "Schema ablation (avg ms per match):",
        f"  SQL, optimized schema (Fig. 14) : "
        f"{_ms(result.sql_optimized.average)}",
        f"  SQL, generic schema   (Fig. 8)  : "
        f"{_ms(result.sql_generic.average)}",
    ]
    return "\n".join(lines)


def format_concurrency(rows: list[ConcurrencyResult]) -> str:
    """E8: serving-layer throughput at increasing thread counts."""
    lines = [
        "Serving-layer concurrency (on-disk database, durable check log)",
        f"{'Configuration':34s} {'Threads':>7s} {'Checks/s':>10s} "
        f"{'Speedup':>8s}",
    ]
    labels = {
        "serial": "serial (per-check commit)",
        "pooled": "pooled (WAL + batched log)",
    }
    baseline = next(
        (r.checks_per_second for r in rows
         if r.mode == "serial" and r.threads == 1), None
    )
    for row in rows:
        speedup = ""
        if baseline:
            speedup = f"{row.checks_per_second / baseline:7.2f}x"
        lines.append(
            f"{labels.get(row.mode, row.mode):34s} {row.threads:7d} "
            f"{row.checks_per_second:10.0f} {speedup:>8s}"
        )
    return "\n".join(lines)


def format_http_load(rows: list[HttpLoadResult]) -> str:
    """E9: HTTP vs in-process throughput; overhead = HTTP time multiple."""
    lines = [
        "HTTP serving overhead (loopback, keep-alive, durable check log)",
        f"{'Transport':26s} {'Threads':>7s} {'Checks/s':>10s} "
        f"{'Overhead':>9s}",
    ]
    labels = {
        "in-process": "in-process (serve_many)",
        "http": "HTTP (POST /v1/check)",
    }
    overhead = http_overhead(rows)
    for row in rows:
        multiple = ""
        if row.mode == "http" and row.threads in overhead:
            multiple = f"{overhead[row.threads]:8.2f}x"
        lines.append(
            f"{labels.get(row.mode, row.mode):26s} {row.threads:7d} "
            f"{row.checks_per_second:10.0f} {multiple:>9s}"
        )
    return "\n".join(lines)


def format_fault_tolerance(rows: list[FaultToleranceResult]) -> str:
    """E10: retry-layer pricing (zero-fault overhead, faulted recovery)."""
    lines = [
        "Fault tolerance (loopback HTTP, idempotent check_key logging)",
        f"{'Client':30s} {'Checks':>7s} {'ms/check':>9s} "
        f"{'Retries':>8s} {'Faults':>7s}",
    ]
    labels = {
        "no-retry": "no retries (PR-2 baseline)",
        "retry": "retries on, zero faults",
        "retry-faults": "retries on, faulted server",
    }
    for row in rows:
        lines.append(
            f"{labels.get(row.mode, row.mode):30s} {row.checks:7d} "
            f"{row.per_check_seconds * 1000:9.3f} "
            f"{row.retries:8d} {row.faults_injected:7d}"
        )
    overhead = retry_overhead(rows)
    if overhead is not None:
        lines.append(
            f"zero-fault retry-layer overhead: "
            f"{(overhead - 1.0) * 100:+.1f}% (acceptance: <= 5%)"
        )
    return "\n".join(lines)


def format_plan_compilation(rows: list[PlanCompilationResult]) -> str:
    """E11: literal per-policy SQL vs compiled parameterized plans."""
    lines = [
        "Plan compilation (same check grid, warm store)",
        f"{'Pipeline':26s} {'Trips/check':>11s} {'Translations':>12s} "
        f"{'SQL chars':>10s} {'Stmt-cache':>10s} {'Checks/s':>10s}",
    ]
    labels = {
        "literal": "literal (id spliced in)",
        "plan": "compiled (id bound as ?)",
    }
    for row in rows:
        lines.append(
            f"{labels.get(row.mode, row.mode):26s} "
            f"{row.round_trips_per_check:11.2f} "
            f"{row.translations:12d} {row.cached_sql_chars:10d} "
            f"{row.statement_cache_hit_rate * 100:9.1f}% "
            f"{row.checks_per_second:10.0f}"
        )
    by_mode = {row.mode: row for row in rows}
    plan = by_mode.get("plan")
    if plan is not None:
        lines.append(
            f"(plan pipeline: {plan.translations} compilations serve "
            f"{plan.policies} policies; one round-trip per check)"
        )
    return "\n".join(lines)


def format_bulk_matching(rows: list[BulkMatchingResult]) -> str:
    """E12: per-policy plans vs one bulk statement vs the warm cache."""
    lines = [
        "Bulk matching (one preference, whole corpus, warm store)",
        f"{'Strategy':30s} {'Policies':>8s} {'Trips':>6s} "
        f"{'Time ms':>9s} {'Policies/s':>11s}",
    ]
    labels = {
        "per-policy": "per-policy compiled plans",
        "bulk": "one bulk statement",
        "cached": "materialized decision cache",
    }
    for row in rows:
        lines.append(
            f"{labels.get(row.mode, row.mode):30s} {row.policies:8d} "
            f"{row.round_trips:6d} {row.seconds * 1000:9.3f} "
            f"{row.policies_per_second:11.0f}"
        )
    by_mode = {row.mode: row for row in rows}
    serial, cached = by_mode.get("per-policy"), by_mode.get("cached")
    if serial is not None and cached is not None and cached.seconds > 0:
        lines.append(
            f"cached corpus match is {serial.seconds / cached.seconds:.1f}x "
            "faster than per-policy execution (acceptance: >= 5x at "
            "corpus >= 1000)"
        )
    return "\n".join(lines)


def format_cluster(rows: list[ClusterResult]) -> str:
    """E13: aggregate check throughput as the shard count grows."""
    lines = [
        "Cluster scaling (process workers, consistent-hash router, "
        "concurrent users)",
        f"{'Shards':>6s} {'Replicas':>8s} {'Users':>5s} {'Checks':>7s} "
        f"{'Checks/s':>10s} {'Speedup':>8s} {'Direct':>7s} {'Fallbk':>6s}",
    ]
    speedups = cluster_speedups(rows)
    for row in rows:
        speedup = ""
        if row.shards in speedups:
            speedup = f"{speedups[row.shards]:7.2f}x"
        lines.append(
            f"{row.shards:6d} {row.replicas:8d} {row.users:5d} "
            f"{row.checks:7d} {row.checks_per_second:10.0f} "
            f"{speedup:>8s} {row.direct_checks:7d} "
            f"{row.router_fallbacks:6d}"
        )
    lines.append(
        "(speedup is relative to the 1-shard deployment; near-linear "
        "scaling needs one core per shard)"
    )
    return "\n".join(lines)


def format_async(scaling: list[ConnectionScalingResult],
                 batching: list[BatchingLoadResult]) -> str:
    """E14: connection cost per front end + micro-batching's win."""
    lines = [
        "Async front end (connection cost, then micro-batching "
        "throughput)",
        f"{'Frontend':>8s} {'Conns':>6s} {'Thr +':>6s} {'Thr/conn':>9s} "
        f"{'Stack est':>10s}",
    ]
    for row in scaling:
        mib = row.est_stack_bytes / (1024 * 1024)
        lines.append(
            f"{row.frontend:>8s} {row.connections:6d} "
            f"{row.thread_delta:6d} {row.threads_per_connection:9.3f} "
            f"{mib:8.0f}Mi"
        )
    lines.append("")
    lines.append(
        f"{'Mode':>9s} {'Threads':>7s} {'Checks':>7s} {'Checks/s':>10s} "
        f"{'Batches':>8s} {'Coalesced':>9s}"
    )
    for row in batching:
        lines.append(
            f"{row.mode:>9s} {row.threads:7d} {row.checks:7d} "
            f"{row.checks_per_second:10.0f} {row.batches:8d} "
            f"{row.coalesced:9d}"
        )
    speedup = batching_speedup(batching)
    if speedup is not None:
        lines.append(f"(micro-batching win: {speedup:.2f}x over the "
                     "unbatched async run; decision cache disabled)")
    return "\n".join(lines)


def format_structural(rows: list[LevelSummary],
                      speedups: dict[str, float],
                      sql_gap: dict[str, float]) -> str:
    """E15: Figure 21's XQuery column, naive vs structural (average ms).

    The structural column has no blank cell: the Medium preference that
    defeated the XTABLE translation compiles to one flat statement.
    """
    levels = list(dict.fromkeys(row.level for row in rows))
    cells = {(row.level, row.engine): row for row in rows}
    lines = [
        "Structural XQuery compilation (per preference level, average ms)",
        f"{'Preference':12s} {'SQL':>10s} {'XTABLE':>10s} "
        f"{'Structural':>10s} {'vs XTABLE':>10s} {'vs SQL':>8s}",
    ]

    def fmt(level: str, engine: str) -> str:
        row = cells.get((level, engine))
        if row is None or row.unavailable:
            return "-"
        return f"{row.total.average * 1000:.3f}"

    for level in levels:
        speedup = f"{speedups[level]:9.2f}x" if level in speedups else "-"
        gap = f"{sql_gap[level]:7.2f}x" if level in sql_gap else "-"
        lines.append(
            f"{level:12s} {fmt(level, 'sql'):>10s} "
            f"{fmt(level, 'xquery'):>10s} "
            f"{fmt(level, 'xquery-structural'):>10s} "
            f"{speedup:>10s} {gap:>8s}"
        )
    medium = cells.get(("Medium", "xquery-structural"))
    if medium is not None and not medium.unavailable:
        lines.append(
            "(Medium: the Figure 21 blank XQuery cell is filled — "
            f"{medium.total.average * 1000:.3f} ms avg through the "
            "structural compiler; XTABLE still fails translation)"
        )
    lines.append(
        "(structural engine reuses cached plans, one bound statement "
        "per check; XTABLE re-translates per match, as in the paper)"
    )
    return "\n".join(lines)
