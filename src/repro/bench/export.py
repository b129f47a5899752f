"""Machine-readable benchmark results (JSON export).

Regression tracking wants numbers, not tables: ``run_all`` executes every
experiment and returns one plain-dict structure (JSON-serializable), and
``p3pdb bench --json out.json`` writes it.  The dict mirrors DESIGN.md's
experiment index so downstream tooling can diff runs field by field.
"""

from __future__ import annotations

import json
import platform
import sys
from typing import Any

from repro.bench import harness


def _aggregate(aggregate: harness.Aggregate) -> dict[str, float]:
    return {
        "average_seconds": aggregate.average,
        "max_seconds": aggregate.maximum,
        "min_seconds": aggregate.minimum,
        "count": aggregate.count,
    }


def run_all(seed: int = 2003) -> dict[str, Any]:
    """Run E1-E12 and return one JSON-serializable results document."""
    from repro.corpus.policies import fortune_corpus
    from repro.corpus.preferences import jrc_suite

    policies = fortune_corpus(seed)
    suite = jrc_suite()

    dataset = harness.dataset_statistics(seed)
    preference_rows = harness.preference_statistics()
    shredding = harness.shredding_experiment(policies)
    samples = harness.run_matching_grid(policies, suite)
    engine_rows = harness.figure20(samples)
    level_rows = harness.figure21(samples)
    warm_cold = harness.warm_cold_experiment(policies[:8], suite)
    ablation = harness.ablation_experiment(policies[:10], suite)
    concurrency = harness.concurrency_experiment(checks=200)
    http_load = harness.http_load_experiment(checks=200)
    http_overhead = harness.http_overhead(http_load)
    fault_tolerance = harness.fault_tolerance_experiment(checks=160)
    retry_overhead = harness.retry_overhead(fault_tolerance)
    plan_compilation = harness.plan_compilation_experiment(policies[:12],
                                                           suite)
    # 300 policies keeps the document's runtime tolerable while still
    # showing the set-at-a-time scaling; `p3pdb bench bulk` runs the
    # full 1000-policy acceptance configuration.
    bulk_matching = harness.bulk_matching_experiment(corpus_size=300,
                                                     seed=seed)

    return {
        "meta": {
            "seed": seed,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "e1_dataset": {
            "policies": dataset.policy_count,
            "statements": dataset.total_statements,
            "min_kb": dataset.min_kb,
            "avg_kb": dataset.avg_kb,
            "max_kb": dataset.max_kb,
        },
        "e2_preferences": [
            {"level": level, "rules": rules, "size_kb": size_kb}
            for level, rules, size_kb in preference_rows
        ],
        "e3_shredding": _aggregate(shredding.aggregate),
        "e4_figure20": {
            row.engine: {
                "convert": _aggregate(row.convert),
                "query": _aggregate(row.query),
                "total": _aggregate(row.total),
                "failures": row.failures,
            }
            for row in engine_rows
        },
        "e5_figure21": [
            {
                "level": row.level,
                "engine": row.engine,
                "unavailable": row.unavailable,
                "total": _aggregate(row.total),
            }
            for row in level_rows
        ],
        "e6_warm_cold": [
            {
                "engine": row.engine,
                "cold_seconds": row.cold_seconds,
                "warm_seconds": row.warm_seconds,
            }
            for row in warm_cold
        ],
        "e7_ablation": {
            "native_full": _aggregate(ablation.native_full),
            "native_no_augment": _aggregate(ablation.native_no_augment),
            "native_prepared": _aggregate(ablation.native_prepared),
            "augmentation_share": ablation.augmentation_share,
            "sql_optimized": _aggregate(ablation.sql_optimized),
            "sql_generic": _aggregate(ablation.sql_generic),
        },
        "e8_concurrency": [
            {
                "mode": row.mode,
                "threads": row.threads,
                "checks": row.checks,
                "seconds": row.seconds,
                "checks_per_second": row.checks_per_second,
            }
            for row in concurrency
        ],
        "e9_http_load": {
            "rows": [
                {
                    "mode": row.mode,
                    "threads": row.threads,
                    "checks": row.checks,
                    "seconds": row.seconds,
                    "checks_per_second": row.checks_per_second,
                }
                for row in http_load
            ],
            "overhead": {str(threads): multiple
                         for threads, multiple in http_overhead.items()},
        },
        "e10_fault_tolerance": {
            "rows": [
                {
                    "mode": row.mode,
                    "checks": row.checks,
                    "seconds": row.seconds,
                    "retries": row.retries,
                    "faults_injected": row.faults_injected,
                    "per_check_seconds": row.per_check_seconds,
                }
                for row in fault_tolerance
            ],
            "retry_overhead": retry_overhead,
        },
        "e11_plan_compilation": [
            {
                "mode": row.mode,
                "policies": row.policies,
                "checks": row.checks,
                "seconds": row.seconds,
                "round_trips": row.round_trips,
                "round_trips_per_check": row.round_trips_per_check,
                "translations": row.translations,
                "cached_sql_chars": row.cached_sql_chars,
                "statement_cache_hit_rate": row.statement_cache_hit_rate,
            }
            for row in plan_compilation
        ],
        "e12_bulk_matching": [
            {
                "mode": row.mode,
                "policies": row.policies,
                "seconds": row.seconds,
                "round_trips": row.round_trips,
                "decisions": row.decisions,
                "policies_per_second": row.policies_per_second,
            }
            for row in bulk_matching
        ],
    }


def save_results(path: str, seed: int = 2003) -> dict[str, Any]:
    """Run everything and write the results document to *path*."""
    results = run_all(seed)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return results


def cluster_results(shard_counts: tuple[int, ...] = (1, 2, 4),
                    replicas: int = 0,
                    corpus_size: int = 24,
                    users: int = 8,
                    checks_per_user: int = 50,
                    seed: int = 2003,
                    in_process: bool = False) -> dict[str, Any]:
    """Run E13 and return its JSON document (``BENCH_E13.json``).

    Kept out of :func:`run_all`: the cluster experiment spawns worker
    processes per shard count, which is a different weight class from
    the in-process experiments.  The document records ``cpu_count``
    because the scaling claim is conditional on it — shards beyond the
    core count serialize on the scheduler, and a reader comparing runs
    needs to know which regime produced the numbers.
    """
    import os

    rows = harness.cluster_experiment(
        shard_counts=shard_counts, replicas=replicas,
        corpus_size=corpus_size, users=users,
        checks_per_user=checks_per_user, seed=seed,
        in_process=in_process)
    speedups = harness.cluster_speedups(rows)
    return {
        "meta": {
            "seed": seed,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "corpus_size": corpus_size,
            "in_process": in_process,
        },
        "e13_cluster": {
            "rows": [
                {
                    "shards": row.shards,
                    "replicas": row.replicas,
                    "users": row.users,
                    "checks": row.checks,
                    "seconds": row.seconds,
                    "checks_per_second": row.checks_per_second,
                    "direct_checks": row.direct_checks,
                    "router_fallbacks": row.router_fallbacks,
                }
                for row in rows
            ],
            "speedups": {str(shards): multiple
                         for shards, multiple in speedups.items()},
        },
    }


def save_cluster_results(path: str, **options: Any) -> dict[str, Any]:
    """Run E13 and write ``BENCH_E13.json``-style output to *path*."""
    results = cluster_results(**options)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return results


def async_results(connections: int = 16,
                  multiplier: int = 10,
                  threads: int = 16,
                  checks: int = 400) -> dict[str, Any]:
    """Run E14 and return its JSON document (``BENCH_E14.json``).

    Like E13, kept out of :func:`run_all`: both halves hold dozens to
    hundreds of live sockets and time a concurrent storm, so the
    numbers are only meaningful on hosts with cores to spare — the
    document records ``cpu_count`` so readers know which regime
    produced it (the acceptance assertions gate on ≥ 4 cores).
    """
    import os

    scaling = harness.connection_scaling_experiment(
        connections=connections, multiplier=multiplier)
    batching = harness.batching_load_experiment(
        threads=threads, checks=checks)
    return {
        "meta": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "connections": connections,
            "multiplier": multiplier,
        },
        "e14_async": {
            "connection_scaling": [
                {
                    "frontend": row.frontend,
                    "connections": row.connections,
                    "thread_delta": row.thread_delta,
                    "threads_per_connection": row.threads_per_connection,
                    "est_stack_bytes": row.est_stack_bytes,
                }
                for row in scaling
            ],
            "batching": [
                {
                    "mode": row.mode,
                    "threads": row.threads,
                    "checks": row.checks,
                    "seconds": row.seconds,
                    "checks_per_second": row.checks_per_second,
                    "batches": row.batches,
                    "coalesced": row.coalesced,
                }
                for row in batching
            ],
            "batching_speedup": harness.batching_speedup(batching),
        },
    }


def save_async_results(path: str, **options: Any) -> dict[str, Any]:
    """Run E14 and write ``BENCH_E14.json``-style output to *path*."""
    results = async_results(**options)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return results


def structural_results(seed: int = 2003,
                       corpus_size: int | None = 12,
                       repeat: int = 3) -> dict[str, Any]:
    """Run E15 and return its JSON document (``BENCH_E15.json``).

    Kept out of :func:`run_all` like E13/E14: the XTABLE column re-runs
    the slowest engine of the grid, and the document's headline facts —
    the filled Medium cell and the per-level speedups — deserve a file
    regression tracking can diff on its own.  ``corpus_size`` defaults
    to a 12-policy slice to keep CI runtime tolerable; pass ``None``
    for the full corpus.
    """
    from repro.corpus.policies import fortune_corpus
    from repro.corpus.preferences import jrc_suite

    policies = fortune_corpus(seed)
    if corpus_size is not None:
        policies = policies[:corpus_size]
    rows = harness.structural_xquery_experiment(policies, jrc_suite(),
                                                repeat=repeat)
    speedups = harness.structural_speedups(rows)
    sql_gap = harness.structural_sql_gap(rows)
    medium = {(row.level, row.engine): row
              for row in rows}.get(("Medium", "xquery-structural"))
    return {
        "meta": {
            "seed": seed,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "corpus_size": len(policies),
            "repeat": repeat,
        },
        "e15_structural": {
            "rows": [
                {
                    "level": row.level,
                    "engine": row.engine,
                    "unavailable": row.unavailable,
                    "failures": row.failures,
                    "convert": _aggregate(row.convert),
                    "query": _aggregate(row.query),
                    "total": _aggregate(row.total),
                }
                for row in rows
            ],
            "speedup_vs_xtable": speedups,
            "gap_vs_sql": sql_gap,
            "medium_cell_filled": (medium is not None
                                   and not medium.unavailable),
        },
    }


def save_structural_results(path: str, **options: Any) -> dict[str, Any]:
    """Run E15 and write ``BENCH_E15.json``-style output to *path*."""
    results = structural_results(**options)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return results
