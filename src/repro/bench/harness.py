"""Benchmark harness: regenerates every table and figure of Section 6.

Experiment ids follow DESIGN.md:

* E1 — dataset statistics (Section 6.2)
* E2 — preference suite statistics (Figure 19)
* E3 — shredding times (Section 6.3.1)
* E4 — matching times, all engines (Figure 20)
* E5 — per-preference-level matching times (Figure 21, including the
  blank XQuery Medium cell)
* E6 — warm vs cold matching (Section 6.3.2's warm-up discussion)
* E7 — ablation: category augmentation dominates the native engine
  (Section 6.3.2's profiling claim) and optimized vs generic schema
* E8 — serving-layer concurrency: checks/sec of the seed-style serial
  server (one connection, rollback journal, commit per check) vs the
  pooled WAL server (per-thread readers, batched check log) at 1/4/16
  threads (beyond the paper; ROADMAP's "heavy traffic" north star)
* E9 — HTTP serving overhead: the same workload driven through
  :class:`~repro.net.httpd.P3PHttpServer` over loopback by 1/4/16
  client threads (register-once, then per-check POSTs on kept-alive
  connections), against the in-process ``serve_many`` numbers on an
  identical database — isolating what the wire protocol itself costs
* E10 — fault tolerance: what the retry layer costs when nothing fails
  (per-check latency with retries enabled vs disabled, same server —
  must be ≤ 5%) and what recovery costs when responses are dropped on
  a fixed schedule (per-check latency and retries under injected
  connection drops, decisions still exactly-once in the check log)
* E11 — plan compilation: the literal per-(preference, policy)
  translation pipeline (one SQL round-trip per rule probed, one cached
  translation per policy) against policy-independent
  :class:`~repro.translate.plan.CompiledPlan` execution (compile once
  per preference, exactly one parameterized round-trip per check) —
  round-trips, translation counts, cached-SQL bytes and
  statement-cache hit rates side by side
* E12 — bulk matching: one preference against a large corpus, three
  ways — N per-policy compiled-plan executions, one set-at-a-time
  :class:`~repro.translate.plan.BulkPlan` round trip, and one indexed
  read of the materialized decision cache (populated untimed) — the
  scaling argument for ``match_all`` and ``POST /v1/match``
* E13 — cluster scaling: the same check workload driven by concurrent
  simulated users against :class:`~repro.cluster.router.P3PCluster`
  deployments of growing shard counts (per-shard worker processes,
  optional backup-API read replicas, consistent-hash routing) — the
  aggregate checks/sec trajectory as the corpus is partitioned,
  against the single-shard deployment as baseline
* E14 — async front end: (a) connection scaling — server-side thread
  growth when N idle-but-open keep-alive connections each complete a
  check, threaded front end at N vs
  :class:`~repro.net.aio.AsyncP3PServer` at 10×N (the async loop plus
  its bounded executor must stay flat); (b) batching throughput — the
  E9 skewed workload (one preference, eight URIs) over the async
  server with cross-connection micro-batching on (``batch_max``
  32) vs off (``batch_max`` 1), decision cache off so every check
  reaches plan execution

Absolute numbers differ from the paper's 2002 hardware + DB2 setup by
orders of magnitude; the harness exists to reproduce the *shape* —
orderings, ratios, and failure cells (see EXPERIMENTS.md).
"""

from __future__ import annotations

import json
import os
import socket
import statistics
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.appel.engine import AppelEngine
from repro.appel.model import Ruleset
from repro.corpus.policies import corpus_statistics, fortune_corpus
from repro.corpus.preferences import jrc_suite
from repro.engines import (
    GenericSqlMatchEngine,
    MatchEngine,
    NativeAppelMatchEngine,
    SqlMatchEngine,
    XQueryStructuralMatchEngine,
    XTableMatchEngine,
)
from repro.p3p.model import Policy
from repro.storage.shredder import PolicyStore


@dataclass(frozen=True)
class MatchSample:
    """One (engine, preference level, policy) timing observation."""

    engine: str
    level: str
    policy_index: int
    convert_seconds: float
    query_seconds: float
    behavior: str | None
    error: str | None = None

    @property
    def total_seconds(self) -> float:
        return self.convert_seconds + self.query_seconds

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class Aggregate:
    """avg/max/min summary of a series of seconds, Figure 20 style."""

    average: float
    maximum: float
    minimum: float
    count: int

    @staticmethod
    def of(values: list[float]) -> "Aggregate":
        if not values:
            return Aggregate(0.0, 0.0, 0.0, 0)
        return Aggregate(
            average=statistics.fmean(values),
            maximum=max(values),
            minimum=min(values),
            count=len(values),
        )


# -- E1 / E2: workload statistics ------------------------------------------------


def dataset_statistics(seed: int = 2003):
    """E1: the Section 6.2 dataset numbers for the synthetic corpus."""
    return corpus_statistics(fortune_corpus(seed))


def preference_statistics() -> list[tuple[str, int, float]]:
    """E2: (level, rule count, size KB) rows — the Figure 19 table."""
    from repro.appel.analysis import ruleset_stats

    rows: list[tuple[str, int, float]] = []
    for level, ruleset in jrc_suite().items():
        stats = ruleset_stats(ruleset)
        rows.append((level, stats.rule_count, stats.size_kb))
    return rows


# -- E3: shredding ------------------------------------------------------------------


@dataclass(frozen=True)
class ShreddingResult:
    per_policy_seconds: tuple[float, ...]
    aggregate: Aggregate


def shredding_experiment(policies: list[Policy] | None = None,
                         repeat: int = 3) -> ShreddingResult:
    """E3: time to shred each policy into the optimized schema.

    Each policy is shredded ``repeat`` times into fresh stores and the
    minimum is kept (isolating the algorithmic cost from scheduler noise).
    """
    if policies is None:
        policies = fortune_corpus()
    timings: list[float] = []
    for policy in policies:
        best = float("inf")
        for _ in range(repeat):
            store = PolicyStore()
            start = time.perf_counter()
            store.install_policy(policy)
            best = min(best, time.perf_counter() - start)
            store.db.close()
        timings.append(best)
    return ShreddingResult(
        per_policy_seconds=tuple(timings),
        aggregate=Aggregate.of(timings),
    )


# -- E4 / E5: the matching grid ---------------------------------------------------------


def default_engines() -> list[MatchEngine]:
    """The three engines of Figure 20."""
    return [NativeAppelMatchEngine(), SqlMatchEngine(), XTableMatchEngine()]


def run_matching_grid(policies: list[Policy] | None = None,
                      suite: dict[str, Ruleset] | None = None,
                      engines: list[MatchEngine] | None = None,
                      warm: bool = True,
                      repeat: int = 3) -> list[MatchSample]:
    """E4/E5 data: match every preference against every policy per engine.

    With ``warm=True`` each engine performs one discarded warm-up match
    before measurement, following the paper's protocol (Section 6.3.2).

    The full grid is traversed ``repeat`` times and the median-total
    observation kept per cell, insulating the tables from scheduler
    noise.  Passes are interleaved at the grid level — not repeated
    back-to-back per cell — so hundreds of other statements run between
    two measurements of the same cell, which keeps prepared-statement
    caching from gifting the database engines an advantage the paper's
    protocol explicitly avoided ("we stopped and restarted DB2 after
    matching each preference to avoid any advantage due to DB2 query
    caching").
    """
    if policies is None:
        policies = fortune_corpus()
    if suite is None:
        suite = jrc_suite()
    if engines is None:
        engines = default_engines()
    repeat = max(1, repeat)

    samples: list[MatchSample] = []
    warm_up_preference = next(iter(suite.values()))

    for engine in engines:
        handles = [engine.install(policy) for policy in policies]
        if warm:
            engine.match(handles[0], warm_up_preference)
        cells: dict[tuple[str, int], list] = {}
        for _ in range(repeat):
            for level, preference in suite.items():
                for index, handle in enumerate(handles):
                    cells.setdefault((level, index), []).append(
                        engine.match(handle, preference)
                    )
        for level in suite:
            for index in range(len(handles)):
                outcomes = sorted(cells[(level, index)],
                                  key=lambda o: o.total_seconds)
                outcome = outcomes[len(outcomes) // 2]
                samples.append(
                    MatchSample(
                        engine=engine.name,
                        level=level,
                        policy_index=index,
                        convert_seconds=outcome.convert_seconds,
                        query_seconds=outcome.query_seconds,
                        behavior=outcome.behavior,
                        error=outcome.error,
                    )
                )
    return samples


@dataclass(frozen=True)
class EngineSummary:
    """One engine's Figure 20 row."""

    engine: str
    convert: Aggregate
    query: Aggregate
    total: Aggregate
    failures: int


def figure20(samples: list[MatchSample]) -> list[EngineSummary]:
    """E4: aggregate the grid into the Figure 20 rows."""
    by_engine: dict[str, list[MatchSample]] = {}
    for sample in samples:
        by_engine.setdefault(sample.engine, []).append(sample)
    rows: list[EngineSummary] = []
    for engine, runs in sorted(by_engine.items()):
        ok = [s for s in runs if not s.failed]
        rows.append(EngineSummary(
            engine=engine,
            convert=Aggregate.of([s.convert_seconds for s in ok]),
            query=Aggregate.of([s.query_seconds for s in ok]),
            total=Aggregate.of([s.total_seconds for s in ok]),
            failures=len(runs) - len(ok)))
    return rows


@dataclass(frozen=True)
class LevelSummary:
    """One (level, engine) cell block of Figure 21."""

    level: str
    engine: str
    convert: Aggregate
    query: Aggregate
    total: Aggregate
    failures: int

    @property
    def unavailable(self) -> bool:
        """True when every sample failed (the blank Medium/XQuery cell)."""
        return self.total.count == 0


def figure21(samples: list[MatchSample]) -> list[LevelSummary]:
    """E5: per-preference-level aggregates (Figure 21)."""
    levels = list(dict.fromkeys(s.level for s in samples))
    engines = sorted({s.engine for s in samples})
    rows: list[LevelSummary] = []
    for level in levels:
        for engine in engines:
            cell = [s for s in samples
                    if (s.level, s.engine) == (level, engine)]
            ok = [s for s in cell if not s.failed]
            rows.append(
                LevelSummary(
                    level=level,
                    engine=engine,
                    convert=Aggregate.of([s.convert_seconds for s in ok]),
                    query=Aggregate.of([s.query_seconds for s in ok]),
                    total=Aggregate.of([s.total_seconds for s in ok]),
                    failures=len(cell) - len(ok),
                )
            )
    return rows


# -- E6: warm vs cold ---------------------------------------------------------------------


@dataclass(frozen=True)
class WarmColdResult:
    engine: str
    cold_seconds: float
    warm_seconds: float

    @property
    def delta_seconds(self) -> float:
        return self.cold_seconds - self.warm_seconds


def warm_cold_experiment(policies: list[Policy] | None = None,
                         suite: dict[str, Ruleset] | None = None,
                         warm_repeats: int = 5) -> list[WarmColdResult]:
    """E6: first-match vs steady-state times per engine."""
    if policies is None:
        policies = fortune_corpus()[:5]
    if suite is None:
        suite = jrc_suite()
    preference = suite["High"]

    results: list[WarmColdResult] = []
    for factory in (NativeAppelMatchEngine, SqlMatchEngine,
                    XTableMatchEngine):
        engine = factory()
        handles = [engine.install(policy) for policy in policies]
        cold = engine.match(handles[0], preference).total_seconds
        warm_times: list[float] = []
        for _ in range(warm_repeats):
            for handle in handles:
                warm_times.append(
                    engine.match(handle, preference).total_seconds
                )
        results.append(
            WarmColdResult(
                engine=engine.name,
                cold_seconds=cold,
                warm_seconds=statistics.fmean(warm_times),
            )
        )
    return results


# -- E7: ablations ----------------------------------------------------------------------------


@dataclass(frozen=True)
class AblationResult:
    """Native-engine cost decomposition + schema ablation."""

    native_full: Aggregate          # render+parse+augment+match per check
    native_no_augment: Aggregate    # augmentation skipped
    native_prepared: Aggregate      # document prepared once (server-style)
    augmentation_share: float       # fraction of full cost due to prep
    sql_optimized: Aggregate
    sql_generic: Aggregate


def ablation_experiment(policies: list[Policy] | None = None,
                        suite: dict[str, Ruleset] | None = None
                        ) -> AblationResult:
    """E7: reproduce the profiling claim of Section 6.3.2.

    The paper profiled the JRC engine and found that augmenting every data
    element with base-schema categories "accounts for most of the
    difference in performance".  We time the native engine (a) as shipped,
    (b) with augmentation disabled, and (c) against pre-prepared documents,
    plus the SQL pipeline on both schemas.
    """
    if policies is None:
        policies = fortune_corpus()[:10]
    if suite is None:
        suite = jrc_suite()

    full_times: list[float] = []
    no_augment_times: list[float] = []
    prepared_times: list[float] = []

    full_engine = AppelEngine(augment=True)
    bare_engine = AppelEngine(augment=False)
    for policy in policies:
        prepared = full_engine.prepare(policy)
        for preference in suite.values():
            start = time.perf_counter()
            full_engine.evaluate(policy, preference)
            full_times.append(time.perf_counter() - start)

            start = time.perf_counter()
            bare_engine.evaluate(policy, preference)
            no_augment_times.append(time.perf_counter() - start)

            start = time.perf_counter()
            full_engine.evaluate_prepared(prepared, preference)
            prepared_times.append(time.perf_counter() - start)

    sql_times: dict[str, list[float]] = {"sql": [], "sql-generic": []}
    for engine in (SqlMatchEngine(), GenericSqlMatchEngine()):
        handles = [engine.install(policy) for policy in policies]
        engine.match(handles[0], suite["Low"])  # warm up
        for preference in suite.values():
            for handle in handles:
                outcome = engine.match(handle, preference)
                sql_times[engine.name].append(outcome.total_seconds)

    full = Aggregate.of(full_times)
    prepared_agg = Aggregate.of(prepared_times)
    share = 0.0
    if full.average > 0:
        share = (full.average - prepared_agg.average) / full.average
    return AblationResult(
        native_full=full,
        native_no_augment=Aggregate.of(no_augment_times),
        native_prepared=prepared_agg,
        augmentation_share=share,
        sql_optimized=Aggregate.of(sql_times["sql"]),
        sql_generic=Aggregate.of(sql_times["sql-generic"]),
    )


# -- E8: serving-layer concurrency ------------------------------------------------


@dataclass(frozen=True)
class ConcurrencyResult:
    """Throughput of one serving configuration at one thread count."""

    mode: str       # "serial" (seed-style) or "pooled" (WAL + batched log)
    threads: int
    checks: int
    seconds: float

    @property
    def checks_per_second(self) -> float:
        return self.checks / self.seconds if self.seconds > 0 else 0.0


def _concurrency_requests(checks: int) -> list[tuple[str, str, object]]:
    from repro.corpus.volga import jane_preference

    jane = jane_preference()
    # A handful of covered URIs so the prepared-statement cache behaves
    # like a real site (repeat traffic), not a single hot string.
    return [
        ("volga.example.com", f"/catalog/item-{i % 8}", jane)
        for i in range(checks)
    ]


def _concurrency_server(db, **server_options):
    from repro.corpus.volga import VOLGA_REFERENCE_XML, volga_policy
    from repro.server.policy_server import PolicyServer

    server = PolicyServer(db, **server_options)
    server.install_policy(volga_policy(), site="volga.example.com")
    server.install_reference_file(VOLGA_REFERENCE_XML, "volga.example.com")
    return server


def concurrency_experiment(directory: str | None = None,
                           thread_counts: tuple[int, ...] = (1, 4, 16),
                           checks: int = 400,
                           warmup: int = 32) -> list[ConcurrencyResult]:
    """E8: the serving-layer trajectory the paper never measured.

    Two configurations over the same on-disk workload:

    * ``serial`` — the deployment the seed code implied: one shared
      connection, rollback journal, and a check-log commit on every
      request, driven by a single thread.  This is the 1-thread
      baseline.
    * ``pooled`` — the concurrent serving layer: WAL connection pool
      (per-thread readers, serialized writer) and the batched check-log
      writer, driven through :meth:`PolicyServer.serve_many` at each
      thread count (including 1, so pool overhead is visible).

    Every pooled run flushes the log inside the timed region, so the
    numbers compare equal durability: all checks are on disk when the
    clock stops.
    """
    from repro.storage.database import Database

    requests = _concurrency_requests(checks)
    results: list[ConcurrencyResult] = []

    with tempfile.TemporaryDirectory(dir=directory) as workdir:
        serial_path = os.path.join(workdir, "serial.db")
        serial = _concurrency_server(Database(serial_path),
                                     log_batch_size=1)
        try:
            serial.serve_many(requests[:warmup], threads=1)
            start = time.perf_counter()
            serial.serve_many(requests, threads=1)
            results.append(ConcurrencyResult(
                mode="serial", threads=1, checks=checks,
                seconds=time.perf_counter() - start,
            ))
        finally:
            serial.close()

        pooled_path = os.path.join(workdir, "pooled.db")
        pooled = _concurrency_server(pooled_path, log_batch_size=256,
                                     log_flush_interval=0.05)
        try:
            pooled.serve_many(requests[:warmup], threads=max(thread_counts))
            for threads in thread_counts:
                start = time.perf_counter()
                pooled.serve_many(requests, threads=threads)
                results.append(ConcurrencyResult(
                    mode="pooled", threads=threads, checks=checks,
                    seconds=time.perf_counter() - start,
                ))
        finally:
            pooled.close()
    return results


# -- E9: HTTP serving overhead ----------------------------------------------------


@dataclass(frozen=True)
class HttpLoadResult:
    """Throughput of one transport at one client-thread count."""

    mode: str       # "in-process" (serve_many) or "http" (loopback POSTs)
    threads: int
    checks: int
    seconds: float

    @property
    def checks_per_second(self) -> float:
        return self.checks / self.seconds if self.seconds > 0 else 0.0


def http_overhead(rows: list[HttpLoadResult]) -> dict[int, float]:
    """Per thread count: HTTP time as a multiple of in-process time."""
    in_process = {row.threads: row.seconds for row in rows
                  if row.mode == "in-process"}
    return {
        row.threads: row.seconds / in_process[row.threads]
        for row in rows
        if row.mode == "http" and in_process.get(row.threads)
    }


def _drive_http(base_url: str, preference, preference_hash: str,
                requests: list[tuple], threads: int) -> None:
    """Fan per-check POSTs over *threads* client threads.

    Each thread gets its own :class:`HttpClientAgent` (kept-alive
    connection per thread) seeded with the already-registered hash, so
    the measured region contains checks only — registration was paid
    once, before the clock started.
    """
    from repro.net.client import HttpClientAgent

    def worker(chunk: list[tuple]) -> int:
        with HttpClientAgent(base_url, preference,
                             preference_hash=preference_hash) as agent:
            for site, uri, _ in chunk:
                agent.check(site, uri)
        return len(chunk)

    chunks = [requests[index::threads] for index in range(threads)]
    if threads <= 1:
        worker(requests)
    else:
        with ThreadPoolExecutor(max_workers=threads) as executor:
            list(executor.map(worker, chunks))


def http_load_experiment(directory: str | None = None,
                         thread_counts: tuple[int, ...] = (1, 4, 16),
                         checks: int = 400,
                         warmup: int = 32) -> list[HttpLoadResult]:
    """E9: what does the wire add on top of the in-process server?

    Both transports run the pooled configuration of E8 (WAL pool,
    batched check log) over identical on-disk databases and the same
    request stream; the HTTP side pays JSON encode/decode, HTTP parsing
    and loopback TCP on kept-alive connections.  Every timed region ends
    with a log flush, so both transports are measured to equal
    durability.  ``http_overhead`` reduces the rows to the per-thread
    protocol multiple.
    """
    from repro.corpus.volga import jane_preference
    from repro.net.client import HttpClientAgent
    from repro.net.httpd import P3PHttpServer

    requests = _concurrency_requests(checks)
    jane = jane_preference()
    results: list[HttpLoadResult] = []

    with tempfile.TemporaryDirectory(dir=directory) as workdir:
        in_process = _concurrency_server(
            os.path.join(workdir, "inprocess.db"),
            log_batch_size=256, log_flush_interval=0.05)
        try:
            in_process.serve_many(requests[:warmup],
                                  threads=max(thread_counts))
            for threads in thread_counts:
                start = time.perf_counter()
                in_process.serve_many(requests, threads=threads)
                results.append(HttpLoadResult(
                    mode="in-process", threads=threads, checks=checks,
                    seconds=time.perf_counter() - start,
                ))
        finally:
            in_process.close()

        backend = _concurrency_server(
            os.path.join(workdir, "http.db"),
            log_batch_size=256, log_flush_interval=0.05)
        httpd = P3PHttpServer(backend, ("127.0.0.1", 0),
                              max_inflight=max(thread_counts) * 4)
        thread = httpd.run_in_thread()
        try:
            bootstrap = HttpClientAgent(httpd.base_url, jane)
            digest = bootstrap.register_preference()
            bootstrap.check_batch(
                [(site, uri) for site, uri, _ in requests[:warmup]])
            bootstrap.close()
            for threads in thread_counts:
                start = time.perf_counter()
                _drive_http(httpd.base_url, jane, digest,
                            requests, threads)
                backend.flush_log()
                results.append(HttpLoadResult(
                    mode="http", threads=threads, checks=checks,
                    seconds=time.perf_counter() - start,
                ))
        finally:
            httpd.close()
            backend.close()
            thread.join(timeout=5)
    return results


# -- E10: fault tolerance ----------------------------------------------------------


@dataclass(frozen=True)
class FaultToleranceResult:
    """One client configuration's latency over the same HTTP server."""

    mode: str       # "no-retry" | "retry" | "retry-faults"
    checks: int
    seconds: float
    retries: int
    faults_injected: int

    @property
    def per_check_seconds(self) -> float:
        return self.seconds / self.checks if self.checks else 0.0

    @property
    def checks_per_second(self) -> float:
        return self.checks / self.seconds if self.seconds > 0 else 0.0


def retry_overhead(rows: list["FaultToleranceResult"]) -> float | None:
    """Zero-fault cost of the retry layer: retry time / no-retry time."""
    by_mode = {row.mode: row for row in rows}
    base = by_mode.get("no-retry")
    with_retry = by_mode.get("retry")
    if base is None or with_retry is None or base.seconds <= 0:
        return None
    return with_retry.seconds / base.seconds


def fault_tolerance_experiment(directory: str | None = None,
                               checks: int = 240,
                               warmup: int = 32,
                               fault_every: int = 7,
                               repeats: int = 3
                               ) -> list[FaultToleranceResult]:
    """E10: price the fault-tolerance layer.

    One HTTP server (E9's pooled configuration), three client
    configurations over the same warmed database:

    * ``no-retry``  — ``HttpClientAgent(retry=None)``: the PR-2
      baseline, every failure surfaces;
    * ``retry``     — retries enabled, zero faults injected: measures
      what the policy wrapper and ``check_key`` stamping cost when
      nothing goes wrong (the acceptance bound is ≤ 5%);
    * ``retry-faults`` — the server drops the response of every
      *fault_every*-th check request after processing it (the lost-ACK
      case idempotent logging exists for); the client heals via
      retries, and the row records what recovery costs.

    The two zero-fault modes alternate over *repeats* rounds and each
    reports its fastest round — min-of-N cancels the scheduler and
    filesystem noise that would otherwise dwarf a sub-5% delta.  Each
    timed region ends with a log flush, so all modes are measured to
    equal durability.
    """
    from repro.net.client import HttpClientAgent
    from repro.net.httpd import P3PHttpServer
    from repro.net.retry import RetryPolicy
    from repro.testing.faults import FaultPlan, http_fault_hook

    requests = _concurrency_requests(checks)
    results: list[FaultToleranceResult] = []
    # Fast backoff: the experiment prices mechanics, not sleep time.
    policy = RetryPolicy(max_attempts=6, base_delay=0.002,
                         multiplier=2.0, max_delay=0.05, deadline=30.0)

    def drive(agent) -> float:
        start = time.perf_counter()
        for site, uri, _ in requests:
            agent.check(site, uri)
        backend.flush_log()
        return time.perf_counter() - start

    with tempfile.TemporaryDirectory(dir=directory) as workdir:
        backend = _concurrency_server(
            os.path.join(workdir, "faults.db"),
            log_batch_size=256, log_flush_interval=0.05)
        httpd = P3PHttpServer(backend, ("127.0.0.1", 0))
        thread = httpd.run_in_thread()
        try:
            from repro.corpus.volga import jane_preference
            jane = jane_preference()
            bootstrap = HttpClientAgent(httpd.base_url, jane)
            digest = bootstrap.register_preference()
            bootstrap.check_batch(
                [(site, uri) for site, uri, _ in requests[:warmup]])
            bootstrap.close()

            agents = {
                "no-retry": HttpClientAgent(httpd.base_url, jane,
                                            preference_hash=digest,
                                            retry=None),
                "retry": HttpClientAgent(httpd.base_url, jane,
                                         preference_hash=digest,
                                         retry=policy),
            }
            try:
                best: dict[str, float] = {}
                for _ in range(repeats):
                    for mode, agent in agents.items():
                        seconds = drive(agent)
                        if seconds < best.get(mode, float("inf")):
                            best[mode] = seconds
                for mode, agent in agents.items():
                    results.append(FaultToleranceResult(
                        mode=mode, checks=checks, seconds=best[mode],
                        retries=agent.retries, faults_injected=0))
            finally:
                for agent in agents.values():
                    agent.close()

            plan = FaultPlan(every={"response-drop": fault_every})
            httpd.fault_hook = http_fault_hook(plan)
            try:
                with HttpClientAgent(httpd.base_url, jane,
                                     preference_hash=digest,
                                     retry=policy) as agent:
                    seconds = drive(agent)
                    results.append(FaultToleranceResult(
                        mode="retry-faults", checks=checks,
                        seconds=seconds, retries=agent.retries,
                        faults_injected=plan.total_injected))
            finally:
                httpd.fault_hook = None
        finally:
            httpd.close()
            backend.close()
            thread.join(timeout=5)
    return results


# -- E11: plan compilation ---------------------------------------------------------


@dataclass(frozen=True)
class PlanCompilationResult:
    """One evaluation pipeline's numbers over the same warm database."""

    mode: str              # "literal" (per-policy SQL) or "plan" (compiled)
    policies: int
    checks: int
    seconds: float
    round_trips: int       # SQL statements issued in the measured region
    translations: int      # distinct translations the pipeline had to keep
    cached_sql_chars: int  # memory proxy: total SQL text a cache would hold
    statement_cache_hits: int
    statement_cache_misses: int

    @property
    def round_trips_per_check(self) -> float:
        return self.round_trips / self.checks if self.checks else 0.0

    @property
    def checks_per_second(self) -> float:
        return self.checks / self.seconds if self.seconds > 0 else 0.0

    @property
    def statement_cache_hit_rate(self) -> float:
        lookups = self.statement_cache_hits + self.statement_cache_misses
        return self.statement_cache_hits / lookups if lookups else 0.0


def plan_compilation_experiment(policies: list[Policy] | None = None,
                                suite: dict[str, Ruleset] | None = None
                                ) -> list[PlanCompilationResult]:
    """E11: what does compiling plans buy over literal translation?

    Both pipelines answer the identical check grid (every preference in
    *suite* against every policy) on one warm on-memory store:

    * ``literal`` — the paper's figures taken literally: each
      (preference, policy) pair gets its own translation with the policy
      id spliced in as a constant, and :func:`evaluate_ruleset` probes
      rule queries one round-trip at a time until one fires.  A cache in
      front of this pipeline must hold ``preferences × policies``
      entries, and every policy's SQL is a distinct statement text to
      the connection's prepared-statement cache.
    * ``plan`` — ``compile_ruleset`` once per preference: the policy id
      is a bind parameter, the first-rule-wins loop is folded into a
      single ``UNION ALL … ORDER BY rule_index LIMIT 1`` statement, and
      every check is exactly one round-trip executing one cached
      statement text.

    Both modes run the full grid once unmeasured (warm protocol of
    Section 6.3.2), then measured with statement counters reset, so
    ``round_trips`` is the steady-state number.
    """
    from repro.translate.appel_to_sql import (
        OptimizedSqlTranslator,
        applicable_policy_literal,
        evaluate_ruleset,
    )

    if policies is None:
        policies = fortune_corpus()[:12]
    if suite is None:
        suite = jrc_suite()

    store = PolicyStore()
    db = store.db
    handles = [store.install_policy(policy).policy_id
               for policy in policies]
    translator = OptimizedSqlTranslator()
    results: list[PlanCompilationResult] = []
    checks = len(suite) * len(handles)

    try:
        # literal: one translation per (preference, policy) cell.
        literal = {
            (level, handle): translator.translate_ruleset(
                preference, applicable_policy_literal(handle))
            for level, preference in suite.items()
            for handle in handles
        }
        chars = sum(len(rule.sql) for translated in literal.values()
                    for rule in translated.rules)
        for translated in literal.values():        # warm pass
            evaluate_ruleset(db, translated)
        db.stats.reset()
        start = time.perf_counter()
        for translated in literal.values():
            evaluate_ruleset(db, translated)
        results.append(PlanCompilationResult(
            mode="literal", policies=len(handles), checks=checks,
            seconds=time.perf_counter() - start,
            round_trips=db.stats.statements,
            translations=len(literal),
            cached_sql_chars=chars,
            statement_cache_hits=db.stats.cache_hits,
            statement_cache_misses=db.stats.cache_misses,
        ))

        # plan: one compilation per preference, any policy id binds.
        plans = {level: translator.compile_ruleset(preference)
                 for level, preference in suite.items()}
        for plan in plans.values():                # warm pass
            for handle in handles:
                plan.execute(db, handle)
        db.stats.reset()
        start = time.perf_counter()
        for plan in plans.values():
            for handle in handles:
                plan.execute(db, handle)
        results.append(PlanCompilationResult(
            mode="plan", policies=len(handles), checks=checks,
            seconds=time.perf_counter() - start,
            round_trips=db.stats.statements,
            translations=len(plans),
            cached_sql_chars=sum(plan.size_chars()
                                 for plan in plans.values()),
            statement_cache_hits=db.stats.cache_hits,
            statement_cache_misses=db.stats.cache_misses,
        ))
    finally:
        db.close()
    return results


# -- E12: bulk matching ------------------------------------------------------------


@dataclass(frozen=True)
class BulkMatchingResult:
    """One corpus-matching strategy's numbers over the same warm store."""

    mode: str              # "per-policy", "bulk", or "cached"
    policies: int
    seconds: float
    round_trips: int       # SQL statements issued in the measured region
    decisions: int         # policies a rule fired against

    @property
    def policies_per_second(self) -> float:
        return self.policies / self.seconds if self.seconds > 0 else 0.0


def bulk_matching_experiment(corpus_size: int = 1000,
                             level: str = "High",
                             seed: int = 2003
                             ) -> list[BulkMatchingResult]:
    """E12: what does set-at-a-time matching buy at corpus scale?

    One preference (*level* of the JRC suite) against *corpus_size*
    synthetic policies on a warm in-memory store, three ways:

    * ``per-policy`` — the E11 winner taken to the corpus: the compiled
      plan executed once per policy, N round trips;
    * ``bulk`` — one :class:`~repro.translate.plan.BulkPlan` execution:
      the whole corpus decided in a single statement (window-function
      first-rule-wins), one round trip;
    * ``cached`` — the bulk result materialized into ``decision_cache``
      (populate untimed, the pay-once moment), then the timed region is
      one indexed read of :data:`DecisionCache.MATCH_SQL` — what a warm
      ``match_all`` actually executes.

    Every mode runs once unmeasured, then measured with statement
    counters reset; all three must agree on the decisions.
    """
    from repro.storage.decision_cache import DecisionCache, decision_rows
    from repro.translate.appel_to_sql import OptimizedSqlTranslator

    preference = jrc_suite()[level]
    store = PolicyStore()
    db = store.db
    handles = [store.install_policy(policy).policy_id
               for policy in fortune_corpus(seed=seed, count=corpus_size)]
    translator = OptimizedSqlTranslator()
    results: list[BulkMatchingResult] = []

    try:
        plan = translator.compile_ruleset(preference)
        for handle in handles:                     # warm pass
            plan.execute(db, handle)
        db.stats.reset()
        start = time.perf_counter()
        fired_serial = {}
        for handle in handles:
            behavior, rule_index = plan.execute(db, handle)
            if behavior is not None:
                fired_serial[handle] = (behavior, rule_index)
        results.append(BulkMatchingResult(
            mode="per-policy", policies=len(handles),
            seconds=time.perf_counter() - start,
            round_trips=db.stats.statements,
            decisions=len(fired_serial),
        ))

        bulk = translator.compile_bulk(preference)
        bulk.execute(db)                           # warm pass
        db.stats.reset()
        start = time.perf_counter()
        fired_bulk = bulk.execute(db)
        results.append(BulkMatchingResult(
            mode="bulk", policies=len(handles),
            seconds=time.perf_counter() - start,
            round_trips=db.stats.statements,
            decisions=len(fired_bulk),
        ))
        if fired_bulk != fired_serial:
            raise AssertionError(
                "bulk plan disagrees with per-policy execution")

        cache = DecisionCache()
        cache.ensure_schema(db)
        pref_hash = "bench-e12"
        actives = [(int(row["policy_id"]), int(row["version"]))
                   for row in db.query(
                       "SELECT policy_id, version FROM policy "
                       "WHERE active = 1")]
        with db.transaction():                     # populate, untimed
            cache.store_rows(db, decision_rows(
                pref_hash, actives, fired_bulk))
        cache.match_rows(db, pref_hash)            # warm pass
        db.stats.reset()
        start = time.perf_counter()
        rows = cache.match_rows(db, pref_hash)
        seconds = time.perf_counter() - start
        fired_cached = {
            int(row["policy_id"]): (row["behavior"],
                                    int(row["rule_index"]))
            for row in rows if row["behavior"] is not None
        }
        results.append(BulkMatchingResult(
            mode="cached", policies=len(handles),
            seconds=seconds,
            round_trips=db.stats.statements,
            decisions=len(fired_cached),
        ))
        if fired_cached != fired_bulk:
            raise AssertionError(
                "materialized decisions disagree with the bulk plan")
    finally:
        db.close()
    return results


# -- E13: cluster scaling ----------------------------------------------------------


@dataclass(frozen=True)
class ClusterResult:
    """One cluster deployment's check throughput under concurrent users."""

    shards: int
    replicas: int
    users: int
    checks: int
    seconds: float
    direct_checks: int       # served by the topology-aware direct path
    router_fallbacks: int    # checks that fell back through the router

    @property
    def checks_per_second(self) -> float:
        return self.checks / self.seconds if self.seconds > 0 else 0.0


def cluster_speedups(rows: list[ClusterResult]) -> dict[int, float]:
    """Per shard count: throughput as a multiple of the 1-shard row."""
    baseline = next((row for row in rows if row.shards == 1), None)
    if baseline is None or baseline.checks_per_second <= 0:
        return {}
    return {
        row.shards: row.checks_per_second / baseline.checks_per_second
        for row in rows
    }


_CLUSTER_REFERENCE_XML = """\
<META xmlns="http://www.w3.org/2002/01/P3Pv1">
  <POLICY-REFERENCES>
    <EXPIRY max-age="86400"/>
    <POLICY-REF about="/w3c/policy.xml#{name}">
      <INCLUDE>/*</INCLUDE>
      <COOKIE-INCLUDE>/*</COOKIE-INCLUDE>
    </POLICY-REF>
  </POLICY-REFERENCES>
</META>
"""


def cluster_corpus(corpus_size: int = 24, seed: int = 2003
                   ) -> list[tuple[str, str, str]]:
    """(site, policy XML, reference XML) per synthetic corpus policy.

    Every policy gets its own site — the unit the consistent-hash ring
    partitions by — and a reference file covering the whole site, so a
    routed check resolves to a real decision, not "uncovered".
    """
    from repro.p3p.serializer import serialize_policy

    entries: list[tuple[str, str, str]] = []
    for policy in fortune_corpus(seed=seed, count=corpus_size):
        site = f"www.{policy.name}.example.com"
        entries.append((
            site,
            serialize_policy(policy),
            _CLUSTER_REFERENCE_XML.format(name=policy.name),
        ))
    return entries


def cluster_experiment(shard_counts: tuple[int, ...] = (1, 2, 4),
                       replicas: int = 0,
                       corpus_size: int = 24,
                       users: int = 8,
                       checks_per_user: int = 50,
                       warmup: int = 1,
                       seed: int = 2003,
                       directory: str | None = None,
                       in_process: bool = False
                       ) -> list[ClusterResult]:
    """E13: how does check throughput scale with shard count?

    For each shard count the same corpus (each site owned by exactly
    one shard under the consistent-hash ring) is installed through the
    router, then *users* concurrent simulated users — one
    :class:`~repro.cluster.client.ClusterClient` per thread, the
    reader-per-thread discipline yet again — each issue
    *checks_per_user* checks round-robin across the sites.  The timed
    region is the concurrent check storm only: installs, preference
    broadcast and *warmup* passes are paid beforehand.

    Workers are real processes by default (``in_process=True`` collapses
    them onto threads — useful under test, meaningless as a scaling
    measurement).  Near-linear scaling needs cores to scale onto: on an
    N-core host, expect the curve to flatten past N shards.
    """
    from repro.appel.serializer import serialize_ruleset
    from repro.cluster import ClusterClient, P3PCluster
    from repro.corpus.volga import jane_preference

    entries = cluster_corpus(corpus_size, seed)
    appel = serialize_ruleset(jane_preference(), indent=False)
    results: list[ClusterResult] = []

    for shards in shard_counts:
        with tempfile.TemporaryDirectory(dir=directory) as workdir:
            cluster = P3PCluster(shards=shards, replicas=replicas,
                                 db_dir=workdir,
                                 in_process=in_process).start()
            clients: list[ClusterClient] = []
            try:
                admin = ClusterClient(cluster.base_url, appel)
                clients.append(admin)
                for site, policy_xml, reference in entries:
                    admin.install_policy(policy_xml, site=site,
                                         reference_file=reference)
                if replicas:
                    # Let every replica refresh past the installs, so
                    # the storm reads a complete corpus either path.
                    time.sleep(2.5 * cluster.primaries[0]
                               .config.refresh_interval)
                for _ in range(warmup):
                    for site, _, _ in entries:
                        admin.check(site, "/catalog/item-0")

                clients.extend(ClusterClient(cluster.base_url, appel)
                               for _ in range(users))
                workers = clients[1:]
                for client in workers:   # register + fetch topology
                    client.check(entries[0][0], "/catalog/item-0")

                def drive(user: int) -> int:
                    client = workers[user]
                    for i in range(checks_per_user):
                        site = entries[(user + i) % len(entries)][0]
                        client.check(site, f"/catalog/item-{i % 8}")
                    return checks_per_user

                base_direct = sum(c.direct_checks for c in workers)
                base_fallbacks = sum(c.router_fallbacks for c in workers)
                start = time.perf_counter()
                with ThreadPoolExecutor(max_workers=users) as executor:
                    total = sum(executor.map(drive, range(users)))
                seconds = time.perf_counter() - start

                results.append(ClusterResult(
                    shards=shards, replicas=replicas, users=users,
                    checks=total, seconds=seconds,
                    direct_checks=sum(c.direct_checks
                                      for c in workers) - base_direct,
                    router_fallbacks=sum(c.router_fallbacks
                                         for c in workers)
                    - base_fallbacks,
                ))
            finally:
                for client in clients:
                    client.close()
                cluster.close()
    return results


# -- E14: async front end ----------------------------------------------------------


@dataclass(frozen=True)
class ConnectionScalingResult:
    """Server-side thread cost of holding open client connections.

    ``thread_delta`` is how many threads the server process grew by
    while *connections* keep-alive clients each completed one check and
    then stayed connected.  The threaded front end dedicates a handler
    thread per connection; the async front end serves every connection
    from one event loop plus its fixed executor pool, so its delta is
    bounded by configuration, not by load.  ``est_stack_bytes`` prices
    that delta at the platform's default thread stack size — the memory
    the connection army reserves before serving a single byte.
    """

    frontend: str       # "threaded" or "async"
    connections: int
    thread_delta: int
    est_stack_bytes: int

    @property
    def threads_per_connection(self) -> float:
        if self.connections <= 0:
            return 0.0
        return self.thread_delta / self.connections


#: Stack reservation used to price a handler thread when the platform
#: reports no explicit ``threading.stack_size()`` (0 means "default",
#: which is 8 MiB on mainstream Linux/glibc).
_DEFAULT_THREAD_STACK = 8 * 1024 * 1024


def _open_checking_connection(host: str, port: int,
                              payload: bytes) -> "socket.socket":
    """One keep-alive connection that has completed one check.

    Sends a single ``POST /v1/check`` and reads the full response, so
    by the time this returns the server has committed whatever
    per-connection resources it keeps for the socket's lifetime — then
    leaves the connection open for the caller to hold.
    """
    from repro.net import framing

    connection = framing.SocketConnection(
        socket.create_connection((host, port), timeout=10.0))
    connection.send(framing.render_request("POST", "/v1/check", {
        "Host": f"{host}:{port}",
        "Content-Type": "application/json",
        "Content-Length": str(len(payload)),
    }, payload))
    raw = connection.read_head()
    head = raw and framing.parse_response_head(raw)
    if not head or head.status != 200:
        raise RuntimeError(f"check failed: {raw!r}")
    connection.read_body(head.content_length)
    return connection.sock


def connection_scaling_experiment(
        directory: str | None = None,
        connections: int = 16,
        multiplier: int = 10) -> list[ConnectionScalingResult]:
    """E14a: what does a held-open connection cost each front end?

    The threaded server is measured at *connections* concurrent
    keep-alive clients; the async server at ``multiplier`` times as
    many.  Each client completes one real check (so handler state is
    fully materialized) and then stays connected while the server
    process's ``threading.active_count()`` is read.  Both servers run
    in this process, so the deltas are directly comparable.
    """
    from repro.corpus.volga import jane_preference
    from repro.net import protocol
    from repro.net.aio import AsyncP3PServer
    from repro.net.client import HttpClientAgent
    from repro.net.httpd import P3PHttpServer

    jane = jane_preference()
    results: list[ConnectionScalingResult] = []
    stack = threading.stack_size() or _DEFAULT_THREAD_STACK

    plans = [
        ("threaded", connections,
         lambda backend, count: P3PHttpServer(
             backend, ("127.0.0.1", 0), max_inflight=count * 2)),
        ("async", connections * multiplier,
         lambda backend, count: AsyncP3PServer(
             backend, ("127.0.0.1", 0), max_inflight=count * 2)),
    ]
    with tempfile.TemporaryDirectory(dir=directory) as workdir:
        for frontend, count, build in plans:
            backend = _concurrency_server(
                os.path.join(workdir, f"{frontend}.db"),
                log_batch_size=256, log_flush_interval=0.05)
            httpd = build(backend, count)
            thread = httpd.run_in_thread()
            held: list = []
            try:
                bootstrap = HttpClientAgent(httpd.base_url, jane)
                digest = bootstrap.register_preference()
                bootstrap.check("volga.example.com", "/catalog/item-0")
                bootstrap.close()
                payload = json.dumps(protocol.CheckRequest(
                    site="volga.example.com", uri="/catalog/item-0",
                    preference_hash=digest,
                ).to_wire()).encode("utf-8")

                before = threading.active_count()
                with ThreadPoolExecutor(max_workers=32) as opener:
                    held.extend(opener.map(
                        lambda _: _open_checking_connection(
                            httpd.host, httpd.port, payload),
                        range(count)))
                delta = max(0, threading.active_count() - before)
                results.append(ConnectionScalingResult(
                    frontend=frontend, connections=count,
                    thread_delta=delta,
                    est_stack_bytes=delta * stack,
                ))
            finally:
                for conn in held:
                    try:
                        conn.close()
                    except OSError:
                        pass
                httpd.close()
                backend.close()
                thread.join(timeout=10)
    return results


@dataclass(frozen=True)
class BatchingLoadResult:
    """E9's skewed workload against the async server, one batching mode."""

    mode: str       # "batched" (batch_max > 1) or "unbatched" (batch_max=1)
    threads: int
    checks: int
    seconds: float
    batches: int        # micro-batches flushed by the executor
    coalesced: int      # requests that shared a batch with another

    @property
    def checks_per_second(self) -> float:
        return self.checks / self.seconds if self.seconds > 0 else 0.0


def batching_speedup(rows: list[BatchingLoadResult]) -> float | None:
    """Batched throughput as a multiple of the unbatched async run."""
    by_mode = {row.mode: row for row in rows}
    batched = by_mode.get("batched")
    unbatched = by_mode.get("unbatched")
    if batched is None or unbatched is None or batched.seconds <= 0:
        return None
    return unbatched.seconds / batched.seconds


def batching_load_experiment(directory: str | None = None,
                             threads: int = 16,
                             checks: int = 400,
                             warmup: int = 32,
                             max_batch: int = 32
                             ) -> list[BatchingLoadResult]:
    """E14b: does cross-connection micro-batching pay under skew?

    The E9 request stream is maximally favourable to batching — every
    client shares one preference and eight URIs — so concurrent checks
    pile onto the same ``(preference, cookie)`` batch key.  Both runs
    use the async front end over identical databases with the decision
    cache off (every check must reach plan execution, the cost batching
    amortizes); only the batch cap differs: *max_batch* checks for the
    batched run, one (every check its own batch) for the baseline.
    Timed regions end with a log flush, as in E8/E9.
    """
    from repro.corpus.volga import jane_preference
    from repro.net.aio import AsyncP3PServer
    from repro.net.client import HttpClientAgent

    requests = _concurrency_requests(checks)
    jane = jane_preference()
    results: list[BatchingLoadResult] = []

    with tempfile.TemporaryDirectory(dir=directory) as workdir:
        for mode, batch_max in (("unbatched", 1),
                                ("batched", max_batch)):
            backend = _concurrency_server(
                os.path.join(workdir, f"{mode}.db"),
                cache_decisions=False,
                log_batch_size=256, log_flush_interval=0.05)
            httpd = AsyncP3PServer(backend, ("127.0.0.1", 0),
                                   max_inflight=threads * 4,
                                   batch_max=batch_max)
            thread = httpd.run_in_thread()
            try:
                bootstrap = HttpClientAgent(httpd.base_url, jane)
                digest = bootstrap.register_preference()
                bootstrap.check_batch(
                    [(site, uri) for site, uri, _ in requests[:warmup]])
                bootstrap.close()
                base = httpd.batching_snapshot()
                start = time.perf_counter()
                _drive_http(httpd.base_url, jane, digest,
                            requests, threads)
                backend.flush_log()
                seconds = time.perf_counter() - start
                after = httpd.batching_snapshot()
                results.append(BatchingLoadResult(
                    mode=mode, threads=threads, checks=checks,
                    seconds=seconds,
                    batches=after["batches"] - base["batches"],
                    coalesced=after["coalesced"] - base["coalesced"],
                ))
            finally:
                httpd.close()
                backend.close()
                thread.join(timeout=10)
    return results


# -- E15: structural XQuery compilation --------------------------------------------


def structural_xquery_experiment(policies: list[Policy] | None = None,
                                 suite: dict[str, Ruleset] | None = None,
                                 repeat: int = 3) -> list[LevelSummary]:
    """E15: the structural-join compiler vs the Figure 21 XQuery path.

    Same grid protocol as E4/E5 (median of *repeat* per cell,
    interleaved passes), three engines: direct SQL on the optimized
    schema (the Figure 21 reference), naive XTABLE emulation (per-rule
    nested EXISTS, complexity-guarded — blank Medium cell), and the
    structural engine.  The structural engine runs with its plan cache
    on: the whole point of bringing the XQuery path into the plan
    architecture is that a preference compiles once and every
    subsequent check is a single bound statement, while XTABLE
    re-derives its SQL per match exactly as Section 6.1 describes
    ("the XQuery numbers include both the time for converting APPEL
    into XQuery, and the time taken by XTABLE to convert XQuery into
    SQL").
    """
    engines: list[MatchEngine] = [
        SqlMatchEngine(),
        XTableMatchEngine(),
        XQueryStructuralMatchEngine(cache_translations=True),
    ]
    samples = run_matching_grid(policies, suite, engines=engines,
                                repeat=repeat)
    return figure21(samples)


def _level_cells(rows: list[LevelSummary]
                 ) -> dict[tuple[str, str], LevelSummary]:
    return {(row.level, row.engine): row for row in rows}


def structural_speedups(rows: list[LevelSummary]) -> dict[str, float]:
    """Per level: naive-XTABLE avg total / structural avg total.

    Only levels where *both* engines produced samples appear — the
    Medium level has no XTABLE number to compare against (that gap is
    the point of the experiment, reported separately as the filled
    cell)."""
    cells = _level_cells(rows)
    speedups: dict[str, float] = {}
    for level in dict.fromkeys(row.level for row in rows):
        xtable = cells.get((level, "xquery"))
        structural = cells.get((level, "xquery-structural"))
        if (xtable is None or structural is None
                or xtable.unavailable or structural.unavailable
                or structural.total.average == 0):
            continue
        speedups[level] = xtable.total.average / structural.total.average
    return speedups


def structural_sql_gap(rows: list[LevelSummary]) -> dict[str, float]:
    """Per level: structural avg total / direct-SQL avg total.

    The paper's Section 6.3.2 gap ("XQuery -> 2-3x slower than SQL")
    recomputed for the structural path; a ratio near or below 1 means
    the XQuery pipeline stopped paying a translation penalty."""
    cells = _level_cells(rows)
    gap: dict[str, float] = {}
    for level in dict.fromkeys(row.level for row in rows):
        sql = cells.get((level, "sql"))
        structural = cells.get((level, "xquery-structural"))
        if (sql is None or structural is None
                or sql.unavailable or structural.unavailable
                or sql.total.average == 0):
            continue
        gap[level] = structural.total.average / sql.total.average
    return gap
