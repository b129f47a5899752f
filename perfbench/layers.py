"""Layer instrumentation: which public calls are timed, the counters read
from the program's own objects, and the per-layer metrics built from
both.

Each span name starts with its layer (``net``, ``cluster``, ``appel``,
``server``, ``log``, ``refstore``, ``decision_cache``, ``translate``,
``pool``, ``p3p``, ``shredder``); ``op`` spans are the load generator's
own operations.  A metric is reported only where its layer did work in
the traced window: absent, never zero, where the layer was bypassed.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter, defaultdict

from perfbench.tracer import Span, Target, Tracer


def _keyword(name: str):
    """Read keyword-only argument *name*."""
    return lambda args, kwargs: kwargs.get(name)


def _batch_request(args, kwargs):
    """A micro-batch of one belongs to its request; larger ones to none."""
    items = args[1].items
    return items[0][2] if len(items) == 1 else None


def _is_hit(args, kwargs, result):
    return 0 if result is None else 1


TARGETS = [
    Target("repro.net.client:HttpClientAgent.call", "net.client.call",
           request=_keyword("retry_key")),
    Target("repro.net.protocol:encode", "net.protocol.encode"),
    Target("repro.net.protocol:decode", "net.protocol.decode"),
    Target("repro.net.aio:BatchingExecutor.check", "net.aio.check",
           request=_keyword("check_key"), kind="async"),
    Target("repro.net.aio:BatchingExecutor._execute", "net.aio.batch",
           request=_batch_request,
           count=lambda args, kwargs, result: len(args[1].items)),
    Target("repro.cluster.router:ClusterRouter.forward_read",
           "cluster.forward", request=_keyword("retry_key")),
    Target("repro.cluster.router:ClusterRouter.broadcast_preference",
           "cluster.broadcast"),
    # parse_ruleset is looked up by name in each module that calls it.
    Target("repro.net.httpd:parse_ruleset", "appel.parse"),
    Target("repro.net.aio:parse_ruleset", "appel.parse"),
    Target("repro.server.policy_server:parse_ruleset", "appel.parse"),
    Target("repro.net.httpd:validate_ruleset", "appel.validate"),
    Target("repro.server.policy_server:PolicyServer.check", "server.check",
           request=_keyword("check_key")),
    Target("repro.server.policy_server:PolicyServer.register_preference",
           "server.register"),
    Target("repro.server.policy_server:PolicyServer.install_policy",
           "server.install"),
    Target("repro.server.policy_server:PolicyServer.match_all",
           "server.match"),
    Target("repro.server.policy_server:CheckLogWriter.append", "log.append"),
    Target("repro.server.policy_server:CheckLogWriter.flush", "log.flush",
           count=lambda args, kwargs, result: result),
    Target("repro.storage.refstore:ReferenceStore.applicable_policy_id",
           "refstore.resolve"),
    Target("repro.storage.refstore:ReferenceStore.install_reference_file",
           "refstore.install"),
    Target("repro.storage.decision_cache:DecisionCache.lookup",
           "decision_cache.lookup", count=_is_hit),
    Target("repro.storage.decision_cache:DecisionCache.store_rows",
           "decision_cache.store",
           count=lambda args, kwargs, result: len(args[2])),
    Target("repro.storage.decision_cache:DecisionCache.invalidate_inactive",
           "decision_cache.invalidate",
           count=lambda args, kwargs, result: result),
    Target("repro.storage.decision_cache:DecisionCache.match_rows",
           "decision_cache.match_rows"),
    Target("repro.translate.appel_to_sql:OptimizedSqlTranslator."
           "compile_ruleset", "translate.compile"),
    Target("repro.translate.appel_to_sql:OptimizedSqlTranslator."
           "compile_bulk", "translate.compile_bulk"),
    Target("repro.translate.plan:CompiledPlan.execute", "translate.execute"),
    Target("repro.translate.plan:BulkPlan.execute", "translate.bulk_execute"),
    Target("repro.translate.plan:TranslationCache.get",
           "translate.plan_cache", count=_is_hit),
    Target("repro.storage.pool:ConnectionPool.write", "pool.write",
           kind="write"),
    Target("repro.p3p.parser:parse_policy", "p3p.parse"),
    Target("repro.net.httpd:parse_policy", "p3p.parse"),
    Target("repro.net.aio:parse_policy", "p3p.parse"),
    Target("repro.storage.versioning:VersionedPolicyStore.install",
           "shredder.install"),
]


def new_tracer() -> Tracer:
    return Tracer(TARGETS)


# -- counters read from the program's objects ------------------------------


def read_counters(surface, missing: set[str]) -> Counter:
    """Cumulative counters summed over the surface's servers; a counter
    whose attribute is gone is named in *missing* and left out."""
    counters: Counter = Counter()

    def read(name: str, getter) -> None:
        try:
            counters[name] += getter()
        except (AttributeError, KeyError):
            missing.add(name)

    for server in surface.policy_servers():
        for key in ("hits", "misses", "invalidated", "populated"):
            read(f"decision_cache.{key}",
                 lambda: server.decisions.snapshot()[key])
        read("plan_cache.hits", lambda: server._translation_cache.hits)
        read("plan_cache.misses", lambda: server._translation_cache.misses)
        read("db.statements", lambda: server.pool.stats().statements)
        read("db.seconds", lambda: server.pool.stats().seconds)
        read("db.stmt_cache_hits", lambda: server.pool.stats().cache_hits)
        read("db.stmt_cache_misses",
             lambda: server.pool.stats().cache_misses)
    for front_end in surface.front_ends():
        read("admission.rejected", lambda: front_end.admission.rejected)
        batching = getattr(front_end, "batching", None)
        if batching is not None:
            read("aio.requests", lambda: batching.requests_total)
            read("aio.batches", lambda: batching.batches)
    return counters


# -- statistics ------------------------------------------------------------


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (*share* in 0..1)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def _union(intervals: list[tuple[float, float]], low: float,
           high: float) -> float:
    """Length of the union of *intervals* clipped to [low, high]."""
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


class SpanTree:
    """Spans linked to their parents: on the same thread through the
    tracer's stack; across threads (a server span caused by a client
    call) through the request key — a root span's parent is the shortest
    span of the same request on another thread that encloses it."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int, list[Span]] = defaultdict(list)
        by_request: dict[str, list[Span]] = defaultdict(list)
        for span in spans:
            if span.request is not None:
                by_request[span.request].append(span)
        for span in spans:
            parent = span.parent
            if parent is None and span.request is not None \
                    and not span.name.startswith("op."):
                enclosing = [other for other in by_request[span.request]
                             if other.thread != span.thread
                             and other.start <= span.start
                             and other.end >= span.end]
                if enclosing:
                    parent = min(enclosing,
                                 key=lambda other: other.seconds).span_id
            if parent is not None:
                self.children[parent].append(span)

    def self_seconds(self, span: Span) -> float:
        covered = _union([(child.start, child.end)
                          for child in self.children[span.span_id]],
                         span.start, span.end)
        return span.seconds - covered

    def descendants(self, span: Span):
        stack = list(self.children[span.span_id])
        while stack:
            child = stack.pop()
            yield child
            stack.extend(self.children[child.span_id])

    def has_ancestor(self, span: Span, names: set[str],
                     by_id: dict[int, Span]) -> bool:
        parent = span.parent
        while parent is not None:
            ancestor = by_id.get(parent)
            if ancestor is None:
                return False
            if ancestor.name in names:
                return True
            parent = ancestor.parent
        return False


def layer_of(name: str) -> str:
    return "loadgen" if name.startswith("op.") else name.split(".")[0]


def stage_profile(tree: SpanTree, ops: int) -> list[dict]:
    """Self time per layer per traced operation, largest first."""
    totals: Counter = Counter()
    for span in tree.spans:
        totals[layer_of(span.name)] += tree.self_seconds(span)
    grand = sum(totals.values()) or 1.0
    return [{"layer": layer, "self_ms_per_op": seconds * 1000 / max(ops, 1),
             "share": seconds / grand}
            for layer, seconds in totals.most_common()]


def layer_metrics(tracer: Tracer, stats, before: Counter, after: Counter,
                  client, http: bool) -> tuple[dict, list]:
    """Per-layer metrics from the traced window (name -> (value, unit))
    and the stage profile."""
    spans = tracer.spans
    tree = SpanTree(spans)
    by_id = {span.span_id: span for span in spans}
    named: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        named[span.name].append(span)
    delta = after - before
    metrics: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        metrics[name] = (float(value), unit)

    def p50_of(span_name, metric, scale=1000.0, unit="ms", where=None):
        values = [span.seconds * scale for span in named.get(span_name, [])
                  if where is None or where(span)]
        if values:
            put(metric, statistics.median(values), unit)

    ops = [span for span in spans if span.name == "op.check"]
    server_check = {span.request: span for span in
                    named.get("server.check", []) + named.get(
                        "net.aio.check", [])
                    if span.request is not None}

    # net
    if http:
        wire = []
        for op in ops:
            server = server_check.get(op.request)
            if server is not None:
                calls = [child for child in tree.children[op.span_id]
                         if child.name == "net.client.call"]
                outer = calls[0] if calls else op
                wire.append((outer.seconds - server.seconds) * 1000)
        if wire:
            put("net.wire_ms.p50", statistics.median(wire), "ms")
        p50_of("net.protocol.encode", "net.protocol.encode_us.p50",
               1e6, "us")
        p50_of("net.protocol.decode", "net.protocol.decode_us.p50",
               1e6, "us")
        put("net.client.retries", getattr(client, "retries", 0), "count")
        put("net.admission.refused", delta["admission.rejected"], "count")
        if delta["aio.batches"]:
            put("net.aio.checks_per_batch",
                delta["aio.requests"] / delta["aio.batches"], "count")

    # cluster
    p50_of("cluster.forward", "cluster.forward_ms.p50")
    p50_of("cluster.broadcast", "cluster.broadcast_ms.p50")

    # appel
    p50_of("appel.parse", "appel.parse_ms.p50")
    p50_of("appel.validate", "appel.validate_ms.p50")

    # server
    p50_of("server.check", "server.check_ms.p50")
    if named.get("server.check"):
        put("server.check_self_ms.p50",
            statistics.median([tree.self_seconds(span) * 1000
                  for span in named["server.check"]]), "ms")
    p50_of("server.register", "server.register_ms.p50")
    p50_of("server.install", "server.install_ms.p50")
    p50_of("server.match", "server.match_ms.p50")

    # check log
    p50_of("log.append", "log.append_us.p50", 1e6, "us")
    flushes = [span for span in named.get("log.flush", [])
               if span.count]
    if flushes:
        put("log.flush_ms.p50",
            statistics.median([span.seconds * 1000 for span in flushes]), "ms")
        put("log.rows_per_flush",
            statistics.fmean(span.count for span in flushes), "count")
        put("log.flushes_in_check", sum(
            tree.has_ancestor(span, {"server.check", "net.aio.batch"},
                              by_id) for span in flushes), "count")

    # reference store
    p50_of("refstore.resolve", "refstore.resolve_ms.p50")
    p50_of("refstore.install", "refstore.install_ms.p50")

    # decision cache
    p50_of("decision_cache.lookup", "decision_cache.lookup_us.p50",
           1e6, "us")
    lookups = delta["decision_cache.hits"] + delta["decision_cache.misses"]
    if lookups:
        put("decision_cache.hit_ratio",
            delta["decision_cache.hits"] / lookups, "ratio")
        put("decision_cache.invalidated_rows",
            delta["decision_cache.invalidated"], "count")
    p50_of("decision_cache.store", "decision_cache.store_ms.p50")
    stores = named.get("decision_cache.store", [])
    if stores:
        put("decision_cache.rows_per_store",
            statistics.fmean(span.count or 0 for span in stores), "count")
    p50_of("decision_cache.match_rows", "decision_cache.match_rows_ms.p50")

    # translate
    p50_of("translate.compile", "translate.compile_ms.p50")
    gets = named.get("translate.plan_cache", [])
    if gets:
        put("translate.plan_cache.hit_ratio",
            sum(span.count or 0 for span in gets) / len(gets), "ratio")
    p50_of("translate.execute", "translate.execute_ms.p50")
    p50_of("translate.compile_bulk", "translate.compile_bulk_ms.p50")
    p50_of("translate.bulk_execute", "translate.bulk_execute_ms.p50")

    # pool / database
    waits = [span.seconds * 1000 for span in named.get("pool.write_wait", [])]
    if waits:
        put("pool.write_wait_ms.p99", percentile(waits, 0.99), "ms")
    p50_of("pool.write_hold", "pool.write_hold_ms.p50")
    completed = len(stats.samples)
    if completed and delta["db.statements"]:
        put("db.statements_per_op", delta["db.statements"] / completed,
            "count")
        put("db.sql_ms_per_op", delta["db.seconds"] * 1000 / completed,
            "ms")
        prepared = delta["db.stmt_cache_hits"] + \
            delta["db.stmt_cache_misses"]
        if prepared:
            put("db.stmt_cache.hit_ratio",
                delta["db.stmt_cache_hits"] / prepared, "ratio")

    # policy parsing and shredding
    p50_of("p3p.parse", "p3p.parse_ms.p50")
    p50_of("shredder.install", "shredder.install_ms.p50")

    # load generator and the trace itself
    traced = stats.latencies("check", traced=True)
    untraced = stats.latencies("check", traced=False)
    if traced and untraced:
        put("trace.overhead_ratio", statistics.median(traced) / statistics.median(untraced), "ratio")
    if ops:
        covered = 0.0
        for op in ops:
            below = [(span.start, span.end)
                     for span in tree.descendants(op)
                     if span.thread != op.thread
                     or not span.name.startswith("net.")]
            covered += _union(below, op.start, op.end)
        put("trace.attributed_share",
            covered / sum(op.seconds for op in ops), "ratio")
    if stats.registrations:
        put("workload.first_registration_share",
            stats.first_time / stats.registrations, "ratio")
    if stats.checks:
        put("workload.uncovered_share", stats.uncovered / stats.checks,
            "ratio")
    return metrics, stage_profile(tree, len(ops))
