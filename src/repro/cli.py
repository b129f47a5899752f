"""Command-line interface: ``p3pdb`` (or ``python -m repro``).

Subcommands::

    p3pdb validate  POLICY.xml            # validate a P3P policy
    p3pdb notice    POLICY.xml            # plain-language privacy notice
    p3pdb shred     POLICY.xml [-o DB]    # shred into the optimized schema
    p3pdb translate PREF.xml [--dialect]  # show the SQL / XQuery
    p3pdb match     POLICY.xml PREF.xml [--engine]   # one check
    p3pdb match     --all PREF.xml [--corpus-size N] # whole-corpus match
    p3pdb explain   POLICY.xml PREF.xml   # trace why rules fire
    p3pdb corpus    [-o DIR]              # emit the synthetic workload
    p3pdb report    [POLICY.xml ...]      # corpus analytics
    p3pdb bench     [EXPERIMENT ...] [--markdown] [--json FILE]
    p3pdb serve     [--db FILE] [--port N] [--max-inflight N] [--async]
    p3pdb cluster   [--shards N] [--replicas M] [--db-dir DIR] [--port N]
                    [--async]
    p3pdb lint      [PATH ...] [--baseline FILE] [--update-baseline]
    p3pdb audit     [POLICY.xml ...] [-p PREF.xml ...] [--no-literal]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.appel.parser import parse_ruleset
from repro.errors import ReproError
from repro.p3p.parser import parse_policy
from repro.p3p.serializer import serialize_policy
from repro.p3p.validator import validate_policy


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_preference(path: str):
    """Parse an APPEL preference file, printing lint findings to stderr.

    Vocabulary problems (misspelled terms, unknown behaviors) and
    reachability findings (rules shadowed under first-rule-wins) never
    stop the command — a legal-but-suspect ruleset still deserves
    translation and matching — but the author sees them every time the
    file is loaded.
    """
    from repro.analysis import analyze_ruleset, validate_ruleset

    preference = parse_ruleset(_read(path))
    for problem in validate_ruleset(preference):
        print(f"lint: {path}: {problem}", file=sys.stderr)
    for finding in analyze_ruleset(preference):
        print(f"lint: {path}: {finding}", file=sys.stderr)
    return preference


def _cmd_validate(args: argparse.Namespace) -> int:
    policy = parse_policy(_read(args.policy))
    problems = validate_policy(policy)
    for problem in problems:
        print(problem)
    errors = sum(1 for p in problems if p.severity == "error")
    print(f"{len(problems)} problem(s), {errors} error(s)")
    return 1 if errors else 0


def _cmd_shred(args: argparse.Namespace) -> int:
    from repro.storage.database import Database
    from repro.storage.shredder import PolicyStore

    policy = parse_policy(_read(args.policy))
    store = PolicyStore(Database(args.output))
    report = store.install_policy(policy)
    print(f"policy_id={report.policy_id} statements={report.statements} "
          f"data_items={report.data_items} categories={report.categories} "
          f"seconds={report.seconds:.4f}")
    if args.output == ":memory:":
        print("(in-memory database discarded; pass -o FILE to keep it)")
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    preference = _load_preference(args.preference)
    if args.dialect == "xquery":
        from repro.translate.appel_to_xquery import XQueryTranslator

        if args.show_sql:
            from repro.errors import TranslationTooComplexError
            from repro.translate.plan import APPLICABLE_POLICY_PARAM
            from repro.xquery.parser import parse_query
            from repro.xquery.structural import StructuralCompiler
            from repro.xquery.to_sql import XTableCompiler

        for index, rule in enumerate(
                XQueryTranslator().translate_ruleset(preference).rules):
            print(f"-- rule {index} (behavior: {rule.behavior})")
            print(rule.xquery)
            if args.show_sql:
                query = parse_query(rule.xquery)
                try:
                    xtable_sql = XTableCompiler().compile_query(
                        query, APPLICABLE_POLICY_PARAM)
                    print("-- XTABLE SQL:")
                    print(xtable_sql + ";")
                except TranslationTooComplexError as exc:
                    print(f"-- XTABLE SQL: unavailable ({exc})")
                structural = StructuralCompiler().compile_rule(query, index)
                print(f"-- structural SQL ({len(structural.binds)} bind(s)):")
                print(structural.sql + ";")
            print()
        return 0

    from repro.translate.appel_to_sql import (
        GenericSqlTranslator,
        OptimizedSqlTranslator,
    )

    translator = (GenericSqlTranslator() if args.dialect == "sql-generic"
                  else OptimizedSqlTranslator())
    applicable = args.applicable_policy_sql or "SELECT 1 AS policy_id"
    for index, rule in enumerate(
            translator.translate_ruleset(preference, applicable).rules):
        print(f"-- rule {index} (behavior: {rule.behavior})")
        print(rule.sql + ";")
        print()
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    if args.all:
        return _match_all(args)
    if args.preference is None:
        print("match: a PREFERENCE file is required unless --all "
              "matches against the synthetic corpus", file=sys.stderr)
        return 2
    from repro.engines import (
        GenericSqlMatchEngine,
        NativeAppelMatchEngine,
        SqlMatchEngine,
        XQueryNativeMatchEngine,
        XQueryStructuralMatchEngine,
        XTableMatchEngine,
    )

    factories = {
        "appel": NativeAppelMatchEngine,
        "sql": SqlMatchEngine,
        "sql-generic": GenericSqlMatchEngine,
        "xquery": XTableMatchEngine,
        "xquery-native": XQueryNativeMatchEngine,
        "xquery-structural": XQueryStructuralMatchEngine,
    }
    policy = parse_policy(_read(args.policy))
    preference = _load_preference(args.preference)
    engine = factories[args.engine]()
    handle = engine.install(policy)
    outcome = engine.match(handle, preference)
    if outcome.failed:
        print(f"engine={engine.name} FAILED: {outcome.error}")
        return 2
    print(f"engine={engine.name} behavior={outcome.behavior} "
          f"rule={outcome.rule_index} "
          f"convert={outcome.convert_seconds * 1000:.3f}ms "
          f"query={outcome.query_seconds * 1000:.3f}ms")
    return 0 if outcome.behavior != "block" else 3


def _match_all(args: argparse.Namespace) -> int:
    """``p3pdb match --all PREF.xml``: one preference, whole corpus.

    Installs the synthetic corpus into an in-memory server, registers
    the preference (materializing its decisions), and runs the
    set-at-a-time match — the second match in the output demonstrates
    the fully-cached path.
    """
    from repro.corpus.policies import fortune_corpus
    from repro.server.policy_server import PolicyServer

    # With --all the single positional is the preference file.
    path = args.preference or args.policy
    preference = _load_preference(path)
    server = PolicyServer()
    try:
        for policy in fortune_corpus(seed=args.seed,
                                     count=args.corpus_size):
            server.install_policy(policy)
        cached = server.register_preference(preference)
        result = server.match_all(preference)
        print(f"{'policy':24s} {'version':>7s} {'behavior':>8s} "
              f"{'rule':>4s} {'cached':>6s}")
        for decision in result.decisions:
            behavior = decision.behavior or "-"
            rule = "-" if decision.rule_index is None \
                else str(decision.rule_index)
            print(f"{decision.name or '?':24s} {decision.version:7d} "
                  f"{behavior:>8s} {rule:>4s} "
                  f"{'yes' if decision.cached else 'no':>6s}")
        blocked = sum(1 for d in result.decisions
                      if d.behavior == "block")
        print(f"\n{len(result.decisions)} policies, {blocked} blocked; "
              f"{cached} decisions materialized; "
              f"match: {result.cache_hits} hit(s), "
              f"{result.cache_misses} miss(es), "
              f"{result.elapsed_seconds * 1000:.3f}ms")
        return 0
    finally:
        server.close()


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.appel.serializer import serialize_ruleset
    from repro.corpus.policies import corpus_statistics, fortune_corpus
    from repro.corpus.preferences import jrc_suite

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    policies = fortune_corpus(seed=args.seed)
    for policy in policies:
        (out / f"policy-{policy.name}.xml").write_text(
            serialize_policy(policy), encoding="utf-8"
        )
    for level, preference in jrc_suite().items():
        slug = level.lower().replace(" ", "-")
        (out / f"preference-{slug}.xml").write_text(
            serialize_ruleset(preference), encoding="utf-8"
        )
    stats = corpus_statistics(policies)
    print(f"wrote {stats.policy_count} policies and 5 preferences to {out}")
    print(f"sizes: {stats.min_kb:.1f}-{stats.max_kb:.1f} KB, "
          f"avg {stats.avg_kb:.1f} KB, "
          f"{stats.total_statements} statements")
    return 0


def _cmd_notice(args: argparse.Namespace) -> int:
    from repro.p3p.notice import policy_notice

    print(policy_notice(parse_policy(_read(args.policy))), end="")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.appel.explain import ExplainingEngine

    policy = parse_policy(_read(args.policy))
    preference = _load_preference(args.preference)
    explanation = ExplainingEngine().explain(policy, preference)
    print(explanation.render())
    return 0 if explanation.behavior != "block" else 3


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.corpus.analysis import (
        acceptance_matrix,
        consent_profile,
        format_census,
        vocabulary_census,
    )
    from repro.corpus.preferences import jrc_suite

    if args.policies:
        policies = [parse_policy(_read(path)) for path in args.policies]
    else:
        from repro.corpus.policies import fortune_corpus

        policies = fortune_corpus(seed=args.seed)

    print(f"{len(policies)} policies\n")
    print(format_census(vocabulary_census(policies)))
    profile = consent_profile(policies)
    print("\nConsent profile:")
    print(f"  offer opt-in     : {profile.policies_with_opt_in}")
    print(f"  offer opt-out    : {profile.policies_with_opt_out}")
    print(f"  fully mandatory  : {profile.policies_all_mandatory}")
    print("\nPolicies blocked per preference level:")
    for level, blocked in acceptance_matrix(policies, jrc_suite()).items():
        print(f"  {level:10s} blocks {blocked:3d} / {len(policies)}")
    return 0


_BENCH_EXPERIMENTS = ("dataset-stats", "preference-stats", "shredding",
                      "figure20", "figure21", "warm-cold", "ablation",
                      "concurrency", "http-load", "fault-tolerance",
                      "plans", "bulk", "cluster", "async", "structural")


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro import bench

    if args.json:
        results = bench.save_results(args.json)
        print(f"wrote results for {len(results) - 1} experiments "
              f"to {args.json}")
        return 0
    if args.cluster_json:
        results = bench.save_cluster_results(args.cluster_json)
        rows = results["e13_cluster"]["rows"]
        print(f"wrote E13 cluster results ({len(rows)} deployments) "
              f"to {args.cluster_json}")
        return 0
    if args.async_json:
        results = bench.save_async_results(args.async_json)
        rows = results["e14_async"]["batching"]
        print(f"wrote E14 async results ({len(rows)} batching rows) "
              f"to {args.async_json}")
        return 0
    if args.structural_json:
        results = bench.save_structural_results(args.structural_json)
        rows = results["e15_structural"]["rows"]
        print(f"wrote E15 structural XQuery results ({len(rows)} "
              f"level/engine cells) to {args.structural_json}")
        return 0

    wanted = args.experiments or list(_BENCH_EXPERIMENTS)
    samples = None
    for experiment in wanted:
        if experiment == "dataset-stats":
            print(bench.format_dataset_stats(bench.dataset_statistics()))
        elif experiment == "preference-stats":
            print(bench.format_preference_stats(
                bench.preference_statistics()))
        elif experiment == "shredding":
            print(bench.format_shredding(bench.shredding_experiment()))
        elif experiment in ("figure20", "figure21"):
            if samples is None:
                samples = bench.run_matching_grid()
            if experiment == "figure20":
                rows20 = bench.figure20(samples)
                print(bench.markdown_figure20(rows20) if args.markdown
                      else bench.format_figure20(rows20))
            else:
                rows21 = bench.figure21(samples)
                print(bench.markdown_figure21(rows21) if args.markdown
                      else bench.format_figure21(rows21))
        elif experiment == "warm-cold":
            print(bench.format_warm_cold(bench.warm_cold_experiment()))
        elif experiment == "ablation":
            print(bench.format_ablation(bench.ablation_experiment()))
        elif experiment == "concurrency":
            print(bench.format_concurrency(bench.concurrency_experiment()))
        elif experiment == "http-load":
            print(bench.format_http_load(bench.http_load_experiment()))
        elif experiment == "fault-tolerance":
            print(bench.format_fault_tolerance(
                bench.fault_tolerance_experiment()))
        elif experiment == "plans":
            print(bench.format_plan_compilation(
                bench.plan_compilation_experiment()))
        elif experiment == "bulk":
            print(bench.format_bulk_matching(
                bench.bulk_matching_experiment()))
        elif experiment == "cluster":
            print(bench.format_cluster(bench.cluster_experiment()))
        elif experiment == "async":
            print(bench.format_async(
                bench.connection_scaling_experiment(),
                bench.batching_load_experiment()))
        elif experiment == "structural":
            rows15 = bench.structural_xquery_experiment()
            print(bench.format_structural(
                rows15,
                bench.structural_speedups(rows15),
                bench.structural_sql_gap(rows15)))
        else:
            print(f"unknown experiment: {experiment}", file=sys.stderr)
            return 2
        print()
    return 0


#: Test instrumentation: when set, called with the bound P3PHttpServer
#: before serve_forever starts (lets tests capture and stop the server).
_SERVE_STARTED_HOOK = None


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.net.aio import AsyncP3PServer
    from repro.net.httpd import P3PHttpServer
    from repro.server.policy_server import PolicyServer

    policy_server = PolicyServer(args.db)
    server_class = AsyncP3PServer if args.async_frontend else P3PHttpServer
    httpd = server_class(policy_server, (args.host, args.port),
                         max_inflight=args.max_inflight,
                         max_body_bytes=args.max_body_bytes,
                         owns_policy_server=True)
    host, port = httpd.host, httpd.port
    frontend = "async" if args.async_frontend else "threaded"
    print(f"p3pdb: serving on http://{host}:{port} "
          f"(db={args.db or ':memory:'}, frontend={frontend}, "
          f"max-inflight={args.max_inflight}); Ctrl-C to stop")
    if args.ready_file:
        Path(args.ready_file).write_text(f"{host} {port}\n",
                                         encoding="utf-8")

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    # Signal handlers are a main-thread privilege; tests run us on a
    # worker thread and stop the server through the hook instead.
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _terminate)
    if _SERVE_STARTED_HOOK is not None:
        _SERVE_STARTED_HOOK(httpd)
    try:
        httpd.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        httpd.close()      # stops accepting, flushes the check log
        print(f"p3pdb: shut down; {policy_server.log.written} "
              "check-log rows durable")
    return 0


#: Test instrumentation: when set, called with the started P3PCluster
#: before the command blocks (lets tests capture and stop the cluster).
_CLUSTER_STARTED_HOOK = None


def _cmd_cluster(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.cluster import P3PCluster

    cluster = P3PCluster(
        shards=args.shards,
        replicas=args.replicas,
        db_dir=args.db_dir,
        in_process=args.in_process,
        host=args.host,
        router_port=args.port,
        max_inflight=args.max_inflight,
        frontend="async" if args.async_frontend else "threaded",
    )
    cluster.start()
    stop = threading.Event()
    try:
        print(f"p3pdb: cluster router on {cluster.base_url} "
              f"({args.shards} shard(s) x {args.replicas} replica(s), "
              f"db-dir={cluster.db_dir}); Ctrl-C to stop")
        for shard in cluster.topology.shard_ids():
            replicas = ", ".join(cluster.replica_urls(shard)) or "-"
            print(f"  shard {shard}: primary {cluster.primary_url(shard)} "
                  f"replicas [{replicas}]")
        if args.ready_file:
            Path(args.ready_file).write_text(
                f"{cluster.router.host} {cluster.router.port}\n",
                encoding="utf-8")

        def _terminate(signum, frame):
            stop.set()

        if threading.current_thread() is threading.main_thread():
            signal.signal(signal.SIGTERM, _terminate)
        if _CLUSTER_STARTED_HOOK is not None:
            _CLUSTER_STARTED_HOOK(cluster, stop)
        stop.wait()
    except KeyboardInterrupt:
        pass
    finally:
        cluster.close()      # router, then graceful worker drains
        print("p3pdb: cluster shut down")
    return 0


#: Default location of the lint grandfather file, relative to the
#: working directory (the repo root in CI).
LINT_BASELINE = "lint-baseline.json"


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        concurrency_paths,
        count_by_severity,
        explain_rule,
        known_rule_ids,
        lint_paths,
        load_baseline,
        save_baseline,
        sort_findings,
        split_by_baseline,
    )

    if args.explain:
        try:
            print(explain_rule(args.explain))
        except KeyError:
            print(f"error: unknown rule id {args.explain!r}; known ids:",
                  file=sys.stderr)
            for rule_id in known_rule_ids():
                print(f"  {rule_id}", file=sys.stderr)
            return 1
        return 0

    targets = args.paths or ["src"]
    findings = lint_paths(targets)
    if args.concurrency:
        findings = findings + concurrency_paths(targets)
    if args.update_baseline:
        save_baseline(args.baseline, findings)
        print(f"wrote {len(findings)} finding(s) to {args.baseline}")
        return 0

    baseline = load_baseline(args.baseline)
    new, grandfathered = split_by_baseline(findings, baseline)
    for finding in sort_findings(new):
        print(finding)
    if grandfathered:
        print(f"({len(grandfathered)} grandfathered finding(s) "
              f"suppressed by {args.baseline})")
    counts = count_by_severity(new)
    print(f"{len(new)} new finding(s): {counts['error']} error(s), "
          f"{counts['warning']} warning(s)")
    if new:
        print("(p3pdb lint --explain <rule-id> documents any rule)")
    return 1 if new else 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.analysis import audit_corpus, sort_findings

    if args.policies:
        policies = [parse_policy(_read(path)) for path in args.policies]
    else:
        from repro.corpus.policies import fortune_corpus

        policies = fortune_corpus(seed=args.seed)
    if args.preference:
        preferences = {Path(path).stem: parse_ruleset(_read(path))
                       for path in args.preference}
    else:
        from repro.corpus.preferences import jrc_suite

        preferences = jrc_suite()

    report = audit_corpus(policies, preferences,
                          audit_literal=not args.no_literal)
    for finding in sort_findings(report.findings + report.reachability):
        print(finding)
    for pref, policy, rule_index in report.differential_violations:
        print(f"DIFFERENTIAL VIOLATION: {pref}: rule[{rule_index}] was "
              f"flagged unreachable but fired on policy {policy}")
    scans = sum(1 for f in report.findings if f.code == "full-scan")
    taints = sum(1 for f in report.findings if f.code == "tainted-sql")
    unreachable = sum(1 for f in report.reachability
                      if f.code == "unreachable-rule")
    print(f"audited {report.preferences} preference(s) against "
          f"{report.policies} policies: {report.plans_explained} plan(s), "
          f"{report.structural_plans_explained} structural plan(s), "
          f"{report.statements_explained} statement(s) explained")
    print(f"full scans of hot tables: {scans}; tainted SQL: {taints}; "
          f"unreachable rules: {unreachable} "
          f"(differential {'OK' if report.differential_ok else 'FAILED'})")
    ok = report.ok
    if args.sql_contracts:
        from repro.analysis import contract_report

        contracts = contract_report(policies, preferences)
        for finding in sort_findings(contracts.findings):
            print(finding)
        per_source = ", ".join(f"{source}={count}" for source, count
                               in contracts.per_source)
        print(f"sql contracts: {contracts.statements_checked} "
              f"statement(s) validated ({per_source}; "
              f"{contracts.xtable_over_budget} xtable rule(s) over the "
              f"default complexity budget) — "
              f"{'OK' if contracts.ok else 'FAILED'}")
        ok = ok and contracts.ok
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p3pdb",
        description="Server-centric P3P on database technology "
                    "(ICDE 2003 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a P3P policy")
    p_validate.add_argument("policy")
    p_validate.set_defaults(func=_cmd_validate)

    p_shred = sub.add_parser("shred",
                             help="shred a policy into the optimized schema")
    p_shred.add_argument("policy")
    p_shred.add_argument("-o", "--output", default=":memory:",
                         help="SQLite database file (default in-memory)")
    p_shred.set_defaults(func=_cmd_shred)

    p_translate = sub.add_parser("translate",
                                 help="translate an APPEL preference")
    p_translate.add_argument("preference")
    p_translate.add_argument("--dialect", default="sql",
                             choices=("sql", "sql-generic", "xquery"))
    p_translate.add_argument("--applicable-policy-sql", default=None,
                             help="override the ApplicablePolicy subquery")
    p_translate.add_argument("--show-sql", action="store_true",
                             dest="show_sql",
                             help="with --dialect xquery: also print each "
                                  "rule's compiled SQL (naive XTABLE and "
                                  "structural-join forms)")
    p_translate.set_defaults(func=_cmd_translate)

    p_match = sub.add_parser("match",
                             help="match a preference against a policy "
                                  "(or, with --all, the whole corpus)")
    p_match.add_argument("policy",
                         help="policy XML file (with --all: the "
                              "preference file)")
    p_match.add_argument("preference", nargs="?", default=None)
    p_match.add_argument("--engine", default="sql",
                         choices=("appel", "sql", "sql-generic", "xquery",
                                  "xquery-native", "xquery-structural"))
    p_match.add_argument("--all", action="store_true",
                         help="set-at-a-time: match the preference "
                              "against every policy of the synthetic "
                              "corpus through the decision cache")
    p_match.add_argument("--corpus-size", type=int, default=None,
                         dest="corpus_size",
                         help="with --all: corpus size (default: the "
                              "full synthetic corpus)")
    p_match.add_argument("--seed", type=int, default=2003,
                         help="with --all: corpus generator seed")
    p_match.set_defaults(func=_cmd_match)

    p_corpus = sub.add_parser("corpus",
                              help="emit the synthetic benchmark workload")
    p_corpus.add_argument("-o", "--output", default="corpus")
    p_corpus.add_argument("--seed", type=int, default=2003)
    p_corpus.set_defaults(func=_cmd_corpus)

    p_notice = sub.add_parser("notice",
                              help="render the plain-language privacy "
                                   "notice a policy encodes")
    p_notice.add_argument("policy")
    p_notice.set_defaults(func=_cmd_notice)

    p_explain = sub.add_parser("explain",
                               help="trace why a preference fires (or "
                                    "not) against a policy")
    p_explain.add_argument("policy")
    p_explain.add_argument("preference")
    p_explain.set_defaults(func=_cmd_explain)

    p_report = sub.add_parser("report",
                              help="corpus analytics (census, consent, "
                                   "acceptance per level)")
    p_report.add_argument("policies", nargs="*",
                          help="policy XML files (default: the synthetic "
                               "corpus)")
    p_report.add_argument("--seed", type=int, default=2003)
    p_report.set_defaults(func=_cmd_report)

    p_bench = sub.add_parser("bench",
                             help="regenerate the paper's tables")
    p_bench.add_argument("experiments", nargs="*",
                         metavar="EXPERIMENT",
                         help=f"one of: {', '.join(_BENCH_EXPERIMENTS)}")
    p_bench.add_argument("--markdown", action="store_true",
                         help="emit figure20/figure21 as markdown tables")
    p_bench.add_argument("--json", metavar="FILE", default=None,
                         help="run every experiment and write a JSON "
                              "results document")
    p_bench.add_argument("--async-json", metavar="FILE", default=None,
                         dest="async_json",
                         help="run E14 (async front end: connection "
                              "scaling + micro-batching throughput) and "
                              "write BENCH_E14.json-style output")
    p_bench.add_argument("--cluster-json", metavar="FILE", default=None,
                         dest="cluster_json",
                         help="run only E13 (spawns worker processes) "
                              "and write its JSON document, e.g. "
                              "BENCH_E13.json")
    p_bench.add_argument("--structural-json", metavar="FILE", default=None,
                         dest="structural_json",
                         help="run only E15 (structural XQuery vs naive "
                              "XTABLE vs direct SQL) and write its JSON "
                              "document, e.g. BENCH_E15.json")
    p_bench.set_defaults(func=_cmd_bench)

    p_serve = sub.add_parser("serve",
                             help="run the HTTP policy server "
                                  "(POST /v1/check et al.)")
    p_serve.add_argument("--db", default=None,
                         help="SQLite database file (default in-memory; "
                              "a file enables the WAL reader pool)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="address to bind (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="port to bind; 0 picks an ephemeral port "
                              "(default 8080)")
    p_serve.add_argument("--async", action="store_true",
                         dest="async_frontend",
                         help="serve through the asyncio front end with "
                              "cross-connection micro-batching instead "
                              "of the thread-per-connection server")
    p_serve.add_argument("--max-body-bytes", type=int,
                         default=4 * 1024 * 1024, dest="max_body_bytes",
                         help="largest accepted request body; beyond it "
                              "the server answers 413 payload-too-large "
                              "(default 4 MiB)")
    p_serve.add_argument("--max-inflight", type=int, default=64,
                         help="admission-control limit on concurrent "
                              "checks; beyond it the server sheds load "
                              "with 503 (default 64)")
    p_serve.add_argument("--ready-file", default=None,
                         help="write 'HOST PORT' here once bound "
                              "(for scripts wrapping an ephemeral port)")
    p_serve.set_defaults(func=_cmd_serve)

    p_cluster = sub.add_parser("cluster",
                               help="run the sharded, replicated cluster "
                                    "(consistent-hash router + workers)")
    p_cluster.add_argument("--shards", type=int, default=2,
                           help="number of shard primaries (default 2)")
    p_cluster.add_argument("--replicas", type=int, default=0,
                           help="read replicas per shard (default 0)")
    p_cluster.add_argument("--db-dir", default=None, dest="db_dir",
                           help="directory for the per-shard SQLite files "
                                "(default: a temporary directory removed "
                                "on shutdown)")
    p_cluster.add_argument("--host", default="127.0.0.1",
                           help="address to bind (default 127.0.0.1)")
    p_cluster.add_argument("--port", type=int, default=8080,
                           help="router port; 0 picks an ephemeral port "
                                "(default 8080)")
    p_cluster.add_argument("--async", action="store_true",
                           dest="async_frontend",
                           help="front every shard with the asyncio "
                                "server (micro-batched plan execution) "
                                "instead of the threaded one")
    p_cluster.add_argument("--max-inflight", type=int, default=64,
                           help="per-worker admission limit (default 64)")
    p_cluster.add_argument("--in-process", action="store_true",
                           dest="in_process",
                           help="run workers on threads instead of "
                                "processes (debugging)")
    p_cluster.add_argument("--ready-file", default=None,
                           help="write 'HOST PORT' of the router here "
                                "once every worker is up")
    p_cluster.set_defaults(func=_cmd_cluster)

    p_lint = sub.add_parser("lint",
                            help="static lint of the repo's own sources "
                                 "(connection/SQL/cache discipline)")
    p_lint.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories to lint (default: src)")
    p_lint.add_argument("--baseline", default=LINT_BASELINE,
                        help="grandfather file; only findings not in it "
                             f"fail the run (default {LINT_BASELINE})")
    p_lint.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from the current "
                             "findings instead of gating on it")
    p_lint.add_argument("--concurrency", action="store_true",
                        help="also run the concurrency-safety analyzer "
                             "(async blocking calls, lock discipline, "
                             "guarded attributes, spawn safety)")
    p_lint.add_argument("--explain", metavar="RULE-ID", default=None,
                        help="print the catalog entry for one rule id "
                             "(e.g. async-blocking) and exit")
    p_lint.set_defaults(func=_cmd_lint)

    p_audit = sub.add_parser("audit",
                             help="EXPLAIN-audit compiled preference "
                                  "plans + differential rule "
                                  "reachability over a policy corpus")
    p_audit.add_argument("policies", nargs="*", metavar="POLICY",
                         help="policy XML files (default: the synthetic "
                              "29-policy corpus)")
    p_audit.add_argument("-p", "--preference", action="append",
                         metavar="PREF",
                         help="APPEL preference XML (repeatable; default: "
                              "the five JRC levels)")
    p_audit.add_argument("--seed", type=int, default=2003)
    p_audit.add_argument("--no-literal", action="store_true",
                         help="audit only compiled plans, skipping the "
                              "per-policy literal translations (faster)")
    p_audit.add_argument("--sql-contracts", action="store_true",
                         dest="sql_contracts",
                         help="also validate every statement the six "
                              "engines can emit against the schema "
                              "catalog (names, bind arity, write-sets, "
                              "index coverage)")
    p_audit.set_defaults(func=_cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
