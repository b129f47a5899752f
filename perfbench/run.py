"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload warm_browse --seed 1 \
        --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``, with the
end-to-end metrics when ``--trace 0`` and the per-layer metrics of the
traced run when ``--trace 1``.  The line before it is a detail report:
host, seed, corpus sizes, input bytes, workload properties, every metric
measured (per-layer ones only where their layer ran), names the tracer
could not find, the stage profile and any output mismatches.

Times are medians (and a p99) over the whole window or probe phase,
each operation's time scaled to a reference host by the calibration
samples taken around it (see ``perfbench/calibration.py``); the detail
report also has them raw.

Exits with status 2, printing no result, when the program's sources are
not next to the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import sqlite3
import statistics
import sys
import tempfile
from collections import Counter, defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Per-layer metrics every workload's traced run yields; the rest of
#: the per-layer metrics belong to layers some workload bypasses and
#: appear in the detail report only.
COMMON_LAYER_METRICS = (
    "refstore.resolve_ms.p50",
    "decision_cache.lookup_us.p50",
    "log.append_us.p50",
    "log.flush_ms.p50",
    "log.flushes_in_check",
    "pool.write_wait_ms.p99",
    "pool.write_hold_ms.p50",
    "db.statements_per_op",
    "db.stmt_cache.hit_ratio",
    "db.sql_ms_per_op",
    "trace.overhead_ratio",
    "trace.attributed_share",
)



def _arguments(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("warm_browse", "new_users", "policy_churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _arguments(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]

    from perfbench import layers
    from perfbench.calibration import AROUND_SETUP, Calibrator
    from perfbench.checks import verify
    from perfbench.layers import percentile
    from perfbench.tracer import clock
    from perfbench.workloads import (
        WORKLOADS, LoadGen, build_inputs, run_probes, set_up,
    )

    workload = WORKLOADS[args.workload]
    inputs = build_inputs(workload, args.seed)
    work_root = os.path.join(ROOT, "perfbench", ".work")
    os.makedirs(work_root, exist_ok=True)
    work_dirs: list[str] = []
    surface = None
    closed = False
    calibrator = None
    phases: dict[str, tuple[float, float]] = {}
    try:
        work_dirs.append(tempfile.mkdtemp(prefix="calibration-",
                                          dir=work_root))
        calibrator = Calibrator(work_dirs[0])
        # (start, seconds, process CPU seconds) per step, per set-up
        setups: list[list[tuple[float, float, float]]] = []
        setup_start = clock()
        calibrator.sample(AROUND_SETUP)
        for _ in range(workload.setups):
            if surface is not None:
                surface.close()
                shutil.rmtree(work_dirs.pop(), ignore_errors=True)
            work_dirs.append(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                              dir=work_root))
            surface, steps, setup_bytes = set_up(workload, inputs,
                                                 work_dirs[-1], calibrator)
            calibrator.sample(AROUND_SETUP)
            setups.append(steps)
        phases["setup"] = (setup_start, clock())

        # The inputs and the store built so far live for the whole run;
        # freezing them keeps the collector's full passes, which would
        # otherwise rescan them, out of the measured window.
        gc.collect()
        gc.freeze()
        tracer = layers.new_tracer() if args.trace else None
        missing_counters: set[str] = set()
        before = layers.read_counters(surface, missing_counters)
        window_start = clock()
        stats, elapsed, client = workload.window(
            LoadGen(surface, tracer, calibrator), inputs, args.seconds,
            args.seed)
        phases["window"] = (window_start, clock())
        after = layers.read_counters(surface, missing_counters)
        surface.close_client(client)
        probe_start = clock()
        probes = run_probes(workload, surface, inputs, args.seed,
                            calibrator)
        phases["probes"] = (probe_start, clock())
        surface.close()
        closed = True
        store_bytes = sum(os.path.getsize(path)
                          for path in surface.db_files())
        verdict = verify(surface.ledger, inputs["sites"], surface.log_dbs(),
                         surface.db_for_host,
                         random.Random(f"verify-{args.seed}"))
    finally:
        if calibrator is not None:
            calibrator.close()
        if surface is not None and not closed:
            try:
                surface.close()
            except Exception:        # noqa: BLE001 — already failing
                pass
        for path in work_dirs:
            shutil.rmtree(path, ignore_errors=True)

    accepted_bytes = setup_bytes + stats.accepted_bytes + \
        probes.accepted_bytes
    attempted = stats.attempted + probes.attempted
    errors = stats.errors + probes.errors
    failed = sum(errors.values()) + verdict.mismatches

    def by_kind(samples: list, scaled: bool) -> dict[str, list[float]]:
        """Seconds per operation kind, scaled where each started."""
        seconds: dict[str, list[float]] = defaultdict(list)
        for kind, latency, _, start, cpu in samples:
            seconds[kind].append(calibrator.scaled(start, latency, cpu)
                                 if scaled else latency)
        return seconds

    def figures(scaled: bool) -> dict[str, tuple[float | None, str]]:
        window = by_kind(stats.samples, scaled)
        probed = by_kind(probes.samples, scaled)

        def p50_ms(kind: str) -> float | None:
            """From the window when its mix has *kind*, else from the
            probes."""
            values = window.get(kind) or probed.get(kind)
            return statistics.median(values) * 1000 if values else None

        ops_per_s = len(stats.samples) / sum(
            sum(values) for values in window.values())
        return {
            "setup_s": (statistics.median(
                sum(calibrator.scaled(*step) if scaled else step[1]
                    for step in steps) for steps in setups), "s"),
            "check_p50_ms": (statistics.median(window["check"]) * 1000,
                             "ms"),
            "check_p99_ms": (percentile(window["check"], 0.99) * 1000,
                             "ms"),
            "ops_per_s": (ops_per_s, "1/s"),
            "register_p50_ms": (p50_ms("register"), "ms"),
            "install_p50_ms": (p50_ms("install"), "ms"),
            "match_p50_ms": (p50_ms("match"), "ms"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "store_bytes_per_input_byte": (store_bytes / accepted_bytes,
                                           "ratio"),
        }

    end_to_end = figures(scaled=True)
    delta = after - before
    lookups = delta["decision_cache.hits"] + delta["decision_cache.misses"]
    plans = delta["plan_cache.hits"] + delta["plan_cache.misses"]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {"cpu_count": os.cpu_count(),
                 "python": platform.python_version(),
                 "sqlite": sqlite3.sqlite_version,
                 "scale": {phase: calibrator.scale(*span)
                           for phase, span in phases.items()},
                 "phase_seconds": {phase: end - start for phase, (start, end)
                                   in phases.items()},
                 "calibration_samples": len(calibrator.samples),
                 "commit_ms": {phase: calibrator.commit_ms(*span)
                               for phase, span in phases.items()}},
        "corpus": {"sites": len(inputs["sites"]),
                   "edited_versions_per_site":
                       len(inputs["sites"][0].edits),
                   "preference_population": len(inputs["population"]),
                   "setup_preferences": len(inputs["setup_preferences"])},
        "input_bytes": {"setup": setup_bytes,
                        "window": stats.accepted_bytes,
                        "probes": probes.accepted_bytes},
        "store_bytes": store_bytes,
        "operations": {
            "window": dict(Counter(sample[0] for sample in stats.samples)),
            "probes": dict(Counter(sample[0] for sample in probes.samples)),
            "window_seconds": elapsed,
            "window_calibrating_seconds": stats.calibrating},
        "properties": {
            "decision_cache_hit_share":
                delta["decision_cache.hits"] / lookups if lookups else None,
            "plan_cache_hit_share":
                delta["plan_cache.hits"] / plans if plans else None,
            "first_registration_share":
                stats.first_time / stats.registrations
                if stats.registrations else None,
            "uncovered_share":
                stats.uncovered / stats.checks if stats.checks else None,
            "distinct_sites": len(stats.sites),
            "distinct_uris": len(stats.uris),
            "distinct_preferences": len(stats.preferences),
        },
        "failed_ratio": failed / attempted,
        "errors": dict(errors),
        "mismatches": verdict.examples,
        "missing_counters": sorted(missing_counters),
    }
    if args.trace:
        layer, profile = layers.layer_metrics(
            tracer, stats, before, after, client,
            http=args.workload != "policy_churn")
        details["per_layer"] = {name: value for name, (value, _)
                                in sorted(layer.items())}
        details["stage_profile"] = profile
        details["missing_names"] = tracer.missing
        for name in tracer.missing:
            print(f"perfbench: traced name not found: {name}",
                  file=sys.stderr)
        reported = {name: layer[name] for name in COMMON_LAYER_METRICS
                    if name in layer}
    else:
        details["end_to_end"] = {name: value for name, (value, _)
                                 in end_to_end.items()}
        details["end_to_end_raw"] = {name: value for name, (value, _)
                                     in figures(scaled=False).items()}
        reported = end_to_end

    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": verdict.mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()
                    if value is not None},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
