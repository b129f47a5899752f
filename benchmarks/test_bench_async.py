"""E14: the async front end — connection scaling and batching wins.

Two claims back the asyncio server:

* **Connection scaling** — the threaded front end spends one handler
  thread (and its stack) per open connection; the async front end holds
  10× the connections on one event loop plus a fixed executor pool.
  Acceptance: at 10× the connections the async server's thread growth
  stays flat (a small constant, not a function of the connection count).
* **Batching throughput** — under the E9 skewed load (one preference,
  eight URIs, decision cache off) self-clocked micro-batching
  (``batch_max`` 32) must beat the same async server at ``batch_max=1``.

Both assertions are gated on ``os.cpu_count() >= 4`` like E13: on tiny
hosts the client threads, the loop, and the executor time-slice one
core and the throughput comparison measures the scheduler, not the
server.  The shape assertions run everywhere.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.export import async_results
from repro.bench.harness import (
    batching_load_experiment,
    batching_speedup,
    connection_scaling_experiment,
)
from repro.bench.reporting import format_async

MANY_CORES = (os.cpu_count() or 1) >= 4

CONNECTIONS = 8
MULTIPLIER = 10


@pytest.fixture(scope="module")
def scaling():
    return connection_scaling_experiment(connections=CONNECTIONS,
                                         multiplier=MULTIPLIER)


@pytest.fixture(scope="module")
def batching():
    return batching_load_experiment(threads=8, checks=300, warmup=24)


class TestConnectionScaling:
    def test_grid_is_complete(self, scaling):
        assert [row.frontend for row in scaling] == ["threaded", "async"]
        threaded, asynch = scaling
        assert threaded.connections == CONNECTIONS
        assert asynch.connections == CONNECTIONS * MULTIPLIER

    def test_threaded_grows_a_thread_per_connection(self, scaling):
        threaded = scaling[0]
        # The threaded transport dedicates a handler thread to every
        # open keep-alive connection (give or take one for scheduling
        # races).
        assert threaded.thread_delta >= threaded.connections - 2

    def test_async_stays_flat_at_10x_connections(self, scaling):
        """The tentpole claim: 10× the connections, bounded threads."""
        asynch = scaling[1]
        # The loop thread plus (at most) the executor pool — never a
        # function of the connection count.
        assert asynch.thread_delta <= 6
        assert asynch.thread_delta < asynch.connections / 10

    def test_async_thread_cost_beats_threaded_per_connection(self,
                                                             scaling):
        threaded, asynch = scaling
        assert asynch.threads_per_connection < \
            threaded.threads_per_connection / 5
        assert asynch.est_stack_bytes <= threaded.est_stack_bytes

    def test_stack_estimate_prices_the_delta(self, scaling):
        for row in scaling:
            assert row.est_stack_bytes % max(1, row.thread_delta or 1) == 0
            assert row.est_stack_bytes >= 0


class TestBatchingThroughput:
    def test_grid_is_complete(self, batching):
        assert sorted(row.mode for row in batching) == \
            ["batched", "unbatched"]
        for row in batching:
            assert row.checks == 300
            assert row.seconds > 0
            assert row.checks_per_second > 0

    def test_unbatched_never_coalesces(self, batching):
        unbatched = next(r for r in batching if r.mode == "unbatched")
        assert unbatched.batches == unbatched.checks
        assert unbatched.coalesced == 0

    def test_batched_coalesces_under_skew(self, batching):
        batched = next(r for r in batching if r.mode == "batched")
        assert batched.batches < batched.checks
        assert batched.coalesced > 0

    @pytest.mark.skipif(not MANY_CORES,
                        reason="throughput comparison needs >= 4 cores; "
                               "clients, loop and executor time-slice "
                               "on fewer")
    def test_batching_window_wins(self, batching):
        """The PR's acceptance bar: micro-batching must pay under
        skewed load, not just break even."""
        assert batching_speedup(batching) >= 1.15

    def test_report_renders(self, scaling, batching):
        table = format_async(scaling, batching)
        assert "Frontend" in table
        assert "batched" in table
        assert "threaded" in table


class TestAsyncExport:
    def test_document_shape(self):
        document = async_results(connections=4, multiplier=5,
                                 threads=4, checks=64)
        assert document["meta"]["cpu_count"] == os.cpu_count()
        assert document["meta"]["multiplier"] == 5
        section = document["e14_async"]
        frontends = [row["frontend"]
                     for row in section["connection_scaling"]]
        assert frontends == ["threaded", "async"]
        assert {row["mode"] for row in section["batching"]} == \
            {"batched", "unbatched"}
        for row in section["batching"]:
            assert row["checks"] == 64
        assert section["batching_speedup"] is not None
