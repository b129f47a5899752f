"""The asyncio front end: one event loop, many connections, batched checks.

The threaded front end (:mod:`repro.net.httpd`) spends a thread per
connection and executes one compiled plan per ``/v1/check``.  This
module carries the paper's set-at-a-time idea across *connections*:

* :class:`AsyncP3PServer` — an asyncio HTTP/1.1 transport under the
  request core of :mod:`repro.net.httpd` (the connection loop, the
  :mod:`repro.net.framing` parser, routing, admission, handlers and
  error envelopes are the threaded server's, unchanged: each head is
  taken in one piece off the stream).  The event loop owns the
  connections; every blocking SQLite call is confined to a small
  :class:`ThreadPoolExecutor` through the core's ``run`` (bounded
  threads → bounded pooled readers), so ten thousand idle keep-alive
  connections cost file descriptors, not thread stacks.
* :class:`BatchingExecutor` — concurrent ``check()`` requests for the
  same ``(preference hash, cookie)`` key are coalesced into one
  micro-batch, which :meth:`PolicyServer.check_requests` — the routine
  behind every threaded check too — decides on one reader: each
  distinct applicable policy is probed in the decision cache and, on a
  miss, decided once by the preference's compiled plan.  Results are split
  back to their waiting requests, and every request is logged through
  the idempotent check-log writer with its own ``check_key`` — retries
  that land in different batches still log at most once.

Batching is self-clocked, not timed.  A check whose key has no batch
executing is dispatched at once; checks that arrive while one executes
join that key's next batch, which goes out when the executing batch
returns (the hand-off runs in a ``finally``, so a failing batch never
strands the checks queued behind it) or as soon as it holds
``max_batch`` checks.  A lone request therefore waits for nothing, and
a storm still coalesces: batch depth follows arrival rate × service
time, as in Nagle's rule or group commit, with no window to tune.

Failures are isolated per request where they belong to one request: a
check whose reference resolution raises fails alone, with the exception
the threaded front end would raise (so the request core maps it to the
same status and code), and the rest of its batch is decided and logged.
A failure that belongs to no single request — the compiled plan, the
decision cache — fails every waiter of the batch.

``GET /metrics`` serves the same document as the threaded front end
plus a ``batching`` block: batch depth, occupancy, how each batch was
dispatched, coalesced request counters, and a bounded per-preference
depth map.
"""

from __future__ import annotations

import asyncio
import logging
import socket
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.appel.model import Ruleset
from repro.net import framing, protocol
from repro.net.httpd import PolicyService
from repro.server.policy_server import CheckResult, PolicyServer

logger = logging.getLogger(__name__)

__all__ = ["AsyncP3PServer", "BatchingExecutor", "serve_async"]

#: Executor threads for blocking work; also bounds the pooled readers
#: the async server can occupy.
EXECUTOR_THREADS = 4
#: Preferences the ``batching.by_preference`` depth map remembers.
PREFERENCE_DEPTHS = 32


@dataclass
class _Batch:
    """Checks of one (preference, cookie) key that are decided together."""

    preference: Ruleset
    cookie: bool
    items: list[tuple[str, str, str | None, asyncio.Future]] = \
        field(default_factory=list)


class BatchingExecutor:
    """Coalesces concurrent same-preference checks into one decision
    pass (:meth:`PolicyServer.check_requests`).

    Self-clocked: a key with no batch executing dispatches a check at
    once, and checks arriving while one executes wait for it to return
    (or for their own batch to fill) — see the module docstring.

    Loop-affine: :meth:`check`, dispatch, hand-off and :meth:`snapshot`
    all run on the owning event loop, so the counters and the per-key
    state need no lock.  Only :meth:`_execute` — the blocking SQLite
    work — runs on the executor pool, on its own pooled reader
    connection.
    """

    def __init__(self, policy_server: PolicyServer,
                 executor: ThreadPoolExecutor,
                 loop: asyncio.AbstractEventLoop, *,
                 max_batch: int = 32):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.policy_server = policy_server
        self.max_batch = max_batch
        self._executor = executor
        self._loop = loop
        #: Batches executing now, per key; a key with none is absent.
        self._running: dict[tuple[str, bool], int] = {}
        #: Each busy key's next batch; present only while the key runs.
        self._queued: dict[tuple[str, bool], _Batch] = {}
        #: Batch services in flight (the loop holds tasks weakly).
        self._services: set[asyncio.Task] = set()
        # -- counters (loop-affine) --
        self.requests_total = 0
        self.batches = 0
        self.coalesced = 0           # requests that shared their batch
        self.singleton_batches = 0
        self.depth_max = 0
        self.depth_sum = 0
        self.idle_dispatches = 0     # no batch of the key was executing
        self.handoff_flushes = 0     # an executing batch of the key returned
        self.full_flushes = 0        # max_batch reached while the key ran
        #: Bounded per-preference depth map (most recent preferences
        #: only — the same LRU discipline as the registries).
        self._preference_depths: OrderedDict[str, dict] = OrderedDict()

    # -- submission (event loop) ----------------------------------------------

    async def check(self, preference_hash: str, preference: Ruleset, *,
                    site: str, uri: str, cookie: bool = False,
                    check_key: str | None = None) -> CheckResult:
        """One decision, possibly served by a shared micro-batch."""
        future: asyncio.Future = self._loop.create_future()
        key = (preference_hash, cookie)
        item = (site, uri, check_key, future)
        self.requests_total += 1
        if key not in self._running:
            self._dispatch(key, _Batch(preference, cookie, [item]), "idle")
        else:
            batch = self._queued.get(key)
            if batch is None:
                batch = self._queued[key] = _Batch(preference, cookie)
            batch.items.append(item)
            if len(batch.items) >= self.max_batch:
                del self._queued[key]
                self._dispatch(key, batch, "full")
        return await future

    def _dispatch(self, key: tuple[str, bool], batch: _Batch,
                  reason: str) -> None:
        self._running[key] = self._running.get(key, 0) + 1
        depth = len(batch.items)
        self.batches += 1
        self.depth_sum += depth
        self.depth_max = max(self.depth_max, depth)
        if depth > 1:
            self.coalesced += depth
        else:
            self.singleton_batches += 1
        if reason == "idle":
            self.idle_dispatches += 1
        elif reason == "full":
            self.full_flushes += 1
        else:
            self.handoff_flushes += 1
        self._record_depth(key[0], depth)
        task = self._loop.create_task(self._service(key, batch))
        self._services.add(task)
        task.add_done_callback(self._services.discard)

    def _record_depth(self, preference_hash: str, depth: int) -> None:
        label = preference_hash[:12]
        entry = self._preference_depths.get(label)
        if entry is None:
            entry = {"requests": 0, "batches": 0, "depth_max": 0}
            self._preference_depths[label] = entry
        entry["requests"] += depth
        entry["batches"] += 1
        entry["depth_max"] = max(entry["depth_max"], depth)
        self._preference_depths.move_to_end(label)
        while len(self._preference_depths) > PREFERENCE_DEPTHS:
            self._preference_depths.popitem(last=False)

    async def _service(self, key: tuple[str, bool], batch: _Batch) -> None:
        try:
            outcomes = await self._loop.run_in_executor(
                self._executor, self._execute, batch)
        except Exception as exc:     # noqa: BLE001 — fail the waiters, not the loop
            outcomes = [exc] * len(batch.items)
        finally:
            self._hand_off(key)
        for (_, _, _, future), outcome in zip(batch.items, outcomes):
            if future.done():
                continue
            if isinstance(outcome, Exception):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

    def _hand_off(self, key: tuple[str, bool]) -> None:
        """A batch of *key* returned: dispatch the key's next batch."""
        self._running[key] -= 1
        queued = self._queued.pop(key, None)
        if queued is not None:
            self._dispatch(key, queued, "handoff")
        elif not self._running[key]:
            del self._running[key]

    # -- execution (executor thread) ------------------------------------------

    def _execute(self, batch: _Batch) -> list[CheckResult | Exception]:
        """Decide *batch* on this executor thread: one outcome per
        request, in order (see :meth:`PolicyServer.check_requests`)."""
        return self.policy_server.check_requests(
            batch.preference,
            [(site, uri, check_key) for site, uri, check_key, _
             in batch.items],
            batch.cookie)

    # -- introspection (event loop) -------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        return {
            "max_batch": self.max_batch,
            "requests": self.requests_total,
            "batches": self.batches,
            "coalesced": self.coalesced,
            "singleton_batches": self.singleton_batches,
            "depth_max": self.depth_max,
            "depth_avg": (self.depth_sum / self.batches
                          if self.batches else 0.0),
            # Fraction of the batch capacity the batches actually used:
            # 1.0 means every batch was full, ~0 means no coalescing.
            "window_occupancy": (self.depth_sum
                                 / (self.batches * self.max_batch)
                                 if self.batches else 0.0),
            "idle_dispatches": self.idle_dispatches,
            "handoff_flushes": self.handoff_flushes,
            "full_flushes": self.full_flushes,
            "by_preference": {label: dict(entry) for label, entry
                              in self._preference_depths.items()},
        }


class AsyncP3PServer(PolicyService):
    """The asyncio transport under the shared request core.

    Same endpoints, error envelopes and shard-identity headers as
    :class:`~repro.net.httpd.P3PHttpServer` (both are a
    :class:`~repro.net.httpd.PolicyService`), same lifecycle
    (``serve_forever`` / ``run_in_thread`` / ``shutdown`` / ``close``)
    — the cluster worker and the CLI treat the two interchangeably.
    The constructor takes the batch cap plus every ``PolicyService``
    keyword.  The listening socket is bound in the
    constructor (port 0 works), so ``base_url`` is valid before the loop
    starts, exactly like the threaded server.
    """

    def __init__(self, policy_server: PolicyServer,
                 address: tuple[str, int] = ("127.0.0.1", 0), *,
                 batch_max: int = 32,
                 **options: Any):
        super().__init__(policy_server, address, **options)
        self.batch_max = batch_max
        self._executor = ThreadPoolExecutor(
            max_workers=EXECUTOR_THREADS, thread_name_prefix="p3p-aio-db")
        self.batching: BatchingExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._tasks: set[asyncio.Task] = set()
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._startup_error: BaseException | None = None
        self._serving = False
        self._closed = False

    def _bind(self, address: tuple[str, int]) -> None:
        self._socket = socket.create_server(address, reuse_port=False)
        self.server_address = self._socket.getsockname()

    async def run(self, work: Callable[[], Any]) -> Any:
        """Run blocking *work* on the executor, off the event loop."""
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, work)

    async def _decide(self, request: protocol.CheckRequest,
                      preference: Ruleset) -> CheckResult:
        """One decision, possibly served by a shared micro-batch."""
        return await self.batching.check(
            request.preference_hash, preference,
            site=request.site, uri=request.uri,
            cookie=request.cookie, check_key=request.check_key)

    async def _decide_batch(self, request: protocol.BatchCheckRequest,
                            preference: Ruleset) -> list[CheckResult]:
        """The threaded endpoint's contract on the loop: wait for every
        check, flush the check log in a finally, and only then raise the
        first failure — the checks that completed are durable when the
        error envelope goes out."""
        keys = request.check_keys or (None,) * len(request.checks)
        try:
            results = await asyncio.gather(*[
                self.batching.check(
                    request.preference_hash, preference,
                    site=site, uri=uri, cookie=request.cookie,
                    check_key=key)
                for (site, uri), key in zip(request.checks, keys)
            ], return_exceptions=True)
        finally:
            await self.run(self.policy_server.flush_log)
        for result in results:
            if isinstance(result, BaseException):
                raise result
        return results

    # -- introspection -------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, Any]:
        snapshot = super().metrics_snapshot()
        snapshot["server"]["frontend"] = "async"
        snapshot["batching"] = self.batching_snapshot()
        return snapshot

    def batching_snapshot(self) -> dict[str, Any]:
        """The executor's counters (zeros before the loop starts)."""
        if self.batching is None:
            return {"requests": 0, "batches": 0, "coalesced": 0,
                    "singleton_batches": 0, "depth_max": 0}
        return self.batching.snapshot()

    # -- lifecycle -----------------------------------------------------------

    def serve_forever(self, poll_interval: float | None = None) -> None:
        """Run the event loop on the calling thread until ``shutdown``.

        *poll_interval* is accepted (and ignored) for signature parity
        with ``ThreadedTransport.serve_forever`` — the worker entry
        point calls both the same way.
        """
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._stopped.clear()
        try:
            loop.run_until_complete(self._serve(loop))
        except BaseException as exc:
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()
            raise
        finally:
            pending = [task for task in self._tasks if not task.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(asyncio.gather(
                    *pending, return_exceptions=True))
            asyncio.set_event_loop(None)
            loop.close()
            self._loop = None
            self._serving = False
            self._stopped.set()

    async def _serve(self, loop: asyncio.AbstractEventLoop) -> None:
        self.batching = BatchingExecutor(
            self.policy_server, self._executor, loop,
            max_batch=self.batch_max)
        self._stop = asyncio.Event()
        server = await asyncio.start_server(self._handle_connection,
                                            sock=self._socket)
        self._serving = True
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            # The listening socket outlives the loop (close() owns it),
            # so a stopped server can be restarted in tests if needed.
            try:
                await server.wait_closed()
            except OSError:
                pass

    def run_in_thread(self) -> threading.Thread:
        """Start ``serve_forever`` on a daemon thread and return it."""
        thread = threading.Thread(target=self._run_guarded,
                                  name="p3p-aio", daemon=True)
        self._thread = thread
        thread.start()
        if not self._ready.wait(10):
            raise RuntimeError("async server did not start within 10s")
        if self._startup_error is not None:
            raise RuntimeError("async server failed to start") \
                from self._startup_error
        return thread

    def _run_guarded(self) -> None:
        try:
            self.serve_forever()
        except Exception:            # noqa: BLE001 — surfaced via _startup_error
            logger.exception("async server loop failed")

    def shutdown(self) -> None:
        """Stop serving; blocks until the loop has exited (parity with
        ``BaseServer.shutdown``).  Thread-safe, idempotent."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and loop.is_running():
            loop.call_soon_threadsafe(stop.set)
            self._stopped.wait(10)

    def server_close(self) -> None:
        """Release the listening socket (the crash-shaped teardown —
        no drain, no flush; pairs with ``InProcessWorker.kill``)."""
        self._socket.close()

    def close(self) -> None:
        """Graceful: stop the loop, drain the executor, flush the log,
        release the socket.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.shutdown()
        if self._thread is not None:
            self._thread.join(10)
            self._thread = None
        self._executor.shutdown(wait=True)
        self._socket.close()
        self._release()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        try:
            await self.serve_connection(
                framing.StreamConnection(reader, writer))
        except (ConnectionError, TimeoutError):
            pass
        except Exception:
            writer.close()
            raise
        except asyncio.CancelledError:
            # Server teardown with the connection mid-read: drop the
            # socket and finish *normally* (no awaits past this point),
            # so the streams machinery's done-callback — which calls
            # ``task.exception()`` — doesn't spray CancelledError
            # tracebacks for every held-open keep-alive connection.
            writer.close()
            return
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError,
                asyncio.CancelledError):
            # CancelledError here is server teardown racing a graceful
            # close that was already underway — finish normally, as
            # above.
            pass


def serve_async(db: str | None = None, host: str = "127.0.0.1",
                port: int = 0, **options: Any) -> AsyncP3PServer:
    """Boot an async server over a fresh :class:`PolicyServer` on *db*.

    The returned server owns its PolicyServer: ``close()`` flushes the
    check log and closes the pool.  The twin of :func:`repro.net.httpd.serve`.
    """
    policy_server = PolicyServer(db)
    return AsyncP3PServer(policy_server, (host, port),
                          owns_policy_server=True, **options)
