"""Per-shard workers: one serving process (or thread) per database.

A *worker* wraps the existing single-process stack —
:class:`~repro.server.policy_server.PolicyServer` behind
:class:`~repro.net.httpd.P3PHttpServer` — over one shard's database
file, stamped with a :class:`~repro.net.protocol.ShardIdentity` so
every response names the shard and topology version it answered for.

Two supervision modes share one stack builder:

* :class:`ProcessWorker` — a real ``multiprocessing`` child (``spawn``
  start method: deterministic, no forked locks/threads), the deployment
  the CLI and the E13 benchmark run.  The parent learns the child's
  ephemeral port through a queue handshake; ``terminate()`` sends
  SIGTERM, which the child turns into a graceful drain — stop
  accepting, finish in-flight requests, flush the check log, exit 0.
* :class:`InProcessWorker` — the same stack on a daemon thread in the
  current process.  Tests use it because the worker's internals stay
  reachable: ``worker.policy_server.pool`` is exactly what
  :func:`repro.testing.faults.crash_pool` wants to kill.

Both expose the same surface (``start`` / ``terminate`` / ``kill`` /
``restart`` / ``is_alive`` / ``base_url``), so the cluster supervisor
and the failover tests are mode-agnostic.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
from dataclasses import dataclass
from typing import Any

from repro.net.aio import AsyncP3PServer
from repro.net.httpd import P3PHttpServer
from repro.net.protocol import ShardIdentity
from repro.server.policy_server import PolicyServer

from repro.cluster.replica import ShardReplica

__all__ = [
    "WorkerConfig",
    "ProcessWorker",
    "InProcessWorker",
    "build_worker_stack",
]

#: Spawn (not fork): a forked child would inherit the parent's pool
#: locks and live HTTP threads mid-state; spawn re-imports cleanly and
#: behaves identically on every platform.
START_METHOD = "spawn"


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs — frozen and picklable, so the
    same value drives a spawned child or an in-process thread."""

    shard_id: int
    role: str                        # "primary" | "replica"
    db_path: str
    topology_version: int = 1
    #: Replicas refresh from this file; primaries leave it None.
    primary_path: str | None = None
    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 64
    retry_after_check: float = 0.5
    retry_after_install: float = 2.0
    refresh_interval: float = 0.25
    audit_plans: bool = False
    #: "threaded" (a thread per connection over socketserver) or
    #: "async" (the asyncio front end with the batching executor) —
    #: both run the same connection loop and framing, so the router
    #: and clients are none the wiser.
    frontend: str = "threaded"

    def __post_init__(self) -> None:
        if self.role not in ("primary", "replica"):
            raise ValueError(f"unknown worker role {self.role!r}")
        if self.role == "replica" and self.primary_path is None:
            raise ValueError("a replica needs a primary_path")
        if self.frontend not in ("threaded", "async"):
            raise ValueError(f"unknown frontend {self.frontend!r}")

    @property
    def identity(self) -> ShardIdentity:
        return ShardIdentity(shard_id=self.shard_id,
                             topology_version=self.topology_version,
                             role=self.role)


def build_worker_stack(
        config: WorkerConfig
) -> tuple[P3PHttpServer | AsyncP3PServer, ShardReplica | None]:
    """Build (and for replicas, start refreshing) one worker's stack.

    The returned server *owns* its PolicyServer — closing it flushes
    the check log and closes the pool.  Replicas additionally return
    the :class:`ShardReplica` whose refresh loop is already running and
    whose generation/lag counters are wired into ``/metrics``.  With
    ``frontend="async"`` the shard is fronted by the asyncio server
    (same protocol, same lifecycle surface), so a cluster can serve
    checks through the batching executor per shard.
    """
    replica: ShardReplica | None = None
    if config.role == "replica":
        replica = ShardReplica(
            primary_path=config.primary_path,
            replica_path=config.db_path,
            refresh_interval=config.refresh_interval,
            audit_plans=config.audit_plans,
        )
        policy_server = replica.policy_server
    else:
        policy_server = PolicyServer(config.db_path,
                                     audit_plans=config.audit_plans)
    server_class = (AsyncP3PServer if config.frontend == "async"
                    else P3PHttpServer)
    httpd = server_class(
        policy_server,
        (config.host, config.port),
        max_inflight=config.max_inflight,
        retry_after_by_class={
            "check": config.retry_after_check,
            "install": config.retry_after_install,
        },
        identity=config.identity,
        owns_policy_server=True,
    )
    if replica is not None:
        httpd.metrics_extensions.append(replica.snapshot)
        replica.start()
    return httpd, replica


def _worker_main(config: WorkerConfig, channel: Any) -> None:
    """Process entry point (module-level: must be picklable for spawn).

    Reports readiness (host, port, pid, server id) through *channel*,
    then serves until SIGTERM.  The drain is graceful by construction:
    the signal handler only *schedules* ``shutdown()`` on a side thread
    (calling it inline would deadlock inside ``serve_forever``);
    ``serve_forever`` then returns after in-flight handlers finish, and
    the ``finally`` flushes the check log before the process exits.
    """
    httpd, replica = build_worker_stack(config)

    def _drain(signum: int, frame: Any) -> None:
        threading.Thread(target=httpd.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    channel.put({
        "host": httpd.host,
        "port": httpd.port,
        "pid": os.getpid(),
        "server_id": httpd.server_id,
    })
    try:
        httpd.serve_forever(poll_interval=0.05)
    finally:
        if replica is not None:
            replica.close()
        httpd.close()


class ProcessWorker:
    """A shard worker in its own OS process (the real deployment)."""

    def __init__(self, config: WorkerConfig, *,
                 start_method: str = START_METHOD):
        self.config = config
        self._context = multiprocessing.get_context(start_method)
        self.process: Any = None
        self.base_url: str | None = None
        self.pid: int | None = None
        self.server_id: str | None = None

    @property
    def shard_id(self) -> int:
        return self.config.shard_id

    @property
    def role(self) -> str:
        return self.config.role

    def start(self, timeout: float = 30.0) -> "ProcessWorker":
        """Spawn the child and wait for its ready handshake."""
        if self.process is not None and self.process.is_alive():
            return self
        channel = self._context.Queue()
        self.process = self._context.Process(
            target=_worker_main, args=(self.config, channel),
            name=f"p3p-shard{self.config.shard_id}-{self.config.role}",
            daemon=True,
        )
        self.process.start()
        try:
            ready = channel.get(timeout=timeout)
        except Exception:
            self.kill()
            raise RuntimeError(
                f"worker shard={self.config.shard_id} "
                f"role={self.config.role} did not report ready "
                f"within {timeout}s") from None
        finally:
            channel.close()
        self.base_url = f"http://{ready['host']}:{ready['port']}"
        self.pid = ready["pid"]
        self.server_id = ready["server_id"]
        return self

    def is_alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def terminate(self, timeout: float = 10.0) -> int | None:
        """SIGTERM → graceful drain; returns the child's exit code."""
        if self.process is None:
            return None
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout)
        if self.process.is_alive():     # drain wedged: escalate
            self.process.kill()
            self.process.join(timeout)
        exitcode = self.process.exitcode
        self.process = None
        self.base_url = None
        return exitcode

    def kill(self) -> None:
        """SIGKILL — the crash case; no drain, no flush."""
        if self.process is None:
            return
        self.process.kill()
        self.process.join(5.0)
        self.process = None
        self.base_url = None

    def restart(self, timeout: float = 30.0) -> "ProcessWorker":
        """Bring up a fresh child over the same database file.

        The new process recovers whatever the old one durably wrote
        (WAL recovery runs on first open) and gets a new ephemeral
        port — callers re-resolve through the cluster's backend map.
        """
        if self.process is not None:
            self.terminate()
        return self.start(timeout=timeout)


class InProcessWorker:
    """The same worker stack on a thread — for tests that need to reach
    inside (fault injection on the pool, direct log inspection)."""

    def __init__(self, config: WorkerConfig):
        self.config = config
        self.httpd: P3PHttpServer | AsyncP3PServer | None = None
        self.replica: ShardReplica | None = None
        self._thread: threading.Thread | None = None
        self.base_url: str | None = None
        self.pid: int | None = None
        self.server_id: str | None = None

    @property
    def shard_id(self) -> int:
        return self.config.shard_id

    @property
    def role(self) -> str:
        return self.config.role

    @property
    def policy_server(self) -> PolicyServer | None:
        return self.httpd.policy_server if self.httpd else None

    def start(self, timeout: float = 30.0) -> "InProcessWorker":
        if self.httpd is not None:
            return self
        self.httpd, self.replica = build_worker_stack(self.config)
        self._thread = self.httpd.run_in_thread()
        self.base_url = self.httpd.base_url
        self.pid = os.getpid()
        self.server_id = self.httpd.server_id
        return self

    def is_alive(self) -> bool:
        return self.httpd is not None

    def terminate(self, timeout: float = 10.0) -> int | None:
        """Graceful: stop serving, stop refreshing, flush, close."""
        if self.httpd is None:
            return None
        if self.replica is not None:
            self.replica.close()
        self.httpd.close()
        if self._thread is not None:
            self._thread.join(timeout)
        self.httpd = None
        self.replica = None
        self._thread = None
        self.base_url = None
        return 0

    def kill(self) -> None:
        """Crash-shaped: drop the socket, abandon the pool un-flushed.

        Mirrors what SIGKILL does to a ProcessWorker — buffered check
        log rows are lost, the database file is left for recovery.
        Tests pair this with :func:`repro.testing.faults.crash_pool`
        to also sever the in-flight connections.
        """
        if self.httpd is None:
            return
        if self.replica is not None:
            self.replica.close()
        if self.httpd._serving:
            self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
        self.httpd = None
        self.replica = None
        self._thread = None
        self.base_url = None

    def restart(self, timeout: float = 30.0) -> "InProcessWorker":
        if self.httpd is not None:
            self.terminate(timeout)
        return self.start(timeout)
