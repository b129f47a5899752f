"""Retry with bounded exponential backoff — the client half of fault
tolerance.

The serving stack already *sheds* load (503 + ``Retry-After``) and
*batches* durability (the buffered check log); what was missing is the
discipline on the other end of the wire: a client that heals transient
failures instead of surfacing them.  :class:`RetryPolicy` packages the
standard large-system recipe:

* **bounded attempts** — a call is tried at most ``max_attempts`` times;
* **exponential backoff** — the delay before attempt *n* is
  ``base_delay * multiplier**(n-1)``, capped at ``max_delay``;
* **deterministic jitter** — the delay is stretched by up to ``jitter``
  of itself, derived from a hash of ``(key, attempt)`` rather than a
  PRNG, so a retry schedule is reproducible in tests and two clients
  retrying the same key still decorrelate from clients with other keys;
* **Retry-After wins** — when the server shed the request
  (``overloaded``) and named a delay, the client honors it (still capped
  by the deadline budget);
* **per-call deadline** — backoff never schedules a sleep that would
  push the call past ``deadline`` seconds of total elapsed time; the
  last error is raised instead.

What is safe to retry is the *caller's* decision: the policy only
classifies via the ``classify`` callable handed to :meth:`run`.  The
default (:func:`default_classify`) retries transport failures (reset /
truncated / dropped connections) and the two transient protocol codes
``overloaded`` and ``internal-error``.  Retrying a check is safe even
when the first attempt executed, because checks are stamped with a
``check_key`` and the server's log writer deduplicates (see
docs/http-api.md "Idempotent checks").
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.net import framing, protocol

#: Protocol codes that indicate a transient server-side condition.
#: ``shard-unavailable`` is transient by construction: the router sends
#: it while a shard's backends are down, and the cluster supervisor's
#: job is to bring one back.  ``wrong-shard`` is deliberately absent —
#: retrying the same request at the same server cannot fix a routing
#: mistake; the caller must refresh its topology first.
TRANSIENT_CODES = frozenset({protocol.ERR_OVERLOADED,
                             protocol.ERR_SHARD_UNAVAILABLE,
                             protocol.ERR_INTERNAL})

#: Transport-level exceptions worth a second attempt (connection reset,
#: dropped keep-alive, truncated or unframeable response, refused
#: reconnect).
TRANSPORT_ERRORS = (framing.FramingError, ConnectionError,
                    BrokenPipeError, TimeoutError, OSError)


@dataclass(frozen=True)
class RetryDecision:
    """Whether (and how) one failure should be retried."""

    retry: bool
    #: Server-suggested delay (Retry-After), seconds; None → use backoff.
    retry_after: float | None = None


def default_classify(exc: BaseException) -> RetryDecision:
    """The standard classification: transport and transient errors retry.

    ``overloaded`` carries the server's ``Retry-After`` into the
    decision; ``internal-error`` is retried because the serving stack
    maps transient storage failures (e.g. a busy or faulted SQLite
    write) onto it and idempotent ``check_key`` stamping makes the
    retry safe.  Everything else — bad requests, parse errors,
    unknown endpoints — is deterministic and propagates immediately.
    """
    if isinstance(exc, protocol.ProtocolError):
        if exc.code in TRANSIENT_CODES:
            return RetryDecision(True, retry_after=exc.retry_after)
        return RetryDecision(False)
    if isinstance(exc, TRANSPORT_ERRORS):
        return RetryDecision(True)
    return RetryDecision(False)


def _jitter_fraction(key: str, attempt: int) -> float:
    """A reproducible value in [0, 1) from (key, attempt)."""
    digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    Frozen and stateless — one policy instance can drive any number of
    concurrent calls; per-call state lives on the stack of :meth:`run`.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    #: Total seconds one logical call may consume, attempts + sleeps.
    deadline: float | None = 15.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be within [0, 1]")

    def backoff_delay(self, attempt: int, key: str = "") -> float:
        """Seconds to sleep before retry number *attempt* (1-based)."""
        delay = min(self.max_delay,
                    self.base_delay * self.multiplier ** (attempt - 1))
        return delay * (1.0 + self.jitter * _jitter_fraction(key, attempt))

    def run(self, call: Callable[[], Any], *, key: str = "",
            classify: Callable[[BaseException], RetryDecision]
            = default_classify,
            on_retry: Callable[[BaseException, int], None] | None = None,
            sleep: Callable[[float], None] = time.sleep,
            clock: Callable[[], float] = time.monotonic) -> Any:
        """Invoke *call* until it succeeds, retries are exhausted, or the
        deadline budget cannot fit another attempt.

        *on_retry(exc, attempt)* is invoked just before each re-attempt
        (clients use it to count retries); *sleep*/*clock* are injectable
        so tests can run schedules without wall-clock time.
        """
        start = clock()
        attempt = 1
        while True:
            try:
                return call()
            except BaseException as exc:
                decision = classify(exc)
                if not decision.retry or attempt >= self.max_attempts:
                    raise
                delay = self.backoff_delay(attempt, key)
                if decision.retry_after is not None:
                    delay = max(delay, decision.retry_after)
                if self.deadline is not None and \
                        clock() - start + delay > self.deadline:
                    raise
                if on_retry is not None:
                    on_retry(exc, attempt)
                sleep(delay)
                attempt += 1


#: A policy that never retries — the explicit "off" switch.
NO_RETRY = RetryPolicy(max_attempts=1)
