"""RetryPolicy: bounded backoff, deterministic jitter, deadline budget."""

import pytest

from repro.net import framing, protocol
from repro.net.retry import (
    NO_RETRY,
    RetryDecision,
    RetryPolicy,
    default_classify,
)


class Flaky:
    """A callable that fails *failures* times, then returns a value."""

    def __init__(self, failures, exc_factory, value="ok"):
        self.failures = failures
        self.exc_factory = exc_factory
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc_factory()
        return self.value


class FakeClock:
    """Injectable sleep/clock pair: sleeping advances the clock."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds

    def clock(self):
        return self.now


def run(policy, call, **kwargs):
    timer = FakeClock()
    result = policy.run(call, sleep=timer.sleep, clock=timer.clock,
                        **kwargs)
    return result, timer


class TestClassification:
    def test_transport_errors_retry(self):
        assert default_classify(ConnectionResetError()).retry
        assert default_classify(BrokenPipeError()).retry
        assert default_classify(TimeoutError()).retry

    def test_unframeable_replies_retry(self):
        assert default_classify(
            framing.FramingError("malformed status line")).retry

    def test_overloaded_retries_and_carries_retry_after(self):
        exc = protocol.ProtocolError(protocol.ERR_OVERLOADED, "shed",
                                     retry_after=2.5)
        decision = default_classify(exc)
        assert decision.retry
        assert decision.retry_after == 2.5

    def test_internal_error_retries(self):
        exc = protocol.ProtocolError(protocol.ERR_INTERNAL, "boom")
        assert default_classify(exc).retry

    def test_deterministic_errors_do_not_retry(self):
        for code in (protocol.ERR_BAD_REQUEST, protocol.ERR_PARSE,
                     protocol.ERR_NOT_FOUND,
                     protocol.ERR_UNKNOWN_PREFERENCE):
            exc = protocol.ProtocolError(code, "no")
            assert not default_classify(exc).retry
        assert not default_classify(ValueError("logic bug")).retry


class TestBackoff:
    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0,
                             max_delay=0.5, jitter=0.0)
        delays = [policy.backoff_delay(n) for n in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.1)
        once = policy.backoff_delay(1, key="check-1")
        again = policy.backoff_delay(1, key="check-1")
        assert once == again  # same key, same schedule
        assert 0.1 <= once <= 0.1 * 1.1
        assert policy.backoff_delay(1, key="check-2") != once

    def test_invalid_configuration_is_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)


class TestRun:
    def test_success_needs_no_retry(self):
        flaky = Flaky(0, ConnectionResetError)
        result, timer = run(RetryPolicy(), flaky)
        assert result == "ok"
        assert flaky.calls == 1
        assert timer.sleeps == []

    def test_transient_failures_heal(self):
        flaky = Flaky(2, ConnectionResetError)
        result, timer = run(RetryPolicy(max_attempts=4, jitter=0.0),
                            flaky)
        assert result == "ok"
        assert flaky.calls == 3
        assert len(timer.sleeps) == 2

    def test_attempts_are_bounded(self):
        flaky = Flaky(10, ConnectionResetError)
        with pytest.raises(ConnectionResetError):
            run(RetryPolicy(max_attempts=3), flaky)
        assert flaky.calls == 3

    def test_non_retryable_error_propagates_immediately(self):
        flaky = Flaky(10, lambda: protocol.ProtocolError(
            protocol.ERR_BAD_REQUEST, "bad"))
        with pytest.raises(protocol.ProtocolError):
            run(RetryPolicy(max_attempts=5), flaky)
        assert flaky.calls == 1

    def test_retry_after_stretches_the_delay(self):
        flaky = Flaky(1, lambda: protocol.ProtocolError(
            protocol.ERR_OVERLOADED, "shed", retry_after=1.5))
        policy = RetryPolicy(base_delay=0.01, jitter=0.0, deadline=10.0)
        result, timer = run(policy, flaky)
        assert result == "ok"
        assert timer.sleeps == [1.5]

    def test_deadline_refuses_a_sleep_that_would_overrun(self):
        flaky = Flaky(10, lambda: protocol.ProtocolError(
            protocol.ERR_OVERLOADED, "shed", retry_after=60.0))
        policy = RetryPolicy(max_attempts=10, deadline=5.0)
        with pytest.raises(protocol.ProtocolError):
            run(policy, flaky)
        # Attempt 1 failed; the 60 s Retry-After cannot fit in 5 s.
        assert flaky.calls == 1

    def test_on_retry_counts_attempts(self):
        flaky = Flaky(2, ConnectionResetError)
        seen = []
        run(RetryPolicy(jitter=0.0), flaky,
            on_retry=lambda exc, attempt: seen.append(attempt))
        assert seen == [1, 2]

    def test_custom_classifier_wins(self):
        flaky = Flaky(1, ValueError)
        result, _ = run(RetryPolicy(), flaky,
                        classify=lambda exc: RetryDecision(True))
        assert result == "ok"

    def test_no_retry_policy_gives_up_at_once(self):
        flaky = Flaky(1, ConnectionResetError)
        with pytest.raises(ConnectionResetError):
            run(NO_RETRY, flaky)
        assert flaky.calls == 1
