"""HttpClientAgent unit behavior: bounded caches, deadline discipline.

The serving-path invariants the client must hold without a server in
the loop: its reference cache cannot grow without bound (it lives in
long-running user agents), and ``wait_until_healthy`` must come back
by its deadline instead of sleeping one interval past it.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.corpus.volga import VOLGA_REFERENCE_XML, VOLGA_POLICY_XML
from repro.corpus.volga import jane_preference
from repro.net import protocol
from repro.net.aio import serve_async
from repro.net.client import HttpClientAgent
from repro.net.retry import RetryPolicy


def _dead_port() -> int:
    """A port nothing listens on (bound then released)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestReferenceCacheBound:
    def test_cache_is_bounded_lru(self, tmp_path):
        """Fetching more sites than the cache holds evicts the oldest
        instead of growing: the first site's entry is gone, the most
        recent ones are revalidated with If-None-Match."""
        server = serve_async(str(tmp_path / "refs.db"))
        thread = server.run_in_thread()
        try:
            sites = [f"site-{i}.example.com" for i in range(6)]
            with HttpClientAgent(server.base_url) as admin:
                for site in sites:
                    admin.install_policy(
                        VOLGA_POLICY_XML, site=site,
                        reference_file=VOLGA_REFERENCE_XML)
            agent = HttpClientAgent(server.base_url,
                                    reference_cache_size=4)
            try:
                for site in sites:
                    agent.fetch_reference_file(site)
                assert len(agent._reference_cache) == 4
                # Oldest two evicted, newest four retained.
                assert agent._reference_cache.get(sites[0]) is None
                assert agent._reference_cache.get(sites[1]) is None
                assert agent._reference_cache.get(sites[-1]) is not None

                # A retained entry revalidates (304 path) rather than
                # refetching; an evicted one refetches without ETag.
                before = agent.revalidations
                agent.fetch_reference_file(sites[-1])
                assert agent.revalidations == before + 1
            finally:
                agent.close()
        finally:
            server.close()
            thread.join(timeout=5)

    def test_cache_size_is_configurable(self):
        agent = HttpClientAgent("127.0.0.1:1", reference_cache_size=2)
        assert agent._reference_cache.maxsize == 2


class TestWaitUntilHealthyDeadline:
    def test_returns_false_within_timeout(self):
        agent = HttpClientAgent(f"127.0.0.1:{_dead_port()}",
                                jane_preference(), timeout=0.2)
        try:
            start = time.monotonic()
            assert agent.wait_until_healthy(timeout=0.5,
                                            interval=0.4) is False
            elapsed = time.monotonic() - start
            # The final sleep is clamped to the deadline: even with an
            # interval of 0.4s the call cannot overshoot 0.5s by more
            # than scheduling noise (pre-fix it slept a full extra
            # interval past the deadline).
            assert elapsed < 0.5 + 0.25
        finally:
            agent.close()

    def test_zero_timeout_returns_immediately(self):
        agent = HttpClientAgent(f"127.0.0.1:{_dead_port()}",
                                timeout=0.1)
        try:
            start = time.monotonic()
            assert agent.wait_until_healthy(timeout=0.0) is False
            assert time.monotonic() - start < 0.5
        finally:
            agent.close()


class TestFraming:
    def test_close_reply_drops_the_socket(self, tmp_path):
        """A reply carrying ``Connection: close`` (here a 413) ends the
        kept-alive socket, so the next call opens a fresh one instead
        of failing on the closed one and re-sending."""
        server = serve_async(str(tmp_path / "close.db"), max_body_bytes=64)
        thread = server.run_in_thread()
        try:
            with HttpClientAgent(server.base_url, retry=None) as agent:
                with pytest.raises(protocol.ProtocolError) as excinfo:
                    agent.call("POST", "/v1/preferences", {"appel": "x" * 99})
                assert excinfo.value.code == protocol.ERR_PAYLOAD_TOO_LARGE
                assert agent.health()["status"] == "ok"
                assert agent.retries == 0
        finally:
            server.close()
            thread.join(timeout=5)

    def test_unframeable_reply_is_retried(self):
        """A reply the framing refuses (no Content-Length) is a
        transport failure: the retry policy re-sends it on a fresh
        connection."""
        body = b'{"v": 1, "status": "ok"}'
        replies = [b"HTTP/1.1 200 OK\r\n\r\n" + body,
                   b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
                   % (len(body), body)]
        listener = socket.create_server(("127.0.0.1", 0))

        def answer() -> None:
            for reply in replies:
                connection, _ = listener.accept()
                with connection:
                    received = b""
                    while b"\r\n\r\n" not in received:
                        chunk = connection.recv(4096)
                        if not chunk:
                            return
                        received += chunk
                    connection.sendall(reply)

        server = threading.Thread(target=answer, daemon=True)
        server.start()
        try:
            port = listener.getsockname()[1]
            with HttpClientAgent(
                    f"127.0.0.1:{port}",
                    retry=RetryPolicy(base_delay=0.001)) as agent:
                assert agent.call("GET", "/healthz",
                                  retry_key="probe")["status"] == "ok"
                assert agent.retries == 1
            server.join(timeout=5)
            assert not server.is_alive()
        finally:
            listener.close()
