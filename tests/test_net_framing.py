"""HTTP/1.1 framing: the shared parser, and both servers at the byte level.

Three layers:

* the parser of :mod:`repro.net.framing` on its own (heads, limits,
  refused framings, rendering checked against stdlib ``http.client``
  and ``http.server`` as independent ends);
* a raw-socket parity table: the same bytes sent to the threaded and
  the async server get the same answer, and the connection closes
  whenever the bytes after an error cannot be trusted;
* hypothesis fuzzing of the parser and of both servers: any input
  yields a parsed head, a refusal, a stable 4xx or a close, never a
  500 or a hang.
"""

from __future__ import annotations

import http.client
import http.server
import io
import json
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.appel.serializer import serialize_ruleset
from repro.corpus.volga import jane_preference
from repro.net import framing, protocol
from repro.net.aio import AsyncP3PServer
from repro.net.client import HttpClientAgent
from repro.net.httpd import P3PHttpServer
from repro.server.policy_server import PolicyServer

SERVERS = [P3PHttpServer, AsyncP3PServer]
#: Body cap of the table's servers, so a 413 needs no large upload.
BODY_CAP = 4096


def parse_responses(data: bytes) -> list[tuple[int, dict[str, str], bytes]]:
    """Split raw server output into (status, headers, body) triples —
    a reader written apart from repro.net.framing."""
    responses = []
    while data:
        head, separator, rest = data.partition(b"\r\n\r\n")
        assert separator, f"unframed bytes after the responses: {data!r}"
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        assert len(rest) >= length, f"truncated response: {data!r}"
        responses.append((status, headers, rest[:length]))
        data = rest[length:]
    return responses


def exchange(server, data: bytes, *, read_for: float = 2.0,
             half_close: bool = False):
    """Send *data* on a fresh connection and collect the replies until
    the server closes it or *read_for* seconds pass.

    Returns ``(responses, closed)``.  With *half_close* the client
    shuts its sending side after *data*, so every server must close.
    """
    received = b""
    closed = False
    with socket.create_connection((server.host, server.port),
                                  timeout=read_for) as sock:
        try:
            sock.sendall(data)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass                  # refused mid-send: read what came back
        deadline = time.monotonic() + read_for
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            sock.settimeout(remaining)
            try:
                chunk = sock.recv(65536)
            except TimeoutError:
                break
            except ConnectionResetError:
                closed = True
                break
            if not chunk:
                closed = True
                break
            received += chunk
    return parse_responses(received), closed


@pytest.fixture(scope="module", params=SERVERS,
                ids=lambda server_class: server_class.__name__)
def framing_server(request, tmp_path_factory):
    """Each front end, with a small body cap, serving an empty store."""
    directory = tmp_path_factory.mktemp("framing")
    server = request.param(PolicyServer(str(directory / "framing.db")),
                           owns_policy_server=True,
                           max_body_bytes=BODY_CAP)
    thread = server.run_in_thread()
    yield server
    server.close()
    thread.join(timeout=5)


# -- the parser ---------------------------------------------------------------


class TestRequestHeads:
    def test_fields_and_lower_cased_headers(self):
        head = framing.parse_request_head(
            b"POST /v1/check?x=1 HTTP/1.1\r\nHost: h\r\n"
            b"Content-Type:application/json\r\nContent-Length: 12\r\n\r\n")
        assert (head.method, head.path, head.query) == \
            ("POST", "/v1/check", "x=1")
        assert head.headers == {"host": "h",
                                "content-type": "application/json",
                                "content-length": "12"}
        assert head.content_length == 12
        assert head.keep_alive and not head.expects_continue

    @pytest.mark.parametrize("data", [
        b"GET / HTTP/1.1\nHost: h\n\n",
        b"GET / HTTP/1.1\r\nHost: h\n\r\n",
    ])
    def test_lf_only_and_mixed_line_ends(self, data):
        assert framing.parse_request_head(data).headers == {"host": "h"}

    @pytest.mark.parametrize("version, connection, keep_alive", [
        ("HTTP/1.1", None, True),
        ("HTTP/1.1", "close", False),
        ("HTTP/1.1", "Keep-Alive, Close", False),
        ("HTTP/1.0", None, False),
        ("HTTP/1.0", "keep-alive", True),
    ])
    def test_keep_alive(self, version, connection, keep_alive):
        extra = f"Connection: {connection}\r\n" if connection else ""
        head = framing.parse_request_head(
            f"GET / {version}\r\n{extra}\r\n".encode())
        assert head.keep_alive is keep_alive

    @pytest.mark.parametrize("version, expects", [("HTTP/1.1", True),
                                                  ("HTTP/1.0", False)])
    def test_expect_continue_needs_http11(self, version, expects):
        head = framing.parse_request_head(
            f"POST / {version}\r\nExpect: 100-Continue\r\n\r\n".encode())
        assert head.expects_continue is expects

    def test_identical_repeated_content_lengths_agree(self):
        head = framing.parse_request_head(
            b"POST / HTTP/1.1\r\nContent-Length: 3\r\n"
            b"Content-Length: 3\r\n\r\n")
        assert head.content_length == 3

    @pytest.mark.parametrize("data", [
        b"\r\n\r\n",
        b"GET /\r\n\r\n",
        b"GET / HTTP/1.1 extra\r\n\r\n",
        b"GET / HTTP/2.0\r\n\r\n",
        b"GET / http/1.1\r\n\r\n",
        b"G(T / HTTP/1.1\r\n\r\n",
        b"GET http://[::1 HTTP/1.1\r\n\r\n",
        b"GET / HTTP/1.1\r\nno colon here\r\n\r\n",
        b"GET / HTTP/1.1\r\nHost : h\r\n\r\n",
        b"GET / HTTP/1.1\r\nX-A: 1\r\n folded\r\n\r\n",
        b"GET / HTTP/1.1\r\n: empty name\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\n",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: identity\r\n"
        b"Content-Length: 3\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: 5_0\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: \xb2\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n",
        b"GET / HTTP/1.1\r\n" + b"X-A: 1\r\n" * (framing.MAX_HEADERS + 1)
        + b"\r\n",
    ])
    def test_refused(self, data):
        with pytest.raises(framing.FramingError):
            framing.parse_request_head(data)


class TestResponseHeads:
    def test_fields(self):
        head = framing.parse_response_head(
            b"HTTP/1.1 404 Not Found\r\nContent-Length: 7\r\n"
            b"Connection: close\r\n\r\n")
        assert (head.status, head.content_length, head.keep_alive) == \
            (404, 7, False)

    @pytest.mark.parametrize("status", [204, 304])
    def test_bodiless_statuses_need_no_length(self, status):
        head = framing.parse_response_head(
            f"HTTP/1.1 {status} X\r\n\r\n".encode())
        assert head.content_length == 0

    @pytest.mark.parametrize("data", [
        b"HTTP/1.1 200 OK\r\n\r\n",
        b"HTTP/1.1 2000 OK\r\nContent-Length: 0\r\n\r\n",
        b"ICY 200 OK\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
    ])
    def test_refused(self, data):
        with pytest.raises(framing.FramingError):
            framing.parse_response_head(data)


class TestInboundBuffer:
    def test_messages_split_off_byte_by_byte(self):
        data = (b"\r\n\r\nGET /a HTTP/1.1\r\nHost: h\r\n\r\n"
                b"POST /b HTTP/1.1\nContent-Length: 3\n\nxyz"
                b"GET /c HTTP/1.1\r\n")
        buffer = framing.InboundBuffer()
        messages, head = [], None
        for index in range(len(data)):
            buffer.feed(data[index:index + 1])
            if head is None:
                raw = buffer.split_head()
                head = raw and framing.parse_request_head(raw)
            if head is not None:
                body = buffer.split_body(head.content_length)
                if body is not None:
                    messages.append((head.path, body))
                    head = None
        assert messages == [("/a", b""), ("/b", b"xyz")]
        assert buffer.split_head() is None        # /c is still arriving

    def test_head_limit_refuses_before_the_terminator(self):
        buffer = framing.InboundBuffer()
        buffer.feed(b"GET / HTTP/1.1\r\nX: " + b"a" * framing.MAX_HEAD_BYTES)
        with pytest.raises(framing.FramingError):
            buffer.split_head()

    def test_head_at_the_limit_is_accepted(self):
        prefix = b"GET / HTTP/1.1\r\nX: "
        filler = b"a" * (framing.MAX_HEAD_BYTES - len(prefix) - 4)
        buffer = framing.InboundBuffer()
        buffer.feed(prefix + filler + b"\r\n\r\n")
        assert len(buffer.split_head()) == framing.MAX_HEAD_BYTES


class _BytesSocket:
    """Just enough socket for ``http.client.HTTPResponse``."""

    def __init__(self, data: bytes):
        self._data = data

    def makefile(self, *args, **kwargs):
        return io.BytesIO(self._data)


class TestRenderingIsStandard:
    def test_stdlib_client_parses_a_rendered_response(self):
        data = framing.render_response(
            201, {"Content-Type": "application/json",
                  "Content-Length": "2", "ETag": '"x"'}, b"{}")
        response = http.client.HTTPResponse(_BytesSocket(data))
        response.begin()
        assert (response.status, response.reason) == (201, "Created")
        assert response.getheader("etag") == '"x"'
        assert response.read() == b"{}"

    def test_agent_speaks_to_a_stdlib_server(self):
        """The client side of the framing, against stdlib http.server:
        POST bodies arrive whole, GETs carry none, and one kept-alive
        connection serves every call."""
        seen = []

        class Echo(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):
                pass

            def do_POST(self):
                length = int(self.headers["Content-Length"])
                self._reply(self.rfile.read(length))

            def do_GET(self):
                self._reply(b"")

            def _reply(self, payload: bytes) -> None:
                seen.append((self.command, self.path, self.client_address,
                             self.headers.get("Content-Length")))
                body = json.dumps({"v": 1, "echo": payload.decode()})
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body.encode())

        stdlib = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Echo)
        thread = threading.Thread(target=stdlib.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = stdlib.server_address
            with HttpClientAgent(f"http://{host}:{port}") as agent:
                first = agent.call("POST", "/v1/echo", {"n": 1})
                second = agent.call("GET", "/v1/echo")
        finally:
            stdlib.shutdown()
            stdlib.server_close()
            thread.join(timeout=5)
        assert json.loads(first["echo"]) == {"v": 1, "n": 1}
        assert second["echo"] == ""
        (post, post_address, post_length), (get, get_address, get_length) = \
            [((method, path), address, length)
             for method, path, address, length in seen]
        assert (post, get) == (("POST", "/v1/echo"), ("GET", "/v1/echo"))
        assert post_length is not None and get_length is None
        assert post_address == get_address          # one connection


# -- both servers, byte for byte ----------------------------------------------


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
CHECK = b'{"v": 1, "site": "s", "uri": "/", "preference_hash": "h"}'
CHUNKED = b"%x\r\n%s\r\n0\r\n\r\n" % (len(CHECK), CHECK)

#: (bytes sent, statuses answered); the connection must then close.
#: Each row is a framing edge where two transports can disagree about
#: where the next request starts, so both servers must answer it alike.
FRAMING_ROWS = [
    pytest.param(b"POST /v1/check HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
                 + CHECK + HEALTHZ, (400,),
                 id="unreadable-content-length"),
    pytest.param(b"POST /v1/check HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
                 + CHECK + HEALTHZ, (400,),
                 id="negative-content-length"),
    pytest.param(b"POST /v1/check HTTP/1.1\r\nContent-Length: %d\r\n"
                 b"Content-Length: %d\r\n\r\n"
                 % (len(CHECK), len(CHECK) + 40) + CHECK, (400,),
                 id="conflicting-content-lengths"),
    pytest.param(b"POST /v1/check HTTP/1.1\r\nTransfer-Encoding: chunked"
                 b"\r\n\r\n" + CHUNKED + HEALTHZ, (400,),
                 id="chunked-body"),
    pytest.param(b"NONSENSE\r\n\r\n" + HEALTHZ, (400,),
                 id="malformed-request-line"),
    pytest.param(b"GET /healthz HTTP/1.1\r\nX-Long: " + b"x" * 20 * 1024
                 + b"\r\n\r\n", (400,), id="head-over-the-limit"),
    pytest.param(b"GET /healthz HTTP/1.1\r\n"
                 + b"X-Many: 1\r\n" * (framing.MAX_HEADERS + 1) + b"\r\n",
                 (400,), id="too-many-header-lines"),
    pytest.param(b"GET /healthz HTTP/1.1\r\nHost : t\r\n\r\n" + HEALTHZ,
                 (400,), id="space-before-colon"),
    pytest.param(b"POST /v1/preferences HTTP/1.1\r\nContent-Length: %d\r\n"
                 b"Expect: 100-continue\r\n\r\n" % (BODY_CAP + 1), (413,),
                 id="no-continue-before-413"),
    pytest.param(b"GET /healthz HTTP/1.0\r\n\r\n", (200,),
                 id="http10-closes-after-the-reply"),
]


class TestFramingParity:
    @pytest.mark.parametrize("data, statuses", FRAMING_ROWS)
    def test_same_answer_then_close(self, framing_server, data, statuses):
        responses, closed = exchange(framing_server, data)
        assert [status for status, _, _ in responses] == list(statuses)
        assert closed, "the connection was left open"
        for status, headers, body in responses:
            assert headers[protocol.SERVER_ID_HEADER.lower()] == \
                framing_server.server_id
            if status >= 400:
                assert headers["connection"] == "close"
                envelope = protocol.ErrorEnvelope.from_wire(
                    json.loads(body))
                assert protocol.HTTP_STATUS[envelope.code] == status
                assert envelope.code in (protocol.ERR_BAD_REQUEST,
                                         protocol.ERR_PAYLOAD_TOO_LARGE)

    def test_continue_precedes_the_body(self, framing_server):
        body = protocol.encode(protocol.RegisterPreferenceRequest(
            appel=serialize_ruleset(jane_preference(), indent=False),
        ).to_wire())
        with socket.create_connection((framing_server.host,
                                       framing_server.port),
                                      timeout=5) as sock:
            sock.sendall(b"POST /v1/preferences HTTP/1.1\r\n"
                         b"Content-Length: %d\r\n"
                         b"Expect: 100-continue\r\n\r\n" % len(body))
            interim = b""
            while len(interim) < len(framing.CONTINUE):
                chunk = sock.recv(len(framing.CONTINUE) - len(interim))
                assert chunk, f"closed after {interim!r}"
                interim += chunk
            assert interim == framing.CONTINUE
            sock.sendall(body)
            reply = b""
            while b"\r\n\r\n" not in reply:
                chunk = sock.recv(65536)
                assert chunk, f"closed after {reply!r}"
                reply += chunk
        assert reply.startswith((b"HTTP/1.1 201 ", b"HTTP/1.1 200 "))

    @pytest.mark.parametrize("data", [
        b"GET /healthz HTTP/1.1\nHost: t\n\n",
        b"GET /healthz HTTP/1.1\r\nHost: t\n\r\n",
    ])
    def test_lf_only_heads_are_accepted(self, framing_server, data):
        """The connection stays open after an LF-only head: the
        requests behind it are answered, the last one closing."""
        responses, closed = exchange(
            framing_server,
            data + HEALTHZ + b"GET /healthz HTTP/1.1\nConnection: close\n\n")
        assert [status for status, _, _ in responses] == [200, 200, 200]
        assert closed

    def test_pipelined_requests_answer_in_order(self, framing_server):
        responses, _ = exchange(
            framing_server,
            HEALTHZ + b"POST /v1/check HTTP/1.1\r\nContent-Length: 9\r\n\r\n"
            b"{not json" + b"GET /nowhere HTTP/1.1\r\n\r\n" + HEALTHZ,
            half_close=True)
        assert [status for status, _, _ in responses] == [200, 400, 404,
                                                          200]
        assert json.loads(responses[1][2])["error"]["code"] == \
            protocol.ERR_BAD_JSON


# -- fuzzing ------------------------------------------------------------------

#: Seconds one fuzzed input may take to parse; the parser is linear in
#: a head capped at MAX_HEAD_BYTES, so this bound is loose.
PARSE_BOUND = 0.5

_LINE_END = st.sampled_from([b"\r\n", b"\n"])
_FREE = st.binary(max_size=40).map(
    lambda raw: raw.replace(b"\n", b"").replace(b"\r", b""))
_METHOD = st.one_of(st.sampled_from([b"GET", b"POST", b"PUT", b"HEAD"]),
                    _FREE)
_TARGET = st.one_of(st.sampled_from([
    b"/healthz", b"/metrics", b"/v1/check", b"/v1/check-batch",
    b"/v1/match", b"/v1/preferences", b"/v1/policies", b"/w3c/p3p.xml",
    b"/w3c/p3p.xml?site=a", b"*", b"http://h/healthz",
]), _FREE)
_VERSION = st.one_of(st.sampled_from([b"HTTP/1.1", b"HTTP/1.0",
                                      b"HTTP/2.0"]), _FREE)
_HEADER = st.tuples(
    st.one_of(st.sampled_from([
        b"Content-Length", b"content-length", b"Transfer-Encoding",
        b"Expect", b"Connection", b"Host", b"If-None-Match",
        b"X-P3P-Shard", b"Content-Length ",
    ]), _FREE),
    st.one_of(st.sampled_from([
        b"0", b"5", b"40", b"99999999", b"-1", b"abc", b"chunked",
        b"100-continue", b"close", b"keep-alive", b"*",
    ]), st.integers(0, 300).map(lambda n: str(n).encode()), _FREE),
)


@st.composite
def request_bytes(draw) -> bytes:
    """A request-shaped byte string: usually a plausible head over a
    random body, sometimes anything at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=600))
    end = draw(_LINE_END)
    head = draw(_METHOD) + b" " + draw(_TARGET) + b" " + draw(_VERSION) + end
    for name, value in draw(st.lists(_HEADER, max_size=6)):
        head += name + b": " + value + draw(_LINE_END)
    return head + draw(_LINE_END) + draw(st.binary(max_size=120))


class TestParserFuzz:
    @settings(max_examples=400, deadline=None)
    @given(data=st.one_of(request_bytes(), st.binary(max_size=2048)))
    def test_any_bytes_parse_or_are_refused(self, data):
        start = time.perf_counter()
        for parse in (framing.parse_request_head,
                      framing.parse_response_head):
            try:
                head = parse(data)
            except framing.FramingError:
                continue
            assert head.content_length >= 0
        assert time.perf_counter() - start < PARSE_BOUND

    @settings(max_examples=200, deadline=None)
    @given(data=request_bytes(), cuts=st.lists(st.integers(0, 800),
                                               max_size=8))
    def test_split_heads_do_not_depend_on_chunking(self, data, cuts):
        """However the bytes arrive, the buffer yields the same head or
        the same refusal."""
        def first_head(chunks):
            buffer = framing.InboundBuffer()
            for chunk in chunks:
                buffer.feed(chunk)
                try:
                    head = buffer.split_head()
                except framing.FramingError:
                    return "refused"
                if head is not None:
                    return head
            return None

        bounds = sorted({0, len(data), *(c for c in cuts if c < len(data))})
        chunks = [data[a:b] for a, b in zip(bounds, bounds[1:])]
        start = time.perf_counter()
        assert first_head(chunks) == first_head([data])
        assert time.perf_counter() - start < PARSE_BOUND


#: Seconds a server may take to answer and close one fuzzed connection.
ANSWER_BOUND = 5.0


class TestServerFuzz:
    @settings(max_examples=120, deadline=None)
    @given(data=request_bytes())
    def test_every_input_gets_a_stable_answer_or_a_close(
            self, framing_server, data):
        """Half-closed after the bytes, every connection must be
        answered and closed within the bound: a hang fails, and so
        does any 5xx."""
        responses, closed = exchange(framing_server, data,
                                     read_for=ANSWER_BOUND,
                                     half_close=True)
        assert closed, f"no close within {ANSWER_BOUND}s for {data!r}"
        for status, headers, body in responses:
            assert status < 500, (data, body)
            if status >= 400:
                envelope = protocol.ErrorEnvelope.from_wire(
                    json.loads(body))
                assert protocol.HTTP_STATUS[envelope.code] == status
