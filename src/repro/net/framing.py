"""HTTP/1.1 message framing, shared by every end of the wire.

Both servers (the threaded transport of :mod:`repro.net.httpd` and
:mod:`repro.net.aio`), the client agent (:mod:`repro.net.client`) and,
through the agent, the cluster router's hop to its shards frame their
messages here, so one parser decides what every end accepts:

* A head — start line plus header block — is taken in one piece, up to
  the blank line that ends it.  Lines may end in CRLF or a bare LF;
  blank lines before a start line are skipped.  A head is capped at
  :data:`MAX_HEAD_BYTES` bytes and :data:`MAX_HEADERS` header lines.
* A body is framed by ``Content-Length`` only.  ``Transfer-Encoding``
  is refused, and so are two ``Content-Length`` headers that disagree:
  either would let the two ends disagree about where the next message
  starts.
* A message is rendered as one buffer and sent in one write, on a
  socket with Nagle off, so no reply waits for a delayed ACK.

Whatever the parser refuses raises :class:`FramingError`.  A server
answers it with ``400 bad-request`` and closes the connection; a client
treats it as a transport failure, retried like a reset.

:class:`InboundBuffer` is the parser's state, free of I/O: it splits
heads and bodies off bytes however they arrived.
:class:`SocketConnection` feeds it from a blocking socket (the threaded
server and the client), :class:`StreamConnection` from asyncio streams
(the async server).  Both offer the three coroutines the request core's
connection loop awaits — ``request_head``, ``read`` and ``write`` — so
both servers run the same loop.
"""

from __future__ import annotations

import asyncio
import re
import socket
from dataclasses import dataclass
from http import HTTPStatus
from typing import Mapping
from urllib.parse import urlsplit

#: Largest accepted head: start line, header lines and the blank line.
MAX_HEAD_BYTES = 16 * 1024
#: Most header lines accepted in one head.
MAX_HEADERS = 100
#: Bytes asked of a socket per read.
READ_SIZE = 64 * 1024

#: The interim reply to ``Expect: 100-continue``, sent just before a
#: server reads the body the client is holding back.
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"

_REASONS = {status.value: status.phrase for status in HTTPStatus}
_HEAD_END = re.compile(rb"\r?\n\r?\n")
_TOKEN = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")
_HTTP_10, _HTTP_11 = "HTTP/1.0", "HTTP/1.1"


class FramingError(Exception):
    """Bytes that cannot be framed as an HTTP/1.1 message: the
    connection they arrived on cannot carry another one."""


@dataclass
class RequestHead:
    """A parsed request line and header block."""

    method: str
    path: str
    query: str
    #: Lower-cased names; a repeated header keeps its last value.
    headers: dict[str, str]
    content_length: int
    #: Whether the connection may carry another request after this one.
    keep_alive: bool
    #: The client waits for ``100 Continue`` before sending the body.
    expects_continue: bool


@dataclass
class ResponseHead:
    """A parsed status line and header block."""

    status: int
    headers: dict[str, str]
    content_length: int
    keep_alive: bool


def _split_head(data: bytes) -> tuple[str, dict[str, str]]:
    """The start line and the header block (lower-cased names) of one
    head, terminator included."""
    lines = data.decode("latin-1").rstrip("\r\n").split("\n")
    if len(lines) > MAX_HEADERS + 1:
        raise FramingError(f"more than {MAX_HEADERS} header lines")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        # A name must be a bare token: "Content-Length :" and folded
        # continuation lines are refused, not guessed at.
        if not colon or not _TOKEN.fullmatch(name):
            raise FramingError(f"malformed header line {line[:64]!r}")
        name = name.lower()
        value = value.strip(" \t\r")
        if name == "content-length" and headers.get(name, value) != value:
            raise FramingError("conflicting Content-Length headers")
        headers[name] = value
    if "transfer-encoding" in headers:
        raise FramingError("Transfer-Encoding is not supported; frame "
                           "the body with Content-Length")
    return lines[0].rstrip("\r"), headers


def _content_length(headers: Mapping[str, str]) -> int | None:
    value = headers.get("content-length")
    if value is None:
        return None
    if value.isascii() and value.isdigit():
        try:
            return int(value)
        except ValueError:           # more digits than int() converts
            pass
    raise FramingError(f"Content-Length {value[:64]!r} is not a byte count")


def _keep_alive(version: str, headers: Mapping[str, str]) -> bool:
    """HTTP/1.1 keeps a connection open unless told ``close``; HTTP/1.0
    closes it unless told ``keep-alive``."""
    options = {option.strip() for option
               in headers.get("connection", "").lower().split(",")}
    if version == _HTTP_10:
        return "keep-alive" in options
    return "close" not in options


def parse_request_head(data: bytes) -> RequestHead:
    """Parse one request head; :class:`FramingError` if it is refused."""
    line, headers = _split_head(data)
    parts = line.split()
    if len(parts) != 3 or parts[2] not in (_HTTP_11, _HTTP_10) \
            or not _TOKEN.fullmatch(parts[0]):
        raise FramingError(f"malformed request line {line[:64]!r}")
    method, target, version = parts
    try:
        split = urlsplit(target)
    except ValueError:
        raise FramingError(
            f"unreadable request target {target[:64]!r}") from None
    return RequestHead(
        method=method, path=split.path, query=split.query,
        headers=headers,
        content_length=_content_length(headers) or 0,
        keep_alive=_keep_alive(version, headers),
        # An HTTP/1.0 client cannot wait for an interim reply.
        expects_continue=(version == _HTTP_11 and headers.get(
            "expect", "").lower() == "100-continue"),
    )


def parse_response_head(data: bytes) -> ResponseHead:
    """Parse one response head; :class:`FramingError` if it is refused."""
    line, headers = _split_head(data)
    version, _, rest = line.partition(" ")
    code = rest[:3]
    if version not in (_HTTP_11, _HTTP_10) or not (
            code.isascii() and code.isdigit() and rest[3:4] in ("", " ")):
        raise FramingError(f"malformed status line {line[:64]!r}")
    status = int(code)
    length = _content_length(headers)
    if length is None:
        if status >= 200 and status not in (204, 304):
            raise FramingError(f"{status} response without Content-Length")
        length = 0
    return ResponseHead(status=status, headers=headers,
                        content_length=length,
                        keep_alive=_keep_alive(version, headers))


def _render(start: str, headers: Mapping[str, str], body: bytes) -> bytes:
    head = start + "\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in headers.items()) + "\r\n"
    return head.encode("latin-1") + body


def render_request(method: str, target: str, headers: Mapping[str, str],
                   body: bytes = b"") -> bytes:
    """A request as one buffer; *headers* are written as given, so the
    caller supplies ``Content-Length``."""
    return _render(f"{method} {target} {_HTTP_11}", headers, body)


def render_response(status: int, headers: Mapping[str, str],
                    body: bytes = b"") -> bytes:
    """A response as one buffer; *headers* are written as given."""
    return _render(f"{_HTTP_11} {status} {_REASONS.get(status, '')}",
                   headers, body)


class InboundBuffer:
    """One connection's received bytes, split into heads and bodies."""

    def __init__(self) -> None:
        self._data = bytearray()
        #: Bytes of ``_data`` already searched for the end of a head.
        self._scanned = 0

    def feed(self, data: bytes) -> None:
        self._data += data

    def split_head(self) -> bytes | None:
        """The next head, terminator included; None until it is whole.

        Raises :class:`FramingError` once the head cannot fit in
        :data:`MAX_HEAD_BYTES`.
        """
        data = self._data
        if not self._scanned and data[:1] in (b"\r", b"\n"):
            del data[:len(data) - len(data.lstrip(b"\r\n"))]
        match = _HEAD_END.search(data, max(0, self._scanned - 3))
        if match is None or match.end() > MAX_HEAD_BYTES:
            if match is not None or len(data) >= MAX_HEAD_BYTES:
                raise FramingError(
                    f"head exceeds {MAX_HEAD_BYTES} bytes")
            self._scanned = len(data)
            return None
        head = bytes(data[:match.end()])
        del data[:match.end()]
        self._scanned = 0
        return head

    def split_body(self, length: int) -> bytes | None:
        """The next *length* bytes; None until they have all arrived."""
        if len(self._data) < length:
            return None
        body = bytes(self._data[:length])
        del self._data[:length]
        return body


class SocketConnection(InboundBuffer):
    """Framed messages over a blocking socket: the client agent's
    connection, and each of the threaded server's.

    The coroutines at the end are the loop-facing face of the same
    blocking calls: the threaded server drives its connection loop
    with :func:`repro.net.httpd.run_to_completion` on the connection's
    own thread, where they never suspend.
    """

    def __init__(self, sock: socket.socket) -> None:
        super().__init__()
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock

    def _fill(self) -> bool:
        data = self.sock.recv(READ_SIZE)
        self.feed(data)
        return bool(data)

    def read_head(self) -> bytes | None:
        """The next head; None if the peer closed between messages."""
        while (head := self.split_head()) is None:
            if not self._fill():
                if self._data:
                    raise FramingError("connection closed inside a head")
                return None
        return head

    def read_body(self, length: int) -> bytes:
        while (body := self.split_body(length)) is None:
            if not self._fill():
                raise ConnectionResetError(
                    f"connection closed inside a {length}-byte body")
        return body

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def close(self) -> None:
        self.sock.close()

    async def request_head(self) -> RequestHead | None:
        head = self.read_head()
        return None if head is None else parse_request_head(head)

    async def read(self, length: int) -> bytes:
        return self.read_body(length)

    async def write(self, data: bytes) -> None:
        self.send(data)


class StreamConnection(InboundBuffer):
    """Framed messages over an asyncio stream pair: each of the async
    server's connections."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        super().__init__()
        self._reader = reader
        self._writer = writer

    async def _fill(self) -> bool:
        data = await self._reader.read(READ_SIZE)
        self.feed(data)
        return bool(data)

    async def request_head(self) -> RequestHead | None:
        """The next request's head; None if the peer closed between
        requests."""
        while (head := self.split_head()) is None:
            if not await self._fill():
                if self._data:
                    raise FramingError("connection closed inside a head")
                return None
        return parse_request_head(head)

    async def read(self, length: int) -> bytes:
        while (body := self.split_body(length)) is None:
            if not await self._fill():
                raise ConnectionResetError(
                    f"connection closed inside a {length}-byte body")
        return body

    async def write(self, data: bytes) -> None:
        self._writer.write(data)
        await self._writer.drain()
