"""Open-loop HTTP load generator for ``serve_open``.

One thread, at most ``nproc`` keep-alive connections.  Requests are sent
when they are due, whatever is still outstanding: each connection
pipelines, so sending never waits for a response, and a stalled server
lengthens the measured latency instead of thinning the load.  Latency is
timed from when a request was due, not from when it went out.

On a non-200 answer, a closed connection or a dropped socket, every design
still unanswered on that connection counts as failed and the generator
reconnects.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence

#: Seconds a phase waits for answers after its last request was due.
DRAIN_S = 10.0


class Request:
    """One ``POST /scan``: when it is due (seconds into its phase) and what it carries."""

    __slots__ = ("offset", "designs", "wire", "due", "status", "done", "records")

    def __init__(self, offset: float, designs: List[int], body: Dict[str, Any]) -> None:
        self.offset = offset
        #: Indices into the workload's design pool.
        self.designs = designs
        payload = json.dumps(body).encode()
        self.wire = (
            b"POST /scan HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n"
            b"Content-Length: " + str(len(payload)).encode() + b"\r\n\r\n" + payload
        )
        self.due = self.done = 0.0
        #: HTTP status; 0 when the connection failed before an answer.
        self.status = -1
        self.records: Optional[List[Dict[str, Any]]] = None

    @property
    def latency_s(self) -> float:
        return self.done - self.due


class _Conn:
    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address, timeout=5.0)
        self.sock.setblocking(False)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.outbuf = bytearray()
        self.inbuf = bytearray()
        self.outstanding: Deque[Request] = deque()


class PhaseResult:
    def __init__(self, requests: List[Request]) -> None:
        self.requests = requests

    def ok(self) -> List[Request]:
        return [r for r in self.requests if r.status == 200]


class OpenLoop:
    """The generator: owns the connections across phases."""

    def __init__(self, host: str, port: int, connections: int) -> None:
        self.address = (host, port)
        self.selector = selectors.DefaultSelector()
        self.conns: List[_Conn] = []
        self.reconnects = 0
        #: Seconds each request went out after it was due.
        self.late: List[float] = []
        self.sent = 0
        for _ in range(connections):
            self._open()

    def _open(self) -> _Conn:
        conn = _Conn(self.address)
        self.selector.register(conn.sock, selectors.EVENT_READ, conn)
        self.conns.append(conn)
        return conn

    def _fail(self, conn: _Conn, now: float) -> None:
        """Fail everything unanswered on ``conn``, close it, reconnect."""
        for request in conn.outstanding:
            request.status, request.done = 0, now
        conn.outstanding.clear()
        self.selector.unregister(conn.sock)
        conn.sock.close()
        self.conns.remove(conn)
        self.reconnects += 1
        self._open()

    def _flush(self, conn: _Conn) -> None:
        if conn.outbuf:
            try:
                sent = conn.sock.send(conn.outbuf)
            except (BlockingIOError, InterruptedError):
                sent = 0
            del conn.outbuf[:sent]
        mask = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.outbuf else 0)
        self.selector.modify(conn.sock, mask, conn)

    def _read(self, conn: _Conn, now: float) -> None:
        try:
            chunk = conn.sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            chunk = b""
        if not chunk:
            self._fail(conn, now)
            return
        conn.inbuf += chunk
        while conn.outstanding:
            head_end = conn.inbuf.find(b"\r\n\r\n")
            if head_end < 0:
                return
            lines = bytes(conn.inbuf[:head_end]).decode("latin-1").split("\r\n")
            headers = {k.strip().lower(): v.strip() for k, _, v in (h.partition(":") for h in lines[1:])}
            length = int(headers.get("content-length", "0"))
            if len(conn.inbuf) < head_end + 4 + length:
                return
            body = bytes(conn.inbuf[head_end + 4: head_end + 4 + length])
            del conn.inbuf[: head_end + 4 + length]
            request = conn.outstanding.popleft()
            request.status, request.done = int(lines[0].split()[1]), now
            if request.status == 200:
                request.records = json.loads(body)["records"]
            if request.status != 200 or headers.get("connection", "").lower() == "close":
                self._fail(conn, now)
                return

    def run(self, requests: Sequence[Request]) -> PhaseResult:
        """Send ``requests`` on their schedule; wait for every answer.

        Requests still unanswered :data:`DRAIN_S` after the last one was
        due fail with their connections.
        """
        start = time.perf_counter() + 0.02
        pending = list(requests)
        nxt = 0
        last_due = start + (pending[-1].offset if pending else 0.0)
        while True:
            now = time.perf_counter()
            while nxt < len(pending) and start + pending[nxt].offset <= now:
                conn = min(self.conns, key=lambda c: len(c.outstanding))
                request = pending[nxt]
                request.due = start + request.offset
                self.late.append(now - request.due)
                self.sent += 1
                conn.outstanding.append(request)
                conn.outbuf += request.wire
                self._flush(conn)
                nxt += 1
            sending = nxt < len(pending)
            if not sending and not any(c.outstanding for c in self.conns):
                break
            if now > last_due + DRAIN_S:
                for conn in list(self.conns):
                    if conn.outstanding:
                        self._fail(conn, now)
                break
            wait = start + pending[nxt].offset - now if sending else 0.05
            for key, mask in self.selector.select(timeout=max(0.0, min(wait, 0.05))):
                conn = key.data
                if conn not in self.conns:
                    continue
                if mask & selectors.EVENT_WRITE:
                    self._flush(conn)
                if mask & selectors.EVENT_READ:
                    self._read(conn, time.perf_counter())
        return PhaseResult(pending)

    def close(self) -> None:
        for conn in self.conns:
            self.selector.unregister(conn.sock)
            conn.sock.close()
        self.conns = []
        self.selector.close()
