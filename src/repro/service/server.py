"""Minimal asyncio HTTP/1.1 front end over :class:`~repro.service.
scheduler.JobScheduler` — stdlib only, keep-alive, chunked streaming.

Routes (all JSON bodies):

``GET /v1/healthz``
    ``{"ok": true}`` — liveness probe.
``POST /v1/jobs``
    Body ``{"jobs": [<spec>, ...]}`` (see :mod:`~repro.service.
    protocol`).  Every spec gets a per-job status — ``cached``,
    ``coalesced``, ``queued``, ``rejected`` (backlog full) or
    ``draining`` — plus its server-side ``key``.  The response code is
    429 when anything was rejected for backpressure, 503 when anything
    hit the drain gate, 200 otherwise; clients retry only the jobs
    whose status says so.
``GET /v1/jobs/<key>``
    Job status; ``?wait=<seconds>`` long-polls until the job resolves
    (capped) and inlines ``result`` when done.
``GET /v1/blobs/<digest>``
    One stored result blob, integrity-checked by the store.
``GET /v1/stats``
    One :meth:`~repro.service.scheduler.JobScheduler.progress`
    snapshot.
``GET /v1/progress``
    Chunked ``application/x-ndjson`` stream of progress snapshots every
    ``?interval=`` seconds (default 0.5) until the client disconnects
    or the server shuts down — the service-side face of
    :class:`~repro.harness.parallel.SweepStats`.
``POST /v1/drain``
    Body ``{"workers": k}`` retires ``k`` fleet workers with checkpoint
    migration; an empty body (or ``{"intake": false}``) gates intake so
    the backlog runs dry.
``POST /v1/shutdown``
    Graceful exit: gate intake, wait for in-flight jobs, stop.
"""

from __future__ import annotations

import asyncio
import json
import logging
from urllib.parse import parse_qs, urlsplit

from ..harness.parallel import HarnessPolicy
from .protocol import ProtocolError, jobs_from_payload
from .scheduler import JobScheduler, QueueFullError, SchedulerDraining
from .store import ContentStore

_LOG = logging.getLogger("repro.service.server")

#: cap on ?wait= long-polls, so a dead client cannot pin a handler
MAX_WAIT = 300.0

#: cap on a request body; larger ``Content-Length`` values get a 413
#: before any of the body is read
MAX_BODY = 16 * 1024 * 1024

#: caps on the request head: bytes per line (request line included) and
#: header count; either overrun gets a 431
MAX_HEADER_LINE = 8 * 1024
MAX_HEADERS = 100

#: seconds a whole request (head and body) may take to arrive; a stalled
#: read gets a 408
READ_TIMEOUT = 30.0


class _BadRequest(Exception):
    """Maps to an error response (400 unless ``status`` says otherwise)
    with the message as the error body."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def _content_length(value: str) -> int:
    """Parse a ``Content-Length`` header: ASCII digits only (no sign,
    no whitespace or underscores), at most :data:`MAX_BODY`."""
    if not value:
        return 0
    if not (value.isascii() and value.isdigit()):
        raise _BadRequest(f"invalid Content-Length {value!r}")
    length = int(value)
    if length > MAX_BODY:
        raise _BadRequest(
            f"request body of {length} bytes exceeds the "
            f"{MAX_BODY}-byte cap", status=413,
        )
    return length


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One line of the request head, at most :data:`MAX_HEADER_LINE`
    bytes."""
    try:
        line = await reader.readline()
    except ValueError:
        # longer than the stream's own buffer limit
        line = None
    if line is None or len(line) > MAX_HEADER_LINE:
        raise _BadRequest(
            f"request line or header exceeds {MAX_HEADER_LINE} bytes",
            status=431,
        )
    return line


class SweepServer:
    """One listening socket, one scheduler, stdlib all the way down."""

    def __init__(
        self,
        store: ContentStore,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        pool_workers: int | None = None,
        max_backlog: int = 256,
        policy: HarnessPolicy | None = None,
        slice_cycles: int | None = None,
    ) -> None:
        kwargs = dict(
            store=store,
            workers=workers,
            pool_workers=pool_workers,
            max_backlog=max_backlog,
            policy=policy or HarnessPolicy(),
        )
        if slice_cycles is not None:
            kwargs["slice_cycles"] = slice_cycles
        self.scheduler = JobScheduler(**kwargs)
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind, start the fleet, and return ``(host, port)`` — port 0
        resolves to the kernel's pick, which is what tests print."""
        await self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        _LOG.info("serving on http://%s:%d", self.host, self.port)
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Run until a ``POST /v1/shutdown`` completes its drain."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        self.scheduler.begin_drain()
        await self.scheduler.drained()
        await self.stop()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.stop()

    # -- http plumbing -----------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    # the body was never read, so the stream cannot be
                    # resynchronized: answer, then close the connection
                    self._respond(writer, exc.status, {"error": str(exc)})
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, query, headers, body = request
                try:
                    done = await self._dispatch(
                        writer, method, path, query, body
                    )
                except _BadRequest as exc:
                    self._respond(writer, exc.status, {"error": str(exc)})
                    done = False
                except ProtocolError as exc:
                    self._respond(writer, 400, {"error": str(exc)})
                    done = False
                await writer.drain()
                if done or headers.get("connection") == "close":
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Read one request within :data:`READ_TIMEOUT` seconds."""
        try:
            return await asyncio.wait_for(
                self._read_message(reader), READ_TIMEOUT
            )
        except asyncio.TimeoutError:
            raise _BadRequest(
                f"request not received within {READ_TIMEOUT:g}s",
                status=408,
            ) from None

    async def _read_message(self, reader: asyncio.StreamReader):
        line = await _read_line(reader)
        if not line or line in (b"\r\n", b"\n"):
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            raw = await _read_line(reader)
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest(
                f"more than {MAX_HEADERS} header fields", status=431
            )
        length = _content_length(headers.get("content-length", ""))
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = {
            k: v[-1] for k, v in parse_qs(split.query).items()
        }
        return method, split.path.rstrip("/"), query, headers, body

    @staticmethod
    def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
    ) -> None:
        body = json.dumps(payload).encode()
        reason = {
            200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            408: "Request Timeout", 413: "Content Too Large",
            429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            503: "Service Unavailable",
        }.get(status, "OK")
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "\r\n"
            ).encode()
            + body
        )

    # -- routing -----------------------------------------------------------

    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: dict[str, str],
        body: bytes,
    ) -> bool:
        """Handle one request; returns True when the connection (or the
        whole server) should wind down afterwards."""
        if path == "/v1/healthz" and method == "GET":
            self._respond(writer, 200, {"ok": True})
            return False
        if path == "/v1/jobs" and method == "POST":
            self._handle_submit(writer, body)
            return False
        if path.startswith("/v1/jobs/") and method == "GET":
            await self._handle_job(writer, path[len("/v1/jobs/"):], query)
            return False
        if path.startswith("/v1/blobs/") and method == "GET":
            digest = path[len("/v1/blobs/"):]
            blob = self.scheduler.store.get_blob(digest)
            if blob is None:
                self._respond(writer, 404, {"error": "unknown digest"})
            else:
                self._respond(writer, 200, blob)
            return False
        if path == "/v1/stats" and method == "GET":
            self._respond(writer, 200, self.scheduler.progress())
            return False
        if path == "/v1/progress" and method == "GET":
            await self._handle_progress(writer, query)
            return True  # the stream consumed the connection
        if path == "/v1/drain" and method == "POST":
            self._handle_drain(writer, body)
            return False
        if path == "/v1/shutdown" and method == "POST":
            self._respond(writer, 202, {"draining": True})
            self._shutdown.set()
            return True
        if path.startswith("/v1/"):
            self._respond(writer, 404, {"error": f"no route {path}"})
            return False
        self._respond(writer, 404, {"error": "unknown path"})
        return False

    def _handle_submit(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise _BadRequest(f"request body is not JSON: {exc}")
        jobs = jobs_from_payload(payload)
        statuses = []
        for job in jobs:
            try:
                key, _future, status = self.scheduler.submit(job)
                statuses.append({"key": key, "status": status})
            except QueueFullError:
                statuses.append({"status": "rejected"})
            except SchedulerDraining:
                statuses.append({"status": "draining"})
        code = 200
        if any(s["status"] == "rejected" for s in statuses):
            code = 429
        elif any(s["status"] == "draining" for s in statuses):
            code = 503
        self._respond(writer, code, {"jobs": statuses})

    async def _handle_job(
        self,
        writer: asyncio.StreamWriter,
        key: str,
        query: dict[str, str],
    ) -> None:
        wait = min(float(query.get("wait", 0) or 0), MAX_WAIT)
        if wait > 0:
            future = self.scheduler.future_for(key)
            if future is not None:
                try:
                    await asyncio.wait_for(
                        asyncio.shield(future), wait
                    )
                except (asyncio.TimeoutError, Exception):
                    # a failed job still reports through lookup();
                    # shielded so one impatient poller cannot cancel
                    # the shared execution
                    pass
        status = self.scheduler.lookup(key)
        if status is None:
            self._respond(writer, 404, {"error": "unknown job key"})
            return
        if status["status"] == "done":
            result = self.scheduler.store.get_blob(status["digest"])
            if result is not None:
                status = {**status, "result": result}
        self._respond(writer, 200, status)

    async def _handle_progress(
        self, writer: asyncio.StreamWriter, query: dict[str, str]
    ) -> None:
        try:
            interval = max(0.05, float(query.get("interval", 0.5)))
        except ValueError:
            raise _BadRequest("interval must be a number")
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"\r\n"
        )

        def chunk(payload: dict) -> bytes:
            line = json.dumps(payload).encode() + b"\n"
            return f"{len(line):x}\r\n".encode() + line + b"\r\n"

        try:
            while True:
                writer.write(chunk(self.scheduler.progress()))
                await writer.drain()
                if self._shutdown.is_set():
                    break
                try:
                    await asyncio.wait_for(
                        self._shutdown.wait(), interval
                    )
                    writer.write(chunk(self.scheduler.progress()))
                    break
                except asyncio.TimeoutError:
                    continue
        except (ConnectionResetError, BrokenPipeError):
            return
        writer.write(b"0\r\n\r\n")

    def _handle_drain(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise _BadRequest(f"request body is not JSON: {exc}")
        if not isinstance(payload, dict):
            raise _BadRequest("drain body must be an object")
        if "workers" in payload:
            count = payload["workers"]
            if not isinstance(count, int) or count < 1:
                raise _BadRequest('"workers" must be a positive integer')
            granted = self.scheduler.drain_workers(count)
            self._respond(
                writer, 200,
                {"drained_workers": granted,
                 "workers": self.scheduler.progress()["workers"]},
            )
            return
        self.scheduler.begin_drain()
        self._respond(writer, 200, {"intake": "draining"})
