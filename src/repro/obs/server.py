"""Live monitoring endpoint, on the repo's one HTTP transport.

:class:`HttpTransport` is the only place socket bytes become a request:
a bounded asyncio HTTP/1.1 reader (one request per connection), the
response writer, and the ``run``/``start_background``/``stop``
lifecycle.  :class:`MonitorServer` here and
:class:`repro.serve.ServeServer` are both built on it, so a limit or a
hardening fix lands once.

:class:`MonitorServer` serves four read-only views of a *running*
session or campaign from a daemon thread:

========== =============================================================
Endpoint   Serves
========== =============================================================
/metrics   OpenMetrics text of the current metrics snapshot
/snapshot  The raw snapshot as JSON (schema-versioned, see
           ``METRICS_SCHEMA_VERSION``)
/events    NDJSON tail of the telemetry ring buffer (``?n=50`` caps it)
/healthz   ``{"status": "ok", "uptime_seconds": ...}`` liveness probe
========== =============================================================

Everything is pull-based and lock-light: a scrape calls the snapshot
function / bus tail under their own locks, so attaching a monitor to a
hot simulation never blocks the simulated ranks for longer than one
snapshot.  Port 0 (the default) lets the OS pick a free port —
``server.port`` reports the bound one once started.

The route logic itself lives in :class:`MonitorRoutes`, transport-free,
so the job server serves the identical
``/metrics``/``/snapshot``/``/events``/``/healthz`` surface.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from http import HTTPStatus
from typing import Any, Callable, TypeVar
from urllib.parse import parse_qs, urlparse

from .openmetrics import render_openmetrics

__all__ = ["HttpTransport", "MonitorRoutes", "MonitorServer",
           "EVENTS_TAIL_CAP", "MAX_BODY", "MAX_HEADER_LINES", "READ_DEADLINE"]

_OPENMETRICS_CTYPE = ("application/openmetrics-text; version=1.0.0; "
                      "charset=utf-8")

#: Largest accepted ``/events?n=`` value.  The ring buffer is far smaller
#: (default 4096), so anything beyond this is a malformed scrape, not a
#: bigger tail — reject it instead of materialising a huge request.
EVENTS_TAIL_CAP = 1_000_000

#: Request bounds (docs/SERVING.md, "Transport limits"): body bytes,
#: header lines, and the seconds a client has to deliver its whole
#: request before an idle or trickling connection is closed.
MAX_BODY = 16 * 1024 * 1024
MAX_HEADER_LINES = 100
READ_DEADLINE = 10.0

_T = TypeVar("_T", bound="HttpTransport")


async def _read_request(reader: asyncio.StreamReader) -> tuple[str, str, bytes]:
    request_line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
    if not request_line:
        raise ValueError("empty request")
    parts = request_line.split(" ")
    if len(parts) != 3:
        raise ValueError(f"malformed request line {request_line!r}")
    method, path, _version = parts
    length = 0
    for _ in range(MAX_HEADER_LINES):
        line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
        if not line:
            break
        name, _, value = line.partition(":")
        name = name.strip().lower()
        if name == "content-length":
            try:
                length = int(value.strip())
            except ValueError:
                raise ValueError("bad Content-Length") from None
        elif name == "transfer-encoding":
            raise ValueError("Transfer-Encoding is not supported")
    else:
        raise ValueError("too many headers")
    if length < 0 or length > MAX_BODY:
        raise ValueError(f"body length {length} out of bounds")
    body = await reader.readexactly(length) if length else b""
    return method, path, body


async def _write_response(writer: asyncio.StreamWriter, status: int,
                          ctype: str, text: str) -> None:
    body = text.encode("utf-8")
    head = (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n").encode("latin-1")
    writer.write(head + body)
    await writer.drain()


def json_error(status: int, message: str) -> tuple[int, str, str]:
    """The ``{"error": ...}`` response both servers answer failures with."""
    return status, "application/json", json.dumps({"error": message}) + "\n"


class HttpTransport:
    """Base HTTP/1.1 server: subclasses implement :meth:`handle`.

    :meth:`run` serves on the caller's event loop until cancelled (the
    CLI); :meth:`start_background` serves from a daemon thread with a
    private loop (tests, embedders) until :meth:`stop`.
    ``host``/``port``/``url`` report the bound address once serving and
    ``loop`` is the loop requests are handled on.
    """

    def __init__(self, *, host: str, port: int, name: str):
        self.host = host
        self.port = port
        self._name = name
        self.loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def handle(self, method: str, path: str,
                     body: bytes) -> tuple[int, str, str]:
        """Answer one request with ``(status, content type, body text)``."""
        raise NotImplementedError

    # -- lifecycle -----------------------------------------------------
    async def _bind(self) -> asyncio.AbstractServer:
        self.loop = asyncio.get_running_loop()
        server = await asyncio.start_server(
            self._serve_connection, self.host, self.port)
        self.host, self.port = server.sockets[0].getsockname()[:2]
        return server

    async def run(self, on_ready: Callable[[Any], None] | None = None) -> None:
        """Serve until cancelled (the CLI); ``on_ready(self)`` fires once
        the socket is bound and ``url``/``port`` report real values."""
        server = await self._bind()
        if on_ready is not None:
            on_ready(self)
        try:
            async with server:
                await server.serve_forever()
        finally:
            self.stop()

    def start_background(self: _T) -> _T:
        """Serve from a daemon thread; returns ``self`` once bound."""
        if self._thread is not None:
            raise RuntimeError(f"{self._name} server already started")
        bound = threading.Event()
        failure: list[Exception] = []

        async def serve() -> None:
            self._stopping = asyncio.Event()
            try:
                server = await self._bind()
            except Exception as exc:  # address in use, bad host or port
                failure.append(exc)
                return
            finally:
                bound.set()
            await self._stopping.wait()
            # asyncio.run cancels whatever is still open on the way out:
            # idle connections, requests waiting on a job.
            server.close()

        self._thread = threading.Thread(
            target=asyncio.run, args=(serve(),), name=self._name, daemon=True)
        self._thread.start()
        bound.wait()
        if failure:
            self._thread = None
            raise failure[0]
        return self

    def stop(self) -> None:
        """Stop serving; subclasses release what :meth:`_bind` acquired."""
        if self._thread is None:
            return
        assert self.loop is not None
        self.loop.call_soon_threadsafe(self._stopping.set)
        self._thread.join(timeout=10.0)
        self._thread = None

    # -- one connection ------------------------------------------------
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    _read_request(reader), READ_DEADLINE)
            except asyncio.TimeoutError:
                return  # idle or trickling client: close, no reply
            except (ValueError, asyncio.IncompleteReadError) as exc:
                response = json_error(400, f"bad request: {exc}")
            else:
                try:
                    response = await self.handle(*request)
                except Exception as exc:  # never kill the accept loop
                    response = json_error(
                        500, f"{type(exc).__name__}: {exc}")
            await _write_response(writer, *response)
        except ConnectionError:
            pass
        except asyncio.CancelledError:
            # Only shutdown cancels a connection, and nothing awaits this
            # task; ending it cancelled makes the 3.11 stream server log
            # an error per open connection.
            pass
        finally:
            writer.close()


class MonitorRoutes:
    """Transport-free monitoring routes: path → ``(status, ctype, body)``.

    Shared by :class:`MonitorServer` and the job server in
    :mod:`repro.serve`, so both expose the same scrape surface with the
    same parsing and error behaviour.
    """

    def __init__(self, *,
                 snapshot_fn: Callable[[], dict[str, Any]] | None = None,
                 telemetry: Any = None,
                 started: float | None = None,
                 health_extra: Callable[[], dict[str, Any]] | None = None):
        self.snapshot_fn = snapshot_fn
        self.telemetry = telemetry
        self.started = time.monotonic() if started is None else started
        self.health_extra = health_extra

    def handle(self, path: str) -> tuple[int, str, str] | None:
        """Serve ``path`` (with query string); None when unrouted."""
        url = urlparse(path)
        route = url.path.rstrip("/") or "/"
        if route == "/healthz":
            doc = {
                "status": "ok",
                "uptime_seconds": round(time.monotonic() - self.started, 3),
            }
            if self.health_extra is not None:
                doc.update(self.health_extra())
            return 200, "application/json", json.dumps(doc) + "\n"
        if route == "/metrics" and self.snapshot_fn is not None:
            return (200, _OPENMETRICS_CTYPE,
                    render_openmetrics(self.snapshot_fn()))
        if route == "/snapshot" and self.snapshot_fn is not None:
            return (200, "application/json",
                    json.dumps(self.snapshot_fn(), sort_keys=True) + "\n")
        if route == "/events" and self.telemetry is not None:
            qs = parse_qs(url.query, keep_blank_values=True)
            n = None
            if "n" in qs:
                # Strict: non-integer, negative, or absurdly huge values
                # are a client error, reported as 400 — never an
                # exception in the handler.
                try:
                    n = int(qs["n"][0])
                except ValueError:
                    return 400, "text/plain", "bad ?n= parameter\n"
                if n < 0 or n > EVENTS_TAIL_CAP:
                    return (400, "text/plain",
                            f"?n= must be in [0, {EVENTS_TAIL_CAP}]\n")
            events = self.telemetry.tail(n)
            body = "".join(e.to_json() + "\n" for e in events)
            return 200, "application/x-ndjson", body
        return None


class MonitorServer(HttpTransport):
    """Serve ``/metrics``, ``/snapshot``, ``/events``, ``/healthz``.

    Parameters
    ----------
    metrics:
        A :class:`MetricsRegistry` (or anything with ``snapshot()``).
        Ignored when ``snapshot_fn`` is given.
    telemetry:
        An :class:`~repro.obs.telemetry.EventBus`; ``/events`` returns
        its tail as NDJSON.  Optional — without it ``/events`` is 404.
    snapshot_fn:
        0-arg callable returning the snapshot dict; overrides
        ``metrics`` (e.g. ``Observability.snapshot`` to fold selection
        stats in).
    host / port:
        Bind address.  ``port=0`` picks a free port.
    """

    def __init__(self, *, metrics: Any = None,
                 telemetry: Any = None,
                 snapshot_fn: Callable[[], dict[str, Any]] | None = None,
                 host: str = "127.0.0.1", port: int = 0):
        if snapshot_fn is None and metrics is not None:
            snapshot_fn = metrics.snapshot
        if snapshot_fn is None and telemetry is None:
            raise ValueError(
                "MonitorServer needs metrics, snapshot_fn, or telemetry")
        super().__init__(host=host, port=port, name="repro-monitor")
        self._routes = MonitorRoutes(
            snapshot_fn=snapshot_fn, telemetry=telemetry)

    async def handle(self, method: str, path: str,
                     body: bytes) -> tuple[int, str, str]:
        if method != "GET":
            return 405, "text/plain", "GET required\n"
        return self._routes.handle(path) or (404, "text/plain", "not found\n")

    def start(self) -> "MonitorServer":
        return self.start_background()

    def __enter__(self) -> "MonitorServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
