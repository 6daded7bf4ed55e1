"""Hostile requests against the one HTTP transport, under both servers.

``MonitorServer`` and ``ServeServer`` are both built on
:class:`repro.obs.server.HttpTransport`, so every malformed, oversized
or stalled request must meet the same fate under either: a 400 or a
closed connection, and a server that still answers ``/healthz``.
"""

import socket
import urllib.request

import pytest

from repro.obs import MetricsRegistry, MonitorServer
from repro.obs import server as transport
from repro.serve import ServeServer

POST = b"POST /v1/jobs HTTP/1.1\r\n"

#: name -> (bytes sent, half-close the socket after sending)
MALFORMED = {
    "garbage request line": (b"\x00\xff\xfe garbage\r\n\r\n", False),
    "two-token request line": (b"GET /healthz\r\n\r\n", False),
    "huge Content-Length": (POST + b"Content-Length: 99999999999\r\n\r\n", False),
    "negative Content-Length": (POST + b"Content-Length: -5\r\n\r\n", False),
    "non-numeric Content-Length": (POST + b"Content-Length: abc\r\n\r\n", False),
    "200 header lines": (b"GET /healthz HTTP/1.1\r\n" + b"X-A: b\r\n" * 200
                         + b"\r\n", False),
    "200 kB request line": (b"GET /" + b"a" * 200_000 + b" HTTP/1.1\r\n\r\n",
                            False),
    "body shorter than Content-Length": (
        POST + b"Content-Length: 50\r\n\r\nabc", True),
    "chunked transfer encoding": (
        POST + b"Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        False),
}

#: Clients that never finish their request: only the read deadline ends them.
STALLED = {
    "idle connection": b"",
    "half a header line": b"GET /healthz HTTP/1.1\r\nHos",
}


@pytest.fixture(params=["monitor", "serve"])
def server(request, monkeypatch):
    monkeypatch.setattr(transport, "READ_DEADLINE", 0.3)
    if request.param == "monitor":
        srv = MonitorServer(metrics=MetricsRegistry()).start()
    else:
        srv = ServeServer(workers=0).start_background()
    yield srv
    srv.stop()


def _exchange(srv, payload: bytes, half_close: bool = False) -> str:
    """Status line the server answers with; "" when it just closes."""
    with socket.create_connection((srv.host, srv.port), timeout=5.0) as sock:
        try:
            sock.sendall(payload)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            data = b""
            while chunk := sock.recv(65536):
                data += chunk
        except ConnectionError:  # reset while we were still sending
            return ""
    return data.split(b"\r\n", 1)[0].decode("latin-1")


def _healthy(srv) -> bool:
    with urllib.request.urlopen(srv.url + "/healthz", timeout=5.0) as resp:
        return resp.status == 200


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_request_is_400_or_close(server, name):
    payload, half_close = MALFORMED[name]
    status = _exchange(server, payload, half_close)
    assert status in ("", "HTTP/1.1 400 Bad Request"), status
    assert _healthy(server)


@pytest.mark.parametrize("name", sorted(STALLED))
def test_stalled_client_is_closed_by_the_read_deadline(server, name):
    # recv() returning b"" inside the 5 s socket timeout *is* the close.
    assert _exchange(server, STALLED[name]) == ""
    assert _healthy(server)


def test_non_get_on_monitoring_routes_is_405(server):
    status = _exchange(server, b"DELETE /metrics HTTP/1.1\r\n\r\n")
    assert status == "HTTP/1.1 405 Method Not Allowed"
