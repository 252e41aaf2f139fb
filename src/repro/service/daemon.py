"""``repro serve``: the campaign daemon and its wire API.

A long-running process that accepts concurrent campaign submissions
over a **local Unix-domain socket** speaking plain HTTP/JSON — stdlib
only, no ports, filesystem permissions as the auth boundary.  Handler
threads enqueue work; one scheduler thread drives
:class:`~repro.service.service.CampaignService.step` so all execution
stays serialized and deterministic.

Endpoints (all JSON; errors are ``{"error": ..., "kind": ...}``):

====== ============================== ===========================================
POST   ``/v1/campaigns``              body = CampaignSpec JSON; 202 ``{"id"}``,
                                      200 ``{"id", "duplicate": true}`` when the
                                      spec's ``submission_key`` was seen before,
                                      409 on admission refusal, 400 on a bad
                                      spec, 429 + ``Retry-After`` when shedding
                                      under load, 503 + ``Retry-After`` while
                                      draining
GET    ``/v1/campaigns``              the status rows of the live campaigns
                                      and of the last retired ones
GET    ``/v1/campaigns/<id>``         one campaign's status row;
                                      ``?wait=S`` long-polls: answers when
                                      the campaign is terminal or after S
                                      seconds (at most 60), 503 +
                                      ``Retry-After`` if the daemon starts
                                      draining first
GET    ``/v1/campaigns/<id>/report``  finished campaign's report;
                                      ``?format=text|json`` (default text)
GET    ``/v1/status``                 scheduler/tenant/dedup/cache/wire
                                      snapshot
GET    ``/v1/ping``                   liveness/readiness probe: ``{"ok":
                                      true, "pid": N, "state": "ready" |
                                      "degraded" | "draining", "uptime_s"}``
POST   ``/v1/shutdown``               graceful stop (journals stay resumable)
====== ============================== ===========================================

A POST's body is read in full before it is routed, so no answer leaves
it unread on the connection.  A body over :data:`MAX_BODY_BYTES` is
refused with 413 and a ``Content-Length`` that is not a non-negative
integer with 400; both close the connection.

Connections: a client keeps its connection open (HTTP/1.1 keep-alive)
and the daemon serves each connection on one handler thread, request
after request, so a client costs one connect and one thread start, not
one per request.  A connection idle for :data:`IDLE_TIMEOUT_S` between
requests is closed and its thread ends; clients reuse a connection only
while it has been idle for less than half of that.  429 and 503 answers
close their connection, and stopping the daemon closes every idle one.
The status document's ``wire`` block counts accepted connections and
served requests.

Overload behaviour: connections are bounded by
:data:`MAX_HANDLER_THREADS` (one thread each; ThreadingMixIn would
otherwise spawn threads without limit), and submissions shed with 429 +
``Retry-After`` *before* the admission wall via
:meth:`CampaignService.check_overload` — see
:class:`~repro.service.scheduler.OverloadPolicy`.  At most
:data:`MAX_PARKED_WAITS` long-polls park a handler thread at once, so
submissions always find a free one; a long-poll over that cap is
answered at once, as a plain poll.

Durability: SIGTERM/SIGINT (or ``/v1/shutdown``) stop the scheduler
loop at the next cell boundary, release every ACTIVE claim and leave
all unfinished journals open — the next ``repro serve`` on the same
runs directory recovers and finishes them byte-identically.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from socketserver import ThreadingMixIn
from typing import Any, Dict, Optional, Set
from urllib.parse import parse_qs, urlparse

from ..errors import AdmissionError, ConfigError, OverloadError, ServiceError
from ..harness.journal.registry import default_runs_dir
from ..harness.report import render_result_set
from .campaign import TERMINAL_STATES, Campaign
from .service import CampaignService
from .spec import spec_from_dict

__all__ = ["default_socket_path", "CampaignDaemon", "IDLE_TIMEOUT_S",
           "MAX_BODY_BYTES", "MAX_HANDLER_THREADS", "MAX_PARKED_WAITS"]

#: How long the scheduler thread dozes (s) when the queue is empty.
_IDLE_POLL_S = 0.05

#: How often (s) the wire listener checks for a stop request; ``close()``
#: waits at most this long for it (``serve_forever``'s default is 0.5).
_LISTENER_POLL_S = 0.02

#: Open connections the daemon will serve, one handler thread each;
#: connections beyond this are answered with a raw 429 and closed
#: instead of spawning an unbounded thread per connection
#: (ThreadingMixIn's default behaviour under a submission storm).
MAX_HANDLER_THREADS = 32

#: Seconds a connection may sit idle between requests before the daemon
#: closes it, freeing its handler thread; clients stop reusing one after
#: half of this.
IDLE_TIMEOUT_S = 5.0

#: Largest POST body (bytes) the daemon reads; a campaign spec is a few
#: hundred bytes, so anything near this is not one.
MAX_BODY_BYTES = 1 << 20

#: Long-polls (``GET /v1/campaigns/<id>?wait=S``) that may park a
#: handler thread at once — well below :data:`MAX_HANDLER_THREADS`, so
#: parked waiters never starve submissions.
MAX_PARKED_WAITS = 16

#: Longest one long-poll parks (s); a larger ``wait`` is clamped to it.
_MAX_WAIT_S = 60.0

#: The canned response for connections shed at the concurrency bound —
#: written without ever entering the HTTP handler machinery.
_THREAD_SHED_RESPONSE = (
    b"HTTP/1.1 429 Too Many Requests\r\n"
    b"Content-Type: application/json\r\n"
    b"Retry-After: 1\r\n"
    b"Content-Length: 86\r\n"
    b"Connection: close\r\n"
    b"\r\n"
    b'{"error": "daemon handler threads exhausted; retry shortly", '
    b'"kind": "OverloadError"}\n')


def _wait_seconds(query: str) -> float:
    """The ``wait`` query parameter in seconds (0 when absent), clamped
    to :data:`_MAX_WAIT_S`; anything but a non-negative number is a
    :class:`ConfigError` (400)."""
    raw = (parse_qs(query).get("wait") or ["0"])[0]
    try:
        value = float(raw)
        if value >= 0:  # NaN fails this too
            return min(value, _MAX_WAIT_S)
    except ValueError:
        pass
    raise ConfigError(f"wait={raw!r} is not a non-negative number of "
                      f"seconds")


def default_socket_path() -> str:
    """``$REPRO_SERVICE_SOCKET``, else ``service.sock`` in the runs dir."""
    explicit = os.environ.get("REPRO_SERVICE_SOCKET")
    if explicit:
        return explicit
    return os.path.join(default_runs_dir(), "service.sock")


class _UnixHTTPServer(ThreadingMixIn, HTTPServer):
    """HTTPServer bound to a Unix-domain socket path.

    Each connection is served on one handler thread for as long as it
    stays open.  Connections are bounded by :data:`MAX_HANDLER_THREADS`:
    one arriving with every slot taken is shed with a canned 429 +
    ``Retry-After`` instead of spawning yet another thread — under a
    submission storm an unbounded ThreadingMixIn would otherwise grow
    one thread per connection until the process keels over.
    """

    address_family = socket.AF_UNIX
    daemon_threads = True
    allow_reuse_address = False
    #: Pending connections the kernel queues before ``accept``.  A
    #: connect past it fails with EAGAIN, which a client cannot tell
    #: from "no daemon", so the queue is kept well above the handler
    #: cap; the cap and its canned 429 bound concurrency instead.
    request_queue_size = 4 * MAX_HANDLER_THREADS

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self._handler_slots = threading.Semaphore(MAX_HANDLER_THREADS)
        #: Connections being served, so :meth:`close_connections` can
        #: end them; guarded, with the request count, by ``_wire_lock``.
        self._open: Set[socket.socket] = set()
        self._wire_lock = threading.Lock()
        self.connections = 0  # accepted (written by the listener only)
        self.requests = 0
        super().__init__(*args, **kwargs)

    def server_bind(self) -> None:
        # HTTPServer.server_bind assumes an (host, port) address; a UDS
        # path has neither, so bind directly and fake the name fields
        # BaseHTTPRequestHandler's version string plumbing reads.
        os.makedirs(os.path.dirname(self.server_address) or ".",
                    exist_ok=True)
        self.socket.bind(self.server_address)
        self.server_name = self.server_address
        self.server_port = 0

    def process_request(self, request, client_address) -> None:
        self.connections += 1
        if not self._handler_slots.acquire(blocking=False):
            try:
                request.sendall(_THREAD_SHED_RESPONSE)
            except OSError:
                pass
            self.shutdown_request(request)
            return
        with self._wire_lock:
            self._open.add(request)
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._release(request)
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._release(request)

    def _release(self, request) -> None:
        with self._wire_lock:
            self._open.discard(request)
        self._handler_slots.release()

    def count_request(self) -> None:
        with self._wire_lock:
            self.requests += 1

    def wire_payload(self) -> Dict[str, int]:
        """The status document's ``wire`` block."""
        with self._wire_lock:
            return {"connections": self.connections,
                    "open": len(self._open), "requests": self.requests}

    def close_connections(self) -> None:
        """End every open connection: shut its read side, so an idle
        handler reads end-of-file and closes it, and a busy one closes
        it after the response it is writing."""
        with self._wire_lock:
            connections = list(self._open)
        for request in connections:
            try:
                request.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already closed by its handler


class _Handler(BaseHTTPRequestHandler):
    """One wire connection, request after request; routing is a flat
    match on (method, path)."""

    #: Injected by CampaignDaemon before the server starts.
    daemon_ref: "CampaignDaemon"
    protocol_version = "HTTP/1.1"
    #: Socket timeout: an idle connection closes after this long.
    timeout = IDLE_TIMEOUT_S

    # -- plumbing ---------------------------------------------------------

    def address_string(self) -> str:  # pragma: no cover - log formatting
        return "local"

    def log_message(self, format: str, *args: Any) -> None:
        # The daemon is quiet by default; the CLI surfaces lifecycle
        # events itself and per-request logs would interleave threads.
        pass

    def _send_json(self, code: int, payload: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = (json.dumps(payload, sort_keys=True, separators=(",", ":"))
                + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, code: int, text: str) -> None:
        body = text.encode()
        self.send_response(code)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, exc: Exception) -> None:
        self._send_json(code, {"error": str(exc),
                               "kind": type(exc).__name__})

    def _overload(self, code: int, message: str, hint: float) -> None:
        """429/503 with the ``Retry-After`` hint in header and body; the
        connection closes after it, so the client retries on a new one.
        """
        self._send_json(code, {"error": message, "kind": "OverloadError",
                               "retry_after_s": hint},
                        headers={"Retry-After": str(int(hint)),
                                 "Connection": "close"})

    def _take_body(self) -> Optional[bytes]:
        """The request's body, read once and bounded before routing, so
        that no answer leaves it on the connection to be parsed as the
        next request.  ``None`` after a 400/413 that closes the
        connection: the body's extent is unknown or too large to read.
        """
        raw = (self.headers.get("Content-Length") or "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            code, message = 400, (f"Content-Length {raw!r} is not a "
                                  f"non-negative integer")
        elif int(raw) > MAX_BODY_BYTES:
            code, message = 413, (f"request body of {raw} bytes exceeds "
                                  f"the {MAX_BODY_BYTES}-byte limit")
        else:
            return self.rfile.read(int(raw))
        self._send_json(code, {"error": message, "kind": "ConfigError"},
                        headers={"Connection": "close"})
        return None

    @staticmethod
    def _read_body(raw: bytes) -> Dict[str, Any]:
        if not raw:
            raise ConfigError("request carries no JSON body")
        try:
            data = json.loads(raw.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"request body is not valid JSON: {exc}") \
                from exc
        if not isinstance(data, dict):
            raise ConfigError("request body must be a JSON object")
        return data

    # -- routes -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self.server.count_request()
        daemon = self.daemon_ref
        service = daemon.service
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["v1", "ping"]:
                self._send_json(200, daemon.ping_payload())
            elif parts == ["v1", "status"]:
                self._send_json(200, dict(service.status_payload(),
                                          wire=self.server.wire_payload()))
            elif parts == ["v1", "campaigns"]:
                self._send_json(200, {"campaigns": service.campaign_rows()})
            elif len(parts) == 3 and parts[:2] == ["v1", "campaigns"]:
                wait_s = _wait_seconds(url.query)
                campaign = (daemon.wait_retired(parts[2], wait_s) if wait_s
                            else service.campaign(parts[2]))
                if (wait_s and daemon.draining
                        and campaign.state not in TERMINAL_STATES):
                    self._overload(
                        503, "daemon is draining; the campaign resumes "
                             "under the next daemon on this socket",
                        service.retry_after_s())
                    return
                self._send_json(200, campaign.status_payload())
            elif (len(parts) == 4 and parts[:2] == ["v1", "campaigns"]
                    and parts[3] == "report"):
                fmt = (parse_qs(url.query).get("format") or ["text"])[0]
                results = service.result_set(parts[2])
                if fmt == "json":
                    from ..harness.export import result_set_to_json
                    self._send_text(200, result_set_to_json(results) + "\n")
                else:
                    self._send_text(200, render_result_set(results) + "\n")
            else:
                self._send_json(404, {"error": f"no route {url.path!r}",
                                      "kind": "ServiceError"})
        except ConfigError as exc:
            self._error(400, exc)
        except ServiceError as exc:
            self._error(404, exc)
        except Exception as exc:  # pragma: no cover - handler backstop
            self._error(500, exc)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self.server.count_request()
        body = self._take_body()
        if body is None:
            return
        daemon = self.daemon_ref
        service = daemon.service
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        try:
            if parts == ["v1", "campaigns"]:
                if daemon.draining:
                    # A draining daemon will never schedule new work;
                    # accepting it would strand the journal until some
                    # later daemon life recovers it.  Refuse loudly.
                    self._overload(
                        503, "daemon is draining and accepts no new "
                             "campaigns; retry against the next daemon "
                             "on this socket",
                        service.retry_after_s())
                    return
                service.check_overload()  # raises OverloadError -> 429
                spec = spec_from_dict(self._read_body(body))
                campaign_id, duplicate = service.submit_idempotent(spec)
                if duplicate:
                    # The submission_key was seen before: answer 200
                    # with the original id — the retried POST converged
                    # instead of duplicating the campaign.
                    self._send_json(200, {"id": campaign_id,
                                          "tenant": spec.tenant,
                                          "priority": spec.priority,
                                          "duplicate": True})
                    return
                daemon.wake()
                self._send_json(202, {"id": campaign_id,
                                      "tenant": spec.tenant,
                                      "priority": spec.priority})
            elif parts == ["v1", "shutdown"]:
                self._send_json(200, {"ok": True, "stopping": True})
                daemon.request_shutdown()
            else:
                self._send_json(404, {"error": f"no route {self.path!r}",
                                      "kind": "ServiceError"})
        except OverloadError as exc:
            self._overload(429, str(exc), exc.retry_after_s)
        except AdmissionError as exc:
            self._error(409, exc)
        except ConfigError as exc:
            self._error(400, exc)
        except ServiceError as exc:
            self._error(500, exc)
        except Exception as exc:  # pragma: no cover - handler backstop
            self._error(500, exc)


class CampaignDaemon:
    """The serving process: wire listener plus the scheduler loop.

    ``serve()`` blocks until a shutdown is requested (signal, endpoint,
    or :meth:`request_shutdown` from another thread), then suspends the
    service — journals stay open and resumable — and removes the
    socket.  Construction binds the socket, so a second daemon on the
    same path fails fast instead of queueing behind the first.
    """

    def __init__(self, service: Optional[CampaignService] = None,
                 socket_path: Optional[str] = None) -> None:
        self.service = service if service is not None else CampaignService()
        self.socket_path = socket_path or default_socket_path()
        if os.path.exists(self.socket_path):
            # A live daemon owns the path; a dead one left it behind.
            if self._path_alive(self.socket_path):
                raise ServiceError(
                    f"a campaign daemon is already serving on "
                    f"{self.socket_path}")
            os.unlink(self.socket_path)
        handler = type("_BoundHandler", (_Handler,), {"daemon_ref": self})
        self.server = _UnixHTTPServer(self.socket_path, handler)
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._parked = 0
        self._parked_lock = threading.Lock()

    @staticmethod
    def _path_alive(path: str) -> bool:
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.settimeout(0.5)
            probe.connect(path)
            return True
        except OSError:
            return False
        finally:
            probe.close()

    # -- lifecycle --------------------------------------------------------

    @property
    def draining(self) -> bool:
        """Whether shutdown was requested (no new campaigns accepted)."""
        return self._stop.is_set()

    def ping_payload(self) -> Dict[str, Any]:
        """Liveness *and* readiness: the ``/v1/ping`` document.

        ``ok`` is pure liveness (the process answered).  ``state``
        grades readiness: ``"ready"`` (serving, healthy),
        ``"degraded"`` (serving, but a campaign is quarantined or the
        cache went read-only under disk pressure) or ``"draining"``
        (shutdown requested, finishing the current cell).
        """
        if self._stop.is_set():
            state = "draining"
        else:
            state = self.service.health_state()
        return {"ok": True, "pid": os.getpid(), "state": state,
                "uptime_s": round(time.time() - self.service.started_at, 3)}

    def wake(self) -> None:
        """Nudge the scheduler loop (a submission just landed)."""
        self._wake.set()

    @property
    def parked(self) -> int:
        """Long-polls parked in :meth:`wait_retired` right now."""
        return self._parked

    def wait_retired(self, campaign_id: str, timeout_s: float) -> Campaign:
        """Park a long-poll until its campaign is terminal, the daemon
        drains or ``timeout_s`` elapses; returns the campaign.

        With :data:`MAX_PARKED_WAITS` waiters already parked the
        campaign is returned at once, as for a plain poll.
        """
        with self._parked_lock:
            full = self._parked >= MAX_PARKED_WAITS
            if not full:
                self._parked += 1
        if full:
            return self.service.campaign(campaign_id)
        try:
            return self.service.wait_retired(campaign_id, timeout_s,
                                             self._stop.is_set)
        finally:
            with self._parked_lock:
                self._parked -= 1

    def request_shutdown(self) -> None:
        """Ask the serve loop to stop at the next cell boundary, and
        wake every parked long-poll (it answers 503)."""
        self._stop.set()
        self._wake.set()
        self.service.wake_waiters()

    def serve(self, install_signals: bool = True) -> int:
        """Run until shutdown; returns the count of recovered campaigns.

        Recovery runs first, so campaigns an earlier daemon life left
        queued resume before any new submission is scheduled.
        """
        recovered = len(self.service.recover())
        listener = threading.Thread(target=self.server.serve_forever,
                                    args=(_LISTENER_POLL_S,),
                                    name="repro-serve-listener",
                                    daemon=True)
        listener.start()
        previous: Dict[int, Any] = {}
        if install_signals:
            for sig in (signal.SIGTERM, signal.SIGINT):
                previous[sig] = signal.signal(
                    sig, lambda *_: self.request_shutdown())
        try:
            while not self._stop.is_set():
                if not self.service.step():
                    self._wake.wait(timeout=_IDLE_POLL_S)
                    self._wake.clear()
        finally:
            if install_signals:
                for sig, old in previous.items():
                    signal.signal(sig, old)
            self.close()
        return recovered

    def close(self) -> None:
        """Stop the listener, close every connection, suspend the
        service, remove the socket."""
        self.server.shutdown()
        self.server.close_connections()
        self.server.server_close()
        self.service.suspend()
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
