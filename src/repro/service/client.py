"""Client for the campaign daemon's Unix-socket HTTP API.

Thin stdlib wrapper (``http.client`` with a UDS-connecting socket) used
by ``repro submit`` / ``repro status`` and the tests.  Every method
raises :class:`~repro.errors.ServiceError` when the daemon is
unreachable or answers with an error document; admission refusals come
back as the sharper :class:`~repro.errors.AdmissionError` so callers
can distinguish "retry later" from "fix your request"
(:class:`~repro.errors.ConfigError`), and shed requests as
:class:`~repro.errors.OverloadError` carrying the daemon's
``Retry-After`` hint.

Retries are governed by a frozen :class:`ClientPolicy` and are
deliberately narrow: only :class:`~repro.errors.OverloadError` (the
daemon said "come back later" with 429/503) and connection refusal (no
daemon — one may be restarting) are retryable, and a POST submit is
retried **only** when the spec carries a ``submission_key``, because
without the idempotency token a retried submit whose first ACK was lost
could land the campaign twice.  Backoff is deterministic capped
exponential — no jitter, so tests and drills replay identically.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..errors import (
    AdmissionError,
    ConfigError,
    DeadlineExpired,
    OverloadError,
    ServiceError,
)
from .daemon import default_socket_path
from .spec import CampaignSpec, spec_to_dict

__all__ = ["ClientPolicy", "ServiceClient"]

#: Error kinds the daemon names -> the exception class re-raised here.
_ERROR_KINDS = {
    "AdmissionError": AdmissionError,
    "ConfigError": ConfigError,
    "OverloadError": OverloadError,
    "ServiceError": ServiceError,
}

#: Campaign states past which ``wait`` stops polling.
_TERMINAL_STATES = ("done", "failed", "expired", "quarantined")

#: Longest one long-poll of ``wait`` asks the daemon to park (s); it is
#: also held under half the request timeout, so the socket never times
#: out on a parked request.
_LONG_POLL_S = 10.0


@dataclass(frozen=True)
class ClientPolicy:
    """Timeouts and retry behaviour of one :class:`ServiceClient`.

    * ``connect_timeout_s``/``request_timeout_s`` — socket budgets for
      reaching the daemon and for one full request;
    * ``retries`` — attempts *after* the first on a retryable failure
      (shed with 429/503, or connection refused); 0 = never retry;
    * ``backoff_base_s``/``backoff_factor``/``backoff_max_s`` — the
      deterministic capped exponential delay between attempts.  A
      daemon-supplied ``Retry-After`` takes precedence when larger.
    """

    connect_timeout_s: float = 5.0
    request_timeout_s: float = 30.0
    retries: int = 0
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 1.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigError(f"retries {self.retries} must be >= 0")
        if self.backoff_base_s <= 0 or self.backoff_factor < 1.0 \
                or self.backoff_max_s < self.backoff_base_s:
            raise ConfigError("client backoff parameters are inconsistent")

    def backoff_s(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (0-based): capped exponential."""
        return min(self.backoff_base_s * self.backoff_factor ** attempt,
                   self.backoff_max_s)


class _UnixHTTPConnection(http.client.HTTPConnection):
    """``http.client`` over an ``AF_UNIX`` path instead of host:port."""

    def __init__(self, path: str, timeout: float = 30.0,
                 connect_timeout: Optional[float] = None) -> None:
        super().__init__("localhost", timeout=timeout)
        self._path = path
        self._connect_timeout = (connect_timeout if connect_timeout
                                 is not None else timeout)

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self._connect_timeout)
        try:
            sock.connect(self._path)
        except OSError as exc:
            sock.close()
            error = ServiceError(
                f"no campaign daemon on {self._path} ({exc}); "
                f"start one with: repro serve")
            # Tagged so the retry loop can tell "nobody listening (a
            # daemon may be restarting)" from every other failure.
            error.unreachable = True  # type: ignore[attr-defined]
            raise error from exc
        sock.settimeout(self.timeout)
        self.sock = sock


def _is_retryable(exc: ServiceError) -> bool:
    """Shed by the daemon, or nobody listening — nothing else."""
    return isinstance(exc, OverloadError) \
        or getattr(exc, "unreachable", False)


class ServiceClient:
    """One daemon endpoint, addressed by its socket path.

    ``policy`` (a :class:`ClientPolicy`) governs timeouts and retries;
    the legacy ``timeout`` argument still sets the request budget for
    callers that predate the policy object.
    """

    def __init__(self, socket_path: Optional[str] = None,
                 timeout: float = 30.0,
                 policy: Optional[ClientPolicy] = None) -> None:
        self.socket_path = socket_path or default_socket_path()
        self.policy = (policy if policy is not None
                       else ClientPolicy(request_timeout_s=timeout))
        self.timeout = self.policy.request_timeout_s
        #: Retry accounting across this client's lifetime (read by the
        #: chaos drills and benchmarks).
        self.retries_used = 0

    # -- plumbing ---------------------------------------------------------

    def _request_once(self, method: str, path: str,
                      body: Optional[Dict[str, Any]] = None) -> Any:
        conn = _UnixHTTPConnection(
            self.socket_path, timeout=self.policy.request_timeout_s,
            connect_timeout=self.policy.connect_timeout_s)
        try:
            payload = (json.dumps(body, sort_keys=True).encode()
                       if body is not None else None)
            headers = ({"Content-Type": "application/json"}
                       if payload is not None else {})
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except ServiceError:
                raise
            except OSError as exc:
                raise ServiceError(
                    f"campaign daemon on {self.socket_path} did not "
                    f"answer: {exc}") from exc
            content_type = response.headers.get("Content-Type", "")
            if "json" in content_type:
                try:
                    data = json.loads(raw.decode() or "null")
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise ServiceError(
                        f"daemon answered non-JSON to {method} {path}") \
                        from exc
            else:
                data = raw.decode()
            if response.status >= 400:
                retry_after = response.headers.get("Retry-After")
                if isinstance(data, dict):
                    kind = _ERROR_KINDS.get(str(data.get("kind")),
                                            ServiceError)
                    message = str(data.get("error",
                                           f"HTTP {response.status}"))
                    if kind is OverloadError:
                        hint = data.get("retry_after_s", retry_after)
                        raise OverloadError(
                            message,
                            retry_after_s=float(hint) if hint else 1.0)
                    raise kind(message)
                raise ServiceError(f"{method} {path} failed: "
                                   f"HTTP {response.status}")
            return data
        finally:
            conn.close()

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 retryable: Optional[bool] = None) -> Any:
        """One wire call through the retry policy.

        ``retryable=None`` (the default) retries GETs and refuses to
        retry anything else — POSTs pass an explicit verdict, because a
        retried submit is only safe under an idempotency key.
        """
        if retryable is None:
            retryable = method == "GET"
        attempts = self.policy.retries if retryable else 0
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, body)
            except ServiceError as exc:
                if attempt >= attempts or not _is_retryable(exc):
                    raise
                delay = self.policy.backoff_s(attempt)
                if isinstance(exc, OverloadError):
                    delay = max(delay, exc.retry_after_s)
                time.sleep(delay)
                self.retries_used += 1
                attempt += 1

    # -- API --------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        """Liveness probe; raises if no daemon answers."""
        return self._request("GET", "/v1/ping")

    def submit(self, spec: CampaignSpec) -> str:
        """Submit one campaign; returns its id (== the journaled run id).

        Retried under the client policy only when the spec carries a
        ``submission_key`` — the daemon's idempotency map then makes
        the retries exactly-once (a duplicate answer carries the
        original id).
        """
        return self.submit_payload(spec_to_dict(spec))

    def submit_payload(self, payload: Dict[str, Any]) -> str:
        """Submit an already-serialized spec document (``--spec file``)."""
        retryable = payload.get("submission_key") is not None
        answer = self._request("POST", "/v1/campaigns", payload,
                               retryable=retryable)
        return str(answer["id"])

    def campaigns(self) -> List[Dict[str, Any]]:
        """Status rows of every campaign the daemon knows."""
        return list(self._request("GET", "/v1/campaigns")["campaigns"])

    def campaign(self, campaign_id: str,
                 wait: Optional[float] = None) -> Dict[str, Any]:
        """One campaign's status row.

        With ``wait`` (seconds) the daemon long-polls: it answers once
        the campaign is terminal or ``wait`` elapses, whichever is first.
        """
        query = "" if wait is None else f"?wait={wait:.3f}"
        return self._request("GET", f"/v1/campaigns/{campaign_id}{query}")

    def report(self, campaign_id: str, fmt: str = "text") -> str:
        """A finished campaign's rendered report (text or export JSON)."""
        return str(self._request(
            "GET", f"/v1/campaigns/{campaign_id}/report?format={fmt}"))

    def status(self) -> Dict[str, Any]:
        """The scheduler/tenant/dedup/cache snapshot."""
        return self._request("GET", "/v1/status")

    def shutdown(self) -> None:
        """Ask the daemon to stop gracefully (journals stay resumable)."""
        self._request("POST", "/v1/shutdown")

    def wait(self, campaign_id: str, timeout: float = 300.0,
             poll_s: float = 0.05) -> Dict[str, Any]:
        """Block until a campaign reaches a terminal state.

        Terminal means ``done``, ``failed``, ``expired`` (the spec's
        deadline lapsed; raised as :class:`DeadlineExpired` so callers
        cannot mistake it for success) or ``quarantined`` (the
        supervisor exhausted its restart budget) — waiting on a
        quarantined campaign would otherwise spin until timeout.

        Each poll is a long-poll (``campaign(..., wait=...)``, at most
        10 s and under half the request timeout): the daemon answers
        when the campaign finishes, not at the client's next poll.
        Polls start at least ``poll_s`` apart, a spacing that backs off
        exponentially to 1 s; a long-poll that parked that long is
        followed at once.  A daemon that answers at once — one that
        ignores ``wait``, or one with every long-poll slot taken —
        therefore gets paced polls.  Shed polls (``OverloadError``,
        e.g. a draining daemon's 503) honour the daemon's
        ``Retry-After`` — a thousand waiting clients must not be a
        busy-loop storm.
        """
        deadline = time.monotonic() + timeout
        cap = min(_LONG_POLL_S, self.policy.request_timeout_s / 2)
        delay = poll_s
        while True:
            started = time.monotonic()
            try:
                row = self.campaign(
                    campaign_id, wait=max(0.0, min(deadline - started, cap)))
            except OverloadError as exc:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(min(max(delay, exc.retry_after_s), 2.0))
                delay = min(delay * 2.0, 1.0)
                continue
            state = row.get("state")
            if state == "expired":
                raise DeadlineExpired(
                    f"campaign {campaign_id} expired: "
                    f"{row.get('error', 'deadline lapsed')}",
                    campaign_id=campaign_id,
                    deadline_s=float(row.get("deadline_s") or 0.0))
            if state in _TERMINAL_STATES:
                return row
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"campaign {campaign_id} did not finish within "
                    f"{timeout:g}s (state {row.get('state')!r})")
            time.sleep(max(0.0, delay - (time.monotonic() - started)))
            delay = min(delay * 2.0, 1.0)
