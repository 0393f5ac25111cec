"""Structured service errors: one taxonomy for the wire, the CLI and logs.

Every failed request is answered with::

    {"ok": false, "error": {"code": "...", "message": "...", "retryable": bool}}

``code`` is a stable machine-readable identifier (the taxonomy below),
``retryable`` tells a well-behaved client whether re-sending the *same*
request can succeed later (overload, a draining server) or is pointless
(malformed input, contract violations).  ``retry_after_ms`` is
attached to shed responses as a backoff hint.

Codes:

================  =========  =============================================
code              retryable  meaning
================  =========  =============================================
``bad-request``   no         unparseable line / not a JSON object
``unknown-op``    no         ``op`` is not part of the protocol
``invalid-request`` no       parameters violate the stream contract
                             (time backwards, unknown uid, bad size)
``duplicate-uid`` no         a job with this uid was already submitted —
                             a *redo* of an acked submit; clients replaying
                             after a reconnect treat this as success
``overloaded``    yes        load shedding: in-flight/backlog threshold
                             exceeded; retry after ``retry_after_ms``
``line-too-long`` no         request exceeded the server's line limit
``idle-timeout``  no         connection closed after a read timeout
``storage-error`` no         the write-ahead log could not persist the
                             event; the server drains (fail-stop)
``draining``      yes        server is shutting down gracefully; retry
                             against a restarted instance
================  =========  =============================================

The full semantics are documented in ``docs/operations.md``.
"""

from __future__ import annotations

__all__ = ["ServiceError", "OverloadError", "error_payload"]


#: every known code mapped to its default retryability
ERROR_CODES: dict[str, bool] = {
    "bad-request": False,
    "unknown-op": False,
    "invalid-request": False,
    "duplicate-uid": False,
    "overloaded": True,
    "line-too-long": False,
    "idle-timeout": False,
    "storage-error": False,
    "draining": True,
}


def error_payload(code: str, message: str, **extra: object) -> dict:
    """The wire form of one error: ``{"code", "message", "retryable", ...}``."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown service error code {code!r}")
    payload: dict = {"code": code, "message": message, "retryable": ERROR_CODES[code]}
    payload.update(extra)
    return payload


class ServiceError(Exception):
    """A request failure carrying its wire representation."""

    def __init__(self, code: str, message: str, **extra: object) -> None:
        super().__init__(message)
        self.code = code
        self.payload = error_payload(code, message, **extra)

    @property
    def retryable(self) -> bool:
        return bool(self.payload["retryable"])

    def to_wire(self) -> dict:
        """The full failed-response document."""
        return {"ok": False, "error": dict(self.payload)}


class OverloadError(ServiceError):
    """The load-shedding guard rejected a request (always retryable)."""

    def __init__(self, message: str, *, retry_after_ms: float = 50.0) -> None:
        super().__init__("overloaded", message, retry_after_ms=retry_after_ms)
