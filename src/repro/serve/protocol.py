"""Wire protocol for the serving layer: newline-delimited JSON.

One request per line, one response per line; requests carry a client
``id`` echoed in the response so responses may stream back out of order
(the stdio server completes fast requests while a slow solve is still
running). The full schema catalogue lives in ``docs/serving.md``; this
module is the single source of truth for operation names, error codes
and the exception-to-code mapping, so the docs, the server and the
in-process client cannot drift apart.

Response envelope::

    {"id": <echoed>, "ok": true,  "result": {...}}
    {"id": <echoed>, "ok": false, "error": {"code": "...", "message": "..."}}

Two anytime extensions (``docs/serving.md`` documents both):

* **partial results** — a failure whose exception carries a payload on
  its ``partial`` attribute (deadline expiry or a spent ``time_budget``
  on a resumable solve) keeps the completed work:
  the error object gains ``"partial": true`` and the envelope a
  ``"result"`` with the best-so-far solution payload.
* **progress events** — while a resumable solve runs with
  ``"progress": true``, the server streams
  ``{"id": <echoed>, "event": "progress", "data": {...}}`` lines before
  the final response. Event lines have no ``"ok"`` key; clients route
  on ``"event"`` and keep waiting for the terminal envelope.
"""

from __future__ import annotations

import json
from typing import Mapping

from repro import errors

#: Every operation the server understands (``docs/serving.md`` documents each).
OPERATIONS = (
    "ping",
    "register_graph",
    "unregister_graph",
    "solve",
    "count",
    "bounds",
    "warm",
    "feed_open",
    "feed_push",
    "feed_flush",
    "feed_solution",
    "feed_close",
    "stats",
    "shutdown",
)

#: Machine-readable error codes carried in failure responses.
ERROR_CODES = (
    "INVALID_ARGUMENT",
    "PROTOCOL_ERROR",
    "UNKNOWN_GRAPH",
    "UNKNOWN_FEED",
    "OVERLOADED",
    "DEADLINE_EXCEEDED",
    "CANCELLED",
    "OUT_OF_TIME",
    "OUT_OF_MEMORY",
    "SOLUTION_ERROR",
    "INTERNAL",
)

#: Exception type -> error code, most specific first (order matters:
#: ``DeadlineExceededError`` subclasses ``OutOfTimeError``).
_ERROR_MAP: tuple[tuple[type[BaseException], str], ...] = (
    (errors.ProtocolError, "PROTOCOL_ERROR"),
    (errors.UnknownGraphError, "UNKNOWN_GRAPH"),
    (errors.UnknownFeedError, "UNKNOWN_FEED"),
    (errors.OverloadedError, "OVERLOADED"),
    (errors.DeadlineExceededError, "DEADLINE_EXCEEDED"),
    (errors.RequestCancelledError, "CANCELLED"),
    (errors.OutOfTimeError, "OUT_OF_TIME"),
    (errors.OutOfMemoryError, "OUT_OF_MEMORY"),
    (errors.SolutionError, "SOLUTION_ERROR"),
    (errors.InvalidParameterError, "INVALID_ARGUMENT"),
    (errors.GraphError, "INVALID_ARGUMENT"),
)

#: Error code -> exception type raised by the in-process client.
CODE_TO_ERROR: dict[str, type[Exception]] = {
    "PROTOCOL_ERROR": errors.ProtocolError,
    "UNKNOWN_GRAPH": errors.UnknownGraphError,
    "UNKNOWN_FEED": errors.UnknownFeedError,
    "OVERLOADED": errors.OverloadedError,
    "DEADLINE_EXCEEDED": errors.DeadlineExceededError,
    "CANCELLED": errors.RequestCancelledError,
    "OUT_OF_TIME": errors.OutOfTimeError,
    "OUT_OF_MEMORY": errors.OutOfMemoryError,
    "SOLUTION_ERROR": errors.SolutionError,
    "INVALID_ARGUMENT": errors.InvalidParameterError,
    "INTERNAL": errors.ServeError,
}


def error_code_for(exc: BaseException) -> str:
    """Map an exception to its wire error code (``INTERNAL`` fallback)."""
    for exc_type, code in _ERROR_MAP:
        if isinstance(exc, exc_type):
            return code
    return "INTERNAL"


def ok_response(request_id: object, result: Mapping) -> dict:
    """Build a success envelope echoing ``request_id``."""
    return {"id": request_id, "ok": True, "result": dict(result)}


def error_response(request_id: object, exc: BaseException) -> dict:
    """Build a failure envelope from an exception.

    When the exception carries a wire-ready payload mapping on its
    ``partial`` attribute (anytime solvers and the preemptive
    scheduler attach one at deadline expiry), the envelope keeps the
    completed work: ``error.partial`` is set to ``true`` and the
    payload rides in ``result`` exactly like a success payload.
    """
    envelope = {
        "id": request_id,
        "ok": False,
        "error": {"code": error_code_for(exc), "message": str(exc)},
    }
    partial = getattr(exc, "partial", None)
    if isinstance(partial, Mapping):
        envelope["error"]["partial"] = True
        envelope["result"] = dict(partial)
    return envelope


def progress_event(request_id: object, data: Mapping) -> dict:
    """Build a streamed progress event for an in-flight request.

    Events are interim lines (no ``ok`` key): the request stays
    in-flight until its terminal success/failure envelope arrives.
    """
    return {"id": request_id, "event": "progress", "data": dict(data)}


def encode(message: Mapping) -> str:
    """Serialise one protocol message to a single NDJSON line."""
    return json.dumps(message, separators=(",", ":"), sort_keys=True)


def decode_request(line: str) -> dict:
    """Parse one NDJSON request line into a validated request dict.

    Raises :class:`~repro.errors.ProtocolError` on malformed JSON (also
    an over-long integer or over-deep nesting), a non-object payload, a
    missing/unknown ``op``, or a non-scalar ``id``. Field-level
    validation beyond that is per-operation and happens in the handlers.
    """
    try:
        message = json.loads(line)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise errors.ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise errors.ProtocolError(
            f"request must be a JSON object, got {type(message).__name__}"
        )
    op = message.get("op")
    if op is None:
        raise errors.ProtocolError("request is missing the 'op' field")
    if op not in OPERATIONS:
        raise errors.ProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(OPERATIONS)}"
        )
    request_id = message.get("id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise errors.ProtocolError(
            f"'id' must be a string or integer, got {type(request_id).__name__}"
        )
    return message


def is_int(value: object) -> bool:
    """True for real integers only — JSON booleans do not count.

    ``isinstance(True, int)`` holds in Python, so every integer field
    check must exclude ``bool`` explicitly or ``true``/``false`` would
    silently coerce to 1/0 (e.g. an edge ``[true, false]`` becoming
    ``(1, 0)``) instead of failing with ``PROTOCOL_ERROR``.
    """
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: object) -> bool:
    """True for real int/float values (bools excluded, as in :func:`is_int`)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def require(message: Mapping, field: str, types: type | tuple, what: str) -> object:
    """Fetch a required request field with a typed, uniform error.

    When ``types`` admits ``int``, booleans are rejected (see
    :func:`is_int`).
    """
    value = message.get(field)
    if value is None:
        raise errors.ProtocolError(f"{message.get('op')} requires {field!r} ({what})")
    admits_int = types is int or (isinstance(types, tuple) and int in types)
    bad_bool = isinstance(value, bool) and admits_int and bool not in (
        types if isinstance(types, tuple) else (types,)
    )
    if bad_bool or not isinstance(value, types):
        raise errors.ProtocolError(
            f"{field!r} must be {what}, got {type(value).__name__}"
        )
    return value
