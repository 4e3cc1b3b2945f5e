"""Wire protocol for the simulation service: newline-delimited JSON.

One request or response per line, UTF-8, canonically serialized (sorted
keys, compact separators).  Canonical serialization is not cosmetic: a
deduplicated response must be **byte-identical** no matter which client
receives it or whether it was computed, coalesced onto an in-flight
execution, or served from the result cache — tests compare the raw
``result`` bytes across clients, so the encoder must be a pure function
of the payload value.

Request envelope::

    {"id": <client-chosen>, "op": "open|close|ping|sql|mcdb|ensemble|stats",
     "session": "<token or omitted>", ...op-specific fields...}

Response envelope::

    {"id": ..., "ok": true,  "cache": "miss|hit|coalesced|uncached",
     "fingerprint": "<sha256|null>", "result": {...}}
    {"id": ..., "ok": false, "error": {"code": "...", "message": "...",
     "attempts": [...optional retry history...]}}

Error taxonomy
--------------
Machine-readable ``error.code`` values let a client tell "your query is
wrong" from "server overloaded" from "execution failed after retries"
without string matching:

``bad_request``
    Malformed envelope: unparseable JSON, missing/unknown ``op``, or
    op-specific fields of the wrong shape.
``invalid_query``
    The statement or request body is wrong (SQL parse errors, unknown
    tables/columns, malformed MCDB/ensemble specs).  Retrying the same
    request will fail the same way.
``forbidden``
    The request tried to mutate the shared catalog from a session scope
    (sessions may only write their own temp tables).
``unknown_session``
    The ``session`` token does not name an open session.
``overloaded``
    Admission control shed the request (queue full or queue-wait
    timeout).  The server did no work; retry later.
``timeout``
    Every execution attempt exceeded the per-request timeout.
``execution_failed``
    The request was valid but execution failed after exhausting its
    retry budget; ``attempts`` carries the full per-attempt history.
``internal``
    Anything else — a server-side bug, by definition.

Payloads are the run store's codec (:func:`encode_payload`), which
refuses what the store refuses.  Numpy arrays cross the wire losslessly
as ``{"__ndarray__": {"dtype": <.npy descr>, "shape": [...], "data":
<base64>}}`` so a decoded client-side result is byte-identical (dtype,
shape, raw bytes) to the in-process value — :func:`repro.ensemble.store.
result_fingerprint` computed on either side agrees.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Dict, List, Mapping, Optional

from repro.ensemble.store import decode_payload, encode_payload
from repro.errors import (
    CatalogError,
    DesignError,
    QueryError,
    ReproError,
    SchemaError,
    SimulationError,
    VGFunctionError,
)
from repro.faults.retry import TaskFailed, TaskTimeout

#: Protocol revision; servers reject requests from future revisions.
PROTOCOL_VERSION = 1

#: Machine-readable error codes (the closed set documented above).
ERROR_CODES = (
    "bad_request",
    "invalid_query",
    "forbidden",
    "unknown_session",
    "overloaded",
    "timeout",
    "execution_failed",
    "internal",
)

#: Exceptions that mean "the client's request is wrong" — never retried,
#: never reported as a server failure.
CLIENT_ERRORS = (
    QueryError,
    CatalogError,
    SchemaError,
    VGFunctionError,
    DesignError,
)


class ServeError(ReproError):
    """A protocol-level failure with a machine-readable code.

    Raised server-side to short-circuit a request, and re-raised
    client-side when a response carries ``ok: false`` — the ``code``
    and ``attempts`` survive the round trip.
    """

    def __init__(
        self,
        code: str,
        message: str,
        attempts: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown serve error code {code!r}")
        self.code = code
        self.attempts = list(attempts or [])
        super().__init__(message)

    def payload(self) -> Dict[str, Any]:
        """The ``error`` object of an ``ok: false`` response."""
        body: Dict[str, Any] = {"code": self.code, "message": str(self)}
        if self.attempts:
            body["attempts"] = self.attempts
        return body


class Overloaded(ServeError):
    """Admission control rejected the request (explicit load shedding)."""

    def __init__(self, message: str) -> None:
        super().__init__("overloaded", message)


class Forbidden(ServeError):
    """A session tried to write outside its own scope."""

    def __init__(self, message: str) -> None:
        super().__init__("forbidden", message)


class UnknownSession(ServeError):
    """The request named a session token the server does not know."""

    def __init__(self, token: str) -> None:
        super().__init__(
            "unknown_session",
            f"unknown session {token!r}; open one first "
            "(op=open) or omit the token for the public scope",
        )


class BadRequest(ServeError):
    """The request envelope itself is malformed."""

    def __init__(self, message: str) -> None:
        super().__init__("bad_request", message)


def classify_exception(exc: BaseException) -> ServeError:
    """Map an execution-path exception to its protocol error.

    The taxonomy separates the three failure families a client must
    react to differently: fix the query (``invalid_query``/
    ``forbidden``), back off (``overloaded``/``timeout``), or report a
    server fault (``execution_failed``/``internal``).  A terminal
    :class:`TaskFailed` keeps its full attempt history — and collapses
    to ``timeout`` when *every* attempt died of the per-request
    timeout, because "the server never finished" and "the server
    finished and failed" call for different client behaviour.
    """
    if isinstance(exc, ServeError):
        return exc
    if isinstance(exc, TaskFailed):
        attempts = [record.as_dict() for record in exc.attempts]
        timed_out = attempts and all(
            record["error_type"] == TaskTimeout.__name__
            for record in attempts
        )
        code = "timeout" if timed_out else "execution_failed"
        return ServeError(code, str(exc), attempts)
    if isinstance(exc, TaskTimeout):
        return ServeError("timeout", str(exc))
    if isinstance(exc, CLIENT_ERRORS):
        return ServeError(
            "invalid_query", f"{type(exc).__name__}: {exc}"
        )
    if isinstance(exc, SimulationError):
        return ServeError(
            "execution_failed", f"{type(exc).__name__}: {exc}"
        )
    return ServeError("internal", f"{type(exc).__name__}: {exc}")


# -- framing -----------------------------------------------------------------

def encode_message(message: Mapping[str, Any]) -> bytes:
    """Serialize one message to its canonical single-line wire form."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one wire line; raises :class:`BadRequest` on garbage."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequest(f"unparseable message: {exc}") from None
    if not isinstance(message, dict):
        raise BadRequest(
            f"message must be a JSON object, got {type(message).__name__}"
        )
    return message


def fold_seed(namespace: int, seed: int) -> int:
    """Fold a session seed namespace into a request seed.

    Namespace 0 (the default) is the identity — sessions that do not
    ask for isolation share streams, which is what lets identical
    requests from concurrent clients coalesce to one execution.  A
    nonzero namespace derives a disjoint, stable stream family: the mix
    is CRC-32 based (the repo-wide convention for stable digests) so
    any process — server, client, or an in-process parity test — folds
    identically.
    """
    namespace = int(namespace)
    seed = int(seed)
    if namespace == 0:
        return seed
    tag = zlib.crc32(f"serve.namespace:{namespace}:{seed}".encode("utf-8"))
    return (namespace << 32) ^ (seed & 0xFFFFFFFF) ^ tag


__all__ = [
    "BadRequest",
    "CLIENT_ERRORS",
    "ERROR_CODES",
    "Forbidden",
    "Overloaded",
    "PROTOCOL_VERSION",
    "ServeError",
    "UnknownSession",
    "classify_exception",
    "decode_message",
    "decode_payload",
    "encode_message",
    "encode_payload",
    "fold_seed",
]
