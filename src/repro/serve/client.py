"""Blocking client for the simulation service.

A thin synchronous wrapper over one TCP connection: requests go out as
canonical NDJSON lines, responses come back matched by ``id``.  The
client exists for three audiences —

* tests, which need both the *decoded* result (arrays restored) and the
  **raw response bytes** (`ClientResult.raw`) to prove byte-identity
  across concurrent clients;
* the ``python -m repro query`` CLI;
* example scripts driving a server from another process.

Error responses re-raise as :class:`~repro.serve.protocol.ServeError`
with the server's machine-readable ``code`` and, for terminal retry
failures, the full per-attempt history.

The client is not thread-safe; use one client per thread (the server is
built for many concurrent connections, not many writers on one socket).
"""

from __future__ import annotations

import itertools
import json
import socket
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import SimulationError
from repro.serve.protocol import (
    ServeError,
    decode_message,
    decode_payload,
    encode_message,
)


@dataclass(frozen=True)
class ClientResult:
    """One successful response, in decoded and raw form.

    ``raw`` is the exact line as received; ``result_bytes`` is the
    canonical serialization of just the ``result`` subtree, which is
    the byte-identity oracle across clients — the envelope necessarily
    differs (client-chosen ``id``, per-request cache status) while the
    payload of a deduplicated execution must not.
    """

    result: Any  # decoded payload (numpy arrays restored)
    fingerprint: Optional[str]
    cache: str  # "miss" | "hit" | "coalesced" | "uncached"
    raw: bytes  # exact response line as received
    result_bytes: bytes  # canonical bytes of the "result" subtree


class Client:
    """Synchronous connection to a :class:`~repro.serve.ReproServer`.

    Usable as a context manager::

        with Client(host, port) as client:
            client.open_session()
            rows = client.sql("SELECT ... ").result["rows"]
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7411,
        timeout: Optional[float] = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.session: Optional[str] = None
        self._ids = itertools.count(1)
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("rb")

    # -- plumbing ------------------------------------------------------------
    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, body: Dict[str, Any]) -> ClientResult:
        """Send one request and block for its response.

        Fills in ``id`` (monotonic per client) and ``session`` (the
        token captured by :meth:`open_session`) unless the body already
        carries them; raises :class:`ServeError` for ``ok: false``.
        """
        message = dict(body)
        message.setdefault("id", next(self._ids))
        if self.session is not None:
            message.setdefault("session", self.session)
        self._sock.sendall(encode_message(message))
        raw = self._reader.readline()
        if not raw:
            raise SimulationError(
                f"server at {self.host}:{self.port} closed the connection"
            )
        response = decode_message(raw)
        if response.get("id") != message["id"]:
            raise SimulationError(
                f"response id {response.get('id')!r} does not match "
                f"request id {message['id']!r} (one request in flight "
                "per client)"
            )
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServeError(
                error.get("code", "internal"),
                error.get("message", "unknown server error"),
                error.get("attempts"),
            )
        return ClientResult(
            result=decode_payload(response.get("result")),
            fingerprint=response.get("fingerprint"),
            cache=response.get("cache", "uncached"),
            raw=raw,
            result_bytes=json.dumps(
                response.get("result"),
                sort_keys=True,
                separators=(",", ":"),
            ).encode("utf-8"),
        )

    # -- session lifecycle ---------------------------------------------------
    def open_session(self, namespace: int = 0) -> str:
        """Open a writable session; subsequent requests carry its token."""
        outcome = self.request({"op": "open", "namespace": namespace})
        self.session = outcome.result["session"]
        return self.session

    def close_session(self) -> None:
        if self.session is None:
            return
        token, self.session = self.session, None
        self.request({"op": "close", "session": token})

    # -- request families ----------------------------------------------------
    def ping(self, delay: float = 0.0) -> ClientResult:
        return self.request({"op": "ping", "delay": delay})

    def stats(self) -> Dict[str, Any]:
        """Server/admission/cache counters (``stats`` op)."""
        return self.request({"op": "stats"}).result

    def sql(
        self,
        statement: str,
        execution: Optional[str] = None,
    ) -> ClientResult:
        body: Dict[str, Any] = {"op": "sql", "statement": statement}
        if execution is not None:
            body["execution"] = execution
        return self.request(body)

    def mcdb(
        self,
        tables: List[Dict[str, Any]],
        statement: Optional[str] = None,
        aggregate: Optional[Dict[str, Any]] = None,
        n_mc: int = 100,
        mode: str = "naive",
        seed: int = 0,
    ) -> ClientResult:
        body: Dict[str, Any] = {
            "op": "mcdb",
            "tables": tables,
            "n_mc": n_mc,
            "mode": mode,
            "seed": seed,
        }
        if statement is not None:
            body["statement"] = statement
        if aggregate is not None:
            body["aggregate"] = aggregate
        return self.request(body)

    def ensemble(
        self,
        demo: Optional[str] = None,
        nodes: Optional[List[Dict[str, Any]]] = None,
        name: str = "serve",
        seed: int = 0,
        quick: bool = True,
    ) -> ClientResult:
        body: Dict[str, Any] = {"op": "ensemble", "name": name, "seed": seed}
        if demo is not None:
            body["demo"] = demo
            body["quick"] = quick
        if nodes is not None:
            body["nodes"] = nodes
        return self.request(body)


__all__ = ["Client", "ClientResult"]
