"""Newline-delimited JSON framing shared by the service server and client.

One request or reply per line: a single JSON object, UTF-8, terminated
by ``\\n``. The framing is deliberately the same shape as the campaign
store's records — greppable, pipeable to ``jq``, and trivially
implemented in any language that can open a TCP socket. Every frame is
a dict; requests carry an ``op`` field, replies an ``ok`` field.
"""

from __future__ import annotations

import json
import os
from typing import BinaryIO

from repro.exceptions import ServiceError

#: Default TCP port of ``repro.cli serve`` (loopback only).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7781

#: Upper bound on one frame: large enough for any realistic campaign
#: chunk, small enough that a stray non-protocol client (or a runaway
#: request generator) cannot balloon server memory.
MAX_FRAME_BYTES = 32 * 1024 * 1024


def send_frame(wfile: BinaryIO, payload: dict) -> None:
    """Serialize ``payload`` as one JSON line and flush it."""
    line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    wfile.write(line.encode("utf-8") + b"\n")
    wfile.flush()


def recv_frame(rfile: BinaryIO) -> dict | None:
    """Read one JSON frame; ``None`` on clean EOF (peer closed).

    A frame that is oversized, truncated mid-line, or not a JSON object
    raises :class:`ServiceError` — the caller decides whether to reply
    with an error or drop the connection.
    """
    line = rfile.readline(MAX_FRAME_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_FRAME_BYTES:
        raise ServiceError(
            f"protocol frame exceeds {MAX_FRAME_BYTES} bytes"
        )
    if not line.endswith(b"\n"):
        # EOF inside a line: the peer died mid-write.
        raise ServiceError("connection closed mid-frame")
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"protocol frame is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ServiceError("protocol frame must be a JSON object")
    return payload


def error_reply(message: str, *, error_type: str = "ServiceError") -> dict:
    """The canonical error frame."""
    return {"ok": False, "error": message, "error_type": error_type}


def overloaded_reply(message: str, *, retry_after: float) -> dict:
    """The structured load-shedding frame.

    ``error_type`` names :class:`~repro.exceptions.ServiceOverloaded`
    so the client re-raises the typed exception, and ``retry_after``
    (seconds) tells the caller how long to back off before retrying —
    the admission queue's contract: reject instantly, never hang.
    """
    return {
        "ok": False,
        "error": message,
        "error_type": "ServiceOverloaded",
        "retry_after": retry_after,
    }


def parse_endpoint(
    endpoint: str, *, default_host: str = DEFAULT_HOST
) -> tuple[str, int]:
    """``"host:port"`` or bare ``"port"`` → ``(host, port)``.

    Hostnames may not themselves contain ``:`` — a raw IPv6 literal like
    ``::1`` is rejected with a format error rather than silently
    misparsed (the service binds IPv4 loopback; name it by hostname).
    """
    text = endpoint.strip()
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = default_host, text
    if not host:
        host = default_host
    if ":" in host:
        raise ServiceError(
            f"invalid service endpoint {endpoint!r}; the host part may "
            "not contain ':' (IPv6 literals are not supported — use a "
            "hostname)"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ServiceError(
            f"invalid service endpoint {endpoint!r}; expected HOST:PORT or PORT"
        ) from None
    if not 0 < port < 65536:
        raise ServiceError(f"service port out of range: {port}")
    return host, port


def publish_ready_file(
    path: str | os.PathLike, host: str, port: int
) -> None:
    """Atomically write the ``{host, port, pid}`` startup handshake file.

    Scripts that launch a server in the background poll for this file to
    learn the bound (possibly ephemeral) port; the atomic replace means
    a reader never sees a half-written JSON object.
    """
    payload = {"host": host, "port": port, "pid": os.getpid()}
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
