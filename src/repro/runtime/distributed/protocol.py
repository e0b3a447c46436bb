"""Wire protocol shared by the broker, the workers and the client backend.

Messages are newline-delimited canonical JSON objects over TCP ("JSON
lines").  Every request carries an ``op`` field; every response carries
``ok`` (``True``/``False``) plus op-specific fields, with ``error`` set when
``ok`` is false.  The payloads that cross the wire are exactly the payloads
the :class:`~repro.runtime.cache.ResultCache` stores -- canonical spec dicts
upward (:meth:`RunSpec.canonical`), serialized result payloads downward
(:mod:`repro.runtime.serialize`) -- so a result is byte-identical whether it
came from a local process pool, a remote worker or the cache.

Connections are short-lived (one or a few requests each); idempotent
server-side semantics make blind reconnects safe, which is what lets workers
and clients ride out a broker restart.

Every message in both directions is stamped ``protocol: "dalorex-dist/3"``
(:data:`PROTOCOL`).  The broker refuses any other stamp -- a missing one
included -- with the typed ``unsupported-protocol`` code, and
:func:`request` raises :class:`ProtocolError` on a response stamped with
anything else.  There is one generation and one encoding per direction (see
docs/DISTRIBUTED.md):

* **gzip payloads**: uploads carry ``payload_gz`` and fetch answers carry
  ``results_gz`` (base64-wrapped gzip of the payload's canonical JSON).
  Digests are computed over the *decompressed* payload object, so ingest
  checking is byte-for-byte independent of the encoding.
* **structured codes**: ``ok: false`` responses carry a machine-readable
  ``code`` (``ERR_*`` below) next to the human ``error``; ``fetch``
  responses carry ``failed_codes`` (``FAIL_*``) next to the free-text
  ``failed`` reasons; rejected uploads carry a ``code`` (``REJECT_*``) next
  to ``reason``.  Peers match on the code, never on the prose.
* **bounded frames**: every line is capped (:data:`MAX_FRAME_BYTES`,
  configurable); oversized frames are rejected with a typed error instead
  of buffering unbounded memory.
* **chunked fetch**: a fetch answer inlines payloads up to a frame budget
  and announces the rest in a ``chunked`` map, streamed with the
  ``fetch_chunk`` op in bounded base64-gzip slices.
* **ignored fields**: a peer built before the service layer was cut back
  may still send ``tenant`` or ``traces`` on ``submit``, ``stats`` on
  ``lease``, ``telemetry`` on ``heartbeat``, or ``trace`` and ``telemetry``
  on ``result``.  The broker serves such a request as if the field were
  absent, and answers the deleted ``stats`` and ``metrics`` ops with
  ``unknown-op``.
"""

from __future__ import annotations

import base64
import gzip
import json
import socket
from typing import Any, Dict, Optional, Tuple

from repro.errors import ReproError

#: The one protocol generation every message is stamped with.
PROTOCOL = "dalorex-dist/3"

#: Default TCP port of ``dalorex broker`` (chosen out of the ephemeral range).
DEFAULT_PORT = 4573

#: Hard cap on one wire frame (one JSON line, newline included).  Large
#: payloads travel under this via chunked fetch; anything bigger in a single
#: line is a protocol violation, not a legitimate message.
MAX_FRAME_BYTES = 64 * 1024 * 1024

# ------------------------------------------------------------------ codes
#: ``ok: false`` error codes.
ERR_UNKNOWN_OP = "unknown-op"
ERR_BAD_REQUEST = "bad-request"
ERR_FRAME_TOO_LARGE = "frame-too-large"
ERR_UNKNOWN_KEY = "unknown-key"
ERR_UNSUPPORTED_PROTOCOL = "unsupported-protocol"

#: ``fetch`` failure codes (``failed_codes``).
FAIL_NEVER_SUBMITTED = "never-submitted"
FAIL_GAVE_UP = "gave-up"

#: Upload rejection codes (``result`` responses with ``accepted: false``).
REJECT_BAD_PAYLOAD = "bad-payload"
REJECT_DIGEST_MISMATCH = "digest-mismatch"
REJECT_INGEST = "ingest-violation"
REJECT_TRANSPORT = "transport-error"
REJECT_UNKNOWN_KEY = ERR_UNKNOWN_KEY


class ProtocolError(ReproError):
    """A distributed-protocol exchange failed (transport or framing)."""


class BrokerError(ProtocolError):
    """The broker answered ``ok: false`` -- a semantic rejection.

    Unlike transport-level :class:`ProtocolError`/``OSError``, retrying the
    same request will deterministically fail again (bad spec version,
    unknown op, ...), so callers should surface it instead
    of backing off.  ``code`` carries the broker's structured error code.
    """

    def __init__(self, message: str, code: Optional[str] = None) -> None:
        super().__init__(message)
        self.code = code


def parse_address(text: str) -> Tuple[str, int]:
    """Parse ``HOST:PORT`` (or bare ``:PORT`` / ``PORT``) into an address.

    IPv6 literals use the bracket form ``[::1]:4573`` when a port is given;
    a bare literal (``::1``, ``fe80::2``) gets :data:`DEFAULT_PORT`.  The
    naive ``rpartition(":")`` split used to mangle these (``::1`` parsed as
    host ``:`` with port 1).
    """
    raw = text.strip()
    if not raw:
        raise ProtocolError(f"cannot parse broker address {text!r}")
    if raw.startswith("["):
        # RFC 3986 bracket form: [V6HOST] or [V6HOST]:PORT.
        host, bracket, rest = raw[1:].partition("]")
        if not bracket or not host:
            raise ProtocolError(f"cannot parse broker address {text!r}")
        if not rest:
            return host, DEFAULT_PORT
        if not rest.startswith(":"):
            raise ProtocolError(f"cannot parse broker address {text!r}")
        return host, _parse_port(rest[1:], text)
    if raw.count(":") > 1:
        # Unbracketed IPv6 literal: the colons belong to the host.
        return raw, DEFAULT_PORT
    host, sep, port_text = raw.rpartition(":")
    if not sep:
        host, port_text = "", raw
    return host or "127.0.0.1", _parse_port(port_text, text)


def _parse_port(port_text: str, original: str) -> int:
    try:
        port = int(port_text)
    except ValueError:
        raise ProtocolError(f"cannot parse broker address {original!r}") from None
    if not 0 < port < 65536:
        raise ProtocolError(f"broker port out of range in {original!r}")
    return port


def format_address(address: Tuple[str, int]) -> str:
    host, port = address
    if ":" in host:
        return f"[{host}]:{port}"
    return f"{host}:{port}"


def encode_message(message: Dict[str, Any]) -> bytes:
    """One message as its canonical wire form (sorted keys, one line)."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def compress_payload(payload: Dict[str, Any]) -> str:
    """Gzip a payload's canonical JSON and wrap it base64 for JSON transport.

    The bytes compressed are exactly the canonical form
    :func:`~repro.runtime.cache.payload_digest` hashes, so digesting the
    decompressed object is identical to digesting the original.  ``mtime=0``
    makes the blob deterministic, which is what lets ``fetch_chunk`` slice
    it statelessly: every recompression yields byte-identical chunks.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return base64.b64encode(gzip.compress(blob, mtime=0)).decode("ascii")


def decompress_payload(text: str) -> Dict[str, Any]:
    """Inverse of :func:`compress_payload`; raises ProtocolError on garbage."""
    try:
        blob = gzip.decompress(base64.b64decode(text.encode("ascii")))
        payload = json.loads(blob.decode("utf-8"))
    except Exception as exc:
        raise ProtocolError(f"cannot decompress gzip payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"decompressed payload is not an object: {type(payload).__name__}"
        )
    return payload


def read_message(rfile, max_bytes: int = MAX_FRAME_BYTES) -> Optional[Dict[str, Any]]:
    """Read one message from a file-like byte stream; ``None`` on EOF.

    The frame is bounded: a line longer than ``max_bytes`` (newline
    included) raises :class:`ProtocolError` instead of buffering unbounded
    memory -- one hostile or broken peer must not be able to balloon the
    process.  Legitimately huge payloads travel under the cap via the
    chunked fetch.
    """
    line = rfile.readline(max_bytes + 1)
    if not line:
        return None
    if len(line) > max_bytes:
        raise ProtocolError(
            f"protocol frame exceeds the {max_bytes}-byte cap "
            f"(got at least {len(line)} bytes without a newline)"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"malformed protocol message: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"protocol message is not an object: {message!r}")
    return message


def request(
    address: Tuple[str, int],
    message: Dict[str, Any],
    timeout: float = 30.0,
    max_bytes: int = MAX_FRAME_BYTES,
) -> Dict[str, Any]:
    """One request/response round-trip on a fresh connection.

    Raises :class:`ProtocolError` on transport failure, a closed connection,
    or a response not stamped :data:`PROTOCOL`; an ``ok: false`` response
    raises :class:`BrokerError`, which preserves the server-side error
    message and ``code``.
    Connection-level ``OSError`` propagates so callers can distinguish
    "broker unreachable" (retryable) from "broker said no".
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(encode_message(dict(message, protocol=PROTOCOL)))
        with sock.makefile("rb") as rfile:
            response = read_message(rfile, max_bytes=max_bytes)
    if response is None:
        raise ProtocolError(
            f"broker at {format_address(address)} closed the connection "
            f"before responding to {message.get('op')!r}"
        )
    if response.get("protocol") != PROTOCOL:
        raise ProtocolError(
            f"protocol mismatch: broker at {format_address(address)} speaks "
            f"{response.get('protocol')!r}, this peer speaks {PROTOCOL!r}"
        )
    if not response.get("ok"):
        raise BrokerError(
            response.get("error") or f"request {message.get('op')!r} failed",
            code=response.get("code"),
        )
    return response
