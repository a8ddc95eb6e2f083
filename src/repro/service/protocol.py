"""Wire protocol of the detection service: length-prefixed JSON frames.

One frame on the wire is::

    <u32 big-endian payload length> <payload: UTF-8 canonical JSON>

Requests are objects with an ``op`` field (``submit``, ``ping``,
``stats``, ``events``, ``drain``); responses echo the request's
``request_id`` (when given) and carry either ``ok: true`` plus
op-specific fields or ``ok: false`` plus a structured ``error`` object
``{"kind": ..., "message": ...}`` with a stable machine-readable kind.

The framing layer is deliberately paranoid — it is the daemon's first
line of defense against hostile input. A garbage length prefix cannot
trigger a huge allocation (:data:`MAX_FRAME_BYTES` cap), a truncated or
undecodable payload raises :class:`repro.errors.ProtocolError` with a
stable kind instead of tearing down the reader, and a clean EOF between
frames reads as ``None`` (client hung up) rather than an error.
"""

import json
import socket
import struct

from repro.errors import ProtocolError

_HEADER = struct.Struct(">I")

#: Defensive cap on one frame's payload; a garbage length field must
#: not trigger a huge read (mirrors the journal format's cap).
MAX_FRAME_BYTES = 1 << 24

#: Longest Unix-domain socket path in bytes: ``sun_path`` holds 108
#: bytes on Linux, the terminating NUL included.
MAX_SOCKET_PATH_BYTES = 107

#: Stable error kinds a response's ``error.kind`` may carry.
ERROR_KINDS = (
    "malformed-frame",   # undecodable/oversized frame; connection closes
    "unknown-op",        # op not recognized
    "invalid-spec",      # submit payload is not a valid JobSpec
    "overloaded",        # admission control: queue above reject watermark
    "poison",            # job quarantined after killing too many workers
    "deadline",          # request deadline expired
    "draining",          # daemon is draining; no new work accepted
    "internal",          # unexpected daemon-side failure
)


def canonical_bytes(obj):
    """Deterministic JSON encoding of one frame payload."""
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def send_frame(sock, obj):
    """Frame and send one JSON object over ``sock``."""
    payload = canonical_bytes(obj)
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError("frame-too-large",
                            "payload of %d bytes exceeds cap" % len(payload))
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock, n):
    """Read exactly ``n`` bytes; None on clean EOF at a frame boundary."""
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except (ConnectionResetError, BrokenPipeError):
            chunk = b""
        if not chunk:
            if remaining == n and not chunks:
                return None
            raise ProtocolError(
                "malformed-frame",
                "connection closed mid-frame (%d of %d bytes)"
                % (n - remaining, n))
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock):
    """Receive one frame; returns the decoded object, or None on a clean
    disconnect between frames. Raises ProtocolError on garbage."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError("malformed-frame",
                            "frame length %d exceeds cap" % length)
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("malformed-frame", "EOF after frame header")
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("malformed-frame",
                            "undecodable payload: %s" % exc)
    if not isinstance(obj, dict):
        raise ProtocolError("malformed-frame",
                            "frame payload is not an object")
    return obj


def error_response(kind, message, request_id=None):
    if kind not in ERROR_KINDS:
        raise ProtocolError("internal", "unknown error kind %r" % kind)
    resp = {"ok": False, "error": {"kind": kind, "message": message}}
    if request_id is not None:
        resp["request_id"] = request_id
    return resp


def ok_response(request_id=None, **fields):
    resp = {"ok": True}
    if request_id is not None:
        resp["request_id"] = request_id
    resp.update(fields)
    return resp


def connect(socket_path, timeout=None):
    """Open a client connection to a daemon socket."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    if timeout is not None:
        sock.settimeout(timeout)
    sock.connect(socket_path)
    return sock


__all__ = ["ERROR_KINDS", "MAX_FRAME_BYTES", "MAX_SOCKET_PATH_BYTES",
           "canonical_bytes", "connect", "error_response", "ok_response",
           "recv_frame", "send_frame"]
