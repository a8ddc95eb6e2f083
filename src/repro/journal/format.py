"""On-disk journal format: CRC-framed, append-only, bounded rotation.

Layout of one segment file::

    8 bytes   segment magic  b"KIVATIJ1"
    frames    <u32 payload length> <u32 crc32(payload)> <payload bytes>

Payloads are canonical JSON event records (:mod:`repro.journal.events`).
This module owns the writer side: :func:`frame_bytes` is the one frame
encoder, and the writer flushes after every frame so a crash loses at
most the frame being written.  Frames are decoded in one place,
:class:`repro.journal.stream.EventStream`; its strict prefix view
:func:`repro.journal.stream.read_journal` is torn-tail tolerant — it
stops at the first damage (bad magic, truncated header or payload, CRC
mismatch, undecodable record, non-advancing sequence number) and keeps
every frame before it.

Rotation keeps disk usage bounded: when the active segment exceeds
``max_bytes`` it is shifted to ``path.1`` (``path.1`` to ``path.2``, and
so on) and segments beyond ``max_segments`` are deleted, oldest first.
:func:`segment_paths` lists ``path.N`` (oldest) .. ``path.1``, ``path``
so the reader stitches them back into one stream; sequence numbers recorded in the frames survive rotation, so
a journal whose oldest segments were pruned still aligns with a fresh
re-execution by seq.
"""

import os
import struct
import zlib

from repro.errors import JournalError
from repro.journal.events import encode_event

SEGMENT_MAGIC = b"KIVATIJ1"
_HEADER = struct.Struct("<II")
#: Defensive cap: a garbage length field must not trigger a huge read.
MAX_FRAME_BYTES = 1 << 24


def frame_bytes(payload):
    """Full on-disk bytes of one frame for ``payload``."""
    if len(payload) > MAX_FRAME_BYTES:
        raise JournalError("frame payload of %d bytes exceeds cap"
                           % len(payload))
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


class JournalWriter:
    """Append-only writer with per-frame flush and bounded rotation."""

    def __init__(self, path, max_bytes=4 * 1024 * 1024, max_segments=8):
        if max_bytes < 4096:
            raise JournalError("max_bytes must be at least 4096")
        if max_segments < 1:
            raise JournalError("max_segments must be at least 1")
        self.path = path
        self.max_bytes = max_bytes
        self.max_segments = max_segments
        self.frames_written = 0
        self.rotations = 0
        self._file = None
        self._segment_bytes = 0
        self._open_segment()

    # ------------------------------------------------------------------

    def _open_segment(self):
        self._file = open(self.path, "wb")
        self._file.write(SEGMENT_MAGIC)
        self._file.flush()
        self._segment_bytes = len(SEGMENT_MAGIC)

    def _rotate(self):
        self._file.close()
        self._file = None
        # shift path.N -> path.N+1, oldest first, pruning past the cap
        suffixes = []
        n = 1
        while os.path.exists("%s.%d" % (self.path, n)):
            suffixes.append(n)
            n += 1
        for n in reversed(suffixes):
            src = "%s.%d" % (self.path, n)
            if n + 1 >= self.max_segments:
                os.unlink(src)
            else:
                os.replace(src, "%s.%d" % (self.path, n + 1))
        if self.max_segments > 1:
            os.replace(self.path, "%s.1" % self.path)
        else:
            os.unlink(self.path)
        self.rotations += 1
        self._open_segment()

    # ------------------------------------------------------------------

    def append(self, event):
        """Frame and append one event; flushes before returning."""
        if self._file is None:
            raise JournalError("journal writer is closed")
        data = frame_bytes(encode_event(event))
        self._file.write(data)
        self._file.flush()
        self._segment_bytes += len(data)
        self.frames_written += 1
        if self._segment_bytes >= self.max_bytes:
            self._rotate()

    def append_torn(self, event, torn_bytes=None):
        """Simulate a crash mid-append: write only a prefix of the frame.

        Used by the ``journal.crash`` injection point; the written tail
        must be dropped (not mis-parsed) by the reader.
        """
        if self._file is None:
            raise JournalError("journal writer is closed")
        data = frame_bytes(encode_event(event))
        if torn_bytes is None:
            torn_bytes = len(data) // 2
        torn_bytes = max(1, min(torn_bytes, len(data) - 1))
        self._file.write(data[:torn_bytes])
        self._file.flush()
        self._segment_bytes += torn_bytes

    def close(self):
        if self._file is not None:
            self._file.close()
            self._file = None

    @property
    def closed(self):
        return self._file is None


def segment_paths(path):
    """Existing segment files, oldest first (``path.N`` .. ``path``)."""
    paths = []
    n = 1
    while os.path.exists("%s.%d" % (path, n)):
        paths.append("%s.%d" % (path, n))
        n += 1
    paths.reverse()
    if os.path.exists(path):
        paths.append(path)
    return paths
