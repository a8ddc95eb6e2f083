"""The journal reader: the one frame decoder.

:class:`EventStream` decodes the CRC-framed segments written by
:class:`repro.journal.format.JournalWriter` and has two postures, one
per caller:

- **resynchronizing** (the offline checker) — keep producing events
  from whatever survives, however the file was damaged.  A mid-file
  corruption (flipped bytes, a torn rotation boundary, an overwritten
  region) is recorded and then *scanned past*: the reader hunts
  byte-by-byte for the next plausible frame header whose length is
  sane, whose CRC matches, whose payload decodes to a known event kind
  and whose sequence number advances the stream.  A 32-bit CRC plus
  those structural checks make a false resync astronomically unlikely;
- **strict prefix** (:func:`read_journal`, hence recovery) — the
  torn-tail contract: stop at the *first* damage anywhere and keep
  every frame before it, because a salvaged prefix must be a verified
  prefix.

Either way segments are parsed frame by frame, so a million-event
journal is checked without building the event list in memory.  Each
segment is read into memory whole (a writer bounds it by ``max_bytes``)
rather than memory-mapped: the checker, recovery and replay
verification may read a journal that another process is rewriting, and
a mapping of a file truncated under it faults (SIGBUS) instead of
reading short.  Damage is **accounted, not raised**: every
skipped byte range becomes a :class:`Corruption` record.  The checker
turns those and the sequence gaps into an explicit coverage fraction
instead of a crash or a silent full-pass claim.

Rotated journals stitch ``path.N`` (oldest) .. ``path``; a
pruned-oldest rotation simply surfaces as a stream that starts at a
non-zero sequence number.
"""

import os
import zlib

from repro.errors import JournalError
from repro.journal.events import EVENT_KINDS, decode_event
from repro.journal.format import (MAX_FRAME_BYTES, SEGMENT_MAGIC, _HEADER,
                                  segment_paths)


class Corruption:
    """One damaged byte range the reader skipped (or stopped at)."""

    __slots__ = ("segment", "offset", "reason", "skipped_bytes", "resynced")

    def __init__(self, segment, offset, reason, skipped_bytes, resynced):
        self.segment = segment
        #: Byte offset of the first bad byte within its segment.
        self.offset = offset
        #: "bad-magic" | "bad-frame" | "torn-tail"
        self.reason = reason
        self.skipped_bytes = skipped_bytes
        #: True when a later valid frame was found in the same segment.
        self.resynced = resynced

    def as_dict(self):
        return {"segment": os.path.basename(self.segment),
                "offset": self.offset, "reason": self.reason,
                "skipped_bytes": self.skipped_bytes,
                "resynced": self.resynced}

    def __repr__(self):
        return "Corruption(%s@%d, %s, skipped=%d%s)" % (
            os.path.basename(self.segment), self.offset, self.reason,
            self.skipped_bytes, ", resynced" if self.resynced else "")


class EventStream:
    """Iterate journal events across all segments.  Iterate first; the
    accounting attributes (``corruptions``, ``frames``,
    ``bytes_skipped``, ``segments_read``) are final once the iterator is
    exhausted.

    ``resync`` picks the posture: scan past damage (the checker), or
    end the stream at the first damage (:func:`read_journal`).
    """

    def __init__(self, path, resync=True):
        self.path = path
        self.resync = resync
        self.corruptions = []
        self.frames = 0
        self.segments_read = 0
        self.bytes_skipped = 0
        self._last_seq = None

    @property
    def damaged(self):
        return bool(self.corruptions)

    def __iter__(self):
        paths = segment_paths(self.path)
        if not paths:
            raise JournalError("no journal at %s" % self.path)
        for seg in paths:
            with open(seg, "rb") as f:
                data = f.read()
            yield from self._iter_segment(data, seg)
            self.segments_read += 1
            if self.corruptions and not self.resync:
                return

    # ------------------------------------------------------------------

    def _try_frame(self, data, offset):
        """Decode one frame at ``offset``; returns (event, frame_bytes)
        or (None, reason) with reason "short" (runs off the end — a torn
        tail) or "bad" (structurally or semantically invalid)."""
        if len(data) - offset < _HEADER.size:
            return None, "short"
        length, crc = _HEADER.unpack_from(data, offset)
        if length > MAX_FRAME_BYTES:
            return None, "bad"
        start = offset + _HEADER.size
        if len(data) - start < length:
            return None, "short"
        payload = data[start:start + length]
        if zlib.crc32(payload) != crc:
            return None, "bad"
        try:
            event = decode_event(payload)
        except JournalError:
            return None, "bad"
        if event.kind not in EVENT_KINDS:
            return None, "bad"
        if self._last_seq is not None and event.seq <= self._last_seq:
            # CRC-valid but non-advancing: a duplicated block or a false
            # resync candidate; never let it corrupt checker state
            return None, "bad"
        return event, _HEADER.size + length

    def _emit(self, event):
        self._last_seq = event.seq
        self.frames += 1
        return event

    def _iter_segment(self, data, seg):
        size = len(data)
        if size == 0:
            return  # writer died before the magic; nothing to salvage
        offset = 0
        if data[:len(SEGMENT_MAGIC)] == SEGMENT_MAGIC:
            offset = len(SEGMENT_MAGIC)
        else:
            bad_at = 0
            event, advance = self._resync(data, 1)
            if event is None:
                self.corruptions.append(Corruption(
                    seg, bad_at, "bad-magic", size, resynced=False))
                self.bytes_skipped += size
                return
            self.corruptions.append(Corruption(
                seg, bad_at, "bad-magic", advance[0], resynced=True))
            self.bytes_skipped += advance[0]
            offset = advance[0] + advance[1]
            yield self._emit(event)
        while offset < size:
            event, frame_bytes = self._try_frame(data, offset)
            if event is not None:
                offset += frame_bytes
                yield self._emit(event)
                continue
            reason = frame_bytes
            if reason == "short":
                self.corruptions.append(Corruption(
                    seg, offset, "torn-tail", size - offset, resynced=False))
                self.bytes_skipped += size - offset
                return
            event, advance = self._resync(data, offset + 1)
            if event is None:
                self.corruptions.append(Corruption(
                    seg, offset, "bad-frame", size - offset, resynced=False))
                self.bytes_skipped += size - offset
                return
            self.corruptions.append(Corruption(
                seg, offset, "bad-frame", advance[0] - offset,
                resynced=True))
            self.bytes_skipped += advance[0] - offset
            offset = advance[0] + advance[1]
            yield self._emit(event)

    def _resync(self, data, start):
        """Scan forward from ``start`` for the next valid frame; returns
        (event, (frame_offset, frame_bytes)) or (None, None)."""
        if not self.resync:
            return None, None
        for offset in range(start, len(data)):
            event, frame_bytes = self._try_frame(data, offset)
            if event is not None:
                return event, (offset, frame_bytes)
        return None, None


class JournalReadResult:
    """The strict prefix of a journal: every frame before the first
    damage."""

    __slots__ = ("events", "torn", "segments_read", "valid_bytes",
                 "torn_segment")

    def __init__(self, events, torn, segments_read, valid_bytes,
                 torn_segment=None):
        self.events = events
        #: True if the stream ended at a corrupt/truncated frame.
        self.torn = torn
        self.segments_read = segments_read
        #: Bytes of the last segment read that framed cleanly.
        self.valid_bytes = valid_bytes
        #: Path of the segment holding the corruption, if any.
        self.torn_segment = torn_segment

    @property
    def first_seq(self):
        return self.events[0].seq if self.events else None

    @property
    def last_seq(self):
        return self.events[-1].seq if self.events else None

    def __len__(self):
        return len(self.events)


def read_journal(path):
    """Read a (possibly rotated, possibly torn) journal.

    Stops at the first damage anywhere in the stream (a corrupt or
    truncated frame, or one whose sequence number does not advance) and
    keeps everything before it, per the torn-tail contract.
    """
    stream = EventStream(path, resync=False)
    events = list(stream)
    if stream.corruptions:
        damage = stream.corruptions[0]
        return JournalReadResult(events, True, stream.segments_read,
                                 damage.offset, torn_segment=damage.segment)
    return JournalReadResult(events, False, stream.segments_read,
                             os.path.getsize(segment_paths(path)[-1]))


__all__ = ["Corruption", "EventStream", "JournalReadResult", "read_journal"]
