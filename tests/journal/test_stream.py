"""Resynchronizing journal reader: clean streams, rotation stitching,
torn tails, mid-file damage with byte-scan recovery, and the
no-false-resync guards."""

import os
import zlib

import pytest

from repro.errors import JournalError
from repro.journal.events import JournalEvent, encode_event
from repro.journal.format import (SEGMENT_MAGIC, _HEADER, JournalWriter,
                                  frame_bytes)
from repro.journal.stream import EventStream


def _ev(seq, kind="sched", **payload):
    return JournalEvent(seq, 10 * seq, 0, kind, payload)


def _write(path, events, **writer_kwargs):
    writer = JournalWriter(path, **writer_kwargs)
    for event in events:
        writer.append(event)
    writer.close()


def test_clean_stream_round_trips(tmp_path):
    path = str(tmp_path / "j")
    events = [_ev(i) for i in range(20)]
    _write(path, events)
    stream = EventStream(path)
    got = list(stream)
    assert [e.seq for e in got] == list(range(20))
    assert stream.frames == 20
    assert not stream.damaged
    assert stream.corruptions == [] and stream.bytes_skipped == 0
    assert stream.segments_read == 1


def test_missing_journal_raises(tmp_path):
    with pytest.raises(JournalError):
        list(EventStream(str(tmp_path / "absent")))


def test_rotation_segments_stitch_oldest_first(tmp_path):
    path = str(tmp_path / "j")
    # tiny segments force several rotations
    _write(path, [_ev(i, payload="x" * 200) for i in range(40)],
           max_bytes=4096, max_segments=8)
    assert os.path.exists(path + ".1")
    stream = EventStream(path)
    seqs = [e.seq for e in stream]
    assert seqs == sorted(seqs)
    assert stream.segments_read >= 2
    assert not stream.damaged


def test_torn_tail_is_recorded_not_raised(tmp_path):
    path = str(tmp_path / "j")
    writer = JournalWriter(path)
    for i in range(5):
        writer.append(_ev(i))
    writer.append_torn(_ev(5))
    writer.close()
    stream = EventStream(path)
    assert [e.seq for e in stream] == [0, 1, 2, 3, 4]
    assert stream.damaged
    assert [c.reason for c in stream.corruptions] == ["torn-tail"]
    assert not stream.corruptions[0].resynced


def test_midfile_flip_resyncs_to_next_frame(tmp_path):
    path = str(tmp_path / "j")
    _write(path, [_ev(i) for i in range(10)])
    # corrupt one byte inside the 4th frame's payload
    with open(path, "rb") as f:
        data = f.read()
    offset = len(SEGMENT_MAGIC)
    for _ in range(3):
        length, _crc = _HEADER.unpack_from(data, offset)
        offset += _HEADER.size + length
    flip = offset + _HEADER.size + 2
    with open(path, "r+b") as f:
        f.seek(flip)
        byte = f.read(1)
        f.seek(flip)
        f.write(bytes([byte[0] ^ 0xFF]))
    stream = EventStream(path)
    seqs = [e.seq for e in stream]
    # exactly the damaged frame is lost; the reader scans to frame 5
    assert seqs == [0, 1, 2, 4, 5, 6, 7, 8, 9]
    assert [c.reason for c in stream.corruptions] == ["bad-frame"]
    assert stream.corruptions[0].resynced
    assert stream.bytes_skipped > 0


def test_overwritten_magic_resyncs_into_segment(tmp_path):
    path = str(tmp_path / "j")
    _write(path, [_ev(i) for i in range(6)])
    with open(path, "r+b") as f:
        f.write(b"XXXXXXXX")  # clobber the magic
    stream = EventStream(path)
    seqs = [e.seq for e in stream]
    assert seqs == list(range(1, 6)) or seqs == list(range(6))
    assert [c.reason for c in stream.corruptions] == ["bad-magic"]
    assert stream.corruptions[0].resynced


def test_unrecoverable_garbage_skips_segment(tmp_path):
    path = str(tmp_path / "j")
    with open(path, "wb") as f:
        f.write(os.urandom(64))
    stream = EventStream(path)
    assert list(stream) == []
    assert stream.damaged
    assert stream.bytes_skipped == 64
    assert not stream.corruptions[0].resynced


def test_non_advancing_seq_is_rejected_as_false_resync(tmp_path):
    """A CRC-valid frame whose seq does not advance (duplicated block)
    must not corrupt checker state — the reader treats it as damage."""
    path = str(tmp_path / "j")
    frame3 = frame_bytes(encode_event(_ev(3)))
    with open(path, "wb") as f:
        f.write(SEGMENT_MAGIC)
        for i in range(5):
            f.write(frame_bytes(encode_event(_ev(i))))
        f.write(frame3)  # stale duplicate appended after seq 4
        f.write(frame_bytes(encode_event(_ev(5))))
    stream = EventStream(path)
    seqs = [e.seq for e in stream]
    assert seqs == [0, 1, 2, 3, 4, 5]
    assert stream.damaged  # the duplicate was recorded as a bad frame


def test_bogus_length_field_cannot_trigger_huge_read(tmp_path):
    path = str(tmp_path / "j")
    payload = encode_event(_ev(0))
    with open(path, "wb") as f:
        f.write(SEGMENT_MAGIC)
        # length field far beyond the cap, then a valid frame
        f.write(_HEADER.pack(1 << 30, zlib.crc32(b"")))
        f.write(frame_bytes(payload))
    stream = EventStream(path)
    assert [e.seq for e in stream] == [0]
    assert stream.damaged


def test_empty_segment_file_yields_nothing(tmp_path):
    path = str(tmp_path / "j")
    with open(path, "wb"):
        pass
    stream = EventStream(path)
    assert list(stream) == []
    assert not stream.damaged  # writer died before the magic: no data,
    # but also no misparse


_REWRITE_SCRIPT = """
import sys
from repro.journal.events import JournalEvent
from repro.journal.format import JournalWriter
from repro.journal.stream import EventStream

path = sys.argv[1]

def write(count):
    writer = JournalWriter(path)
    for seq in range(count):
        writer.append(JournalEvent(seq, 10 * seq, 0, "sched",
                                   {"pad": "x" * 200}))
    writer.close()

write(200)
events = iter(EventStream(path, resync=False))
first = next(events)
write(3)  # another writer truncates and rewrites the file mid-read
print([first.seq] + [event.seq for event in events] == list(range(200)))
"""


_CHECK_REWRITE_SCRIPT = """
import sys
from repro.journal import checker
from repro.journal.events import JournalEvent
from repro.journal.format import JournalWriter

path = sys.argv[1]

def write(count):
    writer = JournalWriter(path)
    for seq in range(count):
        writer.append(JournalEvent(seq, 10 * seq, 0, "sched",
                                   {"pad": "x" * 200}))
    writer.close()

feed = checker.StreamingChecker.feed

def feed_then_rewrite(self, event):
    feed(self, event)
    if event.seq == 0:
        write(3)  # another writer truncates and rewrites the file mid-read

write(200)
checker.StreamingChecker.feed = feed_then_rewrite
result = checker.check_journal(path)
print(result.events_checked == 200 and not result.corruptions)
"""


def _run_rewrite_script(script, path):
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, path],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_strict_prefix_survives_a_rewrite_mid_read(tmp_path):
    """The strict prefix reads a snapshot of each segment: a writer that
    truncates the file while it is read cannot fault the reader (a
    memory mapping would die of SIGBUS), which matters for replay
    verification of a journal whose job id a later job reuses."""
    _run_rewrite_script(_REWRITE_SCRIPT, str(tmp_path / "j"))


def test_check_journal_survives_a_rewrite_mid_read(tmp_path):
    """The checker's resynchronizing reader reads a snapshot too: a
    journal truncated while ``check_journal`` streams it is checked as
    it was when its segment was read, never killed by SIGBUS (the
    service's checker backend and ``kivati fleet check`` may check a
    journal another job is rewriting)."""
    _run_rewrite_script(_CHECK_REWRITE_SCRIPT, str(tmp_path / "j"))
