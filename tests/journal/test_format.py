"""On-disk journal format: CRC framing, torn-tail tolerance, rotation."""

import struct

import pytest

from repro.errors import JournalError
from repro.journal.events import (JournalEvent, decode_event, encode_event,
                                  jsonable)
from repro.journal.format import (MAX_FRAME_BYTES, SEGMENT_MAGIC,
                                  JournalWriter, segment_paths)
from repro.journal.stream import read_journal
from repro.minic.ast import AccessKind


def make_event(seq, kind="sched", **payload):
    if not payload:
        payload = {"core": 0, "pc": seq}
    return JournalEvent(seq, seq * 10, seq % 3, kind, payload)


def write_events(path, count, **writer_kwargs):
    writer = JournalWriter(str(path), **writer_kwargs)
    for seq in range(count):
        writer.append(make_event(seq))
    writer.close()
    return writer


# ----------------------------------------------------------------------
# event encoding
# ----------------------------------------------------------------------

def test_encode_decode_roundtrip():
    event = make_event(3, kind="begin", ar=7, first="R", joined=False)
    back = decode_event(encode_event(event))
    assert back.key() == event.key()
    assert back == event


def test_encoding_is_canonical_regardless_of_dict_order():
    a = JournalEvent(0, 5, 1, "end", {"ar": 1, "second": "W", "zombie": False})
    b = JournalEvent(0, 5, 1, "end", {"zombie": False, "second": "W", "ar": 1})
    assert encode_event(a) == encode_event(b)


def test_jsonable_coercions():
    assert jsonable(AccessKind.READ) == "R"
    assert jsonable((1, 2)) == [1, 2]
    assert jsonable({AccessKind.WRITE, AccessKind.READ}) == ["R", "W"]
    assert jsonable({"k": (AccessKind.READ,)}) == {"k": ["R"]}
    with pytest.raises(JournalError):
        jsonable(object())


def test_decode_rejects_malformed_payloads():
    with pytest.raises(JournalError):
        decode_event(b"not json")
    with pytest.raises(JournalError):
        decode_event(b'{"a": 1}')            # not a 5-list
    with pytest.raises(JournalError):
        decode_event(b'[1, 2, 3, 4]')        # wrong arity
    with pytest.raises(JournalError):
        decode_event(b'["x", 0, 1, "sched", {}]')  # non-int seq


# ----------------------------------------------------------------------
# framing and torn tails
# ----------------------------------------------------------------------

def test_write_read_roundtrip(tmp_path):
    path = tmp_path / "j"
    write_events(path, 10)
    result = read_journal(str(path))
    assert not result.torn
    assert [e.seq for e in result.events] == list(range(10))
    assert result.first_seq == 0 and result.last_seq == 9


def test_trailing_garbage_is_dropped(tmp_path):
    path = tmp_path / "j"
    write_events(path, 5)
    with open(path, "ab") as f:
        f.write(b"\x07\x07")  # torn frame header
    result = read_journal(str(path))
    assert result.torn
    assert len(result.events) == 5
    assert result.torn_segment == str(path)


def test_truncated_payload_is_dropped(tmp_path):
    path = tmp_path / "j"
    write_events(path, 5)
    data = path.read_bytes()
    path.write_bytes(data[:-3])  # crash mid-way through the last frame
    result = read_journal(str(path))
    assert result.torn
    assert [e.seq for e in result.events] == [0, 1, 2, 3]


def test_crc_mismatch_is_dropped(tmp_path):
    path = tmp_path / "j"
    write_events(path, 5)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF  # bit-rot in the last payload byte
    path.write_bytes(bytes(data))
    result = read_journal(str(path))
    assert result.torn
    assert [e.seq for e in result.events] == [0, 1, 2, 3]


def test_bad_magic_yields_empty_torn_journal(tmp_path):
    path = tmp_path / "j"
    path.write_bytes(b"NOTAJRNL" + b"\x00" * 32)
    result = read_journal(str(path))
    assert result.torn
    assert result.events == []


def test_oversized_length_field_is_rejected(tmp_path):
    path = tmp_path / "j"
    path.write_bytes(SEGMENT_MAGIC
                     + struct.pack("<II", MAX_FRAME_BYTES + 1, 0))
    result = read_journal(str(path))
    assert result.torn
    assert result.events == []


def test_missing_journal_raises(tmp_path):
    with pytest.raises(JournalError):
        read_journal(str(tmp_path / "absent"))


def test_append_torn_simulates_crash_mid_write(tmp_path):
    path = tmp_path / "j"
    writer = JournalWriter(str(path))
    for seq in range(3):
        writer.append(make_event(seq))
    writer.append_torn(make_event(3))
    writer.close()
    result = read_journal(str(path))
    assert result.torn
    assert [e.seq for e in result.events] == [0, 1, 2]


def test_non_advancing_seq_ends_the_strict_prefix(tmp_path):
    """A CRC-valid frame whose seq does not advance (a duplicated block)
    is damage: the prefix stops before it and keeps every frame before
    it."""
    path = tmp_path / "j"
    writer = JournalWriter(str(path))
    for seq in (0, 1, 2, 1, 3):
        writer.append(make_event(seq))
    writer.close()
    result = read_journal(str(path))
    assert result.torn
    assert result.torn_segment == str(path)
    assert [e.seq for e in result.events] == [0, 1, 2]


def test_closed_writer_refuses_appends(tmp_path):
    writer = JournalWriter(str(tmp_path / "j"))
    writer.close()
    assert writer.closed
    with pytest.raises(JournalError):
        writer.append(make_event(0))


# ----------------------------------------------------------------------
# rotation
# ----------------------------------------------------------------------

def test_rotation_stitches_segments_in_order(tmp_path):
    path = tmp_path / "j"
    writer = write_events(path, 300, max_bytes=4096, max_segments=8)
    assert writer.rotations >= 1
    assert len(segment_paths(str(path))) == writer.rotations + 1
    result = read_journal(str(path))
    assert not result.torn
    assert result.segments_read == writer.rotations + 1
    assert [e.seq for e in result.events] == list(range(300))


def test_rotation_prunes_oldest_segments(tmp_path):
    path = tmp_path / "j"
    writer = write_events(path, 600, max_bytes=4096, max_segments=2)
    assert writer.rotations >= 2
    assert len(segment_paths(str(path))) <= 2
    result = read_journal(str(path))
    assert not result.torn
    # pruning loses the oldest frames but never tears the survivors: the
    # kept events are a contiguous run ending at the newest frame
    seqs = [e.seq for e in result.events]
    assert seqs[0] > 0
    assert seqs[-1] == 599
    assert seqs == list(range(seqs[0], 600))


def test_torn_tail_in_rotated_stream_keeps_older_segments(tmp_path):
    path = tmp_path / "j"
    write_events(path, 300, max_bytes=4096, max_segments=8)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF  # corrupt only the newest segment's last frame
    path.write_bytes(bytes(data))
    result = read_journal(str(path))
    assert result.torn
    assert result.torn_segment == str(path)
    seqs = [e.seq for e in result.events]
    assert seqs == list(range(0, 299))  # everything but the corrupt frame
