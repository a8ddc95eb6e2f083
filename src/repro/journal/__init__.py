"""Crash-safe incident journal with deterministic replay.

The journal is the run's one event stream: every runtime, kernel and
machine event goes through :class:`JournalRecorder`, in memory or
streamed to disk, so anything a production deployment flags can be
reproduced, audited and checked after a crash. The package:

- :mod:`repro.journal.events` — the canonical event model shared by the
  recorder, the reader, the replay engine and the offline checker;
- :mod:`repro.journal.format` — a CRC-framed, append-only, bounded-
  rotation on-disk format whose reader tolerates a torn tail (it
  truncates at the first corrupt frame and keeps everything before it);
- :mod:`repro.journal.recorder` — the runtime sink: scheduler decisions,
  begin/end/clear_atomic, triggers, suspensions, timeouts, watchdog
  breaks, undo operations and degradations stream through it, optionally
  to disk; it also renders the forensic view around a violation;
- :mod:`repro.journal.replay` — deterministic replay of a recorded run,
  pinned to the journaled schedule, with a first-divergence detector;
- :mod:`repro.journal.recovery` — crash recovery: reconstruct consistent
  AR-table and watchpoint state from the journal and resume (by verified
  re-execution) or abort cleanly;
- :mod:`repro.journal.stream` — a streaming, resynchronizing reader that
  scans past mid-file damage and accounts for every skipped byte;
- :mod:`repro.journal.checker` — the sound-and-complete streaming
  offline checker (RegionTrack-style): it re-derives and cross-checks
  every online verdict without re-execution, in bounded memory, with
  explicit partial coverage on damaged journals.
"""

from repro.journal.checker import (CheckResult, StreamingChecker,
                                   check_events, check_journal)
from repro.journal.events import JournalEvent, decode_event, encode_event
from repro.journal.format import (JournalReadResult, JournalWriter,
                                  read_journal)
from repro.journal.recorder import JournalRecorder
from repro.journal.stream import Corruption, EventStream, stream_events

__all__ = [
    "CheckResult",
    "Corruption",
    "EventStream",
    "JournalEvent",
    "JournalReadResult",
    "JournalRecorder",
    "JournalWriter",
    "StreamingChecker",
    "check_events",
    "check_journal",
    "decode_event",
    "encode_event",
    "read_journal",
    "stream_events",
]
