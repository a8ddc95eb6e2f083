"""Crash-safe incident journal with deterministic replay.

The journal is the run's one event stream: every runtime, kernel and
machine event goes through :class:`JournalRecorder`, in memory or
streamed to disk, so anything a production deployment flags can be
reproduced, audited and checked after a crash. The package:

- :mod:`repro.journal.events` — the canonical event model shared by the
  recorder, the reader, the replay engine and the offline checker;
- :mod:`repro.journal.format` — a CRC-framed, append-only, bounded-
  rotation on-disk format and its writer (the one frame encoder);
- :mod:`repro.journal.stream` — the one reader (the one frame
  decoder): a streaming reader that resynchronizes past mid-file damage
  and accounts for every skipped byte, plus its strict prefix view
  :func:`read_journal`, which tolerates a torn tail (it stops at the
  first damage and keeps everything before it);
- :mod:`repro.journal.recorder` — the runtime sink: scheduler decisions,
  begin/end/clear_atomic, triggers, suspensions, timeouts, watchdog
  breaks, undo operations and degradations stream through it, optionally
  to disk; it also renders the forensic view around a violation;
- :mod:`repro.journal.replay` — deterministic replay of a recorded run,
  pinned to the journaled schedule, with a first-divergence detector;
- :mod:`repro.journal.checker` — the one fold of a journal into state:
  the sound-and-complete streaming offline checker (RegionTrack-style)
  re-derives and cross-checks every online verdict without
  re-execution, in bounded memory, with explicit partial coverage on
  damaged journals, and decides what counts as a well-formed journal;
- :mod:`repro.journal.recovery` — crash recovery: salvage the strict
  prefix, check it, and resume (by verified re-execution) or abort
  cleanly.
"""

from repro.journal.checker import (CheckResult, StreamingChecker,
                                   check_events, check_journal)
from repro.journal.events import JournalEvent, decode_event, encode_event
from repro.journal.format import JournalWriter
from repro.journal.recorder import JournalRecorder
from repro.journal.stream import (Corruption, EventStream, JournalReadResult,
                                  read_journal)

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
]
