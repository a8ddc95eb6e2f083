"""The journal recorder: the runtime's one event sink, optionally backed
by disk.

The machine, kernel and runtime call ``emit(time_ns, tid, kind,
**details)``; every event is framed and (when a writer is attached)
flushed to disk immediately — the journal is the durable record. The
same events feed replay, recovery, the offline checker, AR spans and
the forensic view (:meth:`JournalRecorder.render_violation`): the
paper's diagnosability claim (thread ids, the variable's address and
the pcs involved, Section 5) rides on the ``trigger``, ``undo`` and
``violation`` frames.

Crash injection: when a :class:`repro.faults.plan.FaultInjector` whose
plan schedules ``journal.crash`` is attached, each frame append is an
opportunity; when the point fires the writer emits a torn partial frame
(unless ``param torn=0``) and raises :class:`JournalCrash`, simulating
the monitoring process dying mid-write.
"""

from repro.errors import JournalCrash
from repro.journal.events import JournalEvent, jsonable


class JournalRecorder:
    """Collects journal events in order; optionally streams them to a
    :class:`repro.journal.format.JournalWriter`."""

    def __init__(self, writer=None, faults=None, max_events=None):
        self.writer = writer
        self.faults = faults
        #: Optional in-memory bound (the disk side is bounded by
        #: rotation); evictions are counted, never silent.
        self.max_events = max_events
        self.events = []
        self.dropped = 0
        self._seq = 0

    # ------------------------------------------------------------------

    def emit(self, time_ns, tid, kind, **details):
        """Record one event; returns it (mostly for tests)."""
        event = JournalEvent(self._seq, time_ns, tid, kind,
                             {k: jsonable(v) for k, v in details.items()})
        self._seq += 1
        if (self.faults is not None
                and self.faults.fires("journal.crash", time_ns,
                                      frame=event.seq, kind=kind)):
            if self.writer is not None:
                if self.faults.param("journal.crash", "torn", 1):
                    torn_bytes = self.faults.param("journal.crash",
                                                   "torn_bytes")
                    self.writer.append_torn(event, torn_bytes)
                self.writer.close()
            raise JournalCrash(len(self.events), time_ns)
        if self.writer is not None:
            self.writer.append(event)
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.dropped += 1
        else:
            self.events.append(event)
        return event

    def close(self):
        if self.writer is not None:
            self.writer.close()

    # ------------------------------------------------------------------

    def filter(self, kinds=None, tid=None):
        if isinstance(kinds, str):
            kinds = (kinds,)
        return [e for e in self.events
                if (kinds is None or e.kind in kinds)
                and (tid is None or e.tid == tid)]

    def render(self, events=None, limit=200):
        """Chronological text listing of ``events`` (default: all)."""
        events = self.events if events is None else events
        lines = [e.describe() for e in events[:limit]]
        if len(events) > limit:
            lines.append("... %d more events" % (len(events) - limit))
        if self.dropped:
            lines.append("... %d events dropped (max_events=%d)"
                         % (self.dropped, self.max_events))
        return "\n".join(lines)

    def render_violation(self, violation, window_ns=100_000):
        """The forensic view: every event within ``window_ns`` of one
        recorded :class:`repro.core.reports.ViolationRecord` (less the
        run-start config header)."""
        nearby = [e for e in self.events if e.kind != "run-start"
                  and abs(e.time_ns - violation.time_ns) <= window_ns]
        return "violation: %s\n%s" % (violation.describe(),
                                       self.render(nearby))

    def __len__(self):
        return len(self.events)

    def __repr__(self):
        return "JournalRecorder(%d events%s)" % (
            len(self.events),
            ", disk" if self.writer is not None else "")
