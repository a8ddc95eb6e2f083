"""Deterministic replay of a journaled run.

A journal is replayable because every source of scheduling freedom in the
simulation is either a pure function of the seed (jitter, pause sampling,
fault decisions — all restored from the run-start config snapshot) or an
explicit journaled decision (``sched`` events).  Replay re-executes the
program under the snapshot config with a :class:`SchedulePin` that forces
each scheduler decision to pick the journaled thread, then compares the
fresh event stream frame-by-frame against the recording.

The divergence detector reports the *first* mismatching event — by
construction every later mismatch is noise caused by the first one.
"""

from repro.errors import JournalError
from repro.journal.recorder import JournalRecorder
from repro.journal.snapshot import (config_from_snapshot, config_snapshot,
                                    source_digest)
from repro.journal.stream import read_journal
from repro.machine.threads import ThreadState


def events_from(obj):
    """Normalize a journal argument: path, JournalReadResult, recorder or
    plain event list; returns (events, torn)."""
    if isinstance(obj, str):
        result = read_journal(obj)
        return list(result.events), result.torn
    if isinstance(obj, JournalRecorder):
        return list(obj.events), False
    if hasattr(obj, "events"):  # JournalReadResult
        return list(obj.events), bool(getattr(obj, "torn", False))
    return list(obj), False


def run_start_snapshot(events):
    """The config snapshot carried by the journal's run-start header."""
    for event in events:
        if event.kind == "run-start":
            return event.payload.get("config")
    raise JournalError("journal has no run-start header (torn at frame 0?)")


class SchedulePin:
    """Forces Machine scheduling decisions to follow a recorded journal.

    ``select`` is consulted before the natural run-queue pop; it removes
    and returns the journaled thread when that thread is runnable.  When
    the pinned thread is unavailable but others are, the pin records a
    divergence and falls back to natural scheduling — replay never hangs
    on a journal that no longer matches the program.
    """

    def __init__(self, sched_events):
        self._decisions = [(e.payload.get("core"), e.tid)
                           for e in sched_events if e.kind == "sched"]
        self._cursor = 0
        self.divergences = []  # (decision index, wanted tid, note)

    @property
    def exhausted(self):
        return self._cursor >= len(self._decisions)

    @property
    def consumed(self):
        return self._cursor

    def select(self, machine, core):
        if self.exhausted:
            return None
        want_core, want_tid = self._decisions[self._cursor]
        queue = machine.run_queue
        for i, cand in enumerate(queue):
            if (cand == want_tid
                    and machine.threads[cand].state == ThreadState.RUNNABLE):
                del queue[i]
                if want_core != core.index:
                    self.divergences.append(
                        (self._cursor, want_tid,
                         "ran on core %d, recorded core %s"
                         % (core.index, want_core)))
                self._cursor += 1
                return cand
        if any(machine.threads[cand].state == ThreadState.RUNNABLE
               for cand in queue):
            # the journaled thread cannot run here but another can: note
            # the divergence, skip the decision, schedule naturally
            self.divergences.append(
                (self._cursor, want_tid, "pinned thread not runnable"))
            self._cursor += 1
        return None


class Divergence:
    """First point where the replayed stream departs from the recording."""

    __slots__ = ("index", "recorded", "replayed", "reason")

    def __init__(self, index, recorded, replayed, reason):
        self.index = index
        self.recorded = recorded
        self.replayed = replayed
        self.reason = reason

    def describe(self):
        lines = ["first divergence at event %d: %s" % (self.index, self.reason)]
        if self.recorded is not None:
            lines.append("  recorded: %s" % self.recorded.describe())
        if self.replayed is not None:
            lines.append("  replayed: %s" % self.replayed.describe())
        return "\n".join(lines)

    def __repr__(self):
        return "Divergence(index=%d, %s)" % (self.index, self.reason)


def first_divergence(recorded, replayed, allow_longer_replay=False):
    """Frame-by-frame comparison; returns a :class:`Divergence` or None.

    ``allow_longer_replay`` accepts a replayed stream that extends past
    the end of the recording — the recovery path uses it to check that a
    torn journal is a clean prefix of the re-executed run.
    """
    for i in range(min(len(recorded), len(replayed))):
        if recorded[i].key() != replayed[i].key():
            return Divergence(i, recorded[i], replayed[i],
                              "event mismatch")
    if len(recorded) > len(replayed):
        i = len(replayed)
        return Divergence(i, recorded[i], None,
                          "replay ended %d events early"
                          % (len(recorded) - len(replayed)))
    if len(replayed) > len(recorded) and not allow_longer_replay:
        i = len(recorded)
        return Divergence(i, None, replayed[i],
                          "replay produced %d extra events"
                          % (len(replayed) - len(recorded)))
    return None


def violation_verdict(event):
    """The verdict tuple a ``violation`` frame journals: (ar, local tid,
    remote tid, first, remote, second, prevented)."""
    p = event.payload
    return (p.get("ar"), event.tid, p.get("remote_tid"), p.get("first"),
            p.get("remote"), p.get("second"), bool(p.get("prevented")))


def verdict_multiset(events):
    """Canonical multiset of violation verdicts in an event stream."""
    return sorted(violation_verdict(event) for event in events
                  if event.kind == "violation")


def report_verdicts(report):
    """The same multiset built from a RunReport's ViolationRecords."""
    return sorted(
        (r.ar_id, r.local_tid, r.remote_tid, str(r.first_kind),
         str(r.remote_kind), str(r.second_kind), bool(r.prevented))
        for r in report.violations)


class ReplayResult:
    """Outcome of one deterministic replay."""

    __slots__ = ("report", "recorded", "replayed", "divergence",
                 "pin_divergences", "torn", "config")

    def __init__(self, report, recorded, replayed, divergence,
                 pin_divergences, torn, config):
        self.report = report
        self.recorded = recorded
        self.replayed = replayed
        self.divergence = divergence
        self.pin_divergences = list(pin_divergences)
        self.torn = torn
        self.config = config

    @property
    def ok(self):
        return self.divergence is None and not self.pin_divergences

    @property
    def verdicts_match(self):
        return (verdict_multiset(self.recorded)
                == verdict_multiset(self.replayed[:len(self.recorded)]
                                    if self.torn else self.replayed))

    def describe(self):
        lines = ["replay of %d recorded events%s: %s"
                 % (len(self.recorded), " (torn journal)" if self.torn else "",
                    "DETERMINISTIC" if self.ok else "DIVERGED")]
        if self.divergence is not None:
            lines.append(self.divergence.describe())
        for index, tid, note in self.pin_divergences:
            lines.append("  sched decision %d (tid %d): %s"
                         % (index, tid, note))
        lines.append("verdicts %s" % ("match" if self.verdicts_match
                                      else "MISMATCH"))
        return "\n".join(lines)


def record_run(program, config=None, seed=None, writer=None):
    """Run ``program`` with a journal attached; returns (report, recorder)."""
    from repro.core.config import KivatiConfig

    config = config or KivatiConfig()
    recorder = JournalRecorder(writer=writer)
    report = program.run(config.copy(journal=recorder), seed=seed)
    return report, recorder


def replay_run(program, journal, check_source=True, pin=True,
               drop_fault_points=()):
    """Re-execute ``program`` pinned to a journaled schedule.

    ``journal`` is a path, JournalReadResult, JournalRecorder or event
    list.  The run's config is rebuilt from the run-start snapshot; the
    replay records into a fresh in-memory journal which is compared
    frame-by-frame against the recording.  A journal with no run-end
    frame (torn tail or crashed recorder) is treated as a prefix: the
    replay may legitimately run past its end.  ``drop_fault_points``
    strips injection points (recovery removes ``journal.crash`` so the
    replay outlives the recorded crash).
    """
    recorded, torn = events_from(journal)
    snapshot = run_start_snapshot(recorded)
    if check_source:
        want = snapshot.get("source_sha256")
        if want is not None and want != source_digest(program.source):
            raise JournalError(
                "journal was recorded from a different program "
                "(source hash %s... != %s...)"
                % (want[:12], source_digest(program.source)[:12]))
    config = config_from_snapshot(snapshot,
                                  drop_fault_points=drop_fault_points)
    recorder = JournalRecorder()
    schedule_pin = SchedulePin(recorded) if pin else None
    report = program.run(config.copy(journal=recorder),
                         schedule_pin=schedule_pin)
    incomplete = torn or not any(e.kind == "run-end" for e in recorded)
    offset = 0
    if (drop_fault_points and recorded and recorder.events
            and recorded[0].kind == "run-start"
            and recorder.events[0].kind == "run-start"):
        # the rebuilt header legitimately differs: it lost the stripped
        # fault points; compare from the first execution event instead
        offset = 1
    divergence = first_divergence(recorded[offset:], recorder.events[offset:],
                                  allow_longer_replay=incomplete)
    if divergence is not None:
        divergence.index += offset
    return ReplayResult(report, recorded, recorder.events, divergence,
                        schedule_pin.divergences if schedule_pin is not None
                        else [], incomplete, config)


__all__ = ["Divergence", "ReplayResult", "SchedulePin", "events_from",
           "first_divergence", "record_run", "replay_run",
           "report_verdicts", "run_start_snapshot", "verdict_multiset",
           "violation_verdict"]
