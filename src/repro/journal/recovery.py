"""Crash recovery from a torn journal.

A monitoring session that dies mid-run (provoked on demand by the
``journal.crash`` injection point) leaves behind a journal that ends at
an arbitrary frame boundary, possibly with a torn partial frame after it.
Recovery proceeds in two steps:

1. **Salvage** — the strict prefix reader
   (:func:`repro.journal.stream.read_journal`) keeps every complete
   frame before the first damage, and the streaming checker, the one
   fold of a journal into state, folds them into the kernel/runtime
   state they imply (armed watchpoint slots, open AR windows, suspended
   threads, zombie ARs) and checks that state's consistency: a prefix
   whose events contradict each other, or skip a sequence number, lost
   frames — it was not just torn.
2. **Resume or abort** — a simulated machine cannot continue from the
   middle of a run, so "resume" means deterministic re-execution: rebuild
   the config from the run-start header (stripping ``journal.crash`` so
   the re-run outlives the recorded crash), replay pinned to the salvaged
   schedule, and verify the salvaged frames are a clean prefix of the
   fresh stream.  Any contradiction aborts cleanly with the first
   divergence in hand.
"""

from repro.errors import JournalCrash, JournalError
from repro.journal.checker import check_events
from repro.journal.recorder import JournalRecorder
from repro.journal.replay import replay_run
from repro.journal.stream import read_journal


class RecoveryResult:
    """Outcome of one crash-recovery attempt."""

    __slots__ = ("action", "reason", "salvaged", "torn", "check", "replay")

    def __init__(self, action, reason, salvaged, torn, check, replay):
        self.action = action      # "resumed" or "aborted"
        self.reason = reason
        self.salvaged = salvaged  # events recovered from the journal
        self.torn = torn
        self.check = check        # CheckResult of the salvage, or None
        self.replay = replay      # ReplayResult or None

    @property
    def ok(self):
        return self.action == "resumed"

    @property
    def report(self):
        return self.replay.report if self.replay is not None else None

    def describe(self):
        lines = ["recovery: %s (%s); salvaged %d frames%s"
                 % (self.action.upper(), self.reason, len(self.salvaged),
                    ", torn tail" if self.torn else "")]
        if self.check is not None:
            lines.append(self.check.describe())
        if self.replay is not None and self.replay.divergence is not None:
            lines.append(self.replay.divergence.describe())
        return "\n".join(lines)


class SalvageResult:
    """Step 1 of recovery, without re-execution: what a torn journal
    yields once read up to its first damage and checked.

    The fleet supervisor uses this to triage a crashed worker's journal
    cheaply (frames salvaged, internal consistency, whether the header
    survived) before deciding to pay for a full deterministic re-run.
    """

    __slots__ = ("path", "events", "check", "torn", "reason")

    def __init__(self, path, events, check, torn, reason):
        self.path = path
        self.events = events
        self.check = check        # CheckResult, or None with no frames
        self.torn = torn
        self.reason = reason

    @property
    def ok(self):
        """True when the salvaged frames describe a usable prefix: at
        least one frame, a surviving run-start header, and no internal
        contradictions (contradictions mean frames were *lost*, not just
        torn off the tail)."""
        return (self.check is not None and self.check.header is not None
                and self.check.consistent)

    def describe(self):
        return "salvage of %s: %d frames%s — %s" % (
            self.path, len(self.events),
            ", torn tail" if self.torn else "", self.reason)


def salvage(journal_path):
    """Read the strict prefix of a (possibly torn) journal and check it.

    Never raises: an unreadable journal is reported as an empty, not-ok
    salvage.  This is the triage step of :func:`recover` and of the
    fleet supervisor's crashed-worker handling.
    """
    try:
        result = read_journal(journal_path)
    except JournalError as exc:
        return SalvageResult(journal_path, [], None, False,
                             "unreadable journal: %s" % exc)
    events = result.events
    if not events:
        return SalvageResult(journal_path, events, None, result.torn,
                             "no complete frame survived")
    check = check_events(events, damaged=result.torn)
    if check.header is None:
        reason = "run-start header lost (rotated away or torn)"
    elif not check.consistent:
        reason = ("journal is internally inconsistent (%d problems — "
                  "frames lost, not just torn)" % len(check.problems))
    else:
        reason = "%d frames form a consistent prefix" % len(events)
    return SalvageResult(journal_path, events, check, result.torn, reason)


def recover(program, journal_path):
    """Recover a crashed session from its on-disk journal."""
    salvaged = salvage(journal_path)
    events, torn, check = salvaged.events, salvaged.torn, salvaged.check
    if not salvaged.ok:
        return RecoveryResult("aborted", salvaged.reason, events, torn,
                              check, None)
    try:
        replay = replay_run(program, events,
                            drop_fault_points=("journal.crash",))
    except JournalCrash as exc:  # pragma: no cover - defense in depth
        return RecoveryResult("aborted", "re-execution crashed again: %s"
                              % exc, events, torn, check, None)
    if replay.divergence is not None:
        return RecoveryResult(
            "aborted", "salvaged frames are not a prefix of the "
            "re-executed run", events, torn, check, replay)
    return RecoveryResult(
        "resumed", "re-executed to completion; %d salvaged frames "
        "verified as a clean prefix" % len(events), events, torn, check,
        replay)


def crash_at_frame(program, config, frame, writer, torn=1):
    """Run ``program`` arranging a journal.crash at frame ``frame``.

    Returns the :class:`JournalCrash` that fired, or None when the run
    finished first (``frame`` past the journal's end).  The recorder is
    attached to ``writer`` so the crash leaves a real on-disk journal.
    """
    from repro.faults.plan import FaultPlan, FaultSpec

    specs = [FaultSpec("journal.crash", probability=1.0, max_fires=1,
                       start_after=frame, param={"torn": torn})]
    plan = config.faults
    if plan is not None:
        specs.extend(s for s in plan.specs if s.point != "journal.crash")
    crash_config = config.copy(
        faults=FaultPlan("crash-at-%d" % frame, specs),
        journal=JournalRecorder(writer=writer))
    try:
        program.run(crash_config)
    except JournalCrash as crash:
        return crash
    return None


__all__ = ["RecoveryResult", "SalvageResult", "crash_at_frame", "recover",
           "salvage"]
