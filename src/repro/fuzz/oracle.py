"""The fuzz oracle: one generated program, every evaluator cross-checked.

A fuzz campaign is only as good as its notion of "wrong".  For each
generated program the oracle runs the online detector once with a
journal attached, then demands these views agree:

- **reverify** — the sound-and-complete streaming checker
  (``repro.journal.checker``) re-derives every verdict from the journal
  alone, RegionTrack-style, and must reproduce the online verdict
  multiset exactly with no anomalies;
- **report** — the RunReport's ViolationRecords match the checker's
  verdicts (the user-facing path tells the same story);
- **replay** — the recording replays pinned, frame-for-frame, with the
  same verdict multiset (``repro.journal.replay``);
- **checker** — the checker's completeness claim is right: it calls
  the intact recording ``complete``, and never a drilled (lossy) one;
- **conflict** — with a core per thread the ``conflict_sched=True``
  policy is inert by construction, so a PREVENTION-mode run pair
  (base vs policy) must produce identical verdicts (the PR 7
  transparency claim, now checked on every generated program).

Any disagreement, anomaly, pin divergence or deadlock is a
*divergence*: the campaign minimizes and archives it.

The ``drop-trigger`` drill deliberately removes the first remote
``trigger`` frame from the journal before the offline pass — simulated
journal loss.  On a program with a real violation this manufactures an
honest online-vs-offline disagreement (``drill-reverify``), which is
how the minimizer, archiver and CI gates are exercised without waiting
for a genuine detector bug.  Drill divergences are labeled as such
everywhere.  The checker sees the drilled journal's sequence gap, so it
must report it as *partial*, never as complete.
"""

from repro.core.config import Mode
from repro.journal.checker import check_events
from repro.journal.replay import record_run, replay_run, report_verdicts

#: the one supported drill; campaign params carry it per job
DRILL_DROP_TRIGGER = "drop-trigger"


def drilled_events(events, drill):
    """Apply a journal-loss drill to an event list (pure)."""
    if drill != DRILL_DROP_TRIGGER:
        raise ValueError("unknown drill %r" % (drill,))
    dropped = False
    out = []
    for event in events:
        if not dropped and event.kind == "trigger":
            dropped = True
            continue
        out.append(event)
    return out


class CrossCheck:
    """Outcome of one oracle pass over one generated program."""

    __slots__ = ("online", "offline", "anomalies", "report_match",
                 "replay_ok", "replay_verdicts_match", "pin_divergences",
                 "conflict_match", "checker_claim_ok", "checker_status",
                 "deadlocked", "drill", "drill_diverged", "violations",
                 "violated_ars", "stats")

    def __init__(self, online, offline, anomalies, report_match, replay_ok,
                 replay_verdicts_match, pin_divergences, conflict_match,
                 checker_claim_ok, checker_status, deadlocked, drill,
                 drill_diverged, violations, violated_ars, stats):
        self.online = online
        self.offline = offline
        self.anomalies = list(anomalies)
        self.report_match = report_match
        self.replay_ok = replay_ok
        self.replay_verdicts_match = replay_verdicts_match
        self.pin_divergences = pin_divergences
        self.conflict_match = conflict_match
        #: the checker called the intact recording complete, and the
        #: drilled one (if any) not
        self.checker_claim_ok = checker_claim_ok
        self.checker_status = checker_status
        self.deadlocked = deadlocked
        self.drill = drill
        self.drill_diverged = drill_diverged
        self.violations = violations
        #: AR ids with multiplicity — the campaign's rebinning rounds
        #: fold these into the arbiter-shaped violation history
        self.violated_ars = list(violated_ars)
        self.stats = stats

    @property
    def divergences(self):
        """Divergence kind labels, worst first; empty when clean."""
        kinds = []
        if self.deadlocked:
            kinds.append("deadlock")
        if self.online != self.offline or self.anomalies:
            kinds.append("reverify")
        if not self.report_match:
            kinds.append("report")
        if not self.replay_ok or not self.replay_verdicts_match:
            kinds.append("replay")
        if not self.conflict_match:
            kinds.append("conflict")
        if not self.checker_claim_ok:
            kinds.append("checker")
        if self.drill_diverged:
            kinds.append("drill-reverify")
        return kinds

    @property
    def ok(self):
        return not self.divergences

    def as_payload(self):
        """Plain-JSON summary (fleet job payloads, archive metadata)."""
        return {
            "violations": self.violations,
            "violated_ars": self.violated_ars,
            "online": [list(v) for v in self.online],
            "offline": [list(v) for v in self.offline],
            "anomalies": list(self.anomalies),
            "report_match": self.report_match,
            "replay_ok": self.replay_ok,
            "replay_verdicts_match": self.replay_verdicts_match,
            "pin_divergences": self.pin_divergences,
            "conflict_match": self.conflict_match,
            "checker_claim_ok": self.checker_claim_ok,
            "checker_status": self.checker_status,
            "deadlocked": self.deadlocked,
            "drill": self.drill,
            "drill_diverged": self.drill_diverged,
            "divergences": self.divergences,
            "stats": self.stats,
        }

    def describe(self):
        if self.ok:
            return ("clean: %d violation(s), all evaluators agree"
                    % self.violations)
        return "DIVERGED (%s): %d violation(s)" % (
            ", ".join(self.divergences), self.violations)


def conflict_transparency(program, config, seed):
    """PREVENTION-mode verdicts with and without ``conflict_sched``.

    The oracle config has a core per thread, so the policy's
    oversubscription gate keeps it inert — any verdict difference is a
    transparency violation, not a legitimate reschedule.
    """
    prevention = config.copy(mode=Mode.PREVENTION, journal=None)
    base = program.run(prevention, seed=seed)
    conf = program.run(prevention.copy(conflict_sched=True), seed=seed)
    return report_verdicts(base) == report_verdicts(conf)


def cross_check(program, config, seed, drill=None, recorder=None,
                report=None):
    """Run the full oracle over ``program``; returns a CrossCheck.

    ``recorder``/``report`` may be passed in when the caller already
    recorded the run (the fleet worker does, so the journal lands on
    disk exactly once); otherwise the oracle records in memory.
    """
    if recorder is None or report is None:
        report, recorder = record_run(program, config, seed=seed)
    check = check_events(recorder.events)
    replay = replay_run(program, recorder)
    checker_claim_ok = check.complete
    drill_diverged = False
    if drill is not None:
        lossy = drilled_events(recorder.events, drill)
        drilled = check_events(lossy)
        drill_diverged = bool(drilled.disagreements)
        if len(lossy) < len(recorder.events) and drilled.complete:
            checker_claim_ok = False
    stats = {
        "instr_count": report.result.instr_count,
        "traps": report.stats.traps,
        "monitored_ars": report.stats.monitored_ars,
        "windows_checked": check.windows_checked,
    }
    return CrossCheck(
        online=check.online,
        offline=check.verdicts,
        anomalies=check.anomalies,
        report_match=report_verdicts(report) == check.verdicts,
        replay_ok=replay.ok,
        replay_verdicts_match=replay.verdicts_match,
        pin_divergences=len(replay.pin_divergences),
        conflict_match=conflict_transparency(program, config, seed),
        checker_claim_ok=checker_claim_ok,
        checker_status=check.status,
        deadlocked=bool(report.result.deadlocked),
        drill=drill,
        drill_diverged=drill_diverged,
        violations=len(report.violations),
        violated_ars=sorted(r.ar_id for r in report.violations),
        stats=stats,
    )


__all__ = ["CrossCheck", "DRILL_DROP_TRIGGER", "conflict_transparency",
           "cross_check", "drilled_events"]
