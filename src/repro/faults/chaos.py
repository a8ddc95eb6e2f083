"""Chaos suite: drive fault schedules through a contended program and
check the graceful-degradation invariants.

The contract under test (ISSUE 1, after Section 1 of the paper): under
*any* injected fault schedule the protected program

- always completes — no crash, no deadlock, no stuck thread (the
  suspension timeout and watchdog planes guarantee forward progress);
- is deterministic — the same (plan, seed) pair replays the exact same
  injected events, output, final time and statistics;
- degrades *visibly* — if the run diverges from the fault-free baseline
  on the same seed, at least one injected fault must be on record; a run
  in which nothing fired must be bit-identical to the baseline.

Divergence itself is allowed: a dropped trap legitimately loses a
prevention, timer jitter legitimately changes the interleaving. What is
never allowed is silent divergence.
"""

import os
import tempfile

from repro.core.config import KivatiConfig, Mode, OptLevel
from repro.faults.plan import FaultPlan, FaultSpec

#: Contended three-thread workload used by the built-in suite. `careful`
#: holds a long check-then-act AR on x; `mixer` runs a contending
#: read-modify-write AR on x, so its begins collide with careful's and
#: drive the suspension plane; `careless` writes x through a helper whose
#: single isolated store never forms an AR — a raw remote write that
#: lands inside careful's window and drives the trap/undo plane.
CHAOS_SRC = """
int x = 0;
int y = 0;

void blast(int v) {
    x = v;
}

void careful() {
    int i = 0;
    while (i < 6) {
        int t = x;
        sleep(2000);
        x = t + 1;
        i = i + 1;
    }
}

void careless() {
    int j = 0;
    while (j < 6) {
        sleep(700);
        y = y + 1;
        blast(50 + j);
        j = j + 1;
    }
}

void mixer() {
    int k = 0;
    while (k < 4) {
        sleep(1500);
        x = x + 10;
        k = k + 1;
    }
}

void main() {
    spawn careful();
    spawn careless();
    spawn mixer();
    join();
    output(x);
    output(y);
}
"""

#: Default seeds: three per schedule (the acceptance floor).
DEFAULT_SEEDS = (1, 2, 3)


class ChaosSchedule:
    """One named fault plan plus the evidence it is expected to leave.

    ``expect_stats`` lists KivatiStats counters whose sum over all seeds
    must be positive — proof the degradation plane engaged, not just that
    the fault fired. ``needs_whitelist_file`` makes the harness back the
    run with a real on-disk whitelist so the corruption point has
    opportunities to fire.
    """

    __slots__ = ("plan", "expect_stats", "needs_whitelist_file")

    def __init__(self, plan, expect_stats=(), needs_whitelist_file=False):
        self.plan = plan
        self.expect_stats = tuple(expect_stats)
        self.needs_whitelist_file = needs_whitelist_file

    @property
    def name(self):
        return self.plan.name


def builtin_schedules():
    """The built-in suite: every injection point, one schedule each."""
    return (
        ChaosSchedule(FaultPlan("drop-traps", [
            FaultSpec("machine.trap.drop", probability=0.7)])),
        ChaosSchedule(FaultPlan("duplicate-traps", [
            FaultSpec("machine.trap.duplicate", probability=1.0)]),
            expect_stats=("duplicate_traps_ignored",)),
        ChaosSchedule(FaultPlan("flaky-dr-slots", [
            FaultSpec("machine.dr.slot_fail", probability=1.0)]),
            expect_stats=("replica_resyncs",)),
        ChaosSchedule(FaultPlan("timer-jitter", [
            FaultSpec("machine.timer.jitter", probability=0.5,
                      param={"jitter_ns": 8000})])),
        ChaosSchedule(FaultPlan("crosscore-delay", [
            FaultSpec("kernel.crosscore.delay", probability=0.7)])),
        ChaosSchedule(FaultPlan("crosscore-lost", [
            FaultSpec("kernel.crosscore.lost", probability=0.7)]),
            expect_stats=("replica_resyncs",)),
        ChaosSchedule(FaultPlan("undo-failure", [
            FaultSpec("kernel.undo.fail", probability=1.0)]),
            expect_stats=("undo_faults_injected",)),
        ChaosSchedule(FaultPlan("lost-wakeups", [
            FaultSpec("kernel.wakeup.lost", probability=1.0)]),
            expect_stats=("suspend_timeouts",)),
        ChaosSchedule(FaultPlan("replica-corruption", [
            FaultSpec("runtime.replica.corrupt", probability=0.6)])),
        ChaosSchedule(FaultPlan("whitelist-corruption", [
            FaultSpec("runtime.whitelist.corrupt", probability=1.0)]),
            expect_stats=("whitelist_read_errors",),
            needs_whitelist_file=True),
    )


def default_config(**overrides):
    """BASE optimization level keeps every annotation in the kernel's
    face, which maximizes the surface the faults can hit."""
    kwargs = dict(opt=OptLevel.BASE, mode=Mode.PREVENTION)
    kwargs.update(overrides)
    return KivatiConfig(**kwargs)


class ChaosCase:
    """Outcome of one (plan, seed) chaos run against its baseline."""

    __slots__ = ("plan", "seed", "report", "baseline", "problems",
                 "check")

    def __init__(self, plan, seed, report, baseline, problems,
                 check=None):
        self.plan = plan
        self.seed = seed
        self.report = report
        self.baseline = baseline
        self.problems = problems
        #: CheckResult of the offline checker over the run's journal
        self.check = check

    @property
    def ok(self):
        return not self.problems

    @property
    def fired(self):
        return len(self.report.injected)

    def describe(self):
        status = "ok" if self.ok else "FAIL(%s)" % "; ".join(self.problems)
        return "%-22s seed=%d fired=%-3d degradations=%-3d %s" % (
            self.plan.name, self.seed, self.fired,
            len(self.report.degradations), status)


def _injected_ids(report):
    return [f.as_tuple() for f in report.injected]


def run_chaos_case(program, plan, seed, config, baseline=None):
    """Run one schedule on one seed; verify completion, determinism,
    fault attribution and checker agreement. Returns a
    :class:`ChaosCase`."""
    from repro.journal.checker import check_events
    from repro.journal.recorder import JournalRecorder
    from repro.journal.replay import report_verdicts

    journal = JournalRecorder()
    replay_journal = JournalRecorder()
    faulty = program.run(config.copy(faults=plan, seed=seed,
                                     journal=journal))
    replay = program.run(config.copy(faults=plan, seed=seed,
                                     journal=replay_journal))
    if baseline is None:
        # journaled as well so the stats comparison in invariant 3 stays
        # like-for-like (journal_frames is a stats field)
        baseline = program.run(config.copy(faults=None, seed=seed,
                                           journal=JournalRecorder()))

    problems = []
    result = faulty.result

    # 1. forward progress: the run always completes
    if result.fault is not None:
        problems.append("machine fault: %s" % (result.fault,))
    if result.deadlocked:
        problems.append("deadlocked")

    # 2. determinism: same plan + seed => identical replay
    if _injected_ids(faulty) != _injected_ids(replay):
        problems.append("injected events differ across replays")
    if (result.output != replay.result.output
            or result.time_ns != replay.result.time_ns
            or result.final_globals != replay.result.final_globals):
        problems.append("program outcome differs across replays")
    if faulty.stats.as_dict() != replay.stats.as_dict():
        problems.append("stats differ across replays")
    if ([e.key() for e in journal.events]
            != [e.key() for e in replay_journal.events]):
        problems.append("journal event streams differ across replays")

    # 3. attribution: no fault fired => bit-identical to fault-free run
    if not faulty.injected:
        base = baseline.result
        if (result.output != base.output
                or result.final_globals != base.final_globals
                or result.time_ns != base.time_ns):
            problems.append("diverged from baseline with no fault fired")
        if faulty.stats.as_dict() != baseline.stats.as_dict():
            problems.append("stats diverged with no fault fired")

    # 4. checker: the offline serializability checker must agree with
    # every online verdict, even under injected faults, and its verdicts
    # must be the run report's
    check = check_events(journal.events)
    if not check.agrees:
        problems.append("checker disagreement (%s: %d verdicts, %d "
                        "anomalies)" % (check.status,
                                        len(check.disagreements),
                                        len(check.anomalies)))
    elif check.verdicts != report_verdicts(faulty):
        problems.append("checker verdicts do not match the run report")

    # 5. pressure accounting: every slot leak the watchdog detected was
    # reclaimed, and every arbiter decision left a journal record (both
    # trivially 0 == 0 when the pressure plane is off)
    stats = faulty.stats
    if stats.slots_leaked != stats.slots_reclaimed:
        problems.append("slot accounting: %d leaked != %d reclaimed"
                        % (stats.slots_leaked, stats.slots_reclaimed))
    arbiter_events = sum(1 for e in journal.events if e.kind == "arbiter")
    arbiter_decisions = stats.arbiter_preemptions + stats.arbiter_denials
    if arbiter_events != arbiter_decisions:
        problems.append("arbiter decisions unjournaled: %d events for %d "
                        "decisions" % (arbiter_events, arbiter_decisions))

    return ChaosCase(plan, seed, faulty, baseline, problems, check)


class ChaosReport:
    """Aggregate over the whole suite."""

    __slots__ = ("cases", "schedule_problems")

    def __init__(self, cases, schedule_problems):
        self.cases = cases
        self.schedule_problems = schedule_problems

    @property
    def ok(self):
        return (not self.schedule_problems
                and all(case.ok for case in self.cases))

    @property
    def failures(self):
        return ([case for case in self.cases if not case.ok],
                self.schedule_problems)

    def describe(self):
        lines = [case.describe() for case in self.cases]
        for problem in self.schedule_problems:
            lines.append("SCHEDULE FAIL: %s" % problem)
        lines.append("chaos: %d cases, %d failed, %d schedule problems"
                     % (len(self.cases),
                        sum(1 for c in self.cases if not c.ok),
                        len(self.schedule_problems)))
        return "\n".join(lines)


def run_chaos_suite(program=None, schedules=None, seeds=DEFAULT_SEEDS,
                    config=None, require_fires=True):
    """Run every schedule on every seed; returns a :class:`ChaosReport`.

    Per-schedule checks on top of the per-case invariants: each schedule
    must actually fire at least once across its seeds (disable with
    ``require_fires=False`` for arbitrary user programs that may never
    reach some injection points), and each of its ``expect_stats``
    counters must be positive in aggregate.
    """
    if program is None:
        from repro.core.session import ProtectedProgram
        program = ProtectedProgram(CHAOS_SRC)
    if schedules is None:
        schedules = builtin_schedules()
    base_config = config if config is not None else default_config()

    cases = []
    schedule_problems = []
    for schedule in schedules:
        cfg = base_config
        wl_path = None
        if schedule.needs_whitelist_file:
            fd, wl_path = tempfile.mkstemp(suffix=".whitelist")
            with os.fdopen(fd, "w") as f:
                f.write("# chaos whitelist\n")
            cfg = base_config.copy(whitelist_path=wl_path,
                                   whitelist_reread_ns=2000)
        try:
            total_fired = 0
            totals = {name: 0 for name in schedule.expect_stats}
            for seed in seeds:
                case = run_chaos_case(program, schedule.plan, seed, cfg)
                cases.append(case)
                total_fired += case.fired
                for name in schedule.expect_stats:
                    totals[name] += getattr(case.report.stats, name)
            if require_fires and total_fired == 0:
                schedule_problems.append(
                    "%s: never fired on seeds %r" % (schedule.name, seeds))
            for name, total in totals.items():
                if total == 0:
                    schedule_problems.append(
                        "%s: expected stat %r stayed zero"
                        % (schedule.name, name))
        finally:
            if wl_path is not None:
                os.unlink(wl_path)
    return ChaosReport(cases, schedule_problems)
