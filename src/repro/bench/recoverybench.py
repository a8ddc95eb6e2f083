"""Recovery/replay pressure bench: crash the journaled session at sampled
frame offsets and measure what recovery gets back.

Not a paper table — this quantifies the crash-safety extension
(DESIGN.md §9): for each workload/seed pair, a clean journaled run is
recorded, then the session is killed at frame offsets sampled across the
whole journal (``stride`` controls density; ``stride=1`` is the
exhaustive acceptance sweep).  Every crash is followed by a full
recovery — salvage and check, pinned re-execution — so the
table reports how many crash points resumed, how many frames the torn
journals salvaged on average, and whether every re-execution stayed
deterministic and postmortem-clean (the offline checker agrees with
every online verdict of the clean run).
"""

from repro.bench.render import Table
from repro.core.config import KivatiConfig, Mode, OptLevel
from repro.core.session import ProtectedProgram
from repro.faults.chaos import CHAOS_SRC
from repro.journal.checker import check_events
from repro.journal.format import JournalWriter
from repro.journal.recovery import crash_at_frame, recover
from repro.journal.replay import record_run, report_verdicts

import os
import tempfile

DEFAULT_SEEDS = (0, 1, 2)

#: Two-thread check-then-act race kept deliberately tiny so dense crash
#: sampling stays cheap.
SMALL_SRC = """
int x = 0;

void careful() {
    int i = 0;
    while (i < 3) {
        int t = x;
        sleep(400);
        x = t + 1;
        i = i + 1;
    }
}

void racer() {
    int j = 0;
    while (j < 3) {
        sleep(150);
        x = x + 10;
        j = j + 1;
    }
}

void main() {
    spawn careful();
    spawn racer();
    join();
    output(x);
}
"""

WORKLOADS = (("small-race", SMALL_SRC), ("chaos", CHAOS_SRC))


def bench_config(**overrides):
    kwargs = dict(opt=OptLevel.BASE, mode=Mode.PREVENTION)
    kwargs.update(overrides)
    return KivatiConfig(**kwargs)


class RecoveryCase:
    """All sampled crash points for one (workload, seed) pair."""

    __slots__ = ("name", "seed", "frames", "crash_points", "resumed",
                 "aborted", "salvaged_total", "divergences",
                 "postmortem_clean", "problems")

    def __init__(self, name, seed, frames):
        self.name = name
        self.seed = seed
        self.frames = frames
        self.crash_points = 0
        self.resumed = 0
        self.aborted = 0
        self.salvaged_total = 0
        self.divergences = 0
        self.postmortem_clean = True
        self.problems = []

    @property
    def ok(self):
        return not self.problems

    @property
    def salvage_pct(self):
        if not self.crash_points:
            return 0.0
        return 100.0 * self.salvaged_total / (self.crash_points * self.frames)


class RecoveryBenchResult:
    def __init__(self, table, cases):
        self.table = table
        self.rows = table.rows
        self.cases = cases

    def render(self):
        return self.table.render()

    def check(self):
        """Invariant problems (empty list = every crash point recovered)."""
        return [p for case in self.cases for p in case.problems]


def _run_case(name, source, seed, stride, workdir):
    program = ProtectedProgram(source)
    config = bench_config(seed=seed)
    report, recorder = record_run(program, config, seed=seed)
    case = RecoveryCase(name, seed, len(recorder.events))

    # checker agreement on the clean run rides along for free
    check = check_events(recorder.events)
    if not (check.agrees and check.verdicts == report_verdicts(report)):
        case.postmortem_clean = False
        case.problems.append("%s seed=%d: checker disagreement on the "
                             "clean run" % (name, seed))

    for frame in range(1, case.frames, stride):
        path = os.path.join(workdir, "%s-%d-%d.journal" % (name, seed, frame))
        crash = crash_at_frame(program, config, frame,
                               JournalWriter(path), torn=frame % 2)
        if crash is None:
            case.problems.append("%s seed=%d: crash at frame %d never fired"
                                 % (name, seed, frame))
            continue
        case.crash_points += 1
        result = recover(program, path)
        case.salvaged_total += len(result.salvaged)
        if result.ok:
            case.resumed += 1
            if result.report.output != report.output:
                case.divergences += 1
                case.problems.append(
                    "%s seed=%d frame=%d: recovered output %r != %r"
                    % (name, seed, frame, result.report.output,
                       report.output))
        else:
            case.aborted += 1
            case.problems.append("%s seed=%d frame=%d: recovery aborted (%s)"
                                 % (name, seed, frame, result.reason))
        # salvage must never lose a pre-crash frame
        if len(result.salvaged) != frame:
            case.divergences += 1
            case.problems.append(
                "%s seed=%d frame=%d: salvaged %d frames, expected %d"
                % (name, seed, frame, len(result.salvaged), frame))
    return case


def generate(seeds=DEFAULT_SEEDS, stride=7, workloads=WORKLOADS):
    """Run the pressure sweep; returns a :class:`RecoveryBenchResult`.

    ``stride`` samples every Nth frame boundary; the journal test suite
    covers stride=1 on the small workload, so the bench default trades
    density for breadth across seeds and workloads.
    """
    cases = []
    with tempfile.TemporaryDirectory(prefix="kivati-recovery-") as workdir:
        for name, source in workloads:
            for seed in seeds:
                cases.append(_run_case(name, source, seed, stride, workdir))

    table = Table(
        "Recovery bench: crash-at-frame sweep over journaled runs",
        ["workload", "seed", "frames", "crashes", "resumed", "aborted",
         "salvage%", "postmortem", "ok"],
        note="each crash point = one torn journal salvaged, checked "
             "and re-executed pinned to the recorded schedule; salvage% = "
             "mean fraction of the full journal recovered per crash",
    )
    for case in cases:
        table.add_row(
            case.name, case.seed, case.frames, case.crash_points,
            case.resumed, case.aborted, "%.1f" % case.salvage_pct,
            "clean" if case.postmortem_clean else "DISAGREES",
            "yes" if case.ok else "NO",
        )
    return RecoveryBenchResult(table, cases)
