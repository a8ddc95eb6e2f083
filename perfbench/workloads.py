"""The benchmark's three workloads and their oracles.

Each workload is a closed loop with one client: ``make_input(index)``
builds the next input from the workload seed (never timed), and
``run_op(input)`` calls the program's public entry points and returns an
:class:`OpRecord` whose oracle verdict holds for any seed.  Inputs are a
pure function of ``(seed, index)``, so the first ``window`` operations
of a seed, and their exact counts, repeat in every run.

The configurations below are written out instead of imported from
``repro.bench``: they mirror the table benches' settings (OS time
constants scaled by 1000, Section 6) and the fuzz campaign's detection
posture, and this benchmark must not change when that package does.
"""

import hashlib
import json
import os
import time
from collections import Counter
from itertools import islice
from random import Random

from repro.core.config import KivatiConfig, Mode, OptLevel
from repro.core.session import ProtectedProgram
from repro.fuzz.generator import FuzzParams, generate_source
from repro.journal.checker import check_events, check_journal
from repro.journal.format import JournalWriter, segment_paths
from repro.journal.recorder import JournalRecorder
from repro.machine.costs import CostModel
from repro.workloads.apps import build_specomp
from repro.workloads.catalog import workload_suite

from perfbench.journalgen import SyntheticJournal

MS = 1_000_000
#: divisor on the paper's millisecond-scale OS time constants
TIME_SCALE = 1000


def prevention_config():
    """Prevention mode, all four optimizations, scaled time constants."""
    return KivatiConfig(mode=Mode.PREVENTION, opt=OptLevel.OPTIMIZED,
                        pause_ns=20 * MS // TIME_SCALE,
                        suspend_timeout_ns=10 * MS // TIME_SCALE,
                        whitelist_reread_ns=500 * MS // TIME_SCALE,
                        pause_probability=0.02)


def fuzz_detection_config(threads):
    """Bug-finding mode with one core per thread (plus main), frequent
    timer ticks and a 100k-instruction bound: the fuzz campaign's
    detection posture."""
    return KivatiConfig(mode=Mode.BUG_FINDING, opt=OptLevel.OPTIMIZED,
                        pause_ns=20 * MS // TIME_SCALE,
                        suspend_timeout_ns=10 * MS // TIME_SCALE,
                        whitelist_reread_ns=500 * MS // TIME_SCALE,
                        pause_probability=0.25,
                        num_cores=threads + 1,
                        costs=CostModel(timer_tick=100, timer_tick_cost=3,
                                        quantum=4_000),
                        max_steps=100_000)


class OpRecord:
    """Outcome of one operation.

    ``problems`` lists every oracle failure (empty when the operation
    passed).  ``counts`` are exact simulated counts that repeat for a
    seed; ``work`` holds host-side amounts (seconds, instructions,
    events) for throughput metrics; ``digest`` fingerprints the outputs
    and verdict multiset; ``client_s`` is time the operation spent off
    the clock (generating its own input, or re-running to explain its
    result), which the harness takes off its duration.
    """

    __slots__ = ("problems", "counts", "work", "digest", "key",
                 "client_s", "seconds")

    def __init__(self, problems, counts=None, work=None, digest_items=None,
                 key=None, client_s=0.0):
        self.problems = list(problems)
        self.counts = counts or {}
        self.work = work or {}
        self.digest = _digest(digest_items)
        self.key = key
        self.client_s = client_s
        self.seconds = 0.0

    @property
    def ok(self):
        return not self.problems


def failed_record(detail):
    return OpRecord([detail])


def _digest(items):
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report_verdicts(report):
    return sorted((v.ar_id, v.local_tid, v.remote_tid, str(v.first_kind),
                   str(v.remote_kind), str(v.second_kind), v.prevented)
                  for v in report.violations)


def _kernel_counts(stats):
    return {"ars_executed": stats.total_ars_executed(),
            "crossings": stats.crossings(),
            "traps": stats.traps,
            "suspensions": stats.suspensions,
            "undos": stats.undos,
            "violations": stats.violations,
            "unprevented": stats.unprevented_violations}


# -- oracles ---------------------------------------------------------------


def apps_oracle(workload, vanilla, report):
    """Problems with one app's vanilla and protected runs: both outputs
    must pass the app's own validator and neither run may deadlock or
    fault.  Unprevented violations are judged by :func:`zombie_oracle`.
    """
    problems = []
    for label, result in (("vanilla", vanilla), ("protected", report.result)):
        if not workload.check_output(result.output):
            problems.append("%s output %r rejected" % (label, result.output))
        if result.deadlocked:
            problems.append("%s run deadlocked" % label)
        if result.fault is not None:
            problems.append("%s run faulted: %s" % (label, result.fault))
    return problems


def zombie_oracle(report, again, events):
    """Problems with a prevention run's unprevented violations, read off
    ``again``, a re-run of the same seed that journaled ``events``.

    The paper's prevention is best effort in one way only: when a
    suspension times out (or a watchdog breaks a wait cycle, or the
    arbiter preempts a watchpoint), the AR becomes a zombie and its late
    end records its violations as unprevented.  So every unprevented
    violation must be journaled right after the zombie end of its own
    AR; one after a live AR's end means a trigger was not undone.  The
    re-run must reproduce the run exactly for this to speak for it.
    """
    problems = []
    if ((again.time_ns, _report_verdicts(again))
            != (report.time_ns, _report_verdicts(report))):
        problems.append("journaled re-run differs from the run")
    last_end = {}
    unexplained = 0
    for event in events:
        if event.kind == "end":
            last_end[event.tid] = (event.payload["ar"],
                                   event.payload["zombie"])
        elif event.kind == "violation" and not event.payload["prevented"]:
            unexplained += last_end.get(event.tid) != (event.payload["ar"],
                                                       True)
    if unexplained:
        problems.append("%d unprevented violation(s) of an AR that was "
                        "not zombified" % unexplained)
    return problems


def late_zombie_triggers(events):
    """Count, per (AR, local tid, remote tid), the trap triggers that
    the kernel journaled after the watchdog break that the trap's own
    suspension caused had zombified the AR.

    This is a known kernel defect, left in place: ``on_trap`` suspends
    the remote thread before it appends the trap's trigger to the slot.
    When that suspension closes a wait cycle, the watchdog zombifies the
    slot's ARs with a copy of the triggers taken before the append.  The
    woken thread then redoes its access inside the zombie's window, but
    the zombie's late end never sees it.  So the online verdicts lack
    the unprevented verdict that the checker derives from the journal:
    a watchdog frame by the trapping thread, the zombify frames of that
    (slot, gen) epoch, then the trap's undone trigger, all at one
    instant.
    """
    late = Counter()
    breaks = {}  # remote tid -> ((slot, gen, time), [(ar, local tid)])
    for event in events:
        payload = event.payload
        if event.kind == "watchdog":
            breaks[event.tid] = ((payload["slot"], payload["gen"],
                                  event.time_ns), [])
        elif event.kind == "zombify":
            epoch = (payload["slot"], payload["gen"], event.time_ns)
            for key, zombies in breaks.values():
                if key == epoch:
                    zombies.append((payload["ar"], event.tid))
        elif event.kind == "trigger" and event.tid in breaks:
            key, zombies = breaks.pop(event.tid)
            if (key == (payload["slot"], payload["gen"], event.time_ns)
                    and payload["undone"] and not payload["via_begin"]):
                for ar, local in zombies:
                    late[(ar, local, event.tid)] += 1
    return late


def known_defect_verdicts(check, events):
    """The checker-only verdicts that :func:`late_zombie_triggers`
    explains, or None if any disagreement is not of that kind: the
    journal must be intact, nothing anomalous, every online verdict
    matched, and each extra checker verdict an unprevented one of a
    zombie AR against the remote thread of one of its late triggers, no
    more of them than there are such triggers."""
    checker, online = Counter(check.verdicts), Counter(check.online)
    if not check.complete or check.anomalies or online - checker:
        return None
    extra = checker - online
    late = late_zombie_triggers(events)
    per_pair = Counter()
    for verdict, count in extra.items():
        if verdict[-1]:  # prevented
            return None
        per_pair[verdict[:3]] += count  # (ar, local tid, remote tid)
    if any(count > late[pair] for pair, count in per_pair.items()):
        return None
    return sum(extra.values())


def fuzz_oracle(report, check, known_defect=None):
    """The checker must agree with the online detector on an intact
    journal, and the run must finish.  A disagreement that
    :func:`known_defect_verdicts` explains (its count is passed as
    ``known_defect``) is not a problem; the caller reports it apart."""
    problems = []
    if report.result.deadlocked:
        problems.append("run deadlocked")
    if report.result.fault is not None:
        problems.append("run faulted: %s" % report.result.fault)
    if not check.agrees and known_defect is None:
        problems.append("checker status %s: %d disagreement(s), %d "
                        "anomal(ies)" % (check.status,
                                         len(check.disagreements),
                                         len(check.anomalies)))
    return problems


def journal_oracle(result, expected):
    """The checker must reproduce the generator's verdict multiset with
    a clean pass over the whole journal."""
    problems = []
    if result.status != "pass":
        problems.append("checker status %s" % result.status)
    if result.coverage != 1.0:
        problems.append("coverage %.6f" % result.coverage)
    if result.verdicts != expected:
        problems.append("verdict multiset differs: %d checked vs %d "
                        "expected" % (len(result.verdicts), len(expected)))
    return problems


# -- workloads -------------------------------------------------------------


#: the stack warm-up program: the generator's default shape
WARMUP_PARAMS = FuzzParams()


def warm_stack(workdir):
    """Take one small generated program through every layer once:
    prepare it, run it protected with a journal on disk, and check the
    journal from the file.  Every workload's set-up starts with this, so
    no layer pays first-call costs inside a timed operation."""
    program = ProtectedProgram(generate_source(WARMUP_PARAMS, 0))
    path = os.path.join(workdir, "warmup-%d.kvj" % os.getpid())
    try:
        recorder = JournalRecorder(writer=JournalWriter(path))
        program.run(prevention_config().copy(journal=recorder), seed=0)
        check_journal(path)
    finally:
        for segment in segment_paths(path):
            os.unlink(segment)


class AppsWorkload:
    """The five application models, each run vanilla and protected on
    the same seed; programs are prepared once, during set-up."""

    name = "apps"
    #: every app once: the exact-count window
    window = 5
    op_timeout_s = 60.0
    #: per-thread work of workload_suite; SPEC OMP sits at its floor
    scale = 0.1
    #: steps of SPEC OMP's element kernel, cut from the suite's 90 so
    #: that its operation takes about as long as the other four apps'
    #: (0.7-1.8 s each) rather than ~10 s, which would leave a run a
    #: handful of samples
    specomp_kernel = 9
    #: host seconds of one vanilla + protected pass over the five apps
    #: on a 2-vCPU Xeon host (3.5-6 s)
    nominal_pass_s = 4.0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.config = prevention_config()
        self.apps = []
        self.programs = []

    def setup(self):
        warm_stack(self.workdir)
        self.apps = workload_suite(self.scale)
        self.apps[-1] = build_specomp(rounds=2, kernel=self.specomp_kernel)
        self.programs = [ProtectedProgram(app.source) for app in self.apps]
        # warm-up: the first app on a seed no operation uses
        self.run_op((0, -1))

    def make_input(self, index):
        """(app index, run seed): passes over the apps in suite order,
        one run seed per pass."""
        return index % len(self.apps), self.seed * 7919 + index // len(
            self.apps)

    def op_count(self, seconds):
        """As many whole passes as fit in ``seconds`` at the nominal
        pass time, and at least one.

        A fixed amount of work, rather than a time limit, keeps the app
        mix and run seeds identical in every run of a seed, so a faster
        commit is compared on the same operations as its parent: the
        five apps' durations overlap, and a different number of passes
        would shift the percentiles by itself.
        """
        passes = max(1, int(seconds // self.nominal_pass_s))
        return passes * len(self.apps)

    def run_op(self, inp):
        app_index, run_seed = inp
        app, program = self.apps[app_index], self.programs[app_index]
        config = self.config
        start = time.perf_counter()
        vanilla = program.run_vanilla(num_cores=config.num_cores,
                                      costs=config.costs, seed=run_seed)
        middle = time.perf_counter()
        report = program.run(config, seed=run_seed)
        end = time.perf_counter()
        counts = {"vanilla_instrs": vanilla.instr_count,
                  "vanilla_time_ns": vanilla.time_ns,
                  "instrs": report.result.instr_count,
                  "sim_time_ns": report.time_ns}
        counts.update(_kernel_counts(report.stats))
        work = {"vanilla_s": middle - start, "protected_s": end - middle}
        problems = apps_oracle(app, vanilla, report)
        rerun_s = 0.0
        if report.stats.unprevented_violations:
            # the journal stays off in timed runs: explain unprevented
            # violations from a journaled re-run, off the clock
            rerun_start = time.perf_counter()
            recorder = JournalRecorder()
            again = program.run(config.copy(journal=recorder),
                                seed=run_seed)
            problems += zombie_oracle(report, again, recorder.events)
            rerun_s = time.perf_counter() - rerun_start
        return OpRecord(problems, counts, work,
                        [app.name, run_seed, vanilla.output, report.output,
                         _report_verdicts(report)],
                        key=app.name, client_s=rerun_s)


class FuzzInput:
    __slots__ = ("params", "source", "run_seed")

    def __init__(self, params, source, run_seed):
        self.params = params
        self.source = source
        self.run_seed = run_seed


class FuzzWorkload:
    """Distinct generated programs, each prepared, run under the fuzz
    detection config with an in-memory journal, and checked."""

    name = "fuzz"
    window = 20
    op_timeout_s = 10.0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        warm_stack(self.workdir)
        self.run_op(self.make_input(-1))

    def make_input(self, index):
        rng = Random(self.seed * 1_000_003 + index)
        params = FuzzParams.sampled(rng)
        gen_seed = rng.randrange(1 << 30)
        run_seed = rng.randrange(1 << 30)
        return FuzzInput(params, generate_source(params, gen_seed), run_seed)

    def op_count(self, seconds):
        """None: run until ``seconds`` have passed."""
        return None

    def run_op(self, inp):
        program = ProtectedProgram(inp.source)
        recorder = JournalRecorder()
        config = fuzz_detection_config(inp.params.threads)
        start = time.perf_counter()
        report = program.run(config.copy(journal=recorder),
                             seed=inp.run_seed)
        run_s = time.perf_counter() - start
        check = check_events(recorder.events)
        counts = {"instrs": report.result.instr_count,
                  "sim_time_ns": report.time_ns,
                  "events": len(recorder.events),
                  "ars": program.num_ars,
                  "static_safe_ars": len(program.static_safe_ar_ids)}
        counts.update(_kernel_counts(report.stats))
        known = (None if check.agrees
                 else known_defect_verdicts(check, recorder.events))
        counts["known_defect_verdicts"] = known or 0
        return OpRecord(fuzz_oracle(report, check, known), counts,
                        {"protected_s": run_s},
                        [inp.run_seed, report.output,
                         [list(v) for v in check.verdicts]],
                        key=hashlib.sha256(
                            inp.source.encode("utf-8")).hexdigest())


class JournalWorkload:
    """Synthetic journals appended through JournalWriter, then checked
    from disk with check_journal."""

    name = "journal"
    window = 2
    op_timeout_s = 20.0
    events = 25_000
    warmup_events = 2_000
    #: segment size: a journal spans three segments, as a 10^5-event
    #: one does at the writer's default 4 MiB
    segment_bytes = 1 << 20
    #: events generated, then appended, per batch
    batch = 1024

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.path = os.path.join(workdir, "journal-%d.kvj" % os.getpid())

    def setup(self):
        warm_stack(self.workdir)
        self.run_op(SyntheticJournal(self.seed * 1_000_003 - 1,
                                     self.warmup_events))

    def make_input(self, index):
        return SyntheticJournal(self.seed * 1_000_003 + index, self.events)

    def op_count(self, seconds):
        """None: run until ``seconds`` have passed."""
        return None

    def _write(self, journal):
        """Append every event, timing the appends apart from generating
        the next batch; returns (generate_s, append_s, writer)."""
        generate_s = append_s = 0.0
        writer = JournalWriter(self.path, max_bytes=self.segment_bytes)
        try:
            events = iter(journal)
            while True:
                start = time.perf_counter()
                batch = list(islice(events, self.batch))
                middle = time.perf_counter()
                generate_s += middle - start
                if not batch:
                    break
                for event in batch:
                    writer.append(event)
                append_s += time.perf_counter() - middle
        finally:
            writer.close()
        return generate_s, append_s, writer

    def _remove(self):
        for path in segment_paths(self.path):
            os.unlink(path)

    def run_op(self, journal):
        self._remove()
        try:
            generate_s, append_s, writer = self._write(journal)
            start = time.perf_counter()
            result = check_journal(self.path)
            check_s = time.perf_counter() - start
        finally:
            self._remove()
        n_events = writer.frames_written
        counts = {"events": n_events,
                  "verdicts": len(result.verdicts),
                  "retained_triggers_peak":
                      result.stats.retained_triggers_peak,
                  "rotations": writer.rotations}
        return OpRecord(journal_oracle(result, journal.expected), counts,
                        {"append_s": append_s, "check_s": check_s,
                         "events": n_events},
                        [journal.seed, [list(v) for v in result.verdicts]],
                        key=journal.seed, client_s=generate_s)


WORKLOADS = {cls.name: cls
             for cls in (AppsWorkload, FuzzWorkload, JournalWorkload)}
