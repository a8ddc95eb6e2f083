"""The benchmark's own tests: smoke-sized runs of every workload, the
oracles catching tampered results, exact counts repeating per seed, and
the traced run's accounting."""

import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from perfbench import harness, tracing, workloads
from perfbench.journalgen import UNSERIALIZABLE, SyntheticJournal
from repro.analysis.watchtype import is_unserializable
from repro.core.session import ProtectedProgram
from repro.journal.events import JournalEvent
from repro.minic.ast import AccessKind
from repro.minic.parser import parse

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def small_journal_workload(seed, workdir):
    workload = workloads.JournalWorkload(seed, str(workdir))
    workload.events = 3_000
    workload.setup()
    return workload


def smoke(workload, count):
    records = harness.closed_loop(workload, count=count)
    assert [r.problems for r in records] == [[]] * count
    return records


# -- smoke runs and exact counts ------------------------------------------


def test_apps_smoke_repeats_exactly(tmp_path):
    first = workloads.AppsWorkload(3, str(tmp_path))
    first.setup()
    second = workloads.AppsWorkload(3, str(tmp_path))
    second.setup()
    # NSS and VLC: the two short apps keep the smoke run small
    a, b = smoke(first, 2), smoke(second, 2)
    assert harness.exact_counts(a, 2) == harness.exact_counts(b, 2)
    assert a[0].counts["instrs"] > 0 and a[0].counts["vanilla_instrs"] > 0


def test_fuzz_smoke_repeats_exactly_and_sources_are_distinct(tmp_path):
    make = lambda seed: workloads.FuzzWorkload(seed, str(tmp_path))
    a, b, other = smoke(make(5), 6), smoke(make(5), 6), smoke(make(6), 6)
    assert harness.exact_counts(a, 6) == harness.exact_counts(b, 6)
    assert harness.exact_counts(a, 6)[1] != harness.exact_counts(other, 6)[1]
    assert len({r.key for r in a + other}) == 12
    assert sum(r.counts["events"] for r in a) > 0


def test_journal_smoke_repeats_exactly(tmp_path):
    a = smoke(small_journal_workload(2, tmp_path), 2)
    b = smoke(small_journal_workload(2, tmp_path), 2)
    counts, digest = harness.exact_counts(a, 2)
    assert (counts, digest) == harness.exact_counts(b, 2)
    assert counts["events"] >= 2 * 2_990 and counts["verdicts"] > 0
    assert os.listdir(tmp_path) == []


def test_generator_table_is_figure_2():
    triples = itertools.product("RW", repeat=3)
    assert UNSERIALIZABLE == {
        t for t in triples
        if is_unserializable(*(AccessKind(k) for k in t))}


def test_generator_is_deterministic_and_sized():
    a, b = SyntheticJournal(7, 500), SyntheticJournal(7, 500)
    keys = [e.key() for e in a]
    assert keys == [e.key() for e in b]
    assert a.expected == b.expected and a.expected
    assert 488 <= len(keys) <= 500
    assert [k[0] for k in keys] == list(range(len(keys)))


def test_breaks_are_spread_over_the_run_and_off_its_clock():
    log = []
    workload = SimpleNamespace(
        window=1, op_timeout_s=5.0, op_count=lambda seconds: None,
        make_input=lambda index: index,
        run_op=lambda index: (log.append(index), time.sleep(0.001))
        and workloads.OpRecord([]))

    def pause():
        log.append("break")
        time.sleep(0.05)

    harness.closed_loop(workload, count=8, breaks=[pause] * 3)
    assert log == [0, 1, "break", 2, 3, "break", 4, 5, "break", 6, 7]
    log.clear()
    start = time.perf_counter()
    records = harness.closed_loop(workload, seconds=0.2, breaks=[pause] * 3)
    assert log.count("break") == 3
    assert time.perf_counter() - start >= 0.35 and len(records) > 3


# -- oracles count tampered results as failures ---------------------------


def test_tampered_app_output_counts_as_failed(tmp_path):
    workload = workloads.AppsWorkload(1, str(tmp_path))
    workload.setup()
    program = workload.programs[0]
    real = program.run_vanilla

    def tampered(**kwargs):
        result = real(**kwargs)
        result.output = list(result.output) + [12345]
        return result

    program.run_vanilla = tampered
    records = harness.closed_loop(workload, count=2)
    assert not records[0].ok and "vanilla output" in records[0].problems[0]
    assert records[1].ok


def test_tampered_fuzz_journal_counts_as_failed(tmp_path, monkeypatch):
    real = workloads.check_events

    def with_forged_violation(events):
        events = list(events)
        end = events[-1]
        forged = JournalEvent(end.seq, end.time_ns, 0, "violation",
                              {"ar": 0, "remote_tid": 1, "first": "R",
                               "remote": "W", "second": "R",
                               "prevented": True})
        moved = JournalEvent(end.seq + 1, end.time_ns, end.tid, end.kind,
                             end.payload)
        return real(events[:-1] + [forged, moved])

    monkeypatch.setattr(workloads, "check_events", with_forged_violation)
    records = harness.closed_loop(workloads.FuzzWorkload(1, str(tmp_path)),
                                  count=2)
    assert all(not r.ok for r in records)
    assert "disagreement" in records[0].problems[0]


def late_trigger_journal(trigger_tid=1, via_begin=False):
    """A watchdog break by thread 1 zombifies thread 3's AR 47 on epoch
    (2, 1); the trap's trigger follows at the same instant."""
    def frame(seq, tid, kind, **payload):
        return JournalEvent(seq, 500, tid, kind, payload)
    return [frame(0, 1, "watchdog", cycle=[1, 3], slot=2, gen=1),
            frame(1, 3, "zombify", ar=47, slot=2, gen=1, begin_time=400),
            frame(2, 2, "zombify", ar=9, slot=0, gen=4, begin_time=400),
            frame(3, trigger_tid, "trigger", slot=2, gen=1, kinds=["W"],
                  pc=110, undone=True, via_begin=via_begin)]


def test_late_zombie_triggers_match_only_the_defect_pattern():
    assert workloads.late_zombie_triggers(late_trigger_journal()) == {
        (47, 3, 1): 1}
    assert not workloads.late_zombie_triggers(late_trigger_journal(2))
    assert not workloads.late_zombie_triggers(
        late_trigger_journal(via_begin=True))


def test_only_the_known_defect_is_excused():
    extra = (47, 3, 1, "R", "W", "W", False)
    events = late_trigger_journal()

    def check(verdicts, online, complete=True, anomalies=()):
        return SimpleNamespace(verdicts=verdicts, online=online,
                               complete=complete, anomalies=list(anomalies))

    assert workloads.known_defect_verdicts(check([extra], []), events) == 1
    for bad in (check([extra, extra], []),              # one late trigger
                check([extra[:-1] + (True,)], []),      # prevented
                check([(47, 3, 2) + extra[3:]], []),    # other remote
                check([], [extra]),                     # online-only
                check([extra], [], complete=False),
                check([extra], [], anomalies=["x"])):
        assert workloads.known_defect_verdicts(bad, events) is None
    assert workloads.known_defect_verdicts(
        check([extra], []), late_trigger_journal(2)) is None


def test_real_known_defect_op_passes_and_is_counted(tmp_path):
    # seed 319457628, operation 550: a 3-thread program whose trap
    # suspension closes a wait cycle; the watchdog zombifies AR 47
    # before the trap's trigger reaches the slot
    workload = workloads.FuzzWorkload(319457628, str(tmp_path))
    record = workload.run_op(workload.make_input(550))
    assert record.ok
    assert record.counts["known_defect_verdicts"] == 1, (
        "the online detector now agrees here: drop the known-defect "
        "allowance from workloads.fuzz_oracle")


def test_tampered_expected_multiset_counts_as_failed(tmp_path, monkeypatch):
    workload = small_journal_workload(4, tmp_path)

    class DroppedVerdict(SyntheticJournal):
        def __iter__(self):
            yield from SyntheticJournal.__iter__(self)
            self.expected = self.expected[1:]

    real = workload.make_input
    monkeypatch.setattr(
        workload, "make_input",
        lambda i: (DroppedVerdict(real(i).seed, workload.events) if i == 0
                   else real(i)))
    records = harness.closed_loop(workload, count=2)
    assert not records[0].ok and "multiset" in records[0].problems[0]
    assert records[1].ok


def test_exception_and_timeout_count_as_failed(tmp_path, monkeypatch):
    workload = small_journal_workload(1, tmp_path)
    real = workload.run_op
    calls = []

    def flaky(inp):
        calls.append(1)
        if len(calls) == 1:
            raise ValueError("boom")
        if len(calls) == 2:
            time.sleep(5)
        return real(inp)

    monkeypatch.setattr(workload, "run_op", flaky)
    monkeypatch.setattr(workload, "op_timeout_s", 0.2)
    records = harness.closed_loop(workload, count=3)
    assert "ValueError: boom" in records[0].problems[0]
    assert "timed out" in records[1].problems[0]
    assert records[2].ok


def test_deadlocked_or_faulted_runs_fail():
    result = SimpleNamespace(deadlocked=True, fault=None, output=[])
    check = SimpleNamespace(agrees=True)
    assert workloads.fuzz_oracle(SimpleNamespace(result=result), check)
    ok = SimpleNamespace(deadlocked=False, fault=None, output=[1])
    faulted = SimpleNamespace(deadlocked=False, fault="bad pc", output=[1])
    app = SimpleNamespace(check_output=lambda out: True)
    assert workloads.apps_oracle(app, ok, SimpleNamespace(result=ok)) == []
    assert workloads.apps_oracle(app, ok, SimpleNamespace(result=faulted))


def test_unprevented_violations_must_come_from_zombified_ars():
    report = SimpleNamespace(time_ns=10, violations=[])

    def journal(zombie):
        return [JournalEvent(0, 1, 2, "end", {"ar": 7, "zombie": zombie}),
                JournalEvent(1, 1, 2, "violation",
                             {"ar": 7, "prevented": False})]

    assert workloads.zombie_oracle(report, report, journal(True)) == []
    assert "not zombified" in workloads.zombie_oracle(
        report, report, journal(False))[0]
    other = SimpleNamespace(time_ns=11, violations=[])
    assert "re-run differs" in workloads.zombie_oracle(
        report, other, journal(True))[0]


def test_real_unprevented_violations_are_explained(tmp_path, monkeypatch):
    # seed 2, operation 7: Webstone's second pass, whose suspensions
    # time out and leave violations unprevented
    workload = workloads.AppsWorkload(2, str(tmp_path))
    workload.setup()
    inp = workload.make_input(7)
    record = workload.run_op(inp)
    assert record.key == "Webstone" and record.counts["unprevented"] > 0
    assert record.ok and record.client_s > 0

    class Unzombied(workloads.JournalRecorder):
        def emit(self, time_ns, tid, kind, **details):
            if kind == "end":
                details["zombie"] = False
            return super().emit(time_ns, tid, kind, **details)

    monkeypatch.setattr(workloads, "JournalRecorder", Unzombied)
    tampered = workload.run_op(inp)
    assert not tampered.ok and "not zombified" in tampered.problems[0]


def test_nesting_errors_catch_open_and_stray_spans():
    tracer = tracing.Tracer()
    spans = [(0, 100, -1, 0), (10, 40, 0, 0), (50, 90, 0, 0)]

    def load(rows):
        for column in (tracer.name, tracer.start, tracer.end, tracer.parent,
                       tracer.op):
            del column[:]
        for start, end, parent, op in rows:
            tracer.name.append(0)
            tracer.start.append(start)
            tracer.end.append(end)
            tracer.parent.append(parent)
            tracer.op.append(op)
        return tracer.nesting_errors()

    assert load(spans) == 0
    assert load(spans + [(95, 0, 0, 0)]) == 1          # left open
    assert load(spans + [(95, 120, 0, 0)]) == 1        # outside parent
    assert load(spans + [(30, 45, 0, 0)]) == 1         # overlaps sibling
    assert load(spans + [(92, 95, 0, 1)]) == 1         # other operation


# -- the traced run ---------------------------------------------------------


@pytest.mark.parametrize("name", ["fuzz", "journal"])
def test_traced_run_reconciles_and_restores(tmp_path, monkeypatch, name):
    monkeypatch.setattr(workloads.JournalWorkload, "events", 3_000)
    spans_path = str(tmp_path / "run.spans")
    workload = workloads.WORKLOADS[name](3, str(tmp_path))
    workload.setup()
    run = harness.traced_run(workload, 0.2, spans_path)
    assert run["checks"] == []
    assert all(r.ok for r in run["records"])
    metrics = run["metrics"]
    layer_sum = sum(metrics[m] for m in harness.SELF_TIME_METRICS.values())
    assert layer_sum + metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.traced_s"], abs=1e-6)
    assert metrics["journal.coverage"] == 1.0
    assert metrics["minic.parse_calls"] > 0
    # the span file alone gives back every self time
    spans = tracing.read_spans(spans_path)
    assert len(spans) == metrics["trace.spans"]
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    machine_self = sum(end - start - child[i]
                       for i, (span, start, end, _, _) in enumerate(spans)
                       if span == "machine.run")
    assert machine_self / 1e9 == pytest.approx(metrics["machine.self_s"])
    # every wrapper is gone again
    from repro.core import session
    assert session.parse is parse
    assert "traced" not in ProtectedProgram.__init__.__qualname__


# -- the command ------------------------------------------------------------


def test_command_prints_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz",
         "--seed", "2", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert {(k, v["unit"]) for k, v in last["metrics"].items()} == {
        (m["name"], m["unit"]) for m in declared["end_to_end"]}
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert "ops_failed_frac" in out.stdout and "exact.digest" in out.stdout


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "apps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0 and out.stdout == ""
