"""Journal recorder: in-memory sink, bounded-memory evictions, the
forensic view, disk streaming, crash injection."""

import os
import subprocess
import sys

import pytest

from repro.core.config import KivatiConfig, Mode, OptLevel
from repro.core.session import ProtectedProgram
from repro.errors import JournalCrash
from repro.faults.plan import FaultInjector, FaultPlan, FaultSpec
from repro.journal.format import JournalWriter
from repro.journal.stream import read_journal
from repro.journal.recorder import JournalRecorder
from repro.minic.ast import AccessKind


def test_emit_sequences_and_canonicalizes_payloads():
    recorder = JournalRecorder()
    first = recorder.emit(100, 1, "begin", ar=3, first=AccessKind.READ,
                          kinds=(AccessKind.READ, AccessKind.WRITE))
    second = recorder.emit(200, 2, "end", ar=3, zombie=False)
    assert (first.seq, second.seq) == (0, 1)
    assert first.payload == {"ar": 3, "first": "R", "kinds": ["R", "W"]}
    assert len(recorder) == 2
    assert recorder.filter("begin") == [first]
    assert recorder.filter(tid=2) == [second]


def test_max_events_bound_counts_evictions():
    recorder = JournalRecorder(max_events=3)
    for i in range(8):
        recorder.emit(i, 0, "sched", core=0)
    assert len(recorder.events) == 3
    assert recorder.dropped == 5
    assert "5 events dropped" in recorder.render()


@pytest.mark.parametrize("capacity, emitted",
                         [(5, 5), (5, 6), (3, 10), (1, 100), (3, 1000)])
def test_bounded_recorder_keeps_the_earliest_events(capacity, emitted):
    # once full, later emits are counted and discarded, never swapped in
    recorder = JournalRecorder(max_events=capacity)
    for i in range(emitted):
        recorder.emit(i * 10, i % 3, "begin", ar=i, addr=1000 + i)
    kept = min(capacity, emitted)
    assert [e.time_ns for e in recorder.events] == [10 * i
                                                    for i in range(kept)]
    assert recorder.dropped == emitted - kept
    if recorder.dropped:
        assert ("%d events dropped (max_events=%d)"
                % (recorder.dropped, capacity)) in recorder.render()
    else:
        assert "dropped" not in recorder.render()


_RENDER_SCRIPT = """\
from repro.journal.recorder import JournalRecorder

recorder = JournalRecorder(max_events=4)
for i in range(6):
    recorder.emit(i * 7, i % 2, "trigger",
                  ar=i, addr=2000 + i, zkey=i, akey=-i, mkey=i * i)
print(recorder.render())
"""


def test_render_is_hashseed_independent():
    outputs = set()
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        outputs.add(subprocess.run(
            [sys.executable, "-c", _RENDER_SCRIPT], env=env,
            capture_output=True, text=True, check=True).stdout)
    assert len(outputs) == 1
    out = outputs.pop()
    assert "akey" in out
    assert "2 events dropped (max_events=4)" in out


#: a two-thread check-then-act race: one trap, one undo, one suspension
#: and one prevented violation
RACY = """
int x = 0;
void local_thread() {
    int t = x;
    sleep(40000);
    x = t + 1;
}
void remote_thread() {
    sleep(15000);
    x = 99;
}
void main() {
    spawn local_thread();
    spawn remote_thread();
    join();
    output(x);
}
"""

#: the forensic view around RACY's violation (seed 1): the remote write
#: is undone and suspended, then the local end_atomic reports it
RACY_FORENSICS = """\
violation: AR 1 (x in local_thread): local tid 1 lines 4-6, remote tid 2 \
at remote_thread+5 (line 10), interleaving (R, W, W), addr 1024, t=0.047ms
#1           0.000us tid0   sched      core=0 pc=35
#2           0.432us tid1   sched      core=1 pc=0
#3           0.835us tid1   arm        addr=1024 gen=1 read=False size=1 \
slot=0 write=True
#4           0.835us tid1   begin      addr=1024 ar=1 first=R gen=1 \
joined=False slot=0 var=x
#5           4.432us tid2   sched      core=1 pc=25
#6           4.960us tid1   sched      core=1 pc=3
#7           5.372us tid1   arm        addr=16809982 gen=1 read=False \
size=1 slot=1 write=True
#8           5.372us tid1   begin      addr=16809982 ar=2 first=W gen=1 \
joined=False slot=1 var=t
#9           6.039us tid0   sched      core=1 pc=38
#10         19.960us tid2   sched      core=0 pc=28
#11         20.841us tid2   undo       addr=1024 gen=1 \
loc=remote_thread+5 (line 10) pc=30 slot=0
#12         20.841us tid2   suspend    addr=1024 gen=1 reason=trap slot=0
#13         20.841us tid2   trigger    gen=1 kinds=['W'] \
location=remote_thread+5 (line 10) pc=30 slot=0 undone=True \
via_begin=False
#14         46.039us tid1   sched      core=0 pc=13
#15         46.950us tid1   end        ar=1 begin_time=835 gen=1 \
had_triggers=True second=W slot=0 zombie=False
#16         46.950us tid1   violation  addr=1024 ar=1 first=R \
prevented=True remote=W remote_tid=2 second=W var=x
#17         46.950us tid1   disarm     addr=1024 gen=1 slot=0
#18         46.950us tid2   wake       reason=trap
#19         46.950us tid2   sched      core=1 pc=30
#20         47.044us tid1   end        ar=2 begin_time=5372 gen=1 \
had_triggers=False second=R slot=1 zombie=False
#21         47.044us tid1   disarm     addr=16809982 gen=1 slot=1
#22         47.489us tid0   sched      core=0 pc=39
#23         48.033us tid-   run-end    deadlocked=False instr_count=45 \
output=[99] unprevented=0 violations=1"""


def _run_racy(journal):
    return ProtectedProgram(RACY).run(
        KivatiConfig(opt=OptLevel.BASE, journal=journal), seed=1)


def test_violation_forensics_renders_context():
    recorder = JournalRecorder()
    report = _run_racy(recorder)
    assert recorder.render_violation(report.violations.records[0]) \
        == RACY_FORENSICS


def test_racy_run_journals_every_lifecycle_kind():
    recorder = JournalRecorder()
    _run_racy(recorder)
    assert {"begin", "end", "trigger", "undo", "suspend", "wake",
            "violation"} <= {e.kind for e in recorder.events}


def test_journal_is_chronological_per_thread():
    recorder = JournalRecorder()
    _run_racy(recorder)
    for tid in {e.tid for e in recorder.events}:
        times = [e.time_ns for e in recorder.events if e.tid == tid]
        assert times == sorted(times)


def test_journaling_leaves_the_run_unchanged():
    plain = _run_racy(None)
    journaled = _run_racy(JournalRecorder())
    assert journaled.output == plain.output
    assert journaled.time_ns == plain.time_ns


#: two racing read-modify-write loops: enough events to overflow a tiny
#: in-memory bound
EVICTION_SRC = """
int x = 0;

void worker() {
    int i = 0;
    while (i < 5) {
        int t = x;
        x = t + 1;
        i = i + 1;
    }
}

void main() {
    spawn worker();
    spawn worker();
    join();
    output(x);
}
"""


def _run_bounded(journal):
    return ProtectedProgram(EVICTION_SRC).run(
        KivatiConfig(opt=OptLevel.BASE, mode=Mode.PREVENTION,
                     journal=journal))


def test_eviction_is_counted_and_reported():
    recorder = JournalRecorder(max_events=3)
    report = _run_bounded(recorder)
    # the run-end frame is emitted (and dropped) after the stats are final
    dropped = recorder.dropped - 1
    assert dropped > 0
    assert report.stats.trace_dropped_events == dropped
    assert "trace_dropped=%d (ring buffer full)" % dropped \
        in report.summary()


@pytest.mark.parametrize("journal", [JournalRecorder, lambda: None],
                         ids=["unbounded", "no-journal"])
def test_no_eviction_stays_silent(journal):
    report = _run_bounded(journal())
    assert report.stats.trace_dropped_events == 0
    assert "trace_dropped" not in report.summary()


def test_disk_backed_recorder_streams_every_frame(tmp_path):
    path = str(tmp_path / "j")
    recorder = JournalRecorder(writer=JournalWriter(path))
    for i in range(6):
        recorder.emit(i * 10, i % 2, "sched", core=0, pc=i)
    recorder.close()
    result = read_journal(path)
    assert not result.torn
    assert [e.key() for e in result.events] \
        == [e.key() for e in recorder.events]


def _crash_plan(frame, **param):
    return FaultPlan("crash", [
        FaultSpec("journal.crash", probability=1.0, max_fires=1,
                  start_after=frame, param=param)])


def test_crash_injection_tears_the_frame_and_raises(tmp_path):
    path = str(tmp_path / "j")
    recorder = JournalRecorder(writer=JournalWriter(path),
                               faults=FaultInjector(_crash_plan(3, torn=1)))
    with pytest.raises(JournalCrash):
        for i in range(10):
            recorder.emit(i * 10, 0, "sched", core=0, pc=i)
    # frames before the crash survive; the torn tail is dropped
    result = read_journal(path)
    assert result.torn
    assert [e.seq for e in result.events] == [0, 1, 2]
    assert recorder.writer.closed


def test_crash_injection_with_clean_close_leaves_no_tear(tmp_path):
    path = str(tmp_path / "j")
    recorder = JournalRecorder(writer=JournalWriter(path),
                               faults=FaultInjector(_crash_plan(3, torn=0)))
    with pytest.raises(JournalCrash):
        for i in range(10):
            recorder.emit(i * 10, 0, "sched", core=0, pc=i)
    result = read_journal(path)
    # the stream is incomplete (no run-end) but frames cleanly
    assert not result.torn
    assert [e.seq for e in result.events] == [0, 1, 2]


def test_crash_injection_without_writer_still_raises():
    recorder = JournalRecorder(faults=FaultInjector(_crash_plan(2)))
    recorder.emit(0, 0, "sched", core=0)
    recorder.emit(1, 0, "sched", core=0)
    with pytest.raises(JournalCrash):
        recorder.emit(2, 0, "sched", core=0)
    assert len(recorder.events) == 2
