"""Crash injection at every frame boundary and the recovery path."""

import pytest

from journal_common import base_config
from repro.journal.checker import check_events
from repro.journal.events import JournalEvent
from repro.journal.format import JournalWriter
from repro.journal.recovery import crash_at_frame, recover
from repro.journal.replay import record_run


@pytest.fixture(scope="module")
def recorded(racy_program):
    """One clean journaled run of the racy workload (the reference)."""
    return record_run(racy_program, base_config(), seed=0)


# ----------------------------------------------------------------------
# crash injection + recovery (the acceptance sweep)
# ----------------------------------------------------------------------

def test_crash_at_every_frame_boundary_recovers(racy_program, recorded,
                                                tmp_path):
    """Kill the session after every possible number of journal frames:
    recovery must never hang, never lose a pre-crash frame, and always
    verify the salvaged prefix against the re-executed run."""
    _report, recorder = recorded
    total = len(recorder.events)
    assert total > 20
    for frame in range(1, total):
        path = str(tmp_path / ("crash-%d.journal" % frame))
        crash = crash_at_frame(racy_program, base_config(seed=0), frame,
                               JournalWriter(path))
        assert crash is not None, "run finished before frame %d" % frame
        result = recover(racy_program, path)
        assert result.ok, "frame %d: %s" % (frame, result.describe())
        assert len(result.salvaged) == frame
        # the salvaged frames are exactly the recorded prefix (the
        # run-start header differs only by the injected crash plan,
        # which recovery strips)
        assert [e.key() for e in result.salvaged[1:]] \
            == [e.key() for e in recorder.events[1:frame]]
        assert result.replay.config.faults is None


def test_crash_before_any_frame_aborts_cleanly(racy_program, tmp_path):
    path = str(tmp_path / "crash-0.journal")
    crash = crash_at_frame(racy_program, base_config(seed=0), 0,
                           JournalWriter(path))
    assert crash is not None
    result = recover(racy_program, path)
    assert result.action == "aborted"
    assert "no complete frame" in result.reason


def test_clean_close_crash_still_recovers(racy_program, tmp_path):
    """torn=0 closes the file cleanly mid-run: not torn, but incomplete —
    recovery must still treat it as a prefix."""
    path = str(tmp_path / "clean-crash.journal")
    crash = crash_at_frame(racy_program, base_config(seed=0), 12,
                           JournalWriter(path), torn=0)
    assert crash is not None
    result = recover(racy_program, path)
    assert result.ok, result.describe()
    assert not result.torn
    assert len(result.salvaged) == 12


def test_recover_aborts_on_lost_header(racy_program, recorded, tmp_path):
    _report, recorder = recorded
    path = str(tmp_path / "headless.journal")
    writer = JournalWriter(path)
    for event in recorder.events[1:]:  # run-start rotated away
        writer.append(event)
    writer.close()
    result = recover(racy_program, path)
    assert result.action == "aborted"
    assert "header" in result.reason


def test_recover_aborts_on_lost_frames(racy_program, recorded, tmp_path):
    _report, recorder = recorded
    path = str(tmp_path / "gapped.journal")
    writer = JournalWriter(path)
    for i, event in enumerate(recorder.events):
        if i != 30:  # a frame vanished from the middle, not the tail
            writer.append(event)
    writer.close()
    result = recover(racy_program, path)
    assert result.action == "aborted"
    assert "inconsistent" in result.reason
    assert any("sequence gap" in p for p in result.check.problems)


def test_recovered_run_report_matches_the_original(racy_program, recorded,
                                                   tmp_path):
    report, recorder = recorded
    path = str(tmp_path / "mid.journal")
    frame = len(recorder.events) // 2
    crash_at_frame(racy_program, base_config(seed=0), frame,
                   JournalWriter(path))
    result = recover(racy_program, path)
    assert result.ok
    assert result.report.output == report.output
    assert len(result.report.violations) == len(report.violations)


# ----------------------------------------------------------------------
# state reconstruction
# ----------------------------------------------------------------------

def _ev(seq, kind, tid=0, **payload):
    return JournalEvent(seq, seq * 10, tid, kind, payload)


def test_full_journal_reconstructs_to_a_quiescent_state(recorded):
    _report, recorder = recorded
    state = check_events(recorder.events)
    assert state.consistent, state.describe()
    assert state.clean_close
    assert state.header is not None
    assert not state.windows and not state.suspended
    assert len(state.online) == len(recorder.filter("violation"))


def test_state_flags_disarm_generation_mismatch():
    state = check_events([
        _ev(0, "arm", slot=0, gen=1, addr=100),
        _ev(1, "disarm", slot=0, gen=2, addr=100),
    ])
    assert not state.consistent
    assert "disarm gen" in state.problems[0]


def test_state_flags_wake_without_suspend():
    state = check_events([_ev(0, "wake", tid=4, reason="trap")])
    assert not state.consistent
    assert "never suspended" in state.problems[0]


def test_state_flags_end_without_begin():
    state = check_events([_ev(0, "end", tid=1, ar=3, second="W",
                              zombie=False)])
    assert not state.consistent
    assert "never begun" in state.problems[0]


def test_state_tracks_windows_suspensions_and_zombies():
    state = check_events([
        _ev(0, "arm", slot=0, gen=1, addr=100),
        _ev(1, "begin", tid=1, ar=3, slot=0, gen=1, first="R"),
        _ev(2, "suspend", tid=2, reason="trap", slot=0, gen=1, addr=100),
        _ev(3, "zombify", tid=1, ar=3, slot=0, gen=1, begin_time=10),
    ])
    assert state.consistent, state.describe()
    assert not state.clean_close
    assert (1, 3) in state.zombies and not state.windows
    assert state.suspended == {2}
    assert state.armed == {0: (1, 100)}
    assert "truncated run" in state.describe()


def test_every_frame_crash_on_a_chaos_schedule_recovers(tmp_path):
    """Acceptance: crash injection at every journal frame boundary of a
    chaos schedule (faulty run included) recovers without hanging,
    losing pre-crash frames, or diverging from a clean re-execution."""
    from repro.faults.chaos import CHAOS_SRC, default_config
    from repro.faults.plan import FaultPlan, FaultSpec
    from repro.core.session import ProtectedProgram

    program = ProtectedProgram(CHAOS_SRC)
    plan = FaultPlan("timer-jitter", [
        FaultSpec("machine.timer.jitter", probability=0.5,
                  param={"jitter_ns": 8000})])
    config = default_config(seed=2, faults=plan)
    _report, recorder = record_run(program, config, seed=2)
    total = len(recorder.events)
    assert total > 50
    for frame in range(1, total):
        path = str(tmp_path / ("chaos-crash-%d.journal" % frame))
        crash = crash_at_frame(program, config, frame, JournalWriter(path),
                               torn=frame % 2)
        assert crash is not None, "run finished before frame %d" % frame
        result = recover(program, path)
        assert result.ok, "frame %d: %s" % (frame, result.describe())
        assert len(result.salvaged) == frame
        assert [e.key() for e in result.salvaged[1:]] \
            == [e.key() for e in recorder.events[1:frame]]
