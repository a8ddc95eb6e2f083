"""Streaming checker unit tests: verdict semantics, zombie windows,
epoch GC bounds, damage handling, both disagreement directions, and the
agreement with the online detector and the RunReport on real runs —
the whole bug corpus included."""

import os

import pytest

from journal_common import RACY_SRC, base_config
from repro.bench.scale import corpus_config
from repro.core.config import Mode
from repro.core.session import ProtectedProgram
from repro.journal.checker import (StreamingChecker, check_events,
                                   check_journal)
from repro.journal.events import JournalEvent
from repro.journal.format import JournalWriter
from repro.journal.recorder import JournalRecorder
from repro.journal.replay import record_run, report_verdicts
from repro.workloads.bugs import BUG_IDS, BUGS


def _ev(seq, tid, kind, time_ns=None, **payload):
    return JournalEvent(seq, 10 * seq if time_ns is None else time_ns,
                        tid, kind, payload)


def _window(seq0, tid, ar, slot=0, gen=1, first="R", second="W",
            triggers=()):
    """arm + begin + triggers + end, matching violation events omitted."""
    events = [_ev(seq0, tid, "arm", slot=slot, gen=gen),
              _ev(seq0 + 1, tid, "begin", ar=ar, slot=slot, gen=gen,
                  first=first)]
    seq = seq0 + 2
    for rtid, kinds, undone in triggers:
        events.append(_ev(seq, rtid, "trigger", slot=slot, gen=gen,
                          kinds=list(kinds), undone=undone))
        seq += 1
    events.append(_ev(seq, tid, "end", ar=ar, second=second))
    return events, seq + 1


def _racy_events(seed=5):
    recorder = JournalRecorder()
    ProtectedProgram(RACY_SRC).run(base_config(journal=recorder,
                                               seed=seed))
    return recorder


def test_clean_window_yields_figure2_verdict():
    events = [_ev(0, 0, "run-start")]
    body, seq = _window(1, 0, ar=7, first="R", second="W",
                        triggers=[(1, ("W",), True)])
    events += body + [_ev(seq, 0, "run-end")]
    result = check_events(events)
    assert result.verdicts == [(7, 0, 1, "R", "W", "W", True)]
    assert result.complete and result.clean_close
    assert result.coverage == 1.0
    assert result.windows_checked == 1 and result.windows_open == 0
    # no matching online record was journaled => explicit disagreement
    assert result.status == "disagree"
    assert len(result.disagreements) == 1


def test_serializable_window_yields_no_verdict():
    events = [_ev(0, 0, "run-start")]
    body, seq = _window(1, 0, ar=7, first="R", second="R",
                        triggers=[(1, ("R",), False)])
    events += body + [_ev(seq, 0, "run-end")]
    result = check_events(events)
    assert result.verdicts == []
    assert result.status == "pass" and result.agrees


def test_stale_and_same_tid_triggers_are_filtered():
    events = [
        _ev(0, 0, "run-start"),
        _ev(1, 0, "arm", slot=0, gen=1),
        # recorded against the epoch before the window opens: stale
        _ev(2, 1, "trigger", slot=0, gen=1, kinds=["W"], undone=False),
        _ev(3, 0, "begin", ar=1, slot=0, gen=1, first="R"),
        # same thread as the window: never a remote conflict
        _ev(4, 0, "trigger", slot=0, gen=1, kinds=["W"], undone=False),
        _ev(5, 0, "end", ar=1, second="W"),
        _ev(6, 0, "run-end"),
    ]
    result = check_events(events)
    assert result.verdicts == []
    assert result.status == "pass"


def test_zombie_end_is_evaluated_unprevented():
    """A zombified window still gets verdicts at its late end, but the
    kernel force-marks them unprevented (the undo already rolled back)."""
    events = [
        _ev(0, 0, "run-start"),
        _ev(1, 0, "arm", slot=0, gen=1),
        _ev(2, 0, "begin", ar=1, slot=0, gen=1, first="R"),
        _ev(3, 1, "trigger", slot=0, gen=1, kinds=["W"], undone=True),
        _ev(4, 0, "zombify", ar=1),
        _ev(5, 0, "end", ar=1, second="W", zombie=True),
        _ev(6, 0, "run-end"),
    ]
    result = check_events(events)
    assert result.verdicts == [(1, 0, 1, "R", "W", "W", False)]


def test_stranded_zombie_is_counted_not_alarmed():
    """begin -> zombify -> (prevented undo re-runs the thread, a fresh
    begin never ends the zombie): a legitimate kernel shape, so a
    leftover window is informational, not an anomaly."""
    events = [
        _ev(0, 0, "run-start"),
        _ev(1, 0, "arm", slot=0, gen=1),
        _ev(2, 0, "begin", ar=1, slot=0, gen=1, first="R"),
        _ev(3, 0, "zombify", ar=1),
        _ev(4, 0, "run-end"),
    ]
    result = check_events(events)
    assert result.windows_open == 1
    assert result.anomalies == []
    assert result.complete and result.status == "pass"


def test_end_without_begin_is_anomalous_on_intact_journal():
    # a plain end, a zombie end and a zombify, each with nothing to close
    for kind, extra in (("end", {"second": "W"}),
                        ("end", {"second": "W", "zombie": True}),
                        ("zombify", {"slot": 0, "gen": 1})):
        events = [
            _ev(0, 0, "run-start"),
            _ev(1, 0, kind, ar=1, **extra),
            _ev(2, 0, "run-end"),
        ]
        result = check_events(events)
        assert len(result.anomalies) == 1
        assert result.status == "disagree"
        assert not result.agrees


@pytest.mark.parametrize("events, verdicts, anomalies", [
    # (R, R, R) is serializable: a remote read never invalidates
    ([_ev(0, 1, "begin", ar=3, slot=0, gen=1, first="R"),
      _ev(1, 2, "trigger", slot=0, gen=1, kinds=["R"], undone=False),
      _ev(2, 1, "end", ar=3, second="R")], [], 0),
    # a trigger before the window opened, then one by the local thread
    ([_ev(0, 2, "trigger", slot=0, gen=1, kinds=["W"], undone=True),
      _ev(1, 1, "begin", ar=3, slot=0, gen=1, first="R"),
      _ev(2, 1, "trigger", slot=0, gen=1, kinds=["W"], undone=True),
      _ev(3, 1, "end", ar=3, second="R")], [], 0),
    # the window outlived its watchpoint: the verdict is unprevented
    ([_ev(0, 1, "begin", ar=3, slot=0, gen=1, first="R"),
      _ev(1, 2, "trigger", slot=0, gen=1, kinds=["W"], undone=True),
      _ev(2, 1, "zombify", ar=3, slot=0, gen=1, begin_time=0),
      _ev(3, 1, "end", ar=3, second="R", zombie=True)],
     [(3, 1, 2, "R", "W", "R", False)], 0),
    ([_ev(0, 1, "end", ar=9, second="W")], [], 1),
    ([_ev(0, 1, "zombify", ar=9, slot=0, gen=1)], [], 1),
], ids=["serializable", "pre-window-and-local", "zombie", "orphan-end",
        "orphan-zombify"])
def test_unframed_fragments_get_verdicts_but_never_pass(events, verdicts,
                                                        anomalies):
    """Bare windows with no run-start, arm or run-end framing: the
    verdicts and anomalies are those of the framed journal, but a stream
    that never closed cleanly is only ever partial."""
    result = check_events(events)
    assert result.verdicts == verdicts
    assert len(result.anomalies) == anomalies
    assert result.status == "partial"
    assert not result.complete and not result.agrees


def test_seq_gap_demotes_anomalies_to_unverified_and_caps_coverage():
    events = [
        _ev(0, 0, "run-start"),
        # seqs 1..2 lost with the frames they carried
        _ev(3, 0, "end", ar=1, second="W"),
        _ev(4, 0, "run-end"),
    ]
    result = check_events(events)
    assert result.anomalies == []
    assert result.windows_unverified == 1
    assert result.gaps == [(1, 2)]
    assert result.missing_events == 2
    assert result.coverage == pytest.approx(3 / 5.0)
    assert result.status == "partial" and not result.complete


def test_missing_run_end_means_torn_tail():
    events = [
        _ev(0, 0, "run-start"),
        _ev(1, 0, "arm", slot=0, gen=1),
        _ev(2, 0, "begin", ar=1, slot=0, gen=1, first="R"),
    ]
    result = check_events(events)
    assert not result.clean_close and not result.complete
    assert result.windows_open == 1
    assert result.coverage == pytest.approx(3 / 4.0)


def test_pruned_rotation_head_counts_as_missing():
    events = [
        _ev(10, 0, "arm", slot=0, gen=1),
        _ev(11, 0, "run-end"),
    ]
    result = check_events(events)
    assert result.missing_events == 10
    assert result.coverage == pytest.approx(2 / 12.0)
    assert not result.complete


def test_pruned_head_demotes_anomalies_to_unverified():
    """Rotation pruned seqs 0..9, run-start among them: an end whose
    begin and a wake whose suspend fell in the pruned head are
    casualties of the lost frames, not anomalies."""
    events = [
        _ev(10, 0, "end", ar=1, second="W"),
        _ev(11, 0, "wake"),
        _ev(12, 0, "run-end"),
    ]
    result = check_events(events)
    assert result.anomalies == []
    assert result.windows_unverified == 2
    assert result.missing_events == 10
    assert result.status == "partial" and not result.complete


def test_epoch_gc_bounds_retained_triggers():
    """Sequential windows with re-armed slots: every closed epoch's
    triggers are dropped, so the retained-trigger peak stays at the
    per-window count no matter how many windows stream past."""
    events = [_ev(0, 0, "run-start")]
    seq = 1
    for i in range(50):
        body, seq = _window(seq, 0, ar=i, slot=0, gen=i + 1,
                            first="R", second="R",
                            triggers=[(1, ("R",), False)])
        events += body
    events.append(_ev(seq, 0, "run-end"))
    checker = StreamingChecker()
    for event in events:
        checker.feed(event)
    result = checker.finish()
    assert result.stats.triggers_seen == 50
    assert result.stats.retained_triggers_peak <= 2
    assert result.stats.live_epochs_peak <= 2
    assert result.stats.epochs_gcd >= 49


@pytest.mark.parametrize("verdict_event, trigger, side", [
    # a journaled violation no trigger supports
    (True, None, "online-only"),
    # triggers that prove a non-serializable interleaving, no violation
    (False, dict(kinds=["W"], undone=True), "checker-only"),
], ids=["online-only", "checker-only"])
def test_disagreement_directions_are_flagged(verdict_event, trigger, side):
    events = [_ev(0, 0, "run-start"), _ev(1, 0, "arm", slot=0, gen=1),
              _ev(2, 1, "begin", ar=3, slot=0, gen=1, first="R")]
    if trigger is not None:
        events.append(_ev(3, 2, "trigger", slot=0, gen=1, **trigger))
    if verdict_event:
        events.append(_ev(3, 1, "violation", ar=3, remote_tid=2,
                          first="R", remote="W", second="R",
                          prevented=True))
    events += [_ev(4, 1, "end", ar=3, second="R"), _ev(5, 0, "run-end")]
    result = check_events(events)
    expected = [(3, 1, 2, "R", "W", "R", True)]
    assert result.disagreements == expected
    assert (result.online if side == "online-only"
            else result.verdicts) == expected
    assert result.status == "disagree" and not result.agrees
    assert "disagreement [%s]" % side in result.describe()


def test_check_events_three_way_agreement_on_real_run(racy_program):
    """Checker, journaled online verdicts and the RunReport agree."""
    report, recorder = record_run(racy_program, base_config(), seed=0)
    assert len(report.violations)
    result = check_events(recorder.events)
    assert result.verdicts == result.online == report_verdicts(report)
    assert result.agrees and result.status == "pass"
    assert result.coverage == 1.0


def test_describe_counts_every_verdict_on_the_racy_workload(racy_program):
    report, recorder = record_run(racy_program, base_config(), seed=0)
    result = check_events(recorder.events)
    assert result.describe().splitlines()[0].startswith(
        "checker: PASS — %d events, %d windows checked, %d verdicts "
        "(online %d)" % (len(recorder.events), result.windows_checked,
                         len(report.violations), len(report.violations)))
    assert "disagreement" not in result.describe()


@pytest.mark.parametrize("bug_id", BUG_IDS)
def test_zero_disagreements_on_the_bug_corpus(bug_id):
    """Acceptance: checker and online detector agree on every corpus bug."""
    config = corpus_config(Mode.BUG_FINDING, pause_ms=20)
    report, recorder = record_run(ProtectedProgram(BUGS[bug_id].source),
                                  config, seed=1)
    result = check_events(recorder.events)
    assert result.agrees, result.describe()
    assert result.verdicts == report_verdicts(report)
    assert result.windows_checked > 0


def test_check_journal_streams_from_disk(tmp_path):
    path = str(tmp_path / "run.journal")
    writer = JournalWriter(path)
    recorder = JournalRecorder(writer=writer)
    ProtectedProgram(RACY_SRC).run(base_config(journal=recorder, seed=5))
    recorder.close()
    result = check_journal(path)
    in_memory = check_events(_racy_events().events)
    assert result.verdicts == in_memory.verdicts
    assert result.status == "pass"


def test_check_journal_survives_truncation(tmp_path):
    path = str(tmp_path / "run.journal")
    writer = JournalWriter(path)
    recorder = JournalRecorder(writer=writer)
    ProtectedProgram(RACY_SRC).run(base_config(journal=recorder, seed=5))
    recorder.close()
    size = os.path.getsize(path)
    with open(path, "r+b") as f:
        f.truncate(int(size * 0.6))
    result = check_journal(path)
    assert result.status == "partial"
    assert 0.0 < result.coverage < 1.0
    assert not result.complete


def test_check_journal_survives_midfile_flip(tmp_path):
    path = str(tmp_path / "run.journal")
    writer = JournalWriter(path)
    recorder = JournalRecorder(writer=writer)
    ProtectedProgram(RACY_SRC).run(base_config(journal=recorder, seed=5))
    recorder.close()
    size = os.path.getsize(path)
    with open(path, "r+b") as f:
        f.seek(size // 2)
        byte = f.read(1)
        f.seek(size // 2)
        f.write(bytes([byte[0] ^ 0xFF]))
    result = check_journal(path)
    # either the flip hit a frame (partial + corruption records) or it
    # hit dead space; it must never crash or silently claim a full pass
    assert result.status in ("partial", "pass")
    if result.corruptions:
        assert result.status == "partial"


def test_empty_event_list_is_no_data():
    result = check_events([])
    assert result.status == "no-data"
    assert result.coverage == 0.0
