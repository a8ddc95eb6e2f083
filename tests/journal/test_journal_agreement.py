"""One journal, one verdict on its well-formedness: `kivati check`
(the streaming checker), crash-recovery salvage and `kivati journal`
must reject the same forged journals and accept the same intact one.

Each forged journal is a real recording with one defect, written back
through :class:`JournalWriter` so every frame is CRC-valid: only the
fold of events into kernel state can tell it is wrong.
"""

import pytest

from journal_common import base_config
from repro.cli import main
from repro.journal.checker import check_journal
from repro.journal.events import JournalEvent
from repro.journal.format import JournalWriter
from repro.journal.recovery import salvage
from repro.journal.replay import record_run


@pytest.fixture(scope="module")
def recorded_events(racy_program):
    _report, recorder = record_run(racy_program, base_config(), seed=0)
    return list(recorder.events)


def _first(events, kind):
    return next(i for i, e in enumerate(events) if e.kind == kind)


def _with(event, kind=None, tid=None, **payload):
    """``event`` at the same seq and time, with its kind, tid or payload
    fields replaced."""
    return JournalEvent(event.seq, event.time_ns,
                        event.tid if tid is None else tid,
                        event.kind if kind is None else kind,
                        dict(event.payload, **payload)
                        if kind is None else payload)


def _replace(events, index, event):
    return events[:index] + [event] + events[index + 1:]


def _disarm_gen_mismatch(events):
    i = _first(events, "disarm")
    return _replace(events, i, _with(events[i],
                                     gen=events[i].payload["gen"] + 1))


def _wake_without_suspend(events):
    i = _first(events, "sched")
    return _replace(events, i, _with(events[i], kind="wake",
                                     reason="trap"))


def _begin_on_unarmed_epoch(events):
    i = _first(events, "begin")
    return _replace(events, i, _with(events[i],
                                     gen=events[i].payload["gen"] + 1000))


def _trigger_on_unarmed_epoch(events):
    i = _first(events, "trigger")
    return _replace(events, i, _with(events[i],
                                     gen=events[i].payload["gen"] + 1000))


def _zombify_without_begin(events):
    i = _first(events, "sched")
    return _replace(events, i, _with(events[i], kind="zombify", ar=999,
                                     slot=0, gen=1, begin_time=0))


def _sequence_gap(events):
    return events[:10] + events[11:]


FORGERIES = {
    "disarm-gen-mismatch": _disarm_gen_mismatch,
    "wake-without-suspend": _wake_without_suspend,
    "begin-on-unarmed-epoch": _begin_on_unarmed_epoch,
    "trigger-on-unarmed-epoch": _trigger_on_unarmed_epoch,
    "zombify-without-begin": _zombify_without_begin,
    "sequence-gap": _sequence_gap,
}


def _write(path, events):
    writer = JournalWriter(path)
    for event in events:
        writer.append(event)
    writer.close()
    return path


@pytest.mark.parametrize("forgery", sorted(FORGERIES))
def test_forged_journal_is_rejected_three_ways(recorded_events, tmp_path,
                                               capsys, forgery):
    path = _write(str(tmp_path / "forged.journal"),
                  FORGERIES[forgery](recorded_events))
    check = check_journal(path)
    assert check.anomalies or check.gaps, check.describe()
    assert check.status != "pass"
    salvaged = salvage(path)
    assert not salvaged.ok, salvaged.describe()
    assert "inconsistent" in salvaged.reason
    assert main(["journal", path]) == 1
    capsys.readouterr()


def test_intact_journal_is_accepted_three_ways(recorded_events, tmp_path,
                                               capsys):
    path = _write(str(tmp_path / "intact.journal"), recorded_events)
    check = check_journal(path)
    assert check.status == "pass" and not check.anomalies
    assert salvage(path).ok
    assert main(["journal", path]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("forgery, text", [
    ("disarm-gen-mismatch", "disarm gen"),
    ("wake-without-suspend", "never suspended"),
    ("begin-on-unarmed-epoch", "begin on unarmed slot"),
    ("trigger-on-unarmed-epoch", "trigger on unarmed slot"),
])
def test_check_names_the_recovery_rule(recorded_events, tmp_path, forgery,
                                       text):
    path = _write(str(tmp_path / "forged.journal"),
                  FORGERIES[forgery](recorded_events))
    anomalies = check_journal(path).anomalies
    assert any(text in anomaly for anomaly in anomalies), anomalies
