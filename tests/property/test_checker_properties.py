"""Property: the streaming checker is sound and complete.

Sound: every verdict it reports names a journaled remote access inside
a journaled window whose (first, remote, second) access triple has no
explaining serial order — decided here by brute-force concrete
execution of the three accesses, not by the Figure 2 table the checker
itself uses.  Complete: every such witnessed triple is reported.
Random traces cover up to 4 threads and two windows, including stale
triggers (recorded against the epoch before the window opened),
same-thread triggers, rw-composite accesses, epoch sharing between
consecutive windows, epoch retirement (a ``disarm`` then re-``arm``, or
a re-``arm`` alone, at a higher generation between windows), zombie windows (``zombify``
plus a late zombie ``end``, force-unprevented) and ``clear``-closed
windows.  A zombie's end arrives after every later window, so epoch GC
must never drop a trigger a live zombie still needs.

Plus: checker verdict order is independent of PYTHONHASHSEED (the
result multisets are sorted, never hash-ordered).
"""

import json
import os
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from repro.journal.checker import check_events
from repro.journal.events import JournalEvent


def _serializable(first, remote, second):
    """Concrete-execution brute force over both serial orders."""

    def execute(order):
        cell = 0
        reads = {}
        for who, kind, value in order:
            if kind == "W":
                cell = value
            else:
                reads[who] = cell
        return reads, cell

    interleaved = [("L1", first, 1), ("REM", remote, 2),
                   ("L2", second, 3)]
    serial_after = [("L1", first, 1), ("L2", second, 3),
                    ("REM", remote, 2)]
    serial_before = [("REM", remote, 2), ("L1", first, 1),
                     ("L2", second, 3)]
    got = execute(interleaved)
    return any(execute(s) == got for s in (serial_after, serial_before))


KIND = st.sampled_from(["R", "W"])

TRIGGER = st.fixed_dictionaries({
    "tid": st.integers(0, 3),
    "kinds": st.lists(KIND, min_size=1, max_size=2, unique=True),
    "stale": st.booleans(),     # recorded before the window opened
    "undone": st.booleans(),
})

WINDOW = st.fixed_dictionaries({
    "tid": st.integers(0, 3),
    "first": KIND,
    "second": KIND,
    "triggers": st.lists(TRIGGER, max_size=2),
    "close": st.sampled_from(["end", "zombie", "clear"]),
})

TRACE = st.fixed_dictionaries({
    "windows": st.lists(WINDOW, min_size=1, max_size=2),
    #: both windows join one (slot, gen) epoch — the O2 lazy-free
    #: rejoin shape; the stale-trigger time filter must still hold
    "share": st.booleans(),
    #: otherwise each window arms slot 0 at a higher generation,
    #: retiring the previous epoch by a "disarm" then re-"arm", or by
    #: the re-"arm" alone
    "retire": st.sampled_from(["disarm", "rearm"]),
})


def _events(trace):
    """Flatten a trace into a well-formed journal event list."""
    windows = trace["windows"]
    events = []
    state = {"seq": 0, "time": 0}

    def emit(tid, kind, **payload):
        events.append(JournalEvent(state["seq"], state["time"], tid,
                                   kind, payload))
        state["seq"] += 1
        state["time"] += 10

    def verdicts(i, w):
        for v in _window_verdicts(i, w):
            emit(v[1], "violation", ar=i, remote_tid=v[2], first=v[3],
                 remote=v[4], second=v[5], prevented=v[6])

    emit(0, "run-start")
    late = []   # zombie windows: their end arrives after every window
    for i, w in enumerate(windows):
        slot, gen = 0, (1 if trace["share"] else i + 1)
        if i and not trace["share"] and trace["retire"] == "disarm":
            emit(w["tid"], "disarm", slot=slot, gen=gen - 1)
        if not trace["share"] or i == 0:
            emit(w["tid"], "arm", slot=slot, gen=gen)
        for t in w["triggers"]:
            if t["stale"]:
                emit(t["tid"], "trigger", slot=slot, gen=gen,
                     kinds=list(t["kinds"]), undone=t["undone"])
        emit(w["tid"], "begin", ar=i, slot=slot, gen=gen,
             first=w["first"])
        for t in w["triggers"]:
            if not t["stale"]:
                emit(t["tid"], "trigger", slot=slot, gen=gen,
                     kinds=list(t["kinds"]), undone=t["undone"])
        if w["close"] == "clear":
            emit(w["tid"], "clear", ar=i)
        elif w["close"] == "end":
            emit(w["tid"], "end", ar=i, second=w["second"])
            verdicts(i, w)
        else:
            emit(w["tid"], "zombify", ar=i, slot=slot, gen=gen)
            if trace["share"]:
                # a shared epoch stays armed: the zombie ends at once
                emit(w["tid"], "end", ar=i, second=w["second"], zombie=True)
                verdicts(i, w)
            else:
                late.append((i, w))
    for i, w in late:
        emit(w["tid"], "end", ar=i, second=w["second"], zombie=True)
        verdicts(i, w)
    emit(0, "run-end")
    return events


def _window_verdicts(i, w):
    """Brute-force expectation for one window: one verdict per remote
    in-window access whose first matching kind is non-serializable.  A
    cleared window is never evaluated; a zombie's verdicts are forced
    unprevented."""
    verdicts = []
    if w["close"] == "clear":
        return verdicts
    for t in w["triggers"]:
        if t["stale"] or t["tid"] == w["tid"]:
            continue
        for kind in t["kinds"]:
            if not _serializable(w["first"], kind, w["second"]):
                verdicts.append((i, w["tid"], t["tid"], w["first"], kind,
                                 w["second"],
                                 t["undone"] and w["close"] != "zombie"))
                break
    return verdicts


def _expected(trace):
    expected = []
    for i, w in enumerate(trace["windows"]):
        expected.extend(_window_verdicts(i, w))
    return sorted(expected)


@given(TRACE)
@settings(max_examples=300, deadline=None)
def test_checker_sound_and_complete_on_random_traces(trace):
    result = check_events(_events(trace))
    assert result.complete and result.clean_close
    assert result.coverage == 1.0
    assert not result.anomalies
    assert sorted(tuple(v) for v in result.verdicts) == _expected(trace)
    # the emitted online record matches, so the full claim holds
    assert result.agrees and result.status == "pass"


@given(TRACE, st.data())
@settings(max_examples=300, deadline=None)
def test_checker_degrades_but_stays_sound_on_any_single_drop(trace, data):
    """Dropping any one frame never crashes the checker, never lets it
    claim completeness, and never creates an unwitnessed verdict."""
    events = _events(trace)
    idx = data.draw(st.integers(0, len(events) - 1), label="dropped")
    result = check_events(events[:idx] + events[idx + 1:])
    assert not result.complete
    assert result.coverage < 1.0
    assert result.status == "partial"
    # soundness survives damage: surviving verdicts are a sub-multiset
    # of the intact trace's brute-force expectation
    expected = list(_expected(trace))
    for verdict in result.verdicts:
        assert tuple(verdict) in expected
        expected.remove(tuple(verdict))
    # a gapped journal files casualties as unverified, never as
    # anomalies (those are reserved for intact-journal impossibilities)
    assert not result.anomalies


_HASHSEED_SCRIPT = """
import json, sys
sys.path.insert(0, "src")
sys.path.insert(0, "tests/journal")
from journal_common import RACY_SRC, base_config
from repro.core.session import ProtectedProgram
from repro.journal.checker import check_events
from repro.journal.recorder import JournalRecorder

recorder = JournalRecorder()
ProtectedProgram(RACY_SRC).run(base_config(journal=recorder, seed=5))
result = check_events(recorder.events)
print(json.dumps({"verdicts": [list(v) for v in result.verdicts],
                  "online": [list(v) for v in result.online],
                  "status": result.status}))
"""


#: the script's relative ``src``/``tests/journal`` paths resolve here
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def test_checker_verdict_order_is_hashseed_independent():
    outputs = []
    for seed in ("0", "42", "31337"):
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT],
            capture_output=True, text=True, cwd=_REPO_ROOT,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    payload = json.loads(outputs[0])
    assert payload["status"] == "pass"
    assert payload["verdicts"] == sorted(payload["verdicts"])
