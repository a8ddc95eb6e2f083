"""Deterministic replay: a journaled run re-executes to an identical
event stream, across seeds, modes, processes and PYTHONHASHSEED."""

import os
import subprocess
import sys

import pytest

from journal_common import RACY_SRC, base_config
from repro.core.config import Mode
from repro.core.session import ProtectedProgram
from repro.errors import JournalError
from repro.journal.events import JournalEvent
from repro.journal.format import JournalWriter
from repro.journal.replay import (first_divergence, record_run, replay_run,
                                  run_start_snapshot, verdict_multiset)

#: repo root (the subprocesses' relative ``src`` path resolves here)
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.mark.parametrize("seed", [0, 3, 17])
def test_replay_reproduces_the_event_stream(racy_program, seed):
    report, recorder = record_run(racy_program, base_config(), seed=seed)
    assert len(report.violations)       # the workload actually races
    result = replay_run(racy_program, recorder)
    assert result.ok, result.describe()
    assert result.verdicts_match
    assert [e.key() for e in result.replayed] \
        == [e.key() for e in recorder.events]
    assert result.report.output == report.output


def test_replay_in_bug_finding_mode(racy_program):
    config = base_config(mode=Mode.BUG_FINDING, seed=5)
    report, recorder = record_run(racy_program, config)
    result = replay_run(racy_program, recorder)
    assert result.ok, result.describe()
    assert result.verdicts_match
    assert result.report.time_ns == report.time_ns


def test_replay_from_disk(tmp_path, racy_program):
    path = str(tmp_path / "run.journal")
    record_run(racy_program, base_config(), seed=3,
               writer=JournalWriter(path))
    result = replay_run(racy_program, path)
    assert result.ok, result.describe()
    assert verdict_multiset(result.replayed) \
        == verdict_multiset(result.recorded)


def test_replay_refuses_a_different_program(racy_program, tmp_path):
    _report, recorder = record_run(racy_program, base_config(), seed=0)
    other = ProtectedProgram(RACY_SRC.replace("x + 10", "x + 11"))
    with pytest.raises(JournalError):
        replay_run(other, recorder)


def test_tampered_schedule_diverges_without_hanging(racy_program):
    _report, recorder = record_run(racy_program, base_config(), seed=0)
    events = list(recorder.events)
    sched = [i for i, e in enumerate(events) if e.kind == "sched"]
    # swap the first two scheduling decisions that picked different
    # threads: the pin now demands an impossible order
    a = next(i for i in sched if events[i].tid != events[sched[0]].tid)
    i, j = sched[0], a
    events[i], events[j] = (
        JournalEvent(events[i].seq, events[i].time_ns, events[j].tid,
                     "sched", events[i].payload),
        JournalEvent(events[j].seq, events[j].time_ns, events[i].tid,
                     "sched", events[j].payload))
    result = replay_run(racy_program, events)
    assert not result.ok            # divergence reported...
    assert result.report is not None  # ...but the replay ran to completion


def test_first_divergence_reports_the_first_mismatch():
    def ev(seq, tid=0, kind="sched", **p):
        return JournalEvent(seq, seq * 10, tid, kind, p or {"core": 0})

    a = [ev(0), ev(1), ev(2), ev(3)]
    b = [ev(0), ev(1), ev(2, tid=1), ev(3, tid=9)]
    div = first_divergence(a, b)
    assert div.index == 2 and div.reason == "event mismatch"
    assert first_divergence(a, list(a)) is None

    short = first_divergence(a, a[:2])
    assert short.index == 2 and "early" in short.reason

    longer = first_divergence(a[:2], a)
    assert longer.index == 2 and "extra" in longer.reason
    assert first_divergence(a[:2], a, allow_longer_replay=True) is None


def test_run_start_snapshot_requires_a_header():
    with pytest.raises(JournalError):
        run_start_snapshot([JournalEvent(0, 0, 0, "sched", {"core": 0})])


def test_journal_bytes_identical_across_hash_seeds(tmp_path):
    """Record the same run in two processes with different
    PYTHONHASHSEED: the on-disk journals must be byte-identical, and a
    third process must replay one of them deterministically."""
    src = tmp_path / "prog.c"
    src.write_text(RACY_SRC)
    journals = []
    for hash_seed in ("0", "12345"):
        path = tmp_path / ("run-%s.journal" % hash_seed)
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH="src")
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", str(src),
             "--opt", "base", "--seed", "7", "--journal", str(path)],
            capture_output=True, text=True, env=env, cwd=_REPO_ROOT,
            check=True)
        journals.append(path.read_bytes())
    assert journals[0] == journals[1]

    env = dict(os.environ, PYTHONHASHSEED="999", PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "replay", str(src),
         str(tmp_path / "run-0.journal")],
        capture_output=True, text=True, env=env, cwd=_REPO_ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "DETERMINISTIC" in proc.stdout


@pytest.mark.parametrize("bug_id", ["19938", "44402", "270689"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_corpus_violations_replay_identically(bug_id, seed):
    """Acceptance: a recorded bug-corpus run replays to the identical
    verdict multiset and event stream on every seed."""
    from repro.bench.scale import corpus_config
    from repro.workloads.bugs import BUGS

    program = ProtectedProgram(BUGS[bug_id].source)
    config = corpus_config(Mode.BUG_FINDING, pause_ms=20)
    _report, recorder = record_run(program, config, seed=seed)
    result = replay_run(program, recorder)
    assert result.ok, result.describe()
    assert result.verdicts_match
    assert [e.key() for e in result.replayed] \
        == [e.key() for e in recorder.events]
