"""Golden simulated-clock pins for the VM dispatch loop.

Host-speed work on the machine must never move the simulated clock.
These pins hold, for the five application models run vanilla and
protected (prevention mode, ``OptLevel.OPTIMIZED``) at two seeds, plus
one trap-before run and one run with the trap and debug-register fault
points injected, every simulated quantity a dispatch change could
disturb: simulated time, instruction count, kernel entries, a SHA-256
of the output, the verdict multiset and the kernel's crossings, traps
and undos.  The protected apps runs also pin a SHA-256 over the
``key()`` of every journal event, which orders every scheduling
decision and kernel action of the run.  A change that only makes the
machine faster must leave every value here as it is.

Scale: ``workload_suite(0.05)`` with SPEC OMP's element kernel cut to
9 steps (as perfbench does), which keeps the file to a few seconds.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.core.config import KivatiConfig, Mode, OptLevel
from repro.core.session import ProtectedProgram
from repro.faults.chaos import CHAOS_SRC
from repro.faults.chaos import default_config as chaos_config
from repro.faults.plan import FaultPlan, FaultSpec
from repro.journal.recorder import JournalRecorder
from repro.workloads.apps import build_specomp
from repro.workloads.catalog import workload_suite

MS = 1_000_000
SEEDS = (1, 2)


def _config(**overrides):
    """Prevention mode, all optimizations, OS time constants / 1000."""
    return KivatiConfig(mode=Mode.PREVENTION, opt=OptLevel.OPTIMIZED,
                        pause_ns=20 * MS // 1000,
                        suspend_timeout_ns=10 * MS // 1000,
                        whitelist_reread_ns=500 * MS // 1000,
                        pause_probability=0.02, **overrides)


def _sha(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _vanilla_pin(result):
    return (result.time_ns, result.instr_count, result.kernel_entries,
            _sha(list(result.output)))


def _events_pin(events):
    """(event count, SHA-256 over every event ``key()``)."""
    digest = hashlib.sha256()
    for event in events:
        digest.update(repr(event.key()).encode("utf-8"))
        digest.update(b"\n")
    return len(events), digest.hexdigest()[:16]


def _protected_pin(report):
    result, stats = report.result, report.stats
    verdicts = sorted([v.ar_id, v.local_tid, v.remote_tid,
                       str(v.first_kind), str(v.remote_kind),
                       str(v.second_kind), v.prevented]
                      for v in report.violations)
    return (result.time_ns, result.instr_count, result.kernel_entries,
            _sha(list(result.output)), len(verdicts), _sha(verdicts),
            stats.crossings(), stats.traps, stats.undos)


@pytest.fixture(scope="module")
def programs():
    apps = workload_suite(0.05)
    apps[-1] = build_specomp(rounds=2, kernel=9)
    return {app.name: ProtectedProgram(app.source) for app in apps}


#: app -> seed -> (vanilla pin, protected pin); vanilla pins are
#: (time_ns, instr_count, kernel_entries, output sha); protected pins add
#: (verdict count, verdict multiset sha, crossings, traps, undos)
APPS_GOLDEN = {
    "NSS": {
        1: ((51263, 48721, 30, "a8f2ecf6c811b67c"),
            (63991, 49211, 123, "a8f2ecf6c811b67c", 1, "e63b2fe47270a2f7",
             60, 0, 0)),
        2: ((51263, 48721, 30, "a8f2ecf6c811b67c"),
            (62308, 49210, 117, "a8f2ecf6c811b67c", 1, "e63b2fe47270a2f7",
             59, 0, 0)),
    },
    "VLC": {
        1: ((42870, 31872, 50, "46b1884167c4edd3"),
            (41304, 31618, 52, "46b1884167c4edd3", 2, "316d5fb1d2f5cc5b",
             24, 0, 0)),
        2: ((42814, 31872, 50, "46b1884167c4edd3"),
            (41283, 31618, 52, "46b1884167c4edd3", 2, "316d5fb1d2f5cc5b",
             24, 0, 0)),
    },
    "Webstone": {
        1: ((54577, 49468, 30, "a8f2ecf6c811b67c"),
            (75145, 50335, 138, "a8f2ecf6c811b67c", 6, "15004ed27d3afc0b",
             62, 0, 0)),
        2: ((54210, 49468, 34, "a8f2ecf6c811b67c"),
            (90849, 54388, 159, "a8f2ecf6c811b67c", 5, "436af3d1ae13b731",
             73, 4, 1)),
    },
    "TPC-W": {
        1: ((37778, 31310, 22, "a8f2ecf6c811b67c"),
            (53495, 32239, 142, "a8f2ecf6c811b67c", 2, "e9f11d184699d56f",
             80, 0, 0)),
        2: ((37748, 31310, 22, "a8f2ecf6c811b67c"),
            (55921, 32240, 156, "a8f2ecf6c811b67c", 2, "b73f8b3d32ca7dca",
             84, 0, 0)),
    },
    "SPEC OMP": {
        1: ((98975, 99570, 85, "46b1884167c4edd3"),
            (172889, 106010, 596, "46b1884167c4edd3", 0, "4f53cda18c2baa0c",
             337, 1, 0)),
        2: ((98933, 99570, 85, "46b1884167c4edd3"),
            (189772, 106947, 719, "46b1884167c4edd3", 0, "4f53cda18c2baa0c",
             359, 0, 0)),
    },
}

#: app -> seed -> journal pin of the protected run: (event count, sha
#: over every event key())
APPS_JOURNAL_GOLDEN = {
    "NSS": {1: (254, "b24d249d058f68a9"), 2: (251, "97e7f3ee881f8563")},
    "VLC": {1: (90, "6e95bca11a55e5f3"), 2: (90, "a05436a8a55b9dba")},
    "Webstone": {1: (306, "cba1d652c2dabb4b"), 2: (339, "85f1ead5ce6ed591")},
    "TPC-W": {1: (380, "4ee958ae6da50a73"), 2: (404, "d033cd606a7c52f7")},
    "SPEC OMP": {1: (2305, "27973fe3ccaa30f6"),
                 2: (2444, "c43178130106cccd")},
}

#: Webstone, seed 2, trap-before hardware
TRAP_BEFORE_GOLDEN = (108811, 58439, 152, "a8f2ecf6c811b67c", 7,
                      "1e05a78b8e1d36e3", 77, 3, 0)

#: the chaos suite's contended program, seed 2, trap drop/duplicate and
#: DR slot failures injected: (protected pin, fired count per injection
#: point, duplicate traps the kernel ignored, replica resyncs)
FAULTS_GOLDEN = (
    (40837, 801, 157, "57e1982aeba22890", 5, "310e4bfc88d932a9", 120, 21, 2),
    {"machine.dr.slot_fail": 9, "machine.trap.drop": 11,
     "machine.trap.duplicate": 8},
    2, 3)

FAULT_PLAN = FaultPlan("vm-golden", [
    FaultSpec("machine.trap.drop", probability=0.3),
    FaultSpec("machine.trap.duplicate", probability=0.5),
    FaultSpec("machine.dr.slot_fail", probability=0.3),
])


def _fired(report):
    return dict(sorted(Counter(f.point for f in report.injected).items()))


@pytest.mark.parametrize("name", ["NSS", "VLC", "Webstone", "TPC-W",
                                  "SPEC OMP"])
def test_apps_vanilla_and_protected_are_pinned(programs, name):
    program = programs[name]
    got = {}
    journals = {}
    for seed in SEEDS:
        vanilla = program.run_vanilla(seed=seed)
        recorder = JournalRecorder()
        report = program.run(_config(journal=recorder), seed=seed)
        got[seed] = (_vanilla_pin(vanilla), _protected_pin(report))
        journals[seed] = _events_pin(recorder.events)
    assert got == APPS_GOLDEN[name]
    assert journals == APPS_JOURNAL_GOLDEN[name]


def test_trap_before_run_is_pinned(programs):
    report = programs["Webstone"].run(_config(trap_before=True), seed=2)
    assert _protected_pin(report) == TRAP_BEFORE_GOLDEN


def test_fault_injected_run_is_pinned():
    report = ProtectedProgram(CHAOS_SRC).run(
        chaos_config(faults=FAULT_PLAN), seed=2)
    stats = report.stats
    assert (_protected_pin(report), _fired(report),
            stats.duplicate_traps_ignored, stats.replica_resyncs) \
        == FAULTS_GOLDEN
