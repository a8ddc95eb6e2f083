"""A finished run's machine graph is freed by reference counting.

With the cyclic collector disabled, the ``Machine`` of a run — its
memory words, decode table, cores, runtime and kernel — must be gone
as soon as ``ProtectedProgram.run`` or ``run_vanilla`` returns: the
back-references a finished run no longer needs are dropped, so no
reference cycle keeps the graph alive until the next collection.
"""

import gc
import weakref
from random import Random

import pytest

from repro.core import session
from repro.core.config import KivatiConfig, Mode
from repro.core.session import ProtectedProgram
from repro.fuzz.generator import FuzzParams, generate_source
from repro.journal.recorder import JournalRecorder
from repro.workloads.bugs import get_bug


@pytest.fixture
def machines(monkeypatch):
    """Weak references to every Machine the session builds."""
    refs = []
    real = session.Machine

    def tracked(*args, **kwargs):
        machine = real(*args, **kwargs)
        refs.append(weakref.ref(machine))
        return machine

    monkeypatch.setattr(session, "Machine", tracked)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield refs
    if enabled:
        gc.enable()


def _fuzz_source(index):
    rng = Random(index)
    return generate_source(FuzzParams.sampled(rng), rng.randrange(1 << 30))


@pytest.mark.parametrize("index", range(5))
def test_bug_finding_run_with_journal_frees_its_machine(machines, index):
    pp = ProtectedProgram(_fuzz_source(index))
    config = KivatiConfig(mode=Mode.BUG_FINDING, num_cores=3)
    report = pp.run(config.copy(journal=JournalRecorder()), seed=index)
    assert len(machines) == 1
    assert machines[0]() is None
    # what the report carries survives the machine
    assert report.result.instr_count > 0
    assert report.stats.as_dict()


def test_prevention_run_with_pressure_and_conflicts_frees_its_machine(
        machines):
    pp = ProtectedProgram(get_bug("21287").source)
    report = pp.run(KivatiConfig(pressure=True, conflict_sched=True,
                                 breaker=True), seed=2)
    assert machines[0]() is None
    assert report.pressure is not None


def test_vanilla_run_frees_its_machine(machines):
    pp = ProtectedProgram(_fuzz_source(7))
    result = pp.run_vanilla(num_cores=3, seed=1)
    assert len(machines) == 1
    assert machines[0]() is None
    assert result.instr_count > 0
