"""Machine-level behaviour: scheduling, events, determinism, faults."""

import pytest

from repro.compiler.codegen import compile_program
from repro.errors import DeadlockError, MemoryFault, StepLimitExceeded
from repro.machine.costs import CostModel
from repro.machine.machine import Machine
from repro.machine.threads import ThreadState
from repro.minic.parser import parse


def build(src):
    return compile_program(parse(src))


def run(src, **kwargs):
    machine = Machine(build(src), **kwargs)
    return machine.run(raise_on_deadlock=True), machine


def test_runs_are_deterministic_per_seed():
    src = """
    int total = 0;
    void w(int n) {
        int i = 0;
        while (i < n) { atomic_add(&total, rand(5)); i = i + 1; }
    }
    void main() { spawn w(50); spawn w(50); join(); output(total); }
    """
    r1, _ = run(src, seed=11)
    r2, _ = run(src, seed=11)
    r3, _ = run(src, seed=12)
    assert r1.output == r2.output
    assert r1.time_ns == r2.time_ns
    assert r1.instr_count == r2.instr_count
    # different seeds change program-visible randomness
    assert r1.output != r3.output or r1.time_ns != r3.time_ns


def test_null_pointer_dereference_sets_fault():
    result, _ = run("""
    int *p;
    void main() { output(*p); }
    """)
    assert isinstance(result.fault, MemoryFault)
    assert result.output == []


def test_deadlock_detected():
    src = """
    int a = 0;
    int b = 0;
    void t1() { lock(&a); sleep(5000); lock(&b); unlock(&b); unlock(&a); }
    void t2() { lock(&b); sleep(5000); lock(&a); unlock(&a); unlock(&b); }
    void main() { spawn t1(); spawn t2(); join(); }
    """
    with pytest.raises(DeadlockError):
        run(src)
    machine = Machine(build(src))
    result = machine.run(raise_on_deadlock=False)
    assert result.deadlocked


def test_step_limit_guards_infinite_loops():
    with pytest.raises(StepLimitExceeded):
        run("void main() { while (1) { } }", max_steps=10_000)


@pytest.mark.parametrize("max_steps,passes", [(4, False), (5, True),
                                              (6, True)])
def test_step_limit_counts_only_instructions_that_would_run(max_steps,
                                                            passes):
    # the program executes exactly 5 instructions: the limit trips only
    # when a live thread is about to execute instruction max_steps + 1
    src = "int g; void main() { g = 1; }"
    assert run(src)[0].instr_count == 5
    if passes:
        result, _ = run(src, max_steps=max_steps)
        assert result.instr_count == 5
    else:
        with pytest.raises(StepLimitExceeded,
                           match="exceeded %d instructions" % max_steps):
            run(src, max_steps=max_steps)


def test_more_threads_than_cores_all_complete():
    result, _ = run("""
    int done = 0;
    void w(int n) {
        int i = 0;
        int acc = 0;
        while (i < n) { acc = acc + i; i = i + 1; }
        atomic_add(&done, 1);
    }
    void main() {
        spawn w(100); spawn w(100); spawn w(100);
        spawn w(100); spawn w(100); spawn w(100);
        join();
        output(done);
    }
    """, num_cores=2)
    assert result.output == [6]
    assert result.threads == 7


def test_single_core_machine_works():
    result, _ = run("""
    int x = 0;
    void w() { x = x + 1; }
    void main() { spawn w(); spawn w(); join(); output(x); }
    """, num_cores=1)
    assert result.output == [2]


def test_two_cores_run_in_parallel():
    # two pure-compute threads should take about half the serial time
    src = """
    void w(int n) {
        int i = 0;
        int acc = 1;
        while (i < n) { acc = (acc * 3 + i) % 997; i = i + 1; }
    }
    void main() { spawn w(3000); spawn w(3000); join(); }
    """
    serial, _ = run(src, num_cores=1)
    parallel, _ = run(src, num_cores=2)
    assert parallel.time_ns < serial.time_ns * 0.7


def test_time_advances_with_sleep():
    result, _ = run("void main() { sleep(1000000); }")
    assert result.time_ns >= 1_000_000


def test_contended_lock_blocks_and_wakes():
    result, machine = run("""
    int m = 0;
    int order[4];
    int pos = 0;
    void w(int id) {
        lock(&m);
        order[pos] = id;
        pos = pos + 1;
        sleep(20000);
        unlock(&m);
    }
    void main() {
        spawn w(1);
        spawn w(2);
        join();
        output(order[0] + order[1] * 10);
        output(pos);
    }
    """)
    assert result.output[1] == 2
    assert sorted(divmod(result.output[0], 10)) in ([1, 2],)
    assert all(t.state == ThreadState.DONE for t in machine.threads.values())


def test_kernel_entries_counted():
    result, _ = run("void main() { sleep(100); sleep(100); }")
    assert result.kernel_entries >= 2


def test_cost_model_scales_runtime():
    src = "void main() { int i = 0; while (i < 1000) { i = i + 1; } }"
    fast, _ = run(src, costs=CostModel(instr=1))
    slow, _ = run(src, costs=CostModel(instr=4))
    assert slow.time_ns > fast.time_ns * 2


def test_event_scheduling_and_cancel():
    machine = Machine(build("void main() { sleep(50000); }"))
    fired = []
    eid1 = machine.schedule_event(1000, lambda m: fired.append(1))
    eid2 = machine.schedule_event(2000, lambda m: fired.append(2))
    machine.cancel_event(eid2)
    machine.run()
    assert fired == [1]
