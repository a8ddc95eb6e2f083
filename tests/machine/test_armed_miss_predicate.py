"""The dispatch loop's watchpoint-miss decision, property-tested.

``Machine.run`` decides whether a single watched access leaves the miss
path by scanning ``DebugRegisterFile.read_spans``/``write_spans``
inline.  For any slot configuration and any access, that decision must
equal ``DebugRegisterFile.match`` finding a hit slot; and a run that
takes the miss path must deliver exactly the traps of a run whose
profiler sends every access through ``match``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.codegen import compile_program
from repro.machine.machine import Machine
from repro.machine.runtime_iface import BaseRuntime
from repro.machine.watchpoints import DebugRegisterFile
from repro.minic.parser import parse
from repro.obs.profiler import VMProfiler

TIDS = st.integers(min_value=0, max_value=5)
ADDRS = st.integers(min_value=0, max_value=40)

SLOTS = st.lists(
    st.tuples(
        st.booleans(),                        # enabled
        ADDRS,                                # addr
        st.integers(min_value=1, max_value=4),  # size
        st.booleans(),                        # watch_read
        st.booleans(),                        # watch_write
        st.none() | st.frozensets(TIDS, max_size=3),  # suppressed_tids
    ),
    min_size=4, max_size=4)

ACCESSES = st.lists(st.tuples(ADDRS, st.booleans(), TIDS), min_size=1,
                    max_size=12)


def loop_hits(dr, addr, is_write, tid):
    """The loop's predicate, verbatim: some span covers the access."""
    for lo, hi, suppressed in (dr.write_spans if is_write
                               else dr.read_spans):
        if lo <= addr < hi and (suppressed is None
                                or tid not in suppressed):
            return True
    return False


def configured(slots, how):
    dr = DebugRegisterFile(len(slots))
    if how == "adopt":
        # the kernel-sync path: copy a logical slot state wholesale
        logical = DebugRegisterFile(len(slots))
        for slot, (enabled, addr, size, read, write, suppressed) in zip(
                logical.slots, slots):
            slot.enabled, slot.addr, slot.size = enabled, addr, size
            slot.watch_read, slot.watch_write = read, write
            slot.suppressed_tids = suppressed
        dr.adopt(logical.slots, epoch=1)
    else:
        for slot, (enabled, addr, size, read, write, suppressed) in zip(
                dr.slots, slots):
            slot.configure(addr, size, read, write, suppressed)
            if not enabled:
                slot.disable()
    return dr


@settings(max_examples=300, deadline=None)
@given(slots=SLOTS, accesses=ACCESSES,
       how=st.sampled_from(["configure", "adopt"]))
def test_miss_decision_equals_match(slots, accesses, how):
    dr = configured(slots, how)
    for addr, is_write, tid in accesses:
        assert loop_hits(dr, addr, is_write, tid) \
            == bool(dr.match(((addr, is_write),), tid))


@settings(max_examples=100, deadline=None)
@given(before=SLOTS, after=SLOTS, accesses=ACCESSES)
def test_spans_follow_reconfiguration(before, after, accesses):
    # a core re-synced to a new state must decide on the new state only
    dr = configured(before, "adopt")
    logical = configured(after, "configure")
    dr.adopt(logical.slots, epoch=2)
    for addr, is_write, tid in accesses:
        assert loop_hits(dr, addr, is_write, tid) \
            == bool(dr.match(((addr, is_write),), tid))


RACY_SRC = """
int g0; int g1; int g2; int g3;
void w(int n) {
    int i = 0;
    while (i < n) { g0 = g1 + i; g2 = g0 + g3; g3 = g2; i = i + 1; }
}
void main() { spawn w(3); spawn w(4); g1 = 7; join(); output(g0 + g3); }
"""
PROGRAM = compile_program(parse(RACY_SRC))
GLOBALS = sorted(PROGRAM.global_addrs.values())


class FixedSlots(BaseRuntime):
    """Arms every core's slots once and records each delivered trap."""

    def __init__(self, slots):
        self.slots = slots
        self.traps = []

    def attach(self, machine):
        self.machine = machine
        for core in machine.cores:
            for slot, (enabled, offset, size, read, write, suppressed) \
                    in zip(core.dr.slots, self.slots):
                slot.configure(GLOBALS[0] + offset % 6 - 1, size, read,
                               write, suppressed)
                if not enabled:
                    slot.disable()

    def on_watchpoint_trap(self, core, thread, after_pc, hit_slots,
                           accesses):
        self.traps.append((core.index, thread.tid, after_pc,
                           tuple(hit_slots), tuple(accesses)))
        return 0


def traced_run(slots, seed, profiler):
    runtime = FixedSlots(slots)
    result = Machine(PROGRAM, runtime=runtime, seed=seed,
                     profiler=profiler).run(raise_on_deadlock=True)
    return (result.time_ns, result.instr_count, result.output,
            runtime.traps)


@settings(max_examples=60, deadline=None)
@given(slots=SLOTS, seed=st.integers(min_value=0, max_value=50))
def test_miss_path_delivers_the_traps_of_full_matching(slots, seed):
    assert traced_run(slots, seed, None) \
        == traced_run(slots, seed, VMProfiler())
