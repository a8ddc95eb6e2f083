"""The simulated multicore machine.

A discrete-event loop drives per-core nanosecond clocks: the core with the
smallest local clock executes the next instruction of its current thread,
paying costs from the CostModel. Timer events (sleeps, Kivati timeouts,
bug-finding pauses) live in a global event queue and fire when simulated
time reaches them. ``Machine.run`` is the only dispatch loop: every opcode
is implemented once, inline in it, and a core keeps running while it stays
the earliest. When exactly two cores are active and the other one becomes
the earliest, with a thread to run, no event due and no parked core at or
before its clock, the turn passes straight to it: the core scan could only
pick it. An idle core whose kernel-idle poll is a no-op is parked: it
leaves the core scan and is advanced inline, to the clock the idle loop
would have given it, only when a running core's clock reaches its own.

Watchpoint semantics: a watchable instruction's accesses are computed
from the pre-commit register state. With trap-after hardware (x86, the
default) the instruction commits first and the trap handler is then
invoked with only the *after* program counter and the hit slot indices —
exactly what real x86 debug hardware reports — so the kernel must use
the pre-processed memory map to find and undo the access. With
``trap_before=True`` (SPARC-style) the handler runs before the access
commits. An access no armed slot covers, on a machine where nothing
watches every access, stays on the miss path: no access list, no call.
"""

import heapq
import time
from collections import deque

from repro.compiler.bytecode import WATCHABLE, Op
from repro.compiler.program import GLOBALS_BASE
from repro.errors import (
    DeadlockError,
    DivideByZero,
    MachineError,
    MemoryFault,
    StackOverflow,
    StepLimitExceeded,
)
from repro.machine.costs import CostModel
from repro.machine.memory import Memory
from repro.machine.runtime_iface import BaseRuntime
from repro.machine.threads import Frame, Thread, ThreadState
from repro.machine.watchpoints import DebugRegisterFile

# Enum member access costs ~10x a local compare on CPython, so nothing on
# the per-instruction path looks one up: thread states are bound here
# once, and opcodes are decoded to dense ints once per machine.
_RUNNABLE = ThreadState.RUNNABLE
_RUNNING = ThreadState.RUNNING
_SLEEPING = ThreadState.SLEEPING
_BLOCKED_JOIN = ThreadState.BLOCKED_JOIN
_BLOCKED_LOCK = ThreadState.BLOCKED_LOCK
_DONE = ThreadState.DONE
_UNWAKEABLE = (_DONE, _RUNNABLE, _RUNNING)

#: Dense opcodes of the decode table, one per Op (each named ``_`` + the
#: Op's name).  The watchable ops come first, so ``kind < _PLAIN`` is the
#: whole watchability test; the rest follow in rough dispatch frequency,
#: the order of the plain-op chain in ``Machine.run``.
(_LD, _ST, _STPARAM, _CPY, _LOCK, _UNLOCK, _CAS, _AADD, _CALLIND,
 _LADDR, _LI, _ADD, _JZ, _MUL, _JMP, _NOT, _LT, _MOD,
 _ENDAT, _BEGINAT, _SHADOWST, _MOV, _ENTER, _CLEARAR,
 _RET, _CALL, _EQ, _SUB, _DIV, _NE, _LE, _GT, _GE,
 _AND, _OR, _NEG, _JNZ, _SLEEP, _YIELD, _JOIN, _SPAWN,
 _OUT, _ALLOC, _RAND, _TID, _HALT, _UNKNOWN) = range(len(Op) + 1)
_PLAIN = _LADDR
_KIND_OF = {op: globals()["_" + op.name] for op in Op}
assert {op for op, kind in _KIND_OF.items() if kind < _PLAIN} == set(WATCHABLE)

#: later than any simulated clock: the bound when no core (or no parked
#: core) can come first, and the clock of a thread that left its core
_NEVER = 1 << 62



class Core:
    """One simulated CPU core."""

    __slots__ = ("index", "dr", "thread", "clock", "quantum_end", "last_tid",
                 "next_tick")

    def __init__(self, index, num_watchpoints):
        self.index = index
        self.dr = DebugRegisterFile(num_watchpoints)
        self.thread = None
        self.clock = 0
        self.quantum_end = 0
        self.last_tid = None
        self.next_tick = 0


class MachineResult:
    """Summary of one program execution."""

    __slots__ = ("time_ns", "output", "instr_count", "deadlocked", "threads",
                 "kernel_entries", "fault", "final_globals")

    def __init__(self, time_ns, output, instr_count, deadlocked, threads,
                 kernel_entries, fault=None, final_globals=None):
        self.time_ns = time_ns
        self.output = output
        self.instr_count = instr_count
        self.deadlocked = deadlocked
        self.threads = threads
        self.kernel_entries = kernel_entries
        self.fault = fault
        # name -> value snapshot of the program's global variables at
        # halt; the chaos suite compares this against a fault-free run
        self.final_globals = final_globals if final_globals is not None else {}

    def __repr__(self):
        return "MachineResult(time=%.3fms, instrs=%d, threads=%d%s)" % (
            self.time_ns / 1e6,
            self.instr_count,
            self.threads,
            ", DEADLOCK" if self.deadlocked else "",
        )


class Machine:
    """Executes a compiled program on simulated multicore hardware."""

    def __init__(self, program, num_cores=2, num_watchpoints=4, costs=None,
                 runtime=None, seed=0, trap_before=False, max_steps=200_000_000,
                 faults=None, journal=None, schedule_pin=None,
                 profiler=None):
        self.program = program
        self.instrs = program.instrs
        # the per-pc dispatch table; an op the machine does not implement
        # decodes to _UNKNOWN and faults only if executed
        self._decoded = [(_KIND_OF.get(i.op, _UNKNOWN), i.a, i.b, i.c, i.d)
                         for i in self.instrs]
        self.memory = Memory()
        for addr, value in program.global_inits.items():
            self.memory.words[addr] = value
        self.costs = costs or CostModel()
        self.runtime = runtime or BaseRuntime()
        self.trap_before = trap_before
        self.max_steps = max_steps
        self.seed = seed
        # optional repro.faults.FaultInjector; None keeps every injection
        # site on a single attribute-is-None predicate
        self.faults = faults
        # optional repro.journal.JournalRecorder: scheduler decisions are
        # journaled so a flagged run can be replayed pinned to the same
        # schedule; optional SchedulePin enforces a recorded schedule
        self.journal = journal
        self.schedule_pin = schedule_pin
        # optional repro.obs.VMProfiler: deterministic dispatch/watchpoint
        # counters; purely observational (no cost or scheduling effect).
        # Dispatch counting is per-pc into a flat list (aggregated to
        # per-op at export) so the per-instruction hook is a bare
        # ``counts[pc] += 1`` — Enum-keyed dicts hash through Python
        # code and would blow the obsbench overhead budget.
        self.profiler = profiler
        if profiler is not None:
            self._pc_counts = profiler.attach_program(self.instrs)
            self._wall_profiler = profiler if profiler.wall_time else None
        else:
            self._pc_counts = None
            self._wall_profiler = None
        # optional repro.machine.conflictsched.ConflictPolicy, installed
        # by the runtime's attach(); consulted (pure preview) before the
        # schedule pin so journal frames line up between record/replay
        self.conflict_policy = None

        self.cores = [Core(i, num_watchpoints) for i in range(num_cores)]
        for core in self.cores:
            core.next_tick = self.costs.timer_tick
        # Seeded scheduling jitter: real machines never align two cores'
        # instruction streams perfectly (cache misses, interrupts), so a
        # few nanoseconds of deterministic noise is added per context
        # switch. This makes thread interleavings vary with the seed,
        # which the bug-detection experiments (Table 6) rely on.
        self._jit_state = (seed * 1103515245 + 12345) & 0x7FFFFFFF
        self.threads = {}
        self._next_tid = 0
        self.run_queue = deque()
        self.lock_waiters = {}  # lock addr -> deque of tids
        self.output = []
        self.total_instrs = 0
        self.kernel_entries = 0
        self.deadlocked = False
        self.fault = None

        # scheduler-latency EMA (integer ns, deterministic): time between
        # a thread becoming runnable (wake_thread) and being placed on a
        # core. The pressure plane reads this to stretch suspension
        # timeouts and trip the backpressure watermark under overload.
        self.sched_latency_ema = 0
        self._wake_pending = {}

        # event queue: (time, seq, event_id); callbacks in _event_cbs
        self._events = []
        self._event_cbs = {}
        self._event_seq = 0

        main = Thread(self._alloc_tid(), program.entry(), parent=None, seed=seed)
        self.threads[main.tid] = main
        self._live = 1  # threads not DONE
        self.run_queue.append(main.tid)
        # tid -> root function name (the conflict scheduler's candidate
        # footprints come from the function a thread was spawned into)
        self.thread_funcs = {main.tid: "main"}

        self.runtime.attach(self)

    # ------------------------------------------------------------------
    # public API used by runtimes
    # ------------------------------------------------------------------

    def now(self):
        """Current simulated time: clock of the earliest core."""
        return min(core.clock for core in self.cores)

    def read_raw(self, addr):
        """Kernel-mode memory read (no watchpoint semantics)."""
        return self.memory.read(addr)

    def write_raw(self, addr, value):
        """Kernel-mode memory write (no watchpoint semantics) — used by
        the undo engine to roll back a remote access."""
        self.memory.write(addr, value)

    def schedule_event(self, time, callback):
        """Schedule ``callback(machine)`` at simulated ``time``; returns an
        event id usable with :meth:`cancel_event`."""
        self._event_seq += 1
        eid = self._event_seq
        self._event_cbs[eid] = callback
        heapq.heappush(self._events, (time, eid))
        return eid

    def cancel_event(self, eid):
        self._event_cbs.pop(eid, None)

    def block_current(self, core, state, wake_time=None, retry_instr=False):
        """Block the thread currently running on ``core``.

        ``retry_instr`` rolls the pc back one instruction so the thread
        re-executes it on wakeup (used when suspending a remote thread at
        its begin_atomic, and when rolling back a trapped access).
        """
        thread = core.thread
        if thread is None:
            raise MachineError("no thread running on core %d" % core.index)
        if retry_instr:
            thread.pc -= 1
        thread.state = state
        thread.wake_time = wake_time
        core.thread = None
        if wake_time is not None:
            tid = thread.tid
            self.schedule_event(wake_time, lambda m: m._timed_wake(tid))

    def wake_thread(self, tid):
        """Make a blocked thread runnable again."""
        thread = self.threads.get(tid)
        if thread is None or thread.state in _UNWAKEABLE:
            return False
        thread.state = _RUNNABLE
        thread.wake_time = None
        self.run_queue.append(tid)
        self._wake_pending[tid] = self.now()
        return True

    def _timed_wake(self, tid):
        thread = self.threads.get(tid)
        if thread is not None and thread.state is _SLEEPING:
            self.wake_thread(tid)

    def kernel_entry(self, core, thread=None):
        """Record a kernel entry on ``core`` (syscall/trap/interrupt) and
        give the runtime its opportunistic cross-core sync point."""
        self.kernel_entries += 1
        self.runtime.on_kernel_entry(core, thread if thread is not None else core.thread)

    def live_threads(self):
        return [t for t in self.threads.values() if t.state is not _DONE]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _alloc_tid(self):
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def _jitter(self):
        self._jit_state = (self._jit_state * 1103515245 + 12345) & 0x7FFFFFFF
        return (self._jit_state >> 16) & 0x1F

    def _spawn(self, parent, func_index, nargs):
        image = self.program.func_by_index[func_index]
        tid = self._alloc_tid()
        if tid >= 256:
            raise MachineError("too many threads (max 256 per run)")
        child = Thread(tid, image.entry, parent=parent.tid, seed=self.seed)
        for i in range(nargs):
            child.regs[i] = parent.regs[i]
        parent.live_children += 1
        self.threads[child.tid] = child
        self._live += 1
        self.run_queue.append(child.tid)
        self.thread_funcs[child.tid] = image.name
        return child

    def _thread_exit(self, core, thread):
        thread.state = _DONE
        self._live -= 1
        core.thread = None
        if thread.parent is not None:
            parent = self.threads[thread.parent]
            parent.live_children -= 1
            if parent.state is _BLOCKED_JOIN and parent.live_children == 0:
                self.wake_thread(parent.tid)
        self.runtime.on_thread_exit(core, thread)

    def _schedule(self, core):
        """Pick the next runnable thread for ``core``; returns True if one
        was placed."""
        tid = None
        choice = None
        if self.conflict_policy is not None:
            # pure preview: consulted before the pin in both recording
            # and replaying runs so its csched frames line up; the queue
            # is only mutated below (record) or by the pin (replay)
            choice = self.conflict_policy.preview(self, core)
            if choice is not None and not isinstance(choice, int):
                # STALL: idle this core one stall quantum so a
                # conflicting atomic region on another core can close;
                # deterministic in replay too (the preview re-decides
                # identically, and no sched frame was recorded here)
                core.clock += self.costs.conflict_stall
                return False
        if self.schedule_pin is not None:
            # replay: prefer the thread the recorded run scheduled at
            # this decision point (removed from the run queue by select)
            tid = self.schedule_pin.select(self, core)
        elif choice is not None:
            # first occurrence — the same entry SchedulePin.select
            # deletes when it replays the journaled frame
            self.run_queue.remove(choice)
            tid = choice
        if tid is None:
            while self.run_queue:
                cand = self.run_queue.popleft()
                if self.threads[cand].state is not _RUNNABLE:
                    continue
                tid = cand
                break
        if tid is None:
            return False
        thread = self.threads[tid]
        woke = self._wake_pending.pop(tid, None)
        if woke is not None:
            sample = core.clock - woke
            if sample < 0:
                sample = 0
            self.sched_latency_ema = (3 * self.sched_latency_ema
                                      + sample) // 4
        thread.state = _RUNNING
        thread.last_core = core.index
        core.thread = thread
        core.quantum_end = core.clock + self.costs.quantum
        if self.journal is not None:
            self.journal.emit(core.clock, tid, "sched", core=core.index,
                              pc=thread.pc)
        if core.last_tid != tid:
            core.clock += self.costs.context_switch + self._jitter()
            core.last_tid = tid
            self.kernel_entry(core, thread)
        else:
            # returning from the idle loop is a kernel exit as well —
            # the core adopts current watchpoint state without a
            # context-switch charge
            self.runtime.on_kernel_entry(core, thread)
        return True

    def _fire_due_events(self, now):
        fired = False
        while self._events and self._events[0][0] <= now:
            _, eid = heapq.heappop(self._events)
            cb = self._event_cbs.pop(eid, None)
            if cb is not None:
                cb(self)
                fired = True
        return fired

    def _next_event_time(self):
        while self._events and self._events[0][1] not in self._event_cbs:
            heapq.heappop(self._events)
        return self._events[0][0] if self._events else None

    def run(self, raise_on_deadlock=False):
        """Run the program to completion; returns a MachineResult.

        This is the machine's only dispatch loop.  Each iteration picks
        the earliest core (the lowest index on a tie), fires any event
        due by its clock, places a thread on it or idles it, and then
        executes its thread's instructions inline while it stays the
        earliest.  With exactly two active cores, a turn that ends
        because the other core is now the earliest passes straight to
        that core when the scan would pick it and run it unchanged: its
        thread is running, no event is due by its clock and no parked
        core is at or before it.  Every other end of a turn goes back
        to the scan, which alone fires events, places threads and steps
        parked cores."""
        cores = self.cores
        events = self._events
        run_queue = self.run_queue
        runtime = self.runtime
        decoded = self._decoded
        memory = self.memory
        words = memory.words
        mem_limit = memory.limit
        costs = self.costs
        c_instr = costs.instr
        c_mem = costs.mem_instr
        c_mul_div = costs.mul_div
        c_call = costs.call
        c_lock = costs.lock_uncontended
        counts = self._pc_counts
        wall = self._wall_profiler
        profiler = self.profiler
        trap_before = self.trap_before
        wants_all = runtime.wants_all_accesses
        # every watchable op builds its access list and goes through
        # full delivery; otherwise only an op whose address an armed
        # slot covers leaves the miss path
        watch_all = trap_before or wants_all or profiler is not None
        # idle cores are parked only where their kernel-idle poll cannot
        # depend on anything but the runtime's own state
        can_park = (self.faults is None and self.conflict_policy is None
                    and self.schedule_pin is None)
        active = list(cores)
        parked = []
        # at most the earliest parked core's clock: a filter for the
        # exact check in the outer loop
        park_clock = _NEVER
        max_steps = self.max_steps
        instrs = self.total_instrs
        # dispatches are counted as committed instructions plus the
        # trap-before suspensions, which lower the budget by one each
        budget = instrs + max_steps
        try:
            while self._live:
                core = active[0]
                for other in active:
                    if other.clock < core.clock:
                        core = other
                clock = core.clock
                if park_clock <= clock:
                    # The earliest parked core (the lowest index on a
                    # tie) may come before this one.  Then stepping would
                    # run its idle iteration first: a no-op poll and an
                    # _idle_advance leap, which is done here.  If the
                    # iteration could do anything else, the core is
                    # unparked and takes it through the normal path.
                    idle = parked[0]
                    for other in parked:
                        if other.clock < idle.clock:
                            idle = other
                    park_clock = idle.clock
                    if park_clock < clock or (park_clock == clock
                                              and idle.index < core.index):
                        if (run_queue
                                or (events and events[0][0] <= idle.clock)
                                or not runtime.idle_polls_are_noop((idle,))
                                or not self._idle_advance(idle)):
                            parked.remove(idle)
                            active = [c for c in cores if c not in parked]
                        park_clock = min([c.clock for c in parked],
                                         default=_NEVER)
                        continue
                if (events and events[0][0] <= clock
                        and self._fire_due_events(clock)):
                    continue
                thread = core.thread
                if thread is None or thread.state is not _RUNNING:
                    if thread is not None:
                        core.thread = None
                    if not self._schedule(core):
                        # an idle core sits in the kernel idle loop: it
                        # adopts watchpoint state and lets the runtime
                        # release cross-core sync waiters
                        runtime.on_kernel_entry(core, None)
                        if run_queue:
                            continue
                        if not self._idle_advance(core):
                            self.deadlocked = True
                            if raise_on_deadlock:
                                raise DeadlockError(
                                    "all threads blocked; states: %s"
                                    % {t.tid: t.state.value
                                       for t in self.live_threads()}
                                )
                            break
                        if (can_park and runtime.idle_polls_are_noop((core,))
                                and any(other.thread is not None
                                        for other in active)):
                            # its next poll is a no-op too: park it while
                            # another core runs
                            active.remove(core)
                            parked = [c for c in cores
                                      if c is core or c in parked]
                            park_clock = min(park_clock, core.clock)
                        continue
                    thread = core.thread

                # The core runs instructions of ``thread`` for as long as
                # it stays the earliest.  ``horizon`` is the first clock at
                # which another active core would be picked before it, and
                # ``limit`` the first at which any core would, parked ones
                # included.
                horizon = _NEVER
                index = core.index
                for other in active:
                    if other is not core:
                        bound = other.clock + (other.index > index)
                        if bound < horizon:
                            horizon = bound
                limit = horizon
                for other in parked:
                    bound = other.clock + (other.index > index)
                    if bound < limit:
                        limit = bound
                quantum_end = core.quantum_end
                # the other active core if there is exactly one: the
                # turn may be handed straight to it (see below)
                partner = None
                if len(active) == 2:
                    partner = active[active[0] is core]
                while True:
                    # ---- dispatch one instruction of ``thread`` ----
                    if instrs >= budget:
                        raise StepLimitExceeded(
                            "exceeded %d instructions" % max_steps)
                    pc = thread.pc
                    try:
                        if pc < 0:
                            raise IndexError
                        kind, a, b, c, d = decoded[pc]
                    except IndexError:
                        raise MachineError("pc out of range: %d (tid %d)"
                                           % (pc, thread.tid)) from None
                    if counts is not None:
                        counts[pc] += 1
                        if wall is not None:
                            # host time is attributed to this opcode
                            wall._last_op = self.instrs[pc].op
                            t0 = time.perf_counter_ns()
                    regs = thread.regs
                    cost = c_instr

                    if kind >= _PLAIN:
                        thread.pc = pc + 1
                        if kind == _LADDR:
                            regs[a] = thread.fp - 1 - b
                        elif kind == _LI:
                            regs[a] = b
                        elif kind == _ADD:
                            regs[a] = regs[b] + regs[c]
                        elif kind == _JZ:
                            if regs[a] == 0:
                                thread.pc = b
                        elif kind == _MUL:
                            regs[a] = regs[b] * regs[c]
                            cost = c_mul_div
                        elif kind == _JMP:
                            thread.pc = a
                        elif kind == _NOT:
                            regs[a] = 0 if regs[b] else 1
                        elif kind == _LT:
                            regs[a] = 1 if regs[b] < regs[c] else 0
                        elif kind == _MOD:
                            if regs[c] == 0:
                                raise DivideByZero("modulo by zero at %s"
                                                   % self.program.location(pc))
                            regs[a] = regs[b] % regs[c]
                            cost = c_mul_div
                        elif kind == _ENDAT:
                            cost = runtime.on_end_atomic(core, thread, a,
                                                         b == 1)
                        elif kind == _BEGINAT:
                            cost = runtime.on_begin_atomic(core, thread, a,
                                                           regs[b])
                        elif kind == _SHADOWST:
                            cost = runtime.on_shadow_store(core, thread, a,
                                                           regs[b])
                        elif kind == _MOV:
                            regs[a] = regs[b]
                        elif kind == _ENTER:
                            thread.sp -= 1
                            memory.write(thread.sp, thread.fp)
                            thread.fp = thread.sp
                            thread.sp -= a
                            if thread.sp < Memory.stack_limit(thread.tid):
                                raise StackOverflow("thread %d stack overflow"
                                                    % thread.tid)
                        elif kind == _CLEARAR:
                            cost = runtime.on_clear_ar(core, thread)
                        elif kind == _RET and thread.frames:
                            frame = thread.frames.pop()
                            result = regs[0]
                            thread.regs = frame.saved_regs
                            thread.regs[frame.result_reg] = result
                            thread.sp = frame.saved_sp
                            thread.fp = frame.saved_fp
                            thread.pc = frame.return_pc
                            cost = c_call
                        elif kind == _CALL:
                            self._do_call(thread, a, b, c, pc + 1)
                            cost = c_call
                        elif kind == _EQ:
                            regs[a] = 1 if regs[b] == regs[c] else 0
                        elif kind == _SUB:
                            regs[a] = regs[b] - regs[c]
                        elif kind == _DIV:
                            if regs[c] == 0:
                                raise DivideByZero("division by zero at %s"
                                                   % self.program.location(pc))
                            regs[a] = regs[b] // regs[c]
                            cost = c_mul_div
                        elif kind == _NE:
                            regs[a] = 1 if regs[b] != regs[c] else 0
                        elif kind == _LE:
                            regs[a] = 1 if regs[b] <= regs[c] else 0
                        elif kind == _GT:
                            regs[a] = 1 if regs[b] > regs[c] else 0
                        elif kind == _GE:
                            regs[a] = 1 if regs[b] >= regs[c] else 0
                        elif kind == _AND:
                            regs[a] = 1 if (regs[b] and regs[c]) else 0
                        elif kind == _OR:
                            regs[a] = 1 if (regs[b] or regs[c]) else 0
                        elif kind == _NEG:
                            regs[a] = -regs[b]
                        elif kind == _JNZ:
                            if regs[a] != 0:
                                thread.pc = b
                        elif _SLEEP <= kind <= _JOIN:
                            ns = max(0, regs[a])  # SLEEP's duration
                            cost = costs.syscall
                            self.kernel_entry(core, thread)
                            if kind == _SLEEP:
                                self.block_current(
                                    core, _SLEEPING,
                                    wake_time=core.clock + cost + ns)
                            elif kind == _YIELD:
                                thread.state = _RUNNABLE
                                run_queue.append(thread.tid)
                                core.thread = None
                            elif thread.live_children > 0:
                                self.block_current(core, _BLOCKED_JOIN)
                        elif kind == _SPAWN:
                            self._spawn(thread, a, b)
                            cost = costs.spawn
                            self.kernel_entry(core, thread)
                        elif kind == _OUT:
                            self.output.append(regs[a])
                        elif kind == _ALLOC:
                            regs[a] = memory.alloc(regs[b])
                            cost = c_call
                        elif kind == _RAND:
                            regs[a] = thread.next_rand(regs[b])
                        elif kind == _TID:
                            regs[a] = thread.tid
                        elif kind == _HALT or kind == _RET:
                            # HALT, or RET from the thread's root function
                            self._thread_exit(core, thread)
                            core.clock += c_call if kind == _RET else cost
                            instrs += 1
                            if wall is not None:
                                wall.add_wall_ns(time.perf_counter_ns() - t0)
                            break
                        else:
                            raise MachineError("unimplemented op %s"
                                               % self.instrs[pc].op)
                        instrs += 1
                        if core.clock >= core.next_tick:
                            cost += self._timer_tick(core, thread)
                        core.clock += cost
                    else:
                        # Watchable op.  A single-access op names its access
                        # as (addr, is_write); the others, and every op when
                        # something watches all accesses, build the full
                        # ``accesses`` list from the pre-commit state.
                        accesses = None
                        if kind == _LD:
                            addr = regs[b]
                            is_write = False
                        elif kind == _ST or kind == _UNLOCK:
                            addr = regs[a]
                            is_write = True
                        elif kind == _STPARAM:
                            addr = thread.fp - 1 - a
                            is_write = True
                        elif kind == _CALLIND:
                            addr = regs[a]
                            is_write = False
                        elif kind == _CPY:
                            accesses = ((regs[b], False), (regs[a], True))
                        elif kind == _LOCK:  # writes only if the lock is free
                            addr = regs[a]
                            accesses = (((addr, False), (addr, True))
                                        if memory.read(addr) == 0
                                        else ((addr, False),))
                        elif kind == _CAS:  # writes only if compare succeeds
                            addr = regs[b]
                            accesses = (((addr, False), (addr, True))
                                        if memory.read(addr) == regs[c]
                                        else ((addr, False),))
                        else:  # _AADD
                            addr = regs[b]
                            accesses = ((addr, False), (addr, True))
                        if watch_all:
                            if accesses is None:
                                accesses = ((addr, is_write),)
                            if trap_before and self._trap_before(
                                    core, thread, pc, accesses):
                                # dispatched but not committed: it still
                                # counts against the step limit
                                budget -= 1
                                if wall is not None:
                                    wall.add_wall_ns(
                                        time.perf_counter_ns() - t0)
                                break

                        thread.pc = pc + 1
                        retried = False
                        if kind == _LD:
                            if addr < GLOBALS_BASE or addr >= mem_limit:
                                raise MemoryFault(addr)
                            regs[a] = words.get(addr, 0)
                            cost = c_mem
                        elif kind == _ST or kind == _STPARAM:
                            if addr < GLOBALS_BASE or addr >= mem_limit:
                                raise MemoryFault(addr)
                            words[addr] = regs[b]
                            cost = c_mem
                        elif kind == _CPY:
                            memory.write(regs[a], memory.read(regs[b]))
                            cost = c_mem * 2
                        elif kind == _LOCK:
                            if memory.read(addr) == 0:
                                memory.write(addr, thread.tid + 1)
                                cost = c_lock
                            else:
                                cost = costs.lock_kernel
                                self.kernel_entry(core, thread)
                                self.lock_waiters.setdefault(
                                    addr, deque()).append(thread.tid)
                                self.block_current(core, _BLOCKED_LOCK,
                                                   retry_instr=True)
                                # the acquire will re-execute; deliver its
                                # trap then, when the after-pc is meaningful
                                retried = True
                        elif kind == _UNLOCK:
                            memory.write(addr, 0)
                            waiters = self.lock_waiters.get(addr)
                            if waiters:
                                cost = costs.lock_kernel
                                self.kernel_entry(core, thread)
                                while waiters:
                                    if self.wake_thread(waiters.popleft()):
                                        break
                            else:
                                cost = c_lock
                        elif kind == _CAS:
                            if memory.read(addr) == regs[c]:
                                memory.write(addr, regs[d])
                                regs[a] = 1
                            else:
                                regs[a] = 0
                            cost = c_lock
                        elif kind == _AADD:
                            old = memory.read(addr)
                            memory.write(addr, old + regs[c])
                            regs[a] = old
                            cost = c_lock
                        else:  # _CALLIND
                            fidx = memory.read(addr)
                            if not 0 <= fidx < len(self.program.func_by_index):
                                raise MachineError(
                                    "indirect call to bad function index %d"
                                    " at %s"
                                    % (fidx, self.program.location(pc)))
                            self._do_call(thread, fidx, 0, 0, pc + 1)
                            cost = c_call + c_mem

                        instrs += 1
                        if core.clock >= core.next_tick:
                            cost += self._timer_tick(core, thread)
                        if accesses is None:
                            # the miss path: the delivery below runs only if
                            # an armed slot covers this access (after any
                            # timer tick above re-synced the registers)
                            core.clock += cost
                            dr = core.dr
                            spans = (dr.write_spans if is_write
                                     else dr.read_spans)
                            for lo, hi, suppressed in spans:
                                if lo <= addr < hi and (
                                        suppressed is None
                                        or thread.tid not in suppressed):
                                    accesses = ((addr, is_write),)
                                    self._trap_after(
                                        core, thread,
                                        dr.match(accesses, thread.tid),
                                        accesses)
                                    break
                        else:
                            if wants_all:
                                # per-access baseline hook
                                for addr, is_write in accesses:
                                    cost += runtime.on_memory_access(
                                        core, thread, addr, is_write)
                            core.clock += cost
                            if not trap_before and not retried and (
                                    core.dr.armed or profiler is not None):
                                hits = core.dr.match(accesses, thread.tid,
                                                     profiler)
                                if hits:
                                    self._trap_after(core, thread, hits,
                                                     accesses)

                    if thread.state is not _RUNNING:
                        # an annotation or trap handler blocked the thread
                        if core.thread is thread:
                            core.thread = None
                        clock = _NEVER  # the thread left the core
                    else:
                        clock = core.clock
                        if (clock >= quantum_end and run_queue
                                and core.thread is thread):
                            # preemption
                            thread.state = _RUNNABLE
                            run_queue.append(thread.tid)
                            core.thread = None
                            core.clock += costs.context_switch
                            self.kernel_entry(core, thread)
                            clock = _NEVER
                    if wall is not None:
                        wall.add_wall_ns(time.perf_counter_ns() - t0)
                    if clock < limit and not (events
                                              and events[0][0] <= clock):
                        continue
                    if horizon <= clock < _NEVER and partner is not None:
                        # The other active core is now the earliest: its
                        # clock cannot change during this turn, and the
                        # tie term in ``horizon`` gives a tie to the lower
                        # index.  If it would run its thread, with no event
                        # due by its clock (one due at exactly its clock
                        # fires first) and no parked core at or before it
                        # (a tied parked core comes first), the outer loop
                        # could only pick it and run it: hand the turn
                        # over here instead.
                        successor = partner.thread
                        start = partner.clock
                        if (start < park_clock and successor is not None
                                and successor.state is _RUNNING
                                and not (events and events[0][0] <= start)):
                            horizon = clock + (index > partner.index)
                            core, partner = partner, core
                            thread = successor
                            index = core.index
                            limit = horizon
                            for other in parked:
                                bound = other.clock + (other.index > index)
                                if bound < limit:
                                    limit = bound
                            quantum_end = core.quantum_end
                            continue
                        break
                    if (clock < horizon and not run_queue
                            and not (events and events[0][0] <= clock + 1)
                            and runtime.idle_polls_are_noop(parked)):
                        # Only parked cores come first.  Stepping would run
                        # their idle iterations now: with no thread queued,
                        # no event due and no-op polls, each leaps to this
                        # core's clock plus one.
                        limit = horizon
                        for other in parked:
                            if other.clock + (other.index > index) <= clock:
                                other.clock = clock + 1
                            bound = other.clock + (other.index > index)
                            if bound < limit:
                                limit = bound
                        continue
                    # the thread left, another core or an event is due, or
                    # a parked core must take the normal path
                    break
        except (DivideByZero, StackOverflow, MemoryFault) as exc:
            # A program-level crash: several corpus bugs crash the victim
            # application when the violation manifests. Record and stop.
            self.fault = exc
        finally:
            self.total_instrs = instrs
        self.runtime.on_run_end(self)
        end_time = max(core.clock for core in self.cores)
        words = self.memory.words
        final_globals = {
            name: words.get(addr, 0)
            for name, addr in self.program.global_addrs.items()
        }
        return MachineResult(
            time_ns=end_time,
            output=self.output,
            instr_count=self.total_instrs,
            deadlocked=self.deadlocked,
            threads=len(self.threads),
            kernel_entries=self.kernel_entries,
            fault=self.fault,
            final_globals=final_globals,
        )

    def _idle_advance(self, core):
        """Advance an idle core's clock to the next possible activity.
        Returns False if the whole machine is stuck (deadlock)."""
        candidates = []
        ev = self._next_event_time()
        if ev is not None:
            candidates.append(ev)
        for other in self.cores:
            if other is not core and other.thread is not None:
                candidates.append(other.clock + 1)
        if self.run_queue:
            candidates.append(core.clock + 1)
        if not candidates:
            return False
        core.clock = max(core.clock + 1, min(candidates))
        return True

    def _timer_tick(self, core, thread):
        """Periodic timer interrupt: a kernel entry on ``core`` (the
        opportunistic watchpoint-sync point interrupts provide); returns
        its cost."""
        tick = self.costs.timer_tick
        if self.faults is not None and self.faults.fires(
                "machine.timer.jitter", core.clock, core=core.index):
            tick += self.faults.param("machine.timer.jitter", "jitter_ns",
                                      4 * tick)
        core.next_tick = core.clock + tick
        self.runtime.on_kernel_entry(core, thread)
        return self.costs.timer_tick_cost

    def _trap_before(self, core, thread, pc, accesses):
        """Trap-before (SPARC-style) delivery, before the access commits.
        Returns True if the handler suspended the thread: the access
        never happened and the instruction re-executes on wake-up."""
        hits = core.dr.match(accesses, thread.tid, self.profiler)
        if hits and self.faults is not None and self.faults.fires(
                "machine.trap.drop", core.clock, tid=thread.tid, pc=pc):
            hits = ()
        if not hits:
            return False
        cost = self.costs.instr + self.costs.trap
        cost += self.runtime.on_watchpoint_trap(core, thread, None, hits,
                                                accesses)
        core.clock += cost
        if thread.state is _RUNNING:
            return False  # the instruction commits normally
        core.thread = None
        return True

    def _trap_after(self, core, thread, hits, accesses):
        """Trap-after (x86) delivery: the access has committed and the
        handler gets only the after-pc and the hit slots."""
        faults = self.faults
        after_pc = thread.pc
        if faults is not None and faults.fires(
                "machine.trap.drop", core.clock, tid=thread.tid, pc=after_pc):
            # trap lost in delivery: the access stays committed and the
            # kernel never hears about it
            return
        core.clock += self.costs.trap
        trap_cost = self.runtime.on_watchpoint_trap(core, thread, after_pc,
                                                    hits, accesses)
        core.clock += trap_cost
        if faults is not None and faults.fires(
                "machine.trap.duplicate", core.clock, tid=thread.tid,
                pc=after_pc):
            # spurious second delivery of the same trap; the kernel must
            # dedup it
            core.clock += self.costs.trap
            core.clock += self.runtime.on_watchpoint_trap(
                core, thread, after_pc, hits, accesses)

    def _do_call(self, thread, func_index, nargs, result_reg, return_pc):
        image = self.program.func_by_index[func_index]
        frame = Frame(return_pc, thread.regs, result_reg, thread.fp, thread.sp)
        thread.frames.append(frame)
        if len(thread.frames) > 512:
            raise StackOverflow("thread %d call depth exceeded" % thread.tid)
        new_regs = [0] * len(thread.regs)
        for i in range(nargs):
            new_regs[i] = thread.regs[i]
        thread.regs = new_regs
        # push the return address so the kernel can recover call sites
        # (the CALLIND special case reads the top of stack)
        thread.sp -= 1
        self.memory.write(thread.sp, return_pc)
        thread.pc = image.entry
