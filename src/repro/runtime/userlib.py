"""The Kivati user-space library (Section 3.4).

Implements the machine runtime interface. Every annotation first runs here
in user space; the library decides whether a kernel crossing is needed:

- whitelist checks always complete in user space;
- in the *null syscall* diagnostic configuration, every annotation crosses
  into a kernel that does nothing (isolates crossing cost, Table 3);
- without the first optimization, every annotation crosses;
- with the first optimization, the user-space replica of the AR table and
  watchpoint metadata lets begin/end/clear return without crossing unless
  a hardware register must change, a thread must be suspended/woken, or
  violation triggers must be evaluated.

In this simulation the "replica" and the kernel state are the same Python
objects (the paper keeps them consistent through a shared page); the
crossing decision — and therefore the cost model — follows exactly the
paper's rules for when the kernel must be entered.
"""

from repro.core.config import Mode
from repro.core.reports import DegradationLog
from repro.faults.breaker import BreakerPolicy, CircuitBreaker
from repro.kernel.kivati import KivatiKernel
from repro.pressure.plane import PressurePlane
from repro.pressure.policy import PressurePolicy
from repro.machine.runtime_iface import BaseRuntime
from repro.machine.threads import ThreadState
from repro.runtime.stats import KivatiStats
from repro.runtime.whitelist import Whitelist


class KivatiRuntime(BaseRuntime):
    """Instrumentation runtime implementing the full Kivati system."""

    wants_all_accesses = False

    def __init__(self, config, ar_table, log, sync_ar_ids=(), faults=None,
                 degrade=None, static_safe_ar_ids=(), journal=None,
                 footprints=None, func_footprints=None,
                 blocking_ar_ids=(), coarse_vars=()):
        if journal is not None and config.journal is None:
            # convenience: callers may hand the recorder here instead of
            # pre-binding it on the config
            config = config.copy(journal=journal)
        self.config = config
        self.ar_table = ar_table
        self.stats = KivatiStats()
        self.log = log
        self.faults = faults
        # ARs the lock-discipline analysis proved safe: skipped entirely
        # in user space, like the whitelist but decided before the run
        self.static_pruned = (frozenset(static_safe_ar_ids)
                              if config.static_prune else frozenset())
        self.degrade = degrade if degrade is not None else DegradationLog()
        whitelist_ids = set(config.whitelist)
        if config.opt.o4_syncvars:
            whitelist_ids.update(sync_ar_ids)
        self.whitelist = Whitelist(
            whitelist_ids,
            path=config.whitelist_path,
            reread_interval_ns=config.whitelist_reread_ns,
        )
        self.whitelist.faults = faults
        # counters from the startup read (no clock yet, so no event)
        self.stats.whitelist_read_errors = self.whitelist.read_errors
        self.stats.whitelist_malformed_lines = self.whitelist.malformed_lines
        if config.breaker is True:
            self.breaker = CircuitBreaker()
        elif isinstance(config.breaker, BreakerPolicy):
            self.breaker = CircuitBreaker(config.breaker)
        else:
            self.breaker = None
        # overload control plane: slot arbitration, AR quarantine,
        # admission control, adaptive suspension timeouts
        if config.pressure is True:
            self.pressure = PressurePlane(PressurePolicy())
        elif isinstance(config.pressure, PressurePolicy):
            self.pressure = PressurePlane(config.pressure)
        else:
            self.pressure = None
        self.kernel = KivatiKernel(config, ar_table, self.stats, log,
                                   faults=faults, degrade=self.degrade,
                                   breaker=self.breaker,
                                   pressure=self.pressure)
        self.machine = None
        self._pause_seq = 0
        self.journal = config.journal
        # static conflict-footprint analysis products (repro.analysis
        # .footprint), consumed by the conflict-aware scheduler
        self.footprints = footprints or {}
        self.func_footprints = func_footprints or {}
        # ARs whose span contains a potentially blocking call (the W004
        # analysis): the conflict scheduler must not stall waiting for
        # such a window to close
        self.blocking_ar_ids = frozenset(blocking_ar_ids)
        # globals the footprint analysis tracks at array granularity
        # (element accesses collapse to the base name); the scheduler
        # treats conflicts witnessed only by these as phantoms
        self.coarse_vars = frozenset(coarse_vars)

    # ------------------------------------------------------------------

    @staticmethod
    def schedules_conflicts(config):
        """Whether a run under ``config`` installs the conflict-aware
        scheduler, the only run-time reader of the footprints."""
        return config.conflict_sched and config.mode == Mode.PREVENTION

    def attach(self, machine):
        self.machine = machine
        self.kernel.attach(machine)
        if self.schedules_conflicts(self.config) and self.footprints:
            # conflict-aware scheduling only makes sense when Kivati is
            # *preventing*: bug-finding mode deliberately widens racy
            # windows, and deconflicting them would fight the pauses
            from repro.machine.conflictsched import ConflictPolicy

            machine.conflict_policy = ConflictPolicy(
                self.footprints, self.func_footprints, self.kernel,
                self.stats, blocking_ar_ids=self.blocking_ar_ids,
                coarse_vars=self.coarse_vars)

    def detach(self):
        self.machine = None
        self.kernel.machine = None

    def _costs(self):
        return self.machine.costs

    def _check_whitelist(self, core, ar_id):
        """User-space whitelist check; returns (whitelisted, cost)."""
        if self.whitelist.maybe_reread(core.clock):
            wl = self.whitelist
            if wl.read_errors != self.stats.whitelist_read_errors:
                self.stats.whitelist_read_errors = wl.read_errors
                self.kernel._record_degradation(
                    "whitelist-read-error", core.clock,
                    path=wl.path, errors=wl.read_errors)
            self.stats.whitelist_malformed_lines = wl.malformed_lines
        costs = self._costs()
        if ar_id in self.whitelist:
            self.stats.whitelist_hits += 1
            return True, costs.whitelist_check
        return False, costs.whitelist_check

    # ------------------------------------------------------------------
    # annotation entry points
    # ------------------------------------------------------------------

    def on_begin_atomic(self, core, thread, ar_id, addr):
        self.stats.begin_calls += 1
        costs = self._costs()
        if ar_id in self.static_pruned:
            # statically proven safe: no crossing, no arming, no kernel
            self.stats.static_prune_hits += 1
            return costs.whitelist_check
        whitelisted, cost = self._check_whitelist(core, ar_id)
        if whitelisted:
            return cost

        opt = self.config.opt
        if opt.null_syscall:
            # diagnostic: cross into the kernel, do nothing
            self.stats.begin_syscalls += 1
            self.machine.kernel_entry(core, thread)
            return cost + costs.syscall

        if self.pressure is not None and self.pressure.is_quarantined(ar_id):
            # quarantined AR: sampled monitoring (1-in-N entries) instead
            # of the breaker's all-or-nothing fail-open; the sampling
            # decision replaces the breaker check entirely
            decision = self.pressure.admit_quarantined(ar_id)
            self.kernel._journal(core.clock, thread.tid, "quarantine",
                                 action=decision, ar=ar_id)
            if decision == "skip":
                self.stats.quarantine_sampled_skips += 1
                return cost + costs.userlib_check
            self.stats.quarantine_monitored += 1
        elif self.pressure is not None:
            shed = self.pressure.shed_reason(
                len(self.kernel.suspensions),
                self.machine.sched_latency_ema)
            if shed is not None:
                # backpressure: overload watermark crossed — shed this
                # entry's *monitoring* (correctness is untouched; the
                # program simply runs this window unprotected)
                self.stats.admission_sheds += 1
                self.kernel._record_degradation(
                    "admission-shed", core.clock, tid=thread.tid,
                    ar=ar_id, reason=shed)
                self.kernel._journal(core.clock, thread.tid, "pressure",
                                     action="shed", ar=ar_id, reason=shed)
                return cost + costs.userlib_check
        if (self.breaker is not None
                and not (self.pressure is not None
                         and self.pressure.is_quarantined(ar_id))
                and not self.breaker.allows(ar_id, core.clock)):
            # fail-open: this AR tripped its circuit breaker and runs
            # unmonitored until the backoff window closes
            self.stats.breaker_skips += 1
            self.kernel._record_degradation("breaker-skip", core.clock,
                                            tid=thread.tid, ar=ar_id)
            return cost + costs.userlib_check

        info = self.ar_table[ar_id]
        out = self.kernel.begin_atomic(core, thread, info, addr)

        crossing = (not opt.o1_userspace) or out.needs_crossing
        if (crossing and self.faults is not None and self.faults.fires(
                "runtime.replica.corrupt", core.clock,
                tid=thread.tid, ar=ar_id, call="begin")):
            # corrupted O1 replica: the library wrongly concludes no
            # crossing is needed; lazy propagation plus the kernel-side
            # consistency check repair the cores on later entries
            crossing = False
        if crossing:
            self.stats.begin_syscalls += 1
            cost += costs.syscall
            self.machine.kernel_entry(core, thread)
        else:
            cost += costs.userlib_check

        # bug-finding mode: stall the local thread inside begin_atomic to
        # widen the atomic region (Section 2.3)
        if (self.config.mode == Mode.BUG_FINDING
                and out.monitored
                and thread.state == ThreadState.RUNNING
                and self._should_pause(thread)):
            self.stats.pauses += 1
            if self.journal is not None:
                self.journal.emit(core.clock, thread.tid, "pause", ar=ar_id,
                                  ns=self.config.pause_ns)
            self.machine.block_current(
                core, ThreadState.SLEEPING,
                wake_time=core.clock + cost + self.config.pause_ns,
            )
        return cost

    def _should_pause(self, thread):
        """Deterministic sampling decision, independent of the program's
        own PRNG stream so modes stay comparable."""
        prob = self.config.pause_probability
        if prob >= 1.0:
            return True
        if prob <= 0.0:
            return False
        self._pause_seq += 1
        h = ((thread.tid + 1) * 2654435761
             ^ (self._pause_seq * 40503)
             ^ (self.config.seed * 97)) & 0xFFFFFFFF
        h ^= h >> 16
        h = (h * 0x45D9F3B) & 0xFFFFFFFF
        h ^= h >> 13
        return (h % 1_000_000) < prob * 1_000_000

    def on_end_atomic(self, core, thread, ar_id, second_is_write):
        self.stats.end_calls += 1
        costs = self._costs()
        if ar_id in self.static_pruned:
            self.stats.static_prune_hits += 1
            return costs.whitelist_check
        whitelisted, cost = self._check_whitelist(core, ar_id)
        if whitelisted:
            return cost

        opt = self.config.opt
        if opt.null_syscall:
            self.stats.end_syscalls += 1
            self.machine.kernel_entry(core, thread)
            return cost + costs.syscall

        from repro.minic.ast import AccessKind

        second_kind = AccessKind.WRITE if second_is_write else AccessKind.READ
        out = self.kernel.end_atomic(core, thread, ar_id, second_kind)

        if not opt.o1_userspace:
            # without the replica, even a no-op end_atomic crosses
            crossing = True
        elif opt.o2_lazy_free:
            # with lazy freeing, only trigger evaluation / wakeups cross
            crossing = out.had_triggers or out.zombie or out.hw_changed
        else:
            crossing = out.needs_crossing
        if (crossing and self.faults is not None and self.faults.fires(
                "runtime.replica.corrupt", core.clock,
                tid=thread.tid, ar=ar_id, call="end")):
            crossing = False
        if crossing:
            self.stats.end_syscalls += 1
            cost += costs.syscall
            self.machine.kernel_entry(core, thread)
        else:
            cost += costs.userlib_check
        return cost

    def on_clear_ar(self, core, thread):
        self.stats.clear_calls += 1
        costs = self._costs()
        opt = self.config.opt
        if opt.null_syscall:
            self.stats.clear_syscalls += 1
            self.machine.kernel_entry(core, thread)
            return costs.syscall

        out = self.kernel.clear_ar(core, thread)
        crossing = (not opt.o1_userspace) or out.needs_crossing
        if crossing:
            self.stats.clear_syscalls += 1
            self.machine.kernel_entry(core, thread)
            return costs.syscall
        return costs.userlib_check

    def on_shadow_store(self, core, thread, ar_id, addr):
        # only present semantically when the third optimization is on;
        # otherwise the annotation pass would not have emitted it
        if not self.config.opt.o3_local_disable or self.config.opt.null_syscall:
            return 0
        self.stats.shadow_stores += 1
        self.kernel.shadow_store(thread, ar_id, addr)
        return self._costs().shadow_store

    # ------------------------------------------------------------------
    # trap and kernel-entry hooks
    # ------------------------------------------------------------------

    def on_watchpoint_trap(self, core, thread, after_pc, hit_slots, accesses):
        self.stats.traps += 1
        self.machine.kernel_entries += 1
        self.kernel.on_trap(core, thread, after_pc, hit_slots, accesses)
        return 0

    def on_kernel_entry(self, core, thread):
        self.kernel.on_kernel_entry(core)
        return 0

    def idle_polls_are_noop(self, cores):
        return self.kernel.idle_polls_are_noop(cores)

    def on_thread_exit(self, core, thread):
        # a thread that dies with active ARs releases them (the kernel
        # would reap them with the task)
        table = self.kernel.ar_tables.pop(thread.tid, None)
        if table:
            for ar in list(table.values()):
                self.kernel._detach_ar(ar, core, evaluate=False)
        return 0

    def on_run_end(self, machine):
        if self.journal is not None:
            self.stats.journal_frames = len(self.journal) + self.journal.dropped
            # surface in-memory evictions: a bounded recorder that
            # silently dropped events must say so in the run report
            self.stats.trace_dropped_events = self.journal.dropped
        self.stats.degradations_dropped = self.degrade.dropped
        # end-of-run slot audit: a lazily-freed slot that aged past the
        # leak bound without any begin/trap reconciling it is a leaked
        # debug register (the O2 leak the watchdog exists to reclaim).
        # Recently lazily-freed slots are normal O2 operation, not leaks.
        if self.pressure is not None:
            # the watchdog gets a last pass first: slots that aged out
            # after the final kernel entry are its to reclaim, and only
            # what it still misses counts as leaked at exit
            self.kernel.shutdown_leak_sweep()
            age_bound = self.pressure.policy.leak_age_ns
            self.stats.quarantine_history_dropped = (
                self.pressure.history_dropped)
        else:
            age_bound = PressurePolicy().leak_age_ns
        now = machine.now()
        for slot in self.kernel.slots:
            if (slot.enabled and slot.lazily_freed
                    and slot.freed_at is not None
                    and now - slot.freed_at >= age_bound):
                self.stats.slots_leaked_at_exit += 1
