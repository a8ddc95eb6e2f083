"""The Kivati kernel component.

Implements Sections 3.2 (detection) and 3.3 (prevention): the begin/end/
clear system call handlers, the watchpoint trap handler with the rollback
engine, remote-thread suspension with the 10 ms timeout, preferential
wakeup, lazy cross-core watchpoint propagation, and the bookkeeping needed
by the user-space optimizations (lazily-freed slots, shadow captures).
"""

from repro.analysis.watchtype import is_unserializable
from repro.core.reports import DegradationLog, DegradationRecord, ViolationRecord
from repro.kernel.state import ActiveAR, KernelSlot, Suspension, Trigger, ZombieAR
from repro.kernel.undo import classify_access_kinds, undo_remote_access
from repro.machine.threads import ThreadState
from repro.minic.ast import AccessKind
from repro.compiler.bytecode import Op, SYNC_OPS


def _sorted_kinds(kinds):
    """Canonical order for a set of AccessKinds.

    Enum sets iterate in id-hash order, which differs between *processes*;
    anything recorded from a set (trigger kinds, the violation's
    remote_kind) must be sorted or replaying a journal in a fresh process
    can disagree with the recording run.
    """
    return tuple(sorted(kinds, key=lambda k: k.value))


class BeginOutcome:
    __slots__ = ("hw_changed", "suspended", "monitored", "attached", "missed")

    def __init__(self):
        self.hw_changed = False
        self.suspended = False
        self.monitored = False
        self.attached = False
        self.missed = False

    @property
    def needs_crossing(self):
        return self.hw_changed or self.suspended


class EndOutcome:
    __slots__ = ("hw_changed", "had_triggers", "found", "zombie")

    def __init__(self):
        self.hw_changed = False
        self.had_triggers = False
        self.found = False
        self.zombie = False

    @property
    def needs_crossing(self):
        return self.hw_changed or self.had_triggers or self.zombie


class ClearOutcome:
    __slots__ = ("hw_changed", "cleared")

    def __init__(self):
        self.hw_changed = False
        self.cleared = 0

    @property
    def needs_crossing(self):
        return self.hw_changed or self.cleared > 0


class KivatiKernel:
    """Kernel-side Kivati state machine."""

    def __init__(self, config, ar_table, stats, log, faults=None,
                 degrade=None, breaker=None, pressure=None):
        self.config = config
        self.ar_table = ar_table
        self.stats = stats
        self.log = log
        self.machine = None
        self.slots = [KernelSlot(i) for i in range(config.num_watchpoints)]
        self.epoch = 0
        self.ar_tables = {}      # tid -> {ar_id -> ActiveAR}
        self.zombies = {}        # (tid, ar_id) -> ZombieAR
        self.suspensions = {}    # tid -> Suspension (+ slot index inside)
        self.susp_slot = {}      # tid -> slot index
        self.sync_waiters = []   # (epoch, tid)
        # robustness plane: fault injector, degradation event log and the
        # per-AR fail-open circuit breaker (all optional)
        self.faults = faults
        self.degrade = degrade if degrade is not None else DegradationLog()
        self.breaker = breaker
        # optional repro.pressure.PressurePlane (overload control:
        # slot arbitration, AR quarantine, backpressure)
        self.pressure = pressure
        self._next_leak_scan = 0
        # optional repro.journal.JournalRecorder (durable incident record)
        self.journal = config.journal
        # optional repro.obs.VMProfiler: suspension-queue depth samples;
        # observational only, gated on a single is-None predicate
        self.profiler = (config.obs.profiler
                         if getattr(config, "obs", None) is not None
                         else None)

    def attach(self, machine):
        self.machine = machine

    def _journal(self, time_ns, tid, kind, **details):
        if self.journal is not None:
            self.journal.emit(time_ns, tid, kind, **details)

    # ------------------------------------------------------------------
    # graceful degradation bookkeeping
    # ------------------------------------------------------------------

    def _record_degradation(self, kind, time_ns, tid=None, **detail):
        self.stats.degradations += 1
        self.degrade.add(DegradationRecord(kind, time_ns, tid, **detail))
        self._journal(time_ns, tid if tid is not None else -1, "degrade",
                      what=kind, **detail)

    def _record_breaker_trip(self, ar_id, tid, now, backoff_ns):
        self.stats.breaker_trips += 1
        self._record_degradation("breaker-open", now, tid=tid, ar=ar_id,
                                 backoff_ns=backoff_ns)

    # ------------------------------------------------------------------
    # overload control plane (repro.pressure)
    # ------------------------------------------------------------------

    def _note_ar_pressure(self, ar_id, tid, now):
        """A breaker trip or suspension timeout hit ``ar_id``: feed the
        quarantine state machine and journal whatever it decides."""
        if self.pressure is None:
            return
        action = self.pressure.note_pressure(ar_id, now)
        if action is None:
            return
        self._quarantine_action(action, ar_id, tid, now)

    def _quarantine_action(self, action, ar_id, tid, now):
        what, n = action
        if what == "enter":
            self.stats.quarantined_ars += 1
            self._record_degradation("quarantine-enter", now, tid=tid,
                                     ar=ar_id, n=n)
        elif what == "release":
            self.stats.quarantine_releases += 1
        else:
            self.stats.quarantine_adaptations += 1
        self._journal(now, tid if tid is not None else -1, "quarantine",
                      action=what, ar=ar_id, n=n)

    def _arbitrate_slot(self, core, tid, info, now):
        """All watchpoint registers are busy: let the arbiter decide
        whether the incoming AR outranks a current tenant. Returns the
        freed slot on preemption, None on denial."""
        plane = self.pressure
        incoming = plane.priority(info.ar_id)
        victim, victim_prio = plane.choose_victim(self.slots)
        if victim is None or incoming <= victim_prio:
            self.stats.arbiter_denials += 1
            plane.note(now, "arbiter", "deny", ar=info.ar_id,
                       prio=incoming)
            self._record_degradation("arbiter-deny", now, tid=tid,
                                     ar=info.ar_id, prio=incoming)
            self._journal(now, tid, "arbiter", action="deny",
                          ar=info.ar_id, prio=incoming,
                          victim_prio=victim_prio)
            return None
        self.stats.arbiter_preemptions += 1
        victim_ars = [ar.ar_id for ar in victim.ars]
        plane.note(now, "arbiter", "preempt", ar=info.ar_id,
                   prio=incoming, slot=victim.index)
        self._record_degradation("arbiter-preempt", now, tid=tid,
                                 ar=info.ar_id, prio=incoming,
                                 victim_slot=victim.index,
                                 victim_ars=tuple(victim_ars),
                                 victim_prio=victim_prio)
        self._journal(now, tid, "arbiter", action="preempt",
                      ar=info.ar_id, prio=incoming, slot=victim.index,
                      gen=victim.gen, victim_ars=tuple(victim_ars),
                      victim_prio=victim_prio)
        # the victims degrade to fail-open zombies: detection of their
        # in-flight windows survives (flagged unprevented), but this is
        # the plane's choice, not the ARs' failure — no breaker or
        # quarantine strike is charged
        self._zombify_and_free(victim, now, core=core, feed=False)
        return victim

    def _scan_for_leaks(self, core):
        """Slot-leak watchdog: a lazily-freed slot (O2) is reclaimed on
        the next begin_atomic or trap — but a slot whose variable never
        sees demand again stays armed forever, burning a debug register.
        Periodically reclaim any lazily-freed slot past the age bound."""
        now = core.clock
        if now < self._next_leak_scan:
            return
        self._next_leak_scan = now + self.pressure.policy.leak_scan_ns
        self._reclaim_leaks(now, core)

    def shutdown_leak_sweep(self):
        """Final watchdog pass at run end: the periodic scan only runs on
        kernel entry, so a slot that ages past the bound *after* the last
        syscall on its core would otherwise stay leaked forever."""
        if self.pressure is not None:
            self._reclaim_leaks(self.machine.now(), None)

    def _reclaim_leaks(self, now, core):
        policy = self.pressure.policy
        for slot in self.slots:
            if (slot.enabled and slot.lazily_freed
                    and slot.freed_at is not None
                    and now - slot.freed_at >= policy.leak_age_ns):
                self.stats.slots_leaked += 1
                self.stats.slots_reclaimed += 1
                self.pressure.note(now, "watchdog", "leak-reclaim",
                                   slot=slot.index)
                self._journal(now, -1, "pressure", action="leak-reclaim",
                              slot=slot.index, gen=slot.gen,
                              age_ns=now - slot.freed_at)
                self._free_slot(slot, core)

    # ------------------------------------------------------------------
    # cross-core propagation (Section 3.2)
    # ------------------------------------------------------------------

    IPI_COST = 800  # ns charged to the initiating core per eager sync

    def _bump_epoch(self, core=None):
        self.epoch += 1
        if core is not None:
            core.dr.adopt(self.slots, self.epoch, faults=self.faults)
        if self.config.opt is not None and getattr(self.config,
                                                   "eager_crosscore", False):
            # ablation: interrupt every other core right away (the paper
            # explicitly avoids this; the cost shows why)
            for other in self.machine.cores:
                if other.dr.synced_epoch < self.epoch:
                    other.dr.adopt(self.slots, self.epoch, faults=self.faults)
            if core is not None:
                core.clock += self.IPI_COST

    def on_kernel_entry(self, core):
        fi = self.faults
        if core.dr.synced_epoch < self.epoch:
            if fi is not None and fi.fires("kernel.crosscore.delay",
                                           core.clock, core=core.index):
                # propagation delayed this entry; the next kernel entry
                # on this core retries
                pass
            elif fi is not None and fi.fires("kernel.crosscore.lost",
                                             core.clock, core=core.index):
                # the update is lost: the core believes it synced but
                # kept stale registers; only the consistency check on a
                # later entry can repair it
                core.dr.synced_epoch = self.epoch
            else:
                core.dr.adopt(self.slots, self.epoch, faults=fi)
        elif fi is not None and not core.dr.consistent_with(self.slots):
            # degradation policy: the core's debug registers drifted from
            # the kernel's logical state (failed slot arm, lost
            # propagation) — re-adopt and log the repair
            core.dr.adopt(self.slots, self.epoch)
            self.stats.replica_resyncs += 1
            self._record_degradation("replica-resync", core.clock,
                                     core=core.index)
            self._journal(core.clock, -1, "resync", core=core.index)
        if self.pressure is not None:
            self._scan_for_leaks(core)
        if self.sync_waiters:
            self._check_sync_waiters()

    def idle_polls_are_noop(self, cores):
        """Whether :meth:`on_kernel_entry` would change nothing on any
        of ``cores``: each has adopted the current epoch, no sync waiter
        is pending, and neither faults (the replica consistency check)
        nor the pressure plane (the leak watchdog) is attached."""
        if (self.sync_waiters or self.faults is not None
                or self.pressure is not None):
            return False
        epoch = self.epoch
        for core in cores:
            if core.dr.synced_epoch < epoch:
                return False
        return True

    def _check_sync_waiters(self):
        remaining = []
        for epoch, tid in self.sync_waiters:
            if self._all_busy_cores_synced(epoch):
                self.machine.wake_thread(tid)
            else:
                remaining.append((epoch, tid))
        self.sync_waiters = remaining

    def _all_busy_cores_synced(self, epoch):
        for core in self.machine.cores:
            if core.thread is not None and core.dr.synced_epoch < epoch:
                return False
        return True

    def _maybe_block_for_sync(self, core, thread):
        """Block the begin_atomic'ing thread until all busy cores have
        adopted the new watchpoint state (Section 3.2)."""
        if getattr(self.config, "eager_crosscore", False):
            return False  # the IPI already synchronized everyone
        if self._all_busy_cores_synced(self.epoch):
            return False
        self.sync_waiters.append((self.epoch, thread.tid))
        self.machine.block_current(core, ThreadState.BLOCKED_WPSYNC)
        return True

    # ------------------------------------------------------------------
    # slot helpers
    # ------------------------------------------------------------------

    def _slot_watching(self, addr):
        for slot in self.slots:
            if slot.enabled and slot.addr <= addr < slot.addr + slot.size:
                return slot
        return None

    def _find_free_slot(self, core):
        for slot in self.slots:
            if not slot.enabled:
                return slot, False
        for slot in self.slots:
            if slot.lazily_freed:
                self.stats.lazy_reconciles += 1
                self._free_slot(slot, core)
                return slot, True
        return None, False

    def _free_slot(self, slot, core):
        """Disable a slot, waking suspended threads (trap-suspended threads
        are preferentially scheduled before begin-blocked ones)."""
        to_wake = sorted(
            slot.suspended,
            key=lambda s: 0 if s.reason == Suspension.REASON_TRAP else 1,
        )
        self._journal(core.clock if core is not None else self.machine.now(),
                      slot.owner_tid if slot.owner_tid is not None else -1,
                      "disarm", slot=slot.index, gen=slot.gen,
                      addr=slot.addr)
        slot.free()
        self._bump_epoch(core)
        for susp in to_wake:
            self._resume_suspended(susp, core)

    def _resume_suspended(self, susp, core):
        if self.faults is not None and self.faults.fires(
                "kernel.wakeup.lost",
                core.clock if core is not None else self.machine.now(),
                tid=susp.tid):
            # the wake-up is lost: leave the suspension record and its
            # timeout event intact so the timeout plane (or a later
            # watchdog pass) recovers the thread instead of hanging it
            return
        if susp.timeout_event is not None:
            self.machine.cancel_event(susp.timeout_event)
        self.suspensions.pop(susp.tid, None)
        self.susp_slot.pop(susp.tid, None)
        self.machine.wake_thread(susp.tid)
        self._journal(core.clock if core is not None else self.machine.now(),
                      susp.tid, "wake", reason=susp.reason)
        self._release_containments(susp.tid, core)

    def _release_containments(self, tid, core):
        for slot in self.slots:
            if slot.containment_owner == tid:
                self._free_slot(slot, core)

    def _suspend(self, core, thread, slot, reason, retry_instr):
        # adaptive timeout: under scheduler overload a suspended thread
        # may not get a core within the nominal window, so every timeout
        # would fire spuriously; stretch with the measured latency EMA
        mult = 1
        if self.pressure is not None:
            mult = self.pressure.timeout_multiplier(
                self.machine.sched_latency_ema)
            if mult > 1:
                self.stats.timeout_extensions += 1
        timeout = core.clock + self.config.suspend_timeout_ns * mult
        tid = thread.tid
        event = self.machine.schedule_event(
            timeout, lambda m, t=tid: self._on_timeout(t)
        )
        susp = Suspension(thread.tid, reason, event)
        slot.suspended.append(susp)
        self.suspensions[thread.tid] = susp
        self.susp_slot[thread.tid] = slot.index
        self.stats.suspensions += 1
        if self.profiler is not None:
            self.profiler.note_suspend(len(self.suspensions))
        if self.pressure is not None:
            # the multiplier only rides along on pressure-enabled runs so
            # journals recorded before this plane existed replay unchanged
            self._journal(core.clock, thread.tid, "suspend", reason=reason,
                          slot=slot.index, gen=slot.gen, addr=slot.addr,
                          tmult=mult)
        else:
            self._journal(core.clock, thread.tid, "suspend", reason=reason,
                          slot=slot.index, gen=slot.gen, addr=slot.addr)
        self.machine.block_current(core, ThreadState.SUSPENDED,
                                   retry_instr=retry_instr)
        # suspension watchdog: two ARs suspending each other's threads
        # form a waits-for cycle that nothing but the 10 ms timeout would
        # break; detect it now and break it immediately
        if self.config.watchdog and len(self.suspensions) > 1:
            cycle = self._find_suspension_cycle(tid)
            if cycle is not None:
                self._watchdog_break(tid, cycle, core)

    def _find_suspension_cycle(self, start_tid):
        """Follow the waits-for chain (a suspended thread waits on the
        owner of the slot it is suspended on); returns the tid chain if
        it loops back to ``start_tid``, else None."""
        chain = [start_tid]
        seen = {start_tid}
        tid = start_tid
        while True:
            slot_index = self.susp_slot.get(tid)
            if slot_index is None:
                return None  # waits on a running thread: no cycle
            owner = self.slots[slot_index].owner_tid
            if owner is None or (owner in seen and owner != start_tid):
                return None
            if owner == start_tid:
                return chain
            seen.add(owner)
            chain.append(owner)
            tid = owner

    def _watchdog_break(self, tid, cycle, core):
        """Break a suspension cycle by force-releasing its newest member
        (same teardown as a timeout, attributed to the watchdog)."""
        susp = self.suspensions.pop(tid, None)
        slot_index = self.susp_slot.pop(tid, None)
        if susp is None or slot_index is None:
            return
        if susp.timeout_event is not None:
            self.machine.cancel_event(susp.timeout_event)
        now = core.clock
        self.stats.watchdog_breaks += 1
        self._record_degradation("watchdog-break", now, tid=tid,
                                 cycle=tuple(cycle), slot=slot_index)
        slot = self.slots[slot_index]
        self._journal(now, tid, "watchdog", cycle=tuple(cycle),
                      slot=slot_index, gen=slot.gen)
        if susp in slot.suspended:
            slot.suspended.remove(susp)
        self.machine.wake_thread(tid)
        self._release_containments(tid, core)
        self._zombify_and_free(slot, now, core=core)

    def _on_timeout(self, tid):
        """10 ms suspension timeout (Section 3.3): resume the thread, move
        the slot's ARs to zombies and free the watchpoint."""
        susp = self.suspensions.pop(tid, None)
        slot_index = self.susp_slot.pop(tid, None)
        if susp is None or slot_index is None:
            return
        thread = self.machine.threads.get(tid)
        if thread is None or thread.state != ThreadState.SUSPENDED:
            return
        self.stats.suspend_timeouts += 1
        now = self.machine.now()
        slot = self.slots[slot_index]
        self._journal(now, tid, "timeout", slot=slot_index, gen=slot.gen,
                      stale=susp not in slot.suspended)
        if susp not in slot.suspended:
            # the slot was freed or reused while this thread stayed
            # suspended (e.g. its wake-up was lost): recover the thread
            # but leave the slot's current tenants alone
            self._record_degradation("suspend-timeout", now, tid=tid,
                                     slot=slot_index, stale=True)
            self.machine.wake_thread(tid)
            self._release_containments(tid, None)
            return
        slot.suspended.remove(susp)
        self._record_degradation("suspend-timeout", now, tid=tid,
                                 slot=slot_index)
        self.machine.wake_thread(tid)
        self._release_containments(tid, None)
        self._zombify_and_free(slot, now)

    def _zombify_and_free(self, slot, now, core=None, feed=True):
        """Move all ARs on ``slot`` to zombies (their late end_atomic
        still records violations, flagged unprevented), feed the breaker
        and quarantine planes (unless ``feed`` is False — arbiter
        preemption is not the AR's failure), and free the watchpoint."""
        for ar in list(slot.ars):
            self.zombies[(ar.tid, ar.ar_id)] = ZombieAR(
                ar.info, ar.tid, ar.addr, slot.triggers, ar.begin_time
            )
            self._journal(now, ar.tid, "zombify", ar=ar.ar_id,
                          slot=slot.index, gen=slot.gen,
                          begin_time=ar.begin_time)
            table = self.ar_tables.get(ar.tid)
            if table is not None:
                table.pop(ar.ar_id, None)
            if feed and self.breaker is not None:
                backoff = self.breaker.record_timeout(ar.ar_id, now)
                if backoff is not None:
                    self._record_breaker_trip(ar.ar_id, ar.tid, now, backoff)
            if feed:
                # a blown suspension window is a pressure strike whether
                # or not it also tripped the breaker
                self._note_ar_pressure(ar.ar_id, ar.tid, now)
        self._free_slot(slot, core)

    # ------------------------------------------------------------------
    # begin_atomic (Sections 3.2 + 3.3)
    # ------------------------------------------------------------------

    def begin_atomic(self, core, thread, info, addr):
        out = BeginOutcome()
        opt = self.config.opt
        tid = thread.tid
        table = self.ar_tables.setdefault(tid, {})

        # re-begin of an AR already active in this thread: refresh it
        if info.ar_id in table:
            self._detach_ar(table.pop(info.ar_id), core, evaluate=False)

        slot = self._slot_watching(addr)
        if slot is not None and slot.lazily_freed:
            # second optimization: the slot should have been freed; this
            # begin_atomic reconciles it
            self.stats.lazy_reconciles += 1
            self._free_slot(slot, core)
            out.hw_changed = True
            slot = None

        if slot is not None and slot.containment_owner is not None:
            if tid != slot.containment_owner:
                self._suspend(core, thread, slot, Suspension.REASON_BEGIN,
                              retry_instr=True)
                out.suspended = True
            else:
                self.stats.missed_ars += 1
                out.missed = True
                self._journal(core.clock, tid, "miss", ar=info.ar_id,
                              reason="containment")
            return out

        if slot is not None and slot.owner_tid != tid:
            # this thread is remote with respect to another thread's AR:
            # delay its first access until those ARs complete. The paper
            # detects remote accesses "whether via a watchpoint or a
            # begin_atomic", so the imminent access is recorded as a
            # trigger for the serializability check at end_atomic.
            if self.config.prevention_enabled:
                # The remote's begin_atomic hands the kernel its full AR
                # description, so the imminent access pattern (first kind
                # plus the registered second kinds) is recorded
                # conservatively for the serializability check.
                kinds = [info.first_kind]
                for kind in _sorted_kinds(set(info.second_kinds.values())):
                    if kind not in kinds:
                        kinds.append(kind)
                slot.triggers.append(Trigger(
                    tid, tuple(kinds), None,
                    "begin_atomic(ar %d) in %s" % (info.ar_id, info.func),
                    core.clock, True,
                ))
                self._journal(core.clock, tid, "trigger", slot=slot.index,
                              gen=slot.gen, kinds=tuple(kinds), pc=None,
                              undone=True, via_begin=True,
                              location="begin_atomic(ar %d) in %s"
                              % (info.ar_id, info.func))
                self._suspend(core, thread, slot, Suspension.REASON_BEGIN,
                              retry_instr=True)
                out.suspended = True
                return out
            self.stats.missed_ars += 1
            out.missed = True
            self._journal(core.clock, tid, "miss", ar=info.ar_id,
                          reason="remote-owner")
            return out

        now = core.clock
        depth = thread.call_depth
        pending = (info.first_kind == AccessKind.WRITE
                   and not opt.o3_local_disable)

        if slot is not None:
            # already monitored by this thread: join the slot
            ar = ActiveAR(info, tid, addr, depth, now, slot.index, pending)
            slot.ars.append(ar)
            table[info.ar_id] = ar
            slot.last_use_ns = now
            slot.captured_value = self.machine.read_raw(addr)
            if slot.recompute_kinds(opt.o3_local_disable):
                self._bump_epoch(core)
                out.hw_changed = True
            out.attached = True
            out.monitored = True
            self.stats.monitored_ars += 1
            self._journal(now, tid, "begin", ar=info.ar_id, slot=slot.index,
                          gen=slot.gen, addr=addr, first=info.first_kind,
                          var=info.var, joined=True)
            return out

        free, reused = self._find_free_slot(core)
        if (free is None and self.pressure is not None
                and self.pressure.policy.arbiter):
            free = self._arbitrate_slot(core, tid, info, now)
        if free is None:
            # all watchpoint registers in use: log that this AR cannot be
            # monitored (Table 8)
            self.stats.missed_ars += 1
            out.missed = True
            self._journal(now, tid, "miss", ar=info.ar_id, reason="no-slot")
            return out

        ar = ActiveAR(info, tid, addr, depth, now, free.index, pending)
        free.enabled = True
        free.gen += 1
        free.last_use_ns = now
        self.stats.watchpoint_arms += 1
        free.addr = addr
        free.size = info.size
        free.owner_tid = tid
        free.ars = [ar]
        free.triggers = []
        free.suspended = []
        free.lazily_freed = False
        free.captured_value = self.machine.read_raw(addr)
        free.recompute_kinds(opt.o3_local_disable)
        table[info.ar_id] = ar
        self._bump_epoch(core)
        out.hw_changed = True
        out.monitored = True
        self.stats.monitored_ars += 1
        self._journal(now, tid, "arm", slot=free.index, gen=free.gen,
                      addr=addr, size=info.size,
                      read=free.watch_read, write=free.watch_write)
        self._journal(now, tid, "begin", ar=info.ar_id, slot=free.index,
                      gen=free.gen, addr=addr, first=info.first_kind,
                      var=info.var, joined=False)

        # block until other busy cores adopt the new watchpoint state
        self._maybe_block_for_sync(core, thread)
        return out

    # ------------------------------------------------------------------
    # end_atomic
    # ------------------------------------------------------------------

    def end_atomic(self, core, thread, ar_id, second_kind):
        out = EndOutcome()
        opt = self.config.opt
        tid = thread.tid
        table = self.ar_tables.get(tid, {})
        ar = table.pop(ar_id, None)

        if ar is None:
            zombie = self.zombies.pop((tid, ar_id), None)
            if zombie is not None:
                # the AR timed out earlier: record the violation but note
                # it was not prevented
                out.zombie = True
                out.found = True
                self._journal(core.clock, tid, "end", ar=ar_id,
                              second=second_kind, zombie=True,
                              begin_time=zombie.begin_time)
                self._evaluate(zombie.info, tid, zombie.addr,
                               zombie.triggers, zombie.begin_time,
                               second_kind, core, force_unprevented=True)
            return out

        out.found = True
        if self.pressure is not None:
            # a monitored window of a quarantined AR completed without
            # blowing its suspension: additive-decrease its sampling N
            action = self.pressure.note_clean_end(ar_id, core.clock)
            if action is not None:
                self._quarantine_action(action, ar_id, tid, core.clock)
        if ar.slot_index is None:
            return out
        slot = self.slots[ar.slot_index]

        relevant = [t for t in slot.triggers
                    if t.time >= ar.begin_time and t.tid != tid]
        self._journal(core.clock, tid, "end", ar=ar_id, slot=slot.index,
                      gen=slot.gen, second=second_kind, zombie=False,
                      begin_time=ar.begin_time,
                      had_triggers=bool(relevant))
        if relevant:
            out.had_triggers = True
            self._evaluate(ar.info, tid, ar.addr, relevant, ar.begin_time,
                           second_kind, core)

        if ar in slot.ars:
            slot.ars.remove(ar)
        if not slot.ars:
            if slot.suspended or not opt.o2_lazy_free:
                self._free_slot(slot, core)
                out.hw_changed = True
            else:
                # second optimization: leave the hardware armed; note in the
                # (shared) metadata that the watchpoint is no longer active
                slot.lazily_freed = True
                slot.freed_at = core.clock
                slot.triggers = []
                self.stats.lazy_frees += 1
        else:
            if not opt.o2_lazy_free:
                if slot.recompute_kinds(opt.o3_local_disable):
                    self._bump_epoch(core)
                    out.hw_changed = True
            # with O2, keep the most aggressive settings until reconciled
        return out

    # ------------------------------------------------------------------
    # clear_ar
    # ------------------------------------------------------------------

    def clear_ar(self, core, thread):
        out = ClearOutcome()
        opt = self.config.opt
        tid = thread.tid
        table = self.ar_tables.get(tid)
        if not table:
            return out
        depth = thread.call_depth
        doomed = [ar for ar in table.values() if ar.depth == depth]
        for ar in doomed:
            table.pop(ar.ar_id, None)
            if self._detach_ar(ar, core, evaluate=False):
                out.hw_changed = True
            out.cleared += 1
        return out

    def _detach_ar(self, ar, core, evaluate):
        """Remove an ActiveAR from its slot without violation evaluation
        (clear_ar semantics). Returns True if hardware state changed."""
        self._journal(core.clock if core is not None else self.machine.now(),
                      ar.tid, "clear", ar=ar.ar_id)
        if ar.slot_index is None:
            return False
        slot = self.slots[ar.slot_index]
        if ar not in slot.ars:
            return False
        slot.ars.remove(ar)
        opt = self.config.opt
        if not slot.ars:
            if slot.suspended or not opt.o2_lazy_free:
                self._free_slot(slot, core)
                return True
            slot.lazily_freed = True
            slot.freed_at = (core.clock if core is not None
                             else self.machine.now())
            slot.triggers = []
            self.stats.lazy_frees += 1
            return False
        if not opt.o2_lazy_free and slot.recompute_kinds(opt.o3_local_disable):
            self._bump_epoch(core)
            return True
        return False

    # ------------------------------------------------------------------
    # shadow capture (third optimization)
    # ------------------------------------------------------------------

    def shadow_store(self, thread, ar_id, addr):
        """Record the value after a local write via the shared page.

        With the third optimization, watchpoint delivery is suppressed for
        the owning thread, so the annotation pass replicates local shared
        writes into the page shared between the user library and the
        kernel; this keeps the undo value current (the base-mode
        equivalent is the local-trap refresh in the trap handler). The
        write is matched to a slot by address, which also covers local
        writes through pointer aliases."""
        for slot in self.slots:
            if (slot.enabled and not slot.lazily_freed
                    and slot.owner_tid == thread.tid
                    and slot.addr <= addr < slot.addr + slot.size):
                slot.captured_value = self.machine.read_raw(slot.addr)
                return

    # ------------------------------------------------------------------
    # watchpoint trap handler
    # ------------------------------------------------------------------

    def on_trap(self, core, thread, after_pc, hit_slots, accesses):
        """Handle a debug trap. With trap-after hardware ``after_pc`` is
        all we know besides the hit slot indices; the faulting instruction
        is recovered through the memory map."""
        self.on_kernel_entry(core)
        machine = self.machine
        prevention = self.config.prevention_enabled
        trap_before = machine.trap_before

        for idx in hit_slots:
            slot = self.slots[idx]
            if not slot.enabled:
                # the core's registers were stale (lazy propagation)
                self.stats.stale_traps += 1
                continue
            if not any(slot.addr <= a < slot.addr + slot.size
                       for a, _ in accesses):
                # the core's hardware slot still held a previous tenant's
                # address (lazy propagation): the trapping access does not
                # touch what this logical slot now watches, so attributing
                # it to the current tenant would fabricate a remote access
                self.stats.stale_traps += 1
                continue
            if slot.lazily_freed:
                # second optimization reconciliation on trap: free now and
                # do not log a violation
                self.stats.lazy_reconciles += 1
                self._free_slot(slot, core)
                continue
            if slot.containment_owner is not None:
                if thread.tid == slot.containment_owner:
                    continue
                if thread.state == ThreadState.RUNNING:
                    self._suspend(core, thread, slot, Suspension.REASON_TRAP,
                                  retry_instr=not trap_before)
                continue
            if slot.owner_tid == thread.tid:
                # Local thread's own access. Refresh the undo value so a
                # later rollback restores the value after the *latest*
                # local access, never clobbering local writes. Also
                # completes the base-mode first-write capture.
                self.stats.local_traps += 1
                slot.last_use_ns = core.clock
                slot.captured_value = machine.read_raw(slot.addr)
                had_pending = False
                for ar in slot.ars:
                    if ar.pending_capture:
                        ar.pending_capture = False
                        had_pending = True
                if had_pending:
                    if slot.recompute_kinds(self.config.opt.o3_local_disable):
                        self._bump_epoch(core)
                continue

            # ---- remote access ------------------------------------------
            self.stats.remote_traps += 1
            slot.last_use_ns = core.clock
            undone = False
            fpc = None
            resolved = False
            if trap_before:
                kinds = _sorted_kinds(
                    {AccessKind.WRITE if w else AccessKind.READ
                     for a, w in accesses
                     if slot.addr <= a < slot.addr + slot.size}
                ) or (AccessKind.READ,)
            else:
                stack_top = None
                if after_pc in machine.program.memory_map.subroutine_entries:
                    stack_top = machine.read_raw(thread.sp)
                fpc = machine.program.memory_map.faulting_pc(after_pc,
                                                             stack_top)
                resolved = (fpc is not None
                            and 0 <= fpc < len(machine.program.instrs))
                if not resolved:
                    self.stats.unresolved_pcs += 1
                    kinds = _sorted_kinds(
                        {AccessKind.WRITE if w else AccessKind.READ
                         for a, w in accesses
                         if slot.addr <= a < slot.addr + slot.size}
                    ) or (AccessKind.READ,)
                else:
                    kinds = classify_access_kinds(
                        machine.program.instrs[fpc], thread, slot.addr)
            # duplicated/late delivery: hardware can re-report a trap the
            # kernel already handled (and possibly already undid); a
            # second undo of the same instruction would corrupt state, so
            # dedup before acting
            prev = slot.triggers[-1] if slot.triggers else None
            if (prev is not None and prev.tid == thread.tid
                    and prev.pc == fpc
                    and 0 <= core.clock - prev.time
                    <= machine.costs.trap * 2):
                self.stats.duplicate_traps_ignored += 1
                self._record_degradation("duplicate-trap", core.clock,
                                         tid=thread.tid, pc=fpc)
                continue
            if trap_before:
                if prevention and thread.state == ThreadState.RUNNING:
                    # access not yet committed: simply delay the thread
                    self._suspend(core, thread, slot, Suspension.REASON_TRAP,
                                  retry_instr=True)
                    undone = True
            elif resolved:
                instr = machine.program.instrs[fpc]
                if (prevention and thread.state == ThreadState.RUNNING
                        and instr.op not in SYNC_OPS):
                    undone = self._try_undo(core, thread, fpc, slot)
                elif prevention and instr.op in SYNC_OPS:
                    self.stats.unable_to_reorder += 1
            if self.breaker is not None:
                for ar in slot.ars:
                    backoff = self.breaker.record_trap(ar.ar_id, core.clock)
                    if backoff is not None:
                        self._record_breaker_trip(ar.ar_id, ar.tid,
                                                  core.clock, backoff)
                        self._note_ar_pressure(ar.ar_id, ar.tid, core.clock)
            slot.triggers.append(
                Trigger(thread.tid, kinds, fpc,
                        machine.program.location(fpc) if fpc is not None
                        else "pc=?", core.clock, undone)
            )
            self._journal(core.clock, thread.tid, "trigger",
                          slot=slot.index, gen=slot.gen, kinds=kinds,
                          pc=fpc, undone=undone, via_begin=False,
                          location=machine.program.location(fpc)
                          if fpc is not None else "pc=?")
        return 0

    def _try_undo(self, core, thread, fpc, slot):
        """Undo + suspend a remote access (trap-after prevention path)."""
        machine = self.machine
        if self.faults is not None and self.faults.fires(
                "kernel.undo.fail", core.clock, tid=thread.tid, pc=fpc):
            # forced rollback failure: fail open — the access stays
            # committed, the thread continues, and any violation will be
            # recorded as not prevented
            self.stats.undo_faults_injected += 1
            self.stats.unable_to_reorder += 1
            self._record_degradation("undo-failed", core.clock,
                                     tid=thread.tid, pc=fpc)
            return False
        instr = machine.program.instrs[fpc]
        # the leak-containment case needs a spare watchpoint; check before
        # undoing so failure leaves the access committed (paper: "allows
        # the remote thread to continue and logs that it was unable to
        # reorder")
        if instr.op is Op.CPY:
            src = thread.regs[instr.b]
            dst = thread.regs[instr.a]
            if src == slot.addr and dst != slot.addr:
                free = None
                for s in self.slots:
                    if not s.enabled:
                        free = s
                        break
                if free is None:
                    self.stats.unable_to_reorder += 1
                    return False
        outcome = undo_remote_access(machine, thread, fpc, slot)
        if not outcome.ok:
            self.stats.unable_to_reorder += 1
            return False
        self.stats.undos += 1
        self._journal(core.clock, thread.tid, "undo", pc=fpc,
                      addr=slot.addr, slot=slot.index, gen=slot.gen,
                      loc=machine.program.location(fpc))
        if outcome.needs_containment_addr is not None:
            free = None
            for s in self.slots:
                if not s.enabled:
                    free = s
                    break
            if free is not None:
                free.enabled = True
                free.gen += 1
                self.stats.watchpoint_arms += 1
                free.addr = outcome.needs_containment_addr
                free.size = 1
                free.watch_read = True
                free.watch_write = True
                free.containment_owner = thread.tid
                free.owner_tid = thread.tid
                self._bump_epoch(core)
                self.stats.containments += 1
                self._journal(core.clock, thread.tid, "arm",
                              slot=free.index, gen=free.gen, addr=free.addr,
                              size=1, read=True, write=True,
                              containment=True)
        self._suspend(core, thread, slot, Suspension.REASON_TRAP,
                      retry_instr=False)
        return True

    # ------------------------------------------------------------------
    # violation evaluation
    # ------------------------------------------------------------------

    def _evaluate(self, info, local_tid, addr, triggers, begin_time,
                  second_kind, core, force_unprevented=False):
        for trigger in triggers:
            if trigger.tid == local_tid or trigger.time < begin_time:
                continue
            for kind in trigger.kinds:
                if is_unserializable(info.first_kind, kind, second_kind):
                    prevented = trigger.undone and not force_unprevented
                    self.log.add(ViolationRecord(
                        ar_id=info.ar_id,
                        var=info.var,
                        func=info.func,
                        addr=addr,
                        local_tid=local_tid,
                        remote_tid=trigger.tid,
                        first_kind=info.first_kind,
                        remote_kind=kind,
                        second_kind=second_kind,
                        remote_pc=trigger.pc,
                        remote_location=trigger.location,
                        local_line_first=info.line,
                        local_line_second=min(info.second_lines.values())
                        if info.second_lines else info.line,
                        time_ns=core.clock if core is not None else trigger.time,
                        prevented=prevented,
                    ))
                    self.stats.violations += 1
                    if not prevented:
                        self.stats.unprevented_violations += 1
                    if self.pressure is not None:
                        # violation history is the arbiter's priority
                        # signal: ARs that produce violations are the
                        # ones worth a hardware watchpoint
                        self.pressure.note_violation(info.ar_id)
                    self._journal(
                        core.clock if core is not None else trigger.time,
                        local_tid, "violation", ar=info.ar_id, var=info.var,
                        addr=addr, remote_tid=trigger.tid,
                        first=info.first_kind, remote=kind,
                        second=second_kind, prevented=prevented)
                    break
