"""Interface between the machine and an instrumentation runtime.

The machine delegates every Kivati annotation instruction and every
watchpoint trap to the attached runtime. A runtime method returns the
extra simulated cost in nanoseconds it consumed on the current core; side
effects (blocking threads, arming watchpoints, scheduling timeouts) happen
through the machine's public API.

Three runtimes implement this interface:

- :class:`repro.runtime.userlib.KivatiRuntime` — the real system,
- :class:`repro.baselines.avio.AvioLikeRuntime` — software per-access
  instrumentation baseline,
- the default :class:`BaseRuntime` — inert (vanilla runs).
"""


class BaseRuntime:
    """No-op runtime used for vanilla (uninstrumented) runs."""

    #: When True, the machine calls :meth:`on_memory_access` for every
    #: data-memory access. Expensive; only baselines enable it.
    wants_all_accesses = False

    def attach(self, machine):
        """Called once when the machine is constructed."""
        self.machine = machine

    def detach(self):
        """Drop the back-reference to a finished run's machine, so the
        run's object graph is freed by reference counting instead of
        waiting for the cyclic collector."""
        self.machine = None

    def on_begin_atomic(self, core, thread, ar_id, addr):
        """Handle a begin_atomic annotation; returns cost in ns."""
        return 0

    def on_end_atomic(self, core, thread, ar_id, second_is_write):
        """Handle an end_atomic annotation. ``second_is_write`` is the
        second local access type passed by the annotation (paper API).
        Returns cost in ns."""
        return 0

    def on_clear_ar(self, core, thread):
        """Handle a clear_ar annotation; returns cost in ns."""
        return 0

    def on_shadow_store(self, core, thread, ar_id, addr):
        """Handle the replicated first-local-write store; returns cost."""
        return 0

    def on_watchpoint_trap(self, core, thread, after_pc, hit_slots, accesses):
        """Handle a debug trap. ``after_pc`` is the committed-instruction
        successor pc (all the hardware reports on x86); ``hit_slots`` are
        the DR6-style slot indices; ``accesses`` is the (addr, is_write)
        list the instruction performed, available to trap-before hardware
        models only. Returns cost in ns."""
        return 0

    def on_kernel_entry(self, core, thread):
        """Called on every kernel entry (syscall, trap, timer interrupt);
        the opportunistic point for lazy cross-core watchpoint sync."""
        return 0

    def idle_polls_are_noop(self, cores):
        """Whether ``on_kernel_entry(core, None)`` would change nothing
        for every idle core in ``cores``.  While it holds the machine
        parks those cores instead of polling them; a runtime whose
        kernel entry does work must override this."""
        return True

    def on_memory_access(self, core, thread, addr, is_write):
        """Per-access hook (only if wants_all_accesses); returns cost."""
        return 0

    def on_thread_exit(self, core, thread):
        """Called when a thread finishes."""
        return 0

    def on_run_end(self, machine):
        """Called once when the machine halts."""
