"""Per-core hardware debug registers (watchpoints).

Models the x86 DR0-DR3/DR7 facility: each core owns ``num_slots``
watchpoint slots (four on Intel and AMD), each configured with an address,
a size and the access kinds to trap on. Traps are delivered *after* the
triggering instruction commits ("type: After" in the paper's Table 1); a
``trap_before`` switch models SPARC-style hardware for ablation studies.

Cross-core consistency is the kernel's job (Section 3.2): the kernel keeps
one logical watchpoint state and cores adopt it lazily on kernel entry.
The hardware model here therefore exposes an ``epoch`` — the machine bumps
it whenever the logical state changes and each core records the epoch it
has synced to.
"""

import weakref

from repro.minic.ast import AccessKind

#: Table 1 of the paper: survey of hardware watchpoint support.
ARCH_SURVEY = [
    {"arch": "x86", "support": True, "number": 4, "type": "After"},
    {"arch": "SPARC", "support": True, "number": 2, "type": "Before"},
    {"arch": "MIPS", "support": True, "number": 1, "type": "Depends on inst."},
    {"arch": "ARM", "support": True, "number": 2, "type": "After"},
    {"arch": "PowerPC", "support": True, "number": 1, "type": ""},
]

X86_NUM_WATCHPOINTS = 4


class WatchpointSlot:
    """Hardware view of one debug register pair (address + control bits)."""

    __slots__ = ("index", "enabled", "addr", "size", "watch_read",
                 "watch_write", "suppressed_tids", "owner")

    def __init__(self, index, owner=None):
        self.index = index
        self.enabled = False
        self.addr = 0
        self.size = 1
        self.watch_read = False
        self.watch_write = False
        # Threads for which delivery is suppressed (third optimization of
        # Section 3.4: the kernel disables the watchpoint while the local
        # thread that owns the AR is running; modelled as a per-slot set
        # consulted at match time instead of per-context-switch rewrites).
        self.suppressed_tids = None
        # weak reference to the DebugRegisterFile to notify of changes
        # (a strong one would make every register file a cycle), or None
        self.owner = weakref.ref(owner) if owner is not None else None

    def configure(self, addr, size, watch_read, watch_write, suppressed_tids=None):
        self.enabled = True
        self.addr = addr
        self.size = size
        self.watch_read = watch_read
        self.watch_write = watch_write
        self.suppressed_tids = suppressed_tids
        self._notify()

    def disable(self):
        self.enabled = False
        self.suppressed_tids = None
        self._notify()

    def _notify(self):
        owner = self.owner() if self.owner is not None else None
        if owner is not None:
            owner.rebuild_armed()

    def matches(self, addr, is_write, tid):
        return (self.enabled and self.addr <= addr < self.addr + self.size
                and (self.watch_write if is_write else self.watch_read)
                and (self.suppressed_tids is None
                     or tid not in self.suppressed_tids))


class DebugRegisterFile:
    """One core's set of watchpoint slots.

    ``armed`` (the enabled slots) and the spans below are rebuilt
    whenever a slot changes (``adopt``, ``configure``, ``disable`` are
    the only writers of slot fields), so the machine reads them without
    a call.  ``read_spans`` and ``write_spans`` hold one ``(lo, hi,
    suppressed_tids)`` triple per armed slot watching that access kind:
    an access of ``addr`` by ``tid`` hits some slot exactly when a
    triple has ``lo <= addr < hi`` and ``suppressed_tids`` is None or
    lacks ``tid``, i.e. when :meth:`match` would return a slot."""

    __slots__ = ("slots", "synced_epoch", "armed", "read_spans",
                 "write_spans", "__weakref__")

    def __init__(self, num_slots=X86_NUM_WATCHPOINTS):
        self.slots = [WatchpointSlot(i, self) for i in range(num_slots)]
        self.synced_epoch = 0
        self.armed = ()
        self.read_spans = ()
        self.write_spans = ()

    def __len__(self):
        return len(self.slots)

    def rebuild_armed(self):
        armed = tuple(slot for slot in self.slots if slot.enabled)
        self.armed = armed
        self.read_spans = tuple(
            (slot.addr, slot.addr + slot.size, slot.suppressed_tids)
            for slot in armed if slot.watch_read)
        self.write_spans = tuple(
            (slot.addr, slot.addr + slot.size, slot.suppressed_tids)
            for slot in armed if slot.watch_write)

    def any_enabled(self):
        return bool(self.armed)

    def check(self, addr, is_write, tid):
        """Return indices of slots hit by one access (the DR6 status bits)."""
        return self.match(((addr, is_write),), tid)

    def match(self, accesses, tid, profiler=None):
        """Indices of the slots hit by an instruction's ``(addr,
        is_write)`` accesses, each once, in first-hit order; the check is
        counted on ``profiler`` (a repro.obs.VMProfiler) when given."""
        hits = []
        for addr, is_write in accesses:
            for slot in self.armed:
                if slot.matches(addr, is_write, tid) \
                        and slot.index not in hits:
                    hits.append(slot.index)
        if profiler is not None:
            profiler.note_wp_check(len(accesses), len(hits))
        return hits

    def adopt(self, logical_slots, epoch, faults=None):
        """Copy the kernel's logical watchpoint state into this core
        (the lazy cross-core update of Section 3.2).

        With a fault injector attached, ``machine.dr.slot_fail`` makes
        one slot silently fail to arm — the hardware analog of a write
        to DR7 that doesn't take; the kernel's consistency check catches
        and re-arms it on a later kernel entry.
        """
        failed_index = None
        if faults is not None and faults.fires("machine.dr.slot_fail", 0,
                                               epoch=epoch):
            failed_index = (faults.fired_count("machine.dr.slot_fail") - 1) \
                % len(self.slots)
        for mine, theirs in zip(self.slots, logical_slots):
            mine.enabled = theirs.enabled and mine.index != failed_index
            mine.addr = theirs.addr
            mine.size = theirs.size
            mine.watch_read = theirs.watch_read
            mine.watch_write = theirs.watch_write
            mine.suppressed_tids = theirs.suppressed_tids
        self.rebuild_armed()
        self.synced_epoch = epoch

    def consistent_with(self, logical_slots):
        """Whether this core's hardware state matches the kernel's
        logical state (the degradation plane's resync check)."""
        for mine, theirs in zip(self.slots, logical_slots):
            if (mine.enabled != theirs.enabled
                    or mine.addr != theirs.addr
                    or mine.size != theirs.size
                    or mine.watch_read != theirs.watch_read
                    or mine.watch_write != theirs.watch_write
                    or mine.suppressed_tids != theirs.suppressed_tids):
                return False
        return True


__all__ = [
    "ARCH_SURVEY",
    "AccessKind",
    "DebugRegisterFile",
    "WatchpointSlot",
    "X86_NUM_WATCHPOINTS",
]
