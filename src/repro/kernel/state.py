"""Kernel data structures: watchpoint metadata and per-thread AR tables."""

from repro.minic.ast import AccessKind


class Trigger:
    """One recorded watchpoint trap caused by a remote access."""

    __slots__ = ("tid", "kinds", "pc", "location", "time", "undone")

    def __init__(self, tid, kinds, pc, location, time, undone):
        self.tid = tid
        self.kinds = tuple(kinds)  # AccessKind values the access performed
        self.pc = pc
        self.location = location
        self.time = time
        self.undone = undone

    def __repr__(self):
        return "Trigger(tid=%d, %s, pc=%s, undone=%s)" % (
            self.tid, "/".join(str(k) for k in self.kinds), self.pc,
            self.undone)


class Suspension:
    """A remote thread suspended on a watchpoint slot."""

    __slots__ = ("tid", "reason", "timeout_event")

    REASON_TRAP = "trap"
    REASON_BEGIN = "begin"

    def __init__(self, tid, reason, timeout_event):
        self.tid = tid
        self.reason = reason
        self.timeout_event = timeout_event


class ActiveAR:
    """A begin_atomic'd atomic region awaiting its end_atomic."""

    __slots__ = ("info", "tid", "addr", "depth", "begin_time", "slot_index",
                 "pending_capture")

    def __init__(self, info, tid, addr, depth, begin_time, slot_index,
                 pending_capture):
        self.info = info
        self.tid = tid
        self.addr = addr
        self.depth = depth
        self.begin_time = begin_time
        self.slot_index = slot_index
        self.pending_capture = pending_capture

    @property
    def ar_id(self):
        return self.info.ar_id

    def __repr__(self):
        return "ActiveAR(ar=%d, tid=%d, addr=%d, slot=%s)" % (
            self.ar_id, self.tid, self.addr, self.slot_index)


class ZombieAR:
    """An AR whose watchpoint timed out before end_atomic executed.

    Its triggers are preserved so the late end_atomic can still record the
    violation "but note that it was not prevented" (Section 2.2).
    """

    __slots__ = ("info", "tid", "addr", "triggers", "begin_time")

    def __init__(self, info, tid, addr, triggers, begin_time):
        self.info = info
        self.tid = tid
        self.addr = addr
        self.triggers = list(triggers)
        self.begin_time = begin_time


class KernelSlot:
    """Kernel-side (logical) metadata for one hardware watchpoint slot."""

    __slots__ = ("index", "enabled", "addr", "size", "watch_read",
                 "watch_write", "ars", "triggers", "suspended",
                 "lazily_freed", "captured_value", "owner_tid",
                 "containment_owner", "suppressed_tids", "gen",
                 "freed_at", "last_use_ns")

    def __init__(self, index):
        self.index = index
        # monotone arming generation: incremented every time the slot is
        # (re)armed for a fresh address, never reset by free().  Journal
        # events carry (slot, gen) so offline replay and checker tools can
        # attribute triggers to AR windows exactly as the online kernel
        # did, without relying on cross-core timestamps.
        self.gen = 0
        self.enabled = False
        self.addr = 0
        self.size = 1
        self.watch_read = False
        self.watch_write = False
        self.ars = []
        self.triggers = []
        self.suspended = []
        self.lazily_freed = False
        self.captured_value = None
        self.owner_tid = None
        self.containment_owner = None
        self.suppressed_tids = None
        # when the slot entered the lazily-freed state (None while armed
        # or free); the slot-leak watchdog ages lazily-freed slots
        # against this
        self.freed_at = None
        # last time an AR armed/joined the slot or a trap was attributed
        # to it; the arbiter's LRU tiebreak orders victims by this
        self.last_use_ns = 0

    def free(self):
        self.enabled = False
        self.addr = 0
        self.size = 1
        self.watch_read = False
        self.watch_write = False
        self.ars = []
        self.triggers = []
        self.suspended = []
        self.lazily_freed = False
        self.captured_value = None
        self.owner_tid = None
        self.containment_owner = None
        self.suppressed_tids = None
        self.freed_at = None

    @property
    def is_available(self):
        return not self.enabled or self.lazily_freed

    def matches(self, addr, is_write, tid):
        """Hardware-compatible matching (DebugRegisterFile duck type)."""
        if not self.enabled:
            return False
        if not (self.addr <= addr < self.addr + self.size):
            return False
        if is_write and not self.watch_write:
            return False
        if not is_write and not self.watch_read:
            return False
        if self.suppressed_tids is not None and tid in self.suppressed_tids:
            return False
        return True

    def recompute_kinds(self, o3_enabled):
        """Set hardware kinds to the most aggressive union over the ARs
        using this slot (Section 3.2). Returns True if anything changed."""
        watch_read = False
        watch_write = False
        for ar in self.ars:
            watch_read = watch_read or ar.info.watch_read
            watch_write = watch_write or ar.info.watch_write
            if ar.pending_capture:
                # base-mode first-write capture needs a local write trap
                watch_write = True
        suppressed = None
        if o3_enabled and self.ars and not any(ar.pending_capture
                                               for ar in self.ars):
            suppressed = frozenset(ar.tid for ar in self.ars)
        changed = (watch_read != self.watch_read
                   or watch_write != self.watch_write
                   or suppressed != self.suppressed_tids)
        self.watch_read = watch_read
        self.watch_write = watch_write
        self.suppressed_tids = suppressed
        return changed

    def __repr__(self):
        if not self.enabled:
            return "KernelSlot(%d, free)" % self.index
        kinds = ("R" if self.watch_read else "") + ("W" if self.watch_write else "")
        return "KernelSlot(%d, addr=%d, %s, ars=%d%s)" % (
            self.index, self.addr, kinds, len(self.ars),
            ", lazy" if self.lazily_freed else "")


__all__ = ["AccessKind", "ActiveAR", "KernelSlot", "Suspension", "Trigger",
           "ZombieAR"]
