"""Thread model."""

import enum

from repro.compiler.bytecode import NUM_REGS
from repro.machine.memory import Memory


class ThreadState(enum.Enum):
    RUNNABLE = "runnable"
    RUNNING = "running"
    SLEEPING = "sleeping"          # sleep() or bug-finding pause
    BLOCKED_LOCK = "blocked_lock"
    BLOCKED_JOIN = "blocked_join"
    BLOCKED_WPSYNC = "blocked_wpsync"  # waiting for cross-core watchpoint sync
    SUSPENDED = "suspended"        # suspended by Kivati (remote thread)
    DONE = "done"


class Frame:
    """One call-stack frame (register window)."""

    __slots__ = ("return_pc", "saved_regs", "result_reg", "saved_fp", "saved_sp")

    def __init__(self, return_pc, saved_regs, result_reg, saved_fp, saved_sp):
        self.return_pc = return_pc
        self.saved_regs = saved_regs
        self.result_reg = result_reg
        self.saved_fp = saved_fp
        self.saved_sp = saved_sp


class Thread:
    """A simulated thread of execution."""

    __slots__ = (
        "tid",
        "regs",
        "pc",
        "sp",
        "fp",
        "frames",
        "state",
        "parent",
        "live_children",
        "rng_state",
        "wake_time",
        "suspend_info",
        "core_affinity",
        "last_core",
    )

    def __init__(self, tid, entry_pc, parent=None, seed=0):
        self.tid = tid
        self.regs = [0] * NUM_REGS
        self.pc = entry_pc
        self.sp = Memory.stack_base(tid)
        self.fp = self.sp
        self.frames = []
        self.state = ThreadState.RUNNABLE
        self.parent = parent
        self.live_children = 0
        # splitmix-style tempering: xorshift streams seeded from nearby
        # values are correlated, which would synchronize the random
        # decisions of sibling threads
        z = ((seed & 0xFFFF) << 16 | (tid & 0xFFFF)) & 0xFFFFFFFF
        z = (z + 0x9E3779B9) & 0xFFFFFFFF
        z ^= z >> 16
        z = (z * 0x85EBCA6B) & 0xFFFFFFFF
        z ^= z >> 13
        z = (z * 0xC2B2AE35) & 0xFFFFFFFF
        z ^= z >> 16
        self.rng_state = z or 0x9E3779B9
        self.wake_time = None
        self.suspend_info = None
        self.core_affinity = None
        self.last_core = None

    @property
    def call_depth(self):
        return len(self.frames)

    def next_rand(self, bound):
        """Deterministic per-thread xorshift PRNG."""
        x = self.rng_state or 0x9E3779B9
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self.rng_state = x
        if bound <= 0:
            return 0
        return x % bound

    def is_blocked(self):
        return self.state in (
            ThreadState.SLEEPING,
            ThreadState.BLOCKED_LOCK,
            ThreadState.BLOCKED_JOIN,
            ThreadState.BLOCKED_WPSYNC,
            ThreadState.SUSPENDED,
        )

    def __repr__(self):
        return "Thread(tid=%d, pc=%d, state=%s)" % (self.tid, self.pc, self.state.value)
