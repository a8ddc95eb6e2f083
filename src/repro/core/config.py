"""Configuration of a Kivati-protected run."""

import enum

from repro.errors import ConfigError
from repro.machine.costs import CostModel

MS = 1_000_000  # nanoseconds per millisecond


class Mode(enum.Enum):
    """Section 2.3: the two usage modes."""

    PREVENTION = "prevention"
    BUG_FINDING = "bug-finding"


class OptLevel(enum.Enum):
    """The four configurations evaluated in Tables 3 and 4."""

    BASE = "base"
    NULL_SYSCALL = "null-syscall"
    SYNCVARS = "syncvars"
    OPTIMIZED = "optimized"


class OptimizationConfig:
    """Independent switches for the four optimizations of Section 3.4.

    - ``o1_userspace``: replicate AR table + watchpoint metadata in user
      space; enter the kernel only when hardware registers must change.
    - ``o2_lazy_free``: leave the hardware watchpoint armed when the last
      AR ends; reconcile on the next begin_atomic or trap.
    - ``o3_local_disable``: suppress watchpoint delivery for the local
      thread owning the AR; capture first-write values via the annotated
      shadow store instead of a local trap.
    - ``o4_syncvars``: whitelist ARs on synchronization variables.
    - ``null_syscall``: diagnostic configuration — begin/end/clear enter
      the kernel and return immediately (no monitoring at all).
    """

    __slots__ = ("o1_userspace", "o2_lazy_free", "o3_local_disable",
                 "o4_syncvars", "null_syscall")

    def __init__(self, o1_userspace=False, o2_lazy_free=False,
                 o3_local_disable=False, o4_syncvars=False,
                 null_syscall=False):
        self.o1_userspace = o1_userspace
        self.o2_lazy_free = o2_lazy_free
        self.o3_local_disable = o3_local_disable
        self.o4_syncvars = o4_syncvars
        self.null_syscall = null_syscall

    @classmethod
    def from_level(cls, level):
        if level == OptLevel.BASE:
            return cls()
        if level == OptLevel.NULL_SYSCALL:
            return cls(null_syscall=True)
        if level == OptLevel.SYNCVARS:
            return cls(o4_syncvars=True)
        if level == OptLevel.OPTIMIZED:
            return cls(o1_userspace=True, o2_lazy_free=True,
                       o3_local_disable=True, o4_syncvars=True)
        raise ConfigError("unknown optimization level %r" % (level,))

    def __repr__(self):
        flags = [name for name in self.__slots__ if getattr(self, name)]
        return "OptimizationConfig(%s)" % ", ".join(flags)


class KivatiConfig:
    """Full configuration of a protected run."""

    __slots__ = (
        "mode",
        "opt",
        "num_watchpoints",
        "num_cores",
        "pause_ns",
        "pause_probability",
        "suspend_timeout_ns",
        "whitelist",
        "whitelist_path",
        "whitelist_reread_ns",
        "costs",
        "seed",
        "trap_before",
        "eager_crosscore",
        "max_steps",
        "journal",
        "faults",
        "breaker",
        "watchdog",
        "static_prune",
        "pressure",
        "conflict_sched",
        "obs",
    )

    def __init__(
        self,
        mode=Mode.PREVENTION,
        opt=OptLevel.OPTIMIZED,
        num_watchpoints=4,
        num_cores=2,
        pause_ns=20 * MS,
        pause_probability=0.01,
        suspend_timeout_ns=10 * MS,
        whitelist=(),
        whitelist_path=None,
        whitelist_reread_ns=500 * MS,
        costs=None,
        seed=0,
        trap_before=False,
        eager_crosscore=False,
        max_steps=200_000_000,
        journal=None,
        faults=None,
        breaker=True,
        watchdog=True,
        static_prune=False,
        pressure=None,
        conflict_sched=False,
        obs=None,
    ):
        self.mode = mode
        self.opt = (OptimizationConfig.from_level(opt)
                    if isinstance(opt, OptLevel) else opt)
        if num_watchpoints < 1:
            raise ConfigError("need at least one watchpoint register")
        if num_cores < 1:
            raise ConfigError("need at least one core")
        if not (0.0 <= pause_probability <= 1.0):
            raise ConfigError("pause_probability must be in [0, 1]")
        if not isinstance(suspend_timeout_ns, int) or suspend_timeout_ns < 1:
            raise ConfigError("suspend_timeout_ns must be a positive "
                              "integer nanosecond count")
        self.num_watchpoints = num_watchpoints
        self.num_cores = num_cores
        self.pause_ns = pause_ns
        self.pause_probability = pause_probability
        self.suspend_timeout_ns = suspend_timeout_ns
        self.whitelist = frozenset(whitelist)
        self.whitelist_path = whitelist_path
        self.whitelist_reread_ns = whitelist_reread_ns
        self.costs = costs or CostModel()
        self.seed = seed
        self.trap_before = trap_before
        # ablation: synchronize other cores' watchpoint registers with an
        # immediate IPI instead of the paper's lazy opportunistic scheme
        self.eager_crosscore = eager_crosscore
        self.max_steps = max_steps
        # optional repro.journal.JournalRecorder: the durable incident
        # journal (scheduler decisions, AR lifecycle, traps, undos,
        # degradations) that survives the process and feeds replay,
        # crash recovery, the offline checker and the forensic view
        self.journal = journal
        # optional repro.faults.FaultPlan: deterministic fault injection;
        # None (the default) keeps every injection site on its zero-cost
        # predicate-only path
        self.faults = faults
        # per-AR fail-open circuit breaker: True for default thresholds,
        # False to disable, or a repro.faults.BreakerPolicy instance
        self.breaker = breaker
        # suspension watchdog: break cyclic mutual suspension immediately
        # instead of waiting for the 10 ms timeout
        self.watchdog = watchdog
        # opt-in: skip monitoring for ARs the lock-discipline analysis
        # proved STATIC_SAFE (repro.analysis.prune); merged with, not
        # replacing, the dynamic whitelist
        self.static_prune = static_prune
        # overload control plane (repro.pressure): True for default
        # policy, a PressurePolicy instance for tuned watermarks, or
        # None (the default) to keep the seed fail-open behavior
        self.pressure = pressure
        # opt-in: conflict-aware machine scheduling — in PREVENTION mode
        # the scheduler deprioritizes runnable threads whose static AR
        # footprints (repro.analysis.footprint) intersect a thread
        # already running on another core, turning suspensions/undos
        # into cheap scheduling decisions
        self.conflict_sched = conflict_sched
        # optional repro.obs.ObsPlane: metrics registry + deterministic
        # VM profiler. A per-run mutable observer like journal —
        # excluded from journal snapshots, and purely read-only with
        # respect to simulation (no cost, scheduling, journal or report
        # changes); None keeps every hook on its is-None predicate
        self.obs = obs

    @property
    def detection_enabled(self):
        return not self.opt.null_syscall

    @property
    def prevention_enabled(self):
        return not self.opt.null_syscall

    def copy(self, **overrides):
        kwargs = {
            "mode": self.mode,
            "opt": self.opt,
            "num_watchpoints": self.num_watchpoints,
            "num_cores": self.num_cores,
            "pause_ns": self.pause_ns,
            "pause_probability": self.pause_probability,
            "suspend_timeout_ns": self.suspend_timeout_ns,
            "whitelist": self.whitelist,
            "whitelist_path": self.whitelist_path,
            "whitelist_reread_ns": self.whitelist_reread_ns,
            "costs": self.costs,
            "seed": self.seed,
            "trap_before": self.trap_before,
            "eager_crosscore": self.eager_crosscore,
            "max_steps": self.max_steps,
            "journal": self.journal,
            "faults": self.faults,
            "breaker": self.breaker,
            "watchdog": self.watchdog,
            "static_prune": self.static_prune,
            "pressure": self.pressure,
            "conflict_sched": self.conflict_sched,
            "obs": self.obs,
        }
        kwargs.update(overrides)
        return KivatiConfig(**kwargs)
