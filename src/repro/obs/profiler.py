"""Sampling-free deterministic VM profiler.

Where a wall-clock sampling profiler would make run output depend on
host speed, this profiler counts discrete, fully deterministic events:

- per-opcode dispatch counts in the dispatch loop of ``Machine.run`` —
  the hot-path evidence the dispatch-flattening ROADMAP item needs;
- watchpoint-membership check rates in ``DebugRegisterFile.match``
  (calls, accesses probed, calls that hit, slots hit; a watchable
  instruction's check counts even when no slot is armed) — the measured
  miss rate is what justifies a Bloom-style negative-lookup front line;
- suspension-queue depth at every kernel ``_suspend`` (distribution +
  peak), the kernel-side congestion signal.

Counts are identical for identical ``(config, seed)`` regardless of
host, process, or PYTHONHASHSEED, so they can be asserted in tests and
diffed between runs. An **optional wall-clock timing mode**
(``wall_time=True``) additionally attributes host nanoseconds to the
last-dispatched opcode; timing numbers are host-dependent and excluded
from deterministic exports unless explicitly requested.

When profiling is off, ``machine.profiler`` / ``kernel.profiler`` are
``None`` and every hook site is a single attribute-is-None predicate —
the same zero-overhead idiom the fault and journal planes use.
"""

from repro.obs.metrics import BUCKET_LAYOUTS, Histogram

#: suspension-queue depth buckets (shared with the metrics registry so
#: profiler output and registry histograms line up)
DEPTH_BOUNDS = BUCKET_LAYOUTS["depth"]


def _named(mapping):
    """Normalize an op-keyed mapping to opcode-name keys (hot-path hooks
    key by the Op member itself to skip the enum ``.value`` lookup)."""
    out = {}
    for op, value in mapping.items():
        if not value:
            continue  # machines pre-seed every opcode with 0
        name = getattr(op, "value", op)
        out[name] = out.get(name, 0) + value
    return out


class VMProfiler:
    """Deterministic event counters for one protected run."""

    __slots__ = ("op_counts", "op_wall_ns", "wall_time", "_last_op",
                 "pc_counts", "_instr_op_names",
                 "wp_checks", "wp_accesses", "wp_hit_checks",
                 "wp_hit_slots", "suspend_depth", "suspend_peak")

    def __init__(self, wall_time=False):
        # keyed by the Op member itself (or its string name) — keys are
        # normalized to names at export time.  Machines do not write
        # here on the hot path: they bump ``pc_counts[pc]`` (a flat list
        # indexed by program counter, installed by attach_program) and
        # the per-op view is aggregated lazily — Enum hashing is a
        # Python-level call and far too slow per dispatch.
        self.op_counts = {}       # op -> dispatch count
        self.op_wall_ns = {}      # op -> host ns (wall mode only)
        self.pc_counts = None     # list, dispatch count per pc
        self._instr_op_names = None  # list, opcode name per pc
        self.wall_time = wall_time
        self._last_op = None
        self.wp_checks = 0        # watchpoint checks of instructions
        self.wp_accesses = 0      # (addr, is_write) pairs probed
        self.wp_hit_checks = 0    # calls that returned >=1 slot
        self.wp_hit_slots = 0     # total slots hit
        self.suspend_depth = Histogram("kernel.suspend_depth", DEPTH_BOUNDS)
        self.suspend_peak = 0

    # ------------------------------------------------------------------
    # hook points (hot path — keep these tiny)
    # ------------------------------------------------------------------

    def attach_program(self, instrs):
        """Install (and return) the per-pc dispatch array for a machine
        about to run ``instrs``.  Any counts from a previously attached
        program are folded into ``op_counts`` first, so one profiler can
        observe several runs."""
        self._flush_pc_counts()
        self._instr_op_names = [instr.op.value for instr in instrs]
        self.pc_counts = [0] * len(instrs)
        return self.pc_counts

    def _flush_pc_counts(self):
        if self.pc_counts is not None:
            names = self._instr_op_names
            counts = self.op_counts
            for pc, n in enumerate(self.pc_counts):
                if n:
                    name = names[pc]
                    counts[name] = counts.get(name, 0) + n
            self.pc_counts = None
            self._instr_op_names = None

    def count_op(self, op):
        self._last_op = op
        counts = self.op_counts
        counts[op] = counts.get(op, 0) + 1

    def add_wall_ns(self, ns):
        op = self._last_op
        if op is not None:
            wall = self.op_wall_ns
            wall[op] = wall.get(op, 0) + ns

    def note_wp_check(self, accesses, hit_slots):
        self.wp_checks += 1
        self.wp_accesses += accesses
        if hit_slots:
            self.wp_hit_checks += 1
            self.wp_hit_slots += hit_slots

    def note_suspend(self, depth):
        self.suspend_depth.observe(depth)
        if depth > self.suspend_peak:
            self.suspend_peak = depth

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------

    @property
    def total_dispatches(self):
        total = sum(self.op_counts.values())
        if self.pc_counts is not None:
            total += sum(self.pc_counts)
        return total

    def named_op_counts(self):
        """Per-opcode dispatch counts keyed by opcode name, combining
        the live per-pc array with any flushed/manual counts."""
        out = _named(self.op_counts)
        if self.pc_counts is not None:
            names = self._instr_op_names
            for pc, n in enumerate(self.pc_counts):
                if n:
                    name = names[pc]
                    out[name] = out.get(name, 0) + n
        return out

    def named_op_wall_ns(self):
        """``op_wall_ns`` with keys normalized to opcode names."""
        return _named(self.op_wall_ns)

    @property
    def wp_hit_rate(self):
        return self.wp_hit_checks / self.wp_checks if self.wp_checks else 0.0

    def as_dict(self, include_wall=False):
        """Deterministic JSON-safe snapshot (sorted keys, no host time
        unless ``include_wall``)."""
        ops = self.named_op_counts()
        payload = {
            "ops": {name: ops[name] for name in sorted(ops)},
            "wp": {
                "checks": self.wp_checks,
                "accesses": self.wp_accesses,
                "hit_checks": self.wp_hit_checks,
                "hit_slots": self.wp_hit_slots,
            },
            "suspend_depth": {
                "bounds": list(self.suspend_depth.bounds),
                "counts": list(self.suspend_depth.counts),
                "sum": self.suspend_depth.sum,
                "count": self.suspend_depth.count,
                "peak": self.suspend_peak,
            },
        }
        if include_wall:
            wall = self.named_op_wall_ns()
            payload["wall_ns"] = {name: wall[name] for name in sorted(wall)}
        return payload

    def export_to(self, registry, prefix="kivati.vm."):
        """Push the deterministic counters into a metrics registry."""
        ops = self.named_op_counts()
        for name in sorted(ops):
            registry.counter("%sop.%s" % (prefix, name)).inc(ops[name])
        registry.counter(prefix + "wp.checks").inc(self.wp_checks)
        registry.counter(prefix + "wp.accesses").inc(self.wp_accesses)
        registry.counter(prefix + "wp.hit_checks").inc(self.wp_hit_checks)
        registry.counter(prefix + "wp.hit_slots").inc(self.wp_hit_slots)
        hist = registry.histogram("kivati.kernel.suspend_depth", "depth")
        for i, n in enumerate(self.suspend_depth.counts):
            hist.counts[i] += n
        hist.sum += self.suspend_depth.sum
        hist.count += self.suspend_depth.count
        registry.gauge("kivati.kernel.suspend_depth_peak").max(
            self.suspend_peak)

    def hot_path_table(self, top=12):
        """Render the per-app hot-path table: opcodes by dispatch share,
        cumulative share, and (in wall mode) host time share."""
        total = self.total_dispatches
        lines = ["hot path: %d dispatches, %d watchpoint checks "
                 "(%d accesses, hit rate %.4f)"
                 % (total, self.wp_checks, self.wp_accesses,
                    self.wp_hit_rate)]
        if self.suspend_depth.count:
            lines.append("  suspension queue: %d suspends, mean depth "
                         "%.2f, peak %d"
                         % (self.suspend_depth.count,
                            self.suspend_depth.sum
                            / self.suspend_depth.count,
                            self.suspend_peak))
        if not total:
            lines.append("  (no instructions dispatched)")
            return "\n".join(lines)
        op_counts = self.named_op_counts()
        op_wall = self.named_op_wall_ns()
        wall_total = sum(op_wall.values())
        header = "  %4s %-10s %12s %7s %7s" % ("rank", "op", "count",
                                               "%", "cum%")
        if wall_total:
            header += " %9s %7s" % ("wall_us", "wall%")
        lines.append(header)
        ranked = sorted(op_counts.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        cum = 0
        for rank, (name, count) in enumerate(ranked[:top], start=1):
            cum += count
            row = "  %4d %-10s %12d %6.2f%% %6.2f%%" % (
                rank, name, count, 100.0 * count / total,
                100.0 * cum / total)
            if wall_total:
                ns = op_wall.get(name, 0)
                row += " %9.1f %6.2f%%" % (ns / 1e3,
                                           100.0 * ns / wall_total)
            lines.append(row)
        if len(ranked) > top:
            rest = total - cum
            lines.append("  %4s %-10s %12d %6.2f%%"
                         % ("...", "(%d more)" % (len(ranked) - top),
                            rest, 100.0 * rest / total))
        return "\n".join(lines)


__all__ = ["DEPTH_BOUNDS", "VMProfiler"]
