"""Violation records and run reports (Section 2.2: "it records the thread
IDs, address of the shared variable and program counters of the memory
accesses involved in the interleaving")."""


class ViolationRecord:
    """One detected atomicity violation."""

    __slots__ = (
        "ar_id",
        "var",
        "func",
        "addr",
        "local_tid",
        "remote_tid",
        "first_kind",
        "remote_kind",
        "second_kind",
        "remote_pc",
        "remote_location",
        "local_line_first",
        "local_line_second",
        "time_ns",
        "prevented",
    )

    def __init__(self, ar_id, var, func, addr, local_tid, remote_tid,
                 first_kind, remote_kind, second_kind, remote_pc,
                 remote_location, local_line_first, local_line_second,
                 time_ns, prevented):
        self.ar_id = ar_id
        self.var = var
        self.func = func
        self.addr = addr
        self.local_tid = local_tid
        self.remote_tid = remote_tid
        self.first_kind = first_kind
        self.remote_kind = remote_kind
        self.second_kind = second_kind
        self.remote_pc = remote_pc
        self.remote_location = remote_location
        self.local_line_first = local_line_first
        self.local_line_second = local_line_second
        self.time_ns = time_ns
        self.prevented = prevented

    @property
    def interleaving(self):
        """E.g. '(R, W, R)' — the non-serializable pattern observed."""
        return "(%s, %s, %s)" % (self.first_kind, self.remote_kind,
                                 self.second_kind)

    def describe(self):
        return (
            "AR %d (%s in %s): local tid %d lines %s-%s, remote tid %d at %s, "
            "interleaving %s, addr %d, t=%.3fms%s"
            % (
                self.ar_id,
                self.var,
                self.func,
                self.local_tid,
                self.local_line_first,
                self.local_line_second,
                self.remote_tid,
                self.remote_location,
                self.interleaving,
                self.addr,
                self.time_ns / 1e6,
                "" if self.prevented else " [NOT PREVENTED]",
            )
        )

    def __repr__(self):
        return "ViolationRecord(ar=%d, %s, prevented=%s)" % (
            self.ar_id, self.interleaving, self.prevented)


class ViolationLog:
    """Accumulates violation records during a run."""

    def __init__(self):
        self.records = []

    def add(self, record):
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def violated_ar_ids(self):
        """Unique AR ids with at least one violation (the paper's
        false-positive counting unit)."""
        return {r.ar_id for r in self.records}

    def for_ar(self, ar_id):
        return [r for r in self.records if r.ar_id == ar_id]


class DegradationRecord:
    """One graceful-degradation decision made during a protected run.

    ``kind`` names the policy that fired (``suspend-timeout``,
    ``watchdog-break``, ``breaker-open``, ``breaker-skip``,
    ``replica-resync``, ``whitelist-read-error``, ``duplicate-trap``,
    ``undo-failed``); ``detail`` carries policy-specific context (AR id,
    tids in a broken cycle, backoff applied, ...).
    """

    __slots__ = ("kind", "time_ns", "tid", "detail")

    def __init__(self, kind, time_ns, tid=None, **detail):
        self.kind = kind
        self.time_ns = time_ns
        self.tid = tid
        self.detail = detail

    def describe(self):
        extra = " ".join("%s=%s" % (k, v)
                         for k, v in sorted(self.detail.items()))
        who = "tid%d" % self.tid if self.tid is not None else "-"
        return "%10.3fus %-5s %-20s %s" % (
            self.time_ns / 1e3, who, self.kind, extra)

    def as_tuple(self):
        """Hashable identity used by the determinism checks."""
        return (self.kind, self.time_ns, self.tid,
                tuple(sorted(self.detail.items())))

    def __repr__(self):
        return "DegradationRecord(%s, t=%dns)" % (self.kind, self.time_ns)


class DegradationLog:
    """Accumulates degradation events during a run.

    Bounded with the same discipline as ``JournalRecorder(max_events=)``:
    once ``max_records`` is reached new records are dropped and
    counted, so a long soak under sustained
    degradation cannot grow memory without bound — and cannot drop
    records silently (``dropped`` surfaces as
    ``KivatiStats.degradations_dropped``).
    """

    def __init__(self, max_records=4096):
        self.records = []
        self.max_records = max_records
        self.dropped = 0

    def add(self, record):
        if len(self.records) >= self.max_records:
            self.dropped += 1
            return
        self.records.append(record)

    def kinds(self):
        """Unique degradation kinds observed (set)."""
        return {r.kind for r in self.records}

    def of_kind(self, kind):
        return [r for r in self.records if r.kind == kind]

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


class RunReport:
    """Summary of one protected run: machine result + Kivati statistics."""

    __slots__ = ("result", "stats", "violations", "config", "ar_table",
                 "degradations", "injected", "pressure")

    def __init__(self, result, stats, violations, config, ar_table,
                 degradations=None, injected=(), pressure=None):
        self.result = result
        self.stats = stats
        self.violations = violations
        self.config = config
        self.ar_table = ar_table
        #: DegradationLog of graceful-degradation events (empty when the
        #: run never had to degrade)
        self.degradations = (degradations if degradations is not None
                             else DegradationLog())
        #: InjectedFault records from the fault plane (empty unless the
        #: run was configured with a FaultPlan)
        self.injected = list(injected)
        #: repro.pressure.PressurePlane of the run (None unless the
        #: config enabled the overload control plane)
        self.pressure = pressure

    @property
    def time_ns(self):
        return self.result.time_ns

    @property
    def time_seconds(self):
        return self.result.time_ns / 1e9

    @property
    def output(self):
        return self.result.output

    def violated_ars(self):
        return self.violations.violated_ar_ids()

    def false_positives(self, buggy_ar_ids=()):
        """Unique violated ARs that are not known bugs."""
        return self.violated_ars() - set(buggy_ar_ids)

    def crossings_per_second(self):
        """Kernel domain crossings per simulated second (Table 4 metric)."""
        if self.result.time_ns == 0:
            return 0.0
        return self.stats.crossings() / (self.result.time_ns / 1e9)

    def traps_per_second(self):
        if self.result.time_ns == 0:
            return 0.0
        return self.stats.traps / (self.result.time_ns / 1e9)

    @property
    def degraded(self):
        """True if any graceful-degradation policy fired during the run."""
        return len(self.degradations) > 0

    def as_payload(self):
        """Plain-JSON summary of this run for cross-process aggregation.

        This is the wire format a fleet worker sends back to the
        supervisor (repro.fleet): only deterministic, order-normalized
        plain types, so payloads from different workers for the same
        (program, config, seed) are *identical* and can be digested,
        compared and merged independent of completion order.
        """
        return {
            "output": list(self.result.output),
            "time_ns": self.result.time_ns,
            "instr_count": self.result.instr_count,
            "deadlocked": bool(self.result.deadlocked),
            "fault": (str(self.result.fault)
                      if self.result.fault is not None else None),
            "threads": self.result.threads,
            "stats": self.stats.as_dict(),
            "violations": sorted(
                (r.ar_id, r.var, r.local_tid, r.remote_tid,
                 r.interleaving, r.time_ns, bool(r.prevented))
                for r in self.violations),
            "violated_ars": sorted(self.violated_ars()),
            "degradation_kinds": sorted(self.degradations.kinds()),
            "degradations": len(self.degradations),
            "injected_faults": len(self.injected),
        }

    def summary(self):
        text = (
            "time=%.3fms instrs=%d crossings=%d traps=%d violations=%d "
            "(unique ARs %d) missed_ars=%d"
            % (
                self.time_ns / 1e6,
                self.result.instr_count,
                self.stats.crossings(),
                self.stats.traps,
                len(self.violations),
                len(self.violated_ars()),
                self.stats.missed_ars,
            )
        )
        if self.degradations:
            text += " degradations=%d (%s)" % (
                len(self.degradations),
                ",".join(sorted(self.degradations.kinds())))
        if self.injected:
            text += " injected_faults=%d" % len(self.injected)
        if self.stats.trace_dropped_events:
            text += (" trace_dropped=%d (ring buffer full)"
                     % self.stats.trace_dropped_events)
        if self.stats.slots_leaked or self.stats.slots_reclaimed:
            text += " slots_leaked=%d slots_reclaimed=%d" % (
                self.stats.slots_leaked, self.stats.slots_reclaimed)
        if self.stats.slots_leaked_at_exit:
            text += " slots_leaked_at_exit=%d" % (
                self.stats.slots_leaked_at_exit)
        if self.stats.arbiter_preemptions or self.stats.arbiter_denials:
            text += " arbiter=%d/%d (preempt/deny)" % (
                self.stats.arbiter_preemptions, self.stats.arbiter_denials)
        if self.stats.quarantined_ars:
            text += " quarantined_ars=%d (released %d)" % (
                self.stats.quarantined_ars, self.stats.quarantine_releases)
        if self.stats.admission_sheds:
            text += " admission_sheds=%d" % self.stats.admission_sheds
        if self.stats.degradations_dropped:
            text += (" degradations_dropped=%d (log full)"
                     % self.stats.degradations_dropped)
        return text
