"""Run-time statistics needed by the paper's tables."""


class KivatiStats:
    """Counters accumulated over one protected run.

    Domain crossings (Table 4) are ``begin_syscalls + end_syscalls +
    clear_syscalls + traps``; the paper notes the system calls account for
    over 99.9% of entries.
    """

    FIELDS = (
        # annotation executions (user-space entry points)
        "begin_calls",
        "end_calls",
        "clear_calls",
        "shadow_stores",
        # kernel crossings
        "begin_syscalls",
        "end_syscalls",
        "clear_syscalls",
        # watchpoint activity
        "traps",
        "local_traps",
        "remote_traps",
        "stale_traps",
        # monitoring outcomes
        "monitored_ars",
        "missed_ars",
        "whitelist_hits",
        "static_prune_hits",
        "watchpoint_arms",
        # optimization activity
        "lazy_frees",
        "lazy_reconciles",
        # prevention activity
        "suspensions",
        "suspend_timeouts",
        "undos",
        "unable_to_reorder",
        "containments",
        "unresolved_pcs",
        # detection
        "violations",
        "unprevented_violations",
        # bug-finding mode
        "pauses",
        # graceful degradation (fail-open plane)
        "degradations",
        "breaker_trips",
        "breaker_skips",
        "watchdog_breaks",
        "replica_resyncs",
        "whitelist_read_errors",
        "whitelist_malformed_lines",
        "duplicate_traps_ignored",
        "undo_faults_injected",
        # observability of the observers: events a bounded in-memory
        # journal recorder dropped, and journal frames produced (0 when
        # no recorder is attached)
        "trace_dropped_events",
        "journal_frames",
        # overload control plane (repro.pressure)
        "slots_leaked",
        "slots_reclaimed",
        "slots_leaked_at_exit",
        "arbiter_preemptions",
        "arbiter_denials",
        "quarantined_ars",
        "quarantine_monitored",
        "quarantine_sampled_skips",
        "quarantine_releases",
        "quarantine_adaptations",
        "admission_sheds",
        "timeout_extensions",
        # bounded-log evictions (satellite of the pressure plane: long
        # soaks must not grow memory without bound, and must say when
        # they dropped records)
        "degradations_dropped",
        "quarantine_history_dropped",
        # conflict-aware scheduling (repro.machine.conflictsched): times
        # the policy picked a non-FIFO thread, times it deferred a
        # conflicting head, and times a deferral cap forced FIFO order
        "conflict_sched_decisions",
        "conflict_defers",
        "conflict_forced_fifo",
        # stall episodes judged failed (ended in forced FIFO, or
        # suspensions+undos rose while the core idled); each failure
        # shrinks the policy's adaptive stall budget by one
        "conflict_stall_failures",
    )

    __slots__ = FIELDS

    def __init__(self):
        for name in self.FIELDS:
            setattr(self, name, 0)

    def crossings(self):
        """Total kernel domain crossings attributable to Kivati."""
        return (self.begin_syscalls + self.end_syscalls
                + self.clear_syscalls + self.traps)

    def total_ars_executed(self):
        """ARs whose begin_atomic reached the monitoring decision
        (monitored + missed); Table 8's denominator."""
        return self.monitored_ars + self.missed_ars

    def missed_fraction(self):
        total = self.total_ars_executed()
        if total == 0:
            return 0.0
        return self.missed_ars / total

    def as_dict(self):
        return {name: getattr(self, name) for name in self.FIELDS}

    @classmethod
    def from_dict(cls, data):
        """Rebuild a stats object from :meth:`as_dict` output.

        Unknown keys raise — a worker built from newer code must not
        silently drop counters the aggregating supervisor does not know
        about.  Missing keys default to 0 so older payloads still load.
        """
        unknown = set(data) - set(cls.FIELDS)
        if unknown:
            raise ValueError("unknown stats fields: %s"
                             % ", ".join(sorted(unknown)))
        stats = cls()
        for name, value in data.items():
            setattr(stats, name, value)
        return stats

    def merge(self, other):
        """Accumulate ``other`` (a KivatiStats or an ``as_dict`` dict)
        into this object, field by field over ``FIELDS`` so a newly
        added counter can never silently skip aggregation.  Returns
        ``self`` for chaining."""
        if isinstance(other, dict):
            other = type(self).from_dict(other)
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def __eq__(self, other):
        if not isinstance(other, KivatiStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self):
        return "KivatiStats(crossings=%d, traps=%d, violations=%d)" % (
            self.crossings(), self.traps, self.violations)
