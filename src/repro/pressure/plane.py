"""The per-run pressure plane: arbiter + quarantine + backpressure.

One PressurePlane instance lives for one protected run (like the
circuit breaker), shared by the user library and the kernel. It holds
only deterministic state — violation counts, quarantine sampling
counters, a bounded decision history — so two runs of the same
(program, config, seed) make identical pressure decisions, which is
what lets `kivati replay` reproduce them frame-for-frame.
"""

from repro.pressure.arbiter import SlotArbiter
from repro.pressure.policy import PressurePolicy
from repro.pressure.quarantine import QuarantineManager


class PressurePlane:
    """Overload control state for one protected run."""

    __slots__ = ("policy", "arbiter", "quarantine", "history",
                 "history_dropped")

    def __init__(self, policy=None):
        self.policy = policy if policy is not None else PressurePolicy()
        self.arbiter = SlotArbiter()
        self.quarantine = QuarantineManager(self.policy)
        #: bounded decision history (same discipline as a bounded
        #: journal recorder: drop-on-full, count what was dropped) so
        #: long soaks cannot grow memory without bound
        self.history = []
        self.history_dropped = 0

    # ------------------------------------------------------------------
    # bounded history
    # ------------------------------------------------------------------

    def note(self, time_ns, component, action, **detail):
        if len(self.history) >= self.policy.max_history:
            self.history_dropped += 1
            return
        self.history.append((time_ns, component, action,
                             tuple(sorted(detail.items()))))

    # ------------------------------------------------------------------
    # arbiter facade
    # ------------------------------------------------------------------

    def note_violation(self, ar_id):
        self.arbiter.note_violation(ar_id)

    def priority(self, ar_id):
        return self.arbiter.priority(ar_id)

    def choose_victim(self, slots):
        return self.arbiter.choose_victim(slots)

    # ------------------------------------------------------------------
    # quarantine facade
    # ------------------------------------------------------------------

    def is_quarantined(self, ar_id):
        return self.policy.quarantine and self.quarantine.is_quarantined(
            ar_id)

    def admit_quarantined(self, ar_id):
        return self.quarantine.admit(ar_id)

    def note_pressure(self, ar_id, now):
        if not self.policy.quarantine:
            return None
        action = self.quarantine.note_pressure(ar_id, now)
        if action is not None:
            self.note(now, "quarantine", action[0], ar=ar_id, n=action[1])
        return action

    def note_clean_end(self, ar_id, now):
        if not self.policy.quarantine:
            return None
        action = self.quarantine.note_clean_end(ar_id, now)
        if action is not None:
            self.note(now, "quarantine", action[0], ar=ar_id, n=action[1])
        return action

    # ------------------------------------------------------------------
    # backpressure: admission control + adaptive suspension timeout
    # ------------------------------------------------------------------

    def shed_reason(self, suspended_count, latency_ema_ns):
        """Non-None when begin_atomic admission control should shed this
        entry's monitoring: the returned string names the watermark that
        tripped."""
        if not self.policy.admission:
            return None
        if suspended_count >= self.policy.suspended_watermark:
            return "suspended-watermark"
        if latency_ema_ns >= self.policy.latency_watermark_ns:
            return "latency-watermark"
        return None

    def timeout_multiplier(self, latency_ema_ns):
        """Integer multiplier for the suspension timeout: 1 at nominal
        scheduler latency, growing linearly with the measured EMA up to
        ``timeout_max_scale``."""
        if not self.policy.adaptive_timeout:
            return 1
        scale = latency_ema_ns // self.policy.latency_ref_ns
        if scale < 1:
            return 1
        return min(int(scale) + 1, self.policy.timeout_max_scale)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    @property
    def quarantine_converged(self):
        return self.quarantine.converged

    def describe(self):
        active = self.quarantine.active()
        released = [e for e in self.quarantine.entries.values()
                    if e.released]
        return ("pressure: %d quarantined (%d released), converged=%s, "
                "history=%d (+%d dropped)"
                % (len(active), len(released), self.quarantine_converged,
                   len(self.history), self.history_dropped))
