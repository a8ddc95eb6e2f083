"""Sound-and-complete streaming offline serializability checker.

The repo's one offline verdict evaluator and its one fold of a journal
into kernel state.  ``replay`` re-executes the whole program; this
checker consumes a journal *frame by frame* — straight off a (possibly
damaged) disk file via :mod:`repro.journal.stream` — and re-derives
every serializability verdict in one pass with memory proportional to
the number of *live* regions, not to the length of the trace.

**The region model.**  Each atomic-region window is a region in the
RegionTrack sense (arXiv:2008.04479): it opens at its ``begin`` frame,
closes at its ``end`` frame, and conflicts with the remote accesses the
kernel journaled as ``trigger`` frames against the same watchpoint
(slot, arming-generation) epoch.  The journal is a sequentially
consistent total order (every frame carries a sequence number and a
virtual time), so the region graph's happens-before edges degenerate to
interval membership: a remote access falls inside a window exactly when
its virtual time is at or after the window's begin — the same predicate
the online kernel evaluates at ``end_atomic``.  A closed window's
verdicts follow Figure 2: the (first, remote, second) access-kind triple
must form one of the four non-serializable interleavings.  On an intact
journal this is *sound* (every reported verdict is witnessed by a
journaled remote access inside a journaled window) and *complete* (every
witnessed non-serializable triple is reported) — pinned against
brute-force enumeration over random traces by the property suite.

**Streaming garbage collection** (the Fast Atomicity Monitoring recipe,
arXiv:2604.11369): triggers are retained per (slot, gen) *epoch*; an
epoch's trigger list is dropped as soon as the epoch is retired (its
slot was disarmed or re-armed at a higher generation) and no live or
zombie region still references it.  Lazily-freed slots (O2) keep their
epoch armed — a later window may still join the same generation — but
the bound stays O(hardware slots + pending zombies), a constant for any
machine, so million-event journals check in near-linear time and
constant space (peaks are recorded in :class:`CheckerStats` and gated
by the checker benchmark).

**Corruption tolerance.**  Damage never raises: torn tails, mid-file
CRC failures and sequence gaps yield *partial* verdicts with an explicit
``coverage`` fraction — ``decoded / (decoded + known_missing)`` where
``known_missing`` counts interior gap slots, any pruned rotation head,
and one unknown tail frame when the journal never closed cleanly.  The
checker only *claims* agreement with the online detector when the
journal is complete; on damaged journals it reports what it could prove
and exactly how much of the record that covers.

**Well-formedness.**  The same pass decides what a well-formed journal
is, for ``kivati check``, ``kivati journal`` and crash recovery alike
(:mod:`repro.journal.recovery` salvages through it).  An end without a
begin, a zombie end without a zombify, a zombify without a begin, a
disarm of a slot not armed at that generation, a wake of a thread never
suspended and — after a ``run-start`` header — a begin or trigger on an
epoch no ``arm`` opened are anomalies on an intact journal and
unverified casualties after a gap or a pruned head.  The result also
carries the state the journal leaves behind (run-start config, armed
slots, open windows, zombies, suspended threads) and
:attr:`CheckResult.consistent`: no anomaly and no sequence gap.
"""

from repro.analysis.watchtype import is_unserializable
from repro.journal.replay import events_from, violation_verdict
from repro.journal.stream import EventStream
from repro.minic.ast import AccessKind


def _kind(text):
    return AccessKind(text) if isinstance(text, str) else text


#: events that only move the run header or the suspended set
_STATE_KINDS = frozenset(("run-start", "suspend", "wake", "timeout",
                          "watchdog"))


class CheckerStats:
    """Work and memory accounting for one streaming pass."""

    FIELDS = ("events", "windows_opened", "windows_closed",
              "triggers_seen", "epochs_opened", "epochs_gcd",
              "live_regions_peak", "live_epochs_peak",
              "retained_triggers_peak")

    __slots__ = FIELDS

    def __init__(self):
        for name in self.FIELDS:
            setattr(self, name, 0)

    def as_dict(self):
        return {name: getattr(self, name) for name in self.FIELDS}


class _Region:
    __slots__ = ("tid", "ar", "slot", "gen", "first", "begin_time",
                 "begin_seq")

    def __init__(self, tid, ar, slot, gen, first, begin_time, begin_seq):
        self.tid = tid
        self.ar = ar
        self.slot = slot
        self.gen = gen
        self.first = first
        self.begin_time = begin_time
        self.begin_seq = begin_seq


class _Epoch:
    """One (slot, arming-generation): the triggers recorded against it
    plus the number of live/zombie regions still attached."""

    __slots__ = ("triggers", "refs", "armed", "addr")

    def __init__(self):
        self.triggers = []      # (tid, kinds, time_ns, undone)
        self.refs = 0
        self.armed = True
        self.addr = None        # the arming address, from its arm frame


class CheckResult:
    """Everything one streaming pass could prove, how much of the
    journal that covers, and the kernel state the journal leaves behind
    (what crash recovery salvages)."""

    __slots__ = ("verdicts", "online", "coverage", "complete",
                 "clean_close", "events_checked", "missing_events",
                 "gaps", "corruptions", "windows_checked", "windows_open",
                 "windows_unverified", "anomalies", "stats", "header",
                 "armed", "windows", "zombies", "suspended")

    def __init__(self, verdicts, online, coverage, complete, clean_close,
                 events_checked, missing_events, gaps, corruptions,
                 windows_checked, windows_open, windows_unverified,
                 anomalies, stats, header, armed, windows, zombies,
                 suspended):
        self.verdicts = verdicts        # sorted offline verdict multiset
        self.online = online            # sorted journaled verdict multiset
        self.coverage = coverage
        #: True only for an intact journal: run-end seen, no gaps, no
        #: corruption — the precondition for *claiming* agreement
        self.complete = complete
        self.clean_close = clean_close
        self.events_checked = events_checked
        self.missing_events = missing_events
        self.gaps = gaps                # [(first missing seq, last), ...]
        self.corruptions = corruptions  # Corruption.as_dict() list
        self.windows_checked = windows_checked
        #: regions still open when the stream ended (lost tail)
        self.windows_open = windows_open
        #: regions whose evidence was damaged (end without begin, etc.)
        self.windows_unverified = windows_unverified
        self.anomalies = anomalies
        self.stats = stats
        #: the run-start config snapshot, None if no header was read
        self.header = header
        self.armed = armed              # slot -> (gen, addr)
        self.windows = windows          # open (tid, ar) windows
        self.zombies = zombies          # zombie (tid, ar) windows
        self.suspended = suspended      # tids suspended at stream end

    @property
    def problems(self):
        """Why the journal is not internally consistent: every anomaly,
        then every sequence gap (frames lost, not just torn off the
        tail)."""
        return self.anomalies + ["sequence gap: seq %d..%d missing" % gap
                                 for gap in self.gaps]

    @property
    def consistent(self):
        return not self.anomalies and not self.gaps

    @property
    def disagreements(self):
        """Verdicts present in exactly one of checker/online (multiset)."""
        online = list(self.online)
        missing = []
        for verdict in self.verdicts:
            if verdict in online:
                online.remove(verdict)
            else:
                missing.append(verdict)
        return missing + online

    @property
    def agrees(self):
        """The strong claim: intact journal, identical verdict multisets,
        nothing anomalous."""
        return (self.complete and not self.disagreements
                and not self.anomalies)

    @property
    def status(self):
        if self.events_checked == 0:
            return "no-data"
        if not self.complete:
            return "partial"
        if self.disagreements or self.anomalies:
            return "disagree"
        return "pass"

    def as_payload(self):
        return {
            "status": self.status,
            "verdicts": [list(v) for v in self.verdicts],
            "online": [list(v) for v in self.online],
            "disagreements": len(self.disagreements),
            "coverage": round(self.coverage, 6),
            "complete": self.complete,
            "clean_close": self.clean_close,
            "events_checked": self.events_checked,
            "missing_events": self.missing_events,
            "gaps": [list(g) for g in self.gaps],
            "corruptions": self.corruptions,
            "windows_checked": self.windows_checked,
            "windows_open": self.windows_open,
            "windows_unverified": self.windows_unverified,
            "anomalies": list(self.anomalies),
            "stats": self.stats.as_dict(),
        }

    def describe(self):
        lines = ["checker: %s — %d events, %d windows checked, "
                 "%d verdicts (online %d), coverage %.4f"
                 % (self.status.upper(), self.events_checked,
                    self.windows_checked, len(self.verdicts),
                    len(self.online), self.coverage)]
        if self.missing_events or self.corruptions:
            torn = sum(1 for c in self.corruptions
                       if c["reason"] == "torn-tail")
            lines.append("  %d event(s) missing in %d gap(s); "
                         "%d corruption record(s)%s"
                         % (self.missing_events, len(self.gaps),
                            len(self.corruptions),
                            " (%d torn tail)" % torn if torn else ""))
        lines.append("  reconstructed state: %d armed slot(s), %d open "
                     "window(s), %d zombie(s), %d suspended thread(s), "
                     "%d unverifiable window(s)%s"
                     % (len(self.armed), len(self.windows),
                        len(self.zombies), len(self.suspended),
                        self.windows_unverified,
                        "" if self.clean_close else " (truncated run)"))
        for verdict in self.disagreements:
            side = ("checker-only" if verdict in self.verdicts
                    else "online-only")
            lines.append("  disagreement [%s]: ar=%s local=%s remote=%s "
                         "(%s,%s,%s) prevented=%s"
                         % ((side,) + tuple(verdict)))
        lines.extend("  anomaly: %s" % text for text in self.anomalies)
        lines.append("  memory: peak %d live region(s), %d epoch(s), "
                     "%d retained trigger(s)"
                     % (self.stats.live_regions_peak,
                        self.stats.live_epochs_peak,
                        self.stats.retained_triggers_peak))
        return "\n".join(lines)


class StreamingChecker:
    """Feed events in journal order; call :meth:`finish` once."""

    def __init__(self):
        self.stats = CheckerStats()
        self._regions = {}    # (tid, ar) -> _Region
        self._zombies = {}    # (tid, ar) -> _Region
        self._epochs = {}     # (slot, gen) -> _Epoch
        self._slot_gen = {}   # slot -> highest gen seen armed
        self._suspended = set()
        self._run_start = None  # the run-start payload
        self._verdicts = []
        self._online = []
        self._anomalies = []
        self._gaps = []
        self._missing = 0
        self._first_seq = None
        self._last_seq = None
        self._last = None       # the last event fed
        self._events = 0
        self._unverified = 0
        self._retained_triggers = 0

    # -- bookkeeping ----------------------------------------------------

    def _note_peaks(self):
        """Raise the memory peaks to the current state.  Only ``begin``,
        ``trigger`` and ``arm`` grow a region, an epoch or a retained
        trigger, so only they call this; every other event can only
        shrink the three counts."""
        live = len(self._regions) + len(self._zombies)
        if live > self.stats.live_regions_peak:
            self.stats.live_regions_peak = live
        if len(self._epochs) > self.stats.live_epochs_peak:
            self.stats.live_epochs_peak = len(self._epochs)
        if self._retained_triggers > self.stats.retained_triggers_peak:
            self.stats.retained_triggers_peak = self._retained_triggers

    def _epoch(self, slot, gen):
        epoch = self._epochs.get((slot, gen))
        if epoch is None:
            epoch = _Epoch()
            self._epochs[(slot, gen)] = epoch
            self.stats.epochs_opened += 1
            seen = self._slot_gen.get(slot)
            if seen is None or (gen is not None
                                and (seen is None or gen > seen)):
                self._slot_gen[slot] = gen
            elif gen is not None and seen is not None and gen < seen:
                # an epoch surfacing after its slot moved on (gap
                # reordering) is already retired
                epoch.armed = False
            event = self._last
            if event.kind == "arm":
                epoch.addr = event.payload.get("addr")
            elif self._run_start is not None:
                # a framed run arms every epoch before using it; only a
                # bare fragment may join one armed before it starts
                self._note_damage("%s on unarmed slot %s gen %s"
                                  % (event.kind, slot, gen))
        return epoch

    def _armed_gen(self, slot):
        """The generation ``slot`` is armed at, or None."""
        gen = self._slot_gen.get(slot)
        epoch = self._epochs.get((slot, gen))
        return gen if epoch is not None and epoch.armed else None

    def _maybe_gc(self, slot, gen):
        epoch = self._epochs.get((slot, gen))
        if epoch is not None and epoch.refs <= 0 and not epoch.armed:
            self._retained_triggers -= len(epoch.triggers)
            del self._epochs[(slot, gen)]
            self.stats.epochs_gcd += 1

    def _retire_epoch(self, slot, gen):
        epoch = self._epochs.get((slot, gen))
        if epoch is not None:
            epoch.armed = False
            self._maybe_gc(slot, gen)

    def _detach(self, region):
        epoch = self._epochs.get((region.slot, region.gen))
        if epoch is not None:
            epoch.refs -= 1
            self._maybe_gc(region.slot, region.gen)

    # -- evaluation -----------------------------------------------------

    def _evaluate(self, region, second, force_unprevented):
        """Mirror of the kernel's end_atomic serializability evaluation."""
        epoch = self._epochs.get((region.slot, region.gen))
        triggers = epoch.triggers if epoch is not None else ()
        first = _kind(region.first)
        second = _kind(second)
        for tid, kinds, time_ns, undone in triggers:
            if tid == region.tid or time_ns < region.begin_time:
                continue
            for kind_text in kinds:
                if is_unserializable(first, _kind(kind_text), second):
                    self._verdicts.append(
                        (region.ar, region.tid, tid, str(first),
                         str(_kind(kind_text)), str(second),
                         bool(undone) and not force_unprevented))
                    break
        self.stats.windows_closed += 1

    # -- the stream -----------------------------------------------------

    def feed(self, event):
        seq = event.seq
        if self._first_seq is None:
            self._first_seq = seq
        if self._last_seq is not None and seq > self._last_seq + 1:
            self._gaps.append((self._last_seq + 1, seq - 1))
            self._missing += seq - self._last_seq - 1
        self._last_seq = seq
        self._last = event
        self._events += 1
        kind, p, tid = event.kind, event.payload, event.tid

        if kind == "begin":
            key = (tid, p["ar"])
            stale = self._regions.pop(key, None)
            if stale is not None:
                # its end fell in a gap, or the recorder restarted the
                # window; either way the stale window can never be
                # evaluated
                self._detach(stale)
                if self._frames_lost():
                    self._unverified += 1
            region = _Region(tid, p["ar"], p.get("slot"), p.get("gen"),
                             p.get("first"), event.time_ns, seq)
            epoch = self._epoch(region.slot, region.gen)
            epoch.refs += 1
            self._regions[key] = region
            self.stats.windows_opened += 1
            self._note_peaks()
        elif kind == "trigger":
            epoch = self._epoch(p.get("slot"), p.get("gen"))
            epoch.triggers.append((tid, tuple(p.get("kinds", ())),
                                   event.time_ns, bool(p.get("undone"))))
            self._retained_triggers += 1
            self.stats.triggers_seen += 1
            self._note_peaks()
        elif kind == "arm":
            slot, gen = p.get("slot"), p.get("gen")
            prev = self._slot_gen.get(slot)
            if prev is not None and gen is not None and gen > prev:
                self._retire_epoch(slot, prev)
            self._epoch(slot, gen)
            self._note_peaks()
        elif kind == "disarm":
            slot, gen = p.get("slot"), p.get("gen")
            armed = self._armed_gen(slot)
            if armed is None:
                self._note_damage("disarm of slot %s never armed" % slot)
            elif armed != gen:
                self._note_damage("disarm gen %s != armed gen %s"
                                  % (gen, armed))
            self._retire_epoch(slot, gen)
        elif kind == "zombify":
            key = (tid, p["ar"])
            region = self._regions.pop(key, None)
            if region is None:
                self._note_damage("zombify of AR %d (tid %d) without begin"
                                  % (p["ar"], tid))
            else:
                self._zombies[key] = region
        elif kind == "clear":
            region = self._regions.pop((tid, p["ar"]), None)
            if region is not None:
                self._detach(region)
                self.stats.windows_closed += 1
        elif kind == "end":
            key = (tid, p["ar"])
            source = self._zombies if p.get("zombie") else self._regions
            region = source.pop(key, None)
            if region is None:
                self._note_damage("%send of AR %d (tid %d) %s"
                                  % ("zombie " if p.get("zombie") else "",
                                     p["ar"], tid,
                                     "without zombify" if p.get("zombie")
                                     else "never begun"))
            else:
                self._evaluate(region, p.get("second"),
                               bool(p.get("zombie")))
                self._detach(region)
        elif kind == "violation":
            self._online.append(violation_verdict(event))
        elif kind in _STATE_KINDS:
            if kind == "run-start":
                self._run_start = p
            elif kind == "suspend":
                self._suspended.add(tid)
            else:
                if kind == "wake" and tid not in self._suspended:
                    self._note_damage("wake of tid %d never suspended" % tid)
                self._suspended.discard(tid)

    def _frames_lost(self):
        """Whether frames before this point are known lost: a sequence
        gap, or a head that rotation pruned (a first seq above 0 and no
        ``run-start``)."""
        return bool(self._missing
                    or (self._first_seq and self._run_start is None))

    def _note_damage(self, text):
        """A structural impossibility: an anomaly on an intact journal, an
        expected casualty (counted, not alarmed) on a damaged one."""
        if self._frames_lost():
            self._unverified += 1
        else:
            event = self._last
            self._anomalies.append("event %d (%s at t=%dns): %s"
                                   % (event.seq, event.kind, event.time_ns,
                                      text))

    def finish(self, corruptions=(), damaged=False):
        """Close the pass; returns the :class:`CheckResult`.

        ``corruptions`` are :class:`repro.journal.stream.Corruption`
        records (or their dicts) from the disk reader; ``damaged`` marks
        journals whose reader reported damage even if no frame was lost
        between surviving sequence numbers.
        """
        corruption_dicts = [c.as_dict() if hasattr(c, "as_dict") else dict(c)
                            for c in corruptions]
        clean_close = self._last is not None and self._last.kind == "run-end"
        head_missing = self._first_seq or 0
        known_missing = self._missing + head_missing
        if not clean_close:
            known_missing += 1  # the tail is at least one frame short
        decoded = self._events
        self.stats.events = decoded
        coverage = (decoded / float(decoded + known_missing)
                    if decoded else 0.0)
        complete = (clean_close and not self._missing and not head_missing
                    and not corruption_dicts and not damaged)
        # Leftover windows are counted, never alarmed: a damaged journal
        # loses ends with its tail, and even an intact one legitimately
        # strands a zombie when a prevented violation rolls the thread
        # back to the region start (the re-executed begin opens a fresh
        # window; the zombified one never sees its end_atomic).
        windows_open = len(self._regions) + len(self._zombies)
        return CheckResult(
            verdicts=sorted(self._verdicts),
            online=sorted(self._online),
            coverage=coverage,
            complete=complete,
            clean_close=clean_close,
            events_checked=decoded,
            missing_events=self._missing + head_missing,
            gaps=list(self._gaps),
            corruptions=corruption_dicts,
            windows_checked=self.stats.windows_closed,
            windows_open=windows_open,
            windows_unverified=self._unverified,
            anomalies=list(self._anomalies),
            stats=self.stats,
            header=(self._run_start.get("config")
                    if self._run_start is not None else None),
            armed={slot: (gen, self._epochs[(slot, gen)].addr)
                   for slot, gen in self._slot_gen.items()
                   if self._armed_gen(slot) is not None},
            windows=sorted(self._regions),
            zombies=sorted(self._zombies),
            suspended=set(self._suspended),
        )


def check_events(events, corruptions=(), damaged=False):
    """Check an in-memory event iterable (recorder, replayed list)."""
    checker = StreamingChecker()
    for event in events:
        checker.feed(event)
    return checker.finish(corruptions=corruptions, damaged=damaged)


def check_journal(journal):
    """Check a journal without re-execution.

    ``journal`` is a path (streamed frame-by-frame from disk through the
    resynchronizing reader — damage yields partial verdicts, never an
    exception), or a JournalRecorder / JournalReadResult / event list.
    """
    if isinstance(journal, str):
        stream = EventStream(journal)
        checker = StreamingChecker()
        for event in stream:
            checker.feed(event)
        return checker.finish(corruptions=stream.corruptions,
                              damaged=stream.damaged)
    events, torn = events_from(journal)
    return check_events(events, damaged=torn)


__all__ = ["CheckResult", "CheckerStats", "StreamingChecker",
           "check_events", "check_journal"]
