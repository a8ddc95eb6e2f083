"""Canonical journal event model.

An event is the unit of everything downstream: one frame on disk, one
comparison step in the replay divergence detector, one fact for the
recovery and offline-checker planes. Payloads are restricted to JSON-safe
values and encoded canonically (sorted keys, no whitespace) so that two
identical runs produce byte-identical frames regardless of
PYTHONHASHSEED or dict construction order.

Event kinds, by emitting layer:

- machine:  ``sched`` (a thread placed on a core)
- session:  ``run-start`` (config snapshot + source hash), ``run-end``
- runtime:  ``pause``
- kernel:   ``begin``, ``end``, ``miss``, ``arm``, ``disarm``,
            ``trigger``, ``zombify``, ``clear``, ``suspend``, ``wake``,
            ``timeout``, ``watchdog``, ``undo``, ``degrade``, ``resync``,
            ``violation``
- ``trap`` is a valid kind that nothing journals: a watchpoint trap is
  recorded as the kernel's ``trigger`` frame (pc, location, slot, gen,
  access kinds), which is what replay and the checker consume
- pressure: ``arbiter`` (slot preemption/denial), ``quarantine``
            (enter/increase/decrease/release plus per-entry
            monitor/skip sampling decisions), ``pressure``
            (admission shed, slot-leak reclaim)
"""

import enum
import json

from repro.errors import JournalError

#: Every kind a well-formed journal may contain.
EVENT_KINDS = frozenset((
    "run-start", "run-end", "sched",
    "begin", "end", "trap", "pause", "miss",
    "arm", "disarm", "trigger", "zombify", "clear",
    "suspend", "wake", "timeout", "watchdog", "undo",
    "degrade", "resync", "violation",
    "arbiter", "quarantine", "pressure",
))


def jsonable(value):
    """Coerce a payload value to a canonical JSON-safe form.

    Enums become their ``str()`` (AccessKind -> "R"/"W"), tuples and sets
    become lists (sets sorted for determinism), dicts are rebuilt with
    string keys. Anything else must already be a JSON scalar.
    """
    if isinstance(value, enum.Enum):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(v) for v in value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise JournalError("payload value %r is not journal-serializable"
                       % (value,))


class JournalEvent:
    """One journaled fact: (seq, time_ns, tid, kind, payload)."""

    __slots__ = ("seq", "time_ns", "tid", "kind", "payload")

    def __init__(self, seq, time_ns, tid, kind, payload):
        self.seq = seq
        self.time_ns = time_ns
        self.tid = tid
        self.kind = kind
        self.payload = payload

    def key(self):
        """Canonical comparison identity (what replay must reproduce)."""
        return (self.seq, self.time_ns, self.tid, self.kind,
                json.dumps(self.payload, sort_keys=True))

    def describe(self):
        detail = " ".join("%s=%s" % (k, v)
                          for k, v in sorted(self.payload.items()))
        return "#%-6d %10.3fus tid%-3s %-10s %s" % (
            self.seq, self.time_ns / 1e3,
            self.tid if self.tid >= 0 else "-", self.kind, detail)

    def __eq__(self, other):
        return isinstance(other, JournalEvent) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "JournalEvent(#%d, %s, t=%dns, tid=%d)" % (
            self.seq, self.kind, self.time_ns, self.tid)


def encode_event(event):
    """Canonical frame payload bytes for one event."""
    record = [event.seq, event.time_ns, event.tid, event.kind, event.payload]
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def decode_event(data):
    """Inverse of :func:`encode_event`; raises JournalError on any
    malformed payload (the reader treats that as a corrupt frame)."""
    try:
        record = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise JournalError("undecodable frame payload: %s" % exc)
    if (not isinstance(record, list) or len(record) != 5
            or not isinstance(record[3], str)
            or not isinstance(record[4], dict)):
        raise JournalError("malformed frame record: %r" % (record,))
    seq, time_ns, tid, kind, payload = record
    if not isinstance(seq, int) or not isinstance(tid, int):
        raise JournalError("malformed frame record: %r" % (record,))
    return JournalEvent(seq, time_ns, tid, kind, payload)
