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
import json.encoder
import json.scanner

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


# -- the codec ----------------------------------------------------------------
#
# ``json.dumps(sort_keys=True, separators=(",", ":"))`` builds a fresh
# encoder on every call, and ``json.loads`` re-enters the decoder's
# Python wrapper; a journal pays both once per frame.  The C encoder and
# scanner are bound here once, with the arguments ``JSONEncoder`` and
# ``json.loads`` pass them, so the bytes on disk and the set of accepted
# payloads are unchanged.  Without the ``_json`` accelerator the same
# module-level JSONEncoder and ``json.loads`` do the work in pure Python.
#
# One argument differs from ``json.dumps``: circular-reference checking
# is off.  ``dumps`` passes a fresh markers dict per call; a bound
# encoder would share one dict across calls and threads, and an encode
# that raises leaves its entries behind.  A circular payload still
# fails (RecursionError instead of ValueError), and every other payload
# encodes to the same bytes.

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            check_circular=False)

if json.encoder.c_make_encoder is not None:
    _C_ENCODE = json.encoder.c_make_encoder(
        None, _ENCODER.default, json.encoder.encode_basestring_ascii,
        _ENCODER.indent, _ENCODER.key_separator, _ENCODER.item_separator,
        _ENCODER.sort_keys, _ENCODER.skipkeys, _ENCODER.allow_nan)

    def canonical_json(value):
        """``json.dumps(value, sort_keys=True, separators=(",", ":"))``."""
        return "".join(_C_ENCODE(value, 0))
else:
    canonical_json = _ENCODER.encode

_SCAN = (json.scanner.c_make_scanner(json.JSONDecoder())
         if json.scanner.c_make_scanner is not None else None)

_SCALAR_TYPES = frozenset((int, str, bool, type(None)))


def jsonable(value):
    """Coerce a payload value to a canonical JSON-safe form.

    Enums become their ``str()`` (AccessKind -> "R"/"W"), tuples and sets
    become lists (sets sorted for determinism), dicts are rebuilt with
    string keys. Anything else must already be a JSON scalar.
    """
    if type(value) in _SCALAR_TYPES:
        return value
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
                canonical_json(self.payload))

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
    return canonical_json([event.seq, event.time_ns, event.tid, event.kind,
                           event.payload]).encode("utf-8")


def decode_event(data):
    """Inverse of :func:`encode_event`; raises JournalError on any
    malformed payload (the reader treats that as a corrupt frame).

    Accepts and rejects exactly what ``json.loads(data.decode("utf-8"))``
    does: the bound scanner's result is kept only when it consumed the
    whole text; anything else (surrounding whitespace, trailing data, a
    BOM, a syntax error) is handed to ``json.loads``.
    """
    try:
        text = data.decode("utf-8")
        end = -1
        if _SCAN is not None:
            try:
                record, end = _SCAN(text, 0)
            except (StopIteration, ValueError):
                pass
        if end != len(text):
            record = json.loads(text)
    except (ValueError, UnicodeDecodeError) as exc:
        raise JournalError("undecodable frame payload: %s" % exc)
    if isinstance(record, list) and len(record) == 5:
        seq, time_ns, tid, kind, payload = record
        if (isinstance(seq, int) and isinstance(tid, int)
                and isinstance(kind, str) and isinstance(payload, dict)):
            return JournalEvent(seq, time_ns, tid, kind, payload)
    raise JournalError("malformed frame record: %r" % (record,))
