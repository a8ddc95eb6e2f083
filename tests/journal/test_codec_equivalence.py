"""The journal codec accepts, rejects and returns exactly what the plain
``json`` calls do.

``decode_event`` scans with a bound C scanner and falls back to
``json.loads`` whenever the scan does not consume the whole text;
``encode_event`` uses a bound C encoder.  The references below are the
plain calls: ``json.loads(data.decode("utf-8"))`` followed by the
record checks, and ``json.dumps(sort_keys=True, separators=(",", ":"))``.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import JournalError
from repro.journal.events import (JournalEvent, canonical_json, decode_event,
                                  encode_event)


def reference_decode(data):
    """The decoder built on ``json.loads``; None means rejected."""
    try:
        record = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if (not isinstance(record, list) or len(record) != 5
            or not isinstance(record[3], str)
            or not isinstance(record[4], dict)):
        return None
    seq, time_ns, tid, kind, payload = record
    if not isinstance(seq, int) or not isinstance(tid, int):
        return None
    return JournalEvent(seq, time_ns, tid, kind, payload)


def fields(event):
    # repr keeps types apart (True vs 1, 1.0 vs 1) and shows NaN, which
    # never compares equal to itself
    return repr((event.seq, event.time_ns, event.tid, event.kind,
                 event.payload))


def assert_same_as_reference(data):
    want = reference_decode(data)
    try:
        got = decode_event(data)
    except JournalError:
        got = None
    if want is None:
        assert got is None, "accepted %r, json.loads rejects it" % (data,)
    else:
        assert got is not None, "rejected %r, json.loads accepts it" % (data,)
        assert got == want
        assert fields(got) == fields(want)


GOOD = b'[3,40,1,"sched",{"core":0,"pc":7}]'

EDGE_PAYLOADS = {
    "plain": GOOD,
    "leading-space": b" " + GOOD,
    "leading-newline": b"\n\t" + GOOD,
    "trailing-space": GOOD + b" ",
    "trailing-newline": GOOD + b"\r\n",
    "both-sides": b"  " + GOOD + b"\n",
    "trailing-data": GOOD + b"x",
    "two-records": GOOD + GOOD,
    "bom": "\ufeff".encode("utf-8") + GOOD,
    "nan": b'[0,1,2,"sched",{"x":NaN}]',
    "infinity": b'[0,1,2,"sched",{"x":Infinity,"y":-Infinity}]',
    "nan-time": b'[0,NaN,2,"sched",{}]',
    "non-utf8": b'[0,1,2,"sched",{"v":"\xff\xfe"}]',
    "non-utf8-lead": b"\x80" + GOOD,
    "truncated": GOOD[:-3],
    "truncated-string": b'[0,1,2,"sch',
    "empty": b"",
    "only-space": b"   ",
    "top-dict": b'{"seq":0}',
    "top-int": b"5",
    "top-string": b'"sched"',
    "top-null": b"null",
    "arity-4": b'[0,1,2,"sched"]',
    "arity-6": b'[0,1,2,"sched",{},0]',
    "arity-0": b"[]",
    "payload-list": b'[0,1,2,"sched",[]]',
    "payload-null": b'[0,1,2,"sched",null]',
    "kind-int": b'[0,1,2,3,{}]',
    "seq-string": b'["x",1,2,"sched",{}]',
    "seq-float": b'[1.0,1,2,"sched",{}]',
    "seq-bool": b'[true,1,false,"sched",{}]',
    "tid-null": b'[0,1,null,"sched",{}]',
    "time-float": b'[0,1.5e3,2,"sched",{}]',
    "u-escapes": b'[0,1,2,"sched",{"v":"\\u00e9\\u4e2d\\ud83d\\ude00"}]',
    "u-escape-key": b'[0,1,2,"sched",{"\\u0076ar":"x"}]',
    "lone-surrogate": b'[0,1,2,"sched",{"v":"\\ud800"}]',
    "bad-escape": b'[0,1,2,"sched",{"v":"\\x41"}]',
    "short-u-escape": b'[0,1,2,"sched",{"v":"\\u12"}]',
    "raw-control-char": b'[0,1,2,"sched",{"v":"a\nb"}]',
    "duplicate-keys": b'[0,1,2,"sched",{"a":1,"a":2}]',
    "inner-whitespace": b'[ 0 , 1 , 2 , "sched" , { "a" : 1 } ]',
    "trailing-comma": b'[0,1,2,"sched",{},]',
    "single-quotes": b"[0,1,2,'sched',{}]",
    "big-int": b'[0,1,2,"sched",{"n":123456789012345678901234567890}]',
    "exponent": b'[0,1,2,"sched",{"f":1E400,"g":-0.0}]',
}


@pytest.mark.parametrize("data", list(EDGE_PAYLOADS.values()),
                         ids=list(EDGE_PAYLOADS))
def test_edge_payloads_match_json_loads(data):
    assert_same_as_reference(data)


def test_edge_payloads_cover_both_outcomes():
    outcomes = {reference_decode(d) is not None
                for d in EDGE_PAYLOADS.values()}
    assert outcomes == {True, False}


ROUND_TRIP_PAYLOADS = {
    "floats": {"f": 0.1, "g": -2.5e-300, "h": 1e300, "z": -0.0,
               "i": 3.0},
    "specials": {"nan": math.nan, "inf": math.inf, "ninf": -math.inf},
    "non-ascii-var": {"var": "zähler", "name": "变量", "emoji": "🙂"},
    "nested": {"kinds": ["R", "W"], "deep": [[1, [2, [3, []]]], {}],
               "map": {"b": [True, None], "a": {"x": 1}}},
    "bools": {"undone": True, "zombie": False, "joined": False,
              "none": None},
    "escapes": {"quote": 'a"b', "slash": "a\\b", "ctl": "\x00\x1f\n",
                "del": "\x7f"},
    "unsorted-keys": {"z": 1, "a": 2, "m": 3, "A": 4, "_": 5},
    "empty": {},
}


@pytest.mark.parametrize("payload", list(ROUND_TRIP_PAYLOADS.values()),
                         ids=list(ROUND_TRIP_PAYLOADS))
def test_round_trips_match_json(payload):
    event = JournalEvent(9, 123456, 2, "begin", payload)
    data = encode_event(event)
    assert data == json.dumps(
        [9, 123456, 2, "begin", payload], sort_keys=True,
        separators=(",", ":")).encode("utf-8")
    assert_same_as_reference(data)
    assert decode_event(data) == event


_scalars = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=True, allow_infinity=True) | st.text())
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(payload=st.dictionaries(st.text(max_size=8), _values, max_size=6),
       seq=st.integers(min_value=0), tid=st.integers(min_value=-1))
def test_random_round_trips_match_json(payload, seq, tid):
    event = JournalEvent(seq, 7, tid, "trigger", payload)
    data = encode_event(event)
    assert data == json.dumps(
        [seq, 7, tid, "trigger", payload], sort_keys=True,
        separators=(",", ":")).encode("utf-8")
    assert_same_as_reference(data)


def test_unencodable_payloads_are_rejected():
    """The bound encoder keeps no state between calls: a payload it
    rejects leaves the next encode unaffected."""
    bad = [object()]
    payload = {"bad": bad}
    with pytest.raises(TypeError):
        canonical_json(payload)
    bad[:] = [1]
    assert canonical_json(payload) == '{"bad":[1]}'
    loop = []
    loop.append(loop)
    with pytest.raises(RecursionError):
        canonical_json({"loop": loop})
