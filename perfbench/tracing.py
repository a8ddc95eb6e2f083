"""Layer spans recorded from outside the program.

:class:`Tracer` wraps the public entry points of each layer (functions
by identity in every loaded ``repro`` module, methods on their classes)
and records one span per call: name, start, end, parent span and
operation id, in compact in-memory arrays.  Nothing under ``src/`` is
edited; :meth:`Tracer.uninstall` puts every original back.

A wrapped call made while no root span is open (input generation, for
instance) is passed straight through and recorded nowhere, so only work
done inside a benchmark set-up or operation is attributed.

Self time is a span's duration minus the durations of its direct
children, so by construction the self times of all spans add up to the
total duration of the root spans; the roots' own self time is the
``unattributed`` remainder (benchmark glue and the program code between
layer calls).  That split is only meaningful if calls nest strictly, as
they do on one thread: :meth:`Tracer.nesting_errors` checks that every
span was closed and lies inside its parent, after its previous sibling,
so no self time is negative and no time is counted twice.
"""

import functools
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

from repro.analysis.annotate import annotate
from repro.compiler.codegen import compile_program
from repro.core.session import ProtectedProgram
from repro.journal.checker import StreamingChecker
from repro.journal.format import JournalWriter
from repro.journal.recorder import JournalRecorder
from repro.journal.stream import EventStream
from repro.kernel.kivati import KivatiKernel
from repro.machine.machine import Machine
from repro.minic.parser import parse
from repro.minic.typecheck import check
from repro.runtime.userlib import KivatiRuntime

ROOT_SETUP = "bench.setup"
ROOT_OP = "bench.op"

SPAN_NAMES = (ROOT_SETUP, ROOT_OP, "minic.parse", "minic.typecheck",
              "analysis.annotate", "compiler.codegen", "core.prepare",
              "machine.run", "runtime.hook", "kernel.call", "journal.emit",
              "journal.append", "journal.read", "journal.check")

KERNEL_ENTRY_POINTS = ("begin_atomic", "end_atomic", "clear_ar",
                       "shadow_store", "on_trap", "on_kernel_entry")


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._name_ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.values = defaultdict(int)   # (value name, op id) -> sum
        self.peaks = {}                  # (value name, op id) -> max
        self.floors = {}                 # (value name, op id) -> min
        self._stack = []
        self._op_id = -1
        self._patches = []

    # -- spans ----------------------------------------------------------

    def _open(self, name_id):
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index):
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def run_root(self, name, op_id, fn, *args):
        """Call ``fn(*args)`` inside a root span; returns its result."""
        if self._stack:
            raise RuntimeError("root span %s opened inside another span"
                               % name)
        self._op_id = op_id
        index = self._open(self._name_ids[name])
        try:
            return fn(*args)
        finally:
            # an interrupted operation can leave inner spans open
            while self._stack and self._stack[-1] != index:
                self._close(self._stack[-1])
            self._close(index)

    def add(self, key, amount):
        self.values[(key, self._op_id)] += amount

    def peak(self, key, value):
        slot = (key, self._op_id)
        self.peaks[slot] = max(value, self.peaks.get(slot, value))

    def floor(self, key, value):
        slot = (key, self._op_id)
        self.floors[slot] = min(value, self.floors.get(slot, value))

    # -- wrappers -------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        name_id = self._name_ids[name]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def _wrap_iter(self, fn, name):
        """Wrap a generator method: one span per ``next``."""
        name_id = self._name_ids[name]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if not stack:
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    yield item
                    continue
                index = self._open(name_id)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item

        return traced

    def _patch_class(self, cls, attr, wrapper):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def _patch_function(self, fn, wrapper):
        """Rebind ``fn`` in every loaded ``repro`` module that imported
        it by name."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch_function(parse, self._wrap(parse, "minic.parse"))
        self._patch_function(check, self._wrap(check, "minic.typecheck"))
        self._patch_function(annotate,
                             self._wrap(annotate, "analysis.annotate",
                                        _after_annotate))
        self._patch_function(compile_program,
                             self._wrap(compile_program, "compiler.codegen"))
        self._patch_class(ProtectedProgram, "__init__",
                          self._wrap(ProtectedProgram.__init__,
                                     "core.prepare"))
        self._patch_class(Machine, "run",
                          self._wrap(Machine.run, "machine.run",
                                     _after_machine_run))
        for attr, value in sorted(vars(KivatiRuntime).items()):
            if attr.startswith("on_") and callable(value):
                after = _after_run_end if attr == "on_run_end" else None
                self._patch_class(KivatiRuntime, attr,
                                  self._wrap(value, "runtime.hook", after))
        for attr in KERNEL_ENTRY_POINTS:
            self._patch_class(KivatiKernel, attr,
                              self._wrap(vars(KivatiKernel)[attr],
                                         "kernel.call"))
        self._patch_class(JournalRecorder, "emit",
                          self._wrap(JournalRecorder.emit, "journal.emit"))
        self._patch_class(JournalWriter, "append",
                          self._wrap(JournalWriter.append, "journal.append"))
        self._patch_class(EventStream, "__iter__",
                          self._wrap_iter(EventStream.__iter__,
                                          "journal.read"))
        self._patch_class(StreamingChecker, "feed",
                          self._wrap(StreamingChecker.feed, "journal.check"))
        self._patch_class(StreamingChecker, "finish",
                          self._wrap(StreamingChecker.finish,
                                     "journal.check", _after_finish))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results --------------------------------------------------------

    def summary(self, window_ops):
        """Per-span-name totals.

        Returns ``(self_ns, total_ns, calls)``: self and inclusive time
        per span name over every recorded span, and call counts per span
        name over the set-up (op id -1) and operations ``0 ..
        window_ops - 1`` only, which repeat exactly for a seed.
        """
        n = len(self.start)
        durations = [self.end[i] - self.start[i] for i in range(n)]
        child_ns = [0] * n
        parent = self.parent
        for i in range(n):
            if parent[i] >= 0:
                child_ns[parent[i]] += durations[i]
        self_ns = Counter()
        total_ns = Counter()
        calls = Counter()
        names, name, op = self.names, self.name, self.op
        for i in range(n):
            span = names[name[i]]
            self_ns[span] += durations[i] - child_ns[i]
            total_ns[span] += durations[i]
            if op[i] < window_ops:
                calls[span] += 1
        return self_ns, total_ns, calls

    def nesting_errors(self):
        """Spans left open, not inside their parent's interval, starting
        before their previous sibling ended, or in another operation
        than their parent."""
        start, end, parent, op = self.start, self.end, self.parent, self.op
        n = len(start)
        if not len(end) == len(parent) == len(op) == len(self.name) == n:
            return n or 1
        errors = 0
        last_child_end = {}
        for i in range(n):
            p = parent[i]
            bad = end[i] < start[i]
            if p >= 0:
                bad = (bad or start[i] < start[p] or end[i] > end[p]
                       or op[i] != op[p]
                       or start[i] < last_child_end.get(p, start[p]))
                last_child_end[p] = end[i]
            errors += bad
        return errors

    def window_values(self, window_ops):
        totals = Counter()
        for (key, op_id), amount in self.values.items():
            if op_id < window_ops:
                totals[key] += amount
        return totals

    def window_peak(self, key, window_ops):
        return max((v for (k, op_id), v in self.peaks.items()
                    if k == key and op_id < window_ops), default=0)

    def window_floor(self, key, window_ops):
        return min((v for (k, op_id), v in self.floors.items()
                    if k == key and op_id < window_ops), default=0.0)

    def all_values(self):
        totals = Counter()
        for (key, _), amount in self.values.items():
            totals[key] += amount
        return totals

    def write(self, path):
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [["name", "b"], ["start", "q"], ["end", "q"],
                             ["parent", "l"], ["op", "l"]],
                  "clock": "perf_counter_ns"}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.name, self.start, self.end, self.parent,
                           self.op):
                column.tofile(f)


def read_spans(path):
    """Load a file written by :meth:`Tracer.write` as a list of
    ``(name, start_ns, end_ns, parent_index, op_id)`` tuples."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        count = header["spans"]
        columns = []
        for _, typecode in header["arrays"]:
            column = array(typecode)
            column.fromfile(f, count)
            columns.append(column)
    names = header["names"]
    return [(names[columns[0][i]], columns[1][i], columns[2][i],
             columns[3][i], columns[4][i]) for i in range(count)]


# -- values read off the wrapped calls' public results ------------------


def _after_annotate(tracer, args, annotation):
    tracer.add("analysis.ars", annotation.num_ars)
    tracer.add("analysis.static_safe_ars",
               len(annotation.static_safe_ar_ids))


def _after_machine_run(tracer, args, result):
    tracer.add("machine.instrs", result.instr_count)
    tracer.add("machine.sim_time_ns", result.time_ns)


def _after_run_end(tracer, args, _):
    stats = args[0].stats
    tracer.add("runtime.ars_executed", stats.total_ars_executed())
    tracer.add("kernel.crossings", stats.crossings())
    tracer.add("kernel.traps", stats.traps)
    tracer.add("kernel.suspensions", stats.suspensions)
    tracer.add("kernel.undos", stats.undos)


def _after_finish(tracer, args, result):
    tracer.add("journal.events", result.events_checked)
    tracer.peak("journal.retained_triggers_peak",
                result.stats.retained_triggers_peak)
    tracer.floor("journal.coverage", result.coverage)
