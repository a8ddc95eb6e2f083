"""Closed-loop runner, metrics and the traced run.

An untraced run runs operations back to back for ``seconds`` (on
``apps``, a fixed number of whole passes about that long), and reports
the end-to-end metrics.

A traced run measures operations untraced for half of ``seconds``, then
installs the :class:`~perfbench.tracing.Tracer`, sets up again and
repeats exactly the same operations traced.  The per-layer metrics come
from the traced half; the tracing overhead is traced over untraced time
for that identical work; and each repeated operation must reproduce
the counts and digest of its untraced twin.
"""

import hashlib
import resource
import signal
import statistics
import time
import traceback
from collections import Counter
from contextlib import contextmanager

from perfbench.tracing import ROOT_OP, ROOT_SETUP, Tracer
from perfbench.workloads import WORKLOADS, failed_record

#: (name, unit) of the gated end-to-end metrics, as in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of the metrics a traced run reports
PER_LAYER = (
    ("minic.parse_s", "s"),
    ("minic.parse_calls", "count"),
    ("minic.typecheck_s", "s"),
    ("analysis.annotate_self_s", "s"),
    ("analysis.ars", "count"),
    ("analysis.static_safe_ars", "count"),
    ("compiler.codegen_s", "s"),
    ("compiler.codegen_calls", "count"),
    ("core.prepare_s", "s"),
    ("core.prepare_self_s", "s"),
    ("machine.self_s", "s"),
    ("machine.host_ns_per_instr", "ns/instr"),
    ("machine.vanilla_instrs_per_s", "instr/s"),
    ("machine.instrs", "count"),
    ("machine.sim_time_ns", "sim-ns"),
    ("runtime.self_s", "s"),
    ("runtime.hook_calls", "count"),
    ("runtime.ars_executed", "count"),
    ("runtime.crossings_per_ar", "ratio"),
    ("kernel.self_s", "s"),
    ("kernel.calls", "count"),
    ("kernel.crossings", "count"),
    ("kernel.traps", "count"),
    ("kernel.suspensions", "count"),
    ("kernel.undos", "count"),
    ("journal.emit_s", "s"),
    ("journal.events", "count"),
    ("journal.append_s", "s"),
    ("journal.read_s", "s"),
    ("journal.check_s", "s"),
    ("journal.retained_triggers_peak", "count"),
    ("journal.coverage", "fraction"),
    ("trace.traced_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.spans", "count"),
)

#: span name -> per-layer self-time metric; with trace.unattributed_s
#: these add up to trace.traced_s by construction (every span name is a
#: root or a key here)
SELF_TIME_METRICS = {
    "minic.parse": "minic.parse_s",
    "minic.typecheck": "minic.typecheck_s",
    "analysis.annotate": "analysis.annotate_self_s",
    "compiler.codegen": "compiler.codegen_s",
    "core.prepare": "core.prepare_self_s",
    "machine.run": "machine.self_s",
    "runtime.hook": "runtime.self_s",
    "kernel.call": "kernel.self_s",
    "journal.emit": "journal.emit_s",
    "journal.append": "journal.append_s",
    "journal.read": "journal.read_s",
    "journal.check": "journal.check_s",
}


class OpTimeout(BaseException):
    """Raised inside an operation that overran its deadline; derives
    from BaseException so no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@contextmanager
def deadline(seconds):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_one(workload, index, inp, tracer=None):
    """Run one operation; an exception, deadlock or timeout yields a
    failed record instead of ending the run."""
    start = time.perf_counter()
    try:
        with deadline(workload.op_timeout_s):
            if tracer is None:
                record = workload.run_op(inp)
            else:
                record = tracer.run_root(ROOT_OP, index, workload.run_op,
                                         inp)
    except OpTimeout:
        record = failed_record("timed out after %.0f s"
                               % workload.op_timeout_s)
    except Exception:
        record = failed_record(traceback.format_exc(limit=8))
    record.seconds = time.perf_counter() - start - record.client_s
    return record


def closed_loop(workload, seconds=None, count=None, tracer=None,
                breaks=()):
    """One client, next operation when the previous one finished.

    Runs ``count`` operations, or the workload's own count for
    ``seconds``, or, when it has none, operations until ``seconds`` have
    passed and the exact-count window is done.  Each of ``breaks`` is
    called once, off the clock, the calls spread evenly over the run."""
    if count is None:
        count = workload.op_count(seconds)
    records = []
    start = time.perf_counter()
    paused = 0.0
    taken = 0
    index = 0
    while True:
        elapsed = time.perf_counter() - start - paused
        progress = index / count if count is not None else elapsed / seconds
        if (taken < len(breaks)
                and progress >= (taken + 1) / (len(breaks) + 1)):
            pause_start = time.perf_counter()
            breaks[taken]()
            paused += time.perf_counter() - pause_start
            taken += 1
            continue
        if count is not None:
            if index >= count:
                break
        elif index >= workload.window and elapsed >= seconds:
            break
        records.append(run_one(workload, index, workload.make_input(index),
                               tracer))
        index += 1
    return records


# -- metrics ---------------------------------------------------------------


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(records):
    seconds = [r.seconds for r in records]
    return {
        "ops_per_s": _ratio(len(records), sum(seconds)),
        "op_p50_s": statistics.median(seconds),
        "op_p90_s": statistics.quantiles(seconds, n=10)[-1],
        "peak_rss_mb": peak_rss_mb(),
    }


def _work(records, key):
    return sum(r.work.get(key, 0) for r in records)


def _counts(records, key):
    return sum(r.counts.get(key, 0) for r in records)


def workload_metrics(name, records, window):
    """The workload's own end-to-end figures, as (name, value, unit):
    printed and saved, not gated, because each is defined on only some
    workloads."""
    rows = [("ops_failed_frac",
             _ratio(sum(1 for r in records if not r.ok), len(records)),
             "fraction"),
            ("op_samples", len(records), "count")]
    if name in ("apps", "fuzz"):
        rows.append(("sim_instrs_per_s",
                     _ratio(_counts(records, "instrs"),
                            _work(records, "protected_s")), "instr/s"))
    if name == "apps":
        rows.append(("vanilla_instrs_per_s",
                     _ratio(_counts(records, "vanilla_instrs"),
                            _work(records, "vanilla_s")), "instr/s"))
        first = records[:window]
        ratios = [_ratio(r.counts.get("sim_time_ns", 0),
                         r.counts.get("vanilla_time_ns", 0)) for r in first]
        overhead = (statistics.geometric_mean(ratios) - 1.0
                    if all(ratios) else 0.0)
        rows.append(("sim_overhead_frac", overhead, "fraction"))
    if name == "fuzz":
        rows.append(("programs_per_s",
                     _ratio(len(records), sum(r.seconds for r in records)),
                     "1/s"))
        rows.append(("distinct_programs", len({r.key for r in records}),
                     "count"))
        rows.append(("known_defect_ops",
                     sum(1 for r in records
                         if r.counts.get("known_defect_verdicts")),
                     "count"))
    if name == "journal":
        events = _work(records, "events")
        rows.append(("journal_write_events_per_s",
                     _ratio(events, _work(records, "append_s")), "events/s"))
        rows.append(("check_events_per_s",
                     _ratio(events, _work(records, "check_s")), "events/s"))
    return rows


def exact_counts(records, window):
    """Counts summed over the first ``window`` operations, and one
    digest of their outputs and verdict multisets."""
    first = records[:window]
    totals = Counter()
    for record in first:
        for key, value in record.counts.items():
            if key.endswith("_peak"):
                totals[key] = max(totals[key], value)
            else:
                totals[key] += value
    digest = hashlib.sha256(
        "".join(r.digest for r in first).encode("ascii")).hexdigest()
    return dict(sorted(totals.items())), digest


def per_layer(tracer, untraced, traced, window):
    """Per-layer metrics of the traced half."""
    self_ns, total_ns, calls = tracer.summary(window)
    values = tracer.window_values(window)
    all_values = tracer.all_values()
    roots = (ROOT_SETUP, ROOT_OP)
    metrics = {metric: self_ns[span] / 1e9
               for span, metric in SELF_TIME_METRICS.items()}
    traced_ns = sum(total_ns[root] for root in roots)
    unattributed_ns = sum(self_ns[root] for root in roots)
    metrics.update({
        "minic.parse_calls": calls["minic.parse"],
        "analysis.ars": values["analysis.ars"],
        "analysis.static_safe_ars": values["analysis.static_safe_ars"],
        "compiler.codegen_calls": calls["compiler.codegen"],
        "core.prepare_s": total_ns["core.prepare"] / 1e9,
        "machine.host_ns_per_instr": _ratio(self_ns["machine.run"],
                                            all_values["machine.instrs"]),
        "machine.vanilla_instrs_per_s": _ratio(
            _counts(untraced, "vanilla_instrs"),
            _work(untraced, "vanilla_s")),
        "machine.instrs": values["machine.instrs"],
        "machine.sim_time_ns": values["machine.sim_time_ns"],
        "runtime.hook_calls": calls["runtime.hook"],
        "runtime.ars_executed": values["runtime.ars_executed"],
        "runtime.crossings_per_ar": _ratio(values["kernel.crossings"],
                                           values["runtime.ars_executed"]),
        "kernel.calls": calls["kernel.call"],
        "kernel.crossings": values["kernel.crossings"],
        "kernel.traps": values["kernel.traps"],
        "kernel.suspensions": values["kernel.suspensions"],
        "kernel.undos": values["kernel.undos"],
        "journal.events": values["journal.events"],
        "journal.retained_triggers_peak": tracer.window_peak(
            "journal.retained_triggers_peak", window),
        "journal.coverage": tracer.window_floor("journal.coverage", window),
        "trace.traced_s": traced_ns / 1e9,
        "trace.unattributed_s": unattributed_ns / 1e9,
        "trace.overhead_frac": _ratio(sum(r.seconds for r in traced),
                                      sum(r.seconds for r in untraced)) - 1,
        "trace.spans": len(tracer.start),
    })
    return metrics


# -- runs ------------------------------------------------------------------


def untraced_run(workload, seconds, breaks=()):
    """The end-to-end metrics but ``setup_s``, which the caller adds."""
    records = closed_loop(workload, seconds=seconds, breaks=breaks)
    return {"metrics": end_to_end(records), "records": records,
            "checks": []}


def traced_run(workload, seconds, spans_path):
    """``workload`` is set up; returns the per-layer metrics, every
    record of both halves and the run's own failed checks."""
    untraced = closed_loop(workload, seconds=seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        workload = type(workload)(workload.seed, workload.workdir)
        tracer.run_root(ROOT_SETUP, -1, workload.setup)
        traced = closed_loop(workload, count=len(untraced), tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = per_layer(tracer, untraced, traced, workload.window)
    tracer.write(spans_path)
    checks = []
    errors = tracer.nesting_errors()
    if errors:
        checks.append("%d span(s) left open or outside their parent"
                      % errors)
    for index, (before, after) in enumerate(zip(untraced, traced)):
        if (before.counts, before.digest) != (after.counts, after.digest):
            checks.append("operation %d changed under tracing" % index)
    return {"metrics": metrics, "records": untraced + traced,
            "checks": checks}
