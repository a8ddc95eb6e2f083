"""Streaming-checker benchmark (``BENCH_checker.json``).

Gates the four claims of :mod:`repro.journal.checker`:

- **scaling** — synthetic journals with verdicts known *by construction*
  are checked at sizes up to a million events; the checker must
  reproduce the expected multiset exactly at every size (soundness and
  completeness at scale), the log-log slope of time vs events must stay
  near 1 (near-linear, the Fast Atomicity Monitoring claim), and the
  streaming GC must hold peak retained state to O(live regions), not
  O(trace length);
- **speedup** — on a real recorded racy run, checking the journal must
  beat replay-based re-verification (which re-executes the program) by
  at least ``MIN_SPEEDUP``x, median of ``TIMING_RUNS`` runs each;
- **corruption** — the same recording is truncated at *every* frame
  boundary and bit-flipped at every frame boundary: zero exceptions, and
  coverage must grow monotonically with the truncation point (partial
  verdicts degrade gracefully, never cliff);
- **differential** — checker vs the online detector over the full
  11-bug corpus (three seeds each, plus the Table 6 bug-finding seed
  schedule for the rare bugs until every bug has a verdict) and a fleet
  of freshly generated fuzz programs: zero disagreements, 11/11 bugs
  witnessed.

The artifact (schema ``kivati-checkerbench/v1``) is committed as
``BENCH_checker.json``; ``validate`` is the CI gate.  Smoke mode shrinks
the sizes and program counts but keeps every gate on except the timing
ones (a smoke artifact proves the machinery, not the performance claim).
"""

import math
import os
import statistics
import tempfile
import time
from random import Random

from repro.bench.schema import check_schema, progress
from repro.bench.render import Table
from repro.bench.scale import corpus_config
from repro.core.config import Mode
from repro.core.session import ProtectedProgram
from repro.journal.checker import check_events, check_journal
from repro.journal.events import JournalEvent, encode_event
from repro.journal.format import (SEGMENT_MAGIC, _HEADER, JournalWriter,
                                  frame_bytes)
from repro.journal.replay import record_run, replay_run

SCHEMA = "kivati-checkerbench/v1"

#: synthetic trace sizes (events); the top size carries the paper claim
DEFAULT_SIZES = (10_000, 50_000, 200_000, 1_000_000)
SMOKE_SIZES = (2_000, 10_000)
#: least-squares log-log slope cap for "near-linear"
MAX_SLOPE = 1.35
#: required advantage over replay-based reverification
MIN_SPEEDUP = 5.0
TIMING_RUNS = 3
#: corpus differential: seed stride matches the detection campaign
CORPUS_SEEDS = (1, 2, 3)
DEFAULT_FUZZ_PROGRAMS = 200
SMOKE_FUZZ_PROGRAMS = 12

#: the speedup/corruption workload: a compact two-thread check-then-act
#: race whose iteration count scales the journal
RACY_TEMPLATE = """
int x = 0;

void careful() {
    int i = 0;
    while (i < %(iters)d) {
        int t = x;
        sleep(400);
        x = t + 1;
        i = i + 1;
    }
}

void racer() {
    int j = 0;
    while (j < %(iters)d) {
        sleep(150);
        x = x + 10;
        j = j + 1;
    }
}

void main() {
    spawn careful();
    spawn racer();
    join();
    output(x);
}
"""


# -- synthetic journals ------------------------------------------------------


def synthesize_journal(path, n_events, seed=0, threads=4, slots=4):
    """Write a synthetic ``n_events``-frame journal whose verdict
    multiset is known by construction; returns the expected multiset.

    The generator plays the kernel's own journaling protocol: slots are
    armed per window (bumping a per-slot generation), remote threads
    fire triggers against the armed epoch, windows close with an ``end``
    carrying the second access kind, and every expected offline verdict
    gets a matching journaled ``violation`` (so a correct checker
    reports a clean *pass*, not just the right multiset).  Frames are
    framed and CRCd exactly like :class:`JournalWriter` output but
    buffered in memory and written once — per-frame flushing would make
    million-event generation slower than the thing being measured.
    """
    rng = Random(seed)
    chunks = [SEGMENT_MAGIC]
    expected = []
    seq = 0
    now = 1000
    gens = {s: 0 for s in range(slots)}

    def emit(tid, kind, **payload):
        nonlocal seq, now
        now += rng.randrange(1, 50)
        chunks.append(frame_bytes(encode_event(
            JournalEvent(seq, now, tid, kind, payload))))
        seq += 1

    emit(-1, "run-start", synthetic=True, threads=threads, slots=slots)
    kinds = ("R", "W")
    # the generator applies the same Figure 2 predicate the checker
    # does, but over interleavings it chose itself — agreement at scale
    # is therefore evidence, not circularity
    from repro.analysis.watchtype import is_unserializable
    from repro.minic.ast import AccessKind

    def unserializable(first, remote, second):
        return is_unserializable(AccessKind(first), AccessKind(remote),
                                 AccessKind(second))

    # leave room for run-start, run-end and per-window overhead
    while seq < n_events - 2:
        tid = rng.randrange(threads)
        ar = rng.randrange(64)
        slot = rng.randrange(slots)
        gens[slot] += 1
        gen = gens[slot]
        first = rng.choice(kinds)
        emit(tid, "arm", slot=slot, gen=gen, addr=4096 + ar,
             size=4, read=True, write=True)
        emit(tid, "begin", ar=ar, slot=slot, gen=gen, addr=4096 + ar,
             first=first, var="g%d" % ar, joined=False)
        begin_time = now
        triggers = []
        for _ in range(rng.randrange(0, 4)):
            remote = rng.randrange(threads)
            kind = rng.choice(kinds)
            undone = rng.random() < 0.5
            emit(remote, "trigger", slot=slot, gen=gen, kinds=[kind],
                 pc=rng.randrange(1 << 16), undone=undone)
            triggers.append((remote, kind, now, undone))
        second = rng.choice(kinds)
        verdicts_here = []
        for remote, kind, t_time, undone in triggers:
            if remote == tid or t_time < begin_time:
                continue
            if unserializable(first, kind, second):
                verdicts_here.append(
                    (ar, tid, remote, first, kind, second, undone))
        emit(tid, "end", ar=ar, slot=slot, gen=gen, second=second,
             zombie=False, begin_time=begin_time,
             had_triggers=bool(triggers))
        for ar_v, tid_v, remote, first_v, kind, second_v, undone in \
                verdicts_here:
            emit(tid_v, "violation", ar=ar_v, var="g%d" % ar_v,
                 addr=4096 + ar_v, remote_tid=remote, first=first_v,
                 remote=kind, second=second_v, prevented=undone)
        expected.extend(verdicts_here)
        if rng.random() < 0.5:
            emit(tid, "disarm", slot=slot, gen=gen, addr=4096 + ar)
    emit(-1, "run-end", synthetic=True)
    with open(path, "wb") as f:
        f.write(b"".join(chunks))
    return sorted(expected), seq


def scaling_series(sizes, seed=0, workdir=None):
    """Check synthetic journals at each size; returns (rows, slope).
    Without ``workdir`` the journals go to a temp dir removed on return."""
    if workdir is None:
        with tempfile.TemporaryDirectory(
                prefix="kivati-checkerbench-") as workdir:
            return scaling_series(sizes, seed=seed, workdir=workdir)
    rows = []
    for size in sizes:
        path = os.path.join(workdir, "synthetic-%d.journal" % size)
        expected, written = synthesize_journal(path, size, seed=seed)
        start = time.perf_counter()
        result = check_journal(path)
        elapsed = time.perf_counter() - start
        rows.append({
            "events": written,
            "bytes": os.path.getsize(path),
            "seconds": elapsed,
            "events_per_second": written / elapsed if elapsed else 0.0,
            "verdicts": len(result.verdicts),
            "expected_verdicts": len(expected),
            "sound": result.verdicts == expected,
            "status": result.status,
            "peak_live_regions": result.stats.live_regions_peak,
            "peak_epochs": result.stats.live_epochs_peak,
            "peak_retained_triggers":
                result.stats.retained_triggers_peak,
        })
        os.unlink(path)
    slope = None
    if len(rows) >= 2:
        xs = [math.log(r["events"]) for r in rows]
        ys = [math.log(max(r["seconds"], 1e-9)) for r in rows]
        n = len(xs)
        mx, my = sum(xs) / n, sum(ys) / n
        denom = sum((x - mx) ** 2 for x in xs)
        slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom
                 if denom else 0.0)
    return rows, slope


# -- speedup vs replay-based reverification ---------------------------------


def speedup_section(iters=60, seed=0, runs=TIMING_RUNS):
    """Time ``check_journal`` vs ``replay_run`` on one real recording."""
    program = ProtectedProgram(RACY_TEMPLATE % {"iters": iters})
    with tempfile.TemporaryDirectory(prefix="kivati-checkerbench-") as workdir:
        path = os.path.join(workdir, "racy.journal")
        record_run(program, corpus_config(Mode.PREVENTION), seed=seed,
                   writer=JournalWriter(path))
        check_times, replay_times = [], []
        verdicts = online = None
        for _ in range(runs):
            start = time.perf_counter()
            result = check_journal(path)
            check_times.append(time.perf_counter() - start)
            verdicts = len(result.verdicts)
            agrees = result.agrees
        for _ in range(runs):
            start = time.perf_counter()
            replay = replay_run(program, path)
            replay_times.append(time.perf_counter() - start)
            online = replay.ok and replay.verdicts_match
        check_s = statistics.median(check_times)
        replay_s = statistics.median(replay_times)
        return {
            "iters": iters,
            "seed": seed,
            "runs": runs,
            "journal_bytes": os.path.getsize(path),
            "check_seconds": check_s,
            "replay_seconds": replay_s,
            "speedup": replay_s / check_s if check_s else 0.0,
            "checker_agrees": bool(agrees),
            "checker_verdicts": verdicts,
            "replay_ok": bool(online),
        }


# -- corruption sweep --------------------------------------------------------


def _frame_boundaries(data):
    """Byte offsets of every frame boundary in an intact segment."""
    offsets = [len(SEGMENT_MAGIC)]
    offset = len(SEGMENT_MAGIC)
    while offset + _HEADER.size <= len(data):
        length, _crc = _HEADER.unpack_from(data, offset)
        offset += _HEADER.size + length
        offsets.append(offset)
    return offsets


def corruption_sweep(iters=8, seed=0):
    """Truncate and bit-flip a real recording at every frame boundary.

    Gate: zero exceptions anywhere, coverage monotone non-decreasing in
    the truncation point, and nothing but the intact journal may claim
    completeness.
    """
    program = ProtectedProgram(RACY_TEMPLATE % {"iters": iters})
    with tempfile.TemporaryDirectory(prefix="kivati-checkerbench-") as workdir:
        path = os.path.join(workdir, "racy.journal")
        record_run(program, corpus_config(Mode.PREVENTION), seed=seed,
                   writer=JournalWriter(path))
        with open(path, "rb") as f:
            data = f.read()
        boundaries = _frame_boundaries(data)
        mutant = os.path.join(workdir, "mutant.journal")
        crashes = []
        coverages = []
        false_complete = 0
        for cut in boundaries:
            with open(mutant, "wb") as f:
                f.write(data[:cut])
            try:
                result = check_journal(mutant)
            except Exception as exc:  # the whole point: must not happen
                crashes.append({"op": "truncate", "offset": cut,
                                "error": "%s: %s"
                                % (type(exc).__name__, exc)})
                continue
            coverages.append(result.coverage)
            if result.complete and cut < len(data):
                false_complete += 1
        flip_checked = 0
        for boundary in boundaries:
            if boundary >= len(data):
                continue
            flipped = bytearray(data)
            flipped[boundary] ^= 0xFF
            with open(mutant, "wb") as f:
                f.write(bytes(flipped))
            flip_checked += 1
            try:
                result = check_journal(mutant)
            except Exception as exc:
                crashes.append({"op": "flip", "offset": boundary,
                                "error": "%s: %s"
                                % (type(exc).__name__, exc)})
                continue
            if result.complete:
                false_complete += 1
        monotone = all(a <= b + 1e-12
                       for a, b in zip(coverages, coverages[1:]))
        return {
            "iters": iters,
            "seed": seed,
            "journal_bytes": len(data),
            "frame_boundaries": len(boundaries),
            "truncations": len(boundaries),
            "flips": flip_checked,
            "crashes": crashes,
            "coverage_monotone": monotone,
            "false_complete": false_complete,
            "final_coverage": coverages[-1] if coverages else None,
        }


# -- differential: checker vs online -----------------------------------------


def corpus_differential(seeds=CORPUS_SEEDS, bug_ids=None, escalate=True,
                        max_attempts=30):
    """The 11-bug corpus, every seed: checker and online, one story.

    The rare bugs (Table 6's '-' rows) do not manifest at arbitrary
    fixed seeds, so bugs still undetected after the fixed-seed pass are
    re-run on the Table 6 bug-finding schedule (seed = attempt * 7919,
    pause 20 ms then 50 ms) until the first verdict — every escalation
    run still goes through the checker/online agreement check.
    """
    from repro.workloads.bugs import BUGS

    disagreements = []
    runs = 0
    detected = set()
    escalated = {}

    def one_run(bug_id, program, seed, pause_ms):
        nonlocal runs
        _, recorder = record_run(
            program, corpus_config(Mode.BUG_FINDING, pause_ms=pause_ms),
            seed=seed)
        runs += 1
        check = check_events(recorder.events)
        if check.verdicts:
            detected.add(bug_id)
        if not check.agrees:
            disagreements.append({
                "bug": bug_id, "seed": seed,
                "checker": len(check.verdicts),
                "online": len(check.online),
                "status": check.status,
            })

    all_bugs = sorted(bug_ids or BUGS)
    for bug_id in all_bugs:
        program = ProtectedProgram(BUGS[bug_id].source)
        for seed in seeds:
            one_run(bug_id, program, seed, pause_ms=20)
    if escalate:
        for bug_id in [b for b in all_bugs if b not in detected]:
            program = ProtectedProgram(BUGS[bug_id].source)
            extra = 0
            for pause_ms in (20, 50):
                for attempt in range(max_attempts):
                    one_run(bug_id, program, attempt * 7919, pause_ms)
                    extra += 1
                    if bug_id in detected:
                        break
                if bug_id in detected:
                    break
            escalated[bug_id] = extra
    return {
        "runs": runs,
        "bugs": len(all_bugs),
        "bugs_detected": len(detected),
        "escalated": escalated,
        "disagreements": disagreements,
    }


def fuzz_differential(n_programs, base_seed=0):
    """Freshly generated programs, one recording each, checker vs online."""
    from repro.fuzz.campaign import (CampaignSpec, fuzz_config,
                                     generate_programs)

    spec = CampaignSpec(n_programs=n_programs, base_seed=base_seed,
                        drill_every=0)
    disagreements = []
    checked = 0
    with_verdicts = 0
    for prog in generate_programs(spec):
        program = ProtectedProgram(prog.source)
        _, recorder = record_run(program, fuzz_config(prog.params.threads),
                                 seed=prog.run_seed)
        checked += 1
        check = check_events(recorder.events)
        if check.verdicts:
            with_verdicts += 1
        if not check.agrees:
            disagreements.append({
                "program_id": prog.program_id, "run_seed": prog.run_seed,
                "checker": len(check.verdicts),
                "online": len(check.online),
                "status": check.status,
            })
    return {
        "programs": checked,
        "programs_with_verdicts": with_verdicts,
        "disagreements": disagreements,
    }


# -- artifact ----------------------------------------------------------------


def generate(smoke=False):
    sizes = SMOKE_SIZES if smoke else DEFAULT_SIZES
    fuzz_programs = SMOKE_FUZZ_PROGRAMS if smoke else DEFAULT_FUZZ_PROGRAMS
    corpus_seeds = CORPUS_SEEDS[:1] if smoke else CORPUS_SEEDS
    progress("scaling: %s events" % (", ".join(str(s) for s in sizes)))
    rows, slope = scaling_series(sizes)
    progress("scaling slope: %s"
             % (slope is not None and "%.3f" % slope))
    progress("speedup: checker vs replay_run")
    speedup = speedup_section(iters=20 if smoke else 60)
    progress("speedup: %.1fx" % speedup["speedup"])
    progress("corruption sweep")
    corruption = corruption_sweep(iters=4 if smoke else 8)
    progress("corruption: %d truncations + %d flips, %d crash(es)"
             % (corruption["truncations"], corruption["flips"],
                len(corruption["crashes"])))
    progress("differential: corpus x%d seeds + %d fuzz programs"
             % (len(corpus_seeds), fuzz_programs))
    corpus = corpus_differential(seeds=corpus_seeds, escalate=not smoke)
    fuzz = fuzz_differential(fuzz_programs)
    return {
        "schema": SCHEMA,
        "smoke": bool(smoke),
        "scaling": {
            "sizes": list(sizes),
            "rows": rows,
            "slope": slope,
            "max_slope": MAX_SLOPE,
        },
        "speedup": speedup,
        "min_speedup": 0.0 if smoke else MIN_SPEEDUP,
        "corruption": corruption,
        "corpus": corpus,
        "fuzz": fuzz,
    }


def validate(payload):
    """Problems with a checkerbench artifact (empty list = valid).

    Timing gates (``MAX_SLOPE``, ``MIN_SPEEDUP``) are skipped for smoke
    artifacts; the correctness gates (soundness at every size, zero
    crashes, monotone coverage, zero differential disagreements) always
    apply.
    """
    problems = check_schema(payload, SCHEMA)
    if not isinstance(payload, dict):
        return problems
    smoke = bool(payload.get("smoke"))
    scaling = payload.get("scaling") or {}
    rows = scaling.get("rows") or []
    if not rows:
        problems.append("scaling rows missing")
    for row in rows:
        if not row.get("sound"):
            problems.append("checker unsound at %s events: %s != %s "
                            "expected verdicts"
                            % (row.get("events"), row.get("verdicts"),
                               row.get("expected_verdicts")))
        if row.get("status") != "pass":
            problems.append("synthetic journal at %s events: status %r"
                            % (row.get("events"), row.get("status")))
    if not smoke:
        if rows and max(r.get("events", 0) for r in rows) < 1_000_000:
            problems.append("largest scaling size below 1M events")
        slope = scaling.get("slope")
        if slope is None or slope > MAX_SLOPE:
            problems.append("scaling slope %s exceeds %s (not near-linear)"
                            % (slope, MAX_SLOPE))
        # streaming GC: peak retained state must not grow with the trace
        if len(rows) >= 2:
            first, last = rows[0], rows[-1]
            if (last.get("peak_retained_triggers", 0)
                    > 10 * max(first.get("peak_retained_triggers", 1), 1)):
                problems.append("retained-trigger peak grows with trace "
                                "length (GC leak): %s -> %s"
                                % (first.get("peak_retained_triggers"),
                                   last.get("peak_retained_triggers")))
    speedup = payload.get("speedup") or {}
    if not speedup.get("checker_agrees"):
        problems.append("checker disagreed on the speedup workload")
    if not smoke and speedup.get("speedup", 0.0) < MIN_SPEEDUP:
        problems.append("speedup %.2fx below required %.1fx"
                        % (speedup.get("speedup", 0.0), MIN_SPEEDUP))
    corruption = payload.get("corruption") or {}
    if corruption.get("crashes"):
        problems.append("corruption sweep crashed %d time(s): %s"
                        % (len(corruption["crashes"]),
                           corruption["crashes"][:3]))
    if not corruption.get("coverage_monotone"):
        problems.append("coverage not monotone under truncation")
    if corruption.get("false_complete"):
        problems.append("%d damaged journal(s) claimed completeness"
                        % corruption["false_complete"])
    corpus = payload.get("corpus") or {}
    if corpus.get("disagreements"):
        problems.append("corpus differential disagreements: %s"
                        % corpus["disagreements"])
    if not smoke and corpus.get("bugs_detected") != corpus.get("bugs"):
        problems.append("corpus recall: %s/%s bugs"
                        % (corpus.get("bugs_detected"), corpus.get("bugs")))
    fuzz = payload.get("fuzz") or {}
    if fuzz.get("disagreements"):
        problems.append("fuzz differential disagreements: %s"
                        % fuzz["disagreements"])
    if not smoke and fuzz.get("programs", 0) < DEFAULT_FUZZ_PROGRAMS:
        problems.append("fuzz differential covered %s programs, need >=%d"
                        % (fuzz.get("programs"), DEFAULT_FUZZ_PROGRAMS))
    return problems


def render(payload):
    scaling = payload["scaling"]
    speedup = payload["speedup"]
    corruption = payload["corruption"]
    table = Table(
        "Streaming checker: time vs trace length (slope %s, cap %s)"
        % (scaling["slope"] is not None
           and "%.3f" % scaling["slope"] or "-", scaling["max_slope"]),
        ["events", "MB", "seconds", "events/s", "verdicts", "peak regions",
         "peak triggers", "sound"],
        note="speedup vs replay-reverify: %.1fx (%.3fs vs %.3fs, median "
             "of %d); corruption: %d truncations + %d flips, %d crashes, "
             "coverage %s; differential: %d corpus runs + %d fuzz "
             "programs, %d disagreements"
             % (speedup["speedup"], speedup["check_seconds"],
                speedup["replay_seconds"], speedup["runs"],
                corruption["truncations"], corruption["flips"],
                len(corruption["crashes"]),
                "monotone" if corruption["coverage_monotone"]
                else "NOT MONOTONE",
                payload["corpus"]["runs"], payload["fuzz"]["programs"],
                len(payload["corpus"]["disagreements"])
                + len(payload["fuzz"]["disagreements"])),
    )
    for row in scaling["rows"]:
        table.add_row(
            row["events"], "%.1f" % (row["bytes"] / 1e6),
            "%.3f" % row["seconds"],
            "%d" % row["events_per_second"], row["verdicts"],
            row["peak_live_regions"], row["peak_retained_triggers"],
            "yes" if row["sound"] else "NO")
    return table.render()


__all__ = ["DEFAULT_SIZES", "MAX_SLOPE", "MIN_SPEEDUP", "SCHEMA",
           "corpus_differential", "corruption_sweep", "fuzz_differential",
           "generate", "render", "scaling_series", "speedup_section",
           "synthesize_journal", "validate"]
