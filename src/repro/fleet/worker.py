"""Spawn-safe fleet worker, shared by the fleet batch plane and the
long-lived detection service.

``worker_main`` is the entry point the supervisor passes to
``multiprocessing.Process`` — a module-level function so it survives the
``spawn`` start method (no closures, no lambdas, nothing that needs the
parent's memory image).  All work flows through :func:`execute_job`,
which is also what the supervisor calls directly for inline
(``workers=0``) execution, so the two paths cannot drift.

Workers are crash-transparent by design: a job whose spec carries a
``crash`` drill dies via ``os._exit`` the instant the ``journal.crash``
fault point fires — no cleanup, no result message, exactly like a
SIGKILL — leaving a torn on-disk journal for the supervisor to salvage.
A ``poison`` drill kills the worker on *every* attempt (hostile input
that no retry survives); a ``stall_s`` drill wedges the worker mid-job
with a fresh heartbeat, modeling a live-but-stuck process.

SIGTERM, by contrast, is a *managed* kill (supervisor timeout, pool
recycle, operator): the handler closes the active journal frame-clean
before exiting so salvage sees a clean tail whenever the signal lands
between frames.

Warm-worker support for ``repro.service``: a queue item of
``{"op": "warm", "sources": [...], "whitelists": [...]}`` pre-compiles
workload programs into the per-process cache and pre-reads whitelist
files, so the first real request pays neither import nor compile cost.
Every message a worker emits carries ``rss_kb`` and ``jobs_served`` so
the pool can recycle workers against an RSS ceiling or a jobs cap, and
an idle worker heartbeats every ``heartbeat_s`` seconds.
"""

import json
import os
import queue as queue_mod
import signal
import time

from repro.core.session import ProtectedProgram
from repro.core.training import observe_false_positives
from repro.errors import JournalCrash
from repro.faults.plan import FaultPlan, FaultSpec
from repro.fleet.jobs import JobSpec
from repro.journal.format import JournalWriter
from repro.journal.recorder import JournalRecorder
from repro.journal.snapshot import config_from_snapshot, source_digest

#: exit status a worker uses to die mid-job during a crash drill;
#: chosen to look like SIGKILL's shell status
CRASH_EXIT_STATUS = 137

#: exit status after a managed SIGTERM (128 + 15), journal closed clean
TERM_EXIT_STATUS = 143

#: per-process compiled-program cache: workers are long-lived, programs
#: are immutable, and annotation+compilation is pure per source text
_PROGRAM_CACHE = {}

#: journal writer of the in-flight run, closed frame-clean on SIGTERM
_ACTIVE_WRITER = None


def cached_program(source):
    key = source_digest(source)
    program = _PROGRAM_CACHE.get(key)
    if program is None:
        program = ProtectedProgram(source)
        _PROGRAM_CACHE[key] = program
    return program


def job_journal_path(journal_dir, job_id):
    return os.path.join(journal_dir, "job-%s.journal" % job_id)


def worker_rss_kb():
    """Max RSS of this process in KiB (0 where unavailable)."""
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except (ImportError, ValueError, OSError):
        return 0


def _worker_meta(jobs_served):
    return {"rss_kb": worker_rss_kb(), "jobs_served": jobs_served}


def _sigterm_handler(signum, frame):
    """Managed kill: close the in-flight journal frame-clean, then die.

    Python runs signal handlers between bytecodes, so any frame append
    in progress completes first — salvage of a SIGTERM'd worker sees a
    clean (untorn) tail whenever the write itself was not interrupted
    at the OS level.
    """
    writer = _ACTIVE_WRITER
    if writer is not None:
        try:
            writer.close()
        except Exception:
            pass
    os._exit(TERM_EXIT_STATUS)


def warm_worker(sources=(), whitelists=()):
    """Pre-compile programs and pre-read whitelist files; returns counts.

    Compilation is pure per source text, so warming is a correctness
    no-op — it only moves the cost off the first request's latency.
    """
    from repro.runtime.whitelist import read_whitelist_ids

    programs = 0
    for source in sources:
        cached_program(source)
        programs += 1
    whitelist_ids = 0
    for path in whitelists:
        try:
            whitelist_ids += len(read_whitelist_ids(path).ids)
        except OSError:
            pass  # a missing file warms nothing; runs re-read anyway
    return {"programs_warmed": programs, "whitelist_ids": whitelist_ids}


def _config_for(spec):
    """Rebuild the job's KivatiConfig, wiring in the crash drill."""
    config = config_from_snapshot(spec.snapshot).copy(seed=spec.seed)
    crash = spec.params.get("crash")
    if crash is not None:
        specs = [FaultSpec("journal.crash", probability=1.0, max_fires=1,
                           start_after=int(crash.get("at_frame", 0)),
                           param={"torn": int(crash.get("torn", 1))})]
        if config.faults is not None:
            specs.extend(s for s in config.faults.specs
                         if s.point != "journal.crash")
        config = config.copy(faults=FaultPlan("fleet-crash-drill", specs))
    return config


def _execute_run(spec, config, journal_dir):
    global _ACTIVE_WRITER

    journal_path = None
    writer = None
    if journal_dir is not None:
        journal_path = job_journal_path(journal_dir, spec.job_id)
        writer = JournalWriter(journal_path)
        config = config.copy(journal=JournalRecorder(writer=writer))
    _ACTIVE_WRITER = writer
    try:
        report = cached_program(spec.source).run(config)
    finally:
        _ACTIVE_WRITER = None
    return report.as_payload(), journal_path


def _execute_train(spec, config, journal_dir):
    program = cached_program(spec.source)
    whitelist = frozenset(spec.params.get("whitelist", ()))
    buggy = spec.params.get("buggy", ())
    new_by_seed = {}
    for seed in spec.params["seeds"]:
        new_by_seed[str(seed)] = list(observe_false_positives(
            program, config, seed, whitelist, buggy_ar_ids=buggy))
    union = sorted(set().union(*new_by_seed.values())
                   if new_by_seed else set())
    return {"new_by_seed": new_by_seed, "union": union,
            "seeds": list(spec.params["seeds"])}, None


def _execute_detect(spec, config, journal_dir):
    """Self-contained Table-6 campaign: rerun until a violation lands on
    one of the bug's victim variables (same protocol and seed stride as
    repro.workloads.driver.detect_bug)."""
    program = cached_program(spec.source)
    victims = set(spec.params["victim_vars"])
    max_attempts = int(spec.params.get("max_attempts", 40))
    seed_base = int(spec.params.get("seed_base", 0))
    total_ns = 0
    for attempt in range(max_attempts):
        report = program.run(config, seed=seed_base + attempt * 7919)
        total_ns += report.time_ns
        records = [r for r in report.violations if r.var in victims]
        if records:
            return {"bug_id": spec.params.get("bug_id"), "detected": True,
                    "attempts": attempt + 1, "time_ns": total_ns,
                    "prevented": all(r.prevented for r in records)}, None
    return {"bug_id": spec.params.get("bug_id"), "detected": False,
            "attempts": max_attempts, "time_ns": total_ns,
            "prevented": False}, None


def _execute_suite(spec, config, journal_dir):
    """One application's full measurement pass (``run_suite --jobs``).

    The payload carries live report objects (pickled by the queue) —
    this kind exists so the existing table benchmarks can fan out
    without changing what they compute.
    """
    from repro.bench.scale import bench_config
    from repro.core.config import Mode, OptLevel
    from repro.workloads.catalog import workload_suite

    name = spec.params["workload"]
    scale = spec.params.get("scale", 0.6)
    matches = [w for w in workload_suite(scale=scale) if w.name == name]
    if not matches:
        raise ValueError("unknown suite workload %r" % name)
    workload = matches[0]
    program = cached_program(workload.source)
    vanilla = program.run_vanilla(seed=spec.seed)
    if not workload.check_output(vanilla.output):
        raise AssertionError("vanilla run of %s produced wrong output"
                             % workload.name)
    reports = {}
    for level_value in spec.params["levels"]:
        for mode_value in spec.params["modes"]:
            run_config = bench_config(mode=Mode(mode_value),
                                      opt=OptLevel(level_value))
            report = program.run(run_config, seed=spec.seed)
            reports[(level_value, mode_value)] = report
    return {"workload": name, "vanilla": vanilla, "reports": reports}, None


def _execute_fuzz(spec, config, journal_dir):
    """One generated program through the full fuzz oracle.

    The detection run records to the job's on-disk journal (so the
    supervisor can replay-verify it and a diverging case can archive
    the schedule); the checker / report / replay / conflict cross-checks
    run in-worker on the in-memory event stream.
    """
    global _ACTIVE_WRITER

    from repro.fuzz.oracle import cross_check

    program = cached_program(spec.source)
    journal_path = None
    writer = None
    if journal_dir is not None:
        journal_path = job_journal_path(journal_dir, spec.job_id)
        writer = JournalWriter(journal_path)
    recorder = JournalRecorder(writer=writer)
    _ACTIVE_WRITER = writer
    try:
        report = program.run(config.copy(journal=recorder))
    finally:
        _ACTIVE_WRITER = None
    check = cross_check(program, config, spec.seed,
                        drill=spec.params.get("drill"),
                        recorder=recorder, report=report)
    payload = check.as_payload()
    payload["program_id"] = spec.params.get("program_id")
    payload["gen_seed"] = spec.params.get("gen_seed")
    return payload, journal_path


_EXECUTORS = {
    "run": _execute_run,
    "train": _execute_train,
    "detect": _execute_detect,
    "suite": _execute_suite,
    "fuzz": _execute_fuzz,
}


def _error_result(job_id, kind, error):
    return {"job_id": job_id, "kind": kind, "ok": False, "error": error,
            "payload": None, "journal_path": None, "elapsed_s": 0.0}


def parse_spec(spec_dict):
    """Parse an untrusted job payload; returns ``(spec, error_result)``.

    Exactly one of the pair is None.  Hostile input — truncated JSON
    text, garbage bytes, a non-object payload, a dict that fails
    :meth:`JobSpec.from_dict` validation — yields a structured error
    result instead of an exception, so it can never burn the worker.
    """
    if isinstance(spec_dict, (bytes, bytearray)):
        try:
            spec_dict = spec_dict.decode("utf-8")
        except UnicodeDecodeError as exc:
            return None, _error_result("invalid", "invalid",
                                       "undecodable spec bytes: %s" % exc)
    if isinstance(spec_dict, str):
        try:
            spec_dict = json.loads(spec_dict)
        except json.JSONDecodeError as exc:
            return None, _error_result("invalid", "invalid",
                                       "malformed spec JSON: %s" % exc)
    if not isinstance(spec_dict, dict):
        return None, _error_result(
            "invalid", "invalid",
            "spec is %s, not an object" % type(spec_dict).__name__)
    job_id = spec_dict.get("job_id")
    job_id = str(job_id) if job_id else "invalid"
    kind = spec_dict.get("kind") or "invalid"
    try:
        return JobSpec.from_dict(spec_dict), None
    except Exception as exc:
        return None, _error_result(
            job_id, kind, "invalid JobSpec: %s: %s"
            % (type(exc).__name__, exc))


def execute_job(spec_dict, journal_dir=None):
    """Execute one job dict; returns a result dict.

    Shared by worker processes and the supervisor's inline mode.  A
    ``JournalCrash`` (crash drill) propagates to the caller — workers
    turn it into ``os._exit``, inline mode turns it into salvage+retry.
    Malformed specs return a structured error result (never raise).
    """
    spec, error = parse_spec(spec_dict)
    if error is not None:
        return error
    started = time.perf_counter()
    if spec.params.get("poison"):
        # hostile-input drill: kills the executing worker on *every*
        # attempt — retries cannot strip it; only quarantine ends it
        raise JournalCrash(0)
    stall = spec.params.get("stall_s")
    if stall:
        # live-but-stuck drill: the worker claimed the job (heartbeat
        # fresh) but produces no result until the stall elapses
        time.sleep(float(stall))
    config = _config_for(spec)
    try:
        payload, journal_path = _EXECUTORS[spec.kind](spec, config,
                                                      journal_dir)
        return {"job_id": spec.job_id, "kind": spec.kind, "ok": True,
                "error": None, "payload": payload,
                "journal_path": journal_path,
                "elapsed_s": time.perf_counter() - started}
    except JournalCrash:
        raise
    except Exception as exc:  # a broken job must not take the worker down
        return {"job_id": spec.job_id, "kind": spec.kind, "ok": False,
                "error": "%s: %s" % (type(exc).__name__, exc),
                "payload": None, "journal_path": None,
                "elapsed_s": time.perf_counter() - started}


def worker_main(worker_id, job_queue, result_queue, journal_dir,
                heartbeat_s=None):
    """Worker loop: claim, execute, report; ``None`` is the shutdown
    sentinel.  The claim message doubles as the heartbeat that lets the
    supervisor attribute a crashed worker's in-flight job; with
    ``heartbeat_s`` set, an idle worker also emits periodic ``hb``
    messages so the pool can watch liveness and RSS between jobs."""
    if journal_dir is not None:
        os.makedirs(journal_dir, exist_ok=True)
    signal.signal(signal.SIGTERM, _sigterm_handler)
    jobs_served = 0
    while True:
        try:
            item = job_queue.get(timeout=heartbeat_s)
        except queue_mod.Empty:
            result_queue.put(("hb", worker_id, _worker_meta(jobs_served)))
            continue
        if item is None:
            result_queue.put(("bye", worker_id, _worker_meta(jobs_served)))
            return
        if isinstance(item, dict) and item.get("op") == "warm":
            warmed = warm_worker(item.get("sources", ()),
                                 item.get("whitelists", ()))
            body = _worker_meta(jobs_served)
            body.update(warmed)
            result_queue.put(("warmed", worker_id, body))
            continue
        claim = _worker_meta(jobs_served)
        claim["job_id"] = (item.get("job_id")
                           if isinstance(item, dict) else None)
        result_queue.put(("claim", worker_id, claim))
        try:
            result = execute_job(item, journal_dir=journal_dir)
        except JournalCrash:
            # simulate the kill: no result, no cleanup, nonzero status;
            # the torn journal stays on disk for the supervisor
            os._exit(CRASH_EXIT_STATUS)
        jobs_served += 1
        result["worker_id"] = worker_id
        result.update(_worker_meta(jobs_served))
        result_queue.put(("done", worker_id, result))


__all__ = ["CRASH_EXIT_STATUS", "TERM_EXIT_STATUS", "cached_program",
           "execute_job", "job_journal_path", "parse_spec", "warm_worker",
           "worker_main", "worker_rss_kb"]
