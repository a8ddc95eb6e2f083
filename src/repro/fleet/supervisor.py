"""Fleet supervisor: dispatch, crash recovery, backpressure, aggregation.

The supervisor drives a :class:`repro.fleet.pool.WorkerPool` (one job
outstanding per worker, each worker on its own channel) and guarantees:

- **zero lost jobs** — a job is accounted for exactly once: as a
  completed result, a bounded-retry failure, or an admission rejection;
- **crash tolerance** — a worker that dies mid-job (its channel or
  process sentinel reports it) has its torn journal salvaged via
  :func:`repro.journal.recovery.salvage`, the salvage journaled as a
  :class:`FleetRecovery` record, and the job retried on a fresh worker
  with bounded retries (crash drills are stripped from the retry the
  same way recovery strips ``journal.crash``);
- **determinism** — results are keyed by job id and merged in sorted
  order, so aggregates are identical for any worker count and any
  completion order;
- **backpressure** — queue-depth watermarks derived from
  :meth:`repro.pressure.PressurePolicy.fleet_watermarks` shed the
  supervisor's own monitoring (per-job replay verification) before they
  shed jobs, mirroring the in-process admission-control ordering.
"""

import os
import shutil
import tempfile
import time

from repro.errors import ConfigError, JournalCrash
from repro.fleet.jobs import JobResult, JobSpec
from repro.fleet.merge import aggregate_results, worker_utilization
from repro.fleet.pool import WorkerPool, salvage_job
from repro.fleet.worker import execute_job, verify_journal
from repro.pressure.policy import PressurePolicy

#: longest single wait for worker traffic; bounds how late a job
#: timeout is noticed
POLL_S = 0.05


def _new_usage():
    """Per-worker accounting row: dispatch/claim counts and busy time."""
    return {"jobs": 0, "attempts": 0, "claims": 0, "busy_s": 0.0}


def _note_window(row, timeline, spec, attempt, worker_id, begun, started,
                 status, completed=False):
    """Close one job-attempt window: accrue the worker's busy time and
    append a timeline entry (times relative to batch start)."""
    now = time.perf_counter()
    row["busy_s"] += now - begun
    if completed:
        row["jobs"] += 1
    timeline.append({
        "job_id": spec.job_id,
        "worker_id": worker_id,
        "attempt": attempt,
        "start_s": round(begun - started, 6),
        "end_s": round(now - started, 6),
        "status": status,
    })


class FleetPolicy:
    """Supervisor knobs; watermarks derive from a PressurePolicy."""

    __slots__ = ("max_retries", "verify", "collect_journals", "pressure",
                 "shed_depth", "reject_depth", "start_method",
                 "job_timeout_s")

    def __init__(self, workers=2, max_retries=2, verify=True,
                 collect_journals=True, pressure=None, start_method="spawn",
                 job_timeout_s=None):
        if max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if start_method not in ("spawn", "fork", "forkserver"):
            raise ConfigError("unknown start method %r" % (start_method,))
        self.max_retries = max_retries
        self.verify = verify
        self.collect_journals = collect_journals
        self.pressure = pressure if pressure is not None else PressurePolicy()
        self.shed_depth, self.reject_depth = \
            self.pressure.fleet_watermarks(max(1, workers))
        self.start_method = start_method
        #: optional wall-clock bound per job attempt; a worker that
        #: exceeds it is terminated and handled like a crash
        self.job_timeout_s = job_timeout_s


class FleetStats:
    """Supervisor-side accounting (fleet health, not job content)."""

    FIELDS = ("jobs_submitted", "jobs_completed", "jobs_failed",
              "jobs_rejected", "jobs_retried", "workers_spawned",
              "workers_crashed", "workers_timed_out", "verifications",
              "verification_failures", "verifications_shed",
              "frames_salvaged")

    __slots__ = FIELDS

    def __init__(self):
        for name in self.FIELDS:
            setattr(self, name, 0)

    def as_dict(self):
        return {name: getattr(self, name) for name in self.FIELDS}

    def __repr__(self):
        return ("FleetStats(done=%d, failed=%d, retried=%d, crashed=%d)"
                % (self.jobs_completed, self.jobs_failed, self.jobs_retried,
                   self.workers_crashed))


class FleetRecovery:
    """Journaled record of one crashed-worker salvage decision."""

    __slots__ = ("job_id", "worker_id", "attempt", "exitcode", "reason",
                 "frames_salvaged", "torn", "consistent", "action",
                 "journal_path")

    def __init__(self, job_id, worker_id, attempt, exitcode, reason,
                 frames_salvaged, torn, consistent, action, journal_path):
        self.job_id = job_id
        self.worker_id = worker_id
        self.attempt = attempt
        self.exitcode = exitcode
        self.reason = reason            # "crash" or "timeout"
        self.frames_salvaged = frames_salvaged
        self.torn = torn
        self.consistent = consistent
        self.action = action            # "retried" or "failed"
        self.journal_path = journal_path

    def describe(self):
        return ("worker %s %s on job %s (attempt %d, exit %s): salvaged "
                "%d frames%s%s -> %s"
                % (self.worker_id, self.reason, self.job_id, self.attempt,
                   self.exitcode, self.frames_salvaged,
                   ", torn" if self.torn else "",
                   "" if self.consistent else ", INCONSISTENT",
                   self.action))

    def __repr__(self):
        return "FleetRecovery(%s, %s)" % (self.job_id, self.action)


class FleetRejection:
    """A job shed at admission (queue depth above the reject
    watermark). Rejections are returned, never silently dropped."""

    __slots__ = ("spec", "depth", "reason")

    def __init__(self, spec, depth, reason):
        self.spec = spec
        self.depth = depth
        self.reason = reason


class FleetResult:
    """Everything one batch produced, aggregation-ready.

    ``worker_usage`` and ``timeline`` are scheduling metadata (per-worker
    busy time, dispatch counts, and per-attempt job windows relative to
    batch start) — surfaced in summaries and span exports but excluded
    from aggregate digests, which must stay worker-count independent.
    """

    __slots__ = ("results", "recoveries", "rejections", "stats",
                 "elapsed_s", "workers", "completion_order",
                 "worker_usage", "timeline")

    def __init__(self, results, recoveries, rejections, stats, elapsed_s,
                 workers, completion_order, worker_usage=None,
                 timeline=None):
        self.results = results            # job_id -> JobResult
        self.recoveries = list(recoveries)
        self.rejections = list(rejections)
        self.stats = stats
        self.elapsed_s = elapsed_s
        self.workers = workers
        self.completion_order = list(completion_order)
        self.worker_usage = dict(worker_usage or {})
        self.timeline = list(timeline or [])

    @property
    def ok(self):
        return (all(r.ok for r in self.results.values())
                and not self.rejections
                and self.stats.verification_failures == 0)

    @property
    def jobs_per_sec(self):
        if self.elapsed_s <= 0:
            return 0.0
        return len(self.results) / self.elapsed_s

    def aggregate(self):
        return aggregate_results(self.results, elapsed_s=self.elapsed_s,
                                 worker_usage=self.worker_usage)

    def utilization(self):
        """Per-worker busy fraction / job counts for this batch."""
        return worker_utilization(self.worker_usage, self.elapsed_s)

    def describe(self):
        lines = ["fleet: %d jobs on %d worker(s) in %.2fs (%.2f jobs/s)%s"
                 % (len(self.results), self.workers, self.elapsed_s,
                    self.jobs_per_sec, "" if self.ok else " [PROBLEMS]")]
        stats = self.stats
        lines.append("  completed=%d failed=%d retried=%d rejected=%d "
                     "crashed_workers=%d verified=%d (shed %d, failed %d)"
                     % (stats.jobs_completed, stats.jobs_failed,
                        stats.jobs_retried, stats.jobs_rejected,
                        stats.workers_crashed, stats.verifications,
                        stats.verifications_shed,
                        stats.verification_failures))
        for worker_id, row in sorted(self.utilization().items()):
            lines.append("  worker %s: %d job(s) in %d dispatch(es), "
                         "busy %.2fs (%.0f%% of batch)%s"
                         % (worker_id, row["jobs"], row["attempts"],
                            row["busy_s"], 100.0 * row["busy_frac"],
                            (", %d claim(s)" % row["claims"])
                            if row.get("claims") else ""))
        for recovery in self.recoveries:
            lines.append("  recovery: " + recovery.describe())
        return "\n".join(lines)


class FleetSupervisor:
    """Dispatches job batches over a spawn-safe worker pool.

    ``workers=0`` executes inline in this process (no multiprocessing):
    same job semantics, same salvage+retry handling for crash drills,
    fully deterministic — the reference the multi-process path is tested
    against.

    Journals go under ``journal_root`` when one is given. Otherwise a
    batch that collects journals gets a fresh ``kivati-fleet-`` temp
    root, removed (after verification) when :meth:`run_jobs` returns;
    pass a ``journal_root`` to read the journals afterwards.
    """

    def __init__(self, workers=2, policy=None, journal_root=None):
        if workers < 0:
            raise ConfigError("workers must be >= 0")
        self.workers = workers
        self.policy = policy if policy is not None else FleetPolicy(
            workers=workers)
        self.journal_root = journal_root

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run_jobs(self, specs, reject_overflow=False):
        """Execute a batch; returns a :class:`FleetResult`.

        With ``reject_overflow`` the admission-control reject watermark
        applies at submission (service posture: a caller pushing an
        unbounded batch gets explicit rejections back); without it the
        whole batch is accepted and backpressure only sheds supervisor
        monitoring (batch posture — jobs are never dropped).
        """
        specs = [spec if isinstance(spec, JobSpec) else JobSpec.from_dict(spec)
                 for spec in specs]
        seen = set()
        for spec in specs:
            if spec.job_id in seen:
                raise ConfigError("duplicate job_id %r" % spec.job_id)
            seen.add(spec.job_id)
        stats = FleetStats()
        admitted = []
        rejections = []
        for spec in specs:
            depth = len(admitted)
            if reject_overflow and depth >= self.policy.reject_depth:
                rejections.append(FleetRejection(
                    spec, depth, "queue depth %d >= reject watermark %d"
                    % (depth, self.policy.reject_depth)))
                stats.jobs_rejected += 1
                continue
            admitted.append(spec)
        stats.jobs_submitted = len(admitted)
        root = owned_root = None
        if self.policy.collect_journals:
            root = self.journal_root
            if root is None:
                root = owned_root = tempfile.mkdtemp(prefix="kivati-fleet-")
        started = time.perf_counter()
        try:
            run = self._run_inline if self.workers == 0 else self._run_pool
            results, recoveries, order, usage, timeline = run(
                admitted, stats, started, root)
        finally:
            if owned_root is not None:
                shutil.rmtree(owned_root, ignore_errors=True)
        elapsed = time.perf_counter() - started
        return FleetResult(results, recoveries, rejections, stats, elapsed,
                           self.workers, order, worker_usage=usage,
                           timeline=timeline)

    # ------------------------------------------------------------------
    # inline execution (workers=0)
    # ------------------------------------------------------------------

    def _run_inline(self, specs, stats, started, root):
        results = {}
        recoveries = []
        order = []
        usage = {"inline": _new_usage()}
        timeline = []
        journal_dir = None
        if root is not None:
            journal_dir = os.path.join(root, "inline")
            os.makedirs(journal_dir, exist_ok=True)
        pending = [(spec, 0) for spec in specs]
        pending.reverse()  # treat as stack; deterministic order
        while pending:
            spec, attempt = pending.pop()
            usage["inline"]["attempts"] += 1
            begun = time.perf_counter()
            try:
                raw = execute_job(spec.as_dict(), journal_dir=journal_dir)
            except JournalCrash:
                _note_window(usage["inline"], timeline, spec, attempt,
                             "inline", begun, started, "crash")
                recovery, retry = self._handle_crash(
                    spec, attempt, worker_id="inline", exitcode=None,
                    reason="crash",
                    salvaged=salvage_job(journal_dir, spec.job_id),
                    stats=stats, results=results)
                recoveries.append(recovery)
                if retry is not None:
                    pending.append(retry)
                continue
            result = self._record_result(raw, spec, attempt, "inline",
                                         stats, backlog=len(pending))
            _note_window(usage["inline"], timeline, spec, attempt,
                         "inline", begun, started,
                         "ok" if result.ok else "failed",
                         completed=True)
            results[spec.job_id] = result
            order.append(spec.job_id)
        return results, recoveries, order, usage, timeline

    # ------------------------------------------------------------------
    # multi-process execution
    # ------------------------------------------------------------------

    def _run_pool(self, specs, stats, started, root):
        results = {}
        recoveries = []
        order = []
        usage = {}
        timeline = []
        pending = list(reversed([(spec, 0) for spec in specs]))
        timeout_s = self.policy.job_timeout_s

        def handle_dead(worker, salvaged, reason):
            spec, attempt = worker.inflight
            _note_window(usage[worker.worker_id], timeline, spec, attempt,
                         worker.worker_id, worker.dispatched_at, started,
                         reason)
            stats.workers_crashed += 1
            recovery, retry = self._handle_crash(
                spec, attempt, worker_id=worker.worker_id,
                exitcode=worker.process.exitcode, reason=reason,
                salvaged=salvaged, stats=stats, results=results)
            recoveries.append(recovery)
            if retry is not None:
                pending.append(retry)

        pool = WorkerPool(self.workers, self.policy.start_method, root)
        try:
            while pending or pool.busy_workers():
                for worker_id in pool.workers:
                    usage.setdefault(worker_id, _new_usage())
                for worker in pool.idle_workers()[:len(pending)]:
                    spec, attempt = pending.pop()
                    usage[worker.worker_id]["attempts"] += 1
                    pool.dispatch(worker, spec.as_dict(), (spec, attempt))
                for tag, worker, body in pool.poll(POLL_S):
                    if tag == "claim":
                        usage[worker.worker_id]["claims"] += 1
                    elif tag == "exit" and worker.inflight is not None:
                        handle_dead(worker, body, "crash")
                    elif tag == "done":
                        (spec, attempt), worker.inflight = \
                            worker.inflight, None
                        result = self._record_result(
                            body, spec, attempt, worker.worker_id, stats,
                            backlog=len(pending))
                        _note_window(usage[worker.worker_id], timeline,
                                     spec, attempt, worker.worker_id,
                                     worker.dispatched_at, started,
                                     "ok" if result.ok else "failed",
                                     completed=True)
                        results[spec.job_id] = result
                        order.append(spec.job_id)
                if timeout_s is None:
                    continue
                now = time.perf_counter()
                for worker in pool.busy_workers():
                    if now - worker.dispatched_at > timeout_s:
                        stats.workers_timed_out += 1
                        handle_dead(worker, pool.recycle(worker, force=True),
                                    "timeout")
        finally:
            pool.stop()
        stats.workers_spawned = pool.workers_spawned
        return results, recoveries, order, usage, timeline

    # ------------------------------------------------------------------
    # shared handling
    # ------------------------------------------------------------------

    def _handle_crash(self, spec, attempt, worker_id, exitcode, reason,
                      salvaged, stats, results):
        """Account a crashed attempt's salvaged journal and decide
        retry/fail.

        Returns ``(FleetRecovery, retry_or_None)``; when retries are
        exhausted the job is recorded as a failed result — accounted
        for, never lost.
        """
        stats.frames_salvaged += salvaged.frames
        if attempt < self.policy.max_retries:
            action = "retried"
            stats.jobs_retried += 1
            retry = (spec.without_crash_drill(), attempt + 1)
        else:
            action = "failed"
            stats.jobs_failed += 1
            results[spec.job_id] = JobResult(
                spec.job_id, spec.kind, False, None,
                error="worker %s after %d attempts" % (reason, attempt + 1),
                worker_id=worker_id, attempt=attempt,
                journal_path=salvaged.journal_path)
            retry = None
        return (FleetRecovery(spec.job_id, worker_id, attempt, exitcode,
                              reason, salvaged.frames, salvaged.torn,
                              salvaged.consistent, action,
                              salvaged.journal_path),
                retry)

    def _record_result(self, raw, spec, attempt, worker_id, stats,
                       backlog=0):
        result = JobResult.from_dict(raw)
        result.worker_id = worker_id
        result.attempt = attempt
        if result.ok:
            stats.jobs_completed += 1
        else:
            stats.jobs_failed += 1
        self._maybe_verify(result, spec, stats, backlog)
        return result

    def _maybe_verify(self, result, spec, stats, backlog):
        """Replay-verify a completed run or fuzz job's journal, unless
        the pending backlog sits above the shed watermark — monitoring
        is shed before jobs, reusing the pressure plane's ordering."""
        if (not self.policy.verify or not result.ok
                or result.journal_path is None
                or spec.kind not in ("run", "fuzz")):
            return
        if backlog >= self.policy.shed_depth:
            result.verify_shed = True
            stats.verifications_shed += 1
            return
        stats.verifications += 1
        result.verified = verify_journal(spec.source, result.journal_path)
        if not result.verified:
            stats.verification_failures += 1


__all__ = ["FleetPolicy", "FleetRecovery", "FleetRejection", "FleetResult",
           "FleetStats", "FleetSupervisor"]
