"""The worker pool behind both the fleet batch plane and `kivati serve`.

A :class:`WorkerPool` owns N processes running
:func:`repro.fleet.worker.worker_main`, each on its own duplex ``Pipe``:
no lock, queue or feeder thread is shared between workers, so a worker
that dies mid-message can tear only its own channel. The parent closes
the child's end right after ``start()``, so end-of-file on a channel
means that worker is gone, under ``fork`` as under ``spawn``.

:meth:`WorkerPool.poll` waits once, with a bounded timeout, over every
worker's channel and process sentinel. Any exception from ``recv`` on a
channel (``EOFError``, ``OSError`` for a torn frame,
``pickle.UnpicklingError`` for a garbage one) means that worker died:
the pool stops it, salvages its in-flight job's journal, spawns a
replacement and reports the death as an ``"exit"`` event.

The pool is mechanism only: spawn (with the warm set), one job in
flight per worker, liveness bookkeeping from every message (claim,
result, idle heartbeat), graceful or forced retirement. Retries,
timeouts, deadlines, poison quarantine, admission and verification
belong to its two drivers, :class:`repro.fleet.supervisor.FleetSupervisor`
and :class:`repro.service.daemon.KivatiDaemon`.
"""

import collections
import os
import time
from multiprocessing.connection import wait

from repro.fleet.worker import job_journal_path, worker_main
from repro.journal.recovery import salvage

#: bound on each join of a retiring worker before escalating to
#: SIGTERM, then SIGKILL
JOIN_TIMEOUT_S = 5.0

#: triage of a dead attempt's journal
Salvage = collections.namedtuple("Salvage",
                                 "frames torn consistent journal_path")


def salvage_job(journal_dir, job_id):
    """Salvage the journal a dead attempt of ``job_id`` left behind in
    ``journal_dir`` (None when the job was not journaled)."""
    if journal_dir is None:
        return Salvage(0, False, True, None)
    path = job_journal_path(journal_dir, job_id)
    if not os.path.exists(path):
        return Salvage(0, False, True, path)
    salvaged = salvage(path)
    return Salvage(len(salvaged.events), salvaged.torn,
                   salvaged.check is None or salvaged.check.consistent, path)


class PoolWorker:
    """Pool-side handle for one worker process."""

    __slots__ = ("worker_id", "process", "conn", "journal_dir", "inflight",
                 "job_id", "dispatched_at", "last_seen", "jobs_served",
                 "rss_kb")

    def __init__(self, worker_id, process, conn, journal_dir):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.journal_dir = journal_dir
        self.inflight = None          # the driver's token, or None if idle
        self.job_id = None
        self.dispatched_at = None
        self.last_seen = time.perf_counter()
        self.jobs_served = 0
        self.rss_kb = 0

    def describe(self):
        return ("%s pid=%s %s jobs=%d rss=%dKiB hb=%.1fs ago"
                % (self.worker_id, self.process.pid,
                   "idle" if self.inflight is None else "busy",
                   self.jobs_served, self.rss_kb,
                   time.perf_counter() - self.last_seen))


class WorkerPool:
    """``workers`` processes on per-worker channels; see the module
    docstring. With ``journal_root`` each worker journals its jobs
    under ``journal_root/<worker_id>``; with ``heartbeat_s`` an idle
    worker reports every ``heartbeat_s`` seconds; a non-empty warm set
    is pre-compiled into every worker at spawn."""

    def __init__(self, workers, start_method, journal_root=None,
                 heartbeat_s=None, warm_sources=(), warm_whitelists=()):
        import multiprocessing as mp

        self._ctx = mp.get_context(start_method)
        self.journal_root = journal_root
        self.heartbeat_s = heartbeat_s
        self.warm = None
        if warm_sources or warm_whitelists:
            self.warm = {"op": "warm", "sources": list(warm_sources),
                         "whitelists": list(warm_whitelists)}
        self.workers = {}
        self.workers_spawned = 0
        self.workers_recycled = 0
        for _ in range(workers):
            self.spawn_worker()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def spawn_worker(self):
        worker_id = "w%d" % self.workers_spawned
        journal_dir = None
        if self.journal_root is not None:
            journal_dir = os.path.join(self.journal_root, worker_id)
        conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, child_conn, journal_dir, self.heartbeat_s),
            daemon=True)
        process.start()
        # only the child may hold its end: EOF then means it is gone
        child_conn.close()
        worker = PoolWorker(worker_id, process, conn, journal_dir)
        self.workers[worker_id] = worker
        self.workers_spawned += 1
        if self.warm is not None:
            self._send(worker, self.warm)
        return worker

    def recycle(self, worker, force=False):
        """Retire ``worker`` and spawn its replacement; returns the
        :class:`Salvage` of the job it still had in flight.

        Graceful retirement sends the shutdown sentinel first; forced
        retirement starts at SIGTERM (the worker's handler closes its
        journal frame-clean); SIGKILL follows if either is ignored.
        """
        del self.workers[worker.worker_id]
        if not force and worker.process.is_alive():
            self._send(worker, None)
            worker.process.join(JOIN_TIMEOUT_S)
        self._stop(worker)
        self.workers_recycled += 1
        self.spawn_worker()
        if worker.inflight is None:
            return Salvage(0, False, True, None)
        return salvage_job(worker.journal_dir, worker.job_id)

    def stop(self):
        """Shutdown sentinel to every worker, one bounded join for all,
        then SIGTERM/SIGKILL for stragglers."""
        workers = list(self.workers.values())
        self.workers.clear()
        for worker in workers:
            self._send(worker, None)
        deadline = time.perf_counter() + JOIN_TIMEOUT_S
        for worker in workers:
            worker.process.join(max(0.1, deadline - time.perf_counter()))
        for worker in workers:
            self._stop(worker)

    @staticmethod
    def _stop(worker):
        process = worker.process
        if process.is_alive():
            process.terminate()
            process.join(JOIN_TIMEOUT_S)
        if process.is_alive():
            process.kill()
            process.join(JOIN_TIMEOUT_S)
        worker.conn.close()

    @staticmethod
    def _send(worker, item):
        try:
            worker.conn.send(item)
        except OSError:
            pass  # a dead worker surfaces at the next poll

    # ------------------------------------------------------------------
    # dispatch and message pump
    # ------------------------------------------------------------------

    def idle_workers(self):
        return [w for w in self.workers.values() if w.inflight is None]

    def busy_workers(self):
        return [w for w in self.workers.values() if w.inflight is not None]

    def dispatch(self, worker, spec_dict, inflight):
        """Send one job to an idle worker; ``inflight`` is the driver's
        token for it, cleared by the driver when the result arrives."""
        worker.inflight = inflight
        worker.job_id = spec_dict["job_id"]
        worker.dispatched_at = time.perf_counter()
        self._send(worker, spec_dict)

    def poll(self, timeout):
        """Wait up to ``timeout`` seconds for worker traffic; returns a
        list of ``(tag, worker, body)``.

        Tags are the worker's messages (``claim``, ``done``, ``hb``) and
        ``exit``: that worker died, has been replaced, and ``body`` is
        the :class:`Salvage` of its in-flight job (``worker.inflight``
        still names it). A ``done`` arrives only for the worker's
        in-flight job.
        """
        workers = list(self.workers.values())
        ready = set(wait([w.conn for w in workers]
                         + [w.process.sentinel for w in workers], timeout))
        events = []
        for worker in workers:
            if ready.isdisjoint((worker.conn, worker.process.sentinel)):
                continue
            if not self._drain(worker, events):
                events.append(("exit", worker,
                               self.recycle(worker, force=True)))
        return events

    def _drain(self, worker, events):
        """Read every message waiting on ``worker``'s channel; False once
        the channel fails (EOF, torn or garbage frame): the worker is
        gone."""
        try:
            while worker.conn.poll():
                tag, body = worker.conn.recv()
                worker.last_seen = time.perf_counter()
                worker.rss_kb = body["rss_kb"]
                worker.jobs_served = body["jobs_served"]
                if tag == "done" and (worker.inflight is None
                                      or body["job_id"] != worker.job_id):
                    continue
                events.append((tag, worker, body))
        except Exception:
            # unpickling a garbage frame can raise nearly any type; the
            # channel is unusable either way, so the worker is done
            return False
        return worker.process.is_alive()


__all__ = ["JOIN_TIMEOUT_S", "PoolWorker", "Salvage", "WorkerPool",
           "salvage_job"]
