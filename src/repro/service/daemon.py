"""`kivati serve`: the long-lived warm-worker detection daemon.

The daemon accepts JSON-framed requests over a Unix-domain socket
(:mod:`repro.service.protocol`) and executes ``JobSpec`` s on a warm
:class:`repro.fleet.pool.WorkerPool` — the pool the fleet batch plane
drives too, each worker on its own channel. Robustness is the design
center — every layer assumes the layer below it will fail:

- **deadlines** — each request carries a wall-clock deadline (default
  from policy); a live-but-stuck worker holding a request past its
  deadline is force-recycled (SIGTERM first, so its journal closes
  frame-clean) and the client gets a structured ``deadline`` error —
  never silence;
- **bounded retry with backoff** — a request whose worker *died* is
  retried on a fresh warm worker after an exponentially growing
  backoff, at most ``max_retries`` times, with the recoverable drills
  stripped exactly like fleet crash recovery; the dead worker's torn
  journal is salvaged via :func:`repro.journal.recovery.salvage` first;
- **poison-job quarantine** — a request that kills ``poison_kills``
  workers is answered with a structured ``poison`` error and its spec
  digest quarantined: resubmissions are rejected at admission without
  burning another worker;
- **admission control** — watermarks derived from
  :meth:`repro.pressure.PressurePolicy.fleet_watermarks`: replay
  verification runs on a dedicated verifier thread (never on the
  dispatch or response path) and is *shed* once its backlog — the
  monitoring debt — reaches the shed watermark; only when the pending
  queue reaches the reject watermark are new submissions refused
  (``overloaded``). Monitoring degrades before any request is slowed
  or dropped, the same ordering as in-process admission control;
- **hostile-input containment** — a malformed frame or an invalid spec
  is answered with a structured error and at worst costs that one
  connection; a client disconnect mid-request is absorbed (the job
  completes, the response is dropped, the daemon survives);
- **health recycling** — an idle worker whose RSS crossed the ceiling
  or that served its jobs cap is retired gracefully and replaced; busy
  workers are never health-recycled — deadlines own the stuck case;
- **graceful drain** — SIGTERM/SIGINT stops accepting, finishes every
  in-flight and queued request, retires the pool (each worker closes
  its journals), removes the socket and the temp journal root the
  daemon created, and exits 0.

Every recovery decision (retry, salvage, deadline, recycle, poison
quarantine, drain) is appended to the in-memory **service log**, an
append-only sequence queryable over the wire (``events`` op) — the
chaos drill in :mod:`repro.bench.servicebench` asserts one retry record
per injected kill, so nothing recovers silently.
"""

import collections
import os
import shutil
import socket
import tempfile
import threading
import time

from repro.errors import ConfigError, ProtocolError
from repro.fleet.jobs import JobSpec
from repro.fleet.pool import WorkerPool
from repro.fleet.worker import verify_journal
from repro.pressure.policy import PressurePolicy
from repro.service.protocol import (error_response, ok_response, recv_frame,
                                    send_frame)

#: job kinds a service request may carry; ``suite`` payloads are live
#: pickled objects and cannot cross the JSON wire
SERVICE_JOB_KINDS = ("run", "train", "detect")


class ServicePolicy:
    """Every robustness knob of the daemon in one place."""

    __slots__ = ("workers", "start_method", "heartbeat_s", "rss_limit_kb",
                 "max_jobs_per_worker", "collect_journals", "warm_sources",
                 "warm_whitelists", "default_deadline_s", "max_retries",
                 "retry_backoff_s", "backoff_cap_s", "poison_kills",
                 "verify", "verify_backend", "pressure", "shed_depth",
                 "reject_depth", "poll_s")

    def __init__(self, workers=2, start_method="spawn", heartbeat_s=1.0,
                 rss_limit_kb=None, max_jobs_per_worker=None,
                 collect_journals=True, warm_sources=(), warm_whitelists=(),
                 default_deadline_s=30.0, max_retries=2,
                 retry_backoff_s=0.05, backoff_cap_s=1.0, poison_kills=2,
                 verify=True, verify_backend="replay", pressure=None,
                 poll_s=0.02):
        if workers < 1:
            raise ConfigError("service pool needs at least 1 worker")
        if start_method not in ("spawn", "fork", "forkserver"):
            raise ConfigError("unknown start method %r" % (start_method,))
        if rss_limit_kb is not None and rss_limit_kb < 1:
            raise ConfigError("rss_limit_kb must be positive")
        if max_jobs_per_worker is not None and max_jobs_per_worker < 1:
            raise ConfigError("max_jobs_per_worker must be >= 1")
        if default_deadline_s <= 0:
            raise ConfigError("default_deadline_s must be positive")
        if max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if poison_kills < 1:
            raise ConfigError("poison_kills must be >= 1")
        if retry_backoff_s < 0 or backoff_cap_s < retry_backoff_s:
            raise ConfigError("need 0 <= retry_backoff_s <= backoff_cap_s")
        if verify_backend not in ("replay", "checker"):
            raise ConfigError("verify_backend must be 'replay' or 'checker'")
        self.workers = workers
        self.start_method = start_method
        self.heartbeat_s = heartbeat_s
        self.rss_limit_kb = rss_limit_kb
        self.max_jobs_per_worker = max_jobs_per_worker
        self.collect_journals = collect_journals
        self.warm_sources = tuple(warm_sources)
        self.warm_whitelists = tuple(warm_whitelists)
        self.default_deadline_s = default_deadline_s
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.poison_kills = poison_kills
        self.verify = verify
        #: "replay" re-executes the program pinned to the journal (the
        #: strongest check); "checker" streams the journal through the
        #: offline serializability checker — no re-execution, so each
        #: verification is far cheaper and the queue sheds less
        #: monitoring debt under load
        self.verify_backend = verify_backend
        self.pressure = pressure if pressure is not None else PressurePolicy()
        self.shed_depth, self.reject_depth = \
            self.pressure.fleet_watermarks(max(1, workers))
        self.poll_s = poll_s

    def backoff_for(self, attempt):
        """Exponential backoff before retry ``attempt`` (1-based)."""
        return min(self.backoff_cap_s,
                   self.retry_backoff_s * (2 ** max(0, attempt - 1)))


class ServiceStats:
    """Daemon-side accounting (service health, not job content)."""

    FIELDS = ("requests_accepted", "requests_completed", "requests_failed",
              "requests_rejected_overload", "requests_rejected_poison",
              "requests_rejected_draining", "requests_deadline_expired",
              "requests_invalid", "retries", "workers_crashed",
              "workers_recycled", "frames_salvaged", "verifications",
              "verifications_shed", "verification_failures",
              "malformed_frames", "unknown_ops", "client_disconnects",
              "poison_quarantined")

    __slots__ = FIELDS

    def __init__(self):
        for name in self.FIELDS:
            setattr(self, name, 0)

    def as_dict(self):
        return {name: getattr(self, name) for name in self.FIELDS}


class Request:
    """One in-service request: spec + deadline + retry state + the
    rendezvous the client handler thread waits on."""

    __slots__ = ("request_id", "spec", "deadline_s", "accepted_at",
                 "attempt", "kills", "not_before", "done", "response",
                 "client_gone", "worker_id")

    def __init__(self, request_id, spec, deadline_s):
        self.request_id = request_id
        self.spec = spec
        self.deadline_s = deadline_s
        self.accepted_at = time.perf_counter()
        self.attempt = 0
        self.kills = 0
        self.not_before = 0.0
        self.done = threading.Event()
        self.response = None
        self.client_gone = False
        self.worker_id = None

    def expired(self, now):
        return now - self.accepted_at > self.deadline_s

    def dispatch_dict(self):
        """The spec to send for the current attempt: retries run with
        the recoverable drills stripped, like fleet crash recovery."""
        spec = self.spec if self.attempt == 0 \
            else self.spec.without_crash_drill()
        return spec.as_dict()


class KivatiDaemon:
    """The `kivati serve` daemon; see module docstring."""

    def __init__(self, socket_path, policy=None, journal_root=None):
        self.socket_path = socket_path
        self.policy = policy if policy is not None else ServicePolicy()
        self.journal_root = journal_root
        self._owned_root = None
        self.pool = None
        self.stats = ServiceStats()
        self.events = []              # the service log (append-only)
        self._event_seq = 0
        self._lock = threading.Lock()
        self._pending = collections.deque()
        self._quarantine = {}         # spec digest -> first poison event seq
        self._listener = None
        self._threads = []
        self._client_threads = []
        self._draining = threading.Event()
        self._drained = threading.Event()
        self._started = False
        # monitoring debt: completed runs awaiting replay verification,
        # consumed by the verifier thread off the dispatch path
        self._verify_queue = collections.deque()
        self._verify_cond = threading.Condition()
        self._verify_stop = False
        self._verifier = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Bind the socket, start the pool, dispatcher and accept loop."""
        if self._started:
            raise ConfigError("daemon already started")
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)  # stale socket from a dead daemon
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(self.socket_path)
        self._listener.listen(64)
        self._listener.settimeout(0.1)
        policy = self.policy
        root = None
        if policy.collect_journals:
            root = self.journal_root
            if root is None:
                root = self._owned_root = tempfile.mkdtemp(
                    prefix="kivati-serve-")
        self.pool = WorkerPool(policy.workers, policy.start_method, root,
                               heartbeat_s=policy.heartbeat_s,
                               warm_sources=policy.warm_sources,
                               warm_whitelists=policy.warm_whitelists)
        self._started = True
        for target, name in ((self._dispatch_loop, "kivati-dispatch"),
                             (self._accept_loop, "kivati-accept"),
                             (self._verify_loop, "kivati-verify")):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        self._verifier = self._threads[-1]

    def serve_forever(self, install_signals=True):
        """CLI entry: start, drain on SIGTERM/SIGINT, exit clean.

        Returns 0 once the drain finished with every accepted request
        answered — the contract the CI drain test holds us to.
        """
        import signal as signal_mod

        # handlers go in BEFORE the socket exists: a SIGTERM that lands
        # the instant a client can reach us must already mean "drain"
        if install_signals:
            def _drain_signal(signum, frame):
                self.initiate_drain("signal %d" % signum)

            signal_mod.signal(signal_mod.SIGTERM, _drain_signal)
            signal_mod.signal(signal_mod.SIGINT, _drain_signal)
        self.start()
        self._drained.wait()
        return 0

    def initiate_drain(self, reason="requested"):
        """Stop accepting; in-flight and queued requests still finish."""
        if not self._draining.is_set():
            self._log_event("drain", reason=reason,
                            pending=len(self._pending))
            self._draining.set()

    def wait_drained(self, timeout=None):
        return self._drained.wait(timeout)

    def stop(self):
        """Programmatic drain + wait (tests and embedders)."""
        self.initiate_drain("stop()")
        self.wait_drained()

    @property
    def draining(self):
        return self._draining.is_set()

    # ------------------------------------------------------------------
    # service log
    # ------------------------------------------------------------------

    def _log_event(self, kind, **fields):
        with self._lock:
            self._event_seq += 1
            event = {"seq": self._event_seq, "kind": kind}
            event.update(fields)
            self.events.append(event)
        return event

    # ------------------------------------------------------------------
    # accept loop + client handling
    # ------------------------------------------------------------------

    def _accept_loop(self):
        while not self._draining.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            thread = threading.Thread(target=self._client_loop,
                                      args=(conn,), daemon=True)
            thread.start()
            self._client_threads = [t for t in self._client_threads
                                    if t.is_alive()]
            self._client_threads.append(thread)
        try:
            self._listener.close()
        except OSError:
            pass

    def _client_loop(self, conn):
        conn.settimeout(None)
        try:
            while True:
                try:
                    frame = recv_frame(conn)
                except ProtocolError as exc:
                    # a client that desyncs the framing gets one
                    # structured error, then its connection is closed;
                    # the daemon itself is untouched
                    self.stats.malformed_frames += 1
                    self._try_send(conn, error_response(
                        "malformed-frame", str(exc)))
                    return
                if frame is None:
                    return
                response = self._handle_frame(frame)
                if not self._try_send(conn, response):
                    return
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _try_send(self, conn, response):
        try:
            send_frame(conn, response)
            return True
        except OSError:
            self.stats.client_disconnects += 1
            return False

    def _handle_frame(self, frame):
        op = frame.get("op")
        request_id = frame.get("request_id")
        if op == "ping":
            return ok_response(request_id, pong=True,
                               draining=self.draining)
        if op == "stats":
            with self._lock:
                pending = len(self._pending)
                quarantined = sorted(self._quarantine)
            return ok_response(
                request_id, stats=self.stats.as_dict(), pending=pending,
                draining=self.draining, quarantined=quarantined,
                pool={"workers": len(self.pool.workers),
                      "spawned": self.pool.workers_spawned,
                      "recycled": self.pool.workers_recycled,
                      "detail": [w.describe()
                                 for w in list(self.pool.workers.values())]})
        if op == "events":
            limit = int(frame.get("limit", 100))
            with self._lock:
                events = list(self.events[-limit:])
            return ok_response(request_id, events=events)
        if op == "drain":
            self.initiate_drain("drain op")
            return ok_response(request_id, draining=True)
        if op == "submit":
            return self._handle_submit(frame, request_id)
        self.stats.unknown_ops += 1
        return error_response("unknown-op", "unknown op %r" % (op,),
                              request_id)

    def _handle_submit(self, frame, request_id):
        if self.draining:
            self.stats.requests_rejected_draining += 1
            return error_response("draining", "daemon is draining",
                                  request_id)
        try:
            spec = JobSpec.from_dict(frame["spec"])
        except Exception as exc:
            self.stats.requests_invalid += 1
            return error_response("invalid-spec",
                                  "%s: %s" % (type(exc).__name__, exc),
                                  request_id)
        if spec.kind not in SERVICE_JOB_KINDS:
            self.stats.requests_invalid += 1
            return error_response(
                "invalid-spec", "job kind %r is not servable (one of %s)"
                % (spec.kind, ", ".join(SERVICE_JOB_KINDS)), request_id)
        digest = spec.without_crash_drill().digest()
        deadline_s = float(frame.get("deadline_s")
                           or self.policy.default_deadline_s)
        with self._lock:
            if digest in self._quarantine:
                self.stats.requests_rejected_poison += 1
                return error_response(
                    "poison", "job quarantined after killing %d worker(s) "
                    "(first at service log seq %d)"
                    % (self.policy.poison_kills, self._quarantine[digest]),
                    request_id)
            if len(self._pending) >= self.policy.reject_depth:
                self.stats.requests_rejected_overload += 1
                return error_response(
                    "overloaded", "queue depth %d >= reject watermark %d"
                    % (len(self._pending), self.policy.reject_depth),
                    request_id)
            request = Request(request_id or spec.job_id, spec, deadline_s)
            self._pending.append(request)
            self.stats.requests_accepted += 1
        self._log_event("accept", request_id=request.request_id,
                        job_id=spec.job_id, deadline_s=deadline_s)
        # wait for the dispatcher; small slack past the deadline so the
        # dispatcher's own deadline handling answers first
        request.done.wait(request.deadline_s + 10.0)
        if request.response is None:
            # backstop only — the dispatcher should have answered
            self.stats.requests_deadline_expired += 1
            request.client_gone = True
            return error_response("deadline",
                                  "no result within deadline", request_id)
        return request.response

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------

    def _dispatch_loop(self):
        while True:
            now = time.perf_counter()
            self._expire_queued(now)
            self._dispatch_ready(now)
            for tag, worker, body in self.pool.poll(self.policy.poll_s):
                if tag == "done":
                    request, worker.inflight = worker.inflight, None
                    self._complete_done(request, body)
                elif tag == "exit":
                    self._handle_exit(worker, body)
            self._check_deadlines(time.perf_counter())
            self._recycle_unhealthy_idle()
            if self._draining.is_set():
                with self._lock:
                    idle_pending = not self._pending
                if idle_pending and not self.pool.busy_workers():
                    break
        # give client handlers a bounded moment to flush the responses
        # just set before tearing the process down
        flush_deadline = time.perf_counter() + 2.0
        for thread in self._client_threads:
            thread.join(timeout=max(0.0,
                                    flush_deadline - time.perf_counter()))
        self.pool.stop()
        # drain is not done until the monitoring debt is paid: finish
        # every queued verification before declaring ourselves drained
        with self._verify_cond:
            self._verify_stop = True
            self._verify_cond.notify_all()
        if self._verifier is not None:
            self._verifier.join(timeout=60.0)
        try:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)
        except OSError:
            pass
        if self._owned_root is not None:
            shutil.rmtree(self._owned_root, ignore_errors=True)
        self._drained.set()

    def _expire_queued(self, now):
        """Answer queued requests whose deadline passed before dispatch."""
        with self._lock:
            expired = [r for r in self._pending if r.expired(now)]
            for request in expired:
                self._pending.remove(request)
        for request in expired:
            self._fail_deadline(request, "expired in queue")

    def _dispatch_ready(self, now):
        idle = self.pool.idle_workers()
        if not idle:
            return
        with self._lock:
            ready = []
            for worker in idle:
                picked = None
                for request in self._pending:
                    if request.not_before <= now:
                        picked = request
                        break
                if picked is None:
                    break
                self._pending.remove(picked)
                ready.append((worker, picked))
        for worker, request in ready:
            request.worker_id = worker.worker_id
            self._log_event("dispatch", request_id=request.request_id,
                            worker_id=worker.worker_id,
                            attempt=request.attempt)
            self.pool.dispatch(worker, request.dispatch_dict(), request)

    def _complete_done(self, request, body):
        ok = bool(body.get("ok"))
        if ok:
            self.stats.requests_completed += 1
        else:
            self.stats.requests_failed += 1
        result = {
            "job_id": body.get("job_id"), "kind": body.get("kind"),
            "ok": ok, "error": body.get("error"),
            "payload": body.get("payload"),
            "elapsed_s": body.get("elapsed_s", 0.0),
            "worker_id": request.worker_id, "attempt": request.attempt,
        }
        # respond first, verify after: monitoring never adds client
        # latency; a verification failure lands in stats and the
        # service log, not in this (already correct-by-digest) response
        self._respond(request, ok_response(request.request_id,
                                           result=result))
        self._maybe_verify(request, body)

    def _maybe_verify(self, request, body):
        """Queue a completed run job's journal for replay verification —
        unless the monitoring debt already sits at the shed watermark.
        Verification runs on the verifier thread, never on the dispatch
        or response path: monitoring sheds before any request slows
        down, the same ordering the pressure plane uses in-process. A
        verification failure is a detection-integrity incident: it
        lands in stats and the service log (it cannot land in the
        response, which was already sent)."""
        if (not self.policy.verify or not body.get("ok")
                or request.spec.kind != "run"
                or not body.get("journal_path")
                or not os.path.exists(body["journal_path"])):
            return
        with self._verify_cond:
            if len(self._verify_queue) >= self.policy.shed_depth:
                self.stats.verifications_shed += 1
                return
            self._verify_queue.append((request, body))
            self._verify_cond.notify()

    def _verify_loop(self):
        while True:
            with self._verify_cond:
                while not self._verify_queue and not self._verify_stop:
                    self._verify_cond.wait(timeout=0.2)
                if not self._verify_queue:
                    if self._verify_stop:
                        return
                    continue
                request, body = self._verify_queue.popleft()
            self.stats.verifications += 1
            if not verify_journal(request.spec.source, body["journal_path"],
                                  self.policy.verify_backend):
                self.stats.verification_failures += 1
                self._log_event("verify-failure",
                                job_id=request.spec.job_id,
                                request_id=request.request_id,
                                journal_path=body["journal_path"])

    def _respond(self, request, response):
        self._log_event("respond", request_id=request.request_id,
                        ok=bool(response.get("ok")))
        request.response = response
        request.done.set()

    def _fail_deadline(self, request, detail):
        self.stats.requests_deadline_expired += 1
        self._log_event("deadline", request_id=request.request_id,
                        job_id=request.spec.job_id, attempt=request.attempt,
                        detail=detail)
        self._respond(request, error_response(
            "deadline", "deadline of %.3fs exceeded (%s)"
            % (request.deadline_s, detail), request.request_id))

    def _check_deadlines(self, now):
        """A live-but-stuck worker (fresh heartbeat, no result) past its
        request's deadline is force-recycled; the client gets a
        structured deadline error."""
        for worker in self.pool.busy_workers():
            request = worker.inflight
            if not request.expired(now):
                continue
            worker.inflight = None
            self._log_event("recycle", worker_id=worker.worker_id,
                            reason="deadline", job_id=request.spec.job_id)
            self.stats.workers_recycled += 1
            self.pool.recycle(worker, force=True)
            self._fail_deadline(request, "worker %s stuck"
                                % worker.worker_id)

    def _handle_exit(self, worker, salvaged):
        """A dead worker (already replaced by the pool, its journal
        salvaged) gets its request retried with backoff on a fresh
        worker — or quarantined as poison once it has killed
        ``poison_kills`` workers."""
        request = worker.inflight
        self.stats.workers_crashed += 1
        self.stats.workers_recycled += 1
        self.stats.frames_salvaged += salvaged.frames
        self._log_event(
            "recovery", worker_id=worker.worker_id,
            exitcode=worker.process.exitcode,
            job_id=request.spec.job_id if request else None,
            frames_salvaged=salvaged.frames, torn=salvaged.torn)
        if request is None:
            return
        request.kills += 1
        digest = request.spec.without_crash_drill().digest()
        if request.kills >= self.policy.poison_kills:
            event = self._log_event(
                "poison-quarantine", job_id=request.spec.job_id,
                digest=digest, kills=request.kills)
            with self._lock:
                self._quarantine[digest] = event["seq"]
            self.stats.poison_quarantined += 1
            self._respond(request, error_response(
                "poison", "job killed %d worker(s); quarantined"
                % request.kills, request.request_id))
        elif request.attempt < self.policy.max_retries:
            request.attempt += 1
            backoff = self.policy.backoff_for(request.attempt)
            request.not_before = time.perf_counter() + backoff
            self.stats.retries += 1
            self._log_event("retry", request_id=request.request_id,
                            job_id=request.spec.job_id,
                            attempt=request.attempt,
                            backoff_s=round(backoff, 4))
            with self._lock:
                self._pending.append(request)
        else:
            self.stats.requests_failed += 1
            self._respond(request, error_response(
                "internal", "worker died %d time(s); retries exhausted"
                % request.kills, request.request_id))

    def _recycle_unhealthy_idle(self):
        """Recycle idle workers past the RSS ceiling or the jobs cap."""
        policy = self.policy
        for worker in self.pool.idle_workers():
            if (policy.rss_limit_kb is not None
                    and worker.rss_kb > policy.rss_limit_kb):
                reason = ("rss %dKiB > limit %dKiB"
                          % (worker.rss_kb, policy.rss_limit_kb))
            elif (policy.max_jobs_per_worker is not None
                  and worker.jobs_served >= policy.max_jobs_per_worker):
                reason = ("served %d jobs >= cap %d"
                          % (worker.jobs_served, policy.max_jobs_per_worker))
            else:
                continue
            self._log_event("recycle", worker_id=worker.worker_id,
                            reason=reason)
            self.stats.workers_recycled += 1
            self.pool.recycle(worker)


__all__ = ["KivatiDaemon", "Request", "SERVICE_JOB_KINDS", "ServicePolicy",
           "ServiceStats"]
