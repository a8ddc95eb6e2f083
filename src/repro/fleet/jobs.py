"""Job wire format for the fleet execution plane.

A :class:`JobSpec` is everything a worker in another process needs to
execute one unit of work: the mini-C source text, a config snapshot
(the same codec the journal's run-start header uses, so fleet jobs and
journals stay mutually replayable), a seed, and kind-specific params.
Specs and results cross the process boundary as plain dicts of JSON
types only — no live objects — so the same job can be executed inline,
on a forked worker, on a spawned worker, or re-read from disk, with
byte-identical payloads.

Job kinds:

- ``run``     one protected run; payload = RunReport.as_payload()
- ``train``   one federated-training shard: each seed runs with the
              round's *frozen* whitelist; payload = new FPs per seed
- ``detect``  one Table-6-style detection campaign for one corpus bug
- ``suite``   one application's full (opt level x mode) measurement
              pass for ``run_suite --jobs``; payload carries pickled
              report objects and is intentionally not JSON/digestable
- ``fuzz``    one generated program through the fuzz oracle: online
              detector vs offline checker vs conflict-sched
              transparency vs pinned replay; payload =
              CrossCheck.as_payload() plus program identity
"""

import hashlib
import json

from repro.errors import ConfigError
from repro.journal.snapshot import config_snapshot

JOB_KINDS = ("run", "train", "detect", "suite", "fuzz")


def canonical_json(obj):
    """Deterministic JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_of(obj):
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


class JobSpec:
    """One unit of fleet work, serializable as a plain dict."""

    __slots__ = ("job_id", "kind", "source", "snapshot", "seed", "params")

    def __init__(self, job_id, kind, source, snapshot, seed=0, params=None):
        if kind not in JOB_KINDS:
            raise ConfigError("unknown job kind %r (known: %s)"
                              % (kind, ", ".join(JOB_KINDS)))
        if not job_id or "/" in str(job_id):
            raise ConfigError("job_id must be a non-empty path-safe string")
        self.job_id = str(job_id)
        self.kind = kind
        self.source = source
        self.snapshot = dict(snapshot)
        self.seed = seed
        self.params = dict(params) if params else {}

    @classmethod
    def for_config(cls, job_id, kind, source, config, seed=None,
                   params=None):
        """Build a spec from a live KivatiConfig via the snapshot codec.

        Per-run mutable objects (journal recorder, injector) are
        not snapshotted — the worker attaches fresh ones.
        """
        return cls(job_id, kind, source, config_snapshot(config),
                   seed=config.seed if seed is None else seed,
                   params=params)

    def as_dict(self):
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "source": self.source,
            "snapshot": self.snapshot,
            "seed": self.seed,
            "params": self.params,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(data["job_id"], data["kind"], data["source"],
                   data["snapshot"], seed=data.get("seed", 0),
                   params=data.get("params"))

    #: drill params stripped on retry; ``poison`` is deliberately NOT
    #: here — it models hostile input that kills workers on every
    #: attempt and only quarantine ends it
    RETRY_STRIPPED_DRILLS = ("crash", "stall_s")

    def without_crash_drill(self):
        """The same spec minus any recoverable drill (worker-kill
        ``crash``, live-but-stuck ``stall_s``) — retries of a crashed or
        timed-out job must outlive the recorded incident, exactly like
        recovery strips ``journal.crash`` before re-execution."""
        if not any(k in self.params for k in self.RETRY_STRIPPED_DRILLS):
            return self
        params = {k: v for k, v in self.params.items()
                  if k not in self.RETRY_STRIPPED_DRILLS}
        return JobSpec(self.job_id, self.kind, self.source, self.snapshot,
                       seed=self.seed, params=params)

    def digest(self):
        return digest_of(self.as_dict())

    def __repr__(self):
        return "JobSpec(%s, %s, seed=%d)" % (self.job_id, self.kind,
                                             self.seed)


class JobResult:
    """Outcome of one job, aggregation-ready.

    ``payload`` content is a pure function of the spec for ``ok``
    results; scheduling metadata (worker id, attempt, wall time) lives
    in separate fields and is excluded from :meth:`digest` so results
    merge identically regardless of which worker ran the job, how often
    it was retried, or in what order jobs completed.
    """

    __slots__ = ("job_id", "kind", "ok", "error", "payload", "worker_id",
                 "attempt", "elapsed_s", "journal_path", "verified",
                 "verify_shed")

    def __init__(self, job_id, kind, ok, payload, error=None, worker_id=None,
                 attempt=0, elapsed_s=0.0, journal_path=None, verified=None,
                 verify_shed=False):
        self.job_id = job_id
        self.kind = kind
        self.ok = ok
        self.error = error
        self.payload = payload
        self.worker_id = worker_id
        self.attempt = attempt
        self.elapsed_s = elapsed_s
        self.journal_path = journal_path
        #: True/False once the supervisor replay-verified the job's
        #: journal; None when verification was off, shed, or impossible
        self.verified = verified
        self.verify_shed = verify_shed

    def as_dict(self):
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "ok": self.ok,
            "error": self.error,
            "payload": self.payload,
            "worker_id": self.worker_id,
            "attempt": self.attempt,
            "elapsed_s": self.elapsed_s,
            "journal_path": self.journal_path,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(data["job_id"], data["kind"], data["ok"], data["payload"],
                   error=data.get("error"), worker_id=data.get("worker_id"),
                   attempt=data.get("attempt", 0),
                   elapsed_s=data.get("elapsed_s", 0.0),
                   journal_path=data.get("journal_path"))

    def digest(self):
        """Scheduling-independent identity of this result (JSON payloads
        only; ``suite`` jobs carry objects and are not digested)."""
        return digest_of({"job_id": self.job_id, "kind": self.kind,
                          "ok": self.ok, "payload": self.payload})

    def __repr__(self):
        return "JobResult(%s, %s)" % (
            self.job_id, "ok" if self.ok else "FAILED: %s" % self.error)


# ----------------------------------------------------------------------
# spec builders
# ----------------------------------------------------------------------

def app_run_jobs(config, workloads=None, seeds=(3,), scale=0.6,
                 prefix="run"):
    """One ``run`` job per (application, seed) over the 5-app suite."""
    from repro.workloads.catalog import workload_suite

    if workloads is None:
        workloads = workload_suite(scale=scale)
    specs = []
    for workload in workloads:
        for seed in seeds:
            specs.append(JobSpec.for_config(
                "%s-%s-s%d" % (prefix, workload.name.replace(" ", ""), seed),
                "run", workload.source, config, seed=seed,
                params={"workload": workload.name}))
    return specs


def detect_jobs(config, bug_ids=None, max_attempts=40, seed_base=0):
    """One ``detect`` job per corpus bug (the Table 6 campaign as fleet
    work). Jobs are self-contained: the bug source and victim variables
    ride in the spec, so workers need no corpus import."""
    from repro.workloads.bugs import BUGS

    if bug_ids is None:
        bug_ids = tuple(BUGS)
    specs = []
    for bug_id in bug_ids:
        bug = BUGS[bug_id]
        specs.append(JobSpec.for_config(
            "detect-%s" % bug_id, "detect", bug.source, config,
            params={"bug_id": bug_id,
                    "victim_vars": sorted(bug.victim_vars),
                    "max_attempts": max_attempts,
                    "seed_base": seed_base}))
    return specs


def train_shard_job(job_id, source, config, seeds, whitelist,
                    buggy_ar_ids=()):
    """One federated-training shard: observe new false positives on
    ``seeds`` with the round's frozen ``whitelist``."""
    return JobSpec.for_config(
        job_id, "train", source, config,
        params={"seeds": list(seeds),
                "whitelist": sorted(whitelist),
                "buggy": sorted(buggy_ar_ids)})


__all__ = ["JOB_KINDS", "JobResult", "JobSpec", "app_run_jobs",
           "canonical_json", "detect_jobs", "digest_of", "train_shard_job"]
