"""Observability-overhead benchmark (``BENCH_obs.json``).

The obs plane (:mod:`repro.obs`) promises to be *free when off* and
*transparent when on*: enabling the metrics registry and VM profiler
must not change a single verdict, stat, or simulated nanosecond, and
must cost at most ``BUDGET`` of instructions/sec on the 5-app suite.
This benchmark measures and gates exactly those claims:

- **overhead**: per app, obs-on vs obs-off wall cost as the *median of
  paired ratios* — each round runs both configurations back to back
  (alternating which goes first) on the CPU-time clock, so host noise
  and drift cancel instead of biasing one side.  A plain min-of-N on
  this class of shared container swings +-15% run to run; the paired
  median is stable to a couple of percent;
- **verdicts**: over the bug corpus, the violation-verdict multisets
  are bit-identical obs-on vs obs-off;
- **digests**: per app, a canonical digest over (stats, violations,
  final time, journal event stream) is identical obs-on vs obs-off,
  and a small fleet batch aggregates to the same digest whether or not
  the supervising process carries an obs plane;
- **determinism**: the metrics export and the Chrome-trace span export
  are byte-identical across 2 fresh processes x 2 PYTHONHASHSEED
  values;
- **sentinel**: the perf-regression sentinel (:mod:`repro.obs.regress`)
  passes an artifact diffed against itself and flags a synthetically
  regressed copy.

The artifact (schema ``kivati-obsbench/v1``) is committed as
``BENCH_obs.json``; ``validate`` is the CI gate.  A ``smoke`` artifact
(CI-sized, overhead budget ``SMOKE_BUDGET``) proves the machinery runs —
shared CI runners cannot honestly gate a 5% timing claim.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from repro.bench.schema import check_schema
from repro.bench.render import Table
from repro.bench.scale import corpus_config
from repro.core.config import KivatiConfig
from repro.core.session import ProtectedProgram
from repro.fleet.jobs import app_run_jobs
from repro.fleet.supervisor import FleetPolicy, FleetSupervisor
from repro.journal.replay import record_run, report_verdicts
from repro.obs import ObsPlane, compare_artifacts
from repro.workloads.bugs import BUGS
from repro.workloads.catalog import workload_suite

SCHEMA = "kivati-obsbench/v1"
#: obs-on may cost at most this fraction of obs-off instructions/sec
BUDGET = 0.05
#: the smoke budget: CI runners are too noisy for a timing claim
SMOKE_BUDGET = 1.0
#: paired measurement rounds per app (each round = one off + one on run)
DEFAULT_ROUNDS = 10
DEFAULT_SCALE = 0.2
#: seed stride matches detect_bug's campaign stride
CORPUS_SEEDS = (0, 7919, 15838)
#: PYTHONHASHSEED values for the cross-process byte-identity check
HASH_SEEDS = ("0", "12345")


def _run_pair(program, seed, on_first):
    """One paired measurement round: run obs-off and obs-on adjacently
    on the CPU-time clock; returns ``(off_s, on_s)``."""

    def timed(obs):
        config = KivatiConfig(seed=seed, obs=obs)
        t0 = time.process_time()
        program.run(config)
        return time.process_time() - t0

    if on_first:
        on = timed(ObsPlane())
        off = timed(None)
    else:
        off = timed(None)
        on = timed(ObsPlane())
    return off, on


def overhead_series(scale=DEFAULT_SCALE, rounds=DEFAULT_ROUNDS, seed=0):
    """Per-app overhead via median of paired obs-on/obs-off ratios."""
    rows = []
    all_ratios = []
    for workload in workload_suite(scale=scale):
        program = ProtectedProgram(workload.source)
        _run_pair(program, seed, False)  # warm caches before measuring
        ratios = []
        off_total = on_total = 0.0
        instrs = ProtectedProgram(workload.source).run(
            KivatiConfig(seed=seed)).result.instr_count
        for r in range(rounds):
            off, on = _run_pair(program, seed, on_first=r % 2 == 1)
            off_total += off
            on_total += on
            ratios.append(on / off)
        frac = statistics.median(ratios) - 1.0
        all_ratios.extend(ratios)
        rows.append({
            "app": workload.name,
            "instrs": instrs,
            "rounds": rounds,
            "off_s": round(off_total, 4),
            "on_s": round(on_total, 4),
            "base_instrs_per_sec": round(instrs * rounds / off_total, 1),
            "obs_instrs_per_sec": round(instrs * rounds / on_total, 1),
            "overhead_frac": round(frac, 4),
        })
    overall = statistics.median(all_ratios) - 1.0
    return {"apps": rows, "overall_frac": round(overall, 4),
            "max_frac": round(max(r["overhead_frac"] for r in rows), 4),
            "rounds": rounds, "scale": scale,
            "clock": "process_time", "estimator": "median-paired-ratio"}


def corpus_transparency(bug_ids=None, seeds=CORPUS_SEEDS):
    """Violation-verdict multisets obs-off vs obs-on, per bug and seed,
    under the detection configuration."""
    diffs = []
    checked = 0
    for bug_id in sorted(bug_ids or BUGS):
        program = ProtectedProgram(BUGS[bug_id].source)
        for seed in seeds:
            base = program.run(corpus_config(seed=seed))
            obs = program.run(corpus_config(seed=seed, obs=ObsPlane()))
            checked += 1
            if report_verdicts(base) != report_verdicts(obs):
                diffs.append({"bug": bug_id, "seed": seed})
    return {"runs_checked": checked, "diffs": diffs,
            "identical": not diffs}


def _report_digest(report, recorder):
    """Canonical digest over everything a run reports: stats, verdicts,
    final simulated time, and the journal event stream."""
    payload = {
        "stats": report.stats.as_dict(),
        "violations": report_verdicts(report),
        "time_ns": report.result.time_ns,
        "instr_count": report.result.instr_count,
        "events": [(e.seq, e.time_ns, e.tid, e.kind,
                    sorted(e.payload.items()))
                   for e in recorder.events],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)  # journal payloads carry enums
    return hashlib.sha256(blob.encode()).hexdigest()


def digest_identity(scale=DEFAULT_SCALE, seed=0, fleet_jobs=True):
    """Per-app journaled-run digests obs-off vs obs-on, plus a fleet
    batch aggregated with and without a supervisor-side obs plane."""
    apps = []
    for workload in workload_suite(scale=scale):
        program = ProtectedProgram(workload.source)
        base_rep, base_rec = record_run(program, KivatiConfig(seed=seed))
        obs_rep, obs_rec = record_run(
            program, KivatiConfig(seed=seed, obs=ObsPlane()))
        base_digest = _report_digest(base_rep, base_rec)
        obs_digest = _report_digest(obs_rep, obs_rec)
        apps.append({"app": workload.name,
                     "digest": base_digest,
                     "equal": base_digest == obs_digest})
    out = {"apps": apps, "all_equal": all(a["equal"] for a in apps)}
    if fleet_jobs:
        # obs lives in the supervising process; folding a batch's stats
        # into a registry must not perturb the aggregate digest
        specs = app_run_jobs(corpus_config(), seeds=(seed,), scale=scale,
                             prefix="obsbench")
        policy = FleetPolicy(workers=1, verify=False)
        digests = []
        for obs in (None, ObsPlane()):
            supervisor = FleetSupervisor(workers=0, policy=policy)
            result = supervisor.run_jobs(specs)
            if obs is not None:
                obs.registry.ingest_stats(result.stats,
                                          prefix="kivati.fleet.")
            digests.append(result.aggregate().digest())
        out["fleet"] = {"jobs": len(specs), "digest": digests[0],
                        "equal": digests[0] == digests[1]}
        out["all_equal"] = out["all_equal"] and out["fleet"]["equal"]
    return out


#: subprocess body for the cross-process byte-identity check: runs one
#: journaled, obs-enabled bug run and prints a digest of the metrics
#: export and the span export
_DETERMINISM_SCRIPT = """\
import hashlib, json, sys
from repro.core.config import KivatiConfig
from repro.core.session import ProtectedProgram
from repro.journal.replay import record_run
from repro.obs import ObsPlane
from repro.obs.spans import journal_trace_events, render_chrome_trace
from repro.workloads.bugs import BUGS

bug_id = sys.argv[1]
obs = ObsPlane()
program = ProtectedProgram(BUGS[bug_id].source)
report, recorder = record_run(program, KivatiConfig(seed=7, obs=obs))
metrics_blob = json.dumps(obs.snapshot(), sort_keys=True,
                          separators=(",", ":"))
trace_blob = render_chrome_trace(journal_trace_events(recorder.events))
print(hashlib.sha256(metrics_blob.encode()).hexdigest(),
      hashlib.sha256(trace_blob.encode()).hexdigest(),
      len(metrics_blob), len(trace_blob))
"""


def export_determinism(bug_id=None, hash_seeds=HASH_SEEDS, procs=2):
    """Byte-identity of metrics + span exports across fresh processes
    and PYTHONHASHSEED values."""
    bug_id = bug_id or sorted(BUGS)[0]
    outputs = set()
    runs = 0
    for hs in hash_seeds:
        for _ in range(procs):
            env = dict(os.environ, PYTHONHASHSEED=hs)
            env.setdefault("PYTHONPATH", "")
            out = subprocess.run(
                [sys.executable, "-c", _DETERMINISM_SCRIPT, bug_id],
                env=env, capture_output=True, text=True, check=True)
            outputs.add(out.stdout.strip())
            runs += 1
    sample = next(iter(outputs)).split() if outputs else []
    return {"bug": bug_id, "processes": runs,
            "hash_seeds": list(hash_seeds),
            "distinct_outputs": len(outputs),
            "ok": len(outputs) == 1,
            "metrics_bytes": int(sample[2]) if len(sample) == 4 else None,
            "trace_bytes": int(sample[3]) if len(sample) == 4 else None}


def sentinel_selfcheck():
    """The regression sentinel must pass an identical diff and flag a
    synthetic regression."""
    base = {"schema": "kivati-selftest/v1", "jobs_per_sec": 100.0,
            "recall": 1.0, "deterministic": True, "elapsed_s": 10.0}
    clean = compare_artifacts(base, dict(base))
    regressed = dict(base, jobs_per_sec=80.0, deterministic=False)
    dirty = compare_artifacts(base, regressed)
    return {
        "identical_pass": clean.ok and not clean.regressions,
        "synthetic_flagged": not dirty.ok,
        "synthetic_regressions": len(dirty.regressions),
        "ok": (clean.ok and not clean.regressions and not dirty.ok
               and len(dirty.regressions) == 2),
    }


def hot_profile(scale=DEFAULT_SCALE, seed=0, top=5):
    """Deterministic per-app hot-opcode table (dispatch shares)."""
    rows = []
    for workload in workload_suite(scale=scale):
        obs = ObsPlane()
        ProtectedProgram(workload.source).run(
            KivatiConfig(seed=seed, obs=obs))
        profiler = obs.profiler
        counts = profiler.named_op_counts()
        total = sum(counts.values())
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        rows.append({
            "app": workload.name,
            "dispatches": total,
            "wp_checks": profiler.wp_checks,
            "wp_hit_rate": round(profiler.wp_hit_rate, 6),
            "top_ops": [{"op": name, "count": n,
                         "share": round(n / total, 4)}
                        for name, n in ranked[:top]],
        })
    return rows


def generate(smoke=False):
    """Run the full benchmark; returns the artifact dict.

    ``smoke`` shrinks everything (fewer rounds, reduced scale, a 3-bug
    corpus slice) and relaxes the overhead budget — a smoke artifact
    proves transparency and determinism, not the timing claim.
    """
    if smoke:
        scale, rounds = 0.15, 4
        corpus_bugs, corpus_seeds = sorted(BUGS)[:3], (0,)
    else:
        scale, rounds = DEFAULT_SCALE, DEFAULT_ROUNDS
        corpus_bugs, corpus_seeds = None, CORPUS_SEEDS
    return {
        "schema": SCHEMA,
        "smoke": bool(smoke),
        "budget": SMOKE_BUDGET if smoke else BUDGET,
        "overhead": overhead_series(scale=scale, rounds=rounds),
        "verdicts": corpus_transparency(bug_ids=corpus_bugs,
                                        seeds=corpus_seeds),
        "digests": digest_identity(scale=scale),
        "determinism": export_determinism(),
        "sentinel": sentinel_selfcheck(),
        "profile": hot_profile(scale=scale),
    }


def validate(payload):
    """Schema/invariant problems with an obsbench artifact (empty list
    = valid).  The overhead gate is ``BUDGET`` (``SMOKE_BUDGET`` for
    smoke artifacts)."""
    problems = check_schema(payload, SCHEMA,
                            required=("budget", "overhead", "verdicts",
                                      "digests", "determinism",
                                      "sentinel"))
    if not isinstance(payload, dict):
        return problems
    budget = SMOKE_BUDGET if payload.get("smoke") else BUDGET
    overhead = payload.get("overhead") or {}
    apps = overhead.get("apps")
    if not isinstance(apps, list) or not apps:
        problems.append("overhead.apps missing or empty")
    else:
        if not payload.get("smoke") and len(apps) != 5:
            problems.append("expected 5 apps, got %d" % len(apps))
        for row in apps:
            frac = row.get("overhead_frac")
            if frac is None:
                problems.append("app row missing overhead_frac")
            elif frac > budget:
                problems.append("%s overhead %.3f above budget %.3f"
                                % (row.get("app"), frac, budget))
    overall = overhead.get("overall_frac")
    if overall is not None and overall > budget:
        problems.append("overall overhead %.3f above budget %.3f"
                        % (overall, budget))
    verdicts = payload.get("verdicts") or {}
    if not verdicts.get("identical"):
        problems.append("corpus verdict multisets differ obs-on: %s"
                        % verdicts.get("diffs"))
    digests = payload.get("digests") or {}
    if not digests.get("all_equal"):
        problems.append("run digests differ obs-on vs obs-off")
    determinism = payload.get("determinism") or {}
    if not determinism.get("ok"):
        problems.append("exports not byte-identical across processes "
                        "(%s distinct outputs)"
                        % determinism.get("distinct_outputs"))
    sentinel = payload.get("sentinel") or {}
    if not sentinel.get("ok"):
        problems.append("regression sentinel self-check failed: %s"
                        % sentinel)
    return problems


def render(payload):
    overhead = payload["overhead"]
    table = Table(
        "Observability overhead: obs-on vs obs-off instructions/sec "
        "(%d paired rounds/app, %s clock, budget %.0f%%)"
        % (overhead.get("rounds", 0), overhead.get("clock", "?"),
           100 * payload["budget"]),
        ["app", "instrs", "base i/s", "obs i/s", "overhead"],
        note="overhead is the median of paired on/off ratios (drift-"
             "immune); verdicts %s, digests %s, exports %s, sentinel %s"
             % ("identical" if payload["verdicts"]["identical"]
                else "DIFFER",
                "equal" if payload["digests"]["all_equal"] else "DIFFER",
                "byte-identical" if payload["determinism"]["ok"]
                else "DIVERGE",
                "ok" if payload["sentinel"]["ok"] else "BROKEN"),
    )
    for row in overhead["apps"]:
        table.add_row(row["app"], row["instrs"],
                      "%.0f" % row["base_instrs_per_sec"],
                      "%.0f" % row["obs_instrs_per_sec"],
                      "%+.1f%%" % (100 * row["overhead_frac"]))
    return table.render()


__all__ = ["BUDGET", "CORPUS_SEEDS", "SCHEMA", "corpus_transparency",
           "digest_identity", "export_determinism", "generate",
           "hot_profile", "overhead_series", "render",
           "sentinel_selfcheck", "validate"]
