"""Conflict-aware scheduling benchmark (``BENCH_conflict.json``).

Measures what the static conflict analysis buys at run time: with
``KivatiConfig(conflict_sched=True)`` the machine scheduler consults the
per-AR footprints (:mod:`repro.analysis.footprint`) and avoids
co-scheduling threads whose atomic regions may touch the same shared
words — turning would-be suspensions and undos into cheap queue
reorderings (or brief core stalls when every runnable thread conflicts).

The benchmark runs the 5-app suite at an oversubscribed core count
(more live threads than cores — the regime where the policy engages)
base vs conflict-scheduled, and gates on three claims:

- **wins**: suspensions + undos drop on at least ``MIN_IMPROVED`` of the
  apps (SPEC OMP is lock-disciplined and has none to remove; it must
  merely stay at zero);
- **verdict transparency**: over the 11-bug corpus under the standard
  detection configuration, the violation-verdict multisets are
  *identical* with the policy on, and every bug is still detected — the
  scheduler may move windows in time, never change what Kivati reports
  (the corpus runs one core per thread, where the policy's
  oversubscription gate keeps it inert by construction);
- **replayability**: a journaled conflict-scheduled run replays
  deterministically, ``csched`` frames and all.

The artifact (schema ``kivati-conflictbench/v1``) is committed as
``BENCH_conflict.json``; ``validate`` is the CI gate.
"""

from repro.bench.schema import check_schema
from repro.bench.render import Table
from repro.bench.scale import corpus_config
from repro.core.config import KivatiConfig
from repro.core.session import ProtectedProgram
from repro.journal.replay import record_run, replay_run, report_verdicts
from repro.workloads.bugs import BUGS
from repro.workloads.catalog import workload_suite
from repro.workloads.driver import detect_bug

SCHEMA = "kivati-conflictbench/v1"
DEFAULT_SEEDS = (0, 1, 2, 3)
DEFAULT_CORES = 2
DEFAULT_SCALE = 1.0
#: apps whose suspensions+undos must drop for the artifact to validate
MIN_IMPROVED = 3
#: seed stride matches detect_bug's campaign stride
CORPUS_SEEDS = (0, 7919, 15838)


def _totals(stats):
    return stats.suspensions + stats.undos


def app_series(scale=DEFAULT_SCALE, seeds=DEFAULT_SEEDS):
    """Base vs conflict-scheduled stats per application."""
    rows = []
    for workload in workload_suite(scale=scale):
        program = ProtectedProgram(workload.source)
        base_susp = base_undo = 0
        conf_susp = conf_undo = 0
        decisions = defers = forced = 0
        for seed in seeds:
            base = program.run(
                KivatiConfig(num_cores=DEFAULT_CORES, seed=seed)).stats
            conf = program.run(
                KivatiConfig(num_cores=DEFAULT_CORES, seed=seed,
                             conflict_sched=True)).stats
            base_susp += base.suspensions
            base_undo += base.undos
            conf_susp += conf.suspensions
            conf_undo += conf.undos
            decisions += conf.conflict_sched_decisions
            defers += conf.conflict_defers
            forced += conf.conflict_forced_fifo
        base_total = base_susp + base_undo
        conf_total = conf_susp + conf_undo
        rows.append({
            "app": workload.name,
            "threads": workload.threads,
            "base_suspensions": base_susp,
            "base_undos": base_undo,
            "base_total": base_total,
            "conf_suspensions": conf_susp,
            "conf_undos": conf_undo,
            "conf_total": conf_total,
            "decisions": decisions,
            "defers": defers,
            "forced_fifo": forced,
            "verdict": ("improved" if conf_total < base_total
                        else "same" if conf_total == base_total
                        else "regressed"),
        })
    return rows


def corpus_transparency(bug_ids=None, seeds=CORPUS_SEEDS):
    """Violation-verdict multisets base vs conflict-scheduled, per bug
    and seed, under the detection configuration."""
    diffs = []
    checked = 0
    for bug_id in sorted(bug_ids or BUGS):
        program = ProtectedProgram(BUGS[bug_id].source)
        for seed in seeds:
            base = program.run(corpus_config(seed=seed))
            conf = program.run(corpus_config(seed=seed, conflict_sched=True))
            checked += 1
            if report_verdicts(base) != report_verdicts(conf):
                diffs.append({"bug": bug_id, "seed": seed})
    return {"runs_checked": checked, "diffs": diffs,
            "identical": not diffs}


def corpus_recall(bug_ids=None):
    """Every corpus bug must still be caught with the policy on."""
    missed = []
    checked = 0
    for bug_id in sorted(bug_ids or BUGS):
        result = detect_bug(BUGS[bug_id],
                            config=corpus_config(conflict_sched=True))
        checked += 1
        if not result.detected:
            missed.append(bug_id)
    return {"bugs_checked": checked, "missed": missed,
            "all_detected": not missed}


def replay_determinism(scale=DEFAULT_SCALE, seed=0):
    """Journal one conflict-scheduled app run and replay it pinned."""
    workload = next(w for w in workload_suite(scale=scale)
                    if w.name == "VLC")
    program = ProtectedProgram(workload.source)
    _, recorder = record_run(
        program, KivatiConfig(num_cores=DEFAULT_CORES, seed=seed,
                              conflict_sched=True))
    result = replay_run(program, recorder)
    csched = sum(1 for e in recorder.events if e.kind == "csched")
    return {"app": workload.name, "seed": seed,
            "recorded_events": len(recorder.events),
            "csched_frames": csched,
            "ok": bool(result.ok),
            "verdicts_match": bool(result.verdicts_match)}


def generate(smoke=False):
    """Run the full benchmark; returns the artifact dict.

    ``smoke`` shrinks everything (CI-sized: one seed, reduced scale, a
    3-bug corpus slice) and relaxes the improvement gate — a smoke
    artifact proves the machinery runs, not the performance claim.
    """
    if smoke:
        scale, seeds = 0.4, DEFAULT_SEEDS[:1]
        corpus_bugs, corpus_seeds = sorted(BUGS)[:3], (0,)
    else:
        scale, seeds = DEFAULT_SCALE, DEFAULT_SEEDS
        corpus_bugs, corpus_seeds = None, CORPUS_SEEDS
    apps = app_series(scale=scale, seeds=seeds)
    improved = [r["app"] for r in apps if r["verdict"] == "improved"]
    regressed = [r["app"] for r in apps if r["verdict"] == "regressed"]
    return {
        "schema": SCHEMA,
        "smoke": bool(smoke),
        "scale": scale,
        "seeds": list(seeds),
        "num_cores": DEFAULT_CORES,
        "apps": apps,
        "improved": improved,
        "regressed": regressed,
        "min_improved": 0 if smoke else MIN_IMPROVED,
        "corpus": corpus_transparency(bug_ids=corpus_bugs,
                                      seeds=corpus_seeds),
        "recall": corpus_recall(bug_ids=corpus_bugs),
        "replay": replay_determinism(scale=scale, seed=seeds[0]),
    }


def validate(payload):
    """Schema/invariant problems with a conflictbench artifact (empty
    list = valid).  The improvement gate is ``MIN_IMPROVED``, waived
    for smoke artifacts."""
    problems = check_schema(payload, SCHEMA)
    if not isinstance(payload, dict):
        return problems
    apps = payload.get("apps")
    if not isinstance(apps, list) or not apps:
        return problems + ["apps missing or empty"]
    for row in apps:
        for key in ("app", "base_total", "conf_total", "decisions",
                    "verdict"):
            if key not in row:
                problems.append("app row missing %r" % key)
    if not payload.get("smoke") and len(apps) != 5:
        problems.append("expected 5 apps, got %d" % len(apps))
    want = 0 if payload.get("smoke") else MIN_IMPROVED
    improved = payload.get("improved") or []
    if len(improved) < want:
        problems.append("only %d apps improved, need >=%d (%s)"
                        % (len(improved), want, ", ".join(improved) or "-"))
    corpus = payload.get("corpus") or {}
    if not corpus.get("identical"):
        problems.append("corpus verdict multisets differ: %s"
                        % corpus.get("diffs"))
    recall = payload.get("recall") or {}
    if not recall.get("all_detected"):
        problems.append("corpus recall lost bugs: %s"
                        % recall.get("missed"))
    replay = payload.get("replay") or {}
    if not replay.get("ok") or not replay.get("verdicts_match"):
        problems.append("conflict-scheduled replay diverged")
    if not payload.get("smoke") and not replay.get("csched_frames"):
        problems.append("replayed run journaled no csched frames "
                        "(policy never engaged?)")
    return problems


def render(payload):
    table = Table(
        "Conflict-aware scheduling: suspensions+undos, base vs "
        "conflict_sched (%d cores, seeds %s, scale %s)"
        % (payload["num_cores"],
           ",".join(str(s) for s in payload["seeds"]), payload["scale"]),
        ["app", "base s/u", "conf s/u", "total", "decisions", "defers",
         "forced", "verdict"],
        note="totals are suspensions+undos summed over seeds; decisions "
             "count queue reorderings and stalls the footprint policy "
             "made; corpus verdicts %s, recall %s, replay %s"
             % ("identical" if payload["corpus"]["identical"] else "DIFFER",
                "complete" if payload["recall"]["all_detected"] else "LOST",
                "deterministic" if payload["replay"]["ok"] else "DIVERGED"),
    )
    for row in payload["apps"]:
        table.add_row(
            row["app"],
            "%d/%d" % (row["base_suspensions"], row["base_undos"]),
            "%d/%d" % (row["conf_suspensions"], row["conf_undos"]),
            "%d -> %d" % (row["base_total"], row["conf_total"]),
            row["decisions"], row["defers"], row["forced_fifo"],
            row["verdict"])
    return table.render()


__all__ = ["MIN_IMPROVED", "SCHEMA", "app_series", "corpus_recall",
           "corpus_transparency", "generate", "render",
           "replay_determinism", "validate"]
