"""Fuzz campaigns: generated programs fanned out as fleet jobs.

A campaign is deterministic end to end: the base seed drives parameter
sampling, program generation and run seeds, so the same
``CampaignSpec`` re-runs to the same divergences, the same archive
names and the same fix outcomes — on any worker count, because the
fleet plane guarantees worker-count-independent results.

Flow: salvage the corpus → generate N programs → one ``fuzz`` JobSpec
each (every ``drill_every``-th job also runs the journal-loss drill) →
``FleetSupervisor.run_jobs`` → collect divergences (job errors, lost
jobs, failed supervisor verification, any oracle disagreement) →
ddmin-minimize each diverging program (multi-seed predicate: a
reduction survives if *any* probe seed still shows the divergence) →
archive atomically → synthesize and verify fixes for every confirmed
violation.
"""

import os
from random import Random

from repro.bench.scale import corpus_config
from repro.core.config import Mode
from repro.core.session import ProtectedProgram
from repro.fleet.jobs import JobSpec
from repro.fleet.supervisor import FleetPolicy, FleetSupervisor
from repro.fuzz.archive import archive_case, case_name, salvage_corpus
from repro.fuzz.generator import FuzzParams, generate_source
from repro.fuzz.minimize import minimize
from repro.fuzz.oracle import drilled_events
from repro.journal.checker import check_events
from repro.journal.replay import record_run, replay_run, report_verdicts

#: instruction bound for fuzz runs — generated programs finish in a few
#: thousand instructions, and minimizer candidates that lose their loop
#: increment must hit a wall quickly instead of spinning for minutes
MAX_STEPS = 100_000

#: seed stride between programs (the corpus detection stride)
SEED_STRIDE = 7919

#: probe seeds per minimizer predicate call: a reduction survives when
#: any probe still shows the divergence (schedules shift as statements
#: vanish; demanding the original seed alone rejects almost everything).
#: Probes are stride-decorrelated — adjacent seeds produce correlated
#: schedules, a wide fan is what lets ddmin drop timing-padding
#: statements
PROBE_SEEDS = 10


def fuzz_config(threads, chaos_plan=None, **overrides):
    """Detection-posture config for one generated program.

    A core per worker thread (plus main) keeps the conflict-sched
    transparency leg of the oracle meaningful: the policy must be inert
    by construction, so any verdict drift it causes is a real bug.
    """
    overrides.setdefault("num_cores", threads + 1)
    overrides.setdefault("max_steps", MAX_STEPS)
    if chaos_plan is not None:
        overrides.setdefault("faults", chaos_plan)
    return corpus_config(mode=Mode.BUG_FINDING, **overrides)


def chaos_plan(name):
    """A builtin chaos schedule minus ``journal.crash`` (a mid-campaign
    recorder crash is the *crash drill's* job; here it would just kill
    workers on every retry)."""
    from repro.faults.chaos import builtin_schedules
    from repro.faults.plan import FaultPlan

    for schedule in builtin_schedules():
        if schedule.name == name:
            specs = [s for s in schedule.plan.specs
                     if s.point != "journal.crash"]
            return FaultPlan("fuzz-%s" % name, specs)
    raise ValueError("unknown chaos schedule %r" % name)


class CampaignSpec:
    """Everything that determines a campaign (all JSON-safe)."""

    __slots__ = ("n_programs", "base_seed", "workers", "drill_every",
                 "corpus_dir", "chaos", "minimize_tests", "fix", "params",
                 "rounds")

    def __init__(self, n_programs=50, base_seed=0, workers=0, drill_every=10,
                 corpus_dir=None, chaos=None, minimize_tests=250, fix=True,
                 params=None, rounds=1):
        self.n_programs = int(n_programs)
        self.base_seed = int(base_seed)
        self.workers = int(workers)
        #: every k-th generated program also runs the drop-trigger
        #: drill (0 disables); drill divergences exercise the minimize +
        #: archive path and are labeled as drills everywhere
        self.drill_every = int(drill_every)
        self.corpus_dir = corpus_dir
        self.chaos = chaos
        self.minimize_tests = int(minimize_tests)
        self.fix = bool(fix)
        #: fixed FuzzParams for every program (None = sample per program)
        self.params = params
        #: >1 splits the batch into that many fleet rounds, rebinning
        #: each round by conflict weight sharpened with the violation
        #: history the earlier rounds accumulated (arbiter-shaped
        #: ``{ar_id: count}``); pure scheduling — results are pinned
        #: identical to the single-round campaign
        self.rounds = int(rounds)


class GeneratedProgram:
    __slots__ = ("index", "program_id", "params", "gen_seed", "run_seed",
                 "source", "drill")

    def __init__(self, index, program_id, params, gen_seed, run_seed,
                 source, drill):
        self.index = index
        self.program_id = program_id
        self.params = params
        self.gen_seed = gen_seed
        self.run_seed = run_seed
        self.source = source
        self.drill = drill


def generate_programs(spec):
    """The campaign's deterministic program list."""
    rng = Random(spec.base_seed)
    programs = []
    for index in range(spec.n_programs):
        params = (spec.params if spec.params is not None
                  else FuzzParams.sampled(rng))
        gen_seed = spec.base_seed * 1_000_003 + index
        run_seed = spec.base_seed + index * SEED_STRIDE
        drill = (spec.drill_every > 0
                 and index % spec.drill_every == spec.drill_every - 1)
        programs.append(GeneratedProgram(
            index, "fz%04d" % index, params, gen_seed, run_seed,
            generate_source(params, gen_seed),
            "drop-trigger" if drill else None))
    return programs


def build_specs(spec, programs=None):
    plan = chaos_plan(spec.chaos) if spec.chaos else None
    if programs is None:
        programs = generate_programs(spec)
    specs = []
    for prog in programs:
        config = fuzz_config(prog.params.threads, chaos_plan=plan)
        params = {"program_id": prog.program_id,
                  "gen_seed": prog.gen_seed,
                  "params": prog.params.as_dict()}
        if prog.drill:
            params["drill"] = prog.drill
        specs.append(JobSpec.for_config(
            "fuzz-%s-s%d" % (prog.program_id, prog.run_seed), "fuzz",
            prog.source, config, seed=prog.run_seed, params=params))
    return specs


# -- divergence predicates (minimizer) --------------------------------------


def _probe_seeds(run_seed):
    return [run_seed + k * 101 for k in range(PROBE_SEEDS)]


def _adapted_config(config, program):
    """``config`` with ``num_cores`` re-fitted to the program's spawn
    count (one core per worker thread plus main, like
    :func:`fuzz_config`).

    A reduction that drops a ``spawn`` must be probed under the
    matching smaller machine: keeping the original core count leaves
    dead cores that shift every schedule, which makes many legitimate
    thread-dropping reductions look uninteresting — and the archived
    config must describe the archived source, not its ancestor."""
    from repro.minic import ast as _ast

    spawns = sum(1 for node in _ast.walk(program.annotation.ast)
                 if isinstance(node, _ast.Spawn))
    cores = max(spawns, 1) + 1
    if cores == config.num_cores:
        return config
    return config.copy(num_cores=cores)


def divergence_predicate(kinds, config, run_seed, drill=None):
    """Predicate for ddmin: does the candidate still show (any of) the
    original divergence kinds under any probe seed?

    Only the checks the kinds need are re-run, so a minimization is a
    few recordings per candidate, not the full oracle.  All failures
    (parse, deadlock-free timeout, machine errors) count as "not
    interesting" — ddmin simply keeps looking.  The probe seed that
    last exhibited the divergence is tried first: successful reductions
    almost always keep diverging under the same seed, so the common
    accept path costs one recording instead of PROBE_SEEDS.
    """
    kinds = set(kinds)
    last_hit = [run_seed]

    def predicate(source):
        try:
            program = ProtectedProgram(source)
        except Exception:
            return False
        cand_config = _adapted_config(config, program)
        seeds = _probe_seeds(run_seed)
        seeds.sort(key=lambda s: s != last_hit[0])
        for seed in seeds:
            try:
                if _diverges(program, cand_config, seed, kinds, drill):
                    last_hit[0] = seed
                    return True
            except Exception:
                continue
        return False

    return predicate


def _diverges(program, config, seed, kinds, drill):
    """One probe: does this (program, seed) show any of ``kinds``?"""
    report, recorder = record_run(program, config, seed=seed)
    if "deadlock" in kinds and report.result.deadlocked:
        return True
    if kinds & {"reverify", "report", "checker"}:
        check = check_events(recorder.events)
        if (kinds & {"reverify", "report"}
                and (check.disagreements or check.anomalies
                     or check.verdicts != report_verdicts(report))):
            return True
        if "checker" in kinds and not check.complete:
            return True
    if kinds & {"drill-reverify", "checker"} and drill:
        lossy = drilled_events(recorder.events, drill)
        drilled = check_events(lossy)
        if "drill-reverify" in kinds and drilled.disagreements:
            return True
        if ("checker" in kinds and drilled.complete
                and len(lossy) < len(recorder.events)):
            return True
    if "replay" in kinds:
        replay = replay_run(program, recorder)
        if not replay.ok or not replay.verdicts_match:
            return True
    if "conflict" in kinds:
        from repro.fuzz.oracle import conflict_transparency

        if not conflict_transparency(program, config, seed):
            return True
    return False


def _find_diverging_seed(program, config, run_seed, kinds, drill):
    """Seed whose recording exhibits the divergence (for the archived
    journal); falls back to the original run seed."""
    config = _adapted_config(config, program)
    for seed in _probe_seeds(run_seed):
        try:
            if _diverges(program, config, seed, kinds, drill):
                _, recorder = record_run(program, config, seed=seed)
                return seed, recorder
        except Exception:
            continue
    _, recorder = record_run(program, config, seed=run_seed)
    return run_seed, recorder


# -- campaign result --------------------------------------------------------


class CampaignResult:
    __slots__ = ("spec", "programs", "fleet", "lost", "divergences",
                 "archived", "unarchived", "confirmed", "fixes",
                 "salvaged", "drill_programs", "history")

    def __init__(self, spec, programs, fleet, lost, divergences, archived,
                 unarchived, confirmed, fixes, salvaged, drill_programs,
                 history=None):
        self.spec = spec
        self.programs = programs
        self.fleet = fleet
        self.lost = list(lost)
        self.divergences = list(divergences)   # dicts (program, kinds, …)
        self.archived = list(archived)         # case names
        self.unarchived = list(unarchived)     # divergences with no case
        self.confirmed = list(confirmed)       # program_ids with violations
        self.fixes = list(fixes)               # FixOutcome payload dicts
        self.salvaged = list(salvaged)
        self.drill_programs = drill_programs
        #: arbiter-shaped {ar_id: count} accumulated across rebinning
        #: rounds (empty for single-round campaigns)
        self.history = dict(history or {})

    @property
    def fix_rate(self):
        if not self.fixes:
            return None
        return (sum(1 for f in self.fixes if f["verified"])
                / float(len(self.fixes)))

    @property
    def ok(self):
        return (not self.lost and not self.unarchived
                and self.fleet.stats.verification_failures == 0)

    def as_payload(self):
        fleet_stats = self.fleet.stats.as_dict()
        return {
            "programs": len(self.programs),
            "drill_programs": self.drill_programs,
            "jobs_completed": fleet_stats["jobs_completed"],
            "jobs_failed": fleet_stats["jobs_failed"],
            "lost": len(self.lost),
            "divergences": self.divergences,
            "archived": self.archived,
            "unarchived": [d["program_id"] for d in self.unarchived],
            "confirmed": self.confirmed,
            "fixes": self.fixes,
            "fix_rate": self.fix_rate,
            "salvaged": self.salvaged,
            "rounds": max(1, self.spec.rounds),
            "violation_history": self.history,
            "fleet": fleet_stats,
            "ok": self.ok,
        }

    def describe(self):
        lines = ["fuzz campaign: %d programs, %d divergence(s), "
                 "%d archived, %d lost"
                 % (len(self.programs), len(self.divergences),
                    len(self.archived), len(self.lost))]
        for div in self.divergences:
            lines.append("  %s: %s%s" % (div["program_id"],
                                         ",".join(div["kinds"]),
                                         " [drill]" if div["drill"] else ""))
        if self.fixes:
            lines.append("fixes: %d/%d verified (%.0f%%)"
                         % (sum(1 for f in self.fixes if f["verified"]),
                            len(self.fixes), 100.0 * (self.fix_rate or 0)))
        if not self.ok:
            lines.append("PROBLEMS: lost=%d unarchived=%d verify_failures=%d"
                         % (len(self.lost), len(self.unarchived),
                            self.fleet.stats.verification_failures))
        return "\n".join(lines)


# -- the campaign -----------------------------------------------------------


def _minimize_and_archive(spec, prog, kinds, payload, log):
    """Shrink one diverging program and publish it to the corpus.

    Returns the archived case name, or None when archiving failed (the
    campaign reports such divergences as *unarchived* — a gate
    failure)."""
    plan = chaos_plan(spec.chaos) if spec.chaos else None
    # tighter step bound than the campaign run: ddmin candidates that
    # lose their loop increment spin to the wall, and the wall is the
    # dominant cost of a rejected candidate
    config = fuzz_config(prog.params.threads, chaos_plan=plan,
                         max_steps=20_000)
    predicate = divergence_predicate(kinds, config, prog.run_seed,
                                     drill=prog.drill)
    try:
        result = minimize(prog.source, predicate,
                          max_tests=spec.minimize_tests)
        minimized = result.source
        min_payload = result.as_payload()
    except ValueError:
        # the divergence is not reproducible inline (e.g. born from a
        # worker-side fault plan state): archive unminimized
        minimized = prog.source
        min_payload = None
    program = ProtectedProgram(minimized)
    seed, recorder = _find_diverging_seed(program, config, prog.run_seed,
                                          set(kinds), prog.drill)
    name = case_name("-".join(sorted(kinds)), prog.program_id,
                     prog.run_seed)
    meta = {
        "program_id": prog.program_id,
        "gen_seed": prog.gen_seed,
        "params": prog.params.as_dict(),
        "run_seed": prog.run_seed,
        "archived_seed": seed,
        "drill": prog.drill,
        "kinds": sorted(kinds),
        "oracle": payload,
        "minimize": min_payload,
    }
    try:
        archive_case(spec.corpus_dir, name, meta, prog.source, minimized,
                     recorder.events)
    except OSError as exc:
        log("archive of %s failed: %s" % (name, exc))
        return None
    log("archived %s (%s)" % (name,
                              min_payload and "%d lines"
                              % min_payload["minimized_lines"]
                              or "unminimized"))
    return name


def _merge_fleet(parts):
    """Fold per-round FleetResults into one (results are keyed by job id
    and rounds are disjoint, so the union is lossless)."""
    if len(parts) == 1:
        return parts[0]
    from repro.fleet.supervisor import FleetResult, FleetStats

    results = {}
    recoveries = []
    rejections = []
    stats = FleetStats()
    elapsed = 0.0
    order = []
    for part in parts:
        results.update(part.results)
        recoveries.extend(part.recoveries)
        rejections.extend(part.rejections)
        for name in FleetStats.FIELDS:
            setattr(stats, name,
                    getattr(stats, name) + getattr(part.stats, name))
        elapsed += part.elapsed_s
        order.extend(part.completion_order)
    return FleetResult(results, recoveries, rejections, stats, elapsed,
                       parts[-1].workers, order)


def _run_fleet_rounds(supervisor, job_specs, rounds, log):
    """Dispatch the batch in ``rounds`` fleet rounds, rebinning each
    round's chunk by conflict weight sharpened with the violation
    history the earlier rounds accumulated — the live feedback loop from
    the arbiter's priority signal into campaign scheduling. Returns
    ``(merged FleetResult, final history)``."""
    if rounds <= 1 or len(job_specs) < 2:
        return supervisor.run_jobs(job_specs), {}
    from repro.fleet.binning import bin_jobs_by_conflict, violation_history

    chunk = (len(job_specs) + rounds - 1) // rounds
    history = {}
    parts = []
    for rnd in range(rounds):
        batch = job_specs[rnd * chunk:(rnd + 1) * chunk]
        if not batch:
            break
        ordered, _weights = bin_jobs_by_conflict(batch, history=history)
        log("round %d: %d job(s), rebinned with %d hot AR(s)"
            % (rnd + 1, len(ordered), len(history)))
        part = supervisor.run_jobs(ordered)
        parts.append(part)
        ids = []
        for result in part.results.values():
            if result.ok:
                ids.extend(result.payload.get("violated_ars", ()))
        history = violation_history(ids, history)
    return _merge_fleet(parts), history


def run_campaign(spec, log=None):
    """Run one campaign; returns a CampaignResult."""
    log = log or (lambda message: None)
    salvaged = []
    if spec.corpus_dir:
        salvaged = salvage_corpus(spec.corpus_dir)
        if salvaged:
            log("salvaged %d torn archive(s)" % len(salvaged))
        os.makedirs(spec.corpus_dir, exist_ok=True)
    programs = generate_programs(spec)
    by_id = {prog.program_id: prog for prog in programs}
    job_specs = build_specs(spec, programs)
    supervisor = FleetSupervisor(
        workers=spec.workers,
        policy=FleetPolicy(workers=spec.workers))
    fleet, history = _run_fleet_rounds(supervisor, job_specs,
                                       max(1, spec.rounds), log)
    log("fleet: %s" % fleet.describe())

    lost = [js.job_id for js in job_specs if js.job_id not in fleet.results]
    divergences = []
    confirmed = []
    for job in job_specs:
        result = fleet.results.get(job.job_id)
        if result is None:
            continue
        prog = by_id[job.params["program_id"]]
        if not result.ok:
            divergences.append({"program_id": prog.program_id,
                                "kinds": ["job-error"],
                                "drill": bool(prog.drill),
                                "payload": {"error": result.error}})
            continue
        payload = result.payload
        kinds = list(payload.get("divergences", ()))
        if result.verified is False:
            kinds.append("verify")
        if kinds:
            divergences.append({"program_id": prog.program_id,
                                "kinds": kinds,
                                "drill": bool(prog.drill),
                                "payload": payload})
        if payload.get("violations") and payload.get("report_match"):
            confirmed.append(prog.program_id)

    archived = []
    unarchived = []
    for div in divergences:
        if not spec.corpus_dir:
            unarchived.append(div)
            continue
        prog = by_id[div["program_id"]]
        name = _minimize_and_archive(spec, prog, div["kinds"],
                                     div["payload"], log)
        if name is None:
            unarchived.append(div)
        else:
            archived.append(name)

    fixes = []
    if spec.fix:
        from repro.fuzz.fix import synthesize_fix

        plan = chaos_plan(spec.chaos) if spec.chaos else None
        for program_id in confirmed:
            prog = by_id[program_id]
            config = fuzz_config(prog.params.threads, chaos_plan=plan)
            outcome = synthesize_fix(prog.source, config, prog.run_seed)
            entry = outcome.as_payload()
            entry["program_id"] = program_id
            fixes.append(entry)
        verified = sum(1 for f in fixes if f["verified"])
        log("fixes: %d/%d verified" % (verified, len(fixes)))

    return CampaignResult(
        spec, programs, fleet, lost, divergences, archived, unarchived,
        confirmed, fixes, salvaged,
        drill_programs=sum(1 for prog in programs if prog.drill),
        history=history)


__all__ = ["MAX_STEPS", "CampaignResult", "CampaignSpec", "build_specs",
           "chaos_plan", "divergence_predicate", "fuzz_config",
           "generate_programs", "run_campaign"]
