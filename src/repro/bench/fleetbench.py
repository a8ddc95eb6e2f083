"""Fleet throughput benchmark: jobs/sec at 1/2/4 workers.

Not a paper table — the paper's whitelists are "learned over training
runs" on customer fleets (§6), and this repo's runs are embarrassingly
shardable jobs; the fleetbench measures how the fleet plane actually
scales.  The job mix is the 5-app suite (each application at several
seeds and both usage modes) pushed through :class:`FleetSupervisor` at
each worker count, measuring wall-clock jobs/sec and — the part a
throughput number cannot show — asserting that the *aggregate digest is
identical at every worker count*: parallelism buys time, never answers.

The artifact (``BENCH_fleet.json``, schema ``kivati-fleetbench/v1``)
records the host's CPU count alongside the series: on a single-core
container the OS time-slices the workers, so jobs/sec is flat-to-slightly-
worse as workers grow (the honest number), while multi-core hosts see
near-linear scaling because every job is an independent simulated
execution with no shared state beyond the result queue.
``validate`` encodes exactly that: determinism and completeness are
unconditional; the >=``MIN_SPEEDUP`` gate at 4 workers applies only
where the recording host had >=4 CPUs to scale onto.
"""

from repro.bench.schema import check_schema, host
from repro.bench.render import Table
from repro.bench.scale import bench_config
from repro.core.config import Mode
from repro.fleet.jobs import app_run_jobs
from repro.fleet.supervisor import FleetPolicy, FleetSupervisor

SCHEMA = "kivati-fleetbench/v1"
DEFAULT_WORKERS = (1, 2, 4)
DEFAULT_SEEDS = (3, 11)
MODES = (Mode.PREVENTION, Mode.BUG_FINDING)
#: jobs/sec at 4 workers over 1 worker, on hosts with >=4 CPUs
MIN_SPEEDUP = 1.8


def build_bench_jobs(scale=0.6, seeds=DEFAULT_SEEDS):
    """The bench job mix: 5 apps x seeds x modes ``run`` jobs (20 by
    default), every one an independent deterministic simulation."""
    specs = []
    for mode in MODES:
        config = bench_config(mode=mode)
        specs.extend(app_run_jobs(
            config, seeds=seeds, scale=scale,
            prefix="fb-%s" % mode.value.replace("-", "")))
    return specs


def generate(smoke=False, workers_list=DEFAULT_WORKERS, scale=0.6,
             seeds=DEFAULT_SEEDS, start_method="spawn"):
    """Run the job mix at each worker count; returns the artifact dict.

    ``smoke`` is the CI-sized sweep: at most 2 workers, scale at most
    0.25, the first seed only.
    """
    if smoke:
        workers_list = tuple(w for w in workers_list if w <= 2) or (1, 2)
        scale = min(scale, 0.25)
        seeds = seeds[:1]
    specs = build_bench_jobs(scale=scale, seeds=seeds)
    series = []
    digests = {}
    for workers in workers_list:
        policy = FleetPolicy(workers=max(1, workers), verify=False,
                             collect_journals=False,
                             start_method=start_method)
        supervisor = FleetSupervisor(workers=workers, policy=policy)
        result = supervisor.run_jobs(specs)
        aggregate = result.aggregate()
        digests[workers] = aggregate.digest()
        series.append({
            "workers": workers,
            "jobs": len(result.results),
            "failed": sum(1 for r in result.results.values() if not r.ok),
            "elapsed_s": round(result.elapsed_s, 4),
            "jobs_per_sec": round(result.jobs_per_sec, 4),
            "retried": result.stats.jobs_retried,
            "workers_crashed": result.stats.workers_crashed,
            "frames_salvaged": result.stats.frames_salvaged,
            "digest": aggregate.digest(),
        })
    base = next((s for s in series if s["workers"] == 1), series[0])
    for entry in series:
        entry["speedup_vs_1"] = (
            round(entry["jobs_per_sec"] / base["jobs_per_sec"], 3)
            if base["jobs_per_sec"] else None)
    return {
        "schema": SCHEMA,
        "smoke": bool(smoke),
        "host": host(),
        "scale": scale,
        "seeds": list(seeds),
        "modes": [m.value for m in MODES],
        "start_method": start_method,
        "job_count": len(specs),
        "series": series,
        "determinism_ok": len(set(digests.values())) == 1,
    }


def validate(payload):
    """Schema/invariant problems with a fleetbench artifact (empty list
    = valid).  The speedup gate applies when the recording host had >=4
    CPUs; determinism is gated unconditionally.
    """
    problems = check_schema(payload, SCHEMA,
                            required=("host", "job_count",
                                      "determinism_ok"))
    if not isinstance(payload, dict):
        return problems
    series = payload.get("series")
    if not isinstance(series, list) or not series:
        return problems + ["series missing or empty"]
    for entry in series:
        for key in ("workers", "jobs", "failed", "elapsed_s",
                    "jobs_per_sec", "digest", "speedup_vs_1"):
            if key not in entry:
                problems.append("series entry missing %r" % key)
        if entry.get("failed"):
            problems.append("workers=%s: %s failed jobs"
                            % (entry.get("workers"), entry.get("failed")))
        if entry.get("jobs") != payload.get("job_count"):
            problems.append("workers=%s: %s results for %s jobs (lost?)"
                            % (entry.get("workers"), entry.get("jobs"),
                               payload.get("job_count")))
    if len({entry.get("digest") for entry in series}) != 1:
        problems.append("aggregate digests differ across worker counts")
    if not payload.get("determinism_ok"):
        problems.append("determinism_ok is false")
    cpus = (payload.get("host") or {}).get("cpu_count", 1)
    four = next((e for e in series if e.get("workers") == 4), None)
    if four is not None and cpus >= 4:
        if (four.get("speedup_vs_1") or 0) < MIN_SPEEDUP:
            problems.append("4-worker speedup %.2fx < %.1fx (host cpus=%d)"
                            % (four.get("speedup_vs_1") or 0, MIN_SPEEDUP,
                               cpus))
    return problems


def render(payload):
    table = Table(
        "Fleet throughput: jobs/sec vs worker count (5-app suite, "
        "%d jobs, host cpus=%d)"
        % (payload["job_count"], payload["host"]["cpu_count"]),
        ["workers", "jobs", "elapsed s", "jobs/s", "speedup", "retried",
         "crashes", "digest ok"],
        note="speedup is vs the 1-worker pool; identical aggregate "
             "digests at every worker count prove parallelism changed "
             "wall-clock only, never results; on a 1-CPU host the "
             "workers time-slice and speedup is ~1x by construction",
    )
    for entry in payload["series"]:
        table.add_row(
            entry["workers"], entry["jobs"], "%.2f" % entry["elapsed_s"],
            "%.2f" % entry["jobs_per_sec"],
            "%.2fx" % entry["speedup_vs_1"] if entry["speedup_vs_1"]
            else "-",
            entry["retried"], entry["workers_crashed"],
            "yes" if payload["determinism_ok"] else "NO")
    return table.render()


__all__ = ["MIN_SPEEDUP", "SCHEMA", "build_bench_jobs", "generate", "render",
           "validate"]
