"""Command-line interface: ``kivati <command>``.

Commands::

    kivati annotate FILE          print the annotated program and AR table
    kivati lint FILE...           static lock-discipline diagnostics
    kivati run FILE               run FILE under Kivati and report
    kivati vanilla FILE           run FILE without instrumentation
    kivati bugs [ID...]           run the Table 6 detection campaign
    kivati table N                regenerate one of the paper's tables (1-9)
    kivati figure7                regenerate Figure 7
    kivati report [--quick]       regenerate the full evaluation
    kivati apps                   list the application models
    kivati chaos                  run the fault-injection chaos suite
    kivati soak                   soak the app suite under overload + faults
    kivati journal JOURNAL        inspect a journal (state, event kinds)
    kivati check JOURNAL          streaming offline checker (no re-execution)
    kivati replay FILE JOURNAL    deterministically replay a recorded run
    kivati fleet run              shard the app suite over worker processes
    kivati fleet check            check every journal a fleet batch produced
    kivati fleet train            federated whitelist training over shards
    kivati fuzz gen               emit one generated mini-C program
    kivati fuzz run               fuzz campaign through the fleet
    kivati fuzz minimize FILE     ddmin-shrink a diverging program
    kivati fuzz fix FILE          synthesize + verify a fix for a violation
    kivati serve                  long-lived warm-worker detection daemon
    kivati service ping|stats|events|drain   operate a running daemon
    kivati service run FILE       submit one detection job to the daemon
    kivati obs report FILE        VM hot-path profile of one run
    kivati obs export             Chrome/Perfetto trace from a run/journal
    kivati obs diff BASE NEW      perf-regression sentinel over artifacts
    kivati bench run PLANE        run one bench plane (BENCH_<plane>.json):
                                  checker, conflict, fleet, fuzz, obs, service
    kivati bench validate         schema-check BENCH_*.json artifacts

Exit codes: 0 success; 1 invariant failure (chaos divergence, replay
divergence, checker disagreement, fleet determinism/recovery failure);
2 usage error; 3 violations found under ``--strict`` (for ``fuzz``:
any archived divergence).
"""

import argparse
import os
import sys

from repro.core.config import KivatiConfig, Mode, OptLevel
from repro.core.session import ProtectedProgram


def _read(path):
    with open(path) as f:
        return f.read()


def cmd_annotate(args):
    import json

    from repro.analysis.annotate import annotate
    from repro.analysis.diagnostics import (analysis_dump, footprint_dump,
                                            render_dump, render_footprints)
    from repro.minic.pretty import pretty

    result = annotate(_read(args.file),
                      interprocedural=args.interprocedural)
    if args.dump_analysis:
        dump = analysis_dump(result)
        if args.json:
            print(json.dumps(dump, indent=2, sort_keys=True))
        else:
            print(render_dump(dump))
        return 0
    if args.dump_footprints:
        dump = footprint_dump(result)
        if args.json:
            print(json.dumps(dump, indent=2, sort_keys=True))
        else:
            print(render_footprints(dump))
        return 0
    text = pretty(result.ast)
    print(text)
    print("// %d atomic regions:" % result.num_ars)
    for info in result.ar_table.values():
        print("//   " + info.describe())
    return 0


def _lint_sources(args):
    """Yield (display name, mini-C source) pairs for ``kivati lint``."""
    for path in args.files:
        yield path, _read(path)
    if args.corpus:
        from repro.workloads.bugs import BUG_IDS, get_bug
        from repro.workloads.catalog import workload_suite

        for bug_id in BUG_IDS:
            yield "bug-%s" % bug_id, get_bug(bug_id).source
        for workload in workload_suite():
            yield "app-%s" % workload.name, workload.source


def cmd_lint(args):
    import json

    from repro.analysis.annotate import annotate
    from repro.analysis.diagnostics import (diagnostics_json,
                                            render_diagnostics,
                                            run_diagnostics)

    all_diags = []
    payload = {}
    by_file = {}
    for name, source in _lint_sources(args):
        diags = run_diagnostics(annotate(source), filename=name)
        all_diags.extend(diags)
        by_file[name] = diags
        if args.json:
            payload[name] = diagnostics_json(diags)
        elif not args.sarif:
            print(render_diagnostics(diags))
    if args.sarif:
        from repro.analysis.sarif import sarif_payload

        print(json.dumps(sarif_payload(by_file), indent=2, sort_keys=True))
    elif args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _config(args):
    return KivatiConfig(
        mode=Mode.BUG_FINDING if args.bug_finding else Mode.PREVENTION,
        opt=OptLevel(args.opt),
        num_watchpoints=args.watchpoints,
        num_cores=args.cores,
        seed=args.seed,
    )


def cmd_run(args):
    pp = ProtectedProgram(_read(args.file))
    config = _config(args)
    recorder = None
    if args.journal or args.trace:
        from repro.journal.format import JournalWriter
        from repro.journal.recorder import JournalRecorder

        recorder = JournalRecorder(
            writer=JournalWriter(args.journal) if args.journal else None)
        config = config.copy(journal=recorder)
    report = pp.run(config)
    print("output:", report.output)
    print(report.summary())
    for violation in report.violations:
        print("violation: " + violation.describe())
    if args.trace:
        if report.violations:
            print("\n--- forensic trace around the first violation ---")
            print(recorder.render_violation(report.violations.records[0]))
        else:
            print("\n--- execution trace ---")
            print(recorder.render())
    if args.journal:
        print("journal: %d frames -> %s" % (len(recorder), args.journal))
    if args.strict and report.violations:
        return 3
    return 0


def cmd_vanilla(args):
    pp = ProtectedProgram(_read(args.file))
    result = pp.run_vanilla(num_cores=args.cores, seed=args.seed)
    print("output:", result.output)
    print(result)
    return 0


def cmd_bugs(args):
    from repro.bench import table6

    if args.ids:
        from repro.bench.scale import corpus_config
        from repro.workloads.bugs import get_bug
        from repro.workloads.driver import detect_bug

        any_detected = False
        for bug_id in args.ids:
            bug = get_bug(bug_id)
            res = detect_bug(
                bug,
                corpus_config(Mode.BUG_FINDING if args.bug_finding
                              else Mode.PREVENTION),
                max_attempts=args.attempts,
            )
            any_detected = any_detected or res.detected
            print("%s: %s (%d attempts, %.2f ms simulated)"
                  % (bug_id, "detected" if res.detected else "not found",
                     res.attempts, res.time_ms))
            for record in res.records[:3]:
                print("   " + record.describe())
        return 3 if args.strict and any_detected else 0
    result = table6.generate()
    print(result.render())
    if args.strict and any(
            outcome.detected
            for per_bug in result.outcomes.values()
            for outcome in per_bug.values()):
        return 3
    return 0


def cmd_table(args):
    from repro.bench import (table1, table2, table3, table4, table5, table6,
                             table7, table8, table9)

    generators = {
        1: table1.generate, 2: table2.generate, 3: table3.generate,
        4: table4.generate, 5: table5.generate, 6: table6.generate,
        7: table7.generate, 8: table8.generate, 9: table9.generate,
    }
    if args.n not in generators:
        print("unknown table %d (1-9)" % args.n, file=sys.stderr)
        return 2
    print(generators[args.n]().render())
    return 0


def cmd_figure7(args):
    from repro.bench import figure7

    print(figure7.generate().render())
    return 0


def cmd_report(args):
    import sys as _sys

    from repro.bench.report import generate_report

    generate_report(scale=args.scale, include_table6=not args.quick,
                    include_ablations=not args.quick, stream=_sys.stdout,
                    jobs=args.jobs)
    return 0


def cmd_chaos(args):
    from repro.faults.chaos import (ChaosSchedule, builtin_schedules,
                                    run_chaos_suite)

    kwargs = {}
    if args.file:
        kwargs["program"] = ProtectedProgram(_read(args.file))
        # the per-schedule stat expectations encode the built-in
        # workload's contention profile; for a user program only the
        # universal invariants apply
        kwargs["schedules"] = tuple(
            ChaosSchedule(schedule.plan,
                          needs_whitelist_file=schedule.needs_whitelist_file)
            for schedule in builtin_schedules())
        kwargs["require_fires"] = False
    if args.seeds:
        kwargs["seeds"] = tuple(args.seeds)
    report = run_chaos_suite(**kwargs)
    print(report.describe())
    if args.verbose:
        for case in report.cases:
            for fault in case.report.injected:
                print("  " + fault.describe())
    return 0 if report.ok else 1


def cmd_soak(args):
    from repro.bench import soakbench

    seeds = tuple(args.seeds) if args.seeds else soakbench.DEFAULT_SEEDS
    multipliers = (tuple(args.multipliers) if args.multipliers
                   else soakbench.DEFAULT_MULTIPLIERS)
    scale = args.scale
    if args.smoke:
        multipliers = multipliers[:2]
        scale = min(scale, 0.15)
    result = soakbench.generate(seeds=seeds, multipliers=multipliers,
                                scale=scale)
    print(result.render())
    status = 0
    for problem in result.check():
        print("SOAK FAIL: " + problem)
        status = 1
    case, replay = soakbench.replay_determinism_check(
        multiplier=multipliers[-1], seed=seeds[0], scale=scale)
    print("replay determinism (%s x%d): %s"
          % (case.name, case.multiplier, replay.describe()))
    if not replay.ok:
        status = 1
    if args.recall:
        cases = soakbench.corpus_recall()
        for rc in cases:
            print("recall %-8s %-9s attempts=%d%s"
                  % (rc.bug_id, rc.outcome, rc.attempts,
                     " quarantined=%s" % (rc.quarantined_ars,)
                     if rc.quarantined_ars else ""))
        if any(rc.outcome == "missed" for rc in cases):
            print("SOAK FAIL: corpus recall regression under pressure")
            status = 1
    return status


def cmd_journal(args):
    from repro.errors import JournalError
    from repro.journal.checker import check_events
    from repro.journal.stream import read_journal

    try:
        result = read_journal(args.journal)
    except JournalError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print("journal: %d events (seq %s..%s) from %d segment(s), "
          "%d valid bytes%s"
          % (len(result.events), result.first_seq, result.last_seq,
             result.segments_read, result.valid_bytes,
             ", TORN TAIL (truncated at first corrupt frame)"
             if result.torn else ""))
    counts = {}
    for event in result.events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    print("kinds: " + " ".join("%s=%d" % kv for kv in sorted(counts.items())))
    check = check_events(result.events, damaged=result.torn)
    print(check.describe())
    if args.events:
        for event in result.events[:args.events]:
            print("  " + event.describe())
        if len(result.events) > args.events:
            print("  ... %d more" % (len(result.events) - args.events))
    return 0 if check.consistent else 1


def cmd_check(args):
    import json

    from repro.errors import JournalError
    from repro.journal.checker import check_journal

    try:
        result = check_journal(args.journal)
    except JournalError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.as_payload(), indent=2, sort_keys=True))
    else:
        print(result.describe())
    if result.status == "disagree":
        return 1
    if args.strict and result.status != "pass":
        return 3
    return 0


def _check_journal_tree(root, strict):
    """Check every ``*.journal`` under ``root``; returns (checked, bad)."""
    from repro.errors import JournalError
    from repro.journal.checker import check_journal

    paths = []
    for dirpath, _dirnames, filenames in os.walk(root):
        paths.extend(os.path.join(dirpath, name) for name in filenames
                     if name.endswith(".journal"))
    checked, bad = 0, 0
    for path in sorted(paths):
        rel = os.path.relpath(path, root)
        try:
            result = check_journal(path)
        except JournalError as exc:
            print("  %s: UNREADABLE (%s)" % (rel, exc))
            bad += 1
            continue
        checked += 1
        verdict_note = "%d verdict(s)" % len(result.verdicts)
        print("  %s: %s — %s, coverage %.4f"
              % (rel, result.status.upper(), verdict_note, result.coverage))
        if result.status == "disagree" or (strict
                                           and result.status != "pass"):
            for line in result.describe().splitlines()[1:]:
                print("  " + line)
            bad += 1
    return checked, bad


def cmd_fleet_check(args):
    if args.journal_root:
        return _fleet_check_tree(args.journal_root, args.strict)
    import tempfile

    from repro.bench.scale import bench_config
    from repro.fleet import FleetPolicy, FleetSupervisor, app_run_jobs

    config = bench_config(mode=Mode.BUG_FINDING if args.bug_finding
                          else Mode.PREVENTION)
    specs = app_run_jobs(config, seeds=tuple(args.seeds), scale=args.scale)
    with tempfile.TemporaryDirectory(prefix="kivati-fleet-") as root:
        supervisor = FleetSupervisor(
            workers=args.workers,
            policy=FleetPolicy(workers=max(1, args.workers), verify=False,
                               collect_journals=True,
                               start_method=args.start_method),
            journal_root=root)
        print(supervisor.run_jobs(specs).describe())
        return _fleet_check_tree(root, args.strict)


def _fleet_check_tree(root, strict):
    print("checking journals under %s" % root)
    checked, bad = _check_journal_tree(root, strict)
    print("fleet check: %d journal(s), %d problem(s)" % (checked, bad))
    if checked == 0:
        print("FLEET CHECK FAIL: no journals found", file=sys.stderr)
        return 2
    return 1 if bad else 0


def cmd_replay(args):
    from repro.errors import JournalError
    from repro.journal.replay import replay_run

    pp = ProtectedProgram(_read(args.file))
    try:
        result = replay_run(pp, args.journal,
                            check_source=not args.no_source_check)
    except JournalError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(result.describe())
    print("replayed run: output=%s" % (result.report.output,))
    print(result.report.summary())
    return 0 if result.ok and result.verdicts_match else 1


def cmd_fleet_run(args):
    from repro.bench.scale import bench_config
    from repro.fleet import FleetPolicy, FleetSupervisor, app_run_jobs

    config = bench_config(mode=Mode.BUG_FINDING if args.bug_finding
                          else Mode.PREVENTION)
    specs = app_run_jobs(config, seeds=tuple(args.seeds), scale=args.scale)
    if args.rounds > 1:
        # rebinning rounds: run the same batch N times, feeding each
        # round's violated ARs back into the conflict binning, and pin
        # the aggregate digest across rounds (rebinning is pure
        # scheduling, so any digest drift is a bug)
        from repro.fleet import run_binned_rounds

        policy = FleetPolicy(workers=max(1, args.workers),
                             verify=not args.no_verify,
                             start_method=args.start_method)
        supervisor = FleetSupervisor(workers=args.workers, policy=policy)
        outcome = run_binned_rounds(supervisor, specs, rounds=args.rounds,
                                    log=print)
        print(outcome.last.describe())
        print(outcome.last.aggregate().summary())
        print("violation history: %d hot AR(s)" % len(outcome.history))
        if not outcome.digests_agree:
            print("FLEET FAIL: rebinning changed the aggregate digest")
            return 1
        print("determinism check: %d round digests agree"
              % len(outcome.rounds))
        return 0 if outcome.last.ok else 1
    if args.bin_by_conflict:
        from repro.fleet import bin_jobs_by_conflict

        specs, weights = bin_jobs_by_conflict(specs)
        print("conflict binning (heaviest first): "
              + " ".join("%s=%d" % (s.job_id, weights[s.job_id])
                         for s in specs))
    if args.crash_drill:
        specs[0].params["crash"] = {"at_frame": 5, "torn": 1}
    policy = FleetPolicy(workers=max(1, args.workers),
                         verify=not args.no_verify,
                         start_method=args.start_method)
    result = FleetSupervisor(workers=args.workers, policy=policy).run_jobs(
        specs)
    print(result.describe())
    aggregate = result.aggregate()
    print(aggregate.summary())
    status = 0 if result.ok else 1
    if args.check:
        # re-run the same batch inline; the aggregate digest must match
        inline = FleetSupervisor(workers=0, policy=FleetPolicy(
            workers=1, verify=False)).run_jobs(
                [s.without_crash_drill() for s in specs])
        if inline.aggregate().digest() != aggregate.digest():
            print("FLEET FAIL: aggregate differs from inline reference")
            status = 1
        else:
            print("determinism check: fleet aggregate == inline reference")
    return status


def cmd_fleet_train(args):
    from repro.bench.scale import bench_config
    from repro.fleet import FleetSupervisor, federated_train
    from repro.fleet.supervisor import FleetPolicy
    from repro.workloads.catalog import workload_suite

    matches = [w for w in workload_suite(scale=args.scale)
               if w.name.lower() == args.app.lower()]
    if not matches:
        print("unknown app %r (see: kivati apps)" % args.app,
              file=sys.stderr)
        return 2
    workload = matches[0]
    config = bench_config(mode=Mode.BUG_FINDING)
    seed_rounds = [[args.seed_base + r * args.seeds_per_round + i
                    for i in range(args.seeds_per_round)]
                   for r in range(args.rounds)]
    supervisor = FleetSupervisor(
        workers=args.workers,
        policy=FleetPolicy(workers=max(1, args.workers), verify=False,
                           collect_journals=False,
                           start_method=args.start_method))
    fed = federated_train(supervisor, workload.source, config, seed_rounds,
                          shards=args.shards, shard_dir=args.shard_dir)
    print(fed.describe())
    status = 0
    if args.check:
        from repro.core.training import train_rounds

        serial = train_rounds(ProtectedProgram(workload.source), config,
                              seed_rounds)
        if (serial.whitelist != fed.whitelist
                or serial.iterations != fed.iterations):
            print("FLEET FAIL: federated training != serial reference")
            status = 1
        else:
            print("equivalence check: federated == serial training")
    if args.out:
        from repro.runtime.whitelist import Whitelist

        Whitelist.write_file(args.out, fed.whitelist,
                             comment="federated training (%d shards)"
                             % args.shards)
        print("whitelist written: %s (%d ARs)"
              % (args.out, len(fed.whitelist)))
    return status


def cmd_fuzz_gen(args):
    import json

    from repro.fuzz.generator import FuzzParams, generate_source

    if args.params:
        params = FuzzParams.from_dict(json.loads(args.params))
    else:
        from random import Random

        params = FuzzParams.sampled(Random(args.seed))
    source = generate_source(params, args.seed)
    if args.out:
        with open(args.out, "w") as f:
            f.write(source)
        print("wrote %s (%s)" % (args.out, params.as_dict()))
    else:
        print(source, end="")
    return 0


def cmd_fuzz_run(args):
    from repro.fuzz.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(
        n_programs=args.programs, base_seed=args.base_seed,
        workers=args.workers, drill_every=args.drill_every,
        corpus_dir=args.corpus, chaos=args.chaos,
        minimize_tests=args.minimize_tests, fix=not args.no_fix,
        rounds=args.rounds)
    result = run_campaign(spec, log=print)
    print(result.describe())
    if not result.ok:
        return 1
    if args.strict and result.archived:
        return 3
    return 0


def cmd_fuzz_minimize(args):
    from repro.fuzz.campaign import divergence_predicate, fuzz_config
    from repro.fuzz.minimize import minimize
    from repro.minic.parser import parse

    threads = sum(1 for _ in parse(_read(args.file)).funcs) - 1
    config = fuzz_config(max(threads, 1), max_steps=20_000)
    kinds = args.kinds.split(",")
    predicate = divergence_predicate(kinds, config, args.seed,
                                     drill=args.drill)
    try:
        result = minimize(_read(args.file), predicate,
                          max_tests=args.max_tests)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(result.describe(), file=sys.stderr)
    print(result.source, end="")
    return 0


def cmd_fuzz_fix(args):
    from repro.fuzz.campaign import fuzz_config
    from repro.fuzz.fix import synthesize_fix
    from repro.minic.parser import parse

    threads = sum(1 for _ in parse(_read(args.file)).funcs) - 1
    config = fuzz_config(max(threads, 1))
    outcome = synthesize_fix(_read(args.file), config, args.seed)
    print(outcome.describe(), file=sys.stderr)
    if not outcome.verified:
        return 1
    print(outcome.fixed_source, end="")
    return 0


def cmd_serve(args):
    from repro.service import KivatiDaemon, ServicePolicy

    warm_sources = []
    if args.warm_apps:
        from repro.workloads.catalog import workload_suite

        warm_sources = [w.source for w in workload_suite(scale=args.scale)]
    policy = ServicePolicy(
        workers=args.workers, start_method=args.start_method,
        heartbeat_s=args.heartbeat, rss_limit_kb=args.rss_limit_kb,
        max_jobs_per_worker=args.max_jobs_per_worker,
        default_deadline_s=args.deadline, max_retries=args.max_retries,
        poison_kills=args.poison_kills, verify=not args.no_verify,
        verify_backend=args.verify_backend, warm_sources=warm_sources)
    daemon = KivatiDaemon(args.socket, policy,
                          journal_root=args.journal_root)
    print("kivati serve: %d warm worker(s) on %s (SIGTERM drains)"
          % (args.workers, args.socket))
    sys.stdout.flush()
    return daemon.serve_forever()


def cmd_service(args):
    import json

    from repro.service import ServiceClient, ServiceUnavailable

    try:
        with ServiceClient(args.socket, timeout=args.timeout) as client:
            if args.service_command == "ping":
                response = client.ping()
            elif args.service_command == "stats":
                response = client.stats()
            elif args.service_command == "events":
                response = client.events(limit=args.limit)
            elif args.service_command == "drain":
                response = client.drain()
            else:  # run
                from repro.fleet.jobs import JobSpec

                config = KivatiConfig(
                    mode=Mode.BUG_FINDING if args.bug_finding
                    else Mode.PREVENTION, seed=args.seed)
                spec = JobSpec.for_config(args.job_id, "run",
                                          _read(args.file), config)
                response = client.submit(spec, deadline_s=args.deadline)
    except ServiceUnavailable as exc:
        print("service unavailable: %s" % exc, file=sys.stderr)
        return 1
    if getattr(args, "prom", False):
        from repro.obs.prom import render_flat

        values = dict(response.get("stats") or {})
        values["pending"] = response.get("pending", 0)
        values["draining"] = bool(response.get("draining"))
        pool = response.get("pool") or {}
        for key in ("workers", "spawned", "recycled"):
            values["pool_" + key] = pool.get(key, 0)
        sys.stdout.write(render_flat(values, prefix="kivati_service_"))
        return 0 if response.get("ok") else 1
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("ok") else 1


def cmd_apps(args):
    from repro.workloads.catalog import workload_suite

    for workload in workload_suite():
        pp = ProtectedProgram(workload.source)
        print("%-9s threads=%d ARs=%d  %s"
              % (workload.name, workload.threads, pp.num_ars,
                 workload.description))
    return 0


def cmd_obs_report(args):
    from repro.obs import ObsPlane

    obs = ObsPlane(wall_time=args.wall)
    pp = ProtectedProgram(_read(args.file))
    config = KivatiConfig(
        mode=Mode.BUG_FINDING if args.bug_finding else Mode.PREVENTION,
        seed=args.seed, obs=obs)
    report = pp.run(config)
    if args.json:
        import json

        print(json.dumps(obs.snapshot(), indent=2, sort_keys=True))
        return 0
    print(report.summary())
    for violation in report.violations:
        print("violation: " + violation.describe())
    print(obs.profiler.hot_path_table(top=args.top))
    return 0


def cmd_obs_export(args):
    from repro.obs.spans import (export_chrome_trace, journal_trace_events,
                                 validate_chrome_trace)

    if args.journal:
        from repro.errors import JournalError
        from repro.journal.stream import read_journal

        try:
            events = read_journal(args.journal).events
        except JournalError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
    elif args.file:
        from repro.journal.replay import record_run
        from repro.obs import ObsPlane

        config = KivatiConfig(
            mode=Mode.BUG_FINDING if args.bug_finding else Mode.PREVENTION,
            seed=args.seed, obs=ObsPlane())
        _, recorder = record_run(ProtectedProgram(_read(args.file)), config)
        events = recorder.events
    else:
        print("error: give a program FILE or --journal PATH",
              file=sys.stderr)
        return 2
    trace_events = journal_trace_events(events)
    problems = validate_chrome_trace({"traceEvents": trace_events})
    written = export_chrome_trace(trace_events, args.out)
    print("trace: %d event(s), %d bytes -> %s"
          % (len(trace_events), written, args.out))
    for problem in problems:
        print("OBS EXPORT FAIL: " + problem)
    return 1 if problems else 0


def cmd_obs_diff(args):
    import json

    from repro.errors import ObsError
    from repro.obs import compare_artifacts

    def load(path):
        with open(path) as f:
            return json.load(f)

    try:
        report = compare_artifacts(load(args.base), load(args.new),
                                   rel_tol_scale=args.rel_tol_scale)
    except (OSError, ValueError, ObsError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.describe())
    return 0 if report.ok else 3


def cmd_bench_run(args):
    from repro.bench.schema import plane_module, write_artifact

    module = plane_module(args.plane)
    payload = module.generate(smoke=args.smoke)
    print(module.render(payload))
    problems = module.validate(payload)
    for problem in problems:
        print("BENCH %s FAIL: %s" % (args.plane, problem))
    if args.out:
        write_artifact(payload, args.out)
        print("wrote %s" % args.out)
    return 1 if problems else 0


def cmd_bench_validate(args):
    from repro.bench import schema as bench_schema

    if args.all:
        report = bench_schema.validate_committed(args.root)
        for path in args.files:
            report[path] = bench_schema.validate_file(path)
        if not report:
            print("no committed BENCH_*.json artifacts under %s"
                  % args.root)
            return 1
    elif args.files:
        report = {path: bench_schema.validate_file(path)
                  for path in args.files}
    else:
        print("error: give artifact FILES, or --all for the committed set",
              file=sys.stderr)
        return 2
    status = 0
    for name in sorted(report):
        problems = report[name]
        if problems:
            status = 1
            print("%s: INVALID" % name)
            for problem in problems:
                print("  " + problem)
        else:
            print("%s: ok" % name)
    return status


def main(argv=None):
    from repro.bench.schema import PLANES

    parser = argparse.ArgumentParser(
        prog="kivati",
        description="Kivati reproduction: detect and prevent atomicity "
                    "violations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("annotate", help="print the annotated program")
    p.add_argument("file")
    p.add_argument("--interprocedural", action="store_true",
                   help="enable the Section 3.5 inter-procedural extension")
    p.add_argument("--dump-analysis", action="store_true",
                   help="print per-function locksets, guard verdicts and "
                        "AR prune classifications instead of the program")
    p.add_argument("--dump-footprints", action="store_true",
                   help="print per-function and per-AR may-read/may-write "
                        "footprints and the inter-AR conflict graph")
    p.add_argument("--json", action="store_true",
                   help="with --dump-analysis/--dump-footprints, emit JSON")
    p.set_defaults(fn=cmd_annotate)

    p = sub.add_parser("lint", help="static lock-discipline diagnostics")
    p.add_argument("files", nargs="*",
                   help="mini-C source files to lint")
    p.add_argument("--corpus", action="store_true",
                   help="also lint the built-in bug corpus and app models")
    p.add_argument("--json", action="store_true",
                   help="emit diagnostics as JSON keyed by input name")
    p.add_argument("--sarif", action="store_true",
                   help="emit diagnostics as a SARIF 2.1.0 document")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("run", help="run a program under Kivati")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cores", type=int, default=2)
    p.add_argument("--watchpoints", type=int, default=4)
    p.add_argument("--opt", default="optimized",
                   choices=[level.value for level in OptLevel])
    p.add_argument("--bug-finding", action="store_true")
    p.add_argument("--trace", action="store_true",
                   help="print the journal's event timeline (the "
                        "forensic view around the first violation)")
    p.add_argument("--journal", metavar="PATH",
                   help="record a crash-safe replayable journal to PATH")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 if any atomicity violation is detected")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("vanilla", help="run a program uninstrumented")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cores", type=int, default=2)
    p.set_defaults(fn=cmd_vanilla)

    p = sub.add_parser("bugs", help="run the bug-detection campaign")
    p.add_argument("ids", nargs="*")
    p.add_argument("--attempts", type=int, default=40)
    p.add_argument("--bug-finding", action="store_true")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 if any bug is detected")
    p.set_defaults(fn=cmd_bugs)

    p = sub.add_parser("table", help="regenerate a table from the paper")
    p.add_argument("n", type=int)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("figure7", help="regenerate Figure 7")
    p.set_defaults(fn=cmd_figure7)

    p = sub.add_parser("report", help="regenerate the full evaluation")
    p.add_argument("--scale", type=float, default=0.6)
    p.add_argument("--quick", action="store_true",
                   help="skip Table 6 and the ablations (the slow parts)")
    p.add_argument("--jobs", type=int, default=1,
                   help="fan the shared measurement pass out over N fleet "
                        "workers (default 1: serial, byte-identical "
                        "output)")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("apps", help="list the application models")
    p.set_defaults(fn=cmd_apps)

    p = sub.add_parser("chaos", help="run the fault-injection chaos suite")
    p.add_argument("file", nargs="?", default=None,
                   help="program to stress (default: built-in workload)")
    p.add_argument("--seeds", type=int, nargs="*",
                   help="seeds to run each schedule on (default: 1 2 3)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print every injected fault")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("soak",
                       help="soak the app suite under overload + faults")
    p.add_argument("--seeds", type=int, nargs="*",
                   help="seeds per (app, multiplier) point (default: 0 1)")
    p.add_argument("--multipliers", type=int, nargs="*",
                   help="thread multipliers over the paper's counts "
                        "(default: 1 2 4)")
    p.add_argument("--scale", type=float, default=0.2,
                   help="per-thread work scale factor (default: 0.2)")
    p.add_argument("--smoke", action="store_true",
                   help="CI-sized sweep: multipliers 1-2, reduced "
                        "per-thread work")
    p.add_argument("--recall", action="store_true",
                   help="also run the 11-bug detection campaign under "
                        "the pressure plane")
    p.set_defaults(fn=cmd_soak)

    p = sub.add_parser("journal",
                       help="inspect a recorded journal (torn-tolerant)")
    p.add_argument("journal", help="journal file written by run --journal")
    p.add_argument("--events", type=int, default=0, metavar="N",
                   help="also print the first N events")
    p.set_defaults(fn=cmd_journal)

    p = sub.add_parser(
        "check",
        help="streaming offline checker: re-derive every verdict from a "
             "journal without re-execution (corruption-tolerant)")
    p.add_argument("journal", help="journal file (may be damaged)")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 unless the journal is intact and every "
                        "verdict agrees (partial coverage fails)")
    p.add_argument("--json", action="store_true",
                   help="print the full machine-readable check payload")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("fleet",
                       help="multi-process sharded runs and training")
    fleet_sub = p.add_subparsers(dest="fleet_command", required=True)

    def add_fleet_common(fp):
        fp.add_argument("--workers", type=int, default=2,
                        help="worker processes (0 = inline, default 2)")
        fp.add_argument("--start-method", default="spawn",
                        choices=["spawn", "fork", "forkserver"])
        fp.add_argument("--scale", type=float, default=0.4,
                        help="per-thread work scale factor")

    fp = fleet_sub.add_parser(
        "run", help="shard the 5-app suite over a worker pool")
    add_fleet_common(fp)
    fp.add_argument("--seeds", type=int, nargs="*", default=[3],
                    help="seeds per application (default: 3)")
    fp.add_argument("--bug-finding", action="store_true")
    fp.add_argument("--crash-drill", action="store_true",
                    help="kill one worker mid-job to exercise salvage + "
                         "retry")
    fp.add_argument("--bin-by-conflict", action="store_true",
                    help="order jobs by static conflict weight (heaviest "
                         "first); pure reordering, aggregates unchanged")
    fp.add_argument("--rounds", type=int, default=1,
                    help="run the batch N times, feeding each round's "
                         "violated ARs back into the conflict binning "
                         "(digest-pinned: rebinning never changes the "
                         "aggregate)")
    fp.add_argument("--no-verify", action="store_true",
                    help="skip supervisor-side replay verification")
    fp.add_argument("--check", action="store_true",
                    help="also run inline and assert identical aggregates")
    fp.set_defaults(fn=cmd_fleet_run)

    fp = fleet_sub.add_parser(
        "check",
        help="run the suite through the fleet, then offline-check every "
             "journal it produced (or sweep --journal-root)")
    add_fleet_common(fp)
    fp.add_argument("--seeds", type=int, nargs="*", default=[3],
                    help="seeds per application (default: 3)")
    fp.add_argument("--bug-finding", action="store_true")
    fp.add_argument("--journal-root", default=None, metavar="DIR",
                    help="skip the fleet run; check every *.journal under "
                         "DIR instead")
    fp.add_argument("--strict", action="store_true",
                    help="fail on partial coverage, not just disagreement")
    fp.set_defaults(fn=cmd_fleet_check)

    fp = fleet_sub.add_parser(
        "train", help="federated whitelist training over shards")
    add_fleet_common(fp)
    fp.add_argument("--app", default="NSS",
                    help="application model to train on (default: NSS)")
    fp.add_argument("--shards", type=int, default=2)
    fp.add_argument("--rounds", type=int, default=3)
    fp.add_argument("--seeds-per-round", type=int, default=4)
    fp.add_argument("--seed-base", type=int, default=100)
    fp.add_argument("--shard-dir", default=None,
                    help="write per-shard + merged whitelist files here")
    fp.add_argument("--out", default=None,
                    help="write the trained whitelist to this file")
    fp.add_argument("--check", action="store_true",
                    help="assert federated == serial training")
    fp.set_defaults(fn=cmd_fleet_train)

    p = sub.add_parser("fuzz",
                       help="generative workload fuzzing of the detector")
    fuzz_sub = p.add_subparsers(dest="fuzz_cmd", required=True)

    zp = fuzz_sub.add_parser("gen", help="emit one generated mini-C program")
    zp.add_argument("--seed", type=int, default=0,
                    help="generator seed (also samples params)")
    zp.add_argument("--params", default=None, metavar="JSON",
                    help="explicit FuzzParams as a JSON object")
    zp.add_argument("--out", default=None, metavar="PATH")
    zp.set_defaults(fn=cmd_fuzz_gen)

    zp = fuzz_sub.add_parser(
        "run", help="run a fuzz campaign through the fleet")
    zp.add_argument("--programs", type=int, default=50)
    zp.add_argument("--base-seed", type=int, default=0)
    zp.add_argument("--workers", type=int, default=0,
                    help="fleet worker processes (0 = inline)")
    zp.add_argument("--drill-every", type=int, default=10,
                    help="journal-loss drill on every k-th program "
                         "(0 disables)")
    zp.add_argument("--corpus", default=None, metavar="DIR",
                    help="archive divergences into DIR")
    zp.add_argument("--chaos", default=None, metavar="SCHEDULE",
                    help="run under a builtin chaos schedule")
    zp.add_argument("--minimize-tests", type=int, default=250)
    zp.add_argument("--rounds", type=int, default=1,
                    help="split the batch into N fleet rounds, rebinning "
                         "each round with the violation history so far")
    zp.add_argument("--no-fix", action="store_true",
                    help="skip the fix-synthesis stage")
    zp.add_argument("--strict", action="store_true",
                    help="exit 3 when any divergence was archived")
    zp.set_defaults(fn=cmd_fuzz_run)

    zp = fuzz_sub.add_parser(
        "minimize", help="ddmin-shrink a diverging program")
    zp.add_argument("file", help="mini-C program exhibiting a divergence")
    zp.add_argument("--seed", type=int, required=True,
                    help="run seed the divergence was seen under")
    zp.add_argument("--kinds", default="reverify",
                    help="comma-separated divergence kinds to preserve")
    zp.add_argument("--drill", default=None,
                    help="journal-loss drill (e.g. drop-trigger)")
    zp.add_argument("--max-tests", type=int, default=400)
    zp.set_defaults(fn=cmd_fuzz_minimize)

    zp = fuzz_sub.add_parser(
        "fix", help="synthesize + replay-verify a fix for a violation")
    zp.add_argument("file", help="mini-C program with a confirmed violation")
    zp.add_argument("--seed", type=int, default=0)
    zp.set_defaults(fn=cmd_fuzz_fix)

    p = sub.add_parser("serve",
                       help="long-lived warm-worker detection daemon")
    p.add_argument("--socket", required=True, metavar="PATH",
                   help="Unix-domain socket path to listen on")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--start-method", default="spawn",
                   choices=["spawn", "fork", "forkserver"])
    p.add_argument("--heartbeat", type=float, default=1.0,
                   help="idle-worker heartbeat interval in seconds")
    p.add_argument("--deadline", type=float, default=30.0,
                   help="default per-request deadline in seconds")
    p.add_argument("--max-retries", type=int, default=2,
                   help="retries for a request whose worker died")
    p.add_argument("--poison-kills", type=int, default=2,
                   help="worker kills before a job is quarantined")
    p.add_argument("--rss-limit-kb", type=int, default=None,
                   help="recycle an idle worker above this RSS")
    p.add_argument("--max-jobs-per-worker", type=int, default=None,
                   help="recycle an idle worker after serving this many")
    p.add_argument("--no-verify", action="store_true",
                   help="disable post-response replay verification")
    p.add_argument("--verify-backend", default="replay",
                   choices=["replay", "checker"],
                   help="post-response verifier: full pinned replay, or "
                        "the streaming offline checker (no re-execution, "
                        "sheds less monitoring debt under load)")
    p.add_argument("--warm-apps", action="store_true",
                   help="pre-compile the 5-app suite in every worker")
    p.add_argument("--scale", type=float, default=0.4,
                   help="scale for --warm-apps pre-compilation")
    p.add_argument("--journal-root", default=None, metavar="DIR",
                   help="directory for worker journals (default: tmpdir)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("service", help="talk to a running kivati serve")
    service_sub = p.add_subparsers(dest="service_command", required=True)

    def add_service_common(sp):
        sp.add_argument("--socket", required=True, metavar="PATH")
        sp.add_argument("--timeout", type=float, default=60.0)

    for name, help_text in (("ping", "liveness probe"),
                            ("stats", "daemon stats + pool detail"),
                            ("drain", "ask the daemon to drain and exit")):
        sp = service_sub.add_parser(name, help=help_text)
        add_service_common(sp)
        if name == "stats":
            sp.add_argument("--prom", action="store_true",
                            help="emit Prometheus text exposition instead "
                                 "of JSON")
        sp.set_defaults(fn=cmd_service)

    sp = service_sub.add_parser("events", help="tail the service log")
    add_service_common(sp)
    sp.add_argument("--limit", type=int, default=100)
    sp.set_defaults(fn=cmd_service)

    sp = service_sub.add_parser("run",
                                help="submit one detection job")
    add_service_common(sp)
    sp.add_argument("file", help="mini-C program to run under Kivati")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--deadline", type=float, default=None,
                    help="per-request deadline (default: daemon policy)")
    sp.add_argument("--bug-finding", action="store_true")
    sp.add_argument("--job-id", default="cli-run")
    sp.set_defaults(fn=cmd_service)

    p = sub.add_parser("obs",
                       help="observability plane: profiles, traces, "
                            "perf-regression diffs")
    obs_sub = p.add_subparsers(dest="obs_cmd", required=True)

    op = obs_sub.add_parser(
        "report", help="run a program with the obs plane and print the "
                       "VM hot-path profile")
    op.add_argument("file", help="mini-C program to profile")
    op.add_argument("--seed", type=int, default=0)
    op.add_argument("--bug-finding", action="store_true")
    op.add_argument("--wall", action="store_true",
                    help="also attribute host wall-clock time per opcode "
                         "(non-deterministic columns)")
    op.add_argument("--top", type=int, default=12,
                    help="opcodes to show in the hot-path table")
    op.add_argument("--json", action="store_true",
                    help="print the merged metrics snapshot as JSON")
    op.set_defaults(fn=cmd_obs_report)

    op = obs_sub.add_parser(
        "export", help="export an AR-lifecycle Chrome trace (Perfetto-"
                       "viewable) from a run or a recorded journal")
    op.add_argument("file", nargs="?", default=None,
                    help="mini-C program to run and trace")
    op.add_argument("--journal", default=None, metavar="PATH",
                    help="convert an existing journal instead of running")
    op.add_argument("--seed", type=int, default=0)
    op.add_argument("--bug-finding", action="store_true")
    op.add_argument("--out", required=True, metavar="PATH",
                    help="trace JSON output path")
    op.set_defaults(fn=cmd_obs_export)

    op = obs_sub.add_parser(
        "diff", help="perf-regression sentinel: diff two BENCH_*.json "
                     "artifacts (exit 3 on regression)")
    op.add_argument("base", help="baseline artifact JSON")
    op.add_argument("new", help="candidate artifact JSON")
    op.add_argument("--rel-tol-scale", type=float, default=1.0,
                    help="scale every relative tolerance (CI dry-runs on "
                         "noisy hosts pass 2.0)")
    op.add_argument("--json", action="store_true",
                    help="emit the report as JSON")
    op.set_defaults(fn=cmd_obs_diff)

    p = sub.add_parser("bench", help="benchmark-artifact tooling")
    bench_sub = p.add_subparsers(dest="bench_cmd", required=True)
    bp = bench_sub.add_parser(
        "run", help="run one bench plane: generate, render, validate and "
                    "(with --out) write its artifact; exit 1 on any problem")
    bp.add_argument("plane", choices=sorted(PLANES))
    bp.add_argument("--smoke", action="store_true",
                    help="the plane's CI-sized run (timing gates relaxed)")
    bp.add_argument("--out", default=None, metavar="PATH",
                    help="write the artifact JSON to PATH")
    bp.set_defaults(fn=cmd_bench_run)
    bp = bench_sub.add_parser(
        "validate", help="schema-check BENCH_*.json artifacts")
    bp.add_argument("files", nargs="*",
                    help="artifact files to validate")
    bp.add_argument("--all", action="store_true",
                    help="also validate every committed BENCH_*.json")
    bp.add_argument("--root", default=".",
                    help="repo root for --all (default: .)")
    bp.set_defaults(fn=cmd_bench_validate)

    p = sub.add_parser("replay",
                       help="replay a journaled run and check determinism")
    p.add_argument("file", help="the mini-C program that was recorded")
    p.add_argument("journal", help="journal file written by run --journal")
    p.add_argument("--no-source-check", action="store_true",
                   help="skip the source-hash match check")
    p.set_defaults(fn=cmd_replay)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
