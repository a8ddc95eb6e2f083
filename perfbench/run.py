"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload apps|fuzz|journal --seed N \\
        --seconds S --trace 0|1

Every metric is printed as ``name value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).  A JSON report with every
figure, the exact counts and each operation's outcome is written to
``.perfbench-out/`` in the checkout, with the traced run's spans beside
it.  The program runs from ``src/`` in the same checkout; without it
the command exits with status 2 and prints no result.

``setup_s`` is the median of several set-ups: this process's own and
the others each in a fresh interpreter, spread evenly over the run and
off its clock, so the process that runs the workload (and whose peak
memory is reported) only ever holds one set-up.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOAD_NAMES = ("apps", "fuzz", "journal")
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 9
#: longest a set-up in a fresh interpreter may take
SETUP_TIMEOUT_S = 30


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print its seconds, exit")
    return parser.parse_args(argv)


def timed_setup(name, seed):
    """Import the program and the benchmark and set the workload up;
    returns (harness module, workload, seconds taken)."""
    start = time.perf_counter()
    from perfbench import harness
    workload = harness.WORKLOADS[name](seed, OUT_DIR)
    workload.setup()
    return harness, workload, time.perf_counter() - start


class SetupFailed(Exception):
    pass


def setup_in_child(args):
    """Seconds of one set-up, timed by a fresh interpreter that exits
    when it is done."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-only"]
    try:
        child = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SetupFailed("set-up took over %d s" % SETUP_TIMEOUT_S)
    if child.returncode != 0:
        raise SetupFailed("set-up failed:\n" + child.stderr)
    return float(child.stdout.split()[-1])


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    if args.setup_only:
        print(repr(timed_setup(args.workload, args.seed)[2]))
        return 0
    if args.trace:
        harness, workload, _ = timed_setup(args.workload, args.seed)
        # spans are large: keep only the latest traced run's per workload
        spans_path = os.path.join(OUT_DIR, "%s.spans" % args.workload)
        run = harness.traced_run(workload, args.seconds, spans_path)
        declared = harness.PER_LAYER
    else:
        harness, workload, seconds = timed_setup(args.workload, args.seed)
        setups = [seconds]

        def child_setup():
            setups.append(setup_in_child(args))

        # the other set-ups are spread over the run, off its clock, so
        # their median samples the host's speed across the whole run
        try:
            run = harness.untraced_run(workload, args.seconds,
                                       [child_setup] * (SETUP_REPEATS - 1))
        except SetupFailed as failure:
            print("perfbench: %s" % failure, file=sys.stderr)
            return 1
        run["metrics"]["setup_s"] = statistics.median(setups)
        declared = harness.END_TO_END
    window = workload.window
    records = run["records"]
    counts, digest = harness.exact_counts(records, window)
    extra = harness.workload_metrics(args.workload, records, window)
    failures = [(i, r.problems) for i, r in enumerate(records) if not r.ok]

    for name, unit in declared:
        print("%-34s %.10g %s" % (name, run["metrics"][name], unit))
    for name, value, unit in extra:
        print("%-34s %.10g %s" % (name, value, unit))
    for name, value in counts.items():
        print("exact.%-28s %d count (first %d ops)" % (name, value, window))
    print("exact.digest                       %s" % digest)
    for index, problems in failures[:5]:
        print("FAILED op %d: %s" % (index, "; ".join(problems)),
              file=sys.stderr)
    for index, record in enumerate(records):
        if record.counts.get("known_defect_verdicts"):
            print("KNOWN DEFECT op %d: %d unprevented verdict(s) missed by "
                  "the online detector after a watchdog break"
                  % (index, record.counts["known_defect_verdicts"]),
                  file=sys.stderr)
    for text in run["checks"]:
        print("CHECK FAILED: %s" % text, file=sys.stderr)

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "metrics": run["metrics"],
        "workload_metrics": {name: value for name, value, _ in extra},
        "exact_counts": counts, "exact_digest": digest,
        "exact_window_ops": window,
        "checks": run["checks"],
        "ops": [{"seconds": r.seconds, "ok": r.ok, "problems": r.problems,
                 "digest": r.digest} for r in records],
    }
    with open(stem + ".json", "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": not failures and not run["checks"],
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": run["metrics"][name], "unit": unit}
                    for name, unit in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
