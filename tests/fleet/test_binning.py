"""Conflict-aware fleet binning: weight order, digest transparency, CLI.

Binning is longest-processing-time ordering by static conflict weight.
It must change only *when* jobs start — a binned 2-worker run has to
aggregate bit-identically to the unbinned inline reference.
"""

import os
import subprocess
import sys

import pytest

from repro.bench.scale import bench_config
from repro.core.config import Mode
from repro.fleet.binning import (bin_jobs_by_conflict, job_conflict_weight,
                                 run_binned_rounds, violation_history)
from repro.fleet.jobs import app_run_jobs
from repro.fleet.supervisor import FleetPolicy, FleetSupervisor

#: repo root (the subprocesses' relative ``src`` path resolves here)
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

QUIET = """
int x = 0;
void main() { x = 1; output(x); }
"""

NOISY = """
int x;
void worker() {
    int t = x;
    x = t + 1;
}
void main() { spawn worker(); spawn worker(); spawn worker(); }
"""


def _specs(seeds=(3,), scale=0.15):
    return app_run_jobs(bench_config(mode=Mode.PREVENTION), seeds=seeds,
                        scale=scale)


def test_weight_orders_contended_before_quiet():
    assert job_conflict_weight(NOISY) > job_conflict_weight(QUIET)
    assert job_conflict_weight(QUIET) == 0


def test_history_boosts_weight():
    result = __import__("repro.analysis.annotate",
                        fromlist=["annotate"]).annotate(NOISY)
    history = {ar_id: 5 for ar_id in result.ar_table}
    assert (job_conflict_weight(NOISY, history=history)
            > job_conflict_weight(NOISY))


def test_binning_orders_by_weight_then_job_id():
    specs = _specs()
    ordered, weights = bin_jobs_by_conflict(specs)
    assert sorted(s.job_id for s in ordered) == sorted(
        s.job_id for s in specs)
    keys = [(-weights[s.job_id], s.job_id) for s in ordered]
    assert keys == sorted(keys)


def test_binned_two_worker_run_matches_unbinned_inline(tmp_path):
    """Binning is scheduling metadata only: the binned 2-worker
    aggregate digest equals the unbinned inline reference."""
    specs = _specs()
    inline = FleetSupervisor(
        workers=0, policy=FleetPolicy(workers=1, verify=False),
        journal_root=str(tmp_path / "inline")).run_jobs(specs)
    binned, _ = bin_jobs_by_conflict(_specs())
    pool = FleetSupervisor(
        workers=2, policy=FleetPolicy(workers=2, start_method="fork"),
        journal_root=str(tmp_path / "binned")).run_jobs(binned)
    assert pool.ok
    assert pool.aggregate().digest() == inline.aggregate().digest()


def test_violation_history_folds_ids_and_aggregates():
    history = violation_history(["a", "b", "a"])
    assert history == {"a": 2, "b": 1}
    # accumulation copies: the input map is untouched
    more = violation_history(["b"], history)
    assert more == {"a": 2, "b": 2} and history["b"] == 1

    class FakeAggregate:
        violated_ars = [("job1", "a"), ("job2", "c")]

    assert violation_history(FakeAggregate(), history) == {
        "a": 3, "b": 1, "c": 1}


def test_run_binned_rounds_rebins_with_live_history(tmp_path):
    """The arbiter's violation history feeds back into the binning
    between rounds, and the digest pin holds: every round's aggregate is
    identical because rebinning is pure scheduling."""
    specs = _specs()
    supervisor = FleetSupervisor(
        workers=0, policy=FleetPolicy(workers=1, verify=False),
        journal_root=str(tmp_path))
    outcome = run_binned_rounds(supervisor, specs, rounds=2)
    assert len(outcome.rounds) == 2
    assert outcome.digests_agree
    # the suite's racy apps violate, so round 2 really saw history
    assert outcome.history
    assert all(count > 0 for count in outcome.history.values())
    # round 1 binned with no history; round 2 with the live map — both
    # cover exactly the original job set
    for entry in outcome.rounds:
        assert sorted(entry["order"]) == sorted(s.job_id for s in specs)
    # the final history counts each round's aggregate once per round
    first_round = violation_history(outcome.last.aggregate())
    assert outcome.history == {ar: 2 * n for ar, n in first_round.items()}


def test_cli_fleet_run_rounds_digest_pin():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "fleet", "run",
         "--seeds", "3", "--scale", "0.15", "--workers", "0",
         "--no-verify", "--rounds", "2"],
        capture_output=True, text=True, cwd=_REPO_ROOT,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "round 2 binning" in proc.stdout
    assert "2 round digests agree" in proc.stdout


def test_cli_fleet_run_bin_by_conflict():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "fleet", "run",
         "--seeds", "3", "--scale", "0.15", "--workers", "0",
         "--no-verify", "--bin-by-conflict"],
        capture_output=True, text=True, cwd=_REPO_ROOT,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "conflict binning (heaviest first):" in proc.stdout
