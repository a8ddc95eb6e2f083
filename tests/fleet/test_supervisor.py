"""Supervisor tests: inline reference, real worker pools, crash
recovery, admission control.

Multi-process tests use the ``fork`` start method: these workers import
nothing lazily that fork would miss, and fork keeps the pool cheap
enough for the tier-1 suite. The spawn path is exercised by the CI fleet
smoke job (``kivati bench run fleet --smoke``) where cold-start cost is
amortized over a full benchmark.
"""

import pytest

from repro.bench.scale import bench_config
from repro.core.config import Mode
from repro.fleet.jobs import JobSpec, app_run_jobs
from repro.fleet.supervisor import (FleetPolicy, FleetSupervisor)
from repro.pressure.policy import PressurePolicy


def _specs(seeds=(3,), scale=0.15):
    return app_run_jobs(bench_config(mode=Mode.PREVENTION), seeds=seeds,
                        scale=scale)


def _fork_policy(workers, **kwargs):
    kwargs.setdefault("start_method", "fork")
    return FleetPolicy(workers=workers, **kwargs)


@pytest.fixture(scope="module")
def inline_reference(tmp_path_factory):
    """One inline pass over the standard batch, shared by the tests that
    compare against it."""
    supervisor = FleetSupervisor(
        workers=0, policy=FleetPolicy(workers=1, verify=False),
        journal_root=str(tmp_path_factory.mktemp("inline-ref")))
    return supervisor.run_jobs(_specs())


def test_inline_executes_all_jobs(inline_reference):
    result = inline_reference
    assert result.ok
    assert len(result.results) == 5
    assert result.stats.jobs_completed == 5
    assert sorted(result.completion_order) == sorted(result.results)
    aggregate = result.aggregate()
    assert aggregate.ok
    assert aggregate.stats.traps > 0


def test_duplicate_job_ids_rejected():
    specs = _specs()
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        FleetSupervisor(workers=0).run_jobs([specs[0], specs[0]])


def test_two_worker_pool_matches_inline(inline_reference, tmp_path):
    supervisor = FleetSupervisor(workers=2, policy=_fork_policy(2),
                                 journal_root=str(tmp_path))
    result = supervisor.run_jobs(_specs())
    assert result.ok
    assert len(result.results) == 5
    # every completed run job was replay-verified by the supervisor
    assert all(r.verified for r in result.results.values())
    assert result.stats.verifications == 5
    # parallelism changed wall-clock only, never answers
    assert result.aggregate().digest() == inline_reference.aggregate().digest()


def test_crash_drill_salvage_retry_zero_lost(inline_reference, tmp_path):
    specs = [JobSpec.from_dict(s.as_dict()) for s in _specs()]
    specs[0].params["crash"] = {"at_frame": 5, "torn": 1}
    supervisor = FleetSupervisor(workers=2, policy=_fork_policy(2),
                                 journal_root=str(tmp_path))
    result = supervisor.run_jobs(specs)
    stats = result.stats
    assert stats.workers_crashed == 1
    assert stats.workers_spawned == 3  # 2 initial + 1 replacement
    assert stats.jobs_retried == 1
    assert stats.frames_salvaged > 0
    # zero lost jobs: every spec has exactly one accounted result
    assert sorted(result.results) == sorted(s.job_id for s in specs)
    assert all(r.ok for r in result.results.values())
    # the recovery record describes the salvage
    (recovery,) = result.recoveries
    assert recovery.action == "retried"
    assert recovery.torn
    assert recovery.frames_salvaged > 0
    assert recovery.job_id == specs[0].job_id
    # and the crash never leaked into the answers
    assert result.aggregate().digest() == inline_reference.aggregate().digest()


def test_inline_crash_drill_matches_pool_semantics(inline_reference,
                                                   tmp_path):
    specs = [JobSpec.from_dict(s.as_dict()) for s in _specs()]
    specs[2].params["crash"] = {"at_frame": 5, "torn": 1}
    supervisor = FleetSupervisor(
        workers=0, policy=FleetPolicy(workers=1, verify=False),
        journal_root=str(tmp_path))
    result = supervisor.run_jobs(specs)
    assert result.stats.jobs_retried == 1
    assert result.recoveries[0].action == "retried"
    assert all(r.ok for r in result.results.values())
    assert result.aggregate().digest() == inline_reference.aggregate().digest()


def test_retries_exhausted_is_failed_result_not_lost(tmp_path):
    # a drill the retry path cannot strip: max_retries=0 fails immediately
    specs = [JobSpec.from_dict(s.as_dict()) for s in _specs()[:2]]
    specs[0].params["crash"] = {"at_frame": 5, "torn": 1}
    supervisor = FleetSupervisor(
        workers=0,
        policy=FleetPolicy(workers=1, verify=False, max_retries=0),
        journal_root=str(tmp_path))
    result = supervisor.run_jobs(specs)
    assert not result.ok
    assert sorted(result.results) == sorted(s.job_id for s in specs)
    failed = result.results[specs[0].job_id]
    assert not failed.ok
    assert "crash" in failed.error
    assert result.recoveries[0].action == "failed"
    assert result.results[specs[1].job_id].ok


def test_broken_job_fails_without_killing_worker(tmp_path):
    bad = JobSpec("bad", "run", "this is not mini-C {",
                  _specs()[0].snapshot, seed=1)
    good = _specs()[:1]
    supervisor = FleetSupervisor(workers=1, policy=_fork_policy(1),
                                 journal_root=str(tmp_path))
    result = supervisor.run_jobs([bad] + good)
    assert not result.results["bad"].ok
    assert result.results[good[0].job_id].ok
    assert result.stats.workers_crashed == 0
    assert result.stats.workers_spawned == 1  # same worker did both


def test_verification_shed_before_jobs(tmp_path):
    # watermark of 1 job: with 5 pending, verification sheds but every
    # job still runs — monitoring degrades first, work never does
    pressure = PressurePolicy(suspended_watermark=1)
    policy = FleetPolicy(workers=1, verify=True, pressure=pressure)
    assert policy.shed_depth == 1
    supervisor = FleetSupervisor(workers=0, policy=policy,
                                 journal_root=str(tmp_path))
    result = supervisor.run_jobs(_specs())
    assert len(result.results) == 5
    assert all(r.ok for r in result.results.values())
    assert result.stats.verifications_shed > 0
    assert (result.stats.verifications
            + result.stats.verifications_shed) == 5
    shed = [r for r in result.results.values() if r.verify_shed]
    assert len(shed) == result.stats.verifications_shed


def test_reject_watermark_sheds_jobs_explicitly(tmp_path):
    pressure = PressurePolicy(suspended_watermark=1)
    policy = FleetPolicy(workers=1, verify=False, pressure=pressure)
    assert policy.reject_depth == 4
    supervisor = FleetSupervisor(workers=0, policy=policy,
                                 journal_root=str(tmp_path))
    specs = _specs()
    result = supervisor.run_jobs(specs, reject_overflow=True)
    assert len(result.rejections) == 1
    assert result.stats.jobs_rejected == 1
    assert len(result.results) == 4
    assert not result.ok  # rejections are never silent
    rejected_ids = {r.spec.job_id for r in result.rejections}
    assert rejected_ids == {specs[-1].job_id}


def test_fleet_watermarks_scale_with_workers():
    pressure = PressurePolicy(suspended_watermark=3)
    shed1, reject1 = pressure.fleet_watermarks(1)
    shed4, reject4 = pressure.fleet_watermarks(4)
    assert shed4 == 4 * shed1
    assert reject1 == 4 * shed1
    assert reject4 == 4 * shed4
