"""Bench planes, fleet batches and the service daemon remove the temp
directories they create.

Each test points :data:`tempfile.tempdir` at a fresh directory, runs the
code that makes a temp dir, and asserts nothing with the plane's prefix
is left behind. A fleet batch or daemon given no ``journal_root``
journals into a ``kivati-fleet-``/``kivati-serve-`` root of its own,
removed when the batch returns or the drain completes (after
verification), and makes none when it does not journal.
"""

import os
import tempfile

import pytest

from repro.bench import checkerbench, servicebench
from repro.bench.scale import bench_config
from repro.bench.servicebench import MICRO_SOURCE, micro_spec
from repro.core.config import Mode
from repro.fleet.supervisor import FleetPolicy, FleetSupervisor
from repro.service import KivatiDaemon, ServiceClient, ServicePolicy

CONFIG = bench_config(mode=Mode.PREVENTION)


@pytest.fixture
def fresh_tempdir(tmp_path, monkeypatch):
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root


def _left(root, prefix):
    return sorted(name for name in os.listdir(str(root))
                  if name.startswith(prefix))


def test_checkerbench_removes_its_workdirs(fresh_tempdir):
    rows, _slope = checkerbench.scaling_series((400,))
    assert rows[0]["sound"]
    speedup = checkerbench.speedup_section(iters=3, runs=1)
    assert speedup["journal_bytes"] > 0
    sweep = checkerbench.corruption_sweep(iters=2)
    assert sweep["truncations"] > 0 and not sweep["crashes"]
    assert _left(fresh_tempdir, "kivati-checkerbench-") == []


def test_servicebench_removes_its_socket_dir(fresh_tempdir, monkeypatch):
    seen = {}

    def short_run(daemon, socket_path, *args):
        seen["socket"] = socket_path
        return {}

    # the daemon starts, serves nothing and drains: only the socket dir
    # lifecycle is under test here
    monkeypatch.setattr(servicebench, "_generate_against", short_run)
    payload = servicebench.generate(workers=1, rates=(5.0, 10.0, 20.0),
                                    scale=0.03, start_method="fork")
    assert seen["socket"].startswith(str(fresh_tempdir))
    assert payload["drain"] == {"ok": True, "socket_removed": True}
    assert _left(fresh_tempdir, "kivati-svcbench-") == []
    assert _left(fresh_tempdir, "kivati-serve-") == []


@pytest.mark.parametrize("workers", [0, 2])
def test_fleet_batch_removes_its_journal_root(fresh_tempdir, workers):
    specs = [micro_spec(CONFIG, "tmp-%d" % i, 50 + i) for i in range(3)]
    result = FleetSupervisor(
        workers=workers,
        policy=FleetPolicy(workers=2, start_method="fork")).run_jobs(specs)
    assert result.ok
    # journals were written and verified under a root in fresh_tempdir
    assert all(r.journal_path.startswith(str(fresh_tempdir))
               and r.verified for r in result.results.values())
    assert _left(fresh_tempdir, "kivati-fleet-") == []


def test_fleet_batch_without_journals_makes_no_root(fresh_tempdir):
    specs = [micro_spec(CONFIG, "nojournal", 60)]
    for workers in (0, 1):
        result = FleetSupervisor(
            workers=workers,
            policy=FleetPolicy(workers=1, verify=False,
                               collect_journals=False,
                               start_method="fork")).run_jobs(specs)
        assert result.ok
        assert result.results["nojournal"].journal_path is None
    assert os.listdir(str(fresh_tempdir)) == []


def test_daemon_drain_removes_its_journal_root(fresh_tempdir, tmp_path):
    policy = ServicePolicy(workers=1, start_method="fork", poll_s=0.005,
                           warm_sources=(MICRO_SOURCE,))
    daemon = KivatiDaemon(str(tmp_path / "s.sock"), policy)
    daemon.start()
    try:
        with ServiceClient(daemon.socket_path, timeout=60.0) as client:
            assert client.submit(micro_spec(CONFIG, "svc-tmp", 61))["ok"]
        assert len(_left(fresh_tempdir, "kivati-serve-")) == 1
    finally:
        daemon.stop()
    assert _left(fresh_tempdir, "kivati-serve-") == []
