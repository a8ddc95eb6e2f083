"""Worker-pool channel contract: each worker talks over its own pipe,
so a worker that dies mid-message, or writes garbage, costs only
itself; and a dead worker is seen as EOF on its channel (or its process
sentinel) even when a sibling forked after it is still alive.

Forked workers, as in the other fleet tests: the tearing worker below
replaces the pool's ``worker_main`` by monkeypatching, which a forked
child inherits.
"""

import functools
import os
import signal
import struct
import time
from multiprocessing.connection import wait

import pytest

from repro.bench.scale import bench_config
from repro.core.config import Mode
from repro.fleet import pool as pool_mod
from repro.fleet.jobs import app_run_jobs
from repro.fleet.pool import WorkerPool
from repro.fleet.supervisor import FleetPolicy, FleetSupervisor
from repro.fleet.worker import worker_main


def _specs():
    return app_run_jobs(bench_config(mode=Mode.PREVENTION), seeds=(3,),
                        scale=0.15)


def _tearing_worker_main(tear, worker_id, conn, journal_dir,
                         heartbeat_s=None):
    """Worker ``w0`` takes one job, then breaks its channel mid-message;
    every other worker is a real one."""
    if worker_id != "w0":
        return worker_main(worker_id, conn, journal_dir, heartbeat_s)
    conn.recv()
    if tear == "torn":
        # a length header promising 1000 bytes, 7 of which follow
        os.write(conn.fileno(), struct.pack("!i", 1000) + b"partial")
        os._exit(137)
    # a whole frame that does not unpickle; the worker stays alive
    conn.send_bytes(b"\x80\x04garbage, not a pickle")
    time.sleep(120)


@pytest.fixture(scope="module")
def inline_digest():
    return FleetSupervisor(
        workers=0, policy=FleetPolicy(workers=1, verify=False)).run_jobs(
            _specs()).aggregate().digest()


@pytest.mark.parametrize("tear", ["torn", "garbage"])
def test_broken_frame_costs_only_its_worker(tear, inline_digest,
                                            monkeypatch, tmp_path):
    monkeypatch.setattr(pool_mod, "worker_main",
                        functools.partial(_tearing_worker_main, tear))
    specs = _specs()
    supervisor = FleetSupervisor(
        workers=2, policy=FleetPolicy(workers=2, start_method="fork"),
        journal_root=str(tmp_path))
    started = time.perf_counter()
    result = supervisor.run_jobs(specs)
    assert time.perf_counter() - started < 60.0
    # zero lost jobs: the broken worker's job was retried elsewhere
    assert sorted(result.results) == sorted(s.job_id for s in specs)
    assert all(r.ok and r.verified for r in result.results.values())
    assert result.stats.workers_crashed == 1
    assert result.stats.jobs_retried == 1
    (recovery,) = result.recoveries
    assert recovery.worker_id == "w0" and recovery.action == "retried"
    assert result.aggregate().digest() == inline_digest


def test_dead_worker_reads_eof_while_later_sibling_lives():
    pool = WorkerPool(2, "fork")
    try:
        first, second = pool.workers["w0"], pool.workers["w1"]
        os.kill(first.process.pid, signal.SIGKILL)
        assert wait([first.process.sentinel], 10.0)
        # EOF, not silence: w1 was forked after w0, and neither it nor
        # the parent holds w0's end of the channel
        assert first.conn.poll(10.0)
        with pytest.raises(EOFError):
            first.conn.recv()
        assert second.process.is_alive()
        events = pool.poll(10.0)
        assert [(tag, worker.worker_id) for tag, worker, _ in events] \
            == [("exit", "w0")]
        assert sorted(pool.workers) == ["w1", "w2"]
        assert second.process.is_alive()
    finally:
        pool.stop()
