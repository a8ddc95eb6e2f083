"""Worker input-guard and managed-kill tests.

A worker is a long-lived asset: hostile or corrupt job payloads must
come back as structured error results — never as an exception that
burns the process — and a SIGTERM (supervisor timeout, pool recycle,
operator) must close the in-flight journal frame-clean before the
worker dies.
"""

import multiprocessing
import os
import time

import pytest

from repro.bench.scale import bench_config
from repro.bench.servicebench import micro_spec
from repro.core.config import Mode
from repro.fleet.jobs import JobSpec
from repro.fleet.worker import (TERM_EXIT_STATUS, execute_job,
                                job_journal_path, parse_spec, worker_main)
from repro.journal.recovery import salvage

CONFIG = bench_config(mode=Mode.PREVENTION)

GARBAGE_PAYLOADS = [
    b"\xff\xfe\x00not utf-8 at all\x80",        # undecodable bytes
    '{"job_id": "t", "kind": "run", "sou',      # truncated JSON text
    "just some words",                          # non-JSON text
    [1, 2, 3],                                  # non-object
    42,                                         # non-object scalar
    {"job_id": "half", "kind": "run"},          # missing required keys
    {"job_id": "bad-kind", "kind": "explode",   # unknown kind
     "source": "", "snapshot": {}},
    {"job_id": "", "kind": "run", "source": "",  # empty job_id
     "snapshot": {}},
]


@pytest.mark.parametrize("payload", GARBAGE_PAYLOADS,
                         ids=[str(i) for i in range(len(GARBAGE_PAYLOADS))])
def test_parse_spec_turns_garbage_into_error_results(payload):
    spec, error = parse_spec(payload)
    assert spec is None
    assert error is not None
    assert error["ok"] is False
    assert isinstance(error["error"], str) and error["error"]
    assert error["payload"] is None


def test_parse_spec_accepts_valid_dict_and_json_text():
    valid = micro_spec(CONFIG, "ok", 1).as_dict()
    spec, error = parse_spec(valid)
    assert error is None and spec.job_id == "ok"
    import json

    spec, error = parse_spec(json.dumps(valid))
    assert error is None and spec.job_id == "ok"


def test_execute_job_never_raises_on_garbage():
    for payload in GARBAGE_PAYLOADS:
        result = execute_job(payload)
        assert result["ok"] is False


def _start_worker(worker_id, journal_dir):
    """A forked worker on its own duplex channel, as the pool runs it."""
    ctx = multiprocessing.get_context("fork")
    conn, child_conn = ctx.Pipe()
    process = ctx.Process(target=worker_main,
                          args=(worker_id, child_conn, str(journal_dir)))
    process.start()
    child_conn.close()
    return process, conn


def test_worker_survives_garbage_then_serves(tmp_path):
    """The real regression: a worker fed malformed payloads must answer
    each with an error result and still execute the next valid job."""
    process, conn = _start_worker("guard", tmp_path)
    try:
        for payload in GARBAGE_PAYLOADS:
            conn.send(payload)
        conn.send(micro_spec(CONFIG, "after-garbage", 3).as_dict())
        errors = 0
        final = None
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and final is None:
            assert conn.poll(30.0), "worker went silent"
            tag, body = conn.recv()
            if tag != "done":
                continue  # claims
            if body["job_id"] == "after-garbage":
                final = body
            else:
                assert body["ok"] is False
                errors += 1
        assert errors == len(GARBAGE_PAYLOADS)
        assert final is not None and final["ok"] is True
        assert process.is_alive(), "worker died on malformed input"
    finally:
        conn.send(None)
        process.join(timeout=10.0)
        if process.is_alive():
            process.kill()


def _long_spec(job_id):
    source = """\
int counter = 0;
int m = 0;

void worker(int iters) {
    int i = 0;
    while (i < iters) {
        lock(&m);
        counter = counter + 1;
        unlock(&m);
        i = i + 1;
    }
}

void main() {
    spawn worker(4000);
    spawn worker(4000);
    join();
    output(counter);
}
"""
    return JobSpec.for_config(job_id, "run", source, CONFIG, seed=3)


def test_sigterm_mid_run_closes_journal_frame_clean(tmp_path):
    """A managed kill must not leave a torn journal: the worker's
    SIGTERM handler closes the active writer before exiting 143."""
    process, conn = _start_worker("term", tmp_path)
    spec = _long_spec("longjob")
    path = job_journal_path(str(tmp_path), "longjob")
    try:
        conn.send(spec.as_dict())
        # wait until the journal has visibly grown: SIGTERM lands mid-run
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if os.path.exists(path) and os.path.getsize(path) > 2048:
                break
            time.sleep(0.01)
        assert os.path.exists(path), "journal never appeared"
        process.terminate()
        process.join(timeout=15.0)
        assert not process.is_alive()
        assert process.exitcode == TERM_EXIT_STATUS
        salvaged = salvage(path)
        assert salvaged.torn is False, "SIGTERM left a torn journal"
        assert len(salvaged.events) > 0
    finally:
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)


def test_without_crash_drill_strips_recoverable_drills_only():
    spec = micro_spec(CONFIG, "drills", 1)
    spec.params.update({"crash": {"at_frame": 3}, "stall_s": 5.0,
                        "poison": True})
    stripped = spec.without_crash_drill()
    assert "crash" not in stripped.params
    assert "stall_s" not in stripped.params
    assert stripped.params.get("poison") is True  # hostile input persists
    assert stripped.params.get("workload") == "micro"
