"""Daemon robustness tests: one warm in-process daemon shared by the
happy-path and hostile-input tests, plus small dedicated daemons for the
scenarios that change pool state (overload, drain, recycling).

Workers use the ``fork`` start method for the same reason the fleet
tests do: cheap pools for tier-1. The spawn path is exercised by the CI
service smoke (``kivati bench run service --smoke``).
"""

import os
import socket
import struct
import threading
import time

import pytest

from repro.bench.scale import bench_config
from repro.bench.servicebench import MICRO_SOURCE, micro_spec
from repro.core.config import Mode
from repro.fleet.jobs import digest_of
from repro.fleet.worker import execute_job
from repro.pressure.policy import PressurePolicy
from repro.service import (KivatiDaemon, ServiceClient, ServicePolicy,
                           send_frame, recv_frame)

CONFIG = bench_config(mode=Mode.PREVENTION)


def _policy(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("start_method", "fork")
    kwargs.setdefault("heartbeat_s", 0.2)
    kwargs.setdefault("poll_s", 0.005)
    kwargs.setdefault("retry_backoff_s", 0.01)
    kwargs.setdefault("warm_sources", (MICRO_SOURCE,))
    return ServicePolicy(**kwargs)


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    root = tmp_path_factory.mktemp("svc")
    d = KivatiDaemon(str(root / "kivati.sock"), _policy(),
                     journal_root=str(root / "journals"))
    d.start()
    yield d
    d.stop()


@pytest.fixture()
def client(daemon):
    with ServiceClient(daemon.socket_path, timeout=60.0) as c:
        yield c


def _result_digest(result):
    return digest_of({"job_id": result["job_id"], "kind": result["kind"],
                      "ok": result["ok"], "payload": result["payload"]})


# ----------------------------------------------------------------------
# happy path
# ----------------------------------------------------------------------

def test_ping(client):
    response = client.ping()
    assert response["ok"] and response["pong"]
    assert response["draining"] is False


def test_submit_matches_inline_execution(client, tmp_path):
    spec = micro_spec(CONFIG, "basic", 11)
    response = client.submit(spec, request_id="req-basic")
    assert response["ok"] and response["request_id"] == "req-basic"
    result = response["result"]
    assert result["ok"] and result["attempt"] == 0
    inline = execute_job(spec.as_dict(), journal_dir=str(tmp_path))
    assert _result_digest(result) == _result_digest(inline)


def test_same_spec_is_deterministic_across_workers(client):
    spec = micro_spec(CONFIG, "det", 12)
    digests = set()
    workers = set()
    for i in range(4):
        response = client.submit(spec)
        digests.add(_result_digest(response["result"]))
        workers.add(response["result"]["worker_id"])
    assert len(digests) == 1


def test_post_response_verification_runs(daemon, client):
    before = daemon.stats.verifications
    client.submit(micro_spec(CONFIG, "verified", 13))
    deadline = time.perf_counter() + 10.0
    while time.perf_counter() < deadline:
        if daemon.stats.verifications > before:
            break
        time.sleep(0.02)
    assert daemon.stats.verifications > before
    assert daemon.stats.verification_failures == 0


def test_checker_verify_backend_verifies_without_replay(tmp_path):
    policy = _policy(workers=1, verify_backend="checker")
    d = KivatiDaemon(str(tmp_path / "s.sock"), policy,
                     journal_root=str(tmp_path / "j"))
    d.start()
    try:
        with ServiceClient(d.socket_path, timeout=60.0) as c:
            response = c.submit(micro_spec(CONFIG, "ck-backend", 14))
        assert response["ok"]
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline:
            if d.stats.verifications:
                break
            time.sleep(0.02)
        assert d.stats.verifications > 0
        assert d.stats.verification_failures == 0
    finally:
        d.stop()


def test_unknown_verify_backend_rejected():
    from repro.errors import ConfigError
    with pytest.raises(ConfigError):
        _policy(verify_backend="osmosis")


def test_socket_path_over_the_af_unix_limit_rejected(tmp_path):
    """A path the kernel cannot bind fails up front, naming the limit,
    before any listener or worker exists."""
    from repro.errors import ConfigError
    path = str(tmp_path / ("s" * 120))
    with pytest.raises(ConfigError, match="107-byte AF_UNIX limit"):
        KivatiDaemon(path, _policy())
    assert not os.path.exists(path)


def test_stats_op_reports_pool(client):
    response = client.stats()
    assert response["ok"]
    assert response["pool"]["workers"] == 2
    assert set(response["stats"]) >= {"requests_accepted", "retries",
                                      "workers_crashed"}


def test_events_op_returns_log(client):
    response = client.events(limit=5)
    assert response["ok"]
    assert isinstance(response["events"], list)


# ----------------------------------------------------------------------
# hostile input
# ----------------------------------------------------------------------

def test_unknown_op(daemon, client):
    response = client.request({"op": "self-destruct"})
    assert not response["ok"]
    assert response["error"]["kind"] == "unknown-op"
    assert daemon.stats.unknown_ops >= 1


def test_invalid_spec_rejected_structurally(client):
    response = client.request({"op": "submit",
                               "spec": {"job_id": "x", "kind": "run"}})
    assert not response["ok"]
    assert response["error"]["kind"] == "invalid-spec"


def test_unservable_kind_rejected(client):
    spec = micro_spec(CONFIG, "sneaky", 1).as_dict()
    spec["kind"] = "suite"
    response = client.request({"op": "submit", "spec": spec})
    assert not response["ok"]
    assert response["error"]["kind"] == "invalid-spec"
    assert "suite" in response["error"]["message"]


def test_malformed_frame_answered_then_closed(daemon):
    before = daemon.stats.malformed_frames
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(daemon.socket_path)
    garbage = b"this is not json"
    sock.sendall(struct.pack(">I", len(garbage)) + garbage)
    response = recv_frame(sock)
    assert not response["ok"]
    assert response["error"]["kind"] == "malformed-frame"
    # the connection is closed after the error...
    assert recv_frame(sock) is None
    sock.close()
    assert daemon.stats.malformed_frames == before + 1
    # ...and the daemon still serves
    with ServiceClient(daemon.socket_path) as c:
        assert c.ping()["ok"]


def test_client_disconnect_mid_request_absorbed(daemon):
    before = daemon.stats.client_disconnects
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(daemon.socket_path)
    send_frame(sock, {"op": "submit",
                      "spec": micro_spec(CONFIG, "ghost", 5).as_dict(),
                      "deadline_s": 30.0})
    sock.close()  # hang up before the answer
    deadline = time.perf_counter() + 15.0
    while time.perf_counter() < deadline:
        if daemon.stats.client_disconnects > before:
            break
        time.sleep(0.02)
    assert daemon.stats.client_disconnects > before
    with ServiceClient(daemon.socket_path) as c:
        assert c.ping()["ok"]


# ----------------------------------------------------------------------
# deadlines, crash retry, poison
# ----------------------------------------------------------------------

def test_live_but_stuck_worker_hits_deadline_and_is_recycled(daemon,
                                                             client):
    spec = micro_spec(CONFIG, "stuck", 6)
    spec.params["stall_s"] = 30.0  # heartbeats stay fresh; no result
    before_recycled = daemon.pool.workers_recycled
    started = time.perf_counter()
    response = client.submit(spec, deadline_s=0.6)
    elapsed = time.perf_counter() - started
    assert not response["ok"]
    assert response["error"]["kind"] == "deadline"
    assert elapsed < 10.0
    assert daemon.pool.workers_recycled > before_recycled
    assert any(e["kind"] == "recycle" and e.get("reason") == "deadline"
               for e in daemon.events)
    # the pool healed: the next request is served normally
    assert client.submit(micro_spec(CONFIG, "after-stuck", 7))["ok"]


def test_crash_drill_retried_on_fresh_worker(daemon, client):
    spec = micro_spec(CONFIG, "crashy", 8)
    spec.params["crash"] = {"at_frame": 3, "torn": 1}
    before = daemon.stats.as_dict()
    response = client.submit(spec, deadline_s=60.0)
    after = daemon.stats.as_dict()
    assert response["ok"]
    result = response["result"]
    assert result["ok"] and result["attempt"] == 1
    assert after["workers_crashed"] == before["workers_crashed"] + 1
    assert after["retries"] == before["retries"] + 1
    assert after["frames_salvaged"] > before["frames_salvaged"]
    # the retry ran without the drill: digest equals the clean run
    clean = client.submit(micro_spec(CONFIG, "crashy", 8))
    assert _result_digest(clean["result"]) == _result_digest(result)
    # both the kill and the retry are in the service log
    kinds = [e["kind"] for e in daemon.events
             if e.get("job_id") == "crashy"]
    assert "recovery" in kinds and "retry" in kinds


def test_poison_job_quarantined_after_bounded_kills(daemon, client):
    spec = micro_spec(CONFIG, "toxic", 9)
    spec.params["poison"] = True
    before = daemon.stats.as_dict()
    response = client.submit(spec, deadline_s=60.0)
    after = daemon.stats.as_dict()
    assert not response["ok"]
    assert response["error"]["kind"] == "poison"
    assert (after["workers_crashed"]
            == before["workers_crashed"] + daemon.policy.poison_kills)
    assert after["poison_quarantined"] == before["poison_quarantined"] + 1
    assert any(e["kind"] == "poison-quarantine" for e in daemon.events)
    # resubmission is rejected at admission: no more workers burned
    crashed = daemon.stats.workers_crashed
    again = client.submit(spec)
    assert not again["ok"] and again["error"]["kind"] == "poison"
    assert daemon.stats.workers_crashed == crashed
    assert daemon.stats.requests_rejected_poison >= 1
    # and the daemon still serves clean work
    assert client.submit(micro_spec(CONFIG, "after-toxic", 10))["ok"]


# ----------------------------------------------------------------------
# overload, recycling, drain (dedicated daemons)
# ----------------------------------------------------------------------

def test_overload_rejects_only_above_reject_watermark(tmp_path):
    policy = _policy(workers=1,
                     pressure=PressurePolicy(suspended_watermark=1))
    d = KivatiDaemon(str(tmp_path / "s.sock"), policy,
                     journal_root=str(tmp_path / "j"))
    d.start()
    try:
        responses = []
        lock = threading.Lock()

        def one(i):
            spec = micro_spec(CONFIG, "load-%d" % i, 40 + i)
            spec.params["stall_s"] = 0.4
            with ServiceClient(d.socket_path, timeout=60.0) as c:
                r = c.submit(spec, deadline_s=30.0)
            with lock:
                responses.append(r)

        n = policy.reject_depth + 3
        threads = [threading.Thread(target=one, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
            time.sleep(0.02)  # queue builds while worker 0 stalls
        for t in threads:
            t.join()
        rejected = [r for r in responses
                    if not r["ok"] and r["error"]["kind"] == "overloaded"]
        completed = [r for r in responses if r["ok"]]
        assert len(responses) == n            # zero lost
        assert rejected, "no request was shed at the reject watermark"
        assert completed, "admission control rejected everything"
        assert d.stats.requests_rejected_overload == len(rejected)
    finally:
        d.stop()


def test_jobs_cap_recycles_idle_worker(tmp_path):
    policy = _policy(workers=1, max_jobs_per_worker=1)
    d = KivatiDaemon(str(tmp_path / "s.sock"), policy,
                     journal_root=str(tmp_path / "j"))
    d.start()
    try:
        with ServiceClient(d.socket_path) as c:
            first = c.submit(micro_spec(CONFIG, "cap-0", 1))
            second = c.submit(micro_spec(CONFIG, "cap-1", 2))
        assert first["ok"] and second["ok"]
        assert d.pool.workers_recycled >= 1
        assert first["result"]["worker_id"] != second["result"]["worker_id"]
        assert any(e["kind"] == "recycle" and "cap" in e.get("reason", "")
                   for e in d.events)
    finally:
        d.stop()


def test_drain_finishes_inflight_and_removes_socket(tmp_path):
    d = KivatiDaemon(str(tmp_path / "s.sock"), _policy(workers=1),
                     journal_root=str(tmp_path / "j"))
    d.start()
    inflight = {}

    def slow_submit():
        spec = micro_spec(CONFIG, "inflight", 3)
        spec.params["stall_s"] = 0.5
        with ServiceClient(d.socket_path, timeout=60.0) as c:
            inflight["response"] = c.submit(spec, deadline_s=30.0)

    t = threading.Thread(target=slow_submit)
    t.start()
    time.sleep(0.15)  # let it reach a worker
    # a connection opened before the drain sees a structured rejection
    late = ServiceClient(d.socket_path, timeout=10.0)
    late.ping()
    d.initiate_drain("test")
    rejected = late.submit(micro_spec(CONFIG, "too-late", 4))
    assert not rejected["ok"]
    assert rejected["error"]["kind"] == "draining"
    late.close()
    assert d.wait_drained(timeout=60.0)
    t.join(timeout=10.0)
    assert inflight["response"]["ok"], "in-flight request lost by drain"
    assert not os.path.exists(d.socket_path)
    assert d.stats.requests_rejected_draining >= 1
